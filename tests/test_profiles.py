import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate

from softcone.errors import PointSingularity
from softcone.pairing import pair
from softcone.profiles import (
    DressingParams,
    angular_factor,
    evaluate,
    pairwise_angular_factor,
    profile_wavefunction,
    v_hat_T_direct,
)
from softcone.studies import superselection_slope
from softcone.quadrature import QuadratureSpec


def closed_form_A(v):
    # 2 pi v^2 int_{-1}^{1} (1-u^2)/(1-v u)^2 du in closed form
    return (4 * math.pi / v) * (math.log((1 + v) / (1 - v)) - 2 * v)


# ---------------------------------------------------------------- params

def test_params_validation():
    with pytest.raises(ValueError):
        DressingParams(alpha=0.0)
    with pytest.raises(ValueError):
        DressingParams(sigma=2.0, kappa=1.0)
    with pytest.raises(ValueError):
        DressingParams(w=(0.0, 0.0, 0.95))  # above v_max
    with pytest.raises(ValueError):
        DressingParams(v_max=1.0)
    with pytest.raises(ValueError):
        DressingParams(u=0.0)


def test_params_speed_vector():
    p = DressingParams(w=(0.1, 0.0, 0.2))
    assert p.speed == pytest.approx(math.sqrt(0.05))
    np.testing.assert_allclose(p.w_vec, [0.1, 0.0, 0.2])


# ---------------------------------------------------------------- angular oracles

@pytest.mark.parametrize("v", [0.1, 0.3, 0.6])
def test_angular_factor_matches_closed_form(v):
    assert angular_factor(v) == pytest.approx(closed_form_A(v), rel=1e-12)


def test_angular_factor_scipy_oracle():
    v = 0.47
    want, _ = scipy.integrate.quad(
        lambda u: 2 * math.pi * v * v * (1 - u * u) / (1 - v * u) ** 2, -1, 1
    )
    assert angular_factor(v) == pytest.approx(want, rel=1e-10)


def test_pairwise_angular_factor_diagonal_reduces():
    # w' = 0 collapses the cross terms: pairwise(w, 0) == angular_factor(|w|)
    assert pairwise_angular_factor((0, 0, 0.3), (0, 0, 0)) == pytest.approx(
        angular_factor(0.3), rel=1e-10
    )
    assert pairwise_angular_factor((0, 0, 0.2), (0, 0, 0.2)) == 0.0


def test_pairwise_angular_factor_scipy_oracle():
    w, wp = np.array([0.0, 0.0, 0.3]), np.array([0.0, 0.0, 0.1])

    def doppler_diff_sq(mu, phi):
        khat = np.array([math.sqrt(1 - mu * mu) * math.cos(phi),
                         math.sqrt(1 - mu * mu) * math.sin(phi), mu])
        def pw(vel):
            tr = vel - (khat @ vel) * khat
            return tr / (1 - khat @ vel)
        d = pw(w) - pw(wp)
        return d @ d

    want, _ = scipy.integrate.dblquad(doppler_diff_sq, 0, 2 * math.pi, -1, 1,
                                      epsabs=1e-12, epsrel=1e-12)
    assert pairwise_angular_factor(tuple(w), tuple(wp)) == pytest.approx(want, rel=1e-8)


# ---------------------------------------------------------------- shell norms

def shell_norm(v, r_lo, r_hi, quad):
    """Squared norm of v restricted to the shell [r_lo, r_hi]."""
    return pair(v, v, quad, r_bounds=(r_lo, r_hi)).value.real


def test_shell_norm_logarithmic_divergence(params, quad):
    kappa = params.kappa
    v = profile_wavefunction(params, "v_limit")
    norms = {s: shell_norm(v, s, kappa, quad) for s in (1e-2, 1e-4, 1e-6)}
    oracle = params.alpha * angular_factor(params.speed)
    for s, n in norms.items():
        assert n == pytest.approx(oracle * math.log(kappa / s), rel=1e-10)


def test_shell_norm_zero_velocity(quad):
    p = DressingParams(w=(0.0, 0.0, 0.0))
    assert shell_norm(profile_wavefunction(p, "v_limit"), 1e-4, p.kappa, quad) == 0.0


def test_sharp_profile_rejects_origin(params):
    wf = profile_wavefunction(params, "v_limit")
    with pytest.raises(PointSingularity):
        wf(np.zeros(3))


# ---------------------------------------------------------------- profile structure

def test_profile_kinds_and_window_validation(params):
    with pytest.raises(ValueError):
        profile_wavefunction(params, "nonsense")
    with pytest.raises(ValueError):
        profile_wavefunction(params, "v_hat", T=3.0)  # T only for v_hat_T
    with pytest.raises(ValueError):
        profile_wavefunction(params, "v_hat_T")  # needs T
    with pytest.raises(ValueError):
        profile_wavefunction(params, "term3")  # so do its remainders


def test_profiles_vanish_in_degenerate_configurations(params):
    """Transversality and empty windows force exact zeros: k parallel to w,
    zero velocity, an empty frequency shell, and a zero-length time window."""
    k = np.array([0.4, -0.2, 0.7])
    k_along = np.array([0.0, 0.0, 0.21])  # parallel to the default velocity
    still = DressingParams(w=(0.0, 0.0, 0.0))
    for kind, T in (("v_sigma", None), ("v_limit", None),
                    ("v_hat", None), ("v_hat_T", 2.0)):
        np.testing.assert_array_equal(evaluate(params, kind, k_along, T), 0.0)
        np.testing.assert_array_equal(evaluate(still, kind, k, T), 0.0)
    empty_shell = replace(params, sigma=params.kappa)
    np.testing.assert_array_equal(evaluate(empty_shell, "v_sigma", k), 0.0)
    np.testing.assert_array_equal(evaluate(params, "v_hat_T", k, T=0.0), 0.0)
    np.testing.assert_array_equal(v_hat_T_direct(params, 0.0, k), 0.0)
    np.testing.assert_array_equal(v_hat_T_direct(still, 3.0, k), 0.0)
    with pytest.raises(ValueError):
        v_hat_T_direct(params, -1.0, k)


def test_term_decomposition_sums_to_total(params):
    T = 4.0
    k = np.array([0.4, -0.2, 0.7])
    total = profile_wavefunction(params, "v_hat_T", T)(k)
    parts = profile_wavefunction(params, "v_hat")(k) + sum(
        profile_wavefunction(params, kind, T)(k) for kind in ("term2", "term3"))
    np.testing.assert_allclose(total, parts, rtol=1e-12)


def test_windowed_profile_matches_direct_double_integral(params):
    rng = np.random.default_rng(11)
    for T in (1.0, 5.0):
        wf = profile_wavefunction(params, "v_hat_T", T=T)
        for _ in range(2):
            k = rng.uniform(-1.0, 1.0, 3)
            if np.linalg.norm(k) < 0.1:
                k[2] += 0.5
            direct = v_hat_T_direct(params, T, k)
            np.testing.assert_allclose(
                wf(k), direct, atol=1e-9 * np.max(np.abs(direct))
            )


def test_windowed_remainder_oscillates_without_pointwise_decay(params):
    # at fixed k the tail terms only dephase: the third term is a pure
    # phase rotation of the limit profile, and the second stays inside a
    # T-independent envelope; decay happens only after smearing
    k = np.array([0.3, 0.1, -0.5])
    rho = np.linalg.norm(k)
    kw = float(k @ params.w_vec) / rho
    vhat = profile_wavefunction(params, "v_hat")(k)
    envelope = None
    for T in (10.0, 100.0, 1000.0):
        t3 = profile_wavefunction(params, "term3", T)(k)
        np.testing.assert_allclose(np.abs(t3), np.abs(vhat), rtol=1e-12)
        t2 = profile_wavefunction(params, "term2", T)(k)
        if envelope is None:
            # stationary bound |T sinc(b T / 2pi)| <= 2/|b| with b = rho khat.w;
            # the Doppler denominator enters vhat but not the second term
            envelope = 2.0 * np.max(np.abs(vhat)) * abs(1.0 - kw) / abs(kw)
        assert np.max(np.abs(t2)) <= 1.001 * envelope


# ---------------------------------------------------------------- difference norms

def difference(params):
    return profile_wavefunction(params, "v_limit") - profile_wavefunction(params, "v_hat")


def test_difference_norm_is_cauchy_for_matched_window(params, quad):
    diff = difference(params)
    norms = [shell_norm(diff, s, diff.truncation_radius, quad) for s in (1e-2, 1e-4, 1e-6)]
    spread = max(norms) - min(norms)
    assert spread <= 0.01 * max(norms)


def test_difference_norm_diverges_for_mismatched_window(params, quad):
    diff = difference(replace(params, g_scale=2.0))
    sigmas = (1e-2, 1e-4, 1e-6)
    norms = [shell_norm(diff, s, diff.truncation_radius, quad) for s in sigmas]
    xs = [math.log(1.0 / s) for s in sigmas]
    slope = np.polyfit(xs, norms, 1)[0]
    assert slope > 0.0
    assert norms[2] > norms[0]


def test_pairwise_divergence_slope_zero_for_equal_velocities(params, quad):
    w = [0.0, 0.0, 0.2]
    rows, _, _ = superselection_slope(params, quad, {},
                                      {"pairs": [[w, w]], "sigma_grid": [1e-2, 1e-4, 1e-6]})
    assert rows[0]["slope"] == 0.0
