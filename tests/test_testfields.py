import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from softcone import profiles, quadrature, testfields
from softcone.errors import SoftconeError
from softcone.geometry import DoubleCone, Point4
from softcone.profiles import DressingParams, profile_wavefunction
from softcone.testfields import (
    BumpProfile,
    RadialBumpTransform,
    SeparableTerm,
    TestFieldPair,
    TimeBumpTransform,
    photon_wavefunction,
)
from tests.conftest import make_field

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------- bumps

def test_bump_vanishes_outside_support():
    b = BumpProfile(1.0, 0.5, 2.0)
    x = np.array([0.4, 0.5, 1.0, 1.5, 1.6, 3.0])
    v = b(x)
    # support is the open interval (0.5, 1.5); endpoints already vanish
    assert v[0] == 0.0 and v[1] == 0.0
    assert v[2] == 2.0 * math.exp(-1.0)
    assert v[3] == 0.0 and v[4] == 0.0 and v[5] == 0.0
    assert v[3] == 0.0 and v[4] == 0.0
    assert b.support == (0.5, 1.5)


def test_bump_peak_at_center():
    b = BumpProfile(0.0, 1.0, 3.0)
    assert b(np.array([0.0]))[0] == pytest.approx(3.0 * math.exp(-1.0))


@given(
    center=st.floats(-2, 2),
    halfwidth=st.floats(0.1, 2),
    x=st.floats(-5, 5),
)
@settings(max_examples=200, deadline=None)
def test_bump_is_nonnegative_and_supported(center, halfwidth, x):
    b = BumpProfile(center, halfwidth, 1.0)
    v = b(np.array([x]))[0]
    assert v >= 0.0
    if abs(x - center) >= halfwidth:
        assert v == 0.0


def test_bump_rejects_bad_halfwidth():
    with pytest.raises(ValueError):
        BumpProfile(0.0, 0.0)
    with pytest.raises(ValueError):
        BumpProfile(0.0, -1.0)


# ---------------------------------------------------------------- transforms

def _quad_time_oracle(b, rho):
    lo, hi = b.support
    re, _ = scipy.integrate.quad(lambda t: b(np.array([t]))[0] * math.cos(rho * t), lo, hi, limit=400)
    im, _ = scipy.integrate.quad(lambda t: b(np.array([t]))[0] * math.sin(rho * t), lo, hi, limit=400)
    return (re - 1j * im) / math.sqrt(TWO_PI)


@pytest.mark.parametrize("center", [0.0, 2.0])
def test_time_transform_matches_quadrature(center):
    b = BumpProfile(center, 0.7, 1.0)
    tt = TimeBumpTransform(b)
    for rho in (0.0, 0.37, 2.0, 11.0):
        got = tt(np.array([rho]))[0] * np.exp(-1j * rho * center)
        want = _quad_time_oracle(b, rho)
        assert got == pytest.approx(want, abs=5e-9)


def test_time_transform_is_real_and_even_for_centered_bump():
    tt = TimeBumpTransform(BumpProfile(0.0, 1.0, 1.0))
    rho = np.linspace(0, 20, 64)
    vals = tt(rho)
    assert np.all(np.isreal(vals))
    assert np.allclose(tt(rho), tt(rho[::-1])[::-1])


def test_radial_transform_matches_quadrature():
    b = BumpProfile(0.0, 0.5, 1.0)
    rt = RadialBumpTransform(b)
    for rho in (0.3, 1.0, 4.0, 12.0):
        want, _ = scipy.integrate.quad(
            lambda r: r * math.sin(rho * r) * b(np.array([r]))[0], 0, 0.5, limit=400
        )
        want *= 4 * math.pi / (rho * TWO_PI**1.5)
        assert rt(np.array([rho]))[0] == pytest.approx(want, abs=1e-10)


def test_radial_transform_zero_frequency_limit():
    b = BumpProfile(0.0, 0.5, 1.0)
    rt = RadialBumpTransform(b)
    want, _ = scipy.integrate.quad(lambda r: r * r * b(np.array([r]))[0], 0, 0.5)
    want *= 4 * math.pi / TWO_PI**1.5
    assert rt(np.array([1e-12]))[0] == pytest.approx(want, rel=1e-8)


def test_radial_transform_requires_origin_center():
    with pytest.raises(ValueError):
        RadialBumpTransform(BumpProfile(1.0, 0.5))


# ---------------------------------------------------------------- field pairs

def test_field_pair_must_fit_inside_support():
    term = SeparableTerm(
        time=BumpProfile(0.0, 0.5),
        space=BumpProfile(0.0, 0.5),
        direction=(0, 0, 1),
        channel="electric",
        position=(0.0, 0.0, 3.0),
    )
    with pytest.raises(SoftconeError):
        TestFieldPair((term,), DoubleCone(Point4(0.0, np.zeros(3)), 1.5))


def test_separable_term_normalizes_direction():
    term = SeparableTerm(
        time=BumpProfile(0.0, 0.5),
        space=BumpProfile(0.0, 0.5),
        direction=(0, 0, 2.0),
        channel="electric",
        position=(0.0, 0.0, 0.0),
    )
    assert np.linalg.norm(term.direction) == pytest.approx(1.0)


def test_separable_term_rejects_unknown_channel():
    with pytest.raises(ValueError):
        SeparableTerm(
            time=BumpProfile(0.0, 0.5),
            space=BumpProfile(0.0, 0.5),
            direction=(0, 0, 1),
            channel="scalar",
            position=(0, 0, 0),
        )


# ---------------------------------------------------------------- photon map

def test_photon_wavefunction_is_transverse():
    wf = photon_wavefunction(make_field(0.0, (0.1, -0.2, 0.3)))
    rng = np.random.default_rng(5)
    k = rng.normal(size=(50, 3))
    vals = wf(k)
    dots = np.abs(np.sum(k * vals, axis=-1)) / np.linalg.norm(k, axis=-1)
    assert np.max(dots) < 1e-12 * np.max(np.abs(vals))


def test_photon_wavefunction_magnetic_is_transverse_too():
    wf = photon_wavefunction(make_field(0.0, (0.0, 0.0, 0.0), channel="magnetic",
                                        direction=(1.0, 0.0, 0.0)))
    rng = np.random.default_rng(6)
    k = rng.normal(size=(50, 3))
    vals = wf(k)
    dots = np.abs(np.sum(k * vals, axis=-1)) / np.linalg.norm(k, axis=-1)
    assert np.max(dots) < 1e-12 * np.max(np.abs(vals))


def test_photon_wavefunction_small_k_scaling():
    # |f(k)| ~ |k|^(1/2) for local fields: ratio test over two decades
    wf = photon_wavefunction(make_field(0.0, (0.0, 0.0, 0.0)))
    direction = np.array([0.3, 0.5, 0.8]) / np.linalg.norm([0.3, 0.5, 0.8])
    norms = []
    for rho in (1e-4, 1e-6):
        v = wf(rho * direction)
        norms.append(np.linalg.norm(v))
    # |f| ~ |k|^(1/2): two decades in |k| is one decade in |f|
    assert norms[0] / norms[1] == pytest.approx(10.0, rel=1e-3)
    assert wf.small_k_exponent == 0.5


def test_photon_wavefunction_position_shift_is_phase():
    base = photon_wavefunction(make_field(0.0, (0.0, 0.0, 0.0)))
    shifted = photon_wavefunction(make_field(0.0, (0.0, 0.0, 0.7), radius=1.8))
    k = np.array([[0.3, -0.4, 1.1]])
    expected = base(k) * np.exp(-1j * 0.7 * k[0, 2])
    assert np.allclose(shifted(k), expected, atol=1e-14)


def test_photon_linear_structure():
    f = photon_wavefunction(make_field(0.0, (0.0, 0.0, 0.0)))
    g = photon_wavefunction(make_field(0.3, (0.0, 0.0, 0.2), channel="magnetic"))
    k = np.array([[0.5, 0.1, -0.9], [1.2, 0.0, 0.4]])
    np.testing.assert_allclose((f + g)(k), f(k) + g(k), atol=1e-15)
    np.testing.assert_allclose((f - g)(k), f(k) - g(k), atol=1e-15)
    np.testing.assert_allclose(f.scaled(-2j)(k), -2j * f(k), atol=1e-15)
    combo = (f + g).small_k_exponent
    assert combo == min(f.small_k_exponent, g.small_k_exponent)


# ------------------------------------------------- once-per-process set-up

def test_truncation_scan_runs_once_per_field_and_window(monkeypatch):
    # halfwidths no other test uses, so no cache holds them yet
    real, scans = testfields._truncation_radius, []

    def spy(envelopes):
        scans.append(len(envelopes))
        return real(envelopes)

    monkeypatch.setattr(testfields, "_truncation_radius", spy)
    monkeypatch.setattr(profiles, "_truncation_radius", spy)
    field = make_field(5.0, (0.0, 0.0, 0.0), halfwidth=0.37, radius=1.0)
    wider = TestFieldPair(field.terms, DoubleCone(Point4(5.0, np.zeros(3)), 1.2))
    fields = [photon_wavefunction(f) for f in (field, wider, field)]
    assert len(scans) == 1
    assert len({f.truncation_radius for f in fields}) == 1
    params = DressingParams(g=BumpProfile(0.0, 0.93))
    profile_wavefunction(params, "v_hat")
    for T in (1.0, 10.0, 100.0):
        for kind in ("v_hat_T", "term2", "term3"):
            assert profile_wavefunction(params, kind, T).truncation_radius == \
                profile_wavefunction(params, "v_hat").truncation_radius
    assert len(scans) == 2


def test_transform_evaluates_a_repeated_node_set_once(monkeypatch):
    # the photon image and the window evaluate their transforms on each
    # radial mesh once, with the values a fresh transform computes
    calls = []
    for module in (quadrature, testfields):
        monkeypatch.setattr(module, "kernel_matvec",
                            lambda *a, real=module.kernel_matvec: calls.append(1) or real(*a))
    field = make_field(5.0, (0.0, 0.0, 0.0), halfwidth=0.41, radius=1.0)
    wf = photon_wavefunction(field)
    window = profile_wavefunction(DressingParams(g=BumpProfile(0.0, 0.87)), "v_hat")
    rho = np.linspace(1e-3, 9.0, 301)[:, None]
    mu, phi = np.array([[0.3]]), np.array([[0.1]])
    calls.clear()
    first = wf.evaluator(rho, mu, phi)[0].radial
    hat = window.evaluator(rho, mu, phi)[0].radial
    assert len(calls) == 3      # the time, space and window transforms
    again = wf.evaluator(rho, mu, phi)[0].radial
    hat_again = window.evaluator(rho, mu, phi)[0].radial
    assert len(calls) == 3
    assert np.array_equal(first, again) and np.array_equal(hat, hat_again)

    term = field.terms[0]
    times, spaces, _ = testfields._term_transforms(field.terms)
    for memo, fresh in ((times[0], TimeBumpTransform(term.time)),
                        (spaces[0], RadialBumpTransform(term.space))):
        values = memo.at(rho)
        assert np.array_equal(values, fresh(rho))
        assert not values.flags.writeable
    # the oldest node set is dropped past MEMO_NODE_SETS
    tt = TimeBumpTransform(term.time)
    sets = [rho + k for k in range(testfields.MEMO_NODE_SETS + 1)]
    calls.clear()
    for s in sets + sets[-1:]:
        tt.at(s)
    tt.at(sets[0])
    assert len(calls) == len(sets) + 1
