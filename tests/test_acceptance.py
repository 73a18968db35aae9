"""Desk-scale acceptance gate.

One test per headline property of the library, each printing a single
PASS/FAIL line with the measured value and its pinned tolerance.  The
thresholds here are contractual: a red test means the property does not
hold as stated, and the test must stay red rather than be loosened.
"""
import math
from dataclasses import replace

import numpy as np

from softcone import cli, wavecheck
from softcone.geometry import DoubleCone, Point4, causally_separated
from softcone.pairing import huyghens_report, limit_T_study, pair
from softcone.photon import polarisation, transverse_project
from softcone.profiles import (
    angular_factor,
    difference_norm_squared,
    pairwise_angular_factor,
    pairwise_divergence_slope,
    profile_wavefunction,
    shell_norm_squared,
    v_hat_T_direct,
)
from softcone.quadrature import QuadratureSpec
from softcone.testfields import (
    BumpProfile,
    SeparableTerm,
    TestFieldPair,
    photon_wavefunction,
)
from softcone.weyl import WeylElement, adjoint, multiply, phase_distance
from tests import conftest
from tests.conftest import make_field, make_random_label

SIGMA_GRID = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def _line(num, ok, detail):
    text = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}"
    print(text)
    # also surfaced after the run summary, past pytest's output capture
    conftest.ACCEPTANCE_LINES.append(text)


def _fit(xs, ys):
    return float(np.polyfit(xs, ys, 1)[0])


def test_c01_weyl_identities_on_random_labels(quad):
    rng = np.random.default_rng(11)
    q = cli.weyl_quadrature(quad)
    labels = [WeylElement(photon_wavefunction(make_random_label(rng))) for _ in range(100)]
    worst = 0.0
    for w in labels:
        worst = max(worst, phase_distance(adjoint(adjoint(w)).phase, w.phase))
    for w in labels[:25]:
        worst = max(worst, phase_distance(multiply(w, adjoint(w), q).phase, 0.0))
    for w1, w2 in zip(labels[:25], labels[25:50]):
        back = multiply(multiply(w1, w2, q), adjoint(w2), q)
        worst = max(worst, phase_distance(back.phase, w1.phase))
    for w1, w2 in zip(labels[50:60], labels[60:70]):
        # exchanging the factors flips the sign of the twist
        p12 = multiply(w1, w2, q).phase
        p21 = multiply(w2, w1, q).phase
        worst = max(worst, phase_distance(p12 + p21, 0.0))
    for i in range(70, 94, 3):
        w1, w2, w3 = labels[i], labels[i + 1], labels[i + 2]
        left = multiply(multiply(w1, w2, q), w3, q)
        right = multiply(w1, multiply(w2, w3, q), q)
        worst = max(worst, phase_distance(left.phase, right.phase))
    ok = worst <= 1e-10
    _line(1, ok, f"weyl group/involution/cocycle on 100 labels: worst phase error {worst:.3e} <= 1e-10")
    assert ok


def test_c02_polarisation_kinematics_bulk():
    rng = np.random.default_rng(7)
    khat = rng.normal(size=(10_000, 3))
    khat /= np.linalg.norm(khat, axis=1, keepdims=True)
    while True:
        near_axis = khat[:, 0] ** 2 + khat[:, 1] ** 2 < 1e-6
        if not near_axis.any():
            break
        fresh = rng.normal(size=(int(near_axis.sum()), 3))
        khat[near_axis] = fresh / np.linalg.norm(fresh, axis=1, keepdims=True)
    ep, em = polarisation(khat)
    u = rng.normal(size=khat.shape)
    pu = transverse_project(khat, u)
    dots = [
        np.einsum("ij,ij->i", ep, ep) - 1.0,
        np.einsum("ij,ij->i", em, em) - 1.0,
        np.einsum("ij,ij->i", ep, em),
        np.einsum("ij,ij->i", ep, khat),
        np.einsum("ij,ij->i", em, khat),
        np.einsum("ij,ij->i", khat, pu),
    ]
    worst = max(float(np.max(np.abs(d))) for d in dots)
    worst = max(worst, float(np.max(np.abs(transverse_project(khat, pu) - pu))))
    frame = np.einsum("ij,ij->i", ep, u)[:, None] * ep
    frame += np.einsum("ij,ij->i", em, u)[:, None] * em
    worst = max(worst, float(np.max(np.abs(frame - pu))))
    ok = worst <= 1e-13
    _line(2, ok, f"orthonormality/idempotency/transversality at 1e4 directions: worst {worst:.3e} <= 1e-13")
    assert ok


def _locality_fields(c1, c2):
    # Oblique directions: an electric 3-field against a magnetic 1-field with
    # centres on the 3-axis has sigma = 0 by parity at any separation.
    f1 = make_field(c1[0], c1[1:], direction=(1.0, 1.0, 1.0), halfwidth=0.4, radius=0.81)
    f2 = make_field(
        c2[0], c2[1:], channel="magnetic", direction=(1.0, -1.0, 1.0),
        halfwidth=0.4, radius=0.81,
    )
    return f1, f2


def _sigma_ratio(c1, c2, q):
    f1, f2 = _locality_fields(c1, c2)
    res = pair(photon_wavefunction(f1), photon_wavefunction(f2), q)
    return causally_separated(f1.support, f2.support), abs(res.value.imag) / res.scale


def test_c03_symplectic_form_vanishes_under_separation(quad):
    spacelike = [
        ((0.0, 0.0, 0.0, 4.0), (0.0, 0.0, 0.0, -4.0)),
        ((0.0, 0.0, 0.0, 6.0), (0.0, 0.0, 0.0, -3.0)),
        ((0.0, 0.0, 0.0, 3.0), (0.0, 0.0, 0.0, -7.0)),
        ((0.0, 0.0, 0.0, 2.5), (0.0, 0.0, 0.0, -2.5)),
        ((1.0, 0.0, 0.0, 4.0), (-1.0, 0.0, 0.0, -4.0)),
    ]
    timelike = [
        ((5.0, 0.0, 0.0, 0.0), (-5.0, 0.0, 0.0, 0.0)),
        ((6.0, 0.0, 0.0, 0.0), (-4.0, 0.0, 0.0, 0.0)),
        ((7.0, 0.0, 0.0, 0.0), (-3.0, 0.0, 0.0, 0.0)),
        ((4.5, 0.0, 0.0, 0.0), (-4.5, 0.0, 0.0, 0.0)),
        ((6.0, 0.0, 0.0, 1.0), (-6.0, 0.0, 0.0, 1.0)),
    ]
    q = replace(quad, r_max=40.0)
    worst = 0.0
    for relation, configs in (("spacelike", spacelike), ("timelike", timelike)):
        for c1, c2 in configs:
            got, ratio = _sigma_ratio(c1, c2, q)
            assert got == relation
            worst = max(worst, ratio)
    ok = worst <= 1e-6
    _line(3, ok, f"sigma on 5 spacelike + 5 timelike pairs: worst ratio {worst:.3e} <= 1e-6")
    assert ok


def test_c03_negative_control_connected_pairs(quad):
    # the same field shapes with overlapping causal shadows: sigma must not vanish
    connected = [
        ((0.0, 0.0, 0.0, 0.5), (0.0, 0.0, 0.0, -0.5)),
        ((1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, -1.0)),
    ]
    q = replace(quad, r_max=40.0)
    for c1, c2 in connected:
        relation, ratio = _sigma_ratio(c1, c2, q)
        assert relation == "neither"
        assert ratio > 1e-6


def test_c04_shell_norm_log_slope_matches_angular_oracle(params, quad):
    details = []
    ok = True
    for speed in (0.0, 0.1, 0.3):
        p = replace(params, w=(0.0, 0.0, speed))
        norms = [shell_norm_squared(p, s, quad) for s in SIGMA_GRID]
        if speed == 0.0:
            flat = all(n == 0.0 for n in norms)
            ok = ok and flat
            details.append(f"v=0 exactly flat: {flat}")
            continue
        xs = [math.log(p.kappa / s) for s in SIGMA_GRID]
        slope = _fit(xs, norms)
        oracle = p.alpha * angular_factor(speed)
        rel = abs(slope - oracle) / oracle
        ok = ok and rel <= 0.02
        details.append(f"v={speed:g} rel {rel:.2e}")
    _line(4, ok, "shell-norm slope vs 1d angular oracle (tol 2%): " + "; ".join(details))
    assert ok


def test_c05_pairwise_divergence_slope(params, quad):
    details = []
    ok = True
    for wa, wb in (
        ((0.0, 0.0, 0.3), (0.0, 0.0, 0.1)),
        ((0.0, 0.0, 0.3), (0.1, 0.0, 0.0)),
    ):
        slope = pairwise_divergence_slope(params, wa, wb, SIGMA_GRID, quad)
        oracle = params.alpha * pairwise_angular_factor(wa, wb)
        rel = abs(slope - oracle) / oracle
        ok = ok and slope > 0.0 and rel <= 0.02
        details.append(f"{wa}|{wb} rel {rel:.2e}")
    equal = pairwise_divergence_slope(
        params, (0.0, 0.0, 0.2), (0.0, 0.0, 0.2), SIGMA_GRID, quad
    )
    ok = ok and equal == 0.0
    details.append(f"equal velocities slope {equal!r}")
    _line(5, ok, "pairwise divergence slopes (tol 2%, equal exact 0): " + "; ".join(details))
    assert ok


def test_c06_difference_norm_square_integrable(params, quad):
    probes = (1e-2, 1e-4, 1e-6)
    matched = [difference_norm_squared(params, s, quad) for s in probes]
    spread = (max(matched) - min(matched)) / max(matched)
    violated_params = replace(params, g_scale=2.0)
    violated = [difference_norm_squared(violated_params, s, quad) for s in probes]
    vslope = _fit([math.log(1.0 / s) for s in probes], violated)
    ok = spread <= 0.01 and vslope > 0.0
    _line(6, ok, f"difference-norm cauchy spread {spread:.2e} <= 1e-2; violated-window slope {vslope:.3e} > 0")
    assert ok


def test_c07_huyghens_defect_small(params, quad, forward_probe):
    details = []
    worst = 0.0
    for kind, T in (("v_hat", None), ("v_hat_T", 1.0), ("v_hat_T", 10.0), ("v_hat_T", 100.0)):
        rep = huyghens_report(params, forward_probe, kind, quad, T)
        ratio = abs(rep["defect"]) / rep["scale"]
        worst = max(worst, ratio)
        details.append(f"{'limit' if T is None else 'T=%g' % T} {ratio:.2e}")
    ok = worst <= 1e-5
    _line(7, ok, "huyghens defect / pairing scale <= 1e-5: " + ", ".join(details))
    assert ok


def test_c08_window_limit_term_decay(params, quad, forward_probe):
    rows = limit_T_study(params, forward_probe, (1.0, 10.0, 100.0, 1000.0), quad)
    by_T = {row["T"]: row for row in rows}
    worst_identity = max(
        abs(row["total"] - (row["vhat"] + row["term2"] + row["term3"]))
        / max(abs(row["total"]), 1e-3 * row["scale"])
        for row in rows
    )
    identity_ok = worst_identity <= 1e-10
    scaled = [T * abs(by_T[T]["term3"]) for T in (10.0, 100.0, 1000.0)]
    span = max(scaled) / min(scaled)
    span_ok = span <= 10.0
    term2_ratio = abs(by_T[100.0]["term2"]) / abs(by_T[1.0]["term2"])
    term2_ok = term2_ratio <= 0.05
    ok = identity_ok and span_ok and term2_ok
    _line(
        8,
        ok,
        f"row identity {worst_identity:.2e} <= 1e-10; span of T*|term3| {span:.2f} <= 10; "
        f"|term2(100)|/|term2(1)| {term2_ratio:.3f} <= 0.05",
    )
    assert identity_ok, f"decomposition identity violated: {worst_identity:.3e}"
    assert term2_ok, f"term2 failed to decay: ratio {term2_ratio:.3f}"
    # The third term's smeared size falls off faster than 1/T here, so a
    # fixed-factor bound on T*|term3| over two decades cannot hold; kept
    # red deliberately rather than weakening the bound.
    assert span_ok, f"T*|term3| spans factor {span:.2f} over T in [10, 1000]"


def test_c09_closed_form_matches_direct_double_integral(params):
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(10):
        direction = rng.normal(0.0, 1.0, 3)
        direction /= np.linalg.norm(direction)
        k = float(rng.uniform(0.2, 1.5)) * direction
        for T in (1.0, 5.0, 20.0):
            closed = profile_wavefunction(params, "v_hat_T", T=T)(k)
            direct = v_hat_T_direct(params, T, k)
            worst = max(
                worst,
                float(np.max(np.abs(closed - direct)) / np.max(np.abs(direct))),
            )
    ok = worst <= 1e-6
    _line(9, ok, f"closed form vs direct window integral at 10 k x 3 T: worst rel {worst:.3e} <= 1e-6")
    assert ok


def test_c10_wave_solution_checks():
    ws1 = wavecheck.WaveSolution(BumpProfile(0.0, 0.5))
    ws2 = wavecheck.WaveSolution(BumpProfile(0.0, 0.4, 1.3))
    pts = np.array([[0.1, 0.0, 0.2], [0.0, 0.3, 0.0], [0.2, 0.2, 0.1], [0.0, 0.0, 0.45]])

    ic = float(np.max(np.abs(wavecheck.wave_evaluate(ws1, 0.0, pts))))
    ic_ok = ic == 0.0
    target = ws1.initial_profile(np.linalg.norm(pts, axis=-1))
    fd_errs = []
    for dt in (1e-2, 5e-3):
        fd = (wavecheck.wave_evaluate(ws1, dt, pts) - wavecheck.wave_evaluate(ws1, -dt, pts)) / (2 * dt)
        fd_errs.append(float(np.max(np.abs(fd - target))))
    fd_ratio = fd_errs[0] / fd_errs[1]
    fd_ok = 3.4 <= fd_ratio <= 4.6

    mass = wavecheck.mass_outside_cone(ws1, 2.0)
    mass_ok = mass <= 1e-6

    base = wavecheck.symplectic_time_invariance(ws1, ws2, (0.0, 2.0))
    drift_ok = base["relative_drift"] <= 1e-6
    halved = wavecheck.symplectic_time_invariance(
        ws1, ws2, (0.0, 2.0), spacing=base["spacing"] / 2.0
    )
    improvement = base["drift"] / max(halved["drift"], 1e-300)
    halving_ok = improvement >= 4.0

    bj_probe = TestFieldPair(
        (
            SeparableTerm(
                time=BumpProfile(0.0, 0.4),
                space=BumpProfile(0.0, 0.5),
                direction=(1.0, 0.0, 0.0),
                channel="magnetic",
            ),
        ),
        DoubleCone(Point4(0.0, np.zeros(3)), 1.0),
    )
    frac_r = wavecheck.bj_support_check(bj_probe, 1.0)
    frac_2r = wavecheck.bj_support_check(bj_probe, 2.0)
    bj_ok = frac_r <= 1e-4 and frac_2r <= 1e-6

    ok = ic_ok and fd_ok and mass_ok and drift_ok and halving_ok and bj_ok
    _line(
        10,
        ok,
        f"initial value {ic!r} exact; d/dt order ratio {fd_ratio:.2f} in [3.4, 4.6]; "
        f"mass outside cone {mass:.2e} <= 1e-6; drift {base['relative_drift']:.2e} <= 1e-6 "
        f"with halving gain {improvement:.0f}x >= 4; bj fractions {frac_r:.2e}/{frac_2r:.2e}",
    )
    assert ok


def test_c11_bundled_scenario_is_deterministic(tmp_path):
    cfg = tmp_path / "bundled.yaml"
    cfg.write_text(cli.DEFAULT_CONFIG)
    rc1 = cli.run(str(cfg), str(tmp_path / "a"))
    rc2 = cli.run(str(cfg), str(tmp_path / "b"))
    names_a = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    names_b = sorted(p.name for p in (tmp_path / "b").glob("*.csv"))
    identical = names_a == names_b and all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in names_a
    )
    ok = rc1 == 0 and rc2 == 0 and len(names_a) >= 10 and identical
    _line(
        11,
        ok,
        f"bundled scenario passes twice (rc {rc1}/{rc2}) with {len(names_a)} byte-identical csv files",
    )
    assert ok
