import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from softcone.errors import (
    NonIntegrablePairing,
    SupportNotInForwardCone,
    ToleranceNotMet,
)
from softcone import pairing, studies
from softcone.pairing import (
    PairingResult,
    build_mesh,
    gram,
    huyghens_report,
    lemma1_phase,
    limit_T_study,
    pair,
)
from softcone.profiles import DressingParams, profile_wavefunction
from softcone.quadrature import QuadratureSpec, angular_mesh, radial_mesh, unit_direction
from softcone.testfields import photon_wavefunction
from tests.conftest import make_field, make_random_label


def test_pairing_result_validates_error():
    with pytest.raises(ValueError):
        PairingResult(value=0j, error_estimate=-1.0, scale=1.0, node_count=1)


def test_pair_value_reproducible(quad, forward_probe):
    wf = photon_wavefunction(forward_probe)
    a = pair(wf, wf, quad)
    b = pair(wf, wf, quad)
    assert a.value == b.value
    assert a.node_count == b.node_count


def test_pair_norm_positive_and_imag_zero(quad, forward_probe):
    wf = photon_wavefunction(forward_probe)
    res = pair(wf, wf, quad)
    assert res.value.real > 0
    # blas complex dot rounds Im(conj(z) z) per element, so only near-zero
    assert abs(res.value.imag) <= 1e-15 * res.value.real
    assert res.error_estimate <= max(quad.abs_tol, quad.rel_tol * res.scale)


def test_pair_rejects_nonintegrable_profiles(params, quad):
    v = profile_wavefunction(params, "v_limit")
    # the sharp-shell profile against itself is log-divergent at k = 0
    with pytest.raises(NonIntegrablePairing):
        pair(v, v, quad)
    # explicit bounds bypass the small-k check
    res = pair(v, v, quad, r_bounds=(1e-3, params.kappa))
    assert res.value.real > 0


def test_pair_refinement_guard_fires():
    # brutally coarse spec on an oscillatory pairing must be detected
    f = photon_wavefunction(make_field(5.0, (0.0, 0.0, 0.0), radius=1.0))
    bad = QuadratureSpec(
        r_min=1e-4, r_max=40.0, panels_per_decade=1, gauss_order=2,
        n_cos_theta=2, n_phi=1, rel_tol=1e-10, abs_tol=1e-30,
    )
    with pytest.raises(ToleranceNotMet):
        pair(f, f, bad)


def test_gram_entries_match_pair(quad):
    # on the Weyl-label spec no pair of these labels raises the angular
    # counts, so every entry shares pair()'s meshes and the Gram differs from
    # separate pairings only in summation order
    from softcone.studies import weyl_quadrature

    q = weyl_quadrature(quad)
    rng = np.random.default_rng(3)
    leaves = [photon_wavefunction(make_random_label(rng)) for _ in range(3)]
    entries = [(0, 0), (0, 1), (2, 0), (1, 2)]
    got = gram(leaves, entries, q)
    assert list(got) == entries
    for (i, j), res in got.items():
        ref = pair(leaves[i], leaves[j], q)
        assert abs(res.value - ref.value) <= 1e-13 * abs(ref.value)
        assert res.scale == pytest.approx(ref.scale, rel=1e-13)
        assert res.node_count == ref.node_count
        assert res.error_estimate <= max(q.abs_tol, q.rel_tol * res.scale)


def test_gram_refinement_guard_fires():
    f = photon_wavefunction(make_field(5.0, (0.0, 0.0, 0.0), radius=1.0))
    g = photon_wavefunction(make_field(5.5, (0.0, 0.0, 0.3), radius=1.0))
    bad = QuadratureSpec(
        r_min=1e-4, r_max=40.0, panels_per_decade=1, gauss_order=2,
        n_cos_theta=2, n_phi=1, rel_tol=1e-10, abs_tol=1e-30,
    )
    with pytest.raises(ToleranceNotMet, match=r"Gram entry \(0, 1\)"):
        gram([f, g], [(0, 1)], bad)


def test_pair_with_itself_evaluates_each_chunk_once(quad, forward_probe):
    # both slots of <v, v> read one evaluation, so v's evaluator sees every
    # angular node of the coarse and the fine mesh exactly once
    wf = photon_wavefunction(forward_probe)
    seen = {}

    def counting(rho, mu, phi):
        seen[np.size(rho)] = seen.get(np.size(rho), 0) + np.size(mu)
        return wf.evaluator(rho, mu, phi)

    v = replace(wf, evaluator=counting)
    pair(v, v, quad)
    want = {}
    for mesh in (build_mesh(quad, wf, wf), build_mesh(quad.refined(), wf, wf)):
        want[mesh.rho.size] = mesh.ang_mu.size
    assert seen == want


def test_pair_is_a_one_entry_gram(params, quad, forward_probe):
    # several L1-mass blocks on the fine mesh, so a different block width
    # would move the sums
    v = profile_wavefunction(params, "v_hat_T", T=10.0)
    f = photon_wavefunction(forward_probe)
    mesh = build_mesh(quad.refined(), v, f)
    assert mesh.node_count > pairing.MASS_BLOCK_ELEMENTS
    assert pair(v, f, quad) == gram((v, f), [(0, 1)], quad)[(0, 1)]


@pytest.mark.parametrize("w", [(0.0, 0.0, 0.3), (0.2, 0.1, 0.2), (0.0, 0.0, 0.0)],
                         ids=["on-axis", "off-axis", "at-rest"])
def test_limit_T_radial_rule_is_the_same_at_every_T(quad, forward_probe, monkeypatch, w):
    # the carriers t_c + u (+ T) and T khat.w are integrated exactly, so the
    # radial rule resolves the envelopes alone (probe pads 0.5 + 0.5, window
    # halfwidth 1) at every T; no pair of carriers has a stationary direction
    # (|t_c + u + T| > 1.3 |w| T), so the angular rule is the spec's own
    params = DressingParams(w=w)
    meshes = []

    def spy(mesh, leaves, entries):
        meshes.append(mesh)
        return [0j] * 3, [0.0] * 3

    monkeypatch.setattr(pairing, "_accumulate", spy)
    T_list = (1.0, 10.0, 100.0, 1000.0)
    limit_T_study(params, forward_probe, T_list, quad)
    f = photon_wavefunction(forward_probe)
    assert len(meshes) == 2 * len(T_list)
    for T, coarse, fine in zip(T_list, meshes[::2], meshes[1::2]):
        total = profile_wavefunction(params, "v_hat_T", T=T)
        for q, got in ((quad, coarse), (quad.refined(), fine)):
            r_hi = min(q.r_max, total.truncation_radius, f.truncation_radius)
            assert np.array_equal(got.rho, radial_mesh(q, q.r_min, r_hi, 2.0)[0])
            mu, wmu, phi, wphi = angular_mesh(q)
            assert np.array_equal(got.ang_mu, np.repeat(mu, phi.size))
            assert np.array_equal(got.ang_phi, np.tile(phi, mu.size))
            assert np.array_equal(got.ang_weight, (wmu[:, None] * wphi[None, :]).ravel())
            ref = build_mesh(q, total, f)
            for name in ("rho", "ang_mu", "ang_phi", "ang_weight"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))


def _product_rule(leaves, f, freq, r_hi, n_mu, n_phi, r_lo=1e-8):
    """<leaf, f> for each leaf on a product rule of this module's own,
    through `values`: Gauss-Legendre of order 20 on 8 geometric panels per
    decade from ``r_lo``, each split to keep 8 nodes per wavelength of
    ``freq``; Gauss-Legendre in mu; midpoints in phi offset by a quarter."""
    x, w = np.polynomial.legendre.leggauss(20)
    edges = r_lo * 10.0 ** (np.arange(8 * math.ceil(math.log10(r_hi / r_lo)) + 1) / 8)
    edges = np.append(edges[edges < r_hi], r_hi)
    rho, wr = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        cuts = np.linspace(a, b, 1 + math.ceil(8.0 * freq * (b - a) / (2.0 * math.pi * 20)))
        mid, half = 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * (cuts[1:] - cuts[:-1])
        rho.append((mid[:, None] + half[:, None] * x).ravel())
        wr.append((half[:, None] * w).ravel())
    rho = np.concatenate(rho)
    wr = np.concatenate(wr) * rho * rho
    mu, wmu = np.polynomial.legendre.leggauss(n_mu)
    phi = (np.arange(n_phi) + 0.25) * (2.0 * math.pi / n_phi)
    ang_mu, ang_phi = np.repeat(mu, n_phi), np.tile(phi, n_mu)
    ang_w = np.repeat(wmu, n_phi) * (2.0 * math.pi / n_phi)
    sums = [0j] * len(leaves)
    step = max(1, 200_000 // rho.size)
    for start in range(0, ang_mu.size, step):
        cols = slice(start, start + step)
        m, p = ang_mu[None, cols], ang_phi[None, cols]
        fv = f.values(rho[:, None], m, p)
        wt = wr[:, None] * ang_w[None, cols]
        for n, v in enumerate(leaves):
            g = np.sum(np.conjugate(v.values(rho[:, None], m, p)) * fv, axis=-1)
            sums[n] += complex(np.sum(g * wt))
    return sums


@functools.lru_cache(maxsize=8)
def _limit_T_oracle(w, T, r_hi):
    """<v_hat, f>, <term2, f>, <term3, f> and <v_hat_T, f> for the forward
    probe on `_product_rule`, resolving |t_c + u + T| + |w| T + pads."""
    params = DressingParams(w=w)
    f = photon_wavefunction(make_field(5.0, (0.0, 0.0, 0.0), radius=1.0))
    leaves = [profile_wavefunction(params, "v_hat")] + [
        profile_wavefunction(params, kind, T) for kind in ("term2", "term3", "v_hat_T")]
    freq = 5.0 + params.u + T + T * params.speed + 2.0
    # with w on the 3-axis the integrand does not depend on phi
    n_phi = 2 if w[:2] == (0.0, 0.0) else 24
    return _product_rule(leaves, f, freq, r_hi, 48, n_phi)


def _limit_T_against_product_rule(w, quad, T_list):
    """Worst gap, over the rows' scales, between each of vhat, term2, term3
    and their sum from `limit_T_study` of the forward probe and the same
    pairings of the true profiles and probe on `_product_rule`."""
    params = DressingParams(w=w)
    probe = make_field(5.0, (0.0, 0.0, 0.0), radius=1.0)
    r_hi = min(quad.r_max, photon_wavefunction(probe).truncation_radius,
               profile_wavefunction(params, "v_hat").truncation_radius)
    worst = 0.0
    for row in limit_T_study(params, probe, T_list, quad):
        want = _limit_T_oracle(w, row["T"], r_hi)
        got = (row["vhat"], row["term2"], row["term3"], row["vhat"] + row["term2"] + row["term3"])
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)) / row["scale"])
    return worst


def test_limit_T_parts_match_total_across_rules(quad):
    # the parts on the library's envelope rule with Filon carriers against a
    # Gauss rule that resolves every carrier, evaluated through values()
    assert _limit_T_against_product_rule((0.0, 0.0, 0.3), quad, (1.0, 10.0, 100.0)) <= 1e-10


def test_limit_T_parts_match_total_across_rules_oblique(quad):
    # an oblique velocity: omega depends on both angles, on the spec's
    # angular rule, since no pair of carriers has a stationary direction
    assert _limit_T_against_product_rule((0.2, 0.1, 0.2), quad, (1.0,)) <= 1e-10


def _rotated_limit_T_gap(quad, direction):
    """Worst gap, over the rows' scales, between the limit-T rows of the
    on-axis w = (0, 0, 0.3) against the forward probe and those of
    w = R (0, 0, 0.3) = (0.2, 0.1, 0.2) against the probe polarised along
    ``direction``, at T = 1 to 10^3.  The probe's bumps are radial about its
    centre at the origin, so with ``direction`` = R e3 the two pairings are
    one rotated into the other."""
    T_list = (1.0, 10.0, 100.0, 1000.0)
    rows = [limit_T_study(DressingParams(w=w), make_field(5.0, (0.0, 0.0, 0.0), direction=d,
                                                          radius=1.0), T_list, quad)
            for w, d in (((0.0, 0.0, 0.3), (0.0, 0.0, 1.0)), ((0.2, 0.1, 0.2), direction))]
    return max(abs(a[key] - b[key]) / a["scale"] for a, b in zip(*rows)
               for key in ("vhat", "term2", "term3", "total"))


def test_limit_T_rows_are_rotation_invariant_for_oblique_velocities(quad):
    # the off-axis rows take the spec's angular rule at every T, like the
    # on-axis ones, and agree with them once the probe is rotated too
    assert _rotated_limit_T_gap(quad, (2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0)) <= 1e-10


def test_limit_T_rotation_check_fails_with_unrotated_probe(quad):
    # negative control: rotating w alone changes the pairing
    assert _rotated_limit_T_gap(quad, (0.0, 0.0, 1.0)) > 1e-10


def _transverse_locality_pair():
    """The locality study's spacelike pair at centres (0, +-0.9, 0, 0),
    separated along the 1-axis, and its quadrature."""
    f1, f2 = studies._locality_pair({"centers": [[0.0, 0.9, 0.0, 0.0], [0.0, -0.9, 0.0, 0.0]]})
    return (photon_wavefunction(f1), photon_wavefunction(f2),
            studies.locality_quadrature(QuadratureSpec()))


def test_transverse_stationary_pair_raises_phi_count():
    # the carriers differ by (0, (1.8, 0, 0)): omega vanishes on the great
    # circle khat_1 = 0, and |c_perp| = 1.8 sets both angular counts
    v, f, q = _transverse_locality_pair()
    for level in (q, q.refined()):
        mesh = build_mesh(level, v, f)
        r_hi = min(level.r_max, v.truncation_radius, f.truncation_radius)
        target = level.nodes_per_wavelength * 1.8 * r_hi / (2 * math.pi)
        n_phi = max(level.n_phi, math.ceil(target) + pairing.PHI_PAD)
        n_mu = max(level.n_cos_theta, math.ceil(target) + pairing.MU_PAD)
        assert n_phi > level.n_phi
        assert mesh.ang_mu.size == n_mu * n_phi
        assert np.unique(mesh.ang_phi).size == n_phi
    res = pair(v, f, q)
    assert abs(res.value.imag) <= 1e-6 * res.scale


def _spec_phi_count(monkeypatch):
    real = pairing.angular_mesh
    monkeypatch.setattr(pairing, "angular_mesh",
                        lambda spec, n_mu=None, n_phi=None: real(spec, n_mu, spec.n_phi))


def _with_array_angulars(wf):
    """``wf`` with each constant angular factor held as an array over the
    angular nodes, which `_carrier_sums` sums on the mesh."""
    evaluate = wf.evaluator

    def evaluator(rho, mu, phi):
        return tuple(part._replace(waves=tuple((carrier, a * np.ones(np.shape(mu)))
                                               for carrier, a in part.waves))
                     for part in evaluate(rho, mu, phi))

    return replace(wf, evaluator=evaluator)


def test_transverse_stationary_pair_passes_on_the_spec_phi_count(monkeypatch):
    # in the frame whose pole is the carrier difference the rate c0 + |c| mu
    # does not depend on phi, and the polarisation products are of degree 2
    # in khat, so the spec's phi count gives the raised count's value
    v, f, q = _transverse_locality_pair()
    raised = pair(v, f, q)
    _spec_phi_count(monkeypatch)
    res = pair(v, f, q)
    assert res.node_count < raised.node_count / 5
    assert abs(res.value - raised.value) <= 1e-12 * raised.scale


def test_transverse_stationary_pair_fails_on_the_spec_phi_count(monkeypatch):
    # negative control: the same pair with the phi count held at the spec's,
    # summed on the mesh, where omega = c.khat turns with phi
    _spec_phi_count(monkeypatch)
    v, f, q = _transverse_locality_pair()
    with pytest.raises(ToleranceNotMet):
        pair(_with_array_angulars(v), _with_array_angulars(f), q)


@pytest.mark.parametrize("pole", [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.6, 0.0, 0.8),
                                  (-0.48, 0.64, -0.6), (3e-9, -4e-9, -math.sqrt(1.0 - 2.5e-17))],
                         ids=["up", "down", "tilted", "lower", "near-down"])
def test_pole_rotation_is_the_proper_shortest_turn(pole):
    rot = pairing._pole_rotation(pole)
    assert np.max(np.abs(rot.T @ rot - np.eye(3))) <= 4e-16
    assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(rot[:, 2] - np.array(pole))) <= 1e-16
    # the shortest turn fixes every vector normal to e3 and the pole
    axis = np.cross((0.0, 0.0, 1.0), pole)
    if np.any(axis):
        assert np.max(np.abs(rot @ axis - axis)) <= 1e-16 * max(1.0, np.linalg.norm(axis))
    if pole[:2] == (0.0, 0.0):
        assert np.array_equal(rot, np.eye(3) if pole[2] > 0 else np.diag([1.0, -1.0, -1.0]))


def test_weyl_gram_entry_requests_one_filon_row_per_cos_theta_node(quad, monkeypatch):
    # a pair of test-field waves is summed in its carrier frame, where
    # omega = c0 + |c| mu takes one value per cos-theta node, not one per
    # angular node
    q = studies.weyl_quadrature(quad)
    rng = np.random.default_rng(3)
    leaves = [photon_wavefunction(studies._random_label(rng)) for _ in range(3)]
    entries = [(0, 1), (1, 2), (2, 0)]
    real = pairing.radial_filon_sums
    requested = {}

    def spy(spec, r_lo, r_hi, freq, omega, values):
        requested[spec] = requested.get(spec, 0) + np.size(omega)
        return real(spec, r_lo, r_hi, freq, omega, values)

    monkeypatch.setattr(pairing, "radial_filon_sums", spy)
    gram(leaves, entries, q)
    meshes = pairing._meshes(q, leaves, entries)
    assert set(requested) == {mesh.radial_rule[0] for mesh in meshes}
    for mesh in meshes:
        n_mu, n_phi = np.unique(mesh.ang_mu).size, np.unique(mesh.ang_phi).size
        assert n_phi > 1 and mesh.ang_mu.size == n_mu * n_phi
        assert requested[mesh.radial_rule[0]] == len(entries) * n_mu


def _with_carriers(wf, move):
    """``wf`` whose parts declare the carriers ``move((c0, c))``."""
    evaluate = wf.evaluator

    def evaluator(rho, mu, phi):
        return tuple(part._replace(waves=tuple((move(carrier), a) for carrier, a in part.waves))
                     for part in evaluate(rho, mu, phi))

    return replace(wf, evaluator=evaluator, carriers=tuple(move(c) for c in wf.carriers))


def test_limit_T_cross_rule_check_fails_with_shifted_carrier(quad, monkeypatch):
    # negative control: a probe that declares c0 + 40 is a different field,
    # which the product rule of the true probe sees
    real = pairing.photon_wavefunction
    monkeypatch.setattr(pairing, "photon_wavefunction",
                        lambda fields: _with_carriers(real(fields), lambda c: (c[0] + 40.0, c[1])))
    assert _limit_T_against_product_rule((0.0, 0.0, 0.3), quad, (10.0,)) > 1e-10


def test_limit_T_cross_rule_check_fails_with_tilted_carrier(quad, monkeypatch):
    # negative control: profiles whose carriers declare c = 1.03 T w
    real = pairing.profile_wavefunction
    monkeypatch.setattr(
        pairing, "profile_wavefunction",
        lambda params, kind, T=None: _with_carriers(
            real(params, kind, T), lambda c: (c[0], tuple(1.03 * x for x in c[1]))))
    assert _limit_T_against_product_rule((0.0, 0.0, 0.3), quad, (10.0,)) > 1e-10


def test_term2_guard_band_where_khat_w_vanishes():
    # w = (0.3, 0, 0) and phi nodes at pi/2 and 3 pi/2 on both levels, where
    # khat.w is 0 to rounding: term2's split form would divide by it there,
    # its sinc form does not.  n_phi = 12 (24 refined) with no offset puts
    # them there; no pair of carriers has a stationary direction, so the
    # mesh keeps the spec's count
    params = DressingParams(w=(0.3, 0.0, 0.0))
    q = QuadratureSpec(r_max=10.0, n_phi=12, phi_offset=0.0)
    f = photon_wavefunction(make_field(5.0, (0.0, 0.0, 0.0), direction=(1.0, 0.5, 1.0),
                                       radius=1.0))
    for kind in ("term2", "v_hat_T"):
        v = profile_wavefunction(params, kind, T=1.0)
        for level in (q, q.refined()):
            mesh = build_mesh(level, v, f)
            kx, _, _ = unit_direction(mesh.ang_mu, mesh.ang_phi)
            assert np.min(np.abs(kx)) < 1e-16
        res = pair(v, f, q)
        assert np.isfinite(res.value)
        (want,) = _product_rule([v], f, 5.0 + params.u + 1.0 + 0.3 + 2.0, 10.0, 48, 24)
        assert abs(res.value - want) <= res.error_estimate
        assert abs(want) > 1e-5 * res.scale


def test_build_mesh_respects_truncation(quad, forward_probe):
    wf = photon_wavefunction(forward_probe)
    mesh = build_mesh(quad, wf, wf)
    assert mesh.rho.max() <= min(quad.r_max, wf.truncation_radius)
    assert mesh.rho.min() >= quad.r_min


def test_build_mesh_resonant_pair_densifies_mu(quad):
    # spacelike-offset pair: the carriers differ by (0, (0, 0, -8)), so omega
    # vanishes on the equator, a stationary direction
    f1 = photon_wavefunction(make_field(0.0, (0.0, 0.0, 4.0)))
    f2 = photon_wavefunction(make_field(0.0, (0.0, 0.0, -4.0)))
    mesh = build_mesh(quad, f1, f2)
    plain = build_mesh(quad, f1, f1)
    n_ang_pair = mesh.ang_mu.size
    n_ang_self = plain.ang_mu.size
    assert n_ang_pair > 4 * n_ang_self


def test_huyghens_defect_vanishes_for_forward_field(params, quad, forward_probe):
    rep = huyghens_report(params, forward_probe, "v_hat", quad)
    assert abs(rep["defect"]) <= 1e-8 * rep["scale"]
    rep_T = huyghens_report(params, forward_probe, "v_hat_T", quad, T=2.0)
    assert abs(rep_T["defect"]) <= 1e-8 * rep_T["scale"]


def test_huyghens_requires_forward_support(params, quad):
    backward = make_field(-5.0, (0.0, 0.0, 0.0), radius=1.0)
    with pytest.raises(SupportNotInForwardCone):
        huyghens_report(params, backward, "v_hat", quad)


def test_huyghens_defect_scalar_and_backward_contrast(params, quad, forward_probe):
    """The support guard rejects a field just inside the past cone, and for
    it the same pairing is generically of order the pairing scale: the
    smallness really is a forward-cone fact."""
    near_past = make_field(-1.5, (0.0, 0.0, 0.0), radius=1.0)
    with pytest.raises(SupportNotInForwardCone):
        huyghens_report(params, near_past, "v_hat", quad)
    v = profile_wavefunction(params, "v_hat")
    res = pair(v, photon_wavefunction(near_past), quad)
    # Quadrature-converged at ~0.78 * scale; the loose floor only pins down
    # that no cancellation takes place.
    assert abs(res.value.real) > 1e-3 * res.scale
    # A far-past bump (center (-5, 0)) comes out numerically small as well,
    # but only because the time profile has next-to-no spectral weight left
    # at that phase offset -- reported, not gated.
    far_past = make_field(-5.0, (0.0, 0.0, 0.0), radius=1.0)
    res_far = pair(v, photon_wavefunction(far_past), quad)
    assert np.isfinite(res_far.value.real)


def test_limit_T_study_row_identity(params, quad, forward_probe):
    rows = limit_T_study(params, forward_probe, [1.0, 4.0], quad)
    assert [r["T"] for r in rows] == [1.0, 4.0]
    for row in rows:
        resid = abs(row["total"] - (row["vhat"] + row["term2"] + row["term3"]))
        assert resid <= 1e-12 * max(abs(row["total"]), row["scale"])
        assert row["err"] <= 1e-6 * row["scale"]


def test_limit_T_study_validates_window_list(params, quad, forward_probe):
    with pytest.raises(ValueError):
        limit_T_study(params, forward_probe, [4.0, 1.0], quad)
    with pytest.raises(ValueError):
        limit_T_study(params, forward_probe, [-1.0], quad)


def test_lemma1_phase_zero_velocity_exact(quad, forward_probe):
    p0 = DressingParams(w=(0.0, 0.0, 0.0))
    assert lemma1_phase(p0, forward_probe, quad) == 0.0


def test_lemma1_phase_additive_across_difference(params, quad, forward_probe):
    # one pairing of the difference profile vs the difference of two pairings
    # (different meshes, so this exercises real additivity, not bookkeeping)
    lp = lemma1_phase(params, forward_probe, quad)
    f = photon_wavefunction(forward_probe)
    full = -2.0 * pair(profile_wavefunction(params, "v_limit"), f, quad).value.real
    windowed = -2.0 * pair(profile_wavefunction(params, "v_hat"), f, quad).value.real
    assert abs(lp - (full - windowed)) <= 1e-8


def test_lemma1_phase_forward_probe_is_full_phase(params, quad, forward_probe):
    # the windowed profile does not see a forward-cone probe, so the inner
    # phase reduces to the full dressed phase
    f = photon_wavefunction(forward_probe)
    res = pair(profile_wavefunction(params, "v_limit"), f, quad)
    full = -2.0 * res.value.real
    assert abs(lemma1_phase(params, forward_probe, quad) - full) <= 1e-6 * res.scale


def test_refinement_changes_value_within_estimate(params, quad, forward_probe):
    # doubling the mesh moves the value by at most the attached estimate,
    # up to a rounding floor once the quadrature has saturated
    eps = np.finfo(float).eps
    f = photon_wavefunction(forward_probe)
    for a in (
        profile_wavefunction(params, "v_limit"),
        profile_wavefunction(params, "v_hat_T", T=10.0),
    ):
        res = pair(a, f, quad)
        again = pair(a, f, quad.refined())
        bound = 2.0 * max(res.error_estimate, 32.0 * eps * res.scale)
        assert abs(again.value - res.value) <= bound


def test_oscillatory_result_stable_under_denser_sampling(params, quad, forward_probe):
    f = photon_wavefunction(forward_probe)
    vT = profile_wavefunction(params, "v_hat_T", T=10.0)
    base = pair(vT, f, quad)
    dense = pair(vT, f, replace(quad, nodes_per_wavelength=12.0))
    assert abs(dense.value - base.value) <= 1e-6 * base.scale


def _oracle_gram(mesh, leaves, entries):
    """sum w conj(values_i) . values_j on the mesh, with the three-component
    dot spelled out, and the L1 mass of each integrand."""
    rho = mesh.rho[:, None]
    out = {entry: [0j, 0.0] for entry in entries}
    for start in range(0, mesh.ang_mu.size, 64):
        sl = slice(start, start + 64)
        mu, phi = mesh.ang_mu[sl][None, :], mesh.ang_phi[sl][None, :]
        w = mesh.rho_weight[:, None] * mesh.ang_weight[sl][None, :]
        vals = {k: leaves[k].values(rho, mu, phi) for k in {k for e in entries for k in e}}
        for i, j in entries:
            a, b = np.conjugate(vals[i]), vals[j]
            g = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]
            out[i, j][0] += np.sum(g * w)
            out[i, j][1] += np.sum(np.abs(g) * w)
    return out


def _kernel_cases():
    # a profile with an oblique velocity against an electric and a magnetic
    # field; the two-key difference of two velocity sectors with itself; a
    # two-term field whose terms share a polarisation and one whose do not;
    # sums and complex multiples of Weyl labels; the difference of two
    # on-axis sectors, whose integrand repeats across phi; an on-axis
    # profile and field against a field centred off the 3-axis, whose
    # angular factors repeat across phi but whose shift rates do not; the
    # windowed profile at T = 10 against a forward probe with an oblique
    # polarisation, as in cone-window: two carrier classes that differ by
    # T w, with rates T w.khat, and no column repeats; on (1e-3, 2) the
    # oracle's Gauss sums resolve the carrier difference 17
    from softcone.geometry import DoubleCone, Point4
    from softcone.testfields import BumpProfile, SeparableTerm, TestFieldPair

    params = DressingParams(w=(0.2, 0.1, 0.2))
    v = profile_wavefunction(params, "v_limit")
    elec = photon_wavefunction(make_field(5.0, (0.0, 0.0, 0.0), direction=(1.0, 2.0, 0.5),
                                          radius=1.0))
    mag = photon_wavefunction(make_field(5.0, (0.0, 0.0, 0.0), channel="magnetic",
                                         direction=(0.3, -1.0, 0.7), radius=1.0))
    other = profile_wavefunction(DressingParams(w=(-0.3, 0.0, 0.1)), "v_limit")

    def two_terms(direction2, channel2):
        terms = tuple(
            SeparableTerm(time=BumpProfile(t, 0.4), space=BumpProfile(0.0, 0.4),
                          direction=d, channel=c, position=(0.0, 0.0, z))
            for t, z, d, c in ((0.1, 0.1, (1.0, 0.0, 1.0), "electric"),
                               (-0.1, -0.1, direction2, channel2))
        )
        return photon_wavefunction(TestFieldPair(terms, DoubleCone(Point4(0.0, np.zeros(3)), 1.0)))

    shared = two_terms((1.0, 0.0, 1.0), "electric")
    apart = two_terms((0.0, 1.0, 0.0), "magnetic")
    rng = np.random.default_rng(5)
    f, g = (photon_wavefunction(make_random_label(rng)) for _ in range(2))
    on_axis = [profile_wavefunction(DressingParams(w=(0.0, 0.0, s)), "v_limit") for s in (0.3, 0.1)]
    centred = photon_wavefunction(make_field(5.0, (0.0, 0.0, 0.0), radius=1.0))
    off_axis = photon_wavefunction(make_field(5.0, (1.0, 0.0, 0.0), radius=1.0))
    windowed = profile_wavefunction(DressingParams(), "v_hat_T", 10.0)
    probe = photon_wavefunction(make_field(5.0, (0.0, 0.0, 0.0), direction=(0.3, -0.2, 1.0),
                                           radius=1.0))
    return {
        "profile-vs-fields": ([v, elec, mag], [(0, 1), (0, 2)], None),
        # a real part (sharp profile) next to a complex one (local field)
        "superselection-difference": ([v - other, v + elec], [(0, 0), (1, 1), (0, 1)],
                                      (1e-3, 1.0)),
        "two-term-fields": ([shared, apart], [(0, 0), (0, 1), (1, 1)], None),
        "weyl-labels": ([f + g, (f - g).scaled(-1j), f], [(0, 1), (1, 2), (0, 0)], None),
        "on-axis-difference": ([on_axis[0] - on_axis[1]], [(0, 0)], (1e-3, 1.0)),
        "off-axis-field": ([on_axis[0] + centred, off_axis + centred], [(0, 1)], None),
        "windowed-profile-vs-probe": ([windowed, probe], [(0, 1)], (1e-3, 2.0)),
    }


def _worst_kernel_gap(quad, leaves, entries, r_bounds):
    from softcone.studies import weyl_quadrature

    q = weyl_quadrature(quad)
    got = gram(leaves, entries, q, r_bounds)
    _, fine = pairing._meshes(q, leaves, entries, r_bounds)
    want = _oracle_gram(fine, leaves, entries)
    worst = 0.0
    for entry in entries:
        value, scale = want[entry]
        worst = max(worst, abs(got[entry].value - value) / scale,
                    abs(got[entry].scale - scale) / scale)
    return worst


KERNEL_CASES = ["profile-vs-fields", "superselection-difference", "two-term-fields",
                "weyl-labels", "on-axis-difference", "off-axis-field",
                "windowed-profile-vs-probe"]


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_kernel_matches_three_component_reduction(quad, case):
    leaves, entries, r_bounds = _kernel_cases()[case]
    assert _worst_kernel_gap(quad, leaves, entries, r_bounds) <= 1e-13


def test_kernel_check_fails_with_conjugated_shift_phases(quad, monkeypatch):
    # negative control: e^(-i rho rate) in place of e^(i rho rate) turns the
    # second carrier class the wrong way against the first, and the windowed
    # profile's mass no longer matches the oracle
    real = pairing._phases
    monkeypatch.setattr(pairing, "_phases", lambda rho, rate: real(rho, -rate))
    leaves, entries, r_bounds = _kernel_cases()["windowed-profile-vs-probe"]
    assert _worst_kernel_gap(quad, leaves, entries, r_bounds) > 1e-3


def test_l1_mass_does_not_depend_on_the_block_width(quad, monkeypatch):
    # one column per block and the whole mesh in one block give the default's
    # scale up to rounding, on every kernel case
    q = studies.weyl_quadrature(quad)
    for case in KERNEL_CASES:
        leaves, entries, r_bounds = _kernel_cases()[case]
        widths = [1, pairing._meshes(q, leaves, entries, r_bounds)[1].node_count]
        want = gram(leaves, entries, q, r_bounds)
        for width in widths:
            monkeypatch.setattr(pairing, "MASS_BLOCK_ELEMENTS", width)
            got = gram(leaves, entries, q, r_bounds)
            for entry in entries:
                assert got[entry].scale == pytest.approx(want[entry].scale, rel=1e-14, abs=0.0)
        monkeypatch.undo()


def _l1_mass_peak(quad, monkeypatch):
    """The largest traced allocation peak inside `_l1_mass`, in bytes, while
    the windowed kernel case is paired on its meshes."""
    peaks = []
    real = pairing._l1_mass

    def mass(*args):
        tracemalloc.start()
        try:
            return real(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(pairing, "_l1_mass", mass)
    leaves, entries, r_bounds = _kernel_cases()["windowed-profile-vs-probe"]
    gram(leaves, entries, studies.weyl_quadrature(quad), r_bounds)
    assert peaks
    return max(peaks)


def _mass_working_set_bound():
    # A block holds at most MASS_BLOCK_ELEMENTS complex numbers per array, and
    # at most four such arrays are live at once (g, the term, the phase
    # table and its gathered columns); twice that leaves room for the
    # per-mesh arrays (the stacked factors and the column key): 2 MB.
    return 2 * 4 * 16 * pairing.MASS_BLOCK_ELEMENTS


def test_l1_mass_working_set_is_bounded_by_the_block(quad, monkeypatch):
    assert _l1_mass_peak(quad, monkeypatch) < _mass_working_set_bound()


def test_working_set_guard_fails_with_blocks_sized_like_the_filon_chunks(quad, monkeypatch):
    # negative control: max(1, 600_000 // (2 n_rho)) columns per block, the
    # Filon chunk halved, breaks the bound on the same mesh
    bound = _mass_working_set_bound()
    monkeypatch.setattr(pairing, "MASS_BLOCK_ELEMENTS", pairing.CHUNK_ELEMENTS // 2)
    assert _l1_mass_peak(quad, monkeypatch) > bound


def _spy_distinct_columns(monkeypatch, drop_shift_rates=False):
    """(columns in the key, distinct columns kept) of each L1 mass; with
    ``drop_shift_rates`` the key holds the angular rows alone."""
    seen, shifts = [], []
    real_mass, real_distinct = pairing._l1_mass, pairing._distinct_columns

    def mass(mesh, khat, pairs):
        shifts.append(len({p.delta[1] for p in pairs}) - 1)
        return real_mass(mesh, khat, pairs)

    def distinct(key):
        if drop_shift_rates:
            key = key[:key.shape[0] - shifts[-1]]
        cols, counts = real_distinct(key)
        assert counts.sum() == key.shape[1]
        seen.append((key.shape[1], cols.size))
        return cols, counts

    monkeypatch.setattr(pairing, "_l1_mass", mass)
    monkeypatch.setattr(pairing, "_distinct_columns", distinct)
    return seen


def test_l1_mass_forms_the_integrand_once_per_distinct_column(quad, monkeypatch):
    # an on-axis integrand repeats across phi, so the mass evaluates fewer
    # columns than the mesh has; the off-axis field's shift rates keep more
    seen = _spy_distinct_columns(monkeypatch)
    for case in ("on-axis-difference", "off-axis-field"):
        leaves, entries, r_bounds = _kernel_cases()[case]
        gram(leaves, entries, studies.weyl_quadrature(quad), r_bounds)
    (on_nodes, on_cols), (off_nodes, off_cols) = seen
    assert on_cols < on_nodes // 4
    assert on_cols < off_cols <= off_nodes


def test_kernel_check_fails_with_the_shift_rates_left_out_of_the_key(quad, monkeypatch):
    # negative control: without the shift rates the off-axis field's columns
    # merge across phi, and the mass no longer matches the oracle
    _spy_distinct_columns(monkeypatch, drop_shift_rates=True)
    leaves, entries, r_bounds = _kernel_cases()["off-axis-field"]
    assert _worst_kernel_gap(quad, leaves, entries, r_bounds) > 1e-3


def test_kernel_check_fails_with_an_improper_carrier_frame(quad, monkeypatch):
    # negative control: R diag(-1, 1, 1) also turns e3 onto the carrier
    # difference, but it reflects, and a reflection flips khat x u against
    # u - (khat.u) khat, so the electric-magnetic pairs of the two-term
    # field no longer match the oracle
    real = pairing._pole_rotation
    monkeypatch.setattr(pairing, "_pole_rotation",
                        lambda pole: real(pole) @ np.diag([-1.0, 1.0, 1.0]))
    leaves, entries, r_bounds = _kernel_cases()["two-term-fields"]
    assert _worst_kernel_gap(quad, leaves, entries, r_bounds) > 1e-3


def test_kernel_check_fails_with_magnetic_taken_for_electric(quad, monkeypatch):
    # negative control: the kernel's products with a magnetic polarisation
    # built from the electric vector no longer match the oracle
    real = pairing.polarisation_vector
    monkeypatch.setattr(pairing, "polarisation_vector",
                        lambda key, khat: real(("electric", key[1]), khat))
    leaves, entries, r_bounds = _kernel_cases()["profile-vs-fields"]
    assert _worst_kernel_gap(quad, leaves, entries, r_bounds) > 1e-3


def _mass_meshes(monkeypatch):
    """(fine meshes of every two-level pairing, meshes `_l1_mass` ran on)."""
    fine, massed = [], []
    real_meshes, real_mass = pairing._meshes, pairing._l1_mass

    def meshes(*args, **kwargs):
        out = real_meshes(*args, **kwargs)
        fine.append(out[1])
        return out

    def mass(mesh, *args):
        massed.append(mesh)
        return real_mass(mesh, *args)

    monkeypatch.setattr(pairing, "_meshes", meshes)
    monkeypatch.setattr(pairing, "_l1_mass", mass)
    return fine, massed


def test_gram_and_limit_T_take_the_mass_on_the_fine_mesh_only(params, quad, forward_probe,
                                                               monkeypatch):
    # the coarse level only checks the value; scale is the fine mesh's mass
    fine, massed = _mass_meshes(monkeypatch)
    f = photon_wavefunction(forward_probe)
    res = pair(profile_wavefunction(params, "v_hat_T", 10.0), f, quad)
    rows = limit_T_study(params, forward_probe, [1.0, 10.0], quad)
    assert len(fine) == 3 and massed
    assert all(any(m is g for g in fine) for m in massed)
    # one pass for the v_hat_T entry and one for each row's term2 entry, the
    # entries with more than one pair of waves; the parent took six
    assert len(massed) == 1 + 2
    monkeypatch.undo()
    leaves = [profile_wavefunction(params, "v_hat_T", 10.0), f]
    coarse, refined = pairing._meshes(quad, leaves, [(0, 1)])
    assert not coarse.reports_mass and refined.reports_mass
    assert pairing._accumulate(coarse, leaves, [(0, 1)])[1] is None
    _, (scale,) = pairing._accumulate(refined, leaves, [(0, 1)])
    assert scale == res.scale
    assert rows[1]["scale"] > 0.0
