import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softcone import weyl
from softcone.errors import NonIntegrablePairing
from softcone.pairing import lemma1_phase, pair
from softcone.photon import PhotonWaveFunction, zero_wavefunction
from softcone.profiles import DressingParams, profile_wavefunction
from softcone.quadrature import QuadratureSpec
from softcone.testfields import photon_wavefunction
from softcone.weyl import (
    CoherentAutomorphism,
    WeylElement,
    adjoint,
    apply_automorphism,
    canonical_phase,
    compose_difference,
    gram_elements,
    multiply,
    phase_distance,
    state_phase,
)
from tests.conftest import make_field, make_random_label

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def shared_quad():
    # the Weyl-label spec: the labels of this module share their envelope
    # bandwidths, and no pair raises the angular counts at r_max = 12, so
    # every product pairs on the same two meshes and the identities hold to
    # rounding
    return QuadratureSpec(
        r_min=1e-3, r_max=12.0, panels_per_decade=6, gauss_order=10,
        n_cos_theta=36, n_phi=24,
    )


@pytest.fixture(scope="module")
def labels():
    fields = [
        make_field(0.0, (0.0, 0.0, 0.0)),
        make_field(0.2, (0.0, 0.1, -0.2), channel="magnetic", direction=(1, 0, 0)),
        make_field(-0.1, (0.1, 0.0, 0.2), direction=(0.3, 1.0, 0.0)),
    ]
    return [WeylElement(photon_wavefunction(f)) for f in fields]


# ---------------------------------------------------------------- phases

@given(st.floats(-100.0, 100.0))
@settings(max_examples=300, deadline=None)
def test_canonical_phase_range_and_idempotence(phase):
    c = canonical_phase(phase)
    assert 0.0 <= c < TWO_PI
    assert canonical_phase(c) == c
    # same angle mod 2 pi
    assert phase_distance(c, phase) < 1e-9


@given(st.floats(-50.0, 50.0), st.integers(-5, 5))
@settings(max_examples=200, deadline=None)
def test_phase_distance_mod_two_pi(phase, n):
    assert phase_distance(phase, phase + TWO_PI * n) < 1e-9


def test_phase_distance_symmetric_bound():
    assert phase_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2, abs=1e-12)
    assert phase_distance(0.0, math.pi) == pytest.approx(math.pi, abs=1e-12)


# ---------------------------------------------------------------- elements

def test_element_phase_canonicalized(labels):
    w = WeylElement(labels[0].label, phase=-0.5)
    assert 0.0 <= w.phase < TWO_PI
    assert phase_distance(w.phase, -0.5) < 1e-12


def test_multiply_group_law_round_trip(labels, shared_quad):
    w1, w2 = labels[0], labels[1]
    prod = multiply(w1, w2, shared_quad)
    back = multiply(prod, adjoint(w2), shared_quad)
    assert phase_distance(back.phase, w1.phase) < 1e-12


def test_multiply_antisymmetric_twist(labels, shared_quad):
    w1, w2 = labels[0], labels[1]
    p12 = multiply(w1, w2, shared_quad).phase
    p21 = multiply(w2, w1, shared_quad).phase
    # W(f)W(g) = e^{-2i sigma(f,g)} W(g)W(f): phase difference is -2 sigma
    from softcone.pairing import pair

    sigma = pair(w1.label, w2.label, shared_quad).value.imag
    assert phase_distance(p12 - p21, canonical_phase(-2.0 * sigma)) < 1e-12


def test_unit_element(labels, shared_quad):
    w = labels[2]
    unit = multiply(w, adjoint(w), shared_quad)
    assert phase_distance(unit.phase, 0.0) < 1e-12


def test_involution_is_idempotent(labels):
    w = labels[1]
    again = adjoint(adjoint(w))
    assert phase_distance(again.phase, w.phase) == 0.0


def _product_phase_gaps(elements, q):
    """Distance of multiply's phase from a.phase + b.phase - Im<a.label, b.label>
    for words of length 2 and 3, with sigma from pair() on the composed labels
    (a path that never reads a Gram matrix)."""
    w0, w1, w2 = elements
    w01 = multiply(w0, w1, q)
    w012 = multiply(w01, w2, q)
    gaps = []
    for a, b in [(w01, w2), (w012, adjoint(w1)), (w1, w012)]:
        sigma = pair(a.label, b.label, q).value.imag
        want = canonical_phase(a.phase + b.phase - sigma)
        gaps.append(phase_distance(multiply(a, b, q).phase, want))
    return gaps


@pytest.mark.parametrize("shared", [False, True], ids=["per-product-block", "shared-gram"])
def test_product_phase_matches_pairing_of_composed_labels(labels, shared_quad, shared):
    elements = gram_elements([w.label for w in labels], shared_quad) if shared else labels
    assert max(_product_phase_gaps(elements, shared_quad)) <= 1e-12


def test_product_phase_check_fails_on_swapped_gram_slots(labels, shared_quad, monkeypatch):
    # <f_j, f_i> in place of <f_i, f_j> flips every sigma the Gram yields
    unswapped = weyl.gram

    def swapped(leaves, entries, q):
        out = unswapped(leaves, [(j, i) for i, j in entries], q)
        return {(i, j): res for (j, i), res in out.items()}

    monkeypatch.setattr(weyl, "gram", swapped)
    elements = gram_elements([w.label for w in labels], shared_quad)
    assert min(_product_phase_gaps(elements, shared_quad)) > 1e-6


def test_gram_shared_only_for_its_quadrature(labels, shared_quad):
    w0, w1, _ = gram_elements([w.label for w in labels], shared_quad)
    assert multiply(w0, w1, shared_quad).gram is w0.gram
    other = replace(shared_quad, n_phi=shared_quad.n_phi + 2)
    fresh = multiply(labels[0], labels[1], other)
    assert phase_distance(multiply(w0, w1, other).phase, fresh.phase) == 0.0


def test_multiply_guards_square_integrability(params, labels, shared_quad):
    sharp = WeylElement(profile_wavefunction(params, "v_limit"))
    with pytest.raises(NonIntegrablePairing):
        multiply(sharp, labels[0], shared_quad)


# ---------------------------------------------------------------- automorphisms

def test_automorphism_is_phase_shift_only(params, labels, shared_quad):
    aut = CoherentAutomorphism(profile_wavefunction(params, "v_hat"))
    w = labels[0]
    out = apply_automorphism(aut, w, shared_quad)
    assert out.label is w.label
    assert out.phase != w.phase


def test_automorphism_composition_difference(params, labels, shared_quad):
    # applying alpha_v then alpha_{v'}^{-1} equals the automorphism of the
    # difference profile, up to phase
    a1 = CoherentAutomorphism(profile_wavefunction(params, "v_hat"))
    v2 = profile_wavefunction(params, "v_hat").scaled(0.5)
    a2 = CoherentAutomorphism(v2)
    w = labels[1]
    lhs1 = apply_automorphism(a1, w, shared_quad)
    lhs = apply_automorphism(
        CoherentAutomorphism(v2.scaled(-1.0)), lhs1, shared_quad
    )
    rhs = apply_automorphism(compose_difference(a1, a2), w, shared_quad)
    assert phase_distance(lhs.phase, rhs.phase) < 1e-9


def test_compose_difference_with_itself_is_identity(params, labels, shared_quad):
    # the difference profile evaluates to exactly zero, so the shift is exact
    a = CoherentAutomorphism(profile_wavefunction(params, "v_hat"))
    out = apply_automorphism(compose_difference(a, a), labels[0], shared_quad)
    assert out.phase == labels[0].phase
    assert out.label is labels[0].label


def test_state_phase_is_unimodular(params, shared_quad, forward_probe):
    z = state_phase(params, forward_probe, shared_quad)
    assert abs(abs(z) - 1.0) < 1e-12


def test_state_phase_trivial_at_zero_velocity(shared_quad, forward_probe):
    p0 = DressingParams(w=(0.0, 0.0, 0.0))
    assert state_phase(p0, forward_probe, shared_quad) == 1.0


def test_state_phase_ratio_matches_inner_phase_difference(params, quad, forward_probe):
    # for a forward-cone label the ratio of the dressed phases at two
    # velocities reduces to the square-integrable inner part
    slow = replace(params, w=(0.0, 0.0, 0.1))
    z = state_phase(params, forward_probe, quad)
    z_slow = state_phase(slow, forward_probe, quad)
    dl = lemma1_phase(params, forward_probe, quad) - lemma1_phase(slow, forward_probe, quad)
    assert phase_distance(float(np.angle(z / z_slow)), dl) <= 1e-6


@pytest.mark.parametrize("length", [1, 2, 3])
def test_automorphism_shift_matches_pairing_of_composed_label(params, labels, shared_quad, length):
    # the shift sums c_i <v, f_i> over the word's leaves; pairing the composed
    # label instead must give the same number
    diff = profile_wavefunction(params, "v_limit") - profile_wavefunction(params, "v_hat")
    auto = CoherentAutomorphism(diff)
    w = labels[0]
    for nxt in (labels[1], adjoint(labels[2]))[: length - 1]:
        w = multiply(w, nxt, shared_quad)
    assert len(w.coeffs) == length
    shift = apply_automorphism(auto, w, shared_quad).phase - w.phase
    want = -2.0 * pair(diff, w.label, shared_quad).value.real
    assert phase_distance(shift, want) <= 1e-12 * abs(want)


def test_automorphism_distributes_over_product(params, labels, shared_quad):
    diff = profile_wavefunction(params, "v_limit") - profile_wavefunction(params, "v_hat")
    auto = CoherentAutomorphism(diff)
    w1, w2 = labels[0], labels[2]
    left = apply_automorphism(auto, multiply(w1, w2, shared_quad), shared_quad)
    right = multiply(
        apply_automorphism(auto, w1, shared_quad),
        apply_automorphism(auto, w2, shared_quad),
        shared_quad,
    )
    assert phase_distance(left.phase, right.phase) <= 1e-10


def test_automorphism_shift_additive_on_labels(params, shared_quad):
    rng = np.random.default_rng(5)
    diff = profile_wavefunction(params, "v_limit") - profile_wavefunction(params, "v_hat")
    auto = CoherentAutomorphism(diff)
    ws = [WeylElement(photon_wavefunction(make_random_label(rng))) for _ in range(10)]
    worst = 0.0
    for w1, w2 in zip(ws[:5], ws[5:]):
        s1 = apply_automorphism(auto, w1, shared_quad).phase - w1.phase
        s2 = apply_automorphism(auto, w2, shared_quad).phase - w2.phase
        w12 = multiply(w1, w2, shared_quad)
        s12 = apply_automorphism(auto, w12, shared_quad).phase - w12.phase
        worst = max(worst, phase_distance(s12, s1 + s2))
    assert worst <= 1e-9
