import numpy as np
import pytest

from softcone.errors import NonIntegrablePairing
from softcone.pairing import pair
from softcone.photon import (
    PhotonWaveFunction,
    check_integrable,
    transverse_project,
    zero_wavefunction,
)
from softcone.geometry import DoubleCone, Point4
from softcone.quadrature import QuadratureSpec, unit_direction
from softcone.testfields import BumpProfile, SeparableTerm, TestFieldPair, photon_wavefunction
from tests.conftest import make_field
from tests.polarisation_frame import AxisSingularity, polarisation


def random_directions(n, seed=0):
    rng = np.random.default_rng(seed)
    k = rng.normal(size=(n, 3))
    return k / np.linalg.norm(k, axis=-1, keepdims=True)


def test_polarisation_orthonormal_frame():
    khat = random_directions(500)
    ep, em = polarisation(khat)
    assert np.max(np.abs(np.sum(ep * ep, axis=-1) - 1)) < 1e-13
    assert np.max(np.abs(np.sum(em * em, axis=-1) - 1)) < 1e-13
    assert np.max(np.abs(np.sum(ep * em, axis=-1))) < 1e-13
    assert np.max(np.abs(np.sum(ep * khat, axis=-1))) < 1e-13
    assert np.max(np.abs(np.sum(em * khat, axis=-1))) < 1e-13


def test_polarisation_raises_on_axis():
    with pytest.raises(AxisSingularity):
        polarisation(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(AxisSingularity):
        polarisation(np.array([[0.1, 0.2, 0.3], [0.0, 0.0, -1.0]]))


def test_transverse_projection_properties():
    khat = random_directions(200, seed=1)
    u = np.random.default_rng(2).normal(size=(200, 3))
    pu = transverse_project(khat, u)
    assert np.max(np.abs(np.sum(khat * pu, axis=-1))) < 1e-13
    # idempotent
    assert np.max(np.abs(transverse_project(khat, pu) - pu)) < 1e-13
    # agrees with the polarisation-frame decomposition off the axis
    ep, em = polarisation(khat)
    frame = (
        np.sum(ep * u, axis=-1, keepdims=True) * ep
        + np.sum(em * u, axis=-1, keepdims=True) * em
    )
    assert np.max(np.abs(frame - pu)) < 1e-12


def test_transverse_projection_regular_on_axis():
    # the frame-free form has no axis problem
    pu = transverse_project(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(pu, [1.0, 2.0, 0.0], atol=1e-15)


def test_zero_wavefunction_is_zero_and_integrable():
    z = zero_wavefunction()
    k = np.array([[0.1, 0.2, 0.3]])
    assert np.all(z(k) == 0)
    check_integrable(z, z)  # must not raise


def test_check_integrable_threshold():
    z = zero_wavefunction()
    bad = PhotonWaveFunction(
        evaluator=z.evaluator, small_k_exponent=-1.5, truncation_radius=1.0
    )
    ok = PhotonWaveFunction(
        evaluator=z.evaluator, small_k_exponent=-1.4, truncation_radius=1.0
    )
    with pytest.raises(NonIntegrablePairing):
        check_integrable(bad, bad)
    check_integrable(ok, ok)
    check_integrable(bad, z)


def test_inner_product_hermitian_and_symplectic_antisymmetric(quad):
    f = photon_wavefunction(make_field(0.0, (0.0, 0.0, 0.2)))
    g = photon_wavefunction(make_field(0.4, (0.0, 0.0, -0.3), channel="magnetic"))
    fg = pair(f, g, quad).value
    gf = pair(g, f, quad).value
    assert fg == pytest.approx(np.conj(gf), abs=1e-12)
    # the symplectic form is Im <f, g>
    assert fg.imag == pytest.approx(-gf.imag, abs=1e-12)
    # norm is real positive
    ff = pair(f, f, quad).value
    assert abs(ff.imag) <= 1e-15 * ff.real
    assert ff.real > 0.0


def test_inner_product_antilinear_first_slot(quad):
    f = photon_wavefunction(make_field(0.0, (0.0, 0.0, 0.2)))
    g = photon_wavefunction(make_field(0.4, (0.0, 0.0, -0.3), channel="magnetic"))
    base = pair(f, g, quad).value
    scaled = pair(f.scaled(2j), g, quad).value
    assert scaled == pytest.approx(np.conj(2j) * base, rel=1e-10)
    scaled2 = pair(f, g.scaled(2j), quad).value
    assert scaled2 == pytest.approx(2j * base, rel=1e-10)


def test_sum_keeps_every_phase_term():
    # the mesh sizes its angular rule from the carriers, so a sum must carry
    # every distinct carrier of its summands
    wfs = [photon_wavefunction(make_field(0.1 * n, (0.0, 0.0, 0.05 * n))) for n in range(20)]
    total = wfs[0]
    for wf in wfs[1:]:
        total = total + wf
    assert total.carriers == tuple(wf.carriers[0] for wf in wfs)
    assert len(set(total.carriers)) == 20


def _grid():
    rho = np.geomspace(0.05, 4.0, 7)[:, None]
    mu = np.linspace(-0.95, 0.95, 9)
    phi = np.linspace(0.1, 6.0, 11)
    m, p = (a.ravel()[None, :] for a in np.meshgrid(mu, phi, indexing="ij"))
    return rho, m, p


def _leaves():
    from softcone.profiles import DressingParams, profile_wavefunction

    params = DressingParams(w=(0.2, 0.1, 0.2))
    return {
        "v_limit": profile_wavefunction(params, "v_limit"),
        "v_hat_T": profile_wavefunction(params, "v_hat_T", T=3.0),
        "electric": photon_wavefunction(make_field(0.0, (0.1, 0.0, 0.2), direction=(1.0, 2.0, 0.5))),
        "magnetic": photon_wavefunction(make_field(0.4, (0.0, 0.2, -0.3), channel="magnetic",
                                                   direction=(0.3, -1.0, 0.7))),
    }


def test_single_term_values_spell_out_the_vector():
    # each leaf is one scalar times the transverse w or d (electric) or
    # khat x d (magnetic), formed component by component: the same bits as
    # building the vector at every node
    rho, mu, phi = _grid()
    kx, ky, kz = unit_direction(mu, phi)
    for name, wf in _leaves().items():
        ((key, s),) = wf.parts(rho, mu, phi).items()
        channel, d = key
        assert channel == ("magnetic" if name == "magnetic" else "electric")
        if channel == "electric":
            kd = kx * d[0] + ky * d[1] + kz * d[2]
            vec = np.stack([d[0] - kd * kx, d[1] - kd * ky, d[2] - kd * kz], axis=-1)
        else:
            vec = np.stack([ky * d[2] - kz * d[1], kz * d[0] - kx * d[2], kx * d[1] - ky * d[0]],
                           axis=-1)
        want = (s[..., None] * vec).astype(complex)
        assert np.array_equal(wf.values(rho, mu, phi), want), name


def test_parts_algebra():
    rho, mu, phi = _grid()
    leaves = _leaves()
    khat = np.stack(unit_direction(mu, phi), axis=-1)[None]
    for a in leaves.values():
        for b in leaves.values():
            va, vb = a.values(rho, mu, phi), b.values(rho, mu, phi)
            top = max(np.max(np.abs(va)), np.max(np.abs(vb)))
            got = (a + b).values(rho, mu, phi)
            assert np.max(np.abs(got - (va + vb))) <= 1e-15 * top
            assert np.max(np.abs(np.sum(khat * got, axis=-1))) <= 1e-15 * top
            got = (a - b.scaled(0.5j)).values(rho, mu, phi)
            assert np.max(np.abs(got - (va - 0.5j * vb))) <= 1e-15 * top
    # sums and multiples keep one part per polarisation
    f, g = leaves["electric"], leaves["magnetic"]
    assert len((f + f.scaled(2.0) + g).parts(rho, mu, phi)) == 2
    v = leaves["v_limit"]
    diff = v - leaves["v_hat_T"]
    assert list(diff.parts(rho, mu, phi)) == list(v.parts(rho, mu, phi))
    # two terms with the same channel and direction are one part
    terms = tuple(
        SeparableTerm(time=BumpProfile(t, 0.4), space=BumpProfile(0.0, 0.4),
                      direction=(0.0, 2.0, 0.0), channel="magnetic", position=(0.0, 0.0, z))
        for t, z in ((0.1, 0.1), (-0.1, -0.1))
    )
    two = photon_wavefunction(TestFieldPair(terms, DoubleCone(Point4(0.0, np.zeros(3)), 1.0)))
    assert list(two.parts(rho, mu, phi)) == [("magnetic", (0.0, 1.0, 0.0))]
    # the zero label has no parts and zero values of the broadcast shape
    z = zero_wavefunction()
    assert z.parts(rho, mu, phi) == {}
    zero = z.values(rho, mu, phi)
    assert zero.shape == (rho.size, mu.size, 3) and zero.dtype == complex and not zero.any()
    assert np.array_equal((f + z).values(rho, mu, phi), f.values(rho, mu, phi))
