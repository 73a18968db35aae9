import math
import tracemalloc

import numpy as np
import pytest

from softcone.errors import ToleranceNotMet
from softcone.testfields import BumpProfile
from softcone.wavecheck import WaveSolution
from softcone import quadrature
from softcone.quadrature import (
    KERNEL_CHUNK,
    MAX_ANGULAR_NODES,
    MAX_GAUSS_ORDER,
    QuadratureSpec,
    angular_mesh,
    filon_gauss,
    freq_bucket,
    gauss_rule,
    geometric_breakpoints,
    integrate_1d,
    kernel_matvec,
    panel_count,
    panel_gauss,
    radial_filon_sums,
    radial_mesh,
    sinc_matvec,
    spherical_jn,
    transform_rule,
    unit_direction,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(r_min=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(r_min=2.0, r_max=1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_per_wavelength=2.0)
    QuadratureSpec(gauss_order=MAX_GAUSS_ORDER)
    with pytest.raises(ValueError, match="gauss_order"):
        QuadratureSpec(gauss_order=MAX_GAUSS_ORDER + 1)


def test_filon_weights_are_exact_at_the_order_cap():
    # the cap stays below order 56, where spherical_jn's downward recurrence
    # overflows at |kappa| = 1 and the Filon weights turn NaN
    n = MAX_GAUSS_ORDER
    x, _ = panel_gauss(0.0, 2.0, 1, n)
    for omega in (1.0, 1.7, 3.0, 50.0):
        w = filon_gauss(0.0, 2.0, 1, n, omega)
        for k, want in enumerate(_monomial_moments(0.0, 2.0, omega, n - 1)):
            assert abs(np.sum(w * x**k) - want) <= 1e-12 * 2.0 ** (k + 1) / (k + 1)


def test_refined_doubles_density():
    q = QuadratureSpec()
    r = q.refined()
    assert r.panels_per_decade == 2 * q.panels_per_decade
    assert r.n_cos_theta == 2 * q.n_cos_theta
    assert r.n_phi == 2 * q.n_phi


def test_geometric_breakpoints_cover_interval():
    edges = geometric_breakpoints(1e-6, 50.0, 4)
    assert edges[0] == 1e-6
    assert edges[-1] == 50.0
    assert np.all(np.diff(edges) > 0)
    # roughly panels_per_decade panels per decade
    n_decades = math.log10(50.0 / 1e-6)
    assert abs(len(edges) - 1 - 4 * n_decades) <= 2


def test_radial_mesh_integrates_powers():
    q = QuadratureSpec(r_min=1e-8, r_max=1.0, panels_per_decade=4)
    rho, w = radial_mesh(q, 1e-8, 1.0)
    for p in (0.5, 1.0, 2.0):
        got = np.sum(w * rho**p)
        assert got == pytest.approx(1.0 / (p + 1), rel=1e-12)


def test_radial_mesh_oscillatory():
    q = QuadratureSpec()
    freq = 40.0
    rho, w = radial_mesh(q, 1e-6, 10.0, freq=freq)
    got = np.sum(w * np.cos(freq * rho))
    want = (math.sin(freq * 10.0) - math.sin(freq * 1e-6)) / freq
    assert got == pytest.approx(want, abs=1e-10)


def test_radial_mesh_node_budget_guard():
    q = QuadratureSpec()
    with pytest.raises(ToleranceNotMet):
        radial_mesh(q, 1e-8, 80.0, freq=1e9)


def test_angular_mesh_integrates_sphere():
    q = QuadratureSpec()
    mu, wmu, phi, wphi = angular_mesh(q)
    assert np.sum(wmu) == pytest.approx(2.0, rel=1e-14)
    assert np.sum(wphi) == pytest.approx(2 * math.pi, rel=1e-14)
    # spherical harmonic-ish integrand with known value:
    # int dmu dphi (1 - mu^2) cos(phi)^2 = (4/3) * pi
    val = np.sum(wmu * (1 - mu**2)) * np.sum(wphi * np.cos(phi) ** 2)
    assert val == pytest.approx(4 * math.pi / 3, rel=1e-13)


def test_angular_mesh_avoids_poles_and_phi_zero():
    q = QuadratureSpec()
    mu, _, phi, _ = angular_mesh(q)
    assert np.max(np.abs(mu)) < 1.0
    assert np.min(phi) > 0.0


def test_integrate_1d_gaussian():
    val = integrate_1d(lambda x: np.exp(-(x**2)), -8.0, 8.0, rel_tol=1e-12)
    assert val.real == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_integrate_1d_oscillatory_with_freq_hint():
    a = 73.0
    val = integrate_1d(lambda x: np.cos(a * x), 0.0, 1.0, rel_tol=1e-12, freq=a)
    assert val.real == pytest.approx(math.sin(a) / a, abs=1e-12)


def test_integrate_1d_empty_interval():
    assert integrate_1d(lambda x: x, 1.0, 1.0) == 0.0


# ---------------------------------------------------------- Gauss-Legendre

def _mpmath_gauss(n, ks):
    """(node, weight) of the k-th largest Gauss-Legendre node of order n,
    for each k in ``ks``, at 40 digits: mpmath's own P_n, Newton's method in
    mpmath with a numerical derivative, and w = 2 / ((1 - x^2) P_n'(x)^2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        p = lambda t: mpmath.legendre(n, t)
        dp = lambda t: mpmath.diff(p, t)
        out = []
        for k in ks:
            guess = mpmath.cos(mpmath.pi * (k - 0.25) / (n + 0.5))
            x = mpmath.findroot(p, guess, solver="newton", df=dp)
            out.append((x, 2 / ((1 - x * x) * dp(x) ** 2)))
        return out


@pytest.mark.parametrize("n", [360, 704])
def test_gauss_rule_matches_mpmath_at_high_order(n):
    # the three end weights are the hardest: an eigensolve of the companion
    # matrix misses them by 5.0e-11 (order 360) and 2.9e-9 (order 704)
    ks = [1, 2, 3, n // 8, n // 4, n // 2 - 1, n // 2]
    x, w = gauss_rule(n)
    for k, (xk, wk) in zip(ks, _mpmath_gauss(n, ks)):
        i = n - k
        assert abs(x[i] - float(xk)) <= 4 * np.spacing(x[i])
        assert abs(w[i] - float(wk)) <= 1e-10 * float(wk)


@pytest.mark.parametrize("n", [2, 3, 16, 17, 48, 704])
def test_gauss_rule_is_exact_through_degree_2n_minus_1(n):
    x, w = gauss_rule(n)
    assert x.size == w.size == n and np.all(np.diff(x) > 0)
    for d in range(2 * n):
        want = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(np.sum(w * x**d) - want) <= 1e-12 * 2.0 / (d + 1)
    assert abs(np.sum(w) - 2.0) <= 1e-15
    # the lower half mirrors the upper half bit for bit
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        mid = x[n // 2]
        assert mid == 0.0 and not np.signbit(mid)


def test_gauss_rule_builds_no_square_matrix():
    # an n x n companion matrix at the largest angular order is 128 MB
    gauss_rule.cache_clear()
    tracemalloc.start()
    try:
        x, w = gauss_rule(MAX_ANGULAR_NODES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.size == MAX_ANGULAR_NODES and abs(np.sum(w) - 2.0) <= 1e-14
    assert peak < 1 << 20


# ---------------------------------------------------------- shared pieces

@pytest.mark.parametrize("npanels", [1, 3, 8])
def test_panel_gauss_exact_through_degree_31(npanels):
    lo, hi = -0.7, 1.3
    x, w = panel_gauss(lo, hi, npanels, 16)
    assert x.size == w.size == 16 * npanels
    assert np.all((x > lo) & (x < hi)) and np.all(np.diff(x) > 0)
    for p in range(32):
        want = (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)
        assert np.sum(w * x**p) == pytest.approx(want, rel=1e-13, abs=1e-14)


def test_panel_count_keeps_nodes_per_wavelength_and_floor():
    # 6 nodes per wavelength over 16-node panels: 3 wavelengths need 18 nodes
    assert panel_count(2.0 * math.pi, 3.0, 6.0, 16, 1) == 2
    assert panel_count(2.0 * math.pi, 3.0, 6.0, 16, 4) == 4
    assert panel_count(0.0, 3.0, 6.0, 16, 1) == 1
    n = panel_count(2.0 * math.pi * 100.0, 1.0, 6.0, 16, 8)
    assert 16 * n >= 600 > 16 * (n - 1)


def _longdouble_kernel(kind, x, nodes, coeff):
    """sum_j k(x_i nodes_j) coeff_j from the outer product in long double,
    sinc(0) = 1: an oracle that shares no step with the panel split."""
    arg = np.multiply.outer(np.asarray(x, dtype=np.longdouble), nodes.astype(np.longdouble))
    if kind == "sinc":
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.where(arg == 0, np.longdouble(1), np.sin(arg) / arg)
    else:
        k = np.sin(arg) if kind == "sin" else np.cos(arg)
    return k @ coeff.astype(np.longdouble)


def _worst(got, want):
    """Largest error of each column over that column's largest |want|."""
    want = want.reshape(got.shape[0], -1)
    err = np.abs(got.reshape(want.shape) - want)
    return float(np.max(np.max(err, axis=0) / np.max(np.abs(want), axis=0)))


def test_kernel_matvec_chunks_match_one_product():
    rule = transform_rule(0.01, 9.0, 0.0, 8)       # 8 panels of 16 nodes
    nodes = rule.nodes
    coeff = np.cos(nodes) * np.exp(-nodes)
    # rows per block with one column: KERNEL_CHUNK / (2 (panels + 2 order))
    n = 3 * (KERNEL_CHUNK // (2 * (8 + 2 * 16))) - 17   # three blocks, the last partial
    x = np.linspace(0.0, 40.0, n).reshape(-1, 1)
    got = sinc_matvec(x, rule, coeff)
    want = np.concatenate([np.sinc(np.outer(xs, nodes) / math.pi) @ coeff
                           for xs in np.array_split(x.ravel(), 8)])
    assert got.shape == x.shape
    assert np.max(np.abs(got.ravel() - want)) <= 1e-15 * np.max(np.abs(want))


def _wave_table_case():
    """The rule, radii and time columns of the wave table of the 0.5 bump:
    radii at a quarter of the grid spacing out to the cube's corner, and
    the sample time 0.8 with its central-difference neighbours, plus two
    about t = 0 (the column at t = 0 itself is zero)."""
    ws = WaveSolution(BumpProfile(0.0, 0.5))
    radii = (0.5 / 64.0) * np.arange(584)
    rule = ws._rule(freq_bucket(radii[-1] + 0.8))
    taus = np.array([0.8, -0.01, 0.01, 0.79, 0.81])
    cols = rule.weights[:, None] * np.sin(np.multiply.outer(rule.nodes, taus))
    return radii, rule, cols


@pytest.mark.parametrize("kind", ["sin", "cos", "sinc"])
def test_kernels_match_a_longdouble_outer_product_on_the_wave_rule(kind):
    radii, rule, cols = _wave_table_case()
    assert rule.nodes.size == 3056
    got = (sinc_matvec(radii, rule, cols) if kind == "sinc"
           else kernel_matvec(kind, radii, rule, cols))
    assert _worst(got, _longdouble_kernel(kind, radii, rule.nodes, cols)) <= 1e-15


def test_cos_kernel_matches_a_longdouble_outer_product_on_a_symmetric_rule():
    # the time-transform rule: [-h, h], its first left edge at -h
    rule = transform_rule(-0.4, 0.4, 512.0, 4)
    coeff = rule.weights * BumpProfile(0.0, 0.4)(rule.nodes)
    x = np.linspace(0.0, 512.0, 2049)
    got = kernel_matvec("cos", x, rule, coeff)
    assert _worst(got, _longdouble_kernel("cos", x, rule.nodes, coeff)) <= 1e-15


def test_kernel_check_fails_with_offsets_shifted_by_one_node():
    # negative control: the panel split with each node's offset taken from
    # its neighbour misses the oracle by far more than the bound
    radii, rule, cols = _wave_table_case()
    radii, cols = radii[::8], cols[:, :2]
    shifted = rule._replace(offsets=np.roll(rule.offsets, -1))
    want = _longdouble_kernel("sinc", radii, rule.nodes, cols)
    assert _worst(sinc_matvec(radii, shifted, cols), want) > 1e-3
    for kind in ("sin", "cos"):
        want = _longdouble_kernel(kind, radii, rule.nodes, cols)
        assert _worst(kernel_matvec(kind, radii, shifted, cols), want) > 1e-3


def test_kernels_at_zero_and_on_empty_0d_and_multi_column_inputs():
    rule = transform_rule(0.0, 2.0, 64.0, 4)
    coeff = rule.weights * np.exp(-rule.nodes)
    assert sinc_matvec(np.zeros(3), rule, coeff).tolist() == [np.sum(coeff)] * 3
    assert np.all(kernel_matvec("sin", np.zeros(2), rule, coeff) == 0.0)
    assert kernel_matvec("cos", 0.0, rule, coeff) == pytest.approx(np.sum(coeff), rel=1e-15)
    cols = np.stack([coeff, 2.0 * coeff, -coeff, coeff * rule.nodes, coeff, coeff],
                    axis=1).reshape(-1, 2, 3)
    x = np.array([[0.0, 0.7], [3.0, 41.0]])
    for apply in (lambda xx, c: kernel_matvec("sin", xx, rule, c),
                  lambda xx, c: kernel_matvec("cos", xx, rule, c),
                  lambda xx, c: sinc_matvec(xx, rule, c)):
        assert apply(np.empty((0, 3)), coeff).shape == (0, 3)
        assert apply(np.empty(0), cols).shape == (0, 2, 3)
        assert apply(np.float64(0.7), coeff).shape == ()
        assert apply(0.7, cols).shape == (2, 3)
        both = apply(x, cols)
        assert both.shape == (2, 2, 2, 3)
        assert np.array_equal(apply(0.7, cols), both[0, 1])
        assert np.array_equal(apply(np.float64(0.7), coeff), apply(np.array([0.7]), coeff)[0])
    with pytest.raises(ValueError, match="kernel"):
        kernel_matvec("tan", x, rule, coeff)


def _kernel_case():
    rule = transform_rule(0.0, 2.0, 64.0, 4)  # interior Gauss nodes
    coeff = rule.weights * np.exp(-rule.nodes) * np.cos(3.0 * rule.nodes)
    x = np.concatenate(([0.0, 1e-12], np.linspace(0.5, 400.0, 801)))
    return x, rule, coeff


def test_sinc_matvec_matches_numpy_sinc():
    x, rule, coeff = _kernel_case()
    got = sinc_matvec(x, rule, coeff)
    want = np.sinc(np.outer(x, rule.nodes) / math.pi) @ coeff
    assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(coeff))
    assert got[0] == np.sum(coeff)


def test_kernel_columns_match_one_column_calls():
    x, rule, coeff = _kernel_case()
    cols = np.stack([coeff, -rule.nodes * coeff], axis=1)
    xx = x[:-1].reshape(-1, 2)
    for apply in (lambda c: kernel_matvec("cos", xx, rule, c),
                  lambda c: kernel_matvec("sin", xx, rule, c),
                  lambda c: sinc_matvec(xx, rule, c)):
        both = apply(cols)
        assert both.shape == xx.shape + (2,)
        for k in range(2):
            tol = 1e-15 * np.sum(np.abs(cols[:, k]))
            assert np.max(np.abs(both[..., k] - apply(cols[:, k]))) <= tol


def test_kernel_chunks_match_one_block(monkeypatch):
    x, rule, coeff = _kernel_case()
    cols = np.stack([coeff, -rule.nodes * coeff], axis=1)
    one = [sinc_matvec(x, rule, c) for c in (coeff, cols)]
    npanels, order = rule.edges.size, rule.offsets.size
    per_row = 2 * (npanels + 3 * order)      # elements of a block row with two columns
    assert x.size * per_row <= KERNEL_CHUNK
    # blocks of 7 rows with two columns (9 with one), the last one partial
    monkeypatch.setattr(quadrature, "KERNEL_CHUNK", 7 * per_row + 3)
    for c, want in zip((coeff, cols), one):
        got = sinc_matvec(x, rule, c)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.sum(np.abs(c))


def test_kernels_leave_their_inputs_alone():
    x, rule, coeff = _kernel_case()
    cols = np.stack([coeff, -coeff], axis=1)
    inputs = (x, coeff, cols) + tuple(rule)
    saved = [a.copy() for a in inputs]
    sinc_matvec(x, rule, coeff)
    sinc_matvec(x, rule, cols)
    kernel_matvec("sin", x, rule, cols)
    kernel_matvec("cos", x, rule, coeff)
    for a, b in zip(inputs, saved):
        assert np.array_equal(a, b)


def test_transform_rule_nodes_are_left_edges_plus_shared_offsets():
    rule = transform_rule(0.0, 3.0, 40.0, 4)
    npanels = rule.edges.size
    assert rule.nodes.size == rule.weights.size == 16 * npanels
    assert np.array_equal(rule.nodes, (rule.edges[:, None] + rule.offsets).ravel())
    nodes, weights = panel_gauss(0.0, 3.0, npanels, 16)
    assert np.max(np.abs(rule.nodes - nodes)) <= 4e-16 * 3.0
    assert np.max(np.abs(rule.weights - weights)) <= 1e-16 * np.max(weights)
    assert np.all(np.diff(rule.nodes) > 0) and 0.0 < rule.nodes[0] and rule.nodes[-1] < 3.0


def test_freq_bucket_powers_of_two_with_floor_4():
    for freq in (0.0, 0.5, 3.9, 4.0, 4.1, 7.9, 8.0, 8.5, 1000.0):
        b = freq_bucket(freq)
        assert b >= max(freq, 4.0)
        assert b == 4.0 or b < 2.0 * freq
        assert b == 2.0 ** round(math.log2(b))
    assert freq_bucket(0.0) == freq_bucket(4.0) == 4.0


def test_unit_direction_is_unit_and_matches_angles():
    mu = np.array([-0.9, 0.0, 0.3, 1.0])
    phi = np.array([0.1, 2.0, 4.0, 5.5])
    kx, ky, kz = unit_direction(mu, phi)
    assert np.allclose(kx * kx + ky * ky + kz * kz, 1.0, rtol=0, atol=1e-15)
    assert np.array_equal(kz, mu)
    assert np.allclose(np.arctan2(ky[:3], kx[:3]) % (2 * math.pi), phi[:3], atol=1e-14)


# ---------------------------------------------------------- Filon weights

def test_spherical_jn_matches_scipy():
    # its domain: the fast panels of the Filon weights, |kappa| >= SLOW_PANEL
    special = pytest.importorskip("scipy.special")
    kappa = np.concatenate([np.geomspace(1.0, 1e4, 801), np.arange(1.0, 40.0, 0.25)])
    kappa = np.concatenate([kappa, -kappa])
    got = spherical_jn(15, kappa)
    want = np.stack([special.spherical_jn(n, kappa) for n in range(16)], axis=-1)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14
    nonzero = want != 0.0
    assert np.max(np.abs(got - want)[nonzero] / np.abs(want[nonzero])) <= 1e-11


def _spherical_jn_by_argument(nmax, kappa):
    """spherical_jn's two recurrences written one argument-row at a time,
    with the same operations: the reference its order-major form must
    match bit for bit."""
    x = np.abs(kappa)
    out = np.empty((x.size, nmax + 1))
    for i, xi in enumerate(x):
        s, c = np.sin(xi), np.cos(xi)
        if xi > nmax:
            out[i, 0], out[i, 1] = s / xi, (s / xi - c) / xi
            for m in range(1, nmax):
                out[i, m + 1] = (2 * m + 1) / xi * out[i, m] - out[i, m - 1]
        else:
            f_next, f = 0.0, 1.0
            vals = np.empty(nmax + 2)
            for m in range(2 * nmax + 40, 0, -1):
                if m <= nmax + 1:
                    vals[m] = f
                f_next, f = f, (2 * m + 1) / xi * f - f_next
            vals[0] = f
            j0, j1 = s / xi, (s / xi - c) / xi
            scale = j0 / vals[0] if abs(j0) >= abs(j1) else j1 / vals[1]
            out[i] = vals[: nmax + 1] * scale
        if kappa[i] < 0:
            out[i] *= (-1.0) ** np.arange(nmax + 1)
    return out


@pytest.mark.parametrize("nmax", [15, MAX_GAUSS_ORDER])
def test_spherical_jn_matches_its_one_argument_reference_bit_for_bit(nmax):
    kappa = np.concatenate([np.geomspace(1.0, 200.0, 397), [float(nmax), nmax + 1e-9, 1.0]])
    kappa = np.concatenate([kappa, -kappa[::3]])
    assert np.array_equal(spherical_jn(nmax, kappa), _spherical_jn_by_argument(nmax, kappa))


@pytest.mark.parametrize("kappa", [0.0, 1e-8, 0.5, -0.5])
def test_spherical_jn_rejects_arguments_below_its_domain(kappa):
    # the downward recurrence overflows near 0, so these used to come back
    # as rows of NaN
    with pytest.raises(ValueError, match="kappa"):
        spherical_jn(15, np.array([2.0, kappa, -30.0]))


def test_miller_recurrence_is_finite_up_to_the_order_cap_and_refused_above(monkeypatch):
    kappa = np.linspace(1.0, 200.0, 1991)
    kappa = np.concatenate([kappa, -kappa])
    with np.errstate(all="raise"):
        assert np.all(np.isfinite(spherical_jn(MAX_GAUSS_ORDER, kappa)))
        for omega in (1.0, 1.7, 3.0, 50.0, 200.0):    # kappa = omega on one panel [0, 2]
            assert np.all(np.isfinite(filon_gauss(0.0, 2.0, 1, MAX_GAUSS_ORDER, omega)))
    for order in (MAX_GAUSS_ORDER + 1, 56, 128):
        with pytest.raises(ValueError, match="nmax"):
            spherical_jn(order, kappa)
        with pytest.raises(ValueError, match="order"):
            filon_gauss(0.0, 2.0, 1, order, 3.0)
    # what the cap guards against: the recurrence started at 2 nmax + 40
    # overflows near |kappa| = 1 once nmax reaches 55
    monkeypatch.setattr(quadrature, "MAX_GAUSS_ORDER", 1000)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        spherical_jn(55, kappa)


def test_filon_weights_are_gauss_weights_at_zero_frequency():
    for lo, hi, npanels in ((-0.7, 1.3, 1), (1e-3, 2.0, 5)):
        got = filon_gauss(lo, hi, npanels, 16, 0.0)
        assert np.array_equal(got.real, panel_gauss(lo, hi, npanels, 16)[1])
        assert not np.any(got.imag)
    q = QuadratureSpec()
    _, w = radial_mesh(q, 1e-8, 40.0, 3.0)
    assert np.array_equal(radial_filon_sums(q, 1e-8, 40.0, 3.0, 0.0, np.eye(w.size)), w)


def test_filon_weights_take_an_array_of_frequencies():
    # one row per omega, each the scalar call's weights; a zero omega in the
    # array still gives the Gauss weights bit for bit
    omegas = np.array([0.0, -3.7, 0.02, 11.0, 250.0, -1e4])
    got = filon_gauss(1e-3, 2.0, 5, 16, omegas)
    assert got.shape == (omegas.size, 5 * 16)
    for omega, row in zip(omegas, got):
        one = filon_gauss(1e-3, 2.0, 5, 16, omega)
        assert np.max(np.abs(row - one)) <= 1e-15 * np.max(np.abs(one))
    assert np.array_equal(got[0], panel_gauss(1e-3, 2.0, 5, 16)[1].astype(complex))
    q = QuadratureSpec()
    _, w = radial_mesh(q, 1e-8, 40.0, 3.0)
    identity = np.eye(w.size)
    rows = radial_filon_sums(q, 1e-8, 40.0, 3.0, omegas.reshape(2, 3), identity)
    assert rows.shape == (2, 3, w.size)
    assert np.array_equal(rows[0, 0], w.astype(complex))
    for omega, row in zip(omegas, rows.reshape(omegas.size, -1)):
        one = radial_filon_sums(q, 1e-8, 40.0, 3.0, omega, identity)
        assert np.max(np.abs(row - one)) <= 1e-15 * np.max(np.abs(one))


def _monomial_moments(lo, hi, omega, kmax):
    """int_lo^hi x^k e^(i omega x) dx for k <= kmax, from the antiderivative
    in 150-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(150):
        a, b = mpmath.mpf(lo), mpmath.mpf(hi)
        out = []
        for k in range(kmax + 1):
            if omega == 0.0:
                out.append(complex((b ** (k + 1) - a ** (k + 1)) / (k + 1)))
                continue
            iw = mpmath.mpc(0, omega)

            def antiderivative(x):
                return mpmath.exp(iw * x) * mpmath.fsum(
                    (-1) ** m * mpmath.factorial(k) / mpmath.factorial(k - m)
                    * x ** (k - m) / iw ** (m + 1) for m in range(k + 1))

            out.append(complex(antiderivative(b) - antiderivative(a)))
    return out


def _worst_monomial_error(lo, hi, drop_panel_phase=False):
    """Worst error of the one-panel Filon rule on x^k e^(i omega x), k <= 15,
    |omega| <= 1e4, relative to int |x|^k."""
    x, _ = panel_gauss(lo, hi, 1, 16)
    worst = 0.0
    for omega in (0.0, 1e-3, 0.7, 3.0, 10.0, 57.0, 300.0, 1e3, 1e4):
        for sign in (1.0, -1.0):
            w = filon_gauss(lo, hi, 1, 16, sign * omega)
            if drop_panel_phase:
                w = w * np.exp(-0.5j * sign * omega * (lo + hi))
            for k, want in enumerate(_monomial_moments(lo, hi, sign * omega, 15)):
                l1 = (abs(hi) ** (k + 1) + abs(lo) ** (k + 1)) / (k + 1)
                worst = max(worst, abs(np.sum(w * x**k) - want) / l1)
    return worst


def test_filon_weights_integrate_oscillating_monomials():
    assert _worst_monomial_error(-0.5, 1.5) <= 1e-13


def test_filon_check_fails_with_gauss_form_on_turning_panels(monkeypatch):
    # negative control: with the slow-panel threshold at 20, the panel at
    # omega = 10 (kappa = 10) takes the carrier's Taylor series, whose
    # TAYLOR_TERMS terms are far too few there (10^20 / 20! is about 41)
    monkeypatch.setattr(quadrature, "SLOW_PANEL", 20.0)
    assert _worst_monomial_error(-0.5, 1.5) > 1e-13


def _filon_oracle_error():
    """Worst error of `radial_filon_sums` on a graded rule of 9 panels,
    relative to sum |W| |R| and in units of its bound, against Filon
    weights written out here (Gauss weights times the carrier where
    |omega| h < SLOW_PANEL, the Bessel-moment form with scipy's j_n and
    numpy's Legendre basis on the rest; bound 1e-14) and against
    150-digit moments of the monomial columns.  Those bound the error by
    1e-14 or by 8 eps |omega| r_hi, whichever is larger: the phases omega
    rho of the rule are themselves rounded by about eps |omega rho| (at
    |omega| = 1e4 the written-out weights miss the moments by 5.3e-13 as
    well).  The omegas put panels just below and just above SLOW_PANEL,
    both signs, and reach 0 and 1e4."""
    special = pytest.importorskip("scipy.special")
    q = QuadratureSpec(panels_per_decade=3)
    lo, hi = 0.01, 6.0
    rho, _ = radial_mesh(q, lo, hi, 0.0)
    panels = [(a, b) for a, b, nsub in quadrature._radial_panels(q, lo, hi, 0.0)]
    assert len(panels) == 9 and all(nsub == 1 for *_, nsub in quadrature._radial_panels(q, lo, hi, 0.0))
    x, w = np.polynomial.legendre.leggauss(16)
    basis = (2 * np.arange(16) + 1)[:, None] * np.polynomial.legendre.legvander(x, 15).T
    h3, h7 = 0.5 * (panels[3][1] - panels[3][0]), 0.5 * (panels[7][1] - panels[7][0])
    omegas = [0.0, 0.9999 / h3, -1.0001 / h3, 1.0001 / h7, -0.9999 / h7, 3.7, 1e4, -1e4]
    powers = (0, 3, 7, 15)
    values = np.stack([rho**k for k in powers] + [(1.0 - 2.0j) * np.cos(rho) * rho], axis=1)
    got = radial_filon_sums(q, lo, hi, 0.0, np.array(omegas), values)
    worst = 0.0
    for omega, row in zip(omegas, got):
        weights = []
        for a, b in panels:
            m, h = 0.5 * (a + b), 0.5 * (b - a)
            if abs(omega) * h < quadrature.SLOW_PANEL:
                weights.append(h * w * np.exp(1j * omega * (m + h * x)))
            else:
                jn = special.spherical_jn(np.arange(16), omega * h)
                weights.append(h * np.exp(1j * omega * m) * w * ((1j ** np.arange(16) * jn) @ basis))
        weights = np.concatenate(weights)
        l1 = np.abs(weights) @ np.abs(values)
        worst = max(worst, float(np.max(np.abs(row - weights @ values) / l1)) / 1e-14)
        exact = _monomial_moments(lo, hi, omega, max(powers))
        bound = max(1e-14, 8 * np.finfo(float).eps * abs(omega) * hi)
        for col, k in enumerate(powers):
            worst = max(worst, abs(row[col] - exact[k]) / l1[col] / bound)
    return worst


def test_filon_sums_match_written_out_weights_and_exact_moments():
    assert _filon_oracle_error() <= 1.0


@pytest.fixture
def fresh_filon_tables():
    # the per-order and per-rule tables are cached with the series length
    # they were built with
    def clear():
        quadrature._filon_basis.cache_clear()
        quadrature._radial_filon_panels.cache_clear()
    clear()
    yield
    clear()


def test_filon_oracle_check_fails_with_a_short_taylor_series(monkeypatch, fresh_filon_tables):
    # negative control: 8 terms leave up to kappa^8 / 8! (2.5e-5) on the
    # slow panels just below SLOW_PANEL
    monkeypatch.setattr(quadrature, "TAYLOR_TERMS", 8)
    assert _filon_oracle_error() > 1e4


def test_legendre_rows_are_legvander_bit_for_bit():
    for order in (10, 16):
        x, _ = gauss_rule(order)
        assert np.array_equal(quadrature._legendre_rows(x, order),
                              np.polynomial.legendre.legvander(x, order - 1).T)


def test_filon_check_fails_without_panel_phase():
    # negative control: the same weights without e^(i omega m) on a panel
    # whose midpoint m is not 0
    assert _worst_monomial_error(-0.5, 1.5, drop_panel_phase=True) > 1e-3


def test_radial_mesh_is_built_once_and_read_only():
    q = QuadratureSpec(panels_per_decade=3)
    rho, w = radial_mesh(q, 1e-7, 7.3, 2.0)
    again = radial_mesh(q, 1e-7, 7.3, 2.0)
    assert again[0] is rho and again[1] is w
    fresh = radial_mesh.__wrapped__(q, 1e-7, 7.3, 2.0)
    for cached, built in zip((rho, w), fresh):
        assert np.array_equal(cached, built)
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 1.0
