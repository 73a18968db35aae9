import math

import numpy as np
import pytest

from softcone.errors import SoftconeError
from softcone.geometry import DoubleCone, Point4
from softcone.pairing import pair
from softcone.profiles import profile_wavefunction
from softcone.quadrature import QuadratureSpec
from softcone.testfields import BumpProfile, SeparableTerm, TestFieldPair, photon_wavefunction
from softcone import wavecheck
from softcone.wavecheck import (
    MAX_HALF_STEPS,
    WaveSolution,
    _RadialTable,
    _half_steps,
    _radius_classes,
    bj_support_check,
    check_grid,
    mass_outside_cone,
    sample_grid,
    symplectic_time_invariance,
    wave_evaluate,
    wave_time_derivative,
)
from tests.conftest import make_field


@pytest.fixture(scope="module")
def solution():
    return WaveSolution(BumpProfile(0.0, 0.5))


SAMPLE_POINTS = np.array(
    [[0.1, 0.0, 0.2], [0.0, 0.3, 0.0], [0.2, 0.2, 0.1], [0.45, 0.0, 0.0]]
)


def test_rejects_offcenter_profile():
    with pytest.raises(ValueError):
        WaveSolution(BumpProfile(1.0, 0.5))


def test_initial_value_identically_zero(solution):
    vals = wave_evaluate(solution, 0.0, SAMPLE_POINTS)
    assert np.all(vals == 0.0)


def test_initial_slope_equals_profile(solution):
    spectral = wave_time_derivative(solution, 0.0, SAMPLE_POINTS)
    target = solution.initial_profile(np.linalg.norm(SAMPLE_POINTS, axis=-1))
    np.testing.assert_allclose(spectral, target, atol=1e-6)


def test_finite_difference_slope_is_second_order(solution):
    target = solution.initial_profile(np.linalg.norm(SAMPLE_POINTS, axis=-1))

    def fd_error(dt):
        fd = (wave_evaluate(solution, dt, SAMPLE_POINTS)
              - wave_evaluate(solution, -dt, SAMPLE_POINTS)) / (2 * dt)
        return np.max(np.abs(fd - target))

    e1, e2 = fd_error(1e-2), fd_error(5e-3)
    assert e1 / e2 == pytest.approx(4.0, rel=0.15)


def test_propagation_stays_in_cone(solution):
    # points outside |x| = r + t + h must be numerically dark
    t = 1.5
    r = solution.support_radius
    far = np.array([[r + t + 0.15, 0.0, 0.0], [0.0, 0.0, r + t + 0.3]])
    vals = wave_evaluate(solution, t, far)
    peak = np.max(np.abs(solution.initial_profile(np.linspace(0, r, 200))))
    assert np.max(np.abs(vals)) <= 1e-6 * peak


def test_mass_outside_cone_small(solution):
    assert mass_outside_cone(solution, 1.0) <= 1e-6


def test_sample_grid_shape_and_resolution_guard(solution):
    g = sample_grid(solution, 0.5, extent=3.0, spacing=0.0625)
    n = int(round(3.0 / 0.0625)) + 1
    assert g.values.shape == (n, n, n)
    assert g.timestamp == 0.5
    with pytest.raises(SoftconeError):
        # coarser than 16 points across the bump
        sample_grid(solution, 0.5, extent=3.0, spacing=0.1)


def test_symplectic_pairing_antisymmetry(solution):
    # identical solutions: integrand cancels pointwise, zero drift exactly
    out = symplectic_time_invariance(
        solution, solution, (0.0, 0.5), extent=4.0, spacing=0.5 / 16
    )
    assert all(s == 0.0 for _, s in out["rows"])
    assert out["relative_drift"] == 0.0


def test_symplectic_drift_small_on_short_window(solution):
    other = WaveSolution(BumpProfile(0.0, 0.4, 1.3))
    out = symplectic_time_invariance(
        solution, other, (0.0, 0.5, 1.0), extent=6.0, spacing=0.5 / 16
    )
    assert out["rows"][0][1] == 0.0  # both solutions vanish at t = 0
    assert out["relative_drift"] <= 1e-6


def test_symplectic_extent_guard(solution):
    other = WaveSolution(BumpProfile(0.0, 0.4))
    with pytest.raises(SoftconeError):
        symplectic_time_invariance(solution, other, (0.0, 3.0), extent=4.0)


def test_symplectic_extent_guard_reads_the_sampled_axis(solution):
    # extent 3.03 covers r + |t| = 1.51 either side, but at spacing 1/32 its
    # axis rounds to 48 steps, 1.5 from the origin; 3.04 rounds to 49
    other = WaveSolution(BumpProfile(0.0, 0.4))
    with pytest.raises(SoftconeError, match="does not cover"):
        symplectic_time_invariance(solution, other, (0.0, 1.01), extent=3.03)
    out = symplectic_time_invariance(solution, other, (0.0, 1.01), extent=3.04)
    assert out["extent"] == 2.0 * 49 / 32


@pytest.mark.parametrize("t", [10.0, 1.0e6], ids=["ten", "a-million"])
def test_oversized_grids_are_refused_before_sampling(solution, t, monkeypatch):
    # t = 1e6 asked NumPy for 3.64 PiB of radius classes, t = 10 for about
    # 3 GB; both must be refused before a radius class or a table is built
    def never(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(wavecheck, "_radius_classes", never)
    monkeypatch.setattr(wavecheck, "_RadialTable", never)
    other = WaveSolution(BumpProfile(0.0, 0.4, 1.3))
    with pytest.raises(SoftconeError, match="above the cap"):
        symplectic_time_invariance(solution, other, (0.0, t))
    with pytest.raises(SoftconeError, match="above the cap"):
        mass_outside_cone(solution, t)


def test_check_grid_rounds_a_fractional_extent_to_a_symmetric_axis():
    # extent 5.2 at spacing 1/32 is 166.4 steps: the axis is rounded to
    # 83 steps either side of the origin, so each square but 0 is shared by
    # two axis values
    m = _half_steps(5.2, 1.0 / 32.0)
    ax = np.arange(-m, m + 1) / 32.0
    assert ax.size == 167 and np.unique(ax * ax).size == 84
    check_grid(5.2, 1.0 / 32.0)
    # the largest axis under the cap passes, one step more each side fails;
    # the cap keeps the boundary of the former one, 8 M sorted triples of
    # distinct squared axis values
    assert MAX_HALF_STEPS == max(m for m in range(400) if math.comb(m + 3, 3) <= 8_000_000)
    check_grid(2.0 * MAX_HALF_STEPS, 1.0)
    with pytest.raises(SoftconeError, match="above the cap"):
        check_grid(2.0 * (MAX_HALF_STEPS + 1), 1.0)


def test_symplectic_grid_grows_with_negative_times(solution):
    # the grid is sized from max |t|: sizing it from max t refused [0, -1]
    # for not covering the grown supports
    other = WaveSolution(BumpProfile(0.0, 0.4, 1.3))
    back = symplectic_time_invariance(solution, other, (0.0, -1.0))
    forth = symplectic_time_invariance(solution, other, (0.0, 1.0))
    assert back["extent"] == forth["extent"] == 6.0
    # g(-t) = -g(t) and its time derivative is even, so S is odd in t
    assert back["rows"][1][1] == pytest.approx(-forth["rows"][1][1], rel=1e-12)
    assert back["relative_drift"] <= 1e-6


def test_batched_table_rows_equal_per_time_values(solution):
    # every time shares the bucket of the batch: 4 < max radius + |t| <= 8
    times = (0.3, 1.2, -0.7, 1.9)
    table = _RadialTable(solution, times, half=3.0, spacing=0.5 / 16)
    radii = table.step * np.arange(table.n)
    assert 4.0 < radii[-1] + 0.3 and radii[-1] + 1.9 <= 8.0
    for row, t in zip(table.rows, times):
        want = solution.radial_values(t, radii)
        assert np.max(np.abs(row - want)) <= 1e-14 * np.max(np.abs(want))
    slopes = solution._radial_columns(times, radii, derivative=1)
    for k, t in enumerate(times):
        want = solution.radial_values(t, radii, derivative=1)
        assert np.max(np.abs(slopes[:, k] - want)) <= 1e-14 * np.max(np.abs(want))


def _central_difference_gap(ws, times, t, dt):
    """Worst gap, relative to the peak, between the exact time derivative at
    the grid's radius classes and the central difference of the table rows
    for ``times``, taken as (t - dt, t + dt)."""
    m, spacing = 64, 0.5 / 16
    radii, _ = _radius_classes(m, spacing)
    before, after = _RadialTable(ws, times, m * spacing, spacing)(radii)
    exact = ws.radial_values(t, radii, derivative=1)
    return np.max(np.abs((after - before) / (2.0 * dt) - exact)) / np.max(np.abs(exact))


def test_table_rows_difference_to_the_time_derivative(solution):
    t, dt = 1.0, 1e-3
    assert _central_difference_gap(solution, (t - dt, t + dt), t, dt) <= 1e-3


def test_table_rows_difference_check_fails_on_swapped_rows(solution):
    # negative control: the drift witness cannot see a wrong row order
    # (S vanishes by symmetry), this check must
    t, dt = 1.0, 1e-3
    assert _central_difference_gap(solution, (t + dt, t - dt), t, dt) > 1.0


@pytest.mark.parametrize("extent,spacing",
                         [(2.0, 0.125), (2.3, 0.1), (1.7, 0.3), (0.875, 0.125)])
def test_radius_classes_reproduce_the_grid_sum(extent, spacing):
    # a dyadic axis, a decimal one (23 steps, rounded to 11 either side), a
    # fractional step count (5.67, rounded to 3 either side) and an odd one
    # (7, rounded to 4 either side), each against the full cube
    m = _half_steps(extent, spacing)
    ax = spacing * np.arange(-m, m + 1)
    radii, count = _radius_classes(m, spacing)
    full = np.sqrt(ax[:, None, None] ** 2 + ax[None, :, None] ** 2 + ax[None, None, :] ** 2)
    assert np.all(np.diff(radii) > 0)
    assert np.all(count >= 1) and count.sum() == ax.size**3
    # one class per sorted triple of distinct squared axis values at most
    assert radii.size <= math.comb(np.unique(ax * ax).size + 2, 3)
    f = lambda r: np.cos(3.0 * r) * np.exp(-r)
    assert math.isclose(float(np.sum(count * f(radii))), float(np.sum(f(full))), rel_tol=1e-13)
    # 0.92 lies between two shells on every grid here; a threshold on a shell
    # (0.9 is the shell n = 81 of the 0.1 grid) splits its points by the last
    # bit of their radii in float
    assert float(np.sum(count[radii > 0.92])) == float(np.sum(full > 0.92))


# ---------------------------------------------------------------- bj support

@pytest.fixture(scope="module")
def magnetic_field():
    term = SeparableTerm(
        time=BumpProfile(0.0, 0.4),
        space=BumpProfile(0.0, 0.5),
        direction=(1.0, 0.0, 0.0),
        channel="magnetic",
        position=(0.0, 0.0, 0.0),
    )
    return TestFieldPair((term,), DoubleCone(Point4(0.0, np.zeros(3)), 1.0))


def test_bj_support_within_declared_radius(magnetic_field):
    r = magnetic_field.support.radius
    frac_r, frac_2r = bj_support_check(magnetic_field, (r, 2 * r))
    assert frac_r <= 1e-4
    assert frac_2r <= 1e-6
    # the grid follows the largest radius, whatever the others are
    assert bj_support_check(magnetic_field, (2 * r,)) == [frac_2r]


def test_bj_support_requires_magnetic_terms():
    electric = make_field(0.0, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        bj_support_check(electric, (1.0,))


def test_bj_probe_fraction_decreases_with_radius(magnetic_field):
    r = magnetic_field.support.radius
    f1, f2, f3 = bj_support_check(magnetic_field, (0.8 * r, r, 1.5 * r))
    assert f1 >= f2 >= f3


# ---------------------------------------------------------------- localization

def test_localization_radius_spacelike_probe(params):
    # probe centred beyond the u + T localization radius, spacelike to the
    # emitting region: the pairing's real part must vanish relative to its
    # L1 scale
    T = 3.0
    probe = make_field(0.0, (0.0, 0.0, params.u + T + 5.0), radius=1.0)
    res = pair(profile_wavefunction(params, "v_hat_T", T), photon_wavefunction(probe),
               QuadratureSpec(r_max=40.0))
    assert abs(res.value.real) <= 1e-5 * res.scale


def test_localization_contrast_case_not_small(params):
    # probe overlapping the backward emission cone: generically nonvanishing
    T = 3.0
    probe = make_field(-3.0, (0.0, 0.0, 1.0), radius=1.5)
    res = pair(profile_wavefunction(params, "v_hat_T", T), photon_wavefunction(probe),
               QuadratureSpec(r_max=40.0))
    assert abs(res.value.real) > 1e-3 * res.scale
