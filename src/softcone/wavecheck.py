"""Classical wave-equation checks behind the symplectic-space equivalences.

A WaveSolution is the smooth solution with initial data (0, f_i) for a radial
bump f_i, evaluated through its spectral representation

    g(t, x) = (2 pi)^(-3/2) int d3k e^(ik.x) sin(|k| t)/|k| f~_i(k)
            = (2 pi)^(-3/2) 4 pi int drho  rho f~_i(rho) sinc(rho R) sin(rho t)

(R = |x|), which keeps time evolution free of numerical dispersion.  Grid
studies sample solutions on uniform cubes through a dense radial table with
4-point cubic interpolation; one kernel pass per solution fills the table
rows of every time a study needs, and the table and quadrature rules are
regenerated deterministically from bucketed frequency demands.  Every cube grid
is spacing·(−m … m)³, so grid sums of radial integrands visit each shell of
integer squared radius i² + j² + k² (in steps) once, weighted by its point count.

The module provides the three numerical witnesses used downstream:

* time-invariance of the classical symplectic pairing on a spatial grid,
* finite propagation speed (mass outside the grown support ball),
* spatial support of the inverse transform of the cos-weighted on-shell
  combination of a magnetic test field.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SoftconeError
# perfbench/spans.py reads _bucket and the WaveSolution._rules it keys
from .quadrature import freq_bucket as _bucket
from .quadrature import sinc_matvec, transform_rule
from .testfields import (
    BumpProfile,
    RadialBumpTransform,
    TestFieldPair,
    TimeBumpTransform,
    _truncation_radius,
)

TWO_PI = 2.0 * math.pi
WAVE_PREFACTOR = 4.0 * math.pi / TWO_PI**1.5
TABLE_REFINE = 4          # radial interpolation table step = grid spacing / this
FD_TIME_SCALE = 1.0 / 30.0  # Delta t = FD_TIME_SCALE * h^2 in the drift study
# largest m of a cube grid spacing·(−m … m)³; its `_radius_classes` take about
# 0.18 s and 14 MB of peak memory (measured on a 2-vCPU Intel Xeon)
MAX_HALF_STEPS = 361


@dataclass
class WaveSolution:
    """Spectral solution with initial data (g, dg/dt)|_{t=0} = (0, f_i)."""

    initial_profile: BumpProfile
    _rules: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.initial_profile.center != 0.0:
            raise ValueError("initial profile must be radial (center 0)")
        self._transform = RadialBumpTransform(self.initial_profile)
        self._cutoff = _truncation_radius([self._transform])

    def _rule(self, bucket: float):
        rule = self._rules.get(bucket)
        if rule is None:
            rule = transform_rule(0.0, self._cutoff, bucket, 8)
            rho = rule.nodes
            rule = rule._replace(weights=WAVE_PREFACTOR * rule.weights * rho * self._transform(rho))
            self._rules[bucket] = rule
        return rule

    def _radial_columns(self, times, radii: np.ndarray, derivative: int = 0):
        """g (or exactly d/dt g for derivative=1) at radius samples, one column
        per entry of ``times`` (shape radii.shape + (len(times),)), from one
        kernel pass on the rule of the batch's largest |t|."""
        if derivative not in (0, 1):
            raise ValueError("derivative must be 0 or 1")
        radii = np.asarray(radii, dtype=float)
        taus = np.asarray(times, dtype=float)
        reach = float(np.max(np.abs(taus), initial=0.0))
        rule = self._rule(_bucket(float(np.max(radii, initial=0.0)) + reach))
        rho, coeff = rule.nodes, rule.weights
        phase = np.multiply.outer(rho, taus)
        if derivative == 0:
            tcoeff = coeff[:, None] * np.sin(phase)
        else:
            tcoeff = (coeff * rho)[:, None] * np.cos(phase)
        return sinc_matvec(radii, rule, tcoeff)

    def radial_values(self, t: float, radii: np.ndarray, derivative: int = 0):
        """g (or exactly d/dt g for derivative=1) at radius samples."""
        return self._radial_columns((float(t),), radii, derivative)[..., 0]

    @property
    def support_radius(self) -> float:
        return self.initial_profile.halfwidth


def wave_evaluate(ws: WaveSolution, t: float, x) -> np.ndarray:
    """Solution value at time t and spatial points x (shape (..., 3))."""
    x = np.asarray(x, dtype=float)
    return ws.radial_values(t, np.linalg.norm(x, axis=-1))


def wave_time_derivative(ws: WaveSolution, t: float, x) -> np.ndarray:
    """Exact spectral time derivative (cos kernel)."""
    x = np.asarray(x, dtype=float)
    return ws.radial_values(t, np.linalg.norm(x, axis=-1), derivative=1)


@dataclass(frozen=True)
class GridField:
    """A solution sampled on the cube grid spacing·(−m … m)³ of extent 2m·spacing."""

    extent: float
    spacing: float
    values: np.ndarray
    timestamp: float


def _half_steps(extent: float, spacing: float) -> int:
    """m of the cube grid spacing·(−m … m)³ that samples this extent."""
    return round(extent / (2.0 * spacing))


def _check_resolution(ws: WaveSolution, spacing: float):
    if spacing > 2.0 * ws.support_radius / 16.0:
        raise SoftconeError(
            "grid spacing too coarse: need at least 16 points across the bump"
        )


def sample_grid(ws: WaveSolution, t: float, extent: float, spacing: float) -> GridField:
    _check_resolution(ws, spacing)
    m = _half_steps(extent, spacing)
    if (2 * m + 1) ** 3 > 40_000_000:
        raise SoftconeError("grid too large to materialize; use the study drivers")
    ax = spacing * np.arange(-m, m + 1)
    table = _RadialTable(ws, (t,), m * spacing, spacing)
    vals = np.empty((ax.size,) * 3)
    for iz, z in enumerate(ax):
        rr = np.sqrt(ax[:, None] ** 2 + ax[None, :] ** 2 + z * z)
        vals[:, :, iz] = table(rr)[0]
    return GridField(2.0 * m * spacing, spacing, vals, float(t))


class _RadialTable:
    """Dense radial samples of a solution at several times, one row per time,
    out to the corner of the cube [−half, half]³, with cubic 4-point interpolation."""

    def __init__(self, ws: WaveSolution, times, half: float, spacing: float):
        self.step = spacing / TABLE_REFINE
        rmax = half * math.sqrt(3.0) + 4.0 * self.step
        n = int(math.ceil(rmax / self.step)) + 4
        self.rows = ws._radial_columns(times, self.step * np.arange(n)).T.copy()
        self.n = n

    def __call__(self, radii: np.ndarray) -> np.ndarray:
        """Interpolated values, shape (len(times),) + radii.shape; the cubic
        weights are built once for all times."""
        s = np.asarray(radii, dtype=float) / self.step
        j = np.clip(s.astype(int), 1, self.n - 3)
        u = s - j
        um, u1, u2 = u + 1.0, u - 1.0, u - 2.0
        w0 = -u * u1 * u2 / 6.0
        w1 = um * u1 * u2 / 2.0
        w2 = -um * u * u2 / 2.0
        w3 = um * u * u1 / 6.0
        out = np.empty((len(self.rows),) + s.shape)
        for o, t in zip(out, self.rows):
            o[...] = w0 * t[j - 1] + w1 * t[j] + w2 * t[j + 1] + w3 * t[j + 2]
        return out


def check_grid(extent: float, spacing: float) -> None:
    """Raise SoftconeError when the cube grid with this extent and spacing
    reaches more than MAX_HALF_STEPS steps from the origin."""
    if not (math.isfinite(extent / spacing) and _half_steps(extent, spacing) <= MAX_HALF_STEPS):
        raise SoftconeError(f"the cube grid of extent {extent:.6g} and spacing {spacing:.6g} "
                            f"reaches {extent / (2.0 * spacing):.6g} steps from the origin, "
                            f"above the cap of {MAX_HALF_STEPS}")


def symplectic_grid(radius: float, t_list):
    """Default (extent, spacing) of `symplectic_time_invariance`: twice the
    support ``radius`` grown by the largest |t|, at 16 points per radius."""
    return 4.0 * (radius + max(abs(float(t)) for t in t_list)), radius / 16.0


def mass_grid(radius: float, t: float):
    """Default (extent, spacing) of `mass_outside_cone`."""
    return 4.0 * (radius + max(abs(float(t)), 1.0)), radius / 16.0


def _radius_classes(m: int, spacing: float):
    """Distinct radii spacing·√n of the cube grid spacing·(−m … m)³, n = i² + j² + k²,
    and how many grid points share each: the plane i² + j² is counted once over
    the half-axis (a nonzero index stands for both signs), then shifted by each k²."""
    i = np.arange(m + 1)
    squares = i * i
    signs = np.where(i == 0, 1.0, 2.0)
    plane = np.bincount(np.add.outer(squares, squares).ravel(),
                        np.multiply.outer(signs, signs).ravel())
    count = np.zeros(3 * m * m + 1)
    for k2, sign in zip(squares, signs):
        count[k2:k2 + plane.size] += sign * plane
    n = np.flatnonzero(count)
    return spacing * np.sqrt(n), count[n]


def symplectic_time_invariance(
    ws1: WaveSolution,
    ws2: WaveSolution,
    t_list=(0.0, 0.5, 1.0, 1.5, 2.0),
    extent: float | None = None,
    spacing: float | None = None,
) -> dict:
    """S(t) = int d3x (w1 dt w2 - dt w1 w2) on a uniform grid, per sample time.

    Time derivatives use a central difference with step FD_TIME_SCALE * h^2,
    tying the observable drift to an O(h^4) discretization error so that
    halving h shows clean convergence.  Returns the rows, the worst drift
    from S(t0), and the L1 scale of the two products for normalization.
    Raises SoftconeError before any sampling when the grid exceeds `check_grid`'s
    cap or its half-extent m·spacing does not cover the grown supports.
    """
    t_values = [float(t) for t in t_list]
    r = max(ws1.support_radius, ws2.support_radius)
    reach = max(abs(t) for t in t_values)
    default_extent, default_spacing = symplectic_grid(r, t_values)
    extent = default_extent if extent is None else extent
    spacing = default_spacing if spacing is None else spacing
    _check_resolution(ws1, spacing)
    _check_resolution(ws2, spacing)
    check_grid(extent, spacing)
    m = _half_steps(extent, spacing)
    half = m * spacing
    if half < r + reach:
        raise SoftconeError("grid extent does not cover the grown supports")
    dt = FD_TIME_SCALE * spacing * spacing
    rr, count = _radius_classes(m, spacing)
    cell = spacing**3
    rows = []
    scale = 0.0
    # one table per solution, rows (t - dt, t, t + dt) for each sample time
    times = [t + shift * dt for t in t_values for shift in (-1, 0, 1)]
    va, vb = (
        _RadialTable(ws, times, half, spacing)(rr).reshape(len(t_values), 3, rr.size)
        for ws in (ws1, ws2)
    )
    for t, (am, wa, ap), (bm, wb, bp) in zip(t_values, va, vb):
        da = (ap - am) / (2.0 * dt)
        db = (bp - bm) / (2.0 * dt)
        s_val = float(np.sum(count * (wa * db - da * wb))) * cell
        s_scale = float(np.sum(count * (np.abs(wa * db) + np.abs(da * wb)))) * cell
        rows.append((t, s_val))
        scale = max(scale, s_scale)
    drift = max(abs(s - rows[0][1]) for _, s in rows)
    return {
        "rows": rows,
        "drift": drift,
        "scale": scale,
        "relative_drift": drift / scale if scale > 0 else 0.0,
        "spacing": spacing,
        "extent": 2.0 * half,
    }


def mass_outside_cone(
    ws: WaveSolution, t: float, extent: float | None = None, spacing: float | None = None
) -> float:
    """Fraction of grid L1 mass outside the ball of radius r + |t|."""
    r = ws.support_radius
    tau = abs(float(t))
    default_extent, default_spacing = mass_grid(r, t)
    extent = default_extent if extent is None else extent
    spacing = default_spacing if spacing is None else spacing
    _check_resolution(ws, spacing)
    check_grid(extent, spacing)
    m = _half_steps(extent, spacing)
    rr, count = _radius_classes(m, spacing)
    mass = count * np.abs(_RadialTable(ws, (t,), m * spacing, spacing)(rr)[0])
    outside = float(np.sum(mass[rr > r + tau]))
    total = float(np.sum(mass))
    return outside / total if total > 0 else 0.0


def magnetic_terms(fields: TestFieldPair) -> list:
    """The magnetic-channel terms of ``fields``, which `bj_support_check`
    reads; ValueError unless there is at least one and every one is centred
    at the origin."""
    magnetic = [term for term in fields.terms if term.channel == "magnetic"]
    if not magnetic:
        raise ValueError("the pair has no magnetic-channel terms")
    if any(any(c != 0.0 for c in term.position) for term in magnetic):
        raise ValueError("support check requires origin-centered magnetic terms")
    return magnetic


def bj_support_check(fields: TestFieldPair, probe_radii) -> list:
    """L2 mass fraction of the position-space image of the cos-weighted
    on-shell combination of the magnetic channel outside each probe radius.

    For a separable magnetic term a(t) b(|x|) d the combination is
    Re(a~(rho)) b~(rho) d, a radial function; its inverse transform must be
    supported in the ball of radius (spatial radius + time reach).  One image,
    on the grid the largest radius needs, serves every radius."""
    magnetic = magnetic_terms(fields)
    probe_radii = [float(r) for r in probe_radii]
    if not probe_radii or not all(r > 0 for r in probe_radii):
        raise ValueError("probe radii must be given and positive")

    reach = max(
        term.space.halfwidth + abs(term.time.center) + term.time.halfwidth
        for term in magnetic
    )
    y_max = 2.0 * max(*probe_radii, reach)
    dy = min(term.space.halfwidth for term in magnetic) / 64.0
    radii = dy * np.arange(int(math.ceil(y_max / dy)) + 1)

    h_vec = np.zeros((radii.size, 3))
    for term in magnetic:
        tt = TimeBumpTransform(term.time)
        st = RadialBumpTransform(term.space)
        cutoff = _truncation_radius([lambda rho: tt(rho) * st(rho)])
        rule = transform_rule(0.0, cutoff, _bucket(y_max + abs(term.time.center)), 8)
        rho = rule.nodes
        radial = (
            term.amplitude
            * np.cos(rho * term.time.center)
            * tt(rho)
            * st(rho)
        )
        h_scalar = sinc_matvec(radii, rule, rule.weights * rho * rho * radial)
        h_vec += h_scalar[:, None] * np.asarray(term.direction)

    density = radii * radii * np.sum(h_vec * h_vec, axis=-1)
    total = float(np.sum(density))
    return [float(np.sum(density[radii > r])) / total if total > 0 else 0.0 for r in probe_radii]
