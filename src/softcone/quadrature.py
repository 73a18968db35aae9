"""Deterministic quadrature rules for singular and oscillatory momentum integrals.

The momentum-space pairings of this package are integrals over R^3 written in
spherical coordinates

    integral = int_0^inf rho^2 drho int_{-1}^1 dmu int_0^{2pi} dphi  G(rho, mu, phi),

with integrands that are (i) power-law graded near rho = 0 and (ii) oscillatory
in rho with a known frequency budget (time supports, worldline cutoffs T).
The rules here are pure functions of a `QuadratureSpec` plus explicit frequency
metadata, so node generation is reproducible bit-for-bit:

* radial: geometric panels from ``r_min`` to ``r_max`` (``panels_per_decade``),
  each panel subdivided uniformly so the local Gauss-Legendre rule keeps at
  least ``nodes_per_wavelength`` nodes per oscillation wavelength;
* angular: Gauss-Legendre in mu = cos(theta) (all nodes interior, never on the
  k3-axis mu = +-1) times a uniform midpoint rule in phi whose first
  node is offset away from phi = 0.

Every Gauss-Legendre rule here (radial panels, transform rules, the mu rule,
the Filon basis) is ``gauss_rule``: Newton's method on the Legendre
three-term recurrence, O(n^2) time and O(n) memory per order, with end
weights good to about 1e-11 relative at order 704.  The Filon basis takes
its Legendre values from the same recurrence (``_legendre_rows``), so the
package needs nothing from ``numpy.polynomial``.

The same composite-Gauss pieces serve the radial transforms elsewhere in the
package (bump transforms, spectral wave solutions): ``transform_rule`` builds
the rule as a ``PanelRule`` of equal panels, ``panel_count`` sizes it for a
frequency demand, ``freq_bucket`` rounds that demand to a power of two so
rules can be cached, ``kernel_matvec`` sums sin(x rho) or cos(x rho) over the
rule (``sinc_matvec`` is its sin(z)/z form), and ``unit_direction`` turns
(mu, phi) into Cartesian unit vectors.  Every node of a transform rule is a
panel's left edge plus an offset that all panels share, so angle addition
splits each kernel value into a factor per (x, panel) and one per (x, node
of a panel): the kernel takes 2 (panels + order) sines and cosines per x
instead of one per node, and one matrix product over the panels does the
rest.  The split is at the left edge, where the first panel of a rule on
[0, R] has no phase to cancel (at the midpoints the sinc kernel misses a
long-double oracle by 1.2e-15 of its largest value on the wave rule, at
the left edges by 5.3e-16).  ``KERNEL_CHUNK`` bounds the trig and
panel-sum elements of each block of x.

A known linear phase e^(i omega rho) is integrated exactly by Filon-Legendre
weights on the same nodes (Iserles and Norsett 2005), so the panel density
only has to follow what oscillates besides it.  The weights are never
formed: ``radial_filon_sums`` takes sum_j W_j(omega) R_j for an array of
omegas and columns of values R panel by panel, from moments of R that do
not depend on omega (``filon_gauss`` is the same sums of the identity).  On
a panel where the phase turns by less than ``SLOW_PANEL`` radians over a
half-width, the weights are the Gauss weights times the carrier, whose
Taylor series in omega h is cut after ``TAYLOR_TERMS`` terms:
SLOW_PANEL^20 / 20! is below 4e-19, so the two constants move together.
The slow panels of all omegas then take one matrix product of the powers
omega^n with the panels' moments; only faster panels pay for Bessel rows
(``spherical_jn``), and a call costs one phase per (omega, panel), not one
per (omega, node).  Any other oscillation still raises the panel density
linearly with its frequency.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ToleranceNotMet, require_finite

MAX_RADIAL_NODES = 2_000_000
MAX_ANGULAR_NODES = 4096
# spherical_jn's downward recurrence starts at 2 nmax + 40 and overflows at
# |kappa| = 1 from nmax 55 on, which would turn Filon weights NaN; spherical_jn
# and the Filon weights refuse anything above this cap
MAX_GAUSS_ORDER = 48
TRANSFORM_ORDER = 16             # Gauss order of the radial transform rules
TRANSFORM_NODES_PER_WAVELENGTH = 6.0
KERNEL_CHUNK = 4_000_000         # trig and panel-sum elements per block of kernel_matvec
SLOW_PANEL = 1.0                 # |omega| h below this: the carrier's Taylor series on the panel
TAYLOR_TERMS = 20                # terms of that series: SLOW_PANEL^20 / 20! < 4e-19
NEWTON_STEP = 1e-14              # gauss_rule stops once no node moves by more


@lru_cache(maxsize=64)
def gauss_rule(order: int):
    """Cached Gauss-Legendre nodes/weights on [-1, 1], nodes ascending.

    Newton's method on P_n from Tricomi's guesses
    (1 - (n-1)/(8n^3)) cos(pi (4k-1)/(4n+2)), run on the nodes x >= 0 only
    (Hale and Townsend 2013); P_n and P_n' come from the three-term
    recurrence, so a step costs O(n^2) and no n x n matrix is built.  The
    iteration stops once no node moves by more than NEWTON_STEP; the step
    after that would be about n^2 NEWTON_STEP^2 / 6, below rounding for
    every order up to MAX_ANGULAR_NODES.  The weights are
    2 / ((1 - x^2) P_n'(x)^2).  The nodes x < 0 mirror the others bit for
    bit, and for odd n the middle node is exactly 0."""
    n = order
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    x[n // 2:] = 0.0     # the middle node of an odd order
    step = np.ones_like(x)
    while np.max(np.abs(step)) > NEWTON_STEP:
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return np.concatenate([-x[: n // 2], x[::-1]]), np.concatenate([w[: n // 2], w[::-1]])


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by (k+1) P_(k+1) = (2k+1) x P_k - k P_(k-1),
    in place on two buffers, and P_n' = n (x P_n - P_(n-1)) / (x^2 - 1)."""
    prev, cur = np.ones_like(x), x.copy()
    tmp = np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, cur, out=tmp)
        tmp *= (2 * k + 1) / (k + 1)
        prev *= k / (k + 1)
        np.subtract(tmp, prev, out=prev)
        prev, cur = cur, prev
    return cur, n * (x * cur - prev) / ((x - 1.0) * (x + 1.0))


# ----------------------------------------------------------------------------
# composite rules and transform kernels
# ----------------------------------------------------------------------------

def _panels(lo: float, hi: float, npanels: int):
    """Midpoints and half-widths, as columns, of ``npanels`` equal panels."""
    edges = np.linspace(lo, hi, npanels + 1)
    return 0.5 * (edges[:-1] + edges[1:])[:, None], 0.5 * (edges[1:] - edges[:-1])[:, None]


def panel_gauss(lo: float, hi: float, npanels: int, order: int):
    """Composite Gauss-Legendre rule: ``npanels`` equal panels on [lo, hi]
    with ``order`` nodes each, returned flat (nodes, weights) panel by panel."""
    x, w = gauss_rule(order)
    mid, half = _panels(lo, hi, npanels)
    pts = mid + half * x
    return pts.ravel(), (half * w).ravel()


def spherical_jn(nmax: int, kappa) -> np.ndarray:
    """Spherical Bessel functions j_0 .. j_nmax at each entry of ``kappa``,
    shape ``kappa.shape + (nmax + 1,)``, for |kappa| >= 1 (the fast panels
    of the Filon sums) and nmax <= MAX_GAUSS_ORDER; raises ValueError for
    any smaller |kappa| or larger nmax.

    |kappa| > nmax runs the recurrence j_(n+1) = (2n+1)/kappa j_n - j_(n-1)
    upward (stable for n < kappa), and the range between runs it downward
    from n = 2 nmax + 40 (Miller), scaled to the closed form of j_0 or j_1,
    whichever is larger.  Negative arguments use j_n(-kappa) = (-1)^n
    j_n(kappa).  Both recurrences run on their own arguments, one row per
    order, and the rows are scattered into the result once; the result is
    a view of that order-major array."""
    if nmax > MAX_GAUSS_ORDER:
        raise ValueError(f"spherical_jn needs nmax <= {MAX_GAUSS_ORDER}, got {nmax}")
    k = np.asarray(kappa, dtype=float)
    x = np.abs(k).ravel()
    if not np.all(x >= 1.0):
        raise ValueError("spherical_jn needs |kappa| >= 1")
    out = np.empty((nmax + 1, x.size))

    up = x > nmax
    if up.any():
        xu = x[up]
        rows = np.empty((nmax + 1, xu.size))
        s, c = np.sin(xu), np.cos(xu)
        rows[0] = s / xu
        if nmax >= 1:
            rows[1] = (s / xu - c) / xu
        ratios = (2 * np.arange(nmax) + 1)[:, None] / xu     # row m: (2m+1)/kappa
        for m in range(1, nmax):
            np.multiply(ratios[m], rows[m], out=rows[m + 1])
            rows[m + 1] -= rows[m - 1]
        out[:, up] = rows

    mid = ~up
    if mid.any():
        xm = x[mid]
        top = 2 * nmax + 40
        f_next, f = np.zeros_like(xm), np.ones_like(xm)
        for m in range(top, nmax + 1, -1):
            f_next, f = f, (2 * m + 1) / xm * f - f_next
        # rows nmax + 1 and nmax + 2 hold the last two values, and the rest
        # of the way down runs in place on the rows
        rows = np.empty((nmax + 3, xm.size))
        rows[nmax + 1], rows[nmax + 2] = f, f_next
        ratios = (2 * np.arange(nmax + 2) + 1)[:, None] / xm   # row m: (2m+1)/kappa
        for m in range(nmax + 1, 0, -1):
            np.multiply(ratios[m], rows[m], out=rows[m - 1])
            rows[m - 1] -= rows[m + 1]
        s, c = np.sin(xm), np.cos(xm)
        j0, j1 = s / xm, (s / xm - c) / xm
        use0 = np.abs(j0) >= np.abs(j1)
        scale = np.where(use0, j0 / rows[0], j1 / rows[1])
        out[:, mid] = rows[: nmax + 1] * scale

    negative = (k < 0).ravel()
    if negative.any():
        out[1::2, negative] *= -1.0
    return out.T.reshape(k.shape + (nmax + 1,))


def _legendre_rows(x: np.ndarray, order: int) -> np.ndarray:
    """P_0 .. P_(order-1) at the points ``x``, one row each, by
    n P_n = (2n-1) x P_(n-1) - (n-1) P_(n-2) (the operation order of
    numpy's ``legvander``, whose values these are bit for bit)."""
    rows = np.empty((order, x.size))
    rows[0] = x * 0 + 1
    if order > 1:
        rows[1] = x
    for n in range(2, order):
        rows[n] = (rows[n - 1] * x * (2 * n - 1) - rows[n - 2] * (n - 1)) / n
    return rows


_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


@lru_cache(maxsize=16)
def _filon_basis(order: int) -> np.ndarray:
    """The moments a panel's Filon sums need, as rows against the Gauss
    nodes x_j and weights w_j of ``order``: w_j x_j^n for n <
    TAYLOR_TERMS, then (2n+1) w_j P_n(x_j) for n < ``order``; read-only."""
    x, w = gauss_rule(order)
    n = np.arange(order)[:, None]
    table = np.concatenate([w * x ** np.arange(TAYLOR_TERMS)[:, None],
                            (2.0 * n + 1.0) * _legendre_rows(x, order) * w])
    table.flags.writeable = False
    return table


def _filon_panels(mid: np.ndarray, half: np.ndarray):
    """Midpoints and half-widths of a rule's panels, flat, and the
    Taylor factors i^n h^n / n! of each panel (rows n < TAYLOR_TERMS,
    one column per panel)."""
    mid, half = mid.ravel(), half.ravel()
    steps = half / np.arange(1, TAYLOR_TERMS)[:, None]
    taylor = np.cumprod(np.vstack([np.ones_like(half), steps]), axis=0)
    return mid, half, _I_POWERS[np.arange(TAYLOR_TERMS) % 4, None] * taylor


def _real_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a real matrix ``a`` and a real or complex matrix ``b``,
    without promoting ``a`` to complex."""
    if not np.iscomplexobj(b):
        return a @ b
    b = np.ascontiguousarray(b)
    return (a @ b.view(float)).view(complex)


def filon_gauss(lo: float, hi: float, npanels: int, order: int, omega) -> np.ndarray:
    """Filon-Legendre weights W_j on the nodes of ``panel_gauss``: sum_j W_j
    F(x_j) = int_lo^hi F(x) e^(i omega x) dx for F a polynomial of degree
    < ``order`` on each panel, whatever omega.  They are the Filon sums
    (`_filon_sums`) of the identity, one row of weights per entry of
    ``omega``, shape ``omega.shape + (nodes,)``.  At omega = 0 they are the
    Gauss weights, bit for bit.  Orders above MAX_GAUSS_ORDER raise
    ValueError."""
    return _filon_sums(_filon_panels(*_panels(lo, hi, npanels)), order, omega, np.eye(npanels * order))


def _filon_sums(panels, order: int, omega, values: np.ndarray) -> np.ndarray:
    """sum_j W_j(omega) values[j, ...] for each entry of ``omega``, with the
    Filon weights W_j of `filon_gauss` on the ``panels`` of `_filon_panels`
    (nodes panel by panel, ``order`` to a panel), shape ``omega.shape +
    values.shape[1:]``.  The weights are never formed.

    On a panel with midpoint m, half-width h and Gauss nodes x_j, weights
    w_j, the sum is h e^(i omega m) S(omega), and with kappa = omega h

        S = sum_j w_j e^(i kappa x_j) R_j
          = sum_(n < order) j_n(kappa) [(2n+1) i^n sum_j w_j P_n(x_j) R_j]

    from e^(i kappa x) = sum_n (2n+1) i^n j_n(kappa) P_n(x) (Iserles and
    Norsett 2005).  Where |kappa| < SLOW_PANEL the carrier hardly turns,
    and the Gauss weights times the carrier (exact to about
    kappa^(order+1) / (2 order)!) are taken by the carrier's Taylor series,

        S = sum_(n < TAYLOR_TERMS) omega^n [i^n h^n / n! sum_j w_j x_j^n R_j],

    cut where |kappa|^n / n! < 4e-19.  The brackets do not depend on omega:
    each panel's moments are one product with `_filon_basis`, the slow
    panels of all omegas one product of the powers omega^n with the
    brackets, and only the fast panels evaluate Bessel rows
    (`spherical_jn`).  A call costs one phase per (omega, panel)."""
    if order > MAX_GAUSS_ORDER:
        raise ValueError(f"Filon weights need order <= {MAX_GAUSS_ORDER}, got {order}")
    mid, half, taylor = panels
    omega = np.asarray(omega, dtype=float)
    om = omega.reshape(-1, 1)
    npanels = half.size
    # column c, node j, panel p; the moments are (c, n, p)
    by_column = np.ascontiguousarray(np.reshape(values, (npanels, order, -1)).T)
    moments = _real_matmul(_filon_basis(order), by_column)

    kappa = om * half
    fast = np.abs(kappa) >= SLOW_PANEL
    slow_rows = ~fast.all(axis=1)
    sums = np.empty((by_column.shape[0], om.size, npanels), dtype=complex)
    if slow_rows.any():
        brackets = taylor * moments[:, :TAYLOR_TERMS]
        # the fast panels of these rows get the series far outside its range:
        # garbage, overwritten below
        with np.errstate(over="ignore", invalid="ignore"):
            powers = np.vander(om[slow_rows, 0], TAYLOR_TERMS, increasing=True)
            sums[:, slow_rows] = _real_matmul(powers, brackets)
    if fast.any():
        coeffs = _I_POWERS[np.arange(order) % 4, None] * moments[:, TAYLOR_TERMS:]
        parts = np.concatenate([coeffs.real, coeffs.imag])          # (re c, im c), n, p
        bessel = spherical_jn(order - 1, kappa[fast]).T              # n, pair
        terms = np.einsum("nf,rnf->rf", bessel, parts[:, :, np.nonzero(fast)[1]])
        sums.real[:, fast], sums.imag[:, fast] = terms[: len(sums)], terms[len(sums):]

    arg = om * mid
    phase = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=phase.real)
    np.sin(arg, out=phase.imag)
    phase *= half
    totals = sums[:, :, None, :] @ phase[:, :, None]                 # (c, omega, 1, 1)
    return totals[..., 0, 0].T.reshape(omega.shape + np.shape(values)[1:])


def panel_count(freq: float, length: float, nodes_per_wavelength: float,
                order: int, floor: int) -> int:
    """Equal panels of ``order`` nodes that keep ``nodes_per_wavelength`` nodes
    per wavelength 2 pi / freq over ``length``; never fewer than ``floor``."""
    return max(
        floor,
        math.ceil(nodes_per_wavelength * freq * length / (2.0 * math.pi * order)),
    )


def freq_bucket(freq: float) -> float:
    """Smallest power of two >= freq, and at least 4: the cache key under which
    a frequency demand reuses a transform rule."""
    return float(2.0 ** math.ceil(math.log2(max(freq, 4.0))))


class PanelRule(NamedTuple):
    """A composite Gauss rule on equal panels, flat panel by panel: node
    (p, k) is edges[p] + offsets[k], the left edge of panel p plus the k-th
    node's offset from it, which every panel shares.  A caller may fold the
    fixed factors of its integrand into the weights (``_replace``)."""

    nodes: np.ndarray
    weights: np.ndarray
    edges: np.ndarray
    offsets: np.ndarray


def transform_rule(lo: float, hi: float, freq: float, floor: int) -> PanelRule:
    """Composite rule on [lo, hi] for radial transforms up to frequency
    ``freq``: equal panels of TRANSFORM_ORDER nodes."""
    npanels = panel_count(
        freq, hi - lo, TRANSFORM_NODES_PER_WAVELENGTH, TRANSFORM_ORDER, floor
    )
    x, w = gauss_rule(TRANSFORM_ORDER)
    half = (hi - lo) / (2 * npanels)
    edges = lo + 2.0 * half * np.arange(npanels)
    offsets = half * (1.0 + x)
    return PanelRule((edges[:, None] + offsets).ravel(), np.tile(half * w, npanels), edges, offsets)


def kernel_matvec(kind: str, x, rule: PanelRule, coeff: np.ndarray) -> np.ndarray:
    """sum_j k(x_i nodes_j) coeff_j[...] for k = sin (``kind`` "sin") or cos
    ("cos") and every entry x_i of ``x``, on the nodes of ``rule`` (shape
    ``x.shape + coeff.shape[1:]``).

    Node (p, k) is e_p + b_k, so by angle addition
    sin(x (e_p + b_k)) = sin(x e_p) cos(x b_k) + cos(x e_p) sin(x b_k), and
    cos(x (e_p + b_k)) = cos(x e_p) cos(x b_k) - sin(x e_p) sin(x b_k).  One
    matrix product of [sin(x e); cos(x e)] with the coefficients, panels
    down and (node in panel, column) across, sums over the panels; the
    products with cos(x b) and sin(x b), summed over the nodes of a panel,
    finish the sum.  That costs 2 (panels + order) sines and cosines per
    x_i, not one per node.  The split is at each panel's left edge, not its
    midpoint, so the first panel of a rule on [0, R] has e = 0 and adds no
    cancelling pair of terms.  Rows of ``x`` go in blocks whose trig and
    panel-sum arrays hold at most KERNEL_CHUNK elements."""
    if kind not in ("sin", "cos"):
        raise ValueError(f"kernel must be 'sin' or 'cos', got {kind!r}")
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    npanels, order = rule.edges.size, rule.offsets.size
    panels = np.reshape(coeff, (npanels, -1))      # row p: (node k, column) of panel p
    ncols = panels.shape[1] // order
    out = np.empty((flat.size, ncols))
    step = max(1, KERNEL_CHUNK // (2 * (npanels + order * (ncols + 1))))
    for i in range(0, flat.size, step):
        xb = flat[i : i + step]
        edge = np.empty((2, xb.size, npanels))
        np.multiply.outer(xb, rule.edges, out=edge[1])
        np.sin(edge[1], out=edge[0])
        np.cos(edge[1], out=edge[1])
        sums = (edge.reshape(-1, npanels) @ panels).reshape(2, xb.size, order, ncols)
        off = np.multiply.outer(xb, rule.offsets)
        if kind == "sin":
            sums[0] *= np.cos(off)[..., None]
            sums[1] *= np.sin(off)[..., None]
        else:
            sums[0] *= -np.sin(off)[..., None]
            sums[1] *= np.cos(off)[..., None]
        out[i : i + step] = sums.sum(axis=(0, 2))
    return out.reshape(x.shape + coeff.shape[1:])


def sinc_matvec(x, rule: PanelRule, coeff: np.ndarray) -> np.ndarray:
    """sum_j sinc(x_i nodes_j) coeff_j with sinc(z) = sin(z) / z, as
    (1 / x_i) sum_j sin(x_i nodes_j) (coeff_j / nodes_j), and sum_j coeff_j
    where x_i = 0.  Needs nodes_j != 0 (transform rules have interior Gauss
    nodes); ``coeff`` may have trailing columns, as in ``kernel_matvec``."""
    x = np.asarray(x, dtype=float)
    out = kernel_matvec("sin", x, rule, (coeff.T / rule.nodes).T)
    flat = x.reshape(-1)
    rows = out.reshape(flat.size, math.prod(coeff.shape[1:]))
    nonzero = flat != 0.0
    rows[nonzero] /= flat[nonzero, None]
    rows[~nonzero] = coeff.sum(axis=0).reshape(-1)
    return out


def unit_direction(mu, phi):
    """Cartesian components (kx, ky, kz) of the unit vector with
    cos(theta) = mu and azimuth phi."""
    mu = np.asarray(mu, dtype=float)
    phi = np.asarray(phi, dtype=float)
    sin_th = np.sqrt(np.clip(1.0 - mu * mu, 0.0, None))
    return sin_th * np.cos(phi), sin_th * np.sin(phi), mu


@dataclass(frozen=True)
class QuadratureSpec:
    """Description of the product rule used for all pairings and norms.

    Tolerances are targets for the two-level refinement check, not promises:
    the refinement difference is reported as the error estimate and compared
    against ``max(abs_tol, rel_tol * scale)``.
    """

    r_min: float = 1e-8
    r_max: float = 80.0
    panels_per_decade: int = 4
    gauss_order: int = 16
    n_cos_theta: int = 48
    n_phi: int = 8
    phi_offset: float = 0.5
    nodes_per_wavelength: float = 6.0
    abs_tol: float = 1e-12
    rel_tol: float = 1e-6

    def __post_init__(self):
        require_finite(self, "r_min", "r_max", "phi_offset", "nodes_per_wavelength",
                       "abs_tol", "rel_tol")
        if self.abs_tol < 0 or self.rel_tol < 0 or self.abs_tol == self.rel_tol == 0:
            raise ValueError("abs_tol and rel_tol must be nonnegative, and not both 0")
        if not (0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        counts = (self.panels_per_decade, self.gauss_order, self.n_cos_theta, self.n_phi)
        # bool is an Integral, but true is no node count
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in counts):
            raise ValueError("panel, order and angular node counts must be integers")
        if self.panels_per_decade < 1 or self.gauss_order < 2:
            raise ValueError("panel/order counts too small")
        if self.gauss_order > MAX_GAUSS_ORDER:
            raise ValueError(f"gauss_order must be at most {MAX_GAUSS_ORDER}")
        if self.n_cos_theta < 2 or self.n_phi < 1:
            raise ValueError("angular node counts too small")
        if self.nodes_per_wavelength < 6:
            raise ValueError("nodes_per_wavelength must be >= 6")

    def refined(self) -> "QuadratureSpec":
        """One refinement level: double panel density and angular resolution."""
        return replace(
            self,
            panels_per_decade=2 * self.panels_per_decade,
            n_cos_theta=2 * self.n_cos_theta,
            n_phi=2 * self.n_phi,
            nodes_per_wavelength=2 * self.nodes_per_wavelength,
        )


# ----------------------------------------------------------------------------
# radial meshes
# ----------------------------------------------------------------------------

def geometric_breakpoints(r_lo: float, r_hi: float, panels_per_decade: int) -> np.ndarray:
    """Geometric panel edges covering [r_lo, r_hi]."""
    if not (0 < r_lo < r_hi):
        raise ValueError("need 0 < r_lo < r_hi")
    n = int(math.ceil(panels_per_decade * math.log10(r_hi / r_lo))) + 1
    edges = r_lo * 10.0 ** (np.arange(n + 1) / panels_per_decade)
    edges = edges[edges < r_hi * (1 - 1e-14)]
    return np.concatenate([edges, [r_hi]])


def _radial_panels(spec: QuadratureSpec, r_lo: float, r_hi: float, freq: float = 0.0):
    """The panels of `radial_mesh`: (a, b, nsub) for each geometric panel
    [a, b], split into nsub equal subpanels."""
    edges = geometric_breakpoints(r_lo, r_hi, spec.panels_per_decade)
    panels = []
    budget = 0
    for a, b in zip(edges[:-1], edges[1:]):
        nsub = panel_count(freq, b - a, spec.nodes_per_wavelength, spec.gauss_order, 1)
        budget += nsub * spec.gauss_order
        if budget > MAX_RADIAL_NODES:
            raise ToleranceNotMet(
                f"radial mesh would need more than {MAX_RADIAL_NODES} nodes "
                f"(freq={freq:.3g}, interval=[{r_lo:.3g}, {r_hi:.3g}])"
            )
        panels.append((a, b, nsub))
    return panels


@lru_cache(maxsize=32)
def radial_mesh(spec: QuadratureSpec, r_lo: float, r_hi: float, freq: float = 0.0):
    """Graded, oscillation-aware radial nodes and weights on [r_lo, r_hi].

    ``freq`` is the maximum |d(phase)/d rho| of the integrand; each geometric
    panel is split uniformly until the Gauss rule on every subpanel sees at
    least ``nodes_per_wavelength`` nodes per wavelength 2 pi / freq.  Each
    mesh is built once per process; its arrays are shared, so read-only.
    """
    rules = [panel_gauss(a, b, n, spec.gauss_order) for a, b, n in _radial_panels(spec, r_lo, r_hi, freq)]
    mesh = np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules])
    for a in mesh:
        a.flags.writeable = False
    return mesh


def radial_filon_sums(spec: QuadratureSpec, r_lo: float, r_hi: float, freq: float,
                      omega, values: np.ndarray) -> np.ndarray:
    """Filon sums (`_filon_sums`) of ``values`` for the factor e^(i omega
    rho) on the nodes of ``radial_mesh(spec, r_lo, r_hi, freq)``, one row
    per entry of ``omega``: sum_j W_j(omega) values[j, ...] with the
    `filon_gauss` weights W of the mesh's panels.  ``freq`` then only has
    to cover what the rest of the integrand oscillates."""
    return _filon_sums(_radial_filon_panels(spec, r_lo, r_hi, freq), spec.gauss_order, omega, values)


@lru_cache(maxsize=32)
def _radial_filon_panels(spec: QuadratureSpec, r_lo: float, r_hi: float, freq: float):
    """The `_filon_panels` of the panels of `radial_mesh`, built once per
    process and read-only."""
    panels = [_panels(a, b, n) for a, b, n in _radial_panels(spec, r_lo, r_hi, freq)]
    tables = _filon_panels(np.concatenate([m for m, _ in panels]), np.concatenate([h for _, h in panels]))
    for a in tables:
        a.flags.writeable = False
    return tables


def angular_mesh(spec: QuadratureSpec, n_mu: int | None = None, n_phi: int | None = None):
    """Sphere product rule: (mu GL nodes/weights, phi nodes/weights).

    GL nodes in mu are strictly interior, so the k3-axis mu = +-1 is never
    sampled; phi nodes are midpoint-offset.
    """
    n_mu = spec.n_cos_theta if n_mu is None else n_mu
    n_phi = spec.n_phi if n_phi is None else n_phi
    if max(n_mu, n_phi) > MAX_ANGULAR_NODES:
        raise ToleranceNotMet(
            f"angular rule would need more than {MAX_ANGULAR_NODES} nodes per axis"
        )
    mu, wmu = gauss_rule(n_mu)
    dphi = 2.0 * math.pi / n_phi
    phi = dphi * (np.arange(n_phi) + spec.phi_offset)
    wphi = np.full(n_phi, dphi)
    return mu, wmu, phi, wphi


# ----------------------------------------------------------------------------
# one-dimensional adaptive integration (transform evaluation, oracles)
# ----------------------------------------------------------------------------

def integrate_1d(func, a: float, b: float, rel_tol: float = 1e-10,
                 freq: float = 0.0, order: int = 12, max_doublings: int = 16):
    """Composite-Gauss integral of a vectorized callable on [a, b].

    Deterministic panel-doubling: start from a frequency-informed panel count
    and double until two consecutive levels agree to ``rel_tol`` (relative to
    the larger magnitude, with an absolute floor). Raises ToleranceNotMet if
    the doubling stalls.
    """
    if b <= a:
        return 0.0
    npanels = panel_count(freq, b - a, order, order, 2)  # a panel per wavelength
    prev = None
    for _ in range(max_doublings):
        pts, wts = panel_gauss(a, b, npanels, order)
        total = complex(np.sum(np.asarray(func(pts)) * wts))
        if prev is not None and abs(total - prev) <= rel_tol * max(abs(total), 1e-30):
            return total
        prev = total
        npanels *= 2
    raise ToleranceNotMet(
        f"integrate_1d failed to converge on [{a}, {b}] (freq={freq:.3g})"
    )
