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
  polarisation axis mu = +-1) times a uniform midpoint rule in phi whose first
  node is offset away from phi = 0.

The same composite-Gauss pieces serve the radial transforms elsewhere in the
package (bump transforms, spectral wave solutions): ``panel_gauss`` builds the
rule, ``panel_count`` sizes it for a frequency demand, ``freq_bucket`` rounds
that demand to a power of two so rules can be cached, ``kernel_matvec`` applies
an oscillatory kernel over the rule in place on bounded blocks (``sinc_matvec``
is its sin(z)/z form), and ``unit_direction`` turns (mu, phi) into Cartesian
unit vectors.

Large oscillation frequencies are handled by scaling panel density linearly
with the frequency rather than by Filon/Levin weights; this is adequate at desk
scale (T up to about 10^3) and is the documented scalability boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ToleranceNotMet

MAX_RADIAL_NODES = 2_000_000
MAX_ANGULAR_NODES = 4096
TRANSFORM_ORDER = 16             # Gauss order of the radial transform rules
TRANSFORM_NODES_PER_WAVELENGTH = 6.0
KERNEL_CHUNK = 4_000_000         # kernel elements per block of kernel_matvec


@lru_cache(maxsize=64)
def gauss_rule(order: int):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


# ----------------------------------------------------------------------------
# composite rules and transform kernels
# ----------------------------------------------------------------------------

def panel_gauss(lo: float, hi: float, npanels: int, order: int):
    """Composite Gauss-Legendre rule: ``npanels`` equal panels on [lo, hi]
    with ``order`` nodes each, returned flat (nodes, weights) panel by panel."""
    x, w = gauss_rule(order)
    edges = np.linspace(lo, hi, npanels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    pts = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * x
    return pts.ravel(), (half * w).ravel()


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


def transform_rule(lo: float, hi: float, freq: float, floor: int):
    """Composite rule on [lo, hi] for radial transforms up to frequency ``freq``."""
    npanels = panel_count(
        freq, hi - lo, TRANSFORM_NODES_PER_WAVELENGTH, TRANSFORM_ORDER, floor
    )
    return panel_gauss(lo, hi, npanels, TRANSFORM_ORDER)


def kernel_matvec(kernel, x, nodes: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """sum_j kernel(x_i nodes_j) coeff_j[...] for every entry x_i of ``x``
    (shape ``x.shape + coeff.shape[1:]``).  ``kernel`` is a ufunc such as
    ``np.sin``; it is applied in place on one outer-product block of at most
    KERNEL_CHUNK elements, and every column of ``coeff`` shares that block."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty(flat.shape + coeff.shape[1:])
    step = max(1, KERNEL_CHUNK // max(nodes.size, 1))
    buf = np.empty((min(step, flat.size), nodes.size))
    for i in range(0, flat.size, step):
        xb = flat[i : i + step]
        blk = np.multiply.outer(xb, nodes, out=buf[: xb.size])
        kernel(blk, out=blk)
        out[i : i + step] = blk @ coeff
    return out.reshape(x.shape + coeff.shape[1:])


def sinc_matvec(x, nodes: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """sum_j sinc(x_i nodes_j) coeff_j with sinc(z) = sin(z) / z, as
    (1 / x_i) sum_j sin(x_i nodes_j) (coeff_j / nodes_j), and sum_j coeff_j
    where x_i = 0.  Needs nodes_j != 0 (transform rules have interior Gauss
    nodes); ``coeff`` may have trailing columns, as in ``kernel_matvec``."""
    x = np.asarray(x, dtype=float)
    out = kernel_matvec(np.sin, x, nodes, (coeff.T / nodes).T)
    flat = x.reshape(-1)
    rows = out.reshape(flat.size, math.prod(coeff.shape[1:]))
    nonzero = flat != 0.0
    rows[nonzero] /= flat[nonzero, None]
    rows[~nonzero] = coeff.sum(axis=0)
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
    oscillation_aware: bool = True
    nodes_per_wavelength: float = 6.0
    abs_tol: float = 1e-12
    rel_tol: float = 1e-6

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        if self.panels_per_decade < 1 or self.gauss_order < 2:
            raise ValueError("panel/order counts too small")
        if self.n_cos_theta < 2 or self.n_phi < 1:
            raise ValueError("angular node counts too small")
        if self.oscillation_aware and self.nodes_per_wavelength < 6:
            raise ValueError("nodes_per_wavelength must be >= 6 when oscillation_aware")

    def refined(self) -> "QuadratureSpec":
        """One refinement level: double panel density and angular resolution."""
        return replace(
            self,
            panels_per_decade=2 * self.panels_per_decade,
            n_cos_theta=2 * self.n_cos_theta,
            n_phi=2 * self.n_phi,
            nodes_per_wavelength=2 * self.nodes_per_wavelength
            if self.oscillation_aware
            else self.nodes_per_wavelength,
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


def radial_mesh(spec: QuadratureSpec, r_lo: float, r_hi: float, freq: float = 0.0):
    """Graded, oscillation-aware radial nodes and weights on [r_lo, r_hi].

    ``freq`` is the maximum |d(phase)/d rho| of the integrand; each geometric
    panel is split uniformly until the Gauss rule on every subpanel sees at
    least ``nodes_per_wavelength`` nodes per wavelength 2 pi / freq.
    """
    edges = geometric_breakpoints(r_lo, r_hi, spec.panels_per_decade)
    nodes, weights = [], []
    budget = 0
    for a, b in zip(edges[:-1], edges[1:]):
        nsub = 1
        if spec.oscillation_aware:
            nsub = panel_count(freq, b - a, spec.nodes_per_wavelength, spec.gauss_order, 1)
        budget += nsub * spec.gauss_order
        if budget > MAX_RADIAL_NODES:
            raise ToleranceNotMet(
                f"radial mesh would need more than {MAX_RADIAL_NODES} nodes "
                f"(freq={freq:.3g}, interval=[{r_lo:.3g}, {r_hi:.3g}])"
            )
        x, w = panel_gauss(a, b, nsub, spec.gauss_order)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def angular_mesh(spec: QuadratureSpec, n_mu: int | None = None, n_phi: int | None = None):
    """Sphere product rule: (mu GL nodes/weights, phi nodes/weights).

    GL nodes in mu are strictly interior, so the polarisation-frame axis
    mu = +-1 is never sampled; phi nodes are midpoint-offset.
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
