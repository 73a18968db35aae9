"""Infrared dressing profiles of a uniformly moving charge.

All profiles are transverse vector functions of momentum built from the
angular factor P_tr w / (1 - khat.w) (transverse projection of the velocity,
Doppler denominator) with different radial weights, on the polarisation
("electric", w) (see `photon`):

* sharp shell    chi_[sigma, kappa](|k|) |k|^(-3/2)              (``v_sigma``)
* full shell     sigma = 0                                       (``v_limit``)
* smooth window  g~(|k|) e^(-i u |k|) |k|^(-3/2)                 (``v_hat``)
* time-windowed emission over [0, T], in the closed form

      v_hat_T = v_hat + term2 + term3,

  where ``term2`` carries the factor (e^(i b T) - 1)/b with b = k.w (no
  Doppler denominator) and ``term3`` is the rapidly oscillating remainder
  with phase e^(-i(|k| - k.w) T).  Both remainders decay in T after pairing
  with a smooth wavefunction; the total tends to ``v_hat``.

Each term is a part with an exact carrier: e^(-i u |k|) for ``v_hat``,
e^(-i (u + T) |k| + i T k.w) for ``term3``.  ``term2`` splits into that
carrier and e^(-i (u + T) |k|), with angular factors -+1/(khat.w), except on
directions where |khat.w| T R < 1 (R the truncation radius): there, on the
second carrier, (e^(ix) - 1)/(ix) with x = |k| khat.w T and |x| < 1 is the
series sum_(n < GUARD_TERMS) (ix)^n/(n + 1)!, one part per term with radial
factor |k|^n and angular factor (khat.w)^n.

The shell norm of v_limit(w) - v_limit(w') grows like alpha A ln(kappa/sigma)
with the soft factor A(w, w') = int dOmega |P_tr(w/(1 - khat.w) - w'/(1 -
khat.w'))|^2 = 8 pi (artanh(t)/t - 1), t the relative speed of w and w'.  Its
closed form (``pairwise_angular_factor``, with ``angular_factor`` the w' = 0
case) is the oracle of the infrared slopes and takes no quadrature rule.

The common prefactor alpha^(1/2) is included.  g~ is the unit-normalized 3D
transform of a radial bump, rescaled so g~(0) equals ``g_scale`` (1 for the
physical profile; other values deliberately break the infrared matching).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PointSingularity, require_finite
from .photon import NO_CARRIER, Part, PhotonWaveFunction, transverse_project
from .quadrature import integrate_1d, unit_direction
from .testfields import (
    BumpProfile,
    RadialBumpTransform,
    _truncation_radius,
)

# terms of term2's guard-band series: |x| < 1 there and 1/19! < 2^-53
GUARD_TERMS = 18
PROFILE_KINDS = ("v_sigma", "v_limit", "v_hat", "v_hat_T", "term2", "term3")


@dataclass(frozen=True)
class DressingParams:
    """Coupling, momentum cutoffs, velocity and smooth-window data.

    ``w`` is the charge velocity (|w| <= v_max < 1), ``u`` the emission time
    shift, ``g`` the radial window bump and ``g_scale`` the value enforced
    for g~ at zero momentum.
    """

    alpha: float = 0.01
    kappa: float = 1.0
    sigma: float = 0.0
    w: tuple = (0.0, 0.0, 0.3)
    v_max: float = 0.9
    u: float = 2.0
    g: BumpProfile = BumpProfile(0.0, 1.0, 1.0)
    g_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(
            self, "w", tuple(float(c) for c in np.asarray(self.w, dtype=float).reshape(3))
        )
        require_finite(self, "alpha", "kappa", "sigma", "v_max", "u", "g_scale")
        if not all(map(math.isfinite, self.w)):
            raise ValueError(f"w must be finite, got {self.w}")
        if not (self.alpha > 0):
            raise ValueError("alpha must be positive")
        if not (self.kappa > 0):
            raise ValueError("kappa must be positive")
        if not (0.0 <= self.sigma <= self.kappa):
            raise ValueError("sigma must lie in [0, kappa]")
        if not (0.0 < self.v_max < 1.0):
            raise ValueError("v_max must lie in (0, 1)")
        if self.speed > self.v_max:
            raise ValueError("|w| must not exceed v_max")
        if not (self.u > 0):
            raise ValueError("time shift u must be positive")
        if self.g.center != 0.0:
            raise ValueError("the window profile must be radial (center 0)")
        # a zero window makes every windowed profile, and its pairing scale, zero
        if self.g.amplitude == 0.0:
            raise ValueError("g.amplitude must be nonzero")
        if self.g_scale == 0.0:
            raise ValueError("g_scale must be finite and nonzero")

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.w))

    @property
    def w_vec(self) -> np.ndarray:
        return np.asarray(self.w, dtype=float)


@lru_cache(maxsize=32)
def _window_transform(g: BumpProfile, g_scale: float):
    """Radial transform of the window bump, the factor that rescales it to
    g~(0) = g_scale, and the truncation radius of the rescaled transform:
    built once per process for each window."""
    tr = RadialBumpTransform(g)
    scale = g_scale / float(tr(np.array([0.0]))[0])
    return tr, scale, _truncation_radius([lambda rho: scale * tr(rho)])


def _angular_parts(params: DressingParams, mu, phi):
    """khat.w and the Doppler denominator on a spherical grid."""
    kx, ky, kz = unit_direction(mu, phi)
    w1, w2, w3 = params.w
    kw = kx * w1 + ky * w2 + kz * w3
    return kw, 1.0 - kw


def _require_positive(rho):
    if np.any(rho <= 0.0):
        raise PointSingularity("dressing profiles are singular at zero momentum")


def _sharp_wavefunction(params: DressingParams, sigma_lo: float) -> PhotonWaveFunction:
    sqrt_alpha = math.sqrt(params.alpha)
    lo, hi = sigma_lo, params.kappa
    key = ("electric", params.w)

    def evaluator(rho, mu, phi):
        rho = np.asarray(rho, dtype=float)
        _require_positive(rho)
        _, denom = _angular_parts(params, mu, phi)
        radial = sqrt_alpha * np.where(
            (rho >= lo) & (rho <= hi), rho ** -1.5, 0.0
        )
        return (Part(key, radial, ((NO_CARRIER, 1.0 / denom),)),)

    return PhotonWaveFunction(
        evaluator=evaluator,
        small_k_exponent=(-1.5 if lo == 0.0 else 0.0),
        truncation_radius=hi,
        label=("v_limit" if lo == 0.0 else "v_sigma"),
    )


def _dressed_wavefunction(params: DressingParams, kind: str, T) -> PhotonWaveFunction:
    """``v_hat``, ``v_hat_T`` or one of its remainders ``term2``, ``term3``."""
    sqrt_alpha = math.sqrt(params.alpha)
    u = params.u
    tr, scale, truncation = _window_transform(params.g, params.g_scale)
    key = ("electric", params.w)
    hat = (-u, (0.0, 0.0, 0.0))
    if kind != "v_hat":
        late = (-(u + T), (0.0, 0.0, 0.0))
        swept = (-(u + T), tuple(T * c for c in params.w))

    def evaluator(rho, mu, phi):
        rho = np.asarray(rho, dtype=float)
        _require_positive(rho)
        kw, denom = _angular_parts(params, mu, phi)
        inv_denom = 1.0 / denom
        g = sqrt_alpha * scale * tr.at(rho)
        envelope = g * rho ** -1.5
        parts = []
        if kind != "term2":
            waves = ((hat, inv_denom),) if kind != "term3" else ()
            if kind != "v_hat":
                waves += ((swept, -inv_denom),)
            parts.append(Part(key, envelope, waves))
        if kind in ("term2", "v_hat_T"):
            # (e^(i rho k.w T) - 1) / (rho k.w) on its two carriers, except
            # where the residual phase x = rho k.w T stays below one radian up
            # to the truncation radius: there i T (e^(ix) - 1)/(ix) as its
            # series, on one carrier
            near = np.abs(kw) * T * truncation < 1.0
            inv_kw = np.divide(1.0, kw, out=np.zeros(np.shape(kw)), where=~near)
            parts.append(Part(key, envelope, ((late, inv_kw), (swept, -inv_kw))))
            if near.any():
                radial, angular = -1j * T * g * rho ** -0.5, near * 1.0
                for n in range(GUARD_TERMS):
                    parts.append(Part(key, radial, ((late, angular),)))
                    radial, angular = radial * (1j * T * rho / (n + 2)), angular * kw
        return tuple(parts)

    if kind == "v_hat":
        carriers = (hat,)
        exponent = -1.5
    else:
        carriers = {"term2": (late, swept), "term3": (swept,), "v_hat_T": (hat, late, swept)}[kind]
        exponent = {"term2": -0.5, "term3": -1.5, "v_hat_T": -0.5}[kind]
    return PhotonWaveFunction(
        evaluator=evaluator,
        small_k_exponent=exponent,
        truncation_radius=truncation,
        carriers=carriers,
        envelope_bandwidth=params.g.halfwidth,
        label=kind,
    )


@lru_cache(maxsize=128)
def _cached_wavefunction(params: DressingParams, kind: str, T) -> PhotonWaveFunction:
    if kind in ("v_sigma", "v_limit"):
        return _sharp_wavefunction(params, params.sigma if kind == "v_sigma" else 0.0)
    return _dressed_wavefunction(params, kind, None if T is None else float(T))


def profile_wavefunction(params: DressingParams, kind: str, T: float | None = None):
    """Wavefunction view of a dressing profile.  ``v_hat_T`` and its two
    remainders ``term2`` and ``term3`` (v_hat_T = v_hat + term2 + term3) take
    a window length T >= 0 (T = 0 is the empty window, identically zero)."""
    if kind not in PROFILE_KINDS:
        raise ValueError(f"kind must be one of {PROFILE_KINDS}")
    if kind in ("v_hat_T", "term2", "term3"):
        if T is None or not (T >= 0):
            raise ValueError(f"{kind} requires an emission window length T >= 0")
    elif T is not None:
        raise ValueError(f"kind {kind!r} does not take a window length")
    return _cached_wavefunction(params, kind, T)


def evaluate(params: DressingParams, kind: str, k, T: float | None = None) -> np.ndarray:
    """Pointwise profile value at Cartesian momentum k (complex 3-vector)."""
    return profile_wavefunction(params, kind, T)(k)


def v_hat_T_direct(params: DressingParams, T: float, k) -> np.ndarray:
    """Nested time-ordered double integral for the windowed profile, evaluated
    literally (two levels of adaptive 1D quadrature).  Slow; used to validate
    the closed form."""
    if T < 0:
        raise ValueError("window length T must be >= 0")
    k = np.asarray(k, dtype=float).reshape(3)
    rho = float(np.linalg.norm(k))
    if rho == 0.0:
        raise PointSingularity("zero momentum")
    if T == 0:
        return np.zeros(3, dtype=complex)
    khat = k / rho
    b = float(np.dot(k, params.w_vec))

    def inner(t: float) -> complex:
        return integrate_1d(
            lambda tau: np.exp(-1j * rho * tau), t, T, rel_tol=1e-12, freq=rho
        )

    outer = integrate_1d(
        lambda t: np.array([np.exp(1j * b * ti) * inner(float(ti)) for ti in t]),
        0.0,
        T,
        rel_tol=1e-11,
        freq=abs(b),
    )
    tr, scale, _ = _window_transform(params.g, params.g_scale)
    gval = scale * float(tr(np.array([rho]))[0])
    coeff = (
        -math.sqrt(params.alpha)
        * math.sqrt(rho)
        * gval
        * np.exp(-1j * rho * params.u)
        * outer
    )
    return coeff * transverse_project(khat, params.w_vec)


def angular_factor(speed: float) -> float:
    """A((0, 0, v), 0) = 4 pi [(1/v) ln((1 + v)/(1 - v)) - 2], the logarithmic
    growth rate of the shell norm per unit coupling (any sign of v)."""
    return pairwise_angular_factor((0.0, 0.0, speed), (0.0, 0.0, 0.0))


def pairwise_angular_factor(w_first, w_second) -> float:
    """Full solid-angle integral of |P_tr(w/(1-khat.w) - w'/(1-khat.w'))|^2.

    Closed form (Weinberg 1965): 8 pi (artanh(t)/t - 1), where
    t = sqrt(|d|^2 - |w' x d|^2)/(1 - w.w') with d = w - w' is the relative
    speed of the two velocities.  Below t = 1/2 the difference is summed as
    its series sum_(n >= 1) t^(2n)/(2n + 1), cut after 30 terms (t^60/61 <
    1e-19 of t^2/3), so an equal pair gives exactly 0.  The integral diverges
    at |w| >= 1."""
    wa = np.asarray(w_first, dtype=float).reshape(3)
    wb = np.asarray(w_second, dtype=float).reshape(3)
    if not (np.linalg.norm(wa) < 1.0 and np.linalg.norm(wb) < 1.0):
        raise ValueError(f"velocities must have |w| < 1, got {wa.tolist()} and {wb.tolist()}")
    d = wa - wb
    t = math.sqrt(d @ d - np.sum(np.cross(wb, d) ** 2)) / (1.0 - wa @ wb)
    if t < 0.5:
        excess = sum(t ** (2 * n) / (2 * n + 1) for n in range(30, 0, -1))
    else:
        excess = math.atanh(t) / t - 1.0
    return float(8.0 * math.pi * excess)
