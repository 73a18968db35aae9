"""Smooth compactly supported test-field pairs and their on-shell transforms.

Test functions are finite sums of separable terms a(t) b(|x - x_c|) d with a
fixed smooth bump shape, assigned to the electric or magnetic smearing channel.
Fourier conventions (validated downstream by the locality and Huyghens
invariants coming out zero):

* 1D, unitary:      g~(w) = (2 pi)^(-1/2) int e^(-i w t) g(t) dt
* 3D, unitary:      b~(k) = (2 pi)^(-3/2) int e^(-i k.x) b(x) d3x
* on-shell 4D:      f~(|k|, k) = (2 pi)^(-2) int f(t,x) e^(i(|k| t - k.x)) dt d3x
                              = conj(a~(|k|)) b~(k) d        (separable terms)

and the photon image of a pair (f_e, f_b) is

    f(k) = -i (2 pi)^2 ( |k|^(1/2) P_tr f~_e(|k|,k) + |k|^(-1/2) k x f~_b(|k|,k) ),

kept verbatim including the constant prefactor; |f(k)| = O(|k|^(1/2)) near 0.
Each term gives one part (see `photon`): a radial factor on the polarisation
(channel, direction) with the carrier e^(i |k| (t_c - khat.x)) of its centre.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SoftconeError, require_finite
from .geometry import DoubleCone
from .photon import Part, PhotonWaveFunction
from .quadrature import (
    freq_bucket,
    kernel_matvec,
    sinc_matvec,
    transform_rule,
)

TWO_PI = 2.0 * math.pi
PHOTON_PREFACTOR = -1j * TWO_PI**2
ENVELOPE_CUT = 1e-12      # relative envelope level defining truncation radii
SCAN_RADIUS = 400.0       # upper end of the truncation scan
# node sets whose values a bump transform keeps: the coarse and the fine
# radial mesh of a two-level pairing, which the next pairing often reuses
MEMO_NODE_SETS = 2


@dataclass(frozen=True)
class BumpProfile:
    """Standard smooth bump  amplitude * exp(-1/(1-s^2)),  s = (t-center)/halfwidth.

    Identically zero outside [center - halfwidth, center + halfwidth] and
    infinitely differentiable. Also used as a radial profile (center 0,
    halfwidth = support radius).
    """

    center: float
    halfwidth: float
    amplitude: float = 1.0

    def __post_init__(self):
        require_finite(self, "center", "halfwidth", "amplitude")
        if not (self.halfwidth > 0):
            raise ValueError("bump halfwidth must be positive")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        s = (t - self.center) / self.halfwidth
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        out[inside] = np.exp(-1.0 / (1.0 - si * si))
        return self.amplitude * out

    @property
    def support(self):
        return (self.center - self.halfwidth, self.center + self.halfwidth)


def _bucket_of(rho: np.ndarray) -> float:
    return freq_bucket(float(np.max(np.abs(rho), initial=0.0)))


class _MemoizedTransform:
    """A bump transform whose `at` memoizes its values per node set in front
    of ``__call__``, which computes them."""

    def at(self, rho) -> np.ndarray:
        """``self(rho)``, computed once for each of the last MEMO_NODE_SETS
        distinct node sets and shared read-only."""
        rho = np.asarray(rho, dtype=float)
        key = (rho.shape, rho.tobytes())
        out = self._memo.pop(key, None)
        if out is None:
            out = self(rho)
            out.flags.writeable = False
        self._memo[key] = out
        if len(self._memo) > MEMO_NODE_SETS:
            del self._memo[next(iter(self._memo))]
        return out


class TimeBumpTransform(_MemoizedTransform):
    """Vectorized evaluator of the centered real transform A0 of a time bump.

    For a(t) = bump(center t_c):  a~(w) = e^(-i w t_c) A0(w) with
    A0(w) = (2 pi)^(-1/2) int a0(s) cos(w s) ds real and even (a0 centered).
    Node counts depend only on a power-of-two bucket of max |w|, so repeated
    evaluations are deterministic.
    """

    def __init__(self, bump: BumpProfile):
        self.bump = bump
        self._rules = {}
        self._memo = {}

    def _rule(self, bucket: float):
        rule = self._rules.get(bucket)
        if rule is None:
            h = self.bump.halfwidth
            rule = transform_rule(-h, h, bucket, 4)
            centered = BumpProfile(0.0, h, self.bump.amplitude)
            rule = rule._replace(weights=rule.weights * centered(rule.nodes) / math.sqrt(TWO_PI))
            self._rules[bucket] = rule
        return rule

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        rule = self._rule(_bucket_of(rho))
        return kernel_matvec("cos", rho, rule, rule.weights)


class RadialBumpTransform(_MemoizedTransform):
    """Vectorized 3D transform of a radial bump about the origin:

        B0(rho) = (2 pi)^(-3/2) (4 pi / rho) int_0^R r b(r) sin(rho r) dr,

    evaluated in the stable sinc form (regular at rho = 0)."""

    def __init__(self, bump: BumpProfile):
        if bump.center != 0.0:
            raise ValueError("radial profiles must be centered at 0")
        self.bump = bump
        self._rules = {}
        self._memo = {}

    def _rule(self, bucket: float):
        rule = self._rules.get(bucket)
        if rule is None:
            rule = transform_rule(0.0, self.bump.halfwidth, bucket, 4)
            r = rule.nodes
            coeff = rule.weights * r * r * self.bump(r) * (4.0 * math.pi / TWO_PI**1.5)
            rule = rule._replace(weights=coeff)
            self._rules[bucket] = rule
        return rule

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        rule = self._rule(_bucket_of(rho))
        return sinc_matvec(rho, rule, rule.weights)


@dataclass(frozen=True)
class SeparableTerm:
    """One separable contribution a(t) b(|x - position|) direction."""

    time: BumpProfile
    space: BumpProfile
    direction: tuple
    channel: str
    position: tuple = (0.0, 0.0, 0.0)
    amplitude: float = 1.0

    def __post_init__(self):
        if self.channel not in ("electric", "magnetic"):
            raise ValueError("channel must be 'electric' or 'magnetic'")
        if self.space.center != 0.0:
            raise ValueError("spatial profile must be radial (center 0)")
        for name, value in (("amplitude", self.amplitude), ("time.amplitude", self.time.amplitude),
                            ("space.amplitude", self.space.amplitude)):
            if not (value != 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be nonzero and finite, got {value!r}")
        d = np.asarray(self.direction, dtype=float).reshape(3)
        n = float(np.linalg.norm(d))
        if n == 0.0:
            raise ValueError("direction must be nonzero")
        object.__setattr__(self, "direction", tuple(d / n))
        object.__setattr__(
            self, "position", tuple(np.asarray(self.position, dtype=float).reshape(3))
        )


@dataclass(frozen=True)
class TestFieldPair:
    """Smooth compactly supported pair (f_e, f_b) with declared support."""

    __test__ = False  # "test field" in the smearing sense; not a test case

    terms: tuple
    support: DoubleCone

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("terms: a test field needs at least one term")
        c = self.support.center
        for term in self.terms:
            reach = (
                abs(term.time.center - c.t)
                + term.time.halfwidth
                + float(np.linalg.norm(np.asarray(term.position) - c.x))
                + term.space.halfwidth
            )
            if reach > self.support.radius + 1e-12:
                raise SoftconeError(
                    f"term support (reach {reach:.6g}) exceeds the declared "
                    f"double cone of radius {self.support.radius:.6g}"
                )


def _truncation_radius(envelopes) -> float:
    """Smallest radius beyond which the summed radial envelope stays below
    ENVELOPE_CUT of its peak (scanned on a fixed log grid, capped)."""
    rho = np.geomspace(1e-4, SCAN_RADIUS, 600)
    env = np.zeros_like(rho)
    for e in envelopes:
        env += np.abs(e(rho))
    peak = float(np.max(env))
    if peak == 0.0:
        return 1.0
    above = np.nonzero(env > ENVELOPE_CUT * peak)[0]
    if above.size == 0:
        return 1.0
    idx = min(int(above[-1]) + 1, rho.size - 1)
    return float(rho[idx])


@lru_cache(maxsize=64)
def _term_transforms(terms: tuple):
    """The time and the radial transform of each term, and the truncation
    radius of their summed envelopes: built once per process for each tuple
    of terms, however many pairs or wavefunctions share it."""
    times = tuple(TimeBumpTransform(t.time) for t in terms)
    spaces = tuple(RadialBumpTransform(t.space) for t in terms)
    envelopes = [
        (lambda rho, tt=tt, st=st, a=t.amplitude: a * np.sqrt(rho) * tt(rho) * st(rho))
        for tt, st, t in zip(times, spaces, terms)
    ]
    return times, spaces, _truncation_radius(envelopes)


def photon_wavefunction(pair: TestFieldPair) -> PhotonWaveFunction:
    """Photon image of a test-field pair: transverse, O(|k|^(1/2)) near 0.
    Each term is one part with the carrier (t_c, -x) of its time centre t_c
    and position x.  The transforms are shared by every pair with the same
    terms (`_term_transforms`), and each evaluates a radial node set once."""
    terms = pair.terms
    times, spaces, truncation = _term_transforms(terms)
    carriers = [(t.time.center, tuple(-x for x in t.position)) for t in terms]

    def evaluator(rho, mu, phi):
        rho = np.asarray(rho, dtype=float)
        sqrt_rho = np.sqrt(rho)
        return tuple(
            Part((term.channel, term.direction),
                 PHOTON_PREFACTOR * term.amplitude * sqrt_rho * tt.at(rho) * st.at(rho),
                 ((carrier, 1.0),))
            for term, tt, st, carrier in zip(terms, times, spaces, carriers)
        )

    return PhotonWaveFunction(
        evaluator=evaluator,
        small_k_exponent=0.5,
        truncation_radius=truncation,
        carriers=tuple(dict.fromkeys(carriers)),
        envelope_bandwidth=max(t.time.halfwidth + t.space.halfwidth for t in terms),
        label="local-field",
    )
