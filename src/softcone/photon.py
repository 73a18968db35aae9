"""Single-photon kinematics and the wavefunction value type.

Provides the fixed polarisation frame, transverse projection and the
`PhotonWaveFunction` value type shared by test-field images and dressing
profiles; `pairing` computes their scalar product and symplectic form.

A wavefunction is held as a sum of parts (`Part`),

    radial(rho) * sum_k angular_k(khat) e^(i rho (c0_k + c_k.khat)) * vector(polarisation),

with exact carriers (c0, c) and a polarisation vector that depends on the
direction alone.  Every part separates: outside its carriers no factor
couples rho to the direction.  A polarisation is a hashable key:

* ``("electric", u)``  the transverse projection  u - (khat.u) khat;
* ``("magnetic", u)``  the cross product  khat x u;

with u a tuple of three floats.  Dressing profiles are electric in the
velocity w, local test fields electric or magnetic in their direction.

Conventions fixed here and relied on everywhere else:

* scalar product antilinear in the FIRST slot,  <f, g> = int d3k conj(f).g;
* symplectic form sigma(f, g) = Im <f, g>;
* polarisation frame  eps_plus(khat) = (khat_2, -khat_1, 0)/sqrt(khat_1^2+khat_2^2),
  eps_minus = khat x eps_plus,  singular on the k3-axis (AxisSingularity);
* transverse projection is implemented frame-free, P u = u - (khat.u) khat,
  which agrees with the frame sum off the axis and is regular on it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import AxisSingularity, NonIntegrablePairing
from .quadrature import unit_direction

AXIS_TOLERANCE = 1e-12


def polarisation(khat):
    """Polarisation pair (eps_plus, eps_minus) for a unit direction off the axis.

    Raises AxisSingularity within AXIS_TOLERANCE of +-e3; quadrature rules are
    built so they never place nodes there.
    """
    k = np.asarray(khat, dtype=float)
    perp2 = k[..., 0] ** 2 + k[..., 1] ** 2
    if np.any(perp2 <= AXIS_TOLERANCE**2):
        raise AxisSingularity("polarisation frame undefined on the k3-axis")
    norm = np.sqrt(perp2)
    eps_plus = np.stack(
        [k[..., 1] / norm, -k[..., 0] / norm, np.zeros_like(norm)], axis=-1
    )
    eps_minus = np.cross(k, eps_plus)
    return eps_plus, eps_minus


def transverse_project(khat, u):
    """Frame-free transverse projection  u - (khat.u) khat  (axis-safe)."""
    k = np.asarray(khat, dtype=float)
    u = np.asarray(u)
    return u - np.sum(k * u, axis=-1, keepdims=True) * k


def polarisation_vector(key, khat):
    """Components (v1, v2, v3) of the polarisation ``key`` at the unit
    directions ``khat = (kx, ky, kz)``."""
    channel, u = key
    kx, ky, kz = khat
    if channel == "electric":
        ku = kx * u[0] + ky * u[1] + kz * u[2]
        return u[0] - ku * kx, u[1] - ku * ky, u[2] - ku * kz
    return ky * u[2] - kz * u[1], kz * u[0] - kx * u[2], kx * u[1] - ky * u[0]


NO_CARRIER = (0.0, (0.0, 0.0, 0.0))


class Part(NamedTuple):
    """One term on the polarisation ``key``:

        radial(rho) * sum_k angular_k(khat) e^(i rho (c0_k + c_k.khat))

    over its ``waves`` (carrier_k, angular_k), each carrier (c0, c) exact.
    ``radial`` broadcasts against rho alone and each ``angular`` against the
    angles alone, so a pairing evaluates each once per mesh.  Waves that
    cancel each other belong in one part, so they are summed first wherever
    the part is multiplied out."""

    key: tuple
    radial: object
    waves: tuple


def carrier_rate(carrier, khat):
    """c0 + c.khat, the carrier's rate along rho, at the unit directions
    ``khat = (kx, ky, kz)``."""
    c0, c = carrier
    kx, ky, kz = khat
    return c0 + (c[0] * kx + c[1] * ky + c[2] * kz)


def carrier_difference(first, second):
    """The carrier of conj(e^(first)) e^(second): second - first."""
    return second[0] - first[0], tuple(b - a for a, b in zip(first[1], second[1]))


def _carrier_phase(carrier, rho, khat):
    """e^(i rho (c0 + c.khat)); a carrier with c = 0 gives the radial factor
    alone."""
    if not any(carrier[1]):
        return np.exp(1j * rho * carrier[0])
    return np.exp(1j * rho * carrier_rate(carrier, khat))


def multiply_out(parts, rho, mu, phi) -> dict:
    """{polarisation: scalar}: each part's factors and carriers multiplied
    out, summed per polarisation in the order the parts come.  The waves of
    a part are summed on its first carrier as

        sum_k a_k + sum_(k > 0) a_k (e^(i rho (rate_k - rate_0)) - 1),

    so waves that cancel where their carriers meet keep full precision."""
    khat = unit_direction(mu, phi)
    out = {}
    for part in parts:
        (carrier, angular), *others = part.waves
        for _, a in others:
            angular = angular + a
        for other, a in others:
            x = rho * carrier_rate(carrier_difference(carrier, other), khat)
            half = np.sin(0.5 * x)
            angular = angular + a * (-2.0 * half * half + 1j * np.sin(x))
        s = (part.radial * angular) * _carrier_phase(carrier, rho, khat)
        out[part.key] = out[part.key] + s if part.key in out else s
    return out


@dataclass(frozen=True)
class PhotonWaveFunction:
    """Transverse momentum-space amplitude with quadrature metadata.

    ``evaluator(rho, mu, phi)`` maps broadcast-compatible spherical-coordinate
    arrays to the amplitude's parts, a tuple of `Part`; the amplitude is the
    sum of their products with their carriers and polarisation vectors.
    `parts` returns those products summed per polarisation,
    ``{polarisation: scalar}``, and `values` the summed complex array of shape
    ``broadcast(...) + (3,)``.  Passing tensor-shaped inputs (rho[:, None],
    mu[None, :], phi[None, :]) leaves each factor on its own axis.

    Metadata drives mesh construction:

    * ``small_k_exponent``: p with |f(k)| = O(|k|^p) near 0 (integrability);
    * ``truncation_radius``: beyond it the amplitude is negligible or cut;
    * ``carriers``: the distinct carriers (c0, c) of the parts' waves.  A pairing
      integrates each carrier difference exactly along rho, so they set only
      the angular rule, and only for a difference with a stationary direction;
    * ``envelope_bandwidth``: the rate along rho of the radial factors
      (support halfwidths), which is all an oscillation-aware radial rule
      resolves.
    """

    evaluator: object
    small_k_exponent: float
    truncation_radius: float
    carriers: tuple = (NO_CARRIER,)
    envelope_bandwidth: float = 0.0
    label: str = ""

    def parts(self, rho, mu, phi) -> dict:
        return multiply_out(self.evaluator(rho, mu, phi), rho, mu, phi)

    def values(self, rho, mu, phi) -> np.ndarray:
        khat = unit_direction(mu, phi)
        out = None
        for key, s in self.parts(rho, mu, phi).items():
            term = s[..., None] * np.stack(polarisation_vector(key, khat), axis=-1)
            out = term if out is None else out + term
        if out is None:
            shape = np.broadcast(np.asarray(rho), np.asarray(mu), np.asarray(phi)).shape
            return np.zeros(shape + (3,), dtype=complex)
        return out.astype(complex, copy=False)

    def __call__(self, k) -> np.ndarray:
        """Pointwise Cartesian evaluation, k of shape (..., 3)."""
        k = np.asarray(k, dtype=float)
        rho = np.linalg.norm(k, axis=-1)
        safe = np.where(rho > 0, rho, 1.0)
        mu = k[..., 2] / safe
        phi = np.arctan2(k[..., 1], k[..., 0])
        return self.values(rho, mu, phi)

    # -- linear structure (labels form a complex vector space) --------------

    def __add__(self, other: "PhotonWaveFunction") -> "PhotonWaveFunction":
        """The sum: the parts of both summands."""
        f, g = self.evaluator, other.evaluator
        return PhotonWaveFunction(
            evaluator=lambda rho, mu, phi: f(rho, mu, phi) + g(rho, mu, phi),
            small_k_exponent=min(self.small_k_exponent, other.small_k_exponent),
            truncation_radius=max(self.truncation_radius, other.truncation_radius),
            carriers=tuple(dict.fromkeys(self.carriers + other.carriers)),
            envelope_bandwidth=max(self.envelope_bandwidth, other.envelope_bandwidth),
            label=f"({self.label}+{other.label})",
        )

    def __sub__(self, other: "PhotonWaveFunction") -> "PhotonWaveFunction":
        return self + (-other)

    def __neg__(self) -> "PhotonWaveFunction":
        return self.scaled(-1.0)

    def scaled(self, c: complex) -> "PhotonWaveFunction":
        """Scalar multiple c*f (c may be complex, e.g. -1j for Weyl labels)."""
        f = self.evaluator
        return replace(
            self,
            evaluator=lambda rho, mu, phi: tuple(
                part._replace(radial=c * part.radial) for part in f(rho, mu, phi)
            ),
            label=f"({c!r}*{self.label})",
        )


def zero_wavefunction() -> PhotonWaveFunction:
    """The zero label (identity Weyl element): no parts."""
    return PhotonWaveFunction(
        evaluator=lambda rho, mu, phi: (),
        small_k_exponent=2.0,
        truncation_radius=1.0,
        label="0",
    )


def check_integrable(v: PhotonWaveFunction, f: PhotonWaveFunction) -> None:
    """Raise NonIntegrablePairing unless the small-k exponents allow |conj(v).f|
    to be absolutely integrable against d3k (sum of exponents > -3)."""
    if v.small_k_exponent + f.small_k_exponent <= -3.0:
        raise NonIntegrablePairing(
            f"combined small-k exponent {v.small_k_exponent} + {f.small_k_exponent} "
            "<= -3: pairing not absolutely integrable near k = 0"
        )
