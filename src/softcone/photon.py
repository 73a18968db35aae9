"""Single-photon kinematics and the wavefunction value type.

Provides the fixed polarisation frame, transverse projection and the
`PhotonWaveFunction` value type shared by test-field images and dressing
profiles; `pairing` computes their scalar product and symplectic form.

A wavefunction is held as a sum of parts, scalar(rho, mu, phi) times a
polarisation vector that depends on the direction alone.  A polarisation is a
hashable key:

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


@dataclass(frozen=True)
class PhotonWaveFunction:
    """Transverse momentum-space amplitude with quadrature metadata.

    ``evaluator(rho, mu, phi)`` maps broadcast-compatible spherical-coordinate
    arrays to the amplitude's parts, a mapping ``{polarisation: scalar}`` (see
    the module docstring for the keys); the amplitude is the sum of
    scalar * vector(polarisation).  `parts` returns that mapping and `values`
    the summed complex array of shape ``broadcast(...) + (3,)``.  Passing
    tensor-shaped inputs (rho[:,None,None], mu[None,:,None], phi[None,None,:])
    keeps radial factors cheap through broadcasting; the vectors need the
    angular grid alone.

    Metadata drives mesh construction:

    * ``small_k_exponent``: p with |f(k)| = O(|k|^p) near 0 (integrability);
    * ``truncation_radius``: beyond it the amplitude is negligible or cut;
    * ``phase_terms``: (c0, c1) pairs so the radial phases are
      exp(i rho (c0 + c1 mu)) times a slower envelope; used for frequency and
      resonance budgeting.  c0 must be exact: it is the direction-free phase,
      which a pairing whose phase pairs share one c0 difference integrates
      exactly (Filon weights in `pairing`).  c1 is a bound on the rest of the
      phase's rate along rho (e.g. |w| T for k.w T);
    * ``freq_pad``: additive envelope bandwidth (support halfwidths);
    * ``envelope_bandwidth``: envelope bandwidth left out of ``freq_pad`` (a
      dressed profile's window); the Gauss path leaves it to |c0|, the Filon
      path, which takes c0 out, adds it to its budget;
    * ``x_perp_extent``: spatial offset from the 3-axis, drives phi resolution.
    """

    evaluator: object
    small_k_exponent: float
    truncation_radius: float
    phase_terms: tuple = ((0.0, 0.0),)
    freq_pad: float = 0.0
    envelope_bandwidth: float = 0.0
    x_perp_extent: float = 0.0
    label: str = ""

    def parts(self, rho, mu, phi) -> dict:
        return self.evaluator(rho, mu, phi)

    def values(self, rho, mu, phi) -> np.ndarray:
        khat = unit_direction(mu, phi)
        out = None
        for key, s in self.evaluator(rho, mu, phi).items():
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

    def _combined_meta(self, other: "PhotonWaveFunction") -> dict:
        terms = tuple(dict.fromkeys(self.phase_terms + other.phase_terms))
        return dict(
            small_k_exponent=min(self.small_k_exponent, other.small_k_exponent),
            truncation_radius=max(self.truncation_radius, other.truncation_radius),
            phase_terms=terms,
            freq_pad=max(self.freq_pad, other.freq_pad),
            envelope_bandwidth=max(self.envelope_bandwidth, other.envelope_bandwidth),
            x_perp_extent=max(self.x_perp_extent, other.x_perp_extent),
        )

    def __add__(self, other: "PhotonWaveFunction") -> "PhotonWaveFunction":
        """The sum; parts with the same polarisation add their scalars."""
        f, g = self.evaluator, other.evaluator

        def evaluator(rho, mu, phi):
            out = dict(f(rho, mu, phi))
            for key, s in g(rho, mu, phi).items():
                out[key] = out[key] + s if key in out else s
            return out

        return PhotonWaveFunction(
            evaluator=evaluator,
            label=f"({self.label}+{other.label})",
            **self._combined_meta(other),
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
            evaluator=lambda rho, mu, phi: {key: c * s for key, s in f(rho, mu, phi).items()},
            label=f"({c!r}*{self.label})",
        )


def zero_wavefunction() -> PhotonWaveFunction:
    """The zero label (identity Weyl element): no parts."""
    return PhotonWaveFunction(
        evaluator=lambda rho, mu, phi: {},
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
