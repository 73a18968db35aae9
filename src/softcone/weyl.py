"""Symbolic Weyl/CCR layer: exponentiated fields as (phase, label) words.

A Weyl element stands for e^(i phase) W(label).  Products never leave this
set thanks to the composition law

    W(f1) W(f2) = e^(-i sigma(f1, f2)) W(f1 + f2),      W(f)* = W(-f),

with sigma the symplectic form (imaginary part of the pairing).  Coherent
automorphisms act by pure phases  W(f) -> e^(-2i Im<-i v, f>) W(f)  and are
stored by their profile v, which need not be square integrable itself — only
its pairings with labels must converge.

Products never evaluate a composed label.  Each element also carries its
label as a coefficient vector over leaves, the wavefunctions the word was
built from, and sigma(a, b) = Im sum_ij conj(a_i) b_j G_ij with G the Gram
matrix <leaf_i, leaf_j>, so each leaf is evaluated once per mesh however
long the words grow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonIntegrablePairing
from .pairing import gram, pair
from .photon import PhotonWaveFunction
from .profiles import DressingParams, profile_wavefunction
from .quadrature import QuadratureSpec
from .testfields import TestFieldPair, photon_wavefunction

TWO_PI = 2.0 * math.pi

# |f|^2 rho^2 integrable at 0 requires a small-k exponent above -3/2.
SQUARE_INTEGRABLE_EXPONENT = -1.5


def canonical_phase(phase: float) -> float:
    """Reduce an angle to [0, 2 pi)."""
    out = float(np.mod(phase, TWO_PI))
    return 0.0 if out == TWO_PI else out


def phase_distance(a: float, b: float) -> float:
    """Shortest circular distance between two angles."""
    d = abs(canonical_phase(a) - canonical_phase(b))
    return min(d, TWO_PI - d)


def _require_square_integrable(label: PhotonWaveFunction):
    if label.small_k_exponent <= SQUARE_INTEGRABLE_EXPONENT:
        raise NonIntegrablePairing(
            "label is not square integrable near k = 0 "
            f"(small-k exponent {label.small_k_exponent})"
        )


@dataclass(frozen=True, eq=False)
class LeafGram:
    """Pairings <f, g> of leaves on one quadrature's meshes, keyed by
    (id(f), id(g)); ``leaves`` keeps the keyed objects alive."""

    quadrature: QuadratureSpec
    leaves: tuple
    values: dict

    def sigma(self, a: "WeylElement", b: "WeylElement") -> float:
        """Im sum_ij conj(a_i) b_j G_ij over the two words' coefficients."""
        total = 0.0 + 0.0j
        for f, x in a.coeffs:
            for g, y in b.coeffs:
                total += x.conjugate() * y * self.values[id(f), id(g)]
        return total.imag


def _leaf_gram(rows, cols, quadrature: QuadratureSpec) -> LeafGram:
    """The Gram block rows x cols, from one pass of `pairing.gram` over the
    distinct leaves; an entry whose transpose was requested is not paired
    again but conjugated."""
    leaves = tuple({id(f): f for f in (*rows, *cols)}.values())
    pos = {id(f): k for k, f in enumerate(leaves)}
    wanted = {}
    for f in rows:
        for g in cols:
            if (pos[id(g)], pos[id(f)]) not in wanted:
                wanted[pos[id(f)], pos[id(g)]] = None
    values = {}
    for (i, j), res in gram(leaves, list(wanted), quadrature).items():
        values[id(leaves[i]), id(leaves[j])] = res.value
        if i != j:
            values[id(leaves[j]), id(leaves[i])] = res.value.conjugate()
    return LeafGram(quadrature, leaves, values)


@dataclass(frozen=True)
class WeylElement:
    """One word e^(i phase) W(label); phase canonicalized to [0, 2 pi).

    ``coeffs`` is the label as ((leaf, c), ...) with label = sum c * leaf; a
    bare element W(f) is ((f, 1),).  Elements made by `gram_elements` share
    ``gram``, and their products read sigma from it."""

    label: PhotonWaveFunction
    phase: float = 0.0
    coeffs: tuple = ()
    gram: LeafGram | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "phase", canonical_phase(self.phase))
        if not self.coeffs:
            object.__setattr__(self, "coeffs", ((self.label, 1.0),))


@dataclass(frozen=True)
class CoherentAutomorphism:
    """Phase action W(f) -> e^(-2i Im<-i profile, f>) W(f)."""

    profile: PhotonWaveFunction


def gram_elements(labels, quadrature: QuadratureSpec | None = None) -> list:
    """Bare elements W(f) for each label, sharing one Gram matrix over all of
    them, computed now with one evaluation of each label per mesh."""
    q = quadrature if quadrature is not None else QuadratureSpec()
    labels = list(labels)
    shared = _leaf_gram(labels, labels, q)
    return [WeylElement(f, gram=shared) for f in labels]


def _add_coeffs(a: tuple, b: tuple) -> tuple:
    out = {}
    for f, c in (*a, *b):
        out[id(f)] = (f, out[id(f)][1] + c) if id(f) in out else (f, c)
    return tuple(out.values())


def multiply(
    w1: WeylElement, w2: WeylElement, quadrature: QuadratureSpec | None = None
) -> WeylElement:
    """Weyl composition; requires both labels square integrable.

    sigma comes from the Gram matrix the two words share, when it was made for
    this quadrature, and otherwise from the block of the two words' leaves."""
    _require_square_integrable(w1.label)
    _require_square_integrable(w2.label)
    q = quadrature if quadrature is not None else QuadratureSpec()
    shared = w1.gram if w1.gram is w2.gram else None
    g = shared
    if g is None or g.quadrature != q:
        g = _leaf_gram([f for f, _ in w1.coeffs], [f for f, _ in w2.coeffs], q)
    coeffs = _add_coeffs(w1.coeffs, w2.coeffs)
    return WeylElement(w1.label + w2.label, w1.phase + w2.phase - g.sigma(w1, w2), coeffs, shared)


def adjoint(w: WeylElement) -> WeylElement:
    return WeylElement(-w.label, -w.phase, tuple((f, -c) for f, c in w.coeffs), w.gram)


def apply_automorphism(
    auto: CoherentAutomorphism, w: WeylElement, quadrature: QuadratureSpec | None = None
) -> WeylElement:
    """Same label, phase shifted by -2 Im<-i v, f> = -2 Re<v, f>, with
    <v, f> = sum_i c_i <v, f_i> over the label's leaves from one Gram pass."""
    g = _leaf_gram([auto.profile], [f for f, _ in w.coeffs], quadrature)
    shift = -2.0 * sum(c * g.values[id(auto.profile), id(f)] for f, c in w.coeffs).real
    return WeylElement(w.label, w.phase + shift, w.coeffs, w.gram)


def compose_difference(
    first: CoherentAutomorphism, second: CoherentAutomorphism
) -> CoherentAutomorphism:
    """The relative automorphism, acting by the difference of the phases."""
    return CoherentAutomorphism(first.profile - second.profile)


def state_phase(
    params: DressingParams,
    fields: TestFieldPair,
    quadrature: QuadratureSpec | None = None,
) -> complex:
    """The modulus-one factor e^(-2i Im<-i v_limit, f>) of the dressed
    plane-wave expectation of W(f); the remaining matrix element is not
    modelled here."""
    v = profile_wavefunction(params, "v_limit")
    f = photon_wavefunction(fields)
    angle = -2.0 * pair(v, f, quadrature).value.real
    return complex(math.cos(angle), math.sin(angle))
