"""Deterministic quadrature engine for momentum-space pairings.

Everything here computes variations of

    <v, f> = int_0^inf d rho rho^2 int dOmega  conj(v(k)) . f(k)

with the first slot conjugated.  Each operand is a sum of parts, a scalar
times a polarisation vector that depends on the direction alone (see
`photon`), so the vectors are dotted once per angular node and only the
scalars vary along rho.  The mesh is a tensor product of a graded geometric
radial mesh (panel density raised for oscillatory integrands using the
phase metadata carried by the wavefunctions) and a Gauss-Legendre x uniform
angular rule.  Every pairing is evaluated twice, on a base mesh and a
refined one; the difference is the reported error estimate, and the refined
value is returned.

Phase metadata drives three special rules:

* a phase pair (c0, c1), meaning a factor e^(i rho (c0 + c1 mu)), whose
  stationary cosine mu* = -c0/c1 falls inside (a padded) [-1, 1] makes the
  angular integral oscillatory too: the cos-theta node count is raised to the
  nodes-per-wavelength target for |c1|;
* a transverse source offset (``x_perp_extent``) oscillates in both angles
  and raises both angular counts;
* under an oscillation-aware spec, an entry whose phase pairs all share one
  c0 != 0 integrates e^(i c0 rho) exactly with Filon weights
  (`quadrature.radial_filon_weights`), so its radial rule only resolves the
  residual max |c1| + pads.  A Gram whose entries all take this path sizes
  its radial rule by their largest residual; any other Gram keeps the Gauss
  weights on the rule sized by |c0| + |c1| + pads.  The L1 mass (``scale``)
  is the Gauss sum of |integrand| in both cases.

Accumulation is chunked over angular nodes in a fixed order with a fixed
block size, so results are bit-for-bit reproducible.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import SupportNotInForwardCone, ToleranceNotMet
from .geometry import ConeRegion, Point4, double_cone_in_cone
from .photon import PhotonWaveFunction, check_integrable, polarisation_vector
from .profiles import DressingParams, profile_wavefunction
from .quadrature import (
    QuadratureSpec,
    angular_mesh,
    radial_filon_weights,
    radial_mesh,
    unit_direction,
)
from .testfields import TestFieldPair, photon_wavefunction

TWO_PI = 2.0 * math.pi
RESONANCE_WINDOW = 1.3   # |mu*| below this engages the angular bandwidth rule
MU_PAD = 16
PHI_PAD = 8
CHUNK_ELEMENTS = 600_000  # radial-nodes x angular-nodes budget per chunk


@dataclass(frozen=True)
class PairingResult:
    """Refined pairing value with a two-level error estimate.

    ``scale`` is the L1 mass of the integrand |conj(v).f| on the refined
    mesh — the natural yardstick for "zero up to quadrature" statements.
    """

    value: complex
    error_estimate: float
    scale: float
    node_count: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")


@dataclass(frozen=True)
class _Mesh:
    rho: np.ndarray
    rho_weight: np.ndarray
    ang_mu: np.ndarray
    ang_phi: np.ndarray
    ang_weight: np.ndarray
    # (spec, r_lo, r_hi, freq) of the radial rule when the spec is
    # oscillation-aware, which enables the Filon path
    radial_rule: tuple | None = None

    @property
    def node_count(self) -> int:
        return self.rho.size * self.ang_mu.size

    def filon_rho_weight(self, omega: float) -> np.ndarray:
        """rho^2 W(omega) e^(-i omega rho): the radial weights of an integrand
        that carries the factor e^(i omega rho)."""
        weights = radial_filon_weights(*self.radial_rule, omega)
        return weights * np.exp(-1j * omega * self.rho) * self.rho * self.rho


def _carrier(v: PhotonWaveFunction, f: PhotonWaveFunction):
    """The c0 difference that every phase pair of <v, f> shares, if it is
    nonzero; otherwise None."""
    c0 = {cf0 - cv0 for cv0, _ in v.phase_terms for cf0, _ in f.phase_terms}
    return c0.pop() if len(c0) == 1 and 0.0 not in c0 else None


def _residual_freq(v: PhotonWaveFunction, f: PhotonWaveFunction) -> float:
    """Radial frequency of <v, f> left after its carrier e^(i c0 rho)."""
    c1 = max(abs(cf1 - cv1) for _, cv1 in v.phase_terms for _, cf1 in f.phase_terms)
    return (c1 + v.freq_pad + f.freq_pad
            + v.envelope_bandwidth + f.envelope_bandwidth)


def build_mesh(
    spec: QuadratureSpec,
    v: PhotonWaveFunction,
    f: PhotonWaveFunction,
    r_bounds=None,
    freq: float | None = None,
) -> _Mesh:
    """Tensor mesh sized from the spec and the two wavefunctions' metadata;
    ``freq``, when given, replaces the radial frequency budget."""
    if r_bounds is None:
        r_lo = spec.r_min
        r_hi = min(spec.r_max, v.truncation_radius, f.truncation_radius)
    else:
        r_lo, r_hi = float(r_bounds[0]), float(r_bounds[1])
    if not (0.0 <= r_lo < r_hi):
        raise ValueError("need 0 <= r_lo < r_hi")

    radial_freq = 0.0
    resonant_c1 = 0.0
    x_perp = 0.0
    if spec.oscillation_aware:
        pairs = [(cf0 - cv0, cf1 - cv1) for cv0, cv1 in v.phase_terms for cf0, cf1 in f.phase_terms]
        radial_freq = max(abs(c0) + abs(c1) for c0, c1 in pairs)
        radial_freq += v.freq_pad + f.freq_pad
        for c0, c1 in pairs:
            if abs(c1) > 1e-12 and abs(c0 / c1) <= RESONANCE_WINDOW:
                resonant_c1 = max(resonant_c1, abs(c1))
        x_perp = v.x_perp_extent + f.x_perp_extent

    if freq is None:
        freq = radial_freq
    rho, rho_w = radial_mesh(spec, r_lo, r_hi, freq)

    n_mu = spec.n_cos_theta
    n_phi = spec.n_phi
    npw = spec.nodes_per_wavelength
    if resonant_c1 > 0.0:
        n_mu = max(n_mu, math.ceil(npw * resonant_c1 * r_hi / TWO_PI) + MU_PAD)
    if x_perp > 0.0:
        n_mu = max(n_mu, math.ceil(npw * x_perp * r_hi / TWO_PI) + MU_PAD)
        n_phi = max(n_phi, math.ceil(npw * x_perp * r_hi / TWO_PI) + PHI_PAD)
    mu, wmu, phi, wphi = angular_mesh(spec, n_mu, n_phi)

    ang_mu = np.repeat(mu, phi.size)
    ang_phi = np.tile(phi, mu.size)
    ang_w = (wmu[:, None] * wphi[None, :]).ravel()
    rule = (spec, r_lo, r_hi, freq) if spec.oscillation_aware else None
    return _Mesh(rho, rho_w * rho * rho, ang_mu, ang_phi, ang_w, rule)


def _meshes(q: QuadratureSpec, leaves, entries, r_bounds=None):
    """Coarse and fine mesh for the sum of the row leaves against the sum of
    the column leaves, which covers the phases and extents of every entry.
    When every entry takes the Filon path the radial rule resolves only the
    largest residual frequency of the entries."""
    rows = functools.reduce(operator.add, [leaves[i] for i in sorted({i for i, _ in entries})])
    cols = functools.reduce(operator.add, [leaves[j] for j in sorted({j for _, j in entries})])
    freq = None
    if q.oscillation_aware and all(_carrier(leaves[i], leaves[j]) is not None for i, j in entries):
        freq = max(_residual_freq(leaves[i], leaves[j]) for i, j in entries)
    return (build_mesh(q, rows, cols, r_bounds, freq),
            build_mesh(q.refined(), rows, cols, r_bounds, freq))


def _accumulate(mesh: _Mesh, leaves, entries):
    """Value and L1 mass of <leaves[i], leaves[j]> for each (i, j) in
    ``entries`` on one mesh.

    Each leaf's parts are evaluated once per chunk however many entries it
    enters.  The integrand of an entry is

        g = sum_pq conj(s_ip) (s_jq d_pq),    d_pq = vec_p . vec_q,

    over the polarisations p of leaf i and q of leaf j: each product d_pq is
    formed once per chunk on its angular nodes, each row scalar conjugated
    once, and entries run column by column so each s_jq d_pq is shared by
    the entries of column j and dropped after them.  The chunk's angular
    width is divided by the number of leaves it holds, at least two, so a
    chunk takes no more memory than the two operands of one pairing.  The
    rho array object is reused across chunks so the wavefunctions' radial
    memoization stays hot.

    On a mesh of an oscillation-aware spec an entry with a carrier c0 (see
    `_carrier`) sums its value against the Filon radial weights of c0, built
    once per mesh and distinct c0; every other value, and every L1 mass, is
    the Gauss sum."""
    used = sorted({k for entry in entries for k in entry})
    rows = sorted({i for i, _ in entries})
    nr = mesh.rho.size
    rho_col = mesh.rho[:, None]
    jac = mesh.rho_weight[:, None]
    nb = max(1, CHUNK_ELEMENTS // (nr * max(2, len(used))))
    by_column = sorted(range(len(entries)), key=lambda e: entries[e][1])
    carriers = [None] * len(entries)
    if mesh.radial_rule is not None:
        carriers = [_carrier(leaves[i], leaves[j]) for i, j in entries]
    filon = {c0: mesh.filon_rho_weight(c0) for c0 in set(carriers) - {None}}
    values = [0.0 + 0.0j for _ in entries]
    l1 = [0.0 for _ in entries]
    for start in range(0, mesh.ang_mu.size, nb):
        sl = slice(start, start + nb)
        mu = mesh.ang_mu[sl][None, :]
        phi = mesh.ang_phi[sl][None, :]
        w = jac * mesh.ang_weight[sl][None, :]
        khat = unit_direction(mu, phi)
        parts = {k: leaves[k].parts(rho_col, mu, phi) for k in used}
        conj = {i: [(p, np.conjugate(s)) for p, s in parts[i].items()] for i in rows}
        vecs = {p: polarisation_vector(p, khat) for k in used for p in parts[k]}
        dots, column = {}, None
        for e in by_column:
            i, j = entries[e]
            if j != column:
                column, weighted = j, {}
            g = None
            for p, a in conj[i]:
                for q, b in parts[j].items():
                    if (p, q) not in dots:
                        vp, vq = vecs[p], vecs[q]
                        dots[p, q] = vp[0] * vq[0] + vp[1] * vq[1] + vp[2] * vq[2]
                    if (p, q) not in weighted:
                        weighted[p, q] = b * dots[p, q]
                    term = a * weighted[p, q]
                    g = term if g is None else g + term
            if g is None:
                g = np.zeros(w.shape, dtype=complex)
            if carriers[e] is None:
                values[e] += complex(np.sum(g * w))
            else:
                values[e] += complex(filon[carriers[e]] @ (g @ mesh.ang_weight[sl]))
            l1[e] += float(np.sum(np.abs(g) * w))
    return values, l1


def gram(leaves, entries, quadrature: QuadratureSpec | None = None, r_bounds=None) -> dict:
    """<leaves[i], leaves[j]> for each wanted (i, j), keyed by (i, j).

    One coarse and one fine mesh (`_meshes`) serve every entry, and each leaf
    is evaluated once per chunk however many entries it enters.  Each entry
    passes the two-level check: the levels may disagree by at most the spec
    tolerances, against the entry's own L1 mass, reported as ``scale``.
    Without ``r_bounds`` every entry must also be integrable at k = 0."""
    q = quadrature if quadrature is not None else QuadratureSpec()
    entries = list(entries)
    if r_bounds is None:
        for i, j in entries:
            check_integrable(leaves[i], leaves[j])
    coarse, fine = _meshes(q, leaves, entries, r_bounds)
    vals_c, _ = _accumulate(coarse, leaves, entries)
    vals_f, l1_f = _accumulate(fine, leaves, entries)
    out = {}
    for entry, val_c, val_f, l1 in zip(entries, vals_c, vals_f, l1_f):
        err = abs(val_f - val_c)
        tol = max(q.abs_tol, q.rel_tol * max(l1, abs(val_f)))
        if err > tol:
            raise ToleranceNotMet(
                f"Gram entry {entry}: two-level refinement disagrees by {err:.3e} "
                f"(tolerance {tol:.3e}, scale {l1:.3e})"
            )
        out[entry] = PairingResult(
            value=val_f,
            error_estimate=err,
            scale=l1,
            node_count=coarse.node_count + fine.node_count,
        )
    return out


def pair(
    v: PhotonWaveFunction,
    f: PhotonWaveFunction,
    quadrature: QuadratureSpec | None = None,
    r_bounds=None,
) -> PairingResult:
    """<v, f> with two-level refinement, as a one-entry `gram`; raises when
    the levels disagree beyond the spec tolerances or the integrand is
    non-integrable at 0."""
    leaves, entry = ((v,), (0, 0)) if v is f else ((v, f), (0, 1))
    return gram(leaves, [entry], quadrature, r_bounds)[entry]


def _forward_cone_guard(fields: TestFieldPair):
    cone = ConeRegion("forward", Point4(0.0, np.zeros(3)))
    if not double_cone_in_cone(fields.support, cone):
        raise SupportNotInForwardCone(
            "test-field support is not contained in the open forward lightcone"
        )


def huyghens_report(
    params: DressingParams,
    fields: TestFieldPair,
    kind: str = "v_hat",
    quadrature: QuadratureSpec | None = None,
    T: float | None = None,
) -> dict:
    """Defect together with the pairing scale and error estimate."""
    if kind not in ("v_hat", "v_hat_T"):
        raise ValueError("kind must be 'v_hat' or 'v_hat_T'")
    _forward_cone_guard(fields)
    v = profile_wavefunction(params, kind, T if kind == "v_hat_T" else None)
    res = pair(v, photon_wavefunction(fields), quadrature)
    # Im<-i v, f> = Re<v, f> with the first slot antilinear.
    return {
        "defect": float(res.value.real),
        "scale": res.scale,
        "error_estimate": res.error_estimate,
        "node_count": res.node_count,
    }


def limit_T_study(
    params: DressingParams,
    fields: TestFieldPair,
    T_list,
    quadrature: QuadratureSpec | None = None,
) -> list:
    """Pairings of the windowed profile and its three closed-form parts
    against one local test field, for each window length.

    Each row reports the total, the unwindowed part and the two remainder
    terms, all on a shared per-T mesh, so total = vhat + term2 + term3 holds
    identically up to float addition.  Under an oscillation-aware spec each
    part takes the Filon path (its phase pairs share c0 = t_c + u or
    t_c + u + T), so the radial rule resolves |w| T plus the envelopes, not
    the carriers.  ``scale`` is the sum of the three parts' L1 masses."""
    T_values = [float(T) for T in T_list]
    if not T_values or any(T <= 0 for T in T_values):
        raise ValueError("T_list must be nonempty and positive")
    if sorted(T_values) != T_values:
        raise ValueError("T_list must be ascending")
    q = quadrature if quadrature is not None else QuadratureSpec()
    f = photon_wavefunction(fields)
    entries = [(0, 3), (1, 3), (2, 3)]
    rows = []
    for T in T_values:
        leaves = [profile_wavefunction(params, "v_hat"), profile_wavefunction(params, "term2", T),
                  profile_wavefunction(params, "term3", T), f]
        coarse, fine = _meshes(q, leaves, entries)
        vals_c, _ = _accumulate(coarse, leaves, entries)
        vals_f, l1_f = _accumulate(fine, leaves, entries)
        total_c = sum(vals_c)
        total_f = sum(vals_f)
        rows.append(
            {
                "T": T,
                "total": total_f,
                "vhat": vals_f[0],
                "term2": vals_f[1],
                "term3": vals_f[2],
                "err": abs(total_f - total_c),
                "scale": sum(l1_f),
                "node_count": coarse.node_count + fine.node_count,
            }
        )
    return rows


def lemma1_phase(
    params: DressingParams,
    fields: TestFieldPair,
    quadrature: QuadratureSpec | None = None,
) -> float:
    """The real exponent -2 Im<-i(v_limit - v_hat), f_photon>.

    Finite for every local f because the profile difference is square
    integrable when the window matches the infrared tail."""
    diff = profile_wavefunction(params, "v_limit") - profile_wavefunction(
        params, "v_hat"
    )
    res = pair(diff, photon_wavefunction(fields), quadrature)
    return -2.0 * float(res.value.real)
