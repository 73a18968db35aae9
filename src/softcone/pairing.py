"""Deterministic quadrature engine for momentum-space pairings.

Everything here computes variations of

    <v, f> = int_0^inf d rho rho^2 int dOmega  conj(v(k)) . f(k)

with the first slot conjugated.  Each operand is a sum of parts (see
`photon`): a radial factor R(rho) times waves angular(khat) e^(i rho (c0 +
c.khat)), on a polarisation vector that depends on the direction alone.  The mesh is a
tensor product of a graded geometric radial mesh and a Gauss-Legendre x
uniform angular rule.  Every pairing is evaluated twice, on a base mesh and
a refined one; the difference is the reported error estimate, and the
refined value is returned.

Under an oscillation-aware spec every part separates, so each pair of waves
(p, q) contributes, on one path for every pair,

    sum_a ang_pq(a) F_pq(omega_pq(a)),   F_pq(omega) = int conj(R_p) R_q rho^2 e^(i omega rho) d rho,

over the angular nodes a, with omega_pq(a) = (c0_q - c0_p) + (c_q - c_p).khat_a.
F is integrated exactly in the carrier by Filon weights
(`quadrature.radial_filon_weights`), once per distinct omega, so the radial
rule only resolves the envelopes (``envelope_bandwidth``) and costs the same
whatever the carriers.  They set the angular rule only where a carrier
difference has a stationary direction, on which omega vanishes (|c0| <= |c|,
padded by ``RESONANCE_WINDOW``): there the integrand oscillates at rho |c| in
angle, so the cos-theta count resolves max(|c3|, |c_perp|) and the phi count
|c_perp| over the radial range.  Any other pair raises nothing: its F is
smooth in omega away from 0, and the two-level check guards every entry.

The L1 mass (``scale``) is the Gauss sum of |integrand| on the mesh; it
separates into a radial and an angular sum when the entry has one pair of
waves.  A spec that is not oscillation-aware (the Weyl spec) keeps one
Gauss mesh for every entry, with the carriers multiplied out.

Accumulation runs over angular nodes in a fixed order with fixed block
sizes, so results are bit-for-bit reproducible.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SupportNotInForwardCone, ToleranceNotMet
from .geometry import ConeRegion, Point4, double_cone_in_cone
from .photon import (
    Part,
    PhotonWaveFunction,
    carrier_difference,
    carrier_rate,
    check_integrable,
    multiply_out,
    polarisation_vector,
)
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
RESONANCE_WINDOW = 1.3   # |c0| / |c| below this: the pair has a stationary direction
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
    # oscillation-aware, which integrates the carriers with Filon weights
    radial_rule: tuple | None = None

    @property
    def node_count(self) -> int:
        return self.rho.size * self.ang_mu.size


def build_mesh(
    spec: QuadratureSpec,
    v: PhotonWaveFunction,
    f: PhotonWaveFunction,
    r_bounds=None,
) -> _Mesh:
    """Tensor mesh sized from the spec and the two wavefunctions' metadata."""
    if r_bounds is None:
        r_lo = spec.r_min
        r_hi = min(spec.r_max, v.truncation_radius, f.truncation_radius)
    else:
        r_lo, r_hi = float(r_bounds[0]), float(r_bounds[1])
    if not (0.0 <= r_lo < r_hi):
        raise ValueError("need 0 <= r_lo < r_hi")

    n_mu, n_phi, npw = spec.n_cos_theta, spec.n_phi, spec.nodes_per_wavelength
    freq = 0.0
    if spec.oscillation_aware:
        freq = v.envelope_bandwidth + f.envelope_bandwidth
        for cv in v.carriers:
            for cf in f.carriers:
                c0, c = carrier_difference(cv, cf)
                rate = math.hypot(*c)
                if rate > 1e-12 and abs(c0) <= RESONANCE_WINDOW * rate:
                    across = math.hypot(c[0], c[1])
                    n_mu = max(n_mu, math.ceil(npw * max(abs(c[2]), across) * r_hi / TWO_PI) + MU_PAD)
                    if across:
                        n_phi = max(n_phi, math.ceil(npw * across * r_hi / TWO_PI) + PHI_PAD)
    rho, rho_w = radial_mesh(spec, r_lo, r_hi, freq)
    mu, wmu, phi, wphi = angular_mesh(spec, n_mu, n_phi)

    ang_mu = np.repeat(mu, phi.size)
    ang_phi = np.tile(phi, mu.size)
    ang_w = (wmu[:, None] * wphi[None, :]).ravel()
    rule = (spec, r_lo, r_hi, freq) if spec.oscillation_aware else None
    return _Mesh(rho, rho_w * rho * rho, ang_mu, ang_phi, ang_w, rule)


def _meshes(q: QuadratureSpec, leaves, entries, r_bounds=None):
    """Coarse and fine mesh for the sum of the row leaves against the sum of
    the column leaves, which covers the carriers and extents of every entry."""
    rows = functools.reduce(operator.add, [leaves[i] for i in sorted({i for i, _ in entries})])
    cols = functools.reduce(operator.add, [leaves[j] for j in sorted({j for _, j in entries})])
    return build_mesh(q, rows, cols, r_bounds), build_mesh(q.refined(), rows, cols, r_bounds)


def _accumulate(mesh: _Mesh, leaves, entries):
    """Value and L1 mass of <leaves[i], leaves[j]> for each (i, j) in
    ``entries`` on one mesh.

    Each leaf is evaluated once per mesh, on the radial nodes against all
    angular nodes, so its radial and angular factors each come once however
    many entries it enters.  On a mesh of an oscillation-aware spec the
    carriers are integrated with Filon weights (`_carrier_sums`); otherwise
    they are multiplied out on the shared Gauss mesh (`_gauss_sums`)."""
    used = sorted({k for entry in entries for k in entry})
    rho, mu, phi = mesh.rho, mesh.ang_mu, mesh.ang_phi
    parts = {k: [_flat(part, rho.size, mu.size)
                 for part in leaves[k].evaluator(rho[:, None], mu[None, :], phi[None, :])]
             for k in used}
    if mesh.radial_rule is None:
        return _gauss_sums(mesh, parts, entries)
    return _carrier_sums(mesh, unit_direction(mu, phi), parts, entries)


def _flat(part: Part, nr: int, na: int) -> Part:
    """``part`` with its radial factor as an array of the nr radial nodes and
    each angular factor that is not a constant as an array of the na angular
    nodes."""
    return Part(part.key, np.broadcast_to(part.radial, (nr, 1))[:, 0],
                tuple((carrier, np.broadcast_to(angular, (1, na))[0] if np.ndim(angular) else angular)
                      for carrier, angular in part.waves))


def _gauss_sums(mesh: _Mesh, parts, entries):
    """`_accumulate` on a Gauss mesh.  The integrand of an entry is

        g = sum_pq conj(s_ip) (s_jq d_pq),    d_pq = vec_p . vec_q,

    over the polarisations p of leaf i and q of leaf j, with each leaf's
    parts multiplied out per polarisation on a chunk of angular nodes: each
    product d_pq is formed once per chunk, each row scalar conjugated once,
    and entries run column by column so each s_jq d_pq is shared by the
    entries of column j and dropped after them.  The chunk's angular width
    is divided by the number of leaves it holds, at least two, so a chunk
    takes no more memory than the two operands of one pairing."""
    used = sorted(parts)
    rows = sorted({i for i, _ in entries})
    nr = mesh.rho.size
    rho_col = mesh.rho[:, None]
    jac = mesh.rho_weight[:, None]
    nb = max(1, CHUNK_ELEMENTS // (nr * max(2, len(used))))
    by_column = sorted(range(len(entries)), key=lambda e: entries[e][1])
    values = [0.0 + 0.0j for _ in entries]
    l1 = [0.0 for _ in entries]
    for start in range(0, mesh.ang_mu.size, nb):
        sl = slice(start, start + nb)
        mu = mesh.ang_mu[sl][None, :]
        phi = mesh.ang_phi[sl][None, :]
        w = jac * mesh.ang_weight[sl][None, :]
        khat = unit_direction(mu, phi)
        scalars = {
            k: multiply_out([Part(part.key, part.radial[:, None],
                                  tuple((carrier, angular[sl] if np.ndim(angular) else angular)
                                        for carrier, angular in part.waves))
                             for part in parts[k]], rho_col, mu, phi)
            for k in used
        }
        conj = {i: [(p, np.conjugate(s)) for p, s in scalars[i].items()] for i in rows}
        vecs = {p: polarisation_vector(p, khat) for k in used for p in scalars[k]}
        dots, column = {}, None
        for e in by_column:
            i, j = entries[e]
            if j != column:
                column, weighted = j, {}
            g = None
            for p, a in conj[i]:
                for q, b in scalars[j].items():
                    if (p, q) not in dots:
                        vp, vq = vecs[p], vecs[q]
                        dots[p, q] = vp[0] * vq[0] + vp[1] * vq[1] + vp[2] * vq[2]
                    if (p, q) not in weighted:
                        weighted[p, q] = b * dots[p, q]
                    term = a * weighted[p, q]
                    g = term if g is None else g + term
            if g is None:
                g = np.zeros(w.shape, dtype=complex)
            values[e] += complex(np.sum(g * w))
            l1[e] += float(np.sum(np.abs(g) * w))
    return values, l1


class _PartPair(NamedTuple):
    """conj(wave of part p) times wave of part q in one entry: carrier
    difference, radial product, and angular product with the polarisation
    dot and the angular weights."""

    delta: tuple
    radial: np.ndarray
    angular: np.ndarray


def _part_pairs(mesh: _Mesh, khat, parts_i, parts_j, dots) -> list:
    """The `_PartPair` of every wave of leaf i with every wave of leaf j that
    is not zero on the mesh; ``dots`` caches the polarisation products."""
    pairs = []
    for p in parts_i:
        for q in parts_j:
            if (p.key, q.key) not in dots:
                vp, vq = polarisation_vector(p.key, khat), polarisation_vector(q.key, khat)
                dots[p.key, q.key] = vp[0] * vq[0] + vp[1] * vq[1] + vp[2] * vq[2]
            weight = dots[p.key, q.key] * mesh.ang_weight
            radial = None
            for carrier_p, ang_p in p.waves:
                for carrier_q, ang_q in q.waves:
                    ang = np.conjugate(ang_p) * ang_q * weight
                    if ang.any():
                        if radial is None:
                            radial = np.conjugate(p.radial) * q.radial
                        pairs.append(_PartPair(carrier_difference(carrier_p, carrier_q),
                                               radial, ang))
    return pairs


def _filon_sums(mesh: _Mesh, omega: np.ndarray, radials: np.ndarray) -> np.ndarray:
    """sum_r W_r(omega_k) radials[r, m] for each omega_k, with the Filon
    weights of the mesh's radial rule, built a block of omegas at a time."""
    step = max(1, CHUNK_ELEMENTS // mesh.rho.size)
    out = np.empty((omega.size, radials.shape[1]), dtype=complex)
    for start in range(0, omega.size, step):
        weights = radial_filon_weights(*mesh.radial_rule, omega[start:start + step])
        out[start:start + step] = weights @ radials
    return out


def _carrier_sums(mesh: _Mesh, khat, parts, entries):
    """`_accumulate` on a mesh of an oscillation-aware spec.

    Every pair of waves adds sum_a ang(a) F(omega(a)), with F evaluated once
    per distinct omega; the pairs of all entries that share a carrier
    difference share its Filon weights.  The L1 mass of an entry with one
    pair is a radial sum times an angular sum; any other entry forms its
    integrand in blocks of angular nodes, each carrier difference with its
    phase relative to the entry's first."""
    rho2 = mesh.rho * mesh.rho
    dots = {}
    pairs = [_part_pairs(mesh, khat, parts[i], parts[j], dots) for i, j in entries]
    values = [0.0 + 0.0j for _ in entries]
    l1 = [0.0 for _ in entries]

    by_delta = {}
    for e, entry_pairs in enumerate(pairs):
        for pair in entry_pairs:
            by_delta.setdefault(pair.delta, []).append((e, pair))
    for delta, group in by_delta.items():
        omega, inverse = np.unique(carrier_rate(delta, khat), return_inverse=True)
        radials = np.stack([pair.radial * rho2 for _, pair in group], axis=1)
        sums = _filon_sums(mesh, omega, radials)
        for m, (e, pair) in enumerate(group):
            values[e] += complex(pair.angular @ sums[inverse, m])

    step = max(1, CHUNK_ELEMENTS // (2 * mesh.rho.size))
    for e, entry_pairs in enumerate(pairs):
        if len(entry_pairs) == 1:
            (pair,) = entry_pairs
            l1[e] = float(np.abs(pair.radial) @ mesh.rho_weight) * float(np.sum(np.abs(pair.angular)))
        elif entry_pairs:
            l1[e] = _l1_mass(mesh, khat, entry_pairs, step)
    return values, l1


def _l1_mass(mesh: _Mesh, khat, pairs, step: int) -> float:
    """Gauss sum of |sum of the pairs' integrands| over the mesh, in blocks
    of ``step`` angular nodes.  Each integrand carries its phase relative to
    the first pair's carrier difference: the part that does not depend on
    the direction goes into its radial factor, so pairs that share a
    difference c form one matrix product and one phase per node."""
    rho = mesh.rho
    ref0, ref = pairs[0].delta
    classes = {}
    for pair in pairs:
        classes.setdefault(pair.delta[1], []).append(pair)

    def relative(pair):
        offset = pair.delta[0] - ref0
        return pair.radial * np.exp(1j * rho * offset) if offset else pair.radial

    stacks = [(carrier_difference((0.0, ref), (0.0, c)),
               np.stack([relative(pair) for pair in group], axis=1),
               np.stack([pair.angular for pair in group]))
              for c, group in classes.items()]
    total = 0.0
    nodes = np.arange(mesh.ang_mu.size)
    for start in range(0, nodes.size, step):
        cols = nodes[start:start + step]
        kh = tuple(k[cols] for k in khat)
        g = np.zeros((rho.size, cols.size), dtype=complex)
        for shift, radials, angulars in stacks:
            term = radials @ angulars[:, cols]
            if any(shift[1]):
                term *= _phases(rho, carrier_rate(shift, kh))
            g += term
        total += float(mesh.rho_weight @ np.abs(g).sum(axis=1))
    return total


def _phases(rho: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """e^(i rho rate_a) for each entry of ``rate``, one column each, with one
    exponential per distinct rate."""
    distinct, inverse = np.unique(rate, return_inverse=True)
    return np.exp(1j * rho[:, None] * distinct[None, :])[:, inverse]


def gram(leaves, entries, quadrature: QuadratureSpec | None = None, r_bounds=None) -> dict:
    """<leaves[i], leaves[j]> for each wanted (i, j), keyed by (i, j).

    One coarse and one fine mesh (`_meshes`) serve every entry, and each leaf
    is evaluated once per mesh however many entries it enters.  Each entry
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
    identically up to float addition.  Under an oscillation-aware spec the
    carriers t_c + u, t_c + u + T and T khat.w are integrated exactly, so the
    radial rule resolves the envelopes alone and is the same at every T.
    ``scale`` is the sum of the three parts' L1 masses."""
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
