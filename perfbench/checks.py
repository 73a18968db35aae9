"""Correctness checks of the benchmark, independent of the program's oracles.

Every check is a function of plain values that returns a `Check`; the
benchmark's tests feed each one a wrong input (a wrong speed, a wrong time,
a perturbed phase, ...) and require it to turn red.  Reference values come
from closed forms or SciPy quadrature written here, never from softcone's
own oracle functions (`angular_factor`, `pairwise_angular_factor`,
`v_hat_T_direct`, the study thresholds).

`output_checks` reads one workload process's report.json and CSV files;
`library_checks` calls softcone's public functions on inputs drawn from the
seed and compares them with the independent references, once per run.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# --------------------------------------------------------------- references

def shell_rate(speed: float) -> float:
    """Closed form of the solid-angle integral of |P_tr w|^2 / (1 - khat.w)^2
    for |w| = speed: 4 pi [(1/v) ln((1+v)/(1-v)) - 2]."""
    v = abs(speed)
    if v == 0.0:
        return 0.0
    return 4.0 * math.pi * (math.log((1.0 + v) / (1.0 - v)) / v - 2.0)


def pairwise_rate(wa, wb) -> float:
    """Solid-angle integral of |P_tr(w/(1-khat.w) - w'/(1-khat.w'))|^2 by
    SciPy's adaptive dblquad."""
    from scipy.integrate import dblquad

    def integrand(phi, mu):
        s = math.sqrt(max(0.0, 1.0 - mu * mu))
        k = (s * math.cos(phi), s * math.sin(phi), mu)
        d = [wa[i] / (1.0 - sum(k[j] * wa[j] for j in range(3)))
             - wb[i] / (1.0 - sum(k[j] * wb[j] for j in range(3))) for i in range(3)]
        kd = sum(k[i] * d[i] for i in range(3))
        return sum((d[i] - kd * k[i]) ** 2 for i in range(3))

    val, _ = dblquad(integrand, -1.0, 1.0, 0.0, TWO_PI, epsabs=1e-14, epsrel=1e-12)
    return val


def window_transform_ratio(rho: float, halfwidth: float) -> float:
    """g~(rho)/g~(0) for the radial bump window, by SciPy quad of the 3D
    radial transform (1/rho) int r b(r) sin(rho r) dr over int r^2 b(r) dr."""
    from scipy.integrate import quad

    def bump(r):
        s = r / halfwidth
        return math.exp(-1.0 / (1.0 - s * s)) if abs(s) < 1.0 else 0.0

    num, _ = quad(lambda r: r * bump(r) * math.sin(rho * r), 0.0, halfwidth,
                  epsabs=0.0, epsrel=1e-13, limit=200)
    den, _ = quad(lambda r: r * r * bump(r), 0.0, halfwidth, epsabs=0.0, epsrel=1e-13, limit=200)
    return num / (rho * den)


def v_hat_T_reference(alpha, u, w, halfwidth, g_scale, T, k):
    """The windowed dressing profile at momentum k from its definition,

        -sqrt(alpha) sqrt(rho) g~(rho) e^{-i rho u}
            int_0^T dt e^{i (k.w) t} int_t^T dtau e^{-i rho tau}  P_tr w,

    with the double time integral done by SciPy's dblquad."""
    from scipy.integrate import dblquad

    rho = math.sqrt(sum(c * c for c in k))
    khat = [c / rho for c in k]
    b = sum(k[i] * w[i] for i in range(3))

    def part(fn):
        val, _ = dblquad(lambda tau, t: fn(b * t - rho * tau), 0.0, T, lambda t: t, T,
                         epsabs=1e-12, epsrel=1e-11)
        return val

    inner = complex(part(math.cos), part(math.sin))
    g = g_scale * window_transform_ratio(rho, halfwidth)
    coeff = -math.sqrt(alpha) * math.sqrt(rho) * g * complex(math.cos(rho * u), -math.sin(rho * u)) * inner
    kw = sum(khat[i] * w[i] for i in range(3))
    return [coeff * (w[i] - kw * khat[i]) for i in range(3)]


def kirchhoff(profile, t: float, r: float) -> float:
    """Radial wave solution with data (0, f): u(t, r) = (1/2r) int_{|r-t|}^{r+t} s f(s) ds,
    and t f(t) at r = 0."""
    from scipy.integrate import quad

    if r == 0.0:
        return t * profile(t)
    lo, hi = abs(r - t), r + t
    val, _ = quad(lambda s: s * profile(s), lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)
    return val / (2.0 * r)


def bump_profile(halfwidth: float, amplitude: float = 1.0):
    """The smooth bump a exp(-1/(1 - (s/h)^2)) as a scalar function."""
    def f(s):
        x = s / halfwidth
        return amplitude * math.exp(-1.0 / (1.0 - x * x)) if abs(x) < 1.0 else 0.0
    return f


def causal_relation(c1, c2, r1: float, r2: float) -> str:
    """'spacelike', 'timelike' or 'neither' for two double cones."""
    dt = abs(c1[0] - c2[0])
    dx = math.dist(c1[1:], c2[1:])
    if dx - dt >= r1 + r2:
        return "spacelike"
    if dt - dx >= r1 + r2:
        return "timelike"
    return "neither"


def phase_gap(a: float, b: float) -> float:
    """Circular distance between two angles."""
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


# ------------------------------------------------------------------- checks

def check_exit(rc: int, report: dict | None) -> Check:
    ok = rc == 0 and report is not None and report.get("all_pass") is True
    return Check("exit-and-verdicts", ok, f"rc {rc}, all_pass {report and report.get('all_pass')}")


def check_shell_norms(speed, rows, alpha, kappa, rtol=1e-9) -> Check:
    """Shell norms on [sigma, kappa] equal alpha A(v) ln(kappa/sigma) exactly
    (zero for v = 0); rows are (sigma, norm) pairs."""
    rate = alpha * shell_rate(speed)
    if rate == 0.0:
        worst = max(abs(n) for _, n in rows)
        ok = worst == 0.0
    else:
        worst = max(_rel(n, rate * math.log(kappa / s)) for s, n in rows)
        ok = worst <= rtol
    return Check(f"shell-norm-closed-form[v={speed:g}]", ok, f"worst {worst:.3e} (tol {rtol:g})")


def check_shell_slope(speed, slope, alpha, rtol=1e-9) -> Check:
    rate = alpha * shell_rate(speed)
    if rate == 0.0:
        return Check(f"shell-slope[v={speed:g}]", slope == 0.0, f"slope {slope!r} must be exactly 0")
    err = _rel(slope, rate)
    return Check(f"shell-slope[v={speed:g}]", err <= rtol, f"rel {err:.3e} (tol {rtol:g})")


def check_pairwise_slope(wa, wb, slope, alpha, rate=None, rtol=1e-8) -> Check:
    """Equal velocities: slope exactly 0.  Otherwise alpha times the SciPy
    solid-angle integral (pass `rate` to reuse one)."""
    tag = f"pair-slope[{tuple(wa)}|{tuple(wb)}]"
    if tuple(wa) == tuple(wb):
        return Check(tag, slope == 0.0, f"slope {slope!r} must be exactly 0")
    if rate is None:
        rate = pairwise_rate(wa, wb)
    err = _rel(slope, alpha * rate)
    return Check(tag, err <= rtol, f"rel {err:.3e} (tol {rtol:g})")


def check_difference_norm(rows, alpha, speed, cauchy_rtol=1e-2, growth_rtol=1e-2) -> Check:
    """Matched window: norms bounded as sigma -> 0.  Doubled window: the
    infrared tails no longer cancel and the norm grows like
    alpha A(v) ln(1/sigma).  Rows are (variant, sigma, norm)."""
    matched = [n for v, _, n in rows if v == "matched"]
    violated = sorted((s, n) for v, s, n in rows if v == "violated")
    spread = (max(matched) - min(matched)) / max(matched)
    (s_lo, n_lo), (s_hi, n_hi) = violated[0], violated[-1]
    growth = (n_lo - n_hi) / math.log(s_hi / s_lo)
    err = _rel(growth, alpha * shell_rate(speed))
    ok = spread <= cauchy_rtol and err <= growth_rtol
    return Check("difference-norm", ok,
                 f"matched spread {spread:.2e} (tol {cauchy_rtol:g}); violated growth rel {err:.2e} (tol {growth_rtol:g})")


def check_huyghens(rows, rtol=1e-5) -> Check:
    """|Re<v, f>| / scale at noise level for every window; rows are (tag, defect, scale)."""
    worst = max(abs(d) / s for _, d, s in rows)
    return Check("huyghens-defect", worst <= rtol, f"worst {worst:.3e} (tol {rtol:g})")


def check_total_identity(limit_rows, huyghens_rows, rtol=1e-10) -> Check:
    """total = vhat + term2 + term3: limit-T sums the three parts, huyghens
    pairs the closed-form total, so the two outputs must agree.

    limit_rows: T -> (total_re, vhat_re); huyghens_rows: T (None for v_hat) -> (defect, scale)."""
    worst = 0.0
    common = [T for T in limit_rows if T in huyghens_rows]
    for T in common:
        defect, scale = huyghens_rows[T]
        worst = max(worst, abs(limit_rows[T][0] - defect) / scale)
    if None in huyghens_rows:
        defect, scale = huyghens_rows[None]
        worst = max(worst, max(abs(v - defect) for _, v in limit_rows.values()) / scale)
    ok = bool(common) and worst <= rtol
    return Check("limit-T-total-identity", ok, f"{len(common)} windows, worst {worst:.3e} (tol {rtol:g})")


def check_term2_decay(term2_by_T, first=1.0, last=100.0, factor=0.05) -> Check:
    ratio = term2_by_T[last] / term2_by_T[first]
    return Check("term2-decay", ratio <= factor, f"|term2({last:g})|/|term2({first:g})| {ratio:.3e} (<= {factor:g})")


def check_vhat_T(value, reference, tag, rtol=1e-7) -> Check:
    scale = max(abs(c) for c in reference)
    err = max(abs(a - b) for a, b in zip(value, reference)) / scale
    return Check(f"v_hat_T-direct[{tag}]", err <= rtol, f"rel {err:.3e} (tol {rtol:g})")


def check_weyl_rows(rows, n_labels, tol=1e-10) -> Check:
    """rows are (check, samples, max_error) from weyl-laws.csv."""
    names = {r[0] for r in rows}
    worst = max(r[2] for r in rows)
    ok = names == {"group-law", "involution", "associativity"} and all(
        r[1] == n_labels for r in rows) and worst <= tol
    return Check("weyl-phase-errors", ok, f"{sorted(names)}, worst {worst:.3e} (tol {tol:g})")


def check_locality_rows(rows, configurations, tol=1e-6) -> Check:
    """rows are (name, relation, sigma_abs, scale) from locality.csv; every
    pair must be causally separated by an independent classification and
    have sigma at noise level."""
    expected = {
        c["name"]: causal_relation(c["centers"][0], c["centers"][1], c["radius"], c["radius"])
        for c in configurations
    }
    got = {r[0]: r[1] for r in rows}
    worst = max(r[2] / r[3] for r in rows)
    ok = got == expected and all(v in ("spacelike", "timelike") for v in got.values()) and worst <= tol
    return Check("locality-sigma", ok, f"relations {got}, worst {worst:.3e} (tol {tol:g})")


def check_sigma_vanishes(tag, sigma, scale, tol=1e-6) -> Check:
    ratio = abs(sigma) / scale
    return Check(f"sigma-vanishes[{tag}]", ratio <= tol, f"{ratio:.3e} (tol {tol:g})")


def check_phase(tag, phase, expected, tol=1e-10) -> Check:
    gap = phase_gap(phase, expected)
    return Check(f"ccr-phase[{tag}]", gap <= tol, f"gap {gap:.3e} (tol {tol:g})")


WAVE_LIMITS = {
    "initial-value-zero": 1e-12,
    "initial-slope-matches": 1e-6,
    "mass-outside-cone": 1e-6,
    # S(t) of two (0, f) solutions is zero mode by mode, so this row cannot
    # exceed its limit whatever the evolution; it is checked but proves little.
    "symplectic-drift": 1e-6,
    "bj-outside-r": 1e-4,
    "bj-outside-2r": 1e-6,
}


def check_wave_rows(rows) -> Check:
    """rows are (check, value) from wave-appendix.csv."""
    got = dict(rows)
    bad = [k for k, lim in WAVE_LIMITS.items() if not (k in got and abs(got[k]) <= lim)]
    return Check("wave-appendix-rows", not bad, f"over limit or missing: {bad}")


def check_kirchhoff(tag, values, references, rtol=1e-7) -> Check:
    scale = max(abs(r) for r in references)
    err = max(abs(a - b) for a, b in zip(values, references)) / scale
    return Check(f"kirchhoff[{tag}]", err <= rtol, f"rel {err:.3e} of max |u| {scale:.3e} (tol {rtol:g})")


def check_csv_identity(reference: dict, current: dict) -> Check:
    same = sorted(reference) == sorted(current) and all(reference[k] == current[k] for k in reference)
    return Check("csv-byte-identity", same, f"{len(current)} files vs the run's first process")


# ------------------------------------------------------ outputs of one process

def read_outputs(out_dir: str):
    """(report or None, {csv name: bytes}) of one `softcone run` output dir."""
    report = None
    path = os.path.join(out_dir, "report.json")
    if os.path.exists(path):
        with open(path) as fh:
            report = json.load(fh)
    csvs = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                csvs[name] = fh.read()
    return report, csvs


def _table(csvs: dict, name: str):
    return list(csv.DictReader(io.StringIO(csvs[name].decode())))


def _study(report: dict, name: str) -> dict:
    return next(s for s in report["studies"] if s["name"] == name)


def output_checks(workload: str, config: dict, report: dict, csvs: dict, oracle: dict) -> list:
    """Checks of one process's outputs; `oracle` holds per-run references."""
    params = config["params"]
    alpha, kappa = params["alpha"], params["kappa"]
    studies = {s["name"]: s for s in config["studies"]}
    out = []
    if workload == "ir-shells":
        for speed in studies["ir-divergence"]["speeds"]:
            rows = [(float(r["sigma_lo"]), float(r["shell_norm"]))
                    for r in _table(csvs, f"ir-divergence-v{speed:g}.csv")]
            out.append(check_shell_norms(speed, rows, alpha, kappa))
        for row in _study(report, "ir-divergence")["rows"]:
            out.append(check_shell_slope(row["speed"], row["slope"], alpha))
        for r in _table(csvs, "superselection-slope.csv"):
            wa = (float(r["w_x"]), float(r["w_y"]), float(r["w_z"]))
            wb = (float(r["wp_x"]), float(r["wp_y"]), float(r["wp_z"]))
            out.append(check_pairwise_slope(wa, wb, float(r["slope"]), alpha, oracle.get((wa, wb))))
        rows = [(r["variant"], float(r["sigma_probe"]), float(r["norm"]))
                for r in _table(csvs, "difference-norm.csv")]
        speed = math.sqrt(sum(c * c for c in params["w"]))
        out.append(check_difference_norm(rows, alpha, speed))
    elif workload == "cone-window":
        hy = _table(csvs, "huyghens.csv")
        out.append(check_huyghens([(r["T"], float(r["defect"]), float(r["scale"])) for r in hy]))
        lim = _table(csvs, "limit-T.csv")
        limit_rows = {float(r["T"]): (float(r["total_re"]), float(r["vhat_re"])) for r in lim}
        hy_rows = {(None if r["T"] == "inf" else float(r["T"])): (float(r["defect"]), float(r["scale"]))
                   for r in hy}
        out.append(check_total_identity(limit_rows, hy_rows))
        out.append(check_term2_decay({float(r["T"]): float(r["term2_abs"]) for r in lim}))
    elif workload == "field-algebra":
        rows = [(r["check"], float(r["samples"]), float(r["max_error"])) for r in _table(csvs, "weyl-laws.csv")]
        out.append(check_weyl_rows(rows, studies["weyl-laws"]["n_labels"]))
        rows = [(r["name"], r["relation"], float(r["sigma_abs"]), float(r["scale"]))
                for r in _table(csvs, "locality.csv")]
        out.append(check_locality_rows(rows, studies["locality"]["configurations"]))
    elif workload == "wave-grid":
        rows = [(r["check"], float(r["value"])) for r in _table(csvs, "wave-appendix.csv")]
        out.append(check_wave_rows(rows))
    return out


def output_oracle(workload: str, config: dict) -> dict:
    """References shared by every process of a run (SciPy integrals)."""
    if workload != "ir-shells":
        return {}
    pairs = next(s for s in config["studies"] if s["name"] == "superselection-slope")["pairs"]
    return {(tuple(a), tuple(b)): pairwise_rate(a, b) for a, b in pairs if a != b}


# ---------------------------------------------------- softcone library checks

def library_checks(workload: str, config: dict, seed: int) -> list:
    """Calls into softcone on seed-drawn inputs, against the references above."""
    rng = random.Random(seed)
    if workload == "cone-window":
        return _vhat_T_checks(config, rng)
    if workload == "field-algebra":
        return _ccr_checks(config, rng) + _locality_checks(config)
    if workload == "wave-grid":
        return _wave_checks(config, rng)
    return []


def _vhat_T_checks(config, rng):
    from softcone.cli import ScenarioConfig
    from softcone.profiles import evaluate

    raw = config["params"]
    params = ScenarioConfig({"params": raw}).params
    out = []
    for T in (1.0, 10.0):
        for _ in range(2):
            d = [rng.gauss(0.0, 1.0) for _ in range(3)]
            n = math.sqrt(sum(c * c for c in d))
            k = [rng.uniform(0.2, 1.5) * c / n for c in d]
            got = [complex(c) for c in evaluate(params, "v_hat_T", k, T)]
            ref = v_hat_T_reference(raw["alpha"], raw["u"], raw["w"], raw["g"]["halfwidth"],
                                    raw["g_scale"], T, k)
            out.append(check_vhat_T(got, ref, f"T={T:g},|k|={math.sqrt(sum(c * c for c in k)):.3f}"))
    return out


def random_label(rng):
    """A single-term local test field near the origin, as the weyl-laws study draws them."""
    import numpy as np
    from softcone.geometry import DoubleCone, Point4
    from softcone.testfields import BumpProfile, SeparableTerm, TestFieldPair

    t_c = rng.uniform(-0.3, 0.3)
    pos = [rng.uniform(-0.3, 0.3) for _ in range(3)]
    term = SeparableTerm(
        time=BumpProfile(t_c, 0.4, rng.uniform(0.5, 1.5)),
        space=BumpProfile(0.0, 0.4),
        direction=tuple(rng.gauss(0.0, 1.0) for _ in range(3)),
        channel=rng.choice(("electric", "magnetic")),
        position=tuple(pos),
    )
    return TestFieldPair((term,), DoubleCone(Point4(t_c, np.array(pos)), 0.81))


def sigma_reference(f, g, r_lo: float, r_hi: float) -> tuple:
    """(sigma, L1 scale) of two photon wavefunctions on a product rule of
    this module's own: composite Gauss-Legendre in rho (geometric panels),
    Gauss-Legendre in mu, midpoints in phi."""
    import numpy as np
    from scipy.special import roots_legendre

    x, w = roots_legendre(24)
    edges = np.geomspace(r_lo, r_hi, 41)
    rho = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * x for a, b in zip(edges[:-1], edges[1:])])
    wr = np.concatenate([0.5 * (b - a) * w for a, b in zip(edges[:-1], edges[1:])]) * rho * rho
    mu, wmu = roots_legendre(64)
    n_phi = 64
    phi = (np.arange(n_phi) + 0.25) * (TWO_PI / n_phi)
    total = 0.0 + 0.0j
    scale = 0.0
    for j in range(mu.size):
        m = np.full((1, n_phi), mu[j])
        g_val = np.sum(np.conjugate(f.values(rho[:, None], m, phi[None, :]))
                       * g.values(rho[:, None], m, phi[None, :]), axis=-1)
        wt = wr[:, None] * (wmu[j] * TWO_PI / n_phi)
        total += complex(np.sum(g_val * wt))
        scale += float(np.sum(np.abs(g_val) * wt))
    return total.imag, scale


def _ccr_checks(config, rng):
    from softcone.cli import ScenarioConfig, weyl_quadrature
    from softcone.testfields import photon_wavefunction
    from softcone.weyl import WeylElement, adjoint, multiply

    q = weyl_quadrature(ScenarioConfig({"quadrature": config["quadrature"]}).quadrature)
    w1, w2 = (WeylElement(photon_wavefunction(random_label(rng))) for _ in range(2))
    p12 = multiply(w1, w2, q).phase
    p21 = multiply(w2, w1, q).phase
    sigma, scale = sigma_reference(w1.label, w2.label, q.r_min, q.r_max)
    return [
        check_phase("W(f)W(f)*=1", multiply(w1, adjoint(w1), q).phase, 0.0),
        check_phase("exchange", p12 + p21, 0.0),
        # W(f)W(g) = e^{-i sigma(f, g)} W(f+g) with sigma from the rule above;
        # the two rules agree to their discretisation error, not to rounding.
        check_phase("product=-sigma", p12, -sigma, tol=1e-8 * scale),
    ]


# Pairs of electric 3-axis fields with different time centres: their sigma
# is not zero by a parity of the integrand, so its vanishing is the
# cancellation locality predicts.
LOCALITY_PAIRS = {
    "spacelike": ((0.3, 2.5), (-0.3, -2.5)),
    "timelike": ((2.5, 0.3), (-2.5, -0.3)),
}


def axis_field(t: float, z: float):
    import numpy as np
    from softcone.geometry import DoubleCone, Point4
    from softcone.testfields import BumpProfile, SeparableTerm, TestFieldPair

    term = SeparableTerm(time=BumpProfile(t, 0.4), space=BumpProfile(0.0, 0.4),
                         direction=(0.0, 0.0, 1.0), channel="electric", position=(0.0, 0.0, z))
    return TestFieldPair((term,), DoubleCone(Point4(t, np.array([0.0, 0.0, z])), 0.81))


def pair_sigma(first, second, quadrature_block: dict) -> tuple:
    """(relation, sigma, scale) of two 3-axis fields (t, z) under the locality study's rule."""
    from softcone.cli import ScenarioConfig, locality_quadrature
    from softcone.pairing import pair
    from softcone.testfields import photon_wavefunction

    q = locality_quadrature(ScenarioConfig({"quadrature": quadrature_block}).quadrature)
    res = pair(photon_wavefunction(axis_field(*first)), photon_wavefunction(axis_field(*second)), q)
    relation = causal_relation((first[0], 0.0, 0.0, first[1]), (second[0], 0.0, 0.0, second[1]), 0.81, 0.81)
    return relation, res.value.imag, res.scale


def _locality_checks(config):
    out = []
    for want, (a, b) in LOCALITY_PAIRS.items():
        relation, sigma, scale = pair_sigma(a, b, config["quadrature"])
        check = check_sigma_vanishes(want, sigma, scale)
        out.append(Check(check.name, check.ok and relation == want, f"{relation}: {check.detail}"))
    return out


def _wave_checks(config, rng):
    import numpy as np
    from softcone.testfields import BumpProfile
    from softcone.wavecheck import WaveSolution, sample_grid, wave_evaluate

    # The solution the wave-appendix study samples: data (0, bump of radius 0.5).
    radius = 0.5
    ws = WaveSolution(BumpProfile(0.0, radius))
    f = bump_profile(radius)
    t_list = next(s for s in config["studies"] if s["name"] == "wave-appendix")["t_list"]
    values, refs = [], []
    for t in t_list:
        points = []
        for _ in range(8):
            d = [rng.gauss(0.0, 1.0) for _ in range(3)]
            n = math.sqrt(sum(c * c for c in d))
            # radii reach past the cone r = radius + t, where u must vanish
            r = rng.uniform(0.0, radius + t + 0.3)
            points.append([r * c / n for c in d])
            refs.append(kirchhoff(f, t, r))
        values.extend(float(v) for v in wave_evaluate(ws, t, np.array(points)))
    out = [check_kirchhoff("wave_evaluate", values, refs)]

    t = max(t_list)
    spacing = radius / 16.0
    grid = sample_grid(ws, t, 2.0, spacing)
    n = grid.values.shape[0]
    axis = -1.0 + spacing * np.arange(n)
    values, refs = [], []
    for _ in range(24):
        i, j, k = (rng.randrange(n) for _ in range(3))
        values.append(float(grid.values[i, j, k]))
        refs.append(kirchhoff(f, t, math.sqrt(axis[i] ** 2 + axis[j] ** 2 + axis[k] ** 2)))
    # cubic interpolation on the radial table, step = spacing / 4, sets the error
    out.append(check_kirchhoff("sample_grid", values, refs, rtol=1e-5))
    return out
