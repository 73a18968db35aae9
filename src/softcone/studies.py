"""The eight studies of a scenario, one function each.

Every study is ``study(params, quadrature, fields, opts) -> (rows, checks,
tables)``.  ``fields`` maps names to `TestFieldPair`s, ``opts`` holds the
study's options (a missing option takes its default from `STUDY_OPTIONS`),
``rows`` go into the report, ``checks`` are the thresholded verdicts and
``tables`` maps CSV file names to (header, rows).  `softcone run` and the
acceptance tests call the same functions; `STUDIES` is their canonical order.

The library is reached through module attributes (``pairing.pair``,
``profiles.profile_wavefunction``, ...), so a caller that rebinds those
attributes, as a tracer does, sees every call the studies make.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import pairing, profiles, testfields, wavecheck, weyl
from .geometry import DoubleCone, Point4, causally_separated
from .quadrature import QuadratureSpec
from .testfields import BumpProfile, SeparableTerm, TestFieldPair


def _is_number(x) -> bool:
    try:
        return math.isfinite(float(x))
    except (TypeError, ValueError, OverflowError):
        return False


def _is_numbers(x, lengths=None) -> bool:
    """A list of numbers, of one of ``lengths`` when given."""
    return isinstance(x, list) and all(map(_is_number, x)) and (lengths is None or len(x) in lengths)


def _is_velocity_pairs(x) -> bool:
    return isinstance(x, list) and all(
        isinstance(p, list) and len(p) == 2 and all(_is_numbers(w, (3,)) for w in p) for p in x
    )


FLAG = (lambda x: True, "")
NAME = (lambda x: x is None or isinstance(x, str), "a field name")
NUMBER = (_is_number, "a finite number")
NUMBERS = (_is_numbers, "a list of finite numbers")
SOME_NUMBERS = (lambda x: _is_numbers(x) and len(x) > 0, "a non-empty list of finite numbers")
# a slope or a spread through one point fits nothing, and a shell needs sigma > 0
SIGMAS = (lambda x: _is_numbers(x) and len({float(v) for v in x}) >= 2
          and all(float(v) > 0.0 for v in x),
          "a list of at least two distinct positive numbers")
SIGMA_GRID = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
# a drift from one time to itself reads 0 whatever the program does
TIMES = (lambda x: _is_numbers(x) and len({float(t) for t in x}) >= 2,
         "a list of at least two distinct numbers")
# T = 0 is the empty window: a zero profile with pairing scale 0
WINDOWS = (lambda x: _is_numbers(x) and all(float(T) > 0 for T in x),
           "a list of positive numbers")
ASCENDING_WINDOWS = (lambda x: WINDOWS[0](x) and len(x) > 0
                     and all(float(a) <= float(b) for a, b in zip(x, x[1:])),
                     "a non-empty ascending list of positive numbers")
# The options each study reads: the check its value must pass, and its default.
STUDY_OPTIONS = {
    "ir-divergence": {"speeds": (SOME_NUMBERS, [0.0, 0.1, 0.3]),
                      "sigma_grid": (SIGMAS, SIGMA_GRID),
                      "slope_rtol": (NUMBER, 0.02)},
    "superselection-slope": {"pairs": ((lambda x: _is_velocity_pairs(x) and len(x) > 0,
                                        "a non-empty list of pairs of 3-vectors"),
                                       [[[0.0, 0.0, 0.3], [0.0, 0.0, 0.1]],
                                        [[0.0, 0.0, 0.2], [0.0, 0.0, 0.2]]]),
                             "sigma_grid": (SIGMAS, SIGMA_GRID),
                             "slope_rtol": (NUMBER, 0.02)},
    "difference-norm": {"sigma_probes": (SIGMAS, [1e-2, 1e-4, 1e-6]),
                        "cauchy_rtol": (NUMBER, 0.01)},
    "huyghens": {"field": (NAME, "probe"),
                 "T_list": (WINDOWS, [1.0, 10.0]),
                 "include_v_hat": (FLAG, True),
                 "defect_rtol": (NUMBER, 1e-5)},
    "limit-T": {"field": (NAME, "probe"),
                "T_list": (ASCENDING_WINDOWS, [1.0, 10.0, 100.0]),
                "decay_factor": (NUMBER, 0.05),
                "region_T": (NUMBERS, [3.0]),
                "decay_pair": ((lambda x: _is_numbers(x, (0, 2)), "an empty list or two numbers"),
                               [1.0, 100.0])},
    "weyl-laws": {"n_labels": ((lambda x: isinstance(x, int) and x >= 3,
                                "an integer >= 3 (associativity takes triples)"), 12),
                  "seed": ((lambda x: isinstance(x, int) and x >= 0, "an integer >= 0"), 20240817),
                  "tolerance": (NUMBER, 1e-10)},
    "locality": {"ratio_tol": (NUMBER, 1e-6),
                 "configurations": ((lambda x: isinstance(x, list), "a list"), [])},
    "wave-appendix": {"t_list": (TIMES, [0.0, 1.0, 2.0]),
                      "drift_rtol": (NUMBER, 1e-6),
                      "include_halving": (FLAG, False),
                      "bj_field": (NAME, None)},
}


def with_defaults(name: str, opts: dict) -> dict:
    """``opts`` of study ``name`` over the defaults of its other options."""
    return {**{key: default for key, (_, default) in STUDY_OPTIONS[name].items()}, **opts}


def _check(name: str, value, threshold, passed: bool) -> dict:
    return {
        "name": name,
        "value": None if value is None else float(value),
        "threshold": None if threshold is None else float(threshold),
        "passed": bool(passed),
    }


def _fit_slope(xs, ys) -> float:
    if max(abs(y) for y in ys) == 0.0:
        return 0.0
    return float(np.polyfit(xs, ys, 1)[0])


def _shell_norms(v, sigmas, top: float, quadrature) -> list:
    """(sigma, ||v||^2 on [sigma, top], err) for each sigma of a descending
    grid.  Each annulus [sigma_k, sigma_(k-1)], with sigma_0 = top, is paired
    once, and the shells and their error estimates are summed from the top;
    a repeated sigma adds an empty annulus."""
    rows, norm, err, hi = [], 0.0, 0.0, top
    for sigma in sigmas:
        if sigma != hi or not rows:
            res = pairing.pair(v, v, quadrature, r_bounds=(sigma, hi))
            norm, err, hi = norm + res.value.real, err + res.error_estimate, sigma
        rows.append((sigma, norm, err))
    return rows


def _slope_check(tag: str, slope: float, oracle: float, zero: bool, rtol: float) -> dict:
    """Exactly zero for a case whose slope is zero, otherwise within rtol of
    the oracle."""
    if zero:
        return _check(f"zero-slope[{tag}]", abs(slope), 0.0, slope == 0.0)
    return _check(f"slope-matches-oracle[{tag}]", abs(slope - oracle) / oracle, rtol,
                  abs(slope - oracle) <= rtol * oracle)


IR_DIVERGENCE_CSV = "ir-divergence-v{:g}.csv"  # of one float speed


def ir_divergence(params, quadrature, fields, opts):
    opts = with_defaults("ir-divergence", opts)
    grid = sorted((float(s) for s in opts["sigma_grid"]), reverse=True)
    xs = [math.log(params.kappa / s) for s in grid]
    checks, rows, csvs = [], [], {}
    for speed in (float(v) for v in opts["speeds"]):
        p = replace(params, w=(0.0, 0.0, speed))
        table = _shell_norms(profiles.profile_wavefunction(p, "v_limit"), grid, p.kappa, quadrature)
        slope = _fit_slope(xs, [n for _, n, _ in table])
        oracle = p.alpha * profiles.angular_factor(speed)
        checks.append(_slope_check(f"v={speed:g}", slope, oracle, speed == 0.0,
                                   float(opts["slope_rtol"])))
        rows.append({"speed": speed, "slope": slope, "oracle": oracle})
        csvs[IR_DIVERGENCE_CSV.format(speed)] = (("sigma_lo", "shell_norm", "err"), table)
    return rows, checks, csvs


def superselection_slope(params, quadrature, fields, opts):
    opts = with_defaults("superselection-slope", opts)
    grid = sorted((float(s) for s in opts["sigma_grid"]), reverse=True)
    xs = [math.log(params.kappa / s) for s in grid]
    checks, rows, table = [], [], []
    for wa, wb in opts["pairs"]:
        wa = tuple(float(c) for c in wa)
        wb = tuple(float(c) for c in wb)
        diff = (profiles.profile_wavefunction(replace(params, w=wa), "v_limit")
                - profiles.profile_wavefunction(replace(params, w=wb), "v_limit"))
        shells = _shell_norms(diff, grid, params.kappa, quadrature)
        slope = _fit_slope(xs, [n for _, n, _ in shells])
        oracle = params.alpha * profiles.pairwise_angular_factor(wa, wb)
        checks.append(_slope_check(f"w={wa}|w'={wb}", slope, oracle, wa == wb,
                                   float(opts["slope_rtol"])))
        rows.append({"w": wa, "w_prime": wb, "slope": slope, "oracle": oracle})
        table.append(wa + wb + (slope, oracle))
    csvs = {
        "superselection-slope.csv": (
            ("w_x", "w_y", "w_z", "wp_x", "wp_y", "wp_z", "slope", "oracle"),
            table,
        )
    }
    return rows, checks, csvs


def difference_norm(params, quadrature, fields, opts):
    opts = with_defaults("difference-norm", opts)
    probes = sorted((float(s) for s in opts["sigma_probes"]), reverse=True)
    rtol = float(opts["cauchy_rtol"])
    checks, rows, table = [], [], []
    results = {}
    for variant, p in (("matched", params), ("violated", replace(params, g_scale=2.0))):
        diff = profiles.profile_wavefunction(p, "v_limit") - profiles.profile_wavefunction(p, "v_hat")
        shells = _shell_norms(diff, probes, diff.truncation_radius, quadrature)
        norms = [n for _, n, _ in shells]
        table.extend((variant, *shell) for shell in shells)
        results[variant] = norms
        rows.append({"variant": variant, "sigma_probes": probes, "norms": norms})
    spread = max(results["matched"]) - min(results["matched"])
    ok = spread <= rtol * max(results["matched"])
    checks.append(_check("matched-cauchy", spread / max(results["matched"]), rtol, ok))
    xs = [math.log(1.0 / s) for s in probes]
    vslope = _fit_slope(xs, results["violated"])
    checks.append(_check("violated-log-growth", vslope, 0.0, vslope > 0.0))
    csvs = {"difference-norm.csv": (("variant", "sigma_probe", "norm", "err"), table)}
    return rows, checks, csvs


def huyghens(params, quadrature, fields, opts):
    opts = with_defaults("huyghens", opts)
    field = fields[opts["field"]]
    rtol = float(opts["defect_rtol"])
    cases = [("v_hat", None)] if opts["include_v_hat"] else []
    cases.extend(("v_hat_T", float(T)) for T in opts["T_list"])
    checks, rows, table = [], [], []
    for kind, T in cases:
        rep = pairing.huyghens_report(params, field, kind, quadrature, T)
        ratio = abs(rep["defect"]) / rep["scale"]
        tag = kind if T is None else f"{kind}[T={T:g}]"
        checks.append(_check(f"defect[{tag}]", ratio, rtol, ratio <= rtol))
        rows.append({"kind": kind, "T": T, **rep})
        table.append(
            (kind, "inf" if T is None else T, rep["defect"], rep["scale"], ratio, rep["error_estimate"])
        )
    csvs = {"huyghens.csv": (("kind", "T", "defect", "scale", "ratio", "err"), table)}
    return rows, checks, csvs


def limit_T(params, quadrature, fields, opts):
    opts = with_defaults("limit-T", opts)
    T_list = [float(T) for T in opts["T_list"]]
    study = pairing.limit_T_study(params, fields[opts["field"]], T_list, quadrature)
    checks = []
    worst_identity = 0.0
    for row in study:
        resid = abs(row["total"] - (row["vhat"] + row["term2"] + row["term3"]))
        denom = max(abs(row["total"]), row["scale"] * 1e-3)
        worst_identity = max(worst_identity, resid / denom)
    checks.append(_check("row-identity", worst_identity, 1e-10, worst_identity <= 1e-10))
    decay_pair = opts["decay_pair"]
    factor = float(opts["decay_factor"])
    by_T = {row["T"]: row for row in study}
    t0, t1 = (float(decay_pair[0]), float(decay_pair[1])) if decay_pair else (None, None)
    if t0 in by_T and t1 in by_T:
        early = abs(by_T[t0]["term2"])
        late = abs(by_T[t1]["term2"])
        checks.append(
            _check(f"term2-decay[{t0:g}->{t1:g}]", late / early, factor, late <= factor * early)
        )
    rows = [
        {
            "T": row["T"],
            "total": [row["total"].real, row["total"].imag],
            "vhat": [row["vhat"].real, row["vhat"].imag],
            "term2_abs": abs(row["term2"]),
            "term3_abs": abs(row["term3"]),
            "T_times_term3": row["T"] * abs(row["term3"]),
            "err": row["err"],
            "scale": row["scale"],
            "node_count": row["node_count"],
        }
        for row in study
    ]
    csvs = {
        "limit-T.csv": (
            ("T", "total_re", "total_im", "vhat_re", "vhat_im", "term2_abs", "term3_abs", "err"),
            [(r["T"], *r["total"], *r["vhat"], r["term2_abs"], r["term3_abs"], r["err"]) for r in rows],
        )
    }
    for T in opts["region_T"]:
        T = float(T)
        # vertices of the triangular (t, tau) integration region 0 <= t <= tau <= T
        csvs[f"region-T{T:g}.csv"] = (
            ("t", "tau"),
            [(0.0, 0.0), (0.0, T), (T, T)],
        )
    return rows, checks, csvs


def _random_label(rng: np.random.Generator) -> TestFieldPair:
    t_c = float(rng.uniform(-0.3, 0.3))
    pos = rng.uniform(-0.3, 0.3, 3)
    direction = rng.normal(0.0, 1.0, 3)
    channel = "electric" if rng.uniform() < 0.5 else "magnetic"
    amplitude = float(rng.uniform(0.5, 1.5))
    term = SeparableTerm(
        time=BumpProfile(t_c, 0.4, amplitude),
        space=BumpProfile(0.0, 0.4),
        direction=tuple(direction),
        channel=channel,
        position=tuple(pos),
    )
    support = DoubleCone(Point4(t_c, pos.copy()), 0.81)
    return TestFieldPair((term,), support)


def weyl_quadrature(base: QuadratureSpec) -> QuadratureSpec:
    """Spec of the Weyl-label pairings: a coarser radial rule cut at r = 12
    and fixed angular counts.

    The labels of `_random_label` share their envelope bandwidths, and no
    pair of them in its box has a carrier difference that raises the angular
    counts at r_max = 12, so every product's Gram lands on the same coarse
    and fine meshes.  The associativity check across per-product Grams (c01)
    relies on this."""
    return replace(
        base,
        r_min=max(base.r_min, 1e-3),
        r_max=min(base.r_max, 12.0),
        panels_per_decade=6,
        gauss_order=10,
        n_cos_theta=36,
        n_phi=24,
    )


def weyl_laws(params, quadrature, fields, opts):
    opts = with_defaults("weyl-laws", opts)
    n = int(opts["n_labels"])
    tol = float(opts["tolerance"])
    rng = np.random.default_rng(int(opts["seed"]))
    q = weyl_quadrature(quadrature)
    labels = weyl.gram_elements(
        [testfields.photon_wavefunction(_random_label(rng)) for _ in range(n)], q
    )
    errors = {"group-law": 0.0, "involution": 0.0, "associativity": 0.0}
    for w in labels:
        unit = weyl.multiply(w, weyl.adjoint(w), q)
        errors["group-law"] = max(errors["group-law"], weyl.phase_distance(unit.phase, 0.0))
        doubled = weyl.multiply(w, w, q)
        errors["group-law"] = max(errors["group-law"], weyl.phase_distance(doubled.phase, 0.0))
        errors["involution"] = max(
            errors["involution"], weyl.phase_distance(weyl.adjoint(weyl.adjoint(w)).phase, w.phase)
        )
    for i in range(n - 2):
        w1, w2, w3 = labels[i], labels[i + 1], labels[i + 2]
        left = weyl.multiply(weyl.multiply(w1, w2, q), w3, q)
        right = weyl.multiply(w1, weyl.multiply(w2, w3, q), q)
        errors["associativity"] = max(
            errors["associativity"], weyl.phase_distance(left.phase, right.phase)
        )
    checks = [
        _check(f"phase[{name}]", err, tol, err <= tol) for name, err in errors.items()
    ]
    rows = [{"check": k, "max_error": v} for k, v in errors.items()]
    csvs = {
        "weyl-laws.csv": (
            ("check", "samples", "max_error"),
            [(k, float(n), v) for k, v in errors.items()],
        )
    }
    return rows, checks, csvs


def locality_quadrature(base: QuadratureSpec) -> QuadratureSpec:
    return replace(base, r_max=min(base.r_max, 40.0))


# halfwidth of the time and the space bump of each locality field; a field
# reaches 2 * LOCALITY_HALFWIDTH from its centre, so its radius must too
LOCALITY_HALFWIDTH = 0.4


def _locality_pair(conf: dict):
    # Oblique directions keep sigma from vanishing by symmetry alone: for an
    # electric 3-field against a magnetic 1-field with centres on the 3-axis,
    # conj(f1).f2 ~ sin(phi), so sigma is zero by parity at any separation
    # (causally connected too) and the check could not fail.
    radius = float(conf.get("radius", 0.81))
    pair = []
    for idx, center in enumerate(conf["centers"]):
        c = [float(v) for v in center]
        term = SeparableTerm(
            time=BumpProfile(c[0], LOCALITY_HALFWIDTH),
            space=BumpProfile(0.0, LOCALITY_HALFWIDTH),
            direction=(1.0, 1.0, 1.0) if idx == 0 else (1.0, -1.0, 1.0),
            channel="electric" if idx == 0 else "magnetic",
            position=tuple(c[1:4]),
        )
        support = DoubleCone(Point4(c[0], np.array(c[1:4])), radius)
        pair.append(TestFieldPair((term,), support))
    return pair


def locality(params, quadrature, fields, opts):
    opts = with_defaults("locality", opts)
    tol = float(opts["ratio_tol"])
    q = locality_quadrature(quadrature)
    checks, rows, table = [], [], []
    for conf in opts["configurations"]:
        name = conf.get("name", "config")
        f1, f2 = _locality_pair(conf)
        relation = causally_separated(f1.support, f2.support)
        res = pairing.pair(testfields.photon_wavefunction(f1), testfields.photon_wavefunction(f2), q)
        sigma = abs(res.value.imag)
        ratio = sigma / res.scale
        ok = relation in ("spacelike", "timelike") and ratio <= tol
        checks.append(_check(f"sigma-vanishes[{name}]", ratio, tol, ok))
        rows.append({"name": name, "relation": relation, "sigma": sigma, "scale": res.scale,
                     "node_count": res.node_count})
        table.append((name, relation, sigma, res.scale, ratio))
    csvs = {
        "locality.csv": (("name", "relation", "sigma_abs", "scale", "ratio"), table)
    }
    return rows, checks, csvs


# the initial profiles of the two wave-appendix solutions
WAVE_PROFILES = (BumpProfile(0.0, 0.5), BumpProfile(0.0, 0.4, 1.3))


def wave_grids(t_list, include_halving: bool) -> list:
    """(extent, spacing) of every cube grid `wave_appendix` samples for
    these times, so that a config can be checked against
    `wavecheck.check_grid` before anything is sampled."""
    t_list = [float(t) for t in t_list]
    r = max(p.halfwidth for p in WAVE_PROFILES)
    grids = [wavecheck.mass_grid(WAVE_PROFILES[0].halfwidth, max(t_list, key=abs)),
             wavecheck.symplectic_grid(r, t_list)]
    if include_halving:
        extent, spacing = wavecheck.symplectic_grid(r, (t_list[0], t_list[-1]))
        grids.append((extent, spacing / 2.0))
    return grids


def wave_appendix(params, quadrature, fields, opts):
    opts = with_defaults("wave-appendix", opts)
    drift_rtol = float(opts["drift_rtol"])
    t_list = [float(t) for t in opts["t_list"]]
    ws1, ws2 = (wavecheck.WaveSolution(p) for p in WAVE_PROFILES)
    checks, rows = [], []

    sample = np.array([[0.1, 0.0, 0.2], [0.0, 0.3, 0.0], [0.2, 0.2, 0.1]])
    ic_zero = float(np.max(np.abs(wavecheck.wave_evaluate(ws1, 0.0, sample))))
    checks.append(_check("initial-value-zero", ic_zero, 1e-12, ic_zero <= 1e-12))
    deriv = wavecheck.wave_time_derivative(ws1, 0.0, sample)
    target = ws1.initial_profile(np.linalg.norm(sample, axis=-1))
    ic_deriv = float(np.max(np.abs(deriv - target)))
    checks.append(_check("initial-slope-matches", ic_deriv, 1e-6, ic_deriv <= 1e-6))

    fraction = wavecheck.mass_outside_cone(ws1, max(t_list, key=abs))
    checks.append(_check("mass-outside-cone", fraction, 1e-6, fraction <= 1e-6))

    drift = wavecheck.symplectic_time_invariance(ws1, ws2, t_list)
    checks.append(
        _check("symplectic-drift", drift["relative_drift"], drift_rtol, drift["relative_drift"] <= drift_rtol)
    )
    rows.append({"drift": drift["rows"], "relative_drift": drift["relative_drift"]})

    if opts["include_halving"]:
        base = wavecheck.symplectic_time_invariance(ws1, ws2, (t_list[0], t_list[-1]))
        halved = wavecheck.symplectic_time_invariance(
            ws1, ws2, (t_list[0], t_list[-1]), spacing=base["spacing"] / 2.0
        )
        improvement = base["drift"] / max(halved["drift"], 1e-300)
        checks.append(_check("halving-improvement", improvement, 4.0, improvement >= 4.0))
        rows.append({"halving": {"base": base["drift"], "halved": halved["drift"]}})

    if opts["bj_field"]:
        field = fields[opts["bj_field"]]
        r = field.support.radius
        frac_r, frac_2r = wavecheck.bj_support_check(field, (r, 2.0 * r))
        checks.append(_check("bj-outside[r]", frac_r, 1e-4, frac_r <= 1e-4))
        checks.append(_check("bj-outside[2r]", frac_2r, 1e-6, frac_2r <= 1e-6))
        rows.append({"bj": {"r": frac_r, "2r": frac_2r}})

    # one line per check; a bracketed check name [x] is written -x
    table = [(c["name"].replace("[", "-").rstrip("]"), c["value"], c["threshold"]) for c in checks]
    csvs = {"wave-appendix.csv": (("check", "value", "threshold"), table)}
    return rows, checks, csvs


# The canonical order in which a scenario runs its studies.
STUDIES = {
    "ir-divergence": ir_divergence,
    "superselection-slope": superselection_slope,
    "difference-norm": difference_norm,
    "huyghens": huyghens,
    "limit-T": limit_T,
    "weyl-laws": weyl_laws,
    "locality": locality,
    "wave-appendix": wave_appendix,
}
