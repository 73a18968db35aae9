"""Scenario runner: parse a YAML config, execute named studies, write reports.

Studies always execute in a fixed canonical order and every numeric output
path (node generation, summation order, float formatting) is deterministic,
so identical configs produce byte-identical CSV files.  The JSON report
carries rows, error estimates and pass/fail per declared threshold; the exit
status is 0 exactly when all thresholded checks pass.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np
import yaml

from . import pairing, profiles, wavecheck, weyl
from .errors import SoftconeError
from .geometry import DoubleCone, Point4, causally_separated
from .profiles import DressingParams
from .quadrature import QuadratureSpec
from .testfields import BumpProfile, SeparableTerm, TestFieldPair, photon_wavefunction

STUDY_ORDER = (
    "ir-divergence",
    "superselection-slope",
    "difference-norm",
    "huyghens",
    "limit-T",
    "weyl-laws",
    "locality",
    "wave-appendix",
)

OUTPUT_DIR_ENV = "SOFTCONE_OUTPUT_DIR"

DEFAULT_CONFIG = """\
# Bundled scenario: every study at desk scale with passing thresholds.
params:
  alpha: 0.01
  kappa: 1.0
  sigma: 0.0
  w: [0.0, 0.0, 0.3]
  v_max: 0.9
  u: 2.0
  g: {halfwidth: 1.0, amplitude: 1.0}
  g_scale: 1.0
quadrature:
  r_min: 1.0e-8
  r_max: 80.0
  panels_per_decade: 4
  gauss_order: 16
  n_cos_theta: 48
  n_phi: 8
  oscillation_aware: true
  nodes_per_wavelength: 6.0
fields:
  probe:
    support: {center: [5.0, 0.0, 0.0, 0.0], radius: 1.0}
    terms:
      - channel: electric
        time: {center: 5.0, halfwidth: 0.5}
        space: {halfwidth: 0.5}
        direction: [0.0, 0.0, 1.0]
  bj_probe:
    support: {center: [0.0, 0.0, 0.0, 0.0], radius: 1.0}
    terms:
      - channel: magnetic
        time: {center: 0.0, halfwidth: 0.4}
        space: {halfwidth: 0.5}
        direction: [1.0, 0.0, 0.0]
output_dir: softcone-out
studies:
  - name: ir-divergence
    speeds: [0.0, 0.1, 0.3]
    sigma_grid: [1.0e-2, 1.0e-3, 1.0e-4, 1.0e-5, 1.0e-6]
    slope_rtol: 0.02
  - name: superselection-slope
    pairs:
      - [[0.0, 0.0, 0.3], [0.0, 0.0, 0.1]]
      - [[0.0, 0.0, 0.2], [0.0, 0.0, 0.2]]
    sigma_grid: [1.0e-2, 1.0e-3, 1.0e-4, 1.0e-5, 1.0e-6]
    slope_rtol: 0.02
  - name: difference-norm
    sigma_probes: [1.0e-2, 1.0e-4, 1.0e-6]
    cauchy_rtol: 0.01
  - name: huyghens
    field: probe
    T_list: [1.0, 10.0]
    include_v_hat: true
    defect_rtol: 1.0e-5
  - name: limit-T
    field: probe
    T_list: [1.0, 10.0, 100.0]
    decay_pair: [1.0, 100.0]
    decay_factor: 0.05
    region_T: [3.0]
  - name: weyl-laws
    n_labels: 12
    seed: 20240817
    tolerance: 1.0e-10
  - name: locality
    ratio_tol: 1.0e-6
    configurations:
      - {name: spacelike-z, centers: [[0.0, 0.0, 0.0, 4.0], [0.0, 0.0, 0.0, -4.0]], radius: 0.81}
      - {name: spacelike-z-far, centers: [[0.0, 0.0, 0.0, 6.0], [0.0, 0.0, 0.0, -3.0]], radius: 0.81}
      - {name: timelike-t, centers: [[5.0, 0.0, 0.0, 0.0], [-5.0, 0.0, 0.0, 0.0]], radius: 0.81}
      - {name: timelike-t-offset, centers: [[6.0, 0.0, 0.0, 1.0], [-4.0, 0.0, 0.0, 1.0]], radius: 0.81}
  - name: wave-appendix
    bj_field: bj_probe
    t_list: [0.0, 1.0, 2.0]
    drift_rtol: 1.0e-6
    include_halving: false
"""


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: str, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class ConfigError(Exception):
    pass


def _build_params(d: dict) -> DressingParams:
    kw = dict(d or {})
    g = kw.pop("g", None)
    if g is not None:
        kw["g"] = BumpProfile(
            0.0, float(g["halfwidth"]), float(g.get("amplitude", 1.0))
        )
    if "w" in kw:
        kw["w"] = tuple(float(c) for c in kw["w"])
    return DressingParams(**kw)


def _build_quadrature(d: dict) -> QuadratureSpec:
    return replace(QuadratureSpec(), **(d or {}))


def _build_field(d: dict) -> TestFieldPair:
    sup = d["support"]
    c = [float(v) for v in sup["center"]]
    cone = DoubleCone(Point4(c[0], np.array(c[1:4])), float(sup["radius"]))
    terms = []
    for td in d["terms"]:
        terms.append(
            SeparableTerm(
                time=BumpProfile(
                    float(td["time"].get("center", 0.0)),
                    float(td["time"]["halfwidth"]),
                    float(td["time"].get("amplitude", 1.0)),
                ),
                space=BumpProfile(
                    0.0,
                    float(td["space"]["halfwidth"]),
                    float(td["space"].get("amplitude", 1.0)),
                ),
                direction=tuple(td.get("direction", (0.0, 0.0, 1.0))),
                channel=td["channel"],
                position=tuple(td.get("position", (0.0, 0.0, 0.0))),
                amplitude=float(td.get("amplitude", 1.0)),
            )
        )
    return TestFieldPair(tuple(terms), cone)


def _is_number(x) -> bool:
    try:
        float(x)
    except (TypeError, ValueError):
        return False
    return True


def _is_numbers(x, lengths=None) -> bool:
    """A list of numbers, of one of ``lengths`` when given."""
    return isinstance(x, list) and all(map(_is_number, x)) and (lengths is None or len(x) in lengths)


def _is_velocity_pairs(x) -> bool:
    return isinstance(x, list) and all(
        isinstance(p, list) and len(p) == 2 and all(_is_numbers(w, (3,)) for w in p) for p in x
    )


FLAG = (lambda x: True, "")
NAME = (lambda x: x is None or isinstance(x, str), "a field name")
NUMBER = (_is_number, "a number")
NUMBERS = (_is_numbers, "a list of numbers")
SOME_NUMBERS = (lambda x: _is_numbers(x) and len(x) > 0, "a non-empty list of numbers")
# a slope or a spread through one point fits nothing
SIGMAS = (lambda x: _is_numbers(x) and len({float(v) for v in x}) >= 2,
          "a list of at least two distinct numbers")
# The options each study reads, with the check its value must pass.
STUDY_OPTIONS = {
    "ir-divergence": {"speeds": SOME_NUMBERS, "sigma_grid": SIGMAS, "slope_rtol": NUMBER},
    "superselection-slope": {"pairs": (lambda x: _is_velocity_pairs(x) and len(x) > 0,
                                       "a non-empty list of pairs of 3-vectors"),
                             "sigma_grid": SIGMAS, "slope_rtol": NUMBER},
    "difference-norm": {"sigma_probes": SIGMAS, "cauchy_rtol": NUMBER},
    "huyghens": {"field": NAME, "T_list": NUMBERS, "include_v_hat": FLAG, "defect_rtol": NUMBER},
    "limit-T": {"field": NAME, "T_list": NUMBERS, "decay_factor": NUMBER, "region_T": NUMBERS,
                "decay_pair": (lambda x: _is_numbers(x, (0, 2)), "an empty list or two numbers")},
    "weyl-laws": {"n_labels": (lambda x: _is_number(x) and float(x) >= 3,
                               "a number >= 3 (associativity takes triples)"),
                  "seed": NUMBER, "tolerance": NUMBER},
    "locality": {"ratio_tol": NUMBER, "configurations": (lambda x: isinstance(x, list), "a list")},
    "wave-appendix": {"t_list": NUMBERS, "drift_rtol": NUMBER, "include_halving": FLAG, "bj_field": NAME},
}


def _validate_study(where: str, entry: dict):
    """Reject options a study does not read or cannot run, and a study that
    would check nothing: a verdict over no checks would pass whatever the
    program does."""
    name = entry["name"]
    options = STUDY_OPTIONS[name]
    for key, value in entry.items():
        if key == "name":
            continue
        if key not in options:
            raise ConfigError(
                f"{where}: unknown option {key!r} for {name}; it reads {', '.join(options)}"
            )
        valid, expected = options[key]
        if not valid(value):
            raise ConfigError(f"{where}.{key}: expected {expected}, got {value!r}")
    if name == "locality":
        confs = entry.get("configurations") or []
        if not confs:
            raise ConfigError(f"{where}: locality needs at least one entry in 'configurations'")
        for j, conf in enumerate(confs):
            centers = conf.get("centers") if isinstance(conf, dict) else None
            if not (isinstance(centers, list) and len(centers) == 2
                    and all(isinstance(c, list) and len(c) == 4 for c in centers)):
                raise ConfigError(
                    f"{where}.configurations[{j}]: 'centers' must hold two points "
                    f"[t, x, y, z], got {centers!r}"
                )
    elif name == "huyghens":
        if not entry.get("T_list", True) and not entry.get("include_v_hat", True):
            raise ConfigError(f"{where}: huyghens with an empty T_list needs include_v_hat")


class ScenarioConfig:
    """Validated scenario: profile params, quadrature, fields, study list."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("top level must be a mapping")
        try:
            self.params = _build_params(raw.get("params", {}))
            self.quadrature = _build_quadrature(raw.get("quadrature", {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid parameter block: {exc}") from exc
        self.fields = {}
        for name, d in (raw.get("fields") or {}).items():
            try:
                self.fields[name] = _build_field(d)
            except (KeyError, TypeError, ValueError, SoftconeError) as exc:
                raise ConfigError(f"invalid field {name!r}: {exc}") from exc
        self.output_dir = raw.get("output_dir", "softcone-out")
        self.studies = []
        for idx, entry in enumerate(raw.get("studies") or []):
            where = f"studies[{idx}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"{where}: expected a mapping with a 'name' key, got {entry!r}")
            name = entry.get("name")
            if name not in STUDY_ORDER:
                raise ConfigError(f"{where}: unknown study {name!r}; see list-studies")
            if any(s["name"] == name for s in self.studies):
                raise ConfigError(f"{where}: study {name!r} is listed more than once")
            self.studies.append(dict(entry))
        for idx, entry in enumerate(self.studies):
            _validate_study(f"studies[{idx}]", entry)

    def field(self, name: str) -> TestFieldPair:
        if name not in self.fields:
            raise ConfigError(f"study references undefined field {name!r}")
        return self.fields[name]


def parse_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ConfigError(
                f"{path}:{mark.line + 1}:{mark.column + 1}: {getattr(exc, 'problem', exc)}"
            ) from exc
        raise ConfigError(str(exc)) from exc
    return ScenarioConfig(raw or {})


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


# ---------------------------------------------------------------- studies

def _run_ir_divergence(cfg: ScenarioConfig, opts: dict):
    speeds = [float(v) for v in opts.get("speeds", (0.0, 0.1, 0.3))]
    grid = sorted((float(s) for s in opts.get("sigma_grid", (1e-2, 1e-3, 1e-4, 1e-5, 1e-6))), reverse=True)
    rtol = float(opts.get("slope_rtol", 0.02))
    checks, rows, csvs = [], [], {}
    for speed in speeds:
        params = replace(cfg.params, w=(0.0, 0.0, speed))
        v = profiles.profile_wavefunction(params, "v_limit")
        table = []
        for sigma in grid:
            res = pairing.pair(v, v, cfg.quadrature, r_bounds=(sigma, params.kappa))
            table.append((sigma, res.value.real, res.error_estimate))
        xs = [math.log(params.kappa / s) for s, _, _ in table]
        slope = _fit_slope(xs, [n for _, n, _ in table])
        oracle = params.alpha * profiles.angular_factor(speed)
        if speed == 0.0:
            ok = slope == 0.0
            checks.append(_check(f"zero-slope[v={speed:g}]", abs(slope), 0.0, ok))
        else:
            ok = abs(slope - oracle) <= rtol * oracle
            checks.append(
                _check(f"slope-matches-oracle[v={speed:g}]", abs(slope - oracle) / oracle, rtol, ok)
            )
        rows.append({"speed": speed, "slope": slope, "oracle": oracle})
        csvs[f"ir-divergence-v{speed:g}.csv"] = (
            ("sigma_lo", "shell_norm", "err"),
            [(s, n, e) for s, n, e in table],
        )
    return rows, checks, csvs


def _run_superselection_slope(cfg: ScenarioConfig, opts: dict):
    pairs = opts.get(
        "pairs", [[[0.0, 0.0, 0.3], [0.0, 0.0, 0.1]], [[0.0, 0.0, 0.2], [0.0, 0.0, 0.2]]]
    )
    grid = tuple(float(s) for s in opts.get("sigma_grid", (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)))
    rtol = float(opts.get("slope_rtol", 0.02))
    checks, rows, table = [], [], []
    for wa, wb in pairs:
        wa = tuple(float(c) for c in wa)
        wb = tuple(float(c) for c in wb)
        slope = profiles.pairwise_divergence_slope(cfg.params, wa, wb, grid, cfg.quadrature)
        oracle = cfg.params.alpha * profiles.pairwise_angular_factor(wa, wb)
        tag = f"w={wa}|w'={wb}"
        if wa == wb:
            ok = slope == 0.0
            checks.append(_check(f"zero-slope[{tag}]", abs(slope), 0.0, ok))
        else:
            ok = abs(slope - oracle) <= rtol * oracle
            checks.append(_check(f"slope-matches-oracle[{tag}]", abs(slope - oracle) / oracle, rtol, ok))
        rows.append({"w": wa, "w_prime": wb, "slope": slope, "oracle": oracle})
        table.append(tuple(wa) + tuple(wb) + (slope, oracle))
    csvs = {
        "superselection-slope.csv": (
            ("w_x", "w_y", "w_z", "wp_x", "wp_y", "wp_z", "slope", "oracle"),
            table,
        )
    }
    return rows, checks, csvs


def _run_difference_norm(cfg: ScenarioConfig, opts: dict):
    probes = sorted((float(s) for s in opts.get("sigma_probes", (1e-2, 1e-4, 1e-6))), reverse=True)
    rtol = float(opts.get("cauchy_rtol", 0.01))
    checks, rows, table = [], [], []
    results = {}
    for variant, params in (
        ("matched", cfg.params),
        ("violated", replace(cfg.params, g_scale=2.0)),
    ):
        diff = profiles.profile_wavefunction(params, "v_limit") - profiles.profile_wavefunction(params, "v_hat")
        norms = []
        for sigma in probes:
            res = pairing.pair(
                diff, diff, cfg.quadrature, r_bounds=(sigma, diff.truncation_radius)
            )
            norms.append(res.value.real)
            table.append((variant, sigma, res.value.real, res.error_estimate))
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


def _run_huyghens(cfg: ScenarioConfig, opts: dict):
    fields = cfg.field(opts.get("field", "probe"))
    rtol = float(opts.get("defect_rtol", 1e-5))
    cases = []
    if opts.get("include_v_hat", True):
        cases.append(("v_hat", None))
    T_list = [float(T) for T in opts.get("T_list", (1.0, 10.0))]
    if any(T <= 0 for T in T_list):
        # T = 0 is the empty window: a zero profile with pairing scale 0
        raise ValueError("T_list must be positive")
    cases.extend(("v_hat_T", T) for T in T_list)
    checks, rows, table = [], [], []
    for kind, T in cases:
        rep = pairing.huyghens_report(cfg.params, fields, kind, cfg.quadrature, T)
        ratio = abs(rep["defect"]) / rep["scale"]
        tag = kind if T is None else f"{kind}[T={T:g}]"
        checks.append(_check(f"defect[{tag}]", ratio, rtol, ratio <= rtol))
        rows.append({"kind": kind, "T": T, **rep})
        table.append(
            (kind, "inf" if T is None else T, rep["defect"], rep["scale"], ratio, rep["error_estimate"])
        )
    csvs = {"huyghens.csv": (("kind", "T", "defect", "scale", "ratio", "err"), table)}
    return rows, checks, csvs


def _run_limit_T(cfg: ScenarioConfig, opts: dict):
    fields = cfg.field(opts.get("field", "probe"))
    T_list = [float(T) for T in opts.get("T_list", (1.0, 10.0, 100.0))]
    study = pairing.limit_T_study(cfg.params, fields, T_list, cfg.quadrature)
    checks, table = [], []
    worst_identity = 0.0
    for row in study:
        resid = abs(row["total"] - (row["vhat"] + row["term2"] + row["term3"]))
        denom = max(abs(row["total"]), row["scale"] * 1e-3)
        worst_identity = max(worst_identity, resid / denom)
        table.append(
            (
                row["T"],
                row["total"].real,
                row["total"].imag,
                row["vhat"].real,
                row["vhat"].imag,
                abs(row["term2"]),
                abs(row["term3"]),
                row["err"],
            )
        )
    checks.append(_check("row-identity", worst_identity, 1e-10, worst_identity <= 1e-10))
    decay_pair = opts.get("decay_pair", (1.0, 100.0))
    factor = float(opts.get("decay_factor", 0.05))
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
        }
        for row in study
    ]
    csvs = {
        "limit-T.csv": (
            ("T", "total_re", "total_im", "vhat_re", "vhat_im", "term2_abs", "term3_abs", "err"),
            table,
        )
    }
    for T in opts.get("region_T", (3.0,)):
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
    """Shared-mesh spec for exact phase arithmetic.

    Oscillation metadata is ignored so every pairing of same-shape labels
    lands on one tensor mesh and the symplectic form is exactly bilinear in
    floating point; the fixed angular counts resolve the worst label offsets
    (validated against doubled meshes to ~1e-11 relative)."""
    return replace(
        base,
        oscillation_aware=False,
        r_min=max(base.r_min, 1e-3),
        r_max=min(base.r_max, 12.0),
        panels_per_decade=6,
        gauss_order=10,
        n_cos_theta=36,
        n_phi=24,
        rel_tol=max(base.rel_tol, 1e-4),
    )


def _run_weyl_laws(cfg: ScenarioConfig, opts: dict):
    n = int(opts.get("n_labels", 12))
    seed = int(opts.get("seed", 20240817))
    tol = float(opts.get("tolerance", 1e-10))
    rng = np.random.default_rng(seed)
    q = weyl_quadrature(cfg.quadrature)
    labels = weyl.gram_elements([photon_wavefunction(_random_label(rng)) for _ in range(n)], q)
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


def _locality_pair(conf: dict):
    # Oblique directions keep sigma from vanishing by symmetry alone: for an
    # electric 3-field against a magnetic 1-field with centres on the 3-axis,
    # conj(f1).f2 ~ sin(phi), so sigma is zero by parity at any separation
    # (causally connected too) and the check could not fail.
    radius = float(conf.get("radius", 0.81))
    fields = []
    for idx, center in enumerate(conf["centers"]):
        c = [float(v) for v in center]
        term = SeparableTerm(
            time=BumpProfile(c[0], 0.4),
            space=BumpProfile(0.0, 0.4),
            direction=(1.0, 1.0, 1.0) if idx == 0 else (1.0, -1.0, 1.0),
            channel="electric" if idx == 0 else "magnetic",
            position=tuple(c[1:4]),
        )
        support = DoubleCone(Point4(c[0], np.array(c[1:4])), radius)
        fields.append(TestFieldPair((term,), support))
    return fields


def _run_locality(cfg: ScenarioConfig, opts: dict):
    tol = float(opts.get("ratio_tol", 1e-6))
    q = locality_quadrature(cfg.quadrature)
    checks, rows, table = [], [], []
    for conf in opts.get("configurations", []):
        name = conf.get("name", "config")
        f1, f2 = _locality_pair(conf)
        relation = causally_separated(f1.support, f2.support)
        res = pairing.pair(photon_wavefunction(f1), photon_wavefunction(f2), q)
        sigma = abs(res.value.imag)
        ratio = sigma / res.scale
        ok = relation in ("spacelike", "timelike") and ratio <= tol
        checks.append(_check(f"sigma-vanishes[{name}]", ratio, tol, ok))
        rows.append({"name": name, "relation": relation, "sigma": sigma, "scale": res.scale})
        table.append((name, relation, sigma, res.scale, ratio))
    csvs = {
        "locality.csv": (("name", "relation", "sigma_abs", "scale", "ratio"), table)
    }
    return rows, checks, csvs


def _run_wave_appendix(cfg: ScenarioConfig, opts: dict):
    drift_rtol = float(opts.get("drift_rtol", 1e-6))
    t_list = [float(t) for t in opts.get("t_list", (0.0, 1.0, 2.0))]
    ws1 = wavecheck.WaveSolution(BumpProfile(0.0, 0.5))
    ws2 = wavecheck.WaveSolution(BumpProfile(0.0, 0.4, 1.3))
    checks, rows, table = [], [], []

    sample = np.array([[0.1, 0.0, 0.2], [0.0, 0.3, 0.0], [0.2, 0.2, 0.1]])
    ic_zero = float(np.max(np.abs(wavecheck.wave_evaluate(ws1, 0.0, sample))))
    checks.append(_check("initial-value-zero", ic_zero, 1e-12, ic_zero <= 1e-12))
    deriv = wavecheck.wave_time_derivative(ws1, 0.0, sample)
    target = ws1.initial_profile(np.linalg.norm(sample, axis=-1))
    ic_deriv = float(np.max(np.abs(deriv - target)))
    checks.append(_check("initial-slope-matches", ic_deriv, 1e-6, ic_deriv <= 1e-6))

    fraction = wavecheck.mass_outside_cone(ws1, max(t_list))
    checks.append(_check("mass-outside-cone", fraction, 1e-6, fraction <= 1e-6))

    drift = wavecheck.symplectic_time_invariance(ws1, ws2, t_list)
    checks.append(
        _check("symplectic-drift", drift["relative_drift"], drift_rtol, drift["relative_drift"] <= drift_rtol)
    )
    table.extend(
        [
            ("initial-value-zero", ic_zero, 1e-12),
            ("initial-slope-matches", ic_deriv, 1e-6),
            ("mass-outside-cone", fraction, 1e-6),
            ("symplectic-drift", drift["relative_drift"], drift_rtol),
        ]
    )
    rows.append({"drift": drift["rows"], "relative_drift": drift["relative_drift"]})

    if opts.get("include_halving", False):
        base = wavecheck.symplectic_time_invariance(ws1, ws2, (t_list[0], t_list[-1]))
        halved = wavecheck.symplectic_time_invariance(
            ws1, ws2, (t_list[0], t_list[-1]), spacing=base["spacing"] / 2.0
        )
        improvement = base["drift"] / max(halved["drift"], 1e-300)
        checks.append(_check("halving-improvement", improvement, 4.0, improvement >= 4.0))
        table.append(("halving-improvement", improvement, 4.0))
        rows.append({"halving": {"base": base["drift"], "halved": halved["drift"]}})

    bj_name = opts.get("bj_field")
    if bj_name:
        fields = cfg.field(bj_name)
        r = fields.support.radius
        frac_r = wavecheck.bj_support_check(fields, r)
        frac_2r = wavecheck.bj_support_check(fields, 2.0 * r)
        checks.append(_check("bj-outside[r]", frac_r, 1e-4, frac_r <= 1e-4))
        checks.append(_check("bj-outside[2r]", frac_2r, 1e-6, frac_2r <= 1e-6))
        table.append(("bj-outside-r", frac_r, 1e-4))
        table.append(("bj-outside-2r", frac_2r, 1e-6))
        rows.append({"bj": {"r": frac_r, "2r": frac_2r}})

    csvs = {"wave-appendix.csv": (("check", "value", "threshold"), table)}
    return rows, checks, csvs


_RUNNERS = {
    "ir-divergence": _run_ir_divergence,
    "superselection-slope": _run_superselection_slope,
    "difference-norm": _run_difference_norm,
    "huyghens": _run_huyghens,
    "limit-T": _run_limit_T,
    "weyl-laws": _run_weyl_laws,
    "locality": _run_locality,
    "wave-appendix": _run_wave_appendix,
}


def emit_plot_data(report: dict, output_dir: str | None = None) -> list:
    """Write each study's tabulated curves to CSV files.

    Consumes the in-memory ``tables`` of every study entry, records the
    emitted file names under ``csv_files``, and returns the written paths.
    """
    out_dir = output_dir or report["output_dir"]
    written = []
    for entry in report["studies"]:
        tables = entry.pop("tables", None) or {}
        for fname in sorted(tables):
            header, data = tables[fname]
            path = os.path.join(out_dir, fname)
            _write_csv(path, header, data)
            written.append(path)
        entry["csv_files"] = sorted(tables)
    return written


def run(config_path: str, output_dir: str | None = None) -> int:
    """Execute the configured studies; 0 iff every thresholded check passed."""
    try:
        cfg = parse_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = output_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    selected = {s["name"]: s for s in cfg.studies}
    report = {"config": config_path, "output_dir": out_dir, "studies": [],
              "all_pass": True}
    for name in STUDY_ORDER:
        if name not in selected:
            continue
        opts = {k: v for k, v in selected[name].items() if k != "name"}
        entry = {"name": name, "options": opts, "error": None}
        start = time.perf_counter()
        try:
            rows, checks, tables = _RUNNERS[name](cfg, opts)
            entry["rows"] = rows
            entry["checks"] = checks
            entry["pass"] = all(c["passed"] for c in checks)
            entry["tables"] = tables
        except (SoftconeError, ConfigError, ValueError) as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
            entry["pass"] = False
            entry["checks"] = []
        entry["wall_time_s"] = time.perf_counter() - start
        report["studies"].append(entry)
        report["all_pass"] = report["all_pass"] and entry["pass"]
    emit_plot_data(report)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if report["all_pass"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="softcone", description="Run infrared-dressing and lightcone studies."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute the studies of a YAML config")
    runp.add_argument("config")
    runp.add_argument("--output-dir", default=None)
    sub.add_parser("list-studies", help="print the canonical study order")
    sub.add_parser("emit-defaults", help="print the bundled default config")
    args = parser.parse_args(argv)
    if args.command == "list-studies":
        for name in STUDY_ORDER:
            print(name)
        return 0
    if args.command == "emit-defaults":
        sys.stdout.write(DEFAULT_CONFIG)
        return 0
    return run(args.config, args.output_dir)


if __name__ == "__main__":
    sys.exit(main())
