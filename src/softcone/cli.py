"""Scenario runner: parse a YAML config, execute named studies, write reports.

Studies always execute in a fixed canonical order and every numeric output
path (node generation, summation order, float formatting) is deterministic,
so identical configs produce byte-identical CSV files.  The JSON report
carries rows, error estimates and pass/fail per declared threshold; the exit
status is 0 exactly when all thresholded checks pass.  The studies
themselves live in `softcone.studies`.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np
import yaml

from . import studies
from .errors import SoftconeError
from .geometry import DoubleCone, Point4
from .profiles import DressingParams
from .quadrature import QuadratureSpec
# perfbench/checks.py builds the locality and Weyl meshes through these names
from .studies import locality_quadrature, weyl_quadrature  # noqa: F401
from .testfields import BumpProfile, SeparableTerm, TestFieldPair

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


def _validate_study(where: str, entry: dict, params: DressingParams, fields: dict):
    """Reject options a study does not read or cannot run, a field name that
    names no field, a velocity faster than ``params.v_max``, a sigma at or
    above ``params.kappa``, and a study that would check nothing: a verdict
    over no checks would pass whatever the program does."""
    name = entry["name"]
    options = studies.STUDY_OPTIONS[name]
    for key, value in entry.items():
        if key == "name":
            continue
        if key not in options:
            raise ConfigError(
                f"{where}: unknown option {key!r} for {name}; it reads {', '.join(options)}"
            )
        (valid, expected), _ = options[key]
        if not valid(value):
            raise ConfigError(f"{where}.{key}: expected {expected}, got {value!r}")
    opts = studies.with_defaults(name, {k: v for k, v in entry.items() if k != "name"})
    # huyghens and limit-T read their field; wave-appendix reads bj_field when set
    for key in ("field", "bj_field"):
        if key in opts and (key == "field" or opts[key]) and opts[key] not in fields:
            raise ConfigError(
                f"{where}.{key}: no field named {opts[key]!r}; "
                f"fields: {', '.join(map(str, fields)) or 'none'}"
            )
    velocities = []
    if name == "ir-divergence":
        velocities = [("speeds", j, (0.0, 0.0, v)) for j, v in enumerate(opts["speeds"])]
    elif name == "superselection-slope":
        velocities = [("pairs", j, w) for j, pair in enumerate(opts["pairs"]) for w in pair]
    for key, j, w in velocities:
        try:
            replace(params, w=tuple(float(c) for c in w))
        except ValueError as exc:
            raise ConfigError(f"{where}.{key}[{j}]: {exc}") from exc
    # one rule for the three sigma-shell studies: their shells lie below kappa
    for key in ("sigma_grid", "sigma_probes"):
        for j, sigma in enumerate(opts.get(key, ())):
            if float(sigma) >= params.kappa:
                raise ConfigError(
                    f"{where}.{key}[{j}]: sigma {sigma!r} is not below params.kappa = {params.kappa!r}"
                )
    if name == "locality":
        confs = opts["configurations"]
        if not confs:
            raise ConfigError(f"{where}: locality needs at least one entry in 'configurations'")
        reach = 2.0 * studies.LOCALITY_HALFWIDTH
        for j, conf in enumerate(confs):
            at = f"{where}.configurations[{j}]"
            if not isinstance(conf, dict):
                raise ConfigError(f"{at}: expected a mapping with 'centers', got {conf!r}")
            centers = conf.get("centers")
            if not (isinstance(centers, list) and len(centers) == 2
                    and all(studies._is_numbers(c, (4,)) for c in centers)):
                raise ConfigError(
                    f"{at}.centers: expected two points [t, x, y, z] of numbers, got {centers!r}"
                )
            radius = conf.get("radius", reach)
            if not (studies._is_number(radius) and reach <= float(radius) < np.inf):
                raise ConfigError(
                    f"{at}.radius: expected a finite number >= {reach:g} "
                    f"(the reach of the locality fields), got {radius!r}"
                )
    elif name == "huyghens":
        if not opts["T_list"] and not opts["include_v_hat"]:
            raise ConfigError(f"{where}: huyghens with an empty T_list needs include_v_hat")
    elif name == "limit-T" and opts["decay_pair"]:
        windows = {float(T) for T in opts["T_list"]}
        missing = [T for T in opts["decay_pair"] if float(T) not in windows]
        if missing:
            raise ConfigError(
                f"{where}.decay_pair: windows {missing} of {opts['decay_pair']} are not in "
                f"T_list {opts['T_list']}; term2-decay compares two of its rows"
            )


class ScenarioConfig:
    """Validated scenario: profile params, quadrature, fields, study list."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("top level must be a mapping")
        try:
            self.params = _build_params(raw.get("params", {}))
            self.quadrature = _build_quadrature(raw.get("quadrature", {}))
        except (KeyError, TypeError, ValueError) as exc:
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
            if not (isinstance(name, str) and name in studies.STUDIES):
                raise ConfigError(f"{where}: unknown study {name!r}; see list-studies")
            if any(s["name"] == name for s in self.studies):
                raise ConfigError(f"{where}: study {name!r} is listed more than once")
            self.studies.append(dict(entry))
        for idx, entry in enumerate(self.studies):
            _validate_study(f"studies[{idx}]", entry, self.params, self.fields)


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


def _provenance(config_bytes: bytes) -> dict:
    """The config's sha256 and the run's environment, for report.json.  The
    BLAS thread settings are recorded (None where unset) because a product
    split across threads may sum in another order: the CSVs are byte-identical
    only between runs with the same settings."""
    # imported once the studies are done: hashlib maps OpenSSL, a few MB that
    # would otherwise add to the run's peak memory
    import hashlib
    import platform

    # platform.platform() would also run `uname -p`, about 10 ms
    host = platform.uname()
    return {
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "platform": f"{host.system}-{host.release}-{host.machine}",
                        **{name: os.environ.get(name) for name in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
    }


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
    with open(config_path, "rb") as fh:
        config_bytes = fh.read()
    report = {"config": config_path, "output_dir": out_dir, "studies": [],
              "all_pass": True}
    for name, study in studies.STUDIES.items():
        if name not in selected:
            continue
        opts = {k: v for k, v in selected[name].items() if k != "name"}
        entry = {"name": name, "options": opts, "error": None}
        start = time.perf_counter()
        try:
            rows, checks, tables = study(cfg.params, cfg.quadrature, cfg.fields, opts)
            entry["rows"] = rows
            entry["checks"] = checks
            entry["pass"] = all(c["passed"] for c in checks)
            entry["tables"] = tables
        except (SoftconeError, ValueError) as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
            entry["pass"] = False
            entry["checks"] = []
        entry["wall_time_s"] = time.perf_counter() - start
        report["studies"].append(entry)
        report["all_pass"] = report["all_pass"] and entry["pass"]
    report.update(_provenance(config_bytes))
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
        for name in studies.STUDIES:
            print(name)
        return 0
    if args.command == "emit-defaults":
        sys.stdout.write(DEFAULT_CONFIG)
        return 0
    return run(args.config, args.output_dir)


if __name__ == "__main__":
    sys.exit(main())
