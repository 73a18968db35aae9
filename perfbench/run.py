"""Benchmark of `softcone run`: one workload, several fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's config (made from the seed) and runs `softcone run` on
it in fresh processes, one at a time, for about S seconds.  Every process
pays the lazy set-up a user pays (Gauss rules, window transforms, truncation
scans).  With --trace 0 the processes run untraced, with short set-up-only
processes in between; the result carries the medians of setup_s, solve_s
and peak_rss_mb.  With --trace 1 untraced and traced processes alternate;
the result carries the per-layer figures of the traced ones (medians) and
trace.overhead_s, the traced minus the untraced median solve time.

Afterwards the outputs of every process are checked against independent
references (checks.py), and softcone's functions are called once on
seed-drawn inputs.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  All files go to
.perfbench-out/ at the root of the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, check_seed, make_config  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
MIN_PROCESSES = 3        # untraced workload processes per run, at least
SETUP_PER_ROUND = 2      # set-up-only processes before each untraced one
MIN_PAIRS = 2            # untraced + traced pairs per traced run, at least
PROCESS_TIMEOUT_S = 150.0
# One BLAS thread per process: one workload process runs at a time, and a
# fixed count keeps summation order, hence the CSV bytes, the same on any
# machine.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(Exception):
    pass


def launch(config: str, out: str, mode: str) -> dict:
    """Run one workload process and return its timings."""
    os.makedirs(out)
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, ROOT, config, out, mode],
                            stdout=sys.stderr, env=dict(os.environ, **BLAS_ENV))
    try:
        proc.wait(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} process in {out} exceeded {PROCESS_TIMEOUT_S:g} s")
    path = os.path.join(out, "timing.json")
    if not os.path.exists(path):
        raise BenchError(f"{mode} process in {out} ended with status {proc.returncode} and no timings")
    with open(path) as fh:
        marks = json.load(fh)
    if "t_parsed" not in marks:
        raise BenchError(f"{mode} process in {out} ended with status {proc.returncode} before the config was parsed")
    return {
        "out": out,
        "mode": mode,
        "rc": proc.returncode,
        "setup_s": marks["t_parsed"] - t_spawn,
        "solve_s": marks["t_end"] - marks["t_parsed"],
        "peak_rss_mb": marks["peak_rss_mb"],
    }


def measure(config: str, work: str, seconds: float, trace: bool) -> tuple:
    """(full workload processes, set-up-only processes) run for about `seconds`."""
    full, setup = [], []
    rounds = []
    t0 = time.monotonic()
    while True:
        start = time.monotonic()
        i = len(rounds)
        if trace:
            full.append(launch(config, os.path.join(work, f"run-{i:03d}"), "run"))
            full.append(launch(config, os.path.join(work, f"trace-{i:03d}"), "trace"))
        else:
            for j in range(SETUP_PER_ROUND):
                setup.append(launch(config, os.path.join(work, f"setup-{i:03d}-{j}"), "setup"))
            full.append(launch(config, os.path.join(work, f"run-{i:03d}"), "run"))
        rounds.append(time.monotonic() - start)
        elapsed = time.monotonic() - t0
        if len(rounds) >= (MIN_PAIRS if trace else MIN_PROCESSES) and (
            elapsed + statistics.median(rounds) > seconds
        ):
            return full, setup


def run_checks(workload: str, config: dict, seed: int, processes: list) -> list:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks

    oracle = checks.output_oracle(workload, config)
    results = []
    reference = None
    for proc in processes:
        report, csvs = checks.read_outputs(proc["out"])
        results.append(checks.check_exit(proc["rc"], report))
        if report is None:
            continue
        try:
            results.extend(checks.output_checks(workload, config, report, csvs, oracle))
        except (KeyError, ValueError, StopIteration) as exc:
            results.append(checks.Check("outputs-readable", False, f"{type(exc).__name__}: {exc}"))
        if reference is None:
            reference = csvs
        else:
            results.append(checks.check_csv_identity(reference, csvs))
    results.extend(checks.library_checks(workload, config, check_seed(workload, seed)))
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "softcone", "cli.py")):
        print(f"no softcone sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    import yaml

    work = os.path.join(ROOT, ".perfbench-out", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = make_config(args.workload, args.seed)
    config_path = os.path.join(work, "config.yaml")
    with open(config_path, "w") as fh:
        yaml.safe_dump(config, fh, sort_keys=False)

    try:
        full, setup = measure(config_path, work, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    results = run_checks(args.workload, config, args.seed, full)
    failed = [c for c in results if not c.ok]
    for c in failed:
        print(f"FAILED {c.name}: {c.detail}", file=sys.stderr)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed; "
          f"{len(full)} workload processes, {len(setup)} set-up-only", file=sys.stderr)

    untraced = [p for p in full if p["mode"] == "run"]
    if args.trace:
        metrics = traced_metrics(full)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(p["setup_s"] for p in setup + untraced), "unit": "s"},
            "solve_s": {"value": statistics.median(p["solve_s"] for p in untraced), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in untraced), "unit": "MB"},
        }
    print(json.dumps({"correct": not failed, "attempted": len(results), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def traced_metrics(full: list) -> dict:
    from spans import PER_LAYER, layer_metrics

    untraced = [p for p in full if p["mode"] == "run"]
    traced = [p for p in full if p["mode"] == "trace"]
    per_process = []
    for run, tr in zip(untraced, traced):
        with open(os.path.join(tr["out"], "trace.json")) as fh:
            trace = json.load(fh)
        with open(os.path.join(run["out"], "report.json")) as fh:
            report = json.load(fh)
        per_process.append(layer_metrics(trace, report))
    overhead = statistics.median(p["solve_s"] for p in traced) - statistics.median(
        p["solve_s"] for p in untraced)
    metrics = {}
    for name, unit in PER_LAYER:
        value = overhead if name == "trace.overhead_s" else statistics.median(m[name] for m in per_process)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
