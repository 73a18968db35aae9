"""perfbench's traced workload process (`child.py ... trace`) still runs.

The tracer rebinds and wraps softcone's private names (`_accumulate`, the
bump transforms' `__call__`, `radial_mesh`, ...), so a change to one of them
can break `perfbench/run.py --trace 1` without any other test noticing.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
PAIRING_WORKLOADS = ("ir-shells", "cone-window", "field-algebra")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def _node_sum(spans, name, attr):
    return sum((attrs or {}).get(attr, 0) for span_name, _, _, _, attrs in spans if span_name == name)


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_traced_workload_process_runs(tmp_path, workload):
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(WORKLOADS.make_config(workload, 1), sort_keys=False))
    out = tmp_path / "out"
    out.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(ROOT), str(config),
                           str(out), "trace"], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    spans = json.loads((out / "trace.json").read_text())["spans"]
    assert spans
    if workload in PAIRING_WORKLOADS:
        assert _node_sum(spans, "pairing.accumulate", "nodes") > 0
        assert _node_sum(spans, "quadrature.radial_mesh", "nodes") > 0
    if workload == "cone-window":
        for name in ("testfields.radial_transform", "testfields.time_transform"):
            assert _node_sum(spans, name, "points") > 0
