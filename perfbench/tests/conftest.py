import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pytest  # noqa: E402
import yaml  # noqa: E402

SEED = 3


@pytest.fixture(scope="session")
def outputs(tmp_path_factory):
    """workload -> (config, exit status, report, {csv name: bytes}) of one
    in-process `softcone run` of the workload's config for SEED."""
    import checks
    from softcone import cli
    from workloads import make_config

    cache = {}

    def get(workload):
        if workload not in cache:
            d = tmp_path_factory.mktemp(workload)
            config = make_config(workload, SEED)
            path = d / "config.yaml"
            path.write_text(yaml.safe_dump(config, sort_keys=False))
            rc = cli.run(str(path), str(d / "out"))
            report, csvs = checks.read_outputs(str(d / "out"))
            cache[workload] = (config, rc, report, csvs)
        return cache[workload]

    return get
