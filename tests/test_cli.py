import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np

import pytest
import yaml

from softcone import cli, studies

MINI_CONFIG = """\
params:
  alpha: 0.01
  w: [0.0, 0.0, 0.3]
quadrature:
  r_max: 40.0
fields:
  probe:
    support: {center: [5.0, 0.0, 0.0, 0.0], radius: 1.0}
    terms:
      - channel: electric
        time: {center: 5.0, halfwidth: 0.5}
        space: {halfwidth: 0.5}
output_dir: out
studies:
  - name: ir-divergence
    speeds: [0.0, 0.1]
    sigma_grid: [1.0e-2, 1.0e-3, 1.0e-4]
  - name: huyghens
    field: probe
    T_list: [1.0]
    include_v_hat: true
"""


def write_config(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return str(path)


def test_list_studies_prints_canonical_order(capsys):
    assert cli.main(["list-studies"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == list(studies.STUDIES)


def test_emit_defaults_is_valid_config(capsys):
    assert cli.main(["emit-defaults"]) == 0
    text = capsys.readouterr().out
    raw = yaml.safe_load(text)
    cfg = cli.ScenarioConfig(raw)
    assert [s["name"] for s in cfg.studies] == list(studies.STUDIES)


def test_run_mini_config(tmp_path, capsys):
    cfg = write_config(tmp_path, MINI_CONFIG)
    out_dir = str(tmp_path / "results")
    rc = cli.run(cfg, out_dir)
    assert rc == 0
    report = json.loads((tmp_path / "results" / "report.json").read_text())
    assert report["all_pass"] is True
    names = [s["name"] for s in report["studies"]]
    assert names == ["ir-divergence", "huyghens"]
    assert (tmp_path / "results" / "ir-divergence-v0.csv").exists()
    assert (tmp_path / "results" / "ir-divergence-v0.1.csv").exists()
    header = (tmp_path / "results" / "ir-divergence-v0.1.csv").read_text().splitlines()[0]
    assert header == "sigma_lo,shell_norm,err"


def test_run_respects_env_output_dir(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, MINI_CONFIG.replace("  - name: ir-divergence\n    speeds: [0.0, 0.1]\n    sigma_grid: [1.0e-2, 1.0e-3, 1.0e-4]\n", ""))
    env_dir = str(tmp_path / "from-env")
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, env_dir)
    rc = cli.run(cfg)
    assert rc == 0
    assert os.path.isdir(env_dir)
    assert os.path.exists(os.path.join(env_dir, "report.json"))


def test_parse_error_reports_line_number(tmp_path, capsys):
    path = write_config(tmp_path, "params:\n  alpha: [unclosed\n")
    rc = cli.run(path, str(tmp_path / "o"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert ":" in err  # position information from the parser


def test_unknown_study_rejected(tmp_path, capsys):
    for name in ("nonsense", "[ir-divergence]"):
        path = write_config(tmp_path, f"studies:\n  - name: {name}\n")
        rc = cli.run(path, str(tmp_path / "o"))
        assert rc == 2
        assert "unknown study" in capsys.readouterr().err


def test_duplicate_study_rejected(tmp_path, capsys):
    text = "studies:\n  - name: ir-divergence\n  - name: locality\n  - name: ir-divergence\n"
    rc = cli.run(write_config(tmp_path, text), str(tmp_path / "o"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "studies[2]" in err and "more than once" in err


def test_bare_string_study_rejected(tmp_path, capsys):
    text = "studies:\n  - name: locality\n  - ir-divergence\n"
    rc = cli.run(write_config(tmp_path, text), str(tmp_path / "o"))
    assert rc == 2
    assert "studies[1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "study",
    [
        "  - name: huyghens\n    field: probe\n    T_list: [0.0]\n    include_v_hat: false\n",
        "  - name: huyghens\n    field: probe\n    T_list: [-1.0]\n",
        "  - name: limit-T\n    field: probe\n    T_list: []\n",
        "  - name: limit-T\n    field: probe\n    T_list: [-1.0]\n",
        "  - name: limit-T\n    field: probe\n    T_list: [10.0, 1.0]\n",
    ],
    ids=["huyghens-empty-window", "huyghens-negative", "limit-T-empty", "limit-T-negative",
         "limit-T-descending"],
)
def test_window_list_rejected_at_parse_time(tmp_path, capsys, study):
    # T = 0 is the empty window (pairing scale 0), and limit-T needs its
    # windows in ascending order
    text = MINI_CONFIG.split("studies:")[0] + "studies:\n  - name: difference-norm\n" + study
    rc = cli.run(write_config(tmp_path, text), str(tmp_path / "o"))
    assert rc == 2
    assert "studies[1].T_list:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_valid_window_lists_parse(tmp_path):
    # an empty huyghens list stays valid next to include_v_hat
    text = MINI_CONFIG.split("studies:")[0] + (
        "studies:\n  - name: huyghens\n    field: probe\n    T_list: []\n"
        "  - name: limit-T\n    field: probe\n    T_list: [1.0, 10.0, 100.0]\n"
    )
    cfg = cli.parse_config(write_config(tmp_path, text))
    assert [s["T_list"] for s in cfg.studies] == [[], [1.0, 10.0, 100.0]]


def test_decay_pair_outside_windows_rejected(tmp_path, capsys):
    # term2-decay compares two rows of the study; a window it names that the
    # study does not run would leave only the row identity to check
    text = MINI_CONFIG.split("studies:")[0] + (
        "studies:\n  - name: difference-norm\n"
        "  - name: limit-T\n    field: probe\n    T_list: [1.0, 10.0]\n"
        "    decay_pair: [1.0, 50.0]\n"
    )
    rc = cli.run(write_config(tmp_path, text), str(tmp_path / "o"))
    assert rc == 2
    assert "studies[1].decay_pair:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_report_records_environment_and_config_hash(tmp_path, monkeypatch):
    # the BLAS thread settings are recorded because CSV identity holds only
    # at one setting
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    path = write_config(tmp_path, "params: {alpha: 0.01}\n")
    assert cli.run(path, str(tmp_path / "o")) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    with open(path, "rb") as fh:
        assert report["config_sha256"] == hashlib.sha256(fh.read()).hexdigest()
    assert report["environment"] == {"python": platform.python_version(),
                                     "numpy": np.__version__,
                                     "platform": "-".join(platform.uname()[i] for i in (0, 2, 4)),
                                     "OPENBLAS_NUM_THREADS": "1",
                                     "OMP_NUM_THREADS": None,
                                     "MKL_NUM_THREADS": "2"}


def test_limit_T_rows_report_one_node_count_at_every_T(tmp_path):
    # the carriers are integrated exactly, so the mesh of each row, and the
    # node count report.json gives for it, is the same from T = 1 to 10^4
    text = MINI_CONFIG.split("studies:")[0] + (
        "studies:\n  - name: limit-T\n    field: probe\n"
        "    T_list: [1.0, 10.0, 100.0, 1000.0, 10000.0]\n"
    )
    assert cli.run(write_config(tmp_path, text), str(tmp_path / "o")) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    (entry,) = report["studies"]
    counts = [row["node_count"] for row in entry["rows"]]
    assert len(counts) == 5 and counts[0] > 0
    assert counts == [counts[0]] * 5
    header = (tmp_path / "o" / "limit-T.csv").read_text().splitlines()[0]
    assert "node_count" not in header


def test_lightlike_velocity_rejected_at_parse_time(tmp_path, capsys):
    path = write_config(tmp_path, "params:\n  w: [0.0, 0.0, 1.0]\n")
    rc = cli.run(path, str(tmp_path / "o"))
    assert rc == 2
    assert "v_max" in capsys.readouterr().err


def test_empty_study_list_is_trivially_passing(tmp_path):
    path = write_config(tmp_path, "params: {alpha: 0.01}\n")
    rc = cli.run(path, str(tmp_path / "o"))
    assert rc == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["studies"] == []
    assert report["all_pass"] is True


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "softcone.cli", "list-studies"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "weyl-laws" in proc.stdout


def test_failing_threshold_sets_exit_code(tmp_path):
    # an ir-divergence slope check against a wrong oracle cannot pass;
    # simplest honest failure: demand an impossible tolerance via a
    # study option
    text = MINI_CONFIG.replace("sigma_grid: [1.0e-2, 1.0e-3, 1.0e-4]",
                               "sigma_grid: [1.0e-2, 1.0e-3, 1.0e-4]\n    slope_rtol: 1.0e-18")
    path = write_config(tmp_path, text)
    rc = cli.run(path, str(tmp_path / "o"))
    assert rc == 1
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    by_name = {s["name"]: s for s in report["studies"]}
    assert by_name["ir-divergence"]["pass"] is False
    assert by_name["huyghens"]["pass"] is True


def test_emit_plot_data_writes_tables_and_clears_them(tmp_path):
    report = {
        "output_dir": str(tmp_path),
        "studies": [
            {"name": "demo", "tables": {"demo.csv": (("a", "b"), [(1.0, 2.5)])}},
            {"name": "errored"},
        ],
    }
    written = cli.emit_plot_data(report)
    assert written == [str(tmp_path / "demo.csv")]
    assert (tmp_path / "demo.csv").read_text() == "a,b\n1.0,2.5\n"
    assert report["studies"][0]["csv_files"] == ["demo.csv"]
    assert "tables" not in report["studies"][0]
    assert report["studies"][1]["csv_files"] == []


def test_region_outline_lists_triangle_vertices(tmp_path):
    text = MINI_CONFIG + (
        "  - name: limit-T\n"
        "    field: probe\n"
        "    T_list: [1.0]\n"
        "    decay_pair: []\n"
        "    region_T: [3.0]\n"
    )
    path = write_config(tmp_path, text)
    out_dir = tmp_path / "results"
    assert cli.run(path, str(out_dir)) == 0
    got = (out_dir / "region-T3.csv").read_text()
    assert got == "t,tau\n0.0,0.0\n0.0,3.0\n3.0,3.0\n"


@pytest.mark.parametrize(
    "study, fragment",
    [
        ("  - name: locality\n    ratio_tol: 1.0e-6\n", "configurations"),
        ("  - name: huyghens\n    field: probe\n    T_list: []\n    include_v_hat: false\n",
         "include_v_hat"),
        ("  - name: weyl-laws\n    n_labels: 2\n", "n_labels"),
        # the default decay_pair [1, 100] names a window this T_list lacks
        ("  - name: limit-T\n    field: probe\n    T_list: [1.0, 10.0]\n", "decay_pair"),
    ],
    ids=["locality-without-configurations", "huyghens-empty", "weyl-laws-two-labels",
         "limit-T-default-decay-pair"],
)
def test_study_with_nothing_to_check_rejected(tmp_path, capsys, study, fragment):
    text = MINI_CONFIG.split("studies:")[0] + "studies:\n  - name: ir-divergence\n" + study
    rc = cli.run(write_config(tmp_path, text), str(tmp_path / "o"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "studies[1]" in err and fragment in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "study, key",
    [
        ("  - name: ir-divergence\n    speeds: []\n", "speeds"),
        ("  - name: superselection-slope\n    pairs: []\n", "pairs"),
        ("  - name: ir-divergence\n    sigma_grid: [1.0e-3]\n", "sigma_grid"),
        ("  - name: superselection-slope\n    sigma_grid: [1.0e-3, 0.001]\n", "sigma_grid"),
        ("  - name: difference-norm\n    sigma_probes: [1.0e-2]\n", "sigma_probes"),
    ],
    ids=["no-speeds", "no-pairs", "one-sigma", "one-distinct-sigma", "one-probe"],
)
def test_study_with_nothing_to_fit_rejected(tmp_path, capsys, study, key):
    # a slope or a spread needs two distinct points, and a study over no
    # speeds or pairs runs no check at all
    text = MINI_CONFIG.split("studies:")[0] + "studies:\n" + study
    rc = cli.run(write_config(tmp_path, text), str(tmp_path / "o"))
    assert rc == 2
    assert f"studies[0].{key}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "centers",
    ["", "        centers: [[0.0, 0.0, 0.0, 4.0]]\n",
     "        centers: [[0.0, 0.0, 0.0, 4.0], [0.0, 0.0, 0.0, -4.0], [1.0, 0.0, 0.0, 0.0]]\n"],
    ids=["missing", "one", "three"],
)
def test_locality_configuration_needs_two_centers(tmp_path, capsys, centers):
    text = (
        "studies:\n  - name: locality\n    configurations:\n"
        "      - {name: ok, centers: [[0.0, 0.0, 0.0, 4.0], [0.0, 0.0, 0.0, -4.0]]}\n"
        "      - name: bad\n" + centers
    )
    rc = cli.run(write_config(tmp_path, text), str(tmp_path / "o"))
    assert rc == 2
    assert "studies[0].configurations[1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "conf, key",
    [
        ("centers: [[0.0, 0.0, 0.0, 4.0], [0.0, 0.0, 0.0, -4.0]], radius: null", "radius"),
        ("centers: [[0.0, 0.0, 0.0, 4.0], [0.0, 0.0, 0.0, -4.0]], radius: 0.5", "radius"),
        ("centers: [[0.0, 0.0, zero, 4.0], [0.0, 0.0, 0.0, -4.0]]", "centers"),
        ("centers: [[0.0, 0.0, 4.0], [0.0, 0.0, 0.0, -4.0]]", "centers"),
    ],
    ids=["null-radius", "radius-below-reach", "word-in-centers", "short-center"],
)
def test_locality_numbers_checked_at_parse_time(tmp_path, capsys, conf, key):
    # a null radius or a word in the centers must not reach the study
    text = (
        "studies:\n  - name: locality\n    configurations:\n"
        "      - {name: ok, centers: [[0.0, 0.0, 0.0, 4.0], [0.0, 0.0, 0.0, -4.0]], radius: 0.81}\n"
        "      - {name: bad, " + conf + "}\n"
    )
    rc = cli.run(write_config(tmp_path, text), str(tmp_path / "o"))
    assert rc == 2
    assert f"studies[0].configurations[1].{key}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "study, key",
    [
        ("  - name: huyghens\n    field: probe\n    T_list:\n    include_v_hat: true\n", "T_list"),
        ("  - name: ir-divergence\n    sigma_grid: [1.0e-2, small]\n", "sigma_grid"),
        ("  - name: limit-T\n    field: probe\n    decay_pair: [1.0]\n", "decay_pair"),
        ("  - name: superselection-slope\n    pairs: [[[0.0, 0.0, 0.3], [0.0, 0.1]]]\n", "pairs"),
        ("  - name: wave-appendix\n    t_list: 2.0\n", "t_list"),
        ("  - name: wave-appendix\n    t_list: []\n", "t_list"),
        ("  - name: wave-appendix\n    t_list: [1.0]\n", "t_list"),
        ("  - name: wave-appendix\n    t_list: [1.0, 1.0]\n", "t_list"),
        ("  - name: weyl-laws\n    n_labels: 1e9\n", "n_labels"),
        ("  - name: ir-divergence\n    speeds: [0.1, 0.95]\n", "speeds[1]"),
        ("  - name: superselection-slope\n    pairs: [[[0.0, 0.0, 0.3], [0.0, 0.7, 0.7]]]\n",
         "pairs[0]"),
    ],
    ids=["null-T_list", "word-in-sigma_grid", "one-decay-time", "short-velocity", "scalar-t_list",
         "empty-t_list", "one-time-t_list", "one-distinct-time-t_list", "n_labels-as-string",
         "speed-above-v_max", "pair-above-v_max"],
)
def test_malformed_list_option_rejected(tmp_path, capsys, study, key):
    text = MINI_CONFIG.split("studies:")[0] + "studies:\n  - name: difference-norm\n" + study
    rc = cli.run(write_config(tmp_path, text), str(tmp_path / "o"))
    assert rc == 2
    assert f"studies[1].{key}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "study, key",
    [
        ("  - name: ir-divergence\n    sigma_grid: [0, 1.0e-3]\n", "sigma_grid"),
        ("  - name: difference-norm\n    sigma_probes: [-1, 1.0e-3]\n", "sigma_probes"),
    ],
    ids=["zero-sigma", "negative-sigma-probe"],
)
def test_nonpositive_sigma_rejected(tmp_path, capsys, study, key):
    # a shell [sigma, kappa] needs sigma > 0
    text = MINI_CONFIG.split("studies:")[0] + "studies:\n" + study
    rc = cli.run(write_config(tmp_path, text), str(tmp_path / "o"))
    assert rc == 2
    assert f"studies[0].{key}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "study, key",
    [
        ("  - name: ir-divergence\n    sigma_grid: [2.0, 1.0e-3]\n", "sigma_grid[0]"),
        ("  - name: superselection-slope\n    sigma_grid: [1.0e-3, 1.0]\n", "sigma_grid[1]"),
        ("  - name: difference-norm\n    sigma_probes: [1.0e-2, 1.0e3]\n", "sigma_probes[1]"),
    ],
    ids=["sigma-above-kappa", "sigma-at-kappa", "probe-above-kappa"],
)
def test_sigma_at_or_above_kappa_rejected(tmp_path, capsys, study, key):
    # every sigma-shell study takes sigma below kappa (1 here)
    text = MINI_CONFIG.split("studies:")[0] + "studies:\n" + study
    rc = cli.run(write_config(tmp_path, text), str(tmp_path / "o"))
    assert rc == 2
    assert f"studies[0].{key}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "block",
    ["params:\n  g: {}\n", "quadrature:\n  n_phi: 2.5\n"],
    ids=["g-without-halfwidth", "fractional-n_phi"],
)
def test_malformed_parameter_block_rejected(tmp_path, capsys, block):
    # a missing key or a count that is not an integer must not reach the
    # studies as a traceback
    text = block + "studies:\n  - name: difference-norm\n"
    rc = cli.run(write_config(tmp_path, text), str(tmp_path / "o"))
    assert rc == 2
    assert "invalid parameter block" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_study_option_rejected(tmp_path, capsys):
    text = "studies:\n  - name: weyl-laws\n    n_labels: 3\n    tolernce: 1.0e-10\n"
    rc = cli.run(write_config(tmp_path, text), str(tmp_path / "o"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "studies[0]" in err and "'tolernce'" in err


@pytest.mark.parametrize(
    "fields, study, key",
    [
        ("probe", "  - name: huyghens\n    field: nosuch\n    T_list: [1.0]\n", "field"),
        ("other", "  - name: huyghens\n    T_list: [1.0]\n", "field"),
        ("other", "  - name: limit-T\n    T_list: [1.0]\n", "field"),
        ("probe", "  - name: wave-appendix\n    bj_field: nosuch\n", "bj_field"),
    ],
    ids=["named", "huyghens-default-probe", "limit-T-default-probe", "bj_field"],
)
def test_undefined_field_rejected(tmp_path, capsys, fields, study, key):
    head = MINI_CONFIG.split("studies:")[0].replace("  probe:", f"  {fields}:")
    text = head + "studies:\n  - name: difference-norm\n" + study
    rc = cli.run(write_config(tmp_path, text), str(tmp_path / "o"))
    assert rc == 2
    assert f"studies[1].{key}: no field named" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
