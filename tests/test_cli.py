import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np

import pytest
import yaml

from softcone import cli, quadrature, studies
from softcone.errors import SoftconeError
from softcone.pairing import build_mesh
from softcone.quadrature import QuadratureSpec
from softcone.testfields import photon_wavefunction

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


def test_locality_rows_report_their_node_count(tmp_path):
    # each row gives the coarse plus fine mesh of its pair: the spacelike
    # pair has a stationary direction, which raises its angular rule
    confs = {"spacelike": [[0.0, 0.0, 0.0, 4.0], [0.0, 0.0, 0.0, -4.0]],
             "timelike": [[5.0, 0.0, 0.0, 0.0], [-5.0, 0.0, 0.0, 0.0]]}
    text = MINI_CONFIG.split("studies:")[0] + "studies:\n  - name: locality\n    configurations:\n" + "".join(
        f"      - {{name: {name}, centers: {centers}}}\n" for name, centers in confs.items())
    assert cli.run(write_config(tmp_path, text), str(tmp_path / "o")) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    (entry,) = report["studies"]
    q = studies.locality_quadrature(QuadratureSpec(r_max=40.0))
    counts = {}
    for row in entry["rows"]:
        f1, f2 = (photon_wavefunction(f) for f in studies._locality_pair({"centers": confs[row["name"]]}))
        assert row["node_count"] == sum(build_mesh(level, f1, f2).node_count for level in (q, q.refined()))
        counts[row["name"]] = row["node_count"]
    assert counts["spacelike"] > counts["timelike"] > 0
    header = (tmp_path / "o" / "locality.csv").read_text().splitlines()[0]
    assert "node_count" not in header


def test_speeds_with_one_csv_name_rejected(tmp_path, capsys):
    text = (MINI_CONFIG.split("studies:")[0]
            + "studies:\n  - name: ir-divergence\n    speeds: [0.1, 0.3, 0.3000001]\n")
    assert cli.run(write_config(tmp_path, text), str(tmp_path / "o")) == 2
    assert ("studies[0].speeds[2]: speed 0.3000001 writes ir-divergence-v0.3.csv, "
            "as speeds[1] = 0.3 does") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_speed_runs_against_the_oracle_of_its_magnitude(tmp_path):
    # a speed on the negative 3-axis is a velocity with |w| <= v_max
    text = (MINI_CONFIG.split("studies:")[0] + "studies:\n  - name: ir-divergence\n"
            "    speeds: [-0.3, 0.3]\n    sigma_grid: [1.0e-2, 1.0e-4]\n")
    assert cli.run(write_config(tmp_path, text), str(tmp_path / "o")) == 0
    (study,) = json.loads((tmp_path / "o" / "report.json").read_text())["studies"]
    assert [c["passed"] for c in study["checks"]] == [True, True]
    assert study["rows"][0]["oracle"] == study["rows"][1]["oracle"]
    assert study["csv_files"] == ["ir-divergence-v-0.3.csv", "ir-divergence-v0.3.csv"]


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
    # simplest honest failure: demand an impossible tolerance via a study
    # option.  The Huyghens defect is a quadrature residual (about 1e-10 of
    # the scale here), never 0; a slope can match its oracle to the last bit.
    text = MINI_CONFIG.replace("include_v_hat: true",
                               "include_v_hat: true\n    defect_rtol: 1.0e-18")
    path = write_config(tmp_path, text)
    rc = cli.run(path, str(tmp_path / "o"))
    assert rc == 1
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    by_name = {s["name"]: s for s in report["studies"]}
    assert by_name["huyghens"]["pass"] is False
    assert by_name["ir-divergence"]["pass"] is True


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
        # a name that is not a string broke the CSV row after every study ran
        ("name: [1], centers: [[0.0, 0.0, 0.0, 4.0], [0.0, 0.0, 0.0, -4.0]]", "name"),
    ],
    ids=["null-radius", "radius-below-reach", "word-in-centers", "short-center", "name-as-list"],
)
def test_locality_numbers_checked_at_parse_time(tmp_path, capsys, conf, key):
    # a null radius or a word in the centers must not reach the study
    text = (
        "studies:\n  - name: locality\n    configurations:\n"
        "      - {name: ok, centers: [[0.0, 0.0, 0.0, 4.0], [0.0, 0.0, 0.0, -4.0]], radius: 0.81}\n"
        "      - {" + conf + "}\n"
    )
    rc = cli.run(write_config(tmp_path, text), str(tmp_path / "o"))
    assert rc == 2
    assert f"studies[0].configurations[1].{key}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# a magnetic field off the origin, which wave-appendix's bj_field cannot take
OFFSET_FIELD = """\
  offset:
    support: {center: [0.0, 0.0, 0.0, 0.0], radius: 1.0}
    terms:
      - channel: magnetic
        time: {center: 0.0, halfwidth: 0.2}
        space: {halfwidth: 0.2}
        position: [0.0, 0.0, 0.3]
"""


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
        # 3.64 PiB of radius classes at the parent; refused before any grid
        ("  - name: wave-appendix\n    t_list: [0.0, 1.0e6]\n", "t_list"),
        ("  - name: wave-appendix\n    t_list: [0.0, 10.0]\n", "t_list"),
        ("  - name: wave-appendix\n    t_list: [0.0, 2.5]\n    include_halving: true\n", "t_list"),
        ("  - name: weyl-laws\n    seed: -5\n", "seed"),
        ("  - name: weyl-laws\n    seed: 1.5\n", "seed"),
        ("  - name: wave-appendix\n    bj_field: probe\n", "bj_field"),
        ("  - name: wave-appendix\n    bj_field: offset\n", "bj_field"),
        # inf and NaN are numbers to float(); each ended in a traceback, a
        # study error or a check that fails whatever the program does
        ("  - name: huyghens\n    field: probe\n    T_list: [.inf]\n", "T_list"),
        ("  - name: limit-T\n    field: probe\n    T_list: [1.0, .inf]\n", "T_list"),
        ("  - name: wave-appendix\n    t_list: [0.0, .inf]\n", "t_list"),
        ("  - name: wave-appendix\n    t_list: [0.0, .nan]\n", "t_list"),
        ("  - name: ir-divergence\n    speeds: [.nan]\n", "speeds"),
        ("  - name: ir-divergence\n    slope_rtol: .nan\n", "slope_rtol"),
        # both speeds would write ir-divergence-v0.3.csv
        ("  - name: ir-divergence\n    speeds: [0.3, 0.3000001]\n", "speeds[1]"),
    ],
    ids=["null-T_list", "word-in-sigma_grid", "one-decay-time", "short-velocity", "scalar-t_list",
         "empty-t_list", "one-time-t_list", "one-distinct-time-t_list", "n_labels-as-string",
         "speed-above-v_max", "pair-above-v_max", "t_list-of-a-million", "t_list-of-ten",
         "halving-t_list-of-2.5", "negative-seed", "fractional-seed", "bj_field-without-magnetic-term",
         "bj_field-off-origin", "infinite-window", "infinite-limit-T-window", "infinite-t_list",
         "nan-in-t_list", "nan-speed", "nan-slope_rtol", "speeds-with-one-csv-name"],
)
def test_malformed_list_option_rejected(tmp_path, capsys, study, key):
    head = MINI_CONFIG.split("studies:")[0].replace("fields:\n", "fields:\n" + OFFSET_FIELD)
    text = head + "studies:\n  - name: difference-norm\n" + study
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
    "block, where",
    [
        ("params:\n  g: {}\n", ""),
        ("quadrature:\n  n_phi: 2.5\n", ""),
        ("quadrature:\n  oscillation_aware: false\n", "quadrature.oscillation_aware:"),
        ("quadrature:\n  n_phy: 8\n", "quadrature.n_phy: unknown key; it takes r_min,"),
        ("params:\n  kapa: 1.0\n", "params.kapa: unknown key; it takes alpha,"),
        ("params:\n  g_scale: 0\n", "g_scale must be finite and nonzero"),
        ("params:\n  g: {halfwidth: 1.0, amplitude: 0.0}\n", "g.amplitude must be nonzero"),
        ("params:\n  kappa: .inf\n", "kappa must be a finite number"),
        ("params:\n  g: {halfwidth: .inf}\n", "halfwidth must be a finite number"),
        ("params:\n  alpha: .inf\n", "alpha must be a finite number"),
        ("params:\n  u: .inf\n", "u must be a finite number"),
        ("params:\n  w: [0.0, .nan, 0.3]\n", "w must be finite"),
        ("quadrature:\n  abs_tol: x\n", "abs_tol must be a finite number"),
        ("quadrature:\n  phi_offset: x\n", "phi_offset must be a finite number"),
        ("quadrature:\n  rel_tol: -1\n", "rel_tol must be nonnegative"),
        # a zero tolerance fails every refinement check as a study error
        ("quadrature:\n  abs_tol: 0\n  rel_tol: 0\n", "not both 0"),
        ("params:\n  g: {center: 0.5, halfwidth: 1.0}\n", "window profile must be radial"),
        # a Gauss rule of this order would build n^2 Legendre values
        ("quadrature:\n  gauss_order: 20000\n", "gauss_order must be at most"),
        # bool is an Integral: true ran as 1 panel per decade or crashed in
        # the angular mesh
        ("quadrature:\n  n_phi: true\n", "counts must be integers"),
        ("quadrature:\n  panels_per_decade: true\n", "counts must be integers"),
        ("quadrature:\n  gauss_order: true\n", "counts must be integers"),
        ("quadrature:\n  n_cos_theta: false\n", "counts must be integers"),
    ],
    ids=["g-without-halfwidth", "fractional-n_phi", "oscillation-aware-off",
         "unknown-quadrature-key", "unknown-params-key", "zero-g_scale", "zero-window-amplitude",
         "infinite-kappa", "infinite-window-halfwidth", "infinite-alpha", "infinite-u", "nan-in-w",
         "word-abs_tol", "word-phi_offset", "negative-rel_tol", "zero-tolerances",
         "window-center", "huge-gauss_order", "boolean-n_phi", "boolean-panels_per_decade",
         "boolean-gauss_order", "boolean-n_cos_theta"],
)
def test_malformed_parameter_block_rejected(tmp_path, capsys, block, where, monkeypatch):
    # a missing key, a count that is not an integer, the removed Gauss-only
    # switch, a misspelt key, a number that is not finite or a negative
    # tolerance must not reach the studies as a traceback or a failed check;
    # a refused block builds no quadrature rule
    def never(order):
        raise AssertionError(f"a Gauss rule of order {order} was built")

    monkeypatch.setattr(quadrature, "gauss_rule", never)
    text = block + "studies:\n  - name: difference-norm\n"
    rc = cli.run(write_config(tmp_path, text), str(tmp_path / "o"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid parameter block" in err and where in err
    assert not (tmp_path / "o").exists()


def test_oscillation_aware_true_is_accepted_and_dropped(tmp_path):
    # older configs still write the switch that every pairing now obeys
    cfg = cli.parse_config(write_config(tmp_path, "quadrature:\n  oscillation_aware: true\n"))
    assert cfg.quadrature == cli.QuadratureSpec()


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


@pytest.mark.parametrize(
    "fields, where",
    [
        ("fields:\n  - probe\n", "fields: expected a mapping"),
        ("fields:\n  probe:\n    support: {center: [5.0, 0.0, 0.0, 0.0], radius: 1.0}\n"
         "    terms: []\n", "invalid field 'probe': terms: a test field needs at least one term"),
        ("fields:\n  probe:\n    support: {center: [5.0, 0.0, 0.0, 0.0], radius: 1.0}\n"
         "    terms:\n      - {channel: electric, time: {center: 5.0, halfwidth: 0.5},\n"
         "         space: {halfwidth: 0.5}, amplitude: 0}\n",
         "invalid field 'probe': terms[0]: amplitude must be nonzero"),
        ("fields:\n  probe:\n    support: {center: [5.0, 0.0, 0.0, 0.0], radius: 1.0}\n"
         "    terms:\n      - {channel: electric, time: {center: 5.0, halfwidth: 0.5},\n"
         "         space: {halfwidth: 0.5, amplitude: 0.0}}\n",
         "invalid field 'probe': terms[0]: space.amplitude must be nonzero"),
        ("fields:\n  probe:\n    support: {center: [5.0, 0.0, 0.0, 0.0], radius: 1.0}\n"
         "    terms:\n      - {channel: electric, time: null, space: {halfwidth: 0.5}}\n",
         "invalid field 'probe': terms[0]: time: expected a mapping"),
        ("fields:\n  probe:\n    support: {center: [5.0, 0.0, 0.0, 0.0], radius: 1.0}\n"
         "    terms:\n      - {channel: electric, time: {center: 5.0, halfwidth: 0.5},\n"
         "         space: {halfwidth: 0.5}, amplitude: .nan}\n",
         "invalid field 'probe': terms[0]: amplitude must be nonzero and finite"),
        ("output_dir: 5\n", "output_dir: expected a path"),
        # a space center was dropped without a word; a term's space is radial
        ("fields:\n  probe:\n    support: {center: [5.0, 0.0, 0.0, 0.0], radius: 1.0}\n"
         "    terms:\n      - {channel: electric, time: {center: 5.0, halfwidth: 0.5},\n"
         "         space: {center: 0.2, halfwidth: 0.5}}\n",
         "invalid field 'probe': terms[0]: spatial profile must be radial"),
    ],
    ids=["fields-as-list", "no-terms", "zero-term-amplitude", "zero-space-amplitude", "null-time",
         "nan-term-amplitude", "output_dir-not-a-path", "space-center"],
)
def test_malformed_field_rejected(tmp_path, capsys, fields, where):
    # each of these ended in a traceback, or in a study error on a zero
    # pairing scale, before it was refused here
    text = fields + "studies:\n  - name: huyghens\n    T_list: [1.0]\n"
    rc = cli.run(write_config(tmp_path, text), str(tmp_path / "o"))
    assert rc == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("t_list, halving", [([0.0, 1.0, 2.0], False), ([0.0, 0.8], False),
                                              ([0.0, 2.0], True), ([0.0, -1.0], False),
                                              ([0.0, 2.33], False)])
def test_wave_grids_of_accepted_time_lists_fit_the_cap(t_list, halving):
    # the bundled times, perfbench's wave-grid times, the halving grid the
    # acceptance test samples, a negative time, and a time whose extent is
    # not a whole number of steps
    for extent, spacing in studies.wave_grids(t_list, halving):
        cli.wavecheck.check_grid(extent, spacing)


@pytest.mark.parametrize("halving, threshold", [(False, 5.14), (True, 2.32)])
def test_accepted_time_lists_are_a_prefix_in_the_largest_time(halving, threshold):
    # one threshold per mode: every largest |t| up to it fits, none above
    def fits(t):
        try:
            for extent, spacing in studies.wave_grids([0.0, t], halving):
                cli.wavecheck.check_grid(extent, spacing)
        except SoftconeError:
            return False
        return True

    accepted = [fits(k / 100) for k in range(1, 601)]
    n = accepted.count(True)
    assert accepted == [True] * n + [False] * (600 - n)
    assert n / 100 == threshold
