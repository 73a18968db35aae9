"""Every benchmark check passes on real outputs and fails its negative control.

    python3 -m pytest perfbench/tests -q
"""
import copy
import csv
import io
import math
import random

import pytest

import checks
from workloads import WORKLOADS, check_seed

from conftest import SEED


def by_name(results):
    return {c.name: c for c in results}


def rewrite(csvs, name, edit):
    """csvs with file `name` re-written after `edit(rows)` changed its dict rows."""
    rows = list(csv.DictReader(io.StringIO(csvs[name].decode())))
    header = list(rows[0])
    edit(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return dict(csvs, **{name: buf.getvalue().encode()})


def run_output_checks(workload, outputs, csvs=None, config=None):
    cfg, _, report, real = outputs(workload)
    config = config or cfg
    return by_name(checks.output_checks(workload, config, report, csvs or real,
                                        checks.output_oracle(workload, config)))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_real_outputs_pass(workload, outputs):
    config, rc, report, csvs = outputs(workload)
    results = [checks.check_exit(rc, report)]
    results += checks.output_checks(workload, config, report, csvs, checks.output_oracle(workload, config))
    results += checks.library_checks(workload, config, check_seed(workload, SEED))
    assert results
    assert [c for c in results if not c.ok] == []


def test_exit_red_on_failed_status_or_verdict():
    assert not checks.check_exit(1, {"all_pass": True}).ok
    assert not checks.check_exit(0, {"all_pass": False}).ok
    assert not checks.check_exit(0, None).ok


def test_shell_norms_red_on_wrong_speed(outputs):
    config, _, _, csvs = outputs("ir-shells")
    _, v1, v2 = config["studies"][0]["speeds"]
    swapped = dict(csvs, **{f"ir-divergence-v{v1:g}.csv": csvs[f"ir-divergence-v{v2:g}.csv"]})
    assert not run_output_checks("ir-shells", outputs, swapped)[f"shell-norm-closed-form[v={v1:g}]"].ok
    # a zero-speed norm must be exactly zero
    nonzero = rewrite(csvs, "ir-divergence-v0.csv", lambda rows: rows[0].update(shell_norm="1e-300"))
    assert not run_output_checks("ir-shells", outputs, nonzero)["shell-norm-closed-form[v=0]"].ok


def test_shell_slope_red_on_wrong_speed_and_nonzero_flat_slope():
    slope = 0.01 * checks.shell_rate(0.3)
    assert checks.check_shell_slope(0.3, slope, 0.01).ok
    assert not checks.check_shell_slope(0.301, slope, 0.01).ok
    assert not checks.check_shell_slope(0.0, 1e-18, 0.01).ok


def test_pairwise_slope_red_on_wrong_speed_and_for_equal_velocities(outputs):
    def shift_second_speed(rows):
        rows[0]["wp_z"] = repr(float(rows[0]["wp_z"]) + 0.01)

    def nonzero_equal(rows):
        rows[1]["slope"] = "1e-18"

    config, _, _, csvs = outputs("ir-shells")
    (wa, wb), (same, _) = config["studies"][1]["pairs"]
    res = run_output_checks("ir-shells", outputs, rewrite(csvs, "superselection-slope.csv", shift_second_speed))
    wrong = (wb[0], wb[1], wb[2] + 0.01)
    assert not res[f"pair-slope[{tuple(wa)}|{wrong}]"].ok
    res = run_output_checks("ir-shells", outputs, rewrite(csvs, "superselection-slope.csv", nonzero_equal))
    assert not res[f"pair-slope[{tuple(same)}|{tuple(same)}]"].ok


def test_difference_norm_red_on_growth_or_wrong_speed(outputs):
    def matched_grows(rows):
        for row in rows:
            if row["variant"] == "matched":
                row["norm"] = repr(float(row["norm"]) * (1.0 - 0.1 * math.log10(float(row["sigma_probe"]))))

    config, _, _, csvs = outputs("ir-shells")
    res = run_output_checks("ir-shells", outputs, rewrite(csvs, "difference-norm.csv", matched_grows))
    assert not res["difference-norm"].ok
    wrong = copy.deepcopy(config)
    wrong["params"]["w"][2] += 0.02
    assert not run_output_checks("ir-shells", outputs, config=wrong)["difference-norm"].ok


def test_huyghens_red_on_defect_above_noise(outputs):
    def grow(rows):
        rows[-1]["defect"] = repr(1e-4 * float(rows[-1]["scale"]))

    _, _, _, csvs = outputs("cone-window")
    assert not run_output_checks("cone-window", outputs, rewrite(csvs, "huyghens.csv", grow))["huyghens-defect"].ok


def test_total_identity_red_on_perturbed_total_or_vhat(outputs):
    _, _, _, csvs = outputs("cone-window")
    hy = list(csv.DictReader(io.StringIO(csvs["huyghens.csv"].decode())))
    scale = min(float(r["scale"]) for r in hy)

    def bump(column):
        def edit(rows):
            rows[1][column] = repr(float(rows[1][column]) + 1e-8 * scale)
        return edit

    for column in ("total_re", "vhat_re"):
        res = run_output_checks("cone-window", outputs, rewrite(csvs, "limit-T.csv", bump(column)))
        assert not res["limit-T-total-identity"].ok, column


def test_term2_decay_red_when_term2_stalls(outputs):
    def stall(rows):
        rows[-1]["term2_abs"] = repr(0.06 * float(rows[0]["term2_abs"]))

    _, _, _, csvs = outputs("cone-window")
    assert not run_output_checks("cone-window", outputs, rewrite(csvs, "limit-T.csv", stall))["term2-decay"].ok


def test_vhat_T_red_on_wrong_window_length():
    from softcone.profiles import DressingParams, evaluate

    k = [0.3, -0.4, 0.6]
    got = [complex(c) for c in evaluate(DressingParams(), "v_hat_T", k, 10.0)]
    ref = checks.v_hat_T_reference(0.01, 2.0, (0.0, 0.0, 0.3), 1.0, 1.0, 10.0, k)
    assert checks.check_vhat_T(got, ref, "T=10").ok
    wrong = checks.v_hat_T_reference(0.01, 2.0, (0.0, 0.0, 0.3), 1.0, 1.0, 10.1, k)
    assert not checks.check_vhat_T(got, wrong, "T=10.1").ok


def test_weyl_rows_red_on_phase_error_or_missing_law(outputs):
    def perturb(rows):
        rows[0]["max_error"] = "1e-9"

    _, _, _, csvs = outputs("field-algebra")
    assert not run_output_checks("field-algebra", outputs, rewrite(csvs, "weyl-laws.csv", perturb))["weyl-phase-errors"].ok
    assert not run_output_checks("field-algebra", outputs,
                                 rewrite(csvs, "weyl-laws.csv", lambda rows: rows.pop()))["weyl-phase-errors"].ok


def test_locality_rows_red_on_wrong_relation_or_sigma(outputs):
    def relabel(rows):
        rows[0]["relation"] = "timelike"

    def grow(rows):
        rows[0]["sigma_abs"] = repr(1e-5 * float(rows[0]["scale"]))

    _, _, _, csvs = outputs("field-algebra")
    for edit in (relabel, grow):
        assert not run_output_checks("field-algebra", outputs, rewrite(csvs, "locality.csv", edit))["locality-sigma"].ok


def test_ccr_phase_red_on_perturbed_phase(outputs):
    from softcone.cli import ScenarioConfig, weyl_quadrature
    from softcone.testfields import photon_wavefunction
    from softcone.weyl import WeylElement, multiply

    config = outputs("field-algebra")[0]
    q = weyl_quadrature(ScenarioConfig({"quadrature": config["quadrature"]}).quadrature)
    rng = random.Random(5)
    w1, w2 = (WeylElement(photon_wavefunction(checks.random_label(rng))) for _ in range(2))
    phase = multiply(w1, w2, q).phase
    sigma, scale = checks.sigma_reference(w1.label, w2.label, q.r_min, q.r_max)
    assert checks.check_phase("product", phase, -sigma, tol=1e-8 * scale).ok
    assert not checks.check_phase("product", phase + 1e-6, -sigma, tol=1e-8 * scale).ok
    assert not checks.check_phase("exchange", phase + multiply(w2, w1, q).phase + 1e-6, 0.0).ok


def test_sigma_red_for_causally_connected_pair(outputs):
    quadrature = outputs("field-algebra")[0]["quadrature"]
    relation, sigma, scale = checks.pair_sigma((0.3, 0.4), (-0.3, -0.4), quadrature)
    assert relation == "neither"
    assert not checks.check_sigma_vanishes(relation, sigma, scale).ok


def test_wave_rows_red_on_value_over_limit_or_missing_row(outputs):
    def over(rows):
        rows[2]["value"] = "2e-6"

    _, _, _, csvs = outputs("wave-grid")
    assert not run_output_checks("wave-grid", outputs, rewrite(csvs, "wave-appendix.csv", over))["wave-appendix-rows"].ok
    assert not run_output_checks("wave-grid", outputs,
                                 rewrite(csvs, "wave-appendix.csv", lambda rows: rows.pop()))["wave-appendix-rows"].ok


def test_kirchhoff_red_on_wrong_time():
    import numpy as np
    from softcone.testfields import BumpProfile
    from softcone.wavecheck import WaveSolution, wave_evaluate

    ws = WaveSolution(BumpProfile(0.0, 0.5))
    f = checks.bump_profile(0.5)
    radii = [0.05, 0.3, 0.6, 0.9, 1.2]
    values = list(wave_evaluate(ws, 0.8, np.array([[0.0, 0.0, r] for r in radii])))
    assert checks.check_kirchhoff("t=0.8", values, [checks.kirchhoff(f, 0.8, r) for r in radii]).ok
    assert not checks.check_kirchhoff("t=0.81", values, [checks.kirchhoff(f, 0.81, r) for r in radii]).ok


def test_csv_identity_red_on_changed_byte_or_missing_file():
    ref = {"a.csv": b"x,y\n1.0,2.0\n", "b.csv": b"t\n0.5\n"}
    assert checks.check_csv_identity(ref, dict(ref)).ok
    assert not checks.check_csv_identity(ref, dict(ref, **{"a.csv": b"x,y\n1.0,2.1\n"})).ok
    assert not checks.check_csv_identity(ref, {"a.csv": ref["a.csv"]}).ok
