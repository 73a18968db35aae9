from dataclasses import replace

import pytest

from softcone import pairing, profiles, studies
from softcone.quadrature import QuadratureSpec
from tests.conftest import make_field

SIGMAS = [1e-2, 1e-4]


def test_every_study_has_options_whose_defaults_pass_their_checks():
    assert list(studies.STUDY_OPTIONS) == list(studies.STUDIES)
    for name, options in studies.STUDY_OPTIONS.items():
        assert callable(studies.STUDIES[name])
        for key, ((valid, _), default) in options.items():
            assert valid(default), f"{name}.{key} default {default!r}"


def _oracle_verdicts(study, opts, params, quad):
    _, checks, _ = study(params, quad, {}, opts)
    return [c["passed"] for c in checks if c["name"].startswith("slope-matches-oracle")]


@pytest.mark.parametrize(
    "study, opts, oracle",
    [
        (studies.ir_divergence, {"speeds": [0.3], "sigma_grid": SIGMAS}, "angular_factor"),
        (studies.superselection_slope,
         {"pairs": [[[0.0, 0.0, 0.3], [0.0, 0.0, 0.1]]], "sigma_grid": SIGMAS},
         "pairwise_angular_factor"),
    ],
    ids=["ir-divergence", "superselection-slope"],
)
def test_slope_verdict_fails_against_an_oracle_5_percent_high(
    monkeypatch, params, quad, study, opts, oracle
):
    assert _oracle_verdicts(study, opts, params, quad) == [True]
    exact = getattr(profiles, oracle)
    monkeypatch.setattr(profiles, oracle, lambda *a: 1.05 * exact(*a))
    assert _oracle_verdicts(study, opts, params, quad) == [False]


def test_annulus_pass_matches_single_range_shells(params, quad):
    # every shell [sigma, kappa] of the table sums the annuli above it; one
    # pairing over the whole range is an independent rule for the same norm
    sigmas = [1e-2, 1e-4, 1e-6]
    p = replace(params, w=(0.0, 0.0, 0.3))
    _, _, csvs = studies.ir_divergence(p, quad, {}, {"speeds": [0.3], "sigma_grid": sigmas})
    _, table = csvs["ir-divergence-v0.3.csv"]
    v = profiles.profile_wavefunction(p, "v_limit")
    assert [s for s, _, _ in table] == sigmas
    for sigma, norm, _ in table:
        want = pairing.pair(v, v, quad, r_bounds=(sigma, p.kappa)).value.real
        assert abs(norm - want) <= 1e-13 * want
    errs = [err for _, _, err in table]
    assert errs == sorted(errs)


def test_repeated_sigma_repeats_its_shell(params, quad):
    # a sigma grid may repeat a value (it needs two distinct ones); the
    # repeated shell is the same shell, not an error
    _, _, csvs = studies.difference_norm(params, quad, {}, {"sigma_probes": [1e-2, 1e-4, 1e-4]})
    _, table = csvs["difference-norm.csv"]
    for variant in ("matched", "violated"):
        rows = [row[1:] for row in table if row[0] == variant]
        assert [s for s, _, _ in rows] == [1e-2, 1e-4, 1e-4]
        assert rows[2] == rows[1]


def test_wave_appendix_runs_on_a_negative_time(params, quad):
    # a negative time is a valid sample time: the grid is sized from max |t|,
    # and the mass outside the cone is taken at the time of largest |t|
    rows, checks, _ = studies.wave_appendix(params, quad, {}, {"t_list": [0.0, -1.0]})
    assert [c["name"] for c in checks] == ["initial-value-zero", "initial-slope-matches",
                                           "mass-outside-cone", "symplectic-drift"]
    assert all(c["passed"] for c in checks)
    by_name = {c["name"]: c["value"] for c in checks}
    _, forward, _ = studies.wave_appendix(params, quad, {}, {"t_list": [0.0, 1.0]})
    assert by_name["mass-outside-cone"] == {c["name"]: c["value"] for c in forward}["mass-outside-cone"]
    assert by_name["mass-outside-cone"] > 0.0


def _defect_verdicts(params, t_center, position):
    # cone-window's probe, spec and bound (defect_rtol 1e-5), at r_max 20:
    # a probe off the time axis has a resonant carrier, whose angular rule
    # grows with r_max squared, and the ratios agree with r_max 40 to five
    # digits
    probe = make_field(t_center, position, direction=(-0.352024, -0.264066, 0.897969),
                       radius=1.0)
    opts = {"field": "probe", "T_list": [1.0, 10.0], "include_v_hat": True, "defect_rtol": 1e-5}
    _, checks, _ = studies.huyghens(params, QuadratureSpec(r_max=20.0, n_phi=2),
                                    {"probe": probe}, opts)
    assert [c["name"] for c in checks] == ["defect[v_hat]", "defect[v_hat_T[T=1]]",
                                           "defect[v_hat_T[T=10]]"]
    assert all(c["threshold"] == 1e-5 for c in checks)
    return [c["passed"] for c in checks]


def test_defect_verdict_fails_for_a_probe_outside_the_forward_cone(monkeypatch, params):
    # the forward probe passes; the same probe centred at (0, 4, 0, 0),
    # outside the cone, fails every defect check once the support guard is
    # bypassed (defect / scale 1.5e-2, 1.4e-2 and 9.6e-4)
    assert _defect_verdicts(params, 5.0, (0.0, 0.0, 0.0)) == [True, True, True]
    monkeypatch.setattr(pairing, "_forward_cone_guard", lambda fields: None)
    assert _defect_verdicts(params, 0.0, (4.0, 0.0, 0.0)) == [False, False, False]
