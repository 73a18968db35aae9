import pytest

from softcone import profiles, studies

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
