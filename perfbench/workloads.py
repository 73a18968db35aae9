"""The four benchmark workloads: `softcone run` configs made from a seed.

Each workload is a config of bundled-scenario studies, scaled down so that a
process takes a few seconds while the layer the workload exists for still
does most of the work.  The seed only varies inputs that leave the amount of
work unchanged (speeds and directions on fixed meshes, label draws, sample
points), so run-to-run spread is timing noise, not a different workload.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("ir-shells", "cone-window", "field-algebra", "wave-grid")

PARAMS = {
    "alpha": 0.01,
    "kappa": 1.0,
    "sigma": 0.0,
    "w": [0.0, 0.0, 0.3],
    "v_max": 0.9,
    "u": 2.0,
    "g": {"halfwidth": 1.0, "amplitude": 1.0},
    "g_scale": 1.0,
}

QUADRATURE = {
    "r_min": 1.0e-8,
    "r_max": 80.0,
    "panels_per_decade": 4,
    "gauss_order": 16,
    "n_cos_theta": 48,
    "n_phi": 8,
    "oscillation_aware": True,
    "nodes_per_wavelength": 6.0,
}

SIGMA_GRID = [1.0e-2, 1.0e-4, 1.0e-6]
CONE_T = [1.0, 10.0, 100.0]
HUYGHENS_T = [1.0, 10.0]
WAVE_T = [0.0, 0.8]
# The locality pairs of the bundled scenario; spacelike-z-far is the one whose
# resonant angular rule reaches order 704 on the refined mesh.
LOCALITY = [
    {"name": "spacelike-z-far", "centers": [[0.0, 0.0, 0.0, 6.0], [0.0, 0.0, 0.0, -3.0]], "radius": 0.81},
    {"name": "timelike-t", "centers": [[5.0, 0.0, 0.0, 0.0], [-5.0, 0.0, 0.0, 0.0]], "radius": 0.81},
]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _unit(rng: random.Random) -> list:
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    n = math.sqrt(sum(c * c for c in v))
    return [c / n for c in v]


def _ir_shells(rng: random.Random) -> dict:
    # Velocities stay on the 3-axis: the shell meshes resolve the Doppler
    # peak in mu, and a transverse velocity would need more phi nodes than
    # the fixed angular rule has (ToleranceNotMet).  On the axis every
    # integrand is constant in phi, so four phi nodes lose nothing.
    speeds = [0.0, round(rng.uniform(0.05, 0.35), 6), round(rng.uniform(0.4, 0.7), 6)]
    sa = round(rng.uniform(0.25, 0.5), 6) * rng.choice((-1.0, 1.0))
    sb = round(rng.uniform(-0.15, 0.15), 6)
    same = round(rng.uniform(-0.5, 0.5), 6)
    window_speed = round(rng.uniform(0.1, 0.5), 6)
    return {
        "params": dict(PARAMS, w=[0.0, 0.0, window_speed]),
        "quadrature": dict(QUADRATURE, n_phi=4),
        "studies": [
            {"name": "ir-divergence", "speeds": speeds, "sigma_grid": SIGMA_GRID,
             "slope_rtol": 0.02},
            {"name": "superselection-slope",
             "pairs": [[[0.0, 0.0, sa], [0.0, 0.0, sb]], [[0.0, 0.0, same], [0.0, 0.0, same]]],
             "sigma_grid": SIGMA_GRID, "slope_rtol": 0.02},
            {"name": "difference-norm", "sigma_probes": [1.0e-2, 1.0e-6], "cauchy_rtol": 0.01},
        ],
    }


def _cone_window(rng: random.Random) -> dict:
    # The probe direction keeps a 3-component so the Huyghens cancellation is
    # not a parity zero.  With w on the 3-axis the integrand is a degree-1
    # trigonometric polynomial in phi, which two midpoint nodes integrate
    # exactly; the radial rule, whose node count grows with T, is untouched.
    d = [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 1.0]
    n = math.sqrt(sum(c * c for c in d))
    direction = [round(c / n, 6) for c in d]
    return {
        "params": dict(PARAMS),
        "quadrature": dict(QUADRATURE, r_max=40.0, n_phi=2),
        "fields": {
            "probe": {
                "support": {"center": [5.0, 0.0, 0.0, 0.0], "radius": 1.0},
                "terms": [{"channel": "electric", "time": {"center": 5.0, "halfwidth": 0.5},
                           "space": {"halfwidth": 0.5}, "direction": direction}],
            }
        },
        "studies": [
            {"name": "huyghens", "field": "probe", "T_list": HUYGHENS_T,
             "include_v_hat": True, "defect_rtol": 1.0e-5},
            {"name": "limit-T", "field": "probe", "T_list": CONE_T,
             "decay_pair": [1.0, 100.0], "decay_factor": 0.05, "region_T": [3.0]},
        ],
    }


def _field_algebra(rng: random.Random) -> dict:
    # n_phi only reaches the locality meshes (the Weyl mesh fixes its own);
    # the resonant mu rule, driven by the z-offsets, is unchanged.
    return {
        "params": dict(PARAMS),
        "quadrature": dict(QUADRATURE, n_phi=2),
        "studies": [
            {"name": "weyl-laws", "n_labels": 3, "seed": rng.randrange(2**31),
             "tolerance": 1.0e-10},
            {"name": "locality", "ratio_tol": 1.0e-6, "configurations": LOCALITY},
        ],
    }


def _wave_grid(rng: random.Random) -> dict:
    return {
        "params": dict(PARAMS),
        "quadrature": dict(QUADRATURE),
        "fields": {
            "bj_probe": {
                "support": {"center": [0.0, 0.0, 0.0, 0.0], "radius": 1.0},
                "terms": [{"channel": "magnetic", "time": {"center": 0.0, "halfwidth": 0.4},
                           "space": {"halfwidth": 0.5},
                           "direction": [round(c, 6) for c in _unit(rng)],
                           "amplitude": round(rng.uniform(0.5, 1.5), 6)}],
            }
        },
        "studies": [
            {"name": "wave-appendix", "bj_field": "bj_probe", "t_list": WAVE_T,
             "drift_rtol": 1.0e-6, "include_halving": False},
        ],
    }


_CONFIG_MAKERS = {
    "ir-shells": _ir_shells,
    "cone-window": _cone_window,
    "field-algebra": _field_algebra,
    "wave-grid": _wave_grid,
}


def make_config(workload: str, seed: int) -> dict:
    """The `softcone run` config of one workload for one seed."""
    return _CONFIG_MAKERS[workload](_rng(workload, seed))


def check_seed(workload: str, seed: int) -> int:
    """A seed for the checks' own random draws, apart from the config's."""
    return _rng(workload + "/checks", seed).randrange(2**31)
