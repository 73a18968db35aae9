"""Spacetime regions and causal predicates.

Double cones and open forward/backward lightcones with exact closed-form
inclusion and separation tests (no sampling), natural units c = 1.
All regions are open; boundary points count as outside.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError("spatial position must be finite")
    return v


@dataclass(frozen=True)
class Point4:
    """Spacetime point (t, x)."""

    t: float
    x: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "x", _vec3(self.x))
        if not np.isfinite(self.t):
            raise ValueError("time coordinate must be finite")


@dataclass(frozen=True)
class DoubleCone:
    """Open double cone: |t - center.t| + |x - center.x| < radius."""

    center: Point4
    radius: float

    def __post_init__(self):
        if not (self.radius > 0):
            raise ValueError("double cone radius must be strictly positive")


@dataclass(frozen=True)
class ConeRegion:
    """Open forward ('forward') or backward ('backward') lightcone."""

    orientation: str
    apex: Point4 = field(default_factory=lambda: Point4(0.0))

    def __post_init__(self):
        if self.orientation not in ("forward", "backward"):
            raise ValueError("orientation must be 'forward' or 'backward'")


def double_cone_in_cone(dc: DoubleCone, cone: ConeRegion) -> bool:
    """True iff the double cone lies inside the open lightcone.

    Exact test with a one-radius safety margin on the timelike side:
    for a forward cone with apex a this is |x0 - a.x| + r < (t0 - a.t) - r,
    so even the closure of the double cone sits strictly inside the cone.
    """
    c, a = dc.center, cone.apex
    dt = c.t - a.t if cone.orientation == "forward" else a.t - c.t
    return float(np.linalg.norm(c.x - a.x)) + dc.radius < dt - dc.radius


def causally_separated(dc1: DoubleCone, dc2: DoubleCone) -> str:
    """Classify a pair of double cones: 'spacelike', 'timelike' or 'neither'.

    Closed form: with dt, dx the center separations and R the summed radii,
    every point pair is spacelike iff dx - dt >= R and timelike iff
    dt - dx >= R (open regions make the borderline cases safe).
    """
    dt = abs(dc1.center.t - dc2.center.t)
    dx = float(np.linalg.norm(dc1.center.x - dc2.center.x))
    rsum = dc1.radius + dc2.radius
    if dx - dt >= rsum:
        return "spacelike"
    if dt - dx >= rsum:
        return "timelike"
    return "neither"
