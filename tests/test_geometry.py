import numpy as np
import pytest

from softcone.geometry import (
    ConeRegion,
    DoubleCone,
    Point4,
    causally_separated,
    double_cone_in_cone,
)


def test_cone_region_rejects_bad_orientation():
    with pytest.raises(ValueError):
        ConeRegion("sideways")


def test_double_cone_requires_positive_radius():
    with pytest.raises(ValueError):
        DoubleCone(Point4(0.0), 0.0)


def test_double_cone_in_forward_cone_with_margin():
    cone = ConeRegion("forward")
    assert double_cone_in_cone(DoubleCone(Point4(5.0, np.zeros(3)), 1.0), cone)
    # radius margin: center barely timelike but cone pokes out
    assert not double_cone_in_cone(DoubleCone(Point4(1.5, np.zeros(3)), 1.0), cone)
    assert not double_cone_in_cone(DoubleCone(Point4(-5.0, np.zeros(3)), 1.0), cone)


def test_causal_classification():
    a = DoubleCone(Point4(0.0, (0.0, 0.0, 4.0)), 1.0)
    b = DoubleCone(Point4(0.0, (0.0, 0.0, -4.0)), 1.0)
    assert causally_separated(a, b) == "spacelike"

    c = DoubleCone(Point4(5.0, np.zeros(3)), 1.0)
    d = DoubleCone(Point4(-5.0, np.zeros(3)), 1.0)
    assert causally_separated(c, d) == "timelike"

    # overlapping regions are neither
    assert causally_separated(a, DoubleCone(Point4(0.0, (0.0, 0.0, 3.0)), 1.0)) == "neither"


def test_causal_classification_borderline_is_neither():
    # dx - dt exactly equals the summed radii: still counts as separated
    # because the regions are open.
    a = DoubleCone(Point4(0.0, (0.0, 0.0, 1.0)), 1.0)
    b = DoubleCone(Point4(0.0, (0.0, 0.0, -1.0)), 1.0)
    assert causally_separated(a, b) == "spacelike"
    # but any closer and points of one can reach the other
    c = DoubleCone(Point4(0.0, (0.0, 0.0, 0.9)), 1.0)
    assert causally_separated(c, b) == "neither"
