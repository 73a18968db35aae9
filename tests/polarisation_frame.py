"""The paper's polarisation frame, an oracle for the frame-free transverse
projection that the library uses (c02, `test_photon`)."""
import numpy as np

AXIS_TOLERANCE = 1e-12


class AxisSingularity(ValueError):
    """The frame was asked for on (or too close to) the k3-axis, where its
    convention is singular."""


def polarisation(khat):
    """Polarisation pair (eps_plus, eps_minus) for unit directions off the axis:
    eps_plus = (khat_2, -khat_1, 0)/sqrt(khat_1^2 + khat_2^2), eps_minus =
    khat x eps_plus.  Raises AxisSingularity within AXIS_TOLERANCE of +-e3."""
    k = np.asarray(khat, dtype=float)
    perp2 = k[..., 0] ** 2 + k[..., 1] ** 2
    if np.any(perp2 <= AXIS_TOLERANCE**2):
        raise AxisSingularity("polarisation frame undefined on the k3-axis")
    norm = np.sqrt(perp2)
    eps_plus = np.stack(
        [k[..., 1] / norm, -k[..., 0] / norm, np.zeros_like(norm)], axis=-1
    )
    eps_minus = np.cross(k, eps_plus)
    return eps_plus, eps_minus
