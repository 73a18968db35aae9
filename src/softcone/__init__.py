"""Symplectic structure of the free photon field, infrared dressing profiles,
and lightcone-localization checks at desk scale."""

from .errors import (
    NonIntegrablePairing,
    PointSingularity,
    SoftconeError,
    SupportNotInForwardCone,
    ToleranceNotMet,
)
from .geometry import (
    ConeRegion,
    DoubleCone,
    Point4,
    causally_separated,
    double_cone_in_cone,
)
from .pairing import (
    PairingResult,
    huyghens_report,
    lemma1_phase,
    limit_T_study,
    pair,
)
from .photon import (
    PhotonWaveFunction,
    check_integrable,
    transverse_project,
    zero_wavefunction,
)
from .profiles import (
    DressingParams,
    angular_factor,
    evaluate,
    pairwise_angular_factor,
    profile_wavefunction,
    v_hat_T_direct,
)
from .quadrature import QuadratureSpec
from .testfields import (
    BumpProfile,
    SeparableTerm,
    TestFieldPair,
    photon_wavefunction,
)
from .wavecheck import (
    GridField,
    WaveSolution,
    bj_support_check,
    mass_outside_cone,
    sample_grid,
    symplectic_time_invariance,
    wave_evaluate,
    wave_time_derivative,
)
from .weyl import (
    CoherentAutomorphism,
    WeylElement,
    adjoint,
    apply_automorphism,
    compose_difference,
    multiply,
    phase_distance,
    state_phase,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
