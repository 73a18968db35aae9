"""Exception types shared across the package."""


class SoftconeError(Exception):
    """Base class for all package-specific errors."""


class PointSingularity(SoftconeError):
    """A dressing profile was evaluated at k = 0, where it diverges."""


class NonIntegrablePairing(SoftconeError):
    """Small-momentum exponent metadata rules out absolute integrability
    of a requested pairing."""


class SupportNotInForwardCone(SoftconeError):
    """A test field declared for a forward-cone computation is not
    contained in the open forward lightcone."""


class ToleranceNotMet(SoftconeError):
    """A quadrature refinement stalled above its accuracy target."""
