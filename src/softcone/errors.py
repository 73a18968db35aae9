"""Exception types shared across the package, and `require_finite`."""
import math
import numbers


def require_finite(obj, *names):
    """Raise ValueError naming the first of ``names`` not a finite number on ``obj``."""
    for name in names:
        value = getattr(obj, name)
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


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
