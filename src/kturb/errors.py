"""Exception types shared across the package, and the finiteness check
every settings dataclass makes on construction."""

import dataclasses
import functools
import math
from typing import Optional


class KturbError(Exception):
    """Base class for all package-specific errors."""


class PositivityViolation(KturbError):
    """A state has min(omega) or min(b), or an RK4 stage input has
    min(omega), at or below the positivity floor; t is its time.  Usually
    means the step size is too large or the data is inadmissible."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class BlowUp(KturbError):
    """A norm became NaN or infinite during time marching."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class Kappa2TooSmall(KturbError):
    """Raised where a formula requires kappa2 > 1/2."""


class InconclusiveTail(KturbError):
    """The existence criterion could not be decided: the infinite-horizon
    sign analysis of the margin failed on the sampled range (possible for
    1/2 < kappa2 < 1), or an envelope term is out of floating-point
    range."""


class VerificationFailure(KturbError):
    """A measured norm violated its analytic envelope beyond tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(KturbError):
    """Malformed or incomplete run configuration."""


@functools.cache
def _float_fields(cls, skip):
    return tuple(f.name for f in dataclasses.fields(cls)
                 if f.type in (float, Optional[float]) and f.name not in skip)


def require_finite(obj, error=ValueError, skip=()):
    """Raise error naming the first field of the dataclass obj annotated
    float or Optional[float] that holds a NaN or an infinity, leaving the
    fields named in skip alone."""
    for name in _float_fields(type(obj), skip):
        val = getattr(obj, name)
        if val is not None and not math.isfinite(val):
            raise error(f"{name} must be finite, got {val}")
