"""Exception hierarchy shared across the package, and the one rule, owned here, for a number
from outside: `finite` checks it, `as_float` reads it and `quote` names it in a refusal."""

import math
import reprlib


def finite(*values) -> bool:
    """False if any value is NaN, an infinity or an int past the float range."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


def as_float(x) -> float:
    """x as a float; an int past the float range reads as the infinity of its sign."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


class _Quote(reprlib.Repr):
    def repr_int(self, x, level):
        return (super().repr_int(x, level) if finite(x)
                else "-" * (x < 0) + "<int past the float range>")


quote = _Quote().repr   # reprlib's cut, with an int past the float range named, never printed


class BmaError(Exception):
    """Base class for all model and harness errors."""


class DegenerateGeometry(BmaError):
    """Height/volume pair lies outside the ellipsoid model's validity region."""


class InsufficientData(BmaError):
    """Too few distinct calibration volumes for the requested polynomial degree."""


class IllConditioned(BmaError):
    """Calibration normal equations are numerically unreliable; reduce the degree."""


class OutOfRange(BmaError):
    """Volume outside the calibrated validity range; extrapolation is refused."""


class ParseError(BmaError):
    """Malformed trace or calibration file; carries the offending line number."""

    def __init__(self, message, line):
        # both in args, so pickle and copy rebuild it with its line
        super().__init__(message, line)
        self.line = line

    def __str__(self):
        return f"line {self.line}: {self.args[0]}"


class MissingGroundTruth(BmaError):
    """Evaluation requested on a trace without ground-truth columns."""


class LengthMismatch(BmaError):
    """Series compared for RMSE have different lengths."""


class NoConvergence(BmaError):
    """A simulated hold's equilibrium is one the simulator's update does not contract to."""
