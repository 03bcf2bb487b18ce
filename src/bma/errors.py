"""Exception hierarchy shared across the package."""


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
