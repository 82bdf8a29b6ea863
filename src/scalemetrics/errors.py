"""Exception types shared across the toolkit."""


class ScaleMetricsError(Exception):
    """Base class for all toolkit errors."""


class ParseError(ScaleMetricsError):
    """Malformed input data. Carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(ScaleMetricsError):
    """Invalid configuration, e.g. a cyclic author alias map."""


class InsufficientDataError(ScaleMetricsError):
    """Not enough data points to perform the requested computation."""


class DegenerateDataError(ScaleMetricsError):
    """Data with no usable variation (tied tails, zero-length windows, ...)."""


class MeasureUnavailableError(ScaleMetricsError):
    """A production measure cannot be computed for a commit (missing diff
    payload, or a payload pair past the edit-distance cell budget)."""
