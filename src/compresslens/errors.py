"""Exception types shared across the toolkit.

Hierarchy is shallow on purpose: `DataError` covers malformed or
inconsistent inputs, `NumericError` covers failures of the numeric
machinery (divergence, non-finite values).
"""


class CompressLensError(Exception):
    """Base class for all toolkit errors."""


class DataError(CompressLensError):
    """Malformed, inconsistent, or out-of-contract input data."""


class NumericError(CompressLensError):
    """Numeric failure: divergence, non-finite values, no convergence."""


class ConfigError(CompressLensError):
    """Inconsistent or invalid configuration."""


# -- data_model --

class MissingClassSupport(DataError):
    """A class in {0..C-1} has zero examples in the truth map."""


class RankDepthExceeded(DataError):
    """Requested rank depth k exceeds the log's ranking depth."""


class ParseError(DataError):
    """A file row violates the format; carries a line number when known.

    `path` is the path of the file, set by the reader that raised it. The
    message leaves it out and reads the same whichever file held the fault;
    the command line prints the path before it.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        self.path = None
        super().__init__(f"line {line}: {message}" if line is not None else message)


class SchemaError(DataError):
    """A file header is missing or carries unexpected columns."""


# -- trainer --

class DivergenceError(NumericError):
    """Training loss became non-finite."""


class ShapeError(DataError):
    """Dimension mismatch between model and input."""


# -- stats_audit --

class LengthMismatch(DataError):
    """Paired vectors have different lengths."""


class SampleTooSmall(DataError):
    """A statistical test needs at least two values per sample."""


class NonFiniteInput(DataError):
    """A sample contains NaN or infinity."""


class EmptySample(DataError):
    """An operation requires a non-empty sample."""


class ExampleSetMismatch(DataError):
    """Two splits (logs, or a log and a dataset) differ in their examples or true labels."""


# -- pie_audit --

class EmptyPIESet(DataError):
    """An operation requires at least one PIE."""


# -- robustness --

class LayoutRequired(DataError):
    """Corruption needs a 2D (height x width) feature layout."""


class ZeroBaseline(DataError):
    """Relative accuracy is undefined for a zero baseline."""
