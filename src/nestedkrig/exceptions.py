"""Exception types shared across the package."""


class NestedKrigError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(NestedKrigError):
    """Array shapes are inconsistent with each other or with the model."""


class NotFactorizable(NestedKrigError):
    """A matrix could not be Cholesky-factored even after jitter escalation.

    Usually signals an invalid kernel or duplicated design points beyond
    numerical repair.
    """


class ParseError(NestedKrigError):
    """A CSV cell failed to parse; carries 1-based line and column."""

    def __init__(self, line, column, message):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class EmptyFile(NestedKrigError):
    """The input file contains no data rows."""


class InvalidGroupCount(NestedKrigError):
    """Requested number of groups is not compatible with the data."""


class InvalidTree(NestedKrigError):
    """An aggregation tree violates its structural invariants."""


class InvalidHeight(NestedKrigError):
    """A tree height below 2 was requested from the planner."""


class NonPositiveVariance(NestedKrigError):
    """A predictive variance required to be positive is not."""


class CapExceeded(NestedKrigError):
    """The exact full-model path was refused because n exceeds the cap."""


class ConfigError(NestedKrigError):
    """A run configuration file is malformed or contains unknown keys."""


class BundleError(NestedKrigError):
    """A model bundle cannot be read or its parts disagree with each other."""


class OutputExists(NestedKrigError):
    """Refusing to overwrite an existing output without the force flag."""
