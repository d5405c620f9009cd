"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ValidationError -> 1,
InvariantError -> 2, LimitError -> 3.
"""

# Default enumeration budget, in weighted states or cells, behind LimitError.
DEFAULT_STATE_LIMIT = 10_000_000


class ValidationError(ValueError):
    """Bad input: malformed files, out-of-range symbols, inconsistent configs."""


class InvariantError(RuntimeError):
    """A construction or audit violated a guarantee that must hold exactly."""


class LimitError(RuntimeError):
    """An enumeration would exceed the configured state budget."""
