"""Exception hierarchy shared across the package, and the one integer check.

The CLI maps these onto exit codes: ValidationError -> 1,
InvariantError -> 2, LimitError -> 3. Every index, symbol, size and count
that comes from a caller (a demand, a key value, a block, a file value, a
cell symbol, an alphabet size) goes through `check_index`, so a value that
is not an int, a bool included, or is out of range is a ValidationError.
"""

# Default enumeration budget, in weighted states or cells, behind LimitError.
DEFAULT_STATE_LIMIT = 10_000_000


class ValidationError(ValueError):
    """Bad input: malformed files, out-of-range symbols, inconsistent configs."""


class InvariantError(RuntimeError):
    """A construction or audit violated a guarantee that must hold exactly."""


class LimitError(RuntimeError):
    """An enumeration would exceed the configured state budget."""


def check_index(value: object, lo: int, hi: int | None, what: str) -> int:
    """`value` when it is an int (not a bool) in lo..hi, both ends included;
    `hi` None leaves it unbounded above. Otherwise a ValidationError naming
    `what`, the value and the range."""
    if type(value) is int and lo <= value and (hi is None or value <= hi):
        return value
    span = f">= {lo}" if hi is None else f"{lo}..{hi}"
    raise ValidationError(f"{what} {value!r} outside the integers {span}")
