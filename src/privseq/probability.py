"""Exact finite probability distributions with rational arithmetic.

A joint table is stored as integer numerators over one common denominator,
reduced so that the numerators and the denominator share no factor; the
kernel (marginals and independence tests)
adds and multiplies plain integers, so every check is an exact equality,
never a float comparison. `fractions.Fraction` appears only at the API
edges: `table`, `items()` and the constructor's table. A table
given to the constructor is validated and then stored as numerators like a
kernel result; every table gets its Fraction view on first use, one Fraction
per distinct numerator shared by every cell that has it, and keeps it.
Entropy-style functionals are the only place floats appear: each cell n/den
is reduced by its gcd before the division and the log, and results are
always in bits (log base 2). An entropy adds its terms to one float from
0.0, left to right, not with `sum()`, whose float rounding changed in
Python 3.12, so it is the same float on every supported Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import ValidationError, check_index

Cell = tuple[int, ...]


@dataclass(frozen=True)
class Alphabet:
    """A named finite alphabet; symbols are the integers 0..size-1."""

    name: str
    size: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("alphabet needs a nonempty name")
        check_index(self.size, 1, None, f"alphabet {self.name!r} size")

    def symbols(self) -> range:
        return range(self.size)


def _entropy_bits(nums: Iterable[int], den: int) -> float:
    """-sum p log2 p in bits over the masses p = n/den, each reduced by its
    gcd first, the p log2 p terms added left to right in the given order.

    It starts from 0.0, so a single cell of mass 1 reads +0.0, not -0.0.
    """
    h = 0.0
    for n in nums:
        g = math.gcd(n, den)
        n, d = n // g, den // g
        h += n / d * (math.log2(n) - math.log2(d))
    return 0.0 - h


def _product_test(rows: Mapping[Hashable, Mapping[Hashable, int]]
                  ) -> tuple[bool, dict[Hashable, int]]:
    """Exact test that a joint over (A, B) is the product of its marginals:
    P(a,b) == P(a)P(b) on every pair, an absent pair failing it. The joint
    comes grouped by A: `rows[a][b]` is P(a, b) on the positive pairs, as
    numerators over any one denominator. Every independence verdict is this
    test: both checks of each chain stage, and the leakage audit.

    It is a product exactly when every row is the first row a0 scaled:
    every row has a0's support and n_ab * n_a0 == n_a0b * n_a on it, so
    P(b | a) == P(b | a0) for every a, which is then P(b). Ratios need no
    denominator, and no P(B) table is formed.

    Returns the verdict and the row sums, the numerators of P(A), in the
    order of `rows`.
    """
    pa = {a: sum(row.values()) for a, row in rows.items()}
    first, n_first = next(iter(rows.values()), {}), next(iter(pa.values()), 0)
    return all(row.keys() == first.keys()
               and all(n * n_first == first[b] * n_a for b, n in row.items())
               for row, n_a in zip(rows.values(), pa.values())), pa


def _projector(axes: Sequence[int]) -> Callable[[Cell], Cell]:
    """A function mapping a cell onto the sub-cell at `axes`, in that order."""
    axes = tuple(axes)
    if axes == tuple(range(len(axes))):
        m = len(axes)
        return lambda cell: cell[:m]
    if len(axes) == 1:
        (a,) = axes
        return lambda cell: (cell[a],)
    return itemgetter(*axes)


class JointDist:
    """Exact joint distribution over an ordered tuple of alphabets.

    The table keeps positive entries only (zero cells are implicit) and sums
    to exactly 1. It is held as integer numerators `n(cell)` over one reduced
    common denominator `den`, in sorted cell order, whether it came through
    the validating constructor or out of an exact operation. `table` and
    `items()` present the Fraction view in sorted cell order, built on first
    use and kept; `len(d)` counts positive cells without building it.
    Instances are immutable; every operation returns a new distribution.
    """

    __slots__ = ("variables", "_table", "_num", "_den")

    def __init__(self, variables: Sequence[Alphabet], table: Mapping[tuple[int, ...], Fraction]):
        variables = tuple(variables)
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate variable names: {names}")
        if not variables:
            raise ValidationError("a distribution needs at least one variable")
        # the largest symbol of each variable, and its name in a range fault
        tops = [(v.size - 1, f"{v.name!r} symbol") for v in variables]
        clean: dict[tuple[int, ...], Fraction] = {}
        by_den: dict[int, int] = {}  # exact running sum, numerators grouped by denominator
        for cell, p in table.items():
            cell = tuple(cell)
            if len(cell) != len(variables):
                raise ValidationError(f"cell {cell} does not index every variable")
            for s, (top, what) in zip(cell, tops):
                check_index(s, 0, top, what)
            if type(p) is not Fraction:
                if type(p) is not int:
                    raise ValidationError(f"probability {p!r} at {cell} is not an int or a Fraction")
                p = Fraction(p)
            if p.numerator < 0:
                raise ValidationError(f"negative probability {p} at {cell}")
            if p.numerator:
                if cell in clean:
                    raise ValidationError(f"duplicate cell {cell}")
                clean[cell] = p
                by_den[p.denominator] = by_den.get(p.denominator, 0) + p.numerator
        den = math.lcm(*by_den)
        total = sum(n * (den // d) for d, n in by_den.items())
        if total != den:
            raise ValidationError(
                f"probabilities sum to {Fraction(total, den)}, expected exactly 1")
        # the lcm of reduced denominators leaves the numerators without a common factor
        self.variables = variables
        self._table = None
        self._num = {cell: clean[cell].numerator * (den // clean[cell].denominator)
                     for cell in sorted(clean)}
        self._den = den

    @classmethod
    def _exact(cls, variables: tuple[Alphabet, ...], num: dict[Cell, int], den: int) -> "JointDist":
        """Wrap a table built by exact operations, without validation.

        `num` holds positive integers summing to `den`, in sorted cell order;
        they are reduced by their common gcd here.
        """
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {cell: n // g for cell, n in num.items()}
            den //= g
        self = object.__new__(cls)
        self.variables = variables
        self._table = None
        self._num = num
        self._den = den
        return self

    def _ints(self) -> tuple[dict[Cell, int], int]:
        """(numerators, common denominator), reduced, in sorted cell order."""
        return self._num, self._den

    @property
    def table(self) -> dict[tuple[int, ...], Fraction]:
        """Positive cells as reduced Fractions, in sorted cell order.

        Built on first use and kept; cells with equal numerators share one
        Fraction, so a table of few distinct masses costs few Fractions.
        """
        if self._table is None:
            den = self._den
            shared = {n: Fraction(n, den) for n in set(self._num.values())}
            self._table = {cell: shared[n] for cell, n in self._num.items()}
        return self._table

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def __len__(self) -> int:
        """Number of positive cells."""
        return len(self._num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JointDist):
            return NotImplemented
        return self.variables == other.variables and self._ints() == other._ints()

    __hash__ = None  # mutable-looking container semantics; not hashable

    def __repr__(self) -> str:
        vs = ",".join(f"{v.name}:{v.size}" for v in self.variables)
        return f"JointDist({vs}; {len(self)} cells)"

    def _axes(self, names: Iterable[str]) -> tuple[int, ...]:
        lookup = {v.name: i for i, v in enumerate(self.variables)}
        axes = []
        for n in names:
            if n not in lookup:
                raise ValidationError(f"unknown variable {n!r}; have {list(lookup)}")
            axes.append(lookup[n])
        if len(set(axes)) != len(axes):
            raise ValidationError(f"repeated variable in {list(names)}")
        return tuple(axes)

    def items(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        return iter(self.table.items())

    def marginalize(self, keep: Sequence[str]) -> "JointDist":
        """Sum out everything but `keep`; result variables follow `keep` order."""
        axes = self._axes(keep)
        if not axes:
            raise ValidationError("keep at least one variable")
        num, den = self._ints()
        project = _projector(axes)
        out: dict[Cell, int] = {}
        get = out.get
        for cell, n in num.items():
            key = project(cell)
            out[key] = get(key, 0) + n
        # a prefix of the axes keeps the cells' sorted order; any other projection is sorted
        if axes != tuple(range(len(axes))):
            out = dict(sorted(out.items()))
        return JointDist._exact(tuple(self.variables[a] for a in axes), out, den)


# ---------------------------------------------------------------------------
# Distribution-spec text format
#
#   # comment
#   var X 2
#   var Y1 2
#   p 0 0 3/4
#   p 1 1 1/4
#
# One `var` line per variable, in order; one `p` line per positive cell with
# the probability as an integer or num/den pair. Omitted cells are zero and
# the listed entries must sum to exactly 1.
# ---------------------------------------------------------------------------


def parse_dist(text: str) -> JointDist:
    variables: list[Alphabet] = []
    table: dict[tuple[int, ...], Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "var":
            if table:
                raise ValidationError(f"line {lineno}: var lines must precede p lines")
            if len(parts) != 3:
                raise ValidationError(f"line {lineno}: expected 'var NAME SIZE'")
            try:
                size = int(parts[2])
            except ValueError:
                raise ValidationError(f"line {lineno}: bad size {parts[2]!r}") from None
            variables.append(Alphabet(parts[1], size))
        elif kind == "p":
            if not variables:
                raise ValidationError(f"line {lineno}: p line before any var line")
            if len(parts) != len(variables) + 2:
                raise ValidationError(
                    f"line {lineno}: expected {len(variables)} symbols and one probability"
                )
            try:
                cell = tuple(int(s) for s in parts[1:-1])
            except ValueError:
                raise ValidationError(f"line {lineno}: bad symbol in {parts[1:-1]}") from None
            try:
                prob = Fraction(parts[-1])
            except (ValueError, ZeroDivisionError):
                raise ValidationError(f"line {lineno}: bad probability {parts[-1]!r}") from None
            if cell in table:
                raise ValidationError(f"line {lineno}: duplicate cell {cell}")
            table[cell] = prob
        else:
            raise ValidationError(f"line {lineno}: unknown directive {kind!r}")
    if not variables:
        raise ValidationError("no variables declared")
    return JointDist(variables, table)


def load_dist(path: str) -> JointDist:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_dist(text)


def format_dist(d: JointDist) -> str:
    lines = [f"var {v.name} {v.size}" for v in d.variables]
    lines += [f"p {' '.join(str(s) for s in cell)} {p}" for cell, p in d.items()]
    return "\n".join(lines) + "\n"
