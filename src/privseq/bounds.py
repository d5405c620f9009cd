"""Achievable and converse bounds on the average transcript length.

The cardinality route is pure integer arithmetic over the recursive
auxiliary-alphabet caps, so it evaluates cheaply at any file size. The
entropy route sums ceilinged construction entropies, which only upper-bound
the best feasible per-stage entropies; every report labels it an estimate.
The converse is the largest conditional entropy of the demanded files given
a private realization, read off the demanded marginal a chain is built on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .coding import fixed_width
from .errors import DEFAULT_STATE_LIMIT, InvariantError, LimitError, ValidationError, check_index
from .frl import MechanismChain, cardinality_bound
from .probability import Alphabet, JointDist, _entropy_bits


def demand_vector(n_files: int, demands: Iterable[int]) -> tuple[int, ...]:
    """The one demand check, from the file count alone: at least one demand,
    each an int in 1..n_files, pairwise distinct."""
    demands = tuple(demands)
    if not demands:
        raise ValidationError("empty demand vector")
    for d in demands:
        check_index(d, 1, n_files, "demand")
    if len(set(demands)) != len(demands):
        raise ValidationError(f"demands must be pairwise distinct: {demands}")
    return demands


def demanded_base(p: JointDist, demands: Iterable[int]) -> tuple[JointDist, list[str]]:
    """The exact (private, demanded files) marginal of `p` in demand order, which
    the chain, a sweep's grouping and the converse read, and the files' names."""
    names = [p.variables[d].name for d in demand_vector(len(p.variables) - 1, demands)]
    return p.marginalize([p.variables[0].name, *names]), names


def cap_limit_error(stage: int, limit: int) -> LimitError:
    return LimitError(f"the stage {stage} cardinality cap needs more than the limit of {limit} bits")


def cardinality_caps(x_size: int, y_sizes: Iterable[int], limit: int = DEFAULT_STATE_LIMIT) -> list[int]:
    """Recursive per-stage caps: cap_i = |X| * cap_1*..*cap_{i-1} * (|Y_i|-1) + 1.

    Each cap is about as long as all earlier ones together; one longer than
    `limit` bits raises LimitError, decided from bit lengths before it is formed.
    """
    caps: list[int] = []
    prod = x_size  # |X| * cap_1*..*cap_{i-1}
    for i, y in enumerate(y_sizes, start=1):
        # a product has at least its factors' bit lengths summed, less one per multiplication
        if caps and y > 1 and prod.bit_length() + caps[-1].bit_length() + (y - 1).bit_length() - 2 > limit:
            raise cap_limit_error(i, limit)
        prod *= caps[-1] if caps else 1
        caps.append(cardinality_bound(prod, y))
        if caps[-1].bit_length() > limit:
            raise cap_limit_error(i, limit)
    return caps


def upper_bound_cardinality(x_size: int, y_sizes: Iterable[int], limit: int = DEFAULT_STATE_LIMIT) -> int:
    """Achievable bits via fixed-length slots at the cardinality caps."""
    caps = cardinality_caps(x_size, y_sizes, limit)
    return sum(fixed_width(c) for c in caps) + fixed_width(x_size)


def upper_bound_entropy_estimate(chain: MechanismChain) -> int:
    """Achievable-bits estimate from constructed-stage entropies.

    The per-stage entropies are surrogates (>= the true minima), so this is
    an estimate of the entropy-route bound, not the bound itself. It never
    exceeds the cardinality bound.
    """
    total = fixed_width(chain.private_size)
    for stage in chain.stages:
        # round before ceiling so float dust cannot bump an exact integer up
        total += math.ceil(round(stage.mechanism.entropy(), 9))
    return total


def lower_bound(base: JointDist) -> float:
    """Converse: max over private realizations x of H(demanded files | X=x),
    on the demanded marginal `base` from `demanded_base`. Its cells are in
    sorted order, so each run of one x is x's conditional table, summed in
    sorted order by `_entropy_bits`."""
    by_x = itertools.groupby(base._ints()[0].items(), key=lambda item: item[0][0])
    return max(_entropy_bits(masses, sum(masses))
               for masses in ([n for _, n in cells] for _, cells in by_x))


# ---------------------------------------------------------------------------
# The Bernoulli-AND database family: X ~ Bern(p) masks i.i.d. fair bits, so
# every file is all-zero when X=0 and uniform when X=1.
# ---------------------------------------------------------------------------


def check_prior(p: Fraction) -> Fraction:
    """The family's masking prior p, which must lie strictly in (0,1)."""
    if not 0 < p < 1:
        raise ValidationError(f"p must lie strictly in (0,1), got {p}")
    return p


@dataclass(frozen=True)
class Example1Params:
    p: Fraction
    n_files: int
    k_demands: int
    file_bits: int

    def __post_init__(self) -> None:
        check_prior(self.p)
        check_index(self.n_files, 1, None, "file count")
        check_index(self.file_bits, 1, None, "bits per file")
        check_index(self.k_demands, 1, self.n_files, "demand count")


def example1_build(params: Example1Params, limit: int = DEFAULT_STATE_LIMIT) -> JointDist:
    """Joint over (X, Y_1..Y_N) with Y bits = independent fair bits AND X.

    With p = a/b the masses are integer numerators over b * size^N: the
    all-zero X=0 cell holds (b - a) * size^N and every X=1 cell holds a.
    The 2^(N*F) + 1 cells are checked against `limit` by bit length before
    the power is formed, and named symbolically when over it.
    """
    p, n, f = Fraction(params.p), params.n_files, params.file_bits
    if n * f >= limit.bit_length() or 2 ** (n * f) + 1 > limit:
        raise LimitError(f"2^{n * f} + 1 cells exceed the limit {limit}")
    size = 2 ** f
    variables = (Alphabet("X", 2),) + tuple(Alphabet(f"Y{j}", size) for j in range(1, n + 1))
    a, b = p.numerator, p.denominator
    den = b * size ** n
    # product() yields the X=1 cells in sorted order, after the one X=0 cell
    num = {(0,) * (n + 1): (b - a) * size ** n}
    num.update(dict.fromkeys(itertools.product((1,), *[range(size)] * n), a))
    total = sum(num.values())
    if total != den:
        raise InvariantError(f"masked database sums to {Fraction(total, den)}, expected exactly 1")
    return JointDist._exact(variables, num, den)
