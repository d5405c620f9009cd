"""Constructive functional representation mechanisms.

Given a pair (X, Y), lay the conditional P(Y|X=x) of every x out as a
partition of [0,1) into rational-length segments, take the common refinement
of all the partitions, and let U be the refinement atom that a uniform point
lands in. By construction U is exactly independent of X, Y is a deterministic
function of (U, X), and the number of atoms is at most |X|(|Y|-1)+1. Each
(x, y) segment's run of atoms is both P(U | x, y) and the map (u, x) -> y.

The same construction extends sequentially: to attach a target Y_next to an
existing collection U_1..U_k, treat the compound (X, U_1..U_k) as the private
variable and run the construction again. One function builds every stage
from one walk of its parent, keyed by the given state: x for a pair and a
chain's first stage, (x, u_1..u_k) after it, so a pair is a chain's first
stage under another name. Each extension multiplies the chain joint by the
new stage's conditionals P(U_{k+1} | X, U_1..U_k, Y_next), in a table written
once, reduced; every conditional row must sum to exactly 1, so every earlier
marginal, and with it every earlier stage's guarantee, is left unchanged and
needs no re-check. The new stage alone is then checked once: U_{k+1}
independent of (X, U_1..U_k) and U_1..U_{k+1} of X, Y_next a function of
(X, U_1..U_{k+1}), and |U_{k+1}| within its cap. The first check reads the
stage's (given state, U_{k+1}) marginal, gathered as its product table is
written; the second reads the state marginal P(x, u_1..u_k) that the first
returns, which is exact once the first has passed; the function check reads
the Y_next that each (given state, U_{k+1}) cell meets in the stage's rows.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Hashable, Mapping, Sequence

from .errors import DEFAULT_STATE_LIMIT, InvariantError, LimitError, ValidationError, check_index
from .probability import Alphabet, Cell, JointDist, _entropy_bits, _product_test

# Per-x permutation of the positive-support y symbols, fixing how a pair's
# segments are laid on [0,1); the default, and every chain stage's, is
# ascending y. Guarantees hold for any ordering; H(U) does not.
OrderingPolicy = Mapping[int, Sequence[int]]

# P(U | given state, target) on integers: the atoms the segment covers (its
# span), their widths, and the segment length they sum to
Row = tuple[range, Sequence[int], int]


@dataclass(frozen=True)
class FrlMechanism:
    """The constructed auxiliary variable U of one stage, given a state x:
    the private symbol for a pair and a chain's first stage, the tuple
    (x, u_1..u_{k-1}) at stage k >= 2.

    bounds -- atom boundaries 0 = b_0 < ... < b_n on [0,1), as integers
              over the common denominator b_n; atom u is [b_u, b_{u+1})
    spans  -- (given state, y) -> the range of atom indices its segment
              covers; the segments of one positive state tile the atoms
              0..n-1 in order, and are written state by state in that order

    The spans are the whole map: `apply(u, x)` is the y whose segment covers
    atom u, and `row` the integer P(U | x, y). `atoms` and `p_u` are the
    Fraction views of `bounds`. A zero-mass state has no spans, and the
    mechanism does not list such states: `frl build` reports a pair's
    zero-mass x symbols.
    """

    u_alphabet: Alphabet
    bounds: tuple[int, ...]
    spans: Mapping[tuple[Hashable, int], range] = field(repr=False)

    @property
    def u_size(self) -> int:
        return len(self.bounds) - 1

    @property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Common-refinement intervals [a, b) covering [0,1)."""
        scale = self.bounds[-1]
        points = [Fraction(b, scale) for b in self.bounds]
        return tuple(zip(points, points[1:]))

    @cached_property
    def widths(self) -> tuple[int, ...]:
        """Atom widths b[u+1] - b[u]: the marginal of U as integers over b_n."""
        b = self.bounds
        return tuple(hi - lo for lo, hi in zip(b, b[1:]))

    @property
    def p_u(self) -> tuple[Fraction, ...]:
        """Atom lengths; exactly the marginal of U."""
        return tuple(Fraction(w, self.bounds[-1]) for w in self.widths)

    def entropy(self) -> float:
        """H(U) in bits; an upper-bound surrogate for the best feasible U."""
        return _bounds_entropy(self.bounds)

    @cached_property
    def _segments(self) -> dict[Hashable, tuple[list[int], list[int]]]:
        """Positive given state -> the ends of its segments, ascending, and
        their y symbols: `spans` grouped in the order it was written."""
        segments: dict[Hashable, tuple[list[int], list[int]]] = {}
        for (x, y), span in self.spans.items():
            stops, ys = segments.setdefault(x, ([], []))
            stops.append(span.stop)
            ys.append(y)
        return segments

    def apply(self, u: int, x: Hashable) -> int:
        """The y whose (x, y) segment covers atom u: a bisection over x's segment ends."""
        stops, ys = self._segments.get(x, ((), ()))
        i = bisect.bisect_right(stops, u)
        if u >= 0 and i < len(ys):
            return ys[i]
        raise ValidationError(f"(u={u}, x={x}) outside the positive support")

    def row(self, x: Hashable, y: int) -> Row:
        """P(U | X=x, Y=y) on integers: the atoms the (x, y) segment covers,
        their widths b[u+1] - b[u], and the segment length they sum to."""
        span = self.spans.get((x, y))
        if span is None:
            raise ValidationError(f"(x={x}, y={y}) outside the positive support")
        b = self.bounds
        return span, self.widths[span.start:span.stop], b[span.stop] - b[span.start]


def _bounds_entropy(bounds: Sequence[int]) -> float:
    """H(U) in bits for atoms [b_u, b_{u+1}) over the common denominator b_n."""
    return _entropy_bits((hi - lo for lo, hi in zip(bounds, bounds[1:])), bounds[-1])


def _masses(num: Mapping[tuple[Hashable, int], int]
            ) -> tuple[dict[Hashable, list[int]], dict[Hashable, int], int]:
    """From the (given state, y) numerators in sorted order: each positive
    state's support targets, ascending, its mass n(x), and the segment
    scale, the lcm of the masses."""
    supports: dict[Hashable, list[int]] = {}
    px: dict[Hashable, int] = {}
    for (x, y), n in num.items():
        supports.setdefault(x, []).append(y)
        px[x] = px.get(x, 0) + n
    return supports, px, math.lcm(*px.values())


def _segment_layout(num: Mapping[tuple[Hashable, int], int], px: Mapping[Hashable, int],
                    orders: OrderingPolicy, scale: int
                    ) -> tuple[dict[Hashable, list[tuple[int, int, int]]], set[int]]:
    """Lay each state's segments P(y|x) = n(x,y)/n(x) end to end on [0, scale).

    Returns x -> its segments (start, end, y) in order, and the cut set: every
    segment end short of `scale`. The atom boundaries are the sorted cut set
    between 0 and `scale`.
    """
    ends: dict[Hashable, list[tuple[int, int, int]]] = {}
    cutset: set[int] = set()
    for x, mass in px.items():
        step = scale // mass
        segs = []
        pos = 0
        for y in orders[x]:
            end = pos + num[(x, y)] * step
            segs.append((pos, end, y))
            pos = end
        if pos != scale:
            raise InvariantError(f"segments for x={x} cover {Fraction(pos, scale)}, expected 1")
        ends[x] = segs
        cutset.update(end for _, end, _ in segs[:-1])
    return ends, cutset


def frl_construct(pxy: JointDist, policy: OrderingPolicy | None = None) -> FrlMechanism:
    """Build the interval mechanism U for a pair distribution (X, Y): the
    first stage of a chain over X, built and checked by the same function.

    Zero-mass (x, y) pairs, and so zero-mass x symbols, produce no segment;
    `frl build` reports the zero-mass x symbols. LimitError is raised before
    the mechanism's spans are found if they would cover more than
    DEFAULT_STATE_LIMIT (x, U) cells.
    """
    if len(pxy.variables) != 2:
        raise ValidationError(f"need a pair distribution, got variables {pxy.names}")
    return _stage(pxy, (0,), 1, "U", policy, f"pair ({', '.join(pxy.names)})", DEFAULT_STATE_LIMIT)[0]


def _stage(parent: JointDist, given_axes: Sequence[int], target_axis: int, u_name: str,
           policy: OrderingPolicy | None, where: str, limit: int) -> tuple[FrlMechanism, JointDist]:
    """One stage: the mechanism U given the variables at `given_axes`, for the
    target at `target_axis`, and `parent` times its rows, checked on the table
    written. A cell's given state is `itemgetter(*given_axes)(cell)`: x alone
    for a pair or a chain's first stage, (x, u_1..u_{k-1}) after it. `policy`
    orders each state's targets, and `where` names the stage in a row fault
    and in a LimitError, raised before the spans are found if the mechanism
    would pass `limit` (given state, U) cells, and before the product table
    is built if it would.

    Each parent cell is read once, as one key (given state, target); the
    masses, the rows, the cell count, the table's gcd and the product walk
    all use those keys, so the table is written once, already reduced. A
    parent cell of key (s, y) writes exactly row (s, y)'s atoms, so whether
    the target is a function of (s, U) is read off the rows: it is unless
    an atom lies in two rows of one state.
    """
    num, den = parent._ints()
    keys = list(zip(map(itemgetter(*given_axes), num), map(itemgetter(target_axis), num)))
    # the mass of each positive (given state, target), in the order first met
    mass: dict[tuple, int] = {}
    for key, n in zip(keys, num.values()):
        mass[key] = mass.get(key, 0) + n
    # reduced by their gcd, so the atom boundaries are those of the
    # (given state, target) pair distribution
    g = math.gcd(*mass.values())
    pair_mass = {key: mass[key] // g for key in sorted(mass)}
    supports, px, scale = _masses(pair_mass)

    orders: Mapping[Hashable, Sequence[int]] = supports
    if policy is not None:
        orders = {x: tuple(policy.get(x, ())) for x in supports}
        for x, ys in supports.items():
            if sorted(orders[x]) != ys:
                raise ValidationError(f"policy for x={x} must permute the positive-support y symbols {ys}")
    ends, cutset = _segment_layout(pair_mass, px, orders, scale)

    bounds = (0, *sorted(cutset), scale)
    n_atoms = len(bounds) - 1
    cells = n_atoms * len(px)
    if cells > limit:
        raise LimitError(f"{where}: the {u_name} mechanism needs {cells} cells, over the limit {limit}")
    # each segment covers a run of whole atoms, found by bisection over the
    # atom boundaries; an endpoint that is not a boundary would split an atom
    spans: dict[tuple[Hashable, int], range] = {}
    for x, segs in ends.items():
        for start, end, y in segs:
            i0 = bisect.bisect_left(bounds, start)
            i1 = bisect.bisect_left(bounds, end)
            if bounds[i0] != start or bounds[i1] != end:
                raise InvariantError("refinement atom crosses a segment boundary")
            spans[(x, y)] = range(i0, i1)
    del pair_mass, supports, orders, px, ends  # freed before the product table sets the peak memory
    mech = FrlMechanism(u_alphabet=Alphabet(u_name, n_atoms), bounds=bounds, spans=spans)

    u_alpha, y_alpha = mech.u_alphabet, parent.variables[target_axis]
    # one conditional row per positive (given state, target): atom widths over
    # the segment length, reduced by their gcd; a row summing to 1 keeps the
    # marginal of every parent variable unchanged. Each row's atoms open its
    # state's row of `head`, the (given state, U) marginal the checks read;
    # an atom in two rows of a state meets two targets
    head: dict[Hashable, dict[int, int]] = {}
    rows: dict[tuple, tuple[range, list[int], int, dict[int, int]]] = {}
    forked = False
    for key in mass:
        state, y = key
        span, widths, length = mech.row(state, y)
        total = sum(widths)
        if total != length or min(widths) <= 0:
            fault = "does not sum to 1" if total != length else "has a nonpositive entry"
            shown = state if len(given_axes) > 1 else (state,)
            raise InvariantError(f"{where}: P({u_name} | {shown}, {y_alpha.name}={y}) {fault}")
        g = math.gcd(length, *widths)
        row = head.setdefault(state, {})
        forked = forked or not row.keys().isdisjoint(span)
        row.update(dict.fromkeys(span, 0))
        rows[key] = (span, [w // g for w in widths], length // g, row)
    del mass
    stage_den = math.lcm(*(length for _, _, length, _ in rows.values()))

    cells = sum(len(rows[key][0]) for key in keys)
    if cells > limit:
        raise LimitError(f"{where}: the product needs {cells} cells, over the limit {limit}")
    # a reduced row's widths sum to its length, so their gcd is 1 and parent
    # cell n writes masses of gcd n * (stage_den // length); g divides them all
    cell_gcds = [n * (stage_den // rows[key][2]) for n, key in zip(num.values(), keys)]
    g = math.gcd(den * stage_den, *cell_gcds)
    # the product table, each written mass added to its (given state, U) cell
    table: dict[Cell, int] = {}
    for cell, key, n in zip(num, keys, cell_gcds):
        span, widths, _, row = rows[key]
        n //= g
        for u, w in zip(span, widths):
            mass_u = n * w
            table[cell + (u,)] = mass_u
            row[u] += mass_u
    del keys, rows, cell_gcds
    _check_stage(head, forked, [parent.variables[a].name for a in given_axes], u_alpha, y_alpha)
    return mech, JointDist._exact(parent.variables + (u_alpha,), table, den * stage_den // g)


def _check_stage(head: Mapping[Hashable, Mapping[int, int]], forked: bool,
                 given: Sequence[str], u_alpha: Alphabet, y_alpha: Alphabet) -> None:
    """The checks of stage U_k given (X, U_1..U_{k-1}), exactly and in this order:
    the target is a function of (given, U_k), that is, not `forked` (no
    (given state, U_k) cell met two target symbols); U_k is independent of the
    given states; U_1..U_k is independent of X; and
    |U_k| <= (positive given states) * (|target| - 1) + 1.

    `head` is the (given state, U_k) marginal, one row per given state,
    `head[state][u]`, as numerators over a denominator it need not name: the
    state is x alone or a tuple in `given` order. Both independence checks
    are `_product_test`, which compares ratios of masses, so scaling every
    mass by one factor changes no verdict.

    The third check runs on the state marginal P(x, u_<k) that the second
    returns, regrouped by x, not on `head`. Once U_k is independent of the
    states with the full product support, P(x, u_<k, u) = P(x, u_<k) P(u),
    and P(u) > 0 for every u of `head`. Summing over x, P(u_<k, u) =
    P(u_<k) P(u). So P(x, u_<k, u) = P(x) P(u_<k, u) holds exactly when
    P(x, u_<k) = P(x) P(u_<k) does, and the (x, (u_<k, u)) support is a
    full product exactly when the (x, u_<k) support is: X is independent of
    U_1..U_k exactly when it is of U_1..U_{k-1} on the state marginal.
    """
    u_name, target = u_alpha.name, y_alpha.name
    if forked:
        raise InvariantError(f"{target} not a function of ({', '.join([*given, u_name])})")
    independent, states = _product_test(head)
    if not independent:
        raise InvariantError(f"{u_name} not exactly independent of ({', '.join(given)})")
    if len(given) > 1:
        by_x: dict[int, dict[tuple[int, ...], int]] = {}
        for state, n in states.items():
            by_x.setdefault(state[0], {})[state[1:]] = n
        if not _product_test(by_x)[0]:
            raise InvariantError(f"{', '.join([*given[1:], u_name])} not exactly independent of {given[0]}")
    cap = cardinality_bound(len(states), y_alpha.size)
    if u_alpha.size > cap:
        raise InvariantError(f"|{u_name}|={u_alpha.size} exceeds the cardinality bound {cap}")


def cardinality_bound(x_size: int, y_size: int) -> int:
    """|X| * (|Y|-1) + 1, for X the (compound) given variable of a stage."""
    check_index(x_size, 1, None, "given-state count")
    check_index(y_size, 1, None, "target alphabet size")
    return x_size * (y_size - 1) + 1


def min_entropy_search(pxy: JointDist, budget: int) -> tuple[dict[int, tuple[int, ...]], float]:
    """Exhaust all segment orderings and return the one minimizing H(U).

    Explores the interval-construction subfamily only, so the reported value
    upper-bounds the true minimum over all feasible auxiliaries. H(U) depends
    only on an ordering's cut set, so each ordering is scored from that set
    and no mechanism is built; `frl_construct` with the returned policy
    builds and verifies the winner, whose `entropy()` equals the returned H.
    A budget below 1 is a ValidationError; more orderings than the budget,
    or than DEFAULT_STATE_LIMIT whatever the budget, raise LimitError before
    any is scored, counted only until they pass it.
    """
    if budget < 1:
        raise ValidationError(f"ordering-search budget must be at least 1, got {budget}")
    cap = min(budget, DEFAULT_STATE_LIMIT)
    bound = f"budget {budget}" if budget == cap else f"the limit {cap}"
    num, _ = pxy._ints()
    supports, px, scale = _masses(num)
    xs = sorted(supports)
    count = 1
    for factor in itertools.chain.from_iterable(range(2, len(supports[x]) + 1) for x in xs):
        count *= factor  # the product of the supports' factorials, stopped past the cap
        if count > cap:
            raise LimitError(f"{count}+ orderings exceed {bound}; use the canonical ordering surrogate")
    best_policy = None
    best_h = math.inf
    for combo in itertools.product(*(itertools.permutations(sorted(supports[x])) for x in xs)):
        policy = {x: perm for x, perm in zip(xs, combo)}
        _, cutset = _segment_layout(num, px, policy, scale)
        h = _bounds_entropy((0, *sorted(cutset), scale))
        if h < best_h - 1e-12:
            best_h = h
            best_policy = policy
    return best_policy, best_h


# ---------------------------------------------------------------------------
# Sequential extension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainStage:
    """One extension step: the mechanism of U_k given (X, U_1..U_{k-1}).

    The mechanism's given states are the positive x symbols at the first
    stage, as for a pair, and the positive tuples (x, u_1, ..., u_{k-1})
    after it.
    """

    target: str
    mechanism: FrlMechanism

    def _given_state(self, x: int, u_prefix: Sequence[int]) -> Hashable:
        state = (x, *u_prefix) if u_prefix else x
        if state not in self.mechanism._segments:
            raise ValidationError(f"compound state {(x, *u_prefix)} has zero mass")
        return state

    def decode(self, x: int, u_prefix: Sequence[int], u: int) -> int:
        return self.mechanism.apply(u, self._given_state(x, u_prefix))

    def row(self, x: int, u_prefix: Sequence[int], y: int) -> Row:
        """P(U_k | x, u_prefix, y) on integers, as `FrlMechanism.row` gives it."""
        return self.mechanism.row(self._given_state(x, u_prefix), y)


@dataclass(frozen=True)
class MechanismChain:
    """A sequence of mechanisms sharing one exact joint.

    `joint` covers every base variable it was created with, the private
    variable X first, and one U variable per stage after them. The whole U
    prefix is exactly independent of X at every length.
    """

    joint: JointDist
    stages: tuple[ChainStage, ...]

    @property
    def targets(self) -> tuple[str, ...]:
        return tuple(s.target for s in self.stages)

    @property
    def private_size(self) -> int:
        """|X|, the size of the private variable's alphabet."""
        return self.joint.variables[0].size

    def u_sizes(self) -> tuple[int, ...]:
        return tuple(s.mechanism.u_size for s in self.stages)


def _u_name(stage: int) -> str:
    """The name of a chain's auxiliary variable at 1-based `stage`; a base
    variable of that name is rejected when the stage is added."""
    return f"U{stage}"


def build_chain(base: JointDist, targets: Sequence[str],
                limit: int = DEFAULT_STATE_LIMIT) -> MechanismChain:
    """Run the sequential construction over `targets` in order; X is the
    base joint's first variable.

    Stage i is built given X and U_1..U_{i-1}, which the stages before it
    made independent of X, so that independence is not re-checked. Stage i
    only reads the marginal over (X, U_1..U_{i-1}, targets[i]), so the first
    i stages are identical for any continuation of the target list. A
    repeated target yields a constant (zero-entropy) stage. Segments are
    laid in the canonical ascending order. A stage whose mechanism or joint
    would pass `limit` cells raises LimitError before it is built.
    """
    joint = base
    given = [base.names[0]]
    stages: list[ChainStage] = []
    for k, target in enumerate(targets, 1):
        if target in given:
            raise ValidationError(f"cannot target {target!r}")
        *given_axes, target_axis = joint._axes([*given, target])
        u_name = _u_name(k)
        if u_name in base.names:
            raise ValidationError(f"variable name {u_name!r} already taken in the base joint")
        mech, joint = _stage(joint, given_axes, target_axis, u_name, None,
                             f"chain stage {k} ({target})", limit)
        stages.append(ChainStage(target=target, mechanism=mech))
        given.append(u_name)
    return MechanismChain(joint=joint, stages=tuple(stages))
