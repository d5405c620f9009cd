"""Constructive functional representation mechanisms.

Given a pair (X, Y), lay the conditional P(Y|X=x) of every x out as a
partition of [0,1) into rational-length segments, take the common refinement
of all the partitions, and let U be the refinement atom that a uniform point
lands in. By construction U is exactly independent of X, Y is a deterministic
function of (U, X), and the number of atoms is at most |X|(|Y|-1)+1. Each
(x, y) segment's run of atoms is both P(U | x, y) and the map (u, x) -> y.

The same construction extends sequentially: to attach a target Y_next to an
existing collection U_1..U_k, treat the compound (X, U_1..U_k) as the private
variable and run the pair construction again. Each extension multiplies the
chain joint by the new stage's conditionals P(U_{k+1} | X, U_1..U_k, Y_next);
every row of those must sum to exactly 1, so every earlier marginal, and with
it every earlier stage's guarantee, is left unchanged and needs no re-check.
The new stage alone is then checked once: U_{k+1} independent of
(X, U_1..U_k) and U_1..U_{k+1} of X, Y_next a function of (X, U_1..U_{k+1}),
and |U_{k+1}| within its cap, all read off the stage's (given state, U_{k+1})
marginal and the Y_next each of its cells meets, gathered as the stage's
product table is written; a pair is checked the same way, given X. Each
stage reads its (compound state, target) pairs from one walk of its parent.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .errors import DEFAULT_STATE_LIMIT, InvariantError, LimitError, ValidationError
from .probability import Alphabet, Cell, JointDist, _entropy_bits, _product_test, _projector

# Per-x permutation of the positive-support y symbols, fixing how segments
# are laid on [0,1); the default is ascending y. Guarantees hold for any
# ordering; H(U) does not.
OrderingPolicy = Mapping[int, Sequence[int]]

# P(U | given state, target) on integers: the atoms the segment covers (its
# span), their widths, and the segment length they sum to
Row = tuple[range, Sequence[int], int]


@dataclass(frozen=True)
class FrlMechanism:
    """The constructed auxiliary variable U for one (X, Y) pair.

    bounds    -- atom boundaries 0 = b_0 < ... < b_n on [0,1), as integers
                 over the common denominator b_n; atom u is [b_u, b_{u+1})
    dropped_x -- the zero-mass x symbols, which get no segments
    spans     -- (x, y) -> the range of atom indices its segment covers; the
                 segments of one positive x tile the atoms 0..n-1 in order

    The spans are the whole map: `apply(u, x)` is the y whose segment covers
    atom u, `row` the integer P(U | x, y), `conditional_u` its Fraction view.
    `atoms` and `p_u` are the Fraction views of `bounds`.
    """

    u_alphabet: Alphabet
    bounds: tuple[int, ...]
    dropped_x: tuple[int, ...]
    spans: Mapping[tuple[int, int], range] = field(repr=False)

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
    def _segments(self) -> dict[int, tuple[list[int], list[int]]]:
        """x -> the ends of its segments, ascending, and their y symbols."""
        segments: dict[int, tuple[list[int], list[int]]] = {}
        for (x, y), span in sorted(self.spans.items(), key=lambda item: (item[0][0], item[1].stop)):
            stops, ys = segments.setdefault(x, ([], []))
            stops.append(span.stop)
            ys.append(y)
        return segments

    def apply(self, u: int, x: int) -> int:
        """The y whose (x, y) segment covers atom u: a bisection over x's segment ends."""
        stops, ys = self._segments.get(x, ((), ()))
        i = bisect.bisect_right(stops, u)
        if u >= 0 and i < len(ys):
            return ys[i]
        raise ValidationError(f"(u={u}, x={x}) outside the positive support")

    def _span(self, x: int, y: int) -> range:
        span = self.spans.get((x, y))
        if span is None:
            if x in self.dropped_x:
                raise ValidationError(f"x={x} has zero mass (dropped)")
            raise ValidationError(f"(x={x}, y={y}) outside the positive support")
        return span

    def row(self, x: int, y: int) -> Row:
        """P(U | X=x, Y=y) on integers: the atoms the (x, y) segment covers,
        their widths b[u+1] - b[u], and the segment length they sum to."""
        span = self._span(x, y)
        b = self.bounds
        return span, self.widths[span.start:span.stop], b[span.stop] - b[span.start]

    def conditional_u(self, x: int, y: int) -> dict[int, Fraction]:
        """Exact P(U=u | X=x, Y=y): atom length over segment length."""
        span = self._span(x, y)
        b = self.bounds
        length = b[span.stop] - b[span.start]
        return {u: Fraction(b[u + 1] - b[u], length) for u in span}


def _bounds_entropy(bounds: Sequence[int]) -> float:
    """H(U) in bits for atoms [b_u, b_{u+1}) over the common denominator b_n."""
    return _entropy_bits((hi - lo for lo, hi in zip(bounds, bounds[1:])), bounds[-1])


def _supports(pxy: JointDist) -> dict[int, list[int]]:
    """x -> its positive-support y symbols, ascending, in one pass."""
    supports: dict[int, list[int]] = {}
    for x, y in pxy._ints()[0]:
        supports.setdefault(x, []).append(y)
    return supports


def _masses(num: Mapping[tuple[int, int], int],
            supports: Mapping[int, Sequence[int]]) -> tuple[dict[int, int], int]:
    """The integer mass n(x) of every positive x, and the segment scale: their lcm."""
    px = {x: sum(num[(x, y)] for y in ys) for x, ys in supports.items()}
    return px, math.lcm(*px.values())


def _segment_layout(num: Mapping[tuple[int, int], int], px: Mapping[int, int],
                    orders: OrderingPolicy, scale: int
                    ) -> tuple[dict[int, list[tuple[int, int, int]]], set[int]]:
    """Lay each x's segments P(y|x) = n(x,y)/n(x) end to end on [0, scale).

    Returns x -> its segments (start, end, y) in order, and the cut set: every
    segment end short of `scale`. The atom boundaries are the sorted cut set
    between 0 and `scale`.
    """
    ends: dict[int, list[tuple[int, int, int]]] = {}
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
    """Build the interval mechanism U for a pair distribution (X, Y).

    Zero-mass x symbols are dropped (recorded in `dropped_x`); zero-mass
    (x, y) pairs produce no segment. The mechanism is checked exactly as a
    chain stage is, on the (X, Y, U) table its rows write, given X.
    LimitError is raised before that table is built if it would hold more
    than DEFAULT_STATE_LIMIT cells, or X more than that many symbols.
    """
    mech = _interval_mechanism(pxy, policy, "U", DEFAULT_STATE_LIMIT)
    num, _ = pxy._ints()
    _stage_joint(pxy, (0, 1), dict.fromkeys(num, 1), {(x,): x for x, _ in num}, mech,
                 f"pair ({', '.join(pxy.names)})", DEFAULT_STATE_LIMIT)
    return mech


def _interval_mechanism(pxy: JointDist, policy: OrderingPolicy | None, u_name: str,
                        limit: int) -> FrlMechanism:
    """`frl_construct` without its check and without writing a table."""
    if len(pxy.variables) != 2:
        raise ValidationError(f"need a pair distribution, got variables {pxy.names}")
    num, _ = pxy._ints()

    supports = _supports(pxy)
    px, scale = _masses(num, supports)

    orders: Mapping[int, Sequence[int]] = supports
    if policy is not None:
        orders = {x: tuple(policy.get(x, ())) for x in supports}
        for x, ys in supports.items():
            if sorted(orders[x]) != ys:
                raise ValidationError(f"policy for x={x} must permute the positive-support y symbols {ys}")
    ends, cutset = _segment_layout(num, px, orders, scale)

    bounds = (0, *sorted(cutset), scale)
    n_atoms = len(bounds) - 1
    cells = n_atoms * len(px)
    if cells > limit:
        raise LimitError(f"the {u_name} mechanism needs {cells} cells, over the limit {limit}")
    x_alpha = pxy.variables[0]
    if x_alpha.size > limit:  # listing the zero-mass x symbols walks the whole alphabet
        raise LimitError(f"the {u_name} mechanism's {x_alpha.name} has {x_alpha.size} symbols, "
                         f"over the limit {limit}")

    # each segment covers a run of whole atoms, found by bisection over the
    # atom boundaries; an endpoint that is not a boundary would split an atom
    spans: dict[tuple[int, int], range] = {}
    for x, segs in ends.items():
        for start, end, y in segs:
            i0 = bisect.bisect_left(bounds, start)
            i1 = bisect.bisect_left(bounds, end)
            if bounds[i0] != start or bounds[i1] != end:
                raise InvariantError("refinement atom crosses a segment boundary")
            spans[(x, y)] = range(i0, i1)

    dropped = tuple(x for x in x_alpha.symbols() if x not in px)
    return FrlMechanism(u_alphabet=Alphabet(u_name, n_atoms), bounds=bounds,
                        dropped_x=dropped, spans=spans)


def _stage_joint(parent: JointDist, axes: Sequence[int], count: Mapping[Cell, int],
                 index: Mapping[Cell, int], mech: FrlMechanism, where: str, limit: int) -> JointDist:
    """`parent` times the rows P(U | given state, target) of `mech`, checked on
    the table written. `axes` are the given variables' then the target's;
    `count` maps each positive (given state, target) to its parent cells,
    `index` a given state to its symbol on `mech`'s x axis. LimitError is
    raised before the table is built if it would pass `limit` cells.
    """
    *given, y_alpha = [parent.variables[a] for a in axes]
    u_name, target = mech.u_alphabet.name, y_alpha.name
    # one conditional row per positive (given state, target): atom widths over
    # the segment length, reduced by their gcd; a row summing to 1 keeps the
    # marginal of every parent variable unchanged
    rows: dict[Cell, Row] = {}
    for key in count:
        state, y = key[:-1], key[-1]
        span, widths, length = mech.row(index[state], y)
        total = sum(widths)
        if total != length or min(widths) <= 0:
            fault = "does not sum to 1" if total != length else "has a nonpositive entry"
            raise InvariantError(f"{where}: P({u_name} | {state}, {target}={y}) {fault}")
        g = math.gcd(length, *widths)
        rows[key] = (span, [w // g for w in widths], length // g)
    stage_den = math.lcm(*(length for _, _, length in rows.values()))
    scaled = {key: [(u, w * (stage_den // length)) for u, w in zip(span, widths)]
              for key, (span, widths, length) in rows.items()}

    cells = sum(count[key] * len(span) for key, (span, _, _) in rows.items())
    if cells > limit:
        raise LimitError(f"{where}: the product needs {cells} cells, over the limit {limit}")
    # the product table, and as each cell is written, the stage checks' input:
    # the (given state, U_k) marginal of the written masses and the target each meets
    project = _projector(axes)
    num, den = parent._ints()
    table: dict[Cell, int] = {}
    head: dict[tuple[Cell, int], int] = {}
    image: dict[tuple[Cell, int], int] = {}
    forked = False
    for cell, n in num.items():
        key = project(cell)
        state, y = key[:-1], key[-1]
        for u, m in scaled[key]:
            mass_u = n * m
            table[cell + (u,)] = mass_u
            head_key = (state, u)
            if head_key in head:
                head[head_key] += mass_u
                if image[head_key] != y:
                    forked = True
            else:
                head[head_key] = mass_u
                image[head_key] = y
    _check_stage(head, den * stage_den, forked, [v.name for v in given], mech.u_alphabet, y_alpha)
    return JointDist._exact(parent.variables + (mech.u_alphabet,), table, den * stage_den)


def _check_stage(head: Mapping[tuple[Cell, int], int], den: int, forked: bool,
                 given: Sequence[str], u_alpha: Alphabet, y_alpha: Alphabet) -> None:
    """The checks of stage U_k given (X, U_1..U_{k-1}), exactly and in this order:
    the target is a function of (given, U_k), that is, not `forked` (no
    (given state, U_k) cell met two target symbols); U_k is independent of the
    given states; U_1..U_k is independent of X; and
    |U_k| <= (positive given states) * (|target| - 1) + 1.

    `head` is the (given state, U_k) marginal over `den`, keyed by (given state
    as a tuple in `given` order, u); scaling both by one factor changes no verdict.
    """
    u_name, target = u_alpha.name, y_alpha.name
    if forked:
        raise InvariantError(f"{target} not a function of ({', '.join([*given, u_name])})")
    independent, states, _ = _product_test(head, den)
    if not independent:
        raise InvariantError(f"{u_name} not exactly independent of ({', '.join(given)})")
    if len(given) > 1 and not _product_test(
            {(state[0], (*state[1:], u)): n for (state, u), n in head.items()}, den)[0]:
        raise InvariantError(f"{', '.join([*given[1:], u_name])} not exactly independent of {given[0]}")
    cap = cardinality_bound(len(states), y_alpha.size)
    if u_alpha.size > cap:
        raise InvariantError(f"|{u_name}|={u_alpha.size} exceeds the cardinality bound {cap}")


def cardinality_bound(x_size: int, y_size: int) -> int:
    """|X| * (|Y|-1) + 1, for X the (compound) given variable of a stage."""
    if x_size < 1 or y_size < 1:
        raise ValidationError("alphabet sizes must be >= 1")
    return x_size * (y_size - 1) + 1


def min_entropy_search(pxy: JointDist, budget: int = 10_000) -> tuple[dict[int, tuple[int, ...]], float]:
    """Exhaust all segment orderings and return the one minimizing H(U).

    Explores the interval-construction subfamily only, so the reported value
    upper-bounds the true minimum over all feasible auxiliaries. H(U) depends
    only on an ordering's cut set, so each ordering is scored from that set
    and no mechanism is built; `frl_construct` with the returned policy
    builds and verifies the winner, whose `entropy()` equals the returned H.
    A budget below 1 is a ValidationError.
    """
    if budget < 1:
        raise ValidationError(f"ordering-search budget must be at least 1, got {budget}")
    supports = _supports(pxy)
    xs = sorted(supports)
    count = 1
    for x in xs:
        count *= math.factorial(len(supports[x]))
        if count > budget:
            raise LimitError(
                f"{count}+ orderings exceed budget {budget}; use the canonical ordering surrogate"
            )
    num, _ = pxy._ints()
    px, scale = _masses(num, supports)
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
    """One extension step: a mechanism over the compound private variable.

    `compound` lists the positive-support tuples (x, u_1, ..., u_{k-1}) in
    sorted order; the mechanism's x axis indexes into it.
    """

    target: str
    mechanism: FrlMechanism
    compound: tuple[tuple[int, ...], ...]

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        """Compound state -> its index on the mechanism's x axis."""
        return {state: i for i, state in enumerate(self.compound)}

    @property
    def u_name(self) -> str:
        return self.mechanism.u_alphabet.name

    def _state(self, x: int, u_prefix: Sequence[int]) -> int:
        state = self.index.get((x, *u_prefix))
        if state is None:
            raise ValidationError(f"compound state {(x, *u_prefix)} has zero mass")
        return state

    def decode(self, x: int, u_prefix: Sequence[int], u: int) -> int:
        return self.mechanism.apply(u, self._state(x, u_prefix))

    def row(self, x: int, u_prefix: Sequence[int], y: int) -> Row:
        """P(U_k | x, u_prefix, y) on integers, as `FrlMechanism.row` gives it."""
        return self.mechanism.row(self._state(x, u_prefix), y)

    def conditional_u(self, x: int, u_prefix: Sequence[int], y: int) -> dict[int, Fraction]:
        return self.mechanism.conditional_u(self._state(x, u_prefix), y)


@dataclass(frozen=True)
class MechanismChain:
    """A sequence of mechanisms sharing one exact joint.

    `joint` covers the private variable, every base variable it was created
    with, and one U variable per stage. The whole U prefix is exactly
    independent of the private variable at every length.
    """

    private: str
    joint: JointDist
    stages: tuple[ChainStage, ...] = ()

    @property
    def u_names(self) -> tuple[str, ...]:
        return tuple(s.u_name for s in self.stages)

    @property
    def targets(self) -> tuple[str, ...]:
        return tuple(s.target for s in self.stages)

    @property
    def private_size(self) -> int:
        """|X|, the size of the private variable's alphabet."""
        return self.joint.variables[self.joint.names.index(self.private)].size

    def u_sizes(self) -> tuple[int, ...]:
        return tuple(s.mechanism.u_size for s in self.stages)


def _extend(chain: MechanismChain, target: str, limit: int = DEFAULT_STATE_LIMIT) -> MechanismChain:
    """Add one stage; the caller guarantees U_1..U_k is independent of the private variable.

    Raises LimitError before the stage's mechanism or product table is built
    if it would hold more than `limit` cells.
    """
    k = len(chain.stages)
    u_names = list(chain.u_names)
    if target == chain.private or target in u_names:
        raise ValidationError(f"cannot target {target!r}")
    axes = chain.joint._axes([chain.private, *u_names, target])

    # one walk of the parent joint: the mass of each (compound state, target)
    # pair and the number of parent cells behind it
    project = _projector(axes)
    num, chain_den = chain.joint._ints()
    mass: dict[tuple[int, ...], int] = {}
    count: dict[tuple[int, ...], int] = {}
    for cell, n in num.items():
        key = project(cell)
        mass[key] = mass.get(key, 0) + n
        count[key] = count.get(key, 0) + 1
    # the pair (compound state, target); compound states in sorted order
    index: dict[tuple[int, ...], int] = {}
    pair_num: dict[tuple[int, int], int] = {}
    for key in sorted(mass):
        pair_num[(index.setdefault(key[:-1], len(index)), key[-1])] = mass[key]
    states = tuple(index)
    pair = JointDist._exact((Alphabet(f"_XU{k}", len(states)), chain.joint.variables[axes[-1]]),
                            pair_num, chain_den)

    u_name = f"U{k + 1}"
    if u_name in chain.joint.names:
        raise ValidationError(f"variable name {u_name!r} already taken in the base joint")
    where = f"chain stage {k + 1} ({target})"
    try:
        mech = _interval_mechanism(pair, None, u_name, limit)
    except LimitError as exc:
        raise LimitError(f"{where}: {exc}") from None
    joint = _stage_joint(chain.joint, axes, count, index, mech, where, limit)
    stage = ChainStage(target=target, mechanism=mech, compound=states)
    return MechanismChain(private=chain.private, joint=joint, stages=chain.stages + (stage,))


def build_chain(base: JointDist, private: str, targets: Sequence[str],
                limit: int = DEFAULT_STATE_LIMIT) -> MechanismChain:
    """Run the sequential construction over `targets` in order.

    Stage i only reads the marginal over (private, U_1..U_{i-1}, targets[i]),
    so the first i stages are identical for any continuation of the target
    list. A repeated target yields a constant (zero-entropy) stage. Segments
    are laid in the canonical ascending order. A stage whose joint would pass
    `limit` cells raises LimitError before it is built.
    """
    base._axes([private])  # validates the variable exists
    chain = MechanismChain(private, base)
    for t in targets:
        chain = _extend(chain, t, limit)
    return chain
