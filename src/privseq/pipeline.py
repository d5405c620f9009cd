"""Multi-part sequential encoder/decoder and exact transcript auditing.

A session transcript is one pad slot carrying the one-time-padded private
symbol followed by one prefix-free slot per demand, each encoding the stage's
auxiliary variable. The encoder samples each auxiliary from its stage's
integer row, P(U_i | x, u_1..u_{i-1}, y_i) as atom widths over a segment
length, with one uniform integer draw, so a session forms no Fraction.
Distribution-level objects never sample: the exact joint
of (transcript, private symbol, key) is built by full enumeration, so the
zero-leakage audit is a rational product test, not a float comparison. The
enumeration needs only each transcript's bit length, which it reads from the
codebooks' code-length tables; the transcripts themselves are written from
their (padded x, u vector) parts on first access.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol, Sequence

from . import bounds as bounds_mod
from .coding import (
    ENTROPY,
    FIXED,
    Codebook,
    PadKey,
    entropy_codebook,
    fixed_length_codebook,
    otp_decrypt,
    otp_encrypt,
    pack_slots,
    unpack_slots,
)
from .errors import DEFAULT_STATE_LIMIT, InvariantError, LimitError, ValidationError
from .frl import MechanismChain, Row, build_chain
from .probability import Alphabet, JointDist, _entropy_bits, _product_test


@dataclass(frozen=True)
class Transcript:
    """Delivered message: ordered (label, bitstring) slots."""

    slots: tuple[tuple[str, str], ...]

    @property
    def bitstrings(self) -> tuple[str, ...]:
        return tuple(bits for _, bits in self.slots)

    def pack(self) -> bytes:
        return pack_slots(self.slots)

    @classmethod
    def unpack(cls, data: bytes) -> "Transcript":
        return cls(tuple(unpack_slots(data)))


class Draws(Protocol):
    """The coupling randomness of the sequential encoder.

    `pick(slot, row)` returns the slot's auxiliary symbol, one of `row`'s
    span. The row is a stage's exact conditional P(U_i | x, u_1..u_{i-1},
    y_i) as `ChainStage.row` gives it: atom u = span[j] has probability
    widths[j] / length.
    """

    def pick(self, slot: int, row: Row) -> int: ...


class RandomDraws:
    """Seeded coupling randomness; identical seeds give identical sessions."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def pick(self, slot: int, row: Row) -> int:
        """Draw span[j] with probability exactly widths[j] / length.

        The draw is an integer r uniform on [0, D), D = length / g for g the
        gcd of the length and the widths, placed against the cumulative
        widths as r * g. D is the lcm of the reduced probabilities'
        denominators, so a seed draws the same symbols as a draw from their
        Fraction view. A one-atom row still calls randrange(1), which uses
        random bits, so every later draw of the seed stays where it was.
        """
        span, widths, length = row
        cumulative = list(itertools.accumulate(widths))
        total = cumulative[-1] if cumulative else 0
        if total != length or length <= 0:
            raise InvariantError(f"slot-{slot} conditional sums to {total}/{length}, not 1")
        g = math.gcd(length, *widths)
        return span[bisect.bisect_right(cumulative, self._rng.randrange(length // g) * g)]


def demand_vector(p: JointDist, demands: Sequence[int]) -> tuple[int, ...]:
    """Validate a demand vector: distinct 1-based file indices."""
    demands = tuple(int(d) for d in demands)
    n_files = len(p.variables) - 1
    if not demands:
        raise ValidationError("empty demand vector")
    if len(set(demands)) != len(demands):
        raise ValidationError(f"demands must be pairwise distinct: {demands}")
    for d in demands:
        if not 1 <= d <= n_files:
            raise ValidationError(f"demand {d} outside 1..{n_files}")
    return demands


def session_chain(p: JointDist, demands: Sequence[int],
                  limit: int = DEFAULT_STATE_LIMIT) -> MechanismChain:
    """Build the mechanism chain for a demand vector over database joint `p`.

    A stage whose joint would pass `limit` cells raises LimitError.
    """
    demands = demand_vector(p, demands)
    names = bounds_mod.demand_names(p, demands)
    base = p.marginalize([p.variables[0].name, *names])
    return build_chain(base, p.variables[0].name, names, limit=limit)


def session_codebooks(chain: MechanismChain, mode: str) -> tuple[Codebook, list[Codebook]]:
    """Pad-slot book plus one book per stage, derived deterministically."""
    pad = fixed_length_codebook(chain.private_size)
    books = []
    for stage in chain.stages:
        if mode == FIXED:
            books.append(fixed_length_codebook(stage.mechanism.u_size))
        elif mode == ENTROPY:
            books.append(entropy_codebook(stage.mechanism.widths))
        else:
            raise ValidationError(f"unknown coding mode {mode!r}")
    return pad, books


def _check_chain_matches(p: JointDist, demands: Sequence[int], chain: MechanismChain) -> None:
    names = tuple(bounds_mod.demand_names(p, demands))
    if chain.targets != names:
        raise ValidationError(f"chain targets {chain.targets} do not match demands {names}")
    if chain.private != p.variables[0].name:
        raise ValidationError("chain private variable does not match the database joint")


Books = tuple[Codebook, list[Codebook]]


def _slot_label(i: int) -> str:
    """The slot layout: slot 0 is "pad" (the padded private symbol), slot i is "u<i>"."""
    return f"u{i}" if i else "pad"


def _write_slots(books: Books, xt: int, u_vec: Sequence[int]) -> Transcript:
    pad_book, stage_books = books
    return Transcript(((_slot_label(0), pad_book.encode(xt)),) + tuple(
        (_slot_label(i), book.encode(u)) for i, (book, u) in enumerate(zip(stage_books, u_vec), 1)))


def _check_key(chain: MechanismChain, key: PadKey) -> None:
    if key.modulus != chain.private_size:
        raise ValidationError(f"pad key modulus {key.modulus} != |X| = {chain.private_size}")


def encode_walk(chain: MechanismChain, books: Books, x: int, key: PadKey,
                symbols: Iterable[int], draws: Draws) -> Transcript:
    """The sequential encoder: pad x, then one auxiliary per stage.

    `symbols` yields the stage-i target value and is read lazily: symbol i+1
    is not requested before slot i is drawn. Stage i samples u_i from its
    exact conditional given (x, u_1..u_{i-1}, symbol i). After the last slot
    one more symbol is requested; a stream that has one is too long.
    """
    _check_key(chain, key)
    xt = otp_encrypt(x, key)
    symbols = iter(symbols)
    prefix: tuple[int, ...] = ()
    for i, (stage, y) in enumerate(zip(chain.stages, symbols)):
        row = stage.row(x, prefix, y)
        u = draws.pick(i, row)
        if u not in row[0]:
            raise ValidationError(f"draw {u} outside the slot-{i} support")
        prefix += (u,)
    if len(prefix) != len(chain.stages):
        raise ValidationError(f"symbol stream ended early at stage {len(prefix) + 1}")
    for _ in symbols:
        raise ValidationError(f"symbol stream has a symbol past stage {len(prefix)}, the last")
    return _write_slots(books, xt, prefix)


def decode_walk(chain: MechanismChain, books: Books, transcript: Transcript,
                key: PadKey) -> tuple[int, tuple[int, ...]]:
    """The sequential decoder: recover x, then each stage's target value."""
    _check_key(chain, key)
    pad_book, stage_books = books
    if len(transcript.slots) != len(chain.stages) + 1:
        raise ValidationError(
            f"transcript has {len(transcript.slots)} slots, expected {len(chain.stages) + 1}"
        )
    for i, (label, _) in enumerate(transcript.slots):
        if label != _slot_label(i):
            raise ValidationError(f"slot {i} is labelled {label!r}, expected {_slot_label(i)!r}")
    (_, pad_bits), *rest = transcript.slots
    x = otp_decrypt(pad_book.decode(pad_bits), key)
    ys = []
    prefix: tuple[int, ...] = ()
    for stage, book, (_, bits) in zip(chain.stages, stage_books, rest):
        u = book.decode(bits)
        ys.append(stage.decode(x, prefix, u))
        prefix += (u,)
    return x, tuple(ys)


def encode_session(p: JointDist, realization: Sequence[int], demands: Sequence[int],
                   key: PadKey, chain: MechanismChain, draws: Draws,
                   mode: str = FIXED, books: Books | None = None) -> Transcript:
    """Produce the multi-part transcript for one realized database row.

    Slot 0 is the fixed-length code of the padded private symbol; slot i
    encodes the stage-i auxiliary sampled from its exact conditional given
    (x, u_1..u_{i-1}, y at demand i). Only the current demand's file is read
    at each step. Callers looping over many realizations can pass
    precomputed `books` from session_codebooks.
    """
    demands = demand_vector(p, demands)
    _check_chain_matches(p, demands, chain)
    realization = tuple(realization)
    if realization not in p._ints()[0]:
        raise ValidationError(f"realization {realization} outside the support")
    return encode_walk(chain, books or session_codebooks(chain, mode), realization[0], key,
                       (realization[d] for d in demands), draws)


def decode_session(transcript: Transcript, key: PadKey, demands: Sequence[int],
                   chain: MechanismChain, mode: str = FIXED,
                   books: Books | None = None) -> tuple[int, tuple[int, ...]]:
    """Recover the private symbol and every demanded file from a transcript."""
    return decode_walk(chain, books or session_codebooks(chain, mode), transcript, key)


@dataclass(frozen=True)
class TranscriptDistribution:
    """Exact joint of (transcript index, private symbol, key symbol).

    `transcript_distribution` builds one. `lengths[c]` is the bit length of
    transcript c, worked out from the books' code-length tables; each
    transcript is kept as its `parts`, and `transcripts` writes them with
    `books` on first access. It keeps the (C, X) marginal `cx`, which the
    leakage audit reads, and, per key value, the sums `expected_length`
    divides. The (C, X, W) `joint` is derived from `cx` on first read, since
    the key is a function of the transcript's padded symbol and x.
    """

    lengths: tuple[int, ...]
    parts: tuple[tuple[int, tuple[int, ...]], ...]  # (padded x, u vector)
    books: Books = field(repr=False)
    cx: JointDist = field(repr=False)  # variables C, X
    w_sums: tuple[tuple[int, int], ...] = field(repr=False)  # per w: (mass * length, mass)
    _transcripts: tuple[Transcript, ...] | None = field(default=None, repr=False, compare=False)
    _joint: JointDist | None = field(default=None, init=False, repr=False, compare=False)

    def cxw_cells(self) -> Iterator[tuple[tuple[int, int, int], int]]:
        """The (C, X, W) cells with their numerators over `cx`'s denominator:
        cell (c, x) of `cx` gains w = padded x - x mod |X|, which keeps the
        cells sorted."""
        key_size = self.cx.variables[1].size
        parts = self.parts
        for (c, x), n in self.cx._ints()[0].items():
            yield (c, x, (parts[c][0] - x) % key_size), n

    @property
    def joint(self) -> JointDist:
        """The (C, X, W) joint of `cxw_cells`; derived once, then kept."""
        if self._joint is None:
            object.__setattr__(self, "_joint", JointDist._exact(
                (*self.cx.variables, Alphabet("W", self.cx.variables[1].size)),
                dict(self.cxw_cells()), self.cx._ints()[1]))
        return self._joint

    @property
    def transcripts(self) -> tuple[Transcript, ...]:
        """Transcript c is `_write_slots(books, *parts[c])`; written once, then kept."""
        if self._transcripts is None:
            object.__setattr__(self, "_transcripts",
                               tuple(_write_slots(self.books, *part) for part in self.parts))
        return self._transcripts


def transcript_distribution(chain: MechanismChain, books: Books | str,
                            limit: int = DEFAULT_STATE_LIMIT) -> TranscriptDistribution:
    """Enumerate the exact joint (C, X), and through it (C, X, W), with rational weights.

    `books` are the chain's codebooks from session_codebooks, or a coding
    mode whose books are built once the |chain joint| * |X| states are
    within `limit`, so no |X|-word pad book is built past it. The key size
    is |X|, as the one-time pad fixes it. Each cell of the chain's joint
    (x, demanded files, auxiliaries) fans out over the uniform key. A
    transcript's index is the order its (padded x, u vector) is first met
    over the chain joint's sorted cells; its length is summed from the books'
    code-length tables. The same walk gathers, per key value, the mass and
    the mass times length that `expected_length` divides. A chain with no
    stages (a fully cached delivery) gives the pad slot alone.
    """
    x_size = key_size = chain.private_size
    states = len(chain.joint) * key_size
    if states > limit:
        raise LimitError(f"{states} weighted states exceed the limit {limit}")
    if isinstance(books, str):
        books = session_codebooks(chain, books)

    pad_book, stage_books = books
    k = len(chain.stages)
    x_axis = chain.joint.names.index(chain.private)
    u_start = len(chain.joint.variables) - k  # the stages' U variables come last

    # u vector -> (its bits, the index of (padded x, u vector) by padded x; None until met)
    by_u: dict[tuple[int, ...], tuple[int, list[int | None]]] = {}
    pads: dict[int, list[tuple[int, int]]] = {}  # occurring x -> (x + w mod |X|, its bits) by w
    x_mass: dict[int, int] = {}
    u_bits_mass = 0  # the chain cells' masses times their auxiliary bits
    lengths: list[int] = []
    parts: list[tuple[int, tuple[int, ...]]] = []
    table: dict[tuple[int, int], int] = {}
    num, den = chain.joint._ints()
    for cell, n in num.items():
        x = cell[x_axis]
        u_vec = cell[u_start:]
        entry = by_u.get(u_vec)
        if entry is None:
            entry = by_u[u_vec] = (sum(book.length(u) for book, u in zip(stage_books, u_vec)),
                                   [None] * x_size)
        bits, index_by_xt = entry
        x_pads = pads.get(x)
        if x_pads is None:
            x_pads = pads[x] = [(xt, pad_book.length(xt)) for xt in (*range(x, x_size), *range(x))]
        x_mass[x] = x_mass.get(x, 0) + n
        u_bits_mass += n * bits
        for xt, pad_bits in x_pads:
            idx = index_by_xt[xt]
            if idx is None:
                idx = index_by_xt[xt] = len(parts)
                lengths.append(pad_bits + bits)
                parts.append((xt, u_vec))
            key = (idx, x)
            table[key] = table.get(key, 0) + n

    # each cell's weight n meets every key value once, so each w has mass den
    w_sums = tuple((u_bits_mass + sum(m * pads[x][w][1] for x, m in x_mass.items()), den)
                   for w in range(key_size))
    # each cell's weight is spread evenly over the key_size key values
    cx = JointDist._exact((Alphabet("C", len(parts)), Alphabet("X", x_size)),
                          table, den * key_size, ordered=False)
    return TranscriptDistribution(tuple(lengths), tuple(parts), books, cx, w_sums)


@dataclass(frozen=True)
class LeakageReport:
    exact_zero: bool
    bits: float


def leakage_audit(td: TranscriptDistribution) -> LeakageReport:
    """Rational product test of transcript-vs-private independence, and I(C; X).

    The enumeration's (C, X) marginal `td.cx` serves both: the verdict is
    `_product_test` on its (c, x) pairs, and I = H(C) + H(X) - H(C, X),
    clamped at 0, with each entropy summed over sorted cells as
    `JointDist.entropy` sums it.
    """
    cx, den = td.cx._ints()  # cells are (c, x) pairs
    exact, pc, px = _product_test(cx, den)
    # cx is sorted, so pc meets its symbols in sorted order and px may not
    bits = (_entropy_bits(pc.values(), den) + _entropy_bits((px[x] for x in sorted(px)), den)
            - _entropy_bits(cx.values(), den))
    return LeakageReport(exact_zero=exact, bits=max(0.0, bits))


@dataclass(frozen=True)
class ExpectedLength:
    per_w: tuple[float, ...]
    max_over_w: float


def expected_length(td: TranscriptDistribution) -> ExpectedLength:
    """E[len(C) | W=w] for each key value, from the per-key sums `td.w_sums`;
    exact ratios, reported as floats."""
    # int / int is correctly rounded, as float() of the reduced Fraction is
    per_w = tuple(t / m if m else 0.0 for t, m in td.w_sums)
    return ExpectedLength(per_w=per_w, max_over_w=max(per_w))


@dataclass(frozen=True)
class SweepRow:
    demands: tuple[int, ...]
    expected_len: float
    per_w: tuple[float, ...]
    lower: float
    upper_cardinality: int
    upper_entropy_estimate: int
    leakage_exact_zero: bool
    leakage_bits: float
    u_sizes: tuple[int, ...]
    transcript_support: int

    def sandwich_ok(self) -> bool:
        """lower <= measured <= cardinality bound, within 1e-9 of float dust."""
        return (self.lower <= self.expected_len + 1e-9
                and self.expected_len <= self.upper_cardinality + 1e-9)


def audit_demands(p: JointDist, demands: Sequence[int], mode: str = FIXED,
                  limit: int = DEFAULT_STATE_LIMIT) -> tuple[SweepRow, MechanismChain, Books]:
    """One demand vector end to end: chain, transcript distribution, leakage
    audit, expected length and bounds. Returns the row, the chain it built
    and the chain's codebooks, for sessions over the same chain."""
    demands = demand_vector(p, demands)
    chain = session_chain(p, demands, limit=limit)
    td = transcript_distribution(chain, mode, limit)
    el = expected_length(td)
    leak = leakage_audit(td)
    row = SweepRow(
        demands=demands,
        expected_len=el.max_over_w,
        per_w=el.per_w,
        lower=bounds_mod.lower_bound(p, demands),
        upper_cardinality=bounds_mod.upper_bound_cardinality(
            chain.private_size, [p.variables[d].size for d in demands]),
        upper_entropy_estimate=bounds_mod.upper_bound_entropy_estimate(chain),
        leakage_exact_zero=leak.exact_zero,
        leakage_bits=leak.bits,
        u_sizes=chain.u_sizes(),
        transcript_support=len(td.lengths),
    )
    return row, chain, td.books


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    worst: SweepRow  # maximizes expected length


def worst_case_sweep(p: JointDist, k: int, mode: str = FIXED,
                     limit: int = DEFAULT_STATE_LIMIT) -> SweepResult:
    """Evaluate every length-k demand vector and report the maximizer."""
    n_files = len(p.variables) - 1
    if not 1 <= k <= n_files:
        raise ValidationError(f"k must be in 1..{n_files}")
    if math.perm(n_files, k) > limit:
        raise LimitError(f"perm({n_files}, {k}) demand vectors exceed the limit {limit}")
    rows = tuple(audit_demands(p, demands, mode, limit)[0]
                 for demands in itertools.permutations(range(1, n_files + 1), k))
    return SweepResult(rows=rows, worst=max(rows, key=lambda r: r.expected_len))
