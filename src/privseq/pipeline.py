"""Multi-part sequential encoder/decoder and exact transcript auditing.

A session transcript is one pad slot carrying the one-time-padded private
symbol followed by one prefix-free slot per demand, each encoding the stage's
auxiliary variable. The encoder samples each auxiliary from its stage's
integer row, P(U_i | x, u_1..u_{i-1}, y_i) as atom widths over a segment
length, with one uniform integer draw, so a session forms no Fraction.
Distribution-level objects never sample: the exact joint of (transcript,
private symbol, key) is built by full enumeration, so the zero-leakage audit
is a rational product test, not a float comparison. The key is uniform, so
that joint is |X| copies of the (u vector, private symbol) law, one per
padded symbol, as in Shannon's one-time pad: the enumeration keeps that law
once, as one {x: mass} row per u vector, and transcript j of a u vector
pads its row's first x by j, by definition. The audit tests those rows
without writing the copies, so a pass is zero leakage exactly. The pad slot
is a ceil(log2 |X|)-bit field, so all key values share one length sum, read
from the stage books' codewords; no transcript is written. The transcripts
and the whole (transcript, private symbol, key) joint are views, derived on
every read.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

from . import bounds as bounds_mod
from .coding import (
    ENTROPY,
    FIXED,
    Codebook,
    PadKey,
    entropy_codebook,
    fixed_decode,
    fixed_encode,
    fixed_length_codebook,
    fixed_width,
    otp_decrypt,
    otp_encrypt,
    pack_slots,
    unpack_slots,
)
from .errors import DEFAULT_STATE_LIMIT, InvariantError, LimitError, ValidationError, check_index
from .frl import MechanismChain, Row, _u_name, build_chain
from .probability import Alphabet, JointDist, _entropy_bits, _product_test


@dataclass(frozen=True)
class Transcript:
    """Delivered message: the pad slot's bits, then one slot's bits per stage
    in stage order. A slot's label follows from its position
    (`coding.slot_label`), so only the packed form writes and checks it."""

    bitstrings: tuple[str, ...]

    def pack(self) -> bytes:
        return pack_slots(self.bitstrings)

    @classmethod
    def unpack(cls, data: bytes) -> "Transcript":
        return cls(unpack_slots(data))


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
    demands = tuple(demands)
    if not demands:
        raise ValidationError("empty demand vector")
    bounds_mod.demand_names(p, demands)  # each an int in 1..n_files
    if len(set(demands)) != len(demands):
        raise ValidationError(f"demands must be pairwise distinct: {demands}")
    return demands


def _demanded_base(p: JointDist, demands: Sequence[int]) -> tuple[JointDist, list[str]]:
    """The exact (private, demanded files) marginal a chain is built on, and
    the demanded files' names in demand order."""
    names = bounds_mod.demand_names(p, demands)
    return p.marginalize([p.variables[0].name, *names]), names


def session_chain(p: JointDist, demands: Sequence[int],
                  limit: int = DEFAULT_STATE_LIMIT) -> MechanismChain:
    """Build the mechanism chain for a demand vector over database joint `p`.

    A stage whose joint would pass `limit` cells raises LimitError.
    """
    base, names = _demanded_base(p, demand_vector(p, demands))
    return build_chain(base, names, limit=limit)


def session_codebooks(chain: MechanismChain, mode: str) -> Books:
    """One book per stage, derived deterministically; the pad slot has none.

    The mode is checked before any book is built, so a chain with no stages
    rejects an unknown one too.
    """
    if mode not in (FIXED, ENTROPY):
        raise ValidationError(f"unknown coding mode {mode!r}")
    if mode == FIXED:
        return tuple(fixed_length_codebook(stage.mechanism.u_size) for stage in chain.stages)
    return tuple(entropy_codebook(stage.mechanism.widths) for stage in chain.stages)


Books = tuple[Codebook, ...]  # one per stage, in stage order


def _write_slots(books: Books, x_size: int, xt: int, u_vec: Sequence[int]) -> Transcript:
    return Transcript((fixed_encode(xt, x_size), *map(Codebook.encode, books, u_vec)))


def _check_key(chain: MechanismChain, key: PadKey) -> None:
    if key.modulus != chain.private_size:
        raise ValidationError(f"pad key modulus {key.modulus} != |X| = {chain.private_size}")


def _check_books(chain: MechanismChain, books: Books) -> None:
    if len(books) != len(chain.stages):
        raise ValidationError(f"{len(books)} codebooks for a chain of {len(chain.stages)} stages")


def encode_walk(chain: MechanismChain, books: Books, x: int, key: PadKey,
                symbols: Iterable[int], draws: Draws) -> Transcript:
    """The sequential encoder: pad x, then one auxiliary per stage.

    `symbols` yields the stage-i target value and is read lazily: symbol i+1
    is not requested before slot i is drawn. Stage i samples u_i from its
    exact conditional given (x, u_1..u_{i-1}, symbol i). After the last slot
    one more symbol is requested; a stream that has one is too long.
    """
    _check_key(chain, key)
    _check_books(chain, books)
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
    return _write_slots(books, chain.private_size, xt, prefix)


def decode_walk(chain: MechanismChain, books: Books, transcript: Transcript,
                key: PadKey) -> tuple[int, tuple[int, ...]]:
    """The sequential decoder: recover x, then each stage's target value.

    Slot 0 is the pad slot and slot i stage i's, by position; a packed
    transcript's labels were checked by `Transcript.unpack`."""
    _check_key(chain, key)
    _check_books(chain, books)
    if len(transcript.bitstrings) != len(chain.stages) + 1:
        raise ValidationError(
            f"transcript has {len(transcript.bitstrings)} slots, expected {len(chain.stages) + 1}"
        )
    pad_bits, *rest = transcript.bitstrings
    x = otp_decrypt(fixed_decode(pad_bits, chain.private_size), key)
    ys = []
    prefix: tuple[int, ...] = ()
    for stage, book, bits in zip(chain.stages, books, rest):
        u = book.decode(bits)
        ys.append(stage.decode(x, prefix, u))
        prefix += (u,)
    return x, tuple(ys)


def encode_session(p: JointDist, realization: Sequence[int], demands: Sequence[int],
                   key: PadKey, chain: MechanismChain, draws: Draws,
                   mode: str = FIXED, books: Books | None = None) -> Transcript:
    """Produce the multi-part transcript for one realized database row.

    Slot 0 is the padded private symbol as a ceil(log2 |X|)-bit field; slot
    i encodes the stage-i auxiliary, sampled from its exact conditional
    given (x, u_1..u_{i-1}, y at demand i), with the stage's book. Only the
    current demand's file is read at each step. Callers looping over many
    realizations can pass the stage books from session_codebooks once.
    """
    demands = demand_vector(p, demands)
    names = tuple(p.variables[d].name for d in demands)
    if chain.targets != names:
        raise ValidationError(f"chain targets {chain.targets} do not match demands {names}")
    if chain.joint.variables[0] != p.variables[0]:
        raise ValidationError("chain private variable does not match the database joint")
    realization = tuple(realization)
    for s, alpha in zip(realization, p.variables):
        check_index(s, 0, alpha.size - 1, f"{alpha.name!r} symbol")
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
    """Exact joint of (transcript index, private symbol, key symbol), kept factored.

    `transcript_distribution` builds one. The key is uniform over `pad_size`
    values, and each key value sends a chain cell to one padded symbol, so
    the (C, X) law is `pad_size` copies of the (U vector, X) law, and
    I(C; X) = I(U; X). `groups` maps each u vector, in the order first met,
    to its row: each x, ascending, mapped to the numerator of
    P(U = u, X = x) over `den`. Transcript g * pad_size + j of group g is
    ((x0 + j) mod pad_size, u) for x0 the row's first x, by definition, the
    rotation that the one-time pad makes of a block, and its cell with x has
    mass row[x] / (den * pad_size). `length_sum / den` is E[len(C)], the
    same under every key value.

    The audits read only these fields. The (C, X, W) `joint` and the
    `transcripts`, written with the stage `books` and a fixed-width pad slot,
    are views, derived from them on every read and not kept.
    """

    books: Books = field(repr=False)
    pad_size: int
    groups: dict[tuple[int, ...], dict[int, int]] = field(repr=False)
    den: int
    length_sum: int  # sum of mass * length over the cells under one key value, over den

    @property
    def support(self) -> int:
        """The number of transcripts: a block of `pad_size` per u vector."""
        return len(self.groups) * self.pad_size

    @property
    def joint(self) -> JointDist:
        """The (C, X, W) joint in sorted cell order: copy j of a group pads
        its first x to x0 + j mod pad_size, and its cell with x has the key
        value w = x0 + j - x mod pad_size. X has pad_size symbols."""
        size = self.pad_size
        cells = {}
        c = 0
        for masses in self.groups.values():
            x0 = next(iter(masses))
            for xt in range(x0, x0 + size):
                for x, n in masses.items():
                    cells[c, x, (xt - x) % size] = n
                c += 1
        return JointDist._exact(
            (Alphabet("C", self.support), Alphabet("X", size), Alphabet("W", size)),
            cells, self.den * size)

    @property
    def transcripts(self) -> tuple[Transcript, ...]:
        """Transcript c, written with `books` from its padded x and u vector."""
        size = self.pad_size
        return tuple(_write_slots(self.books, size, (next(iter(masses)) + j) % size, u_vec)
                     for u_vec, masses in self.groups.items() for j in range(size))


def transcript_distribution(chain: MechanismChain, books: Books,
                            limit: int = DEFAULT_STATE_LIMIT) -> TranscriptDistribution:
    """Enumerate the exact transcript law with rational weights, factored.

    `books` has one book per stage. The key size is |X|, as the one-time pad
    fixes it, and the |chain joint| * |X| weighted states must be within
    `limit`. Each cell of the chain's joint (x, demanded files, auxiliaries)
    fans out over the uniform key into one transcript per padded symbol
    x + w mod |X|, each with 1/|X| of its mass, so the walk keeps only the
    (u vector, x) masses, one {x: mass} row per u vector in the order first
    met over the chain joint's sorted cells; X is its first variable, so each
    row meets its x in ascending order. A u vector's block of transcript
    indices pads its row's first x by each key value in turn. The length sum
    is each u vector's code length in the books times its row's mass, plus
    the pad slot's ceil(log2 |X|) bits times `den`. A chain with no stages
    (a fully cached delivery) gives the pad slot alone.
    """
    _check_books(chain, books)
    x_size = chain.private_size
    states = len(chain.joint) * x_size
    if states > limit:
        raise LimitError(f"{states} weighted states exceed the limit {limit}")

    u_start = len(chain.joint.variables) - len(chain.stages)  # the stages' U variables come last
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    num, den = chain.joint._ints()
    for cell, n in num.items():
        masses = groups.setdefault(cell[u_start:], {})
        masses[cell[0]] = masses.get(cell[0], 0) + n

    length_sum = fixed_width(x_size) * den + sum(
        sum(map(Codebook.length, books, u_vec)) * sum(masses.values())
        for u_vec, masses in groups.items())
    return TranscriptDistribution(books, x_size, groups, den, length_sum)


@dataclass(frozen=True)
class LeakageReport:
    exact_zero: bool
    bits: float


def leakage_audit(td: TranscriptDistribution) -> LeakageReport:
    """Exact test of transcript-vs-private independence on the factored law.

    Transcript j of a u vector's block pads its first x by j, so each key
    value gives its own transcript of the block, and each (c, x) cell of
    u's block has mass P(u, x) / pad_size: C = (X + W mod pad_size, U) with
    W uniform and independent of (X, U), Shannon's one-time pad, so
    I(C; X) = I(U; X), and the verdict is `_product_test` on the (u vector,
    X) law. A pass reports I = 0.0, exactly. A fail reports I(U; X) =
    H(U) + H(X) - H(U, X), clamped at 0, each entropy summed with the u
    vectors ascending and the x ascending within each, the order of the
    sorted (U, X) table.
    """
    rows, den = td.groups, td.den
    exact, u_mass = _product_test(rows)
    if exact:
        return LeakageReport(exact_zero=True, bits=0.0)
    x_mass: Counter[int] = Counter()
    for masses in rows.values():
        x_mass.update(masses)
    order = sorted(rows)
    bits = (_entropy_bits((u_mass[u_vec] for u_vec in order), den)
            + _entropy_bits((x_mass[x] for x in sorted(x_mass)), den)
            - _entropy_bits((n for u_vec in order for n in rows[u_vec].values()), den))
    return LeakageReport(exact_zero=False, bits=max(0.0, bits))


@dataclass(frozen=True)
class ExpectedLength:
    per_w: tuple[float, ...]
    max_over_w: float


def expected_length(td: TranscriptDistribution) -> ExpectedLength:
    """E[len(C) | W=w] for each key value, all `td.length_sum / td.den`, as
    each key value meets every chain cell once; exact, reported as floats."""
    # int / int is correctly rounded, as float() of the reduced Fraction is
    mean = td.length_sum / td.den
    return ExpectedLength(per_w=(mean,) * td.pad_size, max_over_w=mean)


@dataclass(frozen=True)
class SweepRow:
    demands: tuple[int, ...]
    expected_len: float  # the same under every key value
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


def _audit_row(p: JointDist, demands: tuple[int, ...], chain: MechanismChain,
               books: Books, limit: int) -> SweepRow:
    """The row of a valid demand vector on its built chain and books: the
    transcript distribution, leakage audit, expected length and bounds."""
    td = transcript_distribution(chain, books, limit)
    el = expected_length(td)
    leak = leakage_audit(td)
    return SweepRow(
        demands=demands,
        expected_len=el.max_over_w,
        lower=bounds_mod.lower_bound(p, demands),
        upper_cardinality=bounds_mod.upper_bound_cardinality(
            chain.private_size, [p.variables[d].size for d in demands]),
        upper_entropy_estimate=bounds_mod.upper_bound_entropy_estimate(chain),
        leakage_exact_zero=leak.exact_zero,
        leakage_bits=leak.bits,
        u_sizes=chain.u_sizes(),
        transcript_support=td.support,
    )


def audit_demands(p: JointDist, demands: Sequence[int], mode: str = FIXED,
                  limit: int = DEFAULT_STATE_LIMIT) -> tuple[SweepRow, MechanismChain, Books]:
    """One demand vector end to end: chain, transcript distribution, leakage
    audit, expected length and bounds. Returns the row, the chain it built
    and the chain's codebooks, for sessions over the same chain."""
    demands = demand_vector(p, demands)
    chain = session_chain(p, demands, limit=limit)
    books = session_codebooks(chain, mode)
    return _audit_row(p, demands, chain, books, limit), chain, books


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    worst: SweepRow  # maximizes expected length


def worst_case_sweep(p: JointDist, k: int, mode: str = FIXED,
                     limit: int = DEFAULT_STATE_LIMIT) -> SweepResult:
    """Evaluate every length-k demand vector and report the maximizer.

    Each row is the one `audit_demands` gives its vector. A chain is a
    function of its vector's demanded marginal, so the vectors are grouped
    by that marginal (alphabet sizes in demand order, denominator and
    integer cells) and one chain, and one set of codebooks, is built per
    group, from its first vector's files: exchangeable files, as in the
    masked family, share one chain across every ordering. Every vector
    still enumerates and audits its own transcript law on the group's
    chain, and gets its own bounds. The groups are built and
    audited one at a time, in the order of their first vectors, so at most
    one built chain is alive, and the first vector that raises is the one
    that would without the sharing.
    """
    n_files = len(p.variables) - 1
    check_index(k, 1, n_files, "k")
    if math.perm(n_files, k) > limit:
        raise LimitError(f"perm({n_files}, {k}) demand vectors exceed the limit {limit}")
    vectors = list(itertools.permutations(range(1, n_files + 1), k))
    # a demanded file named like a stage's auxiliary fails the build, so
    # which of those names are taken is part of the key
    stage_names = [_u_name(i) for i in range(1, k + 1)]
    groups: dict[tuple, tuple[JointDist, list[str], list[int]]] = {}
    for i, demands in enumerate(vectors):
        base, names = _demanded_base(p, demands)
        num, den = base._ints()
        key = (tuple(v.size for v in base.variables), den, tuple(num.items()),
               tuple(u in base.names for u in stage_names))
        groups.setdefault(key, (base, names, []))[2].append(i)
    rows: dict[int, SweepRow] = {}
    for base, names, members in groups.values():
        chain = build_chain(base, names, limit=limit)
        books = session_codebooks(chain, mode)
        for i in members:
            rows[i] = _audit_row(p, vectors[i], chain, books, limit)
        del chain, books  # freed before the next group's chain is built
    ordered = tuple(rows[i] for i in range(len(vectors)))
    return SweepResult(rows=ordered, worst=max(ordered, key=lambda r: r.expected_len))
