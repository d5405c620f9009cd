"""Coded-caching placement/delivery with a privacy wrap on the block stream.

Placement splits each file into equal subfiles indexed by p-subsets of the
user set; delivery XORs, per (p+1)-subset, the subfiles each member misses.
The config owns the index layout (subset shifts, cached subsets, block
members, decode recipes); each call applies its demands and database to it.
One block plan per demand vector lists, for every block, the (file, shift)
pairs XORed into it; `delivery_blocks` applies it to one
database, and `block_joint` applies it to each file alone and XORs those
per-file tables to push the database joint's integer numerators onto the
exact (X, blocks) joint, with no per-cell Fractions.
The resulting block stream is then fed one block at a time through the
sequential private encoder, so the shared link and the public cache carry
nothing correlated with the private variable. A session's chain owns the
block targets and |X|, its books the slot codes; the exact audits read both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter, xor
from typing import Iterable, Mapping, Sequence

from . import pipeline
from .bounds import upper_bound_cardinality
from .coding import PadKey, fixed_width
from .errors import DEFAULT_STATE_LIMIT, LimitError, ValidationError, check_index
from .frl import MechanismChain, build_chain
from .probability import Alphabet, JointDist


Subset = tuple[int, ...]
Chunks = tuple[tuple[int, Subset], ...]  # (user, subset) pairs: the user's demanded file's chunk


def subsets_colex(k: int, r: int) -> tuple[Subset, ...]:
    """All r-subsets of {1..k} in colexicographic order."""
    combos = itertools.combinations(range(1, k + 1), r)
    return tuple(sorted(combos, key=lambda c: c[::-1]))


@dataclass(frozen=True)
class CacheConfig:
    """System shape: N files of F bits, K users with M files of cache each.

    Requires p = KM/N to be an integer (no memory sharing) and F divisible by
    C(K, p) so subfiles and delivery blocks have exact bit sizes. The derived
    shape and the coded-caching layout that placement, delivery and decoding
    apply are computed once per instance, from `subfile_subsets` and
    `block_subsets`; `==`, `hash` and `repr` read the four fields only.
    """

    n_files: int
    k_users: int
    cache_files: int
    file_bits: int

    def __post_init__(self) -> None:
        n, k, f = (check_index(getattr(self, name), 1, None, name)
                   for name in ("n_files", "k_users", "file_bits"))
        m = check_index(self.cache_files, 1, n, "cache_files")
        if (k * m) % n != 0:
            raise ValidationError(
                f"KM/N = {k}*{m}/{n} is not an integer; memory sharing is unsupported"
            )
        if f % self.subfile_count != 0:
            raise ValidationError(f"file size {f} not divisible by C({k}, {self.p}) subfiles")

    @cached_property
    def p(self) -> int:
        return (self.k_users * self.cache_files) // self.n_files

    @cached_property
    def subfile_count(self) -> int:
        return math.comb(self.k_users, self.p)

    @cached_property
    def block_count(self) -> int:
        return math.comb(self.k_users, self.p + 1)

    @cached_property
    def block_bits(self) -> int:
        return self.file_bits // self.subfile_count

    @cached_property
    def subfile_subsets(self) -> tuple[Subset, ...]:
        return subsets_colex(self.k_users, self.p)

    @cached_property
    def block_subsets(self) -> tuple[Subset, ...]:
        return subsets_colex(self.k_users, self.p + 1)

    @cached_property
    def subfile_shifts(self) -> dict[Subset, int]:
        """Right shift that brings each subset's chunk of a file (MSB-first) to the bottom."""
        bits = self.block_bits
        return {sub: self.file_bits - (i + 1) * bits for i, sub in enumerate(self.subfile_subsets)}

    @cached_property
    def cached_subsets(self) -> tuple[tuple[Subset, ...], ...]:
        """Per user, the subfile subsets that contain it: the chunks it caches of every file."""
        return tuple(tuple(sub for sub in self.subfile_subsets if k in sub)
                     for k in range(1, self.k_users + 1))

    @cached_property
    def block_members(self) -> tuple[Chunks, ...]:
        """Per block subset, each member j paired with the subset without j."""
        return tuple(tuple((j, tuple(u for u in gamma if u != j)) for j in gamma)
                     for gamma in self.block_subsets)

    @cached_property
    def decode_recipes(self) -> tuple[tuple[tuple[int | None, Chunks], ...], ...]:
        """Per user, per subfile subset in order: the index of the block that
        starts its chunk (None, starting from 0, for a subset the user caches)
        and the (member, subset) chunks the user XORs onto that start.
        """
        index = {gamma: b for b, gamma in enumerate(self.block_subsets)}
        return tuple(
            tuple((None, ((k, omega),)) if k in omega else
                  (b := index[tuple(sorted(omega + (k,)))],
                   tuple(m for m in self.block_members[b] if m[0] != k))
                  for omega in self.subfile_subsets)
            for k in range(1, self.k_users + 1))


def _check_database(cfg: CacheConfig, database: Sequence[int]) -> None:
    if len(database) != cfg.n_files:
        raise ValidationError(f"expected {cfg.n_files} files, got {len(database)}")
    top = 2 ** cfg.file_bits - 1
    for y in database:
        check_index(y, 0, top, "file value")


@dataclass(frozen=True)
class UserCache:
    user: int
    contents: Mapping[tuple[int, tuple[int, ...]], int]  # (file, subset) -> chunk


def placement(cfg: CacheConfig, database: Sequence[int]) -> list[UserCache]:
    """Fill each user's cache with every subfile whose subset contains it.

    The subsets and their shifts come from the config's layout.
    """
    _check_database(cfg, database)
    mask = (1 << cfg.block_bits) - 1
    shifts = cfg.subfile_shifts
    return [UserCache(user=k, contents={(n, sub): (y >> shifts[sub]) & mask
                                        for n, y in enumerate(database, 1) for sub in subs})
            for k, subs in enumerate(cfg.cached_subsets, 1)]


@dataclass(frozen=True)
class BlockStream:
    """Delivery blocks, one per (p+1)-subset in the config's `block_subsets`
    order, each `block_bits` wide."""

    blocks: tuple[int, ...]


Plan = tuple[tuple[tuple[int, int], ...], ...]


def _block_plan(cfg: CacheConfig, demands: tuple[int, ...]) -> Plan:
    """Per (p+1)-subset, the (file index, shift) pairs XORed into its block.

    Each member j of the subset contributes the chunk of its demanded file
    indexed by the subset without j, which every other member has cached.
    """
    shifts = cfg.subfile_shifts
    return tuple(tuple((demands[j - 1] - 1, shifts[rest]) for j, rest in members)
                 for members in cfg.block_members)


def _apply_plan(plan: Plan, files: Sequence[int], mask: int) -> tuple[int, ...]:
    """The blocks of one database; masking the XOR equals XORing masked chunks."""
    out = []
    for pairs in plan:
        acc = 0
        for f, shift in pairs:
            acc ^= files[f] >> shift
        out.append(acc & mask)
    return tuple(out)


def delivery_blocks(cfg: CacheConfig, database: Sequence[int],
                    demands: Sequence[int]) -> BlockStream:
    """XOR, over each (p+1)-subset, the subfile its members miss but want."""
    _check_database(cfg, database)
    plan = _block_plan(cfg, _user_demands(cfg, demands))
    return BlockStream(blocks=_apply_plan(plan, database, (1 << cfg.block_bits) - 1))


def _user_demands(cfg: CacheConfig, demands: Sequence[int]) -> tuple[int, ...]:
    demands = tuple(demands)
    if len(demands) != cfg.k_users:
        raise ValidationError(f"need one demand per user ({cfg.k_users}), got {len(demands)}")
    for d in demands:
        check_index(d, 1, cfg.n_files, "demand")
    return demands


def block_joint(cfg: CacheConfig, database_dist: JointDist, demands: Sequence[int],
                limit: int = DEFAULT_STATE_LIMIT) -> JointDist:
    """Exact joint of (X, delivery blocks) induced by the database joint.

    Every database cell's numerator is added into the cell (x, blocks) that
    the block plan maps it to; the denominator is unchanged, so the result
    sums to exactly 1 by construction. The blocks are XORs of shifted,
    masked file values, so a database's blocks are the XOR of what each file
    alone contributes: one table per file, from `_apply_plan` on databases
    where only that file is nonzero, gives its blocks packed into one
    integer, and a cell's key is the XOR of its files' entries with x above
    the blocks. Integer order of the keys is then the sorted order of the
    (x, blocks) cells, and each distinct key is unpacked once.
    """
    plan = _block_plan(cfg, _user_demands(cfg, demands))
    variables = database_dist.variables
    if len(variables) != cfg.n_files + 1:
        raise ValidationError("database joint must cover X plus every file")
    for alpha in variables[1:]:
        if alpha.size > 2 ** cfg.file_bits:
            raise ValidationError(f"file alphabet {alpha.name!r} has {alpha.size} symbols, "
                                  f"more than 2^{cfg.file_bits}")
    cells = len(database_dist) * max(1, cfg.block_count)
    if cells > limit:
        raise LimitError(f"block joint: {len(database_dist)} database cells and "
                         f"{cfg.block_count} blocks need {cells} cells, over the limit {limit}")
    bits = cfg.block_bits
    mask = (1 << bits) - 1
    shifts = range(bits * (cfg.block_count - 1), -1, -bits)  # block 1 in the highest bits
    width = bits * cfg.block_count
    tables = [[x << width for x in variables[0].symbols()]]
    alone = [0] * cfg.n_files
    for f, alpha in enumerate(variables[1:]):
        table = []
        for y in alpha.symbols():
            alone[f] = y
            table.append(sum(b << s for b, s in zip(_apply_plan(plan, alone, mask), shifts)))
        alone[f] = 0
        tables.append(table)
    num, den = database_dist._ints()
    keys = [0] * len(num)
    # column by column, so the per-cell lookups and XORs run inside map()
    for axis, table in enumerate(tables):
        keys = list(map(xor, keys, map(table.__getitem__, map(itemgetter(axis), num))))
    sums: dict[int, int] = {}
    get = sums.get
    for key, n in zip(keys, num.values()):
        sums[key] = get(key, 0) + n
    out = {(key >> width,) + tuple((key >> s) & mask for s in shifts): sums[key]
           for key in sorted(sums)}
    b_alphas = tuple(Alphabet(f"B{i + 1}", 2 ** bits) for i in range(cfg.block_count))
    return JointDist._exact((variables[0],) + b_alphas, out, den)


@dataclass(frozen=True)
class PublicCache:
    """Append-only log of the emitted auxiliary slots' bitstrings; adversary-readable."""

    entries: tuple[str, ...]


@dataclass(frozen=True)
class CacheSession:
    """Everything both endpoints can precompute from public information."""

    cfg: CacheConfig
    demands: tuple[int, ...]
    chain: MechanismChain
    books: pipeline.Books


def make_cache_session(cfg: CacheConfig, database_dist: JointDist, demands: Sequence[int],
                       mode: str = "fixed", limit: int = DEFAULT_STATE_LIMIT) -> CacheSession:
    demands = _user_demands(cfg, demands)
    bj = block_joint(cfg, database_dist, demands, limit)
    targets = [a.name for a in bj.variables[1:]]
    chain = build_chain(bj, targets, limit=limit)
    return CacheSession(cfg=cfg, demands=demands, chain=chain,
                        books=pipeline.session_codebooks(chain, mode))


def private_wrap(session: CacheSession, stream: Iterable[int], x: int, key: PadKey,
                 draws: pipeline.Draws) -> tuple[pipeline.Transcript, PublicCache]:
    """Pad the private symbol, then wrap blocks one at a time.

    `stream` is consumed lazily: the slot for block i is emitted before block
    i+1 is read, matching a one-block encoder buffer. A stream that ends
    early, or has a block past the last, is a ValidationError. The public
    cache logs every auxiliary slot's bitstring, which is what lets later
    stages condition on the earlier auxiliaries.
    """
    top = 2 ** session.cfg.block_bits - 1
    blocks = (check_index(block, 0, top, "block value") for block in stream)
    transcript = pipeline.encode_walk(session.chain, session.books, x, key, blocks, draws)
    return transcript, PublicCache(transcript.bitstrings[1:])


def user_decode(session: CacheSession, user: int, transcript: pipeline.Transcript,
                cache: UserCache, key: PadKey) -> int:
    """Rebuild the user's demanded file from the transcript plus its cache.

    The config's decode recipe names, per subfile subset, the block and the
    cached chunks that XOR to it; the session's demands pick each chunk's
    file. A cache that lacks a chunk the recipe reads, or holds one that is
    not an integer in [0, 2^block_bits), is a ValidationError.
    """
    cfg = session.cfg
    check_index(user, 1, cfg.k_users, "user")
    if cache.user != user:
        raise ValidationError(f"cache belongs to user {cache.user}, not {user}")
    _x, blocks = pipeline.decode_walk(session.chain, session.books, transcript, key)
    demands, contents, bits = session.demands, cache.contents, cfg.block_bits
    out = read = 0
    try:
        for b, xors in cfg.decode_recipes[user - 1]:
            chunk = 0 if b is None else blocks[b]
            for j, sub in xors:
                cached = contents[demands[j - 1], sub]
                if type(cached) is not int:  # a bool is not an integer chunk either
                    raise ValidationError(f"cache of user {user} holds a chunk that is not an integer")
                read |= cached
                chunk ^= cached
            out = (out << bits) | chunk
    except KeyError as err:
        file, subset = err.args[0]
        raise ValidationError(f"cache of user {user} lacks file {file}'s chunk "
                              f"for subset {subset}") from None
    if not 0 <= read < 1 << bits:
        raise ValidationError(f"cache of user {user} holds a chunk outside [0, 2^{bits})")
    return out


def adversary_view_distribution(session: CacheSession, key_size: int,
                                limit: int = DEFAULT_STATE_LIMIT) -> pipeline.TranscriptDistribution:
    """Exact joint of ((transcript, public cache), X, W); `key_size` must be |X|.

    `private_wrap` logs the transcript's auxiliary bitstrings verbatim, so the
    public cache is a one-to-one function of the transcript and each view
    has its transcript's law: the result is the wrapped transcripts' law,
    whose `transcripts` index the views by their transcript part. A view is
    its auxiliary bits longer than its transcript under every key value, so
    the length sum gains the mass-weighted auxiliary bits: the transcripts'
    length sum less its pad slots.
    """
    x_size = session.chain.private_size
    if key_size != x_size:
        raise ValidationError(f"the multi-part scheme needs key size |X|={x_size}, got {key_size}")
    td = pipeline.transcript_distribution(session.chain, session.books, limit)
    replayed = td.length_sum - fixed_width(x_size) * td.den
    return replace(td, length_sum=td.length_sum + replayed)


def delivery_bound(cfg: CacheConfig, x_size: int) -> int:
    """Achievable bits for the wrapped stream: caps over the block alphabet."""
    return upper_bound_cardinality(x_size, [2 ** cfg.block_bits] * cfg.block_count)
