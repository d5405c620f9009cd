"""Workloads of the privseq benchmark: input generators, ops and their checks.

Every workload is driven from outside the library, through its public API
and `privseq.cli.main` in-process. Calls go through module attributes
(`pipeline.encode_session`, not a name imported from it) so that the tracer
in `tracer.py` can wrap them.

A workload is built from `--seed` alone. Its set-up builds a fixed pool of
ops, and a run goes through the pool again and again, so that every op is
timed many times over the run.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from privseq import bounds, caching, cli, coding, pipeline
from privseq.probability import Alphabet, JointDist, format_dist

DEFAULT_SEED = 0
DIGITS = 9  # floats enter fingerprints rounded, so float dust cannot flip them


class CheckFailed(Exception):
    """An op produced an answer that breaks an invariant of the scheme."""


def _rng(seed: int, *labels: str) -> random.Random:
    # str seeds hash with SHA-512, so the stream is the same on every platform
    return random.Random(":".join([str(seed), *labels]))


def _round(values):
    return [round(v, DIGITS) for v in values]


def dense_database(rng: random.Random, x_size: int, n_files: int, file_bits: int) -> JointDist:
    """Dense joint over (X, Y_1..Y_N): integer weights 1..9 over their total.

    Every cell is positive and the weights share one random total, so the
    chain tables carry many distinct denominators.
    """
    y_size = 2 ** file_bits
    variables = [Alphabet("X", x_size)] + [Alphabet(f"Y{i}", y_size) for i in range(1, n_files + 1)]
    cells = itertools.product(range(x_size), *[range(y_size)] * n_files)
    weights = {cell: rng.randint(1, 9) for cell in cells}
    total = sum(weights.values())
    return JointDist(variables, {cell: Fraction(w, total) for cell, w in weights.items()})


def masked_prior(rng: random.Random) -> Fraction:
    """Prior a/b of the masked-bits family, strictly inside (0, 1)."""
    b = rng.randint(3, 16)
    return Fraction(rng.randint(1, b - 1), b)


class RowSampler:
    """Draws database rows with their exact probabilities, using integer weights."""

    def __init__(self, dist: JointDist):
        den = math.lcm(*(p.denominator for _, p in dist.items()))
        self.cells = [cell for cell, _ in dist.items()]
        self.cumulative = list(itertools.accumulate(int(p * den) for _, p in dist.items()))

    def draw(self, rng: random.Random) -> tuple[int, ...]:
        r = rng.randrange(self.cumulative[-1])
        return self.cells[bisect.bisect_right(self.cumulative, r)]


@dataclass(frozen=True)
class DenseShape:
    name: str
    x_size: int
    n_files: int
    file_bits: int
    demands: tuple[int, ...]
    mode: str


# Two dense shapes at about 50 and 20 ms per audit. Every op of the pool
# must run many times in a run (see run.py); larger shapes (the ROADMAP
# grid's (3,3,2,(1,2,3)) costs 33-40 s, (2,4,1,(1,2,3,4)) 1.2 s) leave a
# run too few repeats of each. An audit's cost depends on its database by
# up to a third, so the pool holds several of each shape.
DENSE_SHAPES = (
    DenseShape("dense-x2-n3-f1", 2, 3, 1, (1, 2, 3), coding.ENTROPY),
    DenseShape("dense-x3-n2-f1", 3, 2, 1, (1, 2), coding.FIXED),
)
DENSE_POOL = 6  # databases per shape, and masked priors


def dense_shape_database(seed: int, shape: DenseShape, index: int = 0) -> JointDist:
    rng = _rng(seed, shape.name, str(index))
    return dense_database(rng, shape.x_size, shape.n_files, shape.file_bits)


def _prefixes(demand_vectors) -> int:
    """Distinct demand prefixes: the stages a prefix-sharing build needs."""
    return len({tuple(d[:i]) for d in demand_vectors for i in range(1, len(d) + 1)})


class Op:
    """One unit of work: `run` is the timed part, `check` runs after it."""

    def __init__(self, key: str, prefixes: int = 0):
        self.key = key  # names the op's input in the fingerprint file
        self.prefixes = prefixes  # distinct demand prefixes the op asks for

    def run(self):
        raise NotImplementedError

    def check(self, result) -> dict:
        """Check invariants; return the op's fingerprint (may be empty)."""
        raise NotImplementedError


class CliOp(Op):
    """One `privseq` command run in-process, writing its report to `out`."""

    def __init__(self, key: str, prefixes: int, argv: list[str], out: Path):
        super().__init__(key, prefixes)
        self.argv = argv + ["--out", str(out)]
        self.out = out

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def check(self, rc) -> dict:
        if rc != cli.EXIT_OK:
            raise CheckFailed(f"{self.key}: privseq exited with {rc}")
        return self.check_report(json.loads(self.out.read_text(encoding="utf-8")))

    def check_report(self, rep: dict) -> dict:
        raise NotImplementedError


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> dict:
        """Build inputs; return the set-up fingerprint (may be empty)."""
        raise NotImplementedError

    def setup_prefixes(self) -> int:
        return 0

    def pool(self) -> list[Op]:
        """The ops a run repeats, built by `setup` from the seed."""
        return self._pool


# ---------------------------------------------------------------------------
# exact-audit: one `pipeline run` per op, each an exact enumeration audit
# ---------------------------------------------------------------------------


class AuditOp(CliOp):
    def check_report(self, rep: dict) -> dict:
        for flag in ("leakage_exact_zero", "sample_roundtrip_ok", "sandwich_ok"):
            if rep[flag] is not True:
                raise CheckFailed(f"{self.key}: {flag} is {rep[flag]}")
        return {
            "u_sizes": rep["u_sizes"],
            "stage_entropies": _round(rep["stage_entropies"]),
            "expected_len_per_w": _round(rep["expected_len_per_w"]),
            "leak0": rep["leakage_exact_zero"],
            "lower": round(rep["lower_bound"], DIGITS),
            "upper_cardinality": rep["upper_cardinality"],
            "upper_entropy_estimate": rep["upper_entropy_estimate"],
        }


SWEEP_N, SWEEP_F, SWEEP_K = 3, 1, 2


class SweepOp(CliOp):
    def check_report(self, rep: dict) -> dict:
        rows = rep["rows"]
        if len(rows) != math.perm(SWEEP_N, SWEEP_K):
            raise CheckFailed(f"{self.key}: {len(rows)} sweep rows")
        for row in rows:
            if row["leakage_exact_zero"] is not True:
                raise CheckFailed(f"{self.key}: demands {row['demands']} leak")
            if not (row["lower"] <= row["expected_len"] + 1e-9
                    and row["expected_len"] <= row["upper_cardinality"] + 1e-9):
                raise CheckFailed(f"{self.key}: demands {row['demands']} break the sandwich")
        by_vector = {row["demands"]: row["expected_len"] for row in rows}
        if by_vector[" ".join(map(str, rep["worst"]))] != max(by_vector.values()):
            raise CheckFailed(f"{self.key}: reported worst demand is not the maximizer")
        return {
            "rows": [[r["demands"], round(r["expected_len"], DIGITS), round(r["lower"], DIGITS),
                      r["upper_cardinality"], r["upper_entropy_estimate"], r["leakage_exact_zero"]]
                     for r in rows],
            "worst": rep["worst"],
        }


class ExactAudit(Workload):
    """Dense single-vector audits and masked-family sweeps, two to one.

    A sweep (6 demand vectors over a sparse 9-cell joint) stresses
    per-call overhead and shared demand prefixes instead of per-cell
    arithmetic.
    """

    name = "exact-audit"

    def setup(self) -> dict:
        priors = _rng(self.seed, "masked")
        vectors = list(itertools.permutations(range(1, SWEEP_N + 1), SWEEP_K))
        self._pool = []
        for index in range(DENSE_POOL):
            for shape in DENSE_SHAPES:
                key = f"{shape.name}#{index}"
                spec = self.workdir / f"{key}.dist"
                db = dense_shape_database(self.seed, shape, index)
                spec.write_text(format_dist(db), encoding="utf-8")
                argv = ["pipeline", "run", "--spec", str(spec),
                        "--demands", ",".join(map(str, shape.demands)),
                        "--mode", shape.mode, "--seed", str(self.seed)]
                self._pool.append(AuditOp(key, len(shape.demands), argv,
                                          self.workdir / f"{key}.json"))
            prior = masked_prior(priors)
            argv = ["pipeline", "run", "--p", str(prior), "--n", str(SWEEP_N),
                    "--f", str(SWEEP_F), "--demands", "sweep", "--k", str(SWEEP_K)]
            self._pool.append(SweepOp(f"masked p={prior}", _prefixes(vectors), argv,
                                      self.workdir / f"masked#{index}.json"))
        return {}


# ---------------------------------------------------------------------------
# deliver: sampled write-and-read sessions, plain and coded-caching
# ---------------------------------------------------------------------------

PLAIN_SHAPE = DENSE_SHAPES[0]
PLAIN_CHAINS = 4  # plain sessions spread over this many databases of the shape
CACHE_CFG = caching.CacheConfig(n_files=4, k_users=4, cache_files=1, file_bits=4)
PLAIN_PER_CACHE = 3  # plain sessions per delivery, in shuffled blocks
DELIVER_BLOCKS = 48  # blocks in the pool: 144 sessions and 48 deliveries


class PlainChain:
    """One database of the plain shape, with its chain, codebooks and row sampler."""

    def __init__(self, db: JointDist):
        self.db = db
        self.chain = pipeline.session_chain(db, PLAIN_SHAPE.demands)
        # a caller sending many sessions builds the books once, as encode_session advises
        self.books = pipeline.session_codebooks(self.chain, PLAIN_SHAPE.mode)
        self.rows = RowSampler(db)


class PlainOp(Op):
    def __init__(self, draws, plain: PlainChain, row: tuple[int, ...], key_value: int):
        super().__init__("plain")
        self.draws = draws
        self.plain = plain
        self.row = row
        self.key_value = key_value

    def run(self):
        plain, shape = self.plain, PLAIN_SHAPE
        key = coding.PadKey(self.key_value, shape.x_size)
        sent = pipeline.encode_session(plain.db, self.row, shape.demands, key,
                                       plain.chain, self.draws, shape.mode, plain.books)
        got = pipeline.Transcript.unpack(sent.pack())
        decoded = pipeline.decode_session(got, key, shape.demands, plain.chain,
                                          shape.mode, plain.books)
        return sent, got, decoded

    def check(self, result) -> dict:
        sent, got, decoded = result
        if got != sent:
            raise CheckFailed("plain transcript does not survive pack/unpack")
        want = (self.row[0], tuple(self.row[d] for d in PLAIN_SHAPE.demands))
        if decoded != want:
            raise CheckFailed(f"plain session decodes {decoded}, sent {want}")
        return {}


class CacheOp(Op):
    def __init__(self, draws, session, row: tuple[int, ...], key_value: int):
        super().__init__("cache")
        self.draws = draws
        self.session = session
        self.row = row
        self.key_value = key_value

    def run(self):
        session = self.session
        x, files = self.row[0], self.row[1:]
        key = coding.PadKey(self.key_value, 2)
        caches = caching.placement(CACHE_CFG, files)
        stream = caching.delivery_blocks(CACHE_CFG, files, session.demands)
        sent, public = caching.private_wrap(session, stream.blocks, x, key, self.draws)
        got = pipeline.Transcript.unpack(sent.pack())
        decoded = [caching.user_decode(session, c.user, got, c, key) for c in caches]
        return sent, public, got, decoded

    def check(self, result) -> dict:
        sent, public, got, decoded = result
        if got != sent:
            raise CheckFailed("wrapped transcript does not survive pack/unpack")
        if public.entries != sent.bitstrings[1:]:
            raise CheckFailed("public cache does not replay the auxiliary slots")
        want = [self.row[d] for d in self.session.demands]
        if decoded != want:
            raise CheckFailed(f"users decode {decoded}, demanded {want}")
        return {}


class Deliver(Workload):
    name = "deliver"

    def setup(self) -> dict:
        # these are the first of the databases exact-audit audits for the same seed
        self.plain = [PlainChain(dense_shape_database(self.seed, PLAIN_SHAPE, index))
                      for index in range(PLAIN_CHAINS)]

        rng = _rng(self.seed, self.name, "cache")
        params = bounds.Example1Params(masked_prior(rng), CACHE_CFG.n_files,
                                       CACHE_CFG.k_users, CACHE_CFG.file_bits)
        cache_db = bounds.example1_build(params)
        demands = rng.sample(range(1, CACHE_CFG.n_files + 1), CACHE_CFG.k_users)
        self.cache_session = caching.make_cache_session(CACHE_CFG, cache_db, demands,
                                                        coding.ENTROPY)
        self.cache_rows = RowSampler(cache_db)
        view = caching.adversary_view_distribution(self.cache_session, 2)
        leak = pipeline.leakage_audit(view)
        if not leak.exact_zero:
            raise CheckFailed("cache adversary view leaks the private symbol")

        self.draws = pipeline.RandomDraws(self.seed)
        self._pool = self._draw_pool()
        chains = [p.chain for p in self.plain] + [self.cache_session.chain]
        return {
            "u_sizes": [list(c.u_sizes()) for c in chains],
            "stage_entropies": [_round(s.mechanism.entropy() for s in c.stages) for c in chains],
            "cache_leak0": leak.exact_zero,
            "cache_view_len_per_w": _round(pipeline.expected_length(view).per_w),
            "cache_upper": caching.delivery_bound(CACHE_CFG, 2),
        }

    def setup_prefixes(self) -> int:
        return PLAIN_CHAINS * len(PLAIN_SHAPE.demands) + CACHE_CFG.block_count

    def _draw_pool(self) -> list[Op]:
        """Rows and keys drawn from the seed; auxiliary draws differ on each repeat."""
        rng = _rng(self.seed, self.name, "ops")
        pool: list[Op] = []
        for _ in range(DELIVER_BLOCKS):
            block: list[Op] = []
            for _ in range(PLAIN_PER_CACHE):
                plain = rng.choice(self.plain)
                block.append(PlainOp(self.draws, plain, plain.rows.draw(rng),
                                     rng.randrange(PLAIN_SHAPE.x_size)))
            block.append(CacheOp(self.draws, self.cache_session, self.cache_rows.draw(rng),
                                 rng.randrange(2)))
            rng.shuffle(block)
            pool += block
        return pool


WORKLOADS = {w.name: w for w in (ExactAudit, Deliver)}
