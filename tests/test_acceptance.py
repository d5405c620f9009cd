"""Acceptance gate: one test per headline guarantee, each printing a
[PASS]/[FAIL] line (run with -s or check the -rA summary to see them).

The instance suite holds 22 small databases: the masked-bits family at two
priors and shapes, plus seeded random rational joints up to |X|=3, three
files of up to 2 bits, and demand vectors of length up to 2. Everything
distribution-level is enumerated exactly; zero-tolerance checks are rational
equalities and only measured-vs-bound comparisons use a 1e-9 float slack.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from privseq.bounds import (
    Example1Params,
    demanded_base,
    example1_build,
    lower_bound,
    upper_bound_cardinality,
)
from privseq.caching import (
    CacheConfig,
    adversary_view_distribution,
    make_cache_session,
    delivery_bound,
)
from privseq.coding import ENTROPY, FIXED, PadKey, otp_decrypt, otp_encrypt
from privseq.frl import cardinality_bound, frl_construct
from privseq.pipeline import (
    decode_session,
    encode_session,
    expected_length,
    leakage_audit,
    session_chain,
    session_codebooks,
    transcript_distribution,
)
from privseq.probability import Alphabet, JointDist

from conftest import random_database, random_pair
from reference import (
    cache_roundtrip,
    condition,
    entropy,
    enumerate_outcomes,
    example1_ratio,
    is_independent,
    mechanism_joint,
    product_extend,
    stage_conditional_u,
)
from test_frl import brute_force_joint

TOL = 1e-9


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


@dataclass
class Instance:
    name: str
    dist: JointDist
    demands: tuple[int, ...]
    chain: object
    td_fixed: object


def _build_suite() -> list[Instance]:
    specs = []
    for p in (F(1, 4), F(1, 2)):
        for n, k, f in ((2, 2, 1), (3, 2, 1), (2, 1, 2)):
            dist = example1_build(Example1Params(p, n, k, f))
            specs.append((f"masked p={p} n={n} k={k} f={f}", dist, tuple(range(1, k + 1))))
    rng = random.Random(20250810)
    while len(specs) < 22:
        x_size = rng.randint(2, 3)
        n = rng.randint(1, 3)
        f = rng.randint(1, 2)
        k = rng.randint(1, min(2, n))
        dist = random_database(rng, x_size, n, f, sparse=bool(rng.getrandbits(1)))
        demands = tuple(rng.sample(range(1, n + 1), k))
        specs.append((f"random #{len(specs)} |X|={x_size} n={n} f={f} d={demands}",
                      dist, demands))
    out = []
    for name, dist, demands in specs:
        chain = session_chain(dist, demands)
        td = transcript_distribution(chain, session_codebooks(chain, FIXED))
        out.append(Instance(name, dist, demands, chain, td))
    return out


@pytest.fixture(scope="module")
def suite():
    return _build_suite()


def test_c01_perfect_privacy(suite):
    failures = [inst.name for inst in suite if not leakage_audit(inst.td_fixed).exact_zero]
    report("perfect privacy (exact rational I(C;X)=0)",
           not failures, f"{len(suite) - len(failures)}/{len(suite)} instances" +
           (f"; failed: {failures}" if failures else ""))


def test_c02_losslessness(suite):
    bad = 0
    for inst in suite:
        total = F(0)
        key_size = inst.dist.variables[0].size
        for o in enumerate_outcomes(inst.dist, inst.demands, inst.chain):
            total += o.prob
            got = decode_session(o.transcript, PadKey(o.w, key_size),
                                 inst.demands, inst.chain)
            if got != (o.x, o.files):
                bad += 1
        if total != 1:
            bad += 1
    report("losslessness (every outcome decodes, outcome mass sums to 1)",
           bad == 0, f"{len(suite)} instances fully enumerated")


def test_c03_cardinality_bounds(suite, designed_2x2):
    ok = True
    for inst in suite:
        x_size = inst.dist.variables[0].size
        sizes = inst.chain.u_sizes()
        for i, s in enumerate(sizes):
            y_size = inst.dist.variables[inst.demands[i]].size
            if s > cardinality_bound(x_size * math.prod(sizes[:i]), y_size):
                ok = False
    designed = frl_construct(designed_2x2)
    equality = designed.u_size == cardinality_bound(2, 2) == 3
    report("cardinality caps at every stage; designed 2x2 meets the cap with equality",
           ok and equality, f"designed instance |U|={designed.u_size}")


def test_c04_sandwich(suite):
    ok = True
    worst = ""
    for inst in suite:
        x_size = inst.dist.variables[0].size
        lo = lower_bound(demanded_base(inst.dist, inst.demands)[0])
        measured = expected_length(inst.td_fixed).max_over_w
        hi = upper_bound_cardinality(
            x_size, [inst.dist.variables[d].size for d in inst.demands])
        if not (lo <= measured + TOL and measured <= hi + TOL):
            ok = False
            worst = f"{inst.name}: {lo} / {measured} / {hi}"
        td_e = transcript_distribution(inst.chain, session_codebooks(inst.chain, ENTROPY))
        cap = sum(s.mechanism.entropy() + 1 for s in inst.chain.stages) + \
            (x_size - 1).bit_length()
        if expected_length(td_e).max_over_w > cap + TOL:
            ok = False
            worst = f"{inst.name}: entropy-coded {expected_length(td_e).max_over_w} > {cap}"
    report("sandwich lower <= measured <= upper (fixed); entropy-coded <= sum(H+1)+pad",
           ok, worst or f"{len(suite)} instances")


def test_c05_masked_family_exact_values():
    ok = True
    for k in (1, 2):
        for f in (1, 2):
            p = example1_build(Example1Params(F(1, 2), k, k, f))
            demands = tuple(range(1, k + 1))
            if lower_bound(demanded_base(p, demands)[0]) != float(k * f):
                ok = False
            names = [p.variables[d].name for d in demands]
            if entropy(condition(p, "X", 0), names) != 0.0:
                ok = False
    report("masked family: lower bound equals k*f exactly; zero entropy at x=0", ok,
           "(k,f) over {1,2}^2")


def test_c06_masked_family_asymptotics():
    r32 = example1_ratio(2, 32)
    r256 = example1_ratio(2, 256)
    upper_over_f = upper_bound_cardinality(2, [2 ** 256] * 2) / 256
    ok = (abs(r32 - 1.5) / 1.5 < 0.05
          and abs(r256 - 1.5) / 1.5 < 0.01
          and 2.0 <= upper_over_f <= 3.0 * 1.01)
    report("asymptotic ratio: within 5% of 1.5 at f=32, 1% at f=256; 2 <= upper/f <= 3",
           ok, f"ratio(2,32)={r32:.6f} ratio(2,256)={r256:.6f} upper/f={upper_over_f:.6f}")


def test_c07_one_time_pad():
    ok = True
    for mod in (2, 3, 4, 5):
        prior = [F(i + 1, mod * (mod + 1) // 2) for i in range(mod)]
        px = JointDist([Alphabet("X", mod)], {(x,): q for x, q in enumerate(prior)})
        ext = product_extend(px, Alphabet("W", mod), [F(1, mod)] * mod)
        table = {(x, w, otp_encrypt(x, PadKey(w, mod))): q for (x, w), q in ext.items()}
        full = JointDist(list(ext.variables) + [Alphabet("P", mod)], table)
        if full.marginalize(["P"]).table != {(s,): F(1, mod) for s in range(mod)}:
            ok = False
        if not is_independent(full, ["P"], ["X"]):
            ok = False
        for x in range(mod):
            for w in range(mod):
                key = PadKey(w, mod)
                if otp_decrypt(otp_encrypt(x, key), key) != x:
                    ok = False
    report("one-time pad: exactly uniform, exactly independent, round-trip identity",
           ok, "moduli 2..5, non-uniform priors")


def test_c08_cache_end_to_end():
    cfg = CacheConfig(n_files=2, k_users=2, cache_files=1, file_bits=2)
    db_dist = example1_build(Example1Params(F(1, 2), 2, 2, 2))
    demands = (1, 2)
    session = make_cache_session(cfg, db_dist, demands)
    x_size = db_dist.variables[0].size

    decode_ok, total = cache_roundtrip(session, db_dist)
    view = adversary_view_distribution(session, x_size)
    leak = leakage_audit(view)
    td = transcript_distribution(session.chain, session.books)
    measured = expected_length(td).max_over_w
    bound = delivery_bound(cfg, x_size)
    ok = decode_ok and total == 1 and leak.exact_zero and measured <= bound + TOL
    report("cache-aided end to end: all users decode, adversary view independent, "
           "measured <= bound",
           ok, f"measured={measured} bound={bound} leak0={leak.exact_zero}")


def test_c09_oracle_equivalence():
    rng = random.Random(424242)
    bad = 0
    for i in range(12):
        pxy = random_pair(rng, rng.randint(2, 3), rng.randint(2, 4),
                          sparse=bool(i % 2))
        mech = frl_construct(pxy)
        edges, table = brute_force_joint(pxy)
        if mech.u_size != len(edges) - 1 or dict(mechanism_joint(mech, pxy).table) != table:
            bad += 1
    report("construction joint equals the interval-intersection oracle exactly",
           bad == 0, "12 random instances")


def test_c10_sequentiality():
    rng = random.Random(777)
    trials = 100
    bad = 0
    for _ in range(trials):
        p = random_database(rng, rng.randint(2, 3), 3, 1,
                            sparse=bool(rng.getrandbits(1)))
        d1 = rng.randint(1, 3)
        futures = [d for d in (1, 2, 3) if d != d1]
        rng.shuffle(futures)
        a = session_chain(p, (d1, futures[0]))
        b = session_chain(p, (d1, futures[1]))
        sa, sb = a.stages[0], b.stages[0]
        states = [sorted({x for x, _ in s.mechanism.spans}) for s in (sa, sb)]
        maps = [[s.mechanism.apply(u, x) for x in xs for u in range(s.mechanism.u_size)]
                for s, xs in zip((sa, sb), states)]
        if (sa.mechanism.atoms, sa.mechanism.p_u, maps[0], states[0]) != \
           (sb.mechanism.atoms, sb.mechanism.p_u, maps[1], states[1]):
            bad += 1
            continue
        cell = next(iter(p.table))
        cond = stage_conditional_u(sa, cell[0], (), cell[d1])
        u = min(cond)

        class ForceFirst:
            def pick(self, slot, row):
                return u if slot == 0 else row[0][0]

        x_size = p.variables[0].size
        ta = encode_session(p, cell, (d1, futures[0]), PadKey(0, x_size), a, ForceFirst())
        tb = encode_session(p, cell, (d1, futures[1]), PadKey(0, x_size), b, ForceFirst())
        if ta.bitstrings[:2] != tb.bitstrings[:2]:
            bad += 1
    report("sequentiality: mutating future demands never changes earlier slots",
           bad == 0, f"{trials} randomized trials")
