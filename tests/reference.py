"""Test oracles: plain Fraction references, and helpers only the tests call.

`ref_*` recompute a kernel result from Fractions by the textbook formula;
`ref_pick` is the Fraction draw that the integer `RandomDraws.pick` must
match. The other functions are exact helpers over the library's objects
that the tests use to state a property: conditionals and information
measures of a `JointDist`, a pair mechanism's (U, X, Y) joint, codebook
sums, and `outcomes`, the one walk over every coupling a chain can draw,
each pushed through the real encoder.
"""

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction as F

from privseq.caching import delivery_blocks, placement, private_wrap, user_decode
from privseq.coding import FIXED, PadKey, fixed_length_codebook
from privseq.errors import InvariantError, ValidationError
from privseq.pipeline import (
    Transcript,
    TranscriptDistribution,
    decode_walk,
    demand_vector,
    encode_session,
    session_codebooks,
)
from privseq.probability import Alphabet, JointDist

# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


def point_mass(alphabet, symbol):
    return JointDist([alphabet], {(symbol,): F(1)})


def condition(d, name, symbol):
    """Exact conditional given `name == symbol`; the variable is dropped."""
    (axis,) = d._axes([name])
    if len(d.variables) == 1:
        raise ValidationError("cannot condition away the only variable")
    rows = {cell[:axis] + cell[axis + 1:]: n for cell, n in d._ints()[0].items()
            if cell[axis] == symbol}
    mass = sum(rows.values())
    if mass == 0:
        raise ValidationError(f"conditioning on zero-probability event {name}={symbol}")
    return JointDist._exact(d.variables[:axis] + d.variables[axis + 1:], rows, mass)


def _log2_ratio(n, den):
    """log2(n/den) on the reduced fraction, never converting a tiny value through one float."""
    g = math.gcd(n, den)
    return math.log2(n // g) - math.log2(den // g)


def conditional_entropy(d, target, given):
    """H(target | given) in bits over the integer table; `given` may be empty."""
    target, given = list(target), list(given)
    if set(target) & set(given):
        raise ValidationError("target and given must be disjoint")
    if not given:
        return d.entropy(target)
    num, den = d.marginalize(given + target)._ints()
    ng = len(given)
    by_g = {}
    for cell, n in num.items():
        by_g[cell[:ng]] = by_g.get(cell[:ng], 0) + n
    h = 0.0
    for cell, n in num.items():
        g = math.gcd(n, den)
        h += (n // g) / (den // g) * (_log2_ratio(by_g[cell[:ng]], den) - _log2_ratio(n, den))
    return max(0.0, h)


def mutual_information(d, a, b):
    """I(a; b) in bits, clamped at 0 against float dust."""
    a, b = list(a), list(b)
    if set(a) & set(b):
        raise ValidationError("variable sets must be disjoint")
    return max(0.0, d.entropy(a) + d.entropy(b) - d.entropy(a + b))


def product_extend(d, fresh, marginal):
    """Append a new variable exactly independent of all existing ones."""
    if fresh.name in d.names:
        raise ValidationError(f"variable {fresh.name!r} already present")
    marginal = [F(q) for q in marginal]
    if len(marginal) != fresh.size or any(q < 0 for q in marginal) or sum(marginal) != 1:
        raise ValidationError(f"marginal must be {fresh.size} nonnegative entries summing to 1")
    m_den = math.lcm(*(q.denominator for q in marginal))
    row = [(s, q.numerator * (m_den // q.denominator)) for s, q in enumerate(marginal) if q > 0]
    num, den = d._ints()
    out = {cell + (s,): n * m for cell, n in num.items() for s, m in row}
    return JointDist._exact(d.variables + (fresh,), out, den * m_den)


def mechanism_joint(mech, pxy):
    """The (U, X, Y) joint of a pair mechanism: P(x, y) P(u | x, y) on every positive (x, y)."""
    return JointDist([mech.u_alphabet, *pxy.variables],
                     {(u, x, y): q * pu for (x, y), q in pxy.items()
                      for u, pu in mech.conditional_u(x, y).items()})


def ref_marginalize(variables, table, keep):
    axes = [[v.name for v in variables].index(n) for n in keep]
    out = {}
    for cell, p in table.items():
        key = tuple(cell[a] for a in axes)
        out[key] = out.get(key, F(0)) + p
    return out


def ref_condition(variables, table, name, symbol):
    axis = [v.name for v in variables].index(name)
    rows = {c[:axis] + c[axis + 1:]: p for c, p in table.items() if c[axis] == symbol}
    mass = sum(rows.values(), F(0))
    if mass == 0:
        return None
    return {c: p / mass for c, p in rows.items()}


def ref_product_extend(table, marginal):
    return {cell + (s,): p * q for cell, p in table.items()
            for s, q in enumerate(marginal) if q > 0}


def ref_is_independent(variables, table, a, b):
    joint = ref_marginalize(variables, table, a + b)
    pa = ref_marginalize(variables, table, a)
    pb = ref_marginalize(variables, table, b)
    return all(joint.get(ca + cb, F(0)) == qa * qb
               for ca, qa in pa.items() for cb, qb in pb.items())


def ref_log2(p):
    return math.log2(p.numerator) - math.log2(p.denominator)


def ref_entropy(table):
    # terms added left to right from 0.0: sum() of floats rounds differently
    # from Python 3.12 on, and the library documents the plain loop
    h = 0.0
    for _, p in sorted(table.items()):
        h += float(p) * ref_log2(p)
    return -h


def ref_conditional_entropy(variables, table, target, given):
    marg = dict(sorted(ref_marginalize(variables, table, given + target).items()))
    by_g = {}
    for cell, p in marg.items():
        by_g[cell[:len(given)]] = by_g.get(cell[:len(given)], F(0)) + p
    h = 0.0
    for cell, p in marg.items():
        h += float(p) * (ref_log2(by_g[cell[:len(given)]]) - ref_log2(p))
    return max(0.0, h)


def ref_mutual_information(variables, table, a, b):
    v = (ref_entropy(ref_marginalize(variables, table, a))
         + ref_entropy(ref_marginalize(variables, table, b))
         - ref_entropy(ref_marginalize(variables, table, a + b)))
    return max(0.0, v)


# ---------------------------------------------------------------------------
# Codebooks and caches
# ---------------------------------------------------------------------------


def decode_all(book, bits):
    """The symbols of a concatenation of codewords."""
    if len(book.words) == 1 and next(iter(book.words.values())) == "":
        raise ValidationError("cannot stream-decode a zero-bit codebook")
    out = []
    while bits:
        sym, used = book.decode_one(bits)
        out.append(sym)
        bits = bits[used:]
    return out


def expected_code_length(book, dist):
    return sum((p * len(book.encode(s)) for s, p in dist.items() if p > 0), F(0))


def kraft_sum(book):
    return sum((F(1, 2 ** len(w)) for w in book.words.values()), F(0))


def cache_bits(cfg, cache):
    return len(cache.contents) * cfg.block_bits


# ---------------------------------------------------------------------------
# Every outcome of a session, through the real encoder
# ---------------------------------------------------------------------------


class FixedDraws:
    """Forces an explicit auxiliary value per slot; the encoder checks it is in the row's span."""

    def __init__(self, choices):
        self._choices = tuple(choices)

    def pick(self, slot, row):
        return self._choices[slot]


def ref_pick(rng, slot, conditional):
    """The Fraction draw: u with probability exactly conditional[u].

    An integer uniform on [0, D), D the lcm of the conditional's
    denominators, placed against the integer cumulative sums. Fed a stage's
    `conditional_u`, it must draw what `RandomDraws.pick` draws from the
    stage's `row` and leave `rng` in the same state.
    """
    symbols = sorted(conditional)
    den = math.lcm(*(conditional[u].denominator for u in symbols))
    cumulative = list(itertools.accumulate(
        (conditional[u].numerator * (den // conditional[u].denominator) for u in symbols),
        initial=0))
    if cumulative[-1] != den:
        raise InvariantError(f"slot-{slot} conditional sums to {F(cumulative[-1], den)}, not 1")
    return symbols[bisect.bisect_right(cumulative, rng.randrange(den)) - 1]


@dataclass(frozen=True)
class Outcome:
    x: int
    files: tuple  # the stage targets, in stage order
    w: int
    prob: F
    transcript: Transcript


def outcomes(chain, x, targets, prob, encode):
    """Every (coupling, key) outcome of one row of mass `prob`, with its exact weight.

    The row is private symbol `x` with stage targets `targets`; each
    auxiliary vector in the chain's support is forced through
    `encode(key, draws)` under every key in range(|X|).
    """
    x_size = chain.private_size
    stack = [((), prob)]
    for stage, y in zip(chain.stages, targets):
        stack = [(prefix + (u,), q * qu) for prefix, q in stack
                 for u, qu in stage.conditional_u(x, prefix, y).items()]
    for u_vec, q in stack:
        for w in range(x_size):
            yield Outcome(x, tuple(targets), w, q / x_size,
                          encode(PadKey(w, x_size), FixedDraws(u_vec)))


def enumerate_outcomes(p, demands, chain, mode=FIXED):
    """Every (realization, coupling, key) outcome, each encoded by `encode_session`."""
    demands = demand_vector(p, demands)
    books = session_codebooks(chain, mode)
    for cell, prob in p.items():
        yield from outcomes(chain, cell[0], [cell[d] for d in demands], prob,
                            lambda key, draws: encode_session(p, cell, demands, key, chain,
                                                              draws, mode, books))


def cache_roundtrip(session, db_dist):
    """Whether every outcome of every database cell, wrapped by `private_wrap`,
    decodes at the decoder and at every user; and the outcomes' total mass."""
    cfg, chain, demands = session.cfg, session.chain, session.demands
    ok, total = True, F(0)
    for (x, *files), prob in db_dist.items():
        blocks = delivery_blocks(cfg, files, demands).blocks
        caches = placement(cfg, files)
        for o in outcomes(chain, x, blocks, prob,
                          lambda key, draws: private_wrap(session, blocks, x, key, draws)[0]):
            key = PadKey(o.w, chain.private_size)
            total += o.prob
            ok &= decode_walk(chain, session.books, o.transcript, key) == (x, blocks)
            for cache in caches:
                got = user_decode(session, cache.user, o.transcript, cache, key)
                ok &= got == files[demands[cache.user - 1] - 1]
    return ok, total


def law(outs):
    """The exact law of (transcript, x, w) over outcomes."""
    table = {}
    for o in outs:
        key = (o.transcript, o.x, o.w)
        table[key] = table.get(key, 0) + o.prob
    return table


def td_law(td):
    """The law of (transcript, x, w) that a transcript distribution states."""
    return {(td.transcripts[c], x, w): q for (c, x, w), q in td.joint.items()}


def plaintext_baseline(p, demand):
    """Uncoded single-demand baseline: the file symbol itself is the message."""
    (demand,) = demand_vector(p, [demand])
    y_alpha = p.variables[demand]
    book = fixed_length_codebook(y_alpha.size)
    pair = p.marginalize([p.variables[0].name, y_alpha.name])
    joint = JointDist(
        [Alphabet("C", y_alpha.size), Alphabet("X", p.variables[0].size), Alphabet("W", 1)],
        {(y, x, 0): q for (x, y), q in pair.items()})
    transcripts = tuple(Transcript((("y", book.encode(y)),)) for y in y_alpha.symbols())
    return TranscriptDistribution.of_transcripts(joint, transcripts)
