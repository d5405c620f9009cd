"""Test oracles: plain Fraction references, and helpers only the tests call.

`ref_*` recompute a kernel result from Fractions by the textbook formula;
`ref_pick` is the Fraction draw that the integer `RandomDraws.pick` must
match, and `ref_pack_slots`/`ref_unpack_slots` the byte-at-a-time codec
that the one-conversion `pack_slots`/`unpack_slots` must match. The
explicit-joint audit (`explicit_leakage_audit`, `explicit_expected_length`)
walks a whole (C, X, W) joint; `ref_transcript_distribution` writes a
chain's whole (C, X) table, every key value's copy cell by cell, and
`ref_leakage_audit` tests that table with the Fraction `ref_is_independent`,
sharing no code with `_product_test`. The oracle's pad slot is written with
a `fixed_length_codebook(|X|)`, a book the library never builds. The
library's audit, which reads only the factored (u vector, X) law and one
length sum, must give both oracles' verdicts and lengths to
the bit; its leakage is 0.0 on a pass and, on a fail, the I(U; X) that
`mutual_information` gives from the chain.
`ref_stage_mechanisms` rebuilds every stage of a chain the way stages were
once built: as a pair over an index of the sorted compound states, passed
to `frl_construct`. `ref_placement`,
`ref_block_plan` and `ref_user_decode` work out coded caching's subsets,
shifts and XOR terms on every call, as the library did before its config
owned that layout. The other functions
are exact helpers over the library's objects that the tests use to state a
property: point probabilities, conditionals, independence and information
measures of a `JointDist`, a mechanism's Fraction conditionals and a pair
mechanism's (U, X, Y) joint, codebook sums, the masked family's closed-form
ratio, and `outcomes`, the one walk over every coupling a chain can draw,
each pushed through the real encoder.
"""

import bisect
import itertools
import math
import struct
from dataclasses import dataclass
from fractions import Fraction as F

from privseq.bounds import demand_vector, upper_bound_cardinality
from privseq.caching import UserCache, delivery_blocks, placement, private_wrap, user_decode
from privseq.coding import FIXED, PadKey, fixed_length_codebook
from privseq.errors import InvariantError, ValidationError
from privseq.frl import frl_construct
from privseq.pipeline import (
    ExpectedLength,
    LeakageReport,
    Transcript,
    TranscriptDistribution,
    decode_walk,
    encode_session,
    session_codebooks,
)
from privseq.probability import Alphabet, JointDist, _entropy_bits, _product_test

# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


def point_mass(alphabet, symbol):
    return JointDist([alphabet], {(symbol,): F(1)})


def uniform(alphabet):
    q = F(1, alphabet.size)
    return JointDist([alphabet], {(s,): q for s in alphabet.symbols()})


def prob(d, cell):
    """P(cell) as a Fraction, 0 off the support; read from the integer table."""
    num, den = d._ints()
    return F(num.get(tuple(cell), 0), den)


def entropy(d, of=None):
    """Shannon entropy in bits of `d`, or of its marginal over `of`: the
    library's `marginalize` and `_entropy_bits` over the sorted cells."""
    num, den = (d if of is None else d.marginalize(of))._ints()
    return _entropy_bits(num.values(), den)


def is_independent(d, a, b):
    """Exact rational test of P(a,b) == P(a)P(b) on every cell, by the
    library's `_product_test`. An empty set on either side is vacuously
    independent."""
    a, b = list(a), list(b)
    if set(a) & set(b):
        raise ValidationError("variable sets must be disjoint")
    if not a or not b:
        return True
    joint, _ = d.marginalize(a + b)._ints()
    na = len(a)
    rows = {}
    for cell, n in joint.items():
        rows.setdefault(cell[:na], {})[cell[na:]] = n
    return _product_test(rows)[0]


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
        return entropy(d, target)
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
    return max(0.0, entropy(d, a) + entropy(d, b) - entropy(d, a + b))


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


def conditional_u(mech, x, y):
    """Exact P(U=u | X=x, Y=y) of a mechanism: atom length over segment length."""
    span = mech.row(x, y)[0]  # its ValidationError names an (x, y) outside the support
    b = mech.bounds
    length = b[span.stop] - b[span.start]
    return {u: F(b[u + 1] - b[u], length) for u in span}


def stage_conditional_u(stage, x, u_prefix, y):
    """Exact P(U_k | x, u_1..u_{k-1}, y) of a chain stage, whose given state
    is x alone at the first stage and (x, u_1..u_{k-1}) after it."""
    return conditional_u(stage.mechanism, (x, *u_prefix) if u_prefix else x, y)


def ref_stage_mechanisms(chain):
    """Each stage's (bounds, spans) from the compound-index pair: the stage's
    (compound state, target) law, read off the chain joint, as a pair over
    the compound states numbered in sorted order, passed to `frl_construct`.
    Its spans are read back by state, x alone at the first stage."""
    out = []
    u_names = [stage.mechanism.u_alphabet.name for stage in chain.stages]
    for k, target in enumerate(chain.targets):
        marg = chain.joint.marginalize([chain.joint.names[0], *u_names[:k], target])
        index, pair = {}, {}
        for cell, q in marg.items():
            pair[(index.setdefault(cell[:-1], len(index)), cell[-1])] = q
        mech = frl_construct(JointDist([Alphabet(f"_XU{k}", len(index)), marg.variables[-1]], pair))
        states = [state if k else state[0] for state in index]
        out.append((mech.bounds, {(states[i], y): span for (i, y), span in mech.spans.items()}))
    return out


def mechanism_joint(mech, pxy):
    """The (U, X, Y) joint of a pair mechanism: P(x, y) P(u | x, y) on every positive (x, y)."""
    return JointDist([mech.u_alphabet, *pxy.variables],
                     {(u, x, y): q * pu for (x, y), q in pxy.items()
                      for u, pu in conditional_u(mech, x, y).items()})


def example1_ratio(k, f):
    """Cardinality upper bound over the k*f converse, by closed formula.

    Decreases toward (k+1)/2 as the file size grows; no mechanism is built,
    so arbitrarily large f is cheap.
    """
    if k < 1 or f < 1:
        raise ValidationError("need k >= 1 and f >= 1")
    return upper_bound_cardinality(2, [2 ** f] * k) / (k * f)


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
    """The symbols of a concatenation of codewords, read by scanning prefixes."""
    if len(book.words) == 1 and next(iter(book.words.values())) == "":
        raise ValidationError("cannot stream-decode a zero-bit codebook")
    out = []
    while bits:
        sym, word = next(((s, w) for s, w in book.words.items() if bits.startswith(w)),
                         (None, None))
        if word is None:
            raise ValidationError(f"undecodable bitstring {bits!r}")
        out.append(sym)
        bits = bits[len(word):]
    return out


def ref_pack_slots(slots):
    """The packed-transcript body, one byte at a time; the header as `pack_slots` writes it."""
    head = bytearray(b"PSQ1") + struct.pack(">H", len(slots))
    for label, bits in slots:
        raw = label.encode("ascii")
        head += struct.pack(">B", len(raw)) + raw + struct.pack(">I", len(bits))
    allbits = "".join(bits for _, bits in slots)
    body = bytes(int(allbits[i:i + 8].ljust(8, "0"), 2) for i in range(0, len(allbits), 8))
    return bytes(head) + body


def ref_unpack_slots(data):
    """The slots of a well-formed packed transcript, formatted one byte at a time."""
    (count,) = struct.unpack_from(">H", data, 4)
    pos = 6
    meta = []
    for _ in range(count):
        llen = data[pos]
        label = data[pos + 1:pos + 1 + llen].decode("ascii")
        (blen,) = struct.unpack_from(">I", data, pos + 1 + llen)
        pos += 5 + llen
        meta.append((label, blen))
    allbits = "".join(format(byte, "08b") for byte in data[pos:])
    out = []
    for label, blen in meta:
        out.append((label, allbits[:blen]))
        allbits = allbits[blen:]
    return out


def expected_code_length(book, dist):
    return sum((p * len(book.encode(s)) for s, p in dist.items() if p > 0), F(0))


def kraft_sum(book):
    return sum((F(1, 2 ** len(w)) for w in book.words.values()), F(0))


def cache_bits(cfg, cache):
    return len(cache.contents) * cfg.block_bits


def _ref_shift(cfg, position):
    """Right shift that brings chunk `position` of a file (MSB-first) to the bottom."""
    return cfg.file_bits - (position + 1) * cfg.block_bits


def ref_placement(cfg, database):
    """Every user's cache, each chunk's subset and shift worked out per call."""
    mask = (1 << cfg.block_bits) - 1
    caches = []
    for k in range(1, cfg.k_users + 1):
        contents = {}
        for n in range(1, cfg.n_files + 1):
            for position, sub in enumerate(cfg.subfile_subsets):
                if k in sub:
                    contents[(n, sub)] = (database[n - 1] >> _ref_shift(cfg, position)) & mask
        caches.append(UserCache(user=k, contents=contents))
    return caches


def ref_block_plan(cfg, demands):
    """Per (p+1)-subset, the (file index, shift) pairs XORed into its block, from the subsets."""
    positions = {sub: i for i, sub in enumerate(cfg.subfile_subsets)}
    return tuple(
        tuple((demands[j - 1] - 1, _ref_shift(cfg, positions[tuple(u for u in gamma if u != j)]))
              for j in gamma)
        for gamma in cfg.block_subsets)


def ref_user_decode(session, user, transcript, cache, key):
    """The user's demanded file, each missing chunk's block and XOR terms found per call."""
    cfg = session.cfg
    _x, blocks = decode_walk(session.chain, session.books, transcript, key)
    by_subset = dict(zip(cfg.block_subsets, blocks))
    demand = session.demands[user - 1]
    chunks = {}
    for omega in cfg.subfile_subsets:
        if user in omega:
            chunks[omega] = cache.contents[(demand, omega)]
        else:
            gamma = tuple(sorted(omega + (user,)))
            value = by_subset[gamma]
            for j in gamma:
                if j != user:
                    rest = tuple(u for u in gamma if u != j)
                    value ^= cache.contents[(session.demands[j - 1], rest)]
            chunks[omega] = value
    out = 0
    for omega in cfg.subfile_subsets:
        out = (out << cfg.block_bits) | chunks[omega]
    return out


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
    `stage_conditional_u`, it must draw what `RandomDraws.pick` draws from the
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
                 for u, qu in stage_conditional_u(stage, x, prefix, y).items()]
    for u_vec, q in stack:
        for w in range(x_size):
            yield Outcome(x, tuple(targets), w, q / x_size,
                          encode(PadKey(w, x_size), FixedDraws(u_vec)))


def enumerate_outcomes(p, demands, chain, mode=FIXED):
    """Every (realization, coupling, key) outcome, each encoded by `encode_session`."""
    demands = demand_vector(len(p.variables) - 1, demands)
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
    transcripts = td.transcripts
    return {(transcripts[c], x, w): q for (c, x, w), q in td.joint.items()}


def total_length(transcript):
    return sum(map(len, transcript.bitstrings))


# ---------------------------------------------------------------------------
# The explicit-joint audit
# ---------------------------------------------------------------------------


def _w_sums(joint, lengths):
    """Per key value w of a (C, X, W) joint: (mass * length, mass), by one walk."""
    totals = [0] * joint.variables[2].size
    mass = [0] * joint.variables[2].size
    for (c, _x, w), n in joint._ints()[0].items():
        totals[w] += n * lengths[c]
        mass[w] += n
    return tuple(zip(totals, mass))


def explicit_leakage_audit(joint):
    """The exact product test of C against X, and I(C; X), from a whole (C, X, W) joint."""
    return LeakageReport(exact_zero=is_independent(joint, ["C"], ["X"]),
                         bits=mutual_information(joint, ["C"], ["X"]))


def explicit_expected_length(joint, lengths):
    """E[len(C) | W=w] for each key value, by one walk of a whole (C, X, W) joint."""
    per_w = tuple(t / m if m else 0.0 for t, m in _w_sums(joint, lengths))
    return ExpectedLength(per_w=per_w, max_over_w=max(per_w))


def explicit_distribution(joint, lengths):
    """A `TranscriptDistribution` that states an arbitrary (C, X, W) joint to
    the audits: one group of one copy per positive value of C, in order,
    with its (C, X) row as masses and a one-symbol key, and the length sum
    over the whole joint. It has no books and numbers C by rank, so only
    `leakage_audit` and `expected_length` read it, and its one expected
    length is the joint's only when W has one value."""
    num, den = joint.marginalize(["C", "X"])._ints()
    groups = {}
    for (c, x), n in num.items():
        groups.setdefault((c,), {})[x] = n
    return TranscriptDistribution(None, 1, groups, den,
                                  sum(n * lengths[c] for (c, _), n in num.items()))


# ---------------------------------------------------------------------------
# The unfactored enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefTranscriptLaw:
    """The whole (C, X) table of a chain's transcripts, every copy written out."""

    lengths: tuple
    parts: tuple  # (padded x, u vector)
    cx: JointDist
    w_sums: tuple  # per w: (mass * length, mass)

    @property
    def joint(self):
        """(C, X, W): cell (c, x) gains w = padded x - x mod |X|."""
        key_size = self.cx.variables[1].size
        num, den = self.cx._ints()
        return JointDist._exact((*self.cx.variables, Alphabet("W", key_size)),
                                {(c, x, (self.parts[c][0] - x) % key_size): n
                                 for (c, x), n in num.items()}, den)


def ref_transcript_distribution(chain, books):
    """The (C, X) enumeration written cell by cell: each chain cell's weight
    goes to every padded symbol x + w mod |X|, a transcript's index is the
    order its (padded x, u vector) is first met over the sorted chain
    cells, and the table is sorted once at the end. The pad slot is written
    with the |X|-word fixed-length book."""
    x_size = chain.private_size
    pad_book = fixed_length_codebook(x_size)
    u_start = len(chain.joint.variables) - len(chain.stages)
    index = {}
    lengths, parts, table = [], [], {}
    totals, mass = [0] * x_size, [0] * x_size
    num, den = chain.joint._ints()
    for cell, n in num.items():
        x, u_vec = cell[0], cell[u_start:]
        bits = sum(book.length(u) for book, u in zip(books, u_vec))
        for w in range(x_size):
            xt = (x + w) % x_size
            c = index.get((xt, u_vec))
            if c is None:
                c = index[(xt, u_vec)] = len(parts)
                parts.append((xt, u_vec))
                lengths.append(pad_book.length(xt) + bits)
            table[(c, x)] = table.get((c, x), 0) + n
            totals[w] += n * lengths[c]
            mass[w] += n
    cx = JointDist._exact((Alphabet("C", len(parts)), Alphabet("X", x_size)),
                          dict(sorted(table.items())), den * x_size)
    return RefTranscriptLaw(tuple(lengths), tuple(parts), cx, tuple(zip(totals, mass)))


def ref_leakage_audit(law):
    """The Fraction independence test `ref_is_independent` on the whole
    (C, X) table, so the verdict shares no code with `_product_test`."""
    return ref_is_independent(law.cx.variables, law.cx.table, ["C"], ["X"])


def plaintext_baseline(p, demand):
    """Uncoded single-demand baseline, the file symbol itself as the message:
    its explicit (C, X, W) joint, with a one-symbol key, and the messages' lengths."""
    (demand,) = demand_vector(len(p.variables) - 1, [demand])
    y_alpha = p.variables[demand]
    book = fixed_length_codebook(y_alpha.size)
    pair = p.marginalize([p.variables[0].name, y_alpha.name])
    joint = JointDist(
        [Alphabet("C", y_alpha.size), Alphabet("X", p.variables[0].size), Alphabet("W", 1)],
        {(y, x, 0): q for (x, y), q in pair.items()})
    return joint, tuple(book.length(y) for y in y_alpha.symbols())
