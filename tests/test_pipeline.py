import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privseq.pipeline as pipeline_mod
from privseq import caching, coding
from privseq.bounds import Example1Params, example1_build
from privseq.coding import ENTROPY, FIXED, Codebook, PadKey
from privseq.errors import InvariantError, LimitError, ValidationError
from privseq.pipeline import (
    RandomDraws,
    Transcript,
    TranscriptDistribution,
    _write_slots,
    audit_demands,
    decode_session,
    encode_session,
    expected_length,
    leakage_audit,
    session_chain,
    session_codebooks,
    transcript_distribution,
    worst_case_sweep,
)
from privseq.probability import Alphabet, JointDist

from conftest import random_database
from reference import (
    FixedDraws,
    enumerate_outcomes,
    law,
    mutual_information,
    outcomes,
    plaintext_baseline,
    ref_pick,
    td_law,
)


def masked_bits(p, n, k, f):
    return example1_build(Example1Params(F(p), n, k, f))


def deterministic_db():
    # single file, a copy of X: the auxiliary slot carries zero bits
    return JointDist(
        [Alphabet("X", 2), Alphabet("Y1", 2)],
        {(0, 0): F(1, 3), (1, 1): F(2, 3)},
    )


def designed_db(designed_2x2):
    # promote the pair fixture to database shape (X, Y1)
    return JointDist(
        [Alphabet("X", 2), Alphabet("Y1", 2)],
        dict(designed_2x2.table),
    )


class TestEncodeDecode:
    def test_deterministic_file_pad_only_bits(self):
        p = deterministic_db()
        chain = session_chain(p, (1,))
        t = encode_session(p, (1, 1), (1,), PadKey(1, 2), chain, RandomDraws(0))
        assert [len(b) for _, b in t.slots] == [1, 0]
        assert t.total_length == 1
        x, ys = decode_session(t, PadKey(1, 2), (1,), chain)
        assert (x, ys) == (1, (1,))

    def test_designed_instance_both_draws_decode(self, designed_2x2):
        p = designed_db(designed_2x2)
        chain = session_chain(p, (1,))
        stage = chain.stages[0]
        cond = stage.conditional_u(0, (), 0)
        assert cond == {0: F(1, 2), 1: F(1, 2)}
        for u in cond:
            t = encode_session(p, (0, 0), (1,), PadKey(0, 2), chain, FixedDraws([u]))
            assert decode_session(t, PadKey(0, 2), (1,), chain) == (0, (0,))

    def test_full_roundtrip_masked_two_files(self):
        p = masked_bits("1/2", 2, 2, 1)
        chain = session_chain(p, (1, 2))
        total = F(0)
        for o in enumerate_outcomes(p, (1, 2), chain):
            total += o.prob
            got = decode_session(o.transcript, PadKey(o.w, 2), (1, 2), chain)
            assert got == (o.x, o.files)
        assert total == 1

    def test_wrong_key_corrupts_private_symbol(self):
        p = deterministic_db()
        chain = session_chain(p, (1,))
        t = encode_session(p, (1, 1), (1,), PadKey(1, 2), chain, RandomDraws(0))
        x, _ = decode_session(t, PadKey(0, 2), (1,), chain)
        assert x != 1

    def test_repeated_demands_rejected(self):
        p = masked_bits("1/2", 2, 2, 1)
        with pytest.raises(ValidationError, match="distinct"):
            session_chain(p, (1, 1))

    def test_realization_outside_support(self):
        p = deterministic_db()
        chain = session_chain(p, (1,))
        with pytest.raises(ValidationError, match="support"):
            encode_session(p, (0, 1), (1,), PadKey(0, 2), chain, RandomDraws(0))

    def test_corrupted_transcript(self):
        p = JointDist(
            [Alphabet("X", 2), Alphabet("Y1", 2)],
            {(0, 0): F(1, 4), (0, 1): F(1, 4), (1, 0): F(1, 8), (1, 1): F(3, 8)},
        )
        chain = session_chain(p, (1,))
        t = encode_session(p, (0, 0), (1,), PadKey(0, 2), chain, RandomDraws(1))
        bad = Transcript(((t.slots[0][0], t.slots[0][1] + "1"),) + t.slots[1:])
        with pytest.raises(ValidationError):
            decode_session(bad, PadKey(0, 2), (1,), chain)

    def test_transcript_packing_roundtrip(self):
        p = masked_bits("1/2", 2, 2, 1)
        chain = session_chain(p, (2, 1))
        t = encode_session(p, (1, 0, 1), (2, 1), PadKey(1, 2), chain, RandomDraws(9))
        assert Transcript.unpack(t.pack()) == t

    def test_packed_roundtrip_decodes(self):
        p = masked_bits("1/2", 3, 3, 1)
        chain = session_chain(p, (1, 2))
        t = encode_session(p, (1, 0, 1, 1), (1, 2), PadKey(1, 2), chain, RandomDraws(4))
        got = Transcript.unpack(t.pack())
        assert decode_session(got, PadKey(1, 2), (1, 2), chain) == (1, (0, 1))

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_relabelled_slot_rejected(self, slot):
        p = masked_bits("1/2", 3, 3, 1)
        chain = session_chain(p, (1, 2))
        t = encode_session(p, (1, 0, 1, 1), (1, 2), PadKey(1, 2), chain, RandomDraws(4))
        slots = list(t.slots)
        want, bits = slots[slot]
        slots[slot] = ("zz", bits)
        with pytest.raises(ValidationError, match=f"slot {slot} .*'zz'.*'{want}'"):
            decode_session(Transcript(tuple(slots)), PadKey(1, 2), (1, 2), chain)

    def test_all_labels_replaced_rejected(self):
        p = masked_bits("1/2", 3, 3, 1)
        chain = session_chain(p, (1, 2))
        t = encode_session(p, (1, 0, 1, 1), (1, 2), PadKey(1, 2), chain, RandomDraws(4))
        packed = Transcript(tuple(("zz", bits) for _, bits in t.slots)).pack()
        with pytest.raises(ValidationError, match="expected 'pad'"):
            decode_session(Transcript.unpack(packed), PadKey(1, 2), (1, 2), chain)

    def test_swapped_stage_labels_rejected(self):
        p = masked_bits("1/2", 3, 3, 1)
        chain = session_chain(p, (1, 2))
        t = encode_session(p, (1, 0, 1, 1), (1, 2), PadKey(1, 2), chain, RandomDraws(4))
        pad, (l1, b1), (l2, b2) = t.slots
        with pytest.raises(ValidationError, match="slot 1"):
            decode_session(Transcript((pad, (l2, b1), (l1, b2))), PadKey(1, 2), (1, 2), chain)


class EnumeratingRng:
    """Stub rng whose randrange(n) returns 0, 1, ..., n-1 in turn."""

    def __init__(self):
        self.next = 0
        self.ranges = []

    def randrange(self, n):
        self.ranges.append(n)
        r = self.next % n
        self.next += 1
        return r


class TestExactDraws:
    """`RandomDraws.pick` draws from a (span, widths, length) row: span[j] with
    probability widths[j] / length. Rows need not come reduced."""

    @pytest.mark.parametrize("conditional", [
        (range(0, 3), [1, 1, 1], 3),
        (range(3, 6), [4, 2, 6], 12),  # 1/3, 1/6, 1/2, not reduced
        (range(1, 4), [10, 7, 18], 35),  # 2/7, 1/5, 18/35
        (range(7, 8), [5], 5),  # one atom: still one randrange(1)
    ])
    def test_every_integer_picks_exact_counts(self, conditional):
        span, widths, length = conditional
        probs = {u: F(w, length) for u, w in zip(span, widths)}
        den = math.lcm(*(q.denominator for q in probs.values()))
        draws = RandomDraws(0)
        draws._rng = EnumeratingRng()
        counts = Counter(draws.pick(0, conditional) for _ in range(den))
        assert draws._rng.ranges == [den] * den
        assert counts == {u: q * den for u, q in probs.items()}

    @pytest.mark.parametrize("conditional", [
        (range(0, 2), [2, 3], 6),  # 1/3 + 1/2
        (range(0, 2), [4, 3], 6),  # 2/3 + 1/2
        (range(0, 0), [], 1),
        (range(0, 0), [], 0),
    ])
    def test_conditional_not_summing_to_one_rejected(self, conditional):
        with pytest.raises(InvariantError, match="not 1"):
            RandomDraws(0).pick(2, conditional)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.booleans(),
           st.sampled_from([FIXED, ENTROPY]), st.integers(0, 2**32), st.data())
    def test_row_draw_is_the_fraction_draw(self, db_seed, x_size, sparse, mode, seed, data):
        """Along a session, each stage's row draws what `ref_pick` draws from the
        stage's `conditional_u` and consumes the same random bits; with |X| = 1
        every row has one atom."""
        p = random_database(random.Random(db_seed), x_size, 3, 1, sparse)
        demands = data.draw(st.permutations((1, 2, 3)))[:data.draw(st.integers(1, 3))]
        chain = session_chain(p, demands)
        cell = data.draw(st.sampled_from(sorted(p._ints()[0])))
        draws, twin = RandomDraws(seed), random.Random(seed)
        x, prefix = cell[0], ()
        for i, (stage, d) in enumerate(zip(chain.stages, demands)):
            u = draws.pick(i, stage.row(x, prefix, cell[d]))
            assert u == ref_pick(twin, i, stage.conditional_u(x, prefix, cell[d]))
            assert draws._rng.getstate() == twin.getstate()
            prefix += (u,)
        key = PadKey(0, x_size)
        assert encode_session(p, cell, demands, key, chain, RandomDraws(seed), mode) == \
            encode_session(p, cell, demands, key, chain, FixedDraws(prefix), mode)


class TestTranscriptDistribution:
    def test_independent_file_product_structure(self):
        # Y independent of X: transcript = (pad, code of Y); both slots uniform
        p = JointDist(
            [Alphabet("X", 2), Alphabet("Y1", 2)],
            {(x, y): F(1, 4) for x in range(2) for y in range(2)},
        )
        chain = session_chain(p, (1,))
        td = transcript_distribution(chain, session_codebooks(chain, FIXED))
        assert len(td.transcripts) == 4
        assert all(q == F(1, 8) for q in td.joint.marginalize(["C", "X"]).table.values())

    def test_designed_instance_table(self, designed_2x2):
        p = designed_db(designed_2x2)
        chain = session_chain(p, (1,))
        td = transcript_distribution(chain, session_codebooks(chain, FIXED))
        assert sum(td.joint.table.values()) == 1
        assert len(td.transcripts) <= 2 * 3
        assert leakage_audit(td).exact_zero

    def test_masked_two_files_audit(self):
        p = masked_bits("1/2", 2, 2, 1)
        chain = session_chain(p, (1, 2))
        td = transcript_distribution(chain, session_codebooks(chain, FIXED))
        leak = leakage_audit(td)
        assert leak.exact_zero
        assert leak.bits == 0.0

    def test_state_limit(self):
        p = masked_bits("1/2", 2, 2, 1)
        chain = session_chain(p, (1, 2))
        with pytest.raises(LimitError):
            transcript_distribution(chain, session_codebooks(chain, FIXED), limit=3)

    def test_pad_book_not_built_over_the_limit(self, monkeypatch):
        # one positive cell and |X| = 101: 101 weighted states, and a pad book of 101 words
        calls = []
        original = coding.fixed_length_codebook

        def spy(size):
            calls.append(size)
            return original(size)

        monkeypatch.setattr(coding, "fixed_length_codebook", spy)
        monkeypatch.setattr(pipeline_mod, "fixed_length_codebook", spy)
        p = JointDist([Alphabet("X", 101), Alphabet("Y1", 2)], {(0, 0): F(1)})
        with pytest.raises(LimitError, match="101 weighted states exceed the limit 100"):
            audit_demands(p, (1,), limit=100)
        assert calls == []
        assert audit_demands(p, (1,), limit=101)[0].transcript_support == 101
        assert calls == [101, 1]

    def test_pad_independent_of_auxiliaries(self):
        # padded symbol and the u-vector factorize exactly
        p = masked_bits("1/2", 2, 2, 1)
        chain = session_chain(p, (1, 2))
        td = transcript_distribution(chain, session_codebooks(chain, FIXED))
        table = {}
        for (c, _x, _w), q in td.joint.items():
            xt, u_vec = td.parts[c]
            table[(xt,) + u_vec] = table.get((xt,) + u_vec, F(0)) + q
        u_sizes = chain.u_sizes()
        d = JointDist(
            [Alphabet("P", 2)] + [Alphabet(f"V{i}", s) for i, s in enumerate(u_sizes)],
            table,
        )
        assert d.is_independent(["P"], [f"V{i}" for i in range(len(u_sizes))])


class TestLazyTranscripts:
    """Lengths come from code-length tables; transcripts are written from parts on first access."""

    @staticmethod
    def check(td, books):
        assert len(td.parts) == len(td.lengths) == len(td.transcripts)
        for c, part in enumerate(td.parts):
            assert td.transcripts[c] == _write_slots(books, *part)
            assert td.lengths[c] == td.transcripts[c].total_length

    @pytest.mark.parametrize("mode", [FIXED, ENTROPY])
    @pytest.mark.parametrize("seed, shape, demands", [
        (1, (3, 2, 1), (2, 1)),
        (2, (2, 3, 1), (1, 2, 3)),
        (3, (2, 2, 2), (2, 1)),
    ])
    def test_dense_databases(self, mode, seed, shape, demands):
        p = random_database(random.Random(seed), *shape)
        chain = session_chain(p, demands)
        td = transcript_distribution(chain, session_codebooks(chain, mode))
        self.check(td, session_codebooks(chain, mode))

    def test_cache_delivery(self):
        cfg = caching.CacheConfig(3, 3, 1, 3)
        session = caching.make_cache_session(cfg, masked_bits("1/3", 3, 3, 3), (3, 1, 2), ENTROPY)
        self.check(transcript_distribution(session.chain, session.books), session.books)

    def test_u_without_codeword_rejected(self):
        p = random_database(random.Random(4), 2, 1, 1)
        chain = session_chain(p, (1,))
        assert chain.u_sizes()[0] > 1
        pad, _ = session_codebooks(chain, FIXED)
        with pytest.raises(ValidationError, match="has no codeword"):
            transcript_distribution(chain, (pad, [Codebook({0: ""})]))


class TestKeptMarginal:
    """`transcript_distribution` keeps the (C, X) marginal and the per-key length
    sums, and derives (C, X, W) from them; a distribution over the same joint
    given explicitly sums both from (C, X, W). The two must agree to the bit."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3), st.booleans(),
           st.sampled_from([FIXED, ENTROPY]))
    def test_kept_and_summed_agree(self, seed, x_size, n_files, sparse, mode):
        rng = random.Random(seed)
        p = random_database(rng, x_size, n_files, 1, sparse)
        demands = rng.sample(range(1, n_files + 1), rng.randint(1, n_files))
        td = transcript_distribution(session_chain(p, demands), mode)
        leak, el = leakage_audit(td), expected_length(td)
        assert td._joint is None  # neither call derives (C, X, W)
        explicit = TranscriptDistribution(td.joint, td.lengths)
        leak_ref, el_ref = leakage_audit(explicit), expected_length(explicit)
        assert leak.exact_zero == leak_ref.exact_zero
        assert leak.bits.hex() == leak_ref.bits.hex()
        assert [v.hex() for v in el.per_w] == [v.hex() for v in el_ref.per_w]
        assert el.max_over_w.hex() == el_ref.max_over_w.hex()
        # the derived joint is a valid one: sums to 1, reduced, in sorted cell order
        rebuilt = JointDist(td.joint.variables, td.joint.table)
        assert td.joint == rebuilt
        assert list(td.joint._ints()[0]) == list(rebuilt._ints()[0])


@st.composite
def cxw_joints(draw):
    """(C, X, W) joints: some products of marginals, some arbitrary tables."""
    sizes = [draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 2))]
    cells = list(itertools.product(*map(range, sizes)))
    if draw(st.booleans()):
        marginals = [draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)) for n in sizes]
        weights = [math.prod(m[s] for m, s in zip(marginals, cell)) for cell in cells]
    else:
        weights = draw(st.lists(st.integers(0, 6), min_size=len(cells), max_size=len(cells)))
        weights[draw(st.integers(0, len(cells) - 1))] += 1
    total = sum(weights)
    table = {cell: F(w, total) for cell, w in zip(cells, weights) if w}
    names = ("C", "X", "W")
    return JointDist([Alphabet(n, size) for n, size in zip(names, sizes)], table)


def assert_audit_matches_reference(td):
    leak = leakage_audit(td)
    assert leak.exact_zero == td.joint.is_independent(["C"], ["X"])
    assert leak.bits.hex() == mutual_information(td.joint, ["C"], ["X"]).hex()
    return leak


class TestLeakage:
    @settings(max_examples=150, deadline=None)
    @given(cxw_joints())
    def test_audit_matches_reference(self, joint):
        assert_audit_matches_reference(TranscriptDistribution(joint, (0,) * joint.variables[0].size))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3), st.booleans(),
           st.sampled_from([FIXED, ENTROPY]))
    def test_chain_audit_matches_reference(self, seed, x_size, n_files, sparse, mode):
        p = random_database(random.Random(seed), x_size, n_files, 1, sparse)
        chain = session_chain(p, range(1, n_files + 1))
        assert assert_audit_matches_reference(
            transcript_distribution(chain, session_codebooks(chain, mode))).exact_zero

    def test_plaintext_baseline_matches_reference(self):
        for seed in range(4):
            p = random_database(random.Random(seed), 3, 2, 1)
            leak = assert_audit_matches_reference(plaintext_baseline(p, 1 + seed % 2))
            assert not leak.exact_zero and leak.bits > 0

    @pytest.mark.parametrize("mode", [FIXED, ENTROPY])
    def test_perturbed_scheme_matches_reference(self, mode):
        p = random_database(random.Random(6), 2, 2, 1)
        chain = session_chain(p, (1, 2))
        td = transcript_distribution(chain, session_codebooks(chain, mode))
        assert assert_audit_matches_reference(td).exact_zero
        # move half of one cell's mass to the same (c, w) under the other x
        table = dict(td.joint.table)
        (c, x, w), q = next(iter(table.items()))
        table[(c, x, w)] -= q / 2
        table[(c, 1 - x, w)] = table.get((c, 1 - x, w), F(0)) + q / 2
        leaky = TranscriptDistribution(JointDist(td.joint.variables, table), td.lengths)
        leak = assert_audit_matches_reference(leaky)
        assert not leak.exact_zero and leak.bits > 0

    def test_plaintext_baseline_leaks(self):
        p = masked_bits("1/2", 1, 1, 1)
        td = plaintext_baseline(p, 1)
        leak = leakage_audit(td)
        assert not leak.exact_zero
        expect = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)) - 0.5
        assert leak.bits == pytest.approx(expect, abs=1e-12)
        assert leak.bits == pytest.approx(0.3113, abs=5e-5)

    def test_pad_only_clean(self):
        p = deterministic_db()
        chain = session_chain(p, (1,))
        td = transcript_distribution(chain, session_codebooks(chain, FIXED))
        assert leakage_audit(td).exact_zero


class TestEncoderLaw:
    """The audited joint is the law of what the real encoder sends."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.booleans(),
           st.sampled_from([FIXED, ENTROPY]), st.data())
    def test_enumerated_law_is_the_audited_joint(self, seed, x_size, sparse, mode, data):
        p = random_database(random.Random(seed), x_size, 3, 1, sparse)
        demands = data.draw(st.permutations((1, 2, 3)))[:data.draw(st.integers(1, 3))]
        chain = session_chain(p, demands)
        td = transcript_distribution(chain, mode)
        assert law(enumerate_outcomes(p, demands, chain, mode)) == td_law(td)

    def test_shifted_pad_fails_the_comparison(self):
        # negative control: the pad uses key w+1 whenever x = 0
        p = random_database(random.Random(5), 2, 3, 1)
        demands = (2, 1)
        chain = session_chain(p, demands)
        books = session_codebooks(chain, FIXED)
        want = td_law(transcript_distribution(chain, books))
        assert law(enumerate_outcomes(p, demands, chain)) == want
        shifted = []
        for cell, prob in p.items():
            def encode(key, draws):
                key = PadKey((key.value + (cell[0] == 0)) % 2, 2)
                return encode_session(p, cell, demands, key, chain, draws, FIXED, books)
            shifted += outcomes(chain, cell[0], [cell[d] for d in demands], prob, encode)
        got = law(shifted)
        assert got != want

        # the shift keeps the pad uniform given x, so only the key shows it
        def without_key(table):
            out = {}
            for (t, x, _), q in table.items():
                out[(t, x)] = out.get((t, x), 0) + q
            return out
        assert without_key(got) == without_key(want)


class TestExpectedLength:
    def test_fixed_mode_constant(self, designed_2x2):
        p = designed_db(designed_2x2)
        chain = session_chain(p, (1,))
        td = transcript_distribution(chain, session_codebooks(chain, FIXED))
        el = expected_length(td)
        assert el.per_w == (3.0, 3.0)
        assert set(td.lengths) == {3}

    def test_entropy_mode_designed_instance(self, designed_2x2):
        # P_U = (1/4,1/4,1/2) is dyadic: the code hits H(U) = 1.5 exactly
        p = designed_db(designed_2x2)
        chain = session_chain(p, (1,))
        td = transcript_distribution(chain, session_codebooks(chain, ENTROPY))
        el = expected_length(td)
        assert el.per_w == (2.5, 2.5)

    def test_deterministic_case_pad_bits_only(self):
        p = deterministic_db()
        chain = session_chain(p, (1,))
        td = transcript_distribution(chain, session_codebooks(chain, FIXED))
        assert expected_length(td).max_over_w == 1.0

    def test_per_w_all_equal(self):
        rng = random.Random(23)
        for _ in range(5):
            p = random_database(rng, rng.randint(2, 3), 2, 1, sparse=True)
            chain = session_chain(p, (2, 1))
            td = transcript_distribution(chain, session_codebooks(chain, FIXED))
            per_w = expected_length(td).per_w
            assert max(per_w) - min(per_w) < 1e-12


class TestSequentiality:
    def test_prefix_stages_ignore_future_demands(self):
        rng = random.Random(101)
        for _ in range(30):
            p = random_database(rng, rng.randint(2, 3), 3, 1, sparse=True)
            d1 = rng.randint(1, 3)
            rest = [d for d in (1, 2, 3) if d != d1]
            rng.shuffle(rest)
            a = session_chain(p, (d1, rest[0]))
            b = session_chain(p, (d1, rest[1]))
            sa, sb = a.stages[0], b.stages[0]
            assert sa.mechanism.atoms == sb.mechanism.atoms
            assert sa.mechanism.p_u == sb.mechanism.p_u
            ma, mb = sa.mechanism, sb.mechanism
            assert [ma.apply(u, x) for x in range(len(sa.compound)) for u in range(ma.u_size)] == \
                [mb.apply(u, x) for x in range(len(sb.compound)) for u in range(mb.u_size)]
            assert sa.compound == sb.compound

    def test_emitted_slot_bits_identical(self):
        class ForceFirst:
            def __init__(self, u0):
                self.u0 = u0

            def pick(self, slot, row):
                return self.u0 if slot == 0 else row[0][0]

        rng = random.Random(55)
        p = random_database(rng, 2, 3, 1)
        for cell in p.table:
            chain_a = session_chain(p, (1, 2))
            chain_b = session_chain(p, (1, 3))
            cond = chain_a.stages[0].conditional_u(cell[0], (), cell[1])
            for u in cond:
                ta = encode_session(p, cell, (1, 2), PadKey(1, 2), chain_a, ForceFirst(u))
                tb = encode_session(p, cell, (1, 3), PadKey(1, 2), chain_b, ForceFirst(u))
                assert ta.slots[0] == tb.slots[0]
                assert ta.slots[1] == tb.slots[1]


class TestWorstCaseSweep:
    def test_single_file_single_row(self):
        p = masked_bits("1/2", 1, 1, 1)
        res = worst_case_sweep(p, 1)
        assert len(res.rows) == 1
        assert res.worst is res.rows[0]

    def test_two_files_two_orderings(self):
        p = masked_bits("1/2", 2, 2, 1)
        res = worst_case_sweep(p, 2)
        assert [r.demands for r in res.rows] == [(1, 2), (2, 1)]

    def test_symmetric_files_equal_lengths(self):
        p = masked_bits("1/3", 2, 2, 1)
        res = worst_case_sweep(p, 2)
        lens = {r.expected_len for r in res.rows}
        assert len(lens) == 1
        assert all(r.leakage_exact_zero for r in res.rows)

    def test_sandwich_holds_on_rows(self):
        rng = random.Random(3)
        p = random_database(rng, 2, 2, 1)
        for row in worst_case_sweep(p, 2).rows:
            assert row.lower <= row.expected_len + 1e-9
            assert row.expected_len <= row.upper_cardinality + 1e-9
            assert row.upper_entropy_estimate <= row.upper_cardinality
