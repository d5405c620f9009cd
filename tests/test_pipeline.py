import contextlib
import gc
import itertools
import math
import random
import weakref
from collections import Counter
from dataclasses import asdict
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privseq.pipeline as pipeline_mod
from privseq import caching, coding
from privseq.bounds import Example1Params, example1_build
from privseq.coding import ENTROPY, FIXED, Codebook, PadKey, slot_label
from privseq.errors import InvariantError, LimitError, ValidationError
from privseq.frl import MechanismChain, build_chain
from privseq.pipeline import (
    RandomDraws,
    Transcript,
    _write_slots,
    audit_demands,
    decode_session,
    decode_walk,
    encode_session,
    encode_walk,
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
    explicit_distribution,
    explicit_expected_length,
    explicit_leakage_audit,
    is_independent,
    law,
    mutual_information,
    outcomes,
    plaintext_baseline,
    ref_leakage_audit,
    ref_pack_slots,
    ref_pick,
    ref_transcript_distribution,
    stage_conditional_u,
    td_law,
    total_length,
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
        assert [len(b) for b in t.bitstrings] == [1, 0]
        assert total_length(t) == 1
        x, ys = decode_session(t, PadKey(1, 2), (1,), chain)
        assert (x, ys) == (1, (1,))

    def test_designed_instance_both_draws_decode(self, designed_2x2):
        p = designed_db(designed_2x2)
        chain = session_chain(p, (1,))
        stage = chain.stages[0]
        cond = stage_conditional_u(stage, 0, (), 0)
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

    @pytest.mark.parametrize("modulus", [1, 3])
    def test_decoder_checks_key_modulus(self, modulus):
        # the decoder rejects a key the encoder would reject, before reading a slot
        p = deterministic_db()
        chain = session_chain(p, (1,))
        t = encode_session(p, (1, 1), (1,), PadKey(1, 2), chain, RandomDraws(0))
        key = PadKey(0, modulus)
        with pytest.raises(ValidationError, match=rf"modulus {modulus} != \|X\| = 2"):
            encode_session(p, (1, 1), (1,), key, chain, RandomDraws(0))
        with pytest.raises(ValidationError, match=rf"modulus {modulus} != \|X\| = 2"):
            decode_session(t, key, (1,), chain)
        with pytest.raises(ValidationError, match=rf"modulus {modulus} != \|X\| = 2"):
            decode_walk(chain, session_codebooks(chain, FIXED), t, key)

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
        bad = Transcript((t.bitstrings[0] + "1",) + t.bitstrings[1:])
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

    # the labels live in the packed header only: each forged file is the
    # session's packed bytes with its labels rewritten, and the reader rejects it

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_relabelled_slot_rejected(self, slot):
        p = masked_bits("1/2", 3, 3, 1)
        chain = session_chain(p, (1, 2))
        t = encode_session(p, (1, 0, 1, 1), (1, 2), PadKey(1, 2), chain, RandomDraws(4))
        slots = [(slot_label(i), bits) for i, bits in enumerate(t.bitstrings)]
        assert ref_pack_slots(slots) == t.pack()
        want, bits = slots[slot]
        slots[slot] = ("zz", bits)
        with pytest.raises(ValidationError, match=f"slot {slot} .*'zz'.*'{want}'"):
            Transcript.unpack(ref_pack_slots(slots))

    def test_all_labels_replaced_rejected(self):
        p = masked_bits("1/2", 3, 3, 1)
        chain = session_chain(p, (1, 2))
        t = encode_session(p, (1, 0, 1, 1), (1, 2), PadKey(1, 2), chain, RandomDraws(4))
        packed = ref_pack_slots([("zz", bits) for bits in t.bitstrings])
        with pytest.raises(ValidationError, match="expected 'pad'"):
            Transcript.unpack(packed)

    def test_swapped_stage_labels_rejected(self):
        p = masked_bits("1/2", 3, 3, 1)
        chain = session_chain(p, (1, 2))
        t = encode_session(p, (1, 0, 1, 1), (1, 2), PadKey(1, 2), chain, RandomDraws(4))
        pad, b1, b2 = t.bitstrings
        with pytest.raises(ValidationError, match="slot 1"):
            Transcript.unpack(ref_pack_slots([("pad", pad), ("u2", b1), ("u1", b2)]))


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
        stage's `stage_conditional_u` and consumes the same random bits; with |X| = 1
        every row has one atom."""
        p = random_database(random.Random(db_seed), x_size, 3, 1, sparse)
        demands = data.draw(st.permutations((1, 2, 3)))[:data.draw(st.integers(1, 3))]
        chain = session_chain(p, demands)
        cell = data.draw(st.sampled_from(sorted(p._ints()[0])))
        draws, twin = RandomDraws(seed), random.Random(seed)
        x, prefix = cell[0], ()
        for i, (stage, d) in enumerate(zip(chain.stages, demands)):
            u = draws.pick(i, stage.row(x, prefix, cell[d]))
            assert u == ref_pick(twin, i, stage_conditional_u(stage, x, prefix, cell[d]))
            assert draws._rng.getstate() == twin.getstate()
            prefix += (u,)
        key = PadKey(0, x_size)
        assert encode_session(p, cell, demands, key, chain, RandomDraws(seed), mode) == \
            encode_session(p, cell, demands, key, chain, FixedDraws(prefix), mode)


class TestBooksMatchTheChain:
    """Books of another chain are refused, not zipped short against the stages."""

    @pytest.mark.parametrize("entry", ["transcript_distribution", "encode_walk", "decode_walk"])
    def test_books_of_a_shorter_chain_rejected(self, entry):
        p = random_database(random.Random(1), 2, 3, 1)
        chain = session_chain(p, (1, 2, 3))
        books = session_codebooks(chain, FIXED)
        short = session_codebooks(session_chain(p, (1, 2)), FIXED)
        cell, key = next(iter(p._ints()[0])), PadKey(0, 2)
        assert expected_length(transcript_distribution(chain, books)).max_over_w == 9.0
        transcript = encode_session(p, cell, (1, 2, 3), key, chain, RandomDraws(0), FIXED, books)
        assert len(transcript.bitstrings) == 4
        with pytest.raises(ValidationError, match="^2 codebooks for a chain of 3 stages$"):
            if entry == "transcript_distribution":
                transcript_distribution(chain, short)
            elif entry == "encode_walk":
                encode_session(p, cell, (1, 2, 3), key, chain, RandomDraws(0), FIXED, short)
            else:
                decode_walk(chain, short, transcript, key)


class TestTranscriptDistribution:
    @pytest.mark.parametrize("targets", [[], ["Y1"]], ids=["no stages", "one stage"])
    def test_unknown_mode_rejected(self, targets):
        chain = build_chain(masked_bits("1/2", 1, 1, 1), targets)
        with pytest.raises(ValidationError, match="unknown coding mode 'bogus'"):
            session_codebooks(chain, "bogus")

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
        # one positive cell and |X| = 101: 101 weighted states; the pad slot is a
        # fixed-width field, so no book of 101 words is built under or over the limit
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
        assert audit_demands(p, (1,), limit=101)[0].transcript_support == 101
        assert calls == [1, 1]  # the one stage's book, once per audit

    def test_pad_independent_of_auxiliaries(self):
        # padded symbol and the u-vector factorize exactly
        p = masked_bits("1/2", 2, 2, 1)
        chain = session_chain(p, (1, 2))
        books = session_codebooks(chain, FIXED)
        td, ref = transcript_distribution(chain, books), ref_transcript_distribution(chain, books)
        joint = td.joint
        assert joint == ref.joint
        table = {}
        for (c, _x, _w), q in joint.items():
            xt, u_vec = ref.parts[c]
            table[(xt,) + u_vec] = table.get((xt,) + u_vec, F(0)) + q
        u_sizes = chain.u_sizes()
        d = JointDist(
            [Alphabet("P", 2)] + [Alphabet(f"V{i}", s) for i, s in enumerate(u_sizes)],
            table,
        )
        assert is_independent(d, ["P"], [f"V{i}" for i in range(len(u_sizes))])


class TestLazyTranscripts:
    """Transcripts are written on read, in the oracle's order of (padded x,
    u vector) parts, and are as long as its code-length tables say."""

    @staticmethod
    def check(chain, td, books):
        transcripts, ref = td.transcripts, ref_transcript_distribution(chain, books)
        assert len(ref.parts) == len(ref.lengths) == len(transcripts)
        for c, part in enumerate(ref.parts):
            assert transcripts[c] == _write_slots(books, chain.private_size, *part)
            assert ref.lengths[c] == total_length(transcripts[c])

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
        self.check(chain, td, session_codebooks(chain, mode))

    def test_cache_delivery(self):
        cfg = caching.CacheConfig(3, 3, 1, 3)
        session = caching.make_cache_session(cfg, masked_bits("1/3", 3, 3, 3), (3, 1, 2), ENTROPY)
        self.check(session.chain, transcript_distribution(session.chain, session.books),
                   session.books)

    def test_u_without_codeword_rejected(self):
        p = random_database(random.Random(4), 2, 1, 1)
        chain = session_chain(p, (1,))
        assert chain.u_sizes()[0] > 1
        with pytest.raises(ValidationError, match="has no codeword"):
            transcript_distribution(chain, (Codebook({0: ""}),))


@contextlib.contextmanager
def no_joint_built():
    """Fails the test if a JointDist is built inside the block."""
    def refuse(*args, **kwargs):
        raise AssertionError("a JointDist was built")
    with mock.patch.object(JointDist, "__init__", refuse), \
            mock.patch.object(JointDist, "_exact", refuse):
        yield


class TestKeptMarginal:
    """`transcript_distribution` keeps the factored (u vector, X) law and the
    per-key length sums, and derives (C, X, W) from them; the explicit-joint
    audit sums both from (C, X, W). The two must agree: the same verdict,
    0.0 bits on the pass, and the same lengths to the bit."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3), st.booleans(),
           st.sampled_from([FIXED, ENTROPY]))
    def test_kept_and_summed_agree(self, seed, x_size, n_files, sparse, mode):
        rng = random.Random(seed)
        p = random_database(rng, x_size, n_files, 1, sparse)
        demands = rng.sample(range(1, n_files + 1), rng.randint(1, n_files))
        chain = session_chain(p, demands)
        td = transcript_distribution(chain, session_codebooks(chain, mode))
        with no_joint_built():  # neither call derives a (C, X) table
            leak, el = leakage_audit(td), expected_length(td)
        joint = td.joint
        leak_ref = explicit_leakage_audit(joint)
        el_ref = explicit_expected_length(joint, [total_length(t) for t in td.transcripts])
        assert leak.exact_zero == leak_ref.exact_zero
        assert leak_ref.exact_zero and leak.bits == 0.0
        assert [v.hex() for v in el.per_w] == [v.hex() for v in el_ref.per_w]
        assert el.max_over_w.hex() == el_ref.max_over_w.hex()
        # the derived joint is a valid one: sums to 1, reduced, in sorted cell order
        rebuilt = JointDist(joint.variables, joint.table)
        assert joint == rebuilt
        assert list(joint._ints()[0]) == list(rebuilt._ints()[0])


def leaky_chain(chain, index=0):
    """The chain with half of its index-th cell's mass moved to the next x,
    same files and u vector: its auxiliaries depend on X unless |X| = 1."""
    num, den = chain.joint._ints()
    cell, n = list(num.items())[index]
    moved = {c: 2 * m for c, m in num.items()}
    moved[cell] -= n
    other = ((cell[0] + 1) % chain.private_size,) + cell[1:]
    moved[other] = moved.get(other, 0) + n
    return MechanismChain(JointDist._exact(chain.joint.variables, dict(sorted(moved.items())), 2 * den),
                          chain.stages)


def chain_leakage(chain, exact_zero):
    """The leakage a chain's audit reports: 0.0 on a pass, else I(U; X) of its joint."""
    return 0.0 if exact_zero else mutual_information(chain.joint, chain.u_names, ["X"])


class RecordingDraws(RandomDraws):
    """Seeded draws that keep the auxiliary symbols they pick, in slot order."""

    def __init__(self, seed):
        super().__init__(seed)
        self.picks = []

    def pick(self, slot, row):
        self.picks.append(super().pick(slot, row))
        return self.picks[-1]


class TestFactoredLaw:
    """The factored enumeration and audit against the oracle that writes
    every (C, X) cell: the same transcripts, law, verdict and lengths, and
    the leakage 0.0 on a pass and I(U; X) of the chain on a fail."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3), st.booleans(),
           st.sampled_from([FIXED, ENTROPY]), st.booleans())
    def test_matches_the_unfactored_oracle(self, seed, x_size, n_files, sparse, mode, leaky):
        rng = random.Random(seed)
        p = random_database(rng, x_size, n_files, 1, sparse)
        demands = rng.sample(range(1, n_files + 1), rng.randint(1, n_files))
        chain = session_chain(p, demands)
        if leaky:
            chain = leaky_chain(chain, rng.randrange(len(chain.joint)))
        books = session_codebooks(chain, mode)
        td, ref = transcript_distribution(chain, books), ref_transcript_distribution(chain, books)
        leak = leakage_audit(td)
        assert leak.exact_zero == ref_leakage_audit(ref)
        assert leak.exact_zero or x_size > 1 and leaky
        assert leak.bits.hex() == chain_leakage(chain, leak.exact_zero).hex()
        assert expected_length(td).per_w == tuple(t / m for t, m in ref.w_sums)
        assert td.support == len(ref.lengths)
        transcripts, joint = td.transcripts, td.joint
        assert [total_length(t) for t in transcripts] == list(ref.lengths)
        assert transcripts == tuple(_write_slots(books, x_size, *part) for part in ref.parts)
        cx = joint.marginalize(["C", "X"])
        assert cx == ref.cx and list(cx._ints()[0]) == list(ref.cx._ints()[0])
        assert joint == ref.joint

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 3), st.booleans(),
           st.sampled_from([FIXED, ENTROPY]))
    def test_sampled_transcript_is_the_rotated_block(self, seed, x_size, n_files, sparse, mode):
        # the pad is a rotation by definition: a session of row x under key w
        # is transcript (x + w - x0) mod |X| of its u vector's block
        rng = random.Random(seed)
        p = random_database(rng, x_size, n_files, 1, sparse)
        demands = rng.sample(range(1, n_files + 1), rng.randint(1, n_files))
        chain = session_chain(p, demands)
        books = session_codebooks(chain, mode)
        td = transcript_distribution(chain, books)
        transcripts, index = td.transcripts, {u_vec: g for g, u_vec in enumerate(td.groups)}
        cells = list(p._ints()[0])
        for _ in range(5):
            row, w = rng.choice(cells), rng.randrange(x_size)
            draws = RecordingDraws(rng.randrange(10**6))
            sampled = encode_walk(chain, books, row[0], PadKey(w, x_size),
                                  (row[d] for d in demands), draws)
            u_vec = tuple(draws.picks)
            x0 = min(td.groups[u_vec])
            assert sampled == transcripts[index[u_vec] * x_size + (row[0] + w - x0) % x_size]


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


def assert_audit_matches_reference(td, joint, chain=None):
    """The product audit of `td` against the explicit-joint audit of `joint`:
    the same verdict, and 0.0 bits on a pass. On a fail the bits are I(U; X)
    of `chain`, when given; else the explicit I(C; X), which is I(U; X) for
    the one-key laws of `explicit_distribution`, where C is U."""
    leak, ref = leakage_audit(td), explicit_leakage_audit(joint)
    assert leak.exact_zero == ref.exact_zero
    if chain is not None:
        assert leak.bits.hex() == chain_leakage(chain, ref.exact_zero).hex()
    else:
        assert leak.bits.hex() == (0.0 if ref.exact_zero else ref.bits).hex()
    return leak


class TestLeakage:
    @settings(max_examples=150, deadline=None)
    @given(cxw_joints(), st.randoms(use_true_random=False))
    def test_audit_matches_reference(self, joint, rnd):
        lengths = [rnd.randint(0, 5) for _ in range(joint.variables[0].size)]
        td = explicit_distribution(joint, lengths)
        assert_audit_matches_reference(td, joint)
        if joint.variables[2].size == 1:  # one key value: one expected length states the joint's
            el, el_ref = expected_length(td), explicit_expected_length(joint, lengths)
            assert [v.hex() for v in el.per_w] == [v.hex() for v in el_ref.per_w]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3), st.booleans(),
           st.sampled_from([FIXED, ENTROPY]))
    def test_chain_audit_matches_reference(self, seed, x_size, n_files, sparse, mode):
        p = random_database(random.Random(seed), x_size, n_files, 1, sparse)
        chain = session_chain(p, range(1, n_files + 1))
        td = transcript_distribution(chain, session_codebooks(chain, mode))
        assert assert_audit_matches_reference(td, td.joint).exact_zero

    def test_plaintext_baseline_matches_reference(self):
        for seed in range(4):
            p = random_database(random.Random(seed), 3, 2, 1)
            joint, lengths = plaintext_baseline(p, 1 + seed % 2)
            leak = assert_audit_matches_reference(explicit_distribution(joint, lengths), joint)
            assert not leak.exact_zero and leak.bits > 0

    @pytest.mark.parametrize("mode", [FIXED, ENTROPY])
    def test_leaky_chain_detected(self, mode):
        """A hand-made chain whose auxiliaries depend on X, through the real enumeration."""
        p = random_database(random.Random(6), 2, 2, 1)
        chain = session_chain(p, (1, 2))
        books = session_codebooks(chain, mode)
        clean = transcript_distribution(chain, books)
        assert assert_audit_matches_reference(clean, clean.joint).exact_zero
        leaky = leaky_chain(chain)
        td = transcript_distribution(leaky, books)
        leak = assert_audit_matches_reference(td, td.joint, leaky)
        assert not leak.exact_zero and leak.bits > 0

    def test_plaintext_baseline_leaks(self):
        p = masked_bits("1/2", 1, 1, 1)
        leak = leakage_audit(explicit_distribution(*plaintext_baseline(p, 1)))
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
        td = transcript_distribution(chain, session_codebooks(chain, mode))
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
        assert {total_length(t) for t in td.transcripts} == {3}

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
            states = sorted({x for x, _ in ma.spans})
            assert [ma.apply(u, x) for x in states for u in range(ma.u_size)] == \
                [mb.apply(u, x) for x in states for u in range(mb.u_size)]
            assert states == sorted({x for x, _ in mb.spans})

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
            cond = stage_conditional_u(chain_a.stages[0], cell[0], (), cell[1])
            for u in cond:
                ta = encode_session(p, cell, (1, 2), PadKey(1, 2), chain_a, ForceFirst(u))
                tb = encode_session(p, cell, (1, 3), PadKey(1, 2), chain_b, ForceFirst(u))
                assert ta.bitstrings[0] == tb.bitstrings[0]
                assert ta.bitstrings[1] == tb.bitstrings[1]


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


@st.composite
def sweep_databases(draw):
    """A database over (X, Y_1..Y_N), |X| 1-3 and 2-3 files, sparse or dense:
    either arbitrary, or with files independent given X, where Y_2 copies
    Y_1's conditional law, so orderings that swap them share a demanded
    marginal. Returns (database, twins)."""
    seed = draw(st.integers(0, 10**6))
    x_size, n_files = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    sparse, twins = draw(st.booleans()), draw(st.booleans())
    rng = random.Random(seed)
    if not twins:
        return random_database(rng, x_size, n_files, 1, sparse), False
    low = 0 if sparse else 1

    def weights(size):
        w = [rng.randint(low, 4) for _ in range(size)]
        w[rng.randrange(size)] += 1  # at least one positive weight
        return w

    sizes = [draw(st.integers(1, 3)) for _ in range(n_files - 1)]
    sizes.insert(1, sizes[0])
    p_x = weights(x_size)
    laws = [[weights(size) for _ in range(x_size)] for size in sizes]
    laws[1] = laws[0]
    cells = {}
    for x in range(x_size):
        for ys in itertools.product(*map(range, sizes)):
            w = p_x[x] * math.prod(law[x][y] for law, y in zip(laws, ys))
            if w:
                cells[(x, *ys)] = w
    total = sum(cells.values())
    variables = [Alphabet("X", x_size)] + [Alphabet(f"Y{j}", size) for j, size in enumerate(sizes, 1)]
    return JointDist(variables, {cell: F(w, total) for cell, w in cells.items()}), True


def row_fields(row):
    """Every field of a sweep row, its floats as hex so that 0.0 and -0.0 differ."""
    return {name: value.hex() if isinstance(value, float) else value
            for name, value in asdict(row).items()}


class TestSweepSharesChains:
    """A sweep builds one chain per distinct demanded marginal, yet every row
    is the one the vector's own audit gives."""

    @settings(max_examples=40, deadline=None)
    @given(sweep_databases(), st.sampled_from([FIXED, ENTROPY]))
    def test_matches_the_per_vector_audits(self, case, mode):
        p, twins = case
        n_files = len(p.variables) - 1
        for k in range(1, n_files + 1):
            vectors = list(itertools.permutations(range(1, n_files + 1), k))
            built = []

            def counted(*args, **kwargs):
                built.append(args)
                return build_chain(*args, **kwargs)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pipeline_mod, "build_chain", counted)
                res = worst_case_sweep(p, k, mode)
            oracle = [audit_demands(p, d, mode)[0] for d in vectors]
            assert [row_fields(r) for r in res.rows] == [row_fields(r) for r in oracle]
            worst = oracle.index(max(oracle, key=lambda r: r.expected_len))
            assert res.worst is res.rows[worst]
            assert 1 <= len(built) <= len(vectors)
            if twins:  # swapping Y1 and Y2 keeps the demanded marginal
                assert len(built) < len(vectors)

    @pytest.mark.parametrize("p, k", [(masked_bits("1/3", 3, 2, 1), 2),
                                      (random_database(random.Random(4), 2, 3, 1), 2)],
                             ids=["one chain", "a chain per vector"])
    @pytest.mark.parametrize("stage", ["chain", "enumeration"])
    def test_limit_error_is_the_first_vectors(self, p, k, stage):
        first = tuple(range(1, k + 1))
        cells = len(session_chain(p, first).joint)
        # one cell short of the first vector's chain, or of its enumeration
        limit = cells - 1 if stage == "chain" else cells * p.variables[0].size - 1
        with pytest.raises(LimitError) as own:
            audit_demands(p, first, FIXED, limit)
        with pytest.raises(LimitError) as swept:
            worst_case_sweep(p, k, FIXED, limit)
        assert str(swept.value) == str(own.value)
        assert ("stage" in str(own.value)) == (stage == "chain")

    def test_file_named_like_an_auxiliary(self):
        # Y1 and U1 have one law, but a chain cannot name its stage U1 when a
        # demanded file has that name: the second vector fails on its own
        p = JointDist([Alphabet("X", 2), Alphabet("Y1", 2), Alphabet("U1", 2)],
                      {(x, y1, y2): F(1, 8) for x, y1, y2 in itertools.product(range(2), repeat=3)})
        assert audit_demands(p, (1,))[0].leakage_exact_zero
        with pytest.raises(ValidationError) as own:
            audit_demands(p, (2,))
        with pytest.raises(ValidationError) as swept:
            worst_case_sweep(p, 1)
        assert str(swept.value) == str(own.value) == "variable name 'U1' already taken in the base joint"

    def test_masked_sweep_builds_once_and_enumerates_every_vector(self, monkeypatch):
        # one chain and one set of books serve all six orderings
        calls = Counter()

        def counted(name, fn):
            def run(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return run

        for name in ("build_chain", "session_codebooks", "transcript_distribution"):
            monkeypatch.setattr(pipeline_mod, name, counted(name, getattr(pipeline_mod, name)))
        res = worst_case_sweep(masked_bits("1/2", 3, 2, 1), 2, ENTROPY)
        assert calls == {"build_chain": 1, "session_codebooks": 1, "transcript_distribution": 6}
        assert [r.transcript_support for r in res.rows] == [8] * 6

    def test_one_built_chain_alive_at_a_time(self, monkeypatch):
        # every ordering of these files has its own demanded marginal
        built, alive = [], []

        def tracked(*args, **kwargs):
            chain = build_chain(*args, **kwargs)
            gc.collect()
            alive.append(sum(ref() is not None for ref in built))
            built.append(weakref.ref(chain))
            return chain

        monkeypatch.setattr(pipeline_mod, "build_chain", tracked)
        worst_case_sweep(random_database(random.Random(4), 2, 3, 1), 2)
        assert alive == [0] * 6

