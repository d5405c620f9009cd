import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privseq import caching, coding, pipeline
from privseq.bounds import Example1Params, example1_build
from privseq.caching import (
    CacheConfig,
    UserCache,
    _apply_plan,
    _block_plan,
    adversary_view_distribution,
    block_joint,
    delivery_blocks,
    make_cache_session,
    placement,
    private_wrap,
    subsets_colex,
    delivery_bound,
    user_decode,
)
from privseq.coding import ENTROPY, FIXED, PadKey
from privseq.errors import LimitError, ValidationError
from privseq.pipeline import (
    RandomDraws,
    Transcript,
    decode_walk,
    expected_length,
    leakage_audit,
    transcript_distribution,
)
from privseq.probability import Alphabet, JointDist

from conftest import random_database
from reference import (
    cache_bits,
    cache_roundtrip,
    explicit_expected_length,
    explicit_leakage_audit,
    law,
    outcomes,
    ref_block_plan,
    ref_pack_slots,
    ref_placement,
    ref_user_decode,
    td_law,
    total_length,
)


def masked_db(p, n, f):
    return example1_build(Example1Params(F(p), n, min(n, 2), f))


def listed_session(cfg, databases, demands):
    """A session over a uniform joint whose x-th cell is (x, databases[x])."""
    variables = [Alphabet("X", len(databases))] + [
        Alphabet(f"Y{n}", 2 ** cfg.file_bits) for n in range(1, cfg.n_files + 1)]
    table = {(x, *db): F(1, len(databases)) for x, db in enumerate(databases)}
    return make_cache_session(cfg, JointDist(variables, table), demands)


class TestSubsets:
    def test_colex_order(self):
        assert subsets_colex(4, 2) == ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))

    def test_empty_when_oversized(self):
        assert subsets_colex(2, 3) == ()


class TestConfig:
    def test_shape_n2k2m1f2(self):
        cfg = CacheConfig(2, 2, 1, 2)
        assert (cfg.p, cfg.subfile_count, cfg.block_count, cfg.block_bits) == (1, 2, 1, 1)

    def test_full_caching_no_blocks(self):
        cfg = CacheConfig(2, 2, 2, 2)
        assert cfg.p == 2 and cfg.block_count == 0

    def test_non_integer_p_rejected(self):
        with pytest.raises(ValidationError, match="integer"):
            CacheConfig(3, 2, 1, 2)

    def test_indivisible_file_rejected(self):
        with pytest.raises(ValidationError, match="divisible"):
            CacheConfig(2, 2, 1, 3)

    def test_zero_cache_rejected(self):
        with pytest.raises(ValidationError):
            CacheConfig(2, 1, 0, 2)

    def test_shape_computed_once(self, monkeypatch):
        calls = []
        real = caching.subsets_colex

        def counting(k, r):
            calls.append((k, r))
            return real(k, r)

        monkeypatch.setattr(caching, "subsets_colex", counting)
        cfg = CacheConfig(2, 2, 1, 2)
        shown = (repr(cfg), hash(cfg))
        db_dist = masked_db("1/2", 2, 2)
        session = make_cache_session(cfg, db_dist, (1, 2))
        block_joint(cfg, db_dist, (2, 1))
        cells = [cell for cell, _ in db_dist.items()]
        for i in range(20):
            x, *files = cells[i % len(cells)]
            key = PadKey(i % 2, 2)
            caches = placement(cfg, files)
            stream = delivery_blocks(cfg, files, (1, 2))
            t, _ = private_wrap(session, stream.blocks, x, key, RandomDraws(i))
            assert [user_decode(session, c.user, t, c, key) for c in caches] == files
        assert sorted(calls) == [(2, 1), (2, 2)]  # subfile_subsets, block_subsets
        assert (repr(cfg), hash(cfg)) == shown == (repr(CacheConfig(2, 2, 1, 2)),
                                                   hash(CacheConfig(2, 2, 1, 2)))
        assert cfg == CacheConfig(2, 2, 1, 2) and cfg != CacheConfig(2, 2, 2, 2)

    def test_cached_shape_keeps_equality(self):
        a, b = CacheConfig(4, 4, 1, 4), CacheConfig(4, 4, 1, 4)
        assert (a.p, a.block_count, len(a.block_subsets)) == (1, 6, 6)
        assert a == b and hash(a) == hash(b)
        assert a != CacheConfig(4, 4, 2, 12)

    def test_accounting_identities(self):
        # delivery bits Q*C*F = F(K-p)/(p+1); per-user cache exactly M*F bits
        for k in (1, 2, 3, 4):
            for mult in range(1, k + 1):
                n = k  # any N with M = mult*N/K integer; take N = K
                m = mult * n // k
                cfg = CacheConfig(n, k, m, cfg_f(k, mult))
                assert cfg.block_count * cfg.block_bits * (cfg.p + 1) == \
                    cfg.file_bits * (cfg.k_users - cfg.p)
                db = [0] * n
                for cache in placement(cfg, db):
                    assert cache_bits(cfg, cache) == m * cfg.file_bits


def cfg_f(k, mult):
    # smallest file size divisible by C(k, p) with p = mult
    return math.comb(k, mult)


class TestPlacement:
    def test_n2k2m1f2_layout(self):
        cfg = CacheConfig(2, 2, 1, 2)
        caches = placement(cfg, [0b10, 0b01])
        assert caches[0].contents == {(1, (1,)): 1, (2, (1,)): 0}
        assert caches[1].contents == {(1, (2,)): 0, (2, (2,)): 1}

    def test_full_caching_has_everything(self):
        cfg = CacheConfig(2, 2, 2, 2)
        caches = placement(cfg, [0b11, 0b00])
        for cache in caches:
            assert len(cache.contents) == cfg.n_files  # one subfile per file (C(2,2)=1)

    def test_value_range_checked(self):
        cfg = CacheConfig(2, 2, 1, 2)
        with pytest.raises(ValidationError):
            placement(cfg, [4, 0])

    @pytest.mark.parametrize("value", [1.5, "3"])
    def test_non_integer_file_rejected(self, value):
        with pytest.raises(ValidationError, match=f"file value {value!r} outside the integers 0..15"):
            placement(CacheConfig(4, 4, 1, 4), [value, 2, 3, 4])


class TestDelivery:
    def test_single_block_xor(self):
        cfg = CacheConfig(2, 2, 1, 2)
        # file1 = b1 b2, file2 = c1 c2; block for {1,2} = b2 xor c1
        stream = delivery_blocks(cfg, [0b10, 0b01], (1, 2))
        assert stream.blocks == (0 ^ 0,)
        stream = delivery_blocks(cfg, [0b01, 0b10], (1, 2))
        assert stream.blocks == (1 ^ 1,)
        stream = delivery_blocks(cfg, [0b01, 0b00], (1, 2))
        assert stream.blocks == (1,)

    def test_all_zero_database(self):
        cfg = CacheConfig(2, 2, 1, 2)
        assert delivery_blocks(cfg, [0, 0], (2, 1)).blocks == (0,)

    def test_full_caching_empty_stream(self):
        cfg = CacheConfig(2, 2, 2, 2)
        assert delivery_blocks(cfg, [1, 2], (1, 2)).blocks == ()

    @pytest.mark.parametrize("database", [[13, 0], [-1, 0], [4, 0], [3], [0, 0, 0],
                                          [1.5, 0], ["3", 0]])
    def test_database_checked(self, database):
        cfg = CacheConfig(2, 2, 1, 2)
        with pytest.raises(ValidationError, match="file value|expected 2 files"):
            delivery_blocks(cfg, database, (1, 2))

    def test_repeated_demands_allowed(self):
        cfg = CacheConfig(2, 2, 1, 2)
        stream = delivery_blocks(cfg, [0b01, 0b10], (1, 1))
        assert stream.blocks == (1 ^ 0,)


def ref_block_joint(cfg, db_dist, demands):
    """Plain reference: one delivery per database cell, Fraction masses summed."""
    table = {}
    for cell, prob in db_dist.items():
        key = (cell[0],) + delivery_blocks(cfg, list(cell[1:]), demands).blocks
        table[key] = table.get(key, F(0)) + prob
    b_alphas = [Alphabet(f"B{i + 1}", 2 ** cfg.block_bits) for i in range(cfg.block_count)]
    return JointDist([db_dist.variables[0]] + b_alphas, table)


# (N, K, M, F): p = K with no blocks (M = N), one user, p = 1 and p = 2, two-bit blocks
JOINT_CONFIGS = [(2, 2, 1, 2), (2, 2, 2, 2), (2, 1, 2, 1), (3, 3, 1, 3), (3, 3, 2, 3),
                 (4, 2, 2, 2), (2, 2, 1, 4), (3, 3, 3, 1)]


# JOINT_CONFIGS plus p = 1 with six blocks, and p = 2 with six subfiles and four blocks
LAYOUT_CONFIGS = sorted(set(JOINT_CONFIGS) | {(4, 4, 1, 4), (3, 3, 2, 3), (4, 4, 2, 6)})


class TestLayout:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_per_call_reference(self, data):
        cfg = CacheConfig(*data.draw(st.sampled_from(LAYOUT_CONFIGS)))
        file = st.integers(0, 2 ** cfg.file_bits - 1)
        databases = data.draw(st.lists(st.tuples(*[file] * cfg.n_files),
                                       min_size=1, max_size=3, unique=True))
        demand = st.integers(1, cfg.n_files)
        demands = data.draw(st.tuples(*[demand] * cfg.k_users))
        plan = ref_block_plan(cfg, demands)
        assert _block_plan(cfg, demands) == plan
        session = listed_session(cfg, databases, demands)
        for x, files in enumerate(databases):
            caches = placement(cfg, files)
            want = ref_placement(cfg, files)
            assert [(c.user, list(c.contents.items())) for c in caches] == \
                [(c.user, list(c.contents.items())) for c in want]
            blocks = delivery_blocks(cfg, files, demands).blocks
            assert blocks == _apply_plan(plan, files, (1 << cfg.block_bits) - 1)
            key = PadKey(data.draw(st.integers(0, len(databases) - 1)), len(databases))
            t, _ = private_wrap(session, blocks, x, key, RandomDraws(x))
            assert decode_walk(session.chain, session.books, t, key) == (x, blocks)
            for cache in caches:
                got = user_decode(session, cache.user, t, cache, key)
                assert got == ref_user_decode(session, cache.user, t, cache, key)
                assert got == files[demands[cache.user - 1] - 1]


class TestBlockJoint:
    @pytest.mark.parametrize("shape", JOINT_CONFIGS)
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference(self, shape, seed):
        cfg = CacheConfig(*shape)
        rng = random.Random(f"{shape}:{seed}")
        x_size = rng.randint(1, 3)
        db_dist = random_database(rng, x_size, cfg.n_files, cfg.file_bits, sparse=seed % 2 == 1)
        demands = tuple(rng.randint(1, cfg.n_files) for _ in range(cfg.k_users))
        got = block_joint(cfg, db_dist, demands)
        want = ref_block_joint(cfg, db_dist, demands)
        assert got == want
        assert list(got.table.items()) == list(want.table.items())

    @pytest.mark.parametrize("p", ["1/2", "1/3", "2/7"])
    def test_masked_matches_reference(self, p):
        cfg = CacheConfig(3, 3, 1, 3)
        db_dist = masked_db(p, 3, 3)
        for demands in [(1, 2, 3), (3, 3, 1), (2, 1, 2)]:
            got = block_joint(cfg, db_dist, demands)
            want = ref_block_joint(cfg, db_dist, demands)
            assert got == want
            assert list(got.table.items()) == list(want.table.items())

    def test_oversized_file_alphabet_rejected(self):
        cfg = CacheConfig(2, 2, 1, 2)
        # files 5 and 1 would deliver the same blocks
        db_dist = JointDist([Alphabet("X", 2), Alphabet("Y1", 8), Alphabet("Y2", 4)],
                            {(0, 5, 0): F(1, 2), (1, 1, 0): F(1, 2)})
        with pytest.raises(ValidationError, match="'Y1' has 8 symbols"):
            block_joint(cfg, db_dist, (1, 2))
        with pytest.raises(ValidationError, match="'Y1' has 8 symbols"):
            make_cache_session(cfg, db_dist, (1, 2))

    def test_limit_names_count_and_limit(self):
        cfg = CacheConfig(3, 3, 1, 3)
        db_dist = masked_db("1/2", 3, 3)
        cells = len(db_dist) * cfg.block_count
        assert block_joint(cfg, db_dist, (1, 2, 3), limit=cells).variables[0].name == "X"
        with pytest.raises(LimitError, match=f"need {cells} cells, over the limit {cells - 1}"):
            block_joint(cfg, db_dist, (1, 2, 3), limit=cells - 1)


class TestWrapAndDecode:
    def test_n2k2m1f2_masked_database(self):
        db_dist = masked_db("1/2", 2, 2)
        session = make_cache_session(CacheConfig(2, 2, 1, 2), db_dist, (1, 2))
        assert cache_roundtrip(session, db_dist) == (True, 1)

    def test_repeated_demand_roundtrip(self):
        db_dist = masked_db("1/4", 2, 2)
        session = make_cache_session(CacheConfig(2, 2, 1, 2), db_dist, (2, 2))
        assert cache_roundtrip(session, db_dist) == (True, 1)

    def test_single_user_fully_cached(self):
        # K=1 admits only M=N: everything is cached and no block is delivered
        cfg = CacheConfig(2, 1, 2, 1)
        assert cfg.p == 1 and cfg.block_count == 0
        db_dist = masked_db("1/2", 2, 1)
        session = make_cache_session(cfg, db_dist, (2,))
        t, _ = private_wrap(session, (), 1, PadKey(0, 2), RandomDraws(0))
        caches = placement(cfg, [1, 0])
        assert user_decode(session, 1, t, caches[0], PadKey(0, 2)) == 0
        with pytest.raises(ValidationError):
            CacheConfig(2, 1, 1, 1)  # partial cache impossible for one user

    def test_unknown_mode_rejected_without_stages(self):
        # with M = N no block is delivered, so the chain has no stage to build a book for
        with pytest.raises(ValidationError, match="unknown coding mode 'bogus'"):
            make_cache_session(CacheConfig(2, 2, 2, 1), masked_db("1/2", 2, 1), (1, 2), "bogus")

    def test_full_caching_pad_only(self):
        cfg = CacheConfig(2, 2, 2, 2)
        db_dist = masked_db("1/2", 2, 2)
        session = make_cache_session(cfg, db_dist, (1, 2))
        transcript, log = private_wrap(session, (), 1, PadKey(1, 2), RandomDraws(0))
        assert len(transcript.bitstrings) == 1
        assert log.entries == ()
        caches = placement(cfg, [2, 3])
        for cache in caches:
            got = user_decode(session, cache.user, transcript, cache, PadKey(1, 2))
            assert got == [2, 3][session.demands[cache.user - 1] - 1]

    def test_deterministic_blocks_zero_bit_slots(self):
        # database a function of X: every block is too, so slots carry 0 bits
        table = {(0, 0, 0): F(1, 2), (1, 3, 3): F(1, 2)}
        db_dist = JointDist(
            [Alphabet("X", 2), Alphabet("Y1", 4), Alphabet("Y2", 4)], table)
        cfg = CacheConfig(2, 2, 1, 2)
        session = make_cache_session(cfg, db_dist, (1, 2))
        stream = delivery_blocks(cfg, [3, 3], (1, 2))
        transcript, _ = private_wrap(session, stream.blocks, 1, PadKey(0, 2),
                                     RandomDraws(0))
        assert [len(b) for b in transcript.bitstrings] == [1, 0]

    def test_buffer_discipline_one_block_at_a_time(self):
        cfg = CacheConfig(2, 2, 1, 2)
        db_dist = masked_db("1/2", 2, 2)
        session = make_cache_session(cfg, db_dist, (1, 2))
        stream = delivery_blocks(cfg, [1, 2], (1, 2))

        consumed = []

        def guarded():
            for i, b in enumerate(stream.blocks):
                consumed.append(i)
                yield b

        transcript, _ = private_wrap(session, guarded(), 0, PadKey(0, 2), RandomDraws(4))
        assert consumed == list(range(cfg.block_count))
        # a stream that ends early is an error, not a silent truncation
        with pytest.raises(ValidationError, match="ended early"):
            private_wrap(session, iter(()), 0, PadKey(0, 2), RandomDraws(4))

    def test_stream_one_block_too_long(self):
        # a block past the last stage is read and rejected, not silently dropped
        cfg = CacheConfig(2, 2, 1, 2)
        session = make_cache_session(cfg, masked_db("1/2", 2, 2), (1, 2))
        blocks = delivery_blocks(cfg, [1, 2], (1, 2)).blocks
        transcript, _ = private_wrap(session, blocks, 0, PadKey(0, 2), RandomDraws(4))
        assert len(transcript.bitstrings) == cfg.block_count + 1
        with pytest.raises(ValidationError, match=f"a symbol past stage {cfg.block_count}, the last"):
            private_wrap(session, blocks + (0,), 0, PadKey(0, 2), RandomDraws(4))
        # the extra block is read, so its range check runs too
        with pytest.raises(ValidationError, match="block value 3 outside"):
            private_wrap(session, blocks + (3, 0), 0, PadKey(0, 2), RandomDraws(4))


def view_length(transcript, entries):
    """The bit length of the view (transcript, public cache entries)."""
    return total_length(transcript) + sum(map(len, entries))


def assert_view_length_is_the_explicit_walk(view, joint, lengths):
    """E[len | w] of the view from its per-key sums, against one walk of the
    (C, X, W) joint `joint` in which view c is lengths[c] bits; returns it."""
    per_w = expected_length(view).per_w
    ref = explicit_expected_length(joint, lengths).per_w
    assert [v.hex() for v in per_w] == [v.hex() for v in ref]
    return per_w


class TestAudits:
    @pytest.mark.parametrize("shape, p, demands, mode", [
        ((2, 2, 1, 2), "1/2", (1, 2), FIXED),
        ((3, 3, 1, 3), "1/3", (3, 1, 2), ENTROPY),
        ((2, 2, 1, 4), "2/7", (2, 2), ENTROPY),
    ])
    def test_wrapped_law_is_the_audited_joint(self, shape, p, demands, mode):
        cfg = CacheConfig(*shape)
        db_dist = masked_db(p, cfg.n_files, cfg.file_bits)
        session = make_cache_session(cfg, db_dist, demands, mode)
        wrapped = []
        for (x, *blocks), prob in block_joint(cfg, db_dist, demands).items():
            wrapped += outcomes(session.chain, x, blocks, prob,
                                lambda key, draws: private_wrap(session, blocks, x, key, draws)[0])
        assert law(wrapped) == td_law(transcript_distribution(session.chain, session.books))

    @pytest.mark.parametrize("shape, demands", [((2, 2, 1, 2), (1, 2)), ((3, 3, 1, 3), (3, 1, 2))])
    def test_view_law_is_the_wrapped_law(self, shape, demands):
        # every coupling through the real wrap: the law of ((transcript, public cache), x, w)
        cfg = CacheConfig(*shape)
        db_dist = masked_db("1/3", cfg.n_files, cfg.file_bits)
        session = make_cache_session(cfg, db_dist, demands, ENTROPY)

        def wrap(blocks, x):
            def encode(key, draws):
                transcript, public = private_wrap(session, blocks, x, key, draws)
                return transcript, public.entries
            return encode

        wrapped = []
        for (x, *blocks), prob in block_joint(cfg, db_dist, demands).items():
            wrapped += outcomes(session.chain, x, blocks, prob, wrap(blocks, x))
        views = law(wrapped)
        view = adversary_view_distribution(session, 2)
        index = {t: c for c, t in enumerate(view.transcripts)}
        # one view per transcript, so the transcripts index the views
        assert len({v for v, _, _ in views}) == len(index)
        x_size = session.chain.private_size
        joint = JointDist([Alphabet("C", len(index)), Alphabet("X", x_size), Alphabet("W", x_size)],
                          {(index[t], x, w): q for ((t, _), x, w), q in views.items()})
        lengths = [0] * len(index)
        for (t, entries), _, _ in views:
            lengths[index[t]] = view_length(t, entries)
        assert joint == view.joint
        assert_view_length_is_the_explicit_walk(view, joint, lengths)
        leak, ref = leakage_audit(view), explicit_leakage_audit(joint)
        assert leak.exact_zero == ref.exact_zero
        assert ref.exact_zero and leak.bits == 0.0

    def test_benchmark_cache_view_length(self):
        # the deliver benchmark's cache session at seed 0: prior 8/13, demands (3, 1, 2, 4);
        # its view's E[len | w] is the cache_view_len_per_w fingerprint
        cfg = CacheConfig(4, 4, 1, 4)
        session = make_cache_session(cfg, example1_build(Example1Params(F(8, 13), 4, 4, 4)),
                                     (3, 1, 2, 4), ENTROPY)
        view = adversary_view_distribution(session, 2)
        # the public cache logs the auxiliary slots, as private_wrap returns it
        lengths = [view_length(t, t.bitstrings[1:]) for t in view.transcripts]
        assert assert_view_length_is_the_explicit_walk(view, view.joint, lengths) == (13.0, 13.0)

    def test_adversary_view_independent(self):
        cfg = CacheConfig(2, 2, 1, 2)
        session = make_cache_session(cfg, masked_db("1/2", 2, 2), (1, 2))
        view = adversary_view_distribution(session, 2)
        leak = leakage_audit(view)
        assert leak.exact_zero and leak.bits == 0.0

    def test_measured_within_bound(self):
        cfg = CacheConfig(2, 2, 1, 2)
        db_dist = masked_db("1/2", 2, 2)
        session = make_cache_session(cfg, db_dist, (1, 2))
        td = transcript_distribution(session.chain, session.books)
        bound = delivery_bound(cfg, 2)
        assert expected_length(td).max_over_w <= bound + 1e-9
        assert bound == 3

    def test_key_size_must_match(self):
        session = make_cache_session(CacheConfig(2, 2, 1, 2), masked_db("1/2", 2, 2), (1, 2))
        with pytest.raises(ValidationError, match="key size"):
            adversary_view_distribution(session, 3)

    def test_delivery_builds_no_codebook(self, monkeypatch):
        # the session's books are enumerated as they are, not rebuilt from a mode
        session = make_cache_session(CacheConfig(2, 2, 1, 2), masked_db("1/3", 2, 2), (1, 2),
                                     ENTROPY)
        calls = []

        def spy(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        spy(pipeline, "session_codebooks")
        spy(pipeline, "entropy_codebook")
        spy(coding, "entropy_codebook")
        td = transcript_distribution(session.chain, session.books)
        view = adversary_view_distribution(session, 2)
        assert calls == []
        assert td.books is session.books
        assert leakage_audit(view).exact_zero
        # the spies do see a rebuild
        pipeline.session_codebooks(session.chain, ENTROPY)
        assert calls == ["session_codebooks", "entropy_codebook"]

    def test_bound_q0(self):
        cfg = CacheConfig(2, 2, 2, 2)
        assert delivery_bound(cfg, 4) == 2
        assert delivery_bound(cfg, 2) == 1


class TestUserDecodeValidation:
    @pytest.fixture
    def wrapped_4414(self):
        cfg = CacheConfig(4, 4, 1, 4)
        files = (9, 4, 15, 2)
        session = listed_session(cfg, [files, (0, 0, 0, 0)], (2, 4, 1, 3))
        stream = delivery_blocks(cfg, files, session.demands)
        t, _ = private_wrap(session, stream.blocks, 0, PadKey(1, 2), RandomDraws(0))
        assert user_decode(session, 1, t, placement(cfg, files)[0], PadKey(1, 2)) == 4
        return session, t

    def test_missing_chunk_named(self, wrapped_4414):
        session, t = wrapped_4414
        with pytest.raises(ValidationError, match=r"user 1 lacks file 2's chunk for subset \(1,\)"):
            user_decode(session, 1, t, UserCache(1, {}), PadKey(1, 2))
        other_layout = placement(CacheConfig(4, 4, 2, 6), [9, 4, 15, 2])[0]
        with pytest.raises(ValidationError, match=r"lacks file 2's chunk for subset \(1,\)"):
            user_decode(session, 1, t, other_layout, PadKey(1, 2))

    @pytest.mark.parametrize("chunk", [99, -1, 2])
    def test_chunk_out_of_range(self, wrapped_4414, chunk):
        session, t = wrapped_4414
        contents = placement(session.cfg, [9, 4, 15, 2])[0].contents
        bad = UserCache(1, {sub: chunk for sub in contents})
        with pytest.raises(ValidationError, match=r"user 1 holds a chunk outside \[0, 2\^1\)"):
            user_decode(session, 1, t, bad, PadKey(1, 2))

    @pytest.mark.parametrize("chunk", [1.0, "1", True])
    def test_chunk_not_an_integer(self, wrapped_4414, chunk):
        session, t = wrapped_4414
        contents = placement(session.cfg, [9, 4, 15, 2])[0].contents
        bad = UserCache(1, {sub: chunk for sub in contents})
        with pytest.raises(ValidationError, match="user 1 holds a chunk that is not an integer"):
            user_decode(session, 1, t, bad, PadKey(1, 2))

    def test_wrong_user_cache(self):
        cfg = CacheConfig(2, 2, 1, 2)
        session = make_cache_session(cfg, masked_db("1/2", 2, 2), (1, 2))
        caches = placement(cfg, [0, 0])
        stream = delivery_blocks(cfg, [0, 0], (1, 2))
        t, _ = private_wrap(session, stream.blocks, 0, PadKey(0, 2), RandomDraws(0))
        with pytest.raises(ValidationError, match="belongs"):
            user_decode(session, 1, t, caches[1], PadKey(0, 2))

    @pytest.mark.parametrize("modulus", [1, 3])
    def test_key_modulus_must_match(self, modulus):
        cfg = CacheConfig(2, 2, 1, 2)
        session = make_cache_session(cfg, masked_db("1/2", 2, 2), (1, 2))
        caches = placement(cfg, [1, 2])
        stream = delivery_blocks(cfg, [1, 2], (1, 2))
        t, _ = private_wrap(session, stream.blocks, 1, PadKey(0, 2), RandomDraws(0))
        with pytest.raises(ValidationError, match=rf"modulus {modulus} != \|X\| = 2"):
            user_decode(session, 1, t, caches[0], PadKey(0, modulus))

    def test_relabelled_transcript_rejected(self):
        cfg = CacheConfig(2, 2, 1, 2)
        session = make_cache_session(cfg, masked_db("1/2", 2, 2), (1, 2))
        caches = placement(cfg, [1, 2])
        stream = delivery_blocks(cfg, [1, 2], (1, 2))
        t, _ = private_wrap(session, stream.blocks, 1, PadKey(0, 2), RandomDraws(0))
        got = Transcript.unpack(t.pack())
        assert user_decode(session, 1, got, caches[0], PadKey(0, 2)) == 1
        # the labels live in the packed header only, so the reader rejects a forged one
        with pytest.raises(ValidationError, match="slot 0 is labelled 'zz', expected 'pad'"):
            Transcript.unpack(ref_pack_slots([("zz", bits) for bits in got.bitstrings]))
        *head, last = [(coding.slot_label(i), bits) for i, bits in enumerate(got.bitstrings)]
        with pytest.raises(ValidationError, match=f"expected '{last[0]}'"):
            Transcript.unpack(ref_pack_slots(head + [("pad", last[1])]))
