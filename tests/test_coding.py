import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privseq.coding import (
    Codebook,
    PadKey,
    entropy_codebook,
    fixed_length_codebook,
    otp_decrypt,
    otp_encrypt,
    pack_slots,
    unpack_slots,
    verify_prefix_free,
)
from privseq.errors import ValidationError
from privseq.frl import frl_construct
from privseq.probability import Alphabet, JointDist

from conftest import random_pair
from reference import decode_all, expected_code_length, kraft_sum, product_extend


class TestPad:
    def test_identity_key(self):
        assert otp_encrypt(0, PadKey(0, 4)) == 0

    def test_wraparound(self):
        assert otp_encrypt(2, PadKey(3, 4)) == 1
        assert otp_decrypt(1, PadKey(3, 4)) == 2

    def test_roundtrip_all(self):
        for mod in (1, 2, 3, 4, 5):
            for x in range(mod):
                for w in range(mod):
                    key = PadKey(w, mod)
                    assert otp_decrypt(otp_encrypt(x, key), key) == x

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            otp_encrypt(4, PadKey(0, 4))
        with pytest.raises(ValidationError):
            PadKey(4, 4)

    @pytest.mark.parametrize("mod", [2, 3, 4, 5])
    def test_uniform_and_independent(self, mod):
        # joint over (X, W, padded) with any X prior and a uniform key
        rng = random.Random(mod)
        weights = [rng.randint(1, 5) for _ in range(mod)]
        total = sum(weights)
        px = JointDist([Alphabet("X", mod)], {(x,): F(w, total) for x, w in enumerate(weights)})
        ext = product_extend(px, Alphabet("W", mod), [F(1, mod)] * mod)
        table = {}
        for (x, w), p in ext.items():
            table[(x, w, otp_encrypt(x, PadKey(w, mod)))] = p
        full = JointDist(list(ext.variables) + [Alphabet("P", mod)], table)
        padded = full.marginalize(["P"])
        assert padded.table == {(s,): F(1, mod) for s in range(mod)}
        assert full.is_independent(["P"], ["X"])


class TestFixedLength:
    def test_four_symbols_two_bits(self):
        cb = fixed_length_codebook(4)
        assert sorted(cb.words.values()) == ["00", "01", "10", "11"]

    def test_five_symbols_three_bits(self):
        cb = fixed_length_codebook(5)
        assert all(len(w) == 3 for w in cb.words.values())

    def test_singleton_empty_word(self):
        cb = fixed_length_codebook(1)
        assert cb.words == {0: ""}

    def test_prefix_free(self):
        for n in range(1, 9):
            assert verify_prefix_free(fixed_length_codebook(n))


class TestEntropyCodebook:
    def test_uniform_two(self):
        cb = entropy_codebook([1, 1])
        assert sorted(cb.words.values()) == ["0", "1"]

    def test_dyadic_matches_entropy(self):
        cb = entropy_codebook([2, 1, 1])
        assert expected_code_length(cb, {0: F(1, 2), 1: F(1, 4), 2: F(1, 4)}) == F(3, 2)

    def test_point_mass_zero_bits(self):
        cb = entropy_codebook([0, 1])
        assert cb.words == {1: ""}

    def test_deterministic(self):
        weights = [1, 1, 2]
        assert entropy_codebook(weights).words == entropy_codebook(weights).words

    def test_expected_length_within_one_of_entropy(self):
        rng = random.Random(11)
        for _ in range(30):
            weights = [rng.randint(0, 9) for _ in range(rng.randint(1, 8))]
            if not sum(weights):
                weights[0] = 1
            total = sum(weights)
            dist = {s: F(w, total) for s, w in enumerate(weights)}
            cb = entropy_codebook(weights)
            pos = JointDist([Alphabet("S", len(weights))],
                            {(s,): p for s, p in dist.items() if p > 0})
            h = pos.entropy()
            el = float(expected_code_length(cb, dist))
            assert h - 1e-9 <= el <= h + 1


    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=10).filter(any), st.integers(2, 50))
    def test_integer_weights_give_the_probability_book(self, weights, m):
        # proportional weights are one design distribution, so one book
        assert entropy_codebook(weights).words == entropy_codebook([w * m for w in weights]).words

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 4), st.booleans(),
           st.integers(2, 50))
    def test_mechanism_widths_give_the_p_u_book(self, seed, x_size, y_size, sparse, m):
        widths = frl_construct(random_pair(random.Random(seed), x_size, y_size, sparse)).widths
        assert entropy_codebook(widths).words == entropy_codebook([w * m for w in widths]).words


class TestPrefixFree:
    def test_good(self):
        assert verify_prefix_free(Codebook({0: "0", 1: "10", 2: "11"}))

    def test_bad_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="prefix-free"):
            Codebook({0: "0", 1: "01"})

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_constructors_always_prefix_free(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        assert verify_prefix_free(fixed_length_codebook(n))
        weights = [rng.randint(0, 5) for _ in range(n)]
        if not sum(weights):
            weights[0] = 1
        cb = entropy_codebook(weights)
        assert verify_prefix_free(cb)
        assert kraft_sum(cb) <= 1


class TestDecoding:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_concatenation_roundtrip(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        weights = [rng.randint(1, 5) for _ in range(n)]
        cb = entropy_codebook(weights)
        seq = [rng.randrange(n) for _ in range(rng.randint(0, 12))]
        bits = "".join(cb.encode(s) for s in seq)
        assert decode_all(cb, bits) == seq

    def test_undecodable(self):
        cb = Codebook({0: "00", 1: "01"})
        with pytest.raises(ValidationError, match="undecodable"):
            cb.decode_one("1")

    def test_zero_bit_decode(self):
        cb = fixed_length_codebook(1)
        assert cb.decode_one("") == (0, 0)


class TestPacking:
    def test_roundtrip(self):
        slots = [("pad", "101"), ("u1", ""), ("u2", "0011010")]
        assert unpack_slots(pack_slots(slots)) == slots

    def test_padding_to_byte(self):
        data = pack_slots([("a", "1")])
        # header: magic + count + (label len, label, bitlen); payload one byte
        assert data[-1] == 0b10000000

    def test_bad_magic(self):
        with pytest.raises(ValidationError, match="magic"):
            unpack_slots(b"nope" + bytes(10))

    def test_truncated_payload(self):
        data = pack_slots([("a", "10101010101")])
        with pytest.raises(ValidationError, match="length"):
            unpack_slots(data[:-1])

    @pytest.mark.parametrize("data", [
        b"PSQ1",
        b"PSQ1\x00",
        b"PSQ1\x00\x01\x02u",
        b"PSQ1\x00\x01\x01u\x00\x00",
        b"PSQ1\x00\x01\x01\xff\x00\x00\x00\x00",
    ], ids=["no-count", "half-count", "short-label", "short-bit-length", "non-ascii-label"])
    def test_corrupt_header(self, data):
        with pytest.raises(ValidationError):
            unpack_slots(data)

    @pytest.mark.parametrize("slots", [
        [("\u00e9", "1")],
        [("a" * 256, "1")],
        [("u1", "012")],
        [("u", "")] * 65536,
    ], ids=["non-ascii-label", "long-label", "non-binary-bits", "65536-slots"])
    def test_unpackable_slots(self, slots):
        with pytest.raises(ValidationError):
            pack_slots(slots)

    @given(st.one_of(st.binary(max_size=64), st.binary(max_size=64).map(lambda b: b"PSQ1" + b)))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_parse_or_fail_cleanly(self, data):
        try:
            slots = unpack_slots(data)
        except ValidationError:
            return
        assert all(isinstance(label, str) and not bits.strip("01") for label, bits in slots)
