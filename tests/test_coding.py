import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privseq.coding import (
    Codebook,
    PadKey,
    entropy_codebook,
    fixed_decode,
    fixed_encode,
    fixed_length_codebook,
    otp_decrypt,
    otp_encrypt,
    pack_slots,
    slot_label,
    unpack_slots,
    verify_prefix_free,
)
from privseq.errors import ValidationError
from privseq.frl import frl_construct
from privseq.probability import Alphabet, JointDist

from conftest import random_pair
from reference import (
    decode_all,
    entropy,
    expected_code_length,
    is_independent,
    kraft_sum,
    product_extend,
    ref_pack_slots,
    ref_unpack_slots,
)


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
        assert is_independent(full, ["P"], ["X"])


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

    def test_field_is_the_book_word(self):
        # the pad slot's word, written and read from the size alone
        for size in range(1, 71):
            book, width = fixed_length_codebook(size), (size - 1).bit_length()
            for s in range(size):
                word = fixed_encode(s, size)
                assert word == book.encode(s)
                assert len(word) == width and int(word or "0", 2) == s
                assert fixed_decode(word, size) == s

    @pytest.mark.parametrize("bits, size", [
        ("1", 4), ("001", 4), ("", 2), ("0", 1),  # wrong width
        ("0a", 4), ("2", 2), ("１", 2),  # not binary
        ("1_0", 8), ("+1", 4), (" 1", 4),  # read by int(), not binary
        ("11", 3), ("111", 5),  # binary, past the last symbol
    ])
    def test_field_decode_rejects(self, bits, size):
        with pytest.raises(ValidationError, match="undecodable bitstring"):
            fixed_decode(bits, size)


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
            h = entropy(pos)
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
        for bits in ["1", "0", "", "000", "0100"]:
            with pytest.raises(ValidationError, match="undecodable"):
                cb.decode(bits)

    def test_zero_bit_decode(self):
        cb = fixed_length_codebook(1)
        assert cb.decode("") == 0

    def test_one_word_book_reads_its_bits(self):
        # a one-symbol book decodes only its own word, not any string
        cb = Codebook({0: "0"})
        assert cb.decode("0") == 0
        for bits in ["1", "", "00"]:
            with pytest.raises(ValidationError, match="undecodable"):
                cb.decode(bits)

    @given(st.integers(0, 10 ** 6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_decode_accepts_exactly_the_codewords(self, seed, entropy):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        if entropy:
            weights = [rng.randint(0, 5) for _ in range(n)]
            weights[rng.randrange(n)] += 1
            cb = entropy_codebook(weights)
        else:
            cb = fixed_length_codebook(n)
        longest = max(len(w) for w in cb.words.values())
        for length in range(longest + 2):
            for bits in itertools.product("01", repeat=length):
                bits = "".join(bits)
                if bits in cb.words.values():
                    assert cb.encode(cb.decode(bits)) == bits
                else:
                    with pytest.raises(ValidationError, match="undecodable"):
                        cb.decode(bits)


class TestPacking:
    def test_roundtrip(self):
        bitstrings = ("101", "", "0011010")
        assert unpack_slots(pack_slots(bitstrings)) == bitstrings

    def test_padding_to_byte(self):
        data = pack_slots(["1"])
        # header: magic + count + (label len, label, bitlen); payload one byte
        assert data[-1] == 0b10000000

    @pytest.mark.parametrize("last", [0x81, 0xC0, 0xFF])
    def test_nonzero_padding_rejected(self, last):
        data = b"PSQ1\x00\x01\x03pad\x00\x00\x00\x01\x80"
        assert pack_slots(["1"]) == data
        assert unpack_slots(data) == ("1",)
        with pytest.raises(ValidationError, match="padding"):
            unpack_slots(data[:-1] + bytes([last]))

    @example(())
    @example(("",))
    @example(("", "", "1"))
    @given(st.lists(st.text("01", max_size=20), max_size=5).map(tuple))
    @settings(max_examples=300, deadline=None)
    def test_matches_byte_at_a_time_codec(self, bitstrings):
        # the packer writes slot i's label, and the reader gives back the bitstrings
        labelled = [(slot_label(i), b) for i, b in enumerate(bitstrings)]
        data = pack_slots(bitstrings)
        assert data == ref_pack_slots(labelled)
        assert ref_unpack_slots(data) == labelled
        assert unpack_slots(data) == bitstrings

    def test_non_ascii_label_rejected(self):
        # "p\xe1d" in place of "pad"; a non-ASCII byte shows as its escape
        data = b"PSQ1\x00\x01\x03p\xe1d\x00\x00\x00\x01\x80"
        with pytest.raises(ValidationError, match=r"^slot 0 is labelled '.*xe1d', expected 'pad'$"):
            unpack_slots(data)

    def test_bad_magic(self):
        with pytest.raises(ValidationError, match="magic"):
            unpack_slots(b"nope" + bytes(10))

    def test_truncated_payload(self):
        data = pack_slots(["10101010101"])
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

    @pytest.mark.parametrize("bitstrings", [
        ["1", "012"],
        [""] * 65536,
    ], ids=["non-binary-bits", "65536-slots"])
    def test_unpackable_slots(self, bitstrings):
        with pytest.raises(ValidationError):
            pack_slots(bitstrings)

    @given(st.one_of(st.binary(max_size=64), st.binary(max_size=64).map(lambda b: b"PSQ1" + b)))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_parse_or_fail_cleanly(self, data):
        try:
            bitstrings = unpack_slots(data)
        except ValidationError:
            return
        assert all(not bits.strip("01") for bits in bitstrings)
