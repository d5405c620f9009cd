"""Bad input ends in ValidationError: the one integer check at every index,
symbol, size and count boundary, the error branches of the spec parser,
the CLI and the library that no other test reaches, and a fuzz of the spec
format."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privseq.bounds import Example1Params, example1_build
from privseq.caching import (
    CacheConfig,
    block_joint,
    delivery_blocks,
    make_cache_session,
    placement,
    private_wrap,
    user_decode,
)
from privseq.cli import main
from privseq.coding import Codebook, PadKey, fixed_length_codebook, fixed_width, otp_decrypt, otp_encrypt
from privseq.errors import ValidationError
from privseq.frl import build_chain, cardinality_bound, frl_construct
from privseq.pipeline import (
    RandomDraws,
    Transcript,
    audit_demands,
    decode_walk,
    demand_vector,
    encode_session,
    session_chain,
    session_codebooks,
    worst_case_sweep,
)
from privseq.probability import Alphabet, JointDist, parse_dist

# X and two one-bit files: X = 0 masks both files to 0, X = 1 leaves them fair
MASKED = example1_build(Example1Params(F(1, 2), 2, 2, 1))
CFG = CacheConfig(2, 2, 1, 2)  # one delivery block of one bit


@pytest.fixture(scope="module")
def cache():
    """A wrapped delivery on CFG: its session, transcript, user 1's cache and key."""
    session = make_cache_session(CFG, example1_build(Example1Params(F(1, 2), 2, 2, 2)), (1, 2))
    key = PadKey(0, 2)
    blocks = delivery_blocks(CFG, [1, 2], (1, 2)).blocks
    transcript, _ = private_wrap(session, blocks, 1, key, RandomDraws(0))
    return session, transcript, placement(CFG, [1, 2])[0], key


# each boundary as (name, call with the value under test, an int outside its range)
BOUNDARIES = [
    ("audit_demands", lambda v, c: audit_demands(MASKED, (v, 2)), 3),
    ("demand_vector", lambda v, c: demand_vector(MASKED, (2, v)), 0),
    ("worst_case_sweep k", lambda v, c: worst_case_sweep(MASKED, v), 3),
    ("encode_session realization", lambda v, c: encode_session(
        MASKED, (1, v, 0), (1, 2), PadKey(0, 2), session_chain(MASKED, (1, 2)), RandomDraws(0)), 2),
    ("delivery_blocks demand", lambda v, c: delivery_blocks(CFG, [1, 2], (v, 2)), 3),
    ("block_joint demand", lambda v, c: block_joint(CFG, MASKED, (2, v)), 0),
    ("placement file value", lambda v, c: placement(CFG, [v, 2]), 4),
    ("private_wrap block", lambda v, c: private_wrap(c[0], (v,), 0, c[3], RandomDraws(0)), 2),
    ("user_decode user", lambda v, c: user_decode(c[0], v, c[1], c[2], c[3]), 3),
    ("PadKey value", lambda v, c: PadKey(v, 2), 2),
    ("otp_encrypt symbol", lambda v, c: otp_encrypt(v, PadKey(0, 2)), 2),
    ("otp_decrypt symbol", lambda v, c: otp_decrypt(v, PadKey(0, 2)), -1),
    ("JointDist symbol", lambda v, c: JointDist([Alphabet("X", 2)], {(v,): 1}), 2),
    # sizes and counts, bounded below only
    ("CacheConfig n_files", lambda v, c: CacheConfig(v, 2, 1, 2), 0),
    ("CacheConfig k_users", lambda v, c: CacheConfig(2, v, 1, 2), 0),
    ("CacheConfig cache_files", lambda v, c: CacheConfig(2, 2, v, 2), 3),
    ("CacheConfig file_bits", lambda v, c: CacheConfig(2, 2, 1, v), 0),
    ("Example1Params n_files", lambda v, c: Example1Params(F(1, 2), v, 1, 1), 0),
    ("Example1Params k_demands", lambda v, c: Example1Params(F(1, 2), 2, v, 1), 3),
    ("Example1Params file_bits", lambda v, c: Example1Params(F(1, 2), 2, 1, v), 0),
    ("Alphabet size", lambda v, c: Alphabet("X", v), 0),
    ("fixed_length_codebook size", lambda v, c: fixed_length_codebook(v), 0),
    ("PadKey modulus", lambda v, c: PadKey(0, v), 0),
    ("ceil_log2", lambda v, c: fixed_width(v), 0),
    ("cardinality_bound", lambda v, c: cardinality_bound(2, v), 0),
]


@pytest.mark.parametrize("call, outside", [b[1:] for b in BOUNDARIES],
                         ids=[b[0] for b in BOUNDARIES])
@pytest.mark.parametrize("kind", ["fraction", "bool", "whole float", "outside"])
def test_boundary_takes_only_integers_in_range(call, outside, kind, cache):
    value = {"fraction": 1.9, "bool": True, "whole float": 1.0, "outside": outside}[kind]
    with pytest.raises(ValidationError, match=f"{value!r} outside the integers"):
        call(value, cache)


def test_message_names_the_value_and_the_range():
    with pytest.raises(ValidationError, match=r"^demand 1\.9 outside the integers 1\.\.2$"):
        audit_demands(MASKED, (1.9, 2))
    with pytest.raises(ValidationError, match=r"^alphabet 'X' size 2\.5 outside the integers >= 1$"):
        Alphabet("X", 2.5)


class TestLibraryErrors:
    def test_joint_dist_shape(self):
        with pytest.raises(ValidationError, match="duplicate variable names"):
            JointDist([Alphabet("X", 2), Alphabet("X", 2)], {(0, 0): 1})
        with pytest.raises(ValidationError, match="needs at least one variable"):
            JointDist([], {(): 1})
        with pytest.raises(ValidationError, match=r"cell \(0,\) does not index every variable"):
            JointDist([Alphabet("X", 2), Alphabet("Y", 2)], {(0,): 1})

    @pytest.mark.parametrize("value", ["1", True, 1.0, None, "abc", float("nan")],
                             ids=["str", "bool", "float", "none", "text", "nan"])
    def test_joint_dist_probability_type(self, value):
        # a cell is an exact rational: an int (not a bool) or a Fraction, nothing Fraction() parses
        with pytest.raises(ValidationError,
                           match=rf"^probability {re.escape(repr(value))} at \(0,\) is not an int or a Fraction$"):
            JointDist([Alphabet("X", 1)], {(0,): value})

    def test_repeated_variable(self):
        with pytest.raises(ValidationError, match="repeated variable"):
            MASKED.marginalize(["Y1", "Y1"])

    def test_codebook_words(self):
        with pytest.raises(ValidationError, match="word for symbol 1 is not binary"):
            Codebook({0: "0", 1: "12"})
        with pytest.raises(ValidationError, match="codewords must be distinct"):
            Codebook({0: "01", 1: "01"})

    def test_decode_walk_slot_count(self):
        chain = session_chain(MASKED, (1,))
        with pytest.raises(ValidationError, match="transcript has 1 slots, expected 2"):
            decode_walk(chain, session_codebooks(chain, "fixed"), Transcript((("pad", "0"),)),
                        PadKey(0, 2))

    def test_chain_must_match_the_demands(self):
        chain = session_chain(MASKED, (1,))
        with pytest.raises(ValidationError, match=r"chain targets \('Y1',\) do not match"):
            encode_session(MASKED, (1, 0, 1), (2,), PadKey(0, 2), chain, RandomDraws(0))
        # the same target under another private variable
        other = build_chain(MASKED.marginalize(["Y2", "Y1"]), ["Y1"])
        with pytest.raises(ValidationError, match="chain private variable does not match"):
            encode_session(MASKED, (1, 0, 1), (1,), PadKey(0, 2), other, RandomDraws(0))
        # the same target under a same-named X of three symbols, not two
        wide = build_chain(JointDist([Alphabet("X", 3), Alphabet("Y1", 2)],
                                     {(x, y): F(1, 6) for x in range(3) for y in range(2)}), ["Y1"])
        with pytest.raises(ValidationError, match="chain private variable does not match"):
            encode_session(MASKED, (1, 0, 1), (1,), PadKey(1, 3), wide, RandomDraws(0))

    def test_empty_demand_vector(self):
        with pytest.raises(ValidationError, match="empty demand vector"):
            demand_vector(MASKED, [])

    def test_block_joint_variable_count(self):
        with pytest.raises(ValidationError, match="must cover X plus every file"):
            block_joint(CFG, MASKED.marginalize(["X", "Y1"]), (1, 2))

    def test_policy_must_permute_the_support(self):
        pair = MASKED.marginalize(["X", "Y1"])
        with pytest.raises(ValidationError, match=r"policy for x=1 must permute .* \[0, 1\]"):
            frl_construct(pair, {0: (0,), 1: (0,)})


def bad_cli(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    return err


@pytest.mark.parametrize("text, message", [
    ("var X 2\np 0 1\nvar Y 2\n", "line 3: var lines must precede p lines"),
    ("var X\n", "line 1: expected 'var NAME SIZE'"),
    ("var X two\n", "line 1: bad size 'two'"),
    ("# X\np 0 1\n", "line 2: p line before any var line"),
    ("var X 2\np 0 1 1\n", "line 2: expected 1 symbols and one probability"),
    ("var X 2\np a 1\n", "line 2: bad symbol in ['a']"),
    ("var X 2\np 0 1/0\n", "line 2: bad probability '1/0'"),
    ("var X 2\np 0 1/2\np 0 1/2\n", "line 3: duplicate cell (0,)"),
    ("var X 2\nq 0 1\n", "line 2: unknown directive 'q'"),
    ("# only a comment\n", "no variables declared"),
    ("var X 2\nvar Y 2\nvar Z 2\np 0 0 0 1\n", "frl build needs a two-variable spec"),
])
def test_spec_errors_through_frl_build(text, message, tmp_path, capsys):
    spec = tmp_path / "bad.dist"
    spec.write_text(text)
    assert message in bad_cli(["frl", "build", "--spec", str(spec)], capsys)


FAMILY = ["--p", "1/2", "--n", "2", "--f", "1"]


@pytest.mark.parametrize("argv, message", [
    (["pipeline", "run", *FAMILY, "--demands", "1,x"], "bad demand vector '1,x'"),
    (["bounds", "sweep", "--k-range", "1..x"], "bad range '1..x'"),
    (["audit", *FAMILY, "--demands", "sweep"], "audit needs an explicit demand vector"),
    (["cache", "demo", "--n", "2", "--k", "2", "--m", "1", "--f", "2", "--demands", "sweep"],
     "cache demo needs an explicit demand vector"),
    (["audit", *FAMILY, "--demands", "1,3"], "demand 3 outside the integers 1..2"),
], ids=["demands", "range", "audit sweep", "cache sweep", "demand range"])
def test_cli_errors(argv, message, capsys):
    assert message in bad_cli(argv, capsys)


# spec words, numbers and near-misses (an Arabic-Indic digit, which int()
# reads); no exponent is large enough to make a Fraction expensive
TOKENS = ["var", "p", "#", "X", "Y", "0", "1", "2", "-1", "3", "01", "+1", "1_0", "\u0661",
          "1/2", "1/3", "2/3", "-1/2", "1/0", "0/1", "0.5", "1e2", "nan", "inf", "x", "var2"]
LINES = st.lists(st.sampled_from(TOKENS), max_size=5).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(LINES, max_size=8).map("\n".join), st.text(max_size=80)))
def test_spec_text_parses_or_is_a_validation_error(text):
    try:
        dist = parse_dist(text)
    except ValidationError:
        return
    assert isinstance(dist, JointDist)
