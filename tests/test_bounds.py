import itertools
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privseq.bounds as bounds_mod
from privseq.bounds import (
    Example1Params,
    cardinality_caps,
    demanded_base,
    example1_build,
    lower_bound,
    upper_bound_cardinality,
    upper_bound_entropy_estimate,
)
from privseq.coding import fixed_width
from privseq.errors import LimitError, ValidationError
from privseq.frl import cardinality_bound
from privseq.pipeline import SweepRow, session_chain
from privseq.probability import Alphabet, JointDist, load_dist

from conftest import random_database
from reference import condition, entropy, example1_ratio, prob


class TestCeilLog2:
    @pytest.mark.parametrize("n,expect", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (1024, 10), (1025, 11)])
    def test_values(self, n, expect):
        assert fixed_width(n) == expect

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            fixed_width(0)


class TestUpperCardinality:
    def test_single_stage_binary(self):
        assert cardinality_caps(2, [2]) == [3]
        assert upper_bound_cardinality(2, [2]) == 3

    def test_two_stage_binary(self):
        assert cardinality_caps(2, [2, 2]) == [3, 7]
        assert upper_bound_cardinality(2, [2, 2]) == 2 + 3 + 1

    def test_constant_files(self):
        assert upper_bound_cardinality(4, [1, 1, 1]) == fixed_width(4)

    def test_large_file_size_is_cheap(self):
        # closed-form integer arithmetic; no mechanism is ever built
        v = upper_bound_cardinality(2, [2 ** 256] * 2)
        assert v == 257 + 514 + 1


class TestCapLimit:
    """A cap longer than `limit` bits fails before a much longer number is formed."""

    @pytest.fixture
    def formed(self, monkeypatch):
        lengths = []

        def recording(*args):
            cap = cardinality_bound(*args)
            lengths.append(cap.bit_length())
            return cap

        monkeypatch.setattr(bounds_mod, "cardinality_bound", recording)
        return lengths

    def test_decided_before_forming(self, formed):
        # caps 3, 7, 43, 1807 (2, 3, 6, 11 bits); stage 5's has at least
        # 11 + 11 + 1 - 2 = 21 bits, so it is never formed
        with pytest.raises(LimitError, match="stage 5 cardinality cap needs more than the limit of 20 bits"):
            cardinality_caps(2, [2] * 10, limit=20)
        assert formed == [2, 3, 6, 11]

    def test_decided_after_forming(self, formed):
        # stage 3's bit-length floor is 3 + 3 + 1 - 2 = 5, so 43 (6 bits) is formed, then refused
        with pytest.raises(LimitError, match="stage 3 cardinality cap"):
            cardinality_caps(2, [2] * 3, limit=5)
        assert formed == [2, 3, 6]

    def test_limit_at_cap_length_passes(self):
        assert cardinality_caps(2, [2] * 4, limit=11) == [3, 7, 43, 1807]
        with pytest.raises(LimitError, match="stage 4 cardinality cap"):
            upper_bound_cardinality(2, [2] * 4, limit=10)


class TestEntropyEstimate:
    def test_deterministic_single_demand(self):
        p = JointDist(
            [Alphabet("X", 2), Alphabet("Y1", 2)],
            {(0, 0): F(1, 2), (1, 1): F(1, 2)},
        )
        chain = session_chain(p, (1,))
        assert upper_bound_entropy_estimate(chain) == 1  # 0 + ceil(log 2)

    def test_designed_instance(self, designed_2x2):
        p = JointDist(
            [Alphabet("X", 2), Alphabet("Y1", 2)],
            dict(designed_2x2.table),
        )
        chain = session_chain(p, (1,))
        assert upper_bound_entropy_estimate(chain) == math.ceil(1.5) + 1 == 3

    def test_never_exceeds_cardinality_route(self):
        rng = random.Random(9)
        for _ in range(8):
            p = random_database(rng, rng.randint(2, 3), 2, 1, sparse=True)
            chain = session_chain(p, (1, 2))
            card = upper_bound_cardinality(
                p.variables[0].size, [p.variables[1].size, p.variables[2].size])
            assert upper_bound_entropy_estimate(chain) <= card


class TestLowerBound:
    def test_masked_family_exact_kf(self):
        for k, f in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            p = example1_build(Example1Params(F(1, 3), k, k, f))
            assert lower_bound(demanded_base(p, range(1, k + 1))[0]) == float(k * f)

    def test_deterministic_zero(self):
        p = JointDist(
            [Alphabet("X", 2), Alphabet("Y1", 2)],
            {(0, 0): F(1, 2), (1, 1): F(1, 2)},
        )
        assert lower_bound(demanded_base(p, (1,))[0]) == 0.0

    def test_iid_uniform_files(self):
        cells = {(x, y1, y2): F(1, 8) for x in range(2) for y1 in range(2) for y2 in range(2)}
        p = JointDist([Alphabet("X", 2), Alphabet("Y1", 2), Alphabet("Y2", 2)], cells)
        assert lower_bound(demanded_base(p, (1, 2))[0]) == 2.0

    def test_dense_golden_spec(self):
        # the same float on every supported Python: entropies are summed left
        # to right, not with sum(), whose float rounding changed in 3.12
        spec = Path(__file__).parent / "golden" / "dense.dist"
        assert lower_bound(demanded_base(load_dist(str(spec)), (1, 2, 3))[0]) == 2.8212412097950392

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
           st.booleans(), st.data())
    def test_matches_per_x_conditionals(self, seed, x_size, n_files, bits, sparse, data):
        p = random_database(random.Random(seed), x_size, n_files, bits, sparse)
        demands = data.draw(st.permutations(range(1, n_files + 1)))[:data.draw(st.integers(1, n_files))]
        names = [f"Y{d}" for d in demands]
        want = 0.0
        for (x,), _ in p.marginalize(["X"]).items():
            want = max(want, entropy(condition(p, "X", x), names))
        assert lower_bound(demanded_base(p, demands)[0]).hex() == want.hex()


def ref_example1(p, n, f):
    """The masked database as a Fraction table through the validating constructor."""
    size = 2 ** f
    variables = [Alphabet("X", 2)] + [Alphabet(f"Y{j}", size) for j in range(1, n + 1)]
    table = {(0,) * (n + 1): 1 - p}
    for files in itertools.product(range(size), repeat=n):
        table[(1,) + files] = p / size ** n
    return JointDist(variables, table)


class TestMaskedFamilyBuild:
    @pytest.mark.parametrize("p", [F(1, 2), F(1, 3), F(5, 11), F(15, 16)])
    @pytest.mark.parametrize("n, f", [(1, 1), (2, 1), (1, 3), (3, 2), (2, 3)])
    def test_matches_validating_constructor(self, p, n, f):
        got = example1_build(Example1Params(p, n, 1, f))
        want = ref_example1(p, n, f)
        assert got == want and want == got
        assert got.variables == want.variables
        assert list(got.table.items()) == list(want.table.items())
        (got_num, got_den), (want_num, want_den) = got._ints(), want._ints()
        assert list(got_num.items()) == list(want_num.items())
        assert got_den == want_den

    def test_x_zero_forces_all_zero(self):
        p = example1_build(Example1Params(F(1, 4), 2, 2, 2))
        cond = condition(p, "X", 0)
        assert cond.table == {(0, 0): F(1)}

    def test_x_one_uniform_iid(self):
        p = example1_build(Example1Params(F(1, 4), 2, 1, 1))
        cond = condition(p, "X", 1)
        assert all(q == F(1, 4) for q in cond.table.values())
        assert len(cond.table) == 4

    def test_single_bit_marginal(self):
        p = example1_build(Example1Params(F(1, 2), 1, 1, 1))
        assert prob(p.marginalize(["Y1"]), (1,)) == F(1, 4)

    def test_limit_guard(self):
        with pytest.raises(LimitError):
            example1_build(Example1Params(F(1, 2), 3, 1, 4), limit=100)

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            Example1Params(F(1), 1, 1, 1)
        with pytest.raises(ValidationError):
            Example1Params(F(1, 2), 1, 2, 1)


class TestRatio:
    def test_k1_tends_to_one(self):
        # (f + 2) / f: pad bit plus the one-stage cap
        assert example1_ratio(1, 64) == pytest.approx(66 / 64)
        assert example1_ratio(1, 1024) < 1.01

    def test_k2_values(self):
        assert example1_ratio(2, 1) == 3.0
        assert example1_ratio(2, 32) == pytest.approx(100 / 64)
        assert example1_ratio(2, 256) == pytest.approx(772 / 512)

    def test_k2_limit_toward_three_halves(self):
        assert abs(example1_ratio(2, 32) - 1.5) / 1.5 < 0.05
        assert abs(example1_ratio(2, 256) - 1.5) / 1.5 < 0.01

    def test_decreasing_in_f(self):
        values = [example1_ratio(2, f) for f in range(2, 65)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_k3_limit_under_recursive_caps(self):
        # the recursive caps double the log each stage: sum = (2^k - 1)(f + 1),
        # so the k=3 ratio tends to 7/3 (k=2 is where it meets 3/2)
        assert abs(example1_ratio(3, 512) - 7 / 3) < 0.01


class TestSandwich:
    @staticmethod
    def row(lower, measured, upper):
        return SweepRow(demands=(1,), expected_len=measured, lower=lower,
                        upper_cardinality=upper, upper_entropy_estimate=3,
                        leakage_exact_zero=True, leakage_bits=0.0, u_sizes=(2,),
                        transcript_support=4)

    def test_sandwich_check(self):
        assert self.row(2.0, 3.0, 6).sandwich_ok()
        assert not self.row(4.0, 3.0, 6).sandwich_ok()
