import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privseq.errors import ValidationError
from privseq.probability import (
    Alphabet,
    JointDist,
    _product_test,
    format_dist,
    load_dist,
    parse_dist,
)
from privseq.bounds import Example1Params, example1_build

from conftest import random_database
from reference import (
    condition,
    conditional_entropy,
    entropy,
    is_independent,
    mutual_information,
    point_mass,
    prob,
    product_extend,
    ref_condition,
    ref_conditional_entropy,
    ref_entropy,
    ref_is_independent,
    ref_marginalize,
    ref_mutual_information,
    ref_product_extend,
    uniform,
)


def pair(px00, px01, px10, px11):
    return JointDist(
        [Alphabet("A", 2), Alphabet("B", 2)],
        {(0, 0): px00, (0, 1): px01, (1, 0): px10, (1, 1): px11},
    )


UNIFORM_PAIR = pair(F(1, 4), F(1, 4), F(1, 4), F(1, 4))


class TestConstruction:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError, match="sum"):
            JointDist([Alphabet("A", 2)], {(0,): F(1, 2), (1,): F(1, 3)})

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="negative"):
            JointDist([Alphabet("A", 2)], {(0,): F(3, 2), (1,): F(-1, 2)})

    def test_rejects_out_of_range_symbol(self):
        with pytest.raises(ValidationError, match=r"'A' symbol 2 outside the integers 0\.\.1"):
            JointDist([Alphabet("A", 2)], {(2,): F(1)})

    def test_zero_cells_dropped(self):
        d = JointDist([Alphabet("A", 2)], {(0,): F(1), (1,): F(0)})
        assert (1,) not in d.table
        assert prob(d, (1,)) == 0


class TestMarginalize:
    def test_uniform_pair_keep_first(self):
        m = UNIFORM_PAIR.marginalize(["A"])
        assert m.table == {(0,): F(1, 2), (1,): F(1, 2)}

    def test_point_mass_keep_second(self):
        d = JointDist([Alphabet("A", 2), Alphabet("B", 2)], {(1, 0): F(1)})
        assert d.marginalize(["B"]).table == {(0,): F(1)}

    def test_masked_bit_marginal(self):
        # one fair bit masked by X~Bern(1/2): P(Y=0) = 1/2 + 1/2*1/2 = 3/4
        d = example1_build(Example1Params(F(1, 2), 1, 1, 1))
        assert d.marginalize(["Y1"]).table == {(0,): F(3, 4), (1,): F(1, 4)}

    def test_unknown_variable(self):
        with pytest.raises(ValidationError, match="unknown"):
            UNIFORM_PAIR.marginalize(["Z"])


class TestCondition:
    def test_uniform_pair(self):
        c = condition(UNIFORM_PAIR, "A", 0)
        assert c.table == {(0,): F(1, 2), (1,): F(1, 2)}
        assert c.names == ("B",)

    def test_masked_bit_given_x(self):
        d = example1_build(Example1Params(F(1, 2), 1, 1, 1))
        assert condition(d, "X", 0).table == {(0,): F(1)}
        assert condition(d, "X", 1).table == {(0,): F(1, 2), (1,): F(1, 2)}

    def test_zero_probability_event(self):
        d = JointDist([Alphabet("A", 2), Alphabet("B", 2)], {(0, 0): F(1)})
        with pytest.raises(ValidationError, match="zero-probability"):
            condition(d, "A", 1)


class TestEntropy:
    def test_uniform_four(self):
        assert entropy(uniform(Alphabet("A", 4))) == 2.0

    def test_point_mass(self):
        h = entropy(point_mass(Alphabet("A", 5), 3))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0  # +0.0, not -0.0

    def test_quarter_quarter_half(self):
        d = JointDist([Alphabet("A", 3)], {(0,): F(1, 4), (1,): F(1, 4), (2,): F(1, 2)})
        assert entropy(d) == pytest.approx(1.5, abs=1e-12)

    def test_bounded_by_log_support(self):
        rng = random.Random(7)
        for _ in range(20):
            d = random_database(rng, 2, 1, 1, sparse=True)
            assert -1e-12 <= entropy(d) <= math.log2(len(d.table)) + 1e-12


class TestConditionalEntropy:
    def test_independent_uniform(self):
        assert conditional_entropy(UNIFORM_PAIR, ["B"], ["A"]) == pytest.approx(1.0)

    def test_function_of_given(self):
        d = JointDist([Alphabet("A", 2), Alphabet("B", 2)],
                      {(0, 0): F(1, 2), (1, 1): F(1, 2)})
        assert conditional_entropy(d, ["B"], ["A"]) == 0.0

    def test_masked_two_bit_file(self):
        d = example1_build(Example1Params(F(1, 2), 1, 1, 2))
        cond = condition(d, "X", 1)
        assert entropy(cond, ["Y1"]) == 2.0

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            conditional_entropy(UNIFORM_PAIR, ["A"], ["A"])


class TestMutualInformation:
    def test_independent(self):
        assert mutual_information(UNIFORM_PAIR, ["A"], ["B"]) == 0.0

    def test_identical_uniform_bit(self):
        d = JointDist([Alphabet("A", 2), Alphabet("B", 2)],
                      {(0, 0): F(1, 2), (1, 1): F(1, 2)})
        assert mutual_information(d, ["A"], ["B"]) == pytest.approx(1.0)

    def test_masked_bit_value(self):
        # h(1/4) - 1/2, the leakage of sending the masked bit uncoded
        d = example1_build(Example1Params(F(1, 2), 1, 1, 1))
        expect = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)) - 0.5
        assert mutual_information(d, ["X"], ["Y1"]) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.3113, abs=5e-5)


class TestIndependence:
    def test_product(self):
        assert is_independent(UNIFORM_PAIR, ["A"], ["B"])

    def test_identical(self):
        d = JointDist([Alphabet("A", 2), Alphabet("B", 2)],
                      {(0, 0): F(1, 2), (1, 1): F(1, 2)})
        assert not is_independent(d, ["A"], ["B"])

    def test_empty_side_vacuous(self):
        assert is_independent(UNIFORM_PAIR, [], ["A"])

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_mi_zero_iff_exact(self, seed):
        d = random_database(random.Random(seed), 2, 2, 1, sparse=True)
        mi = mutual_information(d, ["X"], ["Y1"])
        assert (mi < 1e-12) == is_independent(d, ["X"], ["Y1"])


class TestProductExtend:
    def test_attached_uniform_is_independent(self):
        d = example1_build(Example1Params(F(1, 2), 1, 1, 1))
        ext = product_extend(d, Alphabet("W", 2), [F(1, 2), F(1, 2)])
        assert is_independent(ext, ["W"], ["X", "Y1"])
        assert mutual_information(ext, ["W"], ["X", "Y1"]) == 0.0

    def test_point_mass_keeps_entropy(self):
        d = example1_build(Example1Params(F(1, 2), 1, 1, 1))
        ext = product_extend(d, Alphabet("W", 3), [F(0), F(1), F(0)])
        assert entropy(ext) == pytest.approx(entropy(d), abs=1e-12)

    def test_uniform_marginal(self):
        d = example1_build(Example1Params(F(1, 2), 1, 1, 1))
        ext = product_extend(d, Alphabet("W", 2), [F(1, 2), F(1, 2)])
        assert ext.marginalize(["W"]).table == {(0,): F(1, 2), (1,): F(1, 2)}

    def test_name_collision(self):
        with pytest.raises(ValidationError):
            product_extend(UNIFORM_PAIR, Alphabet("A", 2), [F(1, 2), F(1, 2)])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_marginal_entropy_monotone(seed):
    d = random_database(random.Random(seed), 3, 2, 1, sparse=True)
    whole = entropy(d)
    assert entropy(d, ["X", "Y1"]) <= whole + 1e-9
    assert entropy(d, ["X"]) <= entropy(d, ["X", "Y1"]) + 1e-9


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_conditional_entropy_zero_iff_function(seed):
    d = random_database(random.Random(seed), 2, 1, 1, sparse=True)
    h = conditional_entropy(d, ["Y1"], ["X"])
    marg = d.marginalize(["X", "Y1"])
    functional = True
    seen = {}
    for (x, y), _ in marg.items():
        functional &= seen.setdefault(x, y) == y
    assert (h < 1e-12) == functional


# ---------------------------------------------------------------------------
# Kernel equivalence: the integer kernel against a plain Fraction reference
# ---------------------------------------------------------------------------


@st.composite
def joints(draw, min_vars=1, max_vars=3):
    """(JointDist, reference Fraction table): 1-3 variables of size 1-3.

    Cells get integer weights 0..9 (at least one positive) over their
    total. The distribution is built either through the validating
    constructor or as an integer table whose numerators and denominator
    still share a common factor, which the kernel must reduce away.
    """
    n_vars = draw(st.integers(min_vars, max_vars))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n_vars, max_size=n_vars))
    variables = tuple(Alphabet(f"V{i}", s) for i, s in enumerate(sizes))
    cells = list(itertools.product(*(range(s) for s in sizes)))
    weights = draw(st.lists(st.integers(0, 9), min_size=len(cells), max_size=len(cells))
                   .filter(any))
    total = sum(weights)
    ref = {c: F(w, total) for c, w in zip(cells, weights) if w}
    factor = draw(st.integers(1, 6))
    if draw(st.booleans()):
        d = JointDist(variables, ref)
    else:
        num = {c: w * factor for c, w in zip(cells, weights) if w}
        d = JointDist._exact(variables, num, total * factor)
    return d, ref


def assert_table(d, ref):
    """Exact equality with the reference, reduced Fractions, sorted cells."""
    assert d.table == ref
    assert list(d.table) == sorted(ref)
    assert [c for c, _ in d.items()] == sorted(ref)
    assert all(type(p) is F for p in d.table.values())
    num, den = d._ints()
    assert math.gcd(den, *num.values()) == 1
    assert len(d) == len(ref)


def names_of(d):
    return [v.name for v in d.variables]


class TestKernelEquivalence:
    @given(joints(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_marginalize(self, dr, rnd):
        d, ref = dr
        keep = rnd.sample(names_of(d), rnd.randint(1, len(d.variables)))
        assert_table(d.marginalize(keep), ref_marginalize(d.variables, ref, keep))

    @given(joints(min_vars=2), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_condition(self, dr, rnd):
        d, ref = dr
        var = rnd.choice(d.variables)
        symbol = rnd.randrange(var.size)
        want = ref_condition(d.variables, ref, var.name, symbol)
        if want is None:
            with pytest.raises(ValidationError, match="zero-probability"):
                condition(d, var.name, symbol)
        else:
            assert_table(condition(d, var.name, symbol), want)

    @given(joints(max_vars=2), st.lists(st.integers(0, 5), min_size=1, max_size=3).filter(any))
    @settings(max_examples=100, deadline=None)
    def test_product_extend(self, dr, weights):
        d, ref = dr
        marginal = [F(w, sum(weights)) for w in weights]
        got = product_extend(d, Alphabet("W", len(weights)), marginal)
        assert_table(got, ref_product_extend(ref, marginal))
        assert is_independent(got, names_of(d), ["W"])

    @given(joints(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_is_independent(self, dr, rnd):
        d, ref = dr
        names = names_of(d)
        rnd.shuffle(names)
        cut = rnd.randint(0, len(names))
        a, b = names[:cut], names[cut:]
        assert is_independent(d, a, b) == ref_is_independent(d.variables, ref, a, b)

    @given(joints(max_vars=2), joints(max_vars=1), st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_is_independent_on_products_and_perturbations(self, da, db, seed):
        (a, ref_a), (b, ref_b) = da, db
        b_var = Alphabet("B", b.variables[0].size)
        variables = a.variables + (b_var,)
        product = {ca + cb: p * q for ca, p in ref_a.items() for cb, q in ref_b.items()}
        joint = JointDist(variables, product)
        a_names = names_of(a)
        assert is_independent(joint, a_names, ["B"])
        assert ref_is_independent(variables, product, a_names, ["B"])
        # move mass from one cell to another, in or out of the support
        rng = random.Random(seed)
        src_cell = rng.choice(sorted(product))
        dst_cell = rng.choice(list(itertools.product(*(range(v.size) for v in variables))))
        moved = dict(product)
        delta = moved[src_cell] / rng.randint(2, 5)
        moved[src_cell] -= delta
        moved[dst_cell] = moved.get(dst_cell, F(0)) + delta
        perturbed = JointDist(variables, moved)
        assert is_independent(perturbed, a_names, ["B"]) == \
            ref_is_independent(variables, moved, a_names, ["B"])
        if src_cell != dst_cell:
            assert perturbed != joint
        # the product test itself, on the rows grouped by A: it reads ratios,
        # so the numerators are scaled by a drawn factor, and each table is
        # also tested with one pair deleted, against the renormalized oracle
        factor = rng.randint(1, 10 ** 6)
        for table in (product, moved):
            dropped = rng.choice(sorted(table))
            for kept in (table, {c: q for c, q in table.items() if c != dropped}):
                if not kept:
                    continue
                den = math.lcm(*(q.denominator for q in kept.values()))
                rows = {}
                for cell, q in kept.items():
                    rows.setdefault(cell[:-1], {})[cell[-1]] = int(q * den) * factor
                total = sum(kept.values())
                normalized = {c: q / total for c, q in kept.items()}
                independent, row_sums = _product_test(rows)
                assert independent == ref_is_independent(variables, normalized, a_names, ["B"])
                assert row_sums == {a: sum(row.values()) for a, row in rows.items()}

    @given(joints(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_entropy_functionals_bit_identical(self, dr, rnd):
        d, ref = dr
        names = names_of(d)
        assert entropy(d) == ref_entropy(ref)
        of = rnd.sample(names, rnd.randint(1, len(names)))
        assert entropy(d, of) == ref_entropy(ref_marginalize(d.variables, ref, of))
        rnd.shuffle(names)
        cut = rnd.randint(0, len(names) - 1)
        target, given_ = names[cut:], names[:cut]
        assert conditional_entropy(d, target, given_) == (
            ref_conditional_entropy(d.variables, ref, target, given_) if given_
            else ref_entropy(ref_marginalize(d.variables, ref, target)))
        if cut:
            a, b = names[:cut], names[cut:]
            assert mutual_information(d, a, b) == ref_mutual_information(d.variables, ref, a, b)

    @given(joints(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_equality_across_construction_paths(self, dr, rnd):
        d, ref = dr
        validated = JointDist(d.variables, ref)
        assert d == validated and validated == d
        assert len(validated) == len(d) == len(ref)
        for cell in itertools.product(*(v.symbols() for v in d.variables)):
            assert prob(validated, cell) == prob(d, cell) == ref.get(cell, 0)
        names = names_of(d)
        keep = rnd.sample(names, rnd.randint(1, len(names)))
        direct = d.marginalize(keep)
        via_reorder = d.marginalize(list(reversed(names))).marginalize(keep)
        assert direct == via_reorder
        assert direct == JointDist(direct.variables, ref_marginalize(d.variables, ref, keep))
        assert parse_dist(format_dist(direct)) == direct


class TestFractionView:
    def test_built_once_and_kept(self):
        variables = (Alphabet("X", 2), Alphabet("Y", 2))
        exact = JointDist._exact(variables, {(0, 0): 2, (0, 1): 1, (1, 0): 1}, 4)
        validated = JointDist(variables, {(1, 0): F(1, 4), (0, 0): F(1, 2), (0, 1): F(1, 4)})
        for d in (exact, validated):
            # the kernel, len, == and prob run without a Fraction table
            d.marginalize(["Y"])
            assert len(d) == 3 and d == exact and prob(d, (0, 1)) == F(1, 4)
            assert d._table is None
            table = d.table
            assert d.table is table
            assert list(d.items()) == list(table.items())
            assert d.table is table

    @given(joints())
    @settings(max_examples=100, deadline=None)
    def test_equal_numerators_share_one_fraction(self, dr):
        d, ref = dr
        num, den = d._ints()
        exact = JointDist._exact(d.variables, dict(num), den)
        assert_table(exact, ref)
        by_num = {}
        for cell, p in exact.table.items():
            assert by_num.setdefault(num[cell], p) is p


class TestDistFile:
    def test_non_utf8_file_is_validation_error(self, tmp_path):
        path = tmp_path / "latin1.dist"
        path.write_bytes("var X 2\np 0 1/2 # \xe9\np 1 1/2\n".encode("latin-1"))
        with pytest.raises(ValidationError, match="not UTF-8"):
            load_dist(str(path))

    def test_roundtrip(self):
        d = example1_build(Example1Params(F(1, 2), 2, 2, 1))
        again = parse_dist(format_dist(d))
        assert again == d

    def test_sum_must_be_exact(self):
        text = "var X 2\np 0 99/100\np 1 0\n"
        with pytest.raises(ValidationError, match="sum"):
            parse_dist(text)

    def test_bad_fraction(self):
        with pytest.raises(ValidationError, match="probability"):
            parse_dist("var X 1\np 0 one\n")

    def test_comments_and_blanks(self):
        d = parse_dist("# header\n\nvar X 2  # two symbols\np 0 1/2\np 1 1/2\n")
        assert d.table == {(0,): F(1, 2), (1,): F(1, 2)}

    def test_duplicate_cell(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_dist("var X 2\np 0 1/2\np 0 1/2\n")
