import bisect
import dataclasses
import itertools
import json
import math
import random
import re
import types
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privseq.frl as frl_mod
from privseq.errors import InvariantError, LimitError, ValidationError
from privseq.frl import (
    FrlMechanism,
    build_chain,
    cardinality_bound,
    frl_construct,
    min_entropy_search,
)
from privseq.bounds import Example1Params, example1_build
from privseq.cli import main
from privseq.probability import Alphabet, JointDist, load_dist

from conftest import random_pair, random_database
from reference import (
    conditional_entropy,
    conditional_u,
    is_independent,
    mechanism_joint,
    prob,
    ref_stage_mechanisms,
    stage_conditional_u,
)

GOLDEN_PAIR = Path(__file__).parent / "golden" / "pair.dist"


def brute_force_joint(pxy, policy=None):
    """Recompute P(U,X,Y) by raw interval intersections, independent of the
    construction path: every segment edge is an atom boundary and each joint
    cell is P(x) times the overlap length of atom and segment. Returns the
    sorted Fraction edges and the joint table."""
    px = {}
    for (x, y), p in pxy.items():
        px[x] = px.get(x, F(0)) + p
    segs = {}
    for x, mass in px.items():
        order = policy[x] if policy else sorted(y for (xx, y) in pxy.table if xx == x)
        pos = F(0)
        rows = []
        for y in order:
            w = prob(pxy, (x, y)) / mass
            rows.append((pos, pos + w, y))
            pos += w
        segs[x] = rows
    edges = sorted({e for rows in segs.values() for (a, b, _) in rows for e in (a, b)})
    table = {}
    for u, (a, b) in enumerate(zip(edges, edges[1:])):
        for x, rows in segs.items():
            for (s, e, y) in rows:
                overlap = min(b, e) - max(a, s)
                if overlap > 0:
                    table[(u, x, y)] = table.get((u, x, y), F(0)) + px[x] * overlap
    return edges, table


def deterministic_pair():
    # Y = f(X): y always equals x
    return JointDist(
        [Alphabet("X", 2), Alphabet("Y", 2)],
        {(0, 0): F(1, 3), (1, 1): F(2, 3)},
    )


def identical_conditionals_pair():
    # X independent of Y with the same conditional everywhere
    return JointDist(
        [Alphabet("X", 2), Alphabet("Y", 2)],
        {(0, 0): F(1, 6), (0, 1): F(1, 3), (1, 0): F(1, 6), (1, 1): F(1, 3)},
    )


class TestConstruct:
    def test_deterministic_target_single_atom(self):
        m = frl_construct(deterministic_pair())
        assert m.u_size == 1
        assert m.entropy() == 0.0
        assert m.p_u == (F(1),)

    def test_identical_conditionals(self):
        # both conditionals are (1/3, 2/3): atoms coincide with the segments
        m = frl_construct(identical_conditionals_pair())
        assert m.u_size == 2
        assert m.p_u == (F(1, 3), F(2, 3))
        # the map ignores x
        assert {(u, x): m.apply(u, x) for u in range(2) for x in range(2)} == \
            {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1}

    def test_designed_2x2(self, designed_2x2):
        m = frl_construct(designed_2x2)
        assert m.atoms == ((F(0), F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), F(1)))
        assert m.p_u == (F(1, 4), F(1, 4), F(1, 2))
        assert m.entropy() == pytest.approx(1.5, abs=1e-12)
        assert m.u_size == 3 == cardinality_bound(2, 2)

    def test_zero_mass_x_dropped(self):
        d = JointDist(
            [Alphabet("X", 3), Alphabet("Y", 2)],
            {(0, 0): F(1, 2), (1, 0): F(1, 4), (1, 1): F(1, 4)},
        )
        m = frl_construct(d)
        assert {x for x, _ in m.spans} == {0, 1}  # x=2 gets no segment
        assert {(u, x): m.apply(u, x) for u in range(m.u_size) for x in (0, 1)} == \
            {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}
        # the dropped x, and atoms past either end of a kept x's segments
        for u, x in [(0, 2), (1, 2), (-1, 0), (m.u_size, 1)]:
            with pytest.raises(ValidationError, match=rf"\(u={u}, x={x}\) outside the positive support"):
                m.apply(u, x)
        with pytest.raises(ValidationError, match=r"\(x=2, y=0\) outside the positive support"):
            conditional_u(m, 2, 0)
        with pytest.raises(ValidationError, match=r"\(x=0, y=1\) outside the positive support"):
            conditional_u(m, 0, 1)

    def test_uniform_conditionals_full_entropy(self):
        d = JointDist(
            [Alphabet("X", 2), Alphabet("Y", 4)],
            {(x, y): F(1, 8) for x in range(2) for y in range(4)},
        )
        m = frl_construct(d)
        assert m.u_size == 4
        assert m.entropy() == math.log2(4)

    def test_conditional_u_matches_ratio(self, designed_2x2):
        m = frl_construct(designed_2x2)
        # segment (x=0, y=0) = [0,1/2) holds the first two quarter atoms
        assert conditional_u(m, 0, 0) == {0: F(1, 2), 1: F(1, 2)}
        # segment (x=1, y=1) = [1/4,1) holds atoms 1 and 2
        assert conditional_u(m, 1, 1) == {1: F(1, 3), 2: F(2, 3)}

    def test_needs_pair(self):
        d = example1_build(Example1Params(F(1, 2), 2, 2, 1))
        with pytest.raises(ValidationError):
            frl_construct(d)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        rng = random.Random(900 + seed)
        pxy = random_pair(rng, rng.randint(2, 3), rng.randint(2, 3), sparse=seed % 2 == 0)
        permuted = {}
        for (x, y) in pxy.table:
            permuted.setdefault(x, []).append(y)
        for ys in permuted.values():
            rng.shuffle(ys)
        for policy in (None, permuted):
            m = frl_construct(pxy, policy)
            edges, table = brute_force_joint(pxy, policy)
            assert m.u_size == len(edges) - 1
            assert dict(mechanism_joint(m, pxy).table) == table
            assert m.atoms == tuple(zip(edges, edges[1:]))
            assert m.p_u == tuple(b - a for a, b in zip(edges, edges[1:]))
            h = 0.0  # left to right, as the library sums; sum() differs from Python 3.12 on
            for p in m.p_u:
                h += float(p) * (math.log2(p.numerator) - math.log2(p.denominator))
            assert m.entropy() == -h


class TestInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_guarantees_hold_exactly(self, seed):
        rng = random.Random(7000 + seed)
        pxy = random_pair(rng, rng.randint(1, 3), rng.randint(1, 4), sparse=True)
        m = frl_construct(pxy)
        joint = mechanism_joint(m, pxy)
        assert is_independent(joint, [m.u_alphabet.name], ["X"])
        assert conditional_entropy(joint, ["Y"], [m.u_alphabet.name, "X"]) == 0.0
        assert m.u_size <= cardinality_bound(pxy.variables[0].size, pxy.variables[1].size)
        assert sum(m.p_u) == 1
        marg = joint.marginalize([m.u_alphabet.name])
        assert tuple(prob(marg, (u,)) for u in range(m.u_size)) == m.p_u

    def test_g_total_on_positive_support(self, designed_2x2):
        m = frl_construct(designed_2x2)
        joint = mechanism_joint(m, designed_2x2)
        for u in range(m.u_size):
            for x in (0, 1):
                y = m.apply(u, x)
                assert prob(joint, (u, x, y)) > 0


class TestCardinalityBound:
    def test_single_stage_binary(self):
        assert cardinality_bound(2, 2) == 3

    def test_with_prefix(self):
        assert cardinality_bound(2 * 3, 2) == 7

    def test_constant_target(self):
        assert cardinality_bound(5 * 3 * 7, 1) == 1

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValidationError):
            cardinality_bound(0, 2)


class TestMinEntropySearch:
    def test_deterministic_target_zero(self):
        policy, h = min_entropy_search(deterministic_pair(), budget=1)
        assert h == 0.0

    def test_designed_2x2_symmetric(self, designed_2x2):
        policy, h = min_entropy_search(designed_2x2, budget=4)
        assert h == pytest.approx(1.5, abs=1e-12)

    def test_asymmetric_2x3(self):
        # conditionals (1/2,1/3,1/6) and (1/6,1/2,1/3); aligning the cut sets
        # gives atoms (1/6,1/3,1/2), far below the canonical refinement
        d = JointDist(
            [Alphabet("X", 2), Alphabet("Y", 3)],
            {(0, 0): F(1, 4), (0, 1): F(1, 6), (0, 2): F(1, 12),
             (1, 0): F(1, 12), (1, 1): F(1, 4), (1, 2): F(1, 6)},
        )
        canonical_h = frl_construct(d).entropy()
        policy, h = min_entropy_search(d, budget=36)
        oracle = min(
            frl_construct(d, {0: pa, 1: pb}).entropy()
            for pa in itertools.permutations(range(3))
            for pb in itertools.permutations(range(3))
        )
        assert h == pytest.approx(oracle, abs=1e-12)
        assert h <= canonical_h + 1e-12
        expect = math.log2(6) / 6 + math.log2(3) / 3 + 0.5
        assert h == pytest.approx(expect, abs=1e-12)

    def test_budget_exceeded(self):
        d = JointDist(
            [Alphabet("X", 2), Alphabet("Y", 3)],
            {(x, y): F(1, 6) for x in range(2) for y in range(3)},
        )
        with pytest.raises(LimitError, match="canonical"):
            min_entropy_search(d, budget=5)
        with pytest.raises(ValidationError, match="at least 1"):
            min_entropy_search(d, budget=0)

    @pytest.mark.parametrize("x_size, y_size, budget, err", [
        # 8!^2 orderings are within the budget, but not the state limit
        (2, 8, 2_000_000_000, "29030400+ orderings exceed the limit 10000000"),
        # 5000! has more digits than an int may print: the count stops past the budget
        (1, 5000, 5, "6+ orderings exceed budget 5"),
    ])
    def test_orderings_counted_until_past_the_cap(self, x_size, y_size, budget, err):
        d = JointDist([Alphabet("X", x_size), Alphabet("Y", y_size)],
                      {(x, y): F(1, x_size * y_size) for x in range(x_size) for y in range(y_size)})
        with pytest.raises(LimitError, match=re.escape(err + "; use the canonical ordering surrogate")):
            min_entropy_search(d, budget=budget)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_construction(self, seed):
        # reference: build every ordering's mechanism, keep the first strict
        # improvement in itertools.product order
        rng = random.Random(seed)
        d = random_pair(rng, rng.randint(1, 3), rng.randint(2, 3 if seed < 6 else 4),
                        sparse=seed % 2 == 1)
        supports = {}
        for x, y in d.table:
            supports.setdefault(x, []).append(y)
        xs = sorted(supports)
        best_policy, best_h = None, math.inf
        for combo in itertools.product(*(itertools.permutations(supports[x]) for x in xs)):
            policy = dict(zip(xs, combo))
            h = frl_construct(d, policy).entropy()
            if h < best_h - 1e-12:
                best_policy, best_h = policy, h
        assert min_entropy_search(d, budget=1000) == (best_policy, best_h)

    def test_invariant_under_consistent_relabel(self):
        rng = random.Random(42)
        d = random_pair(rng, 2, 3)
        _, h = min_entropy_search(d, budget=100)
        perm = [2, 0, 1]
        relabeled = JointDist(
            d.variables,
            {(x, perm[y]): p for (x, y), p in d.items()},
        )
        _, h2 = min_entropy_search(relabeled, budget=100)
        assert h == pytest.approx(h2, abs=1e-12)


class TestChain:
    def test_extend_from_empty_equals_construct(self, designed_2x2):
        chain = build_chain(designed_2x2, ["Y"])
        direct = frl_construct(designed_2x2)
        stage = chain.stages[0]
        assert stage.mechanism.atoms == direct.atoms
        assert stage.mechanism.p_u == direct.p_u
        # the first stage's given states are the x symbols themselves
        assert sorted({x for x, _ in stage.mechanism.spans}) == [0, 1]
        assert {(u, x): stage.decode(x, (), u) for x in range(2) for u in range(direct.u_size)} == \
            {(u, x): direct.apply(u, x) for x in range(2) for u in range(direct.u_size)}

    def test_repeated_target_constant_stage(self, designed_2x2):
        chain = build_chain(designed_2x2, ["Y", "Y"])
        assert chain.stages[1].mechanism.u_size == 1
        assert chain.stages[1].mechanism.entropy() == 0.0

    def test_masked_two_file_chain(self):
        p = example1_build(Example1Params(F(1, 2), 2, 2, 1))
        base = p.marginalize(["X", "Y1", "Y2"])
        chain = build_chain(base, ["Y1", "Y2"])
        assert is_independent(chain.joint, ["U1", "U2"], ["X"])
        assert conditional_entropy(chain.joint, ["Y1"], ["X", "U1"]) == 0.0
        assert conditional_entropy(chain.joint, ["Y2"], ["X", "U1", "U2"]) == 0.0

    def test_prefix_independence_every_length(self):
        rng = random.Random(5)
        p = random_database(rng, 3, 2, 1)
        chain = build_chain(p, ["Y1", "Y2"])
        for i in range(1, 3):
            assert is_independent(chain.joint, [f"U{j}" for j in range(1, i + 1)], ["X"])

    def test_auxiliaries_mutually_independent(self):
        # the stage marginals factorize, which is what makes the total slot
        # length decompose into a sum of per-stage entropies
        rng = random.Random(31)
        for _ in range(5):
            p = random_database(rng, rng.randint(2, 3), 2, 1, sparse=True)
            chain = build_chain(p, ["Y1", "Y2"])
            assert is_independent(chain.joint, ["U1"], ["U2"])
            for i, stage in enumerate(chain.stages, start=1):
                marg = chain.joint.marginalize([f"U{i}"])
                assert tuple(prob(marg, (u,)) for u in range(stage.mechanism.u_size)) == \
                    stage.mechanism.p_u

    def test_stage_sizes_within_recursive_caps(self):
        rng = random.Random(17)
        for _ in range(6):
            p = random_database(rng, rng.randint(2, 3), 2, 1, sparse=True)
            chain = build_chain(p, ["Y1", "Y2"])
            x_size = p.variables[0].size
            sizes = chain.u_sizes()
            for i, s in enumerate(sizes):
                assert s <= cardinality_bound(x_size * math.prod(sizes[:i]), p.variables[i + 1].size)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3), st.booleans())
    def test_every_joint_cell_decodes_to_its_targets(self, seed, x_size, n_files, sparse):
        # the map `decode` reads is the one the joint was written from
        p = random_database(random.Random(seed), x_size, n_files, 1, sparse)
        targets = [f"Y{i}" for i in range(n_files, 0, -1)]
        chain = build_chain(p, targets)
        x_axis, *u_axes = chain.joint._axes(
            ["X", *(stage.mechanism.u_alphabet.name for stage in chain.stages)])
        y_axes = chain.joint._axes(targets)
        for cell in chain.joint.table:
            us = [cell[a] for a in u_axes]
            for i, (stage, y_axis) in enumerate(zip(chain.stages, y_axes)):
                assert stage.decode(cell[x_axis], us[:i], us[i]) == cell[y_axis]

    @pytest.mark.parametrize("method", ["row", "decode"])
    def test_zero_mass_compound_state(self, method):
        # x=2 of the golden pair has zero mass, so every state that starts with it has none
        chain = build_chain(load_dist(GOLDEN_PAIR), ["Y", "Y"])
        stage1, stage2 = chain.stages
        u1_size = stage1.mechanism.u_size
        for stage, x, prefix in [(stage1, 2, ()), (stage1, 0, (0,)),
                                 (stage2, 2, (0,)), (stage2, 0, (u1_size,)), (stage2, 0, ())]:
            state = re.escape(str((x, *prefix)))
            with pytest.raises(ValidationError, match=f"compound state {state} has zero mass"):
                getattr(stage, method)(x, prefix, 0)
        # the positive states of both stages still read
        assert getattr(stage1, method)(0, (), 0) is not None
        assert getattr(stage2, method)(0, (0,), 0) is not None

    @pytest.mark.parametrize("taken, targets, match", [
        (None, ["Z"], "unknown variable 'Z'"),
        (None, ["X"], "cannot target 'X'"),
        (None, ["Y", "U1"], "cannot target 'U1'"),
        ("U2", ["Y", "Y"], "variable name 'U2' already taken in the base joint"),
    ], ids=["unknown", "private", "earlier-aux", "taken-aux-name"])
    def test_unknown_private_or_target_rejected(self, designed_2x2, taken, targets, match):
        # X is the base joint's first variable, and a base variable may not
        # bear a later stage's auxiliary name; every stage before the
        # faulty last one builds
        base = designed_2x2
        if taken is not None:
            base = JointDist([*base.variables, Alphabet(taken, 1)],
                             {cell + (0,): q for cell, q in base.items()})
        assert len(build_chain(base, targets[:-1]).stages) == len(targets) - 1
        with pytest.raises(ValidationError, match=match):
            build_chain(base, targets)


class TestChainProduct:
    """The chain joint against its product built as Fractions, apart from
    `_stage`'s integer write: each base cell's probability times
    P(U_k | x, u_1..u_{k-1}, y_k) at every stage. `==` compares the reduced
    integer tables, so it pins the reduction too; a spy on `_exact` pins that
    each stage's table is written reduced, with nothing left to divide out."""

    @staticmethod
    def reference_joint(base, chain):
        table = dict(base.items())
        n_base = len(base.variables)
        for stage, y_axis in zip(chain.stages, base._axes(chain.targets)):
            table = {cell + (u,): q * qu for cell, q in table.items()
                     for u, qu in stage_conditional_u(stage, cell[0], cell[n_base:], cell[y_axis]).items()}
        return JointDist(chain.joint.variables, table)

    def check(self, base, targets):
        chain = build_chain(base, targets)
        reference = self.reference_joint(base, chain)
        assert reference == chain.joint
        assert list(chain.joint._ints()[0]) == list(reference._ints()[0])  # sorted cell order

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.booleans())
    def test_random_databases(self, seed, x_size, n_files, file_bits, sparse):
        # dense and sparse databases, where a (given state, target) key has several parent cells
        if file_bits == 2:
            n_files = min(n_files, 2)
        rng = random.Random(seed)
        targets = [f"Y{i}" for i in range(1, n_files + 1)]
        rng.shuffle(targets)
        self.check(random_database(rng, x_size, n_files, file_bits, sparse), targets)

    @pytest.mark.parametrize("p, n_files, file_bits", [("1/2", 2, 1), ("1/3", 3, 1), ("3/4", 2, 2)])
    def test_masked_family(self, p, n_files, file_bits):
        db = example1_build(Example1Params(F(p), n_files, 1, file_bits))
        for demands in itertools.permutations(range(1, n_files + 1)):
            targets = [f"Y{d}" for d in demands]
            self.check(db.marginalize(["X", *targets]), targets)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3), st.booleans())
    def test_stage_tables_reach_exact_reduced(self, seed, x_size, n_files, sparse):
        p = random_database(random.Random(seed), x_size, n_files, 1, sparse)
        gcds = []
        original = JointDist._exact.__func__

        def recording(cls, variables, num, den):
            gcds.append(math.gcd(den, *num.values()))
            return original(cls, variables, num, den)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(JointDist, "_exact", classmethod(recording))
            build_chain(p, [f"Y{i}" for i in range(n_files, 0, -1)])
        assert gcds == [1] * n_files


class TestOneStageConstruction:
    """Every stage, the pair included, is built by one function keyed by the
    given state; it must lay the same atoms and spans as the pair over the
    sorted compound-state index that stages were once built from."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.booleans())
    def test_stages_match_the_compound_index_pair(self, seed, x_size, n_files, file_bits, sparse):
        if file_bits == 2:
            n_files = min(n_files, 2)  # a 3-file, 2-bit chain has 10^5 cells
        p = random_database(random.Random(seed), x_size, n_files, file_bits, sparse)
        chain = build_chain(p, [f"Y{i}" for i in range(n_files, 0, -1)])
        assert [(s.mechanism.bounds, s.mechanism.spans) for s in chain.stages] == \
            ref_stage_mechanisms(chain)

    def test_first_stage_is_the_pair(self):
        pxy = load_dist(GOLDEN_PAIR)
        stage = build_chain(pxy, ["Y"]).stages[0].mechanism
        pair = frl_construct(pxy)
        # the whole mechanism, up to U's name, spans in written order included
        assert pair == dataclasses.replace(stage, u_alphabet=Alphabet("U", stage.u_size))
        assert list(pair.spans.items()) == list(stage.spans.items())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 3), st.integers(1, 4), st.booleans())
    def test_segments_are_the_sorted_spans(self, seed, x_size, n_files, y_size, sparse):
        # `_segments` groups the spans as written, unsorted: `_stage` writes
        # them state by state with ascending stops, under any policy too
        rng = random.Random(seed)
        targets = [f"Y{i}" for i in range(1, n_files + 1)]
        rng.shuffle(targets)
        p = random_database(rng, min(x_size, 3), n_files, 1, sparse)
        mechs = [s.mechanism for s in build_chain(p, targets).stages]
        pxy = random_pair(rng, x_size, y_size, sparse)
        policy = {}
        for x, y in pxy.table:
            policy.setdefault(x, []).append(y)
        for ys in policy.values():
            rng.shuffle(ys)
        mechs += [frl_construct(pxy), frl_construct(pxy, policy)]
        for m in mechs:
            segments = {}
            for (x, y), span in sorted(m.spans.items(), key=lambda item: (item[0][0], item[1].stop)):
                stops, ys = segments.setdefault(x, ([], []))
                stops.append(span.stop)
                ys.append(y)
            assert m._segments == segments


class TestStageChecks:
    """build_chain verifies each new stage once; a faulty stage-2 row must not pass."""

    @staticmethod
    def build_with_faulty_row(monkeypatch, corrupt, stage="U2"):
        # corrupt the first integer row of `stage` with two or more atoms
        original = FrlMechanism.row
        chosen = []

        def patched(mech, x, y):
            span, widths, length = original(mech, x, y)
            if mech.u_alphabet.name != stage or len(widths) < 2:
                return span, widths, length
            if not chosen:
                chosen.append((x, y))
            if chosen[0] != (x, y):
                return span, widths, length
            return (span, *corrupt(widths, length))

        monkeypatch.setattr(FrlMechanism, "row", patched)
        p = random_database(random.Random(5), 3, 2, 1)
        try:
            return build_chain(p, ["Y1", "Y2"])
        finally:
            assert chosen, f"stage {stage} has no row with two atoms to corrupt"

    def test_row_summing_below_one(self, monkeypatch):
        # the first atom keeps half its width: doubled everywhere else
        def short(widths, length):
            return [widths[0]] + [2 * w for w in widths[1:]], 2 * length

        with pytest.raises(InvariantError, match="sum to 1"):
            self.build_with_faulty_row(monkeypatch, short)

    @staticmethod
    def shifted(widths, length):
        # the row still sums to 1 and every atom still decodes to the same y,
        # but half of the second atom's width moves to the first
        moved = [2 * w for w in widths]
        moved[0] += widths[1]
        moved[1] -= widths[1]
        return moved, 2 * length

    def test_mass_moved_inside_a_segment(self, monkeypatch):
        # U2 is no longer independent of (X, U1)
        with pytest.raises(InvariantError, match="independent"):
            self.build_with_faulty_row(monkeypatch, self.shifted)

    @staticmethod
    def with_corrupted_span(monkeypatch, stage, corrupt):
        # `corrupt(spans, u_size)` rewrites one span of the `stage` mechanism
        # as `_stage` makes it, before its rows are read
        original = frl_mod.FrlMechanism

        def corrupted(**fields):
            mech = original(**fields)
            if mech.u_alphabet.name != stage:
                return mech
            spans = dict(mech.spans)
            corrupt(spans, mech.u_size)
            return dataclasses.replace(mech, spans=spans)

        monkeypatch.setattr(frl_mod, "FrlMechanism", corrupted)

    @staticmethod
    def overlap(spans, u_size):
        # the first segment short of the end also takes its neighbour's first atom
        key = next(k for k, span in spans.items() if span.stop < u_size)
        spans[key] = range(spans[key].start, spans[key].stop + 1)

    @staticmethod
    def gap(spans, u_size):
        # the first segment of two or more atoms loses its last one
        key = next(k for k, span in spans.items() if len(span) > 1)
        spans[key] = range(spans[key].start, spans[key].stop - 1)

    @staticmethod
    def build(stage, designed_2x2):
        if stage == "U":
            return frl_construct(designed_2x2)
        return build_chain(random_database(random.Random(5), 3, 2, 1), ["Y1", "Y2"])

    @pytest.mark.parametrize("stage, message", [("U", r"Y not a function of \(X, U\)"),
                                                ("U2", r"Y2 not a function of \(X, U1, U2\)")],
                             ids=["U", "U2"])
    def test_span_overlapping_its_neighbour(self, monkeypatch, designed_2x2, stage, message):
        # the rows still sum to 1, but one atom of one state meets two targets
        self.with_corrupted_span(monkeypatch, stage, self.overlap)
        with pytest.raises(InvariantError, match=message):
            self.build(stage, designed_2x2)

    @pytest.mark.parametrize("stage, message", [("U", r"U not exactly independent of \(X\)"),
                                                ("U2", r"U2 not exactly independent of \(X, U1\)")],
                             ids=["U", "U2"])
    def test_span_with_a_gap(self, monkeypatch, designed_2x2, stage, message):
        # the rows still sum to 1, but one state never meets one atom
        self.with_corrupted_span(monkeypatch, stage, self.gap)
        with pytest.raises(InvariantError, match=message):
            self.build(stage, designed_2x2)


def reference_verify_stage(joint, given, u_name, target):
    """The stage check on the (given, U_k, target) marginal, its product tests slicing cells."""
    marg = joint.marginalize([*given, u_name, target])
    num, den = marg._ints()
    head = {}
    for cell, n in num.items():
        head[cell[:-1]] = head.get(cell[:-1], 0) + n
    if len(head) != len(num):
        raise InvariantError(f"{target} not a function of ({', '.join([*given, u_name])})")

    def product_test(table, na):
        pa, pb = {}, {}
        for cell, n in table.items():
            pa[cell[:na]] = pa.get(cell[:na], 0) + n
            pb[cell[na:]] = pb.get(cell[na:], 0) + n
        return len(table) == len(pa) * len(pb) and all(
            n * den == pa[cell[:na]] * pb[cell[na:]] for cell, n in table.items()), pa

    independent, states = product_test(head, len(given))
    if not independent:
        raise InvariantError(f"{u_name} not exactly independent of ({', '.join(given)})")
    if len(given) > 1 and not product_test(head, 1)[0]:
        raise InvariantError(f"{', '.join([*given[1:], u_name])} not exactly independent of {given[0]}")
    *_, u_alpha, y_alpha = marg.variables
    cap = cardinality_bound(len(states), y_alpha.size)
    if u_alpha.size > cap:
        raise InvariantError(f"|{u_name}|={u_alpha.size} exceeds the cardinality bound {cap}")


@st.composite
def stage_joints(draw):
    """(joint, given, u_name, target) for a pair stage laid out (U, X, Y) or a
    second chain stage laid out (X, Z, Y, U1, U2), Z an extra variable summed
    out. The (given, U_k) masses are a full product (a sound stage), a product
    over U_k only (U_1..U_k may depend on X) or arbitrary; the target is a
    function of (given, U_k), or forks on one cell; U_k's alphabet may pass its cap."""
    chain = draw(st.booleans())
    sizes = [draw(st.integers(1, 3)) for _ in range(3 if chain else 2)]  # X, [U1,] U_k
    weights = st.integers(0, 3)
    kind = draw(st.sampled_from(["full product", "product", "arbitrary"]))
    factors = [draw(st.lists(weights, min_size=n, max_size=n)) for n in sizes]
    given_table = draw(st.lists(weights, min_size=math.prod(sizes[:-1]), max_size=math.prod(sizes[:-1])))
    head = {}
    for i, cell in enumerate(itertools.product(*map(range, sizes))):
        if kind == "full product":
            head[cell] = math.prod(f[s] for f, s in zip(factors, cell))
        elif kind == "product":
            head[cell] = given_table[i // sizes[-1]] * factors[-1][cell[-1]]
        else:
            head[cell] = draw(weights)
    head = {cell: w for cell, w in head.items() if w}
    if not head:
        head = {(0,) * len(sizes): 1}
    y_size = draw(st.integers(1, 3))
    table = {cell: {draw(st.integers(0, y_size - 1)): 2 * w} for cell, w in head.items()}
    if draw(st.booleans()):  # a fork: half of one cell's mass under a second target symbol
        cell = draw(st.sampled_from(sorted(table)))
        (y, w), = table[cell].items()
        table[cell] = {y: w // 2, (y + 1) % y_size: w // 2}
    u_size = sizes[-1] + draw(st.integers(0, 3))
    z_weights = [draw(st.integers(1, 2)) for _ in range(draw(st.integers(1, 2)))] if chain else [1]
    cells = {}
    for cell, row in table.items():
        for y, w in row.items():
            for z, r in enumerate(z_weights):
                if chain:
                    x, u1, u2 = cell
                    cells[(x, z, y, u1, u2)] = cells.get((x, z, y, u1, u2), 0) + w * r
                else:
                    x, u = cell
                    cells[(u, x, y)] = cells.get((u, x, y), 0) + w
    total = sum(cells.values())
    if chain:
        alphabets = [("X", sizes[0]), ("Z", len(z_weights)), ("Y", y_size), ("U1", sizes[1]), ("U2", u_size)]
        stage = (["X", "U1"], "U2", "Y")
    else:
        alphabets = [("U", u_size), ("X", sizes[0]), ("Y", y_size)]
        stage = (["X"], "U", "Y")
    joint = JointDist([Alphabet(n, size) for n, size in alphabets],
                      {cell: F(w, total) for cell, w in cells.items()})
    return (joint, *stage)


def check_joint(joint, given, u_name, target):
    """`frl._check_stage` on the joint a stage lives in, fed from one walk of it:
    its (given state, U_k) marginal, one row per given state, and whether a
    cell of it meets two targets."""
    *given_axes, u_axis, y_axis = joint._axes([*given, u_name, target])
    num, _ = joint._ints()
    head, image = {}, {}
    forked = False
    for cell, n in num.items():
        state, u = tuple(cell[a] for a in given_axes), cell[u_axis]
        row = head.setdefault(state, {})
        row[u] = row.get(u, 0) + n
        forked |= image.setdefault((state, u), cell[y_axis]) != cell[y_axis]
    frl_mod._check_stage(head, forked, given, joint.variables[u_axis], joint.variables[y_axis])


def stage_outcome(check, joint, given, u_name, target):
    try:
        check(joint, given, u_name, target)
    except InvariantError as exc:
        return str(exc)
    return None


class TestStageVerifier:
    """The one stage check, fed from a walk of hand-built joints, each breaking one property."""

    @staticmethod
    def uniform_on(variables, cells):
        return JointDist([Alphabet(n, size) for n, size in variables],
                         {cell: F(1, len(cells)) for cell in cells})

    BITS = list(itertools.product(range(2), repeat=2))

    def test_sound_stage_passes(self):
        # U2 a fresh fair bit and Y2 = X
        joint = self.uniform_on([("X", 2), ("U1", 2), ("U2", 2), ("Y2", 2)],
                                [(x, u1, u2, x) for x, u1, u2 in itertools.product(range(2), repeat=3)])
        check_joint(joint, ["X", "U1"], "U2", "Y2")

    def test_pair_u_dependent_on_x(self):
        joint = self.uniform_on([("U", 2), ("X", 2), ("Y", 2)], [(0, 0, 0), (1, 1, 1)])
        with pytest.raises(InvariantError, match=r"U not exactly independent of \(X\)"):
            check_joint(joint, ["X"], "U", "Y")

    def test_stage_copying_an_earlier_auxiliary(self):
        # U2 = U1: U1..U2 stays independent of X, but U2 is a function of U1
        joint = self.uniform_on([("X", 2), ("U1", 2), ("U2", 2), ("Y2", 2)],
                                [(x, u, u, x) for x, u in self.BITS])
        with pytest.raises(InvariantError, match=r"U2 not exactly independent of \(X, U1\)"):
            check_joint(joint, ["X", "U1"], "U2", "Y2")

    def test_earlier_auxiliary_dependent_on_x(self):
        # U1 = X and U2 a fresh fair bit: U2 is independent of (X, U1), U1..U2 is not of X
        joint = self.uniform_on([("X", 2), ("U1", 2), ("U2", 2), ("Y2", 2)],
                                [(x, x, u, x) for x, u in self.BITS])
        with pytest.raises(InvariantError, match="U1, U2 not exactly independent of X"):
            check_joint(joint, ["X", "U1"], "U2", "Y2")

    def test_target_not_a_function(self):
        joint = self.uniform_on([("U", 2), ("X", 2), ("Y", 2)],
                                list(itertools.product(range(2), repeat=3)))
        with pytest.raises(InvariantError, match=r"Y not a function of \(X, U\)"):
            check_joint(joint, ["X"], "U", "Y")

    def test_u_over_its_cap(self):
        # one x symbol and a binary Y allow 1 * (2 - 1) + 1 = 2 atoms
        joint = self.uniform_on([("U", 4), ("X", 1), ("Y", 2)], [(u, 0, u % 2) for u in range(4)])
        with pytest.raises(InvariantError, match=r"\|U\|=4 exceeds the cardinality bound 2"):
            check_joint(joint, ["X"], "U", "Y")

    @settings(max_examples=300, deadline=None)
    @given(stage_joints())
    def test_matches_the_marginal_reference(self, case):
        assert stage_outcome(check_joint, *case) == stage_outcome(reference_verify_stage, *case)

    def test_reference_sees_every_verdict(self):
        # the hand-built joints of this class, one per verdict, through both checks
        bits = self.BITS
        cases = [
            ([("X", 2), ("U1", 2), ("U2", 2), ("Y2", 2)],
             [(x, u1, u2, x) for x, u1, u2 in itertools.product(range(2), repeat=3)], None),
            ([("X", 2), ("U1", 2), ("U2", 2), ("Y2", 2)], [(x, u, u, x) for x, u in bits],
             "U2 not exactly independent of (X, U1)"),
            ([("X", 2), ("U1", 2), ("U2", 2), ("Y2", 2)], [(x, x, u, x) for x, u in bits],
             "U1, U2 not exactly independent of X"),
            ([("X", 2), ("U1", 2), ("U2", 2), ("Y2", 2)],
             [(x, u1, u2, y) for x, u1, u2, y in itertools.product(range(2), repeat=4)],
             "Y2 not a function of (X, U1, U2)"),
            ([("X", 1), ("U1", 1), ("U2", 4), ("Y2", 2)], [(0, 0, u, u % 2) for u in range(4)],
             "|U2|=4 exceeds the cardinality bound 2"),
        ]
        for variables, cells, verdict in cases:
            case = (self.uniform_on(variables, cells), ["X", "U1"], "U2", "Y2")
            assert stage_outcome(check_joint, *case) == verdict
            assert stage_outcome(reference_verify_stage, *case) == verdict


class TestBuiltStagesMatchTheReference:
    """build_chain and frl_construct gather each stage's check input as they
    write the stage's product table. Every check either runs must reach the
    verdict that the marginal reference reaches on the joint it built (for a
    pair, the (U, X, Y) joint of its rows). A failing check is recorded here,
    not raised, so the chain is built whole and the later stages are checked
    on top of a faulty one."""

    @staticmethod
    def recording(seen):
        original = frl_mod._check_stage

        def record(*args):
            try:
                original(*args)
            except InvariantError as exc:
                seen.append(str(exc))
            else:
                seen.append(None)
        return record

    @staticmethod
    def reference(chain):
        u_names = [stage.mechanism.u_alphabet.name for stage in chain.stages]
        return [stage_outcome(reference_verify_stage, chain.joint,
                              [chain.joint.names[0], *u_names[:i]], u_names[i], target)
                for i, target in enumerate(chain.targets)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3), st.booleans())
    def test_sound_chains(self, seed, x_size, n_files, sparse):
        p = random_database(random.Random(seed), x_size, n_files, 1, sparse)
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(frl_mod, "_check_stage", self.recording(seen))
            chain = build_chain(p, [f"Y{i}" for i in range(n_files, 0, -1)])
        assert seen == self.reference(chain) == [None] * n_files

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 4), st.booleans())
    def test_pair_mechanisms(self, seed, x_size, y_size, sparse):
        pxy = random_pair(random.Random(seed), x_size, y_size, sparse)
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(frl_mod, "_check_stage", self.recording(seen))
            mech = frl_construct(pxy)
        assert seen == [stage_outcome(reference_verify_stage, mechanism_joint(mech, pxy),
                                      ["X"], "U", "Y")] == [None]

    @pytest.mark.parametrize("corrupt", ["overlap", "gap"])
    @pytest.mark.parametrize("stage", ["U", "U2"])
    def test_corrupted_span(self, monkeypatch, designed_2x2, stage, corrupt):
        TestStageChecks.with_corrupted_span(monkeypatch, stage, getattr(TestStageChecks, corrupt))
        seen = []
        monkeypatch.setattr(frl_mod, "_check_stage", self.recording(seen))
        built = TestStageChecks.build(stage, designed_2x2)
        if stage == "U":
            assert seen == [stage_outcome(reference_verify_stage, mechanism_joint(built, designed_2x2),
                                          ["X"], "U", "Y")]
        else:
            assert seen == self.reference(built)
        assert seen[-1] is not None
        assert ("not a function" if corrupt == "overlap" else "not exactly independent") in seen[-1]

    @pytest.mark.parametrize("stage", ["U1", "U2"])
    def test_mass_moved_inside_a_segment(self, monkeypatch, stage):
        seen = []
        monkeypatch.setattr(frl_mod, "_check_stage", self.recording(seen))
        chain = TestStageChecks.build_with_faulty_row(monkeypatch, TestStageChecks.shifted, stage)
        assert seen == self.reference(chain)
        assert seen[int(stage[1:]) - 1] is not None

    @pytest.mark.parametrize("stage", ["U1", "U2"])
    def test_u_alphabet_over_its_cap(self, monkeypatch, stage):
        original = frl_mod.FrlMechanism

        def inflated(**fields):
            mech = original(**fields)
            if mech.u_alphabet.name != stage:
                return mech
            return dataclasses.replace(mech, u_alphabet=Alphabet(stage, mech.u_size + 1000))

        seen = []
        monkeypatch.setattr(frl_mod, "FrlMechanism", inflated)
        monkeypatch.setattr(frl_mod, "_check_stage", self.recording(seen))
        chain = build_chain(random_database(random.Random(5), 3, 2, 1), ["Y1", "Y2"])
        assert seen == self.reference(chain)
        assert "exceeds the cardinality bound" in seen[int(stage[1:]) - 1]


class TestStageLimit:
    """A stage whose joint would pass `limit` cells fails before it is built."""

    @staticmethod
    def stage_cells(p, targets):
        return [len(build_chain(p, targets[:i]).joint) for i in range(1, len(targets) + 1)]

    def test_limit_between_stages(self, monkeypatch):
        p = random_database(random.Random(1), 3, 3, 1)
        targets = ["Y1", "Y2", "Y3"]
        _, stage2, stage3 = self.stage_cells(p, targets)
        assert stage2 < stage3
        limit = (stage2 + stage3) // 2
        built = []
        original = JointDist._exact.__func__

        def recording(cls, variables, num, den):
            built.append(len(num))
            return original(cls, variables, num, den)

        monkeypatch.setattr(JointDist, "_exact", classmethod(recording))
        with pytest.raises(LimitError, match=f"stage 3 .* {stage3} cells.*limit {limit}"):
            build_chain(p, targets, limit=limit)
        assert built and max(built) <= limit

    def test_mechanism_limit_checked_before_segments(self, monkeypatch):
        # `_stage` given X, with a limit
        d = random_pair(random.Random(3), 3, 3)
        cells = len(mechanism_joint(frl_construct(d), d))
        made = []

        def bisect_left(*args):
            made.append("span search")
            return bisect.bisect_left(*args)

        original = JointDist._exact.__func__

        def recording(cls, *args, **kwargs):
            made.append("table")
            return original(cls, *args, **kwargs)

        # the span search over `bounds`, and the stage's product table after it
        monkeypatch.setattr(frl_mod, "bisect", types.SimpleNamespace(bisect_left=bisect_left))
        monkeypatch.setattr(JointDist, "_exact", classmethod(recording))
        # the stage names itself in its LimitError, as in a row fault
        with pytest.raises(LimitError, match=fr"^pair \(X, Y\): the U mechanism needs {cells} cells, "
                                             fr"over the limit {cells - 1}$"):
            frl_mod._stage(d, (0,), 1, "U", None, "pair (X, Y)", cells - 1)
        assert made == []
        mech, joint = frl_mod._stage(d, (0,), 1, "U", None, "pair (X, Y)", cells)
        assert len(mechanism_joint(mech, d)) == len(joint) == cells
        assert made[0] == "span search" and made[-1] == "table"

    def test_limit_at_stage_size_passes(self):
        # the chain joint also carries Y3, so the stage-2 product outgrows
        # the stage-2 mechanism and the product count is what trips
        p = random_database(random.Random(1), 3, 3, 1)
        cells = self.stage_cells(p, ["Y1", "Y2"])
        assert len(build_chain(p, ["Y1", "Y2"], limit=cells[-1]).joint) == cells[-1]
        with pytest.raises(LimitError, match=fr"^chain stage 2 \(Y2\): the product needs {cells[-1]} cells"):
            build_chain(p, ["Y1", "Y2"], limit=cells[-1] - 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3), st.booleans())
    def test_limit_at_and_one_below_the_product(self, seed, x_size, n_files, sparse):
        # the last stage's product has as many cells as the chain joint, so a
        # limit one below it raises; no stage or mechanism needs more than it
        p = random_database(random.Random(seed), x_size, n_files, 1, sparse)
        targets = [f"Y{i}" for i in range(1, n_files + 1)]
        cells = len(build_chain(p, targets).joint)
        assert len(build_chain(p, targets, limit=cells).joint) == cells
        with pytest.raises(LimitError, match=f"needs {cells} cells, over the limit {cells - 1}"):
            build_chain(p, targets, limit=cells - 1)

    def test_private_alphabet_over_the_limit(self, monkeypatch, tmp_path, capsys):
        # one positive cell: the mechanism needs 1 cell, but `frl build`'s
        # list of the dropped x symbols walks all 101
        spec, out = tmp_path / "pair.dist", tmp_path / "mech.json"
        spec.write_text("var X 101\nvar Y 2\np 0 0 1\n")
        argv = ["frl", "build", "--spec", str(spec), "--out", str(out)]
        monkeypatch.setattr(frl_mod, "DEFAULT_STATE_LIMIT", 100)
        assert main(argv) == 3
        assert capsys.readouterr().err == \
            "resource limit: the U mechanism's X has 101 symbols, over the limit 100\n"
        assert not out.exists()
        monkeypatch.setattr(frl_mod, "DEFAULT_STATE_LIMIT", 101)
        assert main(argv) == 0
        assert json.loads(out.read_text())["dropped_x"] == list(range(1, 101))
