"""Separating pairs, separators, effects, and reaction time."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncreact import (
    bisim_quotient,
    det_reaction_time,
    diff,
    reactive,
    separating_pairs,
    separators,
    strongly_separable,
)
from syncreact.core import BisimOracle
from syncreact.errors import SignatureMismatch, UnknownState
from syncreact.lasso import STAR
from syncreact.reactivity import class_gaps, row_orientations

from .oracles import (
    brute_separators,
    guaranteed_diff_index,
    naive_non_bisimilar,
    orientations,
    random_system,
)


class TestSeparatingPairs:
    def test_p1_single_pair(self, p1_sys):
        for state in ("p0", "p2"):
            result = separating_pairs(p1_sys, state)
            assert result.pairs == (("tt", "ff"),)
            assert result.deterministic_subset == (("tt", "ff"),)

    def test_const_not_reactive(self, const_sys):
        result = separating_pairs(const_sys, "c0")
        assert result.pairs == ()
        assert not result.reactive

    def test_p2_single_pair(self, p2_sys):
        for state in ("q0", "q3"):
            assert separating_pairs(p2_sys, state).pairs == (("tt", "ff"),)

    def test_unknown_state(self, const_sys):
        with pytest.raises(UnknownState):
            separating_pairs(const_sys, "zz")

    def test_soundness_by_formula_replay(self, p1_sys, p2_sys, toggle_sys, union_sys):
        for sys in (p1_sys, p2_sys, toggle_sys, union_sys):
            for q in sys.states:
                result = separating_pairs(sys, q)
                for (a1, a2) in sys.inputs.unordered_pairs():
                    s1 = sys.successors(q, a1)
                    s2 = sys.successors(q, a2)
                    holds = any(
                        all(naive_non_bisimilar(sys, x, sys, y) for y in s2)
                        for x in s1
                    ) or any(
                        all(naive_non_bisimilar(sys, x, sys, y) for x in s1)
                        for y in s2
                    )
                    assert holds == ((a1, a2) in result.pairs)
                for pair in result.deterministic_subset:
                    assert pair in result.pairs

    def test_formula_replay_on_random_systems(self):
        rng = random.Random(31)
        for i in range(8):
            sys = random_system(rng, f"r{i}", 8, ("a", "b", "c"), ("0", "1"))
            for q in sys.states:
                result = separating_pairs(sys, q)
                for (a1, a2) in sys.inputs.unordered_pairs():
                    s1 = sys.successors(q, a1)
                    s2 = sys.successors(q, a2)
                    holds = any(
                        all(naive_non_bisimilar(sys, x, sys, y) for y in s2)
                        for x in s1
                    ) or any(
                        all(naive_non_bisimilar(sys, x, sys, y) for x in s1)
                        for y in s2
                    )
                    assert holds == ((a1, a2) in result.pairs)
                    deterministic = holds and all(
                        naive_non_bisimilar(sys, x, sys, y)
                        for x in s1
                        for y in s2
                    )
                    assert deterministic == (
                        (a1, a2) in result.deterministic_subset
                    )


class TestRowOrientations:
    def test_each_bit_is_the_pair_orientation(self):
        rng = random.Random(37)
        for i in range(12):
            sys = random_system(rng, f"r{i}", 12, ("a", "b", "c"), ("0", "1"), 0.4)
            oracle = BisimOracle(sys, sys)
            cls = oracle.cls_a
            everything = (1 << len(sys.states)) - 1
            gaps = class_gaps(sys.succ, cls, len(sys.inputs))
            for moves_p in sys.succ:
                masks = row_orientations(moves_p, cls, gaps, everything)
                for (ae, af), bits in masks.items():
                    a1, a2 = sorted((ae, af))
                    for q, moves_q in enumerate(sys.succ):
                        held = orientations(moves_p, moves_q, cls, cls, a1, a2)
                        assert (bits >> q & 1) == ((ae, af) in held)


class TestSeparators:
    def test_p1_only_separator(self, p1_sys):
        assert separators(p1_sys, "p0", p1_sys, "p1", 3) == [(("ff",), True)]

    def test_p2_separator_ladder(self, p2_sys):
        found = separators(p2_sys, "q0", p2_sys, "q1", 4)
        words = {w for (w, _) in found}
        assert words == {
            ("ff",),
            ("tt", "ff"),
            ("tt", "tt", "ff"),
            ("tt", "tt", "tt", "tt"),
            ("tt", "tt", "tt", "ff"),
        }
        assert all(det for (_, det) in found)

    def test_identical_states_have_none(self, p1_sys):
        for q in p1_sys.states:
            assert separators(p1_sys, q, p1_sys, q, 4) == []

    def test_matches_brute_force_on_fixtures(self, p1_sys, p2_sys, union_sys):
        cases = [
            (p1_sys, "p0", "p1"),
            (p1_sys, "p0", "p2"),
            (p2_sys, "q0", "q1"),
            (p2_sys, "q1", "q3"),
            (union_sys, "w0", "x1"),
        ]
        for (sys, p, q) in cases:
            fast = separators(sys, p, sys, q, 5)
            brute = brute_separators(sys, p, sys, q, 5)
            assert sorted(fast) == sorted(brute)

    def test_matches_brute_force_on_random_systems(self):
        rng = random.Random(11)
        for i in range(25):
            sys = random_system(rng, f"r{i}", 6, ("a", "b"), ("0", "1"))
            p, q = rng.choice(sys.states), rng.choice(sys.states)
            fast = separators(sys, p, sys, q, 5)
            brute = brute_separators(sys, p, sys, q, 5)
            assert sorted(fast) == sorted(brute)


class TestStronglySeparable:
    def test_p1_false_with_tt_cycle(self, p1_sys):
        verdict = strongly_separable(p1_sys, "p1", p1_sys, "p0")
        assert not verdict.separable
        assert verdict.cycle is not None
        assert all(sym == "tt" for (_, sym) in verdict.cycle)

    def test_p2_true(self, p2_sys):
        verdict = strongly_separable(p2_sys, "q1", p2_sys, "q0")
        assert verdict.separable
        assert verdict.bound == 3

    def test_diagonal_pairs_never_separable(self, p1_sys, toggle_sys):
        for sys in (p1_sys, toggle_sys):
            for q in sys.states:
                assert not strongly_separable(sys, q, sys, q).separable

    def test_implies_deterministic_separator_exists(self, p2_sys, toggle_sys, delay1_sys):
        cases = [
            (p2_sys, "q1", "q0"),
            (toggle_sys, "s1", "s0"),
            (delay1_sys, "s1", "s2"),
        ]
        for (sys, p, q) in cases:
            verdict = strongly_separable(sys, p, sys, q)
            assert verdict.separable
            found = separators(sys, p, sys, q, verdict.bound + 1)
            assert any(det for (_, det) in found)

    def test_signature_mismatch(self, p1_sys, union_sys):
        with pytest.raises(SignatureMismatch):
            strongly_separable(p1_sys, "p0", union_sys, "w0")

    def test_matches_path_length_oracle_on_random_systems(self):
        # Pigeonhole oracle: an all-EQ path longer than the number of
        # state pairs exists iff the EQ region has a reachable cycle.
        rng = random.Random(17)
        for i in range(40):
            sys = random_system(rng, f"r{i}", 5, ("a", "b"), ("0", "1"))
            p, q = rng.choice(sys.states), rng.choice(sys.states)
            verdict = strongly_separable(sys, p, sys, q)
            bound = len(sys.states) ** 2 + 1
            frontier = {(p, q)} if sys.out(p) == sys.out(q) else set()
            survived = bool(frontier)
            for _ in range(bound):
                if not frontier:
                    survived = False
                    break
                frontier = {
                    (r1, r2)
                    for (s1, s2) in frontier
                    for sym in sys.inputs
                    for r1 in sys.successors(s1, sym)
                    for r2 in sys.successors(s2, sym)
                    if sys.out(r1) == sys.out(r2)
                }
            else:
                survived = bool(frontier)
            assert verdict.separable == (not survived)
            if not verdict.separable:
                # Replay the certificate: a closed all-EQ walk.
                cycle = verdict.cycle
                for idx, ((s1, s2), sym) in enumerate(cycle):
                    assert sys.out(s1) == sys.out(s2)
                    (n1, n2), _ = cycle[(idx + 1) % len(cycle)]
                    assert n1 in sys.successors(s1, sym)
                    assert n2 in sys.successors(s2, sym)



def uncovered(deterministic: set, symbols, length: int):
    """Input words of ``length`` none of whose prefixes is in ``deterministic``, lazily."""
    stack = [()]
    while stack:
        word = stack.pop()
        if word in deterministic:
            continue
        if len(word) == length:
            yield word
            continue
        stack.extend(word + (a,) for a in symbols)


def random_pair(seed: int):
    """Two random complete systems of one signature (often one system) and two states.

    The second state shares the first one's output where it can, so that
    most pairs are not told apart by the empty word.
    """
    rng = random.Random(seed)
    sys_a = random_system(rng, "a", 8, ("a", "b"), ("0", "1", "2"))
    if rng.random() < 0.3:
        sys_b = sys_a
    else:
        sys_b = random_system(rng, "b", 8, ("a", "b"), ("0", "1", "2"))
    p = rng.choice(sys_a.states)
    alike = [
        q for q in sys_b.states
        if sys_b.out(q) == sys_a.out(p) and (sys_b is not sys_a or q != p)
    ]
    return sys_a, p, sys_b, rng.choice(alike or sys_b.states)


class TestStrongSeparabilityAgreesWithSeparators:
    """``strongly_separable`` against the deterministic separators it promises."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_bound_plus_one_is_covered_and_bound_is_not(self, seed):
        sys_a, p, sys_b, q = random_pair(seed)
        verdict = strongly_separable(sys_a, p, sys_b, q)
        if not verdict.separable:
            return
        b = verdict.bound
        found = separators(sys_a, p, sys_b, q, b + 1)
        deterministic = {word for (word, det) in found if det}
        symbols = sys_a.inputs.symbols
        assert next(uncovered(deterministic, symbols, b + 1), None) is None
        if b >= 1:
            assert next(uncovered(deterministic, symbols, b), None) is not None

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_non_separable_pair_leaves_a_length_4_word_uncovered(self, seed):
        sys_a, p, sys_b, q = random_pair(seed)
        if strongly_separable(sys_a, p, sys_b, q).separable:
            return
        found = separators(sys_a, p, sys_b, q, 4)
        deterministic = {word for (word, det) in found if det}
        assert next(uncovered(deterministic, sys_a.inputs.symbols, 4), None) is not None

class TestDiff:
    def test_p1_effect_at_index_one(self, p1_sys):
        table = diff(p1_sys, "p0", p1_sys, "p1", ["ff", "ff"])
        assert table[0] == {STAR}
        assert table[1] == {("ff", "tt")}

    def test_p2_effect_at_index_two(self, p2_sys):
        table = diff(p2_sys, "q0", p2_sys, "q1", ["tt", "ff", "ff"])
        assert table[0] == {STAR}
        assert table[1] == {STAR}
        assert {frozenset(v) for v in table[2]} == {frozenset(("ff", "tt"))}

    def test_diagonal_all_silent(self, p1_sys):
        table = diff(p1_sys, "p1", p1_sys, "p1", ["tt", "ff", "tt"])
        assert all(v == {STAR} for v in table)

    def test_union_mixed_values_at_one_index(self, union_sys):
        table = diff(union_sys, "w0", union_sys, "w0", ["A"])
        assert table[0] == {STAR}
        # Nondeterministic branches both agree and disagree at index 1.
        assert STAR in table[1]
        assert ("1", "2") in table[1]


class TestReactionTime:
    def test_toggle_immediate(self, toggle_sys):
        result = det_reaction_time(toggle_sys, "s0")
        assert result.time == 0
        assert result.witness == ()

    def test_toggle_agrees_with_brute_force(self, toggle_sys):
        lim = 3
        seen = set()
        for word in itertools.product(toggle_sys.inputs.symbols, repeat=lim):
            idx = guaranteed_diff_index(toggle_sys, "s1", toggle_sys, "s0", word)
            assert idx is not None
            seen.add(idx)
        assert max(seen) == 0

    def test_p1_infinite(self, p1_sys):
        assert det_reaction_time(p1_sys, "p0").time is None

    def test_p2_finite_four_with_witness(self, p2_sys):
        result = det_reaction_time(p2_sys, "q0")
        assert result.time == 4
        assert result.witness is not None and len(result.witness) == 4
        assert result.witness[:3] == ("tt", "tt", "tt")

    def test_p2_witness_first_guaranteed_diff_is_exactly_four(self, p2_sys):
        result = det_reaction_time(p2_sys, "q0")
        word = result.witness + ("tt", "ff")
        assert guaranteed_diff_index(p2_sys, "q1", p2_sys, "q0", word) == 4
        # No word of length t+2 shows a later first guaranteed effect.
        for word in itertools.product(p2_sys.inputs.symbols, repeat=6):
            idx = guaranteed_diff_index(p2_sys, "q1", p2_sys, "q0", word)
            assert idx is not None and idx <= 4

    def test_delay1_finite(self, delay1_sys):
        result = det_reaction_time(delay1_sys, "s0")
        assert result.time == 1

    def test_const_infinite(self, const_sys):
        assert det_reaction_time(const_sys, "c0").time is None


class TestBisimulationInvariance:
    def test_analyses_agree_on_quotient(self, p1_sys, p2_sys, union_sys, delay1_sys):
        for sys in (p1_sys, p2_sys, union_sys, delay1_sys):
            partition, quotient = bisim_quotient(sys)
            image = {
                q: partition.representative[partition.class_of[q]]
                for q in sys.states
            }
            for q in sys.states:
                original = separating_pairs(sys, q)
                reduced = separating_pairs(quotient, image[q])
                assert original.pairs == reduced.pairs
                assert original.deterministic_subset == reduced.deterministic_subset
                assert (
                    det_reaction_time(sys, q).time
                    == det_reaction_time(quotient, image[q]).time
                )
                assert reactive(sys, q) == reactive(quotient, image[q])
