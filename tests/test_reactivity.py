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
    disjoint_union,
    reactive,
    separating_pairs,
    separators,
    strongly_separable,
)
from syncreact.core import Alphabet, BisimOracle, SynchronousSystem, validate
from syncreact.errors import PreconditionFailed, SignatureMismatch, UnknownState
from syncreact.lasso import STAR
from syncreact.reactivity import ReactionTime, StrongSepResult
from syncreact.separation import class_gaps, row_orientations

from .conftest import count_expansions
from .oracles import (
    brute_diff,
    brute_separators,
    guaranteed_diff_index,
    naive_non_bisimilar,
    naive_reaction_time,
    naive_strongly_separable,
    orientations,
    random_system,
    sized_system,
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
                for (a1, a2) in itertools.combinations(sys.inputs.symbols, 2):
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
                for (a1, a2) in itertools.combinations(sys.inputs.symbols, 2):
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
            cls = BisimOracle(sys).cls
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
        assert separators(p1_sys, "p0", "p1", 3) == [(("ff",), True)]

    def test_p2_separator_ladder(self, p2_sys):
        found = separators(p2_sys, "q0", "q1", 4)
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
            assert separators(p1_sys, q, q, 4) == []

    def test_matches_brute_force_on_fixtures(self, p1_sys, p2_sys, union_sys):
        cases = [
            (p1_sys, "p0", "p1"),
            (p1_sys, "p0", "p2"),
            (p2_sys, "q0", "q1"),
            (p2_sys, "q1", "q3"),
            (union_sys, "w0", "x1"),
        ]
        for (sys, p, q) in cases:
            fast = separators(sys, p, q, 5)
            brute = brute_separators(sys, p, sys, q, 5)
            assert sorted(fast) == sorted(brute)

    def test_matches_brute_force_on_random_systems(self):
        rng = random.Random(11)
        nondeterministic = 0
        for i in range(150):
            inputs = ("a", "b", "c")[: rng.randint(2, 3)]
            sys = random_system(rng, f"r{i}", 6, inputs, ("0", "1", "2"), nondet_prob=0.4)
            p, q = rng.choice(sys.states), rng.choice(sys.states)
            fast = separators(sys, p, q, 5)
            brute = brute_separators(sys, p, sys, q, 5)
            assert sorted(fast) == sorted(brute), (sys.transitions, p, q)
            nondeterministic += any(not det for _, det in fast)
        assert nondeterministic > 30


class TestStronglySeparable:
    def test_p1_false_with_tt_cycle(self, p1_sys):
        verdict = strongly_separable(p1_sys, "p1", "p0")
        assert not verdict.separable
        assert verdict.cycle is not None
        assert all(sym == "tt" for (_, sym) in verdict.cycle)

    def test_p2_true(self, p2_sys):
        verdict = strongly_separable(p2_sys, "q1", "q0")
        assert verdict.separable
        assert verdict.bound == 3

    def test_diagonal_pairs_never_separable(self, p1_sys, toggle_sys):
        for sys in (p1_sys, toggle_sys):
            for q in sys.states:
                assert not strongly_separable(sys, q, q).separable

    def test_implies_deterministic_separator_exists(self, p2_sys, toggle_sys, delay1_sys):
        cases = [
            (p2_sys, "q1", "q0"),
            (toggle_sys, "s1", "s0"),
            (delay1_sys, "s1", "s2"),
        ]
        for (sys, p, q) in cases:
            verdict = strongly_separable(sys, p, q)
            assert verdict.separable
            found = separators(sys, p, q, verdict.bound + 1)
            assert any(det for (_, det) in found)

    def test_signature_mismatch(self, p1_sys, union_sys):
        with pytest.raises(SignatureMismatch):
            disjoint_union(p1_sys, union_sys)

    def test_matches_path_length_oracle_on_random_systems(self):
        # Pigeonhole oracle: an all-EQ path longer than the number of
        # state pairs exists iff the EQ region has a reachable cycle.
        rng = random.Random(17)
        for i in range(40):
            sys = random_system(rng, f"r{i}", 5, ("a", "b"), ("0", "1"))
            p, q = rng.choice(sys.states), rng.choice(sys.states)
            verdict = strongly_separable(sys, p, q)
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
    """A state of each of two random complete systems of one signature, and the system asked.

    The two systems are often one system, which is then the system
    asked; otherwise it is their disjoint union.  The second state
    shares the first one's output where it can, so that most pairs are
    not told apart by the empty word.
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
    q = rng.choice(alike or sys_b.states)
    if sys_b is sys_a:
        return sys_a, p, q
    union, pa, pb = disjoint_union(sys_a, sys_b)
    return union, pa + p, pb + q


class TestStrongSeparabilityAgreesWithSeparators:
    """``strongly_separable`` against the deterministic separators it promises."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_bound_plus_one_is_covered_and_bound_is_not(self, seed):
        sys, p, q = random_pair(seed)
        verdict = strongly_separable(sys, p, q)
        if not verdict.separable:
            return
        b = verdict.bound
        found = separators(sys, p, q, b + 1)
        deterministic = {word for (word, det) in found if det}
        symbols = sys.inputs.symbols
        assert next(uncovered(deterministic, symbols, b + 1), None) is None
        if b >= 1:
            assert next(uncovered(deterministic, symbols, b), None) is not None

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_non_separable_pair_leaves_a_length_4_word_uncovered(self, seed):
        sys, p, q = random_pair(seed)
        if strongly_separable(sys, p, q).separable:
            return
        found = separators(sys, p, q, 4)
        deterministic = {word for (word, det) in found if det}
        assert next(uncovered(deterministic, sys.inputs.symbols, 4), None) is not None

class TestDiff:
    def test_p1_effect_at_index_one(self, p1_sys):
        table = diff(p1_sys, "p0", "p1", ["ff", "ff"])
        assert table[0] == {STAR}
        assert table[1] == {("ff", "tt")}

    def test_p2_effect_at_index_two(self, p2_sys):
        table = diff(p2_sys, "q0", "q1", ["tt", "ff", "ff"])
        assert table[0] == {STAR}
        assert table[1] == {STAR}
        assert {frozenset(v) for v in table[2]} == {frozenset(("ff", "tt"))}

    def test_diagonal_all_silent(self, p1_sys):
        table = diff(p1_sys, "p1", "p1", ["tt", "ff", "tt"])
        assert all(v == {STAR} for v in table)

    def test_union_mixed_values_at_one_index(self, union_sys):
        table = diff(union_sys, "w0", "w0", ["A"])
        assert table[0] == {STAR}
        # Nondeterministic branches both agree and disagree at index 1.
        assert STAR in table[1]
        assert ("1", "2") in table[1]

    def test_matches_run_enumeration_on_random_nondeterministic_systems(self):
        rng = random.Random(39)
        cases = mixed = 0
        while cases < 300:
            inputs = ("a", "b", "c")[: rng.randint(2, 3)]
            sys = random_system(rng, f"r{cases}", 7, inputs, ("0", "1", "2"), nondet_prob=0.4)
            if all(len(targets) == 1 for moves in sys.succ for targets in moves):
                continue
            p, q = rng.choice(sys.states), rng.choice(sys.states)
            word = [rng.choice(inputs) for _ in range(rng.randint(0, 6))]
            table = diff(sys, p, q, word)
            assert table == brute_diff(sys, p, q, word), (sys.transitions, p, q, word)
            cases += 1
            mixed += any(len(values) > 1 for values in table)
        assert mixed > 30


    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.sampled_from(("a", "b")), min_size=1, max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_guaranteed_effect_has_a_deterministic_separator_prefix(self, seed, word):
        """A non-silent singleton at index n >= 1 of ``diff`` along ``word``
        means ``separators(.., n)`` lists a prefix of ``word[:n]`` as
        deterministic."""
        sys, p, q = random_pair(seed)
        table = diff(sys, p, q, word)
        for n in range(1, len(word) + 1):
            if STAR in table[n] or len(table[n]) != 1:
                continue
            found = separators(sys, p, q, n)
            head = tuple(word[:n])
            assert any(det and head[: len(w)] == w for (w, det) in found), (n, found)


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

    def test_incomplete_system_is_rejected(self):
        # q has output 0 and only q -b-> x; x has output 1 and loops on a and b.
        sys = build(("a", "b"), {"q": "0", "x": "1"}, {"q": [(), ("x",)], "x": [("x",), ("x",)]})
        message = "system built: incomplete: state q has no transition on input a"
        with pytest.raises(PreconditionFailed, match=message):
            det_reaction_time(sys, "q")
        # One completeness check per system, shared with validate.
        assert vars(sys)["gaps"] == [(0, 0)]
        assert validate(sys) == ["incomplete: state q has no transition on input a"]


def build(inputs, out_label: dict, moves: dict) -> SynchronousSystem:
    """A system from ``state -> output`` and ``state -> one successor set per input``."""
    return SynchronousSystem(
        name="built",
        inputs=Alphabet(inputs),
        outputs=Alphabet(tuple(sorted(set(out_label.values())))),
        states=tuple(out_label),
        transitions=tuple(
            (q, a, t) for q, targets in moves.items() for a, ts in zip(inputs, targets) for t in ts
        ),
        out_label=out_label,
        initial=next(iter(out_label)),
    )


def shared_region_system(m: int) -> SynchronousSystem:
    """q's only deterministic pair (a, b) has two successor pairs, (x1, y) and (x2, y).

    Both step into one EQ chain of m pairs (c_i, d_i) that ends at a DIFF pair.
    """
    out_label = {"q": "0", "x1": "0", "x2": "0", "y": "0"}
    moves = {"q": [("x1", "x2"), ("y",)], "x1": [("c0",)] * 2, "x2": [("c0",)] * 2}
    moves["y"] = [("d0",)] * 2
    for side, last in (("c", "1"), ("d", "0")):
        for i in range(m + 1):
            out_label[f"{side}{i}"] = "0" if i < m else last
            moves[f"{side}{i}"] = [(f"{side}{min(i + 1, m)}",)] * 2
    return build(("a", "b"), out_label, moves)


def multi_root_states(seed: int, count: int):
    """Random (system, state) with at least two reaction-time roots, up to ``count`` of them."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        sys = sized_system(rng, "r", rng.randint(3, 9), ("a", "b", "c"), ("0", "1", "2"))
        index = sys.inputs.index
        for q in sys.states:
            moves = sys.succ[sys.index[q]]
            roots = sum(
                len(moves[index(s1)]) * len(moves[index(s2)])
                for (s1, s2) in separating_pairs(sys, q).deterministic_subset
            )
            if roots >= 2:
                found.append((sys, q))
    return found[:count]


class TestEqSearch:
    """The one lazy EQ-region search against the three passes it replaced."""

    def test_matches_three_pass_reference_on_random_systems(self):
        rng = random.Random(41)
        for i in range(300):
            inputs = ("a", "b", "c")[: rng.choice((2, 3))]
            nondet = (0.0, 0.2, 0.5)[i % 3]
            sys_a = sized_system(rng, "a", rng.randint(1, 7), inputs, ("0", "1"), nondet)
            if i % 2:
                permuted = tuple(rng.sample(inputs, len(inputs)))
                sys_b = sized_system(rng, "b", rng.randint(1, 7), permuted, ("1", "0"), nondet)
                asked, pa, pb = disjoint_union(sys_a, sys_b)
            else:
                sys_b, asked, pa, pb = sys_a, sys_a, "", ""
            for p in sys_a.states:
                for q in sys_b.states:
                    expected = naive_strongly_separable(sys_a, p, sys_b, q)
                    if not expected.separable:
                        # The union names its states A.x and B.y.
                        cycle = tuple(((pa + x, pb + y), a) for ((x, y), a) in expected.cycle)
                        expected = StrongSepResult(False, cycle=cycle)
                    assert strongly_separable(asked, pa + p, pb + q) == expected
            for q in sys_a.states:
                assert det_reaction_time(sys_a, q) == naive_reaction_time(sys_a, q)

    def test_multi_root_states_match_reference(self):
        # Successor pairs of one state often share EQ nodes here.
        for sys, q in multi_root_states(43, 400):
            assert det_reaction_time(sys, q) == naive_reaction_time(sys, q)

    def test_cycle_found_before_the_region_is_expanded(self, monkeypatch):
        # Two chains of 50 EQ pairs on input a, a self-loop on input b.
        n = 50
        out_label, moves = {}, {}
        for side in ("x", "y"):
            for i in range(n):
                out_label[f"{side}{i}"] = "0"
                moves[f"{side}{i}"] = [(f"{side}{min(i + 1, n - 1)}",), (f"{side}{i}",)]
        sys = build(("a", "b"), out_label, moves)
        expanded = count_expansions(monkeypatch)
        verdict = strongly_separable(sys, "x0", "y0")
        assert verdict == StrongSepResult(False, cycle=((("x0", "y0"), "b"),))
        assert verdict == naive_strongly_separable(sys, "x0", sys, "y0")
        assert len(expanded) <= 3 < n

    def test_reaction_time_expands_a_shared_region_once(self, monkeypatch):
        sys = shared_region_system(30)
        expanded = count_expansions(monkeypatch)
        result = det_reaction_time(sys, "q")
        assert result == ReactionTime(31, ("a",) * 31)
        assert result == naive_reaction_time(sys, "q")
        assert len(expanded) == len(set(expanded)) == 2 + 30

    def test_reaction_time_expands_each_node_once_on_random_states(self, monkeypatch):
        expanded = count_expansions(monkeypatch)
        for sys, q in multi_root_states(47, 400):
            expanded.clear()
            det_reaction_time(sys, q)
            assert len(expanded) == len(set(expanded)), (sys.transitions, q)


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
