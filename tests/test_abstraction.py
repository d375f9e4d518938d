"""Deterministic observable effects and the compositional machinery."""

import random

import pytest

from syncreact import (
    EffectSequence,
    STAR,
    STAR_FOREVER,
    doe,
    doe_compose,
    lemma_check,
    obs_leq,
    separating_pairs,
    seq_compose,
    ssp,
    ssp_seq,
    ssp_seq_pair,
)
from syncreact.abstraction import doe_levels, ssp_levels
from syncreact.errors import NotReactive, PreconditionFailed, SignatureMismatch
from syncreact.lasso import PairSetSequence, star_prepend

from .conftest import count_refinements, load_fixture
from .oracles import (
    brute_doe,
    brute_ssp_seq,
    chain_sender,
    inflated_system,
    naive_doe_compose,
    naive_doe_levels,
    naive_lemma_check,
    naive_ssp_seq,
    random_system,
    sized_system,
)

# Sizes on both sides of the 8-state table chunks and the 64-bit words.
WALK_SIZES = (1, 7, 8, 9, 63, 64, 65, 130)
OUTPUTS = ("0", "1", "2")


def _walk_systems(n: int):
    """A random and a class-inflated system of n states, with 2-4 inputs."""
    rng = random.Random(n)
    inputs = ("a", "b", "c", "d")[: 2 + n % 3]
    yield sized_system(rng, f"rand{n}", n, inputs, OUTPUTS, 0.2)
    yield inflated_system(rng, f"infl{n}", n, 5, inputs, OUTPUTS, 0.3)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotReactive:
        return NotReactive


class TestDoe:
    def test_p1_silent(self, p1_sys):
        assert doe(p1_sys, "p0") == STAR_FOREVER
        assert doe(p1_sys, "p2") == STAR_FOREVER

    def test_p2_silent(self, p2_sys):
        assert doe(p2_sys, "q0") == STAR_FOREVER
        assert doe(p2_sys, "q3") == STAR_FOREVER

    def test_delay1_one_tick_delay_then_fixed_effect(self, delay1_sys):
        assert doe(delay1_sys, "s0") == EffectSequence((STAR,), (("1", "2"),))

    def test_nonreactive_state_is_silent(self, const_sys):
        assert doe(const_sys, "c0") == STAR_FOREVER

    def test_toggle_immediate_effect_then_silence(self, toggle_sys):
        # Successors (s1, s0) differ at once; afterwards the shared-input
        # frontier holds both diagonal pairs, so nothing stays forced.
        assert doe(toggle_sys, "s0") == EffectSequence((("1", "0"),), (STAR,))


class TestLevelOracles:
    @pytest.mark.parametrize("inputs, n", [(("a", "b"), 6), (("a", "b", "c"), 4)])
    def test_doe_and_ssp_seq_match_brute_force(self, inputs, n):
        rng = random.Random(43 + len(inputs))
        reactive_states = 0
        index = 0
        while reactive_states < 100:
            sys = random_system(rng, f"r{index}", 5, inputs, ("0", "1", "2"))
            index += 1
            for q in sys.states:
                assert doe(sys, q).window(n) == brute_doe(sys, q, n)
                if separating_pairs(sys, q).reactive:
                    assert ssp_seq(sys, q).window(n) == brute_ssp_seq(sys, q, n)
                    reactive_states += 1


class TestWalkOracles:
    """The bitset walks against the frozenset walks they replaced."""

    @pytest.mark.parametrize("n", WALK_SIZES)
    def test_levels_and_loop_match(self, n):
        for sys in _walk_systems(n):
            for q in sys.states[:3]:
                assert _outcome(doe_levels, sys, q) == _outcome(naive_doe_levels, sys, q)
                assert _outcome(ssp_levels, sys, q, sys, q) == naive_ssp_seq(sys, q, sys, q)

    @pytest.mark.parametrize("n", WALK_SIZES)
    def test_cross_pairs_with_rotated_inputs_and_reversed_outputs(self, n):
        rng = random.Random(-n)
        for sys in _walk_systems(n):
            symbols = sys.inputs.symbols
            other = sized_system(
                rng, "other", max(1, n // 2), symbols[1:] + symbols[:1], OUTPUTS[::-1], 0.3
            )
            for q1 in sys.states[:2]:
                for q2 in other.states[:2]:
                    levels, loop = naive_ssp_seq(sys, q1, other, q2)
                    assert ssp_levels(sys, q1, other, q2) == (levels, loop)
                    assert ssp(sys, q1, other, q2) == tuple(
                        sorted(levels[0], key=lambda pair: tuple(map(symbols.index, pair)))
                    )
                    if separating_pairs(sys, q1).reactive and separating_pairs(other, q2).reactive:
                        assert ssp_seq_pair(sys, q1, other, q2) == PairSetSequence(
                            tuple(levels[:loop]), tuple(levels[loop:])
                        )

    def test_lemma_verdicts_match(self):
        rng = random.Random(7)
        feed = ("x", "y", "z")
        fired = 0
        for i in range(80):
            if i % 4:
                sender = random_system(rng, f"f{i}", 9, ("a", "b"), feed)
            else:
                sender = chain_sender(i % 7, feed)
            receiver = random_system(rng, f"g{i}", 9, feed, OUTPUTS, 0.3)
            for q_g in receiver.states[:2]:
                verdict = lemma_check(sender, sender.initial, receiver, q_g)
                expected = naive_lemma_check(sender, sender.initial, receiver, q_g)
                assert (verdict.index if verdict.guaranteed else None) == expected
                fired += verdict.guaranteed
        assert fired

    def test_doe_compose_matches_stepping_the_frontier(self):
        rng = random.Random(11)
        feed = ("x", "y", "z")
        compared = 0
        for i in range(40):
            if i % 2:
                sender = chain_sender(i % 5, feed)
            else:
                sender = random_system(rng, f"f{i}", 6, ("a", "b"), feed)
            receiver = random_system(rng, f"g{i}", 6, feed, OUTPUTS, 0.3)
            for t in range(61):
                try:
                    result = doe_compose(sender, sender.initial, receiver, receiver.initial, t)
                except PreconditionFailed:
                    continue
                assert result == naive_doe_compose(
                    sender, sender.initial, receiver, receiver.initial, t
                )
                compared += 1
        assert compared > 100


class TestObsOrder:
    def test_interval_membership(self, delay1_sys):
        from syncreact import obs_order
        from syncreact.lasso import star_prepend

        order = obs_order(delay1_sys, "s0")
        assert order.greatest == doe(delay1_sys, "s0")
        assert order.least in order
        assert order.greatest in order
        # Weakening the tail stays inside; conflicting values fall out.
        assert EffectSequence((STAR, ("1", "2")), (STAR,)) in order
        assert EffectSequence((), (("2", "1"),)) not in order


class TestSsp:
    def test_union_pair_is_excluded(self, union1_sys, union2_sys):
        assert ssp(union1_sys, "u0", union2_sys, "v0") == ()

    def test_identity_with_separating_pairs(
        self, p1_sys, p2_sys, toggle_sys, union_sys, delay1_sys
    ):
        for sys in (p1_sys, p2_sys, toggle_sys, union_sys, delay1_sys):
            for q in sys.states:
                assert ssp(sys, q, sys, q) == separating_pairs(sys, q).pairs

    def test_two_copies_of_toggle(self, toggle_sys):
        assert ssp(toggle_sys, "s0", toggle_sys, "s0") == (("a", "b"),)

    def test_signature_mismatch(self, p1_sys, union_sys):
        with pytest.raises(SignatureMismatch):
            ssp(p1_sys, "p0", union_sys, "w0")


class TestSspSeq:
    def test_toggle_every_level(self, toggle_sys):
        seq = ssp_seq(toggle_sys, "s0")
        assert seq == PairSetSequence((), (frozenset({("a", "b")}),))
        assert all(seq[i] == frozenset({("a", "b")}) for i in range(6))

    def test_const_rejected(self, const_sys):
        with pytest.raises(NotReactive):
            ssp_seq(const_sys, "c0")

    def test_union_cross_pair_has_empty_level_zero(self, union1_sys, union2_sys):
        seq = ssp_seq_pair(union1_sys, "u0", union2_sys, "v0")
        assert seq[0] == frozenset()

    def test_receiver_level_two_contains_the_delay1_effect(self, receiver_sys):
        seq = ssp_seq(receiver_sys, "g0")
        assert ("1", "2") in seq[2]

    def test_cross_pair_requires_reactive_states(self, const_sys, toggle_sys):
        with pytest.raises(NotReactive):
            ssp_seq_pair(const_sys, "c0", const_sys, "c0")


class TestLemmaCheck:
    def test_p1_gives_no_guarantee(self, p1_sys):
        # Any receiver over the P1 output alphabet; DOE(p0) is silent.
        receiver = chain_sender(1, ("z", "x", "y"), in_syms=("tt", "ff"))
        verdict = lemma_check(p1_sys, "p0", receiver, "r")
        assert not verdict.guaranteed

    def test_delay1_receiver_guaranteed_at_index_one(
        self, delay1_sys, receiver_sys
    ):
        verdict = lemma_check(delay1_sys, "s0", receiver_sys, "g0")
        assert verdict.guaranteed
        assert verdict.index == 1

    def test_delay1_receiver_composite_really_is_reactive(
        self, delay1_sys, receiver_sys
    ):
        composed = seq_compose(delay1_sys, receiver_sys).system
        assert separating_pairs(composed, composed.initial).reactive

    def test_signature_mismatch(self, delay1_sys, p1_sys):
        with pytest.raises(SignatureMismatch):
            lemma_check(delay1_sys, "s0", p1_sys, "p0")

    def test_refines_each_system_once(self, monkeypatch):
        built = count_refinements(monkeypatch)
        sender, receiver = load_fixture("delay1.sls"), load_fixture("receiver.sls")
        assert lemma_check(sender, "s0", receiver, "g0").guaranteed
        assert sorted(map(id, built)) == sorted({id(sender.succ), id(receiver.succ)})

    def test_soundness_on_random_pairs(self):
        # The full 500-pair sweep lives in the acceptance suite; this is
        # a quick smoke version.
        rng = random.Random(23)
        fired = 0
        for i in range(60):
            feed = ("x", "y", "z")
            sender = random_system(rng, f"s{i}", 5, ("a", "b"), feed)
            receiver = random_system(rng, f"g{i}", 5, feed, ("0", "1"))
            q_f, q_g = sender.initial, receiver.initial
            verdict = lemma_check(sender, q_f, receiver, q_g)
            if verdict.guaranteed:
                fired += 1
                composed = seq_compose(sender, receiver, start=(q_f, q_g)).system
                assert separating_pairs(composed, composed.initial).reactive


class TestDoeCompose:
    def test_delay1_receiver_at_index_one(self, delay1_sys, receiver_sys):
        result = doe_compose(delay1_sys, "s0", receiver_sys, "g0", 1)
        # Two silent ticks, then the merged effects of every receiver
        # state reachable in two steps (here g0 alone).
        expected = star_prepend(2, doe(receiver_sys, "g0"))
        assert result == expected
        composed = seq_compose(delay1_sys, receiver_sys).system
        assert obs_leq(result, doe(composed, composed.initial))

    def test_single_reachable_receiver_gives_its_doe(self, receiver_sys):
        sender = chain_sender(1, ("0", "1", "2"))
        verdict = lemma_check(sender, "r", receiver_sys, "g0")
        assert verdict.guaranteed and verdict.index == 1
        result = doe_compose(sender, "r", receiver_sys, "g0", 1)
        assert result == star_prepend(2, doe(receiver_sys, "g0"))

    def test_bad_index_raises(self, delay1_sys, receiver_sys):
        with pytest.raises(PreconditionFailed):
            doe_compose(delay1_sys, "s0", receiver_sys, "g0", 0)

    def test_conflicting_receiver_does_collapse_to_silence(self):
        from syncreact.core import Alphabet, SynchronousSystem

        sender = SynchronousSystem(
            name="fork2",
            inputs=Alphabet(("a", "b")),
            outputs=Alphabet(("0", "1", "2")),
            states=("r", "u1", "u2", "v1", "v2", "z"),
            transitions=tuple(
                [("r", "a", "u1"), ("r", "b", "u2")]
                + [
                    (s, i, t)
                    for (s, t) in [
                        ("u1", "v1"),
                        ("u2", "v2"),
                        ("v1", "z"),
                        ("v2", "z"),
                        ("z", "z"),
                    ]
                    for i in ("a", "b")
                ]
            ),
            out_label={"r": "0", "u1": "1", "u2": "2", "v1": "1", "v2": "2", "z": "0"},
            initial="r",
        )
        receiver = SynchronousSystem(
            name="mirror",
            inputs=Alphabet(("0", "1", "2")),
            outputs=Alphabet(("n", "p", "q")),
            states=("g0", "gA", "gB", "hP", "hQ"),
            transitions=tuple(
                [
                    ("g0", "0", "g0"),
                    ("g0", "1", "gA"),
                    ("g0", "2", "gB"),
                    ("gA", "0", "hP"),
                    ("gA", "1", "hP"),
                    ("gA", "2", "hQ"),
                    ("gB", "0", "hQ"),
                    ("gB", "1", "hQ"),
                    ("gB", "2", "hP"),
                ]
                + [(s, i, s) for s in ("hP", "hQ") for i in ("0", "1", "2")]
            ),
            out_label={"g0": "n", "gA": "n", "gB": "n", "hP": "p", "hQ": "q"},
            initial="g0",
        )
        assert doe(receiver, "gA") == EffectSequence((), (("p", "q"),))
        assert doe(receiver, "gB") == EffectSequence((), (("q", "p"),))
        # The two-step frontier reaches both mirror branches, whose
        # effects disagree pointwise.
        assert doe_compose(sender, "r", receiver, "g0", 1) == STAR_FOREVER
        # The membership precondition alone would also claim reactivity
        # here, yet the mirrored branches reconverge on the same output;
        # the verdict must stay negative.
        from syncreact.abstraction import ssp_seq as sspseq_fn

        assert ("1", "2") in sspseq_fn(receiver, "g0")[2]
        assert not lemma_check(sender, "r", receiver, "g0").guaranteed
        composed = seq_compose(sender, receiver).system
        assert not separating_pairs(composed, composed.initial).reactive

    def test_result_is_below_composite_doe_on_fixture_pairs(
        self, delay1_sys, receiver_sys
    ):
        cases = [(delay1_sys, "s0", receiver_sys, "g0", 1)]
        sender = chain_sender(2, ("0", "1", "2"))
        if lemma_check(sender, "r", receiver_sys, "g0").guaranteed:
            cases.append((sender, "r", receiver_sys, "g0", 2))
        for (sf, qf, sg, qg, t) in cases:
            result = doe_compose(sf, qf, sg, qg, t)
            composed = seq_compose(sf, sg, start=(qf, qg)).system
            assert obs_leq(result, doe(composed, composed.initial))
