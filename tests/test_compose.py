"""Sequential and parallel composition against their defining rules."""

import random
import re

import pytest

from syncreact import (
    Alphabet,
    SynchronousSystem,
    bisim_quotient,
    non_bisimilar,
    pair_symbol,
    par_compose,
    runs,
    separating_pairs,
    seq_compose,
    validate,
)
from syncreact.errors import SignatureMismatch, UnknownState

from .conftest import on_union
from .oracles import random_system


def make_const(name, in_syms, out_syms, out):
    return SynchronousSystem(
        name=name,
        inputs=Alphabet(in_syms),
        outputs=Alphabet(out_syms),
        states=("k",),
        transitions=tuple(("k", a, "k") for a in in_syms),
        out_label={"k": out},
        initial="k",
    )


def make_ident(syms):
    """Relays its input as next-tick output: one state per symbol."""
    states = tuple(f"i_{s}" for s in syms)
    return SynchronousSystem(
        name="ident",
        inputs=Alphabet(syms),
        outputs=Alphabet(syms),
        states=states,
        transitions=tuple(
            (f"i_{s}", a, f"i_{a}") for s in syms for a in syms
        ),
        out_label={f"i_{s}": s for s in syms},
        initial=f"i_{syms[0]}",
    )


def make_starred(name, states, inputs, outputs):
    """Two states that swap on every input; the first outputs outputs[0]."""
    a, b = states
    return SynchronousSystem(
        name=name,
        inputs=Alphabet(inputs),
        outputs=Alphabet(outputs),
        states=states,
        transitions=tuple((p, i, q) for (p, q) in ((a, b), (b, a)) for i in inputs),
        out_label={a: outputs[0], b: outputs[-1]},
        initial=a,
    )


def make_delayed(sys, first):
    """The system shifted by one tick: states carry the pending input."""
    states = tuple(f"{s}@{q}" for s in sys.inputs for q in sys.states)
    transitions = []
    for s in sys.inputs:
        for q in sys.states:
            for b in sys.inputs:
                for q2 in sys.successors(q, s):
                    transitions.append((f"{s}@{q}", b, f"{b}@{q2}"))
    return SynchronousSystem(
        name=f"{sys.name}_delayed",
        inputs=sys.inputs,
        outputs=sys.outputs,
        states=states,
        transitions=tuple(transitions),
        out_label={f"{s}@{q}": sys.out(q) for s in sys.inputs for q in sys.states},
        initial=f"{first}@{sys.initial}",
    )


class TestSeqCompose:
    def test_signature_precondition(self, p1_sys, toggle_sys):
        with pytest.raises(SignatureMismatch):
            seq_compose(toggle_sys, p1_sys)

    def test_single_state_pair(self):
        left = make_const("l", ("0",), ("a", "b"), "a")
        right = make_const("r", ("a", "b"), ("0",), "0")
        composed = seq_compose(left, right)
        assert len(composed.system.states) == 1
        assert composed.kind == "seq"
        assert validate(composed.system) == []

    def test_rule_replay_on_fixtures(self, delay1_sys, receiver_sys):
        composed = seq_compose(delay1_sys, receiver_sys).system
        # Every composite transition is justified by the two premises.
        for (src, sym, dst) in composed.transitions:
            qf, qg = src.split("*")
            qf2, qg2 = dst.split("*")
            assert qf2 in delay1_sys.successors(qf, sym)
            assert qg2 in receiver_sys.successors(qg, delay1_sys.out(qf))
            assert composed.out(src) == receiver_sys.out(qg)
        # Every premise pair over reachable states yields a transition.
        present = set(composed.transitions)
        for src in composed.states:
            qf, qg = src.split("*")
            for sym in delay1_sys.inputs:
                for qf2 in delay1_sys.successors(qf, sym):
                    for qg2 in receiver_sys.successors(qg, delay1_sys.out(qf)):
                        assert (src, sym, f"{qf2}*{qg2}") in present

    def test_ident_then_system_is_the_delayed_system(self, const_sys, toggle_sys):
        for sys in (const_sys, toggle_sys):
            ident = make_ident(sys.inputs.symbols)
            composed = seq_compose(ident, sys).system
            delayed = make_delayed(sys, sys.inputs.symbols[0])
            assert (
                on_union(non_bisimilar, composed, composed.initial, delayed, delayed.initial)
                is None
            )

    def test_disappearing_separators_compose_to_constant(
        self, disap_f_sys, disap_g_sys
    ):
        composed = seq_compose(disap_f_sys, disap_g_sys).system
        assert validate(composed) == []
        partition, _ = bisim_quotient(composed)
        assert len(partition.classes) == 1
        assert not separating_pairs(composed, composed.initial).reactive

    def test_pruned_composite_bisimilar_to_unpruned_product(
        self, delay1_sys, receiver_sys
    ):
        pruned = seq_compose(delay1_sys, receiver_sys).system
        # Full product over all state pairs, reachable or not.
        states = tuple(
            f"{qf}*{qg}" for qf in delay1_sys.states for qg in receiver_sys.states
        )
        transitions = tuple(
            (f"{qf}*{qg}", sym, f"{qf2}*{qg2}")
            for qf in delay1_sys.states
            for qg in receiver_sys.states
            for sym in delay1_sys.inputs
            for qf2 in delay1_sys.successors(qf, sym)
            for qg2 in receiver_sys.successors(qg, delay1_sys.out(qf))
        )
        unpruned = SynchronousSystem(
            name="full",
            inputs=delay1_sys.inputs,
            outputs=receiver_sys.outputs,
            states=states,
            transitions=transitions,
            out_label={
                f"{qf}*{qg}": receiver_sys.out(qg)
                for qf in delay1_sys.states
                for qg in receiver_sys.states
            },
            initial=f"{delay1_sys.initial}*{receiver_sys.initial}",
        )
        assert (
            on_union(non_bisimilar, pruned, pruned.initial, unpruned, unpruned.initial)
            is None
        )

    def test_reachability_pruning_preserves_initial_class(self, p1_sys):
        # A second copy with an unreachable extra state quotients to the
        # same behavior from the initial state.
        extended = SynchronousSystem(
            name="ext",
            inputs=p1_sys.inputs,
            outputs=p1_sys.outputs,
            states=p1_sys.states + ("zz",),
            transitions=p1_sys.transitions
            + tuple(("zz", a, "zz") for a in p1_sys.inputs),
            out_label={**dict(p1_sys.out_label), "zz": "tt"},
            initial=p1_sys.initial,
        )
        assert on_union(non_bisimilar, p1_sys, "p0", extended, "p0") is None


class TestParCompose:
    def test_const_const(self, const_sys):
        composed = par_compose(const_sys, const_sys).system
        assert composed.states == ("c0*c0",)
        assert composed.out("c0*c0") == "0,0"
        assert len(composed.transitions) == 4
        assert validate(composed) == []

    def test_rule_replay_random(self, toggle_sys, delay1_sys):
        composed = par_compose(toggle_sys, delay1_sys).system
        for (src, sym, dst) in composed.transitions:
            qf, qg = src.split("*")
            qf2, qg2 = dst.split("*")
            a, c = sym.split(",")
            assert qf2 in toggle_sys.successors(qf, a)
            assert qg2 in delay1_sys.successors(qg, c)
            assert composed.out(src) == pair_symbol(
                toggle_sys.out(qf), delay1_sys.out(qg)
            )

    def test_projection_preserves_first_component_runs(self, toggle_sys, const_sys):
        composed = par_compose(toggle_sys, const_sys).system
        rng = random.Random(3)
        for _ in range(20):
            word = [rng.choice(composed.inputs.symbols) for _ in range(5)]
            for run in runs(composed, composed.initial, word):
                projected_word = [a.split(",")[0] for a in word]
                projected_states = [s.split("*")[0] for s in run.states()]
                candidates = runs(toggle_sys, projected_states[0], projected_word)
                assert any(
                    list(r.states()) == projected_states for r in candidates
                )

    def test_state_bound(self, toggle_sys, delay1_sys, p1_sys):
        for (f, g) in ((toggle_sys, delay1_sys), (p1_sys, toggle_sys)):
            composed = par_compose(f, g).system
            assert len(composed.states) <= len(f.states) * len(g.states)


class TestNonCompositionality:
    def test_reactive_components_nonreactive_composite(
        self, disap_f_sys, disap_g_sys
    ):
        assert separating_pairs(disap_f_sys, "p0").reactive
        assert separating_pairs(disap_g_sys, "q1").reactive
        composed = seq_compose(disap_f_sys, disap_g_sys).system
        assert not separating_pairs(composed, composed.initial).reactive


class TestCompositeStateNames:
    """``*`` joins the component state names, so names holding it can clash."""

    SENDER = make_starred("snd", ("a*b", "a"), ("i",), ("x", "y"))
    CLASH = "composite state 'a*b*c' names both pairs (a*b, c) and (a, b*c)"

    @pytest.mark.parametrize("compose", [seq_compose, par_compose])
    def test_two_pairs_with_one_name_are_refused(self, compose):
        receiver = make_starred("rcv", ("c", "b*c"), ("x", "y"), ("o",))
        with pytest.raises(UnknownState, match=rf"^{re.escape(self.CLASH)}; '\*' is reserved"):
            compose(self.SENDER, receiver)

    @pytest.mark.parametrize("compose", [seq_compose, par_compose])
    def test_starred_names_that_do_not_clash_are_kept(self, compose):
        receiver = make_starred("rcv", ("c", "d*c"), ("x", "y"), ("o",))
        composed = compose(self.SENDER, receiver).system
        assert composed.states == ("a*b*c", "a*d*c")
        assert validate(composed) == []
