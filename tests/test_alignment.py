"""Cross-system queries match symbols by name, not by declaration order.

Signatures compare symbol sets, so the second system of a query (or the
receiver of a composition) may declare its inputs and outputs in
another order.  Every answer must then be exactly the one given for the
same system declared in the first system's order.
"""

import random

import pytest

from syncreact import (
    Alphabet,
    SynchronousSystem,
    diff,
    disjoint_union,
    doe_compose,
    lemma_check,
    non_bisimilar,
    reactive,
    replay_witness,
    separators,
    seq_compose,
    ssp,
    ssp_seq_pair,
    strongly_separable,
)
from syncreact.errors import PreconditionFailed

from .conftest import load_fixture
from .oracles import chain_sender, naive_approximants, naive_separation_depth, random_system


def reorder(sys, inputs=None, outputs=None):
    """The same system with its alphabets declared in another order."""
    return SynchronousSystem(
        name=sys.name,
        inputs=Alphabet(tuple(inputs or sys.inputs.symbols)),
        outputs=Alphabet(tuple(outputs or sys.outputs.symbols)),
        states=sys.states,
        transitions=sys.transitions,
        out_label=dict(sys.out_label),
        initial=sys.initial,
    )


def rotated(symbols):
    return symbols[1:] + symbols[:1]


def same_signature_cases():
    rng = random.Random(907)
    cases = [(load_fixture("union1.sls"), load_fixture("union2.sls"))]
    for i in range(12):
        sys_a = random_system(rng, f"a{i}", 5, ("a", "b", "c"), ("0", "1", "2"))
        sys_b = random_system(rng, f"b{i}", 5, ("a", "b", "c"), ("0", "1", "2"))
        cases.append((sys_a, sys_b))
    return cases


def outcome(fn, *args):
    try:
        return fn(*args)
    except PreconditionFailed as exc:
        return ("PreconditionFailed", str(exc))


@pytest.mark.parametrize("sys_a, sys_b", same_signature_cases())
def test_pair_queries_ignore_the_second_systems_declaration_order(sys_a, sys_b):
    permuted = reorder(
        sys_b, rotated(sys_b.inputs.symbols), tuple(reversed(sys_b.outputs.symbols))
    )
    assert permuted.inputs.symbols != sys_b.inputs.symbols
    word = [sys_a.inputs.symbols[k % len(sys_a.inputs)] for k in (0, 1, 2, 1)]
    for p in sys_a.states:
        for q in sys_b.states:
            for query in (ssp, strongly_separable):
                assert query(sys_a, p, permuted, q) == query(sys_a, p, sys_b, q)
            assert separators(sys_a, p, permuted, q, 3) == separators(sys_a, p, sys_b, q, 3)
            assert diff(sys_a, p, permuted, q, word) == diff(sys_a, p, sys_b, q, word)
            if reactive(sys_a, p) and reactive(sys_b, q):
                assert ssp_seq_pair(sys_a, p, permuted, q) == ssp_seq_pair(sys_a, p, sys_b, q)


@pytest.mark.parametrize("sys_a, sys_b", same_signature_cases())
def test_cross_system_oracle_ignores_the_second_systems_declaration_order(sys_a, sys_b):
    permuted = reorder(
        sys_b, rotated(sys_b.inputs.symbols), tuple(reversed(sys_b.outputs.symbols))
    )
    union, pa, pb = disjoint_union(sys_a, permuted)
    approximants = naive_approximants(union)
    for p in sys_a.states:
        for q in sys_b.states:
            witness = non_bisimilar(sys_a, p, permuted, q)
            expected = non_bisimilar(sys_a, p, sys_b, q)
            depth = naive_separation_depth(union, pa + p, pb + q, approximants)
            assert (witness is None) == (expected is None) == (depth is None)
            if witness is not None:
                assert witness.depth == expected.depth == depth
                assert replay_witness(union, witness)


def composition_cases():
    rng = random.Random(911)
    feed = ("x", "y", "z")
    cases = [
        (load_fixture("delay1.sls"), load_fixture("receiver.sls")),
        (chain_sender(1, ("0", "1", "2")), load_fixture("receiver.sls")),
        (load_fixture("disap_f.sls"), load_fixture("disap_g.sls")),
    ]
    for i in range(10):
        sender = random_system(rng, f"s{i}", 5, ("a", "b"), feed)
        receiver = random_system(rng, f"g{i}", 5, feed, ("0", "1"))
        cases.append((sender, receiver))
    return cases


@pytest.mark.parametrize("sys_f, sys_g", composition_cases())
def test_compositions_match_sender_outputs_to_receiver_inputs_by_name(sys_f, sys_g):
    # A receiver's own DOE orients its pairs by its input order, so each
    # receiver is compared only with itself, fed by senders that declare
    # their outputs in its input order (aligned) or in others.
    for receiver in (sys_g, reorder(sys_g, inputs=rotated(sys_g.inputs.symbols))):
        aligned = reorder(sys_f, outputs=receiver.inputs.symbols)
        expected = seq_compose(aligned, receiver).system
        for sender in (sys_f, reorder(sys_f, outputs=rotated(sys_f.outputs.symbols))):
            assert seq_compose(sender, receiver).system == expected
            for q_f in sys_f.states:
                for q_g in sys_g.states:
                    assert lemma_check(sender, q_f, receiver, q_g) == lemma_check(
                        aligned, q_f, receiver, q_g
                    )
                    for t in range(3):
                        assert outcome(doe_compose, sender, q_f, receiver, q_g, t) == outcome(
                            doe_compose, aligned, q_f, receiver, q_g, t
                        )


def test_lemma_positive_survives_a_permuted_receiver():
    sender = chain_sender(1, ("0", "1", "2"))
    receiver = reorder(load_fixture("receiver.sls"), inputs=("2", "0", "1"))
    verdict = lemma_check(sender, "r", receiver, "g0")
    assert verdict.guaranteed and verdict.index == 1
