"""Cross-system queries match symbols by name, not by declaration order.

Signatures compare symbol sets, so the second system of a disjoint union
(or the receiver of a composition) may declare its inputs and outputs in
another order.  Every answer must then be exactly the one given for the
same system declared in the first system's order.
"""

import random
from functools import partial

import pytest

from syncreact import (
    Alphabet,
    BisimOracle,
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
    strongly_separable,
)
from syncreact.abstraction import ssp_levels
from syncreact.errors import PreconditionFailed, SignatureMismatch
from syncreact.lasso import STAR
from syncreact.witness import depth as witness_depth

from .conftest import load_fixture, on_union
from .oracles import (
    brute_separators,
    chain_sender,
    guaranteed_diff_index,
    naive_approximants,
    naive_non_bisimilar,
    naive_separation_depth,
    naive_ssp_seq,
    naive_strongly_separable,
    random_system,
)


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
    union, pa, pb = disjoint_union(sys_a, sys_b)
    on_permuted = disjoint_union(sys_a, permuted)[0]
    word = [sys_a.inputs.symbols[k % len(sys_a.inputs)] for k in (0, 1, 2, 1)]
    for p in sys_a.states:
        for q in sys_b.states:
            up, uq = pa + p, pb + q
            for query in (ssp, strongly_separable):
                assert query(on_permuted, up, uq) == query(union, up, uq)
            assert separators(on_permuted, up, uq, 3) == separators(union, up, uq, 3)
            assert diff(on_permuted, up, uq, word) == diff(union, up, uq, word)
            assert ssp_levels(on_permuted, up, uq) == ssp_levels(union, up, uq)


@pytest.mark.parametrize("sys_a, sys_b", same_signature_cases())
def test_cross_system_oracle_ignores_the_second_systems_declaration_order(sys_a, sys_b):
    permuted = reorder(
        sys_b, rotated(sys_b.inputs.symbols), tuple(reversed(sys_b.outputs.symbols))
    )
    union, pa, pb = disjoint_union(sys_a, permuted)
    in_order = disjoint_union(sys_a, sys_b)[0]
    approximants = naive_approximants(union)
    for p in sys_a.states:
        for q in sys_b.states:
            up, uq = pa + p, pb + q
            witness = non_bisimilar(union, up, uq)
            expected = non_bisimilar(in_order, up, uq)
            depth = naive_separation_depth(union, up, uq, approximants)
            assert (witness is None) == (expected is None) == (depth is None)
            if witness is not None:
                assert witness.depth == expected.depth == depth
                assert replay_witness(union, witness)


@pytest.mark.parametrize("sys_a, sys_b", same_signature_cases())
def test_two_system_queries_equal_the_one_system_query_on_the_union(sys_a, sys_b):
    """The brute-force oracles, which take the two systems, against the union's queries."""
    union, pa, pb = disjoint_union(sys_a, sys_b)
    word = [sys_a.inputs.symbols[k % len(sys_a.inputs)] for k in (0, 1, 2, 1)]
    for p in sys_a.states:
        for q in sys_b.states:
            up, uq = pa + p, pb + q
            levels, loop = naive_ssp_seq(sys_a, p, sys_b, q)
            assert frozenset(ssp(union, up, uq)) == levels[0]
            assert ssp_levels(union, up, uq) == (levels, loop)
            assert sorted(separators(union, up, uq, 3)) == sorted(
                brute_separators(sys_a, p, sys_b, q, 3)
            )
            table = diff(union, up, uq, word)
            first = next((n for n, values in enumerate(table) if STAR not in values), None)
            assert first == guaranteed_diff_index(sys_a, p, sys_b, q, word)
            verdict = strongly_separable(union, up, uq)
            expected = naive_strongly_separable(sys_a, p, sys_b, q)
            assert (verdict.separable, verdict.bound) == (expected.separable, expected.bound)
            if not verdict.separable:
                # The union names the cycle's states A.x and B.y.
                prefixed = tuple(((pa + x, pb + y), a) for ((x, y), a) in expected.cycle)
                assert verdict.cycle == prefixed
            witness = non_bisimilar(union, up, uq)
            assert (witness is not None) == naive_non_bisimilar(sys_a, p, sys_b, q)
            if witness is not None:
                assert replay_witness(union, witness)


def _depth(union, p, q):
    return witness_depth(BisimOracle(union).refinement, union.index[p], union.index[q])


# Each query asked about a state of each of two systems, the one way it
# can be: on their disjoint union, which checks the signatures first.
TWO_SYSTEM_QUERIES = {
    "disjoint_union": lambda sys_a, p, sys_b, q: disjoint_union(sys_a, sys_b),
    "ssp": partial(on_union, ssp),
    "separators": lambda sys_a, p, sys_b, q: on_union(separators, sys_a, p, sys_b, q, 2),
    "diff": lambda sys_a, p, sys_b, q: on_union(diff, sys_a, p, sys_b, q, sys_a.inputs.symbols),
    "strongly_separable": partial(on_union, strongly_separable),
    "non_bisimilar": partial(on_union, non_bisimilar),
    "lemma_check": lemma_check,
    "BisimOracle": partial(on_union, _depth),
}


@pytest.mark.parametrize("query", TWO_SYSTEM_QUERIES.values(), ids=list(TWO_SYSTEM_QUERIES))
def test_every_two_system_query_rejects_a_signature_mismatch(query):
    # Both states are reactive, so no NotReactive can come first.
    sys_a, sys_b = load_fixture("p1.sls"), load_fixture("toggle.sls")
    assert reactive(sys_a, "p0") and reactive(sys_b, "s0")
    with pytest.raises(SignatureMismatch):
        query(sys_a, "p0", sys_b, "s0")


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
