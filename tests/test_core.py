"""Systems, runs, output languages, quotients, and witnesses."""

import random

import pytest

from syncreact import (
    Alphabet,
    BaseWitness,
    BisimOracle,
    IndWitness,
    SynchronousSystem,
    bisim_classes,
    bisim_quotient,
    disjoint_union,
    non_bisimilar,
    output_language,
    pair_symbol,
    replay_witness,
    runs,
    split_symbol,
    symbol_arity,
    validate,
)
from syncreact.errors import (
    NotAProductSymbol,
    SignatureMismatch,
    UnknownState,
    UnknownSymbol,
)

from .conftest import count_refinements, shallow_stack
from .oracles import chain_sender, naive_bisimilar_pairs, random_system


def make_incomplete_const():
    return SynchronousSystem(
        name="broken",
        inputs=Alphabet(("a", "b")),
        outputs=Alphabet(("0",)),
        states=("c0",),
        transitions=(("c0", "a", "c0"),),
        out_label={"c0": "0"},
        initial="c0",
    )


class TestSymbols:
    def test_pair_and_split(self):
        assert pair_symbol("tt", "0") == "tt,0"
        assert split_symbol("tt,0") == ("tt", "0")

    def test_nested_pair_splits_at_last_comma(self):
        nested = pair_symbol(pair_symbol("a", "b"), "c")
        assert nested == "a,b,c"
        assert split_symbol(nested) == ("a,b", "c")

    def test_arity_adds_components(self):
        assert symbol_arity("a") == 1
        assert symbol_arity(pair_symbol("a", "b")) == 2

    def test_split_rejects_atomic(self):
        with pytest.raises(NotAProductSymbol):
            split_symbol("plain")

    def test_alphabet_rejects_duplicates_and_bad_tokens(self):
        with pytest.raises(UnknownSymbol):
            Alphabet(("a", "a"))
        with pytest.raises(UnknownSymbol):
            Alphabet(("a b",))
        with pytest.raises(UnknownSymbol):
            Alphabet(())


class TestValidate:
    def test_const_is_valid(self, const_sys):
        assert validate(const_sys) == []

    def test_missing_transition_is_one_violation(self):
        report = validate(make_incomplete_const())
        assert len(report) == 1
        assert "c0" in report[0] and "b" in report[0]

    def test_p1_is_valid_by_exhaustive_scan(self, p1_sys):
        assert validate(p1_sys) == []
        for q in p1_sys.states:
            for sym in p1_sys.inputs:
                assert p1_sys.successors(q, sym)

    def test_construction_rejects_undeclared_references(self):
        with pytest.raises(UnknownState):
            SynchronousSystem(
                name="bad",
                inputs=Alphabet(("a",)),
                outputs=Alphabet(("0",)),
                states=("s",),
                transitions=(("s", "a", "t"),),
                out_label={"s": "0"},
                initial="s",
            )


class TestRuns:
    def test_const_single_run(self, const_sys):
        found = runs(const_sys, "c0", ["a", "b", "a"])
        assert len(found) == 1
        assert found[0].states() == ("c0", "c0", "c0", "c0")

    def test_p1_capture_then_release_run(self, p1_sys):
        found = runs(p1_sys, "p0", ["tt", "ff"])
        assert len(found) == 1
        assert found[0].states() == ("p0", "p1", "p2")

    def test_union_two_runs_on_one_symbol(self, union_sys):
        found = runs(union_sys, "w0", ["A"])
        assert len(found) == 2
        assert {r.states()[-1] for r in found} == {"x1", "x2"}

    def test_unknown_inputs_raise(self, const_sys):
        with pytest.raises(UnknownSymbol):
            runs(const_sys, "c0", ["nope"])
        with pytest.raises(UnknownState):
            runs(const_sys, "nope", ["a"])


class TestOutputLanguage:
    def test_const(self, const_sys):
        assert output_language(const_sys, "c0", ["a", "a"]) == [("0", "0")]

    def test_p1_word_indexing_drops_final_state(self, p1_sys):
        # out(q0)..out(q_{n-1}): exactly len(word) symbols.
        assert output_language(p1_sys, "p0", ["tt", "ff"]) == [("ff", "ff")]
        assert output_language(p1_sys, "p1", ["ff", "ff"]) == [("ff", "tt")]

    def test_union_branches_share_first_output(self, union_sys):
        assert output_language(union_sys, "w0", ["A"]) == [("0",)]

    def test_empty_word(self, const_sys):
        assert output_language(const_sys, "c0", []) == [()]

    def test_size_bounds(self, p2_sys):
        for q in p2_sys.states:
            for word in (["tt"], ["tt", "ff"], ["ff", "tt", "tt"]):
                lang = output_language(p2_sys, q, word)
                found = runs(p2_sys, q, word)
                degree = max(
                    len(p2_sys.successors(s, a))
                    for s in p2_sys.states
                    for a in p2_sys.inputs
                )
                assert len(lang) <= len(found) <= degree ** len(word)


class TestQuotient:
    def test_const_one_class(self, const_sys):
        partition, quotient = bisim_quotient(const_sys)
        assert len(partition.classes) == 1
        assert len(quotient.states) == 1

    def test_two_identical_states_merge(self):
        sys = SynchronousSystem(
            name="dup",
            inputs=Alphabet(("a",)),
            outputs=Alphabet(("0",)),
            states=("s", "t"),
            transitions=(("s", "a", "s"), ("t", "a", "t")),
            out_label={"s": "0", "t": "0"},
            initial="s",
        )
        partition, _ = bisim_quotient(sys)
        assert len(partition.classes) == 1

    def test_p2_chain_states_all_distinct(self, p2_sys):
        partition, _ = bisim_quotient(p2_sys)
        assert len(partition.classes) == len(p2_sys.states)
        naive = naive_bisimilar_pairs(p2_sys)
        for p in p2_sys.states:
            for q in p2_sys.states:
                assert ((p, q) in naive) == partition.same_class(p, q)

    def test_quotient_idempotent(self, p1_sys, p2_sys, toggle_sys, union_sys):
        for sys in (p1_sys, p2_sys, toggle_sys, union_sys):
            part1, quot1 = bisim_quotient(sys)
            part2, quot2 = bisim_quotient(quot1)
            assert len(part2.classes) == len(part1.classes)
            assert len(quot2.states) == len(quot1.states)

    def test_quotient_preserves_output_language(self, p1_sys, p2_sys, union_sys):
        import itertools

        for sys in (p1_sys, p2_sys, union_sys):
            partition, quotient = bisim_quotient(sys)
            image = {
                q: partition.representative[partition.class_of[q]]
                for q in sys.states
            }
            for q in sys.states:
                for n in range(0, 7):
                    for word in itertools.product(sys.inputs.symbols, repeat=n):
                        assert output_language(sys, q, word) == output_language(
                            quotient, image[q], word
                        )


class TestNonBisimilar:
    def test_reflexive_states_have_no_witness(self, p1_sys):
        for q in p1_sys.states:
            assert non_bisimilar(p1_sys, q, p1_sys, q) is None

    def test_p1_base_witness(self, p1_sys):
        witness = non_bisimilar(p1_sys, "p0", p1_sys, "p2")
        assert isinstance(witness, BaseWitness)
        assert (witness.out_p, witness.out_q) == ("ff", "tt")

    def test_p1_inductive_witness_depth_one(self, p1_sys):
        witness = non_bisimilar(p1_sys, "p0", p1_sys, "p1")
        assert isinstance(witness, IndWitness)
        assert witness.depth == 1
        assert witness.input == "ff"

    def test_witness_replays(self, p1_sys, p2_sys):
        for sys in (p1_sys, p2_sys):
            for p in sys.states:
                for q in sys.states:
                    witness = non_bisimilar(sys, p, sys, q)
                    if witness is not None:
                        assert replay_witness(sys, witness)

    def test_deep_witness_without_recursion(self):
        # Depth 1500 exceeds the default recursion limit of 1000 frames.
        sys = chain_sender(1500, ("x", "y", "z"))
        oracle = BisimOracle(sys, sys)
        witness = non_bisimilar(sys, "l0", sys, "m0", oracle)
        assert oracle.depth("l0", "m0") == 1500
        assert witness.depth == 1500
        assert replay_witness(sys, witness)
        assert repr(witness) == (
            "IndWitness(p='l0', q='m0', input='a', side='left', chosen='l1', children=1)"
        )
        assert hash(witness) == hash(witness) and witness in {witness}

    def test_3000_deep_witness_is_built_and_measured_without_recursion(self):
        sys = chain_sender(3000, ("x", "y", "z"))
        with shallow_stack():
            witness = non_bisimilar(sys, "l0", sys, "m0")
            assert witness.depth == 3000
        assert replay_witness(sys, witness)

    def test_self_oracles_share_one_refinement(self, monkeypatch):
        built = count_refinements(monkeypatch)
        sys = chain_sender(3, ("x", "y", "z"))
        first, second = BisimOracle(sys, sys), BisimOracle(sys, sys)
        assert first.depth("l0", "m0") == second.depth("l0", "m0") == 3
        assert len(bisim_classes(sys).classes) == len(sys.states)
        assert len(built) == 1

    def test_shared_subwitnesses_are_built_once(self):
        sys = SynchronousSystem(
            name="fan",
            inputs=Alphabet(("a",)),
            outputs=Alphabet(("0", "1")),
            states=("p", "q", "x", "y1", "y2", "z", "w"),
            transitions=(
                ("p", "a", "x"),
                ("q", "a", "y1"),
                ("q", "a", "y2"),
                ("x", "a", "z"),
                ("y1", "a", "w"),
                ("y2", "a", "w"),
                ("z", "a", "z"),
                ("w", "a", "w"),
            ),
            out_label={"p": "0", "q": "0", "x": "0", "y1": "0", "y2": "0", "z": "0", "w": "1"},
            initial="p",
        )
        witness = non_bisimilar(sys, "p", sys, "q")
        assert witness.depth == 2
        (_, first), (_, second) = witness.children
        assert first.children[0][1] is second.children[0][1]
        assert replay_witness(sys, witness)

    def test_cross_system_signature_check(self, p1_sys, toggle_sys):
        with pytest.raises(SignatureMismatch):
            non_bisimilar(p1_sys, "p0", toggle_sys, "s0")

    def test_agrees_with_quotient_on_fixtures(self, p1_sys, p2_sys, union_sys):
        for sys in (p1_sys, p2_sys, union_sys):
            partition = bisim_classes(sys)
            for p in sys.states:
                for q in sys.states:
                    witness = non_bisimilar(sys, p, sys, q)
                    assert (witness is None) == partition.same_class(p, q)

    def test_agrees_with_naive_fixpoint_on_random_systems(self):
        rng = random.Random(7)
        for i in range(30):
            sys = random_system(rng, f"r{i}", 8, ("a", "b"), ("0", "1"))
            naive = naive_bisimilar_pairs(sys)
            partition = bisim_classes(sys)
            for p in sys.states:
                for q in sys.states:
                    assert ((p, q) in naive) == partition.same_class(p, q)
                    witness = non_bisimilar(sys, p, sys, q)
                    assert (witness is None) == ((p, q) in naive)
                    if witness is not None:
                        assert replay_witness(sys, witness)


class TestDisjointUnion:
    def test_prefixes_and_counts(self, p1_sys, p2_sys):
        union, pa, pb = disjoint_union(p1_sys, p2_sys)
        assert (pa, pb) == ("A.", "B.")
        assert len(union.states) == len(p1_sys.states) + len(p2_sys.states)
        assert validate(union) == []
