"""Language frontend: parsing, typing, small-step semantics, LTS builds."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncreact import Alphabet, non_bisimilar, validate
from syncreact.errors import (
    BuildError,
    FormatError,
    IntRangeExceeded,
    NonFiniteIntRange,
    PsySyntaxError,
    PsyTypeError,
    RoundDivergence,
    StateBudgetExceeded,
)
from syncreact.psyc import Machine, build_lts, live_in, loads, parse, typecheck, unparse
from syncreact.psyc.syntax import (
    Assign,
    BoolLit,
    Conj,
    Dec,
    Deref,
    Get,
    IntLit,
    NotZero,
    Seq,
    Skip,
    Term,
    Tick,
    VarRef,
    While,
)
from syncreact.psyc.typecheck import COMM

from .conftest import FIXTURES, on_union, shallow_stack
from .oracles import naive_term_equal


expressions = st.recursive(
    st.one_of(
        st.builds(BoolLit, st.booleans()),
        st.builds(IntLit, st.integers(0, 99)),
        st.builds(VarRef, st.sampled_from(["x", "y", "z0"])),
        st.builds(Get, st.integers(0, 3)),
    ),
    lambda inner: st.one_of(
        st.builds(Deref, inner),
        st.builds(Dec, inner),
        st.builds(NotZero, inner),
        st.builds(Conj, inner, inner),
    ),
    max_leaves=12,
)


def load_program(name):
    import syncreact.psyc as psyc

    return psyc.load(FIXTURES / name)


class TestParse:
    def test_program1_parses(self):
        program = load_program("program1.psy")
        body = program.body
        assert isinstance(body, Seq)
        assert body.first == Assign(VarRef("x"), BoolLit(False))
        assert isinstance(body.second, While)

    def test_double_semicolon_is_an_error(self):
        with pytest.raises(PsySyntaxError):
            parse("x := tt;; ")

    def test_inner_loop_shape(self):
        node = parse("while get do tick(ff) done")
        assert node == While(Get(0), Tick((BoolLit(False),)))

    def test_get_index_sugar(self):
        assert parse("x := get") == Assign(VarRef("x"), Get(0))
        assert parse("x := get 1") == Assign(VarRef("x"), Get(1))

    def test_sequence_is_right_associative(self):
        node = parse("skip; skip; skip")
        assert node == Seq(Skip(), Seq(Skip(), Skip()))

    def test_trailing_separator_before_done(self):
        node = parse("while tt do skip; done")
        assert node == While(BoolLit(True), Skip())

    def test_extension_operators(self):
        node = parse("while get && !y != 0 do y := !y - 1; tick(ff) done")
        cond = node.cond
        assert cond.left == Get(0)
        assert cond.right.inner == Deref(VarRef("y"))

    @pytest.mark.parametrize(
        "header, message",
        [
            ("inputs tt tt", "duplicate symbol 'tt'"),
            ("inputs", "alphabet must be nonempty"),
            ("outputs tt|ff", "bad symbol token 'tt|ff'"),
            ("inputs tt tt,ff", "input symbols have mixed arities [1, 2]"),
            ("inputs tt 1", "input component 0 mixes booleans and other tokens: 1 tt"),
        ],
    )
    def test_header_errors_name_file_and_line(self, header, message):
        lines = ["# header", "inputs tt ff", "outputs tt ff", "tick(tt)"]
        at = 1 if header.startswith("inputs") else 2
        lines[at] = header
        with pytest.raises(FormatError, match=rf"^p\.psy:{at + 1}: {re.escape(message)}$"):
            loads("\n".join(lines) + "\n", source="p.psy")

    def test_error_carries_position(self):
        with pytest.raises(PsySyntaxError) as info:
            parse("x :=\n:= tt")
        assert info.value.line == 2

    def test_unparse_round_trips(self):
        source = "x := ff; while tt do tick(!x); x := get done"
        assert parse(unparse(parse(source))) == parse(source)

    @settings(max_examples=200)
    @given(expressions)
    def test_expressions_round_trip(self, expr):
        program = Assign(VarRef("x"), expr)
        assert parse(unparse(program)) == program

    def test_5000_deep_conjunction_round_trips(self):
        expr = BoolLit(True)
        for k in range(5000):
            expr = Conj(expr, VarRef("y") if k % 2 else Deref(VarRef("x")))
        program = Assign(VarRef("x"), expr)
        assert parse(unparse(program)) == program

    def test_nesting_is_read_without_recursion(self):
        assert parse("x := " + "(" * 5000 + "tt" + ")" * 5000) == Assign(VarRef("x"), BoolLit(True))
        chain = VarRef("y")
        for _ in range(5000):
            chain = Deref(chain)
        assert parse("x := " + "!" * 5000 + "y") == Assign(VarRef("x"), chain)

    @pytest.mark.parametrize(
        "source, message",
        [
            ("x := (tt", "1:9: expected ')', found 'end of input'"),
            ("x := !(", "1:8: expected an expression, found 'end of input'"),
            ("x := ()", "1:7: expected an expression, found ')'"),
            ("x := ((tt) && ff))", "1:18: expected 'EOF', found ')'"),
            ("x := (!x - 2)", "1:12: only the decrement `- 1` is supported"),
            ("x := (tt != 1)", "1:13: only the zero test `!= 0` is supported"),
            ("tick(!(x && ) )", "1:13: expected an expression, found ')'"),
        ],
    )
    def test_nesting_errors_keep_their_messages(self, source, message):
        with pytest.raises(PsySyntaxError) as info:
            parse(source)
        assert str(info.value) == message


def spine(length: int, last=None):
    """``tick(ff); ...; tick(ff)`` built bottom-up, as the parser builds it."""
    node = last or Tick((BoolLit(False),))
    for _ in range(length - 1):
        node = Seq(Tick((BoolLit(False),)), node)
    return node


class TestTermHashing:
    def test_equal_terms_built_apart_compare_and_hash_equal(self):
        source = "x := ff; while get && !y != 0 do y := !y - 1; tick(!x) done"
        first, second = parse(source), parse(source)
        assert first is second
        assert first == second
        assert hash(first) == hash(second)
        assert parse(unparse(first)) == first
        assert hash(parse(unparse(first))) == hash(first)

    def test_different_terms_compare_unequal(self):
        assert parse("x := tt") != parse("x := ff")
        assert parse("tick(tt)") != parse("tick(tt, tt)")
        assert BoolLit(True) != IntLit(1)
        assert Skip() == Skip()
        assert Skip() != BoolLit(False)

    def test_deep_spine_hashes_and_compares_without_recursion(self):
        deep = spine(5000)
        assert isinstance(hash(deep), int)
        assert deep == spine(5000)
        assert hash(deep) == hash(spine(5000))
        assert deep != spine(5000, last=Tick((BoolLit(True),)))
        assert {deep: 1}[spine(5000)] == 1

    @settings(max_examples=300, deadline=None)
    @given(expressions, expressions)
    def test_identity_is_structural_equality(self, a, b):
        assert (a is b) == naive_term_equal(a, b)
        assert (a == b) == (a is b)

    def test_construction_checks_the_field_count(self):
        for build in (lambda: Seq(Skip()), lambda: Tick(), lambda: Skip(1)):
            with pytest.raises(TypeError):
                build()
        assert BoolLit(True) is not IntLit(1)

    def test_no_node_class_overrides_identity(self):
        # Hash-consing makes identity the equality of terms; any of these
        # methods on a node class would silently break it.
        classes, todo = [], [Term]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo += cls.__subclasses__()
        assert len(classes) == 15
        for cls in classes:
            assert not {"__init__", "__eq__", "__hash__"} & set(vars(cls)), cls

    def test_deep_spine_typechecks_unparses_and_has_liveness(self):
        deep = spine(5000)
        assert typecheck(deep, {}, ("bool",), ("bool",)) == COMM
        assert parse(unparse(deep)) == deep
        assert live_in(deep, frozenset({"x"})) == frozenset({"x"})

    def test_deep_operator_chains_typecheck_and_unparse_without_recursion(self):
        conj = parse("x := " + " && ".join(["!x"] * 5000))
        dec = parse("y := " + " - ".join(["!y"] + ["1"] * 5000))
        env = {"x": "bool", "y": "int"}
        for deep in (conj, dec):
            assert typecheck(deep, env, ("bool",), ("bool",)) == COMM
        assert unparse(conj) == "x := " + "(" * 4999 + "!x" + " && !x)" * 4999
        assert unparse(dec) == "y := " + "(" * 5000 + "!y" + " - 1)" * 5000
        assert unparse(parse("x := tt && ff && !x")) == "x := ((tt && ff) && !x)"
        assert unparse(parse("y := !y - 1 - 1")) == "y := ((!y - 1) - 1)"
        assert live_in(conj, frozenset()) == frozenset({"x"})
        assert live_in(dec, frozenset()) == frozenset({"y"})


def _nest(opening: str, inner: str, closing: str, n: int = 3000) -> str:
    return opening * n + inner + closing * n


# Every nesting shape, 3,000 levels deep: a program body, its type or
# type error, and the number of states it builds or its build error.
DEEP_SHAPES = {
    ";": ("x := ff; " * 3000 + "while tt do tick(!x) done", "comm", 1),
    "if": (_nest("if tt then ", "while tt do tick(!x) done", " else skip"), "comm", 1),
    "while": (_nest("while tt do ", "tick(!x)", " done"), "comm", 1),
    "(": ("while tt do x := " + _nest("(", "tt", ")") + "; tick(!x) done", "comm", 1),
    "!": ("while tt do tick(" + "!" * 3000 + "x) done", "Deref: !!x needs a variable", None),
    "&& left": ("while tt do x := " + " && ".join(["!x"] * 3000) + "; tick(!x) done", "comm", 1),
    "&& right": ("while tt do x := " + _nest("tt && (", "!x", ")") + "; tick(!x) done", "comm", 1),
    "- 1": (
        "while tt do tick(tt); y := !y" + " - 1" * 3000 + " done",
        "comm",
        "assignment y := -3000 leaves range [0..3]",
    ),
    "!= 0": (
        "while tt do x := " + _nest("(", "!y", " != 0)") + "; tick(!x) done",
        "NotZero: operand has type exp(bool), not exp(int)",
        None,
    ),
    "tick argument": ("while tt do tick(" + _nest("get && (", "!x", ")") + ") done", "comm", 1),
}


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_3000_deep_nesting_costs_no_recursion(shape):
    body, typed, built = DEEP_SHAPES[shape]
    text = "inputs tt ff\noutputs tt ff\nvar x : bool\nvar y : int[0..3]\n" + body
    with shallow_stack():
        program = loads(text, name="deep")
        prog = program.body
        assert parse(unparse(prog)) == prog
        assert isinstance(live_in(prog, frozenset()), frozenset)
        try:
            outcome = str(program.typecheck())
        except PsyTypeError as exc:
            outcome = str(exc)
        assert outcome == typed
        if built is not None:
            try:
                outcome = len(build_lts(program.machine, prog, 10).states)
            except IntRangeExceeded as exc:
                outcome = str(exc)
            assert outcome == built


class TestTypecheck:
    def test_program1_is_comm(self):
        program = load_program("program1.psy")
        assert program.typecheck() == COMM

    def test_program2_is_comm(self):
        program = load_program("program2.psy")
        assert program.typecheck() == COMM

    def test_assign_rule_violation(self):
        with pytest.raises(PsyTypeError, match="Assign"):
            typecheck(parse("x := 3"), {"x": "bool"}, ("bool",), ("bool",))

    def test_tick_arity_violation(self):
        with pytest.raises(PsyTypeError, match="Tick"):
            typecheck(parse("tick(ff, ff)"), {}, ("bool",), ("bool",))

    def test_get_index_out_of_range(self):
        with pytest.raises(PsyTypeError, match="Get"):
            typecheck(parse("x := get 1"), {"x": "bool"}, ("bool",), ("bool",))

    def test_condition_must_be_boolean(self):
        with pytest.raises(PsyTypeError, match="While"):
            typecheck(
                parse("while !y do skip done"),
                {"y": "int"},
                ("bool",),
                ("bool",),
            )

    def test_undeclared_variable(self):
        with pytest.raises(PsyTypeError, match="Var"):
            typecheck(parse("z := tt"), {}, ("bool",), ("bool",))

    def test_deref_gives_expression_type(self):
        ty = typecheck(parse("y := !y - 1"), {"y": "int"}, ("bool",), ("bool",))
        assert ty == COMM


def simple_machine():
    program = loads(
        "inputs tt ff\noutputs tt ff\nvar x : bool\nskip", name="m"
    )
    return program.machine


class TestStep:
    """Reduction rules, each observed at the round boundary of ``run_round``."""

    def test_seq_skip(self):
        machine = simple_machine()
        store = (("x", False),)
        result = machine.run_round(store, "tt", parse("skip; tick(!x)"))
        assert result == machine.run_round(store, "tt", parse("tick(!x)"))
        assert result == ("ff", store, Skip())
        assert machine.run_round(store, "tt", parse("skip; skip")) is None

    def test_get_projects_pending_input(self):
        machine = simple_machine()
        for pending in ("tt", "ff"):
            out, _, _ = machine.run_round((("x", False),), pending, parse("tick(get)"))
            assert out == pending

    def test_while_unfolds_to_conditional(self):
        machine = simple_machine()
        loop = parse("while tt do tick(tt) done")
        result = machine.run_round((("x", False),), "ff", loop)
        assert result == ("tt", (("x", False),), Seq(Skip(), loop))

    def test_tick_emits_node_branching_over_all_inputs(self):
        # Every input's branch starts from the one store and continuation.
        machine = simple_machine()
        result = machine.run_round((("x", True),), "ff", parse("tick(!x); x := ff"))
        assert result == ("tt", (("x", True),), parse("skip; x := ff"))

    def test_assignment_updates_store(self):
        machine = simple_machine()
        result = machine.run_round((("x", False),), "tt", parse("x := tt; tick(!x)"))
        assert result == ("tt", (("x", True),), Skip())

    def test_each_config_matches_exactly_one_rule(self):
        # Redex audit: for every statement kind, the dispatcher either
        # rewrites (value subterms) or recurses (reducible subterms),
        # and repeated calls give equal rounds.
        machine = simple_machine()
        samples = [
            "skip; skip",
            "skip; skip; tick(tt)",
            "x := tt; tick(!x)",
            "x := !x; tick(!x)",
            "if tt then tick(tt) else skip",
            "if !x then tick(tt) else tick(ff)",
            "while !x do x := tt done; tick(!x)",
            "tick(tt)",
            "tick(!x)",
            "tick(get)",
        ]
        for text in samples:
            config = ((("x", False),), "tt", parse(text))
            assert machine.run_round(*config) == machine.run_round(*config)

    def test_subject_reduction_along_program1_round(self):
        # Every continuation of every round reached from program1 is a
        # well-typed command.
        program = load_program("program1.psy")
        machine = program.machine
        env = {v.name: v.base for v in machine.variables}
        start = (machine.initial_store(), machine.inputs.symbols[0], program.body)
        seen, todo = {start}, [start]
        while todo:
            _, store, cont = machine.run_round(*todo.pop())
            assert typecheck(cont, env, machine.in_types, machine.out_types) == COMM
            for c in ((store, s, cont) for s in machine.inputs):
                if c not in seen:
                    seen.add(c)
                    todo.append(c)
        assert len(seen) > 3


class TestBuildLts:
    def test_program1_matches_the_three_state_system(self, p1_sys):
        program = load_program("program1.psy")
        built = build_lts(program.machine, program.body, 100, name="prog1")
        assert validate(built) == []
        assert len(built.states) == 3
        assert on_union(non_bisimilar, built, built.initial, p1_sys, "p0") is None

    @staticmethod
    def first_input_variants(name: str) -> list:
        """The program built once per input symbol, declared first: the first tick's input."""
        program = load_program(name)
        m = program.machine
        symbols = m.inputs.symbols
        rest = (m.outputs, m.in_types, m.out_types, m.variables)
        return [
            build_lts(Machine(Alphabet(symbols[k:] + symbols[:k]), *rest), program.body, 100)
            for k in range(len(symbols))
        ]

    def test_program1_initial_input_choice_is_unobservable(self):
        variants = self.first_input_variants("program1.psy")
        for other in variants[1:]:
            assert (
                on_union(non_bisimilar, variants[0], variants[0].initial, other, other.initial)
                is None
            )

    def test_program2_initial_input_choice_is_unobservable(self):
        variants = self.first_input_variants("program2.psy")
        assert (
            on_union(
                non_bisimilar, variants[0], variants[0].initial, variants[1], variants[1].initial
            )
            is None
        )

    def test_constant_loop_is_a_single_state(self):
        program = loads(
            "inputs tt ff\noutputs tt ff\nwhile tt do tick(ff) done", name="c"
        )
        built = build_lts(program.machine, program.body, 10)
        assert len(built.states) == 1
        assert built.out(built.initial) == "ff"

    def test_unfolding_agrees_with_built_lts_to_depth_six(self):
        program = load_program("program2.psy")
        machine = program.machine
        built = build_lts(machine, program.body, 100)
        out0, store, cont = machine.run_round(
            machine.initial_store(), machine.inputs.symbols[0], program.body
        )
        assert out0 == built.out(built.initial)

        def compare(store, cont, state, depth):
            if depth == 0:
                return
            for sym in machine.inputs:
                out2, store2, cont2 = machine.run_round(store, sym, cont)
                (target,) = built.successors(state, sym)
                assert built.out(target) == out2
                compare(store2, cont2, target, depth - 1)

        compare(store, cont, built.initial, 6)

    def test_state_budget(self):
        program = load_program("program2.psy")
        with pytest.raises(StateBudgetExceeded):
            build_lts(program.machine, program.body, 3)

    def test_state_budget_counts_the_initial_state(self):
        program = loads("inputs tt ff\noutputs tt ff\nwhile tt do tick(ff) done", name="c")
        assert len(build_lts(program.machine, program.body, 1).states) == 1
        with pytest.raises(StateBudgetExceeded):
            build_lts(program.machine, program.body, 0)

    def test_int_without_range_is_rejected_at_build(self):
        program = loads(
            "inputs tt ff\noutputs tt ff\nvar y : int\n"
            "while tt do tick(ff) done",
            name="r",
        )
        assert program.typecheck() == COMM
        with pytest.raises(NonFiniteIntRange):
            build_lts(program.machine, program.body, 10)

    def test_out_of_range_assignment_is_a_build_error(self):
        program = loads(
            "inputs tt ff\noutputs tt ff\nvar y : int[0..2]\n"
            "while tt do y := !y - 1; tick(ff) done",
            name="r",
        )
        with pytest.raises(IntRangeExceeded):
            build_lts(program.machine, program.body, 10)

    def test_silent_divergence_is_diagnosed(self):
        program = loads(
            "inputs tt ff\noutputs tt ff\nwhile tt do skip done", name="d"
        )
        with pytest.raises(RoundDivergence):
            build_lts(program.machine, program.body, 10)

    def test_terminating_program_cannot_build(self):
        program = loads("inputs tt ff\noutputs tt ff\ntick(ff)", name="t")
        with pytest.raises(BuildError):
            build_lts(program.machine, program.body, 10)

    def test_undeclared_emission_is_a_build_error(self):
        program = loads(
            "inputs tt ff\noutputs ff\nwhile tt do tick(!x) done\n",
            name="e",
        )
        # Header has no vars; reuse of x must fail typecheck first.
        with pytest.raises(PsyTypeError):
            program.typecheck()
        bad = loads(
            "inputs tt ff\noutputs ff\nwhile tt do tick(tt) done", name="e2"
        )
        assert bad.typecheck() == COMM
        with pytest.raises(BuildError):
            build_lts(bad.machine, bad.body, 10)


class TestProgram2Compiled:
    """The second demo program, analyzed exactly as built from source.

    Its companion fixture p2_n4.sls carries the intended separator
    ladder; the source itself compiles to a system where the two runs
    tracked from (q1, q0) reconverge after tt.ff, so only the
    one-symbol and the all-tt separators remain and no finite reaction
    time is guaranteed.  These assertions pin the built behavior.
    """

    def test_compiled_analysis(self):
        from syncreact import (
            det_reaction_time,
            doe,
            separating_pairs,
            separators,
        )
        from syncreact.lasso import STAR_FOREVER

        program = load_program("program2.psy")
        built = build_lts(program.machine, program.body, 100)
        assert validate(built) == []
        assert len(built.states) == 6
        q0 = built.initial
        assert separating_pairs(built, q0).pairs == (("tt", "ff"),)
        assert doe(built, q0) == STAR_FOREVER
        (q1,) = built.successors(q0, "tt")
        words = {w for (w, _) in separators(built, q0, q1, 4)}
        assert words == {("ff",), ("tt", "tt", "tt", "tt")}
        assert det_reaction_time(built, q0).time is None
