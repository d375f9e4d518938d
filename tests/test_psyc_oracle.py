"""The big-step round evaluator against the original small-step evaluator.

``tests/oracles.py`` keeps the evaluator that rebuilds the whole program
after every reduction (``naive_step``/``naive_run_round``) and a builder
on top of it (``naive_build``).  Every round the builder reaches, the
bytes of every built system, the step at which a silent round is
diagnosed and the error a bad program raises must be the same on both
paths.  On p2-8000, where ``naive_build`` is too slow, the built bytes
are pinned by their hash.
"""

import collections
import hashlib
import random

import pytest

from syncreact import Alphabet, sls
from syncreact.errors import (
    BuildError,
    IntRangeExceeded,
    PsyTypeError,
    RoundDivergence,
    SyncReactError,
)
from syncreact.psyc import (
    Machine,
    VarDecl,
    build_lts,
    live_in,
    loads,
    parse,
    semantics,
    typecheck,
    unparse,
)
from syncreact.psyc.syntax import (
    Assign,
    BoolLit,
    Conj,
    Dec,
    Deref,
    Get,
    If,
    IntLit,
    NotZero,
    Seq,
    Skip,
    Tick,
    VarRef,
    While,
)
from syncreact.psyc.typecheck import COMM

from . import oracles
from .conftest import FIXTURES
from .oracles import NaiveConfig, naive_build, naive_run_round


def p2_program(n: int):
    """``program2.psy`` with its counter widened to ``int[0..n]``."""
    text = (FIXTURES / "program2.psy").read_text()
    text = text.replace("int[0..4]", f"int[0..{n}]").replace(":= 4;", f":= {n};")
    return loads(text, name=f"p2-{n}")


PROGRAMS = {
    "program1": lambda: loads((FIXTURES / "program1.psy").read_text(), name="prog1"),
    "program2": lambda: loads((FIXTURES / "program2.psy").read_text(), name="prog2"),
    "p2-5": lambda: p2_program(5),
    "p2-70": lambda: p2_program(70),
    "p2-200": lambda: p2_program(200),
    "p2-2000": lambda: p2_program(2000),
}


def machine_round(machine, config):
    """``Machine.run_round`` with its store and continuation branched over the inputs."""
    result = machine.run_round(*config)
    if result is None:
        return None
    out, store, cont = result
    return out, {s: (store, s, cont) for s in machine.inputs}


def naive_round(machine, config, budget=None):
    """``naive_run_round`` with each branch as a plain triple."""
    result = naive_run_round(machine, NaiveConfig(*config), budget)
    if result is None:
        return None
    out, branches = result
    return out, {s: tuple(c) for (s, c) in branches.items()}


def outcome(run):
    """The value of ``run()``, or the class and message of its error."""
    try:
        return "ok", run()
    except SyncReactError as exc:
        return type(exc), str(exc)


def reached_rounds(machine, body):
    """Every (store, pending, prog) round a build of ``body`` starts from, each once."""
    start = (machine.initial_store(), machine.inputs.symbols[0], body)
    todo, seen = [start], {start}
    while todo:
        config = todo.pop()
        yield config
        result = machine.run_round(*config)
        if result is None:
            continue
        _, store, cont = result
        for child in ((store, s, cont) for s in machine.inputs):
            if child not in seen:
                seen.add(child)
                todo.append(child)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_reached_round_matches_the_naive_evaluator(name):
    program = PROGRAMS[name]()
    count = 0
    for config in reached_rounds(program.machine, program.body):
        expected = naive_round(program.machine, config)
        assert machine_round(program.machine, config) == expected
        count += 1
    assert count >= 3


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_naive_builder_writes_the_same_bytes(name):
    program = PROGRAMS[name]()
    built = build_lts(program.machine, program.body, 10_000, name=program.name)
    oracle = naive_build(program.machine, program.body, 10_000, name=program.name)
    assert sls.dumps(built) == sls.dumps(oracle)


# sha256 of the p2-8000 system's .sls text, recorded from the small-step
# refocusing evaluator that the big-step one replaced.
P2_8000_SHA256 = "b823222892a9c28e70299a36a641aa246bc2221a8a2706045f841e30e53b4478"


def test_p2_8000_builds_the_pinned_bytes():
    program = p2_program(8000)
    built = build_lts(program.machine, program.body, 10_000, name=program.name)
    assert hashlib.sha256(sls.dumps(built).encode()).hexdigest() == P2_8000_SHA256


def test_silent_round_is_diagnosed_at_the_same_step(monkeypatch):
    # The inner loop spins without a tick while get reads tt; the round
    # ticks after a fixed number of reductions when it reads ff.
    program = loads(
        "inputs tt ff\noutputs tt ff\nvar y : int[0..9]\n"
        "while tt do y := 9; while get && !y != 0 do y := !y - 1 done; "
        "while get do skip done; tick(ff) done",
        name="spin",
    )
    machine = program.machine
    seen = set()
    for pending in machine.inputs:
        config = (machine.initial_store(), pending, program.body)
        for budget in range(1, 140):
            monkeypatch.setattr(semantics, "ROUND_STEP_BUDGET", budget)
            got = outcome(lambda: machine_round(machine, config))
            expected = outcome(lambda: naive_round(machine, config, budget))
            assert got == expected
            seen.add(got[0])
    assert seen == {"ok", RoundDivergence}


def test_silent_divergence_at_the_full_budget():
    program = loads("inputs tt ff\noutputs tt ff\nwhile tt do skip done", name="d")
    got = outcome(lambda: build_lts(program.machine, program.body, 10))
    expected = outcome(lambda: naive_build(program.machine, program.body, 10))
    assert got == expected
    assert got[0] is RoundDivergence


def random_bool(rng, depth, in_arity):
    choices = ["tt", "ff", "!x", "get"]
    if depth:
        choices += ["cmp", "conj"]
    kind = rng.choice(choices)
    if kind == "get":
        return f"get {rng.randrange(in_arity)}"
    if kind == "cmp":
        return f"({random_int(rng, depth - 1)} != 0)"
    if kind == "conj":
        left, right = (random_bool(rng, depth - 1, in_arity) for _ in range(2))
        return f"({left} && {right})"
    return kind


def random_int(rng, depth):
    kind = rng.choice(["!y", "lit", "dec"] if depth else ["!y", "lit"])
    if kind == "lit":
        return str(rng.randint(0, 4))  # 4 leaves the range [0..3]
    if kind == "dec":
        return f"({random_int(rng, depth - 1)} - 1)"
    return "!y"


def random_stmt(rng, depth, in_arity, out_arity):
    kinds = ["tick", "x", "y", "skip"]
    if depth:
        kinds += ["if", "while", "seq"]
    kind = rng.choice(kinds)
    if kind == "tick":
        args = ", ".join(random_bool(rng, 1, in_arity) for _ in range(out_arity))
        return f"tick({args})"
    if kind == "x":
        return f"x := {random_bool(rng, 2, in_arity)}"
    if kind == "y":
        return f"y := {random_int(rng, 2)}"
    if kind == "skip":
        return "skip"
    sub = [random_stmt(rng, depth - 1, in_arity, out_arity) for _ in range(2)]
    if kind == "if":
        return f"if {random_bool(rng, 1, in_arity)} then {sub[0]} else {sub[1]}"
    if kind == "while":
        return f"while {random_bool(rng, 1, in_arity)} do {sub[0]} done"
    return f"{sub[0]}; {sub[1]}"


def random_program(rng):
    """A typed program over ``x : bool`` and ``y : int[0..3]``.

    Random literals and decrements can leave the range, loops without a
    tick can spin silently, and some output symbols are left undeclared.
    """
    in_arity, out_arity = rng.choice([1, 2]), rng.choice([1, 2])

    def alphabet(arity):
        if arity == 1:
            return ["tt", "ff"]
        return [f"{a},{b}" for a in ("tt", "ff") for b in ("tt", "ff")]

    outputs = alphabet(out_arity)
    if rng.random() < 0.3:
        outputs.pop(rng.randrange(len(outputs)))
    body = random_stmt(rng, 2, in_arity, out_arity)
    tick = "tick(" + ", ".join(["ff"] * out_arity) + ")"
    text = (
        f"inputs {' '.join(alphabet(in_arity))}\noutputs {' '.join(outputs)}\n"
        f"var x : bool\nvar y : int[0..3]\n"
        f"x := {random_bool(rng, 1, in_arity)};\n"
        f"while tt do {body}; {tick} done\n"
    )
    return loads(text, name="rand")


def test_seeded_programs_fail_alike(monkeypatch):
    # A small step budget keeps the silently spinning programs cheap; it
    # is the same on both paths.
    monkeypatch.setattr(semantics, "ROUND_STEP_BUDGET", 2_000)
    monkeypatch.setattr(oracles, "NAIVE_ROUND_STEP_BUDGET", 2_000)
    seen = set()
    for seed in range(150):
        program = random_program(random.Random(seed))
        assert program.typecheck() == COMM
        got = outcome(lambda: sls.dumps(build_lts(program.machine, program.body, 200)))
        expected = outcome(
            lambda: sls.dumps(naive_build(program.machine, program.body, 200))
        )
        assert got == expected, f"seed {seed}"
        seen.add(got[0])
    assert {"ok", IntRangeExceeded, RoundDivergence, BuildError} <= seen


def test_seeded_programs_stop_at_the_same_step(monkeypatch):
    # Every budget from 1 to 60 on each program's first round pins the
    # step count of every construct up to its tick, and which error wins
    # where a range error or an undeclared output meets the budget.
    seen = set()
    for seed in range(150):
        program = random_program(random.Random(seed))
        machine = program.machine
        config = (machine.initial_store(), machine.inputs.symbols[0], program.body)
        for budget in range(1, 61):
            monkeypatch.setattr(semantics, "ROUND_STEP_BUDGET", budget)
            got = outcome(lambda: machine_round(machine, config))
            expected = outcome(lambda: naive_round(machine, config, budget))
            assert got == expected, f"seed {seed}, budget {budget}"
            seen.add(got[0])
    assert {"ok", IntRangeExceeded, RoundDivergence, BuildError} <= seen


# Bodies whose first round ends without a tick, on each input and at
# every budget.  Only the first types as comm: it terminates.  Each other
# body breaks a typing rule, so ``build_lts`` rejects it, before any
# round, with the error ``typecheck`` gives it: ill-typed operands of
# each operator and of a condition, an integer emitted as a boolean
# output, `!` of a value, a variable without `!`, undeclared variables,
# and expressions that only a hand-built term puts in statement
# position, down to a bare expression as the whole program.
X, Y = VarRef("x"), VarRef("y")
ENDING_BODIES = [
    ("x := get && !x; y := 3; y := !y - 1; skip", None),
    ("x := get && !y", "Conj: right operand has type exp(int), not exp(bool)"),
    ("x := !y && get", "Conj: left operand has type exp(int), not exp(bool)"),
    ("y := !x - 1", "Dec: operand has type exp(bool), not exp(int)"),
    ("x := !x != 0", "NotZero: operand has type exp(bool), not exp(int)"),
    ("if !y - 1 then skip else skip", "If: condition has type exp(int), not exp(bool)"),
    (
        "while !y != 0 && !x do skip done; tick(!y)",
        "Tick: argument 0 has type exp(int), not exp(bool)",
    ),
    ("tick(!!x)", "Deref: !!x needs a variable"),
    ("x := tt; tick(get && y)", "Conj: right operand has type var(int), not exp(bool)"),
    ("x := tt; z := 1", "Var: variable 'z' is not declared"),
    ("tick(!z)", "Var: variable 'z' is not declared"),
    (Seq(Assign(X, Get(0)), Get(0)), "Seq: right of ';' has type exp(bool), not comm"),
    (Seq(Skip(), Conj(Get(0), Deref(X))), "Seq: right of ';' has type exp(bool), not comm"),
    (Seq(Assign(Y, IntLit(1)), Dec(Deref(Y))), "Seq: right of ';' has type exp(int), not comm"),
    (Y, "program has type var(int), not comm"),
    (IntLit(3), "program has type exp(int), not comm"),
]


@pytest.mark.parametrize("body, type_error", ENDING_BODIES, ids=range(len(ENDING_BODIES)))
def test_ending_and_stuck_rounds_stop_at_the_same_step(monkeypatch, body, type_error):
    header = "inputs tt ff\noutputs tt ff\nvar x : bool\nvar y : int[0..3]\n"
    program = loads(header + (body if isinstance(body, str) else "skip"), name="end")
    machine = program.machine
    prog = program.body if isinstance(body, str) else body
    if type_error is not None:
        typed = outcome(lambda: str(machine.typecheck(prog)))
        assert type_error in (typed[1], f"program has type {typed[1]}, not comm")
        assert outcome(lambda: build_lts(machine, prog, 10)) == (PsyTypeError, type_error)
        return
    seen = set()
    for pending in machine.inputs:
        config = (machine.initial_store(), pending, prog)
        for budget in range(1, 16):
            monkeypatch.setattr(semantics, "ROUND_STEP_BUDGET", budget)
            got = outcome(lambda: machine_round(machine, config))
            expected = outcome(lambda: naive_round(machine, config, budget))
            assert got == expected, f"{pending}, budget {budget}"
            seen.add(got[0])
    assert seen - {RoundDivergence}


@pytest.mark.parametrize("body", [Y, IntLit(3), Get(0)], ids=unparse)
def test_a_bare_expression_ends_the_round(body):
    # Outside the typed contract any error will do, but the round must end:
    # the statement dispatch ends in the tick rule, and no expression has args.
    machine = loads("inputs tt ff\noutputs tt ff\nvar y : int[0..3]\nskip").machine
    with pytest.raises(AttributeError):
        machine.run_round(machine.initial_store(), "tt", body)


# Typed conditionals in expression position, which only a hand-built
# term holds: a round that meets one is a build error naming it.  The
# small-step relation reduces the first (it emits tt on input tt).
CONDITIONAL_EXPRESSIONS = {
    "tick argument": (
        Seq(Tick((If(Get(0), BoolLit(True), BoolLit(False)),)), Skip()),
        "'if get then tt else ff'",
    ),
    "`!` operand": (
        While(BoolLit(True), Tick((Deref(If(Get(0), X, X)),))),
        "'!if get then x else x'",
    ),
    "assignment target": (
        While(BoolLit(True), Seq(Assign(If(Get(0), X, X), Get(0)), Tick((Get(0),)))),
        "'if get then x else x'",
    ),
}


@pytest.mark.parametrize("shape", CONDITIONAL_EXPRESSIONS)
def test_a_round_meeting_a_conditional_expression_is_a_build_error(shape):
    prog, named = CONDITIONAL_EXPRESSIONS[shape]
    machine = loads("inputs tt ff\noutputs tt ff\nvar x : bool\nskip").machine
    assert machine.typecheck(prog) == COMM
    if shape == "tick argument":
        config = (machine.initial_store(), "tt", prog)
        assert naive_round(machine, config)[0] == "tt"
    message = f"no rule evaluates {named}: a conditional is a statement only"
    assert outcome(lambda: build_lts(machine, prog, 10)) == (BuildError, message)


# The tree walks on core.fold against textbook structural recursion.

LEAVES = {
    "bool": [BoolLit(True), BoolLit(False), Deref(VarRef("x")), Deref(VarRef("b")), Get(0)],
    "int": [IntLit(0), IntLit(3), Deref(VarRef("y")), Get(1)],
}
# Undeclared names, variables read without `!`, `!` of a non-variable and
# an input index out of range.
ILL_TYPED = [VarRef("x"), Deref(VarRef("u")), Deref(Deref(VarRef("y"))), Deref(IntLit(2)), Get(2)]
ENV, IN_TYPES = {"x": "bool", "y": "int", "b": "bool"}, ("bool", "int")


def random_expr_ast(rng, depth, kind, slip):
    """A ``kind`` expression ("bool" or "int") nesting ``depth`` levels down one operand.

    Each node is built for the other kind with probability ``slip``, and
    leaves are ill-typed as often, so errors turn up at every depth.
    """
    if rng.random() < slip:
        kind = "int" if kind == "bool" else "bool"
    if depth == 0:
        return rng.choice(ILL_TYPED if rng.random() < slip else LEAVES[kind])
    if kind == "int":
        return Dec(random_expr_ast(rng, depth - 1, "int", slip))
    if rng.random() < 0.3:
        return NotZero(random_expr_ast(rng, depth - 1, "int", slip))
    deep = random_expr_ast(rng, depth - 1, "bool", slip)
    shallow = random_expr_ast(rng, min(depth - 1, 1), "bool", slip)
    return Conj(deep, shallow) if rng.random() < 0.5 else Conj(shallow, deep)


def random_stmt_ast(rng, depth, out_types, slip):
    """A statement that ``parse`` can produce, nesting ``depth`` levels down one child.

    The first statement of a ``;`` is never a ``;`` or an ``if``: the
    text of such a term reads back differently.
    """
    form = rng.choice(["skip", "x", "y", "tick"] + ["seq", "seq", "if", "while"] * (depth > 0))
    if form == "skip":
        return Skip()
    if form in ("x", "y"):
        return Assign(VarRef(form), random_expr_ast(rng, depth, ENV[form], slip))
    if form == "tick":
        arity = len(out_types) + (rng.random() < slip)
        kinds = out_types + ("int",)
        return Tick(
            tuple(random_expr_ast(rng, rng.randint(0, depth), kinds[i], slip) for i in range(arity))
        )
    deep = random_stmt_ast(rng, depth - 1, out_types, slip)
    cond = random_expr_ast(rng, rng.randint(0, 2), "bool", slip)
    if form == "while":
        return While(cond, deep)
    shallow = random_stmt_ast(rng, min(depth - 1, 2), out_types, slip)
    if form == "if":
        return If(cond, deep, shallow) if rng.random() < 0.5 else If(cond, shallow, deep)
    while isinstance(shallow, (Seq, If)):
        shallow = random_stmt_ast(rng, min(depth - 1, 2), out_types, slip)
    return Seq(shallow, deep)


def type_outcome(check, prog, out_types):
    try:
        return "ok", str(check(prog, ENV, IN_TYPES, out_types))
    except PsyTypeError as exc:
        return type(exc), str(exc)


def test_tree_walks_match_structural_recursion():
    outcomes = collections.Counter()
    for seed in range(600):
        rng = random.Random(seed)
        out_types = rng.choice([("bool",), ("bool", "int")])
        prog = random_stmt_ast(rng, rng.randint(1, 40), out_types, rng.choice([0.0, 0.03, 0.1]))
        got = type_outcome(typecheck, prog, out_types)
        assert got == type_outcome(oracles.naive_typecheck, prog, out_types), f"seed {seed}"
        outcomes[got[0] if got[0] == "ok" else got[1].split(":")[0]] += 1
        text = unparse(prog)
        assert text == oracles.naive_unparse(prog), f"seed {seed}"
        assert parse(text) == prog, f"seed {seed}"
        for live_out in (frozenset(), frozenset({"x", "y"})):
            expected = oracles.naive_live_in(prog, live_out)
            assert live_in(prog, live_out) == expected, f"seed {seed}"
    # Well-typed programs and the errors of most rules all occur.
    assert outcomes["ok"] >= 50, outcomes
    rules = {"Var", "Deref", "Assign", "If", "While", "Tick", "Get", "Dec", "NotZero", "Conj"}
    assert rules <= set(outcomes), outcomes


# Hand-built terms with an expression where a statement goes: the
# evaluator has no rule for them, so none may type as comm.
SEQ_RIGHT = "Seq: right of ';' has type exp(bool), not comm"
EXPRESSION_STATEMENTS = {
    "; right": (Seq(Tick((Get(0),)), Get(0)), (PsyTypeError, SEQ_RIGHT)),
    "if branches": (If(Get(0), Get(0), Get(0)), ("ok", "exp(bool)")),
    "while body": (While(BoolLit(True), Seq(Tick((Get(0),)), Get(0))), (PsyTypeError, SEQ_RIGHT)),
}


@pytest.mark.parametrize("shape", EXPRESSION_STATEMENTS)
def test_expression_statements_do_not_type_as_comm(shape):
    prog, expected = EXPRESSION_STATEMENTS[shape]
    assert type_outcome(typecheck, prog, ("bool",)) == expected
    assert type_outcome(oracles.naive_typecheck, prog, ("bool",)) == expected


# Progress: a round of a program that types as comm always has a rule to
# apply, so the small-step relation never gets stuck on one.  This is why
# ``run_round`` checks no operand's type and ``build_lts`` checks types
# once, up front.


def typed_rounds_never_get_stuck(machine, body, budget):
    """Check every round a build of ``body`` reaches; the number checked."""
    count = 0
    try:
        for config in reached_rounds(machine, body):
            got = outcome(lambda: naive_round(machine, config, budget))
            assert got[0] is not oracles.StuckConfiguration, got[1]
            count += 1
    except (IntRangeExceeded, RoundDivergence, BuildError):
        pass  # the walk ends where the build would
    return count


def test_typed_rounds_never_get_stuck(monkeypatch):
    monkeypatch.setattr(semantics, "ROUND_STEP_BUDGET", 200)
    seeded = 0
    for seed in range(150):
        program = random_program(random.Random(seed))
        assert program.typecheck() == COMM
        seeded += typed_rounds_never_get_stuck(program.machine, program.body, 200)
    # Hand-built trees that type as comm, drawn with ill-typed slips.
    variables = (VarDecl("x", "bool"), VarDecl("y", "int", 0, 3), VarDecl("b", "bool"))
    assert {v.name: v.base for v in variables} == ENV
    inputs = Alphabet(("tt,0", "ff,1", "tt,3"))
    outputs = {
        ("bool",): Alphabet(("tt", "ff")),
        ("bool", "int"): Alphabet(tuple(f"{b},{n}" for b in ("tt", "ff") for n in range(4))),
    }
    trees = rounds = 0
    for seed in range(600):
        rng = random.Random(seed)
        out_types = rng.choice(list(outputs))
        prog = random_stmt_ast(rng, rng.randint(1, 40), out_types, rng.choice([0.03, 0.1]))
        machine = Machine(inputs, outputs[out_types], IN_TYPES, out_types, variables)
        if type_outcome(typecheck, prog, out_types) == ("ok", "comm"):
            rounds += typed_rounds_never_get_stuck(machine, prog, 200)
            trees += 1
    assert seeded >= 500 and trees >= 150 and rounds >= 300, (seeded, trees, rounds)
