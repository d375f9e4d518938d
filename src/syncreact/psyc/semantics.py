"""Small-step semantics and the finite-system builder.

A configuration is a store, a pending input symbol, and a program.  One
reduction either rewrites the configuration or fires a tick, which
emits the evaluated output tuple and branches over every input symbol.
``Machine.run_round`` reduces a configuration up to its next tick.

Reduction is organised by refocusing.  ``_decompose`` walks from a
term down to its redex, pushing one context frame per level it passes
(sequencing, dereference, assignment, conditionals, operators and tick
arguments); ``Machine._contract`` applies one rule at the redex.
``run_round`` keeps the frames between reductions: it contracts each
redex where it sits, pops only the frame around a result that is a
value or ``skip`` (``_rebuild``), and plugs the program once, when the
tick fires (``_plug``).

The coinductive limit of this process is realized by interning: each
tick is keyed by its emitted output, its continuation program, and its
store restricted to live variables, and exploration stops when no
new key appears.  The segment before the first tick contributes the
initial state's output.
"""

from __future__ import annotations

from typing import Optional, Union

from ..core import Alphabet, Record, SynchronousSystem, fold, symbol_components
from ..errors import (
    BuildError,
    IntRangeExceeded,
    NonFiniteIntRange,
    RoundDivergence,
    StateBudgetExceeded,
    StuckConfiguration,
)
from .syntax import (
    Assign,
    Ast,
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
    is_value,
    unparse,
)

Value = Union[bool, int]
Store = tuple[tuple[str, Value], ...]

# Reduction steps allowed within one round before diagnosing divergence.
ROUND_STEP_BUDGET = 100_000


class Config(Record):
    __slots__ = ("store", "pending", "prog")

    def __init__(self, store: Store, pending: str, prog: Ast):
        self.store, self.pending, self.prog = store, pending, prog


class VarDecl(Record):
    __slots__ = ("name", "base", "low", "high")

    def __init__(
        self, name: str, base: str, low: Optional[int] = None, high: Optional[int] = None
    ):
        self.name = name
        self.base = base  # "bool" or "int"
        self.low, self.high = low, high

    def default(self) -> Value:
        return False if self.base == "bool" else 0


_SKIP = Skip()
_TRUE = BoolLit(True)
_FALSE = BoolLit(False)

# A contraction to one of these may change what its enclosing frame does
# next: the frame becomes a redex or moves its hole to the next operand.
_SETTLED = (Skip, BoolLit, IntLit, VarRef)


def _literal(value: Value) -> Ast:
    if isinstance(value, bool):
        return _TRUE if value else _FALSE
    return IntLit(value)


def _lookup(store: Store, name: str) -> Value:
    for (n, v) in store:
        if n == name:
            return v
    raise StuckConfiguration(f"variable {name!r} missing from store")


def _updated(store: Store, name: str, value: Value) -> Store:
    return tuple((n, value if n == name else v) for (n, v) in store)


# A context frame: a node and the position of the hole being reduced in it.
Frame = tuple[Ast, int]


def _decompose(term: Ast, frames: list[Frame]) -> Ast:
    """The redex of ``term``; pushes one frame per level walked through."""
    while True:
        cls = term.__class__
        hole, child = 0, None  # the operand reduced next; None at a redex
        if cls is Seq:
            if not isinstance(term.first, Skip):
                child = term.first
        elif cls is If:
            if not isinstance(term.cond, BoolLit):
                child = term.cond
        elif cls is Assign:
            if not is_value(term.value):
                child = term.value
        elif cls is Deref:
            if not isinstance(term.target, VarRef):
                child = term.target
        elif cls is Dec or cls is NotZero:
            if not isinstance(term.inner, IntLit):
                child = term.inner
        elif cls is Conj:
            if not isinstance(term.left, BoolLit):
                child = term.left
            elif not isinstance(term.right, BoolLit):
                hole, child = 1, term.right
        elif cls is Tick:
            for (i, arg) in enumerate(term.args):
                if not is_value(arg):
                    hole, child = i, arg
                    break
        elif cls is not While and cls is not Get:
            raise StuckConfiguration(f"no rule applies to {unparse(term)!r}")
        if child is None:
            return term
        frames.append((term, hole))
        term = child


def _rebuild(node: Ast, hole: int, child: Ast) -> Ast:
    """``node`` with ``child`` in the hole of its frame."""
    cls = node.__class__
    if cls is Seq:
        return Seq(child, node.second)
    if cls is If:
        return If(child, node.then_branch, node.else_branch)
    if cls is Assign:
        return Assign(node.target, child)
    if cls is Conj:
        return Conj(child, node.right) if hole == 0 else Conj(node.left, child)
    if cls is Tick:
        args = node.args
        return Tick(args[:hole] + (child,) + args[hole + 1 :])
    return cls(child)  # Deref, Dec, NotZero


def _plug(frames: list[Frame], term: Ast) -> Ast:
    """The whole program: ``term`` rebuilt into every frame, innermost first."""
    while frames:
        node, hole = frames.pop()
        term = _rebuild(node, hole, term)
    return term


def _component_value(text: str, base: str) -> Value:
    if base == "bool":
        return text == "tt"
    return int(text)


def _value_text(value: Value) -> str:
    if isinstance(value, bool):
        return "tt" if value else "ff"
    return str(value)


class Machine:
    """Evaluation context: alphabets, component types, declared variables."""

    def __init__(
        self,
        inputs: Alphabet,
        outputs: Alphabet,
        in_types: tuple[str, ...],
        out_types: tuple[str, ...],
        variables: tuple[VarDecl, ...],
    ):
        self.inputs = inputs
        self.outputs = outputs
        self.in_types = in_types
        self.out_types = out_types
        self.variables = variables
        self.var_decl = {v.name: v for v in variables}

    def initial_store(self) -> Store:
        store = []
        for v in self.variables:
            value = v.default()
            if v.base == "int" and v.low is not None and not v.low <= 0 <= v.high:
                raise BuildError(
                    f"default 0 outside declared range of variable {v.name}"
                )
            store.append((v.name, value))
        return tuple(store)

    def check_assignment(self, name: str, value: Value) -> None:
        decl = self.var_decl.get(name)
        if decl is None:
            raise StuckConfiguration(f"assignment to undeclared variable {name}")
        if decl.base == "int" and not isinstance(value, bool):
            if decl.low is None:
                raise NonFiniteIntRange(
                    f"integer variable {name} has no declared range"
                )
            if not decl.low <= value <= decl.high:
                raise IntRangeExceeded(
                    f"assignment {name} := {value} leaves range"
                    f" [{decl.low}..{decl.high}]"
                )

    def input_component(self, pending: str, index: int) -> Value:
        comps = symbol_components(pending)
        return _component_value(comps[index], self.in_types[index])

    def emit_symbol(self, args: tuple) -> str:
        text = ",".join(_value_text(a.value) for a in args)
        if text not in self.outputs:
            raise BuildError(f"program emits undeclared output symbol {text!r}")
        return text

    def _contract(self, redex: Ast, store: Store, pending: str) -> tuple[Ast, Store]:
        """One reduction rule at a redex other than a tick."""
        cls = redex.__class__
        if cls is Seq:
            return redex.second, store
        if cls is While:
            return If(redex.cond, Seq(redex.body, redex), _SKIP), store
        if cls is If:
            branch = redex.then_branch if redex.cond.value else redex.else_branch
            return branch, store
        if cls is Assign:
            name = redex.target.name
            value = redex.value.value
            self.check_assignment(name, value)
            return _SKIP, _updated(store, name, value)
        if cls is Deref:
            return _literal(_lookup(store, redex.target.name)), store
        if cls is Get:
            return _literal(self.input_component(pending, redex.index)), store
        if cls is Dec:
            return IntLit(redex.inner.value - 1), store
        if cls is NotZero:
            return _literal(redex.inner.value != 0), store
        return _literal(redex.left.value and redex.right.value), store  # Conj

    def run_round(self, config: Config) -> Optional[tuple[str, dict[str, Config]]]:
        """Reduce until a tick fires; None when the program terminates.

        Keeps the program as frames around a focus term between
        reductions, so one reduction costs the redex and its frame, not
        the program.
        """
        store, pending, term = config.store, config.pending, config.prog
        frames: list[Frame] = []
        for _ in range(ROUND_STEP_BUDGET):
            if not frames and isinstance(term, Skip):
                return None
            redex = _decompose(term, frames)
            if isinstance(redex, Tick):
                out, cont = self.emit_symbol(redex.args), _plug(frames, _SKIP)
                return out, {symbol: Config(store, symbol, cont) for symbol in self.inputs}
            term, store = self._contract(redex, store, pending)
            if frames and isinstance(term, _SETTLED):
                node, hole = frames.pop()
                term = _rebuild(node, hole, term)
        raise RoundDivergence(
            f"no tick after {ROUND_STEP_BUDGET} reduction steps"
        )


def _reads(expr: Ast):
    cls = expr.__class__
    if cls is Deref:
        if isinstance(expr.target, VarRef):
            return frozenset((expr.target.name,))
        return (yield expr.target)
    if cls is Dec or cls is NotZero:
        return (yield expr.inner)
    if cls is Conj:
        return (yield expr.left) | (yield expr.right)
    return frozenset()


def reads(expr: Ast) -> frozenset:
    """Variables read through a dereference anywhere in an expression."""
    return fold(_reads, expr)


def live_in(prog: Ast, live_out: frozenset, memo: Optional[dict] = None) -> frozenset:
    """Backward liveness: variables whose value may be read before reassignment.

    ``memo`` keeps the answer for every (term, live-out set) met, so
    calls that share it share the work on common subterms; the builder
    passes one for all the continuations of a program.
    """
    if memo is None:
        memo = {}
    live = memo.get((prog, live_out))
    if live is None:
        live = fold(lambda key: _live_in(key, memo), (prog, live_out))
    return live


def _live_in(key: tuple[Ast, frozenset], memo: dict):
    """Liveness of one (term, live-out) pair, memoised; yields the pairs it needs."""
    live = memo.get(key)
    if live is not None:
        return live
    prog, live_out = key
    cls = prog.__class__
    if cls is Skip:
        live = live_out
    elif cls is Assign:
        if isinstance(prog.target, VarRef):
            live = (live_out - {prog.target.name}) | reads(prog.value)
        else:
            live = live_out | reads(prog.value)
    elif cls is Seq:
        after = yield (prog.second, live_out)
        live = yield (prog.first, after)
    elif cls is If:
        live = (
            reads(prog.cond)
            | (yield (prog.then_branch, live_out))
            | (yield (prog.else_branch, live_out))
        )
    elif cls is While:
        live = live_out | reads(prog.cond)
        while True:
            refined = live | (yield (prog.body, live))
            if refined == live:
                break
            live = refined
    elif cls is Tick:
        live = live_out
        for arg in prog.args:
            live |= reads(arg)
    else:
        # Expression forms in statement position cannot occur in typed
        # programs; treat them as pure reads.
        live = live_out | reads(prog)
    memo[key] = live
    return live


def build_lts(
    machine: Machine,
    program: Ast,
    max_states: int,
    name: str = "program",
    initial_input: Optional[str] = None,
) -> SynchronousSystem:
    """Unfold a program into its reachable finite synchronous system.

    States are interned at tick boundaries, keyed by the emitted output,
    the continuation program, and the store restricted to the
    continuation's live variables.  Completeness holds by construction
    because every tick branches over the whole input alphabet.

    ``initial_input`` fills the pending-input slot before the first
    tick; it defaults to the first declared symbol.  A program that
    reads input before ticking can observe the choice, so it is
    explicit here and covered by tests for the shipped programs.
    """
    for v in machine.variables:
        if v.base == "int" and v.low is None:
            raise NonFiniteIntRange(
                f"integer variable {v.name} needs a declared range [lo..hi]"
            )
    if initial_input is None:
        initial_input = machine.inputs.symbols[0]
    elif initial_input not in machine.inputs:
        raise BuildError(f"initial input {initial_input!r} is not declared")
    initial = Config(machine.initial_store(), initial_input, program)
    first = machine.run_round(initial)
    if first is None:
        raise BuildError("program terminates before its first tick")

    liveness: dict = {}  # shared by all continuations; see live_in
    ids: dict = {}
    out_id = {o: i for i, o in enumerate(machine.outputs)}
    out_ids: list[int] = []
    pending: list[dict[str, Config]] = []  # each state's branches, by state id

    def intern(out: str, branches: dict[str, Config]) -> int:
        """The state id of a round; every branch of one tick shares store and continuation."""
        cont = branches[machine.inputs.symbols[0]]
        live = live_in(cont.prog, frozenset(), liveness)
        key = (out, tuple((n, v) for (n, v) in cont.store if n in live), cont.prog)
        state = ids.get(key)
        if state is None:
            if len(ids) >= max_states:
                raise StateBudgetExceeded(max_states)
            state = ids[key] = len(ids)
            out_ids.append(out_id[out])
            pending.append(branches)
        return state

    intern(*first)
    succ = []
    for branches in pending:  # grows while it is walked: breadth-first
        moves = []
        for symbol in machine.inputs:
            result = machine.run_round(branches[symbol])
            if result is None:
                raise BuildError(
                    "program terminates; cannot build a complete system"
                )
            moves.append((intern(*result),))
        succ.append(tuple(moves))
    return SynchronousSystem.from_tables(
        name,
        machine.inputs,
        machine.outputs,
        tuple(f"q{i}" for i in range(len(succ))),
        succ,
        out_ids,
        0,
    )
