"""Round semantics and the finite-system builder.

A configuration is a store, a pending input symbol, and a program.  The
small-step relation reduces it one contraction at a time until a tick
fires, emitting the evaluated output tuple and branching over every
input symbol.  ``Machine.run_round`` takes such a round in one big
step.  One step is one contraction: ``skip; s`` to ``s``, unfolding a
``while``, an ``if`` on an evaluated condition, an assignment of an
evaluated value, and each ``!x``, ``get``, ``e - 1``, ``e != 0`` and
``e && e`` on evaluated operands.  Firing the tick, or terminating,
takes one more step, so a round of k contractions needs a budget of
k + 1.  An error is raised at the step where the relation meets it, or
as ``RoundDivergence`` if the budget is spent before.

``run_round`` walks statements on a stack of the second halves of the
sequences it enters, and evaluates expressions from flat postfix op
lists compiled once per term (terms are interned).  It builds the
continuation only when the tick fires: ``skip`` plugged into that
stack, innermost first, which is the program the relation reaches.

The coinductive limit of this process is realized by interning: each
tick is keyed by its emitted output, its continuation program, and its
store restricted to live variables, and exploration stops when no
new key appears.  The segment before the first tick contributes the
initial state's output.
"""

from __future__ import annotations

from functools import cache
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
    unparse,
)

Value = Union[bool, int]
Store = tuple[tuple[str, Value], ...]

# Reduction steps allowed within one round before diagnosing divergence.
ROUND_STEP_BUDGET = 100_000


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

# Codes of the postfix ops an expression compiles to; the first five are
# contractions.  _ISBOOL checks that a conjunction's left operand is
# boolean before its right operand runs; _STUCK raises its message, or
# on the value on top of the stack when it has none.
_LOAD, _GET, _DEC, _NOTZERO, _CONJ, _CONST, _ISBOOL, _STUCK = range(8)


def _value_text(value: Value) -> str:
    if isinstance(value, bool):
        return "tt" if value else "ff"
    return str(value)


def _stuck(value: Value) -> StuckConfiguration:
    return StuckConfiguration(f"no rule applies to {_value_text(value)!r}")


def _budget(steps: int) -> None:
    """Diagnose divergence once ``steps`` contractions leave no step for what comes next."""
    if steps >= ROUND_STEP_BUDGET:
        raise RoundDivergence(f"no tick after {ROUND_STEP_BUDGET} reduction steps")


@cache
def _compile(exprs) -> tuple[list, int]:
    """Postfix ops of an expression or a tuple of them, and the contractions they make.

    Each op is ``(code, argument, contractions before it)``, in the
    order the small-step relation reduces operands; a term it is
    stuck on compiles to a _STUCK op where the relation meets it.
    ``todo`` holds terms, and operators whose operands are done.  Terms
    are interned, so each is compiled once per process, for every
    machine and for :func:`reads`.
    """
    ops: list = []
    steps = 0
    todo: list = list(reversed(exprs)) if exprs.__class__ is tuple else [exprs]
    while todo:
        node = todo.pop()
        cls = node.__class__
        if cls is tuple:
            ops.append((*node, steps))
            steps += node[0] < _CONST
        elif cls is BoolLit or cls is IntLit:
            ops.append((_CONST, node.value, steps))
        elif cls is Deref and node.target.__class__ is VarRef:
            ops.append((_LOAD, node.target.name, steps))
            steps += 1
        elif cls is Get:
            ops.append((_GET, node.index, steps))
            steps += 1
        elif cls is Dec or cls is NotZero:
            todo += ((_DEC if cls is Dec else _NOTZERO, None), node.inner)
        elif cls is Deref:  # of a non-variable: stuck on the operand's value
            todo += ((_STUCK, None), node.target)
        elif cls is Conj:  # a left operand that may not be boolean is checked first
            todo += ((_CONJ, None), node.right)
            if node.left.__class__ not in (BoolLit, NotZero, Conj):
                todo.append((_ISBOOL, None))
            todo.append(node.left)
        else:
            ops.append((_STUCK, f"no rule applies to {unparse(node)!r}", steps))
    return ops, steps


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
        self._values: dict = {}  # input symbol -> its component values

    def initial_store(self) -> Store:
        store = []
        for v in self.variables:
            value = v.default()
            if v.base == "int" and v.low is not None and not v.low <= 0 <= v.high:
                raise BuildError(f"default 0 outside declared range of variable {v.name}")
            store.append((v.name, value))
        return tuple(store)

    def check_assignment(self, name: str, value: Value) -> None:
        decl = self.var_decl.get(name)
        if decl is None:
            raise StuckConfiguration(f"assignment to undeclared variable {name}")
        if decl.base == "int" and not isinstance(value, bool):
            if decl.low is None:
                raise NonFiniteIntRange(f"integer variable {name} has no declared range")
            if not decl.low <= value <= decl.high:
                raise IntRangeExceeded(
                    f"assignment {name} := {value} leaves range"
                    f" [{decl.low}..{decl.high}]"
                )

    def _eval(self, exprs, steps: int, store: Store, values: tuple) -> tuple[list, int]:
        """The values of ``exprs`` entered after ``steps`` contractions, and the count after."""
        ops, cost = _compile(exprs)
        stack: list = []
        try:
            for op, arg, before in ops:
                if op == _CONST:
                    stack.append(arg)
                elif op == _LOAD:
                    for name, value in store:
                        if name == arg:
                            break
                    else:
                        raise StuckConfiguration(f"variable {arg!r} missing from store")
                    stack.append(value)
                elif op == _GET:
                    stack.append(values[arg])
                elif op == _CONJ:
                    right = stack.pop()
                    if right.__class__ is not bool:
                        raise _stuck(right)
                    stack[-1] = stack[-1] and right
                elif op == _STUCK:
                    raise _stuck(stack[-1]) if arg is None else StuckConfiguration(arg)
                else:
                    value = stack[-1]
                    if value.__class__ is not (bool if op == _ISBOOL else int):
                        raise _stuck(value)
                    if op == _DEC:
                        stack[-1] = value - 1
                    elif op == _NOTZERO:
                        stack[-1] = value != 0
        except StuckConfiguration:
            _budget(steps + before)
            raise
        return stack, steps + cost

    def run_round(
        self, store: Store, pending: str, term: Ast
    ) -> Optional[tuple[str, Store, Ast]]:
        """Evaluate until a tick fires: ``(output, store, continuation)``.

        Every input symbol's branch starts from them; None if the program ends first.
        """
        values = self._values.get(pending)
        if values is None:
            comps = zip(symbol_components(pending), self.in_types)
            values = tuple(c == "tt" if base == "bool" else int(c) for c, base in comps)
            self._values[pending] = values
        evaluate = self._eval
        seconds: list[Ast] = []  # the .second of each Seq entered, innermost last
        steps = 0
        while True:
            cls = term.__class__
            if cls is Seq:
                seconds.append(term.second)
                term = term.first
            elif cls is Skip:
                if not seconds:
                    _budget(steps)
                    return None
                term = seconds.pop()
                steps += 1
            elif cls is If or cls is While:
                if cls is While:  # unfold; every silent loop passes here
                    _budget(steps)
                    steps += 1
                [cond], steps = evaluate(term.cond, steps, store, values)
                if cond.__class__ is not bool:
                    _budget(steps)
                    raise _stuck(cond)
                if cls is If:
                    term = term.then_branch if cond else term.else_branch
                elif cond:
                    seconds.append(term)
                    term = term.body
                else:
                    term = _SKIP
                steps += 1
            elif cls is Assign:
                [value], steps = evaluate(term.value, steps, store, values)
                _budget(steps)
                name = term.target.name
                self.check_assignment(name, value)
                store = tuple([(n, value if n == name else v) for (n, v) in store])
                steps += 1
                term = _SKIP
            elif cls is Tick:
                out, steps = evaluate(term.args, steps, store, values)
                _budget(steps)
                symbol = ",".join(map(_value_text, out))
                if symbol not in self.outputs:
                    raise BuildError(f"program emits undeclared output symbol {symbol!r}")
                cont = _SKIP  # plugged into the sequences entered, innermost first
                for second in reversed(seconds):
                    cont = Seq(cont, second)
                return symbol, store, cont
            else:  # an expression in statement position is stuck on its value
                [value], steps = evaluate(term, steps, store, values)
                _budget(steps)
                raise _stuck(value)


def reads(exprs) -> frozenset:
    """Variables an expression, or a tuple of them, dereferences: the names its loads read."""
    ops, _ = _compile(exprs)
    return frozenset([name for op, name, _ in ops if op == _LOAD])


_LIVE: dict = {}  # (term, live-out set) -> its live-in set


def live_in(prog: Ast, live_out: frozenset) -> frozenset:
    """Backward liveness: variables whose value may be read before reassignment.

    The answer for every (term, live-out set) met is kept in one table,
    so calls share the work on common subterms, such as the builder's
    calls on all the continuations of a program.  Terms are hash-consed,
    so a lookup hashes a term by identity at any depth.  Like the terms,
    the table lives as long as the process; a CLI command is one
    process.
    """
    live = _LIVE.get((prog, live_out))
    if live is None:
        live = fold(_live_in, (prog, live_out))
    return live


def _live_in(key: tuple[Ast, frozenset]):
    """Liveness of one (term, live-out) pair, memoised; yields the pairs it needs."""
    live = _LIVE.get(key)
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
        live = live_out | reads(prog.args)
    else:
        # Expression forms in statement position cannot occur in typed
        # programs; treat them as pure reads.
        live = live_out | reads(prog)
    _LIVE[key] = live
    return live


def build_lts(
    machine: Machine,
    program: Ast,
    max_states: int,
    name: str = "program",
) -> SynchronousSystem:
    """Unfold a program into its reachable finite synchronous system.

    States are interned at tick boundaries, keyed by the emitted output,
    the continuation program, and the store restricted to the
    continuation's live variables.  Completeness holds by construction
    because every tick branches over the whole input alphabet.  The
    first declared input symbol fills the pending-input slot before the
    first tick.
    """
    for v in machine.variables:
        if v.base == "int" and v.low is None:
            raise NonFiniteIntRange(
                f"integer variable {v.name} needs a declared range [lo..hi]"
            )
    first = machine.run_round(machine.initial_store(), machine.inputs.symbols[0], program)
    if first is None:
        raise BuildError("program terminates before its first tick")

    ids: dict = {}
    out_id = {o: i for i, o in enumerate(machine.outputs)}
    out_ids: list[int] = []
    pending: list[tuple[Store, Ast]] = []  # each state's store and continuation, by id

    def intern(out: str, store: Store, cont: Ast) -> int:
        """The state id of a round."""
        live = live_in(cont, frozenset())
        key = (out, tuple([(n, v) for (n, v) in store if n in live]), cont)
        state = ids.get(key)
        if state is None:
            if len(ids) >= max_states:
                raise StateBudgetExceeded(max_states)
            state = ids[key] = len(ids)
            out_ids.append(out_id[out])
            pending.append((store, cont))
        return state

    intern(*first)
    succ = []
    for store, cont in pending:  # grows while it is walked: breadth-first
        moves = []
        for symbol in machine.inputs:
            result = machine.run_round(store, symbol, cont)
            if result is None:
                raise BuildError("program terminates; cannot build a complete system")
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
