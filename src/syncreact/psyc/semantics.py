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

The evaluator runs typed programs only: ``build_lts`` typechecks its
program once, before the first round.  By progress and preservation, a
round of a program that types as ``comm`` never gets stuck, so no
operand's type is checked at run time.  A conditional is a statement
only: a round that meets one in expression position raises ``BuildError``.

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
    PsyTypeError,
    RoundDivergence,
    StateBudgetExceeded,
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
from .typecheck import COMM, Ty, typecheck

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


_SKIP = Skip()

# Codes of the postfix ops an expression compiles to; all but _CONST are
# contractions.
_LOAD, _GET, _DEC, _NOTZERO, _CONJ, _CONST = range(6)


def _value_text(value: Value) -> str:
    if isinstance(value, bool):
        return "tt" if value else "ff"
    return str(value)


def _conditional(node: Ast) -> BuildError:
    """The error of a round that meets a conditional where it needs a value or a variable."""
    return BuildError(f"no rule evaluates {unparse(node)!r}: a conditional is a statement only")


def _budget(steps: int) -> None:
    """Diagnose divergence once ``steps`` contractions leave no step for what comes next."""
    if steps >= ROUND_STEP_BUDGET:
        raise RoundDivergence(f"no tick after {ROUND_STEP_BUDGET} reduction steps")


@cache
def _compile(exprs) -> tuple[list, int]:
    """Postfix ops of a typed expression or a tuple of them, and the contractions they make.

    Each op is ``(code, argument)``, in the order the small-step
    relation reduces operands.  ``todo`` holds terms, and operators
    whose operands are done.  Terms are interned, so each is compiled
    once per process, for every machine.
    """
    ops: list = []
    steps = 0
    todo: list = list(reversed(exprs)) if exprs.__class__ is tuple else [exprs]
    while todo:
        node = todo.pop()
        cls = node.__class__
        if cls is tuple:
            ops.append(node)
            steps += 1
        elif cls is BoolLit or cls is IntLit:
            ops.append((_CONST, node.value))
        elif cls is Deref and node.target.__class__ is VarRef:
            ops.append((_LOAD, node.target.name))
            steps += 1
        elif cls is Get:
            ops.append((_GET, node.index))
            steps += 1
        elif cls is Dec or cls is NotZero:
            todo += ((_DEC if cls is Dec else _NOTZERO, None), node.inner)
        elif cls is Conj:
            todo += ((_CONJ, None), node.right, node.left)
        else:  # a conditional, or `!` of one: the only other typed expressions
            raise _conditional(node)
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

    def typecheck(self, term: Ast) -> Ty:
        """The type of ``term`` under the declared variables and component types."""
        env = {v.name: v.base for v in self.variables}
        return typecheck(term, env, self.in_types, self.out_types)

    def initial_store(self) -> Store:
        """Every variable at its default: ``ff`` or 0."""
        for v in self.variables:
            if v.base == "int" and v.low is not None and not v.low <= 0 <= v.high:
                raise BuildError(f"default 0 outside declared range of variable {v.name}")
        return tuple([(v.name, False if v.base == "bool" else 0) for v in self.variables])

    def _eval(self, exprs, steps: int, store: Store, values: tuple) -> tuple[list, int]:
        """The values of ``exprs`` entered after ``steps`` contractions, and the count after."""
        ops, cost = _compile(exprs)
        stack: list = []
        for op, arg in ops:
            if op == _CONST:
                stack.append(arg)
            elif op == _LOAD:
                for name, value in store:
                    if name == arg:
                        break
                stack.append(value)
            elif op == _GET:
                stack.append(values[arg])
            elif op == _DEC:
                stack[-1] -= 1
            elif op == _NOTZERO:
                stack[-1] = stack[-1] != 0
            else:
                right = stack.pop()
                stack[-1] = stack[-1] and right
        return stack, steps + cost

    def run_round(
        self, store: Store, pending: str, term: Ast
    ) -> Optional[tuple[str, Store, Ast]]:
        """Evaluate until a tick fires: ``(output, store, continuation)``.

        Every input symbol's branch starts from them; None if the program ends first.
        ``term`` must type as ``comm`` under this machine, and every integer
        variable must have a range: :func:`build_lts` checks both.  On other
        terms the result is unspecified, but the round ends: the last rule of
        the dispatch is the tick's, which reads ``args``, and no expression has them.
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
                target = term.target
                if target.__class__ is not VarRef:
                    raise _conditional(target)
                decl = self.var_decl[target.name]
                if decl.base == "int" and not decl.low <= value <= decl.high:
                    raise IntRangeExceeded(
                        f"assignment {decl.name} := {value} leaves range [{decl.low}..{decl.high}]"
                    )
                store = tuple([(n, value if n == decl.name else v) for (n, v) in store])
                steps += 1
                term = _SKIP
            else:  # Tick
                out, steps = evaluate(term.args, steps, store, values)
                _budget(steps)
                symbol = ",".join(map(_value_text, out))
                if symbol not in self.outputs:
                    raise BuildError(f"program emits undeclared output symbol {symbol!r}")
                cont = _SKIP  # plugged into the sequences entered, innermost first
                for second in reversed(seconds):
                    cont = Seq(cont, second)
                return symbol, store, cont


@cache
def reads(exprs) -> frozenset:
    """Variables an expression, or a tuple of them, dereferences; total, as :func:`live_in` is."""
    names = []
    todo: list = list(exprs) if exprs.__class__ is tuple else [exprs]
    while todo:
        node = todo.pop()
        cls = node.__class__
        if cls is Deref and node.target.__class__ is VarRef:
            names.append(node.target.name)
        elif cls is Deref or cls is Dec or cls is NotZero or cls is Conj:
            todo += [getattr(node, field) for field in cls.__slots__]  # the operands
    return frozenset(names)


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

    The program must type as ``comm`` under ``machine``, and every
    integer variable needs a declared range: both are checked here,
    once, before the first round, and the rounds rely on them.

    States are interned at tick boundaries, keyed by the emitted output,
    the continuation program, and the store restricted to the
    continuation's live variables.  Completeness holds by construction
    because every tick branches over the whole input alphabet.  The
    first declared input symbol fills the pending-input slot before the
    first tick.
    """
    ty = machine.typecheck(program)
    if ty != COMM:
        raise PsyTypeError(f"program has type {ty}, not comm")
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
