"""Finite synchronous systems: Moore-style labeled transition systems.

A system pairs every state with an output symbol and is required to be
complete (every state has at least one successor per input symbol) and
finitely branching.  All analysis in the sibling modules runs over the
immutable :class:`SynchronousSystem` defined here, together with runs,
output languages, the bisimulation quotient, and constructive
non-bisimilarity witnesses.  Each walk over a product of the tables
lives in the one module that runs it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from functools import cached_property
from operator import attrgetter
from typing import Callable, Generator, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    PreconditionFailed,
    SignatureMismatch,
    UnknownState,
    UnknownSymbol,
)

# The silent observable effect: no fixed output difference at a position
# (printed ``*``).  Defined here so reactivity need not load ``lasso``.
STAR = None

# Tokens are whitespace-free and may not contain the comment or lasso
# separator characters of the textual formats.
_TOKEN_RE = re.compile(r"[^\s#|]+$")


def is_token(text: str) -> bool:
    return bool(text) and bool(_TOKEN_RE.match(text))


def symbol_components(symbol: str) -> tuple[str, ...]:
    """Components of a (possibly product) symbol, split at every comma."""
    return tuple(symbol.split(","))


def pair_symbol(left: str, right: str) -> str:
    """Product symbol, textual form ``left,right`` with no spaces."""
    if not (is_token(left) and is_token(right)):
        raise UnknownSymbol(f"cannot pair non-token symbols {left!r}, {right!r}")
    return f"{left},{right}"


class Record:
    """Base of the value classes: ``==``, ``hash`` and repr from the fields.

    A subclass's own ``__slots__`` names its fields in order (a
    ``__dict__`` entry aside) unless the class lists them in ``_fields``,
    and its ``__init__`` sets them; instances are never changed after
    construction.  Like a frozen dataclass, two records are equal when
    they are of one class with equal fields, hash by their fields and
    print as ``Cls(field=value, ...)``.  One ``attrgetter`` reads the
    fields, so comparing and hashing run no Python loop.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" in cls.__dict__:
            if "_fields" not in cls.__dict__:
                cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
            if cls._fields:
                cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Alphabet(Record):
    """Finite ordered set of symbols; iteration follows declaration order."""

    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[str, ...]):
        if not symbols:
            raise UnknownSymbol("alphabet must be nonempty")
        seen = set()
        for s in symbols:
            if not is_token(s):
                raise UnknownSymbol(f"bad symbol token {s!r}")
            if s in seen:
                raise UnknownSymbol(f"duplicate symbol {s!r}")
            seen.add(s)
        self.symbols = symbols

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.symbols

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise UnknownSymbol(f"symbol {symbol!r} not in alphabet") from None

    def same_symbols(self, other: "Alphabet") -> bool:
        """Set equality; declaration order is irrelevant for signatures."""
        return set(self.symbols) == set(other.symbols)

    def canonical_pair(self, a: str, b: str) -> tuple[str, str]:
        """Unordered symbol pair in declaration order."""
        return (a, b) if self.index(a) <= self.index(b) else (b, a)


Transition = tuple[str, str, str]


def _check_name(name: str) -> None:
    if not is_token(name):
        raise UnknownSymbol(f"bad system name {name!r}")


class _Tables:
    """A system's tables, filled one declaration at a time.

    The one home of a system's name rules, each checked once where the
    name is declared, so a state needs the outputs set first and a
    transition the inputs and both of its states.  The validating
    constructor feeds it its fields and ``sls.loads`` its lines; the
    loader fills the row of a well-formed ``trans`` line itself, through
    ``index`` and ``column`` (each input's id), and calls :meth:`trans`
    only for its error.
    """

    __slots__ = ("name", "inputs", "outputs", "index", "succ", "out_ids", "column", "_out_id")

    def __init__(self):
        self.name = self.inputs = self.outputs = None
        self.index, self.succ, self.out_ids = {}, [], []
        self.column, self._out_id = {}, {}

    def set_name(self, name: str) -> None:
        _check_name(name)
        self.name = name

    def set_inputs(self, inputs: Alphabet) -> None:
        self.inputs, self.column = inputs, {a: i for i, a in enumerate(inputs)}
        # A transition needs its input, so every row so far is empty.
        self.succ = [[[] for _ in self.column] for _ in self.succ]

    def set_outputs(self, outputs: Alphabet) -> None:
        self.outputs, self._out_id = outputs, {o: i for i, o in enumerate(outputs)}

    def state(self, q: str, out: str) -> None:
        if not is_token(q):
            raise UnknownState(f"bad state token {q!r}")
        if q in self.index:
            raise UnknownState(f"duplicate state {q}")
        o = self._out_id.get(out)
        if o is None:
            raise UnknownSymbol(f"state {q} uses undeclared output {out}")
        self.index[q] = len(self.out_ids)
        self.out_ids.append(o)
        self.succ.append([[] for _ in self.column])

    def trans(self, src: str, sym: str, dst: str) -> None:
        s, t, a = self.index.get(src), self.index.get(dst), self.column.get(sym)
        if s is None:
            raise UnknownState(f"transition from undeclared state {src}")
        if t is None:
            raise UnknownState(f"transition to undeclared state {dst}")
        if a is None:
            raise UnknownSymbol(f"transition on undeclared input {sym}")
        moves = self.succ[s][a]
        if t not in moves:
            moves.append(t)

    def build(self, initial: str, system: Optional["SynchronousSystem"] = None) -> "SynchronousSystem":
        """``system``, or a new one, set to the tables with ``initial`` as its initial state."""
        s = self.index.get(initial)
        if s is None:
            raise UnknownState(f"init state {initial} not declared")
        if system is None:
            system = SynchronousSystem.__new__(SynchronousSystem)
        system._set(
            self.name, self.inputs, self.outputs, tuple(self.index),
            [tuple(map(tuple, row)) for row in self.succ], self.out_ids, s, self.index,
        )
        return system


class SynchronousSystem(Record):
    """Complete, finitely-branching Moore-style LTS.

    Immutable after construction; every operation in this package is a
    pure query, so instances can be shared freely across threads.

    The integer tables are the system: ``index`` numbers the states in
    declaration order, ``succ[q][a]`` holds the successor ids of state q
    on input a, and ``out_ids[q]`` is q's output id.  Every analysis
    walks them, and ids are turned back into names only where results
    are returned.  ``transitions`` and ``out_label`` are views of the
    tables, built on use; :meth:`iter_transitions` walks the former
    without building it.  The transition relation is a set, so
    ``transitions`` lists it in table order: state by state and input
    by input, each row's successors in the order they were first
    declared, each triple once.  Neither the order in which the triples
    were declared nor a repeat is kept.

    The constructor checks the seven fields it takes with the name rules
    of ``sls.loads``, states before transitions; the builders, whose
    tables come from checked systems, use :meth:`from_tables`.
    Equality compares the seven fields, not the tables; systems are
    unhashable.
    """

    # The tables and the cached analyses live in the instance __dict__;
    # ``_out_label`` holds the out_label view once built.
    __slots__ = ("name", "inputs", "outputs", "states", "initial", "_out_label", "__dict__")
    _fields = ("name", "inputs", "outputs", "states", "transitions", "out_label", "initial")
    __hash__ = None
    index: dict[str, int]
    succ: list[tuple[tuple[int, ...], ...]]
    out_ids: list[int]

    def __init__(
        self,
        name: str,
        inputs: Alphabet,
        outputs: Alphabet,
        states: tuple[str, ...],
        transitions: tuple[Transition, ...],
        out_label: Mapping[str, str],
        initial: str,
    ):
        tables = _Tables()
        tables.set_name(name)
        tables.set_inputs(inputs)
        tables.set_outputs(outputs)
        state, trans = tables.state, tables.trans
        for q in states:
            if q not in out_label:
                raise UnknownState(f"state {q!r} has no output label")
            state(q, out_label[q])
        for (src, sym, dst) in transitions:
            trans(src, sym, dst)
        tables.build(initial, self)

    @classmethod
    def from_tables(
        cls,
        name: str,
        inputs: Alphabet,
        outputs: Alphabet,
        states: tuple[str, ...],
        succ: list[tuple[tuple[int, ...], ...]],
        out_ids: list[int],
        initial: int,
    ) -> "SynchronousSystem":
        """A system from tables built out of checked systems, taken as they are.

        ``initial`` is a state id.  Only the name, which a builder may
        take from a file name, is checked.  The tables are the whole
        system: its transitions are read from ``succ`` in table order.
        """
        _check_name(name)
        system = cls.__new__(cls)
        system._set(
            name, inputs, outputs, states, succ, out_ids, initial,
            dict(zip(states, range(len(states)))),
        )
        return system

    def _set(self, name, inputs, outputs, states, succ, out_ids, initial, index):
        self.name, self.inputs, self.outputs, self.states = name, inputs, outputs, states
        self.initial = states[initial]
        self._out_label = None
        self.index, self.succ, self.out_ids = index, succ, out_ids

    @property
    def transitions(self) -> tuple[Transition, ...]:
        """Name triples in table order, each once."""
        return tuple(self.iter_transitions())

    def iter_transitions(self) -> Iterator[Transition]:
        """The triples of :attr:`transitions` one by one, without building the tuple."""
        states = self.states
        return (
            (q, a, states[t])
            for q, moves in zip(states, self.succ)
            for a, ts in zip(self.inputs.symbols, moves)
            for t in ts
        )

    @property
    def out_label(self) -> dict[str, str]:
        """Each state's output symbol, in state order."""
        if self._out_label is None:
            symbols = self.outputs.symbols
            self._out_label = {q: symbols[o] for q, o in zip(self.states, self.out_ids)}
        return self._out_label

    def check_state(self, q: str) -> None:
        if q not in self.index:
            raise UnknownState(f"unknown state {q!r} in system {self.name}")

    def check_word(self, word: Sequence[str]) -> None:
        for sym in word:
            if sym not in self.inputs:
                raise UnknownSymbol(f"unknown input symbol {sym!r} in system {self.name}")

    def successors(self, q: str, sym: str) -> tuple[str, ...]:
        """Targets of ``q`` under ``sym`` in transition declaration order."""
        self.check_state(q)
        if sym not in self.inputs:
            raise UnknownSymbol(f"unknown input symbol {sym!r} in system {self.name}")
        states = self.states
        return tuple(states[t] for t in self.succ[self.index[q]][self.inputs.index(sym)])

    def out(self, q: str) -> str:
        self.check_state(q)
        return self.outputs.symbols[self.out_ids[self.index[q]]]

    @cached_property
    def gaps(self) -> list[tuple[int, int]]:
        """``(state id, input id)`` of every empty successor set, in table order."""
        return [(q, a) for q, moves in enumerate(self.succ) for a, ts in enumerate(moves) if not ts]

    @cached_property
    def refinement(self) -> "_Refinement":
        """The system's own bisimulation refinement, built once (a race builds equal ones)."""
        return _Refinement(self.succ, self.out_ids)


def validate(sys: SynchronousSystem) -> list[str]:
    """Invariant report; empty list means the system is valid.

    Referential integrity is enforced at construction time, so the
    remaining checkable invariant is completeness (``sys.gaps``).
    Violations are data, not exceptions.
    """
    states, symbols = sys.states, sys.inputs.symbols
    return [
        f"incomplete: state {states[q]} has no transition on input {symbols[a]}"
        for q, a in sys.gaps
    ]


def require_complete(sys: SynchronousSystem, *states: str) -> tuple[int, ...]:
    """The ids of ``states``, once they are states of ``sys`` and ``sys`` is complete.

    Every query over infinite input words starts here.  An unknown name
    raises UnknownState; after the names, an incomplete system raises
    PreconditionFailed naming its first missing move: a state without a
    move on some input ends every run through it.
    """
    for q in states:
        sys.check_state(q)
    if sys.gaps:
        raise PreconditionFailed(f"system {sys.name}: {validate(sys)[0]}")
    return tuple(sys.index[q] for q in states)


class Run(Record):
    """A finite maximal run: a start state plus one (input, state) step per symbol."""

    __slots__ = ("start", "steps")

    def __init__(self, start: str, steps: tuple[tuple[str, str], ...]):
        self.start, self.steps = start, steps

    def states(self) -> tuple[str, ...]:
        return (self.start,) + tuple(q for (_, q) in self.steps)


def runs(sys: SynchronousSystem, q0: str, word: Sequence[str]) -> list[Run]:
    """All runs of ``sys`` on ``word`` from ``q0``, in deterministic order.

    Nonempty for valid systems by completeness; each run has exactly
    ``len(word)`` steps.
    """
    sys.check_state(q0)
    sys.check_word(word)
    frontier: list[tuple[str, tuple[tuple[str, str], ...]]] = [(q0, ())]
    for sym in word:
        next_frontier = []
        for (q, steps) in frontier:
            for target in sys.successors(q, sym):
                next_frontier.append((target, steps + ((sym, target),)))
        frontier = next_frontier
    return [Run(q0, steps) for (_, steps) in frontier]


def run_outputs(sys: SynchronousSystem, run: Run) -> tuple[str, ...]:
    """Outputs of every visited state, len(word)+1 symbols including the last."""
    return tuple(sys.out(q) for q in run.states())


def output_language(
    sys: SynchronousSystem, q0: str, word: Sequence[str]
) -> list[tuple[str, ...]]:
    """Output words of all runs on ``word``, sorted and deduplicated.

    Each output word has exactly ``len(word)`` symbols, starting at
    ``out(q0)``; the final state's output is not emitted.  This is the
    literal indexing of the defining equation (see the package notes on
    its off-by-one reading); separator analysis uses the inclusive
    variant :func:`run_outputs` instead.
    """
    words = {run_outputs(sys, r)[: len(word)] for r in runs(sys, q0, word)}
    return sorted(words)


def align(sys_a: SynchronousSystem, sys_b: SynchronousSystem) -> tuple[list, list]:
    """``sys_b``'s successor and output tables in ``sys_a``'s numbering.

    Signatures compare symbol sets, not their order, so input column a
    of the result is ``sys_b``'s column for ``sys_a``'s a-th input, and
    output ids name ``sys_a``'s output symbols.
    """
    if not (sys_a.inputs.same_symbols(sys_b.inputs) and sys_a.outputs.same_symbols(sys_b.outputs)):
        raise SignatureMismatch(f"systems {sys_a.name} and {sys_b.name} have different signatures")
    succ, out = sys_b.succ, sys_b.out_ids
    columns = [sys_b.inputs.index(a) for a in sys_a.inputs]
    if columns != sorted(columns):
        succ = [tuple(moves[c] for c in columns) for moves in succ]
    renumber = [sys_a.outputs.index(o) for o in sys_b.outputs]
    if renumber != sorted(renumber):
        out = [renumber[o] for o in out]
    return succ, out


def feed_of(sys_f: SynchronousSystem, sys_g: SynchronousSystem) -> list[int]:
    """The receiver input id each sender state emits, matched by symbol.

    The sender's output symbols must equal the receiver's input symbols
    as sets; their declaration orders may differ.
    """
    if not sys_f.outputs.same_symbols(sys_g.inputs):
        raise SignatureMismatch(
            f"outputs of {sys_f.name} do not match inputs of {sys_g.name}"
        )
    feed = [sys_g.inputs.index(o) for o in sys_f.outputs]
    return [feed[o] for o in sys_f.out_ids]


def fold(rule: Callable[..., Generator], root):
    """``rule``'s result at ``root``, with every level on one explicit stack.

    ``rule(x)`` is a generator: it yields each child whose result it
    needs, receives that result at the ``yield``, and returns x's
    result.  Trees thousands of levels deep thus cost no recursion, and
    an exception a rule raises propagates unchanged.
    """
    stack = [rule(root)]
    result = None
    while True:
        try:
            child = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            result = done.value
        else:
            stack.append(rule(child))
            result = None


class Partition(Record):
    """Bisimulation partition: total map from states onto class indices."""

    __slots__ = ("class_of", "classes", "representative")

    def __init__(
        self,
        class_of: Mapping[str, int],
        classes: tuple[int, ...],
        representative: Mapping[int, str],
    ):
        self.class_of, self.classes, self.representative = class_of, classes, representative


class _Refinement:
    """Signature refinement from output equality that records its history.

    Round 0 groups the states by output.  Round k regroups every block by
    the sets of round-(k-1) block ids its members reach on each input, so
    the round-k partition is the k-step bisimulation approximant
    (Kanellakis and Smolka 1990).  A round re-signs only the states with a
    successor whose id changed in the previous round: the other members of
    a block still share its signature and stay together.  When a block
    splits, its largest part keeps the block id and every other part gets
    a fresh one, so a state changes id at most log2(n) times (Paige and
    Tarjan 1987) and a round costs what its re-signed states cost.  A
    block of one state never splits, so its state is never re-signed.
    Blocks are kept as sizes: the members of a block are read only when
    the part no re-signed state fell in is smaller than the biggest
    re-signed part, so that it must take a fresh id.  A signature holds
    one set of ids per input, written as the bare id when it has one
    member, so signatures are equal exactly when their sets are.  Each
    change is appended to the state's history as ``(round, id)``; ids
    name blocks uniquely, so two states share a block at round k iff
    their ids at round k are equal.  ``rounds`` is the first stable
    round: the last round that split a block, 0 if none did, so the
    round-k partition for every k >= ``rounds`` is bisimilarity.
    """

    def __init__(self, succ: Sequence[tuple[tuple[int, ...], ...]], out: Sequence[int]):
        self.succ = succ
        preds: list[list[int]] = [[] for _ in succ]
        for i, moves in enumerate(succ):
            for j in set(itertools.chain.from_iterable(moves)):
                preds[j].append(i)
        first: dict[int, int] = {}
        cls = [first.setdefault(o, len(first)) for o in out]
        class_of = cls.__getitem__

        def class_set(ts: tuple[int, ...]):
            """The ids of ts as a bare id when there is one, else a frozenset."""
            if len(ts) == 1:
                return cls[ts[0]]
            ids = frozenset(map(class_of, ts))
            return next(iter(ids)) if len(ids) == 1 else ids

        # members[c] lists every state of block c, and may still list
        # states that have since left it; size[c] is exact.
        members: list[list[int]] = [[] for _ in first]
        for i, c in enumerate(cls):
            members[c].append(i)
        size = list(map(len, members))
        history = [[(0, c)] for c in cls]
        rounds = stable = 0
        dirty: Iterable[int] = range(len(succ))
        while dirty:
            rounds += 1
            parts: dict[tuple, list[int]] = {}
            for i in dirty:
                if size[cls[i]] == 1:
                    continue  # a block of one state never splits
                key = (cls[i], *map(class_set, succ[i]))
                parts.setdefault(key, []).append(i)
            splits: dict[int, list] = {}
            for key, part in parts.items():
                splits.setdefault(key[0], []).append(part)
            moved: list[int] = []
            for block, split in splits.items():
                unsigned = size[block] - sum(map(len, split))
                biggest = max(split, key=len)
                if unsigned < len(biggest):
                    # The biggest part keeps the id and the unsigned rest moves.
                    split.remove(biggest)
                    if unsigned:
                        signed = set(itertools.chain.from_iterable(split))
                        signed.update(biggest)
                        rest = [i for i in members[block] if cls[i] == block and i not in signed]
                        split.append(rest)
                    members[block] = biggest
                    size[block] = len(biggest)
                else:
                    size[block] = unsigned
                for part in split:
                    fresh = len(size)
                    members.append(part)
                    size.append(len(part))
                    for i in part:
                        cls[i] = fresh
                        history[i].append((rounds, fresh))
                    moved.extend(part)
            if moved:
                stable = rounds
            dirty = {p for i in moved for p in preds[i]}
        self.cls = cls
        self.history = history
        self.rounds = stable

    def id_at(self, i: int, k: int) -> int:
        """Block id of state ``i`` after round ``k``."""
        h = self.history[i]
        return h[bisect.bisect_right(h, (k, math.inf)) - 1][1]

    def depth(self, i: int, j: int) -> Optional[int]:
        """Least round at which the ids of i and j differ, None if never."""
        if self.cls[i] == self.cls[j]:
            return None
        lo, hi = 0, self.rounds
        while lo < hi:
            mid = (lo + hi) // 2
            if self.id_at(i, mid) == self.id_at(j, mid):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def move(self, i: int, j: int, k: int) -> tuple[int, str, int, list[tuple[int, int]]]:
        """First move of a depth-k proof that i and j differ, k > 0.

        Returns the input index, the side that moves, its chosen successor
        and the successor pairs the opponent can answer with, each of
        which differs at round k-1.  Inputs, sides and successors are
        tried in declaration order.
        """
        below = k - 1
        id_at = self.id_at
        for a, (ps, qs) in enumerate(zip(self.succ[i], self.succ[j])):
            for p2 in ps:
                c = id_at(p2, below)
                if all(id_at(q2, below) != c for q2 in qs):
                    return a, "left", p2, [(p2, q2) for q2 in qs]
            for q2 in qs:
                c = id_at(q2, below)
                if all(id_at(p2, below) != c for p2 in ps):
                    return a, "right", q2, [(p2, q2) for p2 in ps]
        raise AssertionError("refinement history is inconsistent")


def bisim_classes(sys: SynchronousSystem) -> Partition:
    """Coarsest partition refining output equality and stable under steps.

    Classes are numbered in order of their first member state.
    """
    number: dict[int, int] = {}
    class_of = {}
    representative = {}
    for q, c in zip(sys.states, sys.refinement.cls):
        n = number.get(c)
        if n is None:
            n = number[c] = len(number)
            representative[n] = q
        class_of[q] = n
    return Partition(class_of, tuple(range(len(number))), representative)


def bisim_quotient(
    sys: SynchronousSystem,
) -> tuple[Partition, SynchronousSystem]:
    """Quotient by bisimilarity; quotient states are class representatives.

    Each quotient transition is listed once, where it first occurs in
    ``sys``'s transitions (walked as id triples in table order).  Every
    member of a class reaches the same set of classes on each input, and
    a class's representative is its first state in table order, so its
    row alone, mapped to class ids and each id kept at its first
    occurrence, is the class's row.
    """
    partition = bisim_classes(sys)
    class_ids = list(partition.class_of.values())  # in state order
    states = tuple(partition.representative.values())
    reps = list(map(sys.index.__getitem__, states))
    succ = sys.succ
    one = [(c,) for c in class_ids]
    rows = []
    for r in reps:
        row = []
        for ts in succ[r]:
            if len(ts) == 1:
                row.append(one[ts[0]])
            else:
                row.append(tuple(dict.fromkeys(map(class_ids.__getitem__, ts))))
        rows.append(tuple(row))
    out_ids = sys.out_ids
    quotient = SynchronousSystem.from_tables(
        f"{sys.name}_q",
        sys.inputs,
        sys.outputs,
        states,
        rows,
        [out_ids[r] for r in reps],
        class_ids[sys.index[sys.initial]],
    )
    return partition, quotient


def disjoint_union(
    sys_a: SynchronousSystem, sys_b: SynchronousSystem
) -> tuple[SynchronousSystem, str, str]:
    """Disjoint union with ``A.``/``B.`` prefixed state names.

    Returns the union plus the two prefixes; requires equal signatures.
    A question about a state of each system is asked of the union by
    the prefixed names, so all such questions share its one refinement.
    ``sys_b``'s ids follow ``sys_a``'s and its tables are read in
    ``sys_a``'s numbering (:func:`align`): the transitions list
    ``sys_a``'s and then ``sys_b``'s, both by ``sys_a``'s input order.
    """
    succ_b, out_b = align(sys_a, sys_b)
    n = len(sys_a.states)
    shifted = [tuple(tuple(t + n for t in ts) for ts in moves) for moves in succ_b]
    union = SynchronousSystem.from_tables(
        f"{sys_a.name}+{sys_b.name}",
        sys_a.inputs,
        sys_a.outputs,
        tuple(p + q for (p, side) in (("A.", sys_a), ("B.", sys_b)) for q in side.states),
        sys_a.succ + shifted,
        sys_a.out_ids + out_b,
        0,
    )
    return union, "A.", "B."


class BisimOracle:
    """Non-bisimilarity queries on one system, from its cached ``refinement``.

    ``cls`` gives the final block of each state id (equal blocks iff
    bisimilar); the refinement history answers the separation depth of
    two state ids and the moves of every witness.
    """

    def __init__(self, system: SynchronousSystem):
        self.refinement = system.refinement
        self.cls = self.refinement.cls


class BaseWitness(Record):
    """Output mismatch: out(p) != out(q)."""

    __slots__ = ("p", "q", "out_p", "out_q")

    def __init__(self, p: str, q: str, out_p: str, out_q: str):
        self.p, self.q, self.out_p, self.out_q = p, q, out_p, out_q

    @property
    def depth(self) -> int:
        return 0


class IndWitness:
    """One inductive layer of a non-bisimilarity proof.

    ``side`` is 'left' when the existential player moves from p, 'right'
    when it moves from q.  ``children`` maps every opposing successor to
    a witness separating it from ``chosen``.  Witnesses can be thousands
    of layers deep, so equality and hashing go by identity and the repr
    shows one layer.
    """

    __slots__ = ("p", "q", "input", "side", "chosen", "children")

    def __init__(
        self,
        p: str,
        q: str,
        input: str,
        side: str,
        chosen: str,
        children: tuple[tuple[str, Union["BaseWitness", "IndWitness"]], ...],
    ):
        self.p, self.q, self.input, self.side = p, q, input, side
        self.chosen, self.children = chosen, children

    def __repr__(self) -> str:
        return (
            f"IndWitness(p={self.p!r}, q={self.q!r}, input={self.input!r}, "
            f"side={self.side!r}, chosen={self.chosen!r}, children={len(self.children)})"
        )

    @property
    def depth(self) -> int:
        """Longest path to a base witness; an opponent with no move ends at 1."""
        depth_of: dict[int, int] = {}  # shared sub-witnesses are measured once

        def rule(w: IndWitness):
            deepest = 0
            for (_, c) in w.children:
                if isinstance(c, IndWitness):
                    d = depth_of.get(id(c))
                    deepest = max(deepest, (yield c) if d is None else d)
            depth_of[id(w)] = deepest + 1
            return deepest + 1

        return fold(rule, self)


NonBisimWitness = Union[BaseWitness, IndWitness]


def non_bisimilar(sys: SynchronousSystem, p: str, q: str) -> Optional[NonBisimWitness]:
    """Minimal-depth witness that p and q are non-bisimilar, or None.

    The witness depth equals the least k at which the k-step
    bisimulation approximants separate the states.  Each state pair's
    sub-witness is built once and shared.
    """
    sys.check_state(p)
    sys.check_state(q)
    oracle = BisimOracle(sys)
    root = (sys.index[p], sys.index[q])
    if oracle.cls[root[0]] == oracle.cls[root[1]]:
        return None
    ref, names, out = oracle.refinement, sys.states, sys.out_ids
    inputs, outputs = sys.inputs.symbols, sys.outputs.symbols
    built: dict[tuple[int, int], NonBisimWitness] = {}

    def rule(pair: tuple[int, int]):
        p, q = pair
        k = ref.depth(p, q)
        if k == 0:
            w = BaseWitness(names[p], names[q], outputs[out[p]], outputs[out[q]])
        else:
            a, side, chosen, children = ref.move(p, q, k)
            opponent = 1 if side == "left" else 0
            subs = []
            for c in children:
                sub = built.get(c)
                subs.append((names[c[opponent]], (yield c) if sub is None else sub))
            w = IndWitness(names[p], names[q], inputs[a], side, names[chosen], tuple(subs))
        built[pair] = w
        return w

    return fold(rule, root)


def replay_witness(
    union: SynchronousSystem, witness: NonBisimWitness
) -> bool:
    """Re-derive p != q by replaying the witness against the union system."""
    seen: set[int] = set()
    stack = [witness]
    while stack:
        w = stack.pop()
        if id(w) in seen:
            continue
        seen.add(id(w))
        if isinstance(w, BaseWitness):
            if not (
                union.out(w.p) == w.out_p
                and union.out(w.q) == w.out_q
                and w.out_p != w.out_q
            ):
                return False
            continue
        if w.side == "left":
            movers = union.successors(w.p, w.input)
            opponents = union.successors(w.q, w.input)
        else:
            movers = union.successors(w.q, w.input)
            opponents = union.successors(w.p, w.input)
        if w.chosen not in movers:
            return False
        if {s for (s, _) in w.children} != set(opponents):
            return False
        stack.extend(child for (_, child) in w.children)
    return True
