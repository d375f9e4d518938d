"""Finite synchronous systems: Moore-style labeled transition systems.

A system pairs every state with an output symbol and is required to be
complete (every state has at least one successor per input symbol) and
finitely branching.  All analysis in the sibling modules runs over the
immutable :class:`SynchronousSystem` defined here, together with runs,
output languages, the bisimulation quotient, and constructive
non-bisimilarity witnesses.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Generator, Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    LevelBoundExceeded,
    NotAProductSymbol,
    SignatureMismatch,
    UnknownState,
    UnknownSymbol,
)

# Tokens are whitespace-free and may not contain the comment or lasso
# separator characters of the textual formats.
_TOKEN_RE = re.compile(r"[^\s#|]+$")


def is_token(text: str) -> bool:
    return bool(text) and bool(_TOKEN_RE.match(text))


def symbol_components(symbol: str) -> tuple[str, ...]:
    """Components of a (possibly product) symbol, split at every comma."""
    return tuple(symbol.split(","))


def symbol_arity(symbol: str) -> int:
    return len(symbol_components(symbol))


def pair_symbol(left: str, right: str) -> str:
    """Product symbol, textual form ``left,right`` with no spaces."""
    if not (is_token(left) and is_token(right)):
        raise UnknownSymbol(f"cannot pair non-token symbols {left!r}, {right!r}")
    return f"{left},{right}"


def split_symbol(symbol: str) -> tuple[str, str]:
    """Invert :func:`pair_symbol` by splitting at the last top-level comma.

    Only symbols whose right factor is atomic round-trip; the product
    monoid is used left-nested throughout this package.
    """
    if "," not in symbol:
        raise NotAProductSymbol(f"{symbol!r} has no product structure")
    left, _, right = symbol.rpartition(",")
    return left, right


@dataclass(frozen=True)
class Alphabet:
    """Finite ordered set of symbols; iteration follows declaration order."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise UnknownSymbol("alphabet must be nonempty")
        seen = set()
        for s in self.symbols:
            if not is_token(s):
                raise UnknownSymbol(f"bad symbol token {s!r}")
            if s in seen:
                raise UnknownSymbol(f"duplicate symbol {s!r}")
            seen.add(s)

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

    def unordered_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(itertools.combinations(self.symbols, 2))


Transition = tuple[str, str, str]


@dataclass
class SynchronousSystem:
    """Complete, finitely-branching Moore-style LTS.

    Immutable after construction; every operation in this package is a
    pure query, so instances can be shared freely across threads.

    Construction validates the names and compiles them into the integer
    tables every analysis walks: ``index`` numbers the states in
    declaration order, ``succ[q][a]`` holds the successor ids of state q
    on input a in transition order, and ``out_ids[q]`` is q's output id.
    Ids are turned back into names only where results are returned.
    """

    name: str
    inputs: Alphabet
    outputs: Alphabet
    states: tuple[str, ...]
    transitions: tuple[Transition, ...]
    out_label: Mapping[str, str]
    initial: str
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    succ: list[tuple[tuple[int, ...], ...]] = field(init=False, repr=False, compare=False)
    out_ids: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_token(self.name):
            raise UnknownSymbol(f"bad system name {self.name!r}")
        index = {}
        for q in self.states:
            if not is_token(q):
                raise UnknownState(f"bad state token {q!r}")
            if q in index:
                raise UnknownState(f"duplicate state {q!r}")
            index[q] = len(index)
        column = {a: i for i, a in enumerate(self.inputs)}
        succ = [[[] for _ in column] for _ in index]
        for (src, sym, dst) in self.transitions:
            s, t, a = index.get(src), index.get(dst), column.get(sym)
            if s is None:
                raise UnknownState(f"transition from undeclared state {src!r}")
            if t is None:
                raise UnknownState(f"transition to undeclared state {dst!r}")
            if a is None:
                raise UnknownSymbol(f"transition on undeclared input {sym!r}")
            if t not in succ[s][a]:
                succ[s][a].append(t)
        for q in self.states:
            if q not in self.out_label:
                raise UnknownState(f"state {q!r} has no output label")
            if self.out_label[q] not in self.outputs:
                raise UnknownSymbol(
                    f"state {q!r} labeled with undeclared output {self.out_label[q]!r}"
                )
        if self.initial not in index:
            raise UnknownState(f"initial state {self.initial!r} not declared")
        out_id = {o: i for i, o in enumerate(self.outputs)}
        self.index = index
        self.succ = [tuple(map(tuple, moves)) for moves in succ]
        self.out_ids = [out_id[self.out_label[q]] for q in self.states]

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
        return self.out_label[q]

    @cached_property
    def refinement(self) -> "_Refinement":
        """The system's own bisimulation refinement, built once (a race builds equal ones)."""
        return _Refinement(self.succ, self.out_ids)

    def is_deterministic(self) -> bool:
        """Derived predicate: at most one successor per (state, input)."""
        return all(len(ts) <= 1 for moves in self.succ for ts in moves)

    def same_signature(self, other: "SynchronousSystem") -> bool:
        return self.inputs.same_symbols(other.inputs) and self.outputs.same_symbols(
            other.outputs
        )

    def require_same_signature(self, other: "SynchronousSystem") -> None:
        if not self.same_signature(other):
            raise SignatureMismatch(
                f"systems {self.name} and {other.name} have different signatures"
            )


def validate(sys: SynchronousSystem) -> list[str]:
    """Invariant report; empty list means the system is valid.

    Referential integrity is enforced at construction time, so the
    remaining checkable invariant is completeness.  Violations are data,
    not exceptions.
    """
    symbols = sys.inputs.symbols
    return [
        f"incomplete: state {q} has no transition on input {symbols[a]}"
        for q, moves in zip(sys.states, sys.succ)
        for a, ts in enumerate(moves)
        if not ts
    ]


@dataclass(frozen=True)
class Run:
    """A finite maximal run: a start state plus one (input, state) step per symbol."""

    start: str
    steps: tuple[tuple[str, str], ...]

    def states(self) -> tuple[str, ...]:
        return (self.start,) + tuple(q for (_, q) in self.steps)

    def word(self) -> tuple[str, ...]:
        return tuple(a for (a, _) in self.steps)


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


def pair_step(succ_a: Sequence, succ_b: Sequence, columns: Callable) -> Callable:
    """Step function of a product of two successor tables, on id pairs.

    ``columns(node)`` lists ``(label, a, b)``: the left state moves on
    input id a, the right one on input id b, and every combination of
    their successors is one labelled edge, in that order.
    """

    def step(node):
        moves_a, moves_b = succ_a[node[0]], succ_b[node[1]]
        return [
            (label, (p2, q2))
            for (label, a, b) in columns(node)
            for p2 in moves_a[a]
            for q2 in moves_b[b]
        ]

    return step


def align(sys_a: SynchronousSystem, sys_b: SynchronousSystem) -> tuple[list, list]:
    """``sys_b``'s successor and output tables in ``sys_a``'s numbering.

    Signatures compare symbol sets, not their order, so input column a
    of the result is ``sys_b``'s column for ``sys_a``'s a-th input, and
    output ids name ``sys_a``'s output symbols.
    """
    sys_a.require_same_signature(sys_b)
    succ, out = sys_b.succ, sys_b.out_ids
    columns = [sys_b.inputs.index(a) for a in sys_a.inputs]
    if columns != sorted(columns):
        succ = [tuple(moves[c] for c in columns) for moves in succ]
    renumber = [sys_a.outputs.index(o) for o in sys_b.outputs]
    if renumber != sorted(renumber):
        out = [renumber[o] for o in out]
    return succ, out


class Product:
    """Synchronized product of two systems of one signature, explored lazily.

    Both sides step on the same input.  ``sys_b`` is read through
    ``sys_a``'s input and output numbering (:func:`align`): a node is EQ
    iff its two output ids are equal.
    """

    def __init__(self, sys_a: SynchronousSystem, sys_b: SynchronousSystem):
        self.succ_a, self.out_a = sys_a.succ, sys_a.out_ids
        self.succ_b, self.out_b = align(sys_a, sys_b)
        steps = [(a, a, a) for a in range(len(sys_a.inputs))]
        self.step = pair_step(self.succ_a, self.succ_b, lambda node: steps)

    def eq(self, node) -> bool:
        return self.out_a[node[0]] == self.out_b[node[1]]


def reach(start, step: Callable, keep: Optional[Callable] = None) -> dict:
    """Breadth-first exploration from ``start``.

    Returns ``node -> [(label, successor)]`` in discovery order, keeping
    only the edges into nodes that satisfy ``keep`` (all when None), so
    the region explored is the one reachable through kept nodes.
    """
    graph = {start: []}
    queue = [start]
    for node in queue:
        edges = graph[node] = [e for e in step(node) if keep is None or keep(e[1])]
        for (_, t) in edges:
            if t not in graph:
                graph[t] = []
                queue.append(t)
    return graph


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


# A PairRows walk raises LevelBoundExceeded past this many levels.  A
# state entering output cycles of lengths 13, 17, 19 and 23 walks
# 96,577 levels (their lcm); adding a cycle of 29 would walk 2.8 million.
MAX_LEVELS = 200_000


class _Image(dict):
    """Successor bitsets of one set of inputs, each set's image computed once.

    ``image[bits]`` is the union of the successors, on any of the inputs
    (bit a of ``inputs`` marks input a), of the states in ``bits``.  For
    one state q it is ``single[q]``.  A larger set is read through byte
    tables: the table of chunk c maps each byte value b to the union of
    ``single[q]`` over the states q = 8c + k with bit k set in b (the
    "Four Russians" tables of Arlazarov, Dinic, Kronrod and Faradzev
    1970), built the first time a set of two or more states reads that
    chunk.
    """

    def __init__(self, succ: Sequence, inputs: int):
        super().__init__()
        ids = [a for a in range(inputs.bit_length()) if inputs >> a & 1]
        self.single = []
        for moves in succ:
            bits = 0
            for a in ids:
                for t in moves[a]:
                    bits |= 1 << t
            self.single.append(bits)
        self.width = (len(succ) + 7) // 8
        self.chunks: list[Optional[list[int]]] = [None] * self.width

    def _chunk(self, c: int) -> list[int]:
        table = [0]
        for row in self.single[8 * c : 8 * c + 8]:
            table += [image | row for image in table]
        table += [0] * (256 - len(table))
        self.chunks[c] = table
        return table

    def __missing__(self, bits: int) -> int:
        if not bits & (bits - 1):
            image = self.single[bits.bit_length() - 1]
        else:
            image = 0
            chunks = self.chunks
            for c, byte in enumerate(bits.to_bytes(self.width, "little")):
                if byte:
                    image |= (chunks[c] or self._chunk(c))[byte]
        self[bits] = image
        return image


class PairRows:
    """Sets of state pairs of two successor tables, one bitset per row.

    A pair (p, q) holds a state id p of ``succ_a`` and q of ``succ_b``.  A
    frontier is the tuple of ``(p, bits)`` over its nonempty rows in
    increasing p, where bit q of ``bits`` marks the pair (p, q); equal
    sets are equal tuples.  A step follows each row's masked columns
    ``(ae, af, mask)``: every p' in ``succ_a[p][ae]`` gains the
    af-image of ``bits & mask`` (mask -1 keeps every bit).  Columns of a
    row with one successor tuple and one mask form one group, which
    reads the image of all their af inputs at once.  A step thus costs,
    per row and column group, one table lookup per 8-state chunk its
    masked bits touch.  A set met before in the walk costs one
    dictionary lookup, and so does a row with one bit, whose pair's
    whole step is kept.
    """

    def __init__(self, succ_a: Sequence, succ_b: Sequence):
        self.succ_a, self.succ_b = succ_a, succ_b
        self._images: dict[int, _Image] = {}

    def frontier(self, pairs: Iterable[tuple[int, int]]) -> tuple:
        """The frontier holding the given pairs."""
        rows: dict[int, int] = {}
        for p, q in pairs:
            rows[p] = rows.get(p, 0) | 1 << q
        return tuple(sorted(rows.items()))

    def columns(self, masked: Callable) -> "_Columns":
        """The step along the masked columns ``masked(p)`` of each row p."""
        return _Columns(self, masked)

    def group(self, p: int, masked: Iterable[tuple[int, int, int]]) -> list:
        """Row p's columns as ``(targets, mask, image)``, one per successor tuple and mask."""
        afs: dict[tuple, int] = {}
        moves = self.succ_a[p]
        for ae, af, mask in masked:
            key = (moves[ae], mask)
            afs[key] = afs.get(key, 0) | 1 << af
        groups = []
        for (targets, mask), inputs in afs.items():
            image = self._images.get(inputs)
            if image is None:
                image = self._images[inputs] = _Image(self.succ_b, inputs)
            groups.append((targets, mask, image))
        return groups

    def step(self, frontier: tuple, columns: "_Columns") -> tuple:
        rows: dict[int, int] = {}
        pairs = columns.pairs
        for row in frontier:
            p, bits = row
            if bits & (bits - 1):
                for targets, mask, image in columns[p]:
                    masked = bits & mask
                    if masked:
                        image_bits = image[masked]
                        for t in targets:
                            if t in rows:
                                rows[t] |= image_bits
                            else:
                                rows[t] = image_bits
            else:
                for t, image_bits in pairs[row]:
                    if t in rows:
                        rows[t] |= image_bits
                    else:
                        rows[t] = image_bits
        return tuple(sorted(rows.items()))

    def walk(self, frontier: tuple, columns: "_Columns", value: Callable) -> tuple[list, int]:
        """Values of the frontiers from ``frontier`` on, as a lasso.

        Steps until a frontier repeats and returns ``value`` of each
        frontier in order and the index the last one loops back to.
        Finitely many frontiers exist; past :data:`MAX_LEVELS` of them
        the walk raises LevelBoundExceeded.
        """
        seen: dict[tuple, int] = {}
        values: list = []
        step = self.step
        while frontier not in seen:
            if len(values) == MAX_LEVELS:
                raise LevelBoundExceeded(MAX_LEVELS)
            seen[frontier] = len(values)
            values.append(value(frontier))
            frontier = step(frontier, columns)
        return values, seen[frontier]


class _Columns(dict):
    """Row p's column groups (:meth:`PairRows.group`), built on first lookup.

    ``pairs`` holds the step of each single pair met so far.
    """

    def __init__(self, rows: PairRows, masked: Callable):
        super().__init__()
        self.rows, self.masked = rows, masked
        self.pairs = _PairSteps(self)

    def __missing__(self, p: int) -> list:
        groups = self[p] = self.rows.group(p, self.masked(p))
        return groups


class _PairSteps(dict):
    """``self[(p, 1 << q)]`` is the step of the pair (p, q), as ``((p', bits'), ...)``."""

    def __init__(self, columns: _Columns):
        super().__init__()
        self.columns = columns

    def __missing__(self, row: tuple[int, int]) -> tuple:
        p, bits = row
        step: dict[int, int] = {}
        for targets, mask, image in self.columns[p]:
            if bits & mask:
                image_bits = image[bits]
                for t in targets:
                    step[t] = step.get(t, 0) | image_bits
        self[row] = result = tuple(step.items())
        return result


def lasso_at(values: Sequence, loop: int, i: int):
    """Element i of the lasso whose tail ``values[loop:]`` repeats forever."""
    if i < len(values):
        return values[i]
    return values[loop + (i - loop) % (len(values) - loop)]


@dataclass(frozen=True)
class Partition:
    """Bisimulation partition: total map from states onto class indices."""

    class_of: Mapping[str, int]
    classes: tuple[int, ...]
    representative: Mapping[int, str]

    def same_class(self, p: str, q: str) -> bool:
        return self.class_of[p] == self.class_of[q]


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
    Tarjan 1987) and a round costs what its re-signed states cost.  Each
    change is appended to the state's history as ``(round, id)``; ids name
    blocks uniquely, so two states share a block at round k iff their ids
    at round k are equal.
    """

    def __init__(self, succ: Sequence[tuple[tuple[int, ...], ...]], out: Sequence[int]):
        self.succ = succ
        preds: list[list[int]] = [[] for _ in succ]
        for i, moves in enumerate(succ):
            for j in set(itertools.chain.from_iterable(moves)):
                preds[j].append(i)
        deterministic = all(len(ts) == 1 for moves in succ for ts in moves)
        first: dict[int, int] = {}
        cls = [first.setdefault(o, len(first)) for o in out]
        members: list[set[int]] = [set() for _ in first]
        for i, c in enumerate(cls):
            members[c].add(i)
        history = [[(0, c)] for c in cls]
        rounds = 0
        dirty: Iterable[int] = range(len(succ))
        while dirty:
            rounds += 1
            parts: dict[tuple, list[int]] = {}
            for i in dirty:
                if deterministic:
                    key = (cls[i], *[cls[t] for (t,) in succ[i]])
                else:
                    key = (cls[i], *[frozenset([cls[t] for t in ts]) for ts in succ[i]])
                parts.setdefault(key, []).append(i)
            splits: dict[int, list] = {}
            for key, part in parts.items():
                splits.setdefault(key[0], []).append(part)
            moved: list[int] = []
            for block, split in splits.items():
                rest = members[block]
                for part in split:
                    rest.difference_update(part)
                biggest = max(split, key=len)
                if len(rest) < len(biggest):
                    split.remove(biggest)
                    split.append(rest)
                    members[block] = set(biggest)
                for part in split:
                    if not part:
                        continue
                    fresh = len(members)
                    members.append(set(part))
                    for i in part:
                        cls[i] = fresh
                        history[i].append((rounds, fresh))
                    moved.extend(part)
            dirty = {p for i in moved for p in preds[i]}
        self.cls = cls
        self.history = history
        self.rounds = rounds

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
    """Quotient by bisimilarity; quotient states are class representatives."""
    partition = bisim_classes(sys)
    rep_of = {q: partition.representative[partition.class_of[q]] for q in sys.states}
    states = tuple(partition.representative[c] for c in partition.classes)
    # Each quotient transition once, where it first occurs.
    transitions = dict.fromkeys((rep_of[s], a, rep_of[t]) for (s, a, t) in sys.transitions)
    quotient = SynchronousSystem(
        name=f"{sys.name}_q",
        inputs=sys.inputs,
        outputs=sys.outputs,
        states=states,
        transitions=tuple(transitions),
        out_label={q: sys.out(q) for q in states},
        initial=rep_of[sys.initial],
    )
    return partition, quotient


def disjoint_union(
    sys_a: SynchronousSystem, sys_b: SynchronousSystem
) -> tuple[SynchronousSystem, str, str]:
    """Disjoint union with ``A.``/``B.`` prefixed state names.

    Returns the union plus the two prefixes; requires equal signatures.
    Its states are those a cross-system :class:`BisimOracle` refines, so
    the witnesses of :func:`non_bisimilar` replay against it.
    """
    sys_a.require_same_signature(sys_b)
    sides = (("A.", sys_a), ("B.", sys_b))
    union = SynchronousSystem(
        name=f"{sys_a.name}+{sys_b.name}",
        inputs=sys_a.inputs,
        outputs=sys_a.outputs,
        states=tuple(p + q for (p, side) in sides for q in side.states),
        transitions=tuple(
            (p + s, a, p + t) for (p, side) in sides for (s, a, t) in side.transitions
        ),
        out_label={p + q: side.out_label[q] for (p, side) in sides for q in side.states},
        initial=f"A.{sys_a.initial}",
    )
    return union, "A.", "B."


class BisimOracle:
    """Non-bisimilarity queries between two (possibly identical) systems.

    Reuses a system's own cached refinement when both sides are one
    system.  Otherwise it refines ``sys_a``'s tables followed by
    ``sys_b``'s aligned ones (:func:`align`), with ``sys_b``'s ids offset
    by the number of ``sys_a``'s states: the tables of
    :func:`disjoint_union`, whose ``A.``/``B.`` state names the witnesses
    carry.  ``cls_a`` and ``cls_b`` give the final block of each state id
    of either side (equal blocks iff bisimilar); the refinement history
    answers :meth:`depth` and the moves of every witness.
    """

    def __init__(self, sys_a: SynchronousSystem, sys_b: SynchronousSystem):
        self.sys_a, self.sys_b = sys_a, sys_b
        if sys_a is sys_b:
            self.offset = 0
            self.out_ids = sys_a.out_ids
            self._refinement = ref = sys_a.refinement
            self.cls_a = self.cls_b = ref.cls
            return
        succ_b, out_b = align(sys_a, sys_b)
        self.offset = n = len(sys_a.states)
        self.out_ids = sys_a.out_ids + out_b
        shifted = [tuple(tuple(t + n for t in ts) for ts in moves) for moves in succ_b]
        self._refinement = ref = _Refinement(sys_a.succ + shifted, self.out_ids)
        self.cls_a, self.cls_b = ref.cls, ref.cls[n:]

    def ids(self, qa: str, qb: str) -> tuple[int, int]:
        """Refined ids of a state of each side."""
        return self.sys_a.index[qa], self.offset + self.sys_b.index[qb]

    def name(self, i: int) -> str:
        """Witness name of a refined id, ``A.``/``B.`` prefixed when the sides differ."""
        if self.sys_a is self.sys_b:
            return self.sys_a.states[i]
        n = self.offset
        return f"A.{self.sys_a.states[i]}" if i < n else f"B.{self.sys_b.states[i - n]}"

    def distinct(self, qa: str, qb: str) -> bool:
        """True iff the two states are non-bisimilar."""
        return self.cls_a[self.sys_a.index[qa]] != self.cls_b[self.sys_b.index[qb]]

    def depth(self, qa: str, qb: str) -> Optional[int]:
        """Least k at which the k-step approximants separate, None if bisimilar."""
        return self._refinement.depth(*self.ids(qa, qb))


@dataclass(frozen=True)
class BaseWitness:
    """Output mismatch: out(p) != out(q)."""

    p: str
    q: str
    out_p: str
    out_q: str

    @property
    def depth(self) -> int:
        return 0


@dataclass(frozen=True, eq=False, repr=False)
class IndWitness:
    """One inductive layer of a non-bisimilarity proof.

    ``side`` is 'left' when the existential player moves from p, 'right'
    when it moves from q.  ``children`` maps every opposing successor to
    a witness separating it from ``chosen``.  Witnesses can be thousands
    of layers deep, so equality and hashing go by identity and the repr
    shows one layer.
    """

    p: str
    q: str
    input: str
    side: str
    chosen: str
    children: tuple[tuple[str, Union["BaseWitness", "IndWitness"]], ...]

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


def non_bisimilar(
    sys_a: SynchronousSystem,
    qa: str,
    sys_b: SynchronousSystem,
    qb: str,
    oracle: Optional[BisimOracle] = None,
) -> Optional[NonBisimWitness]:
    """Minimal-depth witness that qa and qb are non-bisimilar, or None.

    The witness depth equals the least k at which the k-step
    bisimulation approximants separate the states.  A precomputed oracle
    for the same system pair may be passed to amortize repeated queries.
    Each state pair's sub-witness is built once and shared.
    """
    sys_a.check_state(qa)
    sys_b.check_state(qb)
    if oracle is None:
        oracle = BisimOracle(sys_a, sys_b)
    if not oracle.distinct(qa, qb):
        return None
    ref, name, out = oracle._refinement, oracle.name, oracle.out_ids
    inputs, outputs = sys_a.inputs.symbols, sys_a.outputs.symbols
    built: dict[tuple[int, int], NonBisimWitness] = {}

    def rule(pair: tuple[int, int]):
        p, q = pair
        k = ref.depth(p, q)
        if k == 0:
            w = BaseWitness(name(p), name(q), outputs[out[p]], outputs[out[q]])
        else:
            a, side, chosen, children = ref.move(p, q, k)
            opponent = 1 if side == "left" else 0
            subs = []
            for c in children:
                sub = built.get(c)
                subs.append((name(c[opponent]), (yield c) if sub is None else sub))
            w = IndWitness(name(p), name(q), inputs[a], side, name(chosen), tuple(subs))
        built[pair] = w
        return w

    return fold(rule, oracle.ids(qa, qb))


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
