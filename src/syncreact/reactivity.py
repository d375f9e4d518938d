"""Separating pairs, separators, observable effects, and reaction time.

Each query walks the synchronized product of a system with itself,
stepping on one shared input per tick, lazily and only as far as it
needs; states of two systems are compared on their disjoint union.  A
node is EQ when both components emit the same output and DIFF
otherwise.  ``diff`` and ``separators`` step sets of run pairs as
:mod:`syncreact.frontier` frontiers, imported in their bodies only.
Strong separability and reaction time search node by node
(:func:`_successor_pairs`): completeness and finite branching make the
run-pair paths a finitely-branching tree, so an infinite all-EQ path
exists iff the region reachable through EQ nodes has a cycle, and
worst-case first difference indices are longest paths in the acyclic
case.  :func:`separating_pairs` walks no product: it names what
:func:`syncreact.separation.separating_ids` reads off the blocks.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .core import STAR, Record, SynchronousSystem, require_complete
from .errors import SeparatorBoundExceeded
from .separation import separating_ids

Pair = tuple[str, str]

# separators raises SeparatorBoundExceeded when a level holds more words
# still to extend.  They can double with every level (p1.sls p0 p0 holds
# 2^n after n); at this bound (--max-len 16) they peak at about 32 MB.
MAX_PENDING_WORDS = 1 << 16


class SepPairSet(Record):
    """Separating input pairs of one state, unordered, alphabet ordered."""

    __slots__ = ("pairs", "deterministic_subset")

    def __init__(
        self,
        pairs: tuple[tuple[str, str], ...],
        deterministic_subset: tuple[tuple[str, str], ...],
    ):
        self.pairs, self.deterministic_subset = pairs, deterministic_subset

    @property
    def reactive(self) -> bool:
        return bool(self.pairs)


def separating_pairs(sys: SynchronousSystem, q: str) -> SepPairSet:
    """Separating pairs of q: inputs whose successors are non-bisimilar.

    (a1, a2) is separating iff some a1-successor is non-bisimilar to
    every a2-successor, or symmetrically.  It is deterministic iff every
    a1-successor is non-bisimilar to every a2-successor.  Pairs are
    reported with symbols in input declaration order.
    """
    sys.check_state(q)
    symbols, i = sys.inputs.symbols, sys.index[q]
    pairs, deterministic = (
        tuple((symbols[a1], symbols[a2]) for (a1, a2) in ids)
        for ids in separating_ids(sys, i, i)
    )
    return SepPairSet(pairs, deterministic)


def reactive(sys: SynchronousSystem, q: str) -> bool:
    return separating_pairs(sys, q).reactive


def _successor_pairs(succ, node: tuple[int, int]) -> list:
    """A node's ``(input id, pair)`` steps: both states move on each input, in order."""
    moves = map(itertools.product, succ[node[0]], succ[node[1]])
    return [(a, t) for a, pairs in enumerate(moves) for t in pairs]


def separators(
    sys: SynchronousSystem, p: str, q: str, max_len: int
) -> list[tuple[tuple[str, ...], bool]]:
    """Minimal separators of (p, q) up to max_len, each flagged deterministic.

    A word separates when some pair of synchronized runs on it emits
    different output words (outputs of all visited states, including the
    last); it is deterministic when every pair of runs does.  Words
    extending a deterministic separator are pruned: they carry no new
    information because every extension still separates.  A level with
    more than :data:`MAX_PENDING_WORDS` words still to extend raises
    SeparatorBoundExceeded.  A word keeps the frontier of its pending
    run pairs, which have not differed, and one flag for "some run pair
    has differed": on a complete system a differed run pair stays
    differed on every extension.
    """
    from .frontier import _carriers, _frontier, _letter_steps

    root = require_complete(sys, p, q)
    out = sys.out_ids
    if out[root[0]] != out[root[1]]:
        # The empty word already separates: output at index 0 differs.
        return [((), True)]
    symbols = sys.inputs.symbols
    emitting = list(map(_carriers(out), range(len(sys.outputs))))
    steps = _letter_steps(sys.succ, len(symbols))
    results: list[tuple[tuple[str, ...], bool]] = []
    frontier: list[tuple[tuple[str, ...], tuple, bool]] = [((), _frontier([root]), False)]
    for _ in range(max_len):
        next_frontier = []
        for (word, pending, differed) in frontier:
            for a, sym in enumerate(symbols):
                reached, split = [], differed
                for t, bits in steps[a](pending):
                    equal = bits & emitting[out[t]]
                    if equal:
                        reached.append((t, equal))
                    if equal != bits:
                        split = True
                if split:
                    results.append((word + (sym,), not reached))
                if reached:
                    if len(next_frontier) == MAX_PENDING_WORDS:
                        raise SeparatorBoundExceeded(MAX_PENDING_WORDS)
                    next_frontier.append((word + (sym,), tuple(reached), split))
        frontier = next_frontier
    return results


class StrongSepResult(Record):
    """Verdict plus certificate for strong separability of a state pair.

    When separable, ``bound`` is the length of the longest run pair that
    has not yet differed, so every input word of that length plus one is
    a deterministic separator.  When not separable, ``cycle`` is a lasso
    of EQ nodes witnessing an infinite input word with no difference.
    """

    __slots__ = ("separable", "bound", "cycle")

    def __init__(
        self,
        separable: bool,
        bound: Optional[int] = None,
        cycle: Optional[tuple[tuple[Pair, str], ...]] = None,
    ):
        self.separable, self.bound, self.cycle = separable, bound, cycle


def strongly_separable(sys: SynchronousSystem, p: str, q: str) -> StrongSepResult:
    """True iff every infinite input word has a deterministic separator prefix.

    On finite complete systems this reduces to acyclicity of the EQ
    region reachable from (p, q) through EQ nodes.
    """
    root = require_complete(sys, p, q)
    cycle, _, length = _eq_search(sys, [root])
    if cycle is None:
        return StrongSepResult(True, bound=length.get(root, 0))
    symbols, names = sys.inputs.symbols, sys.states
    return StrongSepResult(
        False,
        cycle=tuple(((names[x], names[y]), symbols[a]) for ((x, y), a) in cycle),
    )


def _eq_search(sys: SynchronousSystem, roots) -> tuple[Optional[tuple], dict, dict]:
    """Depth-first search of sys's EQ region from each root in turn: ``(cycle, edges, length)``.

    ``cycle`` is the first EQ lasso met, as ``(node, input id)`` steps,
    else None.  ``edges`` holds a node's EQ :func:`_successor_pairs`,
    listed when the search enters it, so it expands only what it
    reaches, and each node once.  ``length`` holds each finished node's
    longest all-EQ path, set at exit.  DIFF roots and finished roots are
    skipped.  Children are pushed in edge order and the last is entered
    first; back edges are caught on entry.
    """
    succ, out = sys.succ, sys.out_ids
    edges: dict = {}
    length: dict = {}
    for root in roots:
        if root in edges or out[root[0]] != out[root[1]]:
            continue
        path: list[tuple] = []  # (node, input id it was entered on) of unfinished nodes
        stack: list[tuple] = [(True, root, None)]
        while stack:
            entering, node, via = stack.pop()
            if not entering:
                length[node] = max((1 + length[t] for (_, t) in edges[node]), default=0)
                path.pop()
                continue
            if node in edges:
                continue
            path.append((node, via))
            stack.append((False, node, None))
            eq = edges[node] = [
                (a, t) for (a, t) in _successor_pairs(succ, node) if out[t[0]] == out[t[1]]
            ]
            for (a, t) in eq:
                if t not in edges:
                    stack.append((True, t, a))
                elif t not in length:
                    # A back edge: slice the cycle out of the path.
                    start = [n for (n, _) in path].index(t)
                    cycle = [(path[i][0], path[i + 1][1]) for i in range(start, len(path) - 1)]
                    return tuple(cycle) + ((node, a),), edges, length
    return None, edges, length


def diff(sys: SynchronousSystem, p: str, q: str, word: Sequence[str]) -> list[set]:
    """Observed effect values of (p, q) along a word, one set per index.

    Index n collects, over every synchronized run pair on the first n
    symbols, the ordered output pair at position n when the outputs
    differ, and the silent symbol when some run pair agrees there.
    Indices run from 0 to len(word) inclusive; a singleton non-silent
    set means a guaranteed effect at that index.
    """
    from .frontier import _frontier, _letter_steps, _output_pairs

    root = require_complete(sys, p, q)
    sys.check_word(word)
    outputs, (key, named) = sys.outputs.symbols, _output_pairs(sys)
    steps = _letter_steps(sys.succ, len(sys.inputs))
    inputs = map(sys.inputs.index, word)
    frontiers = itertools.accumulate(inputs, lambda f, a: steps[a](f), initial=_frontier([root]))
    pairs = map(named, map(key, frontiers))
    return [{STAR if x == y else (outputs[x], outputs[y]) for x, y in at} for at in pairs]


class ReactionTime(Record):
    """Finite worst-case first-effect index with a witness word, or infinite."""

    __slots__ = ("time", "witness")

    def __init__(self, time: Optional[int], witness: Optional[tuple[str, ...]] = None):
        self.time, self.witness = time, witness

    @property
    def is_finite(self) -> bool:
        return self.time is not None


def det_reaction_time(sys: SynchronousSystem, q: str) -> ReactionTime:
    """Worst-case transitions until the first guaranteed observable effect.

    Infinite when q has no deterministic separating pair, or when some
    successor pair of one fails strong separability.  Otherwise the
    maximum, over deterministic separating pairs, successor combinations
    and infinite words, of the first index at which every run pair has
    differed: one past the longest all-EQ path from each successor pair.
    The witness spells a longest all-EQ path plus one forcing symbol.
    """
    (i,) = require_complete(sys, q)
    _, deterministic = separating_ids(sys, i, i)
    if not deterministic:
        return ReactionTime(None)
    moves, out = sys.succ[i], sys.out_ids
    roots = [(q1, q2) for (a1, a2) in deterministic for q1 in moves[a1] for q2 in moves[a2]]
    cycle, edges, length = _eq_search(sys, roots)
    if cycle is not None:
        return ReactionTime(None)
    # The first worst case wins ties.
    times = [(length[r] + 1 if out[r[0]] == out[r[1]] else 0, r) for r in roots]
    time, node = max(times, key=lambda c: c[0])
    witness = []
    if time > 0:
        while length[node] > 0:
            a, node = next((a, t) for (a, t) in edges[node] if length[t] == length[node] - 1)
            witness.append(a)
        witness.append(0)
    return ReactionTime(time, tuple(sys.inputs.symbols[a] for a in witness))
