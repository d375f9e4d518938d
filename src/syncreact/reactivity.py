"""Separating pairs, separators, observable effects, and reaction time.

Everything here walks the synchronized product of two state spaces
stepping on one shared input per tick (:class:`core.Product`), lazily
and only as far as a query needs.  A node is EQ when both components
emit the same output and DIFF otherwise.  Quantifications over infinite
input words are discharged by graph arguments: completeness and finite
branching make the set of run-pair paths a finitely-branching tree, so
an infinite all-EQ path exists iff the region reachable through EQ
nodes has a cycle, and worst-case first difference indices are longest
paths in the acyclic case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import BisimOracle, Product, SynchronousSystem, reach
from .lasso import STAR

Pair = tuple[str, str]


@dataclass(frozen=True)
class SepPairSet:
    """Separating input pairs of one state, unordered, alphabet ordered."""

    pairs: tuple[tuple[str, str], ...]
    deterministic_subset: tuple[tuple[str, str], ...]

    @property
    def reactive(self) -> bool:
        return bool(self.pairs)


def class_gaps(succ_b, cls_b, inputs: int) -> list[dict[int, int]]:
    """Per input af and block c, the bitset of states q with no af-successor in c.

    Blocks that no af-successor reaches are left out: their bitset is
    every state.
    """
    everything = (1 << len(succ_b)) - 1
    gaps = []
    for af in range(inputs):
        reached: dict[int, int] = {}
        for q, moves in enumerate(succ_b):
            for c in {cls_b[y] for y in moves[af]}:
                reached[c] = reached.get(c, 0) | 1 << q
        gaps.append({c: everything ^ bits for c, bits in reached.items()})
    return gaps


def row_orientations(moves_a, cls_a, gaps: list[dict[int, int]], everything: int) -> dict:
    """The orientations that separate, for a whole row: ``(ae, af) -> bitset of q``.

    ``moves_a`` are the successors per input of one left state p,
    ``gaps`` come from :func:`class_gaps` on the right side, whose
    states ``everything`` holds.  Bit q of the bitset of (ae, af),
    ae != af, is set iff ae beats af at (p, q): some ae-successor of p
    has a block that no af-successor of q has.  One pair (p, q) is the
    row of p against a one-state right side: ``class_gaps([moves_q],
    ..)`` with ``everything`` 1.
    """
    masks = {}
    for ae, moves in enumerate(moves_a):
        blocks = {cls_a[x] for x in moves}
        for af, gap in enumerate(gaps):
            if af != ae:
                bits = 0
                for c in blocks:
                    bits |= gap.get(c, everything)
                masks[(ae, af)] = bits
    return masks


def _separating_ids(sys: SynchronousSystem, q: str, oracle: Optional[BisimOracle] = None):
    """Separating pairs of q and their deterministic subset, as input id pairs in order."""
    if oracle is None:
        oracle = BisimOracle(sys, sys)
    moves = sys.succ[sys.index[q]]
    cls_a, cls_b = oracle.cls_a, oracle.cls_b
    held = row_orientations(moves, cls_a, class_gaps([moves], cls_b, len(moves)), 1)
    pairs, deterministic = [], []
    for (a1, a2) in itertools.combinations(range(len(sys.inputs)), 2):
        if held[(a1, a2)] | held[(a2, a1)]:
            pairs.append((a1, a2))
            if not {cls_a[x] for x in moves[a1]} & {cls_b[y] for y in moves[a2]}:
                deterministic.append((a1, a2))
    return pairs, deterministic


def separating_pairs(
    sys: SynchronousSystem, q: str, oracle: Optional[BisimOracle] = None
) -> SepPairSet:
    """Separating pairs of q: inputs whose successors are non-bisimilar.

    (a1, a2) is separating iff some a1-successor is non-bisimilar to
    every a2-successor, or symmetrically.  It is deterministic iff every
    a1-successor is non-bisimilar to every a2-successor.  Pairs are
    reported with symbols in input declaration order.
    """
    sys.check_state(q)
    symbols = sys.inputs.symbols
    pairs, deterministic = (
        tuple((symbols[a1], symbols[a2]) for (a1, a2) in ids)
        for ids in _separating_ids(sys, q, oracle)
    )
    return SepPairSet(pairs, deterministic)


def reactive(sys: SynchronousSystem, q: str, oracle: Optional[BisimOracle] = None) -> bool:
    return separating_pairs(sys, q, oracle).reactive


def _rooted(sys_a: SynchronousSystem, p: str, sys_b: SynchronousSystem, q: str):
    """The product of the two systems and its node for (p, q)."""
    product = Product(sys_a, sys_b)
    sys_a.check_state(p)
    sys_b.check_state(q)
    return product, (sys_a.index[p], sys_b.index[q])


def separators(
    sys_a: SynchronousSystem,
    p: str,
    sys_b: SynchronousSystem,
    q: str,
    max_len: int,
) -> list[tuple[tuple[str, ...], bool]]:
    """Minimal separators of (p, q) up to max_len, each flagged deterministic.

    A word separates when some pair of synchronized runs on it emits
    different output words (outputs of all visited states, including the
    last); it is deterministic when every pair of runs does.  Words
    extending a deterministic separator are pruned: they carry no new
    information because every extension still separates.
    """
    product, root = _rooted(sys_a, p, sys_b, q)
    if not product.eq(root):
        # The empty word already separates: output at index 0 differs.
        return [((), True)]
    symbols = sys_a.inputs.symbols
    results: list[tuple[tuple[str, ...], bool]] = []
    # Frontier per candidate word: the nodes its run pairs reach, each
    # flagged once the path to it has passed a DIFF node.
    frontier: list[tuple[tuple[str, ...], set]] = [((), {(root, False)})]
    for _ in range(max_len):
        next_frontier = []
        for (word, nodes) in frontier:
            reached: list[set] = [set() for _ in symbols]
            for (node, differed) in nodes:
                for (a, t) in product.step(node):
                    reached[a].add((t, differed or not product.eq(t)))
            for a, sym in enumerate(symbols):
                flags = {differed for (_, differed) in reached[a]}
                if True in flags:
                    results.append((word + (sym,), False not in flags))
                if flags != {True}:
                    next_frontier.append((word + (sym,), reached[a]))
        frontier = next_frontier
    return results


@dataclass(frozen=True)
class StrongSepResult:
    """Verdict plus certificate for strong separability of a state pair.

    When separable, ``bound`` is the length of the longest run pair that
    has not yet differed, so every input word of that length plus one is
    a deterministic separator.  When not separable, ``cycle`` is a lasso
    of EQ nodes witnessing an infinite input word with no difference.
    """

    separable: bool
    bound: Optional[int] = None
    cycle: Optional[tuple[tuple[Pair, str], ...]] = None


def strongly_separable(
    sys_a: SynchronousSystem, p: str, sys_b: SynchronousSystem, q: str
) -> StrongSepResult:
    """True iff every infinite input word has a deterministic separator prefix.

    On finite complete systems this reduces to acyclicity of the EQ
    region reachable from (p, q) through EQ nodes.
    """
    product, root = _rooted(sys_a, p, sys_b, q)
    cycle, word = _strong_separation(product, root)
    if cycle is None:
        return StrongSepResult(True, bound=len(word))
    symbols = sys_a.inputs.symbols
    return StrongSepResult(
        False,
        cycle=tuple(
            ((sys_a.states[x], sys_b.states[y]), symbols[a]) for ((x, y), a) in cycle
        ),
    )


def _strong_separation(product: Product, root) -> tuple[Optional[tuple], tuple[int, ...]]:
    """An EQ lasso from root, or else one longest all-EQ word (input ids).

    A DIFF root has neither: its empty region gives ``(None, ())``.
    """
    if not product.eq(root):
        return None, ()
    region = reach(root, product.step, product.eq)
    cycle, postorder = _search(root, region)
    if cycle is not None:
        return cycle, ()
    return None, _longest_path_witness(root, region, postorder)


def _search(root, region):
    """Iterative DFS from root: ``(cycle, postorder)``, cycle None when the region is acyclic."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in region}
    path: list[tuple] = []
    postorder = []
    stack: list[tuple] = [("enter", root, None)]
    while stack:
        action, node, via = stack.pop()
        if action == "exit":
            color[node] = BLACK
            postorder.append(node)
            path.pop()
            continue
        if color[node] != WHITE:
            continue
        color[node] = GRAY
        path.append((node, via))
        stack.append(("exit", node, None))
        for (label, t) in region[node]:
            if color[t] == GRAY:
                # Found a back edge: slice the cycle out of the path.
                start = [n for (n, _) in path].index(t)
                cycle = [(path[i][0], path[i + 1][1]) for i in range(start, len(path) - 1)]
                return tuple(cycle) + ((node, label),), postorder
            if color[t] == WHITE:
                stack.append(("enter", t, label))
    return None, postorder


def _longest_path_witness(root, region, postorder) -> tuple:
    """Labels of one longest path from root in the acyclic region."""
    length: dict = {}
    for node in postorder:
        length[node] = max((1 + length[t] for (_, t) in region[node]), default=0)
    word = []
    node = root
    while length[node] > 0:
        for (label, t) in region[node]:
            if length[t] == length[node] - 1:
                word.append(label)
                node = t
                break
    return tuple(word)


def diff(
    sys_a: SynchronousSystem,
    p: str,
    sys_b: SynchronousSystem,
    q: str,
    word: Sequence[str],
) -> list[set]:
    """Observed effect values of (p, q) along a word, one set per index.

    Index n collects, over every synchronized run pair on the first n
    symbols, the ordered output pair at position n when the outputs
    differ, and the silent symbol when some run pair agrees there.
    Indices run from 0 to len(word) inclusive; a singleton non-silent
    set means a guaranteed effect at that index.
    """
    product, root = _rooted(sys_a, p, sys_b, q)
    sys_a.check_word(word)
    inputs = [sys_a.inputs.index(sym) for sym in word]
    outputs = sys_a.outputs.symbols
    frontier = {root}
    result = []
    for i in range(len(word) + 1):
        values: set = set()
        for (r1, r2) in frontier:
            o1, o2 = product.out_a[r1], product.out_b[r2]
            values.add((outputs[o1], outputs[o2]) if o1 != o2 else STAR)
        result.append(values)
        if i < len(word):
            frontier = {
                t for node in frontier for (a, t) in product.step(node) if a == inputs[i]
            }
    return result


@dataclass(frozen=True)
class ReactionTime:
    """Finite worst-case first-effect index with a witness word, or infinite."""

    time: Optional[int]
    witness: Optional[tuple[str, ...]] = None

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
    sys.check_state(q)
    _, deterministic = _separating_ids(sys, q)
    if not deterministic:
        return ReactionTime(None)
    product = Product(sys, sys)
    moves = sys.succ[sys.index[q]]
    candidates = []
    for (a1, a2) in deterministic:
        for q1 in moves[a1]:
            for q2 in moves[a2]:
                cycle, path_word = _strong_separation(product, (q1, q2))
                if cycle is not None:
                    return ReactionTime(None)
                differ = not product.eq((q1, q2))
                candidates.append((0, ()) if differ else (len(path_word) + 1, path_word + (0,)))
    # The first worst case wins ties.
    time, witness = max(candidates, key=lambda c: c[0], default=(-1, ()))
    return ReactionTime(time, tuple(sys.inputs.symbols[a] for a in witness))
