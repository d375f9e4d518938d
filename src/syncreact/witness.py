"""Constructive non-bisimilarity witnesses and their replay.

A witness is the paper's proof that two states are not bisimilar: an
output mismatch (:class:`BaseWitness`), or a move of one side that no
move of the other can answer, with a witness below for every answer
(:class:`IndWitness`).  :func:`syncreact.core.non_bisimilar` answers a
bisimilar pair itself and loads this module only to build a witness,
so only a command that prints one compiles it, and with it the reading
of the refinement's block genealogy (:func:`id_at`, :func:`depth`,
:func:`move`).
"""

from __future__ import annotations

from typing import Optional, Union

from .core import Record, SynchronousSystem, _Refinement, fold


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


def id_at(ref: _Refinement, i: int, k: int) -> int:
    """Block id of state ``i`` after round ``k`` >= 0, read from ``ref``'s genealogy."""
    c, parent, born = ref.cls[i], ref.parent, ref.born
    while born[c] > k:
        c = parent[c]
    return c


def depth(ref: _Refinement, i: int, j: int) -> Optional[int]:
    """Least round at which the ids of i and j differ, None if never."""
    if ref.cls[i] == ref.cls[j]:
        return None
    lo, hi = 0, ref.rounds
    while lo < hi:
        mid = (lo + hi) // 2
        if id_at(ref, i, mid) == id_at(ref, j, mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def move(ref: _Refinement, i: int, j: int, k: int) -> tuple[int, str, int, list[tuple[int, int]]]:
    """First move of a depth-k proof that i and j differ, k > 0.

    Returns the input index, the side that moves, its chosen successor
    and the successor pairs the opponent can answer with, each of
    which differs at round k-1.  Inputs, sides and successors are
    tried in declaration order.
    """
    below = k - 1
    for a, (ps, qs) in enumerate(zip(ref.succ[i], ref.succ[j])):
        for p2 in ps:
            c = id_at(ref, p2, below)
            if all(id_at(ref, q2, below) != c for q2 in qs):
                return a, "left", p2, [(p2, q2) for q2 in qs]
        for q2 in qs:
            c = id_at(ref, q2, below)
            if all(id_at(ref, p2, below) != c for p2 in ps):
                return a, "right", q2, [(p2, q2) for p2 in ps]
    raise AssertionError("refinement genealogy is inconsistent")


def build_witness(sys: SynchronousSystem, root: tuple[int, int]) -> NonBisimWitness:
    """Minimal-depth witness that the states of ``root``, two non-bisimilar ids, differ.

    Every layer follows ``sys.refinement``'s genealogy: the pair's
    separation depth (:func:`depth`) and the first move of a proof of
    that depth (:func:`move`).  Each state pair's
    sub-witness is built once and shared.
    """
    ref, names, out = sys.refinement, sys.states, sys.out_ids
    inputs, outputs = sys.inputs.symbols, sys.outputs.symbols
    built: dict[tuple[int, int], NonBisimWitness] = {}

    def rule(pair: tuple[int, int]):
        p, q = pair
        k = depth(ref, p, q)
        if k == 0:
            w = BaseWitness(names[p], names[q], outputs[out[p]], outputs[out[q]])
        else:
            a, side, chosen, children = move(ref, p, q, k)
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
