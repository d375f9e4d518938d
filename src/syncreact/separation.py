"""Separating input pairs of a state pair, read off the bisimulation blocks.

An input ae beats af at a state pair (p, q) when some ae-successor of p
is non-bisimilar to every af-successor of q.  A pair of inputs
separates (p, q) when it beats in either orientation.  These are the
primitives both the pair-graph queries (``reactivity``) and the level
walks (``abstraction``) start from.  They live apart from both, so a
level walk does not load ``reactivity``, and outside ``core``, which
every command loads.
"""

from __future__ import annotations

import itertools

from .core import BisimOracle, SynchronousSystem


def class_gaps(succ, cls, inputs: int) -> list[dict[int, int]]:
    """Per input af and block c, the bitset of states q with no af-successor in c.

    Blocks that no af-successor reaches are left out: their bitset is
    every state.
    """
    everything = (1 << len(succ)) - 1
    gaps = []
    for af in range(inputs):
        reached: dict[int, int] = {}
        for q, moves in enumerate(succ):
            for c in {cls[y] for y in moves[af]}:
                reached[c] = reached.get(c, 0) | 1 << q
        gaps.append({c: everything ^ bits for c, bits in reached.items()})
    return gaps


def row_orientations(moves_p, cls, gaps: list[dict[int, int]], everything: int) -> dict:
    """The orientations that separate, for a whole row: ``(ae, af) -> bitset of q``.

    ``moves_p`` are the successors per input of one state p, ``gaps``
    come from :func:`class_gaps` on the states q it is paired with,
    which ``everything`` holds.  Bit q of the bitset of (ae, af),
    ae != af, is set iff ae beats af at (p, q): some ae-successor of p
    has a block that no af-successor of q has.  One pair (p, q) is the
    row of p against q alone: ``class_gaps([moves_q], ..)`` with
    ``everything`` 1.
    """
    masks = {}
    for ae, moves in enumerate(moves_p):
        blocks = {cls[x] for x in moves}
        for af, gap in enumerate(gaps):
            if af != ae:
                bits = 0
                for c in blocks:
                    bits |= gap.get(c, everything)
                masks[(ae, af)] = bits
    return masks


def separating_ids(sys: SynchronousSystem, i: int, j: int):
    """Separating pairs of state ids (i, j) and their deterministic subset, as input id pairs.

    (a1, a2) separates when some a1-successor of i is non-bisimilar to
    every a2-successor of j, or the same with a1 and a2 swapped.  It is
    deterministic when no a1-successor of i is bisimilar to an
    a2-successor of j.
    """
    cls = BisimOracle(sys).cls
    moves_p, moves_q = sys.succ[i], sys.succ[j]
    held = row_orientations(moves_p, cls, class_gaps([moves_q], cls, len(moves_q)), 1)
    pairs, deterministic = [], []
    for (a1, a2) in itertools.combinations(range(len(moves_p)), 2):
        if held[(a1, a2)] | held[(a2, a1)]:
            pairs.append((a1, a2))
            if not {cls[x] for x in moves_p[a1]} & {cls[y] for y in moves_q[a2]}:
                deterministic.append((a1, a2))
    return pairs, deterministic
