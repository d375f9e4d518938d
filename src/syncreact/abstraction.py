"""Compositional under-approximation of observable effects.

Deterministic observable effects (DOE) collapse every separating pair,
successor combination, input word and run pair of a state into one
effect sequence: a position holds a fixed output pair only when every
behavior exhibits exactly that difference there, and the silent symbol
otherwise.  Strongly separating pair sequences (SSPseq) are the
receiver-side dual: per-level sets of input pairs that keep separating
along every tracked successor pair.  The reactivity lemma combines the
two across a sequential composition without ever building the product.

Per-position universal quantifications over infinite words are
discharged exactly by level-set constructions: the frontier of run
pairs after n shared inputs ranges over a finite powerset, so both DOE
and SSPseq are ultimately periodic and are extracted as lassos by
frontier hashing.  Frontiers are per-row bitsets, and each step
relation is one :class:`~syncreact.frontier.PairRows`; both live in
:mod:`syncreact.frontier`, and each level keeps only an integer key of
what a query reads.

A step is a union of per-pair steps and a key is the OR of its pairs'
keys, so a frontier's future is the union of its pairs' own walks,
their orbits.  A joint walk loops only after the lcm of the periods of
the cycles its pairs enter; every DOE and SSPseq level walk
(:func:`_levels`) therefore answers a walk still going at
:data:`SPLIT_LEVEL` whose frontier holds at most :data:`MAX_ORBITS`
pairs from one walk per pair, combining the orbits' keys as
per-key-bit bitsets over time (:mod:`syncreact.orbits`, which loads
only for such a walk).  Where the orbits pass a bound the joint walk
goes on instead.  The DOE walk of :func:`doe` ends sooner, at the first
level holding a bisimilar pair, after which every position is silent.
The lemma's queries, :func:`lemma_check` and :func:`doe_compose`, run
in :mod:`syncreact.lemma`, which loads only when they are asked.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Callable, Optional, Sequence

from .core import BisimOracle, Record, SynchronousSystem, require_complete
from .errors import LevelBoundExceeded, NotReactive, ResourceError
from .frontier import PairRows, _carriers, _frontier, _output_pairs
from .lasso import STAR, STAR_FOREVER, EffectSequence, EffectSymbol, PairSetSequence
from .separation import class_gaps, row_orientations, separating_ids

__all__ = [
    "doe",
    "ssp",
    "ssp_seq",
    "lemma_check",
    "doe_compose",
    "LemmaVerdict",
]


def __getattr__(name: str):
    """``abstraction.separating_pairs`` is ``reactivity``'s, imported only when read.

    Nothing here calls it; perfbench's tracer test reads the name here.
    """
    if name == "separating_pairs":
        from .reactivity import separating_pairs

        return separating_pairs
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# A PairRows walk, joint or one orbit, raises LevelBoundExceeded past
# this many levels, and a lasso combined from orbits builds no more.
# Jointly, a state entering output cycles of lengths 13, 17, 19 and 23
# walks 96,577 levels (their lcm), while its longest orbit, a pair of
# two of those cycles, walks 437.
MAX_LEVELS = 200_000
# A DOE or SSPseq walk that has not looped after SPLIT_LEVEL levels
# splits into one-pair orbits when its frontier holds at most MAX_ORBITS
# pairs: the benchmark's cycle roots split 6 (DOE) and 12 (SSPseq).
# Where pairs are many, as in p2-150 (153 at level 256) and p2-2000
# (258), each orbit spreads over most of the joint frontier and walking
# them one by one repeats the joint walk many times; those stay joint.
SPLIT_LEVEL = 256
MAX_ORBITS = 12


class _Walk:
    """The frontiers from ``frontier`` on, each valued by ``value``, as a lasso.

    ``step`` maps a frontier, or any hashable walk state, to the next.
    ``values`` holds the levels valued so far and ``frontier`` the next
    one; ``loop`` is the index the walk loops back to once a frontier
    repeats, which finitely many frontiers guarantee.
    """

    def __init__(self, step: Callable, frontier: tuple, value: Callable):
        self.step, self.value = step, value
        self.frontier = frontier
        self.seen: dict[tuple, int] = {}
        self.values: list = []
        self.loop: Optional[int] = None

    def run(self, levels: Optional[int] = None) -> None:
        """Walks on until a frontier repeats or, given ``levels``, that many are valued.

        Past :data:`MAX_LEVELS` levels raises LevelBoundExceeded.
        """
        seen, values, step, value = self.seen, self.values, self.step, self.value
        frontier = self.frontier
        while frontier not in seen:
            if len(values) == levels:
                self.frontier = frontier
                return
            if len(values) == MAX_LEVELS:
                raise LevelBoundExceeded(MAX_LEVELS)
            seen[frontier] = len(values)
            values.append(value(frontier))
            frontier = step(frontier)
        self.frontier, self.loop = frontier, seen[frontier]


def lasso_at(values: Sequence, loop: int, i: int):
    """Element i of the lasso whose tail ``values[loop:]`` repeats forever."""
    if i < len(values):
        return values[i]
    return values[loop + (i - loop) % (len(values) - loop)]


def _levels(walk: tuple, signals: Callable = lambda tails: tails) -> tuple[list, int]:
    """The level sets of a walk ``(step, start, key, named)``, as a lasso.

    ``key`` maps a frontier to an int whose bits are per-pair facts,
    so the key of a union is the OR of its parts' keys, and ``named``
    maps a key to its level set.  A walk that has not looped after
    :data:`SPLIT_LEVEL` levels, with at most :data:`MAX_ORBITS` pairs
    in its frontier, is answered from its orbits
    (:func:`syncreact.orbits.combined`, imported only then), whose
    lasso repeats with the least period of the key bits ``signals``
    keeps (all of them by default).  Should the orbits pass a bound the
    joint walk answers; should it pass :data:`MAX_LEVELS` too, the
    orbits' error is raised.
    """
    step, start, key, named = walk
    joint = _Walk(step, start, key)
    joint.run(SPLIT_LEVEL)
    pairs = sum(bits.bit_count() for _, bits in joint.frontier)
    if joint.loop is None and pairs <= MAX_ORBITS:
        from . import orbits

        try:
            keys, loop = orbits.combined(step, key, joint.frontier, signals)
            return [named(k) for k in joint.values + keys], len(joint.values) + loop
        except ResourceError as exc:
            try:
                joint.run()
            except LevelBoundExceeded:
                raise exc from None
    joint.run()
    return [named(k) for k in joint.values], joint.loop


def _doe_walk(sys: SynchronousSystem, q: str) -> tuple:
    """The DOE walk of a reactive state, as :func:`_levels` reads it.

    Its first frontier holds every successor combination of every
    separating pair of q in input declaration order; a step follows
    every shared input; keys are :func:`syncreact.frontier._output_pairs`.
    """
    (i,) = require_complete(sys, q)
    succ = sys.succ
    pairs, _ = separating_ids(sys, i, i)
    if not pairs:
        raise NotReactive(f"state {q} of {sys.name} has no separating pair")
    start = _frontier((x, y) for a1, a2 in pairs for x in succ[i][a1] for y in succ[i][a2])
    every = [(a, a, -1) for a in range(len(sys.inputs))]
    return (PairRows(succ, succ, lambda p: every).step, start, *_output_pairs(sys))


def doe_levels(sys: SynchronousSystem, q: str) -> tuple[list[frozenset], int]:
    """Output pairs of the run-pair level sets of a reactive state, as a lasso.

    Level 0 holds every successor combination of every separating pair
    of q in input declaration order; level i+1 holds all one-step
    synchronized successors.  Each level is given by the set of output
    id pairs its run pairs show.  Returns one set per level up to
    where the tail loops and the index it loops back to; a walk split
    into orbits (:func:`_levels`) loops with the orbits' least period,
    which may be shorter than the joint walk's.
    """
    return _levels(_doe_walk(sys, q))


def _effect_signals(m: int) -> Callable:
    """Per output-pair bit b = x * m + y, x != y, the times b is a level's only pair."""

    def signals(tails: list[int]) -> list[int]:
        one = two = 0
        for bits in tails:
            two |= one & bits
            one |= bits
        return [0 if b // m == b % m else bits & ~two for b, bits in enumerate(tails)]

    return signals


def doe(sys: SynchronousSystem, q: str) -> EffectSequence:
    """Sequence of deterministic observable effects of a state.

    Position i is a fixed pair (x1, x2) exactly when every run pair,
    over every separating pair of q taken in input declaration order,
    every successor combination and every input word, shows outputs
    (x1, x2) with x1 != x2 at index i.  Non-reactive states have the
    silent sequence.

    Computed on level sets: the position is an effect iff the output
    pair set of the level is one non-equal singleton.  A long walk
    splits into orbits that keep, per level, only that effect.  The
    walk (:func:`_doe_walk`) ends sooner, at the first level holding a
    bisimilar pair (x, y): that frontier steps to the empty frontier,
    which steps to itself and keys as bit 0, the equal output pair
    (0, 0).  That keeps every effect: on a complete system each x' in
    succ(x, a) has a bisimilar y' in succ(y, a), so every later level
    holds a bisimilar pair, whose outputs are equal, and no later
    position is an effect.
    """
    try:
        rows_step, start, output_pairs, named = _doe_walk(sys, q)
    except NotReactive:
        return STAR_FOREVER
    cls = BisimOracle(sys).cls
    blocks = _carriers(cls)

    def step(frontier: tuple) -> tuple:
        for p, bits in frontier:
            if bits & blocks(cls[p]):
                return ()
        return rows_step(frontier)

    def key(frontier: tuple) -> int:
        return output_pairs(frontier) if frontier else 1

    levels = _levels((step, start, key, named), _effect_signals(len(sys.outputs)))
    return _effects(sys, *levels)


def _effects(sys: SynchronousSystem, levels: list[frozenset], start: int) -> EffectSequence:
    names = sys.outputs.symbols
    values: list[EffectSymbol] = []
    for outs in levels:
        x1, x2 = next(iter(outs)) if len(outs) == 1 else (0, 0)
        values.append(STAR if x1 == x2 else (names[x1], names[x2]))
    return EffectSequence(tuple(values[:start]), tuple(values[start:]))


def ssp(sys: SynchronousSystem, q1: str, q2: str) -> tuple[tuple[str, str], ...]:
    """Strongly separating pairs: separating pairs of the union of q1, q2.

    (a1, a2) qualifies when some a1-successor of q1 is non-bisimilar to
    every a2-successor of q2, or the same with the two inputs swapped.
    Evaluated for all states, reactive or not; on a single state this
    coincides with its separating pairs.
    """
    sys.check_state(q1)
    sys.check_state(q2)
    symbols = sys.inputs.symbols
    pairs, _ = separating_ids(sys, sys.index[q1], sys.index[q2])
    return tuple((symbols[a1], symbols[a2]) for (a1, a2) in pairs)


class LemmaVerdict(Record):
    """Outcome of the sequential-composition reactivity check."""

    __slots__ = ("guaranteed", "index")

    def __init__(self, guaranteed: bool, index: Optional[int] = None):
        self.guaranteed, self.index = guaranteed, index


def _ssp_walk(sys: SynchronousSystem, q1: str, q2: str) -> tuple:
    """The SSPseq walk of the pair (q1, q2), as :func:`_levels` reads it.

    A step moves a pair (p, q) along every orientation (ae, af) under
    which ae beats af there.  Bit c of a key marks the c-th candidate
    input pair (a1 < a2) as no SSP of some pair of the frontier; a
    level set is the candidates its key leaves clear.
    """
    root = require_complete(sys, q1, q2)
    succ, cls = sys.succ, BisimOracle(sys).cls
    symbols = sys.inputs.symbols
    candidates = list(itertools.combinations(range(len(symbols)), 2))
    everything = (1 << len(succ)) - 1
    gaps = class_gaps(succ, cls, len(symbols))

    held: dict[int, tuple[list, list[int]]] = {}

    def row(p: int) -> tuple[list, list[int]]:
        """Row p's masked columns, and per candidate the q where it is not an SSP."""
        if p not in held:
            masks = row_orientations(succ[p], cls, gaps, everything)
            held[p] = (
                [(ae, af, bits) for (ae, af), bits in masks.items() if bits],
                [everything ^ (masks[(a1, a2)] | masks[(a2, a1)]) for (a1, a2) in candidates],
            )
        return held[p]

    def key(frontier: tuple) -> int:
        lacking = 0
        for p, bits in frontier:
            for c, missing in enumerate(row(p)[1]):
                if bits & missing:
                    lacking |= 1 << c
        return lacking

    def named(lacking: int) -> frozenset:
        return frozenset(
            (symbols[a1], symbols[a2])
            for c, (a1, a2) in enumerate(candidates)
            if not lacking >> c & 1
        )

    step = PairRows(succ, succ, lambda p: row(p)[0]).step
    return step, _frontier([root]), key, cache(named)


def ssp_levels(sys: SynchronousSystem, q1: str, q2: str) -> tuple[list[frozenset], int]:
    """SSPseq levels of the pair (q1, q2), as a lasso of symbol-pair sets.

    The walk steps a pair (p, q) along every orientation (ae, af) under
    which ae beats af there, so its frontiers only hold pairs reached
    through strongly separating pairs.  Level n intersects the SSP of
    every pair of the n-th frontier, and is every input pair once the
    frontier is empty.  Returns one set per level up to where the tail
    loops and the index it loops back to; a walk split into orbits
    (:func:`_levels`) loops with the orbits' least period, which may be
    shorter than the joint walk's.  Rows and bitsets span all of
    ``sys``'s states, so a cross pair of a disjoint union walks the
    union's ids.
    """
    return _levels(_ssp_walk(sys, q1, q2))


def ssp_seq(sys: SynchronousSystem, q: str) -> PairSetSequence:
    """Level-indexed strongly separating pairs of one reactive state.

    Level 0 is the state's separating pairs; level n+1 intersects the
    SSP of every pair reached by following separating-pair orientations
    for n+1 steps.  Computed as the greatest fixpoint over the finite
    pair space, extracted as a lasso; a long walk splits into orbits.
    """
    levels, loop = ssp_levels(sys, q, q)
    if not levels[0]:
        raise NotReactive(f"state {q} of {sys.name} has no separating pair")
    return PairSetSequence(tuple(levels[:loop]), tuple(levels[loop:]))


def lemma_check(
    sys_f: SynchronousSystem, q_f: str, sys_g: SynchronousSystem, q_g: str
) -> LemmaVerdict:
    """Reactivity guarantee for a sequential-composition state pair.

    Guaranteed at the least index i where the lemma holds
    (:class:`syncreact.lemma._Lemma`).  Every synchronized run pair of
    the composite successors then differs at output index i+2, whatever
    the inputs, so a positive verdict implies composite reactivity; the
    fit alone does not, since separating-pair trajectories can diverge
    from the diagonal paths a composition drives the receiver along.  A
    weakening of the sender's DOE only erases positions, so its
    non-silent positions are all the lemma asks about.  Runs in
    :mod:`syncreact.lemma`, which only this and :func:`doe_compose` load.
    """
    from . import lemma

    return lemma.lemma_check(sys_f, q_f, sys_g, q_g)


def doe_compose(
    sys_f: SynchronousSystem, q_f: str, sys_g: SynchronousSystem, q_g: str, t: int
) -> EffectSequence:
    """Composite observable-effect under-approximation at witness index t.

    Requires both states to be reactive and the sender's effect (x1, x2)
    at t to fit: to be a strongly separating pair of the receiver at
    level t+1.  Silent unless the lemma holds at t
    (:class:`syncreact.lemma._Lemma`).
    Otherwise t+1 silent ticks, the first being the communication delay
    of the synchronous model, then the merged receiver DOEs of every
    state reachable in exactly t+1 composite steps.  x1 feeds the first
    copy, so each merged pair is reversed when x1 is declared after x2
    among the receiver's inputs.  Runs in :mod:`syncreact.lemma`.
    """
    from . import lemma

    return lemma.doe_compose(sys_f, q_f, sys_g, q_g, t)
