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
frontier hashing.  Frontiers are per-row bitsets walked by
:class:`core.PairRows`; each level keeps only the value a query reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Optional

from .compose import feed_of
from .core import BisimOracle, PairRows, SynchronousSystem, align, lasso_at
from .errors import NotReactive, PreconditionFailed
from .lasso import (
    STAR,
    STAR_FOREVER,
    EffectSequence,
    EffectSymbol,
    PairSetSequence,
    merge_sequences,
    merge_symbols,
    obs_leq,
    star_prepend,
)
# separating_pairs stays importable from here, where the benchmark tracer patches it.
from .reactivity import (  # noqa: F401
    _separating_ids,
    class_gaps,
    reactive,
    row_orientations,
    separating_pairs,
)

__all__ = [
    "ObsOrder",
    "obs_order",
    "merge_symbols",
    "merge_sequences",
    "obs_leq",
    "doe",
    "ssp",
    "ssp_seq",
    "ssp_seq_pair",
    "lemma_check",
    "doe_compose",
    "LemmaVerdict",
]

def doe_levels(
    sys: SynchronousSystem, q: str
) -> tuple[list[frozenset], int]:
    """Output pairs of the run-pair level sets of a reactive state, as a lasso.

    Level 0 holds every successor combination of every separating pair
    of q in input declaration order; level i+1 holds all one-step
    synchronized successors.  Each level is given by the set of output
    id pairs its run pairs show.  Returns one set per level and the
    index the tail loops back to.
    """
    sys.check_state(q)
    pairs, _ = _separating_ids(sys, q)
    if not pairs:
        raise NotReactive(f"state {q} of {sys.name} has no separating pair")
    succ, i = sys.succ, sys.index[q]
    rows = PairRows(succ, succ)
    split = [(a1, a2, -1) for (a1, a2) in pairs]
    start = rows.step(rows.frontier([(i, i)]), rows.columns(lambda p: split))
    every = [(a, a, -1) for a in range(len(sys.inputs))]
    return rows.walk(start, rows.columns(lambda p: every), _output_pairs(sys))


def _emitting(sys: SynchronousSystem) -> list[int]:
    """Per output id, the bitset of the states that emit it."""
    emitting = [0] * len(sys.outputs)
    for q, o in enumerate(sys.out_ids):
        emitting[o] |= 1 << q
    return emitting


def _output_pairs(sys: SynchronousSystem):
    """Level value of a frontier over two copies of sys: its output id pairs."""
    out, emitting = sys.out_ids, _emitting(sys)
    m = len(emitting)
    named: dict[int, frozenset] = {}

    def value(frontier: tuple) -> frozenset:
        by_output = [0] * m
        for p, bits in frontier:
            by_output[out[p]] |= bits
        # Bit x * m + y of the key marks the output pair (x, y).
        key, pair = 0, 1
        for bits in by_output:
            for e in emitting:
                if bits & e:
                    key |= pair
                pair <<= 1
        if key not in named:
            named[key] = frozenset(divmod(k, m) for k in range(m * m) if key >> k & 1)
        return named[key]

    return value


def doe(sys: SynchronousSystem, q: str) -> EffectSequence:
    """Sequence of deterministic observable effects of a state.

    Position i is a fixed pair (x1, x2) exactly when every run pair,
    over every separating pair of q taken in input declaration order,
    every successor combination and every input word, shows outputs
    (x1, x2) with x1 != x2 at index i.  Non-reactive states have the
    silent sequence.

    Computed on level sets: the position is an effect iff the output
    pair set of the level is one non-equal singleton.
    """
    try:
        levels, start = doe_levels(sys, q)
    except NotReactive:
        return STAR_FOREVER
    return _effects(sys, levels, start)


def _effects(sys: SynchronousSystem, levels: list[frozenset], start: int) -> EffectSequence:
    names = sys.outputs.symbols
    values: list[EffectSymbol] = []
    for outs in levels:
        x1, x2 = next(iter(outs)) if len(outs) == 1 else (0, 0)
        values.append(STAR if x1 == x2 else (names[x1], names[x2]))
    return EffectSequence(tuple(values[:start]), tuple(values[start:]))


def ssp(
    sys_a: SynchronousSystem,
    q1: str,
    sys_b: SynchronousSystem,
    q2: str,
    oracle: Optional[BisimOracle] = None,
) -> tuple[tuple[str, str], ...]:
    """Strongly separating pairs: separating pairs of the union of q1, q2.

    (a1, a2) qualifies when some a1-successor of q1 is non-bisimilar to
    every a2-successor of q2, or the same with the two inputs swapped.
    Evaluated for all states, reactive or not; on a single state this
    coincides with its separating pairs.
    """
    sys_a.require_same_signature(sys_b)
    sys_a.check_state(q1)
    sys_b.check_state(q2)
    if oracle is None:
        oracle = BisimOracle(sys_a, sys_b)
    moves_a = sys_a.succ[sys_a.index[q1]]
    moves_b = align(sys_a, sys_b)[0][sys_b.index[q2]]
    gaps = class_gaps([moves_b], oracle.cls_b, len(moves_b))
    held = row_orientations(moves_a, oracle.cls_a, gaps, 1)
    symbols = sys_a.inputs.symbols
    return tuple(
        (symbols[a1], symbols[a2])
        for (a1, a2) in itertools.combinations(range(len(symbols)), 2)
        if held[(a1, a2)] | held[(a2, a1)]
    )


@dataclass(frozen=True)
class LemmaVerdict:
    """Outcome of the sequential-composition reactivity check."""

    guaranteed: bool
    index: Optional[int] = None

    @property
    def label(self) -> str:
        return "GuaranteedReactive" if self.guaranteed else "NoGuarantee"


@dataclass(frozen=True)
class ObsOrder:
    """The observational order of a state, held intensionally.

    The interval between the silent sequence and the state's DOE is
    uncountable as a set of infinite sequences, so it is represented by
    its greatest element plus a membership test: a sequence belongs iff
    each position is silent or equals the greatest element there.
    """

    greatest: EffectSequence

    def __contains__(self, candidate: EffectSequence) -> bool:
        return obs_leq(candidate, self.greatest)

    @property
    def least(self) -> EffectSequence:
        return STAR_FOREVER


def obs_order(sys: SynchronousSystem, q: str) -> ObsOrder:
    return ObsOrder(doe(sys, q))


def ssp_levels(
    sys_a: SynchronousSystem, q1: str, sys_b: SynchronousSystem, q2: str
) -> tuple[list[frozenset], int]:
    """SSPseq levels of the cross pair (q1, q2), as a lasso of symbol-pair sets.

    The walk steps a pair (p, q) along every orientation (ae, af) under
    which ae beats af there, so its frontiers only hold pairs reached
    through strongly separating pairs.  Level n intersects the SSP of
    every pair of the n-th frontier, and is every input pair once the
    frontier is empty.  Returns one set per level and the index the tail
    loops back to.
    """
    oracle = BisimOracle(sys_a, sys_b)
    succ_a, cls_a = sys_a.succ, oracle.cls_a
    succ_b, _ = align(sys_a, sys_b)
    symbols = sys_a.inputs.symbols
    candidates = list(itertools.combinations(range(len(symbols)), 2))
    everything = (1 << len(succ_b)) - 1
    gaps = class_gaps(succ_b, oracle.cls_b, len(symbols))
    held: dict[int, tuple[list, list[int]]] = {}

    def row(p: int) -> tuple[list, list[int]]:
        """Row p's masked columns, and per candidate the q where it is not an SSP."""
        if p not in held:
            masks = row_orientations(succ_a[p], cls_a, gaps, everything)
            held[p] = (
                [(ae, af, bits) for (ae, af), bits in masks.items() if bits],
                [everything ^ (masks[(a1, a2)] | masks[(a2, a1)]) for (a1, a2) in candidates],
            )
        return held[p]

    named: dict[int, frozenset] = {}

    def value(frontier: tuple) -> frozenset:
        kept = (1 << len(candidates)) - 1
        for p, bits in frontier:
            for c, missing in enumerate(row(p)[1]):
                if bits & missing:
                    kept &= ~(1 << c)
        if kept not in named:
            named[kept] = frozenset(
                (symbols[a1], symbols[a2])
                for c, (a1, a2) in enumerate(candidates)
                if kept >> c & 1
            )
        return named[kept]

    rows = PairRows(succ_a, succ_b)
    start = rows.frontier([(sys_a.index[q1], sys_b.index[q2])])
    return rows.walk(start, rows.columns(lambda p: row(p)[0]), value)


def ssp_seq(sys: SynchronousSystem, q: str) -> PairSetSequence:
    """Level-indexed strongly separating pairs of one reactive state.

    Level 0 is the state's separating pairs; level n+1 intersects the
    SSP of every pair reached by following separating-pair orientations
    for n+1 steps.  Computed as the greatest fixpoint over the finite
    pair space, extracted as a lasso.
    """
    sys.check_state(q)
    levels, loop = ssp_levels(sys, q, sys, q)
    if not levels[0]:
        raise NotReactive(f"state {q} of {sys.name} has no separating pair")
    return PairSetSequence(tuple(levels[:loop]), tuple(levels[loop:]))


def ssp_seq_pair(
    sys_a: SynchronousSystem, q1: str, sys_b: SynchronousSystem, q2: str
) -> PairSetSequence:
    """SSPseq of a cross pair; both states must be reactive."""
    sys_a.check_state(q1)
    sys_b.check_state(q2)
    if not reactive(sys_a, q1):
        raise NotReactive(f"state {q1} of {sys_a.name} is not reactive")
    if not reactive(sys_b, q2):
        raise NotReactive(f"state {q2} of {sys_b.name} is not reactive")
    levels, loop = ssp_levels(sys_a, q1, sys_b, q2)
    return PairSetSequence(tuple(levels[:loop]), tuple(levels[loop:]))


def _effect_fits(d: EffectSequence, s: PairSetSequence, sys_g: SynchronousSystem, i: int) -> bool:
    """The sender's effect at i is a strongly separating pair of the receiver at level i+1."""
    value = d[i]
    return value is not STAR and sys_g.inputs.canonical_pair(*value) in s[i + 1]


def lemma_check(
    sys_f: SynchronousSystem,
    q_f: str,
    sys_g: SynchronousSystem,
    q_g: str,
) -> LemmaVerdict:
    """Reactivity guarantee for a sequential-composition state pair.

    Guaranteed when the sender's deterministic observable effect at some
    index i is a strongly separating pair of the receiver at level i+1,
    and consuming that effect forces an immediate receiver output
    difference on every receiver pair actually reachable alongside the
    two sender runs.  The second condition makes positive verdicts imply
    composite reactivity outright: every synchronized run pair of the
    composite successors then differs at output index i+2, whatever the
    inputs.  The membership test alone follows separating-pair
    trajectories and can diverge from the diagonal paths a composition
    actually drives the receiver along.

    The existential over all weakenings of the sender's DOE reduces to
    its non-silent positions, since a weakening only erases positions.
    Returns the least witness index i.
    """
    fed = feed_of(sys_f, sys_g)
    sys_f.check_state(q_f)
    sys_g.check_state(q_g)
    if not reactive(sys_f, q_f) or not reactive(sys_g, q_g):
        return LemmaVerdict(False)
    levels, loop = doe_levels(sys_f, q_f)
    d = _effects(sys_f, levels, loop)
    s = ssp_seq(sys_g, q_g)
    # Receiver pairs reachable while tracking the two sender runs: both
    # copies first consume the sender's current output, then at step j+2
    # the output pair of some sender level-j run pair.  The per-level
    # output-pair sets over-approximate the feeds, so the pairs cover
    # every synchronized composite run pair.
    succ_g, out_g, emitting = sys_g.succ, sys_g.out_ids, _emitting(sys_g)
    feed = dict(zip(sys_f.out_ids, fed))
    rows = PairRows(succ_g, succ_g)
    moves = succ_g[sys_g.index[q_g]][fed[sys_f.index[q_f]]]
    pairs, depth = rows.frontier(itertools.product(moves, moves)), 0
    by_level: dict = {}
    window = max(len(d.prefix), len(s.prefix) + 1) + lcm(len(d.cycle), len(s.cycle))
    for i in range(window):
        if not _effect_fits(d, s, sys_g, i):
            continue
        for j in range(depth, i):
            level = lasso_at(levels, loop, j)
            if level not in by_level:
                feeds = {(feed[x1], feed[x2], -1) for (x1, x2) in level}
                by_level[level] = rows.columns(lambda p, feeds=feeds: feeds)
            pairs = rows.step(pairs, by_level[level])
        depth = i
        effect = [(*map(sys_g.inputs.index, d[i]), -1)]
        consumed = rows.step(pairs, rows.columns(lambda p: effect))
        if not any(bits & emitting[out_g[p]] for p, bits in consumed):
            return LemmaVerdict(True, i)
    return LemmaVerdict(False)


def doe_compose(
    sys_f: SynchronousSystem,
    q_f: str,
    sys_g: SynchronousSystem,
    q_g: str,
    t: int,
) -> EffectSequence:
    """Composite observable-effect under-approximation at witness index t.

    Requires the sender's effect at t to be a strongly separating pair
    of the receiver at level t+1.  The result delays t+1 ticks and then
    merges the receiver DOE of every state reachable in exactly t+1
    composite steps; the leading silent tick is the communication delay
    of the synchronous model.
    """
    fed = feed_of(sys_f, sys_g)
    sys_f.check_state(q_f)
    sys_g.check_state(q_g)
    if t < 0:
        raise PreconditionFailed("witness index must be nonnegative")
    if not reactive(sys_f, q_f) or not reactive(sys_g, q_g):
        raise PreconditionFailed("both composed states must be reactive")
    d = doe(sys_f, q_f)
    s = ssp_seq(sys_g, q_g)
    if not _effect_fits(d, s, sys_g, t):
        raise PreconditionFailed(
            f"effect at index {t} is not a strongly separating pair at level {t + 1}"
        )
    # Composite frontiers from (q_f, q_g), each kept as its receiver states:
    # on input a the sender steps on a and the receiver on the sender's output.
    inputs = range(len(sys_f.inputs))
    rows = PairRows(sys_f.succ, sys_g.succ)
    columns = rows.columns(lambda f: [(a, fed[f], -1) for a in inputs])
    start = rows.frontier([(sys_f.index[q_f], sys_g.index[q_g])])
    values, loop = rows.walk(start, columns, _receivers)
    reached = lasso_at(values, loop, t + 1)
    receivers = sorted(g for i, g in enumerate(sys_g.states) if reached >> i & 1)
    merged = merge_sequences([doe(sys_g, g) for g in receivers])
    return star_prepend(t + 1, merged)


def _receivers(frontier: tuple) -> int:
    """Level value of a composite frontier: the bitset of its receiver states."""
    reached = 0
    for _, bits in frontier:
        reached |= bits
    return reached
