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
frontier hashing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Optional

from .compose import feed_of, seq_step
from .core import BisimOracle, Product, SynchronousSystem, frontier_image, lasso_walk, pair_step
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
from .reactivity import _separating_ids, orientations, reactive, separating_pairs  # noqa: F401

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
    """Run-pair level sets of a reactive state, as a lasso.

    Level 0 holds every successor combination of every separating pair
    of q in input declaration order; level i+1 holds all one-step
    synchronized successors.  Pairs are of state ids.  Returns the level
    list and the index its tail loops back to.
    """
    sys.check_state(q)
    pairs, _ = _separating_ids(sys, q)
    if not pairs:
        raise NotReactive(f"state {q} of {sys.name} has no separating pair")
    succ, i = sys.succ, sys.index[q]
    columns = [(None, a1, a2) for (a1, a2) in pairs]
    level = frontier_image(pair_step(succ, succ, lambda node: columns))(frozenset({(i, i)}))
    return lasso_walk(level, frontier_image(Product(sys, sys).step))


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
    out = sys.out_ids
    names = sys.outputs.symbols
    values: list[EffectSymbol] = []
    for level in levels:
        outs = {(out[r1], out[r2]) for (r1, r2) in level}
        x1, x2 = outs.pop() if len(outs) == 1 else (0, 0)
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
    space = _PairSpace(sys_a, sys_b, oracle)
    node = (sys_a.index[q1], sys_b.index[q2])
    return space.names(space.ssp_of(node))


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


class _PairSpace:
    """Orientation-following successor relation over cross-state pairs.

    Pairs hold one state id of each system (the same system twice for
    the single-state queries).  Successors of a pair follow every
    orientation under which one of its strongly separating pairs holds;
    the intersection of SSP over the n-step frontier is the n-th level
    of the SSPseq greatest fixpoint.
    """

    def __init__(
        self,
        sys_a: SynchronousSystem,
        sys_b: SynchronousSystem,
        oracle: Optional[BisimOracle] = None,
    ):
        product = Product(sys_a, sys_b)
        self.succ_a, self.succ_b = product.succ_a, product.succ_b
        self.oracle = oracle if oracle is not None else BisimOracle(sys_a, sys_b)
        self.symbols = sys_a.inputs.symbols
        self.candidates = tuple(itertools.combinations(range(len(self.symbols)), 2))
        self._ssp: dict[tuple[int, int], frozenset] = {}
        self._columns: dict[tuple[int, int], list] = {}
        self._named: dict[frozenset, frozenset] = {}
        step = pair_step(self.succ_a, self.succ_b, self._held)
        self.image = frontier_image(step)

    def ssp_of(self, node: tuple[int, int]) -> frozenset:
        """SSP of a pair as input id pairs; its held orientations become step columns."""
        if node not in self._ssp:
            moves_a, moves_b = self.succ_a[node[0]], self.succ_b[node[1]]
            cls_a, cls_b = self.oracle.cls_a, self.oracle.cls_b
            pairs = []
            columns = []
            for (a1, a2) in self.candidates:
                held = orientations(moves_a, moves_b, cls_a, cls_b, a1, a2)
                if held:
                    pairs.append((a1, a2))
                    columns += [(None, ae, af) for (ae, af) in held]
            self._ssp[node] = frozenset(pairs)
            self._columns[node] = columns
        return self._ssp[node]

    def _held(self, node: tuple[int, int]) -> list:
        self.ssp_of(node)
        return self._columns[node]

    def names(self, pairs) -> tuple[tuple[str, str], ...]:
        """Input id pairs as symbol pairs, in declaration order."""
        return tuple((self.symbols[a1], self.symbols[a2]) for (a1, a2) in sorted(pairs))

    def level_value(self, frontier: frozenset) -> frozenset:
        """Intersection of SSP over a walked frontier, full when empty; one object per value."""
        distinct = set(map(self._ssp.__getitem__, frontier))
        value = frozenset(self.candidates).intersection(*distinct)
        if value not in self._named:
            self._named[value] = frozenset(self.names(value))
        return self._named[value]

    def sequence_from(self, node: tuple[int, int]) -> PairSetSequence:
        # The walk steps every node of every level, which caches its SSP.
        levels, start = lasso_walk(frozenset({node}), self.image)
        values = [self.level_value(level) for level in levels]
        return PairSetSequence(tuple(values[:start]), tuple(values[start:]))


def ssp_seq(sys: SynchronousSystem, q: str) -> PairSetSequence:
    """Level-indexed strongly separating pairs of one reactive state.

    Level 0 is the state's separating pairs; level n+1 intersects the
    SSP of every pair reached by following separating-pair orientations
    for n+1 steps.  Computed as the greatest fixpoint over the finite
    pair space, extracted as a lasso.
    """
    sys.check_state(q)
    space = _PairSpace(sys, sys)
    i = sys.index[q]
    if not space.ssp_of((i, i)):
        raise NotReactive(f"state {q} of {sys.name} has no separating pair")
    return space.sequence_from((i, i))


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
    space = _PairSpace(sys_a, sys_b)
    return space.sequence_from((sys_a.index[q1], sys_b.index[q2]))


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
    succ_g, out_g = sys_g.succ, sys_g.out_ids
    moves = succ_g[sys_g.index[q_g]][fed[sys_f.index[q_f]]]
    pairs, depth = frozenset(itertools.product(moves, moves)), 0
    period = len(levels) - loop
    window = max(len(d.prefix), len(s.prefix) + 1) + lcm(len(d.cycle), len(s.cycle))
    for i in range(window):
        if not _effect_fits(d, s, sys_g, i):
            continue
        for j in range(depth, i):
            level = levels[j if j < len(levels) else loop + (j - loop) % period]
            feeds = {(None, fed[r1], fed[r2]) for (r1, r2) in level}
            pairs = frontier_image(pair_step(succ_g, succ_g, lambda node: feeds))(pairs)
        depth = i
        effect = [(None, *map(sys_g.inputs.index, d[i]))]
        consume = pair_step(succ_g, succ_g, lambda node: effect)
        if all(out_g[t1] != out_g[t2] for pair in pairs for (_, (t1, t2)) in consume(pair)):
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
    step = seq_step(sys_f, sys_g)
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
    # Composite frontier after exactly t+1 steps from (q_f, q_g).
    frontier = frozenset({(sys_f.index[q_f], sys_g.index[q_g])})
    advance = frontier_image(step)
    for _ in range(t + 1):
        frontier = advance(frontier)
    receivers = sorted({sys_g.states[g] for (_, g) in frontier})
    merged = merge_sequences([doe(sys_g, g) for g in receivers])
    return star_prepend(t + 1, merged)
