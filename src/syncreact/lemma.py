"""The sequential-composition lemma of a sender and a receiver state.

:func:`syncreact.abstraction.lemma_check` and
:func:`syncreact.abstraction.doe_compose` run here, and import this
module inside their bodies: only the ``lemma`` and ``doe-compose``
commands compile it, not every level walk that loads ``abstraction``.
It calls ``abstraction``'s queries through the module, so a function
patched there is the one it runs.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, reduce
from math import lcm

from . import abstraction
from .abstraction import LemmaVerdict, _Walk, lasso_at
from .core import SynchronousSystem, feed_of, require_complete
from .errors import PreconditionFailed
from .frontier import PairRows, _carriers, _frontier
from .lasso import (
    STAR,
    STAR_FOREVER,
    EffectSequence,
    PairSetSequence,
    merge_sequences,
    star_prepend,
)
from .separation import separating_ids


class _Lemma:
    """The sequential-composition lemma of a sender and a receiver state, index by index.

    Indices are asked only if both states are reactive.  The lemma
    holds at i when the sender's effect ``d[i]`` fits, being a strongly
    separating pair of the receiver at level i+1, and consuming it
    forces a receiver output difference.  Fits read the split ``doe``
    and ``ssp_seq`` and repeat from ``window`` on.  The receiver's
    ``ssp_seq`` is walked only when a non-silent ``d[i]`` asks for it.
    Forcing reads one walk, built at the first index that fits and
    walked as far as asked.  A walk state is a position j of the
    sender's ``doe_levels`` lasso and a frontier of receiver pairs: both
    copies first consume the sender's output at q_f, then each step the
    output pairs of level j, which cover every composite run pair's
    feeds.  Its value is whether some receiver pair emits equal outputs.
    A non-silent d[i] is level i's only pair, so walk level i+1 is the
    frontier that consumed it.
    """

    def __init__(self, sys_f: SynchronousSystem, q_f: str, sys_g: SynchronousSystem, q_g: str):
        self.fed = feed_of(sys_f, sys_g)
        self.root = i_f, i_g = require_complete(sys_f, q_f) + require_complete(sys_g, q_g)
        self.reactive = bool(
            separating_ids(sys_f, i_f, i_f)[0] and separating_ids(sys_g, i_g, i_g)[0]
        )
        if self.reactive:
            self.d = abstraction.doe(sys_f, q_f)
        self.sys_f, self.q_f, self.sys_g, self.q_g = sys_f, q_f, sys_g, q_g

    @cached_property
    def s(self) -> PairSetSequence:
        return abstraction.ssp_seq(self.sys_g, self.q_g)

    @cached_property
    def window(self) -> int:
        d, s = self.d, self.s
        return max(len(d.prefix), len(s.prefix) + 1) + lcm(len(d.cycle), len(s.cycle))

    def fits(self, i: int) -> bool:
        value = self.d[i]
        return value is not STAR and self.sys_g.inputs.canonical_pair(*value) in self.s[i + 1]

    def holds(self, i: int) -> bool:
        if not self.fits(i):
            return False
        self.walk.run(i + 2)
        return not lasso_at(self.walk.values, self.walk.loop, i + 1)

    @cached_property
    def walk(self) -> _Walk:
        levels, loop = abstraction.doe_levels(self.sys_f, self.q_f)
        sys_g, fed = self.sys_g, self.fed
        succ_g, out_g, emitting = sys_g.succ, sys_g.out_ids, _carriers(sys_g.out_ids)
        feed = dict(zip(self.sys_f.out_ids, fed))

        @cache
        def rows(level: frozenset) -> PairRows:
            feeds = {(feed[x1], feed[x2], -1) for (x1, x2) in level}
            return PairRows(succ_g, succ_g, lambda p: feeds)

        def step(state: tuple) -> tuple:
            j, pairs = state
            return (j + 1 if j + 1 < len(levels) else loop), rows(levels[j]).step(pairs)

        def equal(state: tuple) -> bool:
            return any(bits & emitting(out_g[p]) for p, bits in state[1])

        i_f, i_g = self.root
        moves = succ_g[i_g][fed[i_f]]
        return _Walk(step, (0, _frontier(itertools.product(moves, moves))), equal)


def lemma_check(
    sys_f: SynchronousSystem, q_f: str, sys_g: SynchronousSystem, q_g: str
) -> LemmaVerdict:
    """:func:`syncreact.abstraction.lemma_check`.

    A silent sender DOE fits at no index, so it answers without the
    receiver's walk.
    """
    lemma = _Lemma(sys_f, q_f, sys_g, q_g)
    if not lemma.reactive or lemma.d.is_silent():
        return LemmaVerdict(False)
    i = next(filter(lemma.holds, range(lemma.window)), None)
    return LemmaVerdict(i is not None, i)


def doe_compose(
    sys_f: SynchronousSystem, q_f: str, sys_g: SynchronousSystem, q_g: str, t: int
) -> EffectSequence:
    """:func:`syncreact.abstraction.doe_compose`."""
    if t < 0:
        raise PreconditionFailed("witness index must be nonnegative")
    lemma = _Lemma(sys_f, q_f, sys_g, q_g)
    if not lemma.reactive:
        raise PreconditionFailed("both composed states must be reactive")
    if not lemma.fits(t):
        raise PreconditionFailed(
            f"effect at index {t} is not a strongly separating pair at level {t + 1}"
        )
    if not lemma.holds(t):
        return STAR_FOREVER
    # On input a the composite's sender steps on a, its receiver on the sender's output.
    inputs, fed = range(len(sys_f.inputs)), lemma.fed
    rows = PairRows(sys_f.succ, sys_g.succ, lambda f: [(a, fed[f], -1) for a in inputs])
    walk = _Walk(rows.step, _frontier([lemma.root]), tuple)
    walk.run(t + 2)
    reached = reduce(int.__or__, (bits for _, bits in lasso_at(walk.values, walk.loop, t + 1)), 0)
    receivers = sorted(g for i, g in enumerate(sys_g.states) if reached >> i & 1)
    merged = merge_sequences([abstraction.doe(sys_g, g) for g in receivers])
    if sys_g.inputs.canonical_pair(*lemma.d[t]) != lemma.d[t]:
        parts = (merged.prefix, merged.cycle)
        merged = EffectSequence(*(tuple(e and e[::-1] for e in part) for part in parts))
    return star_prepend(t + 1, merged)
