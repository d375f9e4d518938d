"""The sequential-composition lemma of a sender and a receiver state.

:func:`syncreact.abstraction.lemma_check` and
:func:`syncreact.abstraction.doe_compose` ask it, and import it inside
their bodies: only the ``lemma`` and ``doe-compose`` commands compile
this module, not every level walk that loads ``abstraction``.  It calls
``abstraction``'s queries through the module, so a function patched
there is the one it runs.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from math import lcm

from . import abstraction
from .abstraction import PairRows, _emitting, _frontier, _Walk, lasso_at
from .core import SynchronousSystem, feed_of, require_complete
from .lasso import STAR
from .separation import separating_ids


class _Lemma:
    """The sequential-composition lemma of a sender and a receiver state, index by index.

    Indices are asked only if both states are reactive.  The lemma
    holds at i when the sender's effect ``d[i]`` fits, being a strongly
    separating pair of the receiver at level i+1, and consuming it
    forces a receiver output difference.  Fits read the split ``doe``
    and ``ssp_seq`` and repeat from ``window`` on.  Forcing reads one
    walk, built at the first index that fits and walked as far as asked.
    A walk state is a position j of the sender's ``doe_levels`` lasso
    and a frontier of receiver pairs: both copies first consume the
    sender's output at q_f, then each step the output pairs of level j,
    which cover every composite run pair's feeds.  Its value is whether
    some receiver pair emits equal outputs.  A non-silent d[i] is level
    i's only pair, so walk level i+1 is the frontier that consumed it.
    """

    def __init__(self, sys_f: SynchronousSystem, q_f: str, sys_g: SynchronousSystem, q_g: str):
        self.fed = feed_of(sys_f, sys_g)
        self.root = i_f, i_g = require_complete(sys_f, q_f) + require_complete(sys_g, q_g)
        self.reactive = bool(
            separating_ids(sys_f, i_f, i_f)[0] and separating_ids(sys_g, i_g, i_g)[0]
        )
        if self.reactive:
            self.d, self.s = d, s = abstraction.doe(sys_f, q_f), abstraction.ssp_seq(sys_g, q_g)
            self.window = max(len(d.prefix), len(s.prefix) + 1) + lcm(len(d.cycle), len(s.cycle))
        self.sys_f, self.q_f, self.sys_g = sys_f, q_f, sys_g

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
        succ_g, out_g, emitting = sys_g.succ, sys_g.out_ids, _emitting(sys_g)
        feed = dict(zip(self.sys_f.out_ids, fed))

        @cache
        def rows(level: frozenset) -> PairRows:
            feeds = {(feed[x1], feed[x2], -1) for (x1, x2) in level}
            return PairRows(succ_g, succ_g, lambda p: feeds)

        def step(state: tuple) -> tuple:
            j, pairs = state
            return (j + 1 if j + 1 < len(levels) else loop), rows(levels[j]).step(pairs)

        def equal(state: tuple) -> bool:
            return any(bits & emitting[out_g[p]] for p, bits in state[1])

        i_f, i_g = self.root
        moves = succ_g[i_g][fed[i_f]]
        return _Walk(step, (0, _frontier(itertools.product(moves, moves))), equal)
