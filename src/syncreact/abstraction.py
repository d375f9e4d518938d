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
relation is one :class:`PairRows`, which owns its masked columns and
their image tables; this is the one module that reads the format, and
each level keeps only an integer key of what a query reads.

A step is a union of per-pair steps and a key is the OR of its pairs'
keys, so a frontier's future is the union of its pairs' own walks,
their orbits.  A joint walk loops only after the lcm of the periods of
the cycles its pairs enter; every DOE and SSPseq level walk
(:func:`_levels`) therefore answers a walk still going at
:data:`SPLIT_LEVEL` whose frontier holds at most :data:`MAX_ORBITS`
pairs from one walk per pair, combining the orbits' keys as
per-key-bit bitsets over time (:func:`_orbits`, :func:`_combine`).
Where the orbits pass a bound the joint walk goes on instead.  The DOE
walk of :func:`doe` ends sooner, at the first level holding a
bisimilar pair, after which every position is silent.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, reduce
from math import isqrt, lcm
from typing import Callable, Iterable, Optional, Sequence

from .core import BisimOracle, Record, SynchronousSystem, feed_of, require_complete
from .errors import (
    LevelBoundExceeded,
    NotReactive,
    PeriodBoundExceeded,
    PreconditionFailed,
    ResourceError,
)
from .lasso import (
    STAR,
    STAR_FOREVER,
    EffectSequence,
    EffectSymbol,
    PairSetSequence,
    merge_sequences,
    star_prepend,
)
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
# The lcm of the orbits' periods is the length in bits of the bitsets
# they are combined in (256 KiB each at this bound); past it the orbits
# give up before building them.  It exceeds MAX_LEVELS because it sizes
# bitsets, not levels: cycles of 29, 31, 37 and 41 combine to 1,363,783
# bits, while their DOE and SSPseq repeat every level from the split on.
MAX_PERIOD = 1 << 21


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


class PairRows(dict):
    """Sets of state pairs of two successor tables, stepped along masked columns.

    A pair (p, q) holds a state id p of ``succ_a`` and q of ``succ_b``.  A
    frontier (:func:`_frontier`) is the tuple of ``(p, bits)`` over its
    nonempty rows in increasing p, where bit q of ``bits`` marks the
    pair (p, q); equal sets are equal tuples.  ``masked(p)`` lists row
    p's columns ``(ae, af, mask)``, and a step follows them: every p' in
    ``succ_a[p][ae]`` gains the af-image of ``bits & mask`` (mask -1
    keeps every bit).  Columns of a row with one successor tuple and one
    mask form one group, which reads the image of all their af inputs at
    once; ``self[p]`` is row p's groups as ``(targets, mask, image)``,
    built on first lookup.  A step thus costs, per row and column group,
    one table lookup per 8-state chunk its masked bits touch; a set met
    before, such as a row's one bit, costs one dictionary lookup.
    """

    def __init__(self, succ_a: Sequence, succ_b: Sequence, masked: Callable):
        super().__init__()
        self.succ_a, self.succ_b, self.masked = succ_a, succ_b, masked
        self._images: dict[int, _Image] = {}

    def __missing__(self, p: int) -> list:
        afs: dict[tuple, int] = {}
        moves = self.succ_a[p]
        for ae, af, mask in self.masked(p):
            key = (moves[ae], mask)
            afs[key] = afs.get(key, 0) | 1 << af
        groups = []
        for (targets, mask), inputs in afs.items():
            image = self._images.get(inputs)
            if image is None:
                image = self._images[inputs] = _Image(self.succ_b, inputs)
            groups.append((targets, mask, image))
        self[p] = groups
        return groups

    def step(self, frontier: tuple) -> tuple:
        rows: dict[int, int] = {}
        for p, bits in frontier:
            for targets, mask, image in self[p]:
                masked = bits & mask
                if masked:
                    image_bits = image[masked]
                    for t in targets:
                        if t in rows:
                            rows[t] |= image_bits
                        else:
                            rows[t] = image_bits
        return tuple(sorted(rows.items()))


def _frontier(pairs: Iterable[tuple[int, int]]) -> tuple:
    """The frontier holding the given pairs."""
    rows: dict[int, int] = {}
    for p, q in pairs:
        rows[p] = rows.get(p, 0) | 1 << q
    return tuple(sorted(rows.items()))


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
    in its frontier, is answered from its orbits (:func:`_orbits`,
    :func:`_combine`), whose lasso repeats with the least period of
    the key bits ``signals`` keeps (all of them by default).  Should
    the orbits pass a bound the joint walk answers; should it pass
    :data:`MAX_LEVELS` too, the orbits' error is raised.
    """
    step, start, key, named = walk
    joint = _Walk(step, start, key)
    joint.run(SPLIT_LEVEL)
    pairs = sum(bits.bit_count() for _, bits in joint.frontier)
    if joint.loop is None and pairs <= MAX_ORBITS:
        try:
            keys, loop = _combine(_orbits(step, key, joint.frontier), signals)
            return [named(k) for k in joint.values + keys], len(joint.values) + loop
        except ResourceError as exc:
            try:
                joint.run()
            except LevelBoundExceeded:
                raise exc from None
    joint.run()
    return [named(k) for k in joint.values], joint.loop


def _orbits(step: Callable, key: Callable, frontier: tuple) -> list:
    """The walk of each pair of ``frontier`` alone, its orbit, as a lasso of keys."""
    lassos = []
    for p, bits in frontier:
        while bits:
            pair = bits & -bits
            bits ^= pair
            orbit = _Walk(step, ((p, pair),), key)
            orbit.run()
            lassos.append((orbit.values, orbit.loop))
    return lassos


def _combine(lassos: list[tuple[list, int]], signals: Callable) -> tuple[list[int], int]:
    """The keys of the union of the orbits' walks, as a lasso.

    The orbits' keys from the level where every orbit has looped on
    become, per key bit b, a bitset over time: bit t is set when b is
    at level t.  An orbit's cycle pattern is repeated to the combined
    period P, the lcm of the orbits' periods, by one product with
    (2^P - 1)/(2^n - 1), n its period; the orbits' bitsets are ORed.
    ``signals`` maps these bitsets to the ones the query reads, whose
    least common period d divides P; only those d levels are built as
    keys.  Raises PeriodBoundExceeded past :data:`MAX_PERIOD` for P, and
    LevelBoundExceeded past :data:`MAX_LEVELS` for the levels built.
    """
    period = lcm(*(len(keys) - loop for keys, loop in lassos))
    if period > MAX_PERIOD:
        raise PeriodBoundExceeded(MAX_PERIOD)
    start = max((loop for _, loop in lassos), default=0)
    prefix = [0] * start
    cycles: dict[int, list[int]] = {}  # orbit period -> ORed keys from level start on
    for keys, loop in lassos:
        n = len(keys) - loop
        cycle = cycles.setdefault(n, [0] * n)
        for t in range(start):
            prefix[t] |= lasso_at(keys, loop, t)
        for t in range(n):
            cycle[t] |= lasso_at(keys, loop, start + t)
    width = max((k.bit_length() for cycle in cycles.values() for k in cycle), default=0)
    tails = [0] * width
    for n, cycle in cycles.items():
        repeat = ((1 << period) - 1) // ((1 << n) - 1)
        for b in range(width):
            bits = "".join("1" if k >> b & 1 else "0" for k in reversed(cycle))
            tails[b] |= int(bits, 2) * repeat
    read = signals(tails)
    d = _least_period(read, period)
    if start + d > MAX_LEVELS:
        raise LevelBoundExceeded(MAX_LEVELS)
    keys = [0] * d
    for b, bits in enumerate(read):
        for t, bit in enumerate(reversed(format(bits & ((1 << d) - 1), f"0{d}b"))):
            if bit == "1":
                keys[t] |= 1 << b
    return prefix + keys, start


def _least_period(bitsets: list[int], n: int) -> int:
    """The least d dividing n such that each bitset of n bits repeats every d bits."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    periods = small + [n // d for d in reversed(small)]
    return next(d for d in periods if all(x >> d == x & ((1 << (n - d)) - 1) for x in bitsets))


def _doe_walk(sys: SynchronousSystem, q: str) -> tuple:
    """The DOE walk of a reactive state, as :func:`_levels` reads it.

    Its first frontier holds every successor combination of every
    separating pair of q in input declaration order; a step follows
    every shared input.  Bit x * m + y of a key marks the output id pair
    (x, y), m outputs.
    """
    (i,) = require_complete(sys, q)
    succ = sys.succ
    pairs, _ = separating_ids(sys, i, i)
    if not pairs:
        raise NotReactive(f"state {q} of {sys.name} has no separating pair")
    start = _frontier((x, y) for a1, a2 in pairs for x in succ[i][a1] for y in succ[i][a2])
    every = [(a, a, -1) for a in range(len(sys.inputs))]
    m = len(sys.outputs)
    named = cache(lambda key: frozenset(divmod(k, m) for k in range(m * m) if key >> k & 1))
    return PairRows(succ, succ, lambda p: every).step, start, _output_pairs(sys), named


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


def _emitting(sys: SynchronousSystem) -> list[int]:
    """Per output id, the bitset of the states that emit it."""
    emitting = [0] * len(sys.outputs)
    for q, o in enumerate(sys.out_ids):
        emitting[o] |= 1 << q
    return emitting


def _output_pairs(sys: SynchronousSystem) -> Callable:
    """Key of a frontier over two copies of sys: bit x * m + y marks output id pair (x, y)."""
    out, emitting = sys.out_ids, _emitting(sys)
    m = len(emitting)

    def key(frontier: tuple) -> int:
        by_output = [0] * m
        for p, bits in frontier:
            by_output[out[p]] |= bits
        key, pair = 0, 1
        for bits in by_output:
            for e in emitting:
                if bits & e:
                    key |= pair
                pair <<= 1
        return key

    return key


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
    blocks: dict[int, int] = {}
    for x, c in enumerate(cls):
        blocks[c] = blocks.get(c, 0) | 1 << x
    block_of = [blocks[c] for c in cls]  # per state, the bitset of its block

    def step(frontier: tuple) -> tuple:
        for p, bits in frontier:
            if bits & block_of[p]:
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
            self.d, self.s = d, s = doe(sys_f, q_f), ssp_seq(sys_g, q_g)
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
        levels, loop = doe_levels(self.sys_f, self.q_f)
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


def lemma_check(
    sys_f: SynchronousSystem, q_f: str, sys_g: SynchronousSystem, q_g: str
) -> LemmaVerdict:
    """Reactivity guarantee for a sequential-composition state pair.

    Guaranteed at the least index i where the lemma holds
    (:class:`_Lemma`).  Every synchronized run pair of the composite
    successors then differs at output index i+2, whatever the inputs, so
    a positive verdict implies composite reactivity; the fit alone does
    not, since separating-pair trajectories can diverge from the
    diagonal paths a composition drives the receiver along.  A weakening
    of the sender's DOE only erases positions, so its non-silent
    positions are all the lemma asks about.
    """
    lemma = _Lemma(sys_f, q_f, sys_g, q_g)
    if not lemma.reactive:
        return LemmaVerdict(False)
    i = next(filter(lemma.holds, range(lemma.window)), None)
    return LemmaVerdict(i is not None, i)


def doe_compose(
    sys_f: SynchronousSystem, q_f: str, sys_g: SynchronousSystem, q_g: str, t: int
) -> EffectSequence:
    """Composite observable-effect under-approximation at witness index t.

    Requires both states to be reactive and the sender's effect (x1, x2)
    at t to fit: to be a strongly separating pair of the receiver at
    level t+1.  Silent unless the lemma holds at t (:class:`_Lemma`).
    Otherwise t+1 silent ticks, the first being the communication delay
    of the synchronous model, then the merged receiver DOEs of every
    state reachable in exactly t+1 composite steps.  x1 feeds the first
    copy, so each merged pair is reversed when x1 is declared after x2
    among the receiver's inputs.
    """
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
    merged = merge_sequences([doe(sys_g, g) for g in receivers])
    if sys_g.inputs.canonical_pair(*lemma.d[t]) != lemma.d[t]:
        parts = (merged.prefix, merged.cycle)
        merged = EffectSequence(*(tuple(e and e[::-1] for e in part) for part in parts))
    return star_prepend(t + 1, merged)
