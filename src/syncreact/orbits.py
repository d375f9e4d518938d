"""A level walk answered from the walks of its frontier's pairs alone.

A step is a union of per-pair steps and a key is the OR of its pairs'
keys, so a frontier's future is the union of its pairs' own walks,
their orbits.  :func:`syncreact.abstraction._levels` imports this module
only when a walk is still going at ``SPLIT_LEVEL`` with at most
``MAX_ORBITS`` pairs in its frontier, so a level walk that loops sooner
does not compile it.  Walks are bounded by ``abstraction.MAX_LEVELS``,
read through the module, so a bound patched there bounds both routes.
"""

from __future__ import annotations

from math import isqrt, lcm
from typing import Callable

from . import abstraction
from .abstraction import _Walk, lasso_at
from .errors import LevelBoundExceeded, PeriodBoundExceeded

# The lcm of the orbits' periods is the length in bits of the bitsets
# they are combined in (256 KiB each at this bound); past it the orbits
# give up before building them.  It exceeds MAX_LEVELS because it sizes
# bitsets, not levels: cycles of 29, 31, 37 and 41 combine to 1,363,783
# bits, while their DOE and SSPseq repeat every level from the split on.
MAX_PERIOD = 1 << 21


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


def combined(
    step: Callable, key: Callable, frontier: tuple, signals: Callable
) -> tuple[list[int], int]:
    """The keys of the walk from ``frontier``, as a lasso combined from its orbits.

    The orbits' keys (:func:`_orbits`) from the level where every orbit
    has looped on become, per key bit b, a bitset over time: bit t is
    set when b is at level t.  An orbit's cycle pattern is repeated to the combined
    period P, the lcm of the orbits' periods, by one product with
    (2^P - 1)/(2^n - 1), n its period; the orbits' bitsets are ORed.
    ``signals`` maps these bitsets to the ones the query reads, whose
    least common period d divides P; only those d levels are built as
    keys.  Raises PeriodBoundExceeded past :data:`MAX_PERIOD` for P, and
    LevelBoundExceeded past ``MAX_LEVELS`` for the levels built.
    """
    lassos = _orbits(step, key, frontier)
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
    if start + d > abstraction.MAX_LEVELS:
        raise LevelBoundExceeded(abstraction.MAX_LEVELS)
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
