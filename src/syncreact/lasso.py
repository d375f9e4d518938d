"""Ultimately periodic infinite sequences in lasso form.

An :class:`EffectSequence` ranges over the one-point-plus-pairs domain
used for observable effects: ``None`` is the silent symbol (printed
``*``) and an ordered pair of output symbols is a localized difference.
A :class:`PairSetSequence` ranges over finite sets of unordered input
pairs.  Both are kept canonical: minimal period first, then minimal
preperiod.
"""

from __future__ import annotations

from math import lcm
from typing import Optional, Sequence

from .core import STAR, Record  # STAR (the silent symbol) stays importable from here

EffectSymbol = Optional[tuple[str, str]]


def _minimal_period(cycle: tuple) -> tuple:
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            return cycle[:d]
    return cycle


def _canonical(prefix: tuple, cycle: tuple) -> tuple[tuple, tuple]:
    """Minimal period, then the prefix's trailing symbols absorbed into the cycle.

    Each absorbed symbol rotates the cycle right by one, so the k-th
    symbol from the prefix's end is absorbed while it equals the k-th
    from the cycle's end, read cyclically.
    """
    if not cycle:
        raise ValueError("lasso cycle must be nonempty")
    cycle = _minimal_period(cycle)
    n, period = len(prefix), len(cycle)
    k = 0
    while k < n and prefix[n - 1 - k] == cycle[(period - 1 - k) % period]:
        k += 1
    cut = period - k % period
    return tuple(prefix[: n - k]), _minimal_period(cycle[cut:] + cycle[:cut])


class _Lasso(Record):
    """Shared indexing of lasso sequences, kept in canonical form.

    Each subclass defines its own ``__init__``, which canonicalises:
    the benchmark's tracer (``perfbench/tracer.py``) times construction
    by wrapping the ``__init__`` each class defines.
    """

    __slots__ = ()
    prefix: tuple
    cycle: tuple

    def __getitem__(self, i: int):
        if i < 0:
            raise IndexError("lasso sequences are infinite to the right only")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]


class EffectSequence(_Lasso):
    __slots__ = ("prefix", "cycle")

    def __init__(self, prefix: tuple[EffectSymbol, ...], cycle: tuple[EffectSymbol, ...]):
        self.prefix, self.cycle = _canonical(prefix, cycle)

    def is_silent(self) -> bool:
        return not self.prefix and self.cycle == (STAR,)


STAR_FOREVER = EffectSequence((), (STAR,))


class PairSetSequence(_Lasso):
    __slots__ = ("prefix", "cycle")

    def __init__(self, prefix: tuple[frozenset, ...], cycle: tuple[frozenset, ...]):
        self.prefix, self.cycle = _canonical(prefix, cycle)


def merge_symbols(e1: EffectSymbol, e2: EffectSymbol) -> EffectSymbol:
    """x + x = x, anything else collapses to the silent symbol."""
    return e1 if e1 == e2 else STAR


def merge_sequences(sequences: Sequence[EffectSequence]) -> EffectSequence:
    """Pointwise merge of effect sequences, closed on lassos.

    The result's preperiod is the max of the preperiods and its period
    the lcm of the periods, recanonicalized.  Merging the empty family
    is not meaningful and is rejected.
    """
    if not sequences:
        raise ValueError("cannot merge an empty family of sequences")
    pre = max(len(s.prefix) for s in sequences)
    period = lcm(*(len(s.cycle) for s in sequences))
    prefix = tuple(
        _merge_at(sequences, i) for i in range(pre)
    )
    cycle = tuple(_merge_at(sequences, pre + i) for i in range(period))
    return EffectSequence(prefix, cycle)


def _merge_at(sequences: Sequence[EffectSequence], i: int) -> EffectSymbol:
    value = sequences[0][i]
    for s in sequences[1:]:
        value = merge_symbols(value, s[i])
    return value


def obs_leq(d1: EffectSequence, d2: EffectSequence) -> bool:
    """Observational order: d1 below d2 iff every position is silent or equal.

    The closure of single-position silent-weakening, evaluated over one
    combined preperiod-plus-lcm window, which covers all positions of
    both lassos.
    """
    n = max(len(d1.prefix), len(d2.prefix)) + lcm(len(d1.cycle), len(d2.cycle))
    return all(d1[i] is STAR or d1[i] == d2[i] for i in range(n))


def star_prepend(count: int, seq: EffectSequence) -> EffectSequence:
    """The sequence ``*^count . seq``; a silent ``seq`` absorbs the stars."""
    if seq.is_silent():
        return seq
    return EffectSequence((STAR,) * count + seq.prefix, seq.cycle)


# Writers of the report forms.  An effect sequence prints as whitespace
# separated symbols with a single `|` token before the cycle:
# `* | (ff,tt)`.  A pair set sequence prints its sets as `{a1/a2 ...}`,
# with `{}` for the empty set.


def format_effect_symbol(e: EffectSymbol) -> str:
    if e is STAR:
        return "*"
    return f"({e[0]},{e[1]})"


def format_effect_sequence(seq: EffectSequence) -> str:
    left = " ".join(format_effect_symbol(e) for e in seq.prefix)
    right = " ".join(format_effect_symbol(e) for e in seq.cycle)
    return f"{left} | {right}" if left else f"| {right}"


def format_pair_set(pairs: frozenset) -> str:
    if not pairs:
        return "{}"
    items = sorted(pairs)
    return "{" + " ".join(f"{a}/{b}" for (a, b) in items) + "}"


def format_pair_set_sequence(seq: PairSetSequence) -> str:
    left = " ".join(format_pair_set(s) for s in seq.prefix)
    right = " ".join(format_pair_set(s) for s in seq.cycle)
    return f"{left} | {right}" if left else f"| {right}"
