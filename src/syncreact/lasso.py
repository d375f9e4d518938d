"""Ultimately periodic infinite sequences in lasso form.

An :class:`EffectSequence` ranges over the one-point-plus-pairs domain
used for observable effects: ``None`` is the silent symbol (printed
``*``) and an ordered pair of output symbols is a localized difference.
A :class:`PairSetSequence` ranges over finite sets of unordered input
pairs.  Both are kept canonical: minimal period first, then minimal
preperiod.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional, Sequence

from .errors import FormatError

EffectSymbol = Optional[tuple[str, str]]

STAR: EffectSymbol = None


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


class _Lasso:
    """Shared indexing and canonical-form behavior of lasso sequences."""

    prefix: tuple
    cycle: tuple

    def __getitem__(self, i: int):
        if i < 0:
            raise IndexError("lasso sequences are infinite to the right only")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def window(self, n: int) -> tuple:
        return tuple(self[i] for i in range(n))


@dataclass(frozen=True)
class EffectSequence(_Lasso):
    prefix: tuple[EffectSymbol, ...]
    cycle: tuple[EffectSymbol, ...]

    def __post_init__(self):
        p, c = _canonical(self.prefix, self.cycle)
        object.__setattr__(self, "prefix", p)
        object.__setattr__(self, "cycle", c)

    def is_silent(self) -> bool:
        return not self.prefix and self.cycle == (STAR,)


STAR_FOREVER = EffectSequence((), (STAR,))


@dataclass(frozen=True)
class PairSetSequence(_Lasso):
    prefix: tuple[frozenset, ...]
    cycle: tuple[frozenset, ...]

    def __post_init__(self):
        p, c = _canonical(self.prefix, self.cycle)
        object.__setattr__(self, "prefix", p)
        object.__setattr__(self, "cycle", c)


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
    """The sequence ``*^count . seq``."""
    return EffectSequence((STAR,) * count + seq.prefix, seq.cycle)


# Textual forms.  Effect sequences print as whitespace separated symbols
# with a single `|` token before the cycle: `* | (ff,tt)`.  Pair set
# sequences print sets as `{a1/a2 ...}` with `{}` for the empty set.


def format_effect_symbol(e: EffectSymbol) -> str:
    if e is STAR:
        return "*"
    return f"({e[0]},{e[1]})"


def format_effect_sequence(seq: EffectSequence) -> str:
    left = " ".join(format_effect_symbol(e) for e in seq.prefix)
    right = " ".join(format_effect_symbol(e) for e in seq.cycle)
    return f"{left} | {right}" if left else f"| {right}"


def parse_effect_symbol(token: str) -> EffectSymbol:
    if token == "*":
        return STAR
    if not (token.startswith("(") and token.endswith(")")):
        raise FormatError(f"bad effect symbol {token!r}")
    body = token[1:-1]
    parts = body.split(",")
    if len(parts) < 2 or len(parts) % 2 != 0:
        raise FormatError(f"bad effect pair {token!r}")
    # Components of the two outputs have equal arity, so split evenly.
    half = len(parts) // 2
    return (",".join(parts[:half]), ",".join(parts[half:]))


def parse_effect_sequence(text: str) -> EffectSequence:
    tokens = text.split()
    if tokens.count("|") != 1:
        raise FormatError("effect sequence needs exactly one | separator")
    split = tokens.index("|")
    prefix = tuple(parse_effect_symbol(t) for t in tokens[:split])
    cycle = tuple(parse_effect_symbol(t) for t in tokens[split + 1 :])
    if not cycle:
        raise FormatError("effect sequence cycle must be nonempty")
    return EffectSequence(prefix, cycle)


def format_pair_set(pairs: frozenset) -> str:
    if not pairs:
        return "{}"
    items = sorted(pairs)
    return "{" + " ".join(f"{a}/{b}" for (a, b) in items) + "}"


def format_pair_set_sequence(seq: PairSetSequence) -> str:
    left = " ".join(format_pair_set(s) for s in seq.prefix)
    right = " ".join(format_pair_set(s) for s in seq.cycle)
    return f"{left} | {right}" if left else f"| {right}"


def parse_pair_set(token: str) -> frozenset:
    if not (token.startswith("{") and token.endswith("}")):
        raise FormatError(f"bad pair set {token!r}")
    body = token[1:-1].split()
    pairs = []
    for item in body:
        if item.count("/") != 1:
            raise FormatError(f"bad input pair {item!r}")
        a, b = item.split("/")
        pairs.append((a, b))
    return frozenset(pairs)


def parse_pair_set_sequence(text: str) -> PairSetSequence:
    # Sets may contain spaces, so tokenize on braces first.
    tokens = []
    rest = text.strip()
    while rest:
        if rest.startswith("{"):
            end = rest.find("}")
            if end < 0:
                raise FormatError("unterminated pair set")
            tokens.append(rest[: end + 1])
            rest = rest[end + 1 :].strip()
        elif rest.startswith("|"):
            tokens.append("|")
            rest = rest[1:].strip()
        else:
            raise FormatError(f"unexpected text {rest!r} in pair set sequence")
    if tokens.count("|") != 1:
        raise FormatError("pair set sequence needs exactly one | separator")
    split = tokens.index("|")
    prefix = tuple(parse_pair_set(t) for t in tokens[:split])
    cycle = tuple(parse_pair_set(t) for t in tokens[split + 1 :])
    if not cycle:
        raise FormatError("pair set sequence cycle must be nonempty")
    return PairSetSequence(prefix, cycle)
