"""Sets of synchronized state pairs as per-row bitsets, and their one stepper.

The level walks (``abstraction``, ``lemma``) and ``reactivity``'s
``diff`` and ``separators`` read run pairs after a shared input word.
This is the one module that holds them, as frontiers
(:func:`_frontier`), and steps them, by one :class:`PairRows` per step
relation.  ``reactivity`` imports it inside those two queries only.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Optional, Sequence

from .core import SynchronousSystem


class _Image(dict):
    """Successor bitsets of one set of inputs, each set's image computed once.

    ``image[bits]`` is the union of the successors, on any of the inputs
    (bit a of ``inputs`` marks input a), of the states in ``bits``; one
    state's image is built (:meth:`_single`) when first read.  A larger
    set reads byte tables: chunk c's table maps each byte b to the union
    of the images of the states 8c + k, bit k set in b (the "Four
    Russians" tables of Arlazarov, Dinic, Kronrod and Faradzev 1970),
    built the first time a set of two or more states reads that chunk.
    """

    def __init__(self, succ: Sequence, inputs: int):
        super().__init__()
        self.succ = succ
        self.ids = [a for a in range(inputs.bit_length()) if inputs >> a & 1]
        self.width = (len(succ) + 7) // 8
        self.chunks: list[Optional[list[int]]] = [None] * self.width

    def _single(self, q: int) -> int:
        moves = self.succ[q]
        bits = 0
        for a in self.ids:
            for t in moves[a]:
                bits |= 1 << t
        return bits

    def _chunk(self, c: int) -> list[int]:
        table = [0]
        for row in map(self._single, range(8 * c, min(8 * c + 8, len(self.succ)))):
            table += [image | row for image in table]
        table += [0] * (256 - len(table))
        self.chunks[c] = table
        return table

    def __missing__(self, bits: int) -> int:
        if not bits & (bits - 1):
            image = self._single(bits.bit_length() - 1)
        else:
            chunks = self.chunks
            image = 0
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


def _letter_steps(succ: Sequence, inputs: int) -> list[Callable]:
    """Per input a, the step of pairs of two copies of ``succ`` on a alone."""
    return [PairRows(succ, succ, lambda p, row=((a, a, -1),): row).step for a in range(inputs)]


def _carriers(labels: Sequence[int]) -> Callable[[int], int]:
    """Per label, such as an output id or a bisimulation block, the bitset of
    the states q with ``labels[q]`` that label, built when first asked for."""
    states: dict[int, list[int]] = {}
    for q, label in enumerate(labels):
        states.setdefault(label, []).append(q)

    @cache
    def carriers(label: int) -> int:
        row = bytearray((len(labels) + 7) // 8)
        for q in states.get(label, ()):
            row[q >> 3] |= 1 << (q & 7)
        return int.from_bytes(row, "little")

    return carriers


def _output_pairs(sys: SynchronousSystem) -> tuple[Callable, Callable]:
    """Key of a frontier over two copies of sys, and the output id pairs a key names.

    Bit x * m + y of a key marks the output id pair (x, y), m outputs.
    """
    out, m = sys.out_ids, len(sys.outputs)
    emitting = list(map(_carriers(out), range(m)))

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

    return key, cache(lambda key: frozenset(divmod(k, m) for k in range(m * m) if key >> k & 1))
