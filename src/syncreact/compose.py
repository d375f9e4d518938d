"""Sequential and parallel composition of synchronous systems.

Sequential composition feeds the first machine's current output to the
second machine as its input for the same tick, so the second machine
sees the first one's state before the shared transition: the usual one
tick Moore delay.  Parallel composition pairs transitions and outputs
componentwise over product symbols.  Both constructions keep only the
part reachable from the initial pair, which never changes the
bisimilarity class of the initial state.  The disjoint union, the third
way to combine two systems, puts them side by side so that a question
about a state of each is asked of one system.
"""

from __future__ import annotations

import itertools

from .core import Alphabet, Record, SynchronousSystem, feed_of, pair_symbol
from .errors import SignatureMismatch, StateBudgetExceeded, UnknownState

# `*` is reserved in state names to join the two component state names.
STATE_JOIN = "*"

# The most states a composite may have.  A state costs about 470 bytes,
# so the bound holds a composite to about 200 MB.
MAX_NODES = 400_000


class ComposedSystem(Record):
    """A composite system plus provenance: component names and kind."""

    __slots__ = ("system", "kind", "left", "right")

    def __init__(self, system: SynchronousSystem, kind: str, left: str, right: str):
        self.system, self.kind, self.left, self.right = system, kind, left, right


def _composite(name, inputs, outputs, sys_f, sys_g, start, columns, output) -> SynchronousSystem:
    """The part of a product reachable from the state pair ``start``, explored breadth first.

    ``columns(p)`` lists, for each composite input id in order, the
    pair ``(a, b)`` of component input ids it steps a pair (p, q) on:
    every combination of p's a-successors and q's b-successors, in that
    order, is one edge.  Composite states are named ``qf*qg`` and
    numbered in discovery order, and ``output(p, q)`` is a composite
    state's output id.  A pair is keyed by the int ``p * len(sys_g.states)
    + q``.  Raises :class:`StateBudgetExceeded` when the part has more
    than ``MAX_NODES`` states, and :class:`UnknownState` when component
    names holding ``*`` give two reachable pairs one name.
    """
    succ_f, succ_g = sys_f.succ, sys_g.succ
    width = len(sys_g.states)
    root = sys_f.index[start[0]] * width + sys_g.index[start[1]]
    number = {root: 0}
    nodes = [root]
    succ = []
    for node in nodes:
        p, q = divmod(node, width)
        moves_f, moves_g = succ_f[p], succ_g[q]
        row = []
        for (a, b) in columns(p):
            targets = []
            gs = moves_g[b]
            for f in moves_f[a]:
                base = f * width
                for g in gs:
                    t = base + g
                    i = number.get(t)
                    if i is None:
                        i = len(nodes)
                        if i == MAX_NODES:
                            raise StateBudgetExceeded(MAX_NODES)
                        number[t] = i
                        nodes.append(t)
                    targets.append(i)
            row.append(tuple(targets))
        succ.append(tuple(row))
    pairs = [divmod(node, width) for node in nodes]
    names_f, names_g = sys_f.states, sys_g.states
    states = tuple([f"{names_f[p]}{STATE_JOIN}{names_g[q]}" for (p, q) in pairs])
    if len(set(states)) < len(states):
        owner: dict[str, tuple[int, int]] = {}
        for pair, joined in zip(pairs, states):
            first = owner.setdefault(joined, pair)
            if first != pair:
                named = [(names_f[p], names_g[q]) for (p, q) in (first, pair)]
                raise UnknownState(
                    f"composite state {joined!r} names both pairs "
                    + " and ".join(f"({qf}, {qg})" for (qf, qg) in named)
                    + f"; {STATE_JOIN!r} is reserved in state names"
                )
    return SynchronousSystem.from_tables(
        name, inputs, outputs, states, succ, [output(p, q) for (p, q) in pairs], 0
    )


def seq_compose(
    sys_f: SynchronousSystem,
    sys_g: SynchronousSystem,
    start: tuple[str, str] | None = None,
) -> ComposedSystem:
    """Sequential composition: the output of sys_f drives sys_g.

    Requires the output symbols of sys_f to equal the input symbols of
    sys_g as sets.  A composite transition on input a exists exactly
    when the first machine steps on a and the second steps on the first
    machine's current output; the composite output is the second
    machine's output.  ``start`` overrides the initial pair, which is
    used to explore composites from non-initial states.
    """
    fed = feed_of(sys_f, sys_g)
    # On input a the first machine steps on a and the second on the first one's output.
    by_feed = [[(a, y) for a in range(len(sys_f.inputs))] for y in range(len(sys_g.inputs))]
    if start is None:
        start = (sys_f.initial, sys_g.initial)
    sys_f.check_state(start[0])
    sys_g.check_state(start[1])
    system = _composite(
        f"{sys_g.name}.{sys_f.name}",
        sys_f.inputs,
        sys_g.outputs,
        sys_f,
        sys_g,
        start,
        lambda p: by_feed[fed[p]],
        lambda p, q: sys_g.out_ids[q],
    )
    return ComposedSystem(system, "seq", sys_f.name, sys_g.name)


def par_compose(sys_f: SynchronousSystem, sys_g: SynchronousSystem) -> ComposedSystem:
    """Parallel composition over product input and output symbols."""
    inputs = Alphabet(
        tuple(pair_symbol(a, c) for a in sys_f.inputs for c in sys_g.inputs)
    )
    outputs = Alphabet(
        tuple(pair_symbol(b, d) for b in sys_f.outputs for d in sys_g.outputs)
    )
    columns = list(itertools.product(range(len(sys_f.inputs)), range(len(sys_g.inputs))))
    system = _composite(
        f"{sys_f.name}-par-{sys_g.name}",
        inputs,
        outputs,
        sys_f,
        sys_g,
        (sys_f.initial, sys_g.initial),
        lambda p: columns,
        lambda p, q: sys_f.out_ids[p] * len(sys_g.outputs) + sys_g.out_ids[q],
    )
    return ComposedSystem(system, "par", sys_f.name, sys_g.name)


def align(sys_a: SynchronousSystem, sys_b: SynchronousSystem) -> tuple[list, list]:
    """``sys_b``'s successor and output tables in ``sys_a``'s numbering.

    Signatures compare symbol sets, not their order, so input column a
    of the result is ``sys_b``'s column for ``sys_a``'s a-th input, and
    output ids name ``sys_a``'s output symbols.
    """
    if not (sys_a.inputs.same_symbols(sys_b.inputs) and sys_a.outputs.same_symbols(sys_b.outputs)):
        raise SignatureMismatch(f"systems {sys_a.name} and {sys_b.name} have different signatures")
    succ, out = sys_b.succ, sys_b.out_ids
    columns = [sys_b.inputs.index(a) for a in sys_a.inputs]
    if columns != sorted(columns):
        succ = [tuple(moves[c] for c in columns) for moves in succ]
    renumber = [sys_a.outputs.index(o) for o in sys_b.outputs]
    if renumber != sorted(renumber):
        out = [renumber[o] for o in out]
    return succ, out


def disjoint_union(
    sys_a: SynchronousSystem, sys_b: SynchronousSystem
) -> tuple[SynchronousSystem, str, str]:
    """Disjoint union with ``A.``/``B.`` prefixed state names.

    Returns the union plus the two prefixes; requires equal signatures.
    A question about a state of each system is asked of the union by
    the prefixed names, so all such questions share its one refinement.
    ``sys_b``'s ids follow ``sys_a``'s and its tables are read in
    ``sys_a``'s numbering (:func:`align`): the transitions list
    ``sys_a``'s and then ``sys_b``'s, both by ``sys_a``'s input order.
    """
    succ_b, out_b = align(sys_a, sys_b)
    n = len(sys_a.states)
    shifted = [tuple(tuple(t + n for t in ts) for ts in moves) for moves in succ_b]
    union = SynchronousSystem.from_tables(
        f"{sys_a.name}+{sys_b.name}",
        sys_a.inputs,
        sys_a.outputs,
        tuple(p + q for (p, side) in (("A.", sys_a), ("B.", sys_b)) for q in side.states),
        sys_a.succ + shifted,
        sys_a.out_ids + out_b,
        0,
    )
    return union, "A.", "B."
