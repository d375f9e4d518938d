"""Sequential and parallel composition of synchronous systems.

Sequential composition feeds the first machine's current output to the
second machine as its input for the same tick, so the second machine
sees the first one's state before the shared transition: the usual one
tick Moore delay.  Parallel composition pairs transitions and outputs
componentwise over product symbols.  Both constructions keep only the
part reachable from the initial pair, which never changes the
bisimilarity class of the initial state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Alphabet, SynchronousSystem, pair_step, pair_symbol, reach
from .errors import SignatureMismatch

# `*` is reserved in state names to join the two component state names.
STATE_JOIN = "*"


@dataclass(frozen=True)
class ComposedSystem:
    """A composite system plus provenance: component names and kind."""

    system: SynchronousSystem
    kind: str
    left: str
    right: str


def _pair_state(qf: str, qg: str) -> str:
    return f"{qf}{STATE_JOIN}{qg}"


def feed_of(sys_f: SynchronousSystem, sys_g: SynchronousSystem) -> list[int]:
    """The receiver input id each sender state emits, matched by symbol.

    The sender's output symbols must equal the receiver's input symbols
    as sets; their declaration orders may differ.
    """
    if not sys_f.outputs.same_symbols(sys_g.inputs):
        raise SignatureMismatch(
            f"outputs of {sys_f.name} do not match inputs of {sys_g.name}"
        )
    feed = [sys_g.inputs.index(o) for o in sys_f.outputs]
    return [feed[o] for o in sys_f.out_ids]


def seq_step(sys_f: SynchronousSystem, sys_g: SynchronousSystem):
    """Step of the sequential composite on state id pairs, labelled by input id.

    On input a the first machine steps on a and the second on the first
    machine's current output.
    """
    fed = feed_of(sys_f, sys_g)
    by_feed = [[(a, a, y) for a in range(len(sys_f.inputs))] for y in range(len(sys_g.inputs))]
    return pair_step(sys_f.succ, sys_g.succ, lambda node: by_feed[fed[node[0]]])


def _composite(name, inputs, outputs, sys_f, sys_g, start, step, output) -> SynchronousSystem:
    """The part of a product reachable from the state pair ``start``.

    Composite states are named ``qf*qg``; an edge label indexes
    ``inputs`` and ``output(node)`` names a composite state's output.
    """
    graph = reach((sys_f.index[start[0]], sys_g.index[start[1]]), step)
    state = {
        node: _pair_state(sys_f.states[node[0]], sys_g.states[node[1]]) for node in graph
    }
    return SynchronousSystem(
        name=name,
        inputs=inputs,
        outputs=outputs,
        states=tuple(state.values()),
        transitions=tuple(
            (state[node], inputs.symbols[label], state[t])
            for node, edges in graph.items()
            for (label, t) in edges
        ),
        out_label={state[node]: output(node) for node in graph},
        initial=_pair_state(*start),
    )


def seq_compose(
    sys_f: SynchronousSystem,
    sys_g: SynchronousSystem,
    name: str | None = None,
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
    step = seq_step(sys_f, sys_g)
    if start is None:
        start = (sys_f.initial, sys_g.initial)
    sys_f.check_state(start[0])
    sys_g.check_state(start[1])
    system = _composite(
        name or f"{sys_g.name}.{sys_f.name}",
        sys_f.inputs,
        sys_g.outputs,
        sys_f,
        sys_g,
        start,
        step,
        lambda node: sys_g.out_label[sys_g.states[node[1]]],
    )
    return ComposedSystem(system, "seq", sys_f.name, sys_g.name)


def par_compose(
    sys_f: SynchronousSystem,
    sys_g: SynchronousSystem,
    name: str | None = None,
) -> ComposedSystem:
    """Parallel composition over product input and output symbols."""
    inputs = Alphabet(
        tuple(pair_symbol(a, c) for a in sys_f.inputs for c in sys_g.inputs)
    )
    outputs = Alphabet(
        tuple(pair_symbol(b, d) for b in sys_f.outputs for d in sys_g.outputs)
    )
    width = len(sys_g.inputs)
    columns = [
        (a * width + c, a, c) for a in range(len(sys_f.inputs)) for c in range(width)
    ]
    system = _composite(
        name or f"{sys_f.name}-par-{sys_g.name}",
        inputs,
        outputs,
        sys_f,
        sys_g,
        (sys_f.initial, sys_g.initial),
        pair_step(sys_f.succ, sys_g.succ, lambda node: columns),
        lambda node: outputs.symbols[
            sys_f.out_ids[node[0]] * len(sys_g.outputs) + sys_g.out_ids[node[1]]
        ],
    )
    return ComposedSystem(system, "par", sys_f.name, sys_g.name)
