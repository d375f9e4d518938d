"""Deterministic input generators for the benchmark workloads.

Every family is a pure function of its size and a ``random.Random`` that
the caller seeds from the benchmark's ``--seed``, so one seed always
gives byte-identical files.  Families:

- ``chain(n)``: a root branching on ``a``/``b`` into two all-EQ chains
  of length n that end in absorbing states with different outputs (the
  shape of ``tests/oracles.chain_sender``).  ``cs(d)`` is the same shape
  over the sender alphabet ``0 1 2`` that feeds ``fixtures/receiver.sls``.
- ``rand(n)``: random, 2 inputs, ~10% nondeterminism, strongly
  connected, with ``s0`` reactive by construction.
- ``p2_source(N)``: ``fixtures/program2.psy`` rewritten for ``int[0..N]``.
- ``cyc(lengths)``: a root whose inputs enter coprime output cycles.
- ``snd(n)``/``rcv(n)``: a seeded sender/receiver pair; the sender's
  outputs are the receiver's inputs ``0 1 2``.
"""

from __future__ import annotations

import random

from syncreact import sls
from syncreact.core import Alphabet, SynchronousSystem, validate

FEED = ("0", "1", "2")
NONDET = 0.1


def _system(name, inputs, outputs, states, transitions, out_label, initial):
    return SynchronousSystem(
        name=name,
        inputs=Alphabet(tuple(inputs)),
        outputs=Alphabet(tuple(outputs)),
        states=tuple(states),
        transitions=tuple(transitions),
        out_label=out_label,
        initial=initial,
    )


def chain(n: int, outputs=("o", "x", "y"), name: str | None = None) -> SynchronousSystem:
    """Two length-n silent chains from ``r`` ending in distinct outputs.

    ``l0``/``m0`` first differ at depth n, so every state is its own
    bisimulation class (2n+3 of them) and ``r`` reacts after n steps.
    """
    silent, x1, x2 = outputs
    inputs = ("a", "b")
    states = ["r"]
    out_label = {"r": silent}
    transitions = []
    prev = None
    for level in range(n):
        left, right = f"l{level}", f"m{level}"
        states += [left, right]
        out_label[left] = out_label[right] = silent
        if prev is None:
            transitions += [("r", "a", left), ("r", "b", right)]
        else:
            transitions += [(prev[0], s, left) for s in inputs]
            transitions += [(prev[1], s, right) for s in inputs]
        prev = (left, right)
    states += ["endl", "endr"]
    out_label["endl"], out_label["endr"] = x1, x2
    if prev is None:
        transitions += [("r", "a", "endl"), ("r", "b", "endr")]
    else:
        transitions += [(prev[0], s, "endl") for s in inputs]
        transitions += [(prev[1], s, "endr") for s in inputs]
    for s in inputs:
        transitions += [("endl", s, "endl"), ("endr", s, "endr")]
    return _system(name or f"chain-{n}", inputs, outputs, states, transitions, out_label, "r")


def cs(d: int) -> SynchronousSystem:
    """Chain sender whose effect ``(1,2)`` at index d feeds the receiver."""
    return chain(d, outputs=FEED, name=f"cs-{d}")


def _reactive_random(rng, name, n, prefix, inputs, outputs):
    """Random system, strongly connected, whose initial state reacts at once.

    The first input always also steps along a ring through every state;
    the other inputs pick a random target, and each move adds further
    random targets with probability NONDET.  The ring makes every state,
    and every state pair of the synchronized product, reachable whatever
    the seed, so the work a query does depends on the size and not on
    the draw.  From the initial state the first two inputs lead to one
    state each, with different outputs, so that input pair separates at
    depth 0.
    """
    states = [f"{prefix}{i}" for i in range(n)]
    index = {q: i for i, q in enumerate(states)}
    out_label = {q: rng.choice(outputs) for q in states}
    out_label[states[1]], out_label[states[2]] = outputs[0], outputs[1]
    fixed = {(states[0], inputs[0]): states[1], (states[0], inputs[1]): states[2]}
    transitions = []
    for i, q in enumerate(states):
        for sym in inputs:
            if (q, sym) in fixed:
                transitions.append((q, sym, fixed[(q, sym)]))
                continue
            targets = {states[(i + 1) % n] if sym == inputs[0] else rng.choice(states)}
            while rng.random() < NONDET:
                targets.add(rng.choice(states))
            transitions += [(q, sym, t) for t in sorted(targets, key=index.get)]
    return _system(name, inputs, outputs, states, transitions, out_label, states[0])


def rand(n: int, rng: random.Random, name: str | None = None) -> SynchronousSystem:
    return _reactive_random(rng, name or f"rand-{n}", n, "s", ("a", "b"), ("0", "1"))


def snd(n: int, rng: random.Random) -> SynchronousSystem:
    return _reactive_random(rng, f"snd-{n}", n, "f", ("a", "b"), FEED)


def rcv(n: int, rng: random.Random) -> SynchronousSystem:
    return _reactive_random(rng, f"rcv-{n}", n, "g", FEED, ("u", "v", "w"))


def cyc(lengths: tuple[int, ...], rng: random.Random) -> SynchronousSystem:
    """Root ``r`` whose i-th input enters an output cycle of length L_i.

    Each cycle starts with output ``x`` and has a seeded pattern that is
    never constant, so cycles of distinct prime lengths are pairwise
    non-bisimilar and the level sets of ``r`` repeat only after
    lcm(L) steps.
    """
    inputs = tuple(f"i{k}" for k in range(len(lengths)))
    states = ["r"]
    out_label = {"r": "o"}
    transitions = []
    for k, length in enumerate(lengths):
        pattern = ["x"] + [rng.choice("ox") for _ in range(length - 1)]
        if "o" not in pattern:
            pattern[-1] = "o"
        ring = [f"c{k}_{j}" for j in range(length)]
        states += ring
        transitions.append(("r", inputs[k], ring[0]))
        for j, q in enumerate(ring):
            out_label[q] = pattern[j]
            transitions += [(q, s, ring[(j + 1) % length]) for s in inputs]
    name = "cyc-" + "-".join(str(length) for length in lengths)
    return _system(name, inputs, ("o", "x"), states, transitions, out_label, "r")


def p2_source(n: int) -> str:
    """The second demo program with its counter widened to ``int[0..n]``."""
    return f"""inputs tt ff
outputs tt ff
var x : bool
var y : int[0..{n}]

x := ff;
y := {n};
while tt do
  tick(!x);
  x := get;
  y := {n};
  while get && !y != 0 do
    y := !y - 1;
    tick(ff)
  done;
done
"""


def sls_text(system: SynchronousSystem) -> str:
    """Canonical file text, after checking completeness and round-trip."""
    issues = validate(system)
    if issues:
        raise ValueError(f"generated {system.name} is invalid: {issues[0]}")
    text = sls.dumps(system)
    if sls.dumps(sls.loads(text)) != text:
        raise ValueError(f"generated {system.name} does not round-trip")
    return text
