"""Independent brute-force oracles and random system generation.

Everything here recomputes results straight from the definitions, with
no shared code paths with the library algorithms it checks: bisimilarity
as a greatest fixpoint over state pairs, separation depths as the first
iterated pair relation that drops a pair, separators by exhaustive word
enumeration over run pairs, reaction time by per-word guaranteed
difference search, strong separability and reaction time also by the
original three passes over each root's EQ region (breadth-first region,
depth-first cycle search, longest path), and `.psy` rounds by the
original small-step evaluator, which rebuilds the whole program after
every reduction.  Quotients and composites are built the original way,
as name triples through the validating constructor.
DOE and SSPseq level sets are also walked the original way, as
frozensets of state-id pairs with every pair's successors and strongly
separating pairs cached one pair at a time.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import pathlib
import random
import sys as _sys
from collections import namedtuple

from syncreact.abstraction import _effects, doe, ssp_seq
from syncreact.compose import align, disjoint_union, feed_of
from syncreact.core import (
    Alphabet,
    BisimOracle,
    Run,
    SynchronousSystem,
    bisim_classes,
    pair_symbol,
    run_outputs,
    runs,
    symbol_components,
)
from syncreact.errors import (
    BuildError,
    IntRangeExceeded,
    NonFiniteIntRange,
    NotReactive,
    PsyTypeError,
    RoundDivergence,
    StateBudgetExceeded,
    SyncReactError,
    UnknownState,
)
from syncreact.lasso import STAR, STAR_FOREVER, EffectSequence, merge_sequences, star_prepend
from syncreact.psyc.syntax import (
    Assign,
    BoolLit,
    Conj,
    Dec,
    Deref,
    Get,
    If,
    IntLit,
    NotZero,
    Seq,
    Skip,
    Term,
    Tick,
    VarRef,
    While,
    unparse,
)
from syncreact.reactivity import ReactionTime, StrongSepResult, reactive, separating_pairs


def naive_bisimilar_pairs(sys: SynchronousSystem) -> set:
    """Greatest fixpoint of the bisimulation condition over state pairs."""
    rel = {
        (p, q)
        for p in sys.states
        for q in sys.states
        if sys.out(p) == sys.out(q)
    }
    while True:
        keep = set()
        for (p, q) in rel:
            ok = True
            for sym in sys.inputs:
                ps = sys.successors(p, sym)
                qs = sys.successors(q, sym)
                if not all(any((p2, q2) in rel for q2 in qs) for p2 in ps):
                    ok = False
                    break
                if not all(any((p2, q2) in rel for p2 in ps) for q2 in qs):
                    ok = False
                    break
            if ok:
                keep.add((p, q))
        if keep == rel:
            return rel
        rel = keep


def naive_approximants(sys: SynchronousSystem) -> list[set]:
    """The k-step bisimulation approximants as pair relations, k = 0, 1, ...

    Level 0 relates states with equal outputs; level k+1 keeps the pairs
    of level k whose every move is matched, on the same input, by a move
    of the other state to a level-k related successor.  The list stops at
    the first level equal to its predecessor, which is bisimilarity.
    """
    levels = [
        {
            (p, q)
            for p in sys.states
            for q in sys.states
            if sys.out(p) == sys.out(q)
        }
    ]
    while True:
        rel = levels[-1]
        nxt = {
            (p, q)
            for (p, q) in rel
            if all(
                all(any((p2, q2) in rel for q2 in sys.successors(q, sym))
                    for p2 in sys.successors(p, sym))
                and all(any((p2, q2) in rel for p2 in sys.successors(p, sym))
                        for q2 in sys.successors(q, sym))
                for sym in sys.inputs
            )
        }
        if nxt == rel:
            return levels
        levels.append(nxt)


def naive_separation_depth(sys, p, q, approximants=None):
    """Least k with (p, q) outside the k-step approximant, None if bisimilar.

    ``approximants`` may carry :func:`naive_approximants` of ``sys`` to
    amortize queries on every pair of one system.
    """
    levels = approximants if approximants is not None else naive_approximants(sys)
    for k, rel in enumerate(levels):
        if (p, q) not in rel:
            return k
    return None


def naive_non_bisimilar(sys_a, qa, sys_b, qb) -> bool:
    if sys_a is sys_b:
        return (qa, qb) not in naive_bisimilar_pairs(sys_a)
    union, pa, pb = disjoint_union(sys_a, sys_b)
    return (pa + qa, pb + qb) not in naive_bisimilar_pairs(union)


def all_words(alphabet: Alphabet, length: int):
    return itertools.product(alphabet.symbols, repeat=length)


def _naive_distinct(sys):
    """Memoised naive non-bisimilarity of two states of one system."""
    return functools.lru_cache(maxsize=None)(
        lambda x, y: naive_non_bisimilar(sys, x, sys, y)
    )


def _beats(distinct, p, q, ae, af, sys):
    """Some ae-successor of p is non-bisimilar to every af-successor of q."""
    return any(
        all(distinct(x, y) for y in sys.successors(q, af))
        for x in sys.successors(p, ae)
    )


def _naive_ssp(distinct, sys, p, q):
    """Strongly separating pairs of (p, q) straight from the definition."""
    return frozenset(
        (a1, a2)
        for (a1, a2) in itertools.combinations(sys.inputs.symbols, 2)
        if _beats(distinct, p, q, a1, a2, sys) or _beats(distinct, p, q, a2, a1, sys)
    )


def brute_doe(sys, q, n):
    """First n positions of the deterministic observable effects of q.

    Position i collects, for every separating pair (a1, a2) of q in
    declaration order and every word w of length i, the outputs at index
    i + 1 of every pair of runs on a1.w and a2.w from q; it is that pair
    when exactly one unequal pair shows up, silent (None) otherwise.
    """
    pairs = _naive_ssp(_naive_distinct(sys), sys, q, q)
    positions = []
    for i in range(n):
        seen = set()
        for (a1, a2) in pairs:
            for word in all_words(sys.inputs, i):
                ends_1 = {r.states()[-1] for r in runs(sys, q, (a1,) + word)}
                ends_2 = {r.states()[-1] for r in runs(sys, q, (a2,) + word)}
                seen |= {(sys.out(x), sys.out(y)) for x in ends_1 for y in ends_2}
        x1, x2 = seen.pop() if len(seen) == 1 else (None, None)
        positions.append((x1, x2) if x1 != x2 else None)
    return tuple(positions)


def brute_ssp_seq(sys, q, n):
    """First n levels of the strongly separating pair sequence of q.

    Level k intersects the strongly separating pairs of the end pair of
    every pair of runs from (q, q) on two words of length k that moves,
    at each step, along an orientation (ae, af) holding at its current
    pair: ae beats af there.  With no such run pair the level is every
    input pair.
    """
    distinct = _naive_distinct(sys)
    everything = frozenset(itertools.combinations(sys.inputs.symbols, 2))
    levels = []
    for k in range(n):
        value = everything
        for w1 in all_words(sys.inputs, k):
            for w2 in all_words(sys.inputs, k):
                if any(a == b for a, b in zip(w1, w2)):
                    continue
                for r1 in runs(sys, q, w1):
                    for r2 in runs(sys, q, w2):
                        path = list(zip(r1.states(), r2.states()))
                        if all(
                            _beats(distinct, p1, p2, ae, af, sys)
                            for (p1, p2), ae, af in zip(path, w1, w2)
                        ):
                            value &= _naive_ssp(distinct, sys, *path[-1])
        levels.append(value)
    return tuple(levels)


def brute_separators(sys_a, p, sys_b, q, max_len):
    """Separators by exhaustive run-pair enumeration, minimal ones only.

    A word separates iff some pair of runs emits different inclusive
    output words, deterministically iff every pair does.  Words with a
    proper prefix that separates deterministically are dropped.
    """
    found = {}
    for length in range(0, max_len + 1):
        for word in all_words(sys_a.inputs, length):
            outs_a = [run_outputs(sys_a, r) for r in runs(sys_a, p, word)]
            outs_b = [run_outputs(sys_b, r) for r in runs(sys_b, q, word)]
            pairs = [(o1, o2) for o1 in outs_a for o2 in outs_b]
            some_differ = any(o1 != o2 for (o1, o2) in pairs)
            all_differ = all(o1 != o2 for (o1, o2) in pairs)
            if some_differ:
                found[word] = all_differ
    minimal = []
    for word, det in sorted(found.items(), key=lambda kv: (len(kv[0]), kv[0])):
        pruned = any(
            found.get(word[:k]) is True for k in range(0, len(word))
        )
        if not pruned:
            minimal.append((word, det))
    return minimal


def brute_diff(sys, p, q, word):
    """``diff`` by run enumeration: index n holds, over every pair of runs
    on word[:n], the ordered output pair at n, or STAR where they agree."""
    table = []
    for n in range(len(word) + 1):
        outs_p = [run_outputs(sys, r)[n] for r in runs(sys, p, word[:n])]
        outs_q = [run_outputs(sys, r)[n] for r in runs(sys, q, word[:n])]
        table.append({STAR if o1 == o2 else (o1, o2) for o1 in outs_p for o2 in outs_q})
    return table


def guaranteed_diff_index(sys_a, p, sys_b, q, word):
    """Least n such that every pair of runs on word[:n] differs at n."""
    for n in range(len(word) + 1):
        prefix = word[:n]
        finals_a = {r.states()[-1] for r in runs(sys_a, p, prefix)}
        finals_b = {r.states()[-1] for r in runs(sys_b, q, prefix)}
        if all(
            sys_a.out(r1) != sys_b.out(r2)
            for r1 in finals_a
            for r2 in finals_b
        ):
            return n
    return None


# The original strong separability and reaction time searches: per root,
# a breadth-first pass collects the EQ region, a depth-first pass looks
# for a cycle in it, and a pass over the postorder takes longest paths.


def _naive_eq_product(sys_a, sys_b):
    """EQ test and EQ-filtered step of the synchronized product, on id pairs."""
    succ_b, out_b = align(sys_a, sys_b)

    def eq(node):
        return sys_a.out_ids[node[0]] == out_b[node[1]]

    def step(node):
        moves_a, moves_b = sys_a.succ[node[0]], succ_b[node[1]]
        edges = [(a, (x, y)) for a in range(len(moves_a)) for x in moves_a[a] for y in moves_b[a]]
        return [(a, t) for (a, t) in edges if eq(t)]

    return eq, step


def _naive_eq_region(root, step):
    region = {root: []}
    queue = [root]
    for node in queue:
        region[node] = step(node)
        for (_, t) in region[node]:
            if t not in region:
                region[t] = []
                queue.append(t)
    return region


def _naive_cycle_search(root, region):
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in region}
    path, postorder = [], []
    stack = [("enter", root, None)]
    while stack:
        action, node, via = stack.pop()
        if action == "exit":
            color[node] = BLACK
            postorder.append(node)
            path.pop()
            continue
        if color[node] != WHITE:
            continue
        color[node] = GRAY
        path.append((node, via))
        stack.append(("exit", node, None))
        for (label, t) in region[node]:
            if color[t] == GRAY:
                start = [n for (n, _) in path].index(t)
                cycle = [(path[i][0], path[i + 1][1]) for i in range(start, len(path) - 1)]
                return tuple(cycle) + ((node, label),), postorder
            if color[t] == WHITE:
                stack.append(("enter", t, label))
    return None, postorder


def _naive_longest_word(root, region, postorder):
    length = {}
    for node in postorder:
        length[node] = max((1 + length[t] for (_, t) in region[node]), default=0)
    word, node = [], root
    while length[node] > 0:
        for (label, t) in region[node]:
            if length[t] == length[node] - 1:
                word.append(label)
                node = t
                break
    return tuple(word)


def _naive_strong_separation(eq, step, root):
    """An EQ lasso from root, or else one longest all-EQ word; ``(None, ())`` at a DIFF root."""
    if not eq(root):
        return None, ()
    region = _naive_eq_region(root, step)
    cycle, postorder = _naive_cycle_search(root, region)
    if cycle is not None:
        return cycle, ()
    return None, _naive_longest_word(root, region, postorder)


def naive_strongly_separable(sys_a, p, sys_b, q) -> StrongSepResult:
    eq, step = _naive_eq_product(sys_a, sys_b)
    cycle, word = _naive_strong_separation(eq, step, (sys_a.index[p], sys_b.index[q]))
    if cycle is None:
        return StrongSepResult(True, bound=len(word))
    symbols = sys_a.inputs.symbols
    return StrongSepResult(
        False,
        cycle=tuple(((sys_a.states[x], sys_b.states[y]), symbols[a]) for ((x, y), a) in cycle),
    )


def naive_reaction_time(sys, q) -> ReactionTime:
    """Each successor pair of each deterministic separating pair searched on its own."""
    eq, step = _naive_eq_product(sys, sys)
    index = sys.inputs.index
    moves = sys.succ[sys.index[q]]
    deterministic = separating_pairs(sys, q).deterministic_subset
    if not deterministic:
        return ReactionTime(None)
    candidates = []
    for (s1, s2) in deterministic:
        for root in itertools.product(moves[index(s1)], moves[index(s2)]):
            cycle, word = _naive_strong_separation(eq, step, root)
            if cycle is not None:
                return ReactionTime(None)
            candidates.append((0, ()) if not eq(root) else (len(word) + 1, word + (0,)))
    time, witness = max(candidates, key=lambda c: c[0], default=(-1, ()))
    return ReactionTime(time, tuple(sys.inputs.symbols[a] for a in witness))


def naive_quotient(sys: SynchronousSystem) -> SynchronousSystem:
    """The bisimulation quotient: each transition mapped to class representatives, once."""
    partition = bisim_classes(sys)
    rep_of = {q: partition.representative[partition.class_of[q]] for q in sys.states}
    states = tuple(partition.representative[c] for c in partition.classes)
    transitions = dict.fromkeys((rep_of[s], a, rep_of[t]) for (s, a, t) in sys.transitions)
    return SynchronousSystem(
        name=f"{sys.name}_q",
        inputs=sys.inputs,
        outputs=sys.outputs,
        states=states,
        transitions=tuple(transitions),
        out_label={q: sys.out(q) for q in states},
        initial=rep_of[sys.initial],
    )


def naive_composite(sys_f, sys_g, kind: str, start=None) -> SynchronousSystem:
    """``seq_compose`` or ``par_compose``'s system, explored breadth-first by state names."""
    if kind == "seq":
        name, inputs, outputs = f"{sys_g.name}.{sys_f.name}", sys_f.inputs, sys_g.outputs

        def edges(qf, qg):
            return [
                (a, (f2, g2))
                for a in sys_f.inputs
                for f2 in sys_f.successors(qf, a)
                for g2 in sys_g.successors(qg, sys_f.out(qf))
            ]

        def output(qf, qg):
            return sys_g.out(qg)

    else:
        name = f"{sys_f.name}-par-{sys_g.name}"
        inputs = Alphabet(tuple(pair_symbol(a, c) for a in sys_f.inputs for c in sys_g.inputs))
        outputs = Alphabet(tuple(pair_symbol(b, d) for b in sys_f.outputs for d in sys_g.outputs))

        def edges(qf, qg):
            return [
                (pair_symbol(a, c), (f2, g2))
                for a in sys_f.inputs
                for c in sys_g.inputs
                for f2 in sys_f.successors(qf, a)
                for g2 in sys_g.successors(qg, c)
            ]

        def output(qf, qg):
            return pair_symbol(sys_f.out(qf), sys_g.out(qg))

    start = start or (sys_f.initial, sys_g.initial)
    graph = {start: None}
    queue = [start]
    for node in queue:
        graph[node] = edges(*node)
        for (_, t) in graph[node]:
            if t not in graph:
                graph[t] = None
                queue.append(t)
    state = {node: f"{node[0]}*{node[1]}" for node in graph}
    if len(set(state.values())) < len(state):
        raise UnknownState("two reachable pairs share one name")
    return SynchronousSystem(
        name=name,
        inputs=inputs,
        outputs=outputs,
        states=tuple(state.values()),
        transitions=tuple(
            (state[node], a, state[t]) for node, moves in graph.items() for (a, t) in moves
        ),
        out_label={state[node]: output(*node) for node in graph},
        initial=state[start],
    )


def random_system(
    rng: random.Random,
    name: str,
    max_states: int,
    in_syms: tuple[str, ...],
    out_syms: tuple[str, ...],
    nondet_prob: float = 0.2,
) -> SynchronousSystem:
    return sized_system(rng, name, rng.randint(1, max_states), in_syms, out_syms, nondet_prob)


def sized_system(
    rng: random.Random,
    name: str,
    n: int,
    in_syms: tuple[str, ...],
    out_syms: tuple[str, ...],
    nondet_prob: float = 0.2,
) -> SynchronousSystem:
    states = tuple(f"s{i}" for i in range(n))
    transitions = []
    for q in states:
        for sym in in_syms:
            targets = {rng.choice(states)}
            while rng.random() < nondet_prob:
                targets.add(rng.choice(states))
            for t in sorted(targets):
                transitions.append((q, sym, t))
    out_label = {q: rng.choice(out_syms) for q in states}
    return SynchronousSystem(
        name=name,
        inputs=Alphabet(in_syms),
        outputs=Alphabet(out_syms),
        states=states,
        transitions=tuple(transitions),
        out_label=out_label,
        initial="s0",
    )


def inflated_system(
    rng: random.Random,
    name: str,
    n: int,
    classes: int,
    in_syms: tuple[str, ...],
    out_syms: tuple[str, ...],
    nondet_prob: float = 0.2,
) -> SynchronousSystem:
    """A random system of ``classes`` states blown up to n states.

    State i copies class i % classes: its output, and on each input one
    random state of every class the class moves to, so states of one
    class are bisimilar.  Orientations then hold at some state pairs and
    fail at others.
    """
    classes = min(classes, n)
    base = sized_system(rng, "base", classes, in_syms, out_syms, nondet_prob)
    members = [list(range(c, n, classes)) for c in range(classes)]
    states = tuple(f"s{i}" for i in range(n))
    transitions = []
    for i in range(n):
        for a, moves in enumerate(base.succ[i % classes]):
            targets = sorted({rng.choice(members[c]) for c in moves})
            transitions += [(states[i], in_syms[a], states[t]) for t in targets]
    return SynchronousSystem(
        name=name,
        inputs=Alphabet(in_syms),
        outputs=Alphabet(out_syms),
        states=states,
        transitions=tuple(transitions),
        out_label={q: base.out_label[f"s{i % classes}"] for i, q in enumerate(states)},
        initial="s0",
    )


def chain_sender(
    depth: int,
    feed_syms: tuple[str, ...],
    in_syms: tuple[str, ...] = ("a", "b"),
) -> SynchronousSystem:
    """Deterministic sender with one guaranteed effect at a chosen depth.

    Branches once at the root, runs two silent chains of equal outputs,
    then parks in absorbing states with distinct outputs, producing the
    effect (feed_syms[1], feed_syms[2]) at index ``depth`` forever.
    """
    assert len(feed_syms) >= 3
    silent, x1, x2 = feed_syms[0], feed_syms[1], feed_syms[2]
    states = ["r"]
    out_label = {"r": silent}
    transitions = []
    prev = ("r", "r")
    for level in range(depth):
        left, right = f"l{level}", f"m{level}"
        states += [left, right]
        out_label[left] = silent
        out_label[right] = silent
        if level == 0:
            transitions += [("r", in_syms[0], left), ("r", in_syms[1], right)]
        else:
            for sym in in_syms:
                transitions += [(prev[0], sym, left), (prev[1], sym, right)]
        prev = (left, right)
    states += ["endl", "endr"]
    out_label["endl"] = x1
    out_label["endr"] = x2
    if depth == 0:
        transitions += [("r", in_syms[0], "endl"), ("r", in_syms[1], "endr")]
    else:
        for sym in in_syms:
            transitions += [(prev[0], sym, "endl"), (prev[1], sym, "endr")]
    for sym in in_syms:
        transitions += [("endl", sym, "endl"), ("endr", sym, "endr")]
    return SynchronousSystem(
        name=f"chain{depth}",
        inputs=Alphabet(in_syms),
        outputs=Alphabet(feed_syms),
        states=tuple(states),
        transitions=tuple(transitions),
        out_label=out_label,
        initial="r",
    )


def perfbench_module(name: str):
    """``perfbench/<name>.py`` of this checkout, so tests build what the benchmark runs.

    The module is registered as ``perfbench_<name>`` before it runs, as
    ``dataclasses`` needs, and loaded once.  While it runs, ``perfbench/``
    leads ``sys.path``, so its imports of its siblings (``import gen``)
    resolve as they do when the benchmark runs it.
    """
    key = f"perfbench_{name}"
    if key in _sys.modules:
        return _sys.modules[key]
    folder = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location(key, folder / f"{name}.py")
    module = _sys.modules[key] = importlib.util.module_from_spec(spec)
    _sys.path.insert(0, str(folder))
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del _sys.modules[key]
        raise
    finally:
        _sys.path.remove(str(folder))
    return module


def stepwise_canonical(prefix: tuple, cycle: tuple) -> tuple[tuple, tuple]:
    """Lasso canonical form absorbing one prefix symbol per step."""

    def minimal(word):
        n = len(word)
        return next(word[:d] for d in range(1, n + 1) if n % d == 0 and word == word[:d] * (n // d))

    cycle = minimal(tuple(cycle))
    prefix = tuple(prefix)
    while prefix and prefix[-1] == cycle[-1]:
        prefix = prefix[:-1]
        cycle = (cycle[-1],) + cycle[:-1]
    return prefix, minimal(cycle)


def window(seq, n: int) -> tuple:
    """The first ``n`` symbols of a lasso sequence, read by index."""
    return tuple(seq[i] for i in range(n))


# The original level-set walks: a frontier is a frozenset of state-id
# pairs and each pair's successor tuple is computed once.


def _frontier_image(step):
    targets: dict = {}

    def image(frontier: frozenset) -> frozenset:
        for node in frontier.difference(targets):
            targets[node] = tuple(dict.fromkeys(step(node)))
        return frozenset(itertools.chain.from_iterable(map(targets.__getitem__, frontier)))

    return image


def _lasso_walk(frontier: frozenset, image) -> tuple[list[frozenset], int]:
    seen: dict[frozenset, int] = {}
    while frontier not in seen:
        seen[frontier] = len(seen)
        frontier = image(frontier)
    return list(seen), seen[frontier]


def _shared_step(succ_a, succ_b, inputs):
    return lambda node: [
        (p, q) for a in range(inputs) for p in succ_a[node[0]][a] for q in succ_b[node[1]][a]
    ]


def orientations(moves_a, moves_b, cls_a, cls_b, a1: int, a2: int) -> list[tuple[int, int]]:
    """Orientations (ae, af) of the input pair (a1, a2) that separate, one pair at a time.

    ``moves_a`` and ``moves_b`` are the successor ids per input id of one
    state on each side, ``cls_a`` and ``cls_b`` the final bisimulation
    blocks of each side's state ids.  Input ae beats af when some
    ae-successor on the left is non-bisimilar to every af-successor on
    the right.
    """
    held = []
    for (ae, af) in ((a1, a2), (a2, a1)):
        blockers = {cls_b[y] for y in moves_b[af]}
        if any(cls_a[x] not in blockers for x in moves_a[ae]):
            held.append((ae, af))
    return held


def _naive_doe_frontiers(sys, q):
    cls = BisimOracle(sys).cls
    succ, i = sys.succ, sys.index[q]
    pairs = [
        (a1, a2)
        for (a1, a2) in itertools.combinations(range(len(sys.inputs)), 2)
        if orientations(succ[i], succ[i], cls, cls, a1, a2)
    ]
    if not pairs:
        raise NotReactive(f"state {q} of {sys.name} has no separating pair")
    start = frozenset((p, r) for (a1, a2) in pairs for p in succ[i][a1] for r in succ[i][a2])
    return _lasso_walk(start, _frontier_image(_shared_step(succ, succ, len(sys.inputs))))


def naive_doe_levels(sys, q):
    """DOE level sets walked as frozensets of pairs: each level's output id pairs, loop index."""
    levels, loop = _naive_doe_frontiers(sys, q)
    out = sys.out_ids
    return [frozenset((out[p], out[r]) for (p, r) in level) for level in levels], loop


def naive_doe_absorbed_at(sys, q, bisimilar=None):
    """The first level of q's DOE frozenset walk holding a bisimilar pair, or None if none does.

    ``bisimilar`` is sys's :func:`naive_bisimilar_pairs`, computed when
    not given; a state with no separating pair raises NotReactive.
    """
    levels, _ = _naive_doe_frontiers(sys, q)
    bisimilar, names = bisimilar or naive_bisimilar_pairs(sys), sys.states
    return next(
        (n for n, level in enumerate(levels) if any((names[p], names[r]) in bisimilar for p, r in level)),
        None,
    )


def naive_ssp_seq(sys_a, q1, sys_b, q2):
    """SSPseq levels of a cross pair walked as frozensets of pairs, with per-pair SSP.

    Returns each level's set of symbol pairs and the loop index.
    """
    cls, n = BisimOracle(disjoint_union(sys_a, sys_b)[0]).cls, len(sys_a.states)
    cls_a, cls_b = cls[:n], cls[n:]
    succ_a, (succ_b, _) = sys_a.succ, align(sys_a, sys_b)
    symbols = sys_a.inputs.symbols
    candidates = list(itertools.combinations(range(len(symbols)), 2))
    ssp: dict = {}
    held: dict = {}

    def ssp_of(node):
        if node not in ssp:
            moves_a, moves_b = succ_a[node[0]], succ_b[node[1]]
            found = {
                (a1, a2): orientations(moves_a, moves_b, cls_a, cls_b, a1, a2)
                for (a1, a2) in candidates
            }
            ssp[node] = frozenset(c for c, h in found.items() if h)
            held[node] = [o for h in found.values() for o in h]
        return ssp[node]

    def step(node):
        ssp_of(node)
        return [
            (p, r)
            for (ae, af) in held[node]
            for p in succ_a[node[0]][ae]
            for r in succ_b[node[1]][af]
        ]

    start = (sys_a.index[q1], sys_b.index[q2])
    levels, loop = _lasso_walk(frozenset({start}), _frontier_image(step))
    values = []
    for level in levels:
        value = frozenset(candidates).intersection(*map(ssp_of, level))
        values.append(frozenset((symbols[a1], symbols[a2]) for (a1, a2) in value))
    return values, loop


def _naive_lemma(sys_f, q_f, sys_g, q_g):
    """The sender's DOE, the fit window and whether the lemma holds at i = 0, 1, ...

    The receiver pairs are walked as frozensets: both copies first
    consume the sender's output at q_f, then at step i the output pairs
    of sender level i-1.  The lemma holds at i when the effect d[i] is a
    strongly separating pair of the receiver at level i+1 and consuming
    it gives every receiver pair differing outputs.
    """
    fed = feed_of(sys_f, sys_g)
    levels, loop = _naive_doe_frontiers(sys_f, q_f)
    out_f = sys_f.out_ids
    d = _effects(sys_f, [{(out_f[p], out_f[r]) for (p, r) in level} for level in levels], loop)
    s = ssp_seq(sys_g, q_g)
    window = max(len(d.prefix), len(s.prefix) + 1) + math.lcm(len(d.cycle), len(s.cycle))

    def holds():
        succ_g, out_g = sys_g.succ, sys_g.out_ids
        moves = succ_g[sys_g.index[q_g]][fed[sys_f.index[q_f]]]
        pairs = frozenset(itertools.product(moves, moves))
        period = len(levels) - loop
        for i in itertools.count():
            if i:
                j = i - 1
                level = levels[j if j < len(levels) else loop + (j - loop) % period]
                feeds = {(fed[r1], fed[r2]) for (r1, r2) in level}
                pairs = frozenset(
                    (t1, t2)
                    for (g1, g2) in pairs
                    for (y1, y2) in feeds
                    for t1 in succ_g[g1][y1]
                    for t2 in succ_g[g2][y2]
                )
            effect = d[i]
            if effect is STAR or sys_g.inputs.canonical_pair(*effect) not in s[i + 1]:
                yield False
                continue
            e1, e2 = map(sys_g.inputs.index, effect)
            yield all(
                out_g[t1] != out_g[t2]
                for (g1, g2) in pairs
                for t1 in succ_g[g1][e1]
                for t2 in succ_g[g2][e2]
            )

    return d, window, holds()


def naive_lemma_check(sys_f, q_f, sys_g, q_g):
    """Least lemma witness index (or None) with the receiver pairs walked as frozensets."""
    feed_of(sys_f, sys_g)
    if not reactive(sys_f, q_f) or not reactive(sys_g, q_g):
        return None
    _, window, holds = _naive_lemma(sys_f, q_f, sys_g, q_g)
    return next((i for i, held in zip(range(window), holds) if held), None)


def naive_doe_compose(sys_f, q_f, sys_g, q_g, t):
    """The composite DOE bound at index t, stepping the composite frontier t+1 times.

    Silent unless the lemma holds at t; otherwise t+1 silent ticks, then
    the merged DOEs of the receivers reached, each pair oriented as the
    sender's effect (x1, x2) at t, whose x1 feeds the first copy.
    """
    d, _, holds = _naive_lemma(sys_f, q_f, sys_g, q_g)
    if not next(itertools.islice(holds, t, None)):
        return STAR_FOREVER
    fed = feed_of(sys_f, sys_g)
    succ_f, succ_g = sys_f.succ, sys_g.succ
    frontier = {(sys_f.index[q_f], sys_g.index[q_g])}
    for _ in range(t + 1):
        frontier = {
            (f2, g2)
            for (f, g) in frontier
            for a in range(len(sys_f.inputs))
            for f2 in succ_f[f][a]
            for g2 in succ_g[g][fed[f]]
        }
    receivers = sorted({sys_g.states[g] for (_, g) in frontier})
    effects = [doe(sys_g, g) for g in receivers]
    x1, x2 = d[t]
    if sys_g.inputs.index(x1) > sys_g.inputs.index(x2):
        effects = [
            EffectSequence(*(tuple(e and (e[1], e[0]) for e in part) for part in parts))
            for parts in ((e.prefix, e.cycle) for e in effects)
        ]
    return star_prepend(t + 1, merge_sequences(effects))


# The original small-step evaluator of `.psy` programs.  A configuration
# is a (store, pending input, program) triple; ``machine`` is only read
# for its declarations (alphabets, component types, variables).

NAIVE_ROUND_STEP_BUDGET = 100_000


class StuckConfiguration(SyncReactError):
    """No reduction rule applies: only an ill-typed program reaches one."""


NaiveConfig = namedtuple("NaiveConfig", "store pending prog")
NaiveLeaf = namedtuple("NaiveLeaf", "config")
NaiveNode = namedtuple("NaiveNode", "out branches")


def naive_map_leaves(wrap, tree):
    """Apply a program rewriting to every leaf of a partial tree."""
    if isinstance(tree, NaiveLeaf):
        cfg = tree.config
        return NaiveLeaf(NaiveConfig(cfg.store, cfg.pending, wrap(cfg.prog)))
    return NaiveNode(
        tree.out, tuple((a, naive_map_leaves(wrap, t)) for (a, t) in tree.branches)
    )


def _naive_lookup(store, name):
    for (n, v) in store:
        if n == name:
            return v
    raise StuckConfiguration(f"variable {name!r} missing from store")


def _naive_literal(value):
    return BoolLit(value) if isinstance(value, bool) else IntLit(value)


def _naive_check_assignment(machine, name, value):
    decl = {v.name: v for v in machine.variables}.get(name)
    if decl is None:
        raise StuckConfiguration(f"assignment to undeclared variable {name}")
    if decl.base == "int" and not isinstance(value, bool):
        if decl.low is None:
            raise NonFiniteIntRange(f"integer variable {name} has no declared range")
        if not decl.low <= value <= decl.high:
            raise IntRangeExceeded(
                f"assignment {name} := {value} leaves range"
                f" [{decl.low}..{decl.high}]"
            )


def _naive_input_component(machine, pending, index):
    text = symbol_components(pending)[index]
    return text == "tt" if machine.in_types[index] == "bool" else int(text)


def _naive_emit_symbol(machine, args):
    def text(value):
        if isinstance(value, bool):
            return "tt" if value else "ff"
        return str(value)

    symbol = ",".join(text(a.value) for a in args)
    if symbol not in machine.outputs:
        raise BuildError(f"program emits undeclared output symbol {symbol!r}")
    return symbol


def is_value(node) -> bool:
    """Whether a term is a literal, a value of the reduction relation."""
    return isinstance(node, (BoolLit, IntLit))


def naive_step(machine, config):
    """One application of the reduction relation."""
    st, pend, prog = config.store, config.pending, config.prog

    def leaf(new_store, new_prog):
        return NaiveLeaf(NaiveConfig(new_store, pend, new_prog))

    def sub(p):
        return naive_step(machine, NaiveConfig(st, pend, p))

    if isinstance(prog, Seq):
        if isinstance(prog.first, Skip):
            return leaf(st, prog.second)
        tail = prog.second
        return naive_map_leaves(lambda p, tail=tail: Seq(p, tail), sub(prog.first))
    if isinstance(prog, While):
        unfolded = If(prog.cond, Seq(prog.body, prog), Skip())
        return leaf(st, unfolded)
    if isinstance(prog, If):
        if isinstance(prog.cond, BoolLit):
            return leaf(st, prog.then_branch if prog.cond.value else prog.else_branch)
        t, e = prog.then_branch, prog.else_branch
        return naive_map_leaves(lambda p, t=t, e=e: If(p, t, e), sub(prog.cond))
    if isinstance(prog, Assign):
        if is_value(prog.value):
            name = prog.target.name
            value = prog.value.value
            _naive_check_assignment(machine, name, value)
            updated = tuple((n, value if n == name else v) for (n, v) in st)
            return leaf(updated, Skip())
        target = prog.target
        return naive_map_leaves(
            lambda p, target=target: Assign(target, p), sub(prog.value)
        )
    if isinstance(prog, Deref):
        if isinstance(prog.target, VarRef):
            return leaf(st, _naive_literal(_naive_lookup(st, prog.target.name)))
        return naive_map_leaves(lambda p: Deref(p), sub(prog.target))
    if isinstance(prog, Get):
        value = _naive_input_component(machine, pend, prog.index)
        return leaf(st, _naive_literal(value))
    if isinstance(prog, Dec):
        if isinstance(prog.inner, IntLit):
            return leaf(st, IntLit(prog.inner.value - 1))
        return naive_map_leaves(lambda p: Dec(p), sub(prog.inner))
    if isinstance(prog, NotZero):
        if isinstance(prog.inner, IntLit):
            return leaf(st, BoolLit(prog.inner.value != 0))
        return naive_map_leaves(lambda p: NotZero(p), sub(prog.inner))
    if isinstance(prog, Conj):
        if isinstance(prog.left, BoolLit) and isinstance(prog.right, BoolLit):
            return leaf(st, BoolLit(prog.left.value and prog.right.value))
        if isinstance(prog.left, BoolLit):
            left = prog.left
            return naive_map_leaves(lambda p, left=left: Conj(left, p), sub(prog.right))
        right = prog.right
        return naive_map_leaves(lambda p, right=right: Conj(p, right), sub(prog.left))
    if isinstance(prog, Tick):
        for i, arg in enumerate(prog.args):
            if not is_value(arg):
                before = prog.args[:i]
                after = prog.args[i + 1 :]
                return naive_map_leaves(
                    lambda p, before=before, after=after: Tick(before + (p,) + after),
                    sub(arg),
                )
        out = _naive_emit_symbol(machine, prog.args)
        branches = tuple(
            (symbol, NaiveLeaf(NaiveConfig(st, symbol, Skip())))
            for symbol in machine.inputs
        )
        return NaiveNode(out, branches)
    raise StuckConfiguration(f"no rule applies to {unparse(prog)!r}")


def naive_run_round(machine, config, budget=None):
    """Reduce until a tick fires: (output, {input: config}); None on termination."""
    if budget is None:
        budget = NAIVE_ROUND_STEP_BUDGET
    for _ in range(budget):
        if isinstance(config.prog, Skip):
            return None
        tree = naive_step(machine, config)
        if isinstance(tree, NaiveLeaf):
            config = tree.config
            continue
        return tree.out, {symbol: child.config for (symbol, child) in tree.branches}
    raise RoundDivergence(f"no tick after {budget} reduction steps")


def _naive_reads(expr):
    if isinstance(expr, Deref):
        if isinstance(expr.target, VarRef):
            return frozenset({expr.target.name})
        return _naive_reads(expr.target)
    if isinstance(expr, (Dec, NotZero)):
        return _naive_reads(expr.inner)
    if isinstance(expr, Conj):
        return _naive_reads(expr.left) | _naive_reads(expr.right)
    return frozenset()


def naive_live_in(prog, live_out):
    """Backward liveness, recursing down every subterm."""
    if isinstance(prog, Skip):
        return live_out
    if isinstance(prog, Assign):
        if isinstance(prog.target, VarRef):
            return (live_out - {prog.target.name}) | _naive_reads(prog.value)
        return live_out | _naive_reads(prog.value)
    if isinstance(prog, Seq):
        return naive_live_in(prog.first, naive_live_in(prog.second, live_out))
    if isinstance(prog, If):
        return (
            _naive_reads(prog.cond)
            | naive_live_in(prog.then_branch, live_out)
            | naive_live_in(prog.else_branch, live_out)
        )
    if isinstance(prog, While):
        live = live_out | _naive_reads(prog.cond)
        while True:
            refined = live | naive_live_in(prog.body, live)
            if refined == live:
                return live
            live = refined
    if isinstance(prog, Tick):
        out = live_out
        for arg in prog.args:
            out |= _naive_reads(arg)
        return out
    return live_out | _naive_reads(prog)


def naive_typecheck(node, env, in_types, out_types):
    """The typing judgment by structural recursion: a type string, or PsyTypeError.

    Subterms are typed left to right and each rule checks its premises
    in that order, so the first violation met names its rule.
    """

    def check(n):
        if isinstance(n, Skip):
            return "comm"
        if isinstance(n, VarRef):
            if n.name not in env:
                raise PsyTypeError(f"Var: variable {n.name!r} is not declared")
            return f"var({env[n.name]})"
        if isinstance(n, BoolLit):
            return "exp(bool)"
        if isinstance(n, IntLit):
            return "exp(int)"
        if isinstance(n, Deref):
            target = check(n.target)
            if not target.startswith("var("):
                raise PsyTypeError(f"Deref: !{naive_unparse(n.target)} needs a variable")
            return "exp" + target[3:]
        if isinstance(n, Assign):
            target = check(n.target)
            if not target.startswith("var("):
                raise PsyTypeError(f"Assign: target {naive_unparse(n.target)} is not a variable")
            value = check(n.value)
            if value != "exp" + target[3:]:
                raise PsyTypeError(
                    f"Assign: {naive_unparse(n)} assigns {value} to {target}"
                )
            return "comm"
        if isinstance(n, Seq):
            first = check(n.first)
            if first != "comm":
                raise PsyTypeError(f"Seq: left of ';' has type {first}, not comm")
            second = check(n.second)
            if second != "comm":
                raise PsyTypeError(f"Seq: right of ';' has type {second}, not comm")
            return "comm"
        if isinstance(n, (If, While)):
            rule = type(n).__name__
            cond = check(n.cond)
            if cond != "exp(bool)":
                raise PsyTypeError(f"{rule}: condition has type {cond}, not exp(bool)")
            if isinstance(n, While):
                body = check(n.body)
                if body != "comm":
                    raise PsyTypeError(f"While: body has type {body}, not comm")
                return "comm"
            then_ty, else_ty = check(n.then_branch), check(n.else_branch)
            if then_ty != else_ty:
                raise PsyTypeError(f"If: branches have different types {then_ty} and {else_ty}")
            return then_ty
        if isinstance(n, Tick):
            if len(n.args) != len(out_types):
                raise PsyTypeError(
                    f"Tick: {len(n.args)} arguments for {len(out_types)} output components"
                )
            for i, arg in enumerate(n.args):
                ty = check(arg)
                if ty != f"exp({out_types[i]})":
                    raise PsyTypeError(f"Tick: argument {i} has type {ty}, not exp({out_types[i]})")
            return "comm"
        if isinstance(n, Get):
            if not 0 <= n.index < len(in_types):
                raise PsyTypeError(
                    f"Get: index {n.index} out of range for {len(in_types)} input components"
                )
            return f"exp({in_types[n.index]})"
        if isinstance(n, (Dec, NotZero)):
            rule = type(n).__name__
            inner = check(n.inner)
            if inner != "exp(int)":
                raise PsyTypeError(f"{rule}: operand has type {inner}, not exp(int)")
            return "exp(int)" if isinstance(n, Dec) else "exp(bool)"
        if isinstance(n, Conj):
            for side, sub in (("left", n.left), ("right", n.right)):
                ty = check(sub)
                if ty != "exp(bool)":
                    raise PsyTypeError(f"Conj: {side} operand has type {ty}, not exp(bool)")
            return "exp(bool)"
        raise PsyTypeError(f"unknown syntax node {n!r}")

    return check(node)


def naive_unparse(node):
    """Concrete text of a term by structural recursion, every operator parenthesized."""
    if isinstance(node, Skip):
        return "skip"
    if isinstance(node, VarRef):
        return node.name
    if isinstance(node, BoolLit):
        return "tt" if node.value else "ff"
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, Get):
        return f"get {node.index}" if node.index else "get"
    if isinstance(node, Deref):
        return "!" + naive_unparse(node.target)
    if isinstance(node, Assign):
        return f"{naive_unparse(node.target)} := {naive_unparse(node.value)}"
    if isinstance(node, Seq):
        return f"{naive_unparse(node.first)}; {naive_unparse(node.second)}"
    if isinstance(node, If):
        return (
            f"if {naive_unparse(node.cond)} then {naive_unparse(node.then_branch)}"
            f" else {naive_unparse(node.else_branch)}"
        )
    if isinstance(node, While):
        return f"while {naive_unparse(node.cond)} do {naive_unparse(node.body)} done"
    if isinstance(node, Tick):
        return "tick(" + ", ".join(map(naive_unparse, node.args)) + ")"
    if isinstance(node, Dec):
        return f"({naive_unparse(node.inner)} - 1)"
    if isinstance(node, NotZero):
        return f"({naive_unparse(node.inner)} != 0)"
    if isinstance(node, Conj):
        return f"({naive_unparse(node.left)} && {naive_unparse(node.right)})"
    raise TypeError(f"not an AST node: {node!r}")


def naive_term_equal(a, b):
    """Structural equality of two terms: same class, equal fields, recursing into subterms."""
    if a.__class__ is not b.__class__:
        return False
    for name in a.__slots__:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, Term):
            if not naive_term_equal(x, y):
                return False
        elif isinstance(x, tuple):
            if len(x) != len(y) or not all(map(naive_term_equal, x, y)):
                return False
        elif x != y:
            return False
    return True


def naive_build(machine, program, max_states, name="program"):
    """The reachable system of a program, round by round on the naive evaluator.

    States are numbered in breadth-first order of their first round and
    interned by output, continuation and live store, as the builder's
    contract says.
    """
    for v in machine.variables:
        if v.base == "int" and v.low is None:
            raise NonFiniteIntRange(
                f"integer variable {v.name} needs a declared range [lo..hi]"
            )
    store = []
    for v in machine.variables:
        if v.base == "int" and not v.low <= 0 <= v.high:
            raise BuildError(f"default 0 outside declared range of variable {v.name}")
        store.append((v.name, False if v.base == "bool" else 0))
    config = NaiveConfig(tuple(store), machine.inputs.symbols[0], program)
    first = naive_run_round(machine, config)
    if first is None:
        raise BuildError("program terminates before its first tick")

    def key(out, branches):
        cfg = branches[machine.inputs.symbols[0]]
        live = naive_live_in(cfg.prog, frozenset())
        return (out, tuple((n, v) for (n, v) in cfg.store if n in live), cfg.prog)

    if max_states < 1:
        raise StateBudgetExceeded(max_states)
    names = {key(*first): "q0"}
    info = {"q0": first}
    order = ["q0"]
    transitions = []
    for state in order:  # grows while it is walked: breadth-first
        _, branches = info[state]
        for symbol in machine.inputs:
            result = naive_run_round(machine, branches[symbol])
            if result is None:
                raise BuildError("program terminates; cannot build a complete system")
            k = key(*result)
            if k not in names:
                if len(names) >= max_states:
                    raise StateBudgetExceeded(max_states)
                names[k] = f"q{len(names)}"
                info[names[k]] = result
                order.append(names[k])
            transitions.append((state, symbol, names[k]))
    return SynchronousSystem(
        name=name,
        inputs=machine.inputs,
        outputs=machine.outputs,
        states=tuple(order),
        transitions=tuple(transitions),
        out_label={state: info[state][0] for state in order},
        initial="q0",
    )
