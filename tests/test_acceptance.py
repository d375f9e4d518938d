"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Every check is exact symbolic equality; randomized sweeps run under
fixed seeds so the suite is reproducible byte for byte.
"""

import itertools
import random

import pytest

from syncreact import (
    Alphabet,
    BisimOracle,
    EffectSequence,
    STAR,
    STAR_FOREVER,
    SynchronousSystem,
    bisim_quotient,
    det_reaction_time,
    diff,
    doe,
    doe_compose,
    lemma_check,
    merge_sequences,
    non_bisimilar,
    obs_leq,
    output_language,
    separating_pairs,
    separators,
    seq_compose,
    par_compose,
    sls,
    ssp,
    strongly_separable,
    validate,
)
from syncreact.errors import PreconditionFailed
from syncreact.psyc import build_lts, load as load_program
from syncreact.witness import depth as witness_depth

from .conftest import ALL_SYSTEM_FIXTURES, FIXTURES, load_fixture, on_union
from .oracles import (
    brute_separators,
    chain_sender,
    guaranteed_diff_index,
    naive_approximants,
    naive_bisimilar_pairs,
    naive_separation_depth,
    random_system,
)


def report(number: int, summary: str) -> None:
    print(f"criterion {number}: PASS  {summary}")


def test_criterion_1_program1_end_to_end():
    """Build the first program from source and reproduce its analysis."""
    program = load_program(FIXTURES / "program1.psy")
    assert str(program.typecheck()) == "comm"
    sys = build_lts(program.machine, program.body, 100, name="prog1")
    p0 = sys.initial
    (p1,) = sys.successors(p0, "tt")

    sep = separating_pairs(sys, p0)
    assert sep.pairs == (("tt", "ff"),)
    assert sep.deterministic_subset == (("tt", "ff"),)

    found = separators(sys, p0, p1, 3)
    assert found == [(("ff",), True)]

    table = diff(sys, p0, p1, ["ff", "ff"])
    assert table[0] == {STAR}
    assert table[1] == {("ff", "tt")}

    verdict = strongly_separable(sys, p1, p0)
    assert not verdict.separable
    assert verdict.cycle is not None
    assert all(sym == "tt" for (_, sym) in verdict.cycle)

    assert det_reaction_time(sys, p0).time is None
    assert doe(sys, p0) == STAR_FOREVER
    report(1, "program 1 from source: lone separator ff, effect at 1, no bound")


def test_criterion_2_program2_n4_analysis():
    """The four-count system: a ladder of separators, one per count.

    p2_n4.sls is the companion system of the second demo program; the
    program source itself compiles to a system whose tracked runs
    reconverge early (see test_psyc.TestProgram2Compiled), so the
    ladder lives on the companion fixture.  Effect pairs are compared
    as unordered sets: the sides alternate between ladder rows on any
    system with this separator structure.
    """
    sys = load_fixture("p2_n4.sls")
    n = 4
    q0, q1 = "q0", "q1"

    found = separators(sys, q0, q1, n)
    assert all(det for (_, det) in found)
    words = {w for (w, _) in found}
    expected = {("tt",) * k + ("ff",) for k in range(0, n)}
    expected |= {("tt",) * n}
    assert words == expected

    for (word, _) in found:
        k = len(word)
        table = diff(sys, q0, q1, word)
        for j in range(k):
            assert table[j] == {STAR}
        assert len(table[k]) == 1
        (effect,) = table[k]
        assert set(effect) == {"ff", "tt"}
        if word[-1] == "ff" and k < n:
            # Rows whose runs reconverge: the tail stays silent.
            extended = diff(sys, q0, q1, list(word) + ["tt", "ff"])
            assert extended[k + 1] == {STAR}
            assert extended[k + 2] == {STAR}

    result = det_reaction_time(sys, q0)
    assert result.time == 4
    assert result.witness[:3] == ("tt", "tt", "tt") and len(result.witness) == 4

    assert doe(sys, q0) == STAR_FOREVER

    # End-to-end on the printed source: the claims the compiled program
    # itself realizes.
    program = load_program(FIXTURES / "program2.psy")
    built = build_lts(program.machine, program.body, 100, name="prog2")
    assert separating_pairs(built, built.initial).pairs == (("tt", "ff"),)
    assert doe(built, built.initial) == STAR_FOREVER
    report(2, "program 2 (N=4) separator table, reaction time 4, silent DOE")


def test_criterion_3_noncompositionality_counterexample():
    sys_f = load_fixture("disap_f.sls")
    sys_g = load_fixture("disap_g.sls")
    assert separating_pairs(sys_f, "p0").reactive
    assert separating_pairs(sys_g, "q1").reactive
    # Recorded fixture properties: the first machine's effect is (0,1),
    # that pair does not separate the receiving state, and the settled
    # outputs restrict the receiver to the constant input 0.
    assert doe(sys_f, "p0")[0] == ("0", "1")
    assert ("0", "1") not in separating_pairs(sys_g, "q1").pairs
    assert sys_f.out("p3") == sys_f.out("p4") == "0"

    composed = seq_compose(sys_f, sys_g).system
    assert not separating_pairs(composed, composed.initial).reactive
    partition, _ = bisim_quotient(composed)
    assert len(partition.classes) == 1
    const = SynchronousSystem(
        name="const01",
        inputs=composed.inputs,
        outputs=composed.outputs,
        states=("k",),
        transitions=tuple(("k", a, "k") for a in composed.inputs),
        out_label={"k": composed.out(composed.initial)},
        initial="k",
    )
    assert on_union(non_bisimilar, composed, composed.initial, const, "k") is None
    report(3, "reactive parts compose to a one-state constant machine")


def test_criterion_4_union_counterexample():
    left = load_fixture("union1.sls")
    right = load_fixture("union2.sls")
    union = load_fixture("union.sls")
    assert ("A", "B") in separating_pairs(left, "u0").pairs
    assert ("A", "B") in separating_pairs(right, "v0").pairs
    assert ("A", "B") not in separating_pairs(union, "w0").pairs
    assert ("A", "B") not in on_union(ssp, left, "u0", right, "v0")
    report(4, "the separating pair of both components dies in their union")


def test_criterion_5_ssp_identity():
    checked = 0
    for name in ALL_SYSTEM_FIXTURES:
        sys = load_fixture(name)
        for q in sys.states:
            assert ssp(sys, q, q) == separating_pairs(sys, q).pairs
            checked += 1
    rng = random.Random(501)
    for i in range(200):
        sys = random_system(rng, f"r{i}", 6, ("a", "b", "c"), ("0", "1"))
        for q in sys.states:
            assert ssp(sys, q, q) == separating_pairs(sys, q).pairs
            checked += 1
    report(5, f"SSP(q, q) equals the separating pairs on {checked} states")


def composable_fixture_pairs():
    systems = [load_fixture(name) for name in ALL_SYSTEM_FIXTURES]
    for sys_f in systems:
        for sys_g in systems:
            if sys_f.outputs.same_symbols(sys_g.inputs):
                yield sys_f, sys_g


def test_criterion_6_lemma_soundness_sweep():
    fired = 0
    checked = 0
    for (sys_f, sys_g) in composable_fixture_pairs():
        for q_f in sys_f.states:
            for q_g in sys_g.states:
                checked += 1
                verdict = lemma_check(sys_f, q_f, sys_g, q_g)
                if verdict.guaranteed:
                    fired += 1
                    composed = seq_compose(sys_f, sys_g, start=(q_f, q_g)).system
                    assert separating_pairs(composed, composed.initial).reactive, (
                        sys_f.name,
                        q_f,
                        sys_g.name,
                        q_g,
                    )
    rng = random.Random(601)
    while checked < 560:
        feed = ("x", "y", "z") if checked % 2 else ("x", "y")
        if checked % 5 == 0:
            sys_f = chain_sender(rng.randint(0, 3), ("x", "y", "z"))
            feed = ("x", "y", "z")
        else:
            sys_f = random_system(rng, "f", 6, ("a", "b"), feed)
        sys_g = random_system(rng, "g", 6, feed, ("0", "1", "2"))
        q_f = rng.choice(sys_f.states)
        q_g = rng.choice(sys_g.states)
        if not separating_pairs(sys_f, q_f).reactive:
            continue
        checked += 1
        verdict = lemma_check(sys_f, q_f, sys_g, q_g)
        if verdict.guaranteed:
            fired += 1
            composed = seq_compose(sys_f, sys_g, start=(q_f, q_g)).system
            assert separating_pairs(composed, composed.initial).reactive
    assert checked >= 500
    assert fired > 0
    report(6, f"{fired} positive verdicts on {checked} pairs, zero violations")


def test_criterion_6b_doe_compose_under_approximation_sweep():
    """doe_compose stays below the DOE of the built composite on every query it answers."""
    rng = random.Random(602)
    answered = merged = flipped = 0
    for draw in range(3750):
        feed = ("x", "y", "z") if draw % 2 else ("x", "y")
        if draw % 5 == 0:
            sys_f = chain_sender(rng.randint(0, 3), ("x", "y", "z"))
            feed = ("x", "y", "z")
        else:
            sys_f = random_system(rng, "f", 6, ("a", "b"), feed)
        # Every third receiver declares its inputs in reverse.
        receiver_inputs = feed[::-1] if draw % 3 == 0 else feed
        sys_g = random_system(rng, "g", 6, receiver_inputs, ("0", "1", "2"), 0.3)
        for q_f, q_g in itertools.product(sys_f.states[:2], sys_g.states[:2]):
            composite = None
            for t in range(4):
                try:
                    result = doe_compose(sys_f, q_f, sys_g, q_g, t)
                except PreconditionFailed:
                    continue
                if composite is None:
                    composed = seq_compose(sys_f, sys_g, start=(q_f, q_g)).system
                    composite = doe(composed, composed.initial)
                assert obs_leq(result, composite), (draw, q_f, q_g, t)
                answered += 1
                if result != STAR_FOREVER:
                    merged += 1
                    effect = doe(sys_f, q_f)[t]
                    flipped += sys_g.inputs.canonical_pair(*effect) != effect
    assert answered >= 2500 and merged and flipped
    report(
        "6b",
        f"{answered} doe-compose answers below the composite DOE,"
        f" {merged} not silent, {flipped} of them against input order",
    )


def test_criterion_7a_bisimulation_oracle_equivalence():
    rng = random.Random(701)
    systems = [
        random_system(rng, f"r{i}", 8, ("a", "b"), ("0", "1")) for i in range(200)
    ]
    systems += [
        random_system(rng, f"d{i}", 8, ("a", "b"), ("0", "1"), nondet_prob=0.0)
        for i in range(200)
    ]
    for sys in systems:
        naive = naive_bisimilar_pairs(sys)
        levels = naive_approximants(sys)
        oracle = BisimOracle(sys)
        for p in sys.states:
            for q in sys.states:
                witness = non_bisimilar(sys, p, q)
                assert (witness is None) == ((p, q) in naive)
                depth = naive_separation_depth(sys, p, q, levels)
                assert witness_depth(oracle.refinement, sys.index[p], sys.index[q]) == depth
                assert (None if witness is None else witness.depth) == depth
    report(
        7,
        "(a) witnesses and separation depths agree with the naive fixpoint"
        " and approximants on 200 nondeterministic and 200 deterministic systems",
    )


def test_criterion_7b_separator_oracle_equivalence():
    cases = [
        (load_fixture("p1.sls"), "p0", "p1"),
        (load_fixture("p2_n4.sls"), "q0", "q1"),
        (load_fixture("union.sls"), "w0", "x1"),
        (load_fixture("delay1.sls"), "s1", "s2"),
    ]
    rng = random.Random(702)
    for i in range(25):
        sys = random_system(rng, f"r{i}", 6, ("a", "b"), ("0", "1"))
        cases.append((sys, rng.choice(sys.states), rng.choice(sys.states)))
    for (sys, p, q) in cases:
        fast = separators(sys, p, q, 5)
        brute = brute_separators(sys, p, sys, q, 5)
        assert sorted(fast) == sorted(brute)
    report(7, "(b) separators match brute-force enumeration at length 5")


def test_criterion_7c_reaction_time_oracle_equivalence():
    finite_cases = [
        (load_fixture("toggle.sls"), "s0", "s1", "s0"),
        (load_fixture("p2_n4.sls"), "q0", "q1", "q0"),
        (load_fixture("delay1.sls"), "s0", "s1", "s2"),
    ]
    for (sys, q, succ1, succ2) in finite_cases:
        result = det_reaction_time(sys, q)
        assert result.time is not None
        depth = result.time + 2
        worst = -1
        for word in itertools.product(sys.inputs.symbols, repeat=depth):
            idx = guaranteed_diff_index(sys, succ1, sys, succ2, word)
            assert idx is not None and idx <= result.time
            worst = max(worst, idx)
        assert worst == result.time
        padding = (sys.inputs.symbols[0],) * 2
        assert (
            guaranteed_diff_index(sys, succ1, sys, succ2, result.witness + padding)
            == result.time
        )
    for (name, q, succ1, succ2) in [("p1.sls", "p0", "p1", "p0")]:
        sys = load_fixture(name)
        assert det_reaction_time(sys, q).time is None
        # Some depth-6 word shows no guaranteed difference at all.
        assert any(
            guaranteed_diff_index(sys, succ1, sys, succ2, word) is None
            for word in itertools.product(sys.inputs.symbols, repeat=6)
        )
    report(7, "(c) reaction times match brute-force guaranteed-diff search")


def random_lasso(rng: random.Random) -> EffectSequence:
    symbols = [STAR, ("0", "1"), ("1", "0"), ("ff", "tt"), ("tt", "ff")]
    prefix = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 4)))
    cycle = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 4)))
    return EffectSequence(prefix, cycle)


def test_criterion_8_algebraic_suites():
    rng = random.Random(801)
    for _ in range(1000):
        a, b, c = (random_lasso(rng) for _ in range(3))
        assert merge_sequences([a, a]) == a
        assert merge_sequences([a, b]) == merge_sequences([b, a])
        assert merge_sequences([merge_sequences([a, b]), c]) == merge_sequences(
            [a, merge_sequences([b, c])]
        )
    for _ in range(300):
        a = random_lasso(rng)
        assert obs_leq(a, a)
        # Weakening chain: erase one non-silent position at a time.
        current = a
        for _ in range(3):
            window = len(current.prefix) + len(current.cycle)
            positions = [i for i in range(window) if current[i] is not STAR]
            if not positions:
                break
            i = rng.choice(positions)
            weakened = EffectSequence(
                tuple(
                    STAR if j == i else current[j] for j in range(window)
                ),
                current.cycle,
            )
            assert obs_leq(weakened, current)
            assert weakened != current
            assert not obs_leq(current, weakened)
            assert obs_leq(weakened, a)
            current = weakened
        b = random_lasso(rng)
        if obs_leq(a, b) and obs_leq(b, a):
            assert a == b
    for name in ALL_SYSTEM_FIXTURES:
        sys = load_fixture(name)
        part1, quot1 = bisim_quotient(sys)
        part2, _ = bisim_quotient(quot1)
        assert len(part1.classes) == len(part2.classes)
    report(8, "merge laws, order laws, and quotient idempotence hold")


def test_criterion_9_format_round_trips(tmp_path):
    for name in ALL_SYSTEM_FIXTURES:
        path = FIXTURES / name
        text = path.read_text(encoding="utf-8")
        assert sls.dumps(sls.loads(text, source=name)) == text
    count = 0
    for (sys_f, sys_g) in composable_fixture_pairs():
        composed = seq_compose(sys_f, sys_g).system
        target = tmp_path / f"seq{count}.sls"
        sls.dump(composed, target)
        reloaded = sls.load(target)
        assert validate(reloaded) == []
        assert sls.dumps(reloaded) == sls.dumps(composed)
        count += 1
    for (name_f, name_g) in [("toggle.sls", "const.sls"), ("p1.sls", "delay1.sls")]:
        composed = par_compose(load_fixture(name_f), load_fixture(name_g)).system
        target = tmp_path / f"par{count}.sls"
        sls.dump(composed, target)
        reloaded = sls.load(target)
        assert validate(reloaded) == []
        assert sls.dumps(reloaded) == sls.dumps(composed)
        count += 1
    report(9, f"fixtures round-trip byte-exactly; {count} composites reload")
