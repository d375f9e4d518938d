"""Deterministic observable effects and the compositional machinery."""

import gc
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from syncreact import (
    EffectSequence,
    STAR,
    STAR_FOREVER,
    det_reaction_time,
    diff,
    disjoint_union,
    doe,
    doe_compose,
    lemma_check,
    non_bisimilar,
    obs_leq,
    reactive,
    separating_pairs,
    separators,
    seq_compose,
    sls,
    ssp,
    ssp_seq,
    strongly_separable,
)
from syncreact import abstraction, orbits, psyc
from syncreact.abstraction import _effects, doe_levels, ssp_levels
from syncreact.errors import NotReactive, PreconditionFailed, SignatureMismatch, UnknownState
from syncreact.frontier import PairRows, _frontier
from syncreact.lasso import PairSetSequence, star_prepend

from .conftest import FIXTURES, count_refinements, load_fixture, on_union
from .oracles import (
    brute_doe,
    brute_ssp_seq,
    chain_sender,
    inflated_system,
    naive_bisimilar_pairs,
    naive_doe_absorbed_at,
    naive_doe_compose,
    naive_doe_levels,
    naive_lemma_check,
    naive_ssp_seq,
    perfbench_module,
    random_system,
    sized_system,
    stepwise_canonical,
    window,
)

# Sizes on both sides of the 8-state table chunks and the 64-bit words.
WALK_SIZES = (1, 7, 8, 9, 63, 64, 65, 130)
OUTPUTS = ("0", "1", "2")
GEN = perfbench_module("gen")


def _walk_systems(n: int):
    """A random and a class-inflated system of n states, with 2-4 inputs."""
    rng = random.Random(n)
    inputs = ("a", "b", "c", "d")[: 2 + n % 3]
    yield sized_system(rng, f"rand{n}", n, inputs, OUTPUTS, 0.2)
    yield inflated_system(rng, f"infl{n}", n, 5, inputs, OUTPUTS, 0.3)


def _small_random_systems():
    """Deterministic and nondeterministic systems of 5 to 12 states, 2-3 inputs."""
    for seed in range(240):
        rng = random.Random(seed)
        n = rng.choice([5, 8, 12])
        inputs = ("a", "b", "c")[: rng.choice([2, 3])]
        yield sized_system(rng, f"s{seed}", n, inputs, OUTPUTS, rng.choice([0.0, 0.1, 0.3]))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotReactive:
        return NotReactive


def _lasso(levels: list, loop: int) -> tuple:
    """A level lasso in canonical form: equal infinite sequences give equal forms."""
    return stepwise_canonical(tuple(levels[:loop]), tuple(levels[loop:]))


# The frozenset walks' answers per (system text, state): pure, so the
# three split levels of TestOrbits share them.
_NAIVE_LEVELS: dict = {}


def _naive_levels(sys, q) -> tuple:
    """q's DOE (or NotReactive) and SSPseq levels by the frozenset walks, as canonical lassos."""
    key = (sls.dumps(sys), q)
    if key not in _NAIVE_LEVELS:
        doe_lasso = _outcome(naive_doe_levels, sys, q)
        _NAIVE_LEVELS[key] = (
            doe_lasso if doe_lasso is NotReactive else _lasso(*doe_lasso),
            _lasso(*naive_ssp_seq(sys, q, sys, q)),
        )
    return _NAIVE_LEVELS[key]


class TestDoe:
    def test_p1_silent(self, p1_sys):
        assert doe(p1_sys, "p0") == STAR_FOREVER
        assert doe(p1_sys, "p2") == STAR_FOREVER

    def test_p2_silent(self, p2_sys):
        assert doe(p2_sys, "q0") == STAR_FOREVER
        assert doe(p2_sys, "q3") == STAR_FOREVER

    def test_delay1_one_tick_delay_then_fixed_effect(self, delay1_sys):
        assert doe(delay1_sys, "s0") == EffectSequence((STAR,), (("1", "2"),))

    def test_nonreactive_state_is_silent(self, const_sys):
        assert doe(const_sys, "c0") == STAR_FOREVER

    def test_toggle_immediate_effect_then_silence(self, toggle_sys):
        # Successors (s1, s0) differ at once; afterwards the shared-input
        # frontier holds both diagonal pairs, so nothing stays forced.
        assert doe(toggle_sys, "s0") == EffectSequence((("1", "0"),), (STAR,))


class TestLevelOracles:
    @pytest.mark.parametrize("inputs, n", [(("a", "b"), 6), (("a", "b", "c"), 4)])
    def test_doe_and_ssp_seq_match_brute_force(self, inputs, n):
        rng = random.Random(43 + len(inputs))
        reactive_states = 0
        index = 0
        while reactive_states < 100:
            sys = random_system(rng, f"r{index}", 5, inputs, ("0", "1", "2"))
            index += 1
            for q in sys.states:
                assert window(doe(sys, q), n) == brute_doe(sys, q, n)
                if separating_pairs(sys, q).reactive:
                    assert window(ssp_seq(sys, q), n) == brute_ssp_seq(sys, q, n)
                    reactive_states += 1


class TestWalkOracles:
    """The bitset walks against the frozenset walks they replaced."""

    @pytest.mark.parametrize("n", WALK_SIZES)
    def test_levels_and_loop_match(self, n):
        for sys in _walk_systems(n):
            for q in sys.states[:3]:
                assert _outcome(doe_levels, sys, q) == _outcome(naive_doe_levels, sys, q)
                assert _outcome(ssp_levels, sys, q, q) == naive_ssp_seq(sys, q, sys, q)

    @pytest.mark.parametrize("n", WALK_SIZES)
    def test_cross_pairs_with_rotated_inputs_and_reversed_outputs(self, n):
        rng = random.Random(-n)
        for sys in _walk_systems(n):
            symbols = sys.inputs.symbols
            other = sized_system(
                rng, "other", max(1, n // 2), symbols[1:] + symbols[:1], OUTPUTS[::-1], 0.3
            )
            union, pa, pb = disjoint_union(sys, other)
            for q1 in sys.states[:2]:
                for q2 in other.states[:2]:
                    levels, loop = naive_ssp_seq(sys, q1, other, q2)
                    u1, u2 = pa + q1, pb + q2
                    assert ssp_levels(union, u1, u2) == (levels, loop)
                    assert ssp(union, u1, u2) == tuple(
                        sorted(levels[0], key=lambda pair: tuple(map(symbols.index, pair)))
                    )

    @pytest.mark.parametrize("n", [5, 70, 200])
    def test_p2_walks_of_one_bit_rows(self, n):
        """p2-N's frontiers are many one-bit rows; p2-200's DOE walk is joint past the split."""
        sys = _p2(n)
        levels = doe_levels(sys, "q0")
        assert levels == naive_doe_levels(sys, "q0")
        assert ssp_levels(sys, "q0", "q0") == naive_ssp_seq(sys, "q0", sys, "q0")
        if n == 200:  # its frontier at the split holds more than MAX_ORBITS pairs
            assert len(levels[0]) == 402 > abstraction.SPLIT_LEVEL

    def test_lemma_verdicts_match(self):
        rng = random.Random(7)
        feed = ("x", "y", "z")
        fired = 0
        for i in range(80):
            if i % 4:
                sender = random_system(rng, f"f{i}", 9, ("a", "b"), feed)
            else:
                sender = chain_sender(i % 7, feed)
            receiver = random_system(rng, f"g{i}", 9, feed, OUTPUTS, 0.3)
            for q_g in receiver.states[:2]:
                verdict = lemma_check(sender, sender.initial, receiver, q_g)
                expected = naive_lemma_check(sender, sender.initial, receiver, q_g)
                assert (verdict.index if verdict.guaranteed else None) == expected
                fired += verdict.guaranteed
        assert fired

    def test_doe_compose_matches_stepping_the_frontier(self):
        rng = random.Random(11)
        feed = ("x", "y", "z")
        compared = 0
        for i in range(40):
            if i % 2:
                sender = chain_sender(i % 5, feed)
            else:
                sender = random_system(rng, f"f{i}", 6, ("a", "b"), feed)
            receiver = random_system(rng, f"g{i}", 6, feed, OUTPUTS, 0.3)
            for t in range(61):
                try:
                    result = doe_compose(sender, sender.initial, receiver, receiver.initial, t)
                except PreconditionFailed:
                    continue
                assert result == naive_doe_compose(
                    sender, sender.initial, receiver, receiver.initial, t
                )
                compared += 1
        assert compared > 100


def _successor_table(rng: random.Random, n: int, inputs: int) -> list:
    """A complete, partly nondeterministic table of n states; some inputs repeat another's moves."""
    succ = []
    for _ in range(n):
        moves: list = []
        for a in range(inputs):
            if a and rng.random() < 0.3:
                moves.append(moves[rng.randrange(a)])
                continue
            targets = {rng.randrange(n)}
            while rng.random() < 0.3:
                targets.add(rng.randrange(n))
            moves.append(tuple(sorted(targets)))
        succ.append(tuple(moves))
    return succ


def _pair_set(frontier: tuple) -> frozenset:
    return frozenset(
        (p, q) for p, bits in frontier for q in range(bits.bit_length()) if bits >> q & 1
    )


class TestPairRows:
    def test_a_step_is_the_union_of_its_pairs_steps(self):
        """What the orbit split relies on, checked against a frozenset step and one-pair steps."""
        grouped = 0
        for seed in range(40):
            rng = random.Random(seed)
            inputs = rng.choice([2, 3])
            na, nb = rng.choice(WALK_SIZES), rng.choice(WALK_SIZES)
            succ_a, succ_b = _successor_table(rng, na, inputs), _successor_table(rng, nb, inputs)
            columns = []
            for _ in range(na):
                masks = [-1, rng.getrandbits(nb)]
                columns.append({
                    (rng.randrange(inputs), rng.randrange(inputs), rng.choice(masks))
                    for _ in range(rng.randint(1, 2 * inputs))
                })
            rows = PairRows(succ_a, succ_b, lambda p: columns[p])
            for _ in range(30):
                # Rows of one bit, two bits or any number of them.
                widths = [1, 1, min(nb, 2), rng.randint(1, nb)]
                frontier = _frontier(
                    (p, q)
                    for p in rng.sample(range(na), rng.randint(1, min(na, 5)))
                    for q in rng.sample(range(nb), rng.choice(widths))
                )
                reference = frozenset(
                    (p2, q2)
                    for p, q in _pair_set(frontier)
                    for ae, af, mask in columns[p]
                    if mask >> q & 1
                    for p2 in succ_a[p][ae]
                    for q2 in succ_b[q][af]
                )
                stepped = [rows.step(frontier) for _ in range(2)]
                union: dict = {}
                for p, q in _pair_set(frontier):
                    for t, bits in rows.step(((p, 1 << q),)):
                        union[t] = union.get(t, 0) | bits
                for step in stepped:
                    assert step == tuple(sorted(union.items()))
                    assert _pair_set(step) == reference
            grouped += sum(len(rows[p]) < len(columns[p]) for p in rows)
        assert grouped

    def test_doe_of_a_large_composite_builds_only_the_images_it_reads(self):
        """The walk of a 32,629-state composite reads a few rows' images.

        The child caps its address space at its size after building the
        composite and its refinement, plus 100 MB.  One successor bitset
        per state of the system, for each input set of the walk, would
        pass that cap.
        """
        pytest.importorskip("resource")
        if not pathlib.Path("/proc/self/status").exists():
            pytest.skip("the child reads its size from /proc/self/status")
        code = (
            "import random, resource\n"
            "from syncreact.abstraction import doe\n"
            "from syncreact.compose import seq_compose\n"
            "from syncreact.lasso import format_effect_sequence\n"
            "from tests.oracles import perfbench_module\n"
            "gen = perfbench_module('gen')\n"
            "sender, receiver = (gen.snd(200, random.Random('1:snd-200')),\n"
            "                    gen.rcv(200, random.Random('1:rcv-200')))\n"
            "composite = seq_compose(sender, receiver).system\n"
            "composite.refinement\n"
            "with open('/proc/self/status') as status:\n"
            "    size = next(int(s.split()[1]) for s in status if s.startswith('VmSize:')) << 10\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (size + (100 << 20), hard))\n"
            "print(len(composite.states), format_effect_sequence(doe(composite, composite.initial)))\n"
        )
        root = pathlib.Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "32629 * (v,w) | *\n", "")


class TestOrbits:
    """Level walks answered from per-pair orbits against the frozenset walks."""

    @pytest.fixture(params=[0, 1, 3])
    def level(self, request):
        return request.param

    @pytest.fixture
    def split(self, level, monkeypatch):
        # A frontier of more pairs stays joint: the 64-state and larger
        # walk systems hold 168 to 2,565 at level 3, where their overlapping
        # orbits take seconds a query.
        return self.split_at(level, monkeypatch, max_orbits=160)

    @staticmethod
    def split_at(level, monkeypatch, max_orbits):
        """Split at ``level`` up to ``max_orbits`` pairs; returns the list of frontiers split."""
        monkeypatch.setattr(abstraction, "SPLIT_LEVEL", level)
        monkeypatch.setattr(abstraction, "MAX_ORBITS", max_orbits)
        split = []
        original = orbits._orbits

        def counted(rows, key, frontier):
            split.append(frontier)
            return original(rows, key, frontier)

        monkeypatch.setattr(orbits, "_orbits", counted)
        return split

    @staticmethod
    def assert_joint_answers(sys, q, levels=True):
        """doe, ssp_seq and, given ``levels``, doe_levels and ssp_levels match the naive walks."""
        doe_lasso, (prefix, cycle) = _naive_levels(sys, q)
        if doe_lasso is NotReactive:
            assert doe(sys, q) == STAR_FOREVER
        else:
            outputs, cycle_outputs = doe_lasso
            assert doe(sys, q) == _effects(sys, outputs + cycle_outputs, len(outputs))
        if (prefix + cycle)[0]:
            assert ssp_seq(sys, q) == PairSetSequence(prefix, cycle)
        else:
            assert _outcome(ssp_seq, sys, q) is NotReactive
        if levels:
            found = _outcome(doe_levels, sys, q)
            assert (found if found is NotReactive else _lasso(*found)) == doe_lasso
            assert _lasso(*ssp_levels(sys, q, q)) == (prefix, cycle)

    @pytest.mark.parametrize("n", WALK_SIZES)
    def test_walk_systems(self, n, level, split):
        for sys in _walk_systems(n):
            for q in sys.states[:3]:
                self.assert_joint_answers(sys, q)
        # A one-state system's walks loop within three levels.
        assert split or n == 1 or (level == 3 and n >= 64)

    def test_small_random_systems(self, split):
        # Among these, effects and SSPseq levels keep changing after the
        # split: deterministic systems walk one pair per orbit.
        for sys in _small_random_systems():
            for q in sys.states[:4]:
                self.assert_joint_answers(sys, q)

    @pytest.mark.parametrize(
        "lengths", [(2, 3), (4, 6), (2, 3, 5), (7, 11, 13), (7, 11, 13, 17), (5, 5, 7), (3, 9, 27)]
    )
    def test_cycle_roots(self, lengths, split):
        sys = GEN.cyc(lengths, random.Random(str(lengths)))
        for q in ("r", "c0_0"):
            self.assert_joint_answers(sys, q)
        assert split

    def test_nondeterministic_class_inflated_system(self, level, split):
        rng = random.Random(29)
        sys = inflated_system(rng, "infl", 60, 7, ("a", "b", "c"), OUTPUTS, 0.6)
        for q in sys.states[:8]:
            self.assert_joint_answers(sys, q)
        assert split or level == 3

    def test_orbits_past_the_period_bound_leave_the_answer_to_the_joint_walk(
        self, split, monkeypatch
    ):
        monkeypatch.setattr(orbits, "MAX_PERIOD", 1)
        for lengths in ((2, 3), (7, 11, 13)):
            self.assert_joint_answers(GEN.cyc(lengths, random.Random(str(lengths))), "r")
        for sys in _walk_systems(9):
            for q in sys.states[:3]:
                self.assert_joint_answers(sys, q)
        assert split

    def test_the_benchmark_cycle_root_splits_at_the_default_level(self, monkeypatch):
        split = self.split_at(abstraction.SPLIT_LEVEL, monkeypatch, abstraction.MAX_ORBITS)
        self.assert_joint_answers(GEN.cyc((7, 11, 13, 17), random.Random(1)), "r", levels=False)
        # DOE splits the 6 unordered pairs of branches, SSPseq the 12 ordered ones.
        assert [sum(bits.bit_count() for _, bits in frontier) for frontier in split] == [6, 12]

    def test_lemma_splits_the_benchmark_cycle_sender_at_the_default_level(self, monkeypatch):
        split = self.split_at(abstraction.SPLIT_LEVEL, monkeypatch, abstraction.MAX_ORBITS)
        sender = GEN.cyc((7, 11, 13, 17), random.Random(1))
        receiver = sized_system(random.Random(4), "g", 3, sender.outputs.symbols, ("u", "v"))
        assert reactive(receiver, "s0")
        verdict = lemma_check(sender, "r", receiver, "s0")
        # The sender's DOE splits its 6 pairs of branches; the receiver's walk loops first.
        assert [sum(bits.bit_count() for _, bits in frontier) for frontier in split] == [6]
        expected = naive_lemma_check(sender, "r", receiver, "s0")
        assert (verdict.index if verdict.guaranteed else None) == expected

    def test_lemma_answers_on_a_cycle_root_whose_output_pairs_pass_max_levels(self):
        # The root's output pairs repeat only every 215,441 levels, but its
        # DOE is ``| *``: no index fits, so no output-pair walk is needed.
        sender = GEN.cyc((17, 19, 23, 29), random.Random("1:cyc-17-19-23-29"))
        receiver = sized_system(random.Random(4), "g", 3, sender.outputs.symbols, ("u", "v"))
        assert reactive(receiver, "s0")
        start = time.perf_counter()
        assert not lemma_check(sender, "r", receiver, "s0").guaranteed
        assert time.perf_counter() - start < 0.5

    def test_lemma_matches_the_frozenset_walks(self, split):
        roots = [GEN.cyc(ls, random.Random(str(ls))) for ls in ((2, 3), (7, 11, 13))]
        fired = 0
        for k, sender in enumerate(roots + list(_small_random_systems())):
            rng = random.Random(-k)
            receiver = random_system(rng, f"g{k}", 6, sender.outputs.symbols, ("u", "v"), 0.3)
            for q_g in receiver.states[:2]:
                verdict = lemma_check(sender, sender.initial, receiver, q_g)
                expected = naive_lemma_check(sender, sender.initial, receiver, q_g)
                assert (verdict.index if verdict.guaranteed else None) == expected
                fired += verdict.guaranteed
        assert fired and split

    @pytest.mark.parametrize("level", [1, 3])
    def test_more_pairs_than_max_orbits_stay_joint(self, level, monkeypatch):
        # The root's frontiers past level 0 hold 3 (DOE) and 6 (SSPseq) pairs.
        split = self.split_at(level, monkeypatch, max_orbits=2)
        sys = GEN.cyc((7, 11, 13), random.Random(1))
        self.assert_joint_answers(sys, "r")
        assert split == []


def _absorbing_systems():
    """Random and class-inflated systems of 5 to 12 states, 2-3 inputs: most
    of their DOE walks meet a bisimilar pair within a few levels."""
    for seed in range(400):
        rng = random.Random(f"absorb-{seed}")
        n, nondeterminism = rng.choice([5, 8, 12]), rng.choice([0.0, 0.1, 0.3])
        inputs = ("a", "b", "c")[: rng.choice([2, 3])]
        if seed % 2:
            yield sized_system(rng, f"s{seed}", n, inputs, OUTPUTS, nondeterminism)
        else:
            classes = rng.choice([2, 3, 4])
            yield inflated_system(rng, f"i{seed}", n, classes, inputs, OUTPUTS, nondeterminism)


def _p2(n: int):
    program = psyc.loads(GEN.p2_source(n))
    return psyc.build_lts(program.machine, program.body, n + 2, name=f"p2-{n}")


class TestAbsorption:
    """``doe`` ends its walk at the first level holding a bisimilar pair,
    jointly or in an orbit, with the answer of the walk that does not."""

    def test_small_random_systems_on_every_split_level(self, monkeypatch):
        queries = []
        for sys in _absorbing_systems():
            bisimilar = naive_bisimilar_pairs(sys)
            for q in sys.states:
                level = _outcome(naive_doe_absorbed_at, sys, q, bisimilar)
                if level is NotReactive or level is None:
                    continue
                answer = doe(sys, q)
                assert answer == _effects(sys, *naive_doe_levels(sys, q))
                assert window(answer, 3) == brute_doe(sys, q, 3)
                queries.append((sys, q, level, answer))
        assert len(queries) >= 2000
        split = TestOrbits.split_at(1, monkeypatch, max_orbits=160)
        for split_level in (1, 2, 3, 4):
            monkeypatch.setattr(abstraction, "SPLIT_LEVEL", split_level)
            in_orbits = 0
            for sys, q, level, answer in queries:
                before = len(split)
                assert doe(sys, q) == answer
                in_orbits += len(split) > before and level >= split_level
            # The bisimilar pair first shows at or past the split, in an orbit.
            assert in_orbits >= 100, split_level

    @staticmethod
    def walked(sys, q, monkeypatch) -> int:
        """The levels ``doe`` walks for q, absorbed or not, with the answer checked unchanged."""
        walked, levels = [], abstraction._levels

        def counted(walk, signals):
            found = levels(walk, signals)
            walked.append(len(found[0]))
            return found

        monkeypatch.setattr(abstraction, "_levels", counted)
        answer = doe(sys, q)
        monkeypatch.undo()
        assert answer == _effects(sys, *doe_levels(sys, q))
        return walked[0]

    @pytest.mark.parametrize("n", [5, 70, 500])
    def test_p2_stops_at_level_two(self, n, monkeypatch):
        # Level 2 holds a diagonal pair; p2's states are pairwise non-bisimilar.
        sys = _p2(n)
        if n <= 70:  # the naive bisimulation is quadratic in the states
            assert naive_doe_absorbed_at(sys, "q0") == 2
        assert doe(sys, "q0") == _effects(sys, *naive_doe_levels(sys, "q0")) == STAR_FOREVER
        assert self.walked(sys, "q0", monkeypatch) == 4
        assert len(doe_levels(sys, "q0")[0]) > 2 * n

    def test_the_built_snd_rcv_composite_stops_early(self, monkeypatch):
        sender = GEN.snd(25, random.Random("1:snd-25"))
        receiver = GEN.rcv(25, random.Random("1:rcv-25"))
        sys = seq_compose(sender, receiver).system
        assert len(sys.states) == 497
        walked = self.walked(sys, sys.initial, monkeypatch)
        assert walked < len(doe_levels(sys, sys.initial)[0])
        answer = doe(sys, sys.initial)
        for split_level in (1, 2, 3, 4):
            split = TestOrbits.split_at(split_level, monkeypatch, max_orbits=160)
            assert doe(sys, sys.initial) == answer
            assert len(split) == 1
            monkeypatch.undo()


class TestObsOrder:
    def test_interval_membership(self, delay1_sys):
        greatest = doe(delay1_sys, "s0")
        assert obs_leq(STAR_FOREVER, greatest)
        assert obs_leq(greatest, greatest)
        # Weakening the tail stays inside; conflicting values fall out.
        assert obs_leq(EffectSequence((STAR, ("1", "2")), (STAR,)), greatest)
        assert not obs_leq(EffectSequence((), (("2", "1"),)), greatest)


class TestSsp:
    def test_union_pair_is_excluded(self, union1_sys, union2_sys):
        assert on_union(ssp, union1_sys, "u0", union2_sys, "v0") == ()

    def test_identity_with_separating_pairs(
        self, p1_sys, p2_sys, toggle_sys, union_sys, delay1_sys
    ):
        for sys in (p1_sys, p2_sys, toggle_sys, union_sys, delay1_sys):
            for q in sys.states:
                assert ssp(sys, q, q) == separating_pairs(sys, q).pairs

    def test_two_copies_of_toggle(self, toggle_sys):
        assert ssp(toggle_sys, "s0", "s0") == (("a", "b"),)

    def test_signature_mismatch(self, p1_sys, union_sys):
        with pytest.raises(SignatureMismatch):
            disjoint_union(p1_sys, union_sys)

    def test_two_system_queries_leave_no_reference_cycle(self, monkeypatch):
        rng = random.Random(5)
        sys_a = sized_system(rng, "a", 6, ("a", "b"), ("0", "1"))
        sys_b = sized_system(rng, "b", 5, ("b", "a"), ("1", "0"))
        p = next(p for p in sys_a.states if reactive(sys_a, p))
        q = next(q for q in sys_b.states if reactive(sys_b, q))
        union, pa, pb = disjoint_union(sys_a, sys_b)
        p, q = pa + p, pb + q
        built = count_refinements(monkeypatch)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()  # whatever the queries leave in a cycle waits for the collector
        try:
            ssp(union, p, q)
            ssp_levels(union, p, q)
            non_bisimilar(union, p, q)
            strongly_separable(union, p, q)
            separators(union, p, q, 3)
            diff(union, p, q, union.inputs.symbols)
            assert list(map(id, built)) == [id(union.succ)]  # one refinement for all six
            del sys_a, sys_b, union
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestSspSeq:
    def test_toggle_every_level(self, toggle_sys):
        seq = ssp_seq(toggle_sys, "s0")
        assert seq == PairSetSequence((), (frozenset({("a", "b")}),))
        assert all(seq[i] == frozenset({("a", "b")}) for i in range(6))

    def test_const_rejected(self, const_sys):
        with pytest.raises(NotReactive):
            ssp_seq(const_sys, "c0")

    def test_union_cross_pair_has_empty_level_zero(self, union1_sys, union2_sys):
        levels, _ = on_union(ssp_levels, union1_sys, "u0", union2_sys, "v0")
        assert levels[0] == frozenset()

    def test_receiver_level_two_contains_the_delay1_effect(self, receiver_sys):
        seq = ssp_seq(receiver_sys, "g0")
        assert ("1", "2") in seq[2]


class TestLemmaCheck:
    def test_p1_gives_no_guarantee(self, p1_sys):
        # Any receiver over the P1 output alphabet; DOE(p0) is silent.
        receiver = chain_sender(1, ("z", "x", "y"), in_syms=("tt", "ff"))
        verdict = lemma_check(p1_sys, "p0", receiver, "r")
        assert not verdict.guaranteed

    def test_delay1_receiver_guaranteed_at_index_one(
        self, delay1_sys, receiver_sys
    ):
        verdict = lemma_check(delay1_sys, "s0", receiver_sys, "g0")
        assert verdict.guaranteed
        assert verdict.index == 1

    def test_delay1_receiver_composite_really_is_reactive(
        self, delay1_sys, receiver_sys
    ):
        composed = seq_compose(delay1_sys, receiver_sys).system
        assert separating_pairs(composed, composed.initial).reactive

    def test_signature_mismatch(self, delay1_sys, p1_sys):
        with pytest.raises(SignatureMismatch):
            lemma_check(delay1_sys, "s0", p1_sys, "p0")

    def test_refines_each_system_once(self, monkeypatch):
        built = count_refinements(monkeypatch)
        sender, receiver = load_fixture("delay1.sls"), load_fixture("receiver.sls")
        assert lemma_check(sender, "s0", receiver, "g0").guaranteed
        assert sorted(map(id, built)) == sorted({id(sender.succ), id(receiver.succ)})

    def test_soundness_on_random_pairs(self):
        # The full 500-pair sweep lives in the acceptance suite; this is
        # a quick smoke version.
        rng = random.Random(23)
        fired = 0
        for i in range(60):
            feed = ("x", "y", "z")
            sender = random_system(rng, f"s{i}", 5, ("a", "b"), feed)
            receiver = random_system(rng, f"g{i}", 5, feed, ("0", "1"))
            q_f, q_g = sender.initial, receiver.initial
            verdict = lemma_check(sender, q_f, receiver, q_g)
            if verdict.guaranteed:
                fired += 1
                composed = seq_compose(sender, receiver, start=(q_f, q_g)).system
                assert separating_pairs(composed, composed.initial).reactive


class TestDoeCompose:
    def test_delay1_receiver_at_index_one(self, delay1_sys, receiver_sys):
        result = doe_compose(delay1_sys, "s0", receiver_sys, "g0", 1)
        # Two silent ticks, then the merged effects of every receiver
        # state reachable in two steps (here g0 alone).
        expected = star_prepend(2, doe(receiver_sys, "g0"))
        assert result == expected
        composed = seq_compose(delay1_sys, receiver_sys).system
        assert obs_leq(result, doe(composed, composed.initial))

    def test_single_reachable_receiver_gives_its_doe(self, receiver_sys):
        sender = chain_sender(1, ("0", "1", "2"))
        verdict = lemma_check(sender, "r", receiver_sys, "g0")
        assert verdict.guaranteed and verdict.index == 1
        result = doe_compose(sender, "r", receiver_sys, "g0", 1)
        assert result == star_prepend(2, doe(receiver_sys, "g0"))

    def test_composite_entering_coprime_rings_is_read_at_index_t_plus_one(self, receiver_sys):
        from syncreact.core import Alphabet, SynchronousSystem

        # r feeds 1 on i0/i1 and 2 on i2/i3; on input k both then enter
        # ring k, silent, of length lengths[k]. The composite loops only
        # after lcm(lengths) levels, past MAX_LEVELS.
        lengths = (29, 31, 37, 41)
        inputs = tuple(f"i{k}" for k in range(4))
        rings = [[f"c{k}_{j}" for j in range(n)] for k, n in enumerate(lengths)]
        transitions = [("r", a, "s1" if k < 2 else "s2") for k, a in enumerate(inputs)]
        transitions += [(s, a, rings[k][0]) for s in ("s1", "s2") for k, a in enumerate(inputs)]
        transitions += [
            (ring[j], a, ring[(j + 1) % len(ring)])
            for ring in rings
            for j in range(len(ring))
            for a in inputs
        ]
        sender = SynchronousSystem(
            name="rings",
            inputs=Alphabet(inputs),
            outputs=Alphabet(("0", "1", "2")),
            states=("r", "s1", "s2", *(c for ring in rings for c in ring)),
            transitions=tuple(transitions),
            out_label={"r": "0", "s1": "1", "s2": "2", **{c: "0" for ring in rings for c in ring}},
            initial="r",
        )
        assert doe(sender, "r") == EffectSequence((("1", "2"),), (STAR,))
        verdict = lemma_check(sender, "r", receiver_sys, "g0")
        assert verdict.guaranteed and verdict.index == 0
        assert doe_compose(sender, "r", receiver_sys, "g0", 0) == STAR_FOREVER

    def test_bad_index_raises(self, delay1_sys, receiver_sys):
        with pytest.raises(PreconditionFailed):
            doe_compose(delay1_sys, "s0", receiver_sys, "g0", 0)

    def test_conflicting_receiver_does_collapse_to_silence(self):
        from syncreact.core import Alphabet, SynchronousSystem

        sender = SynchronousSystem(
            name="fork2",
            inputs=Alphabet(("a", "b")),
            outputs=Alphabet(("0", "1", "2")),
            states=("r", "u1", "u2", "v1", "v2", "z"),
            transitions=tuple(
                [("r", "a", "u1"), ("r", "b", "u2")]
                + [
                    (s, i, t)
                    for (s, t) in [
                        ("u1", "v1"),
                        ("u2", "v2"),
                        ("v1", "z"),
                        ("v2", "z"),
                        ("z", "z"),
                    ]
                    for i in ("a", "b")
                ]
            ),
            out_label={"r": "0", "u1": "1", "u2": "2", "v1": "1", "v2": "2", "z": "0"},
            initial="r",
        )
        receiver = SynchronousSystem(
            name="mirror",
            inputs=Alphabet(("0", "1", "2")),
            outputs=Alphabet(("n", "p", "q")),
            states=("g0", "gA", "gB", "hP", "hQ"),
            transitions=tuple(
                [
                    ("g0", "0", "g0"),
                    ("g0", "1", "gA"),
                    ("g0", "2", "gB"),
                    ("gA", "0", "hP"),
                    ("gA", "1", "hP"),
                    ("gA", "2", "hQ"),
                    ("gB", "0", "hQ"),
                    ("gB", "1", "hQ"),
                    ("gB", "2", "hP"),
                ]
                + [(s, i, s) for s in ("hP", "hQ") for i in ("0", "1", "2")]
            ),
            out_label={"g0": "n", "gA": "n", "gB": "n", "hP": "p", "hQ": "q"},
            initial="g0",
        )
        assert doe(receiver, "gA") == EffectSequence((), (("p", "q"),))
        assert doe(receiver, "gB") == EffectSequence((), (("q", "p"),))
        # The two-step frontier reaches both mirror branches, whose
        # effects disagree pointwise.
        assert doe_compose(sender, "r", receiver, "g0", 1) == STAR_FOREVER
        # The membership precondition alone would also claim reactivity
        # here, yet the mirrored branches reconverge on the same output;
        # the verdict must stay negative.
        from syncreact.abstraction import ssp_seq as sspseq_fn

        assert ("1", "2") in sspseq_fn(receiver, "g0")[2]
        assert not lemma_check(sender, "r", receiver, "g0").guaranteed
        composed = seq_compose(sender, receiver).system
        assert not separating_pairs(composed, composed.initial).reactive

    def test_result_is_below_composite_doe_on_fixture_pairs(
        self, delay1_sys, receiver_sys
    ):
        cases = [(delay1_sys, "s0", receiver_sys, "g0", 1)]
        sender = chain_sender(2, ("0", "1", "2"))
        if lemma_check(sender, "r", receiver_sys, "g0").guaranteed:
            cases.append((sender, "r", receiver_sys, "g0", 2))
        for (sf, qf, sg, qg, t) in cases:
            result = doe_compose(sf, qf, sg, qg, t)
            composed = seq_compose(sf, sg, start=(qf, qg)).system
            assert obs_leq(result, doe(composed, composed.initial))


# The queries over infinite words, each asked about a state q of a system
# that also has a state p1.
INFINITE_WORD_QUERIES = {
    "separators": lambda sys, q: separators(sys, q, "p1", 3),
    "strongly_separable": lambda sys, q: strongly_separable(sys, q, "p1"),
    "diff": lambda sys, q: diff(sys, q, "p1", ["tt", "ff"]),
    "det_reaction_time": det_reaction_time,
    "doe": doe,
    "doe_levels": doe_levels,
    "ssp_seq": ssp_seq,
    "ssp_levels": lambda sys, q: ssp_levels(sys, q, "p1"),
    "lemma_check": lambda sys, q: lemma_check(sys, q, sys, q),
    "doe_compose": lambda sys, q: doe_compose(sys, q, sys, q, 0),
}


def incomplete_p1():
    """p1 without p2's ff move, plus a state p3 that moves to p0 on both inputs."""
    text = (FIXTURES / "p1.sls").read_text()
    extra = "state p3 ff\ntrans p3 tt p0\ntrans p3 ff p0\n"
    return sls.loads(text.replace("trans p2 ff p0\n", extra))


@pytest.mark.parametrize(
    "query", INFINITE_WORD_QUERIES.values(), ids=list(INFINITE_WORD_QUERIES)
)
def test_infinite_word_queries_reject_an_incomplete_system(query):
    sys = incomplete_p1()
    # Reactive or not, no state gets past the check to a verdict or NotReactive.
    assert reactive(sys, "p0") and not reactive(sys, "p3")
    message = "^system p1: incomplete: state p2 has no transition on input ff$"
    for q in ("p0", "p3"):
        with pytest.raises(PreconditionFailed, match=message):
            query(sys, q)


@pytest.mark.parametrize(
    "query", INFINITE_WORD_QUERIES.values(), ids=list(INFINITE_WORD_QUERIES)
)
def test_infinite_word_queries_name_an_unknown_state_first(query):
    # The system is incomplete too: the name is checked before completeness.
    with pytest.raises(UnknownState, match="^unknown state 'nope' in system p1$"):
        query(incomplete_p1(), "nope")
