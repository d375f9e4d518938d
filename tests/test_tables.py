"""Systems built straight from integer tables, against name-triple builders.

Quotients, composites, unions and ``.psy`` builds hand their tables to
``SynchronousSystem.from_tables``.  Each must equal the system the
validating constructor makes from its seven fields, with the same repr
and tables, and must write the same ``.sls`` bytes as the name-triple
builders in ``oracles.py``.  A system is its tables: its transitions
are listed in table order, each once, whatever order and repeats the
triples were declared with.
"""

import random
import re

import pytest

from syncreact import psyc, sls
from syncreact.compose import disjoint_union, par_compose, seq_compose
from syncreact.core import Alphabet, SynchronousSystem, bisim_quotient
from syncreact.errors import FormatError, UnknownState, UnknownSymbol

from .conftest import FIXTURES
from .oracles import (
    inflated_system,
    naive_composite,
    naive_quotient,
    perfbench_module,
    random_system,
    sized_system,
)

GEN = perfbench_module("gen")


def rebuilt(system: SynchronousSystem) -> SynchronousSystem:
    return SynchronousSystem(*(getattr(system, f) for f in system._fields))


def table_order(system: SynchronousSystem) -> tuple:
    """The transitions state by state, input by input, each row in its stored order."""
    return tuple(
        (q, a, t) for q in system.states for a in system.inputs for t in system.successors(q, a)
    )


def assert_same_as_validated(system: SynchronousSystem) -> None:
    again = rebuilt(system)
    assert again == system and repr(again) == repr(system)
    assert (again.index, again.succ, again.out_ids) == (system.index, system.succ, system.out_ids)
    assert tuple(system.iter_transitions()) == system.transitions == table_order(system)
    assert sls.dumps(again) == sls.dumps(system)


def assert_written(system: SynchronousSystem, path) -> None:
    """``sls.dump`` writes exactly the text ``sls.dumps`` returns."""
    sls.dump(system, path)
    assert path.read_bytes() == sls.dumps(system).encode("utf-8")


def with_gaps(system: SynchronousSystem, rng: random.Random) -> SynchronousSystem:
    """The system with about a third of its (state, input) rows emptied."""
    empty = {(q, a) for q in system.states for a in system.inputs if rng.random() < 0.3}
    fields = {f: getattr(system, f) for f in system._fields}
    kept = tuple((q, a, t) for (q, a, t) in system.transitions if (q, a) not in empty)
    return SynchronousSystem(**{**fields, "transitions": kept})


def redeclared(system: SynchronousSystem, rng: random.Random) -> SynchronousSystem:
    """The same transitions, declared shuffled with a few repeated."""
    transitions = list(system.transitions)
    transitions += rng.sample(transitions, min(3, len(transitions)))
    rng.shuffle(transitions)
    fields = {f: getattr(system, f) for f in system._fields}
    return SynchronousSystem(**{**fields, "transitions": tuple(transitions)})


def systems(seed: int, count: int, inputs=("a", "b"), outputs=("0", "1")):
    rng = random.Random(seed)
    for i in range(count):
        nondet = (0.0, 0.3, 0.6)[i % 3]
        yield rng, sized_system(rng, f"s{i}", rng.randint(1, 12), inputs, outputs, nondet)


class TestDeclaredOrder:
    def test_table_order_keeps_no_declared_order(self):
        for rng, sys in systems(1, 30):
            assert not hasattr(sys, "declared_transitions")
            assert sys.transitions == table_order(sys) == rebuilt(sys).transitions
            assert sls.dumps(sls.loads(sls.dumps(sys))) == sls.dumps(sys)
            # Rows moved across states, each row's own order kept, one line repeated.
            rows = {}
            for s, a, t in sys.transitions:
                rows.setdefault((s, a), []).append((s, a, t))
            keys = list(rows)
            rng.shuffle(keys)
            moved = [tr for key in keys for tr in rows[key]] + [rng.choice(sys.transitions)]
            fields = {f: getattr(sys, f) for f in sys._fields}
            again = SynchronousSystem(**{**fields, "transitions": tuple(moved)})
            assert again.succ == sys.succ
            assert sls.dumps(again) == sls.dumps(sys)

    def test_other_orders_are_written_in_table_order(self):
        for rng, sys in systems(2, 30):
            shuffled = redeclared(sys, rng)
            assert [list(map(sorted, moves)) for moves in shuffled.succ] == [
                list(map(sorted, moves)) for moves in sys.succ
            ]
            assert shuffled.transitions == table_order(shuffled)
            assert sorted(shuffled.transitions) == sorted(sys.transitions)
            text = sls.dumps(shuffled)
            assert text.count("\ntrans ") == len(sys.transitions)
            assert sls.dumps(sls.loads(text)) == text
            assert_same_as_validated(shuffled)

    def test_out_label_and_out_are_views_of_the_tables(self):
        for _, sys in systems(3, 10):
            symbols = sys.outputs.symbols
            assert sys.out_label == {q: symbols[o] for q, o in zip(sys.states, sys.out_ids)}
            assert all(sys.out(q) == sys.out_label[q] for q in sys.states)
            assert sys.out_label is sys.out_label


class TestQuotient:
    def test_matches_the_name_triple_quotient(self, tmp_path):
        for rng, sys in systems(11, 150):
            for source in (sys, redeclared(sys, rng)):
                _, quotient = bisim_quotient(source)
                expected = naive_quotient(source)
                assert quotient == expected and repr(quotient) == repr(expected)
                assert sls.dumps(quotient) == sls.dumps(expected)
                assert_same_as_validated(quotient)
                assert_written(quotient, tmp_path / "q.sls")

    def test_inflated_systems_collapse_the_same_way(self, tmp_path):
        # Many bisimilar copies: representatives are not the only sources.
        rng = random.Random(12)
        for _ in range(40):
            base = sized_system(rng, "base", rng.randint(1, 4), ("a", "b"), ("0", "1"), 0.3)
            copies = rng.randint(2, 4)
            n = len(base.states)
            states = tuple(f"s{i}" for i in range(n * copies))
            transitions = tuple(
                (states[i], base.inputs.symbols[a], states[t + n * rng.randrange(copies)])
                for i in range(n * copies)
                for a, ts in enumerate(base.succ[i % n])
                for t in ts
            )
            sys = SynchronousSystem(
                "inflated", base.inputs, base.outputs, states, transitions,
                {q: base.out(f"s{i % n}") for i, q in enumerate(states)}, "s0",
            )
            for source in (sys, redeclared(sys, rng)):
                _, quotient = bisim_quotient(source)
                assert sls.dumps(quotient) == sls.dumps(naive_quotient(source))
                assert_written(quotient, tmp_path / "q.sls")

    def test_incomplete_systems(self):
        # Every member of a class has an empty row where its representative has one.
        gaps = 0
        for rng, sys in systems(13, 90):
            source = with_gaps(sys, rng)
            gaps += len(source.gaps)
            _, quotient = bisim_quotient(source)
            expected = naive_quotient(source)
            assert quotient == expected and sls.dumps(quotient) == sls.dumps(expected)
        assert gaps > 0

    def test_rows_with_several_successors(self):
        rng = random.Random(14)
        several = 0
        for i in range(40):
            n, classes = rng.randint(2, 24), rng.randint(1, 6)
            sys = inflated_system(rng, f"i{i}", n, classes, ("a", "b", "c"), ("0", "1"), 0.7)
            for source in (sys, redeclared(sys, rng)):
                several += sum(len(ts) > 1 for moves in source.succ for ts in moves)
                _, quotient = bisim_quotient(source)
                expected = naive_quotient(source)
                assert quotient == expected and sls.dumps(quotient) == sls.dumps(expected)
        assert several > 0

    def test_the_benchmark_seq_composite(self, tmp_path):
        # snd-100;rcv-100 as the product workload seeds it: nearly every class is one state.
        sender = GEN.snd(100, random.Random("1:snd-100"))
        receiver = GEN.rcv(100, random.Random("1:rcv-100"))
        composed = seq_compose(sender, receiver).system
        partition, quotient = bisim_quotient(composed)
        assert (len(composed.states), len(partition.classes)) == (8709, 8101)
        expected = naive_quotient(composed)
        assert quotient == expected and sls.dumps(quotient) == sls.dumps(expected)
        assert_written(quotient, tmp_path / "seq.q.sls")
        assert_written(composed, tmp_path / "seq.sls")


class TestComposite:
    def test_seq_matches_the_name_triple_composite(self, tmp_path):
        rng = random.Random(21)
        for i in range(120):
            sender = sized_system(rng, "f", rng.randint(1, 6), ("a", "b"), ("x", "y", "z"), 0.3)
            feed = tuple(rng.sample(("x", "y", "z"), 3))  # inputs in another order
            receiver = sized_system(rng, "g", rng.randint(1, 6), feed, ("0", "1"), 0.3)
            if i % 2:
                sender, receiver = redeclared(sender, rng), redeclared(receiver, rng)
            start = (rng.choice(sender.states), rng.choice(receiver.states))
            for begin in (None, start):
                composed = seq_compose(sender, receiver, begin).system
                expected = naive_composite(sender, receiver, "seq", begin)
                assert composed == expected and repr(composed) == repr(expected)
                assert sls.dumps(composed) == sls.dumps(expected)
                assert_same_as_validated(composed)
                assert_written(composed, tmp_path / "fg.sls")

    def test_par_matches_the_name_triple_composite(self, tmp_path):
        rng = random.Random(22)
        for i in range(120):
            left = sized_system(rng, "f", rng.randint(1, 5), ("a", "b"), ("0", "1"), 0.3)
            right = sized_system(rng, "g", rng.randint(1, 5), ("c", "d", "e"), ("2", "3"), 0.3)
            if i % 2:
                left, right = redeclared(left, rng), redeclared(right, rng)
            composed = par_compose(left, right).system
            expected = naive_composite(left, right, "par")
            assert composed == expected and repr(composed) == repr(expected)
            assert sls.dumps(composed) == sls.dumps(expected)
            assert_same_as_validated(composed)
            assert_written(composed, tmp_path / "fg.sls")


class TestOtherBuilders:
    @pytest.mark.parametrize("permute", [False, True])
    def test_disjoint_union(self, permute):
        rng = random.Random(31)
        for i in range(40):
            sys_a = sized_system(rng, "a", rng.randint(1, 6), ("a", "b", "c"), ("0", "1"), 0.3)
            inputs = tuple(rng.sample(("a", "b", "c"), 3)) if permute else ("a", "b", "c")
            sys_b = sized_system(rng, "b", rng.randint(1, 6), inputs, ("1", "0"), 0.3)
            if i % 3 == 0:
                sys_b = redeclared(sys_b, rng)
            union, _, _ = disjoint_union(sys_a, sys_b)
            sides = (("A.", sys_a), ("B.", sys_b))
            # Both sides listed in table order, by sys_a's input order.
            assert union.transitions == tuple(
                (p + q, a, p + t)
                for (p, side) in sides
                for q in side.states
                for a in sys_a.inputs
                for t in side.successors(q, a)
            )
            assert union.out_label == {
                p + q: side.out(q) for (p, side) in sides for q in side.states
            }
            assert_same_as_validated(union)

    @pytest.mark.parametrize("name", ["program1.psy", "program2.psy"])
    def test_psyc_build(self, name):
        program = psyc.load(FIXTURES / name)
        built = psyc.build_lts(program.machine, program.body, 100, name=program.name)
        assert_same_as_validated(built)

    def test_from_tables_checks_the_name(self):
        io = Alphabet(("i",))
        with pytest.raises(UnknownSymbol, match="bad system name"):
            SynchronousSystem.from_tables("two words", io, io, ("q",), [((0,),)], [0], 0)


def fields_text(name, inputs, outputs, states, transitions, out_label, initial) -> str:
    """The ``.sls`` lines of seven constructor fields, unchecked: states before transitions."""
    lines = [f"system {name}", "inputs " + " ".join(inputs), "outputs " + " ".join(outputs)]
    lines += [f"init {initial}"] + [f"state {q} {out_label[q]}" for q in states]
    lines += [f"trans {src} {sym} {dst}" for (src, sym, dst) in transitions]
    return "\n".join(lines) + "\n"


def single_faults(system: SynchronousSystem, rng: random.Random):
    """Each fault the constructor and the loader reject, with the constructor's error class."""
    fields = {f: getattr(system, f) for f in system._fields}
    states, transitions, out_label = fields["states"], fields["transitions"], fields["out_label"]
    q, t = rng.choice(states), rng.choice(states)
    a = rng.choice(system.inputs.symbols)

    def moved(extra):
        at = rng.randrange(len(transitions) + 1)
        return {**fields, "transitions": transitions[:at] + (extra,) + transitions[at:]}

    yield UnknownState, {**fields, "states": states + (q,)}
    yield UnknownState, {**fields, "states": states + ("z|z",), "out_label": {**out_label, "z|z": "0"}}
    yield UnknownSymbol, {**fields, "out_label": {**out_label, q: "zz"}}
    yield UnknownState, moved(("zz", a, t))
    yield UnknownState, moved((q, a, "zz"))
    yield UnknownSymbol, moved((q, "zz", t))
    yield UnknownState, {**fields, "initial": "zz"}


class TestConstructorAndLoader:
    """The validating constructor and ``sls.loads`` fill the tables through one set of checks."""

    def test_a_written_system_loads_to_the_same_tables(self):
        rng = random.Random(21)
        for i in range(60):
            sys = random_system(rng, f"r{i}", 12, ("a", "b", "c"), ("0", "1"), (0.0, 0.3)[i % 2])
            text = sls.dumps(sys)
            # The inputs may also come after the states, if before every transition.
            lines = text.splitlines(keepends=True)
            inputs = lines.pop(1)
            lines.insert(next(k for k, line in enumerate(lines) if line.startswith("trans ")), inputs)
            for loaded in (sls.loads(text), sls.loads("".join(lines))):
                assert (loaded.index, loaded.succ, loaded.out_ids, loaded.initial) == (
                    sys.index, sys.succ, sys.out_ids, sys.initial
                )

    def test_a_single_fault_reads_the_same_from_both(self):
        rng = random.Random(22)
        for i in range(40):
            sys = random_system(rng, f"r{i}", 8, ("a", "b"), ("0", "1"))
            for cls, fields in single_faults(sys, rng):
                with pytest.raises(cls) as built:
                    SynchronousSystem(**fields)
                with pytest.raises(FormatError) as loaded:
                    sls.loads(fields_text(**fields), source="f.sls")
                assert re.match(r"f\.sls:\d+: ", str(loaded.value))
                assert str(loaded.value).split(": ", 1)[1] == str(built.value)
