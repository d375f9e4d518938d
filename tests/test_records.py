"""The value classes: construction, equality, hashing and repr.

Each class keeps the constructor, equality, hash and repr of the frozen
dataclass it replaced: positional and keyword arguments in field order
with the same defaults, equality within one class over the fields,
``Cls(field=value, ...)`` reprs.  ``SynchronousSystem`` compares its
seven declared fields and is unhashable; ``IndWitness`` compares and
hashes by identity and shows one layer.
"""

import pytest

from syncreact.abstraction import LemmaVerdict, ObsOrder
from syncreact.compose import ComposedSystem
from syncreact.core import (
    Alphabet,
    BaseWitness,
    IndWitness,
    Partition,
    Run,
    SynchronousSystem,
)
from syncreact.lasso import EffectSequence, PairSetSequence
from syncreact.psyc.loader import ProgramFile
from syncreact.psyc.semantics import Machine, VarDecl
from syncreact.psyc.syntax import Token, VarRef
from syncreact.psyc.typecheck import Ty
from syncreact.reactivity import ReactionTime, SepPairSet, StrongSepResult

IO = Alphabet(("i",))
OUT = Alphabet(("o",))
SYSTEM_FIELDS = {
    "name": "s",
    "inputs": IO,
    "outputs": OUT,
    "states": ("q",),
    "transitions": (("q", "i", "q"),),
    "out_label": {"q": "o"},
    "initial": "q",
}
SYSTEM = SynchronousSystem(**SYSTEM_FIELDS)
SYSTEM_REPR = (
    "SynchronousSystem(name='s', inputs=Alphabet(symbols=('i',)), "
    "outputs=Alphabet(symbols=('o',)), states=('q',), transitions=(('q', 'i', 'q'),), "
    "out_label={'q': 'o'}, initial='q')"
)
SILENT = EffectSequence((), (None,))
MACHINE = Machine(IO, OUT, ("bool",), ("bool",), ())

# class, fields in order, a changed value for the first field, repr, hashable
CASES = [
    (Alphabet, {"symbols": ("a", "b")}, ("a",), "Alphabet(symbols=('a', 'b'))", True),
    (SynchronousSystem, SYSTEM_FIELDS, "t", SYSTEM_REPR, False),
    (Run, {"start": "q", "steps": (("i", "q"),)}, "r", "Run(start='q', steps=(('i', 'q'),))", True),
    (
        Partition,
        {"class_of": {"q": 0}, "classes": (0,), "representative": {0: "q"}},
        {"q": 1},
        "Partition(class_of={'q': 0}, classes=(0,), representative={0: 'q'})",
        False,
    ),
    (
        BaseWitness,
        {"p": "p", "q": "q", "out_p": "0", "out_q": "1"},
        "r",
        "BaseWitness(p='p', q='q', out_p='0', out_q='1')",
        True,
    ),
    (
        SepPairSet,
        {"pairs": (("a", "b"),), "deterministic_subset": ()},
        (),
        "SepPairSet(pairs=(('a', 'b'),), deterministic_subset=())",
        True,
    ),
    (
        StrongSepResult,
        {"separable": True, "bound": 2, "cycle": None},
        False,
        "StrongSepResult(separable=True, bound=2, cycle=None)",
        True,
    ),
    (
        ReactionTime,
        {"time": 1, "witness": ("a",)},
        2,
        "ReactionTime(time=1, witness=('a',))",
        True,
    ),
    (
        EffectSequence,
        {"prefix": (("0", "1"),), "cycle": (None,)},
        (),
        "EffectSequence(prefix=(('0', '1'),), cycle=(None,))",
        True,
    ),
    (
        PairSetSequence,
        {"prefix": (), "cycle": (frozenset({("a", "b")}),)},
        (frozenset(),),
        "PairSetSequence(prefix=(), cycle=(frozenset({('a', 'b')}),))",
        True,
    ),
    (
        LemmaVerdict,
        {"guaranteed": True, "index": 3},
        False,
        "LemmaVerdict(guaranteed=True, index=3)",
        True,
    ),
    (
        ObsOrder,
        {"greatest": SILENT},
        EffectSequence((("0", "1"),), (None,)),
        "ObsOrder(greatest=EffectSequence(prefix=(), cycle=(None,)))",
        True,
    ),
    (
        ComposedSystem,
        {"system": SYSTEM, "kind": "seq", "left": "f", "right": "g"},
        SynchronousSystem(**{**SYSTEM_FIELDS, "name": "t"}),
        f"ComposedSystem(system={SYSTEM_REPR}, kind='seq', left='f', right='g')",
        False,
    ),
    (Ty, {"kind": "exp", "base": "int"}, "var", "Ty(kind='exp', base='int')", True),
    (
        Token,
        {"kind": "IDENT", "text": "x", "line": 1, "column": 2},
        "INT",
        "Token(kind='IDENT', text='x', line=1, column=2)",
        True,
    ),
    (
        VarDecl,
        {"name": "y", "base": "int", "low": 0, "high": 4},
        "z",
        "VarDecl(name='y', base='int', low=0, high=4)",
        True,
    ),
    (
        ProgramFile,
        {"name": "prog", "machine": MACHINE, "body": VarRef("x")},
        "other",
        f"ProgramFile(name='prog', machine={MACHINE!r}, body=VarRef(name='x'))",
        True,
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, changed, text, hashable", CASES, ids=IDS)
def test_construction_equality_hash_and_repr(cls, fields, changed, text, hashable):
    positional = cls(*fields.values())
    keyword = cls(**fields)
    assert [getattr(keyword, name) for name in fields] == list(fields.values())
    assert positional == keyword and not positional != keyword
    assert positional is not keyword
    first = next(iter(fields))
    other = cls(**{**fields, first: changed})
    assert other != positional and not other == positional
    assert repr(positional) == repr(keyword) == text
    if hashable:
        assert hash(positional) == hash(keyword)
        assert len({positional, keyword, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(positional)


def test_instances_of_different_classes_are_never_equal():
    instances = [cls(*fields.values()) for (cls, fields, *_) in CASES]
    for i, x in enumerate(instances):
        for j, y in enumerate(instances):
            assert (x == y) is (i == j)
            assert (x != y) is (i != j)
    # Same field values, different classes.
    assert LemmaVerdict(True, 1) != ReactionTime(True, 1)
    assert Run("q", ()) != ("q", ())
    assert Ty("comm") != "comm"


def test_defaults():
    assert StrongSepResult(False) == StrongSepResult(False, None, None)
    assert repr(StrongSepResult(False)) == (
        "StrongSepResult(separable=False, bound=None, cycle=None)"
    )
    assert ReactionTime(None) == ReactionTime(time=None, witness=None)
    assert repr(ReactionTime(None)) == "ReactionTime(time=None, witness=None)"
    assert LemmaVerdict(False) == LemmaVerdict(guaranteed=False, index=None)
    assert repr(LemmaVerdict(False)) == "LemmaVerdict(guaranteed=False, index=None)"
    assert Ty("comm") == Ty(kind="comm", base=None)
    assert repr(Ty("comm")) == "Ty(kind='comm', base=None)"
    assert VarDecl("x", "bool") == VarDecl(name="x", base="bool", low=None, high=None)
    assert repr(VarDecl("x", "bool")) == "VarDecl(name='x', base='bool', low=None, high=None)"
    for cls, fields, *_ in CASES:
        with pytest.raises(TypeError):
            cls(*fields.values(), "extra")
        with pytest.raises(TypeError):
            cls(**fields, extra=1)


def test_system_compares_its_declared_fields_only():
    fresh = SynchronousSystem(**SYSTEM_FIELDS)
    assert SYSTEM.refinement is SYSTEM.refinement  # cached in the instance
    assert "refinement" in vars(SYSTEM) and "refinement" not in vars(fresh)
    assert SYSTEM == fresh
    assert set(vars(fresh)) == {"index", "succ", "out_ids"}
    assert (fresh.index, fresh.succ, fresh.out_ids) == ({"q": 0}, [((0,),)], [0])
    assert SYSTEM.__hash__ is None


def test_ind_witness_compares_by_identity_and_shows_one_layer():
    base = BaseWitness("A.p", "B.q", "0", "1")
    args = ("p", "q", "i", "left", "p2", (("q2", base), ("q3", base)))
    w = IndWitness(*args)
    same = IndWitness(
        p="p", q="q", input="i", side="left", chosen="p2", children=args[-1]
    )
    assert w == w and w != same and not w == same
    assert hash(w) == object.__hash__(w)
    assert len({w, same}) == 2
    assert (same.p, same.q, same.input, same.side, same.chosen) == args[:5]
    assert repr(w) == repr(same) == (
        "IndWitness(p='p', q='q', input='i', side='left', chosen='p2', children=2)"
    )
    assert w.depth == 1 and base.depth == 0


@pytest.mark.parametrize("cls", [EffectSequence, PairSetSequence])
def test_lasso_sequences_are_canonical_at_construction(cls):
    x, y = ("0", "1"), ("1", "0")
    if cls is PairSetSequence:
        x, y = frozenset({x}), frozenset({y})
    # The prefix's tail is absorbed into the cycle; the cycle is its minimal period.
    made = cls(prefix=(x, y, x, y), cycle=(x, y, x, y))
    assert (made.prefix, made.cycle) == ((), (x, y))
    assert made == cls((), (x, y)) and hash(made) == hash(cls((), (x, y)))
    assert repr(made) == f"{cls.__name__}(prefix=(), cycle=({x!r}, {y!r}))"
    shifted = cls((y,), (x, y))
    assert (shifted.prefix, shifted.cycle) == ((), (y, x))
    kept = cls((x,), (y,))
    assert (kept.prefix, kept.cycle) == ((x,), (y,))
    with pytest.raises(ValueError):
        cls((x,), ())
    # perfbench/tracer.py wraps each class's own __init__.
    assert "__init__" in vars(cls)
