"""Textual format: strict parsing and byte-exact round-trips."""

import re

import pytest

from syncreact import sls, validate
from syncreact.errors import FormatError

from .conftest import ALL_SYSTEM_FIXTURES, FIXTURES


@pytest.mark.parametrize("name", ALL_SYSTEM_FIXTURES)
def test_load_save_byte_identical(name):
    path = FIXTURES / name
    original = path.read_text(encoding="utf-8")
    assert sls.dumps(sls.loads(original, source=name)) == original


@pytest.mark.parametrize("name", ALL_SYSTEM_FIXTURES)
def test_fixtures_are_valid(name):
    assert validate(sls.load(FIXTURES / name)) == []


def test_comments_and_blank_lines_are_ignored():
    text = (
        "# a comment\n"
        "system t\n\n"
        "inputs a\noutputs 0   # trailing comment\n"
        "init s\nstate s 0\ntrans s a s # a loop\n"
    )
    sys = sls.loads(text)
    assert sys.name == "t"
    assert sys.states == ("s",)
    assert sys.transitions == (("s", "a", "s"),)


STRICT_BASE = ("system t", "inputs a", "outputs 0", "init s", "state s 0", "trans s a s")
ONCE = ("system", "inputs", "outputs", "init")
END = len(STRICT_BASE)


def strict(mutation, rule, message, at=None, line=None):
    """A case of ``test_strict_errors``.

    A system, inputs, outputs or init ``mutation`` replaces the base line
    of its directive; any other is added.  It goes in at index ``at``, by
    default the replaced line's place or the end.  The error names
    ``line``, by default the mutation's own, and reads ``message`` whole.
    """
    return pytest.param(mutation, at, line, message, id=f"{mutation}-{rule}")


@pytest.mark.parametrize(
    "mutation, at, line, message",
    [
        strict("unknown", "unknown directive", "unknown directive 'unknown'"),
        strict("trans s c s", "undeclared input", "transition on undeclared input c"),
        strict("trans s a t", "undeclared state", "transition to undeclared state t"),
        strict("trans t a s", "undeclared source", "transition from undeclared state t"),
        strict("trans t c u", "all undeclared", "transition from undeclared state t"),
        strict("trans s a", "two arguments", "trans takes source, input symbol, target"),
        strict("trans s a s s", "four arguments", "trans takes source, input symbol, target"),
        strict("trans s c s # c is no input", "trailing comment", "transition on undeclared input c"),
        strict("state t 1", "undeclared output", "state t uses undeclared output 1"),
        strict("state s|x 0", "bad state token 's|x'", "bad state token 's|x'"),
        strict("state s 0", "duplicate state", "duplicate state s"),
        strict("inputs a a", "duplicate symbol 'a'", "duplicate symbol 'a'"),
        strict("outputs 0 0", "duplicate symbol '0'", "duplicate symbol '0'"),
        strict("system t|u", "bad system name 't|u'", "bad system name 't|u'"),
        strict("init u", "undeclared init state", "init state u not declared"),
        # Declaration order: a state needs the outputs, a transition the
        # inputs and both of its states, each on an earlier line.
        strict("trans s a s", "before its state", "transition from undeclared state s", at=4),
        strict("outputs 0", "after a state", "state s uses undeclared output 0", at=END, line=4),
        strict("inputs a", "after a transition", "transition on undeclared input a", at=END, line=5),
    ],
)
def test_strict_errors(mutation, at, line, message):
    lines = list(STRICT_BASE)
    directive = mutation.split()[0]
    if directive in ONCE:
        place = ONCE.index(directive)
        del lines[place]
    else:
        place = len(lines)
    at = place if at is None else at
    lines.insert(at, mutation)
    line = at + 1 if line is None else line
    with pytest.raises(FormatError, match=rf"^t\.sls:{line}: {re.escape(message)}$"):
        sls.loads("\n".join(lines) + "\n", source="t.sls")


def test_missing_init_is_an_error():
    text = "system t\ninputs a\noutputs 0\nstate s 0\ntrans s a s\n"
    with pytest.raises(FormatError, match="missing init"):
        sls.loads(text)


def test_duplicate_state_is_an_error():
    text = "system t\ninputs a\noutputs 0\ninit s\nstate s 0\nstate s 0\n"
    with pytest.raises(FormatError, match="duplicate state"):
        sls.loads(text)


def test_errors_carry_source_and_line():
    text = "system t\ninputs a\noutputs 0\ninit s\nstate s 0\nbogus x\n"
    with pytest.raises(FormatError, match=r"file\.sls:6"):
        sls.loads(text, source="file.sls")
