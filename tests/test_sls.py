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
        "init s\nstate s 0\ntrans s a s\n"
    )
    sys = sls.loads(text)
    assert sys.name == "t"
    assert sys.states == ("s",)


STRICT_BASE = ("system t", "inputs a", "outputs 0", "init s", "state s 0")
ONCE = ("system", "inputs", "outputs")


@pytest.mark.parametrize(
    "mutation, message",
    [
        ("unknown", "unknown directive"),
        ("trans s c s", "undeclared input"),
        ("trans s a t", "undeclared state"),
        ("state t 1", "undeclared output"),
        ("state s|x 0", "bad state token 's|x'"),
        ("inputs a a", "duplicate symbol 'a'"),
        ("outputs 0 0", "duplicate symbol '0'"),
        ("system t|u", "bad system name 't|u'"),
    ],
)
def test_strict_errors(mutation, message):
    # A system, inputs or outputs line replaces the base one; others are appended.
    lines = list(STRICT_BASE)
    directive = mutation.split()[0]
    at = ONCE.index(directive) if directive in ONCE else len(lines)
    lines[at : at + 1] = [mutation]
    with pytest.raises(FormatError, match=rf"^t\.sls:{at + 1}: .*{re.escape(message)}"):
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
