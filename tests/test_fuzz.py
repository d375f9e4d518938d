"""Seeded token mutations of every `.sls` and `.psy` fixture, run through the commands.

On each non-blank line of each fixture one token is dropped, duplicated
or renamed to a fresh name: the three edits take turns from a seeded
start, at a seeded position.
Whatever the mutation, ``check`` exits 0 or 2 without a traceback.  An
exit 2 is a loader error that names the file first, or, for a file
that loads but is incomplete (``inputs inputs a``: no state moves on
the symbol ``inputs``), only ``check``'s own ``incomplete:`` report.

Every command of :data:`syncreact.cli.COMMANDS` keeps the same contract
on the mutants: it exits 0, 2 or 3 without a traceback, a success ends
its output with a non-empty line, and a mutant that fails to load, is
incomplete, or fails to parse or typecheck is reported by an error that
names its file first.  Every line a command writes to stderr starts
with one of the prefixes of its diagnostics.  The composition commands
compose each fixture with a small complete receiver of its outputs, so
they reach the analyses instead of a signature mismatch.

Most token mutants never load, so two more families keep the file
well-formed and reach what lies behind the loaders.  A ``.sls`` file
has one ``trans`` line moved to another declared target state or one
``state`` line relabelled with another declared output: every such
mutant loads complete, and the analyses run on it.  A ``.psy`` body has
one token swapped for another that still parses (``tt`` for ``1``,
``!x`` for ``x``, ...): every such mutant breaks a typing rule, and
both ``psyc`` commands name the file and then the rule.
"""

import random
import re

import pytest

from syncreact import cli, psyc, sls
from syncreact.cli import main
from syncreact.core import validate
from syncreact.errors import UserError

from .conftest import ALL_SYSTEM_FIXTURES, FIXTURES

PROGRAMS = ["program1.psy", "program2.psy"]


def mutants(text: str, rng: random.Random):
    lines = text.splitlines()
    turn = rng.randrange(3)
    for i, line in enumerate(lines):
        tokens = line.split()
        if not tokens:
            continue
        k = rng.randrange(len(tokens))
        before, token, after = tokens[:k], tokens[k], tokens[k + 1 :]
        middle = ([], [token, token], ["fresh"])[(turn + i) % 3]
        yield "\n".join(lines[:i] + [" ".join(before + middle + after)] + lines[i + 1 :]) + "\n"


def retargeted(fixture, text: str, rng: random.Random):
    """Per ``trans`` and ``state`` line, the file with that line's last field changed.

    A transition moves to another declared state it does not already
    reach on that input; a state takes another declared output.
    """
    lines = text.splitlines()
    moves = {tuple(line.split()[1:]) for line in lines if line.startswith("trans ")}
    for i, line in enumerate(lines):
        kind, *fields = line.split() or [""]
        if kind == "trans":
            choices = [q for q in fixture.states if (*fields[:2], q) not in moves]
        elif kind == "state":
            choices = [x for x in fixture.outputs.symbols if x != fields[-1]]
        else:
            continue
        if choices:
            fields[-1] = rng.choice(choices)
            yield "\n".join(lines[:i] + [" ".join([kind, *fields])] + lines[i + 1 :]) + "\n"


# Token swaps that keep a program body parsable; each breaks a typing rule.
SWAPS = [
    (r"\btt\b", "1"),
    (r"\bff\b", "0"),
    (r"!(?=\w)", ""),  # !x -> x
    (r"(?<![-=] )\b\d+\b", "tt"),  # but not the literal of `- 1` or `!= 0`
    (r"\bget\b", "!get"),
    (r"- 1\b", "- 1 != 0"),
    (r"&&", "&& 3 &&"),
]


def ill_typed(text: str):
    """Per swap and per place in the body where it applies, the program with that one swap."""
    header, body = text.split("\n\n", 1)
    for pattern, replacement in SWAPS:
        for match in re.finditer(pattern, body):
            swapped = body[: match.start()] + replacement + body[match.end() :]
            yield f"{header}\n\n{swapped}"


def receiver(symbols) -> str:
    """A complete receiver reading ``symbols``, with one output per state:
    ``g0`` stays on the first symbol and moves to the sink ``g<j>`` on the j-th."""
    outputs = [f"r{j}" for j in range(len(symbols))]
    lines = ["system receiver", "inputs " + " ".join(symbols), "outputs " + " ".join(outputs)]
    lines += ["init g0", *(f"state g{j} {x}" for j, x in enumerate(outputs))]
    for i in range(len(symbols)):
        lines += [f"trans g{i} {x} g{i or j}" for j, x in enumerate(symbols)]
    return "\n".join(lines) + "\n"


def sls_commands(
    path: str, first: str, last: str, symbol: str, out: str, receiver: str
) -> list[list[str]]:
    """argv of every command run on the system at path, at its states first
    and last, composed with the receiver at ``receiver``."""
    composition = [path, receiver, "--qf", first, "--qg", "g0"]
    return [
        ["check", path],
        ["quotient", path, "-o", out],
        ["bisim", path, first, last],
        ["seppairs", path, first],
        ["separators", path, first, last, "--max-len", "3"],
        ["strongsep", path, first, last],
        ["reactime", path, first],
        ["diff", path, first, last, "-w", symbol],
        ["doe", path, first],
        ["ssp", path, first, last],
        ["sspseq", path, first],
        ["compose", "--seq", path, receiver, "-o", out],
        ["compose", "--par", path, path, "-o", out],
        ["lemma", *composition],
        ["doe-compose", *composition, "-t", "0"],
        ["dot", path],
    ]


def psyc_commands(path: str, out: str) -> list[list[str]]:
    """argv of every command run on the program at path."""
    return [["psyc", "typecheck", path], ["psyc", "build", path, "-o", out]]


# The prefixes of every line ``cli`` writes to stderr: diagnostics,
# certificates and argparse's usage and errors.
STDERR = (
    "error: ", "resource limit: ", "internal error: ", "incomplete: ", "note: ",
    "witness depth ", "bound ", "eq-cycle ", "usage: ", "syncreact: error: ",
)


def run_contract(argv: list[str], path: str, rejected: bool, capsys) -> None:
    """Run argv on the mutant at path, which its loader or checker ``rejected`` or not."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3) and "Traceback" not in err, (argv, err)
    assert all(line.startswith(STDERR) for line in err.splitlines()), (argv, err)
    if code == 0:
        assert out.splitlines()[-1:] not in ([], [""]), (argv, out)
    if code == 2 and rejected and not err.startswith(f"error: {path}:"):
        assert argv[0] == "check", (argv, err)
        assert all(line.startswith("incomplete: ") for line in err.splitlines()), (argv, err)


def _rejected_system(path: str) -> bool:
    try:
        return bool(validate(sls.load(path)))
    except UserError:
        return True


def _rejected_program(path: str) -> bool:
    try:
        psyc.load(path).typecheck()
    except UserError:
        return True
    return False


@pytest.mark.parametrize("name", ALL_SYSTEM_FIXTURES)
def test_check_survives_token_mutations(name, tmp_path, capsys):
    path = tmp_path / name
    for text in mutants((FIXTURES / name).read_text(encoding="utf-8"), random.Random(name)):
        path.write_text(text, encoding="utf-8")
        code = main(["check", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 2) and "Traceback" not in err, (text, err)
        if code == 2 and not err.startswith(f"error: {path}:"):
            assert all(line.startswith("incomplete: ") for line in err.splitlines()), (text, err)


def fixture_commands(name: str, tmp_path):
    """The fixture ``name``, and :func:`sls_commands` on its mutants at
    ``tmp_path / name`` with a :func:`receiver` of its outputs."""
    fixture = sls.load(FIXTURES / name)
    rcv = tmp_path / "rcv.sls"
    rcv.write_text(receiver(fixture.outputs.symbols), encoding="utf-8")
    first, last, symbol = fixture.states[0], fixture.states[-1], fixture.inputs.symbols[0]
    out = str(tmp_path / "out.sls")
    return fixture, sls_commands(str(tmp_path / name), first, last, symbol, out, str(rcv))


@pytest.mark.parametrize("name", ALL_SYSTEM_FIXTURES)
def test_every_command_keeps_its_contract_on_token_mutations(name, tmp_path, capsys):
    path = str(tmp_path / name)
    _, argvs = fixture_commands(name, tmp_path)
    for text in mutants((FIXTURES / name).read_text(encoding="utf-8"), random.Random(name)):
        (tmp_path / name).write_text(text, encoding="utf-8")
        rejected = _rejected_system(path)
        for argv in argvs:
            run_contract(argv, path, rejected, capsys)


@pytest.mark.parametrize("name", PROGRAMS)
def test_psyc_keeps_its_contract_on_token_mutations(name, tmp_path, capsys):
    path = str(tmp_path / name)
    argvs = psyc_commands(path, str(tmp_path / "out.sls"))
    for text in mutants((FIXTURES / name).read_text(encoding="utf-8"), random.Random(name)):
        (tmp_path / name).write_text(text, encoding="utf-8")
        rejected = _rejected_program(path)
        for argv in argvs:
            run_contract(argv, path, rejected, capsys)


def test_the_fuzz_runs_every_command():
    argvs = sls_commands("f", "p", "q", "a", "o", "g") + psyc_commands("f", "o")
    assert {argv[0] for argv in argvs} == set(cli.COMMANDS)


@pytest.mark.parametrize("name", ALL_SYSTEM_FIXTURES)
def test_every_command_keeps_its_contract_on_retargeted_systems(name, tmp_path, capsys):
    path = str(tmp_path / name)
    text = (FIXTURES / name).read_text(encoding="utf-8")
    fixture, argvs = fixture_commands(name, tmp_path)
    for mutant in retargeted(fixture, text, random.Random(name)):
        (tmp_path / name).write_text(mutant, encoding="utf-8")
        assert validate(sls.load(path)) == [], mutant
        for argv in argvs:
            run_contract(argv, path, False, capsys)


def test_psyc_names_the_broken_typing_rule_on_token_swaps(tmp_path, capsys):
    rules = set()
    for name in PROGRAMS:
        path = str(tmp_path / name)
        for text in ill_typed((FIXTURES / name).read_text(encoding="utf-8")):
            (tmp_path / name).write_text(text, encoding="utf-8")
            for argv in psyc_commands(path, str(tmp_path / "out.sls")):
                assert main(argv) == 2, (argv, text)
                err = capsys.readouterr().err
                assert err.startswith(f"error: {path}: "), (argv, err)
                rules.add(err[len(f"error: {path}: ") :].split(":")[0])
    assert {"Assign", "Tick", "Deref", "While", "NotZero", "Conj", "Dec"} <= rules, rules
