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
names its file first.
"""

import random

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


def sls_commands(path: str, first: str, last: str, symbol: str, out: str) -> list[list[str]]:
    """argv of every command run on the system at path, at its states first and last."""
    receiver = str(FIXTURES / "receiver.sls")
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


def run_contract(argv: list[str], path: str, rejected: bool, capsys) -> None:
    """Run argv on the mutant at path, which its loader or checker ``rejected`` or not."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3) and "Traceback" not in err, (argv, err)
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


@pytest.mark.parametrize("name", ALL_SYSTEM_FIXTURES)
def test_every_command_keeps_its_contract_on_token_mutations(name, tmp_path, capsys):
    path, out = str(tmp_path / name), str(tmp_path / "out.sls")
    fixture = sls.load(FIXTURES / name)
    first, last = fixture.states[0], fixture.states[-1]
    argvs = sls_commands(path, first, last, fixture.inputs.symbols[0], out)
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
    argvs = sls_commands("f", "p", "q", "a", "o") + psyc_commands("f", "o")
    assert {argv[0] for argv in argvs} == set(cli.COMMANDS)
