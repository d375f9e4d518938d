"""Byte-level snapshot of the command line on the fixtures.

Every command of the README's "Command line" block runs in process,
followed by a sweep of the analyses over every fixture state and state
pair, the cross-file commands on every sender/receiver pairing and the
file writers.  Exit status, stdout, stderr (certificates such as the
``strongsep`` cycle or bound and the ``bisim`` witness depth) and the
bytes of every ``-o`` file are compared with ``tests/golden_cli.txt``.

A mismatch means an answer, an order or a byte changed; the snapshot
is a record of the command line's behaviour, not something to refresh
when this test fails.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import pathlib
import shlex
import shutil

from syncreact import cli, sls
from syncreact.cli import main

from .conftest import ALL_SYSTEM_FIXTURES, FIXTURES

ROOT = FIXTURES.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_cli.txt"

SENDERS = ["delay1.sls", "disap_f.sls", "union.sls", "union1.sls", "union2.sls"]
RECEIVERS = ["receiver.sls", "disap_g.sls"]
PAR = [("toggle.sls", "const.sls"), ("p1.sls", "toggle.sls"), ("union1.sls", "delay1.sls")]


def readme_commands() -> list[list[str]]:
    """argv lists of the ``syncreact`` lines in the README's Command line block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("syncreact ")]


def sweep_commands() -> list[list[str]]:
    """Per-state and per-pair analyses over every fixture, then cross-file ones."""
    commands = []
    for name in ALL_SYSTEM_FIXTURES:
        path = f"fixtures/{name}"
        system = sls.load(FIXTURES / name)
        states = system.states
        first, last = system.inputs.symbols[0], system.inputs.symbols[-1]
        for q in states:
            for command in ("seppairs", "reactime", "doe", "sspseq"):
                commands.append([command, path, q])
        for p, q in itertools.product(states, repeat=2):
            commands.append(["bisim", path, p, q])
            commands.append(["strongsep", path, p, q])
            commands.append(["separators", path, p, q, "--max-len", "3"])
            commands.append(["diff", path, p, q, "-w", f"{first} {last} {first}"])
            commands.append(["ssp", path, p, q])
        commands.append(["quotient", path, "-o", "quot.sls"])
        commands.append(["dot", path, "-o", "sys.dot"])
    for a, b in itertools.product(["union1.sls", "union2.sls", "union.sls"], repeat=2):
        sys_a = sls.load(FIXTURES / a)
        sys_b = sls.load(FIXTURES / b)
        for p, q in itertools.product(sys_a.states, sys_b.states):
            commands.append(["ssp", f"fixtures/{a}", p, f"fixtures/{b}", q])
    for f, g in itertools.product(SENDERS, RECEIVERS):
        pf, pg = f"fixtures/{f}", f"fixtures/{g}"
        commands.append(["compose", "--seq", pf, pg, "-o", "out.sls"])
        sys_f = sls.load(FIXTURES / f)
        sys_g = sls.load(FIXTURES / g)
        for qf, qg in itertools.product(sys_f.states, sys_g.states):
            commands.append(["lemma", pf, pg, "--qf", qf, "--qg", qg])
            for t in range(3):
                commands.append(["doe-compose", pf, pg, "--qf", qf, "--qg", qg, "-t", str(t)])
    for f, g in PAR:
        commands.append(["compose", "--par", f"fixtures/{f}", f"fixtures/{g}", "-o", "out.sls"])
    return commands


def _outputs(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in ("-o", "--output")]


def render_command(argv: list[str]) -> str:
    """One snapshot record; run with the fixtures copied to the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    parts = [f"$ syncreact {shlex.join(argv)}", f"[exit {code}]", out.getvalue()]
    parts += ["[stderr]", err.getvalue()]
    for target in _outputs(argv):
        path = pathlib.Path(target)
        parts.append(f"[file {target}]")
        if path.exists():
            parts.append(path.read_text(encoding="utf-8"))
            path.unlink()
        else:
            parts.append("<missing>\n")
    return "\n".join(parts)


def render(workdir: pathlib.Path) -> str:
    """The whole snapshot, computed inside ``workdir``."""
    shutil.copytree(FIXTURES, workdir / "fixtures")
    here = os.getcwd()
    os.chdir(workdir)
    try:
        commands = readme_commands() + sweep_commands()
        return "".join(render_command(argv) + "\n" for argv in commands)
    finally:
        os.chdir(here)


def test_readme_block_is_found():
    assert len(readme_commands()) >= 16


def test_the_snapshot_runs_every_command():
    assert {argv[0] for argv in readme_commands() + sweep_commands()} == set(cli.COMMANDS)


def test_cli_output_matches_snapshot(tmp_path):
    expected = GOLDEN.read_text(encoding="utf-8").split("\n$ syncreact ")
    actual = render(tmp_path).split("\n$ syncreact ")
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want
