"""Seeded token mutations of every `.sls` fixture, run through ``check``.

On each line of each fixture one token is dropped, duplicated or renamed
to a fresh name: the three edits take turns from a seeded start, at a
seeded position.
Whatever the mutation, ``check`` exits 0 or 2 without a traceback.  An
exit 2 is a loader error that names the file first, or, for a file
that loads but is incomplete (``inputs inputs a``: no state moves on
the symbol ``inputs``), only ``check``'s own ``incomplete:`` report.
"""

import random

import pytest

from syncreact.cli import main

from .conftest import ALL_SYSTEM_FIXTURES, FIXTURES


def mutants(text: str, rng: random.Random):
    lines = text.splitlines()
    turn = rng.randrange(3)
    for i, line in enumerate(lines):
        tokens = line.split()
        k = rng.randrange(len(tokens))
        before, token, after = tokens[:k], tokens[k], tokens[k + 1 :]
        middle = ([], [token, token], ["fresh"])[(turn + i) % 3]
        yield "\n".join(lines[:i] + [" ".join(before + middle + after)] + lines[i + 1 :]) + "\n"


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
