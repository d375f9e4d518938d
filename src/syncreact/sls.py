"""Load and save the line-oriented `.sls` textual system format.

Format, one directive per line, tokens whitespace separated, ``#`` to
end of line is a comment::

    system NAME
    inputs SYM ...
    outputs SYM ...
    init STATE
    state STATE OUTSYM
    trans STATE INSYM STATE

Parsing is one pass and strict, and splits each line once, cutting it
at ``#`` only when the text holds one.  Each ``state`` line fills the
system's tables through the name checks of the validating
:class:`~syncreact.core.SynchronousSystem` constructor, and a well-formed
``trans`` line fills its row in place, calling those checks only to
raise its error, so a name must be declared on an earlier line: a
``state`` needs ``outputs``, a ``trans`` needs ``inputs`` and both of
its states.  Unknown directives, undeclared symbols or states,
duplicates, and a missing ``init`` are errors.  Every error names the
source and, where it has one, the line.

A system is its tables, so the transitions are a set: the writer emits
states in declaration order and transitions in table order, state by
state and input by input, each row's successors in the order they were
first declared, each triple once (the ``transitions`` of
:class:`~syncreact.core.SynchronousSystem`).  It builds the text a block
of states at a time: :func:`dump` writes each block to the file as it
is built, and :func:`dumps` joins the same blocks.  A file
thus round-trips byte exactly when it is canonical: the ``system``,
``inputs``, ``outputs`` and ``init`` lines in that order, then every
``state`` line, then every ``trans`` line in table order without
repeats, one space between tokens, no comments or blank lines, and
every line ended by a newline.
"""

from __future__ import annotations

from typing import Iterator

from .core import Alphabet, SynchronousSystem, _Tables
from .errors import FormatError, UnknownState, UnknownSymbol


_ONCE = ("system", "inputs", "outputs", "init")


def loads(text: str, source: str = "<string>") -> SynchronousSystem:
    tables = _Tables()
    state, index, column, succ = tables.state, tables.index, tables.column, tables.succ
    seen: set[str] = set()
    init = init_line = None
    lineno = 0
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]

    def err(message: str) -> FormatError:
        return FormatError(f"{source}:{lineno}: {message}")

    try:
        for lineno, line in enumerate(lines, start=1):
            tokens = line.split()
            if not tokens:
                continue
            directive = tokens[0]
            if directive == "trans":
                if len(tokens) != 4:
                    raise err("trans takes source, input symbol, target")
                _, src, sym, dst = tokens
                s, a, t = index.get(src), column.get(sym), index.get(dst)
                if s is None or a is None or t is None:
                    tables.trans(src, sym, dst)
                moves = succ[s][a]
                if t not in moves:
                    moves.append(t)
            elif directive == "state":
                if len(tokens) != 3:
                    raise err("state takes a name and an output symbol")
                state(tokens[1], tokens[2])
            elif directive in _ONCE:
                args = tokens[1:]
                if directive in seen:
                    raise err(f"duplicate {directive} directive")
                seen.add(directive)
                if directive == "system":
                    if len(args) != 1:
                        raise err("system takes exactly one name")
                    tables.set_name(args[0])
                elif directive == "init":
                    if len(args) != 1:
                        raise err("init takes exactly one state")
                    init, init_line = args[0], lineno
                elif not args:
                    raise err(f"{directive} must list at least one symbol")
                elif directive == "inputs":
                    tables.set_inputs(Alphabet(tuple(args)))
                    column, succ = tables.column, tables.succ
                else:
                    tables.set_outputs(Alphabet(tuple(args)))
            else:
                raise err(f"unknown directive {directive!r}")
        for directive in _ONCE:
            if directive not in seen:
                raise FormatError(f"{source}: missing {directive} directive")
        # The initial state is checked last, against its init line.
        lineno = init_line
        return tables.build(init)
    except (UnknownState, UnknownSymbol) as exc:
        raise err(str(exc)) from None


def read_text(path) -> str:
    """The text of a UTF-8 file, ``.sls`` or ``.psy``; other bytes raise FormatError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load(path) -> SynchronousSystem:
    return loads(read_text(path), source=str(path))


# States whose lines the writer joins into one chunk.
_CHUNK_STATES = 1024


def _chunks(sys: SynchronousSystem) -> Iterator[str]:
    """The file text in pieces: the header, then the lines of a block of states at a time."""
    states, symbols, outputs = sys.states, sys.inputs.symbols, sys.outputs.symbols
    yield (
        f"system {sys.name}\n"
        f"inputs {' '.join(symbols)}\n"
        f"outputs {' '.join(outputs)}\n"
        f"init {sys.initial}\n"
    )
    out_ids, succ = sys.out_ids, sys.succ
    blocks = [slice(lo, lo + _CHUNK_STATES) for lo in range(0, len(states), _CHUNK_STATES)]
    for block in blocks:
        yield "".join([f"state {q} {outputs[o]}\n" for q, o in zip(states[block], out_ids[block])])
    for block in blocks:
        yield "".join([
            f"trans {q} {a} {states[t]}\n"
            for q, moves in zip(states[block], succ[block])
            for a, ts in zip(symbols, moves)
            for t in ts
        ])


def dumps(sys: SynchronousSystem) -> str:
    return "".join(_chunks(sys))


def dump(sys: SynchronousSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_chunks(sys))
