"""Load and save the line-oriented `.sls` textual system format.

Format, one directive per line, tokens whitespace separated, ``#`` to
end of line is a comment::

    system NAME
    inputs SYM ...
    outputs SYM ...
    init STATE
    state STATE OUTSYM
    trans STATE INSYM STATE

Parsing is one pass and strict: each ``state`` and ``trans`` line fills
the system's tables through the name checks of the validating
:class:`~syncreact.core.SynchronousSystem` constructor, so a name must
be declared on an earlier line: a ``state`` needs ``outputs``, a
``trans`` needs ``inputs`` and both of its states.  Unknown directives,
undeclared symbols or states, duplicates, and a missing ``init`` are
errors.  Every error names the source and, where it has one, the line.

A system is its tables, so the transitions are a set: the writer emits
states in declaration order and transitions in table order, state by
state and input by input, each row's successors in the order they were
first declared, each triple once (the ``transitions`` of
:class:`~syncreact.core.SynchronousSystem`, walked one by one).  A file
thus round-trips byte exactly when it is canonical: the ``system``,
``inputs``, ``outputs`` and ``init`` lines in that order, then every
``state`` line, then every ``trans`` line in table order without
repeats, one space between tokens, no comments or blank lines, and
every line ended by a newline.
"""

from __future__ import annotations

import io

from .core import Alphabet, SynchronousSystem, _Tables
from .errors import FormatError, UnknownState, UnknownSymbol


_ONCE = ("system", "inputs", "outputs", "init")


def loads(text: str, source: str = "<string>") -> SynchronousSystem:
    tables = _Tables()
    state, trans = tables.state, tables.trans
    seen: set[str] = set()
    init = init_line = None
    lineno = 0

    def err(message: str) -> FormatError:
        return FormatError(f"{source}:{lineno}: {message}")

    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            directive, args = tokens[0], tokens[1:]
            if directive == "trans":
                if len(args) != 3:
                    raise err("trans takes source, input symbol, target")
                trans(*args)
            elif directive == "state":
                if len(args) != 2:
                    raise err("state takes a name and an output symbol")
                state(*args)
            elif directive in _ONCE:
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


def load(path) -> SynchronousSystem:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return loads(text, source=str(path))


def dumps(sys: SynchronousSystem) -> str:
    states, symbols, outputs = sys.states, sys.inputs.symbols, sys.outputs.symbols
    out = io.StringIO()
    write = out.write
    write(f"system {sys.name}\n")
    write("inputs " + " ".join(symbols) + "\n")
    write("outputs " + " ".join(outputs) + "\n")
    write(f"init {sys.initial}\n")
    for q, o in zip(states, sys.out_ids):
        write(f"state {q} {outputs[o]}\n")
    for (src, sym, dst) in sys.iter_transitions():
        write(f"trans {src} {sym} {dst}\n")
    return out.getvalue()


def dump(sys: SynchronousSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(sys))
