"""Load and save the line-oriented `.sls` textual system format.

Format, one directive per line, tokens whitespace separated, ``#`` to
end of line is a comment::

    system NAME
    inputs SYM ...
    outputs SYM ...
    init STATE
    state STATE OUTSYM
    trans STATE INSYM STATE

Parsing is strict: unknown directives, undeclared symbols or states,
duplicates, and a missing ``init`` are errors.  Every error names the
source and, where it has one, the line.

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

from .core import Alphabet, SynchronousSystem, is_token
from .errors import FormatError, UnknownSymbol


def loads(text: str, source: str = "<string>") -> SynchronousSystem:
    name = None
    inputs = None
    outputs = None
    init = None
    states: list[str] = []
    out_label: dict[str, str] = {}
    transitions: list[tuple[str, str, str]] = []

    def err(lineno: int, message: str) -> FormatError:
        return FormatError(f"{source}:{lineno}: {message}")

    def alphabet(lineno: int, symbols: list[str]) -> Alphabet:
        try:
            return Alphabet(tuple(symbols))
        except UnknownSymbol as exc:
            raise err(lineno, str(exc)) from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        if directive == "system":
            if name is not None:
                raise err(lineno, "duplicate system directive")
            if len(args) != 1:
                raise err(lineno, "system takes exactly one name")
            name = args[0]
            if not is_token(name):
                raise err(lineno, f"bad system name {name!r}")
        elif directive == "inputs":
            if inputs is not None:
                raise err(lineno, "duplicate inputs directive")
            if not args:
                raise err(lineno, "inputs must list at least one symbol")
            inputs = alphabet(lineno, args)
        elif directive == "outputs":
            if outputs is not None:
                raise err(lineno, "duplicate outputs directive")
            if not args:
                raise err(lineno, "outputs must list at least one symbol")
            outputs = alphabet(lineno, args)
        elif directive == "init":
            if init is not None:
                raise err(lineno, "duplicate init directive")
            if len(args) != 1:
                raise err(lineno, "init takes exactly one state")
            init = args[0]
        elif directive == "state":
            if len(args) != 2:
                raise err(lineno, "state takes a name and an output symbol")
            state, out = args
            if not is_token(state):
                raise err(lineno, f"bad state token {state!r}")
            if state in out_label:
                raise err(lineno, f"duplicate state {state}")
            if outputs is None or out not in outputs.symbols:
                raise err(lineno, f"state {state} uses undeclared output {out}")
            states.append(state)
            out_label[state] = out
        elif directive == "trans":
            if len(args) != 3:
                raise err(lineno, "trans takes source, input symbol, target")
            src, sym, dst = args
            if src not in out_label:
                raise err(lineno, f"transition from undeclared state {src}")
            if dst not in out_label:
                raise err(lineno, f"transition to undeclared state {dst}")
            if inputs is None or sym not in inputs.symbols:
                raise err(lineno, f"transition on undeclared input {sym}")
            transitions.append((src, sym, dst))
        else:
            raise err(lineno, f"unknown directive {directive!r}")

    if name is None:
        raise FormatError(f"{source}: missing system directive")
    if inputs is None:
        raise FormatError(f"{source}: missing inputs directive")
    if outputs is None:
        raise FormatError(f"{source}: missing outputs directive")
    if init is None:
        raise FormatError(f"{source}: missing init directive")
    if init not in out_label:
        raise FormatError(f"{source}: init state {init} not declared")
    return SynchronousSystem(
        name=name,
        inputs=inputs,
        outputs=outputs,
        states=tuple(states),
        transitions=tuple(transitions),
        out_label=out_label,
        initial=init,
    )


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
