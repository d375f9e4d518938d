"""Command line surface tying the analyses together.

Results go to stdout, diagnostics to stderr.  Boolean queries print
``true`` or ``false`` on the last line.  Exit statuses follow the error
class: 0 success, 2 usage and :class:`UserError` (parse, type and build
errors, incomplete systems), 3 :class:`ResourceError`, 4 any other
internal invariant breach.

Every command runs in a process of its own, so start-up counts, and
a command compiles only what it runs.  This module is the dispatcher:
the table of commands, the direct read of the command line, the run of
one handler and the mapping from errors to exit statuses.  The handlers
live in :mod:`syncreact.commands`, one module per family of commands
that load the same layers, and a command imports only its own family's
module (:func:`_handler`).  Each handler imports the layers it runs.
No command loads ``dataclasses`` or ``inspect``: the value classes
derive from :class:`syncreact.core.Record`.  Nor does a well-formed
command load ``argparse`` (and with it ``gettext`` and ``locale``):
argparse loads only for help, usage and errors.  The ``syncreact``
modules a command loads:

- ``check``, ``bisim``, ``quotient``: ``cli``, ``commands``, ``core``,
  ``errors``, ``sls`` and ``commands.tables``, and ``witness`` for
  ``bisim`` on a non-bisimilar pair;
- ``compose``, ``dot``: the same and ``compose`` or ``dot``;
- ``seppairs``, ``separators``, ``strongsep``, ``reactime``, ``diff``:
  the first five and ``commands.pairs``, ``separation`` and
  ``reactivity``, and ``frontier`` for ``separators`` and ``diff``;
- ``doe``, ``sspseq``, ``ssp``: the first five and ``commands.levels``,
  ``separation``, ``lasso``, ``frontier`` and ``abstraction``, but not
  ``reactivity``: ``doe``'s "not reactive" note reads ``separation``.
  ``ssp`` on two files also loads ``compose`` for their disjoint union;
- ``lemma``, ``doe-compose``: the first five and ``commands.lemma``,
  ``separation``, ``lasso``, ``frontier``, ``abstraction`` and ``lemma``;
- ``doe``, ``sspseq``, ``lemma``, ``doe-compose``: also ``orbits``, for a
  level walk still going at ``abstraction.SPLIT_LEVEL`` that splits;
- ``psyc typecheck``, ``psyc build``: the first five,
  ``commands.programs`` and the ``psyc`` package.

:data:`COMMANDS` is the one table of the command line: each command's
help text, handler and arguments.  :func:`main` first reads the command
line straight from the named command's entry (:func:`_read`): its
positionals in order, its flags each given once with a value, its
required choice, ``psyc``'s subcommand and the defaults, into a
namespace with the attributes argparse would set.  Anything else, from
``-h`` or ``--`` to an abbreviated flag, a missing argument or a value
its type rejects, is left to argparse, which stays the only source of
help, usage and error text: :func:`syncreact.commands.usage.build_parser`
builds the one parser of every command from the same table.  Importing
argparse and parsing with it cost a few milliseconds of each command's
start-up, much of it ``gettext`` loading ``locale`` for argparse's
first message lookup.

:func:`main` pauses the cyclic garbage collector for the command and
restores its previous state on the way out; run as a process, this
module pauses it before its own imports, which compile ``commands``,
``core``, ``sls`` and ``errors``.  A command builds tables of
tens of thousands of containers that live until it exits.  Each
collection their allocation sets off would scan them again and free
next to nothing: what a command leaves in cycles is a few hundred
objects at most (argparse's, when it runs), whatever the input.
In-process callers, tests among them, get their collector back when it
returns.

:func:`entry` is the process's entry point, for ``python -m
syncreact.cli`` and the installed ``syncreact`` script alike.  It runs
:func:`main`, then moves every object the process holds into the
collector's permanent generation (:func:`gc.freeze`), so the full
collections the interpreter runs as it shuts down skip them: what
``site``, the command's layers and its tables made is not scanned
again.  ``atexit`` handlers still run, so a profiler or coverage
started around the command still writes its data.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()  # run as a process: this module's own imports compile with it paused

import sys as _sys
from importlib import import_module
from types import SimpleNamespace

from .commands import EXIT_INTERNAL, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE
from .errors import ResourceError, SyncReactError, UserError


def _at_least(least: int):
    """Argument type: an integer no smaller than ``least`` (else a usage error)."""

    def bound(text: str) -> int:
        value = int(text)
        if value < least:
            import argparse

            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    bound.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return bound


def _option(*flags, **options) -> tuple:
    """An option of a :data:`COMMANDS` entry: its flags and add_argument options."""
    return flags, options


_OUTPUT = _option("-o", "--output", required=True)
_SENDER_RECEIVER = ("f", "g", _option("--qf", required=True), _option("--qg", required=True))

# Every command, in the order help lists them: its help, its handler and
# its arguments.  A handler is named ``module.function`` in
# ``syncreact.commands`` (see _handler), and the handler of ``psyc`` is a
# table of its subcommands.  An argument is a positional name or an
# _option; a tuple of flags is a choice of exactly one of them (``compose``).
# fmt: off
COMMANDS = {
    "check": ("validate a .sls file", "tables.cmd_check", "file"),
    "quotient": ("write the bisimulation quotient", "tables.cmd_quotient", "file", _OUTPUT),
    "bisim": ("are two states bisimilar?", "tables.cmd_bisim", "file", "p", "q"),
    "seppairs": ("separating pairs of a state", "pairs.cmd_seppairs", "file", "state"),
    "separators": ("minimal separators of a state pair", "pairs.cmd_separators", "file", "p", "q",
                   _option("--max-len", type=_at_least(0), default=4)),
    "strongsep": ("is a state pair strongly separable?", "pairs.cmd_strongsep", "file", "p", "q"),
    "reactime": ("deterministic reaction time of a state", "pairs.cmd_reactime", "file", "state"),
    "diff": ("observable effects along a word", "pairs.cmd_diff", "file", "p", "q",
             _option("-w", "--word", required=True, help="input word, e.g. 'tt ff'")),
    "doe": ("deterministic observable effects of a state", "levels.cmd_doe", "file", "state"),
    "ssp": ("strongly separating pairs of two states", "levels.cmd_ssp", "file", "p",
            _option("rest", nargs="+", metavar="[FILE2] Q")),
    "sspseq": ("strongly separating pair sequence", "levels.cmd_sspseq", "file", "state"),
    "compose": ("compose two systems", "tables.cmd_compose", ("--seq", "--par"), "f", "g", _OUTPUT),
    "lemma": ("reactivity guarantee for a composition", "lemma.cmd_lemma", *_SENDER_RECEIVER),
    "doe-compose": ("composite observable effects at index t", "lemma.cmd_doe_compose",
                    *_SENDER_RECEIVER, _option("-t", type=int, required=True)),
    "psyc": ("language frontend", {
        "typecheck": ("typecheck a .psy program", "programs.cmd_psyc_typecheck", "file"),
        "build": ("build the system of a .psy program", "programs.cmd_psyc_build", "file",
                  _option("--max-states", type=_at_least(1), default=10_000), _OUTPUT),
    }),
    "dot": ("export a system to DOT", "tables.cmd_dot", "file", _option("-o", "--output")),
}
# fmt: on


def _read(argv: list[str], table: dict = COMMANDS, dest: str = "command"):
    """The namespace argparse would make of ``argv``, read straight from
    its :data:`COMMANDS` entry, or None to leave it to argparse.

    It declines whatever argparse might answer with help, usage or an
    error: an unknown command, a token starting with ``-`` that is not
    one of the command's flags, a flag given twice or without a value, a
    value starting with ``-``, the wrong number of positionals, a missing
    required option or choice, and a ``type`` that raises.  A positional
    given as an :func:`_option` is a ``nargs="+"`` rest: it comes last and
    takes every positional left, and no flag may follow its first one.
    """
    if not argv or argv[0] not in table:
        return None
    name, *tokens = argv
    _, handler, *arguments = table[name]
    if isinstance(handler, dict):
        args = _read(tokens, handler, f"{name}_command")
        if args is not None:
            setattr(args, dest, name)
        return args
    values = {dest: name, "func": handler}
    positionals, rest, flags, required, choices = [], None, {}, set(), []
    for argument in arguments:
        if isinstance(argument, str):
            positionals.append(argument)
        elif isinstance(argument[0], str):
            choices.append({flag[2:] for flag in argument})
            for flag in argument:
                flags[flag] = (flag[2:], None)
                values[flag[2:]] = False
        elif argument[0][0][0] != "-":
            rest = argument[0][0]
        else:
            names, options = argument
            long = [flag for flag in names if flag.startswith("--")]
            key = (long or names)[0].lstrip("-").replace("-", "_")
            values[key] = options.get("default")
            flags.update((flag, (key, options)) for flag in names)
            if options.get("required"):
                required.add(key)
    words, given = [], set()
    tokens = iter(tokens)
    for token in tokens:
        if token[:1] != "-":
            words.append(token)
            continue
        key, options = flags.get(token, (None, None))
        if key is None or key in given or (rest and len(words) > len(positionals)):
            return None
        given.add(key)
        if options is None:
            values[key] = True
            continue
        value = next(tokens, "-")
        if value[:1] == "-":
            return None
        try:
            values[key] = options.get("type", str)(value)
        except Exception:  # argparse calls the type again, and reports what it raises
            return None
    if rest:
        values[rest] = words[len(positionals) :]
        del words[len(positionals) :]
    if (
        len(words) != len(positionals)
        or (rest and not values[rest])
        or not required <= given
        or any(len(given & choice) != 1 for choice in choices)
    ):
        return None
    values.update(zip(positionals, words))
    return SimpleNamespace(**values)


def _handler(name: str):
    """The handler a :data:`COMMANDS` entry names, ``module.function`` in
    :mod:`syncreact.commands`, imported with its module alone."""
    module, _, function = name.partition(".")
    return getattr(import_module(f".commands.{module}", __package__), function)


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector paused (see the module notes)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    if argv is None:
        argv = _sys.argv[1:]
    args = _read(argv)
    if args is None:
        from .commands.usage import build_parser

        try:
            args = build_parser(COMMANDS).parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _handler(args.func)(args)
    except UserError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=_sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=_sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except (SyncReactError, AssertionError) as exc:
        print(f"internal error: {exc}", file=_sys.stderr)
        return EXIT_INTERNAL


def entry() -> int:
    """Run :func:`main` as a whole process, then freeze its objects (see the module notes)."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
