"""Command line surface tying the analyses together.

Results go to stdout, diagnostics to stderr.  Boolean queries print
``true`` or ``false`` on the last line.  Exit statuses follow the error
class: 0 success, 2 usage and :class:`UserError` (parse, type and build
errors, incomplete systems), 3 :class:`ResourceError`, 4 any other
internal invariant breach.

Every command runs in a process of its own, so start-up counts.  Only
``sls``, ``core`` and ``errors`` load with this module; each command
imports the layers it runs inside its handler.  No command loads
``dataclasses`` or ``inspect``: the value classes derive from
:class:`syncreact.core.Record`.  Nor does a well-formed command load
``argparse`` (and with it ``gettext`` and ``locale``): argparse loads
only for help, usage and errors.  The ``syncreact`` modules a command
loads:

- ``check``, ``bisim``, ``quotient``: ``cli``, ``core``, ``errors``, ``sls``,
  and ``witness`` for ``bisim`` on a non-bisimilar pair;
- ``seppairs``, ``separators``, ``strongsep``, ``reactime``, ``diff``:
  those and ``separation`` and ``reactivity``;
- ``doe``, ``sspseq``, ``ssp``, ``lemma``, ``doe-compose``: the first set
  and ``separation``, ``lasso`` and ``abstraction``, but not
  ``reactivity``: ``doe``'s "not reactive" note reads ``separation``.
  ``ssp`` on two files also loads ``compose`` for their disjoint union;
- ``compose``: the first set and ``compose``; ``dot``: the first set and
  ``dot``; ``psyc``: the first set and the ``psyc`` package.

:data:`COMMANDS` is the one table of the command line: each command's
help text, handler and arguments.  :func:`main` first reads the command
line straight from the named command's entry (:func:`_read`): its
positionals in order, its flags each given once with a value, its
required choice, ``psyc``'s subcommand and the defaults, into a
namespace with the attributes argparse would set.  Anything else, from
``-h`` or ``--`` to an abbreviated flag, a missing argument or a value
its type rejects, is left to argparse, which stays the only source of
help, usage and error text: :func:`build_parser` builds the one parser
of every command from the same table.  Importing argparse and parsing
with it cost a few milliseconds of each command's start-up, much of it
``gettext`` loading ``locale`` for argparse's first message lookup.

:func:`main` pauses the cyclic garbage collector for the command and
restores its previous state on the way out.  A command builds tables of
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
import sys as _sys
from types import SimpleNamespace

from . import sls
from .core import (
    SynchronousSystem,
    bisim_quotient,
    non_bisimilar,
    require_complete,
    validate,
)
from .errors import (
    BuildError,
    IntRangeExceeded,
    NonFiniteIntRange,
    PreconditionFailed,
    PsyTypeError,
    ResourceError,
    SyncReactError,
    UserError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _load_complete(path: str) -> SynchronousSystem:
    """Load a system for analysis; every analysis assumes completeness."""
    sys = sls.load(path)
    report = validate(sys)
    if report:
        raise PreconditionFailed(f"{path}: {report[0]}")
    return sys


def _word(text: str) -> list[str]:
    return text.split()


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


def _print_bool(value: bool) -> int:
    print("true" if value else "false")
    return EXIT_OK


def cmd_check(args) -> int:
    sys = sls.load(args.file)
    report = validate(sys)
    for issue in report:
        print(issue, file=_sys.stderr)
    if report:
        return EXIT_USAGE
    print("ok")
    return EXIT_OK


def cmd_quotient(args) -> int:
    sys = _load_complete(args.file)
    partition, quotient = bisim_quotient(sys)
    sls.dump(quotient, args.output)
    print(f"classes {len(partition.classes)}")
    return EXIT_OK


def cmd_bisim(args) -> int:
    sys = _load_complete(args.file)
    witness = non_bisimilar(sys, args.p, args.q)
    if witness is not None:
        print(f"witness depth {witness.depth}", file=_sys.stderr)
    return _print_bool(witness is None)


def cmd_seppairs(args) -> int:
    from . import reactivity

    sys = _load_complete(args.file)
    result = reactivity.separating_pairs(sys, args.state)
    det = set(result.deterministic_subset)
    for pair in result.pairs:
        suffix = " det" if pair in det else ""
        print(f"pair {pair[0]} {pair[1]}{suffix}")
    print(f"seppairs {len(result.pairs)}")
    return EXIT_OK


def cmd_separators(args) -> int:
    from . import reactivity

    sys = _load_complete(args.file)
    found = reactivity.separators(sys, args.p, args.q, args.max_len)
    for (word, deterministic) in found:
        suffix = " det" if deterministic else ""
        body = (" " + " ".join(word)) if word else ""
        print(f"sep{body}{suffix}")
    print(f"separators {len(found)}")
    return EXIT_OK


def cmd_strongsep(args) -> int:
    from . import reactivity

    sys = _load_complete(args.file)
    verdict = reactivity.strongly_separable(sys, args.p, args.q)
    if verdict.separable:
        print(f"bound {verdict.bound}", file=_sys.stderr)
    else:
        steps = " ".join(f"{p}|{q}:{sym}" for ((p, q), sym) in verdict.cycle)
        print(f"eq-cycle {steps}", file=_sys.stderr)
    return _print_bool(verdict.separable)


def cmd_reactime(args) -> int:
    from . import reactivity

    sys = _load_complete(args.file)
    result = reactivity.det_reaction_time(sys, args.state)
    if not result.is_finite:
        print("reactime infinite")
    elif result.witness:
        print(f"reactime finite {result.time} witness " + " ".join(result.witness))
    else:
        print(f"reactime finite {result.time}")
    return EXIT_OK


def cmd_diff(args) -> int:
    from . import reactivity

    sys = _load_complete(args.file)
    word = _word(args.word)
    table = reactivity.diff(sys, args.p, args.q, word)
    for index, values in enumerate(table):
        rendered = []
        for value in sorted(values, key=lambda v: ("", "") if v is None else v):
            rendered.append("*" if value is None else f"({value[0]},{value[1]})")
        print(f"diff {index} " + " ".join(rendered))
    return EXIT_OK


def cmd_doe(args) -> int:
    from . import abstraction
    from .lasso import format_effect_sequence
    from .separation import separating_ids

    sys = _load_complete(args.file)
    (i,) = require_complete(sys, args.state)
    if not separating_ids(sys, i, i)[0]:
        print(f"note: state {args.state} is not reactive", file=_sys.stderr)
    print(format_effect_sequence(abstraction.doe(sys, args.state)))
    return EXIT_OK


def cmd_ssp(args) -> int:
    from . import abstraction
    from .compose import disjoint_union
    from .lasso import format_pair_set

    sys, p = _load_complete(args.file), args.p
    if len(args.rest) == 1:
        q = args.rest[0]
    elif len(args.rest) == 2:
        other, q = _load_complete(args.rest[0]), args.rest[1]
        union, prefix_a, prefix_b = disjoint_union(sys, other)
        sys.check_state(p)
        other.check_state(q)
        sys, p, q = union, prefix_a + p, prefix_b + q
    else:
        print("error: ssp takes FILE P [FILE2] Q", file=_sys.stderr)
        return EXIT_USAGE
    pairs = abstraction.ssp(sys, p, q)
    print(format_pair_set(frozenset(pairs)))
    return EXIT_OK


def cmd_sspseq(args) -> int:
    from . import abstraction
    from .lasso import format_pair_set_sequence

    sys = _load_complete(args.file)
    print(format_pair_set_sequence(abstraction.ssp_seq(sys, args.state)))
    return EXIT_OK


def cmd_compose(args) -> int:
    from . import compose

    sys_f = _load_complete(args.f)
    sys_g = _load_complete(args.g)
    if args.seq:
        composed = compose.seq_compose(sys_f, sys_g)
    else:
        composed = compose.par_compose(sys_f, sys_g)
    sls.dump(composed.system, args.output)
    print(f"states {len(composed.system.states)}")
    return EXIT_OK


def cmd_lemma(args) -> int:
    from . import abstraction

    sys_f = _load_complete(args.f)
    sys_g = _load_complete(args.g)
    verdict = abstraction.lemma_check(sys_f, args.qf, sys_g, args.qg)
    if verdict.guaranteed:
        print(f"GuaranteedReactive {verdict.index}")
    else:
        print("NoGuarantee")
    return EXIT_OK


def cmd_doe_compose(args) -> int:
    from . import abstraction
    from .lasso import format_effect_sequence

    sys_f = _load_complete(args.f)
    sys_g = _load_complete(args.g)
    result = abstraction.doe_compose(sys_f, args.qf, sys_g, args.qg, args.t)
    print(format_effect_sequence(result))
    return EXIT_OK


def _typed_program(path):
    """The ``.psy`` program at path and its type; a type error names the file,
    as :func:`cmd_psyc_build` does a build error."""
    from . import psyc as psyc_frontend

    program = psyc_frontend.load(path)
    try:
        return program, program.typecheck()
    except PsyTypeError as exc:
        raise PsyTypeError(f"{path}: {exc}") from None


def cmd_psyc_typecheck(args) -> int:
    print(str(_typed_program(args.file)[1]))
    return EXIT_OK


def cmd_psyc_build(args) -> int:
    from . import psyc as psyc_frontend

    program = _typed_program(args.file)[0]
    try:
        system = psyc_frontend.build_lts(
            program.machine, program.body, args.max_states, name=program.name
        )
    except (IntRangeExceeded, NonFiniteIntRange, BuildError) as exc:
        raise type(exc)(f"{args.file}: {exc}") from None
    sls.dump(system, args.output)
    print(f"states {len(system.states)}")
    return EXIT_OK


def cmd_dot(args) -> int:
    from . import dot

    sys = sls.load(args.file)
    text = dot.export_dot(sys)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def _option(*flags, **options) -> tuple:
    """An option of a :data:`COMMANDS` entry: its flags and add_argument options."""
    return flags, options


_OUTPUT = _option("-o", "--output", required=True)
_SENDER_RECEIVER = ("f", "g", _option("--qf", required=True), _option("--qg", required=True))

# Every command, in the order help lists them: its help, its handler and
# its arguments.  An argument is a positional name or an _option; a tuple
# of flags is a choice of exactly one of them (``compose``), and the
# handler of ``psyc`` is a table of its subcommands.
# fmt: off
COMMANDS = {
    "check": ("validate a .sls file", cmd_check, "file"),
    "quotient": ("write the bisimulation quotient", cmd_quotient, "file", _OUTPUT),
    "bisim": ("are two states bisimilar?", cmd_bisim, "file", "p", "q"),
    "seppairs": ("separating pairs of a state", cmd_seppairs, "file", "state"),
    "separators": ("minimal separators of a state pair", cmd_separators, "file", "p", "q",
                   _option("--max-len", type=_at_least(0), default=4)),
    "strongsep": ("is a state pair strongly separable?", cmd_strongsep, "file", "p", "q"),
    "reactime": ("deterministic reaction time of a state", cmd_reactime, "file", "state"),
    "diff": ("observable effects along a word", cmd_diff, "file", "p", "q",
             _option("-w", "--word", required=True, help="input word, e.g. 'tt ff'")),
    "doe": ("deterministic observable effects of a state", cmd_doe, "file", "state"),
    "ssp": ("strongly separating pairs of two states", cmd_ssp, "file", "p",
            _option("rest", nargs="+", metavar="[FILE2] Q")),
    "sspseq": ("strongly separating pair sequence", cmd_sspseq, "file", "state"),
    "compose": ("compose two systems", cmd_compose, ("--seq", "--par"), "f", "g", _OUTPUT),
    "lemma": ("reactivity guarantee for a composition", cmd_lemma, *_SENDER_RECEIVER),
    "doe-compose": ("composite observable effects at index t", cmd_doe_compose,
                    *_SENDER_RECEIVER, _option("-t", type=int, required=True)),
    "psyc": ("language frontend", {
        "typecheck": ("typecheck a .psy program", cmd_psyc_typecheck, "file"),
        "build": ("build the system of a .psy program", cmd_psyc_build, "file",
                  _option("--max-states", type=_at_least(1), default=10_000), _OUTPUT),
    }),
    "dot": ("export a system to DOT", cmd_dot, "file", _option("-o", "--output")),
}
# fmt: on


def _add(sub, name: str, entry: tuple) -> None:
    """Add the command ``name`` with its :data:`COMMANDS` entry to the subparsers ``sub``."""
    text, handler, *arguments = entry
    parser = sub.add_parser(name, help=text)
    if isinstance(handler, dict):
        nested = parser.add_subparsers(dest=f"{name}_command", required=True)
        for inner in handler.items():
            _add(nested, *inner)
        return
    for argument in arguments:
        if isinstance(argument, str):
            parser.add_argument(argument)
        elif isinstance(argument[0], str):
            group = parser.add_mutually_exclusive_group(required=True)
            for flag in argument:
                group.add_argument(flag, action="store_true")
        else:
            flags, options = argument
            parser.add_argument(*flags, **options)
    parser.set_defaults(func=handler)


def build_parser():
    """The argparse parser of every command, the one source of help, usage and errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="syncreact",
        description="Analyze finite synchronous systems for reactivity,"
        " observable effects, and reaction time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in COMMANDS.items():
        _add(sub, name, entry)
    return parser


def _read(argv: list[str], table: dict = COMMANDS, dest: str = "command"):
    """The namespace :func:`build_parser` would make of ``argv``, read
    straight from its :data:`COMMANDS` entry, or None to leave it to argparse.

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
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
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
