"""Command line surface tying the analyses together.

Results go to stdout, diagnostics to stderr.  Boolean queries print
``true`` or ``false`` on the last line.  Exit statuses follow the error
class: 0 success, 2 usage and :class:`UserError` (parse, type and build
errors, incomplete systems), 3 :class:`ResourceError`, 4 any other
internal invariant breach.
"""

from __future__ import annotations

import argparse
import sys as _sys

from . import abstraction, compose, dot, reactivity, sls
from .core import SynchronousSystem, bisim_quotient, non_bisimilar, validate
from .errors import (
    PreconditionFailed,
    PsyTypeError,
    ResourceError,
    SyncReactError,
    UserError,
)
from .lasso import format_effect_sequence, format_pair_set, format_pair_set_sequence

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
    witness = non_bisimilar(sys, args.p, sys, args.q)
    if witness is not None:
        print(f"witness depth {witness.depth}", file=_sys.stderr)
    return _print_bool(witness is None)


def cmd_seppairs(args) -> int:
    sys = _load_complete(args.file)
    result = reactivity.separating_pairs(sys, args.state)
    det = set(result.deterministic_subset)
    for pair in result.pairs:
        suffix = " det" if pair in det else ""
        print(f"pair {pair[0]} {pair[1]}{suffix}")
    print(f"seppairs {len(result.pairs)}")
    return EXIT_OK


def cmd_separators(args) -> int:
    sys = _load_complete(args.file)
    found = reactivity.separators(sys, args.p, sys, args.q, args.max_len)
    for (word, deterministic) in found:
        suffix = " det" if deterministic else ""
        body = (" " + " ".join(word)) if word else ""
        print(f"sep{body}{suffix}")
    print(f"separators {len(found)}")
    return EXIT_OK


def cmd_strongsep(args) -> int:
    sys = _load_complete(args.file)
    verdict = reactivity.strongly_separable(sys, args.p, sys, args.q)
    if verdict.separable:
        print(f"bound {verdict.bound}", file=_sys.stderr)
    else:
        steps = " ".join(f"{p}|{q}:{sym}" for ((p, q), sym) in verdict.cycle)
        print(f"eq-cycle {steps}", file=_sys.stderr)
    return _print_bool(verdict.separable)


def cmd_reactime(args) -> int:
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
    sys = _load_complete(args.file)
    word = _word(args.word)
    table = reactivity.diff(sys, args.p, sys, args.q, word)
    for index, values in enumerate(table):
        rendered = []
        for value in sorted(values, key=lambda v: ("", "") if v is None else v):
            rendered.append("*" if value is None else f"({value[0]},{value[1]})")
        print(f"diff {index} " + " ".join(rendered))
    return EXIT_OK


def cmd_doe(args) -> int:
    sys = _load_complete(args.file)
    if not reactivity.separating_pairs(sys, args.state).reactive:
        print(f"note: state {args.state} is not reactive", file=_sys.stderr)
    print(format_effect_sequence(abstraction.doe(sys, args.state)))
    return EXIT_OK


def cmd_ssp(args) -> int:
    sys_a = _load_complete(args.file)
    if len(args.rest) == 1:
        sys_b, q = sys_a, args.rest[0]
    elif len(args.rest) == 2:
        sys_b, q = _load_complete(args.rest[0]), args.rest[1]
    else:
        print("error: ssp takes FILE P [FILE2] Q", file=_sys.stderr)
        return EXIT_USAGE
    pairs = abstraction.ssp(sys_a, args.p, sys_b, q)
    print(format_pair_set(frozenset(pairs)))
    return EXIT_OK


def cmd_sspseq(args) -> int:
    sys = _load_complete(args.file)
    print(format_pair_set_sequence(abstraction.ssp_seq(sys, args.state)))
    return EXIT_OK


def cmd_compose(args) -> int:
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
    sys_f = _load_complete(args.f)
    sys_g = _load_complete(args.g)
    verdict = abstraction.lemma_check(sys_f, args.qf, sys_g, args.qg)
    if verdict.guaranteed:
        print(f"GuaranteedReactive {verdict.index}")
    else:
        print("NoGuarantee")
    return EXIT_OK


def cmd_doe_compose(args) -> int:
    sys_f = _load_complete(args.f)
    sys_g = _load_complete(args.g)
    result = abstraction.doe_compose(sys_f, args.qf, sys_g, args.qg, args.t)
    print(format_effect_sequence(result))
    return EXIT_OK


def cmd_psyc_typecheck(args) -> int:
    from . import psyc as psyc_frontend  # here, so other commands skip its import

    program = psyc_frontend.load(args.file)
    print(str(program.typecheck()))
    return EXIT_OK


def cmd_psyc_build(args) -> int:
    from . import psyc as psyc_frontend

    program = psyc_frontend.load(args.file)
    ty = program.typecheck()
    if str(ty) != "comm":
        raise PsyTypeError(f"program has type {ty}, not comm")
    system = psyc_frontend.build_lts(
        program.machine, program.body, args.max_states, name=program.name
    )
    sls.dump(system, args.output)
    print(f"states {len(system.states)}")
    return EXIT_OK


def cmd_dot(args) -> int:
    sys = sls.load(args.file)
    text = dot.export_dot(sys)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncreact",
        description="Analyze finite synchronous systems for reactivity,"
        " observable effects, and reaction time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a .sls file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("quotient", help="write the bisimulation quotient")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("bisim", help="are two states bisimilar?")
    p.add_argument("file")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("seppairs", help="separating pairs of a state")
    p.add_argument("file")
    p.add_argument("state")
    p.set_defaults(func=cmd_seppairs)

    p = sub.add_parser("separators", help="minimal separators of a state pair")
    p.add_argument("file")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--max-len", type=_at_least(0), default=4)
    p.set_defaults(func=cmd_separators)

    p = sub.add_parser("strongsep", help="is a state pair strongly separable?")
    p.add_argument("file")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(func=cmd_strongsep)

    p = sub.add_parser("reactime", help="deterministic reaction time of a state")
    p.add_argument("file")
    p.add_argument("state")
    p.set_defaults(func=cmd_reactime)

    p = sub.add_parser("diff", help="observable effects along a word")
    p.add_argument("file")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("-w", "--word", required=True, help="input word, e.g. 'tt ff'")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("doe", help="deterministic observable effects of a state")
    p.add_argument("file")
    p.add_argument("state")
    p.set_defaults(func=cmd_doe)

    p = sub.add_parser("ssp", help="strongly separating pairs of two states")
    p.add_argument("file")
    p.add_argument("p")
    p.add_argument("rest", nargs="+", metavar="[FILE2] Q")
    p.set_defaults(func=cmd_ssp)

    p = sub.add_parser("sspseq", help="strongly separating pair sequence")
    p.add_argument("file")
    p.add_argument("state")
    p.set_defaults(func=cmd_sspseq)

    p = sub.add_parser("compose", help="compose two systems")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--seq", action="store_true")
    group.add_argument("--par", action="store_true")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("lemma", help="reactivity guarantee for a composition")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--qf", required=True)
    p.add_argument("--qg", required=True)
    p.set_defaults(func=cmd_lemma)

    p = sub.add_parser("doe-compose", help="composite observable effects at index t")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--qf", required=True)
    p.add_argument("--qg", required=True)
    p.add_argument("-t", type=int, required=True)
    p.set_defaults(func=cmd_doe_compose)

    psyc = sub.add_parser("psyc", help="language frontend")
    psyc_sub = psyc.add_subparsers(dest="psyc_command", required=True)
    p = psyc_sub.add_parser("typecheck", help="typecheck a .psy program")
    p.add_argument("file")
    p.set_defaults(func=cmd_psyc_typecheck)
    p = psyc_sub.add_parser("build", help="build the system of a .psy program")
    p.add_argument("file")
    p.add_argument("--max-states", type=_at_least(1), default=10_000)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_psyc_build)

    p = sub.add_parser("dot", help="export a system to DOT")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    except OSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except (SyncReactError, AssertionError) as exc:
        print(f"internal error: {exc}", file=_sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
