"""Commands on a system's tables: ``check``, ``quotient``, ``bisim``,
``compose`` and ``dot``.  Each loads ``core`` and ``sls``, and
``compose`` and ``dot`` their own layer besides."""

from __future__ import annotations

import sys as _sys

from .. import core, sls
from . import EXIT_OK, EXIT_USAGE, load_complete, print_bool


def cmd_check(args) -> int:
    sys = sls.load(args.file)
    report = core.validate(sys)
    for issue in report:
        print(issue, file=_sys.stderr)
    if report:
        return EXIT_USAGE
    print("ok")
    return EXIT_OK


def cmd_quotient(args) -> int:
    sys = load_complete(args.file)
    partition, quotient = core.bisim_quotient(sys)
    sls.dump(quotient, args.output)
    print(f"classes {len(partition.classes)}")
    return EXIT_OK


def cmd_bisim(args) -> int:
    sys = load_complete(args.file)
    witness = core.non_bisimilar(sys, args.p, args.q)
    if witness is not None:
        print(f"witness depth {witness.depth}", file=_sys.stderr)
    return print_bool(witness is None)


def cmd_compose(args) -> int:
    from .. import compose

    sys_f = load_complete(args.f)
    sys_g = load_complete(args.g)
    if args.seq:
        composed = compose.seq_compose(sys_f, sys_g)
    else:
        composed = compose.par_compose(sys_f, sys_g)
    sls.dump(composed.system, args.output)
    print(f"states {len(composed.system.states)}")
    return EXIT_OK


def cmd_dot(args) -> int:
    from .. import dot

    sys = sls.load(args.file)
    text = dot.export_dot(sys)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return EXIT_OK
