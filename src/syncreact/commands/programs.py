"""The ``psyc`` commands on ``.psy`` programs: ``psyc typecheck`` and
``psyc build``.  Each loads the ``psyc`` package, and each error names
the file."""

from __future__ import annotations

from .. import psyc, sls
from ..errors import BuildError, IntRangeExceeded, NonFiniteIntRange, PsyTypeError
from . import EXIT_OK


def cmd_psyc_typecheck(args) -> int:
    try:
        ty = psyc.load(args.file).typecheck()
    except PsyTypeError as exc:
        raise PsyTypeError(f"{args.file}: {exc}") from None
    print(str(ty))
    return EXIT_OK


def cmd_psyc_build(args) -> int:
    program = psyc.load(args.file)
    try:  # build_lts typechecks the program before its first round
        system = psyc.build_lts(program.machine, program.body, args.max_states, name=program.name)
    except (PsyTypeError, IntRangeExceeded, NonFiniteIntRange, BuildError) as exc:
        raise type(exc)(f"{args.file}: {exc}") from None
    sls.dump(system, args.output)
    print(f"states {len(system.states)}")
    return EXIT_OK
