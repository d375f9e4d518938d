"""The ``psyc`` commands on ``.psy`` programs: ``psyc typecheck`` and
``psyc build``.  Each loads the ``psyc`` package."""

from __future__ import annotations

from .. import psyc, sls
from ..errors import BuildError, IntRangeExceeded, NonFiniteIntRange, PsyTypeError
from . import EXIT_OK


def _typed_program(path):
    """The ``.psy`` program at path and its type; a type error names the file,
    as :func:`cmd_psyc_build` does a build error."""
    program = psyc.load(path)
    try:
        return program, program.typecheck()
    except PsyTypeError as exc:
        raise PsyTypeError(f"{path}: {exc}") from None


def cmd_psyc_typecheck(args) -> int:
    print(str(_typed_program(args.file)[1]))
    return EXIT_OK


def cmd_psyc_build(args) -> int:
    program = _typed_program(args.file)[0]
    try:
        system = psyc.build_lts(program.machine, program.body, args.max_states, name=program.name)
    except (IntRangeExceeded, NonFiniteIntRange, BuildError) as exc:
        raise type(exc)(f"{args.file}: {exc}") from None
    sls.dump(system, args.output)
    print(f"states {len(system.states)}")
    return EXIT_OK
