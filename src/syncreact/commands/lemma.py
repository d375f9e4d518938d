"""Commands on the sequential-composition lemma: ``lemma`` and
``doe-compose``.  Each loads ``abstraction``, with ``lasso``,
``frontier`` and ``separation``, and ``lemma``, which ``abstraction``
imports when either query is asked; ``orbits`` too for a level walk
that splits."""

from __future__ import annotations

from .. import abstraction
from ..lasso import format_effect_sequence
from . import EXIT_OK, load_complete


def cmd_lemma(args) -> int:
    sys_f = load_complete(args.f)
    sys_g = load_complete(args.g)
    verdict = abstraction.lemma_check(sys_f, args.qf, sys_g, args.qg)
    if verdict.guaranteed:
        print(f"GuaranteedReactive {verdict.index}")
    else:
        print("NoGuarantee")
    return EXIT_OK


def cmd_doe_compose(args) -> int:
    sys_f = load_complete(args.f)
    sys_g = load_complete(args.g)
    result = abstraction.doe_compose(sys_f, args.qf, sys_g, args.qg, args.t)
    print(format_effect_sequence(result))
    return EXIT_OK
