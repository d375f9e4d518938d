"""Commands on the synchronized pair graph: ``seppairs``,
``separators``, ``strongsep``, ``reactime`` and ``diff``.  Each loads
``reactivity``, and with it ``separation``; ``separators`` and ``diff``
also load ``frontier``."""

from __future__ import annotations

import sys as _sys

from .. import reactivity
from . import EXIT_OK, load_complete, print_bool


def cmd_seppairs(args) -> int:
    sys = load_complete(args.file)
    result = reactivity.separating_pairs(sys, args.state)
    det = set(result.deterministic_subset)
    for pair in result.pairs:
        suffix = " det" if pair in det else ""
        print(f"pair {pair[0]} {pair[1]}{suffix}")
    print(f"seppairs {len(result.pairs)}")
    return EXIT_OK


def cmd_separators(args) -> int:
    sys = load_complete(args.file)
    found = reactivity.separators(sys, args.p, args.q, args.max_len)
    for (word, deterministic) in found:
        suffix = " det" if deterministic else ""
        body = (" " + " ".join(word)) if word else ""
        print(f"sep{body}{suffix}")
    print(f"separators {len(found)}")
    return EXIT_OK


def cmd_strongsep(args) -> int:
    sys = load_complete(args.file)
    verdict = reactivity.strongly_separable(sys, args.p, args.q)
    if verdict.separable:
        print(f"bound {verdict.bound}", file=_sys.stderr)
    else:
        steps = " ".join(f"{p}|{q}:{sym}" for ((p, q), sym) in verdict.cycle)
        print(f"eq-cycle {steps}", file=_sys.stderr)
    return print_bool(verdict.separable)


def cmd_reactime(args) -> int:
    sys = load_complete(args.file)
    result = reactivity.det_reaction_time(sys, args.state)
    if not result.is_finite:
        print("reactime infinite")
    elif result.witness:
        print(f"reactime finite {result.time} witness " + " ".join(result.witness))
    else:
        print(f"reactime finite {result.time}")
    return EXIT_OK


def cmd_diff(args) -> int:
    sys = load_complete(args.file)
    table = reactivity.diff(sys, args.p, args.q, args.word.split())
    for index, values in enumerate(table):
        rendered = []
        for value in sorted(values, key=lambda v: ("", "") if v is None else v):
            rendered.append("*" if value is None else f"({value[0]},{value[1]})")
        print(f"diff {index} " + " ".join(rendered))
    return EXIT_OK
