"""Commands on level walks: ``doe``, ``sspseq`` and ``ssp``.  Each loads
``abstraction``, and with it ``lasso``, ``frontier`` and ``separation``
but not ``reactivity``; ``doe`` and ``sspseq`` load ``orbits`` for a
walk that splits, and ``ssp`` on two files ``compose``."""

from __future__ import annotations

import sys as _sys

from .. import abstraction, core
from ..lasso import format_effect_sequence, format_pair_set, format_pair_set_sequence
from ..separation import separating_ids
from . import EXIT_OK, EXIT_USAGE, load_complete


def cmd_doe(args) -> int:
    sys = load_complete(args.file)
    (i,) = core.require_complete(sys, args.state)
    if not separating_ids(sys, i, i)[0]:
        print(f"note: state {args.state} is not reactive", file=_sys.stderr)
    print(format_effect_sequence(abstraction.doe(sys, args.state)))
    return EXIT_OK


def cmd_ssp(args) -> int:
    sys, p = load_complete(args.file), args.p
    if len(args.rest) == 1:
        q = args.rest[0]
    elif len(args.rest) == 2:
        from ..compose import disjoint_union

        other, q = load_complete(args.rest[0]), args.rest[1]
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
    sys = load_complete(args.file)
    print(format_pair_set_sequence(abstraction.ssp_seq(sys, args.state)))
    return EXIT_OK
