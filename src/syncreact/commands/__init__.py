"""The handlers of the command line, one module per family of commands.

Each entry of :data:`syncreact.cli.COMMANDS` names its handler as
``module.function`` in this package, and :mod:`syncreact.cli` imports
only the named command's module: a command compiles its own family's
handlers and no other's.  A family holds the commands that load the
same layers:

- :mod:`.tables`: ``check``, ``bisim``, ``quotient``, ``compose``, ``dot``;
- :mod:`.pairs`: ``seppairs``, ``separators``, ``strongsep``,
  ``reactime``, ``diff``;
- :mod:`.levels`: ``doe``, ``sspseq``, ``ssp``;
- :mod:`.lemma`: ``lemma``, ``doe-compose``;
- :mod:`.programs`: ``psyc typecheck``, ``psyc build``.

:mod:`.usage` builds the argparse parser, for help, usage and errors
only.  This module holds what the handlers and :mod:`syncreact.cli`
share: the exit statuses and the loading of a system to analyse.

No module here imports :mod:`syncreact.cli`: run as ``python -m
syncreact.cli`` it is ``__main__``, and importing it by name would
compile and run it a second time.  Handlers call each layer through its
module (``abstraction.doe``, not ``doe``), so a function patched in its
module is the one they call.
"""

from __future__ import annotations

from .. import core, sls
from ..errors import PreconditionFailed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def load_complete(path: str) -> core.SynchronousSystem:
    """Load a system for analysis; every analysis assumes completeness."""
    sys = sls.load(path)
    report = core.validate(sys)
    if report:
        raise PreconditionFailed(f"{path}: {report[0]}")
    return sys


def print_bool(value: bool) -> int:
    print("true" if value else "false")
    return EXIT_OK
