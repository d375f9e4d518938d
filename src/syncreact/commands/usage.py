"""The argparse parser of every command, the one source of help, usage
and error text.  :mod:`syncreact.cli` builds it only when its direct
read of the command line declines, so a well-formed command loads
neither this module nor ``argparse``."""

from __future__ import annotations

import argparse


def _add(sub, name: str, entry: tuple) -> None:
    """Add the command ``name`` with its ``COMMANDS`` entry to the subparsers ``sub``."""
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


def build_parser(commands: dict) -> argparse.ArgumentParser:
    """The parser of every command of ``commands``, :data:`syncreact.cli.COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="syncreact",
        description="Analyze finite synchronous systems for reactivity,"
        " observable effects, and reaction time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in commands.items():
        _add(sub, name, entry)
    return parser
