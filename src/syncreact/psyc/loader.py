"""`.psy` program files: header directives plus a program body.

Header lines, before the body, ``#`` comments allowed::

    inputs SYM ...
    outputs SYM ...
    var NAME : bool
    var NAME : int[LO..HI]

Component base types are derived from the declared alphabets: a
component whose values are all ``tt``/``ff`` is boolean, one whose
values are all integer literals is an integer.  A header error names
the source and line; a body parse error the source, line and column.
"""

from __future__ import annotations

import re

from ..core import Alphabet, Record, symbol_components
from ..errors import FormatError, PsySyntaxError, UnknownSymbol
from ..sls import read_text
from .semantics import Machine, VarDecl
from .syntax import Ast, parse
from .typecheck import Ty, typecheck

_INT_RE = re.compile(r"-?\d+")
_VAR_RE = re.compile(
    r"var\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(bool|int\[(-?\d+)\.\.(-?\d+)\]|int)\s*$"
)


class ProgramFile(Record):
    __slots__ = ("name", "machine", "body")

    def __init__(self, name: str, machine: Machine, body: Ast):
        self.name, self.machine, self.body = name, machine, body

    def typecheck(self) -> Ty:
        env = {v.name: v.base for v in self.machine.variables}
        ty = typecheck(
            self.body, env, self.machine.in_types, self.machine.out_types
        )
        return ty


def component_types(alphabet: Alphabet, what: str) -> tuple[str, ...]:
    """Base type of each symbol component; all symbols must agree on arity."""
    arities = {len(symbol_components(s)) for s in alphabet}
    if len(arities) != 1:
        raise FormatError(f"{what} symbols have mixed arities {sorted(arities)}")
    arity = arities.pop()
    types = []
    for i in range(arity):
        values = {symbol_components(s)[i] for s in alphabet}
        if values <= {"tt", "ff"}:
            types.append("bool")
        elif all(_INT_RE.fullmatch(v) for v in values):
            types.append("int")
        else:
            raise FormatError(
                f"{what} component {i} mixes booleans and other tokens: "
                + " ".join(sorted(values))
            )
    return tuple(types)


def loads(text: str, source: str = "<string>", name: str = "program") -> ProgramFile:
    alphabets: dict[str, tuple[Alphabet, tuple[str, ...]]] = {}
    variables: list[VarDecl] = []
    body_lines = []
    in_body = False
    lineno = 0
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if not in_body:
                if not stripped:
                    body_lines.append("")
                    continue
                tokens = stripped.split()
                if tokens[0] in ("inputs", "outputs"):
                    if tokens[0] in alphabets:
                        raise FormatError(f"duplicate {tokens[0]}")
                    alphabet = Alphabet(tuple(tokens[1:]))
                    alphabets[tokens[0]] = (alphabet, component_types(alphabet, tokens[0][:-1]))
                    body_lines.append("")
                    continue
                if tokens[0] == "var":
                    match = _VAR_RE.match(stripped)
                    if not match:
                        raise FormatError("bad var declaration")
                    vname, ty, low, high = match.groups()
                    if any(v.name == vname for v in variables):
                        raise FormatError(f"duplicate var {vname}")
                    if ty == "bool":
                        variables.append(VarDecl(vname, "bool"))
                    elif ty == "int":
                        variables.append(VarDecl(vname, "int"))
                    else:
                        variables.append(VarDecl(vname, "int", int(low), int(high)))
                    body_lines.append("")
                    continue
                in_body = True
            body_lines.append(raw)
    except (FormatError, UnknownSymbol) as exc:
        raise FormatError(f"{source}:{lineno}: {exc}") from None
    for directive in ("inputs", "outputs"):
        if directive not in alphabets:
            raise FormatError(f"{source}: missing {directive} directive")
    # Header lines were blanked, so parser positions match the file.
    try:
        body = parse("\n".join(body_lines))
    except PsySyntaxError as exc:
        exc.args = (f"{source}:{exc}",)
        raise
    (inputs, in_types), (outputs, out_types) = alphabets["inputs"], alphabets["outputs"]
    return ProgramFile(name, Machine(inputs, outputs, in_types, out_types, tuple(variables)), body)


def load(path) -> ProgramFile:
    import os

    stem = os.path.splitext(os.path.basename(str(path)))[0]
    return loads(read_text(path), source=str(path), name=stem)
