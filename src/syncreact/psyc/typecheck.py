"""Typing judgment for the synchronous language.

Types are commands, variable references var(int)/var(bool), and
expressions exp(int)/exp(bool).  Every rule failure names its rule.
The conditional's branches must share one type and the condition is a
boolean expression; a complete program must type as comm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core import fold
from ..errors import PsyTypeError
from .syntax import (
    Assign,
    Ast,
    BoolLit,
    Conj,
    Dec,
    Deref,
    Get,
    If,
    IntLit,
    NotZero,
    Seq,
    Skip,
    Tick,
    VarRef,
    While,
    unparse,
)


@dataclass(frozen=True)
class Ty:
    kind: str  # "comm", "var", "exp"
    base: Optional[str] = None  # "bool" or "int" for var/exp

    def __str__(self) -> str:
        if self.kind == "comm":
            return "comm"
        return f"{self.kind}({self.base})"


COMM = Ty("comm")


def typecheck(
    node: Ast,
    env: dict[str, str],
    in_types: tuple[str, ...],
    out_types: tuple[str, ...],
) -> Ty:
    """Type of ``node`` under variable base types and component signatures.

    ``in_types`` and ``out_types`` list the base type of each input and
    output component.
    """

    def rule(n: Ast):
        """Type of one node; yields each subterm to be typed (see core.fold)."""
        cls = n.__class__
        if cls is Skip:
            return COMM
        if cls is VarRef:
            if n.name not in env:
                raise PsyTypeError(f"Var: variable {n.name!r} is not declared")
            return Ty("var", env[n.name])
        if cls is BoolLit:
            return Ty("exp", "bool")
        if cls is IntLit:
            return Ty("exp", "int")
        if cls is Deref:
            target = yield n.target
            if target.kind != "var":
                raise PsyTypeError(f"Deref: !{unparse(n.target)} needs a variable")
            return Ty("exp", target.base)
        if cls is Assign:
            target = yield n.target
            if target.kind != "var":
                raise PsyTypeError(
                    f"Assign: target {unparse(n.target)} is not a variable"
                )
            value = yield n.value
            if value != Ty("exp", target.base):
                raise PsyTypeError(
                    f"Assign: {unparse(n)} assigns {value} to var({target.base})"
                )
            return COMM
        if cls is Seq:
            first = yield n.first
            if first != COMM:
                raise PsyTypeError(f"Seq: left of ';' has type {first}, not comm")
            yield n.second
            return COMM
        if cls is If:
            cond = yield n.cond
            if cond != Ty("exp", "bool"):
                raise PsyTypeError(f"If: condition has type {cond}, not exp(bool)")
            then_ty = yield n.then_branch
            else_ty = yield n.else_branch
            if then_ty != else_ty:
                raise PsyTypeError(
                    f"If: branches have different types {then_ty} and {else_ty}"
                )
            return COMM
        if cls is While:
            cond = yield n.cond
            if cond != Ty("exp", "bool"):
                raise PsyTypeError(f"While: condition has type {cond}, not exp(bool)")
            body = yield n.body
            if body != COMM:
                raise PsyTypeError(f"While: body has type {body}, not comm")
            return COMM
        if cls is Tick:
            if len(n.args) != len(out_types):
                raise PsyTypeError(
                    f"Tick: {len(n.args)} arguments for {len(out_types)} output"
                    " components"
                )
            for i, arg in enumerate(n.args):
                ty = yield arg
                if ty != Ty("exp", out_types[i]):
                    raise PsyTypeError(
                        f"Tick: argument {i} has type {ty},"
                        f" not exp({out_types[i]})"
                    )
            return COMM
        if cls is Get:
            if not 0 <= n.index < len(in_types):
                raise PsyTypeError(
                    f"Get: index {n.index} out of range for {len(in_types)} input"
                    " components"
                )
            return Ty("exp", in_types[n.index])
        if cls is Dec or cls is NotZero:
            inner = yield n.inner
            if inner != Ty("exp", "int"):
                raise PsyTypeError(f"{cls.__name__}: operand has type {inner}, not exp(int)")
            return Ty("exp", "int" if cls is Dec else "bool")
        if cls is Conj:
            for side, sub in (("left", n.left), ("right", n.right)):
                ty = yield sub
                if ty != Ty("exp", "bool"):
                    raise PsyTypeError(
                        f"Conj: {side} operand has type {ty}, not exp(bool)"
                    )
            return Ty("exp", "bool")
        raise PsyTypeError(f"unknown syntax node {n!r}")

    return fold(rule, node)
