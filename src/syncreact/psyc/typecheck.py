"""Typing judgment for the synchronous language.

Types are commands, variable references var(int)/var(bool), and
expressions exp(int)/exp(bool).  Every rule failure names its rule.
A conditional has the one type its branches share, and its condition
is a boolean expression; a complete program must type as comm.
"""

from __future__ import annotations

from typing import Optional

from ..core import Record, fold
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


class Ty(Record):
    __slots__ = ("kind", "base")

    def __init__(self, kind: str, base: Optional[str] = None):
        self.kind = kind  # "comm", "var", "exp"
        self.base = base  # "bool" or "int" for var/exp

    def __str__(self) -> str:
        if self.kind == "comm":
            return "comm"
        return f"{self.kind}({self.base})"


COMM = Ty("comm")
_BOOL = Ty("exp", "bool")
_INT = Ty("exp", "int")


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

    def need(what: str, got: Ty, want: Ty) -> None:
        """The premise that ``what`` has type ``want``."""
        if got != want:
            raise PsyTypeError(f"{what} has type {got}, not {want}")

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
            return _BOOL
        if cls is IntLit:
            return _INT
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
            need("Seq: left of ';'", (yield n.first), COMM)
            need("Seq: right of ';'", (yield n.second), COMM)
            return COMM
        if cls is If or cls is While:
            need(f"{cls.__name__}: condition", (yield n.cond), _BOOL)
            if cls is While:
                need("While: body", (yield n.body), COMM)
                return COMM
            then_ty = yield n.then_branch
            else_ty = yield n.else_branch
            if then_ty != else_ty:
                raise PsyTypeError(
                    f"If: branches have different types {then_ty} and {else_ty}"
                )
            return then_ty
        if cls is Tick:
            if len(n.args) != len(out_types):
                raise PsyTypeError(
                    f"Tick: {len(n.args)} arguments for {len(out_types)} output"
                    " components"
                )
            for i, arg in enumerate(n.args):
                need(f"Tick: argument {i}", (yield arg), Ty("exp", out_types[i]))
            return COMM
        if cls is Get:
            if not 0 <= n.index < len(in_types):
                raise PsyTypeError(
                    f"Get: index {n.index} out of range for {len(in_types)} input"
                    " components"
                )
            return Ty("exp", in_types[n.index])
        if cls is Dec or cls is NotZero:
            need(f"{cls.__name__}: operand", (yield n.inner), _INT)
            return _INT if cls is Dec else _BOOL
        if cls is Conj:
            need("Conj: left operand", (yield n.left), _BOOL)
            need("Conj: right operand", (yield n.right), _BOOL)
            return _BOOL
        raise PsyTypeError(f"unknown syntax node {n!r}")

    return fold(rule, node)
