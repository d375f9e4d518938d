"""Typing judgment for the synchronous language.

Types are commands, variable references var(int)/var(bool), and
expressions exp(int)/exp(bool).  Every rule failure names its rule.
The conditional's branches must share one type and the condition is a
boolean expression; a complete program must type as comm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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

    def check(n: Ast) -> Ty:
        if isinstance(n, Skip):
            return COMM
        if isinstance(n, VarRef):
            if n.name not in env:
                raise PsyTypeError(f"Var: variable {n.name!r} is not declared")
            return Ty("var", env[n.name])
        if isinstance(n, BoolLit):
            return Ty("exp", "bool")
        if isinstance(n, IntLit):
            return Ty("exp", "int")
        if isinstance(n, Deref):
            # Walk a '!' chain in a loop, checking it from the inside out;
            # a dereference has an exp type, so at most one '!' passes.
            chain = []
            while isinstance(n, Deref):
                chain.append(n)
                n = n.target
            inner = check(n)
            for deref in reversed(chain):
                if inner.kind != "var":
                    raise PsyTypeError(f"Deref: !{unparse(deref.target)} needs a variable")
                inner = Ty("exp", inner.base)
            return inner
        if isinstance(n, Assign):
            target = check(n.target)
            if target.kind != "var":
                raise PsyTypeError(
                    f"Assign: target {unparse(n.target)} is not a variable"
                )
            value = check(n.value)
            if value != Ty("exp", target.base):
                raise PsyTypeError(
                    f"Assign: {unparse(n)} assigns {value} to var({target.base})"
                )
            return COMM
        if isinstance(n, Seq):
            # Walk the right spine in a loop: sequences can be long.
            while isinstance(n, Seq):
                first = check(n.first)
                if first != COMM:
                    raise PsyTypeError(f"Seq: left of ';' has type {first}, not comm")
                n = n.second
            check(n)
            return COMM
        if isinstance(n, If):
            cond = check(n.cond)
            if cond != Ty("exp", "bool"):
                raise PsyTypeError(f"If: condition has type {cond}, not exp(bool)")
            then_ty = check(n.then_branch)
            else_ty = check(n.else_branch)
            if then_ty != else_ty:
                raise PsyTypeError(
                    f"If: branches have different types {then_ty} and {else_ty}"
                )
            return COMM
        if isinstance(n, While):
            cond = check(n.cond)
            if cond != Ty("exp", "bool"):
                raise PsyTypeError(f"While: condition has type {cond}, not exp(bool)")
            body = check(n.body)
            if body != COMM:
                raise PsyTypeError(f"While: body has type {body}, not comm")
            return COMM
        if isinstance(n, Tick):
            if len(n.args) != len(out_types):
                raise PsyTypeError(
                    f"Tick: {len(n.args)} arguments for {len(out_types)} output"
                    " components"
                )
            for i, arg in enumerate(n.args):
                ty = check(arg)
                if ty != Ty("exp", out_types[i]):
                    raise PsyTypeError(
                        f"Tick: argument {i} has type {ty},"
                        f" not exp({out_types[i]})"
                    )
            return COMM
        if isinstance(n, Get):
            if not 0 <= n.index < len(in_types):
                raise PsyTypeError(
                    f"Get: index {n.index} out of range for {len(in_types)} input"
                    " components"
                )
            return Ty("exp", in_types[n.index])
        if isinstance(n, Dec):
            # Walk a '- 1' chain in a loop: only its innermost operand can
            # fail, since every decrement above it has type exp(int).
            while isinstance(n, Dec):
                n = n.inner
            inner = check(n)
            if inner != Ty("exp", "int"):
                raise PsyTypeError(f"Dec: operand has type {inner}, not exp(int)")
            return Ty("exp", "int")
        if isinstance(n, NotZero):
            inner = check(n.inner)
            if inner != Ty("exp", "int"):
                raise PsyTypeError(f"NotZero: operand has type {inner}, not exp(int)")
            return Ty("exp", "bool")
        if isinstance(n, Conj):
            # Walk a left-nested '&&' chain in a loop, checking its operands
            # left to right; every conjunction above the first has a
            # well-typed left operand.
            rights = []
            while isinstance(n, Conj):
                rights.append(n.right)
                n = n.left
            operands = [("left", n)] + [("right", r) for r in reversed(rights)]
            for side, sub in operands:
                ty = check(sub)
                if ty != Ty("exp", "bool"):
                    raise PsyTypeError(
                        f"Conj: {side} operand has type {ty}, not exp(bool)"
                    )
            return Ty("exp", "bool")
        raise PsyTypeError(f"unknown syntax node {n!r}")

    return check(node)
