"""Frontend for the small synchronous imperative language."""

from .loader import ProgramFile, component_types, load, loads
from .semantics import Config, Machine, VarDecl, build_lts, live_in
from .syntax import Ast, parse, unparse
from .typecheck import COMM, Ty, typecheck

__all__ = [
    "Ast",
    "COMM",
    "Config",
    "Machine",
    "ProgramFile",
    "Ty",
    "VarDecl",
    "build_lts",
    "component_types",
    "live_in",
    "load",
    "loads",
    "parse",
    "typecheck",
    "unparse",
]
