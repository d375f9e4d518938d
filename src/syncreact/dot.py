"""Byte-stable DOT rendering of synchronous systems."""

from __future__ import annotations

import io

from .core import SynchronousSystem


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(sys: SynchronousSystem) -> str:
    """One node per state labeled ``name / out``, initial double circled.

    Nodes follow state declaration order and edges table order (the
    system's ``transitions``, each once), so output is byte stable.
    """
    out = io.StringIO()
    out.write(f"digraph {_quote(sys.name)} {{\n")
    out.write("  rankdir=LR;\n")
    for q in sys.states:
        shape = "doublecircle" if q == sys.initial else "circle"
        label = f"{q} / {sys.out(q)}"
        out.write(f"  {_quote(q)} [shape={shape}, label={_quote(label)}];\n")
    for (src, sym, dst) in sys.iter_transitions():
        out.write(f"  {_quote(src)} -> {_quote(dst)} [label={_quote(sym)}];\n")
    out.write("}\n")
    return out.getvalue()
