"""In-process spans around the public functions of each syncreact layer.

Nothing under ``src/`` knows about this module.  ``Tracer.installed()``
replaces each target with a wrapper, in the module that defines it and
in every ``syncreact`` module that imported it by name, so nested calls
nest; classes are wrapped at ``__init__``.  Each span keeps its name,
start, end, parent span and command id in memory.  A span's self time
is its duration minus the duration of its child spans; every command
runs under a root ``cli.main`` span, so self times add up to the traced
wall time less the harness's own work between commands.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# span name -> (defining module, attribute, counter name, size of result)
FUNCTIONS = {
    "core.bisim_classes": ("syncreact.core", "bisim_classes",
                           "core.classes", lambda r: len(r.classes)),
    "core.non_bisimilar": ("syncreact.core", "non_bisimilar", None, None),
    "core.bisim_quotient": ("syncreact.core", "bisim_quotient", None, None),
    "reactivity.separating_pairs": ("syncreact.reactivity", "separating_pairs", None, None),
    "reactivity.strongly_separable": ("syncreact.reactivity", "strongly_separable", None, None),
    "reactivity.separators": ("syncreact.reactivity", "separators", None, None),
    "reactivity.diff": ("syncreact.reactivity", "diff", None, None),
    "reactivity.det_reaction_time": ("syncreact.reactivity", "det_reaction_time", None, None),
    "abstraction.doe_levels": ("syncreact.abstraction", "doe_levels",
                               "abstraction.doe_levels.levels", lambda r: len(r[0])),
    "abstraction.doe": ("syncreact.abstraction", "doe", None, None),
    "abstraction.ssp_seq": ("syncreact.abstraction", "ssp_seq", None, None),
    "abstraction.lemma_check": ("syncreact.abstraction", "lemma_check", None, None),
    "abstraction.doe_compose": ("syncreact.abstraction", "doe_compose", None, None),
    "compose.seq_compose": ("syncreact.compose", "seq_compose",
                            "compose.seq_compose.states", lambda r: len(r.system.states)),
    "compose.par_compose": ("syncreact.compose", "par_compose",
                            "compose.par_compose.states", lambda r: len(r.system.states)),
    "psyc.load": ("syncreact.psyc.loader", "load", None, None),
    "psyc.typecheck": ("syncreact.psyc.typecheck", "typecheck", None, None),
    "psyc.build_lts": ("syncreact.psyc.semantics", "build_lts",
                       "psyc.build_lts.states", lambda r: len(r.states)),
    "sls.load": ("syncreact.sls", "load", "sls.load.states", lambda r: len(r.states)),
    "sls.dump": ("syncreact.sls", "dump", None, None),
}

# span name -> (defining module, class, method, counter name, size of the instance)
METHODS = [
    ("core.oracle", "syncreact.core", "BisimOracle", "__init__", None, None),
    ("core.separation_depths", "syncreact.core", "BisimOracle", "_separation_depths", None, None),
    ("reactivity.pair_graph", "syncreact.reactivity", "PairGraph", "__init__",
     "reactivity.pair_graph.nodes", lambda g: len(g.nodes)),
    ("lasso.sequences", "syncreact.lasso", "EffectSequence", "__init__", None, None),
    ("lasso.sequences", "syncreact.lasso", "PairSetSequence", "__init__", None, None),
]

ROOT_SPAN = "cli.main"
LAYERS = ("core", "reactivity", "abstraction", "lasso", "compose", "psyc", "sls", "cli")
SPAN_NAMES = sorted(set(FUNCTIONS) | {m[0] for m in METHODS})
COUNTERS = sorted(
    {spec[2] for spec in FUNCTIONS.values() if spec[2]} | {m[4] for m in METHODS if m[4]}
)
# Constructions of the objects each query should build once.
BUILDS = {"core.oracle.builds": "core.oracle", "reactivity.pair_graph.builds": "reactivity.pair_graph"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, command id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.command = None

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.command]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def begin(self, command: str) -> None:
        self.command = command
        self.stack.clear()
        self._open(ROOT_SPAN)

    def end(self) -> None:
        self._close(self.spans[self.stack[0]])
        self.stack.clear()

    def wrap(self, name, fn, counter=None, size=None, of_self=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                tracer.counts[counter] += size(args[0] if of_self else result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        import syncreact.cli  # noqa: F401  (loads every layer)

        undo = []
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "syncreact"]
        for name, (modname, attr, counter, size) in FUNCTIONS.items():
            original = getattr(importlib.import_module(modname), attr, None)
            if original is None:
                continue  # a layer that no longer exists reports zero work
            wrapper = self.wrap(name, original, counter, size)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        for name, modname, clsname, method, counter, size in METHODS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            original = cls.__dict__.get(method) if cls is not None else None
            if original is None:
                continue
            undo.append((cls, method, original))
            setattr(cls, method, self.wrap(name, original, counter, size, of_self=True))
        try:
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                child[span[3]] += span[2] - span[1]
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def metrics(self) -> dict:
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for span, own in zip(self.spans, self.self_times()):
            self_s[span[0]] += own
            calls[span[0]] += 1
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = (self_s[name], "s")
            out[f"{name}.calls"] = (calls[name], "count")
        for name in COUNTERS:
            out[name] = (self.counts[name], "count")
        for name, span in BUILDS.items():
            out[name] = (calls[span], "count")
        for layer, seconds in self.layer_self().items():
            out[f"layer.{layer}.self_s"] = (seconds, "s")
        return out

    def layer_self(self) -> dict:
        totals = dict.fromkeys(LAYERS, 0.0)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[0].split(".")[0]] += own
        return totals

    def layer_shares(self) -> dict:
        totals = self.layer_self()
        whole = sum(totals.values()) or 1.0
        return {layer: seconds / whole for layer, seconds in totals.items()}


# A layer share below this counts as small in the workload predictions.
SMALL_SHARE = 0.15
PRODUCT_LAYERS = ("reactivity", "compose", "sls")


def predictions(workload: str, shares: dict) -> list[tuple[str, bool]]:
    """The layer-share claims each workload was designed to meet."""
    largest = max(shares, key=shares.get)
    product = sum(shares[layer] for layer in PRODUCT_LAYERS)
    others = max(v for k, v in shares.items() if k not in PRODUCT_LAYERS)
    if workload == "ladder":
        return [
            ("core has the largest self-time share", largest == "core"),
            ("abstraction share is small", shares["abstraction"] < SMALL_SHARE),
            ("reactivity+compose+sls share is small", product < SMALL_SHARE),
        ]
    if workload == "lasso":
        return [
            ("abstraction has the largest self-time share", largest == "abstraction"),
            ("core share is small", shares["core"] < SMALL_SHARE),
        ]
    return [("reactivity+compose+sls outweigh every other layer", product > others)]
