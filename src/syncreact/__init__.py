"""Reactivity, observable effects, and reaction time of finite synchronous systems.

The package models complete, finitely-branching Moore-style labeled
transition systems; composes them sequentially and in parallel; decides
reactivity, separators, and worst-case deterministic reaction time; and
computes the compositional under-approximation built from deterministic
observable effects and strongly separating pairs.  A small synchronous
imperative language compiles into such systems for end-to-end analysis.

``import syncreact`` loads no submodule: each public name below is
imported from its defining module on first access (PEP 562), so a
command line run pays only for the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Defining module -> the public names it provides here.
_EXPORTS = {
    "abstraction": (
        "LemmaVerdict",
        "doe",
        "doe_compose",
        "lemma_check",
        "ssp",
        "ssp_seq",
    ),
    "compose": ("ComposedSystem", "disjoint_union", "par_compose", "seq_compose"),
    "core": (
        "Alphabet",
        "BisimOracle",
        "Partition",
        "Run",
        "STAR",
        "SynchronousSystem",
        "bisim_classes",
        "bisim_quotient",
        "non_bisimilar",
        "output_language",
        "pair_symbol",
        "run_outputs",
        "runs",
        "symbol_components",
        "validate",
    ),
    "dot": ("export_dot",),
    "lasso": (
        "STAR_FOREVER",
        "EffectSequence",
        "PairSetSequence",
        "format_effect_sequence",
        "format_pair_set_sequence",
        "merge_sequences",
        "merge_symbols",
        "obs_leq",
    ),
    "reactivity": (
        "ReactionTime",
        "SepPairSet",
        "StrongSepResult",
        "det_reaction_time",
        "diff",
        "reactive",
        "separating_pairs",
        "separators",
        "strongly_separable",
    ),
    "witness": ("BaseWitness", "IndWitness", "replay_witness"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "errors", "psyc", "separation", "sls"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
