"""Reactivity, observable effects, and reaction time of finite synchronous systems.

The package models complete, finitely-branching Moore-style labeled
transition systems; composes them sequentially and in parallel; decides
reactivity, separators, and worst-case deterministic reaction time; and
computes the compositional under-approximation built from deterministic
observable effects and strongly separating pairs.  A small synchronous
imperative language compiles into such systems for end-to-end analysis.
"""

from .abstraction import (
    LemmaVerdict,
    ObsOrder,
    obs_order,
    doe,
    doe_compose,
    lemma_check,
    merge_sequences,
    merge_symbols,
    obs_leq,
    ssp,
    ssp_seq,
    ssp_seq_pair,
)
from .compose import ComposedSystem, par_compose, seq_compose
from .core import (
    Alphabet,
    BaseWitness,
    BisimOracle,
    IndWitness,
    Partition,
    Run,
    SynchronousSystem,
    bisim_classes,
    bisim_quotient,
    disjoint_union,
    non_bisimilar,
    output_language,
    pair_symbol,
    replay_witness,
    run_outputs,
    runs,
    split_symbol,
    symbol_arity,
    symbol_components,
    validate,
)
from .dot import export_dot
from .lasso import (
    STAR,
    STAR_FOREVER,
    EffectSequence,
    PairSetSequence,
    format_effect_sequence,
    format_pair_set_sequence,
    parse_effect_sequence,
    parse_pair_set_sequence,
)
from .reactivity import (
    ReactionTime,
    SepPairSet,
    StrongSepResult,
    det_reaction_time,
    diff,
    reactive,
    separating_pairs,
    separators,
    strongly_separable,
)

__version__ = "0.1.0"
