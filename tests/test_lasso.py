"""Lasso sequences: canonical form, merge algebra, observational order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncreact.errors import FormatError
from syncreact.lasso import (
    STAR,
    _canonical,
    STAR_FOREVER,
    EffectSequence,
    PairSetSequence,
    format_effect_sequence,
    format_pair_set_sequence,
    merge_sequences,
    merge_symbols,
    obs_leq,
    parse_effect_sequence,
    parse_pair_set_sequence,
    star_prepend,
)

from .oracles import stepwise_canonical

SYMBOLS = [STAR, ("0", "1"), ("1", "0"), ("ff", "tt")]

effect_symbols = st.sampled_from(SYMBOLS)
effect_sequences = st.builds(
    EffectSequence,
    st.lists(effect_symbols, max_size=4).map(tuple),
    st.lists(effect_symbols, min_size=1, max_size=4).map(tuple),
)


class TestCanonicalForm:
    def test_cycle_period_is_minimized(self):
        seq = EffectSequence((), (STAR, ("0", "1"), STAR, ("0", "1")))
        assert seq.cycle == (STAR, ("0", "1"))

    def test_prefix_is_absorbed_into_cycle(self):
        seq = EffectSequence((STAR,), (("0", "1"), STAR))
        # The prefix's last symbol equals the cycle's last: rotate.
        assert seq.prefix == ()
        assert seq.cycle == (STAR, ("0", "1"))

    def test_indexing_crosses_the_loop_point(self):
        seq = EffectSequence((STAR,), (("0", "1"), ("1", "0")))
        assert [seq[i] for i in range(5)] == [
            STAR,
            ("0", "1"),
            ("1", "0"),
            ("0", "1"),
            ("1", "0"),
        ]

    @given(effect_sequences)
    def test_canonical_form_is_stable(self, seq):
        again = EffectSequence(seq.prefix, seq.cycle)
        assert again == seq

    @given(
        st.lists(st.sampled_from("ab"), max_size=6).map(tuple),
        st.lists(st.sampled_from("ab"), min_size=1, max_size=6).map(tuple),
        st.integers(0, 5),
        st.lists(st.sampled_from("ab"), max_size=3).map(tuple),
    )
    def test_absorption_matches_one_symbol_at_a_time(self, head, cycle, repeats, tail):
        prefix = head + cycle * repeats + tail
        assert _canonical(prefix, cycle) == stepwise_canonical(prefix, cycle)

    @given(effect_sequences)
    def test_canonicalization_preserves_values(self, seq):
        raw_prefix = (STAR, STAR) + seq.prefix
        raw = EffectSequence(raw_prefix, seq.cycle * 2)
        padded = star_prepend(2, seq)
        assert raw.window(16) == padded.window(16)


class TestMerge:
    def test_idempotent_on_equal_pairs(self):
        assert merge_symbols(("ff", "tt"), ("ff", "tt")) == ("ff", "tt")

    def test_disagreement_collapses_to_star(self):
        assert merge_symbols(("ff", "tt"), STAR) is STAR
        assert merge_symbols(("ff", "tt"), ("tt", "ff")) is STAR

    def test_lasso_merge_from_worked_example(self):
        # [* | (0,1) *] + [* | * (0,1)]: expand to period 2 and merge
        # pointwise; every position disagrees, so the result is silent.
        left = EffectSequence((STAR,), (("0", "1"), STAR))
        right = EffectSequence((STAR,), (STAR, ("0", "1")))
        assert merge_sequences([left, right]) == STAR_FOREVER

    def test_rejects_empty_family(self):
        with pytest.raises(ValueError):
            merge_sequences([])

    @given(effect_sequences, effect_sequences)
    @settings(max_examples=300)
    def test_commutative(self, a, b):
        assert merge_sequences([a, b]) == merge_sequences([b, a])

    @given(effect_sequences, effect_sequences, effect_sequences)
    @settings(max_examples=400)
    def test_associative(self, a, b, c):
        left = merge_sequences([merge_sequences([a, b]), c])
        right = merge_sequences([a, merge_sequences([b, c])])
        assert left == right

    @given(effect_sequences)
    @settings(max_examples=300)
    def test_idempotent(self, a):
        assert merge_sequences([a, a]) == a

    @given(effect_sequences, effect_sequences)
    @settings(max_examples=300)
    def test_merge_is_a_lower_bound(self, a, b):
        merged = merge_sequences([a, b])
        assert obs_leq(merged, a)
        assert obs_leq(merged, b)


class TestObsOrder:
    def test_silent_is_least(self):
        seq = EffectSequence((STAR, ("0", "1")), (("2", "3"),))
        assert obs_leq(STAR_FOREVER, seq)

    def test_single_position_weakening(self):
        lower = EffectSequence((STAR, ("0", "1")), (STAR,))
        upper = EffectSequence((STAR, ("0", "1")), (("2", "3"),))
        assert obs_leq(lower, upper)
        assert not obs_leq(upper, lower)

    def test_conflicting_positions_incomparable(self):
        a = EffectSequence((("0", "1"),), (STAR,))
        b = EffectSequence((("1", "0"),), (STAR,))
        assert not obs_leq(a, b)
        assert not obs_leq(b, a)

    @given(effect_sequences)
    def test_reflexive(self, a):
        assert obs_leq(a, a)

    @given(effect_sequences, effect_sequences)
    @settings(max_examples=300)
    def test_antisymmetric(self, a, b):
        if obs_leq(a, b) and obs_leq(b, a):
            assert a == b

    @given(effect_sequences, effect_sequences, effect_sequences)
    @settings(max_examples=400)
    def test_transitive(self, a, b, c):
        if obs_leq(a, b) and obs_leq(b, c):
            assert obs_leq(a, c)

    @given(effect_sequences, st.integers(min_value=0, max_value=6))
    @settings(max_examples=200)
    def test_weakening_chain_descends(self, seq, position):
        base, period = len(seq.prefix), len(seq.cycle)
        if position < base:
            unrolled = base
        else:
            unrolled = base + period * ((position - base) // period + 1)
        window = list(seq.window(unrolled))
        window[position] = STAR
        weakened = EffectSequence(tuple(window), seq.cycle)
        assert obs_leq(weakened, seq)
        if seq[position] is not STAR:
            assert not obs_leq(seq, weakened)


class TestTextualForms:
    def test_effect_sequence_round_trip(self):
        seq = EffectSequence((STAR,), (("ff", "tt"),))
        text = format_effect_sequence(seq)
        assert text == "* | (ff,tt)"
        assert parse_effect_sequence(text) == seq

    def test_silent_sequence(self):
        assert format_effect_sequence(STAR_FOREVER) == "| *"
        assert parse_effect_sequence("| *") == STAR_FOREVER

    def test_product_symbol_pairs_split_evenly(self):
        seq = parse_effect_sequence("| (a,b,c,d)")
        assert seq.cycle == ((("a,b", "c,d")),)

    def test_pair_set_sequence_round_trip(self):
        seq = PairSetSequence(
            (frozenset({("a", "b")}),),
            (frozenset(), frozenset({("a", "b"), ("a", "c")})),
        )
        text = format_pair_set_sequence(seq)
        assert parse_pair_set_sequence(text) == seq

    def test_bad_inputs(self):
        with pytest.raises(FormatError):
            parse_effect_sequence("* *")
        with pytest.raises(FormatError):
            parse_effect_sequence("(x) | *")
        with pytest.raises(FormatError):
            parse_pair_set_sequence("{a-b} | {}")
