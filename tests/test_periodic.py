"""Eventually periodic words: application, period divisibility, class counts."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invauto as iv
from helpers import (
    adding,
    all_words,
    binary_corpus,
    flip_alternator,
    oracle_cycle_reached,
    random_automaton,
    random_ep_word,
    random_leaky,
    random_mixed_degree,
    remark_chain,
    uv_core,
)

EP = iv.EventuallyPeriodicWord


# ---------------------------------------------------------------- the type

def test_period_is_canonicalized_to_primitive():
    word = EP((1, 0), (0, 1, 0, 1))
    assert word.period == (0, 1)
    assert word.level == 2


def test_empty_period_rejected():
    with pytest.raises(ValueError):
        EP((0,), ())


def test_positional_period_reading():
    # 123 010101... has period 01 at level 3 but period 10 at level 4
    word = EP((1, 2, 3), (0, 1))
    assert word.tail_from(3) == EP((), (0, 1))
    assert word.tail_from(4) == EP((), (1, 0))
    assert EP((), (0, 1)) != EP((), (1, 0))


def test_presentation_level_is_part_of_the_value():
    assert EP((1,), (1,)) != EP((), (1,))
    assert EP((1,), (1,)).first(6) == EP((), (1,)).first(6)


def test_indexing_and_first():
    word = EP((0, 1), (1, 0, 0))
    assert word.first(8) == (0, 1, 1, 0, 0, 1, 0, 0)
    assert word[100] == word[100 - 3]
    assert word[True] == 1  # a bool is an int
    for position, message in [(1.5, "position must be an int, not float"),
                              ("1", "position must be an int, not str")]:
        with pytest.raises(iv.ArgumentError) as info:
            word[position]
        assert str(info.value) == message
    with pytest.raises(IndexError, match="no negative positions"):
        word[-1]


# ---------------------------------------------------------------- application

def test_apply_adding_to_all_ones():
    image = iv.apply_to_ep_word(adding().at("q"), EP((), (1,)))
    assert image == EP((), (0,))


def test_apply_adding_with_zero_prefix():
    image = iv.apply_to_ep_word(adding().at("q"), EP((0,), (1,)))
    assert image == EP((1,), (1,))


def test_apply_flip_alternator_doubles_period():
    image = iv.apply_to_ep_word(flip_alternator().at("a"), EP((), (0,)))
    assert image == EP((), (1, 0))


def test_apply_agrees_with_streaming_on_corpus():
    rng = random.Random(5)
    for g in binary_corpus():
        for _ in range(12):
            word = random_ep_word(rng, 2, 4, 3)
            image = iv.apply_to_ep_word(g, word)
            streamed = list(itertools.islice(g.apply_stream(word.letters()), 200))
            assert list(image.first(200)) == streamed


def test_apply_on_deep_chain_agrees_with_streaming():
    g = remark_chain(210).at("q_1")
    word = EP((0,), (2, 3))
    image = iv.apply_to_ep_word(g, word)
    streamed = list(itertools.islice(g.apply_stream(word.letters()), 200))
    assert list(image.first(200)) == streamed


def test_apply_climbing_word_is_not_materializable():
    # without letters 0/1 the chain walks away forever: no state pair repeats
    g = remark_chain(50).at("q_1")
    with pytest.raises(iv.NotMaterializableError):
        iv.apply_to_ep_word(g, EP((), (2,)))


def test_output_periods_are_primitive():
    rng = random.Random(9)
    for g in binary_corpus():
        for _ in range(10):
            image = iv.apply_to_ep_word(g, random_ep_word(rng, 2, 3, 4))
            assert iv.primitive_root(image.period) == image.period


@given(
    st.sampled_from([random_automaton, random_mixed_degree]),
    st.integers(1, 6),
    st.sampled_from([2, 3]),
    st.integers(0, 2**32 - 1),
)
def test_derived_words_equal_their_checked_rebuilds(generate, n, k, seed):
    """Images and tails skip the record rule; each must be the word the
    checking constructor makes of the same prefix and period."""
    rng = random.Random(seed)
    machine = generate(rng, n, k)
    for state in machine.states:
        word = random_ep_word(rng, k, 4, 6)
        image = iv.apply_to_ep_word(machine.at(state), word)
        tails = [w.tail_from(p) for w in (word, image) for p in range(w.level + 2 * len(w.period))]
        for derived in (image, *tails):
            rebuilt = EP(derived.prefix, derived.period)
            assert derived == rebuilt and hash(derived) == hash(rebuilt)


# ---------------------------------------------------------------- divisibility

def test_lemma1_adding_with_zero_prefix():
    verdict = iv.check_lemma1(adding().at("q"), EP((0,), (1,)), 1)
    assert verdict.applicable and verdict.holds
    assert (verdict.input_period, verdict.cycle_length) == (1, 1)
    assert verdict.observed_period == 1 and verdict.bound == 1


def test_lemma1_flip_alternator_at_level_zero():
    verdict = iv.check_lemma1(flip_alternator().at("a"), EP((), (0,)), 0)
    assert verdict.applicable and verdict.holds
    assert (verdict.input_period, verdict.cycle_length) == (1, 2)
    assert verdict.observed_period == 2 and verdict.bound == 2


def test_lemma1_not_applicable_when_no_cycle_reached():
    verdict = iv.check_lemma1(adding().at("q"), EP((1,), (1,)), 1)
    assert not verdict.applicable
    assert verdict.holds is None


def test_lemma_checks_refuse_period_letters_off_every_cycle():
    """The period's letters are checked also when the prefix's run ends on
    no unconditional cycle, where no image is taken."""
    q = adding().at("q")
    with pytest.raises(iv.LetterOutOfRangeError) as raised:
        iv.check_lemma1(q, EP((1,), (5,)), 1)
    assert str(raised.value) == "letter index 5 out of range for alphabet of size 2"
    with pytest.raises(iv.LetterOutOfRangeError) as raised:
        iv.check_lemma2(q, 1, 1, 1, [EP((1,), (7,))])
    assert str(raised.value) == "letter index 7 out of range for alphabet of size 2"


def test_lemma1_level_must_match_presentation():
    with pytest.raises(ValueError):
        iv.check_lemma1(adding().at("q"), EP((0,), (1,)), 2)


def test_lemma1_randomized_and_applicability_matches_cycle_avoidance():
    rng = random.Random(31)
    lengths = {}
    cases = 0
    for g in binary_corpus() + [remark_chain(40).at("q_1")]:
        k = g.alphabet.size
        uc_states = {
            g.automaton.state_index(s)
            for c in iv.find_ucs(g.automaton)
            for s in c.states
        }
        for _ in range(60):
            word = random_ep_word(rng, k, 4, 3)
            level = word.level
            verdict = iv.check_lemma1(g, word, level)
            avoided = all(q not in uc_states for q in g.path(word.first(level)))
            assert verdict.applicable == (not avoided)
            if verdict.applicable:
                cases += 1
                assert verdict.holds
    assert cases > 100


@settings(max_examples=100)
@given(
    st.sampled_from([random_leaky, random_mixed_degree]),
    st.integers(1, 8),
    st.sampled_from([2, 3]),
    st.integers(0, 2**32 - 1),
)
def test_lemma_checks_match_the_first_cycle_walk(generate, n, k, seed):
    """Both checks read the cycle off the state the prefix ends in; the walk
    over the whole path for the first cycle state gives the same answer, from
    every start, on machines with cycles of several lengths."""
    rng = random.Random(seed)
    machine = generate(rng, n, k)
    for state in machine.states:
        g = machine.at(state)
        by_level = {}
        for _ in range(12):
            word = random_ep_word(rng, k, 5, 3)
            by_level.setdefault(word.level, []).append(word)
            c = oracle_cycle_reached(g, word, word.level)
            verdict = iv.check_lemma1(g, word, word.level)
            assert (verdict.applicable, verdict.cycle_length) == (c is not None, c)
        for level, samples in by_level.items():
            # every cycle is at most n_states long, so this divisor covers them all
            divisor = math.lcm(*range(1, machine.n_states + 1), *(len(w.period) for w in samples))
            verdict = iv.check_lemma2(g, level, machine.n_states, divisor, samples)
            entered = sum(oracle_cycle_reached(g, w, level) is not None for w in samples)
            assert verdict.checked + verdict.failed == entered
            assert verdict.skipped == len(samples) - entered


def test_lemma2_adding_examples():
    q = adding().at("q")
    verdict = iv.check_lemma2(q, 1, 1, 1, [EP((0,), (1,)), EP((0,), (0,))])
    assert (verdict.checked, verdict.skipped, verdict.failed) == (2, 0, 0)
    verdict = iv.check_lemma2(q, 1, 1, 1, [EP((1,), (1,))])
    assert (verdict.checked, verdict.skipped, verdict.failed) == (0, 1, 0)


def test_lemma2_flip_alternator_checks_everything():
    a = flip_alternator().at("a")
    samples = [EP((), (0, 1)), EP((), (1,)), EP((), (1, 0))]
    verdict = iv.check_lemma2(a, 0, 2, 2, samples)
    assert (verdict.checked, verdict.skipped, verdict.failed) == (3, 0, 0)


def test_lemma2_finds_unconditional_cycles_once(monkeypatch):
    calls = []
    find_ucs = iv.counting.find_ucs

    def counted(automaton):
        calls.append(automaton)
        return find_ucs(automaton)

    monkeypatch.setattr(iv.counting, "find_ucs", counted)
    samples = [EP(prefix, (1,)) for prefix in all_words(2, 2)]
    verdict = iv.check_lemma2(adding().at("q"), 2, 1, 1, samples)
    assert (verdict.checked, verdict.skipped) == (3, 1)
    assert len(calls) == 1


def test_lemma2_refuses_levels_past_the_horizon():
    g = remark_chain(8).at("q_1")
    with pytest.raises(iv.NotMaterializableError):
        iv.check_lemma2(g, 9, 1, 1, [])
    assert iv.check_lemma2(g, 8, 1, 1, []).ok


def test_lemma2_cycle_bound_too_small():
    with pytest.raises(iv.CycleBoundTooSmallError):
        iv.check_lemma2(flip_alternator().at("a"), 0, 1, 2, [])


def test_lemma2_period_divisor_must_cover_reachable_cycles():
    a = flip_alternator().at("a")
    with pytest.raises(
        iv.PeriodBoundInvalidError,
        match="period divisor 3 is not a multiple of cycle length 2 reachable by 'a'",
    ):
        iv.check_lemma2(a, 0, 2, 3, [])
    # a too-small cycle bound is reported before a bad divisor
    with pytest.raises(iv.CycleBoundTooSmallError):
        iv.check_lemma2(a, 0, 1, 3, [])


def test_lemma2_rejects_samples_outside_the_class():
    q = adding().at("q")
    with pytest.raises(ValueError):
        iv.check_lemma2(q, 1, 1, 1, [EP((0,), (0, 1))])
    with pytest.raises(ValueError):
        iv.check_lemma2(q, 1, 1, 1, [EP((0, 0), (1,))])


# ---------------------------------------------------------------- period counts

def test_count_periods_pinned_values():
    assert iv.count_periods(2, 1) == 2
    assert iv.count_periods(2, 2) == 4
    assert iv.count_periods(2, 3) == 8


def _brute_periods(k, divisor):
    total = 0
    for d in range(1, divisor + 1):
        if divisor % d:
            continue
        for word in all_words(k, d):
            primitive = all(
                word != word[:e] * (d // e) for e in range(1, d) if d % e == 0
            )
            if primitive:
                total += 1
    return total


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("divisor", list(range(1, 9)))
def test_count_periods_matches_enumeration(k, divisor):
    assert iv.count_periods(k, divisor) == _brute_periods(k, divisor)


def test_period_class_slicing_matches_nc():
    """Fixing any periodic tail, the level prefixes avoiding cycles number NC."""
    divisor = 4
    tails = [
        w
        for d in (1, 2, 4)
        for w in all_words(2, d)
        if iv.primitive_root(w) == w
    ]
    for g in [adding().at("q"), flip_alternator().at("a"), uv_core().at("u")]:
        uc_states = {
            g.automaton.state_index(s)
            for c in iv.find_ucs(g.automaton)
            for s in c.states
        }
        for level in range(5):
            expected = iv.count_nc(g, level)[level]
            for tail in tails:
                hits = 0
                for prefix in all_words(2, level):
                    word = EP(prefix, tail)
                    path = g.path(word.first(level))
                    if all(q not in uc_states for q in path):
                        hits += 1
                assert hits == expected
