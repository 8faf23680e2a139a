"""Doubling bounds and coin audits."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import invauto as iv
from helpers import (
    adding,
    all_words,
    binary_corpus,
    flip_all,
    flip_alternator,
    poly_chain,
    random_funnel,
    remark_chain,
    uv_core,
)


# ---------------------------------------------------------------- theorem 1

def test_report_adding_level_three():
    report = iv.theorem1_report([adding().at("q")], 3, 8)
    assert report.per_item == (1,)
    assert report.aggregate == 8
    assert report.threshold == Fraction(16)
    assert report.satisfied


def test_report_flip_all_never_satisfied():
    r = flip_all().at("r")
    for level in range(9):
        report = iv.theorem1_report([r], level, 8)
        assert report.aggregate == 8 * 2**level
        assert report.threshold == Fraction(8 * 2**level, 4)
        assert not report.satisfied


def test_report_remark_chain_level_three_is_tight():
    report = iv.theorem1_report([remark_chain(8).at("q_1")], 3, 8)
    assert report.per_item == (16,)
    assert report.aggregate == 128
    assert report.threshold == Fraction(128)
    assert report.satisfied


def test_report_threshold_is_exact_rational():
    report = iv.theorem1_report([adding().at("q")], 1, 10)
    assert report.threshold == Fraction(10 * 2, 4) == Fraction(5)
    assert isinstance(report.threshold, Fraction)
    assert report == iv.theorem1_report([adding().at("q")], 1, 10)


def test_report_rejects_small_block_factor():
    with pytest.raises(iv.BlockFactorTooSmallError):
        iv.theorem1_report([adding().at("q")], 3, 7)


def test_report_rejects_mixed_alphabets():
    with pytest.raises(iv.AlphabetMismatchError):
        iv.theorem1_report([adding().at("q"), remark_chain(3).at("q_1")], 2)


def test_minimal_level_examples():
    assert iv.find_minimal_level([remark_chain(8).at("q_1")], 8, 16) == 3
    assert iv.find_minimal_level([adding().at("q")], 8, 16) == 2
    assert iv.find_minimal_level([flip_all().at("r")], 8, 12) is None
    with pytest.raises(iv.ArgumentError):
        iv.find_minimal_level([adding().at("q")], 8, -1)


@pytest.mark.parametrize("block_factor", [8, 9, 13])
def test_minimal_level_is_first_satisfied_report(block_factor):
    corpus = binary_corpus()
    groups = [[g] for g in corpus] + [corpus[:2], corpus[5:], corpus]
    answers = set()
    for hs in groups:
        first = next(
            (level for level in range(13)
             if iv.theorem1_report(hs, level, block_factor).satisfied),
            None,
        )
        assert iv.find_minimal_level(hs, block_factor, 12) == first
        answers.add(first)
    assert None in answers and len(answers) > 2


def test_minimal_level_exists_for_small_members():
    passing = [
        g for g in binary_corpus() + [poly_chain().at("c1")]
        if iv.decide_g0(g).member
    ]
    assert passing
    for g in passing:
        assert iv.find_minimal_level([g], 8, 64) is not None
    together = iv.find_minimal_level(passing, 8, 64)
    assert together is not None


# ---------------------------------------------------------------- theorem 2

def test_t2_flip_alternator_zero_imports():
    report = iv.theorem2_report([flip_alternator().at("a")], 4, 2)
    assert report.per_item == (0,)
    assert report.satisfied
    assert report.period_divisor == 2
    assert report.period_count == iv.count_periods(2, 2) == 4


def test_t2_covers_flip_all_where_t1_fails():
    r = flip_all().at("r")
    assert not iv.theorem1_report([r], 4, 8).satisfied
    report = iv.theorem2_report([r], 4, 1)
    assert report.per_item == (0,)
    assert report.satisfied


def test_t2_input_dependent_core_fails():
    report = iv.theorem2_report([uv_core().at("u")], 4, 1)
    assert report.per_item == (16,)
    assert not report.satisfied
    assert 16 > Fraction(2**4, 4)


def test_t2_rejects_uncovered_cycle_length():
    with pytest.raises(iv.PeriodBoundInvalidError):
        iv.theorem2_report([flip_alternator().at("a")], 4, 1)
    with pytest.raises(iv.PeriodBoundInvalidError):
        iv.theorem2_report([adding().at("q")], 4, 0)


# ---------------------------------------------------------------- coin audits

def test_audit_identity_split_leaves_single_coins():
    e = iv.identity_automaton(2).at("e")
    audit = iv.coin_audit(2, [[(0, 0), (0, 1)], [(1, 0), (1, 1)]], [e, e])
    assert audit.total_coins == 4
    assert all(c == 1 for c in audit.coin_counts.values())
    assert len(audit.deficit) == 4
    assert not audit.doubling


def test_audit_adding_blocks_conserve_coins():
    q = adding().at("q")
    q2 = q.then(q)
    audit = iv.coin_audit(2, [list(all_words(2, 2)), []], [q, q2])
    assert audit.total_coins == 4
    assert audit.deficit


def test_audit_single_flip_block():
    audit = iv.coin_audit(1, [[(0,), (1,)]], [flip_all().at("r")])
    assert audit.coin_counts == {(0,): 1, (1,): 1}
    assert len(audit.deficit) == 2


def test_audit_partition_overlap():
    e = iv.identity_automaton(2).at("e")
    with pytest.raises(iv.PartitionOverlapError):
        iv.coin_audit(1, [[(0,)], [(0,), (1,)]], [e, e])


def test_audit_partition_not_total():
    e = iv.identity_automaton(2).at("e")
    with pytest.raises(iv.PartitionNotTotalError):
        iv.coin_audit(1, [[(0,)], []], [e, e])


def test_random_audits_never_double():
    rng = random.Random(99)
    members = binary_corpus()
    for _ in range(12):
        level = rng.randint(1, 6)
        d = rng.randint(1, 4)
        hs = [rng.choice(members) for _ in range(d)]
        parts: list[list] = [[] for _ in range(d)]
        for word in all_words(2, level):
            parts[rng.randrange(d)].append(word)
        audit = iv.coin_audit(level, parts, hs)
        assert audit.total_coins == 2**level
        assert audit.deficit
        assert not audit.doubling


def test_funnel_compositions_stay_small():
    rng = random.Random(17)
    for _ in range(6):
        a = random_funnel(rng, rng.randint(1, 4), 2)
        b = random_funnel(rng, rng.randint(1, 4), 2)
        g, h = a.at("t0"), b.at("t0")
        assert iv.decide_g0(g).member and iv.decide_g0(h).member
        assert iv.decide_g0(g.then(h)).member
        assert iv.decide_g0(g.inverse()).member
        assert iv.find_minimal_level([g, h], 8, 64) is not None
