"""Doubling bounds and coin audits."""

from __future__ import annotations

import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import invauto as iv
from invauto import paradox
from helpers import (
    Index,
    adding,
    all_words,
    binary_corpus,
    decimal_value,
    flip_all,
    flip_alternator,
    generated_repr,
    oracle_audit_validation,
    oracle_block_imports,
    oracle_coin_audit,
    oracle_period_leaks,
    poly_chain,
    random_automaton,
    random_funnel,
    random_leaky,
    remark_chain,
    uv_core,
)

EP = iv.EventuallyPeriodicWord
GENERATE = {"random": random_automaton, "leaky": random_leaky, "funnel": random_funnel}


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


def test_report_object_rejects_small_block_factor():
    report = iv.theorem1_report([adding().at("q")], 3)
    fields = {**report.__dict__, "block_factor": 7}
    with pytest.raises(iv.BlockFactorTooSmallError, match="block factor 7 is below the minimum 8"):
        iv.ParadoxReport(**fields)


@pytest.mark.parametrize("changes, message", [
    ({"per_item": (1.0,)}, "per_item[0] must be an int, not float"),
    ({"aggregate": 8.0}, "aggregate must be an int, not float"),
    ({"threshold": 4.0}, "threshold must be an int or a Fraction, not float"),
], ids=["per-item", "aggregate", "threshold"])
def test_report_object_refuses_a_float(changes, message):
    report = iv.theorem1_report([adding().at("q")], 1)
    with pytest.raises(iv.ArgumentError) as info:
        iv.ParadoxReport(**{**report.__dict__, **changes})
    assert str(info.value) == message
    # an int threshold and bool counts are exact
    exact = {"per_item": (True,), "aggregate": True, "threshold": 4, "satisfied": True}
    assert iv.ParadoxReport(**{**report.__dict__, **exact}).aggregate == 1


@pytest.mark.parametrize(
    "report",
    [
        lambda hs, level: iv.theorem1_report(hs, level),
        lambda hs, level: iv.theorem2_report(hs, level, 1),
    ],
    ids=["t1", "t2"],
)
def test_report_refuses_negative_level(report):
    with pytest.raises(iv.ArgumentError, match="level must be >= 0"):
        report([adding().at("q")], -1)


@pytest.mark.parametrize("call, what", [
    (lambda g, level: iv.count_ns(g, level), "level"),
    (lambda g, level: iv.count_nc(g, level), "level"),
    (lambda g, level: iv.theorem1_report([g], level), "level"),
    (lambda g, level: iv.theorem2_report([g], level, 1), "level"),
    (lambda g, level: iv.find_minimal_level([g], 8, level), "max_level"),
    (lambda g, level: iv.coin_audit(level, [[]], [g]), "level"),
    (lambda g, level: iv.coin_audit(level, [[(0,)]], [g]), "level"),
], ids=["ns", "nc", "t1", "t2", "min-level", "audit", "audit-with-words"])
@pytest.mark.parametrize("g", [adding().at("q"), remark_chain(3).at("q_1")], ids=["adding", "chain"])
@pytest.mark.parametrize("level", [sys.maxsize, 10**20])
def test_a_level_from_sys_maxsize_up_is_a_usage_error(call, what, g, level):
    # also past a depth-bounded table's horizon: the level itself is refused
    with pytest.raises(iv.ArgumentError, match=f"^{what} must be below sys.maxsize, {sys.maxsize}$"):
        call(g, level)


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
    # repeats, some equal by value only: each copy counts once more
    groups += [
        [adding().at("q") for _ in range(6)] + corpus[5:7],
        [corpus[6]] * 3 + [corpus[0], corpus[6]],
        corpus + corpus,
    ]
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


@settings(max_examples=40)
@given(
    st.sampled_from(["random", "leaky", "funnel"]),
    st.integers(1, 8),
    st.integers(0, 4),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_imports_into_a_block_are_at_most_s_times_ns(kind, n, level, consecutive, seed):
    """The report's sentence, counted word by word: a word uv with |u| = level
    maps to h(u) h|_u(v), and a trivial section h|_u keeps the tail v, so only
    the NS(h, level) prefixes u with a nontrivial section bring words into the
    block {uv : v in V} from outside it, at most s = |V| each.  V is s = 8 of
    the 4-letter tails, consecutive in lexicographic order or any."""
    rng = random.Random(seed)
    machine = GENERATE[kind](rng, n, 2)
    every_tail, s = list(all_words(2, 4)), 8
    if consecutive:
        first = rng.randrange(len(every_tail) - s + 1)
        tails = every_tail[first:first + s]
    else:
        tails = rng.sample(every_tail, s)
    for state in machine.states:
        g = machine.at(state)
        assert oracle_block_imports(g, level, 4, tails) <= s * iv.count_ns(g, level)[level]


@settings(max_examples=60)
@given(
    st.sampled_from(["random", "leaky", "funnel"]),
    st.integers(1, 8),
    st.integers(0, 3),
    st.booleans(),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_a_block_keeps_the_deficit_the_report_promises(kind, n, level, consecutive, pieces, seed):
    """The report's sentence, counted on an audit: in any scheme on the words
    of length level + 4, the block {uv : v in V} of B = s * 2**level words
    (V is s = 8 of the 4-letter tails) receives at most B + A coins, its own
    B and at most A = aggregate from words outside it.  Each word with two
    coins takes two of them, so the block's deficit D has 2D >= B - A, and
    8D >= 3B when the report is satisfied (A <= B / 4)."""
    rng = random.Random(seed)
    machine = GENERATE[kind](rng, n, 2)
    every_tail, s = list(all_words(2, 4)), 8
    if consecutive:
        first = rng.randrange(len(every_tail) - s + 1)
        tails = every_tail[first:first + s]
    else:
        tails = rng.sample(every_tail, s)
    hs = [machine.at(rng.choice(machine.states)) for _ in range(pieces)]
    parts: list[list] = [[] for _ in hs]
    for word in all_words(2, level + 4):
        parts[rng.randrange(pieces)].append(word)
    audit = iv.coin_audit(level + 4, parts, hs)
    report = iv.theorem1_report(hs, level, block_factor=s)
    block = [u + v for u in all_words(2, level) for v in tails]
    big_b, big_a = s * 2**level, report.aggregate
    assert len(block) == big_b
    assert sum(audit.coin_counts[w] for w in block) <= big_b + big_a
    deficit = sum(audit.coin_counts[w] < 2 for w in block)
    assert 2 * deficit >= big_b - big_a
    if report.satisfied:
        assert 8 * deficit >= 3 * big_b


# ---------------------------------------------------------------- theorem 2

def _cycle_lcm(hs, level):
    """The smallest period divisor a report on ``hs`` at ``level`` accepts."""
    return math.lcm(*(c for h in hs for c in iv.reachable_uc_lengths(h, level)))


@settings(max_examples=200)
@given(
    st.sampled_from(["random", "leaky", "funnel"]),
    st.integers(1, 7),
    st.integers(0, 4),
    st.integers(0, 2**32 - 1),
)
def test_per_period_word_at_most_nc_prefixes_leave_the_periodic_tails(kind, n, level, seed):
    """The report's sentence, counted word by word: a prefix u whose run ends
    on an unconditional cycle, of a length dividing m, makes h(u p p p ...)
    periodic with period m past the level for every period word p.  So per
    p at most NC(h, level) prefixes leave that population, and as many
    enter it: the leaks of h^-1, whose NC is the same."""
    machine = GENERATE[kind](random.Random(seed), n, 2)
    hs = [machine.at(state) for state in machine.states]
    m = _cycle_lcm(hs, level)
    assume(m <= 6)
    for h in hs:
        nc = iv.count_nc(h, level)[level]
        for g in (h, h.inverse()):
            assert max(oracle_period_leaks(g, level, m)) <= nc


@settings(max_examples=150)
@given(
    st.sampled_from(["random", "leaky", "funnel"]),
    st.integers(1, 7),
    st.integers(0, 4),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_a_t2_report_bounds_the_period_leaks_of_its_items(kind, n, level, pieces, seed):
    """Per period word p, the prefixes that the report's items send out of
    the periodic-tail population, summed over the items, are at most the
    sum of its per-item counts."""
    rng = random.Random(seed)
    machine = GENERATE[kind](rng, n, 2)
    hs = [machine.at(rng.choice(machine.states)) for _ in range(pieces)]
    m = _cycle_lcm(hs, level)
    assume(m <= 6)
    report = iv.theorem2_report(hs, level, m)
    leaks = [sum(per_p) for per_p in zip(*(oracle_period_leaks(h, level, m) for h in hs))]
    assert max(leaks) <= sum(report.per_item)


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
    with pytest.raises(iv.ArgumentError, match="period divisor must be >= 1"):
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


def test_audit_overlap_names_the_blocks():
    e = iv.identity_automaton(2).at("e")
    words = ["00", "01", "10", "11"]
    with pytest.raises(iv.PartitionOverlapError) as info:
        iv.coin_audit(2, [[e.alphabet.word(w) for w in words + ["00"]]], [e])
    assert str(info.value) == "word '00' is listed twice in block 1"
    with pytest.raises(iv.PartitionOverlapError) as info:
        iv.coin_audit(2, [[e.alphabet.word(w) for w in words], [(1, 0)]], [e, e])
    assert str(info.value) == "word '10' is assigned to blocks 1 and 2"


def test_audit_partition_not_total():
    e = iv.identity_automaton(2).at("e")
    with pytest.raises(iv.PartitionNotTotalError):
        iv.coin_audit(1, [[(0,)], []], [e, e])


def test_audit_names_the_first_unassigned_word():
    words = [w for w in all_words(2, 3) if w not in ((1, 0, 1), (1, 1, 0))]
    with pytest.raises(iv.PartitionNotTotalError) as info:
        iv.coin_audit(3, [words], [adding().at("q")])
    assert str(info.value) == "word '101' is not assigned to any block"


def test_audit_checks_each_word_once(monkeypatch):
    calls = []
    check_word = iv.Alphabet.check_word

    def counted(self, word):
        calls.append(word)
        return check_word(self, word)

    monkeypatch.setattr(iv.Alphabet, "check_word", counted)
    words = list(all_words(2, 4))
    q = adding().at("q")
    hs = [q, q.inverse()]
    # a valid partition is accepted by one comparison: no word is checked
    audit = iv.coin_audit(4, [words[:5], words[5:]], hs)
    assert calls == []
    images = [hs[0].apply(w) for w in words[:5]] + [hs[1].apply(w) for w in words[5:]]
    assert audit.coin_counts == {w: images.count(w) for w in words}
    # a malformed one is read word by word, each word checked at most once
    for parts, error in [
        ([words[:5], words[5:-1]], iv.PartitionNotTotalError),
        ([words[:5], words[5:9] + [(0, 1)] + words[9:]], iv.ArgumentError),
        ([words[:5], words[5:] + [(0, 0, 0, 2)]], iv.LetterOutOfRangeError),
        ([words[:5] + [(0.5, 0, 0, 0)], words[5:]], iv.LetterOutOfRangeError),
    ]:
        calls.clear()
        with pytest.raises(error):
            iv.coin_audit(4, parts, hs)
        assert calls and len(calls) == len(set(calls))


def test_audit_refuses_blocks_past_their_horizon():
    chain = remark_chain(3)
    words = list(all_words(4, 3))
    q1, q2, q3 = (chain.at(f"q_{i}") for i in (1, 2, 3))  # horizons 3, 2, 1
    # a block no word is sent through is never run
    assert iv.coin_audit(3, [words, []], [q1, q3]).total_coins == 64
    with pytest.raises(iv.NotMaterializableError, match="horizon 1 of state 'q_3'"):
        iv.coin_audit(3, [words[:1], words[1:]], [q1, q3])
    # the first block a word is sent through is the one named
    with pytest.raises(iv.NotMaterializableError, match="of state 'q_3'"):
        iv.coin_audit(3, [words[1:], words[:1]], [q3, q2])
    with pytest.raises(iv.NotMaterializableError, match="of state 'q_2'"):
        iv.coin_audit(3, [words[1:], words[:1]], [q2, q3])


def test_audit_refuses_past_a_horizon_before_reading_a_word(monkeypatch):
    calls = []
    check_word = iv.Alphabet.check_word

    def counted(self, word):
        calls.append(word)
        return check_word(self, word)

    monkeypatch.setattr(iv.Alphabet, "check_word", counted)
    q4 = remark_chain(4).at("q_4")  # horizon 1
    with pytest.raises(iv.NotMaterializableError, match="level 9 exceeds the materialized"):
        iv.coin_audit(9, [list(all_words(4, 9))], [q4])
    assert calls == []
    # a horizon error wins over a partition error in the same call
    with pytest.raises(iv.NotMaterializableError, match="of state 'q_4'"):
        iv.coin_audit(2, [[(0, 0)], [(0, 0)]], [remark_chain(4).at("q_1"), q4])


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


@st.composite
def audit_cases(draw):
    """A valid audit: one to sixteen blocks over one to three machines, whose
    transformations repeat, as the same object or as an equal one, some
    blocks empty; levels 0-6, and 9-11 over two letters and 7 over three,
    where the word tree splits into prefixes and suffixes of several
    letters each."""
    k = draw(st.sampled_from([2, 3]))
    level = draw(st.integers(0, 6) | (st.integers(9, 11) if k == 2 else st.just(7)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    makers = st.sampled_from([random_automaton, random_leaky, random_funnel])
    machines = [draw(makers)(rng, draw(st.integers(1, 8)), k) for _ in range(draw(st.integers(1, 3)))]
    pool = [m.at(rng.choice(m.states)) for m in machines for _ in range(2)]
    hs = [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(1, 15)))]
    if draw(st.booleans()):
        hs.append(hs[0].automaton.at(hs[0].state))
    weights = [draw(st.sampled_from([0, 1, 3, 12])) for _ in hs]
    if not any(weights):
        weights[0] = 1
    parts: list[list] = [[] for _ in hs]
    for word in all_words(k, level):
        parts[rng.choices(range(len(hs)), weights)[0]].append(word)
    return level, parts, hs


@settings(max_examples=150)
@given(audit_cases())
def test_audit_matches_the_word_by_word_oracle(case):
    level, parts, hs = case
    audit = iv.coin_audit(level, parts, hs)
    want = oracle_coin_audit(level, parts, hs)
    assert audit == want
    assert repr(audit) == repr(want)  # the dicts' orders too


MALFORMATIONS = ["short", "long", "out_of_range", "not_an_int", "index", "twice_in_a_block",
                 "in_two_blocks", "missing", "extra", "lists"]


@settings(max_examples=300)
@given(
    k=st.sampled_from([2, 3]), level=st.integers(0, 4), blocks=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    malformations=st.lists(st.sampled_from(MALFORMATIONS), max_size=2),
)
def test_audit_refuses_what_the_word_by_word_oracle_refuses(k, level, blocks, seed, malformations):
    rng = random.Random(seed)
    machine = random_automaton(rng, rng.randint(1, 4), k)
    hs = [machine.at(rng.choice(machine.states)) for _ in range(blocks)]
    parts: list[list] = [[] for _ in hs]
    for word in all_words(k, level):
        parts[rng.randrange(blocks)].append(word)
    for how in malformations:
        listed = [(i, j) for i, part in enumerate(parts) for j in range(len(part))]
        i, j = rng.choice(listed) if listed else (0, 0)
        word = list(parts[i][j]) if listed else []
        if how == "short" and word:
            parts[i][j] = tuple(word[:-1])
        elif how == "long":
            parts[i][j:j + 1] = [tuple(word + [rng.randrange(k)])]
        elif how == "out_of_range" and word:
            word[rng.randrange(len(word))] = rng.choice([-1, k, 2**70])
            parts[i][j] = tuple(word)
        elif how == "not_an_int" and word:
            word[rng.randrange(len(word))] = rng.choice([0.5, 1.0, "1", None, Fraction(0)])
            parts[i][j] = tuple(word)
        elif how == "index" and word:
            x = rng.randrange(len(word))
            word[x] = Index(word[x])
            parts[i][j] = tuple(word)
        elif how == "twice_in_a_block" and word:
            parts[i].insert(rng.randint(0, len(parts[i])), tuple(word))
        elif how == "in_two_blocks" and word:
            other = rng.randrange(blocks)
            parts[other].insert(rng.randint(0, len(parts[other])), tuple(word))
        elif how == "missing" and listed:
            del parts[i][j]
        elif how == "extra":
            length = rng.randint(0, level + 1)
            parts[i].insert(j, tuple(rng.randrange(k) for _ in range(length)))
        elif how == "lists":
            parts = [[list(w) for w in part] for part in parts]
    try:
        oracle_audit_validation(level, parts, hs[0].alphabet)
        refused = None
    except iv.AutomatonError as exc:
        refused = exc
    if refused is not None:  # the audit is called outside the oracle's handler
        with pytest.raises(type(refused)) as info:
            iv.coin_audit(level, parts, hs)
        assert type(info.value) is type(refused)
        assert str(info.value) == str(refused)
        assert info.value.__context__ is None or info.value.__suppress_context__
    else:
        audit = iv.coin_audit(level, parts, hs)
        want = oracle_coin_audit(level, parts, hs)
        assert audit == want
        assert repr(audit) == repr(want)


class _SumsToFloat(int):
    """An int whose sums are floats, so the comparison cannot accept it."""

    def __radd__(self, other):
        return float(int(self) + other)


def test_audit_names_a_letter_that_is_not_an_integer():
    q = adding().at("q")
    # a word is a dict key, so a letter must hash and compare as its int: a
    # list does not hash, and a letter with only __index__ hashes by identity
    # (the first Index partition lists word 0 twice and word 1 never); an int
    # subclass is a letter only where the comparison accepts it
    for parts in ([[(0,), (1,), (0.5,)]], [[(0,), (0.5,)]], [[(0,), (1,), ("1",)]],
                  [[(0,), (1.0,)]], [[(None,), (1,)]], [[([0],), (1,)]],
                  [[(Index(0),), (Index(0),)]], [[(Index(0),), (Index(1),)]],
                  [[(0,), (_SumsToFloat(1),)]]):
        first = next(x for part in parts for w in part for x in w if type(x) is not int)
        with pytest.raises(iv.LetterOutOfRangeError) as info:
            iv.coin_audit(1, parts, [q])
        # a letter with __index__ is named by its index: its repr may hold an address
        if hasattr(type(first), "__index__"):
            want = f"letter index {first.__index__()} is of type {type(first).__name__!r}, not int"
        else:
            shown = repr(first) if isinstance(first, str) else f"<{type(first).__name__}>"
            want = f"letter {shown} is not an integer index for alphabet of size 2"
        assert str(info.value) == want
    # a bool is a letter, as in every other call on words
    audit = iv.coin_audit(1, [[(False,), (True,)]], [q])
    assert audit == oracle_coin_audit(1, [[(False,), (True,)]], [q])


def test_audit_maps_each_transformation_with_words_over_the_tree_once(monkeypatch):
    level = 12
    words = list(all_words(2, level))
    alternator = flip_alternator()
    q, a, b = adding().at("q"), alternator.at("a"), alternator.at("b")
    cases = [  # blocks, their words, and the (machine, starts) mapped
        # q's two blocks share one pass, and a and b share their machine's
        ([q, a, b, q], [words[:1000], words[1000:2638], words[2638:3457], words[3457:]],
         [(q.automaton, [0]), (alternator, [0, 1])]),
        # a transformation whose only block is empty is not mapped, nor is its machine
        ([q, a], [words, []], [(q.automaton, [0])]),
    ]
    wants = [oracle_coin_audit(level, parts, hs) for hs, parts, _ in cases]
    trees, runs = [], []
    image_ranks, run = paradox._image_ranks, iv.Transformation._run

    def spied_image_ranks(automaton, starts, depth):
        trees.append((automaton, starts))
        return image_ranks(automaton, starts, depth)

    def spied_run(self, word):
        runs.append(word)
        return run(self, word)

    monkeypatch.setattr(paradox, "_image_ranks", spied_image_ranks)
    monkeypatch.setattr(iv.Transformation, "_run", spied_run)
    for (hs, parts, mapped), want in zip(cases, wants):
        trees.clear()
        audit = iv.coin_audit(level, parts, hs)
        assert trees == mapped
        assert runs == []
        assert audit == want and repr(audit) == repr(want)


@settings(max_examples=100)
@given(
    k=st.sampled_from([2, 3]), level=st.integers(0, 6), n=st.integers(1, 12),
    count=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
)
def test_image_ranks_match_the_images_word_by_word(k, level, n, count, seed):
    # the machine's size and the number of starts set where words are split
    rng = random.Random(seed)
    machine = random_automaton(rng, n, k)
    starts = [rng.randrange(n) for _ in range(count)]
    words = list(all_words(k, level))
    rank = {w: i for i, w in enumerate(words)}
    want = [[rank[machine.at(machine.states[s]).apply(w)] for w in words] for s in starts]
    assert list(paradox._image_ranks(machine, starts, level)) == want


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


def test_notes_carry_counts_past_the_conversion_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    t2 = iv.theorem2_report([flip_alternator().at("a")], 3, 20000)
    assert "the 2^20000 period classes" in t2.note
    classes = re.search(r"period_count=([0-9]+)\)$", repr(t2)).group(1)
    assert len(classes) == 6021
    assert decimal_value(classes) == t2.period_count == 2**20000
    t1 = iv.theorem1_report([flip_all().at("r")], 14300)
    aggregate, threshold = re.search(r"at most ([0-9]+) .* than ([0-9]+) of", t1.note).groups()
    assert decimal_value(aggregate) == t1.aggregate == 8 * 2**14300
    assert decimal_value(threshold) == t1.threshold == 2 * 2**14300
    # the report objects print every digit too
    assert f"aggregate={aggregate}, threshold=Fraction({threshold}, 1)," in repr(t1)
    # the interpreter-wide limit is left as it was
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


# ---------------------------------------------------------------- repeated items

def _repeated_items():
    """Six copies of one item, equal by value but built apart, then two more."""
    items = [adding().at("q") for _ in range(6)]
    return items + [poly_chain().at("c2"), flip_alternator().at("a")]


def test_report_repr_is_the_generated_one_for_short_counts():
    g = adding().at("q")
    for report in (iv.theorem1_report([g, g], 3), iv.theorem2_report([g], 3, 2)):
        assert repr(report) == generated_repr(report)


@pytest.mark.parametrize("level", [0, 1, 4, 7])
def test_reports_with_repeats_match_reports_per_item(level):
    items = _repeated_items()
    t1 = iv.theorem1_report(items, level)
    t2 = iv.theorem2_report(items, level, 2)
    assert t1.per_item == tuple(iv.theorem1_report([h], level).per_item[0] for h in items)
    assert t2.per_item == tuple(iv.theorem2_report([h], level, 2).per_item[0] for h in items)
    assert t1.transformations == t2.transformations == tuple(items)
    assert t1.aggregate == 8 * sum(t1.per_item)


def test_reports_sweep_each_distinct_item_once(monkeypatch):
    sweeps = []
    survivor_counts = iv.counting._iter_survivor_counts

    def counted(g, dead):
        sweeps.append(g)
        return survivor_counts(g, dead)

    monkeypatch.setattr(iv.counting, "_iter_survivor_counts", counted)
    items = _repeated_items()
    for run in (
        lambda: iv.theorem1_report(items, 5),
        lambda: iv.theorem2_report(items, 5, 2),
        lambda: iv.find_minimal_level(items, 8, 64),
    ):
        sweeps.clear()
        run()
        assert sweeps == [items[0], items[6], items[7]]


def test_t2_walks_each_distinct_item_once(monkeypatch):
    walked = []
    reachable = iv.paradox.reachable_uc_lengths

    def counted(g, level):
        walked.append(g)
        return reachable(g, level)

    monkeypatch.setattr(iv.paradox, "reachable_uc_lengths", counted)
    iv.theorem2_report(_repeated_items(), 5, 2)
    assert len(walked) == 3
    # the first offending item is still the one named
    items = [adding().at("q")] * 3 + [flip_alternator().at("b"), flip_alternator().at("a")] * 2
    with pytest.raises(iv.PeriodBoundInvalidError, match="reachable by 'b'"):
        iv.theorem2_report(items, 4, 1)


def test_t2_finds_cycles_once_per_machine(monkeypatch):
    searches = []
    search = iv.counting._search_ucs

    def counted(automaton):
        searches.append(automaton)
        return search(automaton)

    monkeypatch.setattr(iv.counting, "_search_ucs", counted)
    chain = remark_chain(2000)
    items = [chain.at("q_1")] * 6 + [chain.at("q_5"), chain.at("q_900")]
    report = iv.theorem2_report(items, 8, 1)
    # one search serves the period check and every item's sweep
    assert searches == [chain]
    assert report.per_item == tuple(iv.count_nc(h, 8)[8] for h in items)
    # later cycle questions on the same machine read the kept result
    g = chain.at("q_1")
    iv.count_nc(g, 8)
    iv.reachable_uc_lengths(g, 8)
    iv.check_lemma1(g, EP((1,), (0,)), 1)
    iv.check_lemma2(g, 8, 1, 1, [EP((2,) * 8, (0,))])
    iv.find_ucs(chain)
    assert searches == [chain]
    # two machines, two searches; the first offending item is still named
    searches.clear()
    alternator = flip_alternator()
    items = [adding().at("q"), alternator.at("b"), alternator.at("a")]
    with pytest.raises(iv.PeriodBoundInvalidError, match="reachable by 'b'"):
        iv.theorem2_report(items, 4, 1)
    assert len(searches) == 2
