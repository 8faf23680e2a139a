"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they happen).  Every comparison here is exact; the
only tolerances are the stated wall-clock budgets.
"""

from __future__ import annotations

import itertools
import math
import random
import time

import invauto as iv
from helpers import (
    adding,
    add_one,
    all_words,
    binary_corpus,
    brute_counts,
    flip_all,
    flip_alternator,
    random_automaton,
    random_ep_word,
    random_funnel,
    remark_chain,
    uc_entry,
    uv_core,
)


def _report(number: int, label: str, ok: bool = True) -> None:
    print(f"criterion {number:2d} ({label}): {'PASS' if ok else 'FAIL'}")


def _acceptance_corpus(rng: random.Random):
    """Criterion 2's machine list: named members plus 100 random machines."""
    named = [
        adding().at("q"),
        flip_all().at("r"),
        flip_alternator().at("a"),
        remark_chain(9).at("q_1"),
        uv_core().at("u"),
    ]
    randoms = []
    for _ in range(100):
        machine = random_automaton(rng, rng.randint(1, 5), rng.choice((2, 3)))
        randoms.append(machine.at(machine.states[rng.randrange(machine.n_states)]))
    return named, randoms


def test_criterion_1_adding_machine_semantics():
    started = time.monotonic()
    q = adding().at("q")
    for length in range(13):
        for word in all_words(2, length):
            assert q.apply(word) == add_one(word)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(1, "adding machine adds one at every length <= 12")


def test_criterion_2_oracle_equivalence():
    started = time.monotonic()
    named, randoms = _acceptance_corpus(random.Random(20240917))
    for g in named + randoms:
        ns, nc = brute_counts(g, 8)
        assert list(iv.count_ns(g, 8).counts) == ns, g.state
        assert list(iv.count_nc(g, 8).counts) == nc, g.state
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(2, "count tables match exhaustive enumeration at l <= 8")


def test_criterion_3_subadditivity_and_inverse_symmetry():
    named, randoms = _acceptance_corpus(random.Random(20240917))
    members = binary_corpus() + named + randoms
    tables = {}
    for i, g in enumerate(members):
        inv = g.inverse()
        ns, nc = iv.count_ns(g, 8).counts, iv.count_nc(g, 8).counts
        assert ns == iv.count_ns(inv, 8).counts
        assert nc == iv.count_nc(inv, 8).counts
        tables[i] = (ns, nc)
    for (i, g), (j, h) in itertools.product(enumerate(members), repeat=2):
        if g.alphabet != h.alphabet:
            continue
        gh = g.then(h)
        ns_gh, nc_gh = iv.count_ns(gh, 8).counts, iv.count_nc(gh, 8).counts
        (ns_g, nc_g), (ns_h, nc_h) = tables[i], tables[j]
        for level in range(9):
            assert ns_gh[level] <= ns_g[level] + ns_h[level]
            assert nc_gh[level] <= nc_g[level] + nc_h[level]
    _report(3, "subadditivity and inverse symmetry of both counts")


def test_criterion_4_product_cycle_lengths():
    cases = [
        (adding().at("q"), adding().at("q"), (0, 0), (1, 1)),
        (adding().at("q"), flip_alternator().at("a"), (0,), (1, 2)),
        (flip_alternator().at("a"), flip_alternator().at("a"), (0,), (2, 2)),
    ]
    for g, h, word, (n, m) in cases:
        step_g, len_g = uc_entry(g, word)
        step_h, len_h = uc_entry(h, g.apply(word))
        assert (len_g, len_h) == (n, m)
        product = iv.compose(g.automaton, h.automaton)
        gh = product.at(f"({g.state},{h.state})")
        entry = uc_entry(gh, word)
        assert entry is not None
        assert entry[0] <= max(step_g, step_h)
        assert entry[1] == math.lcm(n, m)
    _report(4, "products reach cycles of the combined length")


def test_criterion_5_remark_family_bounds():
    started = time.monotonic()
    q1 = remark_chain(21).at("q_1")
    counts = iv.count_ns(q1, 20).counts
    assert counts[1:4] == (2, 6, 16)
    for level in range(21):
        assert 2**level <= counts[level] <= 3**level
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(5, "chain family activity sits between 2^l and 3^l up to l = 20")


def test_criterion_6_activity_certificates():
    assert iv.find_minimal_level([remark_chain(8).at("q_1")], 8, 16) == 3
    assert iv.find_minimal_level([flip_all().at("r")], 8, 12) is None
    named, randoms = _acceptance_corpus(random.Random(20240917))
    passing = 0
    for g in binary_corpus() + named + randoms:
        try:
            decision = iv.decide_g0(g)
        except iv.NotMaterializableError:
            continue  # depth-bounded stand-ins have no exact decision
        if decision.member:
            passing += 1
            assert iv.find_minimal_level([g], 8, 64) is not None, g.state
    assert passing > 0
    _report(6, "minimal certification levels exist for every small member")


def test_criterion_7_lemma_property_suites():
    rng = random.Random(424242)
    pool = binary_corpus() + [remark_chain(40).at("q_1")]
    applicable = not_applicable = 0
    while applicable < 1000:
        g = rng.choice(pool)
        k = g.alphabet.size
        word = random_ep_word(rng, k, 4, 3)
        level = word.level
        uc_states = {
            g.automaton.state_index(s)
            for c in iv.find_ucs(g.automaton)
            for s in c.states
        }
        avoided = all(q not in uc_states for q in g.path(word.first(level)))
        verdict = iv.check_lemma1(g, word, level)
        assert verdict.applicable == (not avoided)
        if verdict.applicable:
            applicable += 1
            assert verdict.holds, (g.state, word)
        else:
            not_applicable += 1

    for g in binary_corpus():
        for level in range(4):
            divisor = 12
            samples = [
                iv.EventuallyPeriodicWord(prefix, period)
                for prefix in all_words(2, level)
                for period in [(0,), (1,), (0, 1), (1, 1, 0), (0, 0, 1, 1)]
            ]
            bound = iv.max_uc_length(g, level)
            verdict = iv.check_lemma2(g, level, max(bound, 1), divisor, samples)
            assert verdict.failed == 0
            uc_states = {
                g.automaton.state_index(s)
                for c in iv.find_ucs(g.automaton)
                for s in c.states
            }
            in_nc_set = sum(
                1
                for w in samples
                if all(q not in uc_states for q in g.path(w.first(level)))
            )
            assert verdict.skipped == in_nc_set
            assert verdict.checked == len(samples) - in_nc_set
    assert not_applicable > 0
    _report(7, "1000 applicable lemma cases hold; the rest match the NC set")


def test_criterion_8_period_class_identity():
    tails = [
        w
        for d in (1, 2, 3, 6)
        for w in all_words(2, d)
        if iv.primitive_root(w) == w
    ]
    assert len(tails) == iv.count_periods(2, 6) == 64
    for g in binary_corpus():
        uc_states = {
            g.automaton.state_index(s)
            for c in iv.find_ucs(g.automaton)
            for s in c.states
        }
        for level in range(7):
            expected = iv.count_nc(g, level)[level]
            for tail in tails:
                hits = sum(
                    1
                    for prefix in all_words(2, level)
                    if all(
                        q not in uc_states
                        for q in g.path(
                            iv.EventuallyPeriodicWord(prefix, tail).first(level)
                        )
                    )
                )
                assert hits == expected
    _report(8, "every period class slices the cycle-avoiding set identically")


def test_criterion_9_coin_audit_impossibility():
    rng = random.Random(7171)
    members = binary_corpus()
    quaternary = [remark_chain(9).at("q_1"), remark_chain(9).at("e")]
    for i in range(50):
        if i % 5 == 4:
            pool, k, level = quaternary, 4, rng.randint(1, 4)
        else:
            pool, k, level = members, 2, rng.randint(1, 8)
        d = rng.randint(1, 4)
        hs = [rng.choice(pool) for _ in range(d)]
        parts: list[list] = [[] for _ in range(d)]
        for word in all_words(k, level):
            parts[rng.randrange(d)].append(word)
        audit = iv.coin_audit(level, parts, hs)
        assert audit.total_coins == k**level
        assert audit.deficit
        assert not audit.doubling
    _report(9, "every audited scheme conserves coins and leaves a deficit")


def test_criterion_10_group_closure_of_small_members():
    rng = random.Random(555)
    pool = [
        adding().at("q"),
        adding().at("q").inverse(),
        iv.identity_automaton(2).at("e"),
    ]
    while len(pool) < 12:
        machine = random_funnel(rng, rng.randint(1, 4), 2)
        pool.append(machine.at("t0"))
    for g in pool:
        assert iv.decide_g0(g).member
    for _ in range(20):
        g, h = rng.choice(pool), rng.choice(pool)
        assert iv.decide_g0(g.then(h)).member
        assert iv.decide_g0(g.inverse()).member
        assert iv.decide_g0(h.then(g).inverse()).member
    _report(10, "compositions and inverses of small members stay small")
