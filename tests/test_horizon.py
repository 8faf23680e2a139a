"""Horizon boundaries of depth-bounded materializations.

``remark_chain(D)`` started at q_i is exact for D - i + 1 letters: up to
that many letters every length-bounded operation answers, one letter more
and it raises ``NotMaterializableError``, and whole-table operations refuse
the materialization outright.  The same table rebuilt without its policy is
a finite machine in its own right and answers all of them.  Inverses keep
the horizon of their state and a composite pair gets the smaller of its
two; the expected horizons below come from these rules, not from the
policies themselves.
"""

from __future__ import annotations

import itertools
import math

import pytest

import invauto as iv
from helpers import remark_chain, without_policy

EP = iv.EventuallyPeriodicWord

DEPTHS = range(1, 11)
# the word-listing rows list every surviving word, and on these chains
# that can be |X|^level words, so they stop here
MAX_LISTED_LEVEL = 4

EP_WORDS = [
    EP((), (0,)),
    EP((), (1,)),
    EP((1,), (0,)),
    EP((2,), (1,)),
    EP((), (1, 2)),
    EP((3,), (2, 1)),
    EP((2, 2), (3, 0)),
    EP((2, 3, 2), (1, 1, 2)),
]


def _cases():
    """(transformation, expected horizon): every remark_chain start, its
    inverse, and its composite with every start of the same chain."""
    cases = []
    for depth in DEPTHS:
        chain = remark_chain(depth)
        starts = [(chain.at(f"q_{i}"), depth - i + 1) for i in range(1, depth + 1)]
        for g, h in starts:
            cases.append((g, h))
            cases.append((g.inverse(), h))
            cases.extend((g.then(g2), min(h, h2)) for g2, h2 in starts)
    return cases


CASES = _cases()


def _unbounded(g):
    return without_policy(g.automaton).at(g.state)


def _climb(level):
    # letter 2 walks up the chain, so it reaches the clamp first
    return (2,) * level


LENGTH_OPS = {
    "apply": lambda g, level: g.apply(_climb(level)),
    "path": lambda g, level: g.path(_climb(level)),
    "count_ns": lambda g, level: iv.count_ns(g, level),
    "count_nc": lambda g, level: iv.count_nc(g, level),
    "reachable_uc_lengths": iv.reachable_uc_lengths,
    "ns_words": iv.ns_words,
    "nc_words": iv.nc_words,
    "theorem1_report": lambda g, level: iv.theorem1_report([g], level),
    # every cycle these chains reach has length 1, so divisor 1 is valid
    "theorem2_report": lambda g, level: iv.theorem2_report([g], level, 1),
}
LISTING_OPS = {"ns_words", "nc_words"}


@pytest.mark.parametrize("name", sorted(LENGTH_OPS))
def test_length_bounded_operation_stops_at_horizon(name):
    op = LENGTH_OPS[name]
    limit = MAX_LISTED_LEVEL if name in LISTING_OPS else math.inf
    for g, h in CASES:
        if h <= limit:
            op(g, h)
        with pytest.raises(iv.NotMaterializableError):
            op(g, h + 1)
        if h + 1 <= limit:
            op(_unbounded(g), h + 1)


def test_apply_stream_yields_horizon_letters_then_raises():
    for g, h in CASES:
        stream = g.apply_stream(itertools.repeat(2))
        assert len([next(stream) for _ in range(h)]) == h
        with pytest.raises(iv.NotMaterializableError):
            next(stream)
        unbounded = _unbounded(g).apply_stream(itertools.repeat(2))
        assert len(list(itertools.islice(unbounded, h + 1))) == h + 1


def test_apply_to_ep_word_is_exact_within_horizon():
    for g, h in CASES:
        for w in EP_WORDS:
            try:
                image = iv.apply_to_ep_word(g, w)
            except iv.NotMaterializableError:
                continue
            assert image.first(h) == g.apply(w.first(h)), (g.state, w)
        with pytest.raises(iv.NotMaterializableError):
            iv.apply_to_ep_word(g, EP((), (2,)))
        unbounded = _unbounded(g)
        image = iv.apply_to_ep_word(unbounded, EP((), (2,)))
        assert image.first(h + 1) == unbounded.apply(_climb(h + 1))


@pytest.mark.parametrize("name", ["classify_growth", "decide_g0", "decide_g1"])
def test_whole_table_operation_refuses_materialization(name):
    op = getattr(iv, name)
    for g, _ in CASES:
        with pytest.raises(iv.NotMaterializableError):
            op(g)
        op(_unbounded(g))


def test_fixed_level_calls_refuse_before_sweeping(monkeypatch):
    """A call given its level checks it before any sweep, so a deep chain
    refuses at once and names the level asked, not where a sweep stopped."""
    sweeps = []
    survivor_counts = iv.counting._iter_survivor_counts

    def counted(g, dead):
        sweeps.append(g)
        return survivor_counts(g, dead)

    monkeypatch.setattr(iv.counting, "_iter_survivor_counts", counted)
    chain = remark_chain(2000)
    q1, q2000 = chain.at("q_1"), chain.at("q_2000")
    past_q1 = "level 2001 exceeds the materialized horizon 2000 of state 'q_1'"
    past_q2000 = "level 1500 exceeds the materialized horizon 1 of state 'q_2000'"
    for op, args, message in [
        (iv.count_ns, (q1, 2001), past_q1),
        (iv.count_nc, (q1, 2001), past_q1),
        (iv.theorem1_report, ([q1, q2000], 1500), past_q2000),
        (iv.theorem2_report, ([q1, q2000], 1500, 1), past_q2000),
    ]:
        with pytest.raises(iv.NotMaterializableError, match=message):
            op(*args)
    assert sweeps == []
