"""Counting: unconditional cycles, count tables, growth, membership."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import invauto as iv
from helpers import (
    adding,
    binary_corpus,
    brute_counts,
    decimal_value,
    dense_counts,
    flip_all,
    flip_alternator,
    full_corpus,
    generated_repr,
    identity_chain,
    oracle_closed_subset,
    oracle_core,
    oracle_dead,
    oracle_first_word_into,
    oracle_growth,
    oracle_reached,
    oracle_sccs,
    oracle_survivor_counts,
    oracle_survivor_words,
    oracle_trivial_states,
    oracle_uc_lengths,
    poly_chain,
    random_automaton,
    random_constant_degree,
    random_funnel,
    random_leaky,
    random_mixed_degree,
    remark_chain,
    uv_core,
    without_policy,
)


# ---------------------------------------------------------------- cycles

def test_find_ucs_flip_alternator():
    cycles = iv.find_ucs(flip_alternator())
    assert [c.states for c in cycles] == [("a", "b")]


def test_find_ucs_adding():
    cycles = iv.find_ucs(adding())
    assert [c.states for c in cycles] == [("e",)]


def test_find_ucs_flip_all():
    cycles = iv.find_ucs(flip_all())
    assert [c.states for c in cycles] == [("r",)]


def test_find_ucs_two_state_cycle_of_identities():
    machine = iv.Automaton.from_table(
        ("0", "1"),
        {
            "e1": {"0": ("e2", "0"), "1": ("e2", "1")},
            "e2": {"0": ("e1", "0"), "1": ("e1", "1")},
        },
    )
    cycles = iv.find_ucs(machine)
    assert [c.states for c in cycles] == [("e1", "e2")]


def test_uv_core_has_no_ucs():
    assert iv.find_ucs(uv_core()) == ()


# ---------------------------------------------------------------- count tables

def test_ns_adding_is_one_forever():
    table = iv.count_ns(adding().at("q"), 10)
    assert table.counts == (1,) + (1,) * 10


def test_ns_identity_is_zero():
    table = iv.count_ns(adding().at("e"), 8)
    assert table.counts == (0,) * 9


def test_ns_remark_chain_pinned_values():
    table = iv.count_ns(remark_chain(4).at("q_1"), 3)
    assert table.counts[1:] == (2, 6, 16)


def test_nc_flip_alternator_zero():
    table = iv.count_nc(flip_alternator().at("a"), 8)
    assert table.counts == (0,) * 9


def test_nc_adding_is_one_forever():
    table = iv.count_nc(adding().at("q"), 10)
    assert table.counts == (1,) * 11


def test_flip_all_counts():
    r = flip_all().at("r")
    assert iv.count_ns(r, 10).counts == tuple(2**l for l in range(11))
    assert iv.count_nc(r, 10).counts == (0,) * 11


def test_counts_match_enumeration_on_corpus():
    for g in full_corpus():
        ns, nc = brute_counts(g, 6)
        assert list(iv.count_ns(g, 6).counts) == ns == dense_counts(g, "ns", 6)
        assert list(iv.count_nc(g, 6).counts) == nc == dense_counts(g, "nc", 6)


def test_counts_match_enumeration_on_random_machines():
    rng = random.Random(2024)
    for _ in range(25):
        machine = random_automaton(rng, rng.randint(1, 5), rng.choice((2, 3)))
        g = machine.at(machine.states[rng.randrange(machine.n_states)])
        ns, nc = brute_counts(g, 5)
        assert list(iv.count_ns(g, 5).counts) == ns
        assert list(iv.count_nc(g, 5).counts) == nc


def _assert_sweep_matches_oracle(g, max_level):
    """The survivor sweep against the sweep it replaced, level by level, for
    the dead set of either kind (a start inside it included)."""
    for kind in ("ns", "nc"):
        dead = frozenset(oracle_dead(g.automaton, kind))
        sweep = iv.counting._iter_survivor_counts(g, dead)
        oracle = oracle_survivor_counts(g, dead)
        for level in range(max_level + 1):
            assert next(sweep) == next(oracle), (kind, g.state, level)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["random", "leaky", "funnel", "constant"]),
    st.integers(1, 40),
    st.sampled_from([2, 3]),
    st.integers(0, 2**32 - 1),
)
def test_frontier_sweep_matches_dense_sweep(kind, n, k, seed):
    """The frontier sweep against the dense sweep over every alive state, at
    every level up to 64 and from every start."""
    rng = random.Random(seed)
    if kind == "constant":
        machine = random_constant_degree(rng, n, k, rng.randint(1, k))
    else:
        generate = {"random": random_automaton, "leaky": random_leaky, "funnel": random_funnel}
        machine = generate[kind](rng, n, k)
    for state in machine.states:
        g = machine.at(state)
        assert list(iv.count_ns(g, 64).counts) == dense_counts(g, "ns", 64)
        assert list(iv.count_nc(g, 64).counts) == dense_counts(g, "nc", 64)
        _assert_sweep_matches_oracle(g, 64)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.sampled_from([2, 3, 4]), st.integers(0, 2**32 - 1))
def test_carried_totals_match_dense_sweep_on_mixed_degrees(n, k, seed):
    """The carried level totals against the dense sweep, which sums the whole
    vector, on machines whose live out-degrees differ and tie: every level up
    to 64, from every start, the sinks included."""
    machine = random_mixed_degree(random.Random(seed), n, k)
    for state in machine.states:
        g = machine.at(state)
        assert list(iv.count_ns(g, 64).counts) == dense_counts(g, "ns", 64)
        assert list(iv.count_nc(g, 64).counts) == dense_counts(g, "nc", 64)
        _assert_sweep_matches_oracle(g, 64)


@pytest.mark.parametrize("state", ["q_1", "q_150", "q_300"])
def test_carried_totals_match_dense_sweep_deep_on_the_chain(state):
    g = without_policy(remark_chain(300)).at(state)
    assert list(iv.count_ns(g, 300).counts) == dense_counts(g, "ns", 300)
    assert list(iv.count_nc(g, 300).counts) == dense_counts(g, "nc", 300)
    _assert_sweep_matches_oracle(g, 300)


def test_carried_totals_match_dense_sweep_deep_at_constant_degree():
    machine = random_constant_degree(random.Random(11), 40, 3, 2)
    for state in ("c0", "c17", "e"):
        g = machine.at(state)
        ns = iv.count_ns(g, 400).counts
        assert list(ns) == dense_counts(g, "ns", 400)
        assert list(iv.count_nc(g, 400).counts) == dense_counts(g, "nc", 400)
        if state != "e":  # every non-sink state is active with two live letters
            assert ns == tuple(2**level for level in range(401))


def test_sink_monotonicity():
    for g in full_corpus():
        k = g.alphabet.size
        counts = iv.count_ns(g, 8).counts
        for level in range(8):
            assert counts[level + 1] <= k * counts[level]


def test_not_materializable_beyond_depth():
    q1 = remark_chain(3).at("q_1")
    assert iv.count_ns(q1, 3).counts == (1, 2, 6, 16)
    with pytest.raises(iv.NotMaterializableError):
        iv.count_ns(q1, 5)
    with pytest.raises(iv.NotMaterializableError):
        iv.count_nc(q1, 5)
    assert iv.max_uc_length(q1, 3) == 1
    with pytest.raises(iv.NotMaterializableError):
        iv.max_uc_length(q1, 10)


# ---------------------------------------------------------------- cycle reach

def test_max_uc_length_examples():
    a = flip_alternator().at("a")
    for level in range(5):
        assert iv.max_uc_length(a, level) == 2
    q = adding().at("q")
    assert iv.max_uc_length(q, 0) == 0
    assert iv.max_uc_length(q, 1) == 1
    r = flip_all().at("r")
    for level in range(5):
        assert iv.max_uc_length(r, level) == 1


@pytest.mark.parametrize(
    "name, rest",
    [
        ("reachable_uc_lengths", ()),
        ("max_uc_length", ()),
        ("check_lemma2", (5, 2, [])),
        ("ns_words", ()),
        ("nc_words", ()),
        ("count_ns", ()),
        ("count_nc", ()),
    ],
)
def test_negative_level_is_refused(name, rest):
    with pytest.raises(iv.ArgumentError, match="level must be >= 0"):
        getattr(iv, name)(flip_alternator().at("a"), -1, *rest)


# ---------------------------------------------------------------- growth

def test_classify_adding_bounded():
    assert iv.classify_growth(adding().at("q")) == iv.GrowthReport("bounded")


def test_classify_flip_all_exponential_rate_two():
    report = iv.classify_growth(flip_all().at("r"))
    assert report.category == "exponential"
    assert report.rate == pytest.approx(2.0, abs=1e-6)


def test_classify_remark_chain_exponential_below_alphabet():
    # the depth-bounded table is refused; the clamped finite table it holds
    # is a machine in its own right and classifies
    chain = remark_chain(9)
    with pytest.raises(iv.NotMaterializableError):
        iv.classify_growth(chain.at("q_1"))
    report = iv.classify_growth(without_policy(chain).at("q_1"))
    assert report.category == "exponential"
    assert 2.0 <= report.rate <= 3.0
    assert report.rate < 4.0 - 1e-6


def test_classify_polynomial_chain():
    g = poly_chain().at("c2")
    report = iv.classify_growth(g)
    assert report == iv.GrowthReport("polynomial", degree=1)
    assert iv.count_ns(g, 10).counts == tuple(l + 1 for l in range(11))


def test_classify_identity_bounded():
    assert iv.classify_growth(adding().at("e")).category == "bounded"


def test_classify_rate_bounds_bracket_the_rate():
    report = iv.classify_growth(flip_all().at("r"))
    assert report.rate_bounds == (2, 2)
    chain = remark_chain(9)
    with pytest.raises(iv.NotMaterializableError):
        iv.classify_growth(chain.at("q_1"))
    lo, hi = iv.classify_growth(without_policy(chain).at("q_1")).rate_bounds
    assert 2 < lo < hi < 3
    assert (hi - lo) / lo <= Fraction(1, 2**40)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["random", "funnel", "constant"]),
    st.integers(1, 40),
    st.sampled_from([2, 3]),
    st.integers(0, 2**32 - 1),
)
# a power iteration that stops at its first small change reads 1.5 here,
# where the growth base is 1.54583946942...
@example("random", 14, 2, 5066912)
def test_classify_growth_matches_reference(kind, n, k, seed):
    rng = random.Random(seed)
    if kind == "random":
        machine = random_automaton(rng, n, k)
    elif kind == "funnel":
        machine = random_funnel(rng, n, k)
    else:
        d = rng.randint(2, k)
        machine = random_constant_degree(rng, n, k, d)
    g = machine.at(machine.states[rng.randrange(machine.n_states)])
    report = iv.classify_growth(g)
    category, degree, rate = oracle_growth(g)
    assert (report.category, report.degree) == (category, degree)
    if category != "exponential":
        assert report.rate is None and report.rate_bounds is None
        return
    lo, hi = report.rate_bounds
    assert lo <= hi
    assert float(lo) <= report.rate <= float(hi)
    assert float(lo) * (1 - 1e-6) <= rate <= float(hi) * (1 + 1e-6)
    if kind == "constant":
        assert lo == hi == d


def test_classify_long_chain_does_not_recurse():
    """5000 flip states, each looping on 0 and moving on along 1: the count
    grows like l^4999, and both the component search and the chain DP run
    far past the default recursion limit."""
    n = 5000
    table = {
        f"c{i}": {"0": (f"c{i}", "1"), "1": (f"c{i + 1}" if i + 1 < n else "e", "0")}
        for i in range(n)
    }
    table["e"] = {"0": ("e", "0"), "1": ("e", "1")}
    machine = iv.Automaton.from_table(("0", "1"), table)
    assert iv.classify_growth(machine.at("c0")) == iv.GrowthReport("polynomial", degree=n - 1)


# ---------------------------------------------------------------- membership

def test_decide_g0_examples():
    assert iv.decide_g0(adding().at("q")).member
    flip = iv.decide_g0(flip_all().at("r"))
    assert not flip.member and flip.witness == () and flip.core == ("r",)
    alt = iv.decide_g0(flip_alternator().at("a"))
    assert not alt.member and alt.witness == ()
    assert set(alt.core) == {"a", "b"}


def test_decide_g1_examples():
    assert iv.decide_g1(flip_alternator().at("a")).member
    assert iv.decide_g1(flip_all().at("r")).member
    assert iv.decide_g1(adding().at("q")).member
    uv = iv.decide_g1(uv_core().at("u"))
    assert not uv.member and uv.witness == ()
    assert iv.count_nc(uv_core().at("u"), 8).counts == tuple(2**l for l in range(9))


def test_decide_rejects_depth_bounded_materializations():
    with pytest.raises(iv.NotMaterializableError):
        iv.decide_g0(remark_chain(5).at("q_1"))
    with pytest.raises(iv.NotMaterializableError):
        iv.decide_g1(remark_chain(5).at("q_1"))


def test_decide_false_forces_full_growth():
    for g in binary_corpus():
        decision = iv.decide_g0(g)
        counts = iv.count_ns(g, 8).counts
        if decision.member:
            report = iv.classify_growth(g)
            if report.category == "exponential":
                assert report.rate < g.alphabet.size - 1e-6
        else:
            m = len(decision.witness)
            for level in range(m, 9):
                assert counts[level] >= g.alphabet.size ** (level - m)


def test_kept_cycles_survive_pickling():
    machine = flip_alternator()
    cycles = iv.find_ucs(machine)
    components = iv.core._components(machine)
    for copied in (pickle.loads(pickle.dumps(machine)), copy.deepcopy(machine)):
        assert copied == machine
        # the kept component pass comes along, and is read, not made again
        assert vars(copied)["_components"] == components
        assert iv.find_ucs(copied) == cycles
        assert iv.core._components(copied) is vars(copied)["_components"]


# ---------------------------------------------------------------- component pass

@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["random", "leaky", "funnel"]),
    st.integers(1, 30),
    st.sampled_from([2, 3]),
    st.integers(0, 2**32 - 1),
)
def test_component_pass_matches_oracles(kind, n, k, seed):
    """The kept components partition the states as mutual reachability
    does, every edge leads into the same or an earlier component, and the
    closed subsets read off them are those of the round loop, for random
    candidate sets of every density."""
    rng = random.Random(seed)
    generate = {"random": random_automaton, "leaky": random_leaky, "funnel": random_funnel}
    machine = generate[kind](rng, n, k)
    components, comp_of = iv.core._components(machine)
    expected = oracle_sccs(dict(enumerate(machine.transitions)))
    assert sorted(map(sorted, components)) == sorted(map(sorted, expected))
    assert len(comp_of) == machine.n_states
    assert all(comp_of[q] == ci for ci, comp in enumerate(components) for q in comp)
    for q, row in enumerate(machine.transitions):
        assert all(comp_of[t] <= comp_of[q] for t in row)
    states = range(machine.n_states)
    for density in (0.0, 0.5, 0.8, 0.95, 1.0):
        candidates = {q for q in states if rng.random() < density}
        got = iv.core.greatest_closed_subset(machine, candidates)
        assert got == oracle_closed_subset(machine, candidates)
    trivial = iv.trivial_states(machine)
    assert trivial == frozenset(oracle_trivial_states(machine))
    assert trivial == oracle_closed_subset(machine, {
        q for q in states if machine.outputs[q] == tuple(range(k))
    })


def test_identity_chain_matches_oracles():
    """The chain the round loop needs a round per state for, against the
    oracles, from its first state and from the swapping state."""
    for n in range(1, 61):
        machine = identity_chain(n)
        assert iv.trivial_states(machine) == frozenset(oracle_trivial_states(machine))
        uc = set(oracle_uc_lengths(machine))
        for state in ("c0", "s"):
            g = machine.at(state)
            for decide, dead in ((iv.decide_g0, oracle_trivial_states(machine)),
                                 (iv.decide_g1, uc)):
                core = oracle_core(machine, dead)
                decision = decide(g)
                assert decision.core == tuple(machine.states[q] for q in sorted(core))
                assert decision.witness == oracle_first_word_into(g, core)
            report = iv.classify_growth(g)
            category, degree, rate = oracle_growth(g)
            assert (report.category, report.degree) == (category, degree)
            assert report.rate_bounds == (2, 2) and abs(rate - 2) < 1e-6


def test_identity_chain_4000_known_answers():
    machine = identity_chain(4000)
    g = machine.at("c0")
    assert iv.trivial_states(machine) == frozenset()
    g0 = iv.decide_g0(g)
    assert (g0.member, g0.witness, g0.core) == (False, (), machine.states)
    assert len(g0.core) == 4001
    assert iv.decide_g1(g).member
    report = iv.classify_growth(g)
    assert report.category == "exponential" and report.rate_bounds == (2, 2)


def test_one_component_pass_per_machine(monkeypatch):
    passes = []
    components = iv.core._components

    def counted(automaton):
        if "_components" not in vars(automaton):
            passes.append(automaton)
        return components(automaton)

    monkeypatch.setattr(iv.core, "_components", counted)
    monkeypatch.setattr(iv.counting, "_components", counted)
    machine = random_leaky(random.Random(7), 12, 2)
    for state in machine.states:
        g = machine.at(state)
        iv.trivial_states(machine)
        iv.find_ucs(machine)
        iv.classify_growth(g)
        iv.decide_g0(g)
        iv.decide_g1(g)
    assert passes == [machine]
    # another machine, another pass
    iv.decide_g0(adding().at("q"))
    assert len(passes) == 2


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["random", "leaky", "funnel", "functional"]),
    st.integers(1, 30),
    st.sampled_from([2, 3]),
    st.integers(0, 2**32 - 1),
)
def test_find_ucs_matches_oracle(kind, n, k, seed):
    """The cycles' members, each cycle rotated to start at its lowest index,
    and the cycles ordered by that index, against successor walks.  In a
    functional machine every row ignores the letter, so walks enter cycles
    from tails at any member."""
    rng = random.Random(seed)
    generate = {"random": random_automaton, "leaky": random_leaky, "funnel": random_funnel}
    machine = generate.get(kind, random_automaton)(rng, n, k)
    if kind == "functional":
        rows = tuple((row[0],) * k for row in machine.transitions)
        machine = iv.Automaton(machine.alphabet, machine.states, rows, machine.outputs)
    uc = oracle_uc_lengths(machine)
    expected = []
    covered = set()
    for q in sorted(uc):  # the first member met is the cycle's lowest index
        if q in covered:
            continue
        cycle = [q]
        while len(cycle) < uc[q]:
            cycle.append(machine.transitions[cycle[-1]][0])
        covered.update(cycle)
        expected.append(tuple(machine.states[i] for i in cycle))
    assert [c.states for c in iv.find_ucs(machine)] == expected
    assert dict(iv.counting.uc_state_lengths(machine)) == uc


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["random", "leaky"]),
    st.integers(1, 8),
    st.sampled_from([2, 3]),
    st.integers(0, 2**32 - 1),
)
def test_reachability_answers_match_enumeration(kind, n, k, seed):
    """Cores, witnesses and reachable cycle lengths from every start, against
    reachability and word enumeration: the witness is the first word, by
    length and then lexicographically, that ends in the core."""
    rng = random.Random(seed)
    machine = (random_automaton if kind == "random" else random_leaky)(rng, n, k)
    uc = oracle_uc_lengths(machine)
    deads = {iv.decide_g0: oracle_trivial_states(machine), iv.decide_g1: set(uc)}
    for state in machine.states:
        g = machine.at(state)
        for decide, dead in deads.items():
            core = oracle_core(machine, dead)
            decision = decide(g)
            assert decision.core == tuple(machine.states[q] for q in sorted(core))
            assert decision.witness == oracle_first_word_into(g, core)
            assert decision.member == (decision.witness is None)
        for level in range(7):
            expected = sorted({uc[q] for q in oracle_reached(g, level) if q in uc})
            assert iv.reachable_uc_lengths(g, level) == tuple(expected)


# ---------------------------------------------------------------- propositions

def test_ns_invariant_under_inversion():
    for g in full_corpus():
        limit = 8 if g.alphabet.size == 2 else 6
        assert iv.count_ns(g, limit).counts == iv.count_ns(g.inverse(), limit).counts


def test_nc_invariant_under_inversion():
    for g in full_corpus():
        limit = 8 if g.alphabet.size == 2 else 6
        assert iv.count_nc(g, limit).counts == iv.count_nc(g.inverse(), limit).counts


def test_subadditivity_of_both_counts():
    members = binary_corpus()
    for g, h in itertools.product(members, repeat=2):
        gh = g.then(h)
        ns_g, ns_h, ns_gh = (iv.count_ns(t, 7).counts for t in (g, h, gh))
        nc_g, nc_h, nc_gh = (iv.count_nc(t, 7).counts for t in (g, h, gh))
        for level in range(8):
            assert ns_gh[level] <= ns_g[level] + ns_h[level]
            assert nc_gh[level] <= nc_g[level] + nc_h[level]


def _uc_entry(g, word):
    """(steps, cycle length) when the path first touches an unconditional state."""
    lengths = {}
    for cycle in iv.find_ucs(g.automaton):
        for name in cycle.states:
            lengths[g.automaton.state_index(name)] = cycle.length
    for step, state in enumerate(g.path(word)):
        if state in lengths:
            return step, lengths[state]
    return None


@pytest.mark.parametrize(
    "g, h, word",
    [
        (adding().at("q"), adding().at("q"), (0, 0)),       # lengths (1, 1)
        (adding().at("q"), flip_alternator().at("a"), (0,)),  # lengths (1, 2)
        (flip_alternator().at("a"), flip_alternator().at("a"), (0,)),  # (2, 2)
    ],
)
def test_product_reaches_lcm_cycle(g, h, word):
    entry_g = _uc_entry(g, word)
    entry_h = _uc_entry(h, g.apply(word))
    assert entry_g is not None and entry_h is not None
    import math

    expected = math.lcm(entry_g[1], entry_h[1])
    product = iv.compose(g.automaton, h.automaton)
    gh = product.at(f"({g.state},{h.state})")
    entry_gh = _uc_entry(gh, word)
    assert entry_gh is not None
    assert entry_gh[0] <= max(entry_g[0], entry_h[0])
    assert entry_gh[1] == expected


def test_remark_bounds():
    q1 = remark_chain(13).at("q_1")
    counts = iv.count_ns(q1, 12).counts
    for level in range(13):
        assert 2**level <= counts[level] <= 3**level


def test_count_table_rejects_impossible_counts():
    with pytest.raises(ValueError, match=r"count 3 at level 1 exceeds 2\^1"):
        iv.CountTable(adding().at("q"), "ns", (1, 3))
    # the bound is k^level at every level: flip_all meets it exactly
    r = flip_all().at("r")
    counts = iv.count_ns(r, 40).counts
    assert iv.CountTable(r, "ns", counts).counts == counts
    with pytest.raises(ValueError, match=r"at level 40 exceeds 2\^40"):
        iv.CountTable(r, "ns", counts[:-1] + (2**40 + 1,))


def test_count_table_repr_prints_every_digit():
    table = iv.count_ns(adding().at("q"), 6)
    assert repr(table) == generated_repr(table)
    # a count past the interpreter's 4300-digit limit on int-to-str
    long = iv.CountTable(flip_all().at("r"), "ns", (1,) + (0,) * 14299 + (2**14300,))
    head, last = repr(long).rsplit(", ", 1)
    assert head.startswith("CountTable(transformation=Transformation(")
    assert last.endswith("))") and decimal_value(last[:-2]) == 2**14300


def test_word_set_enumerations_match_counts():
    for g in binary_corpus():
        for level in range(6):
            ns_set = iv.ns_words(g, level)
            nc_set = iv.nc_words(g, level)
            assert len(ns_set) == iv.count_ns(g, level)[level]
            assert len(nc_set) == iv.count_nc(g, level)[level]
            assert ns_set == oracle_survivor_words(g, "ns", level)
            assert nc_set == oracle_survivor_words(g, "nc", level)
    assert iv.ns_words(adding().at("q"), 4) == [(1, 1, 1, 1)]
    assert iv.nc_words(flip_alternator().at("a"), 3) == []
    # only surviving prefixes are extended: at most one word of 2^30 here
    assert iv.ns_words(adding().at("q"), 30) == [(1,) * 30]
    assert iv.ns_words(adding().at("e"), 30) == []
    assert iv.nc_words(flip_alternator().at("a"), 30) == []


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["random", "leaky"]),
    st.integers(1, 8),
    st.sampled_from([2, 3]),
    st.integers(0, 2**32 - 1),
)
def test_word_lists_match_enumeration(kind, n, k, seed):
    """Listed words, in order, against the filtered enumeration of all words."""
    rng = random.Random(seed)
    machine = (random_automaton if kind == "random" else random_leaky)(rng, n, k)
    for state in machine.states:
        g = machine.at(state)
        for level in range(6):
            assert iv.ns_words(g, level) == oracle_survivor_words(g, "ns", level)
            assert iv.nc_words(g, level) == oracle_survivor_words(g, "nc", level)
