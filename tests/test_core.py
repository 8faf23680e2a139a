"""Core algebra: validation, application, inversion, composition, quotients."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import itertools
import pickle
import random
import sys
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invauto as iv
from invauto.algebra import inverse_name, pair_name
from invauto.core import _decimal_str, _exact_str
from helpers import (
    Index,
    adding,
    add_one,
    all_words,
    binary_corpus,
    dataclass_twin,
    flip_all,
    flip_alternator,
    full_corpus,
    isomorphic_under,
    oracle_compose,
    oracle_from_table,
    oracle_invert,
    oracle_remark_chain,
    oracle_text,
    oracle_validate,
    oracle_word,
    random_automaton,
    random_funnel,
    random_leaky,
    random_odd_machine,
    remark_chain,
    run_python,
    subtract_one,
    uv_core,
)


# ---------------------------------------------------------------- validation

def test_adding_machine_tables_validate():
    machine = adding()
    assert machine.n_states == 2
    assert machine.states == ("q", "e")


def test_identity_state_validates():
    machine = iv.identity_automaton(2)
    assert machine.at("e").apply((0, 1, 1)) == (0, 1, 1)


def test_non_bijective_output_row_rejected():
    with pytest.raises(iv.NonBijectiveOutputError):
        iv.Automaton.from_table(
            ("0", "1"),
            {"r": {"0": ("r", "0"), "1": ("r", "0")}},
        )


def test_missing_transition_rejected():
    with pytest.raises(iv.MissingTransitionError) as info:
        iv.Automaton.from_table(("0", "1"), {"q": {"0": ("q", "1")}})
    assert "'q'" in str(info.value) and "'1'" in str(info.value)


def test_dangling_target_rejected():
    with pytest.raises(iv.UnknownStateError):
        iv.Automaton.from_table(
            ("0", "1"),
            {"q": {"0": ("ghost", "1"), "1": ("q", "0")}},
        )


def test_alphabet_too_small_rejected():
    with pytest.raises(iv.AlphabetTooSmallError):
        iv.Alphabet(("0",))


def test_unknown_state_lookup():
    with pytest.raises(iv.UnknownStateError):
        adding().at("nope")


# ---------------------------------------------------------------- application

def test_adding_examples():
    q = adding().at("q")
    assert q.apply_text("111") == "000"
    assert q.apply_text("011") == "111"


def test_adding_matches_arithmetic_up_to_length_10():
    q = adding().at("q")
    for length in range(11):
        for word in all_words(2, length):
            assert q.apply(word) == add_one(word)


def test_identity_applies_as_identity():
    e = adding().at("e")
    for word in all_words(2, 6):
        assert e.apply(word) == word


def test_letter_out_of_range():
    with pytest.raises(iv.LetterOutOfRangeError):
        adding().at("q").apply((0, 2))


def test_streaming_apply_matches_batch():
    q = adding().at("q")
    word = (1, 1, 0, 1, 0, 0, 1)
    assert tuple(q.apply_stream(iter(word))) == q.apply(word)


# ---------------------------------------------------------------- inversion

def test_invert_adding_subtracts():
    q_inv = adding().at("q").inverse()
    assert q_inv.apply_text("000") == "111"
    for length in range(9):
        for word in all_words(2, length):
            assert q_inv.apply(word) == subtract_one(word)


def test_invert_identity_is_identity():
    inv = iv.invert(iv.identity_automaton(2))
    assert iv.is_trivial_state(inv, "e^-1")


def test_double_inversion_is_isomorphic():
    machine = adding()
    double = iv.invert(iv.invert(machine))
    assert isomorphic_under(double, machine, lambda s: s.removesuffix("^-1^-1"))


def test_inverse_law_on_corpus():
    for g in full_corpus():
        g_inv = g.inverse()
        k = g.alphabet.size
        max_len = 8 if k == 2 else 6
        for length in range(max_len + 1):
            words = list(all_words(k, length)) if k == 2 else [
                tuple(random.Random(length).randrange(k) for _ in range(length))
                for _ in range(25)
            ]
            for word in words:
                assert g_inv.apply(g.apply(word)) == word


# ---------------------------------------------------------------- composition

def test_compose_adds_twice():
    q = adding().at("q")
    twice = q.then(q)
    assert twice.apply_text("00") == "01"
    for length in range(9):
        for word in all_words(2, length):
            assert twice.apply(word) == add_one(add_one(word))


def test_compose_with_identity_behaves_as_original():
    q = adding().at("q")
    padded = q.then(iv.identity_automaton(2).at("e"))
    for length in range(9):
        for word in all_words(2, length):
            assert padded.apply(word) == q.apply(word)


def test_compose_alphabet_mismatch():
    with pytest.raises(iv.AlphabetMismatchError):
        iv.compose(adding(), remark_chain(2))


def test_compose_with_inverse_minimizes_to_trivial_state():
    q = adding().at("q")
    round_trip = q.then(q.inverse())
    quotient, mapping = iv.minimize(round_trip.automaton)
    assert quotient.n_states == 1
    assert iv.is_trivial_state(quotient, mapping[round_trip.state])


def test_composition_law_on_corpus_pairs():
    members = binary_corpus()
    rng = random.Random(7)
    for g, h in itertools.product(members, repeat=2):
        gh = g.then(h)
        for _ in range(40):
            length = rng.randint(0, 8)
            word = tuple(rng.randrange(2) for _ in range(length))
            assert gh.apply(word) == h.apply(g.apply(word))


def _commas():
    """A machine over {0,1} whose state names hold commas."""
    return iv.Automaton.from_table(("0", "1"), {
        "p,q": {"0": ("r", "1"), "1": ("p,q", "0")},
        "r": {"0": ("r", "0"), "1": ("p,q", "1")},
    })


@pytest.mark.parametrize("g, h", [
    (adding().at("q"), adding().at("q")),
    (adding().at("e"), flip_alternator().at("b")),
    (remark_chain(3).at("q_2"), remark_chain(4).at("q_1")),
    (_commas().at("p,q"), _commas().at("r")),
], ids=["adding", "mixed", "policies", "commas"])
def test_then_and_inverse_build_no_name_index(g, h):
    """Each is made with the start index it knows: a pruned product starts
    at its state 0, and q^-1 at q's index.  Only a product whose left names
    hold a comma has an index, the one compose builds to check the names."""
    composite = g.then(h)
    product = iv.compose(g.automaton, h.automaton, prune_from=(g.state, h.state))
    inverse = g.inverse()
    made = [
        (composite, iv.Transformation(product, pair_name(g.state, h.state))),
        (inverse, iv.Transformation(iv.invert(g.automaton), inverse_name(g.state))),
    ]
    for got, want in made:
        assert got == want
        assert (got.start, got._horizon) == (want.start, want._horizon)
    assert ("_index" in vars(composite.automaton)) == any("," in s for s in g.automaton.states)
    assert "_index" not in vars(inverse.automaton)


@pytest.mark.parametrize("g, h, f", [
    (adding().at("q"), adding().at("q"), adding().at("q")),
    (adding().at("e"), flip_alternator().at("b"), flip_all().at("r")),
    (remark_chain(5).at("q_2"), remark_chain(4).at("q_1"), remark_chain(6).at("q_3")),
], ids=["adding", "mixed", "policies"])
def test_a_chain_of_then_looks_no_inner_name_up(g, h, f):
    """The second ``then`` starts at the index the inner composite knows, so
    the inner product builds no name index; the chain is the product that
    compose builds from the names."""
    inner = g.then(h)
    chained = inner.then(f)
    assert "_index" not in vars(inner.automaton)
    by_name = iv.compose(g.automaton, h.automaton, prune_from=(g.state, h.state))
    by_name = iv.compose(by_name, f.automaton, prune_from=(inner.state, f.state))
    want = iv.Transformation(by_name, pair_name(inner.state, f.state))
    assert chained == want
    horizon = chained.automaton.horizon(chained.state)
    rng = random.Random(5)
    for length in range((8 if horizon is None else min(8, horizon)) + 1):
        for _ in range(20):
            word = tuple(rng.randrange(g.alphabet.size) for _ in range(length))
            assert chained.apply(word) == want.apply(word) == f.apply(h.apply(g.apply(word)))


# ---------------------------------------------------------------- minimization

def test_minimize_adding_keeps_two_states():
    quotient, mapping = iv.minimize(adding())
    assert quotient.n_states == 2
    assert mapping == {"q": "q", "e": "e"}
    assert iv.is_trivial_state(quotient, "e")
    assert not iv.is_trivial_state(quotient, "q")


def test_minimize_collapses_identity_copies():
    machine = iv.Automaton.from_table(
        ("0", "1"),
        {
            "e1": {"0": ("e2", "0"), "1": ("e2", "1")},
            "e2": {"0": ("e1", "0"), "1": ("e1", "1")},
        },
    )
    quotient, mapping = iv.minimize(machine)
    assert quotient.n_states == 1
    assert mapping["e1"] == mapping["e2"] == "e1"


def test_minimize_flip_alternator_is_already_minimal():
    quotient, _ = iv.minimize(flip_alternator())
    assert quotient.n_states == 2
    assert not any(
        iv.is_trivial_state(quotient, s) for s in quotient.states
    )
    assert flip_alternator().at("b").apply_text("00") == "01"
    assert flip_alternator().at("a").apply_text("0") == "1"


@pytest.mark.parametrize("depth", [3, 6])
def test_minimize_gives_each_class_its_least_horizon(depth):
    g = remark_chain(depth).at("q_1")
    product = g.then(g.inverse()).automaton
    quotient, mapping = iv.minimize(product)
    members = {c: [s for s in product.states if mapping[s] == c] for c in quotient.states}
    for c, states in members.items():
        horizons = [h for h in map(product.horizon, states) if h is not None]
        assert quotient.horizon(c) == min(horizons, default=None)
    assert (quotient.policy.family, quotient.policy.depth) == (
        product.policy.family, product.policy.depth,
    )
    # some class merges states of different horizons, so the rule is exercised
    assert any(len(set(map(product.horizon, states))) > 1 for states in members.values())


def test_minimization_preserves_behavior():
    rng = random.Random(11)
    machines = [adding(), flip_alternator(), uv_core()]
    machines += [random_automaton(rng, rng.randint(2, 6), 2) for _ in range(10)]
    for machine in machines:
        quotient, mapping = iv.minimize(machine)
        bound = machine.n_states + quotient.n_states
        for state in machine.states:
            before = machine.at(state)
            after = quotient.at(mapping[state])
            if 2**bound <= 4096:
                words = [w for l in range(bound + 1) for w in all_words(2, l)]
            else:
                words = [
                    tuple(rng.randrange(2) for _ in range(rng.randint(0, bound)))
                    for _ in range(200)
                ]
            for word in words:
                assert before.apply(word) == after.apply(word)


# ---------------------------------------------------------------- triviality

def test_trivial_state_detection():
    machine = adding()
    assert iv.is_trivial_state(machine, "e")
    assert not iv.is_trivial_state(machine, "q")
    assert not iv.is_trivial_state(flip_alternator(), "b")


# ---------------------------------------------------------------- builtins

def test_flip_alternator_example():
    assert flip_alternator().at("a").apply_text("0000") == "1010"


def test_remark_chain_structure():
    machine = remark_chain(4)
    q1 = machine.at("q_1")
    dead = iv.trivial_states(machine)
    for length in range(1, 4):
        for word in itertools.product((2, 3), repeat=length):
            assert q1.path(word)[-1] not in dead
    for word in [(0,), (2, 0), (3, 0, 1), (2, 3, 0)]:
        assert machine.states[q1.path(word)[-1]] == "e"


def test_unknown_family():
    with pytest.raises(iv.UnknownFamilyError):
        iv.generate_builtin("unknown")


def test_remark_chain_depth_errors():
    with pytest.raises(iv.ValidationError):
        iv.generate_builtin("remark_chain")
    with pytest.raises(iv.DepthTooSmallError):
        iv.generate_builtin("remark_chain", depth=3, length=5)
    iv.generate_builtin("remark_chain", depth=5, length=5)


def test_materialization_horizon_enforced():
    q1 = remark_chain(3).at("q_1")
    q1.apply((2, 2, 2))
    with pytest.raises(iv.NotMaterializableError):
        q1.apply((2, 2, 2, 2))


# ---------------------------------------------------------------- invariants

def test_length_preservation_and_prefix_compatibility():
    rng = random.Random(3)
    for g in full_corpus():
        k = g.alphabet.size
        for _ in range(50):
            length = rng.randint(0, 8)
            word = tuple(rng.randrange(k) for _ in range(length))
            image = g.apply(word)
            assert len(image) == len(word)
            for cut in range(length + 1):
                assert g.apply(word[:cut]) == image[:cut]


def test_bijectivity_per_level():
    for g in full_corpus():
        k = g.alphabet.size
        for length in range(9 if k == 2 else 7):
            images = {g.apply(w) for w in all_words(k, length)}
            assert len(images) == k**length


# ---------------------------------------------------------------- property tests

@st.composite
def random_machines(draw):
    k = draw(st.integers(2, 3))
    n = draw(st.integers(1, 4))
    transitions = [
        tuple(draw(st.integers(0, n - 1)) for _ in range(k)) for _ in range(n)
    ]
    outputs = [tuple(draw(st.permutations(range(k)))) for _ in range(n)]
    machine = iv.Automaton(
        iv.Alphabet.of_size(k),
        tuple(f"s{i}" for i in range(n)),
        tuple(transitions),
        tuple(outputs),
    )
    state = draw(st.integers(0, n - 1))
    word = tuple(draw(st.lists(st.integers(0, k - 1), max_size=10)))
    return machine.at(f"s{state}"), word


@settings(max_examples=150)
@given(random_machines())
def test_inverse_law_property(machine_and_word):
    g, word = machine_and_word
    assert g.inverse().apply(g.apply(word)) == word


@settings(max_examples=150)
@given(random_machines())
def test_prefix_compatibility_property(machine_and_word):
    g, word = machine_and_word
    image = g.apply(word)
    assert len(image) == len(word)
    for cut in range(len(word) + 1):
        assert g.apply(word[:cut]) == image[:cut]


@settings(max_examples=100)
@given(random_machines(), random_machines())
def test_composition_law_property(first, second):
    g, word = first
    h, _ = second
    if g.alphabet != h.alphabet:
        return
    assert g.then(h).apply(word) == h.apply(g.apply(word))


# ---------------------------------------------------------------- table kernels against oracles

def assert_same_table(got, want):
    assert got.alphabet == want.alphabet
    assert got.states == want.states
    assert got.transitions == want.transitions
    assert got.outputs == want.outputs
    assert got.policy == want.policy


def assert_composes_like_oracle(a, b):
    assert_same_table(iv.compose(a, b), oracle_compose(a, b))
    for pair in itertools.product(a.states, b.states):
        assert_same_table(iv.compose(a, b, prune_from=pair), oracle_compose(a, b, prune_from=pair))


@st.composite
def machine_pairs(draw):
    k = draw(st.sampled_from([2, 3]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    make = st.sampled_from([random_automaton, random_leaky])
    return tuple(draw(make)(rng, draw(st.integers(1, 12)), k) for _ in range(2))


@settings(max_examples=60)
@given(machine_pairs())
def test_compose_matches_oracle(pair):
    assert_composes_like_oracle(*pair)


@settings(max_examples=60)
@given(machine_pairs())
def test_product_output_rows_are_shared(pair):
    a, b = pair
    most = len(set(a.outputs)) * len(set(b.outputs))
    products = [iv.compose(a, b)]
    products += [iv.compose(a, b, prune_from=p) for p in itertools.product(a.states, b.states)]
    for product in products:
        assert len({id(row) for row in product.outputs}) <= most


_ODD_MACHINE_ARGS = (st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from([2, 3, 4]))


@settings(max_examples=100)
@given(*_ODD_MACHINE_ARGS)
def test_invert_matches_oracle(seed, n, k):
    machine = random_odd_machine(random.Random(seed), n, k)
    assert_same_table(iv.invert(machine), oracle_invert(machine))


@pytest.mark.parametrize("depth", [1, 2, 7])
def test_invert_matches_oracle_with_policy(depth):
    chain = remark_chain(depth)
    assert_same_table(iv.invert(chain), oracle_invert(chain))


@settings(max_examples=100)
@given(*_ODD_MACHINE_ARGS)
def test_inverse_output_rows_are_shared(seed, n, k):
    machine = random_odd_machine(random.Random(seed), n, k)
    inverse = iv.invert(machine)
    assert len({id(row) for row in inverse.outputs}) <= len(set(machine.outputs))


def test_remark_chain_matches_its_name_table():
    for depth in range(1, 51):
        assert_same_table(remark_chain(depth), oracle_remark_chain(depth))


@pytest.mark.parametrize("depth", [1, 2, 50])
def test_remark_chain_holds_two_output_rows(depth):
    assert len({id(row) for row in remark_chain(depth).outputs}) == 2


@pytest.mark.parametrize("da,db", [(1, 1), (2, 5), (4, 3)])
def test_compose_matches_oracle_with_policies(da, db):
    finite = random_automaton(random.Random(da * 10 + db), 3, 4)
    assert_composes_like_oracle(remark_chain(da), remark_chain(db))
    assert_composes_like_oracle(remark_chain(da), finite)
    assert_composes_like_oracle(finite, remark_chain(db))


def _raised(build):
    try:
        build()
    except iv.AutomatonError as error:
        return type(error), str(error)
    return None


def test_compose_errors_match_oracle():
    chain = remark_chain(3)
    # pairs ('p,q', 'r') and ('p', 'q,r') are both named (p,q,r), and the
    # first leads to the second
    letters = iv.Alphabet(("0", "1"))
    commas_a = iv.Automaton(letters, ("p,q", "p"), ((1, 1), (1, 1)), ((1, 0), (0, 1)))
    commas_b = iv.Automaton(letters, ("r", "q,r"), ((1, 1), (1, 1)), ((1, 0), (0, 1)))
    cases = [
        (adding(), chain, None),
        (chain, chain, ("q_1", "ghost")),
        (chain, chain, ("ghost", "q_1")),
        (commas_a, commas_b, None),
        (commas_a, commas_b, ("p,q", "r")),
    ]
    for a, b, prune in cases:
        want = _raised(lambda: oracle_compose(a, b, prune_from=prune))
        assert want is not None
        assert _raised(lambda: iv.compose(a, b, prune_from=prune)) == want
    assert want == (iv.ValidationError, "state names must be distinct")


@pytest.mark.parametrize("prune", ["qe", ("q",), ("q", "e", "x")], ids=["str", "one", "three"])
def test_compose_refuses_a_prune_start_that_is_not_a_pair(prune):
    with pytest.raises(iv.ArgumentError) as info:
        iv.compose(adding(), adding(), prune_from=prune)
    # a str by its repr, anything else by its type: a repr may hold a memory address
    shown = repr(prune) if isinstance(prune, str) else f"<{type(prune).__name__}>"
    assert str(info.value) == f"prune_from must be a pair of state names, not {shown}"


def test_compose_reads_a_list_prune_start_as_its_tuple():
    a = adding()
    assert iv.compose(a, a, prune_from=["q", "e"]) == iv.compose(a, a, prune_from=("q", "e"))


# ---------------------------------------------------------------- derived machines

def assert_rebuilds_alike(machine):
    """The checking constructor is the oracle for a machine that compose,
    invert or minimize built without it: the rebuild from the same fields
    must pass every check and give the same object state once the derived
    machine's name index, which its first lookup builds, is there."""
    rebuilt = iv.Automaton(*(getattr(machine, name) for name in machine._fields))
    assert "_index" not in vars(machine)
    machine.state_index(machine.states[0])
    assert list(vars(machine)) == list(vars(rebuilt))
    assert machine._index == rebuilt._index
    assert machine == rebuilt
    assert hash(machine) == hash(rebuilt)
    loaded = pickle.loads(pickle.dumps(machine))
    assert loaded == rebuilt and hash(loaded) == hash(rebuilt)
    assert loaded._index == rebuilt._index


def derived_from(a, b, prune_from):
    """Every kind of machine derived from ``a`` and ``b``, over one alphabet."""
    product = iv.compose(a, b)
    yield product
    yield iv.compose(a, b, prune_from=prune_from)
    yield iv.invert(product)
    yield iv.minimize(product)[0]
    for machine in (a, b):
        yield iv.invert(machine)
        yield iv.minimize(machine)[0]


@st.composite
def derivable_pairs(draw):
    """Two machines over one alphabet, and a pair of their states to prune from."""
    k = draw(st.sampled_from([2, 3]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        makers = [random_odd_machine]
    else:
        makers = [random_automaton, random_leaky, random_funnel]
    a, b = (draw(st.sampled_from(makers))(rng, draw(st.integers(1, 10)), k) for _ in range(2))
    return a, b, (draw(st.sampled_from(a.states)), draw(st.sampled_from(b.states)))


@settings(max_examples=80)
@given(derivable_pairs())
def test_derived_machines_rebuild_alike(case):
    for machine in derived_from(*case):
        assert_rebuilds_alike(machine)


@pytest.mark.parametrize("depth", range(1, 21))
def test_derived_chain_machines_rebuild_alike(depth):
    chain = remark_chain(depth)
    other = remark_chain(21 - depth)
    for machine in derived_from(chain, other, ("q_1", f"q_{21 - depth}")):
        assert machine.policy is not None
        assert_rebuilds_alike(machine)
    assert_rebuilds_alike(iv.compose(chain, iv.invert(chain), prune_from=("q_1", "q_1^-1")))


@st.composite
def tangled_pairs(draw):
    """Two small machines over {0,1} whose names are made of the
    characters a product's pair names are made of, so names with a comma in
    them can collide in the product; and a pair to prune from, maybe
    unknown."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    # pairs ('p,q', 'p') and ('p', 'q,p') are both named (p,q,p)
    clash = draw(st.booleans())
    machines = []
    for seeded in (["p,q", "p"], ["p", "q,p"]):
        names = draw(st.lists(
            st.text(alphabet="pq,()", min_size=1, max_size=4), min_size=1, max_size=4, unique=True
        ))
        if clash:
            names = seeded + [name for name in names if name not in seeded]
        table = random_automaton(rng, len(names), 2)
        machines.append(iv.Automaton(table.alphabet, names, table.transitions, table.outputs))
    a, b = machines
    prune = draw(st.one_of(
        st.none(),
        st.tuples(st.sampled_from(a.states), st.sampled_from(b.states)),
        st.just((a.states[0], "ghost")),
    ))
    return a, b, prune


@settings(max_examples=150)
@given(tangled_pairs())
def test_product_names_match_oracle_and_index_on_first_lookup(case):
    a, b, prune = case
    want = _raised(lambda: oracle_compose(a, b, prune_from=prune))
    got = _raised(lambda: iv.compose(a, b, prune_from=prune))
    assert got == want
    if want is None:
        product = iv.compose(a, b, prune_from=prune)
        assert product == oracle_compose(a, b, prune_from=prune)
        # only a left name with a comma makes the product check its names at once
        assert ("_index" in vars(product)) == any("," in name for name in a.states)
        for position, name in enumerate(product.states):
            assert product.state_index(name) == position
        assert product._index == {name: i for i, name in enumerate(product.states)}


def test_a_derived_machine_pickled_before_any_lookup_loads_and_looks_up():
    a = adding()
    product = iv.compose(a, a)
    machines = [product, iv.compose(a, a, prune_from=("q", "q")), iv.invert(a), iv.minimize(product)[0]]
    for machine in machines:
        assert "_index" not in vars(machine)
        loaded = pickle.loads(pickle.dumps(machine))
        assert "_index" not in vars(loaded)
        assert loaded == machine and hash(loaded) == hash(machine)
        for position, name in enumerate(loaded.states):
            assert loaded.state_index(name) == position
        assert loaded._index == {name: i for i, name in enumerate(loaded.states)}


def test_an_unknown_name_on_a_derived_machine_raises_as_on_a_checked_one():
    derived = iv.compose(adding(), adding())
    loaded = pickle.loads(pickle.dumps(derived))
    checked = iv.Automaton(*(getattr(derived, name) for name in derived._fields))
    for machine in (derived, loaded, checked):
        with pytest.raises(iv.UnknownStateError) as info:
            machine.state_index("ghost")
        assert str(info.value) == "no state named 'ghost'"
        with pytest.raises(iv.UnknownStateError, match="^no state named 'ghost'$"):
            machine.at("ghost")


# in the order they are applied, so an earlier one never leaves a later one
# without the row or the entry it spoils
CORRUPTIONS = (
    "target_low",
    "target_high",
    "repeated_output",
    "short_row",
    "long_row",
    "duplicate_name",
    "row_count",
)


def _corrupt(draw, kind, states, transitions, outputs, k):
    """Spoil the table in place in one way; rows and names are lists."""
    n = len(states)
    q = draw(st.integers(0, n - 1))
    table = draw(st.sampled_from([transitions, outputs]))
    if kind == "target_low":
        transitions[q][draw(st.integers(0, k - 1))] = -1
    elif kind == "target_high":
        transitions[q][draw(st.integers(0, k - 1))] = n
    elif kind == "repeated_output":
        x, y = draw(st.permutations(range(k)))[:2]
        outputs[q][x] = outputs[q][y]
    elif kind == "short_row":
        if table[q]:
            table[q].pop()
    elif kind == "long_row":
        table[q].append(draw(st.integers(0, k - 1)))
    elif kind == "duplicate_name":
        if n > 1:
            states[q] = states[(q + draw(st.integers(1, n - 1))) % n]
    elif table and draw(st.booleans()):
        table.pop()
    else:
        table.append([0] * k)


@pytest.mark.parametrize("kind", CORRUPTIONS)
@settings(max_examples=40)
@given(data=st.data())
def test_validation_matches_oracle(kind, data):
    """One or two spoiled rows: the constructor raises what the state-by-state
    checks raise, so the first offending state still names the error."""
    draw = data.draw
    k = draw(st.integers(2, 3))
    n = draw(st.integers(1, 6))
    states = [f"s{i}" for i in range(n)]
    transitions = [[draw(st.integers(0, n - 1)) for _ in range(k)] for _ in range(n)]
    outputs = [list(draw(st.permutations(range(k)))) for _ in range(n)]
    kinds = [kind]
    if draw(st.booleans()):
        kinds.append(draw(st.sampled_from(CORRUPTIONS)))
    for spoil in sorted(kinds, key=CORRUPTIONS.index):
        _corrupt(draw, spoil, states, transitions, outputs, k)
    alphabet = iv.Alphabet.of_size(k)
    args = (alphabet, tuple(states), tuple(map(tuple, transitions)), tuple(map(tuple, outputs)))
    want = _raised(lambda: oracle_validate(*args))
    assert _raised(lambda: iv.Automaton(*args)) == want
    # a second corruption may undo the first (a short row made long again)
    if len(kinds) == 1 and (kind != "duplicate_name" or n > 1):
        assert want is not None


class _Row(Mapping):
    """A table row that is a Mapping but not a dict."""

    def __init__(self, entries):
        self._entries = dict(entries)

    def __getitem__(self, letter):
        return self._entries[letter]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


class _Name(str):
    """A state name that is a str subclass."""


class _Pair(tuple):
    """A (next state, output letter) pair that is a tuple subclass."""


# the faults a name-keyed table can carry: entry faults first, then the ones
# that rename or replace a whole row, then the policy's
TABLE_FAULTS = (
    "missing_letter",
    "extra_letter",
    "unknown_letter",
    "unknown_output",
    "unhashable_output",
    "dangling_next",
    "non_str_next",
    "unhashable_next",
    "str_pair",
    "bad_pair",
    "repeated_output",
    "non_str_name",
    "row_not_a_mapping",
    "unknown_policy_state",
)


@settings(max_examples=400)
@given(data=st.data())
def test_from_table_matches_oracle(data):
    """A name-keyed table, valid or with one or two faults, in any form
    from_table accepts (str-subclass names, non-dict Mapping rows, list and
    tuple-subclass pairs): from_table builds the machine the state-by-state
    oracle builds, with the same name index, or raises its error."""
    draw = data.draw
    k = draw(st.integers(2, 3))
    n = draw(st.integers(1, 5))
    symbols = tuple(map(str, range(k)))
    names = [chr(ord("a") + i) for i in range(n)]  # one character: "a0" reads as a pair
    if draw(st.booleans()):
        names = list(map(_Name, names))
    original = {
        name: dict(zip(symbols, zip(
            (draw(st.sampled_from([str, _Name]))(names[draw(st.integers(0, n - 1))])
             for _ in symbols),
            draw(st.permutations(symbols)),
        )))
        for name in names
    }
    table = {name: dict(row) for name, row in original.items()}
    policy = None
    size = draw(st.sampled_from([1, 0, 2, 1]))
    faults = draw(st.lists(st.sampled_from(TABLE_FAULTS), min_size=size, max_size=size,
                           unique=True))
    faults.sort(key=TABLE_FAULTS.index)
    for fault in faults:
        q = names[draw(st.integers(0, n - 1))]
        x, y = draw(st.permutations(symbols))[:2]
        nxt, out = original[q][x]
        row = table.get(q)
        if fault == "missing_letter":
            row.pop(x, None)
        elif fault == "extra_letter":
            row["9"] = (nxt, out)
        elif fault == "unknown_letter":
            row.pop(x, None)
            row["z" + x] = (nxt, out)
        elif fault == "unknown_output":
            row[x] = (nxt, "9")
        elif fault == "unhashable_output":
            row[x] = (nxt, [out])
        elif fault == "dangling_next":
            row[x] = ("ghost", out)
        elif fault == "non_str_next":
            row[x] = (draw(st.sampled_from([1, None, 2.5])), out)
        elif fault == "unhashable_next":
            row[x] = ([nxt], out)
        elif fault == "str_pair":  # two characters, a state's name and a letter
            row[x] = nxt + out
        elif fault == "bad_pair":
            row[x] = draw(st.sampled_from([(nxt,), (nxt, out, out), None, {nxt: out}]))
        elif fault == "repeated_output":
            row[x] = (nxt, original[q][y][1])
        elif fault == "non_str_name":  # renamed 1, also where a pair names it
            table = {(1 if name == q else name): row for name, row in table.items()}
            for entries in table.values():
                for letter, pair in entries.items():
                    if type(pair) is tuple and len(pair) == 2 and pair[0] == q:
                        entries[letter] = (1, pair[1])
        elif fault == "row_not_a_mapping":
            key = list(table)[names.index(q)]
            table[key] = list(table[key].items())
        else:
            policy = iv.MaterializationPolicy("family", 1, (("ghost", 1),))
    if policy is None and draw(st.booleans()):
        policy = iv.MaterializationPolicy("family", 1, ((names[0], 1),))
    # the valid forms: some rows a Mapping, some pairs lists or tuple subclasses
    for key, row in table.items():
        if isinstance(row, dict):
            for letter, pair in row.items():
                if type(pair) is tuple:
                    row[letter] = draw(st.sampled_from([tuple, list, _Pair]))(pair)
            if draw(st.booleans()):
                table[key] = _Row(row)
    want = _raised(lambda: oracle_from_table(symbols, table, policy))
    got = _raised(lambda: iv.Automaton.from_table(symbols, table, policy))
    assert got == want
    if faults:
        assert want is not None
    if want is None:
        machine = iv.Automaton.from_table(symbols, table, policy)
        reference = oracle_from_table(symbols, table, policy)
        assert machine == reference
        assert [machine.state_index(name) for name in names] == list(range(n))
        assert [reference.state_index(name) for name in names] == list(range(n))
        assert _raised(lambda: machine.state_index("ghost")) == _raised(
            lambda: reference.state_index("ghost"))


def letter_error(x, k):
    """The message naming ``x`` as a bad letter of a k-letter alphabet; a
    letter with ``__index__`` is out of range, and named by its index."""
    if not hasattr(type(x), "__index__"):
        shown = repr(x) if isinstance(x, str) else f"<{type(x).__name__}>"
        return f"letter {shown} is not an integer index for alphabet of size {k}"
    return f"letter index {x.__index__()} out of range for alphabet of size {k}"


@settings(max_examples=100)
@given(data=st.data())
def test_check_word_names_first_bad_letter(data):
    draw = data.draw
    k = draw(st.sampled_from([2, 3, 4, 300]))
    alphabet = iv.Alphabet.of_size(k)
    word = draw(st.lists(st.integers(0, k - 1), max_size=20))
    assert alphabet.check_word(word) == tuple(word)
    bad = draw(st.lists(st.sampled_from([-1, k, 0.5, 1.0, "1", None]), min_size=1, max_size=2))
    for x in bad:
        word.insert(draw(st.integers(0, len(word))), x)
    first = next(x for x in word if type(x) is not int or not 0 <= x < k)
    message = letter_error(first, k)
    with pytest.raises(iv.LetterOutOfRangeError) as info:
        alphabet.check_word(word)
    assert str(info.value) == message
    g = iv.identity_automaton(alphabet).at("e")
    with pytest.raises(iv.LetterOutOfRangeError) as info:
        g.apply(word)
    assert str(info.value) == message


def test_a_letter_that_is_not_an_integer_is_a_letter_error():
    q = adding().at("q")
    alphabet = q.alphabet
    calls = [
        lambda x: alphabet.check_word((0, x)),
        lambda x: alphabet.text((x,)),
        lambda x: q.apply((x, 1)),
        lambda x: q.path((x,)),
        lambda x: list(q.apply_stream([1, x])),
    ]
    for x in (0.5, 1.0, "1", None, Fraction(1), [0], Index(5)):
        for call in calls:
            with pytest.raises(iv.LetterOutOfRangeError) as info:
                call(x)
            assert str(info.value) == letter_error(x, 2)
            assert info.value.__context__ is None or info.value.__suppress_context__
    # bools and other letters with __index__ are letters as before
    assert alphabet.check_word((True, False)) == (True, False)
    assert q.apply((True, False)) == q.apply((1, 0))
    assert list(q.apply_stream([True, False])) == list(q.apply((1, 0)))
    assert q.apply((Index(1), Index(0))) == q.apply((1, 0))
    assert list(q.apply_stream([Index(1), Index(0)])) == list(q.apply((1, 0)))


def test_check_word_edges():
    alphabet = iv.Alphabet.of_size(3)
    assert alphabet.check_word(()) == ()
    assert alphabet.check_word([0, 2, 1]) == (0, 2, 1)
    for word in ([3], [0, 1, 3], [-1, 0], [2, 2, -1, 3]):
        with pytest.raises(iv.LetterOutOfRangeError):
            alphabet.check_word(word)
    assert iv.identity_automaton(alphabet).at("e").apply(()) == ()
    # letters from 256 on do not fit in bytes, and are checked one by one
    alphabet = iv.Alphabet.of_size(300)
    word = [255, 256, 299, 0, 299]
    assert alphabet.check_word(word) == tuple(word)
    assert iv.identity_automaton(alphabet).at("e").apply(word) == tuple(word)
    for x in (300, 2**70, -1):
        with pytest.raises(iv.LetterOutOfRangeError) as info:
            alphabet.check_word([255, 256, x, 299])
        assert str(info.value) == letter_error(x, 300)


# ---------------------------------------------------------------- text form

# no whitespace (all of it is in these categories) and no surrogates
LETTER_CHARS = st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp", "Zs"))
# characters that str.split() splits at, ASCII and not
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2009\u2028\u2029\u3000"
SPACES = st.text(st.sampled_from(WHITESPACE), min_size=1, max_size=3)


@st.composite
def alphabets(draw):
    """Two to four letters: all one character, all longer, of mixed lengths,
    or the letters of ``random_odd_machine``."""
    shape = draw(st.sampled_from(["one", "long", "mixed", "odd"]))
    k = draw(st.integers(2, 4))
    if shape == "odd":
        return random_odd_machine(random.Random(draw(st.integers(0, 2**32 - 1))), 1, k).alphabet
    lengths = {"one": st.just(1), "long": st.integers(2, 3), "mixed": st.integers(1, 3)}[shape]
    letter = lengths.flatmap(lambda n: st.text(LETTER_CHARS, min_size=n, max_size=n))
    return iv.Alphabet(draw(st.lists(letter, min_size=k, max_size=k, unique=True)))


def _result(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except iv.AutomatonError as error:
        return type(error), str(error)


@settings(max_examples=400)
@given(data=st.data())
def test_word_and_text_match_the_forms_worked_out_per_call(data):
    draw = data.draw
    alphabet = draw(alphabets())
    k, symbols = alphabet.size, alphabet.symbols
    # any text: letters, their pieces, other characters and whitespace runs
    pieces = st.sampled_from(symbols) | st.text(LETTER_CHARS, max_size=2) | SPACES
    text = "".join(draw(st.lists(pieces, max_size=8)))
    assert _result(lambda: alphabet.word(text)) == _result(lambda: oracle_word(alphabet, text))
    # a word, its text and the text with any whitespace around and between its letters
    w = tuple(draw(st.lists(st.integers(0, k - 1), max_size=8)))
    assert alphabet.text(w) == oracle_text(alphabet, w)
    assert alphabet.word(alphabet.text(w)) == w
    spaced = draw(SPACES) + draw(SPACES).join(symbols[x] for x in w) + draw(SPACES)
    assert alphabet.word(spaced) == oracle_word(alphabet, spaced) == w
    # a word with a bad letter: the same error
    bad = list(w)
    bad.insert(draw(st.integers(0, len(w))), draw(st.sampled_from([-1, k, 0.5, None, "0"])))
    assert _result(lambda: alphabet.text(bad)) == _result(lambda: oracle_text(alphabet, bad))


# ---------------------------------------------------------------- hashing

class _CountedName(str):
    """A state name that counts how often it is hashed."""

    hashed = 0

    def __hash__(self):
        type(self).hashed += 1
        return str.__hash__(self)


def test_automaton_hash_is_the_dataclass_hash_and_walks_the_table_once():
    names = [_CountedName(f"s{i}") for i in range(50)]
    machine = iv.Automaton(
        iv.Alphabet.of_size(2), names, [(i, (i + 1) % 50) for i in range(50)], [(1, 0)] * 50
    )
    _CountedName.hashed = 0
    first = hash(machine)
    assert _CountedName.hashed == 50
    assert hash(machine) == first and _CountedName.hashed == 50
    assert first == hash(tuple(getattr(machine, name) for name in machine._fields))


def test_kept_hash_stays_out_of_pickles_and_copies():
    machine = remark_chain(6)
    hash(machine)
    for twin in (pickle.loads(pickle.dumps(machine)), copy.deepcopy(machine)):
        assert "_hash" not in vars(twin)
        assert twin == machine and hash(twin) == hash(machine)


# ---------------------------------------------------------------- records

def _record_samples():
    """Two unequal values of each of the 13 records, by record name.  The
    first value keeps its required fields valid on their own, so it can also
    be built with every default left out."""
    q, e, r = adding().at("q"), adding().at("e"), flip_all().at("r")
    ep = iv.EventuallyPeriodicWord
    return {
        "Alphabet": (iv.Alphabet(("a", "b")), iv.Alphabet.of_size(3)),
        "MaterializationPolicy": (
            iv.MaterializationPolicy("remark_chain", 2, (("q_1", 2), ("q_2", 1))),
            remark_chain(3).policy,
        ),
        "Automaton": (remark_chain(2), adding()),
        "Transformation": (q, e),
        "UnconditionalCycle": (iv.find_ucs(adding())[0], iv.UnconditionalCycle(("a", "b"))),
        "CountTable": (iv.count_ns(q, 4), iv.count_nc(r, 3)),
        "GrowthReport": (iv.GrowthReport("bounded"), iv.classify_growth(r)),
        "MembershipDecision": (iv.decide_g0(q), iv.decide_g0(r)),
        "EventuallyPeriodicWord": (ep((0, 1), (1, 0)), ep((), (1,))),
        "Lemma1Verdict": (
            iv.check_lemma1(q, ep((1,), (0,)), 1), iv.Lemma1Verdict(False, None, 2, None, None, None)
        ),
        "Lemma2Verdict": (iv.Lemma2Verdict(1, 0, 1, (ep((0,), (1,)),)), iv.Lemma2Verdict(2, 1, 0)),
        "ParadoxReport": (iv.theorem1_report([q, q], 3), iv.theorem2_report([q], 3, 2)),
        "CoinAudit": (
            iv.coin_audit(1, [[(0,)], [(1,)]], [q, e]), iv.coin_audit(1, [[(0,), (1,)]], [r])
        ),
    }


def _outcome(call, *args):
    """What ``call(*args)`` gives, or the type and text of what it raises."""
    try:
        return call(*args)
    except (AttributeError, TypeError) as exc:
        return isinstance(exc, AttributeError), isinstance(exc, TypeError), str(exc)


def _parameters(cls):
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


@pytest.mark.parametrize("name", list(_record_samples()))
def test_records_behave_as_their_frozen_dataclass_twins(name):
    value, other = _record_samples()[name]
    cls = type(value)
    assert cls.__name__ == name and type(other) is cls
    twin_cls = dataclass_twin(cls)
    fields = cls._fields
    assert fields == cls.__match_args__ == twin_cls.__match_args__
    assert fields == tuple(f.name for f in dataclasses.fields(twin_cls))
    assert _parameters(cls) == _parameters(twin_cls)
    assert not dataclasses.is_dataclass(cls)
    twins = {}
    for record in (value, other):
        values = tuple(getattr(record, f) for f in fields)
        twin = twins[record is value] = twin_cls(*values)
        assert repr(record) == repr(twin)
        assert _outcome(hash, record) == _outcome(hash, twin)
        # positional, keyword, copied and pickled records equal the record
        for same in (
            cls(*values), cls(**dict(zip(fields, values))),
            copy.deepcopy(record), pickle.loads(pickle.dumps(record)),
        ):
            assert same == record and not same != record and repr(same) == repr(record)
        # a twin or another class is never equal, whatever the values
        for stranger in (twin, values, object()):
            assert record != stranger and stranger != record
            assert record.__eq__(stranger) is NotImplemented
        assert twin.__eq__(record) is NotImplemented
        # both raise AttributeError (FrozenInstanceError is one) with one text
        for attr in (*fields, "_kept"):
            assert _outcome(setattr, record, attr, None) == _outcome(setattr, twin, attr, None)
            assert _outcome(delattr, record, attr) == _outcome(delattr, twin, attr)
        assert _outcome(cls) == _outcome(twin_cls)
        assert _outcome(cls, *values, None) == _outcome(twin_cls, *values, None)
    assert value != other and twins[True] != twins[False]
    # every default left out, on the value whose required fields stand alone
    required = [f for f in fields if f not in cls.__dict__]
    values = [getattr(value, f) for f in required]
    assert repr(cls(*values)) == repr(twin_cls(*values))


# ---------------------------------------------------------------- long decimals

def _long_values():
    """Ints and Fractions around and far past the 4300-digit limit on
    int-to-str conversion: 2**14284 has 4300 digits, 2**14285 has 4301."""
    values = [0, -7, 10**4300 - 1, 10**4300, 10**4301, 10**30_000 - 1, -(10**4301)]
    for m in (14_284, 14_285, 100_000):
        values += [2**m - 1, 2**m + 1]
    values += [-(2**100_000 + 1), 3**40_000]
    values += [
        Fraction(3**20_000, 2**20_000 + 1),
        -Fraction(10**5000 - 1, 7**6000),
        Fraction(1, 10**4400),
        Fraction(-(2**50_000), 3),
    ]
    return values


def test_exact_decimals_match_str_without_the_digit_limit():
    values = _long_values()
    script = (
        "import pickle, sys\n"
        "from fractions import Fraction\n"
        "if hasattr(sys, 'set_int_max_str_digits'):\n"
        "    sys.set_int_max_str_digits(0)\n"
        "pairs = pickle.load(sys.stdin.buffer)\n"
        "sys.stdout.write('\\n'.join(str(n if d == 1 else Fraction(n, d)) for n, d in pairs))\n"
    )
    pairs = [(v.numerator, v.denominator) for v in values]
    result = run_python("-c", script, input=pickle.dumps(pairs), text=False)
    assert result.returncode == 0, result.stderr.decode()
    expected = result.stdout.decode().split("\n")
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert len(expected) == len(values)
    for value, (n, d), text in zip(values, pairs, expected):
        assert _exact_str(value) == text
        # the fallback itself, also where this interpreter has no limit
        assert "/".join(_decimal_str(p) for p in ((n,) if d == 1 else (n, d))) == text
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
