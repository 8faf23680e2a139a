"""Core algebra: validation, application, inversion, composition, quotients."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invauto as iv
from invauto.core import _decimal_str, _exact_str
from helpers import (
    adding,
    add_one,
    all_words,
    binary_corpus,
    flip_alternator,
    full_corpus,
    isomorphic_under,
    oracle_compose,
    oracle_validate,
    random_automaton,
    random_leaky,
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


@settings(max_examples=150, deadline=None)
@given(random_machines())
def test_inverse_law_property(machine_and_word):
    g, word = machine_and_word
    assert g.inverse().apply(g.apply(word)) == word


@settings(max_examples=150, deadline=None)
@given(random_machines())
def test_prefix_compatibility_property(machine_and_word):
    g, word = machine_and_word
    image = g.apply(word)
    assert len(image) == len(word)
    for cut in range(len(word) + 1):
        assert g.apply(word[:cut]) == image[:cut]


@settings(max_examples=100, deadline=None)
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


@settings(max_examples=60, deadline=None)
@given(machine_pairs())
def test_compose_matches_oracle(pair):
    assert_composes_like_oracle(*pair)


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
    cases = [
        (adding(), chain, None),
        (chain, chain, ("q_1", "ghost")),
        (chain, chain, ("ghost", "q_1")),
    ]
    for a, b, prune in cases:
        want = _raised(lambda: oracle_compose(a, b, prune_from=prune))
        assert want is not None
        assert _raised(lambda: iv.compose(a, b, prune_from=prune)) == want


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
@settings(max_examples=40, deadline=None)
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


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_check_word_names_first_bad_letter(data):
    draw = data.draw
    k = draw(st.integers(2, 4))
    alphabet = iv.Alphabet.of_size(k)
    word = draw(st.lists(st.integers(0, k - 1), max_size=20))
    assert alphabet.check_word(word) == tuple(word)
    bad = draw(st.lists(st.sampled_from([-1, k]), min_size=1, max_size=2))
    for x in bad:
        word.insert(draw(st.integers(0, len(word))), x)
    first = next(x for x in word if not 0 <= x < k)
    message = f"letter index {first} out of range for alphabet of size {k}"
    with pytest.raises(iv.LetterOutOfRangeError) as info:
        alphabet.check_word(word)
    assert str(info.value) == message
    g = iv.identity_automaton(alphabet).at("e")
    with pytest.raises(iv.LetterOutOfRangeError) as info:
        g.apply(word)
    assert str(info.value) == message


def test_check_word_edges():
    alphabet = iv.Alphabet.of_size(3)
    assert alphabet.check_word(()) == ()
    assert alphabet.check_word([0, 2, 1]) == (0, 2, 1)
    for word in ([3], [0, 1, 3], [-1, 0], [2, 2, -1, 3]):
        with pytest.raises(iv.LetterOutOfRangeError):
            alphabet.check_word(word)
    assert iv.identity_automaton(alphabet).at("e").apply(()) == ()


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
    assert first == hash(tuple(getattr(machine, f.name) for f in dataclasses.fields(machine)))


def test_kept_hash_stays_out_of_pickles_and_copies():
    machine = remark_chain(6)
    hash(machine)
    for twin in (pickle.loads(pickle.dumps(machine)), copy.deepcopy(machine)):
        assert "_hash" not in vars(twin)
        assert twin == machine and hash(twin) == hash(machine)


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
