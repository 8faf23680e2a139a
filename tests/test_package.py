"""The package namespace: the public API, its homes, lazy submodule imports,
and edge paths of public calls that no other test reaches."""

from __future__ import annotations

import importlib
import os
import pickle
from fractions import Fraction

import pytest

import invauto
from helpers import Index, adding, remark_chain, run_python

# every public name, in the order of ``invauto.__all__``, after its home module
PUBLIC = [
    "core.Alphabet", "errors.AlphabetMismatchError", "errors.AlphabetTooSmallError",
    "errors.ArgumentError", "core.Automaton", "errors.AutomatonError", "core.BUILTIN_FAMILIES",
    "errors.BlockFactorTooSmallError", "paradox.CoinAudit", "counting.CountTable",
    "errors.CycleBoundTooSmallError", "errors.DepthTooSmallError",
    "periodic.EventuallyPeriodicWord", "counting.GrowthReport", "periodic.Lemma1Verdict",
    "periodic.Lemma2Verdict", "errors.LetterOutOfRangeError", "core.MaterializationPolicy",
    "counting.MembershipDecision", "errors.MissingTransitionError",
    "errors.NonBijectiveOutputError", "errors.NotMaterializableError", "paradox.ParadoxReport",
    "errors.ParseError", "errors.PartitionNotTotalError", "errors.PartitionOverlapError",
    "errors.PeriodBoundInvalidError", "core.Transformation", "counting.UnconditionalCycle",
    "errors.UnknownFamilyError", "errors.UnknownStateError", "errors.ValidationError",
    "core.Word", "periodic.apply_to_ep_word", "periodic.check_lemma1", "periodic.check_lemma2",
    "counting.classify_growth", "paradox.coin_audit", "algebra.compose", "counting.count_nc",
    "counting.count_ns", "periodic.count_periods", "counting.decide_g0", "counting.decide_g1",
    "paradox.find_minimal_level", "counting.find_ucs", "core.generate_builtin",
    "core.identity_automaton", "algebra.invert", "core.is_trivial_state",
    "counting.iter_nc_counts", "counting.iter_ns_counts", "counting.max_uc_length",
    "algebra.minimize", "counting.nc_words", "counting.ns_words", "textio.parse_automaton",
    "textio.parse_document", "periodic.primitive_root", "periodic.purely_periodic_period",
    "counting.reachable_uc_lengths", "textio.render_dot", "textio.render_dsl",
    "textio.render_json", "paradox.theorem1_report", "paradox.theorem2_report",
    "core.trivial_states",
]
NAMES = [entry.partition(".")[2] for entry in PUBLIC]


def test_all_lists_the_public_names_in_order():
    assert invauto.__all__ == NAMES and len(NAMES) == 67


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from invauto import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(NAMES)


def test_each_name_is_the_object_in_its_home_module():
    for entry in PUBLIC:
        home, _, name = entry.partition(".")
        module = importlib.import_module(f"invauto.{home}")
        value = getattr(invauto, name)
        assert value is getattr(module, name), entry
        if getattr(value, "__module__", "").startswith("invauto."):
            assert value.__module__ == module.__name__, entry


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'invauto' has no attribute 'bogus'$"):
        invauto.bogus


def test_dir_lists_every_public_name():
    assert set(NAMES) <= set(dir(invauto))


def test_submodules_resolve_after_a_bare_import():
    script = (
        "import invauto\n"
        "print(invauto.counting.count_ns is invauto.count_ns, invauto.paradox.__name__)\n"
    )
    result = run_python("-c", script, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "True invauto.paradox\n"


def test_a_pickled_automaton_loads_in_a_fresh_interpreter():
    automaton = remark_chain(3)
    script = "import pickle, sys\nsys.stdout.buffer.write(pickle.dumps(pickle.load(sys.stdin.buffer)))\n"
    result = run_python("-c", script, input=pickle.dumps(automaton))
    assert result.returncode == 0, result.stderr.decode()
    assert pickle.loads(result.stdout) == automaton


def test_an_automaton_hashed_here_hashes_afresh_under_another_hash_seed(monkeypatch):
    automaton = remark_chain(5)
    here = hash(automaton)  # kept on the object; str hashes depend on the seed
    monkeypatch.setenv("PYTHONHASHSEED", "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0")
    script = (
        "import pickle, sys\n"
        "import invauto\n"
        "loaded, here = pickle.load(sys.stdin.buffer)\n"
        "fresh = invauto.generate_builtin('remark_chain', depth=5)\n"
        "print(hash(loaded) == hash(fresh), hash(loaded) != here, {fresh: 'found'}[loaded])\n"
    )
    result = run_python("-c", script, input=pickle.dumps((automaton, here)))
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == b"True True found\n"


_LETTERS = invauto.Alphabet(("x0", "x1"))
_ADDS = adding().at("q")
_CHAIN = remark_chain(3)


# each call gives its value, or raises the error given in its place
@pytest.mark.parametrize("call, expected", [
    (lambda: invauto.purely_periodic_period(invauto.EventuallyPeriodicWord((1,), (0,))),
     None),
    (lambda: invauto.Alphabet(("0", "0")),
     invauto.ValidationError("alphabet symbols must be pairwise distinct")),
    (lambda: invauto.Alphabet(("0", "a b")), invauto.ValidationError("bad alphabet symbol 'a b'")),
    (lambda: _LETTERS.word("x1 x0\tx1"), (1, 0, 1)),
    (lambda: _LETTERS.word("x1"), (1,)),
    (lambda: _LETTERS.text((1, 0)), "x1 x0"),
    (lambda: invauto.coin_audit(1, [[(0,), (1, 0)]], [_ADDS]),
     invauto.ArgumentError("word (1, 0) does not have length 1")),
    (lambda: invauto.parse_document(
        invauto.render_json(adding(), name="adding", description="adds one"))[1],
     {"name": "adding", "description": "adds one"}),
    (lambda: invauto.primitive_root(()), ()),
], ids=["not-purely-periodic", "duplicate-letter", "space-in-letter", "multi-letter-word",
        "one-multi-letter", "multi-letter-text", "audit-word-length", "json-metadata",
        "empty-root"])
def test_public_edge_paths(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as info:
            call()
        assert str(info.value) == str(expected)
        assert info.value.__context__ is None or info.value.__suppress_context__
    else:
        assert call() == expected


# each validation branch no other test reaches: the call, and the exact error
# it raises (or, for the two plain properties, the value it gives)
@pytest.mark.parametrize("call, expected", [
    (lambda: invauto.MaterializationPolicy("remark", 0),
     invauto.ValidationError("materialization depth must be >= 1")),
    (lambda: invauto.MaterializationPolicy("remark", 2.0),
     invauto.ValidationError("materialization depth must be an int, not float")),
    (lambda: invauto.MaterializationPolicy("remark", 2, (("q_1", -1),)),
     invauto.ValidationError("horizon of state 'q_1' must be >= 0")),
    (lambda: invauto.MaterializationPolicy("remark", 2, (("q_1", 1.5),)),
     invauto.ValidationError("horizon of state 'q_1' must be an int, not float")),
    (lambda: invauto.Automaton(
        _CHAIN.alphabet, _CHAIN.states, _CHAIN.transitions, _CHAIN.outputs,
        invauto.MaterializationPolicy("remark_chain", 3, (("q1", 3), ("q2", 2), ("q3", 1)))),
     invauto.UnknownStateError("policy names unknown state 'q1'")),
    (lambda: invauto.Alphabet(("0", 1)), invauto.ValidationError("bad alphabet symbol 1")),
    (lambda: invauto.Automaton(_LETTERS, (), (), ()),
     invauto.ValidationError("automaton needs at least one state")),
    (lambda: invauto.Automaton(_LETTERS, ("a",), ((0, 0),), ((1.0, 0.0),)),
     invauto.ValidationError("state 'a' has an entry that is not an int: 1.0")),
    (lambda: invauto.Automaton(_LETTERS, ("a", "b"), ((1, 1), (0.0, 0)), ((1, 0), (0, 1))),
     invauto.ValidationError("state 'b' has an entry that is not an int: 0.0")),
    (lambda: invauto.Automaton(_LETTERS, ("a",), (("0", 0),), ((1, 0),)),
     invauto.ValidationError("state 'a' has an entry that is not an int: '0'")),
    (lambda: invauto.Automaton(_LETTERS, ("a",), ((0, 0),), (("1", 0),)),
     invauto.ValidationError("state 'a' has an entry that is not an int: '1'")),
    (lambda: invauto.Automaton(_LETTERS, ("a",), ((0, 0),), ((1, Fraction(0)),)),
     invauto.ValidationError("state 'a' has an entry that is not an int: Fraction(0, 1)")),
    (lambda: invauto.Automaton(_LETTERS, ("a", 1), ((0, 0), (1, 1)), ((1, 0), (0, 1))),
     invauto.ValidationError("state name 1 is not a str")),
    (lambda: invauto.Automaton(_LETTERS, (None,), ((0, 0),), ((1, 0),)),
     invauto.ValidationError("state name None is not a str")),
    (lambda: invauto.Automaton.from_table(("0", "1"), {1: {"0": (1, "1"), "1": (1, "0")}}),
     invauto.ValidationError("state name 1 is not a str")),
    (lambda: invauto.Automaton.from_table(("0", "1"), {"a": {
        "0": ("a", "1"), "1": ("a", "0"), "2": ("a", "0")}}),
     invauto.LetterOutOfRangeError("state 'a' has a row for unknown letter '2'")),
    (lambda: invauto.Automaton.from_table(("0", "1"), {"q": {"0": "q1", "1": ("q", "0")}}),
     invauto.ValidationError(
         "state 'q', letter '0': expected a (next state, output letter) pair")),
    (lambda: invauto.Automaton.from_table(("0", "1"), {"q": {
        "0": ("q", "1"), "1": ("q", "0", "1")}}),
     invauto.ValidationError(
         "state 'q', letter '1': expected a (next state, output letter) pair")),
    (lambda: invauto.Automaton.from_table(("0", "1"), {"q": {"0": (["q"], "1"), "1": ("q", "0")}}),
     invauto.UnknownStateError("state 'q' points to unknown state ['q'] on letter '0'")),
    (lambda: invauto.Automaton.from_table(("0", "1"), {"q": {"0": ("q", ["1"]), "1": ("q", "0")}}),
     invauto.LetterOutOfRangeError("unknown letter ['1']")),
    (lambda: invauto.Automaton.from_table(("0", "1"), {"q": [("q", "1"), ("q", "0")]}),
     invauto.ValidationError("state 'q' must map letters to pairs")),
    (lambda: list(_ADDS.apply_stream([0, 2])),
     invauto.LetterOutOfRangeError("letter index 2 out of range for alphabet of size 2")),
    (lambda: list(_ADDS.apply_stream([0, Index(5)])),
     invauto.LetterOutOfRangeError("letter index 5 out of range for alphabet of size 2")),
    (lambda: invauto.UnconditionalCycle(()),
     invauto.ArgumentError("cycle states must be nonempty and pairwise distinct")),
    (lambda: invauto.UnconditionalCycle(("a", "b", "a")),
     invauto.ArgumentError("cycle states must be nonempty and pairwise distinct")),
    (lambda: invauto.CountTable(_ADDS, "xs", (1,)),
     invauto.ArgumentError("kind must be 'ns' or 'nc'")),
    (lambda: invauto.CountTable(_ADDS, "ns", (2,)),
     invauto.ArgumentError("level-0 count must be 0 or 1")),
    (lambda: invauto.CountTable(_ADDS, "ns", (1, 1, 1)).max_level, 2),
    (lambda: invauto.GrowthReport("linear"),
     invauto.ArgumentError("bad growth category 'linear'")),
    (lambda: invauto.GrowthReport("bounded", degree=1),
     invauto.ArgumentError("degree is present exactly for polynomial growth")),
    (lambda: invauto.GrowthReport("exponential"),
     invauto.ArgumentError("rate is present exactly for exponential growth")),
    (lambda: invauto.GrowthReport("polynomial", degree=0),
     invauto.ArgumentError("polynomial degree must be >= 1")),
    (lambda: invauto.GrowthReport("bounded", rate_bounds=(Fraction(1), Fraction(2))),
     invauto.ArgumentError("rate bounds are present only for exponential growth")),
    (lambda: invauto.GrowthReport("exponential", rate=1.5,
                                  rate_bounds=(Fraction(2), Fraction(1))),
     invauto.ArgumentError("rate bounds 2 > 1")),
    (lambda: bool(invauto.MembershipDecision(False, (0,), ("q",))), False),
    (lambda: bool(invauto.MembershipDecision(True, None, ())), True),
    (lambda: invauto.ParadoxReport("t1", (_ADDS,), 1, 8, (5,), 5, Fraction(4), True),
     invauto.ArgumentError("verdict disagrees with the exact comparison")),
    (lambda: invauto.theorem1_report([], 1),
     invauto.ArgumentError("need at least one transformation")),
    (lambda: invauto.EventuallyPeriodicWord((0,), (1,))[-1],
     IndexError("infinite words have no negative positions")),
    # an integer argument must be an int, named by its type
    (lambda: invauto.count_periods(2, 2.5),
     invauto.ArgumentError("period divisor must be an int, not float")),
    (lambda: invauto.count_periods(2.5, 2),
     invauto.ArgumentError("alphabet size must be an int, not float")),
    (lambda: invauto.check_lemma2(_ADDS, 2.0, 1, 1, []),
     invauto.ArgumentError("level must be an int, not float")),
    (lambda: invauto.check_lemma2(_ADDS, 1, 1, 2.5, []),
     invauto.ArgumentError("period divisor must be an int, not float")),
    (lambda: invauto.theorem1_report([_ADDS], 2.0),
     invauto.ArgumentError("level must be an int, not float")),
    (lambda: invauto.theorem1_report([_ADDS], "2"),
     invauto.ArgumentError("level must be an int, not str")),
    (lambda: invauto.theorem1_report([_ADDS], 2, 8.5),
     invauto.ArgumentError("block factor must be an int, not float")),
    (lambda: invauto.find_minimal_level([_ADDS], 8, 3.5),
     invauto.ArgumentError("max_level must be an int, not float")),
    (lambda: invauto.count_ns(_ADDS, 2.0),
     invauto.ArgumentError("level must be an int, not float")),
    (lambda: invauto.coin_audit(1.0, [[(0,), (1,)]], [_ADDS]),
     invauto.ArgumentError("level must be an int, not float")),
    # the fields a report still took on trust
    (lambda: invauto.ParadoxReport("nc", (_ADDS,), 1, 8, (1,), 8, Fraction(4), False,
                                   period_divisor=1, period_count=2.5),
     invauto.ArgumentError("period_count must be an int, not float")),
    (lambda: invauto.ParadoxReport("nc", (_ADDS,), 1, 8, (1,), 8, Fraction(4), False,
                                   period_divisor=1.0, period_count=2),
     invauto.ArgumentError("period_divisor must be an int, not float")),
    (lambda: invauto.ParadoxReport("ns", (_ADDS,), 1.0, 8, (1,), 8, Fraction(4), False),
     invauto.ArgumentError("level must be an int, not float")),
    (lambda: invauto.GrowthReport("exponential", rate=2.0, rate_bounds=(1, 2, 3)),
     invauto.ArgumentError("rate bounds must be a (lo, hi) pair")),
    (lambda: invauto.GrowthReport("polynomial", degree=1.5),
     invauto.ArgumentError("polynomial degree must be an int, not float")),
    (lambda: invauto.MaterializationPolicy("f", 3, (("q", 1), ("q", 2))),
     invauto.ValidationError("state 'q' is given two horizons")),
    (lambda: invauto.MaterializationPolicy("f", 3, (("q", 1), ("r", 1, 2))),
     invauto.ValidationError("horizons entry 1 is not a (state, horizon) pair")),
    # a fixed builtin takes no depth
    (lambda: invauto.generate_builtin("adding", depth=3),
     invauto.ArgumentError("family 'adding' takes no depth")),
    (lambda: invauto.generate_builtin("remark_chain", depth=2.5),
     invauto.ValidationError("remark_chain depth must be an int, not float")),
    (lambda: invauto.generate_builtin("remark_chain", depth="3"),
     invauto.ValidationError("remark_chain depth must be an int, not str")),
    (lambda: invauto.generate_builtin("remark_chain"),
     invauto.ValidationError("remark_chain requires a depth")),
    # the integer arguments no rule saw: refused by type, then below their bound
    (lambda: invauto.generate_builtin("remark_chain", depth=3, length="5"),
     invauto.ArgumentError("length must be an int, not str")),
    (lambda: invauto.generate_builtin("remark_chain", depth=3, length=2.5),
     invauto.ArgumentError("length must be an int, not float")),
    (lambda: invauto.generate_builtin("adding", length=-1),
     invauto.ArgumentError("length must be >= 0")),
    (lambda: invauto.check_lemma2(_ADDS, 1, "2", 1, []),
     invauto.ArgumentError("cycle bound must be an int, not str")),
    (lambda: invauto.check_lemma2(_ADDS, 1, 2.5, 1, []),
     invauto.ArgumentError("cycle bound must be an int, not float")),
    (lambda: invauto.Alphabet.of_size(2.5),
     invauto.ArgumentError("alphabet size must be an int, not float")),
    (lambda: invauto.identity_automaton(2.5),
     invauto.ArgumentError("alphabet size must be an int, not float")),
    (lambda: invauto.check_lemma1(_ADDS, invauto.EventuallyPeriodicWord((), (0,)), "0"),
     invauto.ArgumentError("level must be an int, not str")),
    (lambda: invauto.EventuallyPeriodicWord((1, 0, 1), (0,)).tail_from(-1),
     invauto.ArgumentError("position must be >= 0")),
    (lambda: invauto.EventuallyPeriodicWord((1, 0, 1), (0,)).first(-1),
     invauto.ArgumentError("length must be >= 0")),
    # named by its type, never by a repr that holds a memory address
    (lambda: invauto.MaterializationPolicy("f", object()),
     invauto.ValidationError("materialization depth must be an int, not object")),
    # a policy's states are strs, as an automaton's are
    (lambda: invauto.MaterializationPolicy("f", 1, ((5, 1),)),
     invauto.ValidationError("state name 5 is not a str")),
    (lambda: invauto.MaterializationPolicy("f", 1, (([1], 1),)),
     invauto.ValidationError("state name [1] is not a str")),
    (lambda: _ADDS.automaton.state_index([1]),
     invauto.UnknownStateError("no state named [1]")),
    # the writers take only str metadata, which the JSON reader reads back
    (lambda: invauto.render_dsl(adding(), name=5),
     invauto.ValidationError("name must be a str, not int")),
    (lambda: invauto.render_dot(adding(), name=None),
     invauto.ValidationError("name must be a str, not NoneType")),
    (lambda: invauto.render_json(adding(), name=5),
     invauto.ValidationError("name must be a str, not int")),
    (lambda: invauto.render_json(adding(), description=b"adds one"),
     invauto.ValidationError("description must be a str, not bytes")),
], ids=["policy-depth-0", "policy-depth-not-int", "policy-horizon-below-0",
        "policy-horizon-not-int", "policy-names-unknown-state", "letter-not-str",
        "no-states", "float-output", "float-target", "str-target", "str-output",
        "fraction-output", "int-name", "none-name", "int-table-key", "row-for-unknown-letter",
        "str-pair", "three-item-pair", "unhashable-next-name", "unhashable-output",
        "row-not-a-mapping", "stream-letter", "stream-index-letter",
        "empty-cycle", "repeated-cycle-state", "count-kind", "level-0-count", "max-level",
        "growth-category", "growth-degree-present", "growth-rate-absent",
        "growth-degree-0", "growth-bounds-not-exponential", "growth-bounds-reversed",
        "decision-false", "decision-true", "paradox-verdict", "theorem1-no-items",
        "negative-position", "periods-float-divisor", "periods-float-size",
        "lemma2-float-level", "lemma2-float-divisor",
        "t1-float-level", "t1-str-level", "t1-float-block-factor", "min-level-float-max",
        "ns-float-level", "audit-float-level", "paradox-float-period-count",
        "paradox-float-period-divisor", "paradox-float-level", "growth-bounds-not-a-pair",
        "growth-float-degree", "policy-state-twice", "policy-entry-not-a-pair",
        "fixed-builtin-depth", "chain-float-depth", "chain-str-depth", "chain-no-depth",
        "str-length", "float-length", "negative-length", "lemma2-str-cycle-bound",
        "lemma2-float-cycle-bound", "float-alphabet-size", "identity-float-size",
        "lemma1-str-level", "negative-tail-position", "negative-first-length",
        "policy-depth-object", "policy-int-state", "policy-unhashable-state",
        "unhashable-state-name",
        "dsl-int-name", "dot-none-name", "json-int-name", "json-bytes-description"])
def test_validation_branches(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(Exception) as info:
            call()
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)
        assert info.value.__context__ is None or info.value.__suppress_context__
    else:
        assert call() == expected
