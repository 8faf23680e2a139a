"""The package namespace: the public API, its homes, lazy submodule imports,
and edge paths of public calls that no other test reaches."""

from __future__ import annotations

import importlib
import os
import pickle
from fractions import Fraction

import pytest

import invauto
from helpers import Index, adding, flip_all, remark_chain, run_python

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
_OBJECT = object()  # its repr holds a memory address
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
     invauto.ValidationError("depth must be an int, not float")),
    (lambda: invauto.MaterializationPolicy("remark", 2, (("q_1", -1),)),
     invauto.ValidationError("horizon of state 'q_1' must be >= 0")),
    (lambda: invauto.MaterializationPolicy("remark", 2, (("q_1", 1.5),)),
     invauto.ValidationError("horizons[0][1] must be an int, not float")),
    (lambda: invauto.Automaton(
        _CHAIN.alphabet, _CHAIN.states, _CHAIN.transitions, _CHAIN.outputs,
        invauto.MaterializationPolicy("remark_chain", 3, (("q1", 3), ("q2", 2), ("q3", 1)))),
     invauto.UnknownStateError("policy names unknown state 'q1'")),
    (lambda: invauto.Alphabet(("0", 1)),
     invauto.ValidationError("symbols[1] must be a str, not int")),
    (lambda: invauto.Automaton(_LETTERS, (), (), ()),
     invauto.ValidationError("automaton needs at least one state")),
    (lambda: invauto.Automaton(_LETTERS, ("a",), ((0, 0),), ((1.0, 0.0),)),
     invauto.ValidationError("outputs[0][0] must be an int, not float")),
    (lambda: invauto.Automaton(_LETTERS, ("a", "b"), ((1, 1), (0.0, 0)), ((1, 0), (0, 1))),
     invauto.ValidationError("transitions[1][0] must be an int, not float")),
    (lambda: invauto.Automaton(_LETTERS, ("a",), (("0", 0),), ((1, 0),)),
     invauto.ValidationError("transitions[0][0] must be an int, not str")),
    (lambda: invauto.Automaton(_LETTERS, ("a",), ((0, 0),), (("1", 0),)),
     invauto.ValidationError("outputs[0][0] must be an int, not str")),
    (lambda: invauto.Automaton(_LETTERS, ("a",), ((0, 0),), ((1, Fraction(0)),)),
     invauto.ValidationError("outputs[0][1] must be an int, not Fraction")),
    (lambda: invauto.Automaton(_LETTERS, ("a", 1), ((0, 0), (1, 1)), ((1, 0), (0, 1))),
     invauto.ValidationError("states[1] must be a str, not int")),
    (lambda: invauto.Automaton(_LETTERS, (None,), ((0, 0),), ((1, 0),)),
     invauto.ValidationError("states[0] must be a str, not NoneType")),
    (lambda: invauto.Automaton.from_table(("0", "1"), {1: {"0": (1, "1"), "1": (1, "0")}}),
     invauto.ValidationError("states[0] must be a str, not int")),
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
     invauto.UnknownStateError("state 'q' points to unknown state <list> on letter '0'")),
    (lambda: invauto.Automaton.from_table(("0", "1"), {"q": {"0": ("q", ["1"]), "1": ("q", "0")}}),
     invauto.LetterOutOfRangeError("unknown letter <list>")),
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
     invauto.ArgumentError("rate_bounds must be a pair, not 3 items")),
    (lambda: invauto.GrowthReport("polynomial", degree=1.5),
     invauto.ArgumentError("degree must be an int, not float")),
    (lambda: invauto.MaterializationPolicy("f", 3, (("q", 1), ("q", 2))),
     invauto.ValidationError("state 'q' is given two horizons")),
    (lambda: invauto.MaterializationPolicy("f", 3, (("q", 1), ("r", 1, 2))),
     invauto.ValidationError("horizons[1] must be a pair, not 3 items")),
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
     invauto.ValidationError("depth must be an int, not object")),
    # a policy's states are strs, as an automaton's are
    (lambda: invauto.MaterializationPolicy("f", 1, ((5, 1),)),
     invauto.ValidationError("horizons[0][0] must be a str, not int")),
    (lambda: invauto.MaterializationPolicy("f", 1, (([1], 1),)),
     invauto.ValidationError("horizons[0][0] must be a str, not list")),
    (lambda: _ADDS.automaton.state_index([1]),
     invauto.UnknownStateError("no state named <list>")),
    # the writers take only str metadata, which the JSON reader reads back
    (lambda: invauto.render_dsl(adding(), name=5),
     invauto.ValidationError("name must be a str, not int")),
    (lambda: invauto.render_dot(adding(), name=None),
     invauto.ValidationError("name must be a str, not NoneType")),
    (lambda: invauto.render_json(adding(), name=5),
     invauto.ValidationError("name must be a str, not int")),
    (lambda: invauto.render_json(adding(), description=b"adds one"),
     invauto.ValidationError("description must be a str, not bytes")),
    # a field of the wrong kind once leaked a bare AttributeError
    (lambda: invauto.Automaton(("0", "1"), ("q",), ((0, 0),), ((1, 0),)),
     invauto.ValidationError("alphabet must be an Alphabet, not tuple")),
    (lambda: invauto.Transformation(5, "q"),
     invauto.ArgumentError("automaton must be an Automaton, not int")),
    (lambda: invauto.CountTable(5, "ns", (1,)),
     invauto.ArgumentError("transformation must be a Transformation, not int")),
    # a str is not read as its characters where a tuple goes
    (lambda: invauto.Automaton(_LETTERS, "qe", _ADDS.automaton.transitions,
                               _ADDS.automaton.outputs),
     invauto.ValidationError("states must be a tuple, not str")),
    (lambda: invauto.UnconditionalCycle("ab"),
     invauto.ArgumentError("states must be a tuple, not str")),
    (lambda: invauto.Automaton(_LETTERS, ("a",), ("00",), ((1, 0),)),
     invauto.ValidationError("transitions[0] must be a tuple, not str")),
    # records no check saw
    (lambda: invauto.Lemma2Verdict(1.5, 0, 0),
     invauto.ArgumentError("checked must be an int, not float")),
    (lambda: invauto.Lemma1Verdict("yes", None, 2.5, None, None, None),
     invauto.ArgumentError("applicable must be a bool, not str")),
    (lambda: invauto.Lemma1Verdict(True, None, 2.5, None, None, None),
     invauto.ArgumentError("input_period must be an int, not float")),
    (lambda: invauto.MembershipDecision(3, "w", "abc"),
     invauto.ArgumentError("member must be a bool, not int")),
    (lambda: invauto.MembershipDecision(True, "w", ()),
     invauto.ArgumentError("witness must be a tuple, not str")),
    (lambda: invauto.UnconditionalCycle((1, 2)),
     invauto.ArgumentError("states[0] must be a str, not int")),
    (lambda: invauto.CoinAudit(2.5, {}, (), {}, ()),
     invauto.ArgumentError("level must be an int, not float")),
    (lambda: invauto.CoinAudit(1, {}, (), {}, ((0,), (0.5,))),
     invauto.ArgumentError("deficit[1][0] must be an int, not float")),
    (lambda: invauto.MaterializationPolicy(3, 1),
     invauto.ValidationError("family must be a str, not int")),
    (lambda: invauto.GrowthReport("exponential", rate="x"),
     invauto.ArgumentError("rate must be a float, not str")),
    (lambda: invauto.ParadoxReport(object(), (_ADDS,), 1, 8, (1,), 8, Fraction(4), False),
     invauto.ArgumentError("kind must be a str, not object")),
    (lambda: invauto.ParadoxReport("ns", 5, 1, 8, (1,), 8, Fraction(4), False),
     invauto.ArgumentError("transformations must be a tuple, not int")),
    (lambda: invauto.ParadoxReport("ns", (_ADDS,), 1, 8, (1,), 8, Fraction(4), 1),
     invauto.ArgumentError("satisfied must be a bool, not int")),
    (lambda: invauto.EventuallyPeriodicWord((1.5,), (object(),)),
     invauto.ArgumentError("prefix[0] must be an int, not float")),
    (lambda: invauto.EventuallyPeriodicWord((), (object(),)),
     invauto.ArgumentError("period[0] must be an int, not object")),
    # a count past the int-to-str limit is refused by its level and bound
    (lambda: invauto.CountTable(flip_all().at("r"), "ns", (1,) + (0,) * 14299 + (2**14300 + 1,)),
     invauto.ArgumentError("count at level 14300 exceeds 2^14300")),
    (lambda: invauto.CountTable(_ADDS, "ns", (1, -1)),
     invauto.ArgumentError("count at level 1 is negative")),
    # any iterable but a str is read as a tuple, at every depth the field declares
    (lambda: invauto.MaterializationPolicy("f", 3, [["q", 1], ("r", 2)]).horizons,
     (("q", 1), ("r", 2))),
    (lambda: invauto.Automaton(_LETTERS, ["q", "e"], [[1, 0], [1, 1]], [[1, 0], [0, 1]])
     == invauto.Automaton(_LETTERS, ("q", "e"), ((1, 0), (1, 1)), ((1, 0), (0, 1))), True),
    (lambda: invauto.EventuallyPeriodicWord(iter([1, 0]), [0, 1]),
     invauto.EventuallyPeriodicWord((1, 0), (0, 1))),
    # a bool is an int, an int is a float, and an int is a Fraction
    (lambda: invauto.GrowthReport("exponential", rate=2, rate_bounds=[1, 3]).rate_bounds, (1, 3)),
    (lambda: invauto.Lemma2Verdict(True, False, 0).checked, 1),
    # a method's argument is named by its type, never by a repr that may hold an address
    (lambda: _ADDS.automaton.state_index(_OBJECT),
     invauto.UnknownStateError("no state named <object>")),
    (lambda: invauto.is_trivial_state(_ADDS.automaton, _OBJECT),
     invauto.UnknownStateError("no state named <object>")),
    (lambda: _LETTERS.index(_OBJECT), invauto.LetterOutOfRangeError("unknown letter <object>")),
    (lambda: _LETTERS.check_word((0, _OBJECT)), invauto.LetterOutOfRangeError(
        "letter <object> is not an integer index for alphabet of size 2")),
    (lambda: _ADDS.path((0, _OBJECT)), invauto.LetterOutOfRangeError(
        "letter <object> is not an integer index for alphabet of size 2")),
    (lambda: invauto.Automaton.from_table(("0", "1"), {"q": {"0": (_OBJECT, "1"),
                                                              "1": ("q", "0")}}),
     invauto.UnknownStateError("state 'q' points to unknown state <object> on letter '0'")),
    (lambda: invauto.Automaton.from_table(("0", "1"), {"q": {"0": ("q", _OBJECT),
                                                              "1": ("q", "0")}}),
     invauto.LetterOutOfRangeError("unknown letter <object>")),
    (lambda: invauto.Automaton.from_table(("0", "1"), {"q": {_OBJECT: ("q", "1")}}),
     invauto.LetterOutOfRangeError("state 'q' has a row for unknown letter <object>")),
    (lambda: invauto.Automaton.from_table(("0", "1"), {_OBJECT: [("q", "1")]}),
     invauto.ValidationError("state <object> must map letters to pairs")),
    (lambda: invauto.compose(adding(), adding(), prune_from=_OBJECT),
     invauto.ArgumentError("prune_from must be a pair of state names, not <object>")),
    (lambda: invauto.Automaton.from_table("01", {"q": {"0": ("q", "1"), "1": ("q", "0")}}),
     invauto.ValidationError("symbols must be a tuple, not str")),
    (lambda: invauto.Automaton.from_table(5, {"q": {"0": ("q", "1"), "1": ("q", "0")}}),
     invauto.ValidationError("symbols must be a tuple, not int")),
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
        "dsl-int-name", "dot-none-name", "json-int-name", "json-bytes-description",
        "tuple-alphabet", "int-automaton", "int-transformation", "str-states", "str-cycle",
        "str-row", "lemma2-float", "lemma1-str", "lemma1-float-period", "decision-int",
        "decision-str-witness", "cycle-int-states", "audit-float-level", "audit-float-deficit",
        "policy-int-family", "growth-str-rate", "paradox-object-kind",
        "paradox-int-transformations", "paradox-int-satisfied", "word-float-letter",
        "word-object-letter", "count-past-str-limit", "count-negative", "policy-list-entries",
        "automaton-from-lists", "word-from-iterators", "growth-int-rate-and-bounds",
        "lemma2-bool-counts", "object-state-index", "object-trivial-state", "object-token",
        "object-letter", "object-path-letter", "object-next-name", "object-output",
        "object-row-letter", "object-table-key", "object-prune-from", "str-symbols",
        "int-symbols"])
def test_validation_branches(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(Exception) as info:
            call()
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)
        assert info.value.__context__ is None or info.value.__suppress_context__
    else:
        assert call() == expected


# a value of the right kind for every field of every record
_VALID = {
    "Alphabet": lambda: (("0", "1"),),
    "MaterializationPolicy": lambda: ("f", 1, (("q", 1),)),
    "Automaton": lambda: (_LETTERS, ("q", "e"), ((1, 0), (1, 1)), ((1, 0), (0, 1)), None),
    "Transformation": lambda: (_ADDS.automaton, "q"),
    "UnconditionalCycle": lambda: (("e",),),
    "CountTable": lambda: (_ADDS, "ns", (1, 1)),
    "GrowthReport": lambda: ("exponential", None, 1.5, (Fraction(1), Fraction(2))),
    "MembershipDecision": lambda: (False, (0,), ("q",)),
    "EventuallyPeriodicWord": lambda: ((0,), (1,)),
    "Lemma1Verdict": lambda: (True, True, 2, 1, 2, 2),
    "Lemma2Verdict": lambda: (1, 0, 0, ()),
    "ParadoxReport": lambda: ("ns", (_ADDS,), 1, 8, (1,), 8, Fraction(4), False, "", None, None),
    "CoinAudit": lambda: (1, {(0,): 0, (1,): 0}, (_ADDS,), {(0,): 1, (1,): 1}, ()),
}
_RECORDS = [getattr(invauto, name) for name in invauto.__all__
            if hasattr(getattr(invauto, name), "_fields")]


def test_every_record_has_a_valid_value_here():
    assert sorted(_VALID) == sorted(cls.__name__ for cls in _RECORDS)
    for cls in _RECORDS:
        assert cls(*_VALID[cls.__name__]()) == cls(*_VALID[cls.__name__]())


@pytest.mark.parametrize("cls, field", [(cls, field) for cls in _RECORDS for field in cls._fields],
                         ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_every_field_refuses_a_value_of_the_wrong_kind(cls, field):
    """One rule for every field of every record: the record's error class,
    a message that names the field first, and no memory address in it."""
    values = dict(zip(cls._fields, _VALID[cls.__name__]()))
    values[field] = object()
    error = (invauto.ValidationError
             if cls.__name__ in ("Alphabet", "MaterializationPolicy", "Automaton")
             else invauto.ArgumentError)
    with pytest.raises(Exception) as info:
        cls(**values)
    assert type(info.value) is error
    assert str(info.value).startswith(f"{field} must be ")
    assert "0x" not in str(info.value)
    assert info.value.__context__ is None or info.value.__suppress_context__


def test_a_record_keeps_the_init_it_was_made_with():
    """A wrapper put on a record's ``__init__`` before its first build, in a
    fresh interpreter, sees a refused build and a valid one, and stays."""
    samples, expected = {}, {}
    for cls in _RECORDS:
        valid = _VALID[cls.__name__]()
        wrong = (object(), *valid[1:])
        with pytest.raises(Exception) as info:
            cls(*wrong)
        assert str(info.value).startswith(f"{cls._fields[0]} must be ")
        samples[cls.__name__] = wrong[1:], valid  # an object() does not pickle
        expected[cls.__name__] = (type(info.value).__name__, str(info.value), 2, True)
    script = (
        "import pickle, sys\n"
        "import invauto\n"
        "samples, seen, results = pickle.load(sys.stdin.buffer), [], {}\n"
        "def wrap(cls):\n"
        "    made_with = cls.__init__\n"
        "    def __init__(self, *args):\n"
        "        seen.append(cls)\n"
        "        made_with(self, *args)\n"
        "    cls.__init__ = __init__\n"
        "    return __init__\n"
        "wrappers = {name: wrap(getattr(invauto, name)) for name in samples}\n"
        "for name, (rest, valid) in samples.items():\n"
        "    cls, refused = getattr(invauto, name), (None, None)\n"
        "    seen.clear()\n"
        "    try:\n"
        "        cls(object(), *rest)\n"
        "    except Exception as error:\n"
        "        refused = type(error).__name__, str(error)\n"
        "    cls(*valid)\n"
        "    results[name] = (*refused, seen.count(cls), cls.__init__ is wrappers[name])\n"
        "sys.stdout.buffer.write(pickle.dumps(results))\n"
    )
    result = run_python("-c", script, input=pickle.dumps(samples))
    assert result.returncode == 0, result.stderr.decode()
    assert pickle.loads(result.stdout) == expected
