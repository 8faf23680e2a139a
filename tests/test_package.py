"""The package namespace: the public API, its homes, lazy submodule imports."""

from __future__ import annotations

import importlib
import pickle

import pytest

import invauto
from helpers import remark_chain, run_python

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
    "counting.classify_growth", "paradox.coin_audit", "core.compose", "counting.count_nc",
    "counting.count_ns", "periodic.count_periods", "counting.decide_g0", "counting.decide_g1",
    "paradox.find_minimal_level", "counting.find_ucs", "core.generate_builtin",
    "core.identity_automaton", "core.invert", "core.is_trivial_state",
    "counting.iter_nc_counts", "counting.iter_ns_counts", "counting.max_uc_length",
    "core.minimize", "counting.nc_words", "counting.ns_words", "textio.parse_automaton",
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
