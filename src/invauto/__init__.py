"""Invertible letter-to-letter automata acting on words.

Algebra (apply, invert, compose, minimize), exact per-level counts of state
behavior, growth classification, eventually periodic words, and finite-scale
audits showing that small-activity transformations cannot double a block of
words.

Each submodule is imported on first use of one of its names, so a program
pays only for the parts it touches.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_HOMES = {
    "algebra": ("compose", "invert", "minimize"),
    "core": (
        "Alphabet", "Automaton", "BUILTIN_FAMILIES", "MaterializationPolicy",
        "Transformation", "Word", "generate_builtin", "identity_automaton",
        "is_trivial_state", "trivial_states",
    ),
    "counting": (
        "CountTable", "GrowthReport", "MembershipDecision", "UnconditionalCycle",
        "classify_growth", "count_nc", "count_ns", "decide_g0", "decide_g1",
        "find_ucs", "iter_nc_counts", "iter_ns_counts", "max_uc_length",
        "nc_words", "ns_words", "reachable_uc_lengths",
    ),
    "errors": (
        "AlphabetMismatchError", "AlphabetTooSmallError", "ArgumentError",
        "AutomatonError", "BlockFactorTooSmallError", "CycleBoundTooSmallError",
        "DepthTooSmallError", "LetterOutOfRangeError", "MissingTransitionError",
        "NonBijectiveOutputError", "NotMaterializableError", "ParseError",
        "PartitionNotTotalError", "PartitionOverlapError",
        "PeriodBoundInvalidError", "UnknownFamilyError", "UnknownStateError",
        "ValidationError",
    ),
    "paradox": (
        "CoinAudit", "ParadoxReport", "coin_audit", "find_minimal_level",
        "theorem1_report", "theorem2_report",
    ),
    "periodic": (
        "EventuallyPeriodicWord", "Lemma1Verdict", "Lemma2Verdict",
        "apply_to_ep_word", "check_lemma1", "check_lemma2", "count_periods",
        "primitive_root", "purely_periodic_period",
    ),
    "textio": (
        "parse_automaton", "parse_document", "render_dot", "render_dsl",
        "render_json",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name or a submodule, imported on first use.  A public name is
    then kept in the package namespace, so later lookups find it directly."""
    if name in _HOMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_HOMES})
