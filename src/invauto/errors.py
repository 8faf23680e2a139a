"""Exception types raised by the library.

Everything derives from AutomatonError so callers (and the CLI) can treat
"domain error" uniformly; ParseError additionally carries a source location.
"""

from __future__ import annotations


class AutomatonError(Exception):
    """Base class for all domain errors."""


class ArgumentError(AutomatonError, ValueError):
    """A library call got an argument outside its domain (a negative level,
    a zero period divisor, ...); also a ValueError, for callers that catch
    that."""


class ValidationError(AutomatonError):
    """An automaton description violates a structural invariant."""


class MissingTransitionError(ValidationError):
    """A (state, letter) pair has no transition row entry."""


class NonBijectiveOutputError(ValidationError):
    """Some state's output row is not a permutation of the alphabet."""


class UnknownStateError(ValidationError):
    """A state name does not exist in the automaton."""


class AlphabetTooSmallError(ValidationError):
    """Alphabets must contain at least two letters."""


class LetterOutOfRangeError(AutomatonError):
    """A letter (index or token) does not belong to the alphabet."""


class AlphabetMismatchError(AutomatonError):
    """Two automata that must share an alphabet do not."""


class UnknownFamilyError(AutomatonError):
    """Requested builtin family name is not known."""


class DepthTooSmallError(AutomatonError):
    """A depth-bounded family cannot serve the requested processing length."""


class NotMaterializableError(AutomatonError):
    """The operation needs more of a parametric family than was materialized."""


class CycleBoundTooSmallError(AutomatonError):
    """The supplied cycle bound is below the maximal reachable cycle length."""


class BlockFactorTooSmallError(AutomatonError):
    """Block factors below 8 do not support the doubling comparison."""


class PeriodBoundInvalidError(AutomatonError):
    """The period divisor is not a multiple of a reachable cycle length."""


class PartitionNotTotalError(AutomatonError):
    """A coin-audit partition leaves some word unassigned."""


class PartitionOverlapError(AutomatonError):
    """A coin-audit partition assigns some word twice."""


class ParseError(AutomatonError):
    """A textual automaton description is malformed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)
