"""Finite-scale certificates that small activity rules out doubling.

A doubling scheme would have to import coins into a block of s * |X|^l
consecutive words from outside its neighborhood, and each transformation can
import at most s times its per-level count.  The reports here compare that
import bound against a quarter of the block, exactly, in rational
arithmetic; the coin audit replays a concrete candidate scheme at one level
and lists every word left short.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import Transformation, Word
from .counting import NC, NS, _iter_counts, iter_ns_counts, reachable_uc_lengths
from .errors import (
    AlphabetMismatchError,
    ArgumentError,
    BlockFactorTooSmallError,
    PartitionNotTotalError,
    PartitionOverlapError,
    PeriodBoundInvalidError,
)
from .periodic import count_periods

MIN_BLOCK_FACTOR = 8


@dataclass(frozen=True)
class ParadoxReport:
    """One exact comparison of imported coins against the doubling budget."""

    kind: str
    transformations: tuple[Transformation, ...]
    level: int
    block_factor: int
    per_item: tuple[int, ...]
    aggregate: int
    threshold: Fraction
    satisfied: bool
    note: str = ""
    period_divisor: int | None = None
    period_count: int | None = None

    def __post_init__(self):
        if self.satisfied != (self.aggregate <= self.threshold):
            raise ArgumentError("verdict disagrees with the exact comparison")
        if self.block_factor < MIN_BLOCK_FACTOR:
            raise ArgumentError(f"block factor must be >= {MIN_BLOCK_FACTOR}")


def _common_alphabet(hs: Sequence[Transformation]):
    if not hs:
        raise ArgumentError("need at least one transformation")
    alphabet = hs[0].alphabet
    for h in hs[1:]:
        if h.alphabet != alphabet:
            raise AlphabetMismatchError("all transformations must share one alphabet")
    return alphabet


def _check_block_factor(block_factor: int) -> None:
    if block_factor < MIN_BLOCK_FACTOR:
        raise BlockFactorTooSmallError(
            f"block factor {block_factor} is below the minimum {MIN_BLOCK_FACTOR}"
        )


def _report(
    kind: str,
    hs: Sequence[Transformation],
    level: int,
    block_factor: int,
    period_divisor: int | None = None,
) -> ParadoxReport:
    hs = tuple(hs)
    k = _common_alphabet(hs).size
    _check_block_factor(block_factor)
    if level < 0:
        raise ArgumentError("level must be >= 0")
    classes = None
    if kind == NC:
        if period_divisor < 1:
            raise PeriodBoundInvalidError("period divisor must be >= 1")
        for h in hs:
            for n in reachable_uc_lengths(h, level):
                if period_divisor % n != 0:
                    raise PeriodBoundInvalidError(
                        f"period divisor {period_divisor} is not a multiple of cycle "
                        f"length {n} reachable by {h.state!r}"
                    )
        classes = count_periods(k, period_divisor)
    # one level per item: the lazy sweep stops there, no table is kept
    per_item = tuple(next(itertools.islice(_iter_counts(h, kind), level, None)) for h in hs)
    aggregate = block_factor * sum(per_item)
    threshold = Fraction(block_factor * k**level, 4)
    if kind == NS:
        note = (
            f"at most {aggregate} coins can enter a block of "
            f"{block_factor}*{k}^{level} consecutive words from outside "
            f"its neighborhood; doubling would need more than {threshold} of them"
        )
    else:
        note = (
            f"per period class, at most {sum(per_item)} of {k}^{level} "
            f"words can import coins; the {classes} period classes scale both sides"
        )
    return ParadoxReport(
        kind, hs, level, block_factor, per_item, aggregate, threshold,
        aggregate <= threshold, note, period_divisor, classes,
    )


def theorem1_report(
    hs: Sequence[Transformation],
    level: int,
    block_factor: int = MIN_BLOCK_FACTOR,
) -> ParadoxReport:
    """Bound coin imports by state activity at one level.

    per_item[i] counts the words of the given length leaving h_i in a
    nontrivial state; only those words can carry a coin across a block
    boundary, and a block of block_factor * |X|^level consecutive words
    exposes each prefix exactly block_factor times.
    """
    return _report(NS, hs, level, block_factor)


def find_minimal_level(
    hs: Sequence[Transformation],
    block_factor: int = MIN_BLOCK_FACTOR,
    max_level: int = 64,
) -> int | None:
    """Smallest level at which the activity bound is satisfied, scanning up.

    The bound block_factor * sum <= block_factor * |X|^level / 4 holds
    exactly when 4 * sum <= |X|^level, so the answer does not depend on the
    (checked) block factor.
    """
    hs = tuple(hs)
    k = _common_alphabet(hs).size
    _check_block_factor(block_factor)
    if max_level < 0:
        raise ArgumentError("max_level must be >= 0")
    iters = [iter_ns_counts(h) for h in hs]
    for level, counts in enumerate(itertools.islice(zip(*iters), max_level + 1)):
        if 4 * sum(counts) <= k**level:
            return level
    return None


def theorem2_report(
    hs: Sequence[Transformation],
    level: int,
    period_divisor: int,
    block_factor: int = MIN_BLOCK_FACTOR,
) -> ParadoxReport:
    """Bound coin imports into the periodic-tail population at one level.

    per_item[i] counts the words that keep h_i clear of every unconditional
    cycle.  The period block count multiplies the imports and the population
    alike, so the exact comparison divides it out; it is recorded in the
    report for reference.  ``period_divisor`` must be a positive multiple of
    every cycle length any h_i can reach within ``level`` steps.
    """
    return _report(NC, hs, level, block_factor, period_divisor)


@dataclass(frozen=True)
class CoinAudit:
    """Replay of a candidate doubling scheme at one level.

    Every word starts with one coin and sends it through the transformation
    of its block; ``coin_counts`` is the resulting tally and ``deficit``
    lists the words left with fewer than two coins, in lexicographic order.
    """

    level: int
    assignments: Mapping[Word, int]
    transformations: tuple[Transformation, ...]
    coin_counts: Mapping[Word, int]
    deficit: tuple[Word, ...]

    @property
    def doubling(self) -> bool:
        return not self.deficit

    @property
    def total_coins(self) -> int:
        return sum(self.coin_counts.values())


def coin_audit(
    level: int,
    parts: Sequence[Iterable[Word]],
    hs: Sequence[Transformation],
) -> CoinAudit:
    """Move one coin per word according to a partition and tally the result.

    ``parts[i]`` lists the words whose coin travels through ``hs[i]``; the
    parts must partition all words of the given length exactly.
    """
    hs = tuple(hs)
    alphabet = _common_alphabet(hs)
    if len(parts) != len(hs):
        raise ArgumentError("need exactly one word block per transformation")
    if level < 0:
        raise ArgumentError("level must be >= 0")
    assignments: dict[Word, int] = {}
    for i, part in enumerate(parts):
        for word in part:
            w = alphabet.check_word(word)
            if len(w) != level:
                raise ArgumentError(f"word {w} does not have length {level}")
            if w in assignments:
                raise PartitionOverlapError(
                    f"word {alphabet.text(w)!r} is assigned to blocks "
                    f"{assignments[w] + 1} and {i + 1}"
                )
            assignments[w] = i
    universe = list(itertools.product(range(alphabet.size), repeat=level))
    if len(assignments) != len(universe):
        missing = next(w for w in universe if w not in assignments)
        raise PartitionNotTotalError(
            f"word {alphabet.text(missing)!r} is not assigned to any block"
        )
    counts: dict[Word, int] = {w: 0 for w in universe}
    for w, i in assignments.items():
        counts[hs[i].apply(w)] += 1
    deficit = tuple(w for w in universe if counts[w] < 2)
    return CoinAudit(level, assignments, hs, counts, deficit)
