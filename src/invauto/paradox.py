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
from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import Transformation, Word, _check_level, _exact_str, _record
from .counting import NC, NS, _iter_counts, iter_ns_counts, reachable_uc_lengths
from .errors import (
    AlphabetMismatchError,
    ArgumentError,
    BlockFactorTooSmallError,
    PartitionNotTotalError,
    PartitionOverlapError,
)
from .periodic import _check_period_divisor, count_periods

MIN_BLOCK_FACTOR = 8


@_record
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
        _check_block_factor(self.block_factor)


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
    # equal items have equal counts: check and sweep each distinct one once,
    # in first-occurrence order, so the first failing item still raises first
    distinct = dict.fromkeys(hs)
    for h in distinct:
        h._check_length(level)
    classes = None
    if kind == NC:
        classes = count_periods(k, period_divisor)
        for h in distinct:
            _check_period_divisor(h, reachable_uc_lengths(h, level), period_divisor)
    # one level per distinct item: the lazy sweep stops there, no table is kept
    for h in distinct:
        distinct[h] = next(itertools.islice(_iter_counts(h, kind), level, None))
    per_item = tuple(distinct[h] for h in hs)
    aggregate = block_factor * sum(per_item)
    threshold = Fraction(block_factor * k**level, 4)
    if kind == NS:
        note = (
            f"at most {_exact_str(aggregate)} coins can enter a block of "
            f"{block_factor}*{k}^{level} consecutive words from outside its "
            f"neighborhood; doubling would need more than {_exact_str(threshold)} of them"
        )
    else:
        note = (
            f"per period class, at most {_exact_str(sum(per_item))} of {k}^{level} words "
            f"can import coins; the {k}^{period_divisor} period classes scale both sides"
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
    _check_level(max_level, "max_level")
    multiplicity = Counter(hs)  # first-occurrence order
    iters = [iter_ns_counts(h) for h in multiplicity]
    for level, counts in enumerate(itertools.islice(zip(*iters), max_level + 1)):
        if 4 * sum(m * c for m, c in zip(multiplicity.values(), counts)) <= k**level:
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


@_record
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
    _check_level(level)
    # refuse before any word is read: each block a word is sent through must
    # reach the level, checked in block order
    parts = [list(part) for part in parts]
    for h, part in zip(hs, parts):
        if part:
            h._check_length(level)
    assignments: dict[Word, int] = {}
    for i, part in enumerate(parts):
        for word in part:
            w = alphabet.check_word(word)
            if len(w) != level:
                raise ArgumentError(f"word {w} does not have length {level}")
            if w in assignments:
                j = assignments[w]
                raise PartitionOverlapError(
                    f"word {alphabet.text(w)!r} is listed twice in block {i + 1}"
                    if j == i
                    else f"word {alphabet.text(w)!r} is assigned to blocks {j + 1} and {i + 1}"
                )
            assignments[w] = i
    # the assigned words are distinct and of length ``level``, so the parts
    # are total exactly when there are k**level of them; only then list them
    words = itertools.product(range(alphabet.size), repeat=level)
    if len(assignments) != alphabet.size**level:
        missing = next(w for w in words if w not in assignments)
        raise PartitionNotTotalError(
            f"word {alphabet.text(missing)!r} is not assigned to any block"
        )
    counts = dict.fromkeys(words, 0)
    for w, i in assignments.items():
        counts[hs[i]._run(w)[0]] += 1
    deficit = tuple(w for w, n in counts.items() if n < 2)
    return CoinAudit(level, assignments, hs, counts, deficit)
