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
from itertools import chain, compress, repeat
from operator import add, index, itemgetter, mul
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

from .core import (
    Alphabet,
    Automaton,
    Transformation,
    Word,
    _check_int,
    _check_level,
    _exact_str,
    _record,
    _unchecked,
)
from .counting import NC, NS, _iter_counts, iter_ns_counts, reachable_uc_lengths
from .errors import (
    AlphabetMismatchError,
    ArgumentError,
    BlockFactorTooSmallError,
    LetterOutOfRangeError,
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
    _check_int(block_factor, "block factor")
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
    parts must partition all words of the given length exactly.  A valid
    partition is accepted by one comparison: k**level words listed, as many
    distinct, all letters ints, and every word of the level among them.
    Anything else is read word by word (:func:`_raise_first_fault`), which
    raises for the first bad word.  Then each distinct transformation with at
    least one word maps the whole word tree once (:func:`_tally`).
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
    k = alphabet.size
    assignments = _listed(parts, k, level)
    try:  # every word of the level is a key; the same pass reads its block
        owner = list(map(assignments.__getitem__, itertools.product(range(k), repeat=level)))
    except KeyError:  # stops at the first word no block lists: refused
        owner = None
    if owner is None:
        _raise_first_fault(alphabet, level, parts)
    tally = _tally(level, owner, hs)
    counts = dict(zip(
        itertools.product(range(k), repeat=level),
        map(tally.get, range(len(owner)), repeat(0)),
    ))
    deficit = tuple(compress(counts, map((2).__gt__, counts.values())))
    # built from checked parts, so the record rule's pass over every deficit word is skipped
    return _unchecked(CoinAudit, (level, assignments, hs, counts, deficit))


def _sums_to_int(rows: Iterable[tuple[int, ...]]) -> bool:
    """Whether the entries of ``rows`` sum to an int, in one C-level pass: a
    float, Fraction or other number among them makes the sum one of those,
    and a str raises TypeError.  A bool is an int, and passes."""
    try:
        return type(sum(chain.from_iterable(rows))) is int
    except TypeError:
        return False


def _listed(parts: list[list], k: int, level: int) -> dict[Word, int]:
    """The word -> block map of ``parts``, built block by block at C level,
    when its counts fit a partition of the level's words: k**level words
    listed, as many distinct, every letter an int.  Empty when they do not,
    or when a word is not a hashable sequence."""
    assignments: dict[Word, int] = {}
    try:
        for i, part in enumerate(parts):
            assignments.update(zip(map(tuple, part), repeat(i)))
    except TypeError:
        return {}
    listed = sum(map(len, parts))
    # k**level > listed once level passes listed's bit length; not computed then
    if (
        listed == len(assignments)
        and level <= listed.bit_length()
        and listed == k**level
        and _sums_to_int(assignments)
    ):
        return assignments
    return {}


def _raise_first_fault(alphabet: Alphabet, level: int, parts: list[list]) -> NoReturn:
    """Raise for the first fault of a partition that :func:`_listed` refused:
    with each block's words checked in block and list order, the first word
    that is malformed (a letter not an int included), of another length or
    listed before raises; then the first word of the level no block lists."""
    k = alphabet.size
    assignments: dict[Word, int] = {}
    for i, part in enumerate(parts):
        for word in part:
            w = alphabet.check_word(word)
            for x in w:  # only an int or a bool hashes, compares and sums as its index
                if type(x) is not int and type(x) is not bool:
                    raise LetterOutOfRangeError(  # by its index: a repr may hold an address
                        f"letter index {index(x)} is of type {type(x).__name__!r}, not int"
                    )
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
    # a word of the level is missing: the comparison accepts every partition of
    # distinct words of the level with int letters, and these passed every check
    missing = next(w for w in itertools.product(range(k), repeat=level) if w not in assignments)
    raise PartitionNotTotalError(f"word {alphabet.text(missing)!r} is not assigned to any block")


def _tally(level: int, owner: list[int], hs: tuple[Transformation, ...]) -> Counter[int]:
    """Coins per image rank after each word's coin moved through its block's
    transformation; ``owner`` gives the block of every word of the level,
    by the word's rank.

    Each distinct transformation with at least one word maps the whole
    word tree once (:func:`_image_ranks`, shared by the transformations of
    one machine), about k**level steps of C-level list work; a
    transformation whose blocks are all empty is not mapped.
    """
    machines: dict[Automaton, list[Transformation]] = {}
    for h in dict.fromkeys(hs[i] for i in sorted(set(owner))):
        machines.setdefault(h.automaton, []).append(h)
    tally: Counter[int] = Counter()  # image rank -> coins
    for automaton, group in machines.items():
        images = _image_ranks(automaton, [h.start for h in group], level)
        for h, ranks in zip(group, images):
            ids = {i for i, g in enumerate(hs) if g == h}
            tally.update(compress(ranks, map(ids.__contains__, owner)))
    return tally


def _image_ranks(automaton: Automaton, starts: list[int], level: int) -> Iterator[list[int]]:
    """For each start state in turn, the lexicographic rank of its image of
    every word of length ``level``, by the word's rank.

    A word is split into a prefix of level - d letters and a suffix of d.
    Its image's rank is the prefix image's rank times k**d plus the rank of
    the suffix's image from the state the prefix leads to, and those
    suffix ranks are computed once per state reached (:func:`_walk`).  The
    table of them grows with d and the prefix trees shrink; d is taken
    about where they are equal, so the cost is about k**level steps per
    start, and less when few states are reached.
    """
    k = automaton.alphabet.size
    d = 0
    while d < level and automaton.n_states * k ** (2 * d) < len(starts) * k**level:
        d += 1
    prefixes = [_walk(automaton, [start], level - d) for start in starts]
    reached = list(dict.fromkeys(chain.from_iterable(states for _, states in prefixes)))
    suffixes, _ = _walk(automaton, reached, d)
    width = k**d
    table = {q: suffixes[i * width:(i + 1) * width] for i, q in enumerate(reached)}
    for ranks, states in prefixes:
        shifted = chain.from_iterable(map(repeat, map(mul, ranks, repeat(width)), repeat(width)))
        yield list(map(add, shifted, chain.from_iterable(map(table.__getitem__, states))))


def _walk(automaton: Automaton, starts: list[int], depth: int) -> tuple[list[int], list[int]]:
    """Down the word tree from each start, one level at a time: the rank of
    the image of every word of length ``depth`` and the state it ends in,
    start by start and then by the word's rank.  The image of u + x is the
    image of u followed by the letter the state after u writes for x."""
    trans, out = automaton.transitions, automaton.outputs
    k = automaton.alphabet.size
    letters = [itemgetter(x) for x in range(k)]
    ranks, states = [0] * len(starts), list(starts)
    for _ in range(depth):
        shifted = list(map(mul, ranks, repeat(k)))
        rows = list(map(out.__getitem__, states))
        ranks = [0] * (len(shifted) * k)
        for x, letter in enumerate(letters):  # the children u + x are every k-th
            ranks[x::k] = map(add, shifted, map(letter, rows))
        states = list(chain.from_iterable(map(trans.__getitem__, states)))
    return ranks, states
