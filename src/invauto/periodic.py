"""Eventually periodic infinite words and how automata act on them.

A word is stored as a finite prefix plus a primitive repeating block.  The
presentation level (the prefix length) is part of the value: the same
infinite word presented at a different level is a different value, and its
period is read starting right after the prefix, so rotations are distinct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import Transformation, Word
from .counting import reachable_uc_lengths, uc_state_lengths
from .errors import (
    ArgumentError,
    CycleBoundTooSmallError,
    NotMaterializableError,
    PeriodBoundInvalidError,
)


def primitive_root(word: Sequence[int]) -> Word:
    """Shortest block whose repetition produces ``word``."""
    w = tuple(word)
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w == w[:d] * (n // d):
            return w[:d]
    return w


@dataclass(frozen=True)
class EventuallyPeriodicWord:
    """prefix followed by period repeated forever; the period is primitive."""

    prefix: Word
    period: Word

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        if not self.period:
            raise ArgumentError("period must be nonempty")
        object.__setattr__(self, "period", primitive_root(self.period))

    @property
    def level(self) -> int:
        return len(self.prefix)

    def __getitem__(self, i: int) -> int:
        if i < 0:
            raise IndexError("infinite words have no negative positions")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def first(self, n: int) -> Word:
        return tuple(self[i] for i in range(n))

    def letters(self) -> Iterator[int]:
        yield from self.prefix
        while True:
            yield from self.period

    def tail_from(self, position: int) -> "EventuallyPeriodicWord":
        """The same infinite word starting at ``position``."""
        if position <= len(self.prefix):
            return EventuallyPeriodicWord(self.prefix[position:], self.period)
        shift = (position - len(self.prefix)) % len(self.period)
        return EventuallyPeriodicWord((), self.period[shift:] + self.period[:shift])


def apply_to_ep_word(g: Transformation, w: EventuallyPeriodicWord) -> EventuallyPeriodicWord:
    """Image of an eventually periodic word, computed exactly.

    After the prefix, the pair (state, position in period) evolves
    deterministically over finitely many values, so it eventually repeats;
    the outputs up to the first repeat become the image's prefix and the
    outputs over the repeat its period.  The result is presented at the
    input prefix length plus the detected transient.
    """
    automaton = g.automaton
    alphabet = automaton.alphabet
    alphabet.check_word(w.prefix)
    alphabet.check_word(w.period)
    horizon = automaton.horizon(g.state)
    trans, out = automaton.transitions, automaton.outputs

    def check(consumed: int) -> None:
        if horizon is not None and consumed > horizon:
            raise NotMaterializableError(
                f"needed {consumed} letters but state {g.state!r} is only "
                f"materialized for {horizon}"
            )

    q = g.start
    consumed = 0
    head = []
    for x in w.prefix:
        check(consumed + 1)
        head.append(out[q][x])
        q = trans[q][x]
        consumed += 1

    t = len(w.period)
    seen: dict[tuple[int, int], int] = {}
    tail = []
    i = 0
    while True:
        # On a depth-clamped machine only states strictly inside the horizon
        # are exact; the final in-horizon step still emits the right letter
        # but its target may be the clamp, so it cannot anchor a repeat.
        if horizon is not None and consumed > horizon - 1:
            raise NotMaterializableError(
                f"no repeat within the materialized horizon {horizon} of "
                f"state {g.state!r}"
            )
        key = (q, i % t)
        if key in seen:
            first = seen[key]
            break
        seen[key] = i
        x = w.period[i % t]
        tail.append(out[q][x])
        q = trans[q][x]
        consumed += 1
        i += 1
    return EventuallyPeriodicWord(tuple(head) + tuple(tail[:first]), tuple(tail[first:]))


def purely_periodic_period(w: EventuallyPeriodicWord) -> int | None:
    """Primitive period length if ``w`` is periodic from position 1, else None.

    The word is purely periodic exactly when its stored period already works
    from the very start; positions past the prefix repeat by construction,
    so only the prefix needs checking.
    """
    t = len(w.period)
    for i in range(len(w.prefix)):
        if w[i] != w[i + t]:
            return None
    return t


@dataclass(frozen=True)
class Lemma1Verdict:
    """Outcome of one period-divisibility check.

    ``applicable`` is False when the word never takes the machine into an
    unconditional cycle within the presentation level - a precondition
    failure, not a refutation.
    """

    applicable: bool
    holds: bool | None
    input_period: int
    cycle_length: int | None
    observed_period: int | None
    bound: int | None


def _cycle_reached(
    g: Transformation, w: EventuallyPeriodicWord, level: int, lengths: dict[int, int]
) -> int | None:
    """Length of the first unconditional cycle entered within ``level`` steps;
    ``lengths`` is ``uc_state_lengths`` of g's automaton."""
    for q in g.path(w.first(level)):
        if q in lengths:
            return lengths[q]
    return None


def check_lemma1(
    g: Transformation, w: EventuallyPeriodicWord, level: int
) -> Lemma1Verdict:
    """Check that the image's period length divides lcm(input period, cycle).

    The word must be presented at ``level`` and must drive g into an
    unconditional cycle within that many steps; the image, viewed at the
    same level, must then be periodic with period length dividing
    lcm(t, c) for t the input period and c the cycle length.
    """
    if w.level != level:
        raise ArgumentError(
            f"word is presented at level {w.level}, expected {level}"
        )
    t = len(w.period)
    c = _cycle_reached(g, w, level, uc_state_lengths(g.automaton))
    if c is None:
        return Lemma1Verdict(False, None, t, None, None, None)
    image = apply_to_ep_word(g, w)
    observed = purely_periodic_period(image.tail_from(level))
    bound = math.lcm(t, c)
    holds = observed is not None and bound % observed == 0
    return Lemma1Verdict(True, holds, t, c, observed, bound)


@dataclass(frozen=True)
class Lemma2Verdict:
    """Tallies for a batch closure check of images under one transformation."""

    checked: int
    skipped: int
    failed: int
    failures: tuple[EventuallyPeriodicWord, ...] = ()

    @property
    def ok(self) -> bool:
        return self.failed == 0


def check_lemma2(
    g: Transformation,
    level: int,
    cycle_bound: int,
    period_divisor: int,
    samples: Sequence[EventuallyPeriodicWord],
) -> Lemma2Verdict:
    """Check closure of the period class under g, sample by sample.

    Sample words must be presented at ``level`` with period length dividing
    ``period_divisor``.  Words whose first ``level`` letters never enter an
    unconditional cycle are skipped (they are exactly the cycle-avoiding
    words); each remaining word's image must again be periodic past the
    level with period length dividing ``period_divisor``.
    """
    if period_divisor < 1:
        raise ArgumentError("period divisor must be >= 1")
    reachable = reachable_uc_lengths(g, level)
    longest = max(reachable, default=0)
    if cycle_bound < longest:
        raise CycleBoundTooSmallError(
            f"cycle bound {cycle_bound} is below the reachable maximum {longest}"
        )
    for n in reachable:
        if period_divisor % n != 0:
            raise PeriodBoundInvalidError(
                f"period divisor {period_divisor} is not a multiple of the "
                f"reachable cycle length {n}"
            )
    lengths = uc_state_lengths(g.automaton)
    checked = skipped = failed = 0
    failures = []
    for w in samples:
        if w.level != level:
            raise ArgumentError(f"sample presented at level {w.level}, expected {level}")
        if period_divisor % len(w.period) != 0:
            raise ArgumentError(
                f"sample period length {len(w.period)} does not divide into "
                f"{period_divisor}"
            )
        if _cycle_reached(g, w, level, lengths) is None:
            skipped += 1
            continue
        image = apply_to_ep_word(g, w)
        observed = purely_periodic_period(image.tail_from(level))
        if observed is None or period_divisor % observed != 0:
            failed += 1
            failures.append(w)
        else:
            checked += 1
    return Lemma2Verdict(checked, skipped, failed, tuple(failures))


def count_periods(alphabet_size: int, period_divisor: int) -> int:
    """Number of primitive words whose length divides ``period_divisor``.

    Every word of length m is a power of exactly one primitive word, whose
    length divides m, so the count is alphabet_size ** period_divisor.
    """
    if alphabet_size < 1:
        raise ArgumentError("alphabet size must be >= 1")
    if period_divisor < 1:
        raise ArgumentError("period divisor must be >= 1")
    return alphabet_size**period_divisor
