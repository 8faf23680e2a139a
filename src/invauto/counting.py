"""Exact per-level counts of state behavior, and growth classification.

For a transformation g, ``count_ns`` tallies the words of each length that
leave the machine in a state still acting nontrivially, and ``count_nc`` the
words whose state path never touches an unconditional cycle.  Both are path
counts over the transition graph, computed by one frontier sweep per level
with Python's arbitrary-precision integers: each level visits only the
states that hold mass, along their precomputed alive successors; a target's
first arrival takes its source's count as it is, and each source's count is
released once pushed.  Each level's count is carried forward from the
previous one: the most common out-degree d times it, corrected by the mass
that the push itself gathers in one accumulator slot per other out-degree,
with no pass over the frontier.  One component pass per automaton
object, kept on it from first use, serves trivial states, cores, cycles and
growth classes; ``find_ucs``, the NC dead set and the reachable cycle
lengths all read the cycles kept from it.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import filterfalse
from typing import TYPE_CHECKING, Iterator

from .core import (
    Automaton,
    Transformation,
    Word,
    _check_int,
    _components,
    _exact_str,
    _kept,
    _record,
    _unchecked,
    greatest_closed_subset,
    trivial_states,
)
from .errors import ArgumentError

if TYPE_CHECKING:  # imported where used: fractions loads decimal
    from fractions import Fraction

NS = "ns"
NC = "nc"

_RATE_STEPS = 10_000
_RATE_TOLERANCE_BITS = 40
_VECTOR_BITS = 60
# the counts a table stages as bytes while its sweep runs: wider than 64 bits,
# and narrow enough that pymalloc serves the int from its pools (blocks of
# up to 512 bytes, which sys.getsizeof of an int gives in full)
_STAGED_ABOVE = (1 << 64) - 1
_STAGED_BELOW = 1 << (
    (512 - sys.getsizeof(1)) // sys.int_info.sizeof_digit + 1
) * sys.int_info.bits_per_digit
_MARK_BYTES = 10  # after a staged count's bytes: level << 16 | its byte length


@_record
class UnconditionalCycle:
    """States whose transitions ignore the input letter, closed in a cycle."""

    states: tuple[str, ...]

    def __post_init__(self):
        if not self.states or len(set(self.states)) != len(self.states):
            raise ArgumentError("cycle states must be nonempty and pairwise distinct")

    @property
    def length(self) -> int:
        return len(self.states)


@_record
class CountTable:
    """Counts indexed by level 0..max_level for one transformation.

    A table built here is checked entry by entry (the record rule's ints, a
    level-0 count of 0 or 1, each count at most k**level); :func:`count_ns`
    and :func:`count_nc` build theirs from the sweep, without the checks."""

    transformation: Transformation
    kind: str
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in (NS, NC):
            raise ArgumentError(f"kind must be {NS!r} or {NC!r}")
        if not self.counts or self.counts[0] not in (0, 1):
            raise ArgumentError("level-0 count must be 0 or 1")
        k = self.transformation.alphabet.size
        bound = 1  # k**level
        for level, c in enumerate(self.counts):
            if not 0 <= c <= bound:  # not named: its digits may pass the int-to-str limit
                fault = "is negative" if c < 0 else f"exceeds {k}^{level}"
                raise ArgumentError(f"count at level {level} {fault}")
            bound *= k

    @property
    def max_level(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, level: int) -> int:
        """The count at ``level``; IndexError above max_level, which ends
        iteration.  Slice ``counts`` for a range of levels."""
        if level.__class__ is not int or level < 0:  # no call on the int path
            _check_int(level, "level", 0)
        return self.counts[level]


@_record
class GrowthReport:
    """Growth class of the per-level activity counts.

    For exponential growth, ``rate_bounds`` is a certified interval
    ``(lo, hi)`` of rationals around the growth base (the spectral radius of
    the active part's letter-count matrix), and ``rate`` is its float view:
    the float nearest the interval's midpoint.
    """

    category: str
    degree: int | None = None
    rate: float | None = None
    rate_bounds: tuple[Fraction, Fraction] | None = None

    def __post_init__(self):
        if self.category not in ("bounded", "polynomial", "exponential"):
            raise ArgumentError(f"bad growth category {self.category!r}")
        if (self.degree is not None) != (self.category == "polynomial"):
            raise ArgumentError("degree is present exactly for polynomial growth")
        if (self.rate is not None) != (self.category == "exponential"):
            raise ArgumentError("rate is present exactly for exponential growth")
        if self.degree is not None and self.degree < 1:
            raise ArgumentError("polynomial degree must be >= 1")
        if self.rate_bounds is not None:
            if self.category != "exponential":
                raise ArgumentError("rate bounds are present only for exponential growth")
            lo, hi = self.rate_bounds
            if lo > hi:
                raise ArgumentError(f"rate bounds {_exact_str(lo)} > {_exact_str(hi)}")


@_record
class MembershipDecision:
    """Outcome of an exact smallness decision, with evidence.

    When ``member`` is False, ``witness`` is a shortest word leading into
    ``core``, a set of states the machine can never leave; every extension of
    the witness then stays out of the small set, forcing full growth.
    """

    member: bool
    witness: Word | None
    core: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.member


def _search_ucs(automaton: Automaton) -> tuple[tuple[UnconditionalCycle, ...], dict[int, int]]:
    """The search behind :func:`find_ucs`: the cycles, and cycle state index ->
    cycle length.  An unconditional cycle is a kept component (``_components``)
    in which every state's row has one distinct target, inside the component."""
    components, comp_of = _components(automaton)
    trans = automaton.transitions
    found = []
    for ci, comp in enumerate(components):
        if all(len(set(trans[q])) == 1 and comp_of[trans[q][0]] == ci for q in comp):
            cycle = [min(comp)]  # rotated to start at the lowest index
            while len(cycle) < len(comp):
                cycle.append(trans[cycle[-1]][0])
            found.append(cycle)
    found.sort()  # by lowest index, which each cycle now starts with
    cycles = tuple(UnconditionalCycle(tuple(automaton.states[i] for i in c)) for c in found)
    return cycles, {q: len(c) for c in found for q in c}


def find_ucs(automaton: Automaton) -> tuple[UnconditionalCycle, ...]:
    """All maximal unconditional cycles, each starting at its lowest state
    index, ordered by that index.

    A trivial sink state shows up as a cycle of length 1.  The cycles are
    read off the kept component pass (:func:`_search_ucs`) once per
    automaton object, on first use (never at construction), and the result
    is kept on the object (:func:`~invauto.core._kept`).
    """
    return _kept(automaton, "_ucs", _search_ucs)[0]


def uc_state_lengths(automaton: Automaton) -> dict[int, int]:
    """State index -> length of the unconditional cycle it belongs to, from
    the search :func:`find_ucs` keeps (shared: read it, do not change it)."""
    if not hasattr(automaton, "_ucs"):
        find_ucs(automaton)  # a first search goes through the public name, so wrappers see it
    return automaton._ucs[1]


def _dead(automaton: Automaton, kind: str) -> frozenset[int]:
    """The states a path counted by ``kind`` must stay out of: the trivial
    states for NS, the unconditional-cycle states for NC."""
    if kind == NS:
        return trivial_states(automaton)
    return frozenset(uc_state_lengths(automaton))


def _iter_survivor_counts(g: Transformation, dead: frozenset[int]) -> Iterator[int]:
    """Per-level counts of words whose state path stays out of ``dead``.

    ``dead`` is closed under transitions for both kinds (trivial states only
    lead to trivial states; cycle states only cycle), so dropping mass on
    entry is exact: a path ends outside ``dead`` iff it never entered it.
    Each level visits only the frontier, the states holding nonzero mass,
    and pushes each one's mass along its alive successors.  Every mass is a
    positive int, so a zero entry means "not reached yet": a target's first
    arrival takes its source's int as it is (ints are immutable, so sharing
    it is unobservable), and only later arrivals add.  Each source entry is
    set back to zero once pushed, so the vector drops its reference at once
    and, all zeros again after the push, receives the level after next.

    The total is carried forward, not summed: each alive edge carries its
    source's mass, so with deg(q) the letters leading from q into alive
    states and d the most common deg among them, the next total is
    d * total + sum((e - d) * slot(e)) over the alive degrees e other than
    d, where slot(e) is the level's mass on the states of degree e.  Each
    such degree has one accumulator slot after the state vector, and each
    of its alive states one extra successor, the slot, so the push itself
    gathers the slots: at most k of them are read per level, and no pass
    over the frontier sums them.  A slot has no successors; like any entry
    it joins the next frontier on its first arrival and is zeroed when that
    level pushes it.
    """
    automaton = g.automaton
    n = automaton.n_states
    succ = [tuple(filterfalse(dead.__contains__, row)) for row in automaton.transitions]
    deg = list(map(len, succ))
    tally = Counter(deg[q] for q in range(n) if q not in dead)
    d = max(tally, key=tally.__getitem__, default=0)  # first seen on ties
    slot = {e: n + i for i, e in enumerate(e for e in tally if e != d)}
    for q in range(n):
        if deg[q] != d and q not in dead:
            succ[q] += (slot[deg[q]],)
    succ += [()] * len(slot)
    weights = [(e - d, s) for e, s in slot.items()]
    vec = [0] * len(succ)
    nxt = [0] * len(succ)
    frontier = []
    total = 0
    if g.start not in dead:
        vec[g.start] = 1
        frontier.append(g.start)
        total = 1
    # the level rule in one comparison: past this, _check_length raises
    horizon = g._horizon
    last = sys.maxsize - 1 if horizon is None else min(horizon, sys.maxsize - 1)
    level = 0
    while True:
        yield total
        level += 1
        if level > last:
            g._check_length(level)
        reached = []
        for q in frontier:
            c = vec[q]
            vec[q] = 0  # released as soon as it is pushed
            for t in succ[q]:
                s = nxt[t]
                if s:
                    nxt[t] = s + c
                else:  # first arrival: the source's int itself, no 0 + c copy
                    nxt[t] = c
                    reached.append(t)
        # every pushed entry was released, so the old vector is all zeros
        vec, nxt, frontier = nxt, vec, reached
        total *= d
        for w, s in weights:
            total += w * vec[s]


def iter_ns_counts(g: Transformation) -> Iterator[int]:
    """Yields NS(g, 0), NS(g, 1), ... lazily."""
    return _iter_survivor_counts(g, _dead(g.automaton, NS))


def iter_nc_counts(g: Transformation) -> Iterator[int]:
    """Yields NC(g, 0), NC(g, 1), ... lazily."""
    return _iter_survivor_counts(g, _dead(g.automaton, NC))


def _iter_counts(g: Transformation, kind: str) -> Iterator[int]:
    # through the public names, so wrappers installed on them see every sweep
    return iter_ns_counts(g) if kind == NS else iter_nc_counts(g)


def _count(g: Transformation, max_level: int, kind: str) -> CountTable:
    """The table behind :func:`count_ns` and :func:`count_nc`.

    A staged count (``_STAGED_ABOVE < count < _STAGED_BELOW``) kept as an
    int would be allocated among the sweep's short-lived vector ints of
    nearly its size, and hold a pymalloc pool of their size class that
    could otherwise be freed; in the buffer, each count's bytes are followed
    by a mark of its level and length.  The buffer is read back from its
    end, so it shrinks in place as it empties.  The sweep's oracles test
    every count, so the table skips the entry checks (``_unchecked``)."""
    g._check_length(max_level)
    # allocated before the sweep, so a table too large to hold fails at once
    counts = [0] * (max_level + 1)
    staged = bytearray()
    for level, count in zip(range(max_level + 1), _iter_counts(g, kind)):
        if _STAGED_ABOVE < count < _STAGED_BELOW:
            size = (count.bit_length() + 7) >> 3
            staged += count.to_bytes(size, "little")
            staged += (level << 16 | size).to_bytes(_MARK_BYTES, "little")
        else:
            counts[level] = count
    while staged:
        end = len(staged) - _MARK_BYTES
        mark = int.from_bytes(staged[end:], "little")
        start = end - (mark & 0xFFFF)
        counts[mark >> 16] = int.from_bytes(staged[start:end], "little")
        del staged[start:]
    return _unchecked(CountTable, (g, kind, tuple(counts)))


def count_ns(g: Transformation, max_level: int) -> CountTable:
    """Words of each length l <= max_level ending in a nontrivial state.

    The table of max_level + 1 counts is allocated before the sweep starts,
    so a max_level whose table cannot be held raises ``MemoryError`` at
    once, not after the sweep has filled the memory.  While the sweep runs,
    each count wider than 64 bits whose int pymalloc would serve from its
    small-object pools (up to 3,660 bits on 64-bit CPython) is kept as
    bytes in one buffer, apart from the sweep's short-lived ints, and the
    buffer is made ints in one batch when the sweep ends; narrower and
    wider counts are kept as they come."""
    return _count(g, max_level, NS)


def count_nc(g: Transformation, max_level: int) -> CountTable:
    """Words of each length l <= max_level avoiding all unconditional cycles;
    the table is allocated before the sweep and keeps its counts as in
    :func:`count_ns`, so one that cannot be held fails at once."""
    return _count(g, max_level, NC)


def _survivor_words(g: Transformation, level: int, kind: str) -> list[Word]:
    g._check_length(level)
    dead = _dead(g.automaton, kind)
    trans = g.automaton.transitions
    # surviving prefixes with the state each reaches, in lexicographic order:
    # extending them in order, letters ascending, keeps that order
    runs = [] if g.start in dead else [((), g.start)]
    for _ in range(level):
        runs = [
            (word + (x,), t)
            for word, q in runs
            for x, t in enumerate(trans[q])
            if t not in dead
        ]
    return [word for word, _ in runs]


def ns_words(g: Transformation, level: int) -> list[Word]:
    """The actual words counted by NS at one level, in lexicographic order.

    Lists only the surviving words; the list itself can be |X|^level long,
    so this is meant for small levels (the counts themselves come from
    :func:`count_ns`, which never lists words).
    """
    return _survivor_words(g, level, NS)


def nc_words(g: Transformation, level: int) -> list[Word]:
    """The actual words counted by NC at one level, in lexicographic order;
    lists only the surviving words, so small levels only."""
    return _survivor_words(g, level, NC)


def _reach(
    g: Transformation, depth: int = sys.maxsize
) -> dict[int, tuple[int, int | None, int | None]]:
    """Breadth-first tree of the states reachable from g's start within
    ``depth`` steps (all of them by default), letters in ascending order:
    state -> (depth, parent, letter), in discovery order.

    Following parents back from a state spells the shortest word reaching
    it, and among the shortest the lexicographically first.
    """
    trans = g.automaton.transitions
    tree = {g.start: (0, None, None)}
    order = [g.start]
    for q in order:
        step = tree[q][0] + 1
        if step > depth:  # discovery order is by depth: the rest are as deep
            break
        for x, t in enumerate(trans[q]):
            if t not in tree:
                tree[t] = (step, q, x)
                order.append(t)
    return tree


def reachable_uc_lengths(g: Transformation, level: int) -> tuple[int, ...]:
    """Lengths of the unconditional cycles g can enter within ``level`` steps;
    the search walks no deeper than ``level``."""
    g._check_length(level)
    lengths = uc_state_lengths(g.automaton)
    return tuple(sorted({lengths[q] for q in _reach(g, level) if q in lengths}))


def max_uc_length(g: Transformation, level: int) -> int:
    """Largest unconditional cycle reachable within ``level`` steps (0 if none)."""
    return max(reachable_uc_lengths(g, level), default=0)


def _rate_bounds(rows: list[list[int]]) -> tuple[Fraction, Fraction]:
    """Certified interval around the spectral radius of one strongly
    connected block; ``rows[i]`` lists the in-block successors of local
    state i, once per letter.

    Collatz-Wielandt: for B = A + I and any positive vector v,
    min (Bv)_i / v_i <= rho(B) <= max (Bv)_i / v_i.  Iterating v <- Bv
    narrows the bracket (the shift by I makes B primitive, so periodic
    blocks converge too).  Since any positive v gives a valid bracket, v is
    cut back after each step so that its smallest entry keeps about 60
    bits: rounding then never limits the width, and the integers stay
    word-sized unless the Perron vector itself is spread out.  Ratios are
    compared by cross-multiplication; the bracket kept is the intersection
    of all brackets seen.
    """
    v = [1] * len(rows)
    # lo_n / lo_d <= rho(B) <= hi_n / hi_d, from 0 <= rho(A) <= max row sum
    lo_n, lo_d = 1, 1
    hi_n, hi_d = max(map(len, rows)) + 1, 1
    for _ in range(_RATE_STEPS):
        w = [vi + sum(map(v.__getitem__, row)) for vi, row in zip(v, rows)]
        ln, ld = hn, hd = w[0], v[0]
        for wi, vi in zip(w, v):
            if wi * ld < ln * vi:
                ln, ld = wi, vi
            elif wi * hd > hn * vi:
                hn, hd = wi, vi
        if ln * lo_d > lo_n * ld:
            lo_n, lo_d = ln, ld
        if hn * hi_d < hi_n * hd:
            hi_n, hi_d = hn, hd
        # width <= 2^-40 of the lower bound on rho(A) = rho(B) - 1
        if (hi_n * lo_d - lo_n * hi_d) << _RATE_TOLERANCE_BITS <= (lo_n - lo_d) * hi_d:
            break
        shift = min(w).bit_length() - _VECTOR_BITS
        v = [x >> shift for x in w] if shift > 0 else w
    from fractions import Fraction

    return Fraction(lo_n - lo_d, lo_d), Fraction(hi_n - hi_d, hi_d)


def classify_growth(g: Transformation) -> GrowthReport:
    """Growth class of NS(g, l) from the cycle structure of the active part.

    Exponential iff some state lies on two distinct directed cycles (an
    strongly connected piece carrying more edges, counted with letter
    multiplicity, than states); the growth base is then the largest spectral
    radius of such a piece, reported as a certified interval.  Otherwise the
    count grows like l^d where d+1 is the largest number of cycles met along
    one directed path, and d = 0 is reported as bounded.  A depth-bounded
    materialization is refused: its clamped end says nothing of the family.
    """
    automaton = g.automaton
    automaton._require_full("exact growth classification")
    dead = trivial_states(automaton)
    if g.start in dead:
        return GrowthReport("bounded")
    # trivial states lead only to trivial states, so each component is
    # wholly trivial or wholly not, and a trivial one meets no cycle below
    components, comp_of = _components(automaton)
    trans = automaton.transitions
    bounds = []
    met = [0] * len(components)  # most cyclic components on a path from each component
    for ci in sorted({comp_of[q] for q in _reach(g) if q not in dead}):
        comp = components[ci]
        intra = below = 0
        for q in comp:
            for t in trans[q]:
                cj = comp_of[t]
                if cj == ci:
                    intra += 1
                elif met[cj] > below:
                    below = met[cj]
        if intra > len(comp):
            local = {q: i for i, q in enumerate(comp)}
            bounds.append(_rate_bounds(
                [[local[t] for t in trans[q] if t in local] for q in comp]
            ))
        met[ci] = (intra >= 1) + below
    if bounds:
        lo = max(b[0] for b in bounds)
        hi = max(b[1] for b in bounds)
        return GrowthReport("exponential", rate=float((lo + hi) / 2), rate_bounds=(lo, hi))
    if met[comp_of[g.start]] <= 1:
        return GrowthReport("bounded")
    return GrowthReport("polynomial", degree=met[comp_of[g.start]] - 1)


def _decide_small(g: Transformation, kind: str) -> MembershipDecision:
    g.automaton._require_full("exact membership")
    # the escape-proof core: no word leads out of it, so reaching it pins
    # the count to full growth
    dead = _dead(g.automaton, kind)
    core = greatest_closed_subset(
        g.automaton, {q for q in range(g.automaton.n_states) if q not in dead}
    )
    names = tuple(g.automaton.states[q] for q in sorted(core))
    tree = _reach(g)
    # the first core state found is reached by the shortest word into the
    # core, and among the shortest by the lexicographically first
    q = next((t for t in tree if t in core), None)
    if q is None:
        return MembershipDecision(True, None, names)
    letters = []
    while q != g.start:
        _, q, x = tree[q]
        letters.append(x)
    return MembershipDecision(False, tuple(reversed(letters)), names)


def decide_g0(g: Transformation) -> MembershipDecision:
    """Exact test that NS(g, l) is negligible against |X|^l.

    False, with a witness word w of length m, means every extension of w
    ends in the escape-proof nontrivial core, so NS(g, l) >= |X|^(l-m); True
    means the core is unreachable and the growth base stays below |X|.
    """
    return _decide_small(g, NS)


def decide_g1(g: Transformation) -> MembershipDecision:
    """Exact test that NC(g, l) is negligible against |X|^l.

    Same pruning as :func:`decide_g0` with "trivial" replaced by "member of
    an unconditional cycle".
    """
    return _decide_small(g, NC)
