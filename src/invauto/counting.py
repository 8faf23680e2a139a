"""Exact per-level counts of state behavior, and growth classification.

For a transformation g, ``count_ns`` tallies the words of each length that
leave the machine in a state still acting nontrivially, and ``count_nc`` the
words whose state path never touches an unconditional cycle.  Both are path
counts over the transition graph, computed by one dynamic-programming sweep
per level with Python's arbitrary-precision integers.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import Automaton, Transformation, Word, greatest_closed_subset, trivial_states
from .errors import ArgumentError, NotMaterializableError

NS = "ns"
NC = "nc"

_RATE_STEPS = 10_000
_RATE_TOLERANCE_BITS = 40
_VECTOR_BITS = 60


@dataclass(frozen=True)
class UnconditionalCycle:
    """States whose transitions ignore the input letter, closed in a cycle."""

    states: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if not self.states or len(set(self.states)) != len(self.states):
            raise ArgumentError("cycle states must be nonempty and pairwise distinct")

    @property
    def length(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class CountTable:
    """Counts indexed by level 0..max_level for one transformation."""

    transformation: Transformation
    kind: str
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in (NS, NC):
            raise ArgumentError(f"kind must be {NS!r} or {NC!r}")
        object.__setattr__(self, "counts", tuple(self.counts))
        if not self.counts or self.counts[0] not in (0, 1):
            raise ArgumentError("level-0 count must be 0 or 1")
        k = self.transformation.alphabet.size
        for level, c in enumerate(self.counts):
            if not 0 <= c <= k**level:
                raise ArgumentError(f"count {c} at level {level} exceeds {k}^{level}")

    @property
    def max_level(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, level: int) -> int:
        return self.counts[level]


@dataclass(frozen=True)
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
                raise ArgumentError(f"rate bounds {lo} > {hi}")


@dataclass(frozen=True)
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


def _unconditional_successor(automaton: Automaton, q: int) -> int | None:
    row = automaton.transitions[q]
    return row[0] if all(t == row[0] for t in row) else None


def find_ucs(automaton: Automaton) -> tuple[UnconditionalCycle, ...]:
    """All maximal unconditional cycles.

    Restricting to states with input-independent successors gives a partial
    functional graph; its cycles are exactly the unconditional cycles.  A
    trivial sink state shows up as a cycle of length 1.
    """
    n = automaton.n_states
    sigma = [_unconditional_successor(automaton, q) for q in range(n)]
    cycles = []
    state_flag = [0] * n  # 0 unvisited, 1 on current walk, 2 done
    for q0 in range(n):
        if state_flag[q0] or sigma[q0] is None:
            continue
        walk, pos = [], {}
        q = q0
        while q is not None and state_flag[q] == 0 and sigma[q] is not None:
            state_flag[q] = 1
            pos[q] = len(walk)
            walk.append(q)
            q = sigma[q]
        if q is not None and state_flag[q] == 1:
            cycle = walk[pos[q]:]
            low = cycle.index(min(cycle))
            cycle = cycle[low:] + cycle[:low]
            cycles.append(UnconditionalCycle(tuple(automaton.states[i] for i in cycle)))
        for i in walk:
            state_flag[i] = 2
    cycles.sort(key=lambda c: automaton.state_index(c.states[0]))
    return tuple(cycles)


def uc_state_lengths(automaton: Automaton) -> dict[int, int]:
    """State index -> length of the unconditional cycle it belongs to."""
    lengths: dict[int, int] = {}
    for cycle in find_ucs(automaton):
        for name in cycle.states:
            lengths[automaton.state_index(name)] = cycle.length
    return lengths


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
    """
    automaton = g.automaton
    horizon = automaton.horizon(g.state)
    n, k = automaton.n_states, automaton.alphabet.size
    trans = automaton.transitions
    alive = [q for q in range(n) if q not in dead]
    vec = [0] * n
    if g.start not in dead:
        vec[g.start] = 1
    level = 0
    while True:
        yield sum(vec[q] for q in alive)
        level += 1
        if horizon is not None and level > horizon:
            raise NotMaterializableError(
                f"level {level} exceeds the materialized horizon {horizon} "
                f"of state {g.state!r}"
            )
        nxt = [0] * n
        for q in alive:
            c = vec[q]
            if not c:
                continue
            row = trans[q]
            for x in range(k):
                t = row[x]
                if t not in dead:
                    nxt[t] += c
        vec = nxt


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
    if max_level < 0:
        raise ArgumentError("max_level must be >= 0")
    return CountTable(g, kind, tuple(itertools.islice(_iter_counts(g, kind), max_level + 1)))


def count_ns(g: Transformation, max_level: int) -> CountTable:
    """Words of each length l <= max_level ending in a nontrivial state."""
    return _count(g, max_level, NS)


def count_nc(g: Transformation, max_level: int) -> CountTable:
    """Words of each length l <= max_level avoiding all unconditional cycles."""
    return _count(g, max_level, NC)


def _survivor_words(g: Transformation, level: int, kind: str) -> list[Word]:
    g._check_length(level)
    dead = _dead(g.automaton, kind)
    k = g.alphabet.size
    trans = g.automaton.transitions
    words = []
    for word in itertools.product(range(k), repeat=level):
        q = g.start
        if q in dead:
            continue
        for x in word:
            q = trans[q][x]
            if q in dead:
                break
        else:
            words.append(word)
    return words


def ns_words(g: Transformation, level: int) -> list[Word]:
    """The actual words counted by NS at one level.

    Enumerates all |X|^level words; meant for small levels only (the counts
    themselves come from :func:`count_ns`, which never enumerates).
    """
    return _survivor_words(g, level, NS)


def nc_words(g: Transformation, level: int) -> list[Word]:
    """The actual words counted by NC at one level; small levels only."""
    return _survivor_words(g, level, NC)


def _states_within(g: Transformation, steps: int) -> set[int]:
    """States reachable from g's start within at most ``steps`` letters."""
    automaton = g.automaton
    k = automaton.alphabet.size
    seen = {g.start}
    frontier = [g.start]
    for _ in range(steps):
        nxt = []
        for q in frontier:
            for x in range(k):
                t = automaton.transitions[q][x]
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        if not nxt:
            break
        frontier = nxt
    return seen


def reachable_uc_lengths(g: Transformation, level: int) -> tuple[int, ...]:
    """Lengths of the unconditional cycles g can enter within ``level`` steps."""
    lengths = uc_state_lengths(g.automaton)
    hit = {lengths[q] for q in _states_within(g, level) if q in lengths}
    return tuple(sorted(hit))


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
    return Fraction(lo_n - lo_d, lo_d), Fraction(hi_n - hi_d, hi_d)


def _activity_graph(g: Transformation) -> dict[int, list[int]]:
    """Nontrivial states reachable from g, each with its nontrivial
    successors listed once per letter leading there (letter multiplicity)."""
    automaton = g.automaton
    dead = trivial_states(automaton)
    if g.start in dead:
        return {}
    succ: dict[int, list[int]] = {}
    stack = [g.start]
    while stack:
        q = stack.pop()
        if q in succ:
            continue
        succ[q] = [t for t in automaton.transitions[q] if t not in dead]
        stack.extend(t for t in succ[q] if t not in succ)
    return succ


def _strong_components(succ: dict[int, list[int]], root: int) -> list[list[int]]:
    """Tarjan's strongly connected components of the graph reachable from
    ``root``, in reverse topological order: each component comes after every
    component it has an edge into.  Iterative, so path length is not bounded
    by the recursion limit.
    """
    index = {root: 0}
    low = {root: 0}
    stack = [root]
    on_stack = {root}
    components = []
    work = [(root, iter(succ[root]))]
    while work:
        q, targets = work[-1]
        for t in targets:
            if t not in index:
                index[t] = low[t] = len(index)
                stack.append(t)
                on_stack.add(t)
                work.append((t, iter(succ[t])))
                break
            if t in on_stack and index[t] < low[q]:
                low[q] = index[t]
        else:
            work.pop()
            if work:
                parent = work[-1][0]
                if low[q] < low[parent]:
                    low[parent] = low[q]
            if low[q] == index[q]:
                component = []
                while True:
                    t = stack.pop()
                    on_stack.discard(t)
                    component.append(t)
                    if t == q:
                        break
                components.append(component)
    return components


def classify_growth(g: Transformation) -> GrowthReport:
    """Growth class of NS(g, l) from the cycle structure of the active part.

    Exponential iff some state lies on two distinct directed cycles (an
    strongly connected piece carrying more edges, counted with letter
    multiplicity, than states); the growth base is then the largest spectral
    radius of such a piece, reported as a certified interval.  Otherwise the
    count grows like l^d where d+1 is the largest number of cycles met along
    one directed path, and d = 0 is reported as bounded.
    """
    succ = _activity_graph(g)
    if not succ:
        return GrowthReport("bounded")
    components = _strong_components(succ, g.start)
    comp_of = {q: ci for ci, comp in enumerate(components) for q in comp}
    bounds = []
    met: list[int] = []  # most cyclic components on a path from each component
    for ci, comp in enumerate(components):
        intra = 0
        below = 0
        for q in comp:
            for t in succ[q]:
                cj = comp_of[t]
                if cj == ci:
                    intra += 1
                elif met[cj] > below:
                    below = met[cj]
        if intra > len(comp):
            local = {q: i for i, q in enumerate(comp)}
            bounds.append(_rate_bounds(
                [[local[t] for t in succ[q] if t in local] for q in comp]
            ))
        met.append((intra >= 1) + below)
    if bounds:
        lo = max(b[0] for b in bounds)
        hi = max(b[1] for b in bounds)
        return GrowthReport("exponential", rate=float((lo + hi) / 2), rate_bounds=(lo, hi))
    if met[-1] <= 1:  # the start's component is the last one found
        return GrowthReport("bounded")
    return GrowthReport("polynomial", degree=met[-1] - 1)


def _shortest_word_to(g: Transformation, targets: frozenset[int]) -> Word | None:
    automaton = g.automaton
    k = automaton.alphabet.size
    if g.start in targets:
        return ()
    parent: dict[int, tuple[int, int]] = {}
    seen = {g.start}
    queue = deque([g.start])
    while queue:
        q = queue.popleft()
        for x in range(k):
            t = automaton.transitions[q][x]
            if t in seen:
                continue
            parent[t] = (q, x)
            if t in targets:
                letters = []
                while t != g.start:
                    t, x = parent[t]
                    letters.append(x)
                return tuple(reversed(letters))
            seen.add(t)
            queue.append(t)
    return None


def _decide_small(g: Transformation, kind: str) -> MembershipDecision:
    if g.automaton.policy is not None:
        raise NotMaterializableError(
            "exact membership needs the full automaton; this one is a "
            "depth-bounded materialization (diagnose empirically from the "
            "count tables instead)"
        )
    # the escape-proof core: no word leads out of it, so reaching it pins
    # the count to full growth
    dead = _dead(g.automaton, kind)
    core = greatest_closed_subset(
        g.automaton, {q for q in range(g.automaton.n_states) if q not in dead}
    )
    witness = _shortest_word_to(g, core) if core else None
    names = tuple(g.automaton.states[q] for q in sorted(core))
    if witness is None:
        return MembershipDecision(True, None, names)
    return MembershipDecision(False, witness, names)


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
