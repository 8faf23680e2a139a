"""Reference computations the benchmark checks results against.

None of these calls the library's counting, classification or algebra
code: they read the public tables (``states``, ``transitions``,
``outputs``, ``alphabet``) and recompute each answer in the plainest way
that is still fast enough to run once per benchmark run.
"""

from __future__ import annotations

import math
from collections import deque


def run_word(automaton, start: int, word):
    """Outputs and final state of the machine started at index ``start``."""
    trans, out = automaton.transitions, automaton.outputs
    q = start
    result = []
    for x in word:
        result.append(out[q][x])
        q = trans[q][x]
    return tuple(result), q


def trivial_states(automaton) -> set[int]:
    """States acting as the identity: drop every state that moves a letter,
    then, backwards along the edges, every state that can reach one."""
    n, k = automaton.n_states, automaton.alphabet.size
    identity = tuple(range(k))
    preds = [[] for _ in range(n)]
    for q in range(n):
        for t in automaton.transitions[q]:
            preds[t].append(q)
    bad = [automaton.outputs[q] != identity for q in range(n)]
    queue = deque(q for q in range(n) if bad[q])
    while queue:
        t = queue.popleft()
        for q in preds[t]:
            if not bad[q]:
                bad[q] = True
                queue.append(q)
    return {q for q in range(n) if not bad[q]}


def uc_lengths(automaton) -> dict[int, int]:
    """State index -> length of the unconditional cycle through it."""
    n = automaton.n_states
    succ = [
        row[0] if all(t == row[0] for t in row) else None
        for row in automaton.transitions
    ]
    lengths = {}
    colour = [0] * n
    for q0 in range(n):
        walk = []
        q = q0
        while q is not None and colour[q] == 0:
            colour[q] = 1
            walk.append(q)
            q = succ[q]
        if q is not None and colour[q] == 1:
            cycle = walk[walk.index(q):]
            for s in cycle:
                lengths[s] = len(cycle)
        for s in walk:
            colour[s] = 2
    return lengths


def survivor_counts(automaton, start: int, dead, levels: int) -> list[int]:
    """Plain dense sweep: per level, the number of words whose state path
    never enters ``dead`` (which is closed under transitions)."""
    n = automaton.n_states
    trans = automaton.transitions
    vec = [0] * n
    if start not in dead:
        vec[start] = 1
    counts = [sum(vec)]
    for _ in range(levels):
        nxt = [0] * n
        for q in range(n):
            c = vec[q]
            if c:
                for t in trans[q]:
                    if t not in dead:
                        nxt[t] += c
        vec = nxt
        counts.append(sum(vec))
    return counts


def ns_counts(automaton, start, levels):
    return survivor_counts(automaton, start, trivial_states(automaton), levels)


def nc_counts(automaton, start, levels):
    return survivor_counts(automaton, start, set(uc_lengths(automaton)), levels)


def escape_proof_core(automaton, excluded) -> set[int]:
    """Largest set outside ``excluded`` that no transition leaves, found by
    removing, backwards along the edges, every state that can escape."""
    n = automaton.n_states
    preds = [[] for _ in range(n)]
    for q in range(n):
        for t in automaton.transitions[q]:
            preds[t].append(q)
    out = [q in excluded for q in range(n)]
    queue = deque(q for q in range(n) if out[q])
    while queue:
        t = queue.popleft()
        for q in preds[t]:
            if not out[q]:
                out[q] = True
                queue.append(q)
    return {q for q in range(n) if not out[q]}


def distance_to(automaton, start: int, targets) -> int | None:
    """Length of a shortest word leading from ``start`` into ``targets``."""
    if start in targets:
        return 0
    dist = {start: 0}
    queue = deque([start])
    while queue:
        q = queue.popleft()
        for t in automaton.transitions[q]:
            if t not in dist:
                dist[t] = dist[q] + 1
                if t in targets:
                    return dist[t]
                queue.append(t)
    return None


def active_reachable(automaton, start: int) -> int:
    """Nontrivial states reachable from ``start`` without passing a trivial one."""
    dead = trivial_states(automaton)
    if start in dead:
        return 0
    seen = {start}
    stack = [start]
    while stack:
        q = stack.pop()
        for t in automaton.transitions[q]:
            if t not in dead and t not in seen:
                seen.add(t)
                stack.append(t)
    return len(seen)


def reached_cycle(automaton, start: int, word, lengths) -> int | None:
    """Length of the first unconditional cycle met along ``word`` (start included)."""
    q = start
    if q in lengths:
        return lengths[q]
    for x in word:
        q = automaton.transitions[q][x]
        if q in lengths:
            return lengths[q]
    return None


def has_period_from(letters, begin: int, period: int) -> bool:
    return all(letters[i] == letters[i + period] for i in range(begin, len(letters) - period))


def lemma2_tallies(automaton, start, level, divisor, samples):
    """(checked, skipped, failed) for a period-class closure batch.

    A sample that enters a cycle of length c within ``level`` letters has
    a periodic image from ``level`` on, with period dividing lcm(t, c) for
    t its input period; so checking ``divisor`` as a period over a window
    of lcm(t, c) + divisor letters decides it.
    """
    lengths = uc_lengths(automaton)
    checked = skipped = failed = 0
    for prefix, period in samples:
        first = (prefix + period * (level // len(period) + 1))[:level]
        c = reached_cycle(automaton, start, first, lengths)
        if c is None:
            skipped += 1
            continue
        window = level + math.lcm(len(period), c) + divisor
        reps = (window - len(prefix)) // len(period) + 1
        image, _ = run_word(automaton, start, (prefix + period * reps)[:window])
        if has_period_from(image, level, divisor):
            checked += 1
        else:
            failed += 1
    return checked, skipped, failed


def named_table(automaton):
    """Transition table keyed by names, for order-insensitive comparison."""
    sym = automaton.alphabet.symbols
    return {
        automaton.states[q]: {
            sym[x]: (automaton.states[automaton.transitions[q][x]], sym[automaton.outputs[q][x]])
            for x in range(len(sym))
        }
        for q in range(automaton.n_states)
    }
