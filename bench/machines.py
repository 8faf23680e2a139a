"""Seeded machine generators for the benchmark workloads.

Each generator returns a name-keyed table ``{state: {letter: (next, out)}}``
ready for ``Automaton.from_table``, so building and validating the table is
a separate, timed step.  The constructions fix the properties the checks
rely on (growth class, planted cycles, behavioural copies) by design, so the
expected answers come from the construction and not from the library.
"""

from __future__ import annotations

import random

SINK = "e"


def _symbols(k):
    return [str(x) for x in range(k)]


def _moving_perm(rng, k):
    """A random output permutation that is not the identity."""
    while True:
        perm = list(range(k))
        rng.shuffle(perm)
        if perm != list(range(k)):
            return perm


def _sink_row(symbols):
    return {s: (SINK, s) for s in symbols}


def _trivial(table):
    """Names of the states acting as the identity (greatest closed set of
    states with identity output rows)."""
    candidates = {q for q, row in table.items() if all(out == x for x, (_, out) in row.items())}
    while True:
        keep = {q for q in candidates if all(t in candidates for t, _ in table[q].values())}
        if keep == candidates:
            return keep
        candidates = keep


def constant_degree(rng: random.Random, n: int, k: int, active: int, prefix="s"):
    """Every state acts nontrivially and sends exactly ``active`` letters to
    other such states (the rest to the identity sink).

    Output rows are random permutations; states that would act as the
    identity get a moving row instead.  Every state then has the same number
    of active successors, so the activity growth base is exactly ``active``
    (a constant row sum is the spectral radius), and exponential for
    ``active >= 2``.
    """
    symbols = _symbols(k)
    names = [f"{prefix}{i}" for i in range(n)]
    table = {}
    for name in names:
        perm = list(range(k))
        rng.shuffle(perm)
        live = set(rng.sample(range(k), active))
        table[name] = {
            symbols[x]: (
                names[rng.randrange(n)] if x in live else SINK,
                symbols[perm[x]],
            )
            for x in range(k)
        }
    table[SINK] = _sink_row(symbols)
    for name in sorted(_trivial(table) - {SINK}):
        perm = _moving_perm(rng, k)
        table[name] = {s: (nxt, symbols[perm[x]]) for x, (s, (nxt, _)) in enumerate(table[name].items())}
    return table


def leaky(rng: random.Random, n: int, k: int, leak: float):
    """Random moving states; each sends one random letter to the sink with
    probability ``leak``, so counts spread over all states and grow at a
    seed-dependent base between 1 and ``k``."""
    symbols = _symbols(k)
    names = [f"s{i}" for i in range(n)]
    table = {}
    for name in names:
        perm = _moving_perm(rng, k)
        out_letter = rng.randrange(k) if rng.random() < leak else None
        table[name] = {
            symbols[x]: (
                SINK if x == out_letter else names[rng.randrange(n)],
                symbols[perm[x]],
            )
            for x in range(k)
        }
    table[SINK] = _sink_row(symbols)
    return table


def funnel(rng: random.Random, layers: int, width: int, k: int):
    """Layered machine: letter 0 loops on the state, every other letter moves
    to a random state of the next layer (the last layer to the sink).

    Every path from the first layer meets one self-loop per layer, so a
    first-layer state grows polynomially of degree ``layers - 1`` and a
    last-layer state is bounded.
    """
    symbols = _symbols(k)
    names = [[f"t{layer}_{i}" for i in range(width)] for layer in range(layers)]
    table = {}
    for layer in range(layers):
        for name in names[layer]:
            perm = _moving_perm(rng, k)
            row = {symbols[0]: (name, symbols[perm[0]])}
            for x in range(1, k):
                nxt = SINK if layer == layers - 1 else rng.choice(names[layer + 1])
                row[symbols[x]] = (nxt, symbols[perm[x]])
            table[name] = row
    table[SINK] = _sink_row(symbols)
    return table, names[0][0], names[-1][0]


def planted_cycles(rng: random.Random, n: int, trap: int, cycle_lengths, k: int = 2):
    """Random states plus planted unconditional cycles.

    The random states read two letters into two distinct targets, so they
    are never input-independent; the planted cycles are then exactly the
    machine's unconditional cycles.  States ``u0 .. u{trap-1}`` only lead
    to each other, an escape-proof region; each letter of the other random
    states leads into a planted cycle with probability 0.15 and into the
    trap with probability 0.03.
    Returns the table and the planted cycles as tuples of state names.
    """
    symbols = _symbols(k)
    names = [f"u{i}" for i in range(n)]
    cycles = []
    for c, length in enumerate(cycle_lengths):
        cycles.append(tuple(f"c{c}_{j}" for j in range(length)))
    cycle_states = [s for cyc in cycles for s in cyc]
    table = {}
    for i, name in enumerate(names):
        pool = names[:trap] if i < trap else names[trap:]
        perm = _moving_perm(rng, k)
        targets = []
        while len(targets) < k:
            r = rng.random() if i >= trap else 1.0
            if r < 0.15:
                t = rng.choice(cycle_states)
            elif r < 0.18:
                t = rng.choice(names[:trap])
            else:
                t = rng.choice(pool)
            if t not in targets:
                targets.append(t)
        table[name] = {symbols[x]: (targets[x], symbols[perm[x]]) for x in range(k)}
    for c, cyc in enumerate(cycles):
        # even-numbered cycles copy letters, so they are also trivial states
        perm = list(range(k)) if c % 2 == 0 else _moving_perm(rng, k)
        for j, name in enumerate(cyc):
            nxt = cyc[(j + 1) % len(cyc)]
            table[name] = {symbols[x]: (nxt, symbols[perm[x]]) for x in range(k)}
    return table, cycles


def copies(rng: random.Random, n0: int, c: int, k: int):
    """``c`` behavioural copies of each state of a random base machine with
    ``n0`` states: copy j of q has q's output row and moves to a random copy
    of q's successor, so it acts exactly like q.  The quotient has at most
    ``n0`` classes."""
    symbols = _symbols(k)
    base = [
        ([rng.randrange(n0) for _ in range(k)], rng.sample(range(k), k)) for _ in range(n0)
    ]
    table = {}
    for q in range(n0):
        targets, perm = base[q]
        for j in range(c):
            table[f"b{q}_{j}"] = {
                symbols[x]: (f"b{targets[x]}_{rng.randrange(c)}", symbols[perm[x]])
                for x in range(k)
            }
    return table


def leaky_cycle(m: int):
    """Deterministic four-letter cycle c1 .. cm: every letter moves to the
    next state, except that letter 3 at cm falls to the sink.  Its growth
    base is (3 * 4**(m-1)) ** (1/m), just below 4, so activity reports need
    a few hundred levels before four times the count drops under 4**l."""
    symbols = _symbols(4)
    names = [f"c{i}" for i in range(1, m + 1)]
    swap = {"0": "1", "1": "0", "2": "2", "3": "3"}
    table = {}
    for i, name in enumerate(names):
        nxt = names[(i + 1) % m]
        table[name] = {
            s: (SINK if (i == m - 1 and s == "3") else nxt, swap[s]) for s in symbols
        }
    table[SINK] = _sink_row(symbols)
    return table
