"""Corpus machines and independent oracles shared across the test suite.

The oracles deliberately avoid the library's counting code paths: counts are
obtained by enumerating the word tree, triviality by checking output rows
along reachability, and the adding machine against plain binary arithmetic.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter, deque
from pathlib import Path

import invauto as iv
from invauto.core import inverse_name, pair_name
from invauto.errors import (
    AlphabetMismatchError,
    MissingTransitionError,
    NonBijectiveOutputError,
    UnknownStateError,
    ValidationError,
)


# ---------------------------------------------------------------- corpus

def adding():
    return iv.generate_builtin("adding")


def flip_all():
    return iv.generate_builtin("flip_all")


def flip_alternator():
    return iv.generate_builtin("flip_alternator")


def remark_chain(depth):
    return iv.generate_builtin("remark_chain", depth=depth)


def without_policy(automaton):
    """The same table with no materialization policy: a finite machine in its
    own right, answering at every length."""
    return iv.Automaton(automaton.alphabet, automaton.states, automaton.transitions, automaton.outputs)


def uv_core():
    """Two states with input-dependent transitions, both flipping; no UCs."""
    return iv.Automaton.from_table(
        ("0", "1"),
        {
            "u": {"0": ("u", "1"), "1": ("v", "0")},
            "v": {"0": ("u", "1"), "1": ("v", "0")},
        },
    )


def poly_chain():
    """Two flip states feeding a sink; activity grows linearly in the level."""
    return iv.Automaton.from_table(
        ("0", "1"),
        {
            "c2": {"0": ("c2", "1"), "1": ("c1", "0")},
            "c1": {"0": ("c1", "1"), "1": ("e", "0")},
            "e": {"0": ("e", "0"), "1": ("e", "1")},
        },
    )


def binary_corpus():
    """Transformations over {0,1} used throughout the suite."""
    return [
        adding().at("q"),
        adding().at("e"),
        flip_all().at("r"),
        flip_alternator().at("a"),
        flip_alternator().at("b"),
        uv_core().at("u"),
        poly_chain().at("c2"),
        iv.identity_automaton(2).at("e"),
    ]


def full_corpus(remark_depth=9):
    return binary_corpus() + [remark_chain(remark_depth).at("q_1")]


# ---------------------------------------------------------------- word helpers

def all_words(k, length):
    return itertools.product(range(k), repeat=length)


def add_one(word):
    """(w + 1) mod 2^len under lowest-digit-first binary encoding."""
    bits = list(word)
    carry = 1
    for i, b in enumerate(bits):
        total = b + carry
        bits[i] = total % 2
        carry = total // 2
    return tuple(bits)


def subtract_one(word):
    """(w - 1) mod 2^len under lowest-digit-first binary encoding."""
    bits = list(word)
    borrow = 1
    for i, b in enumerate(bits):
        total = b - borrow
        bits[i] = total % 2
        borrow = 1 if total < 0 else 0
    return tuple(bits)


# ---------------------------------------------------------------- oracles

def decimal_value(text):
    """The int a decimal string of any length spells, read 1000 digits at a
    time so no single conversion meets the interpreter's digit limit."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def generated_repr(obj):
    """The repr ``@dataclass`` generates for the record ``obj``: every field,
    as ``name=repr(value)``."""
    shown = ", ".join(f"{name}={getattr(obj, name)!r}" for name in obj._fields)
    return f"{type(obj).__qualname__}({shown})"


def dataclass_twin(record_class):
    """What ``@dataclass(frozen=True)`` makes of a record class: a frozen
    dataclass with its name, the fields its annotations declare and the
    defaults its class attributes hold, the reference for records' behaviour."""
    spec = [
        (name, object, dataclasses.field(default=record_class.__dict__[name]))
        if name in record_class.__dict__ else (name, object)
        for name in record_class.__annotations__
    ]
    return dataclasses.make_dataclass(record_class.__qualname__, spec, frozen=True)


def oracle_trivial_states(automaton):
    """A state acts as the identity iff every reachable state copies letters."""
    k = automaton.alphabet.size
    identity = tuple(range(k))
    trivial = set()
    for q in range(automaton.n_states):
        seen = {q}
        stack = [q]
        ok = True
        while stack and ok:
            s = stack.pop()
            if automaton.outputs[s] != identity:
                ok = False
                break
            for x in range(k):
                t = automaton.transitions[s][x]
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if ok:
            trivial.add(q)
    return trivial


def oracle_uc_lengths(automaton):
    """State -> cycle length, by walking input-independent successors."""
    n = automaton.n_states
    lengths = {}
    for q in range(n):
        s = q
        for steps in range(1, n + 1):
            row = automaton.transitions[s]
            if any(t != row[0] for t in row):
                break
            s = row[0]
            if s == q:
                lengths[q] = steps
                break
    return lengths


def oracle_cycle_reached(g, w, level):
    """Length of the first unconditional cycle entered within ``level`` steps
    of w, by walking the whole state path; None if the path enters none."""
    lengths = oracle_uc_lengths(g.automaton)
    for q in g.path(w.first(level)):
        if q in lengths:
            return lengths[q]
    return None


def brute_counts(g, max_level):
    """Per-level (ns, nc) by enumerating the word tree, no dynamic programming."""
    automaton = g.automaton
    k = automaton.alphabet.size
    nontrivial = [
        q not in oracle_trivial_states(automaton) for q in range(automaton.n_states)
    ]
    uc = oracle_uc_lengths(automaton)
    ns = [0] * (max_level + 1)
    nc = [0] * (max_level + 1)
    stack = [(g.start, 0, g.start in uc)]
    while stack:
        state, depth, hit = stack.pop()
        if nontrivial[state]:
            ns[depth] += 1
        if not hit:
            nc[depth] += 1
        if depth < max_level:
            for x in range(k):
                t = automaton.transitions[state][x]
                stack.append((t, depth + 1, hit or t in uc))
    return ns, nc


def oracle_dead(automaton, kind):
    """The states a path counted by ``kind`` must avoid, from the oracles."""
    if kind == "ns":
        return oracle_trivial_states(automaton)
    return set(oracle_uc_lengths(automaton))


def dense_counts(g, kind, max_level):
    """Per-level counts of ``kind`` ("ns" or "nc") for levels 0..max_level by
    the dense sweep: every alive state at every level, each edge tested
    against the dead set, with the dead set taken from the oracles above."""
    automaton = g.automaton
    n, k = automaton.n_states, automaton.alphabet.size
    trans = automaton.transitions
    dead = oracle_dead(automaton, kind)
    alive = [q for q in range(n) if q not in dead]
    vec = [0] * n
    if g.start not in dead:
        vec[g.start] = 1
    counts = []
    for _ in range(max_level + 1):
        counts.append(sum(vec[q] for q in alive))
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
    return counts


def oracle_survivor_counts(g, dead):
    """Yields the per-level counts of words whose state path stays out of
    ``dead`` by the frontier sweep the library used before first arrivals
    took their source's count: each level's next vector starts from zeros
    and every edge adds its source's mass to it, and the total is carried
    forward with the correction summed over the frontier alone."""
    automaton = g.automaton
    n = automaton.n_states
    succ = [[t for t in row if t not in dead] for row in automaton.transitions]
    deg = [len(targets) for targets in succ]
    tally = Counter(deg[q] for q in range(n) if q not in dead)
    d = max(tally, key=tally.__getitem__, default=0)  # first seen on ties
    vec = [0] * n
    frontier = []
    total = 0
    if g.start not in dead:
        vec[g.start] = 1
        frontier.append(g.start)
        total = 1
    level = 0
    while True:
        yield total
        total = d * total + sum([(deg[q] - d) * vec[q] for q in frontier if deg[q] != d])
        level += 1
        g._check_length(level)
        nxt = [0] * n
        reached = []
        for q in frontier:
            c = vec[q]
            for t in succ[q]:
                if not nxt[t]:
                    reached.append(t)
                nxt[t] += c
        vec, frontier = nxt, reached


def oracle_survivor_words(g, kind, level):
    """The words of length ``level`` counted by ``kind``, in lexicographic
    order: every word of that length, kept when its run never enters the
    oracle dead set."""
    trans = g.automaton.transitions
    dead = oracle_dead(g.automaton, kind)
    words = []
    for word in all_words(g.alphabet.size, level):
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


def _reachable(succ, q):
    seen = {q}
    stack = [q]
    while stack:
        for t in succ[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def oracle_core(automaton, dead):
    """States from which no word reaches the set ``dead``."""
    succ = dict(enumerate(automaton.transitions))
    return {q for q in succ if not _reachable(succ, q) & dead}


def oracle_closed_subset(automaton, candidates):
    """Largest subset of ``candidates`` that every transition stays inside,
    by the round loop ``greatest_closed_subset`` once ran: drop the states
    with a transition leaving the set, round by round, until none escapes."""
    candidates = set(candidates)
    while True:
        stable = {
            q for q in candidates
            if all(t in candidates for t in automaton.transitions[q])
        }
        if stable == candidates:
            return frozenset(stable)
        candidates = stable


def oracle_first_word_into(g, targets):
    """The first word, by length and then lexicographically, whose run from
    g's start ends in the set ``targets``; None if no word does."""
    trans = g.automaton.transitions
    if not _reachable(dict(enumerate(trans)), g.start) & targets:
        return None
    for length in itertools.count():
        for word in all_words(g.alphabet.size, length):
            q = g.start
            for x in word:
                q = trans[q][x]
            if q in targets:
                return word


def oracle_reached(g, level):
    """States reached from g's start by some word of length <= level: those
    on the runs of all words of length ``level``, by enumeration."""
    trans = g.automaton.transitions
    reached = {g.start}
    for word in all_words(g.alphabet.size, level):
        q = g.start
        for x in word:
            q = trans[q][x]
            reached.add(q)
    return reached


def oracle_sccs(succ):
    """Strongly connected components of ``{node: successors}``, by mutual
    reachability: t is in q's component iff each reaches the other."""
    reach = {q: _reachable(succ, q) for q in succ}
    components = []
    placed = set()
    for q in succ:
        if q not in placed:
            component = frozenset(t for t in reach[q] if q in reach[t])
            components.append(component)
            placed |= component
    return components


def oracle_power_rate(matrix):
    """Float power-iteration estimate of the growth base of a dense matrix:
    the identity-shifted iteration the classifier used before exact
    bracketing.  It stops once the estimate's relative change has stayed
    within 1e-12 for 20 steps in a row, or after 10 000 steps: one small
    change can be a plateau, where the iterate lingers near a vector that is
    not yet the Perron vector."""
    n = len(matrix)
    shifted = [[a + (i == j) for j, a in enumerate(row)] for i, row in enumerate(matrix)]
    v = [1.0 / n] * n
    estimate = 0.0
    calm = 0
    for _ in range(10_000):
        w = [sum(a * x for a, x in zip(row, v)) for row in shifted]
        total = sum(w)
        if total == 0.0:
            return 0.0
        calm = calm + 1 if abs(total - estimate) <= 1e-12 * total else 0
        estimate = total
        if calm == 20:
            break
        v = [x / total for x in w]
    return estimate - 1.0


def oracle_growth(g):
    """(category, degree, rate) of NS(g, l) by the reference algorithm:
    components by mutual reachability over the active states, the longest
    chain of cyclic components by memoised recursion, and the float power
    iteration over the whole active matrix for the exponential rate."""
    automaton = g.automaton
    trivial = oracle_trivial_states(automaton)
    if g.start in trivial:
        return "bounded", None, None
    succ = {}
    stack = [g.start]
    while stack:
        q = stack.pop()
        if q not in succ:
            succ[q] = [t for t in automaton.transitions[q] if t not in trivial]
            stack.extend(succ[q])
    components = oracle_sccs(succ)
    comp_of = {q: c for c in components for q in c}
    intra = {c: sum(t in c for q in c for t in succ[q]) for c in components}
    if any(intra[c] > len(c) for c in components):
        nodes = sorted(succ)
        matrix = [[succ[q].count(t) for t in nodes] for q in nodes]
        return "exponential", None, oracle_power_rate(matrix)
    memo = {}

    def cycles_met(c):
        if c not in memo:
            below = {comp_of[t] for q in c for t in succ[q]} - {c}
            memo[c] = (intra[c] >= 1) + max(map(cycles_met, below), default=0)
        return memo[c]

    met = cycles_met(comp_of[g.start])
    if met <= 1:
        return "bounded", None, None
    return "polynomial", met - 1, None


# ---------------------------------------------------------------- table oracles

def oracle_compose(a, b, prune_from=None):
    """The product built pair by pair with a tuple-keyed index, as compose
    once did: the reference for its state order, tables and policy."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(
            f"cannot compose over alphabets {a.alphabet.symbols} and {b.alphabet.symbols}"
        )
    k = a.alphabet.size

    if prune_from is None:
        pairs = list(itertools.product(range(a.n_states), range(b.n_states)))
    else:
        start = (a.state_index(prune_from[0]), b.state_index(prune_from[1]))
        pairs = [start]
        seen = {start}
        queue = deque([start])
        while queue:
            qa, qb = queue.popleft()
            for x in range(k):
                nxt = (a.transitions[qa][x], b.transitions[qb][a.outputs[qa][x]])
                if nxt not in seen:
                    seen.add(nxt)
                    pairs.append(nxt)
                    queue.append(nxt)

    index = {p: i for i, p in enumerate(pairs)}
    names, transitions, outputs = [], [], []
    for qa, qb in pairs:
        names.append(pair_name(a.states[qa], b.states[qb]))
        trow, orow = [], []
        for x in range(k):
            y = a.outputs[qa][x]
            trow.append(index[(a.transitions[qa][x], b.transitions[qb][y])])
            orow.append(b.outputs[qb][y])
        transitions.append(tuple(trow))
        outputs.append(tuple(orow))

    policy = None
    if a.policy is not None or b.policy is not None:
        horizons = []
        for qa, qb in pairs:
            hs = [h for h in (a.horizon(a.states[qa]), b.horizon(b.states[qb])) if h is not None]
            if hs:
                horizons.append((pair_name(a.states[qa], b.states[qb]), min(hs)))
        depths = [p.depth for p in (a.policy, b.policy) if p is not None]
        fam_a = a.policy.family if a.policy else "finite"
        fam_b = b.policy.family if b.policy else "finite"
        policy = iv.MaterializationPolicy(f"{fam_a}*{fam_b}", min(depths), tuple(horizons))

    return iv.Automaton(a.alphabet, tuple(names), tuple(transitions), tuple(outputs), policy)


def oracle_invert(automaton):
    """The inverse built letter by letter, as invert once did: the reference
    for its state order, tables and policy."""
    k = automaton.alphabet.size
    transitions, outputs = [], []
    for q in range(automaton.n_states):
        trow = [0] * k
        orow = [0] * k
        for x in range(k):
            y = automaton.outputs[q][x]
            trow[y] = automaton.transitions[q][x]
            orow[y] = x
        transitions.append(tuple(trow))
        outputs.append(tuple(orow))
    policy = automaton.policy
    if policy is not None:
        horizons = tuple((inverse_name(s), h) for s, h in policy.horizons)
        policy = iv.MaterializationPolicy(policy.family, policy.depth, horizons)
    names = tuple(inverse_name(s) for s in automaton.states)
    return iv.Automaton(automaton.alphabet, names, tuple(transitions), tuple(outputs), policy)


def oracle_remark_chain(depth):
    """The remark_chain machine of ``depth`` >= 1 built from its name table,
    as generate_builtin once built it."""
    table = {}
    for i in range(1, depth + 1):
        down = "e" if i == 1 else f"q_{i - 1}"
        up = f"q_{i + 1}" if i < depth else f"q_{depth}"
        table[f"q_{i}"] = {"0": ("e", "1"), "1": (down, "0"), "2": (up, "2"), "3": (up, "3")}
    table["e"] = {x: ("e", x) for x in "0123"}
    policy = iv.MaterializationPolicy(
        "remark_chain", depth, tuple((f"q_{i}", depth - i + 1) for i in range(1, depth + 1))
    )
    return iv.Automaton.from_table(("0", "1", "2", "3"), table, policy)


def oracle_render_dsl(automaton, name=None):
    """DSL text written letter by letter, as render_dsl once wrote it, for a
    machine and name the DSL can carry (this writes, it does not check)."""
    lines = []
    if name:
        lines.append(f"# {name}")
    lines.append("alphabet: " + " ".join(automaton.alphabet.symbols))
    for q, state in enumerate(automaton.states):
        lines.append(f"state {state}:")
        for x, letter in enumerate(automaton.alphabet.symbols):
            nxt = automaton.states[automaton.transitions[q][x]]
            out = automaton.alphabet.symbols[automaton.outputs[q][x]]
            lines.append(f"  {letter} -> {nxt} | {out}")
    return "\n".join(lines) + "\n"


def _oracle_quote(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def oracle_render_dot(automaton, name="automaton"):
    """DOT text written letter by letter, as render_dot once wrote it."""
    quote = _oracle_quote
    lines = [f"digraph {quote(name)} {{", "  rankdir=LR;"]
    for state in automaton.states:
        lines.append(f"  {quote(state)} [shape=circle];")
    for q, state in enumerate(automaton.states):
        for x, letter in enumerate(automaton.alphabet.symbols):
            nxt = automaton.states[automaton.transitions[q][x]]
            out = automaton.alphabet.symbols[automaton.outputs[q][x]]
            lines.append(f"  {quote(state)} -> {quote(nxt)} [label={quote(f'{letter}|{out}')}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def oracle_json_doc(automaton, name=None, description=None):
    """The JSON document built letter by letter, as textio._json_doc once
    built it."""
    states = {
        state: {
            letter: [
                automaton.states[automaton.transitions[q][x]],
                automaton.alphabet.symbols[automaton.outputs[q][x]],
            ]
            for x, letter in enumerate(automaton.alphabet.symbols)
        }
        for q, state in enumerate(automaton.states)
    }
    doc = {"alphabet": list(automaton.alphabet.symbols), "states": states}
    if name is not None:
        doc["name"] = name
    if description is not None:
        doc["description"] = description
    return doc


def oracle_render_json(automaton, name=None, description=None):
    """JSON text as render_json once wrote it: json's own dump of the
    document, keys sorted and indented by 2, plus a newline."""
    return json.dumps(oracle_json_doc(automaton, name, description), sort_keys=True, indent=2) + "\n"


def oracle_validate(alphabet, states, transitions, outputs):
    """Raise what a malformed table must raise, checking state by state in
    order, as the constructor once did; return None for a valid table."""
    states = tuple(states)
    transitions = tuple(tuple(r) for r in transitions)
    outputs = tuple(tuple(r) for r in outputs)
    if not states:
        raise ValidationError("automaton needs at least one state")
    if len(set(states)) != len(states):
        raise ValidationError("state names must be distinct")
    n, k = len(states), alphabet.size
    if len(transitions) != n or len(outputs) != n:
        raise MissingTransitionError("transition and output tables must cover every state")
    identity = tuple(range(k))
    for q, name in enumerate(states):
        trow, orow = transitions[q], outputs[q]
        if len(trow) > k or len(orow) > k:
            raise ValidationError(f"state {name!r} has more rows than letters")
        if len(trow) < k or len(orow) < k:
            missing = min(len(trow), len(orow))
            raise MissingTransitionError(
                f"state {name!r} has no entry for letter "
                f"{alphabet.symbols[missing]!r}"
            )
        for t in trow:
            if not 0 <= t < n:
                raise UnknownStateError(f"state {name!r} has a dangling transition target")
        if tuple(sorted(orow)) != identity:
            raise NonBijectiveOutputError(
                f"output row of state {name!r} is not a permutation of the alphabet"
            )


# ---------------------------------------------------------------- generators

def identity_chain(n: int) -> iv.Automaton:
    """States c0..c{n-1} over {0,1} with identity output rows, each stepping
    to the next on every letter, into one state ``s`` that swaps the letters
    and loops: no state is trivial, and the round loop of
    :func:`oracle_closed_subset` needs a round per chain state."""
    names = [f"c{i}" for i in range(n)] + ["s"]
    transitions = tuple((i + 1, i + 1) for i in range(n)) + ((n, n),)
    outputs = ((0, 1),) * n + ((1, 0),)
    return iv.Automaton(iv.Alphabet(("0", "1")), tuple(names), transitions, outputs)


def random_automaton(rng: random.Random, n_states: int, k: int) -> iv.Automaton:
    """Uniformly random complete machine with permutation output rows."""
    names = [f"s{i}" for i in range(n_states)]
    symbols = [str(x) for x in range(k)]
    table = {}
    for name in names:
        perm = list(range(k))
        rng.shuffle(perm)
        table[name] = {
            symbols[x]: (names[rng.randrange(n_states)], symbols[perm[x]])
            for x in range(k)
        }
    return iv.Automaton.from_table(symbols, table)


def random_funnel(rng: random.Random, n_states: int, k: int) -> iv.Automaton:
    """Random machine whose nontrivial part is acyclic: all transitions move
    strictly toward the identity sink, so activity dies out within n steps."""
    names = [f"t{i}" for i in range(n_states)] + ["e"]
    symbols = [str(x) for x in range(k)]
    table = {}
    for i in range(n_states):
        perm = list(range(k))
        rng.shuffle(perm)
        table[names[i]] = {
            symbols[x]: (names[rng.randrange(i + 1, n_states + 1)], symbols[perm[x]])
            for x in range(k)
        }
    table["e"] = {s: ("e", s) for s in symbols}
    return iv.Automaton.from_table(symbols, table)


def random_constant_degree(rng: random.Random, n_states: int, k: int, d: int) -> iv.Automaton:
    """Random machine in which every state but the identity sink ``e`` acts
    nontrivially and sends exactly ``d`` letters to non-sink states, so every
    row of the activity matrix sums to d."""
    names = [f"c{i}" for i in range(n_states)] + ["e"]
    symbols = [str(x) for x in range(k)]
    table = {}
    for name in names[:-1]:
        perm = list(range(k))
        while perm == list(range(k)):
            rng.shuffle(perm)
        active = set(rng.sample(range(k), d))
        table[name] = {
            symbols[x]: (
                names[rng.randrange(n_states)] if x in active else "e",
                symbols[perm[x]],
            )
            for x in range(k)
        }
    table["e"] = {s: ("e", s) for s in symbols}
    return iv.Automaton.from_table(symbols, table)


def random_leaky(rng: random.Random, n_states: int, k: int) -> iv.Automaton:
    """Random machine of non-identity states plus the identity sink ``e``.
    Each letter leaks to ``e`` with one per-machine probability below 1/2,
    and about a third of the rows send every letter to one state, so
    escape-proof cores, witnesses of several lengths and unconditional
    cycles longer than 1 all occur."""
    names = [f"s{i}" for i in range(n_states)] + ["e"]
    symbols = [str(x) for x in range(k)]
    leak = rng.random() / 2
    table = {}
    for name in names[:-1]:
        perm = list(range(k))
        while perm == list(range(k)):
            rng.shuffle(perm)
        targets = ["e" if rng.random() < leak else rng.choice(names[:-1]) for _ in symbols]
        if rng.random() < 1 / 3:
            targets = [targets[0]] * k
        table[name] = {s: (t, symbols[p]) for s, t, p in zip(symbols, targets, perm)}
    table["e"] = {s: ("e", s) for s in symbols}
    return iv.Automaton.from_table(symbols, table)


def random_mixed_degree(rng: random.Random, n_states: int, k: int) -> iv.Automaton:
    """Random machine whose states send different numbers of letters to live
    states, for checking a sweep that treats the most common number apart.

    Each non-sink state gets one of two or three numbers from 0..k, dealt in
    turn so that they tie for most common when n_states is a multiple of how
    many there are; its other letters go to the identity sink ``e`` or into
    the unconditional cycle ``u0 -> u1 -> u0`` of non-identity states (dead
    for NC, alive for NS).  A third of the rows send all their live letters
    to one state; in the others a quarter of the live letters loop back to
    the state itself.  The sinks are states of the machine, so they are
    starts too."""
    names = [f"m{i}" for i in range(n_states)]
    symbols = [str(x) for x in range(k)]
    swap = {symbols[x]: symbols[(x + 1) % k] for x in range(k)}
    choices = rng.sample(range(k + 1), rng.randint(2, 3))
    degrees = [choices[i % len(choices)] for i in range(n_states)]
    rng.shuffle(degrees)
    table = {}
    for name, degree in zip(names, degrees):
        perm = list(range(k))
        while perm == list(range(k)):
            rng.shuffle(perm)
        live = set(rng.sample(range(k), degree))
        shared = rng.choice(names) if rng.random() < 1 / 3 else None
        targets = [
            (shared or (name if rng.random() < 1 / 4 else rng.choice(names)))
            if x in live else rng.choice(("e", "u0"))
            for x in range(k)
        ]
        table[name] = {s: (t, symbols[p]) for s, t, p in zip(symbols, targets, perm)}
    table["u0"] = {s: ("u1", swap[s]) for s in symbols}
    table["u1"] = {s: ("u0", swap[s]) for s in symbols}
    table["e"] = {s: ("e", s) for s in symbols}
    return iv.Automaton.from_table(symbols, table)


# what the renderers must escape or keep apart: quotes and backslashes for
# DOT and JSON, '%' for render_json's templates, '->' and '|' for the DSL
_ODD_PIECES = ('"', "\\", "%", "%s", "->", "|", "q")
# letters whose sorted order is not their index order
_ODD_LETTERS = ("10", "2", "0", '%"\\')


def random_odd_machine(rng: random.Random, n_states: int, k: int) -> iv.Automaton:
    """A random, leaky or funnel machine (``k`` <= 4 letters) renamed: each
    state name has two odd pieces around its number, and the letters are
    "10", "2", ... (all three formats can still carry every name)."""
    make = rng.choice([random_automaton, random_leaky, random_funnel])
    base = make(rng, n_states, k)
    names = tuple(
        f"{rng.choice(_ODD_PIECES)}{i}{rng.choice(_ODD_PIECES)}" for i in range(base.n_states)
    )
    return iv.Automaton(iv.Alphabet(_ODD_LETTERS[:k]), names, base.transitions, base.outputs)


def random_ep_word(rng: random.Random, k: int, max_prefix: int, max_period: int):
    prefix = tuple(rng.randrange(k) for _ in range(rng.randint(0, max_prefix)))
    period = tuple(rng.randrange(k) for _ in range(rng.randint(1, max_period)))
    return iv.EventuallyPeriodicWord(prefix, period)


# ---------------------------------------------------------------- comparisons

def named_table(automaton):
    """The transition table keyed by names, for order-insensitive comparison."""
    k = automaton.alphabet.size
    return {
        automaton.states[q]: {
            automaton.alphabet.symbols[x]: (
                automaton.states[automaton.transitions[q][x]],
                automaton.alphabet.symbols[automaton.outputs[q][x]],
            )
            for x in range(k)
        }
        for q in range(automaton.n_states)
    }


def isomorphic_under(a, b, rename):
    """True iff renaming a's states by ``rename`` gives exactly b's table."""
    if a.alphabet.symbols != b.alphabet.symbols:
        return False
    renamed = {
        rename(state): {
            letter: (rename(nxt), out) for letter, (nxt, out) in row.items()
        }
        for state, row in named_table(a).items()
    }
    return renamed == named_table(b)


# ---------------------------------------------------------------- subprocesses

def run_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """``python -W error ARGS`` in a fresh interpreter that finds this
    checkout's ``src`` first; ``kwargs`` go to ``subprocess.run``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-W", "error", *args], env=env, capture_output=True, timeout=60, **kwargs
    )
