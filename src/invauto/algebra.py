"""Machines derived from machines: inverse, product and behavioral quotient.

Each is built from checked machines without the constructor's entry checks
(:func:`invauto.core._unchecked`), and a derived machine of depth-bounded
ones is exact only as far as the states it stands for are.  Only the calls
that invert, compose or minimize load this module.
"""

from __future__ import annotations

from operator import add, itemgetter
from typing import Iterable

from .core import (
    Automaton,
    MaterializationPolicy,
    Transformation,
    _kept,
    _name_index,
    _shown,
    _unchecked,
)
from .errors import AlphabetMismatchError, ArgumentError


def inverse_name(name: str) -> str:
    return name + "^-1"


def pair_name(a: str, b: str) -> str:
    return f"({a},{b})"


def _derived_policy(
    family: str, depth: int, stands_for: Iterable[tuple[str, Iterable[int | None]]]
) -> MaterializationPolicy:
    """Policy of a machine derived from depth-bounded ones.

    ``stands_for`` pairs each derived state name with the horizons of the
    states it stands for (None: unbounded).  The derived state is exact only
    as far as all of them are, so its horizon is the least of theirs.
    """
    least = (
        (name, min((h for h in hs if h is not None), default=None)) for name, hs in stands_for
    )
    return MaterializationPolicy(family, depth, tuple((s, h) for s, h in least if h is not None))


def invert(automaton: Automaton) -> Automaton:
    """Swap every edge's input and output letters; rename states q -> q^-1.

    Because each output row is a permutation the swapped rows are total, and
    the machine started at q^-1 undoes the original machine started at q.
    The inverse is built from the checked input without the constructor's
    entry checks (:func:`_unchecked`).  Its names are distinct,
    since the input's are and q -> q^-1 is injective.
    """
    letters = range(automaton.alphabet.size)
    # one inverse per distinct output row, shared by every state with that
    # row: the inverse's letter y is the letter that row maps to y
    inverse = {row: tuple(sorted(letters, key=row.__getitem__)) for row in set(automaton.outputs)}
    outputs = tuple(map(inverse.__getitem__, automaton.outputs))
    transitions = tuple(
        tuple(map(trow.__getitem__, irow)) for trow, irow in zip(automaton.transitions, outputs)
    )
    policy = automaton.policy
    if policy is not None:
        policy = _derived_policy(
            policy.family, policy.depth, ((inverse_name(s), (h,)) for s, h in policy.horizons)
        )
    names = tuple(inverse_name(s) for s in automaton.states)
    return _unchecked(Automaton, (automaton.alphabet, names, transitions, outputs, policy))


def _check_alphabets(a: Automaton, b: Automaton) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(
            f"cannot compose over alphabets {a.alphabet.symbols} and {b.alphabet.symbols}"
        )


def compose(
    a: Automaton,
    b: Automaton,
    prune_from: tuple[str, str] | None = None,
) -> Automaton:
    """Product automaton feeding ``a``'s output letters into ``b``.

    State (q, s) acts as "a at q, then b at s".  With ``prune_from`` only the
    pairs reachable from that pair are kept (the rest cannot influence it).
    The product is built from the two checked inputs without the
    constructor's entry checks (:func:`_unchecked`).  When no name
    of ``a`` holds a comma, "(q,s)" gives q back as the text before its
    first comma, so distinct pairs have distinct names.  Otherwise the
    names are checked: pairs ``('p,q', 'r')`` and ``('p', 'q,r')`` would
    both be named ``(p,q,r)``, and that raises ValidationError.
    """
    _check_alphabets(a, b)
    if prune_from is None:
        return _product(a, b, None)
    if not (isinstance(prune_from, (tuple, list)) and len(prune_from) == 2):
        raise ArgumentError(f"prune_from must be a pair of state names, not {_shown(prune_from)}")
    return _product(a, b, (a.state_index(prune_from[0]), b.state_index(prune_from[1])))


def _composite(g: Transformation, h: Transformation) -> Transformation:
    """``g.then(h)``: the product pruned from the pair of start indices
    ``g`` and ``h`` already know, so neither machine's name index is
    looked up; the pair is the product's state 0."""
    _check_alphabets(g.automaton, h.automaton)
    product = _product(g.automaton, h.automaton, (g.start, h.start))
    return Transformation._known(product, pair_name(g.state, h.state), 0)


def _product(a: Automaton, b: Automaton, start: tuple[int, int] | None) -> Automaton:
    """The product of :func:`compose` over one alphabet, whole or pruned
    from the pair of state indices ``start``."""
    k = a.alphabet.size
    nb = b.n_states
    # pair_name(sa, sb) is heads[qa] + tails[qb]
    heads = [f"({s}," for s in a.states]
    tails = [f"{s})" for s in b.states]
    names, transitions, outputs = [], [], []
    # a pair's output row is a's row fed through b's: one shared tuple per
    # distinct (a-row, b-row), so the product holds no copies of them;
    # b's distinct output rows are numbered in order of first occurrence
    b_rows: dict[tuple[int, ...], int] = {}
    b_row_ids = [b_rows.setdefault(row, len(b_rows)) for row in b.outputs]
    # pair (qa, qb) is numbered qa * nb + qb: a-major, as the full product lists it
    if start is None:
        # per distinct a-row, its image of every distinct b-row, built on first use
        fed: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        codes = range(a.n_states * nb)
        # one shared int per state index, so the table holds no copies of them
        ids = list(codes)
        # column[y][qb] is b's successor from qb on letter y
        column = [itemgetter(*(row[y] for row in b.transitions)) for y in range(k)]
        for head, ta, oa in zip(heads, a.transitions, a.outputs):
            names.extend(map(head.__add__, tails))
            # successor pairs of (qa, qb) for every qb at once, letter by letter
            targets = [column[y](ids[t * nb:(t + 1) * nb]) for t, y in zip(ta, oa)]
            # an itemgetter of one index returns the item itself, not a 1-tuple
            transitions.extend(zip(*targets) if nb > 1 else [tuple(targets)])
            table = fed.get(oa)
            if table is None:
                table = fed[oa] = list(map(itemgetter(*oa), b_rows))
            outputs.extend(map(table.__getitem__, b_row_ids))
    else:
        first = start[0] * nb + start[1]
        # per a-state and letter: the a-part of the successor's code, and the letter fed to b
        pieces = [tuple(zip([t * nb for t in ta], oa)) for ta, oa in zip(a.transitions, a.outputs)]
        # breadth-first from the start pair, letters ascending
        codes = [first]
        slot = {first: 0}
        find, push, put, b_trans = slot.get, codes.append, transitions.append, b.transitions
        for code in codes:
            tb = b_trans[code % nb]
            row = []
            for base, y in pieces[code // nb]:
                nxt = base + tb[y]
                i = find(nxt)
                if i is None:
                    i = slot[nxt] = len(codes)
                    push(nxt)
                row.append(i)
            put(tuple(row))
        qas, qbs = [code // nb for code in codes], [code % nb for code in codes]
        names = list(map(add, map(heads.__getitem__, qas), map(tails.__getitem__, qbs)))
        # a pair's rows as one int, a-row * width + b-row; only the pairs of
        # rows met are fed through, so the work stays with the pairs visited
        width, a_rows = len(b_rows), {}
        a_keys = [a_rows.setdefault(row, len(a_rows) * width) for row in a.outputs]
        keys = list(map(add, map(a_keys.__getitem__, qas), map(b_row_ids.__getitem__, qbs)))
        a_rows, b_rows = list(a_rows), list(b_rows)
        shared = {key: itemgetter(*a_rows[key // width])(b_rows[key % width]) for key in set(keys)}
        outputs = list(map(shared.__getitem__, keys))

    policy = None
    if a.policy is not None or b.policy is not None:
        depths = [p.depth for p in (a.policy, b.policy) if p is not None]
        fam_a = a.policy.family if a.policy else "finite"
        fam_b = b.policy.family if b.policy else "finite"
        policy = _derived_policy(f"{fam_a}*{fam_b}", min(depths), (
            (name, (a.horizon(a.states[code // nb]), b.horizon(b.states[code % nb])))
            for name, code in zip(names, codes)
        ))

    fields = (a.alphabet, tuple(names), tuple(transitions), tuple(outputs), policy)
    product = _unchecked(Automaton, fields)
    if any("," in name for name in a.states):
        _kept(product, "_index", _name_index)  # checks the names
    return product


def minimize(automaton: Automaton) -> tuple[Automaton, dict[str, str]]:
    """Quotient by the coarsest behavioral congruence.

    Partition refinement: states start in classes keyed by their output row
    and split while some class distinguishes a pair by successor classes.
    The quotient class is named after its lowest-index member.  Returns the
    quotient and the mapping old state name -> class name.  The quotient is
    built from the checked input without the constructor's entry checks
    (:func:`_unchecked`); its names are some of the input's, so
    they are distinct.
    """
    labels: dict[tuple, int] = {}
    cls = [labels.setdefault(row, len(labels)) for row in automaton.outputs]
    while True:
        labels = {}
        refined = [
            labels.setdefault((c, *map(cls.__getitem__, row)), len(labels))
            for c, row in zip(cls, automaton.transitions)
        ]
        stable = len(labels) == len(set(cls))
        cls = refined
        if stable:
            break

    # classes are numbered in order of their lowest-index member
    members: dict[int, list[int]] = {}
    for q, c in enumerate(cls):
        members.setdefault(c, []).append(q)
    ordered = [qs[0] for qs in members.values()]
    names = tuple(automaton.states[q] for q in ordered)
    transitions = tuple(tuple(map(cls.__getitem__, automaton.transitions[q])) for q in ordered)
    outputs = tuple(automaton.outputs[q] for q in ordered)

    policy = automaton.policy
    if policy is not None:
        policy = _derived_policy(policy.family, policy.depth, (
            (names[c], [automaton.horizon(automaton.states[q]) for q in qs])
            for c, qs in members.items()
        ))

    quotient = _unchecked(Automaton, (automaton.alphabet, names, transitions, outputs, policy))
    mapping = {name: names[c] for name, c in zip(automaton.states, cls)}
    return quotient, mapping
