"""The two in-process workloads: ``deep_counts`` and ``wide_tables``.

Each workload function builds the seeded inputs and returns the fixed list
of operations.  Each operation is a call into the public API (always through
the ``invauto`` package namespace, so a traced run sees it) plus a check
against :mod:`refs` and the machines' construction.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import machines
import refs

BLOCK = 8  # the library's minimum block factor


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    sizes: dict
    ops: list


def _symbols(k):
    return [str(x) for x in range(k)]


def _brute(g, kind, levels):
    """Word-tree enumeration from the test suite's oracles, up to 20 000 words."""
    tests = str(Path("tests").resolve())
    if tests not in sys.path:
        sys.path.insert(0, tests)
    from helpers import brute_counts

    k = g.alphabet.size
    top = max(L for L in range(11) if k**L <= 20_000)
    ns, nc = brute_counts(g, min(top, levels))
    return ns if kind == "ns" else nc


def _count_op(iv, name, g, kind, levels):
    counter = f"count_{kind}"  # looked up per call, so a traced run sees it
    reference = refs.ns_counts if kind == "ns" else refs.nc_counts

    def check(table):
        expected = reference(g.automaton, g.start, levels)
        problems = []
        if list(table.counts) != expected:
            problems.append("counts differ from the dense reference sweep")
        brute = _brute(g, kind, levels)
        if list(table.counts[: len(brute)]) != brute:
            problems.append("counts differ from word-tree enumeration")
        return problems

    return Op(name, lambda: getattr(iv, counter)(g, levels), check)


def _report_check(items, level, kind, divisor=None):
    reference = refs.ns_counts if kind == "ns" else refs.nc_counts

    def check(report):
        cache = {}
        per_item = []
        for h in items:
            key = (id(h.automaton), h.start)
            if key not in cache:
                cache[key] = reference(h.automaton, h.start, level)[level]
            per_item.append(cache[key])
        k = items[0].alphabet.size
        aggregate = BLOCK * sum(per_item)
        threshold = Fraction(BLOCK * k**level, 4)
        problems = []
        if list(report.per_item) != per_item:
            problems.append("per-item counts differ from the dense reference")
        if report.aggregate != aggregate or report.threshold != threshold:
            problems.append("aggregate or threshold differs")
        if report.satisfied != (aggregate <= threshold):
            problems.append("verdict differs")
        if divisor is not None and report.period_count != k**divisor:
            problems.append("period count differs from k**m")
        return problems

    return check


def _min_level_check(items, max_level):
    def check(level):
        k = items[0].alphabet.size
        top = max_level if level is None else level
        counts = {}
        for h in items:
            key = (id(h.automaton), h.start)
            if key not in counts:
                counts[key] = refs.ns_counts(h.automaton, h.start, top)
        expected = None
        for L in range(top + 1):
            total = sum(counts[(id(h.automaton), h.start)][L] for h in items)
            if 4 * total <= k**L:
                expected = L
                break
        return [] if level == expected else [f"minimal level {level}, expected {expected}"]

    return check


def deep_counts(iv, seed: int) -> Workload:
    """Exact counts at deep levels: the per-level survivor sweep dominates."""
    rng = random.Random(seed)
    depth, rand_n, rand_levels, report_level = 2000, 300, 1000, 256
    chain = iv.generate_builtin("remark_chain", depth=depth)
    rand = iv.Automaton.from_table(_symbols(2), machines.leaky(rng, rand_n, 2, 0.25))
    cycle = iv.Automaton.from_table(_symbols(4), machines.leaky_cycle(50))
    g = chain.at("q_1")
    r = rand.at(f"s{rng.randrange(rand_n)}")
    picks = sorted(rng.sample(range(2, 1501), 2))
    # one item repeated six times next to three distinct ones
    items = [g] * 6 + [chain.at(f"q_{i}") for i in picks] + [cycle.at("c1")]
    ops = [
        _count_op(iv, "ns.chain", g, "ns", depth),
        _count_op(iv, "nc.chain", g, "nc", depth),
        _count_op(iv, "ns.random", r, "ns", rand_levels),
        _count_op(iv, "nc.random", r, "nc", rand_levels),
        Op(
            "t1.items",
            lambda: iv.theorem1_report(items, report_level),
            _report_check(items, report_level, "ns"),
        ),
        Op(
            "t2.items",
            lambda: iv.theorem2_report(items, report_level, 2),
            _report_check(items, report_level, "nc", divisor=2),
        ),
        Op(
            "min_level.items",
            lambda: iv.find_minimal_level(items, BLOCK, depth - max(picks)),
            _min_level_check(items, depth - max(picks)),
        ),
    ]
    sizes = {
        "remark_chain": {"depth": depth, "levels": depth, "start": "q_1"},
        "random": {"n": rand_n, "k": 2, "leak": 0.25, "levels": rand_levels},
        "reports": {
            "level": report_level,
            "items": len(items),
            "distinct_items": 4,
            "states": ["q_1"] * 6 + [f"q_{i}" for i in picks] + ["leaky_cycle(50):c1"],
        },
    }
    return Workload(sizes, ops)


# ---------------------------------------------------------------- wide_tables


def _sample_words(rng, k, count, length):
    return [tuple(rng.randrange(k) for _ in range(length)) for _ in range(count)]


def _behaves_like(rng, got, got_state, want, want_state, k, words=3, length=24):
    for w in _sample_words(rng, k, words, length):
        if refs.run_word(got, got_state, w)[0] != refs.run_word(want, want_state, w)[0]:
            return False
    return True


def _build_op(iv, name, symbols, table):
    def check(automaton):
        return [] if refs.named_table(automaton) == table else ["built table differs"]

    return Op(name, lambda: iv.Automaton.from_table(symbols, table), check)


def _classify_op(iv, name, g, category, degree=None, rate=None):
    def check(report):
        problems = []
        if report.category != category or report.degree != degree:
            problems.append(
                f"{report.category}/{report.degree}, built as {category}/{degree}"
            )
        if rate is not None and (
            report.rate is None or abs(report.rate - rate) > 1e-6 * rate
        ):
            problems.append(f"rate {report.rate}, built as {rate}")
        return problems

    return Op(name, lambda: iv.classify_growth(g), check)


def _decide_op(iv, name, g, kind):
    def check(decision):
        a = g.automaton
        excluded = refs.trivial_states(a) if kind == "g0" else set(refs.uc_lengths(a))
        core = refs.escape_proof_core(a, excluded)
        problems = []
        if list(decision.core) != [a.states[q] for q in sorted(core)]:
            problems.append("core differs from the reference")
        dist = refs.distance_to(a, g.start, core) if core else None
        if decision.member != (dist is None):
            problems.append("membership verdict differs")
        elif dist is not None:
            end = refs.run_word(a, g.start, decision.witness)[1]
            if len(decision.witness) != dist or end not in core:
                problems.append("witness is not a shortest word into the core")
        return problems

    return Op(name, lambda: getattr(iv, f"decide_{kind}")(g), check)


def wide_tables(iv, seed: int) -> Workload:
    """Whole-table passes over large machines with shallow or no sweeps."""
    rng = random.Random(seed)
    tables = {
        "r2000": (_symbols(4), machines.constant_degree(rng, 2000, 4, 3)),
        "r300": (_symbols(2), machines.constant_degree(rng, 300, 2, 2)),
        "r300b": (_symbols(2), machines.constant_degree(rng, 300, 2, 2, prefix="p")),
    }
    funnel_table, top, bottom = machines.funnel(rng, 6, 50, 3)
    planted_table, cycles = machines.planted_cycles(rng, 1000, 200, [1, 1, 2, 2, 3, 3, 4, 4])
    tables["funnel"] = (_symbols(3), funnel_table)
    tables["planted"] = (_symbols(2), planted_table)
    tables["copies"] = (_symbols(3), machines.copies(rng, 200, 10, 3))
    built = {key: iv.Automaton.from_table(*spec) for key, spec in tables.items()}
    r2000, r300, r300b = built["r2000"], built["r300"], built["r300b"]
    funnel, planted, copies = built["funnel"], built["planted"], built["copies"]

    h2000 = r2000.at(f"s{rng.randrange(2000)}")
    free = planted.at(f"u{rng.randrange(200, 1000)}")
    trapped = planted.at(f"u{rng.randrange(200)}")
    long_words = [
        (r2000.at(f"s{rng.randrange(2000)}"), w) for w in _sample_words(rng, 4, 10, 20_000)
    ]
    ep_samples = [
        iv.EventuallyPeriodicWord(*map(tuple, pair))
        for pair in (
            (
                [rng.randrange(2) for _ in range(rng.randint(0, 40))],
                [rng.randrange(2) for _ in range(rng.randint(1, 6))],
            )
            for _ in range(200)
        )
    ]
    lemma_level, lemma_divisor = 40, 12
    lemma_samples = [
        iv.EventuallyPeriodicWord(
            tuple(rng.randrange(2) for _ in range(lemma_level)),
            tuple(rng.randrange(2) for _ in range(rng.choice([1, 2, 3, 4, 6, 12]))),
        )
        for _ in range(300)
    ]
    audit_level = 14
    audit_hs = [r300.at(f"s{rng.randrange(300)}") for _ in range(3)]
    audit_parts = [[], [], []]
    for w in itertools.product(range(2), repeat=audit_level):
        audit_parts[rng.randrange(3)].append(w)
    prune = (f"s{rng.randrange(300)}", f"p{rng.randrange(300)}")

    def check_trivial(a):
        return lambda got: [] if set(got) == refs.trivial_states(a) else ["trivial set differs"]

    def check_ucs_planted(got):
        want = {frozenset(c) for c in cycles}
        have = {frozenset(c.states) for c in got}
        return [] if have == want and len(got) == len(cycles) else ["cycles differ from the planted ones"]

    def check_ucs(a):
        def check(got):
            have = {a.state_index(s) for c in got for s in c.states}
            return [] if have == set(refs.uc_lengths(a)) else ["cycle states differ"]

        return check

    def check_minimize(result):
        quotient, mapping = result
        problems = []
        if quotient.n_states > 200:
            problems.append(f"{quotient.n_states} classes for 200 behaviours")
        if set(mapping) != set(copies.states):
            problems.append("class map does not cover every state")
            return problems
        srng = random.Random(seed + 1)
        for q in srng.sample(range(copies.n_states), 50):
            cls = quotient.state_index(mapping[copies.states[q]])
            if not _behaves_like(srng, quotient, cls, copies, q, 3):
                problems.append(f"class of {copies.states[q]} acts differently")
                break
        return problems

    def check_invert(inv):
        srng = random.Random(seed + 2)
        for q in srng.sample(range(r2000.n_states), 20):
            back = inv.state_index(r2000.states[q] + "^-1")
            for w in _sample_words(srng, 4, 3, 40):
                image = refs.run_word(r2000, q, w)[0]
                if refs.run_word(inv, back, image)[0] != w:
                    return [f"inverse of {r2000.states[q]} does not undo it"]
        return []

    def composite_acts(product, pairs, srng):
        for qa, qb in pairs:
            state = product.state_index(f"({r300.states[qa]},{r300b.states[qb]})")
            for w in _sample_words(srng, 2, 3, 40):
                want = refs.run_word(r300b, qb, refs.run_word(r300, qa, w)[0])[0]
                if refs.run_word(product, state, w)[0] != want:
                    return False
        return True

    def check_compose_full(product):
        srng = random.Random(seed + 3)
        if product.n_states != r300.n_states * r300b.n_states:
            return ["full product does not have every pair"]
        pairs = [(srng.randrange(300), srng.randrange(300)) for _ in range(100)]
        return [] if composite_acts(product, pairs, srng) else ["product acts differently"]

    def check_compose_pruned(product):
        srng = random.Random(seed + 4)
        start = (r300.state_index(prune[0]), r300b.state_index(prune[1]))
        reach = {start}
        stack = [start]
        while stack:
            qa, qb = stack.pop()
            for x in range(2):
                nxt = (r300.transitions[qa][x], r300b.transitions[qb][r300.outputs[qa][x]])
                if nxt not in reach:
                    reach.add(nxt)
                    stack.append(nxt)
        if product.n_states != len(reach):
            return [f"{product.n_states} pairs kept, {len(reach)} reachable"]
        pairs = [start] + srng.sample(sorted(reach), min(50, len(reach)))
        return [] if composite_acts(product, pairs, srng) else ["pruned product acts differently"]

    def check_roundtrip(parsed):
        return [] if refs.named_table(parsed) == tables["r2000"][1] else ["round trip changed the table"]

    def check_apply(images):
        for (h, w), image in zip(long_words, images):
            if image != refs.run_word(h.automaton, h.start, w)[0]:
                return ["long-word image differs"]
        return []

    def check_ep(images):
        for w, image in zip(ep_samples, images):
            span = max(w.level + 2 * len(w.period), image.level + 2 * len(image.period))
            if image.first(span) != refs.run_word(planted, free.start, w.first(span))[0]:
                return ["eventually periodic image differs letter by letter"]
        return []

    def check_lemma(verdict):
        want = refs.lemma2_tallies(
            planted,
            free.start,
            lemma_level,
            lemma_divisor,
            [(w.prefix, w.period) for w in lemma_samples],
        )
        got = (verdict.checked, verdict.skipped, verdict.failed)
        return [] if got == want else [f"tallies {got}, reference {want}"]

    def check_audit(audit):
        counts = {w: 0 for w in itertools.product(range(2), repeat=audit_level)}
        for h, part in zip(audit_hs, audit_parts):
            for w in part:
                counts[refs.run_word(h.automaton, h.start, w)[0]] += 1
        problems = []
        if audit.total_coins != 2**audit_level:
            problems.append("coins not conserved")
        if dict(audit.coin_counts) != counts:
            problems.append("coin tally differs")
        if list(audit.deficit) != sorted(w for w, c in counts.items() if c < 2):
            problems.append("deficit differs")
        return problems

    ops = [_build_op(iv, f"build.{key}", *tables[key]) for key in ("r2000", "r300", "funnel", "planted", "copies")]
    ops += [
        Op("trivial.r2000", lambda: iv.trivial_states(r2000), check_trivial(r2000)),
        Op("trivial.planted", lambda: iv.trivial_states(planted), check_trivial(planted)),
        Op("ucs.planted", lambda: iv.find_ucs(planted), check_ucs_planted),
        Op("ucs.r2000", lambda: iv.find_ucs(r2000), check_ucs(r2000)),
        _classify_op(iv, "classify.r2000", h2000, "exponential", rate=3.0),
        _classify_op(iv, "classify.r300", r300.at("s0"), "exponential", rate=2.0),
        _classify_op(iv, "classify.funnel_top", funnel.at(top), "polynomial", degree=5),
        _classify_op(iv, "classify.funnel_bottom", funnel.at(bottom), "bounded"),
        _decide_op(iv, "decide_g0.planted", free, "g0"),
        _decide_op(iv, "decide_g1.planted", free, "g1"),
        _decide_op(iv, "decide_g1.trap", trapped, "g1"),
        Op("minimize.copies", lambda: iv.minimize(copies), check_minimize),
        Op("invert.r2000", lambda: iv.invert(r2000), check_invert),
        Op("compose.full", lambda: iv.compose(r300, r300b), check_compose_full),
        Op("compose.pruned", lambda: iv.compose(r300, r300b, prune_from=prune), check_compose_pruned),
        Op("text.dsl", lambda: iv.parse_automaton(iv.render_dsl(r2000)), check_roundtrip),
        Op("text.json", lambda: iv.parse_automaton(iv.render_json(r2000)), check_roundtrip),
        Op("apply.long", lambda: [h.apply(w) for h, w in long_words], check_apply),
        Op("ep.images", lambda: [iv.apply_to_ep_word(free, w) for w in ep_samples], check_ep),
        Op(
            "lemma2.planted",
            lambda: iv.check_lemma2(free, lemma_level, 4, lemma_divisor, lemma_samples),
            check_lemma,
        ),
        Op("audit.l14", lambda: iv.coin_audit(audit_level, audit_parts, audit_hs), check_audit),
        Op("t1.r2000", lambda: iv.theorem1_report([h2000], 24), _report_check([h2000], 24, "ns")),
    ]
    sizes = {
        "r2000": {"n": 2000, "k": 4, "active_letters": 3},
        "r300": {"n": 300, "k": 2, "compose_with": "second n=300, k=2"},
        "funnel": {"layers": 6, "width": 50, "k": 3},
        "planted": {"n": 1000 + sum(len(c) for c in cycles), "k": 2, "trap": 200, "cycles": [len(c) for c in cycles]},
        "copies": {"n": 2000, "k": 3, "behaviours": 200},
        "apply": {"words": len(long_words), "letters": 20_000},
        "ep_images": len(ep_samples),
        "lemma2": {"samples": len(lemma_samples), "level": lemma_level, "divisor": lemma_divisor},
        "audit": {"level": audit_level, "blocks": 3},
        "t1_level": 24,
    }
    return Workload(sizes, ops)


WORKLOADS = {"deep_counts": deep_counts, "wide_tables": wide_tables}
