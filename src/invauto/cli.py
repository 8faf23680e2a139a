"""Command-line interface exposing every library operation.

Machines come from files (``--file machine.maut`` or ``.json``) or builtin
generators (``--gen adding``).  Commands taking several transformations
accept extra ``--item SOURCE@STATE`` arguments, where SOURCE is a path or
``gen:FAMILY[:depth=N]``.  ``--json`` switches to machine-readable output in
which every exact count is a decimal string, never a float.

Exit status: 0 on success (a false verdict is still a success), 1 on domain
errors, 2 on usage or parse errors (an argument a library call rejects is a
usage error).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import Transformation, generate_builtin, invert, compose, minimize
from .counting import (
    classify_growth,
    count_nc,
    count_ns,
    decide_g0,
    decide_g1,
    find_ucs,
)
from .errors import ArgumentError, AutomatonError, ParseError
from .paradox import coin_audit, find_minimal_level, theorem1_report, theorem2_report
from .periodic import (
    EventuallyPeriodicWord,
    check_lemma1,
    check_lemma2,
    count_periods,
)
from .textio import parse_document, render_dot, render_dsl, render_json


class UsageError(Exception):
    """Bad command-line input that argparse alone cannot catch."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _open_automaton(path: str | None, family: str | None, depth=None, length=None):
    """The machine in file ``path``, or builtin ``family`` materialized for
    ``depth``/``length``; exactly one of ``path`` and ``family`` is given."""
    if (path is None) == (family is None):
        raise UsageError("exactly one of --file or --gen is required")
    if family is not None:
        return generate_builtin(family, depth=depth, length=length)
    return parse_document(_read_text(path))[0]


def _automaton_from_source(source: str):
    """A SOURCE argument: a path, or ``gen:FAMILY[:depth=N][:length=N]``."""
    if not source.startswith("gen:"):
        return _open_automaton(source, None)
    parts = source.split(":")
    options = {"depth": None, "length": None}
    for opt in parts[2:]:
        key, _, value = opt.partition("=")
        if key not in options:
            raise UsageError(f"unknown generator option {key!r} in {source!r}")
        try:
            options[key] = int(value)
        except ValueError:
            raise UsageError(
                f"generator option {key!r} needs an integer, got {value!r} in {source!r}"
            ) from None
    return _open_automaton(None, parts[1], **options)


def _transformation_from_item(item: str) -> Transformation:
    source, sep, state = item.rpartition("@")
    if not sep or not source or not state:
        raise UsageError(f"expected SOURCE@STATE, got {item!r}")
    return Transformation(_automaton_from_source(source), state)


def _add_source_options(parser: argparse.ArgumentParser, state: bool = True) -> None:
    parser.add_argument("--file", metavar="PATH", help="automaton file (.maut or .json)")
    parser.add_argument("--gen", metavar="FAMILY", help="builtin machine family")
    parser.add_argument("--depth", type=int, help="materialization depth for --gen")
    parser.add_argument(
        "--length", type=int, help="processing length the generated table must serve"
    )
    if state:
        parser.add_argument("--state", metavar="NAME", help="initial state")


def _load_automaton(args: argparse.Namespace):
    return _open_automaton(args.file, args.gen, args.depth, args.length)


def _load_transformation(args: argparse.Namespace) -> Transformation:
    automaton = _load_automaton(args)
    if not getattr(args, "state", None):
        raise UsageError("--state is required for this command")
    return Transformation(automaton, args.state)


def _load_items(args: argparse.Namespace) -> list[Transformation]:
    items = [_load_transformation(args)]
    for item in args.item or []:
        items.append(_transformation_from_item(item))
    return items


def _emit(args: argparse.Namespace, lines: list[str], payload: dict) -> int:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def _ep_word(alphabet, text: str) -> EventuallyPeriodicWord:
    prefix, sep, period = text.partition(":")
    if not sep or not period:
        raise UsageError(f"expected PREFIX:PERIOD (prefix may be empty), got {text!r}")
    return EventuallyPeriodicWord(alphabet.word(prefix), alphabet.word(period))


def _report_payload(report) -> dict:
    return {
        "kind": report.kind,
        "level": report.level,
        "block_factor": report.block_factor,
        "items": [h.state for h in report.transformations],
        "per_item": [str(c) for c in report.per_item],
        "aggregate": str(report.aggregate),
        "threshold": str(report.threshold),
        "satisfied": report.satisfied,
        "period_divisor": report.period_divisor,
        "period_count": None if report.period_count is None else str(report.period_count),
        "note": report.note,
    }


def _report_lines(report) -> list[str]:
    lines = [
        f"level {report.level}, block factor {report.block_factor}, "
        f"kind {report.kind}",
    ]
    for h, c in zip(report.transformations, report.per_item):
        lines.append(f"  {h.state}: {c}")
    lines.append(f"aggregate {report.aggregate} vs threshold {report.threshold}")
    if report.period_count is not None:
        lines.append(
            f"period divisor {report.period_divisor} "
            f"({report.period_count} period classes)"
        )
    lines.append("satisfied" if report.satisfied else "NOT satisfied")
    return lines


def cmd_validate(args) -> int:
    automaton = _load_automaton(args)
    return _emit(
        args,
        [
            f"ok: {automaton.n_states} states over alphabet "
            f"{{{', '.join(automaton.alphabet.symbols)}}}"
        ],
        {
            "valid": True,
            "states": list(automaton.states),
            "alphabet": list(automaton.alphabet.symbols),
        },
    )


def cmd_gen(args) -> int:
    automaton = generate_builtin(args.family, depth=args.depth, length=args.length)
    sys.stdout.write(render_dsl(automaton, name=args.family))
    return 0


def cmd_export_dot(args) -> int:
    automaton = _load_automaton(args)
    name = args.gen or Path(args.file).stem
    sys.stdout.write(render_dot(automaton, name=name))
    return 0


def cmd_apply(args) -> int:
    g = _load_transformation(args)
    words = args.word
    if not words:
        words = [line.strip() for line in sys.stdin if line.strip()]
    outputs = [g.apply_text(w) for w in words]
    return _emit(args, outputs, {"outputs": outputs})


def cmd_invert(args) -> int:
    automaton = _load_automaton(args)
    sys.stdout.write(render_dsl(invert(automaton)))
    return 0


def cmd_compose(args) -> int:
    left = _automaton_from_source(args.left)
    right = _automaton_from_source(args.right)
    prune = None
    if args.prune:
        a, sep, b = args.prune.partition(",")
        if not sep:
            raise UsageError("--prune expects STATE_A,STATE_B")
        prune = (a.strip(), b.strip())
    sys.stdout.write(render_dsl(compose(left, right, prune_from=prune)))
    return 0


def cmd_minimize(args) -> int:
    automaton = _load_automaton(args)
    quotient, mapping = minimize(automaton)
    if args.json:
        doc = json.loads(render_json(quotient))
        doc["classes"] = mapping
        print(json.dumps(doc, sort_keys=True))
        return 0
    for old in automaton.states:
        print(f"# {old} -> {mapping[old]}")
    sys.stdout.write(render_dsl(quotient))
    return 0


def cmd_ucs(args) -> int:
    automaton = _load_automaton(args)
    cycles = find_ucs(automaton)
    lines = [
        f"length {c.length}: {' -> '.join(c.states + (c.states[0],))}" for c in cycles
    ] or ["no unconditional cycles"]
    payload = {"cycles": [{"length": c.length, "states": list(c.states)} for c in cycles]}
    return _emit(args, lines, payload)


def _cmd_counts(args, counter, kind: str) -> int:
    g = _load_transformation(args)
    table = counter(g, args.max_level)
    lines = [f"{level}\t{count}" for level, count in enumerate(table.counts)]
    payload = {
        "kind": kind,
        "state": g.state,
        "counts": [str(c) for c in table.counts],
    }
    return _emit(args, lines, payload)


def cmd_ns(args) -> int:
    return _cmd_counts(args, count_ns, "ns")


def cmd_nc(args) -> int:
    return _cmd_counts(args, count_nc, "nc")


def cmd_classify(args) -> int:
    g = _load_transformation(args)
    report = classify_growth(g)
    if report.category == "polynomial":
        line = f"polynomial (degree {report.degree})"
    elif report.category == "exponential":
        line = f"exponential (rate ~ {report.rate:.6f})"
    else:
        line = "bounded"
    bounds = report.rate_bounds
    payload = {
        "category": report.category,
        "degree": report.degree,
        "rate": report.rate,
        "rate_bounds": None if bounds is None else [str(b) for b in bounds],
    }
    return _emit(args, [line], payload)


def _cmd_member(args, decider) -> int:
    g = _load_transformation(args)
    decision = decider(g)
    if decision.member:
        lines = ["member: yes"]
    else:
        witness = g.alphabet.text(decision.witness)
        lines = [
            f"member: no (witness {witness!r} reaches the escape-proof core)",
            f"core: {', '.join(decision.core)}",
        ]
    payload = {
        "member": decision.member,
        "witness": None if decision.witness is None else g.alphabet.text(decision.witness),
        "core": list(decision.core),
    }
    return _emit(args, lines, payload)


def cmd_member_g0(args) -> int:
    return _cmd_member(args, decide_g0)


def cmd_member_g1(args) -> int:
    return _cmd_member(args, decide_g1)


def cmd_lemma1(args) -> int:
    g = _load_transformation(args)
    word = EventuallyPeriodicWord(
        g.alphabet.word(args.prefix), g.alphabet.word(args.period)
    )
    verdict = check_lemma1(g, word, word.level)
    if not verdict.applicable:
        lines = ["not applicable: no unconditional cycle reached within the level"]
    else:
        lines = [
            f"holds: {'yes' if verdict.holds else 'NO'} "
            f"(input period {verdict.input_period}, cycle {verdict.cycle_length}, "
            f"observed {verdict.observed_period}, bound {verdict.bound})"
        ]
    payload = {
        "applicable": verdict.applicable,
        "holds": verdict.holds,
        "input_period": verdict.input_period,
        "cycle_length": verdict.cycle_length,
        "observed_period": verdict.observed_period,
        "bound": verdict.bound,
    }
    return _emit(args, lines, payload)


def cmd_lemma2(args) -> int:
    g = _load_transformation(args)
    samples = [_ep_word(g.alphabet, w) for w in args.word]
    verdict = check_lemma2(g, args.level, args.cycle_bound, args.period_divisor, samples)
    lines = [
        f"checked {verdict.checked}, skipped {verdict.skipped}, failed {verdict.failed}"
    ]
    payload = {
        "checked": verdict.checked,
        "skipped": verdict.skipped,
        "failed": verdict.failed,
    }
    return _emit(args, lines, payload)


def cmd_periods(args) -> int:
    n = count_periods(args.alphabet_size, args.period_divisor)
    return _emit(args, [str(n)], {"count": str(n)})


def cmd_t1_report(args) -> int:
    report = theorem1_report(_load_items(args), args.level, args.block_factor)
    return _emit(args, _report_lines(report), _report_payload(report))


def cmd_t2_report(args) -> int:
    report = theorem2_report(
        _load_items(args), args.level, args.period_divisor, args.block_factor
    )
    return _emit(args, _report_lines(report), _report_payload(report))


def cmd_min_level(args) -> int:
    level = find_minimal_level(_load_items(args), args.block_factor, args.l_max)
    if level is None:
        return _emit(
            args, [f"no level up to {args.l_max} satisfies the bound"], {"level": None}
        )
    return _emit(args, [str(level)], {"level": level})


def _is_words(value) -> bool:
    return isinstance(value, list) and all(isinstance(w, str) for w in value)


_AUDIT_KEYS = (
    ("level", lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    ("transformations", _is_words, "a list of SOURCE@STATE strings"),
    ("parts", lambda v: isinstance(v, list) and all(map(_is_words, v)), "a list of word lists"),
)


def _audit_spec(path: str) -> dict:
    """The audit spec in ``path``, with each key's presence and type checked."""
    try:
        spec = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not JSON ({exc})") from None
    if not isinstance(spec, dict):
        raise ParseError(f"{path}: audit spec must be a JSON object")
    for key, valid, what in _AUDIT_KEYS:
        if key not in spec:
            raise ParseError(f"{path}: audit spec has no {key!r} key")
        if not valid(spec[key]):
            raise ParseError(f"{path}: audit spec key {key!r} must be {what}")
    return spec


def cmd_audit(args) -> int:
    spec = _audit_spec(args.input)
    hs = [_transformation_from_item(item) for item in spec["transformations"]]
    if not hs:
        raise UsageError("audit needs at least one transformation")
    alphabet = hs[0].alphabet
    parts = [[alphabet.word(w) for w in part] for part in spec["parts"]]
    audit = coin_audit(spec["level"], parts, hs)
    lines = [
        f"coins after the move: {audit.total_coins} "
        f"(of {alphabet.size}^{audit.level} words)",
        f"deficit: {len(audit.deficit)} words with fewer than 2 coins",
    ]
    if audit.deficit:
        shown = ", ".join(alphabet.text(w) for w in audit.deficit[:8])
        more = "" if len(audit.deficit) <= 8 else ", ..."
        lines.append(f"  {shown}{more}")
    lines.append("doubling" if audit.doubling else "not a doubling scheme")
    payload = {
        "level": audit.level,
        "total_coins": str(audit.total_coins),
        "coin_counts": {
            alphabet.text(w): str(c) for w, c in sorted(audit.coin_counts.items())
        },
        "deficit": [alphabet.text(w) for w in audit.deficit],
        "doubling": audit.doubling,
    }
    return _emit(args, lines, payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invauto",
        description="invertible letter-to-letter automata: algebra, counting, audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_: str, state: bool = True, json_: bool = True):
        p = sub.add_parser(name, help=help_)
        _add_source_options(p, state=state)
        if json_:  # commands printing a machine description have no JSON form
            p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler)
        return p

    add("validate", cmd_validate, "check an automaton description", state=False)

    p = sub.add_parser("gen", help="print a builtin machine as DSL text")
    p.add_argument("family")
    p.add_argument("--depth", type=int)
    p.add_argument("--length", type=int)
    p.set_defaults(handler=cmd_gen)

    add("export-dot", cmd_export_dot, "print the labeled state diagram", state=False, json_=False)

    p = add("apply", cmd_apply, "run a machine on words")
    p.add_argument("word", nargs="*", help="words (default: read from stdin)")

    add("invert", cmd_invert, "print the inverse machine", state=False, json_=False)

    p = sub.add_parser("compose", help="print the product machine (left acts first)")
    p.add_argument("left", help="path or gen:FAMILY[:depth=N]")
    p.add_argument("right", help="path or gen:FAMILY[:depth=N]")
    p.add_argument("--prune", metavar="A,B", help="keep only pairs reachable from (A,B)")
    p.set_defaults(handler=cmd_compose)

    add("minimize", cmd_minimize, "print the behavioral quotient", state=False)
    add("ucs", cmd_ucs, "list unconditional cycles", state=False)

    p = add("ns", cmd_ns, "count words ending in a nontrivial state, per level")
    p.add_argument("--max-level", type=int, required=True)
    p = add("nc", cmd_nc, "count words avoiding all unconditional cycles, per level")
    p.add_argument("--max-level", type=int, required=True)

    add("classify", cmd_classify, "growth class of the activity counts")
    add("member-g0", cmd_member_g0, "exact small-activity membership")
    add("member-g1", cmd_member_g1, "exact small-cycle-avoidance membership")

    p = add("lemma1", cmd_lemma1, "image period divisibility for one word")
    p.add_argument("--prefix", required=True, help="prefix (may be empty: '')")
    p.add_argument("--period", required=True)

    p = add("lemma2", cmd_lemma2, "period-class closure over sample words")
    p.add_argument("-l", "--level", type=int, required=True)
    p.add_argument("-c", "--cycle-bound", type=int, required=True)
    p.add_argument("-m", "--period-divisor", type=int, required=True)
    p.add_argument("--word", action="append", default=[], metavar="PREFIX:PERIOD")

    p = sub.add_parser("periods", help="count primitive periods with length dividing m")
    p.add_argument("-k", "--alphabet-size", type=int, required=True)
    p.add_argument("-m", "--period-divisor", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_periods)

    p = add("t1-report", cmd_t1_report, "activity-based doubling bound at one level")
    p.add_argument("-l", "--level", type=int, required=True)
    p.add_argument("-s", "--block-factor", type=int, default=8)
    p.add_argument("--item", action="append", metavar="SOURCE@STATE")

    p = add("t2-report", cmd_t2_report, "cycle-avoidance doubling bound at one level")
    p.add_argument("-l", "--level", type=int, required=True)
    p.add_argument("-m", "--period-divisor", type=int, required=True)
    p.add_argument("-s", "--block-factor", type=int, default=8)
    p.add_argument("--item", action="append", metavar="SOURCE@STATE")

    p = add("min-level", cmd_min_level, "smallest level satisfying the activity bound")
    p.add_argument("-s", "--block-factor", type=int, default=8)
    p.add_argument("--l-max", type=int, default=64)
    p.add_argument("--item", action="append", metavar="SOURCE@STATE")

    p = sub.add_parser("audit", help="replay a candidate doubling scheme from JSON")
    p.add_argument("--input", required=True, metavar="PATH")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, UsageError, ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AutomatonError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
