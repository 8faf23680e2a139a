"""Command-line interface exposing every library operation.

Machines come from files (``--file machine.maut`` or ``.json``) or builtin
generators (``--gen adding``).  Commands taking several transformations
accept extra ``--item SOURCE@STATE`` arguments, where SOURCE is a path or
``gen:FAMILY[:depth=N]``.  ``--json`` switches to machine-readable output in
which every exact count is a decimal string, never a float.

Exit status: 0 on success (a false verdict is still a success), 1 on domain
errors, 2 on usage or parse errors (an argument a library call rejects is a
usage error).

A call pays only for the library modules its subcommand uses: the library
is reached through the ``invauto`` namespace, which imports each submodule
on first use.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import invauto

from .errors import ArgumentError, AutomatonError, ParseError


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _open_automaton(path: str | None, family: str | None, depth=None, length=None):
    """The machine in file ``path``, or builtin ``family`` materialized for
    ``depth``/``length``; exactly one of ``path`` and ``family`` is given."""
    if (path is None) == (family is None):
        raise ArgumentError("exactly one of --file or --gen is required")
    if family is not None:
        return invauto.generate_builtin(family, depth=depth, length=length)
    return invauto.parse_document(_read_text(path))[0]


def _automaton_from_source(source: str):
    """A SOURCE argument: a path, or ``gen:FAMILY[:depth=N][:length=N]``."""
    if not source.startswith("gen:"):
        return _open_automaton(source, None)
    parts = source.split(":")
    options = {"depth": None, "length": None}
    for opt in parts[2:]:
        key, _, value = opt.partition("=")
        if key not in options:
            raise ArgumentError(f"unknown generator option {key!r} in {source!r}")
        try:
            options[key] = int(value)
        except ValueError:
            raise ArgumentError(
                f"generator option {key!r} needs an integer, got {value!r} in {source!r}"
            ) from None
    return _open_automaton(None, parts[1], **options)


def _transformation_from_item(item: str) -> invauto.Transformation:
    source, sep, state = item.rpartition("@")
    if not sep or not source or not state:
        raise ArgumentError(f"expected SOURCE@STATE, got {item!r}")
    return invauto.Transformation(_automaton_from_source(source), state)


def _load_automaton(args: argparse.Namespace):
    return _open_automaton(args.file, args.gen, args.depth, args.length)


def _load_transformation(args: argparse.Namespace) -> invauto.Transformation:
    automaton = _load_automaton(args)
    if not getattr(args, "state", None):
        raise ArgumentError("--state is required for this command")
    return invauto.Transformation(automaton, args.state)


def _load_items(args: argparse.Namespace) -> list[invauto.Transformation]:
    return [_load_transformation(args), *map(_transformation_from_item, args.item or [])]


def _emit(args: argparse.Namespace, lines: list[str], payload: dict) -> int:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def _ep_word(alphabet, text: str) -> invauto.EventuallyPeriodicWord:
    prefix, sep, period = text.partition(":")
    if not sep or not period:
        raise ArgumentError(f"expected PREFIX:PERIOD (prefix may be empty), got {text!r}")
    return invauto.EventuallyPeriodicWord(alphabet.word(prefix), alphabet.word(period))


def _emit_report(args: argparse.Namespace, report) -> int:
    """Print a doubling report; each exact number is converted once, for
    the text lines and the JSON payload alike."""
    exact = invauto.core._exact_str
    items = [h.state for h in report.transformations]
    per_item = [exact(c) for c in report.per_item]
    aggregate, threshold = exact(report.aggregate), exact(report.threshold)
    classes = None if report.period_count is None else exact(report.period_count)
    lines = [f"level {report.level}, block factor {report.block_factor}, kind {report.kind}"]
    lines += [f"  {state}: {count}" for state, count in zip(items, per_item)]
    lines.append(f"aggregate {aggregate} vs threshold {threshold}")
    if classes is not None:
        lines.append(f"period divisor {report.period_divisor} ({classes} period classes)")
    lines.append("satisfied" if report.satisfied else "NOT satisfied")
    payload = {
        "kind": report.kind,
        "level": report.level,
        "block_factor": report.block_factor,
        "items": items,
        "per_item": per_item,
        "aggregate": aggregate,
        "threshold": threshold,
        "satisfied": report.satisfied,
        "period_divisor": report.period_divisor,
        "period_count": classes,
        "note": report.note,
    }
    return _emit(args, lines, payload)


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
    automaton = invauto.generate_builtin(args.family, depth=args.depth, length=args.length)
    sys.stdout.write(invauto.render_dsl(automaton, name=args.family))
    return 0


def cmd_export_dot(args) -> int:
    automaton = _load_automaton(args)
    name = args.gen or Path(args.file).stem
    sys.stdout.write(invauto.render_dot(automaton, name=name))
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
    sys.stdout.write(invauto.render_dsl(invauto.invert(automaton)))
    return 0


def cmd_compose(args) -> int:
    left = _automaton_from_source(args.left)
    right = _automaton_from_source(args.right)
    prune = None
    if args.prune:
        a, sep, b = args.prune.partition(",")
        if not sep:
            raise ArgumentError("--prune expects STATE_A,STATE_B")
        prune = (a.strip(), b.strip())
    sys.stdout.write(invauto.render_dsl(invauto.compose(left, right, prune_from=prune)))
    return 0


def cmd_minimize(args) -> int:
    automaton = _load_automaton(args)
    quotient, mapping = invauto.minimize(automaton)
    if args.json:
        doc = json.loads(invauto.render_json(quotient))
        doc["classes"] = mapping
        print(json.dumps(doc, sort_keys=True))
        return 0
    # refuse a name the DSL cannot carry before anything is printed
    text = invauto.render_dsl(quotient)
    for old in automaton.states:
        invauto.textio._check_dsl_comment(f"{old} -> {mapping[old]}", f"state name {old!r}")
    for old in automaton.states:
        print(f"# {old} -> {mapping[old]}")
    sys.stdout.write(text)
    return 0


def cmd_ucs(args) -> int:
    automaton = _load_automaton(args)
    cycles = invauto.find_ucs(automaton)
    lines = [
        f"length {c.length}: {' -> '.join(c.states + (c.states[0],))}" for c in cycles
    ] or ["no unconditional cycles"]
    payload = {"cycles": [{"length": c.length, "states": list(c.states)} for c in cycles]}
    return _emit(args, lines, payload)


def _cmd_counts(args) -> int:
    g = _load_transformation(args)
    table = getattr(invauto, args.call)(g, args.max_level)
    counts = [invauto.core._exact_str(c) for c in table.counts]
    lines = [f"{level}\t{count}" for level, count in enumerate(counts)]
    payload = {"kind": args.command, "state": g.state, "counts": counts}
    return _emit(args, lines, payload)


def cmd_classify(args) -> int:
    g = _load_transformation(args)
    report = invauto.classify_growth(g)
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
        "rate_bounds": None if bounds is None else [invauto.core._exact_str(b) for b in bounds],
    }
    return _emit(args, [line], payload)


def _cmd_member(args) -> int:
    g = _load_transformation(args)
    decision = getattr(invauto, args.call)(g)
    witness = None if decision.witness is None else g.alphabet.text(decision.witness)
    if decision.member:
        lines = ["member: yes"]
    else:
        lines = [
            f"member: no (witness {witness!r} reaches the escape-proof core)",
            f"core: {', '.join(decision.core)}",
        ]
    payload = {"member": decision.member, "witness": witness, "core": list(decision.core)}
    return _emit(args, lines, payload)


def cmd_lemma1(args) -> int:
    g = _load_transformation(args)
    word = invauto.EventuallyPeriodicWord(
        g.alphabet.word(args.prefix), g.alphabet.word(args.period)
    )
    verdict = invauto.check_lemma1(g, word, word.level)
    if not verdict.applicable:
        lines = ["not applicable: no unconditional cycle reached within the level"]
    else:
        lines = [
            f"holds: {'yes' if verdict.holds else 'NO'} "
            f"(input period {verdict.input_period}, cycle {verdict.cycle_length}, "
            f"observed {verdict.observed_period}, bound {verdict.bound})"
        ]
    return _emit(args, lines, asdict(verdict))


def cmd_lemma2(args) -> int:
    g = _load_transformation(args)
    samples = [_ep_word(g.alphabet, w) for w in args.word]
    verdict = invauto.check_lemma2(g, args.level, args.cycle_bound, args.period_divisor, samples)
    payload = {tally: getattr(verdict, tally) for tally in ("checked", "skipped", "failed")}
    return _emit(args, [", ".join(f"{tally} {n}" for tally, n in payload.items())], payload)


def cmd_periods(args) -> int:
    n = invauto.core._exact_str(invauto.count_periods(args.alphabet_size, args.period_divisor))
    return _emit(args, [n], {"count": n})


# the report commands load their items before they look up the library call,
# so a malformed item exits before ``paradox`` is imported

def cmd_t1_report(args) -> int:
    items = _load_items(args)
    return _emit_report(args, invauto.theorem1_report(items, args.level, args.block_factor))


def cmd_t2_report(args) -> int:
    items = _load_items(args)
    report = invauto.theorem2_report(items, args.level, args.period_divisor, args.block_factor)
    return _emit_report(args, report)


def cmd_min_level(args) -> int:
    items = _load_items(args)
    level = invauto.find_minimal_level(items, args.block_factor, args.l_max)
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
        raise ArgumentError("audit needs at least one transformation")
    alphabet = hs[0].alphabet
    parts = [[alphabet.word(w) for w in part] for part in spec["parts"]]
    audit = invauto.coin_audit(spec["level"], parts, hs)
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

    # each shared option is built once and every subparser reuses its action
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--file", metavar="PATH", help="automaton file (.maut or .json)")
    source.add_argument("--gen", metavar="FAMILY", help="builtin machine family")
    source.add_argument("--depth", type=int, help="materialization depth for --gen")
    source.add_argument(
        "--length", type=int, help="processing length the generated table must serve"
    )
    state = argparse.ArgumentParser(add_help=False)
    state.add_argument("--state", metavar="NAME", help="initial state")
    json_ = argparse.ArgumentParser(add_help=False)
    json_.add_argument("--json", action="store_true", help="machine-readable output")

    def add(name: str, handler, help_: str, parents=(source, state, json_), **defaults):
        p = sub.add_parser(name, help=help_, parents=parents)
        p.set_defaults(handler=handler, **defaults)
        return p

    add("validate", cmd_validate, "check an automaton description", [source, json_])

    p = add("gen", cmd_gen, "print a builtin machine as DSL text", [])
    p.add_argument("family")
    p.add_argument("--depth", type=int)
    p.add_argument("--length", type=int)

    # commands printing a machine description have no JSON form
    add("export-dot", cmd_export_dot, "print the labeled state diagram", [source])

    p = add("apply", cmd_apply, "run a machine on words")
    p.add_argument("word", nargs="*", help="words (default: read from stdin)")

    add("invert", cmd_invert, "print the inverse machine", [source])

    p = add("compose", cmd_compose, "print the product machine (left acts first)", [])
    p.add_argument("left", help="path or gen:FAMILY[:depth=N]")
    p.add_argument("right", help="path or gen:FAMILY[:depth=N]")
    p.add_argument("--prune", metavar="A,B", help="keep only pairs reachable from (A,B)")

    add("minimize", cmd_minimize, "print the behavioral quotient", [source, json_])
    add("ucs", cmd_ucs, "list unconditional cycles", [source, json_])

    # the library call is named here and looked up only when the handler runs
    p = add("ns", _cmd_counts, "count words ending in a nontrivial state, per level",
            call="count_ns")
    p.add_argument("--max-level", type=int, required=True)
    p = add("nc", _cmd_counts, "count words avoiding all unconditional cycles, per level",
            call="count_nc")
    p.add_argument("--max-level", type=int, required=True)

    add("classify", cmd_classify, "growth class of the activity counts")
    add("member-g0", _cmd_member, "exact small-activity membership", call="decide_g0")
    add("member-g1", _cmd_member, "exact small-cycle-avoidance membership", call="decide_g1")

    p = add("lemma1", cmd_lemma1, "image period divisibility for one word")
    p.add_argument("--prefix", required=True, help="prefix (may be empty: '')")
    p.add_argument("--period", required=True)

    p = add("lemma2", cmd_lemma2, "period-class closure over sample words")
    p.add_argument("-l", "--level", type=int, required=True)
    p.add_argument("-c", "--cycle-bound", type=int, required=True)
    p.add_argument("-m", "--period-divisor", type=int, required=True)
    p.add_argument("--word", action="append", default=[], metavar="PREFIX:PERIOD")

    p = add("periods", cmd_periods, "count primitive periods with length dividing m", [])
    p.add_argument("-k", "--alphabet-size", type=int, required=True)
    p.add_argument("-m", "--period-divisor", type=int, required=True)
    p.add_argument("--json", action="store_true")

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

    p = add("audit", cmd_audit, "replay a candidate doubling scheme from JSON", [])
    p.add_argument("--input", required=True, metavar="PATH")
    p.add_argument("--json", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AutomatonError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
