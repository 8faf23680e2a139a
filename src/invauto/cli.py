"""Command-line interface exposing every library operation.

Machines come from files (``--file machine.maut`` or ``.json``) or builtin
generators (``--gen adding``).  Commands taking several transformations
accept extra ``--item SOURCE@STATE`` arguments, where SOURCE is a path or
``gen:FAMILY[:depth=N]``.  ``--json`` switches to machine-readable output in
which every exact count is a decimal string, never a float.

Exit status: 0 on success (a false verdict is still a success), 1 on domain
errors, 2 on usage or parse errors (an argument a library call rejects is a
usage error).

Each ``cmd_*`` handler returns its stdout text and writes nothing;
:func:`main` is the one writer of stdout, and only after the handler has
succeeded, so a failed call leaves stdout empty.  Every ``error:`` line,
argparse's usage errors included (:class:`_Parser`), goes to stderr only,
through :func:`_to_stderr`.

A CLI process (``python -m invauto.cli`` or the ``invauto`` script, both
:func:`run`) ends right after :func:`main` returns and stderr is flushed,
without interpreter teardown, so ``atexit`` hooks that a ``sitecustomize``
or ``.pth`` file registers do not run in it (coverage's subprocess
measurement is one).  In-process callers use :func:`main`, which returns.

A call pays only for its own subcommand.  The library is reached through
the ``invauto`` namespace, which imports each submodule on first use, and a
call naming a subcommand first builds only that subcommand's parser
(:func:`build_parser`); help, no argument or an unknown subcommand build
the parser of every subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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
    if family is None and (depth, length) != (None, None):
        raise ArgumentError("--depth and --length go with --gen only")
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
        if options[key] is not None:
            raise ArgumentError(f"generator option {key!r} given twice in {source!r}")
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
    if not args.state:
        raise ArgumentError("--state is required for this command")
    return invauto.Transformation(automaton, args.state)


def _load_items(args: argparse.Namespace) -> list[invauto.Transformation]:
    return [_load_transformation(args), *map(_transformation_from_item, args.item or [])]


def _emit(args: argparse.Namespace, lines: list[str], payload: dict) -> str:
    """The text lines, or with ``--json`` the payload as one JSON line."""
    if args.json:
        return json.dumps(payload, sort_keys=True) + "\n"
    return "".join(f"{line}\n" for line in lines)


def _ep_word(alphabet, text: str) -> invauto.EventuallyPeriodicWord:
    prefix, sep, period = text.partition(":")
    if not sep or not period:
        raise ArgumentError(f"expected PREFIX:PERIOD (prefix may be empty), got {text!r}")
    return invauto.EventuallyPeriodicWord(alphabet.word(prefix), alphabet.word(period))


def _emit_report(args: argparse.Namespace, report) -> str:
    """A doubling report's text; each exact number is converted once, for
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


def cmd_validate(args) -> str:
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


def cmd_gen(args) -> str:
    automaton = invauto.generate_builtin(args.family, depth=args.depth, length=args.length)
    return invauto.render_dsl(automaton, name=args.family)


def cmd_export_dot(args) -> str:
    automaton = _load_automaton(args)
    name = args.gen or Path(args.file).stem
    return invauto.render_dot(automaton, name=name)


def cmd_apply(args) -> str:
    g = _load_transformation(args)
    words = args.word
    if not words:  # a stdin that is None (fd 0 closed at start) holds no words
        words = [line.strip() for line in sys.stdin or () if line.strip()]
    outputs = [g.apply_text(w) for w in words]
    return _emit(args, outputs, {"outputs": outputs})


def cmd_invert(args) -> str:
    automaton = _load_automaton(args)
    return invauto.render_dsl(invauto.invert(automaton))


def _split_prune(text: str, left, right) -> tuple[str, str]:
    """``--prune STATE_A,STATE_B``, split at the comma where the stripped left
    part names a state of ``left`` and the right part one of ``right``: the
    state names of a product hold commas themselves.  Two such commas are
    refused; with none, the split is at the first comma, and compose names
    the unknown state."""
    splits = [(text[:i].strip(), text[i + 1:].strip()) for i, ch in enumerate(text) if ch == ","]
    if not splits:
        raise ArgumentError("--prune expects STATE_A,STATE_B")
    left_names, right_names = set(left.states), set(right.states)
    readings = [(a, b) for a, b in splits if a in left_names and b in right_names]
    if len(readings) > 1:
        shown = " or ".join(map(repr, readings))
        raise ArgumentError(f"--prune {text!r} is ambiguous: it reads as {shown}")
    return readings[0] if readings else splits[0]


def cmd_compose(args) -> str:
    left = _automaton_from_source(args.left)
    right = _automaton_from_source(args.right)
    prune = _split_prune(args.prune, left, right) if args.prune else None
    return invauto.render_dsl(invauto.compose(left, right, prune_from=prune))


def cmd_minimize(args) -> str:
    automaton = _load_automaton(args)
    quotient, mapping = invauto.minimize(automaton)
    if args.json:
        return _emit(args, [], {**invauto.textio._json_doc(quotient), "classes": mapping})
    # refuse a name the DSL cannot carry, in the machine or in a comment
    text = invauto.render_dsl(quotient)
    for old in automaton.states:
        invauto.textio._check_dsl_comment(f"{old} -> {mapping[old]}", f"state name {old!r}")
    return "".join(f"# {old} -> {mapping[old]}\n" for old in automaton.states) + text


def cmd_ucs(args) -> str:
    automaton = _load_automaton(args)
    cycles = invauto.find_ucs(automaton)
    lines = [
        f"length {c.length}: {' -> '.join(c.states + (c.states[0],))}" for c in cycles
    ] or ["no unconditional cycles"]
    payload = {"cycles": [{"length": c.length, "states": list(c.states)} for c in cycles]}
    return _emit(args, lines, payload)


def _cmd_counts(args) -> str:
    g = _load_transformation(args)
    table = getattr(invauto, args.call)(g, args.max_level)
    counts = [invauto.core._exact_str(c) for c in table.counts]
    lines = [f"{level}\t{count}" for level, count in enumerate(counts)]
    payload = {"kind": args.command, "state": g.state, "counts": counts}
    return _emit(args, lines, payload)


def cmd_classify(args) -> str:
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


def _cmd_member(args) -> str:
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


def cmd_lemma1(args) -> str:
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
    return _emit(args, lines, {name: getattr(verdict, name) for name in verdict._fields})


def cmd_lemma2(args) -> str:
    g = _load_transformation(args)
    samples = [_ep_word(g.alphabet, w) for w in args.word]
    verdict = invauto.check_lemma2(g, args.level, args.cycle_bound, args.period_divisor, samples)
    payload = {tally: getattr(verdict, tally) for tally in ("checked", "skipped", "failed")}
    return _emit(args, [", ".join(f"{tally} {n}" for tally, n in payload.items())], payload)


def cmd_periods(args) -> str:
    n = invauto.core._exact_str(invauto.count_periods(args.alphabet_size, args.period_divisor))
    return _emit(args, [n], {"count": n})


# the report commands load their items before they look up the library call,
# so a malformed item exits before ``paradox`` is imported

def cmd_t1_report(args) -> str:
    items = _load_items(args)
    return _emit_report(args, invauto.theorem1_report(items, args.level, args.block_factor))


def cmd_t2_report(args) -> str:
    items = _load_items(args)
    report = invauto.theorem2_report(items, args.level, args.period_divisor, args.block_factor)
    return _emit_report(args, report)


def cmd_min_level(args) -> str:
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
    """The audit spec in ``path``, read as a machine document is (a repeated
    key refused, every key present, then each of the right type)."""
    text = _read_text(path)
    try:
        return invauto.textio._json_object(text, _AUDIT_KEYS)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def cmd_audit(args) -> str:
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
    if not args.json:  # the payload would write out every word of the level
        return _emit(args, lines, {})
    return _emit(args, lines, {
        "level": audit.level,
        "total_coins": str(audit.total_coins),
        "coin_counts": {alphabet.text(w): str(c) for w, c in audit.coin_counts.items()},
        "deficit": [alphabet.text(w) for w in audit.deficit],
        "doubling": audit.doubling,
    })


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors reach stderr only, through
    :func:`_to_stderr`, and whose help reaches stdout only.  argparse's own
    ``error`` prints the usage with ``print_usage(sys.stderr)``, which falls
    back to stdout when stderr is None (fd 2 closed at start); on Python
    3.10 the error line then fails with exit 1.  Its ``print_help`` falls
    back to stderr when stdout is None.  The subparsers are built from this
    class too."""

    def error(self, message):
        _to_stderr(f"{self.format_usage()}{self.prog}: error: {message}\n")
        sys.exit(2)

    def print_help(self, file=None):
        file = file or sys.stdout
        if file is not None:  # None: fd 1 was closed at start
            super().print_help(file)


class _Root(_Parser):
    """The top-level parser when it holds one subcommand
    (:func:`build_parser`): a usage error of its own shows the usage of the
    full parser, which names every subcommand."""

    def format_usage(self):
        return build_parser().format_usage()


def _arg(*flags, **options):
    """One ``add_argument`` call, as data."""
    return flags, options


# the options several subcommands share
_SOURCE = (
    _arg("--file", metavar="PATH", help="automaton file (.maut or .json)"),
    _arg("--gen", metavar="FAMILY", help="builtin machine family"),
)
_DEPTH = (
    _arg("--depth", type=int, help="materialization depth for --gen"),
    _arg("--length", type=int, help="processing length the generated table must serve"),
)
_STATE = (_arg("--state", metavar="NAME", help="initial state"),)
_JSON = (_arg("--json", action="store_true", help="machine-readable output"),)
_MACHINE = _SOURCE + _DEPTH
_START = _MACHINE + _STATE + _JSON
_LEVEL = _arg("-l", "--level", type=int, required=True)
_DIVISOR = _arg("-m", "--period-divisor", type=int, required=True)
_BLOCK = _arg("-s", "--block-factor", type=int, default=8)
_ITEM = _arg("--item", action="append", metavar="SOURCE@STATE")
_MAX_LEVEL = _arg("--max-level", type=int, required=True)

# subcommand -> handler, help line, arguments and defaults, in the order the
# help lists them; commands printing a machine description have no JSON form,
# and a shared handler's library call is named here and looked up only when
# the handler runs
_COMMANDS = {
    "validate": (cmd_validate, "check an automaton description", _MACHINE + _JSON),
    "gen": (cmd_gen, "print a builtin machine as DSL text", (*_DEPTH, _arg("family"))),
    "export-dot": (cmd_export_dot, "print the labeled state diagram", _MACHINE),
    "apply": (cmd_apply, "run a machine on words", (
        *_START, _arg("word", nargs="*", help="words (default: read from stdin)"),
    )),
    "invert": (cmd_invert, "print the inverse machine", _MACHINE),
    "compose": (cmd_compose, "print the product machine (left acts first)", (
        _arg("left", help="path or gen:FAMILY[:depth=N]"),
        _arg("right", help="path or gen:FAMILY[:depth=N]"),
        _arg("--prune", metavar="A,B", help="keep only pairs reachable from (A,B)"),
    )),
    "minimize": (cmd_minimize, "print the behavioral quotient", _MACHINE + _JSON),
    "ucs": (cmd_ucs, "list unconditional cycles", _MACHINE + _JSON),
    "ns": (_cmd_counts, "count words ending in a nontrivial state, per level",
           (*_START, _MAX_LEVEL), {"call": "count_ns"}),
    "nc": (_cmd_counts, "count words avoiding all unconditional cycles, per level",
           (*_START, _MAX_LEVEL), {"call": "count_nc"}),
    "classify": (cmd_classify, "growth class of the activity counts", _START),
    "member-g0": (_cmd_member, "exact small-activity membership", _START, {"call": "decide_g0"}),
    "member-g1": (_cmd_member, "exact small-cycle-avoidance membership", _START,
                  {"call": "decide_g1"}),
    "lemma1": (cmd_lemma1, "image period divisibility for one word", (
        *_START,
        _arg("--prefix", required=True, help="prefix (may be empty: '')"),
        _arg("--period", required=True),
    )),
    "lemma2": (cmd_lemma2, "period-class closure over sample words", (
        *_START, _LEVEL,
        _arg("-c", "--cycle-bound", type=int, required=True),
        _DIVISOR,
        # argparse appends to a copy, so this one default list stays empty
        _arg("--word", action="append", default=[], metavar="PREFIX:PERIOD"),
    )),
    "periods": (cmd_periods, "count primitive periods with length dividing m", (
        *_JSON, _arg("-k", "--alphabet-size", type=int, required=True), _DIVISOR,
    )),
    "t1-report": (cmd_t1_report, "activity-based doubling bound at one level",
                  (*_START, _LEVEL, _BLOCK, _ITEM)),
    "t2-report": (cmd_t2_report, "cycle-avoidance doubling bound at one level",
                  (*_START, _LEVEL, _DIVISOR, _BLOCK, _ITEM)),
    "min-level": (cmd_min_level, "smallest level satisfying the activity bound", (
        *_START, _BLOCK, _arg("--l-max", type=int, default=64), _ITEM,
    )),
    "audit": (cmd_audit, "replay a candidate doubling scheme from JSON", (
        *_JSON, _arg("--input", required=True, metavar="PATH"),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with every subcommand, or with ``command`` (a key
    of :data:`_COMMANDS`) only: its parse of a call naming ``command`` first
    is the full parser's, and so are its help and usage errors."""
    root = _Parser if command is None else _Root
    parser = root(
        prog="invauto",
        description="invertible letter-to-letter automata: algebra, counting, audits",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in _COMMANDS if command is None else (command,):
        handler, help_, arguments, *defaults = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(handler=handler, **(defaults[0] if defaults else {}))
    return parser


def _to_stderr(text: str) -> None:
    """Write ``text`` to stderr.  A stderr that is None (fd 2 closed at
    start) is skipped, and a failure to write it is ignored: the exit code
    still tells the error."""
    try:
        if sys.stderr is not None:
            sys.stderr.write(text)
    except OSError:
        pass


def _error(message, code: int) -> int:
    """Write one ``error:`` line to stderr and return ``code``."""
    _to_stderr(f"error: {message}\n")
    return code


def main(argv: list[str] | None = None) -> int:
    """Run one CLI call and return its exit code; a stdout that cannot take
    the text (its reader gone, an encoding that lacks a character) is exit 1."""
    if argv is None:
        argv = sys.argv[1:]
    # a call naming a subcommand first builds that subcommand's parser only
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        text = args.handler(args)
        if sys.stdout is not None:  # None: fd 1 was closed at start
            sys.stdout.write(text)
            sys.stdout.flush()
        return 0
    except (ParseError, ArgumentError) as exc:
        return _error(exc, 2)
    except (AutomatonError, OSError, UnicodeEncodeError) as exc:
        return _error(exc, 1)
    except MemoryError:
        return _error("out of memory", 1)


def run() -> None:
    """Entry point of ``python -m invauto.cli`` and the ``invauto`` script:
    :func:`main`, which has written and flushed stdout, then stderr is
    flushed and the process ends with the exit code, without interpreter
    teardown (``os._exit``).  A ``SystemExit`` from argument parsing exits
    the usual way."""
    code = main()
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
