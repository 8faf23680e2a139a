"""Textual automaton formats: a line-oriented DSL, JSON, and DOT export.

The DSL looks like::

    # adding machine
    alphabet: 0 1
    state q:
      0 -> e | 1
      1 -> q | 0
    state e:
      0 -> e | 0
      1 -> e | 1

The initial state is deliberately not part of the file; it is chosen when a
machine is started.  JSON uses ``{"alphabet": [...], "states": {"q": {"0":
["e", "1"], ...}}}`` with optional ``name``/``description`` metadata.  Both
renderers emit deterministic output so files are diffable and round-trips
are stable.
"""

from __future__ import annotations

import json

from .core import Automaton
from .errors import ParseError, ValidationError


def parse_automaton(text: str) -> Automaton:
    """Parse either format, sniffing JSON by its leading ``{`` or ``[``."""
    return parse_document(text)[0]


def parse_document(text: str) -> tuple[Automaton, dict[str, str]]:
    """Like :func:`parse_automaton` but also returns metadata (name, ...)."""
    # no DSL text starts with either: its first line must be ``alphabet:``
    if text.lstrip().startswith(("{", "[")):
        return _parse_json(text)
    return _parse_dsl(text), {}


def _parse_dsl(text: str) -> Automaton:
    symbols: tuple[str, ...] | None = None
    table: dict[str, dict[str, tuple[str, str]]] = {}
    current: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        stripped = line.strip()

        if stripped.startswith("alphabet:"):
            if symbols is not None:
                raise ParseError("duplicate alphabet line", lineno, indent + 1)
            symbols = tuple(stripped[len("alphabet:"):].split())
            if not symbols:
                raise ParseError("alphabet line lists no letters", lineno, indent + 1)
            continue

        if symbols is None:
            raise ParseError("expected an alphabet line first", lineno, indent + 1)

        if stripped.startswith("state ") or stripped.startswith("state\t"):
            name = stripped[len("state"):].strip()
            if not name.endswith(":"):
                raise ParseError("state header must end with ':'", lineno, len(line))
            name = name[:-1].strip()
            if not name or " " in name:
                raise ParseError("bad state name", lineno, indent + 1)
            if name in table:
                raise ParseError(f"duplicate state {name!r}", lineno, indent + 1)
            table[name] = {}
            current = name
            continue

        if current is None:
            raise ParseError("transition before any state header", lineno, indent + 1)

        # a missing '->' or '|' leaves the state part empty
        left, _, rest = stripped.partition("->")
        middle, _, out = rest.rpartition("|")
        letter, nxt, out = left.strip(), middle.strip(), out.strip()
        if not letter or not nxt or not out:
            raise ParseError(
                "expected '<letter> -> <state> | <letter>'", lineno, indent + 1
            )
        if letter not in symbols:
            raise ParseError(f"unknown letter {letter!r}", lineno, line.find(letter) + 1)
        if out not in symbols:
            raise ParseError(f"unknown letter {out!r}", lineno, line.rfind(out) + 1)
        if letter in table[current]:
            raise ParseError(
                f"duplicate transition for letter {letter!r} in state {current!r}",
                lineno,
                indent + 1,
            )
        table[current][letter] = (nxt, out)

    if symbols is None:
        raise ParseError("empty description: no alphabet line")
    if not table:
        raise ParseError("empty description: no states")
    return Automaton.from_table(symbols, table)


def _parse_json(text: str) -> tuple[Automaton, dict[str, str]]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in ("alphabet", "states"):
        if key not in data:
            raise ParseError(f"missing top-level key {key!r}")
    if not isinstance(data["alphabet"], list):
        raise ParseError("'alphabet' must be an array")
    if not isinstance(data["states"], dict):
        raise ParseError("'states' must be an object")
    table: dict[str, dict[str, tuple[str, str]]] = {}
    for name, row in data["states"].items():
        if not isinstance(row, dict):
            raise ParseError(f"state {name!r} must map letters to pairs")
        entries = {}
        for letter, pair in row.items():
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ParseError(
                    f"state {name!r}, letter {letter!r}: expected [next, output]"
                )
            entries[letter] = (str(pair[0]), str(pair[1]))
        table[name] = entries
    meta = {
        key: str(data[key]) for key in ("name", "description") if key in data
    }
    return Automaton.from_table(tuple(str(s) for s in data["alphabet"]), table), meta


def _check_dsl_names(automaton: Automaton) -> None:
    """Refuse the first name the DSL reader would not give back: it splits
    lines at line breaks, cuts each at ``#``, refuses a space in a state
    header, splits a transition at its first ``->`` and last ``|``, strips
    the space around each name, and reads a line starting ``alphabet:`` or
    ``state `` as a header."""
    for state in automaton.states:
        if state.splitlines() != [state] or state != state.strip() or " " in state or "#" in state:
            raise ValidationError(f"state name {state!r} cannot be written in the DSL")
    for letter in automaton.alphabet.symbols:
        if (
            any(bad in letter for bad in ("#", "|", "->"))
            or letter == "state"
            or letter.startswith("alphabet:")
        ):
            raise ValidationError(f"letter {letter!r} cannot be written in the DSL")


def _check_dsl_comment(text: str, what: str) -> None:
    """Refuse ``text`` as a ``#`` comment unless the DSL reader, which splits
    lines where ``str.splitlines`` does, reads it as the one line it is;
    ``what`` names it in the error."""
    if text.splitlines() != [text]:
        raise ValidationError(f"{what} cannot be written in a DSL comment")


def render_dsl(automaton: Automaton, name: str | None = None) -> str:
    """Deterministic DSL text; ``parse_automaton`` gives the machine back.

    Raises ``ValidationError`` for a machine whose state names or letters
    the DSL cannot carry, or a ``name`` its header comment cannot; JSON
    carries any name.
    """
    _check_dsl_names(automaton)
    lines = []
    if name:
        _check_dsl_comment(name, f"name {name!r}")
        lines.append(f"# {name}")
    lines.append("alphabet: " + " ".join(automaton.alphabet.symbols))
    for q, state in enumerate(automaton.states):
        lines.append(f"state {state}:")
        for x, letter in enumerate(automaton.alphabet.symbols):
            nxt = automaton.states[automaton.transitions[q][x]]
            out = automaton.alphabet.symbols[automaton.outputs[q][x]]
            lines.append(f"  {letter} -> {nxt} | {out}")
    return "\n".join(lines) + "\n"


def render_json(
    automaton: Automaton,
    name: str | None = None,
    description: str | None = None,
) -> str:
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
    doc: dict = {"alphabet": list(automaton.alphabet.symbols), "states": states}
    if name is not None:
        doc["name"] = name
    if description is not None:
        doc["description"] = description
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(automaton: Automaton, name: str = "automaton") -> str:
    """DOT digraph with one edge per (state, letter), labeled input|output.

    States are emitted in table order and letters in alphabet order, so the
    output is byte-stable.
    """
    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;"]
    for state in automaton.states:
        lines.append(f"  {_quote(state)} [shape=circle];")
    for q, state in enumerate(automaton.states):
        for x, letter in enumerate(automaton.alphabet.symbols):
            nxt = automaton.states[automaton.transitions[q][x]]
            out = automaton.alphabet.symbols[automaton.outputs[q][x]]
            lines.append(
                f"  {_quote(state)} -> {_quote(nxt)} [label={_quote(f'{letter}|{out}')}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
