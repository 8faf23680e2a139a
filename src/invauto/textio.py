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
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import ParseError, ValidationError

if TYPE_CHECKING:  # the readers import it when they run: the CLI reads audit specs without it
    from .core import Automaton


def parse_automaton(text: str) -> Automaton:
    """Parse either format, sniffing JSON by its leading ``{`` or ``[``."""
    return parse_document(text)[0]


def parse_document(text: str) -> tuple[Automaton, dict[str, str]]:
    """Like :func:`parse_automaton` but also returns metadata (name, ...)."""
    # no DSL text starts with either: its first line must be ``alphabet:``
    if text.lstrip().startswith(("{", "[")):
        return _parse_json(text)
    return _parse_dsl(text), {}


def _code(raw: str) -> str:
    """A DSL line as the reader reads it: cut at ``#``, trailing space dropped."""
    return raw.partition("#")[0].rstrip()


def _column(raw: str) -> int:
    """The 1-based column where a DSL line's text starts, past its indent."""
    return len(raw) - len(raw.lstrip()) + 1


def _parse_dsl(text: str) -> Automaton:
    symbols: tuple[str, ...] | None = None
    table: dict[str, dict[str, tuple[str, str]]] = {}
    current = row = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.partition("#")[0].strip()
        if not stripped:
            continue

        if stripped.startswith("alphabet:"):
            if symbols is not None:
                raise ParseError("duplicate alphabet line", lineno, _column(raw))
            symbols = tuple(stripped[len("alphabet:"):].split())
            if not symbols:
                raise ParseError("alphabet line lists no letters", lineno, _column(raw))
            letters = dict.fromkeys(symbols)
            continue

        if symbols is None:
            raise ParseError("expected an alphabet line first", lineno, _column(raw))

        if stripped.startswith(("state ", "state\t")):
            name = stripped[len("state"):].strip()
            if not name.endswith(":"):
                raise ParseError("state header must end with ':'", lineno, len(_code(raw)))
            name = name[:-1].strip()
            if not name or " " in name or name in table:
                message = f"duplicate state {name!r}" if name in table else "bad state name"
                raise ParseError(message, lineno, _column(raw))
            current, row = name, {}
            table[name] = row
            continue

        # a missing '->' or '|' leaves the state part empty; a good line takes
        # one test, and the checks after it name the first fault of a bad one
        left, _, rest = stripped.partition("->")
        middle, _, out = rest.rpartition("|")
        letter, nxt, out = left.strip(), middle.strip(), out.strip()
        if row is not None and nxt and letter in letters and out in letters and letter not in row:
            row[letter] = (nxt, out)
            continue
        if row is None:
            raise ParseError("transition before any state header", lineno, _column(raw))
        if not letter or not nxt or not out:
            raise ParseError("expected '<letter> -> <state> | <letter>'", lineno, _column(raw))
        if letter not in symbols:
            raise ParseError(f"unknown letter {letter!r}", lineno, _code(raw).find(letter) + 1)
        if out not in symbols:
            raise ParseError(f"unknown letter {out!r}", lineno, _code(raw).rfind(out) + 1)
        message = f"duplicate transition for letter {letter!r} in state {current!r}"
        raise ParseError(message, lineno, _column(raw))

    if symbols is None:
        raise ParseError("empty description: no alphabet line")
    if not table:
        raise ParseError("empty description: no states")
    from .core import Automaton
    return Automaton.from_table(symbols, table)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key, whose last value json keeps, is refused."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        repeated = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ParseError(f"duplicate key {repeated!r} in a JSON object")
    return obj


def _json_object(text: str, keys, optional=()) -> dict:
    """The JSON object in ``text``, a repeated key refused.  ``keys`` lists
    ``(key, test, what)``: every key must be present, then each value must
    pass its ``test``, and ``what`` says what it must be.  A key of
    ``optional``, listed the same way, is tested after them when present."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    for key, _, _ in keys:
        if key not in data:
            raise ParseError(f"missing top-level key {key!r}")
    for key, valid, what in (*keys, *optional):
        if key in data and not valid(data[key]):
            raise ParseError(f"{key!r} must be {what}")
    return data


_MACHINE_KEYS = (
    ("alphabet", lambda v: isinstance(v, list), "an array"),
    ("states", lambda v: isinstance(v, dict), "an object"),
)
_METADATA_KEYS = (
    ("name", lambda v: isinstance(v, str), "a string"),
    ("description", lambda v: isinstance(v, str), "a string"),
)


def _parse_json(text: str) -> tuple[Automaton, dict[str, str]]:
    """The document's keys are checked here; its table, as it is written,
    by ``from_table`` alone, which names the first fault in state order."""
    data = _json_object(text, _MACHINE_KEYS, _METADATA_KEYS)
    meta = {key: data[key] for key, _, _ in _METADATA_KEYS if key in data}
    from .core import Automaton
    return Automaton.from_table(data["alphabet"], data["states"]), meta


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


def _check_text(value, what: str) -> None:
    """Refuse metadata that is not a str, named by its type (a repr may hold
    a memory address): the JSON reader would refuse it, and the DSL and DOT
    writers write only text."""
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a str, not {type(value).__name__}")


def _check_dsl_comment(text: str, what: str) -> None:
    """Refuse ``text`` as a ``#`` comment unless the DSL reader, which splits
    lines where ``str.splitlines`` does, reads it as the one line it is;
    ``what`` names it in the error."""
    if text.splitlines() != [text]:
        raise ValidationError(f"{what} cannot be written in a DSL comment")


def render_dsl(automaton: Automaton, name: str | None = None) -> str:
    """Deterministic DSL text; ``parse_automaton`` gives the machine back.

    Raises ``ValidationError`` for a machine whose state names or letters
    the DSL cannot carry, or a ``name`` that is not a str or that its header
    comment cannot carry; JSON carries any str name.
    """
    if name is not None:
        _check_text(name, "name")
    _check_dsl_names(automaton)
    lines = []
    if name:
        _check_dsl_comment(name, f"name {name!r}")
        lines.append(f"# {name}")
    symbols, states = automaton.alphabet.symbols, automaton.states
    lines.append("alphabet: " + " ".join(symbols))
    for state, trow, orow in zip(states, automaton.transitions, automaton.outputs):
        lines.append(f"state {state}:")
        for letter, t, y in zip(symbols, trow, orow):
            lines.append(f"  {letter} -> {states[t]} | {symbols[y]}")
    return "\n".join(lines) + "\n"


def _json_doc(
    automaton: Automaton,
    name: str | None = None,
    description: str | None = None,
) -> dict:
    """The JSON document of ``automaton``, as :func:`parse_document` reads
    it back: the alphabet, each state's row keyed by letter, and the
    metadata that is given."""
    symbols, names = automaton.alphabet.symbols, automaton.states
    states = {
        state: {letter: [names[t], symbols[y]] for letter, t, y in zip(symbols, trow, orow)}
        for state, trow, orow in zip(names, automaton.transitions, automaton.outputs)
    }
    doc: dict = {"alphabet": list(symbols), "states": states}
    if name is not None:
        doc["name"] = name
    if description is not None:
        doc["description"] = description
    return doc


def render_json(
    automaton: Automaton,
    name: str | None = None,
    description: str | None = None,
) -> str:
    """Exactly ``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline,
    ``doc`` being the machine's document (:func:`_json_doc`), written here
    key by key in sorted order: with an indent json falls back to its
    pure-Python encoder.  Every string is escaped by the C function json
    itself uses.  A ``name`` or ``description`` that is not a str raises
    ``ValidationError``: the reader would refuse it."""
    if name is not None:
        _check_text(name, "name")
    if description is not None:
        _check_text(description, "description")
    symbols, states = automaton.alphabet.symbols, automaton.states
    letter_text = list(map(encode_basestring_ascii, symbols))
    state_text = list(map(encode_basestring_ascii, states))
    letters = sorted(range(len(symbols)), key=symbols.__getitem__)
    parts = ['{\n  "alphabet": [\n    ', ",\n    ".join(letter_text), "\n  ],\n"]
    if description is not None:
        parts += ('  "description": ', json.dumps(description), ",\n")
    if name is not None:
        parts += ('  "name": ', json.dumps(name), ",\n")
    # a state's block is one %-template, filled for every state at C speed:
    # its name, then next state and output for each letter in sorted order
    # ('%' in a letter is doubled, so the template prints it as it is)
    entry = "      %s: [\n        %%s,\n        %%s\n      ]"
    rows = ",\n".join(entry % letter_text[x].replace("%", "%%") for x in letters)
    template = "    %s: {\n" + rows + "\n    }"
    fields = [state_text]
    for x in letters:
        fields.append(map(state_text.__getitem__, map(itemgetter(x), automaton.transitions)))
        fields.append(map(letter_text.__getitem__, map(itemgetter(x), automaton.outputs)))
    blocks = list(map(template.__mod__, zip(*fields)))
    order = sorted(range(len(states)), key=states.__getitem__)
    parts += ('  "states": {\n', ",\n".join(map(blocks.__getitem__, order)), "\n  }\n}\n")
    return "".join(parts)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(automaton: Automaton, name: str = "automaton") -> str:
    """DOT digraph with one edge per (state, letter), labeled input|output.

    States are emitted in table order and letters in alphabet order, so the
    output is byte-stable.  A ``name`` that is not a str raises
    ``ValidationError``.
    """
    _check_text(name, "name")
    symbols, states = automaton.alphabet.symbols, automaton.states
    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;"]
    for state in states:
        lines.append(f"  {_quote(state)} [shape=circle];")
    for state, trow, orow in zip(states, automaton.transitions, automaton.outputs):
        source = f"  {_quote(state)} -> "
        for letter, t, y in zip(symbols, trow, orow):
            lines.append(f"{source}{_quote(states[t])} [label={_quote(f'{letter}|{symbols[y]}')}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
