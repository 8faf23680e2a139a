"""DSL and JSON parsing, rendering round trips, DOT export."""

from __future__ import annotations

from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invauto as iv
from invauto import textio
from helpers import adding, flip_alternator, full_corpus, named_table, uv_core

DATA = Path(__file__).parent / "data"


def test_parse_dsl_adding_machine():
    machine = iv.parse_automaton((DATA / "adding.maut").read_text())
    assert machine.n_states == 2
    assert named_table(machine) == named_table(adding())


def test_parse_json_adding_machine():
    machine, meta = iv.parse_document((DATA / "adding.json").read_text())
    assert named_table(machine) == named_table(adding())
    assert meta["name"] == "adding"


def test_dsl_round_trip_on_corpus():
    for g in full_corpus(remark_depth=4):
        machine = g.automaton
        again = iv.parse_automaton(iv.render_dsl(machine))
        assert named_table(again) == named_table(machine)
        assert again.alphabet == machine.alphabet


def _machine(states, letters):
    """The q-th state moves to the next state (cyclically) on every letter
    and writes the letter q places after the one it reads."""
    n, k = len(states), len(letters)
    return iv.Automaton.from_table(letters, {
        state: {x: (states[(q + 1) % n], letters[(i + q) % k]) for i, x in enumerate(letters)}
        for q, state in enumerate(states)
    })


def _reads_back(machine, text):
    try:
        again = iv.parse_automaton(text)
    except iv.AutomatonError:
        return False
    return named_table(again) == named_table(machine)


@pytest.mark.parametrize("states, letters, refused", [
    (["", "q"], ["0", "1"], "state name ''"),
    (["a b", "q"], ["0", "1"], "state name 'a b'"),
    (["a#b", "q"], ["0", "1"], "state name 'a#b'"),
    (["q\t", "p"], ["0", "1"], "state name 'q\\t'"),
    (["a\nb", "q"], ["0", "1"], "state name 'a\\nb'"),
    (["q"], ["#", "1"], "letter '#'"),
    (["q"], ["|", "1"], "letter '|'"),
    (["q"], ["state", "1"], "letter 'state'"),
    (["q"], ["alphabet:x", "1"], "letter 'alphabet:x'"),
    (["q"], ["a->b", "1"], "letter 'a->b'"),
])
def test_dsl_refuses_a_name_it_cannot_read_back(states, letters, refused):
    machine = _machine(states, letters)
    with mock.patch.object(textio, "_check_dsl_names"):
        assert not _reads_back(machine, iv.render_dsl(machine))
    with pytest.raises(iv.ValidationError) as info:
        iv.render_dsl(machine)
    assert str(info.value) == f"{refused} cannot be written in the DSL"
    assert _reads_back(machine, iv.render_json(machine))


@pytest.mark.parametrize("name, refused", [
    ("x\nstate y:", True),
    ("x\rstate y:", True),
    ("adds one # to | a -> word", False),
])
def test_dsl_header_comment_reads_back_or_is_refused(name, refused):
    machine = adding()
    if refused:
        with mock.patch.object(textio, "_check_dsl_comment"):
            assert not _reads_back(machine, iv.render_dsl(machine, name=name))
        with pytest.raises(iv.ValidationError) as info:
            iv.render_dsl(machine, name=name)
        assert str(info.value) == f"name {name!r} cannot be written in a DSL comment"
    else:
        text = iv.render_dsl(machine, name=name)
        assert text.startswith(f"# {name}\n") and _reads_back(machine, text)


def test_dsl_carries_separators_inside_state_names():
    machine = _machine(["a|b", "a->b", "a:b", "state", "alphabet:", "x\ty"], ["0", "1", ":", "-"])
    assert _reads_back(machine, iv.render_dsl(machine))


def test_dsl_refuses_no_builtin_or_data_machine():
    machines = [iv.generate_builtin(family, depth=3) for family in iv.BUILTIN_FAMILIES]
    machines += [iv.parse_automaton(path.read_text()) for path in sorted(DATA.glob("adding.*"))]
    for machine in machines:
        assert _reads_back(machine, iv.render_dsl(machine))


_PIECES = ("0", "a", "#", "|", "-", ">", "->", ":", "state", "alphabet:",
           " ", "\t", "\n", "\u2028", "\xa0")
_names = st.lists(st.sampled_from(_PIECES), max_size=4).map("".join)
# an Alphabet refuses empty letters and letters holding whitespace
_letters = st.lists(
    st.sampled_from([p for p in _PIECES if not p.isspace()]), min_size=1, max_size=4
).map("".join)


@st.composite
def _named_machines(draw):
    """One drawn state name beside ``q`` and one drawn letter beside ``0``,
    so a refusal can only be about the drawn names."""
    states = ["q", draw(_names.filter(lambda name: name != "q"))]
    letters = ["0", draw(_letters.filter(lambda letter: letter != "0"))]
    table = {
        state: {
            x: (draw(st.sampled_from(states)), y)
            for x, y in zip(letters, draw(st.permutations(letters)))
        }
        for state in states
    }
    return iv.Automaton.from_table(letters, table)


@settings(max_examples=300, deadline=None)
@given(_named_machines(), _names)
def test_dsl_refuses_exactly_the_machines_it_cannot_read_back(machine, name):
    with mock.patch.object(textio, "_check_dsl_names"):
        unchecked = iv.render_dsl(machine)
    if _reads_back(machine, unchecked):
        assert iv.render_dsl(machine) == unchecked
    else:
        with pytest.raises(iv.ValidationError):
            iv.render_dsl(machine)
    # a header name either reads back or is refused (a trailing line break,
    # which would read back, is refused as well)
    try:
        text = iv.render_dsl(machine, name=name)
    except iv.ValidationError:
        return
    assert _reads_back(machine, text)
    assert not name or text.startswith(f"# {name}\n")


def test_json_round_trip_on_corpus():
    for g in full_corpus(remark_depth=4):
        machine = g.automaton
        again = iv.parse_automaton(iv.render_json(machine))
        assert named_table(again) == named_table(machine)


def test_json_and_dsl_parses_agree():
    dsl = iv.parse_automaton((DATA / "adding.maut").read_text())
    js = iv.parse_automaton((DATA / "adding.json").read_text())
    assert named_table(dsl) == named_table(js)


def test_missing_transition_row_reported_by_name():
    text = "alphabet: 0 1\nstate q:\n  0 -> q | 1\n"
    with pytest.raises(iv.MissingTransitionError) as info:
        iv.parse_automaton(text)
    assert "'q'" in str(info.value) and "'1'" in str(info.value)


def test_duplicate_state_is_a_parse_error():
    text = (
        "alphabet: 0 1\n"
        "state q:\n  0 -> q | 1\n  1 -> q | 0\n"
        "state q:\n  0 -> q | 0\n  1 -> q | 1\n"
    )
    with pytest.raises(iv.ParseError) as info:
        iv.parse_automaton(text)
    assert "duplicate state" in str(info.value)
    assert info.value.line == 5


def test_unknown_letter_has_location():
    text = "alphabet: 0 1\nstate q:\n  2 -> q | 0\n"
    with pytest.raises(iv.ParseError) as info:
        iv.parse_automaton(text)
    assert info.value.line == 3


def test_malformed_transition_line():
    with pytest.raises(iv.ParseError):
        iv.parse_automaton("alphabet: 0 1\nstate q:\n  0 q 1\n")


@pytest.mark.parametrize("row", ["0 | 1 -> q", "0 -> q", "0 | 1", "0 -> q |"])
def test_a_transition_missing_a_separator_is_a_parse_error(row):
    with pytest.raises(iv.ParseError) as info:
        iv.parse_automaton(f"alphabet: 0 1\nstate q:\n  {row}\n")
    assert str(info.value) == "line 3, column 3: expected '<letter> -> <state> | <letter>'"


def test_missing_alphabet_line():
    with pytest.raises(iv.ParseError):
        iv.parse_automaton("state q:\n  0 -> q | 1\n")


def test_bad_json_reports_location():
    with pytest.raises(iv.ParseError):
        iv.parse_automaton('{"alphabet": ["0", "1"], "states": }')


@pytest.mark.parametrize("alphabet", ["5", "null", "true", "1.5", '"01"', '{"0": 1, "1": 2}'])
def test_json_alphabet_must_be_an_array(alphabet):
    with pytest.raises(iv.ParseError, match="'alphabet' must be an array"):
        iv.parse_document(f'{{"alphabet": {alphabet}, "states": {{}}}}')


_ALPHABET = "alphabet: 0 1\n"


# every ParseError the two readers raise: text -> message, line, column
@pytest.mark.parametrize("read, text, message, line, column", [
    (iv.parse_document, _ALPHABET + "alphabet: 0 1\n",
     "line 2, column 1: duplicate alphabet line", 2, 1),
    (iv.parse_document, "  alphabet:  \n",
     "line 1, column 3: alphabet line lists no letters", 1, 3),
    (iv.parse_document, "state q:\n  0 -> q | 1\n",
     "line 1, column 1: expected an alphabet line first", 1, 1),
    (iv.parse_document, _ALPHABET + "state q\n",
     "line 2, column 7: state header must end with ':'", 2, 7),
    (iv.parse_document, _ALPHABET + "state a b:\n", "line 2, column 1: bad state name", 2, 1),
    (iv.parse_document, _ALPHABET + "state :\n", "line 2, column 1: bad state name", 2, 1),
    (iv.parse_document, _ALPHABET + "state q:\n  0 -> q | 1\n  1 -> q | 0\nstate q:\n",
     "line 5, column 1: duplicate state 'q'", 5, 1),
    (iv.parse_document, _ALPHABET + "  0 -> q | 1\n",
     "line 2, column 3: transition before any state header", 2, 3),
    (iv.parse_document, _ALPHABET + "state q:\n  0 q 1\n",
     "line 3, column 3: expected '<letter> -> <state> | <letter>'", 3, 3),
    (iv.parse_document, _ALPHABET + "state q:\n  0 -> | 1\n",
     "line 3, column 3: expected '<letter> -> <state> | <letter>'", 3, 3),
    (iv.parse_document, _ALPHABET + "state q:\n  2 -> q | 0\n",
     "line 3, column 3: unknown letter '2'", 3, 3),
    # the output letter's column is its last occurrence on the line
    (iv.parse_document, _ALPHABET + "state q:\n  0 -> 2 | 2\n",
     "line 3, column 12: unknown letter '2'", 3, 12),
    (iv.parse_document, _ALPHABET + "state q:\n  0 -> q | 1\n  0 -> q | 0\n",
     "line 4, column 3: duplicate transition for letter '0' in state 'q'", 4, 3),
    (iv.parse_document, "# only a comment\n", "empty description: no alphabet line", None, None),
    (iv.parse_document, _ALPHABET, "empty description: no states", None, None),
    (iv.parse_document, '{"alphabet": ["0", "1"], "states": }',
     "line 1, column 36: Expecting value", 1, 36),
    (iv.parse_document, '{\n  "alphabet": ["0", "1"],\n  "states":\n}',
     "line 4, column 1: Expecting value", 4, 1),
    (textio._parse_json, "[1]", "top-level JSON value must be an object", None, None),
    # no DSL text starts with '[', so it goes to the JSON reader as well
    (iv.parse_automaton, " [1, 2]", "top-level JSON value must be an object", None, None),
    (iv.parse_document, '{"states": {}}', "missing top-level key 'alphabet'", None, None),
    (iv.parse_document, '{"alphabet": ["0", "1"]}', "missing top-level key 'states'", None, None),
    (iv.parse_document, '{"alphabet": "01", "states": {}}',
     "'alphabet' must be an array", None, None),
    (iv.parse_document, '{"alphabet": ["0", "1"], "states": []}',
     "'states' must be an object", None, None),
    (iv.parse_document, '{"alphabet": ["0", "1"], "states": {"q": []}}',
     "state 'q' must map letters to pairs", None, None),
    (iv.parse_document, '{"alphabet": ["0", "1"], "states": {"q": {"0": ["q"]}}}',
     "state 'q', letter '0': expected [next, output]", None, None),
])
def test_every_parse_error_has_its_message_and_location(read, text, message, line, column):
    with pytest.raises(iv.ParseError) as info:
        read(text)
    assert (str(info.value), info.value.line, info.value.column) == (message, line, column)


def test_dot_export_adding_machine():
    expected = (
        'digraph "adding" {\n'
        "  rankdir=LR;\n"
        '  "q" [shape=circle];\n'
        '  "e" [shape=circle];\n'
        '  "q" -> "e" [label="0|1"];\n'
        '  "q" -> "q" [label="1|0"];\n'
        '  "e" -> "e" [label="0|0"];\n'
        '  "e" -> "e" [label="1|1"];\n'
        "}\n"
    )
    assert iv.render_dot(adding(), name="adding") == expected


def test_dot_export_identity():
    dot = iv.render_dot(iv.identity_automaton(2))
    assert '"e" -> "e" [label="0|0"];' in dot
    assert '"e" -> "e" [label="1|1"];' in dot


def test_dot_export_flip_alternator_edges():
    dot = iv.render_dot(flip_alternator())
    assert '"a" -> "b" [label="0|1"];' in dot
    assert '"a" -> "b" [label="1|0"];' in dot
    assert '"b" -> "a" [label="0|0"];' in dot
    assert '"b" -> "a" [label="1|1"];' in dot


def test_dot_output_is_deterministic():
    assert iv.render_dot(uv_core()) == iv.render_dot(uv_core())
