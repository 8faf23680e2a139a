"""DSL and JSON parsing, rendering round trips, DOT export."""

from __future__ import annotations

from pathlib import Path

import pytest

import invauto as iv
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
