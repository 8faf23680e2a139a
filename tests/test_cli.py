"""Command-line interface: spec invocations, exit codes, JSON payloads."""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invauto
from invauto.cli import build_parser, main
from helpers import HUGE, decimal_value

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ns_adding_prints_column_of_ones(capsys):
    code, out, _ = run(capsys, "ns", "--gen", "adding", "--state", "q", "--max-level", "10")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert [r[1] for r in rows[1:]] == ["1"] * 10


def test_min_level_remark_chain(capsys):
    code, out, _ = run(
        capsys,
        "min-level", "--gen", "remark_chain", "--depth", "8", "--state", "q_1",
        "-s", "8", "--l-max", "16",
    )
    assert code == 0
    assert out.strip() == "3"


def test_apply_adding(capsys):
    code, out, _ = run(capsys, "apply", "--gen", "adding", "--state", "q", "111")
    assert code == 0
    assert out.strip() == "000"


def test_apply_from_file(capsys):
    code, out, _ = run(
        capsys, "apply", "--file", str(DATA / "adding.maut"), "--state", "q", "011"
    )
    assert code == 0
    assert out.strip() == "111"


def test_apply_reads_words_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("111\n011\n"))
    code, out, _ = run(capsys, "apply", "--gen", "adding", "--state", "q")
    assert code == 0
    assert out.strip().splitlines() == ["000", "111"]


class _BrokenStderr(io.StringIO):
    """A stderr whose reader is gone: every write fails."""

    def write(self, text):
        raise OSError(errno.EPIPE, "Broken pipe")


def test_a_stderr_that_fails_to_write_keeps_the_exit_code():
    with contextlib.redirect_stderr(_BrokenStderr()), contextlib.redirect_stdout(io.StringIO()):
        assert main(["validate"]) == 2  # the error line is lost, the code is not
        with pytest.raises(SystemExit) as info:  # a usage error, through _Parser.error
            main(["ns", "--gen", "adding", "--state", "q"])
    assert info.value.code == 2


def test_validate_json_output(capsys):
    code, out, _ = run(capsys, "validate", "--file", str(DATA / "adding.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert sorted(payload["states"]) == ["e", "q"]


def test_counts_are_decimal_strings_in_json(capsys):
    code, out, _ = run(
        capsys, "ns", "--gen", "flip_all", "--state", "r", "--max-level", "70", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"][70] == str(2**70)
    assert all(isinstance(c, str) for c in payload["counts"])


def test_t1_report_json(capsys):
    code, out, _ = run(
        capsys,
        "t1-report", "--gen", "remark_chain", "--depth", "8", "--state", "q_1",
        "-l", "3", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["per_item"] == ["16"]
    assert payload["aggregate"] == "128"
    assert payload["threshold"] == "128"
    assert payload["satisfied"] is True


def test_t2_report_json(capsys):
    code, out, _ = run(
        capsys,
        "t2-report", "--gen", "flip_all", "--state", "r", "-l", "4", "-m", "1",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["satisfied"] is True
    assert payload["period_count"] == "2"


def test_unsatisfied_verdict_is_still_exit_zero(capsys):
    code, out, _ = run(
        capsys, "t1-report", "--gen", "flip_all", "--state", "r", "-l", "4", "--json"
    )
    assert code == 0
    assert json.loads(out)["satisfied"] is False


def test_not_applicable_lemma_is_exit_zero(capsys):
    code, out, _ = run(
        capsys,
        "lemma1", "--gen", "adding", "--state", "q", "--prefix", "1", "--period", "1",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["applicable"] is False


def test_domain_error_is_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.maut"
    bad.write_text("alphabet: 0 1\nstate r:\n  0 -> r | 0\n  1 -> r | 0\n")
    code, _, err = run(capsys, "validate", "--file", str(bad))
    assert code == 1
    assert "permutation" in err


def test_parse_error_is_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.maut"
    bad.write_text("alphabet: 0 1\nstate q:\nstate q:\n")
    code, _, err = run(capsys, "validate", "--file", str(bad))
    assert code == 2
    assert "duplicate state" in err


def test_usage_error_reports_missing_source(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 2
    assert "--file" in err


def test_argparse_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["ns", "--gen", "adding", "--state", "q"])  # missing --max-level
    assert info.value.code == 2


def test_depth_too_small_is_domain_error(capsys):
    code, _, err = run(
        capsys, "gen", "remark_chain", "--depth", "3", "--length", "9"
    )
    assert code == 1
    assert "depth" in err


def test_gen_round_trips_through_validate(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "flip_alternator")
    assert code == 0
    path = tmp_path / "m.maut"
    path.write_text(out)
    code, out, _ = run(capsys, "validate", "--file", str(path))
    assert code == 0
    assert "2 states" in out


def test_compose_command_with_gen_sources(capsys, tmp_path):
    code, out, _ = run(
        capsys, "compose", "gen:adding", "gen:adding", "--prune", "q,q"
    )
    assert code == 0
    path = tmp_path / "twice.maut"
    path.write_text(out)
    code, out, _ = run(
        capsys, "apply", "--file", str(path), "--state", "(q,q)", "00"
    )
    assert code == 0
    assert out.strip() == "01"


def test_compose_prune_names_the_states_of_a_product(capsys, tmp_path):
    """A product's state names hold commas; --prune splits at the comma
    where each side names a state of its machine, as the library call is
    given the pair."""
    code, out, _ = run(capsys, "compose", "gen:adding", "gen:adding")
    assert code == 0
    path = tmp_path / "aa.maut"
    path.write_text(out)
    twice = invauto.parse_document(out)[0]
    expected = invauto.render_dsl(
        invauto.compose(twice, invauto.generate_builtin("adding"), prune_from=("(q,q)", "q"))
    )
    for prune in ("(q,q),q", " (q,q) , q "):
        code, out, err = run(capsys, "compose", str(path), "gen:adding", "--prune", prune)
        assert (code, out, err) == (0, expected, "")
    assert out.count("state ") == 6


def test_compose_prune_refuses_an_ambiguous_split(capsys, tmp_path):
    left = tmp_path / "left.maut"
    right = tmp_path / "right.maut"
    left.write_text(
        "alphabet: 0 1\nstate a:\n  0 -> a | 1\n  1 -> a | 0\n"
        "state a,b:\n  0 -> a | 0\n  1 -> a | 1\n"
    )
    right.write_text(
        "alphabet: 0 1\nstate b,c:\n  0 -> c | 1\n  1 -> c | 0\n"
        "state c:\n  0 -> c | 0\n  1 -> c | 1\n"
    )
    code, out, err = run(capsys, "compose", str(left), str(right), "--prune", "a,b,c")
    assert code == 2 and out == ""
    assert err == (
        "error: --prune 'a,b,c' is ambiguous: it reads as ('a', 'b,c') or ('a,b', 'c')\n"
    )
    # one qualifying comma, not the first: the split is there
    code, out, _ = run(capsys, "compose", str(left), str(right), "--prune", "a,b,b,c")
    assert code == 0
    assert out.splitlines()[1] == "state (a,b,b,c):"


def test_compose_refuses_two_pairs_of_one_name(capsys, tmp_path):
    # pairs ('p,q', 'r') and ('p', 'q,r') would both be named (p,q,r)
    left = tmp_path / "left.maut"
    right = tmp_path / "right.maut"
    left.write_text(
        "alphabet: 0 1\nstate p,q:\n  0 -> p | 1\n  1 -> p | 0\n"
        "state p:\n  0 -> p | 0\n  1 -> p | 1\n"
    )
    right.write_text(
        "alphabet: 0 1\nstate r:\n  0 -> q,r | 1\n  1 -> q,r | 0\n"
        "state q,r:\n  0 -> q,r | 0\n  1 -> q,r | 1\n"
    )
    code, out, err = run(capsys, "compose", str(left), str(right))
    assert (code, out, err) == (1, "", "error: state names must be distinct\n")


def test_compose_prune_with_an_unknown_name_keeps_its_message(capsys, tmp_path):
    code, out, _ = run(capsys, "compose", "gen:adding", "gen:adding")
    path = tmp_path / "aa.maut"
    path.write_text(out)
    code, out, err = run(capsys, "compose", str(path), "gen:adding", "--prune", "(x,q),q")
    assert (code, out, err) == (1, "", "error: no state named '(x'\n")


def test_minimize_command_reports_classes(capsys):
    code, out, _ = run(
        capsys, "minimize", "--file", str(DATA / "adding.maut"), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == {"q": "q", "e": "e"}


def test_ucs_command(capsys):
    code, out, _ = run(capsys, "ucs", "--gen", "flip_alternator")
    assert code == 0
    assert "length 2" in out


def test_member_commands(capsys):
    code, out, _ = run(capsys, "member-g0", "--gen", "flip_all", "--state", "r", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is False
    assert payload["witness"] == ""
    code, out, _ = run(capsys, "member-g1", "--gen", "flip_all", "--state", "r", "--json")
    assert code == 0
    assert json.loads(out)["member"] is True


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "--gen", "adding", "--state", "q")
    assert code == 0
    assert out.strip() == "bounded"
    code, out, _ = run(capsys, "classify", "--gen", "flip_all", "--state", "r", "--json")
    assert code == 0
    assert json.loads(out) == {
        "category": "exponential", "degree": None, "rate": 2.0, "rate_bounds": ["2", "2"],
    }


def test_lemma2_command(capsys):
    code, out, _ = run(
        capsys,
        "lemma2", "--gen", "adding", "--state", "q",
        "-l", "1", "-c", "1", "-m", "1",
        "--word", "0:1", "--word", "0:0", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"checked": 2, "skipped": 0, "failed": 0}


def test_periods_command(capsys):
    code, out, _ = run(capsys, "periods", "-k", "2", "-m", "3")
    assert code == 0
    assert out.strip() == "8"


def test_audit_command(capsys, tmp_path):
    spec = {
        "level": 2,
        "transformations": ["gen:adding@q", "gen:adding@e"],
        "parts": [["00", "01"], ["10", "11"]],
    }
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "audit", "--input", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_coins"] == "4"
    assert payload["doubling"] is False
    assert len(payload["deficit"]) >= 1


def test_export_dot_command(capsys):
    code, out, _ = run(capsys, "export-dot", "--gen", "adding")
    assert code == 0
    assert '"q" -> "e" [label="0|1"];' in out


def test_t1_report_multiple_items(capsys):
    code, out, _ = run(
        capsys,
        "t1-report", "--gen", "adding", "--state", "q",
        "--item", "gen:adding@q", "-l", "3", "--json",
    )
    assert code == 0
    assert json.loads(out)["per_item"] == ["1", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["ns", "--gen", "adding", "--state", "q", "--max-level", "-1"],
        ["periods", "-k", "2", "-m", "0"],
        ["lemma2", "--gen", "adding", "--state", "q", "-l", "1", "-c", "1", "-m", "0",
         "--word", "0:1"],
        ["audit", "--input", "{no_parts}"],
        ["audit", "--input", "{not_json}"],
        ["t1-report", "--gen", "adding", "--state", "q", "-l", "2",
         "--item", "gen:adding:depth=x@q"],
        ["t1-report", "--gen", "remark_chain", "--depth", "9", "--state", "q_1", "-l", "2",
         "--item", "gen:remark_chain:depth=3:depth=9@q_1"],
        ["validate", "--file", "{alphabet_number}"],
        ["validate", "--file", "{alphabet_null}"],
        ["validate", "--file", "{alphabet_true}"],
        ["validate", "--file", "{alphabet_float}"],
        ["validate", "--file", "{state_twice}"],
        ["compose", "{letter_twice}", "gen:adding"],
        ["ns", "--gen", "adding", "--state", "q", "--max-level", HUGE],
        ["ns", "--gen", "adding", "--state", "q", "--max-level", str(sys.maxsize)],
        ["nc", "--gen", "adding", "--state", "q", "--max-level", HUGE],
        ["ns", "--gen", "remark_chain", "--depth", "3", "--state", "q_1", "--max-level", HUGE],
        ["t1-report", "--gen", "adding", "--state", "q", "-l", HUGE],
        ["t2-report", "--gen", "adding", "--state", "q", "-l", HUGE, "-m", "1"],
        ["min-level", "--gen", "adding", "--state", "q", "--l-max", HUGE],
        ["min-level", "--gen", "adding", "--state", "q", "--l-max", str(sys.maxsize)],
        ["audit", "--input", "{huge_level}"],
        ["audit", "--input", "{huge_level_words}"],
        ["validate", "--file", str(DATA / "adding.maut"), "--depth", "5"],
        ["ns", "--file", str(DATA / "adding.maut"), "--state", "q", "--max-level", "2",
         "--length", "2"],
        ["gen", "remark_chain", "--depth", "2", "--length", "-1"],
        ["t1-report", "--gen", "remark_chain", "--depth", "3", "--state", "q_1", "-l", "2",
         "--item", "gen:remark_chain:depth=3:length=-1@q_1"],
        ["gen", "adding", "--depth", "3"],
        ["t1-report", "--gen", "flip_all", "--state", "r", "-l", "2",
         "--item", "gen:flip_all:depth=5@r"],
    ],
    ids=["negative-level", "periods-zero", "lemma2-zero", "audit-no-parts",
         "audit-not-json", "item-bad-depth", "item-depth-twice", "alphabet-number", "alphabet-null",
         "alphabet-true", "alphabet-float", "state-twice", "letter-twice", "ns-huge-level",
         "ns-maxsize-level", "nc-huge-level", "ns-huge-level-past-horizon", "t1-huge-level",
         "t2-huge-level", "min-level-huge-l-max", "min-level-maxsize-l-max", "audit-huge-level",
         "audit-huge-level-with-words", "file-with-depth", "file-with-length",
         "negative-length", "item-negative-length",
         "fixed-family-depth", "item-fixed-family-depth"],
)
def test_malformed_input_gives_one_error_line(capsys, tmp_path, argv):
    texts = {
        "no_parts": json.dumps({"level": 1, "transformations": ["gen:adding@q"]}),
        "not_json": "level: 2\n",
        "alphabet_number": '{"alphabet": 5, "states": {}}',
        "alphabet_null": '{"alphabet": null, "states": {}}',
        "alphabet_true": '{"alphabet": true, "states": {}}',
        "alphabet_float": '{"alphabet": 1.5, "states": {}}',
        "state_twice": '{"alphabet": ["0", "1"], "states": {"q": {"0": ["q", "1"], '
                       '"1": ["q", "0"]}, "q": {"0": ["q", "0"], "1": ["q", "1"]}}}',
        "letter_twice": '{"alphabet": ["0", "1"], "states": {"q": {"0": ["q", "1"], '
                        '"0": ["q", "0"], "1": ["q", "1"]}}}',
        "huge_level": json.dumps({"level": int(HUGE), "transformations": ["gen:adding@q"],
                                  "parts": [[]]}),
        "huge_level_words": json.dumps({"level": int(HUGE), "transformations": ["gen:adding@q"],
                                        "parts": [["0"]]}),
    }
    files = {name: tmp_path / f"{name}.json" for name in texts}
    for name, text in texts.items():
        files[name].write_text(text)
    code, _, err = run(capsys, *(a.format(**files) for a in argv))
    assert code == 2
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["invert", "--file", "{path}"],
    ["minimize", "--file", "{path}"],
    ["compose", "{path}", "gen:flip_all"],
])
def test_a_state_name_the_dsl_cannot_carry_is_exit_one(capsys, tmp_path, argv):
    path = tmp_path / "spaced.json"
    row = {"0": ["a b", "1"], "1": ["a b", "0"]}
    path.write_text(json.dumps({"alphabet": ["0", "1"], "states": {"a b": row}}))
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith("error: state name '") and err.count("\n") == 1
    assert "Traceback" not in err
    # JSON carries any name
    assert run(capsys, "minimize", "--file", str(path), "--json")[0] == 0


@pytest.mark.parametrize("merged, refused", [
    ("a\nstate x:", True),
    ("a\u2028b", True),
    ("a b", False),
    ("a # b | c", False),
])
def test_minimize_prints_only_comments_that_read_back(capsys, tmp_path, merged, refused):
    # ``merged`` acts like q, so its name appears only in a ``#`` comment
    path = tmp_path / "merged.json"
    row = {"0": ["q", "1"], "1": ["q", "0"]}
    path.write_text(json.dumps({"alphabet": ["0", "1"], "states": {"q": row, merged: row}}))
    code, out, err = run(capsys, "minimize", "--file", str(path))
    if refused:
        assert (code, out) == (1, "")
        assert err == f"error: state name {merged!r} cannot be written in a DSL comment\n"
    else:
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["# q -> q", f"# {merged} -> q"]
        text = tmp_path / "minimal.maut"
        text.write_text(out)
        code, shown, _ = run(capsys, "validate", "--file", str(text))
        assert (code, shown) == (0, "ok: 1 states over alphabet {0, 1}\n")
    code, out, _ = run(capsys, "minimize", "--file", str(path), "--json")
    assert code == 0 and json.loads(out)["classes"] == {"q": "q", merged: "q"}


@pytest.mark.parametrize("option", ["depth", "length"])
def test_a_generator_option_given_twice_is_refused(capsys, option):
    item = f"gen:remark_chain:{option}=3:depth=4:{option}=9@q_1"
    code, out, err = run(capsys, "t1-report", "--gen", "remark_chain", "--depth", "9",
                         "--state", "q_1", "-l", "2", "--item", item)
    assert (code, out) == (2, "")
    assert err == f"error: generator option {option!r} given twice in {item[:-4]!r}\n"


@pytest.mark.parametrize("text, message", [
    ("level: 2\n", "line 1, column 1: Expecting value"),
    ("[2]", "top-level JSON value must be an object"),
    ('{"level": "x", "transformations": ["gen:adding@q"]}', "missing top-level key 'parts'"),
    ('{"level": "x", "transformations": 1, "parts": []}', "'level' must be an integer"),
    ('{"level": 1, "transformations": [1], "parts": []}',
     "'transformations' must be a list of SOURCE@STATE strings"),
    ('{"level": 1, "transformations": [], "parts": [[1]]}', "'parts' must be a list of word lists"),
], ids=["not-json", "not-an-object", "missing-key", "wrong-type", "item-not-str", "word-not-str"])
def test_an_audit_spec_is_refused_as_a_machine_document_is(capsys, tmp_path, text, message):
    """All keys present first, then each of its type, in the machine
    reader's words after the path."""
    path = tmp_path / "audit.json"
    path.write_text(text)
    code, out, err = run(capsys, "audit", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("document, message", [
    ('{"alphabet": [0, 1], "states": {"q": {"0": ["q", "1"], "1": ["q", "0"]}}}',
     "symbols[0] must be a str, not int"),
    ('{"alphabet": ["0", "1"], "states": {"q": {"0": ["q", 1], "1": ["q", 0]}}}',
     "unknown letter <int>"),
    ('{"alphabet": ["0", "1"], "states": {"q": {"0": [null, "1"], "1": ["q", "0"]}}}',
     "state 'q' points to unknown state <NoneType> on letter '0'"),
    ('{"alphabet": ["0", "1"], "states": {"q": [["q", "1"], ["q", "0"]]}}',
     "state 'q' must map letters to pairs"),
], ids=["int-symbol", "int-letter", "null-state", "row-an-array"])
def test_a_machine_document_is_read_as_written(capsys, tmp_path, document, message):
    path = tmp_path / "machine.json"
    path.write_text(document)
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_audit_spec_error_names_the_key(capsys, tmp_path):
    path = tmp_path / "audit.json"
    path.write_text(json.dumps({"level": "2", "transformations": [], "parts": []}))
    code, _, err = run(capsys, "audit", "--input", str(path))
    assert code == 2
    assert "'level'" in err and "integer" in err


def test_audit_spec_refuses_a_repeated_key(capsys, tmp_path):
    # json keeps the last value: this spec would run at level 1
    path = tmp_path / "audit.json"
    path.write_text('{"level": 5, "level": 1, "transformations": ["gen:adding@q"], '
                    '"parts": [["0", "1"]]}')
    code, out, err = run(capsys, "audit", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: duplicate key 'level' in a JSON object\n"


def test_binary_file_is_parse_error(capsys, tmp_path):
    path = tmp_path / "m.maut"
    path.write_bytes(b"\xff\xfe\x00alphabet")
    code, _, err = run(capsys, "validate", "--file", str(path))
    assert code == 2
    assert err.startswith("error:") and "UTF-8" in err


# ---------------------------------------------------------------- fuzzing

ADDING = str(DATA / "adding.maut")
SOURCES = [
    "gen:adding", "gen:flip_alternator", "gen:remark_chain:depth=4", "gen:bogus",
    "gen:adding:depth=x", "gen:adding:width=2", "gen:remark_chain:depth=-1",
    "gen:remark_chain:depth=3:length=5", "gen:", ADDING, str(DATA / "adding.json"),
    str(DATA / "missing.maut"),
]
Q = [["--gen", "adding"], ["--state", "q"]]
# one valid invocation per subcommand, as argument groups the fuzzer drops or extends
VALID = {
    "validate": [["--file", ADDING]],
    "gen": [["remark_chain"], ["--depth", "3"]],
    "export-dot": [["--gen", "adding"]],
    "apply": Q + [["011"]],
    "invert": [["--gen", "flip_alternator"]],
    "compose": [["gen:adding"], [ADDING], ["--prune", "q,q"]],
    "minimize": [["--file", ADDING]],
    "ucs": [["--gen", "flip_alternator"]],
    "ns": Q + [["--max-level", "4"]],
    "nc": [["--gen", "remark_chain"], ["--depth", "6"], ["--state", "q_1"],
           ["--max-level", "4"]],
    "classify": Q,
    "member-g0": Q,
    "member-g1": [["--gen", "flip_alternator"], ["--state", "a"]],
    "lemma1": Q + [["--prefix", "01"], ["--period", "1"]],
    "lemma2": Q + [["-l", "1"], ["-c", "1"], ["-m", "2"], ["--word", "0:1"]],
    "periods": [["-k", "2"], ["-m", "3"]],
    "t1-report": Q + [["-l", "3"], ["-s", "9"], ["--item", "gen:adding@q"]],
    "t2-report": Q + [["-l", "3"], ["-m", "1"], ["-s", "8"], ["--item", ADDING + "@e"]],
    "min-level": Q + [["-s", "8"], ["--l-max", "6"]],
    "audit": [["--input", str(DATA / "audit_adding.json")]],
}
SMALL = st.integers(-2, 9).map(str)
EDGE_VALUES = ("-2", "-1", "0", "1", "x")
FRAGMENTS = st.one_of(
    st.sampled_from([
        ["--gen", "remark_chain"], ["--gen", "bogus"], ["--file", str(DATA / "audit_adding.json")],
        ["--state", "q_1"], ["--state", "nope"], ["--word", "01"],
        ["--word", "2:1"], ["--period", ""], ["--prune", "q"], ["--input", ADDING],
        ["0x1"], ["adding"],
    ]),
    st.tuples(
        st.sampled_from(["--depth", "--length", "--max-level", "-l", "-m", "-c", "-s",
                         "-k", "--l-max", "--workers"]),
        st.one_of(SMALL, st.just("x")),
    ).map(list),
    st.tuples(
        st.just("--item"), st.sampled_from(SOURCES), st.sampled_from(["@q", "@q_1", "@", ""])
    ).map(lambda t: [t[0], t[1] + t[2]]),
    st.sampled_from(SOURCES).map(lambda s: [s]),
)


def _main_in_process(argv):
    """Exit code, stdout and stderr of ``main``, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO("01\n")):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check_contract(argv):
    code, out, err = _main_in_process(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
        assert out == "", (argv, out)
    elif "--json" in argv:
        json.loads(out)


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(VALID)))
    kept = []
    for group in VALID[command]:
        choice = draw(st.integers(0, 4))
        if choice == 1 and group[-1].isdigit():
            group = group[:-1] + [draw(st.sampled_from(EDGE_VALUES))]
        if choice:
            kept.append(group)
    extra = draw(st.lists(FRAGMENTS, max_size=3)) + [["--json"]] * draw(st.booleans())
    groups = draw(st.permutations(kept + extra))
    return [command] + [a for group in groups for a in group]


@settings(max_examples=300)
@given(fuzzed_argv())
def test_fuzzed_argv_keeps_the_exit_code_contract(argv):
    _check_contract(argv)


def test_every_numeric_option_at_its_edges_keeps_the_exit_code_contract():
    for command, groups in VALID.items():
        for i, group in enumerate(groups):
            if not group[-1].isdigit():
                continue
            for value in EDGE_VALUES:
                edited = groups[:i] + [group[:-1] + [value]] + groups[i + 1:]
                argv = [command] + [a for g in edited for a in g]
                _check_contract(argv)
                _check_contract(argv + ["--json"])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4) | st.sampled_from(["", "0", "01", "x"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=6,
)
WORD_LISTS = st.lists(st.sampled_from(["0", "1", "00", "01", "10", "11", "", "2", "011"]),
                      max_size=4)
AUDIT_KEYS = {
    "level": st.integers(-1, 3) | JSON_VALUES,
    "transformations": st.lists(
        st.sampled_from(SOURCES).map(lambda s: s + "@q") | st.sampled_from(["q", "@"]),
        max_size=3,
    ) | JSON_VALUES,
    "parts": st.lists(WORD_LISTS, max_size=3) | JSON_VALUES,
}
VALID_AUDIT = {
    "level": 2,
    "transformations": ["gen:adding@q", ADDING + "@e"],
    "parts": [["00", "01"], ["10", "11"]],
}


@st.composite
def fuzzed_audit_spec(draw):
    """The valid spec with keys dropped or replaced, or any JSON value."""
    if draw(st.integers(0, 4)) == 0:
        return draw(JSON_VALUES)
    spec = {}
    for key, valid in VALID_AUDIT.items():
        choice = draw(st.integers(0, 4))
        if choice >= 2:
            spec[key] = valid
        elif choice == 1:
            spec[key] = draw(AUDIT_KEYS[key])
    return spec


@settings(max_examples=150)
@given(fuzzed_audit_spec(), st.booleans())
def test_fuzzed_audit_spec_keeps_the_exit_code_contract(spec, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "audit.json"
        path.write_text(json.dumps(spec))
        _check_contract(["audit", "--input", str(path)] + ["--json"] * as_json)


# ---------------------------------------------------------------- help

def test_help_lists_every_subcommand():
    code, out, err = _main_in_process(["--help"])
    assert (code, err) == (0, "")
    listed = out[out.index("{") + 1:out.index("}")].split(",")
    assert sorted(listed) == sorted(VALID) and len(VALID) == 20
    for command in VALID:
        assert f"\n    {command} " in out


@pytest.mark.parametrize("command", sorted(VALID))
def test_subcommand_help_exits_zero(command):
    code, out, err = _main_in_process([command, "--help"])
    assert code == 0
    assert "error:" not in out + err
    assert out.startswith(f"usage: invauto {command}")


@pytest.mark.parametrize("argv", [[], ["bogus"], ["gen", "adding", "--bogus"]],
                         ids=["no-arguments", "unknown-command", "unknown-option"])
def test_usage_errors_print_the_top_level_usage(argv):
    code, out, err = _main_in_process(argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: invauto [-h]")
    assert "{" + ",".join(VALID) + "}" in err


def _parse_in_process(parser, argv):
    """Exit code, stdout and stderr of ``parser.parse_args(argv)``, for an
    ``argv`` on which argparse exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as info:
            parser.parse_args(argv)
    return info.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(VALID))
def test_one_subcommand_parser_parses_and_helps_as_the_full_parser(command):
    want = _parse_in_process(build_parser(), [command, "--help"])
    assert want[0] == 0 and want[1].startswith(f"usage: invauto {command}")
    assert _parse_in_process(build_parser(command), [command, "--help"]) == want
    argv = [command, *(arg for group in VALID[command] for arg in group)]
    assert vars(build_parser(command).parse_args(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["gen", "adding", "--bogus"],
    ["ns", "--gen", "adding", "--state", "q", "--max-level", "3", "extra"],
], ids=["gen", "ns"])
def test_a_top_level_error_after_a_subcommand_writes_the_full_parser_s_bytes(argv):
    want = _parse_in_process(build_parser(), argv)
    assert want[:2] == (2, "") and "error: unrecognized arguments: " in want[2]
    assert _parse_in_process(build_parser(argv[0]), argv) == want
    assert _main_in_process(argv) == want


# each argument as help shows it: flags (a positional's name), action, metavar,
# help, default, required, nargs and type name.  A positional's required is
# argparse's own reading of its nargs, which Python 3.13 changed for '*': None.
OPT_FILE = ("--file", "store", "PATH", "automaton file (.maut or .json)", None, False, None, None)
OPT_GEN = ("--gen", "store", "FAMILY", "builtin machine family", None, False, None, None)
OPT_DEPTH = ("--depth", "store", None, "materialization depth for --gen", None, False, None,
             "int")
OPT_LENGTH = ("--length", "store", None, "processing length the generated table must serve",
              None, False, None, "int")
OPT_STATE = ("--state", "store", "NAME", "initial state", None, False, None, None)
OPT_JSON = ("--json", "store_true", None, "machine-readable output", False, False, 0, None)
OPT_LEVEL = ("-l --level", "store", None, None, None, True, None, "int")
OPT_DIVISOR = ("-m --period-divisor", "store", None, None, None, True, None, "int")
OPT_BLOCK = ("-s --block-factor", "store", None, None, 8, False, None, "int")
OPT_ITEM = ("--item", "append", "SOURCE@STATE", None, None, False, None, None)
OPT_MAX_LEVEL = ("--max-level", "store", None, None, None, True, None, "int")
OPT_SOURCE = ("store", None, "path or gen:FAMILY[:depth=N]", None, None, None, None)
MACHINE = [OPT_FILE, OPT_GEN, OPT_DEPTH, OPT_LENGTH]
START = MACHINE + [OPT_STATE, OPT_JSON]
# every subcommand in help order: its name, help line and arguments but -h
DECLARED = [
    ("validate", "check an automaton description", MACHINE + [OPT_JSON]),
    ("gen", "print a builtin machine as DSL text",
     [OPT_DEPTH, OPT_LENGTH, ("family", "store", None, None, None, None, None, None)]),
    ("export-dot", "print the labeled state diagram", MACHINE),
    ("apply", "run a machine on words",
     START + [("word", "store", None, "words (default: read from stdin)", None, None, "*", None)]),
    ("invert", "print the inverse machine", MACHINE),
    ("compose", "print the product machine (left acts first)", [
        ("left", *OPT_SOURCE), ("right", *OPT_SOURCE),
        ("--prune", "store", "A,B", "keep only pairs reachable from (A,B)", None, False, None,
         None),
    ]),
    ("minimize", "print the behavioral quotient", MACHINE + [OPT_JSON]),
    ("ucs", "list unconditional cycles", MACHINE + [OPT_JSON]),
    ("ns", "count words ending in a nontrivial state, per level", START + [OPT_MAX_LEVEL]),
    ("nc", "count words avoiding all unconditional cycles, per level", START + [OPT_MAX_LEVEL]),
    ("classify", "growth class of the activity counts", START),
    ("member-g0", "exact small-activity membership", START),
    ("member-g1", "exact small-cycle-avoidance membership", START),
    ("lemma1", "image period divisibility for one word", START + [
        ("--prefix", "store", None, "prefix (may be empty: '')", None, True, None, None),
        ("--period", "store", None, None, None, True, None, None),
    ]),
    ("lemma2", "period-class closure over sample words", START + [
        OPT_LEVEL, ("-c --cycle-bound", "store", None, None, None, True, None, "int"), OPT_DIVISOR,
        ("--word", "append", "PREFIX:PERIOD", None, [], False, None, None),
    ]),
    ("periods", "count primitive periods with length dividing m", [
        OPT_JSON, ("-k --alphabet-size", "store", None, None, None, True, None, "int"),
        OPT_DIVISOR,
    ]),
    ("t1-report", "activity-based doubling bound at one level",
     START + [OPT_LEVEL, OPT_BLOCK, OPT_ITEM]),
    ("t2-report", "cycle-avoidance doubling bound at one level",
     START + [OPT_LEVEL, OPT_DIVISOR, OPT_BLOCK, OPT_ITEM]),
    ("min-level", "smallest level satisfying the activity bound", START + [
        OPT_BLOCK, ("--l-max", "store", None, None, 64, False, None, "int"), OPT_ITEM,
    ]),
    ("audit", "replay a candidate doubling scheme from JSON", [
        OPT_JSON, ("--input", "store", "PATH", None, None, True, None, None),
    ]),
]
ACTION_KINDS = {"_StoreAction": "store", "_StoreTrueAction": "store_true",
                "_AppendAction": "append"}


def _argument(action):
    required = action.required if action.option_strings else None
    return (" ".join(action.option_strings) or action.dest,
            ACTION_KINDS.get(type(action).__name__, type(action).__name__), action.metavar,
            action.help, action.default, required, action.nargs,
            getattr(action.type, "__name__", None))


def _declared(parser):
    """Each subcommand of ``parser`` in help order: name, help line and
    arguments, as :data:`DECLARED` writes them."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (choice.dest, choice.help, [
            _argument(action) for action in sub.choices[choice.dest]._actions
            if not isinstance(action, argparse._HelpAction)
        ])
        for choice in sub._choices_actions
    ]


def test_every_help_screen_is_built_from_its_declared_arguments():
    """What each help screen is made of, pinned without its rendered bytes,
    which argparse lays out differently across Python versions."""
    parser = build_parser()
    assert (parser.prog, parser.description) == (
        "invauto", "invertible letter-to-letter automata: algebra, counting, audits")
    assert _declared(parser) == DECLARED
    for row in DECLARED:
        assert _declared(build_parser(row[0])) == [row]


# ---------------------------------------------------------------- long integers

def test_periods_prints_every_digit_of_a_long_count(capsys):
    code, out, err = run(capsys, "periods", "-k", "2", "-m", "20000")
    assert (code, err) == (0, "")
    assert len(out.strip()) == 6021
    assert decimal_value(out.strip()) == 2**20000


def test_t2_report_json_carries_long_counts(capsys):
    code, out, err = run(
        capsys, "t2-report", "--gen", "flip_alternator", "--state", "a",
        "-l", "3", "-m", "20000", "--json",
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert decimal_value(payload["period_count"]) == 2**20000
    assert "the 2^20000 period classes" in payload["note"]


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
def test_a_report_converts_its_long_count_once(capsys, extra):
    # 2^20000 period classes: past the conversion limit, so only
    # ``_decimal_str`` can write it, and it should do so once per call
    convert = invauto.core._decimal_str
    with mock.patch.object(invauto.core, "_decimal_str", side_effect=convert) as spy:
        code, out, err = run(
            capsys, "t2-report", "--gen", "flip_all", "--state", "r",
            "-l", "4", "-m", "20000", *extra,
        )
    assert (code, err) == (0, "")
    assert spy.call_count == 1
    count = json.loads(out)["period_count"] if extra else out.split("(")[1].split()[0]
    assert decimal_value(count) == 2**20000


def test_counts_print_every_digit_past_the_conversion_limit(capsys, tmp_path):
    # one state over 1024 letters acting on every letter: NS(l) = 1024^l,
    # which passes 4300 digits at level 1430 (2^14300)
    letters = [str(x) for x in range(1024)]
    row = {x: ["r", letters[(i + 1) % 1024]] for i, x in enumerate(letters)}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"alphabet": letters, "states": {"r": row}}))
    for extra in ([], ["--json"]):
        code, out, err = run(
            capsys, "ns", "--file", str(path), "--state", "r", "--max-level", "1430", *extra
        )
        assert (code, err) == (0, "")
        last = json.loads(out)["counts"][-1] if extra else out.splitlines()[-1].split("\t")[1]
        assert decimal_value(last) == 2**14300
    code, out, err = run(capsys, "t1-report", "--file", str(path), "--state", "r", "-l", "1430")
    assert (code, err) == (0, "")
    assert decimal_value(out.splitlines()[1].split(": ")[1]) == 2**14300
