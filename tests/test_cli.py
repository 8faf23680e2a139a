"""Command-line interface: spec invocations, exit codes, JSON payloads."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invauto
from invauto.cli import main
from helpers import decimal_value, run_python

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


def _call_in_fresh_interpreter(argv: list[str] | None) -> tuple[int | None, str, set[str]]:
    """``main(argv)``'s exit code, what it wrote to stderr, and the modules a
    fresh interpreter holds afterwards; when ``argv`` is None, a bare
    ``import invauto`` in place of the call, with code None."""
    if argv is None:
        call = "code = None; import invauto"
    else:
        call = f"from invauto.cli import main; code = main({argv!r})"
    script = (
        "import contextlib, io, sys\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        f"    {call}\n"
        "modules = sorted(sys.modules)\n"
        "import json\n"
        "print(json.dumps([code, err.getvalue(), modules]))\n"
    )
    result = run_python("-c", script, text=True)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    code, stderr, modules = json.loads(result.stdout)
    return code, stderr, set(modules)


def test_classify_imports_neither_numpy_nor_networkx():
    code, err, loaded = _call_in_fresh_interpreter(
        ["classify", "--gen", "flip_all", "--state", "r", "--json"]
    )
    assert (code, err) == (0, "")
    assert not {"numpy", "networkx", "invauto.paradox", "invauto.periodic"} & loaded


LIBRARY = {f"invauto.{name}" for name in ("core", "counting", "periodic", "paradox", "textio")}


# a call that failed early would load fewer modules, so each case pins its
# exit code too: only the malformed item is refused (2, with a message)
@pytest.mark.parametrize("argv, code, unused", [
    (None, None, LIBRARY | {"invauto.cli"}),
    (["periods", "-k", "2", "-m", "3"], 0, {"invauto.paradox", "invauto.textio", "decimal"}),
    (["ns", "--gen", "adding", "--state", "q", "--max-level", "3"], 0,
     {"invauto.textio", "invauto.periodic", "invauto.paradox", "heapq"}),
    (["gen", "adding"], 0, {"invauto.counting", "invauto.periodic", "invauto.paradox"}),
    (["export-dot", "--gen", "adding"], 0,
     {"invauto.counting", "invauto.periodic", "invauto.paradox"}),
    (["t1-report", "--gen", "adding", "--state", "q", "-l", "2", "--item", "gen:adding:depth=x@q"],
     2, {"invauto.counting", "invauto.periodic", "invauto.paradox"}),
], ids=["bare-import", "periods", "ns", "gen", "export-dot", "malformed-item"])
def test_a_call_loads_only_the_modules_it_uses(argv, code, unused):
    got, err, loaded = _call_in_fresh_interpreter(argv)
    assert got == code, err
    assert (err.startswith("error: ") if code == 2 else err == ""), err
    assert "invauto" in loaded
    assert not unused & loaded


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
        ["validate", "--file", "{alphabet_number}"],
        ["validate", "--file", "{alphabet_null}"],
        ["validate", "--file", "{alphabet_true}"],
        ["validate", "--file", "{alphabet_float}"],
    ],
    ids=["negative-level", "periods-zero", "lemma2-zero", "audit-no-parts",
         "audit-not-json", "item-bad-depth", "alphabet-number", "alphabet-null",
         "alphabet-true", "alphabet-float"],
)
def test_malformed_input_gives_one_error_line(capsys, tmp_path, argv):
    texts = {
        "no_parts": json.dumps({"level": 1, "transformations": ["gen:adding@q"]}),
        "not_json": "level: 2\n",
        "alphabet_number": '{"alphabet": 5, "states": {}}',
        "alphabet_null": '{"alphabet": null, "states": {}}',
        "alphabet_true": '{"alphabet": true, "states": {}}',
        "alphabet_float": '{"alphabet": 1.5, "states": {}}',
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


def test_audit_spec_error_names_the_key(capsys, tmp_path):
    path = tmp_path / "audit.json"
    path.write_text(json.dumps({"level": "2", "transformations": [], "parts": []}))
    code, _, err = run(capsys, "audit", "--input", str(path))
    assert code == 2
    assert "'level'" in err and "integer" in err


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


@settings(max_examples=300, deadline=None)
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


@settings(max_examples=150, deadline=None)
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
