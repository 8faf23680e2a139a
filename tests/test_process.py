"""Every test that starts a CLI process: what a call imports, capped
memory, the process entry point with its streams closed or broken, and
large inputs end to end.

The command comes from where this process imported ``invauto``
(``helpers.CLI``): ``python -W error -m invauto.cli`` when that is this
checkout's ``src``, the installed ``invauto`` console script otherwise.
To check an installed package, run this module and ``test_cli_golden.py``
from outside the checkout, with no ``PYTHONPATH``::

    cd "$(mktemp -d)"
    python -m pytest -q CHECKOUT/tests/test_process.py CHECKOUT/tests/test_cli_golden.py
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import os
import sys
from pathlib import Path

import pytest

import invauto
from invauto.cli import _Parser, main
from helpers import HUGE, _cap_address_space, run_cli, run_python

DATA = Path(__file__).parent / "data"


def _ok(*argv: str, **kwargs) -> bytes:
    """The stdout of a CLI call that must exit 0 with nothing on stderr."""
    result = run_cli(*argv, **kwargs)
    assert (result.returncode, result.stderr) == (0, b""), result.stderr
    return result.stdout


# ------------------------------------------------- what a call imports

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


LIBRARY = {
    f"invauto.{name}" for name in ("algebra", "core", "counting", "periodic", "paradox", "textio")
}


# a call that failed early would load fewer modules, so each case pins its
# exit code too: only the malformed item is refused (2, with a message).  No
# call loads dataclasses or the inspect module it imports, not even a report,
# which loads the whole library.
UNUSED_BY_ALL = {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv, code, unused", [
    (None, None, LIBRARY | {"invauto.cli"}),
    (["periods", "-k", "2", "-m", "3"], 0,
     {"invauto.algebra", "invauto.paradox", "invauto.textio", "decimal"}),
    (["ns", "--gen", "adding", "--state", "q", "--max-level", "3"], 0,
     {"invauto.algebra", "invauto.textio", "invauto.periodic", "invauto.paradox", "heapq"}),
    (["gen", "adding"], 0,
     {"invauto.algebra", "invauto.counting", "invauto.periodic", "invauto.paradox"}),
    (["export-dot", "--gen", "adding"], 0,
     {"invauto.algebra", "invauto.counting", "invauto.periodic", "invauto.paradox"}),
    (["t1-report", "--gen", "adding", "--state", "q", "-l", "2", "--item", "gen:adding:depth=x@q"],
     2, {"invauto.algebra", "invauto.counting", "invauto.periodic", "invauto.paradox"}),
    (["lemma1", "--gen", "adding", "--state", "q", "--prefix", "01", "--period", "1", "--json"],
     0, {"invauto.algebra", "invauto.paradox", "invauto.textio"}),
    (["classify", "--gen", "flip_all", "--state", "r", "--json"], 0,
     {"numpy", "networkx", "invauto.algebra", "invauto.paradox", "invauto.periodic"}),
    (["t1-report", "--gen", "adding", "--state", "q", "-l", "2"], 0, {"invauto.algebra"}),
    # a spec that is not JSON: read with textio's key check, with no machine code
    (["audit", "--input", str(DATA / "adding.maut")], 2,
     {"invauto.algebra", "invauto.core", "invauto.counting", "invauto.periodic",
      "invauto.paradox"}),
    (["compose", "gen:adding", "gen:flip_all"], 0,
     {"invauto.counting", "invauto.periodic", "invauto.paradox"}),
], ids=["bare-import", "periods", "ns", "gen", "export-dot", "malformed-item", "lemma1-json",
        "classify", "t1-report", "malformed-audit-spec", "compose"])
def test_a_call_loads_only_the_modules_it_uses(argv, code, unused):
    got, err, loaded = _call_in_fresh_interpreter(argv)
    assert got == code, err
    assert (err.startswith("error: ") if code == 2 else err == ""), err
    assert "invauto" in loaded
    assert not (unused | UNUSED_BY_ALL) & loaded
    # only a call that composes, inverts or minimizes loads the algebra
    assert ("invauto.algebra" in loaded) == ("invauto.algebra" not in unused)


# ------------------------------------------------- capped memory

def test_audit_refuses_a_partial_partition_without_listing_the_level(tmp_path):
    # the 2**40 words of the level would not fit in the child's 1 GiB
    path = tmp_path / "audit.json"
    path.write_text(json.dumps({"level": 40, "transformations": ["gen:adding@q"], "parts": [[]]}))
    result = run_cli("audit", "--input", str(path), preexec_fn=_cap_address_space)
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr.decode() == f"error: word {'0' * 40!r} is not assigned to any block\n"


def test_a_level_past_sys_maxsize_is_a_usage_error():
    result = run_cli(
        "ns", "--gen", "adding", "--state", "q", "--max-level", HUGE,
        preexec_fn=_cap_address_space,
    )
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.decode() == f"error: level must be below sys.maxsize, {sys.maxsize}\n"


@pytest.mark.parametrize("argv", [
    ["periods", "-k", "2", "-m", HUGE],
    ["periods", "-k", "2", "-m", str(sys.maxsize)],
    ["t2-report", "--gen", "adding", "--state", "q", "-l", "2", "-m", HUGE],
], ids=["periods-huge", "periods-maxsize", "t2-report-huge"])
def test_a_period_divisor_from_sys_maxsize_up_is_a_usage_error(argv):
    # k**m is refused before it is computed; in the child's 1 GiB it would
    # end in a MemoryError, and with no cap in the machine running out
    result = run_cli(*argv, preexec_fn=_cap_address_space)
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.decode() == (
        f"error: period divisor must be below sys.maxsize, {sys.maxsize}\n"
    )


@pytest.mark.parametrize("argv", [
    ["periods", "-k", "2", "-m", "100000000000"],
    ["t2-report", "--gen", "adding", "--state", "q", "-l", "2", "-m", "100000000000"],
], ids=["periods", "t2-report"])
def test_out_of_memory_is_one_error_line(argv):
    # 2**(10**11) needs 12.5 GB; the power squares its way up to the cap, so
    # a cap of 256 MiB meets the MemoryError in about a second, not five
    result = run_cli(*argv, preexec_fn=lambda: _cap_address_space(1 << 28))
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr.decode() == "error: out of memory\n"


@pytest.mark.parametrize("kind", ["ns", "nc"])
@pytest.mark.parametrize("level", [sys.maxsize - 1, 100000000000], ids=["maxsize-1", "1e11"])
def test_a_count_table_too_large_to_hold_is_out_of_memory_at_once(kind, level):
    # the table is allocated before the sweep; filled level by level, it
    # would take adding's sweep about 14 s to reach the cap of 256 MiB
    result = run_cli(
        kind, "--gen", "adding", "--state", "q", "--max-level", str(level),
        preexec_fn=lambda: _cap_address_space(1 << 28), timeout=10,
    )
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr.decode() == "error: out of memory\n"


# ------------------------------------------------- the process entry point

# stdout block-buffered, as a caller without PYTHONUNBUFFERED gets it: an
# empty value turns the variable off
BUFFERED = {"PYTHONUNBUFFERED": ""}
CHAIN = ["gen", "remark_chain", "--depth", "20000"]


def test_a_count_arrives_on_stdout():
    assert _ok("periods", "-k", "2", "-m", "3") == b"8\n"


def test_a_large_output_arrives_whole_through_a_pipe(capsys):
    # 1.66 MB, about 25 times a 64 KiB pipe buffer, written by main in one
    # call and flushed before the process ends
    assert main(CHAIN) == 0
    want = capsys.readouterr().out
    assert len(want) > 25 * 65536
    result = run_cli(*CHAIN, env=BUFFERED, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == want


@pytest.mark.parametrize("argv", [["periods", "-k", "2", "-m", "3"], CHAIN],
                         ids=["at-the-flush", "while-main-runs"])
def test_a_reader_gone_is_one_error_line(argv):
    read, write = os.pipe()
    os.close(read)
    try:
        result = run_cli(*argv, env=BUFFERED, stdout=write, text=True)
    finally:
        os.close(write)
    assert result.returncode == 1
    assert result.stderr == f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"


@pytest.mark.parametrize("argv", [
    "periods -k 2 -m 3", "gen adding", "export-dot --gen adding", "invert --gen adding",
    "compose gen:adding gen:adding", "minimize --gen adding", "--help", "ns --help",
])
def test_a_closed_stdout_is_a_silent_success(argv):
    result = run_cli(*argv.split(), env=BUFFERED, preexec_fn=lambda: os.close(1))
    assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")


def test_a_closed_stderr_takes_no_error_line_to_stdout():
    result = run_cli(
        "ns", "--gen", "adding", "--state", "zz", "--max-level", "1",
        env=BUFFERED, preexec_fn=lambda: os.close(2),
    )
    assert (result.returncode, result.stdout) == (1, b"")


# a subcommand missing its options, and an unknown subcommand
USAGE_ERRORS = [["ns"], ["bogus"]]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=["subcommand", "top-level"])
def test_a_closed_stderr_takes_no_usage_to_stdout(argv):
    result = run_cli(*argv, env=BUFFERED, preexec_fn=lambda: os.close(2))
    assert (result.returncode, result.stdout) == (2, b"")


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=["subcommand", "top-level"])
def test_a_usage_error_writes_argparse_s_own_bytes(argv, capsys, monkeypatch):
    result = run_cli(*argv, env=BUFFERED, text=True)
    monkeypatch.setattr(_Parser, "error", argparse.ArgumentParser.error)
    with pytest.raises(SystemExit) as info:
        main(argv)
    want = capsys.readouterr()
    assert (info.value.code, want.out) == (2, "")
    assert want.err.startswith("usage: invauto")
    assert (result.returncode, result.stdout, result.stderr) == (2, "", want.err)


@pytest.mark.parametrize("json_, want", [([], ""), (["--json"], '{"outputs": []}\n')],
                         ids=["text", "json"])
def test_apply_with_a_closed_stdin_has_no_words(json_, want):
    result = run_cli(
        "apply", "--gen", "adding", "--state", "q", *json_,
        env=BUFFERED, preexec_fn=lambda: os.close(0), text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, want, "")


def test_output_the_stdout_encoding_cannot_carry_is_one_error_line(tmp_path):
    path = tmp_path / "e.maut"
    path.write_text("alphabet: 0 1\nstate é:\n  0 -> é | 1\n  1 -> é | 0\n", encoding="utf-8")

    def call(*argv):
        return run_cli(*argv, "--file", str(path),
                       env={**BUFFERED, "PYTHONIOENCODING": "ascii"}, text=True)

    for command in ("ucs", "minimize", "invert"):
        result = call(command)
        assert (result.returncode, result.stdout) == (1, ""), command
        assert result.stderr.startswith("error: 'ascii' codec can't encode character '\\xe9'")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
    result = call("validate", "--json")  # JSON escapes the name
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["states"] == ["é"]


def test_help_exits_through_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    want = capsys.readouterr().out
    assert want.startswith("usage: invauto")
    result = run_cli("--help", env=BUFFERED, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, want, "")


# ------------------------------------------------- large inputs end to end
#
# Each call has the 60 s timeout of ``run_cli``.

def _words(level: int) -> list[str]:
    return ["".join(w) for w in itertools.product("01", repeat=level)]


def test_a_level_16_audit_through_the_word_tree(tmp_path):
    # 0u goes through adding@e and stays; 1u goes through adding@q, which
    # writes a 0 first: every word starting with 0 ends with two coins,
    # every other with none
    words = _words(16)
    parts = [[w for w in words if w[0] == first] for first in "01"]
    spec = tmp_path / "audit16.json"
    spec.write_text(json.dumps(
        {"level": 16, "transformations": ["gen:adding@e", "gen:adding@q"], "parts": parts}
    ))
    lines = _ok("audit", "--input", str(spec)).decode().splitlines()
    assert lines[0].startswith("coins after the move: 65536 ")
    assert lines[1].startswith("deficit: 32768 ")
    deficit = json.loads(_ok("audit", "--input", str(spec), "--json"))["deficit"]
    assert deficit == [w for w in words if w[0] == "1"]


def test_a_product_whose_comma_names_collide_is_one_error_line(tmp_path):
    # pairs ('p,q', 'r') and ('p', 'q,r') of the product are both named (p,q,r)
    left, right = tmp_path / "left.maut", tmp_path / "right.maut"
    left.write_text("alphabet: 0 1\nstate p,q:\n  0 -> p | 1\n  1 -> p | 0\n"
                    "state p:\n  0 -> p | 0\n  1 -> p | 1\n")
    right.write_text("alphabet: 0 1\nstate r:\n  0 -> q,r | 1\n  1 -> q,r | 0\n"
                     "state q,r:\n  0 -> q,r | 0\n  1 -> q,r | 1\n")
    result = run_cli("compose", str(left), str(right))
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr == b"error: state names must be distinct\n"


def test_an_eight_block_level_12_audit_matches_the_word_by_word_tally(tmp_path):
    # block j holds the words whose first three letters spell j in binary;
    # two items repeat, so a tally that merges equal transformations shows
    words = _words(12)
    items = ["adding@q", "adding@e", "flip_all@r", "flip_alternator@a",
             "flip_alternator@b", "adding@q", "flip_all@r", "adding@e"]
    parts = [[w for w in words if int(w[:3], 2) == j] for j in range(8)]
    spec = tmp_path / "audit12.json"
    spec.write_text(json.dumps(
        {"level": 12, "transformations": [f"gen:{i}" for i in items], "parts": parts}
    ))
    got = json.loads(_ok("audit", "--input", str(spec), "--json"))
    counts = dict.fromkeys(words, 0)
    for item, part in zip(items, parts):
        family, state = item.split("@")
        h = invauto.Transformation(invauto.generate_builtin(family), state)
        for w in part:
            counts[h.apply_text(w)] += 1
    assert got["coin_counts"] == {w: str(c) for w, c in counts.items()}
    assert got["deficit"] == [w for w, c in counts.items() if c < 2]


@pytest.fixture(scope="module")
def identity_chain(tmp_path_factory):
    """c0 -> c1 -> ... -> c19999 -> s: 20000 identity states, then a flip."""
    n = 20000
    path = tmp_path_factory.mktemp("chain") / "chain.maut"
    rows = "".join(
        f"state c{i}:\n  0 -> {t} | 0\n  1 -> {t} | 1\n"
        for i, t in ((i, f"c{i + 1}" if i + 1 < n else "s") for i in range(n))
    )
    path.write_text(f"alphabet: 0 1\n{rows}state s:\n  0 -> s | 1\n  1 -> s | 0\n")
    return path


@pytest.mark.parametrize("command", ["member-g0", "member-g1", "classify"])
def test_whole_table_answers_on_a_20000_state_identity_chain_finish(identity_chain, command):
    # one component pass each, well inside the timeout
    _ok(command, "--file", str(identity_chain), "--state", "c0")


def test_ns_and_nc_of_the_2000_deep_remark_chain_agree_and_match_known_values():
    # the chain's only trivial state, e, is also its only cycle state; the
    # first counts and the last count's size pin the values themselves
    ns, nc = (
        json.loads(_ok(kind, "--gen", "remark_chain", "--depth", "2000", "--state", "q_1",
                       "--max-level", "2000", "--json"))["counts"]
        for kind in ("ns", "nc")
    )
    assert len(ns) == 2001 and ns == nc
    assert ns[:8] == ["1", "2", "6", "16", "48", "136", "408", "1184"]
    assert int(ns[-1]).bit_length() == 3169


def test_derived_machines_read_back_through_the_checking_reader(tmp_path):
    # a 90601-state product and its inverse; minimize only on a small
    # product, as the Moore refinement is quadratic on chains
    def save(name, *argv):
        path = tmp_path / f"{name}.maut"
        path.write_bytes(_ok(*argv))
        return str(path)

    p = save("p", "compose", "gen:remark_chain:depth=300", "gen:remark_chain:depth=300")
    i = save("i", "invert", "--file", p)
    p40 = save("p40", "compose", "gen:remark_chain:depth=40", "gen:remark_chain:depth=40")
    m40 = save("m40", "minimize", "--file", p40)
    got = [len(json.loads(_ok("validate", "--file", path, "--json"))["states"])
           for path in (p, i, m40)]
    # 301 * 301 pairs; the quotient merges (q_i,e) with (e,q_i), 41 * 41 - 40 classes
    assert got == [90601, 90601, 1641]
