"""Byte-for-byte CLI output on fixed invocations.

``data/cli_golden.txt`` records the exit code, stdout and stderr of every
invocation in ``INVOCATIONS``, run through ``main`` with ``tests/data`` as
the working directory.  A refactor that changes any byte of it fails here.
Those in ``ENTRY_POINT`` are replayed through ``python -m invauto.cli`` as
well, the entry point a user runs.  Regenerate the file (only when an output
change is intended) with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shlex
from pathlib import Path

from invauto.cli import main
from helpers import run_python

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.txt"

REMARK = "--gen remark_chain --depth 8 --state q_1"
INVOCATIONS = [
    "validate --gen adding",
    "validate --file adding.json --json",
    "gen remark_chain --depth 3",
    "export-dot --file adding.maut",
    "apply --gen adding --state q 0110 111",
    "apply --file adding.maut --state q --json 011",
    "apply --file letters.maut --state a 'x0 x1 x1' x1",
    "invert --gen flip_alternator",
    "compose gen:adding adding.maut --prune q,q",
    "minimize --gen remark_chain --depth 4",
    "minimize --file adding.json --json",
    "ucs --gen flip_alternator",
    "ucs --gen adding --json",
    "ucs --file letters.maut",
    f"ns {REMARK} --max-level 6",
    f"nc {REMARK} --max-level 6 --json",
    "classify --gen remark_chain --depth 5 --state q_1",
    "classify --gen adding --state q --json",
    "classify --file degree1.maut --state a",
    "member-g0 --gen flip_all --state r",
    "member-g0 --file adding.maut --state q --json",
    "member-g1 --gen flip_alternator --state a",
    "lemma1 --gen adding --state q --prefix 01 --period 1",
    "lemma1 --gen flip_alternator --state a --prefix 0 --period 01 --json",
    "lemma2 --file adding.maut --state q -l 1 -c 1 -m 2 --word 0:1 --word 1:01",
    "periods -k 3 -m 4 --json",
    f"t1-report {REMARK} -l 5 --item gen:remark_chain:depth=8@q_2",
    f"t1-report {REMARK} -l 3 -s 9 --item gen:remark_chain:depth=8@q_3 --json",
    "t2-report --gen flip_alternator --state a -l 4 -m 2 --item gen:adding@q",
    f"t2-report {REMARK} -l 4 -m 1 --json",
    f"min-level {REMARK} -s 8 --l-max 16",
    "min-level --gen flip_all --state r --l-max 5 --json",
    "audit --input audit_adding.json",
    "audit --input audit_adding.json --json",
    # one of each error class: usage, parse, argument, domain, OS
    "validate",
    "validate --file audit_adding.json",
    "ns --gen adding --state q --max-level -1",
    "t1-report --gen adding --state q -l 2 --item gen:adding:width=2@q",
    "gen remark_chain --depth 3 --length 9",
    "lemma2 --gen flip_alternator --state a -l 2 -c 1 -m 2",
    "lemma2 --gen flip_alternator --state a -l -1 -c 2 -m 2",
    "lemma2 --gen adding --state q -l 1 -c 1 -m 2 --word 01",
    "compose gen:adding gen:adding --prune qq",
    "t2-report --gen flip_alternator --state a -l 4 -m 3",
    "validate --file missing.maut",
    "member-g1 --gen remark_chain --depth 4 --state q_1",
    f"nc {REMARK} --max-level 9",
    f"t1-report {REMARK} -l 3 --item gen:remark_chain:depth=8@q_8",
    "apply --gen remark_chain --depth 3 --state q_1 2222",
    f"t2-report {REMARK} -l 9 -m 1",
    # several faults at once: the first check in argument order reports
    f"t1-report {REMARK} -l -1 -s 7 --item adding.maut@q",
    f"t1-report {REMARK} -l -1 -s 7",
    "t2-report --gen flip_alternator --state a -l -1 -m 3 -s 7",
    "t2-report --gen flip_alternator --state a -l 1 -m 3",
    "t2-report --gen flip_alternator --state a -l 1 -m 0",
    "t2-report --gen flip_alternator --state a -l -1 -m 0",
    f"t1-report {REMARK} -l -1",
]


# replayed in a fresh interpreter as well: one of each import footprint
ENTRY_POINT = [
    "gen remark_chain --depth 3",
    "classify --gen adding --state q --json",
    "periods -k 3 -m 4 --json",
    "t2-report --gen flip_alternator --state a -l 4 -m 2 --item gen:adding@q",
    "audit --input audit_adding.json",
]


def _record(command: str, code: int, out: str, err: str) -> str:
    """One golden record: the command, its exit code, stdout and stderr."""
    parts = [f"$ {command}\n", f"exit {code}\n"]
    for name, text in (("stdout", out), ("stderr", err)):
        assert not text or text.endswith("\n"), f"{command}: {name} lacks a final newline"
        parts.append(f"{name} {text.count(chr(10))} lines\n{text}")
    return "".join(parts)


def _run(command: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command))
    return _record(command, code, out.getvalue(), err.getvalue())


def _replay() -> str:
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        return "".join(_run(command) for command in INVOCATIONS)
    finally:
        os.chdir(cwd)


def test_cli_output_matches_golden_file():
    expected = GOLDEN.read_text(encoding="utf-8")
    recorded = [line[2:] for line in expected.splitlines() if line.startswith("$ ")]
    assert recorded == INVOCATIONS
    assert _replay() == expected


def test_entry_point_output_matches_golden_file():
    records = re.split(r"^(?=\$ )", GOLDEN.read_text(encoding="utf-8"), flags=re.M)
    expected = {record[2:record.index("\n")]: record for record in records if record}
    for command in ENTRY_POINT:
        result = run_python("-m", "invauto.cli", *shlex.split(command), cwd=DATA, text=True)
        record = _record(command, result.returncode, result.stdout, result.stderr)
        assert record == expected[command]


if __name__ == "__main__":
    GOLDEN.write_text(_replay(), encoding="utf-8")
