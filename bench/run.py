"""invauto benchmark: one seeded workload, checked, timed, with every metric.

Run from the repository root:

    python3 bench/run.py --workload deep_counts --seed 1 --seconds 25 --trace 0

Workloads (see bench/README.md for why each exists):

  deep_counts  exact ns/nc counts at deep levels, reports, minimal level
  wide_tables  whole-table passes: build, classify, decide, algebra, text,
               words, coin audit, one shallow report on a wide machine
  cli_mixed    sequential ``python -m invauto.cli`` calls over all 20
               subcommands, 7 of every 50 malformed

Each workload is a closed loop with one caller and no threads.  The program
is used only from outside: the package in ``src`` is put on ``PYTHONPATH``
of fresh interpreters (``bench/worker.py``).  A run sets the workload up in
separate interpreters for set-up time samples, checks every operation once
against references that do not use the library's counting code, then times
whole passes for ``--seconds`` (at least three passes, two on cli_mixed)
and compares every result with the checked one.  Times are CPU seconds
scaled to a reference host speed (``bench/calib.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Human-readable lines come first; the last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # set-up-only interpreters, on top of the check and timed ones
WORKLOADS = ("deep_counts", "wide_tables", "cli_mixed")
RUN_LIMIT = 170  # seconds; a run must end within 180


class BenchError(Exception):
    pass


def _run(cmd, env, deadline):
    """Run a child in its own process group; kill the group if time runs out."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1]} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} failed (exit {proc.returncode}):\n{err[-2000:]}")
    return out


def _child(role, args, workdir, env, deadline, seconds=0.0):
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--role", role,
        "--workdir", str(workdir),
        "--seconds", repr(seconds), "--trace", str(args.trace),
    ]
    return json.loads(_run(cmd, env, deadline).strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _machine():
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
    }


def _end_to_end(setup, timed, workload):
    batches = timed["scaled_batches"]
    attempted, failed = timed["attempted"], timed["failed"]
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "batch_s": (statistics.median(batches), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        "ok_share": ((attempted - failed) / attempted, "share"),
    }
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"fail_share = {failed / attempted:.6g} share ({failed} of {attempted} ops)")
    q = _quartiles(batches)
    lines.append(
        f"batch_s quartiles = {q[0]:.4f} / {q[1]:.4f} / {q[2]:.4f} s over {len(batches)} passes"
    )
    lines.append(
        f"unscaled: batch CPU median {statistics.median(timed['cpu_batches']):.4f} s, "
        f"batch wall median {statistics.median(timed['batches']):.4f} s, "
        f"{timed['chunks']} calibration chunks"
    )
    lines.append(f"setup_s samples = {', '.join(f'{s:.4f}' for s, _ in setup)}")
    lines.append(f"setup CPU unscaled = {', '.join(f'{r:.4f}' for _, r in setup)}")
    if workload == "cli_mixed":
        calls_ms = [t * 1000 for t in timed["op_times"]]
        p90 = statistics.quantiles(calls_ms, n=10, method="inclusive")[8]
        lines.append(
            f"cli_p50_ms = {statistics.median(calls_ms):.6g} ms, cli_p90_ms = {p90:.6g} ms "
            f"over {len(calls_ms)} invocations"
        )
    return metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "invauto" / "__init__.py").is_file():
        print("error: run from the repository root: src/invauto is missing", file=sys.stderr)
        return 2
    if not (root / "tests" / "helpers.py").is_file():
        print("error: tests/helpers.py (the enumeration oracles) is missing", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT
    # numpy's BLAS would start a second thread in every process; on a
    # 2-vCPU host its spinning competes with the program for the cores
    env = dict(
        os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1"
    )
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # compile the package once, as an installed copy would be
        _run([sys.executable, "-c", "import invauto.cli"], env, deadline)
        setup = []
        if not args.trace:
            for i in range(SETUP_SAMPLES):
                child = _child("setup", args, workdir / f"setup{i}", env, deadline)
                setup.append((child["setup_s"], child["setup_raw_s"]))
        check = _child("check", args, workdir / "main", env, deadline)
        timed = _child("time", args, workdir / "main", env, deadline, args.seconds)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    setup += [(c["setup_s"], c["setup_raw_s"]) for c in (check, timed)]

    from climix import KNOWN_BREACHES

    failures = dict(timed["failures"])
    for name in check["failed"]:
        failures.setdefault(name, "failed its reference check")
    correct = not check["problems"] and timed["wrong"] == 0
    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    if args.trace:
        layers = timed["layers"]
        names = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
        base = layers["trace.untraced_batch_s"]
        layers["trace.overhead_share"] = layers["trace.batch_s"] / base - 1
        metrics = {m["name"]: (layers.get(m["name"], 0), m["unit"]) for m in names}
        lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    else:
        metrics, more = _end_to_end(setup, timed, args.workload)
        lines += more
    for name, problem in sorted(failures.items()):
        known = KNOWN_BREACHES.get(name)
        lines.append(f"failed: {name}: {problem}" + (f" [known: {known}]" if known else ""))
    lines += [f"problem: {p}" for p in check["problems"]]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": timed["sizes"],
        "machine": _machine(),
        "passes": len(timed["batches"]),
        "failed_ops": sorted(failures),
    }
    print("\n".join(lines))
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
