"""One benchmark process: set a workload up, then check it or time it.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Times are CPU
seconds (of this process and of the CLI processes it waits for), which on an
idle machine equal wall time but leave out waiting for the cores, scaled to
the reference host speed by :mod:`calib`.  The set-up time it reports is
the CPU time from interpreter start to the first operation.  Roles:

``setup``  set up and exit (one more set-up time sample);
``check``  run every operation once, check it against the references and
           write what each must give to ``expect.json`` in the work dir;
``time``   run whole passes over the operations for ``--seconds`` (at
           least three; two of 50 calls on cli_mixed), comparing every
           result with ``expect.json`` after each pass.
           With ``--trace 1`` the first third of the time runs untraced
           and the rest traced, giving per-layer numbers and the overhead.

The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import climix
import inproc

# a median over passes; on cli_mixed, two passes of 50 calls put 10 beyond p90
MIN_PASSES = {"cli_mixed": 2}
SETUP_CHUNKS = 12  # calibration chunks that scale this process's set-up time


def _digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()


def _setup(workload, seed, workdir):
    import invauto as iv

    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "cli_mixed":
        return climix.setup(iv, seed, workdir)
    w = inproc.WORKLOADS[workload](iv, seed)
    return w.sizes, w.ops


def _cli(argv, env):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "invauto.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def _in_process_main(argv):
    """``invauto.cli.main(argv)`` with stdout and stderr captured."""
    import invauto.cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            invauto.cli.main(list(argv))
        except SystemExit:
            pass
        except Exception:  # the known traceback inputs; the spans still count
            pass


def _import_profile(env) -> dict:
    """Import cost of the CLI, and of numpy and networkx inside it, from
    ``python -X importtime`` running one ``classify`` call (which is what
    pulls networkx in)."""
    probe = (
        "import sys, invauto.cli as c; "
        "sys.exit(c.main(['classify', '--gen', 'flip_all', '--state', 'r']))"
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative.setdefault(name.strip(), int(cum) / 1e6)
    return {
        "cli.import_s": cumulative.get("invauto", 0.0) + cumulative.get("invauto.cli", 0.0),
        "cli.import.numpy_s": cumulative.get("numpy", 0.0),
        "cli.import.networkx_s": cumulative.get("networkx", 0.0),
    }


def check(workload, ops, workdir):
    """Run every operation once against its references; write expect.json."""
    problems = []
    if workload == "cli_mixed":
        import invauto as iv

        expected, problems = climix.expectations(iv, ops)
        failed = sorted({op.name for op, want in zip(ops, expected) if "wrong" in want})
        payload = {"expected": expected}
    else:
        digests, failed = {}, []
        for op in ops:
            try:
                result = op.run()
                found = op.check(result)
            except Exception as exc:  # a raising operation is a failed one
                result, found = None, [f"raised {exc!r}"]
            digests[op.name] = _digest(result)
            if found:
                failed.append(op.name)
                problems += [f"{op.name}: {p}" for p in found]
        payload = {"digests": digests, "failed": failed}
    (workdir / "expect.json").write_text(json.dumps(payload))
    return {"failed": failed, "problems": problems}


class Timer:
    """Whole passes over the operations, each result compared after the pass."""

    def __init__(self, workload, ops, workdir, env):
        self.workload, self.ops, self.env = workload, ops, env
        expect = json.loads((workdir / "expect.json").read_text())
        self.digests = expect.get("digests")
        self.known_bad = set(expect.get("failed", []))
        self.expected = expect.get("expected")
        self.calibration = calib.Calibration()
        self.batches = []  # wall seconds per pass, for the traced run
        self.cpu_batches = []
        self.scaled_batches = []  # CPU seconds per pass at the reference speed
        self.op_times = []  # wall seconds per invocation, cli_mixed only
        self.attempted = self.failed = 0
        self.failures = {}  # operation name -> first problem seen
        self.wrong = 0  # failures of valid operations (wrong or missing results)

    def _fail(self, name, problem, valid=True):
        self.failures.setdefault(name, problem)
        self.failed += 1
        self.wrong += valid

    def one_pass(self):
        results = []
        wall = cpu = 0.0
        first_chunk = len(self.calibration.samples)
        for op in self.ops:
            start, start_cpu = time.perf_counter(), calib.cpu()
            if self.workload == "cli_mixed":
                elapsed, code, out, err = _cli(op.argv, self.env)
                results.append((code, out, err))
                self.op_times.append(elapsed)
            else:
                try:
                    results.append(op.run())
                except Exception as exc:  # counted as a failed operation
                    results.append(exc)
            wall += time.perf_counter() - start
            cpu += calib.cpu() - start_cpu
            self.calibration.between_ops()
        if len(self.calibration.samples) == first_chunk:
            self.calibration.sample(1)
        self.batches.append(wall)
        self.cpu_batches.append(cpu)
        self.scaled_batches.append(cpu * calib.scale(self.calibration.samples[first_chunk:]))
        self.attempted += len(self.ops)
        for i, (op, result) in enumerate(zip(self.ops, results)):
            if self.workload == "cli_mixed":
                problem = climix.verify(self.expected[i], *result)
                if problem:
                    self._fail(op.name, problem, valid=not self.expected[i].get("error"))
            elif isinstance(result, Exception):
                self._fail(op.name, f"raised {result!r}")
            elif op.name in self.known_bad:
                self._fail(op.name, "failed its check")
            elif _digest(result) != self.digests[op.name]:
                self._fail(op.name, "result differs from the checked run")
        # the next pass starts from the same heap, so peak memory does not
        # depend on when the collector last freed this pass's results
        del results
        gc.collect()
        return wall


def timed(workload, ops, workdir, env, seconds, traced):
    timer = Timer(workload, ops, workdir, env)
    usage = resource.RUSAGE_CHILDREN if workload == "cli_mixed" else resource.RUSAGE_SELF
    min_passes = MIN_PASSES.get(workload, 3)
    if traced:
        out = _traced(timer, seconds)
        peak = resource.getrusage(usage).ru_maxrss
    else:
        out = {}
        deadline = time.monotonic() + seconds
        while len(timer.batches) < min_passes or time.monotonic() < deadline:
            timer.one_pass()
            if len(timer.batches) == min_passes:
                # the peak over a fixed number of passes: later passes only
                # let heap fragmentation creep, by as much as the host's
                # speed lets them run
                peak = resource.getrusage(usage).ru_maxrss
    out.update(
        batches=timer.batches,
        cpu_batches=timer.cpu_batches,
        scaled_batches=timer.scaled_batches,
        chunks=len(timer.calibration.samples),
        op_times=timer.op_times,
        attempted=timer.attempted,
        failed=timer.failed,
        wrong=timer.wrong,
        failures=timer.failures,
        peak_rss_mb=peak / 1024,
    )
    return out


def _traced(timer, seconds):
    """Untraced passes for a third of the time, traced passes for the rest;
    per-layer medians over the traced passes."""
    import spans

    cli = timer.workload == "cli_mixed"
    if not cli:
        # lazy imports (networkx) land in an untimed first pass, so the
        # untraced passes give a fair base for the tracing overhead
        timer.one_pass()
        timer.scaled_batches.clear()
        timer.op_times.clear()
    start = time.monotonic()
    while not timer.scaled_batches or time.monotonic() < start + seconds / 3:
        timer.one_pass()
    untraced = list(timer.scaled_batches)
    tracer = spans.Tracer()
    tracer.install()
    samples = []
    while not samples or time.monotonic() < start + seconds:
        tracer.reset()
        wall = timer.one_pass()
        if cli:
            # the subprocesses are opaque, so time main() in-process as well
            spawn = sum(timer.op_times[-len(timer.ops):])
            t = time.perf_counter()
            for op in timer.ops:
                _in_process_main(op.argv)
            layers = tracer.summary(time.perf_counter() - t)
            main = sum(e - s for name, s, e, parent in tracer.spans
                       if name == "cli.main" and parent < 0)
            layers["cli.spawn_s"] = spawn - main
        else:
            layers = tracer.summary(wall)
        samples.append(layers)
    tracer.uninstall()
    traced = timer.scaled_batches[len(untraced):]
    names = sorted({name for layers in samples for name in layers})
    out = {name: statistics.median(layers.get(name, 0) for layers in samples) for name in names}
    imports = [_import_profile(timer.env) for _ in range(3)]
    for name in imports[0]:
        out[name] = statistics.median(p[name] for p in imports)
    out["trace.batch_s"] = statistics.median(traced)
    out["trace.untraced_batch_s"] = statistics.median(untraced)
    return {"layers": out}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("setup", "check", "time"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    sizes, ops = _setup(args.workload, args.seed, args.workdir)
    setup_cpu = time.process_time()
    chunks = [calib.chunk() for _ in range(SETUP_CHUNKS)]
    result = {
        "setup_s": setup_cpu * calib.scale(chunks),
        "setup_raw_s": setup_cpu,
        "sizes": sizes,
    }
    if args.role == "check":
        result.update(check(args.workload, ops, args.workdir))
    elif args.role == "time":
        result.update(timed(args.workload, ops, args.workdir, dict(os.environ),
                            args.seconds, bool(args.trace)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
