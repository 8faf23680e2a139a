"""The ``cli_mixed`` workload: a seeded mix of ``python -m invauto.cli`` calls.

``setup`` writes the small input files and returns the fixed list of
invocations.  Valid invocations carry what their stdout must show, worked
out from the library (and the library's answers are checked against
:mod:`refs` and the generators first); malformed ones must exit 1 or 2 with
exactly one ``error:`` line on stderr and no traceback.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import machines
import refs

PASS_LENGTH = 50
CLASSIFY = 10  # a fifth of the mix, so the 90th percentile lands among them

# Malformed inputs that ended in a Python traceback when this benchmark was
# written (the exit-code contract breaches listed in the roadmap).  They
# stay in the mix so a fix shows as fewer failed operations.
KNOWN_BREACHES = {
    "error.ns_negative_level": "ns --max-level -1 (ValueError)",
    "error.periods_zero": "periods -m 0 (ValueError)",
    "error.lemma2_zero": "lemma2 ... -m 0 (ValueError)",
    "error.audit_no_parts": "audit spec without \"parts\" (KeyError)",
    "error.audit_not_json": "audit on a non-JSON file (JSONDecodeError)",
    "error.item_bad_depth": "--item gen:adding:depth=x@q (ValueError)",
}


@dataclass
class Call:
    name: str
    argv: list
    expect: object  # () -> dict, evaluated in the checking process; None if malformed
    truth: tuple | None = None  # (category, degree, rate) the generator built


def _symbols(k):
    return [str(x) for x in range(k)]


def _text(s):
    return {"stdout": s}


def _json(payload, rate=None):
    return {"json": payload, "rate": rate}


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


class Inputs:
    """Small seeded machines, their files and what they were built to be."""

    def __init__(self, iv, rng: random.Random, workdir: Path):
        self.iv = iv
        funnel_t, self.funnel_top, self.funnel_bottom = machines.funnel(rng, 3, 4, 2)
        planted_t, _ = machines.planted_cycles(rng, 12, 3, [1, 2])
        specs = {
            "funnel.maut": (_symbols(2), funnel_t, iv.render_dsl),
            "expo.json": (_symbols(3), machines.constant_degree(rng, 12, 3, 2), iv.render_json),
            "planted.maut": (_symbols(2), planted_t, iv.render_dsl),
            "copies.json": (_symbols(2), machines.copies(rng, 4, 3, 2), iv.render_json),
        }
        self.files = {}
        for name, (symbols, table, render) in specs.items():
            self.files[name] = _write(workdir / name, render(iv.Automaton.from_table(symbols, table)))
        self.chain_depth = rng.randint(16, 64)
        level = 6
        words = [_bits(i, level) for i in range(2**level)]
        split = rng.randrange(1, len(words))
        self.audit = {
            "level": level,
            "transformations": ["gen:adding@q", f"{self.files['funnel.maut']}@{self.funnel_top}"],
            "parts": [words[:split], words[split:]],
        }
        self.files["audit.json"] = _write(workdir / "audit.json", json.dumps(self.audit))
        self.files["no_parts.json"] = _write(
            workdir / "no_parts.json",
            json.dumps({"level": 1, "transformations": ["gen:adding@q"]}),
        )
        self.files["not_json.json"] = _write(workdir / "not_json.json", "level: 2\n")
        self.files["bad.maut"] = _write(workdir / "bad.maut", "alphabet: 0 1\nstate q\n  0 -> q | 1\n")

    def builtin(self, family):
        if family == "remark_chain":
            return self.iv.generate_builtin(family, depth=self.chain_depth)
        return self.iv.generate_builtin(family)

    def load(self, name):
        """A written machine as the CLI sees it: parsed back from its file."""
        return self.iv.parse_automaton(Path(self.files[name]).read_text(encoding="utf-8"))


def _bits(i: int, level: int) -> str:
    return format(i, f"0{level}b")


def _source(inputs, rng, kind="any"):
    """(argv fragment, a state) for a random small machine."""
    choices = {
        "binary": [("gen", "adding", "q"), ("gen", "flip_alternator", "a"), ("file", "planted.maut", "u4")],
        "any": [
            ("gen", "adding", "q"),
            ("gen", "flip_all", "r"),
            ("gen", "remark_chain", "q_1"),
            ("file", "funnel.maut", None),
            ("file", "expo.json", "s0"),
            ("file", "copies.json", "b0_0"),
        ],
    }[kind]
    how, name, state = rng.choice(choices)
    if how == "gen":
        argv = ["--gen", name]
        if name == "remark_chain":
            argv += ["--depth", str(inputs.chain_depth)]
    else:
        argv = ["--file", inputs.files[name]]
    return argv, state or inputs.funnel_top


def _classify_calls(inputs, rng):
    """(argv, category, degree, rate) as the generators built them."""
    truths = [
        (["--gen", "adding", "--state", "q"], "bounded", None, None),
        (["--gen", "flip_all", "--state", "r"], "exponential", None, 2.0),
        (["--gen", "flip_alternator", "--state", "a"], "exponential", None, 2.0),
        (["--file", inputs.files["funnel.maut"], "--state", inputs.funnel_top], "polynomial", 2, None),
        (["--file", inputs.files["funnel.maut"], "--state", inputs.funnel_bottom], "bounded", None, None),
        (["--file", inputs.files["expo.json"], "--state", f"s{rng.randrange(12)}"], "exponential", None, 2.0),
    ]
    return truths


def _load(iv, argv):
    """The machine and state an argv fragment names, loaded the library's way."""
    if "--gen" in argv:
        family = argv[argv.index("--gen") + 1]
        depth = int(argv[argv.index("--depth") + 1]) if "--depth" in argv else None
        automaton = iv.generate_builtin(family, depth=depth)
    else:
        path = argv[argv.index("--file") + 1]
        automaton = iv.parse_automaton(Path(path).read_text(encoding="utf-8"))
    state = argv[argv.index("--state") + 1] if "--state" in argv else None
    return automaton, state


def _valid_calls(iv, inputs, rng):
    """Builders for every subcommand but classify, each returning a Call."""
    depth = inputs.chain_depth

    def validate():
        argv, _ = _source(inputs, rng)

        def expect():
            a = _load(iv, argv)[0]
            return _json({"valid": True, "states": list(a.states), "alphabet": list(a.alphabet.symbols)})

        return Call("validate", ["validate", *argv, "--json"], expect)

    def gen():
        family = rng.choice(["adding", "flip_alternator", "remark_chain"])
        argv = ["gen", family] + (["--depth", str(depth)] if family == "remark_chain" else [])
        return Call("gen", argv, lambda: _text(iv.render_dsl(inputs.builtin(family), name=family)))

    def export_dot():
        family = rng.choice(["adding", "flip_all", "remark_chain"])
        argv = ["export-dot", "--gen", family] + (["--depth", str(depth)] if family == "remark_chain" else [])
        return Call("export-dot", argv, lambda: _text(iv.render_dot(inputs.builtin(family), name=family)))

    def apply():
        argv, state = _source(inputs, rng, "binary")
        words = ["".join(rng.choice("01") for _ in range(rng.randint(4, 24))) for _ in range(3)]
        return Call("apply", ["apply", *argv, "--state", state, "--json", *words], lambda: _json(
            {"outputs": [iv.Transformation(_load(iv, argv)[0], state).apply_text(w) for w in words]}))

    def invert():
        argv, _ = _source(inputs, rng)
        return Call("invert", ["invert", *argv], lambda: _text(iv.render_dsl(iv.invert(_load(iv, argv)[0]))))

    def compose():
        left, right = rng.choice([("gen:adding", "gen:flip_alternator"), ("gen:flip_all", "gen:adding")])
        prune = {"gen:adding": "q", "gen:flip_all": "r", "gen:flip_alternator": "a"}
        argv = ["compose", left, right]
        use_prune = rng.random() < 0.5
        if use_prune:
            argv += ["--prune", f"{prune[left]},{prune[right]}"]

        def expect():
            a, b = (iv.generate_builtin(s[4:]) for s in (left, right))
            product = iv.compose(a, b, prune_from=(prune[left], prune[right]) if use_prune else None)
            return _text(iv.render_dsl(product))

        return Call("compose", argv, expect)

    def minimize():
        path = inputs.files["copies.json"]

        def expect():
            quotient, mapping = iv.minimize(inputs.load("copies.json"))
            doc = json.loads(iv.render_json(quotient))
            doc["classes"] = mapping
            return _json(doc)

        return Call("minimize", ["minimize", "--file", path, "--json"], expect)

    def ucs():
        argv, _ = _source(inputs, rng, rng.choice(["binary", "any"]))
        return Call("ucs", ["ucs", *argv, "--json"], lambda: _json({"cycles": [
            {"length": c.length, "states": list(c.states)} for c in iv.find_ucs(_load(iv, argv)[0])]}))

    def counts(kind):
        def build():
            argv, state = _source(inputs, rng)
            top = depth if "remark_chain" in argv else rng.randint(8, 48)
            counter = iv.count_ns if kind == "ns" else iv.count_nc
            return Call(kind, [kind, *argv, "--state", state, "--max-level", str(top), "--json"],
                        lambda: _json({"kind": kind, "state": state, "counts": [
                            str(c) for c in counter(_load(iv, argv)[0].at(state), top).counts]}))
        return build

    def member(kind):
        def build():
            state = f"u{rng.randrange(12)}"
            path = inputs.files["planted.maut"]
            decide = iv.decide_g0 if kind == "g0" else iv.decide_g1

            def expect():
                g = inputs.load("planted.maut").at(state)
                d = decide(g)
                witness = None if d.witness is None else g.alphabet.text(d.witness)
                return _json({"member": d.member, "witness": witness, "core": list(d.core)})

            return Call(f"member-{kind}", [f"member-{kind}", "--file", path, "--state", state, "--json"], expect)
        return build

    def lemma1():
        state = f"u{rng.randrange(3, 12)}"
        prefix = "".join(rng.choice("01") for _ in range(rng.randint(2, 8)))
        period = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
        argv = ["lemma1", "--file", inputs.files["planted.maut"], "--state", state,
                "--prefix", prefix, "--period", period, "--json"]

        def expect():
            g = inputs.load("planted.maut").at(state)
            w = iv.EventuallyPeriodicWord(g.alphabet.word(prefix), g.alphabet.word(period))
            v = iv.check_lemma1(g, w, w.level)
            return _json({"applicable": v.applicable, "holds": v.holds, "input_period": v.input_period,
                          "cycle_length": v.cycle_length, "observed_period": v.observed_period,
                          "bound": v.bound})

        return Call("lemma1", argv, expect)

    def lemma2():
        state = f"u{rng.randrange(3, 12)}"
        level = 6
        words = ["".join(rng.choice("01") for _ in range(level)) + ":" +
                 "".join(rng.choice("01") for _ in range(rng.choice([1, 2])))
                 for _ in range(rng.randint(2, 6))]
        argv = ["lemma2", "--file", inputs.files["planted.maut"], "--state", state,
                "-l", str(level), "-c", "2", "-m", "2", "--json"]
        for w in words:
            argv += ["--word", w]

        def expect():
            g = inputs.load("planted.maut").at(state)
            samples = [iv.EventuallyPeriodicWord(g.alphabet.word(w.split(":")[0]),
                                                 g.alphabet.word(w.split(":")[1])) for w in words]
            v = iv.check_lemma2(g, level, 2, 2, samples)
            return _json({"checked": v.checked, "skipped": v.skipped, "failed": v.failed})

        return Call("lemma2", argv, expect)

    def periods():
        k, m = rng.randint(2, 4), rng.randint(1, 12)
        return Call("periods", ["periods", "-k", str(k), "-m", str(m), "--json"],
                    lambda: _json({"count": str(iv.count_periods(k, m))}))

    def report(kind):
        def build():
            level = rng.randint(4, depth)
            states = ["q_1"] + [f"q_{rng.randint(1, depth - level + 1)}" for _ in range(rng.randint(0, 3))]
            src = ["--gen", "remark_chain", "--depth", str(depth)]
            argv = [f"{kind}-report", *src, "--state", states[0], "-l", str(level)]
            if kind == "t2":
                argv += ["-m", "1"]
            for s in states[1:]:
                argv += ["--item", f"gen:remark_chain:depth={depth}@{s}"]
            argv.append("--json")

            def expect():
                chain = inputs.builtin("remark_chain")
                hs = [chain.at(s) for s in states]
                r = (iv.theorem1_report(hs, level) if kind == "t1"
                     else iv.theorem2_report(hs, level, 1))
                return _json({"kind": r.kind, "level": r.level, "items": states,
                              "per_item": [str(c) for c in r.per_item],
                              "aggregate": str(r.aggregate), "threshold": str(r.threshold),
                              "satisfied": r.satisfied})

            return Call(f"{kind}-report", argv, expect)
        return build

    def min_level():
        l_max = rng.randint(4, 16)
        states = ["q_1"] + [f"q_{rng.randint(1, depth - l_max)}" for _ in range(rng.randint(0, 2))]
        argv = ["min-level", "--gen", "remark_chain", "--depth", str(depth), "--state", states[0],
                "--l-max", str(l_max), "--json"]
        for s in states[1:]:
            argv += ["--item", f"gen:remark_chain:depth={depth}@{s}"]
        return Call("min-level", argv, lambda: _json(
            {"level": iv.find_minimal_level([inputs.builtin("remark_chain").at(s) for s in states], 8, l_max)}))

    def audit():
        def expect():
            spec = inputs.audit
            hs = [iv.generate_builtin("adding").at("q"), inputs.load("funnel.maut").at(inputs.funnel_top)]
            alphabet = hs[0].alphabet
            a = iv.coin_audit(spec["level"], [[alphabet.word(w) for w in p] for p in spec["parts"]], hs)
            return _json({"level": a.level, "total_coins": str(a.total_coins),
                          "coin_counts": {alphabet.text(w): str(c) for w, c in sorted(a.coin_counts.items())},
                          "deficit": [alphabet.text(w) for w in a.deficit], "doubling": a.doubling})

        return Call("audit", ["audit", "--input", inputs.files["audit.json"], "--json"], expect)

    return [validate, gen, export_dot, apply, invert, compose, minimize, ucs, counts("ns"),
            counts("nc"), member("g0"), member("g1"), lemma1, lemma2, periods, report("t1"),
            report("t2"), min_level, audit]


def _error_calls(inputs):
    f = inputs.files
    return [
        Call("error.ns_negative_level", ["ns", "--gen", "adding", "--state", "q", "--max-level", "-1"], None),
        Call("error.periods_zero", ["periods", "-k", "2", "-m", "0"], None),
        Call("error.lemma2_zero", ["lemma2", "--gen", "adding", "--state", "q", "-l", "1", "-c", "1",
                                   "-m", "0", "--word", "0:1"], None),
        Call("error.audit_no_parts", ["audit", "--input", f["no_parts.json"]], None),
        Call("error.audit_not_json", ["audit", "--input", f["not_json.json"]], None),
        Call("error.item_bad_depth", ["t1-report", "--gen", "adding", "--state", "q", "-l", "2",
                                      "--item", "gen:adding:depth=x@q"], None),
        Call("error.parse", ["validate", "--file", f["bad.maut"]], None),
    ]


def setup(iv, seed: int, workdir: Path):
    """Write the input files and return (sizes, calls) for one pass."""
    rng = random.Random(seed)
    inputs = Inputs(iv, rng, workdir)
    calls = []
    truths = _classify_calls(inputs, rng)
    for argv, category, degree, rate in (truths * 2)[:CLASSIFY]:
        def expect(argv=argv, category=category, degree=degree, rate=rate):
            report = iv.classify_growth(iv.Transformation(*_load(iv, argv)))
            return _json({"category": report.category, "degree": report.degree}, report.rate)

        calls.append(Call("classify", ["classify", *argv, "--json"], expect, (category, degree, rate)))
    errors = _error_calls(inputs)
    builders = _valid_calls(iv, inputs, rng)
    others = PASS_LENGTH - CLASSIFY - len(errors)
    extra = [rng.choice(builders) for _ in range(others - len(builders))]
    calls += [build() for build in builders + extra]
    calls += errors
    rng.shuffle(calls)
    sizes = {
        "invocations_per_pass": len(calls),
        "classify": CLASSIFY,
        "malformed": len(errors),
        "remark_chain_depth": inputs.chain_depth,
        "files": sorted(inputs.files),
    }
    return sizes, calls


def expectations(iv, calls) -> tuple[list, list]:
    """What each call must print, and problems found checking the library's
    own answers against the references and the generators."""
    problems = []
    out = []
    for call in calls:
        if call.expect is None:
            out.append({"error": True})
            continue
        try:
            want = call.expect()
        except Exception as exc:  # a library failure is a finding, not a crash
            problems.append(f"{call.name} {call.argv}: library raised {exc!r}")
            out.append({"wrong": f"library raised {exc!r}"})
            continue
        problem = None
        if call.truth is not None:
            category, degree, rate = call.truth
            got = want["json"]
            if (got["category"], got["degree"]) != (category, degree) or (
                rate is not None and (want["rate"] is None or abs(want["rate"] - rate) > 1e-6 * rate)
            ):
                problem = f"library says {got}, built as {call.truth}"
        if call.name in ("ns", "nc"):
            a, state = _load(iv, call.argv)
            top = int(call.argv[call.argv.index("--max-level") + 1])
            reference = refs.ns_counts if call.name == "ns" else refs.nc_counts
            ref = [str(c) for c in reference(a, a.state_index(state), top)]
            if want["json"]["counts"] != ref:
                problem = "library counts differ from the reference sweep"
        if problem:
            problems.append(f"{call.name} {call.argv}: {problem}")
            want["wrong"] = problem
        out.append(want)
    return out, problems


def verify(expected: dict, code: int, stdout: str, stderr: str) -> str | None:
    """None if the invocation kept its contract, else what went wrong."""
    if "wrong" in expected:  # the library's own answer failed its reference check
        return expected["wrong"]
    if expected.get("error"):
        if "Traceback" in stderr:
            return f"traceback (exit {code})"
        if code not in (1, 2):
            return f"exit {code}, expected 1 or 2"
        if sum("error:" in line for line in stderr.splitlines()) != 1:
            return "not exactly one error: line"
        return None
    if code != 0:
        return f"exit {code}: {stderr.strip()[-200:]}"
    if "stdout" in expected:
        return None if stdout == expected["stdout"] else "stdout differs from the library"
    try:
        got = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    for key, value in expected["json"].items():
        if got.get(key) != value:
            return f"field {key!r} differs from the library"
    rate = expected.get("rate")
    if rate is not None and (
        not isinstance(got.get("rate"), (int, float)) or abs(got["rate"] - rate) > 1e-6 * abs(rate)
    ):
        return "rate differs from the library"
    return None
