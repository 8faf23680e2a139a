"""Spans around calls into the library, recorded from outside it.

``install`` replaces each public function of ``invauto`` (the names in
``invauto.__all__``, plus ``invauto.cli.main`` and ``build_parser``) by a
wrapper in every ``invauto`` module namespace that holds it, so calls
between library modules are seen too.  ``Automaton`` construction,
``Automaton.from_table`` and ``Transformation.apply`` are wrapped on their
classes.  The count iterators are timed per ``next()``, over their
consumption and not their creation.

Each span records name, start, end and parent, kept in memory;
``Tracer.summary`` turns one pass's spans into per-layer self times (a
span's duration minus the part of it its children cover) and counters.
Counters that cost real work to compute run inside a ``trace.bookkeeping``
span, so they do not inflate the self time of the span around them.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

import refs

# public name -> layer span; names not listed fall into "trace.unmapped"
SPANS = {
    "generate_builtin": "core.build",
    "identity_automaton": "core.build",
    "trivial_states": "core.trivial_states",
    "is_trivial_state": "core.trivial_states",
    "compose": "core.compose",
    "invert": "core.invert",
    "minimize": "core.minimize",
    "parse_automaton": "textio.parse",
    "parse_document": "textio.parse",
    "render_dsl": "textio.render",
    "render_json": "textio.render",
    "render_dot": "textio.render",
    "iter_ns_counts": "counting.sweep",
    "iter_nc_counts": "counting.sweep",
    "count_ns": "counting.count",
    "count_nc": "counting.count",
    "ns_words": "counting.count",
    "nc_words": "counting.count",
    "find_ucs": "counting.find_ucs",
    "reachable_uc_lengths": "counting.find_ucs",
    "max_uc_length": "counting.find_ucs",
    "classify_growth": "counting.classify",
    "decide_g0": "counting.decide",
    "decide_g1": "counting.decide",
    "apply_to_ep_word": "periodic.ep_image",
    "check_lemma1": "periodic.lemma",
    "check_lemma2": "periodic.lemma",
    "count_periods": "periodic.words",
    "primitive_root": "periodic.words",
    "purely_periodic_period": "periodic.words",
    "theorem1_report": "paradox.report",
    "theorem2_report": "paradox.report",
    "find_minimal_level": "paradox.min_level",
    "coin_audit": "paradox.audit",
    "main": "cli.main",
    "build_parser": "cli.parser",
}

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int)
        self._cache = {}  # id(automaton) -> (automaton, value); holds a reference
        self._originals = []

    def open(self, name):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.peaks.clear()

    def cached(self, key, automaton, compute):
        hit = self._cache.get((id(automaton), key))
        if hit is None or hit[0] is not automaton:
            hit = (automaton, compute())
            self._cache[(id(automaton), key)] = hit
        return hit[1]

    def summary(self, wall: float) -> dict:
        """Per-layer self time and counters of the spans recorded since ``reset``."""
        durations = [end - start for _, start, end, _ in self.spans]
        covered = [0.0] * len(self.spans)
        top = 0.0
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent < 0:
                top += durations[i]
            else:
                covered[parent] += durations[i]
        self_time = defaultdict(float)
        for i, (name, _, _, _) in enumerate(self.spans):
            self_time[name] += durations[i] - covered[i]
        out = {f"{name}_s": t for name, t in self_time.items()}
        out.update(self.counts)
        out.update(self.peaks)
        out["trace.outside_s"] = wall - top
        out["trace.spans"] = len(self.spans)
        return out

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name, count=None, heavy=False):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                parent = tracer.parent_name()
                if heavy:
                    book = tracer.open(BOOKKEEPING)
                    try:
                        count(args, kwargs, result, parent)
                    finally:
                        tracer.close(book)
                else:
                    count(args, kwargs, result, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, public_name):
        """(count function, heavy) for the spans that carry counters."""
        c = self.counts

        def outermost(layer, add):
            def count(args, kwargs, result, parent):
                if parent != layer:
                    add(args, kwargs, result)

            return count

        def arg(args, kwargs, position, key):
            return args[position] if len(args) > position else kwargs[key]

        def report(args, kwargs, result, parent):
            hs = list(arg(args, kwargs, 0, "hs"))
            c["paradox.report.items"] += len(hs)
            c["paradox.report.distinct_items"] += len({(h.automaton, h.state) for h in hs})

        def classify(args, kwargs, result, parent):
            g = arg(args, kwargs, 0, "g")
            c["counting.classify.active_states"] += self.cached(
                ("active", g.start), g.automaton, lambda: refs.active_reachable(g.automaton, g.start)
            )

        def add(key, value):
            c[key] += value

        table = {
            "compose": (lambda a, k, r, p: add("core.compose.pairs", r.n_states), False),
            "minimize": (lambda a, k, r, p: add("core.minimize.classes", r[0].n_states), False),
            "parse_automaton": (outermost("textio.parse", lambda a, k, r: add(
                "textio.parse.bytes", len(arg(a, k, 0, "text").encode("utf-8")))), True),
            "parse_document": (outermost("textio.parse", lambda a, k, r: add(
                "textio.parse.bytes", len(arg(a, k, 0, "text").encode("utf-8")))), True),
            "classify_growth": (classify, True),
            "decide_g0": (lambda a, k, r, p: add("counting.decide.core_states", len(r.core)), False),
            "decide_g1": (lambda a, k, r, p: add("counting.decide.core_states", len(r.core)), False),
            "check_lemma1": (lambda a, k, r, p: add("periodic.lemma.samples", 1), False),
            "check_lemma2": (lambda a, k, r, p: add(
                "periodic.lemma.samples", len(arg(a, k, 4, "samples"))), False),
            "theorem1_report": (report, True),
            "theorem2_report": (report, True),
            "coin_audit": (lambda a, k, r, p: add("paradox.audit.words", len(r.assignments)), False),
        }
        for renderer in ("render_dsl", "render_json", "render_dot"):
            table[renderer] = (outermost("textio.render", lambda a, k, r: add(
                "textio.render.bytes", len(r.encode("utf-8")))), True)
        return table.get(public_name, (None, False))

    def _sweep(self, fn, dead_of):
        """Wrap an iterator factory so each ``next()`` is a ``counting.sweep`` span."""
        tracer = self

        class Counts:
            def __init__(self, inner, alive):
                self.inner, self.alive = inner, alive

            def __iter__(self):
                return self

            def __next__(self):
                index = tracer.open("counting.sweep")
                try:
                    value = next(self.inner)
                finally:
                    tracer.close(index)
                tracer.counts["counting.sweep.levels"] += 1
                tracer.counts["counting.sweep.alive_state_levels"] += self.alive
                bits = value.bit_length()
                if bits > tracer.peaks["counting.sweep.max_bits"]:
                    tracer.peaks["counting.sweep.max_bits"] = bits
                return value

        def traced(g):
            index = tracer.open("counting.sweep")
            try:
                inner = fn(g)
            finally:
                tracer.close(index)
            book = tracer.open(BOOKKEEPING)
            try:
                alive = tracer.cached(
                    (fn.__name__,), g.automaton,
                    lambda: g.automaton.n_states - len(dead_of(g.automaton)),
                )
            finally:
                tracer.close(book)
            return Counts(inner, alive)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import invauto
        import invauto.cli

        modules = [m for n, m in sys.modules.items() if n == "invauto" or n.startswith("invauto.")]
        targets = {name: getattr(invauto, name) for name in invauto.__all__}
        targets["main"] = invauto.cli.main
        targets["build_parser"] = invauto.cli.build_parser
        dead = {
            "iter_ns_counts": refs.trivial_states,
            "iter_nc_counts": lambda a: refs.uc_lengths(a).keys(),
        }
        for public, fn in targets.items():
            if not inspect.isfunction(fn):
                continue
            if public in dead:
                wrapper = self._sweep(fn, dead[public])
            else:
                count, heavy = self._counter(public)
                wrapper = self._wrap(fn, SPANS.get(public, "trace.unmapped"), count, heavy)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._originals.append((module, attr, fn))
                        setattr(module, attr, wrapper)

        counts = self.counts
        automaton, transformation = invauto.Automaton, invauto.Transformation
        init = automaton.__init__
        from_table = automaton.__dict__["from_table"].__func__
        apply = transformation.apply

        def count_states(args, kwargs, result, parent):
            counts["core.build.states"] += len(args[0].states)

        def count_letters(args, kwargs, result, parent):
            counts["core.apply.letters"] += len(args[1] if len(args) > 1 else kwargs["word"])

        self._originals += [
            (automaton, "__init__", init),
            (automaton, "from_table", classmethod(from_table)),
            (transformation, "apply", apply),
        ]
        automaton.__init__ = self._wrap(init, "core.build", count_states)
        automaton.from_table = classmethod(self._wrap(from_table, "core.build"))
        transformation.apply = self._wrap(apply, "core.apply", count_letters)

    def uninstall(self):
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals.clear()
