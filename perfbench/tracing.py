"""Spans around procmaxent's public entry points, recorded from outside.

`Tracer.install` replaces the program's entry points (and numpy's
eigh / eigvalsh / lstsq) with wrappers that open a span, call the
original and close the span; `uninstall` puts the originals back.  No
file under src/ is edited.  Spans are recorded only inside a root span
that the benchmark opens around one estimate, are kept in memory and
written out at the end.

numpy calls are not spans of their own: each is counted, and timed, on
the innermost open span, and its time counts as covered by a child when
that span's self time is taken.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# span name -> where the entry point lives: (module, attribute) for a
# function, (module, class, method) for a method
ENTRY_POINTS = {
    "observations.reduce": ("procmaxent.observations", "ProcessMeasurementSpec", "reduce"),
    "observations.constraint": ("procmaxent.observations", "Constraint", "__post_init__"),
    "observations.level": ("procmaxent.observations", "ObservationLevel", "__post_init__"),
    "solver.solve_maxent": ("procmaxent.solver", "solve_maxent"),
    "solver.solve_biased": ("procmaxent.solver", "solve_biased"),
    "solver.boundary_resolve": ("procmaxent.solver", "boundary_resolve"),
    "channels.choi": ("procmaxent.channels", "ChoiState", "__post_init__"),
    "channels.choi_from_kraus": ("procmaxent.channels", "choi_from_kraus"),
    "channels.kraus": ("procmaxent.channels", "kraus_from_choi"),
    "channels.bloch": ("procmaxent.channels", "bloch_affine_map"),
    "cli.load_problem": ("procmaxent.cli", "load_problem"),
    "cli.result_document": ("procmaxent.cli", "result_document"),
}

LINALG = {"eigh": "eigh", "eigvalsh": "eigh", "lstsq": "lstsq"}

TIMED_LAYERS = {
    "observations.reduce_ms": ("observations.reduce",),
    "observations.constraint_ms": ("observations.constraint",),
    "observations.level_ms": ("observations.level",),
    "channels.choi_ms": ("channels.choi", "channels.choi_from_kraus"),
    "channels.kraus_ms": ("channels.kraus",),
    "channels.bloch_ms": ("channels.bloch",),
    "cli.load_problem_ms": ("cli.load_problem",),
    "cli.result_document_ms": ("cli.result_document",),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "child",
                 "nested", "calls", "seconds")

    def __init__(self, name, parent, root, nested):
        self.name, self.parent, self.root = name, parent, root
        self.nested = nested
        self.child = 0.0
        self.calls = {"eigh": 0, "lstsq": 0}
        self.seconds = {"eigh": 0.0, "lstsq": 0.0}
        self.end = None
        self.start = time.perf_counter()


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self._patches = []     # (owner, attribute, original)

    # -------------------------------------------------------- spans

    def begin(self, name, root=False):
        """Open a span; a root span encloses one estimate."""
        if root:
            root, parent = len(self.spans), -1
        else:
            root, parent = self.spans[self.stack[-1]].root, self.stack[-1]
        nested = any(self.spans[i].name == name for i in self.stack)
        self.spans.append(Span(name, parent, root, nested))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index):
        span = self.spans[index]
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += span.end - span.start

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)
        return traced

    def _count(self, fn, kind):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not tracer.stack or not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith("procmaxent"):
                return fn(*args, **kwargs)
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t
                top = tracer.spans[tracer.stack[-1]]
                top.calls[kind] += 1
                top.seconds[kind] += dt
                top.child += dt
        return counted

    # -------------------------------------------------------- patching

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        """Wrap every entry point under every name the program binds it to."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "procmaxent" or n.startswith("procmaxent.")]
        for name, where in ENTRY_POINTS.items():
            module = sys.modules[where[0]]
            if len(where) == 3:
                owner = getattr(module, where[1])
                self._patch(owner, where[2], self._wrap(getattr(owner, where[2]), name))
                continue
            original = getattr(module, where[1])
            wrapped = self._wrap(original, name)
            for m in modules:
                for attribute, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attribute, wrapped)
        for attribute, kind in LINALG.items():
            original = getattr(np.linalg, attribute)
            counted = self._count(original, kind)
            self._patch(np.linalg, attribute, counted)
            for m in modules:
                for a, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, a, counted)

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -------------------------------------------------------- results

    def layer_metrics(self, n_estimates):
        """Per-estimate averages of every layer (times in ms)."""
        totals = {key: 0.0 for key in TIMED_LAYERS}
        self_s = 0.0
        calls = {"eigh": 0, "lstsq": 0}
        seconds = {"eigh": 0.0, "lstsq": 0.0}
        for s in self.spans:
            duration = s.end - s.start
            for key, names in TIMED_LAYERS.items():
                if s.name in names and not s.nested:
                    totals[key] += duration
            if s.name.startswith("solver."):
                self_s += duration - s.child
            for k in calls:
                calls[k] += s.calls[k]
                seconds[k] += s.seconds[k]
        per = 1.0 / n_estimates
        out = {key: 1e3 * v * per for key, v in totals.items()}
        out["solver.self_ms"] = 1e3 * self_s * per
        out["linalg.eigh_calls"] = calls["eigh"] * per
        out["linalg.eigh_ms"] = 1e3 * seconds["eigh"] * per
        out["linalg.lstsq_calls"] = calls["lstsq"] * per
        out["linalg.lstsq_ms"] = 1e3 * seconds["lstsq"] * per
        return out

    def write(self, path, summary):
        t0 = self.spans[0].start if self.spans else 0.0
        fields = ["name", "start_ms", "end_ms", "parent", "root",
                  "eigh_calls", "eigh_ms", "lstsq_calls", "lstsq_ms"]
        rows = [[s.name, round(1e3 * (s.start - t0), 4), round(1e3 * (s.end - t0), 4),
                 s.parent, s.root, s.calls["eigh"],
                 round(1e3 * s.seconds["eigh"], 4), s.calls["lstsq"],
                 round(1e3 * s.seconds["lstsq"], 4)] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"summary": summary, "fields": fields, "spans": rows}, fh)
