"""Spans around the public functions of each gcelab layer, recorded from outside.

Nothing inside ``src/gcelab`` is changed.  ``Tracer.install`` replaces every
module attribute that holds one of the traced functions, because callers look
functions up by name in their own namespace: ``scenario`` imports the engine
and solver entry points with ``from .engine import ...``, so wrapping
``gcelab.engine.gce_residual_dirac`` alone would miss the call from
``run_scenario``.  ``PiecewiseSolution.evaluate`` is a method and is wrapped on
the class.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) -> span name.  The layer is the part before the dot.
TRACED = {
    ("gcelab.cli", "main"): "cli.main",
    ("gcelab.scenario", "resolve_scenario"): "scenario.parse",
    ("gcelab.scenario", "load_scenario"): "scenario.parse",
    ("gcelab.scenario", "load_builtin"): "scenario.parse",
    ("gcelab.scenario", "run_scenario"): "scenario.run",
    ("gcelab.scenario", "scan_scenario"): "scenario.run",
    ("gcelab.scenario", "write_reports"): "scenario.write",
    ("gcelab.solvers", "solve_dirac"): "solvers.solve",
    ("gcelab.solvers", "solve_schrodinger"): "solvers.solve",
    ("gcelab.engine", "dirac_current"): "engine.current",
    ("gcelab.engine", "schrodinger_current"): "engine.current",
    ("gcelab.engine", "transformed_current"): "engine.current",
    ("gcelab.engine", "detect_domains"): "engine.domains",
    ("gcelab.engine", "interval_stats"): "engine.domains",
    ("gcelab.engine", "gce_residual_dirac"): "engine.residual",
    ("gcelab.engine", "gce_residual_schrodinger"): "engine.residual",
    ("gcelab.engine", "charge_current_relation"): "engine.relation",
    ("gcelab.engine", "delta_domain_relation"): "engine.relation",
    ("gcelab.sun", "decompose"): "sun.decompose",
    ("gcelab.sun", "source_operator"): "sun.source_operator",
    ("gcelab.sun", "build_basis"): "sun.build_basis",
}
EVALUATE = "solvers.evaluate"

# Per-layer metric -> span name whose self time it sums, in report order.
SELF_TIME_METRICS = {
    "cli.main_self_s": "cli.main",
    "scenario.parse_s": "scenario.parse",
    "scenario.run_self_s": "scenario.run",
    "scenario.write_s": "scenario.write",
    "solvers.solve_s": "solvers.solve",
    "solvers.evaluate_s": EVALUATE,
    "engine.current_s": "engine.current",
    "engine.domains_s": "engine.domains",
    "engine.residual_self_s": "engine.residual",
    "engine.relation_s": "engine.relation",
    "sun.decompose_s": "sun.decompose",
    "sun.source_operator_s": "sun.source_operator",
    "sun.build_basis_s": "sun.build_basis",
}
ROOT = "op"


class Tracer:
    """In-memory span recorder; one instance per benchmark run.

    A span is [name, start, end, parent index, op id].  Counts that need the
    arguments or results of a call (points evaluated, bytes written) are kept
    as references during the op and reduced by ``end_op`` after its clock
    stops, so that the bookkeeping does not land inside a layer's span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple] = []
        self._evals: list[tuple] = []
        self._writes: list[tuple] = []
        self.counts: list[dict] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        if name == EVALUATE:
            @functools.wraps(fn)
            def wrapper(sol, xs, side="right"):
                tracer._evals.append((sol, side, xs))
                idx = tracer._open(name)
                try:
                    return fn(sol, xs, side)
                finally:
                    tracer._close(idx)
        elif name == "scenario.write":
            @functools.wraps(fn)
            def wrapper(bundle, out_dir):
                idx = tracer._open(name)
                try:
                    paths = fn(bundle, out_dir)
                finally:
                    tracer._close(idx)
                tracer._writes.append((bundle, list(paths)))
                return paths
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
        return wrapper

    def install(self) -> None:
        """Wrap every traced name wherever a gcelab module holds it."""
        from gcelab import solvers

        for mod_name, _ in TRACED:
            importlib.import_module(mod_name)
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "gcelab" or k.startswith("gcelab.")) and m is not None]
        for (mod_name, attr), name in TRACED.items():
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(orig, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig))
        cls = solvers.PiecewiseSolution
        orig = cls.evaluate
        cls.evaluate = self._wrap(orig, EVALUATE)
        self._restore.append((cls, "evaluate", orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def begin_op(self, op_id: int) -> int:
        self._op = op_id
        return self._open(ROOT)

    def end_op(self, root: int) -> None:
        self._close(root)
        self._op = -1
        self.counts.append(self._reduce_counts())
        self._evals.clear()
        self._writes.clear()

    def _reduce_counts(self) -> dict:
        points = 0
        by_solution = defaultdict(list)
        for sol, side, xs in self._evals:
            xs = np.atleast_1d(np.asarray(xs, dtype=float))
            points += len(xs)
            by_solution[(id(sol), side)].append(xs)
        distinct = sum(len(np.unique(np.concatenate(v))) for v in by_solution.values())
        cells = sum(
            len(header) + sum(len(row) for row in rows)
            for bundle, _ in self._writes
            for header, rows in bundle.tables.values()
        )
        n_bytes = sum(os.path.getsize(p) for _, paths in self._writes for p in paths)
        return {
            "evaluate_calls": len(self._evals),
            "evaluated_points": points,
            "distinct_points": distinct,
            "cells_written": cells,
            "write_bytes": n_bytes,
        }

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> list[tuple[dict, dict]]:
        """Per op, in op order: (span name -> summed self time, name -> calls).

        A span's self time is its duration minus that of its direct children;
        spans nest on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        times: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        calls: dict[int, dict] = defaultdict(lambda: defaultdict(int))
        for k, (name, start, end, _, op) in enumerate(self.spans):
            times[op][name] += (end - start) - child[k]
            calls[op][name] += 1
        return [(dict(times[op]), dict(calls[op])) for op in sorted(times)]

    def dump(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = dict(extra)
        doc["span_fields"] = ["name", "start", "end", "parent", "op"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
