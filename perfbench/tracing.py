"""Spans and counters recorded from outside the program.

The benchmark never edits ``src/``.  It traces a layer by replacing a
public function, in every ``causalreg`` module that holds a reference
to it, with a wrapper that records a span (name, start, end, parent)
or, for functions too hot to time, only bumps a counter.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (layer.function, module that defines it).  Spans: self time is the span
# minus the part its child spans cover.
SPANNED = (
    ("graph.parse_dag", "causalreg.graph"),
    ("graph.all_paths", "causalreg.graph"),
    ("graph.d_separated", "causalreg.graph"),
    ("ident.enumerate_adjustment_sets", "causalreg.ident"),
    ("ident.classify_roles", "causalreg.ident"),
    ("ident.backdoor_paths", "causalreg.ident"),
    ("missing.missingness_report", "causalreg.missing"),
    ("tables.load_table_csv", "causalreg.tables"),
    ("tables.effect_measure", "causalreg.tables"),
    ("scm.simulate", "causalreg.scm"),
    ("scm.true_effect", "causalreg.scm"),
    ("scm.parse_model", "causalreg.scm"),
    ("estimators.ols_fit", "causalreg.estimators"),
    ("estimators.logistic_fit", "causalreg.estimators"),
    ("estimators.positivity_check", "causalreg.estimators"),
    ("study.run_study", "causalreg.study"),
    ("cli.main", "causalreg.cli"),
)

# Called thousands of times per query: a span each would dominate the trace.
COUNTED = (
    ("graph.path_blocked", "causalreg.graph"),
    ("ident.satisfies_backdoor", "causalreg.ident"),
)


class Tracer:
    """Installs wrappers, records spans and counters, removes wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self.extras: defaultdict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, modname in SPANNED:
            self._replace(modname, name, self._span_wrapper)
        for name, modname in COUNTED:
            self._replace(modname, name, self._count_wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _replace(self, modname: str, name: str, make) -> None:
        attr = name.split(".", 1)[1]
        original = getattr(importlib.import_module(modname), attr)
        wrapper = make(name, original)
        for modkey, module in list(sys.modules.items()):
            if modkey != "causalreg" and not modkey.startswith("causalreg."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patched.append((module, key, original))

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, counts, observe = self.spans, self._stack, self.counts, self._observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserved so children see a stable parent id
            parent = stack[-1]
            stack.append(span_id)
            counts[name + ".calls"] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.extras[name + ".raised"][type(exc).__name__] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[span_id] = (span_id, name, start, end, parent)
            observe(name, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name: str, result) -> None:
        """Work counts read off a layer's return value."""
        if name == "graph.all_paths":
            self.counts["graph.all_paths.paths"] += len(result)
        elif name == "ident.enumerate_adjustment_sets":
            self.counts["ident.valid_sets"] += len(result)
        elif name == "scm.simulate":
            self.counts["scm.simulate.rows"] += result.n
        elif name == "estimators.logistic_fit":
            self.counts["estimators.irls_iterations.total"] += result.iterations

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[tuple[str, float, float]]:
        """(name, duration, self time) per span."""
        child_time = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [
            (name, end - start, end - start - child_time[sid])
            for sid, name, start, end, _ in self.spans
        ]

    def write(self, path) -> None:
        """Spans as JSON lines: id, name, start, end, parent id (-1 for a root)."""
        with open(path, "w") as out:
            for sid, name, start, end, parent in self.spans:
                out.write(json.dumps([sid, name, start, end, parent]) + "\n")
