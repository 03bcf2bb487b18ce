"""Spans recorded from outside the package, around calls into its modules.

A traced run replaces public names with timing wrappers where the calling
module looks them up (``bma.harness.step`` is the name ``run_trace`` and
the simulator call), and puts them back afterwards.  Nothing in ``bma`` is
changed.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import csv
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute) -> span name.  A function is listed once for each
# module that looks it up: ``unindented_shape`` calls ``solve_axes`` through
# ``bma.geometry``, the estimator through ``bma.estimator``.
WRAPPED = {
    ("bma.estimator", "evaluate_height"): "calibration.evaluate_height",
    ("bma.estimator", "solve_axes"): "geometry.solve_axes",
    ("bma.geometry", "solve_axes"): "geometry.solve_axes",
    ("bma.estimator", "perimeter"): "material.perimeter",
    ("bma.estimator", "yeoh_energy_density"): "material.yeoh_energy_density",
    ("bma.estimator", "step"): "estimator.step",
    ("bma.harness", "step"): "estimator.step",
    ("bma.harness", "run_trace"): "harness.run_trace",
    ("bma.harness", "simulate_trace"): "harness.simulate_trace",
    ("bma.harness", "ingest_trace"): "harness.ingest_trace",
    ("bma.cli", "ingest_trace"): "harness.ingest_trace",
    ("bma.cli", "run_trace"): "harness.run_trace",
    ("bma.cli", "cmd_estimate"): "cli.cmd_estimate",
    ("bma.config", "load_config"): "config.load_config",
}


class Tracer:
    """Span recorder: one span per wrapped call, with its parent span.

    A span is (name, start_ns, end_ns, parent index or -1, raised).  Calls
    happen on one thread, so a stack gives each span its parent.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, raised)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED that exists, and restore them on exit."""
        saved = []
        try:
            for (mod_name, attr), span_name in WRAPPED.items():
                mod = importlib.import_module(mod_name)
                if hasattr(mod, attr):
                    saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, self.wrap(span_name, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def extend(self, spans) -> None:
        """Append spans recorded elsewhere (another process), keeping parents."""
        offset = len(self.spans)
        self.spans.extend((n, s, e, p + offset if p >= 0 else -1, r)
                          for n, s, e, p, r in spans)

    def write(self, fh, pass_index: int = 0, header: bool = True) -> None:
        """Write the spans as CSV rows to an open file."""
        w = csv.writer(fh, lineterminator="\n")
        if header:
            w.writerow(["pass", "id", "parent", "name", "start_ns", "end_ns", "raised"])
        for i, (n, s, e, p, r) in enumerate(self.spans):
            w.writerow([pass_index, i, p, n, s, e, int(r)])


class IntegrandCount:
    """Counts the calls into ``bma.material.quad`` and the integrand
    evaluations they make, by wrapping the integrand passed in.

    Used in a pass of its own: the wrapper costs a Python call per
    evaluation, which would inflate the perimeter's span.  Without ``quad``
    in ``bma.material`` both counts stay 0.
    """

    def __init__(self):
        self.calls = 0
        self.evals = 0

    @property
    def evals_per_call(self) -> float:
        return self.evals / self.calls if self.calls else 0.0

    @contextmanager
    def installed(self):
        material = importlib.import_module("bma.material")
        quad = getattr(material, "quad", None)
        if quad is None:
            yield self
            return

        def counted_quad(func, *args, **kwargs):
            def integrand(*a):
                self.evals += 1
                return func(*a)
            self.calls += 1
            return quad(integrand, *args, **kwargs)

        material.quad = counted_quad
        try:
            yield self
        finally:
            material.quad = quad


def read_spans(path) -> list:
    with open(path, newline="") as fh:
        return [(row["name"], int(row["start_ns"]), int(row["end_ns"]),
                 int(row["parent"]), row["raised"] == "1")
                for row in csv.DictReader(fh)]


class LayerStats:
    """Per-name call counts, total and self time, and raised calls."""

    def __init__(self, spans):
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.raised = defaultdict(int)
        # (child name, parent name) -> [calls, total ns]
        self.edges = defaultdict(lambda: [0, 0])
        child_ns = [0] * len(spans)
        for name, start, end, parent, raised in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, raised) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += dur - child_ns[i]
            self.raised[name] += raised
            edge = self.edges[(name, spans[parent][0] if parent >= 0 else None)]
            edge[0] += 1
            edge[1] += dur

    def self_per_call(self, name: str, unit_ns: float) -> float:
        calls = self.calls[name]
        return self.self_ns[name] / calls / unit_ns if calls else 0.0

    def calls_under(self, name: str, parent: str) -> int:
        return self.edges[(name, parent)][0]

    def ns_under(self, name: str, parent: str) -> int:
        return self.edges[(name, parent)][1]
