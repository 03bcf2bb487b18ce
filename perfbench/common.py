"""Paths, set-up and the reference timing shared by the benchmark's processes.

Nothing here imports ``bma`` at module import time, so that a fresh
interpreter can time that import itself (see ``setup_probe.py``).
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALIBRATION_CSV = ROOT / "data" / "sample_calibration.csv"
CONFIG_YAML = ROOT / "configs" / "sample.yaml"
WORK = ROOT / ".bench_work"

ML_TO_M3 = 1e-6
MM_TO_M = 1e-3

REF_NS = 250_000          # nominal time of reference_ns(); see scaled()
REF_INTERVAL_S = 0.02     # wall time between RefSampler's reference pieces


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def reference_ns() -> int:
    """Time [ns] of a fixed piece of work, about 0.25 ms on an idle core.

    Half is a tight loop of float and libm calls; half makes small objects,
    dict entries, strings and tuples, as the package's per-sample code does.
    Load on the machine slows the first less than the package and the
    second more, so together they track it closer than either alone.  It is
    the benchmark's own code, so no change to the package changes it.
    """
    t0 = time.perf_counter_ns()
    acc = 0.0
    for i in range(1000):
        acc += math.sqrt(i * 1.0001) * math.sin(i)
    table = {}
    for i in range(250):
        pair = _Pair(i * 0.5, math.sqrt(i + 1.0))
        table[i % 37] = pair
        acc += pair.a * pair.b + len(str(i)) + table[i % 37].a
        acc += (pair.a, pair.b, acc)[1]
    return time.perf_counter_ns() - t0


def scaled(ns: float, ref_ns: float) -> float:
    """A time measured next to reference pieces, in seconds of a machine on
    which the reference piece takes REF_NS.

    Other tenants of the machine slow it by up to 2x, in phases of a
    fraction of a second to minutes; reference pieces run in the same
    stretch are slowed by the same factor and cancel it.
    """
    return ns / 1e9 * REF_NS / ref_ns


class RefSampler:
    """Runs a reference piece every REF_INTERVAL_S of wall time, from a
    timer signal, while the ``with`` block runs.  For a process whose work
    the benchmark cannot cut into pieces, such as a CLI call."""

    def __init__(self):
        self.pieces: list[tuple[int, int]] = []   # (start ns, duration ns)

    def _sample(self, signum, frame):
        start = time.perf_counter_ns()
        self.pieces.append((start, reference_ns()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def median_ns(self) -> float:
        return statistics.median(d for _, d in self.pieces) if self.pieces else math.nan

    def within_ns(self, start: int, end: int) -> int:
        """Time the reference pieces took between two perf_counter_ns readings."""
        return sum(d for s, d in self.pieces if start <= s < end)


def use_checkout() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero.

    The benchmark always measures the package in the checkout it sits in,
    never an installed copy, so a checkout without the sources is an error.
    Numerical libraries get one thread, here and in child processes, so a
    run keeps to one busy core whatever the machine has.
    """
    needed = (SRC / "bma" / "__init__.py", CALIBRATION_CSV, CONFIG_YAML)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit(f"perfbench: missing {', '.join(missing)}; "
                         f"run from a full checkout")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def read_calibration() -> list[tuple[float, float, str]]:
    """Bench calibration rows as (V_f [m3], h [m], phase)."""
    with open(CALIBRATION_CSV, newline="") as fh:
        return [(float(row["volume_ml"]) * ML_TO_M3,
                 float(row["height_mm"]) * MM_TO_M,
                 row["phase"].strip())
                for row in csv.DictReader(fh)]


def timed_setup(sampler: RefSampler | None = None):
    """Import the CLI, fit the height polynomial and load the config.

    This is what every use of the package pays before its first sample.
    Returns (config, timings in ns keyed by stage), less the time that the
    sampler's reference pieces took inside each stage.
    """
    clock = time.perf_counter_ns
    t = [clock()]
    import bma.cli  # noqa: F401  (the import is what is timed)
    import bma
    t.append(clock())
    samples = read_calibration()
    t.append(clock())
    fit = bma.fit_height_poly(samples)
    t.append(clock())
    cfg = bma.config.load_config(CONFIG_YAML, require_fit=False)
    t.append(clock())
    cfg = dataclasses.replace(cfg, fit=fit)

    def stage(a, b):
        return b - a - (sampler.within_ns(a, b) if sampler else 0)

    names = ("import", "read", "fit", "load_config")
    timings = {f"{name}_ns": stage(t[i], t[i + 1]) for i, name in enumerate(names)}
    timings["total_ns"] = stage(t[0], t[-1])
    return cfg, timings
