"""Benchmark of the bma estimator: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 20 --trace 0

Workloads (``README.md`` says why each was chosen):

* ``closed_loop``     the acceptance script through ``run_trace`` and through
                      a loop of ``step`` calls (the online path);
* ``sim_many_holds``  40 short noisy scripts through ``simulate_trace``;
* ``cli_ramp``        ``bma estimate`` in a fresh process on a 10 000-row
                      inflate/deflate trace.

Inputs come from ``--seed`` alone.  A run repeats the same fixed work for
``--seconds``, times every piece of it against a reference piece run just
before (see ``README.md`` for why), checks every output against the
workload's correctness gate, prints one metric a line and then a JSON object
as the last line.  With ``--trace 0`` the JSON holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of separate traced passes
(spans are written to ``.bench_work/``).  The exit code is 1 when a gate
fails or the run aborts, and the JSON then counts every attempted operation
as failed.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import common

common.use_checkout()

import numpy as np  # noqa: E402

from bma import BmaError, EstimatorState, config as bma_config, estimator, harness  # noqa: E402

import inputs  # noqa: E402
from common import reference_ns, scaled  # noqa: E402
from spans import IntegrandCount, LayerStats, Tracer, read_spans  # noqa: E402

HERE = Path(__file__).resolve().parent

END_TO_END = {
    "samples_per_s": "samples/s",
    "sample_us_p50": "us",
    "sample_us_p99": "us",
    "setup_s": "s",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "material.perimeter.self_us": "us",
    "material.perimeter.share": "ratio",
    "material.perimeter.calls_per_sample": "count/sample",
    "material.perimeter.integrand_evals_per_call": "count/call",
    "material.yeoh_energy_density.self_us": "us",
    "geometry.solve_axes.self_us": "us",
    "geometry.solve_axes.calls_per_sample": "count/sample",
    "calibration.evaluate_height.self_us": "us",
    "estimator.step.calls_per_sample": "count/sample",
    "estimator.step.self_us": "us",
    "estimator.step.error_frac": "ratio",
    "harness.simulate_trace.step_calls_per_sample": "count/sample",
    "harness.simulate_trace.self_us_per_sample": "us/sample",
    "harness.run_trace.self_us_per_sample": "us/sample",
    "harness.run_trace.alloc_peak_mb": "MB",
    "harness.ingest_trace.us_per_row": "us/row",
    "cli.cmd_estimate.self_ms": "ms",
    "cli.import_bma_s": "s",
    "config.load_config.ms": "ms",
    "calibration.fit_height_poly.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}

SETUP_PROBES = 6          # timed fresh-interpreter set-ups per run, after one warm-up
TRACED_PASSES = 3         # traced repeats of a workload's passes in a --trace 1 run
CHUNK = 200               # closed_loop samples per timed run_trace call
RMSE_F_MAX_N = 1e-6       # the acceptance gate of tests/test_acceptance.py
RMSE_H2_MAX_MM = 1e-6
MIB = 1024.0 * 1024.0

clock = time.perf_counter_ns


class Run:
    """What one benchmark run measured, checked and counted."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.workload, self.seed, self.seconds, self.traced = workload, seed, seconds, traced
        self.work = common.WORK / f"{workload}-{os.getpid()}"
        self.attempted = 0        # operations the workload attempts (samples or scripts)
        self.failed = 0           # of those, how many failed
        self.base = ""            # what an operation is, for failed_frac
        self.gate_failures: list[str] = []
        self.gate_notes: dict[str, str] = {}
        self.inputs: dict = {}
        self.setups: list[dict] = []
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}

    def gate(self, ok: bool, name: str, detail: str) -> None:
        if not ok:
            self.gate_failures.append(f"{name}: {detail}")
        self.gate_notes.setdefault(name, detail)

    @property
    def correct(self) -> bool:
        return not self.gate_failures


# ---------------------------------------------------------------- measuring

def run_child(argv: list[str], log: Path) -> tuple[float, int, float, str]:
    """Run a child process to completion: (wall s, exit code, peak RSS MB, output)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(common.SRC), env.get("PYTHONPATH")]))
    with open(log, "w") as out:
        t0 = clock()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=env, cwd=common.ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = (clock() - t0) / 1e9
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, log.read_text()


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def setup_probe(run: Run) -> dict:
    """Scaled set-up timings [s] of one fresh interpreter (see setup_probe.py)."""
    _, code, _, out = run_child([sys.executable, str(HERE / "setup_probe.py")],
                                run.work / "setup.log")
    if code != 0:
        raise RuntimeError(f"set-up probe failed:\n{out}")
    timings = last_json(out)
    ref = timings.pop("ref_ns")
    return {k.replace("_ns", "_s"): scaled(v, ref) for k, v in timings.items()}


def measure(run: Run, throughput_pass, latency_pass, latency_share: float) -> float:
    """Repeat both passes until they have taken ``run.seconds``, each kept
    near its share of the time, with the set-up probes spread evenly among
    them.

    Every time is scaled (``common.scaled``) and every figure is the median
    of its repeats, so a run that a burst of load hits in one place still
    reads the same.  Returns this process's peak RSS [MB] once each pass has
    run once: the repeats only add timings, whose number grows as the
    package gets faster and must not count as its memory.
    """
    setup_probe(run)   # warm-up: compiles bytecode, fills the file cache
    spent = [0.0, 0.0]
    passes = (throughput_pass, latency_pass)

    def one(i):
        gc.collect()
        t0 = time.perf_counter()
        passes[i]()
        spent[i] += time.perf_counter() - t0
        if len(run.setups) < SETUP_PROBES * min(1.0, sum(spent) / max(run.seconds, 1e-9)):
            run.setups.append(setup_probe(run))

    one(0)
    one(1)
    peak_rss_mb = self_rss_mb()
    while sum(spent) < run.seconds:
        one(1 if spent[1] < latency_share * sum(spent) else 0)
    while len(run.setups) < SETUP_PROBES:
        run.setups.append(setup_probe(run))
    run.inputs["reference_us"] = statistics.median(reference_ns() for _ in range(21)) / 1e3
    med = {k: statistics.median(s[k] for s in run.setups) for k in run.setups[0]}
    run.metrics["setup_s"] = med["total_s"]
    run.layers["cli.import_bma_s"] = med["import_s"]
    run.layers["config.load_config.ms"] = med["load_config_s"] * 1e3
    run.layers["calibration.fit_height_poly.self_ms"] = med["fit_s"] * 1e3
    return peak_rss_mb


def pass_s(times: list[list[float]]) -> float:
    """Seconds for one pass: the sum over its fixed pieces of each piece's
    median scaled time."""
    return sum(statistics.median(t) for t in times)


def step_pass(segments, cfg) -> tuple[list, list]:
    """Online use: one ``step`` call per sample, state carried within each
    (start state, records) segment.

    Returns the estimates (None where the step raised a model error) and
    each call's scaled latency [s], in sample order.
    """
    step = estimator.step
    ests, lat = [], []
    for state, records in segments:
        ref = reference_ns()
        for r in records:
            t0 = clock()
            try:
                est, state = step(state, r.v_f, r.p, cfg)
            except BmaError:
                est = None
            lat.append(scaled(clock() - t0, ref))
            ests.append(est)
    return ests, lat


LATENCY_SEGMENTS = 20


def segment_slices(n: int) -> list[slice]:
    """Twenty evenly spaced segments of a fiftieth of an n-sample trace each."""
    length = n // 50
    step = (n - length) / (LATENCY_SEGMENTS - 1)
    return [slice(round(i * step), round(i * step) + length) for i in range(LATENCY_SEGMENTS)]


def latency_segments(records, cfg) -> list[tuple[EstimatorState, list]]:
    """The segments of ``segment_slices``, each with the state the estimator
    reaches at its start.  A pass over them is short, so a run repeats it
    many times."""
    segments, state, done = [], EstimatorState(), 0
    for seg in segment_slices(len(records)):
        for r in records[done:seg.start]:
            try:
                _, state = estimator.step(state, r.v_f, r.p, cfg)
            except BmaError:
                pass
        done = seg.start
        segments.append((state, records[seg]))
    return segments


def latency_metrics(run: Run, lat_passes: list[list[float]]) -> None:
    """p50 and p99 over samples of each sample's median ``step`` latency.

    Every pass steps the same samples from the same states, so a sample's
    repeats differ only by interference, which the median sets aside.
    """
    per_sample = np.median(np.asarray(lat_passes), axis=0) * 1e6
    p50, p99 = np.percentile(per_sample, [50, 99])
    run.metrics["sample_us_p50"] = float(p50)
    run.metrics["sample_us_p99"] = float(p99)
    run.inputs["latency_samples"] = per_sample.size
    run.inputs["latency_repeats"] = len(lat_passes)


def carried_state(state: EstimatorState, estimates) -> EstimatorState:
    """The state ``run_trace`` ends in: null samples leave it untouched."""
    h2_prev = state.h2_prev
    for est in reversed(estimates):
        if not est.is_null:
            h2_prev = est.h2
            break
    return EstimatorState(h2_prev=h2_prev, step_index=state.step_index + len(estimates))


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def alloc_peak_mb(fn) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------- gates

def check_estimates(run: Run, name: str, estimates) -> None:
    """Every modelled estimate is finite with 0 <= h2 <= h1."""
    bad = sum(1 for e in estimates if e is not None and not e.is_null
              and not (math.isfinite(e.force) and 0.0 <= e.h2 <= e.h1))
    run.gate(bad == 0, name, f"{bad} modelled samples outside 0 <= h2 <= h1 or not finite")


def check_recovery(run: Run, name: str, estimates, f_true, h2_true) -> None:
    """Force and indentation recovered to the acceptance bounds."""
    nan = float("nan")
    force = np.array([e.force if e is not None else nan for e in estimates])
    h2 = np.array([e.h2 if e is not None else nan for e in estimates])
    if force.shape != f_true.shape:
        run.gate(False, name, f"{force.size} estimates for {f_true.size} samples")
        return
    rmse_f = float(np.sqrt(np.mean((force - f_true) ** 2)))
    rmse_h2 = float(np.sqrt(np.mean(((h2 - h2_true) / common.MM_TO_M) ** 2)))
    run.gate(rmse_f <= RMSE_F_MAX_N and rmse_h2 <= RMSE_H2_MAX_MM, name,
             f"RMSE_F {rmse_f:.3g} N (<= {RMSE_F_MAX_N:g}), "
             f"RMSE_h2 {rmse_h2:.3g} mm (<= {RMSE_H2_MAX_MM:g})")


def check_simulated(run: Run, records, forces) -> None:
    """Every record finite, h2_true >= 0, f_true exactly the scripted force."""
    ok = (len(records) == len(forces)
          and all(r.f_true == f for r, f in zip(records, forces))
          and all(math.isfinite(r.t) and math.isfinite(r.v_f) and math.isfinite(r.p)
                  and math.isfinite(r.h2_true) and r.h2_true >= 0 for r in records))
    run.gate(ok, "simulated records", "finite, h2_true >= 0, f_true = scripted force")


def read_cli_output(run: Run, path: Path, n: int) -> int:
    """Gate the CLI's output CSV; returns the number of step_error rows."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad = errors = 0
    for row in rows:
        errors += "step_error" in row["flags"]
        h1, h2 = float(row["h1_mm"]), float(row["h2_mm"])
        if math.isnan(h2):
            continue
        values = [float(row[k]) for k in ("h1_mm", "h2_mm", "h3_mm", "force_n", "p_hat_pa")]
        if not (all(map(math.isfinite, values)) and 0.0 <= h2 <= h1):
            bad += 1
    run.gate(len(rows) == n and bad == 0, "cli output",
             f"{len(rows)} rows for {n} samples, {bad} non-null rows not finite "
             f"or outside 0 <= h2 <= h1")
    return errors


# ---------------------------------------------------------------- workloads
#
# Each workload measures, then in a --trace 1 run hands trace_layers() a
# function for one traced pass, which returns the sample counts it covered
# and its samples_per_s.

def closed_loop(run: Run, cfg) -> None:
    records = harness.simulate_trace(inputs.closed_loop_script(), cfg, seed=run.seed)
    n = len(records)
    f_true = np.array([r.f_true for r in records])
    h2_true = np.array([r.h2_true for r in records])
    run.attempted, run.base = n, "samples"
    run.inputs.update(samples=n, holds=len(inputs.closed_loop_script().steps), scripts=1,
                      below_v_min_share=sum(r.v_f < cfg.v_min_model for r in records) / n,
                      contact_share=float(np.mean(f_true > 0)))
    chunks = [records[i:i + CHUNK] for i in range(0, n, CHUNK)]

    def run_trace_pass(times):
        state, ests = EstimatorState(), []
        for j, chunk in enumerate(chunks):
            ref = reference_ns()
            t0 = clock()
            out = harness.run_trace(chunk, cfg, state)
            times[j].append(scaled(clock() - t0, ref))
            state = carried_state(state, out)
            ests.extend(out)
        check_recovery(run, "run_trace recovery", ests, f_true, h2_true)
        run.failed = sum("step_error" in e.flags for e in ests)

    segments = latency_segments(records, cfg)
    seg_index = np.concatenate([np.arange(n)[seg] for seg in segment_slices(n)])

    def step_loop_pass(lat_passes):
        ests, lat = step_pass(segments, cfg)
        lat_passes.append(lat)
        check_recovery(run, "step-loop recovery", ests, f_true[seg_index], h2_true[seg_index])

    chunk_ns = [[] for _ in chunks]
    lat_passes: list = []
    run.metrics["peak_rss_mb"] = measure(run, lambda: run_trace_pass(chunk_ns),
                                         lambda: step_loop_pass(lat_passes), 0.5)
    run.metrics["samples_per_s"] = n / pass_s(chunk_ns)
    latency_metrics(run, lat_passes)
    run.inputs["step_error_share"] = run.failed / n

    if run.traced:
        def traced_pass(tracer):
            times = [[] for _ in chunks]
            run_trace_pass(times)
            step_loop_pass([])
            return {"samples": n + len(seg_index), "run_trace_samples": n}, n / pass_s(times)

        with IntegrandCount().installed() as quad_count:
            harness.run_trace(records, cfg)
        alloc = alloc_peak_mb(lambda: harness.run_trace(records, cfg))
        trace_layers(run, traced_pass, quad_count, alloc)


def expected_forces(script) -> list[float]:
    out = []
    for s in script.steps:
        out += [s.force] * max(1, round(s.hold / script.sample_period))
    return out


def sim_many_holds(run: Run, cfg) -> None:
    scripts = inputs.sim_scripts(run.seed)
    noise_seeds = [run.seed * len(scripts) + i for i in range(len(scripts))]
    forces = [expected_forces(s) for s in scripts]
    scheduled = sum(len(f) for f in forces)
    run.attempted, run.base = len(scripts), "scripts"
    run.inputs.update(scripts=len(scripts), holds=sum(len(s.steps) for s in scripts),
                      scheduled_samples=scheduled, below_v_min_share=0.0,
                      contact_share=sum(f > 0 for fs in forces for f in fs) / scheduled)
    emitted: list = [None] * len(scripts)

    def simulate_pass(times):
        failed = 0
        for i, script in enumerate(scripts):
            ref = reference_ns()
            t0 = clock()
            try:
                recs = harness.simulate_trace(script, cfg, seed=noise_seeds[i])
            except BmaError:
                recs = None
            times[i].append(scaled(clock() - t0, ref))
            if recs is None:
                failed += 1
            else:
                emitted[i] = recs
                check_simulated(run, recs, forces[i])
        run.failed = failed

    def step_loop_pass(lat_passes):
        # Half the samples are in contact.  Contact steps take about 1.4x
        # as long as free ones, so a p50 over both lands in the gap between
        # the two, where a few samples move it far (31-37 us between
        # seeds); only contact steps count.
        traces = [r for r in emitted if r is not None]
        ests, lat = step_pass([(EstimatorState(), r) for r in traces], cfg)
        records = (r for trace in traces for r in trace)
        lat_passes.append([t for t, r in zip(lat, records) if r.f_true > 0])
        check_estimates(run, "step-loop estimates", ests)
        run.inputs["step_error_share"] = sum(e is None for e in ests) / len(ests)

    script_ns = [[] for _ in scripts]
    lat_passes: list = []
    run.metrics["peak_rss_mb"] = measure(run, lambda: simulate_pass(script_ns),
                                         lambda: step_loop_pass(lat_passes), 0.4)
    n_emitted = sum(len(r) for r in emitted if r is not None)
    run.metrics["samples_per_s"] = n_emitted / pass_s(script_ns)
    latency_metrics(run, lat_passes)
    run.inputs.update(emitted_samples=n_emitted, failing_scripts=run.failed)

    if run.traced:
        def traced_pass(tracer):
            times = [[] for _ in scripts]
            simulate_pass(times)
            step_loop_pass([])
            counts = {"samples": 2 * n_emitted, "sim_samples": n_emitted}
            return counts, n_emitted / pass_s(times)

        with IntegrandCount().installed() as quad_count:
            simulate_pass([[] for _ in scripts])
        trace_layers(run, traced_pass, quad_count, 0.0)


def cli_ramp(run: Run, cfg) -> None:
    records = inputs.cli_ramp(run.seed, cfg)
    n = len(records)
    run.attempted, run.base = n, "samples"
    trace_csv, cfg_yaml, out_csv = (run.work / "trace.csv", run.work / "config.yaml",
                                    run.work / "estimates.csv")
    harness.write_trace(trace_csv, records)
    raw = bma_config.load_raw(common.CONFIG_YAML)
    raw["height_fit"] = bma_config.height_fit_to_dict(cfg.fit)
    bma_config.save_raw(cfg_yaml, raw)
    ingested = harness.ingest_trace(trace_csv)
    run.inputs.update(samples=n, holds=0, scripts=0, cycles=inputs.RAMP_CYCLES,
                      below_v_min_share=sum(r.v_f < cfg.v_min_model for r in ingested) / n,
                      contact_share=0.0)
    cli_args = ["estimate", str(trace_csv), "--config", str(cfg_yaml), "--out", str(out_csv)]

    def cli_call(log, *opts):
        """One CLI call in a fresh process: (scaled seconds, peak RSS MB)."""
        wall, code, peak, out = run_child(
            [sys.executable, str(HERE / "cli_child.py"), *opts, "--", *cli_args], log)
        run.gate(code == 0, "cli exit code", f"exit {code}" + (f": {out[-300:]}" if code else ""))
        if code != 0:
            raise RuntimeError("the CLI failed")
        child = last_json(out)
        run.failed = read_cli_output(run, out_csv, n)
        return scaled(wall * 1e9 - child["overhead_ns"], child["ref_ns"]), peak

    def cli_pass(walls, rss):
        wall, peak = cli_call(run.work / "cli.log")
        walls.append(wall)
        rss.append(peak)

    segments = latency_segments(ingested, cfg)

    def step_loop_pass(lat_passes):
        ests, lat = step_pass(segments, cfg)
        lat_passes.append(lat)
        check_estimates(run, "step-loop estimates", ests)

    walls, rss, lat_passes = [], [], []
    measure(run, lambda: cli_pass(walls, rss), lambda: step_loop_pass(lat_passes), 0.2)
    run.metrics["samples_per_s"] = n / statistics.median(walls)
    latency_metrics(run, lat_passes)
    run.metrics["peak_rss_mb"] = statistics.median(rss)
    run.inputs.update(cli_calls=len(walls), step_error_share=run.failed / n)

    if run.traced:
        spans_csv = run.work / "cli_spans.csv"

        def traced_pass(tracer):
            wall, _ = cli_call(run.work / "cli_traced.log", "--spans", str(spans_csv))
            tracer.extend(read_spans(spans_csv))
            step_loop_pass([])
            counts = {"samples": n + sum(len(r) for _, r in segments),
                      "run_trace_samples": n, "ingest_rows": n}
            return counts, n / wall

        # the CLI's estimation, repeated here to count integrand evaluations
        with IntegrandCount().installed() as quad_count:
            harness.run_trace(ingested, cfg)
        alloc = alloc_peak_mb(lambda: harness.run_trace(ingested, cfg))
        trace_layers(run, traced_pass, quad_count, alloc)


WORKLOADS = {"closed_loop": closed_loop, "sim_many_holds": sim_many_holds,
             "cli_ramp": cli_ramp}


# ---------------------------------------------------------------- tracing

def layer_metrics(st: LayerStats, counts: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    def ratio(num, den):
        return num / den if den else 0.0

    us, ms = 1e3, 1e6
    samples = counts["samples"]
    peri, step = "material.perimeter", "estimator.step"
    sim, rt = "harness.simulate_trace", "harness.run_trace"
    sim_samples = counts.get("sim_samples", 0)
    return {
        "material.perimeter.self_us": st.self_per_call(peri, us),
        "material.perimeter.share": ratio(st.ns_under(peri, step), st.total_ns[step]),
        "material.perimeter.calls_per_sample": ratio(st.calls[peri], samples),
        "material.yeoh_energy_density.self_us":
            st.self_per_call("material.yeoh_energy_density", us),
        "geometry.solve_axes.self_us": st.self_per_call("geometry.solve_axes", us),
        "geometry.solve_axes.calls_per_sample": ratio(st.calls["geometry.solve_axes"], samples),
        "calibration.evaluate_height.self_us":
            st.self_per_call("calibration.evaluate_height", us),
        "estimator.step.calls_per_sample": ratio(st.calls[step], samples),
        "estimator.step.self_us": st.self_per_call(step, us),
        "estimator.step.error_frac": ratio(st.raised[step], st.calls[step]),
        "harness.simulate_trace.step_calls_per_sample":
            ratio(st.calls_under(step, sim), sim_samples),
        "harness.simulate_trace.self_us_per_sample": ratio(st.self_ns[sim] / us, sim_samples),
        "harness.run_trace.self_us_per_sample":
            ratio(st.self_ns[rt] / us, counts.get("run_trace_samples", 0)),
        "harness.ingest_trace.us_per_row":
            ratio(st.total_ns["harness.ingest_trace"] / us, counts.get("ingest_rows", 0)),
        "cli.cmd_estimate.self_ms": st.self_per_call("cli.cmd_estimate", ms),
    }


def trace_layers(run: Run, traced_pass, quad_count: IntegrandCount, alloc_mb: float) -> None:
    """Per-layer metrics: the lowest figure of TRACED_PASSES traced passes
    (counts are the same in every pass); span times are not scaled.  The
    spans of each pass are kept until it ends, then appended to
    ``.bench_work/spans-<workload>.csv``."""
    figures, traced_sps, n_spans = [], [], 0
    with open(common.WORK / f"spans-{run.workload}.csv", "w", newline="") as fh:
        for i in range(TRACED_PASSES):
            tracer = Tracer()
            with tracer.installed():
                counts, sps = traced_pass(tracer)
            figures.append(layer_metrics(LayerStats(tracer.spans), counts))
            traced_sps.append(sps)
            tracer.write(fh, pass_index=i, header=not i)
            n_spans += len(tracer.spans)
    run.layers.update({k: min(f[k] for f in figures) for k in figures[0]})
    run.layers["material.perimeter.integrand_evals_per_call"] = quad_count.evals_per_call
    run.layers["harness.run_trace.alloc_peak_mb"] = alloc_mb
    run.layers["trace.overhead_frac"] = (run.metrics["samples_per_s"]
                                         / statistics.median(traced_sps) - 1.0)
    run.inputs["spans"] = n_spans


# ---------------------------------------------------------------- main

def report(run: Run) -> dict:
    print(f"# perfbench {run.workload} seed={run.seed} seconds={run.seconds:g} "
          f"trace={int(run.traced)}")
    for key, value in run.inputs.items():
        print(f"input {key} = {value:.6g}" if isinstance(value, float)
              else f"input {key} = {value}")
    for name, detail in run.gate_notes.items():
        print(f"gate {name}: {detail}")
    for failure in run.gate_failures:
        print(f"GATE FAILED {failure}")
    if not run.correct:
        run.failed = run.attempted
    frac = run.failed / run.attempted
    run.metrics["success_frac"] = 1.0 - frac
    print(f"failed_frac {frac:.6g} ratio ({run.failed} of {run.attempted} {run.base})")
    wanted = PER_LAYER if run.traced else END_TO_END
    source = run.layers if run.traced else run.metrics
    metrics = {name: {"value": source[name], "unit": unit}
               for name, unit in wanted.items() if name in source}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        cfg, _ = common.timed_setup()
        try:
            WORKLOADS[run.workload](run, cfg)
        except Exception:
            if not run.attempted:
                raise
            traceback.print_exc()
            run.gate_failures.append("run aborted")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    result = report(run)
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
