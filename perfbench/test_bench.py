"""Self-test of the benchmark at reduced size.

    python3 -m pytest perfbench/test_bench.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that per-layer counts repeat exactly, that corrupted outputs trip each
workload's correctness gate, and that a directory without the package's
sources makes the benchmark exit non-zero without a result.
"""

import dataclasses
import functools
import json
import shutil
import subprocess
import sys

import pytest

import common

common.use_checkout()

import inputs  # noqa: E402
import run  # noqa: E402
from bma import SimScript, SimStep, TraceRecord, harness  # noqa: E402

BENCH = json.loads((common.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload's inputs and the number of set-up probes."""
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(inputs, "closed_loop_script", lambda: SimScript(
        steps=(SimStep(0.30e-6, 0.0, 1.0), SimStep(0.50e-6, 0.2, 1.0)),
        sample_period=0.01))
    monkeypatch.setattr(inputs, "sim_scripts",
                        functools.partial(inputs.sim_scripts, n_scripts=4))
    monkeypatch.setattr(inputs, "cli_ramp", functools.partial(inputs.cli_ramp, n_rows=500))


def bench(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines[:-1]


def test_benchmark_json_matches_the_runner():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(small, capsys, workload, trace):
    code, result, lines = bench(capsys, workload, trace)
    assert code == 0 and result["correct"], lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
        assert f"{name} {m['value']:.6g} {m['unit']}" in lines
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exact_counts_repeat(small, capsys):
    counts = ("material.perimeter.integrand_evals_per_call",
              "harness.simulate_trace.step_calls_per_sample",
              "estimator.step.calls_per_sample")
    first = bench(capsys, "sim_many_holds", trace=1)[1]["metrics"]
    second = bench(capsys, "sim_many_holds", trace=1)[1]["metrics"]
    for name in counts:
        assert first[name]["value"] == second[name]["value"] > 0, name


def test_per_sample_counts_cover_every_timed_sample(small, capsys):
    # closed_loop steps each sample once in run_trace and once in the step
    # loop; every step reconstructs two shapes and one meridian arc
    m = bench(capsys, "closed_loop", trace=1)[1]["metrics"]
    assert m["estimator.step.calls_per_sample"]["value"] == 1.0
    assert m["geometry.solve_axes.calls_per_sample"]["value"] == 2.0
    assert m["material.perimeter.calls_per_sample"]["value"] == 1.0


def perturb_truth(records):
    return [TraceRecord(t=r.t, v_f=r.v_f, p=r.p, f_true=r.f_true + 1e-3,
                        h2_true=r.h2_true) for r in records]


def test_perturbed_force_trips_the_closed_loop_gate(small, capsys, monkeypatch):
    estimate = harness.run_trace
    monkeypatch.setattr(harness, "run_trace", lambda *a, **k: [
        dataclasses.replace(e, force=e.force + 1e-3) for e in estimate(*a, **k)])
    code, result, lines = bench(capsys, "closed_loop")
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any(line.startswith("GATE FAILED run_trace recovery") for line in lines)


def test_wrong_scripted_force_trips_the_simulator_gate(small, capsys, monkeypatch):
    simulate = harness.simulate_trace
    monkeypatch.setattr(harness, "simulate_trace",
                        lambda *a, **k: perturb_truth(simulate(*a, **k)))
    code, result, _ = bench(capsys, "sim_many_holds")
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"]


def test_corrupted_cli_output_trips_the_cli_gate():
    header = "t_s,volume_ml,pressure_pa,h1_mm,h2_mm,h3_mm,force_n,p_hat_pa,flags\n"
    good = "0,0.5,100,5,1,4,0.1,100,\n"
    cases = {
        "ok": (header + good * 3, True),
        "h2 above h1": (header + good * 2 + "0,0.5,100,5,6,4,0.1,100,\n", False),
        "non-finite force": (header + good * 2 + "0,0.5,100,5,1,4,inf,100,\n", False),
        "missing row": (header + good * 2, False),
    }
    path = common.WORK / "selftest-output.csv"
    path.parent.mkdir(exist_ok=True)
    try:
        for name, (text, ok) in cases.items():
            path.write_text(text)
            r = run.Run("cli_ramp", 0, 0, False)
            run.read_cli_output(r, path, 3)
            assert r.correct == ok, name
    finally:
        path.unlink(missing_ok=True)


def test_exits_non_zero_without_the_sources():
    bare = common.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(common.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "closed_loop", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
