"""End-to-end metrics over seeds: their spread, and their change between sets.

    python3 perfbench/spread.py [--runs 10] [--out FILE] [--against FILE]

Runs ``run.py`` once per seed (1..runs) on each workload, one run at a time,
for BENCHMARK.json's ``run_seconds``, and reports for every end-to-end
metric the median, the quartiles (as ``statistics.quantiles(values, n=4)``
gives them) and the spread over seeds: the distance between the quartiles
as a share of the median.  That spread mixes the inputs' variation between
seeds with run-to-run noise.  A spread above a third of the metric's bound
is marked.

``--against`` names the file of an earlier set of the same seeds.  For every
metric it then reports the change of the median and each seed's change
against that set: the same inputs run again, so the per-seed change is
run-to-run noise alone.  ``--out`` writes the figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out")
    p.add_argument("--against")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    seeds = list(range(1, args.runs + 1))

    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            elapsed = time.monotonic() - start
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} ({elapsed:.0f} s): " + ", ".join(
                f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            figures = {"median": med, "q1": q1, "q3": q3, "spread_over_seeds": spread,
                       "values": vals}
            mark = "  ABOVE bound/3" if spread > bounds[name] / 3 else ""
            line = (f"  {workload:15s} {name:14s} median {med:11.5g}  "
                    f"spread over seeds {spread:6.3f}  (bound {bounds[name]}){mark}")
            if earlier:
                before = earlier[workload][name]
                figures["median_change"] = med / before["median"] - 1.0
                figures["per_seed_change"] = [v / b - 1.0 for v, b in
                                              zip(vals, before["values"])]
                largest = max(map(abs, figures["per_seed_change"]))
                line += (f"  median change {figures['median_change']:+.3f}"
                         f"  largest per-seed change {largest:.3f}")
            summary[workload][name] = figures
            print(line, flush=True)
    if args.out:
        summary["machine"] = {
            "cpu": cpu_model(), "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "run_seconds": bench["run_seconds"], "seeds": seeds,
            "against": args.against,
        }
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
