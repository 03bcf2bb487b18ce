"""Print SHA-256 digests of the simulator's records, the estimator's estimates and the CLI's files.

A "same outputs" claim is this script run at two checkouts on one machine:

    PYTHONHASHSEED=0 python tests/output_digest.py [CHECKOUT]

CHECKOUT (default: the checkout this file sits in) names the repository
whose ``src`` is digested; its ``perfbench/inputs.py`` and its sample
config and calibration are the inputs, read only.  Equal lines mean that
every `simulate_trace` record, every `run_trace` estimate and every point
of the equilibrium curve is repr-identical, and that every file of the CLI
walkthrough is byte-identical.  A flag set's repr follows string hashing, hence the fixed
PYTHONHASHSEED.  The digests depend on the platform's libm, so no values
are kept in the repository.

Inputs: the README walkthrough (``data/sample_script.yaml``, seed 7), the
acceptance closed-loop script, the 40 scripts of ``perfbench.inputs.sim_scripts``
for each of seeds 1-10 (noise seeds as the benchmark draws them) and
the benchmark's 10 000-row inflate/deflate ramp (seed 1).  One more line
digests the model's equilibrium curve directly: `predict_pressure` and
the (p, F) of `estimator.equilibrium` at 19 volumes from 0.1 to 1.0 ml,
each at 40 indentations in [0, h1), a refused point recorded by its
error.  All run on
``configs/sample.yaml`` calibrated on ``data/sample_calibration.csv``,
read back from the file as ``bma calibrate`` leaves it.

The CLI walkthrough is the README's, run in-process through ``bma.cli.main``
in a scratch directory: the calibrated config, the simulated trace (seed 7),
the estimates, the ``eval`` text (window 0.5-2.0 s), the predict-pressure
file and its stdout, and the export-shape CSV and SVG at 0.3, 0.5 and
0.8 ml by 0, 1 and 3 mm and at 0.4 ml with no indentation.  The messages
that name a scratch path are not digested.
"""

from __future__ import annotations

import hashlib
import io
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def simulate_and_estimate(script, cfg, seed: int) -> tuple[str, str]:
    """Digests of one script's records and of run_trace's estimates on them."""
    from bma import BmaError, run_trace, simulate_trace
    try:
        records = simulate_trace(script, cfg, seed)
    except BmaError as exc:   # a refused hold is an output too
        return digest([f"{type(exc).__name__}: {exc}"]), "-"
    return digest(map(repr, records)), digest(map(repr, run_trace(records, cfg)))


def equilibrium_curve(cfg) -> str:
    """Digest of `predict_pressure` and `equilibrium`'s (p, F) over a grid of (volume, h2).

    19 volumes from 0.1 to 1.0 ml, at each 40 indentations h1 i / 40 for i
    in 0..39, all in [0, h1).
    """
    from bma import BmaError, evaluate_height, predict_pressure
    from bma.estimator import equilibrium

    def outcome(fn, *args) -> str:
        try:
            return repr(fn(*args))
        except BmaError as exc:   # a refused point is an output too
            return f"{type(exc).__name__}: {exc}"

    lines = []
    for v_f in (k / 20 * 1e-6 for k in range(2, 21)):
        lines.append(f"{v_f!r} {outcome(predict_pressure, v_f, cfg)}")
        try:
            h1 = evaluate_height(cfg.fit, v_f)
        except BmaError:   # predict_pressure's line records the refusal
            continue
        lines += [f"{h2!r} {outcome(equilibrium, v_f, h2, cfg)}"
                  for h2 in (h1 * i / 40 for i in range(40))]
    return digest(lines)


def cli_walkthrough(root: Path) -> list[tuple[str, str]]:
    """(name, digest of its bytes) for each file and report of the README walkthrough."""
    from bma.cli import main

    def bma(*args) -> str:
        """Run one CLI call; its stdout, or SystemExit if it fails."""
        out = io.StringIO()
        with redirect_stdout(out):
            status = main([str(a) for a in args])
        if status != 0:
            raise SystemExit(f"bma {' '.join(map(str, args))} exited {status}")
        return out.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cfg = work / "config.yaml"
        shutil.copy(root / "configs" / "sample.yaml", cfg)
        bma("calibrate", root / "data" / "sample_calibration.csv", "--config", cfg)
        trace, estimates, pred = work / "trace.csv", work / "estimates.csv", work / "pred.csv"
        bma("simulate", root / "data" / "sample_script.yaml", "--config", cfg, "--seed", 7,
            "--out", trace)
        bma("estimate", trace, "--config", cfg, "--out", estimates)
        reports = {"eval.txt": bma("eval", trace, "--config", cfg, "--window", 0.5, 2.0),
                   "pred_stdout.csv": bma("predict-pressure", trace, "--config", cfg)}
        bma("predict-pressure", trace, "--config", cfg, "--out", pred)
        shapes = [(v, i) for v in (0.3, 0.5, 0.8) for i in (0, 1, 3)] + [(0.4, None)]
        for v, i in shapes:
            indent = [] if i is None else ["--indent-mm", i]
            for ext in ("csv", "svg"):
                bma("export-shape", "--volume-ml", v, *indent, "--config", cfg,
                    "--out", work / f"shape_{v}_{i}.{ext}")
        rows = [(path.name, hashlib.sha256(path.read_bytes()).hexdigest())
                for path in sorted(work.iterdir())]
    return rows + [(name, hashlib.sha256(text.encode()).hexdigest())
                   for name, text in reports.items()]


def main(argv: list[str]) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("run with PYTHONHASHSEED=0: flag sets print in hash order", file=sys.stderr)
        return 2
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import inputs
    from bma import config, fit_height_poly, run_trace
    from bma.harness import read_calibration

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.yaml"
        raw = config.load_raw(root / "configs" / "sample.yaml")
        fit = fit_height_poly(read_calibration(root / "data" / "sample_calibration.csv"))
        raw["height_fit"] = config.height_fit_to_dict(fit)
        config.save_raw(path, raw)
        cfg = config.load_config(path)

    rows = [("readme_walkthrough",
             *simulate_and_estimate(config.load_script(root / "data" / "sample_script.yaml"),
                                    cfg, 7)),
            ("closed_loop", *simulate_and_estimate(inputs.closed_loop_script(), cfg, 1))]
    for seed in range(1, 11):
        scripts = inputs.sim_scripts(seed)
        pairs = [simulate_and_estimate(s, cfg, seed * len(scripts) + i)
                 for i, s in enumerate(scripts)]
        rows.append((f"sim_many_holds_seed{seed}", digest(r for r, _ in pairs),
                     digest(e for _, e in pairs)))
    ramp = inputs.cli_ramp(1, cfg)
    rows.append(("cli_ramp_seed1", digest(map(repr, ramp)),
                 digest(map(repr, run_trace(ramp, cfg)))))
    for name, records, estimates in rows:
        print(f"{name:26s} records {records}  estimates {estimates}")
    print(f"{'equilibrium_curve':26s} values {equilibrium_curve(cfg)}")
    for name, bytes_digest in cli_walkthrough(root):
        print(f"cli {name:22s} bytes {bytes_digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
