"""Print SHA-256 digests of the simulator's records and the estimator's estimates.

A "same outputs" claim is this script run at two checkouts on one machine:

    PYTHONHASHSEED=0 python tests/output_digest.py [CHECKOUT]

CHECKOUT (default: the checkout this file sits in) names the repository
whose ``src`` is digested; its ``perfbench/inputs.py`` and its sample
config and calibration are the inputs, read only.  Equal lines mean that
every `simulate_trace` record and every `run_trace` estimate is
repr-identical.  A flag set's repr follows string hashing, hence the fixed
PYTHONHASHSEED.  The digests depend on the platform's libm, so no values
are kept in the repository.

Inputs: the README walkthrough (``data/sample_script.yaml``, seed 7), the
acceptance closed-loop script, the 40 scripts of ``perfbench.inputs.sim_scripts``
for each of seeds 1-10 (noise seeds as the benchmark draws them) and
the benchmark's 10 000-row inflate/deflate ramp (seed 1).  All run on
``configs/sample.yaml`` calibrated on ``data/sample_calibration.csv``,
read back from the file as ``bma calibrate`` leaves it.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
