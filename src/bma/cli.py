"""Command-line interface: argument handling over the package's functions.

Subcommands: calibrate, estimate, simulate, predict-pressure, eval,
export-shape.  Exit codes: 0 success, 1 validation, model or configuration
error or a request that does not fit in memory, 2 I/O error.  The config path comes from --config or the
BMA_CONFIG environment variable.  Every CSV file is read and written by
`harness`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import config as cfgmod
from .calibration import DEFAULT_DEGREE, fit_height_poly
from .errors import BmaError, DegenerateGeometry, OutOfRange
from .estimator import predict_pressure, reconstruct
from .geometry import profile_polyline, sphere_baseline
from .harness import (
    ML_TO_M3,
    MM_TO_M,
    TRACE_COLUMNS,
    TRACE_ROW,
    evaluate,
    ingest_trace,
    read_calibration,
    run_trace,
    simulate_trace,
    trace_values,
    write_estimates,
    write_rows,
    write_trace,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _config_path(args) -> str:
    path = args.config or os.environ.get("BMA_CONFIG")
    if not path:
        raise FileNotFoundError("no config given (use --config or BMA_CONFIG)")
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    return path


def cmd_calibrate(args) -> int:
    cfg_path = _config_path(args)
    fit = fit_height_poly(read_calibration(args.csv), degree=args.degree)
    raw = cfgmod.load_raw(cfg_path)
    raw["height_fit"] = cfgmod.height_fit_to_dict(fit)
    cfgmod.parse_config(raw)   # write no config that the other subcommands refuse
    cfgmod.save_raw(cfg_path, raw)
    print(f"fitted degree-{fit.degree} height polynomial over "
          f"[{fit.v_min / ML_TO_M3:.4g}, {fit.v_max / ML_TO_M3:.4g}] ml; "
          f"written to {cfg_path}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    cfg = cfgmod.load_config(_config_path(args))
    records = ingest_trace(args.trace)
    estimates = run_trace(records, cfg)
    write_estimates(args.out, records, estimates)
    n_null = sum(1 for e in estimates if e.is_null)
    print(f"estimated {len(estimates)} samples ({n_null} null) -> {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = cfgmod.load_config(_config_path(args))
    script = cfgmod.load_script(args.script)
    records = simulate_trace(script, cfg, seed=args.seed)
    write_trace(args.out, records)
    print(f"simulated {len(records)} samples -> {args.out}")
    return EXIT_OK


def cmd_predict_pressure(args) -> int:
    cfg = cfgmod.load_config(_config_path(args))
    rows = []
    for rec in ingest_trace(args.trace):
        try:
            p_hat = predict_pressure(rec.v_f, cfg)
        except BmaError:
            p_hat = math.nan
        rows.append((*trace_values(rec), p_hat))
    write_rows(args.out, (*TRACE_COLUMNS, "p_hat_pa"), TRACE_ROW + ",%.9g\n", rows)
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = cfgmod.load_config(_config_path(args))
    records = ingest_trace(args.trace)
    window = tuple(args.window) if args.window else None
    report = evaluate(records, cfg, contact_window=window)
    print(f"samples:        {report.n_samples} ({report.n_null} null)")
    for label, value, unit, scale in (
            ("RMSE_F:", report.rmse_f, "N", 1.0),
            ("RMSE_h2:", report.rmse_h2, "mm", MM_TO_M),
            ("RMSE_p:", report.rmse_p, "Pa (no-contact segments)", 1.0),
            ("window RMSE_F:", report.window_rmse_f, "N", 1.0),
            ("window RMSE_h2:", report.window_rmse_h2, "mm", MM_TO_M),
            ("RMSE_h2 share:", report.h2_share_of_indent, "of the indentation range", 1.0),
            ("RMSE_h2 share:", report.h2_share_of_h1, "of the h1 range", 1.0),
            ("RMSE_F share:", report.f_share_of_force, "of the force range", 1.0)):
        if value is not None:
            print(f"{label:<16}{value / scale:.6g} {unit}")
    return EXIT_OK


def _svg(paths, path):
    """Minimal SVG 1.1: (points_mm, stroke, width) paths in order, framing every point."""
    xs, zs = zip(*(p for points, _, _ in paths for p in points))
    pad = 2.0
    x0, x1 = min(xs) - pad, max(xs) + pad
    z0, z1 = min(zs) - pad, max(zs) + pad
    w, h = x1 - x0, z1 - z0
    scale = 20.0

    def pt(x, z):
        # flip z so up is up
        return f"{(x - x0) * scale:.3f},{(z1 - z) * scale:.3f}"

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{w * scale:.0f}" height="{h * scale:.0f}">']
    parts += [f'<path d="M {" L ".join(pt(x, z) for x, z in points)}" stroke="{stroke}" '
              f'fill="none" stroke-width="{width:g}"/>' for points, stroke, width in paths]
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n</svg>\n")


def cmd_export_shape(args) -> int:
    cfg = cfgmod.load_config(_config_path(args))
    v_f, h2 = args.volume_ml * ML_TO_M3, args.indent_mm * MM_TO_M
    try:
        g = reconstruct(v_f, h2, cfg)
    except (DegenerateGeometry, OutOfRange) as exc:   # SI units, not the ones typed
        raise type(exc)(f"volume_ml {args.volume_ml:.6g}, "
                        f"indent_mm {args.indent_mm:.6g}: {exc}") from exc
    # reconstruct restarts an indentation outside [0, h1) from the free shape
    if not 0.0 <= h2 < g.h1:
        raise DegenerateGeometry(f"indentation {h2 / MM_TO_M:.6g} mm outside [0, "
                                 f"{g.h1 / MM_TO_M:.6g}) mm at {args.volume_ml:.6g} ml")
    pts_mm = list(map(tuple, profile_polyline(g.a_d, g.c_d, g.h3, g.k, args.points) / MM_TO_M))

    if args.out.lower().endswith(".csv"):
        write_rows(args.out, ("x_mm", "z_mm"), "%.6f,%.6f\n", pts_mm)
    else:
        radius, cap_h = sphere_baseline(v_f + cfg.ring.membrane_volume, cfg.ring)
        sphere_mm = list(profile_polyline(radius, radius, cap_h, 0.0, args.points) / MM_TO_M)
        r_mm = cfg.ring.r / MM_TO_M
        paths = [([(-1.5 * r_mm, 0.0), (1.5 * r_mm, 0.0)], "black", 2),
                 (sphere_mm, "green", 1.5), (pts_mm, "blue", 1.5)]
        if g.k > 0:
            # the indenter rests on the flat contact segment, the profile's
            # top, which lies below the deformed apex h3
            z_mm = max(z for _, z in pts_mm)
            paths.append(([(-g.k / MM_TO_M, z_mm), (g.k / MM_TO_M, z_mm)], "red", 1.5))
        _svg(paths, args.out)
    print(f"exported shape -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bma",
        description="Ballooning-membrane actuator modeling and state estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="config file (or set BMA_CONFIG)")

    p = sub.add_parser("calibrate", help="fit the volume-to-height polynomial")
    p.add_argument("csv", help="calibration CSV: volume_ml,height_mm,phase")
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE)
    add_config(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("estimate", help="run the state estimator over a trace")
    p.add_argument("trace")
    p.add_argument("--out", required=True)
    add_config(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="synthesize a trace from a script")
    p.add_argument("script")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    add_config(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("predict-pressure",
                       help="no-contact pressure prediction for a trace")
    p.add_argument("trace")
    p.add_argument("--out", default=None)
    add_config(p)
    p.set_defaults(func=cmd_predict_pressure)

    p = sub.add_parser("eval", help="evaluate the estimator against ground truth")
    p.add_argument("trace")
    p.add_argument("--window", nargs=2, type=float, metavar=("T0", "T1"),
                   help="contact window [s] for the restricted error report")
    add_config(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-shape", help="export a reconstructed profile")
    p.add_argument("--volume-ml", type=float, required=True)
    p.add_argument("--indent-mm", type=float, default=0.0)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--out", required=True)
    add_config(p)
    p.set_defaults(func=cmd_export_shape)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, BmaError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
