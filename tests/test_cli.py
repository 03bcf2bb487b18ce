import csv
import errno
import math
import os
import re
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from bma import config as cfgmod
from bma.cli import main
from bma.config import load_config
from bma.errors import BmaError
from bma.estimator import predict_pressure, reconstruct
from bma.geometry import profile_polyline, sphere_baseline
from bma.harness import evaluate, ingest_trace, run_trace
import oracles

REPO = Path(__file__).resolve().parent.parent
SAMPLE_CONFIG = REPO / "configs" / "sample.yaml"
SAMPLE_CALIBRATION = REPO / "data" / "sample_calibration.csv"
SAMPLE_SCRIPT = REPO / "data" / "sample_script.yaml"


@pytest.fixture
def workdir(tmp_path):
    shutil.copy(SAMPLE_CONFIG, tmp_path / "config.yaml")
    shutil.copy(SAMPLE_CALIBRATION, tmp_path / "calibration.csv")
    shutil.copy(SAMPLE_SCRIPT, tmp_path / "script.yaml")
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def assert_refused(capsys, args):
    """main exits 1 with one `error:` line on stderr and no traceback."""
    capsys.readouterr()
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    return err


def svg_the_old_way(polyline_mm, sphere_mm, ring_mm, slice_mm):
    """The export-shape SVG as four fixed paths, the slice only where there is contact.

    The frame holds the profile, the sphere and the ring line.
    """
    xs = [p[0] for p in polyline_mm] + [p[0] for p in sphere_mm] + [p[0] for p in ring_mm]
    zs = [p[1] for p in polyline_mm] + [p[1] for p in sphere_mm] + [p[1] for p in ring_mm]
    pad = 2.0
    x0, x1 = min(xs) - pad, max(xs) + pad
    z0, z1 = min(min(zs), 0.0) - pad, max(zs) + pad
    w, h = x1 - x0, z1 - z0
    scale = 20.0

    def pt(x, z):
        return f"{(x - x0) * scale:.3f},{(z1 - z) * scale:.3f}"

    def path_d(points):
        return "M " + " L ".join(pt(x, z) for x, z in points)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w * scale:.0f}" height="{h * scale:.0f}">',
        f'<path d="{path_d(ring_mm)}" stroke="black" fill="none" stroke-width="2"/>',
        f'<path d="{path_d(sphere_mm)}" stroke="green" fill="none" stroke-width="1.5"/>',
        f'<path d="{path_d(polyline_mm)}" stroke="blue" fill="none" stroke-width="1.5"/>',
    ]
    if slice_mm is not None:
        parts.append(
            f'<path d="{path_d(slice_mm)}" stroke="red" fill="none" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


class TestPipeline:
    def test_full_pipeline(self, workdir, capsys):
        cfg = workdir / "config.yaml"
        assert run(["calibrate", workdir / "calibration.csv", "--config", cfg]) == 0
        assert "height_fit" in cfg.read_text()

        trace = workdir / "trace.csv"
        assert run(["simulate", workdir / "script.yaml", "--config", cfg,
                    "--seed", 7, "--out", trace]) == 0

        out = workdir / "estimates.csv"
        assert run(["estimate", trace, "--config", cfg, "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 250
        assert all(float(r["h2_mm"]) >= 0 for r in rows)

        assert run(["eval", trace, "--config", cfg, "--window", 0.5, 2.0]) == 0
        report = capsys.readouterr().out
        assert "RMSE_F" in report and "RMSE_h2" in report

        assert run(["predict-pressure", trace, "--config", cfg,
                    "--out", workdir / "pred.csv"]) == 0

    def test_eval_closed_loop_tolerance(self, workdir, capsys):
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        trace = workdir / "trace.csv"
        run(["simulate", workdir / "script.yaml", "--config", cfg,
             "--seed", 0, "--out", trace])
        assert run(["eval", trace, "--config", cfg]) == 0
        out = capsys.readouterr().out
        rmse_f = float([l for l in out.splitlines() if l.startswith("RMSE_F")][0].split()[1])
        rmse_h2 = float([l for l in out.splitlines() if l.startswith("RMSE_h2")][0].split()[1])
        # These bounds hold only while the height fit is bit-stable.  A change
        # of about 1e-11 relative in the fit coefficients (a joint
        # least-squares fit in place of the per-volume mean fit, equal in
        # exact arithmetic) fails them: the one-step indentation update
        # amplifies it to RMSE_h2 0.166 mm and RMSE_F 7.2 mN on the README
        # walkthrough's trace.
        assert rmse_f <= 1e-6
        assert rmse_h2 <= 1e-6  # mm

    def test_eval_shares_equal_hand_computation(self, workdir, capsys):
        # the README walkthrough's trace: each share is an RMSE over the
        # non-null samples divided by the range those samples span
        cfg_path = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg_path])
        trace = workdir / "trace.csv"
        run(["simulate", workdir / "script.yaml", "--config", cfg_path, "--seed", 7,
             "--out", trace])
        capsys.readouterr()
        assert run(["eval", trace, "--config", cfg_path, "--window", 0.5, 2.0]) == 0
        shares = [l for l in capsys.readouterr().out.splitlines() if " share:" in l]

        records = ingest_trace(trace)
        estimates = run_trace(records, load_config(cfg_path))
        assert not any(e.is_null for e in estimates)

        def rms(got, truth):
            return math.sqrt(sum((g - t) ** 2 for g, t in zip(got, truth)) / len(got))

        def span(values):
            return max(values) - min(values)

        h2_true, f_true = [r.h2_true for r in records], [r.f_true for r in records]
        rmse_h2 = rms([e.h2 for e in estimates], h2_true)
        rmse_f = rms([e.force for e in estimates], f_true)
        want = (rmse_h2 / span(h2_true), rmse_h2 / span([e.h1 for e in estimates]),
                rmse_f / span(f_true))
        report = evaluate(records, load_config(cfg_path))
        got = (report.h2_share_of_indent, report.h2_share_of_h1, report.f_share_of_force)
        assert got == pytest.approx(want, rel=1e-12)
        assert shares == [f"RMSE_h2 share:  {want[0]:.6g} of the indentation range",
                          f"RMSE_h2 share:  {want[1]:.6g} of the h1 range",
                          f"RMSE_F share:   {want[2]:.6g} of the force range"]

    def test_eval_prints_no_share_over_a_zero_range(self, workdir, capsys):
        # one free hold: one volume, and h2 and F are 0 throughout
        cfg_path = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg_path])
        script = workdir / "free.yaml"
        script.write_text("sample_period_s: 0.01\n"
                          "steps:\n  - {volume_ml: 0.5, force_n: 0.0, hold_s: 0.2}\n")
        trace = workdir / "trace.csv"
        run(["simulate", script, "--config", cfg_path, "--seed", 7, "--out", trace])
        capsys.readouterr()
        assert run(["eval", trace, "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "RMSE_h2:" in out and "share" not in out
        report = evaluate(ingest_trace(trace), load_config(cfg_path))
        assert (report.h2_share_of_indent, report.h2_share_of_h1,
                report.f_share_of_force) == (None, None, None)


class TestCalibrate:
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("column", [0, 1])   # volume_ml, height_mm
    def test_nonfinite_value_rejected(self, workdir, capsys, column, bad):
        # one such row used to fit eight NaN coefficients and exit 0
        cfg = workdir / "config.yaml"
        before = cfg.read_bytes()
        csv_path = workdir / "calibration.csv"
        lines = csv_path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[column] = bad
        lines[5] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n")
        assert run(["calibrate", csv_path, "--config", cfg]) == 1
        assert "line 6" in capsys.readouterr().err
        assert cfg.read_bytes() == before


    def test_failed_write_leaves_the_config_whole(self, workdir, monkeypatch):
        # the config used to be opened with "w" before the YAML was written, so
        # a full disk left the first bytes of the new text in place of the old
        cfg = workdir / "config.yaml"
        before, listing = cfg.read_bytes(), sorted(os.listdir(workdir))

        def full_disk(data, stream, **kwargs):
            stream.write("ring:\n")
            stream.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cfgmod.yaml, "safe_dump", full_disk)
        assert run(["calibrate", workdir / "calibration.csv", "--config", cfg]) == 2
        assert cfg.read_bytes() == before
        assert sorted(os.listdir(workdir)) == listing

    def test_writes_through_a_symlink_and_keeps_the_mode(self, workdir):
        cfg, link, plain = (workdir / name for name in ("config.yaml", "link.yaml", "plain.yaml"))
        shutil.copy(cfg, plain)
        link.symlink_to(cfg.name)
        cfg.chmod(0o640)
        assert run(["calibrate", workdir / "calibration.csv", "--config", link]) == 0
        assert run(["calibrate", workdir / "calibration.csv", "--config", plain]) == 0
        assert link.is_symlink() and cfg.read_bytes() == plain.read_bytes()
        assert stat.S_IMODE(cfg.stat().st_mode) == 0o640
        assert sorted(os.listdir(workdir)) == sorted(
            ["calibration.csv", "config.yaml", "link.yaml", "plain.yaml", "script.yaml"])

    def test_negative_degree_rejected(self, workdir, capsys):
        cfg = workdir / "config.yaml"
        assert run(["calibrate", workdir / "calibration.csv", "--config", cfg,
                    "--degree", -1]) == 1
        assert "degree must be nonnegative, got -1" in capsys.readouterr().err


class TestPredictPressure:
    def test_stdout_matches_out_file(self, workdir, capsys):
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        trace = workdir / "trace.csv"
        run(["simulate", workdir / "script.yaml", "--config", cfg, "--seed", 7, "--out", trace])
        capsys.readouterr()
        out = workdir / "pred.csv"
        assert run(["predict-pressure", trace, "--config", cfg, "--out", out]) == 0
        assert capsys.readouterr().out == ""
        assert run(["predict-pressure", trace, "--config", cfg]) == 0
        written = out.read_bytes()
        assert written.startswith(b"t_s,volume_ml,pressure_pa,p_hat_pa\n")
        assert written.count(b"\n") == 251
        assert capsys.readouterr().out.encode() == written

    def test_bytes_equal_csv_writer_reference(self, workdir, capsys):
        # free and contact rows, and volumes below the model floor and past the
        # calibrated range, whose p_hat cell is nan
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        trace = workdir / "trace.csv"
        run(["simulate", workdir / "script.yaml", "--config", cfg, "--seed", 7, "--out", trace])
        with open(trace, "a") as fh:
            fh.write("100.0,0.05,9000,,\n100.01,5.0,9000,,\n100.02,0.5,-0.0,,\n")
        records = ingest_trace(trace)
        config = load_config(cfg)

        def p_hat(v_f):
            try:
                return predict_pressure(v_f, config)
            except BmaError:
                return math.nan

        want = oracles.csv_writer_bytes(("t_s", "volume_ml", "pressure_pa", "p_hat_pa"), (
            [f"{r.t:.9g}", f"{r.v_f / 1e-6:.9g}", f"{r.p:.9g}", f"{p_hat(r.v_f):.9g}"]
            for r in records))
        assert want.count(b",nan\n") == 2
        out = workdir / "pred.csv"
        capsys.readouterr()
        assert run(["predict-pressure", trace, "--config", cfg, "--out", out]) == 0
        assert out.read_bytes() == want
        assert run(["predict-pressure", trace, "--config", cfg]) == 0
        assert capsys.readouterr().out.encode() == want


class TestExportShape:
    def test_csv_export(self, workdir):
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        out = workdir / "shape.csv"
        assert run(["export-shape", "--volume-ml", 0.4, "--config", cfg,
                    "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0].keys() == {"x_mm", "z_mm"}
        assert float(rows[0]["x_mm"]) == pytest.approx(-5.0, abs=1e-6)
        assert float(rows[-1]["x_mm"]) == pytest.approx(5.0, abs=1e-6)

    def test_svg_export_with_indent(self, workdir):
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        out = workdir / "shape.svg"
        assert run(["export-shape", "--volume-ml", 0.5, "--indent-mm", 3.0,
                    "--config", cfg, "--out", out]) == 0
        body = out.read_text()
        assert body.startswith("<svg")
        assert body.count("<path") == 4  # ring, sphere fit, profile, slice

    @pytest.mark.parametrize("volume_ml, indent_mm", [(0.5, 3.0), (0.9, 1.0)])
    def test_svg_slice_on_flat_segment(self, workdir, volume_ml, indent_mm):
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        args = ["export-shape", "--volume-ml", volume_ml, "--indent-mm", indent_mm,
                "--config", cfg, "--out"]
        assert run(args + [workdir / "shape.svg"]) == 0
        assert run(args + [workdir / "shape.csv"]) == 0
        with open(workdir / "shape.csv") as fh:
            z_top = max(float(r["z_mm"]) for r in csv.DictReader(fh))

        def path_ys(stroke):
            d = re.search(f'<path d="([^"]*)" stroke="{stroke}"',
                          (workdir / "shape.svg").read_text()).group(1)
            return [float(p.split(",")[1]) for p in d[2:].split(" L ")]

        # SVG y is (z_max - z) * 20 px/mm; the ring line is z = 0
        y_ring = path_ys("black")[0]
        z_slice = [(y_ring - y) / 20.0 for y in path_ys("red")]
        assert z_slice == pytest.approx([z_top, z_top], abs=1e-4)

    @pytest.mark.parametrize("volume_ml, indent_mm, points, contact", [
        (0.4, None, 201, False), (0.5, 0.0, 201, False), (0.3, 1.0, 201, False),
        (0.5, 3.0, 201, True), (0.8, 3.0, 201, True), (0.9, 1.0, 7, True)])
    def test_bytes_equal_reference(self, workdir, volume_ml, indent_mm, points, contact):
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        args = ["export-shape", "--volume-ml", volume_ml, "--points", points, "--config", cfg]
        if indent_mm is not None:
            args += ["--indent-mm", indent_mm]
        assert run(args + ["--out", workdir / "shape.csv"]) == 0
        assert run(args + ["--out", workdir / "shape.svg"]) == 0

        config = load_config(cfg)
        v_f = volume_ml * 1e-6
        g = reconstruct(v_f, (indent_mm or 0.0) * 1e-3, config)
        assert (g.k > 0) == contact
        pts_mm = [(x / 1e-3, z / 1e-3)
                  for x, z in profile_polyline(g.a_d, g.c_d, g.h3, g.k, points)]
        z_mm = max(z for _, z in pts_mm)
        slice_mm = [(-g.k / 1e-3, z_mm), (g.k / 1e-3, z_mm)] if g.k > 0 else None
        radius, cap_h = sphere_baseline(v_f + config.ring.membrane_volume, config.ring)
        sphere_mm = [(x / 1e-3, z / 1e-3)
                     for x, z in profile_polyline(radius, radius, cap_h, 0.0, points)]
        r_mm = config.ring.r / 1e-3
        ring_mm = [(-1.5 * r_mm, 0.0), (1.5 * r_mm, 0.0)]
        assert (workdir / "shape.csv").read_bytes() == oracles.csv_writer_bytes(
            ("x_mm", "z_mm"), ([f"{x:.6f}", f"{z:.6f}"] for x, z in pts_mm))
        assert (workdir / "shape.svg").read_bytes() == svg_the_old_way(
            pts_mm, sphere_mm, ring_mm, slice_mm).encode()

    @pytest.mark.parametrize("volume_ml, indent_mm", [(0.3, None), (0.4, None), (0.8, 3.0)])
    def test_svg_paths_on_canvas(self, workdir, volume_ml, indent_mm):
        # the ring line spans +-1.5 r, wider than a small volume's profile
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        out = workdir / "shape.svg"
        args = ["export-shape", "--volume-ml", volume_ml, "--config", cfg, "--out", out]
        assert run(args + (["--indent-mm", indent_mm] if indent_mm is not None else [])) == 0
        body = out.read_text()
        width, height = map(float, re.search(r'width="([^"]*)" height="([^"]*)"', body).groups())
        points = [tuple(map(float, p.split(",")))
                  for d in re.findall(r'<path d="M ([^"]*)"', body) for p in d.split(" L ")]
        assert len(points) > 2 * 201
        assert all(0 <= x <= width and 0 <= y <= height for x, y in points)

    def test_indented_csv_flat_contact_segment(self, workdir):
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        out = workdir / "shape.csv"
        assert run(["export-shape", "--volume-ml", 0.5, "--indent-mm", 3.0,
                    "--config", cfg, "--out", out]) == 0
        with open(out) as fh:
            pts = [(float(r["x_mm"]), float(r["z_mm"])) for r in csv.DictReader(fh)]
        d = reconstruct(0.5e-6, 3e-3, load_config(cfg))
        assert d.k > 0
        z_top = max(z for _, z in pts)
        flat = [x for x, z in pts if z == z_top]
        assert len(flat) > 2
        assert min(flat) == pytest.approx(-d.k * 1e3, abs=2e-6)
        assert max(flat) == pytest.approx(d.k * 1e3, abs=2e-6)
        # the profile clips the deformed ellipse where it is 2k wide, which
        # lies below its apex h3
        z_k = d.h3 - d.c_d * (1 - math.sqrt(1 - (d.k / d.a_d) ** 2))
        assert z_top == pytest.approx(z_k * 1e3, abs=2e-6)
        assert z_top < d.h3 * 1e3

    @pytest.mark.parametrize("indent_mm", [9.0, -1.0])
    def test_indent_outside_apex_height_rejected(self, workdir, indent_mm):
        # h1 is about 7.7 mm at 0.5 ml; the reconstruction would clamp 9 mm
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        out = workdir / "shape.csv"
        assert run(["export-shape", "--volume-ml", 0.5, "--indent-mm", indent_mm,
                    "--config", cfg, "--out", out]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("indent_mm", ["nan", "inf", "-inf"])
    def test_nonfinite_indent_rejected(self, workdir, capsys, indent_mm):
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        capsys.readouterr()
        out = workdir / "shape.csv"
        # "=" keeps argparse from reading "-inf" as an option
        assert run(["export-shape", "--volume-ml", 0.5, f"--indent-mm={indent_mm}",
                    "--config", cfg, "--out", out]) == 1
        assert "outside [0," in capsys.readouterr().err
        assert not out.exists()

    def test_volume_below_model_range_rejected(self, workdir, capsys):
        # 0.05 ml is inside the calibrated range but below the 0.1 ml model floor
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        out = workdir / "shape.csv"
        assert run(["export-shape", "--volume-ml", 0.05, "--config", cfg, "--out", out]) == 1
        assert "below modeled minimum" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, reason", [
        (["--volume-ml", 0.05], "volume 5e-08 below modeled minimum 1e-07\n"),
        (["--volume-ml", 1.5], "volume 1.5e-06 outside calibrated range [5e-08, 1e-06]\n"),
        # h1 is 7.68356 mm at 0.5 ml, so the deformed shape is all but flat
        (["--volume-ml", 0.5, "--indent-mm", 7.6835], "flat-membrane solution a="),
    ], ids=["below-model-floor", "past-calibrated-range", "flat-membrane"])
    def test_model_refusal_names_the_request_in_typed_units(self, workdir, capsys, args, reason):
        # the model's refusal used to reach the user in SI units only
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        out = workdir / "shape.svg"
        err = assert_refused(capsys, ["export-shape", *args, "--config", cfg, "--out", out])
        indent_mm = args[3] if len(args) > 2 else 0
        assert err.startswith(f"error: volume_ml {args[1]}, indent_mm {indent_mm}: {reason}")
        assert not out.exists()


class TestExitCodes:
    def test_missing_config(self, workdir):
        assert run(["estimate", workdir / "calibration.csv",
                    "--config", workdir / "nope.yaml",
                    "--out", workdir / "x.csv"]) == 2

    def test_no_config_given(self, workdir, monkeypatch):
        monkeypatch.delenv("BMA_CONFIG", raising=False)
        assert run(["estimate", workdir / "calibration.csv",
                    "--out", workdir / "x.csv"]) == 2

    def test_env_config(self, workdir, monkeypatch):
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        monkeypatch.setenv("BMA_CONFIG", str(cfg))
        out = workdir / "shape.csv"
        assert run(["export-shape", "--volume-ml", 0.4, "--out", out]) == 0

    def test_validation_error(self, workdir):
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        bad = workdir / "bad.csv"
        bad.write_text("t_s,volume_ml,pressure_pa\n0.0,-1,100\n")
        assert run(["estimate", bad, "--config", cfg,
                    "--out", workdir / "x.csv"]) == 1

    @pytest.mark.parametrize("window", [(2.0, 0.5), ("nan", 1.0)])
    def test_bad_eval_window(self, workdir, capsys, window):
        # such a window used to report no window RMSEs and exit 0
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        trace = workdir / "trace.csv"
        run(["simulate", workdir / "script.yaml", "--config", cfg, "--seed", 0, "--out", trace])
        capsys.readouterr()
        assert run(["eval", trace, "--config", cfg, "--window", *window]) == 1
        captured = capsys.readouterr()
        assert "contact window" in captured.err and "RMSE" not in captured.out

    @pytest.mark.parametrize("cell", ["force_n", "indent_mm"])
    def test_nonfinite_truth_in_eval(self, workdir, capsys, cell):
        # nan truth used to print RMSE_F: nan N and exit 0
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        trace = workdir / "trace.csv"
        trace.write_text("t_s,volume_ml,pressure_pa,force_n,indent_mm\n"
                         "0.0,0.4,9000,0.0,0.0\n0.01,0.4,9000,"
                         + ("nan,0.0" if cell == "force_n" else "0.0,inf") + "\n")
        assert run(["eval", trace, "--config", cfg]) == 1
        assert f"line 3: non-finite {cell}" in capsys.readouterr().err

    def test_eval_with_no_sample_in_the_model_range(self, workdir, capsys):
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        trace = workdir / "trace.csv"
        trace.write_text("t_s,volume_ml,pressure_pa,force_n,indent_mm\n"
                         "0.0,0.05,1000,0.0,0.0\n0.01,0.08,1200,0.0,0.0\n")
        err = assert_refused(capsys, ["eval", trace, "--config", cfg])
        assert err == "error: no samples within the modeled volume range\n"

    @pytest.mark.parametrize("prefix", [b"\xef\xbb\xbf", b"\n"], ids=["bom", "blank"])
    def test_byte_order_mark_or_blank_line_before_header(self, workdir, prefix):
        # a trace and a calibration file saved with a byte-order mark, or
        # with a blank line before the header, give the plain file's outputs
        cfg, marked_cfg = workdir / "config.yaml", workdir / "marked.yaml"
        shutil.copy(cfg, marked_cfg)
        calibration = workdir / "calibration.csv"
        marked = workdir / "marked_calibration.csv"
        marked.write_bytes(prefix + calibration.read_bytes())
        assert run(["calibrate", calibration, "--config", cfg]) == 0
        assert run(["calibrate", marked, "--config", marked_cfg]) == 0
        assert marked_cfg.read_bytes() == cfg.read_bytes()
        trace, marked = workdir / "trace.csv", workdir / "marked_trace.csv"
        assert run(["simulate", workdir / "script.yaml", "--config", cfg, "--seed", 7,
                    "--out", trace]) == 0
        marked.write_bytes(prefix + trace.read_bytes())
        for path in (trace, marked):
            assert run(["estimate", path, "--config", cfg,
                        "--out", path.with_suffix(".out")]) == 0
        assert marked.with_suffix(".out").read_bytes() == trace.with_suffix(".out").read_bytes()

    def test_nonfinite_sample_count_rejected(self, workdir, capsys):
        # round(inf) in simulate_trace used to escape as an OverflowError traceback
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        script = workdir / "huge.yaml"
        script.write_text("sample_period_s: 1.0e-300\nsteps:\n"
                          "  - {volume_ml: 0.5, force_n: 0.0, hold_s: 1.0e+300}\n")
        out = workdir / "trace.csv"
        assert run(["simulate", script, "--config", cfg, "--out", out]) == 1
        assert "error: script: hold 1e+300 s is not a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("volume_ml, reason", [
        (0.05, "volume 5e-08 below modeled minimum 1e-07"),
        (1.5, "volume 1.5e-06 outside calibrated range [5e-08, 1e-06]")])
    def test_refused_hold_names_its_step_in_file_units(self, workdir, capsys, volume_ml, reason):
        # the model's refusal used to reach the user in SI units, naming no step
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        script = workdir / "refused.yaml"
        script.write_text("sample_period_s: 0.01\nsteps:\n"
                          "  - {volume_ml: 0.5, force_n: 0.1, hold_s: 0.1}\n"
                          f"  - {{volume_ml: {volume_ml}, force_n: 0.1, hold_s: 0.1}}\n")
        out = workdir / "trace.csv"
        err = assert_refused(capsys, ["simulate", script, "--config", cfg, "--out", out])
        assert err == f"error: step 1 (volume_ml {volume_ml}, force_n 0.1): {reason}\n"
        assert not out.exists()

    def test_memory_error_exits_1(self, workdir, capsys, monkeypatch):
        # a finite but huge sample count, such as hold_s: 1.0e+12 at 0.01 s,
        # leaves numpy unable to allocate the noise draws
        def no_memory(script, cfg, seed):
            raise MemoryError("Unable to allocate 728. TiB for an array")

        monkeypatch.setattr("bma.cli.simulate_trace", no_memory)
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        capsys.readouterr()
        out = workdir / "trace.csv"
        assert run(["simulate", workdir / "script.yaml", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 728. TiB for an array\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_yaml_syntax_error_exits_1(self, workdir, capsys, command):
        # a YAML syntax error used to escape main as a traceback
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        out = workdir / "out.csv"
        if command == "estimate":
            # a tab indent: the scanner refuses it
            bad = cfg
            text = bad.read_text()
            bad.write_text(text.replace("  radius_mm", "\tradius_mm"))
            line = text.splitlines().index("  radius_mm: 5.0") + 1
            args = ["estimate", workdir / "calibration.csv"]
        else:
            # an unclosed "[": the parser reaches the end of the file
            bad = workdir / "script.yaml"
            bad.write_text("sample_period_s: 0.01\nsteps: [\n"
                           "  {volume_ml: 0.3, force_n: 0.0, hold_s: 0.5}\n")
            line = 4
            args = ["simulate", bad]
        capsys.readouterr()
        assert run([*args, "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}, line {line}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "calibrate"])
    def test_oversized_csv_field_exits_1(self, workdir, capsys, command):
        # a cell over csv's 131 072-character field limit used to escape
        # read_rows as a _csv.Error traceback
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        big = workdir / "big.csv"
        out = workdir / "out.csv"
        if command == "estimate":
            big.write_text("t_s,volume_ml,pressure_pa\n0.0,0.4,9000\n\n0.01,0.4,"
                           + "9" * 140_000 + "\n")
            args = ["estimate", big, "--config", cfg, "--out", out]
        else:
            big.write_text("volume_ml,height_mm,phase\n0.1,3.0,inflate\n\n0.2,"
                           + "3" * 140_000 + ",inflate\n")
            args = ["calibrate", big, "--config", cfg]
        before = cfg.read_bytes()
        # the blank line is not counted
        assert assert_refused(capsys, args) == (
            "error: line 3: field larger than field limit (131072)\n")
        assert cfg.read_bytes() == before and not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "calibrate"])
    def test_undecodable_byte_exits_1(self, workdir, capsys, command):
        # a byte that is not UTF-8 used to exit with the codec's message,
        # which names no line and counts its position from an 8 KB chunk
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        bad, out = workdir / "bad.csv", workdir / "out.csv"
        if command == "estimate":
            bad.write_bytes(b"t_s,volume_ml,pressure_pa\n0.0,0.4,9000\n0.01,0.4,9\xff00\n")
            args = ["estimate", bad, "--config", cfg, "--out", out]
        else:
            bad.write_bytes(b"volume_ml,height_mm,phase\n0.1,3.0,inflate\n0.2,3\xff,inflate\n")
            args = ["calibrate", bad, "--config", cfg]
        before = cfg.read_bytes()
        offset = bad.read_bytes().index(b"\xff")
        assert assert_refused(capsys, args) == (
            f"error: line 3: byte 0xff at offset {offset} is not UTF-8\n")
        assert cfg.read_bytes() == before and not out.exists()

    def test_oversized_header_exits_1(self, workdir, capsys):
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        big = workdir / "big.csv"
        big.write_text("t_s," + "x" * 140_000 + "\n")
        err = assert_refused(capsys, ["estimate", big, "--config", cfg,
                                      "--out", workdir / "out.csv"])
        assert err.startswith("error: line 1: field larger than field limit")

    def test_nul_byte_in_trace_exits_1(self, workdir, capsys):
        # csv refuses a NUL byte before Python 3.11; from 3.11 the cell is not a number
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        trace = workdir / "nul.csv"
        trace.write_text("t_s,volume_ml,pressure_pa\n0.0,0.4,90\x0000\n")
        err = assert_refused(capsys, ["estimate", trace, "--config", cfg,
                                      "--out", workdir / "out.csv"])
        assert err.startswith("error: line 2: ")

    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_deeply_nested_yaml_exits_1(self, workdir, capsys, command):
        # 5 000 nested flow sequences used to escape load_raw as a RecursionError
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        deep = "[" * 5000 + "]" * 5000
        out = workdir / "out.csv"
        if command == "estimate":
            bad = workdir / "deep.yaml"
            bad.write_text(cfg.read_text().replace("ring:\n", f"ring: {deep}\nold_ring:\n"))
            args = ["estimate", workdir / "calibration.csv", "--config", bad, "--out", out]
        else:
            bad = workdir / "deep_script.yaml"
            bad.write_text(f"sample_period_s: 0.01\nsteps: {deep}\n")
            args = ["simulate", bad, "--config", cfg, "--out", out]
        assert 10_000 < bad.stat().st_size < 20_000
        assert assert_refused(capsys, args) == f"error: {bad}: nested too deeply to read\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_yaml_alias_bomb_exits_1_on_one_short_line(self, workdir, capsys, command):
        # 6 levels of 10 aliases: a repr of the value runs to megabytes
        cfg = workdir / "config.yaml"
        run(["calibrate", workdir / "calibration.csv", "--config", cfg])
        levels = ["&a0 [" + ",".join("0" * 10) + "]"]
        levels += [f"&a{i} [" + ",".join([f"*a{i - 1}"] * 10) + "]" for i in range(1, 6)]
        bomb = "[" + ", ".join(levels) + "]"
        out = workdir / "out.csv"
        if command == "estimate":
            bad = workdir / "bomb.yaml"
            bad.write_text(f"ring: {bomb}\nmaterial:\n  yeoh_pa: [30000.0, 0, 0, 0, 0, 0]\n")
            args = ["estimate", workdir / "calibration.csv", "--config", bad, "--out", out]
            expected = "error: ring: expected a mapping, got list\n"
        else:
            bad = workdir / "bomb_script.yaml"
            bad.write_text(f"sample_period_s: 0.01\nsteps: [{bomb}]\n")
            args = ["simulate", bad, "--config", cfg, "--out", out]
            expected = "error: script: step 0 is not a mapping: got list\n"
        assert bad.stat().st_size < 400
        err = assert_refused(capsys, args)
        assert err == expected
        assert not out.exists()

    def test_uncalibrated_config(self, workdir):
        # config without a height fit cannot estimate
        assert run(["estimate", workdir / "calibration.csv",
                    "--config", workdir / "config.yaml",
                    "--out", workdir / "x.csv"]) == 1


def test_import_leaves_scipy_integrate_unloaded():
    # a fresh interpreter, since other test modules import scipy.integrate;
    # scipy.optimize too stays unloaded: its import would add about 540 ms to a
    # CLI call's 220 ms import of bma (loaded 2-vCPU VM), so a solver in the
    # package is its own code.  scipy.special's package __init__ does not run
    # either: it imports numpy.f2py, numpy.ma, numpy.testing and numpy.random,
    # about 220 ms more
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    code = ("import sys, bma, bma.cli\n"
            "loaded = sorted(m for m in sys.modules if m in {'scipy.integrate', "
            "'scipy.optimize', 'scipy._lib._array_api', 'numpy.f2py'} "
            "or m.startswith('scipy.special'))\n"
            "sys.exit(f'loaded: {loaded}' if loaded else 0)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
