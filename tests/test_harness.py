import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bma import (
    MissingGroundTruth,
    NonMonotoneTime,
    ParseError,
    SimScript,
    SimStep,
    TraceRecord,
    evaluate,
    ingest_trace,
    predict_pressure,
    run_trace,
    simulate_trace,
    step,
    write_trace,
)
from bma import harness


def basic_script(noise=0.0):
    return SimScript(
        steps=(
            SimStep(0.3e-6, 0.0, 0.4),
            SimStep(0.5e-6, 0.2, 0.4),
            SimStep(0.5e-6, 0.45, 0.4),
            SimStep(0.8e-6, 0.3, 0.4),
            SimStep(0.8e-6, 0.0, 0.4),
        ),
        sample_period=0.01,
        noise_pa=noise,
    )


class TestIngest:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "t_s,volume_ml,pressure_pa\n0.0,0.3,11000\n0.01,0.31,11050\n0.02,0.32,11100\n")
        records = ingest_trace(path)
        assert len(records) == 3
        assert records[0].v_f == pytest.approx(0.3e-6)
        assert not records[0].has_truth

    def test_negative_volume(self, tmp_path):
        path = tmp_path / "trace.csv"
        for bad in ("-1", "nan", "inf", "-inf"):
            path.write_text(f"t_s,volume_ml,pressure_pa\n0.0,0.3,11000\n0.01,{bad},11050\n")
            with pytest.raises(ParseError) as exc_info:
                ingest_trace(path)
            assert exc_info.value.line == 3

    def test_non_monotone_time(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t_s,volume_ml,pressure_pa\n0.0,0.3,11000\n0.0,0.3,11000\n")
        with pytest.raises(NonMonotoneTime):
            ingest_trace(path)
        # a non-finite timestamp would defeat the monotone check
        for bad in ("nan", "inf"):
            path.write_text(
                f"t_s,volume_ml,pressure_pa\n0,0.3,11000\n{bad},0.3,11000\n0,0.3,11000\n")
            with pytest.raises(ParseError) as exc_info:
                ingest_trace(path)
            assert exc_info.value.line == 3

    def test_truth_columns(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "t_s,volume_ml,pressure_pa,force_n,indent_mm\n0.0,0.3,11000,0.2,1.5\n")
        rec = ingest_trace(path)[0]
        assert rec.f_true == 0.2
        assert rec.h2_true == pytest.approx(1.5e-3)
        assert rec.has_truth

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,vol\n0,1\n")
        with pytest.raises(ParseError):
            ingest_trace(path)

    def test_round_trip_9_digits(self, tmp_path):
        records = [
            TraceRecord(t=0.123456789, v_f=0.456789123e-6, p=11234.5678,
                        f_true=0.234567891, h2_true=1.23456789e-3),
            TraceRecord(t=1.123456789, v_f=0.556789123e-6, p=12234.5678,
                        f_true=0.334567891, h2_true=2.23456789e-3),
        ]
        path = tmp_path / "trace.csv"
        write_trace(path, records)
        back = ingest_trace(path)
        for a, b in zip(records, back):
            assert b.t == pytest.approx(a.t, rel=1e-9)
            assert b.v_f == pytest.approx(a.v_f, rel=1e-9)
            assert b.p == pytest.approx(a.p, rel=1e-9)
            assert b.f_true == pytest.approx(a.f_true, rel=1e-9)
            assert b.h2_true == pytest.approx(a.h2_true, rel=1e-9)


class TestSimulate:
    def test_no_force_matches_prediction(self, cfg):
        script = SimScript(steps=(SimStep(0.4e-6, 0.0, 0.1),), sample_period=0.01)
        records = simulate_trace(script, cfg, seed=0)
        p_hat = predict_pressure(0.4e-6, cfg)
        for rec in records:
            assert rec.p == pytest.approx(p_hat, rel=1e-12)

    def test_seed_determinism(self, cfg):
        a = simulate_trace(basic_script(noise=50.0), cfg, seed=42)
        b = simulate_trace(basic_script(noise=50.0), cfg, seed=42)
        assert a == b
        c = simulate_trace(basic_script(noise=50.0), cfg, seed=43)
        assert a != c

    def test_closed_loop_force_recovery(self, cfg):
        records = simulate_trace(basic_script(), cfg, seed=0)
        estimates = run_trace(records, cfg)
        for rec, est in zip(records, estimates):
            if rec.f_true != 0:
                assert est.force == pytest.approx(rec.f_true, rel=1e-6)
            assert est.h2 == rec.h2_true

    def test_rejects_below_model_volume(self, cfg):
        script = SimScript(steps=(SimStep(0.05e-6, 0.0, 0.1),), sample_period=0.01)
        with pytest.raises(Exception):
            simulate_trace(script, cfg, seed=0)


class TestRunTrace:
    def test_adversarial_never_aborts(self, cfg):
        rng = np.random.default_rng(9)
        records = []
        t = 0.0
        for i in range(300):
            v = rng.uniform(0.02e-6, 1.05e-6)  # includes below-range and beyond-fit
            p = rng.choice([rng.uniform(-5e4, 5e4), rng.uniform(1e8, 1e9), 0.0])
            records.append(TraceRecord(t=t, v_f=v, p=float(p)))
            t += 0.01
        estimates = run_trace(records, cfg)
        assert len(estimates) == 300
        for est in estimates:
            if not est.is_null:
                assert 0.0 <= est.h2 <= est.h1

    @settings(max_examples=150, deadline=None)
    @given(
        samples=st.lists(
            st.tuples(
                st.one_of(st.floats(), st.floats(0.02e-6, 1.05e-6)),
                st.one_of(st.floats(), st.floats(-5e4, 5e4),
                          st.sampled_from([5e-324, 1e154, 1e200, 1.7e308, -1.7e308])),
            ),
            max_size=25,
        ),
        tau=st.sampled_from([0.0, 0.05]),
    )
    def test_arbitrary_floats_never_abort(self, cfg, samples, tau):
        records = [TraceRecord(t=0.01 * i, v_f=v, p=p) for i, (v, p) in enumerate(samples)]
        carried = []

        def recording_step(state, v_f, p, cfg):
            est, state = step(state, v_f, p, cfg)
            carried.append(state.h2_prev)
            return est, state

        with mock.patch.object(harness, "step", recording_step):
            estimates = run_trace(records, replace(cfg, pressure_filter_tau=tau))
        assert len(estimates) == len(records)
        for est in estimates:
            if not est.is_null:
                assert 0.0 <= est.h2 <= est.h1
        assert all(math.isfinite(h2) and h2 >= 0.0 for h2 in carried)

    def test_pressure_filter(self, cfg):
        filtered_cfg = replace(cfg, pressure_filter_tau=0.1)
        records = [TraceRecord(t=0.01 * i, v_f=0.4e-6, p=11000.0 + (5000.0 if i == 10 else 0.0))
                   for i in range(20)]
        raw = run_trace(records, cfg)
        smooth = run_trace(records, filtered_cfg)
        # the spike's effect on the estimate is attenuated by the low-pass
        assert abs(smooth[10].force) < abs(raw[10].force)
        # a NaN sample is flagged and does not poison the low-pass state
        records[5] = replace(records[5], p=math.nan)
        smooth = run_trace(records, filtered_cfg)
        assert smooth[5].flags == {"nonfinite_input"}
        assert not any(est.is_null for i, est in enumerate(smooth) if i != 5)


class TestEvaluate:
    def test_noise_free_closed_loop(self, cfg):
        records = simulate_trace(basic_script(), cfg, seed=0)
        report = evaluate(records, cfg)
        assert report.rmse_f <= 1e-6
        assert report.rmse_h2 <= 1e-9  # meters
        assert report.rmse_p is not None and report.rmse_p <= 1e-6
        assert report.n_null == 0

    def test_contact_window(self, cfg):
        records = simulate_trace(basic_script(), cfg, seed=0)
        report = evaluate(records, cfg, contact_window=(0.4, 1.2))
        assert report.window_rmse_f is not None
        assert report.window_rmse_f <= 1e-6

    def test_missing_truth(self, cfg):
        records = [TraceRecord(t=0.0, v_f=0.4e-6, p=11000.0)]
        with pytest.raises(MissingGroundTruth):
            evaluate(records, cfg)

    def test_noise_raises_error_floor(self, cfg):
        noisy = simulate_trace(basic_script(noise=100.0), cfg, seed=1)
        report = evaluate(noisy, cfg)
        assert report.rmse_f > 1e-6


class TestScriptValidation:
    def test_bad_period(self):
        with pytest.raises(ValueError):
            SimScript(steps=(SimStep(0.4e-6, 0.0, 1.0),), sample_period=0.0)

    def test_bad_hold(self):
        with pytest.raises(ValueError):
            SimScript(steps=(SimStep(0.4e-6, 0.0, -1.0),), sample_period=0.01)

    def test_empty(self):
        with pytest.raises(ValueError):
            SimScript(steps=(), sample_period=0.01)
