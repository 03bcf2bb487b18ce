import copy
import gc
import math
import pickle
import sys
import threading
import weakref
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bma import (
    BmaError,
    DegenerateGeometry,
    EstimatorConfig,
    EstimatorState,
    HeightFit,
    LengthMismatch,
    OutOfRange,
    RingSpec,
    SimScript,
    SimStep,
    StateEstimate,
    TraceRecord,
    YeohCoeffs,
    evaluate_height,
    predict_pressure,
    rmse,
    run_trace,
    simulate_trace,
    solve_axes,
    sphere_baseline,
    step,
)
from bma import estimator, fit_height_poly, harness
from bma.config import load_config
from bma.harness import read_calibration
from bma.estimator import Reconstruction, balance_pressure, indent, reconstruct
from bma.material import perimeter, yeoh_energy_density
from oracles import (NegativeDiscriminant, estimate_force, indent_chain, integration_angle,
                     reconstruct_chain, slice_indentation, stretch, update)


class TestEstimateForce:
    def test_energy_balance_zero(self):
        assert estimate_force(0.4e-6, 1000.0, 4e-8, 1e4, 8e-3) == pytest.approx(
            (0.4e-6 * 1000.0 - 4e-8 * 1e4) / 8e-3, rel=1e-15)
        assert estimate_force(1.0, 2.0, 1.0, 2.0, 5.0) == 0.0

    def test_direct(self):
        # V_f p = 8e-4 J, V_fm W = 6e-4 J, h3 = 10 mm
        assert estimate_force(8e-7, 1000.0, 6e-8, 1e4, 10e-3) == pytest.approx(0.02, rel=1e-12)

    def test_empty_balance(self):
        assert estimate_force(0.4e-6, 0.0, 4e-8, 0.0, 8e-3) == 0.0

    def test_flat_membrane_rejected(self):
        with pytest.raises(DegenerateGeometry):
            estimate_force(0.4e-6, 1000.0, 4e-8, 1e4, 0.0)


class TestSliceIndentation:
    def test_zero_force(self):
        assert slice_indentation(5e-3, 8e-3, 2000.0, 0.0) == pytest.approx(0.0, abs=1e-18)

    def test_zero_radicand_endpoint(self):
        a, c, p = 5e-3, 8e-3, 2000.0
        f = math.pi * a * a * p
        assert slice_indentation(a, c, p, f) == pytest.approx(c, rel=1e-12)

    def test_simplified_form(self):
        # h4 = c (1 - sqrt(1 - F / (pi a^2 p))), verified symbolically;
        # frozen numeric value from that simplification
        a, c, p, f = 5e-3, 8e-3, 2000.0, 0.05
        want = c * (1 - math.sqrt(1 - f / (math.pi * a * a * p)))
        got = slice_indentation(a, c, p, f)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(1.3948378305875486e-3, rel=1e-12)

    def test_negative_discriminant(self):
        a, c, p = 5e-3, 8e-3, 2000.0
        with pytest.raises(NegativeDiscriminant):
            slice_indentation(a, c, p, 1.01 * math.pi * a * a * p)

    def test_nonpositive_pressure_rejected(self):
        with pytest.raises(ValueError):
            slice_indentation(5e-3, 8e-3, 0.0, 0.0)


class TestPredictPressure:
    def test_zero_coefficients(self, cfg):
        quiet = replace(cfg, coeffs=YeohCoeffs())
        assert predict_pressure(0.4e-6, quiet) == 0.0

    def test_coefficient_linearity(self, cfg):
        p1 = predict_pressure(0.4e-6, cfg)
        doubled = YeohCoeffs(*(2.0 * c for c in cfg.coeffs.as_tuple()))
        p2 = predict_pressure(0.4e-6, replace(cfg, coeffs=doubled))
        assert p2 == pytest.approx(2 * p1, rel=1e-12)

    def test_below_model_range_rejected(self, cfg):
        with pytest.raises(DegenerateGeometry):
            predict_pressure(0.05e-6, cfg)

    def test_composition(self, cfg, ring):
        # compose the already-verified pieces by hand at one volume
        v_f = 0.4e-6
        h1 = evaluate_height(cfg.fit, v_f)
        v_bma = v_f + ring.membrane_volume
        a, c = solve_axes(v_bma, h1, ring)
        theta1 = integration_angle(ring.r, h1, c)
        arc = perimeter(a, c, h1, theta1)
        lam = stretch(arc, ring)
        w = yeoh_energy_density(lam, cfg.coeffs)
        want = ring.membrane_volume * w / v_f
        assert predict_pressure(v_f, cfg) == pytest.approx(want, rel=1e-12)


class TestStep:
    def test_no_contact_self_consistency(self, cfg):
        # from the no-contact state, the predicted pressure is a fixed point
        for v_f in np.linspace(0.12e-6, 0.95e-6, 25):
            p = predict_pressure(v_f, cfg)
            est, _ = step(EstimatorState(), v_f, p, cfg)
            assert abs(est.force) <= 1e-9
            assert 0.0 <= est.h2 <= 1e-9
            # p_hat and predict_pressure share one energy balance
            assert est.p_hat == predict_pressure(v_f, cfg)

    def test_below_range_null(self, cfg):
        est, state = step(EstimatorState(h2_prev=1e-3), 0.05e-6, 500.0, cfg)
        assert est.is_null
        assert "below_model_range" in est.flags
        assert state.h2_prev == 1e-3

    def test_nonfinite_input_null(self, cfg):
        for v_f, p in ((0.4e-6, math.nan), (0.4e-6, math.inf), (math.nan, 12000.0)):
            est, state = step(EstimatorState(h2_prev=1e-3), v_f, p, cfg)
            assert est.is_null
            assert est.flags == {"nonfinite_input"}
            assert state.h2_prev == 1e-3

    def test_pressure_spike_clamped(self, cfg):
        # near-full indentation plus a pressure spike drives the raw update
        # past h1; the filter must clamp and flag
        est0, _ = step(EstimatorState(), 0.4e-6, 12000.0, cfg)
        est, _ = step(EstimatorState(h2_prev=0.9 * est0.h1), 0.4e-6, 1e9, cfg)
        assert 0.0 <= est.h2 <= est.h1
        assert est.flags & {"h2_clamped", "force_exceeds_bound"}

    def test_negative_pressure_flagged(self, cfg):
        est, _ = step(EstimatorState(), 0.4e-6, -500.0, cfg)
        assert "nonpositive_pressure" in est.flags
        assert 0.0 <= est.h2 <= est.h1

    @pytest.mark.parametrize("h2_prev", [1.0, math.nan])
    def test_restart_and_clamp_carry_both_flags(self, cfg, h2_prev):
        # a carried h2 past h1 (or NaN) restarts from the free shape, and just
        # below the free pressure the force is a pull that clamps h2 to 0:
        # step adds its restart flag to the one indent sets, in a step call
        # and in run_trace's row alike
        v_f = 0.5e-6
        p = 0.999 * predict_pressure(v_f, cfg)
        est, state = step(EstimatorState(h2_prev=h2_prev), v_f, p, cfg)
        assert est.flags == {"h2_prev_clamped", "h2_clamped"}
        assert type(est.flags) is frozenset and est.h2 == state.h2_prev == 0.0
        row = run_trace([TraceRecord(0.0, v_f, p)], cfg, EstimatorState(h2_prev=h2_prev))[0]
        assert row.flags == {"h2_prev_clamped", "h2_clamped"} and row == est

    def test_determinism(self, cfg):
        a = step(EstimatorState(), 0.4e-6, 12000.0, cfg)
        b = step(EstimatorState(), 0.4e-6, 12000.0, cfg)
        assert a == b

    def test_scaling_property(self, cfg):
        # scaling p and all C_n by s scales F by s
        s = 3.0
        est1, _ = step(EstimatorState(h2_prev=1e-3), 0.5e-6, 12000.0, cfg)
        scaled = replace(cfg, coeffs=YeohCoeffs(*(s * c for c in cfg.coeffs.as_tuple())))
        est2, _ = step(EstimatorState(h2_prev=1e-3), 0.5e-6, s * 12000.0, scaled)
        assert est2.force == pytest.approx(s * est1.force, rel=1e-12)

    def test_h3_follows_previous_indentation(self, cfg):
        h2_prev = 1.5e-3
        est, _ = step(EstimatorState(h2_prev=h2_prev), 0.5e-6, 12000.0, cfg)
        assert est.h3 == pytest.approx(est.h1 - h2_prev, rel=1e-12)
        g = reconstruct(0.5e-6, h2_prev, cfg)
        assert g.c_c == pytest.approx(g.c - g.c_d, rel=1e-12)

    def test_reconstruction_is_flat_floats(self, cfg):
        # no nested shape records: plain float fields, ready to become arrays
        g = reconstruct(0.5e-6, 3e-3, cfg)
        assert g.k > 0
        assert len(Reconstruction._fields) == 10 and {type(x) for x in g} == {float}

    def test_estimate_holds_no_shape_objects(self, cfg):
        # each nested object a kept estimate holds adds garbage-collector work
        est, _ = step(EstimatorState(h2_prev=1.5e-3), 0.5e-6, 12000.0, cfg)
        assert {type(getattr(est, f.name)) for f in fields(StateEstimate)
                if f.name != "flags"} == {float}

    def test_numpy_scalar_inputs_give_floats(self, cfg):
        # numpy scalars are converted at the boundary, on the kept shape's miss
        # and hit paths alike, so no np.float64 reaches a record
        fresh = replace(cfg)
        for _ in range(2):   # a cold model's build, then its kept shape
            g = reconstruct(np.float64(0.5e-6), np.float64(3e-3), fresh)
            assert {type(x) for x in g} == {float}
        est, state = step(EstimatorState(h2_prev=np.float64(1.5e-3)), np.float64(0.5e-6),
                          np.float64(12000.0), replace(cfg))
        assert {type(getattr(est, f.name)) for f in fields(StateEstimate)
                if f.name != "flags"} == {float}
        assert type(state.h2_prev) is float

    def test_state_replay(self, cfg):
        # replaying from any recorded h2_prev reproduces the suffix exactly
        rng = np.random.default_rng(5)
        vols = rng.uniform(0.15e-6, 0.9e-6, 50)
        pressures = rng.uniform(8e3, 14e3, 50)
        state = EstimatorState()
        trail = []
        for v, p in zip(vols, pressures):
            est, state = step(state, v, p, cfg)
            trail.append((est, state))
        # restart at step 20 with its recorded input state
        _, mid_state = trail[19]
        state2 = mid_state
        for i in range(20, 50):
            est2, state2 = step(state2, vols[i], pressures[i], cfg)
            assert est2 == trail[i][0]

    def test_fixed_point_is_stationary(self, cfg):
        # repeated steps at the self-consistent pressure reach a fixed point
        v_f, force = 0.5e-6, 0.3

        def pressure(h2):
            return balance_pressure(reconstruct(v_f, h2, cfg), v_f, force)

        h2 = 0.0
        for _ in range(200):
            est, _ = step(EstimatorState(h2_prev=h2), v_f, pressure(h2), cfg)
            if abs(est.h2 - h2) < 1e-14:
                break
            h2 = est.h2
        # a step started at the fixed point stays there and recovers the force
        est, state = step(EstimatorState(h2_prev=h2), v_f, pressure(h2), cfg)
        assert est.h2 == pytest.approx(h2, abs=1e-9)
        assert state.h2_prev == est.h2
        assert est.force == pytest.approx(force, rel=1e-6)


# (V_f ml, dip h2 mm, h2 mm where p is back at p_free) of estimator.equilibrium,
# the fixed-point curve of indent, measured on the fixture with a 2000-point
# grid: the ROADMAP item 2 table.  Up to 0.5 ml the dip lies below contact
# onset, where the curve's force is a pull.
PRESSURE_DIPS = [(0.2, 1.01, 2.77), (0.3, 1.22, 3.03), (0.4, 1.26, 2.96), (0.5, 1.15, 2.79),
                 (0.6, 1.07, 2.37), (0.7, 0.83, 1.77), (0.8, 0.52, 1.07), (0.9, 0.17, 0.34)]


class TestEquilibriumCurve:
    @pytest.mark.parametrize("v_ml", [round(0.10 + 0.05 * i, 2) for i in range(19)])
    def test_indent_holds_every_point_in_place(self, cfg, v_ml):
        # equilibrium is the fixed point of indent on all of [0, h1) that
        # reconstruct accepts, below contact onset (h2 < c_c, a pull) as above
        v_f = v_ml * 1e-6
        points = below = 0
        for h2 in np.linspace(0.0, reconstruct(v_f, 0.0, cfg).h1, 401)[:-1].tolist():
            try:
                g = reconstruct(v_f, h2, cfg)
            except DegenerateGeometry:
                continue
            p, force = estimator.equilibrium(v_f, h2, cfg)
            assert p > 0
            h2_next, force_next, _ = indent(g, v_f, p)
            assert h2_next == pytest.approx(h2, abs=1e-15)
            assert force_next == pytest.approx(force, abs=1e-11)
            points += 1
            below += h2 < g.c_c
        assert points > 390
        if v_ml <= 0.6:   # above it contact begins at rest
            assert below > 0

    # ids name the curve the rows were measured on: the fixed point of indent
    @pytest.mark.parametrize("v_ml,dip_mm,back_mm", PRESSURE_DIPS,
                             ids=[f"fixed_point-{v}-{d}-{b}" for v, d, b in PRESSURE_DIPS])
    def test_pressure_has_one_dip(self, cfg, v_ml, dip_mm, back_mm):
        # The shape a curve solve of p(h2) = p splits into two segments: from
        # p_free at h2 = 0, p falls strictly to one minimum below p_free, then
        # rises strictly up to where reconstruct refuses the flat membrane
        v_f = v_ml * 1e-6
        grid = np.linspace(0.0, reconstruct(v_f, 0.0, cfg).h1, 2001)[:-1].tolist()
        p = []
        for h2 in grid:
            try:
                p.append(estimator.equilibrium(v_f, h2, cfg)[0])
            except DegenerateGeometry:
                break
        assert len(p) > 1900
        p, p_free = np.array(p), predict_pressure(v_f, cfg)
        dip = int(np.argmin(p))
        back = dip + int(np.argmax(p[dip:] >= p_free))
        assert p[0] == pytest.approx(p_free, rel=1e-12) and p[dip] < p_free <= p[back]
        assert np.all(np.diff(p[:dip + 1]) < 0) and np.all(np.diff(p[dip:]) > 0)
        assert grid[dip] * 1e3 == pytest.approx(dip_mm, abs=0.01)
        assert grid[back] * 1e3 == pytest.approx(back_mm, abs=0.01)
        # the update holds the dip's h2 in place
        g = reconstruct(v_f, grid[dip], cfg)
        assert indent(g, v_f, p[dip])[0] == pytest.approx(grid[dip], abs=1e-15)

    @pytest.mark.parametrize("v_ml", [round(0.30 + 0.05 * i, 2) for i in range(14)])
    def test_one_minimum_then_strictly_rising(self, cfg, v_ml):
        # The shape the simulator's hold check brackets on.  Over [0, h1) the
        # force of the closed form falls from 0 at rest to one minimum <= 0 (a
        # pull below contact onset), rises strictly after it, and ends where
        # reconstruct refuses the flat membrane, for good, above the 0.5 N that
        # scripts push
        v_f = v_ml * 1e-6
        forces = []
        for h2 in np.linspace(0.0, reconstruct(v_f, 0.0, cfg).h1, 2001)[:-1].tolist():
            try:
                forces.append(estimator.equilibrium(v_f, h2, cfg)[1])
            except DegenerateGeometry:
                forces.append(None)
        end = forces.index(None)
        assert end > 1000 and forces[end:] == [None] * (len(forces) - end)
        f = np.array(forces[:end])
        low = int(np.argmin(f))
        assert f[low] <= 0
        assert np.all(np.diff(f[:low + 1]) < 0) and np.all(np.diff(f[low:]) > 0)
        assert f[-1] > 0.5


class TestUpdate:
    def test_step_is_update_of_reconstruct(self, cfg):
        # step = input guards + update(reconstruct(...)), exactly, over free,
        # contact, saturated, clamped and nonpositive-pressure samples; flags
        # stay a frozenset when the restart flag joins those of indent
        seen = set()
        composed = set()
        for v_f in (0.15e-6, 0.3e-6, 0.5e-6, 0.8e-6):
            p_free = predict_pressure(v_f, cfg)
            h1 = evaluate_height(cfg.fit, v_f)
            for h2_prev in (0.0, 1e-3, 3e-3, 0.9 * h1, h1, 1.2 * h1):
                for p in (p_free, 1.02 * p_free, 0.98 * p_free, 1e9, 0.0, -500.0):
                    state = EstimatorState(h2_prev=h2_prev, step_index=7)
                    try:
                        got = step(state, v_f, p, cfg)
                    except DegenerateGeometry:
                        with pytest.raises(DegenerateGeometry):
                            update(reconstruct(v_f, h2_prev, cfg), state, v_f, p)
                        continue
                    assert got == update(reconstruct(v_f, h2_prev, cfg), state, v_f, p)
                    est = got[0]
                    assert type(est.flags) is frozenset
                    seen |= est.flags
                    seen.add("contact" if est.force > 1e-6 else "free")
                    if "h2_prev_clamped" in est.flags:
                        composed |= est.flags - {"h2_prev_clamped"}
        assert seen >= {"free", "contact", "force_exceeds_bound", "h2_clamped",
                        "nonpositive_pressure", "h2_prev_clamped"}
        # the restart flag carried together with one of indent
        assert composed & {"h2_clamped", "nonpositive_pressure", "force_exceeds_bound"}

    def test_carried_indentation_past_h1_restarts_free(self, cfg):
        # h1 at 0.3 ml is about 5.9 mm, below the carried 6.5 mm: contact is
        # lost, so the update restarts from the free shape instead of failing
        v_f, carried = 0.3e-6, EstimatorState(h2_prev=6.5e-3)
        p = predict_pressure(v_f, cfg)
        for h2_prev in (evaluate_height(cfg.fit, v_f), carried.h2_prev):
            est, _ = step(EstimatorState(h2_prev=h2_prev), v_f, p, cfg)
            assert "h2_prev_clamped" in est.flags
            assert 0.0 <= est.h2 <= est.h1 <= h2_prev
            assert est.h3 == est.h1
        records = [TraceRecord(t=0.01 * i, v_f=v_f, p=p) for i in range(5)]
        estimates = run_trace(records, cfg, carried)
        assert not any("step_error" in est.flags for est in estimates)
        assert "h2_prev_clamped" in estimates[0].flags
        assert all(0.0 <= est.h2 <= est.h1 for est in estimates)

    def test_update_is_indent_plus_records(self, cfg):
        # update's h2, force and flags are those of the indent core, on
        # free, contact, saturated, clamped and nonpositive-pressure samples
        v_f = 0.5e-6
        p_free = predict_pressure(v_f, cfg)
        for h2_prev in (0.0, 1e-3, 3e-3):
            g = reconstruct(v_f, h2_prev, cfg)
            for p in (p_free, 1.02 * p_free, 0.98 * p_free, 1e9, 0.0, -500.0):
                est, state = update(g, EstimatorState(h2_prev, 3), v_f, p)
                assert indent(g, v_f, p) == (est.h2, est.force, est.flags)
                assert est.p_hat == balance_pressure(g, v_f)
                assert type(state) is EstimatorState and state == (est.h2, 4)

    def test_contact_reconstruct_calls_every_layer(self, cfg, monkeypatch):
        # the layers run through the names bma.estimator looks up, where the
        # benchmark's per-layer spans wrap them; a cold volume runs them all.
        # A cold copy of cfg keeps the stage built on the wrappers from later tests
        called = []
        for name in ("evaluate_height", "solve_axes", "perimeter", "yeoh_energy_density"):
            def counted(*args, _fn=getattr(estimator, name), _name=name):
                called.append(_name)
                return _fn(*args)
            monkeypatch.setattr(estimator, name, counted)
        g = cold_reconstruct(0.5e-6, 3e-3, cfg)
        assert g.k > 0
        assert sorted(called) == ["evaluate_height", "perimeter", "solve_axes", "solve_axes",
                                  "yeoh_energy_density"]

    @pytest.mark.parametrize("h2_prev", [-1e-3, -math.inf, math.inf, math.nan])
    def test_bad_carried_state_restarts_free(self, cfg, h2_prev):
        # no update carries such a state, but a caller may pass one in
        v_f = 0.5e-6
        g = reconstruct(v_f, h2_prev, cfg)
        assert g is reconstruct(v_f, 0.0, cfg)
        p = predict_pressure(v_f, cfg)
        records = [TraceRecord(t=0.01 * i, v_f=v_f, p=p) for i in range(5)]
        estimates = run_trace(records, cfg, EstimatorState(h2_prev=h2_prev))
        assert not any("step_error" in est.flags for est in estimates)
        assert "h2_prev_clamped" in estimates[0].flags
        assert all(0.0 <= est.h2 <= est.h1 for est in estimates)


def cold_reconstruct(v_f, h2_prev, cfg):
    """`reconstruct` under a fresh copy of cfg, whose model starts cold: it builds both stages."""
    return reconstruct(v_f, h2_prev, replace(cfg))


def stage_cache(cfg):
    """cfg's cache of volume stages, to read its `cache_info()`."""
    return cfg._model.volume_stage


def outcome(fn, v_f, h2_prev, cfg):
    """A call's result, or the class and message of the model error it raised."""
    try:
        return fn(v_f, h2_prev, cfg)
    except BmaError as exc:
        return type(exc), str(exc)


# 0.05 ml is below v_min_model, 1.2 ml above the fit's v_max
MEMO_VOLUMES = [v * 1e-6 for v in (0.05, 0.15, 0.3, 0.5, 0.8, 1.0, 1.2)]
# carried indentations that repeat, restart (NaN, negative, past h1) or are -0.0
MEMO_H2 = [0.0, -0.0, 1e-3, 4e-3, math.nan, -1e-3, 1.0]


class TestVolumeMemo:
    @pytest.fixture(scope="class")
    def configs(self, cfg):
        # a second config with another fit: same volumes, other apex heights
        taller = replace(cfg.fit, coeffs=tuple(1.03 * c for c in cfg.fit.coeffs))
        return cfg, replace(cfg, fit=taller)

    @settings(max_examples=40, deadline=None)
    @given(calls=st.lists(st.tuples(st.integers(0, 1),
                                    st.sampled_from(MEMO_VOLUMES),
                                    st.floats(0.0, 9e-3) | st.sampled_from(MEMO_H2)),
                          min_size=1, max_size=12))
    def test_interleaved_calls_match_cold_calls(self, configs, calls):
        warm = [outcome(reconstruct, v_f, h2_prev, configs[i]) for i, v_f, h2_prev in calls]
        cold = [outcome(cold_reconstruct, v_f, h2_prev, configs[i]) for i, v_f, h2_prev in calls]
        assert warm == cold and repr(warm) == repr(cold)

    def test_repeats_and_alternation_match_cold_calls(self, configs):
        # each h2 twice running, so every other call may return the kept
        # shape; -0.0 after 0.0 and the reverse, NaN, h1 itself and 1 m (past
        # h1) restarting at 0.0; the same volumes under the two configs in turn
        v1, v2 = 0.3e-6, 0.8e-6
        calls = [(i, v_f, h2_prev)
                 for i, v_f in [(0, v1), (0, v1), (1, v1), (1, v1), (0, v1), (0, v2),
                                (1, v2), (0, v2), (0, v2), (0, v1), (1, v1), (0, v1)]
                 for h2_prev in (0.0, 0.0, -0.0, -0.0, 0.0, 1e-3, 1e-3, 4e-3, 4e-3, math.nan,
                                 math.nan, 0.0, evaluate_height(configs[i].fit, v_f),
                                 1.0, 1.0, 4e-3, 1e-3)]
        warm = [reconstruct(v_f, h2_prev, configs[i]) for i, v_f, h2_prev in calls]
        cold = [cold_reconstruct(v_f, h2_prev, configs[i]) for i, v_f, h2_prev in calls]
        for got, want in zip(warm, cold):
            assert got == want and repr(got) == repr(want)
        # a restart returns the free shape
        restarts = [not 0.0 <= h2_prev < evaluate_height(configs[i].fit, v_f)
                    for i, v_f, h2_prev in calls]
        for (i, v_f, _), got, restart in zip(calls, warm, restarts):
            if restart:
                assert got == cold_reconstruct(v_f, 0.0, configs[i])
        assert 0 < sum(restarts) < len(calls)

    def test_kept_shape_serves_only_its_config_volume_and_h2(self, cfg):
        # the same config object, volume and carried h2 (after the restart
        # rule) return the kept record itself, on a restart too; any other
        # call builds one.  Another config's call leaves the kept shape as it
        # is; another volume or h2 replaces it
        v_f, cfg = 0.5e-6, replace(cfg)
        for call in ((v_f, 1e-3, replace(cfg)), (np.nextafter(v_f, 1.0), 1e-3, cfg),
                     (v_f, np.nextafter(1e-3, 1.0), cfg)):
            g = reconstruct(v_f, 1e-3, cfg)
            assert reconstruct(v_f, 1e-3, cfg) is g
            other = reconstruct(*call)
            assert other is not g and reconstruct(*call) is other
            assert (reconstruct(v_f, 1e-3, cfg) is g) == (call[2] is not cfg)
        free = reconstruct(v_f, 0.0, cfg)
        for bad in (math.nan, -1e-3, 1.0):
            assert reconstruct(v_f, bad, cfg) is free
            assert reconstruct(v_f, 0.0, cfg) is free

    def test_raising_volumes_raise_on_repeat(self, cfg):
        cfg = replace(cfg)   # a cold model
        valid = reconstruct(0.5e-6, 1e-3, cfg)
        for v_f, error in ((1.2e-6, OutOfRange), (0.05e-6, DegenerateGeometry)):
            reconstruct(0.5e-6, 1e-3, cfg)
            for _ in range(2):
                with pytest.raises(error):
                    reconstruct(v_f, 0.0, cfg)
            assert reconstruct(0.5e-6, 1e-3, cfg) == valid

    @pytest.mark.parametrize("bad", [math.nan, -1e-3, 1.0])
    def test_restart_flag_does_not_leak_into_free_shape(self, cfg, bad):
        # the restart returns the kept free shape itself, whether it fills the
        # kept shape or reads it; the flag is step's, on the restarted sample's
        # estimate only, and a free sample after it carries none
        v_f = 0.5e-6
        free = cold_reconstruct(v_f, 0.0, cfg)
        cfg = replace(cfg)
        for _ in range(2):   # a cold model's build, then its kept shape
            g = reconstruct(v_f, bad, cfg)
            assert g == free
            for _ in range(2):
                assert reconstruct(v_f, 0.0, cfg) is g
            assert reconstruct(v_f, bad, cfg) is g
        p = 1.001 * predict_pressure(v_f, cfg)
        restarted, _ = step(EstimatorState(h2_prev=bad), v_f, p, cfg)
        settled, _ = step(EstimatorState(), v_f, p, cfg)
        assert restarted.flags == {"h2_prev_clamped"} and settled.flags == set()
        assert restarted == replace(settled, flags=restarted.flags)

    def test_predict_pressure_warm_matches_cold(self, configs):
        # a kept shape serves only its own config, volume and carried h2
        def cold(v_f, cfg):
            return predict_pressure(v_f, replace(cfg))

        for i, v_f in [(0, 0.3e-6), (0, 0.3e-6), (1, 0.3e-6), (0, 0.8e-6),
                       (0, 0.8e-6), (1, 0.8e-6), (1, 0.3e-6)]:
            warm = predict_pressure(v_f, configs[i])
            reconstruct(v_f, 2e-3, configs[i])   # a contact sample at the same volume
            assert predict_pressure(v_f, configs[i]) == warm == cold(v_f, configs[i])

    def test_raising_free_shape_raises_on_repeat(self, cfg, monkeypatch):
        # a build that raises replaces nothing in the kept shape: the second
        # call raises as the first did, and the shape kept before it still
        # serves.  A copy of cfg keeps what is built on the stub from later tests
        def broken(lam, coeffs):
            raise DegenerateGeometry("no energy term")

        v_f, cfg = 0.5e-6, replace(cfg)
        kept = reconstruct(v_f, 1e-3, cfg)
        with monkeypatch.context() as m:
            m.setattr(estimator, "yeoh_energy_density", broken)
            for h2_prev in (0.0, 0.0, math.nan):
                with pytest.raises(DegenerateGeometry, match="no energy term"):
                    reconstruct(v_f, h2_prev, cfg)
        assert reconstruct(v_f, 1e-3, cfg) is kept
        assert reconstruct(v_f, 0.0, cfg) == cold_reconstruct(v_f, 0.0, cfg)

    @pytest.mark.parametrize("path", ["reconstruct", "run_trace"])
    def test_free_samples_at_one_volume_solve_axes_once(self, cfg, monkeypatch, path):
        # once for the volume stage, then never again while the volume holds:
        # the free shape, at h3 = h1, takes the stage's axes.  Counted on a
        # copy of cfg, whose model starts cold
        calls = []

        def counting(*args):
            calls.append(args)
            return solve_axes(*args)

        v_f, n = 0.5e-6, 50
        # just below the free pressure the force is negative and every update
        # clamps h2 to 0, so each sample reconstructs the free shape
        p = 0.999 * predict_pressure(v_f, cfg)
        cfg = replace(cfg)
        monkeypatch.setattr(estimator, "solve_axes", counting)
        if path == "reconstruct":
            reconstruct(0.3e-6, 1e-3, cfg)   # kept, but at another volume
            assert len(calls) == 2
            calls.clear()
            for _ in range(n):
                reconstruct(v_f, 0.0, cfg)
        else:
            estimates = run_trace([TraceRecord(0.01 * i, v_f, p) for i in range(n)], cfg)
            assert all(est.h2 == 0.0 and "h2_clamped" in est.flags for est in estimates)
        assert len(calls) == 1

    def test_settled_contact_hold_stops_solving_axes(self, cfg, monkeypatch):
        # a noise-free contact hold settles on a fixed point; from the sample
        # after the first that repeats its predecessor's h2, each sample
        # carries the h2 of the one before and returns the kept shape
        v_f, n = 0.5e-6, 400
        records = simulate_trace(SimScript((SimStep(v_f, 0.2, n * 0.01),), 0.01), cfg, seed=0)
        estimates = run_trace(records, cfg)
        settled = next(j for j in range(1, n) if estimates[j].h2 == estimates[j - 1].h2)
        assert 10 < settled < n - 100 and estimates[settled].force > 0.1
        calls, per_sample = [], []

        def counting(*args):
            calls.append(args)
            return solve_axes(*args)

        def counted_step(*args):
            calls.clear()
            out = step(*args)
            per_sample.append(len(calls))
            return out

        monkeypatch.setattr(estimator, "solve_axes", counting)
        monkeypatch.setattr(harness, "step", counted_step)
        # a copy of cfg, whose model starts cold
        assert run_trace(records, replace(cfg)) == estimates
        # the volume stage, whose axes the first sample's free shape takes,
        # then one shape per new carried h2, then none
        assert per_sample == [1] + [1] * settled + [0] * (n - settled - 1)

    def test_settled_hold_keeps_its_shape_between_another_configs_calls(
            self, cfg, configs, monkeypatch):
        # the same hold, each of its steps followed by a step of another
        # config's estimator on the same samples: each config keeps its own
        # last shape, so once the hold settles its samples solve no axes
        v_f, n = 0.5e-6, 400
        records = simulate_trace(SimScript((SimStep(v_f, 0.2, n * 0.01),), 0.01), cfg, seed=0)
        estimates = run_trace(records, cfg)
        settled = next(j for j in range(1, n) if estimates[j].h2 == estimates[j - 1].h2)
        calls, per_sample, got = [], [], []

        def counting(*args):
            calls.append(args)
            return solve_axes(*args)

        monkeypatch.setattr(estimator, "solve_axes", counting)
        mine, theirs = replace(cfg), replace(configs[1])   # models that start cold
        state, other_state = EstimatorState(), EstimatorState()
        for r in records:
            calls.clear()
            est, state = step(state, r.v_f, r.p, mine)
            per_sample.append(len(calls))
            got.append(est)
            _, other_state = step(other_state, r.v_f, r.p, theirs)
        assert got == estimates
        assert per_sample == [1] + [1] * settled + [0] * (n - settled - 1)

    def test_revisited_volume_builds_no_stage(self, cfg, monkeypatch):
        # a free sample at a volume whose stage was built before other volumes'
        # calls neither the height fit nor solve_axes, and returns the cold
        # call's record.  Counted on a copy of cfg, whose cache starts empty
        calls = []

        def counting(fn):
            def counted(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return counted

        volumes = (0.3e-6, 0.5e-6, 0.8e-6)
        cold = [cold_reconstruct(v_f, 0.0, cfg) for v_f in volumes]
        monkeypatch.setattr(estimator, "evaluate_height", counting(evaluate_height))
        monkeypatch.setattr(estimator, "solve_axes", counting(solve_axes))
        fresh = replace(cfg)
        for v_f in volumes:
            reconstruct(v_f, 0.0, fresh)
        assert calls == ["evaluate_height", "solve_axes"] * len(volumes)
        calls.clear()
        for v_f, want in [*zip(volumes, cold), *zip(reversed(volumes), reversed(cold))]:
            got = reconstruct(v_f, 0.0, fresh)
            assert got == want and repr(got) == repr(want)
        assert calls == []
        # 0.8 ml twice running reads the kept shape's stage; the five other revisits hit
        assert stage_cache(fresh).cache_info()[:2] == (5, len(volumes))

    def test_table_stays_bounded(self, cfg):
        # more distinct volumes than the bound: the cache keeps the stages of
        # the most recent 4 096, which a revisit finds, and every record, first
        # visit or revisit, is a cold build's
        fresh = replace(cfg)
        stages = stage_cache(fresh)
        bound = stages.cache_parameters()["maxsize"]
        assert bound == 4096
        volumes = np.linspace(0.15e-6, 0.95e-6, bound + 100).tolist()
        warm = [reconstruct(v_f, 0.0, fresh) for v_f in volumes]
        assert stages.cache_info()[:] == (0, len(volumes), bound, bound)
        # newest first: the newest volume's stage is the kept shape's, the
        # other `bound - 1` of the last `bound` volumes hit, then the first 100 miss
        revisits = [reconstruct(v_f, 1e-3, fresh) for v_f in volumes[::-1]]
        assert stages.cache_info()[:] == (bound - 1, len(volumes) + 100, bound, bound)
        assert warm == [cold_reconstruct(v_f, 0.0, cfg) for v_f in volumes]
        assert revisits == [cold_reconstruct(v_f, 1e-3, cfg) for v_f in volumes[::-1]]

    def test_alternating_configs_keep_their_own_stages(self, cfg, configs, monkeypatch):
        # volumes visited under one config, then under another (with other
        # apex heights, or an equal copy): after one pass per config, taking
        # the two in turn builds no stage, as each keeps its own, and every
        # record is its own config's cold build
        volumes = (0.3e-6, 0.5e-6, 0.8e-6)
        calls = []

        def counting(fit, v_f):
            calls.append(v_f)
            return evaluate_height(fit, v_f)

        monkeypatch.setattr(estimator, "evaluate_height", counting)
        for other in (configs[1], cfg):
            pair = (replace(cfg), replace(other))   # models that start cold
            cold = {(id(c), v_f): cold_reconstruct(v_f, 1e-3, c) for c in pair for v_f in volumes}
            calls.clear()
            for c in pair:
                for v_f in volumes:
                    reconstruct(v_f, 1e-3, c)
            assert calls == [*volumes, *volumes]
            calls.clear()
            for v_f in volumes:
                for c in (*pair, *pair):
                    got = reconstruct(v_f, 1e-3, c)
                    assert got == cold[id(c), v_f] and repr(got) == repr(cold[id(c), v_f])
            assert calls == []
            assert [stage_cache(c).cache_info().currsize for c in pair] == [3, 3]

    def test_unheld_config_is_freed_with_its_cache(self, cfg):
        # the model holds no reference to its config, and no other object holds
        # the model, so with the cycle collector off, a config no caller holds
        # is freed, cache and all, as soon as the last reference goes
        gc.disable()
        try:
            other = replace(cfg)
            reconstruct(0.5e-6, 1e-3, other)
            refs = (weakref.ref(other), weakref.ref(stage_cache(other)))
            del other
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_used_config_pickles_and_copies_with_a_cold_cache(self, cfg):
        # pickle, copy and deepcopy rebuild a config from its fields: the copy
        # compares equal, estimates alike, and starts with an empty cache of
        # its own, which the original's later calls do not fill
        used = replace(cfg)
        records = [TraceRecord(0.01 * i, v_f, 1.01 * predict_pressure(v_f, cfg))
                   for i, v_f in enumerate((0.3e-6, 0.5e-6, 0.5e-6, 0.8e-6, 0.3e-6))]
        estimates = run_trace(records, used)
        assert stage_cache(used).cache_info().currsize == 3
        for twin in (pickle.loads(pickle.dumps(used)), copy.copy(used), copy.deepcopy(used)):
            assert twin == used and type(twin) is EstimatorConfig
            stages = stage_cache(twin)
            assert stages is not stage_cache(used) and stages.cache_info().currsize == 0
            assert run_trace(records, twin) == estimates
            run_trace([TraceRecord(0.0, 0.9e-6, 1e4)], used)
            assert stages.cache_info()[:] == (1, 3, 4096, 3)

    def test_concurrent_callers_get_cold_records(self, cfg):
        # threads sharing the config's model, switched often: each call
        # returns its cold build, as a caller that reads a kept shape another
        # thread is replacing can at worst miss, and the cache is thread-safe
        calls = [(v_f, h2_prev) for v_f in np.linspace(0.15e-6, 0.95e-6, 40).tolist()
                 for h2_prev in (0.0, 1e-3)]
        cold = {call: cold_reconstruct(*call, cfg) for call in calls}
        wrong, done = [], []

        def worker(seed):
            order = np.random.default_rng(seed).permutation(len(calls) * 5) % len(calls)
            wrong.extend(calls[i] for i in order.tolist()
                         if reconstruct(*calls[i], cfg) != cold[calls[i]])
            done.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == list(range(8)) and wrong == []

    def test_alternating_configs_keep_their_own_constants(self, cfg):
        # a config with its own ring, one with its own coefficients and an
        # equal copy, each taken in turn with cfg at the same (V_f, h2): every
        # call returns its own config's cold-call record, so no constant kept
        # with the volume stage serves another config
        ring, coeffs = cfg.ring, cfg.coeffs
        others = (replace(cfg, ring=RingSpec(1.02 * ring.r, 1.1 * ring.t_i)),
                  replace(cfg, coeffs=replace(coeffs, c1=1.1 * coeffs.c1)),
                  replace(cfg))
        for other in others:
            for v_f, h2_prev in ((0.5e-6, 0.0), (0.5e-6, 1e-3), (0.8e-6, 2e-3)):
                cold = {id(c): cold_reconstruct(v_f, h2_prev, c) for c in (cfg, other)}
                assert (cold[id(cfg)] == cold[id(other)]) == (other == cfg)
                for c in (cfg, other, cfg, other, other, cfg):
                    got = reconstruct(v_f, h2_prev, c)
                    assert got == cold[id(c)] and repr(got) == repr(cold[id(c)])

    @pytest.mark.parametrize("v_ml", [0.15, 0.5, 1.0])
    def test_rest_rebuild_takes_the_unindented_shape(self, cfg, cfg_a, v_ml):
        # at h2 = 0, h3 = h1: the deformed spheroid is the unindented one, the
        # slice lies at depth 0 and the whole membrane is free
        for config in (cfg, cfg_a):
            for h2_prev in (0.0, -0.0, math.nan, 1.0):
                g = cold_reconstruct(v_ml * 1e-6, h2_prev, config)
                assert (g.a_d, g.c_d, g.h3) == (g.a, g.c, g.h1)
                assert g.c_c == 0.0 and g.k == 0.0
                assert g.v_fm == config.ring.membrane_volume

    def test_numpy_volume_does_not_stand_in_for_float(self, cfg):
        # an equal numpy scalar must not hand its numpy-typed shape to a float call
        cfg = replace(cfg)   # a cold model
        reconstruct(np.float64(0.5e-6), 1e-3, cfg)
        g = reconstruct(0.5e-6, 1e-3, cfg)
        assert g == cold_reconstruct(0.5e-6, 1e-3, cfg)
        assert {type(x) for x in g} == {float}


def indent_outcome(fn, g, v_f, p):
    """An indent call's result, or the class and message of the model error it raised."""
    try:
        return fn(g, v_f, p)
    except BmaError as exc:
        return type(exc), str(exc)


# pressures besides those near free inflation: nonpositive, a force past
# the cross-section's bound, and one whose square overflows
EXTREME_PRESSURES = (0.0, -500.0, 1e9, 1e200)


def assert_chain_matches_oracle(cfg, v_f, h2_prev, pressures):
    """Assert reconstruct and indent equal the oracle composition, at each pressure.

    Returns the flags indent sets, `h2_prev_clamped` where reconstruct
    restarted, and a name for each model error they raised.
    """
    got = outcome(reconstruct, v_f, h2_prev, cfg)
    assert got == outcome(reconstruct_chain, v_f, h2_prev, cfg)
    if not isinstance(got, Reconstruction):
        return {got[0].__name__}
    paths = set() if 0.0 <= h2_prev < got.h1 else {"h2_prev_clamped"}
    for p in pressures:
        result = indent_outcome(indent, got, v_f, p)
        assert result == indent_outcome(indent_chain, got, v_f, p)
        paths |= result[2] if len(result) == 3 else {"indent_" + result[0].__name__}
    return paths


@contextmanager
def substituted_axes(cfg, h1, free, deformed):
    """A copy of cfg, with solve_axes returning fixed axes: free at apex height h1, else deformed.

    Replaced where `reconstruct` and the oracle chain look it up.  The stages
    built on the replaced axes are kept only in the copy's model, so none
    reaches a config that another call or test uses.
    """
    def stub(v_bma, h, ring):
        return free if h == h1 else deformed

    with pytest.MonkeyPatch.context() as m:
        for module in (estimator, oracles):
            m.setattr(module, "solve_axes", stub)
        yield replace(cfg)


@st.composite
def carried_indentations(draw, h1):
    """0, a tiny value, a share of h1, a value within a few ulp of h1, or any float."""
    kind = draw(st.sampled_from(["zero", "tiny", "share", "near_h1", "any"]))
    if kind == "zero":
        return 0.0
    if kind == "tiny":
        return draw(st.floats(min_value=5e-324, max_value=1e-12))
    if kind == "share":
        return h1 * draw(st.floats(0.0, 1.0, exclude_max=True))
    if kind == "near_h1":
        return h1 + draw(st.integers(-4, 2)) * math.ulp(h1)
    return draw(st.floats())


class TestFoldedChain:
    """The straight-line `reconstruct` and `indent` against the oracle composition."""

    @settings(max_examples=150, deadline=None)
    @given(v_f=st.one_of(st.sampled_from(MEMO_VOLUMES), st.floats(0.05e-6, 1.2e-6)),
           data=st.data())
    def test_equals_oracle_chain(self, cfg, v_f, data):
        try:
            h1, p_free = evaluate_height(cfg.fit, v_f), predict_pressure(v_f, cfg)
        except BmaError:   # outside the modeled range: both sides raise
            h1, p_free = 5e-3, 12e3
        h2_prev = data.draw(carried_indentations(h1))
        p_any = data.draw(st.floats(-1e6, 1e300))
        assert_chain_matches_oracle(
            cfg, v_f, h2_prev,
            (p_free, 1.02 * p_free, 0.98 * p_free, p_any, *EXTREME_PRESSURES))

    @settings(max_examples=150, deadline=None)
    @given(v_f=st.sampled_from(MEMO_VOLUMES[1:6]), share=st.floats(0.0, 1.0, exclude_max=True),
           axes=st.tuples(st.floats(0.05, 20.0), st.floats(0.5, 20.0), st.floats(0.05, 20.0),
                          st.floats(0.0025, 1.0)))
    def test_equals_oracle_chain_for_any_layer_axes(self, cfg, v_f, share, axes):
        # the solve_axes layer replaced by positive axes, in units of h1, that
        # keep the two relations the real layer guarantees, c_d <= c and
        # h1 <= 2c, so the slice stays within the ellipsoid: reaches shapes the
        # real layer never returns, a negative V_fm among them, with the same result
        h1 = evaluate_height(cfg.fit, v_f)
        a, c, a_d = (h1 * x for x in axes[:3])
        c_d = c * axes[3]
        with substituted_axes(cfg, h1, (a, c), (a_d, c_d)) as stubbed:
            assert_chain_matches_oracle(stubbed, v_f, share * h1, (12e3, 1e9, 0.0))

    def test_examples_take_every_path(self, cfg):
        v_f = 0.5e-6
        h1 = evaluate_height(cfg.fit, v_f)
        p_free = predict_pressure(v_f, cfg)
        pressures = (p_free, 1.02 * p_free, 0.98 * p_free, *EXTREME_PRESSURES)
        seen = set()
        for h2_prev in (0.0, 5e-324, 1e-300, 1e-3, 3e-3, math.nextafter(h1, 0.0), h1, -1e-3):
            seen |= assert_chain_matches_oracle(cfg, v_f, h2_prev, pressures)
        assert seen >= {"h2_prev_clamped", "force_exceeds_bound", "h2_clamped",
                        "nonpositive_pressure", "indent_DegenerateGeometry"}
        # axes whose slice at depth c rounds the contact radius one ulp past a,
        # so reconstruct takes its k = a clamp
        a, c = 0.009570288454955212, 0.0033302507526366703
        assert a * math.sqrt(2 * c * c - c * c) / c > a
        with substituted_axes(cfg, h1, (a, c), (a, c)) as stubbed:
            assert_chain_matches_oracle(stubbed, v_f, c, pressures)
            assert reconstruct(v_f, c, stubbed).k == a


class TestCenterShift:
    """c_c = c - c_d from the real `solve_axes`, on the fixture config and on
    the sample config calibrated on the sample rows."""

    @pytest.fixture(scope="class")
    def configs(self, cfg):
        repo = Path(__file__).resolve().parent.parent
        sample = load_config(repo / "configs" / "sample.yaml", require_fit=False)
        fit = fit_height_poly(read_calibration(repo / "data" / "sample_calibration.csv"))
        return cfg, replace(sample, fit=fit)

    @settings(max_examples=300, deadline=None)
    @given(which=st.integers(0, 1), x=st.floats(0.0, 1.0),
           share=st.floats(0.0, 1.0, exclude_max=True))
    def test_not_negative_and_slice_above_bottom(self, configs, which, x, share):
        # c grows with the apex height at a fixed volume and h3 <= h1, so
        # c_c >= 0 up to rounding, and the slice at depth h2_prev - c_c stays
        # within 2c, so reconstruct needs no slice-below-ellipsoid refusal
        cfg = configs[which]
        lo = max(cfg.v_min_model, cfg.fit.v_min)
        v_f = lo + x * (cfg.fit.v_max - lo)
        h1 = evaluate_height(cfg.fit, v_f)
        h2_prev = share * h1
        v_bma = v_f + cfg.ring.membrane_volume
        try:
            _, c = solve_axes(v_bma, h1, cfg.ring)
            _, c_d = solve_axes(v_bma, h1 - h2_prev, cfg.ring)
        except DegenerateGeometry:   # no reconstruction, so no slice
            return
        c_c = c - c_d
        assert c_c >= -4 * math.ulp(c)
        assert h2_prev - c_c <= 2 * c


@st.composite
def configs_over_the_ranges(draw):
    """A config from the ranges of the ROADMAP's random-config study.

    r 3-10 mm, t_i 0.2-1 mm, a height map 0.8-1.25 times the sphere-cap height
    fitted at degree 7 over 40 volumes from 0.05 to 1.0 ml, C1 5-60 kPa,
    |C2| <= 0.1 C1 and 0 <= C3 <= 0.01 C1.
    """
    ring = RingSpec(draw(st.floats(3e-3, 10e-3)), draw(st.floats(0.2e-3, 1e-3)))
    factor = draw(st.floats(0.8, 1.25))
    c1 = draw(st.floats(5e3, 60e3))
    coeffs = YeohCoeffs(c1, c1 * draw(st.floats(-0.1, 0.1)), c1 * draw(st.floats(0.0, 0.01)))
    samples = [(v, factor * sphere_baseline(v + ring.membrane_volume, ring)[1], phase)
               for v in np.linspace(0.05e-6, 1.0e-6, 40) for phase in ("inflate", "deflate")]
    return EstimatorConfig(ring=ring, coeffs=coeffs, fit=fit_height_poly(samples, degree=7))


class TestGeometryGuards:
    """Why `reconstruct` needs no refusal or clamp past `solve_axes`'s, over
    the random-config ranges, with the real layers.

    At a fixed volume c = (h/3)(1 + 1/(2 - qh)) with q = pi r^2 / V_bma, so
    2c - h = (h/3) qh / (2 - qh), and `solve_axes`' radicand check keeps qh < 2:
    no shape it returns is taller than 2c, and the slice at depth h2 - c_c
    stays within it.  The contact radius k stays below the meridian arc L,
    so V_fm = V_m (1 - k^2 / L^2) is positive.
    """

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(cfg=configs_over_the_ranges(),
           volumes=st.lists(st.floats(0.1e-6, 1.0e-6), min_size=1, max_size=4),
           shares=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=6))
    def test_neither_refusal_fires(self, cfg, volumes, shares):
        ring = cfg.ring
        for v_f in volumes:
            h1 = evaluate_height(cfg.fit, v_f)
            v_bma = v_f + ring.membrane_volume
            try:
                a, c = solve_axes(v_bma, h1, ring)
            except DegenerateGeometry:   # refused by the layer itself
                continue
            qh = math.pi * ring.r ** 2 / v_bma * h1
            assert 0 < qh < 2
            assert 2 * c - h1 == pytest.approx(h1 / 3 * qh / (2 - qh), rel=1e-6)
            free = reconstruct(v_f, 0.0, cfg)
            assert (free.h1, free.a, free.c) == (h1, a, c)
            assert (free.h3, free.a_d, free.c_d, free.k) == (h1, a, c, 0.0)
            assert free.v_fm == ring.membrane_volume
            for h2 in (0.0, 0.5 * h1, *(share * h1 for share in shares),
                       math.nextafter(h1, 0.0)):
                try:
                    _, c_d = solve_axes(v_bma, h1 - h2, ring)
                except DegenerateGeometry:   # refused before the slice is taken
                    continue
                assert h2 - (c - c_d) <= 2 * c
                g = reconstruct(v_f, h2, cfg)
                assert (g.h1, g.a, g.c, g.h3) == (h1, a, c, h1 - h2)
                arc = perimeter(g.a_d, g.c_d, g.h3, integration_angle(ring.r, g.h3, g.c_d))
                assert g.k < arc and g.v_fm > 0
                assert g.v_fm == pytest.approx(ring.membrane_volume - g.k ** 2 * math.pi
                                               * ring.t_i * ring.r ** 2 / arc ** 2, rel=1e-12)


class TestCachedConstants:
    NAMES = {"ring": ("membrane_volume",), "coeffs": ("horner",)}

    def test_follow_their_owner(self, cfg):
        # each constant is read from the object it depends on, so a replaced
        # ring, coefficient set or fit computes and rebuilds as a fresh one does
        before = {part: [getattr(getattr(cfg, part), n) for n in names]
                  for part, names in self.NAMES.items()}
        v_f, h2_prev = 0.5e-6, 1e-3
        g_before = cold_reconstruct(v_f, h2_prev, cfg)
        ring, coeffs, fit = cfg.ring, cfg.coeffs, cfg.fit
        changed = {"ring": replace(ring, r=1.02 * ring.r, t_i=1.1 * ring.t_i),
                   "coeffs": replace(coeffs, c1=1.1 * coeffs.c1, c2=-coeffs.c2, c6=2.0),
                   "fit": replace(fit, coeffs=tuple(1.01 * c for c in fit.coeffs),
                                  v_min=0.9 * fit.v_min, v_max=1.1 * fit.v_max)}
        fresh = {"ring": RingSpec(1.02 * ring.r, 1.1 * ring.t_i),
                 "coeffs": YeohCoeffs(1.1 * coeffs.c1, -coeffs.c2, coeffs.c3, coeffs.c4,
                                      coeffs.c5, 2.0),
                 "fit": HeightFit(tuple(1.01 * c for c in fit.coeffs), 0.9 * fit.v_min,
                                  1.1 * fit.v_max)}
        for part, names in self.NAMES.items():
            got = [getattr(changed[part], n) for n in names]
            assert got == [getattr(fresh[part], n) for n in names]
            assert got != before[part]
        assert yeoh_energy_density(1.3, changed["coeffs"]) == oracles.yeoh_reference(
            1.3, fresh["coeffs"])
        for part in changed:
            g_changed = cold_reconstruct(v_f, h2_prev, replace(cfg, **{part: changed[part]}))
            g_fresh = cold_reconstruct(v_f, h2_prev, replace(cfg, **{part: fresh[part]}))
            assert g_changed == g_fresh != g_before
        # the original objects keep their own values
        assert before == {part: [getattr(getattr(cfg, part), n) for n in names]
                          for part, names in self.NAMES.items()}


class TestRmse:
    def test_identical(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_unit_offset(self):
        assert rmse([1.0, 1.0], [0.0, 0.0]) == 1.0

    def test_direct(self):
        assert rmse([1.0, 2.0, 4.0], [1.0, 2.0, 3.0]) == pytest.approx(
            math.sqrt(1 / 3), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(LengthMismatch):
            rmse([], [])
