"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured figure when it holds.
"""

import math
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from bma import (
    EstimatorState,
    SimScript,
    SimStep,
    TraceRecord,
    YeohCoeffs,
    evaluate,
    perimeter,
    predict_pressure,
    rmse,
    run_trace,
    simulate_trace,
    solve_axes,
    step,
    yeoh_energy_density,
)
from bma.geometry import RingSpec
from oracles import (cap_volume, ellipsoid_volume_above_ring, inflated_thickness,
                     invariant_i1, stretch)


def report(name, detail):
    print(f"ACCEPTANCE PASS: {name} ({detail})")


def test_geometry_round_trip():
    rng = np.random.default_rng(123)
    start = time.perf_counter()
    worst_axis = worst_boundary = 0.0
    n = 0
    while n < 1000:
        r = rng.uniform(2e-3, 10e-3)
        ring = RingSpec(r=r, t_i=0.5e-3)
        c = rng.uniform(0.5 * r, 4 * r)
        h = rng.uniform(0.3, 1.7) * c
        a = r * c / math.sqrt(h * (2 * c - h))  # ring boundary condition
        v = ellipsoid_volume_above_ring(a, c, h)
        if v <= 0:
            continue
        a_got, c_got = solve_axes(v, h, ring)
        worst_axis = max(worst_axis, abs(a_got - a) / a, abs(c_got - c) / c)
        h_b = 2 * c_got - h
        area = a_got ** 2 * (1 - (1 - h_b / c_got) ** 2) * math.pi
        ring_area = math.pi * ring.r ** 2
        worst_boundary = max(worst_boundary, abs(area - ring_area) / ring_area)
        n += 1
    elapsed = time.perf_counter() - start
    assert worst_axis <= 1e-8
    assert worst_boundary <= 1e-8
    assert elapsed < 1.0
    report("geometry round trip",
           f"1000 pairs, worst axis err {worst_axis:.2e}, "
           f"worst boundary residual {worst_boundary:.2e}, {elapsed:.2f}s")


def test_hemisphere_exactness():
    ring = RingSpec(r=5e-3, t_i=0.5e-3)
    a, c = solve_axes(2 * math.pi * ring.r ** 3 / 3, ring.r, ring)
    err = max(abs(a - ring.r), abs(c - ring.r)) / ring.r
    assert err <= 1e-9
    report("hemisphere exactness", f"relative error {err:.2e}")


def test_cap_volume_oracle_grid():
    worst = 0.0
    for a in np.linspace(0.5, 5.0, 10):
        for c in np.linspace(0.3, 4.0, 10):
            for h_b in np.linspace(0.05, 1.95, 10) * c:
                got = cap_volume(a, c, h_b)
                want, _ = quad(
                    lambda z: math.pi * a * a * (1 - z * z / (c * c)),
                    -c, -c + h_b, epsabs=0, epsrel=1e-12)
                worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-8
    report("cap-volume oracle", f"10x10x10 grid, worst relative error {worst:.2e}")


def test_perimeter_oracle():
    mpmath.mp.dps = 30

    def oracle(a_d, c_d, upper):
        f = lambda t: mpmath.sqrt(
            a_d ** 2 * mpmath.sin(t) ** 2 + c_d ** 2 * mpmath.cos(t) ** 2)
        return float(mpmath.quad(f, [0, upper]))

    worst = 0.0
    cases = []
    for a_d in (0.5, 1.0, 2.0, 3.5):
        for c_d in (0.3, 1.0, 2.2):
            for theta1 in (0.15, 0.8, math.pi / 2):
                cases.append((a_d, c_d, 0.5 * c_d, theta1))   # lower branch
                cases.append((a_d, c_d, 1.5 * c_d, theta1))   # upper branch
    cases.append((1.0, 1.0, 0.5, math.pi / 2))   # circular reduction
    cases.append((1.0, 1.0, 2.0, math.pi / 4))
    for a_d, c_d, h3, theta1 in cases:
        upper = math.pi - theta1 if h3 > c_d else theta1
        got = perimeter(a_d, c_d, h3, theta1)
        want = oracle(a_d, c_d, upper)
        worst = max(worst, abs(got - want) / want)
    # circular reduction is exact arc length R * angle
    circ = perimeter(2.0, 2.0, 1.0, 0.7)
    assert circ == pytest.approx(2.0 * 0.7, rel=1e-10)
    assert worst <= 1e-8
    report("perimeter oracle",
           f"{len(cases)} cases over both branches, worst relative error {worst:.2e}")


def test_material_identities():
    rng = np.random.default_rng(77)
    ring = RingSpec(r=5e-3, t_i=0.5e-3)
    for _ in range(50):
        coeffs = YeohCoeffs(*rng.uniform(-1e5, 1e5, 6))
        assert yeoh_energy_density(1.0, coeffs) == 0.0
    worst_i1 = 0.0
    for lam in np.linspace(0.5, 4.0, 200):
        i1 = invariant_i1(lam)
        assert i1 >= 3.0
        if lam != 1.0:
            assert i1 > 3.0
    worst_tm = 0.0
    for arc in np.linspace(1e-3, 0.5, 100):
        lam = stretch(arc, ring)
        t_m = inflated_thickness(ring, arc)
        worst_tm = max(worst_tm, abs(t_m * lam ** 2 - ring.t_i) / ring.t_i)
    assert worst_tm <= 1e-12
    report("material identities",
           f"W(1)=0 for 50 random coefficient sets, I1>=3, "
           f"thickness identity residual {worst_tm:.2e}")


def test_no_contact_fixed_point(cfg):
    # each volume is stepped once from the no-contact state (h2_prev = 0).
    # That equilibrium of the indentation update h2 <- Phi(h2) is unstable
    # below about 0.95 ml: dPhi/dh2 at h2 ~ 0 is 12.9 at 0.10 ml and 1.33
    # at 0.50 ml.  Carrying float-noise-level h2 across the sweep would grow
    # it into a spurious indentation, so this checks the fixed point itself,
    # not its stability
    worst_f = worst_h2 = 0.0
    vols = np.linspace(cfg.v_min_model, cfg.fit.v_max, 200)
    for v_f in vols:
        p = predict_pressure(v_f, cfg)
        est, _ = step(EstimatorState(), v_f, p, cfg)
        worst_f = max(worst_f, abs(est.force))
        worst_h2 = max(worst_h2, est.h2)
    assert worst_f <= 1e-9
    assert worst_h2 <= 1e-9
    report("no-contact fixed point",
           f"{len(vols)} volumes, |F| <= {worst_f:.2e} N, h2 <= {worst_h2:.2e} m")


def test_closed_loop_recovery(cfg):
    # scripted forces up to the slice validity bound F < pi a^2 p
    script = SimScript(
        steps=(
            SimStep(0.30e-6, 0.00, 20.0),
            SimStep(0.50e-6, 0.20, 20.0),
            SimStep(0.50e-6, 0.55, 20.0),
            SimStep(0.80e-6, 0.35, 20.0),
            SimStep(0.80e-6, 0.00, 20.0),
        ),
        sample_period=0.01,
    )
    records = simulate_trace(script, cfg, seed=0)
    assert len(records) == 10000

    start = time.perf_counter()
    estimates = run_trace(records, cfg)
    elapsed = time.perf_counter() - start
    per_step = elapsed / len(records)

    rmse_f = rmse([e.force for e in estimates], [r.f_true for r in records])
    rmse_h2_mm = rmse([e.h2 * 1e3 for e in estimates],
                      [r.h2_true * 1e3 for r in records])
    assert rmse_f <= 1e-6
    assert rmse_h2_mm <= 1e-6
    assert elapsed < 5.0
    assert per_step < 1e-3
    report("closed-loop recovery",
           f"10000 samples, RMSE_F {rmse_f:.2e} N, RMSE_h2 {rmse_h2_mm:.2e} mm, "
           f"{elapsed:.2f}s total, {per_step * 1e6:.0f}us/step")


def test_clamp_invariant_adversarial(cfg):
    rng = np.random.default_rng(31337)
    records = []
    t = 0.0
    for i in range(2000):
        v = float(rng.uniform(0.02e-6, 1.05e-6))
        kind = i % 4
        if kind == 0:
            p = float(rng.uniform(8e3, 14e3))
        elif kind == 1:
            p = float(rng.uniform(1e7, 1e9))      # spike
        elif kind == 2:
            p = float(rng.uniform(-5e4, 0.0))     # sign flip
        else:
            p = 0.0
        records.append(TraceRecord(t=t, v_f=v, p=p))
        t += 0.01
    estimates = run_trace(records, cfg)
    assert len(estimates) == len(records)   # never aborts
    n_valid = 0
    for est in estimates:
        if not est.is_null:
            assert 0.0 <= est.h2 <= est.h1
            n_valid += 1
    assert n_valid > 0
    report("clamp invariant",
           f"2000 adversarial samples, {n_valid} modeled, all 0 <= h2 <= h1")


def test_calibration_recovery():
    from bma import evaluate_height, fit_height_poly

    gen = (2e-3, 5e-3, -1e-3, 3e-3, -2e-3, 1e-3, 0.5e-3, -0.2e-3)

    def h_of(v):
        x = v / 1e-6
        return sum(c * x ** i for i, c in enumerate(gen))

    vols = np.linspace(0.05e-6, 1e-6, 30)
    exact = [(v, h_of(v), "inflate") for v in vols]
    fit = fit_height_poly(exact, degree=7)
    worst = max(abs(evaluate_height(fit, v) - h_of(v)) / h_of(v)
                for v in np.linspace(0.06e-6, 0.99e-6, 101))
    assert worst <= 1e-9

    delta = 0.4e-3
    split = ([(v, h_of(v) + delta, "inflate") for v in vols]
             + [(v, h_of(v) - delta, "deflate") for v in vols])
    fit_split = fit_height_poly(split, degree=7)
    worst_sym = max(abs(evaluate_height(fit_split, v) - evaluate_height(fit, v))
                    for v in np.linspace(0.06e-6, 0.99e-6, 101))
    assert worst_sym <= 1e-9 * max(abs(h) for h in gen)
    report("calibration recovery",
           f"degree-7 recovery err {worst:.2e}, hysteresis-mean deviation {worst_sym:.2e} m")


def test_bench_metric_reporting(cfg):
    # Bench-scale accuracy figures require a physical rig, camera-based
    # height ground truth, and identified material coefficients, none of
    # which exist here.  This criterion instead checks that the evaluation
    # report emits the three standard metrics (RMSE_F, RMSE_h2, RMSE_p) plus
    # the contact-window split, so holders of bench data can compare
    # directly.
    script = SimScript(steps=(SimStep(0.4e-6, 0.0, 0.3),
                              SimStep(0.5e-6, 0.2, 0.3)), sample_period=0.01)
    records = simulate_trace(script, cfg, seed=0)
    rep = evaluate(records, cfg, contact_window=(0.3, 0.6))
    assert math.isfinite(rep.rmse_f)
    assert math.isfinite(rep.rmse_h2)
    assert rep.rmse_p is not None and math.isfinite(rep.rmse_p)
    assert rep.window_rmse_f is not None
    report("bench-metric reporting",
           "eval emits RMSE_F / RMSE_h2 / RMSE_p plus contact-window split; "
           "bench-scale figures require physical data, not reproduced here")
