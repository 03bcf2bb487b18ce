"""Seeded inputs for the three workloads.

The program under test sees only what these functions return: a script
for the simulator, or a trace.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import math

import numpy as np

from bma import SimScript, SimStep, TraceRecord, predict_pressure

from common import ML_TO_M3

SAMPLE_PERIOD_S = 0.01


def closed_loop_script() -> SimScript:
    """The acceptance closed-loop script: 5 holds, 10 000 noise-free samples.

    Identical to ``tests/test_acceptance.py::test_closed_loop_recovery``, so
    the benchmark's accuracy gate is the acceptance gate.  It does not depend
    on the seed.
    """
    return SimScript(
        steps=(
            SimStep(0.30e-6, 0.00, 20.0),
            SimStep(0.50e-6, 0.20, 20.0),
            SimStep(0.50e-6, 0.55, 20.0),
            SimStep(0.80e-6, 0.35, 20.0),
            SimStep(0.80e-6, 0.00, 20.0),
        ),
        sample_period=SAMPLE_PERIOD_S,
    )


# Scripted volumes stay where the contact model is defined: below about
# 0.25 ml any non-zero force makes the deformed geometry degenerate.
SIM_V_RANGE_ML = (0.30, 0.95)
SIM_F_MAX_N = 0.5
SIM_HOLDS = 10            # holds per script, alternately free and in contact
SIM_SAMPLES_PER_HOLD = 25
NOISE_PA = 5.0            # Gaussian pressure noise of sim_many_holds and cli_ramp

RAMP_CYCLES = 5           # inflate/deflate cycles of cli_ramp
RAMP_V_PEAK_ML = 1.0


def _lattice_generator(n: int) -> int:
    """Generator g of the n-point rank-1 lattice {(k/n, k g/n mod 1)} whose
    closest pair of points (on the unit torus) is farthest apart."""
    k = np.arange(1, n)
    best, best_g = -1.0, 1
    for g in range(1, n):
        if math.gcd(g, n) != 1:
            continue
        x, y = k / n, (k * g % n) / n
        d = np.min(np.minimum(x, 1 - x) ** 2 + np.minimum(y, 1 - y) ** 2)
        if d > best:
            best, best_g = d, g
    return best_g


def sim_scripts(seed: int, n_scripts: int = 40) -> list[SimScript]:
    """Many short scripts whose holds alternate between no contact and contact.

    Every second hold has a non-zero force.  The (volume, force) pairs of
    those holds are a randomly shifted rank-1 lattice over the volume range
    times (0, 0.5] N, shuffled over the scripts.  Each pair is a uniform
    draw, but together they cover the plane evenly, so the share of pairs
    with small forces at mid volumes, which decides how many scripts hit the
    simulator's iteration cap and how many iterations the fixed-point checks
    take, varies less between seeds.  With independent draws the number
    of failing scripts ranged from 2 to 7 of 40 over eight seeds; with the
    lattice it is 3 to 5 on 35 of seeds 1-40 and 2 or 6 on the rest.  The
    volumes of the no-contact holds are stratified the same way in one
    dimension.
    """
    rng = np.random.default_rng(seed)
    v0, v1 = SIM_V_RANGE_ML
    n_contact = n_scripts * (SIM_HOLDS // 2)
    g = _lattice_generator(n_contact)
    shift = rng.uniform(size=2)
    k = rng.permutation(n_contact)
    u = (k / n_contact + shift[0]) % 1.0
    w = (k * g / n_contact + shift[1]) % 1.0
    contact = list(zip(v0 + (v1 - v0) * u, SIM_F_MAX_N * (1.0 - w)))
    free = v0 + (v1 - v0) * (rng.permutation(n_contact) + rng.uniform(size=n_contact)) / n_contact
    hold_s = SIM_SAMPLES_PER_HOLD * SAMPLE_PERIOD_S
    scripts = []
    for s in range(n_scripts):
        steps = []
        for h in range(SIM_HOLDS):
            k = s * (SIM_HOLDS // 2) + h // 2
            v_ml, force = contact[k] if h % 2 else (free[k], 0.0)
            steps.append(SimStep(float(v_ml) * ML_TO_M3, float(force), hold_s))
        scripts.append(SimScript(steps=tuple(steps), sample_period=SAMPLE_PERIOD_S,
                                 noise_pa=NOISE_PA))
    return scripts


def cli_ramp(seed: int, cfg, n_rows: int = 10_000) -> list[TraceRecord]:
    """Syringe-like inflate/deflate cycles with free-inflation pressure.

    The volume is a triangle wave from 0 to RAMP_V_PEAK_ML (constant flow
    rate), so about 10 % of samples lie below the model's minimum volume.
    Pressure is the model's own no-contact pressure plus Gaussian noise; no
    sample is in contact.  The volume moves smoothly on purpose: random
    volume jumps send most samples down the degenerate-geometry error exit,
    and throughput on such a trace would measure that defect.
    """
    rng = np.random.default_rng(seed)
    per_cycle = n_rows // RAMP_CYCLES
    k = np.arange(n_rows) % per_cycle
    v_ml = RAMP_V_PEAK_ML * (1.0 - np.abs(2.0 * k / per_cycle - 1.0))
    v_min = cfg.v_min_model
    p_at_min = predict_pressure(v_min, cfg)
    cache: dict[float, float] = {}
    records = []
    for i, v in enumerate(v_ml * ML_TO_M3):
        v = float(v)
        if v < v_min:
            p = p_at_min * v / v_min
        else:
            if v not in cache:
                cache[v] = predict_pressure(v, cfg)
            p = cache[v]
        records.append(TraceRecord(t=i * SAMPLE_PERIOD_S, v_f=v,
                                   p=p + float(rng.normal(0.0, NOISE_PA))))
    return records
