"""Quasi-static state estimator: (injected volume, pressure) -> (h1, h2, h3, F).

Each sensor sample is treated as an equilibrium state.  The only carried
state is the previous total indentation h2.  `reconstruct` builds the
shape in two stages from the calibrated height fit and the ellipsoid
closed forms: a volume stage (apex height h1, V_bma = V_f + V_m and the
unindented spheroid), which depends on the injected volume V_f alone, and
an indentation stage, which depends on V_f and the carried h2.  Each
config's one model object keeps its last shape, which serves a settled
hold, and its last 4 096 volume stages, so a volume that a syringe stroke
returns to builds none; a shape carries no flags.  The energy balance then
yields the force and the next h2 (`indent`, the core of `step`).  The
terms of that balance that depend on the shape alone (V_fm W, the F = 0
pressure p_hat and the slice constants pi a, pi^2 a^2 and pi a c) are
fields of the shape's record, each the very product `indent` would form,
so a sample at a kept shape recomputes none of them and no output moves
by a bit.  `step`
raises no `BmaError`: a sample it cannot estimate, a model error's
included, is a flagged null estimate.

The chain runs as straight-line float arithmetic around four layers kept
as functions and called through this module's names: `evaluate_height`,
`solve_axes`, `perimeter` and `yeoh_energy_density`.  The closed forms
between them (center shift, contact radius, integration angle, stretch,
thickness, free membrane volume, force and slice indentation) are lines of
`reconstruct` and `indent`; `tests/oracles.py` keeps them as reference
functions, and a property test holds the two equal value for value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import ClassVar, NamedTuple

import numpy as np

from .calibration import HeightFit, evaluate_height
from .errors import BmaError, DegenerateGeometry, LengthMismatch
from .geometry import RingSpec, solve_axes
from .material import YeohCoeffs, perimeter, yeoh_energy_density

_PI = math.pi
_HALF_PI = math.pi / 2
_PI_SQUARED = math.pi ** 2
_sqrt = math.sqrt
_atan = math.atan
_isfinite = math.isfinite
_INF = math.inf
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class EstimatorConfig:
    ring: RingSpec
    coeffs: YeohCoeffs
    fit: HeightFit
    # minimum modeled injected volume, 0.1 ml [m3]; the model is unreliable below it
    v_min_model: ClassVar[float] = 0.1e-6

    @cached_property
    def _model(self) -> _Model:
        return _Model(self.ring, self.coeffs, self.fit, self.v_min_model)

    def __reduce__(self):   # a copy or an unpickled config starts with a cold `_model`
        return type(self), (self.ring, self.coeffs, self.fit)


class _Model:
    """Per-config state of `reconstruct`, with no reference to its config:
    `constants` (ring, r, V_m, t_i r^2, coeffs), `volume_stage`, an LRU of
    V_f -> (h1, V_bma, a, c, pi a, pi^2 a^2, pi a c) that keeps no refusal,
    and `last`, the shape (V_f, stage, h2, record), replaced whole, never
    mutated."""

    __slots__ = ("constants", "volume_stage", "last")

    def __init__(self, ring: RingSpec, coeffs: YeohCoeffs, fit: HeightFit, v_min: float):
        v_m = ring.membrane_volume
        self.constants = ring, ring.r, v_m, ring.t_i * ring.r ** 2, coeffs
        self.last = (None,) * 4

        @lru_cache(maxsize=4096)
        def volume_stage(v_f: float) -> tuple:
            if v_f < v_min:
                raise DegenerateGeometry(f"volume {v_f} below modeled minimum {v_min}")
            h1 = evaluate_height(fit, v_f)
            v_bma = v_f + v_m
            a, c = solve_axes(v_bma, h1, ring)
            try:   # the slice constants of `indent`, each the product it would form
                pi2_a2 = _PI_SQUARED * a ** 2
            except OverflowError as exc:   # a ** 2 past the float range
                raise DegenerateGeometry(
                    f"equatorial semi-axis {a} is outside the float range") from exc
            return h1, v_bma, a, c, _PI * a, pi2_a2, _PI * a * c

        self.volume_stage = volume_stage


# The flags of an unflagged sample.  Flags are added by set union on the
# rare flagged paths only, so every unflagged estimate shares this one
# frozenset and a sample pays for no flag set of its own.
NO_FLAGS: frozenset = frozenset()


class EstimatorState(NamedTuple):
    h2_prev: float = 0.0   # previous total indentation [m]
    step_index: int = 0


# Builds a per-sample NamedTuple from a tuple of all its fields, in order,
# without the generated Python-level ``__new__``, which about doubles the
# cost (about 285 against 145 ns for an `EstimatorState`).
_new_tuple = tuple.__new__


@dataclass(slots=True)
class StateEstimate:
    """Per-sample estimator output; NaN fields mark a null (skipped) sample.

    Holds floats and the flag set only, no per-sample shape objects.  It is
    a slots instance: the fields live in the instance itself, with no
    per-instance ``__dict__``.  An unflagged estimate shares the one empty
    frozenset `NO_FLAGS`, so it is a single object for the garbage
    collector, and a long trace's estimates trigger few collection passes.

    p_hat is the F = 0 energy balance at the carried shape; it is the
    free-inflation `predict_pressure` only where the carried h2 is 0.
    A null estimate's flags say why `step` skipped it: `nonfinite_input`,
    `below_model_range`, or `step_error` and the class name of the model
    error.  The README's "Flags" section tables every flag and what sets it.
    """

    h1: float
    h2: float
    h3: float
    force: float        # external planar force F [N]
    p_hat: float        # F = 0 balance pressure at the carried shape [Pa]
    flags: frozenset = NO_FLAGS

    @property
    def is_null(self) -> bool:
        return math.isnan(self.h2)


class Reconstruction(NamedTuple):
    """Per-sample shape and material chain at one carried indentation.

    Fifteen floats: the unindented spheroid, the contact-deformed one, the
    membrane's energy terms, then five terms that `indent` and the energy
    balance read at this shape (V_fm W, the F = 0 balance pressure and the
    slice constants), each the very product they would form.  It carries
    no flags: `step` flags a restart.
    """

    h1: float           # unindented apex height [m]
    a: float            # unindented equatorial semi-axis [m]
    c: float            # unindented polar semi-axis [m]
    h3: float           # deformed apex height h1 - h2_prev [m]
    a_d: float          # deformed equatorial semi-axis [m]
    c_d: float          # deformed polar semi-axis [m]
    c_c: float          # center shift of the polar axis, c - c_d [m]
    k: float            # contact-patch radius [m]
    w: float            # Yeoh energy term W [Pa]
    v_fm: float         # membrane volume in the free-inflation region [m3]
    vfm_w: float        # V_fm W, the membrane's strain energy [J]
    p_hat: float        # F = 0 balance pressure (V_fm W + 0 h3) / V_f [Pa]
    pi_a: float         # pi a [m]
    pi2_a2: float       # pi^2 a^2 [m2]
    pi_a_c: float       # pi a c [m2]


def reconstruct(v_f: float, h2_prev: float, cfg: EstimatorConfig) -> Reconstruction:
    """Height fit -> unindented and deformed spheroids -> stretch -> W and V_fm.

    The volume stage (the `v_min_model` refusal, h1, V_bma = V_f + V_m and
    the unindented spheroid) is the config's last shape's at the last call's
    volume, else its cache's.  The indentation stage from the carried h2_prev
    on is the last shape's where the volume and the carried h2 (after the
    restart rule) are the last call's, as while a hold settles; a built
    record replaces it.  At h2 = 0 the deformed spheroid is the unindented
    one, as h3 = h1.  The kept record itself is returned, on a restart too.
    Numpy scalar inputs are converted, so every field and cache key is a
    float; an int past the float range reads as the infinity of its sign.
    The slice constants are computed once per volume, in the volume stage.

    Past `solve_axes` nothing is refused or clamped: its shapes keep h1 < 2c
    and c_c >= 0, so the slice lies less than 2c deep, and the contact radius
    below the meridian arc, so V_fm > 0 (`TestGeometryGuards` in the tests).
    """
    try:
        v_f, h2_prev = float(v_f), float(h2_prev)
    except OverflowError:   # an int past the float range reads as the infinity of its sign
        v_f, h2_prev = (float(x) if abs(x) <= _FLOAT_MAX else _INF if x > 0 else -_INF
                        for x in (v_f, h2_prev))
    model = cfg._model
    last_v_f, stage, last_h2, g = model.last
    if last_v_f != v_f:
        stage = model.volume_stage(v_f)
        last_h2 = None
    # h1 = stage[0] can shrink between samples: a carried indentation that
    # reaches the ring plane means contact was lost, so restart from the free
    # shape, as from a negative or non-finite carried state, which no step produces
    if not 0.0 <= h2_prev < stage[0]:
        h2_prev = 0.0
    if h2_prev != last_h2:
        h1, v_bma, a, c, pi_a, pi2_a2, pi_a_c = stage
        ring, r, v_m, t_i_r2, coeffs = model.constants
        h3 = h1 - h2_prev
        if h2_prev:
            a_d, c_d = solve_axes(v_bma, h3, ring)
        else:   # h3 = h1: solve_axes would be given the unindented shape's arguments
            a_d, c_d = a, c
        # center shift, >= 0 up to rounding: c = (h/3)(1 + 1/(2 - h pi r^2/V)) grows
        # with h at a fixed V over the valid h pi r^2 <= 2V, and h3 <= h1
        c_c = c - c_d
        # meridian arc bounded by theta1 = arctan(r / |h3 - c_d|), whose limit
        # pi/2 at h3 = c_d is where the hemisphere sits; stretch lambda = L / r
        gap = abs(h3 - c_d)
        arc = perimeter(a_d, c_d, h3, _atan(r / gap) if gap else _HALF_PI)
        w = yeoh_energy_density(arc / r, coeffs)
        # contact radius: the slice at depth h2_prev - c_c < 2c below the unindented
        # apex, through the unindented ellipsoid; no slice contact at depth <= 0.
        # Membrane volume outside the contact patch, V_m - k^2 pi t_m, at the
        # incompressible thickness t_m = t_i r^2 / L^2; positive, as k < L
        depth = h2_prev - c_c
        if depth <= 0:
            k, v_fm = 0.0, v_m
        else:
            k = a * _sqrt(2 * c * depth - depth * depth) / c
            if k > a:
                k = a
            v_fm = v_m - k ** 2 * _PI * (t_i_r2 / arc ** 2)
        # the energy balance (V_fm W + F h3) / V_f at F = 0, in its own arithmetic
        vfm_w = v_fm * w
        g = _new_tuple(Reconstruction, (h1, a, c, h3, a_d, c_d, c_c, k, w, v_fm, vfm_w,
                                        (vfm_w + 0.0 * h3) / v_f, pi_a, pi2_a2, pi_a_c))
        model.last = (v_f, stage, h2_prev, g)
    return g


def balance_pressure(g: Reconstruction, v_f: float, force: float = 0.0) -> float:
    """Energy-balance pressure (V_fm W + F h3) / V_f at a reconstruction [Pa]."""
    return (g.vfm_w + force * g.h3) / v_f


def predict_pressure(v_f: float, cfg: EstimatorConfig) -> float:
    """Pressure predicted for free (no-contact) inflation at volume v_f [Pa]."""
    return reconstruct(v_f, 0.0, cfg).p_hat


def equilibrium(v_f: float, h2: float, cfg: EstimatorConfig) -> tuple[float, float]:
    """(p, F) at which `indent` maps a carried h2 at v_f to itself, from one `reconstruct`.

    F = s pi a^2 p, s = 1 - (1 - h4/c)^2 with h4 = h2 - c_c, V_f p = V_fm W + F h3.
    On all of [0, h1): below contact onset (h4 < 0) F is a pull, F < 0.
    """
    _, a, c, h3, _, _, c_c, _, _, _, vfm_w, _, _, _, _ = reconstruct(v_f, h2, cfg)
    bound = (1 - (1 - (h2 - c_c) / c) ** 2) * _PI * a ** 2   # F / p
    p = vfm_w / (v_f - bound * h3)
    return p, bound * p


def step(state: EstimatorState, v_f: float, p: float,
         cfg: EstimatorConfig) -> tuple[StateEstimate, EstimatorState]:
    """One estimator update for a sensor sample (v_f [m3], p [Pa]); raises no `BmaError`.

    Non-finite samples, samples below the modeled volume range and samples
    whose `reconstruct` or `indent` raises a `BmaError` (flagged `step_error`)
    emit a null estimate and keep the carried h2; the rest run `indent` on
    `reconstruct`, flagged `h2_prev_clamped` where the carried h2 is outside
    [0, h1) and `reconstruct` restarted from the free shape.  Every call
    advances `step_index`.  Numpy scalar inputs are converted, so every
    field of the estimate is a float; an int past the float range reads as
    the infinity of its sign, a non-finite sample or a carried h2 that
    restarts.  p_hat is the record's own, so a sample at a kept shape
    computes no energy balance but its force's.
    """
    try:
        v_f, p = float(v_f), float(p)
    except OverflowError:   # an int past the float range reads as the infinity of its sign
        v_f, p = (float(x) if abs(x) <= _FLOAT_MAX else _INF if x > 0 else -_INF
                  for x in (v_f, p))
    h2_prev, step_index = state
    if not (cfg.v_min_model <= v_f < _INF and _isfinite(p)):
        flags = frozenset({"nonfinite_input" if not (_isfinite(v_f) and _isfinite(p))
                           else "below_model_range"})
    else:
        try:
            g = reconstruct(v_f, h2_prev, cfg)
            h2, force, flags = indent(g, v_f, p)
        except BmaError as exc:
            flags = frozenset({"step_error", type(exc).__name__})
        else:
            if not 0.0 <= h2_prev < g.h1:
                flags = frozenset({"h2_prev_clamped"}) | flags
            return (StateEstimate(g.h1, h2, g.h3, force, g.p_hat, flags),
                    _new_tuple(EstimatorState, (h2, step_index + 1)))
    nan = float("nan")
    return (StateEstimate(nan, nan, nan, nan, nan, flags),
            _new_tuple(EstimatorState, (h2_prev, step_index + 1)))


def indent(g: Reconstruction, v_f: float, p: float) -> tuple[float, float, frozenset]:
    """(h2, force, flags) from a reconstruction: the core of `step`.

    The energy balance gives the force F = (V_f p - V_fm W) / h3; slicing
    the pressurized cross-section gives the depth
    h4 = c (1 - sqrt(1 - F / (pi a^2 p))), computed in the form
    -(c sqrt(pi^2 a^2 p^2 - pi F p) - pi a c p) / (pi a p); and
    h2 = h4 + c_c is clamped to [0, h1].  Builds no estimate or state.
    """
    h1, _, c, h3, _, _, c_c, _, _, _, vfm_w, _, pi_a, pi2_a2, pi_a_c = g
    flags = NO_FLAGS
    force = (v_f * p - vfm_w) / h3
    if p <= 0:
        h4 = 0.0
        flags = flags | {"nonpositive_pressure"}
    else:
        try:   # ** raises OverflowError past p ~ 1e154 Pa; p * p would give inf and a NaN h2
            disc = pi2_a2 * p ** 2 - _PI * force * p
            if disc < 0:   # F beyond the cross-section's bound pi a^2 p
                h4 = c
                flags = flags | {"force_exceeds_bound"}
            else:
                h4 = -(c * _sqrt(disc) - pi_a_c * p) / (pi_a * p)
        except ArithmeticError as exc:   # p^2 overflows, or pi a p underflows to 0
            raise DegenerateGeometry(f"pressure {p} is outside the float range") from exc
    h2 = h4 + c_c
    if not 0.0 <= h2 <= h1:   # also NaN, which min and max leave NaN
        h2 = min(max(h2, 0.0), h1)
        flags = flags | {"h2_clamped"}
    return h2, force, flags


def rmse(estimates, truth) -> float:
    """Root-mean-square error between two equal-length series."""
    a = np.asarray(estimates, dtype=float)
    b = np.asarray(truth, dtype=float)
    if a.shape != b.shape:
        raise LengthMismatch(f"series lengths differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise LengthMismatch("series must contain at least one sample")
    return float(np.sqrt(np.mean((a - b) ** 2)))
