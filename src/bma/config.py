"""YAML configuration: actuator geometry, material, height fit, modeled volume floor.

The file speaks the bench units (mm, ml, Pa); loading converts to SI.
"""

from __future__ import annotations

from contextlib import contextmanager

import yaml

from .calibration import HeightFit
from .errors import BmaError
from .estimator import DEFAULT_V_MIN_MODEL, EstimatorConfig
from .geometry import RingSpec
from .harness import ML_TO_M3, MM_TO_M, SimScript, SimStep
from .material import YeohCoeffs


class ConfigError(BmaError):
    """Missing or malformed configuration."""


ESTIMATOR_KEYS = frozenset({"v_min_model_ml"})


def load_raw(path) -> dict:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} is not a mapping")
    return data


def save_raw(path, data: dict) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)


@contextmanager
def _section(name: str):
    """Turn a malformed value met while building one section into a ConfigError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{name}: {detail}") from exc


def _height_fit_from_dict(d: dict) -> HeightFit:
    fit = HeightFit(
        coeffs=tuple(float(c) for c in d["coeffs_m"]),
        v_min=float(d["v_min_ml"]) * ML_TO_M3,
        v_max=float(d["v_max_ml"]) * ML_TO_M3,
        v_scale=float(d["v_scale_ml"]) * ML_TO_M3,
    )
    if d["degree"] != fit.degree:
        raise ValueError(f"degree {d['degree']} does not match {len(fit.coeffs)} coefficients")
    return fit


def height_fit_to_dict(fit: HeightFit) -> dict:
    return {
        "degree": fit.degree,
        "coeffs_m": [float(c) for c in fit.coeffs],
        "v_min_ml": fit.v_min / ML_TO_M3,
        "v_max_ml": fit.v_max / ML_TO_M3,
        "v_scale_ml": fit.v_scale / ML_TO_M3,
    }


def load_config(path, require_fit: bool = True) -> EstimatorConfig:
    data = load_raw(path)
    with _section("ring"):
        ring = RingSpec(r=float(data["ring"]["radius_mm"]) * MM_TO_M,
                        t_i=float(data["ring"]["thickness_mm"]) * MM_TO_M)
    with _section("material"):
        yeoh = data["material"]["yeoh_pa"]
        if len(yeoh) != 6:
            raise ValueError("yeoh_pa must list exactly 6 coefficients")
        coeffs = YeohCoeffs(*(float(c) for c in yeoh))

    fit = None
    if "height_fit" in data:
        with _section("height_fit"):
            fit = _height_fit_from_dict(data["height_fit"])
    elif require_fit:
        raise ConfigError("config has no height_fit; run `calibrate` first")

    with _section("estimator"):
        est = data.get("estimator") or {}
        unknown = sorted(set(est) - ESTIMATOR_KEYS)
        if unknown:
            raise ValueError(f"unknown key(s) {unknown}; "
                             f"expected a subset of {sorted(ESTIMATOR_KEYS)}")
        return EstimatorConfig(
            ring=ring,
            coeffs=coeffs,
            fit=fit,
            v_min_model=float(est.get("v_min_model_ml",
                                      DEFAULT_V_MIN_MODEL / ML_TO_M3)) * ML_TO_M3,
        )


def load_script(path) -> SimScript:
    data = load_raw(path)
    with _section("script"):
        steps = tuple(
            SimStep(
                v_f=float(s["volume_ml"]) * ML_TO_M3,
                force=float(s["force_n"]),
                hold=float(s["hold_s"]),
            )
            for s in data["steps"]
        )
        return SimScript(
            steps=steps,
            sample_period=float(data["sample_period_s"]),
            noise_pa=float(data.get("pressure_noise_pa", 0.0)),
        )
