"""YAML configuration: actuator geometry, material and height fit; simulation scripts.

The file speaks the bench units (mm, ml, Pa); loading converts to SI.  A key
repeated in one mapping, or one that its section does not read, is refused.
"""

from __future__ import annotations

from contextlib import contextmanager

import yaml

from .calibration import HeightFit
from .errors import BmaError
from .estimator import EstimatorConfig
from .geometry import RingSpec
from .harness import ML_TO_M3, MM_TO_M, SimScript, SimStep
from .material import YeohCoeffs


class ConfigError(BmaError):
    """Missing or malformed configuration."""


SECTIONS = frozenset({"ring", "material", "height_fit"})
RING_KEYS = frozenset({"radius_mm", "thickness_mm"})
MATERIAL_KEYS = frozenset({"yeoh_pa"})
FIT_KEYS = frozenset({"coeffs_m", "v_min_ml", "v_max_ml"})
SCRIPT_KEYS = frozenset({"sample_period_s", "pressure_noise_pa", "steps"})
STEP_KEYS = frozenset({"volume_ml", "force_n", "hold_s"})


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that refuses a key repeated in one mapping instead of keeping the last."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if not isinstance(key_node, yaml.ScalarNode) or key_node.tag.endswith(":merge"):
                continue   # a merge key or an unhashable one, left to SafeLoader
            key = self.construct_object(key_node)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep)


def load_raw(path) -> dict:
    with open(path) as fh:
        try:
            data = yaml.load(fh, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            if mark is None:   # a reader error: its text gives the position
                raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from exc
            context = (f" ({exc.context} from line {exc.context_mark.line + 1})"
                       if exc.context and exc.context_mark else "")
            raise ConfigError(f"{path}, line {mark.line + 1}: {exc.problem}{context}") from exc
        except RecursionError as exc:   # a structure nested past the parser's stack
            raise ConfigError(f"{path}: nested too deeply to read") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} is not a mapping")
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


def _check_keys(d: dict, allowed: frozenset, what: str) -> None:
    unknown = sorted(map(str, set(d) - allowed))
    if unknown:
        raise ValueError(f"unknown {what} {unknown}; expected a subset of {sorted(allowed)}")


def _mapping(data: dict, name: str, allowed: frozenset) -> dict:
    """Section `name` of data, refused unless a mapping of keys from `allowed`."""
    d = data[name]
    if not isinstance(d, dict):
        raise TypeError(f"expected a mapping, got {type(d).__name__}")
    _check_keys(d, allowed, "key(s)")
    return d


def height_fit_to_dict(fit: HeightFit) -> dict:
    return {
        "coeffs_m": [float(c) for c in fit.coeffs],
        "v_min_ml": fit.v_min / ML_TO_M3,
        "v_max_ml": fit.v_max / ML_TO_M3,
    }


def load_config(path, require_fit: bool = True) -> EstimatorConfig:
    return parse_config(load_raw(path), require_fit)


def parse_config(data: dict, require_fit: bool = True) -> EstimatorConfig:
    """Check a config mapping, as `load_raw` reads it, and convert it to SI."""
    with _section("config"):
        _check_keys(data, SECTIONS, "section(s)")
    with _section("ring"):
        d = _mapping(data, "ring", RING_KEYS)
        ring = RingSpec(r=float(d["radius_mm"]) * MM_TO_M, t_i=float(d["thickness_mm"]) * MM_TO_M)
    with _section("material"):
        yeoh = _mapping(data, "material", MATERIAL_KEYS)["yeoh_pa"]
        if len(yeoh) != 6:
            raise ValueError("yeoh_pa must list exactly 6 coefficients")
        coeffs = YeohCoeffs(*(float(c) for c in yeoh))

    fit = None
    if "height_fit" in data:
        with _section("height_fit"):
            d = _mapping(data, "height_fit", FIT_KEYS)
            fit = HeightFit(coeffs=tuple(float(c) for c in d["coeffs_m"]),
                            v_min=float(d["v_min_ml"]) * ML_TO_M3,
                            v_max=float(d["v_max_ml"]) * ML_TO_M3)
    elif require_fit:
        raise ConfigError("config has no height_fit; run `calibrate` first")
    return EstimatorConfig(ring=ring, coeffs=coeffs, fit=fit)


def load_script(path) -> SimScript:
    data = load_raw(path)
    with _section("script"):
        _check_keys(data, SCRIPT_KEYS, "key(s)")
        for i, s in enumerate(data["steps"]):
            if not isinstance(s, dict):
                raise TypeError(f"step {i} is not a mapping: got {type(s).__name__}")
            _check_keys(s, STEP_KEYS, f"key(s) in step {i}")
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
