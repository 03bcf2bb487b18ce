"""YAML configuration: actuator geometry, material and height fit; simulation scripts.

The file speaks the bench units (mm, ml, Pa); loading converts to SI.  A key
repeated in one mapping, or one that its section does not read, is refused.
"""

from __future__ import annotations

from contextlib import contextmanager

import yaml

from .calibration import HeightFit
from .errors import BmaError, quote
from .estimator import EstimatorConfig
from .geometry import RingSpec
from .harness import ML_TO_M3, MM_TO_M, SimScript, SimStep, replacing
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
    """SafeLoader that refuses a repeated key, and names the line of a value its tag cannot read."""

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
            tag = node.tag.replace("tag:yaml.org,2002:", "!!")
            raise yaml.constructor.ConstructorError(
                None, None, f"cannot read {quote(node.value)} as {tag}", node.start_mark) from exc

    def construct_mapping(self, node, deep=False):
        seen = set()
        # a node that is no mapping, as `!!set [1]`, is SafeLoader's to refuse
        for key_node, _ in node.value if isinstance(node, yaml.MappingNode) else ():
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
    # bytes, which PyYAML decodes: invalid UTF-8 is a reader error, in any locale
    with open(path, "rb") as fh:
        try:
            data = yaml.load(fh, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            if mark is None:   # a reader error: an undecodable byte or a control character
                raise ConfigError(f"{path}, position {exc.position}: {exc.reason} "
                                  f"(#x{exc.character:02x})") from exc
            context = (f" ({exc.context} from line {exc.context_mark.line + 1})"
                       if exc.context and exc.context_mark else "")
            raise ConfigError(f"{path}, line {mark.line + 1}: {exc.problem}{context}") from exc
        except RecursionError as exc:   # a structure nested past the parser's stack
            raise ConfigError(f"{path}: nested too deeply to read") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} is not a mapping")
    return data


def save_raw(path, data: dict) -> None:
    """Write data as YAML over path by `harness.replacing`: a failed write keeps the old file."""
    with replacing(path) as fh:
        yaml.safe_dump(data, fh, sort_keys=False)


@contextmanager
def _section(name: str):
    """Turn a malformed value met while building one section into a ConfigError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{name}: {detail}") from exc


def _check_keys(d: dict, allowed: frozenset, what: str) -> None:
    unknown = sorted(map(str, set(d) - allowed))
    if unknown:
        raise ValueError(f"unknown {what} {unknown}; expected a subset of {sorted(allowed)}")


def _mapping(d, allowed: frozenset, name: str = "") -> dict:
    """d, refused unless a mapping of keys from `allowed`.

    name is what the messages call d inside its section, as "step 0" of a
    script; a section itself is named by `_section`.
    """
    if not isinstance(d, dict):
        raise TypeError(f"{name} is not a mapping: got {type(d).__name__}" if name
                        else f"expected a mapping, got {type(d).__name__}")
    _check_keys(d, allowed, f"key(s) in {name}" if name else "key(s)")
    return d


def _list(value, key: str) -> list:
    """value, refused unless a YAML sequence: a string or a mapping would be read item by item."""
    if not isinstance(value, list):
        raise TypeError(f"{key} must be a list, got {type(value).__name__}")
    return value


def _number(value, key: str) -> float:
    """value as a float, refused unless an int, a float or a numeric string.

    A YAML bool is a Python int, which float() reads as 1.0 or 0.0.  The
    refusal names the key, and `quote` cuts a long string to one short line.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"{key} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except ValueError:   # a string that is not a number; quote cuts a long one
        raise ValueError(f"{key} must be a number, got {quote(value)}") from None
    except OverflowError:   # an int past the float range
        raise ValueError(f"{key} must be a number, got an int too large for a float") from None


def _numbers(value, key: str) -> list[float]:
    """A YAML sequence of numbers as floats, each refused as `_number` refuses it."""
    return [_number(v, f"{key}[{i}]") for i, v in enumerate(_list(value, key))]


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
        d = _mapping(data["ring"], RING_KEYS)
        ring = RingSpec(r=_number(d["radius_mm"], "radius_mm") * MM_TO_M,
                        t_i=_number(d["thickness_mm"], "thickness_mm") * MM_TO_M)
    with _section("material"):
        yeoh = _numbers(_mapping(data["material"], MATERIAL_KEYS)["yeoh_pa"], "yeoh_pa")
        if len(yeoh) != 6:
            raise ValueError("yeoh_pa must list exactly 6 coefficients")
        coeffs = YeohCoeffs(*yeoh)

    fit = None
    if "height_fit" in data:
        with _section("height_fit"):
            d = _mapping(data["height_fit"], FIT_KEYS)
            fit = HeightFit(coeffs=tuple(_numbers(d["coeffs_m"], "coeffs_m")),
                            v_min=_number(d["v_min_ml"], "v_min_ml") * ML_TO_M3,
                            v_max=_number(d["v_max_ml"], "v_max_ml") * ML_TO_M3)
    elif require_fit:
        raise ConfigError("config has no height_fit; run `calibrate` first")
    return EstimatorConfig(ring=ring, coeffs=coeffs, fit=fit)


def load_script(path) -> SimScript:
    data = load_raw(path)
    with _section("script"):
        _check_keys(data, SCRIPT_KEYS, "key(s)")
        steps = []
        for i, s in enumerate(_list(data["steps"], "steps")):
            s = _mapping(s, STEP_KEYS, f"step {i}")
            steps.append(SimStep(v_f=_number(s["volume_ml"], f"step {i} volume_ml") * ML_TO_M3,
                                 force=_number(s["force_n"], f"step {i} force_n"),
                                 hold=_number(s["hold_s"], f"step {i} hold_s")))
        return SimScript(
            steps=tuple(steps),
            sample_period=_number(data["sample_period_s"], "sample_period_s"),
            noise_pa=_number(data.get("pressure_noise_pa", 0.0), "pressure_noise_pa"),
        )
