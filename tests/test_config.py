import contextlib
import copy
import dataclasses
import functools
import io
import math
import operator
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from bma import (BmaError, EstimatorConfig, IllConditioned, InsufficientData, OutOfRange,
                 TraceRecord, evaluate_height, fit_height_poly, predict_pressure, run_trace)
from bma.cli import main
from bma.config import (ConfigError, height_fit_to_dict, load_config, load_raw, load_script,
                        save_raw)
from bma.harness import ML_TO_M3

REPO = Path(__file__).resolve().parent.parent
SAMPLE_CONFIG = REPO / "configs" / "sample.yaml"
SAMPLE_CALIBRATION = REPO / "data" / "sample_calibration.csv"
SAMPLE_SCRIPT = REPO / "data" / "sample_script.yaml"


def config_with_estimator(tmp_path, estimator):
    data = load_raw(SAMPLE_CONFIG)
    data["estimator"] = estimator
    path = tmp_path / "config.yaml"
    save_raw(path, data)
    return path


def test_sample_config_loads():
    cfg = load_config(SAMPLE_CONFIG, require_fit=False)
    assert cfg.ring.r == pytest.approx(5e-3, rel=1e-12)
    assert cfg.ring.t_i == pytest.approx(0.5e-3, rel=1e-12)
    assert cfg.coeffs.c1 == 30000.0
    assert cfg.v_min_model == 1e-07
    assert cfg.fit is None


def test_config_without_fit_refuses_the_model():
    # a config parsed without its height fit builds no model: `step` flags each
    # sample as a model error, so run_trace does not abort, and predict_pressure
    # raises one, both OutOfRange naming the calibration to run
    cfg = load_config(SAMPLE_CONFIG, require_fit=False)
    (est,) = run_trace([TraceRecord(0.0, 0.5e-6, 1e4)], cfg)
    assert est.is_null and est.flags == {"step_error", "OutOfRange"}
    with pytest.raises(OutOfRange, match="run `bma calibrate`"):
        predict_pressure(0.5e-6, cfg)


def test_volume_floor_is_a_model_constant():
    cfg = load_config(SAMPLE_CONFIG, require_fit=False)
    assert [f.name for f in dataclasses.fields(EstimatorConfig)] == ["ring", "coeffs", "fit"]
    # bit for bit the floor that the sample's estimator section used to set
    assert EstimatorConfig.v_min_model == 0.1 * ML_TO_M3
    with pytest.raises(TypeError):
        EstimatorConfig(ring=cfg.ring, coeffs=cfg.coeffs, fit=None, v_min_model=0.2e-6)


@pytest.mark.parametrize("key", [
    "pressure_filter_tau",    # misspelt: the unit suffix is missing
    "quad_rel_tol",           # removed with the closed-form arc length
    "inner_iterations",       # removed with the single reconstruction path
    "pressure_filter_tau_s",  # removed with the pressure low-pass
])
def test_unknown_estimator_key_rejected(tmp_path, key):
    # the whole estimator section is refused, whatever it holds
    path = config_with_estimator(tmp_path, {"v_min_model_ml": 0.1, key: 0.5})
    with pytest.raises(ConfigError, match="'estimator'"):
        load_config(path, require_fit=False)


def test_estimate_exits_1_on_unknown_key(tmp_path):
    cfg = tmp_path / "config.yaml"
    shutil.copy(SAMPLE_CONFIG, cfg)
    assert main(["calibrate", str(SAMPLE_CALIBRATION), "--config", str(cfg)]) == 0
    data = load_raw(cfg)
    data["estimator"] = {"pressure_filter_tau": 0.5}
    save_raw(cfg, data)
    trace = tmp_path / "trace.csv"
    trace.write_text("t_s,volume_ml,pressure_pa\n0.0,0.4,9000\n")
    out = tmp_path / "estimates.csv"
    assert main(["estimate", str(trace), "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("bad", [".nan", ".inf", "-.inf"])
@pytest.mark.parametrize("key", ["volume_ml", "force_n", "hold_s",
                                 "sample_period_s", "pressure_noise_pa"])
def test_nonfinite_script_value_rejected(tmp_path, key, bad):
    step = {"volume_ml": 0.4, "force_n": 0.1, "hold_s": 0.1}
    top = {"sample_period_s": 0.01, "pressure_noise_pa": 0.0}
    lines = [f"{k}: {bad if k == key else v}" for k, v in top.items()]
    lines += ["steps:", "  - {" + ", ".join(
        f"{k}: {bad if k == key else v}" for k, v in step.items()) + "}"]
    path = tmp_path / "script.yaml"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="must be finite"):
        load_script(path)


@pytest.mark.parametrize("where, key", [
    ("top", "pressure_noise"),   # misspelt: simulated with no noise at all
    ("top", "seed"),             # the seed is a CLI option
    ("step", "hold"),            # misspelt: the step held its default
    ("step", "indent_mm"),       # the simulator scripts force, not indentation
])
def test_unknown_script_key_rejected(tmp_path, where, key):
    step = {"volume_ml": 0.4, "force_n": 0.1, "hold_s": 0.1}
    top = {"sample_period_s": 0.01, "pressure_noise_pa": 0.0}
    (top if where == "top" else step)[key] = 5.0
    path = tmp_path / "script.yaml"
    save_raw(path, {**top, "steps": [step]})
    with pytest.raises(ConfigError, match=f"^script: unknown .*'{key}'"):
        load_script(path)


@pytest.mark.parametrize("text, message", [
    pytest.param("- {volume_ml: 0.4, force_n: 0.1, hold_s: 0.1}\n",
                 "script.yaml is not a mapping", id="file-a-list"),
    pytest.param("sample_period_s: 0.01\nsteps: [volume_ml]\n",
                 "^script: step 0 is not a mapping", id="step-a-string"),
    pytest.param("sample_period_s: 0.01\nsteps: {volume_ml: 0.4}\n",
                 "^script: steps must be a list, got dict$", id="steps-a-mapping"),
])
def test_script_not_a_mapping_rejected(tmp_path, text, message):
    path = tmp_path / "script.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_script(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("key", ["coeffs_m", "v_min_ml", "v_max_ml"])
def test_nonfinite_height_fit_rejected(tmp_path, key, bad):
    cfg = tmp_path / "config.yaml"
    shutil.copy(SAMPLE_CONFIG, cfg)
    assert main(["calibrate", str(SAMPLE_CALIBRATION), "--config", str(cfg)]) == 0
    data = load_raw(cfg)
    fit = data["height_fit"]
    if key == "coeffs_m":
        fit[key][3] = bad
    else:
        fit[key] = bad
    save_raw(cfg, data)
    with pytest.raises(ConfigError, match="must be finite"):
        load_config(cfg)


@pytest.fixture(scope="module")
def calibrated(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("calibrated") / "config.yaml"
    shutil.copy(SAMPLE_CONFIG, cfg)
    assert main(["calibrate", str(SAMPLE_CALIBRATION), "--config", str(cfg)]) == 0
    return load_raw(cfg)


DELETE = object()
ESTIMATOR_REFUSED = "config: unknown section(s) ['estimator']"


@pytest.mark.parametrize("prefix, path, value", [
    pytest.param("ring", ("ring", "radius_mm"), DELETE, id="ring-missing-key"),
    pytest.param("material", ("material", "yeoh_pa"), DELETE, id="material-missing-key"),
    pytest.param("height_fit", ("height_fit", "v_max_ml"), DELETE, id="fit-missing-key"),
    pytest.param("ring", ("ring",), None, id="ring-null"),
    pytest.param("height_fit", ("height_fit",), None, id="fit-null"),
    pytest.param("ring", ("ring", "thickness_mm"), [0.5], id="ring-wrong-type"),
    pytest.param("material", ("material", "yeoh_pa"), 3.0e4, id="material-wrong-type"),
    pytest.param("material", ("material", "yeoh_pa", 1), math.nan, id="yeoh-nan"),
    pytest.param("ring", ("ring", "radius_mm"), math.inf, id="ring-inf"),
    pytest.param("ring", ("ring", "radius_mm"), 10 ** 400, id="ring-huge-int"),
    pytest.param("ring", ("ring", "radius_mm"), 1.0e+203, id="ring-overflowing-volume"),
    # each section refuses a key it does not read, and names it; the height
    # fit's retired keys at any value too: the volume scale is v_max_ml, the
    # degree the coefficient count
    pytest.param("ring: unknown key(s) ['radius']", ("ring", "radius"), 5.0,
                 id="ring-unknown-key"),
    pytest.param("material: unknown key(s) ['density']", ("material", "density"), 1070.0,
                 id="material-unknown-key"),
    pytest.param("height_fit: unknown key(s) ['coeffs']", ("height_fit", "coeffs"), [1e-3],
                 id="fit-unknown-key"),
    pytest.param("height_fit: unknown key(s) ['v_scale_ml']", ("height_fit", "v_scale_ml"), 0,
                 id="fit-zero-scale"),
    pytest.param("height_fit: unknown key(s) ['degree']", ("height_fit", "degree"), 2,
                 id="fit-degree-mismatch"),
    pytest.param("height_fit", ("height_fit", "v_min_ml"), 2.0, id="fit-min-above-max"),
    # any nonempty list is a fit of its own degree; an empty one is none
    pytest.param("height_fit", ("height_fit", "coeffs_m"), [], id="fit-short-coeffs"),
    # the estimator section is gone: refused at any value, its old default included
    pytest.param(ESTIMATOR_REFUSED, ("estimator",), None, id="estimator-null"),
    pytest.param(ESTIMATOR_REFUSED, ("estimator",), {"v_min_model_ml": None},
                 id="estimator-null-value"),
    pytest.param(ESTIMATOR_REFUSED, ("estimator",), {"v_min_model_ml": 0.1},
                 id="estimator-default"),
    pytest.param(ESTIMATOR_REFUSED, ("estimator",), {"v_min_model_ml": 0.05},
                 id="estimator-lower"),
    pytest.param(ESTIMATOR_REFUSED, ("estimator",), {"v_min_model_ml": math.nan},
                 id="estimator-nan"),
    pytest.param(ESTIMATOR_REFUSED, ("estimator",), {"v_min_model_ml": math.inf},
                 id="estimator-inf"),
    pytest.param("config: unknown section(s) ['estimatr']", ("estimatr",),
                 {"v_min_model_ml": 0.1}, id="misspelt-section"),
])
def test_malformed_config_rejected(tmp_path, capsys, calibrated, prefix, path, value):
    data = copy.deepcopy(calibrated)
    *parents, last = path
    target = functools.reduce(operator.getitem, parents, data)
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    cfg = tmp_path / "config.yaml"
    save_raw(cfg, data)
    with pytest.raises(ConfigError) as exc:
        load_config(cfg)
    assert str(exc.value).startswith(prefix)

    trace = tmp_path / "trace.csv"
    trace.write_text("t_s,volume_ml,pressure_pa\n0.0,0.4,9000\n")
    out = tmp_path / "estimates.csv"
    capsys.readouterr()
    assert main(["estimate", str(trace), "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_duplicate_config_section_refused(tmp_path, capsys):
    cfg = tmp_path / "config.yaml"
    cfg.write_text("ring:\n  radius_mm: 5.0\n  thickness_mm: 0.5\n"
                   "material:\n  yeoh_pa: [30000.0, 1000.0, 50.0, 0.0, 0.0, 0.0]\n"
                   "ring:\n  radius_mm: 6.0\n  thickness_mm: 0.5\n")
    want = (f"{cfg}, line 6: found duplicate key 'ring' "
            f"(while constructing a mapping from line 1)")
    with pytest.raises(ConfigError) as exc:
        load_config(cfg, require_fit=False)
    assert str(exc.value) == want
    trace = tmp_path / "trace.csv"
    trace.write_text("t_s,volume_ml,pressure_pa\n0.0,0.4,9000\n")
    capsys.readouterr()
    out = tmp_path / "estimates.csv"
    assert main(["estimate", str(trace), "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {want}\n"


RING_LINES = ("ring:\n  radius_mm: 5.0       # retainer-ring inner radius\n"
              "  thickness_mm: 0.5    # initial membrane thickness\n")


@pytest.mark.parametrize("ring, radius_mm", [
    ("ring: {<<: {radius_mm: 5.0}, thickness_mm: 0.5}\n", 5.0),
    # an explicit key wins over a merged one, before or after the merge key
    ("ring: {<<: {radius_mm: 5.0}, radius_mm: 6.0, thickness_mm: 0.5}\n", 6.0),
    ("ring: {radius_mm: 6.0, <<: {radius_mm: 5.0}, thickness_mm: 0.5}\n", 6.0),
])
def test_merge_key_is_no_duplicate(tmp_path, ring, radius_mm):
    # the duplicate-key check leaves a merge key to SafeLoader, which merges it
    text = SAMPLE_CONFIG.read_text()
    assert RING_LINES in text
    cfg = tmp_path / "config.yaml"
    cfg.write_text(text.replace(RING_LINES, ring))
    sample = load_config(SAMPLE_CONFIG, require_fit=False)
    want = dataclasses.replace(sample.ring, r=radius_mm * 1e-3)
    assert load_config(cfg, require_fit=False) == dataclasses.replace(sample, ring=want)


def test_unhashable_key_exits_1_naming_its_line(tmp_path, capsys):
    # the duplicate-key check leaves a key that is no scalar to SafeLoader,
    # which refuses it as unhashable
    cfg = tmp_path / "config.yaml"
    text = SAMPLE_CONFIG.read_text()
    cfg.write_text(text + "? [1, 2] : 3\n")
    line, first = text.count("\n") + 1, text.splitlines().index("ring:") + 1
    want = (f"{cfg}, line {line}: found unhashable key "
            f"(while constructing a mapping from line {first})")
    with pytest.raises(ConfigError) as exc:
        load_config(cfg, require_fit=False)
    assert str(exc.value) == want
    trace = tmp_path / "trace.csv"
    trace.write_text("t_s,volume_ml,pressure_pa\n0.0,0.4,9000\n")
    capsys.readouterr()
    out = tmp_path / "estimates.csv"
    assert main(["estimate", str(trace), "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not out.exists()


def test_duplicate_step_key_refused(tmp_path):
    path = tmp_path / "script.yaml"
    path.write_text("sample_period_s: 0.01\nsteps:\n"
                    "  - {volume_ml: 0.4, force_n: 0.0, hold_s: 0.5}\n"
                    "  - {volume_ml: 0.4, force_n: 0.1, hold_s: 0.5, hold_s: 2.0}\n")
    with pytest.raises(ConfigError, match=(r", line 4: found duplicate key 'hold_s' "
                                           r"\(while constructing a mapping from line 4\)$")):
        load_script(path)


SCRIPT = {"sample_period_s": 0.01, "pressure_noise_pa": 0.0,
          "steps": [{"volume_ml": 0.4, "force_n": 0.1, "hold_s": 0.1}]}
# a YAML mapping that a bare loop over it would read as a 6-item list
SIX_KEYS = {30000.0: 0, 1000.0: 0, 50.0: 0, 0.0: 0, 1.0: 0, 2.0: 0}


@pytest.mark.parametrize("path, value, message", [
    # a bool where a number is read, which float() takes for 1.0 or 0.0
    pytest.param(("ring", "radius_mm"), True, "ring: radius_mm must be a number, got bool",
                 id="radius-bool"),
    pytest.param(("ring", "thickness_mm"), True,
                 "ring: thickness_mm must be a number, got bool", id="thickness-bool"),
    pytest.param(("material", "yeoh_pa", 0), True,
                 "material: yeoh_pa[0] must be a number, got bool", id="yeoh-item-bool"),
    pytest.param(("height_fit", "coeffs_m", 3), False,
                 "height_fit: coeffs_m[3] must be a number, got bool", id="coeffs-item-bool"),
    pytest.param(("height_fit", "v_min_ml"), False,
                 "height_fit: v_min_ml must be a number, got bool", id="v-min-bool"),
    pytest.param(("height_fit", "v_max_ml"), True,
                 "height_fit: v_max_ml must be a number, got bool", id="v-max-bool"),
    pytest.param(("script", "sample_period_s"), True,
                 "script: sample_period_s must be a number, got bool", id="period-bool"),
    pytest.param(("script", "pressure_noise_pa"), False,
                 "script: pressure_noise_pa must be a number, got bool", id="noise-bool"),
    pytest.param(("script", "steps", 0, "volume_ml"), True,
                 "script: step 0 volume_ml must be a number, got bool", id="step-volume-bool"),
    pytest.param(("script", "steps", 0, "force_n"), False,
                 "script: step 0 force_n must be a number, got bool", id="step-force-bool"),
    pytest.param(("script", "steps", 0, "hold_s"), True,
                 "script: step 0 hold_s must be a number, got bool", id="step-hold-bool"),
    # a string or a mapping where a list is read, which a loop reads item by item
    pytest.param(("material", "yeoh_pa"), "300001",
                 "material: yeoh_pa must be a list, got str", id="yeoh-string"),
    pytest.param(("material", "yeoh_pa"), SIX_KEYS,
                 "material: yeoh_pa must be a list, got dict", id="yeoh-mapping"),
    pytest.param(("height_fit", "coeffs_m"), "12",
                 "height_fit: coeffs_m must be a list, got str", id="coeffs-string"),
    pytest.param(("height_fit", "coeffs_m"), {1e-3: 0},
                 "height_fit: coeffs_m must be a list, got dict", id="coeffs-mapping"),
    # a string that is not a number, quoted at most 30 characters long, and
    # an int past the float range, which float() refuses without the key
    pytest.param(("ring", "radius_mm"), "abc", "ring: radius_mm must be a number, got 'abc'",
                 id="radius-not-a-number"),
    pytest.param(("ring", "radius_mm"), "x" * 100_000,
                 f"ring: radius_mm must be a number, got '{'x' * 12}...{'x' * 13}'",
                 id="radius-long-string"),
    pytest.param(("height_fit", "v_max_ml"), "\U000e0001" * 50,
                 "height_fit: v_max_ml must be a number, got '\\U000e0001\\U...001\\U000e0001'",
                 id="v-max-escaped-string"),
    pytest.param(("script", "steps", 0, "force_n"), "0.1 N",
                 "script: step 0 force_n must be a number, got '0.1 N'", id="step-force-unit"),
    pytest.param(("material", "yeoh_pa", 0), 10 ** 400,
                 "material: yeoh_pa[0] must be a number, got an int too large for a float",
                 id="yeoh-item-huge-int"),
    pytest.param(("script", "sample_period_s"), -(10 ** 400),
                 "script: sample_period_s must be a number, got an int too large for a float",
                 id="period-huge-int"),
])
def test_value_of_wrong_yaml_type_refused(tmp_path, capsys, calibrated, path, value, message):
    # each of these values would load as some other number, or be refused
    # without its key; the refusal names the section and the key, and the
    # CLI exits 1 on that one short line
    section, *keys = path
    is_script = section == "script"
    data = copy.deepcopy(SCRIPT if is_script else calibrated)
    *parents, last = keys if is_script else path
    functools.reduce(operator.getitem, parents, data)[last] = value
    cfg = tmp_path / "config.yaml"
    save_raw(cfg, calibrated if is_script else data)
    out = tmp_path / "out.csv"
    if is_script:
        script = tmp_path / "script.yaml"
        save_raw(script, data)
        with pytest.raises(ConfigError) as exc:
            load_script(script)
        args = ["simulate", str(script), "--config", str(cfg), "--out", str(out)]
    else:
        with pytest.raises(ConfigError) as exc:
            load_config(cfg)
        trace = tmp_path / "trace.csv"
        trace.write_text("t_s,volume_ml,pressure_pa\n0.0,0.4,9000\n")
        args = ["estimate", str(trace), "--config", str(cfg), "--out", str(out)]
    assert str(exc.value) == message and len(message) < 200
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    pytest.param(None, "estimator", {"v_min_model_ml": 0.1}, id="top-level"),
    pytest.param("ring", "radius", 5.0, id="ring-unknown-key"),
    pytest.param("ring", "radius_mm", -5.0, id="ring-invalid"),
    pytest.param("material", "yeoh_pa", [3e4], id="material-invalid"),
])
def test_calibrate_refuses_a_config_it_cannot_fix(tmp_path, capsys, section, key, value):
    # calibrate writes only the height fit, so a fault elsewhere would stay in
    # the file it writes; it exits 1 and leaves the file as it was
    data = load_raw(SAMPLE_CONFIG)
    (data if section is None else data[section])[key] = value
    cfg = tmp_path / "config.yaml"
    save_raw(cfg, data)
    before = cfg.read_bytes()
    capsys.readouterr()
    assert main(["calibrate", str(SAMPLE_CALIBRATION), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {section or 'config'}: ") and err.count("\n") == 1
    assert cfg.read_bytes() == before


@pytest.mark.parametrize("fit", [
    pytest.param({"degree": 7, "coeffs_m": [1e-3] * 8, "v_min_ml": 0.05, "v_max_ml": 1.0,
                  "v_scale_ml": 1.0}, id="old-format"),
    pytest.param({"coeffs_m": [1e-3, math.nan], "v_min_ml": 2.0}, id="broken"),
    pytest.param(None, id="null"),
])
def test_calibrate_replaces_a_refused_height_fit(tmp_path, calibrated, fit):
    # re-running calibrate is how a config in an older format is migrated
    data = load_raw(SAMPLE_CONFIG)
    data["height_fit"] = fit
    cfg = tmp_path / "config.yaml"
    save_raw(cfg, data)
    with pytest.raises(ConfigError, match="^height_fit: "):
        load_config(cfg)
    assert main(["calibrate", str(SAMPLE_CALIBRATION), "--config", str(cfg)]) == 0
    assert load_raw(cfg) == calibrated
    load_config(cfg)


def evaluation(fit, v):
    """The fitted height at v, or the type of the error that evaluating it raises."""
    try:
        return evaluate_height(fit, v)
    except BmaError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(0, 7), scale_ml=st.floats(1e-3, 1e3),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=30, unique=True),
       heights=st.lists(st.floats(1e-4, 5e-2), min_size=30, max_size=30))
def test_height_fit_round_trips_through_the_file(tmp_path_factory, degree, scale_ml,
                                                 fractions, heights):
    # calibration volumes as `read_calibration` makes them: ml times ML_TO_M3.
    # Only such volumes are sure to survive the ml the file holds: about 4 %
    # of doubles are not v_ml * 1e-6 for any float v_ml
    # distinct fractions can scale to one volume (0.0 and 5e-324 both give 0.0),
    # leaving fewer than degree + 1 volumes, which the fit rightly refuses
    samples = [(f * scale_ml * ML_TO_M3, h, "inflate") for f, h in zip(fractions, heights)]
    try:
        fit = fit_height_poly(samples, degree=degree)
    except (IllConditioned, InsufficientData):
        reject()
    data = load_raw(SAMPLE_CONFIG)
    data["height_fit"] = height_fit_to_dict(fit)
    cfg = tmp_path_factory.mktemp("fit") / "config.yaml"
    save_raw(cfg, data)
    loaded = load_config(cfg).fit
    assert loaded == fit
    for v in np.linspace(fit.v_min, fit.v_max, 41).tolist():
        assert evaluation(loaded, v) == evaluation(fit, v)


@pytest.mark.parametrize("target", ["config", "script"])
@pytest.mark.parametrize("value, problem", [
    # values whose tag's constructor fails with an error of its own: these
    # used to escape load_raw as a traceback
    pytest.param("!!bool maybe", "cannot read 'maybe' as !!bool", id="bool-maybe"),
    pytest.param("!!timestamp abc", "cannot read 'abc' as !!timestamp", id="timestamp-abc"),
    pytest.param("!!set [1]", "expected a mapping node, but found sequence", id="set-sequence"),
    # and these as one line that named no file, line or key
    pytest.param("!!int abc", "cannot read 'abc' as !!int", id="int-abc"),
    pytest.param("!!map x", "expected a mapping node, but found scalar", id="map-scalar"),
    pytest.param("2020-13-45", "cannot read '2020-13-45' as !!timestamp", id="month-13"),
    pytest.param("2001-02-30", "cannot read '2001-02-30' as !!timestamp", id="february-30"),
    pytest.param("9" * 5001, f"cannot read '{'9' * 12}...{'9' * 13}' as !!int",
                 id="int-past-digit-limit"),
])
def test_unreadable_yaml_value_names_file_and_line(tmp_path, capsys, calibrated, target,
                                                   value, problem):
    cfg = tmp_path / "config.yaml"
    save_raw(cfg, calibrated)
    out = tmp_path / "out.csv"
    if target == "config":
        bad = tmp_path / "bad.yaml"
        text = cfg.read_text()
        assert text.startswith("ring:\n  radius_mm: 5.0\n")
        bad.write_text(text.replace("radius_mm: 5.0", f"radius_mm: {value}", 1))
        trace = tmp_path / "trace.csv"
        trace.write_text("t_s,volume_ml,pressure_pa\n0.0,0.4,9000\n")
        args, line = ["estimate", str(trace), "--config", str(bad), "--out", str(out)], 2
    else:
        bad = tmp_path / "script.yaml"
        bad.write_text("sample_period_s: 0.01\nsteps:\n"
                       f"  - {{volume_ml: 0.4, force_n: 0.1, hold_s: {value}}}\n")
        args, line = ["simulate", str(bad), "--config", str(cfg), "--out", str(out)], 3
    message = f"{bad}, line {line}: {problem}"
    with pytest.raises(ConfigError) as exc:
        load_raw(bad)
    assert str(exc.value) == message
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n" and len(err) < 200
    assert not out.exists()


def test_bytes_that_are_not_utf8_name_the_file(tmp_path, capsys, calibrated):
    # decoded by PyYAML, not by the locale's codec, whose error named no file
    cfg = tmp_path / "config.yaml"
    save_raw(cfg, calibrated)
    cfg.write_bytes(cfg.read_bytes().replace(b"radius_mm: 5.0", b"radius_mm: 5.0 # \xff", 1))
    with pytest.raises(ConfigError) as exc:
        load_raw(cfg)
    assert str(exc.value) == f"{cfg}, position 25: invalid start byte (#xff)"
    trace = tmp_path / "trace.csv"
    trace.write_text("t_s,volume_ml,pressure_pa\n0.0,0.4,9000\n")
    capsys.readouterr()
    assert main(["estimate", str(trace), "--config", str(cfg), "--out",
                 str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {exc.value}\n"


# what a mutation writes over a number of the file
MUTANT_VALUES = (
    # wrong types
    "abc", "true", "null", "''", "[1, 2]", "{a: 1}", "- 1", "0.1 N",
    # non-finite, huge and tiny numbers; none gives a hold of many samples
    ".nan", ".inf", "-.inf", "1e999", "1e300", "-1e308", "1e-300", "0", "-1",
    "1" + "0" * 400, "9" * 5001,
    # dates
    "2001-02-30", "2020-13-45", "2020-01-01", "2001-12-14t21:59:43.10-05:00",
    # explicit tags
    "!!int abc", "!!int 12", "!!int 0xZZ", "!!bool maybe", "!!bool yes", "!!timestamp abc",
    "!!set [1]", "!!set {a: null}", "!!map x", "!!map {a: 1}", "!!binary '@@'",
    "!!binary aGVsbG8=", "!!float abc", "!!str 5", "!!omap x", "!!pairs [1]", "!foo x",
    # damaged syntax
    "[1, 2", "{a: 1", "'abc", '"abc', "a: b: c", "\tx", "@x", "%x", "&", "*", "!", "|",
    # anchors and aliases
    "*undefined", "&r [1, *r]", "&m {a: *m}", "<<: 5",
)
STRAY_BYTES = (b"\xff", b"\xc3\x28", b"\xe2\x82", b"\xfe\xff", b"\x00", b"\x1b",
               b"\xef\xbb\xbf", b"\t", b":", b"-", b"[", b"{", b"#", b"&", b"*", b"!", b"'")


@st.composite
def mutated_yaml(draw, text: str) -> bytes:
    """text with one to three mutations, as bytes that need not be UTF-8."""
    for _ in range(draw(st.integers(1, 3))):
        lines = text.splitlines(keepends=True)
        if not lines:   # truncated to nothing
            break
        numbers = [m.span() for m in re.finditer(r"-?\d[\w.+-]*", text)]
        keys = [m.span() for m in re.finditer(r"\w+(?=:)", text)]
        kind = draw(st.sampled_from(["delete", "repeat", "extra", "truncate",
                                     *(["rename"] if keys else []),
                                     *(["value", "alias"] if numbers else [])]))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "delete":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "extra":
            lines.insert(i, lines[i][:len(lines[i]) - len(lines[i].lstrip())] + "extra_key: 1\n")
        elif kind == "truncate":
            lines = [text[:draw(st.integers(0, len(text)))]]
        else:
            span = draw(st.sampled_from(keys if kind == "rename" else numbers))
            if kind == "rename":   # to a key of its own mapping, of another or of none
                edits = {span: draw(st.sampled_from(["extra_key",
                                                     *(text[s:e] for s, e in keys)]))}
            elif kind == "value":
                edits = {span: draw(st.sampled_from(MUTANT_VALUES))}
            else:   # an anchor on one number and an alias to it at another, maybe before it
                edits = {draw(st.sampled_from(numbers)): "*x",
                         span: f"&x {text[span[0]:span[1]]}"}
            for (start, end), new in sorted(edits.items(), reverse=True):
                text = text[:start] + new + text[end:]
            lines = [text]
        text = "".join(lines)
    data = text.encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(STRAY_BYTES)) + data[at:]
    return data


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory, calibrated):
    """A calibrated config and a two-row trace, in one directory."""
    root = tmp_path_factory.mktemp("mutated")
    save_raw(root / "config.yaml", calibrated)
    (root / "trace.csv").write_text("t_s,volume_ml,pressure_pa\n0.0,0.4,9000\n0.1,0.5,9500\n")
    return root


def run_mutant(root: Path, kind: str, data: bytes) -> None:
    """main on a mutated file exits 0, or 1 or 2 on one short error line and no traceback."""
    mutant = root / f"mutant_{kind}.yaml"
    mutant.write_bytes(data)
    out = root / "out.csv"
    if kind == "config":
        args = ["estimate", str(root / "trace.csv"), "--config", str(mutant), "--out", str(out)]
    else:
        args = ["simulate", str(mutant), "--config", str(root / "config.yaml"), "--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        status = main(args)
    err = err.getvalue()
    assert status in (0, 1, 2)
    if status:
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
        assert "Traceback" not in err


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_config_and_script_exit_cleanly(mutation_dir, data):
    # a mutated config drives estimate, a mutated script simulate
    for kind, source in (("config", mutation_dir / "config.yaml"), ("script", SAMPLE_SCRIPT)):
        run_mutant(mutation_dir, kind, data.draw(mutated_yaml(source.read_text()), label=kind))
