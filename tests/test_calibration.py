import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bma import (
    IllConditioned,
    InsufficientData,
    OutOfRange,
    evaluate_height,
    fit_height_poly,
)
from bma.harness import read_calibration

SAMPLE_ROWS = read_calibration(Path(__file__).resolve().parent.parent
                               / "data" / "sample_calibration.csv")

# an arbitrary degree-7 polynomial over normalized volume, heights in meters
GEN_COEFFS = (2e-3, 5e-3, -1e-3, 3e-3, -2e-3, 1e-3, 0.5e-3, -0.2e-3)


def gen_height(v, v_scale):
    x = v / v_scale
    return sum(c * x ** i for i, c in enumerate(GEN_COEFFS))


def make_samples(v_scale=1e-6, n=25, delta=0.0):
    vols = np.linspace(0.05 * v_scale, v_scale, n)
    inflate = [(v, gen_height(v, v_scale) + delta, "inflate") for v in vols]
    deflate = [(v, gen_height(v, v_scale) - delta, "deflate") for v in vols]
    return inflate + deflate


class TestFit:
    def test_degree7_recovery(self):
        fit = fit_height_poly(make_samples(), degree=7)
        for v in np.linspace(0.06e-6, 0.99e-6, 37):
            assert evaluate_height(fit, v) == pytest.approx(
                gen_height(v, 1e-6), rel=1e-9)

    def test_constant_heights(self):
        vols = np.linspace(0.1e-6, 1e-6, 20)
        samples = [(v, 4e-3, "inflate") for v in vols]
        fit = fit_height_poly(samples, degree=7)
        for v in np.linspace(0.1e-6, 1e-6, 11):
            assert evaluate_height(fit, v) == pytest.approx(4e-3, rel=1e-9)

    def test_hysteresis_symmetry(self):
        # symmetric inflate/deflate offsets cancel in the mean
        fit_sym = fit_height_poly(make_samples(delta=0.3e-3), degree=7)
        fit_ref = fit_height_poly(make_samples(delta=0.0), degree=7)
        for v in np.linspace(0.06e-6, 0.99e-6, 19):
            assert evaluate_height(fit_sym, v) == pytest.approx(
                evaluate_height(fit_ref, v), rel=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_row_order_and_phase_carry_no_weight(self, data):
        # the fit is of the mean height at each volume, so neither the order of
        # the rows nor their phase labels move a bit of it
        rows = data.draw(st.permutations(SAMPLE_ROWS))
        phases = data.draw(st.lists(st.sampled_from(["inflate", "deflate"]),
                                    min_size=len(rows), max_size=len(rows)))
        relabelled = [(v, h, phase) for (v, h, _), phase in zip(rows, phases)]
        assert fit_height_poly(relabelled) == fit_height_poly(SAMPLE_ROWS)

    def test_volume_read_three_times_enters_as_its_mean(self):
        # a third reading enters the mean at its volume too; the sum at one
        # volume follows input order, so the match is to rounding, not bitwise
        v, h_a, _ = SAMPLE_ROWS[20]
        _, h_b, _ = SAMPLE_ROWS[21]
        h_c = h_a + 0.2e-3
        assert SAMPLE_ROWS[21][0] == v
        rest = SAMPLE_ROWS[:20] + SAMPLE_ROWS[22:]
        fit = fit_height_poly(rest + [(v, h_a, "inflate"), (v, h_b, "deflate"),
                                      (v, h_c, "inflate")])
        want = fit_height_poly(rest + [(v, (h_a + h_b + h_c) / 3, "inflate")])
        assert fit.coeffs == pytest.approx(want.coeffs, rel=1e-12, abs=0)
        assert (fit.v_min, fit.v_max) == (want.v_min, want.v_max)

    def test_insufficient_data(self):
        vols = np.linspace(0.1e-6, 1e-6, 5)
        samples = [(v, 4e-3, "inflate") for v in vols]
        with pytest.raises(InsufficientData):
            fit_height_poly(samples, degree=7)

    def test_no_samples(self):
        with pytest.raises(InsufficientData, match="no calibration samples"):
            fit_height_poly([])

    def test_all_volumes_zero(self):
        # one distinct volume is enough for degree 0, but it cannot scale the fit
        with pytest.raises(InsufficientData, match="all calibration volumes are zero"):
            fit_height_poly([(0.0, 4e-3, "inflate")], degree=0)

    def test_ill_conditioned(self):
        # volumes clustered far from zero relative to their spread make the
        # normalized Vandermonde explode
        vols = np.linspace(0.9999e-6, 1e-6, 30)
        samples = [(v, 4e-3, "inflate") for v in vols]
        with pytest.raises(IllConditioned):
            fit_height_poly(samples, degree=7)

    @pytest.mark.parametrize("degree", [-1, -3])
    def test_negative_degree_rejected(self, degree):
        # numpy used to fail on an empty Vandermonde matrix instead
        with pytest.raises(ValueError, match=f"degree must be nonnegative, got {degree}"):
            fit_height_poly(make_samples(), degree=degree)

    def test_degree_past_str_limit_rejected_on_one_short_line(self):
        # printed whole, the degree's digits used to replace the refusal's message
        with pytest.raises(ValueError, match="degree must be nonnegative") as exc:
            fit_height_poly(make_samples(), degree=-10 ** 5000)
        assert "\n" not in str(exc.value) and len(str(exc.value)) <= 200

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            fit_height_poly([(-1e-9, 4e-3, "inflate")] * 10, degree=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf,
                                     pytest.param(10 ** 400, id="int_past_float"),
                                     pytest.param(10 ** 5000, id="int_past_str_limit")])
    @pytest.mark.parametrize("column", [0, 1])   # volume, height
    def test_nonfinite_sample_rejected(self, column, bad):
        samples = make_samples()
        row = list(samples[4])
        row[column] = bad
        samples[4] = tuple(row)
        with pytest.raises(ValueError, match="finite") as exc:
            fit_height_poly(samples, degree=7)
        assert ("volumes", "heights")[column] in str(exc.value)
        assert "\n" not in str(exc.value) and len(str(exc.value)) <= 200

    def test_nesting_property(self):
        # least-squares residual never improves when the degree drops
        rng = np.random.default_rng(11)
        vols = np.linspace(0.05e-6, 1e-6, 30)
        heights = gen_height(vols, 1e-6) + rng.normal(0, 1e-5, vols.size)
        samples = [(v, h, "inflate") for v, h in zip(vols, heights)]

        def residual(degree):
            fit = fit_height_poly(samples, degree=degree)
            pred = np.array([evaluate_height(fit, v) for v in vols])
            return np.sum((pred - heights) ** 2)

        res = [residual(d) for d in range(1, 8)]
        assert all(b <= a + 1e-18 for a, b in zip(res, res[1:]))

    def test_normalization_invariance(self):
        fit_a = fit_height_poly(make_samples(v_scale=1e-6), degree=7)
        fit_b = fit_height_poly(make_samples(v_scale=1e-3), degree=7)
        for x in np.linspace(0.06, 0.99, 15):
            assert evaluate_height(fit_a, x * 1e-6) == pytest.approx(
                evaluate_height(fit_b, x * 1e-3), rel=1e-9)


class TestHeightFit:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     pytest.param(10 ** 400, id="int_past_float"),
                                     pytest.param(10 ** 5000, id="int_past_str_limit")])
    @pytest.mark.parametrize("field", ["coeffs", "v_min", "v_max"])
    def test_nonfinite_rejected(self, field, bad):
        fit = fit_height_poly(make_samples(), degree=7)
        with pytest.raises(ValueError, match="must be finite") as exc:
            replace(fit, **{field: (*fit.coeffs[:-1], bad) if field == "coeffs" else bad})
        assert ("coefficients" if field == "coeffs" else "ranges") in str(exc.value)
        assert "\n" not in str(exc.value) and len(str(exc.value)) <= 200

    @pytest.mark.parametrize("change", [
        {"coeffs": ()}, {"v_min": -1e-9}, {"v_min": 2e-6}, {"v_min": 0.0, "v_max": 0.0},
        {"v_max": -1e-6},
    ])
    def test_invalid_fit_rejected(self, change):
        fit = fit_height_poly(make_samples(), degree=7)
        with pytest.raises(ValueError, match="height fit needs"):
            replace(fit, **change)


class TestEvaluate:
    def test_identity_map(self):
        vols = np.linspace(0.0, 1.0, 20)
        samples = [(v, v, "inflate") for v in vols]
        fit = fit_height_poly(samples, degree=7)
        assert evaluate_height(fit, 0.5) == pytest.approx(0.5, rel=1e-9)

    def test_out_of_range(self):
        fit = fit_height_poly(make_samples(), degree=7)
        with pytest.raises(OutOfRange):
            evaluate_height(fit, 0.01e-6)
        with pytest.raises(OutOfRange):
            evaluate_height(fit, 1.5e-6)

    def test_matches_polyval_bitwise(self, fit):
        # Horner's rule in pure Python does polyval's float operations in
        # polyval's order, so the results are identical, not just close
        for f in (fit, fit_height_poly(make_samples(), degree=7)):
            vols = np.linspace(f.v_min, f.v_max, 10_001)
            assert vols[0] == f.v_min and vols[-1] == f.v_max
            for v in vols.tolist():
                want = float(np.polynomial.polynomial.polyval(v / f.v_max, f.coeffs))
                assert evaluate_height(f, v) == want

    def test_nan_coefficients_out_of_range(self):
        # construction refuses a NaN fit; a finite fit can still evaluate to
        # a height <= 0 or overflow to inf, and neither may pass as a height
        fit = fit_height_poly(make_samples(), degree=7)
        with pytest.raises(ValueError, match="must be finite"):
            replace(fit, coeffs=(math.nan,) * len(fit.coeffs))
        for coeffs in [(-1e-3,) + (0.0,) * 7, (0.0,) * 8, (1e308,) * 8]:
            with pytest.raises(OutOfRange):
                evaluate_height(replace(fit, coeffs=coeffs), fit.v_max)

    def test_range_endpoints_allowed(self):
        fit = fit_height_poly(make_samples(), degree=7)
        evaluate_height(fit, fit.v_min)
        evaluate_height(fit, fit.v_max)
