import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from bma import (
    DegenerateGeometry,
    RingSpec,
    evaluate_height,
    profile_polyline,
    solve_axes,
    sphere_baseline,
)
from oracles import (
    cap_volume,
    center_shift,
    contact_radius,
    ellipsoid_volume_above_ring,
    solve_axes_reference,
)


def cap_volume_oracle(a, c, h_b):
    """Numerical slice integration of the cap cross-section area."""
    val, _ = quad(lambda z: math.pi * a * a * (1 - z * z / (c * c)),
                  -c, -c + h_b, epsabs=0, epsrel=1e-12)
    return val


class TestMembraneVolume:
    def test_bench_actuator(self):
        ring = RingSpec(r=5e-3, t_i=0.5e-3)
        assert ring.membrane_volume == pytest.approx(39.2699082e-9, rel=1e-7)

    def test_unit_normalizing(self):
        assert RingSpec(r=1.0, t_i=1 / math.pi).membrane_volume == pytest.approx(1.0, rel=1e-15)

    def test_hand_value(self):
        assert RingSpec(r=2.0, t_i=3.0).membrane_volume == pytest.approx(12 * math.pi, rel=1e-15)

    def test_invalid_ring(self):
        with pytest.raises(ValueError):
            RingSpec(r=-1.0, t_i=0.5e-3)
        with pytest.raises(ValueError):
            RingSpec(r=5e-3, t_i=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["r", "t_i"])
    def test_nonfinite_ring_rejected(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            RingSpec(**{"r": 5e-3, "t_i": 0.5e-3, field: bad})

    def test_overflowing_membrane_volume_rejected(self):
        # r is finite, but r^2 and so pi r^2 t_i are past the float range
        with pytest.raises(ValueError, match="finite membrane volume"):
            RingSpec(1e200, 5e-4)


class TestCapVolume:
    def test_zero_height(self):
        assert cap_volume(1.0, 1.0, 0.0) == 0.0

    def test_full_body(self):
        a, c = 2.0, 1.5
        assert cap_volume(a, c, 2 * c) == pytest.approx(4 / 3 * math.pi * a ** 2 * c, rel=1e-14)

    def test_unit_sphere_half_cap(self):
        # frozen from the slice-integration oracle
        assert cap_volume(1.0, 1.0, 0.5) == pytest.approx(0.6544984694978736, rel=1e-12)
        assert cap_volume_oracle(1.0, 1.0, 0.5) == pytest.approx(0.6544984694978736, rel=1e-10)

    def test_rejects_impossible_cap(self):
        with pytest.raises(DegenerateGeometry):
            cap_volume(1.0, 1.0, 2.1)
        with pytest.raises(DegenerateGeometry):
            cap_volume(1.0, 1.0, -0.1)

    def test_oracle_spot_grid(self):
        for a in (0.5, 1.0, 3.0):
            for c in (0.4, 1.0, 2.5):
                for frac in (0.1, 0.5, 0.9, 1.7):
                    h_b = frac * c
                    got = cap_volume(a, c, h_b)
                    want = cap_volume_oracle(a, c, h_b)
                    assert got == pytest.approx(want, rel=1e-10)


@st.composite
def axes_inputs(draw, case):
    """(v_bma, h, ring) that `solve_axes` takes down one branch, named by case."""
    ring = RingSpec(draw(st.floats(1e-3, 2e-2)), draw(st.floats(1e-4, 2e-3)))
    if case == "valid":   # an ellipse through the ring circle, and its volume
        c = draw(st.floats(1e-3, 3e-2))
        h = draw(st.floats(0.3, 1.9)) * c
        v_bma = ellipsoid_volume_above_ring(ring.r * c / math.sqrt(h * (2 * c - h)), c, h)
    elif case == "singular denominator":   # 3 h pi r^2 = 6 V to within 1e-13
        h = draw(st.floats(1e-4, 5e-2))
        v_bma = h * (math.pi * ring.r ** 2) / 2 * (1 + draw(st.floats(-1e-13, 1e-13)))
    elif case == "negative radicand":   # h pi r^2 > 2 V
        h = draw(st.floats(1e-4, 5e-2))
        v_bma = h * (math.pi * ring.r ** 2) / 2 * draw(st.floats(0.0, 0.999))
    elif case == "outside the float range":   # h ** 2 overflows
        h = draw(st.floats(1e155, 1e300))
        v_bma = draw(st.floats(0.0, 1e-3))
    elif case == "flat-membrane":   # a near-flat apex height
        h = draw(st.floats(1e-12, 1e-6))
        v_bma = draw(st.floats(1e-8, 1e-5))
    else:   # any floats at all, NaN and infinities too
        h, v_bma = draw(st.floats()), draw(st.floats())
    return v_bma, h, ring


def outcome(fn, *args):
    """("returns", repr of the result) or ("raises", exception class, message)."""
    try:
        return "returns", repr(fn(*args))
    except Exception as exc:
        return "raises", type(exc), str(exc)


class TestSolveAxes:
    # each case but "any" must take its branch, so that no branch goes unchecked
    @pytest.mark.parametrize("case", ["valid", "singular denominator", "negative radicand",
                                      "outside the float range", "flat-membrane", "any"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_bit_for_bit_with_the_reference(self, case, data):
        v_bma, h, ring = data.draw(axes_inputs(case))
        want = outcome(solve_axes_reference, v_bma, h, ring)
        assert outcome(solve_axes, v_bma, h, ring) == want
        if case == "valid":
            assert want[0] == "returns"
        elif case != "any":
            assert want[0] == "raises" and case in want[2]

    def test_returns_a_float_pair(self, ring):
        axes = solve_axes(400e-9, 8e-3, ring)
        assert type(axes) is tuple and [type(x) for x in axes] == [float, float]

    def test_hemisphere(self):
        ring = RingSpec(r=5e-3, t_i=0.5e-3)
        a, c = solve_axes(2 * math.pi * (5e-3) ** 3 / 3, 5e-3, ring)
        assert a == pytest.approx(5e-3, rel=1e-9)
        assert c == pytest.approx(5e-3, rel=1e-9)

    def test_back_substitution(self):
        # r=5 mm, V=400 mm3, h=8 mm must satisfy both the volume identity
        # and the ring boundary condition
        ring = RingSpec(r=5e-3, t_i=0.5e-3)
        v, h = 400e-9, 8e-3
        a, c = solve_axes(v, h, ring)
        assert a == pytest.approx(5.02471978e-3, rel=1e-6)
        assert c == pytest.approx(8.87972316e-3, rel=1e-6)
        v_back = ellipsoid_volume_above_ring(a, c, h)
        assert abs(v_back - v) / v <= 1e-8
        h_b = 2 * c - h
        area = a ** 2 * (1 - (1 - h_b / c) ** 2) * math.pi
        ring_area = math.pi * ring.r ** 2
        assert abs(area - ring_area) / ring_area <= 1e-8

    def test_flat_membrane_degenerate(self):
        ring = RingSpec(r=5e-3, t_i=0.5e-3)
        with pytest.raises(DegenerateGeometry):
            solve_axes(400e-9, 1e-12, ring)
        with pytest.raises(DegenerateGeometry):
            solve_axes(400e-9, 0.0, ring)

    @pytest.mark.parametrize("v_bma, h", [(math.nan, 3e-3), (1e-6, math.nan), (math.inf, 3e-3),
                                          (1e-6, math.inf), (-math.inf, 3e-3)])
    def test_nonfinite_input_degenerate(self, ring, v_bma, h):
        # NaN passes every ordered comparison, so the axes are checked by
        # "not (a > 0 and c > 0)": a model error, not a ValueError
        with pytest.raises(DegenerateGeometry):
            solve_axes(v_bma, h, ring)

    def test_round_trip(self):
        # generate boundary-consistent (a, c, h), produce the volume, recover
        rng = np.random.default_rng(7)
        ring = RingSpec(r=5e-3, t_i=0.5e-3)
        for _ in range(200):
            c = rng.uniform(3e-3, 15e-3)
            h = rng.uniform(0.4, 1.9) * c
            a = ring.r * c / math.sqrt(h * (2 * c - h))
            v = ellipsoid_volume_above_ring(a, c, h)
            if v <= 0:
                continue
            assert solve_axes(v, h, ring) == pytest.approx((a, c), rel=1e-8)

    def test_unindented_shape_invariants(self):
        ring = RingSpec(r=5e-3, t_i=0.5e-3)
        v_bma, h1 = 400e-9, 8e-3
        a, c = solve_axes(v_bma, h1, ring)
        assert 0 < h1 <= 2 * c
        v_back = ellipsoid_volume_above_ring(a, c, h1)
        assert abs(v_back - v_bma) / v_bma <= 1e-9

    def test_cap_additivity(self):
        ring = RingSpec(r=5e-3, t_i=0.5e-3)
        h1 = 8e-3
        a, c = solve_axes(400e-9, h1, ring)
        full = 4 / 3 * math.pi * a ** 2 * c
        total = cap_volume(a, c, 2 * c - h1) + ellipsoid_volume_above_ring(a, c, h1)
        assert total == pytest.approx(full, rel=1e-9)

    def test_monotone_volume_chain(self, ring, cfg):
        # at the fitted height the reconstruction encloses nondecreasing volume
        vols = np.linspace(0.12e-6, 0.95e-6, 30)
        enclosed = []
        for v_f in vols:
            h1 = evaluate_height(cfg.fit, v_f)
            a, c = solve_axes(v_f + ring.membrane_volume, h1, ring)
            enclosed.append(ellipsoid_volume_above_ring(a, c, h1))
        assert all(b >= a for a, b in zip(enclosed, enclosed[1:]))


class TestCenterShift:
    def test_no_deformation(self):
        assert center_shift(8e-3, 8e-3) == 0.0

    def test_subtraction(self):
        assert center_shift(8.88e-3, 8.00e-3) == pytest.approx(0.88e-3, rel=1e-12)

    def test_sign_convention(self):
        assert center_shift(5.0, 6.0) == -1.0


class TestContactRadius:
    def test_zero_depth(self, ring):
        a, c = solve_axes(400e-9, 8e-3, ring)
        assert contact_radius(a, c, 1e-3, 1e-3) == 0.0
        assert contact_radius(a, c, 0.5e-3, 1e-3) == 0.0  # transient c_c > h2_prev

    def test_sphere_equatorial(self, ring):
        # hemisphere: a = c = R; slice at depth R hits the equator
        a, c = solve_axes(2 * math.pi * ring.r ** 3 / 3, ring.r, ring)
        k = contact_radius(a, c, ring.r, 0.0)
        assert k == pytest.approx(ring.r, rel=1e-9)

    def test_independent_root(self, ring):
        # ellipse cross-section x^2/a^2 + z^2/c^2 = 1 at z = c - d,
        # root found independently by bracketing
        a, c = solve_axes(400e-9, 8e-3, ring)
        d = 1e-3
        z = c - d
        x_root = brentq(lambda x: x * x / (a * a) + z * z / (c * c) - 1, 0.0, a)
        assert contact_radius(a, c, d, 0.0) == pytest.approx(x_root, rel=1e-10)


class TestSphereBaseline:
    def test_hemisphere_closure(self, ring):
        radius, h = sphere_baseline(2 * math.pi * ring.r ** 3 / 3, ring)
        assert h == pytest.approx(ring.r, rel=1e-9)
        assert radius == pytest.approx(ring.r, rel=1e-9)

    def test_bisection_oracle(self, ring):
        v = 400e-9
        h_oracle = brentq(
            lambda h: math.pi * h * (3 * ring.r ** 2 + h * h) / 6 - v, 1e-9, 1.0,
            xtol=1e-15,
        )
        _, h = sphere_baseline(v, ring)
        assert h == pytest.approx(h_oracle, rel=1e-9)
        assert h == pytest.approx(6.50900691e-3, rel=1e-6)

    def test_small_volume_limit(self, ring):
        _, h = sphere_baseline(1e-15, ring)
        assert 0 < h < 1e-6

    @pytest.mark.parametrize("v", [0.0, -1e-9])
    def test_nonpositive_volume_rejected(self, ring, v):
        with pytest.raises(ValueError, match="actuator volume must be positive"):
            sphere_baseline(v, ring)


class TestProfilePolyline:
    def test_hemisphere_three_points(self, ring):
        a, c = solve_axes(2 * math.pi * ring.r ** 3 / 3, ring.r, ring)
        pts = profile_polyline(a, c, ring.r, 0.0, 3)
        np.testing.assert_allclose(
            pts, [(-ring.r, 0.0), (0.0, ring.r), (ring.r, 0.0)], atol=1e-12)

    def test_sphere_baseline_cap(self, ring):
        # export-shape's overlay: the sphere_baseline cap is the spheroid a = c = R
        radius, cap_h = sphere_baseline(400e-9, ring)
        pts = profile_polyline(radius, radius, cap_h, 0.0, 51)
        np.testing.assert_allclose(np.hypot(pts[:, 0], pts[:, 1] - (cap_h - radius)), radius,
                                   rtol=1e-12)
        np.testing.assert_allclose(pts[[0, 25, -1]],
                                   [(-ring.r, 0.0), (0.0, cap_h), (ring.r, 0.0)], atol=1e-15)

    def test_ring_anchoring(self, ring):
        a, c = solve_axes(400e-9, 8e-3, ring)
        pts = profile_polyline(a, c, 8e-3, 0.0, 101)
        assert pts[0][0] == pytest.approx(-ring.r, abs=1e-9)
        assert pts[-1][0] == pytest.approx(ring.r, abs=1e-9)
        assert abs(pts[0][1]) <= 1e-9 and abs(pts[-1][1]) <= 1e-9

    def test_contact_flat_segment(self, ring):
        a, c = solve_axes(400e-9, 8e-3, ring)
        k = 2e-3
        pts = profile_polyline(a, c, 8e-3, k, 64)
        flat = [p for p in pts if abs(p[0]) <= k + 1e-12]
        zs = {round(z, 12) for _, z in flat}
        assert len(zs) == 1  # constant height across the contact patch
        assert max(x for x, _ in flat) == pytest.approx(k, rel=1e-9)

    @pytest.mark.parametrize("n", [4, 10, 11, 64, 201])
    def test_contact_exact_point_count(self, ring, n):
        a, c = solve_axes(400e-9, 8e-3, ring)
        pts = profile_polyline(a, c, 8e-3, 2e-3, n)
        assert pts.shape == (n, 2)
        assert np.all(np.any(np.diff(pts, axis=0) != 0, axis=1))  # no repeats
        np.testing.assert_allclose(pts[:, 0], -pts[::-1, 0], rtol=0, atol=1e-15)
        with pytest.raises(ValueError):
            profile_polyline(a, c, 8e-3, 2e-3, 3)

    def test_too_few_points(self, ring):
        a, c = solve_axes(400e-9, 8e-3, ring)
        with pytest.raises(ValueError):
            profile_polyline(a, c, 8e-3, 0.0, 1)
