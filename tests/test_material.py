import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, strategies as st

from bma import (
    RingSpec,
    YeohCoeffs,
    perimeter,
    yeoh_energy_density,
)
from oracles import (
    free_membrane_volume,
    inflated_thickness,
    integration_angle,
    invariant_i1,
    stretch,
    yeoh_reference,
)


def perimeter_oracle(a_d, c_d, upper):
    """High-precision independent quadrature of the ellipse arc integrand.

    The interval is split at pi/2, where the integrand of a strongly
    prolate arc has its sharp minimum.
    """
    mpmath.mp.dps = 30
    f = lambda t: mpmath.sqrt(a_d ** 2 * mpmath.sin(t) ** 2 + c_d ** 2 * mpmath.cos(t) ** 2)
    points = [0, mpmath.pi / 2, upper] if upper > math.pi / 2 else [0, upper]
    return float(mpmath.quad(f, points))


class TestIntegrationAngle:
    def test_singular_limit(self):
        assert integration_angle(5e-3, 4e-3, 4e-3) == math.pi / 2

    def test_direct(self):
        assert integration_angle(5e-3, 6e-3, 4e-3) == pytest.approx(math.atan(2.5), rel=1e-15)

    def test_vanishing_ring(self):
        assert integration_angle(1e-12, 6e-3, 4e-3) == pytest.approx(0.0, abs=1e-9)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            integration_angle(0.0, 6e-3, 4e-3)


class TestPerimeter:
    def test_quarter_circle(self):
        R = 3e-3
        L = perimeter(R, R, R, math.pi / 2)  # h3 = c_d: lower branch
        assert L == pytest.approx(math.pi * R / 2, rel=1e-10)

    def test_elliptic_value(self):
        # equals the complete elliptic integral 2 E(m=3/4); frozen from the
        # independent high-precision oracle
        L = perimeter(2.0, 1.0, 0.5, math.pi / 2)
        assert L == pytest.approx(2.4221120551369193, rel=1e-10)
        assert perimeter_oracle(2.0, 1.0, math.pi / 2) == pytest.approx(L, rel=1e-10)

    def test_circular_upper_branch(self):
        R = 3e-3
        # h3 > c_d: arc over pi - pi/4
        L = perimeter(R, R, 2 * R, math.pi / 4)
        assert L == pytest.approx(3 * math.pi * R / 4, rel=1e-10)

    def test_oracle_grid_both_branches(self):
        cases = [(a_d, c_d, h3_ratio * c_d, theta1)
                 for a_d in (0.5, 1.0, 2.0)
                 for c_d in (0.3, 1.0, 1.7)
                 for theta1 in (0.2, 0.9, math.pi / 2)
                 for h3_ratio in (0.5, 1.5)]
        # extreme prolate (a_d/c_d = 0.02, upper close to pi) and strongly
        # oblate (a_d/c_d = 50) shapes
        cases += [(0.02, 1.0, 1.5, theta1) for theta1 in (1e-4, 0.01, 0.9)]
        cases += [(50.0, 1.0, h3, theta1) for h3 in (0.5, 1.5) for theta1 in (0.05, 1.2)]
        for a_d, c_d, h3, theta1 in cases:
            upper = math.pi - theta1 if h3 > c_d else theta1
            got = perimeter(a_d, c_d, h3, theta1)
            assert got == pytest.approx(perimeter_oracle(a_d, c_d, upper), rel=1e-8)

    def test_scalar_routine_matches_ufunc(self):
        # the scalar cephes entry point gives exactly the ufunc's value, over
        # both branches, oblate (m < 0) and prolate (0 < m < 1) shapes, and
        # phi near 0, pi/2 and pi
        thetas = (0.0, 1e-12, 1e-6, 1e-3, 0.3, 1.0,
                  math.pi / 2 - 1e-9, math.nextafter(math.pi / 2, 0.0), math.pi / 2)
        for a_d, c_d in ((3e-3, 3e-3), (6e-3, 3e-3), (50.0, 1.0), (2e-3, 5e-3), (0.02, 1.0)):
            for h3 in (0.5 * c_d, c_d, 1.5 * c_d):
                for theta1 in thetas:
                    upper = math.pi - theta1 if h3 > c_d else theta1
                    ref = c_d * float(scipy.special.ellipeinc(upper, 1 - (a_d / c_d) ** 2))
                    got = perimeter(a_d, c_d, h3, theta1)
                    assert type(got) is float
                    assert got == ref, (a_d, c_d, h3, theta1)

    @given(a_d=st.floats(1e-4, 1e-1), c_d=st.floats(1e-4, 1e-1),
           h3_ratio=st.floats(0.0, 2.0), theta1=st.floats(0.0, math.pi / 2))
    def test_scalar_routine_matches_ufunc_anywhere(self, a_d, c_d, h3_ratio, theta1):
        upper = math.pi - theta1 if h3_ratio * c_d > c_d else theta1
        ref = c_d * float(scipy.special.ellipeinc(upper, 1 - (a_d / c_d) ** 2))
        assert perimeter(a_d, c_d, h3_ratio * c_d, theta1) == ref

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            perimeter(-1.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            perimeter(1.0, 1.0, 1.0, 2.0)


class TestStretch:
    def test_identity(self):
        ring = RingSpec(r=5e-3, t_i=0.5e-3)
        assert stretch(5e-3, ring) == 1.0

    def test_hemisphere(self):
        ring = RingSpec(r=5e-3, t_i=0.5e-3)
        assert stretch(math.pi * ring.r / 2, ring) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_doubling(self):
        ring = RingSpec(r=5e-3, t_i=0.5e-3)
        assert stretch(10e-3, ring) == 2.0


class TestInvariant:
    def test_reference(self):
        assert invariant_i1(1.0) == 3.0

    def test_values(self):
        assert invariant_i1(2.0) == 5.0
        assert invariant_i1(math.pi / 2) == pytest.approx(3.7406406450075025, rel=1e-12)

    @given(st.floats(min_value=0.5, max_value=4.0))
    def test_minimum_at_one(self, lam):
        assert invariant_i1(lam) >= 3.0
        if lam != 1.0:
            assert invariant_i1(lam) > 3.0


class TestYeohCoeffs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     pytest.param(-10 ** 400, id="neg_int_past_float")])
    @pytest.mark.parametrize("field", ["c1", "c2", "c3", "c4", "c5", "c6"])
    def test_nonfinite_rejected(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            YeohCoeffs(**{field: bad})


class TestYeohEnergy:
    def test_zero_at_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            coeffs = YeohCoeffs(*rng.uniform(-1e5, 1e5, 6))
            assert yeoh_energy_density(1.0, coeffs) == 0.0

    def test_first_order_term(self):
        # n=1 term only: W = 2 (lam - lam^-2) C_1, checked against a
        # symbolic evaluation
        import sympy
        lam_s = sympy.Rational(12, 10)
        w_sym = float(2 * (lam_s - lam_s ** -2) * 1e5)
        got = yeoh_energy_density(1.2, YeohCoeffs(c1=1e5))
        assert got == pytest.approx(w_sym, rel=1e-12)
        assert got == pytest.approx(1.0111111111e5, rel=1e-9)

    def test_second_order_vanishes_at_reference(self):
        assert yeoh_energy_density(1.0, YeohCoeffs(c2=1e5)) == 0.0

    @pytest.mark.parametrize("lam", [0.0, -1.2])
    def test_nonpositive_stretch_rejected(self, lam):
        with pytest.raises(ValueError, match="stretch must be positive"):
            yeoh_energy_density(lam, YeohCoeffs(c1=1e5))

    def test_symbolic_full_sum(self):
        import sympy
        lam_v = 1.7
        coeffs = YeohCoeffs(1e4, 2e3, 3e2, 40.0, 5.0, 0.6)
        lam = sympy.Float(lam_v, 30)
        i1 = lam ** 2 + 2 / lam
        w = sum(2 * (lam - lam ** -2) * n * c * (i1 - 3) ** (n - 1)
                for n, c in enumerate(coeffs.as_tuple(), start=1))
        assert yeoh_energy_density(lam_v, coeffs) == pytest.approx(float(w), rel=1e-12)

    @given(lam=st.floats(min_value=0.5, max_value=3.0),
           coeffs=st.tuples(*[st.floats(min_value=-1e5, max_value=1e5)] * 6))
    def test_horner_matches_term_sum(self, lam, coeffs):
        # reference: the sum term by term with a running power of I1 - 3.
        # Horner's rule rounds in another order, so the two agree to a few
        # ulp of the largest term, not bit for bit
        coeffs = YeohCoeffs(*coeffs)
        prefactor, x = 2.0 * (lam - lam ** -2), invariant_i1(lam) - 3.0
        terms, power = [], 1.0
        for n, c_n in enumerate(coeffs.as_tuple(), start=1):
            terms.append(prefactor * n * c_n * power)
            power *= x
        got = yeoh_energy_density(lam, coeffs)
        assert abs(got - sum(terms)) <= 1e-14 * sum(map(abs, terms))

    @given(lam=st.floats(min_value=1e-3, max_value=50.0),
           coeffs=st.tuples(*[st.floats(min_value=-1e5, max_value=1e5)] * 6))
    def test_equals_invariant_composition(self, lam, coeffs):
        # I1 - 3 computed in line gives the value of invariant_i1(lam) - 3 exactly
        coeffs = YeohCoeffs(*coeffs)
        assert yeoh_energy_density(lam, coeffs) == yeoh_reference(lam, coeffs)

    @given(st.floats(min_value=0.8, max_value=3.0))
    def test_linear_in_coefficients(self, lam):
        coeffs = YeohCoeffs(1e4, 2e3, 3e2)
        w1 = yeoh_energy_density(lam, coeffs)
        w2 = yeoh_energy_density(lam, YeohCoeffs(2e4, 4e3, 6e2))
        assert w2 == pytest.approx(2 * w1, rel=1e-12, abs=1e-12)


class TestThickness:
    def test_no_stretch(self):
        ring = RingSpec(r=5e-3, t_i=0.5e-3)
        assert inflated_thickness(ring, ring.r) == ring.t_i

    def test_direct(self):
        ring = RingSpec(r=5e-3, t_i=0.5e-3)
        assert inflated_thickness(ring, 10e-3) == pytest.approx(0.125e-3, rel=1e-12)

    def test_long_arc_limit(self):
        ring = RingSpec(r=5e-3, t_i=0.5e-3)
        assert inflated_thickness(ring, 1e3) < 1e-12

    @given(st.floats(min_value=1e-3, max_value=1.0))
    def test_incompressibility_identity(self, arc):
        # t_m * lambda^2 = t_i exactly
        ring = RingSpec(r=5e-3, t_i=0.5e-3)
        lam = stretch(arc, ring)
        t_m = inflated_thickness(ring, arc)
        assert t_m * lam ** 2 == pytest.approx(ring.t_i, rel=1e-12)


class TestFreeMembraneVolume:
    def test_no_contact(self):
        assert free_membrane_volume(39.27e-9, 0.0, 0.125e-3) == 39.27e-9

    def test_direct(self):
        v_fm = free_membrane_volume(39.2699082e-9, 2.307e-3, 0.125e-3)
        want = 39.2699082e-9 - (2.307e-3) ** 2 * math.pi * 0.125e-3
        assert v_fm == pytest.approx(want, rel=1e-9)

    def test_no_clamp(self):
        # a contact patch past the arc, which no real shape has, is not clamped
        assert free_membrane_volume(1e-9, 1.0, 1.0) == 1e-9 - math.pi


SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code, pythonpath=()):
    """Run code in a fresh interpreter with src after pythonpath; assert it exits 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (*pythonpath, SRC))))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestEllipeincLoader:
    """`material` imports the cephes ellipeinc without running scipy.special's __init__."""

    def test_later_scipy_special_import_binds_the_same_routine(self):
        run_fresh("""
            import sys, bma, bma.material
            assert not [m for m in sys.modules if m.startswith("scipy.special")]
            import scipy.special.cython_special as cs
            import scipy.special, scipy.integrate
            assert cs is scipy.special.cython_special is sys.modules["scipy.special.cython_special"]
            assert cs.ellipeinc is bma.material.ellipeinc
            assert bma.material.ellipeinc(2.0, 0.36) == scipy.special.ellipeinc(2.0, 0.36)
            assert abs(scipy.integrate.quad(lambda x: x * x, 0.0, 3.0)[0] - 9.0) < 1e-12
        """)

    def test_package_imported_first_is_kept(self):
        run_fresh("""
            import sys, scipy.special
            package = sys.modules["scipy.special"]
            import bma.material
            assert sys.modules["scipy.special"] is package is scipy.special
            cs = sys.modules["scipy.special.cython_special"]
            assert cs is scipy.special.cython_special
            assert bma.material.ellipeinc is cs.ellipeinc
        """)

    def test_refused_extension_raises_import_error_and_leaves_nothing(self):
        run_fresh("""
            import sys

            class Refuse:
                def find_spec(self, name, path=None, target=None):
                    if name == "scipy.special._ufuncs_cxx":
                        raise ModuleNotFoundError(f"No module named {name!r}", name=name)

            sys.meta_path.insert(0, Refuse())
            try:
                import bma
            except ImportError:
                pass
            else:
                sys.exit("import bma succeeded")
            left = [m for m in sys.modules if m.startswith("scipy.special")]
            assert not left, left
        """)

    def test_missing_scipy_special_raises_import_error(self, tmp_path):
        # a scipy package without the special subpackage
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("")
        run_fresh("""
            try:
                import bma
            except ImportError as exc:
                assert exc.name == "scipy.special", exc
            else:
                raise SystemExit("import bma succeeded")
        """, pythonpath=[tmp_path])
