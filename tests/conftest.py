import numpy as np
import pytest

from bma import (
    EstimatorConfig,
    RingSpec,
    YeohCoeffs,
    fit_height_poly,
    sphere_baseline,
)


@pytest.fixture(scope="session")
def ring():
    # bench actuator: 5 mm ring radius, 0.5 mm membrane
    return RingSpec(r=5e-3, t_i=0.5e-3)


@pytest.fixture(scope="session")
def height_map(ring):
    """Synthetic ground-truth volume-to-height map.

    Uses the sphere-cap height at the actuator volume, which the ellipsoid
    closed forms represent exactly (a = c = R), so every downstream
    reconstruction is well inside the model's validity region.
    """
    def h_true(v_f):
        _, h = sphere_baseline(v_f + ring.membrane_volume, ring)
        return h
    return h_true


@pytest.fixture(scope="session")
def fit(ring, height_map):
    vols = np.linspace(0.05e-6, 1.0e-6, 40)
    samples = [(v, height_map(v), "inflate") for v in vols]
    samples += [(v, height_map(v), "deflate") for v in vols]
    return fit_height_poly(samples, degree=7)


@pytest.fixture(scope="session")
def coeffs():
    # placeholder coefficients, not a characterized material
    return YeohCoeffs(c1=30e3, c2=1e3, c3=50.0)


@pytest.fixture(scope="session")
def cfg(ring, coeffs, fit):
    return EstimatorConfig(ring=ring, coeffs=coeffs, fit=fit)


@pytest.fixture(scope="session")
def cfg_a():
    """Config A, a softening material: the equilibrium force is not monotone past its dip.

    A 7.83 mm ring, a 0.6 mm membrane, 0.83 times the sphere-cap heights fitted
    at degree 7 over 40 volumes from 0.05 to 1.0 ml, and C = (31 865, -1 830,
    42) Pa: placeholder coefficients with the negative C_2 of many Yeoh fits.
    """
    ring = RingSpec(r=7.83e-3, t_i=0.6e-3)
    vols = np.linspace(0.05e-6, 1.0e-6, 40)
    samples = [(v, 0.83 * sphere_baseline(v + ring.membrane_volume, ring)[1], phase)
               for v in vols for phase in ("inflate", "deflate")]
    return EstimatorConfig(ring=ring, coeffs=YeohCoeffs(31865.0, -1830.0, 42.0),
                           fit=fit_height_poly(samples, degree=7))
