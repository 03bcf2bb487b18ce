"""Membrane kinematics and the Yeoh 6th-order energy term.

The meridian arc of the ballooned profile is an ellipse arc, `perimeter`,
whose length divided by the ring radius gives the single principal stretch
used in the energy balance; `yeoh_energy_density` turns that stretch into
the energy term.  The arc's integration angle, the stretch L / r, the
thickness from incompressibility (t_m * lambda^2 = t_i) and the membrane
volume outside the contact patch are lines of `estimator.reconstruct`;
`tests/oracles.py` keeps them as reference functions.

E(phi | m) is the scalar cephes routine ``ellipeinc`` of
``scipy.special.cython_special``, loaded without running
``scipy/special/__init__.py``: that file sets up scipy's array-API backends,
whose clone of the numpy namespace imports numpy.f2py, numpy.ma,
numpy.testing and numpy.random, well over half of ``import bma.cli``.  The
compiled module needs none of it, only the package's other extension
modules.  `_load_ellipeinc` enters an unexecuted ``scipy.special`` as the
parent for that one import and then takes every ``scipy.special`` entry it
added out of ``sys.modules`` again, so a later ``import scipy.special`` runs
the real package and binds the same compiled modules on it.  A package
imported before ``bma`` is used as it is, and keeps ``cython_special``.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import cached_property


def _load_ellipeinc():
    """``scipy.special.cython_special.ellipeinc``, imported without ``scipy.special.__init__``."""
    before = set(sys.modules)
    spec = importlib.util.find_spec("scipy.special")
    if spec is None:
        raise ImportError("No module named 'scipy.special'", name="scipy.special")
    sys.modules.setdefault("scipy.special", importlib.util.module_from_spec(spec))
    try:
        from scipy.special.cython_special import ellipeinc
    finally:
        # a submodule left under the unexecuted package would never be bound
        # on the real one; a package imported before keeps what it bound
        if "scipy.special" not in before:
            for name in set(sys.modules) - before:
                if name == "scipy.special" or name.startswith("scipy.special."):
                    del sys.modules[name]
    return ellipeinc


ellipeinc = _load_ellipeinc()

_PI = math.pi
_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class YeohCoeffs:
    """Yeoh 6th-order material coefficients C_1..C_6 [Pa].

    The formal C_0 term multiplies n = 0 and never contributes, so it is
    not stored.  Each must be finite; C_2 is often negative, so any sign goes.
    `horner` stays cached per coefficient set: each rebuild reads it, and n C_n in line was slower.
    """

    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0
    c4: float = 0.0
    c5: float = 0.0
    c6: float = 0.0

    def __post_init__(self):
        try:
            finite = all(map(math.isfinite, self.as_tuple()))
        except OverflowError:   # an int past the float range reads as an infinity
            finite = False
        if not finite:
            raise ValueError(f"Yeoh coefficients must be finite, got {self.as_tuple()}")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.c1, self.c2, self.c3, self.c4, self.c5, self.c6)

    @cached_property
    def horner(self) -> tuple[float, ...]:
        """(C_1, 2 C_2, ..., 6 C_6): n C_n, the Horner coefficients in I1 - 3."""
        return tuple(n * c for n, c in enumerate(self.as_tuple(), 1))


def perimeter(a_d: float, c_d: float, h3: float, theta1: float) -> float:
    """Meridian arc length of the deformed ellipse [m].

    Integral of M(t) = sqrt(a_d^2 sin^2 t + c_d^2 cos^2 t) from 0 to
    phi = pi - theta1 when the apex sits above the ellipsoid center
    (h3 > c_d), otherwise phi = theta1.  Closed form c_d E(phi | m), the
    incomplete elliptic integral of the second kind with
    m = 1 - a_d^2/c_d^2; valid also for m < 0 (oblate shapes).  The
    scalar cephes routine from ``scipy.special.cython_special`` takes and
    returns Python floats, bit for bit the value of the ``ellipeinc`` ufunc
    without its array dispatch.
    """
    if not (a_d > 0 and c_d > 0):
        raise ValueError("deformed semi-axes must be positive")
    if not (0 <= theta1 <= _HALF_PI):
        raise ValueError("theta1 must lie in [0, pi/2]")
    upper = _PI - theta1 if h3 > c_d else theta1
    # the ufunc form the tests hold it to: q * q for q ** 2 is 1 ulp off on 0.08 % of draws
    return c_d * ellipeinc(upper, 1.0 - (a_d / c_d) ** 2)


def yeoh_energy_density(lam: float, coeffs: YeohCoeffs) -> float:
    """Yeoh 6th-order energy term W = sum_n 2(lam - lam^-2) n C_n (I1-3)^(n-1) [Pa].

    I1 = lam^2 + 2/lam is the first Cauchy-Green invariant.  The n = 0 term
    is identically zero.  The sum over n = 1..6 is evaluated by Horner's
    rule in x = I1 - 3, on the coefficients n C_n that `YeohCoeffs.horner` keeps.
    """
    if lam <= 0:
        raise ValueError("stretch must be positive")
    x = lam ** 2 + 2.0 / lam - 3.0   # I1 - 3, I1 = lambda^2 + 2/lambda
    c1, c2, c3, c4, c5, c6 = coeffs.horner
    return 2.0 * (lam - lam ** -2) * (c1 + x * (c2 + x * (c3 + x * (c4 + x * (c5 + c6 * x)))))
