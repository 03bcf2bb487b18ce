"""Membrane kinematics and the Yeoh 6th-order energy term.

The meridian arc of the ballooned profile is an ellipse arc whose length,
divided by the ring radius, gives the single principal stretch used in the
energy balance.  Thickness follows from incompressibility: t_m * lambda^2
= t_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special.cython_special import ellipeinc

from .geometry import RingSpec


@dataclass(frozen=True)
class YeohCoeffs:
    """Yeoh 6th-order material coefficients C_1..C_6 [Pa].

    The formal C_0 term multiplies n = 0 and never contributes, so it is
    not stored.  Each must be finite; C_2 is often negative, so any sign goes.
    """

    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0
    c4: float = 0.0
    c5: float = 0.0
    c6: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, self.as_tuple())):
            raise ValueError(f"Yeoh coefficients must be finite, got {self.as_tuple()}")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.c1, self.c2, self.c3, self.c4, self.c5, self.c6)

    def scaled(self, s: float) -> "YeohCoeffs":
        return YeohCoeffs(*(s * c for c in self.as_tuple()))


def integration_angle(r: float, h3: float, c_d: float) -> float:
    """Integral boundary theta1 = arctan(r / |h3 - c_d|) [rad].

    At h3 = c_d the arctan(inf) limit pi/2 is used; the hemisphere sits
    exactly on this singularity.
    """
    if r <= 0:
        raise ValueError("ring radius must be positive")
    gap = abs(h3 - c_d)
    if gap == 0:
        return math.pi / 2
    return math.atan(r / gap)


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
    if not (0 <= theta1 <= math.pi / 2):
        raise ValueError("theta1 must lie in [0, pi/2]")
    upper = math.pi - theta1 if h3 > c_d else theta1
    return c_d * ellipeinc(upper, 1.0 - (a_d / c_d) ** 2)


def stretch(arc_length: float, ring: RingSpec) -> float:
    """Principal stretch lambda = L / r."""
    if arc_length <= 0:
        raise ValueError("arc length must be positive")
    return arc_length / ring.r


def invariant_i1(lam: float) -> float:
    """First Cauchy-Green invariant I1 = lambda^2 + 2/lambda."""
    if lam <= 0:
        raise ValueError("stretch must be positive")
    return lam ** 2 + 2.0 / lam


def yeoh_energy_density(lam: float, coeffs: YeohCoeffs) -> float:
    """Yeoh 6th-order energy term W = sum_n 2(lam - lam^-2) n C_n (I1-3)^(n-1) [Pa].

    The n = 0 term is identically zero.  The sum over n = 1..6 is evaluated
    by Horner's rule in x = I1 - 3.
    """
    if lam <= 0:
        raise ValueError("stretch must be positive")
    x = invariant_i1(lam) - 3.0
    c = coeffs
    return 2.0 * (lam - lam ** -2) * (c.c1 + x * (2.0 * c.c2 + x * (3.0 * c.c3 + x * (
        4.0 * c.c4 + x * (5.0 * c.c5 + 6.0 * c.c6 * x)))))


def inflated_thickness(ring: RingSpec, arc_length: float) -> float:
    """Inflated membrane thickness t_m = t_i r^2 / L^2 [m]."""
    if arc_length <= 0:
        raise ValueError("arc length must be positive")
    return ring.t_i * ring.r ** 2 / arc_length ** 2


def free_membrane_volume(v_m: float, k: float, t_m: float) -> tuple[float, bool]:
    """Membrane volume in the free-inflation region, V_fm = V_m - k^2 pi t_m [m3].

    Returns (volume, clamped) where clamped marks a raw negative value
    that was clamped to zero; an overestimated contact radius can cause
    this transiently and must not kill the estimator loop.
    """
    if v_m <= 0:
        raise ValueError("membrane volume must be positive")
    if k < 0 or t_m <= 0:
        raise ValueError("contact radius must be nonnegative and thickness positive")
    raw = v_m - k ** 2 * math.pi * t_m
    if raw < 0:
        return 0.0, True
    return raw, False
