"""Spheroid reconstruction of the ballooned membrane.

All quantities are strict SI (m, m3).  The membrane clamped in a retainer
ring of inner radius ``r`` balloons into an axisymmetric ellipsoid whose
portion below the ring plane is a virtual cap; the visible actuator volume
is the full ellipsoid minus that cap.  Both the unindented and the
contact-deformed shapes are recovered from (volume, apex height) by the
same closed form, `solve_axes`, which returns the semi-axes as a plain
(a, c) tuple; the per-sample record of both shapes is the flat
`estimator.Reconstruction` of floats, and `profile_polyline` draws a shape
from its floats (a, c, h, k).  It draws the `sphere_baseline` cap too, as
the spheroid a = c = R.  The center shift c - c_d and the contact radius of
the indenter's slice through the unindented shape are lines of
`estimator.reconstruct`; `tests/oracles.py` keeps them as reference
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry

# relative magnitude below which a denominator counts as singular
_DENOM_REL_EPS = 1e-12

# equatorial semi-axis more than this many times the ring radius or the
# polar semi-axis marks the degenerate flat-membrane branch
_ASPECT_LIMIT = 1e3

_SQRT3 = math.sqrt(3)
_PI = math.pi
_sqrt = math.sqrt


@dataclass(frozen=True)
class RingSpec:
    """Ring inner radius and initial membrane thickness, checked when built."""

    r: float      # ring inner radius [m]
    t_i: float    # initial (uniform) membrane thickness [m]

    def __post_init__(self):
        # the membrane volume pi r^2 t_i must be finite as well as r and t_i;
        # r * r overflows to inf where r ** 2 would raise OverflowError; an int
        # operand past the float range raises it, and reads as an infinite volume
        try:
            v_m = self.r * self.r * math.pi * self.t_i
        except OverflowError:
            v_m = math.inf
        if not (0 < self.r and 0 < self.t_i and v_m < math.inf):
            raise ValueError(f"ring radius {self.r} and membrane thickness {self.t_i} must be "
                             f"positive, with a finite membrane volume pi r^2 t_i")

    @property
    def membrane_volume(self) -> float:
        """Volume of the undeformed membrane disc, r^2 * pi * t_i [m3]."""
        return self.r ** 2 * math.pi * self.t_i


def solve_axes(v_bma: float, h: float, ring: RingSpec) -> tuple[float, float]:
    """Recover the ellipsoid axes (a, c) from actuator volume and apex height.

    a is the equatorial and c the polar semi-axis [m]; both oblate (a > c)
    and prolate (c > a) shapes occur.  Serves both the unindented shape
    (h = h1) and the contact-deformed shape (h = h3).  Raises
    DegenerateGeometry when the pair lies outside the model's validity
    region (near-flat membrane, singular denominator, negative radicand,
    or axes that are not both positive).
    """
    if h <= 0:
        raise DegenerateGeometry(f"apex height must be positive, got {h}")
    r2pi = _PI * ring.r ** 2
    h3r2pi, v6 = 3 * h * r2pi, 6 * v_bma
    denom = h3r2pi - v6
    if abs(denom) < _DENOM_REL_EPS * (abs(h3r2pi) + abs(v6)):
        raise DegenerateGeometry("singular denominator in axis solution")

    try:
        c = (h ** 2 * r2pi - 3 * v_bma * h) / denom
    except OverflowError as exc:   # h ** 2 past the float range
        raise DegenerateGeometry(f"apex height {h} is outside the float range") from exc
    radicand = -(h * r2pi - 2 * v_bma) / (h * _PI)
    if radicand < 0:
        raise DegenerateGeometry("negative radicand in major-axis solution")
    a = _sqrt(radicand) * (_SQRT3 * h * r2pi - 3 ** 1.5 * v_bma) / denom
    if not (a > 0 and c > 0):   # also a NaN axis, from a NaN or infinite input
        raise DegenerateGeometry(f"axes a={a}, c={c} are not both positive")
    # near-flat heights admit a mathematically consistent but absurd
    # lens-shaped solution (a many times the ring radius); reject it
    if a > _ASPECT_LIMIT * ring.r or a > _ASPECT_LIMIT * c:
        raise DegenerateGeometry(
            f"flat-membrane solution a={a} out of proportion to r={ring.r}, c={c}"
        )
    return a, c


def sphere_baseline(v_bma: float, ring: RingSpec) -> tuple[float, float]:
    """Spherical-cap fit over the ring at the same volume, for comparison overlays.

    Returns (sphere radius R, cap height h) with cap volume
    pi*h*(3r^2 + h^2)/6 = v_bma and R = (r^2 + h^2) / (2h).
    """
    if v_bma <= 0:
        raise ValueError("actuator volume must be positive")
    r = ring.r
    # the one real root of the monotone cubic h^3 + 3 r^2 h - 6V/pi = 0
    h = 2 * r * math.sinh(math.asinh(3 * v_bma / (math.pi * r ** 3)) / 3)
    radius = (r * r + h * h) / (2 * h)
    return radius, h


def profile_polyline(a: float, c: float, h: float, k: float,
                     n_points: int) -> np.ndarray:
    """Cross-section polyline of the visible membrane arc above the ring plane.

    (a, c) are the spheroid's semi-axes and h its apex height [m].  Returns
    an (n, 2) array of (x, z) points in meters ordered from (-r, 0) over the
    apex to (+r, 0), exactly n_points of them.  A contact radius k > 0 clips
    the apex to a flat segment of half-width k, which needs n_points >= 4.
    """
    if n_points < (4 if k > 0 else 2):
        raise ValueError(f"need at least {4 if k > 0 else 2} points")

    z0 = h - c  # ellipsoid center height above the ring plane
    # parameter t measured from the apex: x = a sin t, z = z0 + c cos t
    cos_ring = max(-1.0, min(1.0, 1 - h / c))
    t_max = math.acos(cos_ring)

    if k <= 0:
        t = np.linspace(-t_max, t_max, n_points)
        pts = np.column_stack([a * np.sin(t), z0 + c * np.cos(t)])
    else:
        t_k = math.asin(min(1.0, k / a))
        # the flat segment owns its end points at +-k; an odd remainder
        # goes to it so that both arcs get the same count
        n_flat = max(2, n_points // 8)
        n_flat += (n_points - n_flat) % 2
        n_arc = (n_points - n_flat) // 2
        z_k = z0 + c * math.cos(t_k)
        left = np.linspace(-t_max, -t_k, n_arc, endpoint=False)
        right = np.linspace(t_max, t_k, n_arc, endpoint=False)[::-1]
        flat_x = np.linspace(-k, k, n_flat)
        pts = np.vstack([
            np.column_stack([a * np.sin(left), z0 + c * np.cos(left)]),
            np.column_stack([flat_x, np.full(n_flat, z_k)]),
            np.column_stack([a * np.sin(right), z0 + c * np.cos(right)]),
        ])
    # ring anchoring: endpoints exactly on the ring circle
    r_ring = a * math.sin(t_max)
    pts[0] = (-r_ring, 0.0)
    pts[-1] = (r_ring, 0.0)
    return pts
