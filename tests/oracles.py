"""Closed-form ellipsoid volumes that the tests use as oracles.

`solve_axes` inverts `ellipsoid_volume_above_ring`; the package itself
never evaluates either volume, so they live here, next to the tests that
check the inversion.
"""

import math

from bma import DegenerateGeometry, Ellipsoid


def cap_volume(e: Ellipsoid, h_b: float) -> float:
    """Volume of the ellipsoid cap of height h_b measured from an apex [m3]."""
    if not (0 <= h_b <= 2 * e.c):
        raise DegenerateGeometry(
            f"cap height {h_b} outside [0, 2c] for c={e.c}"
        )
    return e.a ** 2 * (3 * e.c - h_b) * h_b ** 2 * math.pi / (3 * e.c ** 2)


def ellipsoid_volume_above_ring(e: Ellipsoid, h: float) -> float:
    """Actuator volume enclosed above the ring plane for apex height h [m3]."""
    return (
        -e.a ** 2 * (2 * e.c - h) ** 2 * (h + e.c) * math.pi / (3 * e.c ** 2)
        + 4 * math.pi * e.a ** 2 * e.c / 3
    )
