"""Volume-to-unindented-height calibration fit.

A 7th-order (configurable) polynomial is fitted by ordinary least squares
to the mean height at each distinct volume: a run reads the inflation and
deflation strokes at the same commanded volumes, so this is the midline of
the hysteresis loop.  Volumes are normalized by their maximum before
fitting: a raw high-degree fit in m3 magnitudes (~1e-7) is catastrophically
ill-conditioned.  The maximum is the fit's own v_max, so a `HeightFit` is
its coefficients and its validity range, nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, InsufficientData, OutOfRange, finite, quote

DEFAULT_DEGREE = 7

# condition-number ceiling for the normalized Vandermonde system
COND_LIMIT = 1e10

# slack on the validity-range guard, relative to the volume scale
_RANGE_EPS = 1e-12


@dataclass(frozen=True)
class HeightFit:
    """Polynomial map from injected volume to unindented apex height.

    Coefficients are over volume normalized by v_max (ascending powers).
    Evaluation outside [v_min, v_max] is rejected, never extrapolated.
    """

    coeffs: tuple[float, ...]   # ascending powers of V_f / v_max
    v_min: float                # validity range lower bound [m3]
    v_max: float                # validity range upper bound and normalization divisor [m3]

    def __post_init__(self):
        if not finite(*self.coeffs, self.v_min, self.v_max):
            raise ValueError("height fit coefficients and ranges must be finite")
        if not (self.coeffs and 0 <= self.v_min <= self.v_max and self.v_max > 0):
            raise ValueError("height fit needs a coefficient and 0 <= v_min <= v_max "
                             "with v_max > 0")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def fit_height_poly(samples, degree: int = DEFAULT_DEGREE) -> HeightFit:
    """Least-squares polynomial fit of the mean height at each distinct volume.

    samples: iterable of (V_f [m3], h [m], phase); phase carries no weight.
    A volume read more than once enters once, as the mean of its readings,
    so sample order moves only the rounding of a mean over three or more.
    """
    if degree < 0:
        raise ValueError(f"polynomial degree must be nonnegative, got {quote(degree)}")
    samples = list(samples)
    if not all(finite(v, h) for v, h, _ in samples):
        raise ValueError("calibration volumes and heights must be finite")
    if any(v < 0 for v, _, _ in samples):
        raise ValueError("calibration volumes must be nonnegative")
    if not samples:
        raise InsufficientData("no calibration samples")

    vols, hs = np.array([(v, h) for v, h, _ in samples]).T
    volumes, group = np.unique(vols, return_inverse=True)
    heights = np.bincount(group, hs) / np.bincount(group)
    if len(volumes) < degree + 1:
        raise InsufficientData(
            f"need at least {quote(degree + 1)} distinct volumes, got {len(volumes)}"
        )

    v_max = float(volumes.max())
    if v_max <= 0:
        raise InsufficientData("all calibration volumes are zero")
    x = volumes / v_max
    vander = np.vander(x, degree + 1, increasing=True)
    cond = np.linalg.cond(vander)
    if cond > COND_LIMIT:
        raise IllConditioned(
            f"condition number {cond:.3g} exceeds {COND_LIMIT:.0e}; reduce the degree"
        )
    coeffs, *_ = np.linalg.lstsq(vander, heights, rcond=None)
    return HeightFit(
        coeffs=tuple(float(c) for c in coeffs),
        v_min=float(volumes.min()),
        v_max=v_max,
    )


def evaluate_height(fit: HeightFit, v_f: float) -> float:
    """Evaluate the fitted unindented height at injected volume v_f [m] by Horner's rule."""
    eps = _RANGE_EPS * fit.v_max
    if not (fit.v_min - eps <= v_f <= fit.v_max + eps):
        raise OutOfRange(
            f"volume {v_f} outside calibrated range [{fit.v_min}, {fit.v_max}]"
        )
    # Horner's rule in the order polyval uses, without its array set-up
    x = v_f / fit.v_max
    h = 0.0
    for c in reversed(fit.coeffs):
        h = h * x + c
    h = float(h)
    if not 0 < h < math.inf:   # a finite fit can still overflow to inf
        raise OutOfRange(f"fitted height {h} not positive and finite at volume {v_f}")
    return h
