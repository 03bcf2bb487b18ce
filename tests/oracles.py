"""Reference formulas that the tests use as oracles.

`solve_axes` inverts `ellipsoid_volume_above_ring`; the package itself
never evaluates either volume, so they live here, next to the tests that
check the inversion.  `solve_axes_reference` is `solve_axes` in the
arithmetic it is pinned to, so that a test can see a rounding change
inside it; the chain compositions below call the package's own.

The closed forms between the estimator's layers are lines of
`estimator.reconstruct`, `estimator.indent` and `yeoh_energy_density`.
Here each is a function of its own, with the checks on its arguments;
`reconstruct_chain` and `indent_chain` compose them with the package's
layers, one call per formula, and the property tests hold the package
equal to these compositions value for value.  `reconstruct_chain` refuses
nothing the real layers let through and sets no flags: a reconstruction is
floats only.  `update` is `step` after its input guards, on a
reconstruction the caller already holds, with the restart flag that `step`
sets.  `equilibrium`
is the closed form of the fixed points of `step`: the (p, F) that leave a
carried (V_f, h2) where it is, for every h2 in [0, h1) that `reconstruct`
accepts, with a pull (F < 0) below contact onset; the package's own, the
same one curve, is `estimator.equilibrium`.
`from_rest_converges` iterates the simulator's update from rest, the
reference that the simulator's hold check on that curve is held against.
`csv_writer_bytes` writes cells through `csv.writer`, the reference for the
bytes of the package's `%`-template CSV writer.
"""

import csv
import io
import math

from bma import (
    BmaError,
    DegenerateGeometry,
    EstimatorState,
    RingSpec,
    StateEstimate,
    YeohCoeffs,
    evaluate_height,
    perimeter,
    solve_axes,
)
from bma.estimator import Reconstruction, balance_pressure, indent, reconstruct


class NegativeDiscriminant(BmaError):
    """Applied force exceeds what the pressurized cross-section can express."""


def cap_volume(a: float, c: float, h_b: float) -> float:
    """Volume of the cap of height h_b, measured from an apex, of the ellipsoid (a, c) [m3]."""
    if not (0 <= h_b <= 2 * c):
        raise DegenerateGeometry(
            f"cap height {h_b} outside [0, 2c] for c={c}"
        )
    return a ** 2 * (3 * c - h_b) * h_b ** 2 * math.pi / (3 * c ** 2)


def ellipsoid_volume_above_ring(a: float, c: float, h: float) -> float:
    """Actuator volume enclosed above the ring plane for apex height h [m3]."""
    return (
        -a ** 2 * (2 * c - h) ** 2 * (h + c) * math.pi / (3 * c ** 2)
        + 4 * math.pi * a ** 2 * c / 3
    )


def solve_axes_reference(v_bma: float, h: float, ring: RingSpec) -> tuple[float, float]:
    """`solve_axes` in the arithmetic it is pinned to, bit for bit.

    The package's `solve_axes` must return the same floats, or raise the same
    exception class with the same message; a rewrite that moves a rounding
    step is a different function.  The constants are literals here:
    1e-12 the singular-denominator threshold, 1e3 the flat-membrane aspect limit.
    """
    if h <= 0:
        raise DegenerateGeometry(f"apex height must be positive, got {h}")
    r2pi = math.pi * ring.r ** 2
    denom = 3 * h * r2pi - 6 * v_bma
    scale = abs(3 * h * r2pi) + abs(6 * v_bma)
    if abs(denom) < 1e-12 * scale:
        raise DegenerateGeometry("singular denominator in axis solution")
    try:
        c = (h ** 2 * r2pi - 3 * v_bma * h) / denom
    except OverflowError as exc:
        raise DegenerateGeometry(f"apex height {h} is outside the float range") from exc
    radicand = -(h * r2pi - 2 * v_bma) / (h * math.pi)
    if radicand < 0:
        raise DegenerateGeometry("negative radicand in major-axis solution")
    a = math.sqrt(radicand) * (math.sqrt(3) * h * r2pi - 3 ** 1.5 * v_bma) / denom
    if not (a > 0 and c > 0):
        raise DegenerateGeometry(f"axes a={a}, c={c} are not both positive")
    if a > 1e3 * ring.r or a > 1e3 * c:
        raise DegenerateGeometry(
            f"flat-membrane solution a={a} out of proportion to r={ring.r}, c={c}"
        )
    return a, c


def center_shift(c: float, c_d: float) -> float:
    """Shift of the polar axis between unindented and deformed shapes [m].

    Not negative, up to rounding: at a fixed volume V the polar semi-axis
    c = (h/3)(1 + 1/(2 - h pi r^2 / V)) grows with the apex height h over the
    valid range h pi r^2 <= 2V, and the deformed apex is not above the
    unindented one.
    """
    return c - c_d


def contact_radius(a: float, c: float, h2_prev: float, c_c: float) -> float:
    """Contact-patch radius from slicing the unindented ellipsoid (a, c) [m].

    Slice depth is d = h2_prev - c_c below the apex; d <= 0 means no slice
    contact yet and returns 0.  The real layers keep d < 2c: c_c >= 0 and
    h2_prev < h1 < 2c.
    """
    d = h2_prev - c_c
    if d <= 0:
        return 0.0
    k = a * math.sqrt(2 * c * d - d * d) / c
    return min(k, a)


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


def inflated_thickness(ring: RingSpec, arc_length: float) -> float:
    """Inflated membrane thickness t_m = t_i r^2 / L^2 [m]."""
    if arc_length <= 0:
        raise ValueError("arc length must be positive")
    return ring.t_i * ring.r ** 2 / arc_length ** 2


def free_membrane_volume(v_m: float, k: float, t_m: float) -> float:
    """Membrane volume in the free-inflation region, V_fm = V_m - k^2 pi t_m [m3].

    Positive on every real shape, where the contact radius k stays below
    the meridian arc L and t_m = t_i r^2 / L^2.
    """
    if v_m <= 0:
        raise ValueError("membrane volume must be positive")
    if k < 0 or t_m <= 0:
        raise ValueError("contact radius must be nonnegative and thickness positive")
    return v_m - k ** 2 * math.pi * t_m


def yeoh_reference(lam: float, coeffs: YeohCoeffs) -> float:
    """`yeoh_energy_density` with x = I1 - 3 taken from `invariant_i1` [Pa]."""
    if lam <= 0:
        raise ValueError("stretch must be positive")
    x = invariant_i1(lam) - 3.0
    c = coeffs
    return 2.0 * (lam - lam ** -2) * (c.c1 + x * (2.0 * c.c2 + x * (3.0 * c.c3 + x * (
        4.0 * c.c4 + x * (5.0 * c.c5 + 6.0 * c.c6 * x)))))


def estimate_force(v_f: float, p: float, v_fm: float, w: float, h3: float) -> float:
    """External planar force from the energy balance, F = (V_f p - V_fm W) / h3 [N]."""
    if h3 <= 0:
        raise DegenerateGeometry(f"deformed height must be positive, got {h3}")
    return (v_f * p - v_fm * w) / h3


def slice_indentation(a: float, c: float, p: float, force: float) -> float:
    """Slice-induced indentation depth of the deformed membrane [m].

    h4 = -(c sqrt(pi^2 a^2 p^2 - pi F p) - pi a c p) / (pi a p); equals
    c (1 - sqrt(1 - F / (pi a^2 p))).
    """
    if p <= 0:
        raise ValueError(f"pressure must be positive, got {p}")
    try:
        disc = math.pi ** 2 * a ** 2 * p ** 2 - math.pi * force * p
        if disc < 0:
            raise NegativeDiscriminant(
                f"force {force} exceeds pressurized cross-section bound {math.pi * a * a * p}"
            )
        return -(c * math.sqrt(disc) - math.pi * a * c * p) / (math.pi * a * p)
    except ArithmeticError as exc:   # p^2 overflows, or pi a p underflows to 0
        raise DegenerateGeometry(f"pressure {p} is outside the float range") from exc


def reconstruct_chain(v_f: float, h2_prev: float, cfg) -> Reconstruction:
    """`estimator.reconstruct` composed from the reference functions, with no memo."""
    v_f, h2_prev = float(v_f), float(h2_prev)
    if v_f < cfg.v_min_model:
        raise DegenerateGeometry(f"volume {v_f} below modeled minimum {cfg.v_min_model}")
    ring = cfg.ring
    h1 = evaluate_height(cfg.fit, v_f)
    v_bma = v_f + ring.membrane_volume
    a, c = solve_axes(v_bma, h1, ring)
    if not 0.0 <= h2_prev < h1:
        h2_prev = 0.0
    h3 = h1 - h2_prev
    a_d, c_d = solve_axes(v_bma, h3, ring)
    c_c = center_shift(c, c_d)
    k = contact_radius(a, c, h2_prev, c_c)
    arc = perimeter(a_d, c_d, h3, integration_angle(ring.r, h3, c_d))
    w = yeoh_reference(stretch(arc, ring), cfg.coeffs)
    v_fm = free_membrane_volume(ring.membrane_volume, k, inflated_thickness(ring, arc))
    return Reconstruction(h1, a, c, h3, a_d, c_d, c_c, k, w, v_fm)


def indent_chain(g: Reconstruction, v_f: float, p: float):
    """`estimator.indent` composed from `estimate_force` and `slice_indentation`."""
    flags = frozenset()
    force = estimate_force(v_f, p, g.v_fm, g.w, g.h3)
    if p <= 0:
        h4 = 0.0
        flags = flags | {"nonpositive_pressure"}
    else:
        try:
            h4 = slice_indentation(g.a, g.c, p, force)
        except NegativeDiscriminant:
            h4 = g.c
            flags = flags | {"force_exceeds_bound"}
    h2_raw = h4 + g.c_c
    h2 = min(max(h2_raw, 0.0), g.h1)
    if h2 != h2_raw:
        flags = flags | {"h2_clamped"}
    return h2, force, flags


def update(g: Reconstruction, state: EstimatorState, v_f: float,
           p: float) -> tuple[StateEstimate, EstimatorState]:
    """`step` after its input guards: `indent`, then the estimate and the next state.

    For a caller that already holds `reconstruct(v_f, state.h2_prev, cfg)`;
    v_f and p must be finite and v_f in range.  A carried h2 outside
    [0, h1), from which `reconstruct` restarted, flags `h2_prev_clamped`.
    """
    h2, force, flags = indent(g, v_f, p)
    if not 0.0 <= state.h2_prev < g.h1:
        flags = frozenset({"h2_prev_clamped"}) | flags
    est = StateEstimate(g.h1, h2, g.h3, force, balance_pressure(g, v_f), flags)
    return est, EstimatorState(h2, state.step_index + 1)


def equilibrium(v_f: float, h2: float, cfg) -> tuple[float, float]:
    """(p, F) at which `step` maps the carried h2 at volume v_f to itself.

    From one `reconstruct(v_f, h2, cfg)`: the slice depth h4 = h2 - c_c
    gives the force's share s = F / (pi a^2 p) = 1 - (1 - h4/c)^2 of the
    cross-section bound; with F = s pi a^2 p the energy balance
    V_f p = V_fm W + F h3 gives p = V_fm W / (V_f - s pi a^2 h3).  Below
    contact onset h4 < 0, so s < 0 and the force is a pull.
    """
    g = reconstruct(v_f, h2, cfg)
    h4 = h2 - g.c_c
    s = 1 - (1 - h4 / g.c) ** 2
    p = g.v_fm * g.w / (v_f - s * math.pi * g.a ** 2 * g.h3)
    return p, s * math.pi * g.a ** 2 * p


def from_rest_converges(v_f: float, force: float, cfg, tol: float = 1e-10,
                        cap: int = 100) -> float | None:
    """Last iterate of h2 <- `indent` at (v_f, F) from h2 = 0, or None if it does not settle.

    It settles once a step moves h2 by at most tol [m], within cap iterations.
    """
    h2 = 0.0
    for _ in range(cap):
        g = reconstruct(v_f, h2, cfg)
        h2_next = indent(g, v_f, balance_pressure(g, v_f, force))[0]
        if abs(h2_next - h2) <= tol:
            return h2_next
        h2 = h2_next
    return None


def csv_writer_bytes(header, rows) -> bytes:
    """A header and rows of cells through csv.writer, as a file opened with newline=""."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()
