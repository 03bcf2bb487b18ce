"""Bench-unit CSV files, synthetic trace simulation, and evaluation.

Traces are CSV files with header ``t_s,volume_ml,pressure_pa`` and optional
ground-truth columns ``force_n,indent_mm``; calibration files have the
columns ``volume_ml,height_mm,phase``.  Every CSV file the package reads
goes through `read_rows`, and every one it writes through `write_rows`.
Internally everything is SI; conversion happens here at the file boundary.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import DegenerateGeometry, MissingGroundTruth, NoConvergence, OutOfRange, ParseError
from .estimator import (
    EstimatorConfig,
    EstimatorState,
    StateEstimate,
    balance_pressure,
    equilibrium,
    indent,
    reconstruct,
    rmse,
    step,
)

ML_TO_M3 = 1e-6
MM_TO_M = 1e-3
TRACE_COLUMNS = ("t_s", "volume_ml", "pressure_pa")
TRACE_ROW = "%.9g,%.9g,%.9g"   # the `trace_values` cells, at 9 significant digits

SIM_ROOT_TOL = 1e-13   # root tolerance of a hold's equilibrium h2 [m]


@dataclass(slots=True)
class TraceRecord:
    t: float                  # timestamp [s]
    v_f: float                # injected volume [m3]
    p: float                  # chamber pressure [Pa]
    f_true: float | None = None    # ground-truth force [N]
    h2_true: float | None = None   # ground-truth indentation [m]

    @property
    def has_truth(self) -> bool:
        return self.f_true is not None and self.h2_true is not None


@dataclass(frozen=True)
class SimStep:
    v_f: float       # held injected volume [m3]
    force: float     # applied planar force [N]
    hold: float      # hold duration [s]


@dataclass(frozen=True)
class SimScript:
    steps: tuple[SimStep, ...]
    sample_period: float       # [s]
    noise_pa: float = 0.0      # Gaussian pressure noise amplitude [Pa]

    def __post_init__(self):
        named = [("sample_period", self.sample_period), ("noise_pa", self.noise_pa)]
        named += [(f"step {i} {k}", v) for i, s in enumerate(self.steps)
                  for k, v in vars(s).items()]
        for name, value in named:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.sample_period <= 0:
            raise ValueError("sample period must be positive")
        if self.noise_pa < 0:
            raise ValueError("noise amplitude must be nonnegative")
        if not self.steps:
            raise ValueError("script must contain at least one step")
        for s in self.steps:
            if s.hold <= 0:
                raise ValueError("hold durations must be positive")
            if not math.isfinite(s.hold / self.sample_period):
                raise ValueError(f"hold {s.hold} s is not a finite number of sample periods")


def parse_float(text, line: int) -> float:
    """A CSV cell as a float; ParseError naming the line if it is not a number."""
    try:
        return float(text)
    except (TypeError, ValueError) as exc:   # TypeError: a short row's None
        raise ParseError(str(exc), line=line) from exc


def parse_truth(text, line: int, name: str) -> float | None:
    """An optional ground-truth cell: None when empty or missing, else a finite float."""
    if not text:
        return None
    value = parse_float(text, line)
    if not math.isfinite(value):
        raise ParseError(f"non-finite {name} {value}", line=line)
    return value


def read_rows(path, required, optional=()):
    """Yield (line, cells) for each row of a CSV file, cells named by the header.

    The header must hold every `required` column, else a ParseError at line 1
    names those it lacks.  cells are those of the `required`, then the
    `optional` columns; an optional one the header lacks reads as None.  A
    UTF-8 byte-order mark and blank lines, before the header too, are skipped
    and not counted as lines; a repeated column name means its last column, a
    short row's missing cells read as None, and no dict is built per row.  A
    row `csv` refuses (an oversized field; a NUL byte before 3.11) is a ParseError,
    and so is the row of the first byte that is not UTF-8 (`_undecodable`).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        line = 0
        try:
            header = next((row for row in reader if row), [])
            line = 1
            if refusal := _missing_columns(header, required):
                raise refusal
            width = len(header)
            col = {name: j for j, name in enumerate(header)}
            # an absent column reads the None appended to every row at `width`
            index = [col.get(name, width) for name in (*required, *optional)]
            pick = itemgetter(*index) if len(index) > 1 else lambda row: (row[index[0]],)
            for row in reader:
                if not row:
                    continue
                line += 1
                if len(row) != width:
                    row = (row + [None] * width)[:width]
                row.append(None)
                yield line, pick(row)
        except csv.Error as exc:
            raise ParseError(str(exc), line=line + 1) from exc
        except UnicodeDecodeError as exc:
            raise _undecodable(path, required) from exc


def _missing_columns(header, required):
    """The line-1 refusal of a header that lacks a required column, or None."""
    if missing := set(required).difference(header):
        return ParseError(f"missing required columns {sorted(missing)}", line=1)
    return None


def _undecodable(path, required) -> ParseError:
    """The refusal of a file's first byte that is not UTF-8, at its row as `read_rows` counts rows.

    The text layer decodes ahead in 8 KB chunks, so `read_rows` meets the
    byte up to a chunk before its row; the row is counted again here, in the
    text before the byte, with a placeholder for the byte so that its row
    cannot read as blank.  A refusal that reading in order meets first, of a
    header that lacks a column or of a row `csv` refuses, is made instead.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode()   # a byte-order mark is valid UTF-8, so offsets count from the file's start
    except UnicodeDecodeError as exc:
        bad = exc.start
    line, header = 0, None
    try:
        for row in csv.reader(io.StringIO(data[:bad].decode("utf-8-sig") + "?", newline="")):
            if row:
                line, header = line + 1, header or row
        refusal = ParseError(f"byte 0x{data[bad]:02x} at offset {bad} is not UTF-8", line=line)
    except csv.Error as exc:
        refusal = ParseError(str(exc), line=line + 1)
    # the header is checked before any later row is read
    return (refusal.line > 1 and _missing_columns(header, required)) or refusal


def write_rows(path, header, template, rows) -> None:
    """Write a CSV header, then `template % row` per row tuple; to stdout when path is None.

    No cell the package writes needs quoting, so these are `csv.writer`'s bytes.
    """
    with open(path, "w", newline="") if path is not None else nullcontext(sys.stdout) as fh:
        fh.write(",".join(header) + "\n" + "".join([template % row for row in rows]))


def trace_values(r: TraceRecord) -> tuple[float, float, float]:
    """A record's t, volume and pressure in bench units, the cells of `TRACE_ROW`."""
    return r.t, r.v_f / ML_TO_M3, r.p


def write_estimates(path, records, estimates) -> None:
    """Write records' trace cells and their estimates in bench units, at 9 digits."""
    write_rows(path, (*TRACE_COLUMNS, "h1_mm", "h2_mm", "h3_mm", "force_n", "p_hat_pa", "flags"),
               TRACE_ROW + ",%.9g" * 5 + ",%s\n",
               [(*trace_values(r), e.h1 / MM_TO_M, e.h2 / MM_TO_M, e.h3 / MM_TO_M, e.force,
                 e.p_hat, "|".join(sorted(e.flags))) for r, e in zip(records, estimates)])


def ingest_trace(path) -> list[TraceRecord]:
    """Parse a trace CSV into SI records, validating monotone timestamps.

    Time, volume and any ground truth must be finite; an empty truth cell
    means no truth for that row.
    """
    records = []
    prev_t = None
    for i, (t, v_ml, p, f, h) in read_rows(path, TRACE_COLUMNS, ("force_n", "indent_mm")):
        t = parse_float(t, i)
        v_ml = parse_float(v_ml, i)
        p = parse_float(p, i)
        if not (math.isfinite(t) and math.isfinite(v_ml)):
            raise ParseError(f"non-finite time {t} or volume {v_ml}", line=i)
        if v_ml < 0:
            raise ParseError(f"negative volume {v_ml}", line=i)
        if prev_t is not None and t <= prev_t:
            raise ParseError(f"timestamp {t} not greater than previous {prev_t}", line=i)
        prev_t = t
        f_true = parse_truth(f, i, "force_n")
        h_mm = parse_truth(h, i, "indent_mm")
        records.append(TraceRecord(t, v_ml * ML_TO_M3, p, f_true,
                                   h_mm * MM_TO_M if h_mm is not None else None))
    return records


def write_trace(path, records) -> None:
    """Write records back to CSV, lossless at 9 significant digits."""
    if all(r.f_true is None and r.h2_true is None for r in records):
        write_rows(path, TRACE_COLUMNS, TRACE_ROW + "\n", map(trace_values, records))
        return
    write_rows(path, (*TRACE_COLUMNS, "force_n", "indent_mm"), TRACE_ROW + ",%s,%s\n", [(
        *trace_values(r), "" if r.f_true is None else "%.9g" % r.f_true,
        "" if r.h2_true is None else "%.9g" % (r.h2_true / MM_TO_M)) for r in records])


def read_calibration(path) -> list[tuple[float, float, str]]:
    """Parse a calibration CSV into SI (V_f [m3], h [m], phase) samples."""
    samples = []
    for i, (v_ml, h_mm, phase) in read_rows(path, ("volume_ml", "height_mm", "phase")):
        phase = (phase or "").strip()
        if phase not in ("inflate", "deflate"):
            raise ParseError(f"unknown phase {phase!r}", line=i)
        v = parse_float(v_ml, i) * ML_TO_M3
        h = parse_float(h_mm, i) * MM_TO_M
        if not (math.isfinite(v) and math.isfinite(h)):
            raise ParseError("volume_ml and height_mm must be finite", line=i)
        samples.append((v, h, phase))
    return samples


def run_trace(records, cfg: EstimatorConfig,
              state: EstimatorState = EstimatorState()) -> list[StateEstimate]:
    """Run the estimator over a trace from `state`; never aborts.

    Hands `step` each record's own volume and pressure, in order.  `step`
    raises no model error: a sample it cannot estimate is a flagged null
    estimate, so adversarial inputs cannot kill the run.  Timestamps are
    not read.
    """
    estimates = []
    for rec in records:
        est, state = step(state, rec.v_f, rec.p, cfg)
        estimates.append(est)
    return estimates


def _hold_equilibrium(v_f: float, force: float, cfg: EstimatorConfig) -> float:
    """The h2 at which a hold of (v_f, F) rests, checked stable.

    It is 0 where the update h2 <- `indent` moves h2 off rest by at most tol, as for any
    F <= 0; near rest F_eq is rounding.  Else Illinois false position on [0, h1] solves
    F = F_eq(h2), the force of `equilibrium`.  The bracket keeps F_eq - F <= 0 at its lower
    end (-F at rest) and > 0, or refused by `reconstruct`, at its upper end (h1); a refused
    point, or a step lost to rounding, is bisected.  It closes on some h2 where F_eq crosses
    F upward: not always the first where F_eq - F changes sign more than once, as on a
    softening material.  The update must contract at the root: |slope| < 1 over [lo, lo + tol].
    """
    g = reconstruct(v_f, 0.0, cfg)   # a volume outside the model raises here
    if indent(g, v_f, balance_pressure(g, v_f, force))[0] <= SIM_ROOT_TOL:
        return 0.0
    lo, hi, f_lo, f_hi, side = 0.0, g.h1, -force, math.inf, 0
    while hi - lo > SIM_ROOT_TOL:
        h2 = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)   # NaN while the upper end is refused
        h2 = h2 if lo < h2 < hi else (lo + hi) / 2
        try:
            f = equilibrium(v_f, h2, cfg)[1] - force
        except DegenerateGeometry:   # past the flat-membrane end of the curve
            f = math.inf
        if f > 0:   # halve the value kept at the other end if it is kept twice running
            hi, f_hi, f_lo, side = h2, f, f_lo / 2 if side > 0 else f_lo, 1
        else:
            lo, f_lo, f_hi, side = h2, f, f_hi / 2 if side < 0 else f_hi, -1
    if f_hi == math.inf:
        raise DegenerateGeometry(f"no indentation in [0, h1) balances F={force} at V_f={v_f}")
    phi = [indent(g, v_f, balance_pressure(g, v_f, force))[0]
           for g in (reconstruct(v_f, h, cfg) for h in (lo, lo + SIM_ROOT_TOL))]
    if not abs(phi[1] - phi[0]) < SIM_ROOT_TOL:
        raise NoConvergence(f"unstable equilibrium h2={lo} for V_f={v_f}, F={force}")
    return lo


def simulate_trace(script: SimScript, cfg: EstimatorConfig,
                   seed: int) -> list[TraceRecord]:
    """Generate a synthetic trace by running the model forward.

    Every hold is checked first (`_hold_equilibrium`); a refused hold raises
    its model error prefixed with the step's index, volume_ml and force_n.
    Then each sample reconstructs the shape once at the carried indentation,
    a bare float h2: the energy balance inverted on it at the scripted
    (volume, force) gives the pressure, and `estimator.indent`, the core of
    `step`, advances h2 from the same reconstruction, building no estimate
    or state.  h2 and the scripted
    force are the ground truth of a loop closed on the model itself.  Script
    values enter as floats, so numpy scalars give the same records.
    """
    for i, s in enumerate(script.steps):
        try:
            _hold_equilibrium(float(s.v_f), float(s.force), cfg)
        except (DegenerateGeometry, NoConvergence, OutOfRange) as exc:   # SI units, no step
            raise type(exc)(f"step {i} (volume_ml {s.v_f / ML_TO_M3:.6g}, "
                            f"force_n {s.force:.6g}): {exc}") from exc

    rng = np.random.default_rng(seed)
    records = []
    h2 = 0.0
    t = 0.0
    period = float(script.sample_period)
    # the sample loop's callables, looked up once per trace, not once per sample
    shape, pressure, update, emit = reconstruct, balance_pressure, indent, records.append
    for s in script.steps:
        v_f, force = float(s.v_f), float(s.force)
        # one draw per hold: the same values as n scalar draws, in order
        for dp in rng.normal(0.0, script.noise_pa, max(1, round(s.hold / period))).tolist():
            g = shape(v_f, h2, cfg)
            p_clean = pressure(g, v_f, force)
            h2 = update(g, v_f, p_clean)[0]
            emit(TraceRecord(t, v_f, p_clean + dp, force, h2))
            t += period
    return records


# Largest ground-truth |F| that rmse_p counts as no contact: a zero reading
# off by round-off still counts, and F h3 / V_f, its share of the pressure,
# stays below 0.03 Pa on the sample config (h3 / V_f <= 3.1e4 /m^2).
NO_CONTACT_FORCE_N = 1e-6


@dataclass(frozen=True)
class EvalReport:
    n_samples: int
    n_null: int
    rmse_f: float                 # [N]
    rmse_h2: float                # [m]
    rmse_p: float | None          # p_hat error, |F| <= NO_CONTACT_FORCE_N [Pa]
    window_rmse_f: float | None = None
    window_rmse_h2: float | None = None
    # the paper's units: an RMSE over the range that the same (non-null)
    # samples span, None where that range is 0
    h2_share_of_indent: float | None = None   # rmse_h2 / ground-truth h2 range
    h2_share_of_h1: float | None = None       # rmse_h2 / the estimates' h1 range
    f_share_of_force: float | None = None     # rmse_f / ground-truth force range


def evaluate(records, cfg: EstimatorConfig,
             contact_window: tuple[float, float] | None = None) -> EvalReport:
    """Run the estimator against a ground-truth trace and report RMSEs.

    rmse_p compares each estimate's p_hat (the F = 0 balance at its carried
    shape, see `StateEstimate`) against the measured pressure on samples
    with |F| <= NO_CONTACT_FORCE_N.  The
    optional contact window (t0, t1) additionally restricts the force and
    indentation errors, mirroring the split between the pre-contact region
    and the indentation region; it needs t0 <= t1, and neither may be NaN.
    The three shares give RMSE_h2 and RMSE_F in the paper's units.
    """
    if contact_window is not None and not contact_window[0] <= contact_window[1]:
        raise ValueError(f"contact window {contact_window} needs t0 <= t1")
    if not records or not all(r.has_truth for r in records):
        raise MissingGroundTruth("trace lacks force_n/indent_mm ground truth")

    estimates = run_trace(records, cfg)
    samples = np.array([(r.t, r.f_true, r.h2_true, r.p, e.force, e.h2, e.h1, e.p_hat)
                        for r, e in zip(records, estimates) if not e.is_null]).reshape(-1, 8)
    if not len(samples):
        raise MissingGroundTruth("no samples within the modeled volume range")
    t, f_true, h2_true, p, force, h2, h1, p_hat = samples.T

    rmse_f = rmse(force, f_true)
    rmse_h2 = rmse(h2, h2_true)
    free = np.abs(f_true) <= NO_CONTACT_FORCE_N
    rmse_p = rmse(p_hat[free], p[free]) if free.any() else None

    inside = np.zeros(len(t), bool) if contact_window is None else (
        (contact_window[0] <= t) & (t <= contact_window[1]))
    window = inside.any()
    return EvalReport(n_samples=len(records), n_null=len(records) - len(samples),
                      rmse_f=rmse_f, rmse_h2=rmse_h2, rmse_p=rmse_p,
                      window_rmse_f=rmse(force[inside], f_true[inside]) if window else None,
                      window_rmse_h2=rmse(h2[inside], h2_true[inside]) if window else None,
                      h2_share_of_indent=_share(rmse_h2, h2_true),
                      h2_share_of_h1=_share(rmse_h2, h1),
                      f_share_of_force=_share(rmse_f, f_true))


def _share(error: float, values) -> float | None:
    """error over the range of values, or None where that range is 0."""
    span = float(np.ptp(values))
    return error / span if span > 0 else None
