"""Liquid-driven ballooning membrane actuator modeling and state estimation."""

from .calibration import HeightFit, evaluate_height, fit_height_poly
from .errors import (
    BmaError,
    DegenerateGeometry,
    IllConditioned,
    InsufficientData,
    LengthMismatch,
    MissingGroundTruth,
    NoConvergence,
    OutOfRange,
    ParseError,
)
from .estimator import (
    EstimatorConfig,
    EstimatorState,
    StateEstimate,
    predict_pressure,
    rmse,
    step,
)
from .geometry import (
    RingSpec,
    profile_polyline,
    solve_axes,
    sphere_baseline,
)
from .harness import (
    EvalReport,
    SimScript,
    SimStep,
    TraceRecord,
    evaluate,
    ingest_trace,
    run_trace,
    simulate_trace,
    write_trace,
)
from .material import (
    YeohCoeffs,
    perimeter,
    yeoh_energy_density,
)

__version__ = "0.1.0"
