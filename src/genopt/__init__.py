"""Adaptive learning rates from probe losses, plus a benchmark harness.

The central idea: for any descent direction d, the one-dimensional slice
L(w - eta * d) is nearly quadratic, so two or four extra forward
evaluations pin down the step size eta* = slope / curvature that a
second-order method would pick, with no back-propagation through the
Hessian. ``gen_update`` wraps that estimate in acceptance guards and
smoothing so it can steer any base optimizer (SGD, AdamW, sign, clipped,
masked variants) over a whole run.
"""

from .core import (
    Array,
    BatchSelector,
    DimensionMismatchError,
    FULL_DATA,
    FullData,
    NonFiniteError,
    Objective,
    StepRecord,
    SyntheticNoise,
    as_param_vector,
)
from .gen import (
    CLAMP_FACTOR,
    ETA0_GRID,
    GenController,
    NonFiniteProbeLoss,
    QuadraticFit,
    REJECTED,
    auto_search_eta0,
    exact_eta_hvp,
    fit_quadratic,
    gen_update,
    probe_losses,
    smooth,
)
from .harness import (
    CONVERGENCE_TOL,
    DIVERGENCE_LOSS,
    ExperimentSpec,
    LR_GRID,
    RunResult,
    SpecError,
    build_problem,
    convergence_metrics,
    grid_search_rows,
    run_experiment,
    spec_from_dict,
)
from .optim import (
    AdamWState,
    ClipToNorm,
    Identity,
    Mask,
    SgdState,
    SignSgd,
    adamw_direction,
    apply_step,
    post_process,
    sgd_direction,
)
from .problems import (
    BealeProblem,
    LogisticRegressionProblem,
    QuadraticProblem,
    RosenbrockProblem,
    generate_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "AdamWState", "Array", "BatchSelector", "BealeProblem", "CLAMP_FACTOR",
    "CONVERGENCE_TOL", "ClipToNorm", "DIVERGENCE_LOSS",
    "DimensionMismatchError", "ETA0_GRID", "ExperimentSpec", "FULL_DATA",
    "FullData", "GenController", "Identity", "LR_GRID",
    "LogisticRegressionProblem", "Mask", "NonFiniteError",
    "NonFiniteProbeLoss", "Objective", "QuadraticFit", "QuadraticProblem",
    "REJECTED", "RosenbrockProblem", "RunResult", "SgdState", "SignSgd",
    "SpecError", "StepRecord", "SyntheticNoise", "adamw_direction",
    "apply_step", "as_param_vector", "auto_search_eta0", "build_problem",
    "convergence_metrics", "exact_eta_hvp", "fit_quadratic", "gen_update",
    "generate_dataset", "grid_search_rows", "post_process", "probe_losses",
    "run_experiment", "sgd_direction", "smooth", "spec_from_dict",
]
