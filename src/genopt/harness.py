"""Deterministic experiment runner for the synthetic benchmark suite.

Everything here is a pure function of an experiment description plus a
seed: per-step mini-batches are derived from (seed, step), optimizer and
controller state is rebuilt from scratch each run, and wall time is the
only non-reproducible output. Blowing up is a recorded outcome ("diverged"
status), not an exception, so learning-rate grids can sweep unstable
territory without aborting the sweep.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    Array,
    BatchSelector,
    FULL_DATA,
    NonFiniteError,
    Objective,
    StepRecord,
    SyntheticNoise,
    all_finite,
    as_param_vector,
    norm,
)
from .gen import (
    GenController,
    auto_search_eta0,
    exact_eta_hvp,
    fit_quadratic,
    gen_update,
    probe_losses,
    smooth,
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

# a run halts and is marked diverged once any loss exceeds this
DIVERGENCE_LOSS = 1e12

# parameter-space tolerance used by convergence_metrics
CONVERGENCE_TOL = 1e-6

# baseline tuning grid: {1, 2, 5} x 10^-k for k = 5 .. 0, ascending
LR_GRID = tuple(m * 10.0 ** -k for k in range(5, -1, -1) for m in (1.0, 2.0, 5.0))

_GEN_DEFAULTS = {
    "eta0": "auto",
    "gamma": 0.9,
    "phi": 8,
    "probe_points": 3,
    "r2_threshold": 0.99,
    "decay": False,
    "estimator": "fit",
}

_PROBLEM_KINDS = ("rosenbrock", "beale", "quadratic", "logreg")
_OPTIMIZER_KINDS = ("sgd", "adamw", "newton")


class SpecError(ValueError):
    """Invalid experiment description. ``code`` is machine-greppable."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code

    def __reduce__(self):
        # a worker's error reaches the parent pickled; keep its code
        return type(self), (self.code, str(self))


class GridSearchError(RuntimeError):
    """Every learning rate on the tuning grid diverged."""

    def __init__(self, message: str, rows=None):
        super().__init__(message)
        self.rows = rows or []


@dataclass
class ExperimentSpec:
    """Serializable description of one optimization run.

    Exactly one of ``eta`` (fixed learning rate) and ``gen`` (adaptive
    controller settings) drives the run. ``start_point`` defaults to the
    problem's documented start. ``batch_size`` switches a logistic
    problem to per-step seeded mini-batches; deterministic problems must
    leave it unset.
    """

    problem: Dict
    optimizer: Dict
    iterations: int
    name: str = "experiment"
    eta: Optional[float] = None
    gen: Optional[Dict] = None
    start_point: Optional[Sequence[float]] = None
    seed: int = 0
    log_every: int = 1
    batch_size: Optional[int] = None

    def to_dict(self) -> Dict:
        out = {
            "name": self.name,
            "problem": dict(self.problem),
            "optimizer": dict(self.optimizer),
            "iterations": self.iterations,
            "seed": self.seed,
            "log_every": self.log_every,
        }
        if self.eta is not None:
            out["eta"] = self.eta
        if self.gen is not None:
            out["gen"] = dict(self.gen)
        if self.start_point is not None:
            out["start_point"] = [float(v) for v in self.start_point]
        if self.batch_size is not None:
            out["batch_size"] = self.batch_size
        return out


@dataclass
class RunResult:
    """Trajectory and terminal state of one run.

    ``records`` holds one entry per logged step, ordered by step, each
    carrying the post-step loss on that step's batch; ``final_loss``
    always equals the last record's loss. ``ws`` keeps every parameter
    iterate including the start (so convergence metrics can see w0), and
    ``gen_stats`` the controller's guard counters when a controller ran.
    """

    records: List[StepRecord]
    final_w: Array
    final_loss: float
    wall_time: float
    status: str = "ok"
    ws: List[Array] = field(default_factory=list)
    gen_stats: Optional[Dict[str, int]] = None


@dataclass
class ErrorScalingResult:
    """Per-batch-size candidate spread plus the fitted log-log slope."""

    rows: List[Tuple[int, float]]
    slope: float


# ---------------------------------------------------------------------------
# validation

def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_keys(data: Dict, allowed, required, where: str):
    if not isinstance(data, dict):
        raise SpecError("config.not-a-mapping", f"{where} must be a mapping")
    for key in data:
        if key not in allowed:
            raise SpecError("config.unknown-key",
                            f"unknown key {key!r} at {where}")
    for key in required:
        if key not in data:
            raise SpecError("config.missing-key",
                            f"missing required key {key!r} at {where}")


def _validate_problem(data: Dict, where: str) -> Dict:
    _check_keys(data, {"kind", "matrix_a", "offset", "seed", "n", "d",
                       "l2_penalty"}, {"kind"}, where)
    kind = data["kind"]
    if kind not in _PROBLEM_KINDS:
        raise SpecError("config.problem.kind",
                        f"unknown problem kind {kind!r} at {where}; "
                        f"expected one of {_PROBLEM_KINDS}")
    if kind in ("rosenbrock", "beale"):
        extra = set(data) - {"kind"}
        if extra:
            raise SpecError("config.unknown-key",
                            f"unknown key {sorted(extra)[0]!r} at {where} "
                            f"(problem {kind!r} takes no parameters)")
    elif kind == "quadratic":
        _check_keys(data, {"kind", "matrix_a", "offset"},
                    {"kind", "matrix_a"}, where)
        a = data["matrix_a"]
        if (not isinstance(a, list) or not a
                or any(not isinstance(row, list) or len(row) != len(a)
                       or any(not _is_num(v) for v in row) for row in a)):
            raise SpecError("config.problem.matrix",
                            f"matrix_a at {where} must be a square matrix "
                            f"of numbers")
        off = data.get("offset")
        if off is not None and (not isinstance(off, list) or len(off) != len(a)
                                or any(not _is_num(v) for v in off)):
            raise SpecError("config.problem.offset",
                            f"offset at {where} must be a list of "
                            f"{len(a)} numbers")
    else:  # logreg
        _check_keys(data, {"kind", "seed", "n", "d", "l2_penalty"},
                    {"kind", "seed", "n", "d"}, where)
        if not _is_int(data["seed"]) or data["seed"] < 0:
            raise SpecError("config.problem.seed",
                            f"seed at {where} must be a non-negative integer")
        if not _is_int(data["n"]) or data["n"] < 2:
            raise SpecError("config.problem.n",
                            f"n at {where} must be an integer >= 2")
        if not _is_int(data["d"]) or data["d"] < 1:
            raise SpecError("config.problem.d",
                            f"d at {where} must be an integer >= 1")
        l2 = data.get("l2_penalty", 0.0)
        if not _is_num(l2) or l2 < 0:
            raise SpecError("config.problem.l2",
                            f"l2_penalty at {where} must be a number >= 0")
    return dict(data)


def _validate_post_processor(data: Dict, where: str) -> Dict:
    _check_keys(data, {"kind", "max_norm", "mask"}, {"kind"}, where)
    kind = data.get("kind")
    if kind not in ("identity", "sign", "clip", "mask"):
        raise SpecError("config.post.kind",
                        f"unknown post_process kind {kind!r} at {where}")
    if kind == "clip":
        _check_keys(data, {"kind", "max_norm"}, {"kind", "max_norm"}, where)
        if not _is_num(data["max_norm"]) or data["max_norm"] <= 0:
            raise SpecError("config.post.max-norm",
                            f"max_norm at {where} must be a number > 0")
    elif kind == "mask":
        _check_keys(data, {"kind", "mask"}, {"kind", "mask"}, where)
        m = data["mask"]
        if not isinstance(m, list) or any(v not in (0, 1) for v in m):
            raise SpecError("config.post.mask",
                            f"mask at {where} must be a list of 0/1 entries")
    else:
        extra = set(data) - {"kind"}
        if extra:
            raise SpecError("config.unknown-key",
                            f"unknown key {sorted(extra)[0]!r} at {where}")
    return dict(data)


def _validate_optimizer(data: Dict, where: str) -> Dict:
    _check_keys(data, {"kind", "momentum", "weight_decay", "beta1", "beta2",
                       "epsilon", "post_process"}, {"kind"}, where)
    kind = data["kind"]
    if kind not in _OPTIMIZER_KINDS:
        raise SpecError("config.optimizer.kind",
                        f"unknown optimizer kind {kind!r} at {where}; "
                        f"expected one of {_OPTIMIZER_KINDS}")
    allowed = {
        "sgd": {"kind", "momentum", "weight_decay", "post_process"},
        "adamw": {"kind", "beta1", "beta2", "epsilon", "weight_decay",
                  "post_process"},
        "newton": {"kind", "post_process"},
    }[kind]
    for key in data:
        if key not in allowed:
            raise SpecError("config.unknown-key",
                            f"unknown key {key!r} at {where} for "
                            f"optimizer kind {kind!r}")
    for key in ("momentum", "beta1", "beta2"):
        if key in data:
            v = data[key]
            if not _is_num(v) or not 0.0 <= v < 1.0:
                raise SpecError(f"config.optimizer.{key}",
                                f"{key} at {where} must be in [0, 1)")
    if "weight_decay" in data:
        v = data["weight_decay"]
        if not _is_num(v) or v < 0:
            raise SpecError("config.optimizer.weight-decay",
                            f"weight_decay at {where} must be >= 0")
    if "epsilon" in data:
        v = data["epsilon"]
        if not _is_num(v) or v <= 0:
            raise SpecError("config.optimizer.epsilon",
                            f"epsilon at {where} must be > 0")
    if "post_process" in data:
        _validate_post_processor(data["post_process"],
                                 f"{where}.post_process")
    return dict(data)


def _validate_gen(data: Dict, where: str) -> Dict:
    _check_keys(data, set(_GEN_DEFAULTS), set(), where)
    cfg = dict(_GEN_DEFAULTS, **data)
    if cfg["eta0"] != "auto" and (not _is_num(cfg["eta0"]) or cfg["eta0"] <= 0):
        raise SpecError("config.gen.eta0",
                        f"eta0 at {where} must be a positive number or 'auto'")
    if not _is_num(cfg["gamma"]) or not 0.0 <= cfg["gamma"] < 1.0:
        raise SpecError("config.gen.gamma",
                        f"gamma at {where} must be in [0, 1)")
    if not _is_int(cfg["phi"]) or cfg["phi"] < 1:
        raise SpecError("config.gen.phi",
                        f"phi at {where} must be an integer >= 1")
    if not _is_int(cfg["probe_points"]) or cfg["probe_points"] not in (3, 5):
        raise SpecError("config.gen.probe-points",
                        f"probe_points at {where} must be 3 or 5")
    if not _is_num(cfg["r2_threshold"]) or not 0.0 < cfg["r2_threshold"] <= 1.0:
        raise SpecError("config.gen.r2-threshold",
                        f"r2_threshold at {where} must be in (0, 1]")
    if not isinstance(cfg["decay"], bool):
        raise SpecError("config.gen.decay",
                        f"decay at {where} must be a boolean")
    if cfg["estimator"] not in ("fit", "hvp"):
        raise SpecError("config.gen.estimator",
                        f"estimator at {where} must be 'fit' or 'hvp'")
    if cfg["decay"] and cfg["estimator"] == "hvp":
        raise SpecError("config.gen.decay-hvp",
                        f"decay is not supported with the hvp estimator "
                        f"(at {where})")
    return cfg


def spec_from_dict(data: Dict, where: str = "experiment") -> ExperimentSpec:
    """Validate a plain mapping into an ExperimentSpec.

    Unknown keys anywhere in the tree are hard errors, as are type and
    range violations; every error carries a stable ``code``.
    """
    _check_keys(data, {"name", "problem", "optimizer", "eta", "gen",
                       "start_point", "iterations", "seed", "log_every",
                       "batch_size"},
                {"problem", "optimizer", "iterations"}, where)
    name = data.get("name", "experiment")
    if not isinstance(name, str) or not name or any(
            c not in "abcdefghijklmnopqrstuvwxyz"
                     "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-" for c in name):
        raise SpecError("config.name",
                        f"name at {where} must use only letters, digits, "
                        f"'.', '_', '-'")
    problem = _validate_problem(data["problem"], f"{where}.problem")
    optimizer = _validate_optimizer(data["optimizer"], f"{where}.optimizer")
    if not _is_int(data["iterations"]) or data["iterations"] < 1:
        raise SpecError("config.iterations",
                        f"iterations at {where} must be an integer >= 1")
    seed = data.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise SpecError("config.seed",
                        f"seed at {where} must be a non-negative integer")
    log_every = data.get("log_every", 1)
    if not _is_int(log_every) or log_every < 1:
        raise SpecError("config.log-every",
                        f"log_every at {where} must be an integer >= 1")
    eta = data.get("eta")
    if eta is not None and (not _is_num(eta) or eta <= 0
                            or not math.isfinite(eta)):
        raise SpecError("config.eta",
                        f"eta at {where} must be a positive finite number")
    gen = data.get("gen")
    if gen is not None:
        gen = _validate_gen(gen, f"{where}.gen")
    if eta is not None and gen is not None:
        raise SpecError("config.eta-and-gen",
                        f"{where} sets both a fixed eta and gen settings; "
                        f"pick one")
    start = data.get("start_point")
    if start is not None and (not isinstance(start, list) or not start
                              or any(not _is_num(v) for v in start)):
        raise SpecError("config.start-point",
                        f"start_point at {where} must be a list of numbers")
    batch_size = data.get("batch_size")
    if batch_size is not None:
        if not _is_int(batch_size) or batch_size < 1:
            raise SpecError("config.batch-size",
                            f"batch_size at {where} must be an integer >= 1")
        if problem["kind"] != "logreg":
            raise SpecError("config.batch-size.not-stochastic",
                            f"batch_size at {where} requires a logreg "
                            f"problem; {problem['kind']!r} is deterministic")
    return ExperimentSpec(
        name=name, problem=problem, optimizer=optimizer,
        iterations=data["iterations"], eta=eta, gen=gen,
        start_point=list(start) if start is not None else None,
        seed=seed, log_every=log_every, batch_size=batch_size,
    )


# ---------------------------------------------------------------------------
# builders

def build_problem(data: Dict) -> Objective:
    kind = data["kind"]
    if kind == "rosenbrock":
        return RosenbrockProblem()
    if kind == "beale":
        return BealeProblem()
    if kind == "quadratic":
        return QuadraticProblem(data["matrix_a"], offset=data.get("offset"))
    if kind == "logreg":
        return _logreg_dataset(data["seed"], data["n"], data["d"],
                               float(data.get("l2_penalty", 0.0)))
    raise SpecError("config.problem.kind", f"unknown problem kind {kind!r}")


@functools.lru_cache(maxsize=1)
def _logreg_dataset(seed: int, n: int, d: int,
                    l2_penalty: float) -> LogisticRegressionProblem:
    # one build per process for the experiments of a command that share a
    # dataset; the Objective contract makes the shared instance safe, since
    # no evaluation changes a later result
    return generate_dataset(seed, n, d, l2_penalty=l2_penalty)


def _build_post_processor(data: Optional[Dict]):
    if data is None:
        return None
    kind = data["kind"]
    if kind == "identity":
        return Identity()
    if kind == "sign":
        return SignSgd()
    if kind == "clip":
        return ClipToNorm(float(data["max_norm"]))
    return Mask(data["mask"])


def build_direction_fn(problem: Objective, optimizer: Dict) -> Callable:
    """Return a stateful (raw_grad, w, batch) -> direction callable."""
    kind = optimizer["kind"]
    pp = _build_post_processor(optimizer.get("post_process"))
    if kind == "sgd":
        state = SgdState(problem.dim,
                         momentum=optimizer.get("momentum", 0.0),
                         weight_decay=optimizer.get("weight_decay", 0.0))

        def raw(g, w, batch):
            return sgd_direction(state, g, w)
    elif kind == "adamw":
        state = AdamWState(problem.dim,
                           beta1=optimizer.get("beta1", 0.9),
                           beta2=optimizer.get("beta2", 0.999),
                           epsilon=optimizer.get("epsilon", 1e-8),
                           weight_decay=optimizer.get("weight_decay", 0.0))

        def raw(g, w, batch):
            return adamw_direction(state, g, w)
    elif kind == "newton":
        def raw(g, w, batch):
            return np.linalg.solve(problem.hessian(w, batch), g)
    else:
        raise SpecError("config.optimizer.kind",
                        f"unknown optimizer kind {kind!r}")
    if pp is None:
        return raw
    return lambda g, w, batch: post_process(pp, raw(g, w, batch))


def _step_batch(seed: int, step: int, batch_size: Optional[int]) -> BatchSelector:
    if batch_size is None:
        return FULL_DATA
    child = int(np.random.SeedSequence([seed, step]).generate_state(1)[0])
    return SyntheticNoise(seed=child, batch_size=batch_size)


# ---------------------------------------------------------------------------
# core loop

def _execute(problem: Objective, direction_fn: Callable, *, iterations: int,
             eta: Optional[float] = None, gen_cfg: Optional[Dict] = None,
             start_point=None, seed: int = 0, log_every: int = 1,
             batch_size: Optional[int] = None) -> RunResult:
    t_begin = time.perf_counter()
    start = start_point if start_point is not None else problem.default_start
    if start is None:
        raise SpecError("config.start-point",
                        "problem has no default start; set start_point")
    w = as_param_vector(start, dim=problem.dim)
    ws = [w.copy()]
    records: List[StepRecord] = []
    status = "ok"
    mode = "fixed" if gen_cfg is None else gen_cfg["estimator"]
    ctrl: Optional[GenController] = None
    hvp_state: Optional[Dict[str, int]] = None
    if mode == "fixed" and eta is None:
        raise SpecError("config.needs-eta-or-gen",
                        "experiment needs a fixed eta or gen settings")
    # on the full batch the post-step (loss, grad) is the next step's start
    constant_batch = batch_size is None
    carried: Optional[Tuple[float, Array]] = None

    def diverged(t: int, l0: float, grad_norm: float) -> str:
        # record the step whose loss, gradient or direction blew up
        records.append(StepRecord(
            step=t, loss=l0, eta=float(eta) if eta is not None else math.nan,
            grad_norm=grad_norm))
        return "diverged"

    with np.errstate(over="ignore", invalid="ignore", under="ignore",
                     divide="ignore"):
        for t in range(1, iterations + 1):
            batch = _step_batch(seed, t, batch_size)
            if carried is not None:
                l0, g = carried
            else:
                l0, g = problem.loss_grad(w, batch)
            l0 = float(l0)
            if not math.isfinite(l0) or l0 > DIVERGENCE_LOSS:
                status = diverged(t, l0, math.nan)
                break
            g = np.asarray(g, dtype=np.float64)
            if not all_finite(g):
                status = diverged(t, l0, math.nan)
                break
            d = np.asarray(direction_fn(g, w, batch), dtype=np.float64)
            if not all_finite(d):
                status = diverged(t, l0, norm(g))
                break

            if mode != "fixed" and eta is None:
                # first step: resolve the starting rate, then build state
                if gen_cfg["eta0"] == "auto":
                    eta = auto_search_eta0(problem, w, d, batch, l_zero=l0)
                else:
                    eta = float(gen_cfg["eta0"])
                if mode == "fit":
                    ctrl = GenController(
                        eta=eta, gamma=gen_cfg["gamma"], phi=gen_cfg["phi"],
                        probe_points=gen_cfg["probe_points"],
                        r2_threshold=gen_cfg["r2_threshold"],
                        horizon=iterations if gen_cfg["decay"] else None,
                        decay_enabled=gen_cfg["decay"])
                else:
                    hvp_state = {"step": 0, "attempts": 0, "accepted": 0,
                                 "rejected": 0}

            if mode == "fit":
                eta, gen_rec = gen_update(ctrl, problem, w, d, batch,
                                          l_zero=l0)
            elif mode == "hvp":
                hvp_state["step"] += 1
                candidate = None
                took = False
                if hvp_state["step"] % gen_cfg["phi"] == 0:
                    hvp_state["attempts"] += 1
                    candidate = exact_eta_hvp(problem, w, g, d, batch=batch)
                    if (candidate is not None and candidate > 0
                            and math.isfinite(candidate)):
                        eta = smooth(eta, candidate, gen_cfg["gamma"])
                        took = True
                        hvp_state["accepted"] += 1
                    else:
                        hvp_state["rejected"] += 1
                gen_rec = StepRecord(step=t, loss=l0, eta=eta,
                                     grad_norm=0.0, eta_candidate=candidate,
                                     fit_accepted=took, fit_r2=None)
            else:
                gen_rec = None

            grad_norm = norm(g)
            try:
                w = apply_step(w, eta, d)
            except NonFiniteError:
                status = "diverged"
                base = gen_rec if gen_rec is not None else StepRecord(
                    step=t, loss=l0, eta=float(eta), grad_norm=grad_norm)
                records.append(replace(base, loss=l0, grad_norm=grad_norm))
                break
            ws.append(w.copy())
            if constant_batch and t < iterations:
                carried = problem.loss_grad(w, batch)
                l_post = float(carried[0])
            else:
                l_post = float(problem.loss(w, batch))
            blew_up = not math.isfinite(l_post) or l_post > DIVERGENCE_LOSS
            if blew_up:
                status = "diverged"
            if blew_up or t % log_every == 0 or t == iterations:
                base = gen_rec if gen_rec is not None else StepRecord(
                    step=t, loss=0.0, eta=float(eta), grad_norm=0.0)
                records.append(replace(base, loss=l_post,
                                       grad_norm=grad_norm))
            if blew_up:
                break

    gen_stats = None
    if ctrl is not None:
        gen_stats = {"fit_attempts": ctrl.fit_attempts,
                     "fits_accepted": ctrl.fits_accepted,
                     "fits_rejected": ctrl.fits_rejected}
    elif hvp_state is not None:
        gen_stats = {"fit_attempts": hvp_state["attempts"],
                     "fits_accepted": hvp_state["accepted"],
                     "fits_rejected": hvp_state["rejected"]}
    final_loss = records[-1].loss if records else math.nan
    return RunResult(records=records, final_w=w, final_loss=final_loss,
                     wall_time=time.perf_counter() - t_begin, status=status,
                     ws=ws, gen_stats=gen_stats)


def run_experiment(spec: ExperimentSpec) -> RunResult:
    """Execute one experiment end to end, bit-reproducibly.

    The spec is round-tripped through its serialized form first, so any
    spec that runs is guaranteed to validate, serialize, and reproduce.
    """
    spec = spec_from_dict(spec.to_dict(), where=spec.name)
    if spec.eta is None and spec.gen is None:
        raise SpecError("config.needs-eta-or-gen",
                        f"experiment {spec.name!r} needs either eta or gen")
    problem = build_problem(spec.problem)
    if spec.start_point is not None:
        start = as_param_vector(spec.start_point, dim=problem.dim)
    else:
        start = None
    if spec.batch_size is not None and spec.batch_size > problem.n_samples:
        raise SpecError("config.batch-size.too-large",
                        f"batch_size {spec.batch_size} exceeds dataset size "
                        f"{problem.n_samples}")
    direction_fn = build_direction_fn(problem, spec.optimizer)
    return _execute(problem, direction_fn, iterations=spec.iterations,
                    eta=spec.eta, gen_cfg=spec.gen, start_point=start,
                    seed=spec.seed, log_every=spec.log_every,
                    batch_size=spec.batch_size)


# ---------------------------------------------------------------------------
# studies

def _as_problem(problem: Union[Objective, Dict]) -> Objective:
    if isinstance(problem, Objective):
        return problem
    return build_problem(_validate_problem(dict(problem), "problem"))


def grid_search_rows(problem: Union[Objective, Dict], optimizer: Dict,
                     iterations: int, *, start_point=None, seed: int = 0,
                     batch_size: Optional[int] = None) -> List[Dict]:
    """Run every grid learning rate once; one row per rate, grid order."""
    obj = _as_problem(problem)
    optimizer = _validate_optimizer(dict(optimizer), "optimizer")
    if optimizer.get("kind") not in ("sgd", "adamw"):
        raise SpecError("config.grid.optimizer",
                        "grid search tunes fixed-eta baselines; use an sgd "
                        "or adamw optimizer")
    rows = []
    for eta in LR_GRID:
        direction_fn = build_direction_fn(obj, optimizer)
        result = _execute(obj, direction_fn, iterations=iterations, eta=eta,
                          start_point=start_point, seed=seed,
                          log_every=iterations, batch_size=batch_size)
        rows.append({"eta": eta, "final_loss": result.final_loss,
                     "status": result.status})
    return rows


def grid_search_baseline(problem: Union[Objective, Dict], optimizer: Dict,
                         iterations: int, *, start_point=None, seed: int = 0,
                         batch_size: Optional[int] = None
                         ) -> Tuple[float, float]:
    """Tune a constant learning rate over the 18-point grid.

    Returns (best_eta, best_final_loss), ties broken toward the smaller
    rate. Raises GridSearchError with the full table attached when every
    rate diverges.
    """
    rows = grid_search_rows(problem, optimizer, iterations,
                            start_point=start_point, seed=seed,
                            batch_size=batch_size)
    best = pick_best_row(rows)
    if best is None:
        lines = ", ".join(f"eta={r['eta']:g}:{r['status']}" for r in rows)
        raise GridSearchError(
            f"all {len(rows)} grid learning rates diverged ({lines})", rows)
    return best["eta"], best["final_loss"]


def pick_best_row(rows: List[Dict]) -> Optional[Dict]:
    """Lowest-final-loss non-diverged grid row; earlier rows win ties."""
    best = None
    for row in rows:
        if row["status"] != "ok":
            continue
        if best is None or row["final_loss"] < best["final_loss"]:
            best = row
    return best


def error_scaling_study(problem: LogisticRegressionProblem,
                        batch_sizes: Sequence[int], trials: int, seed: int,
                        *, eta_prev: float = 0.1) -> ErrorScalingResult:
    """Spread of the fitted step-size candidate across mini-batch draws.

    Holds the evaluation point fixed, redraws `trials` seeded batches per
    batch size, and reports the sample standard deviation of the 3-point
    candidate plus the slope of log(std) against log(B). Statistical
    theory says the slope should sit near -1/2.
    """
    if not isinstance(problem, LogisticRegressionProblem):
        raise TypeError("error_scaling_study needs a LogisticRegressionProblem")
    if trials < 50:
        raise ValueError("trials must be >= 50 for a stable spread estimate")
    if not batch_sizes:
        raise ValueError("batch_sizes must be non-empty")
    for b in batch_sizes:
        if not _is_int(b) or b < 1 or b > problem.n_samples:
            raise ValueError(f"batch size {b!r} outside [1, {problem.n_samples}]")

    # fixed, seeded evaluation point with nonzero gradient
    w = 0.1 * np.random.default_rng(seed).standard_normal(problem.dim)
    rows: List[Tuple[int, float]] = []
    for bi, b in enumerate(batch_sizes):
        candidates = np.empty(trials)
        for t in range(trials):
            child = int(np.random.SeedSequence([seed, bi, t])
                        .generate_state(1)[0])
            batch = SyntheticNoise(seed=child, batch_size=int(b))
            l0, g = problem.loss_grad(w, batch)
            probes = probe_losses(problem, w, g, eta_prev, batch, 3,
                                  l_zero=l0)
            fit = fit_quadratic(probes)
            if fit.curvature <= 0:
                raise RuntimeError(
                    f"degenerate curvature at B={b}, trial {t}; the "
                    f"objective should be convex along its gradient")
            candidates[t] = fit.eta_candidate
        # identical draws (e.g. B = n) have zero spread by definition;
        # don't let the rounding of a trials-term mean masquerade as noise
        if np.ptp(candidates) == 0.0:
            spread = 0.0
        else:
            spread = float(np.std(candidates, ddof=1))
        rows.append((int(b), spread))

    pts = [(b, s) for b, s in rows if s > 0.0]
    if len(pts) >= 2:
        slope = float(np.polyfit(np.log10([b for b, _ in pts]),
                                 np.log10([s for _, s in pts]), 1)[0])
    else:
        slope = math.nan
    return ErrorScalingResult(rows=rows, slope=slope)


def convergence_metrics(result: RunResult, optimum
                        ) -> Tuple[Optional[int], List[float]]:
    """Iterations until ||w - w*|| <= CONVERGENCE_TOL, plus error ratios.

    The ratio list holds ||e_{t+1}|| / ||e_t||^2 for consecutive iterates
    (a bounded sequence indicates quadratic-rate convergence); it stops at
    the first exact zero error. A diverged run reports no
    iterations-to-tolerance.
    """
    w_star = as_param_vector(optimum)
    errs = [norm(w - w_star) for w in result.ws]
    iters: Optional[int] = None
    if result.status == "ok":
        for i, e in enumerate(errs):
            if e <= CONVERGENCE_TOL:
                iters = i
                break
    ratios: List[float] = []
    for i in range(len(errs) - 1):
        if errs[i] == 0.0:
            break
        ratios.append(errs[i + 1] / errs[i] ** 2)
    return iters, ratios
