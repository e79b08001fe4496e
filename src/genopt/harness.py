"""Deterministic experiment runner for the synthetic benchmark suite.

Everything here is a pure function of an experiment description plus a
seed: per-step mini-batches are derived from (seed, step), optimizer and
controller state is rebuilt from scratch each run, and wall time is the
only non-reproducible output. Blowing up is a recorded outcome ("diverged"
status), not an exception, so learning-rate grids can sweep unstable
territory without aborting the sweep.
"""

from __future__ import annotations

import array
import functools
import itertools
import math
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    SETTINGS,
    Array,
    BatchSelector,
    FULL_DATA,
    NonFiniteError,
    Objective,
    StepRecord,
    SyntheticNoise,
    _is_finite_num,
    all_finite,
    as_param_vector,
    finite_array,
    norm,
)
from .gen import (
    NO_ESTIMATE,
    GenController,
    auto_search_eta0,
    gen_update,
)
from .optim import (
    AdamWState,
    ClipToNorm,
    Identity,
    Mask,
    SgdState,
    SignSgd,
    _adamw_rule,
    _sgd_rule,
    apply_step,
    post_process,
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

# defaults of the gen settings GenController does not take; the
# controller declares the others
_GEN_DEFAULTS = {"eta0": "auto", "decay": False}

# config section -> kind -> (keys the kind takes besides "kind", the keys
# it requires, what builds it), the kinds in the order the unknown-kind
# errors list them. A problem or post-processor builder is called with
# the keys its mapping sets; an optimizer's is its (state, rule) pair,
# and newton, which keeps no state, has none. A problem's entry ends with
# what reads the parameter dimension from its validated mapping.
KINDS = {
    "problem.": {
        "rosenbrock": ((), (), RosenbrockProblem, lambda p: 2),
        "beale": ((), (), BealeProblem, lambda p: 2),
        "quadratic": (("matrix_a", "offset"), ("matrix_a",),
                      QuadraticProblem, lambda p: len(p["matrix_a"])),
        # an unset penalty and 0 share one memo key
        "logreg": (("seed", "n", "d", "l2_penalty"), ("seed", "n", "d"),
                   lambda seed, n, d, l2_penalty=0.0: _logreg_dataset(
                       seed, n, d, float(l2_penalty)),
                   lambda p: p["d"]),
    },
    "optimizer.": {
        "sgd": (("momentum", "weight_decay", "post_process"), (),
                (SgdState, _sgd_rule)),
        "adamw": (("beta1", "beta2", "epsilon", "weight_decay",
                   "post_process"), (), (AdamWState, _adamw_rule)),
        "newton": (("post_process",), (), None),
    },
    "post.": {
        "identity": ((), (), Identity),
        "sign": ((), (), SignSgd),
        "clip": (("max_norm",), ("max_norm",), ClipToNorm),
        "mask": (("mask",), ("mask",), Mask),
    },
}
# each section's keys that some kind of it takes, "kind" among them
_SECTION_KEYS = {
    section: {"kind"}.union(*(keys for keys, *_ in kinds.values()))
    for section, kinds in KINDS.items()}


class SpecError(ValueError):
    """Invalid config or command line. ``code`` is machine-greppable."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code

    def __reduce__(self):
        # a worker's error reaches the parent pickled; keep its code
        return type(self), (self.code, str(self))


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


# a logged step's float64 row and the bits of its flags byte (RunResult)
_LOG_COLUMNS = ("step", "loss", "eta", "grad_norm", "eta_candidate",
                "fit_r2")
_LOG_ROW = struct.Struct(f"{len(_LOG_COLUMNS)}d")
_ACCEPTED, _HAS_CANDIDATE, _HAS_R2 = 1, 2, 4


@dataclass
class RunResult:
    """Trajectory and terminal state of one run.

    A run keeps one entry per logged step, ordered by step, each carrying
    the post-step loss on that step's batch, as packed columns: ``log``
    holds one float64 row per step (step, loss, eta, grad_norm,
    eta_candidate, fit_r2, NaN standing in for None) and ``log_flags``
    one byte (fit_accepted, then whether eta_candidate and fit_r2 are
    set), so a run keeps 49 bytes per logged step. ``records`` builds the
    ``StepRecord`` list from them on each read, and ``column`` reads one
    float column. ``final_loss`` always equals the last record's loss.
    ``ws`` is one C-contiguous (n_iterates, dim) float64 array: row 0 is
    the start (so convergence metrics can see w0) and each later row the
    iterate of one successful step, so a run keeps ``8 * dim`` bytes per
    step. ``final_w`` equals its last row and is an array of its own.
    ``gen_stats`` holds the controller's guard counters when a controller
    ran.
    """

    log: array.array
    log_flags: array.array
    final_w: Array
    final_loss: float
    wall_time: float
    status: str = "ok"
    ws: Array = field(default_factory=lambda: np.empty((0, 0)))
    gen_stats: Optional[Dict[str, int]] = None

    def steps(self) -> Iterator[Tuple]:
        """Each logged step's ``StepRecord`` fields, in field order."""
        for (step, loss, eta, grad_norm, candidate, r2), flags in zip(
                _LOG_ROW.iter_unpack(self.log), self.log_flags):
            yield (int(step), loss, eta, grad_norm,
                   candidate if flags & _HAS_CANDIDATE else None,
                   bool(flags & _ACCEPTED), r2 if flags & _HAS_R2 else None)

    @property
    def records(self) -> List[StepRecord]:
        """One ``StepRecord`` per logged step, built on each read."""
        return [StepRecord(*fields) for fields in self.steps()]

    def column(self, name: str) -> array.array:
        """The float64 column of one ``_LOG_COLUMNS`` field, a value per
        logged step; NaN where an optional field is None."""
        return self.log[_LOG_COLUMNS.index(name)::len(_LOG_COLUMNS)]


# ---------------------------------------------------------------------------
# validation

def _float_hint(value) -> str:
    """Why a numeric field that holds a string, such as YAML 1.1's
    reading of ``1e-5``, is rejected; empty for anything else."""
    if not isinstance(value, str):
        return ""
    try:
        text = repr(float(value))
    except ValueError:
        return ""
    text = text.replace("inf", ".inf").replace("nan", ".nan")
    mantissa, e, exponent = text.partition("e")
    if e and "." not in mantissa:
        text = f"{mantissa}.0e{exponent}"
    return (f" (got the string {value!r}; YAML 1.1 reads a float only with "
            f"a dot and, if it has one, a signed exponent: write {text})")


def _check_fields(data: Dict, section: str, where: str, keys=None):
    """Check every ``SETTINGS`` field of ``section`` (only ``keys``, when
    given) that ``data`` sets, in table order. At the experiment root an
    explicit null leaves eta and batch_size unset."""
    rules = SETTINGS[section]
    for key in keys or rules:
        test, requirement, takes_float_hint = rules[key]
        if key in data and not test(data[key]) and not (
                data[key] is None and key in ("eta", "batch_size")):
            code = "l2" if key == "l2_penalty" else key.replace("_", "-")
            hint = _float_hint(data[key]) if takes_float_hint else ""
            raise SpecError(f"config.{section}{code}",
                            f"{key} at {where} must be {requirement}{hint}")


def _check_keys(data: Dict, allowed, required, where: str, note: str = ""):
    if not isinstance(data, dict):
        raise SpecError("config.not-a-mapping", f"{where} must be a mapping")
    for key in data:
        if key not in allowed:
            raise SpecError("config.unknown-key",
                            f"unknown key {key!r} at {where}{note}")
    for key in required:  # a tuple, so the first missing key is stable
        if key not in data:
            raise SpecError("config.missing-key",
                            f"missing required key {key!r} at {where}")


def _check_kind(data: Dict, section: str, where: str) -> str:
    """Check a mapping of a ``KINDS[section]`` kind and return the kind:
    keys no kind takes, the kind, the keys it takes and requires, then
    its ``SETTINGS`` fields."""
    _check_keys(data, _SECTION_KEYS[section], ("kind",), where)
    kinds = KINDS[section]
    kind = data["kind"]
    if kind not in tuple(kinds):
        name = "post_process" if section == "post." else section[:-1]
        listed = ("" if section == "post."
                  else f"; expected one of {tuple(kinds)}")
        raise SpecError(f"config.{section}kind",
                        f"unknown {name} kind {kind!r} at {where}{listed}")
    keys, required, *_ = kinds[kind]
    note = (f" for optimizer kind {kind!r}" if section == "optimizer."
            else f" (problem {kind!r} takes no parameters)"
            if section == "problem." and not keys else "")
    # a kind that takes no keys names its first extra key in sorted order
    _check_keys(data if keys else dict.fromkeys(sorted(data)),
                ("kind", *keys), required, where, note)
    _check_fields(data, section, where)
    return kind


def _validate_problem(data: Dict, where: str) -> Dict:
    kind = _check_kind(data, "problem.", where)
    if kind == "quadratic":
        a = data["matrix_a"]
        if (not isinstance(a, list) or not a
                or any(not isinstance(row, list) or len(row) != len(a)
                       or any(not _is_finite_num(v) for v in row)
                       for row in a)):
            raise SpecError("config.problem.matrix",
                            f"matrix_a at {where} must be a square matrix "
                            f"of finite numbers")
        try:
            QuadraticProblem(a)
        except ValueError as e:
            raise SpecError("config.problem.matrix", f"{e} at {where}") from None
        off = data.get("offset")
        if off is not None and (not isinstance(off, list) or len(off) != len(a)
                                or any(not _is_finite_num(v) for v in off)):
            raise SpecError("config.problem.offset",
                            f"offset at {where} must be a list of "
                            f"{len(a)} finite numbers")
    elif kind == "logreg":
        limit = np.iinfo(np.intp).max // 8  # float64 values numpy can address
        if int(data["n"]) * int(data["d"]) > limit:
            raise SpecError("config.problem.size",
                            f"n * d at {where} must be at most {limit}, the "
                            f"float64 values an array can address (got "
                            f"{data['n']} * {data['d']})")
    return dict(data)


def _validate_post_processor(data: Dict, where: str, dim: int) -> Dict:
    if _check_kind(data, "post.", where) == "mask":
        m = data["mask"]
        if (not isinstance(m, list) or len(m) != dim
                or any(v not in (0, 1) for v in m)):
            raise SpecError("config.post.mask",
                            f"mask at {where} must be a list of {dim} 0/1 "
                            f"entries")
    return dict(data)


def _validate_optimizer(data: Dict, where: str, dim: int) -> Dict:
    _check_kind(data, "optimizer.", where)
    if "post_process" in data:
        _validate_post_processor(data["post_process"],
                                 f"{where}.post_process", dim)
    return dict(data)


def _validate_gen(data: Dict, where: str) -> Dict:
    _check_keys(data, SETTINGS["gen."], (), where)
    _check_fields(data, "gen.", where)
    return dict(_GEN_DEFAULTS, **data)


def spec_from_dict(data: Dict, where: str = "experiment") -> ExperimentSpec:
    """Validate a plain mapping into an ExperimentSpec.

    Unknown keys anywhere in the tree are hard errors, as are type and
    range violations; every error carries a stable ``code``.
    """
    _check_keys(data, {"name", "problem", "optimizer", "eta", "gen",
                       "start_point", "iterations", "seed", "log_every",
                       "batch_size"},
                ("problem", "optimizer", "iterations"), where)
    name = data.get("name", "experiment")
    if not isinstance(name, str) or not name or any(
            c not in "abcdefghijklmnopqrstuvwxyz"
                     "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-" for c in name):
        raise SpecError("config.name",
                        f"name at {where} must use only letters, digits, "
                        f"'.', '_', '-'")
    problem = _validate_problem(data["problem"], f"{where}.problem")
    dim = KINDS["problem."][problem["kind"]][3](problem)
    optimizer = _validate_optimizer(data["optimizer"], f"{where}.optimizer",
                                    dim)
    _check_fields(data, "", where, ("iterations", "seed", "log_every", "eta"))
    eta = data.get("eta")
    gen = data.get("gen")
    if gen is not None:
        gen = _validate_gen(gen, f"{where}.gen")
    if eta is not None and gen is not None:
        raise SpecError("config.eta-and-gen",
                        f"{where} sets both a fixed eta and gen settings; "
                        f"pick one")
    start = data.get("start_point")
    if start is not None and (not isinstance(start, list) or len(start) != dim
                              or any(not _is_finite_num(v) for v in start)):
        raise SpecError("config.start-point",
                        f"start_point at {where} must be a list of {dim} "
                        f"finite numbers")
    _check_fields(data, "", where, ("batch_size",))
    batch_size = data.get("batch_size")
    if batch_size is not None:
        if problem["kind"] != "logreg":
            raise SpecError("config.batch-size.not-stochastic",
                            f"batch_size at {where} requires a logreg "
                            f"problem; {problem['kind']!r} is deterministic")
        if batch_size > problem["n"]:
            raise SpecError("config.batch-size.too-large",
                            f"batch_size {batch_size} at {where} exceeds "
                            f"the dataset size {problem['n']}")
    return ExperimentSpec(
        name=name, problem=problem, optimizer=optimizer,
        iterations=data["iterations"], eta=eta, gen=gen,
        start_point=list(start) if start is not None else None,
        seed=data.get("seed", 0), log_every=data.get("log_every", 1),
        batch_size=batch_size,
    )


# ---------------------------------------------------------------------------
# builders

def _build(section: str, data: Dict):
    # the object a validated mapping of a KINDS[section] kind describes
    keys, _, make, *_ = KINDS[section][data["kind"]]
    return make(**{key: data[key] for key in keys if key in data})


def build_problem(data: Dict) -> Objective:
    return _build("problem.", data)


@functools.lru_cache(maxsize=1)
def _logreg_dataset(seed: int, n: int, d: int,
                    l2_penalty: float) -> LogisticRegressionProblem:
    # one build per process for the experiments of a command that share a
    # dataset; the Objective contract makes the shared instance safe, since
    # no evaluation changes a later result
    return generate_dataset(seed, n, d, l2_penalty=l2_penalty)


def build_direction_fn(problem: Objective, optimizer: Dict,
                       rows: Optional[int] = None) -> Tuple[object, Callable]:
    """Return ``(state, direction)``: the optimizer's state (None for
    newton) and a stateful (raw_grad, w, batch) -> direction callable.
    With ``rows`` the state holds that many runs as (rows, dim) blocks.
    The callable takes finite float64 operands of the state's shape,
    as the step loops hand them, and does not check them again."""
    pp = optimizer.get("post_process")
    pp = None if pp is None else _build("post.", pp)
    builder = KINDS["optimizer."][optimizer["kind"]][2]
    state = None
    if builder is None:  # newton keeps no state
        def raw(g, w, batch):
            try:
                return np.linalg.solve(problem.hessian(w, batch), g)
            except np.linalg.LinAlgError:  # singular: the step blows up
                return np.full_like(g, np.nan)
    else:
        make, rule = builder
        # the mapping's own settings; the state declares the defaults
        state = make(problem.dim, rows=rows, **{
            k: v for k, v in optimizer.items()
            if k not in ("kind", "post_process")})

        def raw(g, w, batch):
            return rule(state, g, w)
    if pp is None:
        return state, raw
    return state, lambda g, w, batch: post_process(pp, raw(g, w, batch))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# steps whose child seeds one _child_seeds call computes
_BLOCK = 256


def _child_seeds(seed: int, steps: Array) -> Array:
    """``SeedSequence([seed, step]).generate_state(1)[0]`` for each entry
    of ``steps``, a uint32 array: numpy's entropy mixing, run on every
    step at once in wrapping uint32 arithmetic."""
    u32 = np.uint32
    words = []  # the entropy: seed's 32-bit words, low first, then step
    while True:
        words.append(np.full(steps.shape, seed & 0xFFFFFFFF, u32))
        seed >>= 32
        if not seed:
            break
    words.append(steps)
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ u32(h)
        h = h * _MULT_A & 0xFFFFFFFF
        v = v * u32(h)
        return v ^ (v >> u32(16))

    def mix(x, y):
        r = u32(_MIX_L) * x - u32(_MIX_R) * y
        return r ^ (r >> u32(16))

    zero = np.zeros(steps.shape, u32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    v = (pool[0] ^ u32(_INIT_B)) * u32(_INIT_B * _MULT_B & 0xFFFFFFFF)
    return v ^ (v >> u32(16))


def _block_seeds(seed: int, start: int) -> List[int]:
    """The child seeds ``SeedSequence([seed, step]).generate_state(1)[0]``
    of the ``_BLOCK`` steps from ``start``, a multiple of ``_BLOCK``."""
    if start >> 32:  # a step past the uint32 range is two entropy words
        return [int(np.random.SeedSequence([seed, step]).generate_state(1)[0])
                for step in range(start, start + _BLOCK)]
    return _child_seeds(seed, np.arange(start, start + _BLOCK,
                                        dtype=np.uint32)).tolist()


def _batches(spec: ExperimentSpec) -> Iterator[BatchSelector]:
    """The batch selector of each step 1, 2, ... of a run of ``spec``:
    ``FULL_DATA``, or a draw seeded by the step's child seed, computed
    ``_BLOCK`` steps at a time."""
    if spec.batch_size is None:
        yield from itertools.repeat(FULL_DATA)  # endless
    for start in itertools.count(0, _BLOCK):
        seeds = _block_seeds(spec.seed, start)
        for child in seeds[1:] if start == 0 else seeds:  # no step 0
            yield SyntheticNoise(seed=child, batch_size=spec.batch_size)


# ---------------------------------------------------------------------------
# core loop

def _in_bounds(loss: float) -> bool:
    return math.isfinite(loss) and loss <= DIVERGENCE_LOSS


def _lanes_ok(losses: Array, g: Optional[Array] = None) -> Array:
    # _in_bounds on each loss and, given gradient rows, all_finite on each
    ok = np.isfinite(losses) & (losses <= DIVERGENCE_LOSS)
    if g is not None:
        ok &= np.isfinite(g).all(axis=1)
    return ok


def _start(problem: Objective, spec: ExperimentSpec) -> Array:
    start = (spec.start_point if spec.start_point is not None
             else problem.default_start)
    return as_param_vector(start, dim=problem.dim)


def _execute(problem: Objective, direction_fn: Callable,
             spec: ExperimentSpec) -> RunResult:
    t_begin = time.perf_counter()
    # nothing writes into an iterate: _start and apply_step each return a
    # fresh array, so ws packs each one's bits as the run reaches it
    w = _start(problem, spec)
    ws = array.array("d", w.tobytes())
    log = array.array("d")
    log_flags = array.array("B")
    status = "ok"
    # an adaptive run has no rate until its first step resolves eta0
    eta = math.nan if spec.eta is None else float(spec.eta)
    ctrl: Optional[GenController] = None
    carried: Optional[Tuple[float, Array]] = None

    with np.errstate(over="ignore", invalid="ignore", under="ignore",
                     divide="ignore"):
        for t, batch in zip(range(1, spec.iterations + 1), _batches(spec)):
            # a step that blows up in its loss, gradient, direction, step or
            # post-step loss halts the run and records the values it reached
            if carried is not None:
                loss, g = carried
            else:
                loss, g = problem.loss_grad(w, batch)
            loss = float(loss)
            grad_norm = math.nan
            estimate = NO_ESTIMATE
            g = np.asarray(g, dtype=np.float64)
            ok = _in_bounds(loss)
            if ok:
                # a finite g . g proves g finite and gives norm(g)'s bits;
                # one that overflows or is NaN asks the entrywise check
                gg = float(g.dot(g))
                ok = math.isfinite(gg) or all_finite(g)
            if ok:
                grad_norm = math.sqrt(gg)
                d = np.asarray(direction_fn(g, w, batch), dtype=np.float64)
                ok = finite_array(d)
            if ok and spec.gen is not None and ctrl is None:
                # first step: resolve the starting rate, then build state
                try:
                    eta = (auto_search_eta0(problem, w, d, batch, l_zero=loss)
                           if spec.gen["eta0"] == "auto"
                           else float(spec.gen["eta0"]))
                except NonFiniteError:  # every starting-rate probe blew up
                    ok = False
                else:
                    # the mapping's own settings; the controller
                    # declares the defaults
                    ctrl = GenController(
                        eta=eta,
                        horizon=spec.iterations if spec.gen["decay"] else None,
                        **{k: v for k, v in spec.gen.items()
                           if k not in _GEN_DEFAULTS})
            if ok:
                if ctrl is not None:
                    eta, estimate = gen_update(ctrl, problem, w, d, batch,
                                               l_zero=loss, raw_grad=g)
                try:
                    w = apply_step(w, eta, d)
                except NonFiniteError:
                    ok = False
            if ok:
                ws.frombytes(w.tobytes())
                # on the full batch the post-step (loss, grad) is the next
                # step's start
                if spec.batch_size is None and t < spec.iterations:
                    carried = problem.loss_grad(w, batch)
                    loss = float(carried[0])
                else:
                    loss = float(problem.loss(w, batch))
                ok = _in_bounds(loss)
            if not ok or t % spec.log_every == 0 or t == spec.iterations:
                candidate, accepted, r2 = estimate
                log.frombytes(_LOG_ROW.pack(
                    t, loss, eta, grad_norm,
                    math.nan if candidate is None else candidate,
                    math.nan if r2 is None else r2))
                log_flags.append(accepted | _HAS_CANDIDATE * (
                    candidate is not None) | _HAS_R2 * (r2 is not None))
            if not ok:
                status = "diverged"
                break

    gen_stats = None
    if ctrl is not None:
        gen_stats = {"fit_attempts": ctrl.fit_attempts,
                     "fits_accepted": ctrl.fits_accepted,
                     "fits_rejected": ctrl.fits_rejected}
    # the last step a run takes is logged, so its loss is the last record's
    return RunResult(log=log, log_flags=log_flags, final_w=w, final_loss=loss,
                     wall_time=time.perf_counter() - t_begin, status=status,
                     ws=np.frombuffer(ws).reshape(-1, w.size),
                     gen_stats=gen_stats)


def require_eta_or_gen(spec: ExperimentSpec) -> None:
    """A run needs a rate source; grid-search experiments carry neither."""
    if spec.eta is None and spec.gen is None:
        raise SpecError("config.needs-eta-or-gen",
                        f"experiment {spec.name!r} needs either eta or gen")


def require_grid_specs(specs: Sequence[ExperimentSpec]) -> None:
    """Grid search tunes a fixed rate: no spec may carry gen settings, and
    each optimizer must be a kind with a (state, rule) builder, whose
    direction a rate scales; a newton step carries its own scale. The gen
    check runs over every spec first."""
    for spec in specs:
        if spec.gen is not None:
            raise SpecError("config.grid.gen-not-allowed",
                            f"experiment {spec.name!r} has gen settings; "
                            f"grid search tunes fixed-eta baselines")
    rated = [kind for kind, (_, _, builder) in KINDS["optimizer."].items()
             if builder is not None]
    for spec in specs:
        if spec.optimizer["kind"] not in rated:
            raise SpecError("config.grid.optimizer",
                            f"grid search tunes fixed-eta baselines; use an "
                            f"{' or '.join(rated)} optimizer")


def run_experiment(spec: ExperimentSpec) -> RunResult:
    """Execute one experiment end to end, bit-reproducibly.

    The spec is round-tripped through its serialized form first, so any
    spec that runs is guaranteed to validate, serialize, and reproduce.
    """
    spec = spec_from_dict(spec.to_dict(), where=spec.name)
    require_eta_or_gen(spec)
    problem = build_problem(spec.problem)
    return _execute(problem, build_direction_fn(problem, spec.optimizer)[1],
                    spec)


# ---------------------------------------------------------------------------
# grid search and metrics

def grid_search_rows(spec: ExperimentSpec) -> List[Dict]:
    """Validate the spec as ``run_experiment`` does, then run it at every
    ``LR_GRID`` rate in place of its own eta, the rates in lockstep; one
    row per rate, grid order, each the row a separate run at its rate
    gives."""
    spec = spec_from_dict(spec.to_dict(), where=spec.name)
    require_grid_specs([spec])
    return [{"eta": eta, "final_loss": loss, "status": status}
            for eta, (loss, status)
            in zip(LR_GRID, _grid_lanes(build_problem(spec.problem), spec))]


def _grid_lanes(problem: Objective, spec: ExperimentSpec
                ) -> List[Tuple[float, str]]:
    """(final_loss, status) of ``spec`` at each ``LR_GRID`` rate.

    Lane k is the run at rate k. The live lanes step as one (K, dim)
    block: per step one batch, one row-block evaluation and one direction
    update, then one ``apply_step`` per lane. A lane that blows up in its
    loss, gradient, direction, step or post-step loss leaves the block
    with the loss ``_execute`` records at that stop, so each rate's pair
    has the bits of a separate ``_execute`` run at that rate.
    """
    lanes = list(range(len(LR_GRID)))  # the rate index of each block row
    w = np.tile(_start(problem, spec), (len(lanes), 1))
    state, direction = build_direction_fn(problem, spec.optimizer,
                                          rows=len(lanes))
    out = [(math.nan, "ok")] * len(lanes)
    carried: Optional[Tuple[Array, ...]] = None

    def drop(ok: Array, losses: Array, *rows: Array) -> Tuple[Array, ...]:
        # the lanes failing ``ok`` leave as diverged at their ``losses``;
        # returns the rows of each of ``rows`` that go on
        nonlocal lanes, w
        if np.count_nonzero(ok) == len(lanes):
            return rows
        for i in np.flatnonzero(~ok):
            out[lanes[i]] = (float(losses[i]), "diverged")
        keep = np.flatnonzero(ok)
        lanes = [lanes[i] for i in keep]
        w = w[keep]
        state.keep(keep)
        return tuple(a[keep] for a in rows)

    with np.errstate(over="ignore", invalid="ignore", under="ignore",
                     divide="ignore"):
        for t, batch in zip(range(1, spec.iterations + 1), _batches(spec)):
            if carried is None:
                losses, g = problem.loss_grad_rows(w, batch)
                losses, g = drop(_lanes_ok(losses, g), losses, losses, g)
            else:  # checked when it was evaluated
                losses, g = carried
            if not lanes:
                break
            d = direction(g, w, batch)
            # a non-finite direction row gives a non-finite step, so
            # apply_step stops a lane whose direction or step blows up,
            # both at the step's loss as in _execute
            ok = np.ones(len(lanes), dtype=bool)
            for i, k in enumerate(lanes):
                try:
                    w[i] = apply_step(w[i], LR_GRID[k], d[i])
                except NonFiniteError:
                    ok[i] = False
            drop(ok, losses)
            if not lanes:
                break
            # on the full batch the post-step (loss, grad) is the next
            # step's start, so its gradient is checked here: a lane it
            # stops records the same loss at the next step in _execute
            if spec.batch_size is None and t < spec.iterations:
                losses, g = problem.loss_grad_rows(w, batch)
                carried = drop(_lanes_ok(losses, g), losses, losses, g)
                losses = carried[0]
            else:
                carried = None
                losses = problem.loss_grad_rows(w, batch, grad=False)[0]
                losses, = drop(_lanes_ok(losses), losses, losses)
            if not lanes:
                break
    for i, k in enumerate(lanes):
        out[k] = (float(losses[i]), "ok")
    return out


def pick_best_row(rows: List[Dict]) -> Optional[Dict]:
    """Lowest-final-loss non-diverged grid row; earlier rows win ties."""
    best = None
    for row in rows:
        if row["status"] != "ok":
            continue
        if best is None or row["final_loss"] < best["final_loss"]:
            best = row
    return best


def convergence_metrics(result: RunResult, optimum
                        ) -> Tuple[Optional[int], List[float]]:
    """Iterations until ||w - w*|| <= CONVERGENCE_TOL, plus error ratios.

    The ratio list holds ||e_{t+1}|| / ||e_t||^2 for consecutive iterates
    (a bounded sequence indicates quadratic-rate convergence); it stops at
    the first exact zero error. A diverged run reports no
    iterations-to-tolerance.
    """
    w_star = as_param_vector(optimum)
    # each row of the difference is contiguous, so its norm has the bits
    # of the norm of that iterate's own difference vector
    errs = [norm(e) for e in result.ws - w_star]
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
