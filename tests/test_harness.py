"""Experiment runner: config validation and its exact messages,
reproducible execution, grid-search baselines, and the test-side
batch-noise study."""

import csv
import dataclasses
import gc
import itertools
import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from genopt import cli, harness, kernels
from genopt.core import (FULL_DATA, SETTINGS, Objective, SyntheticNoise,
                         norm)
from genopt.gen import ETA0_GRID, Estimate, GenController, probe_losses
from genopt.harness import (
    CONVERGENCE_TOL,
    DIVERGENCE_LOSS,
    LR_GRID,
    ExperimentSpec,
    SpecError,
    build_problem,
    convergence_metrics,
    grid_search_rows,
    pick_best_row,
    run_experiment,
    spec_from_dict,
)
from genopt.optim import AdamWState, ClipToNorm, SgdState
from genopt.problems import QuadraticProblem, generate_dataset
from reference import error_scaling_study

ROSEN = {"kind": "rosenbrock"}
SGD = {"kind": "sgd"}


def _minimal(**over):
    d = {"problem": dict(ROSEN), "optimizer": dict(SGD), "iterations": 5,
         "eta": 0.001}
    d.update(over)
    return d


def _code(excinfo):
    return excinfo.value.code


# ---------------------------------------------------------------------------
# validation


def test_spec_from_dict_minimal_and_defaults():
    spec = spec_from_dict(_minimal())
    assert spec.name == "experiment"
    assert spec.seed == 0
    assert spec.log_every == 1
    assert spec.batch_size is None


def test_spec_round_trips_through_to_dict():
    spec = spec_from_dict(_minimal(name="trip", seed=3, log_every=2,
                                   start_point=[0.5, 0.5]))
    again = spec_from_dict(spec.to_dict())
    assert again == spec
    # optional fields stay out of the serialized form when unset
    lean = spec_from_dict(_minimal()).to_dict()
    assert "start_point" not in lean
    assert "batch_size" not in lean


@pytest.mark.parametrize(
    "mutate, code",
    [
        ({"iterations": 0}, "config.iterations"),
        ({"iterations": 2.5}, "config.iterations"),
        ({"seed": -1}, "config.seed"),
        ({"log_every": 0}, "config.log-every"),
        ({"eta": 0.0}, "config.eta"),
        ({"eta": float("inf")}, "config.eta"),
        ({"name": "bad name"}, "config.name"),
        ({"name": ""}, "config.name"),
        ({"start_point": "origin"}, "config.start-point"),
        ({"batch_size": 8}, "config.batch-size.not-stochastic"),
        ({"lerning_rate": 0.1}, "config.unknown-key"),
        ({"start_point": [math.nan, 2.0]}, "config.start-point"),
        ({"problem": {"kind": "quadratic", "matrix_a": [[1.0]]},
          "start_point": [1.0, 2.0]}, "config.start-point"),
        ({"problem": {"kind": "logreg", "seed": 0, "n": 50, "d": 3},
          "start_point": [0.0, 0.0]}, "config.start-point"),
        ({"eta": "1e-5"}, "config.eta"),
    ],
)
def test_spec_from_dict_rejects(mutate, code):
    with pytest.raises(SpecError) as e:
        spec_from_dict(_minimal(**mutate))
    assert _code(e) == code


def test_spec_error_survives_pickle():
    e = pickle.loads(pickle.dumps(SpecError("config.seed", "bad seed")))
    assert type(e) is SpecError
    assert e.code == "config.seed"
    assert str(e) == "bad seed"


def test_spec_eta_and_gen_conflict():
    with pytest.raises(SpecError) as e:
        spec_from_dict(_minimal(gen={"eta0": 0.1}))
    assert _code(e) == "config.eta-and-gen"


def test_spec_missing_required_key():
    with pytest.raises(SpecError) as e:
        spec_from_dict({"problem": ROSEN, "optimizer": SGD})
    assert _code(e) == "config.missing-key"


@pytest.mark.parametrize(
    "problem, code",
    [
        ({"kind": "warp"}, "config.problem.kind"),
        ({"kind": "rosenbrock", "n": 4}, "config.unknown-key"),
        ({"kind": "quadratic"}, "config.missing-key"),
        ({"kind": "quadratic", "matrix_a": [[1, 2]]}, "config.problem.matrix"),
        ({"kind": "quadratic", "matrix_a": [[1.0]], "offset": [1, 2]},
         "config.problem.offset"),
        ({"kind": "logreg", "seed": 0, "n": 1, "d": 2}, "config.problem.n"),
        ({"kind": "logreg", "seed": 0, "n": 50, "d": 0}, "config.problem.d"),
        ({"kind": "logreg", "seed": 0, "n": 50, "d": 2, "l2_penalty": -1.0},
         "config.problem.l2"),
        ({"kind": "quadratic", "matrix_a": [[1.0]], "offset": [math.nan]},
         "config.problem.offset"),
        ({"kind": "quadratic", "matrix_a": [[2.0, 1.0], [0.0, 2.0]]},
         "config.problem.matrix"),
        ({"kind": "quadratic", "matrix_a": [[1.0, 0.0], [0.0, -1.0]]},
         "config.problem.matrix"),
        ({"kind": "quadratic", "matrix_a": [[math.nan]]},
         "config.problem.matrix"),
        ({"kind": "quadratic", "matrix_a": [[math.inf]]},
         "config.problem.matrix"),
        ({"kind": "logreg", "seed": 0, "n": 50, "d": 2, "l2_penalty": "1e-5"},
         "config.problem.l2"),
        ({"kind": "logreg", "seed": 0, "n": 50, "d": 2,
          "l2_penalty": math.nan}, "config.problem.l2"),
        ({"kind": "logreg", "seed": 0, "n": 50, "d": 2,
          "l2_penalty": math.inf}, "config.problem.l2"),
    ],
)
def test_problem_validation(problem, code):
    with pytest.raises(SpecError) as e:
        spec_from_dict(_minimal(problem=problem))
    assert _code(e) == code


@pytest.mark.parametrize(
    "optimizer, code",
    [
        ({"kind": "lion"}, "config.optimizer.kind"),
        ({"kind": "sgd", "momentum": 1.0}, "config.optimizer.momentum"),
        ({"kind": "sgd", "weight_decay": -0.1},
         "config.optimizer.weight-decay"),
        ({"kind": "adamw", "epsilon": 0.0}, "config.optimizer.epsilon"),
        ({"kind": "sgd", "post_process": {"kind": "glow"}},
         "config.post.kind"),
        ({"kind": "sgd", "post_process": {"kind": "clip", "max_norm": 0}},
         "config.post.max-norm"),
        ({"kind": "sgd", "post_process": {"kind": "mask", "mask": [0.5]}},
         "config.post.mask"),
        ({"kind": "sgd", "post_process": {"kind": "mask", "mask": [1, 0, 1]}},
         "config.post.mask"),
        ({"kind": "sgd", "momentum": "9e-1"}, "config.optimizer.momentum"),
        ({"kind": "adamw", "beta1": "9e-1"}, "config.optimizer.beta1"),
        ({"kind": "adamw", "beta2": "1e-3"}, "config.optimizer.beta2"),
        ({"kind": "sgd", "weight_decay": "1e-4"},
         "config.optimizer.weight-decay"),
        ({"kind": "adamw", "epsilon": "1e-8"}, "config.optimizer.epsilon"),
        ({"kind": "sgd", "post_process": {"kind": "clip", "max_norm": "1e2"}},
         "config.post.max-norm"),
        ({"kind": "sgd", "weight_decay": math.nan},
         "config.optimizer.weight-decay"),
        ({"kind": "adamw", "weight_decay": math.inf},
         "config.optimizer.weight-decay"),
        ({"kind": "adamw", "epsilon": math.nan}, "config.optimizer.epsilon"),
        ({"kind": "adamw", "epsilon": math.inf}, "config.optimizer.epsilon"),
        ({"kind": "sgd", "post_process": {"kind": "clip", "max_norm": math.nan}},
         "config.post.max-norm"),
        ({"kind": "sgd", "post_process": {"kind": "clip", "max_norm": math.inf}},
         "config.post.max-norm"),
    ],
)
def test_optimizer_validation(optimizer, code):
    with pytest.raises(SpecError) as e:
        spec_from_dict(_minimal(optimizer=optimizer))
    assert _code(e) == code


def test_sgd_momentum_key_name():
    # SGD takes momentum via its own key set; make sure a valid value passes
    spec = spec_from_dict(_minimal(
        optimizer={"kind": "sgd", "momentum": 0.9, "weight_decay": 0.01}))
    assert spec.optimizer["momentum"] == 0.9


@pytest.mark.parametrize(
    "gen, code",
    [
        ({"eta0": -1}, "config.gen.eta0"),
        ({"eta0": "search"}, "config.gen.eta0"),
        ({"gamma": 1.0}, "config.gen.gamma"),
        ({"phi": 0}, "config.gen.phi"),
        ({"probe_points": 4}, "config.gen.probe-points"),
        ({"r2_threshold": 0.0}, "config.gen.r2-threshold"),
        ({"decay": "yes"}, "config.gen.decay"),
        ({"estimator": "magic"}, "config.gen.estimator"),
        ({"decay": 1, "estimator": "hvp"}, "config.gen.decay"),
        ({"period": 3}, "config.unknown-key"),
        ({"probe_points": 3.0}, "config.gen.probe-points"),
        ({"probe_points": 5.0}, "config.gen.probe-points"),
        ({"eta0": math.nan}, "config.gen.eta0"),
        ({"eta0": math.inf}, "config.gen.eta0"),
        ({"eta0": 10 ** 400}, "config.gen.eta0"),
        ({"eta0": "1e-5"}, "config.gen.eta0"),
        ({"gamma": "9e-1"}, "config.gen.gamma"),
        ({"r2_threshold": "99e-2"}, "config.gen.r2-threshold"),
    ],
)
def test_gen_validation(gen, code):
    base = _minimal(gen=gen)
    del base["eta"]
    with pytest.raises(SpecError) as e:
        spec_from_dict(base)
    assert _code(e) == code


_NO_ETA = {"eta": None}


@pytest.mark.parametrize("over, text, written", [
    ({"eta": "1e-5"}, "1e-5", "1.0e-05"),
    ({"eta": "1.5e-5"}, "1.5e-5", "1.5e-05"),
    ({"eta": "2E+3"}, "2E+3", "2000.0"),
    ({"eta": "nan"}, "nan", ".nan"),
    ({"problem": {"kind": "logreg", "seed": 0, "n": 50, "d": 2,
                  "l2_penalty": "1e-5"}}, "1e-5", "1.0e-05"),
    ({"optimizer": {"kind": "sgd", "momentum": "9e-1"}}, "9e-1", "0.9"),
    ({"optimizer": {"kind": "adamw", "beta1": "9e-1"}}, "9e-1", "0.9"),
    ({"optimizer": {"kind": "adamw", "beta2": "3"}}, "3", "3.0"),
    ({"optimizer": {"kind": "sgd", "weight_decay": "1e-4"}}, "1e-4",
     "0.0001"),
    ({"optimizer": {"kind": "adamw", "epsilon": "1e-8"}}, "1e-8",
     "1.0e-08"),
    ({"optimizer": {"kind": "sgd", "post_process": {
        "kind": "clip", "max_norm": "1e2"}}}, "1e2", "100.0"),
    (dict(_NO_ETA, gen={"eta0": "1e-5"}), "1e-5", "1.0e-05"),
    (dict(_NO_ETA, gen={"gamma": "9e-1"}), "9e-1", "0.9"),
    (dict(_NO_ETA, gen={"r2_threshold": "99e-2"}), "99e-2", "0.99"),
])
def test_numeric_field_read_as_a_string_gets_a_hint(over, text, written):
    base = _minimal(**over)
    if base["eta"] is None:
        del base["eta"]
    with pytest.raises(SpecError) as e:
        spec_from_dict(base)
    assert f"got the string {text!r}" in str(e.value)
    assert str(e.value).endswith(f"write {written})")


def test_numeric_field_hint_is_only_for_strings():
    with pytest.raises(SpecError) as e:
        spec_from_dict(_minimal(eta=0.0))
    assert str(e.value).endswith("must be a positive finite number")
    base = _minimal(gen={"eta0": "search"})
    del base["eta"]
    with pytest.raises(SpecError) as e:
        spec_from_dict(base)
    assert "YAML" not in str(e.value)


# ---------------------------------------------------------------------------
# golden validation messages: every SpecError site in spec_from_dict and
# cli.load_config, with its exact code and message

_HINT = (" (got the string '1e-5'; YAML 1.1 reads a float only with a dot "
         "and, if it has one, a signed exponent: write 1.0e-05)")
_LOGREG = {"kind": "logreg", "seed": 0, "n": 50, "d": 2}
_DROP = "<drop>"


def _field_input(section, key, value):
    """A valid experiment with ``value`` at ``key`` of ``section``; the
    section "" is the experiment root."""
    if section == "problem":
        return _minimal(problem=dict(_LOGREG, **{key: value}))
    if section == "optimizer":
        kind = "adamw" if key in ("beta1", "beta2", "epsilon") else "sgd"
        return _minimal(optimizer={"kind": kind, key: value})
    if section == "post":
        return _minimal(optimizer={"kind": "sgd", "post_process": {
            "kind": "clip", key: value}})
    if section == "gen":
        return _mutated({"eta": _DROP, "gen": {key: value}})
    return _minimal(**{key: value})


def _mutated(mutation):
    # a mapping overrides (or, with _DROP, deletes) keys of the minimal
    # experiment; anything else replaces the experiment
    if not isinstance(mutation, dict):
        return mutation
    data = _minimal()
    for key, value in mutation.items():
        if value == _DROP:
            del data[key]
        else:
            data[key] = value
    return data


def _outcome(data):
    try:
        spec_from_dict(data)
    except SpecError as e:
        return e.code, str(e)
    return None, None


# a logreg dataset of n * d float64 values must be addressable (64-bit)
_SIZE = ("n * d at experiment.problem must be at most 1152921504606846975, "
         "the float64 values an array can address ")

# (section, key, value, code, message) for null, a string that YAML 1.1
# reads from 1e-5, a boolean, an integer past the float range and an
# out-of-range number; a code of None means the experiment is accepted
_FIELD_GOLDEN = [
    ("problem", "seed", None, "config.problem.seed",
     "seed at experiment.problem must be a non-negative integer"),
    ("problem", "seed", "1e-5", "config.problem.seed",
     "seed at experiment.problem must be a non-negative integer"),
    ("problem", "seed", True, "config.problem.seed",
     "seed at experiment.problem must be a non-negative integer"),
    ("problem", "seed", 10 ** 400, None, None),
    ("problem", "seed", -1, "config.problem.seed",
     "seed at experiment.problem must be a non-negative integer"),
    ("problem", "n", None, "config.problem.n",
     "n at experiment.problem must be an integer >= 2"),
    ("problem", "n", "1e-5", "config.problem.n",
     "n at experiment.problem must be an integer >= 2"),
    ("problem", "n", True, "config.problem.n",
     "n at experiment.problem must be an integer >= 2"),
    ("problem", "n", 10 ** 400, "config.problem.size",
     _SIZE + f"(got {10 ** 400} * 2)"),
    ("problem", "n", 1, "config.problem.n",
     "n at experiment.problem must be an integer >= 2"),
    ("problem", "d", None, "config.problem.d",
     "d at experiment.problem must be an integer >= 1"),
    ("problem", "d", "1e-5", "config.problem.d",
     "d at experiment.problem must be an integer >= 1"),
    ("problem", "d", True, "config.problem.d",
     "d at experiment.problem must be an integer >= 1"),
    ("problem", "d", 10 ** 400, "config.problem.size",
     _SIZE + f"(got 50 * {10 ** 400})"),
    ("problem", "d", 0, "config.problem.d",
     "d at experiment.problem must be an integer >= 1"),
    ("problem", "l2_penalty", None, "config.problem.l2",
     "l2_penalty at experiment.problem must be a finite number >= 0"),
    ("problem", "l2_penalty", "1e-5", "config.problem.l2",
     "l2_penalty at experiment.problem must be a finite number >= 0" + _HINT),
    ("problem", "l2_penalty", True, "config.problem.l2",
     "l2_penalty at experiment.problem must be a finite number >= 0"),
    ("problem", "l2_penalty", 10 ** 400, "config.problem.l2",
     "l2_penalty at experiment.problem must be a finite number >= 0"),
    ("problem", "l2_penalty", -1.0, "config.problem.l2",
     "l2_penalty at experiment.problem must be a finite number >= 0"),
    ("optimizer", "momentum", None, "config.optimizer.momentum",
     "momentum at experiment.optimizer must be in [0, 1)"),
    ("optimizer", "momentum", "1e-5", "config.optimizer.momentum",
     "momentum at experiment.optimizer must be in [0, 1)" + _HINT),
    ("optimizer", "momentum", True, "config.optimizer.momentum",
     "momentum at experiment.optimizer must be in [0, 1)"),
    ("optimizer", "momentum", 10 ** 400, "config.optimizer.momentum",
     "momentum at experiment.optimizer must be in [0, 1)"),
    ("optimizer", "momentum", 1.0, "config.optimizer.momentum",
     "momentum at experiment.optimizer must be in [0, 1)"),
    ("optimizer", "beta1", None, "config.optimizer.beta1",
     "beta1 at experiment.optimizer must be in [0, 1)"),
    ("optimizer", "beta1", "1e-5", "config.optimizer.beta1",
     "beta1 at experiment.optimizer must be in [0, 1)" + _HINT),
    ("optimizer", "beta1", True, "config.optimizer.beta1",
     "beta1 at experiment.optimizer must be in [0, 1)"),
    ("optimizer", "beta1", 10 ** 400, "config.optimizer.beta1",
     "beta1 at experiment.optimizer must be in [0, 1)"),
    ("optimizer", "beta1", 1.0, "config.optimizer.beta1",
     "beta1 at experiment.optimizer must be in [0, 1)"),
    ("optimizer", "beta2", None, "config.optimizer.beta2",
     "beta2 at experiment.optimizer must be in [0, 1)"),
    ("optimizer", "beta2", "1e-5", "config.optimizer.beta2",
     "beta2 at experiment.optimizer must be in [0, 1)" + _HINT),
    ("optimizer", "beta2", True, "config.optimizer.beta2",
     "beta2 at experiment.optimizer must be in [0, 1)"),
    ("optimizer", "beta2", 10 ** 400, "config.optimizer.beta2",
     "beta2 at experiment.optimizer must be in [0, 1)"),
    ("optimizer", "beta2", -0.5, "config.optimizer.beta2",
     "beta2 at experiment.optimizer must be in [0, 1)"),
    ("optimizer", "weight_decay", None, "config.optimizer.weight-decay",
     "weight_decay at experiment.optimizer must be a finite number >= 0"),
    ("optimizer", "weight_decay", "1e-5", "config.optimizer.weight-decay",
     "weight_decay at experiment.optimizer must be a finite "
     "number >= 0" + _HINT),
    ("optimizer", "weight_decay", True, "config.optimizer.weight-decay",
     "weight_decay at experiment.optimizer must be a finite number >= 0"),
    ("optimizer", "weight_decay", 10 ** 400, "config.optimizer.weight-decay",
     "weight_decay at experiment.optimizer must be a finite number >= 0"),
    ("optimizer", "weight_decay", -1.0, "config.optimizer.weight-decay",
     "weight_decay at experiment.optimizer must be a finite number >= 0"),
    ("optimizer", "epsilon", None, "config.optimizer.epsilon",
     "epsilon at experiment.optimizer must be a finite number > 0"),
    ("optimizer", "epsilon", "1e-5", "config.optimizer.epsilon",
     "epsilon at experiment.optimizer must be a finite number > 0" + _HINT),
    ("optimizer", "epsilon", True, "config.optimizer.epsilon",
     "epsilon at experiment.optimizer must be a finite number > 0"),
    ("optimizer", "epsilon", 10 ** 400, "config.optimizer.epsilon",
     "epsilon at experiment.optimizer must be a finite number > 0"),
    ("optimizer", "epsilon", 0.0, "config.optimizer.epsilon",
     "epsilon at experiment.optimizer must be a finite number > 0"),
    ("post", "max_norm", None, "config.post.max-norm",
     "max_norm at experiment.optimizer.post_process must be a "
     "finite number > 0"),
    ("post", "max_norm", "1e-5", "config.post.max-norm",
     "max_norm at experiment.optimizer.post_process must be a "
     "finite number > 0" + _HINT),
    ("post", "max_norm", True, "config.post.max-norm",
     "max_norm at experiment.optimizer.post_process must be a "
     "finite number > 0"),
    ("post", "max_norm", 10 ** 400, "config.post.max-norm",
     "max_norm at experiment.optimizer.post_process must be a "
     "finite number > 0"),
    ("post", "max_norm", 0.0, "config.post.max-norm",
     "max_norm at experiment.optimizer.post_process must be a "
     "finite number > 0"),
    ("gen", "eta0", None, "config.gen.eta0",
     "eta0 at experiment.gen must be a positive finite number or 'auto'"),
    ("gen", "eta0", "1e-5", "config.gen.eta0",
     "eta0 at experiment.gen must be a positive finite number or "
     "'auto'" + _HINT),
    ("gen", "eta0", True, "config.gen.eta0",
     "eta0 at experiment.gen must be a positive finite number or 'auto'"),
    ("gen", "eta0", 10 ** 400, "config.gen.eta0",
     "eta0 at experiment.gen must be a positive finite number or 'auto'"),
    ("gen", "eta0", 0.0, "config.gen.eta0",
     "eta0 at experiment.gen must be a positive finite number or 'auto'"),
    ("gen", "gamma", None, "config.gen.gamma",
     "gamma at experiment.gen must be in [0, 1)"),
    ("gen", "gamma", "1e-5", "config.gen.gamma",
     "gamma at experiment.gen must be in [0, 1)" + _HINT),
    ("gen", "gamma", True, "config.gen.gamma",
     "gamma at experiment.gen must be in [0, 1)"),
    ("gen", "gamma", 10 ** 400, "config.gen.gamma",
     "gamma at experiment.gen must be in [0, 1)"),
    ("gen", "gamma", 1.0, "config.gen.gamma",
     "gamma at experiment.gen must be in [0, 1)"),
    ("gen", "phi", None, "config.gen.phi",
     "phi at experiment.gen must be an integer >= 1"),
    ("gen", "phi", "1e-5", "config.gen.phi",
     "phi at experiment.gen must be an integer >= 1"),
    ("gen", "phi", True, "config.gen.phi",
     "phi at experiment.gen must be an integer >= 1"),
    ("gen", "phi", 10 ** 400, None, None),
    ("gen", "phi", 0, "config.gen.phi",
     "phi at experiment.gen must be an integer >= 1"),
    ("gen", "probe_points", None, "config.gen.probe-points",
     "probe_points at experiment.gen must be 3 or 5"),
    ("gen", "probe_points", "1e-5", "config.gen.probe-points",
     "probe_points at experiment.gen must be 3 or 5"),
    ("gen", "probe_points", True, "config.gen.probe-points",
     "probe_points at experiment.gen must be 3 or 5"),
    ("gen", "probe_points", 10 ** 400, "config.gen.probe-points",
     "probe_points at experiment.gen must be 3 or 5"),
    ("gen", "probe_points", 4, "config.gen.probe-points",
     "probe_points at experiment.gen must be 3 or 5"),
    ("gen", "r2_threshold", None, "config.gen.r2-threshold",
     "r2_threshold at experiment.gen must be in (0, 1]"),
    ("gen", "r2_threshold", "1e-5", "config.gen.r2-threshold",
     "r2_threshold at experiment.gen must be in (0, 1]" + _HINT),
    ("gen", "r2_threshold", True, "config.gen.r2-threshold",
     "r2_threshold at experiment.gen must be in (0, 1]"),
    ("gen", "r2_threshold", 10 ** 400, "config.gen.r2-threshold",
     "r2_threshold at experiment.gen must be in (0, 1]"),
    ("gen", "r2_threshold", 0.0, "config.gen.r2-threshold",
     "r2_threshold at experiment.gen must be in (0, 1]"),
    ("gen", "decay", None, "config.gen.decay",
     "decay at experiment.gen must be a boolean"),
    ("gen", "decay", "1e-5", "config.gen.decay",
     "decay at experiment.gen must be a boolean"),
    ("gen", "decay", True, None, None),
    ("gen", "decay", 10 ** 400, "config.gen.decay",
     "decay at experiment.gen must be a boolean"),
    ("gen", "decay", "yes", "config.gen.decay",
     "decay at experiment.gen must be a boolean"),
    ("gen", "estimator", None, "config.gen.estimator",
     "estimator at experiment.gen must be 'fit' or 'hvp'"),
    ("gen", "estimator", "1e-5", "config.gen.estimator",
     "estimator at experiment.gen must be 'fit' or 'hvp'"),
    ("gen", "estimator", True, "config.gen.estimator",
     "estimator at experiment.gen must be 'fit' or 'hvp'"),
    ("gen", "estimator", 10 ** 400, "config.gen.estimator",
     "estimator at experiment.gen must be 'fit' or 'hvp'"),
    ("gen", "estimator", "magic", "config.gen.estimator",
     "estimator at experiment.gen must be 'fit' or 'hvp'"),
    ("", "iterations", None, "config.iterations",
     "iterations at experiment must be an integer >= 1"),
    ("", "iterations", "1e-5", "config.iterations",
     "iterations at experiment must be an integer >= 1"),
    ("", "iterations", True, "config.iterations",
     "iterations at experiment must be an integer >= 1"),
    ("", "iterations", 10 ** 400, None, None),
    ("", "iterations", 0, "config.iterations",
     "iterations at experiment must be an integer >= 1"),
    ("", "seed", None, "config.seed",
     "seed at experiment must be a non-negative integer"),
    ("", "seed", "1e-5", "config.seed",
     "seed at experiment must be a non-negative integer"),
    ("", "seed", True, "config.seed",
     "seed at experiment must be a non-negative integer"),
    ("", "seed", 10 ** 400, None, None),
    ("", "seed", -1, "config.seed",
     "seed at experiment must be a non-negative integer"),
    ("", "log_every", None, "config.log-every",
     "log_every at experiment must be an integer >= 1"),
    ("", "log_every", "1e-5", "config.log-every",
     "log_every at experiment must be an integer >= 1"),
    ("", "log_every", True, "config.log-every",
     "log_every at experiment must be an integer >= 1"),
    ("", "log_every", 10 ** 400, None, None),
    ("", "log_every", 0, "config.log-every",
     "log_every at experiment must be an integer >= 1"),
    ("", "eta", None, None, None),
    ("", "eta", "1e-5", "config.eta",
     "eta at experiment must be a positive finite number" + _HINT),
    ("", "eta", True, "config.eta",
     "eta at experiment must be a positive finite number"),
    ("", "eta", 10 ** 400, "config.eta",
     "eta at experiment must be a positive finite number"),
    ("", "eta", -1.0, "config.eta",
     "eta at experiment must be a positive finite number"),
    ("", "batch_size", None, None, None),
    ("", "batch_size", "1e-5", "config.batch-size",
     "batch_size at experiment must be an integer >= 1"),
    ("", "batch_size", True, "config.batch-size",
     "batch_size at experiment must be an integer >= 1"),
    ("", "batch_size", 10 ** 400, "config.batch-size.not-stochastic",
     "batch_size at experiment requires a logreg problem; "
     "'rosenbrock' is deterministic"),
    ("", "batch_size", 0, "config.batch-size",
     "batch_size at experiment must be an integer >= 1"),
    # values a library constructor once accepted
    ("problem", "l2_penalty", math.inf, "config.problem.l2",
     "l2_penalty at experiment.problem must be a finite number >= 0"),
    ("optimizer", "weight_decay", math.inf, "config.optimizer.weight-decay",
     "weight_decay at experiment.optimizer must be a finite number >= 0"),
    ("optimizer", "epsilon", math.inf, "config.optimizer.epsilon",
     "epsilon at experiment.optimizer must be a finite number > 0"),
    ("post", "max_norm", math.inf, "config.post.max-norm",
     "max_norm at experiment.optimizer.post_process must be a "
     "finite number > 0"),
    ("gen", "phi", 2.5, "config.gen.phi",
     "phi at experiment.gen must be an integer >= 1"),
    ("", "batch_size", 2.5, "config.batch-size",
     "batch_size at experiment must be an integer >= 1"),
    # and values a state's dim once failed on inside numpy and a
    # controller's horizon once accepted
    ("problem", "d", 2.5, "config.problem.d",
     "d at experiment.problem must be an integer >= 1"),
    ("", "iterations", 2.5, "config.iterations",
     "iterations at experiment must be an integer >= 1"),
]


def _golden_id(case):
    section, key, value = case[:3]
    shown = "10**400" if value == 10 ** 400 else repr(value)
    return f"{section or 'root'}.{key}={shown}"


@pytest.mark.parametrize("section, key, value, code, message", _FIELD_GOLDEN,
                         ids=[_golden_id(c) for c in _FIELD_GOLDEN])
def test_field_messages_are_pinned(section, key, value, code, message):
    assert _outcome(_field_input(section, key, value)) == (code, message)


def _library_sites(section, key):
    """(site, argument, build from a value) for each library argument that
    takes the config setting ``key`` of ``section``. Root log_every and
    gen eta0 and decay have none."""
    if section == "problem":
        sites = [("generate_dataset", key, lambda v: generate_dataset(
            **{"seed": 0, "n": 50, "d": 2, key: v}))]
        if key == "d":
            sites += [(make.__name__, "dim", lambda v, make=make: make(dim=v))
                      for make in (SgdState, AdamWState)]
        return sites
    if section == "optimizer":
        return [(make.__name__, key, lambda v, make=make: make(2, **{key: v}))
                for make in (SgdState, AdamWState)
                if key in {f.name for f in dataclasses.fields(make)}]
    if section == "post":
        return [("ClipToNorm", key, ClipToNorm)]
    sites = []
    if section == "gen" and key not in ("eta0", "decay"):
        sites.append(("GenController", key,
                      lambda v: GenController(eta=0.1, **{key: v})))
    if key == "probe_points":
        one = QuadraticProblem([[1.0]])
        sites.append(("probe_losses", "points", lambda v: probe_losses(
            one, np.ones(1), np.ones(1), 0.5, points=v)))
    if (section, key) == ("", "eta"):
        sites.append(("GenController", key, lambda v: GenController(eta=v)))
    if (section, key) == ("", "iterations"):
        sites.append(("GenController", "horizon",
                      lambda v: GenController(eta=0.1, horizon=v)))
    if (section, key) == ("", "seed"):
        sites.append(("SyntheticNoise", key,
                      lambda v: SyntheticNoise(seed=v, batch_size=1)))
    if (section, key) == ("", "batch_size"):
        # a null batch_size runs on the full batch
        sites.append(("SyntheticNoise", key, lambda v: FULL_DATA if v is None
                      else SyntheticNoise(seed=0, batch_size=v)))
    return sites


# the golden cases a library argument can meet: every one but the n * d
# size and a batch size on a deterministic problem, which check two
# settings together, and a null eta or horizon, which a config's root
# and a controller read as unset
_LIBRARY_CASES = [
    (site, arg, build, case) for case in _FIELD_GOLDEN
    if case[3] not in ("config.problem.size",
                       "config.batch-size.not-stochastic")
    for site, arg, build in _library_sites(*case[:2])
    if not (arg in ("eta", "horizon") and case[2] is None)]


@pytest.mark.parametrize(
    "arg, build, case", [c[1:] for c in _LIBRARY_CASES],
    ids=[f"{_golden_id(c[3])}-{c[0]}" for c in _LIBRARY_CASES])
def test_library_rejects_what_a_config_rejects(arg, build, case):
    # the same rule, so the same verdict and requirement on every value
    code, message = case[3:]
    if code is None:
        build(case[2])
        return
    requirement = message.split(" must be ", 1)[1].split(" (got the")[0]
    with pytest.raises(ValueError) as e:
        build(case[2])
    assert str(e.value) == f"{arg} must be {requirement}"


def _post(**post):
    return {"optimizer": {"kind": "sgd", "post_process": post}}


def _quadratic(**keys):
    return {"problem": dict({"kind": "quadratic"}, **keys)}


# (id, mutation of the minimal experiment, code, message); the last cases
# have two or more bad fields, where the first check in order wins
_SITE_GOLDEN = [
    ("experiment-not-a-mapping", [],
     "config.not-a-mapping",
     "experiment must be a mapping"),
    ("unknown-root-key", {"lerning_rate": 0.1},
     "config.unknown-key",
     "unknown key 'lerning_rate' at experiment"),
    ("missing-iterations", {"iterations": _DROP},
     "config.missing-key",
     "missing required key 'iterations' at experiment"),
    ("bad-name", {"name": "bad name"},
     "config.name",
     "name at experiment must use only letters, digits, '.', '_', '-'"),
    ("null-name", {"name": None},
     "config.name",
     "name at experiment must use only letters, digits, '.', '_', '-'"),
    ("problem-not-a-mapping", {"problem": 3},
     "config.not-a-mapping",
     "experiment.problem must be a mapping"),
    ("problem-unknown-key", {"problem": {"kind": "rosenbrock", "size": 2}},
     "config.unknown-key",
     "unknown key 'size' at experiment.problem"),
    ("problem-missing-kind", {"problem": {}},
     "config.missing-key",
     "missing required key 'kind' at experiment.problem"),
    ("problem-kind", {"problem": {"kind": "warp"}},
     "config.problem.kind",
     "unknown problem kind 'warp' at experiment.problem; expected one of "
     "('rosenbrock', 'beale', 'quadratic', 'logreg')"),
    ("rosenbrock-takes-no-parameters",
     {"problem": {"kind": "rosenbrock", "n": 4}},
     "config.unknown-key",
     "unknown key 'n' at experiment.problem "
     "(problem 'rosenbrock' takes no parameters)"),
    ("rosenbrock-names-the-first-sorted-key",
     {"problem": {"kind": "rosenbrock", "seed": 0, "n": 4}},
     "config.unknown-key",
     "unknown key 'n' at experiment.problem "
     "(problem 'rosenbrock' takes no parameters)"),
    ("quadratic-unknown-key", _quadratic(matrix_a=[[1.0]], seed=0),
     "config.unknown-key",
     "unknown key 'seed' at experiment.problem"),
    ("quadratic-missing-matrix", _quadratic(),
     "config.missing-key",
     "missing required key 'matrix_a' at experiment.problem"),
    ("matrix-not-square", _quadratic(matrix_a=[[1, 2]]),
     "config.problem.matrix",
     "matrix_a at experiment.problem must be a square matrix "
     "of finite numbers"),
    ("matrix-not-symmetric", _quadratic(matrix_a=[[2.0, 1.0], [0.0, 2.0]]),
     "config.problem.matrix",
     "matrix_a must be symmetric at experiment.problem"),
    ("matrix-not-positive-definite",
     _quadratic(matrix_a=[[1.0, 0.0], [0.0, -1.0]]),
     "config.problem.matrix",
     "matrix_a must be positive definite at experiment.problem"),
    ("offset", _quadratic(matrix_a=[[1.0]], offset=[1, 2]),
     "config.problem.offset",
     "offset at experiment.problem must be a list of 1 finite numbers"),
    ("logreg-missing-n", {"problem": {"kind": "logreg", "seed": 0, "d": 2}},
     "config.missing-key",
     "missing required key 'n' at experiment.problem"),
    ("logreg-unknown-key", {"problem": dict(_LOGREG, offset=[0.0])},
     "config.unknown-key",
     "unknown key 'offset' at experiment.problem"),
    ("optimizer-not-a-mapping", {"optimizer": "sgd"},
     "config.not-a-mapping",
     "experiment.optimizer must be a mapping"),
    ("optimizer-unknown-key", {"optimizer": {"kind": "sgd", "lr": 0.1}},
     "config.unknown-key",
     "unknown key 'lr' at experiment.optimizer"),
    ("optimizer-missing-kind", {"optimizer": {}},
     "config.missing-key",
     "missing required key 'kind' at experiment.optimizer"),
    ("optimizer-kind", {"optimizer": {"kind": "lion"}},
     "config.optimizer.kind",
     "unknown optimizer kind 'lion' at experiment.optimizer; expected one "
     "of ('sgd', 'adamw', 'newton')"),
    ("optimizer-key-for-kind",
     {"optimizer": {"kind": "adamw", "momentum": 0.9}},
     "config.unknown-key",
     "unknown key 'momentum' at experiment.optimizer "
     "for optimizer kind 'adamw'"),
    ("newton-key-for-kind",
     {"optimizer": {"kind": "newton", "momentum": 0.9}},
     "config.unknown-key",
     "unknown key 'momentum' at experiment.optimizer "
     "for optimizer kind 'newton'"),
    ("post-not-a-mapping",
     {"optimizer": {"kind": "sgd", "post_process": "clip"}},
     "config.not-a-mapping",
     "experiment.optimizer.post_process must be a mapping"),
    ("post-unknown-key", _post(kind="clip", norm=1.0),
     "config.unknown-key",
     "unknown key 'norm' at experiment.optimizer.post_process"),
    ("post-missing-kind", _post(),
     "config.missing-key",
     "missing required key 'kind' at experiment.optimizer.post_process"),
    ("post-kind", _post(kind="glow"),
     "config.post.kind",
     "unknown post_process kind 'glow' at experiment.optimizer.post_process"),
    ("clip-missing-max-norm", _post(kind="clip"),
     "config.missing-key",
     "missing required key 'max_norm' at experiment.optimizer.post_process"),
    ("clip-key-for-kind", _post(kind="clip", max_norm=1.0, mask=[1, 1]),
     "config.unknown-key",
     "unknown key 'mask' at experiment.optimizer.post_process"),
    ("mask-missing-mask", _post(kind="mask"),
     "config.missing-key",
     "missing required key 'mask' at experiment.optimizer.post_process"),
    ("mask-entries", _post(kind="mask", mask=[0.5, 1]),
     "config.post.mask",
     "mask at experiment.optimizer.post_process must be a list of 2 0/1 "
     "entries"),
    ("mask-length", _post(kind="mask", mask=[1]),
     "config.post.mask",
     "mask at experiment.optimizer.post_process must be a list of 2 0/1 "
     "entries"),
    ("sign-takes-no-parameters", _post(kind="sign", max_norm=1.0),
     "config.unknown-key",
     "unknown key 'max_norm' at experiment.optimizer.post_process"),
    ("identity-names-the-first-sorted-key",
     _post(kind="identity", max_norm=1.0, mask=[1, 1]),
     "config.unknown-key",
     "unknown key 'mask' at experiment.optimizer.post_process"),
    ("gen-not-a-mapping", {"eta": _DROP, "gen": "auto"},
     "config.not-a-mapping",
     "experiment.gen must be a mapping"),
    ("gen-unknown-key", {"eta": _DROP, "gen": {"period": 3}},
     "config.unknown-key",
     "unknown key 'period' at experiment.gen"),
    ("eta-and-gen", {"gen": {"eta0": 0.1}},
     "config.eta-and-gen",
     "experiment sets both a fixed eta and gen settings; pick one"),
    ("start-point", {"start_point": "origin"},
     "config.start-point",
     "start_point at experiment must be a list of 2 finite numbers"),
    ("start-point-length", {"start_point": [0.0, 0.0, 0.0]},
     "config.start-point",
     "start_point at experiment must be a list of 2 finite numbers"),
    ("not-stochastic", {"batch_size": 8},
     "config.batch-size.not-stochastic",
     "batch_size at experiment requires a logreg problem; 'rosenbrock' is "
     "deterministic"),
    ("too-large", {"problem": _LOGREG, "batch_size": 51},
     "config.batch-size.too-large",
     "batch_size 51 at experiment exceeds the dataset size 50"),
    ("problem-before-iterations",
     {"iterations": 0, "problem": dict(_LOGREG, n=1)},
     "config.problem.n",
     "n at experiment.problem must be an integer >= 2"),
    ("seed-before-n", {"problem": dict(_LOGREG, seed=-1, n=1)},
     "config.problem.seed",
     "seed at experiment.problem must be a non-negative integer"),
    ("n-before-d", {"problem": dict(_LOGREG, n=1, d=0, l2_penalty=-1.0)},
     "config.problem.n",
     "n at experiment.problem must be an integer >= 2"),
    ("momentum-before-weight-decay",
     {"optimizer": {"kind": "sgd", "weight_decay": -1.0, "momentum": 2.0}},
     "config.optimizer.momentum",
     "momentum at experiment.optimizer must be in [0, 1)"),
    ("gamma-before-phi", {"eta": _DROP, "gen": {"phi": 0, "gamma": 2.0}},
     "config.gen.gamma",
     "gamma at experiment.gen must be in [0, 1)"),
    ("iterations-before-gen",
     {"iterations": 0, "eta": _DROP, "gen": {"gamma": 2.0}},
     "config.iterations",
     "iterations at experiment must be an integer >= 1"),
    ("gen-before-batch-size",
     {"batch_size": 0, "eta": _DROP, "gen": {"phi": 0}},
     "config.gen.phi",
     "phi at experiment.gen must be an integer >= 1"),
    ("start-point-before-batch-size", {"batch_size": 0, "start_point": [1.0]},
     "config.start-point",
     "start_point at experiment must be a list of 2 finite numbers"),
    ("eta-and-gen-before-batch-size", {"batch_size": 0, "gen": {}},
     "config.eta-and-gen",
     "experiment sets both a fixed eta and gen settings; pick one"),
    ("logreg-n-past-the-address-space",
     {"problem": dict(_LOGREG, n=10 ** 40)},
     "config.problem.size",
     _SIZE + "(got 10000000000000000000000000000000000000000 * 2)"),
    ("logreg-at-the-address-space",
     {"problem": dict(_LOGREG, n=2 ** 60 - 1, d=1)}, None, None),
]


@pytest.mark.parametrize("mutation, code, message",
                         [c[1:] for c in _SITE_GOLDEN],
                         ids=[c[0] for c in _SITE_GOLDEN])
def test_site_messages_are_pinned(mutation, code, message):
    assert _outcome(_mutated(mutation)) == (code, message)


_ROOT = "format_version: 1\noutput_dir: out\n"
_EXP = ("  - {name: a, problem: {kind: rosenbrock}, optimizer: {kind: sgd}, "
        "iterations: 5, eta: 0.001}\n")

# (id, file contents or None for no file, code, message with {path} for
# the config path)
_LOAD_GOLDEN = [
    ("missing-file", None,
     "config.unreadable",
     "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    ("not-utf-8", b"format_version: 1\noutput_dir: r\xe9sultats\n",
     "config.unreadable",
     "cannot read {path}: byte 0xe9 at position 31 is not UTF-8 "
     "(invalid continuation byte)"),
    ("empty-file", "",
     "config.not-a-mapping",
     "config root must be a mapping"),
    ("root-not-a-mapping", "- 1\n",
     "config.not-a-mapping",
     "config root must be a mapping"),
    ("unknown-root-key", "format_version: 1\nsurprise: 1\n",
     "config.unknown-key",
     "unknown key 'surprise' at config root"),
    ("missing-format-version", "output_dir: out\nexperiments: []\n",
     "config.missing-key",
     "missing required key 'format_version' at config root"),
    ("missing-experiments", _ROOT,
     "config.missing-key",
     "missing required key 'experiments' at config root"),
    ("format-version", "format_version: 2\noutput_dir: out\nexperiments:\n",
     "config.format-version",
     "unsupported format_version 2; this build reads version 1"),
    ("format-version-string",
     "format_version: '1'\noutput_dir: out\nexperiments:\n",
     "config.format-version",
     "unsupported format_version '1'; this build reads version 1"),
    ("output-dir", "format_version: 1\noutput_dir: ''\nexperiments:\n",
     "config.output-dir",
     "output_dir must be a non-empty path string"),
    ("output-dir-number", "format_version: 1\noutput_dir: 3\nexperiments:\n",
     "config.output-dir",
     "output_dir must be a non-empty path string"),
    ("no-experiments", _ROOT + "experiments: []\n",
     "config.no-experiments",
     "no experiments: the experiments list is empty"),
    ("experiments-not-a-list", _ROOT + "experiments: {a: 1}\n",
     "config.no-experiments",
     "no experiments: the experiments list is empty"),
    ("experiment-error",
     _ROOT + "experiments:\n" + _EXP + _EXP.replace("5", "0"),
     "config.iterations",
     "iterations at experiments[1] must be an integer >= 1"),
    ("duplicate-name", _ROOT + "experiments:\n" + _EXP + _EXP,
     "config.duplicate-name",
     "duplicate experiment name 'a'"),
]


@pytest.mark.parametrize("text, code, message",
                         [c[1:] for c in _LOAD_GOLDEN],
                         ids=[c[0] for c in _LOAD_GOLDEN])
def test_load_config_messages_are_pinned(tmp_path, text, code, message):
    path = tmp_path / "config.yaml"
    if text is not None:
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(SpecError) as e:
        cli.load_config(str(path))
    assert (e.value.code, str(e.value)) == (
        code, message.replace("{path}", str(path)))


def test_load_config_parse_message_is_pinned(tmp_path):
    # the parser's own text follows the path; it differs between libyaml
    # and the pure-Python loader
    text = "experiments: [unclosed"
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(yaml.YAMLError) as parsed:
        yaml.load(text, Loader=cli._YAML_LOADER)
    with pytest.raises(SpecError) as e:
        cli.load_config(str(path))
    assert (e.value.code, str(e.value)) == (
        "config.parse", f"cannot parse {path}: {parsed.value}")


def test_numpy_scalars_pass_as_config_values():
    # the settings rules take numpy scalars, as the library does
    data = _minimal(problem={"kind": "logreg", "seed": np.int64(1),
                             "n": np.int64(40), "d": np.int32(2)},
                    iterations=np.int64(3), batch_size=np.int64(8))
    data["optimizer"] = {"kind": "sgd", "momentum": np.float32(0.5)}
    want = _minimal(problem={"kind": "logreg", "seed": 1, "n": 40, "d": 2},
                    iterations=3, batch_size=8)
    want["optimizer"] = {"kind": "sgd", "momentum": 0.5}
    assert (run_experiment(spec_from_dict(data)).records
            == run_experiment(spec_from_dict(want)).records)
    # n * d is taken in Python integers, so it cannot wrap around
    huge = np.int64(2 ** 40)
    assert _outcome(_minimal(problem=dict(_LOGREG, n=huge, d=huge)))[0] == (
        "config.problem.size")


def test_gen_defaults_fill_in():
    # a config fills in the two settings the controller does not take; the
    # controller declares the others, and a run that spells them out
    # records the same steps
    base = _minimal(gen={}, iterations=40)
    del base["eta"]
    spec = spec_from_dict(base)
    assert spec.gen == {"eta0": "auto", "decay": False}
    ctrl = GenController(eta=1.0)
    assert (ctrl.gamma, ctrl.phi, ctrl.probe_points, ctrl.r2_threshold,
            ctrl.horizon, ctrl.estimator) == (0.9, 8, 3, 0.99, None, "fit")
    spelled = dict(base, gen={"eta0": "auto", "gamma": 0.9, "phi": 8,
                              "probe_points": 3, "r2_threshold": 0.99,
                              "decay": False, "estimator": "fit"})
    ran = run_experiment(spec)
    assert ran.gen_stats["fit_attempts"] == 5
    assert ran.records == run_experiment(spec_from_dict(spelled)).records


def test_kinds_take_exactly_the_section_settings():
    # every setting of a section is some kind's key, and every key a kind
    # takes is a setting or one of the structured keys checked by hand
    for section, kinds in harness.KINDS.items():
        taken = {key for keys, *_ in kinds.values() for key in keys}
        assert set(SETTINGS[section]) <= taken, section
        assert taken - set(SETTINGS[section]) <= {
            "matrix_a", "offset", "mask", "post_process"}, section


def test_build_problem_kinds():
    assert build_problem({"kind": "rosenbrock"}).dim == 2
    q = build_problem({"kind": "quadratic", "matrix_a": [[2.0, 0.0], [0.0, 8.0]],
                       "offset": [1.0, -1.0]})
    assert isinstance(q, QuadraticProblem)
    np.testing.assert_array_equal(q.known_minimizer, [1.0, -1.0])
    lr = build_problem({"kind": "logreg", "seed": 4, "n": 64, "d": 3})
    assert lr.features.shape == (64, 3)


# ---------------------------------------------------------------------------
# run_experiment


def test_run_experiment_needs_eta_or_gen():
    base = _minimal()
    del base["eta"]
    spec = spec_from_dict(base)
    with pytest.raises(SpecError) as e:
        run_experiment(spec)
    assert _code(e) == "config.needs-eta-or-gen"


def test_run_one_step_drop_matches_hand_calculation():
    # one adaptive step on the diag(2, 8) quadratic from (1, 1): the fitted
    # rate is 68/520 and the loss drops by 68^2 / (2 * 520)
    spec = spec_from_dict({
        "problem": {"kind": "quadratic", "matrix_a": [[2.0, 0.0], [0.0, 8.0]]},
        "optimizer": {"kind": "sgd"},
        "iterations": 1,
        "start_point": [1.0, 1.0],
        "gen": {"eta0": 0.1, "gamma": 0.0, "phi": 1},
    })
    result = run_experiment(spec)
    assert len(result.records) == 1
    expect = 5.0 - 68.0**2 / (2.0 * 520.0)
    assert result.final_loss == pytest.approx(expect, rel=1e-12)
    assert result.records[0].eta == pytest.approx(68.0 / 520.0, rel=1e-12)
    assert result.status == "ok"


def test_decay_scales_the_hvp_eta():
    # the exact step on the diag(2, 8) quadratic from (1, 1) is 68/520;
    # with decay over 4 iterations the first accepted candidate is scaled
    # by 1 - 1/4 before clamping and smoothing
    data = {
        "problem": {"kind": "quadratic", "matrix_a": [[2.0, 0.0], [0.0, 8.0]]},
        "optimizer": {"kind": "sgd"},
        "iterations": 4,
        "start_point": [1.0, 1.0],
        "gen": {"eta0": 0.1, "gamma": 0.0, "phi": 1, "estimator": "hvp",
                "decay": True},
    }
    first = run_experiment(spec_from_dict(data)).records[0]
    assert first.eta_candidate == pytest.approx(68.0 / 520.0, rel=1e-12)
    assert first.fit_accepted
    assert first.eta == pytest.approx(0.75 * 68.0 / 520.0, rel=1e-12)
    data["gen"]["decay"] = False
    undecayed = run_experiment(spec_from_dict(data)).records[0]
    assert undecayed.eta == pytest.approx(68.0 / 520.0, rel=1e-12)


def test_singular_newton_hessian_is_a_diverged_stop():
    # the Rosenbrock Hessian at (0, 0.005) is diag(0, 200)
    result = run_experiment(spec_from_dict(_minimal(
        optimizer={"kind": "newton"}, eta=1.0, start_point=[0.0, 0.005])))
    assert result.status == "diverged"
    assert [rec.step for rec in result.records] == [1]
    assert result.final_loss == pytest.approx(1.0025, rel=1e-12)


def test_starting_rate_search_without_a_finite_probe_is_a_diverged_stop():
    # the weight decay sends every eta0 grid probe to a non-finite loss
    data = _minimal(problem={"kind": "logreg", "seed": 1, "n": 64, "d": 1},
                    optimizer={"kind": "sgd", "weight_decay": 1.0e300},
                    start_point=[-0.001], gen={"eta0": "auto"})
    del data["eta"]
    result = run_experiment(spec_from_dict(data))
    assert result.status == "diverged"
    assert [rec.step for rec in result.records] == [1]
    assert math.isnan(result.records[0].eta)
    assert result.gen_stats is None


def test_run_records_post_step_loss():
    spec = spec_from_dict({
        "problem": {"kind": "quadratic", "matrix_a": [[1.0]]},
        "optimizer": {"kind": "sgd"},
        "iterations": 1,
        "start_point": [2.0],
        "eta": 0.5,
    })
    result = run_experiment(spec)
    # w1 = 2 - 0.5 * 2 = 1, so the logged loss is L(w1) = 0.5
    assert result.records[0].loss == 0.5
    assert result.final_loss == 0.5
    np.testing.assert_array_equal(result.final_w, [1.0])
    assert len(result.ws) == 2  # start + one step


def test_run_is_bit_reproducible():
    spec = spec_from_dict({
        "problem": {"kind": "logreg", "seed": 7, "n": 256, "d": 4},
        "optimizer": {"kind": "sgd", "momentum": 0.9},
        "iterations": 40,
        "batch_size": 32,
        "seed": 5,
        "gen": {"eta0": 0.1, "phi": 4},
    })
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert dataclasses.asdict(ra) == dataclasses.asdict(rb)
    np.testing.assert_array_equal(a.final_w, b.final_w)


def test_run_seed_changes_minibatch_draws():
    base = {
        "problem": {"kind": "logreg", "seed": 7, "n": 256, "d": 4},
        "optimizer": {"kind": "sgd"},
        "iterations": 20,
        "batch_size": 16,
        "eta": 0.05,
    }
    a = run_experiment(spec_from_dict(dict(base, seed=1)))
    b = run_experiment(spec_from_dict(dict(base, seed=2)))
    assert a.final_loss != b.final_loss


def test_run_log_every_keeps_final_record():
    spec = spec_from_dict(_minimal(iterations=10, log_every=3))
    result = run_experiment(spec)
    assert [r.step for r in result.records] == [3, 6, 9, 10]
    spec2 = spec_from_dict(_minimal(iterations=9, log_every=3))
    assert [r.step for r in run_experiment(spec2).records] == [3, 6, 9]


def test_run_divergence_halts_early():
    spec = spec_from_dict(_minimal(eta=10.0, iterations=500, log_every=100))
    result = run_experiment(spec)
    assert result.status == "diverged"
    assert result.records[-1].step < 500
    last = result.records[-1]
    assert not math.isfinite(last.loss) or last.loss > DIVERGENCE_LOSS


# one unit of u = w / S; w overflows at u = 32
S = 2.0 ** 1019


class _ScaledSlice(Objective):
    """0.5 * (u - 100)^2 in u = w / S, exact in binary at integer u.

    ``loss_grad`` reports the gradient in u units. ``script`` maps a
    ``loss_grad`` call number to the (loss, grad) returned instead: on the
    full batch call k opens step k and closes step k - 1.
    """

    dim = 1
    default_start = np.array([0.0])

    def __init__(self, script):
        self.script = script
        self.calls = 0

    def loss(self, w, batch=FULL_DATA):
        return 0.5 * (w[0] / S - 100.0) ** 2

    def loss_grad(self, w, batch=FULL_DATA):
        self.calls += 1
        if self.calls in self.script:
            return self.script[self.calls]
        u = w[0] / S
        return 0.5 * (u - 100.0) ** 2, np.array([u - 100.0])


# every run steps u forward one unit per unit eta, so step 1 ends at u = 1
# with loss 4900.5 and step 2 sees the gradient -99. The adaptive run
# (eta0 1, gamma 0, phi 2) fits on step 2: the probes at u = 0, 1, 2 give
# the candidate 99, clamped to eta 10; a step-2 direction of -4 S gives
# the candidate 24.75, also clamped to 10, and a step to u = 41. The last
# entry counts the iterates kept: the start and each step that stepped,
# the one a post-step loss stops included.
_STOPS = {
    "loss": ({1: (math.inf, np.array([-100.0]))}, {},
             {"fixed": (1, math.inf, 1.0, math.nan, None, False, None),
              "adaptive": (1, math.inf, math.nan, math.nan, None, False,
                           None)}, 1),
    "grad": ({2: (4900.5, np.array([math.nan]))}, {},
             {"fixed": (2, 4900.5, 1.0, math.nan, None, False, None),
              "adaptive": (2, 4900.5, 1.0, math.nan, None, False, None)}, 2),
    "direction": ({}, {2: {"fixed": math.inf, "adaptive": math.inf}},
                  {"fixed": (2, 4900.5, 1.0, 99.0, None, False, None),
                   "adaptive": (2, 4900.5, 1.0, 99.0, None, False, None)},
                  2),
    "step": ({}, {2: {"fixed": -31 * S, "adaptive": -4 * S}},
             {"fixed": (2, 4900.5, 1.0, 99.0, None, False, None),
              "adaptive": (2, 4900.5, 10.0, 99.0, 24.75, True, 1.0)}, 2),
    "post": ({3: (2e12, np.array([-89.0]))}, {},
             {"fixed": (2, 2e12, 1.0, 99.0, None, False, None),
              "adaptive": (2, 2e12, 10.0, 99.0, 99.0, True, 1.0)}, 3),
}


def _scripted_run(mode, losses, directions):
    """``_execute`` on ``_ScaledSlice(losses)`` for 3 steps, logging each,
    with step t's direction ``directions[t][mode]`` (default -S); returns
    the result and the directions handed out."""
    handed = []

    def direction_fn(g, w, batch):
        step = len(handed) + 1
        handed.append(np.array([directions.get(step, {}).get(mode, -S)]))
        return handed[-1]

    if mode == "fixed":
        drive = {"eta": 1.0}
    else:
        drive = {"eta": None, "gen": {"eta0": 1.0, "gamma": 0.0, "phi": 2}}
    spec = spec_from_dict(_minimal(iterations=3, **drive))
    return (harness._execute(_ScaledSlice(losses), direction_fn, spec),
            handed)


def _check_iterates(result, directions, rows):
    # ws is one array of the start and the ``rows - 1`` stepped iterates,
    # each with the bits of stepping the previous one by its record's rate
    ws = result.ws
    assert type(ws) is np.ndarray and ws.dtype == np.float64
    assert ws.flags.c_contiguous and ws.shape == (rows, 1)
    ref = [np.array([0.0])]
    for rec, d in zip(result.records[:rows - 1], directions):
        ref.append(ref[-1] - rec.eta * d)
    assert ws.tobytes() == np.array(ref).tobytes()
    # final_w is the last row, held apart from ws
    assert ws[-1].tobytes() == result.final_w.tobytes()
    last = ws[-1].copy()
    result.final_w[0] = 12345.0
    assert ws[-1].tobytes() == last.tobytes()
    ws[-1] = 54321.0
    assert result.final_w.tolist() == [12345.0]


@pytest.mark.parametrize("mode", ["fixed", "adaptive"])
@pytest.mark.parametrize("stop", list(_STOPS))
def test_each_stop_records_the_step_that_blew_up(mode, stop):
    losses, directions, expect, rows = _STOPS[stop]
    result, handed = _scripted_run(mode, losses, directions)
    assert result.status == "diverged"
    assert len(result.records) == expect[mode][0]
    # repr spells nan, inf and None exactly
    assert repr(dataclasses.astuple(result.records[-1])) == repr(expect[mode])
    _check_iterates(result, handed, rows)


@pytest.mark.parametrize("mode", ["fixed", "adaptive"])
def test_ok_run_keeps_every_iterate(mode):
    result, handed = _scripted_run(mode, {}, {})
    assert result.status == "ok" and len(result.records) == 3
    _check_iterates(result, handed, 4)


class _Steep(Objective):
    """A flat loss whose gradient is ``scale`` in each of two entries."""

    dim = 2
    default_start = np.zeros(2)

    def __init__(self, scale):
        self.scale = scale

    def loss_grad(self, w, batch=FULL_DATA):
        return 1.0, np.full(2, self.scale)

    def loss(self, w, batch=FULL_DATA):
        return 1.0


def test_gradient_whose_square_sum_overflows_goes_on():
    # every entry is finite, g . g is inf: the norm reads inf, as
    # norm(g) does, and the run takes all its steps
    spec = spec_from_dict(_minimal(iterations=3, eta=1e-300))
    result = harness._execute(_Steep(1e200), lambda g, w, batch: g, spec)
    assert result.status == "ok"
    assert [r.grad_norm for r in result.records] == [math.inf] * 3
    with np.errstate(over="ignore"):
        assert norm(np.full(2, 1e200)) == math.inf
    assert result.final_w.tolist() == [-3e-100, -3e-100]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_gradient_stops_the_run(bad):
    spec = spec_from_dict(_minimal(iterations=3, eta=1e-3))
    result = harness._execute(_Steep(bad), lambda g, w, batch: g, spec)
    assert result.status == "diverged"
    assert len(result.records) == 1
    assert math.isnan(result.records[0].grad_norm)
    assert result.final_w.tolist() == [0.0, 0.0]


def test_run_batch_size_too_large():
    data = {
        "problem": {"kind": "logreg", "seed": 0, "n": 32, "d": 2},
        "optimizer": {"kind": "sgd"},
        "iterations": 5,
        "eta": 0.1,
        "batch_size": 64,
    }
    with pytest.raises(SpecError) as e:
        spec_from_dict(data)
    assert _code(e) == "config.batch-size.too-large"
    # a spec built without validation meets the same check in the run
    with pytest.raises(SpecError) as e:
        run_experiment(ExperimentSpec(**data))
    assert _code(e) == "config.batch-size.too-large"
    spec_from_dict(dict(data, batch_size=32))


def _newton_hvp_quadratic(iterations, **gen):
    return spec_from_dict({
        "problem": {"kind": "quadratic",
                    "matrix_a": [[4.0, 1.0], [1.0, 3.0]],
                    "offset": [2.0, -1.0]},
        "optimizer": {"kind": "newton"},
        "iterations": iterations,
        "gen": dict(gen, estimator="hvp"),
    })


def test_run_newton_hvp_one_step_on_quadratic():
    # curvature-exact rate on the Newton direction solves a quadratic in
    # one iteration
    result = run_experiment(_newton_hvp_quadratic(3, eta0=0.1, gamma=0.0,
                                                  phi=1))
    iters, ratios = convergence_metrics(result, [2.0, -1.0])
    assert iters is not None and iters <= 1
    assert result.records[0].eta == pytest.approx(1.0, rel=1e-12)


def test_run_gen_stats_surface():
    spec = spec_from_dict({
        "problem": {"kind": "rosenbrock"},
        "optimizer": {"kind": "sgd"},
        "iterations": 20,
        "gen": {"eta0": 0.001, "phi": 8},
    })
    result = run_experiment(spec)
    assert result.gen_stats is not None
    assert result.gen_stats["fit_attempts"] == 2  # steps 8 and 16
    fixed = run_experiment(spec_from_dict(_minimal()))
    assert fixed.gen_stats is None


def test_hvp_candidate_is_clamped_like_a_fit():
    # the exact step on the Newton direction is 1, a hundred times eta0;
    # the shared clamp lets one accepted estimate move eta one decade
    result = run_experiment(_newton_hvp_quadratic(1, eta0=0.01, gamma=0.0,
                                                  phi=1))
    rec = result.records[0]
    assert rec.fit_accepted
    assert rec.eta_candidate == pytest.approx(1.0, rel=1e-12)
    assert rec.eta == 0.1


def test_hvp_counters_follow_the_phi_schedule():
    result = run_experiment(_newton_hvp_quadratic(10, eta0=0.01, gamma=0.0,
                                                  phi=3))
    stats = result.gen_stats
    assert stats["fit_attempts"] == 3  # steps 3, 6 and 9
    assert stats["fits_accepted"] + stats["fits_rejected"] == 3
    prev = 0.01
    for rec in result.records:
        if rec.step % 3:
            assert rec.eta_candidate is None and not rec.fit_accepted
        assert rec.fit_r2 is None
        if rec.fit_accepted:
            assert prev / 10.0 <= rec.eta <= prev * 10.0
        else:
            assert rec.eta == prev
        prev = rec.eta


@pytest.mark.parametrize("config", [
    {"problem": {"kind": "rosenbrock"}, "optimizer": {"kind": "sgd"},
     "eta": 0.001},
    {"problem": {"kind": "rosenbrock"}, "optimizer": {"kind": "adamw"},
     "gen": {"eta0": "auto", "phi": 2}},
    {"problem": {"kind": "beale"}, "optimizer": {"kind": "newton"},
     "start_point": [2.8, 0.45],
     "gen": {"eta0": 0.1, "gamma": 0.0, "phi": 1, "estimator": "hvp"}},
], ids=["fixed", "fit", "hvp"])
def test_trajectory_grad_norm_is_the_step_gradient_norm(config):
    spec = spec_from_dict(dict(config, iterations=12))
    result = run_experiment(spec)
    problem = build_problem(spec.problem)
    assert result.status == "ok" and len(result.records) == 12
    for rec, w in zip(result.records, result.ws):
        assert rec.grad_norm == norm(problem.grad(w))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the logreg kernel calls made while the test runs."""
    calls = {"loss": 0, "loss_grad": 0}

    def counting(name):
        inner = getattr(kernels, f"logreg_{name}")

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(kernels, f"logreg_{name}", counting(name))
    return calls


def _fit_calls(n, phi, points, eta0):
    # loss calls of the fits and the starting-rate search in an n-step run:
    # a fit every phi steps probes points - 1 off-centre points and takes
    # the current loss as its centre, and the search reuses that loss too,
    # one pass per grid point
    return (points - 1) * (n // phi) + (len(ETA0_GRID) if eta0 == "auto"
                                        else 0)


@pytest.mark.parametrize("eta0", [0.5, "auto"])
@pytest.mark.parametrize("points", [3, 5])
@pytest.mark.parametrize("phi", [1, 3])
def test_full_batch_run_kernel_calls(kernel_calls, phi, points, eta0):
    # every step carries its post-step loss and gradient into the next
    # one; only the last step needs its post-step loss alone
    n = 10
    spec = spec_from_dict({
        "problem": {"kind": "logreg", "seed": 3, "n": 128, "d": 3},
        "optimizer": {"kind": "sgd"},
        "iterations": n,
        "gen": {"eta0": eta0, "phi": phi, "probe_points": points},
    })
    result = run_experiment(spec)
    assert result.status == "ok" and len(result.records) == n
    assert kernel_calls == {"loss": 1 + _fit_calls(n, phi, points, eta0),
                            "loss_grad": n}


@pytest.mark.parametrize("eta0", [0.5, "auto"])
@pytest.mark.parametrize("points", [3, 5])
@pytest.mark.parametrize("phi", [1, 3])
def test_minibatch_step_draws_its_batch_once(monkeypatch, kernel_calls, phi,
                                             points, eta0):
    seeds = []
    default_rng = np.random.default_rng

    def counting_rng(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    n = 10
    spec = spec_from_dict({
        "problem": {"kind": "logreg", "seed": 3, "n": 128, "d": 3},
        "optimizer": {"kind": "sgd"},
        "iterations": n,
        "batch_size": 16,
        "gen": {"eta0": eta0, "phi": phi, "probe_points": points},
    })
    result = run_experiment(spec)
    assert result.status == "ok"
    # one draw builds the dataset, then one per step serves all of its
    # evaluations: a loss_grad, the fit's probes and the post-step loss
    assert seeds[0] == 3 and len(seeds) == n + 1
    assert len(set(seeds[1:])) == n
    assert kernel_calls == {"loss": n + _fit_calls(n, phi, points, eta0),
                            "loss_grad": n}


@pytest.mark.parametrize("optimizer, eta0, batch_size, per_step, start", [
    # full batch: two probes and a loss_grad per step, one loss_grad to
    # start and the starting-rate search's grid
    ({"kind": "sgd", "momentum": 0.9}, 0.5, None, 3, 1),
    ({"kind": "adamw"}, "auto", None, 3, 1 + len(ETA0_GRID)),
    # mini-batch: a loss_grad, two probes and a post-step loss per step
    ({"kind": "adamw"}, 0.5, 16, 4, 0)])
def test_step_on_its_probe_reuses_the_probes_pass(
        margin_passes, optimizer, eta0, batch_size, per_step, start):
    # a rejected fit leaves eta bit-identical, so its step lands on the +1
    # probe w - eta * d, and the post-step evaluation takes the probe's pass
    n = 12
    spec = spec_from_dict({
        "problem": {"kind": "logreg", "seed": 3, "n": 128, "d": 3},
        "optimizer": optimizer,
        "iterations": n,
        "batch_size": batch_size,
        "gen": {"eta0": eta0, "phi": 1},
    })
    result = run_experiment(spec)
    rejected = result.gen_stats["fits_rejected"]
    assert result.status == "ok" and rejected > 0
    assert margin_passes[0] == per_step * n + start - rejected


def _run_fingerprint(result):
    # repr spells every float exactly, nan included
    return (repr([dataclasses.astuple(r) for r in result.records]),
            result.status, result.final_w.tobytes())


def test_shared_dataset_gives_the_same_run():
    problem = {"kind": "logreg", "seed": 5, "n": 300, "d": 4}
    a = spec_from_dict({"problem": problem, "optimizer": {"kind": "adamw"},
                        "iterations": 15, "batch_size": 32, "seed": 1,
                        "gen": {"eta0": 0.05, "phi": 2}})
    b = spec_from_dict({"problem": problem,
                        "optimizer": {"kind": "sgd", "momentum": 0.9},
                        "iterations": 25, "batch_size": 32, "seed": 2,
                        "gen": {"eta0": "auto", "gamma": 0.9, "phi": 1}})
    alone = _run_fingerprint(run_experiment(b))
    harness._logreg_dataset.cache_clear()
    run_experiment(a)
    assert _run_fingerprint(run_experiment(b)) == alone


def test_dataset_memo_keys_on_the_whole_problem():
    base = {"kind": "logreg", "seed": 4, "n": 64, "d": 3}
    first = build_problem(dict(base))
    assert build_problem(dict(base, l2_penalty=0)) is first
    for over in ({"seed": 5}, {"n": 65}, {"d": 2}, {"l2_penalty": 0.5}):
        other = build_problem(dict(base, **over))
        assert other is not first
        assert other.features.shape == (over.get("n", 64), over.get("d", 3))
        assert other.l2_penalty == over.get("l2_penalty", 0.0)


def test_run_rejects_bad_start_dimension():
    with pytest.raises(SpecError) as e:
        run_experiment(spec_from_dict(_minimal(start_point=[1.0, 2.0, 3.0])))
    assert _code(e) == "config.start-point"


# ---------------------------------------------------------------------------
# grid search


def test_lr_grid_shape():
    assert len(LR_GRID) == 18
    assert LR_GRID[0] == 1e-5
    assert LR_GRID[-1] == 5.0
    assert list(LR_GRID) == sorted(LR_GRID)
    # {1, 2, 5} mantissas per decade
    for eta in LR_GRID:
        mant = eta / 10.0 ** math.floor(math.log10(eta) + 1e-12)
        assert round(mant) in (1, 2, 5)


def test_grid_search_finds_exact_rate_on_identity():
    # on L = 0.5 ||w||^2 plain SGD with eta = 1 lands exactly on the
    # minimizer, so the grid winner must be 1
    best = pick_best_row(grid_search_rows(spec_from_dict(_minimal(
        problem={"kind": "quadratic", "matrix_a": [[1.0, 0.0], [0.0, 1.0]]},
        iterations=10, start_point=[1.0, 0.0]))))
    assert best["eta"] == 1.0
    assert best["final_loss"] == 0.0


def test_grid_search_rows_cover_grid_in_order():
    rows = grid_search_rows(spec_from_dict(_minimal(
        problem={"kind": "quadratic", "matrix_a": [[1.0]]}, iterations=30,
        start_point=[1.0])))
    assert [r["eta"] for r in rows] == list(LR_GRID)
    assert all(set(r) == {"eta", "final_loss", "status"} for r in rows)
    # large rates overshoot and diverge on this problem, small ones crawl
    assert rows[-1]["status"] == "diverged"
    assert rows[0]["status"] == "ok"


def test_grid_search_all_diverged():
    stiff = {"kind": "quadratic", "matrix_a": [[1e15]]}
    rows = grid_search_rows(spec_from_dict(_minimal(
        problem=stiff, iterations=50, start_point=[1.0])))
    assert len(rows) == 18
    assert all(r["status"] == "diverged" for r in rows)
    assert pick_best_row(rows) is None


def test_grid_search_rejects_gen_style_optimizers():
    with pytest.raises(SpecError) as e:
        grid_search_rows(spec_from_dict(_minimal(optimizer={"kind": "newton"},
                                                 iterations=2)))
    assert _code(e) == "config.grid.optimizer"


def test_grid_search_rejects_a_spec_with_gen_settings():
    # a grid rate would otherwise be overridden by the controller's
    spec = spec_from_dict(_minimal(eta=None, gen={"eta0": 0.1}))
    with pytest.raises(SpecError) as e:
        grid_search_rows(spec)
    assert _code(e) == "config.grid.gen-not-allowed"


def test_pick_best_row_tie_goes_to_earlier():
    rows = [
        {"eta": 0.1, "final_loss": 2.0, "status": "ok"},
        {"eta": 0.2, "final_loss": 1.0, "status": "ok"},
        {"eta": 0.5, "final_loss": 1.0, "status": "ok"},
        {"eta": 1.0, "final_loss": 0.5, "status": "diverged"},
    ]
    assert pick_best_row(rows)["eta"] == 0.2
    assert pick_best_row([{"eta": 1.0, "final_loss": 1.0,
                           "status": "diverged"}]) is None


# ---------------------------------------------------------------------------
# grid lanes: the rates of a grid step in lockstep, pinned bit for bit to
# one _execute run per rate


GRID_CONFIG = Path(__file__).resolve().parents[1] / "configs" / \
    "grid_baselines.yaml"


def _per_rate_rows(problem, spec):
    # the grid as separate runs, one _execute per rate; repr spells every
    # float exactly, nan and inf included
    rows = []
    for eta in LR_GRID:
        _, direction = harness.build_direction_fn(problem, spec.optimizer)
        result = harness._execute(
            problem, direction,
            dataclasses.replace(spec, eta=eta, log_every=spec.iterations))
        rows.append((eta, repr(result.final_loss), result.status))
    return rows


def _lane_rows(problem, spec):
    return [(eta, repr(loss), status) for eta, (loss, status)
            in zip(LR_GRID, harness._grid_lanes(problem, spec))]


LOGREG = {"kind": "logreg", "seed": 1, "n": 200, "d": 3}


def _shape(**over):
    return _minimal(**dict({"iterations": 200}, **over))


# one spec per option shape a grid can take
_GRID_SHAPES = {
    "momentum-decay": _shape(optimizer={"kind": "sgd", "momentum": 0.9,
                                        "weight_decay": 0.01}),
    "adamw-betas": _shape(problem={"kind": "beale"}, optimizer={
        "kind": "adamw", "beta1": 0.5, "beta2": 0.9, "epsilon": 1e-6,
        "weight_decay": 0.1}),
    "clip": _shape(optimizer={"kind": "sgd", "post_process": {
        "kind": "clip", "max_norm": 3.0}}),
    "sign": _shape(problem={"kind": "beale"}, optimizer={
        "kind": "adamw", "post_process": {"kind": "sign"}}),
    "mask": _shape(optimizer={"kind": "sgd", "post_process": {
        "kind": "mask", "mask": [1, 0]}}),
    "start-point": _shape(problem={"kind": "beale"}, start_point=[1.0, 1.0]),
    "quadratic": _shape(problem={
        "kind": "quadratic", "matrix_a": [[3.0, 1.0, 0.0], [1.0, 2.0, 0.0],
                                          [0.0, 0.0, 1.0]],
        "offset": [1.0, 2.0, 3.0]}, optimizer={"kind": "sgd",
                                               "momentum": 0.5}),
    "logreg-full": _shape(problem=dict(LOGREG, l2_penalty=0.01),
                          optimizer={"kind": "adamw"}, iterations=40),
    "logreg-minibatch": _shape(problem=LOGREG, optimizer={
        "kind": "sgd", "momentum": 0.9}, iterations=40, batch_size=16,
        seed=3),
}


def _grid_cases():
    config = yaml.safe_load(GRID_CONFIG.read_text(encoding="utf-8"))
    return ([pytest.param(e, id=e["name"]) for e in config["experiments"]]
            + [pytest.param(d, id=k) for k, d in _GRID_SHAPES.items()])


@pytest.mark.parametrize("data", _grid_cases())
def test_grid_rows_match_one_run_per_rate(data):
    spec = spec_from_dict(data)
    rows = [(r["eta"], repr(r["final_loss"]), r["status"])
            for r in grid_search_rows(spec)]
    assert rows == _per_rate_rows(build_problem(spec.problem), spec)


class _Blowup(Objective):
    """0.5 * (w - 100)^2 with a scripted blow-up where the rate-2 lane
    lands after its first plain SGD step (w = 200, the only iterate of any
    grid rate in (150, 250)).

    Rates below 1 creep towards 100, rate 1 lands on it and rate 5
    oscillates until its post-step loss passes DIVERGENCE_LOSS. ``mode``
    picks what the band returns: an infinite loss from ``loss_grad``, a
    NaN gradient, a gradient whose step overflows, or a loss past
    DIVERGENCE_LOSS from both evaluations.
    """

    dim = 1
    default_start = np.array([0.0])

    def __init__(self, mode):
        self.mode = mode

    def loss(self, w, batch=FULL_DATA):
        if self.mode == "post" and 150.0 < w[0] < 250.0:
            return 2e12
        return 0.5 * (w[0] - 100.0) ** 2

    def loss_grad(self, w, batch=FULL_DATA):
        loss, g = self.loss(w, batch), np.array([w[0] - 100.0])
        if 150.0 < w[0] < 250.0:
            if self.mode == "loss":
                loss = math.inf
            elif self.mode == "grad":
                g = np.array([math.nan])
            elif self.mode == "step":
                g = np.array([-1e308])
        return loss, g


# stop -> (objective mode, optimizer, the rate-2 lane's final loss, or
# None for the loss it opened its last step with). A huge weight decay
# makes the step-2 direction of the rates that moved far enough overflow:
# rate 2 moves to 200 under SGD, to about 2 under AdamW
_LANE_STOPS = {
    "loss": ("loss", {"kind": "sgd"}, math.inf),
    "grad": ("grad", {"kind": "sgd"}, 5000.0),
    "direction": (None, {"kind": "sgd", "weight_decay": 1e306}, 5000.0),
    "adamw-direction": (None, {"kind": "adamw", "weight_decay": 1e308},
                        None),
    "step": ("step", {"kind": "sgd"}, 5000.0),
    "post": ("post", {"kind": "sgd"}, 2e12),
}


@pytest.mark.parametrize("batch_size", [None, 4])
@pytest.mark.parametrize("stop", list(_LANE_STOPS))
def test_lane_stops_match_one_run_per_rate(stop, batch_size):
    # on the full batch the post-step evaluation opens the next step; on a
    # mini-batch each step opens with a fresh loss_grad
    mode, optimizer, loss = _LANE_STOPS[stop]
    spec = spec_from_dict(_minimal(problem=LOGREG, optimizer=optimizer,
                                   iterations=12, batch_size=batch_size))
    problem = _Blowup(mode)
    rows = _lane_rows(problem, spec)
    assert rows == _per_rate_rows(problem, spec)
    eta, final, status = rows[LR_GRID.index(2.0)]
    assert status == "diverged" and rows[-1][2] == "diverged"
    if loss is None:  # it stopped before stepping: a finite, in-bounds loss
        assert float(final) < DIVERGENCE_LOSS
    else:
        assert final == repr(loss)


@pytest.fixture
def apply_steps(monkeypatch):
    """Counts the harness's successful apply_step calls."""
    count = [0]
    real = harness.apply_step

    def counting(*args):
        out = real(*args)
        count[0] += 1
        return out

    monkeypatch.setattr(harness, "apply_step", counting)
    return count


@pytest.mark.parametrize("data", [
    _minimal(iterations=20),
    _minimal(iterations=20, eta=None, gen={"eta0": "auto", "phi": 1}),
    _minimal(problem=LOGREG, iterations=20, batch_size=16, eta=None,
             gen={"eta0": "auto", "phi": 1}),
], ids=["fixed", "adaptive", "minibatch"])
def test_a_run_calls_harness_apply_step_once_per_step(apply_steps, data):
    # genbench counts a workload's steps as the successful calls of
    # harness.apply_step, looked up at call time; the starting-rate search
    # steps through gen's own name and is not counted
    result = run_experiment(spec_from_dict(data))
    assert result.status == "ok"
    assert apply_steps[0] == len(result.ws) - 1 == data["iterations"]


def test_grid_calls_harness_apply_step_once_per_lane_step(apply_steps):
    # the high rates blow up part-way, so the lanes take different counts
    spec = spec_from_dict(_minimal(iterations=30))
    rows = grid_search_rows(spec)
    lanes = apply_steps[0]
    steps = sum(len(run_experiment(dataclasses.replace(spec, eta=eta)).ws)
                - 1 for eta in LR_GRID)
    assert {r["status"] for r in rows} == {"ok", "diverged"}
    assert 0 < lanes == steps < len(LR_GRID) * 30


@pytest.mark.parametrize("problem, data", [
    (None, _minimal(iterations=300)),
    (None, _minimal(problem={"kind": "beale"}, optimizer={
        "kind": "adamw", "post_process": {"kind": "sign"}}, iterations=300)),
    (_Blowup("step"), _minimal(problem=LOGREG, iterations=12)),
    (_Blowup(None), _minimal(problem=LOGREG, iterations=12, optimizer={
        "kind": "sgd", "weight_decay": 1e306})),
], ids=["rosenbrock-sgd", "beale-adamw-sign", "step-stop", "direction-stop"])
def test_grid_takes_the_per_rate_steps(apply_steps, problem, data):
    spec = spec_from_dict(data)
    problem = problem or build_problem(spec.problem)
    harness._grid_lanes(problem, spec)
    lanes = apply_steps[0]
    apply_steps[0] = 0
    _per_rate_rows(problem, spec)
    assert lanes == apply_steps[0]


def test_minibatch_grid_draws_each_batch_once_per_step(monkeypatch):
    seeds = []
    default_rng = np.random.default_rng

    def counting_rng(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    n = 10
    rows = grid_search_rows(spec_from_dict(_minimal(
        problem={"kind": "logreg", "seed": 3, "n": 128, "d": 3},
        iterations=n, batch_size=16)))
    assert all(r["status"] == "ok" for r in rows)
    # one draw builds the dataset, then one per step for all 18 rates
    assert seeds[0] == 3 and len(seeds) == n + 1
    assert len(set(seeds[1:])) == n


def test_child_seeds_are_the_seed_sequence_states():
    # child seeds against numpy's own SeedSequence, for seeds of one to
    # five 32-bit words and steps across the uint32 range
    steps = np.array([0, 1, 2, 255, 256, 1000, 2**31, 2**32 - 1]
                     + list(np.random.default_rng(5).integers(
                         0, 2**32, 24)), dtype=np.uint32)
    for seed in (0, 1, 7, 2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1, 2**64 + 9,
                 2**96 + 3, 2**128 + 1, 2**159 + 12345):
        got = harness._child_seeds(seed, steps).tolist()
        assert got == [int(np.random.SeedSequence([seed, int(step)])
                           .generate_state(1)[0]) for step in steps], seed


def _seed_sequence_state(seed, step):
    return int(np.random.SeedSequence([seed, step]).generate_state(1)[0])


@pytest.mark.parametrize("seed", [7, 2**40 + 3])
def test_batches_follow_the_seed_sequence_schedule(seed):
    # steps 1..600 cross the block starts 256 and 512
    spec = spec_from_dict(_minimal(
        problem={"kind": "logreg", "seed": 0, "n": 64, "d": 2},
        batch_size=16, seed=seed))
    assert list(itertools.islice(harness._batches(spec), 600)) == [
        SyntheticNoise(_seed_sequence_state(seed, t), 16)
        for t in range(1, 601)]


def test_full_batch_steps_take_the_full_data():
    spec = spec_from_dict(_minimal())
    assert set(itertools.islice(harness._batches(spec), 600)) == {FULL_DATA}


@pytest.mark.parametrize("seed", [7, 2**40 + 3])
def test_block_seeds_past_the_uint32_steps(seed):
    # the first block whose steps take two entropy words
    assert harness._block_seeds(seed, 2**32) == [
        _seed_sequence_state(seed, step)
        for step in range(2**32, 2**32 + harness._BLOCK)]


# ---------------------------------------------------------------------------
# studies


def test_error_scaling_validation():
    ds = generate_dataset(seed=1, n=128, d=2)
    with pytest.raises(TypeError):
        error_scaling_study(QuadraticProblem(np.eye(2)), [16], 60, 0)
    with pytest.raises(ValueError):
        error_scaling_study(ds, [16], 10, 0)
    with pytest.raises(ValueError):
        error_scaling_study(ds, [], 60, 0)
    with pytest.raises(ValueError):
        error_scaling_study(ds, [256], 60, 0)  # exceeds n


def test_error_scaling_full_batch_has_zero_spread():
    ds = generate_dataset(seed=2, n=128, d=2)
    res = error_scaling_study(ds, [128], 50, 3)
    assert res.rows == [(128, 0.0)]
    assert math.isnan(res.slope)


def test_error_scaling_spread_shrinks_with_batch():
    ds = generate_dataset(seed=11, n=4096, d=3)
    res = error_scaling_study(ds, [16, 256], 80, 7)
    (b1, s1), (b2, s2) = res.rows
    assert b1 == 16 and b2 == 256
    assert s1 > s2 > 0.0
    assert res.slope < -0.2


def test_error_scaling_reproducible():
    ds = generate_dataset(seed=4, n=512, d=2)
    r1 = error_scaling_study(ds, [32, 64], 50, 9)
    r2 = error_scaling_study(ds, [32, 64], 50, 9)
    assert r1.rows == r2.rows
    assert r1.slope == r2.slope


# ---------------------------------------------------------------------------
# convergence metrics


def test_convergence_metrics_start_at_optimum():
    spec = spec_from_dict({
        "problem": {"kind": "quadratic", "matrix_a": [[1.0]]},
        "optimizer": {"kind": "sgd"},
        "iterations": 2,
        "eta": 0.1,
        "start_point": [0.0],
    })
    result = run_experiment(spec)
    iters, ratios = convergence_metrics(result, [0.0])
    assert iters == 0
    assert ratios == []  # first error is exactly zero


def test_convergence_metrics_diverged_has_no_iters():
    result = run_experiment(spec_from_dict(_minimal(eta=10.0,
                                                    iterations=100)))
    iters, _ = convergence_metrics(result, [1.0, 1.0])
    assert iters is None


def _metrics_reference(result, optimum):
    # convergence_metrics as one norm per iterate, looped in Python
    errs = [norm(w - np.asarray(optimum, dtype=np.float64))
            for w in result.ws]
    iters = None
    if result.status == "ok":
        iters = next((i for i, e in enumerate(errs) if e <= CONVERGENCE_TOL),
                     None)
    ratios = []
    for e, e_next in zip(errs, errs[1:]):
        if e == 0.0:
            break
        ratios.append(e_next / e ** 2)
    return iters, ratios


@pytest.mark.parametrize("config, optimum, rows", [
    # linear convergence: no error is exactly zero, so every row counts
    ({"problem": {"kind": "quadratic", "matrix_a": [[1.0, 0.0], [0.0, 2.0]],
                  "offset": [1.0, -2.0]},
      "optimizer": {"kind": "sgd"}, "eta": 0.3, "iterations": 60,
      "start_point": [0.0, 0.0]}, [1.0, -2.0], 61),
    # the first step overflows: only the start is kept
    (_minimal(eta=1e308), [1.0, 1.0], 1),
], ids=["converged", "diverged-at-start"])
def test_convergence_metrics_match_a_norm_per_iterate(config, optimum, rows):
    result = run_experiment(spec_from_dict(config))
    assert result.ws.shape == (rows, 2)
    iters, ratios = convergence_metrics(result, optimum)
    assert (iters, ratios) == _metrics_reference(result, optimum)
    assert len(ratios) == rows - 1
    if rows > 1:
        assert result.status == "ok" and iters is not None
    else:
        assert result.status == "diverged" and iters is None


def test_convergence_tolerance_constant():
    assert CONVERGENCE_TOL == 1e-6


# ---------------------------------------------------------------------------
# packed run records

# the records a run built when it kept one StepRecord per logged step,
# as astuple spells them: an hvp run (no r2), a 5-point fit, and a run
# whose starting-rate search blows up before eta0 resolves (eta NaN)
_LOGGED = {
    "hvp": ({"iterations": 4,
             "gen": {"estimator": "hvp", "eta0": 1e-3, "phi": 2}},
            [(1, 11.305920062499997, 0.001, 162.8649747490233, None, False,
              None),
             (2, 8.151517542763068, 0.0009639055952398261, 133.9268367083405,
              0.0006390559523982608, True, None),
             (3, 7.318324363277965, 0.0009639055952398261, 93.85707247453014,
              None, False, None),
             (4, 6.425131330314107, 0.0009271039923196842, 71.09041643306696,
              0.0005958895660384075, True, None)]),
    "five-point": ({"iterations": 3,
                    "gen": {"probe_points": 5, "eta0": 1e-3, "phi": 1,
                            "r2_threshold": 0.5}},
                   [(1, 10.517645972755162, 0.000962460613333016,
                     162.8649747490233, 0.0006246061333301594, True,
                     0.9977312345250824),
                    (2, 7.387400355427235, 0.0009166989795816334,
                     124.32128801795231, 0.0005048442758191908, True,
                     0.99818227290931),
                    (3, 6.484746583577727, 0.0008827069236196063,
                     76.25662776503921, 0.0005767784199613615, True,
                     0.9995337572788685)]),
    "no-eta0": ({"iterations": 5, "gen": {"eta0": "auto"},
                 "optimizer": {"kind": "sgd", "weight_decay": 1.0e300}},
                [(1, 12.5, math.nan, 162.8649747490233, None, False, None)]),
}


def _logged_spec(case):
    return spec_from_dict(_minimal(name=case, eta=None, **_LOGGED[case][0]))


def _astuples(records):
    return [dataclasses.astuple(r) for r in records]


@pytest.mark.parametrize("case", list(_LOGGED))
def test_records_read_back_as_logged(case):
    result = run_experiment(_logged_spec(case))
    want = _LOGGED[case][1]
    # repr spells nan, None, int and bool exactly
    assert repr(_astuples(result.records)) == repr(want)
    assert result.final_loss == want[-1][1]
    # built on each read, never kept on the result
    assert result.records is not result.records
    assert "records" not in vars(result)
    back = pickle.loads(pickle.dumps(result))
    assert repr(_astuples(back.records)) == repr(want)
    assert back.ws.tobytes() == result.ws.tobytes()


def test_records_from_worker_processes_match(monkeypatch):
    # --jobs 2 sends each result back pickled; a one-CPU machine would
    # run them serially, so the pool is asked for two workers
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    specs = [_logged_spec(case) for case in _LOGGED]
    results = cli._run_specs(run_experiment, specs, jobs=2)
    for case, result in zip(_LOGGED, results):
        assert repr(_astuples(result.records)) == repr(_LOGGED[case][1])


def test_packed_records_keep_none_apart_from_nan(monkeypatch, tmp_path):
    # each step's estimate as gen_update hands it over: NaN where a record
    # may also hold None, and a negative zero
    estimates = [Estimate(None, False, None),
                 Estimate(math.nan, False, math.nan),
                 Estimate(0.5, True, math.nan),
                 Estimate(math.nan, False, None),
                 Estimate(-0.0, True, -0.0)]
    handed = iter(estimates)
    monkeypatch.setattr(harness, "gen_update",
                        lambda ctrl, *args, **kwargs: (ctrl.eta, next(handed)))
    spec = spec_from_dict(_minimal(iterations=5, eta=None,
                                   gen={"eta0": 1e-3}))
    result = harness._execute(build_problem(spec.problem),
                              lambda g, w, batch: g, spec)
    assert result.status == "ok"
    got = [(r.eta_candidate, r.fit_accepted, r.fit_r2)
           for r in result.records]
    assert repr(got) == repr([tuple(e) for e in estimates])
    assert repr(list(result.column("eta_candidate"))) == repr(
        [math.nan, math.nan, 0.5, math.nan, -0.0])
    # the trajectory writes "" for None and nan for NaN
    path = tmp_path / "t.csv"
    cli.write_trajectory_csv(str(path), result)
    rows = list(csv.DictReader(path.open(newline="")))
    assert [(r["eta_candidate"], r["fit_accepted"], r["fit_r2"])
            for r in rows] == [
        ("", "false", ""), ("nan", "false", "nan"),
        (cli.fmt(0.5), "true", "nan"), ("nan", "false", ""),
        (cli.fmt(-0.0), "true", cli.fmt(-0.0))]


def test_a_run_keeps_at_most_96_bytes_per_logged_step():
    # every step of this adaptive run is logged with a fit's candidate and
    # r2; a StepRecord per step, with the floats it points at, kept 240 B
    spec = spec_from_dict(_minimal(iterations=20000, eta=None,
                                   gen={"eta0": 1e-3, "phi": 1}))
    run_experiment(spec_from_dict(_minimal(iterations=10)))  # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_experiment(spec)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.status == "ok" and len(result.records) == 20000
    assert kept / 20000 <= 96
