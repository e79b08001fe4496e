"""Experiment runner: config validation, reproducible execution,
grid-search baselines, and the study helpers."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from genopt import harness, kernels
from genopt.gen import ETA0_GRID
from genopt.harness import (
    CONVERGENCE_TOL,
    DIVERGENCE_LOSS,
    LR_GRID,
    ExperimentSpec,
    GridSearchError,
    SpecError,
    build_problem,
    convergence_metrics,
    error_scaling_study,
    grid_search_baseline,
    grid_search_rows,
    pick_best_row,
    run_experiment,
    spec_from_dict,
)
from genopt.problems import QuadraticProblem, generate_dataset

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
        ({"decay": True, "estimator": "hvp"}, "config.gen.decay-hvp"),
        ({"period": 3}, "config.unknown-key"),
        ({"probe_points": 3.0}, "config.gen.probe-points"),
        ({"probe_points": 5.0}, "config.gen.probe-points"),
    ],
)
def test_gen_validation(gen, code):
    base = _minimal(gen=gen)
    del base["eta"]
    with pytest.raises(SpecError) as e:
        spec_from_dict(base)
    assert _code(e) == code


def test_gen_defaults_fill_in():
    base = _minimal(gen={})
    del base["eta"]
    spec = spec_from_dict(base)
    assert spec.gen["eta0"] == "auto"
    assert spec.gen["gamma"] == 0.9
    assert spec.gen["phi"] == 8
    assert spec.gen["probe_points"] == 3
    assert spec.gen["r2_threshold"] == 0.99
    assert spec.gen["decay"] is False
    assert spec.gen["estimator"] == "fit"


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


def test_run_batch_size_too_large():
    spec = spec_from_dict({
        "problem": {"kind": "logreg", "seed": 0, "n": 32, "d": 2},
        "optimizer": {"kind": "sgd"},
        "iterations": 5,
        "eta": 0.1,
        "batch_size": 64,
    })
    with pytest.raises(SpecError) as e:
        run_experiment(spec)
    assert _code(e) == "config.batch-size.too-large"


def test_run_newton_hvp_one_step_on_quadratic():
    # curvature-exact rate on the Newton direction solves a quadratic in
    # one iteration
    spec = spec_from_dict({
        "problem": {"kind": "quadratic",
                    "matrix_a": [[4.0, 1.0], [1.0, 3.0]],
                    "offset": [2.0, -1.0]},
        "optimizer": {"kind": "newton"},
        "iterations": 3,
        "gen": {"eta0": 0.1, "gamma": 0.0, "phi": 1, "estimator": "hvp"},
    })
    result = run_experiment(spec)
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


@pytest.mark.parametrize("eta0, extra", [(0.5, 0), ("auto", len(ETA0_GRID))])
def test_full_batch_step_costs_three_kernel_passes(kernel_calls, eta0, extra):
    # every step probes twice and carries its post-step loss and gradient
    # into the next one; only the last step needs its post-step loss alone.
    # The starting-rate search reuses the current loss: one pass per point.
    n = 12
    spec = spec_from_dict({
        "problem": {"kind": "logreg", "seed": 3, "n": 128, "d": 3},
        "optimizer": {"kind": "sgd"},
        "iterations": n,
        "gen": {"eta0": eta0, "phi": 1},
    })
    result = run_experiment(spec)
    assert result.status == "ok" and len(result.records) == n
    assert kernel_calls == {"loss": 2 * n + 1 + extra, "loss_grad": n}


def test_minibatch_step_draws_its_batch_once(monkeypatch, kernel_calls):
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
        "gen": {"eta0": 0.5, "phi": 1},
    })
    result = run_experiment(spec)
    assert result.status == "ok"
    # one draw builds the dataset, then one per step for four evaluations
    assert seeds[0] == 3 and len(seeds) == n + 1
    assert len(set(seeds[1:])) == n
    assert kernel_calls == {"loss": 3 * n, "loss_grad": n}


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
        assert other.generator_seed == over.get("seed", 4)
        assert other.features.shape == (over.get("n", 64), over.get("d", 3))
        assert other.l2_penalty == over.get("l2_penalty", 0.0)


def test_run_rejects_bad_start_dimension():
    with pytest.raises(Exception):
        run_experiment(spec_from_dict(_minimal(start_point=[1.0, 2.0, 3.0])))


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
    best_eta, best_loss = grid_search_baseline(
        {"kind": "quadratic", "matrix_a": [[1.0, 0.0], [0.0, 1.0]]},
        {"kind": "sgd"}, iterations=10, start_point=[1.0, 0.0])
    assert best_eta == 1.0
    assert best_loss == 0.0


def test_grid_search_rows_cover_grid_in_order():
    rows = grid_search_rows({"kind": "quadratic", "matrix_a": [[1.0]]},
                            {"kind": "sgd"}, iterations=30,
                            start_point=[1.0])
    assert [r["eta"] for r in rows] == list(LR_GRID)
    assert all(set(r) == {"eta", "final_loss", "status"} for r in rows)
    # large rates overshoot and diverge on this problem, small ones crawl
    assert rows[-1]["status"] == "diverged"
    assert rows[0]["status"] == "ok"


def test_grid_search_all_diverged():
    stiff = {"kind": "quadratic", "matrix_a": [[1e15]]}
    with pytest.raises(GridSearchError) as e:
        grid_search_baseline(stiff, {"kind": "sgd"}, iterations=50,
                             start_point=[1.0])
    assert len(e.value.rows) == 18


def test_grid_search_rejects_gen_style_optimizers():
    with pytest.raises(SpecError) as e:
        grid_search_rows(ROSEN, {"kind": "newton"}, iterations=2)
    assert _code(e) == "config.grid.optimizer"


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


def test_convergence_tolerance_constant():
    assert CONVERGENCE_TOL == 1e-6
