"""Acceptance suite: the quantitative claims this package stands on.

Each test checks one claim end to end and prints a single PASS/FAIL line
(run pytest with -s to see them). Timed claims measure wall time on the
numpy kernels.
"""

import time

import numpy as np
import pytest

from conftest import Concave1D, Cubic1D, random_spd_problem
from reference import error_scaling_study, lqa3_eta
from genopt.gen import (
    GenController,
    exact_eta_hvp,
    fit_quadratic,
    gen_update,
    probe_losses,
)
from genopt.harness import (
    grid_search_rows,
    pick_best_row,
    run_experiment,
    spec_from_dict,
)
from genopt.optim import apply_step
from genopt.problems import BealeProblem, RosenbrockProblem, generate_dataset


def _report(tag, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} [{tag}] {detail}")
    assert ok, f"{tag}: {detail}"


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------


def test_c01_probe_fit_exact_on_quadratics():
    """On a quadratic the 3-point fit recovers the analytic step exactly."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        p = random_spd_problem(rng, max_dim=10)
        w = p.known_minimizer + rng.standard_normal(p.dim)
        g = p.grad(w)
        probes = probe_losses(p, w, g, 0.37)
        fit = fit_quadratic(probes)
        analytic = float(np.dot(g, g) / (g @ p.matrix_a @ g))
        worst = max(worst, _rel(fit.eta_candidate, analytic))
    elapsed = time.perf_counter() - t0
    _report("c01 quadratic-exactness",
            worst <= 1e-10 and elapsed < 1.0,
            f"max rel err {worst:.3e} (limit 1e-10), "
            f"{elapsed:.2f}s (limit 1s)")


def test_c02_fit_agrees_with_closed_form():
    """The least-squares fit and the closed-form 3-point step are the same
    computation written two ways; on 1e5 well-scaled loss triples they
    must agree to 1e-12 relative.

    Triples are generated from parabolas with slope/curvature ratios in
    [1e-2, 3] so that neither route's subtractions cancel catastrophically;
    the claim under test is route equivalence, not robustness to
    adversarial scaling.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    n = 100_000
    hs = 10.0 ** rng.uniform(-1.5, 0, size=n)
    curvs = 10.0 ** rng.uniform(-1, 1, size=n)
    ratios = np.where(rng.random(n) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(
        -2, 0.5, size=n)
    l0s = rng.standard_normal(n)
    worst = 0.0
    checked = 0
    for i in range(n):
        h, a_true, l0 = hs[i], curvs[i], l0s[i]
        b_true = a_true * ratios[i]
        l_minus_probe = l0 + 0.5 * a_true * h * h + b_true * h  # at -h
        l_plus_probe = l0 + 0.5 * a_true * h * h - b_true * h  # at +h
        fit = fit_quadratic([(-h, l_minus_probe), (0.0, l0),
                             (h, l_plus_probe)])
        if abs(fit.curvature) <= 1e-9:
            continue
        lqa = lqa3_eta(l_plus_probe, l0, l_minus_probe, h)
        worst = max(worst, _rel(fit.eta_candidate, lqa))
        checked += 1
    elapsed = time.perf_counter() - t0
    _report("c02 fit-equals-closed-form",
            worst <= 1e-12 and checked > 0.99 * n and elapsed < 5.0,
            f"max rel err {worst:.3e} over {checked} triples "
            f"(limit 1e-12), {elapsed:.2f}s (limit 5s)")


def test_c03_newton_direction_one_step():
    """With the Newton direction the fitted step is 1, landing on the
    minimizer of a quadratic in a single iteration."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        p = random_spd_problem(rng, max_dim=10)
        w0 = p.known_minimizer + rng.standard_normal(p.dim)
        g = p.grad(w0)
        d = np.linalg.solve(p.matrix_a, g)
        fit = fit_quadratic(probe_losses(p, w0, d, 0.3))
        w1 = apply_step(w0, fit.eta_candidate, d)
        reduction = np.linalg.norm(w1 - p.known_minimizer) / \
            np.linalg.norm(w0 - p.known_minimizer)
        worst = max(worst, reduction)
    _report("c03 newton-reduction",
            worst <= 1e-9,
            f"worst one-step error ratio {worst:.3e} (limit 1e-9)")


def test_c04_step_is_scale_invariant():
    """Rescaling the probe direction by c rescales the fitted rate by 1/c,
    so the applied update is unchanged. Checked through both estimator
    routes on both 2-D test surfaces."""
    scales = (1e-6, 1e-3, 1.0, 1e3, 1e6)
    rng = np.random.default_rng(4)
    worst = 0.0
    for problem in (RosenbrockProblem(), BealeProblem()):
        tried = 0
        while tried < 20:
            w = rng.uniform(-4.0, 4.0, size=2)
            g = problem.grad(w)
            gnorm = np.linalg.norm(g)
            if gnorm < 1e-3:
                continue
            tried += 1
            base_h = 0.1 / (1.0 + gnorm)
            eta_ref = exact_eta_hvp(problem, w, g, g)
            fit_ref = fit_quadratic(probe_losses(problem, w, g, base_h))
            if eta_ref is None or fit_ref.curvature <= 0:
                continue
            for c in scales:
                d = c * g
                eta_c = exact_eta_hvp(problem, w, g, d)
                diff = np.linalg.norm(eta_c * d - eta_ref * g)
                worst = max(worst, diff / np.linalg.norm(eta_ref * g))
                fit_c = fit_quadratic(
                    probe_losses(problem, w, d, base_h / c))
                diff_fit = np.linalg.norm(
                    fit_c.eta_candidate * d - fit_ref.eta_candidate * g)
                worst = max(worst,
                            diff_fit / np.linalg.norm(
                                fit_ref.eta_candidate * g))
    _report("c04 scale-invariance",
            worst <= 1e-10,
            f"max rel update difference {worst:.3e} over c in "
            f"{{1e-6..1e6}} (limit 1e-10)")


def _menu_best(problem, opt_kind, tuned_eta, iterations=1000):
    """Best final loss over the fixed 6-config adaptive menu."""
    best = None
    for eta0 in ("auto", tuned_eta):
        for gamma in (0.0, 0.9, 0.98):
            spec = spec_from_dict({
                "name": "menu",
                "problem": dict(problem),
                "optimizer": {"kind": opt_kind},
                "iterations": iterations,
                "gen": {"eta0": eta0, "gamma": gamma, "phi": 1},
            })
            result = run_experiment(spec)
            if result.status != "ok":
                continue
            if best is None or result.final_loss < best:
                best = result.final_loss
    return best


def test_c05_adaptive_matches_tuned_baselines():
    """Benchmark ordering under matched tuning: for every problem/optimizer
    pairing the adaptive menu (6 configs) reaches a final loss at or below
    the grid-tuned constant rate (18 configs) after 1000 iterations.

    Both arms get a tuning budget and the adaptive arm's is smaller; the
    claim is about the ordering of the tuned results, not about any single
    untuned run winning.
    """
    t0 = time.perf_counter()
    pairings = []
    for problem in ({"kind": "rosenbrock"}, {"kind": "beale"}):
        for opt_kind in ("sgd", "adamw"):
            best = pick_best_row(grid_search_rows(spec_from_dict({
                "problem": dict(problem), "optimizer": {"kind": opt_kind},
                "iterations": 1000})))
            tuned_eta, tuned_loss = best["eta"], best["final_loss"]
            adaptive_loss = _menu_best(problem, opt_kind, tuned_eta)
            pairings.append((f"{problem['kind']}/{opt_kind}",
                             adaptive_loss, tuned_loss))
    elapsed = time.perf_counter() - t0
    ok = all(a is not None and a <= b for _, a, b in pairings)
    detail = "; ".join(f"{name} adaptive {a:.3e} vs tuned {b:.3e}"
                       for name, a, b in pairings)
    _report("c05 benchmark-ordering",
            ok and elapsed < 30.0,
            f"{detail}; {elapsed:.1f}s (limit 30s)")


def test_c06_candidate_noise_scales_with_batch_size():
    """Mini-batch spread of the fitted step follows the 1/sqrt(B) law:
    log-log slope of std vs batch size near -1/2."""
    t0 = time.perf_counter()
    ds = generate_dataset(seed=11, n=16384, d=3)
    res = error_scaling_study(ds, [16, 64, 256, 1024], 200, 11)
    elapsed = time.perf_counter() - t0
    ok = -0.65 <= res.slope <= -0.35 and elapsed < 60.0
    stds = ", ".join(f"B={b}: {s:.4f}" for b, s in res.rows)
    _report("c06 batch-noise-scaling", ok,
            f"slope {res.slope:.4f} (want -0.5 +/- 0.15; {stds}); "
            f"{elapsed:.1f}s (limit 60s)")


def test_c07_probe_spacing_error_is_second_order():
    """Against the exact curvature step, the 3-point estimate's error
    shrinks quadratically in the probe spacing."""
    obj = Cubic1D()
    w = np.array([1.0])
    g = obj.grad(w)
    exact = exact_eta_hvp(obj, w, g, g)
    spacings = (1e-1, 1e-2, 1e-3, 1e-4)
    errs = []
    for h in spacings:
        fit = fit_quadratic(probe_losses(obj, w, g, h))
        errs.append(abs(fit.eta_candidate - exact))
    slope = float(np.polyfit(np.log10(spacings), np.log10(errs), 1)[0])
    _report("c07 precision-scaling",
            1.7 <= slope <= 2.3,
            f"error slope {slope:.3f} vs spacing (want 2.0 +/- 0.3; "
            f"errors {['%.2e' % e for e in errs]})")


def test_c08_quadratic_convergence_with_exact_curvature():
    """Newton direction plus curvature-exact rate converges quadratically
    on the quartic-like surface from a near-minimum start."""
    spec = spec_from_dict({
        "name": "local",
        "problem": {"kind": "beale"},
        "optimizer": {"kind": "newton"},
        "iterations": 8,
        "start_point": [2.8, 0.45],
        "gen": {"eta0": 0.1, "gamma": 0.0, "phi": 1, "estimator": "hvp"},
    })
    result = run_experiment(spec)
    w_star = np.array([3.0, 0.5])
    errs = [float(np.linalg.norm(w - w_star)) for w in result.ws]
    ratios = []
    for i in range(min(6, len(errs) - 1)):
        if errs[i] == 0.0:
            break
        ratios.append(errs[i + 1] / errs[i] ** 2)
    reached = min(errs) <= 1e-10
    bounded = all(r <= 10.0 for r in ratios)
    _report("c08 quadratic-local-convergence",
            reached and bounded and result.status == "ok",
            f"ratio bound {max(ratios):.2f} (limit 10), "
            f"best error {min(errs):.2e} within {len(errs) - 1} iterations")


def test_c09_lazy_schedule_and_guards():
    """Fit attempts follow the laziness schedule exactly; rejected fits
    never move the learning rate; concave probes trip the curvature
    guard."""
    # 100 steps at phi = 8: attempts on steps 8, 16, ..., 96
    spec = spec_from_dict({
        "name": "lazy",
        "problem": {"kind": "rosenbrock"},
        "optimizer": {"kind": "sgd"},
        "iterations": 100,
        "gen": {"eta0": 1e-3, "phi": 8},
    })
    stats = run_experiment(spec).gen_stats
    attempts_ok = stats["fit_attempts"] == 12

    # r2_threshold = 1.0 can never be strictly beaten, so every attempt is
    # rejected and eta must stay bit-identical for the whole run
    frozen = spec_from_dict({
        "name": "frozen",
        "problem": {"kind": "rosenbrock"},
        "optimizer": {"kind": "sgd"},
        "iterations": 64,
        "gen": {"eta0": 1e-3, "phi": 8, "r2_threshold": 1.0},
    })
    res = run_experiment(frozen)
    frozen_ok = (res.gen_stats["fits_rejected"] == 8
                 and res.gen_stats["fits_accepted"] == 0
                 and all(rec.eta == 1e-3 for rec in res.records))

    # concave probe pattern: negative fitted curvature, guard rejects
    concave_fit = fit_quadratic([(-0.1, 0.5), (0.0, 1.0), (0.1, 0.4)])
    ctrl = GenController(eta=0.05, phi=1)
    obj = Concave1D()
    wvec = np.array([1.0])
    eta_after, rec = gen_update(ctrl, obj, wvec, obj.grad(wvec))
    concave_ok = (concave_fit.curvature < 0.0
                  and not rec.fit_accepted and eta_after == 0.05)

    _report("c09 lazy-and-guarded",
            attempts_ok and frozen_ok and concave_ok,
            f"attempts 12/12 ({attempts_ok}), rejected eta frozen "
            f"({frozen_ok}), concave guard ({concave_ok})")


def test_c10_recovers_from_bad_starting_rate():
    """Starting rates three decades apart converge to matching losses on
    the reference logistic problem."""
    finals = []
    for eta0 in (1e-5, 1e-2):
        spec = spec_from_dict({
            "name": "auto",
            "problem": {"kind": "logreg", "seed": 11, "n": 16384, "d": 3},
            "optimizer": {"kind": "sgd"},
            "iterations": 2000,
            "gen": {"eta0": eta0, "gamma": 0.9, "phi": 1},
        })
        finals.append(run_experiment(spec).final_loss)
    gap = abs(finals[0] - finals[1]) / min(finals)
    _report("c10 starting-rate-autocorrection",
            gap <= 0.05,
            f"final losses {finals[0]:.6e} / {finals[1]:.6e}, "
            f"gap {100 * gap:.3f}% (limit 5%)")


def test_c11_trajectories_are_byte_reproducible(tmp_path):
    """Running the same config twice produces byte-identical trajectory
    files, including an adaptive run and a mini-batch run."""
    import yaml

    from genopt.cli import main

    experiments = [
        {"name": "quad_gen",
         "problem": {"kind": "quadratic",
                     "matrix_a": [[2.0, 0.0], [0.0, 8.0]]},
         "optimizer": {"kind": "sgd"}, "iterations": 50,
         "start_point": [1.0, 1.0],
         "gen": {"eta0": 0.05, "gamma": 0.9, "phi": 2}},
        {"name": "rosen_fixed",
         "problem": {"kind": "rosenbrock"},
         "optimizer": {"kind": "adamw"}, "iterations": 50, "eta": 0.1},
        {"name": "logreg_batch",
         "problem": {"kind": "logreg", "seed": 5, "n": 512, "d": 4},
         "optimizer": {"kind": "sgd", "momentum": 0.9}, "iterations": 50,
         "batch_size": 32, "seed": 9,
         "gen": {"eta0": "auto", "phi": 4}},
    ]
    outs = []
    for run_id in ("first", "second"):
        out = tmp_path / run_id
        cfg = {"format_version": 1, "output_dir": str(out),
               "experiments": experiments}
        path = tmp_path / f"{run_id}.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 0
        outs.append(out)
    same = all(
        (outs[0] / f"{e['name']}.trajectory.csv").read_bytes()
        == (outs[1] / f"{e['name']}.trajectory.csv").read_bytes()
        for e in experiments)
    _report("c11 reproducibility", same,
            f"{len(experiments)} trajectory files byte-identical "
            f"across two runs")
