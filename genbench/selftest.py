"""Self-test of the benchmark's output checks.

    python3 genbench/selftest.py

Each check first sees a real output of genopt, which it must accept, and
then a deliberately wrong copy of it (a perturbed loss, an eta that moved
on a rejected fit, a reordered grid, ...), which it must reject. Exits 1
if any check accepts a wrong output or rejects a right one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import checks  # noqa: E402
import oracles  # noqa: E402

failures = []


def expect(label, problems, should_fail):
    ok = bool(problems) == should_fail
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))
    if not ok:
        failures.append(label)


def logreg_cases():
    from genopt.harness import run_experiment, spec_from_dict
    x, y = oracles.logreg_dataset(11, 16384, 3)
    _, l_star = oracles.logreg_optimum(x, y)
    res = run_experiment(spec_from_dict({
        "name": "c10", "problem": {"kind": "logreg", "seed": 11, "n": 16384,
                                   "d": 3},
        "optimizer": {"kind": "sgd"}, "iterations": 100,
        "gen": {"eta0": 1e-2, "gamma": 0.9, "phi": 1}}))
    final = oracles.logreg_loss(x, y, res.final_w)
    expect("final loss at the Newton optimum",
           checks.check_final_loss("c10", final, l_star, 1e-6), False)
    expect("perturbed final loss",
           checks.check_final_loss("c10", final * (1 + 1e-4), l_star, 1e-6),
           True)
    expect("final loss below the optimum",
           checks.check_final_loss("c10", l_star * (1 - 1e-6), l_star, 1e-6),
           True)

    etas = [r.eta for r in res.records]
    acc = [r.fit_accepted for r in res.records]
    expect("eta path of a real run",
           checks.check_eta_path("c10", etas, acc, eta_start=1e-2), False)
    rejected = next(i for i, a in enumerate(acc) if not a and i > 0)
    moved = list(etas)
    moved[rejected] = math.nextafter(moved[rejected - 1], math.inf)
    expect("eta moved by one ulp on a rejected fit",
           checks.check_eta_path("c10", moved, acc, eta_start=1e-2), True)
    accepted = next(i for i, a in enumerate(acc) if a and i > 0)
    jumped = etas[:accepted] + [etas[accepted - 1] * 11.0]
    expect("accepted fit moving eta by 11x",
           checks.check_eta_path("c10", jumped, acc[:accepted + 1],
                                 eta_start=1e-2), True)
    expect("unclamped route may move eta by 11x",
           checks.check_eta_path("c10", jumped, acc[:accepted + 1],
                                 eta_start=1e-2, clamped=False), False)
    expect("negative eta",
           checks.check_eta_path("c10", [1e-2, -1e-2], [True, True]), True)
    expect("fixed rate that changed",
           checks.check_constant_eta("fixed", [0.05, 0.05, 0.0500001], 0.05),
           True)


def surface_cases():
    from genopt.cli import main
    from genopt.harness import run_experiment, spec_from_dict

    res = run_experiment(spec_from_dict({
        "name": "gd", "problem": {"kind": "beale"},
        "optimizer": {"kind": "adamw"}, "iterations": 300, "eta": 0.5}))
    losses = [r.loss for r in res.records]
    want, status = oracles.fixed_rate_losses("beale", "adamw", 0.5, 300)
    expect("Adam arm against the reference loop",
           checks.check_loss_path("adamw", losses, want, 1e-6), False)
    bad = list(losses)
    bad[150] *= 1 + 1e-4
    expect("Adam arm with one perturbed loss",
           checks.check_loss_path("adamw", bad, want, 1e-6), True)
    expect("Adam arm missing its last step",
           checks.check_loss_path("adamw", losses[:-1], want, 1e-6), True)

    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "grid.yaml")
        with open(cfg, "w", encoding="utf-8") as f:
            json.dump({"format_version": 1, "output_dir": tmp, "experiments": [
                {"name": "g", "problem": {"kind": "rosenbrock"},
                 "optimizer": {"kind": "sgd"}, "iterations": 200}]}, f)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["grid-search", "--config", cfg])
        assert rc == 0, rc
        rows = checks.read_csv(os.path.join(tmp, "g.grid.csv"))
    expect("real grid", checks.check_grid("g", rows), False)
    reordered = list(rows)
    reordered[3], reordered[4] = reordered[4], reordered[3]
    expect("reordered grid", checks.check_grid("g", reordered), True)
    win = next(i for i, r in enumerate(rows) if r["winner"] == "true")
    two = [dict(r) for r in rows]
    two[0]["winner"] = "true"
    expect("grid with two winners", checks.check_grid("g", two), True)
    moved = [dict(r, winner="false") for r in rows]
    other = next(i for i, r in enumerate(rows)
                 if r["status"] == "ok" and i != win)
    moved[other]["winner"] = "true"
    expect("winner that is not the lowest ok loss",
           checks.check_grid("g", moved), True)
    row = rows[win]
    ref, ref_status = oracles.fixed_rate_losses("rosenbrock", "sgd",
                                                float(row["eta"]), 200)
    expect("grid row against the reference loop",
           checks.check_grid_row("g", row, ref, ref_status, 1e-6), False)
    expect("grid row with a perturbed loss",
           checks.check_grid_row("g", dict(row, final_loss=repr(
               float(row["final_loss"]) * (1 + 1e-4))), ref, ref_status,
               1e-6), True)
    expect("grid row reported ok that the reference says diverged",
           checks.check_grid_row("g", dict(row, status="ok"), ref[:3],
                                 "diverged", 1e-6), True)

    expect("adaptive menu no worse than the grid",
           checks.check_menu_vs_grid("p", [1e-3, 2e-5], 1e-4), False)
    expect("adaptive menu worse than the grid",
           checks.check_menu_vs_grid("p", [1e-3, 2e-4], 1e-4), True)
    expect("steps_to_tol of a run that never gets there",
           [] if checks.first_within([3.0, 2.0], 0.0, 1e-8, 1000) == 1000
           else ["wrong count"], False)


def main():
    logreg_cases()
    surface_cases()
    if failures:
        print(f"{len(failures)} self-test case(s) failed: {failures}")
        return 1
    print("all checks accept real outputs and reject wrong ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
