"""Count the adaptive runs that diverge on the 2-D surfaces.

Runs the grid {rosenbrock, beale} x {sgd, adamw} x eta0 {1e-6, 1e-3, 1,
auto} x gamma {0, 0.9} x phi {1, 8}, 2000 iterations each, through
`genopt.harness.run_experiment` (64 runs, a second or two), and prints:

- the number of diverged runs;
- how many of them blew up before their first fit (no fit attempted, or
  every `eta0: auto` probe blew up);
- how many diverged with every fit accepted, the runs the fit guards let
  through.

Each diverged run is listed with the step it stopped at and its fit
counts. The script reads the package from the `src/` next to it, so it
measures the tree it is in.

    python tools/divergence_sweep.py
"""

import itertools
import logging
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from genopt.harness import run_experiment, spec_from_dict  # noqa: E402

PROBLEMS = ("rosenbrock", "beale")
OPTIMIZERS = ("sgd", "adamw")
ETA0S = (1e-6, 1e-3, 1.0, "auto")
GAMMAS = (0.0, 0.9)
PHIS = (1, 8)
ITERATIONS = 2000


def sweep():
    """(name, result) for every run of the grid, in grid order."""
    for problem, optimizer, eta0, gamma, phi in itertools.product(
            PROBLEMS, OPTIMIZERS, ETA0S, GAMMAS, PHIS):
        name = f"{problem}-{optimizer}-eta0-{eta0}-g{gamma}-phi{phi}"
        spec = spec_from_dict({
            "name": name,
            "problem": {"kind": problem},
            "optimizer": {"kind": optimizer},
            "iterations": ITERATIONS,
            "gen": {"eta0": eta0, "gamma": gamma, "phi": phi},
        })
        yield name, run_experiment(spec)


def main():
    # an uphill starting-rate search logs a warning per run; the counts
    # below are the output
    logging.disable(logging.WARNING)
    runs = diverged = before_first_fit = all_accepted = 0
    for name, res in sweep():
        runs += 1
        if res.status != "diverged":
            continue
        diverged += 1
        stats = res.gen_stats or {"fit_attempts": 0, "fits_rejected": 0}
        if stats["fit_attempts"] == 0:
            before_first_fit += 1
        elif stats["fits_rejected"] == 0:
            all_accepted += 1
        print(f"{name}: diverged at step {int(res.column('step')[-1])}, "
              f"{stats['fit_attempts']} fits, "
              f"{stats['fits_rejected']} rejected")
    print(f"{diverged} of {runs} runs diverged: {before_first_fit} before "
          f"their first fit, {all_accepted} with every fit accepted")


if __name__ == "__main__":
    main()
