"""Run one workload of the genopt benchmark and print its metrics.

    python3 genbench/run.py --workload surfaces --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports genopt from src/.
A run makes its inputs from --seed, runs one checked round (which is also
the warm-up), then times whole rounds until --seconds of round time have
passed. With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it alternates plain and traced rounds and reports the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The full record of
the run (environment, round times, check values, problems) is written to
genbench/results/<workload>.s<seed>.t<trace>.json. See genbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# fresh-process set-up samples per run; setup_s is their median
SETUP_SAMPLES = 9
# timed rounds per run, whatever --seconds says
MIN_ROUNDS = 3

import numpy as np  # noqa: E402  (loaded before genopt, as set-up assumes)

import checks  # noqa: E402
import oracles  # noqa: E402


class Round:
    """What one round did: operations attempted and failed, and a
    signature of its outputs that every later round must reproduce."""

    def __init__(self, attempted, failed, signature):
        self.attempted = attempted
        self.failed = failed
        self.signature = signature


@contextlib.contextmanager
def patched(owner, attr, make):
    """Temporarily replace owner.attr with make(original)."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextlib.contextmanager
def capturing(owner, attr, sink):
    """Append every return value of owner.attr to sink."""
    def make(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result)
            return result
        return wrapper
    with patched(owner, attr, make):
        yield


def quiet_cli(argv):
    """genopt.cli.main in-process with its progress lines discarded."""
    import genopt.cli
    with contextlib.redirect_stdout(io.StringIO()):
        return genopt.cli.main(argv)


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def write_config(path, output_dir, experiments):
    # JSON is valid YAML, so the benchmark needs no YAML writer
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"format_version": 1, "output_dir": output_dir,
                   "experiments": experiments}, f, indent=1)


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.problems = []
        self.check_values = {}

    def prepare(self):
        """Write inputs and compute the references (untimed)."""

    def check_round(self):
        """One round under capture; checks outputs, returns
        (Round, steps per round, steps_to_tol)."""
        raise NotImplementedError

    def run_round(self):
        raise NotImplementedError

    def setup_source(self):
        """Statements a fresh process runs between `import genopt` and the
        first step; numpy is already loaded."""
        raise NotImplementedError


def _steps_counter(sink):
    """Counts optimizer steps: successful harness.apply_step calls."""
    def make(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            sink[0] += 1
            return out
        return wrapper
    return make


class LogregFull(Workload):
    """The c10 problem through run_experiment from both starting rates."""

    name = "logreg-full"
    PROBLEM = {"kind": "logreg", "seed": 11, "n": 16384, "d": 3}
    ETA0S = (1e-5, 1e-2)
    ITERATIONS = 100
    # relative excess over the Newton optimum, for steps_to_tol and the
    # final-loss check; both runs reach it within ~35 steps
    TOL = 1e-6

    def spec_dicts(self):
        return [{"name": f"c10-eta0-{eta0:g}", "problem": dict(self.PROBLEM),
                 "optimizer": {"kind": "sgd"}, "iterations": self.ITERATIONS,
                 "seed": self.seed,
                 "gen": {"eta0": eta0, "gamma": 0.9, "phi": 1}}
                for eta0 in self.ETA0S]

    def prepare(self):
        from genopt import harness
        self.specs = [harness.spec_from_dict(d) for d in self.spec_dicts()]
        p = self.PROBLEM
        self.x, self.y = oracles.logreg_dataset(p["seed"], p["n"], p["d"])
        _, self.l_star = oracles.logreg_optimum(self.x, self.y)
        self.check_values["optimum_loss"] = self.l_star

    def _run(self):
        from genopt import harness
        results = [harness.run_experiment(s) for s in self.specs]
        sig = [(r.status, r.final_loss, len(r.records), r.final_w.tobytes())
               for r in results]
        failed = sum(r.status == "diverged" for r in results)
        return Round(len(results), failed, sig), results

    def run_round(self):
        return self._run()[0]

    def check_round(self):
        from genopt import harness
        steps = [0]
        with patched(harness, "apply_step", _steps_counter(steps)):
            rnd, results = self._run()
        to_tol = 0
        for spec, eta0, res in zip(self.specs, self.ETA0S, results):
            losses = [oracles.logreg_loss(self.x, self.y, w)
                      for w in res.ws[1:]]
            final = losses[-1] if losses else math.nan
            self.problems += checks.check_final_loss(
                spec.name, final, self.l_star, self.TOL)
            if not checks.close(final, res.final_loss, 1e-12):
                self.problems.append(
                    f"{spec.name}: reported final loss {res.final_loss!r} is "
                    f"not the loss {final!r} of the final iterate")
            self.problems += checks.check_eta_path(
                spec.name, [r.eta for r in res.records],
                [r.fit_accepted for r in res.records], eta_start=eta0)
            to_tol += checks.first_within(losses, self.l_star,
                                          self.TOL * self.l_star,
                                          self.ITERATIONS)
        return rnd, steps[0], to_tol

    def setup_source(self):
        return ("from genopt.harness import build_problem, spec_from_dict\n"
                f"specs = [spec_from_dict(d) for d in {self.spec_dicts()!r}]\n"
                "build_problem(specs[0].problem)\n")


class CliWorkload(Workload):
    def config_paths(self):
        raise NotImplementedError

    def setup_source(self):
        return ("import genopt.cli\n"
                "from genopt.harness import build_problem\n"
                f"configs = [genopt.cli.load_config(p) for p in "
                f"{self.config_paths()!r}]\n"
                "build_problem(configs[0].experiments[0].problem)\n")


class LogregMinibatch(CliWorkload):
    """`genopt run` on a larger logreg_minibatch config, every step logged."""

    name = "logreg-minibatch"
    PROBLEM = {"kind": "logreg", "seed": 11, "n": 65536, "d": 8}
    # long enough that building the dataset twice per round (once per
    # experiment) is a small share of the round
    ITERATIONS = 1000
    BATCH = 256
    FIXED_ETA = 0.05
    # relative excess over the Newton optimum: (steps_to_tol, final check)
    TOL = {"adaptive": (0.2, 0.5), "fixed": (0.03, 0.01)}

    def experiments(self):
        common = {"problem": dict(self.PROBLEM),
                  "iterations": self.ITERATIONS, "batch_size": self.BATCH,
                  "log_every": 1}
        return [
            dict(common, name="adaptive",
                 optimizer={"kind": "sgd", "momentum": 0.5},
                 gen={"eta0": "auto", "gamma": 0.9, "phi": 1}),
            dict(common, name="fixed",
                 optimizer={"kind": "sgd", "momentum": 0.9},
                 eta=self.FIXED_ETA),
        ]

    def config_paths(self):
        return [self.config]

    def prepare(self):
        self.config = os.path.join(self.work, "minibatch.yaml")
        self.out = os.path.join(self.work, "out")
        write_config(self.config, self.out, self.experiments())
        p = self.PROBLEM
        self.x, self.y = oracles.logreg_dataset(p["seed"], p["n"], p["d"])
        _, self.l_star = oracles.logreg_optimum(self.x, self.y)
        self.check_values["optimum_loss"] = self.l_star

    def _run(self, seed, out):
        rc = quiet_cli(["run", "--config", self.config, "--out", out,
                        "--seed", str(seed)])
        names = [e["name"] for e in self.experiments()]
        if rc != 0:
            return Round(len(names), len(names), ("exit", rc))
        summary = checks.read_csv(os.path.join(out, "summary.csv"))
        failed = sum(r["status"] == "diverged" and r["name"] == "adaptive"
                     for r in summary)
        sig = [file_digest(os.path.join(out, f"{n}.trajectory.csv"))
               for n in names]
        sig.append([(r["name"], r["status"], r["final_loss"], r["final_eta"],
                     r["fit_attempts"], r["fits_accepted"]) for r in summary])
        return Round(len(names), failed, sig)

    def run_round(self):
        return self._run(self.seed, self.out)

    def check_round(self):
        import genopt.cli
        from genopt import harness
        steps = [0]
        results = []
        with patched(harness, "apply_step", _steps_counter(steps)), \
                capturing(genopt.cli, "run_experiment", results):
            rnd = self._run(self.seed, self.out)
        if rnd.signature[0] == "exit":
            self.problems.append(f"genopt run exited {rnd.signature[1]}")
            return rnd, steps[0], 1
        # a second seed must give other trajectories; its runs also enter
        # steps_to_tol, which narrows the seed-to-seed spread of the count
        other_out = os.path.join(self.work, "other-seed")
        other_results = []
        with capturing(genopt.cli, "run_experiment", other_results):
            other = self._run(self.seed + 1, other_out)
        if other.signature[0] == "exit":
            self.problems.append(f"genopt run --seed {self.seed + 1} exited "
                                 f"{other.signature[1]}")
            return rnd, steps[0], 1
        for a, b, name in zip(rnd.signature, other.signature, ("adaptive",
                                                                "fixed")):
            if a == b:
                self.problems.append(f"{name}: trajectory CSV is the same for "
                                     f"seeds {self.seed} and {self.seed + 1}")
        to_tol = 0
        for seed, out, res_list in ((self.seed, self.out, results),
                                    (self.seed + 1, other_out, other_results)):
            to_tol += self._check_arms(seed, out, res_list)
        return rnd, steps[0], to_tol

    def _check_arms(self, seed, out, results):
        to_tol = 0
        for exp, res in zip(self.experiments(), results):
            name = f"{exp['name']} (seed {seed})"
            rows = checks.read_csv(os.path.join(
                out, f"{exp['name']}.trajectory.csv"))
            if [int(r["step"]) for r in rows] != list(
                    range(1, self.ITERATIONS + 1)):
                self.problems.append(f"{name}: trajectory does not log every "
                                     f"step 1..{self.ITERATIONS}")
                continue
            if [float(r["loss"]) for r in rows] != [r.loss for r in
                                                     res.records]:
                self.problems.append(f"{name}: trajectory losses differ from "
                                     f"the run's records")
            etas = [float(r["eta"]) for r in rows]
            if "gen" in exp:
                self.problems += checks.check_eta_path(
                    name, etas, [r["fit_accepted"] == "true" for r in rows])
            else:
                self.problems += checks.check_constant_eta(name, etas,
                                                           exp["eta"])
            tol_steps, tol_final = self.TOL[exp["name"]]
            final = oracles.logreg_loss(self.x, self.y, res.ws[-1])
            self.problems += checks.check_final_loss(name, final, self.l_star,
                                                     tol_final)
            # lazily: the full-data loss of every iterate would cost more
            # than the round itself
            to_tol += checks.first_within(
                (oracles.logreg_loss(self.x, self.y, w) for w in res.ws[1:]),
                self.l_star, tol_steps * self.l_star, self.ITERATIONS)
        return to_tol


class Surfaces(CliWorkload):
    """`genopt compare` on the c05 menu, then `genopt grid-search`."""

    name = "surfaces"
    SURFACES = ("rosenbrock", "beale")
    OPTIMIZERS = ("sgd", "adamw")
    GAMMAS = (0.0, 0.9, 0.98)
    ITERATIONS = 1000
    NEWTON_START = [2.8, 0.45]
    # steps_to_tol: first step with a loss within this of the loss at the
    # analytic minimizer
    LOSS_TOL = 1e-8
    # per-step agreement of fixed-rate runs with the reference loops
    RTOL = 1e-6

    def grid_experiments(self):
        return [{"name": f"{p}_{o}", "problem": {"kind": p},
                 "optimizer": {"kind": o}, "iterations": self.ITERATIONS}
                for p in self.SURFACES for o in self.OPTIMIZERS]

    def menu(self, tuned):
        """The c05 menu with the grid winners as tuned rates, plus the
        Newton direction with a fixed rate and with the hvp estimator."""
        exps = []
        for p in self.SURFACES:
            for o in self.OPTIMIZERS:
                base = {"problem": {"kind": p}, "optimizer": {"kind": o},
                        "iterations": self.ITERATIONS}
                eta = tuned[f"{p}_{o}"]
                exps.append(dict(base, name=f"{p}-{o}-base", eta=eta))
                for label, eta0 in (("auto", "auto"), ("tuned", eta)):
                    for g in self.GAMMAS:
                        exps.append(dict(base, name=f"{p}-{o}-gen-{label}-g{g}",
                                         gen={"eta0": eta0, "gamma": g,
                                              "phi": 1}))
        newton = {"problem": {"kind": "beale"}, "optimizer": {"kind": "newton"},
                  "iterations": self.ITERATIONS,
                  "start_point": list(self.NEWTON_START)}
        exps.append(dict(newton, name="beale-newton-base", eta=1.0))
        exps.append(dict(newton, name="beale-newton-hvp",
                         gen={"eta0": 0.1, "gamma": 0.0, "phi": 1,
                              "estimator": "hvp"}))
        return exps

    def config_paths(self):
        return [self.compare_config, self.grid_config]

    def prepare(self):
        self.grid_config = os.path.join(self.work, "grid.yaml")
        self.compare_config = os.path.join(self.work, "compare.yaml")
        self.grid_out = os.path.join(self.work, "grid")
        self.compare_out = os.path.join(self.work, "compare")
        write_config(self.grid_config, self.grid_out, self.grid_experiments())
        for name, (f, grad, _, w_star) in oracles.SURFACES.items():
            if f(w_star) != 0.0 or any(grad(w_star)):
                self.problems.append(f"reference {name} is not stationary at "
                                     f"its minimizer {w_star}")

    def _outputs(self):
        files = [os.path.join(self.compare_out, "compare.csv"),
                 os.path.join(self.compare_out, "compare_summary.csv")]
        files += [os.path.join(self.grid_out, f"{e['name']}.grid.csv")
                  for e in self.grid_experiments()]
        return files

    def _operations(self):
        # every compare run and every grid row is one experiment run
        return len(self.exps) + len(self.grid_experiments()) * len(
            oracles.LR_GRID)

    def run_round(self):
        rcs = (quiet_cli(["compare", "--config", self.compare_config,
                          "--out", self.compare_out]),
               quiet_cli(["grid-search", "--config", self.grid_config,
                          "--out", self.grid_out]))
        if any(rcs):
            return Round(self._operations(), self._operations(),
                         ("exit",) + rcs)
        return self._round_from_outputs()

    def _round_from_outputs(self):
        summary = checks.read_csv(os.path.join(self.compare_out,
                                               "compare_summary.csv"))
        failed = sum(r["variant"] == "gen" and r["status"] == "diverged"
                     for r in summary)
        sig = [file_digest(p) for p in self._outputs()]
        return Round(self._operations(), failed, sig)

    def check_round(self):
        import genopt.cli
        from genopt import harness
        steps = [0]
        with patched(harness, "apply_step", _steps_counter(steps)):
            rc = quiet_cli(["grid-search", "--config", self.grid_config,
                            "--out", self.grid_out])
            if rc != 0:
                self.problems.append(f"genopt grid-search exited {rc}")
                return Round(1, 1, None), steps[0], 1
            tuned, tuned_loss = self._check_grids()
            self.exps = self.menu(tuned)
            write_config(self.compare_config, self.compare_out, self.exps)
            results = []
            with capturing(genopt.cli, "run_experiment", results):
                rc = quiet_cli(["compare", "--config", self.compare_config,
                                "--out", self.compare_out])
            if rc != 0:
                self.problems.append(f"genopt compare exited {rc}")
                return Round(1, 1, None), steps[0], 1
        self.check_values["tuned_eta"] = tuned
        to_tol = self._check_compare(results, tuned_loss)
        # the timed rounds run compare before grid-search; their outputs
        # must match these byte for byte
        return self._round_from_outputs(), steps[0], to_tol

    def _check_grids(self):
        tuned, tuned_loss = {}, {}
        for exp in self.grid_experiments():
            name = exp["name"]
            p, o = exp["problem"]["kind"], exp["optimizer"]["kind"]
            rows = checks.read_csv(os.path.join(self.grid_out,
                                                f"{name}.grid.csv"))
            problems = checks.check_grid(name, rows)
            self.problems += problems
            if problems:
                tuned[name], tuned_loss[name] = oracles.LR_GRID[0], math.inf
                continue
            for row in rows:
                want, status = oracles.fixed_rate_losses(
                    p, o, float(row["eta"]), self.ITERATIONS)
                self.problems += checks.check_grid_row(name, row, want, status,
                                                       self.RTOL)
            win = next(r for r in rows if r["winner"] == "true")
            tuned[name], tuned_loss[name] = (float(win["eta"]),
                                             float(win["final_loss"]))
        return tuned, tuned_loss

    def _check_compare(self, results, tuned_loss):
        columns = checks.read_csv(os.path.join(self.compare_out,
                                               "compare.csv"))
        summary = {r["name"]: r for r in checks.read_csv(
            os.path.join(self.compare_out, "compare_summary.csv"))}
        best = {}
        to_tol = 0
        for exp, res in zip(self.exps, results):
            name = exp["name"]
            row = summary.get(name)
            if row is None or row["status"] != res.status:
                self.problems.append(f"{name}: compare_summary.csv does not "
                                     f"report the run's status {res.status}")
                continue
            losses = [float(r[name]) for r in columns if r[name] != ""]
            if losses != [r.loss for r in res.records]:
                self.problems.append(f"{name}: compare.csv losses differ from "
                                     f"the run's records")
            p, o = exp["problem"]["kind"], exp["optimizer"]["kind"]
            f, _, _, w_star = oracles.SURFACES[p]
            if "gen" in exp:
                gen = exp["gen"]
                eta0 = gen["eta0"] if gen["eta0"] != "auto" else None
                self.problems += checks.check_eta_path(
                    name, [r.eta for r in res.records],
                    [r.fit_accepted for r in res.records], eta_start=eta0,
                    clamped=gen.get("estimator", "fit") == "fit")
                if res.status == "ok" and o != "newton":
                    best.setdefault(f"{p}_{o}", []).append(res.final_loss)
            elif o == "newton":
                if res.status != "ok" or res.final_loss > f(w_star) + \
                        self.LOSS_TOL:
                    self.problems.append(f"{name}: Newton run ends at loss "
                                         f"{res.final_loss!r}, not at the "
                                         f"minimizer")
            else:
                want, status = oracles.fixed_rate_losses(p, o, exp["eta"],
                                                         self.ITERATIONS)
                if status != res.status:
                    self.problems.append(f"{name}: status {res.status}, the "
                                         f"reference loop says {status}")
                self.problems += checks.check_loss_path(name, losses, want,
                                                        self.RTOL)
            if res.status == "ok":
                to_tol += checks.first_within(losses, f(w_star),
                                              self.LOSS_TOL, self.ITERATIONS)
            else:
                to_tol += self.ITERATIONS
        for key, loss in tuned_loss.items():
            self.problems += checks.check_menu_vs_grid(key, best.get(key, []),
                                                       loss)
        self.check_values["diverged_adaptive"] = sorted(
            e["name"] for e, r in zip(self.exps, results)
            if "gen" in e and r.status == "diverged")
        return to_tol


WORKLOADS = {w.name: w for w in (LogregFull, LogregMinibatch, Surfaces)}


# ---------------------------------------------------------------------------
# set-up time, environment, per-layer metrics

def setup_sample(workload):
    code = ("import sys, time\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "import numpy\n"
            "t0 = time.perf_counter()\n"
            "import genopt\n"
            + workload.setup_source() +
            "print(repr(time.perf_counter() - t0))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def blas_info():
    info = {"name": None, "version": None, "threads": None}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    import ctypes
    import glob
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def kernel_path():
    """The kernel implementation that is actually bound, not the flag."""
    from genopt import kernels
    numba_importable = importlib.util.find_spec("numba") is not None
    fn = kernels.logreg_loss
    if fn is getattr(kernels, "logreg_loss_py", None):
        path = "numpy"
    elif numba_importable and type(fn).__module__.startswith("numba"):
        path = "numba"
    else:
        path = f"unknown ({type(fn).__module__}.{type(fn).__name__})"
    return path, numba_importable


def environment():
    import platform
    path, numba_importable = kernel_path()
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            full = os.path.join(dirpath, fn)
            h.update(os.path.relpath(full, SRC).encode())
            with open(full, "rb") as f:
                h.update(f.read())
    return {
        "kernel_path": path,
        "numba_importable": numba_importable,
        "GENOPT_JIT": os.environ.get("GENOPT_JIT"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
    }


def layer_metrics(tr, steps, rounds, sps_plain, sps_traced):
    """Per-layer metrics of BENCHMARK.json from the traced rounds' totals.

    ``steps`` is the optimizer steps of all traced rounds and ``rounds``
    their number; per-round figures are averages over the traced rounds.
    """
    us = 1e-3
    c = tr.counts.get

    def per(a, b):
        return a / b if b else 0.0

    surface = [n for n in tr.names("kernels")
               if n.startswith("kernels.surface.")]
    loss = tr.names("problems", ".loss")
    grad = tr.names("problems", ".grad") + tr.names("problems", ".loss_grad")
    fit_attempts = c("fit_attempts", 0)
    probe_evals = sum(v for (parent, name), v in tr.pairs.items()
                      if parent == "gen.probe_losses" and name in loss)
    directions = ("optim.sgd_direction", "optim.adamw_direction")
    writers = [n for n in tr.names("cli") if n.startswith("cli.write_")]
    write_ns = tr.incl_ns(*writers)
    runs = c("runs", 0)
    stepper = ("harness.run_experiment", "harness.grid_search_rows")
    return {
        "kernels.logreg_loss.calls_per_step":
            per(tr.calls("kernels.logreg_loss"), steps),
        "kernels.logreg_loss.us_per_call":
            per(tr.incl_ns("kernels.logreg_loss"),
                tr.calls("kernels.logreg_loss")) * us,
        "kernels.logreg_loss_grad.calls_per_step":
            per(tr.calls("kernels.logreg_loss_grad"), steps),
        "kernels.logreg_loss_grad.us_per_call":
            per(tr.incl_ns("kernels.logreg_loss_grad"),
                tr.calls("kernels.logreg_loss_grad")) * us,
        "kernels.surface.calls_per_step": per(tr.calls(*surface), steps),
        "kernels.self_us_per_step": per(tr.layer_self_ns("kernels"), steps) * us,
        "kernels.computed_bytes_per_step": per(c("kernel_bytes", 0), steps),
        "problems.loss.calls_per_step": per(tr.calls(*loss), steps),
        "problems.grad.calls_per_step": per(tr.calls(*grad), steps),
        "problems.hvp.calls_per_step":
            per(tr.calls("problems.Objective.hvp"), steps),
        "problems.batch_resolves_per_step": per(c("batch_resolves", 0), steps),
        "problems.resolve.us_per_call":
            per(c("batch_resolve_ns", 0), c("batch_resolves", 0)) * us,
        "problems.self_us_per_step":
            per(tr.layer_self_ns("problems"), steps) * us,
        "problems.generate_dataset_s":
            per(tr.incl_ns("problems.generate_dataset"), rounds) * 1e-9,
        "gen.gen_update.self_us_per_call":
            per(tr.stats.get("gen.gen_update", [0, 0, 0, 0])[3],
                tr.calls("gen.gen_update")) * us,
        "gen.fit_quadratic.us_per_call":
            per(tr.incl_ns("gen.fit_quadratic"),
                tr.calls("gen.fit_quadratic")) * us,
        "gen.fit_attempts_per_step": per(fit_attempts, steps),
        "gen.accept_ratio": per(c("fits_accepted", 0), fit_attempts),
        "gen.probe_evals_per_fit":
            per(probe_evals, tr.calls("gen.probe_losses")),
        "gen.exact_eta_hvp.calls_per_step":
            per(tr.calls("gen.exact_eta_hvp"), steps),
        "gen.auto_search_eta0_s":
            per(tr.incl_ns("gen.auto_search_eta0"), rounds) * 1e-9,
        "optim.direction.us_per_call":
            per(tr.incl_ns(*directions), tr.calls(*directions)) * us,
        "optim.apply_step.calls_per_step":
            per(tr.calls("optim.apply_step"), steps),
        "optim.self_us_per_step": per(tr.layer_self_ns("optim"), steps) * us,
        "harness.step_overhead_us":
            per(sum(tr.stats.get(n, [0, 0, 0, 0])[2] for n in stepper),
                steps) * us,
        "harness.spec_validate_us_per_run":
            per(tr.incl_ns("harness.spec_from_dict"), runs) * us,
        "harness.runs": per(runs, rounds),
        "harness.diverged_runs": per(c("diverged_runs", 0), rounds),
        "cli.load_config_s": per(tr.incl_ns("cli.load_config"), rounds) * 1e-9,
        "cli.write_csv_s": per(write_ns, rounds) * 1e-9,
        "cli.csv_bytes": per(c("csv_bytes", 0), rounds),
        "cli.csv_mib_per_s":
            per(c("csv_bytes", 0) / 2 ** 20, write_ns * 1e-9),
        "core.as_param_vector.calls_per_step":
            per(tr.calls("core.as_param_vector"), steps),
        "core.self_us_per_step": per(tr.layer_self_ns("core"), steps) * us,
        "trace.overhead_pct": (sps_plain / sps_traced - 1.0) * 100.0,
        "trace.unreached_targets": len(tr.unreached),
    }


# ---------------------------------------------------------------------------
# running a workload

def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def timed_round(workload):
    gc.collect()
    t0 = time.perf_counter()
    try:
        rnd = workload.run_round()
        err = None
    except Exception:  # an operation that raises counts as failed
        rnd, err = None, traceback.format_exc()
    return time.perf_counter() - t0, rnd, err


def measure(workload, args, declared):
    e2e_units, layer_units = declared
    check, steps, to_tol = workload.check_round()
    record = {"rounds": [], "errors": []}
    attempted = failed = 0
    check_failed = bool(workload.problems)

    def account(dt, rnd, err, traced):
        nonlocal attempted, failed
        n = check.attempted
        bad = n if (rnd is None or check_failed) else rnd.failed
        if rnd is not None and rnd.signature != check.signature:
            workload.problems.append(
                f"round {len(record['rounds'])} output differs from the "
                f"checked round")
            bad = n
        if err:
            record["errors"].append(err)
        attempted += n
        failed += bad
        record["rounds"].append({"seconds": dt, "steps": steps,
                                 "traced": traced, "failed": bad,
                                 "completed": rnd is not None})

    setup = []
    tracer = None
    if args.trace:
        from tracing import genopt_tracer
        tracer = genopt_tracer()
    else:
        setup += [setup_sample(workload) for _ in range(SETUP_SAMPLES // 3)]
    spent = 0.0
    while spent < args.seconds or len(record["rounds"]) < MIN_ROUNDS:
        dt, rnd, err = timed_round(workload)
        account(dt, rnd, err, False)
        spent += dt
        if tracer is not None:
            tracer.install()
            try:
                dt, rnd, err = timed_round(workload)
            finally:
                tracer.uninstall()
            account(dt, rnd, err, True)
            spent += dt
        elif len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(workload))
    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(workload))

    def sps(traced):
        return statistics.median(steps / r["seconds"]
                                 for r in record["rounds"]
                                 if r["traced"] == traced and r["completed"])

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup),
            "steps_per_s": sps(False),
            "steps_to_tol": to_tol,
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = e2e_units
    else:
        n_traced = sum(r["traced"] for r in record["rounds"])
        metrics = layer_metrics(tracer, steps * n_traced, n_traced,
                                sps(False), sps(True))
        units = layer_units
        record["unreached_targets"] = tracer.unreached
        record["spans"] = tracer.spans
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do "
                           f"not match BENCHMARK.json")
    record.update(setup_samples_s=setup, steps_per_round=steps,
                  check_values=workload.check_values)
    return {"correct": not workload.problems, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(BENCH_DIR, "results"),
                    help="directory for the full run record")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "genopt", "__init__.py")):
        print(f"error: no genopt package under {SRC}; run from the root of a "
              f"source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import genopt  # noqa: F401

    declared = load_declared()
    tag = f"{args.workload}.s{args.seed}.t{args.trace}"
    work = os.path.join(args.out, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = WORKLOADS[args.workload](args.seed, work)
    try:
        workload.prepare()
        result, record = measure(workload, args, declared)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spans = record.pop("spans", None)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), **result,
              "problems": workload.problems, **record}
    with open(os.path.join(args.out, f"{tag}.json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if spans is not None:
        with open(os.path.join(args.out, f"{tag}.spans.json"), "w",
                  encoding="utf-8") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": spans}, f)

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} kernels={env['kernel_path']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']['name']}x{env['blas']['threads']} "
          f"nproc={env['nproc']}")
    for p in workload.problems:
        print(f"# problem: {p}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted = {result['attempted']}  failed = {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
