"""Command-line front end: declarative YAML configs in, CSV tables out.

Output formatting is deliberately rigid (fixed column order, 17
significant digits, LF endings) so that repeated runs of the same config
are byte-identical and diffable. Every error path prints exactly one
stderr line of the form ``error[<code>]: <message>``.

Exit codes: 0 success, 2 config or command-line error, 3 runtime error. A
diverged run is a successful run whose status column says so.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import yaml

from .core import batch_stream
from .harness import (
    _ACCEPTED,
    _HAS_CANDIDATE,
    _HAS_R2,
    _LOG_COLUMNS,
    ExperimentSpec,
    RunResult,
    SpecError,
    _check_keys,
    build_problem,
    convergence_metrics,
    grid_search_rows,
    pick_best_row,
    require_eta_or_gen,
    require_grid_specs,
    run_experiment,
    spec_from_dict,
)

FORMAT_VERSION = 1
_ROOT_KEYS = ("format_version", "output_dir", "experiments")

# libyaml's scanner and parser when PyYAML was built with it; both loaders
# build their objects with the same SafeConstructor and resolver
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

TRAJECTORY_COLUMNS = ("step", "loss", "eta", "eta_candidate",
                      "fit_accepted", "fit_r2", "grad_norm", "status")

SUMMARY_COLUMNS = ("name", "status", "iterations", "final_loss", "final_eta",
                   "wall_time_s", "fit_attempts", "fits_accepted",
                   "fits_rejected")


@dataclass
class Config:
    experiments: List[ExperimentSpec]
    output_dir: str


def fmt(value) -> str:
    """Canonical cell formatting: floats at 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def _one_line(msg) -> str:
    return " ".join(str(msg).split())


def _err(code: str, message) -> None:
    print(f"error[{code}]: {_one_line(message)}", file=sys.stderr)


def load_config(path: str) -> Config:
    """Read and strictly validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise SpecError("config.unreadable", f"cannot read {path}: {e}")
    except UnicodeDecodeError as e:
        raise SpecError("config.unreadable",
                        f"cannot read {path}: byte 0x{e.object[e.start]:02x} "
                        f"at position {e.start} is not UTF-8 ({e.reason})")
    try:
        data = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as e:
        raise SpecError("config.parse", f"cannot parse {path}: {e}")
    _check_keys(data, _ROOT_KEYS, _ROOT_KEYS, "config root")
    if data["format_version"] != FORMAT_VERSION:
        raise SpecError("config.format-version",
                        f"unsupported format_version "
                        f"{data['format_version']!r}; this build reads "
                        f"version {FORMAT_VERSION}")
    if not isinstance(data["output_dir"], str) or not data["output_dir"]:
        raise SpecError("config.output-dir",
                        "output_dir must be a non-empty path string")
    raw = data["experiments"]
    if not isinstance(raw, list) or not raw:
        raise SpecError("config.no-experiments",
                        "no experiments: the experiments list is empty")
    specs = []
    seen = set()
    for i, entry in enumerate(raw):
        spec = spec_from_dict(entry, where=f"experiments[{i}]")
        if spec.name in seen:
            raise SpecError("config.duplicate-name",
                            f"duplicate experiment name {spec.name!r}")
        seen.add(spec.name)
        specs.append(spec)
    return Config(experiments=specs, output_dir=data["output_dir"])


# ---------------------------------------------------------------------------
# CSV writers

def _write_rows(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _trajectory_row(flags: int) -> str:
    # the format string of a trajectory line with log flags ``flags``,
    # taking the row's values in _LOG_COLUMNS order and then its status;
    # each cell has the bits fmt gives it, "" for an unset optional one
    return ",".join((
        "{0:.0f}", "{1:.16e}", "{2:.16e}",
        "{4:.16e}" if flags & _HAS_CANDIDATE else "",
        "true" if flags & _ACCEPTED else "false",
        "{5:.16e}" if flags & _HAS_R2 else "", "{3:.16e}", "{6}\n"))


_TRAJECTORY_ROWS = [_trajectory_row(flags) for flags in range(8)]


def write_trajectory_csv(path: str, result: RunResult) -> None:
    # one format call per line, streamed; every line but the last has
    # status "ok"
    last = len(result.log_flags) - 1
    rows = zip(zip(*(result.column(name) for name in _LOG_COLUMNS)),
               result.log_flags)
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        f.writelines(_TRAJECTORY_ROWS[flags].format(
            *values, result.status if i == last else "ok")
            for i, (values, flags) in enumerate(rows))


def write_summary_csv(path: str, specs: List[ExperimentSpec],
                      results: List[RunResult]) -> None:
    rows = []
    for spec, res in zip(specs, results):
        stats = res.gen_stats or {}
        rows.append([
            spec.name, res.status, fmt(spec.iterations),
            fmt(res.final_loss),
            fmt(res.column("eta")[-1] if res.log_flags else None),
            f"{res.wall_time:.3f}",
            fmt(stats.get("fit_attempts")),
            fmt(stats.get("fits_accepted")),
            fmt(stats.get("fits_rejected")),
        ])
    _write_rows(path, SUMMARY_COLUMNS, rows)


def write_grid_csv(path: str, rows: List[Dict],
                   best_eta: Optional[float]) -> None:
    _write_rows(path, ("eta", "final_loss", "status", "winner"), (
        [fmt(row["eta"]), fmt(row["final_loss"]), row["status"],
         fmt(row["eta"] == best_eta)] for row in rows))


def write_compare_csv(path: str, names: List[str], iterations: int,
                      results: List[RunResult]) -> None:
    # compare runs log every step, so step t's loss is row t - 1 of a
    # run's loss column until the run stops
    losses = [res.column("loss") for res in results]
    _write_rows(path, ["iter"] + names, (
        [fmt(t)] + [fmt(column[t - 1]) if t <= len(column) else ""
                    for column in losses]
        for t in range(1, iterations + 1)))


def write_compare_summary_csv(path: str, entries: List[Dict]) -> None:
    _write_rows(path, ("name", "optimizer", "variant", "status",
                       "final_loss", "iters_to_tol"), (
        [e["name"], e["optimizer"], e["variant"], e["status"],
         fmt(e["final_loss"]), fmt(e["iters_to_tol"])] for e in entries))


# ---------------------------------------------------------------------------
# commands

def _run_specs(fn, specs: List[ExperimentSpec], jobs: int) -> List:
    """``[fn(spec) for spec in specs]``, in up to ``jobs`` worker processes."""
    # the pool forks every worker up front, so never ask for idle ones
    workers = min(jobs, len(specs), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(s) for s in specs]
    # imported here so that a serial command never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # results come back in spec order regardless of completion order
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, specs))


def _command(config_path: str, output_dir: Optional[str],
             seed: Optional[int], body, vet=None) -> int:
    """Load the config, override the seeds, let ``vet(specs)`` reject the
    experiments before the output directory exists, create it and return
    ``body(specs, out)`` inside one batch stream, so the command's runs
    draw each mini-batch once. A config error exits 2, an I/O error or
    running out of memory 3.
    """
    try:
        if seed is not None and seed < 0:
            raise SpecError("config.seed", f"--seed must be a non-negative "
                                           f"integer, got {seed}")
        config = load_config(config_path)
        specs = config.experiments
        if seed is not None:
            specs = [replace(s, seed=seed) for s in specs]
        if vet is not None:
            vet(specs)
        out = output_dir or config.output_dir
        os.makedirs(out, exist_ok=True)
        with batch_stream():
            return body(specs, out)
    except SpecError as e:
        _err(e.code, e)
        return 2
    except OSError as e:
        _err("io.error", e)
        return 3
    except MemoryError as e:
        _err("runtime.out-of-memory", e)
        return 3


def _vet_run(specs: List[ExperimentSpec]) -> None:
    for spec in specs:
        require_eta_or_gen(spec)


def cmd_run(config_path: str, output_dir: Optional[str] = None,
            jobs: int = 1, seed: Optional[int] = None) -> int:
    """Run every experiment; write per-run trajectories plus a summary."""
    def body(specs, out):
        results = _run_specs(run_experiment, specs, jobs)
        for spec, res in zip(specs, results):
            write_trajectory_csv(os.path.join(out, f"{spec.name}.trajectory.csv"),
                                 res)
            print(f"{spec.name}: status={res.status} "
                  f"final_loss={res.final_loss:.6g} "
                  f"records={len(res.log_flags)}")
        write_summary_csv(os.path.join(out, "summary.csv"), specs, results)
        print(f"wrote {len(specs)} trajectories + summary.csv to {out}")
        return 0
    return _command(config_path, output_dir, seed, body, vet=_vet_run)


def cmd_grid_search(config_path: str, output_dir: Optional[str] = None,
                    jobs: int = 1, seed: Optional[int] = None) -> int:
    """Tune each experiment's constant learning rate over the 18-point grid."""
    def body(specs, out):
        results = _run_specs(grid_search_rows, specs, jobs)
        for spec, rows in zip(specs, results):
            best = pick_best_row(rows)
            if best is None:
                _err("runtime.grid-all-diverged",
                     f"all grid learning rates diverged for {spec.name!r}")
                return 3
            write_grid_csv(os.path.join(out, f"{spec.name}.grid.csv"),
                           rows, best["eta"])
            print(f"{spec.name}: grid over {len(rows)} learning rates")
            for row in rows:
                mark = "  <- winner" if row["eta"] == best["eta"] else ""
                print(f"  eta={row['eta']:<8g} final_loss="
                      f"{row['final_loss']:.6e} [{row['status']}]{mark}")
        return 0
    return _command(config_path, output_dir, seed, body,
                    vet=require_grid_specs)


def _vet_compare(specs: List[ExperimentSpec]) -> None:
    iterations = specs[0].iterations
    variants: Dict[str, set] = {}
    for spec in specs:
        if spec.log_every != 1:
            raise SpecError("config.compare.log-every",
                            f"experiment {spec.name!r} must use "
                            f"log_every 1 for aligned comparison")
        if spec.iterations != iterations:
            raise SpecError("config.compare.iterations",
                            f"experiment {spec.name!r} runs "
                            f"{spec.iterations} iterations; all "
                            f"experiments must match ({iterations})")
        variants.setdefault(spec.optimizer["kind"], set()).add(
            "gen" if spec.gen is not None else "base")
    for kind, have in sorted(variants.items()):
        missing = {"base", "gen"} - have
        if missing:
            raise SpecError("config.compare.unpaired",
                            f"optimizer kind {kind!r} is missing its "
                            f"{missing.pop()} counterpart")
    _vet_run(specs)


def cmd_compare(config_path: str, output_dir: Optional[str] = None,
                jobs: int = 1, seed: Optional[int] = None) -> int:
    """Run base/adaptive pairs and emit an aligned loss-vs-iteration table."""
    def body(specs, out):
        results = _run_specs(run_experiment, specs, jobs)
        names = [s.name for s in specs]
        write_compare_csv(os.path.join(out, "compare.csv"), names,
                          specs[0].iterations, results)
        entries = []
        for spec, res in zip(specs, results):
            # logreg has no closed-form minimizer; building its dataset
            # would only confirm that
            optimum = None
            if spec.problem["kind"] != "logreg":
                optimum = build_problem(spec.problem).known_minimizer
            iters_to_tol = None
            if optimum is not None:
                iters_to_tol, _ = convergence_metrics(res, optimum)
            entries.append({
                "name": spec.name,
                "optimizer": spec.optimizer["kind"],
                "variant": "gen" if spec.gen is not None else "base",
                "status": res.status,
                "final_loss": res.final_loss,
                "iters_to_tol": iters_to_tol,
            })
            print(f"{spec.name}: status={res.status} "
                  f"final_loss={res.final_loss:.6g}")
        write_compare_summary_csv(os.path.join(out, "compare_summary.csv"),
                                  entries)
        print(f"wrote compare.csv + compare_summary.csv to {out}")
        return 0
    return _command(config_path, output_dir, seed, body, vet=_vet_compare)


class _Parser(argparse.ArgumentParser):
    # a bad command line raises instead of printing usage and exiting, so
    # main prints one error line; the subparsers are built from this class
    def error(self, message):
        raise SpecError("cli.usage", message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="genopt",
        description="Run adaptive-learning-rate benchmark experiments "
                    "from declarative configs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (("run", "run experiments, write trajectories"),
                        ("grid-search", "tune baseline learning rates"),
                        ("compare", "aligned base-vs-adaptive comparison")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", default=None,
                       help="output directory (overrides the config)")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for independent runs")
        p.add_argument("--seed", type=int, default=None,
                       help="override every experiment's seed")
    try:
        args = parser.parse_args(argv)
    except SpecError as e:
        _err(e.code, e)
        return 2
    if args.jobs < 1:
        _err("cli.jobs", f"--jobs must be an integer >= 1, got {args.jobs}")
        return 2
    handler = {"run": cmd_run, "grid-search": cmd_grid_search,
               "compare": cmd_compare}[args.command]
    try:
        return handler(args.config, output_dir=args.out, jobs=args.jobs,
                       seed=args.seed)
    except Exception as e:  # belt and braces: never die without a code
        _err("runtime.unexpected", f"{type(e).__name__}: {e}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
