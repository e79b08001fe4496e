"""Run `genopt run`, `compare` and `grid-search` on every configs/*.yaml
with two source trees, each into a temporary directory, and compare every
CSV byte for byte (summary.csv without wall_time_s), the exit codes,
stdout and stderr (each tree's temporary directory replaced by a fixed
token) and whether the command left its output directory. Each of
those commands runs again with `--jobs 2`, and its facts and CSVs are
compared with the other tree's serial run of it, so draws shared across a
command's runs show under a worker pool too. Then run
`genopt run` and `genopt grid-search` on a fixed set of invalid configs,
written to the same temporary directory, and compare the same facts, so
that a change to any config error's code or message, on either command's
validation path, shows. A config that one command accepts (a newton or
gen experiment under `run`, one without a rate under `grid-search`) runs
and is compared like any other. Then run `genopt grid-search` on one more
config written there, whose experiments cover the option shapes a grid
can take (momentum and weight decay, AdamW betas, each post-processor,
start_point, quadratic and logreg problems, full and mini-batch), so any
change to a grid row on those paths shows. Then run `genopt run` on one
more config whose adaptive experiments cover the gen settings no
committed config takes (5-point probes, whose r2 column carries the
fit's residual bits, phi > 1, decay, a low r2 threshold, the hvp
estimator) on Rosenbrock, the quadratic and logreg with the full batch
and with mini-batches, next to a full-batch 3-point logreg fit with
rejected fits, whose steps land on their probe points, and a fixed-rate
Newton run on logreg, so the logistic curvature shows through both of
its users. Then, in one more subprocess per tree, run every experiment
of the committed configs and of the adaptive-shapes config that `run`
and `compare` accept through `genopt.harness.run_experiment`, and
compare the sha256 of its iterates
(`np.asarray(result.ws, dtype=np.float64).tobytes()`), of
`final_w.tobytes()` and of its records
(`repr([dataclasses.astuple(r) for r in result.records])`), so that a
report of no differences also proves every iterate kept its bits and
every record field its value, None apart from NaN included. Every config
is written with its keys in the order given here, not sorted.
Exits 1 on any difference.
Also prints each tree's line count of genopt/*.py, as `wc -l` counts it.

    python tools/same_outputs.py OLD/src NEW/src
"""

import csv
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import yaml

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
COMMANDS = ("run", "compare", "grid-search")
# what each command is compared on besides its CSVs
FACTS = ("exit code", "stdout", "stderr", "output directory left")
# the extra flags of the pass that runs the committed configs in a pool
JOBS2 = ("--jobs", "2")
# what each experiment is compared on in one subprocess
HASHED = ("iterates", "final_w", "records")

LOGREG = {"kind": "logreg", "seed": 0, "n": 50, "d": 2}
EXPERIMENT = {"name": "bad", "problem": LOGREG, "optimizer": {"kind": "sgd"},
              "iterations": 5, "eta": 0.001}
# overrides of EXPERIMENT (a null eta leaves it unset): one bad value per
# checked field, then the key, kind and cross-field errors. Left out on
# purpose: several missing required keys (the key named first depended on
# the hash seed before it followed the declared order), decay with the
# hvp estimator (an error before it was allowed).
BAD_EXPERIMENTS = {
    "problem.seed": {"problem": dict(LOGREG, seed=-1)},
    "problem.n": {"problem": dict(LOGREG, n=1)},
    "problem.d": {"problem": dict(LOGREG, d=True)},
    "problem.l2": {"problem": dict(LOGREG, l2_penalty="1e-5")},
    "optimizer.momentum": {"optimizer": {"kind": "sgd", "momentum": 1.0}},
    "optimizer.beta1": {"optimizer": {"kind": "adamw", "beta1": "9e-1"}},
    "optimizer.beta2": {"optimizer": {"kind": "adamw", "beta2": None}},
    "optimizer.weight-decay": {"optimizer": {"kind": "sgd",
                                             "weight_decay": float("nan")}},
    "optimizer.epsilon": {"optimizer": {"kind": "adamw", "epsilon": 0.0}},
    "post.max-norm": {"optimizer": {"kind": "sgd", "post_process": {
        "kind": "clip", "max_norm": "1e2"}}},
    "gen.eta0": {"eta": None, "gen": {"eta0": "1e-5"}},
    "gen.gamma": {"eta": None, "gen": {"gamma": 1.0}},
    "gen.phi": {"eta": None, "gen": {"phi": 0}},
    "gen.probe-points": {"eta": None, "gen": {"probe_points": 3.0}},
    "gen.r2-threshold": {"eta": None, "gen": {"r2_threshold": 10 ** 400}},
    "gen.decay": {"eta": None, "gen": {"decay": "yes"}},
    "gen.estimator": {"eta": None, "gen": {"estimator": "magic"}},
    "iterations": {"iterations": None},
    "seed": {"seed": -1},
    "log-every": {"log_every": 0},
    "eta": {"eta": "1e-5"},
    "batch-size": {"batch_size": 0},
    "two-bad-fields": {"iterations": 0, "eta": None, "gen": {"gamma": 2.0}},
    "unknown-key": {"lerning_rate": 0.1},
    "missing-key": {"problem": {"kind": "logreg", "seed": 0, "d": 2}},
    "not-a-mapping": {"gen": "auto", "eta": None},
    "problem.kind": {"problem": {"kind": "warp"}},
    "problem.matrix": {"problem": {"kind": "quadratic",
                                   "matrix_a": [[1.0, 0.0], [0.0, -1.0]]}},
    "optimizer.kind": {"optimizer": {"kind": "lion"}},
    "optimizer.key-for-kind": {"optimizer": {"kind": "adamw",
                                             "momentum": 0.9}},
    "post.kind": {"optimizer": {"kind": "sgd",
                                "post_process": {"kind": "glow"}}},
    "post.mask": {"optimizer": {"kind": "sgd", "post_process": {
        "kind": "mask", "mask": [1]}}},
    "name": {"name": "bad name"},
    "eta-and-gen": {"gen": {}},
    "needs-eta-or-gen": {"eta": None},
    "start-point": {"start_point": [0.0]},
    "batch-size.not-stochastic": {"problem": {"kind": "rosenbrock"},
                                  "batch_size": 8},
    "batch-size.too-large": {"batch_size": 51},
    "grid.gen-not-allowed": {"eta": None, "gen": {}},
    "grid.optimizer": {"optimizer": {"kind": "newton"}},
    # values the library constructors once accepted and a config rejects
    "gen.phi-fraction": {"eta": None, "gen": {"phi": 2.5}},
    "optimizer.weight-decay-inf": {"optimizer": {
        "kind": "sgd", "weight_decay": float("inf")}},
    "optimizer.epsilon-inf": {"optimizer": {"kind": "adamw",
                                            "epsilon": float("inf")}},
    "post.max-norm-inf": {"optimizer": {"kind": "sgd", "post_process": {
        "kind": "clip", "max_norm": float("inf")}}},
    "problem.l2-inf": {"problem": dict(LOGREG, l2_penalty=float("inf"))},
    "batch-size-fraction": {"batch_size": 2.5},
    # each kind's own key errors; the keys are written in the order given
    # here, so a kind that names its first extra key in sorted order shows
    # it names that one
    "problem.rosenbrock-key": {"problem": {"kind": "rosenbrock", "seed": 0,
                                           "n": 4}},
    "problem.quadratic-key": {"problem": {"kind": "quadratic",
                                          "matrix_a": [[1.0]], "seed": 0}},
    "problem.quadratic-missing-matrix": {"problem": {"kind": "quadratic"}},
    "optimizer.newton-key": {"optimizer": {"kind": "newton",
                                           "momentum": 0.9}},
    "post.clip-missing-max-norm": {"optimizer": {"kind": "sgd",
                                                 "post_process": {
                                                     "kind": "clip"}}},
    "post.clip-key": {"optimizer": {"kind": "sgd", "post_process": {
        "kind": "clip", "max_norm": 1.0, "mask": [1, 1]}}},
    "post.mask-missing-mask": {"optimizer": {"kind": "sgd", "post_process": {
        "kind": "mask"}}},
    "post.identity-keys": {"optimizer": {"kind": "sgd", "post_process": {
        "kind": "identity", "max_norm": 1.0, "mask": [1, 1]}}},
}


SURFACE = {"problem": {"kind": "rosenbrock"}, "iterations": 300}
LOGREG_GRID = {"problem": dict(LOGREG, n=200, d=3), "iterations": 40}
# experiments for grid-search, one per option shape; several have rates
# that diverge
GRID_SHAPES = [
    dict(SURFACE, name="momentum-decay", optimizer={
        "kind": "sgd", "momentum": 0.9, "weight_decay": 0.01}),
    dict(SURFACE, name="adamw-betas", problem={"kind": "beale"}, optimizer={
        "kind": "adamw", "beta1": 0.5, "beta2": 0.9, "epsilon": 1.0e-6,
        "weight_decay": 0.1}),
    dict(SURFACE, name="clip", optimizer={"kind": "sgd", "post_process": {
        "kind": "clip", "max_norm": 3.0}}),
    dict(SURFACE, name="sign", problem={"kind": "beale"}, optimizer={
        "kind": "adamw", "post_process": {"kind": "sign"}}),
    dict(SURFACE, name="mask", optimizer={"kind": "sgd", "post_process": {
        "kind": "mask", "mask": [1, 0]}}),
    dict(SURFACE, name="start-point", problem={"kind": "beale"},
         optimizer={"kind": "sgd"}, start_point=[1.0, 1.0]),
    dict(SURFACE, name="quadratic", problem={
        "kind": "quadratic", "matrix_a": [[3.0, 1.0], [1.0, 2.0]],
        "offset": [1.0, 2.0]}, optimizer={"kind": "sgd", "momentum": 0.5}),
    dict(LOGREG_GRID, name="logreg-full", optimizer={"kind": "adamw"},
         problem=dict(LOGREG_GRID["problem"], l2_penalty=0.01)),
    dict(LOGREG_GRID, name="logreg-minibatch", optimizer={
        "kind": "sgd", "momentum": 0.9}, batch_size=16, seed=3),
]

QUADRATIC = {"kind": "quadratic", "matrix_a": [[3.0, 1.0], [1.0, 2.0]],
             "offset": [1.0, 2.0]}
LOGREG_RUN = dict(LOGREG, n=200, d=3, l2_penalty=0.01)
FIVE = {"probe_points": 5, "phi": 3, "decay": True, "r2_threshold": 0.5}
# experiments for run, one per adaptive shape, and the logistic Newton
# direction
ADAPTIVE_SHAPES = [
    dict(SURFACE, name="rosenbrock-five", optimizer={"kind": "sgd"},
         gen=dict(FIVE, eta0=1.0e-3)),
    dict(SURFACE, name="rosenbrock-five-auto", optimizer={"kind": "adamw"},
         gen={"probe_points": 5, "r2_threshold": 0.5, "phi": 1}),
    dict(SURFACE, name="quadratic-five", problem=QUADRATIC,
         optimizer={"kind": "sgd", "momentum": 0.5}, gen=dict(FIVE)),
    dict(SURFACE, name="quadratic-hvp", problem=QUADRATIC,
         optimizer={"kind": "sgd"},
         gen={"estimator": "hvp", "phi": 3, "decay": True, "eta0": 0.1}),
    dict(LOGREG_GRID, name="logreg-full-five", problem=LOGREG_RUN,
         optimizer={"kind": "adamw"}, gen=dict(FIVE, eta0=0.01)),
    # 17 of its 40 fits are rejected, so 17 steps land on their +1 probe
    dict(LOGREG_GRID, name="logreg-full-three", problem=LOGREG_RUN,
         optimizer={"kind": "sgd", "momentum": 0.9},
         gen={"eta0": 0.01, "phi": 1}),
    dict(LOGREG_GRID, name="logreg-minibatch-five", problem=LOGREG_RUN,
         optimizer={"kind": "sgd", "momentum": 0.9}, batch_size=16, seed=3,
         gen=dict(FIVE, gamma=0.5)),
    dict(LOGREG_GRID, name="logreg-minibatch-hvp", problem=LOGREG_RUN,
         optimizer={"kind": "sgd"}, batch_size=16, seed=4,
         gen={"estimator": "hvp", "phi": 3, "decay": True}),
    dict(LOGREG_GRID, name="logreg-full-hvp", problem=LOGREG_RUN,
         optimizer={"kind": "sgd", "momentum": 0.5}, gen={"estimator": "hvp"}),
    dict(LOGREG_GRID, name="logreg-newton", problem=LOGREG_RUN,
         optimizer={"kind": "newton"}, eta=1.0),
]


# run in each tree's interpreter: one line per experiment with a rate
# source, "config<TAB>name<TAB>sha256(ws)<TAB>sha256(final_w)<TAB>
# sha256(records)"; repr spells every float exactly, nan included
ITERATE_HASHES = """
import dataclasses, hashlib, sys
import numpy as np
from genopt.cli import load_config
from genopt.harness import run_experiment
for path in sys.argv[1:]:
    for spec in load_config(path).experiments:
        if spec.eta is None and spec.gen is None:
            continue  # a grid-search experiment: run and compare reject it
        res = run_experiment(spec)
        ws = np.asarray(res.ws, dtype=np.float64).tobytes()
        records = repr([dataclasses.astuple(r) for r in res.records])
        print(path, spec.name, hashlib.sha256(ws).hexdigest(),
              hashlib.sha256(res.final_w.tobytes()).hexdigest(),
              hashlib.sha256(records.encode()).hexdigest(), sep="\t")
"""


def invalid_configs():
    """Name -> config mapping, for every config that `run` or
    `grid-search` must reject."""
    root = {"format_version": 1, "output_dir": "out"}
    configs = {
        name: dict(root, experiments=[dict(EXPERIMENT, **over)])
        for name, over in BAD_EXPERIMENTS.items()}
    configs.update({
        "root.not-a-mapping": [root],
        "root.unknown-key": dict(root, experiments=[EXPERIMENT], extra=1),
        "root.missing-key": root,
        "root.format-version": dict(root, format_version=2),
        "root.output-dir": dict(root, output_dir=""),
        "root.no-experiments": dict(root, experiments=[]),
        "root.duplicate-name": dict(root, experiments=[EXPERIMENT] * 2),
    })
    return configs


def write_config(path, config):
    # keys in the order given, so an error that names one of several keys
    # shows which
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")


def comparable(path):
    data = path.read_bytes()
    if path.name != "summary.csv":
        return data
    rows = list(csv.reader(data.decode("utf-8").splitlines()))
    col = rows[0].index("wall_time_s")
    return [row[:col] + row[col + 1:] for row in rows]


def outputs(src, tmp):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    cases = [(cmd, cfg) for cmd in COMMANDS for cfg in CONFIGS]
    for name, config in invalid_configs().items():
        path = Path(tmp, "invalid", f"{name}.yaml")
        path.parent.mkdir(exist_ok=True)
        write_config(path, config)
        cases += [("run", path), ("grid-search", path)]
    path = Path(tmp, "grid_shapes.yaml")
    write_config(path, {"format_version": 1, "output_dir": "out",
                        "experiments": GRID_SHAPES})
    cases.append(("grid-search", path))
    adaptive = Path(tmp, "adaptive_shapes.yaml")
    write_config(adaptive, {"format_version": 1, "output_dir": "out",
                            "experiments": ADAPTIVE_SHAPES})
    cases.append(("run", adaptive))
    cases = [(cmd, cfg, ()) for cmd, cfg in cases]
    cases += [(cmd, cfg, JOBS2) for cmd in COMMANDS for cfg in CONFIGS]
    got = {}
    for cmd, cfg, flags in cases:
        # a --jobs 2 run writes where its serial run wrote, so stdout
        # names the same directory
        out = Path(tmp, cmd, cfg.stem)
        shutil.rmtree(out, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, "-m", "genopt.cli", cmd, "--config", str(cfg),
             "--out", str(out), *flags], capture_output=True, env=env,
            cwd=tmp)
        facts = (proc.returncode,
                 proc.stdout.replace(os.fsencode(tmp), b"<tmp>"),
                 proc.stderr.replace(os.fsencode(tmp), b"<tmp>"),
                 out.is_dir())
        got[cmd, cfg.name, flags] = (facts, {
            f.name: comparable(f) for f in sorted(out.glob("*.csv"))})
    return got, iterate_hashes(env, tmp, [*CONFIGS, adaptive])


def iterate_hashes(env, tmp, configs):
    """(config, experiment) -> (ws hash, final_w hash, records hash) from
    ITERATE_HASHES."""
    proc = subprocess.run(
        [sys.executable, "-c", ITERATE_HASHES, *map(str, configs)],
        capture_output=True, env=env, cwd=tmp, check=True, text=True)
    lines = (line.split("\t") for line in proc.stdout.splitlines())
    return {(Path(cfg).name, name): tuple(hashes)
            for cfg, name, *hashes in lines}


def line_count(src):
    return sum(p.read_bytes().count(b"\n")
               for p in Path(src, "genopt").glob("*.py"))


def main(old_src, new_src):
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        (old, old_hashes), (new, new_hashes) = (outputs(old_src, a),
                                                outputs(new_src, b))
    diffs, n_csv = [], 0
    # each serial run against the other tree's, and each --jobs 2 run
    # against the other tree's serial run
    pairs = [(key, old[key], new[key]) for key in old if not key[2]]
    for cmd, name, flags in old:
        if flags:
            serial, pool = (cmd, name, ()), (cmd, name, flags)
            pairs += [((cmd, name, f"new {' '.join(flags)}"), old[serial],
                       new[pool]),
                      ((cmd, name, f"old {' '.join(flags)}"), old[pool],
                       new[serial])]
    for key, (facts, csvs), (facts2, csvs2) in pairs:
        for what, x, y in zip(FACTS, facts, facts2):
            if x != y:
                shown = "" if isinstance(x, bytes) else f" {x} != {y}"
                diffs.append(f"{key}: {what} differs{shown}")
        for name in sorted(set(csvs) | set(csvs2)):
            n_csv += 1
            if csvs.get(name) != csvs2.get(name):
                diffs.append(f"{key}: {name} differs")
    for key in sorted(set(old_hashes) | set(new_hashes)):
        for what, x, y in zip(HASHED, old_hashes.get(key, (None,) * 3),
                              new_hashes.get(key, (None,) * 3)):
            if x != y:
                diffs.append(f"{key}: {what} differ")
    for line in diffs:
        print(line)
    codes = sorted(Counter(facts[0] for facts, _ in old.values()).items())
    n_jobs = sum(1 for key in old if key[2])
    print(f"genopt/*.py lines: {line_count(old_src)} -> "
          f"{line_count(new_src)}")
    print(f"{len(old)} commands ({n_jobs} of them with --jobs 2), "
          f"(exit code, count) {codes}, {n_csv} CSVs, "
          f"{len(old_hashes)} experiments' iterates and records: "
          f"{len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
