"""Command-line behavior: config loading, CSV shapes, exit codes, and
the single-line stderr error contract."""

import csv
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from genopt import cli, harness
from genopt.cli import FORMAT_VERSION, fmt, main

QUAD = {"kind": "quadratic", "matrix_a": [[2.0, 0.0], [0.0, 8.0]]}
CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs")
                 .glob("*.yaml"))


def _write_config(tmp_path, experiments, name="config.yaml", **root_over):
    root = {
        "format_version": FORMAT_VERSION,
        "output_dir": str(tmp_path / "out"),
        "experiments": experiments,
    }
    root.update(root_over)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(root), encoding="utf-8")
    return str(path)


def _basic_experiments():
    return [
        {
            "name": "fixed",
            "problem": dict(QUAD),
            "optimizer": {"kind": "sgd"},
            "iterations": 6,
            "eta": 0.05,
            "start_point": [1.0, 1.0],
        },
        {
            "name": "adaptive",
            "problem": dict(QUAD),
            "optimizer": {"kind": "sgd"},
            "iterations": 6,
            "gen": {"eta0": 0.05, "gamma": 0.0, "phi": 2},
            "start_point": [1.0, 1.0],
        },
    ]


def _stderr_code(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    line = err[0]
    assert line.startswith("error[")
    return line[len("error["):line.index("]")]


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


# ---------------------------------------------------------------------------
# formatting


def test_fmt_contract():
    assert fmt(None) == ""
    assert fmt(True) == "true"
    assert fmt(False) == "false"
    assert fmt(3) == "3"
    assert fmt(0.1) == "1.0000000000000001e-01"
    assert fmt("plain") == "plain"


# ---------------------------------------------------------------------------
# run


def test_run_writes_trajectories_and_summary(tmp_path, capsys):
    cfg = _write_config(tmp_path, _basic_experiments())
    assert main(["run", "--config", cfg]) == 0
    out = tmp_path / "out"
    fixed = _read_csv(out / "fixed.trajectory.csv")
    assert fixed[0] == ["step", "loss", "eta", "eta_candidate",
                       "fit_accepted", "fit_r2", "grad_norm", "status"]
    assert len(fixed) == 7  # header + 6 logged steps
    assert all(row[7] == "ok" for row in fixed[1:])
    # fixed-rate rows never carry fit columns
    assert all(row[3] == "" and row[5] == "" for row in fixed[1:])
    assert all(row[4] == "false" for row in fixed[1:])

    adaptive = _read_csv(out / "adaptive.trajectory.csv")
    fit_rows = [row for row in adaptive[1:] if row[3] != ""]
    assert len(fit_rows) == 3  # phi = 2 over 6 steps
    assert all(row[4] == "true" for row in fit_rows)

    summary = _read_csv(out / "summary.csv")
    assert summary[0] == ["name", "status", "iterations", "final_loss",
                          "final_eta", "wall_time_s", "fit_attempts",
                          "fits_accepted", "fits_rejected"]
    assert [row[0] for row in summary[1:]] == ["fixed", "adaptive"]
    assert summary[1][6] == ""  # no fit stats on the fixed baseline
    assert summary[2][6] == "3"


def test_five_point_probe_past_the_float_range_is_a_rejected_fit(
        tmp_path, capsys):
    # 2 * eta overflows to inf for the outer probes: each of the three
    # fits is rejected and eta stays put, instead of an unexpected error
    cfg = _write_config(tmp_path, [{
        "name": "huge-rate",
        "problem": {"kind": "quadratic",
                    "matrix_a": [[1.0e-300, 0.0], [0.0, 1.0e-300]]},
        "optimizer": {"kind": "sgd"},
        "iterations": 3,
        "gen": {"eta0": 1.0e308, "probe_points": 5, "phi": 1},
    }])
    assert main(["run", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""
    summary = _read_csv(tmp_path / "out" / "summary.csv")
    row = dict(zip(summary[0], summary[1]))
    assert row["status"] == "ok"
    assert (row["fit_attempts"], row["fits_accepted"],
            row["fits_rejected"]) == ("3", "0", "3")
    assert float(row["final_eta"]) == 1.0e308


def test_run_is_byte_identical(tmp_path):
    cfg1 = _write_config(tmp_path, _basic_experiments(), name="c1.yaml",
                         output_dir=str(tmp_path / "o1"))
    cfg2 = _write_config(tmp_path, _basic_experiments(), name="c2.yaml",
                         output_dir=str(tmp_path / "o2"))
    assert main(["run", "--config", cfg1]) == 0
    assert main(["run", "--config", cfg2]) == 0
    for fname in ("fixed.trajectory.csv", "adaptive.trajectory.csv"):
        a = (tmp_path / "o1" / fname).read_bytes()
        b = (tmp_path / "o2" / fname).read_bytes()
        assert a == b


def test_run_out_flag_overrides_config(tmp_path):
    cfg = _write_config(tmp_path, _basic_experiments())
    other = tmp_path / "elsewhere"
    assert main(["run", "--config", cfg, "--out", str(other)]) == 0
    assert (other / "summary.csv").exists()
    assert not (tmp_path / "out").exists()


def test_run_seed_override_changes_stochastic_runs(tmp_path):
    exp = [{
        "name": "minibatch",
        "problem": {"kind": "logreg", "seed": 3, "n": 128, "d": 3},
        "optimizer": {"kind": "sgd"},
        "iterations": 15,
        "eta": 0.05,
        "batch_size": 16,
    }]
    cfg = _write_config(tmp_path, exp, output_dir=str(tmp_path / "a"))
    assert main(["run", "--config", cfg]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--seed", "99"]) == 0
    a = (tmp_path / "a" / "minibatch.trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "minibatch.trajectory.csv").read_bytes()
    assert a != b


@pytest.mark.parametrize("command", ["run", "compare", "grid-search"])
def test_command_builds_a_shared_dataset_once(tmp_path, monkeypatch,
                                              command):
    built = []
    inner = harness.generate_dataset

    def counting(*args, **kwargs):
        built.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(harness, "generate_dataset", counting)
    common = {"problem": {"kind": "logreg", "seed": 3, "n": 128, "d": 3},
              "optimizer": {"kind": "sgd"}, "iterations": 5,
              "batch_size": 16}
    exp = [dict(common, name="fixed", eta=0.05),
           dict(common, name="adaptive", gen={"eta0": 0.05})]
    if command == "grid-search":  # two baselines, 18 runs each
        exp[1] = dict(common, name="fixed2")
    cfg = _write_config(tmp_path, exp)
    assert main([command, "--config", cfg]) == 0
    assert built == [(3, 128, 3)]


def test_run_parallel_jobs_match_serial(tmp_path, monkeypatch):
    # a one-CPU machine would run --jobs 2 serially; this compares the pool
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    cfg1 = _write_config(tmp_path, _basic_experiments(), name="s.yaml",
                         output_dir=str(tmp_path / "ser"))
    cfg2 = _write_config(tmp_path, _basic_experiments(), name="p.yaml",
                         output_dir=str(tmp_path / "par"))
    assert main(["run", "--config", cfg1]) == 0
    assert main(["run", "--config", cfg2, "--jobs", "2"]) == 0
    for fname in ("fixed.trajectory.csv", "adaptive.trajectory.csv"):
        assert (tmp_path / "ser" / fname).read_bytes() == \
            (tmp_path / "par" / fname).read_bytes()


# ---------------------------------------------------------------------------
# batch stream: a command draws each (seed, step, batch size) batch once


@pytest.fixture
def rng_seeds(monkeypatch):
    """The seed of every np.random.default_rng call. The logreg dataset
    memo starts empty, so the first call builds the dataset."""
    seeds = []
    default_rng = np.random.default_rng

    def counting(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    harness._logreg_dataset.cache_clear()
    return seeds


def _minibatch_arms(fixed_batch=16, iterations=10):
    common = {"problem": {"kind": "logreg", "seed": 3, "n": 128, "d": 3},
              "optimizer": {"kind": "sgd"}, "iterations": iterations,
              "batch_size": 16}
    return [dict(common, name="fixed", eta=0.05, batch_size=fixed_batch),
            dict(common, name="adaptive", gen={"eta0": 0.05, "phi": 1})]


def test_a_command_draws_each_batch_once(tmp_path, rng_seeds):
    arms = _minibatch_arms()
    cfg = _write_config(tmp_path, arms)
    assert main(["run", "--config", cfg]) == 0
    # the dataset, then one draw per step that both arms share
    assert rng_seeds[0] == 3 and len(rng_seeds) == 1 + 10
    assert len(set(rng_seeds[1:])) == 10
    # the stream is gone with the command: a lone run draws its own
    # batches again, and wrote what the command wrote
    rng_seeds.clear()
    harness._logreg_dataset.cache_clear()
    for arm in arms:
        lone = tmp_path / f"{arm['name']}.csv"
        cli.write_trajectory_csv(str(lone), harness.run_experiment(
            harness.spec_from_dict(arm)))
        assert lone.read_bytes() == (
            tmp_path / "out" / f"{arm['name']}.trajectory.csv").read_bytes()
    assert len(rng_seeds) == 1 + 10 + 10


def test_commands_and_batch_sizes_share_no_batch(tmp_path, rng_seeds):
    cfg = _write_config(tmp_path, _minibatch_arms(fixed_batch=32))
    assert main(["run", "--config", cfg]) == 0
    first = rng_seeds[1:]
    assert rng_seeds[0] == 3 and len(first) == 2 * 10
    # one command later, another seed: the dataset is kept, the batches
    # are drawn anew
    rng_seeds.clear()
    assert main(["run", "--config", cfg, "--seed", "5"]) == 0
    assert len(rng_seeds) == 2 * 10 and not set(rng_seeds) & set(first)


def test_minibatch_jobs_match_serial(tmp_path, monkeypatch):
    # each worker draws for the runs it makes; draws are pure, so the
    # CSVs keep their bits
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    cfg = _write_config(tmp_path, _minibatch_arms(iterations=30))
    for jobs in ("1", "2"):
        assert main(["run", "--config", cfg, "--jobs", jobs,
                     "--out", str(tmp_path / jobs)]) == 0
    for fname in ("fixed.trajectory.csv", "adaptive.trajectory.csv"):
        assert (tmp_path / "1" / fname).read_bytes() == \
            (tmp_path / "2" / fname).read_bytes()


def test_commands_build_no_step_record(tmp_path, monkeypatch):
    # runs keep packed columns, and the writers read them as they are
    def refuse(*fields):
        raise AssertionError("a StepRecord was built")

    monkeypatch.setattr(harness, "StepRecord", refuse)
    cfg = _write_config(tmp_path, _basic_experiments())
    assert main(["run", "--config", cfg]) == 0
    assert main(["compare", "--config", cfg]) == 0


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool with an inline one; record max_workers.

    Like a real pool, it sends the function, each argument, each result and
    each exception through pickle. The CLI imports the pool class from
    ``concurrent.futures`` only when it forks one, so it is patched there.
    """
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            fn = pickle.loads(pickle.dumps(fn))
            for item in items:
                try:
                    out = fn(pickle.loads(pickle.dumps(item)))
                except Exception as e:
                    raise pickle.loads(pickle.dumps(e)) from None
                yield pickle.loads(pickle.dumps(out))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


def test_compare_parent_builds_no_logreg_dataset(tmp_path, monkeypatch,
                                                 pool_sizes):
    import genopt.cli

    built = []
    inner = harness.generate_dataset

    def counting(*args, **kwargs):
        built.append(args)
        return inner(*args, **kwargs)

    run_specs = genopt.cli._run_specs

    def in_workers(fn, specs, jobs):
        results = run_specs(fn, specs, jobs)
        # what the workers built stays in the workers
        harness._logreg_dataset.cache_clear()
        built.clear()
        return results

    monkeypatch.setattr(harness, "generate_dataset", counting)
    monkeypatch.setattr(genopt.cli, "_run_specs", in_workers)
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    common = {"problem": {"kind": "logreg", "seed": 3, "n": 128, "d": 3},
              "optimizer": {"kind": "sgd"}, "iterations": 5}
    exp = [dict(common, name="base", eta=0.05),
           dict(common, name="gen", gen={"eta0": 0.05})]
    cfg = _write_config(tmp_path, exp)
    assert main(["compare", "--config", cfg, "--jobs", "2"]) == 0
    assert pool_sizes == [2]
    assert built == []


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_rejects_jobs_below_one(tmp_path, capsys, pool_sizes, jobs):
    cfg = _write_config(tmp_path, _basic_experiments())
    assert main(["run", "--config", cfg, "--jobs", jobs]) == 2
    assert _stderr_code(capsys) == "cli.jobs"
    assert pool_sizes == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs, cpus, expect", [
    (64, 8, [3]),  # capped by the three specs
    (64, 2, [2]),  # capped by the cpu count
    (2, 8, [2]),   # as asked
    (64, 1, []),   # one cpu: serial, no pool
])
def test_run_caps_workers(tmp_path, monkeypatch, pool_sizes, jobs, cpus,
                          expect):
    experiments = _basic_experiments()
    experiments.append(dict(experiments[0], name="fixed2"))
    cfg = _write_config(tmp_path, experiments)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    assert main(["run", "--config", cfg, "--jobs", str(jobs)]) == 0
    assert pool_sizes == expect
    # grid-search maps its experiments the same way
    del pool_sizes[:]
    experiments[1] = dict(experiments[0], name="fixed3")
    cfg = _write_config(tmp_path, experiments, name="grid.yaml")
    assert main(["grid-search", "--config", cfg, "--jobs", str(jobs)]) == 0
    assert pool_sizes == expect


def _run_raises_spec_error(spec):
    raise harness.SpecError("config.from-worker", f"raised running {spec.name}")


def test_run_worker_spec_error_keeps_its_code(tmp_path, monkeypatch, capsys,
                                              pool_sizes):
    # a SpecError raised in a worker reaches the parent pickled
    cfg = _write_config(tmp_path, _basic_experiments())
    monkeypatch.setattr(cli, "run_experiment", _run_raises_spec_error)
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert main(["run", "--config", cfg, "--jobs", "2"]) == 2
    assert _stderr_code(capsys) == "config.from-worker"
    assert pool_sizes == [2]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_experiment_without_a_rate_is_rejected_before_any_work(
        tmp_path, monkeypatch, capsys, pool_sizes, command):
    exps = _compare_experiments()
    del exps[2]["eta"]  # adamw_base: neither eta nor gen
    cfg = _write_config(tmp_path, exps)
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert main([command, "--config", cfg, "--jobs", "2"]) == 2
    assert _stderr_code(capsys) == "config.needs-eta-or-gen"
    assert not (tmp_path / "out").exists()
    assert pool_sizes == []


@pytest.mark.parametrize("batched", [False, True], ids=["full", "minibatch"])
@pytest.mark.parametrize("command", ["run", "compare", "grid-search"])
def test_negative_seed_is_rejected_before_any_work(
        tmp_path, monkeypatch, capsys, pool_sizes, command, batched):
    exps = _compare_experiments()
    if command == "grid-search":
        exps = [e for e in exps if "gen" not in e]
    if batched:
        for e in exps:
            e.update(problem={"kind": "logreg", "seed": 3, "n": 64, "d": 2},
                     batch_size=16)
    cfg = _write_config(tmp_path, exps)
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert main([command, "--config", cfg, "--jobs", "2",
                 "--seed", "-1"]) == 2
    assert _stderr_code(capsys) == "config.seed"
    assert not (tmp_path / "out").exists()
    assert pool_sizes == []


@pytest.mark.parametrize("command", ["run", "grid-search"])
def test_unaddressable_dataset_is_rejected_at_load(tmp_path, capsys, command):
    exp = [{"name": "huge", "problem": {"kind": "logreg", "seed": 3,
                                        "n": 10 ** 40, "d": 2},
            "optimizer": {"kind": "sgd"}, "iterations": 5, "eta": 0.05}]
    cfg = _write_config(tmp_path, exp)
    assert main([command, "--config", cfg]) == 2
    assert _stderr_code(capsys) == "config.problem.size"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "grid-search"])
def test_batch_size_above_the_dataset_size_is_rejected_at_load(
        tmp_path, capsys, command):
    exp = [{"name": "big", "problem": {"kind": "logreg", "seed": 3, "n": 64,
                                       "d": 3},
            "optimizer": {"kind": "sgd"}, "iterations": 5, "eta": 0.05,
            "batch_size": 100}]
    cfg = _write_config(tmp_path, exp)
    assert main([command, "--config", cfg]) == 2
    assert _stderr_code(capsys) == "config.batch-size.too-large"
    assert not (tmp_path / "out").exists()


def test_run_diverged_is_still_exit_zero(tmp_path):
    exp = [{
        "name": "blowup",
        "problem": dict(QUAD),
        "optimizer": {"kind": "sgd"},
        "iterations": 400,
        "eta": 5.0,
        "start_point": [1.0, 1.0],
    }]
    cfg = _write_config(tmp_path, exp)
    assert main(["run", "--config", cfg]) == 0
    rows = _read_csv(tmp_path / "out" / "blowup.trajectory.csv")
    assert rows[-1][7] == "diverged"
    assert all(row[7] == "ok" for row in rows[1:-1])


# ---------------------------------------------------------------------------
# config error paths


@pytest.mark.parametrize(
    "breakage, code",
    [
        ({"format_version": 2}, "config.format-version"),
        ({"output_dir": ""}, "config.output-dir"),
        ({"experiments": []}, "config.no-experiments"),
        ({"surprise": 1}, "config.unknown-key"),
    ],
)
def test_run_config_root_errors(tmp_path, capsys, breakage, code):
    over = dict(breakage)
    exps = over.pop("experiments", _basic_experiments())
    cfg = _write_config(tmp_path, exps, **over)
    assert main(["run", "--config", cfg]) == 2
    assert _stderr_code(capsys) == code


def test_missing_key_error_is_the_same_under_every_hash_seed(tmp_path):
    # an experiment that lacks several required keys names the first in
    # declared order, whatever order a set of strings would iterate in
    cfg = tmp_path / "config.yaml"
    cfg.write_text("format_version: 1\noutput_dir: out\nexperiments:\n"
                   "  - {name: only, eta: 0.1}\n", encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    errs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "genopt.cli", "run", "--config", str(cfg)],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 2
        errs.append(proc.stderr)
    assert errs == ["error[config.missing-key]: missing required key "
                    "'problem' at experiments[0]\n"] * 2


def test_run_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert _stderr_code(capsys) == "config.unreadable"


def test_run_unparseable_yaml(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("experiments: [unclosed", encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert _stderr_code(capsys) == "config.parse"


def test_run_non_utf8_config(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    data = b"format_version: 1\noutput_dir: r\xe9sultats\n"
    path.write_bytes(data)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error[config.unreadable]: ")
    assert str(path) in err
    at = data.index(b"\xe9")
    assert f"byte 0xe9 at position {at} " in err


def _same(a, b):
    """Equal values of equal types, nan equal to nan."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def test_config_loader_is_libyaml_when_available():
    assert cli._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@pytest.mark.parametrize("text", [
    *(pytest.param(p.read_text(encoding="utf-8"), id=p.name)
      for p in CONFIGS),
    "x: 1e-5", "x: 1.0e-5", "x: .inf", "x: .nan", "x: yes", "x: ~",
    "x: 0x1F", "x: 1_000", "x: '3'",
    pytest.param("a: &rate {eta: 0.5}\nb: *rate\n", id="anchor-alias"),
    pytest.param("x: 1\nx: 2\n", id="duplicate-key"),
])
def test_config_loader_builds_what_safe_load_builds(text):
    got = yaml.load(text, Loader=cli._YAML_LOADER)
    assert _same(got, yaml.safe_load(text)), (got, yaml.safe_load(text))


def test_run_non_mapping_root(tmp_path, capsys):
    path = tmp_path / "list.yaml"
    path.write_text("- a\n- b\n", encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert _stderr_code(capsys) == "config.not-a-mapping"


def test_run_misspelled_experiment_key(tmp_path, capsys):
    exps = _basic_experiments()
    del exps[0]["eta"]
    exps[0]["lerning_rate"] = 0.05
    cfg = _write_config(tmp_path, exps)
    assert main(["run", "--config", cfg]) == 2
    assert _stderr_code(capsys) == "config.unknown-key"


def test_run_duplicate_names(tmp_path, capsys):
    exps = _basic_experiments()
    exps[1]["name"] = exps[0]["name"]
    cfg = _write_config(tmp_path, exps)
    assert main(["run", "--config", cfg]) == 2
    assert _stderr_code(capsys) == "config.duplicate-name"


def test_run_float_probe_points_is_a_config_error(tmp_path, capsys):
    exps = _basic_experiments()
    exps[1]["gen"]["probe_points"] = 3.0
    cfg = _write_config(tmp_path, exps)
    assert main(["run", "--config", cfg]) == 2
    assert _stderr_code(capsys) == "config.gen.probe-points"


def test_error_line_is_single_line(tmp_path, capsys):
    # multi-line yaml parser message must be squashed onto one line
    path = tmp_path / "broken.yaml"
    path.write_text("a: [1,\nb: 2\n", encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")


# ---------------------------------------------------------------------------
# grid-search


def test_grid_search_writes_table(tmp_path, capsys):
    exp = [{
        "name": "tune",
        "problem": {"kind": "quadratic",
                    "matrix_a": [[1.0, 0.0], [0.0, 1.0]]},
        "optimizer": {"kind": "sgd"},
        "iterations": 10,
        "start_point": [1.0, 0.0],
    }]
    cfg = _write_config(tmp_path, exp)
    assert main(["grid-search", "--config", cfg]) == 0
    rows = _read_csv(tmp_path / "out" / "tune.grid.csv")
    assert rows[0] == ["eta", "final_loss", "status", "winner"]
    assert len(rows) == 19  # header + 18 grid points
    winners = [row for row in rows[1:] if row[3] == "true"]
    assert len(winners) == 1
    assert float(winners[0][0]) == 1.0
    assert "<- winner" in capsys.readouterr().out


def test_grid_search_rejects_gen_experiments(tmp_path, capsys):
    cfg = _write_config(tmp_path, _basic_experiments())
    assert main(["grid-search", "--config", cfg]) == 2
    assert _stderr_code(capsys) == "config.grid.gen-not-allowed"


@pytest.mark.parametrize("breakage, code", [
    ({"start_point": [1.0, 0.0, 0.0]}, "config.start-point"),
    ({"optimizer": {"kind": "sgd",
                    "post_process": {"kind": "mask", "mask": [1]}}},
     "config.post.mask"),
])
def test_grid_search_rejects_a_wrong_dimension(tmp_path, capsys, breakage,
                                               code):
    exp = dict({"name": "tune", "problem": dict(QUAD),
                "optimizer": {"kind": "sgd"}, "iterations": 10}, **breakage)
    cfg = _write_config(tmp_path, [exp])
    assert main(["grid-search", "--config", cfg]) == 2
    assert _stderr_code(capsys) == code
    assert not (tmp_path / "out").exists()


def test_grid_search_rejects_newton_before_any_output(tmp_path, capsys):
    # the sgd experiment comes first, so a check inside the loop would
    # write its grid before it reached the newton one
    exps = [{"name": name, "problem": dict(QUAD), "optimizer": {"kind": kind},
             "iterations": 10} for name, kind in (("tune", "sgd"),
                                                  ("newton", "newton"))]
    cfg = _write_config(tmp_path, exps)
    assert main(["grid-search", "--config", cfg]) == 2
    assert _stderr_code(capsys) == "config.grid.optimizer"
    assert not (tmp_path / "out").exists()


def test_grid_search_vets_every_experiment_before_running_any(tmp_path,
                                                             capsys):
    # the baseline comes first, so a check inside the loop would run and
    # write its grid before it reached the gen experiment
    exps = _basic_experiments()
    del exps[0]["eta"]
    cfg = _write_config(tmp_path, exps)
    assert main(["grid-search", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error[config.grid.gen-not-allowed]: ")
    assert captured.out == ""
    assert list(tmp_path.rglob("*.csv")) == []
    assert not (tmp_path / "out").exists()


def test_grid_search_parallel_jobs_match_serial(tmp_path, monkeypatch,
                                                capsys):
    # a one-CPU machine would run --jobs 2 serially; this compares the pool
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    exps = [{"name": name, "problem": dict(QUAD), "optimizer": {"kind": kind},
             "iterations": 10, "start_point": [1.0, 1.0]}
            for name, kind in (("tune-sgd", "sgd"), ("tune-adamw", "adamw"))]
    printed = []
    for jobs in ("1", "2"):
        cfg = _write_config(tmp_path, exps, name=f"j{jobs}.yaml",
                            output_dir=str(tmp_path / jobs))
        assert main(["grid-search", "--config", cfg, "--jobs", jobs]) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]
    assert printed[0].err == ""
    for name in ("tune-sgd.grid.csv", "tune-adamw.grid.csv"):
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes()


def test_grid_search_all_diverged_is_runtime_error(tmp_path, capsys):
    exp = [{
        "name": "stiff",
        "problem": {"kind": "quadratic", "matrix_a": [[1.0e15]]},
        "optimizer": {"kind": "sgd"},
        "iterations": 50,
        "start_point": [1.0],
    }]
    cfg = _write_config(tmp_path, exp)
    assert main(["grid-search", "--config", cfg]) == 3
    assert _stderr_code(capsys) == "runtime.grid-all-diverged"


# ---------------------------------------------------------------------------
# compare


def _compare_experiments(iterations=8):
    base = {
        "problem": dict(QUAD),
        "iterations": iterations,
        "start_point": [1.0, 1.0],
    }
    return [
        dict(base, name="sgd_base", optimizer={"kind": "sgd"}, eta=0.1),
        dict(base, name="sgd_gen", optimizer={"kind": "sgd"},
             gen={"eta0": 0.1, "gamma": 0.0, "phi": 1}),
        dict(base, name="adamw_base", optimizer={"kind": "adamw"}, eta=0.5),
        dict(base, name="adamw_gen", optimizer={"kind": "adamw"},
             gen={"eta0": 0.5, "gamma": 0.0, "phi": 1}),
    ]


def test_compare_writes_aligned_table(tmp_path):
    cfg = _write_config(tmp_path, _compare_experiments())
    assert main(["compare", "--config", cfg]) == 0
    rows = _read_csv(tmp_path / "out" / "compare.csv")
    assert rows[0] == ["iter", "sgd_base", "sgd_gen", "adamw_base",
                       "adamw_gen"]
    assert len(rows) == 9  # header + one row per iteration
    assert [row[0] for row in rows[1:]] == [str(t) for t in range(1, 9)]
    assert all(all(cell != "" for cell in row) for row in rows[1:])

    summary = _read_csv(tmp_path / "out" / "compare_summary.csv")
    assert summary[0] == ["name", "optimizer", "variant", "status",
                          "final_loss", "iters_to_tol"]
    variants = {(row[0], row[2]) for row in summary[1:]}
    assert ("sgd_gen", "gen") in variants
    assert ("sgd_base", "base") in variants


def test_compare_requires_pairs(tmp_path, capsys):
    exps = _compare_experiments()[:3]  # drop the adamw gen arm
    cfg = _write_config(tmp_path, exps)
    assert main(["compare", "--config", cfg]) == 2
    assert _stderr_code(capsys) == "config.compare.unpaired"


def test_compare_requires_log_every_one(tmp_path, capsys):
    exps = _compare_experiments()
    exps[0]["log_every"] = 2
    cfg = _write_config(tmp_path, exps)
    assert main(["compare", "--config", cfg]) == 2
    assert _stderr_code(capsys) == "config.compare.log-every"


def test_compare_requires_equal_iterations(tmp_path, capsys):
    exps = _compare_experiments()
    exps[3]["iterations"] = 5
    cfg = _write_config(tmp_path, exps)
    assert main(["compare", "--config", cfg]) == 2
    assert _stderr_code(capsys) == "config.compare.iterations"


def test_compare_diverged_column_goes_blank_after_halt(tmp_path):
    exps = [
        dict(name="sgd_base", problem=dict(QUAD),
             optimizer={"kind": "sgd"}, iterations=300, eta=5.0,
             start_point=[1.0, 1.0]),
        dict(name="sgd_gen", problem=dict(QUAD), optimizer={"kind": "sgd"},
             iterations=300, gen={"eta0": 0.05, "gamma": 0.0, "phi": 1},
             start_point=[1.0, 1.0]),
    ]
    cfg = _write_config(tmp_path, exps)
    assert main(["compare", "--config", cfg]) == 0
    rows = _read_csv(tmp_path / "out" / "compare.csv")
    assert rows[-1][1] == ""  # baseline halted early, its cells empty out
    assert rows[-1][2] != ""
    summary = _read_csv(tmp_path / "out" / "compare_summary.csv")
    by_name = {row[0]: row for row in summary[1:]}
    assert by_name["sgd_base"][3] == "diverged"
    assert by_name["sgd_base"][5] == ""  # no iters-to-tol for a blowup


# ---------------------------------------------------------------------------
# argument parsing


def test_unknown_subcommand_exits_via_argparse(capsys):
    assert main(["polish"]) == 2
    assert _stderr_code(capsys) == "cli.usage"
    assert main([]) == 2
    assert _stderr_code(capsys) == "cli.usage"


def test_config_flag_is_required(capsys):
    assert main(["run"]) == 2
    assert _stderr_code(capsys) == "cli.usage"


@pytest.mark.parametrize("flag, value", [("--jobs", "abc"), ("--seed", "1.5")])
def test_bad_flag_value_is_one_usage_line(tmp_path, capsys, pool_sizes,
                                          flag, value):
    cfg = _write_config(tmp_path, _basic_experiments())
    assert main(["run", "--config", cfg, flag, value]) == 2
    assert _stderr_code(capsys) == "cli.usage"
    assert not (tmp_path / "out").exists()
    assert pool_sizes == []


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "-h"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_out_of_memory_is_its_own_runtime_error(tmp_path, monkeypatch,
                                                capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.42 PiB")

    harness._logreg_dataset.cache_clear()
    monkeypatch.setattr(harness, "generate_dataset", no_memory)
    exp = [{"name": "big", "problem": {"kind": "logreg", "seed": 3,
                                       "n": 10 ** 14, "d": 2},
            "optimizer": {"kind": "sgd"}, "iterations": 5, "eta": 0.05}]
    assert main(["run", "--config", _write_config(tmp_path, exp)]) == 3
    assert _stderr_code(capsys) == "runtime.out-of-memory"
