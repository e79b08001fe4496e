"""Command-line behavior: config loading, CSV shapes, exit codes, and
the single-line stderr error contract."""

import csv
import pickle

import pytest
import yaml

from genopt import harness
from genopt.cli import FORMAT_VERSION, fmt, main

QUAD = {"kind": "quadratic", "matrix_a": [[2.0, 0.0], [0.0, 8.0]]}


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


@pytest.mark.parametrize("command", ["run", "compare"])
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
    cfg = _write_config(tmp_path, exp)
    assert main([command, "--config", cfg]) == 0
    assert built == [(3, 128, 3)]


def test_run_parallel_jobs_match_serial(tmp_path):
    cfg1 = _write_config(tmp_path, _basic_experiments(), name="s.yaml",
                         output_dir=str(tmp_path / "ser"))
    cfg2 = _write_config(tmp_path, _basic_experiments(), name="p.yaml",
                         output_dir=str(tmp_path / "par"))
    assert main(["run", "--config", cfg1]) == 0
    assert main(["run", "--config", cfg2, "--jobs", "2"]) == 0
    for fname in ("fixed.trajectory.csv", "adaptive.trajectory.csv"):
        assert (tmp_path / "ser" / fname).read_bytes() == \
            (tmp_path / "par" / fname).read_bytes()


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool with an inline one; record max_workers.

    Like a real pool, it sends the function, each argument, each result and
    each exception through pickle.
    """
    import genopt.cli

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

    monkeypatch.setattr(genopt.cli, "ProcessPoolExecutor", InlinePool)
    return sizes


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


def test_run_worker_spec_error_keeps_its_code(tmp_path, monkeypatch, capsys,
                                              pool_sizes):
    # the seed override is validated inside run_experiment, in the worker
    cfg = _write_config(tmp_path, _basic_experiments())
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert main(["run", "--config", cfg, "--jobs", "2", "--seed", "-1"]) == 2
    assert _stderr_code(capsys) == "config.seed"
    assert pool_sizes == [2]


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


def test_run_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert _stderr_code(capsys) == "config.unreadable"


def test_run_unparseable_yaml(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("experiments: [unclosed", encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert _stderr_code(capsys) == "config.parse"


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


def test_grid_search_rejects_jobs_above_one(tmp_path, capsys):
    # the 18 rates run serially; a worker count would be silently ignored
    exp = [{
        "name": "tune",
        "problem": {"kind": "quadratic",
                    "matrix_a": [[1.0, 0.0], [0.0, 1.0]]},
        "optimizer": {"kind": "sgd"},
        "iterations": 10,
        "start_point": [1.0, 0.0],
    }]
    cfg = _write_config(tmp_path, exp)
    assert main(["grid-search", "--config", cfg, "--jobs", "2"]) == 2
    assert _stderr_code(capsys) == "cli.jobs"
    assert not (tmp_path / "out").exists()
    assert main(["grid-search", "--config", cfg, "--jobs", "1"]) == 0


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


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["polish"])
    with pytest.raises(SystemExit):
        main([])


def test_config_flag_is_required():
    with pytest.raises(SystemExit):
        main(["run"])
