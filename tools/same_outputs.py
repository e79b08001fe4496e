"""Run `genopt run`, `compare` and `grid-search` on every configs/*.yaml
with two source trees, each into a temporary directory, and compare every
CSV byte for byte (summary.csv without wall_time_s), the exit codes and
stderr. Exits 1 on any difference.

    python tools/same_outputs.py OLD/src NEW/src
"""

import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
COMMANDS = ("run", "compare", "grid-search")


def comparable(path):
    data = path.read_bytes()
    if path.name != "summary.csv":
        return data
    rows = list(csv.reader(data.decode("utf-8").splitlines()))
    col = rows[0].index("wall_time_s")
    return [row[:col] + row[col + 1:] for row in rows]


def outputs(src, tmp):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    got = {}
    for cmd in COMMANDS:
        for cfg in CONFIGS:
            out = Path(tmp, cmd, cfg.stem)
            proc = subprocess.run(
                [sys.executable, "-m", "genopt.cli", cmd, "--config", str(cfg),
                 "--out", str(out)], capture_output=True, env=env, cwd=tmp)
            got[cmd, cfg.name] = (proc.returncode, proc.stderr,
                                  {f.name: comparable(f)
                                   for f in sorted(out.glob("*.csv"))})
    return got


def main(old_src, new_src):
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        old, new = outputs(old_src, a), outputs(new_src, b)
    diffs, n_csv = [], 0
    for key, (code, err, csvs) in old.items():
        code2, err2, csvs2 = new[key]
        if code != code2:
            diffs.append(f"{key}: exit code {code} != {code2}")
        if err != err2:
            diffs.append(f"{key}: stderr differs")
        for name in sorted(set(csvs) | set(csvs2)):
            n_csv += 1
            if csvs.get(name) != csvs2.get(name):
                diffs.append(f"{key}: {name} differs")
    for line in diffs:
        print(line)
    codes = sorted(code for code, _, _ in old.values())
    print(f"{n_csv} CSVs, exit codes {codes}: {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
