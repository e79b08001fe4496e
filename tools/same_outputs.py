"""Run `genopt run`, `compare` and `grid-search` on every configs/*.yaml
with two source trees, each into a temporary directory, and compare every
CSV byte for byte (summary.csv without wall_time_s), the exit codes,
stdout and stderr (each tree's temporary directory replaced by a fixed
token) and whether the command left its output directory. Exits 1 on any
difference. Also prints each tree's line count of genopt/*.py, as
`wc -l` counts it.

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
# what each command is compared on besides its CSVs
FACTS = ("exit code", "stdout", "stderr", "output directory left")


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
            facts = (proc.returncode,
                     proc.stdout.replace(os.fsencode(tmp), b"<tmp>"),
                     proc.stderr.replace(os.fsencode(tmp), b"<tmp>"),
                     out.is_dir())
            got[cmd, cfg.name] = (facts, {f.name: comparable(f)
                                          for f in sorted(out.glob("*.csv"))})
    return got


def line_count(src):
    return sum(p.read_bytes().count(b"\n")
               for p in Path(src, "genopt").glob("*.py"))


def main(old_src, new_src):
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        old, new = outputs(old_src, a), outputs(new_src, b)
    diffs, n_csv = [], 0
    for key, (facts, csvs) in old.items():
        facts2, csvs2 = new[key]
        for what, x, y in zip(FACTS, facts, facts2):
            if x != y:
                shown = "" if isinstance(x, bytes) else f" {x} != {y}"
                diffs.append(f"{key}: {what} differs{shown}")
        for name in sorted(set(csvs) | set(csvs2)):
            n_csv += 1
            if csvs.get(name) != csvs2.get(name):
                diffs.append(f"{key}: {name} differs")
    for line in diffs:
        print(line)
    codes = sorted(facts[0] for facts, _ in old.values())
    print(f"genopt/*.py lines: {line_count(old_src)} -> "
          f"{line_count(new_src)}")
    print(f"{n_csv} CSVs, exit codes {codes}: {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
