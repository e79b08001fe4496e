"""Time the logistic loss kernel and count the page faults it takes.

Builds `generate_dataset(11, 16384, 3)`, the c10 problem, and calls
`kernels.logreg_loss` on its full batch at a fixed random `w`, in two
fresh processes:

- `bare`: nothing is allocated after the dataset;
- `vectors`: four 16384-float64 vectors (128 KiB each, the size of the
  kernel's own work vectors) are allocated after the dataset and kept.

For each it prints the wall time per call and, from `getrusage`, the
minor page faults (`ru_minflt`) and the system time (`ru_stime`) per
call. A heap whose top is free memory may be trimmed back to the
operating system after every call, so each call faults its work vectors
in again; whether that happens depends on what the process allocated
before, which is what the two modes vary. The BLAS thread count is the
environment's (set `OPENBLAS_NUM_THREADS` to change it).

    python tools/fault_probe.py [--calls N]
"""

import argparse
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from genopt import kernels  # noqa: E402
from genopt.problems import generate_dataset  # noqa: E402

MODES = ("bare", "vectors")
WARMUP = 20


def measure(mode: str, calls: int) -> str:
    """One mode's line: µs, minor faults and system µs per call."""
    problem = generate_dataset(11, 16384, 3)
    # kept alive until the function returns
    vectors = ([np.ones(problem.n_samples) for _ in range(4)]
               if mode == "vectors" else [])
    # the float labels the problem's own full-batch calls pass
    x, y = problem.features, problem._y64
    w = np.random.default_rng(0).standard_normal(problem.dim)
    for _ in range(WARMUP):
        kernels.logreg_loss(x, y, w, 0.0)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for _ in range(calls):
        kernels.logreg_loss(x, y, w, 0.0)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    del vectors
    return (f"{mode:8s} {wall / calls * 1e6:8.1f} us/call  "
            f"{(after.ru_minflt - before.ru_minflt) / calls:6.1f} "
            f"minflt/call  "
            f"{(after.ru_stime - before.ru_stime) / calls * 1e6:7.1f} "
            f"stime us/call")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--calls", type=int, default=500)
    parser.add_argument("--mode", choices=MODES, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.mode:
        print(measure(args.mode, args.calls))
        return
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    print(f"logreg_loss on 16384x3, {args.calls} calls per mode, "
          f"OPENBLAS_NUM_THREADS={threads}, "
          f"{len(os.sched_getaffinity(0))} CPUs")
    for mode in MODES:
        # a fresh process per mode, so neither inherits the other's heap
        subprocess.run([sys.executable, __file__, "--mode", mode,
                        "--calls", str(args.calls)], check=True)


if __name__ == "__main__":
    main()
