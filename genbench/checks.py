"""Output checks. Each returns a list of problems; an empty list passes.

The checks take plain values (numbers, lists, parsed CSV rows) so that
``selftest.py`` can feed them deliberately wrong outputs.
"""

from __future__ import annotations

import csv
import math

from oracles import LR_GRID

# an accepted fit moves eta by at most this factor (one decade); the slack
# covers the rounding of eta * 10 followed by smoothing
CLAMP_FACTOR = 10.0
_CLAMP_SLACK = 1e-12

# losses of the surfaces start near 1e1..1e2; below this they count as equal
LOSS_FLOOR = 1e-15


def read_csv(path):
    """Rows of a CSV file as dicts keyed by the header."""
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def check_final_loss(name, final_loss, optimum_loss, rel_tol):
    """A full-data loss must sit within rel_tol above the optimum, and not
    below it by more than rounding."""
    if not math.isfinite(final_loss):
        return [f"{name}: final loss {final_loss} is not finite"]
    gap = (final_loss - optimum_loss) / optimum_loss
    if gap > rel_tol:
        return [f"{name}: final loss {final_loss!r} is {gap:.3e} above the "
                f"optimum {optimum_loss!r} (tolerance {rel_tol:g})"]
    if gap < -1e-9:
        return [f"{name}: final loss {final_loss!r} is below the Newton "
                f"optimum {optimum_loss!r}"]
    return []


def check_eta_path(name, etas, accepted, eta_start=None, clamped=True):
    """Fit-route invariants over one trajectory.

    eta stays positive and finite; a step without an accepted fit leaves eta
    bit-identical; an accepted fit moves it by at most one decade (skipped
    when ``clamped`` is false, for routes without a clamp).
    """
    problems = []
    prev = eta_start
    for i, (eta, ok) in enumerate(zip(etas, accepted)):
        if not (math.isfinite(eta) and eta > 0.0):
            problems.append(f"{name}: record {i} has eta {eta!r}")
            break
        if prev is not None:
            if not ok and eta != prev:
                problems.append(f"{name}: record {i} moved eta {prev!r} -> "
                                f"{eta!r} without an accepted fit")
                break
            ratio = eta / prev
            if (ok and clamped and not
                    (1.0 / CLAMP_FACTOR * (1 - _CLAMP_SLACK) <= ratio
                     <= CLAMP_FACTOR * (1 + _CLAMP_SLACK))):
                problems.append(f"{name}: record {i} moved eta by a factor "
                                f"{ratio:.6g}, more than one decade")
                break
        prev = eta
    return problems


def check_constant_eta(name, etas, eta):
    bad = [i for i, e in enumerate(etas) if e != eta]
    if bad:
        return [f"{name}: fixed-rate eta changed at record {bad[0]}"]
    return []


def check_grid(name, rows):
    """A grid table: 18 rows at the documented rates in order, exactly one
    winner, and the winner has the lowest final loss among rows with status
    ok (earliest row on ties)."""
    problems = []
    etas = [float(r["eta"]) for r in rows]
    if etas != list(LR_GRID):
        return [f"{name}: grid rates {etas} are not the 18 documented rates "
                f"in ascending order"]
    winners = [i for i, r in enumerate(rows) if r["winner"] == "true"]
    if len(winners) != 1:
        return [f"{name}: {len(winners)} winner rows, expected exactly one"]
    ok = [(float(r["final_loss"]), i) for i, r in enumerate(rows)
          if r["status"] == "ok"]
    if not ok:
        return [f"{name}: no grid row finished with status ok"]
    best = min(ok)[1]
    if winners[0] != best:
        problems.append(f"{name}: winner is row {winners[0]} "
                        f"(eta {etas[winners[0]]:g}) but the lowest ok final "
                        f"loss is row {best} (eta {etas[best]:g})")
    return problems


def check_grid_row(name, row, oracle_losses, oracle_status, rtol):
    """One grid row against the reference loop at the same rate."""
    if row["status"] != oracle_status:
        return [f"{name}: eta {row['eta']} has status {row['status']} but "
                f"the reference loop says {oracle_status}"]
    if oracle_status == "ok":
        got = float(row["final_loss"])
        want = oracle_losses[-1]
        if not close(got, want, rtol):
            return [f"{name}: eta {row['eta']} final loss {got!r} differs "
                    f"from the reference {want!r}"]
    return []


def check_loss_path(name, losses, oracle_losses, rtol):
    """A fixed-rate run's per-step losses against the reference loop."""
    if len(losses) != len(oracle_losses):
        return [f"{name}: {len(losses)} logged steps, the reference loop "
                f"ran {len(oracle_losses)}"]
    for t, (got, want) in enumerate(zip(losses, oracle_losses), start=1):
        if not close(got, want, rtol):
            return [f"{name}: step {t} loss {got!r} differs from the "
                    f"reference {want!r}"]
    return []


def check_menu_vs_grid(pairing, adaptive_ok_losses, tuned_loss):
    """c05: the best adaptive menu result is no worse than the tuned grid."""
    if not adaptive_ok_losses:
        return [f"{pairing}: no adaptive menu run finished with status ok"]
    best = min(adaptive_ok_losses)
    if best > tuned_loss:
        return [f"{pairing}: best adaptive final loss {best!r} is worse than "
                f"the tuned grid result {tuned_loss!r}"]
    return []


def first_within(values, target, tol, budget):
    """1-based index of the first value <= target + tol, else the budget."""
    for t, v in enumerate(values, start=1):
        if v <= target + tol:
            return t
    return budget


def close(a, b, rtol):
    # the absolute floor covers losses that have converged to ~0, where a
    # last-bit difference in the iterate is a large relative change
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b)) + LOSS_FLOOR
