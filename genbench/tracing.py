"""Span tracing of genopt, installed from the benchmark's side.

Every target is wrapped under the name its caller looks up at call time:
``harness`` imports ``gen_update`` by name, so the wrapper replaces
``genopt.harness.gen_update``; ``problems`` calls ``kernels.logreg_loss``
through the module, so the wrapper replaces ``genopt.kernels.logreg_loss``;
methods are replaced on the class that defines them. A target that cannot
be found is listed in ``Tracer.unreached`` instead of being skipped.

Each span closes into running totals per span name: calls, inclusive time,
self time (duration minus the time its child spans cover) and layer time
(duration minus the time child spans of other layers cover, so a gen span
that calls gen helpers keeps their time). The first ``span_cap`` spans of
the run are also kept in memory as (name, start_ns, end_ns, parent index)
records, which the caller writes out when the run ends; keeping every span
would take millions of records per surfaces round.
"""

from __future__ import annotations

import os
import time

_ROOT = "<root>"


class Tracer:
    def __init__(self, span_cap: int = 20000):
        self.span_cap = span_cap
        self.stats = {}     # span name -> [calls, incl_ns, self_ns, layer_ns]
        self.layer_of = {}  # span name -> layer
        self.pairs = {}     # (parent span name, span name) -> calls
        self.counts = {}    # counters recorded by hooks
        self.spans = []     # sampled span records of the current round
        self.unreached = []
        self._targets = []  # (owner, attr, wrapper, original)
        # frame: [name, layer, child_ns, foreign_ns, span index]
        self._stack = [[_ROOT, None, 0, 0, -1]]

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def target(self, owner, attr, name, layer, before=None, after=None):
        """Register ``owner.attr`` for wrapping as span ``name`` of ``layer``.

        ``before(args, kwargs)`` returns a token; ``after(token, args, kwargs,
        result, dur_ns)`` runs after a call that returned normally.
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(
            owner, attr, None)
        if fn is None or not callable(fn):
            self.unreached.append(label)
            return
        self.layer_of[name] = layer
        self._targets.append((owner, attr, self._wrap(fn, name, layer,
                                                      before, after), fn))

    def install(self):
        for owner, attr, wrapper, _ in self._targets:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, _, fn in self._targets:
            setattr(owner, attr, fn)

    def _wrap(self, fn, name, layer, before, after):
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        stack = self._stack
        pairs = self.pairs
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            key = (parent[0], name)
            pairs[key] = pairs.get(key, 0) + 1
            idx = len(spans) if len(spans) < tracer.span_cap else -1
            if idx >= 0:
                spans.append(None)
            token = before(args, kwargs) if before is not None else None
            frame = [name, layer, 0, 0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[2]
                stats[3] += dur - frame[3]
                parent[2] += dur
                parent[3] += dur if parent[1] != layer else frame[3]
                if idx >= 0:
                    spans[idx] = (name, t0, t1, parent[4])
            if after is not None:
                after(token, args, kwargs, result, dur)
            return result

        return wrapper

    # -- aggregates ---------------------------------------------------------

    def calls(self, *names):
        return sum(self.stats.get(n, (0,))[0] for n in names)

    def incl_ns(self, *names):
        return sum(self.stats.get(n, (0, 0))[1] for n in names)

    def layer_self_ns(self, layer):
        return sum(s[2] for n, s in self.stats.items()
                   if self.layer_of.get(n) == layer)

    def names(self, layer, suffix=""):
        return [n for n in self.stats
                if self.layer_of.get(n) == layer and n.endswith(suffix)]


# ---------------------------------------------------------------------------
# genopt targets

_SURFACE_KERNELS = ("rosenbrock_loss", "rosenbrock_grad", "rosenbrock_hess",
                    "beale_loss", "beale_grad", "beale_hess")
_CSV_WRITERS = ("write_trajectory_csv", "write_summary_csv", "write_grid_csv",
                "write_compare_csv", "write_compare_summary_csv")


def genopt_tracer(span_cap: int = 20000) -> Tracer:
    """A tracer over every layer of genopt, not yet installed."""
    import genopt.cli as cli
    from genopt import core, gen, harness, kernels, optim, problems

    tr = Tracer(span_cap)

    # kernels: problems calls them as kernels.<name>
    def logreg_bytes(grad):
        def after(_, args, kwargs, result, dur):
            x, y, w = args[0], args[1], args[2]
            tr.count("kernel_bytes", x.nbytes + y.nbytes + w.nbytes
                     + (w.nbytes if grad else 0) + 8)
        return after

    tr.target(kernels, "logreg_loss", "kernels.logreg_loss", "kernels",
              after=logreg_bytes(False))
    tr.target(kernels, "logreg_loss_grad", "kernels.logreg_loss_grad",
              "kernels", after=logreg_bytes(True))

    def surface_bytes(_, args, kwargs, result, dur):
        out = len(result) if isinstance(result, tuple) else 1
        tr.count("kernel_bytes", 16 + 8 * out)

    for attr in _SURFACE_KERNELS:
        tr.target(kernels, attr, f"kernels.surface.{attr}", "kernels",
                  after=surface_bytes)

    # problems: methods on the defining classes, generate_dataset as
    # harness.build_problem looks it up
    for cls in (problems.LogisticRegressionProblem,
                problems.RosenbrockProblem, problems.BealeProblem):
        for attr in ("loss", "grad", "hessian"):
            tr.target(cls, attr, f"problems.{cls.__name__}.{attr}", "problems")
    tr.target(problems.LogisticRegressionProblem, "loss_grad",
              "problems.LogisticRegressionProblem.loss_grad", "problems")
    tr.target(core.Objective, "hvp", "problems.Objective.hvp", "problems")

    def resolve_after(_, args, kwargs, result, dur):
        batch = args[1] if len(args) > 1 else kwargs.get("batch")
        if not isinstance(batch, core.FullData):
            tr.count("batch_resolves")
            tr.count("batch_resolve_ns", dur)

    tr.target(problems.LogisticRegressionProblem, "_resolve",
              "problems.LogisticRegressionProblem._resolve", "problems",
              after=resolve_after)
    tr.target(harness, "generate_dataset", "problems.generate_dataset",
              "problems")

    # gen: as harness and gen look the functions up
    def ctrl_before(args, kwargs):
        ctrl = args[0]
        return ctrl.fit_attempts, ctrl.fits_accepted

    def ctrl_after(token, args, kwargs, result, dur):
        ctrl = args[0]
        tr.count("fit_attempts", ctrl.fit_attempts - token[0])
        tr.count("fits_accepted", ctrl.fits_accepted - token[1])

    tr.target(harness, "gen_update", "gen.gen_update", "gen",
              before=ctrl_before, after=ctrl_after)
    tr.target(harness, "auto_search_eta0", "gen.auto_search_eta0", "gen")
    tr.target(harness, "exact_eta_hvp", "gen.exact_eta_hvp", "gen")
    tr.target(harness, "smooth", "gen.smooth", "gen")
    tr.target(gen, "smooth", "gen.smooth", "gen")
    tr.target(gen, "probe_losses", "gen.probe_losses", "gen")
    tr.target(gen, "fit_quadratic", "gen.fit_quadratic", "gen")

    # optim
    tr.target(harness, "sgd_direction", "optim.sgd_direction", "optim")
    tr.target(harness, "adamw_direction", "optim.adamw_direction", "optim")
    tr.target(harness, "post_process", "optim.post_process", "optim")
    tr.target(harness, "apply_step", "optim.apply_step", "optim")
    tr.target(gen, "apply_step", "optim.apply_step", "optim")

    # harness: run_experiment as the benchmark and cli call it
    def run_after(_, args, kwargs, result, dur):
        tr.count("runs")
        tr.count("diverged_runs", result.status == "diverged")

    def grid_after(_, args, kwargs, result, dur):
        tr.count("runs", len(result))
        tr.count("diverged_runs",
                 sum(r["status"] == "diverged" for r in result))

    tr.target(harness, "run_experiment", "harness.run_experiment", "harness",
              after=run_after)
    tr.target(cli, "run_experiment", "harness.run_experiment", "harness",
              after=run_after)
    tr.target(cli, "grid_search_rows", "harness.grid_search_rows", "harness",
              after=grid_after)
    tr.target(harness, "spec_from_dict", "harness.spec_from_dict", "harness")
    tr.target(cli, "spec_from_dict", "harness.spec_from_dict", "harness")
    tr.target(harness, "build_problem", "harness.build_problem", "harness")
    tr.target(cli, "build_problem", "harness.build_problem", "harness")
    tr.target(harness, "build_direction_fn", "harness.build_direction_fn",
              "harness")
    tr.target(cli, "convergence_metrics", "harness.convergence_metrics",
              "harness")
    tr.target(cli, "pick_best_row", "harness.pick_best_row", "harness")

    # cli: main as the benchmark calls it, the rest as main calls them
    def csv_after(_, args, kwargs, result, dur):
        tr.count("csv_bytes", os.path.getsize(args[0]))

    tr.target(cli, "main", "cli.main", "cli")
    for attr in ("cmd_run", "cmd_grid_search", "cmd_compare", "load_config"):
        tr.target(cli, attr, f"cli.{attr}", "cli")
    for attr in _CSV_WRITERS:
        tr.target(cli, attr, f"cli.{attr}", "cli", after=csv_after)

    # core: as_param_vector is imported by name into three modules
    for mod in (problems, optim, harness):
        tr.target(mod, "as_param_vector", "core.as_param_vector", "core")
    tr.target(optim, "check_finite", "core.check_finite", "core")
    return tr
