"""Span tracing around the public functions of essdispatch's layers.

The tracer never edits the package: it replaces, for the length of a
``with`` block, every module-level reference to a traced function with a
wrapper that records one span per call.  run_simulation reaches
``build_problem`` and ``solve`` through names it imported, and ``solve``
reaches ``linprog`` the same way, so each reference in each essdispatch
module is swapped, not just the defining one.

Spans stay in memory as ``[name, start, end, parent, decision]`` rows and are
written out once the run ends.  A span's parent is the span open when it
started; its decision is the number of decisions closed before it started,
so every span of one decision shares that id.  Run-level spans (a whole
simulation, a sweep, report writing) carry the id of the decision that
follows them.
"""

from __future__ import annotations

import csv
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

NAME, START, END, PARENT, DECISION = range(5)


class Tracer:
    """Records spans and counters at layer boundaries.

    decision_span names the span whose end closes one decision: the
    accounting step in a rolling run, the solve of an isolated window.
    """

    def __init__(self, decision_span: str):
        self.decision_span = decision_span
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.decision = 0
        self._stack: list[int] = []
        self._open_pools: list = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _wrap(self, name: str, fn, after=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.decision]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            if name == self.decision_span:
                self.decision += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_lp(self, args, kwargs, res):
        self.counters["lp.iters"] += int(getattr(res, "nit", 0) or 0)
        a_ub = kwargs.get("A_ub", args[1] if len(args) > 1 else None)
        self.samples["lp.rows"].append(0 if a_ub is None else a_ub.shape[0])

    def _after_build(self, args, kwargs, instance):
        self.samples["problem.rows"].append(len(instance.rows))
        self.samples["problem.nnz"].append(
            sum(len(row.coeffs) for row in instance.rows))

    def _after_cutpool(self, args, kwargs, pool):
        self._open_pools.append((pool, len(pool.rows)))

    def _after_solve(self, args, kwargs, result):
        self.samples["solve.nodes"].append(result.node_count)
        if result.status != "optimal":
            self.counters["solve.nonoptimal"] += 1
        self.counters["cuts.added"] += sum(len(pool.rows) - seeded
                                           for pool, seeded in self._open_pools)
        self._open_pools.clear()

    def _after_repair(self, args, kwargs, repaired):
        committed = args[0]

        def used(d):
            return (d.renewable_selfuse + d.renewable_export
                    + sum(d.charge_from_renewable))

        # The repair only ever cuts renewable use, so the difference is the
        # curtailed power; one slot lasts slot_hours (args[4] is the market).
        self.counters["repair.curtailed_kwh"] += (
            (used(committed) - used(repaired)) * args[4].slot_hours)

    # -- installing ----------------------------------------------------------
    def _targets(self):
        """(span name, function object, hook) for every traced boundary."""
        import scipy.optimize

        from essdispatch import cli, domain, fixture, iofiles, problem, rolling, solver

        return [
            ("fixture.generate_series", fixture.generate_series, None),
            ("iofiles.load_config", iofiles.load_config, None),
            ("iofiles.emit_report", iofiles.emit_report, None),
            ("cli.sweep", cli.run_experiment, None),
            ("rolling.run", rolling.run_simulation, None),
            ("rolling.forecast", rolling.perturb_forecast, None),
            ("rolling.repair", rolling.repair_dispatch, self._after_repair),
            ("rolling.accounting", rolling.realized_revenues, None),
            ("rolling.baseline", rolling.no_ess_baseline, None),
            ("domain.soc_update", domain.soc_update, None),
            ("problem.build", problem.build_problem, self._after_build),
            ("problem.decode", problem.recover_service_split, None),
            ("solver.solve", solver.solve, self._after_solve),
            ("solver.relaxation", solver.solve_relaxation, None),
            ("solver.cutpool", solver.CutPool, self._after_cutpool),
            ("solver.lp", scipy.optimize.linprog, self._after_lp),
            ("solver.milp", scipy.optimize.milp, None),
        ]

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "essdispatch"
                                         or name.startswith("essdispatch."))]
        for name, fn, after in self._targets():
            wrapper = self._wrap(name, fn, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()
        return False

    # -- reporting -----------------------------------------------------------
    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, rec in enumerate(self.spans):
            dur = rec[END] - rec[START]
            row = out[rec[NAME]]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[i]
        return dict(out)

    def child_calls(self, parent: str, name: str) -> int:
        """Number of spans called name whose parent span is called parent."""
        return sum(1 for rec in self.spans
                   if rec[NAME] == name and rec[PARENT] >= 0
                   and self.spans[rec[PARENT]][NAME] == parent)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "decision"])
            for i, rec in enumerate(self.spans):
                writer.writerow([i, rec[NAME], f"{rec[START] - t0:.9f}",
                                 f"{rec[END] - t0:.9f}", rec[PARENT], rec[DECISION]])


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """The per-layer metrics of a traced section of whole passes.

    Sums (calls, seconds, nodes, cuts, iterations) are divided by the number
    of passes, so each is the figure of one pass over the workload's inputs,
    however many passes the run made.  Means, medians, maxima and ratios are
    taken over every call of the section.
    """
    lt = tracer.layer_times()

    def get(name: str, key: str) -> float:
        return lt.get(name, {}).get(key, 0)

    nodes = tracer.samples["solve.nodes"]
    solves = get("solver.solve", "calls")
    per_pass = {
        "solver.lp.calls": get("solver.lp", "calls"),
        "solver.lp.s": get("solver.lp", "s"),
        "solver.lp.iters": tracer.counters["lp.iters"],
        "solver.milp.calls": get("solver.milp", "calls"),
        "solver.nodes.total": sum(nodes),
        "solver.relaxation.calls": get("solver.relaxation", "calls"),
        "solver.relaxation.s": get("solver.relaxation", "s"),
        "solver.cuts.added": tracer.counters["cuts.added"],
        "solver.cutpool.calls": get("solver.cutpool", "calls"),
        "solver.cutpool.s": get("solver.cutpool", "s"),
        "problem.build.calls": get("problem.build", "calls"),
        "problem.build.s": get("problem.build", "s"),
        "solver.solve.calls": solves,
        "solver.solve.self_s": get("solver.solve", "self_s"),
        "solver.nonoptimal": tracer.counters["solve.nonoptimal"],
        "problem.decode.s": get("problem.decode", "s"),
        "rolling.self_s": sum(row["self_s"] for name, row in lt.items()
                              if name.startswith("rolling.")),
        "rolling.forecast.calls": get("rolling.forecast", "calls"),
        "rolling.repair.s": get("rolling.repair", "s"),
        "rolling.repair.curtailed_kwh": tracer.counters["repair.curtailed_kwh"],
        "rolling.accounting.s": get("rolling.accounting", "s"),
        "domain.soc_update.s": get("domain.soc_update", "s"),
        "iofiles.emit_report.calls": get("iofiles.emit_report", "calls"),
        "cli.sweep.points": tracer.child_calls("cli.sweep", "rolling.run"),
    }
    values = {name: value / passes for name, value in per_pass.items()}
    values.update({
        "solver.lp.rows_mean": _mean(tracer.samples["lp.rows"]),
        "solver.lp.per_solve": get("solver.lp", "calls") / solves if solves else 0.0,
        "solver.nodes.p50": statistics.median(nodes) if nodes else 0,
        "solver.nodes.max": max(nodes, default=0),
        "problem.rows_mean": _mean(tracer.samples["problem.rows"]),
        "problem.nnz_mean": _mean(tracer.samples["problem.nnz"]),
    })
    return values
