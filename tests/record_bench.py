#!/usr/bin/env python3
"""Record the solver's counts and wall times over the bundled week.

    PYTHONPATH=src python3 tests/record_bench.py LABEL [DIR]

Runs the bundled config over the bundled week five times: at H=4 with the
config's forecast errors (the week of perfbench's rolling-h4 workload), and
at H=4, 6, 8 and 12 with a perfect forecast.  Writes BENCH_<LABEL>.json into
DIR (the repository root by default): per week the wall time, the node total,
p50, p90 and max over its windows, the windows that branch, the LP runs,
the simplex iterations and the repr of the week's net profit; and the Python,
numpy and scipy versions, the core count and the git commit.  It also runs
sweep-h1's mix: the config's alpha_grid points at H=1 on the bundled week
with a perfect forecast, as the alpha-sweep experiment runs them, and
records their node, LP-run and iteration totals, their wall time and each
point's net-profit repr.  The counts and the profits are deterministic, so
two of these files show a solver change exactly; the wall times are single
runs.  A commit that ends in "-dirty" had uncommitted changes to tracked
files.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from essdispatch import rolling
from essdispatch.fixture import generate_series
from essdispatch.iofiles import load_config

from conftest import BUNDLED_CONFIG

ROOT = Path(__file__).resolve().parents[1]
# (name, horizon, whether the config's forecast errors apply)
WEEKS = (("rolling-h4", 4, True), ("perfect-h4", 4, False), ("perfect-h6", 6, False),
         ("perfect-h8", 8, False), ("perfect-h12", 12, False))


def counted_runs(run) -> tuple[np.ndarray, float]:
    """The (nodes, LP runs, iterations) of each window that run() solves
    through rolling.run_simulation, one row per window, and run()'s wall
    time."""
    solves = []
    solve = rolling.solve

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        solves.append((result.node_count, result.lp_calls, result.lp_iters))
        return result

    rolling.solve = counted
    try:
        start = time.perf_counter()
        run()
        wall = time.perf_counter() - start
    finally:
        rolling.solve = solve
    return np.array(solves), wall


def record_week(horizon: int, with_forecast: bool) -> dict:
    specs, market, config, forecast, run = load_config(BUNDLED_CONFIG)
    week = generate_series(sale_price_ratio=market.sale_price_ratio)
    reports = []
    counts, wall = counted_runs(lambda: reports.append(rolling.run_simulation(
        week, specs, market, horizon, forecast if with_forecast else None,
        config, run.initial_soc)))
    nodes, lp_runs, iters = counts.T
    return {"horizon": horizon, "forecast": "config" if with_forecast else "perfect",
            "wall_s": round(wall, 3), "windows": len(nodes),
            "nodes": {"total": int(nodes.sum()),
                      "p50": round(float(np.percentile(nodes, 50)), 3),
                      "p90": round(float(np.percentile(nodes, 90)), 3),
                      "max": int(nodes.max())},
            "branching_windows": int((nodes > 1).sum()),
            "lp_runs": int(lp_runs.sum()), "simplex_iterations": int(iters.sum()),
            "net_profit": repr(reports[0].totals["net_profit"])}


def record_sweep_h1() -> dict:
    """The alpha_grid points at H=1, each a run over the bundled week with
    a perfect forecast and every unit's capital cost set to the point."""
    specs, market, config, _, run = load_config(BUNDLED_CONFIG)
    week = generate_series(sale_price_ratio=market.sale_price_ratio)
    profits = {}

    def sweep():
        for alpha in run.alpha_grid:
            point_specs = [dataclasses.replace(s, unit_capital_cost=alpha)
                           for s in specs]
            report = rolling.run_simulation(week, point_specs, market, 1, None,
                                            config, run.initial_soc)
            profits[f"{alpha:g}"] = repr(report.totals["net_profit"])

    counts, wall = counted_runs(sweep)
    nodes, lp_runs, iters = counts.T
    return {"horizon": 1, "forecast": "perfect", "alpha_grid": list(run.alpha_grid),
            "wall_s": round(wall, 3), "windows": len(nodes),
            "nodes": int(nodes.sum()), "branching_windows": int((nodes > 1).sum()),
            "lp_runs": int(lp_runs.sum()), "simplex_iterations": int(iters.sum()),
            "net_profit": profits}


def main(label: str, out_dir: Path = ROOT) -> int:
    # The commit, with "-dirty" appended if tracked files differ from it.
    commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                            capture_output=True, text=True, cwd=ROOT).stdout.strip()
    record = {"label": label, "git_commit": commit, "python": platform.python_version(),
              "numpy": np.__version__, "scipy": scipy.__version__,
              "nproc": len(os.sched_getaffinity(0)), "weeks": {}}
    for name, horizon, with_forecast in WEEKS:
        record["weeks"][name] = week = record_week(horizon, with_forecast)
        print(f"{name}: {week['nodes']['total']} nodes, {week['lp_runs']} LP runs, "
              f"{week['simplex_iterations']} iterations, {week['wall_s']} s")
    record["sweep-h1"] = sweep = record_sweep_h1()
    print(f"sweep-h1: {sweep['nodes']} nodes, {sweep['lp_runs']} LP runs, "
          f"{sweep['simplex_iterations']} iterations, {sweep['wall_s']} s")
    path = Path(out_dir) / f"BENCH_{label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
