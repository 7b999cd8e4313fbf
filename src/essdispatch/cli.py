"""Command-line experiment drivers.

Experiments: a single rolling simulation, a capital-cost sweep, a horizon
sweep, and a forecast-error study.  Each emits CSV result tables plus a JSON
summary per scenario; everything is deterministic given the configured seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .iofiles import (EXPERIMENTS, SWEEPS, DataError, RunConfig, emit_report,
                      load_config, load_timeseries_csv, make_out_dir,
                      write_csv, write_json)
from .rolling import ForecastModel, run_simulation
from .solver import SolverConfig


def run_experiment(series, specs, market, solver: SolverConfig,
                   forecast: ForecastModel, run: RunConfig) -> Path:
    """Run the selected experiment and write its report files; returns out dir.

    A sweep runs once per point of its grid (iofiles.SWEEPS).  Capital-cost
    and horizon points run on perfect forecasts; the forecast study's seed
    points run on the forecast model, against a perfect-forecast run in
    perfect/.
    A series shorter than a horizon the experiment runs raises DataError
    before anything is written.
    """
    sweep = SWEEPS.get(run.experiment)
    key = "horizon_grid" if sweep and sweep.grid == "horizon_grid" else "horizon"
    longest = max(run.horizon_grid) if key == "horizon_grid" else run.horizon
    if len(series) < longest:
        raise DataError(f"[run] {key} {longest} longer than the {len(series)} "
                        f"slots of {run.series_path}")
    out = Path(run.out_dir)
    make_out_dir(out)
    perfect = None
    if sweep is None or sweep.grid == "seeds":
        perfect = run_simulation(series, specs, market, run.horizon,
                                 config=solver, initial_soc=run.initial_soc)
        emit_report(perfect, out if sweep is None else out / "perfect")
    if sweep is None:
        return out

    rows = []
    for point in getattr(run, sweep.grid):
        point_specs, horizon, model = specs, run.horizon, None
        if sweep.grid == "alpha_grid":
            point_specs = [dataclasses.replace(s, unit_capital_cost=point)
                           for s in specs]
        elif sweep.grid == "horizon_grid":
            horizon = point
        else:
            model = dataclasses.replace(forecast, seed=point)
        report = run_simulation(series, point_specs, market, horizon,
                                forecast=model, config=solver,
                                initial_soc=run.initial_soc)
        name, cell = sweep.labels(point)
        emit_report(report, out / name)
        last = (report.ess_attributable_profit if perfect is None
                else report.net_profit - perfect.net_profit)
        rows.append((cell, report.net_profit, last))
    write_csv(out / f"{run.experiment.replace('-', '_')}.csv",
              [sweep.column, "net_profit", sweep.last], rows)
    if perfect is not None:
        diffs = [last for _, _, last in rows]
        write_json(out / "forecast_summary.json",
                   {"perfect_profit": perfect.net_profit,
                    "mean_difference": sum(diffs) / len(diffs),
                    "differences": diffs})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="essdispatch",
        description="Rolling-horizon dispatch and economics of multi-use storage")
    ap.add_argument("--config", required=True, help="sectioned config file")
    ap.add_argument("--series", help="time-series CSV (overrides config)")
    ap.add_argument("--experiment",
                    choices=EXPERIMENTS,
                    help="experiment selector (overrides config)")
    ap.add_argument("--out", help="output directory (overrides config)")
    ap.add_argument("--strict", action="store_true",
                    help="reject unknown config keys")
    args = ap.parse_args(argv)

    try:
        specs, market, solver, forecast, run = load_config(args.config,
                                                           strict=args.strict)
        updates = {}
        if args.series:
            updates["series_path"] = args.series
        if args.experiment:
            updates["experiment"] = args.experiment
        if args.out:
            updates["out_dir"] = args.out
        if updates:
            run = dataclasses.replace(run, **updates)
        if not run.series_path:
            ap.error("no time series: pass --series or set series_path in [run]")
        series = load_timeseries_csv(run.series_path, market.sale_price_ratio)
        out = run_experiment(series, specs, market, solver, forecast, run)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote results to {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
