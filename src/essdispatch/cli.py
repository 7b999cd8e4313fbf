"""Command-line experiment drivers.

Experiments: a single rolling simulation, a capital-cost sweep, a horizon
sweep, and a forecast-error study.  Each emits CSV result tables plus a JSON
summary per scenario; everything is deterministic given the configured seeds.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .iofiles import (EXPERIMENTS, DataError, RunConfig, emit_report,
                      load_config, load_timeseries_csv, summary_dict, _fmt)
from .rolling import ForecastModel, run_simulation
from .solver import SolverConfig


def _simulate(series, specs, market, horizon, forecast, solver, run: RunConfig):
    return run_simulation(series, specs, market, horizon, forecast=forecast,
                          config=solver, initial_soc=run.initial_soc)


def _out_dir(series, run: RunConfig, key: str, horizons) -> Path:
    """Create the output directory once the series covers every horizon."""
    longest = max(horizons)
    if len(series) < longest:
        raise DataError(f"[run] {key} {longest} longer than the {len(series)} "
                        f"slots of {run.series_path}")
    out = Path(run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_experiment(series, specs, market, solver: SolverConfig,
                   forecast: ForecastModel, run: RunConfig) -> Path:
    """Run the selected experiment and write its report files; returns out dir.

    A series shorter than a horizon the experiment runs raises DataError
    before anything is written.
    """
    if run.experiment == "single":
        out = _out_dir(series, run, "horizon", [run.horizon])
        report = _simulate(series, specs, market, run.horizon, None, solver, run)
        emit_report(report, out)
        return out

    if run.experiment == "alpha-sweep":
        out = _out_dir(series, run, "horizon", [run.horizon])
        rows = []
        for alpha in run.alpha_grid:
            scaled = [s.with_capital_cost(alpha) for s in specs]
            report = _simulate(series, scaled, market, run.horizon, None,
                               solver, run)
            emit_report(report, out / f"alpha_{alpha:g}")
            rows.append((alpha, report.net_profit, report.ess_attributable_profit))
        with (out / "alpha_sweep.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha", "net_profit", "ess_attributable_profit"])
            for alpha, profit, attr in rows:
                writer.writerow([_fmt(alpha), _fmt(profit), _fmt(attr)])
        return out

    if run.experiment == "horizon-sweep":
        out = _out_dir(series, run, "horizon_grid", run.horizon_grid)
        rows = []
        for h in run.horizon_grid:
            report = _simulate(series, specs, market, h, None, solver, run)
            emit_report(report, out / f"h_{h}")
            rows.append((h, report.net_profit, report.ess_attributable_profit))
        with (out / "horizon_sweep.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["horizon", "net_profit", "ess_attributable_profit"])
            for h, profit, attr in rows:
                writer.writerow([h, _fmt(profit), _fmt(attr)])
        return out

    # forecast-study: RunConfig admits no other experiment
    out = _out_dir(series, run, "horizon", [run.horizon])
    perfect = _simulate(series, specs, market, run.horizon, None, solver, run)
    emit_report(perfect, out / "perfect")
    rows = []
    for seed in run.seeds:
        model = dataclasses.replace(forecast, seed=seed)
        report = _simulate(series, specs, market, run.horizon, model,
                           solver, run)
        emit_report(report, out / f"seed_{seed}")
        rows.append((seed, report.net_profit,
                     report.net_profit - perfect.net_profit))
    with (out / "forecast_study.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "net_profit", "profit_difference"])
        for seed, profit, diff in rows:
            writer.writerow([seed, _fmt(profit), _fmt(diff)])
    with (out / "forecast_summary.json").open("w") as fh:
        diffs = [d for _, _, d in rows]
        json.dump({"perfect_profit": float(_fmt(perfect.net_profit)),
                   "mean_difference": float(_fmt(sum(diffs) / len(diffs))),
                   "differences": [float(_fmt(d)) for d in diffs]},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
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
