"""File formats: the time-series CSV schema, the sectioned config file, and
report emission.

The CSV is the single unit boundary of the repo: powers in kW, prices in
currency per kWh, comma separators, dot decimals, mandatory header.
"""

from __future__ import annotations

import configparser
import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .aging import SegmentSet
from .domain import (EXPORT_UNBOUNDED, EssSpec, MarketSpec, SlotExogenous,
                     validate_inputs)
from .rolling import ForecastModel, SimulationReport
from .solver import SolverConfig

CSV_COLUMNS = ("slot", "demand_kw", "pv_kw", "price_purchase", "price_sale",
               "rmccp", "rmpcp", "perf_score", "mileage_ratio", "reg_up_flag",
               "sr_price")
OPTIONAL_COLUMNS = ("price_sale",)


class DataError(ValueError):
    """Malformed input file; the message names the offending row/column/key."""


def _fmt(x: float) -> str:
    return f"{x:.9g}"


@dataclass(frozen=True)
class RunConfig:
    series_path: str = ""
    experiment: str = "single"
    horizon: int = 4
    alpha_grid: tuple[float, ...] = (50, 100, 150, 200, 250, 300, 350, 400, 450)
    horizon_grid: tuple[int, ...] = (1, 2, 4, 6)
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    initial_soc: float = 0.5
    out_dir: str = "out"

    def __post_init__(self):
        grids = {"alpha-sweep": self.alpha_grid, "horizon-sweep": self.horizon_grid,
                 "forecast-study": self.seeds}
        grid = grids.get(self.experiment)
        if grid is not None and len(grid) == 0:
            raise DataError(f"empty grid for experiment {self.experiment}")


def load_timeseries_csv(path: str | Path,
                        sale_price_ratio: float = 0.6) -> list[SlotExogenous]:
    """Parse the slot series; derives price_sale when the column is absent."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in CSV_COLUMNS
                   if c not in header and c not in OPTIONAL_COLUMNS]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        series = []
        for rownum, rec in enumerate(reader):
            def num(col: str) -> float:
                try:
                    return float(rec[col])
                except (TypeError, ValueError):
                    raise DataError(
                        f"{path}: non-numeric value {rec.get(col)!r} "
                        f"in column {col}, row {rownum}") from None

            flag = num("reg_up_flag")
            if flag not in (0.0, 1.0):
                raise DataError(f"{path}: reg_up_flag {rec['reg_up_flag']!r} "
                                f"not binary at row {rownum}")
            purchase = num("price_purchase")
            sale = (num("price_sale") if "price_sale" in header
                    else sale_price_ratio * purchase)
            series.append(SlotExogenous(
                demand=num("demand_kw"), renewable=num("pv_kw"),
                price_purchase=purchase, price_sale=sale,
                price_rmccp=num("rmccp"), price_rmpcp=num("rmpcp"),
                perf_score=num("perf_score"), mileage_ratio=num("mileage_ratio"),
                reg_up_flag=int(flag), price_reserve=num("sr_price")))
    report = validate_inputs([], MarketSpec(), series)
    if not report.ok:
        raise DataError(f"{path}: " + "; ".join(report.violations))
    return series


def write_timeseries_csv(path: str | Path, series: Sequence[SlotExogenous]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for t, s in enumerate(series):
            writer.writerow([t, _fmt(s.demand), _fmt(s.renewable),
                             _fmt(s.price_purchase), _fmt(s.price_sale),
                             _fmt(s.price_rmccp), _fmt(s.price_rmpcp),
                             _fmt(s.perf_score), _fmt(s.mileage_ratio),
                             s.reg_up_flag, _fmt(s.price_reserve)])


_ESS_KEYS = {"energy_capacity", "soc_min", "soc_max", "charge_rate_max",
             "discharge_rate_max", "eff_charge", "eff_discharge",
             "unit_capital_cost", "charge_cost_fraction", "aging_segments"}
_ESS_DEFAULTS = {"soc_min": 0.2, "soc_max": 0.9, "charge_cost_fraction": 0.5}
_MARKET_KEYS = {"slot_hours", "reg_min_power", "reserve_min_power",
                "reserve_min_duration", "export_power_max", "sale_price_ratio"}
_SOLVER_KEYS = {"int_tol", "gap_tol", "cut_tol", "node_limit",
                "cut_round_limit"}
_FORECAST_KEYS = {"kappa_step", "kappa_cap", "clamp_low", "clamp_high", "seed"}
_RUN_KEYS = {"series_path", "experiment", "horizon", "alpha_grid",
             "horizon_grid", "seeds", "initial_soc", "out_dir"}


def parse_segments(text: str) -> SegmentSet:
    """Segment list in "a:b, a:b, ..." form."""
    segments = []
    for part in text.split(","):
        a, _, b = part.partition(":")
        segments.append((float(a), float(b)))
    return SegmentSet(tuple(segments))


def _section(parser: configparser.ConfigParser, name: str, allowed: set[str],
             strict: bool, path) -> dict[str, str]:
    if not parser.has_section(name):
        return {}
    sec = dict(parser.items(name))
    unknown = set(sec) - allowed
    if unknown and strict:
        raise DataError(f"{path}: unknown keys {sorted(unknown)} in [{name}]")
    return sec


def load_config(path: str | Path, strict: bool = False):
    """Parse the sectioned config into the five typed records.

    Returns (specs, market, solver_config, forecast_model, run_config).
    """
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if not parser.read(path):
        raise DataError(f"{path}: cannot read config file")

    specs = []
    ess_sections = sorted(s for s in parser.sections() if s.startswith("ess."))
    for idx, name in enumerate(ess_sections, start=1):
        sec = _section(parser, name, _ESS_KEYS, strict, path)
        kwargs = dict(_ESS_DEFAULTS)
        for key in _ESS_KEYS - {"aging_segments"}:
            if key in sec:
                kwargs[key] = float(sec[key])
        segments = (parse_segments(sec["aging_segments"])
                    if "aging_segments" in sec else None)
        try:
            spec = EssSpec(id=idx, aging_segments=segments, **kwargs) \
                if segments else EssSpec(id=idx, **kwargs)
        except TypeError as exc:
            raise DataError(f"{path}: [{name}] missing required key: {exc}") from None
        specs.append(spec)

    msec = _section(parser, "market", _MARKET_KEYS, strict, path)
    market = MarketSpec(
        slot_hours=float(msec.get("slot_hours", 1.0)),
        reg_min_power=float(msec.get("reg_min_power", 0.0)),
        reserve_min_power=float(msec.get("reserve_min_power", 0.0)),
        reserve_min_duration=float(msec.get("reserve_min_duration", 0.0)),
        export_power_max=float(msec.get("export_power_max", EXPORT_UNBOUNDED)),
        sale_price_ratio=float(msec.get("sale_price_ratio", 0.6)))

    ssec = _section(parser, "solver", _SOLVER_KEYS, strict, path)
    solver = SolverConfig(
        int_tol=float(ssec.get("int_tol", 1e-6)),
        gap_tol=float(ssec.get("gap_tol", 1e-6)),
        cut_tol=float(ssec.get("cut_tol", 1e-7)),
        node_limit=int(ssec.get("node_limit", 100000)),
        cut_round_limit=int(ssec.get("cut_round_limit", 300)))

    fsec = _section(parser, "forecast", _FORECAST_KEYS, strict, path)
    step = float(fsec.get("kappa_step", 0.1))
    cap = float(fsec.get("kappa_cap", 0.5))
    forecast = ForecastModel(
        error_schedule=lambda h, s=step, c=cap: min(s * h, c),
        clamp_low=float(fsec.get("clamp_low", 0.8)),
        clamp_high=float(fsec.get("clamp_high", 1.2)),
        seed=int(fsec.get("seed", 0)))

    rsec = _section(parser, "run", _RUN_KEYS, strict, path)

    def grid(key: str, cast, default):
        if key not in rsec:
            return default
        return tuple(cast(v) for v in rsec[key].split(","))

    run = RunConfig(
        series_path=rsec.get("series_path", ""),
        experiment=rsec.get("experiment", "single"),
        horizon=int(rsec.get("horizon", 4)),
        alpha_grid=grid("alpha_grid", float, RunConfig.alpha_grid),
        horizon_grid=grid("horizon_grid", int, RunConfig.horizon_grid),
        seeds=grid("seeds", int, RunConfig.seeds),
        initial_soc=float(rsec.get("initial_soc", 0.5)),
        out_dir=rsec.get("out_dir", "out"))

    if strict:
        known = set(ess_sections) | {"market", "solver", "forecast", "run"}
        unknown = set(parser.sections()) - known
        if unknown:
            raise DataError(f"{path}: unknown sections {sorted(unknown)}")
    report = validate_inputs(specs, market, [])
    if not report.ok:
        raise DataError(f"{path}: " + "; ".join(report.violations))
    return specs, market, solver, forecast, run


def summary_dict(report: SimulationReport) -> dict:
    return {
        "R_sc": report.totals["r_sc"], "R_fr": report.totals["r_fr"],
        "R_sr": report.totals["r_sr"], "R_br": report.totals["r_br"],
        "aging_cost": report.totals["aging_cost"],
        "net_profit": report.totals["net_profit"],
        "baseline_profit": report.baseline_profit,
        "ess_attributable_profit": report.ess_attributable_profit,
        "solver": {"slots": len(report.ledger),
                   "total_nodes": sum(report.node_counts),
                   "max_nodes": max(report.node_counts, default=0)},
    }


def emit_report(report: SimulationReport, out_dir: str | Path) -> None:
    """Write ledger.csv, summary.json, and plot-ready per-slot CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = len(report.initial_soc)
    with (out / "ledger.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["slot", "r_sc", "r_fr", "r_sr", "r_br", "aging_cost",
                  "net_profit", "renewable_selfuse", "renewable_export",
                  "reg_participate", "reserve_participate"]
        for i in range(n):
            header += [f"charge_kw_{i}", f"discharge_kw_{i}", f"reserve_kw_{i}",
                       f"soc_{i}"]
        writer.writerow(header)
        for e in report.ledger:
            row = [e.slot, _fmt(e.r_sc), _fmt(e.r_fr), _fmt(e.r_sr),
                   _fmt(e.r_br), _fmt(e.aging_cost), _fmt(e.net_profit),
                   _fmt(e.decision.renewable_selfuse),
                   _fmt(e.decision.renewable_export),
                   e.decision.reg_participate, e.decision.reserve_participate]
            for i in range(n):
                row += [_fmt(e.decision.charge_total[i]),
                        _fmt(e.decision.discharge_total[i]),
                        _fmt(e.decision.reserve_commit[i]), _fmt(e.soc[i])]
            writer.writerow(row)
    summary = summary_dict(report)
    with (out / "summary.json").open("w") as fh:
        json.dump(_round_sig(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    plotdir = out / "plotdata"
    plotdir.mkdir(exist_ok=True)
    with (plotdir / "soc.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot"] + [f"soc_{i}" for i in range(n)])
        for e in report.ledger:
            writer.writerow([e.slot] + [_fmt(s) for s in e.soc])
    with (plotdir / "profit.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "net_profit", "cumulative_profit"])
        total = 0.0
        for e in report.ledger:
            total += e.net_profit
            writer.writerow([e.slot, _fmt(e.net_profit), _fmt(total)])


def _round_sig(obj):
    """Serialize floats at 9 significant digits, recursively."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_sig(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_sig(v) for v in obj]
    return obj
