"""File formats: the time-series CSV schema, the sectioned config file, and
report emission.

The CSV is the single unit boundary of the repo: powers in kW, prices in
currency per kWh, comma separators, dot decimals, mandatory header.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, get_type_hints

from .aging import SegmentSet
from .domain import (REVENUE_TERMS, EssSpec, MarketSpec, SlotExogenous,
                     validate_inputs)
from .rolling import LEDGER_TOTALS, ForecastModel, SimulationReport
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
class Sweep:
    """An experiment run once per point of the RunConfig field grid.  Each
    point writes its report to a directory <prefix><label> and one row,
    column, net_profit and last, to the experiment's table.  formats are
    the format specs of a point's directory label and table cell."""

    grid: str
    column: str
    prefix: str
    last: str
    formats: tuple[str, str] = ("", "")

    def labels(self, point) -> tuple[str, str]:
        """(directory name, table cell) of one point."""
        return (self.prefix + format(point, self.formats[0]),
                format(point, self.formats[1]))


SWEEPS = {
    "alpha-sweep": Sweep("alpha_grid", "alpha", "alpha_",
                         "ess_attributable_profit", ("g", ".9g")),
    "horizon-sweep": Sweep("horizon_grid", "horizon", "h_",
                           "ess_attributable_profit"),
    "forecast-study": Sweep("seeds", "seed", "seed_", "profit_difference"),
}
EXPERIMENTS = ("single", *SWEEPS)


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
        if self.experiment not in EXPERIMENTS:
            raise DataError(f"experiment {self.experiment!r} is not one of "
                            f"{', '.join(EXPERIMENTS)}")
        sweep = SWEEPS.get(self.experiment)
        if sweep is not None and len(getattr(self, sweep.grid)) == 0:
            raise DataError(f"empty grid for experiment {self.experiment}")
        if min((self.horizon, *self.horizon_grid)) < 1:
            raise DataError(f"horizon {self.horizon} and horizon_grid "
                            f"{self.horizon_grid} must be >= 1")
        if not all(math.isfinite(a) and a >= 0 for a in self.alpha_grid):
            raise DataError(f"alpha_grid {self.alpha_grid} entries must be "
                            "finite and >= 0")
        if min(self.seeds, default=0) < 0:
            raise DataError(f"seeds {self.seeds} must be >= 0")
        for sweep in SWEEPS.values():
            grid = getattr(self, sweep.grid)
            dirs = [sweep.labels(point)[0] for point in grid]
            shared = [name for name in dirs if dirs.count(name) > 1]
            if shared:
                raise DataError(f"{sweep.grid} {grid} has points that share "
                                f"the directory {shared[0]}")


def load_timeseries_csv(path: str | Path,
                        sale_price_ratio: float = 0.6) -> list[SlotExogenous]:
    """Parse the slot series; derives price_sale when the column is absent."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read series file: {exc}") from None
    reader = csv.DictReader(lines)
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


# soc_min and soc_max have no EssSpec default.
_ESS_DEFAULTS = {"soc_min": 0.2, "soc_max": 0.9}


def parse_segments(text: str) -> SegmentSet:
    """Segment list in "a:b, a:b, ..." form."""
    segments = []
    for part in text.split(","):
        a, _, b = part.partition(":")
        segments.append((float(a), float(b)))
    return SegmentSet(tuple(segments))


# The parser of each field type a config key can have.
_PARSERS = {
    float: float, int: int, str: str, SegmentSet: parse_segments,
    tuple[float, ...]: lambda text: tuple(float(v) for v in text.split(",")),
    tuple[int, ...]: lambda text: tuple(int(v) for v in text.split(",")),
}


def _record(parser: configparser.ConfigParser, name: str, cls, strict: bool,
            path, defaults: dict | None = None, **given):
    """cls built from section [name].  Every field of cls that given leaves
    out is a key, parsed by the field's type; a missing key takes defaults,
    else the field's own default."""
    keys = {key: _PARSERS[kind] for key, kind in get_type_hints(cls).items()
            if key not in given}
    try:
        sec = dict(parser.items(name)) if parser.has_section(name) else {}
    except configparser.Error as exc:
        raise DataError(f"{path}: [{name}] {exc}") from None
    unknown = set(sec) - set(keys)
    if unknown and strict:
        raise DataError(f"{path}: unknown keys {sorted(unknown)} in [{name}]")
    values = {**(defaults or {}), **given}
    for key, parse in keys.items():
        if key not in sec:
            continue
        try:
            values[key] = parse(sec[key])
        except ValueError as exc:
            raise DataError(f"{path}: [{name}] {key} = {sec[key]!r}: {exc}") from None
    try:
        return cls(**values)
    except TypeError as exc:
        raise DataError(f"{path}: [{name}] missing required key: {exc}") from None
    except ValueError as exc:
        raise DataError(f"{path}: [{name}] {exc}") from None


def _unit_number(path, section: str) -> int:
    """N of an [ess.N] section; units are numbered in the order of N."""
    try:
        return int(section.removeprefix("ess."))
    except ValueError:
        raise DataError(f"{path}: [{section}] N of [ess.N] must be an integer") from None


def load_config(path: str | Path, strict: bool = False):
    """Parse the sectioned config into the five typed records.

    Returns (specs, market, solver_config, forecast_model, run_config).
    Raises DataError for an unreadable file, a malformed value, a missing
    required key and, with strict, an unknown key or section.
    """
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with path.open(encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read config file: {exc}") from None
    except configparser.Error as exc:
        raise DataError(f"{path}: {exc}") from None

    ess_sections = sorted((s for s in parser.sections() if s.startswith("ess.")),
                          key=lambda name: _unit_number(path, name))
    specs = [_record(parser, name, EssSpec, strict, path, _ESS_DEFAULTS, id=idx)
             for idx, name in enumerate(ess_sections, start=1)]
    market = _record(parser, "market", MarketSpec, strict, path)
    solver = _record(parser, "solver", SolverConfig, strict, path)
    # Forecast errors are seeded by each point of [run] seeds, never by a key.
    forecast = _record(parser, "forecast", ForecastModel, strict, path, seed=0)
    run = _record(parser, "run", RunConfig, strict, path)

    if strict:
        known = set(ess_sections) | {"market", "solver", "forecast", "run"}
        unknown = set(parser.sections()) - known
        if unknown:
            raise DataError(f"{path}: unknown sections {sorted(unknown)}")
    report = validate_inputs(specs, market, [])
    if not report.ok:
        raise DataError(f"{path}: " + "; ".join(report.violations))
    for spec in specs:
        if not spec.soc_min <= run.initial_soc <= spec.soc_max:
            raise DataError(f"{path}: [run] initial_soc {run.initial_soc} outside "
                            f"the SOC corridor [{spec.soc_min}, {spec.soc_max}] "
                            f"of ess {spec.id}")
    return specs, market, solver, forecast, run


def summary_dict(report: SimulationReport) -> dict:
    return {
        **{stream.capitalize(): report.totals[stream] for stream in REVENUE_TERMS},
        "aging_cost": report.totals["aging_cost"],
        "net_profit": report.totals["net_profit"],
        "baseline_profit": report.baseline_profit,
        "ess_attributable_profit": report.ess_attributable_profit,
        "solver": {"slots": len(report.ledger),
                   "total_nodes": sum(report.node_counts),
                   "max_nodes": max(report.node_counts, default=0)},
    }


def make_out_dir(path: Path) -> None:
    """Create the output directory path and its parents if missing; raises
    DataError when it cannot be a directory (a file holds its name, say)."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{path}: cannot create output directory: {exc}") from None


def emit_report(report: SimulationReport, out_dir: str | Path) -> None:
    """Write ledger.csv, summary.json, and plot-ready per-slot CSVs; raises
    DataError when out_dir or its plotdata/ cannot be created."""
    out = Path(out_dir)
    make_out_dir(out)
    n = len(report.initial_soc)
    with (out / "ledger.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["slot", *LEDGER_TOTALS, "renewable_selfuse",
                  "renewable_export", "reg_participate", "reserve_participate"]
        for i in range(n):
            header += [f"charge_kw_{i}", f"discharge_kw_{i}", f"reserve_kw_{i}",
                       f"soc_{i}"]
        writer.writerow(header)
        for e in report.ledger:
            row = [e.slot, *(_fmt(getattr(e, key)) for key in LEDGER_TOTALS),
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
    make_out_dir(plotdir)
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
