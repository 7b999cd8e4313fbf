"""The benchmark's workloads: their inputs, one timed pass, and its checks.

A workload builds all of its inputs up front (that is set-up), then runs
passes over the same inputs.  ``execute`` is the timed part of one pass and
returns the raw outputs; ``check`` judges them afterwards, off the clock, and
returns an ``Outcome``.  Every pass of a run covers the same inputs, so a
faster program runs more passes of the same mix rather than a different mix.

A decision is one committed slot in a rolling run and one solved window in
``windows-h5``.  Its latency is one timed ``solve`` call (the one
``run_simulation`` makes per slot) or one ``build_problem`` plus ``solve``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import essdispatch
from essdispatch import cli, fixture, iofiles, rolling
from essdispatch.problem import check_solution

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = ROOT / "data" / "default_config.ini"
WINDOW_REFERENCE = HERE / "reference" / "windows_h5.json"

SOC_TOL = 1e-7


@dataclass
class Outcome:
    """What one pass did: decisions tried and failed, latencies, problems."""

    attempted: int
    failed: int
    latencies_s: list[float]
    problems: list[str] = field(default_factory=list)


def derive_seed(seed: int, stream: int) -> int:
    """An independent generator seed for one use of the workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _failure(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


class _TimedSolve:
    """Times the one solve call run_simulation makes per slot.

    Installed as ``essdispatch.rolling.solve`` for the length of a pass, on
    top of whatever is there (the tracer's wrapper in a traced run).
    """

    def __init__(self):
        self.calls: list[tuple[float, str]] = []

    def __enter__(self):
        self._inner = rolling.solve
        inner = self._inner
        calls = self.calls
        clock = time.perf_counter

        def timed_solve(*args, **kwargs):
            t0 = clock()
            result = inner(*args, **kwargs)
            calls.append((clock() - t0, result.status))
            return result

        rolling.solve = timed_solve
        return self

    def __exit__(self, *exc):
        rolling.solve = self._inner
        return False

    def committed(self, raised: bool) -> int:
        """Slots committed; a run that raised lost the slot it was on."""
        ok = sum(status == "optimal" for _, status in self.calls)
        if raised and self.calls and self.calls[-1][1] == "optimal":
            ok -= 1
        return ok


def _rolling_outcome(timer: _TimedSolve, slots: int, error: str | None) -> Outcome:
    latencies = [s for s, _ in timer.calls]
    if error is not None:
        committed = timer.committed(raised=True)
        return Outcome(slots, slots - committed, latencies, [error])
    out = Outcome(slots, 0, latencies)
    if len(timer.calls) != slots:
        out.problems.append(f"{len(timer.calls)} solve calls for {slots} slots")
    bad = [status for _, status in timer.calls if status != "optimal"]
    if bad:
        out.problems.append(f"{len(bad)} solves not optimal: {sorted(set(bad))}")
    return out


def _close(a: float, b: float, scale: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, scale)


def check_soc(specs, slot_hours: float, soc0, steps, tol: float) -> list[str]:
    """Every unit's SOC stays in its corridor and follows its committed flows.

    steps yields (slot, charge_kw, discharge_kw, soc) per committed slot, each
    of the last three a per-unit sequence.  The SOC is recomputed from the
    flows with s' = s + T*(eta_c*p_c - p_d/eta_d)/E.
    """
    problems = []
    soc = list(soc0)
    for slot, charge, discharge, booked in steps:
        for i, spec in enumerate(specs):
            soc[i] += slot_hours * (spec.eff_charge * charge[i]
                                    - discharge[i] / spec.eff_discharge) / spec.energy_capacity
            if not (spec.soc_min - SOC_TOL <= booked[i] <= spec.soc_max + SOC_TOL):
                problems.append(f"slot {slot}: ess {i} SOC {booked[i]} outside its corridor")
            if abs(soc[i] - booked[i]) > tol:
                problems.append(f"slot {slot}: ess {i} SOC {booked[i]} does not follow "
                                f"its committed flows ({soc[i]})")
                soc[i] = booked[i]  # report each departure once
    return problems


def check_report(report, specs, slot_hours: float, n_slots: int) -> list[str]:
    """SOC, ledger totals and the attributable-profit identity of one run."""
    problems = []
    if len(report.ledger) != n_slots:
        problems.append(f"ledger has {len(report.ledger)} of {n_slots} slots")
    problems += check_soc(specs, slot_hours, report.initial_soc,
                          ((e.slot, e.decision.charge_total, e.decision.discharge_total,
                            e.soc) for e in report.ledger), 1e-9)
    for entry in report.ledger:
        net = entry.r_sc + entry.r_fr + entry.r_sr + entry.r_br - entry.aging_cost
        if not _close(net, entry.net_profit, abs(net), 1e-9):
            problems.append(f"slot {entry.slot}: net profit is not the sum of "
                            "its revenues minus aging")
    for key, total in report.totals.items():
        values = [getattr(e, key) for e in report.ledger]
        if not _close(sum(values), total, sum(map(abs, values)), 1e-9):
            problems.append(f"ledger total {key} {total} != per-slot sum {sum(values)}")
    attributable = report.net_profit - report.baseline_profit
    if not _close(report.ess_attributable_profit, attributable,
                  abs(report.net_profit) + abs(report.baseline_profit), 1e-9):
        problems.append("ess_attributable_profit != net profit - baseline")
    return problems


class Workload:
    """Inputs of one workload plus how to run and check one pass.

    Subclasses take (seed, smoke, scratch): smoke shrinks the inputs, and
    scratch is a directory the workload may write into.
    """

    name = ""
    decision_span = ""

    def __init__(self, seed: int):
        self.seed = seed
        (self.specs, self.market, self.solver,
         self.forecast, self.run_config) = iofiles.load_config(CONFIG)

    def series(self, n_slots: int):
        """A generated series of n_slots drawn from the workload seed."""
        return fixture.generate_series(n_slots, self.seed,
                                       self.market.sale_price_ratio)

    def week(self, n_slots: int):
        """The first n_slots of the bundled week (data/fixture_week.csv)."""
        return fixture.generate_series(fixture.FIXTURE_SLOTS, fixture.FIXTURE_SEED,
                                       self.market.sale_price_ratio)[:n_slots]

    def warm_up(self) -> None:
        """Solve one tiny window so lazy imports finish before timing."""
        instance = essdispatch.build_problem(
            0, self.series(1), essdispatch.SocState(
                tuple(s.soc_min for s in self.specs)), self.specs, self.market)
        essdispatch.solve(instance, self.solver)

    def execute(self):
        raise NotImplementedError

    def check(self, outputs) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


class RollingH4(Workload):
    """run_simulation over the bundled week at H=4 with forecast errors.

    Why: the paper's main run.  The median slot solves at the root, so many
    small LPs dominate; consecutive windows overlap in H-1 slots; it is the
    only workload where forecast and repair do real work.

    The inputs are fixed: the bundled week and the config's forecast-error
    model at the config's seed.  Seeding the forecast errors instead moved a
    week's decisions_per_s between 7.2 and 9.9 and its p90 between 361 and
    565 ms over five seeds, because branch-and-bound effort is chaotic in the
    inputs, and a longer run does not fit the time one run may take.
    """

    name = "rolling-h4"
    decision_span = "rolling.accounting"
    horizon = 4

    def __init__(self, seed, smoke, scratch):
        super().__init__(seed)
        self.slots = self.week(12 if smoke else 168)

    def execute(self):
        report = error = None
        with _TimedSolve() as timer:
            try:
                report = essdispatch.run_simulation(
                    self.slots, self.specs, self.market, self.horizon,
                    forecast=self.forecast, config=self.solver,
                    initial_soc=self.run_config.initial_soc)
            except Exception as exc:  # a failed run still reports its slots
                error = _failure(exc)
        return report, timer, error

    def check(self, outputs) -> Outcome:
        report, timer, error = outputs
        out = _rolling_outcome(timer, len(self.slots), error)
        if report is not None:
            out.problems += check_report(report, self.specs, self.market.slot_hours,
                                         len(self.slots))
        return out


class WindowsH5(Workload):
    """Isolated H=5 windows of the bundled week: build_problem then solve.

    Why: the deep branch-and-bound tail.  Half of the unit SOCs sit at
    soc_min, where the rolling trajectory's hard slots are; the windows share
    nothing and there is no rolling, forecast, repair or IO.  The catalogue is
    fixed and the seed only orders it (see make_windows).
    """

    name = "windows-h5"
    decision_span = "solver.solve"
    horizon = 5

    def __init__(self, seed, smoke, scratch):
        super().__init__(seed)
        catalogue = make_windows(self.week(168), self.specs, self.horizon)
        if smoke:
            catalogue = catalogue[:4]
        order = np.random.default_rng(derive_seed(seed, 3)).permutation(len(catalogue))
        self.windows = [catalogue[k] for k in order]

    def execute(self):
        clock = time.perf_counter
        results = []
        latencies = []
        for t, window, state in self.windows:
            t0 = clock()
            try:
                instance = essdispatch.build_problem(t, window, state,
                                                     self.specs, self.market)
                result = essdispatch.solve(instance, self.solver)
            except Exception as exc:  # counted as one failed decision
                result = _failure(exc)
            latencies.append(clock() - t0)
            results.append(result)
        return results, latencies

    def check(self, outputs) -> Outcome:
        results, latencies = outputs
        out = Outcome(len(self.windows), 0, latencies)
        gap_tol = self.solver.gap_tol
        with WINDOW_REFERENCE.open() as fh:
            reference = {(w["t"], tuple(w["soc"])): w["objective"]
                         for w in json.load(fh)["windows"]}
        for (t, _, state), result in zip(self.windows, results):
            where = f"window t={t} soc={state.soc}"
            if isinstance(result, str):
                out.failed += 1
                out.problems.append(f"{where}: {result}")
                continue
            if result.status != "optimal":
                out.failed += 1
                out.problems.append(f"{where}: status {result.status}")
                continue
            scale = max(1.0, abs(result.objective))
            violations = check_solution(result.instance, result.x)
            if violations:
                out.problems.append(f"{where}: {violations[:3]}")
            if result.objective - result.bound > gap_tol * scale:
                out.problems.append(f"{where}: objective {result.objective} not "
                                    f"within gap of bound {result.bound}")
            ref = reference.get((t, state.soc))
            if ref is None:
                out.problems.append(f"{where}: no recorded objective")
            elif abs(result.objective - ref) > gap_tol * max(1.0, abs(ref)):
                out.problems.append(f"{where}: objective {result.objective} != "
                                    f"recorded {ref}")
        return out


def make_windows(week, specs, horizon: int, count: int = 100):
    """The fixed catalogue of windows over the bundled week.

    Window k starts at hour k mod 24 of a day drawn from a generator with a
    fixed seed, and pins pattern k // 25 of the units at soc_min: none, unit
    1, unit 2, or both.  An unpinned unit draws its SOC uniformly in its
    corridor.  So every pattern meets every hour of the day and half of the
    unit SOCs are pinned.

    The catalogue does not depend on the workload seed.  Branch-and-bound
    effort is chaotic in the inputs: over five seeded catalogues of 96
    windows, a pass took 15 to 37 s.  No run short enough to repeat
    averages that out, so a seeded catalogue would measure the draw, not the
    program.
    """
    rng = np.random.default_rng(derive_seed(fixture.FIXTURE_SEED, 2))
    days = (len(week) - horizon) // 24 + 1
    windows = []
    for k in range(count):
        pattern = k * 4 // count
        t = int(rng.integers(0, days)) * 24 + k % 24
        if t + horizon > len(week):
            t -= 24
        soc = tuple(spec.soc_min if pattern & (1 << i)
                    else float(rng.uniform(spec.soc_min, spec.soc_max))
                    for i, spec in enumerate(specs))
        windows.append((t, week[t:t + horizon], essdispatch.SocState(soc)))
    return windows


class SweepH1(Workload):
    """cli.run_experiment alpha-sweep over the default 9-point grid at H=1.

    Why: many shallow decisions, so per-window fixed costs (cut-pool set-up,
    build_problem) weigh most here; the only workload that writes reports and
    runs the sweep orchestration.
    """

    name = "sweep-h1"
    decision_span = "rolling.accounting"

    def __init__(self, seed, smoke, scratch):
        super().__init__(seed)
        self.slots = self.series(12 if smoke else 168)
        grid = self.run_config.alpha_grid[:3] if smoke else self.run_config.alpha_grid
        self.out_dir = scratch / "sweep-h1"
        self.run_config = dataclasses.replace(
            self.run_config, experiment="alpha-sweep", horizon=1,
            alpha_grid=grid, out_dir=str(self.out_dir))

    def execute(self):
        error = None
        with _TimedSolve() as timer:
            try:
                cli.run_experiment(self.slots, self.specs, self.market,
                                   self.solver, self.forecast, self.run_config)
            except Exception as exc:  # a failed sweep still reports its slots
                error = _failure(exc)
        return timer, error

    def check(self, outputs) -> Outcome:
        timer, error = outputs
        grid = self.run_config.alpha_grid
        out = _rolling_outcome(timer, len(grid) * len(self.slots), error)
        if error is None:
            out.problems += self._check_files(grid)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return out

    def _check_files(self, grid) -> list[str]:
        problems = []
        rows = {}
        with (self.out_dir / "alpha_sweep.csv").open(newline="") as fh:
            for rec in csv.DictReader(fh):
                rows[float(rec["alpha"])] = rec
        for alpha in grid:
            point = self.out_dir / f"alpha_{alpha:g}"
            where = f"alpha {alpha:g}"
            with (point / "ledger.csv").open(newline="") as fh:
                ledger = list(csv.DictReader(fh))
            with (point / "summary.json").open() as fh:
                summary = json.load(fh)
            if len(ledger) != len(self.slots):
                problems.append(f"{where}: ledger has {len(ledger)} slots")
            units = range(len(self.specs))
            # 9 significant digits per flow and SOC bound the drift of the
            # recomputed SOC over a week to about 1e-7.
            problems += [f"{where} {p}" for p in check_soc(
                self.specs, self.market.slot_hours,
                [self.run_config.initial_soc] * len(self.specs),
                ((rec["slot"], [float(rec[f"charge_kw_{i}"]) for i in units],
                  [float(rec[f"discharge_kw_{i}"]) for i in units],
                  [float(rec[f"soc_{i}"]) for i in units]) for rec in ledger), 1e-6)]
            # Files hold 9 significant digits, so sums agree to about 1e-9
            # of the summed magnitudes.
            for col, key in (("r_sc", "R_sc"), ("r_fr", "R_fr"), ("r_sr", "R_sr"),
                             ("r_br", "R_br"), ("aging_cost", "aging_cost"),
                             ("net_profit", "net_profit")):
                values = [float(rec[col]) for rec in ledger]
                scale = sum(map(abs, values)) + abs(summary[key])
                if not _close(sum(values), summary[key], scale, 1e-8):
                    problems.append(f"{where}: ledger total {col} != per-slot sum")
            attributable = summary["net_profit"] - summary["baseline_profit"]
            scale = abs(summary["net_profit"]) + abs(summary["baseline_profit"])
            if not _close(summary["ess_attributable_profit"], attributable, scale, 1e-8):
                problems.append(f"{where}: ess_attributable_profit != net - baseline")
            row = rows.get(float(f"{alpha:.9g}"))
            if row is None or not _close(float(row["net_profit"]),
                                         summary["net_profit"],
                                         abs(summary["net_profit"]), 1e-8):
                problems.append(f"{where}: alpha_sweep.csv disagrees with summary")
        return problems

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (RollingH4, WindowsH5, SweepH1)}
