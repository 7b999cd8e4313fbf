"""Rolling-horizon simulation over a full series of slots.

At each decision time the engine builds a horizon from forecasts (the current
slot always uses true data), solves the dispatch problem, commits only the
first slot after repairing it against the realized renewable output, advances
the SOC, and books realized revenues at true prices.  The no-storage baseline
isolates the profit attributable to the ESSs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .aging import aging_cost_eval
from .domain import (REVENUE_TERMS, DispatchDecision, EssSpec, MarketSpec,
                     SlotExogenous, SocState, slot_revenues, soc_update,
                     validate_inputs)
from .problem import build_problem
from .solver import ModelSet, SolverConfig, solve


# The slot fields a forecast perturbs; the others are known in advance.
FORECAST_SIGNALS = ("demand", "renewable", "price_rmccp", "price_rmpcp",
                    "price_reserve")


@dataclass(frozen=True)
class ForecastModel:
    """Uniform zero-mean forecast errors, scaled by slot-to-slot changes.

    The maximum error at lookahead h is error_schedule(h) times the absolute
    change of the true signal between slots t+h-1 and t+h; forecasts are
    clamped to [clamp_low*min, clamp_high*max] of the true series.
    """

    kappa_step: float = 0.1
    kappa_cap: float = 0.5
    clamp_low: float = 0.8
    clamp_high: float = 1.2
    seed: int = 0

    def __post_init__(self):
        for name in ("kappa_step", "kappa_cap"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be >= 0 and finite")
        if not (np.isfinite(self.clamp_low) and np.isfinite(self.clamp_high)):
            raise ValueError("clamp_low and clamp_high must be finite")
        if self.clamp_low > self.clamp_high:
            raise ValueError("clamp_low must be <= clamp_high")

    def error_schedule(self, h: int) -> float:
        """Forecast-error proportionality, growing with the lookahead step."""
        return min(self.kappa_step * h, self.kappa_cap)


PERFECT_FORECAST = ForecastModel(kappa_step=0.0, kappa_cap=0.0)


# The LedgerEntry fields a run totals, in ledger column order.
LEDGER_TOTALS = (*REVENUE_TERMS, "aging_cost", "net_profit")


@dataclass(frozen=True)
class LedgerEntry:
    slot: int
    r_sc: float
    r_fr: float
    r_sr: float
    r_br: float
    aging_cost: float
    net_profit: float
    decision: DispatchDecision
    soc: tuple[float, ...]


@dataclass
class SimulationReport:
    ledger: list[LedgerEntry]
    totals: dict[str, float]
    baseline_profit: float
    initial_soc: tuple[float, ...]
    node_counts: list[int] = field(default_factory=list)

    @property
    def net_profit(self) -> float:
        return self.totals["net_profit"]

    @property
    def ess_attributable_profit(self) -> float:
        return self.totals["net_profit"] - self.baseline_profit


def perturb_forecast(true_series: Sequence[SlotExogenous], t: int, h: int,
                     model: ForecastModel, rng: np.random.Generator,
                     ranges: dict[str, tuple[float, float]]) -> SlotExogenous:
    """Forecast of slot t+h made at time t.

    ranges maps each perturbed signal to (min, max) over the true series; the
    caller precomputes it once per run so clamping is O(1) per draw.
    """
    if not (1 <= h and t + h < len(true_series)):
        raise IndexError(f"lookahead t={t}, h={h} outside the series")
    truth = true_series[t + h]
    prev = true_series[t + h - 1]
    kappa = model.error_schedule(h)
    updates = {}
    for name in FORECAST_SIGNALS:
        x = getattr(truth, name)
        emax = kappa * abs(x - getattr(prev, name))
        value = x + rng.uniform(-emax, emax)
        lo, hi = ranges[name]
        updates[name] = min(max(value, model.clamp_low * lo), model.clamp_high * hi)
    return replace(truth, **updates)


def signal_ranges(true_series: Sequence[SlotExogenous]
                  ) -> dict[str, tuple[float, float]]:
    return {name: (min(getattr(s, name) for s in true_series),
                   max(getattr(s, name) for s in true_series))
            for name in FORECAST_SIGNALS}


def repair_dispatch(committed: DispatchDecision, true_slot: SlotExogenous,
                    state: SocState, specs: Sequence[EssSpec],
                    market: MarketSpec) -> DispatchDecision:
    """Make a committed decision feasible against realized data.

    Only the renewable-dependent terms are touched: export is cut first, then
    each renewable-charge share proportionally (which also reduces the total
    charge), then direct self-use, until the renewable balance holds.  Market
    commitments (regulation, reserve) are kept.
    """
    selfuse = min(committed.renewable_selfuse, true_slot.demand)
    export = committed.renewable_export
    prec = list(committed.charge_from_renewable)
    pc = list(committed.charge_total)
    excess = selfuse + export + sum(prec) - true_slot.renewable
    if excess > 0:
        cut = min(export, excess)
        export -= cut
        excess -= cut
    if excess > 0 and sum(prec) > 0:
        shrink = max(0.0, 1.0 - excess / sum(prec))
        for i in range(len(prec)):
            cut = prec[i] * (1.0 - shrink)
            prec[i] -= cut
            pc[i] = max(0.0, pc[i] - cut)
        excess = selfuse + export + sum(prec) - true_slot.renewable
    if excess > 0:
        selfuse = max(0.0, selfuse - excess)
    return replace(committed, renewable_selfuse=selfuse, renewable_export=export,
                   charge_from_renewable=tuple(prec), charge_total=tuple(pc))


def realized_revenues(decision: DispatchDecision, true_slot: SlotExogenous,
                      specs: Sequence[EssSpec],
                      market: MarketSpec) -> dict[str, float]:
    """Evaluate the four service revenues, REVENUE_TERMS on the decision's
    sums over the ESSs, and the aging cost at true prices."""
    ts = market.slot_hours
    rev = slot_revenues(true_slot, decision.quantities(), ts)
    rev["aging_cost"] = sum(aging_cost_eval(spec, decision.charge_total[i],
                                            decision.discharge_total[i], ts)
                            for i, spec in enumerate(specs))
    return rev


def no_ess_baseline(true_series: Sequence[SlotExogenous],
                    market: MarketSpec) -> float:
    """Optimal profit without storage: self-consume, export, curtail the rest,
    booked as R_sc.

    Greedy per slot is optimal because the slots decouple without storage and
    the purchase price is at least the sale price.
    """
    total = 0.0
    for slot in true_series:
        selfuse = min(slot.demand, slot.renewable)
        export = min(market.export_power_max, slot.renewable - selfuse)
        total += slot_revenues(slot, {"presc": selfuse, "pres": export},
                               market.slot_hours)["r_sc"]
    return total


class SimulationError(RuntimeError):
    pass


def run_simulation(true_series: Sequence[SlotExogenous],
                   specs: Sequence[EssSpec], market: MarketSpec, horizon: int,
                   forecast: ForecastModel | None = None,
                   config: SolverConfig = SolverConfig(),
                   initial_soc: float | Sequence[float] = 0.5) -> SimulationReport:
    """Roll the optimization over the whole series, committing one slot at a time.

    Raises ValueError, before any solve, if the inputs break an invariant
    that validate_inputs checks or the horizon is below 1.
    """
    problems = validate_inputs(specs, market, true_series).violations
    if problems:
        raise ValueError("invalid simulation inputs: " + "; ".join(problems))
    if horizon < 1:
        raise ValueError(f"horizon {horizon} must be >= 1")
    n_slots = len(true_series)
    if n_slots < horizon:
        raise ValueError(f"series of {n_slots} slots shorter than horizon {horizon}")
    init = ((float(initial_soc),) * len(specs)
            if isinstance(initial_soc, (int, float)) else tuple(initial_soc))
    soc = SocState(init)
    rng = np.random.default_rng(forecast.seed) if forecast is not None else None
    ranges = signal_ranges(true_series) if forecast is not None else None

    ledger: list[LedgerEntry] = []
    node_counts: list[int] = []
    # The run's warm model: local to the run, so no basis outlives it.
    models = ModelSet()
    for t in range(n_slots):
        h_eff = min(horizon, n_slots - t)
        window = [true_series[t]]
        for h in range(1, h_eff):
            if forecast is None:
                window.append(true_series[t + h])
            else:
                window.append(perturb_forecast(true_series, t, h, forecast,
                                               rng, ranges))
        instance = build_problem(t, window, soc, specs, market)
        result = solve(instance, config, models)
        if result.status != "optimal":
            raise SimulationError(f"solver returned {result.status} at slot {t}")
        node_counts.append(result.node_count)
        committed = repair_dispatch(result.decisions[0], true_series[t], soc,
                                    specs, market)
        soc = soc_update(soc, committed, specs, market.slot_hours)
        rev = realized_revenues(committed, true_series[t], specs, market)
        net = sum(rev[stream] for stream in REVENUE_TERMS) - rev["aging_cost"]
        ledger.append(LedgerEntry(slot=t, net_profit=net, decision=committed,
                                  soc=soc.soc, **rev))

    totals = {key: sum(getattr(e, key) for e in ledger) for key in LEDGER_TOTALS}
    baseline = no_ess_baseline(true_series, market)
    return SimulationReport(ledger=ledger, totals=totals, baseline_profit=baseline,
                            initial_soc=init, node_counts=node_counts)
