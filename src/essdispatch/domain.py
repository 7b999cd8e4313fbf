"""Physical and market domain types shared by every other module.

All types are immutable values; the operations are pure functions, so scenario
workers can evaluate them concurrently without coordination.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Sequence

from .aging import DEFAULT_SEGMENTS, SegmentSet

MODULE_CAPACITY = 0.0081  # capacity of one battery module, used as E_cap divisor

# Effectively-unbounded grid export when the market does not restrict it.
EXPORT_UNBOUNDED = 1e9


@dataclass(frozen=True)
class EssSpec:
    """Static parameters of one storage unit."""

    id: int
    energy_capacity: float        # kWh
    soc_min: float
    soc_max: float
    charge_rate_max: float        # kW
    discharge_rate_max: float     # kW
    eff_charge: float
    eff_discharge: float
    unit_capital_cost: float      # currency per kWh
    charge_cost_fraction: float = 0.5
    aging_segments: SegmentSet = DEFAULT_SEGMENTS

    @property
    def module_count(self) -> float:
        return self.energy_capacity / MODULE_CAPACITY


@dataclass(frozen=True)
class MarketSpec:
    """Market-wide participation rules and the slot duration."""

    slot_hours: float = 1.0
    reg_min_power: float = 0.0        # kW
    reserve_min_power: float = 0.0    # kW
    reserve_min_duration: float = 0.0  # hours
    export_power_max: float = EXPORT_UNBOUNDED  # kW
    sale_price_ratio: float = 0.6


@dataclass(frozen=True)
class SlotExogenous:
    """All per-slot market, load, and renewable inputs (true or forecast)."""

    demand: float            # kW
    renewable: float         # kW
    price_purchase: float    # currency/kWh
    price_sale: float        # currency/kWh
    price_rmccp: float       # currency/kWh
    price_rmpcp: float       # currency/kWh
    perf_score: float
    mileage_ratio: float
    reg_up_flag: int
    price_reserve: float     # currency/kWh


@dataclass(frozen=True)
class SocState:
    """Per-ESS state of charge, as fractions of capacity."""

    soc: tuple[float, ...]

    def __len__(self):
        return len(self.soc)


@dataclass(frozen=True)
class DispatchDecision:
    """Per-slot power allocation across the four services.

    Per-ESS fields are tuples indexed like the spec list; the renewable split
    and the participation flags are shared across ESSs.
    """

    charge_total: tuple[float, ...]
    discharge_total: tuple[float, ...]
    charge_from_renewable: tuple[float, ...]
    charge_for_regulation: tuple[float, ...]
    discharge_for_regulation: tuple[float, ...]
    reserve_commit: tuple[float, ...]
    charge_future: tuple[float, ...]
    discharge_bill: tuple[float, ...]
    mode_flag: tuple[int, ...]
    renewable_selfuse: float
    renewable_export: float
    reg_participate: int
    reserve_participate: int

    @property
    def n_ess(self) -> int:
        return len(self.charge_total)

    def quantities(self) -> dict[str, float]:
        """The powers, each summed over the ESSs, by quantity: all that
        REVENUE_TERMS reads, directly or through SPLIT."""
        return {q: sum(v) if isinstance(v, tuple) else v
                for q, v in zip(_POWERS.values(), _power_fields(self))}


# The window quantity of each DispatchDecision field, in field order: a
# column of the window problem or a SPLIT quantity.  Per-ESS fields come
# first: flows, SPLIT's quantities, the mode flag; then the shared renewable
# split and participation flags.  recover_service_split decodes in this
# order and reads each SPLIT quantity as its first flow less the others.
DECISION_VARS = {
    "charge_total": "pc", "discharge_total": "pd", "charge_from_renewable": "prec",
    "charge_for_regulation": "pfrc", "discharge_for_regulation": "pfrd",
    "reserve_commit": "psr", "charge_future": "future", "discharge_bill": "bill",
    "mode_flag": "vc", "renewable_selfuse": "presc", "renewable_export": "pres",
    "reg_participate": "vfr", "reserve_participate": "vsr"}
# The power fields, all but the flags, and their quantities.
_POWERS = {f.name: DECISION_VARS[f.name] for f in fields(DispatchDecision)
           if "float" in f.type}
_power_fields = operator.attrgetter(*_POWERS)

# The four revenue streams, each booked per slot as slot_hours times a sum of
# sign * price * quantity terms.  Quantities are powers summed over the ESSs:
# pc / pd charge and discharge, prec charge from renewables, pfrc / pfrd the
# regulation shares, psr the reserve commitment, presc / pres the renewable
# self-use and export, and SPLIT's recovered future = pc - prec - pfrc (charge
# kept for later) and bill = pd - pfrd (discharge that cuts the bill).
REVENUE_TERMS = {
    "r_sc": (("purchase", "prec", 1), ("purchase", "presc", 1), ("sale", "pres", 1)),
    "r_fr": (("reg_c", "pfrc", 1), ("reg_d", "pfrd", 1),
             ("purchase", "pfrd", 1), ("purchase", "pfrc", -1)),
    "r_sr": (("reserve", "psr", 1),),
    "r_br": (("purchase", "bill", 1), ("purchase", "future", -1)),
}
SPLIT = {"future": {"pc": 1, "prec": -1, "pfrc": -1}, "bill": {"pd": 1, "pfrd": -1}}


def slot_prices(slot: SlotExogenous) -> dict[str, float]:
    """The prices of REVENUE_TERMS in one slot.  Regulation capacity and
    mileage pay on the charge side (reg_c) in a down-regulation slot and on
    the discharge side (reg_d) in an up-regulation slot."""
    u = slot.reg_up_flag
    reg = slot.perf_score * (slot.price_rmccp + slot.price_rmpcp * slot.mileage_ratio)
    return {"purchase": slot.price_purchase, "sale": slot.price_sale,
            "reg_c": reg * (1 - u), "reg_d": reg * u, "reserve": slot.price_reserve}


def stream_revenue(stream: str, prices: dict[str, float],
                   quantities: dict[str, float], slot_hours: float) -> float:
    """One of a slot's revenue streams; a quantity left out counts 0."""
    return slot_hours * sum(sign * prices[price] * quantities.get(q, 0.0)
                            for price, q, sign in REVENUE_TERMS[stream])


def slot_revenues(slot: SlotExogenous, quantities: dict[str, float],
                  slot_hours: float) -> dict[str, float]:
    """The four revenue streams of one slot; a quantity left out counts 0."""
    prices = slot_prices(slot)
    return {stream: stream_revenue(stream, prices, quantities, slot_hours)
            for stream in REVENUE_TERMS}


def idle_decision(n_ess: int) -> DispatchDecision:
    """Every DECISION_VARS quantity 0: 0.0 for a power, 0 for a flag, one
    per ESS where the field is a tuple."""
    zero = {"float": 0.0, "int": 0, "tuple[float, ...]": (0.0,) * n_ess,
            "tuple[int, ...]": (0,) * n_ess}
    return DispatchDecision(*(zero[f.type] for f in fields(DispatchDecision)))


def soc_update(state: SocState, decision: DispatchDecision,
               specs: Sequence[EssSpec], slot_hours: float) -> SocState:
    """Advance the SOC one slot: s' = s + T_s*(eta_c*p_c - p_d/eta_d)/E_cap.

    Evaluates the dynamics exactly and never clamps; keeping the result inside
    the SOC corridor is the optimizer's job, detecting violations the caller's.
    """
    if len(state) != len(specs) or decision.n_ess != len(specs):
        raise ValueError(
            f"ESS count mismatch: state has {len(state)}, specs {len(specs)}, "
            f"decision {decision.n_ess}")
    soc = []
    for i, spec in enumerate(specs):
        delta = slot_hours * (spec.eff_charge * decision.charge_total[i]
                              - decision.discharge_total[i] / spec.eff_discharge)
        soc.append(state.soc[i] + delta / spec.energy_capacity)
    return SocState(tuple(soc))


def _check_finite(tag: str, record, out: list[str]) -> None:
    """Flag every NaN or infinite number field of a spec, market or slot."""
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, (int, float)) and not math.isfinite(value):
            out.append(f"{tag}: {f.name} {value} is not finite")


def _check_spec(spec: EssSpec, out: list[str]) -> None:
    tag = f"ess {spec.id}"
    _check_finite(tag, spec, out)
    for k, (a, b) in enumerate(spec.aging_segments.segments):
        if not (math.isfinite(a) and math.isfinite(b)):
            out.append(f"{tag}: aging segment {k} ({a}, {b}) is not finite")
    if not (0.0 < spec.soc_min < spec.soc_max < 1.0):
        out.append(f"{tag}: requires 0 < soc_min < soc_max < 1, "
                   f"got {spec.soc_min}, {spec.soc_max}")
    if not (0.0 < spec.eff_charge < 1.0):
        out.append(f"{tag}: eff_charge {spec.eff_charge} outside (0,1)")
    if not (0.0 < spec.eff_discharge < 1.0):
        out.append(f"{tag}: eff_discharge {spec.eff_discharge} outside (0,1)")
    if not spec.energy_capacity > 0:
        out.append(f"{tag}: energy_capacity must be > 0")
    for name in ("charge_rate_max", "discharge_rate_max", "unit_capital_cost"):
        if getattr(spec, name) < 0:
            out.append(f"{tag}: {name} must be >= 0")
    if not (0.0 <= spec.charge_cost_fraction <= 1.0):
        out.append(f"{tag}: charge_cost_fraction {spec.charge_cost_fraction} outside [0,1]")
    if len(spec.aging_segments) == 0:
        out.append(f"{tag}: empty aging segment set")


def validate_inputs(specs: Sequence[EssSpec], market: MarketSpec,
                    series: Sequence[SlotExogenous]) -> tuple[str, ...]:
    """A message for each violated documented invariant, in a tuple;
    downstream code assumes an empty one."""
    out: list[str] = []
    for spec in specs:
        _check_spec(spec, out)
    _check_finite("market", market, out)
    if market.slot_hours <= 0:
        out.append(f"market: slot_hours {market.slot_hours} must be > 0")
    for name in ("reg_min_power", "reserve_min_power", "reserve_min_duration",
                 "export_power_max", "sale_price_ratio"):
        if getattr(market, name) < 0:
            out.append(f"market: {name} must be >= 0")
    for t, slot in enumerate(series):
        _check_finite(f"slot {t}", slot, out)
        if slot.demand < 0:
            out.append(f"slot {t}: demand {slot.demand} < 0")
        if slot.renewable < 0:
            out.append(f"slot {t}: renewable {slot.renewable} < 0")
        for name in ("price_purchase", "price_sale", "price_rmccp",
                     "price_rmpcp", "price_reserve", "mileage_ratio"):
            if getattr(slot, name) < 0:
                out.append(f"slot {t}: {name} < 0")
        if not (0.0 <= slot.perf_score <= 1.0):
            out.append(f"slot {t}: perf_score {slot.perf_score} outside [0,1]")
        if slot.reg_up_flag not in (0, 1):
            out.append(f"slot {t}: reg_up_flag {slot.reg_up_flag} not binary")
    return tuple(out)
