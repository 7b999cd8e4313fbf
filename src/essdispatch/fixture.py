"""Seeded synthetic one-week series used by tests and the bundled examples.

The generator replaces the proprietary demand/PV/market traces with a diurnal
demand curve, a daytime PV curve whose peak is 60% of the peak demand, and a
three-tier time-of-use purchase price.  Everything is deterministic in the
seed, so re-running it reproduces the bundled CSV byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import SlotExogenous

FIXTURE_SEED = 20160521
FIXTURE_SLOTS = 168  # one week, hourly

DEMAND_BASE = 400.0   # kW
DEMAND_SWING = 350.0  # kW peak-to-base diurnal amplitude
PV_PEAK_FRACTION = 0.6

# Three-tier TOU purchase prices, currency/kWh.
PRICE_OFF_PEAK = 0.08
PRICE_MID_PEAK = 0.13
PRICE_ON_PEAK = 0.20


def tou_price(hour_of_day: int) -> float:
    if 12 <= hour_of_day < 18:
        return PRICE_ON_PEAK
    if 8 <= hour_of_day < 12 or 18 <= hour_of_day < 22:
        return PRICE_MID_PEAK
    return PRICE_OFF_PEAK


def generate_series(n_slots: int = FIXTURE_SLOTS,
                    seed: int = FIXTURE_SEED,
                    sale_price_ratio: float = 0.6) -> list[SlotExogenous]:
    rng = np.random.default_rng(seed)
    demand = []
    for t in range(n_slots):
        hour = t % 24
        # Daily hump centered mid-afternoon, plus mild weekday variation.
        shape = max(0.0, math.sin(math.pi * (hour - 5) / 16.0)) ** 1.5
        weekday = 1.0 - 0.08 * ((t // 24) % 7 >= 5)
        noise = 1.0 + 0.05 * rng.standard_normal()
        demand.append(max(50.0, (DEMAND_BASE + DEMAND_SWING * shape)
                          * weekday * noise))
    pv_peak = PV_PEAK_FRACTION * max(demand)
    series = []
    for t in range(n_slots):
        hour = t % 24
        if 7 <= hour <= 19:
            bell = math.sin(math.pi * (hour - 7) / 12.0) ** 2
            cloud = max(0.0, 1.0 - abs(0.15 * rng.standard_normal()))
            pv = pv_peak * bell * cloud
        else:
            pv = 0.0
        purchase = tou_price(hour)
        # Regulation prices are kept modest, yet they carry the storage
        # value: with the bundled config a time-of-use cycle earns less per
        # kWh than the aging it costs, so R_br is 0 and the batteries earn
        # regulation revenue minus aging.
        rmccp = max(0.0, 0.010 + 0.004 * rng.standard_normal())
        rmpcp = max(0.0, 0.0033 + 0.0013 * rng.standard_normal())
        series.append(SlotExogenous(
            demand=round(demand[t], 3), renewable=round(pv, 3),
            price_purchase=purchase, price_sale=sale_price_ratio * purchase,
            price_rmccp=round(rmccp, 6), price_rmpcp=round(rmpcp, 6),
            perf_score=round(0.85 + 0.13 * rng.uniform(), 4),
            mileage_ratio=round(1.0 + 2.0 * rng.uniform(), 4),
            reg_up_flag=int(rng.uniform() < 0.5),
            # Reserve capacity earns revenue without cycling the battery, so
            # any positive price keeps storage profitable at every capital
            # cost; the bundled week prices it at zero to keep the capital
            # cost sweep meaningful.
            price_reserve=0.0))
    return series


def main() -> None:  # pragma: no cover
    """Regenerate data/fixture_week.csv."""
    from .iofiles import write_timeseries_csv

    write_timeseries_csv("data/fixture_week.csv", generate_series())


if __name__ == "__main__":  # pragma: no cover
    main()
