import dataclasses

import pytest

from essdispatch.domain import EssSpec, MarketSpec
from essdispatch.fixture import generate_series


def make_spec(i: int = 1, **overrides) -> EssSpec:
    """Storage units shaped like the two bundled types."""
    base = {
        1: dict(id=1, energy_capacity=480.0, soc_min=0.2, soc_max=0.9,
                charge_rate_max=102.0, discharge_rate_max=74.0,
                eff_charge=0.82, eff_discharge=0.88, unit_capital_cost=100.0),
        2: dict(id=2, energy_capacity=720.0, soc_min=0.2, soc_max=0.9,
                charge_rate_max=148.0, discharge_rate_max=113.0,
                eff_charge=0.85, eff_discharge=0.90, unit_capital_cost=100.0),
    }[i]
    base.update(overrides)
    return EssSpec(**base)


def with_rows(inst, rows, **fields):
    """inst with linear rows other than build_problem's: on a copy of its
    template that holds rows, with their right-hand sides, and with fields
    replaced."""
    template = dataclasses.replace(inst.template, rows=rows)
    return dataclasses.replace(inst, template=template, rhs=rows.rhs, **fields)


@pytest.fixture
def spec1():
    return make_spec(1)


@pytest.fixture
def spec2():
    return make_spec(2)


@pytest.fixture
def specs(spec1, spec2):
    return [spec1, spec2]


@pytest.fixture
def market():
    return MarketSpec(slot_hours=1.0, reg_min_power=100.0,
                      reserve_min_power=100.0, reserve_min_duration=1.0)


@pytest.fixture(scope="session")
def week_series():
    return generate_series()


@pytest.fixture
def short_series(week_series):
    return week_series[:8]


# Acceptance tests register one pass/fail line per criterion here; the hook
# replays them after the run so they survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
