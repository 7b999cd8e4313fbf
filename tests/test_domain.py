import dataclasses

import pytest
from hypothesis import given, strategies as st

from essdispatch.aging import SegmentSet
from essdispatch.domain import (MODULE_CAPACITY, MarketSpec, SlotExogenous,
                                SocState, idle_decision, soc_update,
                                validate_inputs)
from essdispatch.rolling import run_simulation

from conftest import make_spec


def decision_with(n_ess, charge=(0.0,), discharge=(0.0,)):
    d = idle_decision(n_ess)
    return dataclasses.replace(d, charge_total=charge, discharge_total=discharge)


class TestSocUpdate:
    def test_type1_charge(self, spec1):
        # 0.5 + 1*(0.82*102)/480
        d = decision_with(1, charge=(102.0,), discharge=(0.0,))
        new = soc_update(SocState((0.5,)), d, [spec1], 1.0)
        assert new.soc[0] == pytest.approx(0.674250, abs=1e-6)

    def test_zero_power_identity(self, spec1):
        new = soc_update(SocState((0.37,)), idle_decision(1), [spec1], 1.0)
        assert new.soc[0] == 0.37

    def test_type2_discharge(self, spec2):
        d = decision_with(1, charge=(0.0,), discharge=(113.0,))
        new = soc_update(SocState((0.9,)), d, [spec2], 1.0)
        assert new.soc[0] == pytest.approx(0.725617, abs=1e-6)

    def test_count_mismatch(self, spec1, spec2):
        with pytest.raises(ValueError, match="mismatch"):
            soc_update(SocState((0.5,)), idle_decision(1), [spec1, spec2], 1.0)

    @given(charge=st.floats(0, 102), discharge=st.floats(0, 74),
           lam=st.floats(0, 1))
    def test_linearity_in_rates(self, charge, discharge, lam):
        spec = make_spec(1)
        full = decision_with(1, (charge,), (discharge,))
        scaled = decision_with(1, (lam * charge,), (lam * discharge,))
        s0 = SocState((0.5,))
        d_full = soc_update(s0, full, [spec], 1.0).soc[0] - 0.5
        d_scaled = soc_update(s0, scaled, [spec], 1.0).soc[0] - 0.5
        assert d_scaled == pytest.approx(lam * d_full, abs=1e-12)

    @given(charge=st.floats(1.0, 102))
    def test_round_trip_loses_energy(self, charge):
        # Charging then discharging back to the same SOC delivers only
        # eff_charge*eff_discharge of the energy drawn.
        spec = make_spec(1)
        s0 = SocState((0.5,))
        up = soc_update(s0, decision_with(1, (charge,), (0.0,)), [spec], 1.0)
        stored = (up.soc[0] - 0.5) * spec.energy_capacity
        discharge = stored * spec.eff_discharge  # rate that returns SOC to 0.5
        down = soc_update(up, decision_with(1, (0.0,), (discharge,)), [spec], 1.0)
        assert down.soc[0] == pytest.approx(0.5, abs=1e-12)
        delivered = discharge * 1.0
        drawn = charge * 1.0
        assert delivered == pytest.approx(
            spec.eff_charge * spec.eff_discharge * drawn, rel=1e-12)
        assert delivered < drawn


class TestValidateInputs:
    def test_fixture_passes(self, specs, market, short_series):
        assert validate_inputs(specs, market, short_series) == ()

    def test_soc_bounds_ordering(self, market):
        bad = make_spec(1, soc_min=0.9, soc_max=0.2)
        problems = validate_inputs([bad], market, [])
        assert any("soc_min < soc_max" in v for v in problems)

    def test_negative_demand_names_slot(self, specs, market, short_series):
        series = list(short_series)
        series[7] = dataclasses.replace(series[7], demand=-5.0)
        problems = validate_inputs(specs, market, series)
        assert any(v.startswith("slot 7") for v in problems)

    @pytest.mark.parametrize("field,value,fragment", [
        ("eff_charge", 1.5, "eff_charge"),
        ("eff_discharge", 0.0, "eff_discharge"),
        ("energy_capacity", -1.0, "energy_capacity"),
        ("charge_cost_fraction", 1.2, "charge_cost_fraction"),
    ])
    def test_single_field_mutations(self, market, field, value, fragment):
        bad = make_spec(1, **{field: value})
        problems = validate_inputs([bad], market, [])
        assert any(fragment in v for v in problems)

    def test_bad_reg_flag(self, specs, market, short_series):
        series = list(short_series)
        series[3] = dataclasses.replace(series[3], reg_up_flag=2)
        problems = validate_inputs(specs, market, series)
        assert any("reg_up_flag" in v and "slot 3" in v
                   for v in problems)

    def test_zero_energy_capacity_rejected(self, market):
        problems = validate_inputs([make_spec(1, energy_capacity=0.0)], market, [])
        assert "ess 1: energy_capacity must be > 0" in problems

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", [
        "energy_capacity", "soc_min", "soc_max", "charge_rate_max",
        "discharge_rate_max", "eff_charge", "eff_discharge",
        "unit_capital_cost", "charge_cost_fraction"])
    def test_non_finite_spec_field(self, market, field, value):
        problems = validate_inputs([make_spec(1, **{field: value})], market, [])
        assert f"ess 1: {field} {value} is not finite" in problems

    def test_non_finite_aging_segment(self, market):
        bad = make_spec(1, aging_segments=SegmentSet(((1e-5, float("nan")),)))
        problems = validate_inputs([bad], market, [])
        assert any("aging segment 0" in v for v in problems)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(MarketSpec)])
    def test_non_finite_market_field(self, field):
        market = dataclasses.replace(MarketSpec(), **{field: float("nan")})
        problems = validate_inputs([], market, [])
        assert f"market: {field} nan is not finite" in problems

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SlotExogenous)])
    def test_non_finite_slot_field(self, short_series, field):
        series = list(short_series)
        series[2] = dataclasses.replace(series[2], **{field: float("inf")})
        problems = validate_inputs([], MarketSpec(), series)
        assert f"slot 2: {field} inf is not finite" in problems

    def test_module_count_derived(self, spec1):
        assert spec1.module_count == pytest.approx(480.0 / 0.0081, rel=1e-12)

    def test_replaced_capacity_validates_and_runs(self, spec1, market, short_series):
        spec = dataclasses.replace(spec1, energy_capacity=720.0)
        assert spec.module_count == 720.0 / MODULE_CAPACITY
        assert validate_inputs([spec], market, short_series) == ()
        report = run_simulation(short_series[:3], [spec], market, 2)
        assert len(report.ledger) == 3
