import dataclasses
import itertools
import pickle
import time
import weakref

import numpy as np
import pytest

from essdispatch import rolling
from essdispatch.domain import SlotExogenous, SocState, idle_decision, soc_update
from essdispatch.fixture import generate_series
from essdispatch.iofiles import load_config
from essdispatch.problem import build_problem, check_solution, decompose_at_point
from essdispatch.rolling import (ForecastModel, no_ess_baseline, perturb_forecast,
                                 realized_revenues, repair_dispatch,
                                 run_simulation, signal_ranges)
from essdispatch import solver
from essdispatch.solver import brute_force_oracle, solve

from conftest import BUNDLED_CONFIG, make_spec
from test_solver import rand_slot


def base_slot(**overrides):
    values = dict(demand=500.0, renewable=200.0, price_purchase=0.2,
                  price_sale=0.12, price_rmccp=0.03, price_rmpcp=0.01,
                  perf_score=0.9, mileage_ratio=2.0, reg_up_flag=0,
                  price_reserve=0.01)
    values.update(overrides)
    return SlotExogenous(**values)


class TestErrorSchedule:
    def test_grows_then_caps(self):
        assert ForecastModel().error_schedule(1) == pytest.approx(0.1)
        assert ForecastModel().error_schedule(4) == pytest.approx(0.4)
        assert ForecastModel().error_schedule(5) == pytest.approx(0.5)
        assert ForecastModel().error_schedule(9) == pytest.approx(0.5)

    def test_model_is_plain_data(self):
        model = ForecastModel(kappa_step=0.2, kappa_cap=0.3, seed=4)
        assert pickle.loads(pickle.dumps(model)) == model
        assert ForecastModel(kappa_step=0.0, kappa_cap=0.0).error_schedule(7) == 0.0


class TestPerturbForecast:
    def series(self):
        return [base_slot(demand=400.0 + 40.0 * t, renewable=100.0 + 10.0 * t)
                for t in range(6)]

    def test_error_distribution(self):
        # error at lookahead h is uniform on +-kappa_h*|step change|
        series = self.series()
        model = ForecastModel()
        rng = np.random.default_rng(0)
        ranges = signal_ranges(series)
        h = 3
        emax = model.error_schedule(h) * 40.0  # demand step is 40
        errors = np.array([
            perturb_forecast(series, 0, h, model, rng, ranges).demand
            - series[h].demand for _ in range(100_000)])
        assert errors.max() <= emax + 1e-12
        assert errors.min() >= -emax - 1e-12
        assert abs(errors.mean()) < 0.05 * emax
        # uniform, not concentrated: both outer quartiles well populated
        assert (errors > 0.5 * emax).mean() == pytest.approx(0.25, abs=0.02)
        assert (errors < -0.5 * emax).mean() == pytest.approx(0.25, abs=0.02)

    def test_clamped_to_series_range(self):
        series = self.series()
        model = ForecastModel(kappa_step=10.0, kappa_cap=10.0)
        rng = np.random.default_rng(1)
        ranges = signal_ranges(series)
        lo, hi = ranges["demand"]
        for _ in range(2000):
            f = perturb_forecast(series, 0, 2, model, rng, ranges)
            assert 0.8 * lo - 1e-12 <= f.demand <= 1.2 * hi + 1e-12

    def test_zero_schedule_exact(self):
        series = self.series()
        rng = np.random.default_rng(2)
        ranges = signal_ranges(series)
        zero = ForecastModel(kappa_step=0.0, kappa_cap=0.0)
        f = perturb_forecast(series, 1, 2, zero, rng, ranges)
        assert f == series[3]

    def test_unperturbed_fields_kept(self):
        series = self.series()
        model = ForecastModel(kappa_step=0.5, kappa_cap=0.5)
        rng = np.random.default_rng(3)
        f = perturb_forecast(series, 0, 1, model, rng, signal_ranges(series))
        truth = series[1]
        assert f.price_purchase == truth.price_purchase
        assert f.price_sale == truth.price_sale
        assert f.reg_up_flag == truth.reg_up_flag
        assert f.perf_score == truth.perf_score
        assert f.mileage_ratio == truth.mileage_ratio

    def test_lookahead_bounds(self):
        series = self.series()
        model = ForecastModel()
        rng = np.random.default_rng(4)
        ranges = signal_ranges(series)
        with pytest.raises(IndexError):
            perturb_forecast(series, 0, 0, model, rng, ranges)
        with pytest.raises(IndexError):
            perturb_forecast(series, 3, 3, model, rng, ranges)


class TestRepairDispatch:
    def committed(self, selfuse=50.0, export=20.0, prec=(30.0,), pc=(40.0,)):
        d = idle_decision(1)
        return dataclasses.replace(
            d, renewable_selfuse=selfuse, renewable_export=export,
            charge_from_renewable=prec, charge_total=pc)

    def test_no_shortfall_untouched(self, spec1, market):
        d = self.committed()
        out = repair_dispatch(d, base_slot(renewable=100.0), SocState((0.5,)),
                              [spec1], market)
        assert out == d

    def test_export_cut_first_then_charge(self, spec1, market):
        # committed 100 kW of renewable use, only 60 realized: export (20)
        # goes first, then renewable charge shrinks by the remaining 20
        d = self.committed()
        out = repair_dispatch(d, base_slot(renewable=60.0), SocState((0.5,)),
                              [spec1], market)
        assert out.renewable_export == pytest.approx(0.0)
        assert out.charge_from_renewable[0] == pytest.approx(10.0)
        assert out.charge_total[0] == pytest.approx(20.0)  # cut follows through
        assert out.renewable_selfuse == pytest.approx(50.0)

    def test_selfuse_cut_last(self, spec1, market):
        d = self.committed()
        out = repair_dispatch(d, base_slot(renewable=30.0), SocState((0.5,)),
                              [spec1], market)
        assert out.renewable_export == pytest.approx(0.0)
        assert out.charge_from_renewable[0] == pytest.approx(0.0)
        assert out.renewable_selfuse == pytest.approx(30.0)

    def test_selfuse_capped_by_demand(self, spec1, market):
        d = self.committed(selfuse=80.0, export=0.0, prec=(0.0,), pc=(0.0,))
        out = repair_dispatch(d, base_slot(demand=70.0, renewable=100.0),
                              SocState((0.5,)), [spec1], market)
        assert out.renewable_selfuse == pytest.approx(70.0)

    def test_proportional_shrink_across_units(self, specs, market):
        d = dataclasses.replace(
            idle_decision(2), renewable_selfuse=0.0, renewable_export=0.0,
            charge_from_renewable=(30.0, 60.0), charge_total=(30.0, 60.0))
        out = repair_dispatch(d, base_slot(renewable=45.0), SocState((0.5, 0.5)),
                              specs, market)
        assert out.charge_from_renewable[0] == pytest.approx(15.0)
        assert out.charge_from_renewable[1] == pytest.approx(30.0)
        balance = (out.renewable_selfuse + out.renewable_export
                   + sum(out.charge_from_renewable))
        assert balance == pytest.approx(45.0)

    def test_market_commitments_untouched(self, spec1, market):
        d = dataclasses.replace(
            self.committed(), charge_for_regulation=(20.0,),
            reserve_commit=(40.0,), reg_participate=1, reserve_participate=1)
        out = repair_dispatch(d, base_slot(renewable=0.0), SocState((0.5,)),
                              [spec1], market)
        assert out.charge_for_regulation == (20.0,)
        assert out.reserve_commit == (40.0,)


class TestRealizedRevenues:
    def test_hand_computed_example(self, spec1, market):
        # r_sc = 0.2*(50+10) + 0.12*5 = 12.6
        # r_fr = 1.0*16*(0.03+0.01*2) + 0.2*16 = 4.0   (up-regulation slot)
        # r_sr = 0.01*50 = 0.5
        # r_br = 0.2*(30-12) = 3.6
        slot = base_slot(perf_score=1.0, reg_up_flag=1)
        d = dataclasses.replace(
            idle_decision(1), renewable_selfuse=50.0, renewable_export=5.0,
            charge_from_renewable=(10.0,), discharge_for_regulation=(16.0,),
            reserve_commit=(50.0,), discharge_bill=(30.0,),
            charge_future=(12.0,), charge_total=(22.0,),
            discharge_total=(46.0,))
        rev = realized_revenues(d, slot, [spec1], market)
        assert rev["r_sc"] == pytest.approx(12.6, rel=1e-12)
        assert rev["r_fr"] == pytest.approx(4.0, rel=1e-12)
        assert rev["r_sr"] == pytest.approx(0.5, rel=1e-12)
        assert rev["r_br"] == pytest.approx(3.6, rel=1e-12)
        assert rev["aging_cost"] > 0.0

    def test_down_regulation_energy_term_negative(self, spec1, market):
        slot = base_slot(reg_up_flag=0)
        d = dataclasses.replace(idle_decision(1), charge_for_regulation=(20.0,),
                                charge_total=(20.0,))
        rev = realized_revenues(d, slot, [spec1], market)
        capacity = 0.9 * 20.0 * (0.03 + 0.01 * 2.0)
        assert rev["r_fr"] == pytest.approx(capacity - 0.2 * 20.0, rel=1e-12)

    def test_idle_decision_books_nothing(self, spec1, market):
        rev = realized_revenues(idle_decision(1), base_slot(), [spec1], market)
        assert all(v == 0.0 for v in rev.values())


class TestLedgerMatchesOptimizer:
    """The ledger books a solved window's decisions at the objective's value."""

    @pytest.mark.parametrize("seed", range(12))
    def test_realized_revenues_sum_to_decomposition(self, market, seed):
        rng = np.random.default_rng(700 + seed)
        specs = [make_spec(1 + i, id=1 + i) for i in range(1 + seed % 2)]
        zero = ["price_rmccp", "price_rmpcp", "price_reserve", "price_sale"][seed % 4]
        window = []
        for tau in range(1 + seed % 3):
            slot = rand_slot(rng)
            # Dearer regulation and reserve so that both markets get served.
            prices = {"price_rmccp": 4 * slot.price_rmccp,
                      "price_reserve": 10 * slot.price_reserve, zero: 0.0}
            window.append(dataclasses.replace(slot, reg_up_flag=tau % 2, **prices))
        soc = SocState(tuple(float(rng.uniform(0.25, 0.85)) for _ in specs))
        inst = build_problem(0, window, soc, specs, market)
        result = solve(inst)
        assert result.status == "optimal"
        expected = decompose_at_point(inst, result.x)
        for key in ("r_sc", "r_fr", "r_sr", "r_br", "aging_cost"):
            booked = sum(realized_revenues(d, slot, specs, market)[key]
                         for d, slot in zip(result.decisions, inst.exog))
            assert abs(booked - expected[key]) <= 1e-9 * max(1.0, abs(expected[key])), key


class TestNoEssBaseline:
    def test_hand_example(self, market):
        series = [base_slot(demand=100.0, renewable=150.0)]
        # 100 self-used at 0.2, 50 exported at 0.12
        assert no_ess_baseline(series, market) == pytest.approx(26.0, rel=1e-12)

    def test_export_cap(self, market):
        capped = dataclasses.replace(market, export_power_max=20.0)
        series = [base_slot(demand=100.0, renewable=150.0)]
        assert no_ess_baseline(series, capped) == pytest.approx(
            0.2 * 100 + 0.12 * 20, rel=1e-12)

    @pytest.mark.parametrize("export_max", [1e9, 50.0])
    @pytest.mark.parametrize("ratio", [0.6, 1.0, 1.5])
    def test_zero_units_attribute_nothing(self, market, ratio, export_max):
        # A sale price above the purchase price makes export the dearer
        # outlet; the baseline must then export first, as the optimizer does.
        series = generate_series(24, sale_price_ratio=ratio)
        capped = dataclasses.replace(market, export_power_max=export_max)
        report = run_simulation(series, [], capped, 1)
        assert abs(report.ess_attributable_profit) <= 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_zero_ess_optimization(self, market, seed):
        rng = np.random.default_rng(seed)
        series = [rand_slot(rng) for _ in range(3)]
        inst = build_problem(0, series, SocState(()), [], market)
        res = brute_force_oracle(inst)
        assert res.status == "optimal"
        assert -res.objective == pytest.approx(no_ess_baseline(series, market),
                                               rel=1e-9, abs=1e-9)


class TestRunSimulation:
    @pytest.mark.parametrize("horizon", [0, -3])
    def test_non_positive_horizon_rejected(self, specs, market, week_series, horizon):
        with pytest.raises(ValueError, match="must be >= 1"):
            run_simulation(week_series[:3], specs, market, horizon)

    def test_series_shorter_than_horizon(self, specs, market, week_series):
        with pytest.raises(ValueError, match="shorter than horizon"):
            run_simulation(week_series[:3], specs, market, 4)

    def test_perfect_forecast_identical_to_none(self, specs, market, week_series):
        series = week_series[:24]
        a = run_simulation(series, specs, market, 2)
        b = run_simulation(series, specs, market, 2,
                           forecast=ForecastModel(kappa_step=0.0, kappa_cap=0.0))
        assert a.ledger == b.ledger
        assert a.totals == b.totals

    def test_forecast_run_deterministic_in_seed(self, specs, market, week_series):
        series = week_series[:24]
        fm = ForecastModel(seed=5)
        a = run_simulation(series, specs, market, 2, forecast=fm)
        b = run_simulation(series, specs, market, 2, forecast=fm)
        assert a.ledger == b.ledger

    def test_ledger_consistency(self, specs, market, week_series):
        series = week_series[:24]
        report = run_simulation(series, specs, market, 2)
        assert len(report.ledger) == 24
        for e in report.ledger:
            assert e.net_profit == pytest.approx(
                e.r_sc + e.r_fr + e.r_sr + e.r_br - e.aging_cost, rel=1e-12)
        for key in ("r_sc", "net_profit", "aging_cost"):
            assert report.totals[key] == pytest.approx(
                sum(getattr(e, key) for e in report.ledger), rel=1e-12)
        assert report.ess_attributable_profit == pytest.approx(
            report.net_profit - report.baseline_profit, rel=1e-12)

    def test_soc_conservation_identity(self, specs, market, week_series):
        # replaying the committed decisions through the exact dynamics must
        # land on the recorded final SOC
        series = week_series[:24]
        report = run_simulation(series, specs, market, 4)
        soc = SocState(report.initial_soc)
        for e in report.ledger:
            soc = soc_update(soc, e.decision, specs, market.slot_hours)
        for i, spec in enumerate(specs):
            assert soc.soc[i] == pytest.approx(report.ledger[-1].soc[i],
                                               rel=1e-9, abs=1e-12)
            assert spec.soc_min - 1e-7 <= soc.soc[i] <= spec.soc_max + 1e-7

    def test_idle_when_storage_unprofitable(self, market, week_series):
        # prohibitive capital cost: the engine should fall back to the
        # no-storage policy and match its profit
        specs = [make_spec(1, unit_capital_cost=5000.0)]
        series = week_series[:12]
        report = run_simulation(series, specs, market, 2)
        assert report.ess_attributable_profit == pytest.approx(0.0, abs=1e-6)

    def test_non_finite_input_rejected_before_solving(self, specs, market,
                                                      week_series):
        series = list(week_series[:4])
        series[1] = dataclasses.replace(series[1], price_purchase=float("nan"))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="slot 1: price_purchase nan"):
            run_simulation(series, specs, market, 1)
        assert time.perf_counter() - start < 1.0

    def test_initial_soc_forms(self, specs, market, week_series):
        series = week_series[:6]
        a = run_simulation(series, specs, market, 2, initial_soc=0.5)
        b = run_simulation(series, specs, market, 2, initial_soc=(0.5, 0.5))
        assert a.totals == b.totals


class TestWarmRoots:
    @pytest.mark.parametrize("horizon", [1, 4])
    def test_warm_windows_agree_with_stateless_solves(self, monkeypatch, week_series,
                                                      horizon):
        # every window of a week run, its branch-and-bound in the run's model
        # of its template, against a stateless solve of the same instance
        specs, market, config, forecast, _ = load_config(BUNDLED_CONFIG)
        solved = []

        def record(instance, config, models):
            result = solve(instance, config, models)
            solved.append((instance, result, models.pool._tpl))
            return result

        monkeypatch.setattr(rolling, "solve", record)
        run_simulation(week_series, specs, market, horizon, forecast, config)
        assert len(solved) == len(week_series)
        lengths = set()
        branched = 0
        for instance, warm, kept in solved:
            cold = solve(instance, config)
            assert warm.status == cold.status == "optimal"
            assert abs(warm.objective - cold.objective) <= \
                config.gap_tol * max(1.0, abs(cold.objective))
            assert check_solution(instance, warm.x) == []
            branched += warm.node_count > 1
            # the set's last pool is the window's, of its template
            assert kept is instance.template
            lengths.add(instance.horizon)
        assert branched > 0 and len(lengths) == horizon

    @pytest.mark.parametrize("horizon", [1, 4, 6])
    def test_one_model_per_window_length(self, specs, market, week_series,
                                         monkeypatch, horizon):
        # the window length never grows, so each template's windows form one
        # block and a run loads one model per length: the set's single slot
        # loses no reuse
        templates, built = [], []
        highs_class = solver._Highs

        def record(instance, config, models):
            templates.append(instance.template)
            return solve(instance, config, models)

        def counted():
            built.append(None)
            return highs_class()

        monkeypatch.setattr(rolling, "solve", record)
        monkeypatch.setattr(solver, "_Highs", counted)
        run_simulation(week_series[:24], specs, market, horizon)
        blocks = [t for t, _ in itertools.groupby(templates)]
        assert len(blocks) == len(set(blocks)) == horizon
        assert len(built) == horizon

    def test_no_model_outlives_the_run(self, specs, market, week_series,
                                       monkeypatch):
        models = []
        highs_class = solver._Highs

        def tracked():
            highs = highs_class()
            models.append(weakref.ref(highs))
            return highs

        monkeypatch.setattr(solver, "_Highs", tracked)
        run_simulation(week_series[:12], specs, market, 2)
        assert len(models) == 2 and all(ref() is None for ref in models)
