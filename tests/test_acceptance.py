"""End-to-end acceptance checks, one test per criterion.

One pass/fail line per criterion is printed in the terminal summary after the
run (and inline when pytest runs with `-s`).  Expensive full-week simulations
are shared through session-scoped fixtures, so the file is meant to be run as
a whole.
"""

import dataclasses
import time

import numpy as np
import pytest

from essdispatch.aging import aging_cost_eval
from essdispatch.cli import main
from essdispatch.domain import SocState
from essdispatch.fixture import generate_series
from essdispatch.iofiles import load_config, write_timeseries_csv
from essdispatch.problem import build_problem, decompose_at_point, mccormick_rows
from essdispatch.rolling import ForecastModel, no_ess_baseline, run_simulation
from essdispatch.solver import brute_force_oracle, solve

import conftest
from conftest import BUNDLED_CONFIG, make_spec
from test_aging import aging_cost_lp
from test_problem import sample_feasible_point, z_interval
from test_solver import rand_instance, rand_slot


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" | {detail}" if detail else ""
    text = f"[criterion {num:02d}] {name}: {status}{suffix}"
    print("\n" + text)
    conftest.ACCEPTANCE_LINES.append(text)


@pytest.fixture(scope="session")
def bundle():
    return load_config(BUNDLED_CONFIG)


@pytest.fixture(scope="session")
def week():
    return generate_series()


@pytest.fixture(scope="session")
def week_run(bundle, week):
    """The bundled-config full-week run plus its wall-clock duration."""
    specs, market, solver, _, run = bundle
    t0 = time.monotonic()
    report = run_simulation(week, specs, market, run.horizon, config=solver,
                            initial_soc=run.initial_soc)
    return report, time.monotonic() - t0


@pytest.fixture(scope="session")
def oracle_results(bundle):
    """solve() vs exhaustive enumeration on 50 randomized instances."""
    _, market, _, _, _ = bundle
    results = []
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        if i in (13, 27):
            n_ess, horizon = 1, 4        # 12 binaries
        elif i % 7 == 3:
            n_ess, horizon = 1, 3        # 9 binaries
        elif i % 5 == 0:
            n_ess, horizon = 2, 2        # 8 binaries
        else:
            n_ess, horizon = 1, 2        # 6 binaries
        inst = rand_instance(rng, n_ess=n_ess, horizon=horizon, market=market)
        results.append((inst, solve(inst), brute_force_oracle(inst)))
    return results


class TestCriterion1:
    def test_oracle_equivalence(self, oracle_results):
        worst = 0.0
        for _, res, ref in oracle_results:
            assert res.status == ref.status == "optimal"
            rel = abs(res.objective - ref.objective) / max(1.0, abs(ref.objective))
            worst = max(worst, rel)
        ok = worst <= 1e-6
        _line(1, "oracle equivalence on 50 randomized instances", ok,
              f"worst relative objective gap {worst:.2e}")
        assert ok


class TestCriterion2:
    def test_objective_algebra_identity(self, bundle):
        _, market, _, _, _ = bundle
        worst = 0.0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            specs = [make_spec(1), make_spec(2)]
            inst = build_problem(0, [rand_slot(rng), rand_slot(rng)],
                                 SocState((0.5, 0.5)), specs, market)
            for k in range(100):
                x = sample_feasible_point(inst, rng, with_markets=(k % 2 == 0))
                parts = decompose_at_point(inst, x)
                consolidated = -float(inst.objective @ x)
                rel = abs(parts["tnp"] - consolidated) / max(1.0, abs(consolidated))
                worst = max(worst, rel)
        ok = worst <= 1e-9
        _line(2, "service-sum vs consolidated objective at 300 points", ok,
              f"worst relative mismatch {worst:.2e}")
        assert ok


class TestCriterion3:
    def test_mccormick_exactness(self, oracle_results):
        worst = 0.0
        for inst, res, _ in oracle_results:
            for tau in range(inst.horizon):
                for i in range(inst.n_ess):
                    v = round(res.x[inst.col("vc", i, tau)])
                    z = res.x[inst.col("z", i, tau)]
                    psr = res.x[inst.col("psr", i, tau)]
                    worst = max(worst, abs(z - v * psr))
        rows = mccormick_rows(0, 1, 2, 74.0)
        lo, hi = z_interval(rows, v=0.5, reserve=50.0)
        interval_ok = abs(lo - 13.0) < 1e-12 and abs(hi - 37.0) < 1e-12
        ok = worst <= 1e-6 and interval_ok
        _line(3, "bilinear product exact at optima, relaxed interval [13,37]",
              ok, f"worst |z - v*psr| {worst:.2e}")
        assert ok


class TestCriterion4:
    def test_aging_cost_equivalence(self):
        worst = 0.0
        for ess_type in (1, 2):
            spec = make_spec(ess_type)
            pcs = np.linspace(0, spec.charge_rate_max, 20)
            pds = np.linspace(0, spec.discharge_rate_max, 20)
            vals = np.empty((20, 20))
            for a, pc in enumerate(pcs):
                for b, pd in enumerate(pds):
                    got = aging_cost_eval(spec, pc, pd, 1.0)
                    want = aging_cost_lp(spec, pc, pd, 1.0)
                    vals[a, b] = got
                    worst = max(worst, abs(got - want) / max(1e-12, abs(want)))
            monotone = ((np.diff(vals, axis=0) >= -1e-12).all()
                        and (np.diff(vals, axis=1) >= -1e-12).all())
            convex = ((vals[:-2] + vals[2:] - 2 * vals[1:-1] >= -1e-9).all()
                      and (vals[:, :-2] + vals[:, 2:]
                           - 2 * vals[:, 1:-1] >= -1e-9).all())
            assert monotone and convex
        ok = worst <= 1e-9
        _line(4, "wear model equals independent LP on 20x20 grids", ok,
              f"worst relative gap {worst:.2e}")
        assert ok


class TestCriterion5:
    def test_week_run_feasibility(self, bundle, week, week_run):
        specs, market, _, _, run = bundle
        report, _ = week_run
        tol = 1e-7
        soc = list(report.initial_soc)
        violations = []
        for t, entry in enumerate(report.ledger):
            d = entry.decision
            slot = week[t]
            u = slot.reg_up_flag
            re_use = (d.renewable_selfuse + d.renewable_export
                      + sum(d.charge_from_renewable))
            if re_use > slot.renewable + tol * max(1.0, slot.renewable):
                violations.append(f"slot {t}: renewable balance")
            if d.renewable_selfuse > slot.demand + tol * max(1.0, slot.demand):
                violations.append(f"slot {t}: self-use above demand")
            p_fr = sum((1 - u) * c + u * dd
                       for c, dd in zip(d.charge_for_regulation,
                                        d.discharge_for_regulation))
            if d.reg_participate and p_fr < market.reg_min_power - tol:
                violations.append(f"slot {t}: regulation minimum")
            if not d.reg_participate and p_fr > tol:
                violations.append(f"slot {t}: regulation without participation")
            p_sr = sum(d.reserve_commit)
            if d.reserve_participate and p_sr < market.reserve_min_power - tol:
                violations.append(f"slot {t}: reserve minimum")
            if not d.reserve_participate and p_sr > tol:
                violations.append(f"slot {t}: reserve without participation")
            for i, spec in enumerate(specs):
                pc, pd = d.charge_total[i], d.discharge_total[i]
                split_c = (d.charge_from_renewable[i]
                           + d.charge_for_regulation[i] + d.charge_future[i])
                split_d = d.discharge_for_regulation[i] + d.discharge_bill[i]
                if abs(split_c - pc) > tol * max(1.0, pc) \
                        or abs(split_d - pd) > tol * max(1.0, pd):
                    violations.append(f"slot {t}: ess {i} service split")
                if pc > spec.charge_rate_max * d.mode_flag[i] + tol:
                    violations.append(f"slot {t}: ess {i} charge link")
                limit = ((1 - d.mode_flag[i])
                         * (spec.discharge_rate_max - d.reserve_commit[i]))
                if pd > limit + tol * max(1.0, spec.discharge_rate_max):
                    violations.append(f"slot {t}: ess {i} discharge link")
                soc[i] += market.slot_hours * (
                    spec.eff_charge * pc - pd / spec.eff_discharge
                ) / spec.energy_capacity
                floor = spec.soc_min + (d.reserve_commit[i]
                                        * market.reserve_min_duration
                                        / spec.energy_capacity)
                if not (floor - tol <= soc[i] <= spec.soc_max + tol):
                    violations.append(f"slot {t}: ess {i} SOC corridor")
        conservation = max(
            abs(soc[i] - report.ledger[-1].soc[i]) / max(1.0, abs(soc[i]))
            for i in range(len(specs)))
        ok = not violations and conservation <= 1e-9
        _line(5, "full-week committed dispatch feasibility", ok,
              f"{len(violations)} violations, "
              f"SOC conservation {conservation:.2e}")
        assert ok, violations[:10]


@pytest.fixture(scope="session")
def alpha_runs(bundle, week, week_run):
    specs, market, solver, _, run = bundle
    out = {}
    for alpha in run.alpha_grid:
        if alpha == specs[0].unit_capital_cost:
            out[alpha] = week_run[0]
            continue
        scaled = [dataclasses.replace(s, unit_capital_cost=alpha) for s in specs]
        out[alpha] = run_simulation(week, scaled, market, run.horizon,
                                    config=solver, initial_soc=run.initial_soc)
    return out


@pytest.fixture(scope="session")
def horizon_runs(bundle, week, week_run):
    specs, market, solver, _, run = bundle
    out = {}
    for h in run.horizon_grid:
        out[h] = (week_run[0] if h == run.horizon else
                  run_simulation(week, specs, market, h, config=solver,
                                 initial_soc=run.initial_soc))
    return out


class TestCriterion6:
    def test_capital_cost_trend(self, alpha_runs):
        alphas = sorted(alpha_runs)
        profits = [alpha_runs[a].net_profit for a in alphas]
        attrs = [alpha_runs[a].ess_attributable_profit for a in alphas]
        nonincreasing = all(profits[k + 1] <= profits[k] + 1e-6
                            for k in range(len(profits) - 1))
        vanish = [a for a, v in zip(alphas, attrs) if v <= 1e-6]
        vanish_tail = bool(vanish) and all(
            alpha_runs[a].ess_attributable_profit <= 1e-6
            for a in alphas if a >= vanish[0])
        ok = nonincreasing and vanish_tail
        _line(6, "capital-cost trend: profit nonincreasing, vanishes beyond "
                 f"{vanish[0] if vanish else 'never'}", ok,
              f"profit {profits[0]:.1f} -> {profits[-1]:.1f}")
        assert ok

    def test_horizon_trend(self, horizon_runs):
        hs = sorted(horizon_runs)
        profits = {h: horizon_runs[h].net_profit for h in hs}
        ordering = profits[4] >= profits[2] - 1e-9
        nondecreasing = all(profits[b] >= profits[a] - 1e-6
                            for a, b in zip(hs, hs[1:]))
        diminishing = (profits[6] - profits[4]) <= (profits[4] - profits[2]) + 1e-6
        ok = ordering and nondecreasing and diminishing
        _line(6, "horizon trend: profit(H=4) >= profit(H=2), gain 4->6 <= "
                 "gain 2->4", ok,
              "profits " + ", ".join(f"H={h}: {profits[h]:.1f}" for h in hs))
        assert ok


class TestCriterion7:
    def test_zero_error_model_byte_identical(self, bundle, week):
        specs, market, solver, _, run = bundle
        series = week[:48]
        a = run_simulation(series, specs, market, run.horizon, config=solver)
        b = run_simulation(series, specs, market, run.horizon,
                           forecast=ForecastModel(kappa_step=0.0, kappa_cap=0.0),
                           config=solver)
        ok = a.ledger == b.ledger and a.totals == b.totals
        _line(7, "zero-coefficient forecast reproduces the perfect ledger", ok)
        assert ok

    def test_forecast_error_study(self, bundle, week, week_run):
        specs, market, solver, _, run = bundle
        perfect = week_run[0]
        diffs = []
        for seed in run.seeds:
            rep = run_simulation(week, specs, market, run.horizon,
                                 forecast=ForecastModel(seed=seed),
                                 config=solver, initial_soc=run.initial_soc)
            diffs.append(rep.net_profit - perfect.net_profit)
        mean = sum(diffs) / len(diffs)
        worst = max(abs(d) for d in diffs) / abs(perfect.net_profit)
        ok = mean <= 1e-6 and worst < 0.15
        _line(7, "forecast-error study over 10 seeds", ok,
              f"mean difference {mean:.3f}, worst |difference| "
              f"{100 * worst:.2f}% of perfect profit")
        assert ok


class TestCriterion8:
    def test_baseline_equals_zero_ess_optimization(self, bundle):
        _, market, _, _, _ = bundle
        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            series = [rand_slot(rng) for _ in range(3)]
            inst = build_problem(0, series, SocState(()), [], market)
            res = brute_force_oracle(inst)
            assert res.status == "optimal"
            base = no_ess_baseline(series, market)
            worst = max(worst, abs(-res.objective - base) / max(1.0, abs(base)))
        ok = worst <= 1e-9
        _line(8, "no-storage baseline equals zero-ESS optimization", ok,
              f"worst relative gap {worst:.2e}")
        assert ok


class TestCriterion9:
    def test_repeat_runs_byte_identical(self, tmp_path, week):
        series = tmp_path / "series.csv"
        write_timeseries_csv(series, week[:48])
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["--config", str(BUNDLED_CONFIG), "--series", str(series),
                         "--out", str(out)]) == 0
            outs.append(out)
        ok = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
                 for f in ("summary.json", "ledger.csv"))
        _line(9, "identical config+seed gives byte-identical outputs", ok)
        assert ok


class TestCriterion10:
    def test_performance_envelope(self, bundle, week, week_run):
        specs, market, solver, _, _ = bundle
        t0 = time.monotonic()
        inst = build_problem(0, week[8:12], SocState((0.5, 0.5)), specs, market)
        res = solve(inst, solver)
        single = time.monotonic() - t0
        assert res.status == "optimal"
        _, week_seconds = week_run
        ok = single < 5.0 and week_seconds < 600.0
        _line(10, "performance envelope", ok,
              f"single 2-ESS H=4 solve {single:.2f}s, "
              f"168-slot simulation {week_seconds:.1f}s")
        assert ok
