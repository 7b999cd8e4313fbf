import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

from essdispatch.aging import aging_cost_eval, segment_max
from essdispatch.domain import SlotExogenous, SocState
from essdispatch.problem import LinRow, build_problem, check_solution
from essdispatch import solver as solver_module
from essdispatch.solver import (CutPool, SolverConfig, SolverError,
                                brute_force_oracle, solve, solve_lp,
                                solve_relaxation)

from conftest import make_spec


def vertex_oracle(rows, ub, objective):
    """Minimum over all basic feasible points of a bounded LP.

    Enumerates every choice of n active constraints among the rows and the
    bound faces; exact for small systems, independent of any LP code path.
    """
    n = len(objective)
    stacked = [(np.array([r.coeffs.get(j, 0.0) for j in range(n)]), r.rhs)
               for r in rows]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        stacked.append((e, ub[j]))
        stacked.append((-e, 0.0))
    best = np.inf
    for active in itertools.combinations(range(len(stacked)), n):
        a = np.array([stacked[k][0] for k in active])
        b = np.array([stacked[k][1] for k in active])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if all(g @ x <= h + 1e-9 for g, h in stacked):
            best = min(best, float(objective @ x))
    return best


class TestLpSubsolver:
    def test_closed_form_box(self):
        # min -x - 2y over x,y in [0,1], x + y <= 1.2  ->  y=1, x=0.2
        rows = [LinRow({0: 1.0, 1: 1.0}, 1.2, "cap")]
        sol = solve_lp(rows, [0, 0], [1, 1], np.array([-1.0, -2.0]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-2.2, rel=1e-9)
        assert sol.x[1] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_detected(self):
        rows = [LinRow({0: -1.0}, -2.0, "x_ge_2")]
        sol = solve_lp(rows, [0.0], [1.0], np.array([1.0]))
        assert sol.status == "infeasible"

    def test_unbounded_detected(self):
        sol = solve_lp([], [0.0], [np.inf], np.array([-1.0]))
        assert sol.status == "unbounded"

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_vertex_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 3, 4
        ub = rng.uniform(0.5, 2.0, n)
        a = rng.normal(size=(m, n))
        x0 = rng.uniform(0, 1, n) * ub
        rhs = a @ x0 + rng.uniform(0.1, 1.0, m)  # x0 strictly feasible
        rows = [LinRow({j: float(a[i, j]) for j in range(n)}, float(rhs[i]))
                for i in range(m)]
        c = rng.normal(size=n)
        sol = solve_lp(rows, np.zeros(n), ub, c)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(
            vertex_oracle(rows, ub, c), rel=1e-7, abs=1e-9)

    def test_badly_scaled_rows(self):
        # same geometry at wildly different row scales must agree
        rows_a = [LinRow({0: 1.0, 1: 1.0}, 1.0)]
        rows_b = [LinRow({0: 1e6, 1: 1e6}, 1e6)]
        c = np.array([-3.0, -1.0])
        sa = solve_lp(rows_a, [0, 0], [2, 2], c)
        sb = solve_lp(rows_b, [0, 0], [2, 2], c)
        assert sa.objective == pytest.approx(sb.objective, rel=1e-9)


def rand_slot(rng):
    purchase = float(rng.uniform(0.05, 0.25))
    return SlotExogenous(
        demand=float(rng.uniform(0, 800)), renewable=float(rng.uniform(0, 400)),
        price_purchase=purchase, price_sale=0.6 * purchase,
        price_rmccp=float(rng.uniform(0, 0.05)),
        price_rmpcp=float(rng.uniform(0, 0.02)),
        perf_score=float(rng.uniform(0.8, 1.0)),
        mileage_ratio=float(rng.uniform(1.0, 3.0)),
        reg_up_flag=int(rng.uniform() < 0.5),
        price_reserve=float(rng.uniform(0, 0.01)))


def rand_instance(rng, n_ess=1, horizon=2, market=None):
    specs = [make_spec(1 + (i % 2), id=i + 1) for i in range(n_ess)]
    soc = SocState(tuple(float(rng.uniform(0.25, 0.85)) for _ in specs))
    return build_problem(0, [rand_slot(rng) for _ in range(horizon)],
                         soc, specs, market)


class TestSolve:
    def test_discharge_only_matches_scalar_oracle(self, spec1, market):
        # Everything except plain discharge is priced or gated to zero, so the
        # optimum is a one-variable trade of energy revenue against wear.
        s = SlotExogenous(demand=0.0, renewable=0.0, price_purchase=0.4,
                          price_sale=0.24, price_rmccp=0.0, price_rmpcp=0.0,
                          perf_score=0.9, mileage_ratio=2.0, reg_up_flag=0,
                          price_reserve=0.0)
        inst = build_problem(0, [s], SocState((0.5,)), [spec1], market)
        res = solve(inst)
        assert res.status == "optimal"

        def value(pd):
            return -0.4 * pd + aging_cost_eval(spec1, 0.0, pd, 1.0)

        oracle = minimize_scalar(value, bounds=(0.0, spec1.discharge_rate_max),
                                 method="bounded", options={"xatol": 1e-10})
        assert res.objective == pytest.approx(oracle.fun, rel=1e-6)
        assert res.decisions[0].discharge_total[0] == pytest.approx(
            oracle.x, abs=1e-3)

    @pytest.mark.parametrize("seed,n_ess", [(0, 1), (1, 1), (2, 1), (3, 1),
                                            (4, 2), (5, 2)])
    def test_matches_brute_force(self, market, seed, n_ess):
        rng = np.random.default_rng(seed)
        inst = rand_instance(rng, n_ess=n_ess, market=market)
        res = solve(inst)
        ref = brute_force_oracle(inst)
        assert res.status == ref.status == "optimal"
        assert res.objective == pytest.approx(
            ref.objective, rel=1e-6, abs=1e-9)

    def test_bound_below_objective_and_gap_closed(self, market):
        rng = np.random.default_rng(17)
        inst = rand_instance(rng, n_ess=2, market=market)
        res = solve(inst)
        assert res.status == "optimal"
        assert res.bound <= res.objective + 1e-12
        assert res.objective - res.bound <= 1e-6 * max(1.0, abs(res.objective))

    def test_optimum_is_feasible(self, market):
        rng = np.random.default_rng(23)
        inst = rand_instance(rng, n_ess=2, market=market)
        res = solve(inst)
        assert check_solution(inst, res.x) == []
        for col in inst.binary_cols:
            assert abs(res.x[col] - round(res.x[col])) < 1e-6

    def test_deterministic(self, market):
        rng = np.random.default_rng(31)
        horizon = [rand_slot(rng), rand_slot(rng)]
        soc = SocState((0.5, 0.6))
        specs = [make_spec(1), make_spec(2)]
        runs = []
        for _ in range(2):
            inst = build_problem(0, horizon, soc, specs, market)
            runs.append(solve(inst))
        assert runs[0].objective == runs[1].objective
        assert runs[0].node_count == runs[1].node_count
        assert np.array_equal(runs[0].x, runs[1].x)

    def test_relaxation_bounds_the_integer_optimum(self, market):
        rng = np.random.default_rng(41)
        inst = rand_instance(rng, n_ess=1, market=market)
        relaxed = solve_relaxation(inst)
        res = solve(inst)
        assert relaxed.objective <= res.objective + 1e-9

    def test_infeasible_instance(self, spec1, market):
        inst = build_problem(0, [rand_slot(np.random.default_rng(2))],
                             SocState((0.5,)), [spec1], market)
        pc = inst.col("pc", 0, 0)
        inst.rows.append(LinRow({pc: -1.0}, -1.0, "force_pc_ge_1"))
        inst.ub[pc] = 0.0
        res = solve(inst)
        assert res.status == "infeasible"
        assert res.x is None

    def test_fixed_binary_infeasibility(self, spec1, market):
        # one unit cannot reach the 100 kW reserve minimum alone
        inst = build_problem(0, [rand_slot(np.random.default_rng(3))],
                             SocState((0.5,)), [spec1], market)
        sol = solve_relaxation(inst, {inst.col("vsr", 0): 1})
        assert sol.status == "infeasible"

    def test_node_limit_status(self, market):
        rng = np.random.default_rng(5)
        inst = rand_instance(rng, n_ess=2, market=market)
        res = solve(inst, SolverConfig(node_limit=1))
        full = solve(inst)
        if full.node_count > 1:
            assert res.status == "node-limit"
            assert res.bound <= res.objective + 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(int_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(gap_tol=-1e-9)


class TestCuts:
    def test_pool_cuts_valid_on_feasible_points(self, spec1, market):
        # every tangent cut generated while solving must hold at any point
        # with the epigraph variable at its true value
        inst = build_problem(0, [rand_slot(np.random.default_rng(7))],
                             SocState((0.5,)), [spec1], market)
        pool = CutPool(inst)
        solve_relaxation(inst, None, SolverConfig(), pool)
        assert len(pool.rows) > len(inst.quad_rows) * 3 - 1  # seeds plus extras
        rng = np.random.default_rng(8)
        x = np.zeros(inst.n_cols)
        for _ in range(300):
            pc = rng.uniform(0, spec1.charge_rate_max)
            pd = rng.uniform(0, spec1.discharge_rate_max)
            x[inst.col("pc", 0, 0)] = pc
            x[inst.col("pd", 0, 0)] = pd
            x[inst.col("zeta", 0, 0)] = segment_max(spec1, pc, pd)
            for row in pool.rows:
                assert row.value(x) <= row.rhs + 1e-9

    def test_relaxation_enforces_epigraph_to_tolerance(self, spec1, market):
        inst = build_problem(0, [rand_slot(np.random.default_rng(9))],
                             SocState((0.5,)), [spec1], market)
        sol = solve_relaxation(inst, {c: 0 for c in inst.binary_cols
                                      if "vc" not in inst.names[c]})
        assert sol.status == "optimal"
        for q in inst.quad_rows:
            assert q.violation(sol.x) <= 1e-6

    def test_cut_round_limit_raises(self, market):
        # steep wear curve with an interior discharge optimum: one round of
        # cuts cannot close the epigraph gap
        from essdispatch.aging import SegmentSet
        spec = make_spec(1, aging_segments=SegmentSet(((1e-3, 1e-4),)))
        s = SlotExogenous(demand=0.0, renewable=0.0, price_purchase=40.0,
                          price_sale=24.0, price_rmccp=0.0, price_rmpcp=0.0,
                          perf_score=0.9, mileage_ratio=2.0, reg_up_flag=0,
                          price_reserve=0.0)
        inst = build_problem(0, [s], SocState((0.5,)), [spec], market)
        with pytest.raises(SolverError, match="cut rounds"):
            solve_relaxation(inst, {c: 0 for c in inst.binary_cols},
                             SolverConfig(cut_round_limit=1))


class _Undecided:
    """HiGHS model proxy whose first `runs` statuses read as undecided."""

    def __init__(self, highs, runs):
        self._highs = highs
        self.runs = runs

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getModelStatus(self):
        if self.runs:
            self.runs -= 1
            return HighsModelStatus.kUnknown
        return self._highs.getModelStatus()


class TestPersistentLp:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_cold_linprog_through_fixings_and_cuts(self, market, seed):
        # one pool walks a random sequence of node fixings and new tangent
        # cuts; every warm re-solve must agree with a cold solve of the same LP
        rng = np.random.default_rng(100 + seed)
        inst = rand_instance(rng, n_ess=1 + seed % 2, market=market)
        pool = CutPool(inst)
        statuses = set()
        for _ in range(15):
            lb, ub = inst.lb.copy(), inst.ub.copy()
            for col in inst.binary_cols:
                if rng.uniform() < 0.5:
                    lb[col] = ub[col] = float(rng.integers(2))
            warm = pool.solve(lb, ub)
            cold = solve_lp(inst.rows + pool.rows, lb, ub, inst.objective)
            assert warm.status == cold.status
            statuses.add(warm.status)
            if warm.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective,
                                                       rel=1e-9, abs=1e-9)
            q = inst.quad_rows[rng.integers(len(inst.quad_rows))]
            spec = next(s for s in inst.specs if s.id == q.row.ess)
            pool.add([solver_module._tangent_cut(
                q, rng.uniform(0, spec.charge_rate_max),
                rng.uniform(0, spec.discharge_rate_max))])
        assert "optimal" in statuses
        assert pool.lp_calls == 15 and pool.lp_restarts == 0

    def test_undecided_run_restarts_cold(self, market, monkeypatch):
        rng = np.random.default_rng(5)
        inst = rand_instance(rng, n_ess=2, market=market)
        reference = solve(inst)
        monkeypatch.setattr(solver_module, "_Highs",
                            lambda: _Undecided(_Highs(), 1))
        res = solve(inst)
        assert res.lp_restarts == 1
        assert res.status == reference.status == "optimal"
        assert res.objective == pytest.approx(reference.objective, rel=1e-9)
        assert res.lp_calls == reference.lp_calls + 1

    def test_undecided_after_restart_raises(self, market):
        inst = rand_instance(np.random.default_rng(6), market=market)
        pool = CutPool(inst)
        pool._highs = _Undecided(pool._highs, 2)
        with pytest.raises(SolverError, match="LP subsolver failed"):
            pool.solve(inst.lb, inst.ub)
        assert pool.lp_restarts == 1

    def test_missing_highs_class_names_scipy_requirement(self):
        # a scipy without the bundled HiGHS class must fail at import with the
        # requirement, not later inside a solve
        code = ("import sys, types, scipy.optimize\n"
                "sys.modules['scipy.optimize._highspy._core'] = "
                "types.ModuleType('empty')\n"
                "import essdispatch\n")
        src = pathlib.Path(solver_module.__file__).parent.parent
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)},
                              timeout=120)
        assert proc.returncode != 0
        assert "ImportError: essdispatch requires scipy>=1.17" in proc.stderr

    def test_lp_work_reported(self, market):
        res = solve(rand_instance(np.random.default_rng(17), n_ess=2,
                                  market=market))
        assert res.lp_calls >= res.node_count
        assert res.lp_iters > 0
        assert res.lp_restarts == 0


class TestBruteForce:
    def test_binary_cap_enforced(self, specs, market):
        rng = np.random.default_rng(13)
        inst = build_problem(0, [rand_slot(rng) for _ in range(3)],
                             SocState((0.5, 0.5)), specs, market)
        with pytest.raises(ValueError, match="enumeration cap"):
            brute_force_oracle(inst, max_binaries=8)
