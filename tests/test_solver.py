import itertools
import os
import pathlib
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog, minimize_scalar
from scipy.optimize._highspy._core import (HighsBasisStatus, HighsModelStatus,
                                           HighsStatus, MatrixFormat, _Highs)
from scipy.sparse import csc_array, csr_array

from essdispatch.aging import (SegmentSet, aging_cost_eval, epigraph_excess,
                              segment_coefficients, segment_max)
from essdispatch.domain import SlotExogenous, SocState
from essdispatch.iofiles import load_config
from essdispatch.problem import (LinRow, LinRows, SolveResult,
                                 build_problem, check_solution,
                                 recover_service_split)
from essdispatch import solver as solver_module
from essdispatch.solver import (CUT_TOL, INT_TOL, CutPool, LpSolution,
                                ModelSet, SolverConfig, SolverError, brute_force_oracle,
                                solve, solve_relaxation)

from conftest import BUNDLED_CONFIG, epi_rows, make_spec, with_rows


def run_python(code, *path):
    """Run code in a fresh interpreter that imports essdispatch from this
    checkout, with the directories path ahead of it on the module path."""
    src = pathlib.Path(solver_module.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (*path, src)))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)


def cold_lp(a, b, lb, ub, objective) -> LpSolution:
    """min c.x subject to a @ x <= b and the bounds, with one cold linprog
    call: the independent reference for the persistent model behind
    CutPool.solve.  Proven-optimal or certified infeasible/unbounded."""
    res = linprog(np.asarray(objective, dtype=float), A_ub=a, b_ub=b,
                  bounds=np.column_stack([np.asarray(lb, dtype=float),
                                          np.asarray(ub, dtype=float)]),
                  method="highs")
    if res.status == 0:
        return LpSolution("optimal", np.asarray(res.x), float(res.fun))
    if res.status == 2:
        return LpSolution("infeasible", None, np.inf)
    if res.status == 3:
        return LpSolution("unbounded", None, -np.inf)
    raise SolverError(f"LP subsolver failed: {res.message}")


def solve_lp(rows, lb, ub, objective) -> LpSolution:
    """cold_lp over LinRow rows, each scaled as CutPool scales its base rows."""
    a = b = None
    if rows:
        rows = LinRows.of(rows)
        starts, index, value, scale = solver_module._scaled_rows(rows)
        b = rows.rhs / scale
        a = csr_array((value, index, np.append(starts, len(index))),
                      shape=(len(rows), len(objective)))
    return cold_lp(a, b, lb, ub, objective)


def held_rows(highs):
    """The rows a HiGHS model holds, all of the form a @ x <= b: the sparse
    matrix a, in the model's own orientation, and b."""
    lp = highs.getLp()
    assert np.isneginf(lp.row_lower_).all()
    m = lp.a_matrix_
    kind = csr_array if m.format_ == MatrixFormat.kRowwise else csc_array
    a = kind((np.asarray(m.value_), np.asarray(m.index_), np.asarray(m.start_)),
             shape=(lp.num_row_, lp.num_col_))
    return a, np.asarray(lp.row_upper_)


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
        for col in inst.template.binary_cols:
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
        inst = with_rows(inst, LinRows.of(
            [*inst.rows, LinRow({pc: -1.0}, -1.0, "force_pc_ge_1")]))
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
        for gap_tol in (0.0, -1e-9, np.nan, np.inf):
            with pytest.raises(ValueError, match="gap_tol must be > 0 and finite"):
                SolverConfig(gap_tol=gap_tol)
        for node_limit in (0, -3):
            with pytest.raises(ValueError, match="node_limit must be >= 1"):
                SolverConfig(node_limit=node_limit)
        assert SolverConfig(gap_tol=1e-12, node_limit=1).node_limit == 1


def mode_point(inst, rng, specs, vc):
    """A random point of one mode in every slot: charging (vc = 1, pd = 0) or
    discharging (vc = 0, pc = 0), each zeta at the segment maximum."""
    c = inst.template.cols
    x = np.zeros(len(inst.lb))
    for i, spec in enumerate(specs):
        for tau in range(inst.template.horizon):
            pc = vc * rng.uniform(0, spec.charge_rate_max)
            pd = (1 - vc) * rng.uniform(0, spec.discharge_rate_max)
            x[c["vc"][i, tau]], x[c["pc"][i, tau]], x[c["pd"][i, tau]] = vc, pc, pd
            x[c["zeta"][i, tau]] = segment_max(segment_coefficients(spec), pc, pd)
    return x


def unscaled_seeds(inst):
    """The seed rows of inst as a dense matrix and right-hand side, each row
    multiplied back by its cut scale (zeta's coefficient was -1/scale)."""
    starts, index, value, rhs = solver_module._seed_tangents(inst.template)
    a = csr_array((value, index, np.append(starts, len(index))),
                  shape=(len(rhs), len(inst.lb))).toarray()
    scale = -1.0 / a[np.arange(len(rhs)), np.repeat(inst.template.qcols[2], 9)]
    return a * scale[:, None], rhs * scale


class TestSeedTangents:
    def test_seeds_hold_between_modes(self, specs, market):
        # every feasible point has one mode per slot, so a convex combination
        # of a charging and a discharging point lies in the hull the lifted
        # seeds must contain
        rng = np.random.default_rng(12)
        inst = build_problem(0, [rand_slot(rng) for _ in range(2)],
                             SocState((0.5, 0.5)), specs, market)
        a, rhs = unscaled_seeds(inst)
        assert (a[:, inst.template.cols["vc"].ravel()] != 0.0).any()
        slack = []
        for lam in (0.0, 1.0, *rng.uniform(size=200)):
            x = (lam * mode_point(inst, rng, specs, 1)
                 + (1.0 - lam) * mode_point(inst, rng, specs, 0))
            slack.append(rhs - a @ x)
        assert (np.array(slack) >= -1e-9 * np.maximum(1.0, np.abs(rhs))).all()

    def test_lifted_seed_tighter_than_plain_tangent(self, specs, market):
        # at vc = 1 with pd = 0 a seed is the charge-side tangent, at vc = 0
        # with pc = 0 the discharge-side one, and in between its right-hand
        # side never exceeds the plain tangent's qc*a^2 + qd*b^2
        inst = build_problem(0, [rand_slot(np.random.default_rng(13))],
                             SocState((0.5, 0.5)), specs, market)
        a, rhs = unscaled_seeds(inst)
        tpl = inst.template
        k = np.repeat(np.arange(len(tpl.qvc)), 9)
        t = np.tile(np.linspace(0.0, 1.0, 9), len(tpl.qvc))
        at = tpl.rate_max[:, k] * t
        half = tpl.qcoef[2][:, k] * at * at  # qc*a^2, qd*b^2
        grad = tpl.qcoef[0][:, k] * at + tpl.qcoef[1][:, k]
        rows = np.arange(len(rhs))
        np.testing.assert_allclose(a[rows, tpl.qcols[0, k]], grad[0], rtol=1e-12)
        np.testing.assert_allclose(a[rows, tpl.qcols[1, k]], grad[1], rtol=1e-12)
        lift = a[rows, tpl.qvc[k]]
        for vc in np.linspace(0.0, 1.0, 11):
            assert (rhs - lift * vc <= half[0] + half[1] + 1e-12).all()
        np.testing.assert_allclose(rhs - lift, half[0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(rhs, half[1], rtol=1e-12, atol=1e-12)
        assert (half[0] + half[1] - (rhs - 0.5 * lift) > 0.0).any()

    def test_each_unit_seeds_on_its_own_rate_box(self, market):
        # two units that share an id: each unit's rows take its own rate
        # box, and their seeds are tangents at t*(Pc, Pd) of that box
        specs = [make_spec(1), make_spec(2, id=1)]
        inst = build_problem(0, [rand_slot(np.random.default_rng(14))],
                             SocState((0.5, 0.5)), specs, market)
        tpl = inst.template
        a, rhs = unscaled_seeds(inst)
        t = np.linspace(0.0, 1.0, 9)
        for i, spec in enumerate(specs):
            own = np.flatnonzero(tpl.qcols[0] == inst.col("pc", i, 0))
            assert len(own) == len(spec.aging_segments)
            assert tpl.rate_max[:, own].T.tolist() == [
                [spec.charge_rate_max, spec.discharge_rate_max]] * len(own)
            seeds = (9 * own[:, None] + np.arange(9)).ravel()
            (lc, ld), (qc, qd) = (np.repeat(c, 9, axis=1)
                                  for c in tpl.qcoef[1:, :, own])
            at_c = np.tile(t * spec.charge_rate_max, len(own))
            at_d = np.tile(t * spec.discharge_rate_max, len(own))
            np.testing.assert_allclose(a[seeds, inst.col("pc", i, 0)],
                                       2.0 * qc * at_c + lc, rtol=1e-12)
            np.testing.assert_allclose(a[seeds, inst.col("pd", i, 0)],
                                       2.0 * qd * at_d + ld, rtol=1e-12)
            np.testing.assert_allclose(rhs[seeds], qd * at_d * at_d, rtol=1e-12)


class TestCuts:
    def test_pool_cuts_valid_on_feasible_points(self, spec1, market):
        # every tangent cut generated while solving must hold at any point
        # with the epigraph variable at its true value
        inst = build_problem(0, [rand_slot(np.random.default_rng(7))],
                             SocState((0.5,)), [spec1], market)
        pool = CutPool(inst)
        solve_relaxation(inst, None, pool)
        assert len(pool.rows) > len(inst.template.qvc) * 3 - 1  # seeds plus extras
        # the cuts are the model's last rows; undo each row's scaling, which
        # divided zeta's coefficient -1 by the cut scale
        a, b = held_rows(pool._highs)
        cuts = a.toarray()[-len(pool.rows):]
        scale = -1.0 / cuts[:, inst.col("zeta", 0, 0)]
        cuts *= scale[:, None]
        rhs = b[-len(pool.rows):] * scale
        rng = np.random.default_rng(8)
        for _ in range(300):
            x = mode_point(inst, rng, [spec1], int(rng.integers(2)))
            assert (cuts @ x <= rhs + 1e-9).all()

    def test_relaxation_enforces_epigraph_to_tolerance(self, spec1, market):
        inst = build_problem(0, [rand_slot(np.random.default_rng(9))],
                             SocState((0.5,)), [spec1], market)
        sol = solve_relaxation(inst, {c: 0 for c in inst.template.binary_cols
                                      if "vc" not in inst.template.names[c]})
        assert sol.status == "optimal"
        for q in epi_rows(inst.template):
            assert q.violation(sol.x) <= 1e-6

    def test_cut_round_limit_raises(self, market, monkeypatch):
        # steep wear curve with an interior discharge optimum (about 31 kW,
        # between two seed points, where no seed tangent is exact): one round
        # of cuts cannot close the epigraph gap
        monkeypatch.setattr(solver_module, "CUT_ROUND_LIMIT", 1)
        spec = make_spec(1, aging_segments=SegmentSet(((1e-3, 1e-4),)))
        s = SlotExogenous(demand=0.0, renewable=0.0, price_purchase=10.0,
                          price_sale=6.0, price_rmccp=0.0, price_rmpcp=0.0,
                          perf_score=0.9, mileage_ratio=2.0, reg_up_flag=0,
                          price_reserve=0.0)
        inst = build_problem(0, [s], SocState((0.5,)), [spec], market)
        with pytest.raises(SolverError, match="cut rounds"):
            solve_relaxation(inst, {c: 0 for c in inst.template.binary_cols})


class TestRowCount:
    def test_rows_counts_the_cuts_the_model_holds(self, market):
        # a benchmark tracer reads len(pool.rows) after construction and again
        # after the solve, and takes the difference as the number of cuts added
        inst = rand_instance(np.random.default_rng(11), n_ess=2, market=market)
        pool = CutPool(inst)
        seeds = len(pool.rows)
        assert seeds == 9 * len(inst.template.qvc)
        assert pool._highs.getLp().num_row_ == len(inst.rows) + seeds
        rounds = []
        while True:
            x = pool.solve(inst.lb, inst.ub).x
            hit = pool._violations(x)[0]
            before = len(pool.rows)
            assert pool.cut(x) == bool(hit.size)
            assert len(pool.rows) == before + len(hit)
            assert pool._highs.getLp().num_row_ == len(inst.rows) + len(pool.rows)
            if not hit.size:
                break
            rounds.append(len(hit))
        assert rounds  # cut rounds ran
        assert len(pool.rows) == seeds + sum(rounds)


def full_violation_rule(template, x):
    """The violation test with no early exit: every row's cut scale first,
    then excess > CUT_TOL * scale."""
    at = x[template.qcols]
    scale = solver_module._tangent_terms(template.qcoef, at[:2])[1]
    return (epigraph_excess(template.qcoef, at) > CUT_TOL * scale).nonzero()[0]


class TestCutEarlyExit:
    @pytest.mark.parametrize("horizon", [1, 4])
    def test_matches_full_rule(self, week_series, horizon):
        # cut skips the tangent terms when no excess is above CUT_TOL; on
        # random points of bundled-week windows, and on points whose zetas
        # put excesses below CUT_TOL, between CUT_TOL and CUT_TOL * scale
        # and above that, it must find the rows the full rule finds
        specs, market, _, _, run = load_config(BUNDLED_CONFIG)
        soc = SocState((run.initial_soc,) * len(specs))
        rng = np.random.default_rng(40 + horizon)
        exits = between = cuts = 0
        for t in range(0, len(week_series) - horizon + 1, 6):
            inst = build_problem(t, week_series[t:t + horizon], soc, specs, market)
            tpl = inst.template
            zeta = tpl.qcols[2]
            pool = CutPool(inst)
            for trial in range(30):
                x = rng.uniform(inst.lb, inst.ub)
                if trial % 3:
                    # each unit and slot's zeta puts the excess of its
                    # largest row at CUT_TOL times a draw from [0.5, 2 * scale)
                    # or, every third point, [0.5, scale)
                    x[zeta] = 0.0
                    at = x[tpl.qcols]
                    f = epigraph_excess(tpl.qcoef, at)
                    scale = solver_module._tangent_terms(tpl.qcoef, at[:2])[1]
                    top = 2.0 if trial % 3 == 1 else 1.0
                    for col in np.unique(zeta):
                        k = np.flatnonzero(zeta == col)
                        k = k[f[k].argmax()]
                        x[col] = f[k] - CUT_TOL * rng.uniform(0.5, top * scale[k])
                want = full_violation_rule(tpl, x)
                assert pool._violations(x)[0].tolist() == want.tolist()
                before = len(pool.rows)
                assert pool.cut(x) == bool(want.size)
                assert len(pool.rows) - before == want.size
                at = x[tpl.qcols]
                excess = epigraph_excess(tpl.qcoef, at)
                scale = solver_module._tangent_terms(tpl.qcoef, at[:2])[1]
                exits += excess.max() <= CUT_TOL
                between += int(((excess > CUT_TOL) & (excess <= CUT_TOL * scale)).any()
                               and not want.size)
                cuts += bool(want.size)
        # every branch ran: the early exit, the full test finding no cut
        # although an excess is above CUT_TOL, and cuts
        assert exits and between and cuts


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


class _WarningInfo:
    """HiGHS model proxy whose first `reads` iteration counts come with a
    warning status and a garbage value, as after an undecided run."""

    def __init__(self, highs, reads):
        self._highs = highs
        self.reads = reads

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getInfoValue(self, name):
        if self.reads:
            self.reads -= 1
            return HighsStatus.kWarning, -565_057_360
        return self._highs.getInfoValue(name)


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
            for col in inst.template.binary_cols:
                if rng.uniform() < 0.5:
                    lb[col] = ub[col] = float(rng.integers(2))
            warm = pool.solve(lb, ub)
            cold = cold_lp(*held_rows(pool._highs), lb, ub, inst.objective)
            assert warm.status == cold.status
            statuses.add(warm.status)
            if warm.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective,
                                                       rel=1e-9, abs=1e-9)
            # a point where quad row k lies below its function, so cut adds
            # its tangent there
            rows = epi_rows(inst.template)
            k = rng.integers(len(rows))
            q = rows[k]
            x = np.zeros(len(inst.lb))
            x[q.pc] = rng.uniform(0, inst.ub[q.pc])
            x[q.pd] = rng.uniform(0, inst.ub[q.pd])
            x[q.zeta] = q.f(x[q.pc], x[q.pd]) - 1.0
            assert k in pool._violations(x)[0]
            assert pool.cut(x)
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

    def test_iterations_counted_only_with_ok_info(self, market):
        rng = np.random.default_rng(7)
        inst = rand_instance(rng, n_ess=2, market=market)
        plain, proxied = CutPool(inst), CutPool(inst)
        proxied._highs = _WarningInfo(proxied._highs, 1)
        fixed_lb, fixed_ub = inst.lb.copy(), inst.ub.copy()
        first = inst.template.binary_cols[0]
        fixed_lb[first] = fixed_ub[first] = 1.0
        for pool in (plain, proxied):
            pool.solve(inst.lb, inst.ub)
        first = plain.lp_iters
        assert first > 0 and proxied.lp_iters == 0
        for pool in (plain, proxied):
            pool.solve(fixed_lb, fixed_ub)
        assert plain.lp_iters > first
        assert proxied.lp_iters == plain.lp_iters - first
        assert proxied.lp_calls == plain.lp_calls == 2

    def test_missing_highs_class_names_scipy_requirement(self):
        # a scipy without the bundled HiGHS class must fail at import with the
        # requirement, not later inside a solve
        code = ("import sys, types, scipy.optimize\n"
                "sys.modules['scipy.optimize._highspy._core'] = "
                "types.ModuleType('empty')\n"
                "import essdispatch\n")
        proc = run_python(code)
        assert proc.returncode != 0
        assert "ImportError: essdispatch requires scipy>=1.17" in proc.stderr

    @pytest.mark.parametrize("core", [None, "python"])
    def test_fake_scipy_without_highs_extension(self, tmp_path, core):
        # a scipy whose _highspy holds no extension file: with no _core at all
        # the import fails with the requirement; a _core the regular import
        # finds (as in a build that keeps its extensions elsewhere) is used
        highspy = tmp_path / "scipy" / "optimize" / "_highspy"
        highspy.mkdir(parents=True)
        for package in (highspy, highspy.parent, highspy.parent.parent):
            (package / "__init__.py").write_text("")
        if core:
            (highspy / "_core.py").write_text(
                "class _Enum:\n"
                "    def __getattr__(self, name):\n"
                "        return name\n"
                "HighsBasisStatus = HighsModelStatus = HighsStatus = _Enum()\n"
                "class _Highs:\n"
                "    pass\n")
        code = ("from essdispatch import solver\n"
                "print(solver._Highs.__module__)\n")
        proc = run_python(code, tmp_path)
        if core:
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "scipy.optimize._highspy._core"
        else:
            assert proc.returncode != 0
            assert "ImportError: essdispatch requires scipy>=1.17" in proc.stderr

    def test_solve_leaves_scipy_optimize_unimported(self):
        # the HiGHS extension loads on its own: the CLI and a solve of a
        # bundled-week window never import scipy.optimize, nor scipy itself
        code = ("import sys\n"
                "import essdispatch.cli\n"
                "from essdispatch import (SocState, build_problem, load_config,\n"
                "                         load_timeseries_csv, solve)\n"
                "specs, market, config, _, _ = load_config(\n"
                f"    {str(BUNDLED_CONFIG)!r})\n"
                "series = load_timeseries_csv(\n"
                f"    {str(BUNDLED_CONFIG.with_name('fixture_week.csv'))!r})\n"
                "state = SocState(tuple(0.5 for _ in specs))\n"
                "res = solve(build_problem(0, series[:4], state, specs, market),\n"
                "            config)\n"
                "assert res.status == 'optimal', res.status\n"
                "assert 'scipy.optimize' not in sys.modules\n"
                "assert 'scipy' not in sys.modules\n")
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("first", ["essdispatch", "scipy.optimize"])
    def test_either_import_order_shares_scipy_highs(self, first):
        # whichever comes first, scipy.optimize and the solver share one HiGHS
        # extension module, solver.linprog is scipy's, and linprog still solves
        code = (f"import {first}\n"
                "import scipy.optimize, scipy.optimize._highspy._core as core\n"
                "from essdispatch import solver\n"
                "assert solver._Highs is core._Highs\n"
                "assert solver.linprog is scipy.optimize.linprog\n"
                "res = scipy.optimize.linprog([-1, -1], A_ub=[[1, 2], [3, 1]],\n"
                "                             b_ub=[4, 5])\n"
                "assert res.status == 0 and abs(res.fun + 2.6) < 1e-9, res\n")
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr

    def test_lp_work_reported(self, market):
        res = solve(rand_instance(np.random.default_rng(17), n_ess=2,
                                  market=market))
        assert res.lp_calls >= res.node_count
        assert res.lp_iters > 0
        assert res.lp_restarts == 0


class TestModelSet:
    def test_one_model_per_template(self, specs, market):
        # windows of one template share one model, whatever their reg-up/down
        # pattern; a kept model takes its next window's costs and right-hand
        # sides in place and loses the last window's cuts, which leaves the
        # LP a fresh load holds
        rng = np.random.default_rng(21)

        def window(*flags):
            exog = [replace(rand_slot(rng), reg_up_flag=u) for u in flags]
            soc = SocState(tuple(rng.uniform(0.3, 0.8, len(specs)).tolist()))
            return build_problem(0, exog, soc, specs, market)

        a, b = window(0, 1), window(1, 0)
        assert a.template is b.template
        models = ModelSet()
        first = CutPool(a, models)
        assert models.pool is first
        seeds = len(first.rows)
        hot = np.zeros(len(a.lb))
        hot[a.template.cols["pc"]] = 100.0
        assert first.cut(hot) and len(first.rows) > seeds
        second = CutPool(b, models)
        assert models.pool is second
        assert second._highs is first._highs
        assert second.rows == range(seeds)
        fresh = CutPool(b)
        assert fresh._highs is not first._highs
        got, want = held_rows(second._highs), held_rows(fresh._highs)
        assert (got[0].toarray() == want[0].toarray()).all()
        assert got[1].tobytes() == want[1].tobytes()
        assert (np.asarray(second._highs.getLp().col_cost_).tobytes()
                == np.asarray(fresh._highs.getLp().col_cost_).tobytes())
        assert second.solve(b.lb, b.ub).objective == pytest.approx(
            fresh.solve(b.lb, b.ub).objective, rel=1e-9, abs=1e-9)

    def test_other_template_replaces_the_model(self, specs, market, monkeypatch):
        # a window of another length drops the last model, which is
        # destroyed before the new one is made, and loads a new one that
        # holds what a fresh load holds
        rng = np.random.default_rng(4)
        soc = SocState((0.5, 0.5))
        a, b = (build_problem(0, [rand_slot(rng) for _ in range(horizon)],
                              soc, specs, market)
                for horizon in (2, 1))
        models = ModelSet()
        gone = weakref.ref(CutPool(a, models)._highs)
        assert gone() is not None  # the set keeps it
        alive_at_load = []
        make_model = solver_module._model

        def model():
            alive_at_load.append(gone() is not None)
            return make_model()

        monkeypatch.setattr(solver_module, "_model", model)
        pool = CutPool(b, models)
        monkeypatch.undo()
        assert alive_at_load == [False]
        assert gone() is None
        assert CutPool(b, models)._highs is pool._highs
        fresh = CutPool(b)
        assert lp_bytes(pool._highs) == lp_bytes(fresh._highs)
        assert (pool.solve(b.lb, b.ub).x.tobytes()
                == fresh.solve(b.lb, b.ub).x.tobytes())

    def test_failed_load_leaves_the_set_empty(self, specs, market, monkeypatch):
        # a load that raises leaves no pool in the set, and the next window
        # loads the model a fresh pool holds
        rng = np.random.default_rng(8)
        soc = SocState((0.5, 0.5))
        a, b = (build_problem(0, [rand_slot(rng) for _ in range(horizon)],
                              soc, specs, market)
                for horizon in (2, 1))
        models = ModelSet()
        CutPool(a, models)

        def broken(template):
            raise RuntimeError("seed tangents failed")

        monkeypatch.setattr(solver_module, "_seed_tangents", broken)
        with pytest.raises(RuntimeError, match="seed tangents failed"):
            CutPool(b, models)
        assert models.pool is None
        monkeypatch.undo()
        pool = CutPool(b, models)
        assert models.pool is pool
        assert lp_bytes(pool._highs) == lp_bytes(CutPool(b)._highs)

    def test_failed_update_leaves_the_set_empty(self, specs, market):
        # an in-place update that raises leaves no pool in the set, so the
        # next window of the template loads a new model instead of taking
        # over the half-updated one
        rng = np.random.default_rng(9)
        soc = SocState((0.5, 0.5))
        a, b = (build_problem(0, [rand_slot(rng), rand_slot(rng)], soc, specs,
                              market) for _ in range(2))
        assert a.template is b.template and (a.rhs != b.rhs).any()

        class FailingBounds:
            """HiGHS model proxy whose changeRowBounds raises."""

            def __init__(self, highs):
                self._highs = highs

            def __getattr__(self, name):
                return getattr(self._highs, name)

            def changeRowBounds(self, *args):
                raise RuntimeError("changeRowBounds failed")

        models = ModelSet()
        first = CutPool(a, models)
        first._highs = half = FailingBounds(first._highs)
        with pytest.raises(RuntimeError, match="changeRowBounds failed"):
            CutPool(b, models)
        assert models.pool is None
        pool = CutPool(b, models)
        assert pool._highs is not half and pool._highs is not half._highs
        assert lp_bytes(pool._highs) == lp_bytes(CutPool(b)._highs)


class _BasisLog:
    """HiGHS model proxy that logs its run, getBasis and setBasis calls, the
    last with the row statuses it was given; setBasis answers `answer`
    instead of HiGHS's own status when one is given."""

    def __init__(self, highs, answer=None):
        self._highs = highs
        self.answer = answer
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def run(self):
        self.calls.append(("run",))
        return self._highs.run()

    def getBasis(self):
        self.calls.append(("getBasis",))
        return self._highs.getBasis()

    def setBasis(self, basis):
        self.calls.append(("setBasis", list(basis.row_status)))
        status = self._highs.setBasis(basis)
        return status if self.answer is None else self.answer


class TestParentBasis:
    def test_restore_right_after_capture_sets_nothing(self, market):
        inst = rand_instance(np.random.default_rng(1), n_ess=2, market=market)
        pool = CutPool(inst)
        pool._highs = log = _BasisLog(pool._highs)
        pool.solve(inst.lb, inst.ub)
        saved = pool.basis()
        pool.restore(saved)
        assert log.calls == [("run",), ("getBasis",)]
        ub = inst.ub.copy()
        ub[inst.template.binary_cols[0]] = 0.0
        pool.solve(inst.lb, ub)
        pool.restore(saved)
        assert [c[0] for c in log.calls[2:]] == ["run", "setBasis"]
        # the re-installed basis is optimal for the LP it was taken at
        assert pool.solve(inst.lb, inst.ub).status == "optimal"
        assert pool._highs.getInfoValue("simplex_iteration_count")[1] == 0

    def test_rows_added_since_capture_are_basic(self, market):
        inst = rand_instance(np.random.default_rng(1), n_ess=2, market=market)
        pool = CutPool(inst)
        pool._highs = log = _BasisLog(pool._highs)
        pool.solve(inst.lb, inst.ub)
        saved = pool.basis()
        before = list(saved[0].row_status)
        hot = np.zeros(len(inst.lb))
        hot[inst.template.cols["pc"]] = 100.0
        assert pool.cut(hot)
        pool.solve(inst.lb, inst.ub)
        pool.restore(saved)
        (name, rows), = log.calls[3:]
        assert name == "setBasis" and len(rows) == pool._highs.getNumRow()
        assert rows[:len(before)] == before and len(rows) > len(before)
        assert set(rows[len(before):]) == {HighsBasisStatus.kBasic}
        assert saved[1] == len(rows)

    def test_rejected_basis_raises(self, market):
        inst = rand_instance(np.random.default_rng(1), n_ess=2, market=market)
        pool = CutPool(inst)
        pool._highs = _BasisLog(pool._highs, answer=HighsStatus.kWarning)
        pool.solve(inst.lb, inst.ub)
        saved = pool.basis()
        pool.solve(inst.lb, inst.ub)
        with pytest.raises(SolverError, match="rejected a saved basis"):
            pool.restore(saved)

    def test_nodes_start_from_their_parents_basis(self, market, monkeypatch):
        # a branching window: children run right after their parent without
        # a setBasis, the others after one, and the result is the one a
        # pool without the proxy finds
        inst = rand_instance(np.random.default_rng(6), n_ess=2, market=market)
        reference = solve(inst)
        logs = []

        def logged():
            logs.append(_BasisLog(_Highs()))
            return logs[-1]

        monkeypatch.setattr(solver_module, "_Highs", logged)
        res = solve(inst)
        assert res.node_count == reference.node_count > 3
        assert res.x.tobytes() == reference.x.tobytes()
        names = [c[0] for c in logs[0].calls]
        pairs = list(zip(names, names[1:]))
        assert ("getBasis", "run") in pairs and ("setBasis", "run") in pairs
        # at most one setBasis per node after the root, and not at every one
        assert 0 < names.count("setBasis") < res.node_count - 1


class TestPolish:
    def test_closed_side_zeroed_exactly(self, specs, market):
        # LP-tolerance flows on the side a mode flag closes, as the optimum
        # of a bundled-week window had: vc = 0 with pc = 1.04e-7 kW
        rng = np.random.default_rng(9)
        inst = build_problem(0, [rand_slot(rng) for _ in range(2)],
                             SocState((0.5, 0.5)), specs, market)
        c = inst.template.cols
        x = np.zeros(len(inst.lb))
        x[c["vc"][0, 0]], x[c["pc"][0, 0]], x[c["pd"][0, 0]] = 0.0, 1e-7, 30.0
        x[c["prec"][0, 0]] = x[c["pfrc"][0, 0]] = 4e-8
        x[c["vc"][1, 0]], x[c["pc"][1, 0]], x[c["pd"][1, 0]] = 1.0 - 1e-9, 50.0, 1e-7
        x[c["pfrd"][1, 0]] = 1e-7
        x[c["vc"][0, 1]], x[c["vfr"][1]] = 1e-9, 1.0 - 1e-9
        polished, obj = solver_module._polish(inst, x)
        binary = inst.template.binary_cols
        assert polished[binary].tolist() == np.round(x[binary]).tolist()
        for var, i, want in (("pc", 0, 0.0), ("prec", 0, 0.0), ("pfrc", 0, 0.0),
                             ("pd", 0, 30.0), ("pc", 1, 50.0), ("pd", 1, 0.0),
                             ("pfrd", 1, 0.0)):
            assert polished[c[var][i, 0]] == want
        assert obj == float(inst.objective @ polished)
        for i, spec in enumerate(specs):
            zeta = polished[c["zeta"][i, 0]]
            assert zeta == segment_max(segment_coefficients(spec),
                                       polished[c["pc"][i, 0]],
                                       polished[c["pd"][i, 0]])
        # the decoded decisions meet the mode links with no tolerance
        d = recover_service_split(SolveResult("optimal", obj, obj, polished, 1, inst))[0]
        for i, spec in enumerate(specs):
            assert d.charge_total[i] <= spec.charge_rate_max * d.mode_flag[i]
            assert d.discharge_total[i] <= ((1 - d.mode_flag[i])
                                            * spec.discharge_rate_max)
        assert d.mode_flag == (0, 1) and d.charge_total == (0.0, 50.0)

    @pytest.mark.parametrize("horizon", [1, 4])
    def test_polished_point_meets_every_epigraph_row(self, week_series, horizon):
        # Polish lifts each zeta to its segment maximum, which every epigraph
        # row then meets with no tolerance at all, under the rows' own
        # arithmetic; here at random points of bundled-week windows.
        specs, market, _, _, run = load_config(BUNDLED_CONFIG)
        soc = SocState((run.initial_soc,) * len(specs))
        rng = np.random.default_rng(horizon)
        for t in range(0, len(week_series) - horizon + 1, 6):
            inst = build_problem(t, week_series[t:t + horizon], soc, specs, market)
            tpl = inst.template
            for _ in range(20):
                x = solver_module._polish(inst, rng.uniform(inst.lb, inst.ub))[0]
                assert epigraph_excess(tpl.qcoef, x[tpl.qcols]).max() <= 0.0


def scalar_fractional(x, binary_cols, tol):
    """The scalar scan over numpy values that _fractional must match."""
    best = None
    best_frac = tol
    for col in binary_cols:
        frac = abs(x[col] - round(x[col]))
        if frac > best_frac + 1e-15:
            best, best_frac = col, frac
    return best


class TestFractional:
    def test_prefilter_matches_scalar_rule(self):
        tol = INT_TOL
        threshold = tol + 1e-15
        below, above = np.nextafter(threshold, 0.0), np.nextafter(threshold, 1.0)
        cols = np.arange(1, 40, 2)
        # values at the threshold are integral, one ulp above is fractional
        for v, want in ((threshold, None), (-threshold, None), (below, None),
                        (above, cols[3]), (-above, cols[3])):
            x = np.zeros(41)
            x[cols[3]] = v
            assert solver_module._fractional(x, cols, tol) == want
            assert scalar_fractional(x, cols, tol) == want
        integral = [0.0, -0.0, 1.0, tol, threshold, below, -threshold]
        special = integral + [above, -above, 1.0 - 2.0 ** -20, 0.5, 0.25]
        rng = np.random.default_rng(600)
        outcomes = set()
        for _ in range(500):
            x = rng.uniform(-0.2, 1.2, 41)
            if rng.uniform() < 0.3:
                x[cols] = rng.choice(integral, size=len(cols))
            pick = rng.uniform(size=41) < rng.uniform(0.0, 0.3)
            x[pick] = rng.choice(special, size=int(pick.sum()))
            want = scalar_fractional(x, cols, tol)
            assert solver_module._fractional(x, cols, tol) == want
            outcomes.add(None if want is None else int(want))
        assert None in outcomes and len(outcomes) > 5


class TestBruteForce:
    def test_binary_cap_enforced(self, specs, market):
        rng = np.random.default_rng(13)
        inst = build_problem(0, [rand_slot(rng) for _ in range(3)],
                             SocState((0.5, 0.5)), specs, market)
        with pytest.raises(ValueError, match="enumeration cap"):
            brute_force_oracle(inst, max_binaries=8)


# The scalar, row-by-row pool assembly that CutPool's array code replaces;
# the pool must hand HiGHS bit-identical rows.

def scalar_scaled_csr(rows):
    starts = np.zeros(len(rows), dtype=np.int32)
    index, value = [], []
    rhs = np.zeros(len(rows))
    for r, row in enumerate(rows):
        starts[r] = len(index)
        scale = max(max(map(abs, row.coeffs.values()), default=0.0), 1e-12)
        for j, c in row.coeffs.items():
            if c != 0.0:
                index.append(j)
                value.append(c / scale)
        rhs[r] = row.rhs / scale
    return starts, np.array(index, dtype=np.int32), np.array(value), rhs


def scalar_tangent_cut(q, x_c, x_d):
    gc = 2.0 * q.quad_c * x_c + q.lin_c
    gd = 2.0 * q.quad_d * x_d + q.lin_d
    rhs = q.quad_c * x_c * x_c + q.quad_d * x_d * x_d
    return LinRow({q.pc: gc, q.pd: gd, q.zeta: -1.0}, rhs, f"cut {q.name}")


def scalar_seed_cut(q, vc, x_c, x_d):
    """The tangent at (x_c, x_d) lifted with the mode column vc."""
    gc = 2.0 * q.quad_c * x_c + q.lin_c
    gd = 2.0 * q.quad_d * x_d + q.lin_d
    lift = q.quad_d * x_d * x_d - q.quad_c * x_c * x_c
    return LinRow({q.pc: gc, q.pd: gd, vc: lift, q.zeta: -1.0},
                  q.quad_d * x_d * x_d, f"seed {q.name}")


def scalar_cut_scale(q, x):
    return max(1.0, abs(2.0 * q.quad_c * x[q.pc] + q.lin_c),
               abs(2.0 * q.quad_d * x[q.pd] + q.lin_d))


class RecordingHighs:
    """A HiGHS model that keeps the raw bytes of every addRows call."""

    def __init__(self):
        self._highs = _Highs()
        self.added = []

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def addRows(self, *args):
        self.added.append([a.dtype.str + ":" + a.tobytes().hex()
                           if isinstance(a, np.ndarray) else a for a in args])
        return self._highs.addRows(*args)


class ScalarPool:
    """One window's HiGHS model fed LinRow by LinRow, replaying the calls
    CutPool and solve_relaxation make."""

    def __init__(self, inst):
        n = len(inst.lb)
        self.cols = np.arange(n, dtype=np.int32)
        self.highs = RecordingHighs()
        self.highs.setOptionValue("output_flag", False)
        self.highs.setOptionValue("presolve", "off")
        self.highs.setOptionValue("primal_feasibility_tolerance", 1e-9)
        self.highs.addVars(n, inst.lb, inst.ub)
        self.highs.changeColsCost(n, self.cols, inst.objective)
        self.rows = []
        self._append(inst.rows)
        seeds = []
        self.epi_rows = epi_rows(inst.template)
        for q in self.epi_rows:
            # the unit and slot whose pc column the row holds
            i, tau = np.argwhere(inst.template.cols["pc"] == q.pc)[0]
            spec, vc = inst.template.specs[i], inst.template.cols["vc"][i, tau]
            for t in np.linspace(0.0, 1.0, 9):
                seeds.append(scalar_seed_cut(q, vc, t * spec.charge_rate_max,
                                             t * spec.discharge_rate_max))
        self.add(seeds)

    def _append(self, rows):
        if rows:
            starts, index, value, rhs = scalar_scaled_csr(rows)
            self.highs.addRows(len(rows), np.full(len(rows), -np.inf), rhs,
                               len(index), starts, index, value)

    def add(self, cuts):
        self._append(cuts)
        self.rows.extend(cuts)

    def relax(self, inst, lb, ub, cut_tol):
        while True:
            self.highs.changeColsBounds(len(self.cols), self.cols, lb, ub)
            self.highs.run()
            if self.highs.getModelStatus() != HighsModelStatus.kOptimal:
                return None
            x = np.array(self.highs.getSolution().col_value)
            violated = [q for q in self.epi_rows
                        if q.violation(x) > cut_tol * scalar_cut_scale(q, x)]
            if not violated:
                return x
            self.add([scalar_tangent_cut(q, x[q.pc], x[q.pd]) for q in violated])


def lp_bytes(highs):
    """Every array of the model's LP, as raw bytes."""
    lp = highs.getLp()
    a = lp.a_matrix_
    return [np.asarray(v).tobytes() for v in
            (a.start_, a.index_, a.value_, lp.row_lower_, lp.row_upper_,
             lp.col_cost_, lp.col_lower_, lp.col_upper_)]


def zero_coeff_instance(rng, n_ess, horizon, market):
    """A random instance with zero row coefficients: no regulation minimum
    zeroes fr_min's vfr term, and a segment with b = 0 gives the seed
    tangent at the origin a zero gradient."""
    segments = SegmentSet(((1e-4, 0.0), (4e-6, 8e-6), (0.0, 1.2e-5)))
    specs = [make_spec(1 + i % 2, id=i + 1, aging_segments=segments)
             for i in range(n_ess)]
    slots = [rand_slot(rng) for _ in range(horizon)]
    soc = SocState(tuple(float(rng.uniform(0.25, 0.85)) for _ in specs))
    return build_problem(0, slots, soc, specs, replace(market, reg_min_power=0.0))


class TestArrayPool:
    def test_scaled_csr_matches_scalar(self):
        rows = [LinRow({3: 2.0, 0: -0.0, 1: -8.0}, 4.0), LinRow({}, 1.0),
                LinRow({2: 0.0}, -3.0), LinRow({1: 1e-14}, 0.0),
                LinRow({0: 5, 2: 0.25}, 7)]
        lin = LinRows.of(rows)
        *csr, scale = solver_module._scaled_rows(lin)
        got = (*csr, lin.rhs / scale)
        want = scalar_scaled_csr(rows)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_rows_of_their_own_keep_their_scaling(self, specs, market):
        # an instance on a template that holds rows other than
        # build_problem's, as test_bound_gating_is_exact builds, loads those
        # rows with their own scaling, whether or not a window of the
        # build_problem template has run in a ModelSet before; the set never
        # serves it that window's model, and the build_problem template's
        # next window then loads its own rows again
        rng = np.random.default_rng(33)
        slots = [rand_slot(rng) for _ in range(2)]
        soc = SocState((0.5, 0.5))
        built = build_problem(0, slots, soc, specs, market)
        rows = LinRows.of(LinRow({j: c * (1.0 + 0.25 * (j % 3))
                                  for j, c in row.coeffs.items()}, row.rhs, row.name)
                          for row in built.rows)
        own = with_rows(built, rows)
        starts, index, value, scale = solver_module._scaled_rows(rows)
        rhs = rows.rhs / scale
        want = csr_array((value, index, np.append(starts, len(index))),
                         shape=(len(rhs), len(own.lb))).toarray()

        def base_rows(pool):
            a, b = held_rows(pool._highs)
            return a.toarray()[:len(rhs)].tobytes(), b[:len(rhs)].tobytes()

        fresh = base_rows(CutPool(own))
        models = ModelSet()
        first = CutPool(built, models)
        assert base_rows(first)[0] != want.tobytes()
        in_set = CutPool(own, models)
        assert in_set._highs is not first._highs
        assert (fresh == base_rows(CutPool(own)) == base_rows(in_set)
                == (want.tobytes(), rhs.tobytes()))
        again = CutPool(built, models)
        assert again._highs is not first._highs and again._highs is not in_set._highs
        assert base_rows(again) == base_rows(first)

    @pytest.mark.parametrize("seed", range(6))
    def test_lp_matches_scalar_assembly(self, market, seed, monkeypatch):
        # HiGHS gets the same addRows batches, byte for byte, and holds the
        # same LP, right after construction and after each set of cut rounds
        monkeypatch.setattr(solver_module, "_Highs", RecordingHighs)
        rng = np.random.default_rng(310 + seed)
        inst = zero_coeff_instance(rng, 1 + seed % 2, 1 + seed % 3, market)
        pool, ref = CutPool(inst), ScalarPool(inst)
        assert any(0.0 in row.coeffs.values() for row in inst.rows)
        assert any(0.0 in row.coeffs.values() for row in ref.rows)
        assert len(pool.rows) == 9 * len(inst.template.qvc)
        assert pool._highs.added == ref.highs.added
        assert lp_bytes(pool._highs) == lp_bytes(ref.highs)
        for _ in range(4):
            fixed = {col: int(rng.integers(2)) for col in inst.template.binary_cols
                     if rng.uniform() < 0.5}
            sol = solve_relaxation(inst, fixed, pool)
            x = ref.relax(inst, *solver_module._fixed_bounds(inst, fixed),
                          CUT_TOL)
            assert (sol.status == "optimal") == (x is not None)
            if x is not None:
                assert sol.x.tobytes() == x.tobytes()
            assert len(pool.rows) == len(ref.rows)
            assert pool._highs.added == ref.highs.added
            assert lp_bytes(pool._highs) == lp_bytes(ref.highs)
        assert len(pool.rows) > 9 * len(inst.template.qvc)  # cut rounds ran

    def test_violation_rule_matches_scalar(self, market):
        rng = np.random.default_rng(400)
        inst = zero_coeff_instance(rng, 2, 3, market)
        pool = CutPool(inst)
        tol = CUT_TOL
        # at the origin the violation is -zeta and every cut scale is 1, so
        # zeta = -tol sits exactly on the strict threshold
        rows = epi_rows(inst.template)
        everyone = list(range(len(rows)))
        for zeta, want in ((-tol, []), (np.nextafter(-tol, -1.0), everyone)):
            x = np.zeros(len(inst.lb))
            x[[q.zeta for q in rows]] = zeta
            assert all(scalar_cut_scale(q, x) == 1.0 for q in rows)
            assert [k for k, q in enumerate(rows)
                    if q.violation(x) > tol * scalar_cut_scale(q, x)] == want
            assert pool._violations(x)[0].tolist() == want
        sizes = set()
        for _ in range(200):
            x = rng.uniform(inst.lb, inst.ub)
            # put zeta within a few thresholds of one row's value, so rows
            # fall on both sides of it
            for q in rows:
                if rng.uniform() < 0.5:
                    x[q.zeta] = (q.f(x[q.pc], x[q.pd])
                                 + rng.uniform(-2, 2) * tol * scalar_cut_scale(q, x))
            want = [k for k, q in enumerate(rows)
                    if q.violation(x) > tol * scalar_cut_scale(q, x)]
            assert pool._violations(x)[0].tolist() == want
            sizes.add(len(want))
        assert len(sizes) > 2
