import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest

from essdispatch import aging
from essdispatch import solver as solver_module
from essdispatch.aging import SegmentSet, segment_max
from essdispatch.domain import DispatchDecision, MarketSpec, SlotExogenous, SocState
from essdispatch.problem import (ESS_VARS, SLOT_VARS, ZERO_KW, LinRow, LinRows,
                                 QuadRow, build_problem, check_solution,
                                 decompose_at_point,
                                 mccormick_rows, objective_decomposition,
                                 recover_service_split)
from essdispatch.problem import SolveResult
from essdispatch.solver import SolverConfig, solve, solve_relaxation

from conftest import make_spec, with_rows
from record_windows import bundled_config
from test_solver import rand_slot


def slot(demand=500.0, renewable=200.0, purchase=0.15, sale=0.09,
         rmccp=0.03, rmpcp=0.01, perf=0.9, mileage=2.0, up=0, reserve=0.005):
    return SlotExogenous(demand=demand, renewable=renewable,
                         price_purchase=purchase, price_sale=sale,
                         price_rmccp=rmccp, price_rmpcp=rmpcp,
                         perf_score=perf, mileage_ratio=mileage,
                         reg_up_flag=up, price_reserve=reserve)


class TestBuildProblem:
    def test_variable_inventory_2ess_h4(self, specs, market):
        inst = build_problem(0, [slot()] * 4, SocState((0.5, 0.5)), specs, market)
        n_cont = inst.n_cols - len(inst.binary_cols)
        assert n_cont == 72          # 18 per slot: 8 per ESS + 2 shared
        assert len(inst.binary_cols) == 16
        soc_rows = [r for r in inst.rows if r.name.startswith("soc_")]
        assert len(soc_rows) == 16   # 2 rows per (ess, slot)
        # every column appears in a row or carries an objective coefficient
        used = set(np.nonzero(inst.objective)[0])
        for row in inst.rows:
            used.update(row.coeffs)
        for q in inst.quad_rows:
            used.update((q.pc, q.pd, q.zeta))
        assert used == set(range(inst.n_cols))

    def test_empty_horizon_rejected(self, specs, market):
        with pytest.raises(ValueError, match="nonempty"):
            build_problem(0, [], SocState((0.5, 0.5)), specs, market)

    def test_state_outside_bounds_rejected(self, specs, market):
        with pytest.raises(ValueError, match="SOC"):
            build_problem(0, [slot()], SocState((0.95, 0.5)), specs, market)

    def test_reg_up_blocks_regulation_charge(self, spec1, market):
        inst = build_problem(0, [slot(renewable=0.0, up=1)],
                             SocState((0.5,)), [spec1], market)
        row = next(r for r in inst.rows if r.name == "fr_c[0,0]")
        # the row is the same in every window; the charge-side bound is
        # multiplied by (1-u)=0: pfrc <= 0 regardless of vfr
        assert row.coeffs == {inst.col("pfrc", 0, 0): 1.0,
                              inst.col("vfr", 0): -spec1.charge_rate_max}
        assert inst.ub[inst.col("pfrc", 0, 0)] == 0.0
        res = solve(inst)
        assert res.status == "optimal"
        assert res.x[inst.col("pfrc", 0, 0)] == pytest.approx(0.0, abs=1e-9)

    def test_unreachable_reserve_forces_nonparticipation(self, spec1, market):
        big = dataclasses.replace(market, reserve_min_power=1000.0)
        inst = build_problem(0, [slot()], SocState((0.5,)), [spec1], big)
        res = solve(inst)
        assert res.status == "optimal"
        assert res.x[inst.col("vsr", 0)] == pytest.approx(0.0, abs=1e-7)


def z_interval(rows, v, reserve):
    """Feasible z range implied by the four rows at fixed v and reserve."""
    lo, hi = -1e9, 1e9
    for row in rows:
        cz = row.coeffs.get(0, 0.0)
        rest = row.coeffs.get(1, 0.0) * v + row.coeffs.get(2, 0.0) * reserve
        if cz > 0:
            hi = min(hi, (row.rhs - rest) / cz)
        elif cz < 0:
            lo = max(lo, (row.rhs - rest) / cz)
    return lo, hi


class TestMcCormick:
    # column convention in these tests: z=0, v=1, reserve=2
    def test_v_zero_pins_z_zero(self):
        rows = mccormick_rows(0, 1, 2, 74.0)
        lo, hi = z_interval(rows, v=0.0, reserve=50.0)
        assert (lo, hi) == (0.0, 0.0)

    def test_v_one_pins_z_to_reserve(self):
        rows = mccormick_rows(0, 1, 2, 74.0)
        lo, hi = z_interval(rows, v=1.0, reserve=50.0)
        assert lo == pytest.approx(50.0)
        assert hi == pytest.approx(50.0)

    def test_relaxed_interval(self):
        rows = mccormick_rows(0, 1, 2, 74.0)
        lo, hi = z_interval(rows, v=0.5, reserve=50.0)
        assert lo == pytest.approx(13.0)
        assert hi == pytest.approx(37.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="discharge_rate_max must be >= 0"):
            mccormick_rows(0, 1, 2, -1.0)

    def test_exact_at_binary_optimum(self, specs, market):
        inst = build_problem(0, [slot(reserve=0.02), slot(reserve=0.02)],
                             SocState((0.5, 0.5)), specs, market)
        res = solve(inst)
        assert res.status == "optimal"
        for tau in range(2):
            for i in range(2):
                v = round(res.x[inst.col("vc", i, tau)])
                z = res.x[inst.col("z", i, tau)]
                psr = res.x[inst.col("psr", i, tau)]
                assert z == pytest.approx(v * psr, abs=1e-6)

    def test_enumerating_mode_flag_reproduces_optimum(self, spec1, market):
        # Bilinear check: drop the z column, fix the mode flag, substitute
        # (1-v)*(p_max - reserve) directly, and compare with the solver.
        inst = build_problem(0, [slot(reserve=0.02)], SocState((0.5,)),
                             [spec1], market)
        best = np.inf
        for vc in (0, 1):
            for vfr in (0, 1):
                for vsr in (0, 1):
                    variant_rows = []
                    for row in inst.rows:
                        if row.name.startswith("mcc_"):
                            continue
                        if row.name.startswith("link_d_hi"):
                            pd_col = inst.col("pd", 0, 0)
                            psr_col = inst.col("psr", 0, 0)
                            row = dataclasses.replace(row, coeffs={
                                pd_col: 1.0, psr_col: 1.0 - vc},
                                rhs=(1 - vc) * spec1.discharge_rate_max)
                        variant_rows.append(row)
                    variant = with_rows(inst, LinRows.of(variant_rows),
                                        ub=inst.ub.copy())
                    variant.ub[inst.col("z", 0, 0)] = 0.0
                    fixed = {inst.col("vc", 0, 0): vc,
                             inst.col("vfr", 0): vfr, inst.col("vsr", 0): vsr}
                    sol = solve_relaxation(variant, fixed)
                    if sol.status == "optimal":
                        best = min(best, sol.objective)
        res = solve(inst)
        assert res.objective == pytest.approx(best, rel=1e-6)


def sample_feasible_point(inst, rng, with_markets=False):
    """Random feasible primal point for a 2-slot, 2-ESS instance at SOC 0.5."""
    x = np.zeros(inst.n_cols)
    for tau, s in enumerate(inst.exog):
        u = s.reg_up_flag
        re_left = s.renewable
        vfr = 1 if with_markets else 0
        vsr = 1 if (with_markets and tau == 0) else 0
        x[inst.col("vfr", tau)] = vfr
        x[inst.col("vsr", tau)] = vsr
        for i, spec in enumerate(inst.specs):
            # regulation commitments need the mode flag to match the direction
            vc = (1 - u) if with_markets else int(rng.uniform() < 0.5)
            x[inst.col("vc", i, tau)] = vc
            if vc:
                pfrc = 51.0 if (vfr and u == 0) else 0.0
                prec = min(rng.uniform(0, 0.2) * spec.charge_rate_max,
                           0.4 * re_left)
                re_left -= prec
                pc = min(pfrc + prec + rng.uniform(0, 10.0), spec.charge_rate_max)
                x[inst.col("pc", i, tau)] = pc
                x[inst.col("prec", i, tau)] = prec
                x[inst.col("pfrc", i, tau)] = pfrc
                psr = 51.0 if vsr else 0.0
                x[inst.col("psr", i, tau)] = psr
                x[inst.col("z", i, tau)] = psr  # vc=1
            else:
                pfrd = 51.0 if (vfr and u == 1) else 0.0
                psr = 51.0 if vsr else 0.0
                pd = min(pfrd + rng.uniform(0, 5.0),
                         spec.discharge_rate_max - psr)
                x[inst.col("pd", i, tau)] = pd
                x[inst.col("pfrd", i, tau)] = pfrd
                x[inst.col("psr", i, tau)] = psr
            x[inst.col("zeta", i, tau)] = segment_max(
                spec, x[inst.col("pc", i, tau)], x[inst.col("pd", i, tau)])
        presc = min(inst.exog[tau].demand, 0.5 * re_left)
        x[inst.col("presc", tau)] = presc
        x[inst.col("pres", tau)] = 0.5 * (re_left - presc)
    return x


class TestObjectiveDecomposition:
    def test_renewable_only_pattern(self, specs, market):
        # Full battery, purchase price below the marginal aging cost of
        # discharge, no regulation or reserve prices: the optimum leaves the
        # storage idle and TNP reduces to R_sc.
        horizon = [slot(purchase=0.01, sale=0.006, rmccp=0.0, rmpcp=0.0,
                        reserve=0.0)] * 2
        inst = build_problem(0, horizon, SocState((0.9, 0.9)), specs, market)
        res = solve(inst)
        parts = objective_decomposition(res)
        assert parts["r_fr"] == pytest.approx(0.0, abs=1e-6)
        assert parts["r_sr"] == pytest.approx(0.0, abs=1e-6)
        assert parts["r_br"] == pytest.approx(0.0, abs=1e-6)
        assert parts["aging_cost"] == pytest.approx(0.0, abs=1e-6)
        assert parts["tnp"] == pytest.approx(parts["r_sc"], rel=1e-9)
        assert parts["tnp"] == pytest.approx(res.tnp, rel=1e-9)

    @pytest.mark.parametrize("with_markets", [False, True])
    def test_component_sum_equals_consolidated_objective(self, specs, market,
                                                         with_markets):
        horizon = [slot(up=0), slot(up=1)]
        inst = build_problem(0, horizon, SocState((0.5, 0.5)), specs, market)
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = sample_feasible_point(inst, rng, with_markets)
            assert check_solution(inst, x) == []
            parts = decompose_at_point(inst, x)
            consolidated = -float(inst.objective @ x)
            assert parts["tnp"] == pytest.approx(consolidated, rel=1e-9, abs=1e-9)

    def test_renewable_charge_double_coefficient(self, specs, market):
        # with prec > 0 the consolidated objective's 2*prec term reproduces
        # the prec contributions of R_sc + R_fr + R_br exactly
        inst = build_problem(0, [slot()], SocState((0.5, 0.5)), specs, market)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = sample_feasible_point(inst, rng)
            if all(x[inst.col("prec", i, 0)] == 0 for i in range(2)):
                continue
            base = decompose_at_point(inst, x)
            x0 = x.copy()
            for i in range(2):
                # move renewable charge into plain charge, same totals
                x0[inst.col("prec", i, 0)] = 0.0
            x0[inst.col("pres", 0)] = 0.0
            x0[inst.col("presc", 0)] = 0.0
            moved = decompose_at_point(inst, x0)
            prec_total = sum(x[inst.col("prec", i, 0)] for i in range(2))
            delta_obj = -float(inst.objective @ x) + float(inst.objective @ x0) \
                - market.slot_hours * inst.exog[0].price_purchase \
                * x[inst.col("presc", 0)] \
                - market.slot_hours * inst.exog[0].price_sale * x[inst.col("pres", 0)]
            expected = 2 * market.slot_hours * inst.exog[0].price_purchase * prec_total
            assert delta_obj == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert (base["tnp"] - moved["tnp"]) == pytest.approx(
                delta_obj + market.slot_hours
                * (inst.exog[0].price_purchase * x[inst.col("presc", 0)]
                   + inst.exog[0].price_sale * x[inst.col("pres", 0)]),
                rel=1e-9, abs=1e-9)

    def test_decomposition_requires_optimal(self, specs, market):
        inst = build_problem(0, [slot()], SocState((0.5, 0.5)), specs, market)
        bad = SolveResult("infeasible", np.inf, np.inf, None, 0, inst)
        with pytest.raises(ValueError):
            objective_decomposition(bad)


class TestRecoverServiceSplit:
    def test_round_trip_on_solved_fixture(self, specs, market):
        horizon = [slot(up=0), slot(up=1), slot(purchase=0.25, sale=0.15)]
        inst = build_problem(0, horizon, SocState((0.5, 0.5)), specs, market)
        res = solve(inst)
        assert res.status == "optimal"
        for tau, d in enumerate(recover_service_split(res)):
            for i in range(2):
                # Eq-8/9 style reassembly reproduces the aggregate rates
                pc = (d.charge_from_renewable[i] + d.charge_for_regulation[i]
                      + d.charge_future[i])
                pd = d.discharge_for_regulation[i] + d.discharge_bill[i]
                assert pc == pytest.approx(d.charge_total[i], abs=1e-12)
                assert pd == pytest.approx(d.discharge_total[i], abs=1e-12)
                # mode exclusivity at the committed point
                assert d.charge_total[i] * d.discharge_total[i] <= \
                    1e-9 * specs[i].charge_rate_max * specs[i].discharge_rate_max

    def test_exact_split_cases(self, specs, market):
        inst = build_problem(0, [slot()], SocState((0.5, 0.5)), specs, market)
        x = np.zeros(inst.n_cols)
        x[inst.col("pc", 0, 0)] = 40.0
        x[inst.col("prec", 0, 0)] = 25.0
        x[inst.col("pfrc", 0, 0)] = 15.0
        x[inst.col("pd", 1, 0)] = 30.0
        x[inst.col("pfrd", 1, 0)] = 10.0
        d = recover_service_split(
            SolveResult("optimal", 0.0, 0.0, x, 1, inst))[0]
        assert d.charge_future[0] == pytest.approx(0.0, abs=1e-12)
        assert d.discharge_bill[1] == pytest.approx(20.0, abs=1e-12)

    def test_negative_split_rejected(self, specs, market):
        inst = build_problem(0, [slot()], SocState((0.5, 0.5)), specs, market)
        x = np.zeros(inst.n_cols)
        x[inst.col("pc", 0, 0)] = 10.0
        x[inst.col("pfrc", 0, 0)] = 15.0
        with pytest.raises(ValueError, match="negative recovered split"):
            recover_service_split(SolveResult("optimal", 0.0, 0.0, x, 1, inst))

    def test_lp_noise_reads_as_zero(self, specs, market):
        # near-zero flows of the kind an LP optimum carries, as the bundled
        # week's ledger booked (discharge 3.2e-13 kW): every decoded power at
        # or below 1e-9 kW, and a split left over by noise, is exactly 0
        inst = build_problem(0, [slot()], SocState((0.5, 0.5)), specs, market)
        x = np.zeros(inst.n_cols)
        x[inst.col("pd", 0, 0)] = 3.2e-13
        x[inst.col("pc", 1, 0)] = 40.0
        x[inst.col("prec", 1, 0)] = 40.0 - 5e-10
        x[inst.col("psr", 1, 0)] = 1e-9
        x[inst.col("presc", 0)] = 7.4e-13
        x[inst.col("pres", 0)] = 2e-9
        d = recover_service_split(SolveResult("optimal", 0.0, 0.0, x, 1, inst))[0]
        assert d.discharge_total == (0.0, 0.0) and d.discharge_bill == (0.0, 0.0)
        assert d.charge_total == (0.0, 40.0) and d.charge_future == (0.0, 0.0)
        assert d.reserve_commit == (0.0, 0.0)
        assert d.renewable_selfuse == 0.0 and d.renewable_export == 2e-9

    @pytest.mark.parametrize("horizon", [1, 4, 6])
    def test_solved_windows_match_reference(self, horizon, week_series):
        # optima of the bundled week, whose LP noise sits around ZERO_KW
        specs, market, config = bundled_config()
        rng = np.random.default_rng(horizon)
        for t in range(0, len(week_series) - horizon, 12):
            soc = SocState(tuple(float(rng.uniform(s.soc_min, s.soc_max))
                                 for s in specs))
            res = solve(build_problem(t, week_series[t:t + horizon], soc, specs,
                                      market), config)
            want = reference_recover_service_split(res)
            assert res.decisions == want and repr(res.decisions) == repr(want)


class TestSolutionInvariants:
    def test_optimum_satisfies_all_constraints(self, specs, market):
        horizon = [slot(up=0), slot(up=1, purchase=0.22, sale=0.13),
                   slot(renewable=0.0)]
        inst = build_problem(0, horizon, SocState((0.5, 0.5)), specs, market)
        res = solve(inst)
        assert res.status == "optimal"
        assert check_solution(inst, res.x) == []
        # SOC corridor with the reserve headroom term, slot by slot
        soc = list(inst.soc0)
        for tau, d in enumerate(res.decisions):
            for i, spec in enumerate(specs):
                soc[i] += market.slot_hours * (
                    spec.eff_charge * d.charge_total[i]
                    - d.discharge_total[i] / spec.eff_discharge
                ) / spec.energy_capacity
                floor = spec.soc_min + d.reserve_commit[i] * \
                    market.reserve_min_duration / spec.energy_capacity
                assert floor - 1e-7 <= soc[i] <= spec.soc_max + 1e-7


def scalar_check_solution(instance, x, lin_tol=1e-7, quad_tol=1e-6):
    """The column-by-column, row-by-row loop that check_solution's array code
    replaces."""
    out = []
    for j in range(instance.n_cols):
        if x[j] < instance.lb[j] - lin_tol or x[j] > instance.ub[j] + lin_tol:
            out.append(f"bound on {instance.names[j]}: {x[j]} outside "
                       f"[{instance.lb[j]}, {instance.ub[j]}]")
    for row in instance.rows:
        scale = max(abs(c) for c in row.coeffs.values())
        v = sum(c * x[j] for j, c in row.coeffs.items()) - row.rhs
        if v > lin_tol * max(scale, 1.0):
            out.append(f"row {row.name}: violated by {v}")
    for q in instance.quad_rows:
        scale = max(abs(q.row.quad_c), abs(q.row.lin_c),
                    abs(q.row.quad_d), abs(q.row.lin_d), 1.0)
        v = q.violation(x)
        if v > quad_tol * scale:
            out.append(f"epigraph ess {q.row.ess} slot {q.row.slot} "
                       f"segment {q.row.segment}: violated by {v}")
    return out


class TestCheckSolution:
    def test_matches_scalar_loop(self):
        # optima and random points, nudged by steps around and far past the
        # tolerances, give the same messages in the same order, at tolerances
        # that put the thresholds of rows of every scale among the excesses
        rng = np.random.default_rng(700)
        kinds, sizes = set(), set()
        for k in range(8):
            inst = build_problem(0, *random_window(rng, 1 + k % 3, 1 + k % 4))
            points = [solve(inst).x]
            for _ in range(40):
                x = random_point(inst, rng)
                nudge = rng.uniform(size=inst.n_cols) < rng.uniform(0.0, 0.3)
                x[nudge] += (rng.choice([-1.0, 1.0], int(nudge.sum()))
                             * rng.choice([1e-9, 1e-7, 2e-7, 1e-6, 1.0, 50.0],
                                          int(nudge.sum())))
                points.append(x)
            for x in points:
                tols = 10.0 ** rng.uniform(-9, 1, 2)
                want = scalar_check_solution(inst, x, *tols)
                assert check_solution(inst, x, *tols) == want
                sizes.add(len(want))
                kinds.update(m.split(" ", 1)[0] for m in want)
        assert 0 in sizes and len(sizes) > 10
        assert kinds == {"bound", "row", "epigraph"}



# The dict-of-rows builder, decoder and polish that the window templates
# replace; instances must match them bit for bit.

def reference_build_problem(t, horizon, state, specs, market, gate="bounds"):
    """The dict-of-rows builder that window templates replace.

    gate says where the slot's regulation flag u enters: in the column bounds
    ub[pfrd] = u*Pd and ub[pfrc] = (1-u)*Pc, as the templates have it, or
    ("rows") in the row coefficients of fr_d, fr_c and fr_min, the earlier
    form, whose rows differ between windows of one template."""
    H = len(horizon)
    if H == 0:
        raise ValueError("horizon must be nonempty")
    n = len(specs)
    if len(state) != n:
        raise ValueError("state / specs ESS count mismatch")
    for i, spec in enumerate(specs):
        if not (spec.soc_min - 1e-9 <= state.soc[i] <= spec.soc_max + 1e-9):
            raise ValueError(f"initial SOC {state.soc[i]} of ess {i} outside bounds")
    ts = market.slot_hours

    names: list[str] = []
    cols: dict[str, np.ndarray] = {}
    for var in ESS_VARS:
        cols[var] = np.zeros((n, H), dtype=int)
    for var in SLOT_VARS:
        cols[var] = np.zeros(H, dtype=int)
    cols["vc"] = np.zeros((n, H), dtype=int)
    cols["vfr"] = np.zeros(H, dtype=int)
    cols["vsr"] = np.zeros(H, dtype=int)

    def add(name: str) -> int:
        names.append(name)
        return len(names) - 1

    for tau in range(H):
        for i in range(n):
            for var in ESS_VARS:
                cols[var][i, tau] = add(f"{var}[{i},{tau}]")
        for var in SLOT_VARS:
            cols[var][tau] = add(f"{var}[{tau}]")
    binary_cols: list[int] = []
    for tau in range(H):
        for i in range(n):
            cols["vc"][i, tau] = add(f"vc[{i},{tau}]")
            binary_cols.append(cols["vc"][i, tau])
        cols["vfr"][tau] = add(f"vfr[{tau}]")
        binary_cols.append(cols["vfr"][tau])
        cols["vsr"][tau] = add(f"vsr[{tau}]")
        binary_cols.append(cols["vsr"][tau])

    n_cols = len(names)
    lb = np.zeros(n_cols)
    ub = np.zeros(n_cols)
    obj = np.zeros(n_cols)
    rows: list[LinRow] = []
    quad_rows: list[QuadRow] = []

    for tau, slot in enumerate(horizon):
        price_reg = slot.perf_score * (slot.price_rmccp
                                       + slot.price_rmpcp * slot.mileage_ratio)
        u = slot.reg_up_flag
        # The flag factors of the fr_d and fr_c rows and fr_min's weights.
        up, down = (1, 1) if gate == "bounds" else (u, 1 - u)
        for i, spec in enumerate(specs):
            pc = cols["pc"][i, tau]
            prec = cols["prec"][i, tau]
            pfrc = cols["pfrc"][i, tau]
            pd = cols["pd"][i, tau]
            pfrd = cols["pfrd"][i, tau]
            psr = cols["psr"][i, tau]
            z = cols["z"][i, tau]
            zeta = cols["zeta"][i, tau]
            vc = cols["vc"][i, tau]
            vfr = cols["vfr"][tau]
            vsr = cols["vsr"][tau]

            for c in (pc, prec, pfrc):
                ub[c] = spec.charge_rate_max
            for c in (pd, pfrd, psr, z):
                ub[c] = spec.discharge_rate_max
            lb[zeta], ub[zeta] = aging.zeta_bounds(spec)
            if gate == "bounds":
                ub[pfrd] = u * spec.discharge_rate_max
                ub[pfrc] = (1 - u) * spec.charge_rate_max

            tag = f"[{i},{tau}]"
            # Aggregate-rate linkage with the bill/future split eliminated.
            rows.append(LinRow({prec: 1.0, pfrc: 1.0, pc: -1.0}, 0.0, f"link_c_lo{tag}"))
            rows.append(LinRow({pc: 1.0, vc: -spec.charge_rate_max}, 0.0, f"link_c_hi{tag}"))
            rows.append(LinRow({pfrd: 1.0, pd: -1.0}, 0.0, f"link_d_lo{tag}"))
            rows.append(LinRow({pd: 1.0, vc: spec.discharge_rate_max, psr: 1.0, z: -1.0},
                               spec.discharge_rate_max, f"link_d_hi{tag}"))
            # Regulation direction gating by the exogenous up/down flag.
            rows.append(LinRow({pfrd: 1.0, vfr: -up * spec.discharge_rate_max}, 0.0,
                               f"fr_d{tag}"))
            rows.append(LinRow({pfrc: 1.0, vfr: -down * spec.charge_rate_max}, 0.0,
                               f"fr_c{tag}"))
            rows.append(LinRow({psr: 1.0, vsr: -spec.discharge_rate_max}, 0.0,
                               f"sr_cap{tag}"))
            rows.extend(mccormick_rows(z, vc, psr, spec.discharge_rate_max, tag))

            # SOC corridor on the cumulative dynamics up to this slot.
            k_c = ts * spec.eff_charge / spec.energy_capacity
            k_d = ts / (spec.eff_discharge * spec.energy_capacity)
            hi: dict[int, float] = {}
            lo: dict[int, float] = {}
            for sigma in range(tau + 1):
                hi[int(cols["pc"][i, sigma])] = k_c
                hi[int(cols["pd"][i, sigma])] = -k_d
                lo[int(cols["pc"][i, sigma])] = -k_c
                lo[int(cols["pd"][i, sigma])] = k_d
            rows.append(LinRow(hi, spec.soc_max - state.soc[i], f"soc_hi{tag}"))
            if market.reserve_min_duration > 0:
                lo[int(psr)] = lo.get(int(psr), 0.0) + \
                    market.reserve_min_duration / spec.energy_capacity
            rows.append(LinRow(lo, state.soc[i] - spec.soc_min, f"soc_lo{tag}"))

            for epi in aging.epigraph_rows(spec, tau):
                quad_rows.append(QuadRow(epi, int(pc), int(pd), int(zeta)))

            obj[pc] += ts * slot.price_purchase
            obj[prec] += -2.0 * ts * slot.price_purchase
            obj[pfrc] += -ts * price_reg * (1 - u)
            obj[pd] += -ts * slot.price_purchase
            obj[pfrd] += -ts * price_reg * u
            obj[psr] += -ts * slot.price_reserve
            obj[zeta] += aging.cost_scale(spec, ts)

        presc = cols["presc"][tau]
        pres = cols["pres"][tau]
        ub[presc] = slot.demand
        ub[pres] = market.export_power_max
        obj[presc] += -ts * slot.price_purchase
        obj[pres] += -ts * slot.price_sale

        balance = {int(presc): 1.0, int(pres): 1.0}
        fr_min: dict[int, float] = {int(cols["vfr"][tau]): market.reg_min_power}
        sr_min: dict[int, float] = {int(cols["vsr"][tau]): market.reserve_min_power}
        for i in range(n):
            balance[int(cols["prec"][i, tau])] = 1.0
            fr_min[int(cols["pfrc"][i, tau])] = -float(down)
            fr_min[int(cols["pfrd"][i, tau])] = -float(up)
            sr_min[int(cols["psr"][i, tau])] = -1.0
        rows.append(LinRow(balance, slot.renewable, f"re_balance[{tau}]"))
        rows.append(LinRow(fr_min, 0.0, f"fr_min[{tau}]"))
        rows.append(LinRow(sr_min, 0.0, f"sr_min[{tau}]"))

    for c in binary_cols:
        ub[c] = 1.0

    return SimpleNamespace(names=names, lb=lb, ub=ub, binary_cols=binary_cols,
                           rows=rows, quad_rows=quad_rows, objective=obj,
                           cols=cols)


def reference_recover_service_split(result):
    """Decode per-slot decisions, recovering the eliminated bill/future split.

    charge_future = pc - prec - pfrc and discharge_bill = pd - pfrd; both must
    come out nonnegative at any correct optimum.  Decoded powers at or below
    1e-9 kW read as 0.
    """
    if result.status != "optimal":
        raise ValueError(f"cannot decode decisions from status {result.status}")
    inst = result.instance
    x = result.x

    def kw(v):
        return v if v > 1e-9 else 0.0

    decisions = []
    for tau in range(inst.horizon):
        def ess_vals(var):
            # Clip LP-tolerance noise below the zero bound.
            return tuple(max(0.0, float(x[inst.col(var, i, tau)]))
                         for i in range(inst.n_ess))

        def ess_kw(var):
            return tuple(map(kw, ess_vals(var)))

        pc = ess_vals("pc")
        prec = ess_vals("prec")
        pfrc = ess_vals("pfrc")
        pd = ess_vals("pd")
        pfrd = ess_vals("pfrd")
        future = []
        bill = []
        for i in range(inst.n_ess):
            fs = pc[i] - prec[i] - pfrc[i]
            br = pd[i] - pfrd[i]
            if fs < -1e-9 or br < -1e-9:
                raise ValueError(
                    f"negative recovered split at ess {i}, slot {tau}: "
                    f"fs={fs}, br={br} (solver bug)")
            future.append(kw(fs))
            bill.append(kw(br))
        decisions.append(DispatchDecision(
            charge_total=ess_kw("pc"), discharge_total=ess_kw("pd"),
            charge_from_renewable=ess_kw("prec"),
            charge_for_regulation=ess_kw("pfrc"),
            discharge_for_regulation=ess_kw("pfrd"),
            reserve_commit=ess_kw("psr"), charge_future=tuple(future),
            discharge_bill=tuple(bill),
            mode_flag=tuple(int(round(x[inst.col("vc", i, tau)]))
                            for i in range(inst.n_ess)),
            renewable_selfuse=kw(float(x[inst.col("presc", tau)])),
            renewable_export=kw(float(x[inst.col("pres", tau)])),
            reg_participate=int(round(x[inst.col("vfr", tau)])),
            reserve_participate=int(round(x[inst.col("vsr", tau)])),
        ))
    return decisions


def reference_polish(instance, x):
    """Round the binaries, zero the flows of the side each mode flag closes,
    lift epigraph variables to their pointwise maxima and re-price."""
    x = x.copy()
    for col in instance.binary_cols:
        x[col] = round(x[col])
    for tau in range(instance.horizon):
        for i in range(instance.n_ess):
            closed = (("pd", "pfrd") if x[instance.col("vc", i, tau)] == 1.0
                      else ("pc", "prec", "pfrc"))
            for var in closed:
                x[instance.col(var, i, tau)] = 0.0
    for tau in range(instance.horizon):
        for i, spec in enumerate(instance.specs):
            zeta = instance.col("zeta", i, tau)
            val = aging.segment_max(spec, max(0.0, x[instance.col("pc", i, tau)]),
                                    max(0.0, x[instance.col("pd", i, tau)]))
            x[zeta] = max(x[zeta], val)
    return x, float(instance.objective @ x)


def random_window(rng, n_ess, horizon):
    """A random window over the shapes the templates must cover: 1-3 ESS, a
    market with or without reserve duration and minimum powers, mixed
    regulation flags, zero prices (a -0.0 objective term) and, for some
    specs, an aging segment with b = 0."""
    market = MarketSpec(
        slot_hours=float(rng.choice([1.0, 0.5])),
        reg_min_power=float(rng.choice([0.0, 100.0])),
        reserve_min_power=float(rng.choice([0.0, 80.0])),
        reserve_min_duration=float(rng.choice([0.0, 1.0, 2.5])))
    segments = SegmentSet(((1e-4, 0.0), (4e-6, 8e-6), (0.0, 1.2e-5)))
    specs = [make_spec(1 + i % 2, id=i + 1,
                       unit_capital_cost=float(rng.uniform(50, 300)),
                       **({"aging_segments": segments} if rng.uniform() < 0.5 else {}))
             for i in range(n_ess)]
    slots = [rand_slot(rng) for _ in range(horizon)]
    for k in range(horizon):
        if rng.uniform() < 0.3:
            slots[k] = dataclasses.replace(slots[k], price_reserve=0.0,
                                           price_rmccp=0.0, price_rmpcp=0.0)
    soc = SocState(tuple(float(rng.uniform(s.soc_min, s.soc_max)) for s in specs))
    return slots, soc, specs, market


# Powers at and just past the zero bound and ZERO_KW, and binaries at 0.5 and
# 1.5, where round-half-even applies, or LP noise around 0 and 1.
EDGE_KW = [0.0, -0.0, ZERO_KW, -ZERO_KW, np.nextafter(ZERO_KW, 1.0),
           np.nextafter(ZERO_KW, 0.0), np.nextafter(-ZERO_KW, -1.0)]
EDGE_BINARY = [0.5, 1.5, np.nextafter(0.5, 1.0), 0.0, 1.0, -1e-12, 1.0 + 1e-12]


def edge_points(inst, rng):
    """Points with powers at EDGE_KW and binaries at EDGE_BINARY: one whose
    splits all decode (prec, pfrc and pfrd 0), one with every flow at those
    values, and one whose charge split is negative."""
    c = inst.cols
    flows = ("pc", "prec", "pfrc", "pd", "pfrd", "psr", "presc", "pres")
    points = []
    for edged in (("pc", "pd", "psr", "presc", "pres"), flows):
        x = random_point(inst, rng)
        x[inst.binary_cols] = rng.choice(EDGE_BINARY, len(inst.binary_cols))
        for var in ("prec", "pfrc", "pfrd"):
            x[c[var]] = 0.0
        for var in edged:
            x[c[var]] = rng.choice(EDGE_KW, c[var].shape)
        points.append(x)
    x = random_point(inst, rng)
    i, tau = rng.integers(inst.n_ess), rng.integers(inst.horizon)
    x[c["pfrc"][i, tau]] = x[c["pc"][i, tau]] + 1.0
    return points + [x]


def same_decode(result) -> bool:
    """Assert recover_service_split returns what the reference returns, or
    raises the ValueError it raises, with the same text; True if it decoded."""
    try:
        want = reference_recover_service_split(result)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            recover_service_split(result)
        assert str(got.value) == str(exc)
        return False
    got = recover_service_split(result)
    assert got == want and repr(got) == repr(want)
    return True


def same_floats(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def random_point(inst, rng):
    """A point inside the bounds whose bill/future split decodes, with some
    LP-tolerance noise below zero."""
    x = rng.uniform(inst.lb, inst.ub)
    c = inst.cols
    x[c["pc"]] = x[c["prec"]] + x[c["pfrc"]] + rng.uniform(0, 1, c["pc"].shape)
    x[c["pd"]] = x[c["pfrd"]] + rng.uniform(0, 1, c["pd"].shape)
    x[c["psr"]] = -rng.uniform(0, 1e-12, c["psr"].shape)
    return x


class TestWindowTemplate:
    @pytest.mark.parametrize("seed", range(24))
    def test_matches_reference_builder(self, seed):
        rng = np.random.default_rng(900 + seed)
        n_ess, horizon = 1 + seed % 3, 1 + seed % 6
        window = random_window(rng, n_ess, horizon)
        inst = build_problem(7, *window)
        ref = reference_build_problem(7, *window)
        assert list(inst.names) == ref.names
        assert list(inst.cols) == list(ref.cols)
        for var, a in inst.cols.items():
            assert a.shape == ref.cols[var].shape
            assert a.tolist() == ref.cols[var].tolist()
        assert inst.binary_cols.tolist() == [int(c) for c in ref.binary_cols]
        for a, b in ((inst.lb, ref.lb), (inst.ub, ref.ub),
                     (inst.objective, ref.objective)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert len(inst.rows) == len(ref.rows)
        for row, want in zip(inst.rows, ref.rows):
            assert list(row.coeffs) == list(want.coeffs)
            assert same_floats(list(row.coeffs.values()), list(want.coeffs.values()))
            assert same_floats(row.rhs, want.rhs)
            assert row.name == want.name
        assert list(inst.quad_rows) == ref.quad_rows
        points = [random_point(inst, rng) for _ in range(3)] + edge_points(inst, rng)
        decoded = []
        for x in points:
            got, want = solver_module._polish(inst, x), reference_polish(inst, x)
            assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
            decoded.append(same_decode(SolveResult("optimal", 0.0, 0.0, x, 1, inst)))
        assert decoded[:4] == [True] * 4 and not decoded[-1]

    @pytest.mark.parametrize("seed", range(24))
    def test_bound_gating_is_exact(self, seed):
        # the flag in the column bounds of pfrd and pfrc leaves the feasible
        # set of the row-gated form, relaxed or not, unchanged
        rng = np.random.default_rng(900 + seed)
        n_ess, horizon = 1 + seed % 3, 1 + seed % 6
        slots, soc, specs, market = window = random_window(rng, n_ess, horizon)
        inst = build_problem(7, *window)
        ref = reference_build_problem(7, *window, gate="rows")
        gated = with_rows(inst, LinRows.of(ref.rows), lb=ref.lb, ub=ref.ub,
                          objective=ref.objective)
        assert gated.ub.tobytes() != inst.ub.tobytes()
        got, want = solve_relaxation(inst), solve_relaxation(gated)
        assert got.status == want.status == "optimal"
        assert abs(got.objective - want.objective) <= (
            1e-9 * max(1.0, abs(want.objective)))
        got, want = solve(inst), solve(gated)
        assert got.status == want.status == "optimal"
        assert abs(got.objective - want.objective) <= (
            SolverConfig().gap_tol * max(1.0, abs(want.objective)))

    def test_windows_share_only_read_only_data(self, specs, market):
        window_a = [slot(up=0), slot(up=1, purchase=0.0)]
        window_b = [slot(up=1, renewable=50.0), slot(up=0, reserve=0.02)]
        a = build_problem(0, window_a, SocState((0.5, 0.6)), specs, market)
        snapshot = [arr.copy() for arr in (a.lb, a.ub, a.objective,
                                           a.rows.value, a.rows.rhs)]
        b = build_problem(1, window_b, SocState((0.3, 0.8)), specs, market)
        assert a.template is b.template
        for arr, before in zip((a.lb, a.ub, a.objective, a.rows.value,
                                a.rows.rhs), snapshot):
            assert arr.tobytes() == before.tobytes()
        b_rows = list(b.rows)
        b_bytes = [arr.tobytes() for arr in (b.lb, b.ub, b.objective)]
        # writing one window's own arrays leaves the others alone
        a.ub[a.col("pc", 0, 0)] = 0.0
        a.objective[:] = 1.0
        a.rows.rhs[:] = 2.0
        assert [arr.tobytes() for arr in (b.lb, b.ub, b.objective)] == b_bytes
        assert list(b.rows) == b_rows
        again = build_problem(1, window_b, SocState((0.3, 0.8)), specs, market)
        assert [arr.tobytes() for arr in (again.lb, again.ub, again.objective)] == b_bytes
        assert list(again.rows) == b_rows
        # every window's rows hold the template's coefficient arrays
        tpl = a.template.rows
        for rows in (a.rows, b.rows, again.rows):
            assert all(got is want for got, want in zip(
                (rows.ptr, rows.row_of, rows.index, rows.value),
                (tpl.ptr, tpl.row_of, tpl.index, tpl.value)))
        # the shared arrays refuse writes
        for shared in (a.template.numbers, tpl.index, tpl.ptr, tpl.rhs,
                       a.rows.value, a.binary_cols, a.cols["pc"], a.template.qcoef):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0

    @pytest.mark.parametrize("field,value", [("price_purchase", float("nan")),
                                             ("demand", float("inf"))])
    def test_non_finite_slot_rejected(self, specs, market, field, value):
        window = [slot(), dataclasses.replace(slot(), **{field: value})]
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"slot 1: {field} {value}"):
            build_problem(0, window, SocState((0.5, 0.5)), specs, market)
        assert time.perf_counter() - start < 1.0

    def test_non_finite_spec_rejected(self, market):
        spec = make_spec(1, unit_capital_cost=float("inf"))
        with pytest.raises(ValueError, match="unit_capital_cost inf"):
            build_problem(0, [slot()], SocState((0.5,)), [spec], market)
