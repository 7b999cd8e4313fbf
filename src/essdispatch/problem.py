"""Assembly of the one-horizon dispatch optimization problem.

For a decision time t and a look-ahead horizon of H slots, the instance holds
the variable index map, bounds, linear constraint rows, convex-quadratic
epigraph rows for the aging cost, the binary set, and the net-profit objective
(minimized as its negation).  SOC dynamics are folded in by substitution: each
slot's SOC is written as the initial SOC plus cumulative charge/discharge
terms, so no extra state columns exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import aging
from .domain import (DispatchDecision, EssSpec, MarketSpec, SlotExogenous,
                     SocState)

# Continuous variables per (ess, slot) and per slot, in index order.
ESS_VARS = ("pc", "prec", "pfrc", "pd", "pfrd", "psr", "z", "zeta")
SLOT_VARS = ("presc", "pres")
# Binary variables: one vc per ess per slot, plus vfr and vsr per slot.


@dataclass(frozen=True)
class LinRow:
    """Sparse linear inequality  sum_j coeffs[j]*x_j <= rhs."""

    coeffs: dict[int, float]
    rhs: float
    name: str = ""

    def value(self, x: np.ndarray) -> float:
        return sum(c * x[j] for j, c in self.coeffs.items())


@dataclass(frozen=True)
class QuadRow:
    """An aging epigraph row bound to instance columns: f(pc, pd) - zeta <= 0."""

    row: aging.EpigraphRow
    pc: int
    pd: int
    zeta: int

    def violation(self, x: np.ndarray) -> float:
        return self.row.value(x[self.pc], x[self.pd]) - x[self.zeta]


@dataclass
class ProblemInstance:
    n_ess: int
    horizon: int
    t: int
    names: list[str]
    lb: np.ndarray
    ub: np.ndarray
    binary_cols: list[int]
    rows: list[LinRow]
    quad_rows: list[QuadRow]
    objective: np.ndarray
    specs: tuple[EssSpec, ...]
    market: MarketSpec
    exog: tuple[SlotExogenous, ...]
    soc0: tuple[float, ...]
    cols: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_cols(self) -> int:
        return len(self.names)

    def col(self, var: str, *index: int) -> int:
        return int(self.cols[var][index])


@dataclass
class SolveResult:
    status: str                      # optimal | infeasible | gap-limit | node-limit
    objective: float                 # minimized -TNP
    bound: float                     # proven lower bound on the objective
    x: np.ndarray | None
    node_count: int
    instance: ProblemInstance
    decisions: list[DispatchDecision] = field(default_factory=list)
    lp_calls: int = 0                # simplex runs of the window's LP
    lp_iters: int = 0                # simplex iterations over those runs
    lp_restarts: int = 0             # undecided warm runs retried cold

    @property
    def tnp(self) -> float:
        return -self.objective


def mccormick_rows(z: int, v: int, reserve: int, discharge_rate_max: float,
                   tag: str = "") -> list[LinRow]:
    """Exact linearization of z = v*reserve for binary v, reserve in [0, p_max].

    Four rows; with v fixed to 0 or 1 they pin z to 0 or reserve exactly, and
    for fractional v they describe the McCormick envelope of the product.
    """
    if discharge_rate_max <= 0:
        raise ValueError("discharge_rate_max must be > 0")
    p = discharge_rate_max
    return [
        LinRow({z: 1.0, v: -p}, 0.0, f"mcc_ub_v{tag}"),
        LinRow({z: -1.0}, 0.0, f"mcc_lb0{tag}"),
        LinRow({z: 1.0, reserve: -1.0}, 0.0, f"mcc_ub_r{tag}"),
        LinRow({reserve: 1.0, v: p, z: -1.0}, p, f"mcc_lb_r{tag}"),
    ]


def build_problem(t: int, horizon: Sequence[SlotExogenous], state: SocState,
                  specs: Sequence[EssSpec], market: MarketSpec) -> ProblemInstance:
    """Build the full instance for decision time t over the given horizon."""
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

            tag = f"[{i},{tau}]"
            # Aggregate-rate linkage with the bill/future split eliminated.
            rows.append(LinRow({prec: 1.0, pfrc: 1.0, pc: -1.0}, 0.0, f"link_c_lo{tag}"))
            rows.append(LinRow({pc: 1.0, vc: -spec.charge_rate_max}, 0.0, f"link_c_hi{tag}"))
            rows.append(LinRow({pfrd: 1.0, pd: -1.0}, 0.0, f"link_d_lo{tag}"))
            rows.append(LinRow({pd: 1.0, vc: spec.discharge_rate_max, psr: 1.0, z: -1.0},
                               spec.discharge_rate_max, f"link_d_hi{tag}"))
            # Regulation direction gating by the exogenous up/down flag.
            rows.append(LinRow({pfrd: 1.0, vfr: -u * spec.discharge_rate_max}, 0.0,
                               f"fr_d{tag}"))
            rows.append(LinRow({pfrc: 1.0, vfr: -(1 - u) * spec.charge_rate_max}, 0.0,
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
            fr_min[int(cols["pfrc"][i, tau])] = -(1.0 - u)
            fr_min[int(cols["pfrd"][i, tau])] = -float(u)
            sr_min[int(cols["psr"][i, tau])] = -1.0
        rows.append(LinRow(balance, slot.renewable, f"re_balance[{tau}]"))
        rows.append(LinRow(fr_min, 0.0, f"fr_min[{tau}]"))
        rows.append(LinRow(sr_min, 0.0, f"sr_min[{tau}]"))

    for c in binary_cols:
        ub[c] = 1.0

    return ProblemInstance(
        n_ess=n, horizon=H, t=t, names=names, lb=lb, ub=ub,
        binary_cols=binary_cols, rows=rows, quad_rows=quad_rows, objective=obj,
        specs=tuple(specs), market=market, exog=tuple(horizon),
        soc0=tuple(state.soc), cols=cols)


def recover_service_split(result: SolveResult) -> list[DispatchDecision]:
    """Decode per-slot decisions, recovering the eliminated bill/future split.

    charge_future = pc - prec - pfrc and discharge_bill = pd - pfrd; both must
    come out nonnegative at any correct optimum.
    """
    if result.status != "optimal":
        raise ValueError(f"cannot decode decisions from status {result.status}")
    inst = result.instance
    x = result.x
    decisions = []
    for tau in range(inst.horizon):
        def ess_vals(var):
            # Clip LP-tolerance noise below the zero bound.
            return tuple(max(0.0, float(x[inst.col(var, i, tau)]))
                         for i in range(inst.n_ess))

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
            future.append(max(fs, 0.0))
            bill.append(max(br, 0.0))
        decisions.append(DispatchDecision(
            charge_total=pc, discharge_total=pd, charge_from_renewable=prec,
            charge_for_regulation=pfrc, discharge_for_regulation=pfrd,
            reserve_commit=ess_vals("psr"), charge_future=tuple(future),
            discharge_bill=tuple(bill),
            mode_flag=tuple(int(round(x[inst.col("vc", i, tau)]))
                            for i in range(inst.n_ess)),
            renewable_selfuse=max(0.0, float(x[inst.col("presc", tau)])),
            renewable_export=max(0.0, float(x[inst.col("pres", tau)])),
            reg_participate=int(round(x[inst.col("vfr", tau)])),
            reserve_participate=int(round(x[inst.col("vsr", tau)])),
        ))
    return decisions


def decompose_at_point(instance: ProblemInstance, x: np.ndarray) -> dict[str, float]:
    """Per-service revenue totals and aging cost at an arbitrary primal point.

    Uses the per-service revenue formulas with the bill/future split recovered
    from the aggregate rates; their sum minus aging equals the consolidated
    net-profit objective whenever the epigraph variables sit at their minima.
    """
    ts = instance.market.slot_hours
    r_sc = r_fr = r_sr = r_br = cost = 0.0
    for tau, slot in enumerate(instance.exog):
        u = slot.reg_up_flag
        p_fr = 0.0
        for i, spec in enumerate(instance.specs):
            pc = x[instance.col("pc", i, tau)]
            prec = x[instance.col("prec", i, tau)]
            pfrc = x[instance.col("pfrc", i, tau)]
            pd = x[instance.col("pd", i, tau)]
            pfrd = x[instance.col("pfrd", i, tau)]
            psr = x[instance.col("psr", i, tau)]
            p_fr += (1 - u) * pfrc + u * pfrd
            r_sc += ts * slot.price_purchase * prec
            r_fr += ts * slot.price_purchase * (pfrd - pfrc)
            r_sr += ts * slot.price_reserve * psr
            r_br += ts * slot.price_purchase * ((pd - pfrd) - (pc - prec - pfrc))
            cost += aging.aging_cost_eval(spec, pc, pd, ts)
        r_sc += ts * (slot.price_purchase * x[instance.col("presc", tau)]
                      + slot.price_sale * x[instance.col("pres", tau)])
        r_fr += ts * slot.perf_score * p_fr * (slot.price_rmccp
                                               + slot.price_rmpcp * slot.mileage_ratio)
    return {"r_sc": r_sc, "r_fr": r_fr, "r_sr": r_sr, "r_br": r_br,
            "aging_cost": cost,
            "tnp": r_sc + r_fr + r_sr + r_br - cost}


def objective_decomposition(result: SolveResult) -> dict[str, float]:
    """Split the solved objective into the four service revenues and aging cost."""
    if result.status != "optimal":
        raise ValueError(f"cannot decompose status {result.status}")
    return decompose_at_point(result.instance, result.x)


def check_solution(instance: ProblemInstance, x: np.ndarray,
                   lin_tol: float = 1e-7, quad_tol: float = 1e-6) -> list[str]:
    """All constraint violations of a primal point beyond the given tolerances."""
    out = []
    for j in range(instance.n_cols):
        if x[j] < instance.lb[j] - lin_tol or x[j] > instance.ub[j] + lin_tol:
            out.append(f"bound on {instance.names[j]}: {x[j]} outside "
                       f"[{instance.lb[j]}, {instance.ub[j]}]")
    for row in instance.rows:
        scale = max(abs(c) for c in row.coeffs.values())
        v = row.value(x) - row.rhs
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


def dump_instance(instance: ProblemInstance) -> str:
    """Human-readable text dump (one row per line) for debugging."""
    lines = [f"# instance t={instance.t} H={instance.horizon} n_ess={instance.n_ess}"]
    for j, name in enumerate(instance.names):
        kind = "bin" if j in set(instance.binary_cols) else "cont"
        lines.append(f"var {name} {kind} [{instance.lb[j]:.9g}, {instance.ub[j]:.9g}] "
                     f"obj {instance.objective[j]:.9g}")
    for row in instance.rows:
        terms = " + ".join(f"{c:.9g}*{instance.names[j]}"
                           for j, c in sorted(row.coeffs.items()))
        lines.append(f"row {row.name}: {terms} <= {row.rhs:.9g}")
    for q in instance.quad_rows:
        lines.append(
            f"qrow ess={q.row.ess} slot={q.row.slot} k={q.row.segment}: "
            f"{q.row.quad_c:.9g}*{instance.names[q.pc]}^2 + "
            f"{q.row.lin_c:.9g}*{instance.names[q.pc]} + "
            f"{q.row.quad_d:.9g}*{instance.names[q.pd]}^2 + "
            f"{q.row.lin_d:.9g}*{instance.names[q.pd]} - "
            f"{instance.names[q.zeta]} <= 0")
    return "\n".join(lines) + "\n"
