"""Assembly of the one-horizon dispatch optimization problem.

For a decision time t and a look-ahead horizon of H slots, the instance holds
the variable index map, bounds, linear constraint rows, convex-quadratic
epigraph rows for the aging cost, the binary set, and the net-profit objective
(minimized as its negation).  SOC dynamics are folded in by substitution: each
slot's SOC is written as the initial SOC plus cumulative charge/discharge
terms, so no extra state columns exist.

Everything that depends only on the ESS specs, the market and H (columns,
row structure, every row coefficient, the epigraph rows' columns and
coefficients, the column lists that polishing and decoding read) is built
once per such shape into a read-only WindowTemplate.
Every window of a template shares its row coefficient arrays; build_problem
copies only the template's bounds, costs and right-hand sides and writes the
entries that depend on the slot data and the initial SOC.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import aging
from .domain import (DECISION_VARS, REVENUE_TERMS, SPLIT, DispatchDecision,
                     EssSpec, MarketSpec, SlotExogenous, SocState, slot_prices,
                     slot_revenues, validate_inputs)

# Continuous variables per (ess, slot) and per slot, in index order.
ESS_VARS = ("pc", "prec", "pfrc", "pd", "pfrd", "psr", "z", "zeta")
SLOT_VARS = ("presc", "pres")
# Binary variables: one vc per ess per slot, plus vfr and vsr per slot.

# The LP's primal feasibility tolerance on rows scaled to max-abs coefficient
# 1 (solver._model sets it); decoded powers at or below it, in kW, read as 0.
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class LinRow:
    """Sparse linear inequality  sum_j coeffs[j]*x_j <= rhs."""

    coeffs: dict[int, float]
    rhs: float
    name: str = ""


class LinRows:
    """Linear rows  sum_k value[k]*x[index[k]] <= rhs[r]  over the entries
    k in [ptr[r], ptr[r+1]), as CSR arrays with zero coefficients kept;
    row_of[k] is the row of entry k.

    Iterating builds each row's LinRow, coefficients in entry order.
    """

    def __init__(self, ptr: np.ndarray, row_of: np.ndarray, index: np.ndarray,
                 value: np.ndarray, rhs: np.ndarray, names: tuple[str, ...]):
        self.ptr = ptr
        self.row_of = row_of
        self.index = index
        self.value = value
        self.rhs = rhs
        self.names = names

    @classmethod
    def of(cls, rows: Iterable[LinRow]) -> LinRows:
        rows = list(rows)
        counts = np.fromiter(map(len, (row.coeffs for row in rows)), np.intp,
                             len(rows))
        ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
        nnz = int(ptr[-1])
        return cls(
            ptr, np.repeat(np.arange(len(rows)), counts),
            np.fromiter(itertools.chain.from_iterable(row.coeffs for row in rows),
                        np.int32, nnz),
            np.fromiter(itertools.chain.from_iterable(row.coeffs.values()
                                                      for row in rows), float, nnz),
            np.fromiter((row.rhs for row in rows), float, len(rows)),
            tuple(row.name for row in rows))

    def __len__(self) -> int:
        return len(self.rhs)

    def __iter__(self):
        index, value, ptr = self.index.tolist(), self.value.tolist(), self.ptr.tolist()
        for r, (rhs, name) in enumerate(zip(self.rhs.tolist(), self.names)):
            a, b = ptr[r], ptr[r + 1]
            yield LinRow(dict(zip(index[a:b], value[a:b])), rhs, name)


@dataclass(frozen=True, eq=False)
class WindowTemplate:
    """What every window with the same specs, market and horizon length
    shares; built once by window_template, and every array is read-only.

    rows are the linear rows of every window, whose right-hand sides are the
    window's own.  numbers holds, back to back, the window-independent
    values of lb, ub, objective and the row right-hand sides; a window
    writes numbers[fill_dst] = w[fill_src] in its own copy, where w lists
    its own values in build_problem's order.

    The quad-row arrays are the only store of the aging epigraph rows
    f(pc, pd) - zeta <= 0, one per ESS, slot and segment, and have one
    column per row: its (pc, pd, zeta) columns (qcols); the column of the
    charge-mode flag vc of its ESS and slot (qvc); twice the quadratic, the
    linear and the quadratic coefficients of f, charge side first (qcoef[0],
    [1] and [2]); and the (charge, discharge) rate maxima of its ESS
    (rate_max).  quad_names names them aging[i,tau,k], as rows.names names
    the linear rows.

    polish and decode are the lists, of Python ints, that solver._polish and
    recover_service_split read in every window.  polish is the binary
    columns and one tuple per ESS and slot, ESS-major: the column of its
    mode flag vc, the flows charge mode closes (pd, pfrd) and those
    discharge mode closes (pc, prec, pfrc), its pc, pd and zeta columns and
    its aging.segment_coefficients.  decode holds DECISION_VARS' columns,
    one block per quantity in table order, per-ESS blocks slot-major over
    (slot, ESS): the per-ESS continuous ones; per SPLIT quantity, the
    offsets in those of its first flow and of the flows it subtracts; the
    per-ESS flags; the per-slot continuous ones; the per-slot flags; then
    the ESS count and the horizon.
    """

    specs: tuple[EssSpec, ...]
    market: MarketSpec
    horizon: int
    names: tuple[str, ...]
    cols: dict[str, np.ndarray]
    ess_cols: np.ndarray    # the cols of ESS_VARS and vc, stacked
    slot_cols: np.ndarray   # the cols of SLOT_VARS, vfr and vsr, stacked
    binary_cols: np.ndarray
    rows: LinRows
    numbers: np.ndarray
    fill_dst: np.ndarray
    fill_src: np.ndarray
    qcols: np.ndarray
    qvc: np.ndarray
    qcoef: np.ndarray
    rate_max: np.ndarray
    quad_names: tuple[str, ...]
    polish: tuple[list[int], list[tuple]]
    decode: tuple[list[int], list[tuple], list[int], list[int], list[int],
                  int, int]

    def split(self, numbers: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views of lb, ub, objective and rhs in numbers."""
        n = len(self.names)
        return numbers[:n], numbers[n:2 * n], numbers[2 * n:3 * n], numbers[3 * n:]


@dataclass
class ProblemInstance:
    """One window's problem: minimize objective.x over lb <= x <= ub, the
    linear rows and the template's epigraph rows.

    lb, ub, objective and the rows' right-hand sides rhs are this window's
    own arrays.  template is shared read-only with every window of the same
    specs, market and horizon length, and holds everything else: names,
    cols, binary_cols, specs, market, horizon, the rows' coefficients and
    the epigraph rows' arrays.
    """

    lb: np.ndarray
    ub: np.ndarray
    rhs: np.ndarray
    objective: np.ndarray
    exog: tuple[SlotExogenous, ...]
    template: WindowTemplate

    # perfbench's tracer reads a built window's rows.
    @property
    def rows(self) -> LinRows:
        """The template's rows with this window's right-hand sides."""
        rows = self.template.rows
        return LinRows(rows.ptr, rows.row_of, rows.index, rows.value, self.rhs,
                       rows.names)

    def col(self, var: str, *index: int) -> int:
        return int(self.template.cols[var][index])


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


def mccormick_rows(z: int, v: int, reserve: int, discharge_rate_max: float,
                   tag: str = "") -> list[LinRow]:
    """Exact linearization of z = v*reserve for binary v, reserve in [0, p_max].

    Four rows; with v fixed to 0 or 1 they pin z to 0 or reserve exactly, and
    for fractional v they describe the McCormick envelope of the product.
    At p_max = 0 they pin z = reserve = 0.
    """
    if discharge_rate_max < 0:
        raise ValueError("discharge_rate_max must be >= 0")
    p = discharge_rate_max
    return [
        LinRow({z: 1.0, v: -p}, 0.0, f"mcc_ub_v{tag}"),
        LinRow({z: -1.0}, 0.0, f"mcc_lb0{tag}"),
        LinRow({z: 1.0, reserve: -1.0}, 0.0, f"mcc_ub_r{tag}"),
        LinRow({reserve: 1.0, v: p, z: -1.0}, p, f"mcc_lb_r{tag}"),
    ]


def _objective_terms() -> dict[str, tuple[str, int]]:
    """(price, multiplier) of each objective column variable, in column
    order: REVENUE_TERMS with SPLIT substituted, netted per column and price.
    Each column nets to one price, so its entry -slot_hours * (price * m) is
    one rounding; summing per-stream floats is not, e.g. pfrc's (reg - p) + p."""
    net: collections.Counter = collections.Counter()
    for terms in REVENUE_TERMS.values():
        for price, q, sign in terms:
            for var, m in SPLIT.get(q, {q: 1}).items():
                net[var, price] += sign * m
    terms = {var: (price, m) for (var, price), m in net.items() if m}
    if len(terms) != sum(m != 0 for m in net.values()):
        raise AssertionError("an objective column nets to more than one price")
    return {var: terms[var] for var in ESS_VARS + SLOT_VARS if var in terms}


# Layout of a window's own values (build_problem's w): the SOC headroom
# above, then below, the corridor per ESS; then per slot the entries at these
# offsets, followed by two per ESS (the upper bounds of pfrd and pfrc).
_DEMAND, _RENEWABLE = range(2)
_OBJ_TERMS = _objective_terms()
_OBJ = {var: 2 + k for k, var in enumerate(_OBJ_TERMS)}
_PER_SLOT = 2 + len(_OBJ)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=128)
def window_template(specs: tuple[EssSpec, ...], market: MarketSpec,
                    H: int) -> WindowTemplate:
    """The shared part of every window over H slots with these specs and
    market, built on first use and cached."""
    n = len(specs)
    ts = market.slot_hours
    per_slot = _PER_SLOT + 2 * n

    def src(tau: int, offset: int) -> int:
        return 2 * n + tau * per_slot + offset

    names: list[str] = []
    ess_cols = np.zeros((len(ESS_VARS) + 1, n, H), dtype=int)
    slot_cols = np.zeros((len(SLOT_VARS) + 2, H), dtype=int)
    cols = {**dict(zip(ESS_VARS, ess_cols)), **dict(zip(SLOT_VARS, slot_cols)),
            "vc": ess_cols[-1], "vfr": slot_cols[-2], "vsr": slot_cols[-1]}

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
    # Per epigraph row: its (pc, pd, zeta) columns, vc column,
    # (quad_c, lin_c, quad_d, lin_d), rate box and name.
    qcols: list[tuple[int, int, int]] = []
    qvc: list[int] = []
    qcoef: list[tuple[float, float, float, float]] = []
    rate_max: list[tuple[float, float]] = []
    quad_names: list[str] = []
    # Window-dependent entries: (column, source) for bounds and objective,
    # (row, source) for right-hand sides.  Their template values are
    # placeholders.
    ub_fill: list[tuple[int, int]] = []
    obj_fill: list[tuple[int, int]] = []
    rhs_fill: list[tuple[int, int]] = []

    def add_row(row: LinRow, rhs_src: int | None = None) -> None:
        if rhs_src is not None:
            rhs_fill.append((len(rows), rhs_src))
        rows.append(row)

    # Per ESS and slot, what _polish reads (WindowTemplate.polish).
    units: list[list[tuple]] = [[()] * H for _ in specs]
    for tau in range(H):
        for i, spec in enumerate(specs):
            pc, prec, pfrc, pd, pfrd, psr, z, zeta, vc = (
                int(cols[var][i, tau]) for var in (*ESS_VARS, "vc"))
            vfr = int(cols["vfr"][tau])
            vsr = int(cols["vsr"][tau])

            for c in (pc, prec):
                ub[c] = spec.charge_rate_max
            for c in (pd, psr, z):
                ub[c] = spec.discharge_rate_max
            lb[zeta], ub[zeta] = aging.zeta_bounds(spec)

            tag = f"[{i},{tau}]"
            # Aggregate-rate linkage with the bill/future split eliminated.
            add_row(LinRow({prec: 1.0, pfrc: 1.0, pc: -1.0}, 0.0, f"link_c_lo{tag}"))
            add_row(LinRow({pc: 1.0, vc: -spec.charge_rate_max}, 0.0, f"link_c_hi{tag}"))
            add_row(LinRow({pfrd: 1.0, pd: -1.0}, 0.0, f"link_d_lo{tag}"))
            add_row(LinRow({pd: 1.0, vc: spec.discharge_rate_max, psr: 1.0, z: -1.0},
                           spec.discharge_rate_max, f"link_d_hi{tag}"))
            # By these four rows, charge mode (vc = 1) closes pd and pfrd,
            # and discharge mode pc, prec and pfrc.
            coefs = aging.segment_coefficients(spec)
            units[i][tau] = (vc, (pd, pfrd), (pc, prec, pfrc), pc, pd, zeta, coefs)
            # Regulation direction gating by the slot's up/down flag u, in the
            # column bounds ub[pfrd] = u*Pd and ub[pfrc] = (1-u)*Pc, so that
            # every row coefficient is the same in every window.
            ub_fill += [(pfrd, src(tau, _PER_SLOT + 2 * i)),
                        (pfrc, src(tau, _PER_SLOT + 2 * i + 1))]
            add_row(LinRow({pfrd: 1.0, vfr: -spec.discharge_rate_max}, 0.0,
                           f"fr_d{tag}"))
            add_row(LinRow({pfrc: 1.0, vfr: -spec.charge_rate_max}, 0.0,
                           f"fr_c{tag}"))
            add_row(LinRow({psr: 1.0, vsr: -spec.discharge_rate_max}, 0.0,
                           f"sr_cap{tag}"))
            for row in mccormick_rows(z, vc, psr, spec.discharge_rate_max, tag):
                add_row(row)

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
            add_row(LinRow(hi, 0.0, f"soc_hi{tag}"), i)
            if market.reserve_min_duration > 0:
                lo[int(psr)] = lo.get(int(psr), 0.0) + \
                    market.reserve_min_duration / spec.energy_capacity
            add_row(LinRow(lo, 0.0, f"soc_lo{tag}"), n + i)

            for k, coef in enumerate(coefs):
                qcols.append((pc, pd, zeta))
                qvc.append(vc)
                qcoef.append(coef)
                rate_max.append((spec.charge_rate_max, spec.discharge_rate_max))
                quad_names.append(f"aging[{i},{tau},{k}]")

            obj[zeta] += aging.cost_scale(spec, ts)
            obj_fill += [(cols[var][i, tau], src(tau, k))
                         for var, k in _OBJ.items() if var in ESS_VARS]

        presc = cols["presc"][tau]
        pres = cols["pres"][tau]
        ub_fill.append((presc, src(tau, _DEMAND)))
        ub[pres] = market.export_power_max
        obj_fill += [(cols[var][tau], src(tau, k))
                     for var, k in _OBJ.items() if var in SLOT_VARS]

        balance = {int(presc): 1.0, int(pres): 1.0}
        fr_min: dict[int, float] = {int(cols["vfr"][tau]): market.reg_min_power}
        sr_min: dict[int, float] = {int(cols["vsr"][tau]): market.reserve_min_power}
        for i in range(n):
            balance[int(cols["prec"][i, tau])] = 1.0
            fr_min[int(cols["pfrc"][i, tau])] = -1.0
            fr_min[int(cols["pfrd"][i, tau])] = -1.0
            sr_min[int(cols["psr"][i, tau])] = -1.0
        add_row(LinRow(balance, 0.0, f"re_balance[{tau}]"), src(tau, _RENEWABLE))
        add_row(LinRow(fr_min, 0.0, f"fr_min[{tau}]"))
        add_row(LinRow(sr_min, 0.0, f"sr_min[{tau}]"))

    for c in binary_cols:
        ub[c] = 1.0

    csr = LinRows.of(rows)
    numbers = np.concatenate([lb, ub, obj, csr.rhs])
    if not (np.isfinite(numbers).all() and np.isfinite(csr.value).all()):
        raise ValueError("non-finite ESS spec or market value: "
                         + "; ".join(validate_inputs(specs, market, ())))
    fill = ([(n_cols + c, s) for c, s in ub_fill]
            + [(2 * n_cols + c, s) for c, s in obj_fill]
            + [(3 * n_cols + r, s) for r, s in rhs_fill])
    fill_dst, fill_src = np.array(fill, dtype=np.intp).reshape(-1, 2).T

    def by_row(values: list[tuple], width: int, dtype) -> np.ndarray:
        """One row per tuple entry, one column per epigraph row."""
        return np.array(values, dtype=dtype).reshape(-1, width).T.copy()

    coef = by_row(qcoef, 4, float)
    quad, lin = coef[0::2], coef[1::2]
    binary = np.array(binary_cols, dtype=int)
    # decode's columns by kind of quantity: (continuous, per ESS).
    kinds = collections.defaultdict(list)
    for q in DECISION_VARS.values():
        if q in cols:
            kind = (q in ESS_VARS + SLOT_VARS, cols[q].ndim == 2)
            kinds[kind] += cols[q].T.ravel().tolist()
    flows = [q for q in DECISION_VARS.values() if q in ESS_VARS]
    splits = [(flows.index(base) * n * H, [flows.index(v) * n * H for v in parts])
              for base, *parts in (SPLIT[q] for q in DECISION_VARS.values()
                                   if q in SPLIT)]
    for a in (*cols.values(), csr.ptr, csr.row_of, csr.index,
              csr.value, csr.rhs):
        _read_only(a)
    return WindowTemplate(
        specs=specs, market=market, horizon=H, names=tuple(names), cols=cols,
        ess_cols=_read_only(ess_cols), slot_cols=_read_only(slot_cols),
        binary_cols=_read_only(binary), rows=csr, numbers=_read_only(numbers),
        fill_dst=_read_only(fill_dst.copy()), fill_src=_read_only(fill_src.copy()),
        qcols=_read_only(by_row(qcols, 3, np.int32)),
        qvc=_read_only(np.array(qvc, dtype=np.int32)),
        qcoef=_read_only(np.stack([2.0 * quad, lin, quad])),
        rate_max=_read_only(by_row(rate_max, 2, float)), quad_names=tuple(quad_names),
        polish=(binary.tolist(), [unit for per_ess in units for unit in per_ess]),
        decode=(kinds[True, True], splits, kinds[False, True], kinds[True, False],
                kinds[False, False], n, H))


def build_problem(t: int, horizon: Sequence[SlotExogenous], state: SocState,
                  specs: Sequence[EssSpec], market: MarketSpec) -> ProblemInstance:
    """Build the full instance for decision time t over the given horizon."""
    H = len(horizon)
    if H == 0:
        raise ValueError("horizon must be nonempty")
    if len(state) != len(specs):
        raise ValueError("state / specs ESS count mismatch")
    for i, spec in enumerate(specs):
        if not (spec.soc_min - 1e-9 <= state.soc[i] <= spec.soc_max + 1e-9):
            raise ValueError(f"initial SOC {state.soc[i]} of ess {i} outside bounds")
    template = window_template(tuple(specs), market, H)
    ts = market.slot_hours

    # This window's own values, laid out as the template's fill_src expects.
    w = [spec.soc_max - s for spec, s in zip(specs, state.soc)]
    w += [s - spec.soc_min for spec, s in zip(specs, state.soc)]
    for slot in horizon:
        u = slot.reg_up_flag
        prices = slot_prices(slot)
        w += (slot.demand, slot.renewable)
        w += [-ts * (prices[price] * m) for price, m in _OBJ_TERMS.values()]
        for spec in specs:
            w += (u * spec.discharge_rate_max, (1 - u) * spec.charge_rate_max)
    if not all(map(math.isfinite, w)):
        raise ValueError(f"non-finite input in the window at t={t}: " + "; ".join(
            validate_inputs(specs, market, horizon)
            or ("a product of slot values overflows",)))

    numbers = template.numbers.copy()
    numbers[template.fill_dst] = np.array(w, dtype=float)[template.fill_src]
    lb, ub, objective, rhs = template.split(numbers)
    # Each objective entry is one term summed onto 0.0, so -0.0 reads 0.0.
    objective += 0.0
    return ProblemInstance(lb=lb, ub=ub, rhs=rhs, objective=objective,
                           exog=tuple(horizon), template=template)


def _tuples(values: list, n: int, count: int) -> list[tuple]:
    """values cut into count consecutive n-tuples, which are empty if n is 0."""
    it = iter(values)
    return list(zip(*[it] * n)) if n else [()] * count


def recover_service_split(result: SolveResult) -> list[DispatchDecision]:
    """Decode per-slot decisions, recovering the eliminated bill/future split.

    SPLIT's quantities, charge_future = pc - prec - pfrc and discharge_bill
    = pd - pfrd, must come out nonnegative at any correct optimum.  Every
    decoded power at or below FEAS_TOL reads as exactly 0, so LP noise never
    reaches a committed decision.
    """
    if result.status != "optimal":
        raise ValueError(f"cannot decode decisions from status {result.status}")
    flows, splits, modes, own, flags, n, H = result.instance.template.decode
    x = result.x.tolist()
    m = n * H
    # LP noise below the zero bound clipped, in blocks of m as flows lists them.
    c = [v if v > 0.0 else 0.0 for v in map(x.__getitem__, flows)]
    split = []
    for start, parts in splits:
        values = c[start:start + m]
        for part in parts:
            values = list(map(operator.sub, values, c[part:part + m]))
        split += values
    # Clipping maps NaN to 0.0 and the flows are bounded, so no split is
    # NaN and one min finds any negative one.
    if min(split, default=0.0) < -FEAS_TOL:
        for k in range(m):
            fs, br = split[k::m]
            if fs < -FEAS_TOL or br < -FEAS_TOL:
                tau, i = divmod(k, n)
                raise ValueError(f"negative recovered split at ess {i}, slot {tau}: "
                                 f"fs={fs}, br={br} (solver bug)")
    c += split
    # The values of DECISION_VARS' per-slot quantities, then its per-ESS
    # ones in n-tuples, each in blocks of H slots in table order, so that
    # slot tau's are every H-th from tau.
    shared = [v if v > FEAS_TOL else 0.0 for v in map(x.__getitem__, own)]
    shared += [round(x[col]) for col in flags]
    per_ess = _tuples([v if v > FEAS_TOL else 0.0 for v in c]
                      + [round(x[col]) for col in modes],
                      n, len(DECISION_VARS) * H - len(shared))
    return [DispatchDecision(*per_ess[tau::H], *shared[tau::H]) for tau in range(H)]


def decompose_at_point(instance: ProblemInstance, x: np.ndarray) -> dict[str, float]:
    """Per-service revenue totals and aging cost at an arbitrary primal point.

    Evaluates REVENUE_TERMS on each slot's column sums over the ESSs, with
    SPLIT's bill/future split recovered from them; their sum minus aging
    equals the consolidated net-profit objective whenever the epigraph
    variables sit at their minima.
    """
    template = instance.template
    ts = template.market.slot_hours
    ess = x[template.ess_cols[:len(ESS_VARS)]].sum(axis=1).T.tolist()
    own = x[template.slot_cols[:len(SLOT_VARS)]].T.tolist()
    totals = dict.fromkeys(REVENUE_TERMS, 0.0)
    for slot, ess_q, slot_q in zip(instance.exog, ess, own):
        q = {**dict(zip(ESS_VARS, ess_q)), **dict(zip(SLOT_VARS, slot_q))}
        q.update({name: sum(m * q[v] for v, m in terms.items())
                  for name, terms in SPLIT.items()})
        for stream, value in slot_revenues(slot, q, ts).items():
            totals[stream] += value
    pc, pd = x[template.cols["pc"]].tolist(), x[template.cols["pd"]].tolist()
    totals["aging_cost"] = sum(
        aging.aging_cost_eval(spec, c, d, ts)
        for spec, pc_i, pd_i in zip(template.specs, pc, pd)
        for c, d in zip(pc_i, pd_i))
    totals["tnp"] = sum(totals[stream] for stream in REVENUE_TERMS) - totals["aging_cost"]
    return totals


def check_solution(instance: ProblemInstance, x: np.ndarray,
                   lin_tol: float = 1e-7, quad_tol: float = 1e-6) -> list[str]:
    """All constraint violations of a primal point beyond the given tolerances:
    bounds, linear rows and epigraph rows, each in index order.  A linear
    row's tolerance is lin_tol times its max-abs coefficient, at least 1."""
    lb, ub = instance.lb, instance.ub
    out = [f"bound on {instance.template.names[j]}: {x[j]} outside [{lb[j]}, {ub[j]}]"
           for j in np.flatnonzero((x < lb - lin_tol) | (x > ub + lin_tol)).tolist()]
    rows = instance.rows
    # bincount adds each row's products in entry order, as a scalar sum does.
    excess = np.bincount(rows.row_of, rows.value * x[rows.index],
                         minlength=len(rows)) - rows.rhs
    row_scale = np.ones(len(rows))
    np.maximum.at(row_scale, rows.row_of, np.abs(rows.value))
    out += [f"row {rows.names[r]}: violated by {excess[r]}"
            for r in np.flatnonzero(excess > lin_tol * row_scale).tolist()]
    # An epigraph row's tolerance is quad_tol times its max-abs coefficient,
    # at least 1.
    tpl = instance.template
    v = aging.epigraph_excess(tpl.qcoef, x[tpl.qcols])
    quad_scale = np.abs(tpl.qcoef[1:]).max(axis=(0, 1), initial=1.0)
    out += [f"epigraph {tpl.quad_names[k]}: violated by {v[k]}"
            for k in np.flatnonzero(v > quad_tol * quad_scale).tolist()]
    return out
