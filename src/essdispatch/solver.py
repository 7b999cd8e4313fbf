"""Branch-and-bound MIQP solver for the dispatch problem.

The quadratic aging epigraph rows are handled by iterative outer approximation:
each node solves plain LPs, adding tangent cuts of the convex segment functions
at violating points until none remain.  Tangent cuts under-approximate a convex
function, so every node objective is a valid lower bound.  Branching is on the
most fractional binary with best-bound node selection; everything is
deterministic for a fixed instance and configuration.

All LPs of one window are re-solves of a single persistent HiGHS model (the
dual simplex of Huangfu & Hall, 2018): node fixings change column bounds, new
cuts append rows, and each run starts from the previous optimal basis.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array

try:
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs
except ImportError as exc:
    raise ImportError(
        "essdispatch requires scipy>=1.17: its LP subsolver is the HiGHS class "
        "scipy.optimize._highspy._core._Highs bundled with scipy") from exc

from . import aging
from .problem import LinRow, ProblemInstance, SolveResult, recover_service_split


@dataclass(frozen=True)
class SolverConfig:
    int_tol: float = 1e-6
    gap_tol: float = 1e-6
    cut_tol: float = 1e-7
    node_limit: int = 100000
    cut_round_limit: int = 300

    def __post_init__(self):
        for name in ("int_tol", "gap_tol", "cut_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass
class LpSolution:
    status: str                  # optimal | infeasible | unbounded
    x: np.ndarray | None
    objective: float


class SolverError(RuntimeError):
    """Numerical failure or limit breach inside the solver."""


def _scaled_csr(rows: list[LinRow]):
    """CSR arrays (starts, index, value) and rhs of the rows, every row
    normalized to max-abs coefficient 1."""
    starts = np.zeros(len(rows), dtype=np.int32)
    index: list[int] = []
    value: list[float] = []
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


def solve_lp(rows: list[LinRow], lb: np.ndarray, ub: np.ndarray,
             objective: np.ndarray) -> LpSolution:
    """Solve min c.x over scaled rows plus bounds with one cold linprog call.

    Proven-optimal or certified infeasible/unbounded; the independent reference
    for the persistent model behind CutPool.solve.
    """
    objective = np.asarray(objective, dtype=float)
    a = b = None
    if rows:
        starts, index, value, b = _scaled_csr(rows)
        a = csr_array((value, index, np.append(starts, len(index))),
                      shape=(len(rows), len(objective)))
    res = linprog(objective, A_ub=a, b_ub=b,
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


def _cut_scale(q, x: np.ndarray) -> float:
    """Coefficient scale of the tangent cut at x.

    The LP enforces normalized rows to its own feasibility tolerance, so the
    epigraph violation is only resolvable down to cut_tol times this scale;
    comparing against an absolute threshold below it would never converge.
    """
    r = q.row
    return max(1.0, abs(2.0 * r.quad_c * x[q.pc] + r.lin_c),
               abs(2.0 * r.quad_d * x[q.pd] + r.lin_d))


def _tangent_cut(q, x_c: float, x_d: float) -> LinRow:
    """Tangent of f(pc, pd) - zeta <= 0 at (x_c, x_d); valid for every feasible
    point because tangents under-approximate a convex function."""
    r = q.row
    gc = 2.0 * r.quad_c * x_c + r.lin_c
    gd = 2.0 * r.quad_d * x_d + r.lin_d
    rhs = r.quad_c * x_c * x_c + r.quad_d * x_d * x_d
    return LinRow({q.pc: gc, q.pd: gd, q.zeta: -1.0}, rhs,
                  f"cut[{r.ess},{r.slot},{r.segment}]")


class CutPool:
    """One window's LP: the scaled base rows plus a growing set of tangent
    cuts, held in one persistent HiGHS model.

    Each solve changes only column bounds and re-runs the dual simplex from
    the previous optimal basis.  rows lists the cuts (seed tangents first);
    lp_calls, lp_iters and lp_restarts count simplex runs, simplex
    iterations and cold restarts.
    """

    _SETTLED = (HighsModelStatus.kOptimal, HighsModelStatus.kInfeasible,
                HighsModelStatus.kUnbounded)

    def __init__(self, instance: ProblemInstance):
        self.rows: list[LinRow] = []
        self.lp_calls = self.lp_iters = self.lp_restarts = 0
        n = instance.n_cols
        self._cols = np.arange(n, dtype=np.int32)
        self._highs = _Highs()
        self._highs.setOptionValue("output_flag", False)
        self._highs.addVars(n, instance.lb, instance.ub)
        self._highs.changeColsCost(n, self._cols, instance.objective)
        self._append(instance.rows)
        seeds = []
        for q in instance.quad_rows:
            spec = next((s for s in instance.specs if s.id == q.row.ess), None)
            # Seed tangents along the rate-box diagonal; the adaptive loop
            # refines wherever these are loose.
            pc_max = spec.charge_rate_max if spec else 1.0
            pd_max = spec.discharge_rate_max if spec else 1.0
            for t in np.linspace(0.0, 1.0, 9):
                seeds.append(_tangent_cut(q, t * pc_max, t * pd_max))
        self.add(seeds)

    def _append(self, rows: list[LinRow]) -> None:
        if rows:
            starts, index, value, rhs = _scaled_csr(rows)
            self._highs.addRows(len(rows), np.full(len(rows), -np.inf), rhs,
                                len(index), starts, index, value)

    def add(self, cuts: list[LinRow]) -> None:
        self._append(cuts)
        self.rows.extend(cuts)

    def _run(self):
        self._highs.run()
        self.lp_calls += 1
        self.lp_iters += self._highs.getInfo().simplex_iteration_count
        return self._highs.getModelStatus()

    def solve(self, lb: np.ndarray, ub: np.ndarray) -> LpSolution:
        """min c.x over the base rows and cuts with the given column bounds."""
        self._highs.changeColsBounds(len(self._cols), self._cols, lb, ub)
        status = self._run()
        if status not in self._SETTLED:
            # An undecided warm run gets one cold retry before giving up.
            self.lp_restarts += 1
            self._highs.clearSolver()
            status = self._run()
        if status == HighsModelStatus.kOptimal:
            return LpSolution("optimal", np.array(self._highs.getSolution().col_value),
                              self._highs.getInfo().objective_function_value)
        if status == HighsModelStatus.kInfeasible:
            return LpSolution("infeasible", None, np.inf)
        if status == HighsModelStatus.kUnbounded:
            return LpSolution("unbounded", None, -np.inf)
        raise SolverError("LP subsolver failed: "
                          f"{self._highs.modelStatusToString(status)}")


def _fixed_bounds(instance: ProblemInstance,
                  fixed: dict[int, int] | None) -> tuple[np.ndarray, np.ndarray]:
    lb = instance.lb.copy()
    ub = instance.ub.copy()
    for col, val in (fixed or {}).items():
        lb[col] = ub[col] = float(val)
    return lb, ub


def solve_relaxation(instance: ProblemInstance,
                     fixed_binaries: dict[int, int] | None = None,
                     config: SolverConfig = SolverConfig(),
                     cut_pool: CutPool | None = None) -> LpSolution:
    """Continuous relaxation with outer approximation of the epigraph rows.

    Binaries are relaxed to [0,1] except those in fixed_binaries.  The returned
    objective is a valid lower bound for the node.  A shared cut_pool may be
    passed in; newly generated cuts are appended to it.
    """
    lb, ub = _fixed_bounds(instance, fixed_binaries)
    if cut_pool is None:
        cut_pool = CutPool(instance)
    for _ in range(config.cut_round_limit):
        sol = cut_pool.solve(lb, ub)
        if sol.status != "optimal":
            return sol
        violated = [q for q in instance.quad_rows
                    if q.violation(sol.x) > config.cut_tol * _cut_scale(q, sol.x)]
        if not violated:
            return sol
        cut_pool.add([_tangent_cut(q, sol.x[q.pc], sol.x[q.pd]) for q in violated])
    raise SolverError(f"cut rounds exceeded {config.cut_round_limit} "
                      "(check cut_tol vs. LP tolerance)")


def _polish(instance: ProblemInstance, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Lift epigraph variables to their pointwise maxima and re-price.

    Makes an integral relaxation point exactly feasible for the quadratic rows
    (cuts only enforce them to tolerance); can only increase the objective.
    """
    x = x.copy()
    for tau in range(instance.horizon):
        for i, spec in enumerate(instance.specs):
            zeta = instance.col("zeta", i, tau)
            val = aging.segment_max(spec, max(0.0, x[instance.col("pc", i, tau)]),
                                    max(0.0, x[instance.col("pd", i, tau)]))
            x[zeta] = max(x[zeta], val)
    return x, float(instance.objective @ x)


def _fractional(x: np.ndarray, binary_cols: list[int], tol: float) -> int | None:
    """Most fractional binary column, ties to the lowest index; None if integral."""
    best = None
    best_frac = tol
    for col in binary_cols:
        frac = abs(x[col] - round(x[col]))
        if frac > best_frac + 1e-15:
            best, best_frac = col, frac
    return best


def solve(instance: ProblemInstance,
          config: SolverConfig = SolverConfig()) -> SolveResult:
    """Branch-and-bound to proven optimality within the configured gap.

    Fractional nodes are bounded by a single LP over the shared cut pool (any
    tangent-cut relaxation is a valid lower bound); the full cut-convergence
    loop runs at the root and at integral nodes, where the bound feeds the
    incumbent and the final gap.
    """
    cut_pool = CutPool(instance)
    incumbent_x = None
    incumbent_obj = np.inf
    counter = itertools.count()
    nodes = 0
    status = "optimal"

    def finish(status: str, objective: float, bound: float,
               x: np.ndarray | None) -> SolveResult:
        return SolveResult(status, objective, bound, x, nodes, instance,
                           lp_calls=cut_pool.lp_calls, lp_iters=cut_pool.lp_iters,
                           lp_restarts=cut_pool.lp_restarts)

    def gap_ok(bound: float) -> bool:
        return incumbent_obj - bound <= config.gap_tol * max(1.0, abs(incumbent_obj))

    def register(x: np.ndarray) -> None:
        nonlocal incumbent_x, incumbent_obj
        polished, obj = _polish(instance, x)
        if obj < incumbent_obj:
            incumbent_x, incumbent_obj = polished, obj

    root = solve_relaxation(instance, None, config, cut_pool)
    nodes = 1
    if root.status != "optimal":
        return finish("infeasible", np.inf, np.inf, None)
    relaxation_floor = np.inf  # tightest bound among fathomed integral nodes
    heap: list[tuple[float, int, dict[int, int]]] = []
    if _fractional(root.x, instance.binary_cols, config.int_tol) is None:
        register(root.x)
        relaxation_floor = root.objective
    else:
        # Dive heuristic: fix all binaries to their rounded relaxation values;
        # a feasible result seeds the incumbent and enables early pruning.
        rounded = {col: int(round(root.x[col])) for col in instance.binary_cols}
        dive = solve_relaxation(instance, rounded, config, cut_pool)
        if dive.status == "optimal":
            register(dive.x)
        heap = [(root.objective, next(counter), {})]

    while heap:
        bound, _, fixed = heapq.heappop(heap)
        if incumbent_x is not None and gap_ok(bound):
            relaxation_floor = min(relaxation_floor, bound)
            break
        if nodes >= config.node_limit:
            status = "node-limit"
            relaxation_floor = min(relaxation_floor, bound)
            break
        nodes += 1
        sol = cut_pool.solve(*_fixed_bounds(instance, fixed))
        if sol.status != "optimal":
            continue  # infeasible node
        if incumbent_x is not None and gap_ok(sol.objective):
            continue
        branch_col = _fractional(sol.x, instance.binary_cols, config.int_tol)
        if branch_col is None:
            # Converge the epigraph cuts before trusting the point.
            sol = solve_relaxation(instance, fixed, config, cut_pool)
            if sol.status != "optimal":
                continue
            branch_col = _fractional(sol.x, instance.binary_cols, config.int_tol)
            if branch_col is None:
                register(sol.x)
                relaxation_floor = min(relaxation_floor, sol.objective)
                continue
        for val in (0, 1):
            child = dict(fixed)
            child[branch_col] = val
            heapq.heappush(heap, (sol.objective, next(counter), child))

    if incumbent_x is None:
        if status == "node-limit":
            return finish("node-limit", np.inf, -np.inf, None)
        return finish("infeasible", np.inf, np.inf, None)
    proven = min([b for b, _, _ in heap] + [relaxation_floor, incumbent_obj])
    if status == "optimal" and not gap_ok(proven):
        status = "gap-limit"
    result = finish(status, incumbent_obj, proven, incumbent_x)
    if status == "optimal":
        result.decisions = recover_service_split(result)
    return result


def brute_force_oracle(instance: ProblemInstance,
                       config: SolverConfig = SolverConfig(),
                       max_binaries: int = 20) -> SolveResult:
    """Exhaustive 0/1 enumeration over the binaries; exact up to LP tolerance."""
    k = len(instance.binary_cols)
    if k > max_binaries:
        raise ValueError(f"{k} binaries exceed the enumeration cap {max_binaries}")
    cut_pool = CutPool(instance)
    best_x = None
    best_obj = np.inf
    for bits in itertools.product((0, 1), repeat=k):
        fixed = dict(zip(instance.binary_cols, bits))
        sol = solve_relaxation(instance, fixed, config, cut_pool)
        if sol.status != "optimal":
            continue
        x, obj = _polish(instance, sol.x)
        if obj < best_obj:
            best_x, best_obj = x, obj
    if best_x is None:
        return SolveResult("infeasible", np.inf, np.inf, None, 2 ** k, instance)
    result = SolveResult("optimal", best_obj, best_obj, best_x, 2 ** k, instance)
    result.decisions = recover_service_split(result)
    return result
