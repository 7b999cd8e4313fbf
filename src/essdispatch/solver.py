"""Branch-and-bound MIQP solver for the dispatch problem.

The quadratic aging epigraph rows are handled by iterative outer approximation:
each node solves plain LPs, adding tangent cuts of the convex segment functions
at violating points until none remain.  Tangent cuts under-approximate a convex
function, so every node objective is a valid lower bound.  Each row's seed
tangents are lifted with its charge-mode flag vc (perspective cuts): charging
and discharging never share a slot, so a relaxation that splits vc gets the
convex combination of the two one-sided tangents instead of their sum.  This
tightens the bound where branching happens and shrinks the tree.  Branching
is on the most fractional binary with best-bound node selection; everything
is deterministic for a fixed instance and configuration.

All LPs of one window are re-solves of a single persistent HiGHS model (the
dual simplex of Huangfu & Hall, 2018): node fixings change column bounds and
new cuts append rows.  Each node's LP starts from the basis its parent's last
LP left, re-installed if another LP ran since, with the cuts added meanwhile
basic.  Node LPs have nearly tied optima, and from the basis of another
subtree the dual simplex tends to reach another of them and branch on
another column: the bundled week at H=8 then took three times the nodes.
Presolve is off: a window's LP is a few dozen to a few hundred rows that
presolve cannot shrink, and warm runs skip it anyway.  The primal
feasibility tolerance is problem.FEAS_TOL, since the rows are scaled to
max-abs coefficient 1.  This CutPool is the only LP path: solve,
solve_relaxation and brute_force_oracle all run their LPs in one.

A rolling run also keeps a ModelSet: the CutPool of its last window.  Every
row coefficient of a template is fixed, so the next window of that template
changes only costs, bounds, right-hand sides and cuts, and its whole
branch-and-bound runs in the last pool's model, the root from the root basis
the last window left.

What every window of a template reads is the template's
(problem.WindowTemplate), the index lists and segment coefficients of
_polish among it.  What only a model load reads is built by that load: the
column list, the template's rows scaled with their row scales, and the seed
tangents; the pool keeps the column list, the row scales and the seed count
with the model, and the next pool of the template takes them over.  A
window computes only its own numbers: costs, bounds, right-hand sides
divided by the model's row scales, cuts, and the values it polishes and
decodes.

The integrality and cut tolerances and the cut-round limit are fixed module
constants; SolverConfig carries the gap tolerance and the node limit.
"""

from __future__ import annotations

import heapq
import importlib
import importlib.machinery
import importlib.util
import itertools
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import aging
from .problem import (FEAS_TOL, LinRows, ProblemInstance, SolveResult,
                      WindowTemplate, recover_service_split)

_HIGHS_CORE = "scipy.optimize._highspy._core"


def _load_highs_core():
    """scipy's compiled HiGHS extension, without importing scipy.

    Importing the submodule the usual way runs scipy's and scipy.optimize's
    __init__, which pull in scipy.linalg, scipy.sparse, scipy.special and
    more: about 0.5 of the 0.7 s that importing essdispatch took, and 43 of
    its 77 MB peak memory (2-vCPU VM, Python 3.11, scipy 1.17.1); scipy's own
    __init__ alone added about 17 ms and 1.3 MB.  So scipy's directory is
    found with find_spec, which imports nothing, and the extension file is
    loaded on its own and not put into sys.modules: a later import of
    scipy.optimize then loads it itself and gets this same module object.
    A module already imported is used as it is, and a scipy that keeps its
    extensions elsewhere (an editable build, say) goes through the regular
    import.
    """
    if _HIGHS_CORE in sys.modules:
        return sys.modules[_HIGHS_CORE]
    scipy_spec = importlib.util.find_spec("scipy")
    spec = None
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        finder = importlib.machinery.FileFinder(
            os.path.join(scipy_spec.submodule_search_locations[0], "optimize",
                         "_highspy"),
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(_HIGHS_CORE)
    if spec is None:
        return importlib.import_module(_HIGHS_CORE)
    core = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(core)
    return core


try:
    _core = _load_highs_core()
    HighsBasisStatus, HighsModelStatus, HighsStatus, _Highs = (
        _core.HighsBasisStatus, _core.HighsModelStatus, _core.HighsStatus,
        _core._Highs)
except (ImportError, AttributeError) as exc:
    raise ImportError(
        "essdispatch requires scipy>=1.17: its LP subsolver is the HiGHS class "
        "scipy.optimize._highspy._core._Highs bundled with scipy") from exc


def __getattr__(name):
    # Nothing here calls linprog: perfbench's tracer test checks that tracing
    # restores solver.linprog.  It is looked up on access (PEP 562), so only
    # that access imports scipy.optimize.
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# A binary column is integral within INT_TOL.
INT_TOL = 1e-6
# A quad row is violated beyond CUT_TOL times the scale of its tangent cut:
# 100 times FEAS_TOL, written out because 100 * FEAS_TOL is not bitwise 1e-7.
CUT_TOL = 1e-7
# Cut rounds one relaxation may take before it raises SolverError.
CUT_ROUND_LIMIT = 300
# The quad rows a point violates when it violates none.
_NO_ROWS = np.zeros(0, dtype=np.intp)


@dataclass(frozen=True)
class SolverConfig:
    gap_tol: float = 1e-6
    node_limit: int = 100000

    def __post_init__(self):
        if not 0 < self.gap_tol < np.inf:
            raise ValueError("gap_tol must be > 0 and finite")
        if self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")


@dataclass
class LpSolution:
    status: str                  # optimal | infeasible | unbounded
    x: np.ndarray | None
    objective: float


class SolverError(RuntimeError):
    """Numerical failure or limit breach inside the solver."""


def _scaled_rows(rows: LinRows):
    """CSR arrays (starts, index, value) of the rows, every row normalized
    to max-abs coefficient 1 and its zero coefficients dropped, and each
    row's scale, which its right-hand side is divided by."""
    value, row_of = rows.value, rows.row_of
    # An empty row keeps scale 1e-12.
    scale = np.full(len(rows), 1e-12)
    np.maximum.at(scale, row_of, np.abs(value))
    keep = value != 0.0
    kept = np.zeros(len(value) + 1, dtype=np.int32)
    np.cumsum(keep, out=kept[1:])
    return (kept[rows.ptr[:-1]], rows.index[keep], value[keep] / scale[row_of[keep]],
            scale)


def _tangent_terms(coef: np.ndarray, p: np.ndarray):
    """Gradient, cut scale and quadratic part of f at points p (2, k), for
    quad rows with coefficients coef (2*quad, lin and quad; each (2, k)).

    The cut scale is the tangent's max-abs coefficient, since zeta's is -1.
    """
    grad = coef[0] * p + coef[1]
    a = np.abs(grad)
    return grad, np.maximum(np.maximum(a[0], a[1]), 1.0), coef[2] * p * p


def _tangent_rows(index: np.ndarray, grad: np.ndarray, scale: np.ndarray,
                  rhs: np.ndarray):
    """CSR rows grad.x - zeta <= rhs over the columns index (w, k): the last
    is each row's zeta and the others take the coefficients grad (w - 1, k).
    Each row is divided by its cut scale, the max-abs coefficient, and its
    zero coefficients are dropped, as _scaled_rows does."""
    width, k = index.shape
    value = np.empty((k, width))
    np.divide(grad, scale, out=value[:, :-1].T)
    np.divide(-1.0, scale, out=value[:, -1])
    index = index.T
    if grad.all():
        # No zero coefficient, so every row keeps all of them.
        return (np.arange(0, value.size, width, dtype=np.int32), index.ravel(),
                value.ravel(), rhs / scale)
    keep = np.ones(value.shape, dtype=bool)
    keep[:, :-1] = grad.T != 0.0
    counts = keep.sum(axis=1, dtype=np.int32)
    return (np.cumsum(counts, dtype=np.int32) - counts, index[keep], value[keep],
            rhs / scale)


def _seed_tangents(template: WindowTemplate):
    """The seed cuts of every window of a template: for each quad row, its
    tangents at 9 points (a, b) along the rate-box diagonal, each lifted
    with the row's charge-mode flag vc to

        grad.(pc, pd) + (qd*b^2 - qc*a^2)*vc - zeta <= qd*b^2.

    At vc = 1 with pd = 0 this is the tangent of the charge side at a, and
    at vc = 0 with pc = 0 the tangent of the discharge side at b.  The mode
    links give every integral point one of those forms, so the row is valid.
    Its right-hand side, qc*a^2*vc + qd*b^2*(1 - vc), is never above the
    plain tangent's qc*a^2 + qd*b^2, so it is the tighter cut wherever the
    relaxation splits vc (the perspective cut of Frangioni & Gentile, 2006).
    The adaptive loop adds plain tangents wherever these are loose.
    Returns their CSR rows.
    """
    t = np.linspace(0.0, 1.0, 9)
    q = np.repeat(np.arange(len(template.qvc)), len(t))
    p = (template.rate_max[:, :, None] * t).reshape(2, -1)
    grad, scale, f2 = _tangent_terms(np.take(template.qcoef, q, axis=2), p)
    lift = f2[1] - f2[0]
    np.maximum(scale, np.abs(lift), out=scale)
    index = np.take(np.insert(template.qcols, 2, template.qvc, axis=0), q, axis=1)
    return _tangent_rows(index, np.vstack([grad, lift]), scale, f2[1])


def _model() -> _Highs:
    """A new model with the pool's options."""
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    # Rows are scaled to max-abs 1, so the default 1e-7 would let
    # fr_min (coefficient 100) fall 1e-5 kW short of the market minimum.
    highs.setOptionValue("primal_feasibility_tolerance", FEAS_TOL)
    return highs


class ModelSet:
    """The CutPool of one rolling run's last window, whose HiGHS model the
    next window takes over if it has the same template.

    A CutPool made with the set takes the last pool's model if its instance
    has that template, updates it in place, and its first LP starts from the
    basis the last window left; an instance of another template drops the
    last model and loads a new one.  A run's window length never grows, so
    its windows of one template form one block and no template comes back
    once another has replaced it: the single slot loses no reuse.
    """

    def __init__(self) -> None:
        self.pool: CutPool | None = None


class CutPool:
    """One window's LP: the scaled base rows plus a growing set of tangent
    cuts, held in one persistent HiGHS model.

    Each solve changes only column bounds and re-runs the dual simplex from
    the model's current basis, which basis and restore save and re-install;
    presolve is off, so the window's first run is a plain cold simplex as
    well.  cut adds tangent cuts, and rows numbers them (seed tangents
    first): they are the model's last len(rows) rows.  lp_calls, lp_iters and
    lp_restarts count simplex runs, simplex iterations and cold restarts.

    The model comes through models, a fresh ModelSet if none is given: the
    model of the set's last pool if that pool has the instance's template,
    with the last basis of that template's previous window, or else a new
    load, which scales the template's rows and builds the seed tangents.
    Either way the base rows hold the instance's right-hand sides, and the
    pool is the set's last pool from then on.  The pool keeps what its model
    was loaded with: the column list (_cols), the row scales (_scale), the
    seed count (_seeds) and the scaled right-hand sides (_rhs).
    """

    _SETTLED = (HighsModelStatus.kOptimal, HighsModelStatus.kInfeasible,
                HighsModelStatus.kUnbounded)

    def __init__(self, instance: ProblemInstance, models: ModelSet | None = None):
        self.lp_calls = self.lp_iters = self.lp_restarts = 0
        n = len(instance.lb)
        self._tpl = instance.template
        models = ModelSet() if models is None else models
        # The set holds no pool until this one is ready, so a load or an
        # update that raises leaves it empty.
        last, models.pool = models.pool, None
        if last is None or last._tpl is not self._tpl:
            last = None  # its model goes before a new one is loaded
            self._cols = np.arange(n, dtype=np.int32)
            starts, index, value, self._scale = _scaled_rows(self._tpl.rows)
            self._rhs = instance.rhs / self._scale
            self._highs = _model()
            self._highs.addVars(n, instance.lb, instance.ub)
            self._highs.changeColsCost(n, self._cols, instance.objective)
            if len(self._rhs):
                self._add_rows(starts, index, value, self._rhs)
            self._seeds = 0
            if len(self._tpl.qvc):
                csr = _seed_tangents(self._tpl)
                self._add_rows(*csr)
                self._seeds = len(csr[3])
        else:
            # The same template: new costs and right-hand sides, and the
            # last window's cuts deleted; column bounds are set by every solve.
            self._highs, self._cols, self._scale, self._seeds = (
                last._highs, last._cols, last._scale, last._seeds)
            self._rhs = instance.rhs / self._scale
            self._highs.changeColsCost(n, self._cols, instance.objective)
            for r in (self._rhs != last._rhs).nonzero()[0].tolist():
                self._highs.changeRowBounds(r, -np.inf, self._rhs[r])
            first, end = len(self._rhs) + self._seeds, self._highs.getNumRow()
            if end > first:
                self._highs.deleteRows(end - first,
                                       np.arange(first, end, dtype=np.int32))
        self.rows = range(self._seeds)
        models.pool = self

    def _add_rows(self, starts, index, value, rhs) -> None:
        self._highs.addRows(len(rhs), np.full(len(rhs), -np.inf), rhs,
                            len(index), starts, index, value)

    def _violations(self, x: np.ndarray):
        """Violated quad rows at x, and every row's tangent terms there;
        no terms (None) if no row's excess is above CUT_TOL (see cut)."""
        tpl = self._tpl
        at = x[tpl.qcols]
        excess = aging.epigraph_excess(tpl.qcoef, at)
        if max(excess.tolist(), default=0.0) <= CUT_TOL:
            return _NO_ROWS, None
        terms = _tangent_terms(tpl.qcoef, at[:2])
        return (excess > CUT_TOL * terms[1]).nonzero()[0], terms

    def cut(self, x: np.ndarray) -> bool:
        """Add, as one batch, the tangent at x of every quad row that x
        violates by more than CUT_TOL times the coefficient scale of that
        tangent; False if none is.

        The LP enforces normalized rows only to its primal feasibility
        tolerance, FEAS_TOL, so the epigraph violation is only resolvable down
        to that times the cut scale; a threshold below it would never converge.
        A tangent under-approximates a convex function, so every cut is valid
        for every feasible point.

        Every cut scale is at least 1 and rounding is monotone, so CUT_TOL
        times a scale is never below CUT_TOL: if no row's excess is above
        CUT_TOL, no row is violated, and the tangent terms are not computed.
        The exit is exact: it skips no cut the full test would add.  A NaN
        excess cuts in neither: the full test's comparison is False for it,
        and a max that returns it fails the exit test.
        """
        hit, terms = self._violations(x)
        if not hit.size:
            return False
        grad, scale, f2 = terms
        self._add_rows(*_tangent_rows(
            np.take(self._tpl.qcols, hit, axis=1), np.take(grad, hit, axis=1),
            np.take(scale, hit), np.take(f2[0] + f2[1], hit)))
        self.rows = range(len(self.rows) + hit.size)
        return True

    def _run(self):
        self._highs.run()
        self.lp_calls += 1
        # Only an ok status vouches for the count; after an undecided run
        # HiGHS can answer with a warning and an arbitrary number.
        info, iters = self._highs.getInfoValue("simplex_iteration_count")
        if info == HighsStatus.kOk:
            self.lp_iters += iters
        return self._highs.getModelStatus()

    def basis(self) -> list:
        """The model's basis, for restore: HiGHS's record of it, the row
        count it covers and the LP count when it was taken."""
        return [self._highs.getBasis(), self._highs.getNumRow(), self.lp_calls]

    def restore(self, saved: list) -> None:
        """Re-install a basis that basis() returned, with every row added
        since as basic.  Nothing to do if no LP has run since: the model
        still holds it.  Raises SolverError if HiGHS rejects it."""
        basis, rows, lp_calls = saved
        if lp_calls == self.lp_calls:
            return
        added = self._highs.getNumRow() - rows
        if added:
            # Both children of a node share its record, so extend it once.
            basis.row_status = basis.row_status + [HighsBasisStatus.kBasic] * added
            saved[1] += added
        status = self._highs.setBasis(basis)
        if status != HighsStatus.kOk:
            raise SolverError(f"HiGHS rejected a saved basis: {status}")

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
                              self._highs.getObjectiveValue())
        if status == HighsModelStatus.kInfeasible:
            return LpSolution("infeasible", None, np.inf)
        if status == HighsModelStatus.kUnbounded:
            return LpSolution("unbounded", None, -np.inf)
        raise SolverError("LP subsolver failed: "
                          f"{self._highs.modelStatusToString(status)}")


def _fixed_bounds(instance: ProblemInstance,
                  fixed: dict[int, int] | None) -> tuple[np.ndarray, np.ndarray]:
    """Column bounds with the fixed binaries pinned: the instance's own
    arrays, which CutPool.solve only reads, if no binary is fixed."""
    if not fixed:
        return instance.lb, instance.ub
    lb = instance.lb.copy()
    ub = instance.ub.copy()
    for col, val in fixed.items():
        lb[col] = ub[col] = float(val)
    return lb, ub


def solve_relaxation(instance: ProblemInstance,
                     fixed_binaries: dict[int, int] | None = None,
                     cut_pool: CutPool | None = None) -> LpSolution:
    """Continuous relaxation with outer approximation of the epigraph rows.

    Binaries are relaxed to [0,1] except those in fixed_binaries.  The returned
    objective is a valid lower bound for the node.  A shared cut_pool may be
    passed in; newly generated cuts are appended to it.
    """
    if cut_pool is None:
        cut_pool = CutPool(instance)
    lb, ub = _fixed_bounds(instance, fixed_binaries)
    for _ in range(CUT_ROUND_LIMIT):
        sol = cut_pool.solve(lb, ub)
        if sol.status != "optimal":
            return sol
        if not cut_pool.cut(sol.x):
            return sol
    raise SolverError(f"cut rounds exceeded {CUT_ROUND_LIMIT} "
                      "(check CUT_TOL vs. LP tolerance)")


def _polish(instance: ProblemInstance, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Make an integral relaxation point exactly feasible and re-price it.

    The LP honours the mode links and the quadratic rows only to tolerance,
    so this rounds the binaries, zeroes the flows of the side each mode flag
    closes (pc, prec, pfrc in discharge mode, pd, pfrd in charge mode) and
    lifts the epigraph variables to their pointwise maxima, aging.segment_max.
    """
    binary, units = instance.template.polish
    x = x.tolist()
    for col in binary:
        x[col] = round(x[col])
    for vc, charge_closes, discharge_closes, pc, pd, zeta, coefs in units:
        for col in charge_closes if x[vc] == 1.0 else discharge_closes:
            x[col] = 0.0
        val = aging.segment_max(coefs, x[pc] if x[pc] > 0.0 else 0.0,
                                x[pd] if x[pd] > 0.0 else 0.0)
        if val > x[zeta]:
            x[zeta] = val
    x = np.array(x)
    return x, float(instance.objective @ x)


def _fractional(x: np.ndarray, binary_cols: np.ndarray, tol: float) -> int | None:
    """Most fractional binary column, ties to the lowest index; None if integral."""
    best = None
    best_frac = tol
    for k, v in enumerate(x[binary_cols].tolist()):
        frac = abs(v - round(v))
        if frac > best_frac + 1e-15:
            best, best_frac = k, frac
    return None if best is None else binary_cols[best]


def solve(instance: ProblemInstance, config: SolverConfig = SolverConfig(),
          models: ModelSet | None = None) -> SolveResult:
    """Branch-and-bound to proven optimality within the configured gap.

    Fractional nodes are bounded by a single LP over the shared cut pool (any
    tangent-cut relaxation is a valid lower bound); the full cut-convergence
    loop runs at the root and at integral nodes, where the bound feeds the
    incumbent and the final gap.

    Every node's LP runs in one CutPool, from the basis its parent's last
    LP left.  With a run's ModelSet whose last pool has the window's
    template, that is the last pool's model, and the root starts from the
    root basis of the last window of that template; a branching window leaves
    its own root basis there for the next one.
    """
    cut_pool = CutPool(instance, models)
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

    root = solve_relaxation(instance, None, cut_pool)
    nodes = 1
    if root.status != "optimal":
        return finish("infeasible", np.inf, np.inf, None)
    relaxation_floor = np.inf  # tightest bound among fathomed integral nodes
    # Open nodes: bound, tie-breaker, fixings and the parent's saved basis.
    heap: list[tuple[float, int, dict[int, int], list]] = []
    root_basis = None
    if _fractional(root.x, instance.template.binary_cols, INT_TOL) is None:
        register(root.x)
        relaxation_floor = root.objective
    else:
        root_basis = cut_pool.basis()
        # Dive heuristic: fix all binaries to their rounded relaxation values;
        # a feasible result seeds the incumbent and enables early pruning.
        rounded = {col: int(round(root.x[col])) for col in instance.template.binary_cols}
        dive = solve_relaxation(instance, rounded, cut_pool)
        if dive.status == "optimal":
            register(dive.x)
        heap = [(root.objective, next(counter), {}, root_basis)]

    while heap:
        bound, _, fixed, basis = heapq.heappop(heap)
        if incumbent_x is not None and gap_ok(bound):
            relaxation_floor = min(relaxation_floor, bound)
            break
        if nodes >= config.node_limit:
            status = "node-limit"
            relaxation_floor = min(relaxation_floor, bound)
            break
        nodes += 1
        cut_pool.restore(basis)
        sol = cut_pool.solve(*_fixed_bounds(instance, fixed))
        if sol.status != "optimal":
            continue  # infeasible node
        if incumbent_x is not None and gap_ok(sol.objective):
            continue
        branch_col = _fractional(sol.x, instance.template.binary_cols, INT_TOL)
        if branch_col is None:
            # Converge the epigraph cuts before trusting the point.
            sol = solve_relaxation(instance, fixed, cut_pool)
            if sol.status != "optimal":
                continue
            branch_col = _fractional(sol.x, instance.template.binary_cols, INT_TOL)
            if branch_col is None:
                register(sol.x)
                relaxation_floor = min(relaxation_floor, sol.objective)
                continue
        basis = cut_pool.basis()
        for val in (0, 1):
            child = dict(fixed)
            child[branch_col] = val
            heapq.heappush(heap, (sol.objective, next(counter), child, basis))

    if root_basis is not None:
        # The next window of the template starts from this root basis, if
        # it takes over this pool's model through a run's ModelSet.
        cut_pool.restore(root_basis)
    if incumbent_x is None:
        if status == "node-limit":
            return finish("node-limit", np.inf, -np.inf, None)
        return finish("infeasible", np.inf, np.inf, None)
    proven = min([entry[0] for entry in heap] + [relaxation_floor, incumbent_obj])
    if status == "optimal" and not gap_ok(proven):
        status = "gap-limit"
    result = finish(status, incumbent_obj, proven, incumbent_x)
    if status == "optimal":
        result.decisions = recover_service_split(result)
    return result


def brute_force_oracle(instance: ProblemInstance,
                       max_binaries: int = 20) -> SolveResult:
    """Exhaustive 0/1 enumeration over the binaries; exact up to LP tolerance."""
    k = len(instance.template.binary_cols)
    if k > max_binaries:
        raise ValueError(f"{k} binaries exceed the enumeration cap {max_binaries}")
    best_x = None
    best_obj = np.inf
    cut_pool = CutPool(instance)
    for bits in itertools.product((0, 1), repeat=k):
        fixed = dict(zip(instance.template.binary_cols, bits))
        sol = solve_relaxation(instance, fixed, cut_pool)
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
