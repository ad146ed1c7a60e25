"""Assembly and solution of the worst-case rebalance linear program.

One rebalance solves

    max over (K, u, W, nu, lam, s, y) of  W - d0'nu - d1'lam

subject to trading constraints on K = K+ - K-, turnover magnitudes u,
and tangent-plane cuts W - (A0'nu + A1'lam)_j <= s + a_l y_j + gamma_x[l]
with lam >= 0: W lies below the approximated utility of every scenario,
shifted by the dual multipliers of the ambiguity polytope.  The scenario
returns y_j = x^j'K are lifted into variables of their own (Ben-Tal &
Nemirovski, Lectures on Modern Convex Optimization, 2001), so a cut row's
length does not depend on how many assets there are.  The maximizing K
is the robust portfolio for the polyhedral family of scenario
probabilities.  ``rebalance`` runs the whole step: approximation box,
tangent family, assembly and solve.  When a scenario has at most
_WHOLE_MAX_L tangent planes, the model's ``cuts_x`` section holds all m*L
return-leg cuts, and ``solve`` hands them to HiGHS's dual simplex from
the start.  With more, ``cuts_x`` holds one plane per scenario, and the
model's ``CutFamily`` generates the others from one row pattern per
scenario: a round adds the plane each scenario violates most, until none
is violated; that optimum is the whole LP's, held in a few rows per
scenario, and the m*L rows are never built.  Either way a solve
may start from the optimal basis of an earlier one, such as the previous
rebalance of a backtest; HiGHS takes it when it has the column and row
counts of the LP HiGHS first holds, and starts cold otherwise.  An
infeasible solve is diagnosed from the Farkas certificate of its own
HiGHS run, and the solve reaches HiGHS through ``highs.load``, as every
LP of the package goes through ``highs``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
# not called: perfbench/tracing.py counts the calls made through this name
from scipy.optimize import linprog  # noqa: F401

from . import highs
from .ambiguity import PolyhedralAmbiguitySet
from .data import ScenarioSet
from .partition import ErrorBudget, HyperplaneFamily, build_family
from .utility import SeparableUtility

# HiGHS's primal feasibility tolerance is 1e-7; a larger violation of the
# returned point means the solution cannot be trusted
_RESIDUAL_TOL = 1e-6
# a cut violated by more than HiGHS's primal tolerance joins the held rows
_CUT_TOL = 1e-7
# the most return-leg cuts per scenario that HiGHS holds from the start;
# above it each scenario starts with one, and the rest come on demand.  Over
# backtests of 60 LPs with n = 11, m = 60 (2-vCPU machine), the whole solve,
# warm-started, took 3.1 against 3.8 ms per LP on demand (cold) at L 6-7,
# 3.8 against 4.1 ms at L 9, 4.4 against 3.9 ms at L 11-13 and 5.6 against
# 4.0 ms at L 14-16
_WHOLE_MAX_L = 12


class AssemblyError(ValueError):
    """Inconsistent dimensions or an infeasible previous portfolio."""


class SolutionStatusError(RuntimeError):
    """An operation that needs an optimal solution got something else."""


@dataclass(frozen=True)
class TradingConstraintSet:
    """Leverage, holding caps, turnover cost limit, and cost rates."""

    leverage: float
    cost_vector: np.ndarray
    turnover_cost_limit: float
    holding_caps: np.ndarray | None = None
    allow_short: bool = True

    def __post_init__(self):
        object.__setattr__(
            self, "cost_vector", np.asarray(self.cost_vector, dtype=float)
        )
        if self.holding_caps is not None:
            object.__setattr__(
                self, "holding_caps", np.asarray(self.holding_caps, dtype=float)
            )
        # each test is written to fail on NaN
        if not 1.0 <= self.leverage < np.inf:
            raise ValueError("leverage must be finite and at least 1")
        if not 0.0 <= self.turnover_cost_limit < 1.0:
            raise ValueError("turnover cost limit must lie in [0, 1)")
        if not np.all((self.cost_vector >= 0) & (self.cost_vector < 1)):
            raise ValueError("cost rates must lie in [0, 1)")
        if self.holding_caps is not None and not np.all(self.holding_caps >= 0):
            raise ValueError("holding caps must be nonnegative")

    @classmethod
    def uniform(
        cls,
        n: int,
        leverage: float,
        cost_rate: float,
        turnover_cost_limit: float,
        holding_caps=None,
        allow_short: bool = True,
    ) -> "TradingConstraintSet":
        return cls(
            leverage=leverage,
            cost_vector=np.full(n, cost_rate),
            turnover_cost_limit=turnover_cost_limit,
            holding_caps=holding_caps,
            allow_short=allow_short,
        )


@dataclass(frozen=True)
class DecisionLayout:
    """Index ranges of each variable group inside the LP vector."""

    kp: slice
    km: slice
    u: slice
    w: int
    nu: slice
    lam: slice
    s: int
    y: slice
    nv: int

    @classmethod
    def build(cls, n: int, m: int, m0: int, m1: int) -> "DecisionLayout":
        o = 0
        kp = slice(o, o + n); o += n
        km = slice(o, o + n); o += n
        u = slice(o, o + n); o += n
        w = o; o += 1
        nu = slice(o, o + m0); o += m0
        lam = slice(o, o + m1); o += m1
        s = o; o += 1
        y = slice(o, o + m); o += m
        return cls(kp=kp, km=km, u=u, w=w, nu=nu, lam=lam, s=s, y=y, nv=o)


@dataclass(frozen=True)
class CutFamily:
    """The m*L return-leg cuts of a scenario set, held as one row pattern.

    Cut (j, l) is w - (A0'nu + A1'lam)_j - s - a[l] y_j <= gamma_x[l].
    Row j of the pattern, the CSR arrays (indptr, cols, vals), holds its
    entries on w, nu, lam and s, in column order; -a[l] follows at y_j's
    column y0 + j, after them all, since y is the last column group.
    """

    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    y0: int
    a: np.ndarray
    gamma_x: np.ndarray

    @cached_property
    def pattern(self) -> sp.csr_matrix:
        """The pattern rows as an m x nv matrix, for the violation products."""
        m = self.indptr.size - 1
        return sp.csr_matrix((self.vals, self.cols, self.indptr),
                             shape=(m, self.y0 + m))

    @property
    def first(self) -> int:
        """The plane every scenario starts with: the lowest at y = 0."""
        return int(np.argmin(self.gamma_x))

    def rows(self, j, l) -> tuple:
        """Cuts (j[i], l[i]) as a (widths, cols, vals) row block."""
        width = self.indptr[j + 1] - self.indptr[j] + 1
        ends = np.cumsum(width)
        # an output row copies its pattern row and ends in y_j's entry, which
        # overwrites the one position past the pattern row
        take = (np.repeat(self.indptr[j] - (ends - width), width)
                + np.arange(ends[-1]))
        cols = self.cols.take(take, mode="clip")
        vals = self.vals.take(take, mode="clip")
        cols[ends - 1] = self.y0 + j
        vals[ends - 1] = -self.a[l]
        return width, cols, vals


@dataclass(frozen=True)
class RobustLpModel:
    """Sparse inequality and equality rows, bounds, maximization objective.

    ``bounds`` holds each column's (lower, upper) pair, with -inf and inf
    for a missing bound.  The ``cuts_x`` section of ``row_sections`` holds
    all m*L return-leg cuts when L <= _WHOLE_MAX_L.  Above that it holds
    m rows, each scenario's ``cut_family.first`` plane, and
    ``cut_family`` generates the rest; a model without a family holds
    every row it has.  ``n_rows`` counts the rows assembled.
    """

    A_ub: sp.csr_matrix
    b_ub: np.ndarray
    A_eq: sp.csr_matrix
    b_eq: np.ndarray
    bounds: np.ndarray
    c_max_objective: np.ndarray
    layout: DecisionLayout
    row_sections: dict
    provenance: dict
    cut_family: CutFamily | None = None

    @property
    def n_rows(self) -> int:
        return int(self.A_ub.shape[0])


@dataclass(frozen=True, kw_only=True)
class LpSolution:
    """Solved rebalance: weights, objective, dual multipliers, diagnostics.

    A field left None does not apply to the status.  ``basis`` is HiGHS's
    optimal basis over the rows it held, the ``start`` of a later solve
    that first holds as many.  ``rows_held`` counts the rows HiGHS held
    when it stopped, equality rows included: n_rows + m for a whole
    solve, fewer on demand.
    """

    status: str
    iterations: int
    solve_time: float
    provenance: dict
    weights: np.ndarray | None = None
    objective: float | None = None
    nu: np.ndarray | None = None
    lam: np.ndarray | None = None
    x: np.ndarray | None = None
    residual: float | None = None
    certificate_row: int | None = None
    basis: highs.HighsBasis | None = None
    rows_held: int | None = None


def _check_prev_feasible(con: TradingConstraintSet, k_prev):
    # the survival bound is not checked here: k_prev only sets the turnover
    # rows, so the LP may trade away from weights the new window rules out
    tol = 1e-9
    if np.abs(k_prev).sum() > con.leverage + tol:
        raise AssemblyError("previous weights violate the leverage bound")
    if not con.allow_short and np.any(k_prev < -tol):
        raise AssemblyError("previous weights are short but shorting is off")
    if con.holding_caps is not None and np.any(
        np.abs(k_prev) > con.holding_caps + tol
    ):
        raise AssemblyError("previous weights violate a holding cap")


def _fixed(cols, vals) -> tuple:
    """A row block whose row i stores vals[i] at the columns cols[i]."""
    return np.full(cols.shape[0], cols.shape[1]), cols.ravel(), vals.ravel()


def _rows(blocks, nv: int) -> sp.csr_matrix:
    """Stack (widths, cols, vals) row blocks into one CSR matrix.

    Row i of a block holds the next widths[i] of its flat cols and vals.
    """
    widths = np.concatenate([w for w, _, _ in blocks])
    indptr = np.concatenate([[0], np.cumsum(widths)])
    return sp.csr_matrix(
        (np.concatenate([v for _, _, v in blocks]),
         np.concatenate([c for _, c, _ in blocks]), indptr),
        shape=(indptr.size - 1, nv),
    )


def assemble(
    scen: ScenarioSet,
    fam: HyperplaneFamily,
    amb: PolyhedralAmbiguitySet,
    con: TradingConstraintSet,
    k_prev,
) -> RobustLpModel:
    """Build the rebalance LP.

    The m equality rows y_j - x^j'K = 0 hold each scenario return once.
    The cost leg gets one shared epigraph scalar s, so the m*L*R tangent
    planes become m*L return-leg cuts

        w - (A0'nu + A1'lam)_j - s - a_l y_j <= gamma_x[l]

    plus R cost-leg cuts with right-hand sides fam.gamma_c.  This is exact
    because each plane's intercept is gamma_x[l] + gamma_c[r].  A return-leg
    cut holds 3 + nnz(column j of [A0; A1]) entries: four for a
    contamination set.  The per-scenario utility level is substituted into
    the cuts rather than kept as a free variable with a link row (the
    free-column substitution of Andersen & Andersen, "Presolving in linear
    programming", 1995), so ``solve`` runs HiGHS without presolve.

    With L <= _WHOLE_MAX_L the ``cuts_x`` section holds all m*L return-leg
    cuts.  With more it holds each scenario's plane lowest at y = 0, and
    the model's ``cut_family`` generates the rest as ``solve`` needs them.
    """
    X = scen.scenarios
    m, n = X.shape
    if amb.m != m:
        raise AssemblyError("ambiguity set and scenario set disagree on m")
    if con.cost_vector.shape != (n,):
        raise AssemblyError("cost vector length does not match asset count")
    k_prev = np.asarray(k_prev, dtype=float)
    if k_prev.shape != (n,):
        raise AssemblyError("previous weights length does not match asset count")
    _check_prev_feasible(con, k_prev)

    a = fam.a
    b = fam.b
    L, R = a.size, b.size
    layout = DecisionLayout.build(n, m, amb.n_eq, amb.n_ineq)
    nv = layout.nv
    C = con.cost_vector
    kp, km, u, nu, lam, y = (
        np.arange(g.start, g.stop)
        for g in (layout.kp, layout.km, layout.u, layout.nu, layout.lam,
                  layout.y)
    )
    k_cols = np.concatenate([kp, km])

    def each(cols, rows):
        return np.broadcast_to(cols, (rows, cols.size))

    # lifted scenario returns: y_j - x^j'(K+ - K-) = 0
    A_eq = _rows([_fixed(np.column_stack([each(k_cols, m), y]),
                         np.column_stack([-X, X, np.ones(m)]))], nv)

    # return-leg cuts (j, l): w - (A0'nu + A1'lam)_j - s - a_l y_j <= gamma_x[l].
    # Row j of the pattern holds scenario j's entries before y_j; the zeros
    # of column j of [A0; A1] are dropped.
    pat_cols = np.column_stack([np.full(m, layout.w), each(nu, m), each(lam, m),
                                np.full(m, layout.s)])
    pat_vals = np.column_stack([np.ones(m), -amb.A0.T, -amb.A1.T, -np.ones(m)])
    keep = pat_vals != 0.0
    family = CutFamily(indptr=np.concatenate([[0], np.cumsum(keep.sum(axis=1))]),
                       cols=pat_cols[keep], vals=pat_vals[keep],
                       y0=layout.y.start, a=a, gamma_x=fam.gamma_x)
    on_demand = L > _WHOLE_MAX_L
    if on_demand:
        j, l = np.arange(m), np.full(m, family.first)
    else:
        j, l = np.repeat(np.arange(m), L), np.tile(np.arange(L), m)

    blocks = [family.rows(j, l)]
    rhs = [fam.gamma_x[l]]
    sections = {"cuts_x": (0, j.size)}
    row_at = j.size

    def push(cols, vals, rvec, name):
        nonlocal row_at
        blocks.append(_fixed(cols, vals))
        rhs.append(rvec)
        sections[name] = (row_at, row_at + cols.shape[0])
        row_at += cols.shape[0]

    # cost-leg cuts (r): s - b_r C'u <= gamma_c[r]
    push(np.column_stack([each(u, R), np.full(R, layout.s)]),
         np.column_stack([-(b[:, None] * C[None, :]), np.ones(R)]),
         fam.gamma_c, "cuts_c")

    # leverage: sum(kp + km) <= L
    push(k_cols[None, :], np.ones((1, 2 * n)), np.array([con.leverage]),
         "leverage")

    if con.holding_caps is not None:
        push(np.column_stack([kp, km]), np.ones((n, 2)),
             con.holding_caps.astype(float), "holding")

    # survival: worst joint drawdown cannot wipe the account
    push(k_cols[None, :],
         np.concatenate([np.abs(np.minimum(0.0, scen.x_min)),
                         np.maximum(0.0, scen.x_max)])[None, :],
         np.array([1.0]), "survival")

    # turnover epigraph: +-(K - K_prev) <= u
    turnover = np.column_stack([kp, km, u])
    push(turnover, each(np.array([1.0, -1.0, -1.0]), n), k_prev.astype(float),
         "turnover_pos")
    push(turnover, each(np.array([-1.0, 1.0, -1.0]), n), -k_prev.astype(float),
         "turnover_neg")

    # cost limit: C'u <= c_max
    push(u[None, :], C[None, :], np.array([con.turnover_cost_limit]),
         "cost_limit")

    A_ub = _rows(blocks, nv)
    # zero costs and zero drawdowns are not stored
    A_ub.eliminate_zeros()
    b_ub = np.concatenate(rhs)

    c_obj = np.zeros(nv)
    c_obj[layout.w] = 1.0
    c_obj[layout.nu] = -amb.d0
    c_obj[layout.lam] = -amb.d1

    # K+, K- and u are nonnegative, as are the multipliers lam
    bounds = np.full((nv, 2), [-np.inf, np.inf])
    bounds[:layout.w, 0] = 0.0
    bounds[layout.lam, 0] = 0.0
    if not con.allow_short:
        bounds[layout.km, 1] = 0.0

    provenance = {
        "cost_vector": C.copy(),
        "k_prev": k_prev.copy(),
        "leverage": con.leverage,
    }
    return RobustLpModel(
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=np.zeros(m),
        bounds=bounds,
        c_max_objective=c_obj,
        layout=layout,
        row_sections=sections,
        provenance=provenance,
        cut_family=family if on_demand else None,
    )


class _HighsResult(NamedTuple):
    """What ``solve`` reads of one HiGHS run; x only at an optimum.

    ``basis`` is the optimal basis over the held rows; ``rows`` counts the
    rows HiGHS held when it stopped, equality rows included.
    ``certificate_row`` is the row of an infeasible run's certificate.
    """

    status: highs.HighsModelStatus
    iterations: int
    x: np.ndarray | None
    basis: highs.HighsBasis | None
    rows: int | None = None
    certificate_row: int | None = None


def _most_violated(cuts: CutFamily, x) -> tuple:
    """Each scenario's most violated plane at x, and its violation.

    Cut (j, l) is violated by its row times x less gamma_x[l], summed as a
    sparse row product sums it: row j of the pattern, then -a[l] y_j,
    then less gamma_x[l].  A tie goes to the lowest l.
    """
    m = cuts.indptr.size - 1
    violation = np.multiply.outer(x[cuts.y0:cuts.y0 + m], -cuts.a)
    violation += (cuts.pattern @ x)[:, None]
    violation -= cuts.gamma_x
    plane = np.argmax(violation, axis=1)
    return plane, violation[np.arange(m), plane]


def _run_highs(model: RobustLpModel, start=None) -> _HighsResult:
    """Minimize -c'x over the model's rows and bounds by HiGHS dual simplex.

    The rows [A_ub; A_eq] go to HiGHS through ``highs.load``, with row
    bounds (-inf, b_ub) and (b_eq, b_eq) and presolve off.  A HiGHS error
    reads as kModelError or kSolveError.

    Every solve is one cutting-plane loop (Kelley, "The cutting-plane
    method for solving convex programs", 1960) over the return-leg cuts.
    HiGHS first holds every assembled row: all the cuts, or, for a model
    with a ``cut_family``, each scenario's first plane.  It starts from
    ``start`` unless ``setBasis`` refuses it: a basis of another column or
    row count, or one that is not a basis, leaves the run cold.  After
    each optimum, every scenario's most violated plane of the family is
    added, when it is violated by more than _CUT_TOL and not yet held,
    and dual simplex continues from the current basis.  The loop ends at
    the first optimum that adds no row and returns its basis; the
    iterations sum over the rounds.  The held rows relax the model, so an
    infeasible or unbounded run means the same for the whole LP.

    An infeasible run's dual ray, HiGHS's Farkas certificate, holds row
    multipliers that combine the held rows into a contradiction; the
    result names the assembled inequality row it weights most, the lowest
    on a tie, or None when HiGHS has no ray.  The ray weights no cut and no
    equality row: w is free and sits only in the return-leg cuts, with
    coefficient +1, so their multipliers, all of one sign, sum to 0, and
    s and each y_j then force the cost-leg and equality multipliers to 0.
    """
    h = highs.load(-model.c_max_objective, model.bounds[:, 0],
                   model.bounds[:, 1],
                   np.concatenate([np.full(model.n_rows, -np.inf), model.b_eq]),
                   np.concatenate([model.b_ub, model.b_eq]),
                   [model.A_ub, model.A_eq])
    if h is None:
        return _HighsResult(highs.HighsModelStatus.kModelError, 0, None, None)
    # dual simplex, HiGHS's default for an LP; assemble makes the free-column
    # substitution presolve would, and on backtest-sized LPs presolve and
    # postsolve cost more than they save
    h.setOptionValue("presolve", "off")
    if start is not None:
        h.setBasis(start)
    cuts = model.cut_family
    if cuts is not None:
        held = np.zeros((model.b_eq.size, cuts.a.size), dtype=bool)
        held[:, cuts.first] = True
    iterations = 0
    while True:
        failed = h.run() == highs.HighsStatus.kError
        status = (highs.HighsModelStatus.kSolveError if failed
                  else h.getModelStatus())
        iterations += int(h.getInfo().simplex_iteration_count)
        if status == highs.HighsModelStatus.kInfeasible:
            _, has_ray, ray = h.getDualRay()
            row = int(np.argmax(np.abs(ray[:model.n_rows]))) if has_ray else None
            return _HighsResult(status, iterations, None, None, h.getNumRow(),
                                row)
        if status != highs.HighsModelStatus.kOptimal:
            return _HighsResult(status, iterations, None, None, h.getNumRow())
        x = np.array(h.getSolution().col_value)
        if cuts is not None:
            plane, violation = _most_violated(cuts, x)
            j = np.flatnonzero(violation > _CUT_TOL)
            j = j[~held[j, plane[j]]]
        if cuts is None or j.size == 0:
            return _HighsResult(status, iterations, x, h.getBasis(),
                                h.getNumRow())
        l = plane[j]
        held[j, l] = True
        new = _rows([cuts.rows(j, l)], model.layout.nv)
        new.eliminate_zeros()  # assemble does not store a zero slope either
        h.addRows(j.size, np.full(j.size, -np.inf), cuts.gamma_x[l],
                  new.nnz, new.indptr[:-1], new.indices, new.data)


def solve(model: RobustLpModel,
          start: highs.HighsBasis | None = None) -> LpSolution:
    """Solve the assembled LP; deterministic for a fixed model and start.

    ``start`` is the ``basis`` of an earlier solution; it warm-starts dual
    simplex when it has the column count and the row count that HiGHS
    first holds, and is ignored otherwise.  A model with a cut family adds
    its return-leg cuts on demand (``_run_highs``), and its ``iterations``
    sum all rounds.  The residual below is always taken over the whole
    model, every plane of the family included.
    The status is "optimal", "infeasible" (with the assembled row that
    HiGHS's Farkas certificate weights most, see ``_run_highs``),
    "unbounded" or "numerical".  "numerical" covers both a HiGHS failure
    and a returned point whose worst row violation, kept in ``residual``,
    exceeds _RESIDUAL_TOL or is NaN; an equality row counts its violation
    in either direction.  A zero weight is 0.0, never -0.0.
    """
    t0 = time.perf_counter()
    res = _run_highs(model, start)
    common = dict(iterations=res.iterations,
                  solve_time=time.perf_counter() - t0,
                  provenance=model.provenance, rows_held=res.rows)
    if res.status == highs.HighsModelStatus.kInfeasible:
        return LpSolution(status="infeasible",
                          certificate_row=res.certificate_row, **common)
    if res.status == highs.HighsModelStatus.kUnbounded:
        return LpSolution(status="unbounded", **common)
    if res.status != highs.HighsModelStatus.kOptimal:
        return LpSolution(status="numerical", **common)
    x = res.x
    violations = [model.A_ub @ x - model.b_ub,
                  np.abs(model.A_eq @ x - model.b_eq), [0.0]]
    if model.cut_family is not None:
        violations.append(_most_violated(model.cut_family, x)[1])
    residual = float(np.max(np.concatenate(violations)))
    if not residual <= _RESIDUAL_TOL:
        return LpSolution(status="numerical", residual=residual, **common)
    lay = model.layout
    return LpSolution(
        status="optimal",
        # HiGHS may give a zero column as -0.0; adding 0.0 makes it 0.0
        weights=x[lay.kp] - x[lay.km] + 0.0,
        objective=float(model.c_max_objective @ x),
        nu=x[lay.nu].copy(),
        lam=x[lay.lam].copy(),
        x=x,
        residual=residual,
        basis=res.basis,
        **common,
    )


def extract_weights(sol: LpSolution, layout: DecisionLayout):
    """``sol.weights`` plus turnover, cost and leverage diagnostics."""
    if sol.status != "optimal":
        raise SolutionStatusError(f"solution status is {sol.status}, not optimal")
    x = sol.x
    k = sol.weights
    C = sol.provenance["cost_vector"]
    k_prev = sol.provenance["k_prev"]
    diagnostics = {
        "turnover_cost": float(x[layout.u] @ C),
        "turnover_l1": float(np.abs(k - k_prev).sum()),
        "realized_cost": float(np.abs(k - k_prev) @ C),
        "leverage_usage": float(
            (x[layout.kp].sum() + x[layout.km].sum())
            / sol.provenance["leverage"]
        ),
    }
    return k, diagnostics


def approximation_box(scen: ScenarioSet, con: TradingConstraintSet) -> tuple:
    """Return and cost intervals the tangent planes must cover: (x_lo, x_hi, c_hi).

    Portfolio returns K'x stay within leverage * max|x| of zero, floored
    just above -1 where the utility ends; an all-zero window gives the
    one-point box x_lo = x_hi = 0.  The cost axis runs from 0 to the
    turnover cost limit, or is the single point 0 when trading is free.
    """
    x_hi = con.leverage * float(np.abs(scen.scenarios).max())
    x_lo = max(-1.0 + 1e-6, -x_hi)
    c_hi = con.turnover_cost_limit if con.cost_vector.max(initial=0.0) > 0 else 0.0
    return x_lo, x_hi, c_hi


def rebalance(
    scen: ScenarioSet,
    amb: PolyhedralAmbiguitySet,
    con: TradingConstraintSet,
    u: SeparableUtility,
    budget: ErrorBudget,
    k_prev,
    start: highs.HighsBasis | None = None,
) -> tuple:
    """One robust rebalance: box, tangent family, LP assembly and solve.

    ``start`` is passed on to ``solve``, which warm-starts from it when
    its row and column counts match the LP HiGHS first holds.  Returns
    (solution, model, family).  The weights are ``solution.weights``;
    ``extract_weights(solution, model.layout)`` returns them with the
    turnover, cost and leverage diagnostics.
    """
    x_lo, x_hi, c_hi = approximation_box(scen, con)
    fam = build_family(u, x_lo, x_hi, 0.0, c_hi, budget)
    model = assemble(scen, fam, amb, con, k_prev)
    return solve(model, start), model, fam
