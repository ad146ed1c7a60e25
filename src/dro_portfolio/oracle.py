"""Brute-force references for the worst-case portfolio machinery.

Everything here recomputes quantities by a second, independent route:
worst-case expectations by direct LP over the probability polytope,
small portfolio problems by dense grid search, curvature and account
positivity by randomized sampling.  The CLI verify command packages the
suites; the test suite leans on the same functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linprog

from . import robust_lp
from .ambiguity import PolyhedralAmbiguitySet, from_gamma
from .data import ScenarioSet
from .parallel import thread_map
from .partition import ErrorBudget, tangency_residual
from .robust_lp import TradingConstraintSet
from .utility import SeparableUtility


class ComplexityError(ValueError):
    """Instance too large for the brute-force path."""


# spacing of the exact_small_solve grid on every weight axis
GRID_STEP = 1e-3
_GRID_POINT_CAP = 40_000_000
_LP_POINT_CAP = 20_000
# values (points x scenarios) in one grid-scan slice: 512 KiB a float
# array, so a slice's temporaries stay in a core's L2 cache and scans on
# concurrent threads do not compete for memory bandwidth
_SLICE_VALUES = 1 << 16


def exact_q(u: SeparableUtility, scen: ScenarioSet, k, k_prev, cost_vector):
    """Per-scenario utility q_j at weights k; -inf flags a domain violation."""
    k = np.asarray(k, dtype=float)
    x = scen.scenarios @ k
    c = float(np.abs(k - np.asarray(k_prev, dtype=float)) @ cost_vector)
    q = np.full(scen.m, -np.inf)
    if not 0.0 <= c < 1.0:
        return q
    ok = x > -1.0
    if np.any(ok):
        q[ok] = u.eval_f(x[ok], c)
    return q


def contamination_worst_case(p_hat, gamma: float, q):
    """Closed-form min of p'q over {p in simplex : p >= (1-gamma) p_hat}."""
    q = np.asarray(q, dtype=float)
    p_hat = np.asarray(p_hat, dtype=float)
    return (1.0 - gamma) * float(p_hat @ q) + gamma * float(q.min())


def inner_worst_case(
    k, k_prev, scen: ScenarioSet, amb: PolyhedralAmbiguitySet, u: SeparableUtility,
    cost_vector=None,
):
    """Worst-case expected utility of k over the polytope, by direct LP.

    Returns (value, minimizing distribution).  A scenario outside the
    utility domain sends the value to -inf whenever the polytope can put
    mass on it.
    """
    if cost_vector is None:
        cost_vector = np.zeros(scen.n)
    q = exact_q(u, scen, k, k_prev, cost_vector)
    bad = ~np.isfinite(q)
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        # can the polytope weight scenario j at all?
        c_probe = np.zeros(scen.m)
        c_probe[j] = -1.0
        res = _polytope_lp(amb, c_probe)
        if res.x is not None and res.x[j] > 1e-12:
            return -math.inf, res.x
        q = q.copy()
        q[bad] = 0.0  # forced-zero-mass scenarios cannot matter
    res = _polytope_lp(amb, q)
    if res.status != 0:
        raise RuntimeError("inner worst-case LP failed on a certified-nonempty set")
    return float(res.fun), res.x


def _polytope_lp(amb: PolyhedralAmbiguitySet, objective):
    a_eq = np.vstack([amb.A0, np.ones((1, amb.m))])
    b_eq = np.concatenate([amb.d0, [1.0]])
    return linprog(
        c=objective,
        A_ub=amb.A1 if amb.n_ineq else None,
        b_ub=amb.d1 if amb.n_ineq else None,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0.0, None),
        method="highs",
    )


def contamination_vertices(p_hat, gamma: float) -> np.ndarray:
    """All vertices of the contamination polytope: (1-gamma) p_hat + gamma e_j."""
    p_hat = np.asarray(p_hat, dtype=float)
    m = p_hat.size
    return (1.0 - gamma) * p_hat[None, :] + gamma * np.eye(m)


def duality_gap(
    k, sol: robust_lp.LpSolution, scen: ScenarioSet,
    amb: PolyhedralAmbiguitySet, u: SeparableUtility,
) -> float:
    """Distance between the direct worst case at k and the dual value.

    The dual value plugs the solved multipliers into
    min_j (q + A0'nu + A1'lam)_j - d0'nu - d1'lam with the exact q.
    """
    if sol.status != "optimal":
        raise robust_lp.SolutionStatusError("need an optimal solution")
    k_prev = sol.provenance["k_prev"]
    cost_vector = sol.provenance["cost_vector"]
    q = exact_q(u, scen, k, k_prev, cost_vector)
    inner, _ = inner_worst_case(k, k_prev, scen, amb, u, cost_vector)
    shifted = q + amb.A0.T @ sol.nu + amb.A1.T @ sol.lam
    dual = float(shifted.min()) - float(amb.d0 @ sol.nu) - float(amb.d1 @ sol.lam)
    return abs(inner - dual)


# ---------------------------------------------------------------------------
# exact small-instance solve by grid search
# ---------------------------------------------------------------------------


def _axis_values(lo: float, hi: float, step: float) -> np.ndarray:
    # integer-indexed grid so that 0 is always on it
    lo_i = math.ceil(round(lo / step, 9))
    hi_i = math.floor(round(hi / step, 9))
    return np.arange(lo_i, hi_i + 1) * step


def _leverage_slices(axes, lev: float, step: float, size: int):
    """The grid points that can meet the leverage bound, in row-major order.

    A row is one cell of the leading axes (all but the last).  Of each row
    only the last-axis range |k_last| <= lev - sum|k_lead| is generated,
    with the bound's 1e-12 tolerance and widened by one grid step, so
    every point it skips breaks the leverage bound.  Points come as
    (n, points) arrays of at most size points; a slice may split a row.
    """
    last = axes[-1]
    lead_shape = tuple(ax.size for ax in axes[:-1]) or (1,)
    n_rows = math.prod(lead_shape)
    for r0 in range(0, n_rows, size):
        cell = np.unravel_index(np.arange(r0, min(r0 + size, n_rows)), lead_shape)
        lead = [ax[i] for ax, i in zip(axes[:-1], cell)]
        room = np.full(cell[0].size, lev + 1e-12 + step)
        for v in lead:
            room -= np.abs(v)
        lo = np.searchsorted(last, -room, side="left")
        count = np.maximum(np.searchsorted(last, room, side="right") - lo, 0)
        end = np.cumsum(count)
        start = end - count
        # point p of this block lies in row r at last-axis index p - shift[r]
        shift = start - lo
        for p0 in range(0, int(end[-1]), size):
            p1 = min(p0 + size, int(end[-1]))
            a, b = np.searchsorted(end, [p0, p1 - 1], side="right")
            rs = slice(a, b + 1)
            row = np.repeat(np.arange(a, b + 1),
                            np.minimum(end[rs], p1) - np.maximum(start[rs], p0))
            col = np.arange(p0, p1) - shift[row]
            G = np.stack([v[row] for v in lead] + [last[col]])
            del row, col  # not held while the caller works on G
            yield G


def _row_min(a: np.ndarray) -> np.ndarray:
    """Row minima of a (points, m) array, one column at a time.

    Exact like a.min(axis=1), and faster for the short scenario axes of
    the grid scan.
    """
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.minimum(out, a[:, j], out=out)
    return out


def exact_small_solve(
    scen: ScenarioSet,
    amb: PolyhedralAmbiguitySet,
    con: TradingConstraintSet,
    k_prev,
    u: SeparableUtility,
):
    """Maximize the exact worst-case objective by dense grid search.

    The grid spaces every weight axis GRID_STEP apart.  Only for n <= 3;
    refuses outright when the grid would be too large.
    The grid is never built whole: it is scanned in row-major slices of
    _SLICE_VALUES / m points (m scenarios), sized to stay in cache, that
    skip, row by row, the last-axis stretches outside the leverage bound,
    and the first strict maximum wins.  The returned value is recomputed
    at the winning point through the worst-case LP, so the scan and the
    LP route must agree.
    """
    n = scen.n
    if n > 3:
        raise ComplexityError("exact solve is limited to n <= 3 assets")
    k_prev = np.asarray(k_prev, dtype=float)
    lev = con.leverage
    axes = []
    for i in range(n):
        lo = -lev if con.allow_short else 0.0
        hi = lev
        if con.holding_caps is not None:
            lo = max(lo, -float(con.holding_caps[i]) if con.allow_short else 0.0)
            hi = min(hi, float(con.holding_caps[i]))
        axes.append(_axis_values(lo, hi, GRID_STEP))
    total = int(np.prod([ax.size for ax in axes], dtype=np.int64))
    if total > _GRID_POINT_CAP:
        raise ComplexityError(f"grid of {total} points exceeds the cap")
    if amb.gamma is None and total > _LP_POINT_CAP:
        raise ComplexityError(
            "general polytopes need one LP per grid point; grid too large"
        )

    down = np.abs(np.minimum(0.0, scen.x_min))[:, None]
    up = np.maximum(0.0, scen.x_max)[:, None]
    cost_vector = con.cost_vector[:, None]
    Xt = scen.scenarios.T
    chunk = max(1, _SLICE_VALUES // max(1, scen.m))
    best_val = -math.inf
    best_k = None
    any_feasible = False
    # each slice is held as an (n, points) array, so the sums over assets
    # add contiguous rows
    for G in _leverage_slices(axes, lev, GRID_STEP, chunk):
        feas = np.abs(G).sum(axis=0) <= lev + 1e-12
        exposure = (np.maximum(G, 0.0) * down).sum(axis=0)
        exposure += (np.maximum(-G, 0.0) * up).sum(axis=0)
        feas &= exposure <= 1.0 + 1e-12
        costs = (np.abs(G - k_prev[:, None]) * cost_vector).sum(axis=0)
        feas &= costs <= con.turnover_cost_limit + 1e-12
        if not np.any(feas):
            continue
        any_feasible = True
        K = G[:, feas]
        cc = costs[feas]
        rets = K.T @ Xt
        valid = (_row_min(rets) > -1.0) & (cc < 1.0)
        if not np.any(valid):
            continue
        if not np.all(valid):
            K, cc, rets = K[:, valid], cc[valid], rets[valid]
        q = u.eval_f(rets, cc[:, None])
        if amb.gamma is not None:
            inner = (1.0 - amb.gamma) * (q @ amb.p_hat) + amb.gamma * _row_min(q)
        else:
            inner = np.array(
                [
                    _polytope_lp(amb, q[t]).fun
                    for t in range(q.shape[0])
                ]
            )
        t = int(np.argmax(inner))
        if inner[t] > best_val:
            best_val = float(inner[t])
            best_k = K[:, t].copy()
    if not any_feasible:
        raise ValueError("no feasible grid point")
    if best_k is None:
        raise ValueError("every feasible grid point left the utility domain")
    value, _ = inner_worst_case(best_k, k_prev, scen, amb, u, con.cost_vector)
    return best_k, value


# ---------------------------------------------------------------------------
# randomized probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    name: str
    trials: int
    violations: tuple
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "violations": [repr(v) for v in self.violations[:5]],
            "violation_count": len(self.violations),
            "passed": self.passed,
        }


def _sample_feasible_weights(rng, scen: ScenarioSet, con: TradingConstraintSet):
    n = scen.n
    down = np.abs(np.minimum(0.0, scen.x_min))
    up = np.maximum(0.0, scen.x_max)
    for _ in range(1000):
        direction = rng.standard_normal(n)
        if not con.allow_short:
            direction = np.abs(direction)
        norm = np.abs(direction).sum()
        if norm == 0:
            continue
        k = direction / norm * con.leverage * rng.uniform(0.0, 1.0)
        if con.holding_caps is not None:
            k = np.clip(k, -con.holding_caps, con.holding_caps)
        exposure = np.maximum(k, 0.0) @ down + np.maximum(-k, 0.0) @ up
        if exposure <= 0.99:
            return k
    raise RuntimeError("could not sample a feasible portfolio")


def concavity_probe(
    u: SeparableUtility,
    scen: ScenarioSet,
    trials: int,
    seed: int = 0,
    con: TradingConstraintSet | None = None,
) -> ProbeReport:
    """Randomized check that the empirical objective is jointly concave.

    Samples feasible pairs (k, k_prev) twice, mixes them, and compares the
    objective at the mixture with the mixed objective values.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if con is None:
        con = TradingConstraintSet.uniform(
            scen.n, leverage=1.5, cost_rate=0.001, turnover_cost_limit=0.5
        )
    rng = np.random.default_rng(seed)
    p_hat = scen.probabilities

    def j_value(k, k_prev):
        q = exact_q(u, scen, k, k_prev, con.cost_vector)
        if not np.all(np.isfinite(q)):
            return None
        return float(p_hat @ q)

    violations = []
    done = 0
    while done < trials:
        ka, kpa = (
            _sample_feasible_weights(rng, scen, con),
            _sample_feasible_weights(rng, scen, con),
        )
        kb, kpb = (
            _sample_feasible_weights(rng, scen, con),
            _sample_feasible_weights(rng, scen, con),
        )
        lam = rng.uniform(0.05, 0.95)
        va, vb = j_value(ka, kpa), j_value(kb, kpb)
        km, kpm = lam * ka + (1 - lam) * kb, lam * kpa + (1 - lam) * kpb
        vm = j_value(km, kpm)
        if va is None or vb is None or vm is None:
            continue
        done += 1
        if vm < lam * va + (1 - lam) * vb - 1e-9:
            violations.append((ka, kpa, kb, kpb, lam, vm, lam * va + (1 - lam) * vb))
    return ProbeReport(
        name="joint_concavity",
        trials=trials,
        violations=tuple(violations),
        passed=not violations,
    )


def survival_probe(
    scen: ScenarioSet,
    con: TradingConstraintSet,
    trials: int,
    seed: int = 0,
) -> ProbeReport:
    """Account growth factors stay nonnegative for constraint-abiding weights."""
    rng = np.random.default_rng(seed)
    violations = []
    for _ in range(trials):
        k = _sample_feasible_weights(rng, scen, con)
        k_prev = _sample_feasible_weights(rng, scen, con)
        j = int(rng.integers(scen.m))
        cost = float(np.abs(k - k_prev) @ con.cost_vector)
        factor = (1.0 + float(k @ scen.scenarios[j])) * (1.0 - cost)
        if factor < 0.0:
            violations.append((k, k_prev, j, factor))
    return ProbeReport(
        name="survivability",
        trials=trials,
        violations=tuple(violations),
        passed=not violations,
    )


# ---------------------------------------------------------------------------
# packaged verification suites
# ---------------------------------------------------------------------------


def random_small_instance(
    rng,
    n_max: int = 5,
    m_max: int = 20,
    gamma_choices=(0.0, 0.3, 1.0),
    cost_rate: float = 0.0,
):
    """One random scenario set, contamination polytope, and constraint set."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    scen = ScenarioSet.uniform(rng.uniform(-0.15, 0.18, size=(m, n)))
    gamma = float(rng.choice(gamma_choices))
    amb = from_gamma(scen.probabilities, gamma)
    con = TradingConstraintSet.uniform(
        n,
        leverage=1.5,
        cost_rate=cost_rate,
        turnover_cost_limit=0.5 if cost_rate else 0.0,
    )
    return scen, amb, con


def _solve_robust(scen, amb, con, u, budget_total):
    """robust_lp.rebalance from k_prev = 0 with the total budget split per axis."""
    c_hi = robust_lp.approximation_box(scen, con)[2]
    eps_c = min(budget_total * 0.5, 1e-5) if c_hi > 0 else budget_total * 0.5
    budget = ErrorBudget(eps_x=budget_total - eps_c, eps_c=eps_c)
    return robust_lp.rebalance(scen, amb, con, u, budget, np.zeros(scen.n))


def verify_duality(seed: int = 0):
    """Dual value from the solved multipliers meets the direct worst case."""
    instances, budget = 12, 1e-8
    rng = np.random.default_rng(seed)
    u = SeparableUtility("log")
    worst = 0.0
    failures = []
    for t in range(instances):
        scen, amb, con = random_small_instance(rng)
        sol, _, _ = _solve_robust(scen, amb, con, u, budget)
        if sol.status != "optimal":
            failures.append((t, sol.status))
            continue
        gap = duality_gap(sol.weights, sol, scen, amb, u)
        worst = max(worst, gap)
        if gap > 1e-6 + budget:
            failures.append((t, gap))
    return {
        "passed": not failures,
        "instances": instances,
        "worst_gap": worst,
        "failures": failures,
    }


def verify_inner(seed: int = 0):
    """Closed-form and vertex views of the contamination worst case match the LP."""
    trials = 100
    rng = np.random.default_rng(seed)
    failures = []
    for t in range(trials):
        m = int(rng.integers(2, 8))
        q = rng.normal(0.0, 0.2, size=m)
        p_hat = rng.dirichlet(np.ones(m))
        gamma = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
        amb = from_gamma(p_hat, gamma)
        res = _polytope_lp(amb, q)
        lp_val = float(res.fun)
        closed = contamination_worst_case(p_hat, gamma, q)
        vertex = float(min(contamination_vertices(p_hat, gamma) @ q))
        if abs(lp_val - closed) > 1e-9 or abs(lp_val - vertex) > 1e-9:
            failures.append((t, lp_val, closed, vertex))
    return {"passed": not failures, "trials": trials, "failures": failures}


def verify_approximation(seed: int = 0, fault: bool = False):
    """Small-instance sandwich: exact value <= cut-model value <= exact + budget."""
    instances, budget = 6, 1e-5
    rng = np.random.default_rng(seed)
    u = SeparableUtility("log")
    failures = []
    for t in range(instances):
        scen, amb, con = random_small_instance(rng, n_max=2, m_max=8)
        sol, _, fam = _solve_robust(scen, amb, con, u, budget)
        if fault:
            fam = replace(fam, gamma_x=-fam.gamma_x, gamma_c=-fam.gamma_c)
        # tangency: every plane touches f at its anchor
        residual = tangency_residual(u, fam)
        if residual > 1e-12:
            failures.append((t, "hyperplane tangency broken", residual))
        if sol.status != "optimal":
            failures.append((t, "solve status", sol.status))
            continue
        _, exact_val = exact_small_solve(scen, amb, con, np.zeros(scen.n), u)
        # twice the grid step times a Lipschitz bound
        slack = 2.0 * GRID_STEP * (1.0 + con.leverage)
        if not (exact_val - 1e-9 <= sol.objective <= exact_val + budget + slack):
            failures.append((t, "sandwich", exact_val, sol.objective))
    return {"passed": not failures, "instances": instances, "failures": failures}


def run_all(seed: int = 0, fault: bool = False, suites=None) -> dict:
    """Run the named verification suites; default runs everything.

    The suites run side by side (parallel.thread_map); each draws from
    its own seeded generator, so the report does not depend on the
    thread count.
    """
    registry = {
        "duality": lambda: verify_duality(seed),
        "inner": lambda: verify_inner(seed),
        "approximation": lambda: verify_approximation(seed, fault=fault),
        "concavity": lambda: _concavity_suite(seed),
        "survivability": lambda: _survival_suite(seed),
    }
    if suites is None:
        suites = list(registry)
    unknown = [s for s in suites if s not in registry]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    results = dict(zip(suites, thread_map(lambda s: registry[s](), suites)))
    passed = all(r["passed"] for r in results.values())
    return {"passed": passed, "suites": results}


def _make_probe_scenarios(seed: int, n: int = 3, m: int = 12) -> ScenarioSet:
    X = np.random.default_rng(seed).uniform(-0.12, 0.15, size=(m, n))
    return ScenarioSet.uniform(X)


def _concavity_suite(seed: int) -> dict:
    scen = _make_probe_scenarios(seed)
    rep_log = concavity_probe(SeparableUtility("log"), scen, 300, seed=seed)
    rep_pow = concavity_probe(
        SeparableUtility("power", delta=0.5), scen, 300, seed=seed + 1
    )
    return {
        "passed": rep_log.passed and rep_pow.passed,
        "log": rep_log.to_dict(),
        "power": rep_pow.to_dict(),
    }


def _survival_suite(seed: int) -> dict:
    scen = _make_probe_scenarios(seed + 7)
    con = TradingConstraintSet.uniform(
        scen.n, leverage=1.5, cost_rate=0.005, turnover_cost_limit=0.5
    )
    rep = survival_probe(scen, con, 1000, seed=seed)
    return rep.to_dict()
