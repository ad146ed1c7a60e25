"""Brute-force references for the worst-case portfolio machinery.

Everything here recomputes quantities by a second, independent route:
worst-case expectations by direct LP over the probability polytope,
small portfolio problems by dense grid search, curvature and account
positivity by randomized sampling.  The CLI verify command packages the
suites; the test suite leans on the same functions.
"""

from __future__ import annotations

import math

import numpy as np
# not called: perfbench/tracing.py counts the calls made through this name
from scipy.optimize import linprog  # noqa: F401

from . import robust_lp
from .ambiguity import PolyhedralAmbiguitySet, _row_min, from_gamma
from .data import ScenarioSet
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
# array, so a slice's temporaries stay in a core's L2 cache
_SLICE_VALUES = 1 << 16
# cell sides of the pruned grid scan, coarse to fine, each a quarter of
# the last
_LEVELS = (64, 16, 4, 1)
# relative margin on the pruning bound: covers the rounding of J and the
# tolerance of the per-point LP of a general polytope
_ROUNDING = 1e-6


def exact_q(u: SeparableUtility, scen: ScenarioSet, k, k_prev, cost_vector):
    """Per-scenario utility q_j at weights k; -inf flags a domain violation.

    k and k_prev are (n,), giving q (m,), or (count, n), one row of q each.
    """
    k = np.asarray(k, dtype=float)
    x = (scen.scenarios @ k.T).T
    c = np.abs(k - np.asarray(k_prev, dtype=float)) @ cost_vector
    q = np.full(x.shape, -np.inf)
    ok = (x > -1.0) & ((0.0 <= c) & (c < 1.0))[..., None]
    if np.any(ok):
        # one portfolio keeps a float cost: a power of an array can round otherwise
        cost = float(c) if k.ndim == 1 else np.broadcast_to(c[:, None], x.shape)[ok]
        q[ok] = u.eval_f(x[ok], cost)
    return q


def contamination_worst_case(p_hat, gamma: float, q):
    """Closed-form min of p'q over {p in simplex : p >= (1-gamma) p_hat}."""
    return from_gamma(p_hat, gamma).worst_case(q)


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
    inner, _ = amb.lp_worst_case(q)
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


def _lipschitz_bound(scen: ScenarioSet, con: TradingConstraintSet, k_prev,
                     u: SeparableUtility) -> float:
    """Slope bound of the exact objective in the infinity norm, inf if none.

    Over the leverage ball every scenario return stays above -lev * maxabs
    and every cost fraction below c_hi = sum_i cost_i (lev + |k_prev_i|),
    and phi1' falls, so each q_j, and with it every worst case over a
    polytope, moves by at most this much per unit of max_i |dk_i|.  No
    finite bound exists where lev * maxabs >= 1 or c_hi >= 1.
    """
    X = np.abs(scen.scenarios)
    x_lo = con.leverage * float(X.max())
    c_hi = float(con.cost_vector @ (con.leverage + np.abs(k_prev)))
    if x_lo >= 1.0 or c_hi >= 1.0:
        return math.inf
    with np.errstate(over="ignore"):
        slope_x, slope_c = u.phi1_prime(np.array([-x_lo, -c_hi]))
    return float(u.alpha * slope_x * X.max(axis=0).sum()
                 + u.beta * slope_c * con.cost_vector.sum())


def _grid_values(idx, axes, scen: ScenarioSet, amb: PolyhedralAmbiguitySet,
                 con: TradingConstraintSet, k_prev, u: SeparableUtility):
    """The exact objective and feasibility at the grid points of idx.

    idx is an (n, points) array of axis indices.  Returns (value,
    feasible): value is -inf outside the leverage ball and where a
    scenario return or the cost leaves the utility domain.  The points go
    through in slices of _SLICE_VALUES / m (m scenarios), each held as an
    (n, points) array so the sums over assets add contiguous rows.
    """
    lev = con.leverage
    down = np.abs(np.minimum(0.0, scen.x_min))[:, None]
    up = np.maximum(0.0, scen.x_max)[:, None]
    cost_vector = con.cost_vector[:, None]
    Xt = scen.scenarios.T
    chunk = max(1, _SLICE_VALUES // max(1, scen.m))
    value = np.full(idx.shape[1], -math.inf)
    feasible = np.zeros(idx.shape[1], dtype=bool)
    for s in range(0, idx.shape[1], chunk):
        G = np.stack([ax[i] for ax, i in zip(axes, idx[:, s:s + chunk])])
        ball = np.abs(G).sum(axis=0) <= lev + 1e-12
        exposure = (np.maximum(G, 0.0) * down).sum(axis=0)
        exposure += (np.maximum(-G, 0.0) * up).sum(axis=0)
        costs = (np.abs(G - k_prev[:, None]) * cost_vector).sum(axis=0)
        feasible[s:s + chunk] = (ball & (exposure <= 1.0 + 1e-12)
                                 & (costs <= con.turnover_cost_limit + 1e-12))
        at = np.flatnonzero(ball & (costs < 1.0))
        rets = G[:, at].T @ Xt
        valid = _row_min(rets) > -1.0
        if not np.all(valid):
            at, rets = at[valid], rets[valid]
        value[s + at] = amb.worst_case(u.eval_f(rets, costs[at][:, None]))
    return value, feasible


def _children(corners, side: int, shape):
    """Corners of the cells of the given side that split cells of 4 * side.

    Cells are index boxes of the grid; a cell at the grid's far end is
    cut off there.  Yields (n, points) batches of at most _SLICE_VALUES
    points.
    """
    n = corners.shape[0]
    offsets = np.indices((4,) * n).reshape(n, -1) * side
    per_batch = _SLICE_VALUES // offsets.shape[1]
    for s in range(0, corners.shape[1], per_batch):
        kids = (corners[:, s:s + per_batch, None] + offsets[:, None, :]).reshape(n, -1)
        yield kids[:, np.all(kids < shape[:, None], axis=0)]


def _outside_ball(corners, side: int, axes, lev: float):
    """Cells whose every grid point has sum_i |k_i| above the leverage bound.

    The point of a cell nearest to 0 takes, on each axis, 0 or the end
    closer to it; its 1-norm is summed in the order the scan sums.
    """
    nearest = []
    for ax, c in zip(axes, corners):
        lo, hi = ax[c], ax[np.minimum(c + side - 1, ax.size - 1)]
        nearest.append(np.where((lo <= 0.0) & (hi >= 0.0), 0.0,
                                np.minimum(np.abs(lo), np.abs(hi))))
    return np.stack(nearest).sum(axis=0) > lev + 1e-12


def exact_small_solve(
    scen: ScenarioSet,
    amb: PolyhedralAmbiguitySet,
    con: TradingConstraintSet,
    k_prev,
    u: SeparableUtility,
):
    """Maximize the exact worst-case objective by grid search.

    The grid spaces every weight axis GRID_STEP apart.  Only for n <= 3;
    refuses outright when the grid would be too large.  The grid is never
    built whole.  It is scanned as a Lipschitz branch and bound
    (Piyavskii 1972, Shubert 1972) over cells of H^n grid points, H = 64,
    16, 4, 1: each level evaluates the objective J at every cell's lower
    corner, feasible or not, and drops the cell when that value plus the
    slope bound (_lipschitz_bound) times (H - 1) GRID_STEP and a rounding
    margin is strictly below the best feasible value so far, or when the
    cell lies wholly outside the leverage ball; the others split into
    cells of H / 4.  A dropped point lies strictly below the maximum, so
    the smallest row-major index among the maximal points, the first
    strict maximum of a full scan, wins.  Where no finite bound exists
    nothing is dropped but the cells outside the ball.  The returned
    value is recomputed at the winning point through the worst-case LP,
    so the scan and the LP route must agree.
    """
    n = scen.n
    if n > 3:
        raise ComplexityError("exact solve is limited to n <= 3 assets")
    k_prev = np.asarray(k_prev, dtype=float)
    lev = con.leverage
    # axis i spans [-h, h], or [0, h] long-only, with h = min(leverage, cap_i)
    caps = np.full(n, lev) if con.holding_caps is None else con.holding_caps
    axes = [_axis_values(-hi if con.allow_short else 0.0, hi, GRID_STEP)
            for hi in np.minimum(lev, caps)]
    shape = np.array([ax.size for ax in axes])
    total = int(np.prod(shape, dtype=np.int64))
    if total > _GRID_POINT_CAP:
        raise ComplexityError(f"grid of {total} points exceeds the cap")
    if amb.floor is None and total > _LP_POINT_CAP:
        raise ComplexityError("a set without a floor needs one LP per grid point; "
                              "grid too large")

    lipschitz = _lipschitz_bound(scen, con, k_prev, u)
    cells = [np.indices(-(-shape // _LEVELS[0])).reshape(n, -1) * _LEVELS[0]]
    best = -math.inf  # best feasible value so far
    for side in _LEVELS[:-1]:
        scanned = []
        for corners in cells:
            corners = corners[:, ~_outside_ball(corners, side, axes, lev)]
            value, feasible = _grid_values(corners, axes, scen, amb, con, k_prev, u)
            best = max(best, value[feasible].max(initial=-math.inf))
            scanned.append((corners, value))
        reach = lipschitz * (side - 1) * GRID_STEP + _ROUNDING * (1.0 + abs(best))
        # a corner without a value (outside the ball) bounds nothing
        kept = [c[:, ~(np.isfinite(v) & (v < best - reach))] for c, v in scanned]
        cells = _children(np.concatenate(kept, axis=1), side // 4, shape)

    # cells of side 1 are points: the maximum, first in row-major order
    any_feasible = False
    top, top_index = -math.inf, -1
    for points in cells:
        value, feasible = _grid_values(points, axes, scen, amb, con, k_prev, u)
        any_feasible |= bool(np.any(feasible))
        value[~feasible] = -math.inf
        here = value.max(initial=-math.inf)
        if here == -math.inf or here < top:
            continue
        index = int(np.ravel_multi_index(points[:, value == here], shape).min())
        if here > top or index < top_index:
            top, top_index = here, index
    if not any_feasible:
        raise ValueError("no feasible grid point")
    if top_index < 0:
        raise ValueError("every feasible grid point left the utility domain")
    best_k = np.array([ax[i] for ax, i in zip(axes, np.unravel_index(top_index, shape))])
    value, _ = amb.lp_worst_case(exact_q(u, scen, best_k, k_prev, con.cost_vector))
    return best_k, value


# ---------------------------------------------------------------------------
# randomized probes
# ---------------------------------------------------------------------------


def _probe_report(name: str, trials: int, violations: list) -> dict:
    """The verify.json entry of a probe: the first five violations as repr."""
    return {
        "name": name,
        "trials": trials,
        "violations": [repr(v) for v in violations[:5]],
        "violation_count": len(violations),
        "passed": not violations,
    }


def _sample_feasible_weights(rng, scen: ScenarioSet, con: TradingConstraintSet, count):
    """count portfolios, (count, n), each redrawn until its exposure is <= 0.99."""
    down = np.abs(np.minimum(0.0, scen.x_min))
    up = np.maximum(0.0, scen.x_max)
    kept_draws, need = [], count
    for _ in range(1000):
        direction = rng.standard_normal((need, scen.n))
        if not con.allow_short:
            direction = np.abs(direction)
        norm = np.abs(direction).sum(axis=1, keepdims=True)
        draw = np.divide(direction, norm, out=np.zeros_like(direction), where=norm > 0)
        draw = draw * con.leverage * rng.uniform(0.0, 1.0, (need, 1))
        if con.holding_caps is not None:
            draw = np.clip(draw, -con.holding_caps, con.holding_caps)
        exposure = np.maximum(draw, 0.0) @ down + np.maximum(-draw, 0.0) @ up
        kept = (norm[:, 0] > 0) & (exposure <= 0.99)
        kept_draws.append(draw[kept])
        need -= int(kept.sum())
        if not need:
            return np.concatenate(kept_draws)
    raise RuntimeError("could not sample a feasible portfolio")


def concavity_probe(
    u: SeparableUtility,
    scen: ScenarioSet,
    trials: int,
    seed: int = 0,
) -> dict:
    """Randomized check that the empirical objective is jointly concave.

    Samples pairs (k, k_prev) twice, feasible for leverage 1.5, cost rate
    0.001 and turnover cost limit 0.5, mixes them, and compares the
    objective at the mixture with the mixed objective values, all trials
    at once; a triple with a value outside the utility domain is redrawn.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    con = TradingConstraintSet.uniform(
        scen.n, leverage=1.5, cost_rate=0.001, turnover_cost_limit=0.5
    )
    rng = np.random.default_rng(seed)
    violations = []
    todo = trials
    while todo:
        # ka, kpa, kb, kpb of every trial still to score
        draws = np.stack([_sample_feasible_weights(rng, scen, con, todo)
                          for _ in range(4)])
        lam = rng.uniform(0.05, 0.95, todo)
        mix = lam[:, None] * draws[:2] + (1 - lam[:, None]) * draws[2:]
        q = np.stack([exact_q(u, scen, k, k_prev, con.cost_vector)
                      for k, k_prev in (draws[:2], draws[2:], mix)])
        ok = np.isfinite(q).all(axis=(0, 2))
        todo -= int(ok.sum())
        va, vb, vm = q[:, ok] @ scen.probabilities
        lam, draws = lam[ok], draws[:, ok]
        mixed = lam * va + (1 - lam) * vb
        violations += [(*draws[:, t], float(lam[t]), float(vm[t]), float(mixed[t]))
                       for t in np.flatnonzero(vm < mixed - 1e-9)]
    return _probe_report("joint_concavity", trials, violations)


def survival_probe(
    scen: ScenarioSet,
    con: TradingConstraintSet,
    trials: int,
    seed: int = 0,
) -> dict:
    """Account growth factors stay nonnegative for constraint-abiding weights."""
    rng = np.random.default_rng(seed)
    k = _sample_feasible_weights(rng, scen, con, trials)
    k_prev = _sample_feasible_weights(rng, scen, con, trials)
    j = rng.integers(scen.m, size=trials)
    cost = np.abs(k - k_prev) @ con.cost_vector
    factor = (1.0 + (k * scen.scenarios[j]).sum(axis=1)) * (1.0 - cost)
    violations = [(k[t], k_prev[t], int(j[t]), float(factor[t]))
                  for t in np.flatnonzero(factor < 0.0)]
    return _probe_report("survivability", trials, violations)


# ---------------------------------------------------------------------------
# packaged verification suites
# ---------------------------------------------------------------------------


def random_small_instance(
    rng,
    n_max: int = 5,
    m_max: int = 20,
    cost_rate: float = 0.0,
):
    """One random scenario set, contamination polytope, and constraint set."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    scen = ScenarioSet.uniform(rng.uniform(-0.15, 0.18, size=(m, n)))
    gamma = float(rng.choice([0.0, 0.3, 1.0]))
    amb = from_gamma(scen.probabilities, gamma)
    con = TradingConstraintSet.uniform(
        n,
        leverage=1.5,
        cost_rate=cost_rate,
        turnover_cost_limit=0.5 if cost_rate else 0.0,
    )
    return scen, amb, con


def verify_duality(seed: int = 0):
    """Dual value from the solved multipliers meets the direct worst case."""
    instances, budget = 12, 1e-8
    per_axis = ErrorBudget(budget / 2, budget / 2)
    rng = np.random.default_rng(seed)
    u = SeparableUtility("log")
    worst = 0.0
    failures = []
    for t in range(instances):
        scen, amb, con = random_small_instance(rng)
        sol, _, _ = robust_lp.rebalance(scen, amb, con, u, per_axis,
                                        np.zeros(scen.n))
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
        lp_val, _ = amb.lp_worst_case(q)
        closed = amb.worst_case(q)
        vertex = float(min(contamination_vertices(p_hat, gamma) @ q))
        if abs(lp_val - closed) > 1e-9 or abs(lp_val - vertex) > 1e-9:
            failures.append((t, lp_val, closed, vertex))
    return {"passed": not failures, "trials": trials, "failures": failures}


def _approximation_draws(seed: int) -> list:
    """The approximation suite's six (scen, amb, con) draws, n <= 2."""
    rng = np.random.default_rng(seed)
    return [random_small_instance(rng, n_max=2, m_max=8) for _ in range(6)]


def verify_approximation(seed: int = 0):
    """Small-instance sandwich: exact value <= cut-model value <= exact + budget."""
    draws, budget = _approximation_draws(seed), 1e-5
    per_axis = ErrorBudget(budget / 2, budget / 2)
    u = SeparableUtility("log")
    failures = []
    for t, (scen, amb, con) in enumerate(draws):
        sol, _, fam = robust_lp.rebalance(scen, amb, con, u, per_axis,
                                          np.zeros(scen.n))
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
    return {"passed": not failures, "instances": len(draws), "failures": failures}


def _make_probe_scenarios(seed: int) -> ScenarioSet:
    """Twelve scenarios of three assets, uniform on [-0.12, 0.15]."""
    X = np.random.default_rng(seed).uniform(-0.12, 0.15, size=(12, 3))
    return ScenarioSet.uniform(X)


def _concavity_suite(seed: int) -> dict:
    scen = _make_probe_scenarios(seed)
    rep_log = concavity_probe(SeparableUtility("log"), scen, 300, seed=seed)
    rep_pow = concavity_probe(
        SeparableUtility("power", delta=0.5), scen, 300, seed=seed + 1
    )
    return {"passed": rep_log["passed"] and rep_pow["passed"],
            "log": rep_log, "power": rep_pow}


def _survival_suite(seed: int) -> dict:
    scen = _make_probe_scenarios(seed + 7)
    con = TradingConstraintSet.uniform(
        scen.n, leverage=1.5, cost_rate=0.005, turnover_cost_limit=0.5
    )
    return survival_probe(scen, con, 1000, seed=seed)


# each suite takes the seed.  A verify_* function is looked up by name when
# its suite runs, so a wrapper installed on the module attribute, such as a
# tracer's span or a test's stand-in, sees the call
SUITES = {
    "duality": lambda seed: verify_duality(seed),
    "inner": lambda seed: verify_inner(seed),
    "approximation": lambda seed: verify_approximation(seed),
    "concavity": _concavity_suite,
    "survivability": _survival_suite,
}


def suite_selection(suites=None) -> list:
    """The suites to run, all by default; unknown or repeated names raise."""
    if suites is None:
        return list(SUITES)
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    repeated = sorted({s for s in suites if suites.count(s) > 1})
    if repeated:
        raise ValueError(f"suites named more than once: {repeated}")
    return list(suites)


def run_all(seed: int = 0, suites=None) -> dict:
    """Run the named verification suites in turn; default runs everything.

    Each suite draws from its own generator seeded with seed, so a
    suite's report does not depend on which others run.
    """
    results = {s: SUITES[s](seed) for s in suite_selection(suites)}
    passed = all(r["passed"] for r in results.values())
    return {"passed": passed, "suites": results}
