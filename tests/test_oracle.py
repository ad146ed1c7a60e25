"""Brute-force reference solvers and the checks built on them."""
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import dro_portfolio as dp
from dro_portfolio import ComplexityError, oracle, robust_lp

from conftest import with_negated_intercepts


def test_exact_q_matches_manual_formula(log_utility):
    rng = np.random.default_rng(1)
    scen, amb, con = oracle.random_small_instance(rng, cost_rate=0.002)
    k = oracle._sample_feasible_weights(rng, scen, con, 1)[0]
    k_prev = np.zeros(scen.n)
    q = oracle.exact_q(log_utility, scen, k, k_prev, con.cost_vector)
    cost = float(con.cost_vector @ np.abs(k - k_prev))
    for j in range(scen.m):
        manual = math.log1p(float(scen.scenarios[j] @ k)) + math.log1p(-cost)
        assert q[j] == pytest.approx(manual, rel=1e-12)


def test_exact_q_flags_domain_violations(log_utility):
    X = np.array([[-0.5], [0.1]])
    scen = dp.ScenarioSet(
        scenarios=X,
        probabilities=np.array([0.5, 0.5]),
        x_min=X.min(axis=0),
        x_max=X.max(axis=0),
    )
    # K = 3 drives scenario 0 to 1 + 3*(-0.5) < 0
    q = oracle.exact_q(
        log_utility, scen, np.array([3.0]), np.zeros(1), np.zeros(1)
    )
    assert q[0] == -np.inf and np.isfinite(q[1])


def test_exact_q_scores_a_batch_row_by_row(log_utility):
    X = np.array([[-0.5, 0.1], [0.1, -0.2], [0.05, 0.02]])
    scen = dp.ScenarioSet.uniform(X)
    cost_vector = np.full(2, 0.01)
    # a portfolio inside the domain, one that takes scenario 0 below -1,
    # and one whose trade costs the whole account
    k = np.array([[0.4, 0.3], [2.5, 0.0], [0.2, 0.2]])
    k_prev = np.array([[0.0, 0.0], [0.0, 0.0], [60.0, 60.0]])
    q = oracle.exact_q(log_utility, scen, k, k_prev, cost_vector)
    assert q.shape == (3, 3)
    for row, (a, b) in zip(q, zip(k, k_prev)):
        np.testing.assert_allclose(
            row, oracle.exact_q(log_utility, scen, a, b, cost_vector), rtol=1e-15)
    assert np.isfinite(q[0]).all()
    assert q[1, 0] == -np.inf and np.isfinite(q[1, 1:]).all()
    assert (q[2] == -np.inf).all()


def test_contamination_closed_form_vs_lp(log_utility):
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = int(rng.integers(2, 12))
        p_hat = rng.dirichlet(np.ones(m))
        gamma = float(rng.choice([0.0, 0.2, 0.6, 1.0]))
        q = rng.normal(size=m)
        amb = dp.from_gamma(p_hat, gamma)
        closed = oracle.contamination_worst_case(p_hat, gamma, q)
        value, p = amb.lp_worst_case(q)
        assert closed == pytest.approx(value, abs=1e-9)
        assert dp.contains(amb, p, tol=1e-7)


def test_contamination_worst_case_skips_a_scenario_without_mass():
    # gamma 0 pins p to p_hat, which puts no mass on the -inf scenario
    p_hat, q = [0.5, 0.5, 0.0], [0.1, 0.2, -np.inf]
    assert oracle.contamination_worst_case(p_hat, 0.0, q) == pytest.approx(0.15)
    # any gamma > 0 can move mass onto it
    for gamma in (0.3, 1.0):
        assert oracle.contamination_worst_case(p_hat, gamma, q) == -np.inf


def test_contamination_vertices_attain_worst_case():
    rng = np.random.default_rng(6)
    m = 5
    p_hat = rng.dirichlet(np.ones(m))
    gamma = 0.35
    q = rng.normal(size=m)
    verts = oracle.contamination_vertices(p_hat, gamma)
    assert verts.shape == (m, m)
    vertex_values = verts @ q
    assert float(vertex_values.min()) == pytest.approx(
        oracle.contamination_worst_case(p_hat, gamma, q), abs=1e-12
    )


def test_inner_worst_case_consistency(log_utility):
    rng = np.random.default_rng(7)
    for _ in range(5):
        scen, amb, con = oracle.random_small_instance(rng, cost_rate=0.002)
        k = oracle._sample_feasible_weights(rng, scen, con, 1)[0]
        val, p_star = oracle.inner_worst_case(
            k, np.zeros(scen.n), scen, amb, log_utility, con.cost_vector
        )
        q = oracle.exact_q(log_utility, scen, k, np.zeros(scen.n), con.cost_vector)
        assert val == pytest.approx(float(p_star @ q), abs=1e-9)
        assert dp.contains(amb, p_star, tol=1e-7)


def test_inner_worst_case_probes_a_scenario_outside_the_domain(log_utility):
    # k = 2 takes scenario 0 to a portfolio return of -1.2, outside the log
    # domain; the value is -inf only when the polytope can weight it
    scen = dp.ScenarioSet.uniform([[-0.6], [0.1], [0.2]])
    k, k_prev = np.array([2.0]), np.zeros(1)
    pinned = dp.PolyhedralAmbiguitySet(
        A0=[[1.0, 0.0, 0.0]], d0=[0.0], A1=np.zeros((0, 3)), d1=np.zeros(0),
        m=3)
    value, p = oracle.inner_worst_case(k, k_prev, scen, pinned, log_utility)
    assert value == pytest.approx(math.log(1.2), rel=1e-12)
    np.testing.assert_allclose(p, [0.0, 1.0, 0.0], atol=1e-12)
    value, _ = oracle.inner_worst_case(
        k, k_prev, scen, dp.from_gamma(scen.probabilities, 0.3), log_utility)
    assert value == -math.inf


def test_worst_case_probes_every_scenario_outside_the_domain(log_utility):
    # k = 1.2 takes scenarios 0 and 1 to -0.08, outside the log domain;
    # gamma 0 pins p to p_hat, which weights scenario 1 but not scenario 0
    X = np.array([[-0.9], [-0.9], [0.1]])
    p_hat = np.array([0.0, 0.5, 0.5])
    scen = dp.ScenarioSet(scenarios=X, probabilities=p_hat,
                          x_min=X.min(axis=0), x_max=X.max(axis=0))
    amb = dp.from_gamma(p_hat, 0.0)
    k, k_prev = np.array([1.2]), np.zeros(1)
    q = oracle.exact_q(log_utility, scen, k, k_prev, np.zeros(1))
    assert q[0] == q[1] == -np.inf
    value, p = oracle.inner_worst_case(k, k_prev, scen, amb, log_utility)
    assert value == -math.inf
    assert p[1] == pytest.approx(0.5, abs=1e-9)
    assert amb.worst_case(q) == -math.inf
    assert oracle.contamination_worst_case(p_hat, 0.0, q) == -math.inf


def test_duality_gap_small_at_optimum_and_grows_off_it(log_utility):
    rng = np.random.default_rng(8)
    scen, _, con = oracle.random_small_instance(rng, cost_rate=0.0)
    amb = dp.from_gamma(scen.probabilities, 0.3)
    sol, _, _ = robust_lp.rebalance(scen, amb, con, log_utility,
                                    dp.ErrorBudget(5e-8, 5e-8), np.zeros(scen.n))
    gap = oracle.duality_gap(sol.weights, sol, scen, amb, log_utility)
    assert 0.0 <= gap <= 1e-6 + 1e-7
    # corrupt the inequality multipliers: weak duality still holds, so the
    # certified bound moves away from the primal value and the gap grows
    bumped = dataclasses.replace(sol, lam=sol.lam + 0.05)
    gap_bad = oracle.duality_gap(bumped.weights, bumped, scen, amb, log_utility)
    assert gap_bad > gap + 1e-4


def exact_small_solve_by_meshgrid(scen, amb, con, k_prev, u):
    """Reference scan: the whole grid as one (points x n) meshgrid array."""
    k_prev = np.asarray(k_prev, dtype=float)
    lev = con.leverage
    axes = []
    for i in range(scen.n):
        lo = -lev if con.allow_short else 0.0
        hi = lev
        if con.holding_caps is not None:
            lo = max(lo, -float(con.holding_caps[i]) if con.allow_short else 0.0)
            hi = min(hi, float(con.holding_caps[i]))
        axes.append(oracle._axis_values(lo, hi, oracle.GRID_STEP))
    mesh = np.meshgrid(*axes, indexing="ij")
    K = np.stack([g.ravel() for g in mesh], axis=1)
    feas = np.abs(K).sum(axis=1) <= lev + 1e-12
    down = np.abs(np.minimum(0.0, scen.x_min))
    up = np.maximum(0.0, scen.x_max)
    feas &= (
        np.maximum(K, 0.0) @ down + np.maximum(-K, 0.0) @ up
    ) <= 1.0 + 1e-12
    costs = np.abs(K - k_prev[None, :]) @ con.cost_vector
    feas &= costs <= con.turnover_cost_limit + 1e-12
    K = K[feas]
    costs = costs[feas]
    if K.shape[0] == 0:
        raise ValueError("no feasible grid point")
    best_val = -math.inf
    best_k = None
    Xt = scen.scenarios.T
    chunk = max(1, int(2_000_000 // max(1, scen.m)))
    for s in range(0, K.shape[0], chunk):
        Kc = K[s : s + chunk]
        cc = costs[s : s + chunk]
        rets = Kc @ Xt
        valid = (rets > -1.0).all(axis=1) & (cc < 1.0)
        if not np.any(valid):
            continue
        vals = np.full(Kc.shape[0], -np.inf)
        rv = rets[valid]
        q = u.alpha * u.phi1(rv) + u.beta * u.phi2(cc[valid])[:, None]
        if amb.floor is not None:
            inner = q @ amb.floor + (1.0 - amb.floor.sum()) * q.min(axis=1)
        else:
            inner = np.array([amb.lp_worst_case(row)[0] for row in q])
        vals[valid] = inner
        t = int(np.argmax(vals))
        if vals[t] > best_val:
            best_val = float(vals[t])
            best_k = Kc[t].copy()
    if best_k is None:
        raise ValueError("every feasible grid point left the utility domain")
    value, _ = oracle.inner_worst_case(best_k, k_prev, scen, amb, u, con.cost_vector)
    return best_k, value


def test_exact_small_solve_recovers_kelly(kelly_instance, log_utility):
    scen, amb, con = kelly_instance
    ks, val = oracle.exact_small_solve(scen, amb, con, np.zeros(1), log_utility)
    assert ks[0] == pytest.approx(5.0, abs=1e-3)
    v_manual = 0.5 * math.log1p(0.5) + 0.5 * math.log1p(-0.25)
    assert val == pytest.approx(v_manual, abs=1e-6)


def test_exact_small_solve_respects_symmetry(log_utility):
    # two identical assets: any split along kp[0]+kp[1]=const is optimal.
    # The leverage cap of 2 binds below the growth-optimal total of 5, so
    # the value is the one-asset objective at k=2.
    X2 = np.array([[0.1, 0.1], [-0.05, -0.05]])
    scen2 = dp.ScenarioSet(
        scenarios=X2,
        probabilities=np.array([0.5, 0.5]),
        x_min=X2.min(axis=0),
        x_max=X2.max(axis=0),
    )
    amb2 = dp.from_gamma(scen2.probabilities, 0.0)
    con2 = robust_lp.TradingConstraintSet.uniform(
        2, leverage=2.0, cost_rate=0.0, turnover_cost_limit=0.0
    )
    ks, val = oracle.exact_small_solve(
        scen2, amb2, con2, np.zeros(2), log_utility
    )
    assert ks.sum() == pytest.approx(2.0, abs=2e-3)
    v_manual = 0.5 * math.log1p(0.2) + 0.5 * math.log1p(-0.1)
    assert val == pytest.approx(v_manual, abs=1e-6)


def test_exact_small_solve_complexity_guard(log_utility):
    X = np.tile(np.array([[0.1, -0.05, 0.02, 0.01]]), (3, 1)).T
    scen = dp.ScenarioSet(
        scenarios=np.tile(X[:, :1], (1, 4)),
        probabilities=np.full(4, 0.25),
        x_min=np.full(4, -0.05),
        x_max=np.full(4, 0.1),
    )
    amb = dp.from_gamma(scen.probabilities, 0.0)
    con = robust_lp.TradingConstraintSet.uniform(
        4, leverage=1.5, cost_rate=0.0, turnover_cost_limit=0.0
    )
    with pytest.raises(ComplexityError):
        oracle.exact_small_solve(scen, amb, con, np.zeros(4), log_utility)


def _small_grid_instances():
    """48 instances over n, shorting, holding caps, costs and gamma.

    n = 1 draws returns with a strong drift and bounds widened by 0.1,
    so the uncapped optimum sits on the survival bound.  At n = 2 every
    grid is capped to keep the dense reference cheap; the long-only caps
    (0.6, 0.5) let the leverage bound of 1 bind.
    """
    rng = np.random.default_rng(20)
    caps = {
        (1, True): (None, np.array([2.4])),
        (1, False): (None, np.array([2.4])),
        (2, True): (np.array([0.2, 0.2]), np.array([0.15, 0.3])),
        (2, False): (np.array([0.6, 0.5]), np.array([0.2, 0.2])),
    }
    for n, short, cost, gamma in itertools.product(
        (1, 2), (True, False), (0.0, 0.002), (0.0, 0.3, 1.0)
    ):
        for cap in caps[n, short]:
            m = int(rng.integers(2, 21))
            if n == 1:
                X = rng.uniform(-0.05, 0.2, size=(m, n))
                widen = 0.1
            else:
                X = rng.uniform(-0.15, 0.18, size=(m, n))
                widen = 0.0
            scen = dp.ScenarioSet(
                scenarios=X,
                probabilities=np.full(m, 1.0 / m),
                x_min=X.min(axis=0) - widen,
                x_max=X.max(axis=0) + widen,
            )
            lev = 8.0 if n == 1 else 1.0
            k_prev = np.zeros(n)
            if cost:
                k_prev = rng.uniform(-0.1 if short else 0.0, 0.1, size=n)
            con = robust_lp.TradingConstraintSet.uniform(
                n, leverage=lev, cost_rate=cost, turnover_cost_limit=cost * lev,
                holding_caps=cap, allow_short=short,
            )
            yield scen, dp.from_gamma(scen.probabilities, gamma), con, k_prev


def _leverage_cut_instances():
    """12 instances whose leverage bound of 1 cuts through capped grids.

    At n = 3 the leading cells form a 2-D grid, and the long last axis
    is trimmed at both ends of a row with shorting, at the upper end
    without.  The long-only caps are asymmetric.
    """
    rng = np.random.default_rng(21)
    shapes = (
        (3, True, np.array([0.005, 0.005, 0.995])),
        (3, False, np.array([0.02, 0.01, 0.985])),
        (2, False, np.array([0.9, 0.15])),
    )
    for (n, short, cap), cost, gamma in itertools.product(
        shapes, (0.0, 0.002), (0.0, 0.3)
    ):
        m = int(rng.integers(2, 21))
        X = rng.uniform(-0.15, 0.18, size=(m, n))
        scen = dp.ScenarioSet(
            scenarios=X,
            probabilities=np.full(m, 1.0 / m),
            x_min=X.min(axis=0),
            x_max=X.max(axis=0),
        )
        k_prev = np.zeros(n)
        if cost:
            k_prev = rng.uniform(-0.01 if short else 0.0, 0.01, size=n)
        con = robust_lp.TradingConstraintSet.uniform(
            n, leverage=1.0, cost_rate=cost, turnover_cost_limit=cost,
            holding_caps=cap, allow_short=short,
        )
        yield scen, dp.from_gamma(scen.probabilities, gamma), con, k_prev


def test_exact_small_solve_matches_the_meshgrid_scan(kelly_instance, log_utility):
    scen, amb, _ = kelly_instance
    # leverage 25 puts K = 20 on the grid: on the survival bound, with a
    # scenario return of exactly -1 that the domain mask must drop
    edge = robust_lp.TradingConstraintSet.uniform(
        1, leverage=25.0, cost_rate=0.0, turnover_cost_limit=0.0
    )
    grids = [*_small_grid_instances(), *_leverage_cut_instances()]
    instances = [(*grid, log_utility) for grid in grids]
    instances.append((scen, amb, edge, np.zeros(1), log_utility))
    # the instances with costs and a nonzero k_prev again under power and
    # crra, whose slope bounds have a cost leg of their own
    for kind in (dp.SeparableUtility("power", delta=0.5),
                 dp.SeparableUtility("crra", theta=3.0)):
        instances += [(*grid, kind) for grid in grids
                      if np.any(grid[2].cost_vector) and np.any(grid[3])]
    for scen, amb, con, k_prev, u in instances:
        k, value = oracle.exact_small_solve(scen, amb, con, k_prev, u)
        k_ref, value_ref = exact_small_solve_by_meshgrid(scen, amb, con, k_prev, u)
        assert np.array_equal(k, k_ref) and value == value_ref
    assert len(instances) == 121


def test_pruned_scan_matches_the_unpruned_scan(monkeypatch, log_utility):
    # an infinite slope bound drops no cell, so the scan visits every
    # point of the leverage ball
    draws = [draw for seed in range(4) for draw in oracle._approximation_draws(seed)]
    rng = np.random.default_rng(5)  # the draws of acceptance criterion 5
    draws += [oracle.random_small_instance(rng, n_max=2, m_max=10, cost_rate=0.0)
              for _ in range(20)]

    def scan():
        return [oracle.exact_small_solve(scen, amb, con, np.zeros(scen.n),
                                         log_utility)
                for scen, amb, con in draws]

    pruned = scan()
    monkeypatch.setattr(oracle, "_lipschitz_bound", lambda *args: math.inf)
    for (k, value), (k_full, value_full) in zip(pruned, scan()):
        assert np.array_equal(k, k_full) and value == value_full
    assert len(draws) == 44


@pytest.mark.parametrize("m", [2, 8, 20])
def test_exact_small_solve_peak_memory(m, log_utility, monkeypatch):
    # 3001 x 3001 grid: built whole with its temporaries it takes 627 MiB
    rng = np.random.default_rng(m)
    X = rng.uniform(-0.15, 0.18, size=(m, 2))
    scen = dp.ScenarioSet(
        scenarios=X,
        probabilities=np.full(m, 1.0 / m),
        x_min=X.min(axis=0),
        x_max=X.max(axis=0),
    )
    amb = dp.from_gamma(scen.probabilities, 0.3)
    con = robust_lp.TradingConstraintSet.uniform(
        2, leverage=1.5, cost_rate=0.0, turnover_cost_limit=0.0
    )
    scanned = []
    real = oracle._grid_values
    monkeypatch.setattr(oracle, "_grid_values", lambda idx, *args: (
        scanned.append(idx.shape[1]) or real(idx, *args)))
    tracemalloc.start()
    try:
        oracle.exact_small_solve(scen, amb, con, np.zeros(2), log_utility)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20
    # the slope bound prunes all but a few of the 3001^2 points
    assert sum(scanned) < 0.05 * 3001**2


def test_exact_small_solve_grid_cap(log_utility):
    X = np.array([[0.1, -0.05, 0.02], [-0.04, 0.08, 0.01]])
    scen = dp.ScenarioSet(
        scenarios=X,
        probabilities=np.full(2, 0.5),
        x_min=X.min(axis=0),
        x_max=X.max(axis=0),
    )
    amb = dp.from_gamma(scen.probabilities, 0.0)
    con = robust_lp.TradingConstraintSet.uniform(
        3, leverage=1.5, cost_rate=0.0, turnover_cost_limit=0.0
    )
    tracemalloc.start()
    try:
        # 3001^3 points: refused from the axis sizes alone
        with pytest.raises(ComplexityError, match="exceeds the cap"):
            oracle.exact_small_solve(scen, amb, con, np.zeros(3), log_utility)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_exact_small_solve_per_point_lp_matches_closed_form(log_utility):
    X = np.array([[0.12], [-0.10], [0.09], [-0.04], [0.06]])
    m = X.shape[0]
    scen = dp.ScenarioSet(
        scenarios=X,
        probabilities=np.full(m, 1.0 / m),
        x_min=X.min(axis=0),
        x_max=X.max(axis=0),
    )
    gamma = 0.2
    closed = dp.from_gamma(scen.probabilities, gamma)
    # the same polytope with the redundant row 1'p <= 1, so not a floor
    # set: one LP per grid point
    general = dp.PolyhedralAmbiguitySet(
        A0=np.zeros((0, m)), d0=np.zeros(0),
        A1=np.vstack([-np.eye(m), np.ones(m)]),
        d1=np.append(-(1.0 - gamma) * scen.probabilities, 1.0), m=m,
    )
    assert general.floor is None
    con = robust_lp.TradingConstraintSet.uniform(
        1, leverage=1.0, cost_rate=0.0, turnover_cost_limit=0.0,
        allow_short=False,
    )
    k_lp, value_lp = oracle.exact_small_solve(
        scen, general, con, np.zeros(1), log_utility
    )
    k_cf, value_cf = oracle.exact_small_solve(
        scen, closed, con, np.zeros(1), log_utility
    )
    assert 0.0 < k_cf[0] < 1.0  # interior, so the scan decides it
    assert np.array_equal(k_lp, k_cf)
    assert value_lp == pytest.approx(value_cf, abs=1e-12)


def test_concavity_probe_clean(log_utility):
    rng = np.random.default_rng(10)
    scen, amb, con = oracle.random_small_instance(rng, cost_rate=0.002)
    report = oracle.concavity_probe(
        log_utility, scen, trials=200, seed=3, con=con
    )
    assert report["passed"]
    assert report["violation_count"] == 0
    assert report["trials"] == 200


def test_survival_probe_clean(log_utility):
    rng = np.random.default_rng(14)
    scen, _, con = oracle.random_small_instance(rng, cost_rate=0.002)
    report = oracle.survival_probe(scen, con, trials=500, seed=11)
    assert report["passed"]
    assert report["violation_count"] == 0


def _first_violation_holds_python_scalars(report):
    # verify.json prints the repr of each violation's floats and ints
    assert "np.float64(" not in report["violations"][0]
    assert "np.int64(" not in report["violations"][0]


def test_concavity_probe_reports_a_convex_objective():
    class Convex:
        def eval_f(self, x, c):
            return np.square(x) + np.square(c)

    report = oracle.concavity_probe(Convex(), oracle._make_probe_scenarios(3),
                                    trials=200, seed=1)
    assert report["trials"] == 200
    assert report["violation_count"] > 0
    assert not report["passed"]
    _first_violation_holds_python_scalars(report)


def test_survival_probe_reports_weights_beyond_the_exposure_bound(monkeypatch):
    # a sampler that ignores the exposure bound: fully long asset 0, whose
    # -0.9 scenario then loses 1.35 of the account
    X = np.array([[-0.9, 0.05], [0.1, 0.02], [0.05, -0.01]])
    scen = dp.ScenarioSet.uniform(X)
    con = robust_lp.TradingConstraintSet.uniform(
        2, leverage=1.5, cost_rate=0.0, turnover_cost_limit=0.0)
    monkeypatch.setattr(
        oracle, "_sample_feasible_weights",
        lambda rng, scen, con, count: np.tile([con.leverage, 0.0], (count, 1)))
    report = oracle.survival_probe(scen, con, trials=500, seed=2)
    assert report["trials"] == 500
    assert report["violation_count"] > 0
    assert not report["passed"]
    _first_violation_holds_python_scalars(report)


def test_probes_return_their_verify_report(log_utility):
    # the probes' dicts are the verify.json entries, unchanged
    seed = 3
    suites = oracle.run_all(seed, suites=("concavity", "survivability"))["suites"]
    scen = oracle._make_probe_scenarios(seed)
    log = oracle.concavity_probe(log_utility, scen, 300, seed=seed)
    power = oracle.concavity_probe(dp.SeparableUtility("power", delta=0.5), scen,
                                   300, seed=seed + 1)
    con = robust_lp.TradingConstraintSet.uniform(
        3, leverage=1.5, cost_rate=0.005, turnover_cost_limit=0.5)
    survival = oracle.survival_probe(oracle._make_probe_scenarios(seed + 7), con,
                                     1000, seed=seed)
    for report in (log, power, survival):
        assert isinstance(report, dict)
    assert suites["concavity"]["log"] == log
    assert suites["concavity"]["power"] == power
    assert suites["survivability"] == survival


def test_verify_suites_pass(log_utility):
    results = oracle.run_all(seed=5, suites=("duality", "inner"))
    assert results["passed"]
    assert set(results["suites"]) == {"duality", "inner"}
    assert all(r["passed"] for r in results["suites"].values())


def test_verify_fault_injection_detects(monkeypatch):
    # the suite looks rebalance up on the module, so it checks these planes
    real = robust_lp.rebalance
    monkeypatch.setattr(robust_lp, "rebalance",
                        lambda *a, **k: with_negated_intercepts(real(*a, **k)))
    results = oracle.run_all(seed=5, suites=("approximation",))
    rep = results["suites"]["approximation"]
    assert not results["passed"]
    assert not rep["passed"]
    assert any("tangency" in str(f) for f in rep["failures"])


def test_random_instance_shapes():
    rng = np.random.default_rng(0)
    for _ in range(10):
        scen, amb, con = oracle.random_small_instance(rng, cost_rate=0.001)
        assert 1 <= scen.n <= 5
        assert 2 <= scen.m <= 20
        assert scen.scenarios.shape == (scen.m, scen.n)
        assert dp.contains(amb, scen.probabilities)
        assert con.leverage >= 1.0
