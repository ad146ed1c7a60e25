"""Acceptance gate: the ten external criteria for this package.

Each test prints one ``[criterion N] PASS`` or ``FAIL`` line.  The
tolerances and runtime limits here are contractual; loosening them is
not an option.
"""

import os
import time

import numpy as np

from dro_portfolio import backtest as bt
from dro_portfolio import robust_lp
from dro_portfolio.ambiguity import from_gamma
from dro_portfolio.data import (
    ScenarioSet,
    append_risk_free,
    build_scenario_set,
    compute_returns,
    interpolate_missing,
    load_prices,
)
from dro_portfolio.oracle import (
    GRID_STEP,
    concavity_probe,
    duality_gap,
    exact_small_solve,
    random_small_instance,
    survival_probe,
)
from dro_portfolio.partition import (
    ErrorBudget,
    build_family,
    certify_error,
    crossing_point,
    next_point_general,
    next_point_log,
    removal_experiment,
    tangent_error,
)
from dro_portfolio.robust_lp import TradingConstraintSet
from dro_portfolio.utility import SeparableUtility

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "two_regime.csv")

# reference box for the tangent-family table: returns to +/-20%, costs to 2%
X_LO, X_HI, C_HI = -0.2, 0.2, 0.02


def _report(criterion: int, ok: bool, detail: str = ""):
    suffix = f" {detail}" if detail else ""
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def _robust_solve(u, scen, amb, con, eps_x, eps_c):
    sol, model, _ = robust_lp.rebalance(
        scen, amb, con, u, ErrorBudget(eps_x, eps_c), np.zeros(scen.n)
    )
    return sol, model


def _load_market():
    series = interpolate_missing(load_prices(FIXTURE))
    returns = compute_returns(series)
    return append_risk_free(returns, 0.02, 252)


def test_criterion_1_tangent_family_table():
    start = time.perf_counter()
    u = SeparableUtility("log")
    ok = True
    for eps_x, eps_c in ((1e-5, 1e-5), (1.5e-5, 5e-6), (8e-6, 1.2e-5)):
        fam = build_family(u, X_LO, X_HI, 0.0, C_HI, ErrorBudget(eps_x, eps_c))
        if (eps_x, eps_c) == (1e-5, 1e-5):
            sup_x, sup_c, _ = certify_error(u, fam, grid=1000)
            ok &= sup_x <= 1.02e-5
            ok &= sup_c <= 1.02e-5
        for axis, pts, eps in (("x", fam.x_points, eps_x),
                               ("c", fam.c_points, eps_c)):
            # every interior plane whose two flanking intervals carry a
            # full budget; the one touching the clamped final interval
            # merges a partial interval and sits below 4*eps by design
            new_sups = removal_experiment(u, fam, axis)
            for idx in range(1, pts.size - 2):
                new_sup = new_sups[idx - 1]
                ok &= abs(new_sup - 4.0 * eps) <= 0.15 * 4.0 * eps
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _report(1, bool(ok), f"(runtime {elapsed:.2f}s)")


def test_criterion_2_error_separability():
    start = time.perf_counter()
    u = SeparableUtility("log")
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(3):
        eps_x = 10.0 ** rng.uniform(-5.0, -3.5)
        eps_c = 10.0 ** rng.uniform(-5.5, -4.0)
        fam = build_family(u, X_LO, X_HI, 0.0, C_HI, ErrorBudget(eps_x, eps_c))
        sup_x, sup_c, sup_joint = certify_error(u, fam, grid=1000)
        worst = max(worst, abs(sup_joint - (sup_x + sup_c)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(2, bool(ok), f"(gap {worst:.2e}, runtime {elapsed:.2f}s)")


def test_criterion_3_partition_consistency():
    u = SeparableUtility("log")
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(100):
        x_p = float(rng.uniform(-0.6, 1.0))
        eps = float(10.0 ** rng.uniform(-6.0, -3.0))
        general = next_point_general(u, x_p, eps, axis="x")
        ok &= abs(general - next_point_log(x_p, eps)) <= 1e-10
    for _ in range(100):
        c_q = float(rng.uniform(0.0, 0.5))
        eps = float(10.0 ** rng.uniform(-6.0, -3.0))
        general = next_point_general(u, c_q, eps, axis="c")
        ok &= abs(general - next_point_log(c_q, eps, "c")) <= 1e-10

    # certified error of each generated interval: the interior ones sit
    # exactly on their budget, the clamped final one may only undershoot
    fam = build_family(u, X_LO, X_HI, 0.0, C_HI, ErrorBudget(1e-5, 1e-5))
    for axis, pts in (("x", fam.x_points), ("c", fam.c_points)):
        for i in range(pts.size - 1):
            star = crossing_point(u, pts[i], pts[i + 1], axis)
            err = float(tangent_error(u, pts[i], star, axis))
            if i < pts.size - 2:
                ok &= abs(err - 1e-5) <= 1e-9
            else:
                ok &= err <= 1e-5 + 1e-9
    _report(3, bool(ok))


def test_criterion_4_duality_gap():
    start = time.perf_counter()
    u = SeparableUtility("log")
    rng = np.random.default_rng(4)
    budget = 1e-8
    worst = 0.0
    ok = True
    for _ in range(50):
        scen, amb, con = random_small_instance(rng, n_max=5, m_max=20)
        sol, model = _robust_solve(u, scen, amb, con,
                                   eps_x=budget / 2, eps_c=budget / 2)
        ok &= sol.status == "optimal"
        k, _ = robust_lp.extract_weights(sol, model.layout)
        gap = duality_gap(k, sol, scen, amb, u)
        worst = max(worst, gap)
        ok &= gap <= 1e-6 + budget
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _report(4, bool(ok), f"(worst gap {worst:.2e}, runtime {elapsed:.2f}s)")


def test_criterion_5_exact_sandwich():
    start = time.perf_counter()
    u = SeparableUtility("log")
    rng = np.random.default_rng(5)
    ok = True
    for i in range(20):
        scen, amb, con = random_small_instance(rng, n_max=2, m_max=10,
                                               cost_rate=0.0)
        eps = 1e-3 if i % 2 == 0 else 1e-5
        sol, _ = _robust_solve(u, scen, amb, con, eps_x=eps, eps_c=1e-6)
        ok &= sol.status == "optimal"
        _, exact_val = exact_small_solve(scen, amb, con, np.zeros(scen.n), u)
        maxabs = float(np.abs(scen.scenarios).max())
        # worst-case objective gradient bound over the leverage ball
        lipschitz = scen.n * maxabs / (1.0 - con.leverage * maxabs)
        ok &= exact_val - 1e-9 <= sol.objective
        ok &= sol.objective <= exact_val + eps + 2.0 * GRID_STEP * lipschitz
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _report(5, bool(ok), f"(runtime {elapsed:.2f}s)")


def test_criterion_6_survivability():
    rng = np.random.default_rng(6)
    trials = 0
    violations = 0
    for _ in range(10):
        scen, _, con = random_small_instance(rng, cost_rate=0.002)
        rep = survival_probe(scen, con, trials=1000,
                             seed=int(rng.integers(2 ** 31)))
        trials += rep.trials
        violations += len(rep.violations)
    ok = trials == 10_000 and violations == 0
    _report(6, bool(ok), f"({trials} triples, {violations} violations)")


def test_criterion_7_scale_runtime():
    rng = np.random.default_rng(7)
    n, m = 478, 126
    X = rng.normal(5e-4, 0.02, size=(m, n))
    scen = ScenarioSet(
        scenarios=X,
        probabilities=np.full(m, 1.0 / m),
        x_min=X.min(axis=0),
        x_max=X.max(axis=0),
    )
    con = TradingConstraintSet.uniform(
        n, leverage=1.5, cost_rate=0.001, turnover_cost_limit=C_HI
    )
    amb = from_gamma(scen.probabilities, 0.3)
    u = SeparableUtility("log")
    start = time.perf_counter()
    sol, _ = _robust_solve(u, scen, amb, con, eps_x=1e-3, eps_c=1e-5)
    elapsed = time.perf_counter() - start
    ok = sol.status == "optimal" and elapsed <= 60.0
    _report(7, bool(ok), f"(n={n}, m={m} solved in {elapsed:.2f}s)")


def test_criterion_8_zero_cost_reduction():
    data = _load_market()
    u = SeparableUtility("log")
    config = bt.BacktestConfig(
        train_window=60,
        rebalance_every=20,
        leverage=1.5,
        cost_rate=0.0,
        turnover_cost_limit=C_HI,
        gamma=0.0,
        eps_x=1e-3,
        eps_c=1e-5,
        utility=u,
        risk_free_annual=0.02,
        periods_per_year=252,
        allow_short=False,
    )
    path, _ = bt.run(config, data)

    # independent pass: the LP keeps its cost model (tangent planes over
    # the whole cost interval) while the cost vector itself is zero
    n, T = data.returns.shape
    con = TradingConstraintSet.uniform(
        n, leverage=1.5, cost_rate=0.0, turnover_cost_limit=C_HI,
        allow_short=False,
    )
    zero_cost = np.zeros(n)
    values = [1.0]
    k_prev = np.zeros(n)
    t = config.train_window
    while t < T:
        scen = build_scenario_set(data, (t - config.train_window, t))
        maxabs = float(np.abs(scen.scenarios).max())
        x_hi = con.leverage * maxabs
        x_lo = max(-1.0 + 1e-6, -x_hi)
        fam = build_family(u, x_lo, x_hi, 0.0, C_HI, ErrorBudget(1e-3, 1e-5))
        model = robust_lp.assemble(
            scen, fam, from_gamma(scen.probabilities, 0.0), con, k_prev
        )
        sol = robust_lp.solve(model)
        assert sol.status == "optimal"
        k, _ = robust_lp.extract_weights(sol, model.layout)
        for s in range(t, min(t + config.rebalance_every, T)):
            values.append(
                bt.account_step(values[-1], k, k_prev, data.returns[:, s],
                                zero_cost)
            )
            k_prev = k
        t = min(t + config.rebalance_every, T)
    values = np.array(values)
    ok = values.size == path.values.size
    worst = float(np.abs(path.values - values).max()) if ok else np.inf
    ok &= worst <= 1e-12
    _report(8, bool(ok), f"(worst account gap {worst:.2e})")


def test_criterion_9_trend_reproduction():
    data = _load_market()
    u = SeparableUtility("log")
    base = dict(
        train_window=60,
        rebalance_every=20,
        leverage=1.5,
        eps_x=1e-3,
        eps_c=1e-5,
        utility=u,
        risk_free_annual=0.02,
        periods_per_year=252,
        allow_short=False,
    )
    risky = np.ones(data.returns.shape[0], dtype=bool)
    risky[data.risk_free_index] = False

    cums = []
    for rate in (0.0, 0.001, 0.005, 0.01):
        config = bt.BacktestConfig(
            cost_rate=rate,
            turnover_cost_limit=2.0 * base["leverage"] * rate,
            gamma=0.0,
            **base,
        )
        _, report = bt.run(config, data)
        cums.append(report.cumulative_return)

    invested, max_single = [], []
    for gamma in (0.0, 0.25, 0.5, 1.0):
        config = bt.BacktestConfig(
            cost_rate=0.0, turnover_cost_limit=0.0, gamma=gamma, **base
        )
        path, report = bt.run(config, data)
        invested.append(report.avg_invested_weight)
        max_single.append(max(float(w[risky].max()) for w in path.weights))

    def non_increasing(seq):
        return all(b <= a + 1e-9 for a, b in zip(seq, seq[1:]))

    ok = non_increasing(cums)
    ok &= non_increasing(invested)
    ok &= non_increasing(max_single)
    detail = (
        f"(return vs cost {['%.2f' % c for c in cums]}, "
        f"invested vs gamma {['%.3f' % v for v in invested]}, "
        f"max weight vs gamma {['%.3f' % v for v in max_single]})"
    )
    _report(9, bool(ok), detail)


def test_criterion_10_concavity_probe():
    rng = np.random.default_rng(10)
    scen, _, _ = random_small_instance(rng, n_max=4, m_max=15)
    ok = True
    total = 0
    for u in (SeparableUtility("log"), SeparableUtility("power", delta=0.5)):
        rep = concavity_probe(u, scen, trials=1000, seed=11)
        total += rep.trials
        ok &= rep.passed and not rep.violations
    _report(10, bool(ok), f"({total} trials, zero violations required)")
