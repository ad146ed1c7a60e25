"""Backtest engine: account recursion, metrics, cost accounting, benchmarks."""
import dataclasses
import json

import numpy as np
import pytest

from dro_portfolio import backtest, cli, data as data_mod, robust_lp
from dro_portfolio.utility import SeparableUtility

from conftest import TWO_REGIME_CSV, backtest_config, crash_market, \
    with_contradictory_leverage
from reference_lp import assemble_product


def constant_market(r=0.002, n=2, T=120):
    returns = np.full((n, T), r)
    return data_mod.ReturnMatrix(returns=returns, tickers=("A", "B"))


def test_account_step_formula():
    v = backtest.account_step(
        2.0,
        np.array([0.5, -0.2]),
        np.array([0.1, 0.0]),
        np.array([0.04, -0.02]),
        np.array([0.001, 0.001]),
    )
    growth = 1.0 + 0.5 * 0.04 + (-0.2) * (-0.02)
    haircut = 1.0 - (0.4 * 0.001 + 0.2 * 0.001)
    assert v == pytest.approx(2.0 * growth * haircut, rel=1e-14)


def test_account_step_rejects_negative_wealth():
    with pytest.raises(backtest.BacktestError,
                       match="^portfolio return -1.8 and cost fraction 0 "):
        backtest.account_step(
            1.0,
            np.array([2.0]),
            np.array([0.0]),
            np.array([-0.9]),
            np.array([0.0]),
        )


def test_constant_market_matches_closed_form(log_utility):
    # constant returns, zero cost, no ambiguity: V(T)/V(0) = (1+K'r)^T
    rets = constant_market(r=0.002, T=100)
    cfg = backtest_config(
        train_window=30,
        rebalance_every=10,
        leverage=1.5,
        cost_rate=0.0,
        turnover_cost_limit=0.0,
        gamma=0.0,
        eps_x=1e-6,
        eps_c=1e-6,
        utility=log_utility,
    )
    path, rep = backtest.run(cfg, rets)
    k0 = path.weights[0]
    per = float(k0 @ rets.returns[:, 0])
    T_live = rets.returns.shape[1] - cfg.train_window
    assert path.values[-1] == pytest.approx((1.0 + per) ** T_live, rel=1e-10)
    assert rep.cumulative_return == pytest.approx(
        (1.0 + per) ** T_live - 1.0, rel=1e-10
    )


def test_deterministic_repeat_runs(two_regime_returns, log_utility):
    cfg = backtest_config(
        train_window=60,
        rebalance_every=40,
        leverage=1.5,
        cost_rate=0.001,
        turnover_cost_limit=0.01,
        gamma=0.25,
        eps_x=1e-5,
        eps_c=1e-5,
        utility=log_utility,
    )
    p1, _ = backtest.run(cfg, two_regime_returns)
    p2, _ = backtest.run(cfg, two_regime_returns)
    np.testing.assert_array_equal(p1.values, p2.values)
    for w1, w2 in zip(p1.weights, p2.weights):
        np.testing.assert_array_equal(w1, w2)


def test_infeasible_rebalance_names_period_row_and_section(
        two_regime_returns, log_utility, monkeypatch):
    real = robust_lp.assemble
    monkeypatch.setattr(robust_lp, "assemble",
                        lambda *a: with_contradictory_leverage(real(*a)))
    cfg = backtest_config(
        train_window=60, rebalance_every=20, leverage=1.5, cost_rate=0.001,
        turnover_cost_limit=0.02, gamma=0.25, eps_x=1e-3, eps_c=1e-5,
        utility=log_utility,
    )
    n = two_regime_returns.returns.shape[0]
    sol, model, _ = backtest.solve_rebalance(cfg, two_regime_returns, 60,
                                             np.zeros(n))
    lo, hi = model.row_sections["leverage"]
    assert sol.status == "infeasible"
    assert lo <= sol.certificate_row < hi
    with pytest.raises(backtest.BacktestError) as err:
        backtest.run(cfg, two_regime_returns)
    assert str(err.value) == (
        "rebalance at period 60 failed with status infeasible; "
        f"certificate row {lo} in section leverage"
    )


def test_zero_weights_are_positive_zeros(two_regime_returns, log_utility):
    # at gamma 1 the long-only LP of the last window holds nothing, and
    # HiGHS gives some K+ at its bound as -0.0; no report may print -0.0
    cfg = backtest_config(
        train_window=60, rebalance_every=20, leverage=1.5, cost_rate=0.001,
        turnover_cost_limit=0.02, gamma=1.0, eps_x=1e-3, eps_c=1e-5,
        utility=log_utility, allow_short=False,
    )
    n, T = two_regime_returns.returns.shape
    sol, _, _ = backtest.solve_rebalance(cfg, two_regime_returns, T,
                                         np.zeros(n))
    assert sol.status == "optimal"
    np.testing.assert_array_equal(sol.weights, np.zeros(n))
    assert not np.signbit(sol.weights).any()


def crash_config(c_max, log_utility):
    return backtest_config(
        train_window=60, rebalance_every=20, leverage=1.5, cost_rate=0.001,
        turnover_cost_limit=c_max, gamma=0.3, eps_x=1e-3, eps_c=1e-5,
        utility=log_utility, allow_short=False,
    )


def test_rebalance_trades_out_of_weights_the_window_cannot_survive(
        log_utility):
    # k_prev = (0.75, 0.75) loses 105% in the window's crash; it only sets
    # the turnover rows, so the LP sells down to what the window survives
    k_prev = np.array([0.75, 0.75])
    sol, model, scen = backtest.solve_rebalance(
        crash_config(0.003, log_utility), crash_market(), 80, k_prev)
    assert sol.status == "optimal"
    assert sol.residual <= 1e-9
    k, diag = robust_lp.extract_weights(sol, model.layout)
    np.testing.assert_allclose(k, [0.0, 0.0], rtol=0, atol=1e-9)
    assert diag["turnover_cost"] == pytest.approx(0.0015, abs=1e-12)
    assert (1.0 + scen.scenarios @ k >= 0.0).all()


def test_rebalance_that_cannot_deleverage_is_an_infeasible_lp(log_utility):
    # a cost limit of 5e-5 lets the LP sell 0.05 of weight, and the 1.45
    # left loses 101.5% in the crash: no portfolio within the limit survives
    cfg = crash_config(5e-5, log_utility)
    sol, model, _ = backtest.solve_rebalance(cfg, crash_market(), 80,
                                             np.array([0.75, 0.75]))
    assert sol.status == "infeasible"
    lo, _ = model.row_sections["cost_limit"]
    assert backtest.failure_message(80, sol, model) == (
        "rebalance at period 80 failed with status infeasible; "
        f"certificate row {lo} in section cost_limit"
    )


def test_cannot_deleverage_from_the_previous_basis_is_still_infeasible(
        log_utility):
    # a looser cost limit makes the period-80 LP optimal without changing
    # its shape: a coarse eps_x keeps its 11 planes per scenario in one
    # whole solve, so the tight LP starts from that basis; the diagnosis
    # stays the same
    k_prev = np.array([0.75, 0.75])
    prev, _, _ = backtest.solve_rebalance(
        dataclasses.replace(crash_config(0.003, log_utility), eps_x=0.3),
        crash_market(), 80, k_prev)
    assert prev.status == "optimal"
    cfg = dataclasses.replace(crash_config(5e-5, log_utility), eps_x=0.3)
    sol, model, _ = backtest.solve_rebalance(cfg, crash_market(), 80, k_prev,
                                             prev.basis)
    m = model.b_eq.size
    assert model.row_sections["cuts_x"][1] <= robust_lp._WHOLE_MAX_L * m
    assert len(prev.basis.col_status) == model.layout.nv
    assert len(prev.basis.row_status) == model.n_rows + m
    cold, _, _ = backtest.solve_rebalance(cfg, crash_market(), 80, k_prev)
    assert sol.iterations < cold.iterations  # HiGHS took the basis
    assert sol.status == cold.status == "infeasible"
    lo, _ = model.row_sections["cost_limit"]
    assert backtest.failure_message(80, sol, model) == (
        "rebalance at period 80 failed with status infeasible; "
        f"certificate row {lo} in section cost_limit"
    )


def test_warm_started_run_matches_cold_rebalances(two_regime_returns,
                                                  log_utility):
    # run starts each LP from the previous basis; solve each one cold
    cfg = backtest_config(
        train_window=60, rebalance_every=20, leverage=1.5, cost_rate=0.001,
        turnover_cost_limit=0.02, gamma=0.25, eps_x=1e-3, eps_c=1e-5,
        utility=log_utility, allow_short=False,
    )
    path, _ = backtest.run(cfg, two_regime_returns)
    n = two_regime_returns.returns.shape[0]
    k_prevs = (np.zeros(n),) + path.weights[:-1]
    cold_iterations = 0
    for t, k_prev, k, objective in zip(path.rebalance_periods, k_prevs,
                                       path.weights, path.objectives):
        sol, _, _ = backtest.solve_rebalance(cfg, two_regime_returns, t, k_prev)
        assert objective == pytest.approx(sol.objective, rel=0, abs=1e-9)
        np.testing.assert_allclose(k, sol.weights, rtol=0, atol=1e-9)
        cold_iterations += sol.iterations
    assert len(path.iterations) == len(path.rebalance_periods) == 18
    assert sum(path.iterations) < cold_iterations


# the text a ruin at period 70 of the crash market reports
CRASH_RUIN = (
    "account ruined at period 70: portfolio return -1.05 and cost fraction 0 "
    "take the account below zero; the rebalance at period 60 bounds losses on "
    "its training window only"
)


def test_crash_beyond_the_training_window_is_a_ruin_at_its_period(
        log_utility):
    # with gamma 0 and zero cost the rebalance at 60 holds 1.5 of one asset,
    # which periods 0-59 never saw fall; the crash at 70 takes 105% of it
    cfg = dataclasses.replace(crash_config(0.0, log_utility), cost_rate=0.0,
                              gamma=0.0)
    sol, model, _ = backtest.solve_rebalance(cfg, crash_market(), 60,
                                             np.zeros(2))
    k, _ = robust_lp.extract_weights(sol, model.layout)
    assert k @ crash_market().returns[:, 70] == pytest.approx(-1.05, abs=1e-9)
    with pytest.raises(backtest.BacktestError) as err:
        backtest.run(cfg, crash_market())
    assert str(err.value) == CRASH_RUIN


def test_cost_charged_once_per_block(log_utility):
    # two rebalance blocks; charge appears in the first period of each block
    rets = constant_market(r=0.001, n=1, T=40)
    cfg = backtest_config(
        train_window=20,
        rebalance_every=10,
        leverage=1.5,
        cost_rate=0.01,
        turnover_cost_limit=0.03,
        gamma=0.0,
        eps_x=1e-6,
        eps_c=1e-6,
        utility=log_utility,
    )
    path, _ = backtest.run(cfg, rets)
    assert len(path.rebalance_periods) == 2
    k0 = path.weights[0]
    k1 = path.weights[1]
    growth = 1.0 + float(k0 @ rets.returns[:, 20])
    fee0 = 1.0 - 0.01 * float(np.abs(k0).sum())
    # first period of block 1 carries the fee, later periods only growth
    assert path.values[1] == pytest.approx(growth * fee0, rel=1e-12)
    assert path.values[2] == pytest.approx(path.values[1] * growth, rel=1e-12)
    # second block: fee on the weight change only
    fee1 = 1.0 - 0.01 * float(np.abs(k1 - k0).sum())
    assert path.values[11] == pytest.approx(
        path.values[10] * (1.0 + float(k1 @ rets.returns[:, 30])) * fee1,
        rel=1e-12,
    )
    assert path.costs_paid[0] == pytest.approx(
        0.01 * float(np.abs(k0).sum()) * 1.0, rel=1e-12
    )


def test_max_drawdown_oracle():
    path = backtest.AccountPath(
        values=np.array([1.0, 100.0, 50.0, 75.0]),
        start_period=0,
        rebalance_periods=(0,),
        weights=(np.array([0.0]),),
        turnover=(0.0,),
        costs_paid=(0.0,),
        objectives=(0.0,),
        solve_times=(0.0,),
        invested_weights=(0.0,),
    )
    rep = backtest.metrics(path, 252, 0.0)
    assert rep.max_drawdown == pytest.approx(0.5, abs=1e-12)


def test_sharpe_matches_hand_computation():
    values = np.array([1.0, 1.01, 1.005, 1.02, 1.015])
    path = backtest.AccountPath(
        values=values,
        start_period=0,
        rebalance_periods=(0,),
        weights=(np.array([0.0]),),
        turnover=(0.0,),
        costs_paid=(0.0,),
        objectives=(0.0,),
        solve_times=(0.0,),
        invested_weights=(0.0,),
    )
    ppy, rf = 252, 0.02
    rep = backtest.metrics(path, ppy, rf)
    rets = np.diff(values) / values[:-1]
    excess = rets - ((1.0 + rf) ** (1.0 / ppy) - 1.0)
    manual = excess.mean() / excess.std(ddof=1) * np.sqrt(ppy)
    assert rep.annualized_sharpe == pytest.approx(manual, rel=1e-12)


def test_sharpe_none_when_flat():
    values = np.ones(10)
    path = backtest.AccountPath(
        values=values,
        start_period=0,
        rebalance_periods=(0,),
        weights=(np.array([0.0]),),
        turnover=(0.0,),
        costs_paid=(0.0,),
        objectives=(0.0,),
        solve_times=(0.0,),
        invested_weights=(0.0,),
    )
    rep = backtest.metrics(path, 252, 0.0)
    assert rep.annualized_sharpe is None


def test_benchmark_buy_and_hold(two_regime_returns):
    bench = backtest.benchmark_buy_and_hold(two_regime_returns, start_period=60)
    rep = backtest.metrics(bench, 252, 0.0)
    R = two_regime_returns.returns
    n = R.shape[0]
    w = np.full(n, 1.0 / n)
    drift = np.cumprod(1.0 + R[:, 60:].T @ np.ones(n) * 0 + R[:, 60:].T @ w)
    # equal-weight portfolio without intermediate rebalancing compounds each
    # asset separately
    growth = (1.0 + R[:, 60:]).cumprod(axis=1)
    manual = (w[:, None] * growth).sum(axis=0)
    np.testing.assert_allclose(bench.values[1:], manual, rtol=1e-12)
    assert rep.cumulative_return == pytest.approx(manual[-1] - 1.0, rel=1e-12)


def test_benchmark_with_entry_cost(two_regime_returns):
    bench = backtest.benchmark_buy_and_hold(
        two_regime_returns, initial_cost_rate=0.01, start_period=60
    )
    free = backtest.benchmark_buy_and_hold(two_regime_returns, start_period=60)
    # the entry cost is charged once, on the equal-weight book k0
    n = two_regime_returns.returns.shape[0]
    scale = 1.0 - 0.01 * np.abs(np.full(n, 1.0 / n)).sum()
    np.testing.assert_allclose(bench.values, scale * free.values, rtol=1e-12)
    assert bench.costs_paid == pytest.approx((0.01,), rel=1e-12)


def test_config_parsing(tmp_path):
    # the config file reaches BacktestConfig through the cli reader, with
    # its real keys (c_max, data.*)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": {"csv": TWO_REGIME_CSV, "risk_free_annual": 0.03,
                 "periods_per_year": 52},
        "backtest": {"train_window": 50, "rebalance_every": 10},
        "constraints": {"leverage": 2, "cost_rate": 0.002, "c_max": 0.01,
                        "allow_short": False},
        "budget": {"eps_x": 1e-4, "eps_c": 2e-5},
        "ambiguity": {"gamma": 0.3},
        "utility": {"kind": "power", "delta": 0.4},
    }))
    args = cli.build_parser().parse_args(["backtest", "--config", str(config)])
    returns, (cfg,) = cli._run_configs(args, "cost_rate", None)
    assert cfg == backtest.BacktestConfig(
        train_window=50, rebalance_every=10, leverage=2.0, cost_rate=0.002,
        turnover_cost_limit=0.01, gamma=0.3, eps_x=1e-4, eps_c=2e-5,
        utility=SeparableUtility("power", delta=0.4),
        risk_free_annual=0.03, periods_per_year=52, allow_short=False)
    assert type(cfg.leverage) is float
    # the risk-free leg compounds the annual rate over 52 periods
    assert returns.tickers == ("ALPHA", "BRAVO", "CHARLIE", "RF")
    np.testing.assert_allclose(returns.returns[3], 1.03 ** (1 / 52) - 1,
                               rtol=1e-12)


def test_forced_decomposition_changes_nothing(two_regime_returns, log_utility,
                                             monkeypatch):
    cfg = backtest_config(
        train_window=60,
        rebalance_every=60,
        leverage=1.5,
        cost_rate=0.001,
        turnover_cost_limit=0.01,
        gamma=0.25,
        eps_x=1e-5,
        eps_c=1e-5,
        utility=log_utility,
    )
    p_dec, _ = backtest.run(cfg, two_regime_returns)
    # every rebalance again, on the product-form reference LP
    monkeypatch.setattr(robust_lp, "assemble", assemble_product)
    n = two_regime_returns.returns.shape[0]
    _, model, _ = backtest.solve_rebalance(cfg, two_regime_returns, 60, np.zeros(n))
    assert "cuts" in model.row_sections  # the m*L*R product block
    p_prod, _ = backtest.run(cfg, two_regime_returns)
    np.testing.assert_allclose(p_dec.values, p_prod.values, atol=1e-9)


def test_short_history_rejected(log_utility):
    # train window longer than history: precondition error before any solve
    rets = constant_market(T=20)
    cfg = backtest_config(
        train_window=50,
        rebalance_every=10,
        leverage=1.5,
        cost_rate=0.0,
        turnover_cost_limit=0.0,
        gamma=0.0,
        eps_x=1e-6,
        eps_c=1e-6,
        utility=log_utility,
    )
    with pytest.raises(ValueError):
        backtest.run(cfg, rets)
