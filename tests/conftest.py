"""Shared fixtures: the bundled two-regime market and small solved instances."""
import dataclasses
import os

import numpy as np
import pytest

import dro_portfolio as dp
from dro_portfolio import data as data_mod
from dro_portfolio import robust_lp

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "data")
TWO_REGIME_CSV = os.path.join(FIXTURE_DIR, "two_regime.csv")


@pytest.fixture(scope="session")
def log_utility():
    return dp.SeparableUtility("log")


@pytest.fixture(scope="session")
def two_regime_returns():
    """Return matrix for the bundled market, risk-free column appended."""
    series = data_mod.load_prices(TWO_REGIME_CSV)
    series = data_mod.interpolate_missing(series)
    rets = data_mod.compute_returns(series)
    return data_mod.append_risk_free(rets, 0.02, 252)


@pytest.fixture(scope="session")
def kelly_instance():
    """One risky asset, two scenarios +0.10 / -0.05 with equal weight.

    The growth-optimal fraction is p/|down| - (1-p)/up = 10 - 5 = 5, so the
    leverage cap of 10 leaves the optimum interior.
    """
    X = np.array([[0.1], [-0.05]])
    scen = dp.ScenarioSet(
        scenarios=X,
        probabilities=np.array([0.5, 0.5]),
        x_min=X.min(axis=0),
        x_max=X.max(axis=0),
    )
    amb = dp.from_gamma(scen.probabilities, 0.0)
    con = robust_lp.TradingConstraintSet.uniform(
        1, leverage=10.0, cost_rate=0.0, turnover_cost_limit=0.0
    )
    return scen, amb, con


def crash_market():
    """Two assets drawn from N(0.004, 0.02) with seed 0 over 120 periods,
    and a -70% crash of both at periods 70 and 75."""
    rng = np.random.default_rng(0)
    returns = rng.normal(0.004, 0.02, size=(2, 120))
    returns[:, [70, 75]] = -0.7
    return data_mod.ReturnMatrix(returns=returns, tickers=("A", "B"))


def backtest_config(**fields):
    """A BacktestConfig with no risk-free rate, 252 periods a year and
    shorts allowed, unless fields give them."""
    return dp.BacktestConfig(**{"risk_free_annual": 0.0, "periods_per_year": 252,
                                "allow_short": True, **fields})


def small_family(u, scen, con, budget_x=1e-6, budget_c=1e-6):
    """Hyperplane family on the production approximation box of an instance."""
    x_lo, x_hi, c_hi = robust_lp.approximation_box(scen, con)
    return dp.build_family(
        u, x_lo, x_hi, 0.0, c_hi, dp.ErrorBudget(budget_x, budget_c)
    )


def with_contradictory_leverage(model):
    """The model with its leverage row turned into sum(K+ + K-) <= -1."""
    b = model.b_ub.copy()
    b[model.row_sections["leverage"][0]] = -1.0
    return dataclasses.replace(model, b_ub=b)


def with_negated_intercepts(result):
    """A rebalance result whose family has its intercepts negated, so that
    no plane touches f at its anchor."""
    sol, model, fam = result
    return sol, model, dataclasses.replace(fam, gamma_x=-fam.gamma_x,
                                           gamma_c=-fam.gamma_c)
