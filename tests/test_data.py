"""CSV ingestion, interpolation, return computation, scenario construction."""
import datetime
import math

import numpy as np
import pytest

import dro_portfolio as dp
from dro_portfolio import OrderingError, ParseError
from dro_portfolio import data as data_mod


def write_csv(tmp_path, text, name="prices.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


GOOD = """date,AAA,BBB
2024-01-02,100.0,50.0
2024-01-03,101.0,49.5
2024-01-04,99.99,50.5
"""


def test_load_prices_basic(tmp_path):
    series = data_mod.load_prices(write_csv(tmp_path, GOOD))
    assert series.tickers == ("AAA", "BBB")
    assert len(series.dates) == 3
    # prices laid out tickers x dates
    assert series.prices.shape == (2, 3)
    assert series.prices[0, 1] == pytest.approx(101.0)


def test_parse_error_reports_line_number(tmp_path):
    bad = "date,AAA\n2024-01-02,100.0\n2024-01-03,1,2\n"
    with pytest.raises(ParseError) as exc:
        data_mod.load_prices(write_csv(tmp_path, bad))
    assert "3" in str(exc.value)


def test_parse_error_on_bad_float(tmp_path):
    bad = "date,AAA\n2024-01-02,100.0\n2024-01-03,oops\n"
    with pytest.raises(ParseError) as exc:
        data_mod.load_prices(write_csv(tmp_path, bad))
    assert "3" in str(exc.value)


def test_dates_must_increase(tmp_path):
    bad = "date,AAA\n2024-01-03,100.0\n2024-01-02,101.0\n"
    with pytest.raises(OrderingError):
        data_mod.load_prices(write_csv(tmp_path, bad))
    dup = "date,AAA\n2024-01-03,100.0\n2024-01-03,101.0\n"
    with pytest.raises(OrderingError):
        data_mod.load_prices(write_csv(tmp_path, dup))


@pytest.mark.parametrize("first, second, line, bad", [
    ("1/9/2021", "1/12/2021", 2, "1/9/2021"),  # rising as dates, not as text
    ("2021-01-09", "foo", 3, "foo"),
], ids=["us-style", "not-a-date"])
def test_date_that_is_not_iso_is_a_parse_error(tmp_path, first, second, line,
                                              bad):
    text = f"date,AAA\n{first},100.0\n{second},101.0\n"
    with pytest.raises(ParseError, match=f"line {line}: bad date '{bad}'"):
        data_mod.load_prices(write_csv(tmp_path, text))


def test_dates_are_ordered_as_dates(tmp_path):
    series = data_mod.load_prices(write_csv(tmp_path, GOOD))
    assert series.dates[0] == datetime.date(2024, 1, 2)
    with pytest.raises(TypeError):
        data_mod.PriceSeries(dates=("2024-01-02",), tickers=("AAA",),
                             prices=[[100.0]])


def test_duplicate_ticker_rejected(tmp_path):
    bad = "date,AAA,AAA\n2024-01-02,100.0,100.0\n"
    with pytest.raises(ParseError):
        data_mod.load_prices(write_csv(tmp_path, bad))


def test_missing_values_interpolated_linearly(tmp_path):
    text = "date,AAA\n2024-01-02,100.0\n2024-01-03,\n2024-01-04,104.0\n"
    series = data_mod.load_prices(write_csv(tmp_path, text))
    assert math.isnan(series.prices[0, 1])
    filled = data_mod.interpolate_missing(series)
    assert filled.prices[0, 1] == pytest.approx(102.0)


def test_boundary_missing_ticker_dropped(tmp_path, caplog):
    text = (
        "date,AAA,BBB\n"
        "2024-01-02,,50.0\n"
        "2024-01-03,101.0,49.5\n"
        "2024-01-04,102.0,50.5\n"
    )
    series = data_mod.load_prices(write_csv(tmp_path, text))
    with caplog.at_level("WARNING"):
        filled = data_mod.interpolate_missing(series)
    assert filled.tickers == ("BBB",)
    assert any("AAA" in rec.message for rec in caplog.records)


def test_compute_returns_oracle(tmp_path):
    series = data_mod.load_prices(write_csv(tmp_path, GOOD))
    rets = data_mod.compute_returns(data_mod.interpolate_missing(series))
    # returns laid out assets x periods
    assert rets.returns.shape == (2, 2)
    assert rets.returns[0, 0] == pytest.approx(101.0 / 100.0 - 1.0, rel=1e-12)
    assert rets.returns[1, 1] == pytest.approx(50.5 / 49.5 - 1.0, rel=1e-12)


def test_nonpositive_price_names_ticker_and_date(tmp_path):
    text = "date,AAA\n2024-01-02,100.0\n2024-01-03,-3.0\n"
    series = data_mod.load_prices(write_csv(tmp_path, text))
    with pytest.raises(ValueError) as exc:
        data_mod.compute_returns(data_mod.interpolate_missing(series))
    msg = str(exc.value)
    assert "AAA" in msg and "2024-01-03" in msg


def test_append_risk_free_geometric(tmp_path):
    series = data_mod.load_prices(write_csv(tmp_path, GOOD))
    rets = data_mod.compute_returns(data_mod.interpolate_missing(series))
    out = data_mod.append_risk_free(rets, 0.02, 252)
    assert out.tickers[-1] == "RF"
    assert out.risk_free_index == 2
    per = 1.02 ** (1.0 / 252) - 1.0
    np.testing.assert_allclose(out.returns[2, :], per, rtol=1e-12)
    # risky rows unchanged
    np.testing.assert_allclose(out.returns[:2, :], rets.returns)


def test_build_scenario_set_window(tmp_path):
    rng = np.random.default_rng(0)
    returns = rng.uniform(-0.05, 0.06, size=(2, 10))
    rets = data_mod.ReturnMatrix(returns=returns, tickers=("A", "B"))
    scen = data_mod.build_scenario_set(rets, (3, 8))
    assert scen.m == 5 and scen.n == 2
    np.testing.assert_allclose(scen.probabilities, 0.2)
    np.testing.assert_allclose(scen.scenarios, returns[:, 3:8].T)
    np.testing.assert_allclose(scen.x_min, returns[:, 3:8].min(axis=1))
    np.testing.assert_allclose(scen.x_max, returns[:, 3:8].max(axis=1))
    # the window is the equally weighted set of its block, bit for bit
    same = data_mod.ScenarioSet.uniform(returns[:, 3:8].T)
    for field in ("scenarios", "probabilities", "x_min", "x_max"):
        np.testing.assert_array_equal(getattr(scen, field), getattr(same, field))


def test_scenario_set_field_shapes_are_checked():
    X = np.array([[0.01, -0.02], [0.03, 0.0], [-0.01, 0.02]])
    good = dict(scenarios=X, probabilities=np.full(3, 1.0 / 3),
                x_min=X.min(axis=0), x_max=X.max(axis=0))
    data_mod.ScenarioSet(**good)
    for field, value in (("x_min", X.min(axis=0)[:1]),
                         ("x_min", np.zeros(3)),
                         ("x_max", np.ones(3)),
                         ("probabilities", np.full(2, 0.5)),
                         ("scenarios", X.ravel())):
        with pytest.raises(ValueError, match=field):
            data_mod.ScenarioSet(**dict(good, **{field: value}))


def test_scenario_bounds_must_hold_every_scenario():
    X = np.array([[-0.9, 0.05], [0.1, 0.02], [0.05, -0.01]])
    good = dict(scenarios=X, probabilities=np.full(3, 1.0 / 3),
                x_min=X.min(axis=0), x_max=X.max(axis=0))
    data_mod.ScenarioSet(**dict(good, x_min=good["x_min"] - 0.1,
                                x_max=good["x_max"] + 0.1))
    # -0.05 does not bound the -0.9 scenario of asset 0
    for field, value in (("x_min", np.array([-0.05, -0.01])),
                         ("x_max", np.array([0.1, 0.049])),
                         ("x_min", np.array([np.nan, -0.01]))):
        with pytest.raises(ValueError, match=field):
            data_mod.ScenarioSet(**dict(good, **{field: value}))


def test_scenario_probabilities_must_lie_on_the_simplex():
    X = np.array([[0.01, -0.02], [0.03, 0.0], [-0.01, 0.02]])
    good = dict(scenarios=X, probabilities=np.full(3, 1.0 / 3),
                x_min=X.min(axis=0), x_max=X.max(axis=0))
    for prob in ([0.5, 0.3, 0.3], [1.2, -0.1, -0.1], [np.nan, 0.5, 0.5],
                 [np.nan] * 3):
        with pytest.raises(ValueError, match="simplex"):
            data_mod.ScenarioSet(**dict(good, probabilities=np.array(prob)))


def test_empty_scenario_window_is_refused():
    with pytest.raises(ValueError, match="empty scenario window"):
        data_mod.ScenarioSet.uniform(np.zeros((0, 2)))


def test_return_matrix_validation():
    with pytest.raises(ValueError):
        data_mod.ReturnMatrix(
            returns=np.array([[0.1, -1.5]]), tickers=("A",)
        )
    with pytest.raises(ValueError):
        data_mod.ReturnMatrix(
            returns=np.array([[0.1, np.nan]]), tickers=("A",)
        )


def test_bundled_market_loads():
    import os

    csv_path = os.path.join(os.path.dirname(__file__), "data", "two_regime.csv")
    series = data_mod.load_prices(csv_path)
    assert series.tickers == ("ALPHA", "BRAVO", "CHARLIE")
    assert len(series.dates) == 421
    rets = data_mod.compute_returns(series)
    assert rets.returns.shape == (3, 420)
    assert float(np.abs(rets.returns).max()) < 0.03
