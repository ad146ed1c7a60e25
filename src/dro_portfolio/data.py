"""Price ingestion, repair, returns, and scenario windows.

CSV layout: first column is the date (ISO-8601), one ticker per remaining
column, empty cell means missing.  Missing interior prices are filled by
linear interpolation; tickers missing at either boundary are dropped.
Scenario sets are sliced from trailing return windows with uniform
empirical weights.
"""

from __future__ import annotations

import csv
import datetime
import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


class ParseError(ValueError):
    """Malformed CSV content; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class OrderingError(ValueError):
    """Dates out of order or duplicated."""


@dataclass(frozen=True)
class PriceSeries:
    """Adjusted close prices, n tickers by T dates; NaN flags a missing cell.

    dates holds ``datetime.date`` values, so their order is calendar order.
    """

    dates: tuple
    tickers: tuple
    prices: np.ndarray

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        if len(set(self.tickers)) != len(self.tickers):
            raise ValueError("duplicate tickers")
        if not all(isinstance(d, datetime.date) for d in self.dates):
            raise TypeError("dates must be datetime.date values")
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise OrderingError("dates must be strictly increasing")
        if prices.shape != (len(self.tickers), len(self.dates)):
            raise ValueError("price matrix shape does not match labels")


@dataclass(frozen=True)
class ReturnMatrix:
    """Simple per-period returns, n assets by T-1 periods; every entry > -1."""

    returns: np.ndarray
    tickers: tuple = ()
    risk_free_index: int | None = None

    def __post_init__(self):
        returns = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", returns)
        object.__setattr__(self, "tickers", tuple(self.tickers))
        if not np.all(np.isfinite(returns)):
            raise ValueError("returns must be finite")
        if np.any(returns <= -1.0):
            raise ValueError("every return must exceed -1")


@dataclass(frozen=True)
class ScenarioSet:
    """m joint return scenarios with empirical weights and per-asset bounds.

    scenarios is (m, n), probabilities (m,), and x_min, x_max (n,).  The
    bounds must hold every scenario of their asset; they may be wider.
    """

    scenarios: np.ndarray
    probabilities: np.ndarray
    x_min: np.ndarray
    x_max: np.ndarray
    tickers: tuple = ()
    risk_free_index: int | None = None

    def __post_init__(self):
        scen = np.asarray(self.scenarios, dtype=float)
        prob = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "scenarios", scen)
        object.__setattr__(self, "probabilities", prob)
        object.__setattr__(self, "x_min", np.asarray(self.x_min, dtype=float))
        object.__setattr__(self, "x_max", np.asarray(self.x_max, dtype=float))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        if scen.ndim != 2:
            raise ValueError(f"scenarios must be an (m, n) array, not {scen.shape}")
        m, n = scen.shape
        for name, shape in (("probabilities", (m,)), ("x_min", (n,)),
                            ("x_max", (n,))):
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} must have shape {shape}, not {got}")
        # each test is written to fail on NaN
        if not (np.all(prob >= 0) and abs(prob.sum() - 1.0) <= 1e-12):
            raise ValueError("probabilities must lie on the simplex")
        if np.any(scen <= -1.0):
            raise ValueError("every scenario return must exceed -1")
        # the LP's survival row bounds losses by x_min and x_max alone
        if not ((self.x_min <= scen) & (scen <= self.x_max)).all():
            raise ValueError("x_min and x_max must bound every scenario")

    @classmethod
    def uniform(cls, scenarios, tickers=(), risk_free_index=None) -> "ScenarioSet":
        """Equally likely (m, n) scenarios, bounded by their own per-asset range."""
        # a window of a return matrix is a strided view; hold it in rows
        X = np.ascontiguousarray(scenarios, dtype=float)
        if len(X) == 0:
            raise ValueError("empty scenario window: no scenario to weight")
        return cls(scenarios=X, probabilities=np.full(len(X), 1.0 / len(X)),
                   x_min=X.min(axis=0), x_max=X.max(axis=0),
                   tickers=tickers, risk_free_index=risk_free_index)

    @property
    def m(self) -> int:
        return int(self.scenarios.shape[0])

    @property
    def n(self) -> int:
        return int(self.scenarios.shape[1])


def load_prices(path) -> PriceSeries:
    """Parse the CSV at path into a PriceSeries with missing cells flagged.

    Raises ParseError with the offending line number on malformed rows or
    dates that are not ISO-8601, and OrderingError on non-monotone or
    duplicate dates.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", 1) from None
        if len(header) < 2:
            raise ParseError("need a date column and at least one ticker", 1)
        tickers = [h.strip() for h in header[1:]]
        if len(set(tickers)) != len(tickers):
            raise ParseError("duplicate tickers in header", 1)
        dates = []
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(row)}", lineno
                )
            try:
                dates.append(datetime.date.fromisoformat(row[0].strip()))
            except ValueError:
                raise ParseError(f"bad date {row[0]!r}", lineno) from None
            cells = []
            for ticker, cell in zip(tickers, row[1:]):
                cell = cell.strip()
                if cell == "":
                    cells.append(np.nan)
                    continue
                try:
                    cells.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"bad price {cell!r} for {ticker}", lineno
                    ) from None
            rows.append(cells)
    prices = np.array(rows, dtype=float).T if rows else np.zeros((len(tickers), 0))
    return PriceSeries(dates=tuple(dates), tickers=tuple(tickers), prices=prices)


def interpolate_missing(series: PriceSeries) -> PriceSeries:
    """Fill interior gaps linearly; drop tickers missing at either boundary.

    Observed cells are untouched.  Dropped tickers are reported through the
    module logger; a ValueError names them when none is left.
    """
    keep = []
    dropped = []
    repaired_rows = []
    for i, ticker in enumerate(series.tickers):
        row = series.prices[i]
        obs = np.flatnonzero(~np.isnan(row))
        if obs.size == 0 or obs[0] != 0 or obs[-1] != row.size - 1:
            dropped.append(ticker)
            continue
        if obs.size == row.size:
            repaired_rows.append(row.copy())
        else:
            idx = np.arange(row.size)
            repaired_rows.append(np.interp(idx, obs, row[obs]))
        keep.append(ticker)
    if not keep:
        raise ValueError("no ticker has both its first and last price: "
                         f"dropped {', '.join(dropped)}")
    if dropped:
        log.warning("dropped tickers with missing boundary prices: %s", dropped)
    return PriceSeries(dates=series.dates, tickers=tuple(keep),
                       prices=np.vstack(repaired_rows))


def compute_returns(series: PriceSeries) -> ReturnMatrix:
    """Simple returns (S(t) - S(t-1)) / S(t-1); requires a repaired series."""
    prices = series.prices
    if np.any(np.isnan(prices)):
        raise ValueError("series still has missing cells; repair it first")
    bad = np.argwhere(prices <= 0)
    if bad.size:
        i, t = bad[0]
        raise ValueError(
            f"price must be positive: {series.tickers[i]} at {series.dates[t]}"
        )
    returns = prices[:, 1:] / prices[:, :-1] - 1.0
    bad = np.argwhere(returns <= -1.0)
    if bad.size:
        i, t = bad[0]
        raise ValueError(
            f"return at or below -1: {series.tickers[i]} at {series.dates[t + 1]}"
        )
    return ReturnMatrix(returns=returns, tickers=series.tickers)


def append_risk_free(
    returns: ReturnMatrix, annual_rate: float, periods_per_year: int
) -> ReturnMatrix:
    """Add a constant-return asset from geometric annual-rate conversion."""
    if annual_rate <= -1.0:
        raise ValueError("annual_rate must exceed -1")
    if periods_per_year < 1:
        raise ValueError("periods_per_year must be at least 1")
    per_period = (1.0 + annual_rate) ** (1.0 / periods_per_year) - 1.0
    row = np.full((1, returns.returns.shape[1]), per_period)
    tickers = returns.tickers + ("RF",) if returns.tickers else ()
    return ReturnMatrix(
        returns=np.vstack([returns.returns, row]),
        tickers=tickers,
        risk_free_index=returns.returns.shape[0],
    )


def build_scenario_set(returns: ReturnMatrix, window: tuple) -> ScenarioSet:
    """Scenario set from return columns [start, stop); uniform weights."""
    start, stop = window
    n_cols = returns.returns.shape[1]
    if not (0 <= start < stop <= n_cols):
        raise ValueError(f"window {window} out of bounds for {n_cols} columns")
    return ScenarioSet.uniform(returns.returns[:, start:stop].T,
                               returns.tickers, returns.risk_free_index)
