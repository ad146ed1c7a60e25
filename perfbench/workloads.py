"""Seeded inputs, jobs and correctness checks of the three workloads.

Every call into the package goes through a module attribute
(``robust_lp.assemble``, ``cli.main``, ...), so the wrappers that the
traced run installs see each call.  A job returns its wall time and the
outcome that the checks read; checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import datetime
import io
import json
import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from dro_portfolio import ambiguity, cli, oracle, partition, robust_lp
from dro_portfolio.data import ScenarioSet
from dro_portfolio.utility import SeparableUtility

DEFAULT_SEED = 7
REFERENCE_TOL = 1e-9  # relative for values above 1
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


class Checks:
    """Counts correctness operations; each failed one is kept by name."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def close(self, name: str, value, expected):
        """value within REFERENCE_TOL of expected, relative above magnitude 1."""
        tol = REFERENCE_TOL * max(1.0, abs(float(expected)))
        self.check(f"{name}: {value!r} vs reference {expected!r}",
                   abs(float(value) - float(expected)) <= tol)


@dataclass
class JobResult:
    seconds: float
    rebalances: int
    outcome: dict
    bytes_written: int = 0


def _load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _run_cli(argv) -> tuple:
    """cli.main in-process with its report text captured; (code, bytes).

    An exception that escapes cli.main would end a real CLI process with
    code 1, so it is printed and counted as that exit code.
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = 1
    return code, len(buf.getvalue().encode("utf-8"))


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _fresh_dir(path: str):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


# ---------------------------------------------------------------------------
# scale_lp: the criterion-7 rebalance at production size
# ---------------------------------------------------------------------------


class ScaleLp:
    """One rebalance of the n=478, m=126 instance of acceptance criterion 7.

    The draw always uses the criterion-7 seed (7): HiGHS time on other
    draws of the same size ranges from 9 s to 21 s, far wider than any
    regression bound, and a run cannot afford enough 15 s solves to
    average that out.  The run seed therefore does not change this
    workload's inputs; input variation is covered by ``backtest``.
    """

    name = "scale_lp"
    DRAW_SEED = 7
    GAMMA = 0.3
    EPS_X, EPS_C = 1e-3, 1e-5
    C_MAX = 0.02

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        n, m = (24, 30) if smoke else (478, 126)
        rng = np.random.default_rng(self.DRAW_SEED)
        X = rng.normal(5e-4, 0.02, size=(m, n))
        self.scen = ScenarioSet(
            scenarios=X,
            probabilities=np.full(m, 1.0 / m),
            x_min=X.min(axis=0),
            x_max=X.max(axis=0),
        )
        self.con = robust_lp.TradingConstraintSet.uniform(
            n, leverage=1.5, cost_rate=0.001, turnover_cost_limit=self.C_MAX
        )
        self.u = SeparableUtility("log")
        self.reference = None if smoke else _load_reference()[self.name]

    def job(self) -> JobResult:
        scen, con, u = self.scen, self.con, self.u
        start = time.perf_counter()
        maxabs = float(np.abs(scen.scenarios).max())
        x_hi = con.leverage * maxabs
        x_lo = max(-1.0 + 1e-6, -x_hi)
        fam = partition.build_family(
            u, x_lo, x_hi, 0.0, self.C_MAX,
            partition.ErrorBudget(self.EPS_X, self.EPS_C),
        )
        amb = ambiguity.from_gamma(scen.probabilities, self.GAMMA)
        model = robust_lp.assemble(scen, fam, amb, con, np.zeros(scen.n))
        sol = robust_lp.solve(model)
        k = None
        if sol.status == "optimal":
            k, _ = robust_lp.extract_weights(sol, model.layout)
        seconds = time.perf_counter() - start
        return JobResult(seconds, 1, {"sol": sol, "amb": amb, "k": k})

    def check(self, res: JobResult, checks: Checks):
        sol, amb, k = res.outcome["sol"], res.outcome["amb"], res.outcome["k"]
        checks.check(f"LP status {sol.status}", sol.status == "optimal")
        if sol.status != "optimal":
            return
        budget = self.EPS_X + self.EPS_C
        checks.check(f"residual {sol.residual!r} > 1e-9", sol.residual <= 1e-9)
        gap = oracle.duality_gap(k, sol, self.scen, amb, self.u)
        checks.check(f"duality gap {gap!r}", gap <= 1e-6 + budget)
        q = oracle.exact_q(self.u, self.scen, k, np.zeros(self.scen.n),
                           self.con.cost_vector)
        exact = oracle.contamination_worst_case(self.scen.probabilities,
                                                self.GAMMA, q)
        excess = sol.objective - exact
        checks.check(f"objective minus exact worst case {excess!r}",
                     0.0 <= excess <= budget + 1e-9)
        if self.reference is not None:
            ref = self.reference
            checks.close("objective", sol.objective, ref["objective"])
            worst = float(np.max(np.abs(k - np.asarray(ref["weights"]))))
            checks.check(f"weights differ from reference by {worst!r}",
                         worst <= REFERENCE_TOL)


# ---------------------------------------------------------------------------
# backtest: the CLI sliding-window run on a seeded two-regime market
# ---------------------------------------------------------------------------


def write_two_regime_csv(path: str, seed: int, n_assets: int, periods: int):
    """Two-regime price CSV by the recipe of tests/data/generate_two_regime.py.

    The first asset leads in both regimes; the rest share the recipe's
    second and third drift/half-width pairs, interpolated across assets.
    """
    mu1 = np.concatenate([[0.01075], np.linspace(0.0040, 0.0030, n_assets - 1)])
    h1 = np.concatenate([[0.0130], np.linspace(0.0140, 0.0150, n_assets - 1)])
    shrink = np.concatenate([[0.65], np.full(n_assets - 1, 0.40)])
    widen = np.concatenate([[1.15], np.full(n_assets - 1, 1.35)])
    switch = periods * 200 // 420
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=(periods, n_assets))
    rets = np.empty((periods, n_assets))
    rets[:switch] = mu1 + h1 * u[:switch]
    rets[switch:] = mu1 * shrink + h1 * widen * u[switch:]
    prices = 100.0 * np.cumprod(1.0 + rets, axis=0)
    prices = np.vstack([np.full(n_assets, 100.0), prices])
    day = datetime.date(2021, 1, 4)
    dates = []
    while len(dates) < len(prices):
        if day.weekday() < 5:
            dates.append(day.isoformat())
        day += datetime.timedelta(days=1)
    tickers = [f"A{i:02d}" for i in range(n_assets)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date," + ",".join(tickers) + "\n")
        for d, row in zip(dates, prices):
            fh.write(d + "," + ",".join(f"{v:.8f}" for v in row) + "\n")


# backtest.json fields that depend on the inputs only, not on timing
BACKTEST_RESULT_FIELDS = (
    "cumulative_return", "max_drawdown", "annualized_sharpe",
    "avg_turnover_rate", "avg_invested_weight", "avg_optimal_value",
)


class Backtest:
    """``dro-portfolio backtest`` over about 240 rebalances of 10 assets."""

    name = "backtest"
    WINDOW = 60

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        n_assets, periods, every = (3, 100, 20) if smoke else (10, 1260, 5)
        csv_path = os.path.join(workdir, "prices.csv")
        write_two_regime_csv(csv_path, seed, n_assets, periods)
        cfg = {
            "data": {"csv": csv_path, "risk_free_annual": 0.02,
                     "periods_per_year": 252},
            "backtest": {"train_window": self.WINDOW, "rebalance_every": every},
            "constraints": {"leverage": 1.5, "cost_rate": 0.001, "c_max": 0.02,
                            "allow_short": False},
            "budget": {"eps_x": 1e-3, "eps_c": 1e-5},
            "ambiguity": {"gamma": 0.3},
        }
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self.out = os.path.join(workdir, "out")
        self.rebalances = math.ceil((periods - self.WINDOW) / every)
        self.first = None
        self.reference = (_load_reference()[self.name]
                          if seed == DEFAULT_SEED and not smoke else None)

    def job(self) -> JobResult:
        _fresh_dir(self.out)
        start = time.perf_counter()
        code, stdout_bytes = _run_cli(
            ["backtest", "--config", self.config_path, "--out", self.out,
             "--no-timestamp"]
        )
        seconds = time.perf_counter() - start
        report = None
        if code == 0:
            with open(os.path.join(self.out, "backtest.json"), encoding="utf-8") as fh:
                report = json.load(fh)
        return JobResult(seconds, self.rebalances, {"code": code, "report": report},
                         stdout_bytes + _dir_bytes(self.out))

    def check(self, res: JobResult, checks: Checks):
        code, report = res.outcome["code"], res.outcome["report"]
        checks.check(f"backtest exit code {code}", code == 0)
        if report is None:
            return
        fields = {f: report[f] for f in BACKTEST_RESULT_FIELDS}
        if self.first is None:
            self.first = fields
        checks.check(f"backtest results changed between jobs: {fields}",
                     fields == self.first)
        if self.reference is not None:
            for f in BACKTEST_RESULT_FIELDS:
                checks.close(f, fields[f], self.reference[f])


# ---------------------------------------------------------------------------
# certify: partition certification plus the verify suites
# ---------------------------------------------------------------------------


class Certify:
    """``dro-portfolio partition`` at eps 1e-6, then ``verify --seed 7``.

    The verify seed is fixed for the same reason as the scale_lp draw:
    the approximation suite's grid searches cost 4.5 s to 9.2 s and move
    the peak memory between 745 MiB and 864 MiB depending on the seed,
    more than a regression bound, with room for one job per run.
    """

    name = "certify"
    VERIFY_SEED = 7

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.eps = 1e-3 if smoke else 1e-6
        self.suites = ["--suites", "inner,survivability"] if smoke else []
        self.out = os.path.join(workdir, "out")
        self.first = None
        self.reference = None if smoke else _load_reference()[self.name]

    def job(self) -> JobResult:
        _fresh_dir(self.out)
        start = time.perf_counter()
        part_code, part_bytes = _run_cli(
            ["partition", "--eps-x", str(self.eps), "--eps-c", str(self.eps),
             "--out", self.out, "--no-timestamp"]
        )
        verify_code, verify_bytes = _run_cli(
            ["verify", "--seed", str(self.VERIFY_SEED), "--out", self.out,
             "--no-timestamp"] + self.suites
        )
        seconds = time.perf_counter() - start
        outcome = {"partition_code": part_code, "verify_code": verify_code}
        for name in ("partition", "verify"):
            path = os.path.join(self.out, f"{name}.json")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    outcome[name] = json.load(fh)
        # the verify suites solve one robust rebalance LP per instance
        suites = outcome.get("verify", {}).get("suites", {})
        rebalances = sum(suites.get(s, {}).get("instances", 0)
                         for s in ("duality", "approximation"))
        return JobResult(seconds, rebalances, outcome,
                         part_bytes + verify_bytes + _dir_bytes(self.out))

    def check(self, res: JobResult, checks: Checks):
        out = res.outcome
        checks.check(f"partition exit code {out['partition_code']}",
                     out["partition_code"] == 0)
        checks.check(f"verify exit code {out['verify_code']}",
                     out["verify_code"] == 0)
        part = out.get("partition")
        if part is not None:
            sx, sc, sj = part["sup_x"], part["sup_c"], part["sup_joint"]
            checks.check(f"sup_x {sx!r}", sx <= 1.02 * self.eps)
            checks.check(f"sup_c {sc!r}", sc <= 1.02 * self.eps)
            checks.check(f"sup_joint {sj!r} != sup_x + sup_c",
                         abs(sj - (sx + sc)) <= 1e-9)
            if self.first is None:
                self.first = part
            checks.check("partition report changed between jobs",
                         part == self.first)
            if self.reference is not None:
                for f in ("sup_x", "sup_c", "sup_joint", "M_x", "M_c"):
                    checks.close(f, part[f], self.reference[f])
        verify = out.get("verify")
        checks.check("verify did not pass",
                     verify is not None and verify["passed"] is True)


WORKLOADS = {w.name: w for w in (ScaleLp, Backtest, Certify)}


def perturbed(res: JobResult) -> JobResult:
    """Copy of a scale_lp result whose objective is off by 1e-2."""
    sol = res.outcome["sol"]
    bad = replace(sol, objective=sol.objective + 1e-2)
    return replace(res, outcome=dict(res.outcome, sol=bad))
