"""Command-line front door: partition, solve, backtest, verify.

Reports are JSON, plot series are CSV, and outputs are written
atomically.  A command's reports depend only on its flags and config
file, apart from timestamps and solve timings.  Sweep values run one
after another, all of them before the first report is written, so a value
that raises leaves no reports.  Exit codes: 0 success, 1 solve or
property failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, replace

import numpy as np

from . import backtest as bt
from . import oracle, robust_lp
from .data import append_risk_free, compute_returns, interpolate_missing, \
    load_prices
from .partition import ErrorBudget, build_family, certify_error, \
    removal_experiment, tangency_residual
from .utility import SeparableUtility

USAGE_ERROR = 2
FAILURE = 1


class UsageError(Exception):
    """Bad flags, bad config, or missing input; exits with code 2."""


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_json(doc: dict, args, filename: str):
    if not args.no_timestamp:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        _atomic_write(os.path.join(args.out, filename), text)
    sys.stdout.write(text)


def _finite(value, what: str) -> float:
    """float(value), refused as a usage error when it is NaN or infinite."""
    number = float(value)
    if not math.isfinite(number):
        raise UsageError(f"{what} is not a finite number: {value}")
    return number


# Every config section and key with its default.  A value must have the
# JSON type of its default; None marks an optional number.
_SCHEMA = {
    "data": {"csv": "", "risk_free_annual": None, "periods_per_year": 252},
    "backtest": {"train_window": 126, "rebalance_every": 63},
    "constraints": {"leverage": 1.5, "cost_rate": 0.0, "c_max": 0.0,
                    "allow_short": True},
    "budget": {"eps_x": 1e-3, "eps_c": 1e-5},
    "ambiguity": {"gamma": 0.0},
    "utility": {"kind": "log", "alpha": 1.0, "beta": 1.0, "delta": None,
                "theta": None},
}
_EXPECTED = {bool: "true or false", int: "an integer", float: "a number",
             type(None): "a number or null", str: "a string"}


def _load_config(args) -> dict:
    """Every section of the config file, with its defaults filled in."""
    cfg = {name: dict(keys) for name, keys in _SCHEMA.items()}
    if not args.config:
        return cfg
    if not os.path.exists(args.config):
        raise UsageError(f"config file not found: {args.config}")

    def number(text):
        # refuses NaN, Infinity, -Infinity and a float literal that
        # overflows to inf, such as 1e400
        return _finite(text, "config value")

    with open(args.config, encoding="utf-8") as fh:
        try:
            given = json.load(fh, parse_constant=number, parse_float=number)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config is not valid JSON: {exc}") from None
    if not isinstance(given, dict):
        raise UsageError("config must be a JSON object")
    for name, section in given.items():
        if not isinstance(section, dict):
            raise UsageError(f"config section {name!r} must be a JSON object")
        if name not in _SCHEMA:
            raise UsageError(f"bad config value: unknown section {name}")
        for key, value in section.items():
            if key not in _SCHEMA[name]:
                raise UsageError(f"bad config value: unknown key {name}.{key}")
            cfg[name][key] = _config_value(f"{name}.{key}", value,
                                           _SCHEMA[name][key])
    return cfg


def _config_value(where: str, value, default):
    """value if it has the JSON type of default, with a number as a float."""
    kind = type(default)
    if kind in (float, type(None)) and type(value) in (int, float) \
            and abs(value) <= sys.float_info.max:
        return float(value)
    if type(value) is kind:
        return value
    raise UsageError(f"bad config value: {where} must be {_EXPECTED[kind]}, "
                     f"not {json.dumps(value)}")


def _config_object(cls, **fields):
    """cls(**fields), with a config value out of its range a usage error."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise UsageError(f"bad config value: {exc}") from None


def _load_returns(data_cfg: dict):
    path = data_cfg["csv"]
    if not path:
        raise UsageError("config needs data.csv pointing at the price file")
    if not os.path.exists(path):
        raise UsageError(f"data file not found: {path}")
    returns = compute_returns(interpolate_missing(load_prices(path)))
    if data_cfg["risk_free_annual"] is not None:
        returns = append_risk_free(returns, data_cfg["risk_free_annual"],
                                   data_cfg["periods_per_year"])
    return returns


def _run_configs(args, field: str, vary):
    """The returns and the run configs of ``solve`` or ``backtest``.

    The config file gives one config; ``--sweep field=v1,v2,...`` gives one
    per value instead, made by ``vary(config, value)``.
    """
    cfg = _load_config(args)
    cons, data = cfg["constraints"], cfg["data"]
    config = _config_object(
        bt.BacktestConfig, **cfg["backtest"], **cfg["budget"], **cfg["ambiguity"],
        leverage=cons["leverage"], cost_rate=cons["cost_rate"],
        turnover_cost_limit=cons["c_max"], allow_short=cons["allow_short"],
        utility=_config_object(SeparableUtility, **cfg["utility"]),
        risk_free_annual=data["risk_free_annual"] or 0.0,
        periods_per_year=data["periods_per_year"])
    returns = _load_returns(data)
    if not args.sweep:
        return returns, [config]
    if "=" not in args.sweep:
        raise UsageError("sweep must look like name=v1,v2,...")
    name, _, raw = args.sweep.partition("=")
    texts = [v for v in raw.split(",") if v != ""]
    values = [_finite(v, "sweep value") for v in texts]
    if not values:
        raise UsageError("sweep needs at least one value")
    if name.strip() != field:
        raise UsageError(f"{args.command} only sweeps {field}")
    # a value's reports are named by its :g form
    named = {}
    for text, value in zip(texts, values):
        tag = f"{value:g}"
        if tag in named:
            raise UsageError(f"sweep values {named[tag]} and {text} would "
                             f"both write the {field} {tag} reports")
        named[tag] = text
    return returns, [vary(config, v) for v in values]


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def cmd_partition(args) -> int:
    cfg = _load_config(args)
    eps_x, eps_c, x_min, x_max, c_max = (
        _finite(getattr(args, key), key)
        for key in ("eps_x", "eps_c", "x_min", "x_max", "c_max"))
    utility = _config_object(SeparableUtility, **cfg["utility"])
    if eps_x <= 0 or eps_c <= 0:
        raise UsageError("partition needs positive eps_x and eps_c budgets")
    if not 0.0 <= c_max < 1.0:
        raise UsageError("partition needs c_max in [0, 1)")
    budget = ErrorBudget(eps_x, eps_c)
    fam = build_family(utility, x_min, x_max, 0.0, c_max, budget)
    sup_x, sup_c, sup_joint = certify_error(utility, fam, grid=2000)
    removal_table = []
    for axis, eps in (("x", budget.eps_x), ("c", budget.eps_c)):
        new_sups = removal_experiment(utility, fam, axis).tolist()
        for idx, new_sup in enumerate(new_sups, start=1):
            removal_table.append(
                {
                    "axis": axis,
                    "index": idx,
                    "new_sup": new_sup,
                    "error_violation": new_sup > eps,
                }
            )
    doc = {
        "eps_x": budget.eps_x,
        "eps_c": budget.eps_c,
        "M_x": int(fam.x_points.size),
        "M_c": int(fam.c_points.size),
        "sup_x": sup_x,
        "sup_c": sup_c,
        "sup_joint": sup_joint,
        "tangency_residual": tangency_residual(utility, fam),
        "removal_table": removal_table,
    }
    _emit_json(doc, args, "partition.json")
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _solve_report(config: bt.BacktestConfig, returns) -> dict:
    n, T = returns.returns.shape
    sol, model, _ = bt.solve_rebalance(config, returns, T, np.zeros(n))
    if sol.status != "optimal":
        return {"status": sol.status, "gamma": config.gamma,
                "error": bt.failure_message(T, sol, model)}
    k, diag = robust_lp.extract_weights(sol, model.layout)
    return {
        "status": sol.status,
        "gamma": config.gamma,
        "objective": sol.objective,
        "weights": k.tolist(),
        "turnover": diag["turnover_l1"],
        "invested_weight": bt.invested_weight(k, returns),
        "solve_time_ms": sol.solve_time * 1000.0,
        "iterations": sol.iterations,
    }


def cmd_solve(args) -> int:
    returns, configs = _run_configs(
        args, "gamma", lambda c, gamma: replace(c, gamma=gamma))
    T = returns.returns.shape[1]
    window = configs[0].train_window
    if T < window:
        raise UsageError(f"need at least {window} return periods, have {T}")
    results = [_solve_report(c, returns) for c in configs]
    status = 0
    for res in results:
        if res["status"] != "optimal":
            status = FAILURE
        name = f"solve_gamma_{res['gamma']:g}.json" if args.sweep else "solve.json"
        _emit_json(res, args, name)
    return status


# ---------------------------------------------------------------------------
# backtest
# ---------------------------------------------------------------------------


def _path_rows(path: bt.AccountPath):
    rows = [("period", "value", "invested_weight")]
    invested = dict(zip(path.rebalance_periods, path.invested_weights))
    rows.append((str(path.start_period - 1), f"{path.values[0]:.12g}", "0"))
    current = 0.0
    for offset in range(1, path.values.size):
        s = path.start_period + offset - 1
        current = invested.get(s, current)
        rows.append((str(s), f"{path.values[offset]:.12g}", f"{current:.6g}"))
    return rows


def cmd_backtest(args) -> int:
    returns, configs = _run_configs(
        args, "cost_rate",
        lambda c, rate: replace(c, cost_rate=rate,
                                turnover_cost_limit=rate * 2.0 * c.leverage))

    def one(c):
        try:
            return bt.run(c, returns)
        except bt.BacktestError as exc:
            return exc

    outcomes = [one(c) for c in configs]
    status = 0
    series = []
    for c, outcome in zip(configs, outcomes):
        tag = f"_c_{c.cost_rate:g}" if args.sweep else ""
        if isinstance(outcome, bt.BacktestError):
            _emit_json({"status": "failed", "error": str(outcome)}, args,
                       f"backtest{tag}.json")
            status = FAILURE
            continue
        path, report = outcome
        doc = {"status": "ok", "config": {
            "cost_rate": c.cost_rate,
            "c_max": c.turnover_cost_limit,
            "gamma": c.gamma,
            "leverage": c.leverage,
            "train_window": c.train_window,
            "rebalance_every": c.rebalance_every,
        }}
        doc.update(asdict(report))
        # deterministic, unlike avg_solve_time: the warm start shows here
        doc["avg_iterations"] = float(np.mean(path.iterations))
        _emit_json(doc, args, f"backtest{tag}.json")
        if args.out:
            rows = _path_rows(path)
            text = "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"
            _atomic_write(os.path.join(args.out, f"path{tag}.csv"), text)
        series.append((c.cost_rate, report.cumulative_return))
        if args.benchmarks:
            bpath = bt.benchmark_buy_and_hold(
                returns,
                initial_cost_rate=c.cost_rate,
                start_period=c.train_window,
            )
            brep = bt.metrics(bpath, c.periods_per_year, c.risk_free_annual)
            bdoc = {"status": "ok", "benchmark": "equal_weight"}
            bdoc.update(asdict(brep))
            _emit_json(bdoc, args, f"benchmark_equal_weight{tag}.json")
    if args.sweep and args.out:
        rows = [("cost_rate", "cumulative_return")]
        rows += [(f"{r:g}", f"{v:.12g}") for r, v in series]
        text = "\n".join(",".join(row) for row in rows) + "\n"
        _atomic_write(os.path.join(args.out, "return_vs_cost.csv"), text)
    return status


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    """The --seed value: a non-negative integer, as the generators take."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"--seed {text} is not a non-negative integer")
    return seed


def cmd_verify(args) -> int:
    suites = None
    if args.suites is not None:
        suites = [s for s in args.suites.split(",") if s]
        if not suites:
            raise UsageError("empty suite selection")
    try:
        suites = oracle.suite_selection(suites)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = oracle.run_all(seed=args.seed, suites=suites)
    report["seed"] = args.seed
    _emit_json(report, args, "verify.json")
    return 0 if report["passed"] else FAILURE


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dro-portfolio",
        description="Worst-case growth portfolios from supporting-hyperplane LPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory for reports")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit timestamps for byte-stable output")

    p = sub.add_parser("partition", help="build and certify a tangent family")
    common(p)
    p.add_argument("--eps-x", type=float, default=0.0,
                   help="return-axis error budget; required, positive")
    p.add_argument("--eps-c", type=float, default=0.0,
                   help="cost-axis error budget; required, positive")
    p.add_argument("--x-min", type=float, default=-0.2,
                   help="low end of the return box (default -0.2)")
    p.add_argument("--x-max", type=float, default=0.2,
                   help="high end of the return box (default 0.2)")
    p.add_argument("--c-max", type=float, default=0.02,
                   help="high end of the cost box, in [0, 1) (default 0.02)")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("solve", help="solve one rebalance")
    common(p)
    p.add_argument("--sweep", help="gamma=v1,v2,...")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("backtest", help="run the sliding-window protocol")
    common(p)
    p.add_argument("--sweep", help="cost_rate=v1,v2,...")
    p.add_argument("--benchmarks", action="store_true",
                   help="also emit buy-and-hold benchmarks")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("verify", help="run the brute-force oracle suites")
    common(p, config=False)
    p.add_argument("--seed", type=_seed, default=0,
                   help="seed of the suites' random draws, a non-negative integer")
    p.add_argument("--suites", help="comma list; default all")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # partition, solve and backtest read their input as they run, so a
    # ValueError there is bad input; verify checks its flags before any
    # suite runs, and a ValueError inside a suite is a fault
    input_errors = (UsageError, OSError) if args.command == "verify" \
        else (UsageError, ValueError, OSError)
    try:
        return args.func(args)
    except input_errors as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
