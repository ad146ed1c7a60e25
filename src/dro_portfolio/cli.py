"""Command-line front door: partition, solve, backtest, verify.

Reports are JSON, plot series are CSV, outputs are written atomically,
and every command is deterministic given the config and seed.  Exit
codes: 0 success, 1 solve or property failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import backtest as bt
from . import oracle, robust_lp
from .ambiguity import from_gamma
from .data import append_risk_free, build_scenario_set, compute_returns, \
    interpolate_missing, load_prices
from .partition import ErrorBudget, build_family, certify_error, \
    removal_experiment
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
    doc["seed"] = args.seed
    text = json.dumps(doc, indent=2, sort_keys=True, default=_jsonify) + "\n"
    if args.out:
        _atomic_write(os.path.join(args.out, filename), text)
    sys.stdout.write(text)


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _load_config(args) -> dict:
    if not args.config:
        return {}
    if not os.path.exists(args.config):
        raise UsageError(f"config file not found: {args.config}")
    with open(args.config, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config is not valid JSON: {exc}") from None


def _load_returns(data_cfg: dict):
    path = data_cfg.get("csv")
    if not path:
        raise UsageError("config needs data.csv pointing at the price file")
    if not os.path.exists(path):
        raise UsageError(f"data file not found: {path}")
    series = interpolate_missing(load_prices(path))
    returns = compute_returns(series)
    rf = data_cfg.get("risk_free_annual")
    if rf is not None:
        returns = append_risk_free(
            returns, float(rf), int(data_cfg.get("periods_per_year", 252))
        )
    return returns


def _sweep_values(spec: str):
    if "=" not in spec:
        raise UsageError("sweep must look like name=v1,v2,...")
    name, _, raw = spec.partition("=")
    vals = [v for v in raw.split(",") if v != ""]
    if not vals:
        raise UsageError("sweep needs at least one value")
    return name.strip(), [float(v) for v in vals]


def _sweep_workers(count: int) -> int:
    env = os.environ.get("DRO_PORTFOLIO_THREADS")
    if env is None:
        return 1
    try:
        cap = int(env)
    except ValueError:
        raise UsageError("DRO_PORTFOLIO_THREADS must be an integer") from None
    return max(1, min(cap, count))


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def cmd_partition(args) -> int:
    cfg = _load_config(args)
    pc = cfg.get("partition", {})
    eps_x = args.eps_x if args.eps_x is not None else pc.get("eps_x")
    eps_c = args.eps_c if args.eps_c is not None else pc.get("eps_c")
    if eps_x is None or eps_c is None or eps_x <= 0 or eps_c <= 0:
        raise UsageError("partition needs positive eps_x and eps_c budgets")
    x_lo = args.x_min if args.x_min is not None else pc.get("x_min", -0.2)
    x_hi = args.x_max if args.x_max is not None else pc.get("x_max", 0.2)
    c_hi = args.c_max if args.c_max is not None else pc.get("c_max", 0.02)
    utility = SeparableUtility.from_config(cfg.get("utility", {"kind": "log"}))
    budget = ErrorBudget(float(eps_x), float(eps_c))
    fam = build_family(utility, float(x_lo), float(x_hi), 0.0, float(c_hi), budget)
    sup_x, sup_c, sup_joint = certify_error(utility, fam, grid=2000)
    removal_table = []
    for axis, pts in (("x", fam.x_points), ("c", fam.c_points)):
        for idx in range(1, pts.size - 1):
            new_sup = removal_experiment(utility, fam, idx, axis)
            removal_table.append(
                {
                    "axis": axis,
                    "index": idx,
                    "new_sup": new_sup,
                    "error_violation": bool(
                        new_sup > (budget.eps_x if axis == "x" else budget.eps_c)
                    ),
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
        "removal_table": removal_table,
    }
    _emit_json(doc, args, "partition.json")
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _solve_once(config: bt.BacktestConfig, returns, gamma: float) -> dict:
    window = config.train_window
    T = returns.returns.shape[1]
    if T < window:
        raise UsageError(f"need at least {window} return periods, have {T}")
    scen = build_scenario_set(returns, (T - window, T))
    sol, model, _ = robust_lp.rebalance(
        scen,
        from_gamma(scen.probabilities, gamma),
        config.trading_constraints(scen.n),
        config.utility,
        config.budget,
        np.zeros(scen.n),
    )
    if sol.status != "optimal":
        return {"status": sol.status, "gamma": gamma}
    k, diag = robust_lp.extract_weights(sol, model.layout)
    return {
        "status": sol.status,
        "gamma": gamma,
        "objective": sol.objective,
        "weights": k.tolist(),
        "turnover": diag["turnover_l1"],
        "invested_weight": diag["invested_weight"],
        "solve_time_ms": sol.solve_time * 1000.0,
        "iterations": sol.iterations,
    }


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    returns = _load_returns(cfg.get("data", {}))
    config = bt.BacktestConfig.from_config(cfg)
    gammas = [config.gamma]
    sweep_name = None
    if args.sweep:
        sweep_name, values = _sweep_values(args.sweep)
        if sweep_name != "gamma":
            raise UsageError("solve only sweeps gamma")
        gammas = values
    workers = _sweep_workers(len(gammas))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda g: _solve_once(config, returns, g), gammas))
    else:
        results = [_solve_once(config, returns, g) for g in gammas]
    status = 0
    for g, res in zip(gammas, results):
        if res.get("status") != "optimal":
            status = FAILURE
        name = f"solve_gamma_{g:g}.json" if sweep_name else "solve.json"
        _emit_json(res, args, name)
    return status


# ---------------------------------------------------------------------------
# backtest
# ---------------------------------------------------------------------------


def _backtest_once(cfg: dict, returns, cost_rate: float | None):
    cfg = json.loads(json.dumps(cfg))  # deep copy; sweeps mutate
    if cost_rate is not None:
        cons = cfg.setdefault("constraints", {})
        cons["cost_rate"] = cost_rate
        cons["c_max"] = cost_rate * 2.0 * float(cons.get("leverage", 1.5))
    config = bt.BacktestConfig.from_config(cfg)
    path, report = bt.run(config, returns)
    return config, path, report


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
    cfg = _load_config(args)
    returns = _load_returns(cfg.get("data", {}))
    sweeps = [None]
    sweep_name = None
    if args.sweep:
        sweep_name, values = _sweep_values(args.sweep)
        if sweep_name != "cost_rate":
            raise UsageError("backtest only sweeps cost_rate")
        sweeps = values
    workers = _sweep_workers(len(sweeps))

    def one(rate):
        try:
            return _backtest_once(cfg, returns, rate)
        except bt.BacktestError as exc:
            return exc

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one, sweeps))
    else:
        outcomes = [one(rate) for rate in sweeps]

    status = 0
    series = []
    for rate, outcome in zip(sweeps, outcomes):
        tag = "" if rate is None else f"_c_{rate:g}"
        if isinstance(outcome, bt.BacktestError):
            _emit_json({"status": "failed", "error": str(outcome)}, args,
                       f"backtest{tag}.json")
            status = FAILURE
            continue
        config, path, report = outcome
        doc = {"status": "ok", "config": {
            "cost_rate": config.cost_rate,
            "c_max": config.turnover_cost_limit,
            "gamma": config.gamma,
            "leverage": config.leverage,
            "train_window": config.train_window,
            "rebalance_every": config.rebalance_every,
        }}
        doc.update(report.to_dict())
        _emit_json(doc, args, f"backtest{tag}.json")
        if args.out:
            rows = _path_rows(path)
            text = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
            _atomic_write(os.path.join(args.out, f"path{tag}.csv"), text)
        series.append((rate if rate is not None else config.cost_rate,
                       report.cumulative_return))
        if args.benchmarks and args.out:
            for name, asset in (("equal_weight", None),):
                bpath = bt.benchmark_buy_and_hold(
                    returns,
                    asset=asset,
                    initial_cost_rate=config.cost_rate,
                    start_period=config.train_window,
                )
                brep = bt.metrics(bpath, config.periods_per_year,
                                  config.risk_free_annual)
                bdoc = {"status": "ok", "benchmark": name}
                bdoc.update(brep.to_dict())
                _emit_json(bdoc, args, f"benchmark_{name}{tag}.json")
    if sweep_name and args.out:
        rows = [("cost_rate", "cumulative_return")]
        rows += [(f"{r:g}", f"{c:.12g}") for r, c in series]
        text = "\n".join(",".join(row) for row in rows) + "\n"
        _atomic_write(os.path.join(args.out, "return_vs_cost.csv"), text)
    return status


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    suites = None
    if args.suites is not None:
        suites = [s for s in args.suites.split(",") if s]
        if not suites:
            raise UsageError("empty suite selection")
    try:
        report = oracle.run_all(seed=args.seed, fault=args.fault_inject,
                                suites=suites)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
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

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory for reports")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit timestamps for byte-stable output")

    p = sub.add_parser("partition", help="build and certify a tangent family")
    common(p)
    p.add_argument("--eps-x", type=float, default=None)
    p.add_argument("--eps-c", type=float, default=None)
    p.add_argument("--x-min", type=float, default=None)
    p.add_argument("--x-max", type=float, default=None)
    p.add_argument("--c-max", type=float, default=None)
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
    common(p)
    p.add_argument("--suites", help="comma list; default all")
    p.add_argument("--fault-inject", action="store_true",
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
