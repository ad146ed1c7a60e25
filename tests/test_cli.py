"""End-to-end tests for the command-line interface.

Each test drives ``cli.main`` in process and inspects the files it
writes; one test goes through the installed console script to cover
the packaging entry point.
"""

import argparse
import datetime
import json
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from dro_portfolio import backtest, cli, data, oracle, robust_lp
from dro_portfolio.ambiguity import from_gamma
from dro_portfolio.partition import ErrorBudget
from dro_portfolio.utility import SeparableUtility

from conftest import crash_market, with_contradictory_leverage, \
    with_negated_intercepts

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "two_regime.csv")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run_cli(argv):
    return cli.main(argv)


def read_config(path):
    """The returns and the run config that ``backtest`` reads from path."""
    args = cli.build_parser().parse_args(["backtest", "--config", path])
    return cli._run_configs(args, "cost_rate", None)


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "data": {
            "csv": FIXTURE,
            "risk_free_annual": 0.02,
            "periods_per_year": 252,
        },
        "backtest": {"train_window": 60, "rebalance_every": 20},
        "constraints": {
            "leverage": 1.5,
            "cost_rate": 0.001,
            "c_max": 0.02,
            "allow_short": False,
        },
        "budget": {"eps_x": 1e-3, "eps_c": 1e-5},
        "ambiguity": {"gamma": 0.25},
        "utility": {"kind": "log"},
    }
    for section, values in overrides.items():
        if values is None:
            cfg.pop(section, None)
        else:
            cfg.setdefault(section, {}).update(values)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def test_partition_report(tmp_path):
    out = tmp_path / "out"
    rc = run_cli([
        "partition", "--eps-x", "1e-5", "--eps-c", "1e-5",
        "--no-timestamp", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads((out / "partition.json").read_text())
    assert doc["M_x"] == 47
    assert doc["M_c"] == 4
    assert doc["sup_x"] <= 1.02e-5
    assert doc["sup_c"] <= 1.02e-5
    assert doc["removal_table"]
    # dropping any interior tangent must blow the certified budget
    assert all(row["error_violation"] for row in doc["removal_table"])
    assert len(doc["removal_table"]) == (47 - 2) + (4 - 2)
    assert doc["tangency_residual"] <= 1e-12
    assert "timestamp" not in doc


def test_partition_deterministic_bytes(tmp_path):
    args = ["partition", "--eps-x", "1e-4", "--eps-c", "1e-4", "--no-timestamp"]
    first, second = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(first)]) == 0
    assert run_cli(args + ["--out", str(second)]) == 0
    assert (first / "partition.json").read_bytes() == \
        (second / "partition.json").read_bytes()


def test_partition_timestamp_default(tmp_path, capsys):
    rc = run_cli(["partition", "--eps-x", "1e-3", "--eps-c", "1e-3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert "timestamp" in doc


def test_partition_box_flags(tmp_path):
    out = tmp_path / "out"
    rc = run_cli([
        "partition", "--eps-x", "1e-4", "--eps-c", "1e-3",
        "--x-min", "-0.05", "--x-max", "0.05",
        "--no-timestamp", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads((out / "partition.json").read_text())
    assert doc["eps_x"] == 1e-4
    assert doc["eps_c"] == 1e-3

    # the default box is [-0.2, 0.2]
    wide = tmp_path / "wide"
    rc = run_cli([
        "partition", "--eps-x", "1e-4", "--eps-c", "1e-3",
        "--no-timestamp", "--out", str(wide),
    ])
    assert rc == 0
    full = json.loads((wide / "partition.json").read_text())
    # narrower return box needs fewer tangent points at the same budget
    assert doc["M_x"] < full["M_x"]


def test_partition_requires_budgets(capsys):
    rc = run_cli(["partition"])
    assert rc == 2
    assert "eps_x" in capsys.readouterr().err


def test_partition_rejects_a_cost_box_reaching_one(capsys):
    rc = run_cli(["partition", "--eps-x", "1e-4", "--eps-c", "1e-4",
                  "--c-max", "1.0"])
    assert rc == 2
    assert capsys.readouterr().err == "error: partition needs c_max in [0, 1)\n"


def test_partition_budget_below_reach_is_an_input_error(capsys):
    rc = run_cli(["partition", "--eps-x", "1e-300", "--eps-c", "1e-4"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: x-axis budget 1e-300 cannot be met on [-0.2, 0.2]"
    )


@pytest.mark.parametrize("flag, value", [
    ("--x-min", "nan"), ("--x-max", "inf"), ("--eps-x", "nan"),
    ("--eps-c", "inf"), ("--c-max", "nan"),
])
def test_partition_non_finite_flag_is_a_usage_error(tmp_path, capsys,
                                                    monkeypatch, flag, value):
    monkeypatch.setattr(cli, "build_family",
                        lambda *a, **k: pytest.fail("built a family"))
    out = tmp_path / "out"
    rc = run_cli(["partition", "--eps-x", "1e-4", "--eps-c", "1e-4",
                  flag, value, "--out", str(out)])
    assert rc == 2
    name = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == (
        f"error: {name} is not a finite number: {value}\n")
    assert not out.exists()


@pytest.mark.parametrize("eps_x, eps_c, loose",
                         [("1e-3", "100", "c"), ("1e-3", "1e3", "c"),
                          ("800", "1e-3", "x"), ("1e308", "1e308", "xc")])
def test_partition_loose_budget_gives_the_two_point_axis(
        tmp_path, eps_x, eps_c, loose):
    out = tmp_path / "out"
    rc = run_cli(["partition", "--eps-x", eps_x, "--eps-c", eps_c,
                  "--no-timestamp", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "partition.json").read_text())
    for axis in loose:
        assert doc[f"M_{axis}"] == 2
    assert doc["sup_x"] <= float(eps_x) and doc["sup_c"] <= float(eps_c)


def test_partition_weighted_log_stays_within_budget(tmp_path):
    # the log step divides each budget by its axis weight, as the power
    # and crra steps do
    config = tmp_path / "utility.json"
    config.write_text(json.dumps(
        {"utility": {"kind": "log", "alpha": 2, "beta": 0.5}}))
    out = tmp_path / "out"
    rc = run_cli(["partition", "--config", str(config), "--eps-x", "1e-6",
                  "--eps-c", "1e-6", "--no-timestamp", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "partition.json").read_text())
    assert (doc["M_x"], doc["M_c"]) == (204, 7)
    assert doc["sup_x"] <= 1e-6 and doc["sup_c"] <= 1e-6
    assert len(doc["removal_table"]) == 207
    assert all(row["error_violation"] for row in doc["removal_table"])


@pytest.mark.parametrize("utility, counts", [
    ({"kind": "power", "delta": 0.5}, (73, 5)),
    ({"kind": "crra", "theta": 3}, (257, 14)),
], ids=["power", "crra"])
def test_partition_power_and_crra_are_minimal_within_budget(tmp_path, utility,
                                                            counts):
    # these families step by next_point_general's brentq roots
    config = tmp_path / "utility.json"
    config.write_text(json.dumps({"utility": utility}))
    out = tmp_path / "out"
    rc = run_cli(["partition", "--config", str(config), "--eps-x", "1e-6",
                  "--eps-c", "1e-6", "--no-timestamp", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "partition.json").read_text())
    assert (doc["M_x"], doc["M_c"]) == counts
    assert doc["sup_x"] <= 1e-6 and doc["sup_c"] <= 1e-6
    assert doc["tangency_residual"] <= 1e-12
    assert len(doc["removal_table"]) == counts[0] + counts[1] - 4
    assert all(row["error_violation"] for row in doc["removal_table"])


@pytest.mark.parametrize("axis", ["x", "c"])
def test_partition_log_budget_at_the_cut_off_is_an_input_error(capsys, axis):
    # 16 float eps, the last budget the log spacing refuses
    cut_off = repr(16 * sys.float_info.epsilon)
    budgets = {"x": "1e-5", "c": "1e-5", axis: cut_off}
    rc = run_cli(["partition", "--eps-x", budgets["x"], "--eps-c", budgets["c"]])
    assert rc == 2
    assert capsys.readouterr().err.endswith(
        f"budget 3.55271e-15 is below the float resolution of the log step\n")


@pytest.mark.parametrize("utility", [{"kind": "power", "delta": 0.5},
                                     {"kind": "crra", "theta": 3.0},
                                     {"kind": "log"}],
                         ids=["power", "crra", "log"])
@pytest.mark.parametrize("axis", ["x", "c"])
def test_partition_sub_resolution_budget_is_an_input_error(
        tmp_path, capsys, utility, axis):
    config = tmp_path / "utility.json"
    config.write_text(json.dumps({"utility": utility}))
    budgets = {"x": "1e-5", "c": "1e-5", axis: "1e-300"}
    rc = run_cli(["partition", "--config", str(config),
                  "--eps-x", budgets["x"], "--eps-c", budgets["c"]])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        f"error: {axis}-axis budget 1e-300 cannot be met"
    )


@pytest.mark.filterwarnings("error")
def test_partition_steep_crra_on_a_narrow_box(tmp_path):
    # theta 400 is a legal crra utility; its phi overflows far from 0 but
    # not on a box of +-1%
    config = tmp_path / "utility.json"
    config.write_text(json.dumps({"utility": {"kind": "crra", "theta": 400}}))
    out = tmp_path / "out"
    rc = run_cli(["partition", "--config", str(config), "--eps-x", "1e-3",
                  "--eps-c", "1e-3", "--x-min", "-0.01", "--x-max", "0.01",
                  "--no-timestamp", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "partition.json").read_text())
    assert (doc["M_x"], doc["M_c"]) == (10, 63)
    assert doc["sup_x"] <= 1e-3 and doc["sup_c"] <= 1e-3


@pytest.mark.filterwarnings("error")
def test_partition_steep_crra_on_the_default_box_names_the_budget(tmp_path,
                                                                  capsys):
    config = tmp_path / "utility.json"
    config.write_text(json.dumps({"utility": {"kind": "crra", "theta": 400}}))
    rc = run_cli(["partition", "--config", str(config), "--eps-x", "1e-3",
                  "--eps-c", "1e-3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: x-axis budget 0.001 cannot be met")
    assert err.rstrip().endswith("below the float resolution of phi at -0.2")


def test_solve_budget_below_reach_is_an_input_error(tmp_path, capsys):
    config = write_config(tmp_path, budget={"eps_x": 1e-300})
    rc = run_cli(["solve", "--config", config])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: x-axis budget 1e-300")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_report(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    rc = run_cli(["solve", "--config", config, "--no-timestamp",
                  "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "solve.json").read_text())
    assert doc["status"] == "optimal"
    assert doc["gamma"] == 0.25
    assert len(doc["weights"]) == 4  # three risky assets plus cash leg
    assert doc["invested_weight"] <= 1.5 + 1e-9
    assert doc["solve_time_ms"] > 0

    # the library route on the same last window must give the same answer
    returns = data.append_risk_free(
        data.compute_returns(data.interpolate_missing(data.load_prices(FIXTURE))),
        0.02, 252,
    )
    T = returns.returns.shape[1]
    scen = data.build_scenario_set(returns, (T - 60, T))
    con = robust_lp.TradingConstraintSet.uniform(
        4, leverage=1.5, cost_rate=0.001, turnover_cost_limit=0.02,
        allow_short=False,
    )
    sol, model, _ = robust_lp.rebalance(
        scen, from_gamma(scen.probabilities, 0.25), con, SeparableUtility("log"),
        ErrorBudget(1e-3, 1e-5), np.zeros(4),
    )
    k, _ = robust_lp.extract_weights(sol, model.layout)
    assert doc["objective"] == pytest.approx(sol.objective, abs=1e-9)
    np.testing.assert_allclose(doc["weights"], k, rtol=0, atol=1e-9)


def test_invested_weight_leaves_out_the_risk_free_leg(tmp_path):
    # at gamma 0.5 and zero cost the book moves into the risk-free leg
    # (the last asset) partway through the run
    config = write_config(tmp_path, ambiguity={"gamma": 0.5},
                          constraints={"cost_rate": 0.0, "c_max": 0.0})
    returns, (cfg,) = read_config(config)
    assert returns.risk_free_index == 3
    path, _ = backtest.run(cfg, returns)
    assert max(k[3] for k in path.weights) > 1.0
    for k, invested in zip(path.weights, path.invested_weights):
        assert invested == pytest.approx(k[:3].sum(), abs=1e-12)
    bench = backtest.benchmark_buy_and_hold(returns)
    assert bench.invested_weights == (0.75,)

    out = tmp_path / "out"
    assert run_cli(["solve", "--config", config, "--no-timestamp",
                    "--out", str(out)]) == 0
    doc = json.loads((out / "solve.json").read_text())
    assert doc["weights"][3] > 1.0
    assert doc["invested_weight"] == pytest.approx(sum(doc["weights"][:3]),
                                                   abs=1e-12)


def test_infeasible_solve_names_period_row_and_section(tmp_path, monkeypatch):
    real = robust_lp.assemble
    monkeypatch.setattr(robust_lp, "assemble",
                        lambda *a: with_contradictory_leverage(real(*a)))
    config = write_config(tmp_path)
    out = tmp_path / "out"
    rc = run_cli(["solve", "--config", config, "--no-timestamp",
                  "--out", str(out)])
    assert rc == 1
    doc = json.loads((out / "solve.json").read_text())
    assert doc["status"] == "infeasible"
    # 420 return periods: the rebalance trades at period 420
    assert doc["error"].startswith(
        "rebalance at period 420 failed with status infeasible; certificate row ")
    assert doc["error"].endswith(" in section leverage")


def test_solve_gamma_sweep(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    rc = run_cli(["solve", "--config", config, "--sweep", "gamma=0,0.5",
                  "--no-timestamp", "--out", str(out)])
    assert rc == 0
    low = json.loads((out / "solve_gamma_0.json").read_text())
    high = json.loads((out / "solve_gamma_0.5.json").read_text())
    assert low["status"] == high["status"] == "optimal"
    assert (low["gamma"], high["gamma"]) == (0.0, 0.5)
    # worst case over a larger ambiguity set cannot improve the objective
    assert high["objective"] <= low["objective"] + 1e-12


@pytest.mark.parametrize("command, sweep, message", [
    ("solve", "gamma=0.1234567,0.1234568",
     "sweep values 0.1234567 and 0.1234568 would both write the gamma "
     "0.123457 reports"),
    ("solve", "gamma=0,0.5,0.50",
     "sweep values 0.5 and 0.50 would both write the gamma 0.5 reports"),
    ("backtest", "cost_rate=0.0010000001,0.001",
     "sweep values 0.0010000001 and 0.001 would both write the cost_rate "
     "0.001 reports"),
], ids=["solve", "solve-repeat", "backtest"])
def test_sweep_values_with_one_report_name_are_a_usage_error(
        tmp_path, capsys, monkeypatch, command, sweep, message):
    config = write_config(tmp_path)
    monkeypatch.setattr(backtest, "solve_rebalance",
                        lambda *a, **k: pytest.fail("solved a rebalance"))
    out = tmp_path / "out"
    rc = run_cli([command, "--config", config, "--sweep", sweep,
                  "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_solve_rejects_other_sweeps(tmp_path, capsys):
    config = write_config(tmp_path)
    rc = run_cli(["solve", "--config", config, "--sweep", "cost_rate=0,0.1"])
    assert rc == 2
    assert "gamma" in capsys.readouterr().err


def test_solve_needs_a_full_training_window(tmp_path, capsys):
    config = write_config(tmp_path, backtest={"train_window": 1000})
    rc = run_cli(["solve", "--config", config])
    assert rc == 2
    assert "need at least 1000 return periods" in capsys.readouterr().err


def test_solve_requires_data_section(tmp_path, capsys):
    config = write_config(tmp_path, data=None)
    rc = run_cli(["solve", "--config", config])
    assert rc == 2
    assert "data.csv" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# backtest
# ---------------------------------------------------------------------------


def test_backtest_outputs(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    rc = run_cli(["backtest", "--config", config, "--no-timestamp",
                  "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "backtest.json").read_text())
    assert doc["status"] == "ok"
    assert doc["config"]["cost_rate"] == 0.001
    assert doc["config"]["gamma"] == 0.25
    assert doc["config"]["train_window"] == 60
    assert doc["cumulative_return"] > -1.0
    assert 0.0 <= doc["max_drawdown"] <= 1.0
    returns, (cfg,) = read_config(config)
    path, _ = backtest.run(cfg, returns)
    assert doc["avg_iterations"] == np.mean(path.iterations) > 0

    lines = (out / "path.csv").read_text().strip().splitlines()
    assert lines[0] == "period,value,invested_weight"
    first = lines[1].split(",")
    assert first == ["59", "1", "0"]  # account starts at 1 before any trade
    # one row per period from the first rebalance to the end of the sample
    assert len(lines) == 1 + (420 - 60 + 1)
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(v > 0 for v in values)


def test_backtest_ruin_is_a_failed_report(tmp_path, capsys):
    # prices of the crash market; with gamma 0 and zero cost the crash at
    # period 70, beyond the first training window, ruins the account
    growth = np.hstack([np.ones((2, 1)), 1.0 + crash_market().returns])
    prices = 100.0 * np.cumprod(growth, axis=1)
    day = datetime.date(2020, 1, 1)
    lines = ["date,A,B"] + [
        f"{day + datetime.timedelta(days=t)},{a:.17g},{b:.17g}"
        for t, (a, b) in enumerate(prices.T)
    ]
    csv = tmp_path / "crash.csv"
    csv.write_text("\n".join(lines) + "\n")
    config = tmp_path / "crash.json"
    config.write_text(json.dumps({
        "data": {"csv": str(csv)},
        "backtest": {"train_window": 60, "rebalance_every": 20},
        "constraints": {"leverage": 1.5, "cost_rate": 0.0, "c_max": 0.0,
                        "allow_short": False},
        "ambiguity": {"gamma": 0.0},
    }))
    out = tmp_path / "out"
    rc = run_cli(["backtest", "--config", str(config), "--no-timestamp",
                  "--out", str(out)])
    assert rc == 1
    doc = json.loads((out / "backtest.json").read_text())
    assert doc["status"] == "failed"
    assert doc["error"].startswith(
        "account ruined at period 70: portfolio return -1.05 and cost "
        "fraction 0 take the account below zero")
    assert capsys.readouterr().err == ""


def test_backtest_cost_sweep(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    rc = run_cli(["backtest", "--config", config, "--sweep",
                  "cost_rate=0,0.005", "--no-timestamp", "--out", str(out)])
    assert rc == 0
    for rate, tag in ((0.0, "_c_0"), (0.005, "_c_0.005")):
        doc = json.loads((out / f"backtest{tag}.json").read_text())
        # the sweep couples the turnover cost limit to the rate
        assert doc["config"]["cost_rate"] == rate
        assert doc["config"]["c_max"] == rate * 2.0 * 1.5
        assert (out / f"path{tag}.csv").exists()
    lines = (out / "return_vs_cost.csv").read_text().strip().splitlines()
    assert lines[0] == "cost_rate,cumulative_return"
    rates = [float(line.split(",")[0]) for line in lines[1:]]
    assert rates == [0.0, 0.005]
    for line in lines[1:]:
        float(line.split(",")[1])  # parses as a number


def test_backtest_rejects_other_sweeps(tmp_path, capsys):
    config = write_config(tmp_path)
    rc = run_cli(["backtest", "--config", config, "--sweep", "gamma=0,1"])
    assert rc == 2
    assert "cost_rate" in capsys.readouterr().err


def test_backtest_benchmarks(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    rc = run_cli(["backtest", "--config", config, "--benchmarks",
                  "--no-timestamp", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "benchmark_equal_weight.json").read_text())
    assert doc["status"] == "ok"
    assert doc["benchmark"] == "equal_weight"
    assert "cumulative_return" in doc


def test_backtest_benchmarks_without_out_go_to_stdout(tmp_path, capsys):
    config = write_config(tmp_path)
    rc = run_cli(["backtest", "--config", config, "--benchmarks",
                  "--no-timestamp"])
    assert rc == 0
    text, docs, at = capsys.readouterr().out, [], 0
    while at < len(text):
        doc, at = json.JSONDecoder().raw_decode(text, at)
        docs.append(doc)
        at += 1  # the newline after each report
    assert [d["status"] for d in docs] == ["ok", "ok"]
    assert "benchmark" not in docs[0] and "config" in docs[0]
    assert docs[1]["benchmark"] == "equal_weight"
    assert "cumulative_return" in docs[1]


def test_benchmark_sharpe_uses_run_basis(tmp_path):
    # a nonzero risk-free rate and a non-daily year: the benchmark report
    # must be scored on the same basis as backtest.json
    config = write_config(
        tmp_path, data={"risk_free_annual": 0.05, "periods_per_year": 52}
    )
    out = tmp_path / "out"
    rc = run_cli(["backtest", "--config", config, "--benchmarks",
                  "--no-timestamp", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "benchmark_equal_weight.json").read_text())
    returns = data.append_risk_free(
        data.compute_returns(data.interpolate_missing(data.load_prices(FIXTURE))),
        0.05, 52,
    )
    path = backtest.benchmark_buy_and_hold(
        returns, initial_cost_rate=0.001, start_period=60
    )
    rets = path.values[1:] / path.values[:-1] - 1.0
    excess = rets - (1.05 ** (1.0 / 52) - 1.0)
    manual = excess.mean() / rets.std(ddof=1) * np.sqrt(52)
    assert doc["annualized_sharpe"] == pytest.approx(manual, rel=1e-12)


def run_fresh(argv):
    """The exit code of cli.main(argv) run in a new interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "dro_portfolio.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          stdout=subprocess.DEVNULL)
    return proc.returncode


def read_report(path):
    """A report's text, or its JSON without the wall-clock timings."""
    if path.suffix != ".json":
        return path.read_text()
    doc = json.loads(path.read_text())
    return {k: v for k, v in doc.items()
            if k not in ("solve_time_ms", "avg_solve_time")}


@pytest.mark.parametrize(
    "command, sweep",
    [("solve", "gamma=0,0.5"), ("backtest", "cost_rate=0,0.005")],
    ids=["solve", "backtest"],
)
def test_sweep_values_match_single_config_runs(tmp_path, command, sweep):
    # each value's reports are those of a run of that one config in a
    # fresh interpreter, so no state carries over from one value, or from
    # an earlier run in this process, to the next
    config = write_config(tmp_path)
    out = tmp_path / "sweep"
    assert run_cli([command, "--config", config, "--sweep", sweep,
                    "--no-timestamp", "--out", str(out)]) == 0
    names = set(os.listdir(out))
    assert len([n for n in names if n.endswith(".json")]) == 2
    matched = set()
    for value in (float(v) for v in sweep.partition("=")[2].split(",")):
        if command == "solve":
            overrides, tag = {"ambiguity": {"gamma": value}}, f"_gamma_{value:g}"
        else:
            # the sweep sets c_max to 2·rate·leverage, leverage 1.5 here
            overrides = {"constraints": {"cost_rate": value,
                                         "c_max": value * 2.0 * 1.5}}
            tag = f"_c_{value:g}"
        single = tmp_path / f"single{tag}"
        single_config = write_config(tmp_path, f"single{tag}.json", **overrides)
        assert run_fresh([command, "--config", single_config,
                          "--no-timestamp", "--out", str(single)]) == 0
        for name in os.listdir(single):
            stem, ext = os.path.splitext(name)
            swept = f"{stem}{tag}{ext}"
            assert swept in names
            assert read_report(out / swept) == read_report(single / name), swept
            matched.add(swept)
    extra = {"return_vs_cost.csv"} if command == "backtest" else set()
    assert names - matched == extra


def test_commands_run_on_the_calling_thread(tmp_path, monkeypatch):
    # a SIGINT reaches only the main thread, so a job on any other thread
    # would run to its end after Ctrl-C
    config = write_config(tmp_path)
    threads = []
    real = backtest.solve_rebalance

    def recording(*args, **kwargs):
        threads.append(threading.current_thread())
        return real(*args, **kwargs)

    monkeypatch.setattr(backtest, "solve_rebalance", recording)
    for argv in (["solve"], ["backtest"],
                 ["backtest", "--sweep", "cost_rate=0,0.005"]):
        threads.clear()
        assert run_cli(argv + ["--config", config, "--no-timestamp"]) == 0
        assert threads, argv
        assert all(t is threading.main_thread() for t in threads), argv


def test_fine_budget_sweeps_add_cuts_on_demand_from_the_previous_basis(
        tmp_path, monkeypatch):
    # eps_x 1e-7 gives more return-leg cuts per scenario than HiGHS holds
    # from the start, so each of these LPs adds its cuts on demand, and the
    # backtest hands each rebalance the previous one's basis
    coarse = write_config(tmp_path, budget=None, utility=None)
    fine = write_config(tmp_path, "fine.json", budget={"eps_x": 1e-7},
                        utility=None)
    solves = []
    real = robust_lp.solve

    def recording(model, start=None):
        sol = real(model, start)
        m, cuts = model.b_eq.size, model.cut_family
        lo, hi = model.row_sections["cuts_x"]
        planes = (hi - lo) // m if cuts is None else cuts.a.size
        # the rows of the whole LP, which holds every plane
        whole = model.n_rows - (hi - lo) + m * planes + m
        solves.append((planes, sol.rows_held, whole, start is not None))
        return sol

    monkeypatch.setattr(robust_lp, "solve", recording)
    for run, (config, argv, lps) in enumerate((
            (coarse, ["solve", "--sweep", "gamma=0,0.5"], 2),
            (coarse, ["backtest", "--sweep", "cost_rate=0,0.005",
                      "--benchmarks"], 36),
            (fine, ["solve", "--sweep", "gamma=0,0.5"], 2),
            (fine, ["backtest"], 18))):
        solves.clear()
        out = tmp_path / f"out_{run}"
        assert run_cli(argv + ["--config", config, "--no-timestamp",
                               "--out", str(out)]) == 0, argv
        assert len(solves) == lps, argv
        if config != fine:
            continue
        for planes, held, whole, _ in solves:
            assert planes > robust_lp._WHOLE_MAX_L
            assert held < whole
    # each rebalance of the fine backtest after the first is handed the
    # previous one's basis
    assert [started for *_, started in solves] == [False] + [True] * 17


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_selected_suites(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(["verify", "--suites", "duality,concavity",
                  "--no-timestamp", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "verify.json").read_text())
    assert doc["passed"] is True
    assert set(doc["suites"]) == {"duality", "concavity"}


def test_verify_fault_injection_detected(tmp_path, monkeypatch):
    # the approximation suite looks rebalance up on the module, so it
    # checks these planes
    real = robust_lp.rebalance
    monkeypatch.setattr(robust_lp, "rebalance",
                        lambda *a, **k: with_negated_intercepts(real(*a, **k)))
    out = tmp_path / "out"
    rc = run_cli(["verify", "--suites", "approximation",
                  "--no-timestamp", "--out", str(out)])
    assert rc == 1
    doc = json.loads((out / "verify.json").read_text())
    assert doc["passed"] is False
    failures = doc["suites"]["approximation"]["failures"]
    assert any("hyperplane tangency broken" in str(row) for row in failures)


def test_verify_report_is_byte_stable(tmp_path):
    texts = []
    for run in (1, 2):
        out = tmp_path / f"run_{run}"
        assert run_cli(["verify", "--suites", "inner,concavity,survivability",
                        "--no-timestamp", "--out", str(out)]) == 0
        texts.append((out / "verify.json").read_bytes())
    first, second = texts
    assert first == second
    assert set(json.loads(first)["suites"]) == {"inner", "concavity",
                                                "survivability"}


@pytest.mark.parametrize("command", ["partition", "solve", "backtest"])
def test_seed_is_a_verify_option_only(tmp_path, capsys, command):
    # nothing random runs in these commands
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--config", config, "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_config_is_not_a_verify_option(capsys, monkeypatch):
    # verify reads no config file, so the parser refuses one
    monkeypatch.setattr(oracle, "run_all",
                        lambda *args, **kwargs: pytest.fail("ran a suite"))
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--suites", "concavity", "--config", "/no/such.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_only_the_verify_report_holds_a_seed(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["verify", "--seed", "7", "--suites", "inner",
                    "--no-timestamp", "--out", str(out)]) == 0
    assert json.loads((out / "verify.json").read_text())["seed"] == 7
    assert run_cli(["partition", "--eps-x", "1e-3", "--eps-c", "1e-3",
                    "--no-timestamp", "--out", str(out)]) == 0
    assert run_cli(["solve", "--config", config, "--no-timestamp",
                    "--out", str(out)]) == 0
    for name in ("partition.json", "solve.json"):
        assert "seed" not in json.loads((out / name).read_text())


def test_verify_repeated_suite_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "verify_inner",
                        lambda seed: pytest.fail("ran a suite"))
    rc = run_cli(["verify", "--suites", "inner,duality,inner"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: suites named more than once: ['inner']\n")


def test_verify_suite_fault_is_not_a_usage_error(monkeypatch):
    # verify checks its flags before any suite runs, so a ValueError from a
    # suite is a fault: it ends with a traceback and exit 1, not exit 2
    def broken(seed):
        raise ValueError("boom inside a suite")

    monkeypatch.setattr(oracle, "verify_inner", broken)
    with pytest.raises(ValueError, match="boom inside a suite"):
        run_cli(["verify", "--suites", "inner"])


def test_verify_negative_seed_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "verify_inner",
                        lambda seed: pytest.fail("ran a suite"))
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--seed", "-1", "--suites", "inner"])
    assert exc.value.code == 2
    assert "--seed -1" in capsys.readouterr().err


def test_verify_unknown_suite(capsys):
    rc = run_cli(["verify", "--suites", "nonsense"])
    assert rc == 2
    assert "nonsense" in capsys.readouterr().err


def test_verify_empty_suites(capsys):
    rc = run_cli(["verify", "--suites", ""])
    assert rc == 2
    assert "suite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# error handling and packaging
# ---------------------------------------------------------------------------


def test_missing_config_file(capsys):
    rc = run_cli(["solve", "--config", "/no/such/config.json"])
    assert rc == 2
    assert "/no/such/config.json" in capsys.readouterr().err


def test_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = run_cli(["solve", "--config", str(bad)])
    assert rc == 2
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("solve", {"budget": {"eps_x": "small"}}),
        ("solve", {"constraints": {"leverage": None}}),
        ("solve", {"data": {"periods_per_year": None}}),
        ("backtest", {"utility": {"kind": "power", "delta": [0.5]}}),
        # an integer beyond the float range
        ("solve", {"constraints": {"leverage": 10 ** 400}}),
    ],
    ids=["budget-eps_x", "leverage", "periods_per_year", "utility-delta",
         "leverage-huge-int"],
)
def test_config_value_of_wrong_type(tmp_path, capsys, command, overrides):
    config = write_config(tmp_path, **overrides)
    rc = run_cli([command, "--config", config])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: bad config value")


@pytest.mark.parametrize("section, key, literal", [
    ("constraints", "leverage", "NaN"),
    ("constraints", "leverage", "Infinity"),
    ("constraints", "leverage", "1e400"),  # json reads it as inf
    ("constraints", "cost_rate", "NaN"),
    ("utility", "beta", "Infinity"),
], ids=["leverage-nan", "leverage-inf", "leverage-1e400", "cost_rate-nan",
        "beta-inf"])
def test_non_finite_config_number_is_a_usage_error(tmp_path, capsys,
                                                   monkeypatch, section, key,
                                                   literal):
    config = write_config(tmp_path, **{section: {key: "VALUE"}})
    path = tmp_path / "config.json"
    path.write_text(path.read_text().replace('"VALUE"', literal))
    monkeypatch.setattr(backtest, "solve_rebalance",
                        lambda *a, **k: pytest.fail("solved a rebalance"))
    for command in ("solve", "backtest"):
        rc = run_cli([command, "--config", config])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: config value is not a finite number: {literal}\n")


@pytest.mark.parametrize("command, sweep, value", [
    ("solve", "gamma=0,nan", "nan"), ("backtest", "cost_rate=inf", "inf"),
], ids=["solve", "backtest"])
def test_non_finite_sweep_value_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                 command, sweep, value):
    config = write_config(tmp_path)
    monkeypatch.setattr(backtest, "solve_rebalance",
                        lambda *a, **k: pytest.fail("solved a rebalance"))
    rc = run_cli([command, "--config", config, "--sweep", sweep])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: sweep value is not a finite number: {value}\n")


@pytest.mark.parametrize("command", ["solve", "backtest"])
@pytest.mark.parametrize("per_year", [0, -5])
def test_periods_per_year_below_one_is_a_usage_error(tmp_path, capsys,
                                                     monkeypatch, command,
                                                     per_year):
    # no risk_free_annual, so only the Sharpe ratio would divide by it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": {"csv": FIXTURE, "periods_per_year": per_year},
        "backtest": {"train_window": 60, "rebalance_every": 20},
    }))
    monkeypatch.setattr(backtest, "solve_rebalance",
                        lambda *a, **k: pytest.fail("solved a rebalance"))
    rc = run_cli([command, "--config", str(config)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: bad config value: periods_per_year must be at least 1\n")


def test_config_defaults(tmp_path):
    # a config holding only the price file runs every default, with no
    # risk-free leg
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": {"csv": FIXTURE}}))
    returns, (cfg,) = read_config(str(config))
    assert returns.tickers == ("ALPHA", "BRAVO", "CHARLIE")
    assert cfg == backtest.BacktestConfig(
        train_window=126, rebalance_every=63, leverage=1.5, cost_rate=0.0,
        turnover_cost_limit=0.0, gamma=0.0, eps_x=1e-3, eps_c=1e-5,
        utility=SeparableUtility("log"), risk_free_annual=0.0,
        periods_per_year=252, allow_short=True)


@pytest.mark.parametrize("command", ["solve", "backtest", "partition"])
def test_config_rejects_bad_utility(tmp_path, capsys, monkeypatch, command):
    config = write_config(tmp_path, utility={"kind": "cubic"})
    monkeypatch.setattr(backtest, "solve_rebalance",
                        lambda *a, **k: pytest.fail("solved a rebalance"))
    monkeypatch.setattr(cli, "build_family",
                        lambda *a, **k: pytest.fail("built a family"))
    rc = run_cli([command, "--config", config])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: bad config value: unknown utility kind 'cubic'\n")


@pytest.mark.parametrize("overrides, message", [
    ({"constraints": {"allow_short": "false"}},
     'constraints.allow_short must be true or false, not "false"'),
    ({"backtest": {"train_window": 60.7}},
     "backtest.train_window must be an integer, not 60.7"),
    ({"backtest": {"rebalance_every": True}},
     "backtest.rebalance_every must be an integer, not true"),
    ({"utility": {"beta": "inf"}}, 'utility.beta must be a number, not "inf"'),
    ({"data": {"risk_free_annual": "nan"}},
     'data.risk_free_annual must be a number or null, not "nan"'),
    ({"constraints": {"turnover_cost_limit": 0.01}},
     "unknown key constraints.turnover_cost_limit"),
    ({"backtest": {"risk_free_annual": 0.03}},
     "unknown key backtest.risk_free_annual"),
    ({"solver": {"method": "highs"}}, "unknown section solver"),
    # partition takes its budgets and box from its flags only
    ({"partition": {"eps_x": 1e-3}}, "unknown section partition"),
], ids=["allow_short-string", "train_window-fraction", "rebalance_every-bool",
        "beta-string", "risk_free_annual-string", "unknown-key",
        "key-in-another-section", "unknown-section", "partition-section"])
def test_wrong_config_input_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                             overrides, message):
    config = write_config(tmp_path, **overrides)
    monkeypatch.setattr(backtest, "solve_rebalance",
                        lambda *a, **k: pytest.fail("solved a rebalance"))
    for command in ("solve", "backtest"):
        rc = run_cli([command, "--config", config])
        assert rc == 2
        assert capsys.readouterr().err == f"error: bad config value: {message}\n"


def test_readme_config_schema_is_the_reader_schema(tmp_path):
    # the README's schema block lists every key at its default, so it
    # loads to exactly the defaults the reader fills in
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("### Config schema")[1].split("```json")[1]
    document = json.loads(block.split("```")[0])
    document["data"]["csv"] = FIXTURE
    config = tmp_path / "readme.json"
    config.write_text(json.dumps(document))
    args = cli.build_parser().parse_args(["solve", "--config", str(config)])
    expected = json.loads(json.dumps(cli._SCHEMA))
    expected["data"]["csv"] = FIXTURE
    assert cli._load_config(args) == expected == document


def test_readme_library_quick_start_runs(capsys):
    # the README's one documented example of the library API runs as
    # written and prints the objective, the weights and the turnover
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("## Library quick start")[1].split("```python")[1]
    namespace = {}
    exec(compile(block.split("```")[0], "README.md", "exec"), namespace)
    sol = namespace["sol"]
    assert sol.status == "optimal"
    out = capsys.readouterr().out
    assert out.startswith(f"{sol.objective} [")
    assert out.endswith(f"] {namespace['diag']['turnover_l1']}\n")


def test_readme_cli_options_are_the_parser_options():
    # the README's CLI section names every option of every subcommand,
    # and no option that the parser lacks
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n")[1].split("\n## ")[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    commands, = (action.choices for action in cli.build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert set(commands) == {"partition", "solve", "backtest", "verify"}
    taken = {option for command in commands.values()
             for action in command._actions
             for option in action.option_strings
             if option.startswith("--") and option != "--help"}
    assert named == taken


@pytest.mark.parametrize("document", ["[]", '{"constraints": []}'],
                         ids=["top-level-list", "section-list"])
def test_config_sections_must_be_objects(tmp_path, capsys, document):
    bad = tmp_path / "bad.json"
    bad.write_text(document)
    for command in ("solve", "backtest", "partition"):
        rc = run_cli([command, "--config", str(bad)])
        assert rc == 2
        assert "must be a JSON object" in capsys.readouterr().err


def test_missing_data_file(tmp_path, capsys):
    config = write_config(tmp_path, data={"csv": "/no/such/prices.csv"})
    rc = run_cli(["solve", "--config", config])
    assert rc == 2
    assert "/no/such/prices.csv" in capsys.readouterr().err


@pytest.mark.parametrize("risk_free", [None, 0.02], ids=["risky", "with-rf"])
def test_price_file_with_no_usable_ticker_is_an_input_error(
        tmp_path, capsys, monkeypatch, risk_free):
    csv = tmp_path / "gaps.csv"
    csv.write_text("date,A,B\n2024-01-02,,50\n2024-01-03,101,49\n"
                   "2024-01-04,102,\n")
    config = tmp_path / "config.json"
    data_cfg = {"csv": str(csv)}
    if risk_free is not None:
        data_cfg["risk_free_annual"] = risk_free
    config.write_text(json.dumps({
        "data": data_cfg,
        "backtest": {"train_window": 2, "rebalance_every": 1},
    }))
    monkeypatch.setattr(backtest, "solve_rebalance",
                        lambda *a, **k: pytest.fail("solved a rebalance"))
    for command in ("solve", "backtest"):
        rc = run_cli([command, "--config", str(config)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: no ticker has both its first and last price: "
            "dropped A, B\n")


def test_console_script(tmp_path):
    exe = os.path.join(os.path.dirname(sys.executable), "dro-portfolio")
    cmd = [exe] if os.path.exists(exe) else \
        [sys.executable, "-m", "dro_portfolio.cli"]
    proc = subprocess.run(cmd + ["--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("partition", "solve", "backtest", "verify"):
        assert name in proc.stdout
    # one subcommand through the entry point: a minimal partition, where
    # removing any of its 150 interior points breaks the budget, and whose
    # stored planes touch f at their anchors
    out = tmp_path / "out"
    proc = subprocess.run(cmd + ["partition", "--eps-x", "1e-6", "--eps-c",
                                 "1e-6", "--no-timestamp", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((out / "partition.json").read_text())
    assert len(doc["removal_table"]) == 150
    assert all(row["error_violation"] for row in doc["removal_table"])
    assert doc["tangency_residual"] <= 1e-12
