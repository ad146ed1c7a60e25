"""End-to-end tests for the command-line interface.

Each test drives ``cli.main`` in process and inspects the files it
writes; one test goes through the installed console script to cover
the packaging entry point.
"""

import datetime
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dro_portfolio import backtest, cli, data, robust_lp
from dro_portfolio.ambiguity import from_gamma
from dro_portfolio.partition import ErrorBudget
from dro_portfolio.utility import SeparableUtility

from conftest import crash_market, with_contradictory_leverage

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "two_regime.csv")


def run_cli(argv):
    return cli.main(argv)


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


def test_partition_flags_override_config(tmp_path):
    cfg = tmp_path / "part.json"
    cfg.write_text(json.dumps({
        "partition": {"eps_x": 1e-3, "eps_c": 1e-3, "x_min": -0.2, "x_max": 0.2},
    }))
    out = tmp_path / "out"
    rc = run_cli([
        "partition", "--config", str(cfg), "--eps-x", "1e-4",
        "--x-min", "-0.05", "--x-max", "0.05",
        "--no-timestamp", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads((out / "partition.json").read_text())
    assert doc["eps_x"] == 1e-4
    assert doc["eps_c"] == 1e-3

    wide = tmp_path / "wide"
    rc = run_cli([
        "partition", "--config", str(cfg), "--eps-x", "1e-4",
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
    returns = data.append_risk_free(
        data.compute_returns(data.interpolate_missing(data.load_prices(FIXTURE))),
        0.02, 252,
    )
    cfg = backtest.BacktestConfig.from_config(
        json.loads((tmp_path / "config.json").read_text()))
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


@pytest.mark.parametrize(
    "command, sweep",
    [("solve", "gamma=0,0.5"), ("backtest", "cost_rate=0,0.005")],
    ids=["solve", "backtest"],
)
def test_sweep_matches_across_worker_counts(tmp_path, monkeypatch, command, sweep):
    config = write_config(tmp_path)
    outs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        out = tmp_path / f"cpus_{cpus}"
        assert run_cli([command, "--config", config, "--sweep", sweep,
                        "--no-timestamp", "--out", str(out)]) == 0
        outs.append(out)
    serial, parallel = outs
    names = sorted(os.listdir(serial))
    assert names == sorted(os.listdir(parallel))
    assert len([n for n in names if n.endswith(".json")]) == 2
    for name in names:
        a, b = (serial / name).read_text(), (parallel / name).read_text()
        if name.endswith(".json"):
            a, b = json.loads(a), json.loads(b)
            for timing in ("solve_time_ms", "avg_solve_time"):  # wall clock
                a.pop(timing, None), b.pop(timing, None)
        assert a == b, name


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


def test_verify_fault_injection_detected(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(["verify", "--suites", "approximation", "--fault-inject",
                  "--no-timestamp", "--out", str(out)])
    assert rc == 1
    doc = json.loads((out / "verify.json").read_text())
    assert doc["passed"] is False
    failures = doc["suites"]["approximation"]["failures"]
    assert any("hyperplane tangency broken" in str(row) for row in failures)


def test_verify_matches_across_worker_counts(tmp_path, monkeypatch):
    texts = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        out = tmp_path / f"cpus_{cpus}"
        assert run_cli(["verify", "--suites", "inner,concavity,survivability",
                        "--no-timestamp", "--out", str(out)]) == 0
        texts.append((out / "verify.json").read_bytes())
    serial, parallel = texts
    assert serial == parallel
    assert set(json.loads(serial)["suites"]) == {"inner", "concavity",
                                                 "survivability"}


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
        ("partition", {"partition": {"eps_x": "small", "eps_c": 1e-3}}),
        ("solve", {"constraints": {"leverage": None}}),
        ("solve", {"data": {"periods_per_year": None}}),
        ("backtest", {"utility": {"kind": "power", "delta": [0.5]}}),
    ],
    ids=["partition-eps_x", "leverage", "periods_per_year", "utility-delta"],
)
def test_config_value_of_wrong_type(tmp_path, capsys, command, overrides):
    config = write_config(tmp_path, **overrides)
    rc = run_cli([command, "--config", config])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: bad config value")


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


def test_console_script():
    exe = os.path.join(os.path.dirname(sys.executable), "dro-portfolio")
    cmd = [exe] if os.path.exists(exe) else \
        [sys.executable, "-m", "dro_portfolio.cli"]
    proc = subprocess.run(cmd + ["--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("partition", "solve", "backtest", "verify"):
        assert name in proc.stdout
