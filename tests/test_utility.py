"""Utility family: values against stdlib math, derivatives against finite differences."""
import json
import math

import numpy as np
import pytest

from dro_portfolio import SeparableUtility, UtilityDomainError, cli

from conftest import TWO_REGIME_CSV


def central_diff(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def test_log_values_match_math():
    u = SeparableUtility("log", alpha=1.0, beta=1.0)
    for x in (-0.3, 0.0, 0.25, 1.7):
        assert u.phi1(x) == pytest.approx(math.log1p(x), abs=1e-15)
    for c in (0.0, 0.01, 0.4):
        assert u.phi2(c) == pytest.approx(math.log(1.0 - c), abs=1e-15)
    assert u.eval_f(0.2, 0.01) == pytest.approx(
        math.log1p(0.2) + math.log(0.99), abs=1e-15
    )


def test_alpha_beta_scale_the_two_terms():
    u = SeparableUtility("log", alpha=2.0, beta=0.5)
    assert u.eval_f(0.3, 0.02) == pytest.approx(
        2.0 * math.log1p(0.3) + 0.5 * math.log(0.98), rel=1e-14
    )


@pytest.mark.parametrize(
    "u",
    [
        SeparableUtility("log"),
        SeparableUtility("power", delta=0.5),
        SeparableUtility("power", delta=0.17),
        SeparableUtility("crra", theta=2.0),
        SeparableUtility("crra", theta=4.5),
    ],
)
def test_derivatives_match_finite_differences(u):
    for x in (-0.4, -0.05, 0.0, 0.3, 1.2):
        assert u.phi1_prime(x) == pytest.approx(
            central_diff(u.phi1, x), rel=1e-6
        )
    for c in (0.001, 0.01, 0.3):
        assert u.phi2_prime(c) == pytest.approx(
            central_diff(u.phi2, c), rel=1e-6
        )


@pytest.mark.parametrize(
    "u",
    [
        SeparableUtility("log"),
        SeparableUtility("power", delta=0.5),
        SeparableUtility("crra", theta=3.0),
    ],
)
def test_phi1_increasing_and_concave(u):
    xs = np.linspace(-0.6, 2.0, 200)
    vals = np.array([u.phi1(x) for x in xs])
    d1 = np.diff(vals)
    assert (d1 > 0).all()
    assert (np.diff(d1) < 1e-12).all()


def test_phi2_decreasing_in_cost():
    for u in (SeparableUtility("log"), SeparableUtility("power", delta=0.5)):
        cs = np.linspace(0.0, 0.8, 100)
        vals = np.array([u.phi2(c) for c in cs])
        assert (np.diff(vals) < 0).all()


def test_vectorized_evaluation():
    u = SeparableUtility("power", delta=0.5)
    x = np.array([-0.1, 0.0, 0.5])
    out = u.phi1(x)
    assert out.shape == x.shape
    assert out[1] == pytest.approx(u.phi1(0.0))


def test_domain_errors():
    u = SeparableUtility("log")
    with pytest.raises(UtilityDomainError):
        u.phi1(-1.0)
    with pytest.raises(UtilityDomainError):
        u.phi1(-1.5)
    with pytest.raises(UtilityDomainError):
        u.phi2(1.0)
    with pytest.raises(UtilityDomainError):
        u.phi2(-0.01)
    with pytest.raises(UtilityDomainError):
        u.eval_f(-1.2, 0.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        SeparableUtility("power", delta=1.0)
    with pytest.raises(ValueError):
        SeparableUtility("power", delta=0.0)
    with pytest.raises(ValueError):
        SeparableUtility("crra", theta=1.0)
    with pytest.raises(ValueError, match="crra family needs theta > 1"):
        SeparableUtility("crra", theta=float("inf"))
    with pytest.raises(ValueError):
        SeparableUtility("log", alpha=0.0)
    with pytest.raises(ValueError):
        SeparableUtility("nope")


def test_crra_value_formula():
    theta = 3.0
    u = SeparableUtility("crra", theta=theta)
    x = 0.4
    assert u.phi1(x) == pytest.approx(
        (1.0 + x) ** (1.0 - theta) / (1.0 - theta), rel=1e-14
    )


def test_from_config_round_trip(tmp_path):
    # the utility section of a config file reaches the run config as given
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": {"csv": TWO_REGIME_CSV},
        "utility": {"kind": "power", "alpha": 1.5, "beta": 2.0, "delta": 0.3},
    }))
    args = cli.build_parser().parse_args(["solve", "--config", str(config)])
    _, (run,) = cli._run_configs(args, "cost_rate", None)
    u = run.utility
    assert u == SeparableUtility("power", alpha=1.5, beta=2.0, delta=0.3)
    assert u.kind == "power" and u.delta == 0.3 and u.alpha == 1.5


@pytest.mark.parametrize(
    "u, phi2, phi2_prime",
    [
        (SeparableUtility("log"), lambda c: np.log1p(-c),
         lambda c: -1.0 / (1.0 - c)),
        (SeparableUtility("power", delta=0.37), lambda c: (1.0 - c) ** 0.37,
         lambda c: -0.37 * (1.0 - c) ** (0.37 - 1.0)),
        (SeparableUtility("crra", theta=1.7),
         lambda c: (1.0 - c) ** (1.0 - 1.7) / (1.0 - 1.7),
         lambda c: -((1.0 - c) ** -1.7)),
    ],
    ids=["log", "power", "crra"],
)
def test_phi2_mirrors_the_closed_forms_bit_for_bit(u, phi2, phi2_prime):
    # phi2(c) = phi1(-c) rounds as the closed forms in 1 - c do
    rng = np.random.default_rng(9)
    cs = np.concatenate([[0.0], rng.uniform(0.0, 1.0, 20_000)])
    for got, want in ((u.phi2(cs), phi2(cs)), (u.phi2_prime(cs), phi2_prime(cs))):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    # scalars, and the sign of zero at c = 0 (log1p(-0.0) is -0.0)
    assert math.copysign(1.0, u.phi2(0.0)) == math.copysign(1.0, phi2(0.0))
    assert u.phi2(0.3) == phi2(0.3) and u.phi2_prime(0.3) == phi2_prime(0.3)
