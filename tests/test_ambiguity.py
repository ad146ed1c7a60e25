"""Polyhedral probability families and the contamination construction."""
import numpy as np
import pytest

import dro_portfolio as dp
from dro_portfolio import InfeasibleAmbiguityError, PolyhedralAmbiguitySet
from dro_portfolio import highs, oracle, robust_lp


def test_gamma_set_matrices():
    # total mass 1 is implicit in the formulation, so the contamination
    # family needs no equality rows: just p >= (1-gamma) p_hat elementwise
    p_hat = np.array([0.5, 0.3, 0.2])
    amb = dp.from_gamma(p_hat, 0.4)
    assert amb.m == 3
    assert amb.A0.shape == (0, 3)
    np.testing.assert_allclose(amb.A1, -np.eye(3))
    np.testing.assert_allclose(amb.d1, -(1.0 - 0.4) * p_hat)
    assert amb.gamma == 0.4
    np.testing.assert_allclose(amb.p_hat, p_hat)


def test_membership_of_reference_and_vertices():
    p_hat = np.array([0.4, 0.35, 0.25])
    gamma = 0.3
    amb = dp.from_gamma(p_hat, gamma)
    assert dp.contains(amb, p_hat)
    for j in range(3):
        vertex = (1.0 - gamma) * p_hat + gamma * np.eye(3)[j]
        assert dp.contains(amb, vertex)
    # pushing more than gamma of mass onto one point leaves the family
    too_far = (1.0 - gamma) * p_hat + gamma * np.eye(3)[0]
    too_far = too_far + np.array([0.05, -0.05, 0.0])
    assert not dp.contains(amb, too_far)


def test_gamma_zero_is_singleton():
    p_hat = np.array([0.6, 0.4])
    amb = dp.from_gamma(p_hat, 0.0)
    assert dp.contains(amb, p_hat)
    assert not dp.contains(amb, np.array([0.7, 0.3]))


def test_gamma_one_is_full_simplex():
    p_hat = np.array([0.6, 0.4])
    amb = dp.from_gamma(p_hat, 1.0)
    assert dp.contains(amb, np.array([1.0, 0.0]))
    assert dp.contains(amb, np.array([0.0, 1.0]))
    assert not dp.contains(amb, np.array([1.1, -0.1]))


def test_membership_requires_simplex():
    amb = dp.from_gamma(np.array([0.5, 0.5]), 0.5)
    assert not dp.contains(amb, np.array([0.6, 0.6]))
    assert not dp.contains(amb, np.array([1.2, -0.2]))


def test_gamma_validation():
    with pytest.raises(ValueError):
        dp.from_gamma(np.array([0.5, 0.5]), -0.1)
    with pytest.raises(ValueError):
        dp.from_gamma(np.array([0.5, 0.5]), 1.5)
    with pytest.raises(ValueError):
        dp.from_gamma(np.array([0.7, 0.4]), 0.5)  # not a distribution
    with pytest.raises(ValueError):
        dp.from_gamma(np.array([1.2, -0.2]), 0.5)


def test_infeasible_polyhedron_rejected():
    # equality rows demand total mass 1 and 0.5 at once
    with pytest.raises(InfeasibleAmbiguityError):
        PolyhedralAmbiguitySet(
            A0=np.array([[1.0, 1.0], [1.0, 1.0]]),
            d0=np.array([1.0, 0.5]),
            A1=np.zeros((0, 2)),
            d1=np.zeros(0),
            m=2,
        )


def test_block_of_another_scenario_count_is_rejected():
    # a (2, 6) block built for six scenarios must not pass as a (4, 3) one
    with pytest.raises(ValueError, match="A1"):
        PolyhedralAmbiguitySet(
            A0=np.zeros((0, 3)), d0=np.zeros(0),
            A1=np.ones((2, 6)), d1=np.ones(4), m=3,
        )
    with pytest.raises(ValueError, match="A0"):
        PolyhedralAmbiguitySet(
            A0=np.ones((1, 2)), d0=np.ones(1),
            A1=np.zeros((0, 3)), d1=np.zeros(0), m=3,
        )
    # a 1-D row of length m is one row; empty blocks have no rows
    amb = PolyhedralAmbiguitySet(
        A0=np.ones(3), d0=np.ones(1), A1=np.zeros(0), d1=np.zeros(0), m=3,
    )
    assert amb.A0.shape == (1, 3) and amb.A1.shape == (0, 3)


def test_custom_polyhedron_membership():
    # simplex slice: p_1 >= 0.25
    amb = PolyhedralAmbiguitySet(
        A0=np.ones((1, 3)),
        d0=np.array([1.0]),
        A1=np.array([[-1.0, 0.0, 0.0]]),
        d1=np.array([-0.25]),
        m=3,
    )
    assert dp.contains(amb, np.array([0.3, 0.3, 0.4]))
    assert not dp.contains(amb, np.array([0.2, 0.4, 0.4]))
    assert amb.n_eq == 1 and amb.n_ineq == 1


def test_from_gamma_needs_no_phase_one_lp(monkeypatch):
    # p_hat is a member of its own contamination set, which proves it nonempty
    def no_lp(*args, **kwargs):
        raise AssertionError("phase-1 LP run for a set with a member")

    monkeypatch.setattr(highs, "minimize", no_lp)
    for gamma in (0.0, 0.3, 1.0):
        amb = dp.from_gamma(np.array([0.5, 0.3, 0.2]), gamma)
        assert dp.contains(amb, amb.p_hat)


def test_gamma_needs_the_rows_from_gamma_builds(monkeypatch, log_utility):
    # the oracles read a recorded gamma as the closed form
    # (1 - gamma) p_hat'q + gamma min q, whatever the rows say
    scen = dp.ScenarioSet.uniform([[0.10], [0.05], [-0.08], [0.02]])
    p_hat = scen.probabilities
    con = robust_lp.TradingConstraintSet.uniform(
        1, leverage=1.0, cost_rate=0.0, turnover_cost_limit=0.0,
        allow_short=False)
    honest = dp.from_gamma(p_hat, 0.0)
    k, value = oracle.exact_small_solve(scen, honest, con, np.zeros(1),
                                        log_utility)
    assert k[0] == 1.0 and value == pytest.approx(0.0201, abs=1e-4)

    def no_lp(*args, **kwargs):
        raise AssertionError("the gamma check ran an LP")

    monkeypatch.setattr(highs, "minimize", no_lp)
    rows = dict(A0=honest.A0, d0=honest.d0, A1=honest.A1, d1=honest.d1, m=4)
    with pytest.raises(ValueError, match="gamma"):
        PolyhedralAmbiguitySet(**rows, gamma=1.0, p_hat=p_hat)
    with pytest.raises(ValueError, match="gamma"):
        PolyhedralAmbiguitySet(**rows, gamma=0.0)
    with pytest.raises(ValueError, match="gamma"):
        PolyhedralAmbiguitySet(**dict(rows, A1=-2.0 * np.eye(4)), gamma=0.0,
                               p_hat=p_hat)
    amb = PolyhedralAmbiguitySet(**rows, gamma=0.0, p_hat=p_hat)
    assert amb.gamma == 0.0


def test_recorded_point_outside_the_set_still_runs_the_lp(monkeypatch):
    calls = []
    real = highs.minimize

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(highs, "minimize", counted)
    # p_1 >= 0.75 is nonempty, but the recorded p_hat is not in it
    amb = PolyhedralAmbiguitySet(
        A0=np.zeros((0, 2)),
        d0=np.zeros(0),
        A1=np.array([[-1.0, 0.0]]),
        d1=np.array([-0.75]),
        m=2,
        p_hat=np.array([0.5, 0.5]),
    )
    assert len(calls) == 1
    assert not dp.contains(amb, amb.p_hat)
    # an empty set has no member to record, so the LP must refuse it
    with pytest.raises(InfeasibleAmbiguityError):
        PolyhedralAmbiguitySet(
            A0=np.array([[1.0, 1.0], [1.0, 1.0]]),
            d0=np.array([1.0, 0.5]),
            A1=np.zeros((0, 2)),
            d1=np.zeros(0),
            m=2,
            p_hat=np.array([0.5, 0.5]),
        )
    assert len(calls) == 2
