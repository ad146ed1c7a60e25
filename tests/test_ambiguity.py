"""Polyhedral probability families and the contamination construction."""
import numpy as np
import pytest
import scipy.sparse as sp

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
    np.testing.assert_allclose(amb.floor, (1.0 - 0.4) * p_hat)


def test_lp_rows_match_the_dense_stack():
    # lp_rows builds its matrix from the nonzeros; it must equal the CSR of
    # the dense stack [A1; A0; 1'] entry for entry, zeros dropped, in the
    # same row order
    rng = np.random.default_rng(3)
    m = 7
    p_hat = rng.dirichlet(np.ones(m))
    A0 = rng.normal(size=(2, m))
    A0[0, 3] = 0.0
    A1 = np.vstack([-np.eye(m), rng.normal(size=(1, m))])
    A1[-1, :2] = 0.0
    general = PolyhedralAmbiguitySet(A0=A0, d0=A0 @ p_hat, A1=A1,
                                     d1=A1 @ p_hat + 0.05, m=m)
    for amb in (dp.from_gamma(p_hat, 0.3), general):
        (A,) = amb.lp_rows()["blocks"]
        dense = sp.csr_matrix(np.vstack([amb.A1, amb.A0, np.ones((1, m))]))
        assert A.shape == dense.shape
        for field in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(A, field),
                                          getattr(dense, field))


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
    # a floor that sums to at most 1 proves its set nonempty
    def no_lp(*args, **kwargs):
        raise AssertionError("phase-1 LP run for a floor set")

    monkeypatch.setattr(highs, "minimize", no_lp)
    p_hat = np.array([0.5, 0.3, 0.2])
    for gamma in (0.0, 0.3, 1.0):
        amb = dp.from_gamma(p_hat, gamma)
        assert dp.contains(amb, p_hat)


def test_recorded_point_outside_the_set_still_runs_the_lp(monkeypatch):
    calls = []
    real = highs.minimize

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(highs, "minimize", counted)
    # p_1 >= 0.75 is nonempty, and (0.5, 0.5) is not in it; it is not a
    # floor set (A1 is not -I), so only the LP can show it nonempty
    amb = PolyhedralAmbiguitySet(
        A0=np.zeros((0, 2)),
        d0=np.zeros(0),
        A1=np.array([[-1.0, 0.0]]),
        d1=np.array([-0.75]),
        m=2,
    )
    assert len(calls) == 1
    assert amb.floor is None
    assert not dp.contains(amb, np.array([0.5, 0.5]))
    # an empty set has no member, so the LP must refuse it
    with pytest.raises(InfeasibleAmbiguityError):
        PolyhedralAmbiguitySet(
            A0=np.array([[1.0, 1.0], [1.0, 1.0]]),
            d0=np.array([1.0, 0.5]),
            A1=np.zeros((0, 2)),
            d1=np.zeros(0),
            m=2,
        )
    assert len(calls) == 2


def test_hand_built_floor_set_takes_the_closed_form(log_utility):
    # the rows alone make a floor set: this one is from_gamma(p_hat, 0)
    # written out, and the grid scan reads its floor as that set's
    scen = dp.ScenarioSet.uniform([[0.10], [0.05], [-0.08], [0.02]])
    p_hat = scen.probabilities
    hand = PolyhedralAmbiguitySet(A0=np.zeros((0, 4)), d0=np.zeros(0),
                                  A1=-np.eye(4), d1=-p_hat, m=4)
    np.testing.assert_array_equal(hand.floor, p_hat)
    con = robust_lp.TradingConstraintSet.uniform(
        1, leverage=1.0, cost_rate=0.0, turnover_cost_limit=0.0,
        allow_short=False)
    for amb in (hand, dp.from_gamma(p_hat, 0.0)):
        k, value = oracle.exact_small_solve(scen, amb, con, np.zeros(1),
                                            log_utility)
        assert k[0] == 1.0 and value == pytest.approx(0.0201, abs=1e-4)


def test_floor_closed_form_matches_the_lp():
    # random floors with zeros, some summing to 1, some with a redundant
    # row p_j >= -d1_j < 0; q with -inf entries the set can and cannot weight
    rng = np.random.default_rng(11)
    seen = {"-inf": 0, "finite with -inf": 0}
    for _ in range(300):
        m = int(rng.integers(2, 10))
        floor = rng.dirichlet(np.ones(m)) * rng.choice([0.0, 0.4, 0.9, 1.0])
        floor[rng.uniform(size=m) < 0.3] = 0.0
        if rng.uniform() < 0.3:
            floor /= max(floor.sum(), 1e-300)  # all the mass on the floor
        d1 = np.where((floor == 0.0) & (rng.uniform(size=m) < 0.5), 0.1, -floor)
        amb = PolyhedralAmbiguitySet(A0=np.zeros((0, m)), d0=np.zeros(0),
                                     A1=-np.eye(m), d1=d1, m=m)
        assert amb.floor is not None
        Q = rng.normal(0.0, 0.2, size=(4, m))
        Q[rng.uniform(size=Q.shape) < 0.15] = -np.inf
        batch = amb.worst_case(Q)
        for q, closed in zip(Q, batch):
            assert amb.worst_case(q) == pytest.approx(closed, abs=1e-15)
            value, _ = amb.lp_worst_case(q)
            if value == -np.inf or closed == -np.inf:
                assert value == closed
                seen["-inf"] += 1
            else:
                assert closed == pytest.approx(value, abs=1e-9)
                seen["finite with -inf"] += bool(np.isinf(q).any())
    assert min(seen.values()) >= 20


def test_floor_above_one_is_empty(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("a floor set ran the phase-1 LP")

    monkeypatch.setattr(highs, "minimize", no_lp)
    rows = dict(A0=np.zeros((0, 3)), d0=np.zeros(0), A1=-np.eye(3), m=3)
    for d1 in ([-0.5, -0.4, -0.2], [-0.5, np.nan, 0.0], [-np.inf, 0.0, 0.0]):
        with pytest.raises(InfeasibleAmbiguityError):
            PolyhedralAmbiguitySet(**rows, d1=np.array(d1))
    # within contains' 1e-9 of 1, the floor itself is a member
    amb = PolyhedralAmbiguitySet(**rows, d1=np.array([-0.5, -0.3, -0.2 - 5e-10]))
    assert dp.contains(amb, amb.floor)


def test_nan_is_never_on_the_simplex():
    amb = dp.from_gamma(np.array([0.5, 0.3, 0.2]), 0.3)
    assert not dp.contains(amb, np.full(3, np.nan))
    assert not dp.contains(amb, np.array([0.5, np.nan, 0.2]))
    with pytest.raises(ValueError, match="simplex"):
        dp.from_gamma(np.array([0.5, np.nan, 0.5]), 0.3)
    with pytest.raises(ValueError, match="simplex"):
        dp.from_gamma(np.full(2, np.nan), 0.3)


@pytest.mark.parametrize("q", [[np.nan, 0.1], [np.inf, 0.1], [np.nan, -np.inf],
                               [np.inf, -np.inf], [np.inf, np.inf]],
                         ids=["nan", "inf", "nan-minus-inf", "inf-minus-inf",
                              "all-inf"])
def test_nan_and_plus_inf_in_q_are_refused_by_both_routes(q):
    # only -inf has a meaning (a scenario outside the utility domain); the
    # floor set takes the closed form, the general one (its redundant row
    # p_1 <= 1 makes it no floor set) the LP, and lp_worst_case always the LP
    floor_set = dp.from_gamma([0.5, 0.5], 0.3)
    general = PolyhedralAmbiguitySet(
        A0=np.zeros((0, 2)), d0=np.zeros(0), A1=np.vstack([-np.eye(2), [1.0, 0.0]]),
        d1=[-0.35, -0.35, 1.0], m=2)
    assert floor_set.floor is not None and general.floor is None
    for amb in (floor_set, general):
        for route in (amb.worst_case, amb.lp_worst_case):
            with pytest.raises(ValueError, match="NaN or \\+inf"):
                route(np.array(q))
        # a batch is refused when any of its rows holds one
        with pytest.raises(ValueError, match="NaN or \\+inf"):
            amb.worst_case(np.array([[0.2, 0.1], q, [-np.inf, 0.3]]))
        assert amb.worst_case([-np.inf, 0.1]) == -np.inf
