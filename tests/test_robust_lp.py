"""Robust LP assembly and solution: structure audits and math oracles."""
import dataclasses
import functools
import json
import math
import os

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

import dro_portfolio as dp
from dro_portfolio import SolutionStatusError, highs, robust_lp
from dro_portfolio import oracle

from conftest import small_family, with_contradictory_leverage
from reference_lp import assemble_product, assemble_whole, return_leg_planes

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "reference.json")


def golden_section_max(fn, lo, hi, tol=1e-12):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
        else:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
    return 0.5 * (a + b), fn(0.5 * (a + b))


def test_kelly_single_asset(kelly_instance, log_utility):
    scen, amb, con = kelly_instance
    # independent oracle: maximize 0.5 ln(1+0.1 k) + 0.5 ln(1-0.05 k)
    k_star, v_star = golden_section_max(
        lambda k: 0.5 * math.log1p(0.1 * k) + 0.5 * math.log1p(-0.05 * k),
        0.0,
        10.0,
    )
    # the objective is flat near the top, so the argmax is only good to
    # about sqrt(machine eps / curvature); the value itself is exact
    assert k_star == pytest.approx(5.0, abs=1e-6)

    fam = small_family(log_utility, scen, con, budget_x=1e-8, budget_c=1e-8)
    model = robust_lp.assemble(scen, fam, amb, con, np.zeros(1))
    sol = robust_lp.solve(model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(v_star, abs=2e-8 + 1e-8)
    assert sol.weights[0] == pytest.approx(5.0, abs=5e-3)


def all_cut_rows(model):
    """The model's m*L return-leg cuts as (A, b): held, or from its family."""
    lo, hi = model.row_sections["cuts_x"]
    cuts = model.cut_family
    if cuts is None:
        return model.A_ub[lo:hi], model.b_ub[lo:hi]
    m, L = model.b_eq.size, cuts.a.size
    j, l = np.repeat(np.arange(m), L), np.tile(np.arange(L), m)
    return robust_lp._rows([cuts.rows(j, l)], model.layout.nv), cuts.gamma_x[l]


def test_row_count_matches_prediction(log_utility):
    rng = np.random.default_rng(2)
    for holding in (False, True, False, True):
        scen, amb, con = oracle.random_small_instance(rng, cost_rate=0.002)
        if holding:
            con = dataclasses.replace(con, holding_caps=np.full(scen.n, 0.8))
        fam = small_family(log_utility, scen, con, 1e-4, 1e-5)
        model = robust_lp.assemble(scen, fam, amb, con, np.zeros(scen.n))
        m, n = scen.m, scen.n
        L, R = fam.a.size, fam.b.size
        # cuts m*L, or one per scenario on demand, + R, leverage 1, caps n,
        # survival 1, turnover 2n, cost limit 1
        whole = L <= robust_lp._WHOLE_MAX_L
        assert (model.cut_family is None) == whole
        expected = ((m * L if whole else m) + R + 1 + (n if holding else 0)
                    + 1 + 2 * n + 1)
        assert model.n_rows == expected


def test_cut_rows_read_the_lifted_returns(log_utility):
    # each return-leg cut holds w, lam_j, s and y_j only: the contamination
    # set's shift (A1'lam)_j = -lam_j and the scenario return are
    # substituted in; each scenario's return is spelled out once, in its
    # equality row y_j - x^j'(K+ - K-) = 0
    rng = np.random.default_rng(3)
    for _ in range(4):
        scen, amb, con = oracle.random_small_instance(rng, cost_rate=0.002)
        fam = small_family(log_utility, scen, con, 1e-4, 1e-5)
        model = robust_lp.assemble(scen, fam, amb, con, np.zeros(scen.n))
        m, n, L, lay = scen.m, scen.n, fam.a.size, model.layout
        cuts, b = all_cut_rows(model)
        assert (np.diff(cuts.indptr) == 4).all()
        j = np.repeat(np.arange(m), L)
        np.testing.assert_array_equal(
            cuts.indices.reshape(-1, 4),
            np.column_stack([np.full(m * L, lay.w), lay.lam.start + j,
                             np.full(m * L, lay.s), lay.y.start + j]))
        np.testing.assert_array_equal(
            cuts.data.reshape(-1, 4),
            np.column_stack([np.ones((m * L, 2)), -np.ones(m * L),
                             -np.tile(fam.a, m)]))
        np.testing.assert_array_equal(b, np.tile(fam.gamma_x, m))
        # on demand, the model holds each scenario's plane lowest at y = 0
        lo, hi = model.row_sections["cuts_x"]
        if model.cut_family is not None:
            first = np.arange(m) * L + np.argmin(fam.gamma_x)
            assert (model.A_ub[lo:hi] != cuts[first]).nnz == 0
            np.testing.assert_array_equal(model.b_ub[lo:hi], b[first])
        assert lay.nv == 3 * n + 1 + m + 1 + m
        assert model.A_eq.shape == (m, lay.nv)
        assert (np.diff(model.A_eq.indptr) == 2 * n + 1).all()
        np.testing.assert_array_equal(model.b_eq, np.zeros(m))
        sol = robust_lp.solve(model)
        np.testing.assert_allclose(sol.x[lay.y], scen.scenarios @ sol.weights,
                                   rtol=0, atol=1e-12)


def moment_polytope(scen):
    """A0: a row of ones (d0 = 1); A1: p >= 0 plus one dense moment row
    sum_j p_j x_j1 >= mean of x_j1, which the worst case presses on."""
    X, m = scen.scenarios, scen.m
    return dp.PolyhedralAmbiguitySet(
        A0=np.ones((1, m)), d0=np.ones(1),
        A1=np.vstack([-np.eye(m), -X[:, 0]]),
        d1=np.concatenate([np.zeros(m), [-X[:, 0].mean()]]), m=m,
    )


def test_cut_rows_carry_a_general_polytope(log_utility):
    rng = np.random.default_rng(17)
    for _ in range(4):
        scen, _, con = oracle.random_small_instance(rng, cost_rate=0.002)
        m = scen.m
        amb = moment_polytope(scen)
        fam = small_family(log_utility, scen, con, 1e-5, 1e-5)
        k_prev = np.zeros(scen.n)
        model = robust_lp.assemble(scen, fam, amb, con, k_prev)
        lay, L = model.layout, fam.a.size
        cuts, b = all_cut_rows(model)
        A = np.vstack([amb.A0, amb.A1])
        j = np.repeat(np.arange(m), L)
        assert (np.diff(cuts.indptr) == 3 + np.count_nonzero(A, axis=0)[j]).all()
        dense, gamma = return_leg_planes(fam, amb, lay)
        np.testing.assert_array_equal(cuts.toarray(), dense.toarray())
        np.testing.assert_array_equal(b, gamma)

        sol = robust_lp.solve(model)
        assert sol.status == "optimal"
        assert sol.residual <= 1e-9
        inner, _ = amb.lp_worst_case(oracle.exact_q(
            log_utility, scen, sol.weights, k_prev, con.cost_vector))
        assert -1e-7 <= sol.objective - inner <= 2e-5 + 1e-7
        # the dual value reads nu off the equality row as well as lam
        gap = oracle.duality_gap(sol.weights, sol, scen, amb, log_utility)
        assert gap <= 1e-6 + 2e-5


def test_decomposed_agrees_with_product(log_utility):
    # the shared-intercept split must be exact, not an approximation: 50
    # random instances against the product-form reference, objectives
    # within 1e-9
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(50):
        cost = 0.003 if i % 2 == 0 else 0.0
        scen, amb, con = oracle.random_small_instance(rng, cost_rate=cost)
        k_prev = oracle._sample_feasible_weights(rng, scen, con, 1)[0] * 0.5
        fam = small_family(log_utility, scen, con, 1e-5, 1e-5)
        mp = assemble_product(scen, fam, amb, con, k_prev)
        md = robust_lp.assemble(scen, fam, amb, con, k_prev)
        m, L, R = scen.m, fam.a.size, fam.b.size
        lo, hi = md.row_sections["cuts_x"]
        assert hi - lo == (m if md.cut_family is not None else m * L)
        assert mp.n_rows - md.n_rows == m * L * R - (hi - lo + R)
        sp, sd = robust_lp.solve(mp), robust_lp.solve(md)
        assert sp.status == "optimal" and sd.status == "optimal"
        worst = max(worst, abs(sp.objective - sd.objective))
    assert worst <= 1e-9


@pytest.mark.parametrize("budget_x", [1e-4, 1e-5, 1e-6])
def test_on_demand_cuts_agree_with_the_whole_lp(log_utility, budget_x):
    # 14 to 196 planes per scenario: the cuts added on demand reach the
    # optimum of the LP that holds them all.  A held row meets HiGHS's
    # primal tolerance, so the whole-model residual is bounded by it; on
    # this draw it is at most 6.1e-9, and below 1e-16 on 17 of 18 LPs
    rng = np.random.default_rng(29)
    for i in range(6):
        scen, amb, con = oracle.random_small_instance(
            rng, cost_rate=0.002 if i % 2 else 0.0)
        k_prev = oracle._sample_feasible_weights(rng, scen, con, 1)[0] * 0.5
        fam = small_family(log_utility, scen, con, budget_x, 1e-5)
        model = robust_lp.assemble(scen, fam, amb, con, k_prev)
        whole_model = assemble_whole(scen, fam, amb, con, k_prev)
        m, L = scen.m, fam.a.size
        assert robust_lp._WHOLE_MAX_L < L <= 200
        demand = robust_lp.solve(model)
        whole = robust_lp.solve(whole_model)
        assert demand.status == whole.status == "optimal"
        assert demand.objective == pytest.approx(whole.objective, rel=0,
                                                 abs=1e-9)
        assert demand.residual <= robust_lp._CUT_TOL
        assert whole.rows_held == whole_model.n_rows + m
        assert demand.rows_held < whole.rows_held
        # every optimum returns its basis, over the rows HiGHS held
        for sol in (demand, whole):
            assert len(sol.basis.col_status) == model.layout.nv
            assert len(sol.basis.row_status) == sol.rows_held


def test_on_demand_lp_holds_fewer_than_all_cuts(log_utility):
    rng = np.random.default_rng(31)
    scen, amb, con = oracle.random_small_instance(rng, cost_rate=0.002)
    fam = small_family(log_utility, scen, con, 1e-6, 1e-5)
    model = robust_lp.assemble(scen, fam, amb, con, np.zeros(scen.n))
    m, L = scen.m, fam.a.size
    sol = robust_lp.solve(model)
    assert sol.status == "optimal"
    # every assembled row, which holds one cut per scenario, the m
    # equality rows, and the cuts added on demand
    assert model.row_sections["cuts_x"] == (0, m)
    cuts_held = sol.rows_held - (model.n_rows - m) - m
    assert m <= cuts_held < m * L
    # the whole LP's optimal basis has another row count, so HiGHS refuses
    # it: the same run, bit for bit
    basis = robust_lp.solve(
        assemble_whole(scen, fam, amb, con, np.zeros(scen.n))).basis
    with_start = robust_lp.solve(model, basis)
    assert with_start.iterations == sol.iterations
    np.testing.assert_array_equal(with_start.x, sol.x)


def test_on_demand_lp_matches_linprog_on_every_plane(log_utility):
    # the on-demand solve against linprog's dual simplex, presolve off, on
    # the LP that holds all m*L planes.  Each returned point meets the rows
    # HiGHS held within its primal tolerance delta = 1e-7, and the
    # on-demand point meets every other plane within _CUT_TOL = delta.
    # Raising every return-leg right-hand side by delta raises the optimum
    # by exactly delta (w, in every cut with coefficient 1, rises with
    # it), so the objectives lie within 2 delta.  At a unique optimum both
    # runs stop at one vertex, which a delta-feasible basis moves by about
    # delta; the weights are held to the same 2 delta.  The budgets stay
    # at or above 1e-6, where both runs end at the vertex itself (below
    # it HiGHS may stop anywhere within delta of it); on this draw the
    # objectives agree within 1.2e-16 and the weights within 1.7e-12
    tol = 2e-7
    rng = np.random.default_rng(43)
    for i in range(21):
        scen, amb, con = oracle.random_small_instance(
            rng, cost_rate=0.002 if i % 2 else 0.0)
        if i == 0:
            amb = moment_polytope(scen)
        k_prev = oracle._sample_feasible_weights(rng, scen, con, 1)[0] * 0.5
        fam = small_family(log_utility, scen, con, (1e-4, 1e-5, 1e-6)[i % 3],
                           1e-5)
        assert fam.a.size > robust_lp._WHOLE_MAX_L
        sol = robust_lp.solve(robust_lp.assemble(scen, fam, amb, con, k_prev))
        whole = assemble_whole(scen, fam, amb, con, k_prev)
        ref = linprog(-whole.c_max_objective, A_ub=whole.A_ub, b_ub=whole.b_ub,
                      A_eq=whole.A_eq, b_eq=whole.b_eq, bounds=whole.bounds,
                      method="highs-ds", options={"presolve": False})
        assert sol.status == "optimal" and ref.status == 0
        lay = whole.layout
        assert abs(sol.objective + ref.fun) <= tol
        assert np.max(np.abs(sol.weights - (ref.x[lay.kp] - ref.x[lay.km]))) <= tol


@pytest.mark.parametrize("polytope", ["contamination", "moment"])
def test_most_violated_plane_is_the_explicit_argmax(log_utility, polytope):
    # planted fault: the implicit family must pick, at any x, the plane and
    # the violation that the explicit block's A x - b gives, bit for bit,
    # ties to the lowest plane as argmax breaks them
    rng = np.random.default_rng(47)
    picked = set()
    for _ in range(6):
        scen, amb, con = oracle.random_small_instance(rng, cost_rate=0.002)
        if polytope == "moment":
            amb = moment_polytope(scen)
        fam = small_family(log_utility, scen, con, 1e-6, 1e-5)
        model = robust_lp.assemble(scen, fam, amb, con, np.zeros(scen.n))
        m, L, lay = scen.m, fam.a.size, model.layout
        A, b = return_leg_planes(fam, amb, lay)
        for _ in range(5):
            x = rng.normal(0.0, 0.1, lay.nv)
            # returns inside the box, so interior planes are the most violated
            x[lay.y] = rng.uniform(fam.x_points[0], fam.x_points[-1], m)
            violation = (A @ x - b).reshape(m, L)
            plane, worst = robust_lp._most_violated(model.cut_family, x)
            np.testing.assert_array_equal(plane, np.argmax(violation, axis=1))
            np.testing.assert_array_equal(worst, violation.max(axis=1))
            picked.update(plane.tolist())
    assert len(picked) > 20


def test_residual_covers_the_planes_never_held(log_utility, kelly_instance,
                                              monkeypatch):
    # planted fault: a cut loop that adds no cut stops at the first round's
    # optimum, which meets the held rows but not the planes left out: with
    # one plane per scenario the LP is linear in K and runs to the leverage
    # bound.  solve must see the worst of those planes and refuse the point
    scen, amb, con = kelly_instance
    fam = small_family(log_utility, scen, con, 1e-6, 1e-6)
    model = robust_lp.assemble(scen, fam, amb, con, np.zeros(1))
    points, real = [], robust_lp._run_highs

    def recorded(*args):
        res = real(*args)
        points.append(res.x)
        return res

    monkeypatch.setattr(robust_lp, "_CUT_TOL", np.inf)
    monkeypatch.setattr(robust_lp, "_run_highs", recorded)
    sol = robust_lp.solve(model)
    (x,) = points
    assert sol.status == "numerical"
    assert sol.rows_held == model.n_rows + scen.m  # no cut was added
    assert np.max(model.A_ub @ x - model.b_ub) <= 1e-7
    A, b = return_leg_planes(fam, amb, model.layout)
    assert sol.residual == np.max(A @ x - b) > robust_lp._RESIDUAL_TOL


def test_turnover_epigraph_is_tight(log_utility):
    rng = np.random.default_rng(5)
    scen, amb, con = oracle.random_small_instance(rng, cost_rate=0.004)
    while scen.n < 2:
        scen, amb, con = oracle.random_small_instance(rng, cost_rate=0.004)
    k_prev = oracle._sample_feasible_weights(rng, scen, con, 1)[0] * 0.6
    fam = small_family(log_utility, scen, con, 1e-5, 1e-5)
    model = robust_lp.assemble(scen, fam, amb, con, k_prev)
    sol = robust_lp.solve(model)
    lay = model.layout
    kp = sol.x[lay.kp]
    km = sol.x[lay.km]
    u_var = sol.x[lay.u]
    k = kp - km
    # u must dominate |K - K_prev|; with a positive cost vector the solver
    # has no reason to leave slack beyond tolerance
    assert (u_var >= np.abs(k - k_prev) - 1e-8).all()
    assert float(con.cost_vector @ u_var) == pytest.approx(
        float(con.cost_vector @ np.abs(k - k_prev)), abs=1e-7
    )


def test_objective_non_increasing_in_gamma(log_utility):
    rng = np.random.default_rng(9)
    scen, _, con = oracle.random_small_instance(rng, cost_rate=0.0)
    fam = small_family(log_utility, scen, con, 1e-6, 1e-6)
    prev = None
    for gamma in (0.0, 0.2, 0.5, 0.8, 1.0):
        amb = dp.from_gamma(scen.probabilities, gamma)
        model = robust_lp.assemble(scen, fam, amb, con, np.zeros(scen.n))
        sol = robust_lp.solve(model)
        if prev is not None:
            assert sol.objective <= prev + 1e-9
        prev = sol.objective


def test_deterministic_resolve(log_utility):
    rng = np.random.default_rng(13)
    scen, amb, con = oracle.random_small_instance(rng, cost_rate=0.002)
    k_prev = np.zeros(scen.n)
    fam = small_family(log_utility, scen, con, 1e-5, 1e-5)
    sols = []
    for _ in range(2):
        model = robust_lp.assemble(scen, fam, amb, con, k_prev)
        sols.append(robust_lp.solve(model))
    np.testing.assert_array_equal(sols[0].weights, sols[1].weights)
    assert sols[0].objective == sols[1].objective


def test_leverage_and_short_constraints(log_utility):
    rng = np.random.default_rng(21)
    scen, amb, _ = oracle.random_small_instance(rng, cost_rate=0.0)
    con = robust_lp.TradingConstraintSet.uniform(
        scen.n, leverage=1.2, cost_rate=0.0, turnover_cost_limit=0.0,
        allow_short=False,
    )
    fam = small_family(log_utility, scen, con, 1e-5, 1e-5)
    model = robust_lp.assemble(scen, fam, amb, con, np.zeros(scen.n))
    sol = robust_lp.solve(model)
    assert float(np.abs(sol.weights).sum()) <= 1.2 + 1e-8
    assert (sol.weights >= -1e-9).all()


def test_holding_caps_respected(log_utility):
    rng = np.random.default_rng(33)
    scen, amb, con = oracle.random_small_instance(rng, cost_rate=0.0)
    con = dataclasses.replace(con, holding_caps=np.full(scen.n, 0.25))
    fam = small_family(log_utility, scen, con, 1e-5, 1e-5)
    model = robust_lp.assemble(scen, fam, amb, con, np.zeros(scen.n))
    sol = robust_lp.solve(model)
    assert (np.abs(sol.weights) <= 0.25 + 1e-8).all()


def test_survival_constraint_bounds_worst_factor(log_utility):
    # heavy downside and generous leverage: the solver must still keep the
    # worst-case account factor non-negative
    X = np.array([[0.30, 0.25], [-0.45, -0.40], [0.05, 0.02]])
    scen = dp.ScenarioSet(
        scenarios=X,
        probabilities=np.full(3, 1.0 / 3),
        x_min=X.min(axis=0),
        x_max=X.max(axis=0),
    )
    amb = dp.from_gamma(scen.probabilities, 0.0)
    con = robust_lp.TradingConstraintSet.uniform(
        2, leverage=4.0, cost_rate=0.0, turnover_cost_limit=0.0
    )
    fam = small_family(log_utility, scen, con, 1e-5, 1e-5)
    model = robust_lp.assemble(scen, fam, amb, con, np.zeros(2))
    sol = robust_lp.solve(model)
    factors = 1.0 + scen.scenarios @ sol.weights
    assert (factors >= -1e-9).all()


def test_infeasible_model_reports_certificate_row(log_utility, kelly_instance,
                                                 monkeypatch):
    scen, amb, con = kelly_instance
    fam = small_family(log_utility, scen, con, 1e-6, 1e-6)
    model = robust_lp.assemble(scen, fam, amb, con, np.zeros(1))
    assert fam.a.size > robust_lp._WHOLE_MAX_L  # cuts added on demand
    # doctor the leverage row into a contradiction: sum of non-negative
    # magnitudes <= -1
    rows = model.row_sections["leverage"]
    bad = with_contradictory_leverage(model)

    def no_lp(*args):
        raise AssertionError("the diagnosis must not solve another LP")

    # the certificate comes from the dual ray of the run that failed
    monkeypatch.setattr(highs, "minimize", no_lp)
    sol = robust_lp.solve(bad)
    assert model.row_sections["cuts_x"] == (0, scen.m)
    assert sol.status == "infeasible"
    assert sol.weights is None
    assert sol.certificate_row == rows[0]
    with pytest.raises(SolutionStatusError):
        robust_lp.extract_weights(sol, bad.layout)


def test_prev_weights_must_be_feasible(log_utility, kelly_instance):
    scen, amb, con = kelly_instance
    fam = small_family(log_utility, scen, con, 1e-6, 1e-6)
    with pytest.raises(ValueError):
        robust_lp.assemble(scen, fam, amb, con, np.array([100.0]))


def test_extract_weights_diagnostics(log_utility):
    rng = np.random.default_rng(41)
    scen, amb, con = oracle.random_small_instance(rng, cost_rate=0.002)
    k_prev = np.zeros(scen.n)
    fam = small_family(log_utility, scen, con, 1e-5, 1e-5)
    model = robust_lp.assemble(scen, fam, amb, con, k_prev)
    sol = robust_lp.solve(model)
    k, diag = robust_lp.extract_weights(sol, model.layout)
    np.testing.assert_allclose(k, sol.weights)
    assert diag["turnover_l1"] == pytest.approx(
        float(np.abs(k - k_prev).sum()), abs=1e-7
    )
    assert diag["realized_cost"] == pytest.approx(
        float(con.cost_vector @ np.abs(k - k_prev)), abs=1e-7
    )
    assert diag["leverage_usage"] <= 1.0 + 1e-9


def test_solve_flags_a_point_that_violates_rows(log_utility, kelly_instance,
                                                monkeypatch):
    scen, amb, con = kelly_instance
    fam = small_family(log_utility, scen, con, 1e-6, 1e-6)
    model = robust_lp.assemble(scen, fam, amb, con, np.zeros(1))
    assert robust_lp.solve(model).residual <= 1e-9
    real = robust_lp._run_highs

    def shifted(*args, **kwargs):
        res = real(*args, **kwargs)
        x = res.x.copy()
        x[target] += 1e-5
        return res._replace(x=x)

    monkeypatch.setattr(robust_lp, "_run_highs", shifted)
    # w: every binding return-leg cut now fails; y_0: its equality row fails
    for target in (model.layout.w, model.layout.y.start):
        sol = robust_lp.solve(model)
        assert sol.status == "numerical"
        assert sol.residual == pytest.approx(1e-5, rel=1e-3)
        assert sol.weights is None
        with pytest.raises(SolutionStatusError):
            robust_lp.extract_weights(sol, model.layout)


def test_unbounded_column_is_unbounded():
    # maximize w, which no row holds: the objective grows without limit
    lay = robust_lp.DecisionLayout.build(n=1, m=1, m0=0, m1=0)
    bounds = np.full((lay.nv, 2), [-np.inf, np.inf])
    bounds[:lay.w, 0] = 0.0
    objective = np.zeros(lay.nv)
    objective[lay.w] = 1.0
    model = robust_lp.RobustLpModel(
        A_ub=sp.csr_matrix(np.eye(1, lay.nv)), b_ub=np.ones(1),
        A_eq=sp.csr_matrix((0, lay.nv)), b_eq=np.zeros(0), bounds=bounds,
        c_max_objective=objective, layout=lay,
        row_sections={"leverage": (0, 1)}, provenance={},
    )
    sol = robust_lp.solve(model)
    assert sol.status == "unbounded"
    assert sol.weights is None and sol.basis is None


def test_nan_residual_is_numerical(log_utility):
    # NaN cost rates on the cost-leg cuts: HiGHS still reports an optimum,
    # but the point's row violations over the model are NaN
    model = warm_start_instance(log_utility)
    lo, hi = model.row_sections["cuts_c"]
    A = model.A_ub.copy()
    seg = slice(A.indptr[lo], A.indptr[hi])
    u = model.layout.u
    A.data[seg][(A.indices[seg] >= u.start) & (A.indices[seg] < u.stop)] = np.nan
    bad = dataclasses.replace(model, A_ub=A)
    assert (robust_lp._run_highs(bad).status
            == robust_lp.highs.HighsModelStatus.kOptimal)
    sol = robust_lp.solve(bad)
    assert sol.status == "numerical"
    assert math.isnan(sol.residual)
    assert sol.weights is None and sol.objective is None


@pytest.mark.parametrize(
    "status", ["kIterationLimit", "kUnboundedOrInfeasible", "kTimeLimit",
               "kSolveError", "kModelError"])
def test_other_highs_statuses_are_numerical(log_utility, kelly_instance,
                                            monkeypatch, status):
    scen, amb, con = kelly_instance
    fam = small_family(log_utility, scen, con, 1e-6, 1e-6)
    model = robust_lp.assemble(scen, fam, amb, con, np.zeros(1))
    result = robust_lp._HighsResult(
        getattr(robust_lp.highs.HighsModelStatus, status), 7, None, None)
    monkeypatch.setattr(robust_lp, "_run_highs", lambda *a, **k: result)
    sol = robust_lp.solve(model)
    assert sol.status == "numerical"
    assert sol.iterations == 7
    assert sol.weights is None and sol.certificate_row is None
    with pytest.raises(SolutionStatusError):
        robust_lp.extract_weights(sol, model.layout)


def warm_start_instance(log_utility, m=40, budget_x=1e-4):
    rng = np.random.default_rng(3)
    X = rng.normal(0.002, 0.03, size=(40, 4))[:m]
    scen = dp.ScenarioSet(scenarios=X, probabilities=np.full(m, 1.0 / m),
                          x_min=X.min(axis=0), x_max=X.max(axis=0))
    amb = dp.from_gamma(scen.probabilities, 0.3)
    con = robust_lp.TradingConstraintSet.uniform(
        4, leverage=1.5, cost_rate=0.001, turnover_cost_limit=0.01)
    fam = small_family(log_utility, scen, con, budget_x, 1e-5)
    return robust_lp.assemble(scen, fam, amb, con, np.zeros(4))


def rows_first_held(model):
    """The rows HiGHS first holds: every assembled row and equality row."""
    return model.n_rows + model.b_eq.size


def test_start_with_the_same_shape_is_taken(log_utility):
    # 12 planes per scenario solve whole; with 110 the cuts come on demand,
    # and this LP's first round adds none, so its optimal basis has the row
    # count HiGHS first holds
    for budget_x in (1e-4, 1e-6):
        model = warm_start_instance(log_utility, budget_x=budget_x)
        whole = model.cut_family is None
        assert whole == (budget_x == 1e-4)
        cold = robust_lp.solve(model)
        assert cold.iterations > 0
        assert cold.rows_held == rows_first_held(model)
        warm = robust_lp.solve(model, cold.basis)
        assert warm.iterations == 0  # the optimal basis needs no pivot
        assert warm.objective == pytest.approx(cold.objective, rel=0,
                                               abs=1e-12)
        np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "budget_x, other",
    [(1e-4, {"budget_x": 1e-2}), (1e-4, {"m": 30}), (1e-6, {})],
    ids=["other-L", "other-m", "on-demand"])
def test_start_from_another_shape_is_ignored(log_utility, budget_x, other):
    model = warm_start_instance(log_utility, budget_x=budget_x)
    start = robust_lp.solve(warm_start_instance(log_utility, **other)).basis
    whole = model.cut_family is None
    assert whole == (budget_x == 1e-4)
    assert start.valid and len(start.row_status) != rows_first_held(model)
    cold = robust_lp.solve(model)
    sol = robust_lp.solve(model, start)
    assert sol.status == "optimal"
    assert sol.objective == cold.objective
    np.testing.assert_array_equal(sol.weights, cold.weights)
    assert sol.iterations == cold.iterations


def test_start_highs_refuses_is_ignored(log_utility):
    # the right counts, but every column and row basic: not a basis
    model = warm_start_instance(log_utility)
    cold = robust_lp.solve(model)
    h = robust_lp.highs
    start = h.HighsBasis()
    start.col_status = [h.HighsBasisStatus.kBasic] * len(cold.basis.col_status)
    start.row_status = [h.HighsBasisStatus.kBasic] * len(cold.basis.row_status)
    start.valid = True
    sol = robust_lp.solve(model, start)
    assert sol.objective == cold.objective
    np.testing.assert_array_equal(sol.x, cold.x)
    assert sol.iterations == cold.iterations


def test_constraint_set_validation():
    with pytest.raises(ValueError):
        robust_lp.TradingConstraintSet.uniform(
            2, leverage=0.5, cost_rate=0.0, turnover_cost_limit=0.0
        )
    with pytest.raises(ValueError):
        robust_lp.TradingConstraintSet.uniform(
            2, leverage=1.5, cost_rate=1.0, turnover_cost_limit=0.01
        )
    with pytest.raises(ValueError):
        robust_lp.TradingConstraintSet.uniform(
            2, leverage=1.5, cost_rate=0.001, turnover_cost_limit=1.0
        )
    # NaN fails every comparison, so each check must still refuse it
    nan = float("nan")
    for leverage, rate, caps in ((nan, 0.001, None), (np.inf, 0.001, None),
                                 (1.5, nan, None), (1.5, 0.001, [0.5, nan])):
        with pytest.raises(ValueError):
            robust_lp.TradingConstraintSet.uniform(
                2, leverage=leverage, cost_rate=rate, turnover_cost_limit=0.01,
                holding_caps=caps)


def test_criterion_7_lp_matches_its_reference(log_utility):
    # the seed-7 LP of acceptance criterion 7 (n = 478, m = 126), whose
    # objective and weights the benchmark's reference file records
    rng = np.random.default_rng(7)
    scen = dp.ScenarioSet.uniform(rng.normal(5e-4, 0.02, size=(126, 478)))
    con = robust_lp.TradingConstraintSet.uniform(
        478, leverage=1.5, cost_rate=0.001, turnover_cost_limit=0.02)
    sol, _, _ = robust_lp.rebalance(
        scen, dp.from_gamma(scen.probabilities, 0.3), con, log_utility,
        dp.ErrorBudget(1e-3, 1e-5), np.zeros(478))
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["scale_lp"]
    assert sol.status == "optimal"
    assert abs(sol.objective - reference["objective"]) <= 1e-9 * max(
        1.0, abs(reference["objective"]))
    assert len(reference["weights"]) == 478
    assert np.max(np.abs(sol.weights - reference["weights"])) <= 1e-9


def criterion_7_rebalance(u, budget_x, rows=slice(None), cols=slice(None),
                          gamma=0.3):
    """The criterion-7 draw (n = 478, m = 126) with a seeded Dirichlet p_hat
    at ``gamma``, its scenarios taken in the order ``rows`` and its assets
    in the order ``cols``: its solution."""
    X = np.random.default_rng(7).normal(5e-4, 0.02, size=(126, 478))[rows][:, cols]
    p_hat = np.random.default_rng(1).dirichlet(np.ones(126))[rows]
    scen = dp.ScenarioSet(scenarios=X, probabilities=p_hat,
                          x_min=X.min(axis=0), x_max=X.max(axis=0))
    con = robust_lp.TradingConstraintSet.uniform(
        478, leverage=1.5, cost_rate=0.001, turnover_cost_limit=0.02)
    sol, model, _ = robust_lp.rebalance(
        scen, dp.from_gamma(p_hat, gamma), con, u,
        dp.ErrorBudget(budget_x, 1e-5), np.zeros(478))
    assert sol.status == "optimal"
    assert (model.cut_family is None) == (budget_x == 1e-3)
    return sol


@pytest.fixture(scope="module")
def unpermuted_criterion_7(log_utility):
    """criterion_7_rebalance in the draw's own order at gamma 0.3, solved
    once a budget for the permutation and gamma tests."""
    return functools.cache(
        lambda budget_x: criterion_7_rebalance(log_utility, budget_x))


# The permutation tests below are metamorphic relations on the
# criterion-7 draw: a permuted input gives the same LP up to row and
# column order.  Each returned point meets the rows HiGHS held within its
# primal tolerance delta = 1e-7, and an on-demand point meets every other
# plane within _CUT_TOL = delta.  Raising every return-leg right-hand side
# by delta raises the optimum by exactly delta, so the objectives lie
# within 2 delta.  At a unique optimum both runs stop at one vertex, which
# a delta-feasible basis moves by about delta, so the weights are held to
# the same 2 delta.  L = 5 at eps_x 1e-3 (whole LP), 32 at 1e-5 (on demand).
PERMUTATION_TOL = 2e-7


@pytest.mark.parametrize("budget_x", [1e-3, 1e-5])
def test_permuting_scenarios_with_their_probabilities_changes_nothing(
        log_utility, unpermuted_criterion_7, budget_x):
    # the scenarios and p_hat permuted together.  Measured: objectives
    # within 8.1e-17 and weights within 3.6e-14 (whole), 2.6e-18 and
    # 1.7e-15 (on demand), by different iteration counts, so the optimum
    # is unique
    sol = unpermuted_criterion_7(budget_x)
    perm = np.random.default_rng(2).permutation(126)
    moved = criterion_7_rebalance(log_utility, budget_x, rows=perm)
    assert abs(sol.objective - moved.objective) <= PERMUTATION_TOL
    assert np.max(np.abs(sol.weights - moved.weights)) <= PERMUTATION_TOL


@pytest.mark.parametrize("budget_x", [1e-3, 1e-5])
def test_permuting_assets_permutes_the_weights(
        log_utility, unpermuted_criterion_7, budget_x):
    # the assets permuted, with their bounds: no asset is treated apart
    # from its column, so the weights come back in the permuted order.
    # Measured: objectives within 4.3e-18 and weights within 1.7e-15
    # (whole), 2.6e-18 and 2.5e-15 (on demand)
    sol = unpermuted_criterion_7(budget_x)
    perm = np.random.default_rng(3).permutation(478)
    moved = criterion_7_rebalance(log_utility, budget_x, cols=perm)
    assert abs(sol.objective - moved.objective) <= PERMUTATION_TOL
    assert np.max(np.abs(sol.weights[perm] - moved.weights)) <= PERMUTATION_TOL


@pytest.mark.parametrize("budget_x", [1e-3, 1e-5])
def test_raising_gamma_does_not_raise_the_objective(
        log_utility, unpermuted_criterion_7, budget_x):
    # the contamination sets are nested, {p >= (1 - gamma) p_hat} growing
    # with gamma, so the worst case over a larger set, and the objective
    # with it, cannot rise; each optimum is within delta of the LP's, as
    # above.  Measured 0.01051 > 0.00508 > 0.00301 (whole) and
    # 0.01012 > 0.00463 > 0.00255 (on demand) at gamma 0, 0.3, 1
    objectives = [
        criterion_7_rebalance(log_utility, budget_x, gamma=0.0).objective,
        unpermuted_criterion_7(budget_x).objective,
        criterion_7_rebalance(log_utility, budget_x, gamma=1.0).objective,
    ]
    assert objectives[1] <= objectives[0] + PERMUTATION_TOL
    assert objectives[2] <= objectives[1] + PERMUTATION_TOL
