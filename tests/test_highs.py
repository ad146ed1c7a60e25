"""The HiGHS binding against linprog, bit for bit.

``highs`` drives scipy's private binding directly, so these tests are
what a new scipy release must pass before the package can trust it:
``highs.minimize`` against ``linprog(method="highs")``, and the whole
rebalance LP against ``linprog(method="highs-ds")`` without presolve.
"""
import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from dro_portfolio import (PolyhedralAmbiguitySet, from_gamma, highs, oracle,
                           robust_lp)

from conftest import small_family


def via_linprog(c, col_lo, col_hi, row_lo, row_hi, blocks):
    """The same LP through linprog: rows with no lower bound are A_ub."""
    A = sp.vstack(blocks, format="csr")
    ub = np.isneginf(row_lo)
    k = int(ub.sum())
    # linprog stacks A_ub above A_eq; the rows must already be in that order
    assert ub[:k].all() and np.array_equal(row_lo[k:], row_hi[k:])
    return linprog(c, A_ub=A[:k], b_ub=row_hi[:k], A_eq=A[k:], b_eq=row_hi[k:],
                   bounds=np.column_stack([col_lo, col_hi]), method="highs")


def assert_same_optimum(got, ref):
    assert ref.status == 0
    assert got.status == highs.HighsModelStatus.kOptimal
    assert got.objective == ref.fun
    np.testing.assert_array_equal(got.x, ref.x)


def random_polytope(rng, m):
    """A contamination set, or general A0/A1 rows that p_hat meets."""
    p_hat = rng.dirichlet(np.ones(m))
    if rng.uniform() < 0.5:
        return from_gamma(p_hat, float(rng.uniform()))
    A0 = rng.normal(size=(int(rng.integers(0, 3)), m))
    A1 = rng.normal(size=(int(rng.integers(0, 4)), m))
    return PolyhedralAmbiguitySet(
        A0=A0, d0=A0 @ p_hat, A1=A1,
        d1=A1 @ p_hat + rng.uniform(0.0, 0.1, A1.shape[0]), m=m)


@pytest.mark.parametrize("seed", range(4))
def test_polytope_lp_matches_linprog(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        amb = random_polytope(rng, int(rng.integers(2, 131)))
        q = rng.normal(0.0, 0.2, amb.m)
        rows = amb.lp_rows()
        assert_same_optimum(highs.minimize(q, **rows), via_linprog(q, **rows))


def test_empty_polytope_is_infeasible_in_both():
    # p_1 + p_2 = 1 and = 0.5 at once
    rows = dict(col_lo=np.zeros(2), col_hi=np.full(2, np.inf),
                row_lo=np.array([1.0, 0.5]), row_hi=np.array([1.0, 0.5]),
                blocks=[sp.csr_matrix(np.ones((2, 2)))])
    c = np.zeros(2)
    res = highs.minimize(c, **rows)
    assert res.status == highs.HighsModelStatus.kInfeasible
    assert res.objective is None and res.x is None
    assert via_linprog(c, **rows).status == 2


def test_whole_rebalance_lp_matches_linprog(log_utility):
    # the rebalance LP runs with presolve off; at most _WHOLE_MAX_L cuts a
    # scenario, HiGHS holds it whole, as linprog's dual simplex does
    for seed in range(40):
        scen, amb, con = oracle.random_small_instance(
            np.random.default_rng(seed), cost_rate=0.002)
        fam = small_family(log_utility, scen, con, 5e-4, 5e-4)
        assert fam.a.size <= robust_lp._WHOLE_MAX_L
        model = robust_lp.assemble(scen, fam, amb, con, np.zeros(scen.n))
        res = robust_lp._run_highs(model)
        ref = linprog(-model.c_max_objective, A_ub=model.A_ub, b_ub=model.b_ub,
                      A_eq=model.A_eq, b_eq=model.b_eq, bounds=model.bounds,
                      method="highs-ds", options={"presolve": False})
        assert ref.status == 0
        assert res.status == highs.HighsModelStatus.kOptimal
        np.testing.assert_array_equal(res.x, ref.x)
        assert res.iterations == ref.nit


def test_refused_model_is_a_model_error(log_utility, kelly_instance):
    # HiGHS refuses an infinite matrix entry when it loads the model
    A = sp.csr_matrix(np.array([[1.0, np.inf]]))
    res = highs.minimize(np.ones(2), np.zeros(2), np.ones(2),
                         np.array([-np.inf]), np.array([1.0]), [A])
    assert res == (highs.HighsModelStatus.kModelError, None, None)
    scen, amb, con = kelly_instance
    fam = small_family(log_utility, scen, con, 1e-6, 1e-6)
    model = robust_lp.assemble(scen, fam, amb, con, np.zeros(1))
    A_ub = model.A_ub.copy()
    A_ub.data[A_ub.indptr[model.row_sections["leverage"][0]]] = np.inf
    bad = dataclasses.replace(model, A_ub=A_ub)
    assert (robust_lp._run_highs(bad).status
            == highs.HighsModelStatus.kModelError)
    sol = robust_lp.solve(bad)
    assert sol.status == "numerical" and sol.weights is None


def test_the_shared_instance_solves_as_a_new_one(log_utility, monkeypatch):
    # load reuses one HiGHS instance; an LP loaded after another of another
    # shape, run with presolve off from a start basis, must solve as it does
    # on a new instance, on demand rows included
    def instance(seed, budget_x):
        scen, amb, con = oracle.random_small_instance(
            np.random.default_rng(seed), cost_rate=0.002)
        fam = small_family(log_utility, scen, con, budget_x, 1e-5)
        return robust_lp.assemble(scen, fam, amb, con, np.zeros(scen.n))

    first, second = instance(0, 5e-4), instance(1, 1e-6)
    assert first.layout.nv != second.layout.nv
    assert second.cut_family is not None
    start = robust_lp.solve(first).basis
    shared = highs._instance
    warm = robust_lp.solve(first, start)
    after = robust_lp.solve(second)
    assert warm.status == after.status == "optimal"
    assert highs._instance is shared
    monkeypatch.setattr(highs, "_instance", None)
    new = robust_lp.solve(second)
    np.testing.assert_array_equal(after.x, new.x)
    assert (after.objective, after.iterations, after.rows_held) == (
        new.objective, new.iterations, new.rows_held)
    assert after.basis.col_status == new.basis.col_status
    assert after.basis.row_status == new.basis.row_status


@pytest.mark.parametrize("seed", range(2))
def test_minimize_after_a_rebalance_matches_linprog(log_utility, seed):
    # a rebalance leaves presolve off and its basis in the shared instance;
    # the next minimize runs with HiGHS's defaults, as linprog does
    rng = np.random.default_rng(seed)
    for _ in range(25):
        scen, amb, con = oracle.random_small_instance(rng, cost_rate=0.002)
        fam = small_family(log_utility, scen, con, 5e-4, 5e-4)
        model = robust_lp.assemble(scen, fam, amb, con, np.zeros(scen.n))
        robust_lp.solve(model, robust_lp.solve(model).basis)
        amb = random_polytope(rng, int(rng.integers(2, 131)))
        q = rng.normal(0.0, 0.2, amb.m)
        rows = amb.lp_rows()
        assert_same_optimum(highs.minimize(q, **rows), via_linprog(q, **rows))
