"""Partition and tangent-plane machinery.

Step-size goldens are recomputed here with scipy.optimize.brentq on the
t-form crossing equations, a route independent of the package's one log
spacing; a 50-digit decimal solve checks that spacing where double
precision cannot.
"""
import dataclasses
import decimal
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

import dro_portfolio as dp
from dro_portfolio import partition as pt
from dro_portfolio import SeparableUtility


def oracle_log_step_x(eps_x):
    # upper root (>1) of b - log(b) - 1 = eps, then (1+a)/a*log(1+a) = b
    b = brentq(lambda b: b - math.log(b) - 1.0 - eps_x, 1.0 + 1e-12, 10.0, xtol=1e-15)
    return brentq(
        lambda a: (1.0 + a) / a * math.log1p(a) - b, 1e-12, 5.0, xtol=1e-15
    )


def oracle_log_step_c(eps_c):
    # lower root (<1) of t - log(t) - 1 = eps, then (1-d)/d*(-log(1-d)) = t
    t = brentq(lambda t: t - math.log(t) - 1.0 - eps_c, 1e-12, 1.0 - 1e-12, xtol=1e-15)
    return brentq(
        lambda d: (1.0 - d) / d * (-math.log1p(-d)) - t, 1e-12, 1.0 - 1e-9, xtol=1e-15
    )


def test_log_step_sizes_match_independent_roots():
    for eps in (1e-5, 1e-4, 1e-6):
        a_pkg = pt.next_point_log(0.0, eps)  # first step from 0 equals the ratio
        assert a_pkg == pytest.approx(oracle_log_step_x(eps), rel=1e-10)
        d_pkg = -(pt.next_point_log(0.0, eps, "c") - 0.0) / (0.0 - 1.0)
        assert d_pkg == pytest.approx(oracle_log_step_c(eps), rel=1e-10)


def decimal_log_steps(eps):
    """50-digit next_point_log(0, eps) on the x and on the c axis.

    Newton on the convex, increasing d - ln(1 + d) - eps and
    v + exp(-v) - 1 - eps, the upper and lower equal-error roots; the
    spacing is s = ln(1 + d) + v.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        e, one = decimal.Decimal(eps), decimal.Decimal(1)
        d = v = (2 * e).sqrt()
        for _ in range(60):
            d -= (d - (one + d).ln() - e) * (one + d) / d
            v -= (v + (-v).exp() - one - e) / (one - (-v).exp())
        s = (one + d).ln() + v
        return s.exp() - one, one - (-s).exp()


@pytest.mark.parametrize("eps", [1e-6, 1e-10, 1e-13, 1e-14, 4e-15])
def test_log_steps_match_a_50_digit_solve(eps):
    # budgets down to just above the 16 float eps cut-off
    step_x, step_c = decimal_log_steps(eps)
    for got, want in ((pt.next_point_log(0.0, eps), step_x),
                      (pt.next_point_log(0.0, eps, "c"), step_c)):
        assert abs(decimal.Decimal(got) - want) <= want * decimal.Decimal(1e-8)


def test_unconverged_root_is_a_numerical_error():
    # a sign change at 1e-300 on [0, 1] needs about 1,000 halvings, beyond
    # brentq's 100 iterations; build_partition maps the error to bad input
    with pytest.raises(pt.NumericalError, match="did not converge"):
        pt._root(lambda t: -1.0 if t < 1e-300 else 1.0, 0.0, 1.0)


def test_log_step_asymptotic_scale():
    # small budgets: step ~ 2*sqrt(2*eps)
    for eps in (1e-6, 1e-8):
        assert pt.next_point_log(0.0, eps) == pytest.approx(
            2.0 * math.sqrt(2.0 * eps), rel=0.02
        )


def test_log_recursion_is_multiplicative_in_growth():
    # x_{p+1} = (1+a) x_p + a means 1+x is geometric with ratio 1+a
    eps = 1e-5
    a = oracle_log_step_x(eps)
    x = 0.0
    for _ in range(5):
        x_next = pt.next_point_log(x, eps)
        assert (1.0 + x_next) == pytest.approx((1.0 + x) * (1.0 + a), rel=1e-12)
        x = x_next


def log_recursion(lo, hi, eps, axis):
    """next_point_log from lo; the first point at or past hi becomes hi."""
    pts = [lo]
    while pts[-1] < hi:
        pts.append(min(pt.next_point_log(pts[-1], eps, axis), hi))
    return pts


@pytest.mark.parametrize("eps", [5e-9, 1e-6, 1e-3])
def test_log_partition_is_the_next_point_recursion(eps):
    # build_partition finds the log step once per partition; its points
    # are next_point_log's, called at every point, bit for bit
    for u in (SeparableUtility("log"),
              SeparableUtility("log", alpha=2.0, beta=0.5)):
        for lo, hi, axis, w in ((-0.27, 0.31, "x", u.alpha),
                                (0.0, 0.02, "c", u.beta),
                                (0.013, 0.5, "c", u.beta)):
            got = pt.build_partition(u, lo, hi, eps, axis).points
            want = log_recursion(lo, hi, eps / w, axis)
            assert got[-1] == hi and want[-2] < hi  # the last step clamps
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (2.0, 0.5), (0.5, 3.0)])
def test_general_matches_log_closed_form(alpha, beta):
    # the log step takes its budget in phi units, eps over the axis weight
    u = SeparableUtility("log", alpha=alpha, beta=beta)
    rng = np.random.default_rng(5)
    for _ in range(30):
        x_p = float(rng.uniform(-0.5, 1.0))
        eps = float(10 ** rng.uniform(-7, -3))
        assert pt.next_point_general(u, x_p, eps, axis="x") == pytest.approx(
            pt.next_point_log(x_p, eps / alpha), abs=1e-10, rel=1e-10
        )
    for _ in range(10):
        c_p = float(rng.uniform(0.0, 0.3))
        eps = float(10 ** rng.uniform(-7, -4))
        assert pt.next_point_general(u, c_p, eps, axis="c") == pytest.approx(
            pt.next_point_log(c_p, eps / beta, "c"), abs=1e-10, rel=1e-10
        )
    # build_partition steps log by the closed form, other families by the
    # general recursion: both give the same anchors
    for lo, hi, axis in ((-0.2, 0.2, "x"), (0.0, 0.3, "c")):
        general = [lo]
        while general[-1] < hi:
            general.append(min(pt.next_point_general(u, general[-1], 1e-5, axis), hi))
        np.testing.assert_allclose(pt.build_partition(u, lo, hi, 1e-5, axis).points,
                                   general, rtol=1e-10, atol=1e-10)


def interval_error(u, lo, hi):
    # envelope deficit peaks where the two endpoint tangents cross
    return float(pt.tangent_error(u, lo, pt.crossing_point(u, lo, hi, "x"), "x"))


def test_interval_error_equals_budget():
    u = SeparableUtility("log")
    eps = 1e-5
    part = pt.build_partition(u, -0.2, 0.2, eps, axis="x")
    pts = part.points
    # every full interval is built to exhaust the budget; the clamped last
    # interval may only undershoot
    for lo, hi in zip(pts[:-2], pts[1:-1]):
        assert interval_error(u, lo, hi) == pytest.approx(eps, abs=1e-9)
    assert interval_error(u, pts[-2], pts[-1]) <= eps + 1e-9


def test_interval_error_equals_budget_general_power():
    u = SeparableUtility("power", delta=0.5)
    eps = 2e-5
    part = pt.build_partition(u, -0.3, 0.4, eps, axis="x")
    pts = part.points
    for lo, hi in zip(pts[:-2], pts[1:-1]):
        assert interval_error(u, lo, hi) == pytest.approx(eps, abs=1e-9)
    assert interval_error(u, pts[-2], pts[-1]) <= eps + 1e-9


def test_fixture_box_point_counts(log_utility):
    fam = dp.build_family(
        log_utility, -0.2, 0.2, 0.0, 0.02, dp.ErrorBudget(1e-5, 1e-5)
    )
    assert len(fam.x_points) == 47
    assert len(fam.c_points) == 4
    assert (fam.a.size - 1, fam.b.size - 1) == (46, 3)
    assert fam.x_points[-1] == pytest.approx(0.2, abs=0)
    assert fam.c_points[-1] == pytest.approx(0.02, abs=0)


def test_certified_error_within_budget(log_utility):
    fam = dp.build_family(
        log_utility, -0.2, 0.2, 0.0, 0.02, dp.ErrorBudget(1e-5, 1e-5)
    )
    sup_x, sup_c, sup_joint = dp.certify_error(log_utility, fam, grid=1000)
    assert sup_x <= 1.02e-5
    assert sup_c <= 1.02e-5
    # budget is actually spent: the supremum is close to it, not far below
    assert sup_x >= 0.9e-5
    assert sup_c >= 0.9e-5
    assert abs(sup_joint - (sup_x + sup_c)) <= 1e-9


@pytest.mark.parametrize("alpha, beta", [(2.0, 0.5), (0.5, 3.0)])
def test_weighted_log_family_certifies(alpha, beta):
    u = SeparableUtility("log", alpha=alpha, beta=beta)
    fam = dp.build_family(u, -0.2, 0.2, 0.0, 0.02, dp.ErrorBudget(1e-5, 1e-5))
    sup_x, sup_c, sup_joint = dp.certify_error(u, fam, grid=1000)
    assert sup_x <= 1.02e-5
    assert sup_c <= 1.02e-5
    assert abs(sup_joint - (sup_x + sup_c)) <= 1e-9


def test_separability_random_budgets(log_utility):
    rng = np.random.default_rng(11)
    for _ in range(3):
        ex = float(10 ** rng.uniform(-6, -4))
        ec = float(10 ** rng.uniform(-6, -4))
        fam = dp.build_family(
            log_utility, -0.2, 0.2, 0.0, 0.02, dp.ErrorBudget(ex, ec)
        )
        sup_x, sup_c, sup_joint = dp.certify_error(log_utility, fam, grid=1000)
        assert abs(sup_joint - (sup_x + sup_c)) <= 1e-9


def certify_by_dense(u, fam, grid):
    """Reference certify_error: each axis's planes on its grid as one array."""
    xs = np.linspace(fam.x_points[0], fam.x_points[-1], grid)
    cs = np.linspace(fam.c_points[0], fam.c_points[-1], grid)
    fx = u.alpha * u.phi1(xs)
    fc = u.beta * u.phi2(cs)
    ax = fam.a[:, None] * xs[None, :]
    bc = fam.b[:, None] * cs[None, :]
    gx = u.alpha * u.phi1(fam.x_points) - fam.a * fam.x_points
    gc = u.beta * u.phi2(fam.c_points) - fam.b * fam.c_points
    sup_x = float(np.max((ax + gx[:, None]).min(axis=0) - fx))
    sup_c = float(np.max((bc + gc[:, None]).min(axis=0) - fc))
    dx = (ax + fam.gamma_x[:, None]).min(axis=0) - fx
    dc = (bc + fam.gamma_c[:, None]).min(axis=0) - fc
    sup_joint = float(max(dx.max() + dc.max(), -(dx.min() + dc.min())))
    return sup_x, sup_c, sup_joint


@pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6])
def test_certify_error_matches_the_dense_formula(log_utility, eps):
    fam = dp.build_family(
        log_utility, -0.2, 0.2, 0.0, 0.02, dp.ErrorBudget(eps, eps)
    )
    for grid in (1000, 2000):
        assert dp.certify_error(log_utility, fam, grid=grid) == \
            certify_by_dense(log_utility, fam, grid)


def test_certify_error_memory_stays_bounded(log_utility):
    # 200,001 cost-leg planes: one (R, grid) array of them is 1.6 GB
    px = pt.Partition(np.linspace(-0.2, 0.2, 9), "x")
    pc = pt.Partition(np.linspace(0.0, 0.02, 200_001), "c")
    fam = pt.build_hyperplanes(log_utility, px, pc)
    tracemalloc.start()
    try:
        sup_x, sup_c, sup_joint = dp.certify_error(log_utility, fam, grid=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # planes 1e-7 apart leave a cost-leg error far below the x-leg one
    assert 0.0 <= sup_c < 1e-12 < sup_x
    assert sup_joint == pytest.approx(sup_x + sup_c, abs=1e-15)


def joint_sup_by_scan(u, fam, grid):
    """Reference joint sup: the min of all L*R stored planes on the 2-D grid."""
    xs = np.linspace(fam.x_points[0], fam.x_points[-1], grid)
    cs = np.linspace(fam.c_points[0], fam.c_points[-1], grid)
    f_grid = u.alpha * u.phi1(xs)[:, None] + u.beta * u.phi2(cs)[None, :]
    gamma = fam.gamma_x[:, None] + fam.gamma_c[None, :]
    min_h = np.full((grid, grid), np.inf)
    for l in range(fam.a.size):
        for r in range(fam.b.size):
            plane = fam.a[l] * xs[:, None] + fam.b[r] * cs[None, :] + gamma[l, r]
            np.minimum(min_h, plane, out=min_h)
    return float(np.max(np.abs(f_grid - min_h)))


def test_joint_sup_matches_the_plane_scan(log_utility):
    log_fam = dp.build_family(
        log_utility, -0.2, 0.2, 0.0, 0.02, dp.ErrorBudget(1e-4, 1e-5)
    )
    crra = SeparableUtility("crra", theta=2.5)
    crra_fam = dp.build_family(crra, -0.2, 0.3, 0.0, 0.02, dp.ErrorBudget(5e-5, 2e-5))
    # a raised plane shows only where its crossings fall near grid points,
    # which on this grid holds for plane 7 (6.5e-7 above the axis sups)
    shifted_x = log_fam.gamma_x.copy()
    shifted_x[7] += 1e-6
    shifted = dataclasses.replace(log_fam, gamma_x=shifted_x)
    negated = dataclasses.replace(
        log_fam, gamma_x=-log_fam.gamma_x, gamma_c=-log_fam.gamma_c
    )
    for u, fam in ((log_utility, log_fam), (crra, crra_fam),
                   (log_utility, shifted), (log_utility, negated)):
        assert fam.a.size > 2 and fam.b.size > 2
        _, _, sup_joint = dp.certify_error(u, fam, grid=1000)
        assert sup_joint == pytest.approx(joint_sup_by_scan(u, fam, 1000), abs=1e-12)
    # the shifted stored plane is caught against the recomputed axes
    sup_x, sup_c, sup_joint = dp.certify_error(log_utility, shifted, grid=1000)
    assert abs(sup_joint - (sup_x + sup_c)) > 1e-7


def tangency_by_loop(u, fam):
    """Reference residual: every stored plane against f at its own anchor."""
    worst = 0.0
    for l, xl in enumerate(fam.x_points):
        for r, cr in enumerate(fam.c_points):
            h = fam.a[l] * xl + fam.b[r] * cr + fam.gamma_x[l] + fam.gamma_c[r]
            worst = max(worst, abs(h - u.eval_f(xl, cr)))
    return worst


def test_tangency_residual_flags_every_raised_intercept(log_utility):
    fam = dp.build_family(
        log_utility, -0.2, 0.2, 0.0, 0.02, dp.ErrorBudget(1e-4, 1e-5)
    )
    assert fam.gamma_x.size == 16 and fam.gamma_c.size > 2
    assert dp.tangency_residual(log_utility, fam) <= 1e-12
    negated = dataclasses.replace(
        fam, gamma_x=-fam.gamma_x, gamma_c=-fam.gamma_c
    )
    assert dp.tangency_residual(log_utility, negated) == pytest.approx(
        tangency_by_loop(log_utility, negated), abs=1e-15
    )
    # the grid comparison in certify_error misses half of these raises;
    # the residual sees each one at its full size
    for l in range(fam.gamma_x.size):
        raised = fam.gamma_x.copy()
        raised[l] += 1e-6
        bad = dataclasses.replace(fam, gamma_x=raised)
        residual = dp.tangency_residual(log_utility, bad)
        assert residual > 1e-12
        assert residual == pytest.approx(1e-6, abs=1e-15)
        assert residual == pytest.approx(tangency_by_loop(log_utility, bad), abs=1e-15)


def test_removal_interior_quadruples_error(log_utility):
    fam = dp.build_family(
        log_utility, -0.2, 0.2, 0.0, 0.02, dp.ErrorBudget(1e-5, 1e-5)
    )
    # interior x plane flanked by two full-budget intervals; entry i - 1
    # belongs to point i
    err = dp.removal_experiment(log_utility, fam, axis="x")[5 - 1]
    assert err == pytest.approx(4e-5, rel=0.15)
    err_c = dp.removal_experiment(log_utility, fam, axis="c")[1 - 1]
    assert err_c == pytest.approx(4e-5, rel=0.15)


def test_removal_next_to_clamped_interval_is_smaller(log_utility):
    # the final interval is clamped short of its budget, so removing its
    # interior neighbour merges a full and a partial interval: the error
    # lands well below the 4x budget of the fully-spent case
    fam = dp.build_family(
        log_utility, -0.2, 0.2, 0.0, 0.02, dp.ErrorBudget(1e-5, 1e-5)
    )
    last_interior = len(fam.x_points) - 2
    err = dp.removal_experiment(log_utility, fam, axis="x")[last_interior - 1]
    assert 1e-5 < err < 4e-5 * 0.85
    err_c = dp.removal_experiment(log_utility, fam, axis="c")[2 - 1]
    assert 1e-5 < err_c < 4e-5 * 0.85


def removal_by_loop(u, fam, which, axis):
    """Reference: delete one point and rescan every surviving pair."""
    pts = fam.x_points if axis == "x" else fam.c_points
    kept = np.delete(pts, which)
    sup = 0.0
    for left, right in zip(kept[:-1], kept[1:]):
        star = pt.crossing_point(u, float(left), float(right), axis)
        sup = max(sup, float(pt.tangent_error(u, float(left), star, axis)))
    return sup


def removal_table_by_loop(u, fam, axis):
    pts = fam.x_points if axis == "x" else fam.c_points
    return np.array(
        [removal_by_loop(u, fam, i, axis) for i in range(1, pts.size - 1)]
    )


def test_removal_table_matches_the_loop(log_utility):
    for eps in (1e-4, 1e-5, 1e-6):
        fam = dp.build_family(
            log_utility, -0.2, 0.2, 0.0, 0.02, dp.ErrorBudget(eps, eps)
        )
        for axis in ("x", "c"):
            table = dp.removal_experiment(log_utility, fam, axis)
            pts = fam.x_points if axis == "x" else fam.c_points
            assert table.size == pts.size - 2
            assert np.array_equal(table, removal_table_by_loop(log_utility, fam, axis))
    # irregular points, where a wide interval elsewhere can outweigh the
    # merged pair around the removed point
    rng = np.random.default_rng(7)
    fam = dp.build_hyperplanes(
        log_utility,
        pt.Partition(np.sort(rng.uniform(-0.2, 0.2, 40)), "x"),
        pt.Partition(np.sort(rng.uniform(0.0, 0.5, 12)), "c"),
    )
    for axis, pts in (("x", fam.x_points), ("c", fam.c_points)):
        table = dp.removal_experiment(log_utility, fam, axis)
        assert np.array_equal(table, removal_table_by_loop(log_utility, fam, axis))
        star = pt.crossing_point(log_utility, pts[:-2], pts[2:], axis)
        merged = pt.tangent_error(log_utility, pts[:-2], star, axis)
        assert np.any(table > merged)
    # numpy's pow on arrays and Python's float pow may differ in the last bit
    for u in (SeparableUtility("power", delta=0.5),
              SeparableUtility("crra", theta=3.0)):
        fam = dp.build_family(u, -0.2, 0.3, 0.0, 0.1, dp.ErrorBudget(5e-5, 5e-6))
        for axis in ("x", "c"):
            table = dp.removal_experiment(u, fam, axis)
            assert table.size > 2
            np.testing.assert_allclose(
                table, removal_table_by_loop(u, fam, axis), rtol=0, atol=1e-15
            )


def test_removal_table_of_short_partitions(log_utility):
    three = dp.build_hyperplanes(
        log_utility,
        pt.Partition(np.array([-0.1, 0.0, 0.1]), "x"),
        pt.Partition(np.array([0.0, 0.01]), "c"),
    )
    table = dp.removal_experiment(log_utility, three, "x")
    assert table.shape == (1,)
    assert table[0] == removal_by_loop(log_utility, three, 1, "x")
    assert dp.removal_experiment(log_utility, three, "c").shape == (0,)
    single = dp.build_family(
        log_utility, -0.1, 0.1, 0.0, 0.0, dp.ErrorBudget(1e-5, 1e-5)
    )
    assert dp.removal_experiment(log_utility, single, "c").shape == (0,)
    with pytest.raises(ValueError):
        dp.removal_experiment(log_utility, three, "q")


def test_crossing_point_between_neighbour_planes(log_utility):
    u = log_utility
    x_l, x_r = 0.0, pt.next_point_log(0.0, 1e-5)
    xc = pt.crossing_point(u, x_l, x_r, "x")
    assert x_l < xc < x_r
    # tangent lines at the two points intersect where their values agree
    a_l, a_r = u.phi1_prime(x_l), u.phi1_prime(x_r)
    g_l = u.phi1(x_l) - a_l * x_l
    g_r = u.phi1(x_r) - a_r * x_r
    assert a_l * xc + g_l == pytest.approx(a_r * xc + g_r, abs=1e-14)
    # arrays give every pair's crossing through the same formula
    lefts = np.array([x_l, x_r])
    rights = np.array([x_r, pt.next_point_log(x_r, 1e-5)])
    both = pt.crossing_point(u, lefts, rights, "x")
    assert both[0] == xc
    assert both[1] == pt.crossing_point(u, x_r, float(rights[1]), "x")
    with pytest.raises(ValueError):
        pt.crossing_point(u, lefts, rights[::-1], "x")


def test_tangent_planes_dominate_the_utility(log_utility):
    fam = dp.build_family(
        log_utility, -0.2, 0.2, 0.0, 0.02, dp.ErrorBudget(1e-5, 1e-5)
    )
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = float(rng.uniform(-0.2, 0.2))
        c = float(rng.uniform(0.0, 0.02))
        gamma = fam.gamma_x[:, None] + fam.gamma_c[None, :]
        envelope = float((fam.a[:, None] * x + fam.b[None, :] * c + gamma).min())
        truth = log_utility.eval_f(x, c)
        assert truth <= envelope + 1e-12
        assert envelope - truth <= 2e-5 + 1e-9


def test_huge_budget_collapses_to_endpoints(log_utility):
    part = pt.build_partition(log_utility, -0.1, 0.1, 1.0, axis="x")
    assert len(part.points) == 2
    assert part.points[0] == -0.1 and part.points[1] == 0.1
    # log spacings beyond exp's range, and cost steps that round to c = 1
    for lo, hi, eps, axis in ((-0.2, 0.2, 800.0, "x"), (0.0, 0.02, 100.0, "c"),
                              (0.0, 0.02, 1e3, "c")):
        part = pt.build_partition(log_utility, lo, hi, eps, axis)
        assert part.points.tolist() == [lo, hi]
    # budgets past the float range of the spacing's root brackets
    for eps in (1e308, math.inf):
        for lo, hi, axis in ((-0.2, 0.2, "x"), (0.0, 0.02, "c")):
            part = pt.build_partition(log_utility, lo, hi, eps, axis)
            assert part.points.tolist() == [lo, hi]


def test_degenerate_cost_axis():
    u = SeparableUtility("log")
    fam = dp.build_family(u, -0.1, 0.1, 0.0, 0.0, dp.ErrorBudget(1e-5, 1e-5))
    assert len(fam.c_points) == 1
    assert fam.gamma_c.shape == (1,)


@pytest.mark.parametrize("call", [
    lambda u, fam: pt.tangent_error(u, 0.0, 0.01, "q"),
    lambda u, fam: pt.crossing_point(u, 0.0, 0.01, "q"),
    lambda u, fam: pt.next_point_log(0.0, 1e-5, "q"),
    lambda u, fam: pt.next_point_general(u, 0.0, 1e-5, "q"),
    lambda u, fam: pt.build_partition(u, 0.0, 0.01, 1e-5, "q"),
    lambda u, fam: pt.removal_experiment(u, fam, "q"),
    lambda u, fam: pt.Partition(np.array([0.0, 0.01]), "q"),
], ids=["tangent_error", "crossing_point", "next_point_log",
        "next_point_general", "build_partition", "removal_experiment",
        "Partition"])
def test_unknown_axis_is_refused(log_utility, call):
    # every point above lies in the domain of both axes
    fam = dp.build_family(
        log_utility, -0.2, 0.2, 0.0, 0.02, dp.ErrorBudget(1e-5, 1e-5)
    )
    with pytest.raises(ValueError, match="axis must be 'x' or 'c'"):
        call(log_utility, fam)


def test_partition_validation():
    with pytest.raises(ValueError):
        pt.Partition(points=np.array([0.0, -0.1]), axis="x")
    with pytest.raises(ValueError):
        pt.Partition(points=np.array([0.1]), axis="q")
    with pytest.raises(ValueError):
        dp.ErrorBudget(-1e-5, 1e-5)


@pytest.mark.parametrize("u", [SeparableUtility("power", delta=0.5),
                               SeparableUtility("crra", theta=3.0),
                               SeparableUtility("log")],
                         ids=["power", "crra", "log"])
@pytest.mark.parametrize("budget, axis", [((1e-300, 1e-5), "x"),
                                          ((1e-5, 1e-300), "c"),
                                          ((1e-40, 1e-5), "x")],
                         ids=["x-1e-300", "c-1e-300", "x-1e-40"])
def test_sub_resolution_budget_is_an_input_error(u, budget, axis):
    with pytest.raises(ValueError, match=f"^{axis}-axis budget .* below the "
                                         "float resolution"):
        dp.build_family(u, -0.2, 0.2, 0.0, 0.02, dp.ErrorBudget(*budget))


def test_crra_family_certifies():
    u = SeparableUtility("crra", theta=2.5)
    fam = dp.build_family(u, -0.2, 0.3, 0.0, 0.02, dp.ErrorBudget(5e-5, 2e-5))
    sup_x, sup_c, sup_joint = dp.certify_error(u, fam, grid=1000)
    assert sup_x <= 5e-5 * 1.02
    assert sup_c <= 2e-5 * 1.02
    assert abs(sup_joint - (sup_x + sup_c)) <= 1e-9
