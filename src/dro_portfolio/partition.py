"""Equal-error partitions and supporting-hyperplane families.

A concave separable utility f(x, c) = alpha * phi1(x) + beta * phi2(c) is
approximated from above by tangent planes anchored at partition points of
the x and c axes.  Partition points are spaced so that the approximation
error on every interval equals the per-axis budget, which makes the
partition minimal for that budget.  The cost leg mirrors the return leg,
phi2(c) = phi1(-c), so each one-axis operation (tangent error, crossing
point, next anchor, partition, removal table) is written once and takes
the axis, "x" or "c", as an argument.  For the log family the anchors are
uniform in log(1 + x) and in -log(1 - c), with one spacing fixed by the
budget over the axis weight; other families solve each step as two
scalar roots with Brent's method (scipy's brentq).  Because f is
additively separable, every plane intercept splits into a return-leg part
and a cost-leg part, and a family stores only those two vectors.  The
module also certifies error on dense grids and reproduces the effect of
removing a single tangent plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .utility import SeparableUtility

_MAX_POINTS = 1_000_000
# a budget at or below this multiple of |phi(p)| drowns in the rounding of
# the phi differences the general recursion solves on
_RESOLUTION = 16 * np.finfo(float).eps
# relative tolerance of every root: brentq's floor
_RTOL = 4 * np.finfo(float).eps
# exp overflows beyond this argument
_EXP_MAX = math.log(np.finfo(float).max)
# plane-by-grid values one certify_error block holds (2 MiB a float array)
_ENVELOPE_BLOCK = 1 << 18


class BracketError(RuntimeError):
    """A scalar root bracket could not be established or has no sign change."""


class NumericalError(RuntimeError):
    """A formula produced a non-finite intermediate."""


@dataclass(frozen=True)
class ErrorBudget:
    """Per-axis approximation error tolerances; total budget is their sum."""

    eps_x: float
    eps_c: float

    def __post_init__(self):
        if not (self.eps_x > 0 and self.eps_c > 0):
            raise ValueError("error budgets must be positive")


@dataclass(frozen=True)
class Partition:
    """Ordered anchor points on one axis, endpoints pinned to the box."""

    points: np.ndarray
    axis: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        _sign(self.axis)  # rejects an unknown axis
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("partition needs at least one point")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise ValueError("partition points must be strictly increasing")
        if self.axis == "x" and pts[0] <= -1.0:
            raise ValueError("x-axis points must exceed -1")
        if self.axis == "c" and (pts[0] < 0.0 or pts[-1] >= 1.0):
            raise ValueError("c-axis points must lie in [0, 1)")


@dataclass(frozen=True)
class HyperplaneFamily:
    """Tangent planes h_{l,r}(x, c) = a_l x + b_r c + gamma_x[l] + gamma_c[r].

    The intercept of the plane anchored at (x_l, c_r) is the sum of the
    return-leg part gamma_x[l] = alpha*phi1(x_l) - a_l x_l and the
    cost-leg part gamma_c[r] = beta*phi2(c_r) - b_r c_r, so the L*R
    planes are stored as two vectors of lengths L and R.
    """

    a: np.ndarray
    b: np.ndarray
    gamma_x: np.ndarray
    gamma_c: np.ndarray
    x_points: np.ndarray
    c_points: np.ndarray


# ---------------------------------------------------------------------------
# scalar root finding
# ---------------------------------------------------------------------------


def _root(fn, lo, hi):
    """Root of fn on [lo, hi], where fn changes sign, by Brent's method."""
    # the roots are positive steps: an absolute tolerance would cap the
    # relative precision of small ones
    root, info = brentq(fn, lo, hi, xtol=np.finfo(float).tiny, rtol=_RTOL,
                        full_output=True, disp=False)
    if not info.converged:
        raise NumericalError(
            f"root on [{lo:g}, {hi:g}] did not converge: {info.flag}"
        )
    return root


def _grow_bracket(fn, hi0, cap=None, want_positive=True):
    """Double hi0 until fn changes to the wanted sign; respect an upper cap."""
    hi = hi0
    for _ in range(200):
        if cap is not None and hi > cap:
            hi = cap
        v = fn(hi)
        if (v > 0) == want_positive and v != 0.0:
            return hi
        if cap is not None and hi >= cap:
            raise BracketError("no sign change inside the domain cap")
        hi *= 2.0
    raise BracketError("bracket growth did not terminate")


# ---------------------------------------------------------------------------
# the two axes: pointwise errors and crossing points
# ---------------------------------------------------------------------------


def _sign(axis: str) -> float:
    """+1 on the return axis "x", -1 on the cost axis: phi2(c) = phi1(-c)."""
    if axis == "x":
        return 1.0
    if axis == "c":
        return -1.0
    raise ValueError("axis must be 'x' or 'c'")


def _leg(u: SeparableUtility, axis: str) -> tuple:
    """(sigma, phi, phi', weight) of the axis's term of f."""
    sigma = _sign(axis)
    if sigma > 0:
        return sigma, u.phi1, u.phi1_prime, u.alpha
    return sigma, u.phi2, u.phi2_prime, u.beta


def tangent_error(u: SeparableUtility, p, t, axis: str):
    """Gap between the axis's weighted term and its tangent at p, at t.

    The term is alpha*phi1 on "x" and beta*phi2 on "c"; the gap is >= 0
    by concavity.  Floats give a float, arrays broadcast.
    """
    _, phi, dphi, w = _leg(u, axis)
    slope = w * dphi(p)
    return slope * (np.asarray(t, dtype=float) - p) + w * (phi(p) - phi(t))


def crossing_point(u: SeparableUtility, p, p_next, axis: str):
    """Point in (p, p_next) where the tangents at p and p_next meet.

    There the two tangent errors are equal.  Floats give a float;
    equal-length arrays give the crossing of every pair (p[i], p_next[i]).
    """
    _, phi, dphi, _ = _leg(u, axis)
    if not np.all(np.less(p, p_next)):
        raise ValueError("need p < p_next")
    g_p = dphi(p)
    g_n = dphi(p_next)
    num = g_p * p - g_n * p_next + phi(p_next) - phi(p)
    den = g_p - g_n
    star = num / den
    if not np.all(np.isfinite(star)):
        raise NumericalError("degenerate slope difference in crossing point")
    return star if np.ndim(star) else float(star)


# ---------------------------------------------------------------------------
# successive partition points
# ---------------------------------------------------------------------------


def next_point_general(u: SeparableUtility, p: float, eps: float, axis: str = "x") -> float:
    """Next equal-error anchor after p for an arbitrary concave family.

    The step splits into a left part (error of the tangent at p reaches
    eps at p + left) and a right part (the tangent at the new point has
    the same error at the split).  Both parts solve monotone scalar
    equations with brentq, each on the bracket _grow_bracket finds.

    Parameters
    ----------
    u : SeparableUtility
    p : float
        Current anchor point.
    eps : float
        Per-axis error budget, in utility units.
    axis : str
        "x" for the return leg, "c" for the cost leg.

    Returns
    -------
    float
        The next anchor; may overshoot the caller's box, in which case the
        caller clamps.  On the c axis the value is capped below 1.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    sigma, phi, dphi, w = _leg(u, axis)
    cap = None if sigma > 0 else (1.0 - p) - 1e-12
    target = eps / w
    slope_p = dphi(p)
    val_p = phi(p)
    if target <= _RESOLUTION * abs(val_p):
        raise NumericalError(
            f"budget {eps:g} is below the float resolution of phi at {p:g}"
        )

    def g(step):
        # tangent-at-p error at p + step, in phi units
        return slope_p * step - (phi(p + step) - val_p) - target

    try:
        hi = _grow_bracket(g, math.sqrt(target), cap=cap)
    except BracketError:
        # tangent at p stays within budget through the whole domain
        return p + cap if cap is not None else math.inf
    left = _root(g, 0.0, hi)
    split = p + left

    def h(step):
        # budget minus the new tangent's error back at the split point
        q = split + step
        return step * dphi(q) - (phi(q) - val_p - left * slope_p)

    cap_h = None if cap is None else cap - left - 1e-12
    try:
        hi = _grow_bracket(h, math.sqrt(target), cap=cap_h, want_positive=False)
    except BracketError:
        return p + cap if cap is not None else math.inf
    right = _root(h, 0.0, hi)
    return split + right


@lru_cache(maxsize=64)
def _log_spacing(eps: float) -> float:
    """Spacing s of the log anchors, in log(1 + x) and in -log(1 - c).

    The tangent of log at y misses log by theta(t) = t - log(t) - 1 at
    t * y, so neighbouring anchors sit at t_lo < 1 < t_hi from their
    shared equal-error point, t_lo and t_hi the roots of theta = eps, and
    s = log(t_hi / t_lo).  With d = t_hi - 1 and v = -log(t_lo) the roots
    solve d - log1p(d) = eps and v + expm1(-v) = eps: neither subtracts
    terms near 1, and neither underflows for a large budget.
    """
    if eps <= _RESOLUTION:
        raise NumericalError(
            f"budget {eps:g} is below the float resolution of the log step"
        )
    if eps > _EXP_MAX:
        # the spacing exceeds eps, so exp(s) overflows: the step passes any box
        return math.inf
    upper = lambda d: d - math.log1p(d) - eps
    lower = lambda v: v + math.expm1(-v) - eps
    # both roots lie below eps + sqrt(2 eps); the bracket growth absorbs
    # the rounding of that bound
    hi0 = eps + math.sqrt(2.0 * eps)
    d = _root(upper, 0.0, _grow_bracket(upper, hi0))
    v = _root(lower, 0.0, _grow_bracket(lower, hi0))
    return math.log1p(d) + v


def _log_step(p: float, eps: float, axis: str):
    """The log step from p: (sigma, g), the next anchor p + sigma*g*(1 + sigma*p).

    g = expm1(sigma * s) for the spacing s is the same at every anchor,
    so a partition computes it once.
    """
    sigma = _sign(axis)
    if eps <= 0:
        raise ValueError("eps must be positive")
    _check_log_domain(p, sigma, axis)
    try:
        growth = math.expm1(sigma * _log_spacing(float(eps)))
    except OverflowError:
        growth = math.inf  # a spacing beyond exp's range steps past any box
    return sigma, growth


def _check_log_domain(p: float, sigma: float, axis: str):
    if not (p > -1.0 if sigma > 0 else 0.0 <= p < 1.0):
        raise ValueError(f"{p:g} is outside the {axis}-axis domain")


def next_point_log(p: float, eps: float, axis: str = "x") -> float:
    """Next log anchor on an axis, for a budget in phi units.

    1 + sigma * p grows by exp(sigma * s) for the spacing s: 1 + x grows
    by exp(s) on the return axis, and 1 - c shrinks by exp(-s) on the
    cost axis.
    """
    sigma, growth = _log_step(p, eps, axis)
    return p + sigma * growth * (1.0 + sigma * p)


def build_partition(
    u: SeparableUtility, lo: float, hi: float, eps: float, axis: str
) -> Partition:
    """Anchor points from lo to hi with every interval at the error budget.

    Iterates the successive-point recursion from lo; the first generated
    point at or past hi is replaced by hi, so the last interval's error is
    at most the budget.  A degenerate box lo == hi yields a single point.
    The log step takes the budget in phi units, eps over the axis weight.
    """
    if lo > hi:
        raise ValueError("need lo <= hi")
    w = _leg(u, axis)[3]
    if lo == hi:
        return Partition(np.array([lo], dtype=float), axis)
    pts = [float(lo)]
    is_log = u.kind == "log"
    try:
        if is_log and lo < hi:  # a NaN end runs no step
            # next_point_log's step, with its spacing found once
            sigma, growth = _log_step(lo, eps / w, axis)
        while pts[-1] < hi:
            if len(pts) >= _MAX_POINTS:
                raise NumericalError(
                    "partition exceeds the point cap; budget too small"
                )
            if is_log:
                p = pts[-1]
                # the points rise from the checked lo, so only a c-axis
                # point that rounds up to 1 can leave the domain
                if p >= 1.0:
                    _check_log_domain(p, sigma, axis)
                nxt = p + sigma * growth * (1.0 + sigma * p)
            else:
                nxt = next_point_general(u, pts[-1], eps, axis)
            if nxt <= pts[-1]:
                raise NumericalError("partition step did not advance")
            if nxt >= hi:
                pts.append(float(hi))
                break
            pts.append(float(nxt))
    except (BracketError, NumericalError) as exc:
        # the budget is input: one the recursion cannot meet is a bad value
        raise ValueError(
            f"{axis}-axis budget {eps:g} cannot be met on [{lo:g}, {hi:g}]: {exc}"
        ) from exc
    return Partition(np.array(pts), axis)


# ---------------------------------------------------------------------------
# hyperplane families
# ---------------------------------------------------------------------------


def build_hyperplanes(
    u: SeparableUtility, px: Partition, pc: Partition
) -> HyperplaneFamily:
    """Tangent-plane coefficients for the partition pair.

    a_l = alpha * phi1'(x_l), b_r = beta * phi2'(c_r), and the intercept
    parts gamma_x[l], gamma_c[r] make each plane touch f at (x_l, c_r).
    """
    if px.axis != "x" or pc.axis != "c":
        raise ValueError("expected an x partition and a c partition")
    xs = px.points
    cs = pc.points
    a = u.alpha * u.phi1_prime(xs)
    b = u.beta * u.phi2_prime(cs)
    return HyperplaneFamily(
        a=np.atleast_1d(a),
        b=np.atleast_1d(b),
        gamma_x=np.atleast_1d(u.alpha * u.phi1(xs) - a * xs),
        gamma_c=np.atleast_1d(u.beta * u.phi2(cs) - b * cs),
        x_points=xs,
        c_points=cs,
    )


def build_family(
    u: SeparableUtility,
    x_lo: float,
    x_hi: float,
    c_lo: float,
    c_hi: float,
    budget: ErrorBudget,
) -> HyperplaneFamily:
    """Partition both axes for the budget and emit the tangent planes."""
    px = build_partition(u, x_lo, x_hi, budget.eps_x, "x")
    pc = build_partition(u, c_lo, c_hi, budget.eps_c, "c")
    return build_hyperplanes(u, px, pc)


def certify_error(
    u: SeparableUtility, fam: HyperplaneFamily, grid: int = 1000
) -> tuple:
    """Measured sup errors (per x axis, per c axis, joint 2-D).

    sup_x and sup_c recompute the intercepts from the utility; the joint
    sup uses the stored planes.  Their envelope min over (l, r) is the
    sum of the per-axis envelopes, so the joint sup over the full 2-D grid
    is exact at O((L + R) * grid) cost.  A corrupted stored coefficient
    shows up as sup_joint != sup_x + sup_c once it moves the grid sup.
    """
    if grid < 1000:
        raise ValueError("grid must be at least 1000 points per axis")
    xs = np.linspace(fam.x_points[0], fam.x_points[-1], grid)
    cs = np.linspace(fam.c_points[0], fam.c_points[-1], grid)
    fx = u.alpha * u.phi1(xs)
    fc = u.beta * u.phi2(cs)
    gx = u.alpha * u.phi1(fam.x_points) - fam.a * fam.x_points
    gc = u.beta * u.phi2(fam.c_points) - fam.b * fam.c_points
    sup_x = float(np.max(_envelope(fam.a, gx, xs) - fx))
    sup_c = float(np.max(_envelope(fam.b, gc, cs) - fc))

    dx = _envelope(fam.a, fam.gamma_x, xs) - fx
    dc = _envelope(fam.b, fam.gamma_c, cs) - fc
    # max over the grid of |dx[i] + dc[j]|
    sup_joint = float(max(dx.max() + dc.max(), -(dx.min() + dc.min())))
    return sup_x, sup_c, sup_joint


def _envelope(slopes, intercepts, ts) -> np.ndarray:
    """min over planes l of slopes[l] * ts + intercepts[l], at every ts.

    The planes are reduced in blocks of at most _ENVELOPE_BLOCK values,
    so memory stays bounded for any plane count; a minimum is exact in
    any order, so the result does not depend on the block size.
    """
    rows = max(1, _ENVELOPE_BLOCK // ts.size)
    env = np.full(ts.size, np.inf)
    for i in range(0, slopes.size, rows):
        part = slopes[i:i + rows, None] * ts[None, :]
        part += intercepts[i:i + rows, None]
        np.minimum(env, part.min(axis=0), out=env)
    return env


def tangency_residual(u: SeparableUtility, fam: HyperplaneFamily) -> float:
    """Largest |h_{l,r}(x_l, c_r) - f(x_l, c_r)| over the stored planes.

    Plane (l, r) misses f at its own anchor by rx[l] + rc[r], the sum of
    a return-leg and a cost-leg residual, so the max over all L*R anchors
    needs only the extremes of the two vectors: O(L + R) and no grid.
    """
    rx = fam.a * fam.x_points + fam.gamma_x - u.alpha * u.phi1(fam.x_points)
    rc = fam.b * fam.c_points + fam.gamma_c - u.beta * u.phi2(fam.c_points)
    return float(max(rx.max() + rc.max(), -(rx.min() + rc.min())))


def removal_experiment(
    u: SeparableUtility, fam: HyperplaneFamily, axis: str
) -> np.ndarray:
    """Per-axis sup error after deleting each interior anchor point in turn.

    Entry i - 1 belongs to point i, 0 < i < M - 1.  With point i gone the
    new sup is the largest equal-error crossing value over the surviving
    consecutive pairs: every pair left of i - 1, the merged pair
    (i - 1, i + 1), and every pair right of i + 1.  All M - 1 neighbour
    pairs and M - 2 merged pairs are evaluated once, and prefix and suffix
    maxima combine them, so the whole table costs O(M).
    """
    pts = fam.x_points if _sign(axis) > 0 else fam.c_points
    if pts.size < 3:
        return np.empty(0)
    pair = tangent_error(
        u, pts[:-1], crossing_point(u, pts[:-1], pts[1:], axis), axis)
    merged = tangent_error(
        u, pts[:-2], crossing_point(u, pts[:-2], pts[2:], axis), axis)
    zero = np.zeros(1)
    # before[k] = max(0, pair[:k]) and after[k] = max(0, pair[k:])
    before = np.maximum.accumulate(np.concatenate([zero, pair]))
    after = np.maximum.accumulate(np.concatenate([pair, zero])[::-1])[::-1]
    return np.maximum(np.maximum(before[:-2], merged), after[2:])
