"""Polyhedral families of scenario probabilities, and their worst case.

An ambiguity set is a polyhedron inside the probability simplex, given
by its rows alone: A0 p = d0 and A1 p <= d1.  The contamination family
used throughout the experiments keeps every scenario probability at
least (1 - gamma) times its empirical value, a floor on p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
# not called: perfbench/tracing.py counts the calls made through this name
from scipy.optimize import linprog  # noqa: F401

from . import highs


class InfeasibleAmbiguityError(ValueError):
    """The polyhedron has no intersection with the probability simplex."""


@dataclass(frozen=True)
class PolyhedralAmbiguitySet:
    """Probability polytope {p in simplex : A0 p = d0, A1 p <= d1}.

    Without A0 rows and with A1 = -I, as every from_gamma set has, it is
    a floor set p >= floor, with ``floor`` = max(-d1, 0) derived from the
    rows (None for any other set).  A floor set is nonempty iff its floor
    sums to at most 1 within 1e-9; any other set runs a phase-1 LP.
    """

    A0: np.ndarray
    d0: np.ndarray
    A1: np.ndarray
    d1: np.ndarray
    m: int
    floor: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        A0 = _block("A0", self.A0, self.m)
        A1 = _block("A1", self.A1, self.m)
        d0 = np.asarray(self.d0, dtype=float).reshape(-1)
        d1 = np.asarray(self.d1, dtype=float).reshape(-1)
        if A0.shape[0] != d0.size or A1.shape[0] != d1.size:
            raise ValueError("row counts of A and d do not match")
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "A1", A1)
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "d1", d1)
        if A0.shape[0] or not np.array_equal(A1, -np.eye(self.m)):
            # phase-1 LP: any feasible p on the simplex will do
            res = highs.minimize(np.zeros(self.m), **self.lp_rows())
            if res.status != highs.HighsModelStatus.kOptimal:
                raise InfeasibleAmbiguityError(
                    "ambiguity polyhedron does not meet the simplex")
            return
        floor = np.maximum(-d1, 0.0)
        # fails on NaN; the floor plus the rest of the mass anywhere is a member
        if not floor.sum() <= 1.0 + 1e-9:
            raise InfeasibleAmbiguityError("the floor sums to more than 1")
        object.__setattr__(self, "floor", floor)

    def lp_rows(self) -> dict:
        """The set as ``highs.minimize`` rows and bounds over p >= 0.

        The rows are A1 p <= d1, then [A0; 1'] p = [d0; 1], the order in
        which ``linprog`` stacks its inequality and equality rows.  The
        matrix stores their nonzeros row by row, in column order.
        """
        eq = np.concatenate([self.d0, [1.0]])
        parts = (self.A1, self.A0, np.ones((1, self.m)))
        keep = [A != 0.0 for A in parts]
        counts = np.concatenate([k.sum(axis=1) for k in keep])
        matrix = sp.csr_matrix(
            (np.concatenate([A[k] for A, k in zip(parts, keep)]),
             np.concatenate([np.nonzero(k)[1] for k in keep]),
             np.concatenate([[0], np.cumsum(counts)])),
            shape=(counts.size, self.m))
        return {
            "col_lo": np.zeros(self.m),
            "col_hi": np.full(self.m, np.inf),
            "row_lo": np.concatenate([np.full(self.n_ineq, -np.inf), eq]),
            "row_hi": np.concatenate([self.d1, eq]),
            "blocks": [matrix],
        }

    def worst_case(self, q):
        """min p'q over the set, for q of shape (m,) or one per row (k, m).

        A floor set takes the closed form floor'q + (1 - sum(floor)) min q,
        where a -inf q_j gives -inf if floor_j > 0 or the free mass exceeds
        1e-12, the mass the LP probe treats as none; any other set solves
        ``lp_worst_case``'s LP once per row.
        """
        q = np.asarray(q, dtype=float)
        if q.ndim not in (1, 2) or q.shape[-1] != self.m:
            raise ValueError(f"q must have shape ({self.m},) or (k, {self.m})")
        Q = q.reshape(-1, self.m)
        if self.floor is None:
            rows = self.lp_rows()
            value = np.array([_lp_worst_case(rows, row)[0] for row in Q])
        else:
            free = 1.0 - self.floor.sum()
            low = _row_min(Q)
            with np.errstate(invalid="ignore"):  # 0 * -inf, redone below
                value = Q @ self.floor + free * low
            out = low == -np.inf
            if np.any(out):
                lost = Q[out] == -np.inf
                kept = np.where(lost, 0.0, Q[out])
                reach = (self.floor > 0.0) | (free > 1e-12)
                value[out] = np.where((lost & reach).any(axis=1), -math.inf,
                                      kept @ self.floor + free * kept.min(axis=1))
        return float(value[0]) if q.ndim == 1 else value

    def lp_worst_case(self, q):
        """(min p'q over the set, a minimizing p) by LP, never by the floor."""
        return _lp_worst_case(self.lp_rows(), q)

    @property
    def n_eq(self) -> int:
        return self.A0.shape[0]

    @property
    def n_ineq(self) -> int:
        return self.A1.shape[0]


def _lp_worst_case(rows: dict, q):
    q = np.array(q, dtype=float)
    bad = ~np.isfinite(q)
    if np.any(bad):  # a probe LP maximizes their mass; 1e-12 counts as none
        probe = highs.minimize(np.where(bad, -1.0, 0.0), **rows)
        if probe.x is not None and probe.x[bad].sum() > 1e-12:
            return -math.inf, probe.x
        q[bad] = 0.0
    res = highs.minimize(q, **rows)
    if res.status != highs.HighsModelStatus.kOptimal:
        raise RuntimeError("worst-case LP failed on a certified-nonempty set")
    return res.objective, res.x


def _row_min(a: np.ndarray) -> np.ndarray:
    """Exact a.min(axis=1), one column at a time: faster on short rows."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.minimum(out, a[:, j], out=out)
    return out


def _block(name: str, A, m: int) -> np.ndarray:
    """A as rows of length m; a 1-D A is one row, an empty A has no rows."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0:
        return A.reshape(0, m)
    if A.ndim != 2 or A.shape[1] != m:
        raise ValueError(f"{name} must have m = {m} columns, not shape {A.shape}")
    return A


def from_gamma(p_hat, gamma: float) -> PolyhedralAmbiguitySet:
    """Contamination polytope {p in simplex : p >= (1 - gamma) p_hat}.

    gamma = 0 pins the set to the empirical distribution; gamma = 1
    releases it to the whole simplex.
    """
    p_hat = np.asarray(p_hat, dtype=float)
    if p_hat.ndim != 1 or p_hat.size == 0:
        raise ValueError("p_hat must be a nonempty vector")
    # written to fail on NaN
    if not (np.all(p_hat >= 0) and abs(p_hat.sum() - 1.0) <= 1e-12):
        raise ValueError("p_hat must lie on the probability simplex")
    gamma = float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    m = p_hat.size
    return PolyhedralAmbiguitySet(A0=np.zeros((0, m)), d0=np.zeros(0),
                                  A1=-np.eye(m), d1=-(1.0 - gamma) * p_hat, m=m)


def contains(amb: PolyhedralAmbiguitySet, p, tol: float = 1e-9) -> bool:
    """Membership test with componentwise tolerance; NaN is never a member."""
    p = np.asarray(p, dtype=float)
    if p.shape != (amb.m,):
        raise ValueError(f"p must have length {amb.m}")
    # each test is written to fail on NaN
    if not np.all(p >= -tol):
        return False
    if not abs(p.sum() - 1.0) <= tol:
        return False
    if amb.n_eq and not np.max(np.abs(amb.A0 @ p - amb.d0)) <= tol:
        return False
    if amb.n_ineq and not np.all(amb.A1 @ p <= amb.d1 + tol):
        return False
    return True
