"""Polyhedral families of scenario probabilities.

An ambiguity set is a polyhedron inside the probability simplex,
described by equality rows A0 p = d0 and inequality rows A1 p <= d1.
The contamination family used throughout the experiments keeps every
scenario probability at least (1 - gamma) times its empirical value.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    gamma and p_hat are recorded when the set was built by from_gamma;
    they enable closed-form worst-case evaluation in the oracles, so a
    gamma needs p_hat and from_gamma's rows exactly.  A recorded p_hat
    that lies in the set proves it nonempty; without such a member, a
    phase-1 LP checks that the set meets the simplex.
    """

    A0: np.ndarray
    d0: np.ndarray
    A1: np.ndarray
    d1: np.ndarray
    m: int
    gamma: float | None = None
    p_hat: np.ndarray | None = None

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
        if self.gamma is not None and (
                self.p_hat is None or A0.shape[0]
                or not np.array_equal(A1, -np.eye(self.m))
                or not np.array_equal(d1, -(1.0 - self.gamma) * np.asarray(self.p_hat))):
            raise ValueError("gamma needs p_hat and the rows from_gamma builds")
        if self.p_hat is None or not contains(self, self.p_hat):
            self._certify_nonempty()

    def _certify_nonempty(self):
        # phase-1 LP: any feasible p on the simplex will do
        res = highs.minimize(np.zeros(self.m), **self.lp_rows())
        if res.status != highs.HighsModelStatus.kOptimal:
            raise InfeasibleAmbiguityError(
                "ambiguity polyhedron does not meet the simplex"
            )

    def lp_rows(self) -> dict:
        """The set as ``highs.minimize`` rows and bounds over p >= 0.

        The rows are A1 p <= d1, then [A0; 1'] p = [d0; 1], the order in
        which ``linprog`` stacks its inequality and equality rows.
        """
        eq = np.concatenate([self.d0, [1.0]])
        return {
            "col_lo": np.zeros(self.m),
            "col_hi": np.full(self.m, np.inf),
            "row_lo": np.concatenate([np.full(self.n_ineq, -np.inf), eq]),
            "row_hi": np.concatenate([self.d1, eq]),
            "blocks": [sp.csr_matrix(
                np.vstack([self.A1, self.A0, np.ones((1, self.m))]))],
        }

    @property
    def n_eq(self) -> int:
        return self.A0.shape[0]

    @property
    def n_ineq(self) -> int:
        return self.A1.shape[0]


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
    if np.any(p_hat < 0) or abs(p_hat.sum() - 1.0) > 1e-12:
        raise ValueError("p_hat must lie on the probability simplex")
    gamma = float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    m = p_hat.size
    return PolyhedralAmbiguitySet(
        A0=np.zeros((0, m)),
        d0=np.zeros(0),
        A1=-np.eye(m),
        d1=-(1.0 - gamma) * p_hat,
        m=m,
        gamma=gamma,
        p_hat=p_hat.copy(),
    )


def contains(amb: PolyhedralAmbiguitySet, p, tol: float = 1e-9) -> bool:
    """Membership test with componentwise tolerance."""
    p = np.asarray(p, dtype=float)
    if p.shape != (amb.m,):
        raise ValueError(f"p must have length {amb.m}")
    if np.any(p < -tol):
        return False
    if abs(p.sum() - 1.0) > tol:
        return False
    if amb.n_eq and np.max(np.abs(amb.A0 @ p - amb.d0)) > tol:
        return False
    if amb.n_ineq and np.any(amb.A1 @ p > amb.d1 + tol):
        return False
    return True

