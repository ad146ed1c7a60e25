"""Additively separable utilities f(x, c) = alpha * phi1(x) + beta * phi2(c).

Three families are supported: log, power, and constant relative risk
aversion.  phi1 acts on the portfolio return x > -1 and phi2 on the
turnover cost fraction c in [0, 1); every family's phi2(c) is phi1(-c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("log", "power", "crra")

# sample counts for the construction-time shape checks
_VALIDATION_SAMPLES = 64


class UtilityDomainError(ValueError):
    """Argument outside the domain of phi1 or phi2."""


@dataclass(frozen=True)
class SeparableUtility:
    """Utility f(x, c) = alpha * phi1(x) + beta * phi2(c).

    Parameters
    ----------
    kind : str
        One of "log", "power", "crra".
    alpha, beta : float
        Positive weights on the return and cost terms.
    delta : float, optional
        Exponent in (0, 1); power family only.
    theta : float, optional
        Risk aversion > 1; crra family only.
    """

    kind: str
    alpha: float = 1.0
    beta: float = 1.0
    delta: float | None = None
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown utility kind {self.kind!r}")
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")
        if self.kind == "power":
            if self.delta is None or not 0 < self.delta < 1:
                raise ValueError("power family needs delta in (0, 1)")
        elif self.kind == "crra":
            if self.theta is None or not self.theta > 1:
                raise ValueError("crra family needs theta > 1")
        self._validate_shape()

    def _validate_shape(self):
        # cheap numeric guard: phi1 increasing and concave, phi2 decreasing
        # and concave, sampled on a fixed interior grid
        xs = np.linspace(-0.9, 3.0, _VALIDATION_SAMPLES)
        cs = np.linspace(0.0, 0.95, _VALIDATION_SAMPLES)
        v1 = self.phi1(xs)
        v2 = self.phi2(cs)
        d1 = np.diff(v1)
        d2 = np.diff(v2)
        if not np.all(d1 > 0):
            raise ValueError("phi1 is not strictly increasing on the sample grid")
        if not np.all(d2 < 0):
            raise ValueError("phi2 is not strictly decreasing on the sample grid")
        if not np.all(np.diff(d1) <= 1e-12):
            raise ValueError("phi1 is not concave on the sample grid")
        if not np.all(np.diff(d2) <= 1e-12):
            raise ValueError("phi2 is not concave on the sample grid")

    # -- phi1: return leg, domain x > -1 --------------------------------

    def phi1(self, x):
        x = self._check_x(x)
        if self.kind == "log":
            return np.log1p(x)
        if self.kind == "power":
            return (1.0 + x) ** self.delta
        return (1.0 + x) ** (1.0 - self.theta) / (1.0 - self.theta)

    def phi1_prime(self, x):
        x = self._check_x(x)
        if self.kind == "log":
            return 1.0 / (1.0 + x)
        if self.kind == "power":
            return self.delta * (1.0 + x) ** (self.delta - 1.0)
        return (1.0 + x) ** (-self.theta)

    # -- phi2: cost leg, domain 0 <= c < 1, the mirror phi1(-c) -----------

    def phi2(self, c):
        return self.phi1(-self._check_c(c))

    def phi2_prime(self, c):
        return -self.phi1_prime(-self._check_c(c))

    def eval_f(self, x, c):
        """alpha * phi1(x) + beta * phi2(c)."""
        return self.alpha * self.phi1(x) + self.beta * self.phi2(c)

    # -- helpers --------------------------------------------------------

    @staticmethod
    def _check_x(x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= -1.0):
            raise UtilityDomainError("phi1 requires x > -1")
        return x if x.ndim else float(x)

    @staticmethod
    def _check_c(c):
        c = np.asarray(c, dtype=float)
        if np.any(c < 0.0) or np.any(c >= 1.0):
            raise UtilityDomainError("phi2 requires 0 <= c < 1")
        return c if c.ndim else float(c)

    @classmethod
    def from_config(cls, cfg: dict) -> "SeparableUtility":
        """Build from a JSON config fragment like {"kind": "log", "alpha": 1.0}."""
        delta, theta = cfg.get("delta"), cfg.get("theta")
        return cls(
            kind=cfg.get("kind", "log"),
            alpha=float(cfg.get("alpha", 1.0)),
            beta=float(cfg.get("beta", 1.0)),
            delta=None if delta is None else float(delta),
            theta=None if theta is None else float(theta),
        )
