"""Product-form reference for the rebalance LP.

robust_lp.assemble splits every cut into a return-leg and a cost-leg
part.  The reference here keeps one cut per (scenario, x-anchor,
c-anchor), so the tests can check that the split is exact.
"""
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

# bound at import, so that assemble_product keeps working while it stands
# in for robust_lp.assemble
from dro_portfolio.robust_lp import RobustLpModel, assemble


def assemble_product(scen, fam, amb, con, k_prev) -> RobustLpModel:
    """The rebalance LP with one cut row per (scenario, x-anchor, c-anchor).

    Reference for robust_lp.assemble: its split cut block is replaced by
    all m*L*R rows w - (A0'nu + A1'lam)_j - a_l K'x^j - b_r C'u <= gamma[l, r],
    which use the full intercept matrix gamma_x[l] + gamma_c[r], and the
    split's scalar s is pinned to 0.  The cuts read K directly, not the
    lifted returns y; the equality rows defining y and the remaining rows
    are shared.  The signature is that of robust_lp.assemble, so the
    reference can stand in for it.
    """
    model = assemble(scen, fam, amb, con, k_prev)
    lay = model.layout
    X, C = scen.scenarios, con.cost_vector
    m, n = X.shape
    L, R = fam.a.size, fam.b.size
    rows = m * L * R
    A_h = np.zeros((rows, lay.nv))
    k_coef = np.repeat((fam.a[None, :, None] * X[:, None, :]).reshape(m * L, n),
                       R, axis=0)
    A_h[:, lay.kp] = -k_coef
    A_h[:, lay.km] = k_coef
    A_h[:, lay.u] = -np.tile(fam.b[:, None] * C[None, :], (m * L, 1))
    A_h[:, lay.w] = 1.0
    j = np.repeat(np.arange(m), L * R)
    A_h[:, lay.nu] = -amb.A0.T[j]
    A_h[:, lay.lam] = -amb.A1.T[j]
    kept = model.row_sections["cuts_c"][1]  # the split cut rows come first
    shift = rows - kept
    sections = {"cuts": (0, rows)}
    sections.update({name: (lo + shift, hi + shift)
                     for name, (lo, hi) in model.row_sections.items()
                     if lo >= kept})
    bounds = model.bounds.copy()
    bounds[lay.s] = 0.0
    gamma = fam.gamma_x[:, None] + fam.gamma_c[None, :]
    return replace(
        model,
        A_ub=sp.vstack([sp.csr_matrix(A_h), model.A_ub[kept:]], format="csr"),
        b_ub=np.concatenate([np.tile(gamma.ravel(), m), model.b_ub[kept:]]),
        bounds=bounds,
        row_sections=sections,
    )
