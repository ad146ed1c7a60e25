"""Reference forms of the rebalance LP, built dense.

robust_lp.assemble splits every cut into a return-leg and a cost-leg
part, and above _WHOLE_MAX_L planes per scenario it assembles only one
return-leg cut per scenario and generates the rest on demand.
``assemble_product`` keeps one cut per (scenario, x-anchor, c-anchor),
so the tests can check that the split is exact; ``assemble_whole`` holds
all m*L return-leg planes as rows, so they can check the on-demand
solve against the LP it stands for.
"""
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

# bound at import, so that both references keep working while one stands
# in for robust_lp.assemble
from dro_portfolio.robust_lp import RobustLpModel, assemble


def return_leg_planes(fam, amb, layout) -> tuple:
    """(A, b): all m*L return-leg cuts, row j*L + l for scenario j, plane l.

    Row (j, l) is w - (A0'nu + A1'lam)_j - s - a_l y_j <= gamma_x[l],
    built as a dense matrix, so its stored entries run in column order.
    """
    m, L = amb.m, fam.a.size
    j = np.repeat(np.arange(m), L)
    dense = np.zeros((m * L, layout.nv))
    dense[:, layout.w] = 1.0
    dense[:, layout.nu] = -amb.A0.T[j]
    dense[:, layout.lam] = -amb.A1.T[j]
    dense[:, layout.s] = -1.0
    dense[np.arange(m * L), layout.y.start + j] = -np.tile(fam.a, m)
    return sp.csr_matrix(dense), np.tile(fam.gamma_x, m)


def assemble_whole(scen, fam, amb, con, k_prev) -> RobustLpModel:
    """The rebalance LP with every return-leg plane an explicit row.

    Reference for robust_lp.assemble's on-demand model: its ``cuts_x``
    rows and cut family are replaced by ``return_leg_planes``, and every
    other row is shared.  The signature is that of robust_lp.assemble.
    """
    model = assemble(scen, fam, amb, con, k_prev)
    A, b = return_leg_planes(fam, amb, model.layout)
    kept = model.row_sections["cuts_x"][1]  # the return-leg cuts come first
    shift = A.shape[0] - kept
    sections = {name: (lo + shift, hi + shift)
                for name, (lo, hi) in model.row_sections.items()}
    sections["cuts_x"] = (0, A.shape[0])
    return replace(
        model,
        A_ub=sp.vstack([A, model.A_ub[kept:]], format="csr"),
        b_ub=np.concatenate([b, model.b_ub[kept:]]),
        row_sections=sections,
        cut_family=None,
    )


def assemble_product(scen, fam, amb, con, k_prev) -> RobustLpModel:
    """The rebalance LP with one cut row per (scenario, x-anchor, c-anchor).

    Reference for robust_lp.assemble: its split cut block is replaced by
    all m*L*R rows w - (A0'nu + A1'lam)_j - a_l K'x^j - b_r C'u <= gamma[l, r],
    which use the full intercept matrix gamma_x[l] + gamma_c[r], and the
    split's scalar s is pinned to 0.  The cuts read K directly, not the
    lifted returns y; the equality rows defining y and the remaining rows
    are shared.  The model holds every row, with no cut family.  The
    signature is that of robust_lp.assemble, so the reference can stand
    in for it.
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
        cut_family=None,
    )
