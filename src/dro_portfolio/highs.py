"""The one way into HiGHS: the binding bundled with scipy.

Every LP of the package goes to ``scipy.optimize._highspy._core``, the
binding that ``linprog(method="highs")`` drives, in the form

    min c'x  subject to  row_lo <= A x <= row_hi,  col_lo <= x <= col_hi

with A given row-wise, and without ``linprog``'s input checks and
conversions.  ``load`` returns the loaded solver, for a caller that sets
options, a start basis or more rows before it runs.  ``minimize`` runs
one LP with HiGHS's defaults, the settings ``linprog(method="highs")``
uses: presolve on, dual simplex.  A test holds ``minimize`` against
``linprog`` bit for bit, so a scipy release that changes the binding
fails it.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

import numpy as np
from scipy.optimize._highspy._core import (  # noqa: F401 (re-exported)
    HighsBasis,
    HighsBasisStatus,
    HighsModelStatus,
    HighsStatus,
    MatrixFormat,
    ObjSense,
    _Highs,
)


class Result(NamedTuple):
    """HiGHS's model status; the objective and x only at an optimum."""

    status: HighsModelStatus
    objective: float | None
    x: np.ndarray | None


def load(c, col_lo, col_hi, row_lo, row_hi, blocks) -> _Highs | None:
    """A quiet HiGHS instance holding the LP; None if HiGHS refuses it.

    ``blocks`` are CSR matrices with one column per entry of c; their
    rows, stacked in order, are the rows of A, so a caller holding A in
    parts need not build the stacked sparse matrix.
    """
    n_cols = len(c)
    nnz = list(accumulate((b.nnz for b in blocks), initial=0))
    h = _Highs()
    h.setOptionValue("output_flag", False)
    loaded = h.passModel(
        n_cols, sum(b.shape[0] for b in blocks), nnz[-1],
        MatrixFormat.kRowwise, ObjSense.kMinimize, 0.0,
        c, col_lo, col_hi, row_lo, row_hi,
        np.concatenate([b.indptr[:-1] + at for b, at in zip(blocks, nnz)]),
        np.concatenate([b.indices for b in blocks]),
        np.concatenate([b.data for b in blocks]),
        # integrality: every column continuous (the binding reads n_cols
        # entries, so an empty array will not do)
        np.zeros(n_cols, dtype=np.int32),
    )
    return None if loaded == HighsStatus.kError else h


def minimize(c, col_lo, col_hi, row_lo, row_hi, blocks) -> Result:
    """Solve the LP once with HiGHS's defaults; see ``load`` for the form.

    A model HiGHS refuses reads as kModelError, a failed run as
    kSolveError.
    """
    h = load(c, col_lo, col_hi, row_lo, row_hi, blocks)
    if h is None:
        return Result(HighsModelStatus.kModelError, None, None)
    if h.run() == HighsStatus.kError:
        return Result(HighsModelStatus.kSolveError, None, None)
    status = h.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        return Result(status, None, None)
    return Result(status, h.getInfo().objective_function_value,
                  np.array(h.getSolution().col_value))
