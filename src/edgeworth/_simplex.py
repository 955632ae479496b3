"""Dense tableau simplex for small LPs.

Solves ``maximize c @ x  s.t.  G @ x <= h, x >= 0`` with ``h >= 0``, so the
origin is always a feasible vertex and no phase-1 is needed.  Bland's rule on
both the entering and leaving variable guards against cycling on the heavily
degenerate instances the trade module produces.  Sized for the package's
scale (a few dozen rows/columns); not a general-purpose solver.
"""

from __future__ import annotations

import numpy as np

from .errors import LPError

_ENTER_TOL = 1e-10
_PIVOT_TOL = 1e-11
_MAX_ITER = 10_000


def maximize(c, G, h) -> tuple[np.ndarray, float]:
    """Return (argmax x, optimum) or raise :class:`LPError`."""
    c = np.asarray(c, dtype=np.float64)
    G = np.atleast_2d(np.asarray(G, dtype=np.float64))
    h = np.asarray(h, dtype=np.float64)
    m, n = G.shape
    if c.size != n or h.size != m:
        raise LPError("inconsistent LP dimensions")
    if np.any(h < 0):
        raise LPError("rhs must be nonnegative (origin must be feasible)")

    # tableau [G | I | h], slack basis
    T = np.empty((m, n + m + 1))
    T[:, :n] = G
    T[:, n : n + m] = np.eye(m)
    T[:, -1] = h
    z = np.concatenate([c, np.zeros(m)])
    basis = np.arange(n, n + m)

    for _ in range(_MAX_ITER):
        reduced = z - z[basis] @ T[:, : n + m]
        candidates = np.nonzero(reduced > _ENTER_TOL)[0]
        if candidates.size == 0:
            x = np.zeros(n + m)
            x[basis] = np.maximum(T[:, -1], 0.0)
            return x[:n], float(c @ x[:n])
        enter = int(candidates[0])  # Bland: smallest eligible index

        col = T[:, enter]
        rows = np.nonzero(col > _PIVOT_TOL)[0]
        if rows.size == 0:
            raise LPError("LP unbounded; the trade polytope should be boxed")
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-15]
        leave = int(ties[np.argmin(basis[ties])])  # Bland tie-break

        T[leave] /= T[leave, enter]
        pivot_row = T[leave]
        factors = T[:, enter].copy()
        factors[leave] = 0.0
        T -= np.outer(factors, pivot_row)
        basis[leave] = enter

    raise LPError(f"simplex did not terminate within {_MAX_ITER} pivots")
