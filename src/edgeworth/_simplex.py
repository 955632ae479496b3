"""Dense tableau simplex for small LPs.

Solves ``maximize c @ x  s.t.  G @ x <= h, x >= 0`` with ``h >= 0``, so the
origin is always a feasible vertex and no phase-1 is needed.  ``c`` may be a
``(K, n)`` stack of objectives over the one ``G, h``: the starting tableau is
built once and each row is solved from a copy of it, exactly as it would be
alone.  Bland's rule on both the entering and leaving variable guards against
cycling on the heavily degenerate instances the trade module produces.  Sized
for the package's scale (a few dozen rows/columns); not a general-purpose
solver.
"""

from __future__ import annotations

import numpy as np

from .errors import LPError

_ENTER_TOL = 1e-10
_PIVOT_TOL = 1e-11
_MAX_ITER = 10_000


def maximize(c, G, h) -> tuple[np.ndarray, float | np.ndarray]:
    """Return (argmax x, optimum) or raise :class:`LPError`.

    For a ``(K, n)`` stack ``c`` the argmaxes come as ``(K, n)`` rows and the
    optima as a ``(K,)`` array, each row as its one-objective solve gives it.
    """
    c = np.asarray(c, dtype=np.float64)
    G = np.atleast_2d(np.asarray(G, dtype=np.float64))
    h = np.asarray(h, dtype=np.float64)
    m, n = G.shape
    if c.ndim not in (1, 2) or c.shape[-1] != n or h.size != m:
        raise LPError("inconsistent LP dimensions")
    if np.any(h < 0):
        raise LPError("rhs must be nonnegative (origin must be feasible)")

    # tableau [G | I | h], slack basis
    start = np.empty((m, n + m + 1))
    start[:, :n] = G
    start[:, n : n + m] = np.eye(m)
    start[:, -1] = h
    objectives = np.atleast_2d(c)
    xs = np.empty_like(objectives)
    values = np.empty(len(objectives))
    for k, ck in enumerate(objectives):
        xs[k] = _solve(ck, start.copy())
        values[k] = ck @ xs[k]
    return (xs, values) if c.ndim == 2 else (xs[0], float(values[0]))


def _solve(c: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Pivot the starting tableau ``T`` (in place) to the optimum of ``c``."""
    m = T.shape[0]
    n = T.shape[1] - m - 1
    z = np.concatenate([c, np.zeros(m)])
    basis = list(range(n, n + m))
    for _ in range(_MAX_ITER):
        reduced = (z - z[basis] @ T[:, : n + m]).tolist()
        enter = next((j for j, r in enumerate(reduced) if r > _ENTER_TOL), None)
        if enter is None:
            x = np.zeros(n + m)
            x[basis] = np.maximum(T[:, -1], 0.0)
            return x[:n]

        # ratio test on Python floats, the same divisions and comparisons as
        # on arrays; Bland: the smallest entering index, ties to the lowest basis
        col = T[:, enter]
        ratios = [
            (rhs / a, i)
            for i, (a, rhs) in enumerate(zip(col.tolist(), T[:, -1].tolist()))
            if a > _PIVOT_TOL
        ]
        if not ratios:
            raise LPError("LP unbounded; the trade polytope should be boxed")
        best = min(ratio for ratio, _ in ratios)
        leave = min((i for ratio, i in ratios if ratio <= best + 1e-15), key=basis.__getitem__)

        T[leave] /= T[leave, enter]
        factors = col.copy()
        factors[leave] = 0.0
        T -= factors[:, None] * T[leave]  # the outer product, one rounding per entry
        basis[leave] = enter

    raise LPError(f"simplex did not terminate within {_MAX_ITER} pivots")
