"""Hit-and-run sampling over the relative trade-speed polytope.

The polytope is ``P = {s in [0,1]^H : D^T s = 0}`` for the matrix ``D`` of
per-household trade directions.  The equality constraint is homogeneous, so
``P`` lives inside the null space of ``D^T``; cube faces can pin it to a
lower-dimensional set still, so the walk runs in the affine hull recovered
from LP-probed vertices.  Degenerate (numerically point-like) polytopes
return their single point; a chord thinner than the clearance raises.
``polytope`` writes the tolerance-relaxed polytope as the LP constraints
that ``trade``'s feasibility test solves too.
"""

from __future__ import annotations

import numpy as np

from . import _simplex
from .errors import LPError, SamplingError

_RANK_CUTOFF = 1e-12
_BURN_IN = 64
_CLEARANCE = 1e-12  # chord margin kept off the cube faces
_EQ_TOL = 1e-11  # slack on each coordinate of D^T s = 0

#: Polytope extent below this (in speed units) counts as a single point.
_POINT_EXTENT = 1e-9


def _null_space(A: np.ndarray, max_rank: int) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of A, of rank <= max_rank."""
    _, sv, vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(sv > (sv[0] if sv.size else 0.0) * _RANK_CUTOFF))
    return vt[min(rank, max_rank):].T


def _chord(x: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    """Range of t with 0 <= x + t*u <= 1; contains t = 0 for x in the cube."""
    lo, hi = -np.inf, np.inf
    for xi, ui in zip(x.tolist(), u.tolist()):  # Python floats: the same IEEE operations, faster
        if abs(ui) < 1e-15:
            continue
        a = -xi / ui
        b = (1.0 - xi) / ui
        if a > b:
            a, b = b, a
        lo = max(lo, a)
        hi = min(hi, b)
    return lo, hi


def polytope(directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``G s <= h``: |D^T s| <= ``_EQ_TOL`` coordinatewise and s <= 1, for s >= 0."""
    A = directions.T
    n = directions.shape[0]
    G = np.vstack([A, -A, np.eye(n)])
    h = np.concatenate([np.full(2 * A.shape[0], _EQ_TOL), np.ones(n)])
    return G, h


def _probe_vertices(
    directions: np.ndarray, norms: np.ndarray, null_basis: np.ndarray
) -> list[np.ndarray]:
    """Vertices of the tolerance-relaxed polytope under probe objectives."""
    G, h = polytope(directions)
    vertices = [_simplex.maximize(norms, G, h)[0]]
    probe = np.random.default_rng(0)  # fixed probe directions; not part of the stream
    for _ in range(null_basis.shape[1] + 1):
        obj = null_basis @ probe.standard_normal(null_basis.shape[1])
        try:
            vertices.append(_simplex.maximize(obj, G, h)[0])
            vertices.append(_simplex.maximize(-obj, G, h)[0])
        except LPError:
            continue
    return vertices


def sample(directions: np.ndarray, norms: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from the polytope's relative interior, deterministic given ``rng``."""
    # Walras' law puts every direction orthogonal to the prices: rank <= L - 1,
    # so a rounding-level singular value cannot cut a dimension off the polytope
    null_basis = _null_space(directions.T, directions.shape[1] - 1)
    if null_basis.shape[1] == 0:
        raise SamplingError("trade-speed polytope has empty interior")
    vertices = _probe_vertices(directions, norms, null_basis)
    x = np.mean(vertices, axis=0)
    x = null_basis @ (null_basis.T @ x)  # exact equality (subspace is homogeneous)
    x = np.clip(x, 0.0, 1.0)

    # affine hull of the polytope, from the probed vertex spread
    coords = (np.stack(vertices) - x) @ null_basis
    _, sv, vt = np.linalg.svd(coords, full_matrices=False)
    keep = sv > _POINT_EXTENT
    if not np.any(keep):
        return x  # numerically a single point; the conditional law is that point
    hull = null_basis @ vt[keep].T  # orthonormal columns spanning the hull
    dim = hull.shape[1]

    for _ in range(_BURN_IN):
        u = hull @ rng.standard_normal(dim)
        u /= float(np.linalg.norm(u))  # hull's columns are orthonormal
        lo, hi = _chord(x, u)
        if not hi - lo > 2.0 * _CLEARANCE:
            raise SamplingError(f"hit-and-run stalled: chord {hi - lo!r} within the clearance")
        t = rng.uniform(lo + _CLEARANCE, hi - _CLEARANCE)
        x = np.minimum(np.maximum(x + t * u, 0.0), 1.0)  # np.clip, without its overhead
    return x
