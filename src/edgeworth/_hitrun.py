"""Hit-and-run sampling over the relative trade-speed polytope.

The polytope is ``P = {s in [0,1]^H : D^T s = 0}`` for the matrix ``D`` of
per-household trade directions.  ``trade`` draws the two-trader ray and the
three-trader polygon at L = 2 in closed form; the walk serves every other
case: L >= 3, or four or more active traders at L = 2.  The equality
constraint is homogeneous, so ``P`` lives inside the null space of ``D^T``;
cube faces can pin it to a lower-dimensional set still, so the walk runs in
the affine hull recovered from LP-probed vertices.  Degenerate (numerically
point-like) polytopes return their single point and read nothing from the
stream.  Otherwise the walk reads all its draws first, in the order a
step-by-step walk would, and then steps through them; a chord thinner than
the clearance raises, after every step's draws have been read.
``polytope`` writes the tolerance-relaxed polytope as the LP constraints
that ``trade``'s feasibility test solves too.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from . import _simplex
from .errors import SamplingError

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


def _chord(x: list[float], u: list[float]) -> tuple[float, float]:
    """Range of t with 0 <= x + t*u <= 1; contains t = 0 for x in the cube."""
    lo, hi = -np.inf, np.inf
    for xi, ui in zip(x, u):
        if -1e-15 < ui < 1e-15:
            continue
        a = -xi / ui
        b = (1.0 - xi) / ui
        if a > b:
            a, b = b, a
        if a > lo:  # max(lo, a)
            lo = a
        if b < hi:  # min(hi, b)
            hi = b
    return lo, hi


def polytope(directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``G s <= h``: |D^T s| <= ``_EQ_TOL`` coordinatewise and s <= 1, for s >= 0."""
    A = directions.T
    n = directions.shape[0]
    G = np.vstack([A, -A, np.eye(n)])
    h = np.concatenate([np.full(2 * A.shape[0], _EQ_TOL), np.ones(n)])
    return G, h


@cache
def _probe_normals(k: int) -> np.ndarray:
    """k + 1 fixed standard-normal probe coordinates in k dimensions; not part of the stream."""
    normals = np.random.default_rng(0).standard_normal((k + 1, k))
    normals.flags.writeable = False
    return normals


def _probe_vertices(directions: np.ndarray, norms: np.ndarray, null_basis: np.ndarray) -> np.ndarray:
    """Vertices of the tolerance-relaxed polytope under 2k + 3 probe objectives:
    ``norms``, then each probe direction in the k-dimensional null space and
    its negation."""
    # one gemv per probe, the bits of null_basis @ normal (a gemm may round differently)
    probes = np.matmul(null_basis, _probe_normals(null_basis.shape[1])[:, :, None])[..., 0]
    objectives = np.empty((2 * len(probes) + 1, len(norms)))
    objectives[0] = norms
    objectives[1::2] = probes
    objectives[2::2] = -probes
    return _simplex.maximize(objectives, *polytope(directions))[0]


def sample(directions: np.ndarray, norms: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from the polytope's relative interior, deterministic given ``rng``.

    A point-like polytope returns its point without touching ``rng``.
    Otherwise the walk reads ``_BURN_IN`` steps' draws (per step, the
    direction's standard normals, then one uniform) before its first step,
    so a walk that stalls has read them all when it raises.
    """
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
    coords = (vertices - x) @ null_basis
    _, sv, vt = np.linalg.svd(coords, full_matrices=False)
    keep = sv > _POINT_EXTENT
    if not np.any(keep):
        return x  # numerically a single point; the conditional law is that point
    hull = null_basis @ vt[keep].T  # orthonormal columns spanning the hull
    dim = hull.shape[1]

    normals = np.empty((_BURN_IN, dim))
    uniforms = []
    for row in normals:
        rng.standard_normal(out=row)  # reads the stream as standard_normal(dim) does
        uniforms.append(rng.random())
    steps = np.matmul(hull, normals[:, :, None])[..., 0]  # per row the gemv of hull @ g
    steps /= np.sqrt(np.vecdot(steps, steps))[:, None]  # unit rows: hull's columns are orthonormal

    # Python floats from here: the same IEEE operations as numpy's, without its dispatch
    point = x.tolist()
    for u, r in zip(steps.tolist(), uniforms):
        lo, hi = _chord(point, u)
        if not hi - lo > 2.0 * _CLEARANCE:
            raise SamplingError(f"hit-and-run stalled: chord {hi - lo!r} within the clearance")
        a, b = lo + _CLEARANCE, hi - _CLEARANCE
        t = a + (b - a) * r  # Generator.uniform(a, b) reading the uniform r
        for i, ui in enumerate(u):
            v = point[i] + t * ui
            # np.minimum(np.maximum(v, 0.0), 1.0), which also maps -0.0 to 0.0
            point[i] = 0.0 if v <= 0.0 else (1.0 if v >= 1.0 else v)
    return np.array(point)
