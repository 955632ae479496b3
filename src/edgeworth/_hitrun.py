"""Speed draws over a polytope given by its vertices.

The speed polytope ``P = {s in [0,1]^H : A s = 0}`` holds the origin among
its vertices, which ``trade._vertices`` enumerates.  ``trade`` draws the
two-trader ray and the three-trader polygon at L = 2 in closed form;
``sample`` serves every other case from the vertices, by the dimension of
their span: a point raises and reads nothing from the stream, a segment
from the origin is scaled by one uniform, a polygon is fanned into
triangles from the origin (``fan``, the same draw as the closed-form
polygon), and a polytope of three or more dimensions takes hit-and-run
(Smith, Oper. Res. 32, 1984) in the vertices' affine hull, from their mean.
The walk reads all its draws first, in the order a step-by-step walk
would, and then steps through them; a chord thinner than the clearance
raises, after every step's draws have been read.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import SamplingError

_BURN_IN = 64
_CLEARANCE = 1e-12  # chord margin kept off the cube faces

#: Polytope extent below this (in speed units) counts as a single point.
_POINT_EXTENT = 1e-9


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


def fan(others: list[list[float]], chart: list[tuple[float, float]], rng: np.random.Generator) -> np.ndarray:
    """A uniform point of a polygon with the origin as a vertex, from ``rng.random(3)``.

    ``others`` are the other vertices in order around the polygon, starting
    next to the origin, and ``chart`` their coordinates in a linear chart of
    its plane; they fan into triangles (0, v, w) of consecutive vertices.
    The first uniform picks a triangle by its chart area, the other two a
    uniform point in it (Devroye, *Non-Uniform Random Variate Generation*,
    1986, ch. XI).
    """
    cum, total = [], 0.0
    for (vx, vy), (wx, wy) in zip(chart, chart[1:]):
        total += abs(vx * wy - wx * vy)  # twice the chart area of (0, v, w)
        cum.append(total)
    u = rng.random(3).tolist()
    t = min(bisect.bisect_right(cum, u[0] * total), len(cum) - 1)
    r, f = math.sqrt(u[1]), u[2]  # a uniform point of the triangle (0, v, w)
    v, w = others[t], others[t + 1]
    return np.array([r * ((1.0 - f) * v_h + f * w_h) for v_h, w_h in zip(v, w)])


def _polygon(vertices: np.ndarray, plane: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``fan`` over the vertices of a polygon spanned by the two orthonormal rows of ``plane``.

    The vertices other than the origin go in order of angle around their
    centroid, from the origin's angle on.  The turn is the one that makes
    the plane's largest 2 x 2 minor positive, so it moves continuously with
    the plane, as the triangles do.
    """
    others = vertices[np.abs(vertices).max(axis=1) > _POINT_EXTENT]
    (x, y) = plane.tolist()
    minors = [x[i] * y[j] - x[j] * y[i] for i in range(len(x)) for j in range(i + 1, len(x))]
    if max(minors, key=abs) < 0.0:
        plane = plane[::-1]
    chart = others @ plane.T
    c = chart.mean(axis=0)
    angle = np.mod(np.arctan2(chart[:, 1] - c[1], chart[:, 0] - c[0]) - math.atan2(-c[1], -c[0]), 2.0 * math.pi)
    order = np.argsort(angle, kind="stable")
    return fan(others[order].tolist(), chart[order].tolist(), rng)


def sample(vertices: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from the convex hull of ``vertices`` (the origin among them), deterministic given ``rng``.

    A polytope of three or more dimensions reads ``_BURN_IN`` steps' draws
    (per step, the direction's standard normals, then one uniform) before
    its first step, so a walk that stalls has read them all when it raises.
    """
    x = vertices.mean(axis=0)
    _, sv, vt = np.linalg.svd(vertices - x, full_matrices=False)
    hull = vt[sv > _POINT_EXTENT]  # orthonormal rows spanning the affine hull
    dim = hull.shape[0]
    if dim == 0:
        raise SamplingError("trade-speed polytope is the single point 0")
    if dim == 1:  # a segment from the origin
        return (1.0 - rng.random()) * vertices[np.argmax(np.abs(vertices).max(axis=1))]
    if dim == 2:
        return _polygon(vertices, hull, rng)

    normals = np.empty((_BURN_IN, dim))
    uniforms = []
    for row in normals:
        rng.standard_normal(out=row)  # reads the stream as standard_normal(dim) does
        uniforms.append(rng.random())
    steps = normals @ hull  # per row the walk's direction in the hull
    steps /= np.sqrt(np.vecdot(steps, steps))[:, None]  # unit rows: hull's rows are orthonormal

    # Python floats from here: the same IEEE operations as numpy's, without its dispatch
    point = np.clip(x, 0.0, 1.0).tolist()
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
