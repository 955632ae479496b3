"""Speed draws over a polytope given by its vertices.

The speed polytope ``P = {s in [0,1]^H : A s = 0}`` holds the origin among
its vertices, which ``trade._vertices`` enumerates.  ``trade`` draws the
two-trader ray in closed form, and lists the three-trader polygon's
vertices at L = 2 in closed form for ``_polygon``, which reads three given
uniforms; ``sample`` serves every
other case from the vertices, by the dimension of their span: a point
raises and reads nothing from the stream, a segment from the origin is
scaled by one uniform, a polygon is fanned into triangles from the origin
(``_polygon``, the closed-form polygon's draw too), and a polytope of three
or more dimensions takes hit-and-run (Smith, Oper. Res. 32, 1984) in the
vertices' affine hull, from their mean.
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


def fan(others: list[list[float]], chart: list[tuple[float, float]], u) -> np.ndarray:
    """A uniform point of a polygon with the origin as a vertex, from three uniforms ``u``.

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
    pick, radius, f = (float(v) for v in u)
    t = min(bisect.bisect_right(cum, pick * total), len(cum) - 1)
    r = math.sqrt(radius)  # a uniform point of the triangle (0, v, w)
    v, w = others[t], others[t + 1]
    return np.array([r * ((1.0 - f) * v_h + f * w_h) for v_h, w_h in zip(v, w)])


def _polygon(others: list[list[float]], chart: list[list[float]], u) -> np.ndarray:
    """``fan`` over a polygon with the origin as a vertex, given its other
    vertices ``others`` and their coordinates ``chart`` in a linear chart of
    its plane, in any order, from three uniforms ``u``.

    They go in order of angle around their centroid, counterclockwise in the
    chart from the origin's angle on, each angle read against the origin's
    direction: no rounding carries a vertex across a 2 pi wrap, even in a
    sliver chart.  A polygon has a handful of vertices, so the order is
    taken on Python floats.
    """
    ux = -sum(c[0] for c in chart) / len(chart)  # from the vertices' centroid to the origin
    uy = -sum(c[1] for c in chart) / len(chart)

    def turn(i: int) -> tuple[bool, float]:
        wx, wy = chart[i][0] + ux, chart[i][1] + uy  # from the centroid to vertex i
        angle = math.atan2(ux * wy - uy * wx, wx * ux + wy * uy)  # from the origin's side, in (-pi, pi]
        return angle < 0.0, angle

    order = sorted(range(len(chart)), key=turn)
    return fan([others[i] for i in order], [chart[i] for i in order], u)


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
        # charted on the hull's rows in the turn that makes their largest 2 x 2
        # minor positive, so the chart moves continuously with the hull, as the triangles do
        (x, y) = hull.tolist()
        minors = [x[i] * y[j] - x[j] * y[i] for i in range(len(x)) for j in range(i + 1, len(x))]
        plane = hull[::-1] if max(minors, key=abs) < 0.0 else hull
        others = vertices[np.abs(vertices).max(axis=1) > _POINT_EXTENT]
        return _polygon(others.tolist(), (others @ plane.T).tolist(), rng.random(3))

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
