"""Exact speed draws over a polytope given by its vertices.

The speed polytope ``P = {s in [0,1]^H : A s = 0}`` holds the origin among
its vertices (``trade._vertices``).  Besides the three-trader polygon at L =
2 (``_polygon``), ``sample`` serves every case by the dimension d of their
span: a point raises and reads nothing, a segment from the origin is scaled
by one uniform, and every d >= 2 reads d + 1 uniforms for a point of a cone
from the origin over a simplex (``_cone``): a polygon's triangles, or
beyond, a pulling triangulation's.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from .errors import SamplingError

#: Polytope extent below this (in speed units) counts as a single point.
_POINT_EXTENT = 1e-9

#: A speed this near 0 or 1 is at it, as ``trade._vertices`` lets one round outside [0, 1].
_AT_BOUND = 1e-12


def _cone(vertices, simplices, volumes: list[float], u) -> np.ndarray:
    """A uniform point of the cones from the origin over the bases ``simplices``, d of ``vertices``
    each, of ``volumes`` up to a common factor, from d + 1 uniforms ``u``: one picks a cone by its
    volume, one its radius u^(1/d), and d - 1, sorted, a uniform point of its base (Devroye,
    *Non-Uniform Random Variate Generation*, 1986, ch. XI)."""
    cum = list(itertools.accumulate(volumes))
    pick, radius, *cuts = (float(v) for v in u)
    t = bisect.bisect_right(cum, pick * cum[-1])  # below len(cum): pick < 1 puts pick * total below total
    r = math.sqrt(radius) if len(cuts) == 1 else radius ** (1.0 / (len(cuts) + 1))
    weights = [b - a for a, b in itertools.pairwise([0.0, *sorted(cuts), 1.0])][::-1]  # an edge's (1 - f, f)
    point = [weights[0] * c for c in vertices[simplices[t][0]]]  # on Python floats: a polygon's are few
    for w, i in zip(weights[1:], simplices[t][1:]):
        point = [p + w * c for p, c in zip(point, vertices[i])]
    return np.array([r * p for p in point])


def _polygon(others: list[list[float]], chart: list[list[float]], u) -> np.ndarray:
    """A uniform point of the polygon of the origin and ``others``, given in any order with
    their coordinates ``chart`` in a linear chart of its plane, from three uniforms ``u``.

    They go in order of angle around their centroid, counterclockwise from the
    origin's, each read against the origin's direction: no rounding carries a
    vertex across a 2 pi wrap, even in a sliver chart.  Consecutive ones v, w
    fan into triangles (0, v, w), weighed by chart area, on Python floats.
    """
    ux = -sum(c[0] for c in chart) / len(chart)  # from the vertices' centroid to the origin
    uy = -sum(c[1] for c in chart) / len(chart)

    def turn(i: int) -> tuple[bool, float]:
        wx, wy = chart[i][0] + ux, chart[i][1] + uy  # from the centroid to vertex i
        angle = math.atan2(ux * wy - uy * wx, wx * ux + wy * uy)  # from the origin's side, in (-pi, pi]
        return angle < 0.0, angle

    order = sorted(range(len(chart)), key=turn)
    areas = [abs(chart[v][0] * chart[w][1] - chart[w][0] * chart[v][1]) for v, w in zip(order, order[1:])]  # twice (0, v, w)'s
    return _cone([others[i] for i in order], [(i, i + 1) for i in range(len(areas))], areas, u)


def _pulling(vertices: np.ndarray) -> list[tuple[int, ...]]:
    """A pulling triangulation of the polytope of ``_sort``'s ``vertices``, as tuples of their indices.

    A face is a bit set of the vertices at some bounds, and its facets are the largest proper
    faces that one more bound cuts from it.  Each face pulls its first vertex over the triangulated
    facets that miss it (De Loera, Rambau and Santos, *Triangulations*, 2010, 4.3.2), so P's
    simplices are cones from the origin over the facets where some speed is 1.
    """
    at = np.concatenate([vertices == 0.0, vertices == 1.0], axis=1).T  # a row per bound
    bounds = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in at]
    done = {}

    def pulled(face: int) -> list[tuple[int, ...]]:
        if face not in done:
            first = face & -face  # the lowest bit: the face's first vertex
            apex, rest = first.bit_length() - 1, face ^ first
            if face.bit_count() <= 3:  # a vertex, an edge or a triangle is a simplex
                return done.setdefault(face, [(apex, (rest & -rest).bit_length() - 1, rest.bit_length() - 1)[: face.bit_count()]])
            cut = sorted({face & b for b in bounds} - {0, face}, key=int.bit_count, reverse=True)
            facets = [g for i, g in enumerate(cut) if all(g & c != g for c in cut[:i])]  # in no larger cut
            done[face] = [(apex, *s) for g in sorted(facets) if not g & first for s in pulled(g)]
        return done[face]

    return pulled((1 << len(vertices)) - 1)


def _sort(vertices: np.ndarray) -> np.ndarray:
    """The distinct ``vertices`` by the speeds they hold at 0 and at 1 (``_AT_BOUND``), set there
    exactly, in that order: the origin first, however the enumeration listed them."""
    zero, one = np.abs(vertices) <= _AT_BOUND, np.abs(vertices - 1.0) <= _AT_BOUND
    at = 1 + one.astype(np.int64) - zero  # 0, 1 or 2 per speed, read as a base-3 key
    _, first = np.unique(at @ 3 ** np.arange(at.shape[1])[::-1], return_index=True)
    return np.where(zero, 0.0, np.where(one, 1.0, vertices))[first]


def sample(vertices: np.ndarray, uniforms) -> np.ndarray:
    """One uniform draw from the convex hull of ``vertices`` (the origin among them), from the uniforms
    ``uniforms(k)`` returns k at a time (``Generator.random`` reads a stream so).

    From three dimensions on, each cone weighs its base's volume in the chart of the top d singular
    vectors; simplices of unequal size, which only bounds rounding left inconsistent give, raise.
    """
    _, sv, vt = np.linalg.svd(vertices - vertices.mean(axis=0), full_matrices=False)
    dim = np.count_nonzero(sv > _POINT_EXTENT)  # vt's first dim rows span the affine hull
    if dim == 0:
        raise SamplingError("trade-speed polytope is the single point 0")
    if dim == 1:  # a segment from the origin
        return (1.0 - uniforms(1)[0]) * vertices[np.argmax(np.abs(vertices).max(axis=1))]
    if dim == 2:
        # charted on the hull's rows in the turn that makes their largest 2 x 2
        # minor positive, so the chart moves continuously with the hull, as the triangles do
        (x, y) = vt[:2].tolist()
        minors = [x[i] * y[j] - x[j] * y[i] for i in range(len(x)) for j in range(i + 1, len(x))]
        plane = vt[1::-1] if max(minors, key=abs) < 0.0 else vt[:2]
        others = vertices[np.abs(vertices).max(axis=1) > _POINT_EXTENT]
        return _polygon(others.tolist(), (others @ plane.T).tolist(), uniforms(3))
    rows = _sort(vertices)
    simplices = _pulling(rows)
    sizes = {len(s) for s in simplices}  # d + 1: the origin and a base of d vertices
    if len(sizes) != 1 or min(sizes) <= dim:
        raise SamplingError(f"trade-speed polytope's bounds do not triangulate it: simplices of {sorted(sizes)} vertices")
    (size,) = sizes
    bases = np.fromiter(itertools.chain.from_iterable(simplices), np.intp).reshape(-1, size)[:, 1:]
    volumes = np.abs(np.linalg.det((rows @ vt[: size - 1].T)[bases]))
    return _cone(rows.tolist(), bases, volumes.tolist(), uniforms(size))
