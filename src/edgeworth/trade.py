"""Linear trade paths, speed polytopes, trade-compatible prices, box sets.

An allocation admits trade at common prices ``p`` when some vector of
relative speeds in the unit cube cancels the aggregate of the households'
linear trade directions while moving at least one household.  Those speeds
form the polytope {s in [0, 1]^H : A s = 0}, for A the directions in an
orthonormal basis of the plane orthogonal to ``p`` (``_projected``), whose
vertices ``_vertices`` enumerates exactly, stacked over price rows; the
doors refuse an economy that needs more than ``_MAX_CANDIDATES`` of them per
row.  ``_decide`` decides trade for a stack of directions, in closed form
at L = 2 (``_line_admits``), by the largest vertex volume beyond;
``_screen`` builds the directions of a stack of prices for it, and
``has_trade`` of one.  A speed draw takes one candidate and raises if it
fails.  At L = 2 with at most three households, ``_line_speeds`` draws on
rows of directions for the engine's epoch: only a zero direction is idle,
two active traders move on a ray in closed form, and three list their
polygon's vertices in closed form, which ``_polygon`` fans from the origin
as it fans every polygon.  Beyond, two active traders ride the same ray, and
every other case draws exactly from the enumerated vertices
(``_polytope_speeds``), which the engine's tabulated epoch at L >= 3 takes
from its decision: a segment, a fanned polygon, or from three dimensions on
a rejection draw in a chart of free speeds, which reads a variable number of
uniforms and fails after ``_MAX_PROPOSALS`` proposals.  A speed vector is a
plain float array, checked only where it comes in, by ``speed_contains``.
``_extremes`` gives the households' extreme substitution rates, the ends of
the trade interval at L = 2, and the Pareto test.  The box set built from
extreme marginal substitution rates (``_box``, tested by ``_in_box``, on rows;
``msr_extremes`` and ``box_contains`` for one) gives the cheap superset used
for tabulated price draws at L >= 3."""

from __future__ import annotations

import bisect
import enum
import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from numpy.typing import NDArray

from . import prefs
from .errors import DomainDegeneracyError, SamplingError, SpecificationError
from .prefs import Family, UtilitySpec, as_price

FloatArray = NDArray[np.float64]

#: Relative agreement of substitution rates below which a state counts as
#: Pareto optimal; separates converged states from one-ulp noise.
PARETO_TOL = 1e-8

#: Trade directions shorter than this count for nothing in the trade
#: decision (``_screen``); the speed draws leave only a zero direction idle.
DEGENERATE_DIRECTION = 1e-12

#: The trade decision's volume threshold per unit of the longest active direction (``_threshold``).
_VOLUME_FACTOR = 1e-9

#: A candidate vertex's solved speeds may round this far outside [0, 1],
#: and its aggregate miss zero by this much times the longest direction
#: (at least 1); within that it counts, clipped to the cube.
_VERTEX_TOL = 1e-12

#: Singular values of the projected directions below this fraction of the
#: largest count as zero: such a row's polytope is enumerated at its rank.
_RANK_CUTOFF = 1e-12

#: The most candidate vertices ``_vertices`` solves per price row.
_MAX_CANDIDATES = 256

#: Polytope extent below this (in speed units) counts as a single point.
_POINT_EXTENT = 1e-9

#: Proposals a rejection draw makes per block of uniforms, and in all before it fails.
_PROPOSALS = 100
_MAX_PROPOSALS = 10_000


class SpeedPrior(str, enum.Enum):
    """Priors over relative trade speeds supported by the engine."""

    UNIFORM_CUBE = "uniform_cube"
    MAX_SPEED = "max_speed"


@dataclass(frozen=True, eq=False)
class _Group:
    """The households of one family and CES elasticity: their indices and their weights, stacked ``(k, L)``.

    The ``prefs`` demand and rate cores (``_rates``, ``_demand`` through
    ``_path_end``, ``_inverse_demand``) take a group where they take a spec:
    its weights broadcast against the members' ``(..., k, L)`` bundles, so one
    call serves them all.  None of those cores reads a level exponent, so a
    group has none.  Consecutive members are a slice, so their bundles are a
    view of the stack and keep its memory layout.
    """

    family: Family
    weights: FloatArray
    elasticity: float | None
    members: slice | NDArray[np.intp]


@dataclass(frozen=True, eq=False)
class Economy:
    """A pure-exchange economy: two or more households' utilities over the same goods."""

    specs: tuple[UtilitySpec, ...]

    def __post_init__(self) -> None:
        if len(self.specs) < 2:
            raise SpecificationError("an economy needs at least two households")
        if len({u.dimension for u in self.specs}) != 1:
            raise SpecificationError("all households must trade the same goods")
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def of(cls, specs) -> "Economy":
        return cls(tuple(specs))

    @property
    def size(self) -> int:
        return len(self.specs)

    @property
    def n_goods(self) -> int:
        return self.specs[0].dimension

    @cached_property
    def groups(self) -> tuple[_Group, ...]:
        """The households by family and CES elasticity, in the order of each group's first member."""
        members: dict[tuple[Family, float | None], list[int]] = {}
        for h, u in enumerate(self.specs):
            members.setdefault((u.family, u.elasticity), []).append(h)
        return tuple(
            _Group(
                family, np.stack([self.specs[h].weights for h in m]), sigma,
                slice(m[0], m[-1] + 1) if m[-1] - m[0] == len(m) - 1 else np.array(m),
            )
            for (family, sigma), m in members.items()
        )


@dataclass(frozen=True, eq=False)
class Allocation:
    """H strictly positive bundles of L goods; the state of the economy."""

    bundles: FloatArray

    def __post_init__(self) -> None:
        b = np.asarray(self.bundles, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] < 2 or b.shape[1] < 2:
            raise SpecificationError("an allocation is an H x L matrix, H, L >= 2")
        if not (b.min() > 0.0 and b.max() < math.inf):  # a NaN fails too
            raise SpecificationError("allocation coordinates must be strictly positive")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "bundles", b)

    @property
    def aggregate(self) -> FloatArray:
        return self.bundles.sum(axis=0)

    def bundle(self, h: int) -> FloatArray:
        return self.bundles[h]


@dataclass(frozen=True, eq=False)
class BoxSet:
    """Extreme substitution-rate bounds: lower_rates[i, j] = m_ij, upper = M_ij."""

    lower_rates: FloatArray
    upper_rates: FloatArray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lower_rates, dtype=np.float64)
        hi = np.asarray(self.upper_rates, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 2 or lo.shape[0] != lo.shape[1]:
            raise SpecificationError("rate bounds must be square matrices of equal shape")
        if np.any(lo > hi * (1.0 + 1e-12)):
            raise SpecificationError("lower rate bound exceeds upper bound")
        if np.max(np.abs(lo * hi.T - 1.0)) > 1e-12:
            raise SpecificationError("rate bounds must satisfy m_ij * M_ji = 1")
        for a in (lo, hi):
            a.setflags(write=False)
        object.__setattr__(self, "lower_rates", lo)
        object.__setattr__(self, "upper_rates", hi)


def _check_state(e: Economy, y: Allocation) -> None:
    if y.bundles.shape != (e.size, e.n_goods):
        raise SpecificationError(
            f"allocation shape {y.bundles.shape} does not match economy "
            f"({e.size} households, {e.n_goods} goods)"
        )
    if y.bundles.min() < prefs.POSITIVE_FLOOR:
        raise DomainDegeneracyError("bundle coordinate below 1e-300")


def _grouped(core, e: Economy, bundles: FloatArray, *args) -> FloatArray:
    """``core(g, members' bundles, *args)`` for each household group ``g`` of ``e`` on an ``(..., H, L)``
    stack, its rows in household order; ``args`` broadcast against every group's ``(..., k, L)`` stack.

    One group takes the whole stack.
    """
    if len(e.groups) == 1:
        return core(e.groups[0], bundles, *args)
    parts = [core(g, bundles[..., g.members, :], *args) for g in e.groups]
    # laid out as the bundles are, which the 2x2 kernel keeps goods apart
    out = np.empty_like(bundles, shape=parts[0].shape[:-2] + bundles.shape[-2:-1] + parts[0].shape[-1:])
    for g, part in zip(e.groups, parts):
        out[..., g.members, :] = part
    return out


def _path_end(u: UtilitySpec | _Group, b: FloatArray, p: FloatArray) -> FloatArray:
    """x_n(p / p.b), where the linear path from ``b`` at prices ``p`` (broadcast against ``b``) ends; no checks."""
    return prefs._demand(u, p / np.vecdot(p, b)[..., None])


def _directions(e: Economy, bundles: FloatArray, p: FloatArray) -> FloatArray:
    """``all_trade_directions`` of ``(..., H, L)`` bundles at ``(..., L)`` prices; only the demand is guarded."""
    return prefs._guard(_grouped(_path_end, e, bundles, p[..., None, :]), "demand") - bundles


def all_trade_directions(e: Economy, y: Allocation, p) -> FloatArray:
    """Stacked trade directions, one row per household: row h is the
    derivative at t = 0 of its linear path, x_n(p / p.y_h) - y_h."""
    _check_state(e, y)
    return _directions(e, y.bundles, as_price(p, e.n_goods))


def _cancel_and_move_failure(dirs: FloatArray, norms: FloatArray, s: FloatArray) -> str | None:
    """Why ``s`` fails to cancel aggregate trade while moving someone, or None."""
    miss = s @ dirs
    residual, volume = math.sqrt(float(miss @ miss)), float(s @ norms)  # the residual's norm, as np.linalg.norm takes it
    bound = 1e-9 * max(1.0, float(norms.max(initial=0.0)))
    if residual <= bound and volume > 1e-12:
        return None
    return f"residual {residual!r} (bound {bound!r}), volume {volume!r} (floor 1e-12)"


def speed_contains(e: Economy, y: Allocation, p, sigma) -> bool:
    """Whether ``sigma``, one speed in [0, 1] per household, cancels aggregate trade while moving someone."""
    s = np.asarray(sigma, dtype=np.float64)
    if not (s.shape == (e.size,) and np.all((s >= 0.0) & (s <= 1.0))):  # a NaN fails too
        got = " ".join(repr(sigma).split())  # on one line
        raise SpecificationError(f"sigma must be a vector of H = {e.size} speeds in [0, 1], got {got}")
    dirs = all_trade_directions(e, y, p)
    return _cancel_and_move_failure(dirs, np.linalg.norm(dirs, axis=1), s) is None


def has_trade(e: Economy, y: Allocation, p) -> bool:
    """Whether trade exists at prices p: one row of ``_screen``."""
    _check_size(e)
    _check_state(e, y)
    return bool(_screen(e, y.bundles, as_price(p, e.n_goods)[None, :])[0])


def _check_size(e: Economy) -> None:
    """Refuse an economy whose price rows can need more than ``_MAX_CANDIDATES`` candidate vertices:
    C(H, r) 2^(H - r) at their worst rank r <= L - 1."""
    h = e.size
    n = max(math.comb(h, r) * 2 ** (h - r) for r in range(1, min(e.n_goods - 1, h) + 1))
    if n > _MAX_CANDIDATES:
        raise SpecificationError(
            f"{h} households over {e.n_goods} goods need {n} candidate speed vertices per price, more than {_MAX_CANDIDATES}"
        )


def _screen(e: Economy, bundles: FloatArray, p: FloatArray, found: list | None = None) -> NDArray[np.bool_]:
    """Whether trade exists at each row of ``(G, L)`` prices, one bool per row,
    each row at its own ``(G, H, L)`` bundles or all at one ``(H, L)`` state:
    ``_decide`` on the directions of every row, which come from one pass of
    the ``prefs`` core; only the demand is guarded."""
    return _decide(_directions(e, bundles, p), p, found)


def _decide(dirs: FloatArray, p: FloatArray, found: list | None = None) -> NDArray[np.bool_]:
    """The trade decision for ``(G, H, L)`` directions at ``(G, L)`` prices, one bool per row.

    A row's active directions are those at least ``DEGENERATE_DIRECTION``
    long.  Trade exists iff the largest volume ``s . |d|`` over the exact
    speed polytope of the active directions exceeds ``_threshold``,
    ``_VOLUME_FACTOR`` times the longest of them (at least 1): rounding in
    the directions grows with the longest one, so the threshold does.  At
    L = 2 Walras' law puts the directions on the line orthogonal to the
    prices, each on the side its first coordinate's sign names (as for the
    speed draw), and the largest volume is exactly 2 min(P, N) for P and N
    the active norms summed on each side.  Beyond, a linear volume is
    largest at a vertex (``_vertices``).
    Directions that are not finite, as an unguarded demand's may be, make a
    NaN length idle and an infinite one admit nothing, at every L.  Given a
    list ``found``, the decision keeps the vertices there for
    ``_row_vertices``, so a speed draw at one of the prices can reuse them.
    """
    norms = np.linalg.norm(dirs, axis=-1)
    if dirs.shape[-1] == 2:
        return _line_admits(dirs, norms)
    active = norms >= DEGENERATE_DIRECTION
    n_act = np.where(active, norms, 0.0)
    longest = n_act.max(axis=-1, initial=0.0)
    volume = np.zeros(p.shape[0])
    rows = np.flatnonzero((np.count_nonzero(active, axis=-1) >= 2) & (longest < math.inf))
    A = _projected(np.where(active[rows, :, None], dirs[rows], 0.0), p[rows])
    for group, vertices, ok in _vertices(A):  # a candidate that is no vertex is 0, of volume 0
        g = rows[group]
        volume[g] = np.einsum("hkg,gh->kg", vertices, n_act[g]).max(axis=0)
        if found is not None:  # an idle household's speed is free at a vertex; the draw's is 0
            found.append((g, vertices, ok & ~np.any(vertices * ~active[g].T[:, None, :], axis=0)))
    return volume > _threshold(longest)


def _threshold(longest: FloatArray) -> FloatArray:
    """The trade decision's volume threshold: ``_VOLUME_FACTOR`` times the longest active direction, at least 1."""
    return _VOLUME_FACTOR * np.maximum(longest, 1.0)


def _line_admits(dirs: FloatArray, norms: FloatArray) -> NDArray[np.bool_]:
    """The trade decision at L = 2 for ``(..., H, 2)`` directions of lengths ``norms``: the largest
    volume over the speed polytope, 2 min(P, N) for P and N the active lengths summed on each side
    of the price line, clears ``_threshold``.

    Walras' law puts every direction on the line orthogonal to the prices;
    its unit with a positive first coordinate signs the lengths, as for the
    speed draw.  The sums go household by household, the rows being many.
    """
    n_act = np.where(norms >= DEGENERATE_DIRECTION, norms, 0.0)
    signed = np.copysign(n_act, dirs[..., 0])
    up = down = longest = 0.0
    for h in range(signed.shape[-1]):
        up, down = up + np.maximum(signed[..., h], 0.0), down + np.maximum(-signed[..., h], 0.0)
        longest = np.maximum(longest, n_act[..., h])
    return 2.0 * np.minimum(up, down) > _threshold(longest)


def _row_vertices(found: list, row: int) -> FloatArray | None:
    """The ``(n, H)`` vertices ``_decide`` found at one of its price rows, idle speeds at 0, or None."""
    for g, vertices, ok in found:
        at = np.flatnonzero(g == row)
        if at.size:
            return vertices[:, ok[:, at[0]], at[0]].T
    return None


def _projected(dirs: FloatArray, p: FloatArray) -> FloatArray:
    """The ``(..., H, L)`` directions in an orthonormal basis of the plane orthogonal to ``(..., L)`` prices, as ``(..., L - 1, H)``.

    The basis is the first L - 1 rows of the Householder reflection that
    takes u = p / |p| to -e_L, I - v v^T / (1 + u_L) for v = u + e_L.  The
    prices are positive, so it moves continuously with them.
    """
    u = p / np.linalg.norm(p, axis=-1, keepdims=True)
    along = np.vecdot(dirs, u[..., None, :]) + dirs[..., -1]  # v . d, one per direction
    along /= 1.0 + u[..., -1:]
    return np.swapaxes(dirs[..., :-1], -1, -2) - u[..., :-1, None] * along[..., None, :]


@cache
def _bases(households: int, rank: int) -> tuple[NDArray[np.intp], FloatArray]:
    """The candidates of ``_vertices`` at one rank: each one's ``rank`` solved
    speeds, ``(K, rank)``, and its other speeds at the bounds they are fixed
    at, ``(K, H)`` with 0 at the solved ones."""
    solved, fixed = [], []
    for s in itertools.combinations(range(households), rank):
        rest = [h for h in range(households) if h not in s]
        for b in itertools.product((0.0, 1.0), repeat=len(rest)):
            solved.append(s)
            speeds = [0.0] * households
            for h, v in zip(rest, b):
                speeds[h] = v
            fixed.append(speeds)
    tables = np.array(solved, dtype=np.intp).reshape(len(solved), rank), np.array(fixed)
    for t in tables:
        t.setflags(write=False)  # every caller shares them
    return tables


def _cramer(m: FloatArray, b: FloatArray) -> tuple[FloatArray, FloatArray]:
    """Cramer's rule on r x r systems m s = b laid out ``(r, r, ...)`` and ``(r, ...)``:
    each determinant, and each solution times it; in closed form for r <= 2."""
    r = m.shape[0]
    if r == 1:
        return m[0, 0], b
    if r == 2:
        a, c, d, e = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
        num = np.empty_like(b)
        np.subtract(b[0] * e, c * b[1], out=num[0])
        np.subtract(a * b[1], b[0] * d, out=num[1])
        return a * e - c * d, num
    last, col = np.moveaxis(m, (0, 1), (-2, -1)), np.moveaxis(b, 0, -1)[..., None]
    cols = [np.linalg.det(np.concatenate([last[..., :i], col, last[..., i + 1 :]], axis=-1)) for i in range(r)]
    return np.linalg.det(last), np.stack(cols)


def _enumerate(M: FloatArray, scale: FloatArray) -> tuple[FloatArray, NDArray[np.bool_], FloatArray]:
    """The candidates of ``_vertices`` for a ``(g, r, H)`` stack of r independent
    constraint rows: the ``(H, K, g)`` candidates, 0 where one is no vertex,
    and the ``(K, g)`` mask of vertices and determinants.  The stack runs
    along the last axis, so every pass over speeds is a pass over slabs."""
    rank, households = M.shape[-2:]
    solved, fixed = _bases(households, rank)
    cols = np.ascontiguousarray(M.transpose(1, 2, 0))  # (r, H, g)
    basis = cols[:, solved.T]  # (r, r, K, g): the solved speeds' columns
    rhs = -(fixed @ cols)  # (r, K, g)
    det, s = _cramer(basis, rhs)
    with np.errstate(divide="ignore", invalid="ignore"):  # a singular choice gives no vertex
        s = s / det
        miss = np.abs((basis * s).sum(axis=1) - rhs).max(axis=0, initial=0.0)
        ok = np.all((s >= -_VERTEX_TOL) & (s <= 1.0 + _VERTEX_TOL), axis=0) & (miss <= _VERTEX_TOL * scale)
    cand = np.repeat(fixed.T[..., None], ok.shape[-1], axis=-1)
    cand[solved.T, np.arange(solved.shape[0])] = np.clip(s, 0.0, 1.0)
    return np.where(ok, cand, 0.0), ok, det


def _vertices(A: FloatArray):
    """The vertices of {s in [0, 1]^H : A s = 0} for each matrix of a ``(G, m, H)`` stack.

    A row of rank r has its vertices among C(H, r) 2^(H - r) candidates: fix
    H - r speeds at 0 or 1 and solve for the other r by Cramer's rule on r
    independent rows of A.  A candidate is a vertex when its solved speeds
    lie in [0, 1] and those rows vanish at it, each within ``_VERTEX_TOL``;
    it is then clipped to the cube.  Every row is first taken at full rank
    m, on A itself, unless it has fewer columns than rows.  By Cauchy-Binet
    its squared m x m minors sum to the product of its squared singular
    values, so a row whose minors nearly vanish (as for collinear
    directions) is rank-deficient or close to it: its rank is read from its
    singular values, and a row of lower rank r is enumerated again on its
    top r right singular vectors.  Yields, per rank present, the rows of
    that rank, their ``(H, K, g)`` candidates (0 where one is no vertex) and
    the ``(K, g)`` mask of vertices.
    """
    m, households = A.shape[-2:]
    squares = (A * A).sum(axis=-2)
    scale = np.sqrt(np.maximum(squares.max(axis=-1, initial=0.0), 1.0))  # the longest column, at least 1
    low = np.ones(A.shape[0], dtype=bool)  # fewer speeds than rows: no row has full rank
    if m <= households:
        cand, ok, det = _enumerate(A, scale)
        # each m-subset's minor is solved 2^(H - m) times; squares sum to the Frobenius norm's square
        low = (det * det).sum(axis=0) / 2 ** (households - m) <= _RANK_CUTOFF**2 * squares.sum(axis=-1) ** m
        if not np.count_nonzero(low):
            yield np.arange(A.shape[0]), cand, ok
            return
        if not np.all(low):
            yield np.flatnonzero(~low), cand[..., ~low], ok[:, ~low]
    low = np.flatnonzero(low)
    _, sv, vt = np.linalg.svd(A[low])
    rank = np.count_nonzero(sv > _RANK_CUTOFF * sv[:, :1], axis=-1)
    for r in np.unique(rank).tolist():
        rows = low[rank == r]
        yield rows, *_enumerate(vt[rank == r, :r], scale[rows])[:2]


def household_rates(e: Economy, y: Allocation) -> FloatArray:
    """(H, L - 1) substitution rates, one row per household."""
    _check_state(e, y)
    return _household_rates(e, y.bundles)


def _household_rates(e: Economy, bundles: FloatArray) -> FloatArray:
    """``household_rates`` of ``(..., H, L)`` bundles; only the rates are guarded."""
    return prefs._guard(_grouped(prefs._rates, e, bundles), "substitution rates")


def _extremes(rates: FloatArray, tol: float) -> tuple[FloatArray, FloatArray, NDArray[np.bool_]]:
    """The extremes over the households of ``(..., H, L - 1)`` substitution rates, each ``(..., L - 1)``,
    and where they agree within relative ``tol`` (the Pareto test); at L = 2 the trade interval lies between them.

    Folded in household by household, as ``_line_admits`` sums, the rows being many; min and max are exact.
    """
    lo = hi = rates[..., 0, :]
    for h in range(1, rates.shape[-2]):
        lo, hi = np.minimum(lo, rates[..., h, :]), np.maximum(hi, rates[..., h, :])
    return lo, hi, hi - lo <= tol * lo


def trade_interval_2x2(e: Economy, y: Allocation) -> tuple[float, float] | None:
    """Open interval of trade-compatible price rates for a 2-household,
    2-good economy, or None when the substitution rates already agree."""
    if e.size != 2 or e.n_goods != 2:
        raise SpecificationError("trade_interval_2x2 requires H = L = 2")
    _check_state(e, y)
    (lo,), (hi,), (agree,) = _extremes(_household_rates(e, y.bundles), PARETO_TOL)
    return None if agree else (float(lo), float(hi))


def msr_extremes(e: Economy, y: Allocation) -> BoxSet:
    """Elementwise min/max of households' substitution-rate ratios: one row of ``_box``."""
    _check_state(e, y)
    return BoxSet(*_box(e, y.bundles))


def _box(e: Economy, bundles: FloatArray) -> tuple[FloatArray, FloatArray]:
    """``msr_extremes`` of ``(..., H, L)`` bundles: the lower and upper rate bounds, each ``(..., L, L)``;
    only the inverse demand is guarded."""
    inv = prefs._guard(_grouped(prefs._inverse_demand, e, bundles), "inverse demand")
    ratios = inv[..., :, None] / inv[..., None, :]  # (..., H, L, L), ratios[..., h, i, j]
    # enforce exact reciprocity against rounding: m_ij = 1 / M_ji
    lower = np.minimum(ratios.min(axis=-3), 1.0 / np.swapaxes(ratios.max(axis=-3), -1, -2))
    return lower, 1.0 / np.swapaxes(lower, -1, -2)


def box_contains(b: BoxSet, q) -> bool | NDArray[np.bool_]:
    """Whether p = (q, 1) satisfies the min/max rate sandwich for every good: one box of ``_in_box``.

    ``q`` is one rate vector of length L - 1, answered with a bool, or a
    (G, L - 1) stack of them, answered with one bool per row (the rate rule).
    """
    n = b.lower_rates.shape[0]
    q = prefs._as_rates(q, n, stack=None)
    inside = _in_box(b.lower_rates, b.upper_rates, q.reshape(-1, n - 1))
    return bool(inside[0]) if q.ndim == 1 else inside


def _in_box(lower: FloatArray, upper: FloatArray, q: FloatArray) -> NDArray[np.bool_]:
    """``box_contains`` of ``(G, L - 1)`` rates in each box of ``(..., L, L)`` bounds, as ``(..., G)``."""
    n = lower.shape[-1]
    p = np.ones((n, q.shape[0]))  # goods first, so each pass runs along the rates
    p[:-1] = q.T
    others = ~np.eye(n, dtype=bool)[..., None]  # bounds[..., i, j] * p[j] pairs good i with p_j
    lo = np.where(others, lower[..., None] * p, np.inf).min(axis=-2)
    hi = np.where(others, upper[..., None] * p, -np.inf).max(axis=-2)
    # closed sandwich; relative slack so attained extremes survive rounding
    return np.all((lo * (1.0 - 1e-12) <= p) & (p <= hi * (1.0 + 1e-12)), axis=-2)


def _raise_first(failed, why, kind: type[Exception] = SamplingError) -> None:
    """Default ``fail`` of the row-wise draws: raise ``kind`` for the first failing row."""
    raise kind(why(int(failed[0])))


_NO_RAY = "fewer than two households can trade at these prices"
_NOT_OPPOSED = "two-trader directions are not opposed; no feasible speeds"
_ONE_WAY = "three-trader directions all point one way along the price line; no feasible speeds"


def _ray_speeds(n_i: FloatArray, n_j: FloatArray, u: FloatArray | None = None) -> FloatArray:
    """Speeds of two opposed traders on the balance ray sigma_i n_i = sigma_j n_j,
    as ``(rows, 2)`` for rows of positive direction lengths n_i and n_j.

    The faster one moves at 1 (the max-speed prior); given one uniform ``u``
    per row, both are scaled by 1 - u, in (0, 1].
    """
    ratio = n_i / n_j  # sigma_j / sigma_i on the balance ray
    s = np.empty((2, ratio.size))  # traders apart, so each pass runs along the rows
    np.minimum(1.0 / ratio, 1.0, out=s[0])
    np.minimum(ratio, 1.0, out=s[1])
    if u is not None:
        s *= 1.0 - u
    return s.T


def _line_speeds(dirs: FloatArray, max_speed: bool, draw, fail=_raise_first) -> FloatArray:
    """Speeds for rows of ``(rows, H, 2)`` directions at L = 2, H in {2, 3}, as ``(rows, H)``.

    The idle rule: a trader whose direction is zero does not move.  The
    others are signed along the price line as by ``_line_admits``.  Two
    active traders on opposite sides of the price line move on the balance ray
    (``_ray_speeds``, scaled by one uniform per row from ``draw(rows)`` under
    the uniform prior); three, split between the sides, take a uniform point
    of their polygon (``_polygon_speeds``, three uniforms), rescaled and
    checked as every polytope draw is (``_settle``).  Rows with fewer than
    two active traders, or with every one on one side, go to ``fail(rows,
    why)`` and keep placeholder speeds.
    """
    norms = np.hypot(dirs[..., 0], dirs[..., 1])
    a = np.copysign(norms, dirs[..., 0])  # signed lengths; an idle trader's is 0
    if a.shape[1] == 2:
        ok = a[:, 0] * a[:, 1] < 0.0  # both move, on opposite sides (a NaN fails)
        if np.count_nonzero(ok) < ok.size:
            fail(np.flatnonzero(~ok), lambda r: _NO_RAY if norms[r].min() == 0.0 else _NOT_OPPOSED)
            norms = np.where(ok[:, None], norms, 1.0)  # placeholders
        return _ray_speeds(norms[:, 0], norms[:, 1], None if max_speed else draw(slice(None)))
    sigma = np.zeros(a.shape)
    for r, lengths in enumerate(a.tolist()):  # a Python loop: a polygon is drawn one row at a time
        up, down = sum(v > 0.0 for v in lengths), sum(v < 0.0 for v in lengths)
        if not (up and down):
            fail([r], lambda _, n=up + down: (_NO_RAY, _NO_RAY, _NOT_OPPOSED, _ONE_WAY)[n])
        elif up + down == 2:
            i, j = (h for h, v in enumerate(lengths) if v != 0.0)
            sigma[r, [i, j]] = _ray_speeds(norms[r, i : i + 1], norms[r, j : j + 1], None if max_speed else draw([r]))[0]
        else:
            u = [float(draw([r])[0]) for _ in range(3)]
            try:
                sigma[r] = _settle(dirs[r], norms[r], slice(None), _polygon_speeds(lengths, u), max_speed)
            except SamplingError as exc:
                fail([r], lambda _, why=str(exc): why)
    return sigma


def _polygon_speeds(lengths: FloatArray, u) -> FloatArray:
    """A uniform point of the polygon {s in [0, 1]^3 : a . s = 0}, from three uniforms ``u``.

    ``lengths`` are the three traders' signed lengths a along the price line.
    The vertices are the origin and the plane's crossings of the cube's
    edges, where two speeds sit at 0 or 1 and the third balances them.  The
    two traders on the same side of the line chart the polygon at a constant
    area factor, and ``_polygon`` fans it from the origin in that
    chart, as it fans every polygon the vertex enumeration finds.  The chart
    depends only on the signs of a and the order changes only where
    vertices meet, so the draw moves continuously with a.
    """
    a = [float(v) for v in lengths]
    up = [h for h in range(3) if a[h] > 0.0]
    if len(up) not in (1, 2):
        raise SamplingError(_ONE_WAY)
    j, k = up if len(up) == 2 else [h for h in range(3) if h not in up]  # the chart's traders
    others = []
    for i in range(3):
        m, n = (h for h in range(3) if h != i)
        for b_m, b_n in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
            s = -(a[m] * b_m + a[n] * b_n) / a[i]
            if 0.0 <= s <= 1.0:
                v = [0.0, 0.0, 0.0]
                v[i], v[m], v[n] = s, b_m, b_n
                others.append(v)
    return _polygon(others, [(v[j], v[k]) for v in others], u)


def _polygon(others: list[list[float]], chart: list[list[float]], u) -> FloatArray:
    """A uniform point of the polygon of the origin and ``others``, given in any order with
    their coordinates ``chart`` in a linear chart of its plane, from three uniforms ``u``.

    They go in order of angle around their centroid, counterclockwise from the
    origin's, each read against the origin's direction: no rounding carries a
    vertex across a 2 pi wrap, even in a sliver chart.  Consecutive ones v, w
    fan into triangles (0, v, w), on Python floats: one uniform picks one by
    its chart area, the square root of one scales a point of its edge vw, and
    one places that point, at (1 - f) v + f w (Devroye, *Non-Uniform Random
    Variate Generation*, 1986, ch. XI).
    """
    ux = -sum(c[0] for c in chart) / len(chart)  # from the vertices' centroid to the origin
    uy = -sum(c[1] for c in chart) / len(chart)

    def turn(i: int) -> tuple[bool, float]:
        wx, wy = chart[i][0] + ux, chart[i][1] + uy  # from the centroid to vertex i
        angle = math.atan2(ux * wy - uy * wx, wx * ux + wy * uy)  # from the origin's side, in (-pi, pi]
        return angle < 0.0, angle

    order = sorted(range(len(chart)), key=turn)
    areas = [abs(chart[v][0] * chart[w][1] - chart[w][0] * chart[v][1]) for v, w in zip(order, order[1:])]  # twice (0, v, w)'s
    cum = list(itertools.accumulate(areas))
    pick, radius, f = (float(v) for v in u)
    t = bisect.bisect_right(cum, pick * cum[-1])  # below len(cum): pick < 1 puts pick * total below total
    r = math.sqrt(radius)
    return np.array([r * ((1.0 - f) * a + f * b) for a, b in zip(others[order[t]], others[order[t + 1]])])


def _polytope_speeds(vertices: FloatArray, uniforms) -> FloatArray:
    """One uniform draw from the convex hull of ``vertices`` (the origin among them), from the
    uniforms ``uniforms(k)`` returns k at a time (``Generator.random`` reads a stream so).

    The hull's dimension d is the number of its centred singular values above
    ``_POINT_EXTENT``.  A point raises and reads nothing; a segment from the
    origin is scaled by one uniform; a polygon is fanned (``_polygon``) from
    three, in the chart of its top two singular vectors turned to make their
    largest 2 x 2 minor positive, which moves continuously with the hull.
    From three dimensions on the draw is by rejection (Devroye, ch. II.3) in
    a chart of d free speeds: those of the first d columns, in lexicographic
    order, whose |d x d| minor of the singular vectors is the largest within
    a factor 1 - 1e-6, which fix the others by a map that depends only on
    the hull and the columns.  Proposals are uniform on the
    box from the origin to the vertices' largest free speeds, which holds
    the hull's projection, ``_PROPOSALS`` at a time from d uniforms each;
    the first whose speeds all lie in [0, 1] is the draw.  After
    ``_MAX_PROPOSALS`` it raises, naming the polytope.
    """
    _, sv, vt = np.linalg.svd(vertices - vertices.mean(axis=0), full_matrices=False)
    dim = np.count_nonzero(sv > _POINT_EXTENT)  # vt's first dim rows span the hull
    if dim == 0:
        raise SamplingError("trade-speed polytope is the single point 0")
    if dim == 1:  # a segment from the origin
        return (1.0 - uniforms(1)[0]) * vertices[np.argmax(np.abs(vertices).max(axis=1))]
    if dim == 2:
        (x, y) = vt[:2].tolist()
        minors = [x[i] * y[j] - x[j] * y[i] for i in range(len(x)) for j in range(i + 1, len(x))]
        plane = vt[1::-1] if max(minors, key=abs) < 0.0 else vt[:2]
        others = vertices[np.abs(vertices).max(axis=1) > _POINT_EXTENT]
        return _polygon(others.tolist(), (others @ plane.T).tolist(), uniforms(3))
    basis = vt[:dim]
    subsets = list(itertools.combinations(range(basis.shape[1]), dim))
    minors = np.abs(np.linalg.det(np.swapaxes(basis[:, subsets], 0, 1)))
    # the first of the near-largest: symmetric traders tie, and rounding must not choose the chart
    free = list(subsets[np.argmax(minors >= (1.0 - 1e-6) * minors.max())])
    chart = np.linalg.solve(basis[:, free], basis)  # (d, H): free speeds to the point
    top = vertices[:, free].max(axis=0)  # the box's far corner; the origin is its near one
    for _ in range(_MAX_PROPOSALS // _PROPOSALS):
        points = (top * uniforms(_PROPOSALS * dim).reshape(_PROPOSALS, dim)) @ chart
        inside = np.flatnonzero(np.all((points >= 0.0) & (points <= 1.0), axis=1))
        if inside.size:
            return points[inside[0]]
    raise SamplingError(
        f"trade-speed polytope of {dim} dimensions and {len(np.unique(vertices, axis=0))} vertices "
        f"accepted none of {_MAX_PROPOSALS} proposals"
    )


def sample_speed(
    e: Economy,
    y: Allocation,
    p,
    s_prior: SpeedPrior,
    rng: np.random.Generator,
) -> FloatArray:
    """Draw relative speeds, one per household, from the polytope under the given prior.

    At L = 2 with at most three households the draw is the engine step's
    own (``_line_speeds``): the ray or the polygon, in closed form.  Beyond,
    two active traders pin the polytope down to a ray, and every other case
    draws from the polytope's enumerated vertices (``_vertices``), exactly
    (``_polytope_speeds``): a segment from one uniform, a polygon fanned from
    the origin from three, or, once the polytope has d >= 3 dimensions, the
    first proposal inside it of blocks of ``_PROPOSALS`` uniform in a box of
    d free speeds, which reads a variable number of uniforms and raises
    ``SamplingError`` after ``_MAX_PROPOSALS``.  The prior is read on the
    polytope's intrinsic measure (the ray parameter when H = 2, the area on
    a polygon, the volume beyond).  A failed check raises ``SamplingError``,
    with no second try.
    """
    _check_size(e)
    _check_state(e, y)
    p = as_price(p, e.n_goods)
    return _sample_speed(_directions(e, y.bundles, p), p, SpeedPrior(s_prior), rng.random)


def _sample_speed(dirs: FloatArray, p: FloatArray, s_prior: SpeedPrior, uniforms, vertices: FloatArray | None = None) -> FloatArray:
    """``sample_speed`` on directions already built at prices ``p``, under a
    ``SpeedPrior`` member, from the uniforms ``uniforms(k)`` returns k at a
    time; ``vertices``, if given, are the polytope's, as ``_row_vertices``
    reads them from the trade decision at these prices."""
    max_speed = s_prior is SpeedPrior.MAX_SPEED
    if dirs.shape[1] == 2 and dirs.shape[0] <= 3:  # the engine's epoch draws these on rows
        return _line_speeds(dirs[None], max_speed, lambda sub: uniforms(1))[0]  # one row
    norms = np.linalg.norm(dirs, axis=1)
    idx = np.flatnonzero(norms > 0.0)  # the idle rule: a zero direction does not move
    if idx.size < 2:
        raise SamplingError(_NO_RAY)

    if idx.size == 2:
        i, j = idx
        cosine = float(dirs[i] @ dirs[j]) / (norms[i] * norms[j])
        if cosine > -1.0 + 1e-9:
            raise SamplingError(_NOT_OPPOSED)
        sigma = np.zeros(dirs.shape[0])
        sigma[[i, j]] = _ray_speeds(norms[i : i + 1], norms[j : j + 1], None if max_speed else uniforms(1))[0]
        return sigma

    if vertices is None:
        ((_, vertices, ok),) = _vertices(_projected(dirs[idx], p)[None])
        vertices = vertices[:, ok[:, 0], 0].T
    else:
        vertices = vertices[:, idx]
    return _settle(dirs, norms, idx, _polytope_speeds(vertices, uniforms), max_speed)


def _settle(dirs: FloatArray, norms: FloatArray, idx, point: FloatArray, max_speed: bool) -> FloatArray:
    """The speeds of a polytope draw ``point`` of the active traders ``idx``, the idle ones at 0:
    rescaled to peak at 1 under the max-speed prior, and checked to cancel aggregate trade while moving someone."""
    if max_speed:
        peak = float(point.max())
        if peak < 1e-6:  # rescaling would amplify the equality residual
            raise SamplingError(f"max-speed draw peaks at {peak!r}, below 1e-06")
        point = point / peak
    sigma = np.zeros(dirs.shape[0])
    sigma[idx] = point
    why = _cancel_and_move_failure(dirs, norms, sigma)
    if why is not None:
        raise SamplingError(f"speed draw fails cancel-and-move: {why}")
    return sigma


def is_pareto_optimal(e: Economy, y: Allocation) -> bool:
    """No common-price trade remains: all substitution rates agree within ``PARETO_TOL``."""
    return bool(np.all(_extremes(household_rates(e, y), PARETO_TOL)[2]))
