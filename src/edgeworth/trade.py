"""Linear trade paths, speed polytopes, trade-compatible prices, box sets.

An allocation admits trade at common prices ``p`` when some vector of
relative speeds in the unit cube cancels the aggregate of the households'
linear trade directions while moving at least one household.  The
definition is a small dense LP (``_lp_trade``).  ``_screen`` answers
it for a whole stack of prices, and ``has_trade`` for one: in closed form
at L = 2; at L = 3 certificates bound the LP's optimum, and only the prices
they leave open, and every price at L >= 4, go to the LP.  A speed draw
takes one candidate and raises if it fails: two active traders move on a
ray, three at L = 2 on a polygon, both drawn in closed form, and every other
case goes through hit-and-run (``_hitrun``).  The box set built from extreme
marginal substitution rates gives the cheap superset used for tabulated
price draws.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from . import _hitrun, _simplex, prefs
from .errors import DomainDegeneracyError, SamplingError, SpecificationError
from .prefs import Family, UtilitySpec, as_price

FloatArray = NDArray[np.float64]

#: Relative agreement of substitution rates below which a state counts as
#: Pareto optimal; separates converged states from one-ulp noise.
PARETO_TOL = 1e-8

#: Households whose trade direction is shorter than this are treated as
#: non-trading at the current prices.
DEGENERATE_DIRECTION = 1e-12

_LP_DECISION = 1e-9

#: At L = 3 ``_screen`` leaves a price to the LP when its bounds on the
#: LP's optimum come within this relative distance of the decision threshold.
_SCREEN_MARGIN = 1e-3


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
        if not (np.all(np.isfinite(b)) and np.all(b > 0.0)):
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
class SpeedVector:
    """Relative trade speeds, one per household, each in [0, 1]."""

    sigma: FloatArray

    def __post_init__(self) -> None:
        s = np.asarray(self.sigma, dtype=np.float64)
        if s.ndim != 1:
            raise SpecificationError("speeds must form a vector")
        if s.size and not (s.min() >= 0.0 and s.max() <= 1.0):  # a NaN fails both
            raise SpecificationError("speeds must lie in [0, 1]")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "sigma", s)


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


def _direction_scale(norms: FloatArray) -> float:
    return max(1.0, float(norms.max(initial=0.0)))


def _cancel_and_move_failure(dirs: FloatArray, norms: FloatArray, s: FloatArray) -> str | None:
    """Why ``s`` fails to cancel aggregate trade while moving someone, or None."""
    residual, volume = float(np.linalg.norm(s @ dirs)), float(s @ norms)
    bound = 1e-9 * _direction_scale(norms)
    if residual <= bound and volume > 1e-12:
        return None
    return f"residual {residual!r} (bound {bound!r}), volume {volume!r} (floor 1e-12)"


def speed_contains(e: Economy, y: Allocation, p, sigma: SpeedVector) -> bool:
    """Whether ``sigma`` cancels aggregate trade while moving someone."""
    if sigma.sigma.size != e.size:
        raise SpecificationError("speed vector length must equal the household count")
    dirs = all_trade_directions(e, y, p)
    return _cancel_and_move_failure(dirs, np.linalg.norm(dirs, axis=1), sigma.sigma) is None


def has_trade(e: Economy, y: Allocation, p) -> bool:
    """Whether trade exists at prices p: one row of ``_screen``."""
    _check_state(e, y)
    return bool(_screen(e, y.bundles, as_price(p, e.n_goods)[None, :])[0])


def _lp_trade(dirs: FloatArray, norms: FloatArray) -> bool:
    """The LP that defines trade, on one price's (H, L) directions and their norms.

    Maximizes total traded volume subject to aggregate cancellation and the
    unit cube; trade exists iff the optimum clears a small threshold.  The
    cancellation slack is relative to the longest direction, and so is the
    volume it alone can buy, so the threshold scales with it too.
    """
    active = norms >= DEGENERATE_DIRECTION
    if np.count_nonzero(active) < 2:
        return False
    n_act = norms[active]
    scale = _direction_scale(n_act)
    _, value = _simplex.maximize(n_act, *_hitrun.polytope(dirs[active] / scale))
    return value > _LP_DECISION * scale


def _screen(e: Economy, bundles: FloatArray, p: FloatArray) -> NDArray[np.bool_]:
    """Whether trade exists at each row of ``(G, L)`` prices, one bool per row,
    each row at its own ``(G, H, L)`` bundles or all at one ``(H, L)`` state;
    only the demand is guarded.

    The directions of every row come from one pass of the ``prefs`` core,
    and a row admits trade when cancelling speeds can move a volume above
    ``_LP_DECISION`` times its longest active direction (at least 1).  At
    L = 2 Walras' law puts the directions on the line orthogonal to the
    prices, each on the side its first coordinate's sign names (as for the
    speed draw), and the largest volume is exactly 2 min(P, N) for P and N
    the active norms summed on each side.  At L = 3 a row is decided when
    ``_plane_bracket`` clears the threshold by ``_SCREEN_MARGIN``; rows it
    leaves open, and every row at L >= 4, go to the LP (``_lp_trade``).
    """
    dirs = _directions(e, bundles, p)
    norms = np.linalg.norm(dirs, axis=-1)
    active = norms >= DEGENERATE_DIRECTION
    n_act = np.where(active, norms, 0.0)
    scale = np.maximum(n_act.max(axis=-1, initial=0.0), 1.0)  # the LP's, row by row
    threshold = _LP_DECISION * scale
    if e.n_goods == 2:
        signed = np.copysign(n_act, dirs[..., 0])
        up, down = np.maximum(signed, 0.0).sum(axis=-1), np.maximum(-signed, 0.0).sum(axis=-1)
        return 2.0 * np.minimum(up, down) > threshold
    count = np.count_nonzero(active, axis=-1)
    verdict = np.zeros(p.shape[0], dtype=bool)
    open_rows = count >= 2
    if e.n_goods == 3:
        lo, hi = _plane_bracket(dirs, n_act, p, scale)
        # the simplex stops once no reduced cost exceeds its entering
        # tolerance, so it may fall short of the optimum by that much per speed
        verdict = lo - count * _simplex._ENTER_TOL > threshold * (1.0 + _SCREEN_MARGIN)
        open_rows &= ~verdict & ~(hi < threshold * (1.0 - _SCREEN_MARGIN))
    for g in np.flatnonzero(open_rows):
        verdict[g] = _lp_trade(dirs[g], norms[g])
    return verdict


def _plane_bracket(
    dirs: FloatArray, n_act: FloatArray, p: FloatArray, scale: FloatArray
) -> tuple[FloatArray, FloatArray]:
    """Bounds lo <= V <= hi on the LP's optimum V at each price row, L = 3.

    ``dirs`` is the (G, H, 3) stack of directions and ``n_act`` their norms,
    zero for inactive households.  The LP keeps each coordinate of the
    cancellation residual within ``slack``.  An angular gap g > pi between
    neighbouring active directions in the plane leaves a unit w with
    w . d >= sin((g - pi) / 2) |d| for each of them, so V <= sqrt(3) slack /
    sin((g - pi) / 2); hi adds what the directions' parts along p (rounding,
    by Walras' law) can buy, and never exceeds the summed norms.  lo is the
    largest volume of a witness that cancels within half the slack, or 0:
    every triple of active directions whose 2-D cross products c share a
    sign, at speeds proportional to (c_jk, c_ki, c_ij), the largest at 1.
    """
    slack = _hitrun._EQ_TOL * scale
    unit = p / np.linalg.norm(p, axis=-1, keepdims=True)
    active = n_act > 0.0
    leak = np.where(active, np.abs(np.vecdot(dirs, unit[:, None, :])), 0.0).sum(axis=-1)
    e1 = np.stack([p[:, 1], -p[:, 0], np.zeros(p.shape[0])], axis=-1)
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    x, z = np.vecdot(dirs, e1[:, None, :]), np.vecdot(dirs, np.cross(unit, e1)[:, None, :])
    theta = np.arctan2(z, x)
    # ahead[g, h, k]: how far direction k lies ahead of h, counterclockwise;
    # a direction at h's own angle does not close h's gap
    ahead = np.mod(theta[:, None, :] - theta[:, :, None], 2.0 * math.pi)
    ahead = np.where(active[:, None, :] & (ahead > 0.0), ahead, 2.0 * math.pi)
    gap = np.where(active, ahead.min(axis=-1), 0.0).max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with no witness give NaN speeds
        bound = np.where(gap > math.pi, math.sqrt(3.0) * slack / np.sin((gap - math.pi) / 2.0), math.inf)
        triples = np.array(list(itertools.combinations(range(dirs.shape[1]), 3)), dtype=np.intp)
        i, j, k = triples.reshape(-1, 3).T
        # c_jk d_i + c_ki d_j + c_ij d_k = 0 for any three vectors of the plane
        c = np.stack([x[:, j] * z[:, k] - x[:, k] * z[:, j],
                      x[:, k] * z[:, i] - x[:, i] * z[:, k],
                      x[:, i] * z[:, j] - x[:, j] * z[:, i]], axis=-1)  # (G, T, 3)
        same = np.all(c > 0.0, axis=-1) | np.all(c < 0.0, axis=-1)
        same &= active[:, i] & active[:, j] & active[:, k]
        w = np.where(same[..., None], np.abs(c) / np.abs(c).max(axis=-1, keepdims=True), 0.0)
        speeds = np.zeros(w.shape[:2] + (dirs.shape[1],))
        for m, h in enumerate((i, j, k)):
            speeds[:, np.arange(h.size), h] = w[..., m]
        volume = (speeds @ n_act[:, :, None])[..., 0]
        cancels = np.abs(speeds @ dirs).max(axis=-1) <= 0.5 * slack[:, None]
    lo = np.where(cancels, volume, 0.0).max(axis=-1, initial=0.0)
    return lo, np.minimum(bound + leak, n_act.sum(axis=-1))


def _rates_agree(lo, hi, tol):
    """The Pareto test: extreme rates agree within relative tol (scalars or arrays)."""
    return hi - lo <= tol * lo


def household_rates(e: Economy, y: Allocation) -> FloatArray:
    """(H, L - 1) substitution rates, one row per household."""
    _check_state(e, y)
    return prefs._guard(_grouped(prefs._rates, e, y.bundles), "substitution rates")


def trade_interval_2x2(e: Economy, y: Allocation) -> tuple[float, float] | None:
    """Open interval of trade-compatible price rates for a 2-household,
    2-good economy, or None when the substitution rates already agree."""
    if e.size != 2 or e.n_goods != 2:
        raise SpecificationError("trade_interval_2x2 requires H = L = 2")
    _check_state(e, y)
    lo, hi, open_ = _intervals(e, y.bundles)
    return (float(lo), float(hi)) if open_ else None


def _intervals(e: Economy, bundles: FloatArray) -> tuple[FloatArray, FloatArray, NDArray[np.bool_]]:
    """``trade_interval_2x2`` of an ``(..., 2, 2)`` stack: the extreme rates and
    whether the interval between them is open; only the rates are guarded."""
    r = prefs._guard(_grouped(prefs._rates, e, bundles), "substitution rates")[..., 0]
    lo, hi = r.min(axis=-1), r.max(axis=-1)
    return lo, hi, ~_rates_agree(lo, hi, PARETO_TOL)


def msr_extremes(e: Economy, y: Allocation) -> BoxSet:
    """Elementwise min/max of households' substitution-rate ratios."""
    _check_state(e, y)
    inv = prefs._guard(_grouped(prefs._inverse_demand, e, y.bundles), "inverse demand")
    ratios = inv[:, :, None] / inv[:, None, :]  # (H, L, L), ratios[h, i, j]
    lower = ratios.min(axis=0)
    upper = ratios.max(axis=0)
    # enforce exact reciprocity against rounding: m_ij = 1 / M_ji
    lower = np.minimum(lower, 1.0 / upper.T)
    upper = 1.0 / lower.T
    return BoxSet(lower, upper)


def box_contains(b: BoxSet, q) -> bool | NDArray[np.bool_]:
    """Whether p = (q, 1) satisfies the min/max rate sandwich for every good.

    ``q`` is one rate vector of length L - 1, answered with a bool, or a
    (G, L - 1) stack of them, answered with one bool per row (the rate rule).
    """
    n = b.lower_rates.shape[0]
    q = prefs._as_rates(q, n, stack=None)
    p = np.concatenate([q, np.ones(q.shape[:-1] + (1,))], axis=-1)
    others = ~np.eye(n, dtype=bool)
    cross = p[..., None, :]  # cross[..., i, j] pairs good i's row with p_j
    lo = np.where(others, cross * b.lower_rates, np.inf).min(axis=-1)
    hi = np.where(others, cross * b.upper_rates, -np.inf).max(axis=-1)
    # closed sandwich; relative slack so attained extremes survive rounding
    inside = np.all((lo * (1.0 - 1e-12) <= p) & (p <= hi * (1.0 + 1e-12)), axis=-1)
    return bool(inside) if q.ndim == 1 else inside


def _raise_first(failed, why) -> None:
    """Default ``fail`` of the row-wise draws: raise for the first failing row."""
    raise SamplingError(why(int(failed[0])))


_NO_RAY = "fewer than two households can trade at these prices"


def _ray_speeds(
    n_i, n_j, max_speed: bool, draw, fail=_raise_first
) -> tuple[FloatArray, FloatArray]:
    """Speeds of two opposed traders on the balance ray sigma_i n_i = sigma_j n_j, per row.

    The faster one moves at 1 under the max-speed prior; otherwise both are
    scaled by one uniform on (0, 1] per row, from ``draw(slice(None))``.  A
    zero direction leaves no ray: at least one trader is idle, and
    ``fail(rows, why)`` hears of those rows.
    """
    n_i, n_j = np.asarray(n_i, dtype=np.float64), np.asarray(n_j, dtype=np.float64)
    idle = np.minimum(n_i, n_j) == 0.0
    if np.count_nonzero(idle):
        fail(np.flatnonzero(idle), lambda r: _NO_RAY)
        n_i, n_j = np.where(idle, 1.0, n_i), np.where(idle, 1.0, n_j)  # placeholders
    ratio = n_i / n_j  # sigma_j / sigma_i on the balance ray
    s_i, s_j = np.minimum(1.0 / ratio, 1.0), np.minimum(ratio, 1.0)
    if max_speed:
        return s_i, s_j
    lam = 1.0 - draw(slice(None))
    return lam * s_i, lam * s_j


def _polygon_speeds(lengths: FloatArray, rng: np.random.Generator) -> FloatArray:
    """A uniform point of the polygon {s in [0, 1]^3 : a . s = 0}, from ``rng.random(3)``.

    ``lengths`` are the three traders' signed lengths a along the price line.
    The vertices are the origin and the plane's crossings of the cube's
    edges, where two speeds sit at 0 or 1 and the third balances them.  The
    two traders on the same side of the line chart the polygon at a constant
    area factor; ordered by angle around their centroid in that chart, the
    other vertices fan into triangles from the origin.  The first uniform
    picks a triangle by area, the other two a uniform point in it.  The chart
    depends only on the signs of a and the order changes only where vertices
    meet, so the draw moves continuously with a.
    """
    a = lengths.tolist()
    up = [h for h in range(3) if a[h] > 0.0]
    if len(up) not in (1, 2):
        raise SamplingError(
            "three-trader directions all point one way along the price line; no feasible speeds"
        )
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
    cx = sum(v[j] for v in others) / len(others)
    cy = sum(v[k] for v in others) / len(others)
    others.sort(key=lambda v: math.atan2(v[k] - cy, v[j] - cx))
    cum, total = [], 0.0
    for v, w in zip(others, others[1:]):
        total += abs(v[j] * w[k] - w[j] * v[k])  # twice the area of (0, v, w)
        cum.append(total)
    u = rng.random(3).tolist()
    t = min(bisect.bisect_right(cum, u[0] * total), len(cum) - 1)
    r, f = math.sqrt(u[1]), u[2]  # a uniform point of the triangle (0, v, w)
    v, w = others[t], others[t + 1]
    return np.array([r * ((1.0 - f) * v_h + f * w_h) for v_h, w_h in zip(v, w)])


def sample_speed(
    e: Economy,
    y: Allocation,
    p,
    s_prior: SpeedPrior,
    rng: np.random.Generator,
) -> SpeedVector:
    """Draw relative speeds from the polytope under the given prior.

    Two active traders pin the polytope down to a ray, and three at L = 2
    to a polygon; both are sampled in closed form.  Every other case goes
    through hit-and-run over the polytope after an LP-found interior start.
    The prior is read on the polytope's intrinsic measure (the ray parameter
    when H = 2, the area on a polygon).  A candidate that fails a check
    raises ``SamplingError``; there is no second attempt.
    """
    return _sample_speed(all_trade_directions(e, y, p), SpeedPrior(s_prior), rng)


def _sample_speed(dirs: FloatArray, s_prior: SpeedPrior, rng: np.random.Generator) -> SpeedVector:
    """``sample_speed`` on directions already built, under a ``SpeedPrior`` member."""
    norms = np.linalg.norm(dirs, axis=1)
    idx = np.nonzero(norms >= DEGENERATE_DIRECTION)[0]
    if idx.size < 2:
        raise SamplingError(_NO_RAY)
    sigma = np.zeros(dirs.shape[0])

    if idx.size == 2:
        i, j = idx
        cosine = float(dirs[i] @ dirs[j]) / (norms[i] * norms[j])
        if cosine > -1.0 + 1e-9:
            raise SamplingError("two-trader directions are not opposed; no feasible speeds")
        max_speed = s_prior is SpeedPrior.MAX_SPEED
        speeds = _ray_speeds(norms[[i]], norms[[j]], max_speed, lambda sub: rng.random(1))  # one row
        sigma[[i, j]] = np.concatenate(speeds)
        return SpeedVector(sigma)

    if dirs.shape[1] == 2 and idx.size == 3:
        # Walras' law puts every direction on the line orthogonal to the
        # prices, whose unit with a positive first coordinate signs the lengths
        point = _polygon_speeds(np.copysign(norms[idx], dirs[idx, 0]), rng)
    else:
        point = _hitrun.sample(dirs[idx], norms[idx], rng)
    if s_prior is SpeedPrior.MAX_SPEED:
        peak = float(point.max())
        if peak < 1e-6:  # rescaling would amplify the equality residual
            raise SamplingError(f"max-speed draw peaks at {peak!r}, below 1e-06")
        point = point / peak
    sigma[idx] = point
    why = _cancel_and_move_failure(dirs, norms, sigma)
    if why is not None:
        raise SamplingError(f"speed draw fails cancel-and-move: {why}")
    return SpeedVector(sigma)


def _advance(y: Allocation, dirs: FloatArray, sigma: SpeedVector) -> Allocation:
    """End state of the joint linear path along ``dirs``: household h moves t = sigma_h;
    only the new bundles are guarded."""
    return Allocation(prefs._guard(y.bundles + sigma.sigma[:, None] * dirs, "bundles"))


def is_pareto_optimal(e: Economy, y: Allocation) -> bool:
    """No common-price trade remains: all substitution rates agree within ``PARETO_TOL``."""
    return _pareto(household_rates(e, y), PARETO_TOL)


def _pareto(rates: FloatArray, tol: float) -> bool:
    """``is_pareto_optimal`` on (H, L - 1) rates already built, at a tolerance its caller checked."""
    return bool(np.all(_rates_agree(rates.min(axis=0), rates.max(axis=0), tol)))
