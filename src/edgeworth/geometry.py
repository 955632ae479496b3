"""Diffeomorphisms between the consumption, normalized, and flat domains.

A bundle can equivalently be read as the normalized prices that would make a
consumer pick it (inverse demand) or as its substitution rates paired with
its utility level (the flattening map).  This module hosts those coordinate
changes, the canonical manifolds through a bundle with their tangency
Jacobians, the convex-set membership tests they induce, and the Pareto-set
parameterization down to the 2x2 contract curve and Walras equilibrium.

The chart Jacobians rely on homotheticity, which every shipped family has:
demand at wealth ``w`` is ``w x_n(p)``, so each chart is a wealth times
``x_n(p)`` and its Jacobian is the demand Jacobian plus a rank-one term.  A
non-homothetic family would need the general formula through the Hessian of
the normalized indirect utility.

As in ``prefs``, the chart Jacobians and the maps between the flat and
normalized domains have cores on ``(..., L)`` stacks (``_jacobian_phi``,
``_jacobian_psi``, ``_d_map``, ``_d_inverse``) that check nothing; the
public functions validate one vector, call the core on it and guard.  The
manifold sampler and the 2x2 root finders also validate once, then run on
the ``prefs`` cores; both root finders bisect on numpy (``_bisect``), the
contract curve all of its grid points in one stack.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import prefs
from .errors import ConvergenceError, SpecificationError
from .prefs import UtilitySpec, as_bundle, as_price
from .trade import PARETO_TOL, Allocation, Economy, _extremes, _grouped, _path_end, household_rates

FloatArray = NDArray[np.float64]

_FIXED_POINT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FlatPoint:
    """Image of a bundle under the flattening map: substitution rates plus level."""

    q: FloatArray
    u: float

    def __post_init__(self) -> None:
        q = prefs._as_rates(self.q, None).copy()  # its length is checked against L where it is used
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "u", prefs._check_real(self.u, "utility coordinate", -math.inf, math.inf))


class ManifoldKind(str, enum.Enum):
    INDIFFERENCE = "indifference"
    OFFER = "offer"
    TRADE_HYPERPLANE = "trade_hyperplane"


@dataclass(frozen=True, eq=False)
class ManifoldSample:
    """Grid sample of one canonical manifold through ``anchor``: an (N, L) read-only stack of points."""

    kind: ManifoldKind
    anchor: FloatArray
    points: FloatArray


@dataclass(frozen=True, eq=False)
class ParetoPoint:
    """A Pareto-optimal allocation built from common rates and utility levels."""

    q: FloatArray
    levels: FloatArray
    allocation: tuple[FloatArray, ...]


def flatten(u: UtilitySpec, c) -> FlatPoint:
    """Map a bundle to (substitution rates against good L, utility level)."""
    c = as_bundle(c, u.dimension)
    return FlatPoint(prefs.substitution_rates(u, c), prefs.utility(u, c))


def unflatten(u: UtilitySpec, fp: FlatPoint) -> FloatArray:
    """Inverse of :func:`flatten`: the Hicksian bundle at prices (q, 1)."""
    return prefs.hicksian_demand(u, np.append(prefs._as_rates(fp.q, u.dimension), 1.0), fp.u)


def _d_map(u: UtilitySpec, q: FloatArray, level) -> FloatArray:
    """``d_map`` on rates ``q`` and levels, one per row; no checks."""
    p = np.concatenate([q, np.ones(q.shape[:-1] + (1,))], axis=-1)
    return p / prefs._expenditure(u, p, level)[..., None]


def _d_inverse(u: UtilitySpec, p: FloatArray) -> tuple[FloatArray, FloatArray]:
    """``d_inverse`` as (rates, levels), one per row; no checks."""
    return p[..., :-1] / p[..., -1:], prefs._utility(u, prefs._demand(u, p))


def d_map(u: UtilitySpec, fp: FlatPoint) -> FloatArray:
    """Flat point to normalized prices: (q, 1) scaled by 1 / e((q, 1), u)."""
    q = prefs._guard(prefs._as_rates(fp.q, u.dimension), "rates")  # a price's floor, which the core needs
    prefs._check_level(u, fp.u)
    return prefs._guard(_d_map(u, q, fp.u), "normalized prices")


def d_inverse(u: UtilitySpec, p) -> FlatPoint:
    """Normalized prices to flat point: price ratios plus indirect utility."""
    p = as_price(p, u.dimension)
    prefs._guard(prefs._demand(u, p), "demand")
    q, level = _d_inverse(u, p)
    return FlatPoint(q, float(prefs._guard(level, "indirect utility", floor=0.0)))


def fixed_point(u: UtilitySpec) -> FloatArray:
    """The unique fixed point of the normalized demand map.

    The demand is parallel to ``p`` on the ray ``v_i = w_i^(1/(2 - s))``
    (``s`` the CES elasticity, 0 for the log families), and since it is
    homogeneous of degree -1 with ``p . x_n(p) = 1`` the fixed point is the
    unit vector on that ray.
    """
    v = prefs._fixed_point_ray(u)
    p = v / float(np.linalg.norm(v))
    if (
        float(np.max(np.abs(prefs.normalized_demand(u, p) - p))) > _FIXED_POINT_TOL
        or abs(float(np.linalg.norm(p)) - 1.0) > _FIXED_POINT_TOL
    ):
        raise ConvergenceError("fixed point misses the demand map")
    return p


def sample_manifold(u: UtilitySpec, kind: ManifoldKind, anchor, q_grid) -> ManifoldSample:
    """Sample one canonical manifold over a caller-supplied grid.

    The grid entries are rate vectors (scalars when L = 2) for the
    indifference and offer hypersurfaces, and leading coordinates for the
    trade hyperplane, whose last coordinate is solved from the defining
    equation (non-positive solutions are dropped).  The grid is checked
    once; the points come from one pass of the ``prefs`` cores.
    """
    kind = ManifoldKind(kind)
    anchor = as_bundle(anchor, u.dimension)
    g = prefs._as_rates(q_grid, u.dimension, stack=True)
    p = np.concatenate([g, np.ones((g.shape[0], 1))], axis=1)
    if kind is ManifoldKind.INDIFFERENCE:
        level = float(prefs._utility(u, anchor))
        prefs._check_level(u, level)
        y = prefs._guard(prefs._hicksian(u, p, level), "hicksian demand")
        residual = np.abs(prefs._utility(u, y) - level) / max(1.0, abs(level))
    elif kind is ManifoldKind.OFFER:
        y = prefs._guard(_path_end(u, anchor, p), "demand")
        residual = np.abs(np.vecdot(prefs._inverse_demand(u, y), anchor) - 1.0)
    else:
        star = prefs._guard(prefs._inverse_demand(u, anchor), "inverse demand")
        last = (1.0 - np.vecdot(g, star[:-1])) / star[-1]
        y = np.concatenate([g, last[:, None]], axis=1)[last > 0.0]
        residual = np.abs(np.vecdot(y, star) - 1.0)
    if not np.all(residual <= 1e-8):  # a NaN fails too
        raise ConvergenceError("sampled point violates the manifold equation")
    y.setflags(write=False)
    return ManifoldSample(kind, anchor, y)


def _jacobian_psi(u: UtilitySpec, anchor: FloatArray, p: FloatArray) -> FloatArray:
    """``jacobian_psi`` on stacks, ``outer(x_n(p), anchor) + (p . anchor) J_n(p)``; no checks."""
    x = prefs._demand(u, p)
    return x[..., :, None] * anchor[..., None, :] + np.vecdot(p, anchor)[..., None, None] * prefs._demand_jacobian(u, p)


def _jacobian_phi(u: UtilitySpec, anchor: FloatArray, p: FloatArray) -> FloatArray:
    """``jacobian_phi`` on stacks: the offer chart's formula at the Hicksian bundle ``h``; no checks."""
    return _jacobian_psi(u, prefs._hicksian(u, p, prefs._utility(u, anchor)), p)


def jacobian_phi(u: UtilitySpec, anchor, p) -> FloatArray:
    """Jacobian of p -> h(p, u(anchor)), the indifference-surface chart.

    With ``h = e x_n(p)``, ``e = p . h`` and Shephard's lemma (grad e = h):
    ``outer(x_n(p), h) + e J_n(p)``.
    """
    anchor = as_bundle(anchor, u.dimension)
    return jacobian_psi(u, prefs.hicksian_demand(u, p, prefs.utility(u, anchor)), p)


def jacobian_psi(u: UtilitySpec, anchor, p) -> FloatArray:
    """Jacobian of p -> x_n(p / p.anchor), the offer-surface chart.

    With ``x_n(p / w) = w x_n(p)`` at ``w = p . anchor``:
    ``outer(x_n(p), anchor) + w J_n(p)``.
    """
    anchor = as_bundle(anchor, u.dimension)
    p = as_price(p, u.dimension)
    prefs._guard(prefs._demand(u, p), "demand")
    return prefs._guard(_jacobian_psi(u, anchor, p), "offer chart jacobian", floor=0.0)


def omega_contains(u: UtilitySpec, anchor, p, slack: float = 1e-12) -> bool:
    """Membership in the convex normalized-domain set below the anchor's level."""
    anchor = as_bundle(anchor, u.dimension)
    slack = prefs._check_real(slack, "slack", 0, math.inf, closed=True)
    return prefs.indirect_utility_normalized(u, p) <= prefs.utility(u, anchor) + slack


def gamma_contains(u: UtilitySpec, anchor, fp: FlatPoint, slack: float = 1e-12) -> bool:
    """Membership in the flat-domain epigraph bounded by the offer surface."""
    anchor = as_bundle(anchor, u.dimension)
    slack = prefs._check_real(slack, "slack", 0, math.inf, closed=True)
    p = np.append(prefs._as_rates(fp.q, u.dimension), 1.0)
    return float(p @ anchor) <= prefs.expenditure(u, p, fp.u) + slack


def k_c(u: UtilitySpec, anchor, q) -> float:
    """Indirect utility along the offer chart: v_n((q, 1) / (q, 1).anchor)."""
    anchor = as_bundle(anchor, u.dimension)
    p = np.append(prefs._as_rates(q, u.dimension), 1.0)
    return prefs.indirect_utility_normalized(u, p / float(p @ anchor))


def sample_pareto(specs, q, levels) -> ParetoPoint:
    """Pareto-optimal allocation with common rates ``q`` and given levels."""
    levels = np.atleast_1d(np.asarray(levels, dtype=np.float64))
    if not specs or len(specs) != levels.size:
        raise SpecificationError("one utility level per household is required")
    q = prefs._as_rates(q, specs[0].dimension)
    p = np.append(q, 1.0)
    bundles = tuple(prefs.hicksian_demand(s, p, float(l)) for s, l in zip(specs, levels))
    for s, b in zip(specs, bundles):
        if float(np.max(np.abs(prefs.substitution_rates(s, b) - q))) > 1e-9 * float(np.max(q)):
            raise ConvergenceError("household rates drifted from the common rates")
    return ParetoPoint(q, levels, bundles)


def _bisect(f, lo: FloatArray, hi: FloatArray, what) -> FloatArray:
    """Roots of ``f``, which maps a vector of points to their values, on the brackets ``[lo[i], hi[i]]``.

    Each bracket keeps the half whose ends differ in sign until its midpoint
    equals an end; a bracket that does not change sign raises ``what(i)``.
    """
    side = np.sign(f(lo))
    flat = np.flatnonzero(~(side * np.sign(f(hi)) <= 0.0))  # a NaN end fails too
    if flat.size:
        raise ConvergenceError(what(int(flat[0])))
    mid = lo + 0.5 * (hi - lo)
    while np.any((mid != lo) & (mid != hi)):
        up = np.sign(f(mid)) * side > 0.0  # the root lies above mid
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        mid = lo + 0.5 * (hi - lo)
    return mid


def contract_curve_2x2(specs, aggregate, grid_size: int) -> FloatArray:
    """Equal-rates locus inside the 2x2 Edgeworth box, as a read-only ``(grid_size, 2, 2)`` stack of allocations.

    Sweeps household 1's first coordinate across the box and solves the
    second coordinate from rate equality, at every grid point in one
    bisection; each allocation splits the aggregate exactly.
    """
    if len(specs) != 2 or any(s.dimension != 2 for s in specs):
        raise SpecificationError("contract_curve_2x2 requires two households over two goods")
    aggregate = as_bundle(aggregate, 2)
    grid_size = prefs._check_int(grid_size, "grid_size", 1)
    y11 = aggregate[0] * np.arange(1, grid_size + 1) / (grid_size + 1)
    economy = Economy.of(specs)

    def split(y12: FloatArray) -> FloatArray:
        first = np.stack([y11, y12], axis=-1)
        return np.stack([first, aggregate - first], axis=-2)

    def rate_mismatch(y12: FloatArray) -> FloatArray:
        rates = np.log(prefs._guard(_grouped(prefs._rates, economy, split(y12)), "substitution rates"))
        return rates[:, 0, 0] - rates[:, 1, 0]

    eps = np.full(grid_size, 1e-12 * aggregate[1])
    y12 = _bisect(rate_mismatch, eps, aggregate[1] - eps, lambda i: f"rates do not cross at y11 = {float(y11[i])!r}")
    curve = split(y12)
    curve.setflags(write=False)
    return curve


def walras_equilibrium_2x2(specs, endowments: Allocation) -> tuple[float, FloatArray]:
    """Market-clearing rate and allocation for a 2-household, 2-good economy,
    the allocation a read-only ``(2, 2)`` array.

    Brackets the clearing rate with the households' extreme substitution
    rates and bisects aggregate excess demand for the first good on it;
    Walras' law clears the second good along with it.  An endowment whose
    rates already agree is its own equilibrium: its bundles come back.
    """
    if len(specs) != 2 or endowments.bundles.shape != (2, 2):
        raise SpecificationError("walras_equilibrium_2x2 requires H = L = 2")
    economy = Economy.of(specs)
    lo, hi, agree = _extremes(household_rates(economy, endowments), PARETO_TOL)  # each (1,)
    if agree[0]:
        return float(lo[0]), endowments.bundles  # already Pareto optimal: no-trade equilibrium
    aggregate = endowments.aggregate

    def demands(q) -> FloatArray:
        p = np.stack([q, np.ones_like(q)], axis=-1)
        return prefs._guard(_grouped(_path_end, economy, endowments.bundles, p[..., None, :]), "demand")

    q = _bisect(
        lambda q: demands(q)[..., 0].sum(axis=-1) - aggregate[0], lo, hi,
        lambda i: "excess demand does not change sign on the rate interval; the economy is mis-specified",
    )[0]
    allocation = demands(q)
    if float(np.max(np.abs(allocation.sum(axis=0) - aggregate))) > 1e-10:
        raise ConvergenceError("market clearing residual exceeds 1e-10")
    allocation.setflags(write=False)
    return float(q), allocation
