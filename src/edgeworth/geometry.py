"""Diffeomorphisms between the consumption, normalized, and flat domains.

A bundle can equivalently be read as the normalized prices that would make a
consumer pick it (inverse demand) or as its substitution rates paired with
its utility level (the flattening map).  This module hosts those coordinate
changes, the canonical manifolds through a bundle with their tangency
Jacobians, the convex-set membership tests they induce, and the Pareto-set
parameterization down to the 2x2 contract curve and Walras equilibrium.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import prefs
from .errors import ConvergenceError, SpecificationError
from .prefs import UtilityLike, as_bundle, as_price
from .trade import PARETO_TOL, Allocation, _each, _path_end, _rates_agree

FloatArray = NDArray[np.float64]

_HESS_STEP = 1e-5  # relative central-difference step for the indirect-utility Hessian
_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MAX_ITER = 10_000


@dataclass(frozen=True, eq=False)
class FlatPoint:
    """Image of a bundle under the flattening map: substitution rates plus level."""

    q: FloatArray
    u: float

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=np.float64)
        if q.ndim != 1 or q.size < 1:
            raise SpecificationError("flat coordinates must form a nonempty vector")
        if not (q.min() > 0.0 and q.max() < math.inf):  # a NaN fails both
            raise SpecificationError("substitution rates must be strictly positive")
        if not np.isfinite(self.u):
            raise SpecificationError("utility coordinate must be finite")
        q = q.copy()
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "u", float(self.u))


class ManifoldKind(str, enum.Enum):
    INDIFFERENCE = "indifference"
    OFFER = "offer"
    TRADE_HYPERPLANE = "trade_hyperplane"


@dataclass(frozen=True, eq=False)
class ManifoldSample:
    """Grid sample of one canonical manifold through ``anchor``."""

    kind: ManifoldKind
    anchor: FloatArray
    points: tuple[FloatArray, ...]


@dataclass(frozen=True, eq=False)
class ParetoPoint:
    """A Pareto-optimal allocation built from common rates and utility levels."""

    q: FloatArray
    levels: FloatArray
    allocation: tuple[FloatArray, ...]


def flatten(u: UtilityLike, c) -> FlatPoint:
    """Map a bundle to (substitution rates against good L, utility level)."""
    c = as_bundle(c, u.dimension)
    return FlatPoint(prefs.substitution_rates(u, c), prefs.utility(u, c))


def unflatten(u: UtilityLike, fp: FlatPoint) -> FloatArray:
    """Inverse of :func:`flatten`: the Hicksian bundle at prices (q, 1)."""
    if fp.q.size != u.dimension - 1:
        raise SpecificationError("flat point dimension does not match the utility")
    return prefs.hicksian_demand(u, np.append(fp.q, 1.0), fp.u)


def d_map(u: UtilityLike, fp: FlatPoint) -> FloatArray:
    """Flat point to normalized prices: (q, 1) scaled by 1 / e((q, 1), u)."""
    p = np.append(fp.q, 1.0)
    return p / prefs.expenditure(u, p, fp.u)


def d_inverse(u: UtilityLike, p) -> FlatPoint:
    """Normalized prices to flat point: price ratios plus indirect utility."""
    p = as_price(p, u.dimension)
    return FlatPoint(p[:-1] / p[-1], prefs.indirect_utility_normalized(u, p))


def fixed_point(u: UtilityLike) -> FloatArray:
    """The unique fixed point of the normalized demand map.

    Runs a damped fixed-point iteration on the first-order condition
    ``grad u(c) = lambda c`` over the unit sphere; at the solution the point
    is its own supporting price vector and has unit norm.
    """
    n = u.dimension
    c = np.full(n, 1.0 / np.sqrt(n))
    damping = 0.5
    residual = np.inf
    for _ in range(_FIXED_POINT_MAX_ITER):
        g = prefs.gradient(u, c)
        aligned = g / float(np.linalg.norm(g))
        new_residual = float(np.max(np.abs(aligned - c)))
        if new_residual < 1e-14:
            break
        if new_residual > residual:
            damping *= 0.5
        residual = new_residual
        c = c + damping * (aligned - c)
        c /= float(np.linalg.norm(c))
    p = c
    if (
        float(np.max(np.abs(prefs.normalized_demand(u, p) - p))) > _FIXED_POINT_TOL
        or abs(float(np.linalg.norm(p)) - 1.0) > _FIXED_POINT_TOL
    ):
        raise ConvergenceError("fixed-point iteration did not converge")
    return p


def _defining_residual(u: UtilityLike, kind: ManifoldKind, anchor: FloatArray, y: FloatArray) -> float:
    if kind is ManifoldKind.INDIFFERENCE:
        level = prefs.utility(u, anchor)
        return abs(prefs.utility(u, y) - level) / max(1.0, abs(level))
    if kind is ManifoldKind.OFFER:
        return abs(float(prefs.inverse_normalized_demand(u, y) @ anchor) - 1.0)
    return abs(float(prefs.inverse_normalized_demand(u, anchor) @ y) - 1.0)


def sample_manifold(u: UtilityLike, kind: ManifoldKind, anchor, q_grid) -> ManifoldSample:
    """Sample one canonical manifold over a caller-supplied grid.

    The grid entries are rate vectors (scalars when L = 2) for the
    indifference and offer hypersurfaces, and leading coordinates for the
    trade hyperplane, whose last coordinate is solved from the defining
    equation (non-positive solutions are dropped).
    """
    kind = ManifoldKind(kind)
    anchor = as_bundle(anchor, u.dimension)
    points: list[FloatArray] = []
    for entry in q_grid:
        g = np.atleast_1d(np.asarray(entry, dtype=np.float64))
        if g.size != u.dimension - 1 or np.any(g <= 0.0):
            raise SpecificationError("grid entries must be positive vectors of length L - 1")
        if kind is ManifoldKind.INDIFFERENCE:
            y = prefs.hicksian_demand(u, np.append(g, 1.0), prefs.utility(u, anchor))
        elif kind is ManifoldKind.OFFER:
            p = np.append(g, 1.0)
            y = prefs.normalized_demand(u, p / float(p @ anchor))
        else:
            star = prefs.inverse_normalized_demand(u, anchor)
            last = (1.0 - float(star[:-1] @ g)) / star[-1]
            if last <= 0.0:
                continue
            y = np.append(g, last)
        if _defining_residual(u, kind, anchor, y) > 1e-8:
            raise ConvergenceError("sampled point violates the manifold equation")
        points.append(y)
    return ManifoldSample(kind, anchor, tuple(points))


def _indirect_utility_hessian(u: UtilityLike, p: FloatArray) -> FloatArray:
    """Central finite differences of the closed-form indirect-utility gradient.

    The gradient is ``grad v_n(p) = -lambda_n(p) * x_n(p)`` with
    ``lambda_n(p) = grad u(x_n(p)) . x_n(p)``; each probe evaluates the
    demand ``x_n`` once and reuses it for both factors.
    """

    def grad(pp: FloatArray) -> FloatArray:
        x = prefs.normalized_demand(u, pp)
        return -float(prefs.gradient(u, x) @ x) * x

    n = p.size
    out = np.empty((n, n))
    for k in range(n):
        h = _HESS_STEP * p[k]
        hi = p.copy()
        lo = p.copy()
        hi[k] += h
        lo[k] -= h
        out[:, k] = (grad(hi) - grad(lo)) / (2.0 * h)
    return 0.5 * (out + out.T)


def jacobian_phi(u: UtilityLike, anchor, p) -> FloatArray:
    """Jacobian of p -> h(p, u(anchor)), the indifference-surface chart."""
    anchor = as_bundle(anchor, u.dimension)
    p = as_price(p, u.dimension)
    level = prefs.utility(u, anchor)
    e = prefs.expenditure(u, p, level)
    hd = prefs.hicksian_demand(u, p, level)
    pt = p / e
    m = np.eye(p.size) - np.outer(pt, hd)
    core = _indirect_utility_hessian(u, pt) / (e * prefs.lambda_n(u, pt))
    return -(m.T @ core @ m)


def jacobian_psi(u: UtilityLike, anchor, p) -> FloatArray:
    """Jacobian of p -> x_n(p / p.anchor), the offer-surface chart."""
    anchor = as_bundle(anchor, u.dimension)
    p = as_price(p, u.dimension)
    wealth = float(p @ anchor)
    star = p / wealth
    x = prefs.normalized_demand(u, star)
    left = np.eye(p.size) - np.outer(x, star)
    right = np.eye(p.size) - np.outer(star, anchor)
    core = _indirect_utility_hessian(u, star) / (wealth * prefs.lambda_n(u, star))
    return -(left @ core @ right) - np.outer(x, x - anchor) / wealth


def omega_contains(u: UtilityLike, anchor, p, slack: float = 1e-12) -> bool:
    """Membership in the convex normalized-domain set below the anchor's level."""
    anchor = as_bundle(anchor, u.dimension)
    return prefs.indirect_utility_normalized(u, p) <= prefs.utility(u, anchor) + slack


def gamma_contains(u: UtilityLike, anchor, fp: FlatPoint, slack: float = 1e-12) -> bool:
    """Membership in the flat-domain epigraph bounded by the offer surface."""
    anchor = as_bundle(anchor, u.dimension)
    p = np.append(fp.q, 1.0)
    return float(p @ anchor) <= prefs.expenditure(u, p, fp.u) + slack


def k_c(u: UtilityLike, anchor, q) -> float:
    """Indirect utility along the offer chart: v_n((q, 1) / (q, 1).anchor)."""
    anchor = as_bundle(anchor, u.dimension)
    q = np.atleast_1d(np.asarray(q, dtype=np.float64))
    if np.any(q <= 0.0):
        raise SpecificationError("rates must be strictly positive")
    p = np.append(q, 1.0)
    return prefs.indirect_utility_normalized(u, p / float(p @ anchor))


def sample_pareto(specs, q, levels) -> ParetoPoint:
    """Pareto-optimal allocation with common rates ``q`` and given levels."""
    q = np.atleast_1d(np.asarray(q, dtype=np.float64))
    levels = np.atleast_1d(np.asarray(levels, dtype=np.float64))
    if len(specs) != levels.size:
        raise SpecificationError("one utility level per household is required")
    p = np.append(q, 1.0)
    bundles = tuple(prefs.hicksian_demand(s, p, float(l)) for s, l in zip(specs, levels))
    for s, b in zip(specs, bundles):
        if float(np.max(np.abs(prefs.substitution_rates(s, b) - q))) > 1e-9 * float(np.max(q)):
            raise ConvergenceError("household rates drifted from the common rates")
    return ParetoPoint(q, levels, bundles)


def contract_curve_2x2(specs, aggregate, grid_size: int) -> list[Allocation]:
    """Equal-rates locus inside the 2x2 Edgeworth box.

    Sweeps household 1's first coordinate across the box and solves the
    second coordinate from rate equality; each output allocation splits the
    aggregate exactly.
    """
    if len(specs) != 2:
        raise SpecificationError("contract_curve_2x2 requires exactly two households")
    aggregate = as_bundle(aggregate, 2)
    if grid_size < 1:
        raise SpecificationError("grid_size must be at least 1")
    s1, s2 = specs
    from scipy.optimize import brentq

    def rate_mismatch(y11: float, y12: float) -> float:
        a = prefs.substitution_rates(s1, np.array([y11, y12]))[0]
        b = prefs.substitution_rates(s2, np.array([aggregate[0] - y11, aggregate[1] - y12]))[0]
        return np.log(a) - np.log(b)

    out: list[Allocation] = []
    eps = 1e-12 * float(aggregate[1])
    for k in range(1, grid_size + 1):
        y11 = aggregate[0] * k / (grid_size + 1)
        y12 = brentq(
            lambda v: rate_mismatch(y11, v),
            eps,
            float(aggregate[1]) - eps,
            xtol=1e-15,
            rtol=8.9e-16,
            maxiter=200,
        )
        first = np.array([y11, y12])
        out.append(Allocation(np.stack([first, aggregate - first])))
    return out


def walras_equilibrium_2x2(specs, endowments: Allocation) -> tuple[float, Allocation]:
    """Market-clearing rate and allocation for a 2-household, 2-good economy.

    Brackets the clearing rate with the households' extreme substitution
    rates and bisects aggregate excess demand for the first good; Walras'
    law clears the second good along with it.
    """
    if len(specs) != 2 or endowments.bundles.shape != (2, 2):
        raise SpecificationError("walras_equilibrium_2x2 requires H = L = 2")
    rates = [
        float(prefs.substitution_rates(s, b)[0])
        for s, b in zip(specs, endowments.bundles)
    ]
    lo, hi = min(rates), max(rates)
    aggregate = endowments.aggregate

    def demands(q: float) -> FloatArray:
        return prefs._guard(_each(_path_end, specs, endowments.bundles, np.array([q, 1.0])), "demand")

    if _rates_agree(lo, hi, PARETO_TOL):
        return lo, endowments  # already Pareto optimal: no-trade equilibrium
    from scipy.optimize import brentq

    def excess(q: float) -> float:
        return float(demands(q)[:, 0].sum() - aggregate[0])

    try:
        q = float(brentq(excess, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200))
    except ValueError as exc:
        raise ConvergenceError(
            "excess demand does not change sign on the rate interval; "
            "the economy is mis-specified"
        ) from exc
    allocation = Allocation(demands(q))
    if float(np.max(np.abs(allocation.aggregate - aggregate))) > 1e-10:
        raise ConvergenceError("market clearing residual exceeds 1e-10")
    return q, allocation
