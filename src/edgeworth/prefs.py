"""Closed-form demand systems for Cobb-Douglas and CES preferences.

Everything here is a pure function of immutable inputs.  The two families
are the log Cobb-Douglas ``u(c) = sum_i a_i ln c_i`` and the CES
``u(c) = (sum_i a_i c_i^s)^(1/s)`` with ``s`` strictly inside (0, 1); both are
attractive and sharp, which the trade and engine modules rely on.

The closed-form core (``_gradient``, ``_level_gradient``, ``_demand``,
``_demand_jacobian``, ``_inverse_demand``, ``_rates``, ``_utility``,
``_hicksian``, ``_expenditure``) works on ``(..., L)`` stacks, goods on the
last axis as in ``Allocation.bundles``, and checks nothing.  Inputs are
validated at the boundary: by the constructors, and by the public functions,
which check each argument once, with the utility's dimension, through
``as_bundle``/``as_price``, call the core on it and ``_guard`` the result.
Callers holding validated state (trade, the engine's 2x2 kernel, verify)
call the core on whole stacks and guard once per stack.  ``_rates``,
``_demand`` and ``_inverse_demand`` also take a household group of
``trade.Economy.groups`` where they take a spec: the group's stacked
weights broadcast against its members' bundles.  One row of every
core has the bits of its public function on that row: where a one-vector
evaluation takes a power, exp or log of a scalar, the core uses the C
library's (``np.float_power``, :func:`_libm`) on every row, since numpy's
SIMD loops can differ from it by an ulp.

``UtilitySpec.multiplicative(b)`` writes the log family with weights
``b / B`` at the level ``exp(B u)``, ``B = sum_i b_i``: the multiplicative
form ``u(c) = prod_i c_i^b_i`` of the worked examples.  Demand is ordinal,
so the core never reads the level exponent; only the functions of the
utility level (``utility``, ``gradient``, ``hessian``, ``hicksian_demand``,
``utility_in_range``) do.  It lets monotone-transform invariance of the
sharpness and attractiveness predicates be exercised; a scenario document
cannot state it.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DomainDegeneracyError,
    SpecificationError,
    UnreachableUtilityError,
)

FloatArray = NDArray[np.float64]

# Coordinates below this are treated as numerically degenerate rather than
# silently propagated as subnormals.
POSITIVE_FLOOR = 1e-300

_WEIGHT_SUM_TOL = 1e-12

_ATTRACTIVE_TOL = 1e-10


class Family(str, enum.Enum):
    """Supported utility families."""

    COBB_DOUGLAS_LOG = "cobb_douglas_log"
    CES = "ces"


def _read_only(a: FloatArray) -> FloatArray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class UtilitySpec:
    """A household's preference: family, weight vector, CES elasticity.

    Weights must be strictly positive and sum to one.  ``elasticity`` is the
    CES exponent, required to lie strictly inside (0, 1) and present only for
    the CES family.  ``exponent`` is a log-family level exponent ``B > 0``:
    the level is then ``exp(B * sum_i w_i ln c_i)`` (see
    :meth:`multiplicative`).
    """

    family: Family
    weights: FloatArray
    elasticity: float | None = None
    exponent: float | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 2:
            raise SpecificationError("weights must be a vector of length >= 2")
        if not np.all(w > 0.0):
            raise SpecificationError("weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise SpecificationError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "weights", _read_only(w))
        object.__setattr__(self, "family", Family(self.family))
        if self.family is Family.CES:
            if self.elasticity is None:
                raise SpecificationError("CES requires an elasticity")
            object.__setattr__(self, "elasticity", _check_real(self.elasticity, "elasticity", 0, 1))
        elif self.elasticity is not None:
            raise SpecificationError("elasticity is only valid for the CES family")
        if self.exponent is not None:
            if self.family is not Family.COBB_DOUGLAS_LOG:
                raise SpecificationError("a level exponent is only valid for the log Cobb-Douglas family")
            object.__setattr__(self, "exponent", _check_real(self.exponent, "exponent", 0, math.inf))

    @property
    def dimension(self) -> int:
        return int(self.weights.size)

    @classmethod
    def cobb_douglas_log(cls, weights) -> "UtilitySpec":
        return cls(Family.COBB_DOUGLAS_LOG, np.asarray(weights, dtype=np.float64))

    @classmethod
    def ces(cls, weights, elasticity: float) -> "UtilitySpec":
        return cls(Family.CES, np.asarray(weights, dtype=np.float64), elasticity)

    @classmethod
    def multiplicative(cls, exponents) -> "UtilitySpec":
        """``u(c) = prod_i c_i^b_i``: the log family with weights ``b / B`` at level exponent ``B = sum(b)``."""
        b = np.asarray(exponents, dtype=np.float64)
        if b.ndim != 1 or b.size < 2 or not np.all((b > 0.0) & (b < math.inf)):
            raise SpecificationError("exponents must be a vector of length >= 2, positive and finite")
        total = float(b.sum())
        return cls(Family.COBB_DOUGLAS_LOG, b / total, exponent=total)


_POWERS = {2**53: "2**53", 2**64 - 1: "2**64 - 1"}  # bounds messages write as powers of two: step counts, key words


def _check_int(value, what: str, lo: int, hi: int | None = None) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, in [lo, hi] (no upper bound if ``hi`` is None)."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and lo <= value <= (math.inf if hi is None else hi)):
        span = f"of at least {lo}" if hi is None else f"from {lo} to {_POWERS.get(hi, hi)}"
        raise SpecificationError(f"{what} must be an integer {span}, got {value!r}")
    return int(value)


def _check_real(value, what: str, lo: float, hi: float, closed: bool = False) -> float:
    """``value`` as a float: a Python or numpy real number that a float holds, not a bool, in (lo, hi).

    ``closed`` admits ``lo`` itself, the interval [lo, hi).
    """
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and (lo <= value if closed else lo < value) and value < hi
            and -sys.float_info.max <= value <= sys.float_info.max):
        raise SpecificationError(f"{what} must be a number in {'[' if closed else '('}{lo:g}, {hi:g}), got {value!r}")
    return float(value)


def as_bundle(values, dimension: int | None = None) -> FloatArray:
    """Validate a consumption bundle: strictly positive vector of goods.

    The checks run in this order, and the first one that fails decides the
    error:

    1. not a vector of length >= 2: :class:`SpecificationError`;
    2. ``dimension`` given and not matched: :class:`SpecificationError`;
    3. a NaN or +-inf coordinate: :class:`SpecificationError` ("finite");
    4. a zero or negative coordinate: :class:`SpecificationError`
       ("strictly positive");
    5. a coordinate below :data:`POSITIVE_FLOOR`:
       :class:`DomainDegeneracyError`.

    A well-shaped vector whose minimum is at least the floor and whose
    maximum is finite passes all five at once and is accepted after one
    ``min`` and one ``max``; a NaN fails both comparisons and falls through.
    """
    c = np.asarray(values, dtype=np.float64)
    if (
        c.ndim == 1
        and c.size >= 2
        and (dimension is None or c.size == dimension)
        and c.min() >= POSITIVE_FLOOR
        and c.max() < math.inf
    ):
        return c
    if c.ndim != 1 or c.size < 2:
        raise SpecificationError("a bundle must be a vector of length >= 2")
    if dimension is not None and c.size != dimension:
        raise SpecificationError(f"expected {dimension} goods, got {c.size}")
    if not np.all(np.isfinite(c)):
        raise SpecificationError("bundle coordinates must be finite")
    if not np.all(c > 0.0):
        raise SpecificationError("bundle coordinates must be strictly positive")
    if np.any(c < POSITIVE_FLOOR):
        raise DomainDegeneracyError("bundle coordinate below 1e-300")
    return c


def as_price(values, dimension: int | None = None) -> FloatArray:
    """Validate a wealth-normalized price vector (same checks as :func:`as_bundle`).

    The :class:`SpecificationError` messages say "price" for "bundle"; the
    floor's :class:`DomainDegeneracyError` is passed through unchanged.
    """
    try:
        return as_bundle(values, dimension)
    except SpecificationError as exc:
        raise SpecificationError(str(exc).replace("bundle", "price")) from None


def _as_rates(q, goods: int | None, stack: bool | None = False, name: str = "q") -> FloatArray:
    """Rates against good L: a vector of ``goods - 1`` finite positive entries, a scalar too when L = 2.

    ``stack=True`` reads a (G, goods - 1) stack, a flat list of rates too when
    L = 2 and an empty one at any L; ``stack=None`` reads a one-axis ``q`` as
    a vector and any other as a stack, neither in shorthand.  ``goods=None``
    leaves the length open: a nonempty vector, or a nonempty stack of equal
    vectors, a flat list as one rate per row.  The message names ``q`` as
    ``name``.
    """
    try:  # ragged entries or strings fail to convert
        r = np.asarray(q, dtype=np.float64)
    except (ValueError, TypeError):
        r = np.empty((0, 0, 0))  # of no accepted shape
    stack = r.ndim != 1 if stack is None else stack
    flat = stack and goods is None  # an open-length stack reads a flat list as one rate per row
    if r.ndim == stack and (goods == 2 or flat or r.size == 0):  # one axis short; never when stack was None
        r = r.reshape((-1, (goods or 2) - 1) if stack else 1)
    fits = r.ndim == 1 + stack and (r.shape[-1] == goods - 1 if goods else r.size > 0)
    if not (fits and np.all((r > 0.0) & (r < math.inf))):
        form, got = "a stack of vectors" if stack else "a vector", " ".join(repr(q).split())  # on one line
        rule = f"{form} of L - 1 = {goods - 1}" if goods else f"a nonempty {form[2:]} of"
        raise SpecificationError(f"{name} must be {rule} finite positive rates, got {got}")
    return r


def _guard(values: FloatArray, what: str, floor: float = POSITIVE_FLOOR) -> FloatArray:
    """Return a computed output unchanged if every entry is finite and off the floor.

    Any NaN, +-inf, or entry with ``|v| < floor`` (exact zeros included at
    the default floor) raises :class:`DomainDegeneracyError`; the sign is
    not checked.  Jacobians, whose entries may be exact zeros, are guarded
    with ``floor=0.0``: finiteness only.  An empty array passes.
    """
    a = np.abs(values)
    if a.size and not (a.min() >= floor and a.max() < math.inf):
        raise DomainDegeneracyError(f"{what} degenerated below the positive floor" if floor else f"{what} is not finite")
    return values


def _check_level(u: UtilitySpec, level: float) -> None:
    if not utility_in_range(u, level):
        raise UnreachableUtilityError(f"utility level {level!r} is outside the family's range")


def _eta(u: UtilitySpec) -> float:
    return 1.0 / (1.0 - u.elasticity)


def _libm(fn, x) -> FloatArray:
    """``fn`` (``math.exp``, ``math.log`` or ``math.erfc``) entry by entry, with the C library's bits."""
    return np.asarray(np.frompyfunc(fn, 1, 1)(x), dtype=np.float64)


def _utility(u: UtilitySpec, c: FloatArray) -> FloatArray:
    """Utility level, one per row; no checks."""
    if u.family is Family.CES:
        return np.float_power(np.vecdot(c**u.elasticity, u.weights), 1.0 / u.elasticity)
    v = np.vecdot(np.log(c), u.weights)
    return v if u.exponent is None else _libm(math.exp, u.exponent * v)


def _gradient(u: UtilitySpec, c: FloatArray) -> FloatArray:
    """Gradient of the utility (of ``sum_i w_i ln c_i`` for the log family at any level exponent); no checks."""
    w = u.weights
    if u.family is Family.CES:
        sig = u.elasticity
        return np.float_power(np.vecdot(c**sig, w), 1.0 / sig - 1.0)[..., None] * w * c ** (sig - 1.0)
    return w / c


def _level_gradient(u: UtilitySpec, c: FloatArray) -> FloatArray:
    """Gradient of the utility level: ``_gradient``, times ``B exp(B v)`` at a level exponent; no checks."""
    g = _gradient(u, c)
    if u.exponent is None:
        return g
    return (_utility(u, c) * u.exponent)[..., None] * g  # the chain rule through exp(B v)


def _demand(u: UtilitySpec, p: FloatArray) -> FloatArray:
    """Normalized Walrasian demand; no checks."""
    if u.family is Family.CES:
        eta = _eta(u)
        w_eta = u.weights**eta
        return w_eta * p**-eta / np.vecdot(p ** (1.0 - eta), w_eta)[..., None]
    return u.weights / p


def _demand_jacobian(u: UtilitySpec, p: FloatArray) -> FloatArray:
    """Jacobian of the normalized demand (row i = good i), ``(..., L, L)``; no checks."""
    diagonal = np.eye(p.shape[-1], dtype=bool)
    if u.family is Family.COBB_DOUGLAS_LOG:
        return np.where(diagonal, (-u.weights / p**2)[..., None, :], 0.0)
    eta = _eta(u)
    x = _demand(u, p)
    return np.where(diagonal, (-eta * x / p)[..., None, :], 0.0) - (1.0 - eta) * (x[..., :, None] * x[..., None, :])


def _hicksian(u: UtilitySpec, p: FloatArray, level) -> FloatArray:
    """Cheapest bundle reaching ``level`` (one per row) at prices ``p``; no checks."""
    w = u.weights
    if u.family is Family.COBB_DOUGLAS_LOG:
        v = level if u.exponent is None else _libm(math.log, level) / u.exponent
        e = _libm(math.exp, v - np.vecdot(np.log(w / p), w))
        return e[..., None] * w / p
    eta = _eta(u)
    w_eta = w**eta
    a = np.vecdot(p ** (1.0 - eta), w_eta)
    e = level * np.float_power(a, 1.0 / (1.0 - eta))
    return e[..., None] * w_eta * p**-eta / a[..., None]


def _expenditure(u: UtilitySpec, p: FloatArray, level) -> FloatArray:
    """Minimum cost of reaching ``level`` at prices ``p``, p . h(p, level); no checks."""
    return np.vecdot(p, _hicksian(u, p, level))


def _inverse_demand(u: UtilitySpec, c: FloatArray) -> FloatArray:
    """Inverse normalized demand, grad u / (grad u . c); no checks."""
    g = _gradient(u, c)
    return g / np.vecdot(g, c)[..., None]


def _fixed_point_ray(u: UtilitySpec) -> FloatArray:
    """``w^(1/(2 - s))``, on which demand is parallel to prices (``s = 0`` for the log family)."""
    return u.weights ** (1.0 / (2.0 - (u.elasticity if u.family is Family.CES else 0.0)))


def _rates(u: UtilitySpec, c: FloatArray) -> FloatArray:
    """Substitution rates of the first L-1 goods against good L; no checks."""
    g = _gradient(u, c)
    return g[..., :-1] / g[..., -1:]


def utility(u: UtilitySpec, c) -> float:
    """Utility level at bundle ``c`` (may be negative for the log family)."""
    c = as_bundle(c, u.dimension)
    return float(_utility(u, c))


def gradient(u: UtilitySpec, c) -> FloatArray:
    """Analytic gradient of the utility; strictly positive coordinatewise."""
    c = as_bundle(c, u.dimension)
    return _guard(_level_gradient(u, c), "gradient")


def hessian(u: UtilitySpec, c) -> FloatArray:
    """Analytic Hessian of the utility (symmetric; negative semidefinite without a level exponent)."""
    c = as_bundle(c, u.dimension)
    if u.family is Family.COBB_DOUGLAS_LOG:
        h = np.diag(-u.weights / c**2)
        if u.exponent is None:
            return h
        g = u.exponent * u.weights / c  # the gradient of B v
        return utility(u, c) * (np.outer(g, g) + u.exponent * h)
    sig = u.elasticity
    s = float(u.weights @ c**sig)
    theta = u.weights * c ** (sig - 1.0)
    return (1.0 - sig) * (
        s ** (1.0 / sig - 2.0) * np.outer(theta, theta)
        - s ** (1.0 / sig - 1.0) * np.diag(u.weights * c ** (sig - 2.0))
    )


def normalized_demand(u: UtilitySpec, p) -> FloatArray:
    """Walrasian demand at unit wealth; satisfies ``p @ x == 1``."""
    p = as_price(p, u.dimension)
    return _guard(_demand(u, p), "demand")


def normalized_demand_jacobian(u: UtilitySpec, p) -> FloatArray:
    """Analytic Jacobian of :func:`normalized_demand` (row i = good i)."""
    p = as_price(p, u.dimension)
    _guard(_demand(u, p), "demand")
    return _guard(_demand_jacobian(u, p), "demand jacobian", floor=0.0)


def inverse_normalized_demand(u: UtilitySpec, c) -> FloatArray:
    """Prices leading the consumer to pick ``c`` at unit wealth: grad u / (grad u . c)."""
    c = as_bundle(c, u.dimension)
    return _guard(_inverse_demand(u, c), "inverse demand")


def substitution_rates(u: UtilitySpec, c) -> FloatArray:
    """Marginal substitution rates of the first L-1 goods against good L."""
    c = as_bundle(c, u.dimension)
    return _guard(_rates(u, c), "substitution rates")


def utility_in_range(u: UtilitySpec, level: float) -> bool:
    """Whether ``level`` is attainable on the interior consumption set."""
    if u.family is Family.COBB_DOUGLAS_LOG and u.exponent is None:
        return bool(np.isfinite(level))
    return bool(np.isfinite(level)) and level > 0.0


def hicksian_demand(u: UtilitySpec, p, target_u: float) -> FloatArray:
    """Cheapest bundle reaching utility ``target_u`` at prices ``p``."""
    p = as_price(p, u.dimension)
    target_u = _check_real(target_u, "utility level", -math.inf, math.inf)
    _check_level(u, target_u)
    return _guard(_hicksian(u, p, target_u), "hicksian demand")


def expenditure(u: UtilitySpec, p, target_u: float) -> float:
    """Minimum cost of reaching ``target_u`` at prices ``p``: p . h(p, u)."""
    h = hicksian_demand(u, p, target_u)
    return float(np.vecdot(np.asarray(p, dtype=np.float64), h))


def indirect_utility_normalized(u: UtilitySpec, p) -> float:
    """Utility of the normalized demand, u(x_n(p))."""
    return utility(u, normalized_demand(u, p))


def lambda_n(u: UtilitySpec, p) -> float:
    """Marginal utility of wealth at unit wealth: grad u(x_n(p)) . x_n(p)."""
    x = normalized_demand(u, p)
    return float(gradient(u, x) @ x)


def check_sharp(u: UtilitySpec, y, p) -> bool:
    """Sharpness at (y, p): overpriced goods are offered, underpriced demanded.

    For each good i, when p_i strictly exceeds every cross-rate-implied price
    ``p_j * MRS_ij(y)`` the trade direction's i-th coordinate must be
    negative; when it falls strictly below all of them, positive.  Vacuously
    true when no antecedent triggers.
    """
    y = as_bundle(y, u.dimension)
    p = as_price(p, u.dimension)
    inv = inverse_normalized_demand(u, y)
    delta = normalized_demand(u, p / float(p @ y)) - y
    n = y.size
    for i in range(n):
        implied = np.delete(p * inv[i] / inv, i)
        if p[i] > implied.max() and not delta[i] < 0.0:
            return False
        if p[i] < implied.min() and not delta[i] > 0.0:
            return False
    return True


def check_attractive(u: UtilitySpec, y, p, i: int, j: int) -> bool:
    """Attractiveness bilinear form at (y, p) for the goods pair (i, j).

    The form couples the gap between MRS_ij(y) and the price ratio to the
    Hessian action on the trade direction; attractive preferences keep it
    non-positive, up to the absolute slack :data:`_ATTRACTIVE_TOL` so that
    vacuous zeros are not flipped by rounding.
    """
    y = as_bundle(y, u.dimension)
    p = as_price(p, u.dimension)
    i, j = _check_int(i, "goods index i", 0, y.size - 1), _check_int(j, "goods index j", 0, y.size - 1)
    if i == j:
        raise SpecificationError(f"goods indices must name two different goods, got {i}, {j}")
    inv = inverse_normalized_demand(u, y)
    gap = inv[i] / inv[j] - p[i] / p[j]
    row = np.zeros(y.size)
    row[i] = inv[j]
    row[j] = -inv[i]
    delta = normalized_demand(u, p / float(p @ y)) - y
    form = gap * float(row @ hessian(u, y) @ delta)
    return form <= _ATTRACTIVE_TOL
