"""Randomized numeric falsification suites for the package's core claims.

Each suite hammers one cluster of analytic results with random draws and
reports the worst violation seen: the demand-theory identities, the chart
Jacobians against finite differences, the monotone attraction of
substitution rates along joint trade paths, and the convergence-to-Pareto
statistic together with a cross-check of the closed-form trade interval
against the trade screen's exact two-good decision.  The identity suite reports its largest relative residual;
the others report their measured quantity over its bound, so that they pass
iff it is at most 1.  Suites are deterministic given (spec, draws, seed):
the identity, jacobian and attraction suites draw first, in a fixed order,
from one stream, and then check each claim once over the ``(draws, ...)``
stack through the closed-form cores of ``prefs`` and ``geometry``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import engine, geometry, prefs, trade
from .engine import SimConfig, Terminal
from .errors import ConvergenceError, SamplingError, SpecificationError
from .prefs import UtilitySpec
from .trade import Allocation, Economy, SpeedPrior

FloatArray = NDArray[np.float64]

#: Absolute slack on non-increasing / non-decreasing claims; grid evaluation
#: of analytically monotone functions only accumulates ulp-level rounding.
MONOTONE_SLACK = 1e-9

_IDENTITY_THRESHOLD = 1e-8
_JACOBIAN_RTOL = 1e-5
_TANGENCY_TOL = 1e-6
_PATH_GRID = 100
# draws per stack of path claims: (draws, T, H, L, L) ratio arrays stay small
_PATH_CHUNK = 8
_CLEARING_TOL = 1e-11
_CLEARING_MAX_ITER = 200

# random draws span two decades around the demand fixed point
_DRAW_LO, _DRAW_HI = 0.1, 10.0


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one suite: pass iff no draw violated its claim."""

    check_name: str
    draws: int
    failures: int
    worst_violation: float
    seed: int

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.check_name:<28s} {status}  draws={self.draws:<6d} "
            f"failures={self.failures:<5d} worst={self.worst_violation:.3e} "
            f"seed={self.seed}"
        )


def _rng(seed: int) -> np.random.Generator:
    return engine.run_rng(seed, 0)


def _draw_points(rng: np.random.Generator, size) -> FloatArray:
    return np.exp(rng.uniform(math.log(_DRAW_LO), math.log(_DRAW_HI), size=size))


def _relative(residual: FloatArray, scale: FloatArray) -> FloatArray:
    return np.abs(residual) / np.maximum(1.0, np.abs(scale))


def _amax(a: FloatArray, axes=-1) -> FloatArray:
    return np.max(np.abs(a), axis=axes)


def _row_times(v: FloatArray, m: FloatArray) -> FloatArray:
    """Row vector times matrix, ``v @ m``, per row of the stacks."""
    return (v[..., None, :] @ m)[..., 0, :]


def _checked(bad: FloatArray) -> FloatArray:
    """Per-draw violations, which must be finite: a NaN would pass every comparison."""
    return prefs._guard(bad, "a claim's violation", floor=0.0)


def identity_suite(
    spec: UtilitySpec, draws: int = 1000, seed: int = 0, demand_scale: float = 1.0
) -> CheckReport:
    """Demand-theory identities plus inverse-demand and flat-chart roundtrips.

    ``demand_scale`` is a fault-injection hook: any value other than 1
    corrupts the demand map seen by the checks, and the suite must then fail
    on every draw (the harness's own sensitivity is part of the contract).
    """
    draws = prefs._check_int(draws, "draws", 1)
    rng = _rng(seed)
    n = spec.dimension
    signed = prefs.utility_in_range(spec, -1.0)  # levels in (-2, 2), else in (0.2, 5)
    p, c, u0, flat_q = np.empty((draws, n)), np.empty((draws, n)), np.empty(draws), np.empty((draws, n - 1))
    for k in range(draws):
        p[k] = _draw_points(rng, n)
        c[k] = _draw_points(rng, n)
        if signed:
            u0[k] = rng.uniform(-2.0, 2.0)
        else:
            u0[k] = np.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        flat_q[k] = _draw_points(rng, n - 1)

    def demand(prices: FloatArray) -> FloatArray:
        return demand_scale * prefs._demand(spec, prices)

    x_true = prefs._guard(prefs._demand(spec, p), "demand")
    x = demand_scale * x_true
    g_true = prefs._level_gradient(spec, x_true)
    jac = prefs._demand_jacobian(spec, p)
    lam = np.vecdot(g_true, x_true)
    grad_v = _row_times(g_true, jac)
    v = prefs._utility(spec, x_true)
    hx = prefs._guard(prefs._hicksian(spec, p, v), "hicksian demand")
    h0 = prefs._guard(prefs._hicksian(spec, p, u0), "hicksian demand")
    e0 = np.vecdot(p, h0)
    back_q, back_u = geometry._d_inverse(spec, geometry._d_map(spec, flat_q, u0))
    p2 = geometry._d_map(spec, *geometry._d_inverse(spec, p))

    scale_x = _amax(x)
    residuals = [
        _relative(np.vecdot(p, x) - 1.0, 1.0),
        _relative(_amax(_row_times(p, jac) + x), scale_x),
        _relative(_amax(grad_v + lam[:, None] * x), _amax(grad_v)),
        _relative(np.vecdot(grad_v, p) + lam, lam),
        _relative(_amax(hx - x), scale_x),
        _relative(_amax(h0 - demand(p / e0[:, None])), _amax(h0)),
        _relative(np.vecdot(p, hx) - 1.0, 1.0),
        _relative(_amax(demand(prefs._inverse_demand(spec, c)) - c), _amax(c)),
        _relative(_amax(prefs._inverse_demand(spec, x) - p), _amax(p)),
        _relative(_amax(back_q - flat_q), np.max(flat_q, axis=-1)),
        _relative(back_u - u0, u0),
        _relative(_amax(p2 - p), np.max(p, axis=-1)),
    ]
    bad = _checked(np.max(residuals, axis=0))
    return CheckReport("identity", draws, int(np.count_nonzero(bad > _IDENTITY_THRESHOLD)), float(bad.max()), seed)


def _fd_jacobian(f, x: FloatArray) -> FloatArray:
    """Central differences D(r) at relative steps r = 1e-3 and 5e-4, combined
    as (4 D(5e-4) - D(1e-3)) / 3 so that their O(r^2) error cancels; ``f``
    maps an ``(..., L)`` stack row by row, and column k of each Jacobian is
    the derivative along good k."""

    def central(k: int, rel: float) -> FloatArray:
        step = np.zeros_like(x)
        step[..., k] = rel * x[..., k]
        return (f(x + step) - f(x - step)) / (2.0 * step[..., k, None])

    return np.stack([(4.0 * central(k, 5e-4) - central(k, 1e-3)) / 3.0 for k in range(x.shape[-1])], axis=-1)


def jacobian_suite(spec: UtilitySpec, draws: int = 1000, seed: int = 0) -> CheckReport:
    """Chart Jacobians against Richardson-combined central differences, plus tangency."""
    draws = prefs._check_int(draws, "draws", 1)
    rng = _rng(seed)
    n = spec.dimension
    anchor, p = np.empty((2, draws, n))
    for k in range(draws):
        anchor[k], p[k] = _draw_points(rng, n), _draw_points(rng, n)
    level = prefs._utility(spec, anchor)

    want_phi = _fd_jacobian(lambda z: prefs._hicksian(spec, z, level), p)
    err_phi = _relative(_amax(geometry._jacobian_phi(spec, anchor, p) - want_phi, (-2, -1)), _amax(want_phi, (-2, -1)))
    want_psi = _fd_jacobian(lambda z: prefs._demand(spec, z / np.vecdot(z, anchor)[:, None]), p)
    err_psi = _relative(_amax(geometry._jacobian_psi(spec, anchor, p) - want_psi, (-2, -1)), _amax(want_psi, (-2, -1)))

    support = prefs._guard(prefs._inverse_demand(spec, anchor), "inverse demand")
    gap = geometry._jacobian_phi(spec, anchor, support) - geometry._jacobian_psi(spec, anchor, support)
    tangency = _amax(gap, (-2, -1))

    bad = _checked(np.max([err_phi / _JACOBIAN_RTOL, err_psi / _JACOBIAN_RTOL, tangency / _TANGENCY_TOL], axis=0))
    return CheckReport("jacobian", draws, int(np.count_nonzero(bad > 1.0)), float(bad.max()), seed)


def _failure(error: type[Exception], why: str, k, bundles: FloatArray) -> Exception:
    """``error`` naming draw ``k`` (an index into ``bundles``) and its bundles."""
    return error(f"{why} at draw {int(k)} (bundles {bundles[k].tolist()})")


def _clearing_rates(e: Economy, bundles: FloatArray, weights: FloatArray, rates: FloatArray) -> FloatArray:
    """:func:`weighted_clearing_rates` for an ``(n, H, L)`` stack of states at once.

    Each row runs its own damped Newton from its weighted mean rate
    (``rates`` are the households' substitution rates, ``(n, H, L - 1)``):
    the rows move in lockstep, each with its own convergence test and
    backtracking scale, and leave the loop as they converge.  A singular
    Jacobian or a stalled row raises :class:`ConvergenceError` naming its
    row and bundles.
    """

    def excess(logq: FloatArray, rows: NDArray[np.intp]) -> FloatArray:
        p = np.concatenate([np.exp(logq), np.ones((rows.size, 1))], axis=-1)
        return _row_times(weights[rows], trade._directions(e, bundles[rows], p))[:, :-1]

    live = np.arange(len(bundles))  # rows not yet converged
    v = np.log(_row_times(weights, rates) / weights.sum(axis=-1)[:, None])
    f = excess(v, live)
    for _ in range(_CLEARING_MAX_ITER):
        norm = _amax(f[live])
        live, norm = live[norm >= _CLEARING_TOL], norm[norm >= _CLEARING_TOL]
        if not live.size:
            return np.exp(v)
        p = np.concatenate([np.exp(v[live]), np.ones((live.size, 1))], axis=-1)
        jac = sum(
            weights[live, h][:, None, None] * geometry._jacobian_psi(u, bundles[live, h], p)[:, :-1, :-1]
            for h, u in enumerate(e.specs)
        ) * p[:, None, :-1]
        try:
            step = np.linalg.solve(jac, -f[live][..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            # the LU factorization meets a zero pivot exactly where the determinant is zero
            singular = live[np.linalg.det(jac) == 0.0]
            raise _failure(ConvergenceError, "singular Jacobian in the clearing solver", singular[0], bundles) from exc
        scale = np.ones(live.size)
        pending = np.arange(live.size)  # rows of ``live`` still backtracking
        for _ in range(40):
            rows = live[pending]
            trial = v[rows] + scale[pending, None] * step[pending]
            f_trial = excess(trial, rows)
            better = _amax(f_trial) < norm[pending]
            v[rows[better]], f[rows[better]] = trial[better], f_trial[better]
            pending = pending[~better]
            if not pending.size:
                break
            scale[pending] *= 0.5
        else:
            raise _failure(ConvergenceError, "clearing solver stalled", live[pending[0]], bundles)
    raise _failure(ConvergenceError, "clearing solver exhausted its iteration budget", live[0], bundles)


def weighted_clearing_rates(e: Economy, y: Allocation, weights: FloatArray) -> FloatArray:
    """Rates q with sum_h w_h * direction_h((q,1)) = 0, by damped Newton.

    With unit weights this is a competitive equilibrium of the economy
    re-endowed at ``y``; any positive weights yield a trade-compatible price
    paired with speeds proportional to ``w``.  Direction h is the offer
    chart minus ``y_h``, so the Newton step's Jacobian in log q is the
    analytic one, sum_h w_h * ``geometry.jacobian_psi(u_h, y_h, p)``
    restricted to the first L - 1 goods and scaled by q per column.  One row
    of the stacked solver that the attraction suite runs on all its draws.
    """
    rates = trade.household_rates(e, y)
    weights = np.asarray(weights, dtype=np.float64)
    return _clearing_rates(e, y.bundles[None], weights[None], rates[None])[0]


def _path_violations(
    e: Economy, bundles: FloatArray, p: FloatArray, dirs: FloatArray, sigma: FloatArray, ts: FloatArray
) -> FloatArray:
    """Per draw of a stack, the largest violation of the attraction claims along its path."""
    n = e.n_goods
    # household substitution-rate matrices along the paths: (draws, T, H, L, L)
    paths = bundles[:, None] + sigma[:, None, :, None] * ts[None, :, None, None] * dirs[:, None]
    inv = prefs._guard(trade._grouped(prefs._inverse_demand, e, paths), "inverse demand")
    ratios = inv[..., :, None] / inv[..., None, :]  # [k, t, h, i, j]
    price_ratio = (p[:, :, None] / p[:, None, :])[:, None, None]

    def largest(a: FloatArray) -> FloatArray:
        return a.reshape(len(a), -1).max(axis=-1)

    # squared gaps to the trading ratio are non-increasing; at full speed
    # the rates land on it
    increases = [largest(np.diff((ratios - price_ratio) ** 2, axis=1))]
    full = np.abs(sigma - 1.0) < 1e-12
    increases.append(largest(np.where(full[:, :, None, None], np.abs(ratios[:, -1] - price_ratio[:, 0]), -np.inf)))

    # extreme-rate case split
    m_path = ratios.min(axis=2)  # (draws, T, L, L)
    big_m_path = ratios.max(axis=2)
    has_below = (ratios[:, 0] <= price_ratio[:, 0]).any(axis=1)  # (draws, L, L)
    has_above = (ratios[:, 0] >= price_ratio[:, 0]).any(axis=1)
    dm = np.diff(m_path, axis=1)
    dbm = np.diff(big_m_path, axis=1)
    off_diag = ~np.eye(n, dtype=bool)
    # a household at or below the price ratio: the minimum may not fall (else not
    # rise); one at or above: the maximum may not rise (else not fall)
    sign_m = np.where(has_below, -1.0, 1.0)[:, None]
    sign_big_m = np.where(has_above, 1.0, -1.0)[:, None]
    increases += [largest((sign_m * dm)[:, :, off_diag]), largest((sign_big_m * dbm)[:, :, off_diag])]

    # nested boxes under the below-price condition; the 2x2 interval net
    nested = has_below[:, off_diag].all(axis=-1)
    increases += [
        np.where(nested, largest(-dm[:, :, off_diag]), -np.inf),
        np.where(nested, largest(dbm[:, :, off_diag]), -np.inf),
    ]
    if n == 2 and e.size == 2:
        increases += [largest(-dm[:, :, 0, 1]), largest(dbm[:, :, 0, 1])]
    return np.max(increases, axis=0)


def attraction_suite(e: Economy, draws: int = 1000, seed: int = 0) -> CheckReport:
    """Monotone substitution-rate dynamics along random joint linear paths.

    Each draw is a non-Pareto allocation with a trade-compatible price and
    feasible speeds: with two goods a rate inside the households' interval
    and a ``trade._sample_speed`` draw, drawn as the allocation is; otherwise
    a weighted clearing price, solved for all draws at once, with speeds
    proportional to the weights.  Checks, on a 100-point grid per path:
    squared rate gaps to the trading ratio never increase; the rate extremes
    move per their case split; the box bounds nest when every below-price
    set starts nonempty; and for 2x2 economies the trade interval net is
    non-increasing; every supported family is attractive and sharp.  The
    worst violation is the largest increase (or full-speed rate gap) over
    ``MONOTONE_SLACK``.
    """
    draws = prefs._check_int(draws, "draws", 1)
    rng = _rng(seed)
    n = e.n_goods
    if n == 2:
        trade._check_size(e)
    bundles, rates = np.empty((draws, e.size, n)), np.empty((draws, e.size, n - 1))
    q, sigma = np.empty((draws, n - 1)), np.empty((draws, e.size))
    weights = np.empty((draws, e.size))  # clearing weights, when n > 2
    k = 0
    while k < draws:
        bundles[k] = _draw_points(rng, (e.size, n))
        rates[k] = trade._household_rates(e, bundles[k])
        lo, hi, agree = trade._extremes(rates[k], trade.PARETO_TOL)
        if np.all(agree):
            continue
        if n == 2:
            lo, hi = math.atan(lo[0]), math.atan(hi[0])
            q[k] = math.tan(lo + (hi - lo) * float(rng.uniform(0.05, 0.95)))
            p = np.append(q[k], 1.0)
            try:
                sigma[k] = trade._sample_speed(trade._directions(e, bundles[k], p), p, SpeedPrior.UNIFORM_CUBE, rng.random)
            except SamplingError as exc:
                raise _failure(SamplingError, str(exc), k, bundles) from exc
        else:
            weights[k] = rng.uniform(0.2, 1.0, e.size)
            sigma[k] = (1.0 - float(rng.random())) * weights[k] / float(weights[k].max())
        if rng.random() < 0.5:
            sigma[k] /= sigma[k].max()  # exercise the full-speed endpoint claim
        k += 1

    if n > 2:
        q = _clearing_rates(e, bundles, weights, rates)
    p = np.concatenate([q, np.ones((draws, 1))], axis=-1)
    dirs = trade._directions(e, bundles, p)

    ts = np.linspace(0.0, 1.0, _PATH_GRID)
    largest = _checked(
        np.concatenate(
            [
                _path_violations(e, *(a[k : k + _PATH_CHUNK] for a in (bundles, p, dirs, sigma)), ts)
                for k in range(0, draws, _PATH_CHUNK)
            ]
        )
    )
    worst = max(0.0, float(largest.max()) / MONOTONE_SLACK)
    return CheckReport("attraction", draws, int(np.count_nonzero(largest > MONOTONE_SLACK)), worst, seed)


def welfare_suite(cfg: SimConfig, seed: int = 0) -> CheckReport:
    """Convergence-to-Pareto statistic plus the trade-interval cross-check.

    At least 99% of the configured trajectories must push the substitution
    rate gap below 1e-3 within the step budget, and on random allocations
    with a nonempty closed-form trade interval (``trade._extremes`` on the
    stack, as for ``trade_interval_2x2``) the trade screen, which decides two
    goods by the speed polytope's largest volume, must find trade at the
    interval's angle midpoint.  The worst violation is the non-converged
    share over its 1% bound, or infinite once the screen misses an interval.
    """
    if cfg.economy.size != 2 or cfg.economy.n_goods != 2:
        raise SpecificationError("welfare suite is specified for 2x2 economies")
    if cfg.prior.s_prior is not SpeedPrior.MAX_SPEED:
        raise SpecificationError("welfare suite requires the max-speed prior")
    measured = dataclasses.replace(cfg, pareto_tol=1e-3, max_steps=min(cfg.max_steps, 200))
    converged = 0
    for idx in range(cfg.runs):
        if engine.run_trajectory(measured, idx).terminal is Terminal.PARETO_REACHED:
            converged += 1
    missed = (cfg.runs - converged) / cfg.runs
    worst = missed / 0.01
    failures = 1 if missed > 0.01 else 0

    # the interval's angle midpoint at every allocation whose rates differ
    y = _draw_points(_rng(seed), (1000, 2, 2))
    lo, hi, agree = (v[:, 0] for v in trade._extremes(trade._household_rates(cfg.economy, y), trade.PARETO_TOL))
    open_ = ~agree
    mid = np.tan(0.5 * (np.arctan(lo[open_]) + np.arctan(hi[open_])))
    prices = np.stack([mid, np.ones_like(mid)], axis=-1)
    misses = np.count_nonzero(~trade._screen(cfg.economy, y[open_], prices))
    failures += misses
    worst = math.inf if misses else worst
    return CheckReport("welfare", cfg.runs + 1000, failures, worst, seed)


def _bundled_configs(seed: int = 0) -> dict[str, SimConfig]:
    """The welfare suites' economies, whose trajectories read master seed ``seed``."""
    cd, ces = UtilitySpec.cobb_douglas_log([0.5, 0.5]), UtilitySpec.ces([0.5, 0.5], 0.5)
    pairs = {"cobb_douglas": [cd, cd], "ces": [ces, UtilitySpec.ces([0.7, 0.3], 0.5)]}
    start = Allocation(np.array([[2.0, 1.0], [1.0, 2.0]]))
    prior = engine.PriorSpec(engine.UniformArc(), SpeedPrior.MAX_SPEED)
    return {
        name: SimConfig(Economy.of(specs), start, prior, master_seed=seed, runs=1000, max_steps=200)
        for name, specs in pairs.items()
    }


def run_all(seed: int = 0, name_filter: str | None = None, inject_fault: bool = False) -> list[CheckReport]:
    """All bundled suites, optionally filtered by substring of their name."""
    cd = UtilitySpec.cobb_douglas_log([0.5, 0.5])
    ces = UtilitySpec.ces([0.5, 0.5], 0.5)
    ces3 = UtilitySpec.ces([0.2, 0.5, 0.3], 0.5)
    ces3b = UtilitySpec.ces([0.4, 0.3, 0.3], 0.5)
    scale = 1.01 if inject_fault else 1.0
    configs = _bundled_configs(seed)
    # built per call: each suite is read from the module when run_all runs
    jobs = [
        ("identity[cobb_douglas]", identity_suite, (cd, 1000, seed, scale)),
        ("identity[ces]", identity_suite, (ces, 1000, seed, scale)),
        ("jacobian[cobb_douglas]", jacobian_suite, (cd, 1000, seed)),
        ("jacobian[ces]", jacobian_suite, (ces, 1000, seed)),
        ("attraction[2x2_cobb_douglas]", attraction_suite, (Economy.of([cd, cd]), 1000, seed)),
        ("attraction[3good_ces]", attraction_suite, (Economy.of([ces3, ces3b]), 1000, seed)),
        ("welfare[cobb_douglas]", welfare_suite, (configs["cobb_douglas"], seed)),
        ("welfare[ces]", welfare_suite, (configs["ces"], seed)),
    ]
    return [
        dataclasses.replace(suite(*args), check_name=name)
        for name, suite, args in jobs
        if not name_filter or name_filter in name
    ]
