"""Randomized numeric falsification suites for the package's core claims.

Each suite hammers one cluster of analytic results with random draws and
reports the worst violation seen: the demand-theory identities, the chart
Jacobians against finite differences, the monotone attraction of
substitution rates along joint trade paths, and the convergence-to-Pareto
statistic together with a cross-check of the closed-form trade interval
against the LP.  The identity suite reports its largest relative residual;
the others report their measured quantity over its bound, so that they pass
iff it is at most 1.  Suites are deterministic given (spec, draws, seed) and
single-threaded so the draw order is reproducible.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import engine, geometry, prefs, trade
from .engine import SimConfig, Terminal
from .errors import ConvergenceError, SpecificationError
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


def _relative(residual: float, scale: float) -> float:
    return abs(residual) / max(1.0, abs(scale))


def identity_suite(
    spec: UtilitySpec, draws: int = 1000, seed: int = 0, demand_scale: float = 1.0
) -> CheckReport:
    """Demand-theory identities plus inverse-demand and flat-chart roundtrips.

    ``demand_scale`` is a fault-injection hook: any value other than 1
    corrupts the demand map seen by the checks, and the suite must then fail
    on every draw (the harness's own sensitivity is part of the contract).
    """
    if draws < 1:
        raise SpecificationError("draws must be at least 1")
    rng = _rng(seed)
    n = spec.dimension
    signed = prefs.utility_in_range(spec, -1.0)  # levels in (-2, 2), else in (0.2, 5)
    failures = 0
    worst = 0.0

    def demand(p: FloatArray) -> FloatArray:
        return demand_scale * prefs.normalized_demand(spec, p)

    for _ in range(draws):
        p = _draw_points(rng, n)
        c = _draw_points(rng, n)
        if signed:
            u0 = float(rng.uniform(-2.0, 2.0))
        else:
            u0 = float(np.exp(rng.uniform(math.log(0.2), math.log(5.0))))

        x = demand(p)
        x_true = prefs.normalized_demand(spec, p)
        g_true = prefs.gradient(spec, x_true)
        jac = prefs.normalized_demand_jacobian(spec, p)
        lam = float(g_true @ x_true)
        grad_v = g_true @ jac
        v = prefs.utility(spec, x_true)
        hx = prefs.hicksian_demand(spec, p, v)
        h0 = prefs.hicksian_demand(spec, p, u0)
        e0 = float(p @ h0)
        fp = geometry.FlatPoint(_draw_points(rng, n - 1), u0)

        scale_x = float(np.max(np.abs(x)))
        residuals = [
            _relative(float(p @ x) - 1.0, 1.0),
            _relative(float(np.max(np.abs(p @ jac + x))), scale_x),
            _relative(float(np.max(np.abs(grad_v + lam * x))), float(np.max(np.abs(grad_v)))),
            _relative(float(grad_v @ p) + lam, lam),
            _relative(float(np.max(np.abs(hx - x))), scale_x),
            _relative(
                float(np.max(np.abs(h0 - demand(p / e0)))),
                float(np.max(np.abs(h0))),
            ),
            _relative(prefs.expenditure(spec, p, v) - 1.0, 1.0),
            _relative(
                float(np.max(np.abs(demand(prefs.inverse_normalized_demand(spec, c)) - c))),
                float(np.max(np.abs(c))),
            ),
            _relative(
                float(np.max(np.abs(prefs.inverse_normalized_demand(spec, demand(p)) - p))),
                float(np.max(np.abs(p))),
            ),
        ]
        back = geometry.d_inverse(spec, geometry.d_map(spec, fp))
        residuals.append(_relative(float(np.max(np.abs(back.q - fp.q))), float(np.max(fp.q))))
        residuals.append(_relative(back.u - fp.u, fp.u))
        p2 = geometry.d_map(spec, geometry.d_inverse(spec, p))
        residuals.append(_relative(float(np.max(np.abs(p2 - p))), float(np.max(p))))

        bad = max(residuals)
        worst = max(worst, bad)
        if bad > _IDENTITY_THRESHOLD:
            failures += 1
    return CheckReport("identity", draws, failures, worst, seed)


def _fd_jacobian(f, x: FloatArray) -> FloatArray:
    """Central differences D(r) at relative steps r = 1e-3 and 5e-4, combined
    as (4 D(5e-4) - D(1e-3)) / 3 so that their O(r^2) error cancels."""

    def central(k: int, rel: float) -> FloatArray:
        step = np.zeros_like(x)
        step[k] = rel * x[k]
        return (f(x + step) - f(x - step)) / (2.0 * step[k])

    return np.stack([(4.0 * central(k, 5e-4) - central(k, 1e-3)) / 3.0 for k in range(x.size)], axis=1)


def jacobian_suite(spec: UtilitySpec, draws: int = 1000, seed: int = 0) -> CheckReport:
    """Chart Jacobians against Richardson-combined central differences, plus tangency."""
    if draws < 1:
        raise SpecificationError("draws must be at least 1")
    rng = _rng(seed)
    n = spec.dimension
    failures = 0
    worst = 0.0
    for _ in range(draws):
        anchor = _draw_points(rng, n)
        p = _draw_points(rng, n)
        level = prefs.utility(spec, anchor)

        got_phi = geometry.jacobian_phi(spec, anchor, p)
        want_phi = _fd_jacobian(lambda z: prefs.hicksian_demand(spec, z, level), p)
        err_phi = _relative(float(np.max(np.abs(got_phi - want_phi))), float(np.max(np.abs(want_phi))))

        got_psi = geometry.jacobian_psi(spec, anchor, p)
        want_psi = _fd_jacobian(
            lambda z: prefs.normalized_demand(spec, z / float(z @ anchor)), p
        )
        err_psi = _relative(float(np.max(np.abs(got_psi - want_psi))), float(np.max(np.abs(want_psi))))

        support = prefs.inverse_normalized_demand(spec, anchor)
        gap = geometry.jacobian_phi(spec, anchor, support) - geometry.jacobian_psi(spec, anchor, support)
        tangency = float(np.max(np.abs(gap)))

        bad = max(err_phi / _JACOBIAN_RTOL, err_psi / _JACOBIAN_RTOL, tangency / _TANGENCY_TOL)
        worst = max(worst, bad)
        if bad > 1.0:
            failures += 1
    return CheckReport("jacobian", draws, failures, worst, seed)


def weighted_clearing_rates(e: Economy, y: Allocation, weights: FloatArray) -> FloatArray:
    """Rates q with sum_h w_h * direction_h((q,1)) = 0, by damped Newton.

    With unit weights this is a competitive equilibrium of the economy
    re-endowed at ``y``; any positive weights yield a trade-compatible price
    paired with speeds proportional to ``w``.  Direction h is the offer
    chart minus ``y_h``, so the Newton step's Jacobian in log q is the
    analytic one, sum_h w_h * ``geometry.jacobian_psi(u_h, y_h, p)``
    restricted to the first L - 1 goods and scaled by q per column.
    """
    rates = trade.household_rates(e, y)
    v = np.log((weights @ rates) / float(weights.sum()))

    def excess(logq: FloatArray) -> FloatArray:
        return (weights @ trade.all_trade_directions(e, y, np.append(np.exp(logq), 1.0)))[:-1]

    f = excess(v)
    for _ in range(_CLEARING_MAX_ITER):
        norm = float(np.max(np.abs(f)))
        if norm < _CLEARING_TOL:
            return np.exp(v)
        p = np.append(np.exp(v), 1.0)
        jac = sum(
            w * geometry.jacobian_psi(u, b, p)[:-1, :-1] for w, u, b in zip(weights, e.specs, y.bundles)
        ) * p[None, :-1]
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular Jacobian in the clearing solver") from exc
        scale = 1.0
        for _ in range(40):
            trial = v + scale * step
            f_trial = excess(trial)
            if float(np.max(np.abs(f_trial))) < norm:
                v, f = trial, f_trial
                break
            scale *= 0.5
        else:
            raise ConvergenceError("clearing solver stalled")
    raise ConvergenceError("clearing solver exhausted its iteration budget")


def _feasible_price_and_speeds(
    e: Economy, y: Allocation, rng: np.random.Generator
) -> tuple[FloatArray, FloatArray]:
    """A random trade-compatible price with matching feasible speeds."""
    if e.n_goods == 2:
        rates = trade.household_rates(e, y)[:, 0]
        lo, hi = math.atan(rates.min()), math.atan(rates.max())
        width = hi - lo
        q = np.array([math.tan(lo + width * float(rng.uniform(0.05, 0.95)))])
        sigma = trade.sample_speed(
            e, y, np.append(q, 1.0), SpeedPrior.UNIFORM_CUBE, rng
        ).sigma
        return q, sigma
    weights = rng.uniform(0.2, 1.0, e.size)
    q = weighted_clearing_rates(e, y, weights)
    lam = 1.0 - float(rng.random())
    return q, lam * weights / float(weights.max())


def attraction_suite(e: Economy, draws: int = 1000, seed: int = 0) -> CheckReport:
    """Monotone substitution-rate dynamics along random joint linear paths.

    Checks, on a 100-point grid per path: squared rate gaps to the trading
    ratio never increase; the rate extremes move per their case split; the
    box bounds nest when every below-price set starts nonempty; and for 2x2
    economies the trade interval net is non-increasing; every supported
    family is attractive and sharp.  The worst violation is the
    largest increase (or full-speed rate gap) over ``MONOTONE_SLACK``.
    """
    if draws < 1:
        raise SpecificationError("draws must be at least 1")
    rng = _rng(seed)
    ts = np.linspace(0.0, 1.0, _PATH_GRID)
    n = e.n_goods
    failures = 0
    worst = 0.0
    done = 0
    while done < draws:
        y = Allocation(_draw_points(rng, (e.size, n)))
        if trade.is_pareto_optimal(e, y):
            continue
        q, sigma = _feasible_price_and_speeds(e, y, rng)
        if rng.random() < 0.5:
            sigma = sigma / sigma.max()  # exercise the full-speed endpoint claim
        p = np.append(q, 1.0)
        dirs = trade.all_trade_directions(e, y, p)

        # household substitution-rate matrices along the path: (T, H, L, L)
        paths = y.bundles + sigma[:, None] * ts[:, None, None] * dirs  # (T, H, L)
        inv = prefs._guard(trade._each(prefs._inverse_demand, e.specs, paths), "inverse demand")
        ratios = inv[:, :, :, None] / inv[:, :, None, :]  # [t, h, i, j]
        price_ratio = p[:, None] / p[None, :]

        increases = []

        # squared gaps to the trading ratio are non-increasing; at full speed
        # the rates land on it
        increases.append(np.max(np.diff((ratios - price_ratio) ** 2, axis=0)))
        full = np.nonzero(np.abs(sigma - 1.0) < 1e-12)[0]
        if full.size:
            increases.append(np.max(np.abs(ratios[-1, full] - price_ratio)))

        # extreme-rate case split
        m_path = ratios.min(axis=1)  # (T, L, L)
        big_m_path = ratios.max(axis=1)
        below = ratios[0] <= price_ratio[None, :, :]  # (H, L, L)
        above = ratios[0] >= price_ratio[None, :, :]
        has_below = below.any(axis=0)
        has_above = above.any(axis=0)
        dm = np.diff(m_path, axis=0)
        dbm = np.diff(big_m_path, axis=0)
        off_diag = ~np.eye(n, dtype=bool)
        # a household at or below the price ratio: the minimum may not fall (else not
        # rise); one at or above: the maximum may not rise (else not fall)
        sign_m = np.where(has_below, -1.0, 1.0)
        sign_big_m = np.where(has_above, 1.0, -1.0)
        increases += [np.max((sign_m * dm)[:, off_diag]), np.max((sign_big_m * dbm)[:, off_diag])]

        # nested boxes under the below-price condition; the 2x2 interval net
        if has_below[off_diag].all():
            increases += [np.max(-dm[:, off_diag]), np.max(dbm[:, off_diag])]
        if n == 2 and e.size == 2:
            increases += [np.max(-dm[:, 0, 1]), np.max(dbm[:, 0, 1])]

        largest = float(max(increases))
        worst = max(worst, largest / MONOTONE_SLACK)
        if largest > MONOTONE_SLACK:
            failures += 1
        done += 1
    return CheckReport("attraction", draws, failures, worst, seed)


def welfare_suite(cfg: SimConfig, seed: int = 0) -> CheckReport:
    """Convergence-to-Pareto statistic plus the trade-interval cross-check.

    At least 99% of the configured trajectories must push the substitution
    rate gap below 1e-3 within the step budget, and on random allocations
    with a nonempty closed-form trade interval the LP must find trade at the
    interval's angle midpoint.  The worst violation is the non-converged
    share over its 1% bound, or infinite once the LP misses an interval.
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

    rng = _rng(seed)
    for _ in range(1000):
        y = Allocation(_draw_points(rng, (2, 2)))
        interval = trade.trade_interval_2x2(cfg.economy, y)
        if interval is None:
            continue
        mid = math.tan(0.5 * (math.atan(interval[0]) + math.atan(interval[1])))
        if not trade.has_trade(cfg.economy, y, [mid, 1.0]):
            failures += 1
            worst = math.inf
    return CheckReport("welfare", cfg.runs + 1000, failures, worst, seed)


def _bundled_configs() -> dict[str, SimConfig]:
    from .engine import PriorSpec, UniformArc

    cd = UtilitySpec.cobb_douglas_log([0.5, 0.5])
    ces = UtilitySpec.ces([0.5, 0.5], 0.5)
    ces2 = UtilitySpec.ces([0.7, 0.3], 0.5)
    start = Allocation(np.array([[2.0, 1.0], [1.0, 2.0]]))
    prior = PriorSpec(UniformArc(), SpeedPrior.MAX_SPEED)
    return {
        "cobb_douglas": SimConfig(
            Economy.of([cd, cd]), start, prior, master_seed=0, runs=1000, max_steps=200
        ),
        "ces": SimConfig(
            Economy.of([ces, ces2]), start, prior, master_seed=0, runs=1000, max_steps=200
        ),
    }


def run_all(seed: int = 0, name_filter: str | None = None, inject_fault: bool = False) -> list[CheckReport]:
    """All bundled suites, optionally filtered by substring of their name."""
    cd = UtilitySpec.cobb_douglas_log([0.5, 0.5])
    ces = UtilitySpec.ces([0.5, 0.5], 0.5)
    ces3 = UtilitySpec.ces([0.2, 0.5, 0.3], 0.5)
    ces3b = UtilitySpec.ces([0.4, 0.3, 0.3], 0.5)
    scale = 1.01 if inject_fault else 1.0
    configs = _bundled_configs()
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
