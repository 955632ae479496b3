"""Independent numeric oracles used by the tests.

These deliberately avoid the closed forms in the package: demand is recovered
by projected gradient ascent on the budget simplex, Hicksian bundles as a
root of the tangency condition along the utility contour, derivatives by
central finite differences, the extreme-rate box test one good at a time,
CSV files through ``csv.writer`` with each run re-simulated on its own.
Slow and simple on purpose; they guard the analytic and vectorized paths.

The ``reference_*`` closed forms are the per-vector formulas ``prefs`` had
before its stacked core, kept with their float order: the public functions
must reproduce them bit for bit on one vector.  The ``reference_*_suite``
loops are ``verify``'s suites as they ran before they were stacked, one draw
at a time through the public one-vector functions: the stacked suites must
report the same failures and the same worst violation, bit for bit.
``reference_sample_manifold`` is the manifold sampler as it ran before it
was stacked, one grid point at a time through the public functions.
``reference_maximize`` and ``reference_hitrun_sample`` are the probe LP and
the hit-and-run walk as they ran before the walk read its draws in one pass:
one tableau per objective with array ratio tests, and per step one
``standard_normal`` and one ``uniform`` call.  Generic-path runs through
them must give the same bytes as through the package.
``reference_polygon_sample`` draws three-trader speeds at L = 2 by rejection
on the polygon's bounding box, which ``scipy.optimize.linprog`` finds.
``lp_trade`` writes the LP that defines trade out in full and solves it
with ``reference_maximize``, so the screen is held to the definition.
``exact_volume_l2`` is the largest traded volume of the exact speed polytope
at L = 2, summed household by household, with no LP and no slack.
``reference_contract_curve_y12`` and ``reference_walras_rate`` find the 2x2
roots one at a time by Brent's method through the public functions.
``reference_each`` calls a ``prefs`` core once per household, the loop that
``trade._grouped`` replaced by one call per household group.
``table_objects`` reads a run's table back as the states, price rates and
speeds it records, and ``reference_advance`` takes one joint linear step
through the public trade directions, so a recorded path can be replayed.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from edgeworth import _hitrun, _simplex, engine, geometry, prefs, trade, verify
from edgeworth.errors import ConvergenceError, LPError, SamplingError, SpecificationError
from edgeworth.prefs import Family
from edgeworth.trade import Allocation, SpeedPrior, SpeedVector


def numeric_demand(u, p, iters: int = 20000, tol: float = 1e-12) -> np.ndarray:
    """Maximize utility on {c > 0 : p . c = 1} by projected gradient ascent."""
    p = np.asarray(p, dtype=np.float64)
    n = p.size
    c = np.full(n, 1.0 / n) / p
    pp = float(p @ p)
    step = 0.1
    for _ in range(iters):
        g = prefs.gradient(u, c)
        d = g - (float(g @ p) / pp) * p
        if float(np.max(np.abs(d))) < tol:
            break
        trial = step
        base = prefs.utility(u, c)
        while trial > 1e-18:
            cand = c + trial * d
            if np.all(cand > 0) and prefs.utility(u, cand) > base:
                c = cand
                break
            trial *= 0.5
        else:
            break
    # exact budget repair
    return c / float(p @ c)


def numeric_hicksian(u, p, target: float) -> np.ndarray:
    """Minimize p . c on {c > 0 : u(c) = target} over two goods.

    The contour point on the ray at angle theta solves u(r (cos theta,
    sin theta)) = target in log r, and the cheapest one is where the
    gradient is parallel to p: a root in theta of g_1 p_2 - g_2 p_1, which
    runs from negative near the c_1 axis to positive near the c_2 axis.
    Both roots are bracketed, so no step size or stopping rule limits the
    answer: it lands within a few ulps of the closed form away from the axes.
    """
    from scipy.optimize import brentq

    p = np.asarray(p, dtype=np.float64)
    if p.size != 2:
        raise ValueError("numeric_hicksian handles two goods")

    def on_contour(theta: float) -> np.ndarray:
        ray = np.array([math.cos(theta), math.sin(theta)])
        log_r = brentq(lambda s: prefs.utility(u, math.exp(s) * ray) - target, -50.0, 50.0, xtol=1e-15)
        return math.exp(log_r) * ray

    def tilt(theta: float) -> float:
        g = prefs.gradient(u, on_contour(theta))
        return float(g[0] * p[1] - g[1] * p[0])

    return on_contour(brentq(tilt, 1e-9, 0.5 * math.pi - 1e-9, xtol=1e-15))


def reference_gradient(u, c) -> np.ndarray:
    """Per-vector utility gradient; a level exponent B enters through exp(B v)."""
    c = np.asarray(c, dtype=np.float64)
    if u.family is Family.COBB_DOUGLAS_LOG:
        if u.exponent is not None:
            return math.exp(u.exponent * float(u.weights @ np.log(c))) * u.exponent * (u.weights / c)
        return u.weights / c
    sig = u.elasticity
    s = float(u.weights @ c**sig)
    return s ** (1.0 / sig - 1.0) * u.weights * c ** (sig - 1.0)


def reference_normalized_demand(u, p) -> np.ndarray:
    """Per-vector Walrasian demand at unit wealth."""
    p = np.asarray(p, dtype=np.float64)
    if u.family is Family.COBB_DOUGLAS_LOG:
        return u.weights / p
    eta = 1.0 / (1.0 - u.elasticity)
    w_eta = u.weights**eta
    g = w_eta * p**-eta
    return g / float(w_eta @ p ** (1.0 - eta))


def reference_inverse_normalized_demand(u, c) -> np.ndarray:
    """Per-vector inverse demand, grad u / (grad u . c)."""
    g = reference_gradient(u, c)
    return g / float(g @ np.asarray(c, dtype=np.float64))


def reference_substitution_rates(u, c) -> np.ndarray:
    """Per-vector substitution rates against the last good."""
    g = reference_gradient(u, c)
    return g[:-1] / g[-1]


def reference_each(core, specs, bundles: np.ndarray, *args) -> np.ndarray:
    """``core(u_h, b_h, *args)`` for each household h of an ``(..., H, L)`` stack, on axis -2."""
    rows = [core(u, bundles[..., h, :], *args)[..., None, :] for h, u in enumerate(specs)]
    return np.concatenate(rows, axis=-2)


def table_objects(table: np.ndarray, economy) -> tuple[list[Allocation], list[np.ndarray], list[SpeedVector]]:
    """A run table's states, and the price rates (L - 1) and speeds drawn between them.

    Rows are laid out as ``OutcomeDistribution.trace``: run, step, q, sigma
    and the bundles; the start row's rates and speeds are NaN and are skipped.
    """
    h, l = economy.size, economy.n_goods
    states = [Allocation(b.reshape(h, l)) for b in table[:, l + 1 + h :]]
    prices = list(table[1:, 2 : l + 1])
    speeds = [SpeedVector(s) for s in table[1:, l + 1 : l + 1 + h]]
    return states, prices, speeds


def reference_advance(economy, y: Allocation, p, sigma: SpeedVector) -> Allocation:
    """End state of the joint linear path at prices ``p``: household h moves t = sigma_h."""
    return trade._advance(y, trade.all_trade_directions(economy, y, p), sigma)


def fd_gradient(f, x, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with per-coordinate relative steps."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for k in range(x.size):
        h = rel_step * max(abs(x[k]), 1e-3)
        hi = x.copy()
        lo = x.copy()
        hi[k] += h
        lo[k] -= h
        out[k] = (f(hi) - f(lo)) / (2 * h)
    return out


def fd_jacobian(f, x, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued function (rows = outputs)."""
    x = np.asarray(x, dtype=np.float64)
    f0 = np.asarray(f(x), dtype=np.float64)
    out = np.empty((f0.size, x.size))
    for k in range(x.size):
        h = rel_step * max(abs(x[k]), 1e-3)
        hi = x.copy()
        lo = x.copy()
        hi[k] += h
        lo[k] -= h
        out[:, k] = (np.asarray(f(hi)) - np.asarray(f(lo))) / (2 * h)
    return out


def fd_hessian(f, x, rel_step: float = 1e-5) -> np.ndarray:
    """Hessian via central differences of a central-difference gradient."""
    h = fd_jacobian(lambda z: fd_gradient(f, z, rel_step), x, rel_step)
    return 0.5 * (h + h.T)


def log_uniform(rng: np.random.Generator, size, lo: float = 0.1, hi: float = 10.0) -> np.ndarray:
    """Draws spanning two decades around 1, the desk-scale test regime."""
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))


def clearing_price(economy, allocation, weights=None) -> np.ndarray:
    """Rates q solving the weighted market-clearing system, via scipy.

    With unit weights this is a competitive equilibrium price for the
    economy re-endowed at ``allocation``; any positive weight vector yields
    a member of the trade-compatible price set.
    """
    from scipy.optimize import root

    h = allocation.bundles.shape[0]
    w = np.ones(h) if weights is None else np.asarray(weights, dtype=np.float64)
    rates = np.stack(
        [
            prefs.substitution_rates(u, b)
            for u, b in zip(economy.specs, allocation.bundles)
        ]
    )
    start = np.log((w @ rates) / w.sum())

    def excess(v: np.ndarray) -> np.ndarray:
        p = np.append(np.exp(v), 1.0)
        total = np.zeros_like(p)
        for wh, u, b in zip(w, economy.specs, allocation.bundles):
            total += wh * (prefs.normalized_demand(u, p / float(p @ b)) - b)
        return total[:-1]

    sol = root(excess, start, tol=1e-13)
    if not sol.success or float(np.max(np.abs(excess(sol.x)))) > 1e-10:
        raise RuntimeError(f"clearing-price oracle failed: {sol.message}")
    return np.exp(sol.x)


def _brent(f, lo: float, hi: float) -> float:
    """Brent's root of ``f`` on ``[lo, hi]``, stopped at scipy's finest relative tolerance, 4 eps."""
    from scipy.optimize import brentq

    return brentq(f, lo, hi, xtol=1e-300, rtol=4 * np.finfo(np.float64).eps, maxiter=500)


def log_rates_2x2(specs, aggregate, y11: float, y12: float) -> tuple[float, float]:
    """Both households' log substitution rates when household 1 holds (y11, y12) of the aggregate."""
    first = np.array([y11, y12])
    r1 = prefs.substitution_rates(specs[0], first)[0]
    r2 = prefs.substitution_rates(specs[1], np.asarray(aggregate, dtype=np.float64) - first)[0]
    return math.log(r1), math.log(r2)


def reference_contract_curve_y12(specs, aggregate, grid_size: int) -> np.ndarray:
    """Household 1's second coordinate at each of ``contract_curve_2x2``'s grid points, by Brent's method.

    One root per point of the log rate mismatch, through the public
    one-vector ``substitution_rates``, on the same box-wide bracket.
    """
    aggregate = np.asarray(aggregate, dtype=np.float64)
    eps = 1e-12 * float(aggregate[1])
    roots = []
    for k in range(1, grid_size + 1):
        y11 = aggregate[0] * k / (grid_size + 1)

        def mismatch(y12: float) -> float:
            return np.subtract(*log_rates_2x2(specs, aggregate, y11, y12))

        roots.append(_brent(mismatch, eps, aggregate[1] - eps))
    return np.array(roots)


def excess_demand_2x2(specs, endowments, q: float) -> float:
    """Aggregate excess demand for good 1 at rates ``(q, 1)``, through the public ``normalized_demand``."""
    p = np.array([q, 1.0])
    total = sum(prefs.normalized_demand(u, p / float(p @ b))[0] for u, b in zip(specs, endowments.bundles))
    return float(total - endowments.aggregate[0])


def reference_walras_rate(specs, endowments) -> float:
    """``walras_equilibrium_2x2``'s clearing rate by Brent's method on the extreme-rate bracket."""
    rates = [prefs.substitution_rates(u, b)[0] for u, b in zip(specs, endowments.bundles)]
    return _brent(lambda q: excess_demand_2x2(specs, endowments, q), min(rates), max(rates))


def lp_trade(economy, allocation, p) -> bool:
    """The trade LP itself on the directions at ``p``, with no screen in front of it.

    Over the households whose direction is at least 1e-12 long, maximize the
    traded volume s . |d| for speeds s in the unit cube whose aggregate
    s . d / scale lies within 1e-11 of zero on each coordinate, where scale
    is the longest direction (at least 1); trade exists iff the optimum
    exceeds 1e-9 times the scale.
    """
    dirs = trade.all_trade_directions(economy, allocation, p)
    norms = np.linalg.norm(dirs, axis=1)
    active = norms >= 1e-12
    if np.count_nonzero(active) < 2:
        return False
    scale = max(1.0, float(norms[active].max()))
    cancel = dirs[active].T / scale
    G = np.vstack([cancel, -cancel, np.eye(cancel.shape[1])])
    h = np.concatenate([np.full(2 * cancel.shape[0], 1e-11), np.ones(cancel.shape[1])])
    _, value = reference_maximize(norms[active], G, h)
    return value > 1e-9 * scale


def exact_volume_l2(economy, allocation, p) -> tuple[float, float]:
    """The largest volume that cancelling speeds can move at L = 2, and the decision threshold.

    Every direction lies on the line orthogonal to the prices; speeds in the
    unit cube cancel when the lengths they move on the two sides balance, so
    at most twice the shorter side's summed length moves.  A side is the sign
    of a direction's first coordinate.  Trade exists iff the volume exceeds
    the threshold, 1e-9 times the longest active direction (at least 1).
    """
    up = down = 0.0
    longest = 1.0
    for d in trade.all_trade_directions(economy, allocation, p):
        n = float(np.linalg.norm(d))
        if n < trade.DEGENERATE_DIRECTION:
            continue
        if math.copysign(1.0, float(d[0])) > 0.0:
            up += n
        else:
            down += n
        longest = max(longest, n)
    return 2.0 * min(up, down), 1e-9 * longest


def box_contains(box, q) -> bool:
    """Reference box test for one rate vector: the rate sandwich one good at a time."""
    p = np.append(np.asarray(q, dtype=np.float64), 1.0)
    n = p.size
    for i in range(n):
        others = np.delete(np.arange(n), i)
        lo = float(np.min(p[others] * box.lower_rates[i, others]))
        hi = float(np.max(p[others] * box.upper_rates[i, others]))
        if not lo * (1.0 - 1e-12) <= p[i] <= hi * (1.0 + 1e-12):
            return False
    return True


def _fmt(x) -> str:
    return repr(float(x))


def write_outcomes_csv(path, dist, economy) -> None:
    """``outcomes.csv`` through ``csv.writer``, one cell at a time."""
    h, l = economy.size, economy.n_goods
    header = (
        ["run"]
        + [f"q_{i + 1}" for i in range(l - 1)]
        + [f"h{i + 1}_g{j + 1}" for i in range(h) for j in range(l)]
        + ["steps", "terminal"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in range(dist.runs):
            row = [str(r)]
            row += [_fmt(v) for v in dist.terminal_qs[r]]
            row += [_fmt(v) for v in dist.samples[r].reshape(-1)]
            row += [str(int(dist.steps[r])), dist.terminal_tags[r].value]
            writer.writerow(row)


def write_trajectories_csv(path, cfg) -> None:
    """``trajectories.csv`` through ``csv.writer``, each run re-simulated alone."""
    h, l = cfg.economy.size, cfg.economy.n_goods
    header = (
        ["run", "step"]
        + [f"q_{i + 1}" for i in range(l - 1)]
        + [f"sigma_{i + 1}" for i in range(h)]
        + [f"h{i + 1}_g{j + 1}" for i in range(h) for j in range(l)]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in range(cfg.runs):
            states, prices, speeds = table_objects(engine.run_trajectory(cfg, r).table, cfg.economy)
            for k, state in enumerate(states):
                row = [str(r), str(k)]
                row += [_fmt(v) for v in prices[k - 1]] if k else [""] * (l - 1)
                row += [_fmt(v) for v in speeds[k - 1].sigma] if k else [""] * h
                row += [_fmt(v) for v in state.bundles.reshape(-1)]
                writer.writerow(row)


def write_example3_csv(path, runs: int, seed: int) -> None:
    """``example3.csv`` through ``csv.writer``, one cell at a time."""
    dist = engine.example3_process(engine.run_rng(seed, 0), runs)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "value", "empirical_mass", "exact_mass"])
        for j in range(1, int(dist.steps.max()) + 1):
            empirical = float(np.mean(dist.steps == j))
            writer.writerow([str(j), _fmt(engine.example3_ladder_value(j)), _fmt(empirical), _fmt(2.0**-j)])


def _defining_residual(u, kind, anchor, y) -> float:
    if kind is geometry.ManifoldKind.INDIFFERENCE:
        level = prefs.utility(u, anchor)
        return abs(prefs.utility(u, y) - level) / max(1.0, abs(level))
    if kind is geometry.ManifoldKind.OFFER:
        return abs(float(prefs.inverse_normalized_demand(u, y) @ anchor) - 1.0)
    return abs(float(prefs.inverse_normalized_demand(u, anchor) @ y) - 1.0)


def reference_sample_manifold(u, kind, anchor, q_grid) -> list[np.ndarray]:
    """``geometry.sample_manifold``'s points, one grid entry at a time through the public functions."""
    kind = geometry.ManifoldKind(kind)
    anchor = prefs.as_bundle(anchor, u.dimension)
    points = []
    for entry in q_grid:
        g = np.atleast_1d(np.asarray(entry, dtype=np.float64))
        if g.size != u.dimension - 1 or np.any(g <= 0.0):
            raise SpecificationError("grid entries must be positive vectors of length L - 1")
        if kind is geometry.ManifoldKind.INDIFFERENCE:
            y = prefs.hicksian_demand(u, np.append(g, 1.0), prefs.utility(u, anchor))
        elif kind is geometry.ManifoldKind.OFFER:
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
    return points


def write_manifold_csv(path, spec, kind, anchor, axis) -> None:
    """``manifold.csv`` through ``csv.writer`` over the rate grid ``axis`` per good."""
    l = spec.dimension
    mesh = np.meshgrid(*([axis] * (l - 1)), indexing="ij")
    grid = [np.array(point) for point in zip(*(m.reshape(-1) for m in mesh))]
    points = reference_sample_manifold(spec, kind, anchor, grid)
    header = (
        ["kind"]
        + [f"anchor_{j + 1}" for j in range(l)]
        + [f"y_{j + 1}" for j in range(l)]
        + [f"p_{j + 1}" for j in range(l)]
        + [f"q_{j + 1}" for j in range(l - 1)]
        + ["u"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for y in points:
            p = prefs.inverse_normalized_demand(spec, y)
            fp = geometry.flatten(spec, y)
            writer.writerow([kind.value] + [_fmt(v) for v in (*anchor, *y, *p, *fp.q, fp.u)])


def _relative(residual: float, scale: float) -> float:
    return abs(residual) / max(1.0, abs(scale))


def reference_identity_suite(spec, draws: int, seed: int, demand_scale: float = 1.0) -> tuple[int, float]:
    """``verify.identity_suite`` one draw at a time: (failures, worst)."""
    rng = engine.run_rng(seed, 0)
    n = spec.dimension
    signed = prefs.utility_in_range(spec, -1.0)
    failures, worst = 0, 0.0

    def demand(p):
        return demand_scale * prefs.normalized_demand(spec, p)

    for _ in range(draws):
        p = verify._draw_points(rng, n)
        c = verify._draw_points(rng, n)
        u0 = float(rng.uniform(-2.0, 2.0)) if signed else float(np.exp(rng.uniform(math.log(0.2), math.log(5.0))))
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
        fp = geometry.FlatPoint(verify._draw_points(rng, n - 1), u0)
        scale_x = float(np.max(np.abs(x)))
        back = geometry.d_inverse(spec, geometry.d_map(spec, fp))
        p2 = geometry.d_map(spec, geometry.d_inverse(spec, p))
        bad = max(
            _relative(float(p @ x) - 1.0, 1.0),
            _relative(float(np.max(np.abs(p @ jac + x))), scale_x),
            _relative(float(np.max(np.abs(grad_v + lam * x))), float(np.max(np.abs(grad_v)))),
            _relative(float(grad_v @ p) + lam, lam),
            _relative(float(np.max(np.abs(hx - x))), scale_x),
            _relative(float(np.max(np.abs(h0 - demand(p / e0)))), float(np.max(np.abs(h0)))),
            _relative(prefs.expenditure(spec, p, v) - 1.0, 1.0),
            _relative(float(np.max(np.abs(demand(prefs.inverse_normalized_demand(spec, c)) - c))), float(np.max(c))),
            _relative(float(np.max(np.abs(prefs.inverse_normalized_demand(spec, demand(p)) - p))), float(np.max(p))),
            _relative(float(np.max(np.abs(back.q - fp.q))), float(np.max(fp.q))),
            _relative(back.u - fp.u, fp.u),
            _relative(float(np.max(np.abs(p2 - p))), float(np.max(p))),
        )
        worst = max(worst, bad)
        failures += bad > verify._IDENTITY_THRESHOLD
    return failures, worst


def _reference_fd_jacobian(f, x):
    def central(k, rel):
        step = np.zeros_like(x)
        step[k] = rel * x[k]
        return (f(x + step) - f(x - step)) / (2.0 * step[k])

    return np.stack([(4.0 * central(k, 5e-4) - central(k, 1e-3)) / 3.0 for k in range(x.size)], axis=1)


def reference_jacobian_suite(spec, draws: int, seed: int) -> tuple[int, float]:
    """``verify.jacobian_suite`` one draw at a time: (failures, worst)."""
    rng = engine.run_rng(seed, 0)
    n = spec.dimension
    failures, worst = 0, 0.0
    for _ in range(draws):
        anchor = verify._draw_points(rng, n)
        p = verify._draw_points(rng, n)
        level = prefs.utility(spec, anchor)
        want_phi = _reference_fd_jacobian(lambda z: prefs.hicksian_demand(spec, z, level), p)
        got_phi = geometry.jacobian_phi(spec, anchor, p)
        err_phi = _relative(float(np.max(np.abs(got_phi - want_phi))), float(np.max(np.abs(want_phi))))
        want_psi = _reference_fd_jacobian(lambda z: prefs.normalized_demand(spec, z / float(z @ anchor)), p)
        got_psi = geometry.jacobian_psi(spec, anchor, p)
        err_psi = _relative(float(np.max(np.abs(got_psi - want_psi))), float(np.max(np.abs(want_psi))))
        support = prefs.inverse_normalized_demand(spec, anchor)
        gap = geometry.jacobian_phi(spec, anchor, support) - geometry.jacobian_psi(spec, anchor, support)
        bad = max(err_phi / verify._JACOBIAN_RTOL, err_psi / verify._JACOBIAN_RTOL, float(np.max(np.abs(gap))) / verify._TANGENCY_TOL)
        worst = max(worst, bad)
        failures += bad > 1.0
    return failures, worst


def reference_clearing_rates(e, y, weights) -> np.ndarray:
    """``verify.weighted_clearing_rates`` for one state: damped Newton in log q."""
    rates = trade.household_rates(e, y)
    v = np.log((weights @ rates) / float(weights.sum()))

    def excess(logq):
        return (weights @ trade.all_trade_directions(e, y, np.append(np.exp(logq), 1.0)))[:-1]

    f = excess(v)
    for _ in range(200):
        norm = float(np.max(np.abs(f)))
        if norm < 1e-11:
            return np.exp(v)
        p = np.append(np.exp(v), 1.0)
        jac = sum(
            w * geometry.jacobian_psi(u, b, p)[:-1, :-1] for w, u, b in zip(weights, e.specs, y.bundles)
        ) * p[None, :-1]
        step = np.linalg.solve(jac, -f)
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


def reference_attraction_suite(e, draws: int, seed: int) -> tuple[int, float]:
    """``verify.attraction_suite`` one draw at a time: (failures, worst)."""
    rng = engine.run_rng(seed, 0)
    ts = np.linspace(0.0, 1.0, verify._PATH_GRID)
    n = e.n_goods
    off_diag = ~np.eye(n, dtype=bool)
    failures, worst, done = 0, 0.0, 0
    while done < draws:
        y = Allocation(verify._draw_points(rng, (e.size, n)))
        if trade.is_pareto_optimal(e, y):
            continue
        if n == 2:
            rates = trade.household_rates(e, y)[:, 0]
            lo, hi = math.atan(rates.min()), math.atan(rates.max())
            q = np.array([math.tan(lo + (hi - lo) * float(rng.uniform(0.05, 0.95)))])
            sigma = trade.sample_speed(e, y, np.append(q, 1.0), SpeedPrior.UNIFORM_CUBE, rng).sigma
        else:
            weights = rng.uniform(0.2, 1.0, e.size)
            q = reference_clearing_rates(e, y, weights)
            sigma = (1.0 - float(rng.random())) * weights / float(weights.max())
        if rng.random() < 0.5:
            sigma = sigma / sigma.max()
        p = np.append(q, 1.0)
        dirs = trade.all_trade_directions(e, y, p)
        paths = y.bundles + sigma[:, None] * ts[:, None, None] * dirs
        inv = reference_each(prefs._inverse_demand, e.specs, paths)
        ratios = inv[:, :, :, None] / inv[:, :, None, :]
        price_ratio = p[:, None] / p[None, :]
        increases = [np.max(np.diff((ratios - price_ratio) ** 2, axis=0))]
        full = np.nonzero(np.abs(sigma - 1.0) < 1e-12)[0]
        if full.size:
            increases.append(np.max(np.abs(ratios[-1, full] - price_ratio)))
        m_path, big_m_path = ratios.min(axis=1), ratios.max(axis=1)
        has_below = (ratios[0] <= price_ratio[None]).any(axis=0)
        has_above = (ratios[0] >= price_ratio[None]).any(axis=0)
        dm, dbm = np.diff(m_path, axis=0), np.diff(big_m_path, axis=0)
        sign_m = np.where(has_below, -1.0, 1.0)
        sign_big_m = np.where(has_above, 1.0, -1.0)
        increases += [np.max((sign_m * dm)[:, off_diag]), np.max((sign_big_m * dbm)[:, off_diag])]
        if has_below[off_diag].all():
            increases += [np.max(-dm[:, off_diag]), np.max(dbm[:, off_diag])]
        if n == 2 and e.size == 2:
            increases += [np.max(-dm[:, 0, 1]), np.max(dbm[:, 0, 1])]
        largest = float(max(increases))
        worst = max(worst, largest / verify.MONOTONE_SLACK)
        failures += largest > verify.MONOTONE_SLACK
        done += 1
    return failures, worst


def reference_maximize(c, G, h) -> tuple[np.ndarray, float]:
    """``_simplex.maximize`` for one objective, its ratio test on arrays."""
    c, G, h = (np.asarray(a, dtype=np.float64) for a in (c, np.atleast_2d(G), h))
    m, n = G.shape
    if c.size != n or h.size != m:
        raise LPError("inconsistent LP dimensions")
    if np.any(h < 0):
        raise LPError("rhs must be nonnegative (origin must be feasible)")
    T = np.hstack([G, np.eye(m), h[:, None]])
    z = np.concatenate([c, np.zeros(m)])
    basis = np.arange(n, n + m)
    for _ in range(_simplex._MAX_ITER):
        candidates = np.nonzero(z - z[basis] @ T[:, : n + m] > _simplex._ENTER_TOL)[0]
        if candidates.size == 0:
            x = np.zeros(n + m)
            x[basis] = np.maximum(T[:, -1], 0.0)
            return x[:n], float(c @ x[:n])
        enter = int(candidates[0])
        rows = np.nonzero(T[:, enter] > _simplex._PIVOT_TOL)[0]
        if rows.size == 0:
            raise LPError("LP unbounded; the trade polytope should be boxed")
        ratios = T[rows, -1] / T[rows, enter]
        ties = rows[ratios <= ratios.min() + 1e-15]
        leave = int(ties[np.argmin(basis[ties])])
        T[leave] /= T[leave, enter]
        factors = T[:, enter].copy()
        factors[leave] = 0.0
        T -= np.outer(factors, T[leave])
        basis[leave] = enter
    raise LPError(f"simplex did not terminate within {_simplex._MAX_ITER} pivots")


def reference_hitrun_sample(directions, norms, rng) -> np.ndarray:
    """``_hitrun.sample`` one probe LP and one walk step at a time."""
    null_basis = _hitrun._null_space(directions.T, directions.shape[1] - 1)
    if null_basis.shape[1] == 0:
        raise SamplingError("trade-speed polytope has empty interior")
    G, h = _hitrun.polytope(directions)
    vertices = [reference_maximize(norms, G, h)[0]]
    probe = np.random.default_rng(0)
    for _ in range(null_basis.shape[1] + 1):
        obj = null_basis @ probe.standard_normal(null_basis.shape[1])
        vertices += [reference_maximize(obj, G, h)[0], reference_maximize(-obj, G, h)[0]]
    x = np.mean(vertices, axis=0)
    x = np.clip(null_basis @ (null_basis.T @ x), 0.0, 1.0)
    _, sv, vt = np.linalg.svd((np.stack(vertices) - x) @ null_basis, full_matrices=False)
    keep = sv > _hitrun._POINT_EXTENT
    if not np.any(keep):
        return x
    hull = null_basis @ vt[keep].T
    for _ in range(_hitrun._BURN_IN):
        u = hull @ rng.standard_normal(hull.shape[1])
        u /= float(np.linalg.norm(u))
        lo, hi = _hitrun._chord(x.tolist(), u.tolist())
        if not hi - lo > 2.0 * _hitrun._CLEARANCE:
            raise SamplingError(f"hit-and-run stalled: chord {hi - lo!r} within the clearance")
        t = rng.uniform(lo + _hitrun._CLEARANCE, hi - _hitrun._CLEARANCE)
        x = np.minimum(np.maximum(x + t * u, 0.0), 1.0)
    return x


def reference_polygon_sample(lengths, s_prior, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` speed draws from {s in [0, 1]^3 : a . s = 0} for signed lengths a, by rejection.

    The two speeds other than the one with the longest |a| chart the polygon
    linearly, so uniform proposals on their bounding box, kept where the third
    speed lands in [0, 1], are uniform on the polygon.  Each speed's range is
    an LP.  The max-speed prior divides each draw by its largest speed.
    """
    from scipy.optimize import linprog

    a = np.asarray(lengths, dtype=np.float64)
    top = [
        -linprog(-np.eye(3)[h], A_eq=a[None, :], b_eq=[0.0], bounds=[(0.0, 1.0)] * 3).fun
        for h in range(3)
    ]
    o = int(np.argmax(np.abs(a)))
    j, k = (h for h in range(3) if h != o)
    kept = np.empty((0, 3))
    while len(kept) < n:
        s = np.zeros((4 * n, 3))
        s[:, j], s[:, k] = rng.uniform(0.0, top[j], 4 * n), rng.uniform(0.0, top[k], 4 * n)
        s[:, o] = -(a[j] * s[:, j] + a[k] * s[:, k]) / a[o]
        kept = np.concatenate([kept, s[(s[:, o] >= 0.0) & (s[:, o] <= 1.0)]])
    kept = kept[:n]
    if SpeedPrior(s_prior) is SpeedPrior.MAX_SPEED:
        kept /= kept.max(axis=1, keepdims=True)
    return kept
