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
``reference_polygon_speeds`` is the three-trader polygon draw at L = 2 with
its vertices sorted around their centroid and fanned by the formula of its
own (``reference_fan``), as it ran before it shared ``trade._polygon`` with
every polygon the vertex enumeration finds: the shared draw must reproduce it
bit for bit.  ``reference_polygon_sample`` draws three-trader speeds at L = 2
by rejection on the polygon's bounding box, which ``scipy.optimize.linprog``
finds, and ``reference_polytope_sample`` draws speeds at any L the same way
in an orthonormal chart of the null space.  ``reference_rejection_draw``
rebuilds the package's own rejection draw from three dimensions on, its chart
from ``scipy.linalg.null_space`` and its box from ``exact_speed_vertices``,
and returns the first of given proposals that lands in the polytope.
``exact_speed_vertices`` enumerates the speed polytope's vertices in
``fractions.Fraction`` on the float directions, and ``exact_trade_volume``
takes the largest traded volume over them, so the screen is held to the
definition with no rounding of its own; ``rank_within_rounding`` marks the
prices where rounding decides that definition's rank.
``exact_volume_l2`` is the largest traded volume of the exact speed polytope
at L = 2, summed household by household, with no LP and no slack.
``reference_contract_curve_y12`` and ``reference_walras_rate`` find the 2x2
roots one at a time by Brent's method through the public functions.
``reference_each`` calls a ``prefs`` core once per household, the loop that
``trade._grouped`` replaced by one call per household group.
``golden`` names the golden file of exact bits for the SIMD target numpy
dispatches to on this host.
``table_objects`` reads a run's table back as the states, price rates and
speeds it records, and ``reference_advance`` takes one joint linear step
through the public trade directions, so a recorded path can be replayed.
``reference_sntp_step`` is the generic step as it ran before every economy
shared one epoch: the tabulated atom in the public rate box
(``box_contains`` of ``msr_extremes``) screened by ``trade._screen``, which
keeps the vertices it finds, and picked by the inverse CDF; the directions
rebuilt through the public ``all_trade_directions``, with only a zero
direction idle; the opposition of two traders read from their cosine and the
ray by hand; the closed-form polygon of three traders at L = 2, and the
package's vertex draw ``trade._polytope_speeds`` on every other polytope, from
the screen's vertices where it found them, reading the stream as the step
does.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from edgeworth import engine, geometry, prefs, trade, verify
from edgeworth.errors import ConvergenceError, SamplingError, SpecificationError
from edgeworth.prefs import Family
from edgeworth.trade import Allocation, SpeedPrior


def golden(name: str) -> Path:
    """The golden file ``data/<name>.txt`` where numpy dispatches to AVX-512 (its ``AVX512_SKX``
    target), else ``data/<name>_avx2.txt``: the two targets' SIMD loops round some
    transcendental functions differently, so a golden of exact bits holds on one of them."""
    from numpy._core._multiarray_umath import __cpu_features__

    return Path(__file__).parent / "data" / f"{name}{'' if __cpu_features__['AVX512_SKX'] else '_avx2'}.txt"


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


def table_objects(table: np.ndarray, economy) -> tuple[list[Allocation], list[np.ndarray], list[np.ndarray]]:
    """A run table's states, and the price rates (L - 1) and speeds drawn between them.

    Rows are laid out as ``OutcomeDistribution.trace``: run, step, q, sigma
    and the bundles; the start row's rates and speeds are NaN and are skipped.
    """
    h, l = economy.size, economy.n_goods
    states = [Allocation(b.reshape(h, l)) for b in table[:, l + 1 + h :]]
    prices = list(table[1:, 2 : l + 1])
    speeds = list(table[1:, l + 1 : l + 1 + h])
    return states, prices, speeds


def reference_advance(economy, y: Allocation, p, sigma: np.ndarray) -> Allocation:
    """End state of the joint linear path at prices ``p``: household h moves t = sigma_h."""
    return _advance(y, trade.all_trade_directions(economy, y, p), sigma)


def _advance(y: Allocation, dirs: np.ndarray, sigma: np.ndarray) -> Allocation:
    """End state of the joint linear path along ``dirs``, its new bundles guarded as the step guards them."""
    return Allocation(prefs._guard(y.bundles + sigma[:, None] * dirs, "bundles"))


def reference_sntp_step(e, y: Allocation, prior, rng: np.random.Generator):
    """``engine.sntp_step`` at the default stop tolerance, composed of the public pieces it took
    before every economy shared one epoch; only a zero direction is idle."""
    rates = trade.household_rates(e, y)
    if trade._pareto(rates, trade.PARETO_TOL):
        return None
    q_prior, vertices = prior.q_prior, None
    if isinstance(q_prior, engine.Tabulated):
        in_box = trade.box_contains(trade.msr_extremes(e, y), q_prior.grid)
        weights = np.where(in_box, q_prior.densities, 0.0)
        candidates = np.flatnonzero(weights > 0.0)
        found = []
        if candidates.size:
            prices = np.concatenate([q_prior.grid[candidates], np.ones((candidates.size, 1))], axis=1)
            weights[candidates[~trade._screen(e, y.bundles, prices, found)]] = 0.0
        total = float(weights.sum())
        if total <= 0.0:
            raise SamplingError("the price prior assigns zero mass to the trade-compatible set")
        cdf = np.cumsum(weights) / total
        idx = int(np.searchsorted(cdf, float(rng.random()), side="right"))
        if idx == cdf.size:  # rounding left the uniform above the CDF: the atom of its last rise
            idx = int(np.searchsorted(cdf, cdf[-1]))
        q = np.array(q_prior.grid[idx])
        vertices = trade._row_vertices(found, int(np.searchsorted(candidates, idx)))
    else:
        q = engine._draw_rate(q_prior, rates.min(axis=0), rates.max(axis=0), lambda sub: rng.random(1))
    p = np.append(q, 1.0)
    dirs = trade.all_trade_directions(e, y, p)
    norms = np.linalg.norm(dirs, axis=1)
    idx = np.flatnonzero(norms > 0.0)
    if idx.size < 2:
        raise SamplingError("fewer than two households can trade at these prices")
    sigma = np.zeros(e.size)
    max_speed = prior.s_prior is SpeedPrior.MAX_SPEED
    if idx.size == 2:
        i, j = idx
        if float(dirs[i] @ dirs[j]) / (norms[i] * norms[j]) > -1.0 + 1e-9:
            raise SamplingError("two-trader directions are not opposed; no feasible speeds")
        ratio = norms[i] / norms[j]
        scale = 1.0 if max_speed else 1.0 - rng.random()
        sigma[i], sigma[j] = scale * min(1.0 / ratio, 1.0), scale * min(ratio, 1.0)
    else:
        if e.size == 3 and e.n_goods == 2:
            point = trade._polygon_speeds(np.copysign(norms, dirs[:, 0]), rng.random(3))
        else:  # the polytope of the active traders, by the vertices the screen found or by its own
            if vertices is None:
                ((_, vertices, ok),) = trade._vertices(trade._projected(dirs[idx], p)[None])
                vertices = vertices[:, ok[:, 0], 0].T
            else:
                vertices = vertices[:, idx]
            point = trade._polytope_speeds(vertices, rng.random)
        if max_speed:
            if point.max() < 1e-6:
                raise SamplingError("max-speed draw peaks below 1e-06")
            point = point / point.max()
        sigma[idx] = point
    if not (np.linalg.norm(sigma @ dirs) <= 1e-9 * max(1.0, norms.max()) and sigma @ norms > 1e-12):
        raise SamplingError("speed draw fails cancel-and-move")
    return _advance(y, dirs, sigma), q, sigma


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


def _int_det(m: list[list[int]]) -> int:
    """The determinant of a square integer matrix, by Laplace expansion along its first row."""
    if len(m) <= 1:
        return m[0][0] if m else 1
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum((-1) ** j * a * _int_det([row[:j] + row[j + 1 :] for row in m[1:]]) for j, a in enumerate(m[0]) if a)


def _independent_rows(rows: list[list[int]]) -> list[list[int]]:
    """A maximal set of linearly independent integer rows, by exact elimination."""
    kept, echelon = [], []
    for row in rows:
        r = [Fraction(a) for a in row]
        for e, c in echelon:
            if r[c]:
                f = r[c] / e[c]
                r = [a - f * b for a, b in zip(r, e)]
        c = next((j for j, a in enumerate(r) if a), None)
        if c is not None:
            echelon.append((r, c))
            kept.append(row)
    return kept


def exact_speed_vertices(dirs, p) -> list[list[Fraction]]:
    """The vertices of {s in [0, 1]^H : sum_h s_h d_h = 0} in exact arithmetic on the float directions.

    Each direction loses its part along the float prices exactly, which
    Walras' law makes a rounding: (p . p) d - (p . d) p, in integers once
    every float is scaled by the largest power of two among their
    denominators.  Then all but r = rank speeds sit at 0 or 1 and the other
    r solve r independent rows by Cramer's rule in integers.  A vertex can
    come from several such choices and is listed once.
    """
    d = [[Fraction(float(x)) for x in row] for row in dirs]
    pf = [Fraction(float(x)) for x in p]
    scale = max(x.denominator for x in [*pf, *(x for row in d for x in row)])
    d = [[int(x * scale) for x in row] for row in d]
    pf = [int(x * scale) for x in pf]
    pp = sum(x * x for x in pf)
    cols = [[pp * a - sum(u * v for u, v in zip(row, pf)) * b for a, b in zip(row, pf)] for row in d]
    h = len(cols)
    rows = _independent_rows([[c[i] for c in cols] for i in range(len(pf))])
    r = len(rows)
    found = []
    for solved in itertools.combinations(range(h), r):
        rest = [k for k in range(h) if k not in solved]
        m = [[row[k] for k in solved] for row in rows]
        det = _int_det(m)
        if not det:
            continue
        for bounds in itertools.product((0, 1), repeat=len(rest)):
            rhs = [-sum(row[k] * b for k, b in zip(rest, bounds)) for row in rows]
            num = [_int_det([row[:i] + [b] + row[i + 1 :] for row, b in zip(m, rhs)]) for i in range(r)]
            if not all(0 <= x * det <= det * det for x in num):  # each num / det in [0, 1]
                continue
            v = [Fraction(0)] * h
            for k, x in zip(solved, num):
                v[k] = Fraction(x, det)
            for k, b in zip(rest, bounds):
                v[k] = Fraction(b)
            if v not in found:
                found.append(v)
    return found


def rank_within_rounding(economy, allocation, p, band: float = 1e-9) -> bool:
    """Whether the active directions at ``p``, less their parts along it, lie within ``band`` of a lower rank.

    There rounding decides the exact polytope of the float directions: at
    clearing prices, say, two directions at L = 3 cancel in exact arithmetic
    but not in floats, and ``exact_speed_vertices`` finds only 0.
    """
    dirs = trade.all_trade_directions(economy, allocation, p)
    d = dirs[np.linalg.norm(dirs, axis=1) >= 1e-12]
    p = np.asarray(p, dtype=np.float64)
    sv = np.linalg.svd(d - np.outer(d @ p / (p @ p), p), compute_uv=False)
    rank = min(d.shape[0], p.size - 1)
    return rank > 0 and sv[rank - 1] <= band * sv[0]


def exact_trade_volume(economy, allocation, p) -> tuple[float, float]:
    """The largest volume s . |d| over the exact speed polytope of the active directions, and the decision threshold.

    The active directions are those at least 1e-12 long; the threshold is
    1e-9 times the longest of them (at least 1).  Trade exists iff the volume
    exceeds it.
    """
    dirs = trade.all_trade_directions(economy, allocation, p)
    norms = [math.sqrt(math.fsum(float(x) * float(x) for x in d)) for d in dirs]
    active = [h for h, n in enumerate(norms) if n >= 1e-12]
    threshold = 1e-9 * max([1.0] + [norms[h] for h in active])
    if len(active) < 2:
        return 0.0, threshold
    vertices = exact_speed_vertices(dirs[active], p)
    volume = max(sum(x * Fraction(norms[h]) for x, h in zip(v, active)) for v in vertices)
    return float(volume), threshold


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
                row += [_fmt(v) for v in speeds[k - 1]] if k else [""] * h
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
            sigma = trade.sample_speed(e, y, np.append(q, 1.0), SpeedPrior.UNIFORM_CUBE, rng)
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


def reference_polytope_sample(dirs, p, s_prior, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` speed draws from {s in [0, 1]^H : sum_h s_h d_h = 0}, by rejection in its null space.

    The directions lose their parts along the prices; ``scipy.linalg.null_space``
    gives an orthonormal basis of the speeds that cancel them, in which a
    uniform point is uniform on the polytope's area or volume.  Proposals are
    uniform on the bounding box of the polytope's coordinates, each range an
    LP, and are kept where the speeds land in the unit cube.  The max-speed
    prior divides each draw by its largest speed.
    """
    from scipy.linalg import null_space
    from scipy.optimize import linprog

    d = np.asarray(dirs, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    d = d - np.outer(d @ p / (p @ p), p)
    basis = null_space(d.T)  # (H, k)
    span = []
    for c in (*basis.T, *-basis.T):
        span.append(-linprog(-c, A_eq=d.T, b_eq=np.zeros(d.shape[1]), bounds=[(0.0, 1.0)] * d.shape[0]).fun)
    k = basis.shape[1]
    hi, lo = np.array(span[:k]), -np.array(span[k:])
    kept = np.empty((0, d.shape[0]))
    while len(kept) < n:
        s = rng.uniform(lo, hi, (8 * n, k)) @ basis.T
        kept = np.concatenate([kept, s[np.all((s >= 0.0) & (s <= 1.0), axis=1)]])
    kept = kept[:n]
    if SpeedPrior(s_prior) is SpeedPrior.MAX_SPEED:
        kept /= kept.max(axis=1, keepdims=True)
    return kept


def reference_rejection_draw(dirs, p, proposals: np.ndarray) -> tuple[np.ndarray, int]:
    """The first of the uniform ``proposals``, one row of d per proposal, that lands in the speed
    polytope of d >= 3 dimensions, and its index, built apart from ``trade._polytope_speeds``.

    The free speeds are the first d rows, in lexicographic order, of an
    orthonormal basis of the speeds that cancel the directions
    (``scipy.linalg.null_space``) whose |determinant| is the largest within a
    factor 1 - 1e-6, a choice that no other basis of that space changes,
    since it scales every such minor by one factor.  The box is the range of the
    exact vertices' free speeds (``exact_speed_vertices``), and a proposal is
    in when every speed it fixes lies in [0, 1], within 1e-12 for the
    rounding of the null space (a speed held at 0 comes out near, not at, 0).
    """
    from scipy.linalg import null_space

    d, p = np.asarray(dirs, dtype=np.float64), np.asarray(p, dtype=np.float64)
    basis = null_space((d - np.outer(d @ p / (p @ p), p)).T)  # (H, d)
    subsets = [list(c) for c in itertools.combinations(range(len(d)), basis.shape[1])]
    minors = [abs(np.linalg.det(basis[c])) for c in subsets]
    free = next(c for c, m in zip(subsets, minors) if m >= (1.0 - 1e-6) * max(minors))
    vertices = np.array(exact_speed_vertices(dirs, p), dtype=np.float64)
    lo, hi = vertices[:, free].min(axis=0), vertices[:, free].max(axis=0)
    for i, u in enumerate(proposals):
        s = basis @ np.linalg.solve(basis[free], lo + (hi - lo) * u)
        if np.all((s >= -1e-12) & (s <= 1.0 + 1e-12)):
            return s, i
    raise AssertionError("no proposal lands in the polytope")


def reference_polygon_speeds(lengths, u) -> np.ndarray:
    """``trade._polygon_speeds`` as it ordered the vertices before it shared ``trade._polygon``.

    The same closed-form vertex list, sorted by angle from -pi around its
    centroid in the chart of the two traders on one side of the price line,
    then fanned from the origin by ``reference_fan`` with the three uniforms ``u``.
    """
    a = [float(v) for v in lengths]
    up = [h for h in range(3) if a[h] > 0.0]
    j, k = up if len(up) == 2 else [h for h in range(3) if h not in up]
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
    return reference_fan(others, [(v[j], v[k]) for v in others], u)


def reference_fan(others, chart, u) -> np.ndarray:
    """A uniform point of a polygon with the origin as a vertex, from three uniforms ``u``, on
    Python floats: ``others`` in order around it from the origin fan into triangles (0, v, w), and
    the first uniform picks one by its area in ``chart``, the square root of the second scales a
    point of its edge vw, and the third places that point, at (1 - f) v + f w."""
    cum, total = [], 0.0
    for (vx, vy), (wx, wy) in zip(chart, chart[1:]):
        total += abs(vx * wy - wx * vy)
        cum.append(total)
    pick, radius, f = (float(v) for v in u)
    t = min(bisect.bisect_right(cum, pick * total), len(cum) - 1)
    r = math.sqrt(radius)
    v, w = others[t], others[t + 1]
    return np.array([r * ((1.0 - f) * v_h + f * w_h) for v_h, w_h in zip(v, w)])


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
