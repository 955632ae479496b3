"""Independent numeric oracles used by the tests.

These deliberately avoid the closed forms in the package: demand is recovered
by projected gradient ascent on the budget simplex, Hicksian bundles by
projected descent along the utility contour, derivatives by central finite
differences, the extreme-rate box test one good at a time, CSV files through
``csv.writer`` with each run re-simulated on its own.  Slow and simple on
purpose; they guard the analytic and vectorized paths.

The ``reference_*`` closed forms are the per-vector formulas ``prefs`` had
before its stacked core, kept with their float order: the public functions
must reproduce them bit for bit on one vector.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from edgeworth import engine, geometry, prefs, trade
from edgeworth.prefs import Family


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


def numeric_hicksian(u, p, target: float, iters: int = 20000, tol: float = 1e-12) -> np.ndarray:
    """Minimize p . c on {c > 0 : u(c) = target} by projected gradient descent."""
    p = np.asarray(p, dtype=np.float64)
    n = p.size

    def pull_to_contour(c: np.ndarray) -> np.ndarray:
        for _ in range(200):
            err = prefs.utility(u, c) - target
            if abs(err) < 1e-14 * max(1.0, abs(target)):
                break
            g = prefs.gradient(u, c)
            c = c - err * g / float(g @ g)
            c = np.maximum(c, 1e-12)
        return c

    c = pull_to_contour(np.full(n, 1.0))
    step = 0.1
    for _ in range(iters):
        g = prefs.gradient(u, c)
        d = -(p - (float(p @ g) / float(g @ g)) * g)
        if float(np.max(np.abs(d))) < tol:
            break
        trial = step
        base = float(p @ c)
        moved = False
        while trial > 1e-18:
            cand = c + trial * d
            if np.all(cand > 0):
                cand = pull_to_contour(cand)
                if float(p @ cand) < base - 1e-16:
                    c = cand
                    moved = True
                    break
            trial *= 0.5
        if not moved:
            break
    return c


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
            prefs.substitution_rates(hh.spec, b)
            for hh, b in zip(economy.households, allocation.bundles)
        ]
    )
    start = np.log((w @ rates) / w.sum())

    def excess(v: np.ndarray) -> np.ndarray:
        p = np.append(np.exp(v), 1.0)
        total = np.zeros_like(p)
        for wh, hh, b in zip(w, economy.households, allocation.bundles):
            total += wh * (prefs.normalized_demand(hh.spec, p / float(p @ b)) - b)
        return total[:-1]

    sol = root(excess, start, tol=1e-13)
    if not sol.success or float(np.max(np.abs(excess(sol.x)))) > 1e-10:
        raise RuntimeError(f"clearing-price oracle failed: {sol.message}")
    return np.exp(sol.x)


def lp_trade(economy, allocation, p) -> bool:
    """The trade LP itself on the directions at ``p``, with no screen in front of it."""
    dirs = trade.all_trade_directions(economy, allocation, p)
    return trade._lp_trade(dirs, np.linalg.norm(dirs, axis=1))


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
            t = engine.run_trajectory(cfg, r)
            for k, state in enumerate(t.states):
                row = [str(r), str(k)]
                row += [_fmt(v) for v in t.prices[k - 1]] if k else [""] * (l - 1)
                row += [_fmt(v) for v in t.speeds[k - 1].sigma] if k else [""] * h
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


def write_manifold_csv(path, spec, kind, anchor, axis) -> None:
    """``manifold.csv`` through ``csv.writer`` over the rate grid ``axis`` per good."""
    l = spec.dimension
    mesh = np.meshgrid(*([axis] * (l - 1)), indexing="ij")
    grid = [np.array(point) for point in zip(*(m.reshape(-1) for m in mesh))]
    sample = geometry.sample_manifold(spec, kind, anchor, grid)
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
        for y in sample.points:
            p = prefs.inverse_normalized_demand(spec, y)
            fp = geometry.flatten(spec, y)
            writer.writerow([kind.value] + [_fmt(v) for v in (*anchor, *y, *p, *fp.q, fp.u)])
