"""Monte Carlo engine for price-and-speed driven barter trajectories.

Each trajectory is a sequence of joint linear trade steps: draw prices from
a prior conditioned on the current trade-compatible set (by restriction to
the cheap box superset plus accept/reject), draw relative speeds from the
speed polytope, advance, and stop once substitution rates agree or the step
cap fires.  Runs are reproducible under any parallelism: the stream for run
``i`` comes from a counter-based generator keyed by (master_seed, i).
"""

from __future__ import annotations

import enum
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist
from typing import Union

import numpy as np
from numpy.typing import NDArray

from . import prefs, trade
from .errors import SamplingError, SpecificationError
from .prefs import Family, UtilitySpec
from .trade import Allocation, Economy, SpeedPrior, SpeedVector, _rates_agree, _ray_speeds

FloatArray = NDArray[np.float64]

#: Attempt cap for accept/reject price draws; exceeding it signals a
#: near-degenerate trade-compatible set rather than inventing a fallback.
REJECTION_CAP = 100_000

_HISTOGRAM_BINS = 64

_ANGLE_PRIOR_NEEDS_L2 = "economies with more than two goods need a tabulated price prior"


@dataclass(frozen=True)
class ArctanNormal:
    """Normal draw on the arc of price angles, centered at a reference rate.

    The density in the rate coordinate is
    ``exp(-(arctan q - arctan center)^2 / (2 sigma^2)) / (1 + q^2)``;
    small ``sigma_angle`` concentrates prices near the historical rate.
    """

    center_rate: float
    sigma_angle: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.center_rate) and self.center_rate > 0.0):
            raise SpecificationError("center_rate must be strictly positive")
        if not (np.isfinite(self.sigma_angle) and self.sigma_angle > 0.0):
            raise SpecificationError("sigma_angle must be strictly positive")


@dataclass(frozen=True)
class UniformArc:
    """Uniform draw on the arc of price angles: density 1 / (1 + q^2)."""


@dataclass(frozen=True, eq=False)
class Tabulated:
    """Discrete prior over an explicit grid of rate vectors."""

    grid: FloatArray
    densities: FloatArray

    def __post_init__(self) -> None:
        g = np.asarray(self.grid, dtype=np.float64)
        d = np.asarray(self.densities, dtype=np.float64)
        if g.ndim == 1:
            g = g[:, None]
        if g.ndim != 2 or g.shape[0] == 0:
            raise SpecificationError("tabulated grid must be a nonempty sequence of rate vectors")
        if np.any(g <= 0.0):
            raise SpecificationError("tabulated grid points must be strictly positive")
        if d.shape != (g.shape[0],):
            raise SpecificationError("one density per grid point is required")
        if np.any(d < 0.0) or not np.any(d > 0.0):
            raise SpecificationError("densities must be nonnegative and not all zero")
        g.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "densities", d)


QPrior = Union[ArctanNormal, UniformArc, Tabulated]


@dataclass(frozen=True)
class PriorSpec:
    """Joint prior: one component for prices, one for relative speeds."""

    q_prior: QPrior
    s_prior: SpeedPrior

    def __post_init__(self) -> None:
        if not isinstance(self.q_prior, (ArctanNormal, UniformArc, Tabulated)):
            raise SpecificationError("unsupported price prior")
        object.__setattr__(self, "s_prior", SpeedPrior(self.s_prior))


@dataclass(frozen=True, eq=False)
class SimConfig:
    """A full simulation request: economy, start state, priors, and budgets."""

    economy: Economy
    initial: Allocation
    prior: PriorSpec
    master_seed: int
    runs: int = 1
    max_steps: int = 500
    pareto_tol: float = trade.PARETO_TOL

    def __post_init__(self) -> None:
        if self.initial.bundles.shape != (self.economy.size, self.economy.n_goods):
            raise SpecificationError("initial allocation does not match the economy")
        if self.max_steps < 1:
            raise SpecificationError("max_steps must be at least 1")
        if self.runs < 1:
            raise SpecificationError("runs must be at least 1")
        if not self.pareto_tol > 0.0:
            raise SpecificationError("pareto_tol must be positive")
        n_rates = self.economy.n_goods - 1
        q_prior = self.prior.q_prior
        if isinstance(q_prior, Tabulated):
            if q_prior.grid.shape[1] != n_rates:
                raise SpecificationError(
                    f"tabulated price grid rows must have L - 1 = {n_rates} rates, "
                    f"got {q_prior.grid.shape[1]}"
                )
        elif n_rates != 1:
            raise SpecificationError(_ANGLE_PRIOR_NEEDS_L2)
        if self.pareto_tol < trade.PARETO_TOL and not _supports_fast_path(self):
            # the generic step's price draw and LP decide trade at PARETO_TOL
            raise SpecificationError(
                f"pareto_tol below {trade.PARETO_TOL:g} needs the 2x2 closed-form path "
                "(two serialized utilities and an angle price prior)"
            )
        object.__setattr__(self, "master_seed", int(self.master_seed))


class Terminal(str, enum.Enum):
    PARETO_REACHED = "pareto_reached"
    STEP_CAP = "step_cap"


@dataclass(eq=False)
class Trajectory:
    """One realized path: states plus the price and speed draws between them."""

    states: list[Allocation]
    prices: list[FloatArray]
    speeds: list[SpeedVector]
    terminal: Terminal

    @property
    def steps(self) -> int:
        return len(self.prices)

    def terminal_q(self, economy: Economy) -> FloatArray:
        """Last drawn rates; at a frozen start, household 1's own rates."""
        return _terminal_rates(economy, self.states[-1], self.prices[-1] if self.prices else None)


def _terminal_rates(economy: Economy, final: Allocation, last_q: FloatArray | None) -> FloatArray:
    """The run's last drawn rates, or household 1's own rates if it never moved."""
    if last_q is not None:
        return last_q
    return prefs.substitution_rates(economy.specs[0], final.bundle(0))


@dataclass(eq=False)
class OutcomeDistribution:
    """Empirical distribution of terminal states over the contract curve."""

    samples: FloatArray  # (runs, H, L) terminal allocations
    coords: FloatArray  # (runs,) contract-curve coordinate per run
    terminal_qs: FloatArray  # (runs, L - 1) final price rates
    steps: NDArray[np.int64]
    terminal_tags: list[Terminal]
    bin_edges: FloatArray
    bin_counts: NDArray[np.int64]
    mean: float
    mode_bin: int
    mean_bin: int
    bands: dict[str, tuple[float, float]]
    household_means: FloatArray  # (H, L)

    @property
    def runs(self) -> int:
        return int(self.samples.shape[0])


def summarize(
    samples: FloatArray,
    terminal_qs: FloatArray,
    steps,
    terminal_tags: list[Terminal],
    bins: int = _HISTOGRAM_BINS,
) -> OutcomeDistribution:
    """Histogram, mean, mode bin, and nested quantile bands of the outcomes.

    The contract-curve coordinate is household 1's first good for 2x2
    economies; larger economies are summarized over the first terminal rate.
    """
    samples = np.asarray(samples, dtype=np.float64)
    terminal_qs = np.atleast_2d(np.asarray(terminal_qs, dtype=np.float64))
    runs, households, goods = samples.shape
    if households == 2 and goods == 2:
        coords = samples[:, 0, 0].copy()
    else:
        coords = terminal_qs[:, 0].copy()
    lo, hi = float(coords.min()), float(coords.max())
    if hi - lo < 1e-12:
        pad = max(1e-9, abs(lo) * 1e-9)
        lo, hi = lo - pad, hi + pad
    counts, edges = np.histogram(coords, bins=bins, range=(lo, hi))
    mean = float(coords.mean())
    mean_bin = int(np.clip(np.searchsorted(edges, mean, side="right") - 1, 0, bins - 1))
    q05, q25, q75, q95 = np.quantile(coords, [0.05, 0.25, 0.75, 0.95])
    return OutcomeDistribution(
        samples=samples,
        coords=coords,
        terminal_qs=terminal_qs,
        steps=np.asarray(steps, dtype=np.int64),
        terminal_tags=list(terminal_tags),
        bin_edges=edges,
        bin_counts=counts,
        mean=mean,
        mode_bin=int(np.argmax(counts)),
        mean_bin=mean_bin,
        bands={"5-95": (float(q05), float(q95)), "25-75": (float(q25), float(q75))},
        household_means=samples.mean(axis=0),
    )


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Counter-based stream for one run, independent of scheduling."""
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, run_index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _angle_law(q_prior: ArctanNormal | UniformArc) -> NormalDist | None:
    """The law of the price angle: normal for ArctanNormal, None for uniform."""
    if isinstance(q_prior, ArctanNormal):
        return NormalDist(math.atan(q_prior.center_rate), q_prior.sigma_angle)
    return None


def _draw_angle(law: NormalDist | None, a: float, b: float, rng: np.random.Generator) -> float:
    """Inverse-CDF draw of a price angle restricted to (a, b).

    ``NormalDist.cdf`` is ``(1 + erf) / 2``, whose tails cancel to nothing;
    an interval on one side of the mean is drawn in the lower tail (mirrored
    if above) through ``erfc``, which keeps full relative precision there.
    """
    if law is None:
        return a + (b - a) * float(rng.random())
    mu = law.mean
    mirror = a >= mu
    lo, hi = (2.0 * mu - b, 2.0 * mu - a) if mirror else (a, b)
    if hi > mu:
        ca, cb = law.cdf(lo), law.cdf(hi)
    else:
        scale = law.stdev * math.sqrt(2.0)
        ca, cb = 0.5 * math.erfc((mu - lo) / scale), 0.5 * math.erfc((mu - hi) / scale)
    if cb - ca < 1e-300:
        raise SamplingError(
            f"no prior mass on price angles ({a!r}, {b!r}): mean {mu!r}, sigma {law.stdev!r}"
        )
    u = ca + (cb - ca) * float(rng.random())
    theta = law.inv_cdf(min(max(u, sys.float_info.min), 1.0 - 1e-16))
    if mirror:
        theta = 2.0 * mu - theta
    return min(max(theta, a), b)


def _draw_rate(law: NormalDist | None, lo: float, hi: float, rng: np.random.Generator) -> float:
    """A price rate from the angle law conditioned on the open interval (lo, hi)."""
    a, b = math.atan(lo), math.atan(hi)
    for _ in range(REJECTION_CAP):
        q = math.tan(_draw_angle(law, a, b, rng))
        if lo < q < hi:
            return q
    raise SamplingError(f"no trade-compatible price within {REJECTION_CAP} draws")


def _draw_tabulated(
    e: Economy,
    y: Allocation,
    prior: Tabulated,
    in_box,
    rng: np.random.Generator,
) -> FloatArray:
    """Atom draw from the prior conditioned on trade compatibility.

    Discrete support makes the conditioning exact: atoms are screened once
    (box first, then the LP) and the draw is taken over the survivors, so a
    prior with no mass on the trade-compatible set fails immediately.
    """
    weights = np.where(in_box, prior.densities, 0.0)
    for k in np.nonzero(weights > 0.0)[0]:
        if not trade.has_trade(e, y, np.append(prior.grid[k], 1.0)):
            weights[k] = 0.0
    total = float(weights.sum())
    if total <= 0.0:
        raise SamplingError("the price prior assigns zero mass to the trade-compatible set")
    cdf = np.cumsum(weights) / total
    idx = int(np.searchsorted(cdf, float(rng.random()), side="right"))
    return np.array(prior.grid[min(idx, prior.grid.shape[0] - 1)], dtype=np.float64)


def draw_price(
    e: Economy,
    y: Allocation,
    prior: PriorSpec,
    rng: np.random.Generator,
) -> FloatArray:
    """One rate vector from the prior conditioned on trade compatibility.

    A tabulated prior keeps the atoms in the box superset at which the LP
    finds trade.  An angle prior needs L = 2, where the trade-compatible
    rates are exactly the open interval between the households' extreme
    substitution rates; its draw is accepted by that interval, without an LP.
    """
    if trade.is_pareto_optimal(e, y):
        raise SpecificationError("cannot draw trade prices at a Pareto-optimal state")
    box = trade.msr_extremes(e, y)
    q_prior = prior.q_prior
    if isinstance(q_prior, Tabulated):
        return _draw_tabulated(e, y, q_prior, trade.box_contains(box, q_prior.grid), rng)
    if e.n_goods != 2:
        raise SpecificationError(_ANGLE_PRIOR_NEEDS_L2)
    lo, hi = float(box.lower_rates[0, 1]), float(box.upper_rates[0, 1])
    return np.array([_draw_rate(_angle_law(q_prior), lo, hi, rng)])


def sntp_step(
    e: Economy,
    y: Allocation,
    prior: PriorSpec,
    rng: np.random.Generator,
    pareto_tol: float = trade.PARETO_TOL,
) -> tuple[Allocation, FloatArray, SpeedVector] | None:
    """One trade epoch, or None once no common-price trade remains."""
    if trade.is_pareto_optimal(e, y, pareto_tol):
        return None
    q = draw_price(e, y, prior, rng)
    p = np.append(q, 1.0)
    sigma = trade.sample_speed(e, y, p, prior.s_prior, rng)
    return trade.advance(e, y, p, sigma), q, sigma


def _scalar_kernels(spec: UtilitySpec):
    """Scalar substitution-rate and demand-target maps for the 2x2 hot loop."""
    a1, a2 = float(spec.weights[0]), float(spec.weights[1])
    if spec.family is Family.COBB_DOUGLAS_LOG:

        def rate(c1: float, c2: float) -> float:
            return (a1 * c2) / (a2 * c1)

        def target(q: float, c1: float, c2: float) -> tuple[float, float]:
            w = q * c1 + c2
            return a1 * w / q, a2 * w

    else:
        sig = spec.elasticity
        eta = 1.0 / (1.0 - sig)
        ratio = a1 / a2
        a1e, a2e = a1**eta, a2**eta

        def rate(c1: float, c2: float) -> float:
            return ratio * (c2 / c1) ** (1.0 - sig)

        def target(q: float, c1: float, c2: float) -> tuple[float, float]:
            w = q * c1 + c2
            total = a1e * q ** (1.0 - eta) + a2e
            return w * a1e * q**-eta / total, w * a2e / total

    return rate, target


def _supports_fast_path(cfg: SimConfig) -> bool:
    return (
        cfg.economy.size == 2
        and cfg.economy.n_goods == 2
        and all(isinstance(s, UtilitySpec) for s in cfg.economy.specs)
        and isinstance(cfg.prior.q_prior, (ArctanNormal, UniformArc))
    )


def _run_core_2x2(cfg: SimConfig, run_index: int, record: bool):
    """Scalar trajectory loop for 2x2 economies with angle-based priors."""
    rng = run_rng(cfg.master_seed, run_index)
    rate1, target1 = _scalar_kernels(cfg.economy.specs[0])
    rate2, target2 = _scalar_kernels(cfg.economy.specs[1])
    (y11, y12), (y21, y22) = cfg.initial.bundles
    law = _angle_law(cfg.prior.q_prior)
    max_speed = cfg.prior.s_prior is SpeedPrior.MAX_SPEED
    tol = cfg.pareto_tol

    states = [cfg.initial] if record else None
    prices: list[FloatArray] = []
    speeds: list[SpeedVector] = []
    last_q = None
    terminal = Terminal.STEP_CAP
    n_steps = 0

    for _ in range(cfg.max_steps):
        m1 = rate1(y11, y12)
        m2 = rate2(y21, y22)
        lo, hi = (m1, m2) if m1 <= m2 else (m2, m1)
        if _rates_agree(lo, hi, tol):
            terminal = Terminal.PARETO_REACHED
            break
        q = _draw_rate(law, lo, hi, rng)
        d11, d12 = target1(q, y11, y12)
        d21, d22 = target2(q, y21, y22)
        e11, e12 = d11 - y11, d12 - y12
        e21, e22 = d21 - y21, d22 - y22
        s1, s2 = _ray_speeds(math.hypot(e11, e12), math.hypot(e21, e22), max_speed, rng)
        y11 += s1 * e11
        y12 += s1 * e12
        y21 += s2 * e21
        y22 += s2 * e22
        last_q = q
        n_steps += 1
        if record:
            states.append(Allocation(np.array([[y11, y12], [y21, y22]])))
            prices.append(np.array([q]))
            speeds.append(SpeedVector(np.array([s1, s2])))

    final = (
        states[-1]
        if record
        else Allocation(np.array([[y11, y12], [y21, y22]]))
    )
    last_arr = None if last_q is None else np.array([last_q])
    return states, prices, speeds, terminal, final, last_arr, n_steps


def _run_core_generic(cfg: SimConfig, run_index: int, record: bool):
    rng = run_rng(cfg.master_seed, run_index)
    state = cfg.initial
    states = [state] if record else None
    prices: list[FloatArray] = []
    speeds: list[SpeedVector] = []
    terminal = Terminal.STEP_CAP
    last_q: FloatArray | None = None
    n_steps = 0
    for _ in range(cfg.max_steps):
        step = sntp_step(cfg.economy, state, cfg.prior, rng, cfg.pareto_tol)
        if step is None:
            terminal = Terminal.PARETO_REACHED
            break
        state, q, sigma = step
        last_q = q
        n_steps += 1
        if record:
            states.append(state)
            prices.append(q)
            speeds.append(sigma)
    return states, prices, speeds, terminal, state, last_q, n_steps


def _core(cfg: SimConfig):
    return _run_core_2x2 if _supports_fast_path(cfg) else _run_core_generic


def run_trajectory(cfg: SimConfig, run_index: int) -> Trajectory:
    """The full recorded path for one run index; bit-identical on repeats."""
    states, prices, speeds, terminal, _, _, _ = _core(cfg)(cfg, run_index, record=True)
    return Trajectory(states=states, prices=prices, speeds=speeds, terminal=terminal)


def _terminal_only(cfg: SimConfig, run_index: int):
    try:
        _, _, _, terminal, final, last_q, n_steps = _core(cfg)(cfg, run_index, record=False)
    except SamplingError as exc:
        raise SamplingError(f"run {run_index}: {exc}") from exc
    return final.bundles, _terminal_rates(cfg.economy, final, last_q), n_steps, terminal


def _terminal_batch(cfg: SimConfig, indices: list[int]):
    return [_terminal_only(cfg, i) for i in indices]


def run_monte_carlo(
    cfg: SimConfig, workers: int | None = None, bins: int = _HISTOGRAM_BINS
) -> OutcomeDistribution:
    """All runs of the configuration, folded into an outcome distribution.

    ``workers`` > 1 fans the runs out over processes; per-run streams make
    the aggregate independent of scheduling, and results are folded in run
    order.  A failed run aborts the whole batch with its diagnostics.
    """
    runs = cfg.runs
    if workers and workers > 1:
        chunk = max(64, runs // (workers * 8) + 1)
        batches = [list(range(s, min(s + chunk, runs))) for s in range(0, runs, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outs = pool.map(_terminal_batch, [cfg] * len(batches), batches)
            results = [out for batch in outs for out in batch]
    else:
        results = _terminal_batch(cfg, list(range(runs)))
    samples = np.stack([r[0] for r in results])
    terminal_qs = np.stack([r[1] for r in results])
    steps = [r[2] for r in results]
    tags = [r[3] for r in results]
    return summarize(samples, terminal_qs, steps, tags, bins=bins)


def example3_ladder_value(j: int) -> float:
    """Closed-form contract-curve coordinate of the j-th ladder outcome."""
    prod = 1.0
    for i in range(1, j):
        prod *= 1.0 + 1.0 / (2 ** (i + 2) - 4)
    return prod * (1.0 + 1.0 / (2 ** (j + 1) - 2))


def example3_process(rng: np.random.Generator, runs: int) -> OutcomeDistribution:
    """The explicit coin-flip price ladder over the symmetric 2x2 box.

    Prices climb q_t = 1 - 2^(-(t+1)) while a fair coin keeps landing on
    "continue"; the first "stop" trades out at q = 1 and freezes the state
    on the contract curve, so outcome j (the stop time) has mass 2^-j.
    """
    if runs < 1:
        raise SpecificationError("runs must be at least 1")
    samples = np.empty((runs, 2, 2))
    steps = np.empty(runs, dtype=np.int64)
    for r in range(runs):
        y11, y12, y21, y22 = 2.0, 1.0, 1.0, 2.0
        t = 1
        while t < 64 and rng.random() >= 0.5:
            q = 1.0 - 2.0 ** -(t + 1)
            w1 = q * y11 + y12
            d11, d12 = w1 / (2.0 * q), w1 / 2.0
            e11, e12 = d11 - y11, d12 - y12
            w2 = q * y21 + y22
            d21, d22 = w2 / (2.0 * q), w2 / 2.0
            e21, e22 = d21 - y21, d22 - y22
            g = math.hypot(e11, e12) / math.hypot(e21, e22)
            y11, y12 = d11, d12
            y21, y22 = y21 + g * e21, y22 + g * e22
            t += 1
        s1 = y11 + y12
        s2 = y21 + y22
        samples[r] = [[0.5 * s1, 0.5 * s1], [0.5 * s2, 0.5 * s2]]
        steps[r] = t
    tags = [Terminal.PARETO_REACHED] * runs
    qs = np.ones((runs, 1))
    return summarize(samples, qs, steps, tags)
