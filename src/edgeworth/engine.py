"""Monte Carlo engine for price-and-speed driven barter trajectories.

Each trajectory is a sequence of joint linear trade steps: draw prices from
a prior conditioned on the current trade-compatible set (an angle prior by
its inverse CDF on the open interval between the households' extreme
substitution rates; a tabulated prior by that interval at L = 2 or the
extreme-rate box beyond, both built on rows, then the trade decision on the
atoms inside), draw relative speeds from the speed polytope, advance, and
stop once substitution rates agree or the step cap fires.  One epoch,
``_epoch``, does this on rows for every economy: the 2x2 kernel's batch and
``sntp_step``'s one row.  Runs are reproducible under any parallelism: the
stream for run ``i`` comes from a counter-based generator keyed by
(master_seed, i).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import NDArray

from . import prefs, trade
from .errors import DomainDegeneracyError, SamplingError, SpecificationError
from .trade import Allocation, Economy, SpeedPrior, _raise_first, _rates_agree

FloatArray = NDArray[np.float64]

#: Attempt cap for accept/reject price draws; exceeding it signals a
#: near-degenerate trade-compatible set rather than inventing a fallback.
REJECTION_CAP = 100_000

#: Runs the 2x2 kernel advances together, and the unit ``workers`` map over.
_CHUNK = 2048

#: Uniforms read at a time from a run's stream.
_BLOCK = 64

_HISTOGRAM_BINS = 64
_MAX_BINS = 10**6  # the most histogram bins summarize counts
_MAX_KEY = 2**64 - 1  # the largest Philox key word: seeds and run indices lie in [0, 2**64), so none alias

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
        object.__setattr__(self, "center_rate", prefs._check_real(self.center_rate, "center_rate", 0, math.inf))
        object.__setattr__(self, "sigma_angle", prefs._check_real(self.sigma_angle, "sigma_angle", 0, math.inf))


@dataclass(frozen=True)
class UniformArc:
    """Uniform draw on the arc of price angles: density 1 / (1 + q^2)."""


@dataclass(frozen=True, eq=False)
class Tabulated:
    """Discrete prior over an explicit grid of rate vectors."""

    grid: FloatArray
    densities: FloatArray

    def __post_init__(self) -> None:
        g = prefs._as_rates(self.grid, None, stack=True, name="grid").copy()  # its width is checked against L later
        d = np.array(self.densities, dtype=np.float64)  # a copy
        if d.shape != (g.shape[0],):
            raise SpecificationError("one density per grid point is required")
        if not (d.min() >= 0.0 and 0.0 < d.max() < math.inf):  # a NaN fails too
            raise SpecificationError("densities must be finite, nonnegative and not all zero")
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
        trade._check_size(self.economy)
        if self.initial.bundles.min() < prefs.POSITIVE_FLOOR:
            raise SpecificationError("initial allocation has a coordinate below 1e-300")
        try:  # the 2x2 kernel checks no rates after this: its rate interval only shrinks along a path
            with np.errstate(all="ignore"):
                trade.household_rates(self.economy, self.initial)
        except DomainDegeneracyError:
            raise SpecificationError(
                "initial allocation has substitution rates that are not finite or fall below 1e-300"
            ) from None
        object.__setattr__(self, "runs", prefs._check_int(self.runs, "runs", 1))
        object.__setattr__(self, "max_steps", prefs._check_int(self.max_steps, "max_steps", 1, 2**53))  # float-exact
        object.__setattr__(self, "pareto_tol", _check_pareto_tol(self.pareto_tol, _supports_fast_path(self)))
        _check_prior(self.economy, self.prior)
        object.__setattr__(self, "master_seed", prefs._check_int(self.master_seed, "master seed", 0, _MAX_KEY))


class Terminal(str, enum.Enum):
    PARETO_REACHED = "pareto_reached"
    STEP_CAP = "step_cap"


@dataclass(eq=False)
class Trajectory:
    """One realized path: its table holds one row per state, laid out as
    ``OutcomeDistribution.trace`` (the columns of ``trajectories.csv``)."""

    table: FloatArray
    terminal: Terminal

    @property
    def steps(self) -> int:
        return self.table.shape[0] - 1


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
    #: with run_monte_carlo(trace=True): one row per recorded state, in run
    #: then step order, holding run, step, q (L - 1), sigma (H) and the
    #: bundles (H * L); step 0 is the start, with NaN rates and speeds.  The
    #: 2x2 kernel fills each chunk's table in place; a lone chunk's table is
    #: this array itself, and more chunks are joined in run order
    trace: FloatArray | None = None

    @property
    def runs(self) -> int:
        return int(self.samples.shape[0])


def _quantiles(x: FloatArray, qs) -> list[float]:
    """``np.quantile(x, qs)`` bit for bit, by its default ``linear`` rule on one sorted copy.

    ``np.quantile`` calls ``np.unique``, which imports numpy.ma (about 1.3 MB
    and 10 ms per process).  As numpy does: the virtual index is (n - 1) q,
    an index at or past the last value takes the last value twice, and the
    interpolation runs from the upper value once its weight reaches 0.5.
    """
    x = np.sort(x)
    n, out = x.size, []
    for q in qs:
        v = (n - 1) * q
        i = math.floor(v)
        i, j = (-1, -1) if v >= n - 1 else (i, i + 1)
        a, b, t = float(x[i]), float(x[j]), v - i
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


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
    bins = prefs._check_int(bins, "bins", 1, _MAX_BINS)
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
    q05, q25, q75, q95 = _quantiles(coords, (0.05, 0.25, 0.75, 0.95))
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
        bands={"5-95": (q05, q95), "25-75": (q25, q75)},
        household_means=samples.mean(axis=0),
    )


def _check_pareto_tol(tol, closed_form: bool) -> float:
    """The stop tolerance as a float: positive and finite, and below ``PARETO_TOL`` only if ``closed_form``."""
    tol = prefs._check_real(tol, "pareto_tol", 0, math.inf)
    if tol < trade.PARETO_TOL and not closed_form:
        # the generic step's price draw and trade screen decide trade at PARETO_TOL
        raise SpecificationError(
            f"pareto_tol below {trade.PARETO_TOL:g} needs the 2x2 closed-form path "
            "(two households, two goods and an angle price prior)"
        )
    return tol


def _check_prior(e: Economy, prior: PriorSpec) -> None:
    """A tabulated prior's grid rows hold L - 1 rates; an angle prior needs L = 2."""
    n_rates = e.n_goods - 1
    if isinstance(prior.q_prior, Tabulated):
        width = prior.q_prior.grid.shape[1]
        if width != n_rates:
            raise SpecificationError(f"tabulated price grid rows must have L - 1 = {n_rates} rates, got {width}")
    elif n_rates != 1:
        raise SpecificationError(_ANGLE_PRIOR_NEEDS_L2)


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Counter-based stream for one run, independent of scheduling; both key words lie in [0, 2**64)."""
    seed = prefs._check_int(master_seed, "master seed", 0, _MAX_KEY)
    key = np.array([seed, prefs._check_int(run_index, "run index", 0, _MAX_KEY)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Cephes's erf (Moshier, ndtr.c) on |z| < 1: erf(z) = z T(z^2) / U(z^2), highest power first
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)

# AS241's rational approximations (Wichura, Applied Statistics 37(3), 1988),
# highest power first, as in the standard library's statistics.NormalDist
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4, 4.5921953931549871457e4,
     1.3731693765509461125e4, 1.9715909503065514427e3, 1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4, 2.1213794301586595867e4,
     5.3941960214247511077e3, 6.8718700749205790830e2, 4.2313330701600911252e1, 1.0),
)
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1, 1.2704582524523683826e0,
     3.6478483247632046050e0, 5.7694972214606914055e0, 4.6303378461565452959e0, 1.4234371107496835773e0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2, 1.4810397642748007459e-1,
     6.8976733498510000455e-1, 1.6763848301838038494e0, 2.0531916266377588219e0, 1.0),
)
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3, 2.6532189526576123093e-2,
     2.9656057182850489123e-1, 1.7848265399172913358e0, 5.4637849111641143699e0, 6.6579046435011037772e0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5, 7.8686913114561325910e-4,
     1.4875361290850614853e-2, 1.3692988092273580531e-1, 5.9983220655588793769e-1, 1.0),
)


def _horner(r: FloatArray, coefficients) -> FloatArray:
    """The polynomial with these coefficients, highest power first, at ``r``."""
    acc = coefficients[0] * r + coefficients[1]
    for c in coefficients[2:]:
        acc *= r
        acc += c
    return acc


def _rational(r: FloatArray, coefficients) -> FloatArray:
    """The ratio of the (numerator, denominator) polynomials at ``r``."""
    num, den = coefficients
    return _horner(r, num) / _horner(r, den)


def _ndtr(x: FloatArray) -> FloatArray:
    """The standard normal CDF, with full relative precision in the lower tail.

    Where |x| < sqrt 2 it is 0.5 + 0.5 erf(x / sqrt 2) by Cephes's rational
    erf, in numpy's exactly rounded arithmetic; elsewhere it is
    0.5 erfc(|x| / sqrt 2) from the C library, reflected above the mean.
    """
    z = x * math.sqrt(0.5)
    zz = z * z
    y = 0.5 + 0.5 * (z * _horner(zz, _ERF_T) / _horner(zz, _ERF_U))
    tail = np.abs(z) >= 1.0
    if np.count_nonzero(tail):
        half = 0.5 * prefs._libm(math.erfc, np.abs(z[tail]))
        y[tail] = np.where(z[tail] > 0.0, 1.0 - half, half)
    return y


def _ndtri(p: FloatArray) -> FloatArray:
    """The standard normal quantile of each ``p`` in (0, 1) by AS241, with the bits of ``NormalDist().inv_cdf``."""
    q = p - 0.5
    r = 0.180625 - q * q
    x = q * _horner(r, _AS241_CENTRAL[0]) / _horner(r, _AS241_CENTRAL[1])
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        lower = q[tail] <= 0.0
        r = np.sqrt(-prefs._libm(math.log, np.where(lower, p[tail], 1.0 - p[tail])))
        z = np.where(r <= 5.0, _rational(r - 1.6, _AS241_NEAR), _rational(r - 5.0, _AS241_FAR))
        x[tail] = np.where(lower, -z, z)
    return x


def _draw_rate(q_prior: ArctanNormal | UniformArc, lo, hi, draw, fail=_raise_first) -> FloatArray:
    """Price rates from the angle prior conditioned on the open intervals (lo, hi), one per row.

    Each attempt is an inverse-CDF draw of the angle on (atan lo, atan hi)
    from one uniform of each row that ``draw(sub)`` is asked for (``sub`` is
    a slice or an index array); a rate that rounds out of the open interval
    is drawn again, up to ``REJECTION_CAP`` times.  ``UniformArc`` draws the
    angle uniformly; ``ArctanNormal`` draws it from the normal law of mean
    ``atan(center_rate)`` and deviation ``sigma_angle``, read in its lower
    tail (an interval above the mean is mirrored below it), where the CDF
    :func:`_ndtr` (a rational ``erf``, the C library's ``erfc`` in the tails)
    keeps full relative precision; :func:`_ndtri` (AS241) inverts it.  Rows
    that cannot be drawn are passed to ``fail(rows, why)``, where
    ``why(row)`` is the reason, and come back NaN.
    """
    a, b = np.arctan(lo), np.arctan(hi)
    q, rows = None, slice(None)  # the rows still to draw; the arrays below hold only theirs
    normal = isinstance(q_prior, ArctanNormal)
    if not normal:
        base, width = a, b - a  # the angle, uniform on (a, b)
    else:
        mu, sd = math.atan(q_prior.center_rate), q_prior.sigma_angle
        mirror = a >= mu
        ends = np.where(mirror, [2.0 * mu - b, 2.0 * mu - a], [a, b])
        base, top = _ndtr((ends - mu) / sd)  # the CDF, uniform on (base, top)
        width = top - base
        empty = width < 1e-300
        if np.count_nonzero(empty):
            fail(np.flatnonzero(empty), lambda r, a=a, b=b: (
                f"no prior mass on price angles ({float(a[r])!r}, {float(b[r])!r}): "
                f"mean {mu!r}, sigma {sd!r}"
            ))
            q, rows = np.full(a.size, np.nan), np.flatnonzero(~empty)
            lo, hi, a, b, mirror, base, width = (v[rows] for v in (lo, hi, a, b, mirror, base, width))
    for _ in range(REJECTION_CAP):
        theta = base + width * draw(rows)
        if normal:
            theta = mu + sd * _ndtri(np.clip(theta, sys.float_info.min, 1.0 - 1e-16))
            theta = np.clip(np.where(mirror, 2.0 * mu - theta, theta), a, b)
        rate = np.tan(theta)
        ok = (lo < rate) & (rate < hi)
        if q is None:
            if np.count_nonzero(ok) == ok.size:
                return rate  # every row accepted at its first attempt
            q, rows = np.full(ok.size, np.nan), np.arange(ok.size)
        q[rows[ok]] = rate[ok]
        again = ~ok
        rows, lo, hi, base, width = rows[again], lo[again], hi[again], base[again], width[again]
        if not rows.size:
            return q
        if normal:
            a, b, mirror = a[again], b[again], mirror[again]
    fail(rows, lambda r: f"no trade-compatible price within {REJECTION_CAP} draws")
    return q


def _pick(weights: FloatArray, u: FloatArray) -> NDArray[np.intp]:
    """The atom each row's uniform ``u`` picks by the inverse CDF of its ``(rows, atoms)`` weights, some positive:
    the first whose CDF exceeds u, or where rounding leaves none, the first at the CDF's last value."""
    cdf = np.cumsum(weights, axis=1) / weights.sum(axis=1)[:, None]
    over = cdf > u[:, None]
    pick = over.argmax(axis=1)
    short = ~over[:, -1]
    if np.count_nonzero(short):
        pick[short] = (cdf[short] == cdf[short, -1:]).argmax(axis=1)
    return pick


def _draw_atom(e: Economy, prior: Tabulated, y: FloatArray, lo: FloatArray, hi: FloatArray, draw, fail=_raise_first):
    """Atoms of a tabulated prior conditioned on trade, one per row of ``(rows, H, L)`` bundles, as ``_draw_price`` returns them.

    A row's rate box is at L = 2 the interval [lo (1 - 1e-12), hi (1 + 1e-12)]
    of its rates, and beyond ``trade._box``'s, tested by ``trade._in_box``.
    The atoms with mass in it get their path ends in one ``trade._path_end``
    pass, which the epoch reuses and guards for the drawn atom only, and are
    screened in one ``trade._decide`` call, which keeps the vertices it finds.
    One uniform per row from ``draw(rows)`` picks among the survivors
    (``_pick``).  A row with none goes to ``fail(rows, why)`` and comes back NaN.
    """
    grid, mass = prior.grid, prior.densities
    line = grid.shape[1] == 1
    if line:
        in_box = (lo[:, None] * (1.0 - 1e-12) <= grid[:, 0]) & (grid[:, 0] <= hi[:, None] * (1.0 + 1e-12))
        lo, hi = lo[:, None], hi[:, None]  # each row's box, as the failure names it
    else:
        lower, upper = trade._box(e, y)
        in_box = trade._in_box(lower, upper, grid)
        lo, hi = lower[:, :-1, -1], upper[:, :-1, -1]
    r, a = np.nonzero(in_box & (mass > 0.0))
    p = np.ones((a.size, 1, grid.shape[1] + 1))
    p[:, 0, :-1] = grid[a]
    b = y[r]
    found: list = []
    with np.errstate(all="ignore"):  # the epoch guards the drawn atom's path ends
        x = trade._grouped(trade._path_end, e, b, p)
        keep = trade._decide(x - b, p[:, 0], found)
    weights = np.zeros(in_box.shape)
    weights[r[keep], a[keep]] = mass[a[keep]]
    empty = ~(weights.max(axis=1) > 0.0)
    if np.count_nonzero(empty):
        fail(np.flatnonzero(empty), lambda k: _exhausted(
            prior, lo[k], hi[k], int(np.count_nonzero(in_box[k])), int(np.count_nonzero(r == k))
        ))
        weights[empty, 0] = 1.0  # placeholders
    pick = _pick(weights, draw(slice(None)))
    at = np.zeros(in_box.shape, dtype=np.intp)  # each candidate's row of x
    at[r, a] = np.arange(a.size)
    chosen = at[np.arange(pick.size), pick]
    q, x = grid[pick], x[chosen] if a.size else np.full(y.shape, np.nan)
    if np.count_nonzero(empty):
        q[empty], x[empty] = np.nan, np.nan  # the failed rows' placeholders
    vertices = [trade._row_vertices(found, c) for c in chosen.tolist()] if found else None
    return q[:, 0] if line else q, x, vertices


def _exhausted(prior: Tabulated, lo: FloatArray, hi: FloatArray, in_box: int, rejected: int) -> str:
    """Why a tabulated prior has no trade-compatible atom: the rate box from
    ``lo`` to ``hi``, the counts and, at L = 2, the atoms with prior mass
    nearest to the open rate interval on its low and high side (split at its
    midpoint, since the atoms the screen rejects at an end may lie a rounding
    inside it)."""
    why = "the price prior assigns zero mass to the trade-compatible set"
    counts = f"atoms in the box: {in_box}, rejected by the trade screen: {rejected}"
    if lo.size > 1:
        return f"{why}: rate box from {lo.tolist()} to {hi.tolist()}; {counts}"
    atoms = prior.grid[prior.densities > 0.0, 0]
    mid = 0.5 * (lo[0] + hi[0])
    low, high = atoms[atoms <= mid], atoms[atoms > mid]
    low = repr(float(low.max())) if low.size else "none"
    high = repr(float(high.min())) if high.size else "none"
    return (
        f"{why}: rate interval ({float(lo[0])!r}, {float(hi[0])!r}); {counts}; "
        f"nearest atoms with prior mass: {low} on the low side, {high} on the high side"
    )


def draw_price(e: Economy, y: Allocation, prior: PriorSpec, rng: np.random.Generator) -> FloatArray:
    """One rate vector from the prior conditioned on trade compatibility: one row of the epoch's ``_draw_price``.

    A tabulated prior keeps the atoms in the rate box at which trade exists
    (at L = 2 in closed form; by the speed polytope's vertices beyond).  An
    angle prior needs L = 2, where the trade-compatible rates are exactly the
    open interval between the households' extreme substitution rates; its
    draw is accepted by that interval, with no vertex enumeration.
    """
    _check_prior(e, prior)
    rates = trade.household_rates(e, y)
    lo, hi = rates.min(axis=0), rates.max(axis=0)
    if np.all(_rates_agree(lo, hi, trade.PARETO_TOL)):
        raise SpecificationError("cannot draw trade prices at a Pareto-optimal state")
    return _draw_price(e, prior, y.bundles[None], lo, hi, lambda sub: rng.random(1))[0].reshape(e.n_goods - 1)


def _draw_price(e: Economy, prior: PriorSpec, y: FloatArray, lo: FloatArray, hi: FloatArray, draw, fail=_raise_first):
    """Prices from a checked prior conditioned on trade, one per row of ``(rows, H, L)`` bundles
    that admit trade, whose rates span (lo, hi) at L = 2.

    Returns the price rates, ``(rows,)`` at L = 2 and ``(rows, L - 1)``
    beyond; the ``(rows, H, L)`` path ends at them, unguarded; and, where the
    trade decision enumerated them, each row's speed vertices
    (``trade._row_vertices``), else None.  A tabulated prior draws an atom
    (``_draw_atom``), an angle prior a rate (``_draw_rate``).
    """
    q_prior = prior.q_prior
    if isinstance(q_prior, Tabulated):
        return _draw_atom(e, q_prior, y, lo, hi, draw, fail)
    q = _draw_rate(q_prior, lo, hi, draw, fail)
    p = np.empty((2, q.size))  # goods apart, as the kernel lays out its bundles
    p[0], p[1] = q, 1.0
    with np.errstate(all="ignore"):  # a path end off the floor fails its row in the epoch
        return q, trade._grouped(trade._path_end, e, y, p.T[:, None]), None  # one price row for every household


def _epoch(e: Economy, prior: PriorSpec, y: FloatArray, lo: FloatArray, hi: FloatArray, draw, fail=_raise_first, out=None):
    """One trade epoch on rows of ``(rows, H, L)`` bundles that admit trade, whose rates span
    (lo, hi) at L = 2: the price rates (as ``_draw_price`` returns them), the speeds
    ``(rows, H)`` and the new bundles (in ``out`` if given).

    The price and the path ends are ``_draw_price``'s, and the path ends are
    guarded against the floor.  At L = 2 with at most three households the
    speeds are ``trade._line_speeds``'; otherwise each row takes the ray or
    the vertex draw of ``trade._sample_speed``, from the vertices the trade
    decision found at its price where it found them.  Each row reads
    ``draw(rows)`` in the order of a lone row: the price attempts, then the
    speeds, where a polytope row reads its next k uniforms as ``draw([r],
    k)`` (only a one-row caller draws a polytope).  A failed row goes to
    ``fail(rows, why, kind)`` and carries placeholders to the end of the
    epoch.
    """
    q, x, vertices = _draw_price(e, prior, y, lo, hi, draw, fail)
    if not (x.min() >= prefs.POSITIVE_FLOOR and x.max() < math.inf):  # some row is live here
        on = np.all((x >= prefs.POSITIVE_FLOOR) & (x < math.inf), axis=(1, 2))  # a NaN is off
        why = "demand degenerated below the positive floor"  # the guard's wording
        fail(np.flatnonzero(~on), lambda r: why, DomainDegeneracyError)
        x = np.where(on[:, None, None], x, y)  # idle placeholders
    d = x - y
    if d.shape[-1] == 2 and d.shape[-2] <= 3:
        sigma = trade._line_speeds(d, prior.s_prior is SpeedPrior.MAX_SPEED, draw, fail)
    else:  # a row at a time: a polytope is drawn from its own vertices
        sigma = np.zeros(d.shape[:-1])
        for r in range(sigma.shape[0]):
            try:
                sigma[r] = trade._sample_speed(
                    d[r], np.append(q[r], 1.0), prior.s_prior,
                    lambda k, r=r: draw([r], k),
                    None if vertices is None else vertices[r],
                )
            except SamplingError as exc:
                fail([r], lambda _, why=str(exc): why)
    return q, sigma, np.add(y, sigma[..., None] * d, out=out)


def sntp_step(
    e: Economy, y: Allocation, prior: PriorSpec, rng: np.random.Generator, pareto_tol: float = trade.PARETO_TOL
) -> tuple[Allocation, FloatArray, FloatArray] | None:
    """One trade epoch, as (new state, price rates q, speeds), or None once no common-price trade remains.

    ``pareto_tol`` follows ``SimConfig``'s rule for the generic path, so a
    state it does not stop at admits trade.  The rates are built once, for
    the stop test and the price draw's interval; the epoch is ``_epoch`` on
    one row, the 2x2 kernel's, for every economy and either price prior, and
    the new state is then guarded.
    """
    pareto_tol = _check_pareto_tol(pareto_tol, closed_form=False)
    _check_prior(e, prior)
    trade._check_state(e, y)
    rates = trade._household_rates(e, y.bundles)
    lo, hi = rates.min(axis=0), rates.max(axis=0)
    if np.all(_rates_agree(lo, hi, pareto_tol)):
        return None
    q, sigma, x = _epoch(e, prior, y.bundles[None], lo, hi, lambda sub, k=1: rng.random(k))
    return Allocation(prefs._guard(x[0], "bundles")), q.reshape(e.n_goods - 1), sigma[0].copy()  # no epoch array kept


def _supports_fast_path(cfg: SimConfig) -> bool:
    return (
        cfg.economy.size == 2
        and cfg.economy.n_goods == 2
        and isinstance(cfg.prior.q_prior, (ArctanNormal, UniformArc))
    )


class _Streams:
    """Each run's own stream of uniforms, read in blocks, with one cursor per run.

    Run ``i``, an index ``run_rng`` accepts, reads the uniforms of
    ``run_rng(master_seed, i).random()``.  Philox is counter-based, so a block
    of that stream is a pure function of the key (master_seed, i) and the
    counter of Philox blocks before it: one generator, rekeyed and set to the
    run's counter before each refill, reads every run's stream without
    building a generator per run.
    """

    def __init__(self, master_seed: int, indices: NDArray[np.int64]):
        # a master seed that SimConfig has checked
        self._gen = np.random.Generator(np.random.Philox(key=np.array([master_seed, 0], dtype=np.uint64)))
        # the state set before each refill: key[0] is the master seed,
        # key[1] the run, counter[0] the Philox blocks the run has read, and
        # the spent buffer makes the next draw start a block there; lists,
        # which the state setter reads faster than arrays
        self._state = {
            "bit_generator": "Philox", "state": {"key": [master_seed, 0], "counter": [0, 0, 0, 0]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        self._runs = np.zeros((indices.size, 2), dtype=np.uint64)  # each run's key[1] and counter[0]
        self._runs[:, 0] = indices
        self._buf = np.empty((indices.size, _BLOCK))
        self._pos = np.full(indices.size, _BLOCK)

    def take(self, rows: NDArray[np.int64]) -> FloatArray:
        """The next uniform of each listed run (rows are distinct)."""
        pos = self._pos[rows]
        spent = pos == _BLOCK
        if np.count_nonzero(spent):
            refill = rows[spent]
            key, counter = self._state["state"]["key"], self._state["state"]["counter"]
            philox = self._gen.bit_generator
            for r, (run_key, blocks) in zip(refill.tolist(), self._runs[refill].tolist()):
                key[1], counter[0] = run_key, blocks
                philox.state = self._state
                self._buf[r] = self._gen.random(_BLOCK)
            self._runs[refill, 1] += _BLOCK // 4  # each Philox block holds four draws
            pos[spent] = 0
        self._pos[rows] = pos + 1
        return self._buf[rows, pos]


def _households(live: FloatArray) -> FloatArray:
    """The bundles of the 2x2 kernel's ``live`` rows as a (runs, 2, 2) view: in memory
    goods stay apart, so passes run along runs."""
    return live[3:].reshape(2, 2, -1).transpose(2, 0, 1)


def _run_2x2(cfg: SimConfig, indices: NDArray[np.int64], record: bool):
    """Advance the runs ``indices`` of a 2x2 angle-prior config in lockstep.

    The live runs are the columns of one array; a run leaves once its rates
    agree or it fails, and the others go on.  Rates come from one call of
    the ``prefs`` closed-form core per household group on a ``(runs, 2, 2)``
    view of the bundles, so a pair that shares a family and elasticity is
    one call; each step is one ``_epoch`` on that view, which ``sntp_step``
    runs on one row.  Each run reads its own stream in the order a lone run
    would (price attempts, then the speed draw), so its path does not depend
    on the runs beside it.  A run fails when its epoch fails it.  Failures
    are raised once the batch is done, for the lowest failing run index,
    each with its own error class and the step's rate interval and input
    state.
    """
    n = indices.size
    e, prior, tol = cfg.economy, cfg.prior, cfg.pareto_tol
    streams = _Streams(cfg.master_seed, indices)
    rows = np.arange(n)
    live = np.empty((7, n))  # q, s1, s2 of the last epoch, then y11, y12, y21, y22
    live[:3], live[3:] = np.nan, cfg.initial.bundles.reshape(4, 1)
    last = np.empty((n, 9))  # each run's last table row
    last[:, 0], last[:, 1] = indices, cfg.max_steps
    log = [(rows, live)]
    pareto = np.zeros(n, dtype=bool)
    errors: dict[int, tuple[type[Exception], str]] = {}
    bad: list = []

    def fail(failed, why, kind=SamplingError):
        bad.extend(failed)
        for r in failed:  # live still holds the state before step k
            ctx = f"rate interval ({float(lo[r])!r}, {float(hi[r])!r}); state {live[3:, r].reshape(2, 2).tolist()}"
            errors.setdefault(int(rows[r]), (kind, f"step {k}: {why(r)}; {ctx}"))

    def draw(sub):
        return streams.take(rows[sub])

    y = _households(live)
    for k in range(1, cfg.max_steps + 1):
        m = trade._grouped(prefs._rates, e, y)
        m1, m2 = m[:, 0, 0], m[:, 1, 0]
        lo, hi = np.minimum(m1, m2), np.maximum(m1, m2)
        done = _rates_agree(lo, hi, tol)
        if np.count_nonzero(done):
            pareto[rows[done]], last[rows[done], 1] = True, k - 1
            last[rows[done], 2:] = live[:, done].T
            rows, live, lo, hi = rows[~done], live[:, ~done], lo[~done], hi[~done]
            if not rows.size:
                break
            y = _households(live)
        bad.clear()
        nxt = np.empty((7, rows.size))
        nxt[0], s, y = _epoch(e, prior, y, lo, hi, draw, fail, out=_households(nxt))
        nxt[1:3] = s.T
        live = nxt
        if record:
            log.append((rows, live))
        if bad:
            keep = np.ones(rows.size, dtype=bool)
            keep[bad] = False
            rows, live = rows[keep], live[:, keep]
            if not rows.size:  # every run failed: the error is raised below
                break
            y = _households(live)
    last[rows, 2:] = live.T
    if errors:
        first = min(errors)
        kind, why = errors[first]
        raise kind(f"run {indices[first]}: {why}")
    if not record:
        return last, pareto, None
    # run r's rows start after the earlier runs' steps + 1; each epoch's
    # entry goes to its step's row and is dropped once written
    counts = last[:, 1].astype(np.int64) + 1
    offset = np.cumsum(counts) - counts
    table = np.empty((int(counts.sum()), 9))
    for k in range(len(log)):
        runs, states = log[k]
        log[k] = None
        table[offset[runs] + k, 2:] = states.T
    table[:, 0] = np.repeat(indices, counts)
    table[:, 1] = np.arange(table.shape[0]) - np.repeat(offset, counts)
    return last, pareto, table


def _run_generic(cfg: SimConfig, indices: NDArray[np.int64], record: bool):
    """The runs ``indices`` one after another, one ``sntp_step`` per epoch."""
    undrawn = np.full(cfg.economy.n_goods - 1 + cfg.economy.size, np.nan)
    last, pareto, log = [], [], []
    for i in indices:
        rng = run_rng(cfg.master_seed, i)
        state, done = cfg.initial, False
        row = np.concatenate([[i, 0], undrawn, state.bundles.ravel()])
        log += [row] if record else []
        for k in range(1, cfg.max_steps + 1):
            try:
                step = sntp_step(cfg.economy, state, cfg.prior, rng, cfg.pareto_tol)
            except (SamplingError, DomainDegeneracyError) as exc:
                raise type(exc)(f"run {i}: step {k}: {exc}; state {state.bundles.tolist()}") from exc
            if step is None:
                done = True
                break
            state, q, sigma = step
            row = np.concatenate([[i, k], q, sigma, state.bundles.ravel()])
            log += [row] if record else []
        last.append(row)
        pareto.append(done)
    return np.stack(last), np.array(pareto), np.stack(log) if record else None


def _run_batch(cfg: SimConfig, indices: NDArray[np.int64], record: bool):
    """Each run's last table row and Pareto flag, and with ``record`` every row.

    Table rows hold run, step, q, sigma and the bundles (see
    ``OutcomeDistribution.trace``), in run then step order.
    """
    kernel = _run_2x2 if _supports_fast_path(cfg) else _run_generic
    return kernel(cfg, indices, record)


def run_trajectory(cfg: SimConfig, run_index: int) -> Trajectory:
    """The full recorded path for one run index (as ``run_rng`` takes it); bit-identical on repeats."""
    _, pareto, table = _run_batch(cfg, np.array([prefs._check_int(run_index, "run index", 0, _MAX_KEY)]), record=True)
    terminal = Terminal.PARETO_REACHED if pareto[0] else Terminal.STEP_CAP
    return Trajectory(table, terminal)


def run_monte_carlo(
    cfg: SimConfig, workers: int | None = None, bins: int = _HISTOGRAM_BINS, trace: bool = False
) -> OutcomeDistribution:
    """All runs of the configuration, folded into an outcome distribution.

    Runs go in chunks of ``_CHUNK``; ``workers`` > 1 maps the chunks over
    processes.  Per-run streams make every output independent of chunking
    and scheduling, and chunks are folded in run order.  With ``trace`` the
    distribution carries every recorded state.  A failed run aborts the
    whole batch with its diagnostics; a bad ``bins`` or ``workers`` fails first.
    """
    bins = prefs._check_int(bins, "bins", 1, _MAX_BINS)
    chunks = [np.arange(s, min(s + _CHUNK, cfg.runs)) for s in range(0, cfg.runs, _CHUNK)]
    if workers is not None and prefs._check_int(workers, "workers", 1) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: its import costs ~20 ms

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_run_batch, [cfg] * len(chunks), chunks, [trace] * len(chunks)))
    else:
        batches = [_run_batch(cfg, chunk, trace) for chunk in chunks]
    last, pareto = (np.concatenate([batch[k] for batch in batches]) for k in (0, 1))
    h, l = cfg.economy.size, cfg.economy.n_goods
    qs, steps = last[:, 2 : l + 1], last[:, 1].astype(np.int64)
    qs[steps == 0] = prefs.substitution_rates(cfg.economy.specs[0], cfg.initial.bundle(0))  # never moved
    tags = [Terminal.PARETO_REACHED if p else Terminal.STEP_CAP for p in pareto]
    dist = summarize(last[:, l + 1 + h :].reshape(-1, h, l), qs, steps, tags, bins=bins)
    if trace:  # a lone chunk's table is handed over; more are copied into one, each dropped once copied
        tables = [batch[2] for batch in batches]
        del batches
        dist.trace = tables.pop() if len(tables) == 1 else np.empty((sum(map(len, tables)), tables[0].shape[1]))
        end = 0
        while tables:
            table = tables.pop(0)
            dist.trace[end : end + len(table)] = table
            end += len(table)
    return dist


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
    Every run climbs the same ladder, so each run draws only its coin flips
    and the ladder is walked once, as far as the longest run climbs.  Near
    t = 52 the price rounds to within an ulp of 1 and a rung admits no
    trade; the state is then frozen, and later stop times share its outcome.
    """
    runs = prefs._check_int(runs, "runs", 1)
    steps = np.empty(runs, dtype=np.int64)
    for r in range(runs):
        t = 1
        while t < 64 and rng.random() >= 0.5:
            t += 1
        steps[r] = t
    e = Economy.of((prefs.UtilitySpec.cobb_douglas_log([0.5, 0.5]),) * 2)
    y = np.array([[2.0, 1.0], [1.0, 2.0]])
    outcomes = [trade._grouped(trade._path_end, e, y, np.ones(2))]  # [j - 1]: stop time j
    for t in range(1, int(steps.max())):
        dirs = trade._grouped(trade._path_end, e, y, np.array([1.0 - 2.0 ** -(t + 1), 1.0])) - y
        norms = np.linalg.norm(dirs, axis=1)
        if norms.min() == 0.0:
            break
        y = y + trade._ray_speeds(norms[:1], norms[1:])[0][:, None] * dirs
        outcomes.append(trade._grouped(trade._path_end, e, y, np.ones(2)))
    tags = [Terminal.PARETO_REACHED] * runs
    qs = np.ones((runs, 1))
    return summarize(np.stack(outcomes)[np.minimum(steps, len(outcomes)) - 1], qs, steps, tags)
