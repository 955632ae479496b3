from __future__ import annotations

import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull
from scipy.stats import ks_2samp

from edgeworth import engine, prefs, trade
from edgeworth.errors import DomainDegeneracyError, SamplingError, SpecificationError
from edgeworth.prefs import UtilitySpec
from edgeworth.trade import Allocation, BoxSet, Economy, SpeedPrior

from oracles import box_contains as box_contains_reference
from oracles import (
    clearing_price,
    exact_speed_vertices,
    exact_trade_volume,
    exact_volume_l2,
    log_uniform,
    rank_within_rounding,
    reference_advance,
    reference_each,
    reference_fan,
    reference_polygon_sample,
    reference_polygon_speeds,
    reference_polytope_sample,
    reference_rejection_draw,
)

pytestmark = pytest.mark.dispatch


def _random_state(draw: np.random.Generator, goods: int, households: int):
    """A random CD/CES economy over ``goods`` goods and a state with bundles in [0.2, 5]."""
    specs = []
    for _ in range(households):
        w = draw.uniform(0.2, 1.0, goods)
        w = w / w.sum()
        if draw.random() < 0.5:
            specs.append(UtilitySpec.cobb_douglas_log(w))
        else:
            specs.append(UtilitySpec.ces(w, float(draw.uniform(0.2, 0.8))))
    return Economy.of(specs), Allocation(log_uniform(draw, (households, goods), 0.2, 5.0))


def _ulps(v: float, k: int) -> float:
    for _ in range(abs(k)):
        v = np.nextafter(v, np.inf if k > 0 else 0.0)
    return v


def _edge_atoms(box: BoxSet, base: np.ndarray, offsets=range(-4, 5)) -> list[np.ndarray]:
    """``base`` with one coordinate moved onto, or ``offsets`` ulps off, each of its rate bounds."""
    n = box.lower_rates.shape[0]
    p = np.append(base, 1.0)
    atoms = [base]
    for k in range(n - 1):
        for j in range(n):
            if j == k:
                continue
            lo = p[j] * box.lower_rates[k, j]
            hi = p[j] * box.upper_rates[k, j]
            for edge in (lo, hi, lo * (1.0 - 1e-12), hi * (1.0 + 1e-12)):
                for k_ulps in offsets:
                    q = base.copy()
                    q[k] = _ulps(edge, k_ulps)
                    atoms.append(q)
    return atoms


# four traders over three goods at p = (1, 1, 1), every direction shorter
# than 1: the speed polytope is a triangle, drawn from its enumerated vertices
FOUR_BY_THREE = (
    Economy.of(
        [
            UtilitySpec.ces(np.array([0.2, 0.3, 0.5]), 0.5),
            UtilitySpec.ces(np.array([0.5, 0.3, 0.2]), 0.5),
            UtilitySpec.cobb_douglas_log(np.array([0.3, 0.4, 0.3])),
            UtilitySpec.cobb_douglas_log(np.array([0.4, 0.2, 0.4])),
        ]
    ),
    Allocation(np.array([[0.6, 0.4, 0.45], [0.4, 0.6, 0.55], [0.55, 0.4, 0.45], [0.4, 0.55, 0.6]])),
)

# the bench's 4x3 households (CES, elasticity 0.5), and the state the
# seed-1 4x3_tabulated run 3 reached at step 100 under the relaxed LP
_WEIGHTS_4X3 = ([0.2, 0.3, 0.5], [0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.4, 0.2, 0.4])
STALLED_4X3 = [
    [0.8897606802378132, 1.3314231496393105, 1.6370548502524944],
    [1.5979074640078608, 0.5905640127362574, 0.19018493871546935],
    [0.6075076508378165, 1.0800136014877482, 0.32038923065335995],
    [2.0527242050322765, 0.8368992356573141, 0.9516709806445564],
]

# the four households of test_enumerated_polytope_four_households_three_goods at a
# state and its clearing rates where probe LPs found only the vertices 0 and
# (1, 1, 1, 1) of a quadrilateral speed polytope
QUADRILATERAL = (
    Economy.of(
        [
            UtilitySpec.ces(np.array([0.2, 0.3, 0.5]), 0.5),
            UtilitySpec.ces(np.array([0.5, 0.3, 0.2]), 0.5),
            UtilitySpec.cobb_douglas_log(np.array([0.3, 0.4, 0.3])),
            UtilitySpec.cobb_douglas_log(np.array([0.4, 0.2, 0.4])),
        ]
    ),
    Allocation(np.array([[1.06, 0.71, 0.74], [0.73, 1.52, 1.65], [2.0, 1.43, 0.57], [0.6, 1.54, 1.15]])),
)
QUADRILATERAL_RATES = np.array([1.0547057581221055, 0.7438921218404685])

# three Cobb-Douglas traders over two goods at p = (1, 1): the speed
# polytope is a polygon in R^3, drawn in closed form
THREE_BY_TWO = (
    Economy.of([UtilitySpec.cobb_douglas_log([0.5, 0.5])] * 3),
    Allocation(np.array([[2.0, 1.0], [1.0, 2.0], [1.5, 0.8]])),
)


@pytest.fixture
def cd_economy(cd) -> Economy:
    return Economy.of([cd, cd])


@pytest.fixture
def ces_economy(ces, ces73) -> Economy:
    return Economy.of([ces, ces73])


@pytest.fixture
def shock() -> Allocation:
    """The post-shock state used throughout the worked examples."""
    return Allocation(np.array([[2.0, 1.0], [1.0, 2.0]]))


class TestTypes:
    def test_economy_needs_two_households(self, cd):
        with pytest.raises(SpecificationError):
            Economy.of([cd])

    def test_economy_rejects_mixed_dimensions(self, cd):
        other = UtilitySpec.cobb_douglas_log([0.2, 0.3, 0.5])
        with pytest.raises(SpecificationError):
            Economy.of([cd, other])

    def test_allocation_positivity(self):
        with pytest.raises(SpecificationError):
            Allocation(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_speed_bounds(self, cd_economy, shock):
        with pytest.raises(SpecificationError):
            trade.speed_contains(cd_economy, shock, [1.0, 1.0], np.array([0.5, 1.2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_speed_bounds_reject_non_finite(self, cd_economy, shock, bad):
        got = re.escape(" ".join(repr(np.array([bad, 0.5])).split()))  # the message's one line
        with pytest.raises(SpecificationError, match=rf"^sigma must be a vector of H = 2 speeds in \[0, 1\], got {got}$"):
            trade.speed_contains(cd_economy, shock, [1.0, 1.0], np.array([bad, 0.5]))

    def test_state_below_the_floor_is_domain_degenerate(self, cd_economy):
        y = Allocation(np.array([[1e-305, 1.0], [1.0, 1.0]]))
        for check in (trade.household_rates, trade.msr_extremes):
            with pytest.raises(DomainDegeneracyError, match="^bundle coordinate below 1e-300$"):
                check(cd_economy, y)
        with pytest.raises(DomainDegeneracyError, match="^bundle coordinate below 1e-300$"):
            trade.all_trade_directions(cd_economy, y, [1.0, 1.0])

    def test_speed_draw_is_a_float_vector(self, cd_economy, shock, rng):
        for prior in SpeedPrior:
            sigma = trade.sample_speed(cd_economy, shock, [1.0, 1.0], prior, rng)
            assert type(sigma) is np.ndarray and sigma.dtype == np.float64 and sigma.shape == (2,)
        assert trade.speed_contains(cd_economy, shock, [1.0, 1.0], [1.0, 1.0])  # any sequence comes in

    def test_boxset_reciprocity_enforced(self):
        with pytest.raises(SpecificationError):
            BoxSet(np.array([[1.0, 0.5], [1.0, 1.0]]), np.array([[1.0, 2.0], [2.5, 1.0]]))


class TestTradeDirection:
    def test_worked_example(self, cd_economy, shock):
        d = trade.all_trade_directions(cd_economy, shock, [1.0, 1.0])[0]
        np.testing.assert_allclose(d, [-0.5, 0.5], atol=1e-14)

    def test_zero_at_supporting_prices(self, cd_economy, shock, cd):
        p = prefs.inverse_normalized_demand(cd, shock.bundle(0))
        d = trade.all_trade_directions(cd_economy, shock, p)[0]
        np.testing.assert_allclose(d, 0.0, atol=1e-12)

    def test_budget_neutrality(self, ces_economy, rng):
        for _ in range(50):
            y = Allocation(log_uniform(rng, (2, 2)))
            p = log_uniform(rng, 2)
            for d in trade.all_trade_directions(ces_economy, y, p):
                assert abs(float(p @ d)) <= 1e-10 * max(1.0, float(np.linalg.norm(d)))


class TestLinearPath:
    def test_endpoints(self, cd_economy, shock):
        d = trade.all_trade_directions(cd_economy, shock, [1.0, 1.0])[0]
        np.testing.assert_allclose(shock.bundle(0) + 0.0 * d, [2.0, 1.0])
        np.testing.assert_allclose(shock.bundle(0) + 1.0 * d, [1.5, 1.5])

    def test_utility_strictly_increasing(self, ces_economy, rng):
        for _ in range(20):
            y = Allocation(log_uniform(rng, (2, 2)))
            p = log_uniform(rng, 2)
            dirs = trade.all_trade_directions(ces_economy, y, p)
            for h, spec in enumerate(ces_economy.specs):
                if np.linalg.norm(dirs[h]) < 1e-9:
                    continue
                grid = np.linspace(0.0, 1.0, 100)
                values = [prefs.utility(spec, y.bundle(h) + t * dirs[h]) for t in grid]
                assert all(b > a for a, b in zip(values, values[1:]))


class TestSpeedSet:
    def test_example3_membership(self, cd_economy, shock):
        assert trade.speed_contains(cd_economy, shock, [1.0, 1.0], np.array([1.0, 1.0]))

    def test_no_trade_speed_rejected(self, cd_economy, shock):
        assert not trade.speed_contains(
            cd_economy, shock, [1.0, 1.0], np.array([0.0, 0.0])
        )

    def test_example3_offspeed_ray(self, cd_economy, shock):
        # q = 0.75: the balancing partner speed is 0.4
        assert trade.speed_contains(
            cd_economy, shock, [0.75, 1.0], np.array([1.0, 0.4])
        )
        assert not trade.speed_contains(
            cd_economy, shock, [0.75, 1.0], np.array([1.0, 0.8])
        )

    @pytest.mark.parametrize("use", [trade.speed_contains], ids=["speed_contains"])
    def test_speed_length_must_match_the_households(self, cd_economy, shock, use):
        # a one-speed vector would broadcast over both households
        with pytest.raises(SpecificationError, match=r"^sigma must be a vector of H = 2 speeds in \[0, 1\], got array\(\[0\.5\]\)$"):
            use(cd_economy, shock, [1.0, 1.0], np.array([0.5]))


#: Within this relative distance of the threshold the exact optimum leaves
#: the screen free: its rounding can move the largest volume that far.
_BAND = 1e-6


def _reference_trade(e: Economy, y: Allocation, p) -> bool | None:
    """The exact polytope's answer, or None where rounding decides it.

    At L = 2 the closed form 2 min(P, N), summed household by household,
    decides every price; beyond, the ``Fraction`` vertices do, except where
    their optimum lies within ``_BAND`` of the threshold or the directions
    within ``_BAND`` of a lower rank (``rank_within_rounding``).
    """
    if e.n_goods == 2:
        volume, threshold = exact_volume_l2(e, y, p)
        return volume > threshold
    volume, threshold = exact_trade_volume(e, y, p)
    if abs(volume - threshold) <= _BAND * threshold or rank_within_rounding(e, y, p, _BAND):
        return None
    return volume > threshold


def _has_trade(e: Economy, y: Allocation, p) -> bool:
    """``has_trade``, checked against the decision it answers for."""
    got = trade.has_trade(e, y, p)
    assert _reference_trade(e, y, p) in (None, got)
    return got


class TestHasTrade:
    def test_example3_interval_membership(self, cd_economy, shock):
        assert trade.has_trade(cd_economy, shock, [1.0, 1.0])
        assert not trade.has_trade(cd_economy, shock, [3.0, 1.0])

    def test_long_directions_need_opposition(self, cd_economy):
        # rates 1 and 2; direction norms near 100 must not let their
        # rounding alone pass for trade
        y = Allocation(np.array([[100.0, 100.0], [100.0, 200.0]]))
        assert _has_trade(cd_economy, y, [1.5, 1.0])
        for q in (0.5, 3.0, 30.0):
            assert not _has_trade(cd_economy, y, [q, 1.0])

    def test_contract_curve_points_admit_no_trade(self, cd_economy):
        for t in (0.5, 1.5, 2.5):
            y = Allocation(np.array([[t, t], [3.0 - t, 3.0 - t]]))
            for q in (0.6, 1.0, 1.7):
                assert not trade.has_trade(cd_economy, y, [q, 1.0])

    def test_interval_sweep_ces(self, ces_economy, shock):
        lo, hi = trade.trade_interval_2x2(ces_economy, shock)
        for q in np.arange(lo + 1e-3, hi, 1e-3):
            assert trade.has_trade(ces_economy, shock, [float(q), 1.0])
        assert not trade.has_trade(ces_economy, shock, [lo, 1.0])
        assert not trade.has_trade(ces_economy, shock, [hi, 1.0])
        assert not trade.has_trade(ces_economy, shock, [lo - 0.05, 1.0])
        assert not trade.has_trade(ces_economy, shock, [hi + 0.05, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(
        households=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        u=st.floats(0.0, 1.0),
        outside=st.floats(1e-6, 1.0),
        above=st.booleans(),
    )
    def test_closed_form_interval_matches_lp(self, households, seed, u, outside, above):
        # L = 2: trade exists iff q lies strictly between the extreme rates
        draw = np.random.default_rng(seed)
        specs = [
            UtilitySpec.cobb_douglas_log([a, 1.0 - a])
            if draw.random() < 0.5
            else UtilitySpec.ces([a, 1.0 - a], float(draw.uniform(0.2, 0.8)))
            for a in draw.uniform(0.2, 0.8, households)
        ]
        e = Economy.of(specs)
        y = Allocation(log_uniform(draw, (households, 2), 0.2, 5.0))
        rates = [float(prefs.substitution_rates(s, b)[0]) for s, b in zip(specs, y.bundles)]
        lo, hi = min(rates), max(rates)
        inner_lo, inner_hi = lo * (1.0 + 1e-6), hi * (1.0 - 1e-6)
        if inner_lo < inner_hi:
            q = inner_lo + u * (inner_hi - inner_lo)
            assert _has_trade(e, y, [q, 1.0])
        if above:
            q_out = hi * (1.0 + 1e-6) * (1.0 + outside)
        else:
            q_out = lo * (1.0 - 1e-6) / (1.0 + outside)
        assert not _has_trade(e, y, [q_out, 1.0])

    def test_lp_sliver_is_no_trade(self):
        # a bench atom (generic seed 3, run 2) where the largest exact volume
        # 2 min(P, N) is 0.99897 of the threshold: the LP's former 1e-11
        # cancellation slack alone lifted its optimum over it
        e = Economy.of([UtilitySpec.ces([0.5, 0.5], 0.5), UtilitySpec.ces([0.7, 0.3], 0.5)])
        y = Allocation(np.array([[1.1513410004144027, 2.3089701583740565], [1.8486589995855987, 0.691029841625944]]))
        p = [1.4265821370411313, 1.0]
        volume, threshold = exact_volume_l2(e, y, p)
        assert volume / threshold == pytest.approx(0.99897, abs=1e-5)
        assert exact_trade_volume(e, y, p)[0] / threshold == pytest.approx(0.99897, abs=1e-5)
        assert not trade.has_trade(e, y, p)

    def test_three_good_sliver_is_no_trade(self):
        # the seed-1 4x3_tabulated run 3 at step 100 under the relaxed LP: the
        # atom (0.726, 0.726) is in the box, the LP's slack admitted it at
        # every step, and the exact polytope is the point 0
        e = Economy.of([UtilitySpec.ces(w, 0.5) for w in _WEIGHTS_4X3])
        y = Allocation(np.array(STALLED_4X3))
        p = [0.7262114280571625, 0.7262114280571625, 1.0]
        assert trade.box_contains(trade.msr_extremes(e, y), p[:2])
        assert exact_trade_volume(e, y, p)[0] == 0.0
        assert not trade.has_trade(e, y, p)

    def test_many_households_three_goods(self, rng):
        specs = [
            UtilitySpec.ces(np.array([0.2, 0.3, 0.5]), 0.5),
            UtilitySpec.ces(np.array([0.5, 0.3, 0.2]), 0.4),
            UtilitySpec.cobb_douglas_log(np.array([0.3, 0.4, 0.3])),
            UtilitySpec.cobb_douglas_log(np.array([0.4, 0.2, 0.4])),
        ]
        e = Economy.of(specs)
        y = Allocation(log_uniform(rng, (4, 3), 0.5, 2.0))
        q = clearing_price(e, y)
        assert trade.has_trade(e, y, np.append(q, 1.0))

    @pytest.mark.parametrize("goods", [3, 4])
    def test_clearing_prices_admit_trade_with_fewer_households_than_rates(self, goods, rng):
        # H <= L - 1 directions that cancel at the clearing prices span a
        # lower rank only up to rounding: the screen reads that rank, so
        # everyone can trade to demand, where the exact vertices of the
        # float directions find only 0
        e = Economy.of([UtilitySpec.ces(w / w.sum(), 0.5) for w in rng.uniform(0.2, 1.0, (goods - 1, goods))])
        y = Allocation(log_uniform(rng, (goods - 1, goods), 0.5, 2.0))
        p = np.append(clearing_price(e, y), 1.0)
        assert rank_within_rounding(e, y, p, _BAND)
        assert trade.has_trade(e, y, p)
        for s_prior in SpeedPrior:
            sigma = trade.sample_speed(e, y, p, s_prior, rng)
            assert trade.speed_contains(e, y, p, sigma)
            np.testing.assert_allclose(sigma, sigma.max(), rtol=1e-9)  # the segment from 0 to (1, ..., 1)

    def test_state_is_checked_once(self, cd_economy, shock, monkeypatch):
        calls = []
        check_state = trade._check_state
        monkeypatch.setattr(trade, "_check_state", lambda e, y: calls.append(y) or check_state(e, y))
        assert trade.has_trade(cd_economy, shock, [1.0, 1.0])
        assert calls == [shock]

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([1.0, 1.0, 1.0], "expected 2 goods, got 3"),
            ([[1.0, 1.0]], "a price must be a vector"),
            ([1.0, 0.0], "price coordinates must be strictly positive"),
            ([1.0, np.inf], "price coordinates must be finite"),
            ([np.nan, 1.0], "price coordinates must be finite"),
        ],
    )
    def test_price_is_checked(self, cd_economy, shock, bad, message):
        with pytest.raises(SpecificationError, match=f"^{message}"):
            trade.has_trade(cd_economy, shock, bad)


class TestScreenTrade:
    @staticmethod
    def _household(draw: np.random.Generator, goods: int):
        w = draw.uniform(0.2, 1.0, goods)
        family = draw.integers(3)
        if family == 0:
            return UtilitySpec.cobb_douglas_log(w / w.sum())
        if family == 1:
            return UtilitySpec.ces(w / w.sum(), float(draw.uniform(0.2, 0.8)))
        return UtilitySpec.multiplicative(w * draw.uniform(0.5, 3.0))

    @settings(max_examples=60, deadline=None)
    @given(
        goods=st.sampled_from([2, 3, 4]),
        households=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_decisions_match_the_lp(self, goods, households, seed):
        # atoms in the box, on each household's own rate and on the box's
        # edges, each also 1-4 ulps off, where the LP's optimum sits nearest
        # its threshold; the screen must answer as the exact polytope, whose
        # vertices solve that LP, wherever its optimum clears the rounding band
        draw = np.random.default_rng(seed)
        e = Economy.of([self._household(draw, goods) for _ in range(households)])
        y = Allocation(log_uniform(draw, (households, goods), 0.2, 5.0))
        box = trade.msr_extremes(e, y)
        lo, hi = box.lower_rates[:-1, -1], box.upper_rates[:-1, -1]
        inside = np.exp(draw.uniform(np.log(lo), np.log(hi), (8, goods - 1)))
        bases = [*trade.household_rates(e, y), *inside[:2]]
        atoms = [*inside]
        for base in bases:
            atoms += _edge_atoms(box, base, offsets=(-4, -1, 0, 1, 4))
            for k in range(goods - 1):
                for k_ulps in (-4, -2, -1, 1, 2, 3, 4):
                    q = base.copy()
                    q[k] = _ulps(q[k], k_ulps)
                    atoms.append(q)
        prices = np.concatenate([np.array(atoms), np.ones((len(atoms), 1))], axis=1)
        got = trade._screen(e, y.bundles, prices)
        want = [_reference_trade(e, y, p) for p in prices]
        assert got.dtype == bool and got.shape == (len(atoms),)
        assert all(w is None or w == g for g, w in zip(got.tolist(), want))

    @settings(max_examples=40, deadline=None)
    @given(
        goods=st.sampled_from([2, 3, 4]),
        households=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_oracle_decides_and_admitted_prices_move(self, goods, households, seed):
        # in-box atoms and the households' own rates: wherever the exact
        # optimum (``fractions.Fraction`` vertices of the float directions)
        # lies more than _BAND from the threshold, and the directions more
        # than _BAND from a lower rank, the screen answers as it does; at
        # every admitted price a speed draw under either prior cancels
        # aggregate trade while moving someone
        draw = np.random.default_rng(seed)
        e = Economy.of([self._household(draw, goods) for _ in range(households)])
        y = Allocation(log_uniform(draw, (households, goods), 0.2, 5.0))
        box = trade.msr_extremes(e, y)
        lo, hi = box.lower_rates[:-1, -1], box.upper_rates[:-1, -1]
        atoms = np.vstack([np.exp(draw.uniform(np.log(lo), np.log(hi), (12, goods - 1))), trade.household_rates(e, y)])
        prices = np.concatenate([atoms, np.ones((len(atoms), 1))], axis=1)
        got = trade._screen(e, y.bundles, prices)
        for admitted, p in zip(got.tolist(), prices):
            volume, threshold = exact_trade_volume(e, y, p)
            if abs(volume - threshold) > _BAND * threshold and not rank_within_rounding(e, y, p, _BAND):
                assert admitted == (volume > threshold)
            if admitted:
                for s_prior in SpeedPrior:
                    assert trade.speed_contains(e, y, p, trade.sample_speed(e, y, p, s_prior, draw))

    @pytest.mark.parametrize("goods", [2, 3])
    def test_paired_bundles_decide_as_one_state_each(self, goods):
        # each price at its own allocation: at a household's rates (the LP's
        # hardest rows), 1-3 ulps off them, or within 10% of them
        draw = np.random.default_rng(goods)
        e = Economy.of([self._household(draw, goods) for _ in range(3)])
        bundles = log_uniform(draw, (90, 3, goods), 0.2, 5.0)
        rates = np.stack([trade.household_rates(e, Allocation(b))[g % 3] for g, b in enumerate(bundles)])
        rates[::3] *= draw.uniform(0.9, 1.1, rates[::3].shape)
        for g in range(1, 90, 3):
            rates[g] = [_ulps(v, int(draw.integers(-3, 4))) for v in rates[g]]
        prices = np.concatenate([rates, np.ones((90, 1))], axis=1)
        got = trade._screen(e, bundles, prices)
        want = [trade.has_trade(e, Allocation(b), p) for b, p in zip(bundles, prices)]
        np.testing.assert_array_equal(got, want)
        assert 0 < np.count_nonzero(got) < got.size

    def test_no_lp_runs_at_two_goods(self, monkeypatch):
        # three households on a tabulated prior, with atoms near the extreme
        # rates where the exact volume 2 min(P, N) lies within 0.5% of the
        # threshold: the screen decides every atom in closed form, enumerating
        # no vertices, and so does the step's own draw; every step's speeds
        # are the ray or the polygon of the epoch's line draw
        def refuse(*args, **kwargs):
            raise AssertionError("vertices were enumerated at L = 2")

        monkeypatch.setattr(trade, "_vertices", refuse)
        e = Economy.of([UtilitySpec.ces(w, 0.5) for w in ([0.3, 0.7], [0.6, 0.4], [0.5, 0.5])])
        y = Allocation(np.array([[2.0, 1.0], [1.0, 2.0], [1.5, 0.5]]))
        rates = trade.household_rates(e, y)[:, 0]
        atoms = list(np.geomspace(0.25, 4.0, 200))
        for r in (rates.min(), rates.max()):
            q = r * (1.0 + 1e-7 * np.sign(rates.mean() - r))
            volume, threshold = exact_volume_l2(e, y, [q, 1.0])
            step = (q - r) * threshold / volume  # the volume meets the threshold there, to first order
            atoms += [r + step * (1.0 + k * 1e-3) for k in range(-5, 6)]
        prices = np.stack([atoms, np.ones(len(atoms))], axis=1)
        got = trade._screen(e, y.bundles, prices)
        want = [volume > threshold for volume, threshold in (exact_volume_l2(e, y, p) for p in prices)]
        np.testing.assert_array_equal(got, want)
        assert 0 < np.count_nonzero(got[200:]) < 22
        prior = engine.PriorSpec(engine.Tabulated(np.array(atoms), np.ones(len(atoms))), SpeedPrior.UNIFORM_CUBE)
        admits, line_speeds = trade._line_admits, trade._line_speeds
        decided, drawn = [], []
        monkeypatch.setattr(trade, "_line_admits", lambda d, n: decided.append(admits(d, n)) or decided[-1])
        monkeypatch.setattr(trade, "_line_speeds", lambda *args: drawn.append(args) or line_speeds(*args))
        traj = engine.run_trajectory(engine.SimConfig(e, y, prior, master_seed=3, max_steps=20), 0)
        assert traj.steps > 0 and len(drawn) == traj.steps
        # the first step screens the atoms in the start's rate interval as the exact volume does
        inside = (rates.min() * (1.0 - 1e-12) <= prices[:, 0]) & (prices[:, 0] <= rates.max() * (1.0 + 1e-12))
        assert np.count_nonzero(inside) > 22  # the 22 atoms at the threshold among them
        np.testing.assert_array_equal(decided[0], np.array(want)[inside])

    def test_direction_of_the_degenerate_length_is_active(self, monkeypatch, rng):
        # a direction exactly DEGENERATE_DIRECTION long trades: with it, the
        # longer side sums to 5e-10 + 0.5e-12 and 2 min(P, N) clears the 1e-9
        # threshold; without it, it falls short
        tie = trade.DEGENERATE_DIRECTION
        dirs = np.array([[[tie, 0.0], [5e-10 - 0.5e-12, 0.0], [-1.0, 0.0]]])
        monkeypatch.setattr(trade, "_directions", lambda e, bundles, p: dirs)
        e = Economy.of([UtilitySpec.cobb_douglas_log([0.5, 0.5])] * 3)
        assert trade._screen(e, np.ones((3, 2)), np.ones((1, 2))).tolist() == [True]
        # the draw counts it too: with two actives it rides the ray, not "fewer than two"
        sigma = trade._sample_speed(np.array([[tie, 0.0], [-1.0, 0.0]]), np.ones(2), SpeedPrior.MAX_SPEED, rng.random)
        np.testing.assert_array_equal(sigma, [1.0, tie])

    @pytest.mark.parametrize("goods", [2, 3])
    def test_economies_over_the_vertex_cap_are_refused(self, goods, rng):
        # seven households: C(7, 1) 2^6 = 448 candidates per price at rank 1,
        # and C(7, 2) 2^5 = 672 at rank 2
        e = Economy.of([UtilitySpec.cobb_douglas_log(np.full(goods, 1.0 / goods))] * 7)
        y = Allocation(log_uniform(rng, (7, goods), 0.5, 2.0))
        p = np.ones(goods)
        count = {2: 448, 3: 672}[goods]
        message = f"7 households over {goods} goods need {count} candidate speed vertices per price, more than 256"
        for call in (lambda: trade.has_trade(e, y, p), lambda: trade.sample_speed(e, y, p, SpeedPrior.UNIFORM_CUBE, rng)):
            with pytest.raises(SpecificationError, match=f"^{re.escape(message)}$"):
                call()
        prior = engine.PriorSpec(engine.Tabulated(np.ones((1, goods - 1)), [1.0]), SpeedPrior.UNIFORM_CUBE)
        with pytest.raises(SpecificationError, match=f"^{re.escape(message)}$"):
            engine.SimConfig(e, y, prior, master_seed=1)
        trade.has_trade(Economy.of(e.specs[:6]), Allocation(y.bundles[:6]), p)  # six fit: at most 240

    def test_empty_stack(self, cd_economy, shock):
        assert trade._screen(cd_economy, shock.bundles, np.empty((0, 2))).shape == (0,)

    def test_directions_that_are_not_finite(self, monkeypatch):
        # the engine's atom draw decides unguarded path ends: a NaN direction
        # is idle, so two opposed traders beside it trade, and a row with an
        # infinite direction admits nothing, at L = 3 without enumerating it
        dirs = np.array([
            [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [math.nan] * 3],
            [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [math.inf, -math.inf, 0.0]],
        ])
        shapes, vertices = [], trade._vertices
        monkeypatch.setattr(trade, "_vertices", lambda A: shapes.append(A.shape) or vertices(A))
        assert trade._decide(dirs, np.ones((2, 3))).tolist() == [True, False]
        assert shapes == [(1, 2, 3)]
        assert trade._decide(dirs[..., :2], np.ones((2, 2))).tolist() == [True, False]


class TestIntervalAndBox:
    def test_example3_interval(self, cd_economy, shock):
        lo, hi = trade.trade_interval_2x2(cd_economy, shock)
        assert (lo, hi) == pytest.approx((0.5, 2.0))

    def test_equal_rates_empty(self, cd_economy):
        y = Allocation(np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert trade.trade_interval_2x2(cd_economy, y) is None

    def test_extremes_worked_example(self, cd_economy, shock):
        box = trade.msr_extremes(cd_economy, shock)
        assert box.lower_rates[0, 1] == pytest.approx(0.5)
        assert box.upper_rates[0, 1] == pytest.approx(2.0)

    def test_identical_bundles_collapse(self, cd_economy):
        y = Allocation(np.array([[1.5, 2.5], [1.5, 2.5]]))
        box = trade.msr_extremes(cd_economy, y)
        np.testing.assert_allclose(box.lower_rates, box.upper_rates)

    def test_reciprocity_random(self, ces_economy, rng):
        for _ in range(50):
            y = Allocation(log_uniform(rng, (2, 2)))
            box = trade.msr_extremes(ces_economy, y)
            np.testing.assert_allclose(box.lower_rates * box.upper_rates.T, 1.0, atol=1e-12)

    def test_box_contains_reduces_to_interval(self, cd_economy, shock):
        box = trade.msr_extremes(cd_economy, shock)
        assert trade.box_contains(box, [1.0])
        assert not trade.box_contains(box, [3.0])

    def test_box_contains_rejects_a_nan_rate(self, cd_economy, shock):
        box = trade.msr_extremes(cd_economy, shock)
        for q, form in (([np.nan], "a vector"), ([[1.0], [np.nan]], "a stack of vectors")):
            message = f"q must be {form} of L - 1 = 1 finite positive rates, got {q!r}"
            with pytest.raises(SpecificationError, match=f"^{re.escape(message)}$"):
                trade.box_contains(box, q)

    def test_own_rate_always_inside(self, ces_economy, rng, ces):
        for _ in range(25):
            y = Allocation(log_uniform(rng, (2, 2)))
            box = trade.msr_extremes(ces_economy, y)
            q = prefs.substitution_rates(ces, y.bundle(0))
            assert trade.box_contains(box, q)

    def test_trade_implies_box_2x2(self, ces_economy, shock):
        box = trade.msr_extremes(ces_economy, shock)
        for q in np.linspace(0.05, 4.0, 400):
            if trade.has_trade(ces_economy, shock, [float(q), 1.0]):
                assert trade.box_contains(box, [float(q)])

    def test_trade_implies_box_three_goods(self, rng):
        specs = [
            UtilitySpec.ces(np.array([0.2, 0.3, 0.5]), 0.5),
            UtilitySpec.ces(np.array([0.5, 0.3, 0.2]), 0.5),
            UtilitySpec.ces(np.array([0.3, 0.4, 0.3]), 0.5),
            UtilitySpec.ces(np.array([0.4, 0.2, 0.4]), 0.5),
        ]
        e = Economy.of(specs)
        y = Allocation(log_uniform(rng, (4, 3), 0.5, 2.0))
        box = trade.msr_extremes(e, y)
        q_eq = clearing_price(e, y)
        hits = 0
        for _ in range(400):
            q = q_eq * np.exp(rng.uniform(-0.7, 0.7, 2))
            if trade.has_trade(e, y, np.append(q, 1.0)):
                hits += 1
                assert trade.box_contains(box, q)
        assert hits > 0  # the sweep actually exercised the implication

    @settings(max_examples=100, deadline=None)
    @given(
        goods=st.sampled_from([2, 3]),
        households=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_box_test_matches_reference(self, goods, households, seed):
        draw = np.random.default_rng(seed)
        e, y = _random_state(draw, goods, households)
        box = trade.msr_extremes(e, y)
        bases = [*trade.household_rates(e, y), log_uniform(draw, goods - 1, 0.2, 5.0)]
        atoms = np.array([a for base in bases for a in _edge_atoms(box, base)])
        got = trade.box_contains(box, atoms)
        want = np.array([box_contains_reference(box, a) for a in atoms])
        assert got.dtype == bool and got.shape == (len(atoms),)
        np.testing.assert_array_equal(got, want)
        assert want.any() and not want.all()  # the stack straddles the bounds
        assert trade.box_contains(box, atoms[0]) is bool(want[0])

    def test_box_slack_atoms_admit_no_trade(self, rng):
        # L = 2: the box keeps atoms up to 1e-12 (relative) outside the
        # extreme rates [lo, hi]; none of them may admit trade
        kept_outside = 0
        offsets = np.linspace(-1.2e-12, 1.2e-12, 25)
        for households in (2, 3, 4):
            for _ in range(10):
                e, y = _random_state(rng, 2, households)
                box = trade.msr_extremes(e, y)
                lo, hi = box.lower_rates[0, 1], box.upper_rates[0, 1]
                atoms = np.concatenate([lo * (1.0 + offsets), hi * (1.0 + offsets)])
                keep = trade.box_contains(box, atoms[:, None])
                for q in atoms[keep & ((atoms < lo) | (atoms > hi))]:
                    kept_outside += 1
                    assert not trade.has_trade(e, y, [q, 1.0])
        assert kept_outside > 0

    def test_stack_is_checked_like_one_vector(self, cd_economy, shock):
        box = trade.msr_extremes(cd_economy, shock)
        # a q of one axis is one vector and any other a stack; neither takes an L = 2 shorthand
        vectors = ([0.0], [1.0, 1.0])
        stacks = ([[1.0], [0.0], [2.0]], [[1.0], [-2.0]], 1.0, [[[1.0]]], [[1.0, 1.0], [2.0, 2.0]])
        for form, bads in (("a vector", vectors), ("a stack of vectors", stacks)):
            for bad in bads:
                message = f"q must be {form} of L - 1 = 1 finite positive rates, got {bad!r}"
                with pytest.raises(SpecificationError, match=f"^{re.escape(message)}$"):
                    trade.box_contains(box, bad)


class TestSampleSpeed:
    def test_max_speed_is_the_ray_top(self, cd_economy, shock, rng):
        sv = trade.sample_speed(cd_economy, shock, [0.75, 1.0], SpeedPrior.MAX_SPEED, rng)
        np.testing.assert_allclose(sv, [1.0, 0.4], atol=1e-12)

    def test_uniform_cube_scales_the_ray(self, cd_economy, shock):
        rng = np.random.default_rng(3)
        draws = np.stack(
            [
                trade.sample_speed(cd_economy, shock, [0.75, 1.0], SpeedPrior.UNIFORM_CUBE, rng)
                for _ in range(200)
            ]
        )
        lam = draws[:, 0]
        np.testing.assert_allclose(draws[:, 1] / lam, 0.4, atol=1e-12)
        assert lam.min() > 0.0 and lam.max() <= 1.0
        assert abs(lam.mean() - 0.5) < 0.06

    def test_postcondition_h2(self, ces_economy, shock, rng):
        for _ in range(50):
            sv = trade.sample_speed(ces_economy, shock, [1.1, 1.0], SpeedPrior.UNIFORM_CUBE, rng)
            assert trade.speed_contains(ces_economy, shock, [1.1, 1.0], sv)

    def test_postcondition_enumerated_polytope(self, rng):
        e, y = FOUR_BY_THREE
        p = [1.0, 1.0, 1.0]
        assert trade.has_trade(e, y, p)
        for prior in (SpeedPrior.UNIFORM_CUBE, SpeedPrior.MAX_SPEED):
            for _ in range(25):
                sv = trade.sample_speed(e, y, p, prior, rng)
                assert trade.speed_contains(e, y, p, sv)
                if prior is SpeedPrior.MAX_SPEED:
                    assert sv.max() == pytest.approx(1.0)

    def test_enumerated_polytope_four_households_three_goods(self, rng):
        specs = [
            UtilitySpec.ces(np.array([0.2, 0.3, 0.5]), 0.5),
            UtilitySpec.ces(np.array([0.5, 0.3, 0.2]), 0.5),
            UtilitySpec.cobb_douglas_log(np.array([0.3, 0.4, 0.3])),
            UtilitySpec.cobb_douglas_log(np.array([0.4, 0.2, 0.4])),
        ]
        e = Economy.of(specs)
        y = Allocation(log_uniform(rng, (4, 3), 0.5, 2.0))
        p = np.append(clearing_price(e, y), 1.0)
        for _ in range(10):
            sv = trade.sample_speed(e, y, p, SpeedPrior.UNIFORM_CUBE, rng)
            assert trade.speed_contains(e, y, p, sv)

    def test_vertices_the_probes_missed(self, rng):
        # at these clearing rates the probe LPs found only 0 and (1, 1, 1, 1);
        # the enumeration finds the polytope's other two vertices, and the
        # draws fill its two dimensions
        e, y = QUADRILATERAL
        p = np.append(QUADRILATERAL_RATES, 1.0)
        vertices = _speed_vertices(trade.all_trade_directions(e, y, p), p)
        assert [0.0, 0.44, 1.0, 0.73] in np.round(vertices, 2).tolist()
        assert [1.0, 1.0, 1.0, 1.0] in np.round(vertices, 2).tolist()
        draws = np.stack([trade.sample_speed(e, y, p, SpeedPrior.UNIFORM_CUBE, rng) for _ in range(50)])
        assert np.linalg.matrix_rank(draws - draws.mean(axis=0), tol=1e-6) == 2

    def test_lower_dimensional_polytope_segment(self, rng):
        # households 1-2 balance along one line; 3-4 are identical and can
        # never cancel anyone, so the polytope is a segment with s3 = s4 = 0
        # inside a two-dimensional constraint null space
        spec_a = UtilitySpec.ces([0.2, 0.3, 0.5], 0.5)
        spec_b = UtilitySpec.cobb_douglas_log([0.4, 0.2, 0.4])
        p = np.array([1.0, 1.0, 1.0])
        y1 = np.array([1.5, 0.8, 1.1])
        x1 = prefs.normalized_demand(spec_a, p / float(p @ y1))
        y2 = y1 + 1.2 * (x1 - y1)  # same wealth, direction flipped, one fifth as long
        z = np.array([1.0, 1.2, 0.9])
        e = Economy.of([spec_a, spec_a, spec_b, spec_b])
        y = Allocation(np.stack([y1, y2, z, z]))
        assert trade.has_trade(e, y, p)
        for prior in (SpeedPrior.UNIFORM_CUBE, SpeedPrior.MAX_SPEED):
            for _ in range(10):
                sv = trade.sample_speed(e, y, p, prior, rng)
                assert trade.speed_contains(e, y, p, sv)
                assert sv[2] <= 1e-9 and sv[3] <= 1e-9
                assert sv[0] == pytest.approx(0.2 * sv[1], abs=1e-9)
                if prior is SpeedPrior.MAX_SPEED:
                    assert sv[1] == pytest.approx(1.0)

    def test_walras_rank_cap_keeps_polytope_dimension(self, monkeypatch, rng):
        # a 3x2 uniform-arc state where D^T's second singular value is
        # rounding noise (2.7e-16 against 2.4e-4) but clears the relative rank
        # cutoff; counted as rank, it cut the 2-D polytope down to a line
        polygon = trade._polygon
        e = Economy.of(
            [
                UtilitySpec.ces([0.3, 0.7], 0.5),
                UtilitySpec.ces([0.6, 0.4], 0.5),
                UtilitySpec.ces([0.5, 0.5], 0.5),
            ]
        )
        y = Allocation(
            np.array(
                [
                    [0.5616510286561996, 1.9565416985566406],
                    [2.7475470627398835, 0.7815315373977563],
                    [1.1908019086039172, 0.761926764045603],
                ]
            )
        )
        p = [0.7998989802832516, 1.0]
        for prior in (SpeedPrior.UNIFORM_CUBE, SpeedPrior.MAX_SPEED):
            for _ in range(5):
                sv = trade.sample_speed(e, y, p, prior, rng)
                assert trade.speed_contains(e, y, p, sv)
        # three traders at L = 2 draw from the closed-form polygon; the
        # enumerated vertices still span it, and their draw is a polygon's
        vertices = _speed_vertices(trade.all_trade_directions(e, y, p), p)
        assert np.linalg.matrix_rank(vertices - vertices.mean(axis=0), tol=trade._POINT_EXTENT) == 2
        calls = []
        monkeypatch.setattr(trade, "_polygon", lambda *args: calls.append(args) or polygon(*args))
        assert trade.speed_contains(e, y, p, trade._polytope_speeds(vertices, rng.random))
        assert len(calls) == 1

    def test_deterministic_given_stream(self, cd_economy, shock):
        a = trade.sample_speed(
            cd_economy, shock, [0.8, 1.0], SpeedPrior.UNIFORM_CUBE, np.random.default_rng(11)
        )
        b = trade.sample_speed(
            cd_economy, shock, [0.8, 1.0], SpeedPrior.UNIFORM_CUBE, np.random.default_rng(11)
        )
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "state,p,draw,s_prior,point,why",
        [
            (FOUR_BY_THREE, [1.0, 1.0, 1.0], (trade, "_polytope_speeds"), SpeedPrior.UNIFORM_CUBE,
             [1.0, 0.0, 0.0, 0.0], r"cancel-and-move: residual 0\.67\d* \(bound 1e-09\)"),
            (FOUR_BY_THREE, [1.0, 1.0, 1.0], (trade, "_polytope_speeds"), SpeedPrior.UNIFORM_CUBE,
             [0.0, 0.0, 0.0, 0.0], r"cancel-and-move: residual 0\.0 .*, volume 0\.0 \(floor 1e-12\)"),
            (FOUR_BY_THREE, [1.0, 1.0, 1.0], (trade, "_polytope_speeds"), SpeedPrior.MAX_SPEED,
             [1e-7, 0.0, 1e-7, 0.0], r"max-speed draw peaks at 1e-07, below 1e-06"),
            (THREE_BY_TWO, [1.0, 1.0], (trade, "_polygon_speeds"), SpeedPrior.UNIFORM_CUBE,
             [1.0, 0.0, 0.0], r"cancel-and-move: residual 0\.7\d* \(bound 1e-09\)"),
            (THREE_BY_TWO, [1.0, 1.0], (trade, "_polygon_speeds"), SpeedPrior.UNIFORM_CUBE,
             [0.0, 0.0, 0.0], r"cancel-and-move: residual 0\.0 .*, volume 0\.0 \(floor 1e-12\)"),
            (THREE_BY_TWO, [1.0, 1.0], (trade, "_polygon_speeds"), SpeedPrior.MAX_SPEED,
             [1e-7, 0.0, 1e-7], r"max-speed draw peaks at 1e-07, below 1e-06"),
        ],
        ids=["residual", "volume", "peak", "polygon_residual", "polygon_volume", "polygon_peak"],
    )
    def test_failed_candidate_raises_at_once(self, monkeypatch, rng, state, p, draw, s_prior, point, why):
        # one candidate per draw, from the vertex draw or the polygon: a failed check is not retried
        calls = []
        monkeypatch.setattr(*draw, lambda *args: calls.append(args) or np.array(point))
        with pytest.raises(SamplingError, match=why):
            trade.sample_speed(*state, p, s_prior, rng)
        assert len(calls) == 1

    def test_bounds_short_of_the_span_raise(self):
        # one speed moved 0.001 off its bound takes a vertex off the polytope's hyperplane: the
        # vertices span four dimensions, the chart draws from their span in the cube, and the
        # draw fails cancel-and-move at once
        dirs = TestPolytopeStream.DIRS
        vertices = _speed_vertices(dirs, [1.0, 1.0])
        at = np.flatnonzero((vertices[:, 0] == 0.0) & (vertices[:, 3] == 0.0) & vertices.any(axis=1))[0]
        vertices[at, 3] = 0.001
        assert np.linalg.matrix_rank(vertices, tol=trade._POINT_EXTENT) == 4
        with pytest.raises(SamplingError, match="^speed draw fails cancel-and-move: residual"):
            trade._sample_speed(dirs, np.ones(2), SpeedPrior.UNIFORM_CUBE, np.random.default_rng(5).random, vertices)

    def test_infeasible_prices_raise(self, cd_economy, shock, rng):
        with pytest.raises(SamplingError):
            trade.sample_speed(cd_economy, shock, [3.0, 1.0], SpeedPrior.MAX_SPEED, rng)

    @pytest.mark.parametrize("max_speed", [False, True])
    @pytest.mark.parametrize("norms", [(0.0, 0.4), (0.4, 0.0)])
    def test_zero_direction_has_no_ray(self, norms, max_speed, rng):
        # one direction is exactly 0 at a price that rounds onto a household's
        # own rate, where only one trader can move
        dirs = _line_directions([norms[0], -norms[1]])[None]
        with pytest.raises(SamplingError, match="^fewer than two households can trade at these prices$"):
            trade._line_speeds(dirs, max_speed, lambda sub: rng.random(1))

    @pytest.mark.parametrize(
        "lengths,why",
        [
            ([0.0, 0.0, 0.4], "fewer than two households can trade at these prices"),
            ([1.0, 0.5], "two-trader directions are not opposed; no feasible speeds"),
            ([0.0, -1.0, -0.5], "two-trader directions are not opposed; no feasible speeds"),
            ([1.0, 0.5, 0.7], "three-trader directions all point one way along the price line; no feasible speeds"),
        ],
        ids=["one_active", "two_one_way", "two_one_way_beside_an_idle", "three_one_way"],
    )
    def test_one_sided_line_speeds_fail_by_their_count(self, lengths, why, rng):
        # the epoch's draw at L = 2 names why no speeds exist, and reads nothing
        before = copy.deepcopy(rng.bit_generator.state)
        with pytest.raises(SamplingError, match=f"^{re.escape(why)}$"):
            trade._line_speeds(_line_directions(lengths)[None], False, lambda sub: rng.random(1))
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("households", [2, 3])
    def test_idle_rule_is_a_zero_direction(self, households, rng):
        # a direction shorter than DEGENERATE_DIRECTION still moves on the ray, as the 2x2 kernel
        # always let it; the generic step once dropped it and failed with "fewer than two"
        lengths = [1e-13, -0.4, 0.0][:households]
        for max_speed in (False, True):
            sigma = trade._line_speeds(_line_directions(lengths)[None], max_speed, lambda sub: rng.random(1))[0]
            assert sigma[0] > 0.0 and sigma[1] > 0.0 and not sigma[2:].any()
            assert sigma[0] * 1e-13 == pytest.approx(sigma[1] * 0.4, rel=1e-12)
            assert sigma[0] == 1.0 or not max_speed


def _speed_vertices(dirs, p) -> np.ndarray:
    """The enumerated vertices of the speed polytope of ``dirs`` at prices ``p``, with repeats."""
    ((_, vertices, ok),) = trade._vertices(trade._projected(dirs, np.asarray(p, dtype=np.float64))[None])
    return vertices[:, ok[:, 0], 0].T


class TestDegeneratePolytope:
    def test_no_null_space_is_an_empty_interior(self, rng):
        # three independent directions in four goods: D^T s = 0 only at s = 0
        dirs = np.random.default_rng(0).standard_normal((3, 4))
        p = np.ones(4)
        dirs -= np.outer(dirs @ p / 4.0, p)  # orthogonal to the prices, as Walras' law puts them
        vertices = _speed_vertices(dirs, p)
        assert not np.any(vertices)
        with pytest.raises(SamplingError, match="^trade-speed polytope is the single point 0$"):
            trade._polytope_speeds(vertices, rng.random)

    def test_point_polytope_raises_and_reads_nothing(self):
        # e1, e2 and e1 + e2 in the plane orthogonal to p = (1, 1, 1): the
        # null space is the line (1, 1, -1), which meets the cube only at 0
        e1, e2 = np.array([1.0, -1.0, 0.0]), np.array([0.0, 1.0, -1.0])
        dirs = np.stack([e1, e2, e1 + e2])
        vertices = _speed_vertices(dirs, [1.0, 1.0, 1.0])
        assert vertices.shape[1] == 3 and not np.any(vertices)
        assert all(not any(v) for v in exact_speed_vertices(dirs, [1.0, 1.0, 1.0]))
        rng = np.random.default_rng(5)
        with pytest.raises(SamplingError, match="^trade-speed polytope is the single point 0$"):
            trade._polytope_speeds(vertices, rng.random)
        assert rng.random() == np.random.default_rng(5).random()  # the stream is untouched

    def test_collinear_directions_are_enumerated_at_their_rank(self, rng):
        # three directions on one line of the plane orthogonal to p = (1, 1, 1):
        # A has rank 1, no 2 x 2 minor is solvable, and the polygon
        # {s_1 + s_3 = 2 s_2} is found from one solved speed per candidate
        w = np.array([1.0, -1.0, 0.0])
        dirs = np.stack([w, -2.0 * w, w])
        vertices = {tuple(v) for v in np.round(_speed_vertices(dirs, np.ones(3)), 12).tolist()}
        assert vertices == {tuple(float(x) for x in v) for v in exact_speed_vertices(dirs, np.ones(3))}
        assert vertices == {(0.0, 0.0, 0.0), (1.0, 0.5, 0.0), (0.0, 0.5, 1.0), (1.0, 1.0, 1.0)}
        for s_prior in SpeedPrior:
            sigma = trade._sample_speed(dirs, np.ones(3), s_prior, rng.random)
            assert sigma[0] + sigma[2] == pytest.approx(2.0 * sigma[1], abs=1e-12)

    def test_point_polytope_has_no_speed_draw(self):
        # the same point polytope {0}: the relaxed LP's slack let the walk
        # return (2.7e-12, 2.7e-12, 0), and cancel-and-move accepted it
        e1, e2 = np.array([1.0, -1.0, 0.0]), np.array([0.0, 1.0, -1.0])
        dirs = np.stack([e1, e2, e1 + e2])
        with pytest.raises(SamplingError):
            trade._sample_speed(dirs, np.ones(3), SpeedPrior.UNIFORM_CUBE, np.random.default_rng(5).random)


class TestPolytopeStream:
    # at p = (1, 1) four traders, two on each side of the price line: the
    # polytope {s in [0, 1]^4 : sum_h a_h s_h = 0} has three dimensions
    DIRS = np.array([[1.0, -1.0], [0.5, -0.5], [-0.7, 0.7], [-0.4, 0.4]])

    @pytest.mark.parametrize("extra", [[], [[0.3, -0.3]]], ids=["d3", "d4"])
    def test_draw_reads_whole_blocks_of_proposals(self, extra):
        # each block reads d uniforms for each of 100 proposals; at these
        # acceptance rates the first block holds the draw
        dirs = np.array([*self.DIRS, *extra])
        rng, reference = np.random.default_rng(9), np.random.default_rng(9)
        point = trade._polytope_speeds(_speed_vertices(dirs, [1.0, 1.0]), rng.random)
        assert np.abs(point @ dirs).max() <= 1e-15
        reference.random(100 * (len(dirs) - 1))  # d = H - 1 at L = 2
        assert rng.bit_generator.state == reference.bit_generator.state


class TestPolytopeDraw:
    """Three or more dimensions: a rejection draw in a chart of free speeds."""

    #: four traders at L = 2 whose lengths cancel in decimals, so some vertices are degenerate
    MIRRORED = [0.1, -0.1, 0.2, -0.3]
    #: the mirrored lengths with N(0, sigma) noise, where the pulling triangulation once read
    #: copies of a degenerate vertex on both sides of its bounds' tolerance
    NOISY = ["noisy_1e-13", "noisy_3e-13", "noisy_1e-12", "noisy_3e-12", "noisy_1e-11"]

    @staticmethod
    def directions(case: str) -> tuple[np.ndarray, np.ndarray]:
        if case == "three_goods":  # five households, rank 2: d = 3
            p = np.array([0.8, 1.2, 1.0])
            dirs = np.random.default_rng(4).standard_normal((5, 3))
            return dirs - np.outer(dirs @ p / (p @ p), p), p
        if case == "held_at_zero":  # four traders on one line and a fifth off it, held at 0: d = 3
            w, v = np.array([1.0, -1.0, 0.0]), np.array([1.0, 1.0, -2.0])
            return np.stack([0.9 * w, -0.4 * w, 0.6 * w, -0.8 * w, 0.5 * v]), np.ones(3)
        lengths = {
            "four_traders": [1.0, 0.5, -0.7, -0.4],
            "five_traders": [1.0, -0.3, 0.5, -0.7, -0.4],
            "short_box": [1.0, -0.2, -0.1, 0.4],  # the fourth trader's free speed reaches only 0.75
            "tie": [0.3, -0.3, 0.1, -0.2],  # two traders tie for the largest minor
        }
        return _line_directions(lengths.get(case, TestPolytopeDraw.MIRRORED), 0.8), np.array([0.8, 1.0])

    @staticmethod
    def noisy(case: str) -> list[tuple[np.ndarray, np.ndarray]]:
        """The mirrored polytopes with the noise of ``case`` on their lengths, from seeds 0-199."""
        sigma = float(case.removeprefix("noisy_"))
        lengths = [np.add(TestPolytopeDraw.MIRRORED, np.random.default_rng(s).normal(0.0, sigma, 4)) for s in range(200)]
        return [(_line_directions(a, 0.8), np.array([0.8, 1.0])) for a in lengths]

    @pytest.mark.parametrize("s_prior", list(SpeedPrior), ids=lambda s: s.value)
    @pytest.mark.parametrize("case", ["four_traders", "five_traders", "mirrored", "three_goods", *NOISY])
    def test_coordinates_follow_the_rejection_oracle(self, case, s_prior):
        # per-coordinate two-sample KS at about the 0.1% level, as for the polygons; a noisy
        # case draws 15 times from each of its 200 polytopes, none of which may raise, and
        # their laws are the mirrored one's within far less than the test resolves
        polytopes = self.noisy(case) if case in self.NOISY else [self.directions(case)]
        n, rng = 3000, np.random.default_rng(29)
        mine = []
        for dirs, p in polytopes:
            vertices = _speed_vertices(dirs, p)
            assert np.linalg.matrix_rank(vertices, tol=trade._POINT_EXTENT) == len(dirs) - len(p) + 1
            draws = np.stack([trade._sample_speed(dirs, p, s_prior, rng.random, vertices) for _ in range(n // len(polytopes))])
            assert np.abs(draws @ dirs).max() <= 1e-12
            mine.append(draws)
        mine = np.concatenate(mine)
        reference = reference_polytope_sample(*self.directions("mirrored" if case in self.NOISY else case), s_prior, n, rng)
        for h in range(mine.shape[1]):
            assert ks_2samp(mine[:, h], reference[:, h]).statistic < 1.95 * np.sqrt(2.0 / n), h

    @pytest.mark.parametrize("case", ["four_traders", "five_traders", "mirrored", "three_goods", "held_at_zero", "short_box", "tie"])
    def test_draw_is_the_first_proposal_inside(self, case):
        # the draw is the first proposal, d uniforms each, that lands in the polytope, in a chart
        # and box rebuilt from an orthonormal null space and the exact vertices; it reads whole
        # blocks of _PROPOSALS.  A speed held at 0 is never free: its minors vanish; and a
        # free speed that cannot reach 1 bounds the box short of the cube
        dirs, p = self.directions(case)
        d = len(dirs) - np.linalg.matrix_rank(dirs)
        vertices = _speed_vertices(dirs, p)
        for seed in range(20):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            point = trade._polytope_speeds(vertices, rng.random)
            want, i = reference_rejection_draw(dirs, p, np.random.default_rng(seed).random((trade._MAX_PROPOSALS, d)))
            np.testing.assert_allclose(point, want, rtol=0.0, atol=1e-12)
            reference.random((i // trade._PROPOSALS + 1) * trade._PROPOSALS * d)
            assert rng.bit_generator.state == reference.bit_generator.state, (seed, i)

    def test_a_tie_of_largest_minors_moves_no_draw(self):
        # two traders of equal length tie for the chart, and one ulp on any direction entry
        # would pick between them if the largest minor alone chose it; the first of the
        # near-largest keeps every draw within 1e-12
        dirs, p = self.directions("tie")
        for seed in range(10):
            base = trade._sample_speed(dirs, p, SpeedPrior.UNIFORM_CUBE, np.random.default_rng(seed).random)
            for index in np.ndindex(dirs.shape):
                for toward in (-np.inf, np.inf):
                    moved = dirs.copy()
                    moved[index] = np.nextafter(moved[index], toward)
                    sigma = trade._sample_speed(moved, p, SpeedPrior.UNIFORM_CUBE, np.random.default_rng(seed).random)
                    assert np.abs(sigma - base).max() <= 1e-12, (seed, index, toward)

    def test_cap_names_the_polytope(self):
        # proposals that never land inside: the four traders' free speeds are the last three,
        # and the first near the top of its range with the others at 0 leaves the first trader's
        # speed negative; after 10^4 proposals the draw raises, naming the polytope
        dirs, p = self.directions("four_traders")
        read = []

        def uniforms(k):
            read.append(k)
            return np.tile([0.9999, 0.0, 0.0], k // 3)

        count = len(exact_speed_vertices(dirs, p))
        why = f"^trade-speed polytope of 3 dimensions and {count} vertices accepted none of 10000 proposals$"
        with pytest.raises(SamplingError, match=why):
            trade._polytope_speeds(_speed_vertices(dirs, p), uniforms)
        assert read == [3 * trade._PROPOSALS] * (10_000 // trade._PROPOSALS)


def _line_directions(lengths, q: float = 1.0) -> np.ndarray:
    """Directions with signed lengths ``lengths`` along the line orthogonal to
    p = (q, 1), whose unit has a positive first coordinate."""
    unit = np.array([1.0, -q]) / np.hypot(q, 1.0)
    return np.asarray(lengths, dtype=np.float64)[:, None] * unit


def _random_lengths(seed: int) -> tuple[list[float], float]:
    """Three signed lengths split two to one along the line, and a price rate."""
    draw = np.random.default_rng(seed)
    signs = draw.permutation([1.0, 1.0, -1.0]) * draw.choice([-1.0, 1.0])
    return (signs * log_uniform(draw, 3, 0.05, 2.0)).tolist(), float(log_uniform(draw, (), 0.25, 4.0))


class TestPolygonDraw:
    """Three traders at L = 2: a uniform point of the speed polygon, in closed form."""

    def test_draw_reads_three_uniforms(self):
        rng, reference = np.random.default_rng(9), np.random.default_rng(9)
        trade._sample_speed(_line_directions([1.0, -0.5, -0.7]), np.ones(2), SpeedPrior.UNIFORM_CUBE, rng.random)
        reference.random(3)
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("lengths", [[1.0, 0.5, 0.7], [-1.0, -0.5, -0.7]], ids=["up", "down"])
    def test_one_sided_directions_have_no_speeds(self, lengths, rng):
        # every trader on one side: the polytope is {0}
        with pytest.raises(SamplingError, match="^three-trader directions all point one way"):
            trade._sample_speed(_line_directions(lengths), np.ones(2), SpeedPrior.UNIFORM_CUBE, rng.random)

    @pytest.mark.parametrize("s_prior", list(SpeedPrior), ids=lambda s: s.value)
    @pytest.mark.parametrize(
        "lengths,q",
        [_random_lengths(seed) for seed in range(6)]
        + [([1.0, 0.5, -1.5e-6], 1.0), ([1.0, -1.0, 0.5], 0.5)],
        ids=[f"random{seed}" for seed in range(6)] + ["sliver", "cube_vertex"],
    )
    def test_coordinates_follow_the_rejection_oracle(self, lengths, q, s_prior):
        # per-coordinate two-sample KS at about the 0.1% level; the sliver's
        # negative side is 1e-6 of its positive one, and (1, -1, 0.5) puts the
        # cube vertex (1, 1, 0) on the plane, where two edge crossings meet
        n, rng = 3000, np.random.default_rng(17)
        dirs = _line_directions(lengths, q)
        mine = np.stack([trade._sample_speed(dirs, np.array([q, 1.0]), s_prior, rng.random) for _ in range(n)])
        reference = reference_polygon_sample(lengths, s_prior, n, rng)
        assert np.abs(mine @ np.asarray(lengths)).max() <= 1e-12
        for h in range(3):
            assert ks_2samp(mine[:, h], reference[:, h]).statistic < 1.95 * np.sqrt(2.0 / n), h


    def test_shared_polygon_draw_matches_the_centroid_order_bitwise(self):
        # _polygon starts the fan at the origin's angle around the centroid; the
        # old sort started at -pi, and the vertex after the origin came first there too.
        # Lengths 16 orders of magnitude apart make the chart a sliver, where an
        # angle taken mod 2 pi once put the last vertex first
        rng = np.random.default_rng(31)
        lengths = rng.uniform(-1.0, 1.0, (3000, 3)) * 10.0 ** rng.uniform(-8.0, 8.0, (3000, 3))
        fixed = [
            [1.0, -1.0, 0.5], [1.0, 1.0, -2.0], [-1.0, 0.5, 0.5], [1.0, 0.5, -1.5e-6], [2.0, -1.0, -1.0],
            [-7.158744965298773e-09, -41797997.43055512, 2.0909561814801443e-08],
            [1.112435106373208e-09, 97743973.87229463, -1.853733749790417e-08],
        ]
        for a in [*fixed, *lengths]:
            a = np.asarray(a)
            if np.count_nonzero(a > 0.0) in (0, 3):
                continue
            u = rng.random(3)
            mine = trade._polygon_speeds(a, u)
            reference = reference_polygon_speeds(a, u)
            assert mine.tobytes() == reference.tobytes(), a.tolist()

    def test_polygon_fans_around_its_boundary(self):
        # any convex polygon with the origin as a vertex, its other vertices given
        # shuffled: the fan takes them counterclockwise from the origin, in the
        # order of the convex hull, whatever the chart's turn, bit for bit as
        # the reference fan does given them in that order
        draw, seen = np.random.default_rng(8), 0
        while seen < 300:
            points = np.vstack([[0.0, 0.0], draw.standard_normal((int(draw.integers(2, 7)), 2))])
            ring = ConvexHull(points).vertices.tolist()  # counterclockwise
            if 0 not in ring:
                continue
            seen += 1
            start = ring.index(0)
            ring = ring[start + 1 :] + ring[:start]
            others, hull, u = points[draw.permutation(ring)].tolist(), points[ring].tolist(), draw.random(3)
            assert trade._polygon(others, others, u).tobytes() == reference_fan(hull, hull, u).tobytes()

    def test_enumerated_polygon_is_charted_in_the_turn_of_its_largest_minor(self, monkeypatch):
        # L = 3, four traders: the chart's rows span the polygon's plane, turned so that
        # their largest 2 x 2 minor is positive, which keeps the turn continuous in the hull
        charts = []
        polygon = trade._polygon
        monkeypatch.setattr(trade, "_polygon", lambda *args: charts.append(args[:2]) or polygon(*args))
        draw = np.random.default_rng(6)
        while len(charts) < 200:
            dirs, p = draw.standard_normal((4, 3)), np.exp(draw.standard_normal(3))
            vertices = _speed_vertices(dirs - np.outer(dirs @ p / (p @ p), p), p)
            if len(vertices) and np.linalg.matrix_rank(vertices, tol=trade._POINT_EXTENT) == 2:
                trade._polytope_speeds(vertices, draw.random)
        for others, chart in charts:
            x, y = np.linalg.lstsq(np.array(others), np.array(chart), rcond=None)[0].T  # the chart's rows
            minors = [x[i] * y[j] - x[j] * y[i] for i in range(4) for j in range(i + 1, 4)]
            assert max(minors, key=abs) > 0.0

    @pytest.mark.parametrize("s_prior", list(SpeedPrior), ids=lambda s: s.value)
    @pytest.mark.parametrize("case", ["triangle", "quadrilateral"])
    def test_three_good_polygon_follows_the_rejection_oracle(self, case, s_prior):
        # L = 3, four traders: the polygon of the enumerated vertices, fanned
        # from the origin; per-coordinate two-sample KS at about the 0.1% level
        if case == "triangle":
            (e, y), p = FOUR_BY_THREE, np.ones(3)
        else:
            (e, y), p = QUADRILATERAL, np.append(QUADRILATERAL_RATES, 1.0)
        dirs = trade.all_trade_directions(e, y, p)
        n, rng = 3000, np.random.default_rng(23)
        mine = np.stack([trade._sample_speed(dirs, p, s_prior, rng.random) for _ in range(n)])
        reference = reference_polytope_sample(dirs, p, s_prior, n, rng)
        assert np.abs(mine @ dirs).max() <= 1e-12
        for h in range(4):
            assert ks_2samp(mine[:, h], reference[:, h]).statistic < 1.95 * np.sqrt(2.0 / n), h


class TestAdvance:
    def test_full_speed_reaches_equilibrium(self, cd_economy, shock):
        out = reference_advance(cd_economy, shock, [1.0, 1.0], np.array([1.0, 1.0]))
        np.testing.assert_allclose(out.bundles, [[1.5, 1.5], [1.5, 1.5]])

    def test_conservation(self, cd_economy, shock):
        out = reference_advance(cd_economy, shock, [1.0, 1.0], np.array([0.5, 0.5]))
        np.testing.assert_allclose(out.aggregate, [3.0, 3.0], atol=1e-12)

    def test_example3_partial_landing(self, cd_economy, shock):
        out = reference_advance(cd_economy, shock, [0.75, 1.0], np.array([1.0, 0.4]))
        np.testing.assert_allclose(out.bundle(0), [5.0 / 3.0, 5.0 / 4.0], rtol=1e-14)
        np.testing.assert_allclose(out.aggregate, [3.0, 3.0], atol=1e-12)

    def test_no_utility_decrease(self, ces_economy, rng):
        for _ in range(25):
            y = Allocation(log_uniform(rng, (2, 2)))
            interval = trade.trade_interval_2x2(ces_economy, y)
            if interval is None:
                continue
            q = float(rng.uniform(*interval))
            sv = trade.sample_speed(ces_economy, y, [q, 1.0], SpeedPrior.UNIFORM_CUBE, rng)
            out = reference_advance(ces_economy, y, [q, 1.0], sv)
            for spec, before, after in zip(ces_economy.specs, y.bundles, out.bundles):
                assert prefs.utility(spec, after) >= prefs.utility(spec, before) - 1e-12

    def test_price_persistence_below_full_speed(self, ces_economy, rng):
        for _ in range(25):
            y = Allocation(log_uniform(rng, (2, 2)))
            interval = trade.trade_interval_2x2(ces_economy, y)
            if interval is None:
                continue
            q = float(rng.uniform(*interval))
            sv = trade.sample_speed(ces_economy, y, [q, 1.0], SpeedPrior.UNIFORM_CUBE, rng)
            capped = np.minimum(sv, 0.9)
            out = reference_advance(ces_economy, y, [q, 1.0], capped)
            assert trade.has_trade(ces_economy, out, [q, 1.0])


class TestPareto:
    def test_examples(self, cd_economy, shock):
        assert trade.is_pareto_optimal(cd_economy, Allocation(np.array([[1.5, 1.5], [1.5, 1.5]])))
        assert not trade.is_pareto_optimal(cd_economy, shock)

    def test_agrees_with_interval_emptiness(self, ces_economy, rng):
        for _ in range(1000):
            y = Allocation(log_uniform(rng, (2, 2)))
            empty = trade.trade_interval_2x2(ces_economy, y) is None
            assert trade.is_pareto_optimal(ces_economy, y) == empty

    @pytest.mark.parametrize("households", [2, 3, 6])
    def test_extremes_are_the_reductions_and_agreement_is_closed(self, households, rng):
        rates = log_uniform(rng, (5, households, 2))
        lo, hi, agree = trade._extremes(rates, 0.5)
        assert lo.tobytes() == rates.min(axis=-2).tobytes() and hi.tobytes() == rates.max(axis=-2).tobytes()
        assert agree.tolist() == (hi - lo <= 0.5 * lo).tolist()
        # rates exactly tol apart, relative to the lower, agree
        assert trade._extremes(np.array([[1.5], *[[1.0]] * (households - 1)]), 0.5)[2].tolist() == [True]


def _mixed_specs(draw: np.random.Generator, kinds, goods: int) -> list[UtilitySpec]:
    """One household per kind: log, log at a level exponent, or CES at elasticity 0.3 or 0.6."""
    specs = []
    for kind in kinds:
        w = draw.uniform(0.2, 1.0, goods)
        if kind == "log":
            specs.append(UtilitySpec.cobb_douglas_log(w / w.sum()))
        elif kind == "exponent":
            specs.append(UtilitySpec.multiplicative(3.0 * w))
        else:
            specs.append(UtilitySpec.ces(w / w.sum(), {"ces3": 0.3, "ces6": 0.6}[kind]))
    return specs


class TestGroups:
    """One core call per household group gives the bytes of one call per household."""

    def test_groups_share_family_and_elasticity(self):
        draw = np.random.default_rng(3)
        specs = _mixed_specs(draw, ["log", "ces3", "exponent", "ces6", "ces3"], 3)
        e = Economy.of(specs)
        members = [np.arange(e.size)[g.members].tolist() for g in e.groups]
        assert members == [[0, 2], [1, 4], [3]]
        assert e.groups[2].members == slice(3, 4)  # consecutive members gather as a view
        assert [g.elasticity for g in e.groups] == [None, 0.3, 0.6]
        for g, m in zip(e.groups, members):
            np.testing.assert_array_equal(g.weights, [specs[h].weights for h in m])

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        goods=st.sampled_from([2, 3]),
        kinds=st.lists(st.sampled_from(["log", "exponent", "ces3", "ces6"]), min_size=2, max_size=4),
        stack=st.sampled_from([(), (1,), (5,), (200,)]),
        goods_apart=st.booleans(),
    )
    def test_grouped_cores_give_the_per_household_bytes(self, seed, goods, kinds, stack, goods_apart):
        draw = np.random.default_rng(seed)
        specs = _mixed_specs(draw, kinds, goods)
        e = Economy.of(specs)
        bundles = log_uniform(draw, stack + (len(specs), goods), 0.2, 5.0)
        if goods_apart:  # a transposed view whose stack runs along memory, as the 2x2 kernel's households
            bundles = np.moveaxis(np.ascontiguousarray(np.moveaxis(bundles, 0, -1)), -1, 0)
        p = log_uniform(draw, stack + (goods,), 0.2, 5.0)
        want = prefs._guard(reference_each(trade._path_end, specs, bundles, p), "demand") - bundles
        got = trade._directions(e, bundles, p)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for core in (prefs._rates, prefs._inverse_demand):
            want = reference_each(core, specs, bundles)
            got = trade._grouped(core, e, bundles)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
