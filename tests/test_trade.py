from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from edgeworth import _hitrun, _simplex, engine, prefs, trade
from edgeworth.errors import DomainDegeneracyError, SamplingError, SpecificationError
from edgeworth.prefs import UtilitySpec
from edgeworth.trade import Allocation, BoxSet, Economy, SpeedPrior, SpeedVector

from oracles import box_contains as box_contains_reference
from oracles import (
    clearing_price,
    exact_volume_l2,
    log_uniform,
    lp_trade,
    reference_advance,
    reference_each,
    reference_polygon_sample,
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
# than 1: a speed draw probes LPs and walks
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

    def test_speed_bounds(self):
        with pytest.raises(SpecificationError):
            SpeedVector(np.array([0.5, 1.2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_speed_bounds_reject_non_finite(self, bad):
        with pytest.raises(SpecificationError, match=r"^speeds must lie in \[0, 1\]$"):
            SpeedVector(np.array([bad, 0.5]))

    def test_state_below_the_floor_is_domain_degenerate(self, cd_economy):
        y = Allocation(np.array([[1e-305, 1.0], [1.0, 1.0]]))
        for check in (trade.household_rates, trade.msr_extremes):
            with pytest.raises(DomainDegeneracyError, match="^bundle coordinate below 1e-300$"):
                check(cd_economy, y)
        with pytest.raises(DomainDegeneracyError, match="^bundle coordinate below 1e-300$"):
            trade.all_trade_directions(cd_economy, y, [1.0, 1.0])

    def test_speed_vector_is_a_read_only_copy(self):
        raw = np.array([0.0, 1.0])
        sv = SpeedVector(raw)
        raw[0] = 0.5
        assert sv.sigma[0] == 0.0 and not sv.sigma.flags.writeable
        assert SpeedVector(np.array([])).sigma.size == 0

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
        assert trade.speed_contains(cd_economy, shock, [1.0, 1.0], SpeedVector(np.array([1.0, 1.0])))

    def test_no_trade_speed_rejected(self, cd_economy, shock):
        assert not trade.speed_contains(
            cd_economy, shock, [1.0, 1.0], SpeedVector(np.array([0.0, 0.0]))
        )

    def test_example3_offspeed_ray(self, cd_economy, shock):
        # q = 0.75: the balancing partner speed is 0.4
        assert trade.speed_contains(
            cd_economy, shock, [0.75, 1.0], SpeedVector(np.array([1.0, 0.4]))
        )
        assert not trade.speed_contains(
            cd_economy, shock, [0.75, 1.0], SpeedVector(np.array([1.0, 0.8]))
        )

    @pytest.mark.parametrize("use", [trade.speed_contains], ids=["speed_contains"])
    def test_speed_length_must_match_the_households(self, cd_economy, shock, use):
        # a one-speed vector would broadcast over both households
        with pytest.raises(SpecificationError, match="^speed vector length must equal the household count$"):
            use(cd_economy, shock, [1.0, 1.0], SpeedVector(np.array([0.5])))


def _reference_trade(e: Economy, y: Allocation, p) -> bool:
    """The exact polytope's answer at L = 2, and the LP's at L >= 3.

    At L = 2 the LP must agree wherever 2 min(P, N) lies outside 2% of its
    threshold: within it, the LP's cancellation slack alone can buy the
    missing volume.
    """
    if e.n_goods != 2:
        return lp_trade(e, y, p)
    volume, threshold = exact_volume_l2(e, y, p)
    if not 0.98 <= volume / threshold <= 1.02:
        assert lp_trade(e, y, p) == (volume > threshold)
    return volume > threshold


def _has_trade(e: Economy, y: Allocation, p) -> bool:
    """``has_trade``, checked against the decision it answers for."""
    got = trade.has_trade(e, y, p)
    assert got == _reference_trade(e, y, p)
    return got


class TestHasTrade:
    def test_example3_interval_membership(self, cd_economy, shock):
        assert trade.has_trade(cd_economy, shock, [1.0, 1.0])
        assert not trade.has_trade(cd_economy, shock, [3.0, 1.0])

    def test_long_directions_need_opposition(self, cd_economy):
        # rates 1 and 2; direction norms near 100 must not let the LP's
        # cancellation slack alone pass for trade
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
        # 2 min(P, N) is 0.99897 of the threshold and the LP's 1e-11
        # cancellation slack alone lifts its optimum over it
        e = Economy.of([UtilitySpec.ces([0.5, 0.5], 0.5), UtilitySpec.ces([0.7, 0.3], 0.5)])
        y = Allocation(np.array([[1.1513410004144027, 2.3089701583740565], [1.8486589995855987, 0.691029841625944]]))
        p = [1.4265821370411313, 1.0]
        volume, threshold = exact_volume_l2(e, y, p)
        assert volume / threshold == pytest.approx(0.99897, abs=1e-5)
        assert lp_trade(e, y, p)
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
        # its threshold; the screen must answer as the exact polytope at
        # L = 2 and as the LP itself at L >= 3
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
        want = np.array([_reference_trade(e, y, p) for p in prices])
        assert got.dtype == bool and got.shape == (len(atoms),)
        np.testing.assert_array_equal(got, want)

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
        # threshold: the screen decides every atom in closed form, and the
        # speed draw is the ray or the polygon
        def refuse(*args, **kwargs):
            raise AssertionError("an LP ran at L = 2")

        monkeypatch.setattr(_simplex, "maximize", refuse)
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
        traj = engine.run_trajectory(engine.SimConfig(e, y, prior, master_seed=3, max_steps=20), 0)
        assert traj.steps > 0

    def test_empty_stack(self, cd_economy, shock):
        assert trade._screen(cd_economy, shock.bundles, np.empty((0, 2))).shape == (0,)


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
        np.testing.assert_allclose(sv.sigma, [1.0, 0.4], atol=1e-12)

    def test_uniform_cube_scales_the_ray(self, cd_economy, shock):
        rng = np.random.default_rng(3)
        draws = np.stack(
            [
                trade.sample_speed(cd_economy, shock, [0.75, 1.0], SpeedPrior.UNIFORM_CUBE, rng).sigma
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

    def test_postcondition_hit_and_run(self, rng):
        e, y = FOUR_BY_THREE
        p = [1.0, 1.0, 1.0]
        assert trade.has_trade(e, y, p)
        for prior in (SpeedPrior.UNIFORM_CUBE, SpeedPrior.MAX_SPEED):
            for _ in range(25):
                sv = trade.sample_speed(e, y, p, prior, rng)
                assert trade.speed_contains(e, y, p, sv)
                if prior is SpeedPrior.MAX_SPEED:
                    assert sv.sigma.max() == pytest.approx(1.0)

    def test_hit_and_run_four_households_three_goods(self, rng):
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
                assert sv.sigma[2] <= 1e-9 and sv.sigma[3] <= 1e-9
                assert sv.sigma[0] == pytest.approx(0.2 * sv.sigma[1], abs=1e-9)
                if prior is SpeedPrior.MAX_SPEED:
                    assert sv.sigma[1] == pytest.approx(1.0)

    def test_walras_rank_cap_keeps_polytope_dimension(self, rng):
        # a 3x2 uniform-arc state where D^T's second singular value is
        # rounding noise (2.7e-16 against 2.4e-4) but clears the relative rank
        # cutoff; counted as rank, it cut the 2-D polytope down to a line
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
        # three traders at L = 2 draw from the closed-form polygon; the walk
        # still has to keep the dimension on these directions
        dirs = trade.all_trade_directions(e, y, p)
        point = _hitrun.sample(dirs, np.linalg.norm(dirs, axis=1), rng)
        assert trade.speed_contains(e, y, p, SpeedVector(point))

    def test_deterministic_given_stream(self, cd_economy, shock):
        a = trade.sample_speed(
            cd_economy, shock, [0.8, 1.0], SpeedPrior.UNIFORM_CUBE, np.random.default_rng(11)
        )
        b = trade.sample_speed(
            cd_economy, shock, [0.8, 1.0], SpeedPrior.UNIFORM_CUBE, np.random.default_rng(11)
        )
        np.testing.assert_array_equal(a.sigma, b.sigma)

    @pytest.mark.parametrize(
        "state,p,draw,s_prior,point,why",
        [
            (FOUR_BY_THREE, [1.0, 1.0, 1.0], (_hitrun, "sample"), SpeedPrior.UNIFORM_CUBE,
             [1.0, 0.0, 0.0, 0.0], r"cancel-and-move: residual 0\.67\d* \(bound 1e-09\)"),
            (FOUR_BY_THREE, [1.0, 1.0, 1.0], (_hitrun, "sample"), SpeedPrior.UNIFORM_CUBE,
             [0.0, 0.0, 0.0, 0.0], r"cancel-and-move: residual 0\.0 .*, volume 0\.0 \(floor 1e-12\)"),
            (FOUR_BY_THREE, [1.0, 1.0, 1.0], (_hitrun, "sample"), SpeedPrior.MAX_SPEED,
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
        # one candidate per draw, from hit-and-run or the polygon: a failed check is not retried
        calls = []
        monkeypatch.setattr(*draw, lambda *args: calls.append(args) or np.array(point))
        with pytest.raises(SamplingError, match=why):
            trade.sample_speed(*state, p, s_prior, rng)
        assert len(calls) == 1

    def test_short_chord_raises_at_once(self, monkeypatch, rng):
        calls = []
        monkeypatch.setattr(_hitrun, "_chord", lambda *args: calls.append(args) or (0.0, 1e-12))
        with pytest.raises(SamplingError, match=r"hit-and-run stalled: chord 1e-12 within the clearance"):
            trade.sample_speed(*FOUR_BY_THREE, [1.0, 1.0, 1.0], SpeedPrior.UNIFORM_CUBE, rng)
        assert len(calls) == 1

    def test_infeasible_prices_raise(self, cd_economy, shock, rng):
        with pytest.raises(SamplingError):
            trade.sample_speed(cd_economy, shock, [3.0, 1.0], SpeedPrior.MAX_SPEED, rng)

    @pytest.mark.parametrize("max_speed", [False, True])
    @pytest.mark.parametrize("norms", [(0.0, 0.4), (0.4, 0.0)])
    def test_zero_direction_has_no_ray(self, norms, max_speed, rng):
        # the 2x2 kernel hands in exact hypot norms; one is 0 at a price that
        # rounds onto a household's own rate, where only one trader can move
        with pytest.raises(SamplingError, match="fewer than two households can trade"):
            trade._ray_speeds(*norms, max_speed, lambda sub: rng.random(1))


class TestHitRunDegenerate:
    def test_no_null_space_is_an_empty_interior(self, rng):
        # three independent directions in four goods: D^T s = 0 only at s = 0
        dirs = np.random.default_rng(0).standard_normal((3, 4))
        with pytest.raises(SamplingError, match="^trade-speed polytope has empty interior$"):
            _hitrun.sample(dirs, np.linalg.norm(dirs, axis=1), rng)

    def test_point_polytope_returns_its_point(self):
        # e1, e2 and e1 + e2 in the plane orthogonal to p = (1, 1, 1): the
        # null space is the line (1, 1, -1), which meets the cube only at 0
        e1, e2 = np.array([1.0, -1.0, 0.0]), np.array([0.0, 1.0, -1.0])
        dirs = np.stack([e1, e2, e1 + e2])
        rng = np.random.default_rng(5)
        point = _hitrun.sample(dirs, np.linalg.norm(dirs, axis=1), rng)
        assert point.shape == (3,) and point.min() >= 0.0 and point.max() < _hitrun._POINT_EXTENT
        assert np.abs(point @ dirs).max() <= _hitrun._EQ_TOL  # within the LP's slack
        assert rng.random() == np.random.default_rng(5).random()  # no walk: the stream is untouched

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
    def test_point_polytope_has_no_speed_draw(self):
        # the same point polytope {0}: the relaxed LP's slack lets the walk
        # return (2.7e-12, 2.7e-12, 0), and cancel-and-move accepts it
        e1, e2 = np.array([1.0, -1.0, 0.0]), np.array([0.0, 1.0, -1.0])
        dirs = np.stack([e1, e2, e1 + e2])
        with pytest.raises(SamplingError):
            trade._sample_speed(dirs, SpeedPrior.UNIFORM_CUBE, np.random.default_rng(5))


class TestHitRunStream:
    # at p = (1, 1) the plane sum_h a_h s_h = 0 cuts the unit cube in a polygon: d = 2
    DIRS = np.array([[1.0, -1.0], [-0.5, 0.5], [-0.7, 0.7]])

    @pytest.mark.parametrize("stall", [False, True], ids=["walk", "stall"])
    def test_walk_reads_every_steps_draws(self, monkeypatch, stall):
        # per step, d standard normals and then one uniform; a stalled walk
        # has read all of them too, since the draws come before the steps
        if stall:
            monkeypatch.setattr(_hitrun, "_chord", lambda x, u: (0.0, 1e-12))
        rng, reference = np.random.default_rng(9), np.random.default_rng(9)
        try:
            point = _hitrun.sample(self.DIRS, np.linalg.norm(self.DIRS, axis=1), rng)
        except SamplingError:
            assert stall
        else:
            assert not stall and np.abs(point @ self.DIRS).max() <= 1e-15
        for _ in range(_hitrun._BURN_IN):
            reference.standard_normal(2)
            reference.random()
        assert rng.bit_generator.state == reference.bit_generator.state


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
        trade._sample_speed(_line_directions([1.0, -0.5, -0.7]), SpeedPrior.UNIFORM_CUBE, rng)
        reference.random(3)
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("lengths", [[1.0, 0.5, 0.7], [-1.0, -0.5, -0.7]], ids=["up", "down"])
    def test_one_sided_directions_have_no_speeds(self, lengths, rng):
        # every trader on one side: the polytope is {0}
        with pytest.raises(SamplingError, match="^three-trader directions all point one way"):
            trade._sample_speed(_line_directions(lengths), SpeedPrior.UNIFORM_CUBE, rng)

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
        mine = np.stack([trade._sample_speed(dirs, s_prior, rng).sigma for _ in range(n)])
        reference = reference_polygon_sample(lengths, s_prior, n, rng)
        assert np.abs(mine @ np.asarray(lengths)).max() <= 1e-12
        for h in range(3):
            assert ks_2samp(mine[:, h], reference[:, h]).statistic < 1.95 * np.sqrt(2.0 / n), h


class TestAdvance:
    def test_full_speed_reaches_equilibrium(self, cd_economy, shock):
        out = reference_advance(cd_economy, shock, [1.0, 1.0], SpeedVector(np.array([1.0, 1.0])))
        np.testing.assert_allclose(out.bundles, [[1.5, 1.5], [1.5, 1.5]])

    def test_conservation(self, cd_economy, shock):
        out = reference_advance(cd_economy, shock, [1.0, 1.0], SpeedVector(np.array([0.5, 0.5])))
        np.testing.assert_allclose(out.aggregate, [3.0, 3.0], atol=1e-12)

    def test_example3_partial_landing(self, cd_economy, shock):
        out = reference_advance(cd_economy, shock, [0.75, 1.0], SpeedVector(np.array([1.0, 0.4])))
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
            capped = SpeedVector(np.minimum(sv.sigma, 0.9))
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
