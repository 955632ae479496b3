from __future__ import annotations

import ast
import copy
import dataclasses
import hashlib
import itertools
import math
import random
import statistics
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import kstest, truncnorm

from edgeworth import engine, prefs, trade
from edgeworth.engine import (
    ArctanNormal,
    PriorSpec,
    SimConfig,
    Tabulated,
    Terminal,
    UniformArc,
    example3_ladder_value,
    example3_process,
)
from edgeworth.errors import DomainDegeneracyError, SamplingError, SpecificationError
from edgeworth.prefs import UtilitySpec
from edgeworth.trade import Allocation, Economy, SpeedPrior

from oracles import (
    golden,
    log_uniform,
    reference_advance,
    reference_each,
    reference_sntp_step,
    table_objects,
)


@pytest.fixture
def cd_economy(cd) -> Economy:
    return Economy.of([cd, cd])


@pytest.fixture
def shock() -> Allocation:
    return Allocation(np.array([[2.0, 1.0], [1.0, 2.0]]))


_SPEC_2 = st.one_of(
    st.builds(lambda a: UtilitySpec.cobb_douglas_log([a, 1.0 - a]), st.floats(0.2, 0.8)),
    st.builds(
        lambda a, sigma: UtilitySpec.ces([a, 1.0 - a], sigma),
        st.floats(0.2, 0.8),
        st.floats(0.2, 0.8),
    ),
    st.builds(
        lambda a, b: UtilitySpec.multiplicative([a, b]), st.floats(0.2, 3.0), st.floats(0.2, 3.0)
    ),
)
_ANGLE_PRIOR = st.one_of(
    st.just(UniformArc()),
    st.builds(ArctanNormal, st.floats(0.3, 3.0), st.floats(0.05, 1.0)),
)
_CES_3 = st.builds(
    lambda w, sigma: UtilitySpec.ces(np.array(w) / sum(w), sigma),
    st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3),
    st.floats(0.2, 0.8),
)
_PRICE_PRIOR = st.one_of(
    _ANGLE_PRIOR,
    st.builds(
        lambda seed: Tabulated(np.geomspace(0.01, 100.0, 300), np.random.default_rng(seed).uniform(0.5, 1.5, 300)),
        st.integers(0, 2**32 - 1),
    ),
)


# three CES traders over two goods; household 3's rate lies between the other
# two, so the trade interval is set by households 1 and 2
THREE_TRADERS = (
    Economy.of([UtilitySpec.ces(w, 0.5) for w in ([0.3, 0.7], [0.6, 0.4], [0.5, 0.5])]),
    Allocation(np.array([[2.0, 1.0], [1.0, 2.0], [1.5, 0.5]])),
)


# four CES traders over three goods under a 196-atom tabulated prior
# log-spaced on [0.25, 4]^2: every step screens atoms by their speed
# polytopes' vertices and draws speeds from the drawn atom's vertices
_AXIS = 0.25 * 16.0 ** (np.arange(14) / 13)
_GRID = np.array([[a, b] for a in _AXIS for b in _AXIS])
_WEIGHTS_4X3 = ([0.2, 0.3, 0.5], [0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.4, 0.2, 0.4])
FOUR_BY_THREE = (
    Economy.of([UtilitySpec.ces(w, 0.5) for w in _WEIGHTS_4X3]),
    Allocation(np.array([[1.5, 1.5, 1.0], [0.75, 0.5, 0.85], [0.9, 0.5, 0.5], [2.0, 1.25, 0.7]])),
    Tabulated(_GRID, np.random.default_rng(4).uniform(0.5, 1.5, len(_GRID))),
)


def rate_bounds(e: Economy, y: Allocation) -> tuple[float, float]:
    box = trade.msr_extremes(e, y)
    return float(box.lower_rates[0, 1]), float(box.upper_rates[0, 1])


def make_config(economy, initial, q_prior, s_prior, **kw) -> SimConfig:
    defaults = dict(master_seed=1, runs=1, max_steps=500, pareto_tol=1e-8)
    defaults.update(kw)
    return SimConfig(economy, initial, PriorSpec(q_prior, s_prior), **defaults)


def assert_steps_follow_the_reference(e: Economy, y: Allocation, prior: PriorSpec, seed: int, exact: bool) -> None:
    """Four ``sntp_step`` epochs from ``run_rng(seed, 0)`` against ``reference_sntp_step`` from a
    stream of its own: the same prices and stream position and, bit for bit if ``exact`` or
    else within 1e-9 relative, the same speeds and states; or the same failure, or both stop."""
    rng, ref_rng = engine.run_rng(seed, 0), engine.run_rng(seed, 0)
    for _ in range(4):
        outcomes = []
        for step, stream in ((engine.sntp_step, rng), (reference_sntp_step, ref_rng)):
            try:
                outcomes.append(step(e, y, prior, stream))
            except (SamplingError, DomainDegeneracyError) as exc:
                outcomes.append(type(exc))
        mine, ref = outcomes
        if not isinstance(mine, tuple):  # no trade left, or a failed draw: both agree
            assert mine is ref
            return
        (state, q, sigma), (want_state, want_q, want_sigma) = mine, ref
        np.testing.assert_array_equal(q, want_q)
        assert copy.deepcopy(rng).random(4).tolist() == copy.deepcopy(ref_rng).random(4).tolist()  # same position
        if exact:
            assert sigma.tobytes() == want_sigma.tobytes() and state.bundles.tobytes() == want_state.bundles.tobytes()
        else:
            np.testing.assert_allclose(sigma, want_sigma, rtol=1e-9, atol=0.0)
            np.testing.assert_allclose(state.bundles, want_state.bundles, rtol=1e-9, atol=0.0)
        y = state


class TestPriorTypes:
    def test_arctan_normal_validation(self):
        with pytest.raises(SpecificationError):
            ArctanNormal(center_rate=-1.0, sigma_angle=0.1)
        with pytest.raises(SpecificationError):
            ArctanNormal(center_rate=1.0, sigma_angle=0.0)

    def test_tabulated_validation(self):
        with pytest.raises(SpecificationError):
            Tabulated(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        with pytest.raises(SpecificationError):
            Tabulated(np.array([1.0, -2.0]), np.array([0.5, 0.5]))

    def test_config_validation(self, cd_economy, shock):
        prior = PriorSpec(UniformArc(), SpeedPrior.UNIFORM_CUBE)
        with pytest.raises(SpecificationError):
            SimConfig(cd_economy, shock, prior, master_seed=1, runs=0)
        with pytest.raises(SpecificationError):
            SimConfig(cd_economy, shock, prior, master_seed=1, max_steps=0)
        with pytest.raises(SpecificationError, match="2\\*\\*53"):
            SimConfig(cd_economy, shock, prior, master_seed=1, max_steps=2**53 + 1)
        assert SimConfig(cd_economy, shock, prior, master_seed=1, max_steps=2**53).max_steps == 2**53
        # a seed is one Philox key word: any other value would alias a seed in range or truncate
        for seed in (-1, 2**64, 2**64 + 1, 1.5, "1", None):
            with pytest.raises(SpecificationError, match="^master seed must be an integer from 0 to 2\\*\\*64 - 1"):
                SimConfig(cd_economy, shock, prior, master_seed=seed)
            with pytest.raises(SpecificationError, match="^master seed must be an integer"):
                engine.run_rng(seed, 0)
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            assert SimConfig(cd_economy, shock, prior, master_seed=seed).master_seed == int(seed)
        # a start whose substitution rate overflows (1e600) is refused without a RuntimeWarning
        overflowing = Allocation(np.array([[1e-300, 1e300], [1.0, 1.0]]))
        tabulated = PriorSpec(Tabulated(np.array([0.5, 1.0, 2.0]), np.ones(3)), SpeedPrior.UNIFORM_CUBE)
        for p in (prior, tabulated):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(SpecificationError, match="^initial allocation has substitution rates that are not finite"):
                    SimConfig(cd_economy, overflowing, p, master_seed=1)


    def test_fine_pareto_tol_needs_the_closed_form_path(self, mult_c1c2, shock):
        # the generic step decides trade at trade.PARETO_TOL; a finer
        # tolerance would end its runs mid-way in a configuration error
        twins = Economy.of([mult_c1c2, mult_c1c2])
        grid = Tabulated(np.array([0.8, 1.0, 1.25]), np.ones(3))
        with pytest.raises(SpecificationError, match="pareto_tol below 1e-08 needs the 2x2 closed-form"):
            make_config(twins, shock, grid, SpeedPrior.UNIFORM_CUBE, pareto_tol=1e-12)
        make_config(twins, shock, grid, SpeedPrior.UNIFORM_CUBE, pareto_tol=1e-8)
        # any 2x2 economy with an angle prior runs on the closed-form kernel
        cfg = make_config(twins, shock, UniformArc(), SpeedPrior.UNIFORM_CUBE, pareto_tol=1e-12)
        assert engine._supports_fast_path(cfg)
        assert engine.run_trajectory(cfg, 0).terminal is Terminal.PARETO_REACHED

    def test_fine_pareto_tol_on_the_closed_form_path(self, cd_economy, shock):
        cfg = make_config(
            cd_economy, shock, UniformArc(), SpeedPrior.UNIFORM_CUBE, pareto_tol=1e-12
        )
        t = engine.run_trajectory(cfg, 0)
        assert t.terminal is Terminal.PARETO_REACHED
        states, _, _ = table_objects(t.table, cd_economy)
        rates = trade.household_rates(cd_economy, states[-1])[:, 0]
        assert rates.max() - rates.min() <= 1e-12 * rates.min()

    def test_tabulated_grid_must_match_the_goods(self, cd_economy, shock):
        # two rates per atom cannot price two goods; the run used to die at its first LP
        grid = Tabulated(np.array([[1.0, 1.0], [0.8, 1.2]]), np.array([1.0, 1.0]))
        with pytest.raises(SpecificationError, match="grid rows must have L - 1 = 1 rates, got 2"):
            make_config(cd_economy, shock, grid, SpeedPrior.UNIFORM_CUBE)

    def test_angle_prior_needs_two_goods(self):
        specs = [UtilitySpec.ces([0.2, 0.3, 0.5], 0.5), UtilitySpec.ces([0.5, 0.3, 0.2], 0.5)]
        y = Allocation(np.array([[1.1, 0.9, 1.3], [0.8, 1.4, 0.7]]))
        with pytest.raises(SpecificationError, match="more than two goods need a tabulated"):
            make_config(Economy.of(specs), y, UniformArc(), SpeedPrior.UNIFORM_CUBE)


class TestDrawPrice:
    def test_uniform_arc_law_matches_closed_form_cdf(self, cd_economy, shock):
        rng = engine.run_rng(123, 0)
        prior = PriorSpec(UniformArc(), SpeedPrior.UNIFORM_CUBE)
        draws = np.array(
            [float(engine.draw_price(cd_economy, shock, prior, rng)[0]) for _ in range(10_000)]
        )
        a, b = math.atan(0.5), math.atan(2.0)

        def cdf(q):
            return (np.arctan(q) - a) / (b - a)

        stat = kstest(draws, cdf).statistic
        assert stat < 0.02
        assert draws.min() > 0.5 and draws.max() < 2.0

    def test_uniform_arc_law_on_three_traders(self):
        e, y = THREE_TRADERS
        lo, hi = rate_bounds(e, y)
        rng = engine.run_rng(123, 0)
        prior = PriorSpec(UniformArc(), SpeedPrior.UNIFORM_CUBE)
        draws = np.array([float(engine.draw_price(e, y, prior, rng)[0]) for _ in range(10_000)])
        a, b = math.atan(lo), math.atan(hi)
        assert kstest(draws, lambda q: (np.arctan(q) - a) / (b - a)).statistic < 0.02
        assert draws.min() > lo and draws.max() < hi

    @pytest.mark.parametrize(
        "q_prior", [UniformArc(), ArctanNormal(1.0, 0.3)], ids=["uniform_arc", "arctan_normal"]
    )
    def test_angle_draw_asks_no_lp(self, monkeypatch, q_prior):
        # with two goods the open rate interval between the households' rates
        # is the trade-compatible set: no trade LP (no vertex enumeration), no
        # trade screen and no box, in the public draw and in every step of a run
        def no_lp(*args):
            raise AssertionError("the angle draw enumerated speed vertices")

        def no_box(*args):
            raise AssertionError("the angle draw built the rate box")

        e, y = THREE_TRADERS
        lo, hi = rate_bounds(e, y)
        monkeypatch.setattr(trade, "_vertices", no_lp)
        monkeypatch.setattr(trade, "_screen", no_lp)
        monkeypatch.setattr(trade, "msr_extremes", no_box)
        monkeypatch.setattr(trade, "box_contains", no_box)
        rng = engine.run_rng(17, 0)
        prior = PriorSpec(q_prior, SpeedPrior.UNIFORM_CUBE)
        draws = np.array([float(engine.draw_price(e, y, prior, rng)[0]) for _ in range(1_000)])
        assert draws.min() > lo and draws.max() < hi
        assert engine.run_trajectory(make_config(e, y, q_prior, SpeedPrior.UNIFORM_CUBE, max_steps=40), 0).steps > 0

    @pytest.mark.parametrize("goods", [2, 3])
    def test_clear_cut_tabulated_draw_asks_no_lp(self, monkeypatch, goods):
        # every in-box atom is well inside or well outside the trade set: the
        # draw keeps exactly the atoms the exact polytope admits, at L = 2 in
        # closed form on the rate interval, with no trade LP (no vertex
        # enumeration); at every L it builds the box and the directions on
        # rows, with no call of the public, checking box and direction functions
        from oracles import clearing_price, exact_trade_volume

        def no_lp(*args):
            raise AssertionError("the tabulated draw enumerated speed vertices")

        def no_public(*args):
            raise AssertionError("the tabulated draw called a public, checking trade function")

        if goods == 2:
            e, y = THREE_TRADERS
            lo, hi = rate_bounds(e, y)
            atoms = np.array([lo / 1.5, lo * 1.1, (lo + hi) / 2.0, hi * 0.9, hi * 1.5])[:, None]
            monkeypatch.setattr(trade, "_vertices", no_lp)
        else:
            weights = ([0.2, 0.3, 0.5], [0.5, 0.3, 0.2], [0.3, 0.4, 0.3])
            e = Economy.of([UtilitySpec.ces(w, 0.5) for w in weights])
            y = Allocation(np.array([[1.5, 0.8, 1.1], [0.7, 1.4, 0.9], [1.0, 1.0, 1.6]]))
            shifts = [[0.0, 0.0], [0.05, -0.05], [-0.05, 0.05], [0.4, 0.4], [-0.4, 0.3]]
            atoms = clearing_price(e, y) * np.exp(np.array(shifts))
        screened = trade.box_contains(trade.msr_extremes(e, y), atoms)
        assert screened.sum() >= 3
        volumes = [exact_trade_volume(e, y, np.append(q, 1.0)) for q in atoms[screened]]
        assert all(abs(v - t) > 0.01 * t for v, t in volumes)
        want = [v > t for v, t in volumes]
        assert any(want) and (goods == 2 or not all(want))
        prior = PriorSpec(Tabulated(atoms, np.ones(len(atoms))), SpeedPrior.UNIFORM_CUBE)
        for name in ("msr_extremes", "box_contains", "all_trade_directions"):
            monkeypatch.setattr(trade, name, no_public)
        rng = engine.run_rng(17, 0)
        drawn = {tuple(engine.draw_price(e, y, prior, rng)) for _ in range(200)}
        assert drawn == {tuple(q) for q, ok in zip(atoms[screened], want) if ok}

    def test_four_goods_grid_goes_through_the_lp(self, monkeypatch):
        # the trade LP at L = 4, solved by enumerating the vertices of every
        # in-box atom's speed polytope in one stack
        from oracles import clearing_price

        weights = ([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1], [0.25, 0.25, 0.25, 0.25])
        e = Economy.of([UtilitySpec.ces(w, 0.5) for w in weights])
        y = Allocation(np.array([[1.5, 0.8, 1.1, 0.9], [0.7, 1.4, 0.9, 1.2], [1.0, 1.0, 1.6, 0.8]]))
        shifts = [[0.0, 0.0, 0.0], [0.03, -0.03, 0.0], [0.0, 0.02, -0.02], [2.0, 2.0, 2.0]]
        atoms = clearing_price(e, y) * np.exp(np.array(shifts))
        in_box = trade.box_contains(trade.msr_extremes(e, y), atoms)
        calls = []
        vertices = trade._vertices
        monkeypatch.setattr(trade, "_vertices", lambda A: calls.append(A.shape) or vertices(A))
        prior = PriorSpec(Tabulated(atoms, np.ones(len(atoms))), SpeedPrior.UNIFORM_CUBE)
        q = engine.draw_price(e, y, prior, engine.run_rng(3, 0))
        assert calls == [(int(in_box.sum()), 3, 3)] and in_box.sum() >= 3
        assert any(np.array_equal(q, a) for a in atoms[in_box])

    def test_sticky_prior_concentrates(self, cd_economy, shock):
        rng = engine.run_rng(7, 0)
        prior = PriorSpec(ArctanNormal(1.0, 0.05), SpeedPrior.UNIFORM_CUBE)
        draws = np.array(
            [float(engine.draw_price(cd_economy, shock, prior, rng)[0]) for _ in range(2_000)]
        )
        # 4-sigma band on the angle: q in tan(pi/4 +- 4 * 0.05)
        four_sigma = np.tan(np.arctan(1.0) + np.array([-0.2, 0.2]))
        inside = np.mean((draws > four_sigma[0]) & (draws < four_sigma[1]))
        assert inside >= 0.99
        # (0.8, 1.25) is the +-2.21-sigma band; its mass is Phi(2.21)-Phi(-2.21)
        two_sigma_mass = float(np.mean((draws > 0.8) & (draws < 1.25)))
        assert two_sigma_mass == pytest.approx(0.9731, abs=0.015)

    @pytest.mark.parametrize("center_rate", [0.1, 20.0])
    def test_far_tail_arctan_normal_matches_truncated_law(self, cd_economy, shock, center_rate):
        # the trade interval (0.5, 2) lies 12 (center 0.1) or 14 (center 20)
        # sigmas out in the prior's tail, where a CDF that keeps only absolute
        # precision rounds its mass to zero
        sigma = 0.03
        rng = engine.run_rng(11, 0)
        prior = PriorSpec(ArctanNormal(center_rate, sigma), SpeedPrior.UNIFORM_CUBE)
        angles = np.arctan(
            [float(engine.draw_price(cd_economy, shock, prior, rng)[0]) for _ in range(2_000)]
        )
        mu = math.atan(center_rate)
        law = truncnorm(
            (math.atan(0.5) - mu) / sigma, (math.atan(2.0) - mu) / sigma, loc=mu, scale=sigma
        )
        assert kstest(angles, law.cdf).statistic < 0.04

    def test_angle_interval_beyond_the_tail_fails_loudly(self):
        # 50 sigmas out erfc underflows to 0 at both ends: the law has no mass
        rng = engine.run_rng(1, 0)
        with pytest.raises(
            SamplingError, match=r"no prior mass on price angles \(0.5, 0.6\): mean 1e-300, sigma 0.01"
        ):
            engine._draw_rate(
                ArctanNormal(1e-300, 0.01), np.tan([0.5]), np.tan([0.6]), lambda sub: rng.random(1)
            )

    def test_accepted_draws_are_trade_compatible(self, cd_economy, shock):
        rng = engine.run_rng(5, 3)
        prior = PriorSpec(UniformArc(), SpeedPrior.UNIFORM_CUBE)
        for _ in range(50):
            q = engine.draw_price(cd_economy, shock, prior, rng)
            assert trade.has_trade(cd_economy, shock, np.append(q, 1.0))

    def test_tabulated_single_atom(self, cd_economy, shock):
        rng = engine.run_rng(5, 4)
        prior = PriorSpec(Tabulated(np.array([1.0]), np.array([1.0])), SpeedPrior.MAX_SPEED)
        q = engine.draw_price(cd_economy, shock, prior, rng)
        assert q[0] == 1.0

    def test_zero_mass_prior_raises(self, cd_economy, shock):
        rng = engine.run_rng(5, 5)
        prior = PriorSpec(Tabulated(np.array([9.0]), np.array([1.0])), SpeedPrior.MAX_SPEED)
        with pytest.raises(SamplingError):
            engine.draw_price(cd_economy, shock, prior, rng)

    def test_exhausted_prior_names_the_interval_and_the_atoms(self, cd_economy, shock):
        # two atoms around the unit clearing rate: one max-speed epoch at 0.8
        # leaves the interval (0.8, 1.236...), and neither atom inside it
        prior = PriorSpec(Tabulated(np.array([0.8, 1.3]), np.ones(2)), SpeedPrior.MAX_SPEED)
        cfg = SimConfig(cd_economy, shock, prior, master_seed=1)
        with pytest.raises(SamplingError) as info:
            engine.run_monte_carlo(cfg)
        msg = str(info.value)
        head = "run 0: step 2: the price prior assigns zero mass to the trade-compatible set: rate interval ("
        assert msg.startswith(head)
        lo, hi = (float(v) for v in msg[len(head) :].split(")")[0].split(", "))
        assert lo == pytest.approx(0.8, rel=1e-12) and hi == pytest.approx(1.2363636363636363, rel=1e-12)
        assert msg.endswith(
            "; atoms in the box: 1, rejected by the trade screen: 1; "
            "nearest atoms with prior mass: 0.8 on the low side, 1.3 on the high side; "
            "state [[1.625, 1.3], [1.375, 1.7]]"
        )

    def test_exhausted_prior_names_the_box_at_three_goods(self):
        e = Economy.of([UtilitySpec.ces(w, 0.5) for w in ([0.2, 0.3, 0.5], [0.5, 0.3, 0.2])])
        y = Allocation(np.array([[1.5, 0.8, 1.1], [0.7, 1.4, 0.9]]))
        box = trade.msr_extremes(e, y)
        prior = PriorSpec(Tabulated(np.array([[9.0, 9.0], [0.01, 0.01]]), np.ones(2)), SpeedPrior.MAX_SPEED)
        with pytest.raises(SamplingError) as info:
            engine.draw_price(e, y, prior, engine.run_rng(1, 0))
        assert str(info.value) == (
            "the price prior assigns zero mass to the trade-compatible set: rate box from "
            f"{box.lower_rates[:-1, -1].tolist()} to {box.upper_rates[:-1, -1].tolist()}; "
            "atoms in the box: 0, rejected by the trade screen: 0"
        )

    def test_pick_falls_back_to_the_last_rise_of_a_short_cdf(self):
        # these weights' running sum ends below np.sum's, which adds them in
        # another order, so the CDF's last value is below 1 and a uniform at it
        # exceeds no entry: it takes the atom of the CDF's last rise, not the
        # massless last atom
        weights = np.array([[0.8, 0.6, 0.5, 0.3, 0.3, 0.1, 0.1, 0.1, 0.0]] * 2)
        cdf = np.cumsum(weights[0]) / weights[0].sum()
        assert cdf[-1] < 1.0
        assert engine._pick(weights, np.array([cdf[-1], 0.25])).tolist() == [7, 0]

    def test_an_exhausted_row_leaves_the_other_rows_draw_alone(self, cd_economy, shock):
        # a failing row gets placeholders and comes back NaN; the row beside it,
        # whose uniform would pick the atom 0.3 if a placeholder mass leaked
        # into its row, draws the atom and path end it draws alone
        prior = Tabulated(np.array([0.3, 1.5]), np.array([1.0, 2.0]))
        y = np.stack([[[1.625, 1.3], [1.375, 1.7]], shock.bundles])  # rate intervals (0.8, 1.236...) and (0.5, 2)
        lo, hi, _ = (v[:, 0] for v in trade._extremes(trade._household_rates(cd_economy, y), trade.PARETO_TOL))
        u, failed = np.array([0.9, 0.2]), []
        q, x, vertices = engine._draw_atom(
            cd_economy, prior, y, lo, hi, lambda sub: u[sub], lambda rows, why: failed.extend((r, why(r)) for r in rows)
        )
        alone_q, alone_x, _ = engine._draw_atom(cd_economy, prior, y[1:], lo[1:], hi[1:], lambda sub: u[1:][sub])
        assert [r for r, _ in failed] == [0]
        assert failed[0][1].startswith("the price prior assigns zero mass to the trade-compatible set: rate interval (0.8")
        assert np.isnan(q[0]) and np.isnan(x[0]).all() and vertices is None
        assert q[1] == alone_q[0] == 1.5
        assert x[1].tobytes() == alone_x[0].tobytes()

    @pytest.mark.parametrize("q_prior", [UniformArc(), ArctanNormal(1.0, 0.2)], ids=["uniform_arc", "arctan_normal"])
    def test_angle_draw_stops_at_the_rejection_cap(self, monkeypatch, cd_economy, q_prior):
        # every rate strictly inside a one-ulp interval rounds onto an end,
        # so each attempt is rejected; the loop reads the cap at call time
        monkeypatch.setattr(engine, "REJECTION_CAP", 50)
        y = Allocation(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]]))
        cfg = make_config(cd_economy, y, q_prior, SpeedPrior.UNIFORM_CUBE, pareto_tol=1e-300)
        want = (
            "run 0: step 1: no trade-compatible price within 50 draws; rate interval "
            "(1.0, 1.0000000000000002); state [[1.0, 1.0], [1.0, 1.0000000000000002]]"
        )
        for run in (lambda: engine.run_monte_carlo(cfg), lambda: engine.run_trajectory(cfg, 0)):
            with pytest.raises(SamplingError) as info:
                run()
            assert str(info.value) == want

    def test_three_goods_requires_tabulated(self, rng):
        specs = [
            UtilitySpec.ces([0.2, 0.3, 0.5], 0.5),
            UtilitySpec.ces([0.5, 0.3, 0.2], 0.5),
            UtilitySpec.cobb_douglas_log([0.3, 0.4, 0.3]),
            UtilitySpec.cobb_douglas_log([0.4, 0.2, 0.4]),
        ]
        e = Economy.of(specs)
        y = Allocation(log_uniform(np.random.default_rng(0), (4, 3), 0.8, 1.2))
        prior = PriorSpec(UniformArc(), SpeedPrior.UNIFORM_CUBE)
        with pytest.raises(SpecificationError):
            engine.draw_price(e, y, prior, engine.run_rng(1, 0))


@pytest.mark.dispatch
class TestNormalLaw:
    """The arctan-normal draw's CDF and quantile; scipy serves only as an oracle here."""

    def test_quantile_has_the_standard_library_bits(self):
        # 10**5 probabilities over the draw's clip range, both tails log-spaced,
        # and the AS241 branch edges with their neighbours
        lower = np.geomspace(sys.float_info.min, 0.5, 49_994)
        upper = 1.0 - np.geomspace(1e-16, 0.5, 50_000)
        edges = [np.nextafter(e, d) for e in (0.075, 0.925) for d in (0.0, e, 1.0)]
        p = np.concatenate([lower, upper, edges])
        want = np.array([statistics.NormalDist().inv_cdf(float(v)) for v in p])
        assert p.size == 10**5 and p.min() == sys.float_info.min and p.max() == 1.0 - 1e-16
        assert np.array_equal(engine._ndtri(p).view(np.int64), want.view(np.int64))

    def test_cdf_keeps_relative_precision_down_the_tail(self):
        x = np.concatenate([np.linspace(-38.5, 9.0, 100_001), -np.geomspace(1e-300, 1.0, 1_000)])
        want = ndtr(x)
        kept = want >= 1e-300
        assert kept.sum() > 95_000
        np.testing.assert_allclose(engine._ndtr(x[kept]), want[kept], rtol=1e-12, atol=0.0)
        central = np.abs(x) < math.sqrt(2.0)  # the rational erf, exactly rounded arithmetic on both sides
        np.testing.assert_allclose(engine._ndtr(x[central]), want[central], rtol=1e-15, atol=0.0)

    def test_cdf_underflows_where_scipy_does(self):
        # the far-tail sampling failures name "no prior mass" from this zero
        assert engine._ndtr(np.array([-38.5]))[0] == 0.0 == ndtr(-38.5)


class TestStep:
    def test_pareto_stop(self, cd_economy):
        flat = Allocation(np.array([[1.5, 1.5], [1.5, 1.5]]))
        prior = PriorSpec(UniformArc(), SpeedPrior.MAX_SPEED)
        assert engine.sntp_step(cd_economy, flat, prior, engine.run_rng(1, 0)) is None

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    def test_stop_tolerance_must_be_positive_and_finite(self, cd_economy, tol):
        # refused at the door, before the Pareto test: a NaN used to reach the
        # price draw at a Pareto state and never stop elsewhere
        flat = Allocation(np.array([[1.5, 1.5], [1.5, 1.5]]))
        prior = PriorSpec(UniformArc(), SpeedPrior.MAX_SPEED)
        rng = engine.run_rng(1, 0)
        with pytest.raises(SpecificationError, match=rf"^pareto_tol must be a number in \(0, inf\), got {tol!r}$"):
            engine.sntp_step(cd_economy, flat, prior, rng, tol)
        assert rng.random() == engine.run_rng(1, 0).random()  # nothing was read

    def test_fine_stop_tolerance_needs_the_closed_form_path(self, cd_economy, shock):
        prior = PriorSpec(UniformArc(), SpeedPrior.MAX_SPEED)
        rng = engine.run_rng(1, 0)
        with pytest.raises(SpecificationError, match="^pareto_tol below 1e-08 needs the 2x2 closed-form path"):
            engine.sntp_step(cd_economy, shock, prior, rng, 1e-12)
        assert rng.random() == engine.run_rng(1, 0).random()  # nothing was read

    def test_forced_unit_price_max_speed_reaches_equilibrium(self, cd_economy, shock):
        prior = PriorSpec(Tabulated(np.array([1.0]), np.array([1.0])), SpeedPrior.MAX_SPEED)
        out, q, sigma = engine.sntp_step(cd_economy, shock, prior, engine.run_rng(1, 0))
        np.testing.assert_allclose(out.bundles, [[1.5, 1.5], [1.5, 1.5]], atol=1e-12)
        assert q[0] == 1.0
        np.testing.assert_allclose(sigma, [1.0, 1.0], atol=1e-12)

    @pytest.mark.dispatch
    @settings(max_examples=60, deadline=None)
    @given(
        specs=st.lists(_SPEC_2, min_size=3, max_size=3),
        bundles=st.lists(st.floats(0.3, 3.0), min_size=6, max_size=6),
        households=st.sampled_from([2, 3]),
        q_prior=_PRICE_PRIOR,
        s_prior=st.sampled_from(SpeedPrior),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_row_epoch_follows_the_reference_step(self, specs, bundles, households, q_prior, s_prior, seed):
        # sntp_step at L = 2 runs the 2x2 kernel's epoch on one row, whose
        # closed-form speeds read the directions' lengths by hypot: the same
        # prices and stream position as the generic step it replaced, speeds
        # and states within rounding
        e = Economy.of(specs[:households])
        y = Allocation(np.reshape(bundles[: 2 * households], (households, 2)))
        assert_steps_follow_the_reference(e, y, PriorSpec(q_prior, s_prior), seed, exact=False)

    @pytest.mark.dispatch
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        goods=st.sampled_from([2, 3]),
        s_prior=st.sampled_from(SpeedPrior),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_row_epoch_is_the_composed_step_bit_for_bit(self, data, goods, s_prior, seed):
        # beyond the closed-form speeds (CES households at L = 3 under a
        # tabulated prior, four households at L = 2 under an angle prior) the
        # one-row epoch's box, screen, pick, path ends and ray or vertex draw
        # are the public pieces the step composed before it, bit for bit
        if goods == 3:
            households = data.draw(st.integers(3, 4))  # two households at L = 3 trade only when exactly opposed
            specs = data.draw(st.lists(_CES_3, min_size=households, max_size=households))
            q_prior = Tabulated(_GRID, np.random.default_rng(seed).uniform(0.5, 1.5, len(_GRID)))
        else:
            households = 4
            specs = data.draw(st.lists(_SPEC_2, min_size=households, max_size=households))
            q_prior = data.draw(_ANGLE_PRIOR)
        size = households * goods
        y = Allocation(np.reshape(data.draw(st.lists(st.floats(0.3, 3.0), min_size=size, max_size=size)), (households, goods)))
        assert_steps_follow_the_reference(Economy.of(specs), y, PriorSpec(q_prior, s_prior), seed, exact=True)

    def test_a_polytope_draw_reads_the_decisions_vertices(self, monkeypatch):
        # at L = 3 a step enumerates vertices once, in its trade decision, and
        # the drawn atom's speed draw reads them from there
        e, y, q_prior = FOUR_BY_THREE
        prior = PriorSpec(q_prior, SpeedPrior.UNIFORM_CUBE)
        calls, given = [], []
        vertices, sample_speed = trade._vertices, trade._sample_speed
        monkeypatch.setattr(trade, "_vertices", lambda A: calls.append(A.shape) or vertices(A))
        monkeypatch.setattr(trade, "_sample_speed", lambda *args: given.append(args[4] is not None) or sample_speed(*args))
        rng = engine.run_rng(1, 0)
        for step in range(1, 11):
            y = engine.sntp_step(e, y, prior, rng)[0]
            assert len(calls) == step
        assert given == [True] * 10

    def test_a_polytope_row_reads_a_block_in_one_call(self):
        # four traders at L = 2 whose rates all differ: after the price attempts, one
        # uniform each, the three-dimensional speed draw reads its block of 100
        # proposals of three uniforms from the step's stream in one call
        e = Economy.of([UtilitySpec.cobb_douglas_log(w) for w in ([0.3, 0.7], [0.6, 0.4], [0.5, 0.5], [0.2, 0.8])])
        y = Allocation(np.array([[2.0, 1.0], [1.0, 2.0], [1.5, 0.5], [0.5, 1.5]]))
        rng, calls = engine.run_rng(1, 0), []

        class Stream:
            def random(self, k=None):
                calls.append(k)
                return rng.random(k)

        sigma = engine.sntp_step(e, y, PriorSpec(UniformArc(), SpeedPrior.UNIFORM_CUBE), Stream())[2]
        assert np.count_nonzero(sigma) == 4
        assert calls[-1] == 300 and set(calls[:-1]) == {1}

    def test_a_path_end_on_the_floor_trades(self, monkeypatch, cd_economy):
        # the epoch's floor test is closed: path ends exactly at 1e-300 trade,
        # while the row beside them, whose path ends are NaN, fails alone
        ends = np.array([[[math.nan, math.nan], [math.nan, math.nan]], [[1e-300, 3.0], [3.0, 1e-300]]])
        monkeypatch.setattr(trade, "_path_end", lambda u, b, p: ends)
        y = np.array([[[2.0, 1.0], [1.0, 2.0]]] * 2)
        failed = []
        prior = PriorSpec(UniformArc(), SpeedPrior.MAX_SPEED)
        lo, hi = np.array([0.5, 0.5]), np.array([2.0, 2.0])
        _, sigma, _ = engine._epoch(
            cd_economy, prior, y, lo, hi, lambda sub: np.full(2, 0.5), lambda rows, why, kind=SamplingError: failed.extend(
                (int(r), kind) for r in rows
            )
        )
        assert failed[0] == (0, DomainDegeneracyError) and {r for r, _ in failed} == {0}
        np.testing.assert_array_equal(sigma[1], [1.0, 1.0])

    def test_utilities_never_decrease(self, cd_economy, shock, cd):
        prior = PriorSpec(UniformArc(), SpeedPrior.UNIFORM_CUBE)
        rng = engine.run_rng(2, 0)
        state = shock
        for _ in range(20):
            step = engine.sntp_step(cd_economy, state, prior, rng)
            if step is None:
                break
            new, _, _ = step
            for h in range(2):
                assert prefs.utility(cd, new.bundle(h)) >= prefs.utility(cd, state.bundle(h)) - 1e-12
            state = new


class TestTrajectory:
    def test_determinism_bitwise(self, cd_economy, shock):
        cfg = make_config(cd_economy, shock, ArctanNormal(1.0, 0.2), SpeedPrior.UNIFORM_CUBE)
        t1 = engine.run_trajectory(cfg, 3)
        t2 = engine.run_trajectory(cfg, 3)
        assert t1.terminal == t2.terminal
        assert t1.steps == t2.steps
        assert t1.table.tobytes() == t2.table.tobytes()

    def test_distinct_runs_differ(self, cd_economy, shock):
        cfg = make_config(cd_economy, shock, UniformArc(), SpeedPrior.UNIFORM_CUBE)
        (_, p0, _), (_, p1, _) = (table_objects(engine.run_trajectory(cfg, i).table, cd_economy) for i in (0, 1))
        assert p0[0][0] != p1[0][0]

    def test_frozen_at_pareto_start(self, cd_economy):
        flat = Allocation(np.array([[1.5, 1.5], [1.5, 1.5]]))
        cfg = make_config(cd_economy, flat, UniformArc(), SpeedPrior.MAX_SPEED)
        t = engine.run_trajectory(cfg, 0)
        assert t.terminal is Terminal.PARETO_REACHED
        assert t.steps == 0
        states, _, _ = table_objects(t.table, cd_economy)
        assert len(states) == 1
        np.testing.assert_array_equal(states[0].bundles, flat.bundles)
        np.testing.assert_allclose(engine.run_monte_carlo(cfg).terminal_qs, [[1.0]])

    def test_aggregate_conserved_along_path(self, cd_economy, shock):
        cfg = make_config(cd_economy, shock, UniformArc(), SpeedPrior.UNIFORM_CUBE)
        t = engine.run_trajectory(cfg, 0)
        for state in table_objects(t.table, cd_economy)[0]:
            np.testing.assert_allclose(state.aggregate, [3.0, 3.0], atol=1e-8)

    def test_states_replay_through_advance(self, cd_economy, shock):
        cfg = make_config(cd_economy, shock, UniformArc(), SpeedPrior.UNIFORM_CUBE, max_steps=40)
        states, prices, speeds = table_objects(engine.run_trajectory(cfg, 5).table, cd_economy)
        for k in range(len(speeds)):
            replayed = reference_advance(cd_economy, states[k], np.append(prices[k], 1.0), speeds[k])
            np.testing.assert_allclose(replayed.bundles, states[k + 1].bundles, atol=1e-12)

    @pytest.mark.dispatch
    @settings(max_examples=40, deadline=None)
    @given(
        specs=st.lists(_SPEC_2, min_size=2, max_size=2),
        bundles=st.lists(st.floats(0.3, 3.0), min_size=4, max_size=4),
        q_prior=_ANGLE_PRIOR,
        s_prior=st.sampled_from(SpeedPrior),
        run_index=st.integers(0, 10_000),
    )
    def test_fast_and_generic_paths_agree(self, specs, bundles, q_prior, s_prior, run_index):
        # at the default pareto_tol both paths run one _epoch per step from the
        # same stream (sntp_step on one row), so their tables agree bit for bit
        initial = Allocation(np.reshape(bundles, (2, 2)))
        cfg = make_config(Economy.of(specs), initial, q_prior, s_prior, max_steps=60)
        assert cfg.pareto_tol == trade.PARETO_TOL
        outcomes = []
        for kernel in (engine._run_2x2, engine._run_generic):
            try:
                outcomes.append(kernel(cfg, np.array([run_index]), record=True))
            except (SamplingError, DomainDegeneracyError) as exc:
                outcomes.append(type(exc))
        if not all(isinstance(out, tuple) for out in outcomes):  # a failed run fails both ways
            assert outcomes[0] is outcomes[1]
            return
        (fast_last, fast_pareto, fast_table), (slow_last, slow_pareto, slow_table) = outcomes
        assert fast_pareto.tolist() == slow_pareto.tolist()
        assert fast_last.tobytes() == slow_last.tobytes()
        assert fast_table.tobytes() == slow_table.tobytes()

    def test_max_speed_converges_fast(self, cd_economy, shock):
        cfg = make_config(cd_economy, shock, UniformArc(), SpeedPrior.MAX_SPEED, max_steps=200, pareto_tol=1e-3)
        hits = 0
        for idx in range(100):
            t = engine.run_trajectory(cfg, idx)
            if t.terminal is Terminal.PARETO_REACHED:
                hits += 1
        assert hits >= 99

    def test_monotone_utilities_along_path(self, cd_economy, shock, cd):
        cfg = make_config(cd_economy, shock, UniformArc(), SpeedPrior.UNIFORM_CUBE, max_steps=80)
        states, _, _ = table_objects(engine.run_trajectory(cfg, 9).table, cd_economy)
        for h in range(2):
            vals = [prefs.utility(cd, s.bundle(h)) for s in states]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestMonteCarlo:
    def test_parallel_equals_sequential(self, cd_economy, shock):
        cfg = make_config(
            cd_economy, shock, ArctanNormal(1.0, 0.1), SpeedPrior.UNIFORM_CUBE, runs=64, max_steps=120
        )
        seq = engine.run_monte_carlo(cfg)
        par = engine.run_monte_carlo(cfg, workers=2)
        np.testing.assert_array_equal(seq.samples, par.samples)
        np.testing.assert_array_equal(seq.coords, par.coords)
        np.testing.assert_array_equal(seq.bin_counts, par.bin_counts)
        assert seq.mean == par.mean

    def test_sticky_prior_centers_on_equilibrium(self, cd_economy, shock):
        cfg = make_config(
            cd_economy, shock, ArctanNormal(1.0, 0.05), SpeedPrior.UNIFORM_CUBE, runs=500, master_seed=11
        )
        dist = engine.run_monte_carlo(cfg)
        assert abs(dist.mean - 1.5) < 0.05
        np.testing.assert_allclose(dist.household_means[0], [1.5, 1.5], atol=0.05)
        assert dist.runs == 500
        lo_wide, hi_wide = dist.bands["5-95"]
        lo_tight, hi_tight = dist.bands["25-75"]
        assert lo_wide <= lo_tight <= hi_tight <= hi_wide

    def test_bands_nested_and_counts_sum(self, cd_economy, shock):
        cfg = make_config(cd_economy, shock, UniformArc(), SpeedPrior.MAX_SPEED, runs=200)
        dist = engine.run_monte_carlo(cfg)
        assert dist.bin_counts.sum() == 200
        assert len(dist.terminal_tags) == 200

    @settings(max_examples=150, deadline=None)
    @example(n=3, kind="spread", scale=0, seed=3)  # the 25% quantile lies halfway: numpy lerps from the upper value
    @given(
        n=st.one_of(st.integers(1, 40), st.integers(1, 30_000)),  # few values leave wide gaps
        kind=st.sampled_from(["spread", "ties", "constant"]),
        scale=st.integers(-8, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bands_are_numpys_linear_quantiles_bit_for_bit(self, n, kind, scale, seed):
        rng = np.random.default_rng(seed)
        if kind == "spread":
            x = rng.lognormal(sigma=2.0, size=n)
        elif kind == "ties":
            x = rng.choice(rng.lognormal(sigma=2.0, size=int(rng.integers(1, 6))), size=n)
        else:
            x = np.full(n, rng.lognormal())
        x *= 10.0**scale
        samples = np.ones((n, 2, 2))
        samples[:, 0, 0] = x
        dist = engine.summarize(samples, np.ones((n, 1)), np.zeros(n, dtype=np.int64), [Terminal.STEP_CAP] * n)
        q05, q25, q75, q95 = (float(q).hex() for q in np.quantile(x, [0.05, 0.25, 0.75, 0.95]))
        bands = {name: tuple(float(v).hex() for v in band) for name, band in dist.bands.items()}
        assert bands == {"5-95": (q05, q95), "25-75": (q25, q75)}

    def test_degenerate_step_names_the_run_and_step(self, monkeypatch):
        # every path end at 0: the epoch's guard fails the step
        monkeypatch.setattr(trade, "_path_end", lambda u, b, p: 0.0 * b)
        cfg = make_config(*THREE_TRADERS, UniformArc(), SpeedPrior.UNIFORM_CUBE, runs=3)
        with pytest.raises(DomainDegeneracyError) as info:
            engine.run_monte_carlo(cfg)
        assert str(info.value) == (
            "run 0: step 1: demand degenerated below the positive floor; state [[2.0, 1.0], [1.0, 2.0], [1.5, 0.5]]"
        )


def assert_same_outcomes(a, b) -> None:
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(a.steps, b.steps)
    np.testing.assert_array_equal(a.terminal_qs, b.terminal_qs)
    assert a.terminal_tags == b.terminal_tags
    assert (a.trace is None) is (b.trace is None)
    assert a.trace is None or (a.trace.shape, a.trace.tobytes()) == (b.trace.shape, b.trace.tobytes())


# the (0.5, 2) trade interval of the shock starts 36.9 sigmas out in the
# prior's tail; as it narrows it drifts further out, and some runs cross the
# ~37 sigmas where erfc underflows within ten steps
FAR_TAIL = ArctanNormal(math.tan(math.atan(0.5) - 36.9 * 0.005), 0.005)


@pytest.mark.dispatch
class TestStreams:
    """``_Streams`` reads run ``i``'s uniforms exactly as ``run_rng(seed, i).random()``."""

    @pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1, 2**32], ids=["0", "2**63+5", "2**64-1", "2**32"])
    def test_interleaved_rows_read_each_runs_own_stream(self, seed):
        indices = np.array([0, 3, 2**33 + 1, 17, 2**32])
        streams = engine._Streams(seed, indices)
        picks = np.random.default_rng(5)
        read = [[] for _ in indices]
        for _ in range(4 * engine._BLOCK + 9):  # cursors diverge over three or more refills
            rows = np.flatnonzero(picks.random(indices.size) < 0.8)
            for r, u in zip(rows, streams.take(rows)):
                read[r].append(u)
        for i, mine in zip(indices, read):
            assert len(mine) > 3 * engine._BLOCK
            np.testing.assert_array_equal(mine, engine.run_rng(seed, int(i)).random(len(mine)))

    def test_one_row_batch(self):
        streams = engine._Streams(2**63 + 5, np.array([2**40]))
        mine = [streams.take(np.array([0]))[0] for _ in range(3 * engine._BLOCK + 1)]
        np.testing.assert_array_equal(mine, engine.run_rng(2**63 + 5, 2**40).random(len(mine)))

    def test_bundled_runs_read_the_pinned_uniforms(self):
        # Philox and its doubles, (raw >> 11) * 2**-53, are integer-exact, so
        # these bytes are the same on every platform
        streams = engine._Streams(1, np.arange(500))
        u = np.stack([streams.take(np.arange(500)) for _ in range(3 * engine._BLOCK + 1)], axis=1)
        digest = hashlib.sha256(u.astype("<f8").tobytes()).hexdigest()
        assert digest == "8ec5af32f6a520e383bc33c8b37cb3fe462387838211a106524ed4860ff9898e"


class TestRunIndex:
    """A run index is the second Philox key word: an integer from 0 to 2**64 - 1."""

    @pytest.fixture(params=["2x2", "generic"])
    def cfg(self, request, cd_economy, shock) -> SimConfig:
        q_prior = UniformArc() if request.param == "2x2" else Tabulated(np.array([0.8, 1.0, 1.25]), np.ones(3))
        cfg = make_config(cd_economy, shock, q_prior, SpeedPrior.UNIFORM_CUBE, max_steps=20)
        assert engine._supports_fast_path(cfg) is (request.param == "2x2")
        return cfg

    @pytest.mark.parametrize("index", [-1, 2**64, 1.5, True], ids=["-1", "2**64", "1.5", "True"])
    def test_index_outside_64_bits_is_refused(self, cfg, index):
        message = "^run index must be an integer from 0 to 2\\*\\*64 - 1"
        with pytest.raises(SpecificationError, match=message):
            engine.run_rng(cfg.master_seed, index)
        with pytest.raises(SpecificationError, match=message):
            engine.run_trajectory(cfg, index)

    def test_last_index_has_a_float_table(self, cfg):
        t = engine.run_trajectory(cfg, 2**64 - 1)
        assert t.table.dtype == np.float64
        assert t.table[0, 0] == 2.0**64


class TestHistogramBins:
    @pytest.mark.parametrize("bins", [0, -3, 2.5, True, 10**6 + 1])
    def test_bin_count_is_refused_before_any_run(self, monkeypatch, cd_economy, shock, bins):
        calls = []
        run_batch = engine._run_batch
        monkeypatch.setattr(engine, "_run_batch", lambda *args: calls.append(args) or run_batch(*args))
        cfg = make_config(cd_economy, shock, UniformArc(), SpeedPrior.UNIFORM_CUBE, runs=4)
        with pytest.raises(SpecificationError, match=rf"^bins must be an integer from 1 to 1000000, got {bins!r}$"):
            engine.run_monte_carlo(cfg, bins=bins)
        assert not calls
        assert engine.run_monte_carlo(cfg, bins=np.int64(3)).bin_counts.size == 3
        assert len(calls) == 1


class TestLockstepKernel:
    @pytest.fixture(
        params=[
            (ArctanNormal(1.0, 0.2), SpeedPrior.UNIFORM_CUBE),
            (UniformArc(), SpeedPrior.MAX_SPEED),
        ],
        ids=["arctan_uniform_cube", "uniform_arc_max_speed"],
    )
    def cfg64(self, request, cd, ces73, shock) -> SimConfig:
        q_prior, s_prior = request.param
        return make_config(Economy.of([cd, ces73]), shock, q_prior, s_prior, runs=64, max_steps=120)

    def test_chunk_size_and_workers_are_invisible(self, monkeypatch, cfg64):
        # the recorded tables too: each chunk's is assembled in place, then joined in run order
        base = {trace: engine.run_monte_carlo(cfg64, trace=trace) for trace in (False, True)}

        def same(**kw):
            for trace, dist in base.items():
                assert_same_outcomes(dist, engine.run_monte_carlo(cfg64, trace=trace, **kw))

        same(workers=2)
        for chunk in (1, 7):
            monkeypatch.setattr(engine, "_CHUNK", chunk)
            same()
        same(workers=2)

    def test_trajectory_is_its_monte_carlo_run(self, cfg64):
        dist = engine.run_monte_carlo(cfg64, trace=True)
        for i in range(cfg64.runs):
            t = engine.run_trajectory(cfg64, i)
            assert t.steps == dist.steps[i]
            assert t.terminal is dist.terminal_tags[i]
            states, prices, _ = table_objects(t.table, cfg64.economy)
            np.testing.assert_array_equal(states[0].bundles, cfg64.initial.bundles)
            np.testing.assert_array_equal(states[-1].bundles, dist.samples[i])
            np.testing.assert_array_equal(prices[-1], dist.terminal_qs[i])
            mine = dist.trace[dist.trace[:, 0] == i]
            np.testing.assert_array_equal(mine[:, 1], np.arange(t.steps + 1))
            np.testing.assert_array_equal(mine[:, 5:], [s.bundles.ravel() for s in states])

    def test_failed_run_is_the_lowest_index_whatever_the_chunk(self, monkeypatch, cd_economy, shock):
        cfg = make_config(
            cd_economy, shock, FAR_TAIL, SpeedPrior.UNIFORM_CUBE, master_seed=3, runs=64, max_steps=10
        )
        failed = {}
        for i in range(cfg.runs):
            try:
                engine.run_trajectory(cfg, i)
            except SamplingError as exc:
                failed[i] = str(exc)
        assert 0 < len(failed) < cfg.runs
        first = min(failed)
        assert failed[first].startswith(f"run {first}: step ")
        assert "rate interval (" in failed[first]
        for chunk in (engine._CHUNK, 1):
            monkeypatch.setattr(engine, "_CHUNK", chunk)
            with pytest.raises(SamplingError, match="no prior mass on price angles") as info:
                engine.run_monte_carlo(cfg)
            assert str(info.value) == failed[first]

    def test_batch_stops_once_every_run_failed(self, monkeypatch, cd_economy, shock):
        # every run fails at step 1; an empty batch must not step on to max_steps
        draws = []
        draw_rate = engine._draw_rate
        monkeypatch.setattr(engine, "_draw_rate", lambda *args: draws.append(args) or draw_rate(*args))
        cfg = make_config(
            cd_economy, shock, ArctanNormal(1e-200, 1e-3), SpeedPrior.UNIFORM_CUBE, runs=8, max_steps=1000
        )
        with pytest.raises(SamplingError, match="^run 0: step 1: no prior mass on price angles") as info:
            engine.run_monte_carlo(cfg)
        assert str(info.value).endswith("; rate interval (0.5, 2.0); state [[2.0, 1.0], [1.0, 2.0]]")
        assert len(draws) == 1

    @pytest.mark.parametrize(
        "q_prior, s_prior, seed",
        [
            (Tabulated(np.array([0.8, 1.3]), np.ones(2)), SpeedPrior.MAX_SPEED, 1),
            (FAR_TAIL, SpeedPrior.UNIFORM_CUBE, 3),
        ],
        ids=["exhausted_tabulated_generic", "far_tail_2x2"],
    )
    def test_printed_state_replays_the_failure(self, cd_economy, shock, q_prior, s_prior, seed):
        # a failure's message holds the state before the failing step: started
        # there, every run fails at step 1 for the same reason
        cfg = make_config(cd_economy, shock, q_prior, s_prior, master_seed=seed, runs=64, max_steps=10)
        with pytest.raises(SamplingError) as info:
            engine.run_monte_carlo(cfg)
        head, state = str(info.value).split("; state ")
        _, step, reason = head.split(": ", 2)
        assert step != "step 1"  # the printed state is not the start
        replay = dataclasses.replace(cfg, initial=Allocation(np.array(ast.literal_eval(state))), runs=4)
        for i in range(replay.runs):
            with pytest.raises(SamplingError) as again:
                engine.run_trajectory(replay, i)
            assert str(again.value) == f"run {i}: step 1: {reason}; state {state}"

    @pytest.mark.dispatch
    @pytest.mark.parametrize(
        "pair, groups",
        [
            ((UtilitySpec.cobb_douglas_log([0.4, 0.6]), UtilitySpec.ces([0.7, 0.3], 0.5)), 2),
            ((UtilitySpec.ces([0.5, 0.5], 0.3), UtilitySpec.ces([0.7, 0.3], 0.6)), 2),
            ((UtilitySpec.cobb_douglas_log([0.4, 0.6]), UtilitySpec.multiplicative([1.0, 3.0])), 1),
            ((UtilitySpec.ces([0.5, 0.5], 0.5), UtilitySpec.ces([0.7, 0.3], 0.5)), 1),
        ],
        ids=["cd_ces", "ces3_ces6", "cd_exponent", "ces_ces"],
    )
    def test_groups_are_invisible_in_the_tables(self, monkeypatch, shock, pair, groups):
        # the kernel makes one core call per household group: one call per household keeps the tables' bytes
        priors = [(ArctanNormal(1.0, 0.2), SpeedPrior.UNIFORM_CUBE), (UniformArc(), SpeedPrior.MAX_SPEED)]
        configs = [make_config(Economy.of(pair), shock, *prior, runs=64, max_steps=120) for prior in priors]
        assert len(configs[0].economy.groups) == groups

        def tables():
            return [engine.run_monte_carlo(cfg, trace=True).trace for cfg in configs] + [
                engine.run_trajectory(cfg, i).table for cfg in configs for i in range(8)
            ]

        grouped = tables()

        def per_household(core, e, bundles, *args):
            # the kernel's prices carry a households axis of one
            return reference_each(core, e.specs, bundles, *(a[..., 0, :] for a in args))

        monkeypatch.setattr(trade, "_grouped", per_household)
        for got, want in zip(tables(), grouped, strict=True):
            assert got.tobytes() == want.tobytes()


class TestGenericPathThreeGoods:
    @pytest.fixture
    def economy3(self) -> Economy:
        return Economy.of(
            [
                UtilitySpec.ces([0.2, 0.3, 0.5], 0.5),
                UtilitySpec.ces([0.5, 0.3, 0.2], 0.5),
                UtilitySpec.cobb_douglas_log([0.3, 0.4, 0.3]),
                UtilitySpec.cobb_douglas_log([0.4, 0.2, 0.4]),
            ]
        )

    @pytest.fixture
    def state3(self, economy3) -> Allocation:
        return Allocation(log_uniform(np.random.default_rng(42), (4, 3), 0.5, 2.0))

    def make_cfg(self, economy3, state3, s_prior, **kw) -> SimConfig:
        from oracles import clearing_price

        q_star = clearing_price(economy3, state3)
        atoms = np.vstack([q_star, q_star * 1.002, q_star * 0.998])
        prior = PriorSpec(Tabulated(atoms, np.array([1.0, 1.0, 1.0])), s_prior)
        defaults = dict(master_seed=5, runs=1, max_steps=12, pareto_tol=1e-8)
        defaults.update(kw)
        return SimConfig(economy3, state3, prior, **defaults)

    def test_trajectory_runs_and_conserves(self, economy3, state3):
        cfg = self.make_cfg(economy3, state3, SpeedPrior.UNIFORM_CUBE)
        t = engine.run_trajectory(cfg, 0)
        assert t.steps >= 1
        states, prices, speeds = table_objects(t.table, economy3)
        total = state3.aggregate
        for state in states:
            np.testing.assert_allclose(state.aggregate, total, atol=1e-8)
        for k in range(t.steps):
            replayed = reference_advance(economy3, states[k], np.append(prices[k], 1.0), speeds[k])
            np.testing.assert_allclose(replayed.bundles, states[k + 1].bundles, atol=1e-10)

    def test_utilities_monotone_and_prices_from_grid(self, economy3, state3):
        cfg = self.make_cfg(economy3, state3, SpeedPrior.MAX_SPEED, max_steps=1)
        t = engine.run_trajectory(cfg, 1)
        assert t.steps == 1
        states, prices, _ = table_objects(t.table, economy3)
        for h, spec in enumerate(economy3.specs):
            vals = [prefs.utility(spec, s.bundle(h)) for s in states]
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
        grid = cfg.prior.q_prior.grid
        for q in prices:
            assert any(np.allclose(q, atom) for atom in grid)

    def test_exhausted_discrete_prior_fails_fast(self, economy3, state3):
        # after a max-speed epoch the narrow atom grid can lose all mass on
        # the trade-compatible set; that surfaces as a sampling error
        cfg = self.make_cfg(economy3, state3, SpeedPrior.MAX_SPEED, max_steps=12)
        start = time.perf_counter()
        with pytest.raises(SamplingError):
            engine.run_trajectory(cfg, 1)
        assert time.perf_counter() - start < 5.0

    @pytest.mark.dispatch
    def test_monte_carlo_summarizes_over_rates(self, economy3, state3):
        cfg = self.make_cfg(economy3, state3, SpeedPrior.UNIFORM_CUBE, runs=4, max_steps=6)
        dist = engine.run_monte_carlo(cfg)
        assert dist.samples.shape == (4, 4, 3)
        assert dist.terminal_qs.shape == (4, 2)
        # higher-dimensional outcomes are summarized over the first rate
        np.testing.assert_array_equal(dist.coords, dist.terminal_qs[:, 0])


def generic_configs(seed: int) -> dict[str, SimConfig]:
    """The benchmark's three generic-path scenarios at ``seed``, built here rather than read from it.

    CES households of elasticity 0.5 under the uniform-cube speed prior, 500
    steps and ``pareto_tol`` 1e-8: 2x2 under a 200-atom tabulated prior and
    3x2 under the uniform arc (L = 2), and 4x3 under a 14 x 14 tabulated
    prior (L = 3), the atoms log-spaced on [0.25, 4] and their densities
    uniform on [0.5, 1.5] from ``random.Random(f"generic/{seed}")``.
    """
    draw = random.Random(f"generic/{seed}")

    def log_grid(lo: float, hi: float, n: int) -> list[float]:
        return [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]

    def tabulated(grid) -> Tabulated:
        return Tabulated(np.array(grid), np.array([draw.uniform(0.5, 1.5) for _ in grid]))

    tab_l2 = tabulated(log_grid(0.25, 4.0, 200))
    axis = log_grid(0.25, 4.0, 14)
    tab_l3 = tabulated([[a, b] for a in axis for b in axis])
    economies = {
        "2x2_tabulated": ([[0.5, 0.5], [0.7, 0.3]], [[2.0, 1.0], [1.0, 2.0]], tab_l2, 15),
        "3x2_arc": ([[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]], [[2.0, 1.0], [1.0, 2.0], [1.5, 0.5]], UniformArc(), 15),
        "4x3_tabulated": (
            [[0.2, 0.3, 0.5], [0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.4, 0.2, 0.4]],
            [[1.5263, 1.5325, 1.0215], [0.7431, 0.5388, 0.8507], [0.8808, 0.5324, 0.5350], [1.9977, 1.2352, 0.6921]],
            tab_l3,
            8,
        ),
    }
    return {
        name: make_config(
            Economy.of([UtilitySpec.ces(w, 0.5) for w in weights]), Allocation(np.array(endowments)),
            q_prior, SpeedPrior.UNIFORM_CUBE, master_seed=seed, runs=runs,
        )
        for name, (weights, endowments, q_prior, runs) in economies.items()
    }


def generic_golden_lines(seed: int) -> list[str]:
    """One line per run of ``generic_configs(seed)``: its name and index, then the sha256 of its
    ``run_trajectory`` table and its terminal, or ``-`` and its error class and message."""
    lines = []
    for name, cfg in generic_configs(seed).items():
        for i in range(cfg.runs):
            try:
                t = engine.run_trajectory(cfg, i)
                lines.append(f"{name}/{i} {hashlib.sha256(t.table.tobytes()).hexdigest()} {t.terminal.value}")
            except (SamplingError, DomainDegeneracyError) as exc:
                lines.append(f"{name}/{i} - {type(exc).__name__}: {exc}")
    return lines


@pytest.mark.dispatch
def test_generic_runs_match_the_golden():
    """Every run of the benchmark's generic scenarios at seed 1, pinned by its table's bytes or its
    error: the one-row epoch at L = 2 and L = 3, the exhausted priors' messages and the step they
    fail at.  The tables are exact bits, so there is one golden per numpy dispatch target."""
    lines = golden("generic_seed1").read_text().splitlines()
    assert generic_golden_lines(1) == [line for line in lines if not line.startswith("#")]


def _worst_ulp_move(dirs: np.ndarray, redraw) -> float:
    """The largest move of ``redraw(dirs, s_prior)`` under either prior when one entry of ``dirs`` moves one ulp either way."""
    worst = 0.0
    for s_prior in SpeedPrior:
        base = redraw(dirs, s_prior)
        for index in np.ndindex(dirs.shape):
            for toward in (-np.inf, np.inf):
                moved = dirs.copy()
                moved[index] = np.nextafter(moved[index], toward)
                worst = max(worst, float(np.abs(redraw(moved, s_prior) - base).max()))
    return worst


def _replay(used: list) -> object:
    """A ``uniforms(k)`` that returns the recorded uniforms ``used`` again, then a fixed stream."""
    stream = itertools.chain(used, np.random.default_rng(0).random(16))
    return lambda k: np.array([next(stream) for _ in range(k)])


def _assert_draws_continuous(monkeypatch, cfg: SimConfig, draws: int) -> None:
    """Every speed draw of the config's runs, redrawn under either prior from
    the uniforms it read with one entry of its directions moved one ulp either
    way, moves by at most 1e-9.  A run that ends in an exhausted tabulated prior
    keeps the draws it made.  Where the step drew from the vertices its trade
    screen found, enumerating them again gives the same draw."""
    recorded = []
    sample_speed = trade._sample_speed

    def record(dirs, p, s_prior, uniforms, vertices=None):
        used = []
        sigma = sample_speed(dirs, p, s_prior, lambda k: used.extend(uniforms(k)) or np.array(used[-k:]), vertices)
        recorded.append((dirs, p, used))
        if vertices is not None:
            again = sample_speed(dirs, p, s_prior, _replay(used))
            np.testing.assert_allclose(again, sigma, rtol=0.0, atol=1e-12)
        return sigma

    monkeypatch.setattr(trade, "_sample_speed", record)
    for i in range(cfg.runs):
        try:
            engine.run_trajectory(cfg, i)
        except SamplingError:
            assert isinstance(cfg.prior.q_prior, Tabulated)
    assert len(recorded) > draws
    worst = max(
        _worst_ulp_move(dirs, lambda d, s_prior: sample_speed(d, p, s_prior, _replay(used))) for dirs, p, used in recorded
    )
    assert worst <= 1e-9


def test_three_trader_speed_draws_are_continuous_in_the_directions(monkeypatch):
    """The seed-1 3x2 uniform-arc runs: the polygon draw has no basis or
    ordering that a rounding difference can flip.  Their steps draw speeds in
    the epoch's ``trade._line_speeds``, whose uniforms are recorded and replayed."""
    recorded = []
    line_speeds = trade._line_speeds

    def record(dirs, max_speed, draw, fail=trade._raise_first):
        used = []
        sigma = line_speeds(dirs, max_speed, lambda sub: used.append(draw(sub)) or used[-1], fail)
        recorded.append((dirs.copy(), used))
        return sigma

    def replay(used):
        uniforms = iter(used)
        return lambda sub: next(uniforms)

    monkeypatch.setattr(trade, "_line_speeds", record)
    cfg = make_config(*THREE_TRADERS, UniformArc(), SpeedPrior.UNIFORM_CUBE, runs=15)
    for i in range(cfg.runs):
        engine.run_trajectory(cfg, i)
    assert len(recorded) > 600
    assert sum(len(used) == 3 for _, used in recorded) > 500  # polygons, not only rays
    worst = max(
        _worst_ulp_move(dirs, lambda d, s_prior: line_speeds(d, s_prior is SpeedPrior.MAX_SPEED, replay(used)))
        for dirs, used in recorded
    )
    assert worst <= 1e-9


def test_four_trader_speed_draws_are_continuous_in_the_directions(monkeypatch):
    """The seed-1 4x3 tabulated runs: the polygon of the enumerated vertices
    is fanned in an order and a turn that move continuously with the
    directions, as the closed-form polygon's do."""
    _assert_draws_continuous(monkeypatch, make_config(*FOUR_BY_THREE, SpeedPrior.UNIFORM_CUBE, runs=8), 100)


def test_polytope_speed_draws_are_continuous_in_the_directions():
    """A hundred random four-trader economies at L = 2, each at a price rate
    between its households' rates where all four trade: the three-dimensional
    draw's chart and box move continuously with the directions, so one ulp on
    one direction entry moves it by at most 1e-12.  The 64-step random walk
    an earlier draw took moved by up to 0.23 on two of these economies."""
    draw, seen = np.random.default_rng(1), 0
    while seen < 100:
        specs = [
            UtilitySpec.ces(w / w.sum(), float(draw.uniform(0.2, 0.8))) if draw.random() < 0.5 else UtilitySpec.cobb_douglas_log(w / w.sum())
            for w in draw.uniform(0.2, 1.0, (4, 2))
        ]
        e, y = Economy.of(specs), Allocation(log_uniform(draw, (4, 2), 0.2, 5.0))
        rates = trade.household_rates(e, y)[:, 0]
        p = np.array([draw.uniform(rates.min(), rates.max()), 1.0])
        dirs = trade.all_trade_directions(e, y, p)
        if np.count_nonzero(dirs[:, 0] > 0.0) != 2:  # two traders on each side of the price line: d = 3
            continue
        seen += 1
        rng = np.random.default_rng(seen)
        assert _worst_ulp_move(dirs, lambda d, s_prior: trade._sample_speed(d, p, s_prior, copy.deepcopy(rng).random)) <= 1e-12


class TestExample3:
    def test_outcome_values_match_product_formula(self):
        dist = example3_process(engine.run_rng(1, 0), 300)
        for coord, steps in zip(dist.coords, dist.steps):
            assert coord == pytest.approx(example3_ladder_value(int(steps)), rel=1e-12)

    def test_ladder_values_exact_fractions(self):
        assert example3_ladder_value(1) == pytest.approx(1.5)
        assert example3_ladder_value(2) == pytest.approx(float(Fraction(35, 24)))

    def test_masses_follow_geometric_law(self):
        dist = example3_process(engine.run_rng(1, 0), 10_000)
        for j, mass in ((1, 0.5), (2, 0.25), (3, 0.125)):
            freq = float(np.mean(dist.steps == j))
            assert abs(freq - mass) <= 0.02

    def test_single_run_degenerate(self):
        dist = example3_process(engine.run_rng(9, 0), 1)
        assert dist.runs == 1
        assert dist.bin_counts.sum() == 1

    def test_a_coin_of_one_half_continues(self):
        # the coin lands "continue" on a uniform of at least 0.5: exactly 0.5
        # climbs one rung, and 0.25 then stops, at time 2
        class Coin:
            def __init__(self):
                self.flips = [0.5, 0.25]

            def random(self):
                return self.flips.pop(0)

        coin = Coin()
        assert example3_process(coin, 1).steps.tolist() == [2]
        assert coin.flips == []

    def test_long_ladder_freezes_once_no_trade_remains(self):
        class Coin:
            """Lands "continue" t - 1 times, then "stop", for each stop time t in turn."""

            def __init__(self, stops):
                self.flips = [u for t in stops for u in [0.75] * (t - 1) + [0.25]]

            def random(self):
                return self.flips.pop(0)

        # from about t = 52 the ladder price is within an ulp of 1 and a rung
        # admits no trade, so every later stop time ends where 52 does
        dist = example3_process(Coin([52, 53, 64]), 3)
        np.testing.assert_array_equal(dist.steps, [52, 53, 64])
        assert dist.coords[0] == pytest.approx(example3_ladder_value(52), rel=1e-12)
        assert dist.coords[1] == dist.coords[2] == dist.coords[0]
        for t in (53, 64):
            assert example3_process(Coin([t]), 1).coords[0] == dist.coords[0]
