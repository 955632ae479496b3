from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from edgeworth import geometry, prefs, trade, verify
from edgeworth.engine import PriorSpec, SimConfig, UniformArc
from edgeworth.errors import ConvergenceError, SamplingError, SpecificationError
from edgeworth.prefs import UtilitySpec
from edgeworth.trade import Allocation, Economy, SpeedPrior

import oracles
from oracles import clearing_price, log_uniform

pytestmark = pytest.mark.dispatch


class TestIdentitySuite:
    @pytest.mark.parametrize("family,bound", [("cd", 1e-9), ("ces", 1e-8)])
    def test_passes_with_tiny_residuals(self, family, bound, cd, ces):
        spec = cd if family == "cd" else ces
        report = verify.identity_suite(spec, draws=1000, seed=3)
        assert report.passed
        assert report.worst_violation <= bound
        assert report.draws == 1000

    def test_three_goods(self):
        spec = UtilitySpec.ces([0.2, 0.5, 0.3], 0.4)
        report = verify.identity_suite(spec, draws=300, seed=5)
        assert report.passed

    def test_corrupted_demand_fails_every_draw(self, cd):
        report = verify.identity_suite(cd, draws=50, seed=3, demand_scale=1.01)
        assert not report.passed
        assert report.failures == 50

    def test_deterministic(self, ces):
        a = verify.identity_suite(ces, draws=200, seed=11)
        b = verify.identity_suite(ces, draws=200, seed=11)
        assert a == b


class TestJacobianSuite:
    @pytest.mark.parametrize("family", ["cd", "ces"])
    def test_passes(self, family, cd, ces):
        spec = cd if family == "cd" else ces
        report = verify.jacobian_suite(spec, draws=300, seed=7)
        assert report.passed
        # worst is scaled so 1.0 is the failure bar
        assert report.worst_violation < 1.0

    def test_a_psi_only_fault_fails_every_draw(self, ces, monkeypatch):
        # scale the suite's direct psi call alone: the phi term, whose chart calls
        # psi inside geometry, and the tangency term see the true Jacobians and
        # pass on their own, as the clean suite shows
        assert verify.jacobian_suite(ces, draws=200, seed=7).passed
        real, calls = geometry._jacobian_psi, []

        def scale_the_direct_call(*args):
            calls.append(None)
            return real(*args) * (1.0 + 1e-3) if len(calls) == 2 else real(*args)

        monkeypatch.setattr(geometry, "_jacobian_psi", scale_the_direct_call)
        report = verify.jacobian_suite(ces, draws=200, seed=7)
        assert len(calls) == 4  # phi's, the direct one, then the tangency's phi and psi
        assert report.failures == 200
        # the psi error over its bound: a relative error of 1e-3 against 1e-5
        assert report.worst_violation == pytest.approx(1e-3 / verify._JACOBIAN_RTOL, rel=0.01)


class TestClearingSolver:
    def test_matches_scipy_oracle(self, rng):
        specs = [
            UtilitySpec.ces([0.2, 0.3, 0.5], 0.5),
            UtilitySpec.ces([0.5, 0.3, 0.2], 0.4),
        ]
        e = Economy.of(specs)
        for _ in range(10):
            y = Allocation(log_uniform(rng, (2, 3)))
            q_mine = verify.weighted_clearing_rates(e, y, np.ones(2))
            q_ref = clearing_price(e, y)
            np.testing.assert_allclose(q_mine, q_ref, rtol=1e-8)

    def test_weighted_solution_is_trade_compatible(self, rng):
        specs = [
            UtilitySpec.ces([0.2, 0.3, 0.5], 0.5),
            UtilitySpec.cobb_douglas_log([0.4, 0.3, 0.3]),
        ]
        e = Economy.of(specs)
        for _ in range(10):
            y = Allocation(log_uniform(rng, (2, 3)))
            w = rng.uniform(0.2, 1.0, 2)
            q = verify.weighted_clearing_rates(e, y, w)
            sigma = w / w.max()
            assert trade.speed_contains(e, y, np.append(q, 1.0), sigma)

    def test_lockstep_rows_match_the_one_state_reference_bitwise(self, rng):
        specs = [UtilitySpec.ces([0.2, 0.3, 0.5], 0.4), UtilitySpec.cobb_douglas_log([0.4, 0.3, 0.3])]
        e = Economy.of(specs)
        states = [Allocation(b) for b in log_uniform(rng, (20, 2, 3))]
        weights = rng.uniform(0.2, 1.0, (20, 2))
        rates = np.array([trade.household_rates(e, y) for y in states])
        got = verify._clearing_rates(e, np.array([y.bundles for y in states]), weights, rates)
        for k, y in enumerate(states):
            np.testing.assert_array_equal(got[k], oracles.reference_clearing_rates(e, y, weights[k]))
            np.testing.assert_array_equal(got[k], verify.weighted_clearing_rates(e, y, weights[k]))

    def test_singular_row_names_its_draw(self, monkeypatch, rng):
        specs = [UtilitySpec.ces([0.2, 0.3, 0.5], 0.5), UtilitySpec.ces([0.5, 0.3, 0.2], 0.4)]
        e = Economy.of(specs)
        bundles = log_uniform(rng, (3, 2, 3))
        rates = oracles.reference_each(prefs._rates, specs, bundles)
        real = geometry._jacobian_psi

        def singular_second_row(u, anchor, p):
            jac = real(u, anchor, p)
            jac[1] = 0.0
            return jac

        monkeypatch.setattr(geometry, "_jacobian_psi", singular_second_row)
        with pytest.raises(ConvergenceError, match=r"^singular Jacobian in the clearing solver at draw 1 \(bundles \[\["):
            verify._clearing_rates(e, bundles, np.ones((3, 2)), rates)


_SPECS = {
    "cd": UtilitySpec.cobb_douglas_log([0.5, 0.5]),
    "ces": UtilitySpec.ces([0.5, 0.5], 0.5),
    "ces73": UtilitySpec.ces([0.7, 0.3], 0.5),
    "ces_3goods": UtilitySpec.ces([0.2, 0.5, 0.3], 0.4),
    "multiplicative": UtilitySpec.multiplicative([1.0, 2.0]),
    "ces_3goods_a": UtilitySpec.ces([0.2, 0.5, 0.3], 0.5),
    "ces_3goods_b": UtilitySpec.ces([0.4, 0.3, 0.3], 0.5),
}


class TestStackedSuitesMatchTheOneDrawReference:
    """Failures and worst violations, bit for bit, against the suites run one draw at a time."""

    DRAWS = 100

    @pytest.mark.parametrize("name", ["cd", "ces", "ces_3goods", "multiplicative"])
    def test_identity_with_corrupted_demand(self, name):
        for seed in range(4):
            got = verify.identity_suite(_SPECS[name], self.DRAWS, seed, demand_scale=1.01)
            assert got.failures == self.DRAWS
            assert (got.failures, got.worst_violation) == oracles.reference_identity_suite(
                _SPECS[name], self.DRAWS, seed, demand_scale=1.01
            )

    @pytest.mark.parametrize("name", ["cd", "ces"])
    def test_jacobian(self, name):
        for seed in range(4):
            got = verify.jacobian_suite(_SPECS[name], self.DRAWS, seed)
            assert (got.failures, got.worst_violation) == oracles.reference_jacobian_suite(_SPECS[name], self.DRAWS, seed)

    @pytest.mark.parametrize(
        "names",
        [("cd", "cd"), ("ces_3goods_a", "ces_3goods_b"), ("cd", "ces73"), ("cd", "ces73", "ces")],
        ids=["2x2_cd", "3good_ces", "mixed", "2goods_3households"],
    )
    def test_attraction(self, names):
        e = Economy.of([_SPECS[name] for name in names])
        for seed in range(4):
            got = verify.attraction_suite(e, self.DRAWS, seed)
            assert (got.failures, got.worst_violation) == oracles.reference_attraction_suite(e, self.DRAWS, seed)


class TestAttractionSuite:
    def test_2x2_cobb_douglas(self, cd):
        report = verify.attraction_suite(Economy.of([cd, cd]), draws=300, seed=1)
        assert report.passed
        # the largest rounding-level increase, over MONOTONE_SLACK
        assert 0.0 < report.worst_violation <= 1.0

    def test_failed_speed_draw_names_its_draw(self, cd, monkeypatch):
        real, calls = trade._sample_speed, []

        def fail_third(*args):
            calls.append(None)
            if len(calls) == 3:
                raise SamplingError("fewer than two households can trade at these prices")
            return real(*args)

        monkeypatch.setattr(trade, "_sample_speed", fail_third)
        with pytest.raises(SamplingError, match=r"^fewer than two households can trade at these prices at draw 2 \(bundles \[\["):
            verify.attraction_suite(Economy.of([cd, cd]), draws=10, seed=1)

    def test_three_good_ces_pair(self):
        specs = [
            UtilitySpec.ces([0.2, 0.5, 0.3], 0.5),
            UtilitySpec.ces([0.4, 0.3, 0.3], 0.5),
        ]
        report = verify.attraction_suite(Economy.of(specs), draws=300, seed=1)
        assert report.passed

    def test_mixed_2x2(self, cd, ces73):
        report = verify.attraction_suite(Economy.of([cd, ces73]), draws=200, seed=2)
        assert report.passed

    def test_multiplicative_economy_reads_as_its_log_twin(self):
        specs = [UtilitySpec.multiplicative([1.0, 1.0]), UtilitySpec.multiplicative([0.5, 2.5])]
        twins = [UtilitySpec.cobb_douglas_log(spec.weights) for spec in specs]
        got = verify.attraction_suite(Economy.of(specs), draws=100, seed=3)
        assert got.passed
        assert got.line() == verify.attraction_suite(Economy.of(twins), draws=100, seed=3).line()


class TestWelfareSuite:
    def test_cobb_douglas_config(self):
        cfg = verify._bundled_configs()["cobb_douglas"]
        report = verify.welfare_suite(cfg, seed=0)
        assert report.passed
        assert report.worst_violation == 0.0

    def test_ces_config(self):
        cfg = verify._bundled_configs()["ces"]
        report = verify.welfare_suite(cfg, seed=0)
        assert report.passed

    def test_run_all_runs_the_trajectories_on_its_seed(self, monkeypatch):
        # the welfare lines print seed=N; their trajectories once read master seed 0 for every N
        seen = []

        def record(cfg, seed=0):
            seen.append((cfg.master_seed, seed))
            return verify.CheckReport("welfare", 1, 0, 0.0, seed)

        monkeypatch.setattr(verify, "welfare_suite", record)
        verify.run_all(seed=2, name_filter="welfare")
        assert seen == [(2, 2), (2, 2)]

    def test_worst_is_the_missed_share_over_one_percent(self, monkeypatch):
        # three steps are too few for most runs: worst is 100x the missed share
        cfg = dataclasses.replace(verify._bundled_configs()["ces"], runs=200, max_steps=3)
        report = verify.welfare_suite(cfg, seed=0)
        assert report.failures == 1 and 1.0 < report.worst_violation <= 100.0
        # a missed trade interval has no finite margin
        monkeypatch.setattr(trade, "_screen", lambda e, bundles, p: np.zeros(p.shape[0], dtype=bool))
        report = verify.welfare_suite(dataclasses.replace(cfg, max_steps=200), seed=0)
        assert report.failures > 0 and report.worst_violation == np.inf

    def test_already_optimal_start_counts_converged(self, cd):
        e = Economy.of([cd, cd])
        flat = Allocation(np.array([[1.5, 1.5], [1.5, 1.5]]))
        cfg = SimConfig(
            e, flat, PriorSpec(UniformArc(), SpeedPrior.MAX_SPEED), master_seed=0, runs=20, max_steps=200
        )
        report = verify.welfare_suite(cfg, seed=0)
        assert report.passed

    def test_requires_max_speed(self, cd):
        e = Economy.of([cd, cd])
        cfg = SimConfig(
            e,
            Allocation(np.array([[2.0, 1.0], [1.0, 2.0]])),
            PriorSpec(UniformArc(), SpeedPrior.UNIFORM_CUBE),
            master_seed=0,
            runs=10,
        )
        with pytest.raises(SpecificationError):
            verify.welfare_suite(cfg)


class TestRunAll:
    def test_filter_selects_suites(self):
        reports = verify.run_all(seed=0, name_filter="jacobian")
        assert len(reports) == 2
        assert all("jacobian" in r.check_name for r in reports)
        assert all(r.passed for r in reports)

    def test_injected_fault_fails(self):
        reports = verify.run_all(seed=0, name_filter="identity", inject_fault=True)
        assert all(not r.passed for r in reports)

    def test_report_line_format(self, cd):
        line = verify.identity_suite(cd, draws=10, seed=0).line()
        assert "identity" in line and "PASS" in line and "seed=0" in line
