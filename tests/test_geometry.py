from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeworth import geometry, prefs, trade
from edgeworth.errors import ConvergenceError, SpecificationError
from edgeworth.geometry import FlatPoint, ManifoldKind
from edgeworth.prefs import UtilitySpec
from edgeworth.trade import Allocation, Economy

import oracles
from oracles import fd_jacobian, log_uniform

pytestmark = pytest.mark.dispatch


class TestFlatten:
    def test_worked_example(self, mult_c1c2):
        fp = geometry.flatten(mult_c1c2, [2.0, 1.0])
        assert fp.q[0] == pytest.approx(0.5)
        assert fp.u == pytest.approx(2.0)

    def test_symmetric_point(self, mult_c1c2):
        fp = geometry.flatten(mult_c1c2, [1.0, 1.0])
        assert fp.q[0] == pytest.approx(1.0)
        assert fp.u == pytest.approx(1.0)

    def test_roundtrip_ces(self, ces, rng):
        for _ in range(50):
            c = log_uniform(rng, 2)
            back = geometry.unflatten(ces, geometry.flatten(ces, c))
            np.testing.assert_allclose(back, c, rtol=1e-9)

    def test_roundtrip_log_family_three_goods(self, rng):
        spec = UtilitySpec.cobb_douglas_log([0.2, 0.3, 0.5])
        for _ in range(50):
            c = log_uniform(rng, 3)
            back = geometry.unflatten(spec, geometry.flatten(spec, c))
            np.testing.assert_allclose(back, c, rtol=1e-9)


class TestUnflatten:
    def test_worked_examples(self, mult_c1c2):
        np.testing.assert_allclose(
            geometry.unflatten(mult_c1c2, FlatPoint(np.array([1.0]), 1.0)), [1.0, 1.0]
        )
        # rates 4 against good 2 at level 1: the cheap bundle is (1/2, 2)
        np.testing.assert_allclose(
            geometry.unflatten(mult_c1c2, FlatPoint(np.array([4.0]), 1.0)), [0.5, 2.0]
        )

    def test_flatten_after_unflatten(self, ces73, rng):
        for _ in range(50):
            q = log_uniform(rng, 1)
            u0 = float(rng.uniform(0.3, 4.0))
            fp = FlatPoint(q, u0)
            again = geometry.flatten(ces73, geometry.unflatten(ces73, fp))
            np.testing.assert_allclose(again.q, fp.q, rtol=1e-9)
            assert again.u == pytest.approx(fp.u, rel=1e-9)


class TestDMap:
    def test_worked_example(self, mult_c1c2):
        p = geometry.d_map(mult_c1c2, FlatPoint(np.array([1.0]), 1.0))
        np.testing.assert_allclose(p, [0.5, 0.5])

    def test_roundtrips(self, cd, ces73, rng):
        for spec in (cd, ces73):
            for _ in range(25):
                p = log_uniform(rng, 2)
                fp = geometry.d_inverse(spec, p)
                np.testing.assert_allclose(geometry.d_map(spec, fp), p, rtol=1e-9)
            for _ in range(25):
                level = float(rng.uniform(0.3, 4.0)) if spec is ces73 else float(rng.uniform(-1.0, 1.0))
                fp = FlatPoint(log_uniform(rng, 1), level)
                back = geometry.d_inverse(spec, geometry.d_map(spec, fp))
                np.testing.assert_allclose(back.q, fp.q, rtol=1e-9)
                assert back.u == pytest.approx(fp.u, rel=1e-9, abs=1e-12)


class TestFixedPoint:
    def test_symmetric_families(self, mult_c1c2, cd):
        r = 1.0 / math.sqrt(2.0)
        for spec in (mult_c1c2, cd):
            np.testing.assert_allclose(geometry.fixed_point(spec), [r, r], atol=1e-12)

    def test_ces_residual(self, ces73):
        p = geometry.fixed_point(ces73)
        np.testing.assert_allclose(prefs.normalized_demand(ces73, p), p, atol=1e-10)
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-10)

    def test_three_goods(self):
        spec = UtilitySpec.ces([0.2, 0.3, 0.5], 0.6)
        p = geometry.fixed_point(spec)
        np.testing.assert_allclose(prefs.normalized_demand(spec, p), p, atol=1e-10)
        ray = np.array([0.2, 0.3, 0.5]) ** (1.0 / (2.0 - 0.6))
        np.testing.assert_allclose(p, ray / np.linalg.norm(ray), rtol=1e-14)

    def test_log_weights_closed_form(self):
        for spec in (UtilitySpec.cobb_douglas_log([0.25, 0.75]), UtilitySpec.multiplicative([1.0, 3.0])):
            p = geometry.fixed_point(spec)
            np.testing.assert_allclose(p, np.sqrt([0.25, 0.75]), atol=1e-12)
            np.testing.assert_allclose(prefs.normalized_demand(spec, p), p, atol=1e-12)


class TestManifolds:
    def test_indifference_worked_example(self, mult_c1c2):
        sample = geometry.sample_manifold(mult_c1c2, ManifoldKind.INDIFFERENCE, [1.0, 1.0], [4.0])
        np.testing.assert_allclose(sample.points[0], [0.5, 2.0])

    def test_anchor_is_on_every_manifold(self, ces73):
        anchor = np.array([1.3, 0.7])
        q0 = prefs.substitution_rates(ces73, anchor)
        for kind in ManifoldKind:
            grid = [anchor[:-1]] if kind is ManifoldKind.TRADE_HYPERPLANE else [q0]
            sample = geometry.sample_manifold(ces73, kind, anchor, grid)
            np.testing.assert_allclose(sample.points[0], anchor, rtol=1e-9)

    def test_offer_no_trade_point(self, mult_c1c2):
        sample = geometry.sample_manifold(mult_c1c2, ManifoldKind.OFFER, [1.0, 1.0], [1.0])
        np.testing.assert_allclose(sample.points[0], [1.0, 1.0])

    def test_offer_image_is_a_hyperplane_in_prices(self, ces, rng):
        anchor = np.array([2.0, 1.0])
        grid = log_uniform(rng, 25)
        sample = geometry.sample_manifold(ces, ManifoldKind.OFFER, anchor, grid)
        for y in sample.points:
            p = prefs.inverse_normalized_demand(ces, y)
            assert float(p @ anchor) == pytest.approx(1.0, abs=1e-9)

    def test_indifference_image_is_level_set_in_prices(self, ces, rng):
        anchor = np.array([2.0, 1.0])
        level = prefs.utility(ces, anchor)
        grid = log_uniform(rng, 25)
        sample = geometry.sample_manifold(ces, ManifoldKind.INDIFFERENCE, anchor, grid)
        for y in sample.points:
            p = prefs.inverse_normalized_demand(ces, y)
            assert prefs.indirect_utility_normalized(ces, p) == pytest.approx(level, abs=1e-9)

    def test_indifference_flat_image_is_horizontal(self, cd, rng):
        anchor = np.array([0.8, 1.9])
        level = prefs.utility(cd, anchor)
        grid = log_uniform(rng, 25)
        sample = geometry.sample_manifold(cd, ManifoldKind.INDIFFERENCE, anchor, grid)
        for y in sample.points:
            assert geometry.flatten(cd, y).u == pytest.approx(level, abs=1e-9)

    def test_trade_hyperplane_drops_nonpositive_solutions(self, mult_c1c2):
        # anchor (1,1): hyperplane y1/2 + y2/2 = 1, so y1 >= 2 has no positive y2
        sample = geometry.sample_manifold(
            mult_c1c2, ManifoldKind.TRADE_HYPERPLANE, [1.0, 1.0], [0.5, 1.0, 1.5, 2.0, 5.0]
        )
        assert len(sample.points) == 3

    @pytest.mark.parametrize("goods", [2, 3, 4])
    @pytest.mark.parametrize("family", ["cobb_douglas", "ces_0.4", "ces_0.7", "multiplicative"])
    def test_stacked_points_match_the_per_point_reference_bitwise(self, family, goods):
        weights = np.arange(1.0, goods + 1.0) / (goods * (goods + 1) / 2)
        spec = {
            "cobb_douglas": UtilitySpec.cobb_douglas_log(weights),
            "ces_0.4": UtilitySpec.ces(weights, 0.4),
            "ces_0.7": UtilitySpec.ces(weights, 0.7),
            "multiplicative": UtilitySpec.multiplicative(2.0 * weights + 0.5),
        }[family]
        anchor = np.linspace(1.4, 0.6, goods)
        axis = np.geomspace(0.1, 3.0, {2: 60, 3: 12, 4: 6}[goods])
        grid = np.stack([m.reshape(-1) for m in np.meshgrid(*([axis] * (goods - 1)), indexing="ij")], axis=-1)
        for kind in ManifoldKind:
            got = geometry.sample_manifold(spec, kind, anchor, grid).points
            want = oracles.reference_sample_manifold(spec, kind, anchor, grid)
            assert len(got) == len(want) > 0
            np.testing.assert_array_equal(np.array(got), np.array(want))

    def test_grid_is_checked_once_for_shape_and_finite_positive_entries(self, cd):
        for grid in ([np.array([1.0, 2.0])], [[1.0], [1.0, 2.0]], [0.5, math.nan], [0.5, math.inf], [0.5, -1.0]):
            form = f"q must be a stack of vectors of L - 1 = 1 finite positive rates, got {' '.join(repr(grid).split())}"
            with pytest.raises(SpecificationError, match=f"^{re.escape(form)}$"):
                geometry.sample_manifold(cd, ManifoldKind.OFFER, [1.0, 1.0], grid)
        assert geometry.sample_manifold(cd, ManifoldKind.OFFER, [1.0, 1.0], []).points.shape == (0, 2)

    def test_three_goods_grids(self):
        spec = UtilitySpec.ces([0.2, 0.3, 0.5], 0.5)
        anchor = np.array([1.0, 1.2, 0.8])
        grid = [np.array([0.9, 1.1]), np.array([1.4, 0.7])]
        for kind in ManifoldKind:
            sample = geometry.sample_manifold(spec, kind, anchor, grid)
            assert len(sample.points) >= 1


_CHART_SPECS = pytest.mark.parametrize(
    "spec",
    [
        UtilitySpec.cobb_douglas_log([0.3, 0.7]),
        UtilitySpec.ces([0.7, 0.3], 0.5),
        UtilitySpec.ces([0.2, 0.5, 0.3], 0.5),
        UtilitySpec.multiplicative([1.0, 3.0]),
    ],
    ids=["cd", "ces", "ces_3goods", "multiplicative"],
)


class TestJacobians:
    @pytest.mark.parametrize("family", ["cd", "ces"])
    def test_tangency_equality(self, family, cd, ces):
        spec = cd if family == "cd" else ces
        anchor = np.array([1.4, 0.6])
        p = prefs.inverse_normalized_demand(spec, anchor)
        jp = geometry.jacobian_phi(spec, anchor, p)
        jq = geometry.jacobian_psi(spec, anchor, p)
        assert float(np.max(np.abs(jp - jq))) <= 1e-6

    @_CHART_SPECS
    def test_phi_matches_finite_differences(self, spec, rng):
        anchor = np.linspace(1.2, 0.9, spec.dimension)
        level = prefs.utility(spec, anchor)
        for _ in range(10):
            p = log_uniform(rng, spec.dimension, 0.3, 3.0)
            got = geometry.jacobian_phi(spec, anchor, p)
            want = fd_jacobian(lambda z: prefs.hicksian_demand(spec, z, level), p)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)

    @_CHART_SPECS
    def test_psi_matches_finite_differences(self, spec, rng):
        anchor = np.linspace(1.2, 0.9, spec.dimension)
        for _ in range(10):
            p = log_uniform(rng, spec.dimension, 0.3, 3.0)
            got = geometry.jacobian_psi(spec, anchor, p)
            want = fd_jacobian(
                lambda z: prefs.normalized_demand(spec, z / float(z @ anchor)), p
            )
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)

    @_CHART_SPECS
    def test_phi_is_a_slutsky_matrix(self, spec, rng):
        # the Hicksian Jacobian is symmetric, negative semidefinite and annihilates p
        anchor = np.linspace(1.2, 0.9, spec.dimension)
        for _ in range(50):
            p = log_uniform(rng, spec.dimension)
            got = geometry.jacobian_phi(spec, anchor, p)
            scale = float(np.max(np.abs(got)))
            assert float(np.max(np.abs(got - got.T))) <= 1e-12 * scale
            assert float(np.max(np.linalg.eigvalsh(0.5 * (got + got.T)))) <= 1e-12 * scale
            assert float(np.max(np.abs(got @ p))) <= 1e-12 * scale * float(np.max(p))

    def test_example1_closed_form(self, mult_c1c2):
        # at anchor (1,1), p = (1,1): Jphi = [[-1/2, 1/2], [1/2, -1/2]]
        got = geometry.jacobian_phi(mult_c1c2, [1.0, 1.0], [1.0, 1.0])
        np.testing.assert_allclose(got, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-7)


class TestConvexSets:
    def test_boundary_membership(self, ces73):
        anchor = np.array([1.5, 0.8])
        p = prefs.inverse_normalized_demand(ces73, anchor)
        assert geometry.omega_contains(ces73, anchor, p)
        assert geometry.gamma_contains(ces73, anchor, geometry.flatten(ces73, anchor))

    def test_omega_midpoint_convexity(self, cd, ces73, rng):
        for spec in (cd, ces73):
            anchor = np.array([1.0, 1.0])
            members = []
            while len(members) < 60:
                p = log_uniform(rng, 2, 0.2, 5.0)
                if geometry.omega_contains(spec, anchor, p):
                    members.append(p)
            for _ in range(1000):
                i, j = rng.integers(0, len(members), 2)
                mid = 0.5 * (members[i] + members[j])
                assert geometry.omega_contains(spec, anchor, mid, slack=1e-9)

    def test_gamma_midpoint_convexity(self, mult_c1c2, ces73, rng):
        for spec, lo in ((mult_c1c2, 0.2), (ces73, 0.2)):
            anchor = np.array([1.0, 1.0])
            members = []
            while len(members) < 60:
                fp = FlatPoint(log_uniform(rng, 1, 0.2, 5.0), float(rng.uniform(lo, 6.0)))
                if geometry.gamma_contains(spec, anchor, fp):
                    members.append(fp)
            for _ in range(1000):
                i, j = rng.integers(0, len(members), 2)
                q = 0.5 * (members[i].q + members[j].q)
                u = 0.5 * (members[i].u + members[j].u)
                assert geometry.gamma_contains(spec, anchor, FlatPoint(q, u), slack=1e-9)

    def test_supporting_hyperplane(self, ces, rng):
        # prices on the mapped offer hyperplane never drop below the anchor
        # level, and touch it only at the anchor's own supporting prices
        anchor = np.array([2.0, 1.0])
        level = prefs.utility(ces, anchor)
        q_touch = float(prefs.substitution_rates(ces, anchor)[0])
        for _ in range(200):
            q = log_uniform(rng, 1, 0.05, 20.0)
            p = np.append(q, 1.0)
            p = p / float(p @ anchor)
            value = prefs.indirect_utility_normalized(ces, p)
            assert value >= level - 1e-9
            if abs(float(q[0]) - q_touch) > 0.05:
                assert value > level + 1e-9


class TestKc:
    def test_worked_values(self, mult_c1c2):
        assert geometry.k_c(mult_c1c2, [1.0, 1.0], 1.0) == pytest.approx(1.0)
        assert geometry.k_c(mult_c1c2, [1.0, 1.0], 4.0) == pytest.approx(1.5625)

    def test_minimum_at_no_trade_rates(self, ces73):
        anchor = np.array([1.7, 0.4])
        q0 = float(geometry.flatten(ces73, anchor).q[0])
        base = geometry.k_c(ces73, anchor, q0)
        for q in np.linspace(0.2, 5.0, 200):
            assert geometry.k_c(ces73, anchor, float(q)) >= base - 1e-12


class TestSamplePareto:
    def test_symmetric_tangency(self, mult_c1c2):
        pt = geometry.sample_pareto([mult_c1c2, mult_c1c2], [1.0], [1.0, 1.0])
        np.testing.assert_allclose(pt.allocation[0], [1.0, 1.0])
        np.testing.assert_allclose(pt.allocation[1], [1.0, 1.0])

    def test_equilibrium_bundle(self, mult_c1c2):
        pt = geometry.sample_pareto([mult_c1c2, mult_c1c2], [1.0], [2.25, 2.25])
        np.testing.assert_allclose(pt.allocation[0], [1.5, 1.5])
        np.testing.assert_allclose(pt.allocation[1], [1.5, 1.5])

    def test_rates_align_in_flat_domain(self, cd, ces73):
        pt = geometry.sample_pareto([cd, ces73], [1.3], [0.2, 1.1])
        for spec, bundle in zip([cd, ces73], pt.allocation):
            np.testing.assert_allclose(
                prefs.substitution_rates(spec, bundle), [1.3], rtol=1e-9
            )

    def test_no_feasible_dominating_perturbation(self, cd, ces73):
        # brute-force grid over transfers at resolution 0.01 on the 2x2 box
        specs = [cd, ces73]
        pt = geometry.sample_pareto(specs, [1.0], [0.1, 1.2])
        y1, y2 = pt.allocation
        base = [prefs.utility(s, b) for s, b in zip(specs, (y1, y2))]
        grid = np.arange(-0.5, 0.5 + 1e-12, 0.01)
        for d1 in grid:
            for d2 in grid:
                shift = np.array([d1, d2])
                c1 = y1 + shift
                c2 = y2 - shift
                if np.any(c1 <= 0) or np.any(c2 <= 0):
                    continue
                u1 = prefs.utility(specs[0], c1)
                u2 = prefs.utility(specs[1], c2)
                dominates = (
                    u1 >= base[0] + 1e-12
                    and u2 >= base[1] - 1e-12
                    or u1 >= base[0] - 1e-12
                    and u2 >= base[1] + 1e-12
                ) and (u1 > base[0] + 1e-12 or u2 > base[1] + 1e-12)
                assert not dominates

    def test_unreachable_level(self, ces):
        with pytest.raises(Exception):
            geometry.sample_pareto([ces, ces], [1.0], [-1.0, 1.0])


class TestContractCurve:
    def test_symmetric_cd_is_the_diagonal(self, mult_c1c2):
        allocations = geometry.contract_curve_2x2([mult_c1c2, mult_c1c2], [3.0, 3.0], 11)
        for alloc in allocations:
            y1 = alloc[0]
            assert y1[0] == pytest.approx(y1[1], rel=1e-9)
            np.testing.assert_allclose(alloc.sum(axis=0), [3.0, 3.0], atol=1e-12)

    def test_symmetric_point_on_curve(self, mult_c1c2):
        allocations = geometry.contract_curve_2x2([mult_c1c2, mult_c1c2], [3.0, 3.0], 1)
        assert allocations.shape == (1, 2, 2) and not allocations.flags.writeable
        np.testing.assert_allclose(allocations[0], [[1.5, 1.5], [1.5, 1.5]], rtol=1e-9)

    def test_rate_equality_everywhere(self, cd, ces73):
        allocations = geometry.contract_curve_2x2([cd, ces73], [2.5, 3.5], 15)
        for alloc in allocations:
            r1 = prefs.substitution_rates(cd, alloc[0])[0]
            r2 = prefs.substitution_rates(ces73, alloc[1])[0]
            assert r1 == pytest.approx(r2, rel=1e-9)

    @pytest.mark.parametrize("order", [1, -1])
    def test_rates_that_never_cross_raise(self, order):
        # nearly linear CES households whose rates stay apart across the whole box
        specs = [UtilitySpec.ces([0.99, 0.01], 0.999), UtilitySpec.ces([0.01, 0.99], 0.999)][::order]
        with pytest.raises(ConvergenceError, match=r"^rates do not cross at y11 = 0\.5$"):
            geometry.contract_curve_2x2(specs, [1.0, 1.0], 1)

    def test_no_trade_from_curve_points(self, cd):
        economy = Economy.of([cd, cd])
        for alloc in geometry.contract_curve_2x2([cd, cd], [3.0, 3.0], 5):
            assert trade.trade_interval_2x2(economy, Allocation(alloc)) is None
            for q in (0.7, 1.0, 1.4):
                assert not trade.has_trade(economy, Allocation(alloc), [q, 1.0])


_SPEC_2 = st.one_of(
    st.builds(lambda a: UtilitySpec.cobb_douglas_log([a, 1.0 - a]), st.floats(0.2, 0.8)),
    st.builds(lambda a, sigma: UtilitySpec.ces([a, 1.0 - a], sigma), st.floats(0.2, 0.8), st.floats(0.2, 0.8)),
)


def _assert_root_near(root: float, reference: float, f, ends, ulp: float, noise: float) -> None:
    """``root`` within four units of ``reference``'s resolution: an ulp of the solved
    coordinate, plus the rounding of ``f``'s terms near the root over ``f``'s slope there,
    a central difference that stays inside ``ends``."""
    h = 1e-6 * min(reference - ends[0], ends[1] - reference)
    slope = abs(f(reference + h) - f(reference - h)) / (2 * h)
    assert abs(root - reference) <= 4 * (ulp + noise / slope)


@settings(max_examples=60, deadline=None)
@given(pair=st.tuples(_SPEC_2, _SPEC_2), bundles=st.lists(st.floats(0.3, 3.0), min_size=4, max_size=4))
def test_roots_match_the_brent_oracle(pair, bundles):
    endowments = Allocation(np.reshape(bundles, (2, 2)))
    a1, a2 = endowments.aggregate
    curve = geometry.contract_curve_2x2(pair, [a1, a2], 5)
    for k, (alloc, reference) in enumerate(zip(curve, oracles.reference_contract_curve_y12(pair, [a1, a2], 5))):
        y11 = alloc[0, 0]
        assert y11 == a1 * (k + 1) / 6
        logs = oracles.log_rates_2x2(pair, [a1, a2], y11, reference)
        # y12 and a2 - y12 both round at the ulp of a2; the log rates at theirs
        _assert_root_near(
            alloc[0, 1], reference, lambda y12: np.subtract(*oracles.log_rates_2x2(pair, [a1, a2], y11, y12)),
            (0.0, a2), np.spacing(a2), np.spacing(max(1.0, *map(abs, logs))),
        )
    if trade.is_pareto_optimal(Economy.of(pair), endowments):
        return  # no bracket: the endowment is its own equilibrium
    q, _ = geometry.walras_equilibrium_2x2(pair, endowments)
    rates = trade.household_rates(Economy.of(pair), endowments)[:, 0]
    # the aggregate demand rounds at the ulp of a1
    _assert_root_near(
        q, oracles.reference_walras_rate(pair, endowments), lambda r: oracles.excess_demand_2x2(pair, endowments, r),
        (rates.min(), rates.max()), np.spacing(q), np.spacing(a1),
    )


class TestWalrasEquilibrium:
    def test_example4_equilibrium(self, cd):
        endow = Allocation(np.array([[2.0, 1.0], [1.0, 2.0]]))
        q, alloc = geometry.walras_equilibrium_2x2([cd, cd], endow)
        assert q == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(alloc, [[1.5, 1.5], [1.5, 1.5]], rtol=1e-12)

    def test_no_trade_when_already_optimal(self, cd):
        endow = Allocation(np.array([[1.0, 1.0], [2.0, 2.0]]))
        q, alloc = geometry.walras_equilibrium_2x2([cd, cd], endow)
        assert q == pytest.approx(1.0)
        np.testing.assert_array_equal(alloc, endow.bundles)
        assert not alloc.flags.writeable

    def test_mixed_ces_residual(self, ces, ces73):
        endow = Allocation(np.array([[2.0, 0.5], [0.7, 2.2]]))
        q, alloc = geometry.walras_equilibrium_2x2([ces, ces73], endow)
        p = np.array([q, 1.0])
        total = np.zeros(2)
        for spec, b in zip((ces, ces73), endow.bundles):
            total += prefs.normalized_demand(spec, p / float(p @ b))
        np.testing.assert_allclose(total, endow.aggregate, atol=1e-10)
        # the cleared allocation is what each household demands at q
        np.testing.assert_allclose(alloc.sum(axis=0), endow.aggregate, atol=1e-10)

    def test_random_mixed_economies(self, cd, ces, ces73, rng):
        specs_pool = [cd, ces, ces73]
        for _ in range(20):
            pair = [specs_pool[rng.integers(0, 3)], specs_pool[rng.integers(0, 3)]]
            endow = Allocation(log_uniform(rng, (2, 2)))
            q, alloc = geometry.walras_equilibrium_2x2(pair, endow)
            rates = [float(prefs.substitution_rates(s, b)[0]) for s, b in zip(pair, endow.bundles)]
            assert min(rates) <= q <= max(rates)
            np.testing.assert_allclose(alloc.sum(axis=0), endow.aggregate, atol=1e-10)
            if trade.is_pareto_optimal(Economy.of(pair), endow):
                continue
            # the cleared allocation sits on the equal-rates locus
            for s, b in zip(pair, alloc):
                assert prefs.substitution_rates(s, b)[0] == pytest.approx(q, rel=1e-9)


class TestValidationErrors:
    def test_flat_point_requires_positive_rates(self):
        with pytest.raises(SpecificationError):
            FlatPoint(np.array([-1.0]), 1.0)

    @pytest.mark.parametrize(
        "q", [[math.nan], [1.0, math.inf], [-math.inf, 1.0], [0.0], [2.0, -1.0], [-0.0]]
    )
    def test_flat_point_rate_messages(self, q):
        got = re.escape(repr(q))
        with pytest.raises(SpecificationError, match=f"^q must be a nonempty vector of finite positive rates, got {got}$"):
            FlatPoint(q, 1.0)

    def test_flat_point_shape_and_level_messages(self):
        form = "^q must be a nonempty vector of finite positive rates, got "
        with pytest.raises(SpecificationError, match=rf"{form}\[\]$"):
            FlatPoint([], 1.0)
        with pytest.raises(SpecificationError, match=rf"{form}\[\[1\.0\]\]$"):
            FlatPoint([[1.0]], 1.0)
        for u in (math.nan, math.inf, -math.inf):
            with pytest.raises(SpecificationError, match=rf"^utility coordinate must be a number in \(-inf, inf\), got {u!r}$"):
                FlatPoint([1.0], u)

    def test_flat_point_keeps_a_read_only_copy(self):
        q = np.array([1.0, 2.0])
        fp = FlatPoint(q, 0.5)
        q[0] = 5.0
        assert fp.q[0] == 1.0 and not fp.q.flags.writeable
        assert isinstance(fp.u, float)

    def test_manifold_grid_dimension(self, cd):
        with pytest.raises(SpecificationError):
            geometry.sample_manifold(cd, ManifoldKind.OFFER, [1.0, 1.0], [np.array([1.0, 2.0])])

    @pytest.mark.parametrize(
        "q", [[1.0, 2.0], [math.inf], [math.nan], [[1.0]], [0.0], [-1.0], [], "x"],
        ids=["too_long", "inf", "nan", "matrix", "zero", "negative", "empty", "string"],
    )
    def test_rate_vector_has_one_rule(self, cd, q):
        # k_c once leaked numpy's matmul error, warned on inf and called NaN a price; both took [[1.0]]
        form = rf"^q must be a vector of L - 1 = 1 finite positive rates, got {re.escape(repr(q))}$"
        with pytest.raises(SpecificationError, match=form):
            geometry.k_c(cd, [1.0, 2.0], q)
        with pytest.raises(SpecificationError, match=form):
            geometry.sample_pareto([cd, cd], q, [0.1, 0.2])

    def test_rate_vector_may_be_a_scalar_at_two_goods_only(self, cd):
        assert geometry.k_c(cd, [1.0, 2.0], 1.5) == geometry.k_c(cd, [1.0, 2.0], [1.5])
        assert geometry.sample_pareto([cd, cd], np.float64(1.5), [0.1, 0.2]).q.tolist() == [1.5]
        ces3 = UtilitySpec.ces([0.2, 0.5, 0.3], 0.5)
        assert geometry.k_c(ces3, [1.0, 2.0, 3.0], [1.0, 2.0]) > 0.0
        with pytest.raises(SpecificationError, match=r"^q must be a vector of L - 1 = 2 finite positive rates, got 1\.0$"):
            geometry.k_c(ces3, [1.0, 2.0, 3.0], 1.0)

    def test_flat_point_of_the_wrong_length_has_the_rate_rule(self, cd):
        # gamma_contains once leaked numpy's matmul error here
        fp = FlatPoint([1.0, 2.0], 0.0)
        form = r"^q must be a vector of L - 1 = 1 finite positive rates, got array\(\[1\., 2\.\]\)$"
        with pytest.raises(SpecificationError, match=form):
            geometry.unflatten(cd, fp)
        with pytest.raises(SpecificationError, match=form):
            geometry.gamma_contains(cd, [1.0, 2.0], fp)

    def test_contract_curve_needs_two_specs(self, cd):
        with pytest.raises(SpecificationError):
            geometry.contract_curve_2x2([cd], [3.0, 3.0], 3)

    def test_two_by_two_solvers_reject_three_good_specs(self, cd):
        three = UtilitySpec.cobb_douglas_log([0.2, 0.3, 0.5])
        with pytest.raises(SpecificationError, match="^contract_curve_2x2 requires two households over two goods$"):
            geometry.contract_curve_2x2([cd, three], [3.0, 3.0], 3)
        for specs in ([cd, three], [three, three]):
            with pytest.raises(SpecificationError):
                geometry.walras_equilibrium_2x2(specs, Allocation(np.array([[2.0, 1.0], [1.0, 2.0]])))
