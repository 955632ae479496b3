from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeworth import prefs
from edgeworth.errors import (
    DomainDegeneracyError,
    SpecificationError,
    UnreachableUtilityError,
)
from edgeworth.prefs import Family, UtilitySpec

from edgeworth import geometry, trade
from edgeworth.trade import Allocation, Economy

import oracles
from oracles import fd_gradient, fd_hessian, fd_jacobian, log_uniform, numeric_demand, numeric_hicksian

pytestmark = pytest.mark.dispatch


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(SpecificationError):
            UtilitySpec.cobb_douglas_log([0.5, 0.6])

    def test_weights_must_be_positive(self):
        with pytest.raises(SpecificationError):
            UtilitySpec.cobb_douglas_log([1.5, -0.5])

    @pytest.mark.parametrize("sigma", [0.0, 1.0, -0.2, 1.7])
    def test_ces_elasticity_strictly_inside_unit_interval(self, sigma):
        with pytest.raises(SpecificationError):
            UtilitySpec.ces([0.5, 0.5], sigma)

    def test_ces_requires_elasticity(self):
        with pytest.raises(SpecificationError):
            UtilitySpec(Family.CES, np.array([0.5, 0.5]))

    def test_log_family_rejects_elasticity(self):
        with pytest.raises(SpecificationError):
            UtilitySpec(Family.COBB_DOUGLAS_LOG, np.array([0.5, 0.5]), 0.5)

    def test_dimension_mismatch(self, cd):
        with pytest.raises(SpecificationError):
            prefs.utility(cd, [1.0, 1.0, 1.0])

    def test_nonpositive_bundle_rejected(self, cd):
        with pytest.raises(SpecificationError):
            prefs.utility(cd, [1.0, 0.0])

    def test_subnormal_bundle_is_domain_degenerate(self, cd):
        with pytest.raises(DomainDegeneracyError):
            prefs.utility(cd, [1.0, 1e-305])

    @pytest.mark.parametrize(
        "exponents", [[1.0], [[1.0, 2.0]], [1.0, 0.0], [1.0, -2.0], [1.0, math.inf], [1.0, math.nan]]
    )
    def test_multiplicative_rejects_bad_exponents(self, exponents):
        with pytest.raises(SpecificationError, match="^exponents must be"):
            UtilitySpec.multiplicative(exponents)

    def test_level_exponent_only_on_the_log_family(self):
        with pytest.raises(SpecificationError, match="only valid for the log Cobb-Douglas family"):
            UtilitySpec(Family.CES, np.array([0.5, 0.5]), 0.5, exponent=2.0)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(SpecificationError, match=r"^exponent must be a number in \(0, inf\), got "):
                UtilitySpec(Family.COBB_DOUGLAS_LOG, np.array([0.5, 0.5]), exponent=bad)


def _checked_utility(values):
    """A public caller of ``as_bundle``: the two-good log Cobb-Douglas utility level."""
    return prefs.utility(UtilitySpec.cobb_douglas_log([0.5, 0.5]), values)


def _checked_inverse_demand(values):
    """Another public caller of ``as_bundle``: two-good log Cobb-Douglas inverse demand."""
    return prefs.inverse_normalized_demand(UtilitySpec.cobb_douglas_log([0.5, 0.5]), values)


class TestInputContract:
    """Which error each bad input raises, in the documented check order."""

    CHECKERS = {
        "as_bundle": (prefs.as_bundle, "bundle"),
        "as_price": (prefs.as_price, "price"),
        "utility": (_checked_utility, "bundle"),
        "inverse_demand": (_checked_inverse_demand, "bundle"),
    }

    @pytest.fixture(params=sorted(CHECKERS))
    def checker(self, request):
        return self.CHECKERS[request.param]

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, math.nan],
            [math.inf, 1.0],
            [1.0, -math.inf],
            [math.nan, -1.0],
            [-1.0, math.nan],
            [0.0, math.inf],
            [1e-305, math.nan],
        ],
    )
    def test_non_finite_rejected_first(self, checker, values):
        check, noun = checker
        with pytest.raises(SpecificationError, match=f"^{noun} coordinates must be finite$"):
            check(values)

    @pytest.mark.parametrize("values", [[1.0, 0.0], [-1.0, 1.0], [-0.0, 2.0], [-1e-305, 1.0]])
    def test_non_positive_rejected(self, checker, values):
        check, noun = checker
        with pytest.raises(SpecificationError, match=f"^{noun} coordinates must be strictly positive$"):
            check(values)

    @pytest.mark.parametrize("values", [[1.0, 1e-305], [9.9e-301, 1.0], [5e-324, 5e-324]])
    def test_below_floor_is_domain_degenerate(self, checker, values):
        check, _ = checker
        with pytest.raises(DomainDegeneracyError, match="^bundle coordinate below 1e-300$"):
            check(values)

    def test_floor_itself_is_accepted(self, checker):
        check, _ = checker
        check([prefs.POSITIVE_FLOOR, 1.0])

    @pytest.mark.parametrize("values", [1.0, [1.0], [[1.0, 1.0]], [[1.0], [1.0]], []])
    def test_shape_rejected(self, checker, values):
        check, noun = checker
        with pytest.raises(SpecificationError, match=f"^a {noun} must be a vector of length >= 2$"):
            check(values)

    def test_shape_checked_before_values(self, checker):
        check, noun = checker
        with pytest.raises(SpecificationError, match=f"^a {noun} must be a vector of length >= 2$"):
            check([[math.nan, -1.0]])

    @pytest.mark.parametrize("checked", ["as_bundle", "as_price"])
    def test_dimension_mismatch(self, checked):
        check, _ = self.CHECKERS[checked]
        with pytest.raises(SpecificationError, match="^expected 3 goods, got 2$"):
            check([1.0, 1.0], 3)
        with pytest.raises(SpecificationError, match="^expected 3 goods, got 2$"):
            check([math.nan, -1.0], 3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda u, v: prefs.utility(u, v),
            lambda u, v: prefs.gradient(u, v),
            lambda u, v: prefs.hessian(u, v),
            lambda u, v: prefs.normalized_demand(u, v),
            lambda u, v: prefs.normalized_demand_jacobian(u, v),
            lambda u, v: prefs.inverse_normalized_demand(u, v),
            lambda u, v: prefs.substitution_rates(u, v),
            lambda u, v: prefs.hicksian_demand(u, v, 0.0),
            lambda u, v: prefs.expenditure(u, v, 0.0),
            lambda u, v: prefs.check_sharp(u, v, [1.0, 1.0]),
            lambda u, v: prefs.check_sharp(u, [1.0, 1.0], v),
            lambda u, v: prefs.check_attractive(u, v, [1.0, 1.0], 0, 1),
            lambda u, v: prefs.check_attractive(u, [1.0, 1.0], v, 0, 1),
        ],
        ids=[
            "utility", "gradient", "hessian", "normalized_demand", "normalized_demand_jacobian",
            "inverse_normalized_demand", "substitution_rates", "hicksian_demand", "expenditure",
            "check_sharp_bundle", "check_sharp_price", "check_attractive_bundle", "check_attractive_price",
        ],
    )
    def test_dimension_mismatch_in_public_caller(self, cd, call):
        # one check, as_bundle's or as_price's, and it runs before the finiteness check
        with pytest.raises(SpecificationError, match="^expected 2 goods, got 3$"):
            call(cd, [1.0, 1.0, 1.0])
        with pytest.raises(SpecificationError, match="^expected 2 goods, got 3$"):
            call(cd, [math.nan, 1.0, 1.0])

    def test_price_caller_messages(self, cd):
        with pytest.raises(SpecificationError, match="^price coordinates must be finite$"):
            prefs.normalized_demand(cd, [math.nan, -1.0])
        with pytest.raises(SpecificationError, match="^price coordinates must be strictly positive$"):
            prefs.normalized_demand(cd, [0.0, 1.0])
        with pytest.raises(DomainDegeneracyError, match="^bundle coordinate below 1e-300$"):
            prefs.normalized_demand(cd, [1.0, 1e-305])

    @pytest.mark.parametrize("checked", ["as_bundle", "as_price"])
    def test_valid_input_returned_as_float_vector(self, checked):
        check, _ = self.CHECKERS[checked]
        out = check([1, 2], 2)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_demand_underflow_is_domain_degenerate(self, cd):
        with pytest.raises(DomainDegeneracyError, match="^demand degenerated below the positive floor$"):
            prefs.normalized_demand(cd, [1e305, 1.0])

    @pytest.mark.parametrize(
        "call",
        [
            lambda u, p: prefs.normalized_demand_jacobian(u, p),
            lambda u, p: geometry.jacobian_psi(u, [1.0, 1.0], p),
            lambda u, p: geometry.jacobian_phi(u, [1.0, 1.0], p),
            lambda u, p: geometry.d_inverse(u, p),
        ],
        ids=["normalized_demand_jacobian", "jacobian_psi", "jacobian_phi", "d_inverse"],
    )
    def test_outputs_built_on_an_underflowing_demand_are_domain_degenerate(self, call):
        # x_0 = 0.5^10 * 1e40^-10 / (...) underflows to 0, while each output stays finite
        u = UtilitySpec.ces([0.5, 0.5], 0.9)
        with pytest.raises(DomainDegeneracyError, match="degenerated below the positive floor$"):
            call(u, [1e40, 1.0])

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, math.nan],
            [1.0, math.inf],
            [1.0, -math.inf],
            [1.0, 0.0],
            [1.0, -0.0],
            [1.0, 1e-305],
            [1.0, -1e-305],
        ],
    )
    def test_guard_rejects_degenerate_outputs(self, values):
        with pytest.raises(DomainDegeneracyError, match="^demand degenerated below the positive floor$"):
            prefs._guard(np.array(values), "demand")

    @pytest.mark.parametrize("values", [[1.0, 2.0], [-1.0, 1e-300], [-1e300, 1e300], []])
    def test_guard_passes_finite_outputs_off_the_floor(self, values):
        a = np.array(values, dtype=np.float64)
        assert prefs._guard(a, "demand") is a


class TestUtility:
    def test_ces_symmetric_unit(self, ces):
        assert prefs.utility(ces, [1.0, 1.0]) == pytest.approx(1.0)

    def test_cobb_douglas_log_value(self, cd):
        assert prefs.utility(cd, [2.0, 1.0]) == pytest.approx(0.5 * math.log(2.0))

    def test_ces_brute_force_value(self, ces):
        # independent evaluation of (sum a_i c_i^s)^(1/s)
        expected = (0.5 * 4.0**0.5 + 0.5 * 1.0**0.5) ** 2.0
        assert prefs.utility(ces, [4.0, 1.0]) == pytest.approx(expected)
        assert expected == pytest.approx(2.25)

    def test_multiplicative_form(self, mult_c1c2):
        assert prefs.utility(mult_c1c2, [2.0, 3.0]) == pytest.approx(6.0)


class TestGradientHessian:
    def test_cobb_douglas_gradient(self, cd):
        np.testing.assert_allclose(prefs.gradient(cd, [1.0, 1.0]), [0.5, 0.5])
        np.testing.assert_allclose(prefs.gradient(cd, [2.0, 1.0]), [0.25, 0.5])

    def test_ces_gradient_matches_finite_differences(self, ces):
        c = np.array([4.0, 1.0])
        got = prefs.gradient(ces, c)
        want = fd_gradient(lambda z: prefs.utility(ces, z), c, rel_step=1e-5)
        np.testing.assert_allclose(got, want, rtol=1e-7)

    def test_cobb_douglas_hessian(self, cd):
        np.testing.assert_allclose(prefs.hessian(cd, [1.0, 1.0]), np.diag([-0.5, -0.5]))

    def test_hessian_symmetry(self, ces73, rng):
        for _ in range(20):
            c = log_uniform(rng, 2)
            h = prefs.hessian(ces73, c)
            np.testing.assert_allclose(h, h.T)

    def test_ces_hessian_matches_finite_differences(self, ces):
        c = np.array([4.0, 1.0])
        got = prefs.hessian(ces, c)
        want = fd_hessian(lambda z: prefs.utility(ces, z), c)
        np.testing.assert_allclose(got, want, rtol=1e-5)

    @pytest.mark.parametrize("dim", [3, 5])
    def test_gradient_and_hessian_higher_dims(self, dim, rng):
        w = rng.uniform(0.5, 1.5, dim)
        spec = UtilitySpec.ces(w / w.sum(), 0.4)
        c = log_uniform(rng, dim)
        np.testing.assert_allclose(
            prefs.gradient(spec, c),
            fd_gradient(lambda z: prefs.utility(spec, z), c, rel_step=1e-5),
            rtol=1e-6,
        )
        np.testing.assert_allclose(
            prefs.hessian(spec, c),
            fd_hessian(lambda z: prefs.utility(spec, z), c),
            rtol=1e-4,
            atol=1e-9,
        )


class TestNormalizedDemand:
    def test_cobb_douglas_unit_prices(self, cd):
        np.testing.assert_allclose(prefs.normalized_demand(cd, [1.0, 1.0]), [0.5, 0.5])

    def test_cobb_douglas_fixed_point_ray(self, cd):
        r = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(prefs.normalized_demand(cd, [r, r]), [r, r], rtol=1e-14)

    def test_ces_against_numeric_maximizer(self, ces):
        p = np.array([1.0, 4.0])
        got = prefs.normalized_demand(ces, p)
        np.testing.assert_allclose(got, [0.8, 0.05], rtol=1e-12)
        assert p @ got == pytest.approx(1.0, abs=1e-10)
        oracle = numeric_demand(ces, p)
        np.testing.assert_allclose(got, oracle, rtol=1e-6)

    def test_numeric_maximizer_cross_family(self, cd, ces73, rng):
        for spec in (cd, ces73):
            p = log_uniform(rng, 2)
            np.testing.assert_allclose(
                prefs.normalized_demand(spec, p), numeric_demand(spec, p), rtol=1e-5
            )

    def test_demand_jacobian_matches_finite_differences(self, cd, ces73, rng):
        for spec in (cd, ces73):
            p = log_uniform(rng, 2)
            np.testing.assert_allclose(
                prefs.normalized_demand_jacobian(spec, p),
                fd_jacobian(lambda z: prefs.normalized_demand(spec, z), p),
                rtol=1e-6,
                atol=1e-9,
            )


@settings(max_examples=100, deadline=None)
@given(
    p1=st.floats(0.1, 10.0),
    p2=st.floats(0.1, 10.0),
    p3=st.floats(0.1, 10.0),
)
def test_walras_law_property(p1, p2, p3):
    p = np.array([p1, p2, p3])
    for spec in (
        UtilitySpec.cobb_douglas_log([0.2, 0.3, 0.5]),
        UtilitySpec.ces([0.2, 0.3, 0.5], 0.5),
    ):
        x = prefs.normalized_demand(spec, p)
        assert abs(float(p @ x) - 1.0) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(
    c1=st.floats(0.1, 10.0),
    c2=st.floats(0.1, 10.0),
)
def test_demand_roundtrip_property(c1, c2):
    c = np.array([c1, c2])
    for spec in (
        UtilitySpec.cobb_douglas_log([0.5, 0.5]),
        UtilitySpec.ces([0.5, 0.5], 0.5),
    ):
        back = prefs.normalized_demand(spec, prefs.inverse_normalized_demand(spec, c))
        np.testing.assert_allclose(back, c, rtol=1e-9)
        # reverse composition: the same point read as a price vector
        price_back = prefs.inverse_normalized_demand(spec, prefs.normalized_demand(spec, c))
        np.testing.assert_allclose(price_back, c, rtol=1e-9)


_FAMILIES = ("cobb_douglas", "ces", "multiplicative")

# public function -> its closed-form core
_CORE = {
    "gradient": prefs._gradient,
    "normalized_demand": prefs._demand,
    "inverse_normalized_demand": prefs._inverse_demand,
    "substitution_rates": prefs._rates,
}


def _random_utility(rng: np.random.Generator, family: str, goods: int):
    w = rng.dirichlet(np.ones(goods)) * 0.9 + 0.1 / goods
    if family == "cobb_douglas":
        return UtilitySpec.cobb_douglas_log(w)
    if family == "ces":
        return UtilitySpec.ces(w, float(rng.uniform(0.05, 0.95)))
    return UtilitySpec.multiplicative(rng.uniform(0.2, 3.0, goods))


class TestStackedCore:
    """The closed-form core against the per-vector reference formulas."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), goods=st.sampled_from([2, 3, 4]), family=st.sampled_from(_FAMILIES))
    def test_public_vector_results_match_the_reference_bitwise(self, seed, goods, family):
        rng = np.random.default_rng(seed)
        u = _random_utility(rng, family, goods)
        for _ in range(5):
            v = log_uniform(rng, goods, 1e-3, 1e3)
            for name in _CORE:
                got = getattr(prefs, name)(u, v)
                want = getattr(oracles, f"reference_{name}")(u, v)
                if family == "multiplicative" and name in ("inverse_normalized_demand", "substitution_rates"):
                    # reached through the normalized weights as the log family,
                    # not through the utility level as before
                    twin = UtilitySpec.cobb_douglas_log(u.weights)
                    np.testing.assert_array_equal(got, getattr(prefs, name)(twin, v))
                    np.testing.assert_allclose(got, want, rtol=1e-14)
                else:
                    np.testing.assert_array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        goods=st.sampled_from([2, 3, 4]),
        family=st.sampled_from(_FAMILIES),
        shape=st.sampled_from([(1,), (5,), (2, 3), (4, 1)]),
    )
    def test_stack_rows_match_vector_calls(self, seed, goods, family, shape):
        rng = np.random.default_rng(seed)
        u = _random_utility(rng, family, goods)
        stack = log_uniform(rng, shape + (goods,), 1e-3, 1e3)
        for name, core in _CORE.items():
            public = getattr(prefs, name)
            if family == "multiplicative" and name == "gradient":
                continue  # the core's gradient is the log family's; the level enters only the public one
            got = core(u, stack)
            want = np.array([public(u, row) for row in stack.reshape(-1, goods)])
            assert got.shape == shape + want.shape[1:]
            np.testing.assert_array_equal(got.reshape(want.shape), want)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        goods=st.sampled_from([2, 3, 4]),
        family=st.sampled_from(_FAMILIES),
        shape=st.sampled_from([(1,), (6,), (2, 3)]),
    )
    def test_public_functions_are_one_row_of_their_core_bitwise(self, seed, goods, family, shape):
        rng = np.random.default_rng(seed)
        u = _random_utility(rng, family, goods)
        p = log_uniform(rng, shape + (goods,), 1e-2, 1e2)
        c = log_uniform(rng, shape + (goods,), 1e-2, 1e2)
        level = prefs._utility(u, c)
        q, flat_level = geometry._d_inverse(u, p)
        # public function of row k -> the stacked core's output
        pairs = [
            (lambda k: prefs.utility(u, c[k]), prefs._utility(u, c)),
            (lambda k: prefs.gradient(u, c[k]), prefs._level_gradient(u, c)),
            (lambda k: prefs.normalized_demand(u, p[k]), prefs._demand(u, p)),
            (lambda k: prefs.inverse_normalized_demand(u, c[k]), prefs._inverse_demand(u, c)),
            (lambda k: prefs.substitution_rates(u, c[k]), prefs._rates(u, c)),
            (lambda k: prefs.hicksian_demand(u, p[k], float(level[k])), prefs._hicksian(u, p, level)),
            (lambda k: prefs.expenditure(u, p[k], float(level[k])), prefs._expenditure(u, p, level)),
            (lambda k: prefs.normalized_demand_jacobian(u, p[k]), prefs._demand_jacobian(u, p)),
            (lambda k: geometry.jacobian_phi(u, c[k], p[k]), geometry._jacobian_phi(u, c, p)),
            (lambda k: geometry.jacobian_psi(u, c[k], p[k]), geometry._jacobian_psi(u, c, p)),
            (lambda k: geometry.d_inverse(u, p[k]).q, q),
            (lambda k: geometry.d_inverse(u, p[k]).u, flat_level),
            (lambda k: geometry.d_map(u, geometry.FlatPoint(q[k], float(flat_level[k]))), geometry._d_map(u, q, flat_level)),
        ]
        for public, stacked in pairs:
            for k in np.ndindex(shape):
                np.testing.assert_array_equal(public(k), stacked[k])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        goods=st.sampled_from([2, 3, 4]),
        households=st.integers(2, 4),
        families=st.lists(st.sampled_from(_FAMILIES), min_size=4, max_size=4),
    )
    def test_one_degenerate_household_raises_through_trade_directions(self, seed, goods, households, families):
        rng = np.random.default_rng(seed)
        specs = [_random_utility(rng, f, goods) for f in families[:households]]
        bundles = log_uniform(rng, (households, goods), 0.2, 5.0)
        p = np.append(np.full(goods - 1, 1e-12), 1.0)
        e = Economy.of(specs)
        trade.all_trade_directions(e, Allocation(bundles), p)  # every row healthy
        bad = int(rng.integers(households))
        # wealth p . b near 1e299 puts its normalized prices near 1e-311: demand overflows
        bundles[bad] = np.append(np.ones(goods - 1), 1e299)
        with pytest.raises(DomainDegeneracyError), np.errstate(over="ignore", invalid="ignore"):
            trade.all_trade_directions(e, Allocation(bundles), p)


class TestInverseDemand:
    def test_example_values(self, mult_c1c2, cd):
        np.testing.assert_allclose(prefs.inverse_normalized_demand(mult_c1c2, [1.0, 1.0]), [0.5, 0.5])
        np.testing.assert_allclose(prefs.inverse_normalized_demand(mult_c1c2, [2.0, 1.0]), [0.25, 0.5])
        # the log form shares the demand map
        np.testing.assert_allclose(prefs.inverse_normalized_demand(cd, [2.0, 1.0]), [0.25, 0.5])

    def test_ces_roundtrip(self, ces):
        c = np.array([4.0, 1.0])
        back = prefs.normalized_demand(ces, prefs.inverse_normalized_demand(ces, c))
        np.testing.assert_allclose(back, c, rtol=1e-9)

    def test_price_roundtrip(self, ces73, rng):
        for _ in range(50):
            p = log_uniform(rng, 2)
            back = prefs.inverse_normalized_demand(ces73, prefs.normalized_demand(ces73, p))
            np.testing.assert_allclose(back, p, rtol=1e-9)


class TestHicksianExpenditure:
    def test_example2_values(self, mult_c1c2):
        np.testing.assert_allclose(prefs.hicksian_demand(mult_c1c2, [1.0, 1.0], 1.0), [1.0, 1.0])
        # cost-minimizing bundle at p=(4,1), level 1: c = (1/2, 2), cost 4
        np.testing.assert_allclose(prefs.hicksian_demand(mult_c1c2, [4.0, 1.0], 1.0), [0.5, 2.0])

    def test_expenditure_example1(self, mult_c1c2):
        assert prefs.expenditure(mult_c1c2, [1.0, 1.0], 1.0) == pytest.approx(2.0)
        assert prefs.expenditure(mult_c1c2, [4.0, 1.0], 1.0) == pytest.approx(4.0)

    def test_expenditure_closed_form_sweep(self, mult_c1c2, rng):
        for _ in range(25):
            p = log_uniform(rng, 2)
            u0 = float(rng.uniform(0.2, 5.0))
            assert prefs.expenditure(mult_c1c2, p, u0) == pytest.approx(
                2.0 * math.sqrt(u0 * p[0] * p[1]), rel=1e-12
            )

    def test_ces_against_numeric_minimizer(self, ces):
        p = np.array([1.0, 2.5])
        got = prefs.hicksian_demand(ces, p, 1.3)
        oracle = numeric_hicksian(ces, p, 1.3)
        np.testing.assert_allclose(got, oracle, rtol=1e-7)
        assert prefs.utility(ces, got) == pytest.approx(1.3, abs=1e-9)

    def test_hicksian_hits_the_contour(self, cd, ces73, rng):
        for spec, level in ((cd, -0.3), (cd, 1.2), (ces73, 0.7), (ces73, 4.0)):
            p = log_uniform(rng, 2)
            got = prefs.hicksian_demand(spec, p, level)
            assert prefs.utility(spec, got) == pytest.approx(level, abs=1e-9)

    def test_duality_unit_expenditure(self, cd, ces73, rng):
        for spec in (cd, ces73):
            for _ in range(25):
                p = log_uniform(rng, 2)
                v = prefs.indirect_utility_normalized(spec, p)
                assert prefs.expenditure(spec, p, v) == pytest.approx(1.0, abs=1e-10)

    def test_unreachable_level(self, ces, mult_c1c2):
        with pytest.raises(UnreachableUtilityError):
            prefs.hicksian_demand(ces, [1.0, 1.0], -1.0)
        with pytest.raises(UnreachableUtilityError):
            prefs.expenditure(mult_c1c2, [1.0, 1.0], 0.0)


class TestIndirectUtility:
    def test_example1_values(self, mult_c1c2):
        assert prefs.indirect_utility_normalized(mult_c1c2, [1.0, 1.0]) == pytest.approx(0.25)
        assert prefs.indirect_utility_normalized(mult_c1c2, [0.5, 0.5]) == pytest.approx(1.0)

    def test_log_family_closed_form(self, cd, rng):
        for _ in range(25):
            p = log_uniform(rng, 2)
            expected = float(cd.weights @ np.log(cd.weights / p))
            assert prefs.indirect_utility_normalized(cd, p) == pytest.approx(expected, rel=1e-12)


class TestLambda:
    def test_example1_value(self, mult_c1c2):
        assert prefs.lambda_n(mult_c1c2, [1.0, 1.0]) == pytest.approx(0.5)

    def test_log_family_is_one(self, cd, rng):
        for _ in range(10):
            p = log_uniform(rng, 2)
            assert prefs.lambda_n(cd, p) == pytest.approx(1.0, abs=1e-12)

    def test_gradient_identity_for_indirect_utility(self, cd, ces73, rng):
        # grad v_n(p) = -lambda_n(p) x_n(p), checked by finite differences
        for spec in (cd, ces73):
            p = log_uniform(rng, 2)
            fd = fd_gradient(lambda z: prefs.indirect_utility_normalized(spec, z), p)
            want = -prefs.lambda_n(spec, p) * prefs.normalized_demand(spec, p)
            np.testing.assert_allclose(fd, want, rtol=1e-6)


class TestEulerIdentity:
    def test_price_jacobian_contraction(self, cd, ces73, rng):
        # p . J x_n(p) = -x_n(p), with a finite-difference Jacobian
        for spec in (cd, ces73):
            for _ in range(10):
                p = log_uniform(rng, 2)
                jac = fd_jacobian(lambda z: prefs.normalized_demand(spec, z), p)
                np.testing.assert_allclose(
                    p @ jac, -prefs.normalized_demand(spec, p), atol=1e-6
                )


class TestSharp:
    def test_triggered_antecedent(self, cd):
        assert prefs.check_sharp(cd, [1.0, 1.0], [3.0, 1.0])

    def test_vacuous_at_supporting_prices(self, cd):
        y = np.array([2.0, 1.0])
        p = prefs.inverse_normalized_demand(cd, y)
        assert prefs.check_sharp(cd, y, p)

    @pytest.mark.parametrize("family", ["cd", "ces"])
    def test_randomized_sweep(self, family, cd, ces, rng):
        spec = cd if family == "cd" else ces
        for _ in range(1000):
            y = log_uniform(rng, 2)
            p = log_uniform(rng, 2)
            assert prefs.check_sharp(spec, y, p)

    def test_three_goods_sweep(self, rng):
        spec = UtilitySpec.ces([0.2, 0.5, 0.3], 0.5)
        for _ in range(300):
            assert prefs.check_sharp(spec, log_uniform(rng, 3), log_uniform(rng, 3))

    @pytest.mark.parametrize(
        "scale, p", [(1.5, [2.0, 1.0]), (0.5, [1.0, 2.0])], ids=["overpriced_demanded", "underpriced_offered"]
    )
    def test_fails_under_a_scaled_demand(self, monkeypatch, cd, scale, p):
        # the sweeps find no violation; a demand scaled as verify's injected
        # fault scales it turns good 0's trade direction the wrong way
        assert prefs.check_sharp(cd, [1.0, 1.0], p)
        demand = prefs._demand
        monkeypatch.setattr(prefs, "_demand", lambda u, q: scale * demand(u, q))
        assert not prefs.check_sharp(cd, [1.0, 1.0], p)


class TestAttractive:
    def test_zero_factor_at_supporting_prices(self, cd):
        y = np.array([2.0, 1.0])
        p = prefs.inverse_normalized_demand(cd, y)
        assert prefs.check_attractive(cd, y, p, 0, 1)

    def test_worked_example(self, cd):
        assert prefs.check_attractive(cd, [2.0, 1.0], [1.0, 1.0], 0, 1)

    def test_fails_under_a_negated_hessian(self, monkeypatch, cd):
        # the worked example's form is negative; a convex utility's Hessian flips its sign
        hessian = prefs.hessian
        monkeypatch.setattr(prefs, "hessian", lambda u, c: -hessian(u, c))
        for i, j in ((0, 1), (1, 0)):
            assert not prefs.check_attractive(cd, [2.0, 1.0], [1.0, 1.0], i, j)

    @pytest.mark.parametrize(
        "i, j, message",
        [
            (1, 1, "goods indices must name two different goods, got 1, 1"),
            (5, 0, "goods index i must be an integer from 0 to 2, got 5"),
            (0, 3, "goods index j must be an integer from 0 to 2, got 3"),
            (0, 1.0, "goods index j must be an integer from 0 to 2, got 1.0"),
            (True, 0, "goods index i must be an integer from 0 to 2, got True"),
            (-1, 0, "goods index i must be an integer from 0 to 2, got -1"),
            (np.int64(2), np.int64(2), "goods indices must name two different goods, got 2, 2"),
        ],
        ids=["equal", "beyond_L", "at_L", "float", "bool", "negative", "equal_numpy"],
    )
    def test_goods_indices_are_two_different_goods(self, i, j, message):
        # a negative index used to wrap round to the last good
        spec = UtilitySpec.ces([0.2, 0.5, 0.3], 0.5)
        with pytest.raises(SpecificationError) as info:
            prefs.check_attractive(spec, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], i, j)
        assert str(info.value) == message
        assert prefs.check_attractive(spec, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], np.int64(2), 0)

    @pytest.mark.parametrize("family", ["cd", "ces"])
    def test_randomized_sweep_all_pairs(self, family, cd, ces, rng):
        spec = cd if family == "cd" else ces
        for _ in range(1000):
            y = log_uniform(rng, 2)
            p = log_uniform(rng, 2)
            for i, j in ((0, 1), (1, 0)):
                assert prefs.check_attractive(spec, y, p, i, j)

    def test_three_goods_sweep(self, rng):
        spec = UtilitySpec.ces([0.2, 0.5, 0.3], 0.5)
        for _ in range(200):
            y = log_uniform(rng, 3)
            p = log_uniform(rng, 3)
            for i in range(3):
                for j in range(3):
                    if i != j:
                        assert prefs.check_attractive(spec, y, p, i, j)


class TestTransformInvariance:
    def test_predicates_agree_between_representations(self, cd, rng):
        twin = UtilitySpec.multiplicative(cd.weights)
        scaled = UtilitySpec.multiplicative([1.0, 1.0])  # exp(2 u_log)
        for _ in range(200):
            y = log_uniform(rng, 2)
            p = log_uniform(rng, 2)
            assert prefs.check_sharp(cd, y, p) == prefs.check_sharp(twin, y, p) == prefs.check_sharp(scaled, y, p)
            for i, j in ((0, 1), (1, 0)):
                a = prefs.check_attractive(cd, y, p, i, j)
                assert a == prefs.check_attractive(twin, y, p, i, j)
                assert a == prefs.check_attractive(scaled, y, p, i, j)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), goods=st.sampled_from([2, 3, 4]))
    def test_multiplicative_is_its_log_twin_under_the_level_transform(self, seed, goods):
        rng = np.random.default_rng(seed)
        b = rng.uniform(0.2, 3.0, goods)
        big = float(b.sum())
        mult = UtilitySpec.multiplicative(b)
        twin = UtilitySpec.cobb_douglas_log(b / big)
        np.testing.assert_array_equal(mult.weights, twin.weights)
        assert mult.exponent == big and twin.exponent is None
        for _ in range(5):
            c = log_uniform(rng, goods, 0.2, 5.0)
            p = log_uniform(rng, goods, 0.2, 5.0)
            v = prefs.utility(twin, c)
            level = math.exp(big * v)
            assert prefs.utility(mult, c) == pytest.approx(level, rel=1e-12)
            g = prefs.gradient(twin, c)
            np.testing.assert_allclose(prefs.gradient(mult, c), level * big * g, rtol=1e-12)
            want = level * (big**2 * np.outer(g, g) + big * prefs.hessian(twin, c))
            np.testing.assert_allclose(prefs.hessian(mult, c), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            h = prefs.hicksian_demand(twin, p, v)
            np.testing.assert_allclose(prefs.hicksian_demand(mult, p, level), h, rtol=1e-12)
            assert prefs.expenditure(mult, p, level) == pytest.approx(prefs.expenditure(twin, p, v), rel=1e-12)
            assert prefs.utility_in_range(mult, level) and prefs.utility_in_range(twin, v)
            assert prefs.utility_in_range(twin, -level)
            for out in (0.0, -level, math.inf, math.nan):
                assert not prefs.utility_in_range(mult, out)

    def test_demand_map_is_shared(self, cd, mult_c1c2, rng):
        for _ in range(25):
            p = log_uniform(rng, 2)
            np.testing.assert_allclose(
                prefs.normalized_demand(cd, p), prefs.normalized_demand(mult_c1c2, p), rtol=1e-14
            )


class TestQuasiConvexity:
    def test_indirect_utility_on_random_segments(self, cd, ces73, rng):
        for spec in (cd, ces73):
            for _ in range(1000):
                p1 = log_uniform(rng, 2)
                p2 = log_uniform(rng, 2)
                t = float(rng.uniform(0.0, 1.0))
                mid = prefs.indirect_utility_normalized(spec, t * p1 + (1 - t) * p2)
                cap = max(
                    prefs.indirect_utility_normalized(spec, p1),
                    prefs.indirect_utility_normalized(spec, p2),
                )
                assert mid <= cap + 1e-9
