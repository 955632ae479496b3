"""The input rules: every count, every real and every rate vector that a public door takes.

A count is a Python or numpy integer, never a bool, in its closed range; a
real is a Python or numpy int or float, never a bool or a string, strictly
inside its open interval.  Each door refuses anything else with one
:class:`SpecificationError` message form, and stores the converted value.
Rates against the last good come as a vector of L - 1 finite positive
entries or as a stack of such vectors, and each rate door refuses anything
else in the one form of ``prefs._as_rates``.  Every other refusal of a
shape, a household count or a state raises its own class with one whole
message.
"""

from __future__ import annotations

import math
import types
import warnings

import numpy as np
import pytest

from edgeworth import engine, geometry, prefs, trade, verify
from edgeworth.engine import ArctanNormal, PriorSpec, SimConfig, Terminal, UniformArc
from edgeworth.errors import DomainDegeneracyError, EdgeworthError, SamplingError, SpecificationError
from edgeworth.prefs import Family, UtilitySpec
from edgeworth.trade import Allocation, BoxSet, Economy, SpeedPrior, SpeedVector

CD = UtilitySpec.cobb_douglas_log([0.5, 0.5])
CES3 = UtilitySpec.ces([0.2, 0.5, 0.3], 0.5)
ECONOMY = Economy.of([CD, CD])
SHOCK = Allocation(np.array([[2.0, 1.0], [1.0, 2.0]]))
PRIOR = PriorSpec(UniformArc(), SpeedPrior.MAX_SPEED)


def _config(**kw) -> SimConfig:
    return SimConfig(ECONOMY, SHOCK, PRIOR, **{"master_seed": 1, "runs": 2, "max_steps": 5, **kw})


CFG = _config()
KEY = "from 0 to 2**64 - 1"
ATTRACTIVE = (CES3, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])


def _summarize(bins):
    return engine.summarize(np.ones((3, 2, 2)), np.ones((3, 1)), [1, 1, 1], [Terminal.STEP_CAP] * 3, bins=bins)


#: door: (call, what, range text, values out of range, a numpy value in range, the field that stores it)
COUNTS = {
    "SimConfig.runs": (lambda v: _config(runs=v), "runs", "of at least 1", (0,), np.int64(3), "runs"),
    "SimConfig.max_steps": (
        lambda v: _config(max_steps=v), "max_steps", "from 1 to 2**53", (2**53 + 1,), np.int64(4), "max_steps"
    ),
    "SimConfig.master_seed": (
        lambda v: _config(master_seed=v), "master seed", KEY, (-1,), np.uint64(2**64 - 1), "master_seed"
    ),
    "run_rng.master_seed": (lambda v: engine.run_rng(v, 0), "master seed", KEY, (2**64,), np.int64(7), None),
    "run_rng.run_index": (lambda v: engine.run_rng(1, v), "run index", KEY, (-1,), np.int64(7), None),
    "run_trajectory.run_index": (
        lambda v: engine.run_trajectory(CFG, v), "run index", KEY, (2**64,), np.int64(1), None
    ),
    "run_monte_carlo.bins": (
        lambda v: engine.run_monte_carlo(CFG, bins=v), "bins", "from 1 to 1000000", (0,), np.int64(3), None
    ),
    # no value refused here may start a process
    "run_monte_carlo.workers": (
        lambda v: engine.run_monte_carlo(CFG, workers=v), "workers", "of at least 1", (0, -1), np.int64(1), None
    ),
    "summarize.bins": (_summarize, "bins", "from 1 to 1000000", (10**6 + 1,), np.int64(3), None),
    "example3_process.runs": (
        lambda v: engine.example3_process(engine.run_rng(1, 0), v), "runs", "of at least 1", (0,), np.int64(5), None
    ),
    "identity_suite.draws": (lambda v: verify.identity_suite(CD, v), "draws", "of at least 1", (0,), np.int64(2), None),
    "jacobian_suite.draws": (
        lambda v: verify.jacobian_suite(CD, v), "draws", "of at least 1", (-5,), np.int64(2), None
    ),
    "attraction_suite.draws": (
        lambda v: verify.attraction_suite(ECONOMY, v), "draws", "of at least 1", (0,), np.int64(2), None
    ),
    "contract_curve_2x2.grid_size": (
        lambda v: geometry.contract_curve_2x2((CD, CD), [3.0, 3.0], v), "grid_size", "of at least 1", (0,),
        np.int64(2), None,
    ),
    "check_attractive.i": (
        lambda v: prefs.check_attractive(*ATTRACTIVE, v, 0), "goods index i", "from 0 to 2", (3,), np.int64(2), None
    ),
    "check_attractive.j": (
        lambda v: prefs.check_attractive(*ATTRACTIVE, 0, v), "goods index j", "from 0 to 2", (-1,), np.int64(1), None
    ),
}

REALS = {
    "SimConfig.pareto_tol": (
        lambda v: _config(pareto_tol=v), "pareto_tol", "(0, inf)", (0.0,), np.float64(1e-6), "pareto_tol"
    ),
    "sntp_step.pareto_tol": (
        lambda v: engine.sntp_step(ECONOMY, SHOCK, PRIOR, engine.run_rng(1, 0), v),
        "pareto_tol", "(0, inf)", (-1.0,), np.float64(1e-6), None,
    ),
    "ArctanNormal.center_rate": (
        lambda v: ArctanNormal(v, 0.1), "center_rate", "(0, inf)", (0,), np.float64(1.5), "center_rate"
    ),
    "ArctanNormal.sigma_angle": (
        lambda v: ArctanNormal(1.0, v), "sigma_angle", "(0, inf)", (math.inf,), np.float64(0.1), "sigma_angle"
    ),
    "UtilitySpec.elasticity": (
        lambda v: UtilitySpec.ces([0.5, 0.5], v), "elasticity", "(0, 1)", (1.0,), np.float64(0.5), "elasticity"
    ),
    "UtilitySpec.exponent": (
        lambda v: UtilitySpec(Family.COBB_DOUGLAS_LOG, np.array([0.5, 0.5]), exponent=v),
        "exponent", "(0, inf)", (10**400,), np.float64(2.0), "exponent",  # an int no float holds
    ),
    "FlatPoint.u": (
        lambda v: geometry.FlatPoint([1.0], v), "utility coordinate", "(-inf, inf)", (math.nan,), np.float64(-3.0), "u"
    ),
    # the level is read as a real before the family's range (UnreachableUtilityError) is tested
    "hicksian_demand.target_u": (
        lambda v: prefs.hicksian_demand(CD, [1.0, 1.0], v), "utility level", "(-inf, inf)", (math.nan,),
        np.float64(0.5), None,
    ),
    "expenditure.target_u": (
        lambda v: prefs.expenditure(CD, [1.0, 1.0], v), "utility level", "(-inf, inf)", (math.inf,),
        np.float64(-0.5), None,
    ),
    "omega_contains.slack": (
        lambda v: geometry.omega_contains(CD, [1.0, 1.0], [1.0, 1.0], v), "slack", "[0, inf)", (-5.0, -0.5),
        np.float64(0.0), None,  # zero slack is exact membership
    ),
    "gamma_contains.slack": (
        lambda v: geometry.gamma_contains(CD, [1.0, 1.0], geometry.FlatPoint([1.0], 0.0), v), "slack", "[0, inf)",
        (-5.0, math.nan), 0, None,
    ),
}

# SimConfig's rows hold runs=2.5, max_steps=2.5, runs=True and pareto_tol="x": each
# used to construct and fail later inside the runs, run once, or raise TypeError
DOORS = [(name, int, row) for name, row in COUNTS.items()] + [(name, float, row) for name, row in REALS.items()]


@pytest.mark.parametrize("kind, row", [door[1:] for door in DOORS], ids=[door[0] for door in DOORS])
def test_scalar_door_has_one_rule(kind, row):
    call, what, span, out, accepted, field = row
    if kind is int:
        refused, form = (2.5, True, "3", *out), f"{what} must be an integer {span}, got {{!r}}"
    else:
        refused, form = (True, "3", "x", *out), f"{what} must be a number in {span}, got {{!r}}"
    for value in refused:
        with pytest.raises(SpecificationError) as info:
            call(value)
        assert str(info.value) == form.format(value)
    result = call(accepted)
    if field is not None:
        stored = getattr(result, field)
        assert type(stored) is kind and stored == accepted


# a duck-typed flat point: its q skips FlatPoint's own check, so the door's rule answers
def _flat(q):
    return types.SimpleNamespace(q=q, u=0.0)


BOX = trade.msr_extremes(ECONOMY, SHOCK)

#: case: (a refused vector, a refused stack), at L = 2
RATE_CASES = {
    "wrong_length": ([1.0, 2.0], [[1.0, 2.0]]),
    "three_axes": (np.ones((1, 1, 1)), np.ones((2, 1, 1))),
    "nan": ([math.nan], [[1.0], [math.nan]]),
    "inf": ([math.inf], [[math.inf]]),
    "minus_inf": ([-math.inf], [[1.0], [-math.inf]]),
    "zero": ([0.0], [[0.0]]),
    "negative": ([-1.0], [[2.0], [-1.0]]),
    "ragged": ([1.0, [2.0]], [[1.0], [1.0, 2.0]]),
    "string": ("x", "x"),
}
ONE_AXIS = ("wrong_length", "nan", "inf", "minus_inf", "zero", "negative")

#: door: (call on q, whether it reads a stack, the cases it refuses in that form)
RATES = {
    "k_c": (lambda q: geometry.k_c(CD, [1.0, 2.0], q), False, RATE_CASES),
    "sample_pareto": (lambda q: geometry.sample_pareto([CD, CD], q, [0.1, 0.2]), False, RATE_CASES),
    "unflatten": (lambda q: geometry.unflatten(CD, _flat(q)), False, RATE_CASES),
    "gamma_contains": (lambda q: geometry.gamma_contains(CD, [1.0, 1.0], _flat(q)), False, RATE_CASES),
    "d_map": (lambda q: geometry.d_map(CD, _flat(q)), False, RATE_CASES),
    "sample_manifold": (
        lambda q: geometry.sample_manifold(CD, geometry.ManifoldKind.OFFER, [1.0, 1.0], q), True, RATE_CASES
    ),
    # box_contains reads a q of one axis as a vector and any other as a stack
    "box_contains.vector": (lambda q: trade.box_contains(BOX, q), False, ONE_AXIS),
    "box_contains.stack": (lambda q: trade.box_contains(BOX, q), True, RATE_CASES),
}


@pytest.mark.parametrize("call, stack, cases", RATES.values(), ids=RATES.keys())
def test_rate_door_has_one_rule(call, stack, cases):
    form = "a stack of vectors" if stack else "a vector"
    for case in cases:
        value = RATE_CASES[case][stack]
        with pytest.raises(SpecificationError) as info:
            call(value)
        got = " ".join(repr(value).split())  # the message's one line
        assert str(info.value) == f"q must be {form} of L - 1 = 1 finite positive rates, got {got}"
    for value in (np.empty((0, 1)), np.array([[1.5], [0.5]])) if stack else (np.array([1.5]),):
        call(value)


def test_rate_doors_read_the_whole_shape():
    # sample_manifold once reshaped these grids into two points; d_map said "expected 2 goods, got 3"
    with pytest.raises(SpecificationError) as info:
        geometry.sample_manifold(CES3, geometry.ManifoldKind.OFFER, [1.0, 1.0, 1.0], np.ones((2, 2, 1)))
    form = "q must be a stack of vectors of L - 1 = 2 finite positive rates, got array([[[1.], [1.]], [[1.], [1.]]])"
    assert str(info.value) == form
    with pytest.raises(SpecificationError) as info:
        geometry.d_map(CD, geometry.FlatPoint([1.0, 2.0], 0.0))
    assert str(info.value) == "q must be a vector of L - 1 = 1 finite positive rates, got array([1., 2.])"


def test_d_map_refuses_a_rate_below_the_floor_before_the_core():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the core overflows on such a rate
        with pytest.raises(DomainDegeneracyError, match="^rates degenerated below the positive floor$"):
            geometry.d_map(CD, geometry.FlatPoint([1e-310], 0.0))


CES3B = UtilitySpec.ces([0.4, 0.3, 0.3], 0.5)
STATE3 = Allocation(np.array([[1.1, 0.9, 1.3], [0.8, 1.4, 0.7]]))


def _tabulated(grid) -> PriorSpec:
    grid = np.asarray(grid, dtype=np.float64)
    return PriorSpec(engine.Tabulated(grid, np.ones(len(grid))), SpeedPrior.UNIFORM_CUBE)


#: door: a call on (economy, state, prior)
GRID_DOORS = {
    "SimConfig": lambda e, y, prior: SimConfig(e, y, prior, master_seed=1),
    "draw_price": lambda e, y, prior: engine.draw_price(e, y, prior, engine.run_rng(1, 0)),
    "sntp_step": lambda e, y, prior: engine.sntp_step(e, y, prior, engine.run_rng(1, 0)),
}


@pytest.mark.dispatch
@pytest.mark.parametrize("call", GRID_DOORS.values(), ids=GRID_DOORS.keys())
def test_grid_width_door_has_one_rule(call):
    # draw_price and sntp_step once passed a one-rate grid on three goods to
    # box_contains, which refused it as "q must be a stack of vectors ..."
    refused = {
        "L - 1 = 2 rates, got 1": (Economy.of([CES3, CES3B]), STATE3, _tabulated([[1.0], [2.0]])),
        "L - 1 = 1 rates, got 2": (ECONOMY, SHOCK, _tabulated([[1.0, 1.0], [0.8, 1.2]])),
    }
    for rule, args in refused.items():
        with pytest.raises(SpecificationError) as info:
            call(*args)
        assert str(info.value) == f"tabulated price grid rows must have {rule}"
    call(ECONOMY, SHOCK, _tabulated(np.geomspace(0.25, 4.0, 200)[:, None]))


#: both households sit at their supporting prices (1, 1): rates agree, no one trades
FLAT = Allocation(np.array([[1.0, 1.0], [2.0, 2.0]]))
THREE = Economy.of([CD, CD, CD])
THREE_STATE = Allocation(np.array([[2.0, 1.0], [1.0, 2.0], [1.0, 1.0]]))

#: refusal: (call, error class, the whole message)
REFUSALS = {
    "Tabulated.empty_grid": (
        lambda: engine.Tabulated([], []), SpecificationError,
        "tabulated grid must be a nonempty sequence of rate vectors",
    ),
    "Tabulated.densities_per_point": (
        lambda: engine.Tabulated([1.0, 2.0], [1.0]), SpecificationError, "one density per grid point is required"
    ),
    "PriorSpec.q_prior": (
        lambda: PriorSpec("uniform_arc", SpeedPrior.MAX_SPEED), SpecificationError, "unsupported price prior"
    ),
    "SimConfig.initial_shape": (
        lambda: SimConfig(ECONOMY, THREE_STATE, PRIOR, master_seed=1), SpecificationError,
        "initial allocation does not match the economy",
    ),
    "draw_price.pareto_state": (
        lambda: engine.draw_price(ECONOMY, FLAT, PRIOR, engine.run_rng(1, 0)), SpecificationError,
        "cannot draw trade prices at a Pareto-optimal state",
    ),
    "Allocation.vector": (
        lambda: Allocation(np.ones(3)), SpecificationError, "an allocation is an H x L matrix, H, L >= 2"
    ),
    "SpeedVector.matrix": (lambda: SpeedVector(np.ones((2, 2))), SpecificationError, "speeds must form a vector"),
    "BoxSet.shapes": (
        lambda: BoxSet(np.ones((2, 2)), np.ones((3, 3))), SpecificationError,
        "rate bounds must be square matrices of equal shape",
    ),
    "BoxSet.order": (
        lambda: BoxSet(np.array([[1.0, 2.0], [0.5, 1.0]]), np.ones((2, 2))), SpecificationError,
        "lower rate bound exceeds upper bound",
    ),
    "trade_interval_2x2.households": (
        lambda: trade.trade_interval_2x2(THREE, THREE_STATE), SpecificationError,
        "trade_interval_2x2 requires H = L = 2",
    ),
    "sample_speed.no_trader": (
        lambda: trade.sample_speed(ECONOMY, FLAT, [1.0, 1.0], SpeedPrior.UNIFORM_CUBE, engine.run_rng(1, 0)),
        SamplingError, "fewer than two households can trade at these prices",
    ),
    "sample_pareto.levels": (
        lambda: geometry.sample_pareto((CD, CD), 1.0, [0.0]), SpecificationError,
        "one utility level per household is required",
    ),
    "walras_equilibrium_2x2.households": (
        lambda: geometry.walras_equilibrium_2x2((CD, CD, CD), THREE_STATE), SpecificationError,
        "walras_equilibrium_2x2 requires H = L = 2",
    ),
    "UtilitySpec.one_weight": (
        lambda: UtilitySpec.cobb_douglas_log([1.0]), SpecificationError, "weights must be a vector of length >= 2"
    ),
    "welfare_suite.households": (
        lambda: verify.welfare_suite(SimConfig(THREE, THREE_STATE, PRIOR, master_seed=1)), SpecificationError,
        "welfare suite is specified for 2x2 economies",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_has_one_class_and_message(call, error, message):
    with pytest.raises(EdgeworthError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
