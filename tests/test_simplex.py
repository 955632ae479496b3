from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from edgeworth import _hitrun, _simplex
from edgeworth.errors import LPError

import oracles

pytestmark = pytest.mark.dispatch


def test_matches_scipy_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        G = rng.normal(size=(m, n))
        h = rng.uniform(0.0, 2.0, size=m)
        c = rng.normal(size=n)
        G = np.vstack([G, np.eye(n)])  # box the problem so it is bounded
        h = np.concatenate([h, np.ones(n)])
        x, value = _simplex.maximize(c, G, h)
        ref = linprog(-c, A_ub=G, b_ub=h, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert value == pytest.approx(-ref.fun, abs=1e-9)
        assert np.all(G @ x <= h + 1e-9)
        assert np.all(x >= -1e-12)


def test_degenerate_rhs_terminates():
    # many zero rows force degenerate pivots; Bland's rule must still finish
    G = np.array(
        [
            [1.0, 1.0],
            [-1.0, -1.0],
            [1.0, -1.0],
            [-1.0, 1.0],
            [1.0, 0.0],
            [0.0, 1.0],
        ]
    )
    h = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    x, value = _simplex.maximize(np.array([1.0, 1.0]), G, h)
    assert value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(x, 0.0, atol=1e-12)


def test_equality_band_instance():
    # the has_trade shape: |a . x| <= eps, 0 <= x <= 1, maximize norms
    a = np.array([[0.5, -0.25]])
    eps = 1e-11
    G = np.vstack([a, -a, np.eye(2)])
    h = np.concatenate([[eps, eps], np.ones(2)])
    x, value = _simplex.maximize(np.array([1.0, 1.0]), G, h)
    assert value == pytest.approx(1.5, abs=1e-6)
    assert abs(float(a[0] @ x)) <= eps * 1.001


def test_unbounded_raises():
    with pytest.raises(LPError):
        _simplex.maximize(np.array([1.0]), np.array([[-1.0]]), np.array([1.0]))


def test_negative_rhs_rejected():
    with pytest.raises(LPError):
        _simplex.maximize(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))


def _random_boxed(rng):
    m, n, k = int(rng.integers(1, 8)), int(rng.integers(1, 8)), int(rng.integers(1, 9))
    G = np.vstack([rng.normal(size=(m, n)), np.eye(n)])
    h = np.concatenate([rng.uniform(0.0, 2.0, size=m), np.ones(n)])
    return rng.normal(size=(k, n)), G, h


def _degenerate_boxed(rng):
    # zero right-hand sides and every row twice: ratio tests tie, so pivots
    # reach Bland's tie-break
    c, G, h = _random_boxed(rng)
    h[: len(h) - G.shape[1] : 2] = 0.0
    return c, np.vstack([G, G]), np.concatenate([h, h])


def _speed_polytope(rng):
    # the hit-and-run probe shape: norms, then directions in the null space of
    # D^T and their negations, over the tolerance-relaxed polytope
    households, goods = int(rng.integers(3, 6)), int(rng.integers(2, 4))
    prices = rng.uniform(0.5, 2.0, goods)
    dirs = rng.normal(size=(households, goods))
    dirs -= np.outer(dirs @ prices / (prices @ prices), prices)  # Walras: d . p = 0
    null_basis = _hitrun._null_space(dirs.T, goods - 1)
    probes = null_basis @ rng.normal(size=(null_basis.shape[1], 3))
    return np.vstack([np.linalg.norm(dirs, axis=1), probes.T, -probes.T]), *_hitrun.polytope(dirs)


@pytest.mark.parametrize("draw", [_random_boxed, _degenerate_boxed, _speed_polytope])
def test_stacked_rows_are_their_solo_solves(draw):
    """Each row of a stacked solve, and the one-objective form, give the bytes
    of ``oracles.reference_maximize``, which runs its ratio test on arrays."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        c, G, h = draw(rng)
        xs, values = _simplex.maximize(c, G, h)
        solo = [oracles.reference_maximize(ck, G, h) for ck in c]
        assert [(x.tobytes(), float(v).hex()) for x, v in zip(xs, values)] == [
            (x.tobytes(), v.hex()) for x, v in solo
        ]
        x, value = _simplex.maximize(c[0], G, h)
        assert (x.tobytes(), value.hex()) == (solo[0][0].tobytes(), solo[0][1].hex())


def test_stack_shape_is_checked():
    G, h = np.eye(2), np.ones(2)
    with pytest.raises(LPError, match="inconsistent LP dimensions"):
        _simplex.maximize(np.ones((2, 3)), G, h)
    with pytest.raises(LPError, match="inconsistent LP dimensions"):
        _simplex.maximize(np.ones((1, 1, 2)), G, h)
