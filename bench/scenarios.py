"""Scenario documents for the generic-path workloads, generated from a seed.

The economies are fixed so that every seed asks for the same kind of work;
the seed sets the engine's master seed and the tabulated prior densities.
All scenarios use the bundled engine block (``max_steps`` 500,
``pareto_tol`` 1e-8) and CES households with elasticity 0.5.
"""

from __future__ import annotations

import random

BUNDLED_SCENARIOS = ("example4_sticky", "example5_uniform", "example5_maxspeed")
GENERIC_SCENARIOS = ("2x2_tabulated", "3x2_arc", "4x3_tabulated")

SIGMA = 0.5
MAX_STEPS = 500
PARETO_TOL = 1e-8

# Households of acceptance criterion 9's 2x2 and 4x3 economies; the 4x3
# endowments are that criterion's draws, rounded.
ECON_2X2 = ([[0.5, 0.5], [0.7, 0.3]], [[2.0, 1.0], [1.0, 2.0]])
ECON_3X2 = ([[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]], [[2.0, 1.0], [1.0, 2.0], [1.5, 0.5]])
ECON_4X3 = (
    [[0.2, 0.3, 0.5], [0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.4, 0.2, 0.4]],
    [
        [1.5263, 1.5325, 1.0215],
        [0.7431, 0.5388, 0.8507],
        [0.8808, 0.5324, 0.5350],
        [1.9977, 1.2352, 0.6921],
    ],
)


def log_grid(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]


def _densities(rng: random.Random, n: int) -> list[float]:
    return [rng.uniform(0.5, 1.5) for _ in range(n)]


def _scenario(econ, q_prior: dict, s_prior: str, runs: int, seed: int) -> dict:
    weights, endowments = econ
    households = [
        {
            "label": f"h{k + 1}",
            "utility": {"family": "ces", "weights": w, "sigma": SIGMA},
            "endowment": e,
        }
        for k, (w, e) in enumerate(zip(weights, endowments))
    ]
    return {
        "economy": {"households": households},
        "prior": {"q_prior": q_prior, "s_prior": {"kind": s_prior}},
        "engine": {
            "runs": runs,
            "max_steps": MAX_STEPS,
            "pareto_tol": PARETO_TOL,
            "master_seed": seed,
        },
    }


def generic(seed: int) -> dict[str, dict]:
    """2x2 with a 200-atom tabulated prior and 3x2 with the uniform-arc prior
    (both L = 2), and 4x3 with a 14x14 log-spaced tabulated prior (L = 3)."""
    rng = random.Random(f"generic/{seed}")
    grid = log_grid(0.25, 4.0, 200)
    tab_l2 = {"kind": "tabulated", "grid": grid, "densities": _densities(rng, len(grid))}
    axis = log_grid(0.25, 4.0, 14)
    grid = [[a, b] for a in axis for b in axis]
    tab_l3 = {"kind": "tabulated", "grid": grid, "densities": _densities(rng, len(grid))}
    docs = (
        _scenario(ECON_2X2, tab_l2, "uniform_cube", 15, seed),
        _scenario(ECON_3X2, {"kind": "uniform_arc"}, "uniform_cube", 15, seed),
        _scenario(ECON_4X3, tab_l3, "uniform_cube", 8, seed),
    )
    return dict(zip(GENERIC_SCENARIOS, docs))


GENERATORS = {"generic": generic}
