"""Stochastic non-tatonnement trade simulation for pure-exchange economies.

The package is organized around five layers:

- :mod:`edgeworth.prefs`: closed-form Cobb-Douglas / CES demand systems and
  the sharpness/attractiveness predicates, all on one ``UtilitySpec`` type
  (``UtilitySpec.multiplicative`` writes ``prod_i c_i^b_i`` as the log
  family with a level exponent).
- :mod:`edgeworth.geometry`: the demand and flattening coordinate changes,
  canonical manifolds, Pareto-set parameterization, contract curve, and the
  2x2 Walras equilibrium.
- :mod:`edgeworth.trade`: linear trade paths, speed polytopes,
  trade-compatible price sets, and extreme-rate box sets.
- :mod:`edgeworth.engine`: the Monte Carlo process over priced barter steps,
  with reproducible per-run random streams.
- :mod:`edgeworth.verify`: randomized numeric falsification suites backing
  the ``edgeworth verify`` command.
"""

from .engine import (
    ArctanNormal,
    OutcomeDistribution,
    PriorSpec,
    SimConfig,
    Tabulated,
    Terminal,
    Trajectory,
    UniformArc,
    example3_process,
    run_monte_carlo,
    run_trajectory,
)
from .errors import (
    ConvergenceError,
    DomainDegeneracyError,
    EdgeworthError,
    SamplingError,
    ScenarioError,
    SpecificationError,
    UnreachableUtilityError,
)
from .geometry import FlatPoint, ManifoldKind, ManifoldSample, ParetoPoint
from .prefs import Family, UtilitySpec
from .trade import Allocation, BoxSet, Economy, SpeedPrior

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "ArctanNormal",
    "BoxSet",
    "ConvergenceError",
    "DomainDegeneracyError",
    "Economy",
    "EdgeworthError",
    "Family",
    "FlatPoint",
    "ManifoldKind",
    "ManifoldSample",
    "OutcomeDistribution",
    "ParetoPoint",
    "PriorSpec",
    "SamplingError",
    "ScenarioError",
    "SimConfig",
    "SpecificationError",
    "SpeedPrior",
    "Tabulated",
    "Terminal",
    "Trajectory",
    "UniformArc",
    "UnreachableUtilityError",
    "UtilitySpec",
    "example3_process",
    "run_monte_carlo",
    "run_trajectory",
]
