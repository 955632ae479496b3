from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from edgeworth.prefs import UtilitySpec


@pytest.fixture
def cd() -> UtilitySpec:
    return UtilitySpec.cobb_douglas_log([0.5, 0.5])


@pytest.fixture
def ces() -> UtilitySpec:
    return UtilitySpec.ces([0.5, 0.5], 0.5)


@pytest.fixture
def ces73() -> UtilitySpec:
    return UtilitySpec.ces([0.7, 0.3], 0.5)


@pytest.fixture
def mult_c1c2() -> UtilitySpec:
    """The u(c) = c1*c2 representation used throughout the worked examples."""
    return UtilitySpec.multiplicative([1.0, 1.0])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
