"""Shared fixtures: tiny hand-checkable datasets, standard budgets, a zero-noise cell."""

import numpy as np
import pytest

from hetdp.estimators import EstimatorConfig, Setting
from hetdp.gaussian import Mechanism, PrivacyBudget
from hetdp.measures import VectorDataset


@pytest.fixture
def fix():
    """Two rows with equal within-row variance 0.0625 (weights 16 each).

    mean = weighted mean = [0.5, 0.5]; dispersion = 0.25; Q = 4; I^2 = 0.75.
    """
    return VectorDataset(np.array([[0.0, 0.5], [1.0, 0.5]]), np.array([0, 1]))


@pytest.fixture
def fix_diag():
    """Two constant rows (zero within-row variance): dispersion = 0.5."""
    return VectorDataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))


@pytest.fixture
def budget2():
    return PrivacyBudget.equal_split(1.0, 0.1, 2)


@pytest.fixture
def budget3():
    return PrivacyBudget.equal_split(1.0, 0.1, 3)


@pytest.fixture
def zero_cfg():
    return EstimatorConfig(Mechanism.ANALYTIC, Setting.DISTRIBUTED, seed=1, zero_noise=True)
