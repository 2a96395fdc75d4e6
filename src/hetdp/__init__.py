"""Differentially private measures of statistical heterogeneity.

The package computes dispersion, Cochran's Q and I-squared over datasets of
bounded vectors, releases them under (epsilon, delta)-differential privacy
with classical or analytic Gaussian noise, and verifies the closed-form error
analysis (empirical vs theoretical vs centralized mean squared error,
confidence intervals) that accompanies the estimators.
"""

import types

from hetdp.datasets import (
    CANONICAL_PROFILES,
    DataFormat,
    DatasetDescriptor,
    DatasetFormatError,
    HeterogeneityProfile,
    LabelScheme,
    SampleCapacityError,
    load_dataset,
    stratified_sample,
    synthetic_dataset,
    write_cifar,
    write_idx,
)
from hetdp.errors import (
    ErrorReport,
    ci_half_width,
    derive_seed,
    error_report,
    tmse_i_squared,
)
from hetdp.estimators import (
    DegenerateStatisticError,
    EstimatorConfig,
    Setting,
    Statistic,
    noisy_statistic,
    release_sigma,
    true_value,
)
from hetdp.experiment import (
    DEFAULT_EPSILON_GRID,
    ComparisonRow,
    ExperimentPlan,
    ResultRow,
    read_result_csv,
    run_experiment,
    run_heterogeneity_comparison,
)
from hetdp.gaussian import (
    CalibrationResult,
    ConvergenceError,
    Mechanism,
    NoiseBranch,
    PrivacyBudget,
    SensitivitySpec,
    achieved_delta,
    agm_sigma,
    cgm_sigma,
    std_normal_cdf,
)
from hetdp.measures import MeasureContext, VectorDataset, build_context, i_squared

#: Every name imported above: the package's public API, listed once.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))

__version__ = "0.1.0"
