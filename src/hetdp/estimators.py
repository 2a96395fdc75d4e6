"""(epsilon, delta)-private releases of the heterogeneity statistics.

`Statistic.budget` is the one rule that splits a privacy budget over a
statistic's stages (one part per noisy release); a release takes that budget
beside its `EstimatorConfig` and calibrates a Gaussian scale per stage. A
release is its unit normals and the stage sigmas, so the closed-form error
analysis scores each trial on the exact noise it carries.

Noise enters in one of two settings. In the distributed setting every client
adds a share of variance n * stage_variance before plain summation (simulated
secure aggregation); the averaged shares are exactly N(0, stage_variance) per
coordinate, so that aggregate is drawn directly. In the centralized setting
one draw of the stage variance is added after aggregation. The two settings
have the same noise distribution; the setting is mixed into the random
stream, so they draw different realizations at the same seed.

A stage's noise is its sigma times unit normals drawn in the order mean,
statistic, I^2: `unit_normals` draws a block once and every budget scales the
same array (common random numbers). `stage_sigmas` is the only code that
turns budgets into noise scales: one row per budget, its stage sigmas and
then its full-budget sigma. A release is its true value plus
`release_noise`, arithmetic on the normals and that array that reads no row
of the sample; only the closed-form error (`tmse_kernel`) reads it, through
one projection (`project`) that serves every budget. A single release is
trial 0 of one budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from hetdp.gaussian import Mechanism, PrivacyBudget, SensitivitySpec, agm_sigma, cgm_sigma
from hetdp.measures import MeasureContext, VectorDataset, i_squared, row_blocks


class Setting(enum.Enum):
    """Where noise is injected relative to (simulated) secure aggregation."""

    DISTRIBUTED = "distributed"
    CENTRALIZED = "centralized"


#: Mixed into each release's random stream; nonzero, so no setting's stream
#: aliases the plain-seed stream of the centralized error draw.
_STREAM_TAG = {Setting.DISTRIBUTED: 1, Setting.CENTRALIZED: 2}


class Statistic(enum.Enum):
    """The heterogeneity statistics with private estimators."""

    DISPERSION = "dispersion"
    Q = "q"
    I_SQUARED = "i_squared"

    @property
    def budget_parts(self) -> int:
        return 3 if self is Statistic.I_SQUARED else 2

    def budget(self, epsilon: float, delta: float, fractions: tuple | None = None) -> PrivacyBudget:
        """The budget rule: (epsilon, delta) split equally over the stages, or by `fractions`."""
        if fractions is None:
            return PrivacyBudget.equal_split(epsilon, delta, self.budget_parts)
        if len(fractions) != self.budget_parts:
            raise ValueError(f"--budget-split has {len(fractions)} parts but {self.value} "
                             f"needs {self.budget_parts}")
        return PrivacyBudget.from_fractions(epsilon, delta, fractions)


class DegenerateStatisticError(RuntimeError):
    """A noisy intermediate left the statistic's domain (e.g. noisy Q <= 0)."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Mechanism, noise setting and seed of one estimator cell (budgets go beside it)."""

    mechanism: Mechanism
    setting: Setting
    seed: int
    zero_noise: bool = False


def release_sigma(
    mechanism: Mechanism, sens: SensitivitySpec, epsilon: float, delta: float
) -> float:
    """Noise scale of one release under the chosen mechanism."""
    calibrate = cgm_sigma if mechanism is Mechanism.CLASSICAL else agm_sigma
    return calibrate(sens, epsilon, delta).sigma


@dataclass(frozen=True)
class UnitNormals:
    """Standard normals of T trials: row t of `stages` holds trial t's mean,
    statistic and (I^2 only) third-stage draws in that order, `central[t]`
    its centralized-error scalar. No noise scale is applied yet."""

    stages: np.ndarray
    central: np.ndarray


def unit_normals(statistic: Statistic, cfg: EstimatorConfig, d: int, seeds) -> UnitNormals:
    """Unit normals of one release per seed, from the only per-trial generators:
    default_rng((seed, setting)) for the stages, default_rng(seed) for the
    centralized scalar. Zero-noise configs get zeros and build none."""
    width = 2 * d + statistic.budget_parts - 2
    stages, central = np.zeros((len(seeds), width)), np.zeros(len(seeds))
    if not cfg.zero_noise:
        tag = _STREAM_TAG[cfg.setting]
        for t, seed in enumerate(seeds):
            stages[t] = np.random.default_rng((seed, tag)).standard_normal(width)
            central[t] = np.random.default_rng(seed).standard_normal()
    return UnitNormals(stages, central)


def stage_sigmas(
    statistic: Statistic, data: VectorDataset, cfg: EstimatorConfig, budgets, memo: dict
) -> np.ndarray:
    """Noise scales (B x (parts + 1)) of each budget's stages, then of the
    whole budget (the centralized error's); all 0.0 under zero noise. `memo`
    holds each (mechanism, sensitivity, epsilon, delta) calibrated once."""
    parts = statistic.budget_parts
    for budget in budgets:
        if len(budget.split) != parts:
            raise ValueError(f"{statistic.value} needs a {parts}-part budget split, got "
                             f"{len(budget.split)} parts")
    sens = SensitivitySpec.from_shape(data.n, data.d)
    sigmas = np.zeros((len(budgets), parts + 1))
    if cfg.zero_noise:
        return sigmas
    for b, budget in enumerate(budgets):
        for k, (epsilon, delta) in enumerate((*budget.split, (budget.epsilon, budget.delta))):
            key = (cfg.mechanism, sens.delta_l2, epsilon, delta)
            if key not in memo:
                memo[key] = release_sigma(cfg.mechanism, sens, epsilon, delta)
            sigmas[b, k] = memo[key]
    return sigmas


def project(data: VectorDataset, units: np.ndarray) -> np.ndarray:
    """X @ units.T (n x T), the one pass over the sample the TMSE of a batch
    makes: (rows @ units.T) / scale, one product per row block."""
    projected = np.empty((data.n, len(units)))
    for span, block in row_blocks(data, whole_floats=True):
        np.matmul(block, units.T, out=projected[span])
    projected /= data.scale
    return projected


def true_value(statistic: Statistic, data: VectorDataset, ctx: MeasureContext) -> float:
    """Noise-free counterpart of one of the three statistics, read from the
    values build_context stored on `ctx`."""
    if statistic is Statistic.DISPERSION:
        return ctx.dispersion
    if statistic is Statistic.Q:
        return ctx.q_value
    if statistic is Statistic.I_SQUARED:
        return i_squared(ctx.q_value, data.n)
    raise ValueError(f"unknown statistic {statistic!r}")


def _stage_terms(z: np.ndarray, d: int, sigmas: np.ndarray):
    """Each budget's mean-stage sigma, each trial's ||z_t||^2, and the B x T sigma_2 sum(z'_t)."""
    units = z[:, :d]
    stat_sums = sigmas[:, 1, None] * z[:, d : 2 * d].sum(axis=1)
    return sigmas[:, 0], (units * units).sum(axis=1), stat_sums


def tmse_kernel(
    statistic: Statistic, data: VectorDataset, ctx: MeasureContext, normals: UnitNormals,
    projected: np.ndarray, sigmas: np.ndarray,
) -> np.ndarray:
    """Closed-form errors (B x T) of the dispersion or Q releases in `normals`
    at each budget of stage_sigmas' `sigmas`; `projected` is project(data,
    units), units the mean-stage columns of `normals`.

    With P = projected - center @ units.T, row i moves trial t's statistic by
    shift[i, t] = w_i (sigma^2 ||z_t||^2 - 2 sigma P[i, t]) + stat_sums[b, t]
    (unit weights around the mean for dispersion). An error is the mean square
    of the shifts, formed per budget in one reused n x T buffer: expanding the
    squares into moments of P would cancel digits.
    """
    d, z = data.d, normals.stages
    if projected.shape != (data.n, len(z)):
        raise ValueError(f"projection {projected.shape} does not fit n={data.n}, {len(z)} trials")
    unweighted = statistic is Statistic.DISPERSION
    center = ctx.mean if unweighted else ctx.weighted_mean
    deviations = projected - center @ z[:, :d].T
    mean_sigmas, norms, stat_sums = _stage_terms(z, d, sigmas)
    errors, shifts = np.empty(stat_sums.shape), np.empty_like(deviations)
    for b, sigma in enumerate(mean_sigmas):
        np.multiply(deviations, -2.0 * sigma, out=shifts)
        shifts += sigma**2 * norms
        if not unweighted:
            shifts *= ctx.weights[:, None]
        shifts += stat_sums[b]
        errors[b] = np.einsum("it,it->t", shifts, shifts) / data.n
    return errors


def i_squared_release(q_values: np.ndarray, n: int, i2_noise) -> np.ndarray:
    """Clamp 1 - (n-1)/noisy_q into [0, 1], then add the third-stage draw.

    The final value is deliberately not re-clamped.

    Raises:
        DegenerateStatisticError: if a noisy Q is nonpositive.
    """
    if np.any(q_values <= 0.0):
        raise DegenerateStatisticError(
            f"noisy q is {float(np.min(q_values))!r}; the heterogeneity fraction "
            "is undefined for a nonpositive q"
        )
    return np.maximum(0.0, 1.0 - (n - 1) / q_values) + i2_noise


def release_noise(
    statistic: Statistic, data: VectorDataset, ctx: MeasureContext, normals: UnitNormals,
    sigmas: np.ndarray,
) -> np.ndarray:
    """Noise (B x T) of the T releases in `normals` at each budget of
    stage_sigmas' `sigmas`. I^2 gets the noise of its Q stage.

    With mean-stage noise e = sigma_1 z and statistic noise s = sigma_2 z', a
    release minus its true dispersion or Q is exactly mean(w)||e||^2 + sum(s)
    (mean(w) = 1 for dispersion): the cross term -2 e.mean(w dev) vanishes,
    since weighted deviations from the weighted mean sum to zero.
    Generator.normal(0, sigma, k) is sigma * standard_normal(k) bit for bit,
    so this equals drawing each stage at its own scale.
    """
    d, z = data.d, normals.stages
    if z.shape[1] != 2 * d + statistic.budget_parts - 2:
        raise ValueError(f"unit normals of width {z.shape[1]} do not fit {statistic.value}, d={d}")
    if ctx.weights.shape != (data.n,):
        raise ValueError(f"context weights {ctx.weights.shape} do not match n={data.n}")
    if np.any(ctx.weights <= 0) or not np.all(np.isfinite(ctx.weights)):
        raise ValueError("context weights must be positive and finite")
    mean_w = 1.0 if statistic is Statistic.DISPERSION else ctx.weights.mean()
    mean_sigmas, norms, stat_sums = _stage_terms(z, d, sigmas)
    return mean_sigmas[:, None] ** 2 * norms * mean_w + stat_sums


def noisy_statistic(
    statistic: Statistic, data: VectorDataset, ctx: MeasureContext, cfg: EstimatorConfig,
    budget: PrivacyBudget,
) -> float:
    """One private release of `statistic`: trial 0 of the batched release on
    the unit normals of cfg.seed at `budget`.

    Dispersion and Q are two-release pipelines (mean, then statistic); I^2
    runs the Q pipeline on its first two budget parts and adds a scalar
    third-stage draw.
    """
    if statistic is Statistic.I_SQUARED and data.n < 2:
        raise ValueError(f"i_squared needs n >= 2, got n={data.n}")
    sigmas = stage_sigmas(statistic, data, cfg, [budget], {})
    normals = unit_normals(statistic, cfg, data.d, [cfg.seed])
    noise = release_noise(statistic, data, ctx, normals, sigmas)
    if statistic is not Statistic.I_SQUARED:
        return float(true_value(statistic, data, ctx) + noise[0, 0])
    q_noisy = true_value(Statistic.Q, data, ctx) + noise[0]
    i2_noise = sigmas[0, 2] * normals.stages[:, 2 * data.d]
    return float(i_squared_release(q_noisy, data.n, i2_noise)[0])
