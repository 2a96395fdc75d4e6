"""(epsilon, delta)-private releases of the heterogeneity statistics.

`Statistic.budget` is the one rule that splits a privacy budget over a
statistic's stages (one part per noisy release); a release takes that budget
beside its `EstimatorConfig` and calibrates a Gaussian scale per stage. A
release is its draws and the stage sigmas, so the error analysis scores
each trial on the exact error it carries.

Noise enters in one of two settings. In the distributed setting every client
adds a share of variance n * stage_variance before plain summation (simulated
secure aggregation); the averaged shares are exactly N(0, stage_variance) per
coordinate, so that aggregate is drawn directly. In the centralized setting
one draw of the stage variance is added after aggregation. The two settings
have the same noise distribution; the setting is mixed into the random
streams, so they draw different realizations at the same seed.

A trial draws the law of its error, not d-wide noise. With mean-stage
noise e = sigma_1 z and statistic noise s = sigma_2 z' (z, z' standard
normal d-vectors), a release minus its true dispersion or Q is exactly
m sigma_1^2 ||z||^2 + sigma_2 sum(z') (m = mean(w), 1 for dispersion). So a
trial needs X = ||z||^2 ~ chi^2_d and S = sum(z') ~ N(0, d), plus the I^2
third-stage unit normal and the centralized-error scalar: `trial_draws`
draws T of each once per cell, and every budget scales the same vectors
(common random numbers). `stage_sigmas` is the only code that turns budgets
into noise scales: one row per budget, its stage sigmas and then its
full-budget sigma. It alone decides zero noise: a zero-noise cell draws as
usual and gets all-zero sigma rows. A release is its true value plus `release_noise`,
arithmetic on the draws, that array and the sample's context, never a row. A
call given a sample beside its context checks the pair once (`check_context`).
A single release is trial 0 of its cell. Q and I^2 of fewer than two rows have
a true value (0.0, `true_value_of`) but no release: `release_noise` rejects them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from hetdp.gaussian import Mechanism, PrivacyBudget, SensitivitySpec, agm_sigma, cgm_sigma
from hetdp.measures import MeasureContext, VectorDataset, i_squared


class Setting(enum.Enum):
    """Where noise is injected relative to (simulated) secure aggregation."""

    DISTRIBUTED = "distributed"
    CENTRALIZED = "centralized"


#: Mixed into each cell's random streams; nonzero, so no setting's streams
#: alias the plain-seed stream of the centralized error draw.
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
class TrialDraws:
    """The unscaled error law of T trials of a cell: chi2[t] ~ chi^2_d stands
    for ||z_t||^2 of the mean-stage unit normals, sums[t] ~ N(0, d) for the
    sum of the statistic-stage ones, third[t] is the I^2 third-stage unit
    normal (None for the other statistics) and central[t] the centralized
    error's."""

    d: int
    chi2: np.ndarray
    sums: np.ndarray
    third: np.ndarray | None
    central: np.ndarray


def trial_draws(statistic: Statistic, cfg: EstimatorConfig, d: int, trials: int) -> TrialDraws:
    """The draws of `trials` releases at cfg.seed. X, S and the third-stage
    normal each come from one child of SeedSequence((seed, setting tag)),
    the centralized scalar from default_rng(seed). Each generator fills its
    vector in order, so trial t is the same at any trial count above t.
    Zero-noise configs draw the same; stage_sigmas gives them zero scales."""
    third = statistic is Statistic.I_SQUARED
    children = np.random.SeedSequence((cfg.seed, _STREAM_TAG[cfg.setting])).spawn(3)
    chi2_rng, sums_rng, third_rng = (np.random.default_rng(child) for child in children)
    return TrialDraws(
        d=d,
        chi2=chi2_rng.chisquare(d, trials),
        sums=math.sqrt(d) * sums_rng.standard_normal(trials),
        third=third_rng.standard_normal(trials) if third else None,
        central=np.random.default_rng(cfg.seed).standard_normal(trials),
    )


def stage_sigmas(
    statistic: Statistic, ctx: MeasureContext, cfg: EstimatorConfig, budgets, memo: dict
) -> np.ndarray:
    """Noise scales (B x (parts + 1)) of each budget's stages, then of the
    whole budget (the centralized error's); all 0.0 under zero noise, the
    one place zero noise is decided: every error scaled by them is exactly
    +0.0. `memo` holds each (mechanism, sensitivity, epsilon, delta)
    calibrated once."""
    parts = statistic.budget_parts
    for budget in budgets:
        if len(budget.split) != parts:
            raise ValueError(f"{statistic.value} needs a {parts}-part budget split, got "
                             f"{len(budget.split)} parts")
    sens = SensitivitySpec.from_shape(ctx.n, ctx.d)
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


def check_context(data: VectorDataset, ctx: MeasureContext) -> None:
    """The one check of a call given a sample beside its context: the pair's n and d agree."""
    if ctx.weights.shape != (data.n,) or ctx.mean.shape != (data.d,):
        raise ValueError(f"context weights {ctx.weights.shape} and mean {ctx.mean.shape} "
                         f"do not match n={data.n}, d={data.d}")


def true_value(statistic: Statistic, data: VectorDataset, ctx: MeasureContext) -> float:
    """true_value_of(statistic, ctx), once `ctx` is checked to be the context of `data`."""
    check_context(data, ctx)
    return true_value_of(statistic, ctx)


def true_value_of(statistic: Statistic, ctx: MeasureContext) -> float:
    """Noise-free counterpart of one of the three statistics, read from the
    values build_context stored on `ctx`. I^2 of fewer than two rows reads
    0.0 (no private release of it exists: release_noise rejects it)."""
    if statistic is Statistic.DISPERSION:
        return ctx.dispersion
    if statistic is Statistic.Q:
        return ctx.q_value
    if statistic is Statistic.I_SQUARED:
        return i_squared(ctx.q_value, ctx.n) if ctx.n >= 2 else 0.0
    raise ValueError(f"unknown statistic {statistic!r}")


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
    statistic: Statistic, ctx: MeasureContext, draws: TrialDraws, sigmas: np.ndarray
) -> np.ndarray:
    """Noise (B x T) of the T releases in `draws` at each budget of
    stage_sigmas' `sigmas`: m sigma_1^2 X + sigma_2 S, for I^2 that of its Q
    stage. Q and I^2 need n >= 2: the one check of releases and error reports.

    With mean-stage noise e = sigma_1 z and statistic noise s = sigma_2 z', a
    release minus its true dispersion or Q is exactly mean(w)||e||^2 + sum(s)
    (mean(w) = 1 for dispersion): the cross term -2 e.mean(w dev) vanishes,
    since weighted deviations from the weighted mean sum to zero.
    """
    if draws.d != ctx.d or (draws.third is not None) != (statistic is Statistic.I_SQUARED):
        raise ValueError(f"draws of d={draws.d} do not fit {statistic.value}, d={ctx.d}")
    if statistic is not Statistic.DISPERSION and ctx.n < 2:
        raise ValueError(f"{statistic.value} needs n >= 2, got n={ctx.n}")
    if np.any(ctx.weights <= 0) or not np.all(np.isfinite(ctx.weights)):
        raise ValueError("context weights must be positive and finite")
    mean_w = 1.0 if statistic is Statistic.DISPERSION else ctx.weights.mean()
    return sigmas[:, 0, None] ** 2 * mean_w * draws.chi2 + sigmas[:, 1, None] * draws.sums


def noisy_statistic(
    statistic: Statistic, data: VectorDataset, ctx: MeasureContext, cfg: EstimatorConfig,
    budget: PrivacyBudget,
) -> float:
    """One private release of `statistic`: trial 0 of the batched release on
    the draws of cfg.seed at `budget`.

    Dispersion and Q are two-release pipelines (mean, then statistic); I^2
    runs the Q pipeline on its first two budget parts and adds a scalar
    third-stage draw.
    """
    check_context(data, ctx)
    sigmas = stage_sigmas(statistic, ctx, cfg, [budget], {})
    draws = trial_draws(statistic, cfg, ctx.d, 1)
    noise = release_noise(statistic, ctx, draws, sigmas)
    if statistic is not Statistic.I_SQUARED:
        return float(true_value_of(statistic, ctx) + noise[0, 0])
    q_noisy = ctx.q_value + noise[0]
    return float(i_squared_release(q_noisy, ctx.n, sigmas[0, 2] * draws.third)[0])
