"""(epsilon, delta)-private releases of the heterogeneity statistics.

Each estimator splits its privacy budget over its stages (one part per noisy
release), calibrates a Gaussian scale per stage with the configured
mechanism, and records the exact noise realizations so the closed-form error
analysis can reuse them.

Noise enters in one of two settings. In the distributed setting every client
adds a share of variance n * stage_variance before plain summation (simulated
secure aggregation); the averaged shares are exactly N(0, stage_variance) per
coordinate, so that aggregate is drawn directly. In the centralized setting
one draw of the stage variance is added after aggregation. The two settings
have the same noise distribution; the setting is mixed into the random
stream, so they draw different realizations at the same seed.

A stage's noise is its sigma times unit normals drawn in the order mean,
statistic, I^2: `unit_normals` draws a block once and `scale_normals` scales
it, so every budget reuses the same array (common random numbers). Dispersion
is Q with unit weights around the arithmetic mean, so one weighted kernel
evaluates both, batched over trials: with mean noise e = sigma z and
statistic noise s a release is Q + mean(w)||e||^2 - 2 e.mean(w dev) + sum(s).
Its one pass over the n x d sample, `project` (X @ Z.T for unit mean-stage
normals Z), depends on neither sigma nor the center, so one projection of a
sample serves every cell and budget; `release_kernel` does O(n T) work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from hetdp.gaussian import Mechanism, PrivacyBudget, SensitivitySpec, agm_sigma, cgm_sigma
from hetdp.measures import (
    MeasureContext,
    VectorDataset,
    dispersion,
    i_squared,
    q_statistic,
)


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


class DegenerateStatisticError(RuntimeError):
    """A noisy intermediate left the statistic's domain (e.g. noisy Q <= 0)."""


@dataclass(frozen=True)
class NoiseDraw:
    """Exact noise realizations of one release, or of T stacked trials.

    mean_noise is the aggregate vector added to the (weighted) mean,
    stat_noise the vector added to the statistic before coordinate-summing,
    i2_noise the scalar added to the clamped heterogeneity fraction. A batch
    holds (T, d) vectors and T scalars, one trial per row. The *_var fields
    hold the calibrated per-stage variances.
    """

    mean_noise: np.ndarray | None = None
    stat_noise: np.ndarray | None = None
    i2_noise: float | np.ndarray | None = None
    mean_noise_var: float = 0.0
    stat_noise_var: float = 0.0
    i2_noise_var: float = 0.0


@dataclass(frozen=True)
class EstimatorConfig:
    """Mechanism, noise setting, budget and seed of one estimator run."""

    mechanism: Mechanism
    setting: Setting
    budget: PrivacyBudget
    seed: int
    zero_noise: bool = False


def release_sigma(
    mechanism: Mechanism,
    sens: SensitivitySpec,
    epsilon: float,
    delta: float,
    memo: dict | None = None,
) -> float:
    """Noise scale of one release under the chosen mechanism.

    With `memo`, each (mechanism, sensitivity, epsilon, delta) key is
    calibrated once and then read back from the dict.
    """
    key = (mechanism, sens.delta_l2, epsilon, delta)
    if memo is not None and key in memo:
        return memo[key]
    calibrate = cgm_sigma if mechanism is Mechanism.CLASSICAL else agm_sigma
    sigma = calibrate(sens, epsilon, delta).sigma
    if memo is not None:
        memo[key] = sigma
    return sigma


def _require_parts(statistic: Statistic, cfg: EstimatorConfig) -> int:
    parts = statistic.budget_parts
    if len(cfg.budget.split) != parts:
        raise ValueError(
            f"{statistic.value} needs a {parts}-part budget split, got "
            f"{len(cfg.budget.split)} parts"
        )
    return parts


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


def stage_sigmas(data: VectorDataset, cfg: EstimatorConfig, memo: dict | None = None) -> list:
    """Calibrated noise scale of each budget part, all 0.0 under zero noise."""
    sens = SensitivitySpec.from_shape(data.n, data.d)
    return [
        0.0 if cfg.zero_noise else release_sigma(cfg.mechanism, sens, eps_i, delta_i, memo)
        for eps_i, delta_i in cfg.budget.split
    ]


def project(data: VectorDataset, units: np.ndarray) -> np.ndarray:
    """X @ units.T (n x T), the one pass over the sample a batch of releases makes."""
    return data.vectors @ units.T


def scale_normals(
    statistic: Statistic,
    data: VectorDataset,
    cfg: EstimatorConfig,
    normals: UnitNormals,
    memo: dict | None = None,
) -> NoiseDraw:
    """Stage noise of T releases, one trial per row: each stage's calibrated
    sigma times its columns of `normals`. Generator.normal(0, sigma, k) is
    sigma * standard_normal(k) bit for bit, so this equals drawing each stage
    at its own scale."""
    parts = _require_parts(statistic, cfg)
    d, z = data.d, normals.stages
    if z.shape[1] != 2 * d + parts - 2:
        raise ValueError(f"unit normals of width {z.shape[1]} do not fit {statistic.value}, d={d}")
    sigmas = stage_sigmas(data, cfg, memo)
    return NoiseDraw(
        mean_noise=sigmas[0] * z[:, :d],
        stat_noise=sigmas[1] * z[:, d : 2 * d],
        i2_noise=sigmas[2] * z[:, 2 * d] if parts == 3 else None,
        mean_noise_var=sigmas[0] ** 2,
        stat_noise_var=sigmas[1] ** 2,
        i2_noise_var=sigmas[2] ** 2 if parts == 3 else 0.0,
    )


def true_value(statistic: Statistic, data: VectorDataset, ctx: MeasureContext) -> float:
    """Noise-free counterpart of one of the three statistics.

    Reads the values build_context stored on the context; a hand-built
    context without them is evaluated directly.
    """
    if statistic is Statistic.DISPERSION:
        return ctx.dispersion if ctx.dispersion is not None else dispersion(data, 2.0)
    q_value = ctx.q_value if ctx.q_value is not None else q_statistic(data, ctx)
    if statistic is Statistic.Q:
        return q_value
    if statistic is Statistic.I_SQUARED:
        return i_squared(q_value, data.n)
    raise ValueError(f"unknown statistic {statistic!r}")


def release_kernel(
    statistic: Statistic, data: VectorDataset, ctx: MeasureContext, units: np.ndarray,
    sigma: float, projected: np.ndarray, stat_sums: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy dispersion or Q values of T releases, plus row shifts.

    Trial t's mean-stage noise is sigma * z_t, z_t row t of `units`, and
    `projected` is project(data, units). Row i of trial t moves the statistic
    by shift[i, t] = w_i (sigma^2 ||z_t||^2 - 2 sigma (projected[i, t] - center . z_t)),
    so no term is O(n d); dispersion uses unit weights around the mean. The
    value is the true statistic plus the mean shift plus `stat_sums`, each
    trial's summed statistic-stage noise. Zero noise leaves the true value bit for bit.
    """
    unweighted = statistic is Statistic.DISPERSION
    center = ctx.mean if unweighted else ctx.weighted_mean
    base = true_value(Statistic.DISPERSION if unweighted else Statistic.Q, data, ctx)
    projections = sigma * (projected - center @ units.T)
    shifts = sigma**2 * (units * units).sum(axis=1) - 2.0 * projections
    if not unweighted:
        if ctx.weights.shape != (data.n,):
            raise ValueError(f"context weights {ctx.weights.shape} do not match n={data.n}")
        if np.any(ctx.weights <= 0) or not np.all(np.isfinite(ctx.weights)):
            raise ValueError("context weights must be positive and finite")
        shifts *= ctx.weights[:, None]
    return base + shifts.mean(axis=0) + stat_sums, shifts


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


def noisy_statistic(
    statistic: Statistic,
    data: VectorDataset,
    ctx: MeasureContext,
    cfg: EstimatorConfig,
    *,
    draws: NoiseDraw | None = None,
) -> tuple[float, NoiseDraw]:
    """One private release of `statistic`: the batched kernel at T = 1.

    Dispersion and Q are two-release pipelines (mean, then statistic); I^2
    runs the Q pipeline on its first two budget parts and adds a scalar
    third-stage draw. Pass `draws` to inject a fixed noise realization; the
    kernel takes the mean-stage noise as its unit normal at scale 1.
    """
    if statistic is Statistic.I_SQUARED and data.n < 2:
        raise ValueError(f"i_squared needs n >= 2, got n={data.n}")
    if draws is None:
        normals = unit_normals(statistic, cfg, data.d, [cfg.seed])
        batch = scale_normals(statistic, data, cfg, normals)
        i2 = None if batch.i2_noise is None else float(batch.i2_noise[0])
        draws = replace(batch, mean_noise=batch.mean_noise[0], stat_noise=batch.stat_noise[0],
                        i2_noise=i2)
    else:
        _require_parts(statistic, cfg)
    if draws.mean_noise is None or draws.stat_noise is None:
        raise ValueError(f"{statistic.value} needs mean-stage and statistic-stage draws")
    units = np.atleast_2d(draws.mean_noise)
    stat_sums = np.atleast_2d(draws.stat_noise).sum(axis=1)
    values, _ = release_kernel(statistic, data, ctx, units, 1.0, project(data, units), stat_sums)
    if statistic is Statistic.I_SQUARED:
        if draws.i2_noise is None:
            raise ValueError("i_squared needs a third-stage scalar draw")
        values = i_squared_release(values, data.n, draws.i2_noise)
    return float(values[0]), draws

