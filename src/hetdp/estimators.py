"""(epsilon, delta)-private releases of the heterogeneity statistics.

Each estimator splits its privacy budget over its stages (one part per noisy
release) and calibrates a Gaussian scale per stage with the configured
mechanism. A release is its unit normals and the stage sigmas, so the
closed-form error analysis scores each trial on the exact noise it carries.

Noise enters in one of two settings. In the distributed setting every client
adds a share of variance n * stage_variance before plain summation (simulated
secure aggregation); the averaged shares are exactly N(0, stage_variance) per
coordinate, so that aggregate is drawn directly. In the centralized setting
one draw of the stage variance is added after aggregation. The two settings
have the same noise distribution; the setting is mixed into the random
stream, so they draw different realizations at the same seed.

A stage's noise is its sigma times unit normals drawn in the order mean,
statistic, I^2: `unit_normals` draws a block once and every budget scales the
same array (common random numbers). Dispersion is Q with unit weights around
the arithmetic mean, so one weighted kernel evaluates both, batched over
trials and budgets: with mean noise e = sigma z and statistic noise s a
release is Q + mean(w)||e||^2 - 2 e.mean(w dev) + sum(s). Its one pass over
the n x d sample, `project` (X @ Z.T for unit normals Z), depends on neither
sigma nor the center, so one projection serves every cell and budget;
`release_kernel` makes its sigma-free O(n T) part once and then O(n T) per
budget in one reused buffer. A single release is trial 0 of one budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from hetdp.gaussian import Mechanism, PrivacyBudget, SensitivitySpec, agm_sigma, cgm_sigma
from hetdp.measures import MeasureContext, VectorDataset, i_squared


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


def release_kernel(
    statistic: Statistic, data: VectorDataset, ctx: MeasureContext, units: np.ndarray,
    projected: np.ndarray, sigmas: np.ndarray, stat_sums: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Noisy dispersion or Q values of T releases at each of B budgets, plus
    their closed-form errors, both B x T.

    At budget b trial t's mean-stage noise is sigmas[b] z_t, z_t row t of
    `units`; `projected` is project(data, units). With
    P = projected - center @ units.T, row i moves the statistic by
    shift[i, t] = w_i (sigma^2 ||z_t||^2 - 2 sigma P[i, t]) + stat_sums[b, t];
    dispersion uses unit weights around the mean. P, ||z_t||^2 and the weight
    checks are made once; a value adds the mean shift, read from the row means
    of w and w P, to the true statistic, and an error is the mean square of
    the shifts, formed per budget in one reused n x T buffer (none for I^2,
    scored from its values). Zero noise leaves the true value bit for bit.
    """
    unweighted = statistic is Statistic.DISPERSION
    center = ctx.mean if unweighted else ctx.weighted_mean
    base = true_value(Statistic.DISPERSION if unweighted else Statistic.Q, data, ctx)
    deviations = projected - center @ units.T
    norms = (units * units).sum(axis=1)
    if unweighted:
        mean_w, mean_wdev = 1.0, deviations.mean(axis=0)
    else:
        if ctx.weights.shape != (data.n,):
            raise ValueError(f"context weights {ctx.weights.shape} do not match n={data.n}")
        if np.any(ctx.weights <= 0) or not np.all(np.isfinite(ctx.weights)):
            raise ValueError("context weights must be positive and finite")
        mean_w, mean_wdev = ctx.weights.mean(), ctx.weights @ deviations / data.n
    column = sigmas[:, None]
    values = base + (column**2 * norms * mean_w - 2.0 * column * mean_wdev) + stat_sums
    if statistic is Statistic.I_SQUARED:
        return values, None
    errors, shifts = np.empty_like(values), np.empty_like(deviations)
    for b, sigma in enumerate(sigmas):
        np.multiply(deviations, -2.0 * sigma, out=shifts)
        shifts += sigma**2 * norms
        if not unweighted:
            shifts *= ctx.weights[:, None]
        shifts += stat_sums[b]
        errors[b] = np.einsum("it,it->t", shifts, shifts) / data.n
    return values, errors


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


def release_values(
    statistic: Statistic, data: VectorDataset, ctx: MeasureContext, cfg: EstimatorConfig,
    budgets, normals: UnitNormals, projected: np.ndarray | None = None,
    memo: dict | None = None,
) -> tuple[np.ndarray, np.ndarray | None, list]:
    """Kernel values, closed-form errors and stage sigmas of the T releases in
    `normals` at each budget (B x T arrays and one sigma list per budget);
    `cfg` gives the mechanism and setting, `budgets` replace its budget.

    Each stage's noise is its calibrated sigma times its columns of `normals`;
    Generator.normal(0, sigma, k) is sigma * standard_normal(k) bit for bit,
    so this equals drawing each stage at its own scale. `projected` is
    project(data, mean-stage columns of `normals`), made here when not passed.
    The values are noisy Q for I^2, which gets no errors.
    """
    parts = statistic.budget_parts
    for budget in budgets:
        if len(budget.split) != parts:
            raise ValueError(f"{statistic.value} needs a {parts}-part budget split, got "
                             f"{len(budget.split)} parts")
    d, z = data.d, normals.stages
    if z.shape[1] != 2 * d + parts - 2:
        raise ValueError(f"unit normals of width {z.shape[1]} do not fit {statistic.value}, d={d}")
    sigmas = [stage_sigmas(data, replace(cfg, budget=budget), memo) for budget in budgets]
    units = z[:, :d]
    if projected is None:
        projected = project(data, units)
    elif projected.shape != (data.n, len(z)):
        raise ValueError(f"projection {projected.shape} does not fit n={data.n}, {len(z)} trials")
    mean_sigmas, stat_sigmas = np.array([s[:2] for s in sigmas]).T
    stat_sums = stat_sigmas[:, None] * z[:, d : 2 * d].sum(axis=1)
    values, errors = release_kernel(statistic, data, ctx, units, projected, mean_sigmas, stat_sums)
    return values, errors, sigmas


def noisy_statistic(
    statistic: Statistic, data: VectorDataset, ctx: MeasureContext, cfg: EstimatorConfig
) -> float:
    """One private release of `statistic`: trial 0 of the batched release on
    the unit normals of cfg.seed at cfg.budget.

    Dispersion and Q are two-release pipelines (mean, then statistic); I^2
    runs the Q pipeline on its first two budget parts and adds a scalar
    third-stage draw.
    """
    if statistic is Statistic.I_SQUARED and data.n < 2:
        raise ValueError(f"i_squared needs n >= 2, got n={data.n}")
    normals = unit_normals(statistic, cfg, data.d, [cfg.seed])
    values, _, sigmas = release_values(statistic, data, ctx, cfg, [cfg.budget], normals)
    if statistic is Statistic.I_SQUARED:
        values = i_squared_release(values, data.n, sigmas[0][2] * normals.stages[0, 2 * data.d])
    return float(values[0, 0])
