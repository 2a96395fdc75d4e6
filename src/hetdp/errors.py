"""Empirical, theoretical and centralized mean squared errors, plus intervals.

The empirical error (EMSE) averages squared deviations of fresh private
releases from the true statistic. `error_reports` scores one cell at every
budget (epsilon) of a list: arithmetic on the cell's trial draws (the error law
of `trial_draws`), the noise scales `stage_sigmas` calibrated for those budgets
and the sample's context, whose n and d it reads. It reduces the B x T (budget
x trial) error arrays row-wise, with one `ci_half_width` call for all B widths,
so each budget's report is the one-budget report bit for bit. `error_report`
checks a sample against its context, then draws, calibrates and scores one
cell at the one budget passed beside its config. The theoretical error (TMSE)
of a dispersion or Q trial is `conditional_tmse`, the expectation of the
closed-form per-release error given the trial's draws, so `tmse`/`sd_tmse` are
the mean and spread of that conditional TMSE; it reads the context's weights
and moments, never a row. The I^2 TMSE is the closed form on the trial's own
draws. Every error has the law it has on d-wide noise vectors; only the
realizations differ. The centralized error (CMSE) is the squared single draw a
centralized release would add after aggregation: each trial's unit scalar
scaled by sqrt(d) times the full-budget sigma, whatever the statistic.

The heterogeneity-fraction EMSE is normalized per client (divided by n): its
closed-form counterpart carries a 1/n factor, and the ratio check between the
two is only meaningful on a common scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hetdp.estimators import (
    EstimatorConfig,
    Statistic,
    TrialDraws,
    check_context,
    i_squared_release,
    release_noise,
    stage_sigmas,
    trial_draws,
    true_value_of,
)
from hetdp.gaussian import PrivacyBudget
from hetdp.measures import MeasureContext, VectorDataset

#: 95% interval constant for the dispersion: 1.96 times the fourth-moment
#: spread factor 4*sqrt(6) of a squared-Gaussian deviation.
DISPERSION_CI_CONSTANT = 7.84 * math.sqrt(6.0)

#: 95% interval constant for the heterogeneity fraction, 1.96*sqrt(32/315)
#: rounded as conventionally printed.
I_SQUARED_CI_CONSTANT = 0.625

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ErrorReport:
    """Error summary of one (statistic, mechanism, setting, budget) cell."""

    emse: float
    tmse: float
    cmse: float
    sd_emse: float
    sd_tmse: float
    trials: int
    ci_half_width: float


def derive_seed(base_seed: int, *path: int) -> int:
    """Stable 64-bit sub-seed addressed by a tuple of integers.

    Distinct paths give independent streams; the derivation is deterministic
    across runs and platforms.
    """
    # The path length is part of the entropy: numpy's SeedSequence ignores
    # trailing zero words, so (seed, 0) would otherwise alias (seed,).
    entropy = tuple(x & _MASK64 for x in (base_seed, len(path), *path))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def tmse_i_squared(n: int, q_true: float, q_noisy, i2_noise):
    """Closed-form squared error of the private heterogeneity fraction.

    (1/n) * [i2_noise - (n-1)/q_noisy + (n-1)/q_true]^2; valid while both
    q values are positive. q_noisy and i2_noise may be arrays of trials.
    """
    if not q_true > 0 or not np.all(np.asarray(q_noisy) > 0):
        raise ValueError(f"q values must be positive, got true={q_true!r}, "
                         f"smallest noisy={float(np.min(q_noisy))!r}")
    gap = i2_noise - (n - 1) / q_noisy + (n - 1) / q_true
    return gap**2 / n


def ci_half_width(statistic: Statistic, n: int, weights, mean_noise_var) -> float | np.ndarray:
    """Half-width of the 95% interval around a private release.

    Dispersion: 7.84 * sqrt(6) * mean_noise_var^2 / sqrt(n). Q: that term
    scaled by each weight and summed over rows, so at unit weights Q's
    half-width is n times the dispersion's. I^2:
    sum_i 0.625 (n-1) / (w_i sqrt(n) mean_noise_var^2); zero noise
    degenerates to a zero width. Can exceed 1 at small n; reported unclamped.
    The dispersion ignores `weights`. `mean_noise_var` is one variance (the
    width is a float) or an array of them (an array of widths, same shape).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    variances = np.asarray(mean_noise_var, dtype=np.float64)
    if (variances < 0).any():
        raise ValueError(f"variance must be nonnegative, got {mean_noise_var!r}")
    # Python's float power: numpy's ** 2 is x * x, which can round differently
    squares = np.array([v**2 for v in variances.ravel().tolist()]).reshape(variances.shape + (1,))
    if statistic is Statistic.DISPERSION:
        widths = DISPERSION_CI_CONSTANT * squares[..., 0] / math.sqrt(n)
    elif statistic is Statistic.Q:
        widths = (DISPERSION_CI_CONSTANT * np.asarray(weights, dtype=np.float64) * squares
                  / math.sqrt(n)).sum(axis=-1)
    else:  # zero noise divides by an infinite square: a zero width
        squares[variances == 0.0] = np.inf
        widths = (I_SQUARED_CI_CONSTANT * (n - 1)
                  / (np.asarray(weights, dtype=np.float64) * math.sqrt(n) * squares)).sum(axis=-1)
    return float(widths) if widths.ndim == 0 else widths


def conditional_tmse(
    statistic: Statistic, ctx: MeasureContext, draws: TrialDraws, sigmas: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """Closed-form errors (B x T) of the dispersion or Q releases whose
    release_noise is `noise`: each trial's expected TMSE given its draws.

    On noise vectors e = sigma_1 z and s = sigma_2 z', the TMSE is the mean
    square of the row shifts w_i (||e||^2 - 2 e.(x_i - c)) + sum(s) (unit
    weights around the mean for dispersion). Given ||z||^2 = X, z is uniform
    on its sphere, so e.(x_i - c) has mean 0 and second moment
    sigma_1^2 (X/d) ||x_i - c||^2. The expectation is the squared noise plus
    var(w) sigma_1^4 X^2 + 4 sigma_1^2 (X/d) mean(w^2 ||x_i - c||^2); both
    added terms are nonnegative, so it is never below the squared noise.
    """
    if statistic is Statistic.DISPERSION:
        spread, moment = 0.0, ctx.dispersion
    else:
        spread, moment = float(ctx.weights.var()), ctx.q_sq_weights
    variances = sigmas[:, 0, None] ** 2
    added = spread * variances**2 * draws.chi2**2 + 4.0 * moment / draws.d * variances * draws.chi2
    return noise**2 + added


def error_reports(
    statistic: Statistic, ctx: MeasureContext, draws: TrialDraws, sigmas: np.ndarray
) -> list[ErrorReport]:
    """Monte Carlo error summary of one cell at each budget, all trials at once.

    Trial t's error is its draws scaled by each budget's row of
    stage_sigmas' `sigmas`. A release's EMSE is its squared noise; its TMSE
    is conditional_tmse (I^2: tmse_i_squared on its own draws); its CMSE is
    (sqrt(d) sigma_full central_t)^2, sigma_full the last column of `sigmas`.
    """
    noise = release_noise(statistic, ctx, draws, sigmas)
    if statistic is Statistic.I_SQUARED:
        q_noisy = ctx.q_value + noise
        i2_noise = sigmas[:, 2, None] * draws.third
        released = i_squared_release(q_noisy, ctx.n, i2_noise)
        emse = (released - true_value_of(statistic, ctx)) ** 2 / ctx.n
        tmse = tmse_i_squared(ctx.n, ctx.q_value, q_noisy, i2_noise)
    else:
        emse, tmse = noise**2, conditional_tmse(statistic, ctx, draws, sigmas, noise)
    cmse = (math.sqrt(ctx.d) * sigmas[:, -1, None] * draws.central) ** 2
    variances = [s**2 for s in sigmas[:, 0].tolist()]  # Python's float power, as in ci_half_width
    widths = ci_half_width(statistic, ctx.n, ctx.weights, variances)
    errors = np.stack([emse, tmse, cmse])  # error x budget x trial
    columns = (*errors.mean(axis=2), *errors[:2].std(axis=2), widths)
    return [
        ErrorReport(*row, trials=len(draws.central), ci_half_width=width)
        for *row, width in zip(*(column.tolist() for column in columns))
    ]


def error_report(
    statistic: Statistic, data: VectorDataset, ctx: MeasureContext, cfg: EstimatorConfig,
    budget: PrivacyBudget, trials: int,
) -> ErrorReport:
    """Error summary of one cell at `budget`: the first `trials` draws of
    cfg.seed scaled by the budget's calibrated sigmas."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    check_context(data, ctx)
    sigmas = stage_sigmas(statistic, ctx, cfg, [budget], {})
    draws = trial_draws(statistic, cfg, ctx.d, trials)
    return error_reports(statistic, ctx, draws, sigmas)[0]
