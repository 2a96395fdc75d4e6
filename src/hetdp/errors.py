"""Empirical, theoretical and centralized mean squared errors, plus intervals.

The empirical error (EMSE) averages squared deviations of fresh private
releases from the true statistic. The theoretical error (TMSE) evaluates the
closed-form per-release error using the exact recorded noise draws of the
paired release, so the two are comparable trial by trial. The centralized
error (CMSE) is the squared single draw a centralized release would add after
aggregation, and does not depend on which statistic is released.

The heterogeneity-fraction EMSE is normalized per client (divided by n): its
closed-form counterpart carries a 1/n factor, and the ratio check between the
two is only meaningful on a common scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from hetdp.estimators import (
    EstimatorConfig,
    NoiseDraw,
    Statistic,
    centralized_noisy,
    draw_noise,
    i_squared_release,
    release_kernel,
    true_value,
)
from hetdp.gaussian import SensitivitySpec
from hetdp.measures import MeasureContext, VectorDataset, build_context

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
        raise ValueError(f"q values must be positive, got true={q_true!r}, noisy={q_noisy!r}")
    gap = i2_noise - (n - 1) / q_noisy + (n - 1) / q_true
    return gap**2 / n


def ci_dispersion(d_noisy: float, n: int, mean_noise_var: float) -> tuple[float, float]:
    """95% interval around a private dispersion.

    Half-width = 7.84 * sqrt(6) * mean_noise_var^2 / sqrt(n).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mean_noise_var < 0:
        raise ValueError(f"variance must be nonnegative, got {mean_noise_var!r}")
    half = DISPERSION_CI_CONSTANT * mean_noise_var**2 / math.sqrt(n)
    return d_noisy - half, d_noisy + half


def ci_q(
    q_noisy: float, n: int, weights: np.ndarray, mean_noise_var: float
) -> tuple[float, float]:
    """95% interval around a private Q: the dispersion half-width scaled by
    each weight and summed over rows."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    weights = np.asarray(weights, dtype=np.float64)
    half = float(
        (DISPERSION_CI_CONSTANT * weights * mean_noise_var**2 / math.sqrt(n)).sum()
    )
    return q_noisy - half, q_noisy + half


def ci_i_squared(
    i2_noisy: float, n: int, weights: np.ndarray, mean_noise_var: float
) -> tuple[float, float]:
    """95% interval around a private heterogeneity fraction.

    Half-width = sum_i 0.625 (n-1) / (w_i sqrt(n) mean_noise_var^2); zero
    noise degenerates to a zero-width interval. Can exceed 1 at small n;
    reported unclamped.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mean_noise_var == 0.0:
        return i2_noisy, i2_noisy
    weights = np.asarray(weights, dtype=np.float64)
    half = float(
        (I_SQUARED_CI_CONSTANT * (n - 1) / (weights * math.sqrt(n) * mean_noise_var**2)).sum()
    )
    return i2_noisy - half, i2_noisy + half


def error_report(
    statistic: Statistic,
    data: VectorDataset,
    cfg: EstimatorConfig,
    trials: int,
    ctx: MeasureContext | None = None,
    memo: dict | None = None,
) -> ErrorReport:
    """Monte Carlo error summary over fresh private releases, all trials at once.

    Trial t draws its release from derive_seed(cfg.seed, t) and is scored
    twice: empirically against the true value and theoretically from its
    own recorded draws (the mean squared row shift of the release kernel).
    The centralized error uses the full (not split) budget, so it is
    identical across statistics for a fixed seed. `memo` shares calibrated
    noise scales across calls; by default each call calibrates its own.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if ctx is None:
        ctx = build_context(data)
    memo = {} if memo is None else memo
    seeds = [derive_seed(cfg.seed, t) for t in range(trials)]
    draws = draw_noise(statistic, data, cfg, seeds, memo)
    values, shifts = release_kernel(statistic, data, ctx, draws)
    truth = true_value(statistic, data, ctx)
    if statistic is Statistic.I_SQUARED:
        released = i_squared_release(values, data.n, draws.i2_noise)
        emse_vals = (released - truth) ** 2 / data.n
        q_true = true_value(Statistic.Q, data, ctx)
        tmse_vals = tmse_i_squared(data.n, q_true, values, draws.i2_noise)
    else:
        emse_vals = (values - truth) ** 2
        shifts += np.atleast_2d(draws.stat_noise).sum(axis=1)
        tmse_vals = (shifts * shifts).mean(axis=0)

    shape = SensitivitySpec.from_shape(data.n, data.d)
    full_part = (cfg.budget.epsilon, cfg.budget.delta)
    cmse_vals = np.array(
        [centralized_noisy(0.0, full_part, shape, replace(cfg, seed=s), memo)[0] for s in seeds]
    ) ** 2
    return ErrorReport(
        emse=float(emse_vals.mean()),
        tmse=float(tmse_vals.mean()),
        cmse=float(cmse_vals.mean()),
        sd_emse=float(emse_vals.std()),
        sd_tmse=float(tmse_vals.std()),
        trials=trials,
        ci_half_width=_ci_half_width(statistic, data, ctx, draws),
    )


def _ci_half_width(
    statistic: Statistic,
    data: VectorDataset,
    ctx: MeasureContext,
    draws: NoiseDraw,
) -> float:
    var1 = draws.mean_noise_var
    if statistic is Statistic.DISPERSION:
        lo, hi = ci_dispersion(0.0, data.n, var1)
    elif statistic is Statistic.Q:
        lo, hi = ci_q(0.0, data.n, ctx.weights, var1)
    else:
        lo, hi = ci_i_squared(0.0, data.n, ctx.weights, var1)
    return hi
