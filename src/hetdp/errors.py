"""Empirical, theoretical and centralized mean squared errors, plus intervals.

The empirical error (EMSE) averages squared deviations of fresh private
releases from the true statistic. The theoretical error (TMSE) evaluates the
closed-form per-release error on the exact noise of the paired release, so
the two are comparable trial by trial. `error_reports` scores one cell at
every budget (epsilon) of a list: arithmetic on the cell's unit normals and
the noise scales `stage_sigmas` calibrated for those budgets. `error_report`
draws, calibrates and scores one cell at the one budget passed beside its
config. Only the dispersion and Q TMSE read the sample, through one
projection onto the unit mean-stage normals. The centralized error (CMSE) is
the squared single draw a centralized release would add after aggregation:
each trial's shared unit scalar scaled by sqrt(d) times the full-budget
sigma, whatever the statistic.

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
    UnitNormals,
    i_squared_release,
    project,
    release_noise,
    stage_sigmas,
    tmse_kernel,
    true_value,
    unit_normals,
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
        raise ValueError(f"q values must be positive, got true={q_true!r}, noisy={q_noisy!r}")
    gap = i2_noise - (n - 1) / q_noisy + (n - 1) / q_true
    return gap**2 / n


def ci_half_width(statistic: Statistic, n: int, weights, mean_noise_var: float) -> float:
    """Half-width of the 95% interval around a private release.

    Dispersion: 7.84 * sqrt(6) * mean_noise_var^2 / sqrt(n). Q: that term
    scaled by each weight and summed over rows, so at unit weights Q's
    half-width is n times the dispersion's. I^2:
    sum_i 0.625 (n-1) / (w_i sqrt(n) mean_noise_var^2); zero noise
    degenerates to a zero width. Can exceed 1 at small n; reported unclamped.
    The dispersion ignores `weights`.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mean_noise_var < 0:
        raise ValueError(f"variance must be nonnegative, got {mean_noise_var!r}")
    if statistic is Statistic.DISPERSION:
        return DISPERSION_CI_CONSTANT * mean_noise_var**2 / math.sqrt(n)
    weights = np.asarray(weights, dtype=np.float64)
    if statistic is Statistic.Q:
        return float((DISPERSION_CI_CONSTANT * weights * mean_noise_var**2 / math.sqrt(n)).sum())
    if mean_noise_var == 0.0:
        return 0.0
    return float(
        (I_SQUARED_CI_CONSTANT * (n - 1) / (weights * math.sqrt(n) * mean_noise_var**2)).sum()
    )


def trial_normals(statistic: Statistic, cfg: EstimatorConfig, d: int, trials: int) -> UnitNormals:
    """Unit normals of `trials` releases, trial t seeded by derive_seed(cfg.seed, t)."""
    return unit_normals(statistic, cfg, d, [derive_seed(cfg.seed, t) for t in range(trials)])


def error_reports(
    statistic: Statistic, data: VectorDataset, ctx: MeasureContext, normals: UnitNormals,
    projected: np.ndarray | None, sigmas: np.ndarray,
) -> list[ErrorReport]:
    """Monte Carlo error summary of one cell at each budget, all trials at once.

    Trial t's noise is row t of `normals` scaled by each budget's row of
    stage_sigmas' `sigmas`. `projected` is project(data, mean-stage columns
    of `normals`), None for I^2, which reads none. A release's EMSE is its
    squared noise; its TMSE is scored on its own draws; its CMSE is
    (sqrt(d) sigma_full z_t)^2, sigma_full the last column of `sigmas`.
    """
    noise = release_noise(statistic, data, ctx, normals, sigmas)
    if statistic is Statistic.I_SQUARED:
        q_true = true_value(Statistic.Q, data, ctx)
        q_noisy = q_true + noise
        i2_noise = sigmas[:, 2, None] * normals.stages[:, 2 * data.d]
        released = i_squared_release(q_noisy, data.n, i2_noise)
        emse = (released - true_value(statistic, data, ctx)) ** 2 / data.n
        tmse = tmse_i_squared(data.n, q_true, q_noisy, i2_noise)
    else:
        emse, tmse = noise**2, tmse_kernel(statistic, data, ctx, normals, projected, sigmas)
    cmse = (math.sqrt(data.d) * sigmas[:, -1, None] * normals.central) ** 2
    return [
        ErrorReport(
            emse=float(emse[b].mean()),
            tmse=float(tmse[b].mean()),
            cmse=float(cmse[b].mean()),
            sd_emse=float(emse[b].std()),
            sd_tmse=float(tmse[b].std()),
            trials=len(normals.central),
            ci_half_width=ci_half_width(statistic, data.n, ctx.weights, float(sigma) ** 2),
        )
        for b, sigma in enumerate(sigmas[:, 0])
    ]


def error_report(
    statistic: Statistic, data: VectorDataset, ctx: MeasureContext, cfg: EstimatorConfig,
    budget: PrivacyBudget, trials: int,
) -> ErrorReport:
    """Error summary of one cell at `budget`: trial t scales the unit
    normals of derive_seed(cfg.seed, t) by the budget's calibrated sigmas."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    sigmas = stage_sigmas(statistic, data, cfg, [budget], {})
    normals = trial_normals(statistic, cfg, data.d, trials)
    units = normals.stages[:, : data.d]
    projected = None if statistic is Statistic.I_SQUARED else project(data, units)
    return error_reports(statistic, data, ctx, normals, projected, sigmas)[0]
