"""Empirical, theoretical and centralized mean squared errors, plus intervals.

The empirical error (EMSE) averages squared deviations of fresh private
releases from the true statistic. The theoretical error (TMSE) evaluates the
closed-form per-release error on the exact noise of the paired release, so
the two are comparable trial by trial. `error_reports` scores one cell at
every budget (epsilon) of a list in one release call; `error_report` is its
one-budget case. Only the dispersion and Q TMSE read the sample, through one
projection onto the unit mean-stage normals that a caller may pass in. The
centralized error (CMSE) is the squared single draw a centralized release
would add after aggregation: each trial's shared unit scalar scaled by
sqrt(d) times the full-budget sigma, whatever the statistic.

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
    Statistic,
    UnitNormals,
    i_squared_release,
    project,
    release_noise,
    release_sigma,
    tmse_kernel,
    true_value,
    unit_normals,
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


def centralized_errors(
    data: VectorDataset, cfg: EstimatorConfig, normals: UnitNormals, memo: dict | None = None
) -> np.ndarray:
    """Per-trial squared error (sqrt(d) * sigma_full * z_t)^2 of a centralized
    single-draw release: the trial's shared scalar z_t at the variance of the
    coordinate-summed noise under the full budget, whatever the statistic."""
    sens = SensitivitySpec.from_shape(data.n, data.d)
    full = (cfg.budget.epsilon, cfg.budget.delta)
    sigma = 0.0 if cfg.zero_noise else release_sigma(cfg.mechanism, sens, *full, memo)
    scalar_sigma = math.sqrt(data.d) * sigma
    return (scalar_sigma * normals.central) ** 2


def error_reports(
    statistic: Statistic, data: VectorDataset, cfg: EstimatorConfig, budgets, trials: int,
    ctx: MeasureContext | None = None, memo: dict | None = None,
    normals: UnitNormals | None = None, projected: np.ndarray | None = None,
) -> list[ErrorReport]:
    """Monte Carlo error summary of one cell at each budget, all trials at once.

    `cfg` fixes the mechanism, setting and seed; each of `budgets` replaces
    its budget. Trial t scales the unit normals of derive_seed(cfg.seed, t)
    by the stage sigmas of every budget; pass `normals` when that block is
    already drawn, as a plan cell does once for all its profiles and
    epsilons, and `projected`, project(data, mean-stage columns of
    `normals`), when a plan has made it for all cells of a profile at once
    (I^2 reads none). A release's EMSE is its squared noise; its TMSE is
    scored on its own draws. `memo` is a dict of calibrated noise scales to
    share across calls.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if ctx is None:
        ctx = build_context(data)
    memo = {} if memo is None else memo
    if normals is None:
        normals = trial_normals(statistic, cfg, data.d, trials)
    elif normals.central.shape != (trials,):
        raise ValueError(f"unit normals hold {len(normals.central)} trials, not {trials}")
    noise, sigmas = release_noise(statistic, data, ctx, cfg, budgets, normals, memo)
    if statistic is Statistic.I_SQUARED:
        q_true = true_value(Statistic.Q, data, ctx)
        q_noisy = q_true + noise
        i2_noise = np.array([s[2] for s in sigmas])[:, None] * normals.stages[:, 2 * data.d]
        released = i_squared_release(q_noisy, data.n, i2_noise)
        emse = (released - true_value(statistic, data, ctx)) ** 2 / data.n
        tmse = tmse_i_squared(data.n, q_true, q_noisy, i2_noise)
    else:
        if projected is None:
            projected = project(data, normals.stages[:, : data.d])
        emse, tmse = noise**2, tmse_kernel(statistic, data, ctx, normals, projected, sigmas)
    reports = []
    for b, budget in enumerate(budgets):
        cmse = centralized_errors(data, replace(cfg, budget=budget), normals, memo)
        reports.append(ErrorReport(
            emse=float(emse[b].mean()),
            tmse=float(tmse[b].mean()),
            cmse=float(cmse.mean()),
            sd_emse=float(emse[b].std()),
            sd_tmse=float(tmse[b].std()),
            trials=trials,
            ci_half_width=ci_half_width(statistic, data.n, ctx.weights, sigmas[b][0] ** 2),
        ))
    return reports


def error_report(
    statistic: Statistic, data: VectorDataset, cfg: EstimatorConfig, trials: int,
    ctx: MeasureContext | None = None, memo: dict | None = None,
    normals: UnitNormals | None = None, projected: np.ndarray | None = None,
) -> ErrorReport:
    """error_reports at the one budget of `cfg`."""
    budgets = [cfg.budget]
    return error_reports(statistic, data, cfg, budgets, trials, ctx, memo, normals, projected)[0]
