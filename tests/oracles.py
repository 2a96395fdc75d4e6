"""Direct forms of the private releases, their errors, and dataset sampling.

These are the straightforward O(n*d)-per-trial evaluations the data-free
release noise and the closed-form TMSE replace; the d-wide trial path the
scalar error-law draws replace: per-trial generators of 2d unit normals
(`unit_normals`, addressed by derive_seed(seed, t) in `trial_normals`),
their projection onto the sample (`project`) and the per-trial TMSE kernel
on it (`tmse_kernel`), with the stage noise vectors those normals scale to;
the 2d-point sphere design that averages the direct TMSE over the direction
of the mean-stage noise (`axis_draws`); the decode-everything-then-index
loading that sampling stored image bytes replaces, and the whole-matrix
context passes (one n x d temporary each) that the row-blocked passes
replace, the subtract/square/sum squared deviations of byte rows that the
exact-split byte Q pass replaces, the synthetic generator and image writers
built from whole-matrix expressions and per-record writes, which in-place
generation and row-blocked quantisation replace, and the analytic calibration with one
root finder per branch, which the branch-parameterized finder replaces. The
suite keeps them as reference oracles and asserts that the fast forms agree
with them, exactly or in law. The closing helpers (within-vector variance,
the branch-parameterized privacy slack, the variance oracles) serve only the
suite's identity checks.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hetdp import datasets
from hetdp.datasets import (
    CIFAR100_RECORD,
    CIFAR10_RECORD,
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    CifarVariant,
    DataFormat,
    DatasetDescriptor,
    HeterogeneityProfile,
    _allocate,
    synthetic_dataset,
)
from hetdp.errors import derive_seed, error_report
from hetdp.estimators import (
    EstimatorConfig,
    Setting,
    Statistic,
    TrialDraws,
    i_squared_release,
    release_noise,
    release_sigma,
    stage_sigmas,
    true_value,
)
from hetdp import gaussian
from hetdp.gaussian import (
    _MAX_SOLVER_STEPS,
    CalibrationResult,
    ConvergenceError,
    Mechanism,
    NoiseBranch,
    PrivacyBudget,
    SensitivitySpec,
    _alpha_high_noise,
    _alpha_low_noise,
    std_normal_cdf,
)
from hetdp.measures import VARIANCE_FLOOR, MeasureContext, VectorDataset, build_context, row_blocks


@dataclass(frozen=True)
class StageDraws:
    """Scaled noise of one release, or of T stacked trials.

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


def share_aggregate(dim: int, sigma: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Simulated secure aggregation: the mean of n client shares, each with
    standard deviation sqrt(n) * sigma, so the aggregate has variance sigma^2."""
    if sigma == 0.0:
        return np.zeros(dim)
    shares = rng.normal(0.0, math.sqrt(n) * sigma, size=(n, dim))
    return shares.mean(axis=0)


def noisy_mean(
    data: VectorDataset, cfg: EstimatorConfig, budget: PrivacyBudget, *,
    draws: StageDraws | None = None,
) -> tuple[np.ndarray, StageDraws]:
    """Private mean: true mean plus one calibrated aggregate noise vector,
    on the first budget part; distributed noise is simulated share by share."""
    if not budget.split:
        raise ValueError("budget split is empty")
    if draws is None:
        sigma = 0.0
        if not cfg.zero_noise:
            epsilon_i, delta_i = budget.split[0]
            sens = SensitivitySpec.from_shape(data.n, data.d)
            sigma = release_sigma(cfg.mechanism, sens, epsilon_i, delta_i)
        rng = np.random.default_rng(cfg.seed)
        n = data.n if cfg.setting is Setting.DISTRIBUTED else 1
        noise = share_aggregate(data.d, sigma, n, rng)
        draws = StageDraws(mean_noise=noise, mean_noise_var=sigma**2)
    elif draws.mean_noise is None:
        raise ValueError("injected draws lack a mean-stage vector")
    return data.vectors.mean(axis=0) + draws.mean_noise, draws


#: The setting tags of each release's stream, (seed, tag).
STREAM_TAG = {Setting.DISTRIBUTED: 1, Setting.CENTRALIZED: 2}


@dataclass(frozen=True)
class UnitNormals:
    """Standard normals of T trials: row t of `stages` holds trial t's mean,
    statistic and (I^2 only) third-stage draws in that order, `central[t]`
    its centralized-error scalar. No noise scale is applied yet."""

    stages: np.ndarray
    central: np.ndarray


def unit_normals(statistic: Statistic, cfg: EstimatorConfig, d: int, seeds) -> UnitNormals:
    """Unit normals of one release per seed, from per-trial generators:
    default_rng((seed, setting)) for the stages, default_rng(seed) for the
    centralized scalar. Zero-noise configs get zeros and build none."""
    width = 2 * d + statistic.budget_parts - 2
    stages, central = np.zeros((len(seeds), width)), np.zeros(len(seeds))
    if not cfg.zero_noise:
        tag = STREAM_TAG[cfg.setting]
        for t, seed in enumerate(seeds):
            stages[t] = np.random.default_rng((seed, tag)).standard_normal(width)
            central[t] = np.random.default_rng(seed).standard_normal()
    return UnitNormals(stages, central)


def trial_normals(statistic: Statistic, cfg: EstimatorConfig, d: int, trials: int) -> UnitNormals:
    """Unit normals of `trials` releases, trial t seeded by derive_seed(cfg.seed, t)."""
    return unit_normals(statistic, cfg, d, [derive_seed(cfg.seed, t) for t in range(trials)])


def law_draws(statistic: Statistic, normals: UnitNormals, d: int) -> TrialDraws:
    """The library's draws that d-wide unit normals stand for: X = ||z||^2 of
    the mean-stage columns, S = sum(z') of the statistic-stage ones, and the
    third-stage and centralized normals as they are."""
    z = normals.stages
    third = z[:, 2 * d] if statistic is Statistic.I_SQUARED else None
    return TrialDraws(d, (z[:, :d] ** 2).sum(axis=1), z[:, d : 2 * d].sum(axis=1), third,
                      normals.central)


def project(data: VectorDataset, units: np.ndarray) -> np.ndarray:
    """X @ units.T (n x T), one product per row block of the sample:
    (rows @ units.T) / scale."""
    projected = np.empty((data.n, len(units)))
    for span, block in row_blocks(data, whole_floats=True):
        np.matmul(block, units.T, out=projected[span])
    projected /= data.scale
    return projected


def tmse_kernel(
    statistic: Statistic, data: VectorDataset, ctx: MeasureContext, normals: UnitNormals,
    projected: np.ndarray, sigmas: np.ndarray,
) -> np.ndarray:
    """Per-trial TMSE (B x T) of the dispersion or Q releases on d-wide
    `normals` at each budget of stage_sigmas' `sigmas`; `projected` is
    project(data, mean-stage columns of `normals`).

    With P = projected - center @ units.T, row i moves trial t's statistic by
    shift[i, t] = w_i (sigma^2 ||z_t||^2 - 2 sigma P[i, t]) + stat_sums[b, t]
    (unit weights around the mean for dispersion). An error is the mean
    square of the shifts, formed per budget in one reused n x T buffer.
    """
    d, z = data.d, normals.stages
    unweighted = statistic is Statistic.DISPERSION
    center = ctx.mean if unweighted else ctx.weighted_mean
    deviations = projected - center @ z[:, :d].T
    norms = (z[:, :d] ** 2).sum(axis=1)
    stat_sums = sigmas[:, 1, None] * z[:, d : 2 * d].sum(axis=1)
    errors, shifts = np.empty(stat_sums.shape), np.empty_like(deviations)
    for b, sigma in enumerate(sigmas[:, 0]):
        np.multiply(deviations, -2.0 * sigma, out=shifts)
        shifts += sigma**2 * norms
        if not unweighted:
            shifts *= ctx.weights[:, None]
        shifts += stat_sums[b]
        errors[b] = np.einsum("it,it->t", shifts, shifts) / data.n
    return errors


def axis_draws(draws: TrialDraws, t: int, sigmas: np.ndarray) -> StageDraws:
    """The 2d scaled draws, one per row, that trial t of `draws` stands for
    at one budget's row of stage_sigmas: mean-stage vectors
    +-sigma_1 sqrt(X_t) e_k, statistic noise sigma_2 S_t / d per coordinate,
    I^2 noise sigma_3 third_t. These are the vertices of a cross-polytope, a
    spherical 3-design, and the per-trial TMSE is a polynomial of degree 2
    in the direction of the mean-stage noise, so averaging the direct TMSE
    over them gives its expectation given (X_t, S_t) exactly."""
    d = draws.d
    radius = sigmas[0] * math.sqrt(draws.chi2[t])
    mean_noise = np.vstack([radius * np.eye(d), -radius * np.eye(d)])
    i2 = None if draws.third is None else np.full(2 * d, sigmas[2] * draws.third[t])
    return StageDraws(
        mean_noise=mean_noise,
        stat_noise=np.full((2 * d, d), sigmas[1] * draws.sums[t] / d),
        i2_noise=i2,
    )


def scaled_draws(
    statistic: Statistic, data: VectorDataset, cfg: EstimatorConfig, budget: PrivacyBudget,
    normals: UnitNormals,
) -> StageDraws:
    """Stage noise of T releases, one trial per row: each stage's calibrated
    sigma at `budget` times its columns of `normals`."""
    d, z = data.d, normals.stages
    sigmas = stage_sigmas(statistic, build_context(data), cfg, [budget], {})[0]
    three = statistic.budget_parts == 3
    return StageDraws(
        mean_noise=sigmas[0] * z[:, :d],
        stat_noise=sigmas[1] * z[:, d : 2 * d],
        i2_noise=sigmas[2] * z[:, 2 * d] if three else None,
        mean_noise_var=sigmas[0] ** 2,
        stat_noise_var=sigmas[1] ** 2,
        i2_noise_var=sigmas[2] ** 2 if three else 0.0,
    )


def draw_noise(statistic, data, cfg, budget, seeds) -> StageDraws:
    """Stage noise of one release per seed, stacked one trial per row: the
    library's unit normals of those seeds, scaled."""
    return scaled_draws(statistic, data, cfg, budget, unit_normals(statistic, cfg, data.d, seeds))


def release_from_draws(
    statistic: Statistic, data: VectorDataset, ctx: MeasureContext, draws: StageDraws
) -> float:
    """One release on injected scaled draws: the library's noise takes their
    law, X = ||mean_noise||^2 and S = sum(stat_noise), at sigma 1 (a sigma
    array of ones), added to the true dispersion or Q, then the I^2 step."""
    third = np.array([draws.i2_noise]) if statistic is Statistic.I_SQUARED else None
    law = TrialDraws(data.d, np.array([float(np.sum(np.square(draws.mean_noise)))]),
                     np.array([float(np.sum(draws.stat_noise))]), third, np.zeros(1))
    sigmas = np.ones((1, statistic.budget_parts + 1))
    noise = release_noise(statistic, ctx, law, sigmas)
    base = Statistic.DISPERSION if statistic is Statistic.DISPERSION else Statistic.Q
    value = true_value(base, data, ctx) + noise[0]
    if statistic is Statistic.I_SQUARED:
        value = i_squared_release(value, data.n, draws.i2_noise)
    return float(value[0])


def draw_noise_per_trial(
    statistic: Statistic,
    data: VectorDataset,
    cfg: EstimatorConfig,
    budget: PrivacyBudget,
    seeds,
) -> StageDraws:
    """Stage noise of one release per seed, stacked one trial per row, each
    stage drawn at its own scale from the trial's own generator.

    Each trial's stream is seeded by (seed, setting); zero-noise configs
    return exact zeros without calibrating or drawing.
    """
    parts = statistic.budget_parts
    if len(budget.split) != parts:
        raise ValueError(f"{statistic.value} needs a {parts}-part budget split")
    sens = SensitivitySpec.from_shape(data.n, data.d)
    sigmas = [
        0.0 if cfg.zero_noise else release_sigma(cfg.mechanism, sens, eps_i, delta_i)
        for eps_i, delta_i in budget.split
    ]
    mean_noise, stat_noise = np.zeros((2, len(seeds), data.d))
    i2_noise = np.zeros(len(seeds))
    if not cfg.zero_noise:
        for t, seed in enumerate(seeds):
            rng = np.random.default_rng((seed, STREAM_TAG[cfg.setting]))
            mean_noise[t] = rng.normal(0.0, sigmas[0], data.d)
            stat_noise[t] = rng.normal(0.0, sigmas[1], data.d)
            if parts == 3:
                i2_noise[t] = rng.normal(0.0, sigmas[2])
    return StageDraws(
        mean_noise=mean_noise,
        stat_noise=stat_noise,
        i2_noise=i2_noise if parts == 3 else None,
        mean_noise_var=sigmas[0] ** 2,
        stat_noise_var=sigmas[1] ** 2,
        i2_noise_var=sigmas[2] ** 2 if parts == 3 else 0.0,
    )


def centralized_noisy(
    statistic: float,
    part: tuple[float, float],
    shape: SensitivitySpec,
    d: int,
    cfg: EstimatorConfig,
) -> tuple[float, StageDraws]:
    """Perturb an already-aggregated scalar statistic with one draw from its
    own generator, default_rng(cfg.seed).

    The draw's variance is d times the per-coordinate stage variance, i.e.
    the variance the coordinate-summed vector noise would carry in the
    distributed pipeline; its square is the centralized error contribution.
    """
    epsilon_i, delta_i = part
    sigma = 0.0 if cfg.zero_noise else release_sigma(cfg.mechanism, shape, epsilon_i, delta_i)
    scalar_sigma = math.sqrt(d) * sigma
    if scalar_sigma == 0.0:
        noise = 0.0
    else:
        rng = np.random.default_rng(cfg.seed)
        noise = float(rng.normal(0.0, scalar_sigma))
    draw = StageDraws(stat_noise=np.array([noise]), stat_noise_var=scalar_sigma**2)
    return statistic + noise, draw


def release_kernel_direct(
    statistic: Statistic, data: VectorDataset, ctx: MeasureContext, draws: StageDraws
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy dispersion or Q values of a batch of scaled draws, plus row shifts.

    Row i of trial t moves the statistic by
    shift[i, t] = w_i (||e_t||^2 - 2 dev_i . e_t), with dev . e taken from one
    GEMM X @ E.T - center @ E.T on the scaled mean-stage noise E. The value
    is the true statistic plus the mean shift plus sum(s_t).
    """
    _require_draws(draws)
    mean_noise = np.atleast_2d(draws.mean_noise)
    stat_sums = np.atleast_2d(draws.stat_noise).sum(axis=1)
    unweighted = statistic is Statistic.DISPERSION
    center = ctx.mean if unweighted else ctx.weighted_mean
    base = true_value(Statistic.DISPERSION if unweighted else Statistic.Q, data, ctx)
    projections = data.vectors @ mean_noise.T - center @ mean_noise.T
    shifts = (mean_noise * mean_noise).sum(axis=1) - 2.0 * projections
    if not unweighted:
        shifts *= ctx.weights[:, None]
    return base + shifts.mean(axis=0) + stat_sums, shifts


def _require_draws(draws: StageDraws) -> None:
    if draws.mean_noise is None or draws.stat_noise is None:
        raise ValueError("needs mean-stage and statistic-stage draws")


def dispersion_from_draws(data: VectorDataset, draws: StageDraws) -> float:
    """Private dispersion evaluated directly around the perturbed mean."""
    _require_draws(draws)
    deviations = data.vectors - data.vectors.mean(axis=0)
    value = float(((deviations - draws.mean_noise) ** 2).sum(axis=1).mean())
    return value + float(draws.stat_noise.sum())


def evaluate_q_from_draws(data: VectorDataset, ctx: MeasureContext, draws: StageDraws) -> float:
    """Private Q evaluated directly around the perturbed weighted mean."""
    _require_draws(draws)
    noisy_center = ctx.weighted_mean + draws.mean_noise
    squared = ((data.vectors - noisy_center) ** 2).sum(axis=1)
    return float((ctx.weights * squared).mean()) + float(draws.stat_noise.sum())


def noisy_q_deviation_form(data: VectorDataset, ctx: MeasureContext, draws: StageDraws) -> float:
    """Private Q as true Q plus the per-row perturbation
    w_i * mean_noise . (mean_noise - 2 (x_i - weighted_mean)) plus the
    statistic noise; agrees with evaluate_q_from_draws up to rounding."""
    _require_draws(draws)
    deviations = data.vectors - ctx.weighted_mean
    per_row = (draws.mean_noise * (draws.mean_noise - 2.0 * deviations)).sum(axis=1)
    shift = float((ctx.weights * per_row).mean()) + float(draws.stat_noise.sum())
    return ctx.q_value + shift


def tmse_dispersion(data: VectorDataset, draws: StageDraws) -> float:
    """Closed-form squared error of a private dispersion from its draws:
    the mean of the squared row shifts
    mean_noise . (mean_noise - 2 (x_i - mean)) + sum(stat_noise)."""
    if draws.mean_noise is None or draws.stat_noise is None:
        raise ValueError("dispersion error needs mean-stage and statistic-stage draws")
    deviations = data.vectors - data.vectors.mean(axis=0)
    per_row = (draws.mean_noise * (draws.mean_noise - 2.0 * deviations)).sum(axis=1)
    shifted = per_row + draws.stat_noise.sum()
    return float((shifted**2).mean())


def tmse_q(data: VectorDataset, ctx: MeasureContext, draws: StageDraws) -> float:
    """Closed-form squared error of a private Q: the weighted analogue of
    tmse_dispersion."""
    if draws.mean_noise is None or draws.stat_noise is None:
        raise ValueError("q error needs mean-stage and statistic-stage draws")
    deviations = data.vectors - ctx.weighted_mean
    per_row = ctx.weights * (draws.mean_noise * (draws.mean_noise - 2.0 * deviations)).sum(axis=1)
    shifted = per_row + draws.stat_noise.sum()
    return float((shifted**2).mean())


def emse(statistic, data, ctx, cfg, budget, trials) -> tuple[float, float]:
    """Mean and standard deviation of the empirical squared error."""
    report = error_report(statistic, data, ctx, cfg, budget, trials)
    return report.emse, report.sd_emse


def _mean_sq_deviation_direct(vectors: np.ndarray, center: np.ndarray, weights=1.0) -> float:
    deviations = vectors - center
    squared = np.square(deviations, out=deviations).sum(axis=1)
    return float((weights * squared).mean())


def byte_sq_deviations_direct(data: VectorDataset, center: np.ndarray) -> np.ndarray:
    """||p_i - 255 center||^2 per byte row p_i: each cast block subtracts the
    center in place, squares and sums, with nothing expanded into moments."""
    center = center * 255.0
    squares = np.empty(data.n)
    for span, block in row_blocks(data):
        deviations = np.subtract(block, center, out=block)
        squares[span] = np.square(deviations, out=deviations).sum(axis=1)
    return squares


def build_context_direct(data: VectorDataset) -> MeasureContext:
    """build_context over the whole matrix: the within-row variance and both
    squared-deviation passes each allocate one n x d temporary."""
    vectors = data.vectors  # byte rows decode on each read: once here
    within = vectors.var(axis=1)
    weights = 1.0 / np.maximum(within, VARIANCE_FLOOR)
    mean = vectors.mean(axis=0)
    center = weights @ vectors / weights.sum()
    return MeasureContext(
        mean=mean,
        weighted_mean=center,
        weights=weights,
        within_variances=within,
        dispersion=_mean_sq_deviation_direct(vectors, mean),
        q_value=_mean_sq_deviation_direct(vectors, center, weights),
        q_sq_weights=_mean_sq_deviation_direct(vectors, center, weights * weights),
    )


def load_decoded(desc: DatasetDescriptor) -> VectorDataset:
    """Every pixel of a well-formed descriptor's files as float64, no checks."""
    if desc.format is DataFormat.SYNTHETIC:
        return synthetic_dataset(desc.synth_n, desc.d, desc.heterogeneity, desc.synth_seed)
    if desc.format is DataFormat.IDX_IMAGES:
        image_buf = Path(desc.paths[0]).read_bytes()
        count, rows, cols = (int.from_bytes(image_buf[i : i + 4], "big") for i in (4, 8, 12))
        pixels = np.frombuffer(image_buf, dtype=np.uint8, count=count * rows * cols, offset=16)
        vectors = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
        labels = np.frombuffer(Path(desc.paths[1]).read_bytes(), np.uint8, count, offset=8)
        return VectorDataset(vectors, labels.astype(np.int64))
    ten = desc.format is DataFormat.CIFAR10_BIN
    record = CIFAR10_RECORD if ten else CIFAR100_RECORD
    blocks, labels = [], []
    for path in desc.paths:
        records = np.frombuffer(Path(path).read_bytes(), dtype=np.uint8).reshape(-1, record)
        blocks.append(records[:, record - 3072 :].astype(np.float64) / 255.0)
        labels.append(records[:, 0].astype(np.int64) // (1 if ten else 2))
    return VectorDataset(np.vstack(blocks), np.concatenate(labels))


def label_pools_direct(labels: np.ndarray) -> dict[int, np.ndarray]:
    """Each present label's row indices, keyed in ascending label order, as
    stratified_sample once found them on every call: np.unique for the
    present labels, then one np.nonzero scan of all labels per present label."""
    return {int(label): np.nonzero(labels == label)[0] for label in np.unique(labels)}


def sample_decoded(data: VectorDataset, profile: HeterogeneityProfile, seed: int) -> VectorDataset:
    """Stratified sample of a fully decoded dataset: pick rows per label
    bucket as stratified_sample does, from label_pools_direct's pools, then
    index the float64 vectors."""
    total = math.floor(profile.sample_fraction * data.n)
    counts = _allocate(total, np.asarray(profile.ratios, dtype=np.float64))
    pools = list(label_pools_direct(data.labels).values())
    rng = np.random.default_rng(seed)
    index = np.concatenate(
        [
            rng.choice(pools[bucket], size=int(want), replace=False)
            for bucket, want in enumerate(counts)
        ]
    )
    return VectorDataset(data.vectors[index], data.labels[index])


def synthetic_direct(n: int, d: int, heterogeneity: float, seed: int) -> VectorDataset:
    """synthetic_dataset as whole-matrix expressions: each cluster's rows are
    a new array, stacked, clipped and gathered into the drawn order."""
    rng = np.random.default_rng(seed)
    k = datasets._CLUSTERS
    shuffle = (7 * np.arange(k)) % k
    low, high = datasets._LEVEL_LOW, datasets._LEVEL_HIGH
    levels = low + (high - low) * (shuffle + 0.5) / k
    amplitudes = 10.0 ** np.linspace(datasets._AMP_LOW_EXP, datasets._AMP_HIGH_EXP, k)
    scale = datasets._BASE_SCALE * 10.0 ** (-datasets._SCALE_DECADES * heterogeneity)
    jitter = datasets._FLAT_JITTER * (1.0 - datasets._JITTER_SHRINK * heterogeneity)
    geometric = datasets._IMBALANCE_RATIO ** np.arange(k)
    shares = (1.0 - heterogeneity) / k + heterogeneity * geometric / geometric.sum()
    counts = _allocate(n, shares)
    patterns = rng.standard_normal((k, d))
    blocks, labels = [], []
    for cluster, count in enumerate(counts):
        if count == 0:
            continue
        noise = rng.standard_normal((count, d))
        rows = levels[cluster] + scale * (amplitudes[cluster] * patterns[cluster] + jitter * noise)
        blocks.append(rows)
        labels.append(np.full(count, cluster, dtype=np.int64))
    vectors = np.clip(np.vstack(blocks), 0.0, 1.0)
    order = rng.permutation(n)
    return VectorDataset(vectors=vectors[order], labels=np.concatenate(labels)[order])


def write_idx_direct(data: VectorDataset, images_path: Path, labels_path: Path) -> None:
    """write_idx quantising every coordinate in one n x d expression."""
    pixels = np.rint(data.vectors * 255.0).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, data.n, 1, data.d))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, data.n))
        fh.write(data.labels.astype(np.uint8).tobytes())


def write_cifar_direct(data: VectorDataset, path: Path, variant: CifarVariant) -> None:
    """write_cifar as one write of label bytes and one of pixels per record."""
    pixels = np.rint(data.vectors * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        for i in range(data.n):
            if variant is CifarVariant.TEN:
                fh.write(bytes([int(data.labels[i])]))
            else:
                fh.write(bytes([2 * int(data.labels[i]), 0]))
            fh.write(pixels[i].tobytes())


def within_vector_variance(vector: np.ndarray) -> float:
    """Population variance of one vector's coordinates (divide by d).

    For coordinates in [0, 1] the result lies in [0, 0.25].
    """
    vector = np.asarray(vector, dtype=np.float64)
    if vector.ndim != 1 or vector.size < 1:
        raise ValueError(f"expected a nonempty 1-d vector, got shape {vector.shape}")
    return float(vector.var())


def achieved_delta_low_noise(epsilon: float, v: float) -> float:
    """Privacy slack along the low-noise branch, parameterized by v >= 0.

    Nondecreasing in v; equals the branch-point slack delta0 at v = 0.
    """
    return std_normal_cdf(math.sqrt(epsilon * v)) - math.exp(epsilon) * std_normal_cdf(
        -math.sqrt(epsilon * (v + 2.0))
    )


def achieved_delta_high_noise(epsilon: float, u: float) -> float:
    """Privacy slack along the high-noise branch, parameterized by u >= 0.

    Nonincreasing in u; equals the branch-point slack delta0 at u = 0.
    """
    return std_normal_cdf(-math.sqrt(epsilon * u)) - math.exp(epsilon) * std_normal_cdf(
        -math.sqrt(epsilon * (u + 2.0))
    )


def variance_oracle_dispersion(data: VectorDataset, mu_noisy: np.ndarray) -> float:
    """Squared gap between mean squared deviations taken around the true and
    a perturbed mean, per coordinate, coordinate-summed.

    Equals the summed fourth powers of the mean perturbation; the test suite
    asserts that identity numerically.
    """
    mu = data.vectors.mean(axis=0)
    true_ms = ((data.vectors - mu) ** 2).mean(axis=0)
    noisy_ms = ((data.vectors - np.asarray(mu_noisy, dtype=np.float64)) ** 2).mean(axis=0)
    return float(((true_ms - noisy_ms) ** 2).sum())


def variance_oracle_q(
    data: VectorDataset, ctx: MeasureContext, weighted_mean_noisy: np.ndarray
) -> float:
    """Weighted analogue of variance_oracle_dispersion around the weighted mean.

    Equals the squared mean weight times the summed fourth powers of the
    perturbation (weighted deviations from the weighted mean sum to zero).
    """
    center = np.asarray(weighted_mean_noisy, dtype=np.float64)
    w = ctx.weights[:, None]
    true_ms = (w * (data.vectors - ctx.weighted_mean) ** 2).mean(axis=0)
    noisy_ms = (w * (data.vectors - center) ** 2).mean(axis=0)
    return float(((true_ms - noisy_ms) ** 2).sum())


def largest_nonpositive(g, tol: float) -> float:
    """Largest x >= 0 with g(x) <= 0 for nondecreasing g with g(0) <= 0.

    Stops once -g(x) <= tol; the satisfying side of the bracket is returned.
    """
    lo, g_lo = 0.0, g(0.0)
    if g_lo > 0.0:
        raise ConvergenceError("no satisfying point at the branch origin", (0.0, 0.0))
    steps = 0
    hi, g_hi = 1.0, g(1.0)
    while g_hi <= 0.0:
        lo, g_lo = hi, g_hi
        hi *= 2.0
        g_hi = g(hi)
        steps += 1
        if steps > _MAX_SOLVER_STEPS:
            raise ConvergenceError("bracketing exceeded the iteration cap", (lo, hi))
    while -g_lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid <= 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi = mid
        steps += 1
        if steps > _MAX_SOLVER_STEPS:
            raise ConvergenceError("bisection exceeded the iteration cap", (lo, hi))
    return lo


def smallest_nonpositive(g, tol: float) -> float:
    """Smallest x >= 0 with g(x) <= 0 for nonincreasing g with g(0) > 0.

    Stops once -g(x) <= tol; the satisfying side of the bracket is returned.
    """
    lo = 0.0
    steps = 0
    hi, g_hi = 1.0, g(1.0)
    while g_hi > 0.0:
        lo = hi
        hi *= 2.0
        g_hi = g(hi)
        steps += 1
        if steps > _MAX_SOLVER_STEPS:
            raise ConvergenceError("bracketing exceeded the iteration cap", (lo, hi))
    while -g_hi > tol:
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid <= 0.0:
            hi, g_hi = mid, g_mid
        else:
            lo = mid
        steps += 1
        if steps > _MAX_SOLVER_STEPS:
            raise ConvergenceError("bisection exceeded the iteration cap", (lo, hi))
    return hi


def agm_sigma_per_branch(
    sens: SensitivitySpec, epsilon: float, delta: float, tol: float = 1e-12
) -> CalibrationResult:
    """agm_sigma with largest_nonpositive on the low-noise branch and
    smallest_nonpositive on the high-noise one; the privacy slack is read
    through hetdp.gaussian, so a patched achieved_delta sees every call."""
    delta_l2 = sens.delta_l2
    scale_unit = delta_l2 / math.sqrt(2.0 * epsilon)
    delta0 = gaussian.achieved_delta(scale_unit, delta_l2, epsilon)
    low = delta >= delta0
    alpha_of = _alpha_low_noise if low else _alpha_high_noise

    def slack_gap(x: float) -> float:
        return gaussian.achieved_delta(alpha_of(x) * scale_unit, delta_l2, epsilon) - delta

    root = (largest_nonpositive if low else smallest_nonpositive)(slack_gap, tol)
    alpha = alpha_of(root)
    branch = NoiseBranch.LOW_NOISE if low else NoiseBranch.HIGH_NOISE
    return CalibrationResult(Mechanism.ANALYTIC, alpha * scale_unit, alpha, delta0, root, branch)
