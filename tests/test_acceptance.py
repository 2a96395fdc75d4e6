"""End-to-end acceptance checks.

Each test prints one `[acceptance] <name>: PASS/FAIL (<detail>)` line and
enforces a wall-clock budget, so the suite doubles as a quick conformance
report. Monte Carlo configurations (dataset shapes, seeds, trial counts) are
frozen; the asserted windows were chosen with wide margins around measured
values, so reruns are deterministic.
"""

import time

import numpy as np
import pytest
from oracles import variance_oracle_dispersion, variance_oracle_q

from hetdp.datasets import (
    CANONICAL_PROFILES,
    DataFormat,
    DatasetDescriptor,
    DatasetFormatError,
    HeterogeneityProfile,
    load_dataset,
    synthetic_dataset,
    write_idx,
)
from hetdp.errors import (
    DISPERSION_CI_CONSTANT,
    I_SQUARED_CI_CONSTANT,
    ci_half_width,
    error_report,
)
from hetdp.estimators import (
    EstimatorConfig,
    Setting,
    Statistic,
    noisy_statistic,
    release_sigma,
)
from hetdp.experiment import ExperimentPlan, run_experiment, run_heterogeneity_comparison
from hetdp.gaussian import (
    Mechanism,
    PrivacyBudget,
    SensitivitySpec,
    achieved_delta,
    agm_sigma,
    cgm_sigma,
)
from hetdp.measures import VectorDataset, build_context, i_squared

SENS = SensitivitySpec.from_shape(100, 64)

EPSILON_GRID = (0.25, 0.5, 1.0, 2.0, 5.0)
DELTA_GRID = (1e-5, 0.1)


def _report_line(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _mc_report(stat, data, ctx, mech, epsilon, delta, seed, trials):
    parts = stat.budget_parts
    cfg = EstimatorConfig(
        mechanism=mech,
        setting=Setting.DISTRIBUTED,
        seed=seed,
    )
    budget = PrivacyBudget.equal_split(epsilon, delta, parts)
    return error_report(stat, data, ctx, cfg, budget, trials=trials)


def test_analytic_calibration_tightness():
    """The calibrated sigma's achieved additive parameter sits in
    (delta - 1e-9, delta] on the whole privacy grid."""
    start = time.perf_counter()
    worst_slack = 0.0
    for epsilon in EPSILON_GRID:
        for delta in DELTA_GRID:
            sigma = agm_sigma(SENS, epsilon, delta).sigma
            achieved = achieved_delta(sigma, SENS.delta_l2, epsilon)
            assert delta - 1e-9 < achieved <= delta, (epsilon, delta, achieved)
            worst_slack = max(worst_slack, delta - achieved)
    elapsed = time.perf_counter() - start
    _report_line(
        "analytic-calibration-tightness",
        elapsed < 1.0,
        f"max slack {worst_slack:.3g} <= 1e-9 on {len(EPSILON_GRID) * len(DELTA_GRID)} "
        f"grid points, {elapsed:.2f}s (limit 1s)",
    )


def test_analytic_beats_classical():
    """Sigma ratio < 1 wherever both calibrations exist, and the empirical
    error ratio lands in [0.05, 0.45] for the dispersion at 1000 trials."""
    start = time.perf_counter()
    for epsilon in (0.25, 0.5):
        for delta in DELTA_GRID:
            ratio = agm_sigma(SENS, epsilon, delta).sigma / cgm_sigma(SENS, epsilon, delta).sigma
            assert ratio < 1.0, (epsilon, delta, ratio)
    data = synthetic_dataset(200, 64, 0.2, seed=3)
    ctx = build_context(data)
    analytic = _mc_report(
        Statistic.DISPERSION, data, ctx, Mechanism.ANALYTIC, 0.25, 1e-5, seed=11, trials=1000
    )
    classical = _mc_report(
        Statistic.DISPERSION, data, ctx, Mechanism.CLASSICAL, 0.25, 1e-5, seed=11, trials=1000
    )
    emse_ratio = analytic.emse / classical.emse
    elapsed = time.perf_counter() - start
    _report_line(
        "analytic-beats-classical",
        0.05 <= emse_ratio <= 0.45 and elapsed < 30.0,
        f"EMSE ratio {emse_ratio:.4f} in [0.05, 0.45], {elapsed:.1f}s (limit 30s)",
    )


def test_emse_tmse_agreement():
    """With shared draws the empirical/closed-form ratio is ~1 for the
    dispersion and the fraction, and far below 1 for the weighted Q."""
    start = time.perf_counter()
    d_data = synthetic_dataset(100, 64, 0.2, seed=5)
    d_ctx = build_context(d_data)
    rd = _mc_report(
        Statistic.DISPERSION, d_data, d_ctx, Mechanism.CLASSICAL, 0.25, 0.1, seed=13, trials=1000
    )
    dispersion_ratio = rd.emse / rd.tmse

    q_data = synthetic_dataset(6000, 8, 0.5, seed=42)
    q_ctx = build_context(q_data)
    rq = _mc_report(
        Statistic.Q, q_data, q_ctx, Mechanism.ANALYTIC, 0.25, 0.1, seed=13, trials=1000
    )
    q_ratio = rq.emse / rq.tmse
    ri = _mc_report(
        Statistic.I_SQUARED, q_data, q_ctx, Mechanism.ANALYTIC, 0.25, 0.1, seed=13, trials=1000
    )
    i2_ratio = ri.emse / ri.tmse
    elapsed = time.perf_counter() - start
    _report_line(
        "emse-tmse-agreement",
        0.99 <= dispersion_ratio <= 1.01
        and q_ratio < 0.2
        and 0.9 <= i2_ratio <= 1.05
        and elapsed < 60.0,
        f"dispersion {dispersion_ratio:.5f} in [0.99, 1.01], q {q_ratio:.5f} < 0.2, "
        f"i_squared {i2_ratio:.5f} in [0.9, 1.05], {elapsed:.1f}s (limit 60s)",
    )


def test_oracle_identities_and_interval_constants():
    """Variance-gap oracle identities hold to 1e-10 on 100 random instances;
    the interval constants re-derive from first principles within 1e-3."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        d = int(rng.integers(1, 9))
        data = VectorDataset(rng.random((n, d)), np.zeros(n, dtype=np.int64))
        ctx = build_context(data)
        shift = rng.normal(0.0, 0.15, d)

        gap = variance_oracle_dispersion(data, ctx.mean + shift)
        expect = float((shift**4).sum())
        err = abs(gap - expect) / max(1.0, expect)
        worst = max(worst, err)
        assert err <= 1e-10, (n, d, err)

        wgap = variance_oracle_q(data, ctx, ctx.weighted_mean + shift)
        wexpect = float(ctx.weights.mean()) ** 2 * expect
        werr = abs(wgap - wexpect) / max(1.0, wexpect)
        worst = max(worst, werr)
        assert werr <= 1e-10, (n, d, werr)

    # 1.96 * sqrt(Var[Z^4]) = 1.96 * sqrt(105 - 9) = 7.84 * sqrt(6) exactly;
    # 1.96 * sqrt(32/315) = 0.6247..., printed as 0.625.
    c1_err = abs(DISPERSION_CI_CONSTANT - 1.96 * np.sqrt(105.0 - 9.0))
    moment = 4.0 * (1.0 / 5.0 - 2.0 / 7.0 + 1.0 / 9.0)
    c2_err = abs(I_SQUARED_CI_CONSTANT - 1.96 * float(np.sqrt(moment)))
    elapsed = time.perf_counter() - start
    _report_line(
        "oracle-identities-and-interval-constants",
        c1_err < 1e-3 and c2_err < 1e-3 and elapsed < 5.0,
        f"worst identity error {worst:.2e} <= 1e-10 over 100 instances, "
        f"constant errors {c1_err:.2e}/{c2_err:.2e} < 1e-3, {elapsed:.1f}s (limit 5s)",
    )


def test_ci_half_width_scaling():
    """Doubling n shrinks the dispersion interval by exactly 2**-4.5 (noise
    scale linear in sqrt(d)/n, half-width quartic in it plus 1/sqrt(n))."""
    start = time.perf_counter()

    def half(n: int) -> float:
        sens = SensitivitySpec.from_shape(n, 64)
        var = release_sigma(Mechanism.ANALYTIC, sens, 0.25, 0.1) ** 2
        return ci_half_width(Statistic.DISPERSION, n, None, var)

    ratio = half(200) / half(100)
    rel_err = abs(ratio / 2.0**-4.5 - 1.0)
    elapsed = time.perf_counter() - start
    _report_line(
        "ci-half-width-scaling",
        rel_err < 0.01 and elapsed < 1.0,
        f"n->2n ratio {ratio:.6e} vs 2^-4.5, relative error {rel_err:.2e} < 1%, "
        f"{elapsed:.2f}s (limit 1s)",
    )


def test_zero_noise_identity(tmp_path):
    """Disabling noise reproduces every true statistic bit-for-bit and zeroes
    every error column of an experiment run."""
    start = time.perf_counter()
    data = synthetic_dataset(400, 4, 0.5, seed=0)
    ctx = build_context(data)
    truth = {
        Statistic.DISPERSION: ctx.dispersion,
        Statistic.Q: ctx.q_value,
        Statistic.I_SQUARED: i_squared(ctx.q_value, data.n),
    }
    for setting in Setting:
        for stat in Statistic:
            cfg = EstimatorConfig(
                mechanism=Mechanism.ANALYTIC,
                setting=setting,
                seed=1,
                zero_noise=True,
            )
            budget = PrivacyBudget.equal_split(1.0, 0.1, stat.budget_parts)
            value = noisy_statistic(stat, data, ctx, cfg, budget)
            assert value == truth[stat], (setting, stat)

    plan = ExperimentPlan(
        dataset=DatasetDescriptor(
            format=DataFormat.SYNTHETIC, name="zn", d=4, synth_n=400, heterogeneity=0.5
        ),
        profiles=(("uniform-2", HeterogeneityProfile((1, 1), sample_fraction=0.25)),),
        statistics=tuple(Statistic),
        mechanisms=(Mechanism.ANALYTIC,),
        settings=(Setting.DISTRIBUTED,),
        epsilons=(0.25,),
        delta=0.1,
        trials=3,
        seed=2,
        zero_noise=True,
    )
    rows = run_experiment(plan, tmp_path / "zn.csv")
    zeroed = all(
        (r.emse, r.tmse, r.cmse, r.sd_emse, r.sd_tmse, r.ci_half_width)
        == (0.0,) * 6
        for r in rows
    )
    elapsed = time.perf_counter() - start
    _report_line(
        "zero-noise-identity",
        zeroed and elapsed < 5.0,
        f"6 releases bit-identical, {len(rows)} rows all-zero error columns, "
        f"{elapsed:.1f}s (limit 5s)",
    )


def test_epsilon_sweep_monotone():
    """Mean EMSE is nonincreasing across the default epsilon grid for all
    three statistics (at most one adjacent inversion tolerated)."""
    start = time.perf_counter()
    grid = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
    data = synthetic_dataset(200, 64, 0.2, seed=9)
    ctx = build_context(data)
    details = []
    ok = True
    for stat in Statistic:
        curve = [
            _mc_report(stat, data, ctx, Mechanism.ANALYTIC, eps, 1e-5, seed=23, trials=200).emse
            for eps in grid
        ]
        inversions = sum(1 for a, b in zip(curve, curve[1:]) if b > a)
        ok = ok and inversions <= 1
        details.append(f"{stat.value}: {inversions} inversions")
    elapsed = time.perf_counter() - start
    _report_line(
        "epsilon-sweep-monotone",
        ok and elapsed < 60.0,
        f"{'; '.join(details)} over {len(grid)} epsilons x 200 trials, "
        f"{elapsed:.1f}s (limit 60s)",
    )


def test_skew_robustness_ordering(tmp_path):
    """Across paired balanced/skewed profiles the fraction's EMSE moves far
    more than the dispersion's (which pairs out to ~0 under shared noise)."""
    start = time.perf_counter()

    def prof(name: str) -> HeterogeneityProfile:
        base = CANONICAL_PROFILES[name]
        return HeterogeneityProfile(base.ratios, base.label_count, 0.15)

    plan = ExperimentPlan(
        dataset=DatasetDescriptor(
            format=DataFormat.SYNTHETIC,
            name="pairs",
            d=8,
            synth_n=40000,
            heterogeneity=0.7,
            synth_seed=7,
        ),
        profiles=tuple((name, prof(name)) for name in
                       ("uniform-2", "skewed-2", "uniform-5", "skewed-5")),
        statistics=(Statistic.DISPERSION, Statistic.I_SQUARED),
        mechanisms=(Mechanism.ANALYTIC,),
        settings=(Setting.DISTRIBUTED,),
        epsilons=(0.25, 1.0, 5.0),
        delta=0.1,
        trials=40,
        seed=31,
    )
    rows = run_heterogeneity_comparison(plan, tmp_path / "cmp.csv")

    def mean_abs_pct(stat: Statistic) -> float:
        vals = [
            abs(r.pct_change_emse)
            for r in rows
            if r.kind == "ratio" and r.statistic == stat.value
        ]
        return sum(vals) / len(vals)

    disp = mean_abs_pct(Statistic.DISPERSION)
    i2 = mean_abs_pct(Statistic.I_SQUARED)
    elapsed = time.perf_counter() - start
    _report_line(
        "skew-robustness-ordering",
        i2 > disp and disp < 10.0 and elapsed < 120.0,
        f"mean |pct change| i_squared {i2:.2f} > dispersion {disp:.4f} (< 10), "
        f"{elapsed:.1f}s (limit 120s)",
    )


def test_error_magnitude_sanity():
    """At the fixed-privacy defaults every empirical error is at least 10x
    below the smallest true statistic across canonical balanced profiles."""
    start = time.perf_counter()
    base = synthetic_dataset(20000, 8, 0.5, seed=42)
    from hetdp.datasets import stratified_sample

    mins = {stat: np.inf for stat in Statistic}
    worst = {stat: 0.0 for stat in Statistic}
    for name in ("uniform-2", "uniform-5", "uniform-10"):
        canon = CANONICAL_PROFILES[name]
        profile = HeterogeneityProfile(canon.ratios, canon.label_count, 0.3)
        sample = stratified_sample(base, profile, seed=1)
        ctx = build_context(sample)
        truth = {
            Statistic.DISPERSION: ctx.dispersion,
            Statistic.Q: ctx.q_value,
            Statistic.I_SQUARED: i_squared(ctx.q_value, sample.n),
        }
        for stat in Statistic:
            out = _mc_report(stat, sample, ctx, Mechanism.ANALYTIC, 0.25, 0.1, seed=17, trials=100)
            mins[stat] = min(mins[stat], truth[stat])
            worst[stat] = max(worst[stat], out.emse)
    ok = all(worst[stat] <= mins[stat] / 10.0 for stat in Statistic)
    elapsed = time.perf_counter() - start
    margins = ", ".join(
        f"{stat.value} {worst[stat]:.3g} <= {mins[stat] / 10.0:.3g}" for stat in Statistic
    )
    _report_line(
        "error-magnitude-sanity",
        ok and elapsed < 60.0,
        f"{margins}, {elapsed:.1f}s (limit 60s)",
    )


def test_binary_loader_correctness(tmp_path):
    """Hand-built binary fixtures parse to exact vectors/labels; corrupted
    magic bytes and truncations raise structured errors with offsets."""

    def read_idx(images, labels):
        paths = (str(images), str(labels))
        return load_dataset(DatasetDescriptor(DataFormat.IDX_IMAGES, "idx", paths))

    def read_cifar(path):
        desc = DatasetDescriptor(DataFormat.CIFAR10_BIN, "cifar", (str(path),))
        return load_dataset(desc)

    start = time.perf_counter()
    vectors = np.array([[0.0, 1.0, 128.0 / 255.0], [4.0 / 255.0, 0.0, 1.0]])
    data = VectorDataset(vectors, np.array([3, 8]))
    images, labels = tmp_path / "img.bin", tmp_path / "lab.bin"
    write_idx(data, images, labels)
    loaded = read_idx(images, labels)
    assert np.array_equal(loaded.vectors, vectors)
    assert loaded.labels.tolist() == [3, 8]

    cifar = tmp_path / "batch.bin"
    cifar.write_bytes(bytes([7]) + bytes(range(256)) * 12)
    cpack = read_cifar(cifar)
    assert cpack.labels.tolist() == [7]
    assert cpack.vectors[0, 1] == 1.0 / 255.0

    raw = bytearray(images.read_bytes())
    raw[0] = 0xFF
    images.write_bytes(bytes(raw))
    with pytest.raises(DatasetFormatError) as magic_err:
        read_idx(images, labels)
    assert magic_err.value.offset == 0

    write_idx(data, images, labels)
    images.write_bytes(images.read_bytes()[:17])
    with pytest.raises(DatasetFormatError) as trunc_err:
        read_idx(images, labels)
    assert trunc_err.value.offset == 17

    cifar.write_bytes(cifar.read_bytes()[:100])
    with pytest.raises(DatasetFormatError) as ragged_err:
        read_cifar(cifar)
    assert ragged_err.value.offset == 0
    elapsed = time.perf_counter() - start
    _report_line(
        "binary-loader-correctness",
        elapsed < 1.0,
        f"round trips exact, corruption offsets 0/17/0 reported, {elapsed:.2f}s (limit 1s)",
    )


def test_absolute_result_tables_covered_by_ratios():
    """Absolute sweep values depend on an unspecified sample and seed, so
    they are deliberately not pinned; the ratio and ordering checks above are
    the reproducible surrogates. This test records that coverage."""
    covering = (
        "test_analytic_beats_classical",
        "test_emse_tmse_agreement",
        "test_epsilon_sweep_monotone",
        "test_skew_robustness_ordering",
        "test_error_magnitude_sanity",
    )
    missing = [name for name in covering if name not in globals()]
    _report_line(
        "absolute-tables-covered-by-ratios",
        not missing,
        "absolute values unpinned by design; covered by " + ", ".join(covering),
    )
