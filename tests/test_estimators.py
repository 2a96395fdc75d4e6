"""Private estimators: zero-noise identity, injected draws, noise settings,
and the scalar error-law draws against the d-wide oracle path."""

import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from oracles import (
    StageDraws,
    axis_draws,
    centralized_noisy,
    dispersion_from_draws,
    draw_noise,
    draw_noise_per_trial,
    evaluate_q_from_draws,
    law_draws,
    noisy_mean,
    noisy_q_deviation_form,
    project,
    release_from_draws,
    release_kernel_direct,
    scaled_draws,
    share_aggregate,
    tmse_dispersion,
    tmse_kernel,
    tmse_q,
    trial_normals,
    unit_normals,
)

from hetdp.errors import (
    conditional_tmse,
    derive_seed,
    error_report,
    error_reports,
    tmse_i_squared,
)
from hetdp.estimators import (
    DegenerateStatisticError,
    EstimatorConfig,
    Setting,
    Statistic,
    i_squared_release,
    noisy_statistic,
    release_noise,
    release_sigma,
    stage_sigmas,
    trial_draws,
    true_value,
)
from hetdp.gaussian import Mechanism, PrivacyBudget, SensitivitySpec, std_normal_cdf
from hetdp.measures import VectorDataset, build_context, i_squared


def _cfg(setting=Setting.DISTRIBUTED, mech=Mechanism.ANALYTIC, seed=7, zero=False):
    return EstimatorConfig(mechanism=mech, setting=setting, seed=seed, zero_noise=zero)


def _sigmas(statistic, data, cfg, budget):
    """The stage sigmas and full-budget sigma of `budget`, from a fresh memo."""
    return stage_sigmas(statistic, build_context(data), cfg, [budget], {})[0]


class TestBudgetParts:
    def test_stage_counts(self):
        assert Statistic.DISPERSION.budget_parts == 2
        assert Statistic.Q.budget_parts == 2
        assert Statistic.I_SQUARED.budget_parts == 3

    def test_budget_rule_is_the_equal_split_or_the_fractions(self):
        for statistic, epsilon in product(Statistic, (0.1, 0.25, 0.5, 1.0, 3.0, 7.3)):
            parts = statistic.budget_parts
            equal = PrivacyBudget.equal_split(epsilon, 1e-5, parts)
            assert statistic.budget(epsilon, 1e-5) == equal, (statistic, epsilon)
            fractions = (0.3, 0.7) if parts == 2 else (0.2, 0.3, 0.5)
            given = PrivacyBudget.from_fractions(epsilon, 1e-5, fractions)
            assert statistic.budget(epsilon, 1e-5, fractions) == given, (statistic, epsilon)

    def test_budget_rule_rejects_a_wrong_part_count(self):
        with pytest.raises(ValueError, match="^--budget-split has 3 parts but q needs 2$"):
            Statistic.Q.budget(1.0, 0.1, (0.2, 0.3, 0.5))
        with pytest.raises(ValueError, match="^--budget-split has 2 parts but i_squared needs 3$"):
            Statistic.I_SQUARED.budget(1.0, 0.1, (0.5, 0.5))

    def test_wrong_part_count_rejected(self, fix, budget2, budget3):
        ctx = build_context(fix)
        with pytest.raises(ValueError, match="2-part"):
            noisy_statistic(Statistic.DISPERSION, fix, ctx, _cfg(), budget3)
        with pytest.raises(ValueError, match="2-part"):
            noisy_statistic(Statistic.Q, fix, ctx, _cfg(), budget3)
        with pytest.raises(ValueError, match="3-part"):
            noisy_statistic(Statistic.I_SQUARED, fix, ctx, _cfg(), budget2)


class TestZeroNoiseIdentity:
    def test_all_statistics_bit_identical(self, fix, zero_cfg, budget2, budget3):
        ctx = build_context(fix)
        assert noisy_statistic(Statistic.DISPERSION, fix, ctx, zero_cfg, budget2) == ctx.dispersion
        assert noisy_statistic(Statistic.Q, fix, ctx, zero_cfg, budget2) == ctx.q_value
        assert noisy_statistic(Statistic.I_SQUARED, fix, ctx, zero_cfg, budget3) == i_squared(
            ctx.q_value, fix.n
        )
        assert np.array_equal(noisy_mean(fix, zero_cfg, budget2)[0], ctx.mean)

    def test_centralized_setting_too(self, fix_diag, budget2):
        cfg = _cfg(setting=Setting.CENTRALIZED, zero=True)
        ctx = build_context(fix_diag)
        assert noisy_statistic(Statistic.DISPERSION, fix_diag, ctx, cfg, budget2) == ctx.dispersion

    def test_centralized_scalar_release(self):
        cfg = _cfg(zero=True)
        shape = SensitivitySpec.from_shape(10, 4)
        value, draw = centralized_noisy(3.7, (0.5, 0.05), shape, 4, cfg)
        assert value == 3.7
        assert draw.stat_noise_var == 0.0


class TestInjectedDraws:
    def test_dispersion_hand_value(self, fix):
        draws = StageDraws(mean_noise=np.array([0.1, 0.1]), stat_noise=np.array([-0.01, 0.0]))
        # deviations [-0.5, 0] and [0.5, 0]; shifted by 0.1 per coordinate:
        # row sums 0.37 and 0.17, mean 0.27, plus stat sum -0.01.
        ctx = build_context(fix)
        value = release_from_draws(Statistic.DISPERSION, fix, ctx, draws)
        assert value == pytest.approx(0.26, abs=1e-15)

    def test_q_hand_value(self, fix):
        ctx = build_context(fix)
        draws = StageDraws(mean_noise=np.array([0.05, -0.05]), stat_noise=np.array([0.02, 0.0]))
        # noisy center [0.55, 0.45]; squared distances 0.305 and 0.205,
        # weights 16: (4.88 + 3.28)/2 + 0.02.
        value = release_from_draws(Statistic.Q, fix, ctx, draws)
        assert value == pytest.approx(0.5 * (4.88 + 3.28) + 0.02, abs=1e-12)

    def test_i_squared_hand_value(self, fix):
        ctx = build_context(fix)
        draws = StageDraws(
            mean_noise=np.array([0.05, -0.05]),
            stat_noise=np.array([0.02, 0.0]),
            i2_noise=0.01,
        )
        q_noisy = release_from_draws(Statistic.Q, fix, ctx, draws)
        value = release_from_draws(Statistic.I_SQUARED, fix, ctx, draws)
        assert value == pytest.approx(1.0 - 1.0 / q_noisy + 0.01, abs=1e-12)

    def test_i_squared_not_reclamped_after_final_noise(self, fix):
        # The clamp applies to the fraction before the last draw; a large
        # negative final draw leaves the release below zero by design.
        ctx = build_context(fix)
        draws = StageDraws(
            mean_noise=np.zeros(2), stat_noise=np.zeros(2), i2_noise=-5.0
        )
        value = release_from_draws(Statistic.I_SQUARED, fix, ctx, draws)
        assert value == pytest.approx(0.75 - 5.0, abs=1e-12)

    def test_degenerate_noisy_q_raises(self, fix):
        ctx = build_context(fix)
        draws = StageDraws(
            mean_noise=np.zeros(2), stat_noise=np.array([-10.0, 0.0]), i2_noise=0.0
        )
        with pytest.raises(DegenerateStatisticError, match="nonpositive"):
            release_from_draws(Statistic.I_SQUARED, fix, ctx, draws)

    def test_missing_stage_draws_rejected(self, fix, zero_cfg, budget2):
        with pytest.raises(ValueError):
            noisy_mean(fix, zero_cfg, budget2, draws=StageDraws())


class TestQEvaluationForms:
    def test_pipeline_and_deviation_form_agree(self, budget2):
        rng = np.random.default_rng(2)
        data = VectorDataset(rng.random((9, 5)), np.zeros(9, dtype=np.int64))
        ctx = build_context(data)
        for trial in range(20):
            draws = StageDraws(
                mean_noise=rng.normal(0, 0.05, 5), stat_noise=rng.normal(0, 0.05, 5)
            )
            direct = evaluate_q_from_draws(data, ctx, draws)
            expanded = noisy_q_deviation_form(data, ctx, draws)
            assert abs(direct - expanded) < 1e-10 * max(1.0, abs(direct))

    def test_unweighted_shift_reading_diverges(self, fix):
        # Reading the mean-noise shift without the per-row weights is a
        # different estimator; this documents that the two do not agree, so
        # the weighted deviation form is the one the pipeline implements.
        ctx = build_context(fix)
        draws = StageDraws(mean_noise=np.array([0.05, -0.05]), stat_noise=np.zeros(2))
        weighted = noisy_q_deviation_form(fix, ctx, draws)
        deviations = fix.vectors - ctx.weighted_mean
        per_row = (draws.mean_noise * (draws.mean_noise - 2.0 * deviations)).sum(axis=1)
        unweighted = float(per_row.mean()) + true_value(Statistic.Q, fix, ctx)
        assert abs(weighted - unweighted) > 1e-3


class TestNoiseGeneration:
    def test_deterministic_given_seed(self, fix_diag, budget2):
        cfg = _cfg(seed=17)
        ctx = build_context(fix_diag)
        first = noisy_statistic(Statistic.DISPERSION, fix_diag, ctx, cfg, budget2)
        assert first == noisy_statistic(Statistic.DISPERSION, fix_diag, ctx, cfg, budget2)

    def test_seeds_change_draws(self, fix_diag, budget2):
        ctx = build_context(fix_diag)
        a = noisy_statistic(Statistic.DISPERSION, fix_diag, ctx, _cfg(seed=1), budget2)
        b = noisy_statistic(Statistic.DISPERSION, fix_diag, ctx, _cfg(seed=2), budget2)
        assert a != b

    def test_settings_draw_differently_with_same_variance(self, fix_diag, budget2):
        ctx = build_context(fix_diag)
        dist_cfg = _cfg(setting=Setting.DISTRIBUTED)
        cent_cfg = _cfg(setting=Setting.CENTRALIZED)
        dist = noisy_statistic(Statistic.DISPERSION, fix_diag, ctx, dist_cfg, budget2)
        cent = noisy_statistic(Statistic.DISPERSION, fix_diag, ctx, cent_cfg, budget2)
        assert dist != cent
        assert np.array_equal(
            _sigmas(Statistic.DISPERSION, fix_diag, dist_cfg, budget2),
            _sigmas(Statistic.DISPERSION, fix_diag, cent_cfg, budget2),
        )

    def test_distributed_aggregate_variance(self, budget2):
        # n shares with standard deviation sqrt(n) sigma average to variance
        # sigma^2 exactly; checked against 20000 Monte Carlo aggregates.
        sigma, n = 0.3, 5
        rng = np.random.default_rng(123)
        samples = [share_aggregate(1, sigma, n, rng)[0] for _ in range(20000)]
        assert abs(np.var(samples) - sigma**2) / sigma**2 < 0.05

    def test_recorded_variances_match_calibration(self, fix, budget2):
        sens = SensitivitySpec.from_shape(fix.n, fix.d)
        eps1, delta1 = budget2.split[0]
        sigma1 = release_sigma(Mechanism.ANALYTIC, sens, eps1, delta1)
        sigma = _sigmas(Statistic.DISPERSION, fix, _cfg(), budget2)[0]
        assert sigma**2 == pytest.approx(sigma1**2, rel=1e-12)

    def test_classical_mechanism_runs_below_epsilon_one(self, fix):
        budget = PrivacyBudget.equal_split(0.5, 0.01, 2)
        cfg = _cfg(mech=Mechanism.CLASSICAL)
        value = noisy_statistic(Statistic.DISPERSION, fix, build_context(fix), cfg, budget)
        assert math.isfinite(value)
        assert _sigmas(Statistic.DISPERSION, fix, cfg, budget)[0] > 0

    def test_centralized_scalar_noise_scales_with_dimension(self):
        # The scalar release carries d times the per-coordinate variance.
        shape = SensitivitySpec.from_shape(50, 16)
        cfg = _cfg(seed=3)
        _, draw = centralized_noisy(1.0, (0.5, 0.05), shape, 16, cfg)
        sigma = release_sigma(Mechanism.ANALYTIC, shape, 0.5, 0.05)
        assert draw.stat_noise_var == pytest.approx(16 * sigma**2, rel=1e-12)


class TestDispatch:
    def test_true_values(self, fix):
        ctx = build_context(fix)
        assert true_value(Statistic.DISPERSION, fix, ctx) == ctx.dispersion
        assert true_value(Statistic.Q, fix, ctx) == ctx.q_value
        assert true_value(Statistic.I_SQUARED, fix, ctx) == i_squared(ctx.q_value, fix.n)

    def test_noisy_statistic_routes_by_enum(self, fix, zero_cfg, budget2, budget3):
        ctx = build_context(fix)
        assert noisy_statistic(Statistic.DISPERSION, fix, ctx, zero_cfg, budget2) == ctx.dispersion
        assert noisy_statistic(Statistic.Q, fix, ctx, zero_cfg, budget2) == ctx.q_value
        assert noisy_statistic(Statistic.I_SQUARED, fix, ctx, zero_cfg, budget3) == i_squared(
            ctx.q_value, fix.n
        )

    def test_i_squared_needs_two_rows(self, budget3):
        data = VectorDataset(np.array([[0.2, 0.4]]), np.array([0]))
        ctx = build_context(data)
        with pytest.raises(ValueError, match="n >= 2"):
            noisy_statistic(Statistic.I_SQUARED, data, ctx, _cfg(), budget3)

    def test_i_squared_error_report_needs_two_rows(self, budget3):
        data = VectorDataset(np.array([[0.2, 0.4]]), np.array([0]))
        ctx = build_context(data)
        with pytest.raises(ValueError, match=r"i_squared needs n >= 2, got n=1"):
            error_report(Statistic.I_SQUARED, data, ctx, _cfg(), budget3, 5)

    def test_i_squared_truth_of_one_row_is_zero(self):
        data = VectorDataset(np.array([[0.2, 0.4]]), np.array([0]))
        assert true_value(Statistic.I_SQUARED, data, build_context(data)) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 37])
    def test_context_carries_the_sample_shape(self, n, budget2):
        rng = np.random.default_rng(n)
        labels = np.zeros(n, np.int64)
        floats = VectorDataset(rng.random((n, 5)), labels)
        pixels = VectorDataset.from_bytes(rng.integers(0, 256, (n, 3072), dtype=np.uint8), labels)
        for data in (floats, pixels):
            ctx = build_context(data)
            assert (ctx.n, ctx.d) == (data.n, data.d) == data.rows.shape
            if n == 1:  # the releases read n from the context, with the same message
                for call in (noisy_statistic, lambda *args: error_report(*args, 3)):
                    with pytest.raises(ValueError, match=r"^q needs n >= 2, got n=1$"):
                        call(Statistic.Q, data, ctx, _cfg(), budget2)


def _constant_row_data(n=40, d=6, seed=8):
    # Row 0 is constant: zero within-row variance, so its weight is the
    # floor's inverse, 1e9.
    vectors = np.random.default_rng(seed).random((n, d))
    vectors[0] = 0.5
    return VectorDataset(vectors, np.zeros(n, dtype=np.int64))


def _random_data(n=40, d=6, seed=9):
    return VectorDataset(np.random.default_rng(seed).random((n, d)), np.zeros(n, dtype=np.int64))


def _trial_draws(batch, t):
    i2 = None if batch.i2_noise is None else float(batch.i2_noise[t])
    return StageDraws(mean_noise=batch.mean_noise[t], stat_noise=batch.stat_noise[t], i2_noise=i2)


def _released(statistic, data, ctx, noise):
    """Releases of the true dispersion, or of the true Q for Q and I^2, plus
    their noise."""
    base = Statistic.DISPERSION if statistic is Statistic.DISPERSION else Statistic.Q
    return true_value(base, data, ctx) + noise


def _library_tmse(statistic, data, ctx, draws, sigmas):
    """conditional_tmse of the releases on `draws`; None for I^2."""
    if statistic is Statistic.I_SQUARED:
        return None
    noise = release_noise(statistic, ctx, draws, sigmas)
    return conditional_tmse(statistic, ctx, draws, sigmas, noise)


def _oracle_kernel(statistic, data, ctx, cfg, budget, seeds):
    """The library's release values at `budget` on the law of the oracle's
    d-wide unit normals of `seeds`, with the scaled draws of the same normals."""
    normals = unit_normals(statistic, cfg, data.d, seeds)
    sigmas = stage_sigmas(statistic, ctx, cfg, [budget], {})
    noise = release_noise(statistic, ctx, law_draws(statistic, normals, data.d), sigmas)
    draws = scaled_draws(statistic, data, cfg, budget, normals)
    return _released(statistic, data, ctx, noise[0]), draws


def _direct_on_axes(statistic, data, ctx, points):
    """Direct release values of the 2d axis draws of one trial, and their
    direct TMSE averaged over the axes (I^2: tmse_i_squared at one axis)."""
    values, shifts = release_kernel_direct(statistic, data, ctx, points)
    if statistic is Statistic.I_SQUARED:
        q_true = true_value(Statistic.Q, data, ctx)
        return values, tmse_i_squared(data.n, q_true, values[0], points.i2_noise[0])
    return values, float(((shifts + points.stat_noise.sum(axis=1)) ** 2).mean())


class TestBatchedKernelAgainstDirectForms:
    """The library's releases and errors against the direct per-trial
    oracles: the releases on the law of the oracle's vectors, the TMSE on
    the axis draws that each trial of the library stands for."""

    TRIALS = 12

    def _cases(self):
        for data in (_random_data(), _constant_row_data()):
            ctx = build_context(data)
            for setting in Setting:
                for statistic in Statistic:
                    budget = PrivacyBudget.equal_split(0.5, 1e-3, statistic.budget_parts)
                    yield data, ctx, statistic, _cfg(setting=setting, seed=41), budget

    def test_values_agree_within_rtol_1e_12(self):
        seeds = [derive_seed(41, t) for t in range(self.TRIALS)]
        for data, ctx, statistic, cfg, budget in self._cases():
            values, batch = _oracle_kernel(statistic, data, ctx, cfg, budget, seeds)
            assert batch.mean_noise.shape == (self.TRIALS, data.d)
            if statistic is Statistic.I_SQUARED:
                values = i_squared_release(values, data.n, batch.i2_noise)
            for t in range(self.TRIALS):
                draws = _trial_draws(batch, t)
                if statistic is Statistic.DISPERSION:
                    direct = dispersion_from_draws(data, draws)
                elif statistic is Statistic.Q:
                    direct = evaluate_q_from_draws(data, ctx, draws)
                else:
                    q_direct = evaluate_q_from_draws(data, ctx, draws)
                    direct = max(0.0, 1.0 - (data.n - 1) / q_direct) + draws.i2_noise
                assert values[t] == pytest.approx(direct, rel=1e-12, abs=0.0), (
                    statistic, cfg.setting, t
                )
                single = release_from_draws(statistic, data, ctx, draws)
                assert single == pytest.approx(values[t], rel=1e-12, abs=0.0)

    def test_tmse_agrees_within_rtol_1e_12(self):
        # The report's TMSE is the mean over trials of the direct TMSE
        # averaged over each trial's axis draws (the oracle's sphere design).
        for data, ctx, statistic, cfg, budget in self._cases():
            report = error_report(statistic, data, ctx, cfg, budget, self.TRIALS)
            draws = trial_draws(statistic, cfg, data.d, self.TRIALS)
            sigmas = _sigmas(statistic, data, cfg, budget)
            direct = []
            for t in range(self.TRIALS):
                points = axis_draws(draws, t, sigmas)
                if statistic is Statistic.DISPERSION:
                    per_axis = [tmse_dispersion(data, _trial_draws(points, k))
                                for k in range(2 * data.d)]
                elif statistic is Statistic.Q:
                    per_axis = [tmse_q(data, ctx, _trial_draws(points, k))
                                for k in range(2 * data.d)]
                else:
                    axis = _trial_draws(points, 0)
                    q_noisy = evaluate_q_from_draws(data, ctx, axis)
                    q_true = true_value(Statistic.Q, data, ctx)
                    per_axis = [tmse_i_squared(data.n, q_true, q_noisy, axis.i2_noise)]
                direct.append(float(np.mean(per_axis)))
            assert report.tmse == pytest.approx(float(np.mean(direct)), rel=1e-12, abs=0.0), (
                statistic, cfg.setting
            )

    def test_single_release_uses_trial_seed_stream(self, budget2):
        data = _random_data()
        cfg = _cfg(setting=Setting.CENTRALIZED, seed=5)
        draws = trial_draws(Statistic.DISPERSION, cfg, data.d, 1)
        axis = _trial_draws(axis_draws(draws, 0, _sigmas(Statistic.DISPERSION, data, cfg, budget2)), 3)
        value = noisy_statistic(Statistic.DISPERSION, data, build_context(data), cfg, budget2)
        assert value == pytest.approx(dispersion_from_draws(data, axis), rel=1e-12, abs=0.0)

    def test_calibration_memo_calibrates_each_key_once(self, budget2, monkeypatch):
        import hetdp.estimators as estimators

        calls = []
        real = estimators.agm_sigma

        def counting(sens, epsilon, delta):
            calls.append((sens.delta_l2, epsilon, delta))
            return real(sens, epsilon, delta)

        monkeypatch.setattr(estimators, "agm_sigma", counting)
        ctx = build_context(_random_data())
        memo: dict = {}
        for statistic in (Statistic.DISPERSION, Statistic.Q):
            stage_sigmas(statistic, ctx, _cfg(), [budget2, budget2], memo)
        # both stages share one split part; the centralized error uses the total
        assert len(calls) == len(set(calls)) == len(memo) == 2


class TestSingleReleaseIsBatchedTrial:
    """noisy_statistic at seed s is trial 0 of error_report's release on
    trial_draws(..., s, T) bit for bit, and trial t of a T-trial batch is
    trial t of every longer one: each draw vector is filled in order by its
    own generator. Zero noise gives the true value bit for bit."""

    TRIALS = 12

    def test_single_release_is_trial_t_bit_for_bit(self):
        for data in (_random_data(), _constant_row_data()):
            ctx = build_context(data)
            for statistic, setting, mech in product(Statistic, Setting, Mechanism):
                budget = PrivacyBudget.equal_split(0.5, 1e-3, statistic.budget_parts)
                cfg = _cfg(setting, mech, seed=29)
                sigmas = stage_sigmas(statistic, ctx, cfg, [budget], {})

                def values(trials):
                    draws = trial_draws(statistic, cfg, data.d, trials)
                    released = _released(
                        statistic, data, ctx, release_noise(statistic, ctx, draws, sigmas)[0]
                    )
                    if statistic is Statistic.I_SQUARED:
                        released = i_squared_release(released, data.n, sigmas[0, 2] * draws.third)
                    return released

                batch = values(self.TRIALS)
                case = (statistic, setting, mech, data.n)
                for t in range(self.TRIALS):
                    assert values(t + 1)[t] == batch[t], (*case, t)
                assert noisy_statistic(statistic, data, ctx, cfg, budget) == batch[0], case
                zero = noisy_statistic(statistic, data, ctx, replace(cfg, zero_noise=True), budget)
                assert zero == true_value(statistic, data, ctx), case


class TestProjectedKernelAgainstDirectKernel:
    """The d-wide oracle path (unit normals, their projection X @ Z.T and
    tmse_kernel) against the direct X @ E.T - c @ E.T kernel on the same
    scaled draws E = sigma Z, and the library's releases on that path's law
    against the direct values. The direct cross term is zero only up to
    rounding, and sigma * (X @ Z.T) rounds differently from X @ (sigma Z).T,
    so they agree within a relative tolerance of 1e-12, not bit for bit."""

    TRIALS = 9

    def test_values_and_tmse_agree_within_rtol_1e_12(self):
        sigmas = set()
        for data in (_random_data(), _constant_row_data()):
            ctx = build_context(data)
            for statistic, setting, mech, epsilon in product(
                Statistic, Setting, Mechanism, (0.25, 0.5, 0.9)
            ):
                budget = PrivacyBudget.equal_split(epsilon, 1e-3, statistic.budget_parts)
                cfg = _cfg(setting, mech, seed=23)
                seeds = [derive_seed(cfg.seed, t) for t in range(self.TRIALS)]
                case = (statistic, setting, mech, epsilon, data.n)
                values, batch = _oracle_kernel(statistic, data, ctx, cfg, budget, seeds)
                direct, shifts = release_kernel_direct(statistic, data, ctx, batch)
                np.testing.assert_allclose(values, direct, rtol=1e-12, atol=0.0, err_msg=str(case))
                if statistic is not Statistic.I_SQUARED:
                    normals = unit_normals(statistic, cfg, data.d, seeds)
                    projected = project(data, normals.stages[:, : data.d])
                    row = stage_sigmas(statistic, ctx, cfg, [budget], {})
                    kernel = tmse_kernel(statistic, data, ctx, normals, projected, row)[0]
                    tmse = ((shifts + batch.stat_noise.sum(axis=1)) ** 2).mean(axis=0)
                    np.testing.assert_allclose(kernel, tmse, rtol=1e-12, atol=0.0,
                                               err_msg=str(case))
                sigmas.add(_sigmas(statistic, data, cfg, budget)[0])
        # two- and three-part splits, two mechanisms, three epsilons; a kernel
        # scaling ||z||^2 by sigma rather than sigma^2 agrees only at sigma 1
        assert len(sigmas) == 12 and 1.0 not in sigmas

    def test_zero_noise_is_the_true_value_bit_for_bit(self, budget2, budget3):
        for data in (_random_data(), _constant_row_data()):
            ctx = build_context(data)
            for statistic, setting in product(Statistic, Setting):
                budget = budget3 if statistic is Statistic.I_SQUARED else budget2
                cfg = _cfg(setting, zero=True)
                draws = trial_draws(statistic, cfg, data.d, 3)
                sigmas = stage_sigmas(statistic, ctx, cfg, [budget], {})
                noise = release_noise(statistic, ctx, draws, sigmas)
                values = _released(statistic, data, ctx, noise[0])
                errors = _library_tmse(statistic, data, ctx, draws, sigmas)
                base = Statistic.DISPERSION if statistic is Statistic.DISPERSION else Statistic.Q
                assert np.array_equal(values, np.full(3, true_value(base, data, ctx)))
                if statistic is Statistic.I_SQUARED:
                    assert errors is None
                else:
                    assert np.array_equal(errors, np.zeros((1, 3)))


class TestBudgetBatchAgainstDirectKernel:
    """One release call scores every budget of a cell: each budget's values
    and per-trial errors against the direct kernel on that budget's axis
    draws of the same trial, and a one-budget call against its slot."""

    TRIALS = 9
    EPSILONS = (0.25, 0.5, 0.9)
    #: Budget lists of B = 1 to 9 epsilons take their first B, in this order.
    MORE_EPSILONS = (0.25, 0.5, 0.9, 0.1, 0.75, 0.3, 0.6, 0.2, 0.95)

    def _cases(self, epsilons=EPSILONS):
        for data in (_random_data(), _constant_row_data()):
            ctx = build_context(data)
            for statistic, setting, mech in product(Statistic, Setting, Mechanism):
                budgets = [
                    PrivacyBudget.equal_split(epsilon, 1e-3, statistic.budget_parts)
                    for epsilon in epsilons
                ]
                cell = _cfg(setting, mech, seed=31)
                yield data, ctx, statistic, cell, budgets

    def test_each_budget_agrees_with_direct_kernel_within_rtol_1e_12(self):
        for data, ctx, statistic, cell, budgets in self._cases():
            draws = trial_draws(statistic, cell, data.d, self.TRIALS)
            sigmas = stage_sigmas(statistic, ctx, cell, budgets, {})
            noise = release_noise(statistic, ctx, draws, sigmas)
            values = _released(statistic, data, ctx, noise)
            errors = _library_tmse(statistic, data, ctx, draws, sigmas)
            assert values.shape == (3, self.TRIALS)
            assert (errors is None) == (statistic is Statistic.I_SQUARED)
            reports = error_reports(statistic, ctx, draws, sigmas)
            for b, budget in enumerate(budgets):
                case = (statistic, cell.setting, cell.mechanism, budget.epsilon, data.n)
                assert np.array_equal(sigmas[b], _sigmas(statistic, data, cell, budget)), case
                tmse = []
                for t in range(self.TRIALS):
                    direct, trial_tmse = _direct_on_axes(
                        statistic, data, ctx, axis_draws(draws, t, sigmas[b])
                    )
                    np.testing.assert_allclose(values[b, t], direct, rtol=1e-12, atol=0.0,
                                               err_msg=str(case))
                    tmse.append(trial_tmse)
                if statistic is Statistic.I_SQUARED:
                    q_true = true_value(Statistic.Q, data, ctx)
                    tmse = tmse_i_squared(data.n, q_true, values[b], sigmas[b, 2] * draws.third)
                else:
                    np.testing.assert_allclose(errors[b], tmse, rtol=1e-12, atol=0.0,
                                               err_msg=str(case))
                assert reports[b].tmse == pytest.approx(np.mean(tmse), rel=1e-12, abs=0.0), case

    @pytest.mark.parametrize("budget_count", [1, 2, 7, 9])
    @pytest.mark.parametrize("trials", [4, 20, 129])
    def test_one_budget_call_equals_its_slot_exactly(self, budget_count, trials):
        # error_reports reduces B x T arrays row-wise; each row must be the
        # one-row reduction of a single budget, bit for bit.
        for data, ctx, statistic, cell, budgets in self._cases(self.MORE_EPSILONS[:budget_count]):
            draws = trial_draws(statistic, cell, data.d, trials)
            sigmas = stage_sigmas(statistic, ctx, cell, budgets, {})
            noise = release_noise(statistic, ctx, draws, sigmas)
            errors = _library_tmse(statistic, data, ctx, draws, sigmas)
            reports = error_reports(statistic, ctx, draws, sigmas)
            for b, budget in enumerate(budgets):
                one = stage_sigmas(statistic, ctx, cell, [budget], {})
                case = (statistic, cell.setting, cell.mechanism, budget.epsilon, data.n)
                assert np.array_equal(one, sigmas[b : b + 1]), case
                one_noise = release_noise(statistic, ctx, draws, one)
                assert np.array_equal(one_noise[0], noise[b]), case
                if errors is not None:
                    one_errors = _library_tmse(statistic, data, ctx, draws, one)
                    assert np.array_equal(one_errors[0], errors[b]), case
                report = error_report(statistic, data, ctx, cell, budget, trials)
                assert report == reports[b], case

    def test_zero_noise_is_the_true_value_bit_for_bit(self):
        for data, ctx, statistic, cell, budgets in self._cases():
            cell = replace(cell, zero_noise=True)
            draws = trial_draws(statistic, cell, data.d, self.TRIALS)
            sigmas = stage_sigmas(statistic, ctx, cell, budgets, {})
            noise = release_noise(statistic, ctx, draws, sigmas)
            values = _released(statistic, data, ctx, noise)
            errors = _library_tmse(statistic, data, ctx, draws, sigmas)
            base = Statistic.DISPERSION if statistic is Statistic.DISPERSION else Statistic.Q
            assert np.array_equal(values, np.full((3, self.TRIALS), true_value(base, data, ctx)))
            assert errors is None or np.array_equal(errors, np.zeros((3, self.TRIALS)))
            for report in error_reports(statistic, ctx, draws, sigmas):
                assert report.emse == report.tmse == report.cmse == 0.0


def _no_calibration(monkeypatch):
    def calibrated(*args):
        raise AssertionError("calibrated a noise scale")

    for name in ("agm_sigma", "cgm_sigma"):
        monkeypatch.setattr(f"hetdp.estimators.{name}", calibrated)


class TestStageSigmas:
    """stage_sigmas is the only code that turns budgets into noise scales; the
    release, its TMSE and its reports are arithmetic on the array it returns."""

    EPSILONS = (0.25, 0.5, 0.9)

    def _budgets(self, statistic):
        return [PrivacyBudget.equal_split(e, 1e-3, statistic.budget_parts) for e in self.EPSILONS]

    def test_last_column_is_release_sigma_at_the_full_budget(self):
        data = _random_data()
        ctx = build_context(data)
        sens = SensitivitySpec.from_shape(data.n, data.d)
        for statistic, mech in product(Statistic, Mechanism):
            budgets = self._budgets(statistic)
            sigmas = stage_sigmas(statistic, ctx, _cfg(mech=mech), budgets, {})
            assert sigmas.shape == (3, statistic.budget_parts + 1)
            for row, budget in zip(sigmas, budgets):
                stages = [release_sigma(mech, sens, *part) for part in budget.split]
                full = release_sigma(mech, sens, budget.epsilon, budget.delta)
                assert list(row) == [*stages, full], (statistic, mech, budget.epsilon)

    def test_zero_noise_is_all_zeros_and_calibrates_nothing(self, monkeypatch):
        _no_calibration(monkeypatch)
        ctx = build_context(_random_data())
        for statistic in Statistic:
            budgets, memo = self._budgets(statistic), {}
            sigmas = stage_sigmas(statistic, ctx, _cfg(zero=True), budgets, memo)
            assert np.array_equal(sigmas, np.zeros((3, statistic.budget_parts + 1)))
            assert memo == {}
        with pytest.raises(AssertionError, match="calibrated"):
            stage_sigmas(statistic, ctx, _cfg(), budgets, {})

    def test_wrong_part_count_raises(self, budget2, budget3):
        ctx = build_context(_random_data())
        with pytest.raises(ValueError, match="i_squared needs a 3-part budget split, got 2"):
            stage_sigmas(Statistic.I_SQUARED, ctx, _cfg(), [budget3, budget2], {})
        with pytest.raises(ValueError, match="q needs a 2-part budget split, got 3"):
            stage_sigmas(Statistic.Q, ctx, _cfg(zero=True), [budget3], {})

    def test_release_and_errors_run_on_a_given_sigma_array(self, monkeypatch):
        data = _random_data()
        ctx = build_context(data)
        for statistic in Statistic:
            budgets = self._budgets(statistic)
            cell = _cfg(seed=19)
            sigmas = stage_sigmas(statistic, ctx, cell, budgets, {})
            draws = trial_draws(statistic, cell, data.d, 5)
            expected = (
                release_noise(statistic, ctx, draws, sigmas),
                _library_tmse(statistic, data, ctx, draws, sigmas),
                error_reports(statistic, ctx, draws, sigmas),
            )
            with monkeypatch.context() as patched:
                _no_calibration(patched)
                noise = release_noise(statistic, ctx, draws, sigmas)
                errors = _library_tmse(statistic, data, ctx, draws, sigmas)
                reports = error_reports(statistic, ctx, draws, sigmas)
            assert noise.shape == (3, 5) and np.array_equal(noise, expected[0])
            if statistic is Statistic.I_SQUARED:
                assert errors is None
            else:
                assert np.array_equal(errors, expected[1])
            assert reports == expected[2] and all(r.cmse > 0 for r in reports)


class TestSingleDrawDistribution:
    def test_single_draw_matches_share_simulation(self, budget2):
        # The distributed aggregate is drawn as one N(0, sigma^2) vector; the
        # mean of n simulated shares of variance n sigma^2 has the same law.
        data = _random_data(n=5, d=4)
        cfg = _cfg(setting=Setting.DISTRIBUTED, seed=12)
        batch = draw_noise(Statistic.DISPERSION, data, cfg, budget2, list(range(5000)))
        sigma = math.sqrt(batch.mean_noise_var)
        single = batch.mean_noise.ravel()
        rng = np.random.default_rng(99)
        shares = np.concatenate([share_aggregate(4, sigma, data.n, rng) for _ in range(5000)])
        for sample in (single, shares):
            assert abs(np.var(sample) / sigma**2 - 1.0) < 0.05
            assert abs(np.mean(sample)) < 4 * sigma / math.sqrt(sample.size)
        # a 5% quantile of 20000 normals has standard error 0.015 sigma, so
        # 0.1 sigma is over four standard errors of the two-sample gap
        quantiles = (0.05, 0.25, 0.5, 0.75, 0.95)
        gap = np.abs(np.quantile(single, quantiles) - np.quantile(shares, quantiles))
        assert np.all(gap < 0.1 * sigma)


def test_noise_rejects_mismatched_or_nonpositive_weights(fix, budget2):
    ctx = build_context(fix)
    cfg = _cfg()
    draws = trial_draws(Statistic.Q, cfg, fix.d, 1)
    sigmas = stage_sigmas(Statistic.Q, ctx, cfg, [budget2], {})
    # a context of another sample's size fails the public calls' check of the pair
    with pytest.raises(ValueError, match="context weights"):
        noisy_statistic(Statistic.Q, fix, replace(ctx, weights=np.ones(3)), cfg, budget2)
    with pytest.raises(ValueError, match=rf"mean \(3,\) do not match n=2, d={fix.d}$"):
        error_report(Statistic.Q, fix, replace(ctx, mean=np.zeros(3)), cfg, budget2, 2)
    for weights in (np.array([1.0, 0.0]), np.array([1.0, np.inf])):
        bad = replace(ctx, weights=weights)
        with pytest.raises(ValueError, match="context weights"):
            release_noise(Statistic.Q, bad, draws, sigmas)


def test_release_reads_no_row_of_the_sample(budget2, budget3):
    # A release and every error score read the context, never a row: they
    # are the same on an all-zero sample with the real context.
    data = _random_data()
    ctx = build_context(data)
    blank = VectorDataset(np.zeros_like(data.vectors), data.labels)
    cfg = _cfg(seed=13)
    for statistic in Statistic:
        budget = budget3 if statistic is Statistic.I_SQUARED else budget2
        value = noisy_statistic(statistic, data, ctx, cfg, budget)
        assert math.isfinite(value) and value == noisy_statistic(statistic, blank, ctx, cfg, budget)
        report = error_report(statistic, data, ctx, cfg, budget, 6)
        assert report.tmse > 0 and report == error_report(statistic, blank, ctx, cfg, budget, 6)


class TestSharedNormalsAgainstPerTrialDraws:
    """The oracle's block of d-wide unit normals, scaled for each dataset and
    epsilon, against per-trial generators that draw every stage at its own
    scale; the library's draws against one release's own generators."""

    TRIALS = 7

    def test_scaled_block_equals_per_trial_draws_exactly(self):
        # Two datasets of different n and two epsilons, so sigma differs.
        datasets = (_random_data(n=40, d=6, seed=9), _random_data(n=25, d=6, seed=3))
        for statistic, setting, mech in product(Statistic, Setting, Mechanism):
            parts = statistic.budget_parts
            cell = _cfg(setting, mech, seed=41)
            normals = trial_normals(statistic, cell, 6, self.TRIALS)
            seeds = [derive_seed(cell.seed, t) for t in range(self.TRIALS)]
            variances = set()
            for data, epsilon in product(datasets, (0.5, 0.9)):
                budget = PrivacyBudget.equal_split(epsilon, 1e-3, parts)
                shared = scaled_draws(statistic, data, cell, budget, normals)
                direct = draw_noise_per_trial(statistic, data, cell, budget, seeds)
                case = (statistic, setting, mech, data.n, epsilon)
                assert np.array_equal(shared.mean_noise, direct.mean_noise), case
                assert np.array_equal(shared.stat_noise, direct.stat_noise), case
                if statistic is Statistic.I_SQUARED:
                    assert np.array_equal(shared.i2_noise, direct.i2_noise), case
                else:
                    assert shared.i2_noise is None and direct.i2_noise is None
                assert (shared.mean_noise_var, shared.stat_noise_var, shared.i2_noise_var) == (
                    direct.mean_noise_var, direct.stat_noise_var, direct.i2_noise_var
                )
                variances.add(shared.mean_noise_var)

                # trial 0's centralized error is the one draw of the cell seed's generator
                shape = SensitivitySpec.from_shape(data.n, data.d)
                oracle = centralized_noisy(
                    0.0, (budget.epsilon, budget.delta), shape, data.d, cell
                )[0]
                report = error_report(statistic, data, build_context(data), cell, budget, 1)
                assert report.cmse == oracle**2, case
            assert len(variances) == 4

    def test_direct_report_draws_its_own_block(self, budget3):
        data = _random_data()
        cfg = _cfg(setting=Setting.CENTRALIZED, seed=17)
        draws = trial_draws(Statistic.I_SQUARED, cfg, data.d, self.TRIALS)
        ctx = build_context(data)
        sigmas = stage_sigmas(Statistic.I_SQUARED, ctx, cfg, [budget3], {})
        shared = error_reports(Statistic.I_SQUARED, ctx, draws, sigmas)
        assert [error_report(Statistic.I_SQUARED, data, ctx, cfg, budget3, self.TRIALS)] == shared

    def test_draws_must_fit_statistic_and_d(self, budget2, budget3):
        data = _random_data()
        ctx = build_context(data)
        draws = trial_draws(Statistic.DISPERSION, _cfg(), data.d, 4)
        sigmas = stage_sigmas(Statistic.I_SQUARED, ctx, _cfg(), [budget3], {})
        with pytest.raises(ValueError, match="do not fit i_squared"):
            release_noise(Statistic.I_SQUARED, ctx, draws, sigmas)
        narrow = trial_draws(Statistic.DISPERSION, _cfg(), data.d - 1, 4)
        sigmas = stage_sigmas(Statistic.DISPERSION, ctx, _cfg(), [budget2], {})
        with pytest.raises(ValueError, match="draws of d=5 do not fit dispersion, d=6"):
            error_reports(Statistic.DISPERSION, ctx, narrow, sigmas)

    def test_zero_noise_releases_are_exact(self, fix, zero_cfg, budget2, budget3):
        ctx = build_context(fix)
        for statistic, budget in (
            (Statistic.DISPERSION, budget2), (Statistic.Q, budget2),
            (Statistic.I_SQUARED, budget3),
        ):
            report = error_report(statistic, fix, ctx, zero_cfg, budget, 4)
            assert report.emse == report.tmse == report.cmse == 0.0
            assert noisy_statistic(statistic, fix, ctx, zero_cfg, budget) == true_value(
                statistic, fix, ctx
            )


def _ks_statistic(sample, cdf) -> float:
    """Kolmogorov-Smirnov distance of `sample` from the CDF values `cdf` of its sorted points."""
    n = len(sample)
    return float(max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max()))


def _ks_two_sample(a, b) -> float:
    points = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(np.sort(a), points, side="right") / len(a)
                        - np.searchsorted(np.sort(b), points, side="right") / len(b)).max())


#: Kolmogorov's c(alpha) at alpha = 0.001: a KS distance above
#: KS_C * sqrt(1/n) (one sample) or KS_C * sqrt(1/n + 1/m) (two samples) has
#: probability below 0.1% under the null, and the seeds are fixed.
KS_C = 1.95


class TestErrorLawAgainstVectorOracle:
    """The scalar draws of trial_draws against the d-wide trial path the
    oracle keeps, in law, on fixed seeds."""

    TRIALS = 2000

    def test_chi2_and_sum_draws_follow_their_laws(self):
        mpmath = pytest.importorskip("mpmath")
        for d in (1, 6, 784):
            draws = trial_draws(Statistic.I_SQUARED, _cfg(seed=100 + d), d, self.TRIALS)
            chi2 = np.sort(draws.chi2)
            cdf = np.array([float(mpmath.gammainc(d / 2, 0, x / 2, regularized=True))
                            for x in chi2])
            bound = KS_C / math.sqrt(self.TRIALS)
            assert _ks_statistic(chi2, cdf) < bound, d
            for normals in (draws.sums / math.sqrt(d), draws.third, draws.central):
                ordered = np.sort(normals)
                normal_cdf = np.array([std_normal_cdf(x) for x in ordered])
                assert _ks_statistic(ordered, normal_cdf) < bound, d

    def test_release_errors_match_the_oracle_in_law(self):
        bound = KS_C * math.sqrt(2 / self.TRIALS)
        seeds = [derive_seed(3, t) for t in range(self.TRIALS)]
        for data, statistic in product((_random_data(), _constant_row_data()), Statistic):
            ctx = build_context(data)
            cfg = _cfg(seed=3)
            budget = PrivacyBudget.equal_split(1.0, 1e-3, statistic.budget_parts)
            sigmas = stage_sigmas(statistic, ctx, cfg, [budget], {})
            draws = trial_draws(statistic, cfg, data.d, self.TRIALS)
            library = _released(statistic, data, ctx,
                                release_noise(statistic, ctx, draws, sigmas)[0])
            batch = draw_noise_per_trial(statistic, data, cfg, budget, seeds)
            direct = release_kernel_direct(statistic, data, ctx, batch)[0]
            if statistic is Statistic.I_SQUARED:
                library = i_squared_release(library, data.n, sigmas[0, 2] * draws.third)
                direct = i_squared_release(direct, data.n, batch.i2_noise)
            assert _ks_two_sample(library, direct) < bound, (statistic, data.n)

    def test_mean_tmse_matches_the_oracle_monte_carlo_mean(self):
        # The conditional TMSE has the per-trial TMSE's mean,
        # sigma_1^4 (d^2 + 2d) mean(w^2) + 4 sigma_1^2 mean(w^2 ||x_i - c||^2)
        # + d sigma_2^2: both Monte Carlo means lie within 4 standard errors
        # of it and of each other.
        for data, statistic, epsilon in product(
            (_random_data(), _constant_row_data()), (Statistic.DISPERSION, Statistic.Q),
            (0.25, 1.0, 5.0),
        ):
            ctx = build_context(data)
            cfg = _cfg(seed=int(4 * epsilon))
            budget = PrivacyBudget.equal_split(epsilon, 1e-3, 2)
            sigmas = stage_sigmas(statistic, ctx, cfg, [budget], {})
            library = _library_tmse(statistic, data, ctx,
                                    trial_draws(statistic, cfg, data.d, self.TRIALS), sigmas)[0]
            normals = trial_normals(statistic, cfg, data.d, self.TRIALS)
            projected = project(data, normals.stages[:, : data.d])
            oracle = tmse_kernel(statistic, data, ctx, normals, projected, sigmas)[0]
            if statistic is Statistic.DISPERSION:
                mean_sq_weight, moment = 1.0, ctx.dispersion
            else:
                mean_sq_weight, moment = float(np.mean(ctx.weights**2)), ctx.q_sq_weights
            d, (s1, s2) = data.d, sigmas[0, :2]
            expected = s1**4 * (d * d + 2 * d) * mean_sq_weight + 4 * s1**2 * moment + d * s2**2
            se = [sample.std() / math.sqrt(self.TRIALS) for sample in (library, oracle)]
            case = (statistic, epsilon, data.n)
            assert abs(library.mean() - oracle.mean()) < 4 * math.hypot(*se), case
            assert abs(library.mean() - expected) < 4 * se[0], case
            assert abs(oracle.mean() - expected) < 4 * se[1], case

    def test_tmse_is_never_below_the_squared_error(self):
        for data, statistic, epsilon in product(
            (_random_data(), _constant_row_data()), (Statistic.DISPERSION, Statistic.Q),
            (0.25, 1.0, 5.0),
        ):
            ctx = build_context(data)
            cfg = _cfg(seed=8)
            budget = PrivacyBudget.equal_split(epsilon, 1e-3, 2)
            sigmas = stage_sigmas(statistic, ctx, cfg, [budget], {})
            draws = trial_draws(statistic, cfg, data.d, self.TRIALS)
            noise = release_noise(statistic, ctx, draws, sigmas)
            tmse = conditional_tmse(statistic, ctx, draws, sigmas, noise)
            assert np.all(tmse >= noise**2), (statistic, epsilon, data.n)

    def test_draws_are_prefix_stable_across_trial_counts(self):
        for statistic, setting in product(Statistic, Setting):
            cfg = _cfg(setting, seed=61)
            long = trial_draws(statistic, cfg, 6, 50)
            for trials in (1, 5, 49):
                short = trial_draws(statistic, cfg, 6, trials)
                for name in ("chi2", "sums", "third", "central"):
                    full = getattr(long, name)
                    if full is None:
                        assert getattr(short, name) is None
                    else:
                        assert np.array_equal(getattr(short, name), full[:trials]), (name, trials)
