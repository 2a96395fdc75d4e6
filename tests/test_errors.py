"""Error analysis: closed-form MSEs, intervals, oracles, Monte Carlo reports."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    StageDraws,
    emse,
    release_from_draws,
    tmse_dispersion,
    tmse_q,
    variance_oracle_dispersion,
    variance_oracle_q,
)

from hetdp.errors import (
    DISPERSION_CI_CONSTANT,
    I_SQUARED_CI_CONSTANT,
    ci_half_width,
    derive_seed,
    error_report,
    tmse_i_squared,
)
from hetdp.estimators import (
    EstimatorConfig,
    Setting,
    Statistic,
    release_sigma,
    stage_sigmas,
)
from hetdp.gaussian import Mechanism, PrivacyBudget, SensitivitySpec
from hetdp.measures import VectorDataset, build_context

HAND_DRAWS = StageDraws(mean_noise=np.array([0.1, 0.1]), stat_noise=np.array([-0.01, 0.0]))


class TestClosedFormMse:
    def test_dispersion_hand_value(self, fix):
        # Row shifts 0.12 and -0.08, statistic noise -0.01:
        # mean of squares of [0.11, -0.09] is 0.0101.
        assert tmse_dispersion(fix, HAND_DRAWS) == pytest.approx(0.0101, abs=1e-15)

    def test_q_hand_value(self, fix):
        # Same shifts scaled by the row weights 16: [1.91, -1.29].
        ctx = build_context(fix)
        assert tmse_q(fix, ctx, HAND_DRAWS) == pytest.approx(2.6561, abs=1e-12)

    def test_i_squared_hand_value(self):
        # gap = 0.05 - 1/5 + 1/4 = 0.1, squared over n = 2.
        assert tmse_i_squared(2, 4.0, 5.0, 0.05) == pytest.approx(0.005, abs=1e-15)

    def test_i_squared_rejects_nonpositive_q(self):
        with pytest.raises(ValueError, match="positive"):
            tmse_i_squared(2, 0.0, 5.0, 0.05)
        with pytest.raises(ValueError, match="positive"):
            tmse_i_squared(2, 4.0, -1.0, 0.05)

    def test_missing_draws_rejected(self, fix):
        with pytest.raises(ValueError, match="mean-stage"):
            tmse_dispersion(fix, StageDraws(stat_noise=np.zeros(2)))
        with pytest.raises(ValueError, match="mean-stage"):
            tmse_q(fix, build_context(fix), StageDraws(mean_noise=np.zeros(2)))

    def test_dispersion_decomposition(self):
        # The closed form splits into the squared value shift plus four times
        # the mean squared projection of the mean noise onto the deviations;
        # the cross term cancels because deviations sum to zero.
        rng = np.random.default_rng(5)
        for trial in range(10):
            data = VectorDataset(rng.random((8, 4)), np.zeros(8, dtype=np.int64))
            draws = StageDraws(
                mean_noise=rng.normal(0, 0.1, 4), stat_noise=rng.normal(0, 0.1, 4)
            )
            ctx = build_context(data)
            value = release_from_draws(Statistic.DISPERSION, data, ctx, draws)
            truth = float(((data.vectors - ctx.mean) ** 2).sum(axis=1).mean())
            projections = (data.vectors - ctx.mean) @ draws.mean_noise
            decomposed = (value - truth) ** 2 + 4.0 * float((projections**2).mean())
            assert tmse_dispersion(data, draws) == pytest.approx(decomposed, rel=1e-10)


class TestConfidenceIntervals:
    def test_dispersion_hand_value(self):
        half = DISPERSION_CI_CONSTANT * 0.25 / 2.0
        assert ci_half_width(Statistic.DISPERSION, 4, None, 0.5) == pytest.approx(half, rel=1e-15)

    def test_q_sums_weighted_halves(self, fix):
        ctx = build_context(fix)
        half = ci_half_width(Statistic.Q, 2, ctx.weights, 0.5)
        per_row = DISPERSION_CI_CONSTANT * 16.0 * 0.25 / math.sqrt(2)
        assert half == pytest.approx(2 * per_row, rel=1e-12)

    def test_i_squared_hand_value(self, fix):
        ctx = build_context(fix)
        half = ci_half_width(Statistic.I_SQUARED, 2, ctx.weights, 0.5)
        per_row = I_SQUARED_CI_CONSTANT * 1.0 / (16.0 * math.sqrt(2) * 0.25)
        assert half == pytest.approx(2 * per_row, rel=1e-12)

    def test_zero_noise_zero_width(self, fix):
        ctx = build_context(fix)
        assert ci_half_width(Statistic.DISPERSION, 5, None, 0.0) == 0.0
        assert ci_half_width(Statistic.I_SQUARED, 2, ctx.weights, 0.0) == 0.0

    def test_interval_can_exceed_unit_range(self, fix):
        # The fraction's interval is reported unclamped and may spill outside
        # [0, 1] at small n and variance.
        ctx = build_context(fix)
        half = ci_half_width(Statistic.I_SQUARED, 2, ctx.weights, 0.05)
        assert 0.75 + half > 1.0
        assert 0.75 - half < 0.0

    @staticmethod
    def _variances():
        """Zero noise, then the uniform draws whose square differs between
        Python's float power (libm pow) and x * x (about one in a thousand
        under glibc), then plain draws over twelve decades."""
        rng = np.random.default_rng(27)
        draws = rng.random(100_000).tolist()
        pow_differs = [v for v in draws if v**2 != v * v]
        return np.array([0.0, *pow_differs, *draws[:500], *10.0 ** rng.uniform(-8, 4, 200)])

    @pytest.mark.parametrize("statistic", list(Statistic))
    def test_array_of_variances_equals_the_float_form_bit_for_bit(self, statistic):
        # Warnings are errors, so zero-noise I^2 must not divide by zero.
        weights = 1.0 / np.random.default_rng(28).uniform(0.01, 1.0, 50)
        variances = self._variances()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            widths = ci_half_width(statistic, 50, weights, variances)
            grid = ci_half_width(statistic, 50, weights, variances[:6].reshape(2, 3))
            singles = [ci_half_width(statistic, 50, weights, v) for v in variances.tolist()]
        assert all(type(width) is float for width in singles)
        assert widths.shape == variances.shape and grid.shape == (2, 3)
        assert np.array_equal(widths.view(np.int64), np.array(singles).view(np.int64))
        assert np.array_equal(grid.view(np.int64), widths[:6].reshape(2, 3).view(np.int64))
        assert widths[0] == singles[0] == 0.0

    def test_float_form_squares_by_python_float_power(self):
        # The reported intervals keep the float power's rounding.
        for v in self._variances().tolist():
            expected = DISPERSION_CI_CONSTANT * v**2 / math.sqrt(7)
            assert ci_half_width(Statistic.DISPERSION, 7, None, v) == expected

    @pytest.mark.parametrize("statistic", list(Statistic))
    def test_validation(self, fix, statistic):
        ctx = build_context(fix)
        with pytest.raises(ValueError, match=">= 1"):
            ci_half_width(statistic, 0, ctx.weights, 0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            ci_half_width(statistic, 2, ctx.weights, -0.1)


class TestIntervalConstants:
    def test_dispersion_constant_is_fourth_moment_spread(self):
        # Var of the fourth power of a standard normal is the eighth moment
        # minus the squared fourth moment: 7!! - (3!!)^2 = 105 - 9 = 96, and
        # 1.96 * sqrt(96) factors as 7.84 * sqrt(6).
        assert DISPERSION_CI_CONSTANT == pytest.approx(1.96 * math.sqrt(105.0 - 9.0), rel=1e-15)
        assert DISPERSION_CI_CONSTANT == pytest.approx(7.84 * math.sqrt(6.0), rel=1e-15)

    def test_i_squared_constant_rounds_the_beta_moment(self):
        # 4 * integral_0^1 x^4 (1 - x^2)^2 dx = 4 (1/5 - 2/7 + 1/9) = 32/315;
        # 1.96 * sqrt(32/315) = 0.6247..., printed as 0.625.
        moment = 4.0 * (1.0 / 5.0 - 2.0 / 7.0 + 1.0 / 9.0)
        assert moment == pytest.approx(32.0 / 315.0, rel=1e-14)
        assert abs(I_SQUARED_CI_CONSTANT - 1.96 * math.sqrt(moment)) < 1e-3


class TestIntervalScaling:
    @staticmethod
    def _half(n: int, d: int, epsilon: float, delta: float) -> float:
        sens = SensitivitySpec.from_shape(n, d)
        var = release_sigma(Mechanism.ANALYTIC, sens, epsilon, delta) ** 2
        return ci_half_width(Statistic.DISPERSION, n, None, var)

    def test_doubling_n_shrinks_by_two_to_the_4_5(self):
        # Noise scale is linear in sqrt(d)/n, the half-width is quartic in it
        # and carries another 1/sqrt(n): doubling n divides by 2**4.5.
        ratio = self._half(200, 16, 0.5, 0.05) / self._half(100, 16, 0.5, 0.05)
        assert ratio == pytest.approx(2.0**-4.5, rel=1e-9)

    def test_dispersion_half_strictly_decreasing_in_n(self):
        halves = [self._half(n, 16, 0.5, 0.05) for n in (50, 100, 200, 400, 800)]
        assert all(a > b for a, b in zip(halves, halves[1:]))

    def test_dispersion_half_strictly_decreasing_in_epsilon(self):
        halves = [self._half(100, 16, e, 0.05) for e in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(halves, halves[1:]))

    def test_q_half_strictly_decreasing_in_n_fixed_weights(self):
        weights = np.full(4, 9.0)

        def half(n):
            sens = SensitivitySpec.from_shape(n, 16)
            var = release_sigma(Mechanism.ANALYTIC, sens, 0.5, 0.05) ** 2
            return ci_half_width(Statistic.Q, n, weights, var)

        halves = [half(n) for n in (50, 100, 200, 400)]
        assert all(a > b for a, b in zip(halves, halves[1:]))

    def test_i_squared_half_strictly_increasing_in_n_fixed_weights(self):
        # With the weights held fixed the (n-1) growth and the shrinking
        # variance in the denominator both push the width up.
        weights = np.full(4, 9.0)

        def half(n):
            sens = SensitivitySpec.from_shape(n, 16)
            var = release_sigma(Mechanism.ANALYTIC, sens, 0.5, 0.05) ** 2
            return ci_half_width(Statistic.I_SQUARED, n, weights, var)

        halves = [half(n) for n in (50, 100, 200, 400)]
        assert all(a < b for a, b in zip(halves, halves[1:]))


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, 1, 2, 3) == derive_seed(42, 1, 2, 3)

    def test_path_and_order_sensitive(self):
        seen = {
            derive_seed(42),
            derive_seed(42, 0),
            derive_seed(42, 1),
            derive_seed(42, 0, 1),
            derive_seed(42, 1, 0),
            derive_seed(43, 0, 1),
        }
        assert len(seen) == 6

    def test_accepts_negative_and_wide_integers(self):
        value = derive_seed(-1, 2**70 + 5)
        assert 0 <= value < 2**64


class TestVarianceOracles:
    def test_dispersion_oracle_equals_summed_fourth_powers(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            data = VectorDataset(rng.random((7, 3)), np.zeros(7, dtype=np.int64))
            shift = rng.normal(0, 0.2, 3)
            gap = variance_oracle_dispersion(data, data.vectors.mean(axis=0) + shift)
            assert gap == pytest.approx(float((shift**4).sum()), rel=1e-9)

    def test_q_oracle_equals_mean_weight_squared_times_fourth_powers(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            data = VectorDataset(rng.random((7, 3)), np.zeros(7, dtype=np.int64))
            ctx = build_context(data)
            shift = rng.normal(0, 0.2, 3)
            gap = variance_oracle_q(data, ctx, ctx.weighted_mean + shift)
            expected = float(ctx.weights.mean()) ** 2 * float((shift**4).sum())
            assert gap == pytest.approx(expected, rel=1e-9)


class TestErrorReport:
    def test_zero_noise_all_zero(self, fix, zero_cfg, budget2, budget3):
        ctx = build_context(fix)
        for statistic, budget in (
            (Statistic.DISPERSION, budget2),
            (Statistic.Q, budget2),
            (Statistic.I_SQUARED, budget3),
        ):
            report = error_report(statistic, fix, ctx, zero_cfg, budget, trials=3)
            assert (report.emse, report.tmse, report.cmse) == (0.0, 0.0, 0.0)
            assert (report.sd_emse, report.sd_tmse) == (0.0, 0.0)
            assert report.ci_half_width == 0.0
            assert report.trials == 3

    def test_cmse_identical_across_statistics(self, fix, budget2, budget3):
        cfg = EstimatorConfig(
            mechanism=Mechanism.ANALYTIC,
            setting=Setting.DISTRIBUTED,
            seed=9,
        )
        ctx = build_context(fix)
        reports = [
            error_report(Statistic.DISPERSION, fix, ctx, cfg, budget2, trials=6),
            error_report(Statistic.Q, fix, ctx, cfg, budget2, trials=6),
            error_report(Statistic.I_SQUARED, fix, ctx, cfg, budget3, trials=6),
        ]
        assert reports[0].cmse == reports[1].cmse == reports[2].cmse

    def test_tmse_dominates_emse_for_dispersion_and_q(self, fix, budget2):
        # The closed form adds a nonnegative projection term on top of the
        # squared value shift, so trial by trial it can only exceed the
        # empirical square.
        cfg = EstimatorConfig(
            mechanism=Mechanism.ANALYTIC,
            setting=Setting.DISTRIBUTED,
            seed=21,
        )
        for statistic in (Statistic.DISPERSION, Statistic.Q):
            report = error_report(statistic, fix, build_context(fix), cfg, budget2, trials=40)
            assert report.tmse >= report.emse > 0

    def test_ci_comes_from_first_trial_draws(self, fix, budget2):
        cfg = EstimatorConfig(
            mechanism=Mechanism.ANALYTIC,
            setting=Setting.DISTRIBUTED,
            seed=33,
        )
        report = error_report(Statistic.DISPERSION, fix, build_context(fix), cfg, budget2, trials=5)
        first_cfg = replace(cfg, seed=derive_seed(cfg.seed, 0))
        sigmas = stage_sigmas(Statistic.DISPERSION, build_context(fix), first_cfg, [budget2], {})
        expected = ci_half_width(Statistic.DISPERSION, fix.n, None, sigmas[0, 0] ** 2)
        assert report.ci_half_width == expected

    def test_trials_validated(self, fix, zero_cfg, budget2):
        with pytest.raises(ValueError, match="trials"):
            error_report(Statistic.DISPERSION, fix, build_context(fix), zero_cfg, budget2, trials=0)

    def test_emse_wrapper_matches_report(self, fix, budget2):
        cfg = EstimatorConfig(
            mechanism=Mechanism.ANALYTIC,
            setting=Setting.DISTRIBUTED,
            seed=4,
        )
        ctx = build_context(fix)
        report = error_report(Statistic.DISPERSION, fix, ctx, cfg, budget2, trials=8)
        assert emse(Statistic.DISPERSION, fix, ctx, cfg, budget2, trials=8) == (
            report.emse, report.sd_emse
        )

    def test_i_squared_emse_and_tmse_agree_when_unclamped(self, fix, budget3):
        # While the noisy fraction stays in range the empirical and closed
        # forms score the same gap, both divided by n.
        cfg = EstimatorConfig(
            mechanism=Mechanism.ANALYTIC,
            setting=Setting.DISTRIBUTED,
            seed=2,
        )
        budget = replace(budget3, epsilon=5.0, split=PrivacyBudget.equal_split(5.0, 0.1, 3).split)
        report = error_report(Statistic.I_SQUARED, fix, build_context(fix), cfg, budget, trials=30)
        assert report.emse == pytest.approx(report.tmse, rel=1e-9)
