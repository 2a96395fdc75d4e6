"""Noise calibration: normal CDF oracle, both calibrations, budget splits."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    achieved_delta_high_noise,
    achieved_delta_low_noise,
    agm_sigma_per_branch,
    largest_nonpositive,
    smallest_nonpositive,
)

from hetdp import gaussian
from hetdp.gaussian import (
    ConvergenceError,
    Mechanism,
    NoiseBranch,
    PrivacyBudget,
    SensitivitySpec,
    achieved_delta,
    agm_sigma,
    cgm_sigma,
    std_normal_cdf,
)

SENS = SensitivitySpec(delta_l2=0.08)

# Frozen against a 40-digit quadrature of the normal density.
PHI_ORACLE = {
    -3.5: 0.00023262907903552504,
    -1.0: 0.15865525393145705,
    -0.25: 0.40129367431707628,
    0.0: 0.5,
    0.3: 0.61791142218895264,
    1.0: 0.84134474606854295,
    2.5: 0.99379033467422386,
}

# achieved_delta frozen at 40 digits for spot arguments (sigma, delta_l2, eps).
ACHIEVED_ORACLE = {
    (1.0, 0.08, 0.25): 2.2108511141468311e-05,
    (0.5, 1.0, 1.0): 0.50986166005467015,
    (2.0, 1.0, 0.5): 0.052440323287669662,
}


class TestNormalCdf:
    def test_matches_quadrature_oracle(self):
        for t, expected in PHI_ORACLE.items():
            assert std_normal_cdf(t) == pytest.approx(expected, abs=1e-15)

    def test_symmetry(self):
        for t in (0.1, 0.7, 1.3, 2.9):
            assert std_normal_cdf(t) + std_normal_cdf(-t) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            std_normal_cdf(math.nan)
        with pytest.raises(ValueError):
            std_normal_cdf(math.inf)

    @given(st.floats(-8, 8), st.floats(-8, 8))
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert std_normal_cdf(lo) <= std_normal_cdf(hi)


class TestAchievedDelta:
    def test_matches_frozen_values(self):
        for (sigma, dl2, eps), expected in ACHIEVED_ORACLE.items():
            assert achieved_delta(sigma, dl2, eps) == pytest.approx(expected, rel=1e-13)

    def test_decreasing_in_sigma(self):
        values = [achieved_delta(s, 1.0, 0.5) for s in (0.3, 0.6, 1.2, 2.4, 4.8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_branch_parameterizations_meet_at_origin(self):
        # Both reparameterized slack curves equal the branch-point slack at 0,
        # which is achieved_delta at sigma = delta_l2 / sqrt(2 eps).
        for eps in (0.25, 1.0, 3.0):
            sigma0 = 1.0 / math.sqrt(2.0 * eps)
            d0 = achieved_delta(sigma0, 1.0, eps)
            assert achieved_delta_low_noise(eps, 0.0) == pytest.approx(d0, rel=1e-12)
            assert achieved_delta_high_noise(eps, 0.0) == pytest.approx(d0, rel=1e-12)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            achieved_delta(0.0, 1.0, 0.5)


class TestClassicalCalibration:
    def test_closed_form_hand_value(self):
        # 0.08 * sqrt(2 ln(1.25e5)) / 0.25, frozen at 40 digits.
        result = cgm_sigma(SENS, 0.25, 1e-5)
        assert result.sigma == pytest.approx(1.5503376840337246, rel=1e-15)
        assert result.mechanism is Mechanism.CLASSICAL

    def test_rejects_epsilon_at_or_above_one(self):
        for eps in (1.0, 1.5, 10.0):
            with pytest.raises(ValueError, match="only valid for epsilon < 1"):
                cgm_sigma(SENS, eps, 1e-5)

    def test_rejects_bad_epsilon_and_delta(self):
        with pytest.raises(ValueError):
            cgm_sigma(SENS, 0.0, 1e-5)
        with pytest.raises(ValueError):
            cgm_sigma(SENS, -0.5, 1e-5)
        with pytest.raises(ValueError):
            cgm_sigma(SENS, 0.5, 0.0)
        with pytest.raises(ValueError):
            cgm_sigma(SENS, 0.5, 1.0)

    def test_scales_linearly_in_sensitivity(self):
        lo = cgm_sigma(SensitivitySpec(0.04), 0.5, 1e-5).sigma
        hi = cgm_sigma(SensitivitySpec(0.08), 0.5, 1e-5).sigma
        assert hi == pytest.approx(2.0 * lo, rel=1e-15)


def _bisect_sigma_directly(dl2, eps, delta):
    """Independent oracle: bisect achieved_delta(sigma) = delta in sigma space."""
    lo, hi = 1e-12, 1.0
    while achieved_delta(hi, dl2, eps) > delta:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if achieved_delta(mid, dl2, eps) > delta:
            lo = mid
        else:
            hi = mid
    return hi


class TestAnalyticCalibration:
    GRID = [(e, d) for e in (0.25, 0.5, 1.0, 2.0, 5.0) for d in (1e-5, 0.1)]

    def test_tight_on_grid(self):
        for eps, delta in self.GRID:
            sigma = agm_sigma(SENS, eps, delta).sigma
            slack = achieved_delta(sigma, SENS.delta_l2, eps)
            assert delta - 1e-9 < slack <= delta, (eps, delta, slack)

    def test_matches_direct_sigma_bisection(self):
        # Both searches stop on a slack tolerance, so their sigmas can differ
        # by more than that where the slack curve is flat in sigma.
        for eps, delta in self.GRID:
            sigma = agm_sigma(SENS, eps, delta).sigma
            oracle = _bisect_sigma_directly(SENS.delta_l2, eps, delta)
            assert sigma == pytest.approx(oracle, rel=1e-7), (eps, delta)

    def test_beats_classical_below_epsilon_one(self):
        for eps in (0.05, 0.25, 0.5, 0.9):
            for delta in (1e-7, 1e-5, 0.01, 0.1):
                a = agm_sigma(SENS, eps, delta).sigma
                c = cgm_sigma(SENS, eps, delta).sigma
                assert a < c, (eps, delta)

    def test_noise_ratio_at_quarter_epsilon(self):
        # Known calibration ratio at eps=0.25, delta=1e-5: 0.6856 to 4 places.
        ratio = agm_sigma(SENS, 0.25, 1e-5).sigma / cgm_sigma(SENS, 0.25, 1e-5).sigma
        assert ratio == pytest.approx(0.6856, abs=5e-5)

    def test_monotone_in_epsilon_and_delta(self):
        sigmas_eps = [agm_sigma(SENS, e, 1e-5).sigma for e in (0.25, 0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(sigmas_eps, sigmas_eps[1:]))
        sigmas_delta = [agm_sigma(SENS, 0.5, d).sigma for d in (1e-8, 1e-5, 1e-3, 0.1)]
        assert all(a > b for a, b in zip(sigmas_delta, sigmas_delta[1:]))

    def test_sensitivity_doubling_doubles_sigma(self):
        base = agm_sigma(SensitivitySpec(0.04), 0.5, 1e-5).sigma
        doubled = agm_sigma(SensitivitySpec(0.08), 0.5, 1e-5).sigma
        assert doubled == pytest.approx(2.0 * base, rel=1e-9)

    def test_branch_selection(self):
        # Large delta sits on the low-noise branch (alpha <= 1), tiny delta on
        # the high-noise branch (alpha > 1); the split is at the slack of
        # sigma = delta_l2 / sqrt(2 eps).
        sigma0 = SENS.delta_l2 / math.sqrt(2.0 * 0.5)
        delta0 = achieved_delta(sigma0, SENS.delta_l2, 0.5)
        low = agm_sigma(SENS, 0.5, min(0.9, delta0 * 2))
        high = agm_sigma(SENS, 0.5, delta0 / 2)
        assert low.branch is NoiseBranch.LOW_NOISE and low.alpha <= 1.0
        assert high.branch is NoiseBranch.HIGH_NOISE and high.alpha > 1.0
        assert low.delta0 == pytest.approx(delta0, rel=1e-12)

    def test_alpha_consistency(self):
        result = agm_sigma(SENS, 0.5, 1e-5)
        assert result.sigma == pytest.approx(
            result.alpha * SENS.delta_l2 / math.sqrt(2.0 * 0.5), rel=1e-15
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            agm_sigma(SENS, 0.0, 1e-5)
        with pytest.raises(ValueError):
            agm_sigma(SENS, 0.5, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.01, 5.0, allow_nan=False),
        st.floats(1e-8, 0.5, allow_nan=False),
    )
    def test_always_private_never_slack(self, eps, delta):
        sigma = agm_sigma(SENS, eps, delta).sigma
        slack = achieved_delta(sigma, SENS.delta_l2, eps)
        assert slack <= delta
        assert slack > delta - 1e-9


class TestPrivacyClaimAgainstMpmath:
    """The true delta of agm_sigma's sigma, evaluated in 60-digit arithmetic,
    is at most the delta it was calibrated to. The log grid reaches large
    epsilon, where (1 + erf) / 2 cancels; delta near 1e-12, where an absolute
    1e-12 slack is as large as delta; and epsilon near MAX_EPSILON, where
    Phi(-h - s) is subnormal."""

    EPSILONS = [min(gaussian.MAX_EPSILON, 0.01 * (gaussian.MAX_EPSILON / 0.01) ** (i / 30))
                for i in range(31)]
    DELTAS = [1e-12 * (0.5 / 1e-12) ** (j / 6) for j in range(7)]

    @pytest.mark.parametrize("delta_l2", [1.0, math.sqrt(8) / 2000])
    def test_true_delta_at_most_the_claim(self, delta_l2):
        mpmath = pytest.importorskip("mpmath")
        over = []
        with mpmath.workdps(60):
            for eps in self.EPSILONS:
                for delta in self.DELTAS:
                    sigma = mpmath.mpf(agm_sigma(SensitivitySpec(delta_l2), eps, delta).sigma)
                    h, s = delta_l2 / (2 * sigma), eps * sigma / delta_l2
                    true = mpmath.ncdf(h - s) - mpmath.exp(eps) * mpmath.ncdf(-h - s)
                    if true > delta:
                        over.append((eps, delta, float(true / delta)))
        assert not over


class TestOneRootFinder:
    """The branch-parameterized finder against one finder per branch."""

    # 5 sensitivities x 10 epsilons x 10 deltas, log-spaced over their ranges.
    GRID = [
        (10.0 ** (-4 + 5.477 * i / 4), 10.0 ** (-2 + 3.699 * j / 9), 10.0 ** (-12 + 11.954 * k / 9))
        for i in range(5) for j in range(10) for k in range(10)
    ]

    def test_bit_identical_with_equal_slack_evaluations(self, monkeypatch):
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return achieved_delta(*args)

        monkeypatch.setattr(gaussian, "achieved_delta", counted)
        branches = set()
        for dl2, eps, delta in self.GRID:
            sens = SensitivitySpec(dl2)
            calls[0] = 0
            merged = agm_sigma(sens, eps, delta)
            merged_calls, calls[0] = calls[0], 0
            reference = agm_sigma_per_branch(sens, eps, delta)
            case = (dl2, eps, delta)
            assert merged.branch is reference.branch, case
            for name in ("sigma", "alpha", "root", "delta0"):
                assert getattr(merged, name) == getattr(reference, name), (name, case)
            assert merged_calls == calls[0], case
            branches.add(merged.branch)
        assert branches == set(NoiseBranch)

    @pytest.mark.parametrize(
        "g, nondecreasing",
        [
            (lambda x: 1.0, True),  # no satisfying point at the origin
            (lambda x: -1.0, True),  # bracketing never leaves the satisfying side
            (lambda x: 1.0, False),  # bracketing never reaches it
            (lambda x: -1.0 if x <= 0.3 else 1.0, True),  # a step: bisection never converges
            (lambda x: 1.0 if x < 0.3 else -1.0, False),
        ],
    )
    def test_same_failures(self, g, nondecreasing):
        reference = largest_nonpositive if nondecreasing else smallest_nonpositive
        with pytest.raises(ConvergenceError) as expected:
            reference(g, 1e-12)
        with pytest.raises(ConvergenceError) as raised:
            gaussian._nonpositive_end(g, 1e-12, nondecreasing)
        assert str(raised.value) == str(expected.value)
        assert raised.value.bracket == expected.value.bracket


class TestSensitivitySpec:
    def test_default_shape_sensitivity(self):
        assert SensitivitySpec.from_shape(100, 64).delta_l2 == pytest.approx(
            math.sqrt(64) / 100, rel=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SensitivitySpec(delta_l2=0.0)
        with pytest.raises(ValueError):
            SensitivitySpec.from_shape(0, 4)
        with pytest.raises(ValueError):
            SensitivitySpec.from_shape(10, 0)


class TestPrivacyBudget:
    def test_equal_split_sums_exactly(self):
        for parts in (1, 2, 3, 7):
            budget = PrivacyBudget.equal_split(0.25, 0.1, parts)
            assert math.fsum(e for e, _ in budget.split) == pytest.approx(0.25, abs=0)
            assert math.fsum(d for _, d in budget.split) == pytest.approx(0.1, abs=0)
            assert len(budget.split) == parts

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-6, 700.0), st.floats(1e-12, 0.999), st.integers(1, 12))
    def test_equal_split_is_the_equal_shares_and_their_remainder(self, epsilon, delta, parts):
        eps_part, delta_part = epsilon / parts, delta / parts
        expected = [(eps_part, delta_part)] * (parts - 1)
        expected.append((epsilon - (parts - 1) * eps_part, delta - (parts - 1) * delta_part))
        assert PrivacyBudget.equal_split(epsilon, delta, parts).split == tuple(expected)

    def test_epsilon_where_exp_overflows_is_rejected(self):
        assert math.exp(gaussian.MAX_EPSILON) < math.inf
        PrivacyBudget.equal_split(gaussian.MAX_EPSILON, 0.1, 3)
        agm_sigma(SENS, gaussian.MAX_EPSILON, 1e-5)
        above = math.nextafter(gaussian.MAX_EPSILON, math.inf)
        for build in (lambda: PrivacyBudget.equal_split(above, 0.1, 2),
                      lambda: agm_sigma(SENS, above, 1e-5), lambda: agm_sigma(SENS, 1000.0, 1e-5)):
            with pytest.raises(ValueError, match="where e\\^epsilon overflows"):
                build()

    def test_from_fractions(self):
        budget = PrivacyBudget.from_fractions(1.0, 0.1, (0.5, 0.25, 0.25))
        assert budget.split[0] == (0.5, 0.05)
        assert math.fsum(e for e, _ in budget.split) == pytest.approx(1.0, abs=0)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            PrivacyBudget.from_fractions(1.0, 0.1, (0.5, 0.6))
        with pytest.raises(ValueError):
            PrivacyBudget.from_fractions(1.0, 0.1, (1.5, -0.5))
        with pytest.raises(ValueError):
            PrivacyBudget.from_fractions(1.0, 0.1, ())

    @pytest.mark.parametrize("build, message", [
        (lambda: PrivacyBudget(1.0, 0.1, ((1.0, 0.05), (0.0, 0.05))),
         "split part 1 has invalid epsilon 0.0"),
        (lambda: PrivacyBudget(1.0, 0.1, ((0.5, 0.1), (0.5, 1.0))),
         "split part 1 has delta 1.0 outside (0, 1)"),
        (lambda: PrivacyBudget(1.0, 0.1, ((0.5, 0.02), (0.5, 0.02))),
         "split deltas sum to 0.04, expected 0.1"),
        (lambda: PrivacyBudget.equal_split(1.0, 0.1, 0), "parts must be >= 1, got 0"),
    ])
    def test_each_part_is_checked(self, build, message):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message

    def test_split_consistency_enforced(self):
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=1.0, delta=0.1, split=((0.4, 0.05), (0.4, 0.05)))
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=1.0, delta=0.1, split=())
