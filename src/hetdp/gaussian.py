"""Gaussian noise calibration for (epsilon, delta)-differential privacy.

Two calibrations are provided. The classical closed form
``sigma = delta_l2 * sqrt(2 ln(1.25/delta)) / epsilon`` is simple but only
valid for ``0 < epsilon < 1``. The analytic calibration numerically inverts
the exact privacy condition of the Gaussian mechanism,

    achieved_delta(sigma) = Phi(delta_l2/(2 sigma) - epsilon sigma/delta_l2)
                            - e^epsilon * Phi(-delta_l2/(2 sigma) - epsilon sigma/delta_l2),

is valid for every ``epsilon > 0``, and always needs less noise than the
classical form on the latter's validity range. Both read one number of the
release, its L2 sensitivity (`SensitivitySpec`); `SensitivitySpec.from_shape`
derives the default sqrt(d)/n of a mean of n vectors in [0,1]^d. Every
epsilon lies in (0, MAX_EPSILON], where e^epsilon is a finite float. One
rule builds a budget's split: its last part is what the leading parts leave.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

#: Largest epsilon whose e^epsilon is a finite float (about 709.78).
MAX_EPSILON = math.log(sys.float_info.max)
_SQRT2 = math.sqrt(2.0)
_MAX_SOLVER_STEPS = 200
#: Largest slack delta - achieved_delta(sigma) the analytic calibration leaves.
_AGM_TOL = 1e-12


class Mechanism(enum.Enum):
    """Which calibration produced a noise scale."""

    CLASSICAL = "classical"
    ANALYTIC = "analytic"


class NoiseBranch(enum.Enum):
    """Side of the analytic calibration's branch point the solver ran on.

    LOW_NOISE applies when the requested delta is at least the branch-point
    value delta0 (noise ratio alpha <= 1); HIGH_NOISE when it is below
    (alpha > 1).
    """

    LOW_NOISE = "low_noise"
    HIGH_NOISE = "high_noise"


def _check_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if epsilon > MAX_EPSILON:
        raise ValueError(f"epsilon must be at most {MAX_EPSILON!r}, where e^epsilon "
                         f"overflows, got {epsilon!r}")


class ConvergenceError(RuntimeError):
    """Root search exceeded its iteration cap; carries the last bracket."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(f"{message} (bracket [{bracket[0]!r}, {bracket[1]!r}])")
        self.bracket = bracket


@dataclass(frozen=True)
class SensitivitySpec:
    """L2 sensitivity of a release: the one number a calibration reads.

    Attributes:
        delta_l2: L2 sensitivity of the released function.
    """

    delta_l2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta_l2) and self.delta_l2 > 0):
            raise ValueError(f"L2 sensitivity must be positive and finite, got {self.delta_l2!r}")

    @classmethod
    def from_shape(cls, n: int, d: int) -> "SensitivitySpec":
        """Default sensitivity sqrt(d)/n of the mean of n vectors in [0,1]^d."""
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
        return cls(delta_l2=math.sqrt(d) / n)


@dataclass(frozen=True)
class PrivacyBudget:
    """Total (epsilon, delta) budget and its division into per-release parts.

    The split is a tuple of (epsilon_i, delta_i) pairs, one per noisy release;
    parts are consumed left to right by the estimators.
    """

    epsilon: float
    delta: float
    split: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not self.split:
            raise ValueError("budget split needs at least one part")
        for i, (eps_i, delta_i) in enumerate(self.split):
            if not (math.isfinite(eps_i) and eps_i > 0):
                raise ValueError(f"split part {i} has invalid epsilon {eps_i!r}")
            if not 0.0 < delta_i < 1.0:
                raise ValueError(f"split part {i} has delta {delta_i!r} outside (0, 1)")
        eps_sum = math.fsum(e for e, _ in self.split)
        delta_sum = math.fsum(d for _, d in self.split)
        if abs(eps_sum - self.epsilon) > 1e-9 * self.epsilon:
            raise ValueError(f"split epsilons sum to {eps_sum!r}, expected {self.epsilon!r}")
        if abs(delta_sum - self.delta) > 1e-9 * self.delta:
            raise ValueError(f"split deltas sum to {delta_sum!r}, expected {self.delta!r}")

    @classmethod
    def equal_split(cls, epsilon: float, delta: float, parts: int) -> "PrivacyBudget":
        """Divide (epsilon, delta) into `parts` equal shares, the last one the remainder."""
        if parts < 1:
            raise ValueError(f"parts must be >= 1, got {parts}")
        return cls._with_remainder(epsilon, delta, [(epsilon / parts, delta / parts)] * (parts - 1))

    @classmethod
    def from_fractions(
        cls, epsilon: float, delta: float, fractions: tuple[float, ...]
    ) -> "PrivacyBudget":
        """Divide (epsilon, delta) according to positive fractions summing to 1."""
        if not fractions:
            raise ValueError("need at least one fraction")
        if any(not (math.isfinite(f) and f > 0) for f in fractions):
            raise ValueError(f"fractions must all be positive, got {fractions!r}")
        if abs(math.fsum(fractions) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {math.fsum(fractions)!r}")
        leading = [(epsilon * f, delta * f) for f in fractions[:-1]]
        return cls._with_remainder(epsilon, delta, leading)

    @classmethod
    def _with_remainder(cls, epsilon: float, delta: float, leading: list) -> "PrivacyBudget":
        """The split into the `leading` parts, then what they leave of
        (epsilon, delta), so the parts sum back to the total exactly."""
        rest = (epsilon - math.fsum(e for e, _ in leading),
                delta - math.fsum(d for _, d in leading))
        return cls(epsilon=epsilon, delta=delta, split=(*leading, rest))


@dataclass(frozen=True)
class CalibrationResult:
    """Noise scale produced by a calibration, with solver internals.

    alpha, delta0, root and branch are populated by the analytic calibration
    only; sigma = alpha * delta_l2 / sqrt(2 epsilon) there.
    """

    mechanism: Mechanism
    sigma: float
    alpha: float | None = None
    delta0: float | None = None
    root: float | None = None
    branch: NoiseBranch | None = None


def std_normal_cdf(t: float) -> float:
    """Standard normal CDF, Phi(t) = (1 + erf(t/sqrt(2))) / 2.

    Args:
        t: finite evaluation point.

    Returns:
        Phi(t) in [0, 1]; exact 0.0 / 1.0 in the extreme tails.

    Raises:
        ValueError: if t is NaN or infinite.
    """
    if not math.isfinite(t):
        raise ValueError(f"standard normal CDF needs a finite argument, got {t!r}")
    return 0.5 * (1.0 + math.erf(t / _SQRT2))


def achieved_delta(sigma: float, delta_l2: float, epsilon: float) -> float:
    """Exact additive privacy slack of a Gaussian release at scale sigma.

    A Gaussian mechanism with this sigma and L2 sensitivity delta_l2 is
    (epsilon, delta)-private exactly when the returned value is <= delta.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    half_ratio = delta_l2 / (2.0 * sigma)
    shift = epsilon * sigma / delta_l2
    return std_normal_cdf(half_ratio - shift) - math.exp(epsilon) * std_normal_cdf(
        -half_ratio - shift
    )


def _alpha_low_noise(v: float) -> float:
    # 1/(sqrt(1+v/2) + sqrt(v/2)) == sqrt(1+v/2) - sqrt(v/2), cancellation-free.
    return 1.0 / (math.sqrt(1.0 + 0.5 * v) + math.sqrt(0.5 * v))


def _alpha_high_noise(u: float) -> float:
    return math.sqrt(1.0 + 0.5 * u) + math.sqrt(0.5 * u)


def cgm_sigma(sens: SensitivitySpec, epsilon: float, delta: float) -> CalibrationResult:
    """Classical Gaussian calibration sigma = delta_l2 sqrt(2 ln(1.25/delta)) / epsilon.

    Args:
        sens: sensitivity of the release.
        epsilon: privacy parameter; the classical form is only valid below 1.
        delta: additive privacy parameter in (0, 1).

    Returns:
        CalibrationResult with mechanism CLASSICAL.

    Raises:
        ValueError: if epsilon >= 1 (outside the classical validity range;
            the analytic calibration covers larger epsilon), or
            if epsilon is not in (0, MAX_EPSILON] or delta is outside (0, 1).
    """
    _check_epsilon(epsilon)
    if epsilon >= 1:
        raise ValueError(
            f"classical calibration is only valid for epsilon < 1, got {epsilon!r}; "
            "use the analytic calibration for larger epsilon"
        )
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    sigma = sens.delta_l2 * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon
    return CalibrationResult(mechanism=Mechanism.CLASSICAL, sigma=sigma)


def check_classical_range(mechanisms, epsilons) -> None:
    """Raise ValueError if the classical calibration is paired with an epsilon >= 1."""
    if Mechanism.CLASSICAL in mechanisms and any(e >= 1.0 for e in epsilons):
        raise ValueError(
            "the classical calibration is only defined for epsilon < 1; "
            "drop classical or restrict the epsilon grid"
        )


def agm_sigma(sens: SensitivitySpec, epsilon: float, delta: float) -> CalibrationResult:
    """Analytic Gaussian calibration: minimal sigma with achieved_delta <= delta.

    Solves achieved_delta(sigma) = delta by exponential bracketing plus
    bisection on a branch-dependent reparameterization
    sigma = alpha(x) * delta_l2 / sqrt(2 epsilon). The bisection evaluates the
    privacy slack through sigma itself, so the returned scale satisfies
    achieved_delta(sigma) <= delta bit-for-bit, with slack at most 1e-12.

    Args:
        sens: sensitivity of the release.
        epsilon: privacy parameter, any value in (0, MAX_EPSILON].
        delta: additive privacy parameter in (0, 1).

    Returns:
        CalibrationResult with mechanism ANALYTIC and solver internals
        (alpha, delta0, root, branch) populated.

    Raises:
        ValueError: on epsilon outside (0, MAX_EPSILON] or delta outside (0, 1).
        ConvergenceError: if the root search exceeds its iteration cap.
    """
    _check_epsilon(epsilon)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")

    delta_l2 = sens.delta_l2
    scale_unit = delta_l2 / math.sqrt(2.0 * epsilon)
    # alpha = 1 at the branch point on either side, so this is delta0.
    delta0 = achieved_delta(scale_unit, delta_l2, epsilon)

    if delta >= delta0:
        branch = NoiseBranch.LOW_NOISE
        alpha_of = _alpha_low_noise
    else:
        branch = NoiseBranch.HIGH_NOISE
        alpha_of = _alpha_high_noise

    def slack_gap(x: float) -> float:
        return achieved_delta(alpha_of(x) * scale_unit, delta_l2, epsilon) - delta

    root = _nonpositive_end(slack_gap, _AGM_TOL, branch is NoiseBranch.LOW_NOISE)
    alpha = alpha_of(root)
    return CalibrationResult(
        mechanism=Mechanism.ANALYTIC,
        sigma=alpha * scale_unit,
        alpha=alpha,
        delta0=delta0,
        root=root,
        branch=branch,
    )


def _nonpositive_end(g, tol: float, nondecreasing: bool) -> float:
    """Largest x >= 0 with g(x) <= 0 for nondecreasing g with g(0) <= 0, or
    smallest for nonincreasing g with g(0) > 0.

    Doubles the bracket [lo, hi] while g(hi) lies on the side of g(0), then
    bisects between its satisfying end `ok` and the other end; stops once
    -g(ok) <= tol and returns ok.
    """
    lo, g_lo = 0.0, g(0.0) if nondecreasing else 0.0
    if g_lo > 0.0:
        raise ConvergenceError("no satisfying point at the branch origin", (0.0, 0.0))
    steps = 0
    hi, g_hi = 1.0, g(1.0)
    while (g_hi <= 0.0) == nondecreasing:
        lo, g_lo = hi, g_hi
        hi *= 2.0
        g_hi = g(hi)
        steps += 1
        if steps > _MAX_SOLVER_STEPS:
            raise ConvergenceError("bracketing exceeded the iteration cap", (lo, hi))
    ok, g_ok, other = (lo, g_lo, hi) if nondecreasing else (hi, g_hi, lo)
    while -g_ok > tol:
        mid = 0.5 * (ok + other)
        g_mid = g(mid)
        if g_mid <= 0.0:
            ok, g_ok = mid, g_mid
        else:
            other = mid
        steps += 1
        if steps > _MAX_SOLVER_STEPS:
            bracket = (ok, other) if nondecreasing else (other, ok)
            raise ConvergenceError("bisection exceeded the iteration cap", bracket)
    return ok
