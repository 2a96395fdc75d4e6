"""Output checks of one study: which CSV rows (cells) are wrong.

A cell fails when its study raised, when its CSV row is missing or differs
from the reference study of the same workload and seed, when its true value
does not match a recomputation from the plan log, when a dispersion or Q
EMSE lies outside the closed-form band, or when a zero-noise run reports a
non-zero error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from hetdp import (
    DatasetDescriptor,
    HeterogeneityProfile,
    Mechanism,
    PrivacyBudget,
    SensitivitySpec,
    Statistic,
    build_context,
    load_dataset,
    read_result_csv,
    release_sigma,
    stratified_sample,
    true_value,
)
from hetdp.datasets import DataFormat, LabelScheme

#: Bound on |z| = |emse - closed form| / standard error of the T-trial mean,
#: taken from the closed-form variance of the squared error (see README).
#: The mean of T squared Gaussian sums exceeds 12 standard errors with
#: probability below 1e-6 at the benchmark's T, so a failure is a defect,
#: not chance.
Z_BOUND = 12.0


@dataclass
class Verdict:
    """Indices of failed rows plus one line per reason."""

    failed: set[int] = field(default_factory=set)
    notes: list[str] = field(default_factory=list)
    max_abs_z: float = 0.0
    max_abs_z_sample: float = 0.0
    z_rows: int = 0

    def fail(self, rows, reason: str) -> None:
        rows = set(rows)
        if rows:
            self.failed |= rows
            self.notes.append(f"{len(rows)} row(s): {reason}")


def read_rows(csv_path: Path, cells: int):
    """The CSV's rows, or None when it is missing, unparsable or short."""
    try:
        rows = read_result_csv(csv_path)
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return rows if len(rows) == cells else None


def emse_band(m: float, d: int, sigma1: float, sigma2: float) -> tuple[float, float]:
    """Mean and standard deviation of one trial's squared dispersion/Q error.

    The error is m*||e||^2 + sum(s) with e ~ N(0, sigma1^2 I_d) and
    s ~ N(0, sigma2^2 I_d): the cross term vanishes because (weighted)
    deviations from the (weighted) mean average to zero. With A = ||e||^2
    (sigma1^2 times a chi-square on d degrees of freedom) and v = d sigma2^2,
    E = m^2 E[A^2] + v and Var = m^4 Var[A^2] + 4 m^2 E[A^2] v + 2 v^2.
    """
    a2 = sigma1**4 * d * (d + 2)
    var_a2 = sigma1**8 * d * (d + 2) * 8 * (d + 3)
    v = d * sigma2**2
    mean = m * m * a2 + v
    var = m**4 * var_a2 + 4 * m * m * a2 * v + 2 * v * v
    return mean, math.sqrt(var)


def _descriptor(log: dict) -> DatasetDescriptor:
    ds = log["dataset"]
    return DatasetDescriptor(
        format=DataFormat(ds["format"]),
        name=ds["name"],
        paths=tuple(ds["paths"]),
        d=ds["d"],
        label_scheme=LabelScheme(ds["label_scheme"]),
        synth_n=ds["synth_n"],
        heterogeneity=ds["heterogeneity"],
        synth_seed=ds["synth_seed"],
    )


def _budget(log: dict, statistic: Statistic, epsilon: float, delta: float) -> PrivacyBudget:
    fractions = log.get("budget_fractions")
    if fractions:
        return PrivacyBudget.from_fractions(epsilon, delta, tuple(fractions))
    return PrivacyBudget.equal_split(epsilon, delta, statistic.budget_parts)


def check_reference(csv_path: Path, cells: int, charts: int) -> tuple[list | None, Verdict]:
    """Check one study's outputs against recomputation from its plan log."""
    verdict = Verdict()
    rows = read_rows(csv_path, cells)
    if rows is None:
        verdict.fail(range(cells), "CSV missing, unparsable or not one row per cell")
        return None, verdict
    every = range(len(rows))
    try:
        log = json.loads(Path(csv_path).with_suffix(".plan.json").read_text())
        data = load_dataset(_descriptor(log))
    except (OSError, ValueError, KeyError, TypeError) as err:
        verdict.fail(every, f"plan log unusable: {err}")
        return rows, verdict
    svg_dir = Path(csv_path).parent / "charts"
    if len(list(svg_dir.glob("*.svg"))) != charts:
        verdict.fail(every, f"expected {charts} charts in {svg_dir}")

    samples = {}
    for entry in log["profiles"]:
        profile = HeterogeneityProfile(
            tuple(entry["ratios"]), entry["label_count"], entry["sample_fraction"]
        )
        sample = stratified_sample(data, profile, seed=entry["sample_seed"])
        samples[entry["name"]] = (sample, build_context(sample))

    for index, row in enumerate(rows):
        if row.profile not in samples:
            verdict.fail([index], f"unknown profile {row.profile!r}")
            continue
        sample, ctx = samples[row.profile]
        statistic = Statistic(row.statistic)
        if row.true_value != true_value(statistic, sample, ctx):
            verdict.fail([index], f"true_value of {row.key()} differs from recomputation")
        if statistic is Statistic.I_SQUARED:
            continue
        budget = _budget(log, statistic, row.epsilon, row.delta)
        sens = SensitivitySpec.from_shape(sample.n, sample.d)
        sigma1, sigma2 = (
            release_sigma(Mechanism(row.mechanism), sens, eps_i, delta_i)
            for eps_i, delta_i in budget.split[:2]
        )
        m = 1.0 if statistic is Statistic.DISPERSION else float(ctx.weights.mean())
        mean, sd = emse_band(m, sample.d, sigma1, sigma2)
        z = (row.emse - mean) / (sd / math.sqrt(row.trials))
        verdict.z_rows += 1
        verdict.max_abs_z = max(verdict.max_abs_z, abs(z))
        if row.sd_emse > 0:
            # Informational: studentized by the row's own sd_emse, whose
            # small-T heavy tails make it unfit as the pass/fail test.
            z_sample = (row.emse - mean) / (row.sd_emse / math.sqrt(row.trials))
            verdict.max_abs_z_sample = max(verdict.max_abs_z_sample, abs(z_sample))
        if not abs(z) <= Z_BOUND:
            verdict.fail([index], f"emse of {row.key()} is {z:+.2f} standard errors off")
    return rows, verdict


def check_zero_noise(csv_path: Path, cells: int) -> Verdict:
    """A zero-noise study must report emse = tmse = cmse = 0.0 exactly."""
    verdict = Verdict()
    rows = read_rows(csv_path, cells)
    if rows is None:
        verdict.fail(range(cells), "zero-noise CSV missing, unparsable or short")
        return verdict
    verdict.fail(
        [i for i, r in enumerate(rows) if (r.emse, r.tmse, r.cmse) != (0.0, 0.0, 0.0)],
        "zero-noise run reports a non-zero error",
    )
    return verdict


def differing_rows(reference: list, rows: list | None, cells: int) -> set[int]:
    """Rows of a rerun that differ from the reference study's rows."""
    if rows is None or reference is None:
        return set(range(cells))
    return {i for i, (a, b) in enumerate(zip(reference, rows)) if a != b}
