"""Experiment orchestration: sweep plans, result rows, CSV/JSON/SVG emission.

A plan is a cross product of cells (statistic x mechanism x setting x profile
x epsilon) evaluated on stratified samples of one dataset. Runs are
deterministic given the plan seed: per-profile sample seeds and the seeds of
`ExperimentPlan.cells()`, the one list of a plan's (statistic, mechanism,
setting) cells and their estimator configs, derive from it. Each such
cell draws its trials' error law once (`trial_draws`: a few length-T
scalar vectors, whatever d is), and every profile and epsilon of the cell
scales those same draws by its own sigmas (common random numbers). That
makes epsilon sweeps smooth and paired-profile comparisons difference out
the noise. Each profile's sample is reduced to its context and true values and
dropped before the next is drawn; each cell calibrates all its epsilons in one
`stage_sigmas` call and scores them in one `error_reports` call on that context.

CSV schema (stable, one header line, rows sorted by the key tuple):

    dataset,statistic,mechanism,setting,profile,epsilon,delta,trials,
    emse,tmse,cmse,sd_emse,sd_tmse,ci_half_width,true_value,
    dispersion_min,dispersion_mean,q_min,q_mean,i_squared_min,i_squared_mean

Key fields are strings/numbers; floats are written as their shortest
round-tripping decimal form, so parsing the file reconstructs every row
exactly. The companion plan log (<csv stem>.plan.json) records the resolved
plan: its fields, every derived seed, the budget rule and the floor needed to
recompute any row.
"""

from __future__ import annotations

import csv
import json
import math
import re
import struct
from dataclasses import asdict, dataclass, fields
from itertools import product
from pathlib import Path

import numpy as np

from hetdp.datasets import (
    DatasetDescriptor,
    HeterogeneityProfile,
    SampleCapacityError,
    load_dataset,
    stratified_sample,
)
from hetdp.errors import derive_seed, error_reports
from hetdp.estimators import (
    EstimatorConfig, Setting, Statistic, stage_sigmas, trial_draws, true_value,
)
from hetdp.gaussian import Mechanism, PrivacyBudget, check_classical_range
from hetdp.measures import VARIANCE_FLOOR, build_context

#: Default privacy grid for epsilon sweeps, log-ish spacing over [0.25, 5].
DEFAULT_EPSILON_GRID: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
#: Default additive parameter for sweeps.
SWEEP_DELTA = 1e-5
#: Defaults for fixed-privacy (non-sweep) runs.
FIXED_EPSILON = 0.25
FIXED_DELTA = 0.1
DEFAULT_TRIALS = 100

_SAMPLE_TAG = 1
_CELL_TAG = 2


@dataclass(frozen=True)
class ExperimentPlan:
    """One dataset, a set of named profiles, and the cell cross product. Its budgets,
    cells and sample seeds are derived once, at construction, into slots: vars(plan),
    which the plan log writes, holds only the fields."""

    __slots__ = ("__dict__", "_budgets", "_cells", "_sample_seeds")

    dataset: DatasetDescriptor
    profiles: tuple[tuple[str, HeterogeneityProfile], ...]
    statistics: tuple[Statistic, ...]
    mechanisms: tuple[Mechanism, ...]
    settings: tuple[Setting, ...]
    epsilons: tuple[float, ...]
    delta: float
    trials: int = DEFAULT_TRIALS
    seed: int = 0
    zero_noise: bool = False
    budget_fractions: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.profiles:
            raise ValueError("plan needs at least one profile")
        for what, names in (("profile names", [name for name, _ in self.profiles]),
                            ("statistics", self.statistics), ("mechanisms", self.mechanisms),
                            ("settings", self.settings), ("epsilons", self.epsilons)):
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate {what}: {[getattr(v, 'value', v) for v in names]}")
        if not self.statistics or not self.mechanisms or not self.settings:
            raise ValueError("plan needs at least one statistic, mechanism and setting")
        if not self.epsilons or any(not (math.isfinite(e) and e > 0) for e in self.epsilons):
            raise ValueError(f"epsilons must be nonempty and positive, got {self.epsilons}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        check_classical_range(self.mechanisms, self.epsilons)
        object.__setattr__(self, "_budgets", {  # raises on a split the budget rule rejects
            stat: tuple(stat.budget(e, self.delta, self.budget_fractions) for e in self.epsilons)
            for stat in self.statistics})
        cells = []
        for stat, mech, setting in product(self.statistics, self.mechanisms, self.settings):
            positions = (list(type(key)).index(key) for key in (stat, mech, setting))
            seed = derive_seed(self.seed, _CELL_TAG, *positions)
            cells.append((stat, EstimatorConfig(mech, setting, seed, self.zero_noise)))
        object.__setattr__(self, "_cells", tuple(cells))
        object.__setattr__(self, "_sample_seeds",
                           tuple(_sample_seed(self, profile) for _, profile in self.profiles))

    def __reduce__(self):  # copies and pickles rebuild through __init__, which fills the slots
        return type(self), tuple(vars(self).values())

    def budgets(self, stat: Statistic) -> tuple[PrivacyBudget, ...]:
        """The budget rule's split of (epsilon, delta) for `stat`, per epsilon."""
        return self._budgets[stat]

    def cells(self) -> tuple[tuple[Statistic, EstimatorConfig], ...]:
        """Each (statistic, estimator config) cell, in product(statistics,
        mechanisms, settings) order. A cell's seed derives from the enum
        positions of its keys, so no listing order, profile or epsilon moves it."""
        return self._cells


@dataclass(frozen=True)
class ResultRow:
    """One CSV row: plan-cell keys, error summary, and true-value columns.

    The six *_min/*_mean columns aggregate each true statistic over the
    plan's profiles and repeat on every row of the run.
    """

    dataset: str
    statistic: str
    mechanism: str
    setting: str
    profile: str
    epsilon: float
    delta: float
    trials: int
    emse: float
    tmse: float
    cmse: float
    sd_emse: float
    sd_tmse: float
    ci_half_width: float
    true_value: float
    dispersion_min: float
    dispersion_mean: float
    q_min: float
    q_mean: float
    i_squared_min: float
    i_squared_mean: float

    def key(self) -> tuple:
        return (
            self.dataset,
            self.statistic,
            self.mechanism,
            self.setting,
            self.profile,
            self.epsilon,
        )


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass(frozen=True)
class ComparisonRow:
    """One percentage-change row of a heterogeneity comparison.

    kind "ratio" compares the skewed against the balanced profile at one
    label count (subject is the label count); kind "label_count" compares
    balanced profiles across label counts (subject like "10-vs-5"). The
    percentage is the signed change of EMSE averaged over the epsilon grid.
    """

    kind: str
    subject: str
    statistic: str
    mechanism: str
    setting: str
    pct_change_emse: float

    def key(self) -> tuple:
        return (self.kind, self.subject, self.statistic, self.mechanism, self.setting)


COMPARISON_COLUMNS = tuple(f.name for f in fields(ComparisonRow))


def _sample_seed(plan: ExperimentPlan, profile: HeterogeneityProfile) -> int:
    """Seed for a profile's stratified draw, derived from the profile content.

    Content addressing (not list position) means identical profiles always
    receive identical samples, so a degenerate pair compares as exactly 0%.
    """
    frac_bits = int.from_bytes(struct.pack(">d", profile.sample_fraction), "big")
    return derive_seed(plan.seed, _SAMPLE_TAG, profile.label_count, frac_bits, *profile.ratios)


def _materialize_samples(plan: ExperimentPlan):
    """Load the dataset, then per named profile draw its stratified sample
    (image samples keep the bytes of their rows), build its context and true
    values and drop the rows before the next draw: name -> (context, truths)."""
    data = load_dataset(plan.dataset)
    profiles = {}
    for (name, profile), seed in zip(plan.profiles, plan._sample_seeds):
        try:
            sample = stratified_sample(data, profile, seed=seed)
        except SampleCapacityError as err:
            raise SampleCapacityError(f"profile {name}: {err}") from err
        ctx = build_context(sample)
        profiles[name] = ctx, {stat.value: true_value(stat, sample, ctx) for stat in Statistic}
        del sample
    return profiles


def _cell_rows(plan: ExperimentPlan) -> list[ResultRow]:
    """Evaluate every plan cell into one row each, sorted by key, so the
    evaluation order never shows. Each distinct noise scale is calibrated
    once per run, and each cell's draws are held for the whole run."""
    memo: dict = {}
    profiles = _materialize_samples(plan)
    summary = {}
    for s in ("dispersion", "q", "i_squared"):
        summary[f"{s}_min"] = min(truth[s] for _, truth in profiles.values())
        summary[f"{s}_mean"] = sum(truth[s] for _, truth in profiles.values()) / len(profiles)

    d = next(iter(profiles.values()))[0].d
    cells = [(stat, cell, trial_draws(stat, cell, d, plan.trials)) for stat, cell in plan.cells()]
    rows: list[ResultRow] = []
    for name, _profile in plan.profiles:
        ctx, truth = profiles[name]
        for stat, cell, draws in cells:
            sigmas = stage_sigmas(stat, ctx, cell, plan.budgets(stat), memo)
            reports = error_reports(stat, ctx, draws, sigmas)
            for epsilon, report in zip(plan.epsilons, reports):
                rows.append(ResultRow(
                    dataset=plan.dataset.name, statistic=stat.value,
                    mechanism=cell.mechanism.value, setting=cell.setting.value, profile=name,
                    epsilon=epsilon, delta=plan.delta, true_value=truth[stat.value],
                    **vars(report),  # trials and the error columns
                    **summary,
                ))
    rows.sort(key=ResultRow.key)
    return rows


def run_experiment(
    plan: ExperimentPlan, csv_path: str | Path, svg_dir: str | Path | None = None
) -> list[ResultRow]:
    """Evaluate every plan cell, then write the CSV, plan log, and charts;
    returns the rows, sorted by key."""
    rows = _cell_rows(plan)
    write_result_csv(rows, csv_path)
    write_plan_log(plan, csv_path)
    if svg_dir is not None:
        write_emse_charts(rows, plan, svg_dir)
    return rows


def write_result_csv(rows: list, path: str | Path) -> None:
    """Write dataclass rows (ResultRow or ComparisonRow) under a header of
    their field names; an empty list gets the ResultRow header. csv.writer
    writes a float as its repr; a column that holds one object in every row
    (a run's summary columns, delta, dataset, trials) is formatted once."""
    header = [f.name for f in fields(rows[0])] if rows else CSV_COLUMNS
    columns = [[getattr(row, name) for row in rows] for name in header]
    for column in columns:
        if column and all(value is column[0] for value in column):
            column[:] = [str(column[0])] * len(column)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*columns))


def read_result_csv(path: str | Path) -> list[ResultRow]:
    """Parse an emitted CSV back into exact ResultRows."""
    parse = {"float": float, "int": int, "str": str}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}: {reader.fieldnames}")
        return [
            ResultRow(**{f.name: parse[f.type](record[f.name]) for f in fields(ResultRow)})
            for record in reader
        ]


def write_plan_log(plan: ExperimentPlan, csv_path: str | Path) -> Path:
    """Write the plan's fields, each profile's sample seed, every cell seed,
    the budget rule and the floor as JSON; enums are written as their values."""
    log_path = Path(csv_path).with_suffix(".plan.json")
    resolved = {
        **vars(plan),
        "dataset": asdict(plan.dataset),
        "profiles": [
            {"name": name, **asdict(profile), "sample_seed": seed}
            for (name, profile), seed in zip(plan.profiles, plan._sample_seeds)
        ],
        "trial_draws": "error-law scalars",
        "budget_rule": "equal split with exact-remainder last part"
        if plan.budget_fractions is None
        else "explicit fractions",
        "variance_floor": VARIANCE_FLOOR,
        "cell_seeds": [{"statistic": stat, "mechanism": cell.mechanism,
                        "setting": cell.setting, "seed": cell.seed}
                       for stat, cell in plan.cells()],
    }
    text = json.dumps(resolved, indent=2, sort_keys=True, default=lambda member: member.value)
    log_path.write_text(text + "\n")
    return log_path


class ProfilePairingError(ValueError):
    """A comparison plan's profiles do not form one balanced/skewed pair per
    label count."""


def _pct_change(base: list[float], other: list[float]) -> float:
    """Signed percentage change of `other` against `base`, averaged over the
    paired points; equal points count as exactly 0%."""
    pcts = [0.0 if o == b else (o - b) / b * 100.0 for b, o in zip(base, other)]
    return sum(pcts) / len(pcts)


def run_heterogeneity_comparison(
    plan: ExperimentPlan, csv_path: str | Path
) -> list[ComparisonRow]:
    """Percentage change of EMSE across paired profiles, averaged over epsilon.

    The plan must contain exactly two profiles per label count: the balanced
    one (all ratios equal) is the baseline, the skewed one the subject. Also
    emits cross-label-count comparisons between the balanced profiles. The
    EMSE values are the rows of the plan's own sweep, reduced in epsilon-grid
    order.

    Raises:
        ProfilePairingError: profiles do not pair up.
    """
    by_count: dict[int, list[tuple[str, HeterogeneityProfile]]] = {}
    for name, profile in plan.profiles:
        by_count.setdefault(profile.label_count, []).append((name, profile))
    pairs: dict[int, tuple[str, str]] = {}
    for count, entries in sorted(by_count.items()):
        if len(entries) != 2:
            raise ProfilePairingError(
                f"label count {count} has {len(entries)} profiles; comparisons "
                "need exactly a balanced/skewed pair per label count"
            )
        # stable: a balanced profile goes first, else the listed order stays
        base, other = sorted(entries, key=lambda e: len(set(e[1].ratios)) > 1)
        pairs[count] = (base[0], other[0])

    emse = {
        (r.statistic, r.mechanism, r.setting, r.profile, r.epsilon): r.emse
        for r in _cell_rows(plan)
    }
    rows: list[ComparisonRow] = []
    for stat, config in plan.cells():
        cell = (stat.value, config.mechanism.value, config.setting.value)

        def curve(profile: str) -> list[float]:
            return [emse[(*cell, profile, eps)] for eps in plan.epsilons]

        for count, (base, other) in pairs.items():
            pct = _pct_change(curve(base), curve(other))
            rows.append(ComparisonRow("ratio", str(count), *cell, pct))
        counts = sorted(pairs, reverse=True)
        for i, high in enumerate(counts):
            for low in counts[i + 1 :]:
                pct = _pct_change(curve(pairs[high][0]), curve(pairs[low][0]))
                rows.append(ComparisonRow("label_count", f"{high}-vs-{low}", *cell, pct))
    rows.sort(key=ComparisonRow.key)
    write_result_csv(rows, csv_path)
    write_plan_log(plan, csv_path)
    return rows


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _escape(text: str) -> str:
    """`text` as XML character data, as xml.sax.saxutils.escape gives it
    (importing that module pulls in urllib and http: MiB of resident memory)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _comment(text: str) -> str:
    """XML comment holding `text`: comments may not contain "--", so a space
    follows every dash that precedes another."""
    return f"<!-- {re.sub('-(?=-)', '- ', text)} -->"


def emse_chart_svg(title: str, series: dict[str, list[tuple[float, float]]]) -> str:
    """Hand-rolled SVG line chart of EMSE (log y) against epsilon (linear x).

    Every series' points are embedded as an XML comment, so the chart is a
    self-describing, diffable artifact with no plotting dependency.
    """
    width, height = 640, 400
    left, right, top, bottom = 70, 20, 40, 50
    xs = sorted({x for pts in series.values() for x, _ in pts})
    positives = [y for pts in series.values() for _, y in pts if y > 0]
    if not xs:
        raise ValueError("chart needs at least one point")
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0
    if positives:
        exp_lo = math.floor(math.log10(min(positives)))
        exp_hi = math.ceil(math.log10(max(positives)))
        if exp_lo == exp_hi:
            exp_hi += 1
    else:
        exp_lo, exp_hi = 0, 1

    def x_px(x: float) -> float:
        return left + (x - x_lo) / x_span * (width - left - right)

    def y_px(y: float) -> float:
        if y <= 0:
            return height - bottom
        frac = (math.log10(y) - exp_lo) / (exp_hi - exp_lo)
        return height - bottom - frac * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        _comment(title),
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
    ]
    for exp in range(exp_lo, exp_hi + 1):
        y = y_px(10.0**exp)
        parts += [
            f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="black"/>',
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{exp}</text>',
        ]
    # each epsilon's label and pixel column, formatted once for the axis and every series
    x_text = {x: (f"{x:.6g}", f"{x_px(x):.1f}") for x in xs}
    for tick, px in x_text.values():
        parts += [
            f'<line x1="{px}" y1="{height - bottom}" x2="{px}" '
            f'y2="{height - bottom + 4}" stroke="black"/>',
            f'<text x="{px}" y="{height - bottom + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick}</text>',
        ]
    parts.append(
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">epsilon</text>'
    )
    for index, (label, pts) in enumerate(sorted(series.items())):
        color, ly = _PALETTE[index % len(_PALETTE)], top + 16 * index
        pts = sorted(pts)
        data = " ".join(f"{x_text[x][0]},{y:.6g}" for x, y in pts)
        pixels = [(x_text[x][1], f"{y_px(y):.1f}") for x, y in pts]
        polyline = " ".join(f"{px},{py}" for px, py in pixels)
        parts += [
            _comment(f"series {label}: {data}"),
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{polyline}"/>',
            *(f'<circle cx="{px}" cy="{py}" r="2.5" fill="{color}"/>' for px, py in pixels),
            f'<line x1="{width - right - 150}" y1="{ly}" x2="{width - right - 130}" '
            f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>',
            f'<text x="{width - right - 124}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{_escape(label)}</text>',
        ]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_emse_charts(
    rows: list[ResultRow], plan: ExperimentPlan, svg_dir: str | Path
) -> list[Path]:
    """One EMSE-vs-epsilon chart per statistic, one line per
    (profile, mechanism, setting)."""
    svg_dir = Path(svg_dir)
    svg_dir.mkdir(parents=True, exist_ok=True)
    charts = {stat.value: {} for stat in plan.statistics}  # statistic -> label -> points
    for row in rows:  # one pass groups every chart's series
        if row.statistic in charts:
            label = f"{row.profile}/{row.mechanism}/{row.setting}"
            charts[row.statistic].setdefault(label, []).append((row.epsilon, row.emse))
    written = []
    for stat, series in charts.items():
        if not series:
            continue
        title = f"EMSE vs epsilon: {stat} on {plan.dataset.name}"
        path = svg_dir / f"emse_{stat}_{plan.dataset.name}.svg"
        path.write_text(emse_chart_svg(title, series))
        written.append(path)
    return written
