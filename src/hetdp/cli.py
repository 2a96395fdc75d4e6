"""Command line interface.

Subcommands:
    calibrate              noise-scale table for both calibrations over a grid
    measure                heterogeneity summary of one dataset sample
    experiment             full sweep plan -> CSV + plan log + SVG charts
    compare-heterogeneity  paired-profile percentage-change tables

Exit codes: 0 success, 1 runtime or data error, 2 usage error, raised while a
cmd_* builds its run closure, before any data is read. File paths for the
binary formats resolve against $HETDP_DATA_DIR when set and relative.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable
from dataclasses import asdict
from itertools import product
from pathlib import Path

from hetdp.datasets import (
    CANONICAL_PROFILES,
    DataFormat,
    DatasetDescriptor,
    HeterogeneityProfile,
    LabelScheme,
    SampleCapacityError,
    load_dataset,
    stratified_sample,
)
from hetdp.errors import derive_seed
from hetdp.estimators import (
    DegenerateStatisticError,
    EstimatorConfig,
    Setting,
    Statistic,
    noisy_statistic,
    true_value,
)
from hetdp.experiment import (
    DEFAULT_EPSILON_GRID,
    DEFAULT_TRIALS,
    FIXED_DELTA,
    FIXED_EPSILON,
    SWEEP_DELTA,
    ExperimentPlan,
    ProfilePairingError,
    run_experiment,
    run_heterogeneity_comparison,
)
from hetdp.gaussian import (
    ConvergenceError,
    Mechanism,
    PrivacyBudget,
    SensitivitySpec,
    agm_sigma,
    cgm_sigma,
    check_classical_range,
)
from hetdp.measures import build_context

DATA_DIR_ENV = "HETDP_DATA_DIR"

_MECHANISMS = {m.value: m for m in Mechanism}
_SETTINGS = {s.value: s for s in Setting}
_STATISTICS = {s.value: s for s in Statistic}


def _floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _names(text: str) -> tuple[str, ...]:
    names = tuple(t.strip() for t in text.split(",") if t.strip())
    if not names:
        raise argparse.ArgumentTypeError("expected at least one name")
    return names


def _resolve(path: str) -> str:
    base = os.environ.get(DATA_DIR_ENV)
    if base and not os.path.isabs(path):
        return str(Path(base) / path)
    return path


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("dataset source (choose exactly one)")
    group.add_argument(
        "--synthetic",
        metavar="N,D,H",
        help="synthetic dataset: size N, dimension D, heterogeneity H in [0,1]",
    )
    group.add_argument("--idx-images", metavar="PATH", help="magic-tagged image file")
    group.add_argument("--idx-labels", metavar="PATH", help="magic-tagged label file")
    group.add_argument(
        "--cifar10", metavar="PATHS", help="comma-separated 3073-byte-record batch files"
    )
    group.add_argument(
        "--cifar100", metavar="PATHS", help="comma-separated 3074-byte-record batch files"
    )
    parser.add_argument("--dataset-name", help="name used in result rows (default: derived)")
    parser.add_argument("--dim", type=int, help="declared vector dimension to validate against")
    parser.add_argument("--synth-seed", type=int, default=0, help="synthetic generator seed")
    parser.set_defaults(default_of=parser.get_default)


def _reject_unused(args, needs: str, *flags: str) -> None:
    """Usage error for a flag of `flags` off its default: it acts only with `needs`."""
    for flag in flags:
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) != args.default_of(dest):
            raise ValueError(f"{flag} needs {needs}")


def _dataset_from_args(args) -> DatasetDescriptor:
    sources = (args.synthetic, args.idx_images or args.idx_labels, args.cifar10, args.cifar100)
    if sum(map(bool, sources)) != 1:
        raise ValueError("choose exactly one of --synthetic, --idx-images/--idx-labels, "
                         "--cifar10, --cifar100")
    if not args.synthetic:
        _reject_unused(args, "--synthetic", "--synth-seed")
    if args.synthetic:
        parts = args.synthetic.split(",")
        if len(parts) != 3:
            raise ValueError(f"--synthetic takes N,D,H, got {args.synthetic!r}")
        n, d, h = int(parts[0]), int(parts[1]), float(parts[2])
        if args.dim is not None and args.dim != d:
            raise ValueError(f"--dim {args.dim} contradicts the synthetic dimension D={d}")
        return DatasetDescriptor(
            format=DataFormat.SYNTHETIC,
            name=args.dataset_name or f"synthetic-{n}x{d}-h{h:g}",
            d=d,
            synth_n=n,
            heterogeneity=h,
            synth_seed=args.synth_seed,
        )
    if args.idx_images or args.idx_labels:
        if not (args.idx_images and args.idx_labels):
            raise ValueError("--idx-images and --idx-labels must be given together")
        return DatasetDescriptor(
            format=DataFormat.IDX_IMAGES,
            name=args.dataset_name or Path(args.idx_images).stem,
            paths=(_resolve(args.idx_images), _resolve(args.idx_labels)),
            d=args.dim,
        )
    ten = bool(args.cifar10)
    paths = (args.cifar10 or args.cifar100).split(",")
    return DatasetDescriptor(
        format=DataFormat.CIFAR10_BIN if ten else DataFormat.CIFAR100_BIN,
        name=args.dataset_name or ("cifar10" if ten else "cifar100"),
        paths=tuple(_resolve(p.strip()) for p in paths if p.strip()),
        d=args.dim,
        label_scheme=LabelScheme.FINE if ten else LabelScheme.COARSE_BUCKETED,
    )


def _profile_from_token(token: str, fraction: float | None) -> tuple[str, HeterogeneityProfile]:
    """Resolve `name` (canonical) or `name=r1:r2:...` (custom ratios); either
    samples the canonical 2% of the rows unless `fraction` is given."""
    name, custom, spec = token.partition("=")
    if not custom and name not in CANONICAL_PROFILES:
        raise ValueError(
            f"unknown profile {token!r}; canonical names: "
            f"{', '.join(sorted(CANONICAL_PROFILES))}, or name=r1:r2:..."
        )
    try:
        ratios = (tuple(int(r) for r in spec.split(":")) if custom
                  else CANONICAL_PROFILES[name].ratios)
        return name, HeterogeneityProfile(
            ratios, sample_fraction=0.02 if fraction is None else fraction)
    except ValueError as err:
        raise ValueError(f"bad profile {token!r}: {err}") from None


def _lookup(kind: str, table: dict, names) -> tuple:
    """Map each CLI name through `table`; an unknown name is a usage error."""
    for name in names:
        if name not in table:
            raise ValueError(f"unknown {kind} {name!r}; choose from {sorted(table)}")
    return tuple(table[name] for name in names)


def cmd_calibrate(args) -> Callable[[], int]:
    if args.sensitivity:
        _reject_unused(args, "the default sensitivity, not --sensitivity", "--n", "--d")
    rows = []
    sens_values = args.sensitivity or (SensitivitySpec.from_shape(args.n, args.d).delta_l2,)
    for sens_value, delta, epsilon in product(sens_values, args.delta, args.epsilons):
        spec = SensitivitySpec(sens_value)
        analytic = agm_sigma(spec, epsilon, delta).sigma
        classical = cgm_sigma(spec, epsilon, delta).sigma if epsilon < 1.0 else None
        rows.append({
            "epsilon": epsilon, "delta": delta, "sensitivity": sens_value,
            "sigma_analytic": analytic, "sigma_classical": classical,
            "ratio": None if classical is None else analytic / classical,
        })

    def run() -> int:
        if args.json:
            print(json.dumps(rows, indent=2))
            return 0
        header = f"{'epsilon':>8} {'delta':>10} {'sensitivity':>12} {'sigma_analytic':>15} {'sigma_classical':>17} {'ratio':>8}"
        print(header)
        print("-" * len(header))
        for row in rows:
            if row["sigma_classical"] is None:
                classical, ratio = "out of CGM range", "-"
            else:
                classical, ratio = f"{row['sigma_classical']:.6g}", f"{row['ratio']:.4f}"
            print(
                f"{row['epsilon']:>8g} {row['delta']:>10g} {row['sensitivity']:>12.6g} "
                f"{row['sigma_analytic']:>15.6g} {classical:>17} {ratio:>8}"
            )
        return 0

    return run


def cmd_measure(args) -> Callable[[], int]:
    if not args.profile:
        _reject_unused(args, "--profile", "--fraction", "--sample-seed")
    elif args.sample_seed < 0:
        raise ValueError(f"--sample-seed must be nonnegative, got {args.sample_seed}")
    if not args.release:
        _reject_unused(args, "--release", "--epsilon", "--delta", "--mechanism",
                       "--setting", "--budget-split", "--seed", "--zero-noise")
    else:
        PrivacyBudget.from_fractions(args.epsilon, args.delta, args.budget_split or (1.0,))
        check_classical_range((_MECHANISMS[args.mechanism],), (args.epsilon,))
    desc = _dataset_from_args(args)
    sampled_as, profile = (_profile_from_token(args.profile, args.fraction) if args.profile
                           else (None, None))

    def run() -> int:
        data = load_dataset(desc)
        if profile is not None:
            data = stratified_sample(data, profile, seed=args.sample_seed)
        ctx = build_context(data)
        out = {
            "dataset": desc.name,
            "profile": sampled_as,
            "n": data.n,
            "d": data.d,
            **{stat.value: true_value(stat, data, ctx) for stat in Statistic},
            "heterogeneity_at_consensus_threshold": ctx.q_value >= 0.1,
        }
        if args.release:
            if args.delta >= 1.0 / data.n:  # Dwork & Roth 2014, 2.3: this delta can publish records
                print(f"warning: --delta {args.delta:g} is at least 1/n = 1/{data.n}",
                      file=sys.stderr)
            released = {}
            for index, stat in enumerate(Statistic):
                cfg = EstimatorConfig(_MECHANISMS[args.mechanism], _SETTINGS[args.setting],
                                      derive_seed(args.seed, index), args.zero_noise)
                try:  # a split of the wrong part count, n < 2 for Q and I^2 or a noisy Q <= 0
                    budget = stat.budget(args.epsilon, args.delta, args.budget_split)
                    released[stat.value] = {"value": noisy_statistic(stat, data, ctx, cfg, budget)}
                except (ValueError, DegenerateStatisticError) as err:
                    released[stat.value] = {"error": str(err)}
            out["release"] = {
                "epsilon": args.epsilon,
                "delta": args.delta,
                "mechanism": args.mechanism,
                "setting": args.setting,
                "values": released,
            }
        if args.json:
            print(json.dumps(out, indent=2))
            return 0
        print(f"dataset    {out['dataset']}" + (f"  (profile {sampled_as})" if sampled_as else ""))
        print(f"n x d      {out['n']} x {out['d']}")
        print(f"dispersion {out['dispersion']:.6g}")
        print(f"Q          {out['q']:.6g}")
        print(f"I^2        {out['i_squared']:.6g}")
        if out["heterogeneity_at_consensus_threshold"]:
            verdict = ">= 0.1, statistical heterogeneity present"
        else:
            verdict = "< 0.1, consensus: no statistical heterogeneity"
        print(f"consensus threshold: Q = {out['q']:.4g} {verdict}")
        if args.release:
            rel = out["release"]
            print(
                f"noisy release at epsilon={rel['epsilon']:g} delta={rel['delta']:g} "
                f"({rel['mechanism']}, {rel['setting']}):"
            )
            for stat_name, entry in rel["values"].items():
                if "value" in entry:
                    print(f"  {stat_name:<11}{entry['value']:.6g}")
                else:
                    print(f"  {stat_name:<11}unavailable: {entry['error']}")
        return 0

    return run


def _build_plan(args) -> ExperimentPlan:
    desc = _dataset_from_args(args)
    profiles = tuple(_profile_from_token(t, args.fraction) for t in args.profiles)
    mechanisms = _lookup("mechanism", _MECHANISMS, args.mechanisms)
    settings = _lookup("setting", _SETTINGS, args.settings)
    statistics = _lookup("statistic", _STATISTICS, args.statistics)
    return ExperimentPlan(
        dataset=desc,
        profiles=profiles,
        statistics=statistics,
        mechanisms=mechanisms,
        settings=settings,
        epsilons=args.epsilons,
        delta=args.delta,
        trials=args.trials,
        seed=args.seed,
        zero_noise=args.zero_noise,
        budget_fractions=args.budget_split,
    )


def cmd_experiment(args) -> Callable[[], int]:
    plan = _build_plan(args)

    def run() -> int:
        rows = run_experiment(plan, args.out, svg_dir=args.svg_dir)
        if args.json:
            print(json.dumps([asdict(r) for r in rows], indent=2))
        else:
            print(f"wrote {len(rows)} rows to {args.out}")
            print(f"plan log: {Path(args.out).with_suffix('.plan.json')}")
            if args.svg_dir:
                print(f"charts in {args.svg_dir}")
        return 0

    return run


#: (row kind, title, subject sort key) of each comparison table; the title's
#: slot takes "mechanism, setting".
_COMPARISON_TABLES = (
    ("ratio", "percentage change of EMSE, skewed vs balanced ({}), averaged over the "
     "epsilon grid", lambda subject: -int(subject)),
    ("label_count", "percentage change of EMSE across label counts ({}), balanced "
     "profiles", None),
)


def cmd_compare(args) -> Callable[[], int]:
    plan = _build_plan(args)

    def run() -> int:
        rows = run_heterogeneity_comparison(plan, args.out)
        if args.json:
            print(json.dumps([asdict(r) for r in rows], indent=2))
            return 0
        stat_names = [s.value for s in plan.statistics]
        for mech in plan.mechanisms:
            for setting in plan.settings:
                pct = {
                    (r.kind, r.subject, r.statistic): r.pct_change_emse
                    for r in rows
                    if r.mechanism == mech.value and r.setting == setting.value
                }
                for kind, title, order in _COMPARISON_TABLES:
                    subjects = sorted({subject for k, subject, _ in pct if k == kind}, key=order)
                    if not subjects:
                        continue
                    print("\n" + title.format(f"{mech.value}, {setting.value}"))
                    print(f"{'labels':>8} " + " ".join(f"{s:>12}" for s in stat_names))
                    for subject in subjects:
                        cells = [f"{pct[kind, subject, stat]:>11.2f}%" for stat in stat_names]
                        print(f"{subject:>8} " + " ".join(cells))
        print(f"\nwrote {len(rows)} rows to {args.out}")
        return 0

    return run


@functools.cache  # built from module constants alone, once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetdp",
        description="differentially private measures of statistical heterogeneity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="print the noise-scale table for both calibrations")
    cal.add_argument("--epsilons", type=_floats, default=DEFAULT_EPSILON_GRID)
    cal.add_argument("--delta", type=_floats, default=(SWEEP_DELTA,),
                     help="one or more comma-separated delta values")
    cal.add_argument("--sensitivity", type=_floats, default=None,
                     help="explicit L2 sensitivities (default: sqrt(d)/n)")
    cal.add_argument("--n", type=int, default=100, help="clients, for the default sensitivity")
    cal.add_argument("--d", type=int, default=64, help="dimension, for the default sensitivity")
    cal.add_argument("--json", action="store_true")
    cal.set_defaults(func=cmd_calibrate, default_of=cal.get_default)

    mea = sub.add_parser("measure", help="heterogeneity summary of a dataset sample")
    _add_dataset_flags(mea)
    mea.add_argument("--profile", help="canonical profile name or name=r1:r2:... to sample")
    mea.add_argument("--fraction", type=float, default=None, help="sample fraction override")
    mea.add_argument("--sample-seed", type=int, default=0)
    mea.add_argument("--release", action="store_true", help="also print one noisy release")
    mea.add_argument("--epsilon", type=float, default=FIXED_EPSILON)
    mea.add_argument("--delta", type=float, default=FIXED_DELTA)
    mea.add_argument("--mechanism", default="analytic", choices=sorted(_MECHANISMS))
    mea.add_argument("--setting", default="distributed", choices=sorted(_SETTINGS))
    mea.add_argument("--budget-split", type=_floats, default=None,
                     help="per-release budget fractions summing to 1")
    mea.add_argument("--seed", type=int, default=0)
    mea.add_argument("--zero-noise", action="store_true", help="debug: release without noise")
    mea.add_argument("--json", action="store_true")
    mea.set_defaults(func=cmd_measure)

    def add_plan_flags(p: argparse.ArgumentParser) -> None:
        _add_dataset_flags(p)
        p.add_argument("--profiles", type=_names, required=True,
                       help="comma-separated profile names (or name=r1:r2:...)")
        p.add_argument("--fraction", type=float, default=None, help="sample fraction override")
        p.add_argument("--statistics", type=_names, default=tuple(_STATISTICS))
        p.add_argument("--mechanisms", type=_names, default=("analytic",))
        p.add_argument("--settings", type=_names, default=("distributed",))
        p.add_argument("--epsilons", type=_floats, default=DEFAULT_EPSILON_GRID)
        p.add_argument("--delta", type=float, default=SWEEP_DELTA)
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget-split", type=_floats, default=None,
                       help="per-release budget fractions summing to 1")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--zero-noise", action="store_true")
        p.add_argument("--json", action="store_true")

    exp = sub.add_parser("experiment", help="run a sweep plan, emit CSV/SVG/plan log")
    add_plan_flags(exp)
    exp.add_argument("--svg-dir", default=None, help="directory for EMSE-vs-epsilon charts")
    exp.set_defaults(func=cmd_experiment)

    cmp_ = sub.add_parser(
        "compare-heterogeneity",
        help="percentage change of EMSE across paired balanced/skewed profiles",
    )
    add_plan_flags(cmp_)
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:  # building reads only flags, so its ValueError is a usage error
            run = args.func(args)
        except ValueError as err:
            parser.error(str(err))
        return run()
    except ProfilePairingError as err:  # raised by the plan before its data is read
        parser.error(str(err))
    except (SampleCapacityError, DegenerateStatisticError, ConvergenceError, OSError,
            ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
