#!/usr/bin/env python3
"""Print `sha256  path` for every output of a fixed set of CLI runs.

Runs the default sweep and the same plan with --zero-noise, a mixed plan
(three profiles, both mechanisms and settings, epsilons 0.5,0.25,0.9) and
the same plan with its statistics, mechanisms and settings listed in reverse
(its CSV, charts and --json stdout must equal the mixed plan's byte for
byte, or the script exits 1), a plan with explicit budget fractions
(dispersion and Q at 0.3,0.7, both mechanisms, epsilons 0.25,0.5,0.9), a
comparison, `measure --release` with and without `--zero-noise`
(zero noise must release the true values bit for bit) and with
`--budget-split 0.3,0.7` (I^2 then reports the wrong part count), and a
`calibrate` grid that spans both analytic branches and the classical range, through
hetdp.cli.main in a temporary directory. It also writes an IDX pair
(d=784), a CIFAR-10 batch, the same format split over two batch files and
a 3074-byte CIFAR-100 batch (d=3072) there with write_idx and write_cifar,
sized so every profile sample spans at least three row blocks of
hetdp.measures (300 and 100 rows), and runs an experiment on each, so both
a dataset read across several batch files and the second label column are
digested; the CIFAR-10 plan also runs with --zero-noise, so a zero-noise
CSV of image samples is digested too. It measures the IDX pair and the one
CIFAR-10 batch whole without --profile (the batch also with --release), so
the loaded bytes reach build_context unsampled. The
`library` run is the README's library example (noisy_statistic and a
200-trial error_report on synthetic_dataset(5000, 16, 0.4, 7)), written as
library.json. It digests each input file, CSV, plan log, chart, --json
stdout and library.json. Two
checkouts wrote the same bytes exactly when `diff` of their printouts is
empty:

    PYTHONPATH=src python3 scripts/output_digests.py --seed 0 > digests.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

from hetdp import (
    EstimatorConfig, Mechanism, Setting, Statistic, build_context, error_report, noisy_statistic,
    true_value,
)
from hetdp.cli import main as cli_main
from hetdp.datasets import CifarVariant, synthetic_dataset, write_cifar, write_idx
from hetdp.measures import VectorDataset

SYNTH = ["--synthetic", "20000,8,0.5", "--synth-seed", "0", "--fraction", "0.1"]
BOTH = ["--mechanisms", "analytic,classical", "--settings", "distributed,centralized",
        "--epsilons", "0.5,0.25,0.9", "--trials", "20", "--json"]
WIDE = ["--profiles", "uniform-10,skewed-10", "--fraction", "0.05", "--mechanisms",
        "analytic,classical", "--settings", "distributed,centralized", "--epsilons", "0.5,0.9",
        "--trials", "5"]


def runs(seed: str) -> dict[str, list[str]]:
    return {
        "sweep": ["experiment", *SYNTH, "--profiles", "uniform-10,skewed-10", "--seed", seed,
                  "--out", "sweep/sweep.csv", "--svg-dir", "sweep/charts"],
        "sweep-zero": ["experiment", *SYNTH, "--profiles", "uniform-10,skewed-10",
                       "--zero-noise", "--seed", seed, "--out", "sweep-zero/sweep-zero.csv"],
        "mixed": ["experiment", *SYNTH, "--profiles", "uniform-2,skewed-2,uniform-5", *BOTH,
                  "--seed", seed, "--out", "mixed/mixed.csv", "--svg-dir", "mixed/charts"],
        "mixed-reversed": ["experiment", *SYNTH, "--profiles", "uniform-2,skewed-2,uniform-5",
                           *BOTH, "--statistics", "i_squared,q,dispersion", "--mechanisms",
                           "classical,analytic", "--settings", "centralized,distributed",
                           "--seed", seed, "--out", "mixed-reversed/mixed.csv",
                           "--svg-dir", "mixed-reversed/charts"],
        "fractions": ["experiment", *SYNTH, "--profiles", "uniform-10,skewed-10",
                      "--statistics", "dispersion,q", "--budget-split", "0.3,0.7",
                      "--mechanisms", "analytic,classical", "--epsilons", "0.25,0.5,0.9",
                      "--trials", "20", "--seed", seed, "--out", "fractions/fractions.csv",
                      "--svg-dir", "fractions/charts", "--json"],
        "compare": ["compare-heterogeneity", *SYNTH, *BOTH, "--seed", seed,
                    "--profiles", "uniform-2,skewed-2,uniform-5,skewed-5",
                    "--out", "compare/compare.csv"],
        "measure": ["measure", *SYNTH, "--profile", "skewed-10", "--release", "--seed", seed,
                    "--json"],
        "measure-zero": ["measure", *SYNTH, "--profile", "skewed-10", "--release",
                         "--zero-noise", "--seed", seed, "--json"],
        "measure-split": ["measure", *SYNTH, "--profile", "skewed-10", "--release",
                          "--budget-split", "0.3,0.7", "--seed", seed, "--json"],
        "calibrate": ["calibrate", "--epsilons", "0.01,0.25,0.5,0.99,2,5,50",
                      "--delta", "1e-12,1e-5,0.1,0.5", "--n", "2000", "--d", "8", "--json"],
        "idx": ["experiment", "--idx-images", "inputs/img.idx", "--idx-labels", "inputs/lab.idx",
                *WIDE, "--seed", seed, "--out", "idx/idx.csv", "--svg-dir", "idx/charts"],
        "cifar": ["experiment", "--cifar10", "inputs/batch.bin", *WIDE, "--seed", seed,
                  "--out", "cifar/cifar.csv", "--svg-dir", "cifar/charts"],
        "cifar-zero": ["experiment", "--cifar10", "inputs/batch.bin", *WIDE, "--zero-noise",
                       "--seed", seed, "--out", "cifar-zero/cifar-zero.csv"],
        "cifar-two": ["experiment", "--cifar10", "inputs/batch-a.bin,inputs/batch-b.bin", *WIDE,
                      "--seed", seed, "--out", "cifar-two/cifar-two.csv",
                      "--svg-dir", "cifar-two/charts"],
        "cifar100": ["experiment", "--cifar100", "inputs/c100.bin", *WIDE, "--seed", seed,
                     "--out", "cifar100/cifar100.csv", "--svg-dir", "cifar100/charts"],
        "measure-idx": ["measure", "--idx-images", "inputs/img.idx", "--idx-labels",
                        "inputs/lab.idx", "--json"],
        "measure-cifar": ["measure", "--cifar10", "inputs/batch.bin", "--release", "--seed", seed,
                          "--json"],
    }


def write_inputs() -> None:
    """IDX and CIFAR inputs whose 5% samples hold 300 x 784 and 100 x 3072 rows."""
    Path("inputs").mkdir()
    write_idx(synthetic_dataset(6000, 784, 0.5, 0), Path("inputs/img.idx"),
              Path("inputs/lab.idx"))
    write_cifar(synthetic_dataset(2000, 3072, 0.5, 1), Path("inputs/batch.bin"),
                CifarVariant.TEN)
    split = synthetic_dataset(2000, 3072, 0.5, 2)
    for name, rows in (("batch-a", slice(0, 1200)), ("batch-b", slice(1200, None))):
        write_cifar(VectorDataset(split.vectors[rows], split.labels[rows]),
                    Path(f"inputs/{name}.bin"), CifarVariant.TEN)
    write_cifar(synthetic_dataset(2000, 3072, 0.5, 3), Path("inputs/c100.bin"),
                CifarVariant.HUNDRED)


def check_listing_order() -> None:
    """Exit 1 unless the reversed mixed plan wrote the mixed plan's CSV,
    charts and stdout (its plan log lists the plan as given, so it differs)."""
    pairs = [(Path("mixed.stdout.json"), Path("mixed-reversed.stdout.json"))]
    pairs += [(path, Path("mixed-reversed", *path.parts[1:])) for path in Path("mixed").rglob("*")
              if path.is_file() and not path.name.endswith(".plan.json")]
    for mixed, reversed_ in pairs:
        if mixed.read_bytes() != reversed_.read_bytes():
            sys.exit(f"{reversed_} differs from {mixed}")


def library_run() -> dict:
    """The README's library example: one release and a 200-trial report."""
    data = synthetic_dataset(n=5000, d=16, heterogeneity=0.4, seed=7)
    ctx = build_context(data)
    cfg = EstimatorConfig(mechanism=Mechanism.ANALYTIC, setting=Setting.DISTRIBUTED, seed=123)
    budget = Statistic.DISPERSION.budget(epsilon=1.0, delta=1e-5)
    return {
        "true_value": true_value(Statistic.DISPERSION, data, ctx),
        "value": noisy_statistic(Statistic.DISPERSION, data, ctx, cfg, budget),
        "report": asdict(error_report(Statistic.DISPERSION, data, ctx, cfg, budget, trials=200)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", default="0", help="plan and release seed")
    args = parser.parse_args()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_inputs()
        for name, argv in runs(args.seed).items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                if cli_main(argv) != 0:
                    sys.exit(f"{name} failed")
            if "--json" in argv:
                Path(f"{name}.stdout.json").write_text(stdout.getvalue())
        check_listing_order()
        Path("library.json").write_text(json.dumps(library_run(), indent=2) + "\n")
        for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
        os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
