#!/usr/bin/env python3
"""Peak RSS and median wall time of a fixed number of studies in one process.

Writes one perfbench workload's inputs in a child process
(perfbench/setup_inputs.py, so input generation stays out of this process's
peak), then runs the workload's plan K times in this process through
hetdp.cli.main, one study after another, and prints one JSON object with
`ru_maxrss` (as MiB) and the median study wall time. perfbench's own
peak_rss_mib comes from however many studies fit its time window; a fixed K
makes two trees comparable. `minor_faults_per_study` is the rise of
`ru_minflt` over the K studies, divided by K. --trials T runs the workload's
plan at T trials per cell instead of its own count. --layers also times the
functions named in LAYERS, each where its module binds it, and adds
`layer_ms_per_study`, their mean in-process time per study, and
`other_ms_per_study`, the mean study wall time they leave over (none of
them calls another, so their times add up); the wrappers' own cost falls
inside `other_ms_per_study` and `wall_s_median`. --batches K splits a
record-file workload's input (cifar-3072) into K batch files of whole
records, as the real CIFAR-10 release comes in five, and passes them as one
comma-separated --cifar10; K = 1 is the workload's own one file. The hetdp
on PYTHONPATH is the one measured, so one copy of this script times two
trees:

    PYTHONPATH=src python3 scripts/peak_rss.py --workload cifar-3072 --studies 50
    PYTHONPATH=src python3 scripts/peak_rss.py --workload cifar-3072 --studies 20 --trials 500
    PYTHONPATH=src python3 scripts/peak_rss.py --workload sweep-d8 --studies 200 --layers
    PYTHONPATH=src python3 scripts/peak_rss.py --workload cifar-3072 --studies 50 --batches 5
"""

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402  (perfbench/workloads.py, read only)

#: The study's layers that --layers times, by the module that binds them:
#: argument parsing, loading, sampling, the data pass, the true values, the
#: trial draws, calibration, scoring and the three writers.
LAYERS = {
    "hetdp.cli": ("build_parser",),
    "hetdp.experiment": ("load_dataset", "stratified_sample", "build_context", "true_value",
                         "trial_draws", "stage_sigmas", "error_reports",
                         "write_result_csv", "write_plan_log", "write_emse_charts"),
}


def time_layers() -> dict[str, float]:
    """Replace each LAYERS function in its module by a wrapper that adds its
    wall time to the returned totals (seconds, by name)."""
    totals = {name: 0.0 for names in LAYERS.values() for name in names}

    def timed(name, inner):
        def call(*args, **kwargs):
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                totals[name] += perf_counter() - start
        return call

    for module_name, names in LAYERS.items():
        module = importlib.import_module(module_name)
        for name in names:
            setattr(module, name, timed(name, getattr(module, name)))
    return totals


def split_records(path: Path, batches: int, record: int) -> list[Path]:
    """Copy the headerless record file at `path` into `batches` files of
    whole records (the first total % batches files hold one more), 1 MiB
    at a time so this process never holds the file, and delete it."""
    total = path.stat().st_size // record
    parts = [path.with_name(f"data_batch_{k + 1}.bin") for k in range(batches)]
    with open(path, "rb") as src:
        for k, part in enumerate(parts):
            left = (total // batches + (k < total % batches)) * record
            with open(part, "wb") as dst:
                while left:
                    left -= dst.write(src.read(min(left, 1 << 20)))
    path.unlink()
    return parts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--studies", type=int, required=True, help="K, the number of studies")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per cell (default: the workload's own)")
    parser.add_argument("--layers", action="store_true",
                        help="also report each LAYERS function's time per study")
    parser.add_argument("--batches", type=int, default=1,
                        help="split the record-file input into K batch files (default 1)")
    args = parser.parse_args()
    if args.studies < 1:
        parser.error("--studies must be at least 1")
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be at least 1")
    workload = workloads.get(args.workload)
    if args.batches < 1 or (args.batches > 1 and workload.inputs != "cifar"):
        parser.error("--batches needs a positive K, and K > 1 a record-file workload")
    if args.trials is not None:
        workload = dataclasses.replace(workload, trials=args.trials)
    from hetdp.cli import main as cli_main
    from hetdp.datasets import CIFAR10_RECORD

    walls = []
    with tempfile.TemporaryDirectory() as tmp:
        inputs, out = Path(tmp) / "inputs", Path(tmp) / "out"
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_inputs.py"), "--workload", workload.name,
             "--seed", str(args.seed), "--inputs", str(inputs)],
            check=True, stdout=subprocess.DEVNULL,
        )
        argv = workload.argv(inputs, args.seed, out / "study.csv", out / "charts")
        if args.batches > 1:
            batches = split_records(workload.input_paths(inputs)[0], args.batches, CIFAR10_RECORD)
            argv[argv.index("--cifar10") + 1] = ",".join(map(str, batches))
        totals = time_layers() if args.layers else None
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(args.studies):
            start = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
            walls.append(perf_counter() - start)
            if code != 0:
                sys.exit(f"study failed with exit code {code}")
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "studies": args.studies,
        "trials": workload.trials,
        "batches": args.batches,
        "nproc": len(os.sched_getaffinity(0)),
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "wall_s_median": round(statistics.median(walls), 4),
        "minor_faults_per_study": round(faults / args.studies, 1),
    }
    if totals is not None:
        report["layer_ms_per_study"] = {
            name: round(1e3 * total / args.studies, 3) for name, total in totals.items()
        }
        report["other_ms_per_study"] = round(
            1e3 * (sum(walls) - sum(totals.values())) / args.studies, 3)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
