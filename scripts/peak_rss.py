#!/usr/bin/env python3
"""Peak RSS and median wall time of a fixed number of studies in one process.

Writes one perfbench workload's inputs in a child process
(perfbench/setup_inputs.py, so input generation stays out of this process's
peak), then runs the workload's plan K times in this process through
hetdp.cli.main, one study after another, and prints one JSON object with
`ru_maxrss` (as MiB) and the median study wall time. perfbench's own
peak_rss_mib comes from however many studies fit its time window; a fixed K
makes two trees comparable. --trials T runs the workload's plan at T trials
per cell instead of its own count:

    PYTHONPATH=src python3 scripts/peak_rss.py --workload cifar-3072 --studies 50
    PYTHONPATH=src python3 scripts/peak_rss.py --workload cifar-3072 --studies 20 --trials 500
"""

import argparse
import contextlib
import dataclasses
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--studies", type=int, required=True, help="K, the number of studies")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per cell (default: the workload's own)")
    args = parser.parse_args()
    if args.studies < 1:
        parser.error("--studies must be at least 1")
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be at least 1")
    workload = workloads.get(args.workload)
    if args.trials is not None:
        workload = dataclasses.replace(workload, trials=args.trials)
    from hetdp.cli import main as cli_main

    walls = []
    with tempfile.TemporaryDirectory() as tmp:
        inputs, out = Path(tmp) / "inputs", Path(tmp) / "out"
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_inputs.py"), "--workload", workload.name,
             "--seed", str(args.seed), "--inputs", str(inputs)],
            check=True, stdout=subprocess.DEVNULL,
        )
        argv = workload.argv(inputs, args.seed, out / "study.csv", out / "charts")
        for _ in range(args.studies):
            start = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
            walls.append(perf_counter() - start)
            if code != 0:
                sys.exit(f"study failed with exit code {code}")
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "studies": args.studies,
        "trials": workload.trials,
        "nproc": len(os.sched_getaffinity(0)),
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "wall_s_median": round(statistics.median(walls), 4),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
