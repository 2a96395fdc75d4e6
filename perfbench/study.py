"""The study process: a closed loop of one workload's studies through the CLI.

Each study is one ``hetdp.cli.main(["experiment", ...])`` call, timed from
the call until it returns with the CSV, plan log and charts written. The next
study starts when the last one ends. With tracing on, untraced and traced
studies alternate, so both see the same machine state. After the loop one
zero-noise study of the same plan runs untimed. The process writes its
results as JSON and, when traced, its spans as JSON lines.

Run by perfbench/run.py, which sets PYTHONPATH and the thread variables.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

#: Studies run even when one study takes longer than the measuring window.
MIN_STUDIES = 3
#: No study starts after this many seconds, whatever --seconds says.
HARD_STOP_S = 100.0


def run_study(workload, seed: int, input_dir: Path, out_dir: Path, zero_noise: bool = False):
    """One study; returns (wall seconds, error text or None, CSV digest or None)."""
    import hetdp.cli

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    csv_path = out_dir / "study.csv"
    argv = workload.argv(input_dir, seed, csv_path, out_dir / "charts", zero_noise)
    error = None
    start = perf_counter()
    try:
        code = hetdp.cli.main(argv)
    except (Exception, SystemExit):  # a failing study is a measured outcome
        error = traceback.format_exc(limit=3)
    else:
        if code != 0:
            error = f"exit code {code}"
    wall = perf_counter() - start
    if error is not None:
        print(f"study failed: {error}", file=sys.stderr)
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest() if csv_path.is_file() else None
    return wall, error, digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()
    workload = workloads.get(args.workload)
    import hetdp.cli  # noqa: F401  (imported before timing starts)

    tracer = Tracer() if args.trace else None
    studies = []
    start = perf_counter()
    while True:
        index = len(studies)
        traced = tracer is not None and index % 2 == 1
        out_dir = args.work / f"s{index}"
        if traced:
            tracer.run_id = index
            tracer.install()
        try:
            wall, error, digest = run_study(workload, args.seed, args.inputs, out_dir)
        finally:
            if traced:
                tracer.uninstall()
        study = {"index": index, "traced": traced, "wall_s": wall, "error": error,
                 "digest": digest, "dir": str(out_dir)}
        if traced:
            study["layers"] = {**tracer.layer_metrics(index), **tracer.take_counts()}
        if index == 0:
            reference = digest
        elif digest is not None and digest == reference:
            shutil.rmtree(out_dir)  # identical to study 0; keep only outputs that differ
            study["dir"] = None
        studies.append(study)

        elapsed = perf_counter() - start
        typical = statistics.median(s["wall_s"] for s in studies)
        least = 2 if tracer else 1  # a traced run needs one study of each kind
        enough = len(studies) >= least * MIN_STUDIES
        if len(studies) >= least and (
            elapsed > HARD_STOP_S or (enough and elapsed + typical > args.seconds)
        ):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    zero_dir = args.work / "zero"
    _wall, zero_error, _digest = run_study(
        workload, args.seed, args.inputs, zero_dir, zero_noise=True
    )

    if tracer is not None and args.spans is not None:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        with open(args.spans, "w") as fh:
            for name, begin, end, parent, run in tracer.spans:
                fh.write(json.dumps({"name": name, "start": begin, "end": end,
                                     "parent": parent, "run": run}) + "\n")
    result = {
        "studies": studies,
        "peak_rss_mib": peak_rss_mib,
        "zero_noise": {"dir": str(zero_dir), "error": zero_error},
        "missing": tracer.missing if tracer else [],
    }
    (args.work / "study.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
