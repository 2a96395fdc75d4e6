#!/usr/bin/env python3
"""hetdp benchmark: Monte Carlo error studies through the public CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-d8 --seed 1 --seconds 30 --trace 0

Set-up runs several times, each in a fresh process that imports hetdp and
writes the workload's inputs (setup_s is their median). One study process
then runs a closed loop of studies for --seconds and a zero-noise study of
the same plan. This process checks every study's outputs and prints the
metrics: the end-to-end ones with --trace 0, the per-layer ones (from
traced studies alternating with untraced ones) with --trace 1. The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import LAYER_METRICS, median_metrics

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
#: The whole run must end well inside three minutes.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHARTS = 3  # one per statistic; every workload plans all three


def pin_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable CPU count; children inherit it."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        threads = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(threads)
    os.environ.pop("HETDP_DATA_DIR", None)
    return nproc


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def tail(values: list[float]):
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 50, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def environment(root: Path, nproc: int) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": commit,
    }


def set_up(workload, seed: int, input_dir: Path, env: dict, root: Path):
    """Run set-up SETUP_REPEATS times; return (seconds per run, input sizes)."""
    times, sizes = [], {}
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(input_dir, ignore_errors=True)
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_inputs.py"), "--workload", workload.name,
             "--seed", str(seed), "--inputs", str(input_dir)],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        times.append(perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        sizes = json.loads(done.stdout.strip().splitlines()[-1])
    return times, sizes


def remove_work(work: Path) -> None:
    """Delete a run's work directory, and its parent once no run uses it."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass  # another run's directory is still there


def account(result: dict, workload) -> tuple[int, int, list[str], dict]:
    """Attempted and failed cells over every study of a run, with the reasons."""
    import checks  # imports hetdp, so only once src/ is on the path

    cells = workload.cells
    studies = result["studies"]
    reference_dir = Path(studies[0]["dir"]) if studies[0]["digest"] else None
    if reference_dir is not None:
        reference_rows, verdict = checks.check_reference(
            reference_dir / "study.csv", cells, CHARTS)
    else:
        reference_rows, verdict = None, checks.Verdict()
        verdict.fail(range(cells), "the first study wrote no CSV")
    notes = list(verdict.notes)
    attempted = failed = 0
    for study in studies:
        attempted += cells
        if study["error"] is not None:
            failed += cells
            notes.append(f"study {study['index']} failed: {study['error'].splitlines()[-1]}")
            continue
        bad = set(verdict.failed)
        if study["digest"] != studies[0]["digest"]:
            rows = checks.read_rows(Path(study["dir"]) / "study.csv", cells)
            differ = checks.differing_rows(reference_rows, rows, cells)
            kind = "traced" if study["traced"] else "untraced"
            notes.append(f"{kind} study {study['index']}: {len(differ)} row(s) differ "
                         "from study 0's CSV")
            bad |= differ
        failed += len(bad)
    attempted += cells
    zero = result["zero_noise"]
    if zero["error"] is not None:
        failed += cells
        notes.append(f"zero-noise study failed: {zero['error'].splitlines()[-1]}")
    else:
        zero_verdict = checks.check_zero_noise(Path(zero["dir"]) / "study.csv", cells)
        failed += len(zero_verdict.failed)
        notes += zero_verdict.notes
    z = {"rows": verdict.z_rows, "max_abs_z": verdict.max_abs_z,
         "max_abs_z_sd_emse": verdict.max_abs_z_sample, "bound": checks.Z_BOUND}
    return attempted, failed, notes, z


def measure(workload, seed: int, seconds: float, trace: int, root: Path) -> dict:
    """Set up, run the study process, check its outputs; return the report."""
    began = perf_counter()
    nproc = pin_threads()
    env = child_env(root)
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_work" / f"{workload.name}-seed{seed}-{os.getpid()}"
    results_dir = root / ".perfbench_results"
    stem = f"{workload.name}-seed{seed}-trace{trace}"
    input_dir = work / "inputs"
    try:
        setup_times, sizes = set_up(workload, seed, input_dir, env, root)
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "study.py"), "--workload", workload.name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--inputs", str(input_dir), "--work", str(work / "out"),
             "--spans", str(results_dir / f"{stem}.spans.jsonl")],
            cwd=root, env=env, stdout=subprocess.DEVNULL, check=True,
            timeout=DEADLINE_S - (perf_counter() - began),
        )
        result = json.loads((work / "out" / "study.json").read_text())
        attempted, failed, notes, z = account(result, workload)
    finally:
        remove_work(work)

    studies = result["studies"]
    untraced = [s["wall_s"] for s in studies if not s["traced"]]
    traced = [s["wall_s"] for s in studies if s["traced"]]
    wall = statistics.median(untraced)
    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "shape": {"n": workload.sample_n, "d": workload.d, "cells": workload.cells,
                  "trials": workload.trials},
        "loop": "closed, one study at a time",
        "environment": environment(root, nproc),
        "input_bytes": sizes,
        "setup_runs_s": setup_times,
        "study_walls_s": untraced,
        "traced_walls_s": traced,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "emse_z": z,
        "missing": result["missing"],
    }
    if trace:
        layers = median_metrics([s["layers"] for s in studies if s["traced"]])
        layers["trace.overhead_s"] = statistics.median(traced) - wall
        report["metrics"] = {name: (layers[name], unit) for name, unit in
                             LAYER_METRICS + (("trace.overhead_s", "s"),)}
    else:
        report["metrics"] = {
            "wall_s": (wall, "s"),
            "trials_per_s": (workload.cells * workload.trials / wall, "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
        }
        report["wall_tail"] = tail(untraced)
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def print_report(report: dict) -> None:
    shape = report["shape"]
    print(f"workload {report['workload']}  seed {report['seed']}  n={shape['n']} "
          f"d={shape['d']} cells={shape['cells']} T={shape['trials']}  trace {report['trace']}  "
          f"({report['loop']})")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    if report["input_bytes"]:
        print("input bytes " + json.dumps(report["input_bytes"], sort_keys=True))
    for name, (value, unit) in report["metrics"].items():
        line = f"  {name:<36} {value:>14.6g} {unit}"
        if name == "wall_s":
            line += f"  (median of {len(report['study_walls_s'])} studies"
            if report["wall_tail"]:
                p, value_p = report["wall_tail"]
                line += f"; p{p} {value_p:.6g} s"
            else:
                line += "; no percentile has ten samples above it"
            line += ")"
        elif name == "setup_s":
            line += f"  (median of {len(report['setup_runs_s'])})"
        print(line)
    rate = report["failed"] / report["attempted"]
    print(f"  {'fail_rate':<36} {rate:>14.6g} ratio  "
          f"({report['failed']} of {report['attempted']} cells)")
    z = report["emse_z"]
    print(f"checks: {z['rows']} dispersion/Q rows, max |z| {z['max_abs_z']:.3g} "
          f"(bound {z['bound']:g}; on sd_emse {z['max_abs_z_sd_emse']:.3g})")
    for note in report["notes"]:
        print(f"check failed: {note}")
    for name in report["missing"]:
        print(f"missing: {name} (reported as 0)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, workloads.SELFTEST.name, "all"],
                        help='"all" runs every workload untraced, then traced')
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "hetdp" / "__init__.py").is_file():
        print("error: run from the root of a hetdp checkout (src/hetdp not found)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(w, trace) for w in workloads.WORKLOADS.values() for trace in (0, 1)]
    else:
        runs = [(workloads.get(args.workload), args.trace)]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        try:
            report = measure(workload, args.seed, args.seconds, trace, root)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        print_report(report)
        summary["correct"] &= report["failed"] == 0
        summary["attempted"] += report["attempted"]
        summary["failed"] += report["failed"]
        prefix = f"{workload.name}/" if len(runs) > 1 else ""
        for name, (value, unit) in report["metrics"].items():
            summary["metrics"][prefix + name] = {"value": value, "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
