#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (about ten seconds).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It proves that run.py emits exactly the metric names BENCHMARK.json lists,
for --trace 0 and --trace 1, with no failed cell on the unmodified code; and
that the checks count as failures a tampered CSV row (a wrong true value, an
EMSE off its closed form) and a non-zero error in a zero-noise run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import run
import workloads

TINY = workloads.SELFTEST


def run_benchmark(root: Path, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", TINY.name,
         "--seed", "3", "--seconds", "2", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def rewrite_row(csv_path: Path, row: int, column: str, value: float) -> None:
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[1 + row].split(",")
    fields[header.index(column)] = repr(value)
    lines[1 + row] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), \
        "BENCHMARK.json and workloads.py name different workloads"

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = run_benchmark(root, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0, result
        expected = [m["name"] for m in spec[section]]
        assert list(result["metrics"]) == expected, (list(result["metrics"]), expected)
        for name, metric in result["metrics"].items():
            unit = next(m["unit"] for m in spec[section] if m["name"] == name)
            assert metric["unit"] == unit and isinstance(metric["value"], (int, float)), name
        print(f"trace {trace}: {len(expected)} metrics emitted, {result['attempted']} cells, "
              "none failed")

    run.pin_threads()
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        env = run.child_env(root)
        run.set_up(TINY, 3, work / "inputs", env, root)
        subprocess.run(
            [sys.executable, str(run.BENCH_DIR / "study.py"), "--workload", TINY.name,
             "--seed", "3", "--seconds", "1", "--trace", "0", "--inputs",
             str(work / "inputs"), "--work", str(work / "out")],
            cwd=root, env=env, stdout=subprocess.DEVNULL, timeout=120, check=True,
        )
        result = json.loads((work / "out" / "study.json").read_text())
        studies = len(result["studies"])
        attempted, failed, notes, _z = run.account(result, TINY)
        assert failed == 0 and attempted == TINY.cells * (studies + 1), (failed, notes)

        reference = work / "out" / "s0" / "study.csv"
        pristine = reference.read_bytes()
        for row, column, value in ((1, "true_value", 0.125), (0, "emse", 1e6)):
            rewrite_row(reference, row, column, value)
            _a, failed, notes, _z = run.account(result, TINY)
            # The reference row stands for every study with the same digest.
            assert failed == studies, (column, failed, notes)
            reference.write_bytes(pristine)
            print(f"tampered {column} of row {row}: {failed} failed cells counted")

        zero = work / "out" / "zero" / "study.csv"
        rewrite_row(zero, 2, "cmse", 5e-324)
        _a, failed, notes, _z = run.account(result, TINY)
        assert failed == 1, (failed, notes)
        print("non-zero zero-noise error: 1 failed cell counted")
    finally:
        run.remove_work(work)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
