#!/usr/bin/env python3
"""Largest relative difference per float column of two experiment CSVs.

Reads OLD and NEW with hetdp.experiment.read_result_csv, pairs their rows by
key (dataset, statistic, mechanism, setting, profile, epsilon) and prints,
for every float column outside the key, the largest |old - new| / max(|old|,
|new|) over the rows and how many rows differ at all. Equal values (two
NaNs included) differ by 0. Exits 1, naming the unpaired keys, when the two
files do not hold the same keys:

    PYTHONPATH=src python3 scripts/csv_delta.py old/sweep.csv new/sweep.csv
"""

import argparse
import math
import sys
from dataclasses import fields

from hetdp.experiment import ResultRow, read_result_csv

KEY_COLUMNS = ("dataset", "statistic", "mechanism", "setting", "profile", "epsilon")


def relative_difference(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    scale = max(abs(old), abs(new))
    return math.inf if math.isnan(scale) or math.isinf(scale) else abs(old - new) / scale


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old", help="experiment CSV of the reference run")
    parser.add_argument("new", help="experiment CSV to compare with it")
    args = parser.parse_args()
    old = {row.key(): row for row in read_result_csv(args.old)}
    new = {row.key(): row for row in read_result_csv(args.new)}
    if old.keys() != new.keys():
        for key in sorted(old.keys() - new.keys()):
            print(f"only in {args.old}: {key}", file=sys.stderr)
        for key in sorted(new.keys() - old.keys()):
            print(f"only in {args.new}: {key}", file=sys.stderr)
        return 1
    columns = [f.name for f in fields(ResultRow)
               if f.type == "float" and f.name not in KEY_COLUMNS]
    print(f"{'column':<16} {'max_rel_diff':>12}  rows_differing")
    for name in columns:
        gaps = [relative_difference(getattr(old[k], name), getattr(new[k], name)) for k in old]
        differing = sum(gap > 0.0 for gap in gaps)
        print(f"{name:<16} {max(gaps, default=0.0):>12.3g}  {differing}/{len(gaps)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
