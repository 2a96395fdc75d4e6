#!/usr/bin/env python3
"""Largest relative difference per float column of two experiment or
comparison CSVs.

Reads OLD and NEW as the rows their header names: experiment rows through
hetdp.experiment.read_result_csv, comparison rows (the header of
hetdp.experiment.COMPARISON_COLUMNS) as ComparisonRow. Pairs the rows by
their key() and prints, for every float column outside the key, the largest
|old - new| / max(|old|, |new|) over the rows and how many rows differ at
all. Equal values (two NaNs included) differ by 0. Exits 1, naming the
unpaired keys, when the two files do not hold the same keys:

    PYTHONPATH=src python3 scripts/csv_delta.py old/sweep.csv new/sweep.csv
    PYTHONPATH=src python3 scripts/csv_delta.py old/compare.csv new/compare.csv
"""

import argparse
import csv
import math
import sys
from dataclasses import fields

from hetdp.experiment import COMPARISON_COLUMNS, ComparisonRow, ResultRow, read_result_csv

#: The float key column of an experiment row; a comparison row's key is all strings.
KEY_COLUMNS = ("epsilon",)


def read_rows(path: str) -> list:
    """The rows of an experiment CSV, or of a comparison CSV by its header."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) == COMPARISON_COLUMNS:
            parse = {"float": float, "str": str}
            return [ComparisonRow(**{f.name: parse[f.type](record[f.name])
                                     for f in fields(ComparisonRow)}) for record in reader]
    return read_result_csv(path)


def relative_difference(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    scale = max(abs(old), abs(new))
    return math.inf if math.isnan(scale) or math.isinf(scale) else abs(old - new) / scale


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old", help="experiment or comparison CSV of the reference run")
    parser.add_argument("new", help="CSV of the same kind to compare with it")
    args = parser.parse_args()
    old = {row.key(): row for row in read_rows(args.old)}
    new = {row.key(): row for row in read_rows(args.new)}
    if old.keys() != new.keys():
        for key in sorted(old.keys() - new.keys()):
            print(f"only in {args.old}: {key}", file=sys.stderr)
        for key in sorted(new.keys() - old.keys()):
            print(f"only in {args.new}: {key}", file=sys.stderr)
        return 1
    row_type = type(next(iter(old.values()))) if old else ResultRow
    columns = [f.name for f in fields(row_type)
               if f.type == "float" and f.name not in KEY_COLUMNS]
    print(f"{'column':<16} {'max_rel_diff':>12}  rows_differing")
    for name in columns:
        gaps = [relative_difference(getattr(old[k], name), getattr(new[k], name)) for k in old]
        differing = sum(gap > 0.0 for gap in gaps)
        print(f"{name:<16} {max(gaps, default=0.0):>12.3g}  {differing}/{len(gaps)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
