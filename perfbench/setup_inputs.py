"""Set-up process: import hetdp and write one workload's input files.

Timed from outside as the benchmark's set-up, so it covers interpreter
start, the hetdp import and input generation. Running it in its own process
keeps input generation out of the study process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    args = parser.parse_args()
    import hetdp  # noqa: F401  (the import is part of set-up for every workload)

    paths = workloads.write_inputs(workloads.get(args.workload), args.inputs, args.seed)
    print(json.dumps({str(p.name): p.stat().st_size for p in paths}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
