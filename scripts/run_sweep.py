#!/usr/bin/env python3
"""Run the default epsilon sweep on a synthetic dataset.

Thin wrapper over `hetdp experiment`: writes the result CSV
(<out-dir>/sweep.csv), the resolved plan log, and one EMSE-vs-epsilon chart
per statistic into <out-dir>/charts. The defaults mirror the library's sweep
conventions (delta 1e-5, the 0.25..5 epsilon grid, 100 trials per cell).
"""

import argparse
import sys
from pathlib import Path

from hetdp.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20000, help="synthetic dataset size")
    parser.add_argument("--d", type=int, default=8, help="vector dimension")
    parser.add_argument("--heterogeneity", type=float, default=0.5, help="generator knob in [0,1]")
    parser.add_argument("--synth-seed", type=int, default=0)
    parser.add_argument("--profiles", default="uniform-10,skewed-10",
                        help="comma-separated canonical profile names")
    parser.add_argument("--fraction", type=float, default=0.1, help="sample fraction per profile")
    parser.add_argument("--mechanisms", default="analytic",
                        help="comma-separated: analytic, classical")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    return cli_main(
        [
            "experiment",
            "--synthetic", f"{args.n},{args.d},{args.heterogeneity}",
            "--synth-seed", str(args.synth_seed),
            "--profiles", args.profiles,
            "--fraction", str(args.fraction),
            "--mechanisms", args.mechanisms,
            "--trials", str(args.trials),
            "--seed", str(args.seed),
            "--out", str(out_dir / "sweep.csv"),
            "--svg-dir", str(out_dir / "charts"),
        ]
    )


if __name__ == "__main__":
    sys.exit(main())
