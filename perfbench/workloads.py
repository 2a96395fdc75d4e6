"""The benchmark's workloads: one Monte Carlo study plan each.

A workload is the argument list of one ``hetdp experiment`` invocation plus
the input files its set-up writes. Every workload derives its inputs and its
plan seed from the benchmark's ``--seed``, so a seed fixes the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: The seven-point epsilon grid of the library's default sweep.
EPSILON_GRID = "0.25,0.5,1,2,3,4,5"
DELTA = "1e-5"
ALL_STATISTICS = "dispersion,q,i_squared"


@dataclass(frozen=True)
class Workload:
    """One study plan, run as ``hetdp.cli.main(["experiment", *argv])``.

    `inputs` names the generated dataset ("" for none, "idx" or "cifar"),
    with its (n, d); each profile samples `fraction` of its rows. `plan`
    holds the remaining dataset-independent plan flags.
    `cells` is the plan's cross-product size, stated here so the checks can
    tell a short CSV from a complete one.
    """

    name: str
    trials: int
    cells: int
    inputs: str
    n: int
    d: int
    fraction: float
    plan: tuple[str, ...]

    @property
    def sample_n(self) -> int:
        """Rows per profile sample, n in the study's cost terms."""
        return int(self.fraction * self.n)

    def input_paths(self, input_dir: Path) -> tuple[Path, ...]:
        if self.inputs == "idx":
            return (input_dir / "images.idx", input_dir / "labels.idx")
        if self.inputs == "cifar":
            return (input_dir / "data_batch.bin",)
        return ()

    def argv(self, input_dir: Path, seed: int, csv_path: Path, svg_dir: Path,
             zero_noise: bool = False) -> list[str]:
        paths = [str(p) for p in self.input_paths(input_dir)]
        if self.inputs == "idx":
            source = ["--idx-images", paths[0], "--idx-labels", paths[1],
                      "--dataset-name", self.name]
        elif self.inputs == "cifar":
            source = ["--cifar10", paths[0], "--dataset-name", self.name]
        else:
            source = ["--synthetic", f"{self.n},{self.d},0.5", "--synth-seed", str(seed)]
        argv = ["experiment", *source, *self.plan, "--fraction", str(self.fraction),
                "--trials", str(self.trials),
                "--seed", str(seed), "--out", str(csv_path), "--svg-dir", str(svg_dir)]
        if zero_noise:
            argv.append("--zero-noise")
        return argv


def write_inputs(workload: Workload, input_dir: Path, seed: int) -> list[Path]:
    """Generate the workload's dataset and write it through the public writers."""
    if not workload.inputs:
        return []
    from hetdp import synthetic_dataset, write_cifar, write_idx
    from hetdp.datasets import CifarVariant

    input_dir.mkdir(parents=True, exist_ok=True)
    data = synthetic_dataset(workload.n, workload.d, 0.5, seed)
    paths = workload.input_paths(input_dir)
    if workload.inputs == "idx":
        write_idx(data, *paths)
    else:
        write_cifar(data, paths[0], CifarVariant.TEN)
    return list(paths)


# Why each workload is in the benchmark is recorded beside it in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-d8",
            trials=20,
            cells=42,
            inputs="",
            n=20000,
            d=8,
            fraction=0.1,
            plan=("--profiles", "uniform-10,skewed-10", "--statistics", ALL_STATISTICS, "--mechanisms", "analytic",
                  "--settings", "distributed", "--epsilons", EPSILON_GRID,
                  "--delta", DELTA),
        ),
        Workload(
            name="mnist-784",
            trials=4,
            cells=6,
            inputs="idx",
            n=30000,
            d=784,
            fraction=0.1,
            plan=("--profiles", "uniform-10", "--statistics", ALL_STATISTICS, "--mechanisms", "analytic",
                  "--settings", "distributed,centralized", "--epsilons", "1.0",
                  "--delta", DELTA),
        ),
        Workload(
            name="cifar-3072",
            trials=4,
            cells=12,
            inputs="cifar",
            n=10000,
            d=3072,
            fraction=0.1,
            plan=("--profiles", "uniform-10,skewed-10", "--statistics", ALL_STATISTICS, "--mechanisms", "analytic,classical",
                  "--settings", "centralized", "--epsilons", "0.5", "--delta", DELTA),
        ),
    )
}

#: A tiny plan for the benchmark's self-test; not part of BENCHMARK.json.
SELFTEST = Workload(
    name="selftest-tiny",
    trials=3,
    cells=6,
    inputs="idx",
    n=600,
    d=16,
    fraction=0.2,
    plan=("--profiles", "uniform-10", "--statistics", ALL_STATISTICS, "--mechanisms", "analytic",
          "--settings", "distributed,centralized", "--epsilons", "1.0",
          "--delta", DELTA),
)


def get(name: str) -> Workload:
    if name == SELFTEST.name:
        return SELFTEST
    return WORKLOADS[name]
