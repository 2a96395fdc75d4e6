"""Every script in scripts/ runs end to end against the hetdp in src/, in a
child process, with its outputs and temporary files under tmp_path."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(tmp_path, script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def _ok(result):
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("sweep")
    _ok(_run(tmp_path, "run_sweep.py", "--n", "2000", "--trials", "3", "--out-dir", "out"))
    return tmp_path / "out" / "sweep.csv"


def test_output_digests_checks_listing_order(tmp_path):
    # the script exits 1 when the reversed mixed plan writes other bytes
    lines = _ok(_run(tmp_path, "output_digests.py", "--seed", "0")).splitlines()
    assert any(line.endswith("  mixed-reversed/mixed.csv") for line in lines)
    assert all(len(line.split("  ")[0]) == 64 for line in lines)


def test_peak_rss_times_every_layer(tmp_path):
    out = _ok(_run(tmp_path, "peak_rss.py", "--workload", "sweep-d8", "--studies", "2",
                   "--layers"))
    report = json.loads(out)
    # LAYERS read from the source: importing the script would import perfbench
    tree = ast.parse((ROOT / "scripts" / "peak_rss.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", "") == "LAYERS")
    assert set(report["layer_ms_per_study"]) == {n for names in layers.values() for n in names}
    assert report["studies"] == 2


def test_csv_delta_of_a_sweep_against_itself_is_zero(tmp_path, sweep_csv):
    lines = _ok(_run(tmp_path, "csv_delta.py", str(sweep_csv), str(sweep_csv))).splitlines()
    assert lines[0].split() == ["column", "max_rel_diff", "rows_differing"]
    rows = [line.split() for line in lines[1:]]
    assert rows and all(float(gap) == 0.0 and differing.startswith("0/")
                        for _, gap, differing in rows)


def test_run_sweep_writes_csv_and_charts(sweep_csv):
    assert sweep_csv.with_suffix(".plan.json").is_file()
    assert any((sweep_csv.parent / "charts").glob("*.svg"))


def test_run_comparison(tmp_path):
    out = _ok(_run(tmp_path, "run_comparison.py", "--n", "4000", "--trials", "3",
                   "--epsilons", "0.5"))
    assert "wrote" in out and (tmp_path / "comparison.csv").is_file()


def test_calibration_table(tmp_path):
    rows = json.loads(_ok(_run(tmp_path, "calibration_table.py", "--epsilons", "0.5",
                               "--json")))
    assert [row["epsilon"] for row in rows] == [0.5]
