"""Command line interface, exercised in process through main(argv)."""

import json
import os
import struct

import numpy as np
import pytest

from hetdp.cli import DATA_DIR_ENV, main
from hetdp.datasets import CifarVariant, write_cifar, write_idx
from hetdp.experiment import read_result_csv
from hetdp.gaussian import SensitivitySpec, agm_sigma, cgm_sigma
from hetdp.measures import VectorDataset

SYNTH_ARGS = ["--synthetic", "400,4,0.5", "--synth-seed", "0"]


def _write_constant_idx(tmp_path):
    vectors = np.full((6, 3), 128.0 / 255.0)
    data = VectorDataset(vectors, np.zeros(6, dtype=np.int64))
    write_idx(data, tmp_path / "img.bin", tmp_path / "lab.bin")


class TestExitCodes:
    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--synthetic", "100,4,0.5", "--cifar10", "x.bin"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["experiment", "--epsilons", "0.5,nan"], "epsilons must be nonempty and positive"),
        (["experiment", "--epsilons", "0.5,inf"], "epsilons must be nonempty and positive"),
        (["measure", "--release", "--epsilon", "-1"], "epsilon must be positive and finite"),
        (["measure", "--release", "--epsilon", "inf"], "epsilon must be positive and finite"),
        (["measure", "--release", "--delta", "0"], "delta must lie in (0, 1), got 0.0"),
        (["measure", "--release", "--delta", "nan"], "delta must lie in (0, 1), got nan"),
        (["calibrate", "--epsilons", "-1"], "epsilon must be positive and finite, got -1.0"),
        (["calibrate", "--delta", "0"], "delta must lie in (0, 1), got 0.0"),
        (["calibrate", "--sensitivity", "0"], "L2 sensitivity must be positive and finite"),
        (["calibrate", "--sensitivity", "inf"], "L2 sensitivity must be positive and finite"),
        (["experiment", "--synthetic", "20000,8,1.5"], "heterogeneity must lie in [0, 1], got 1.5"),
        (["calibrate", "--epsilons", "1000"], "where e^epsilon overflows, got 1000.0"),
        (["experiment", "--epsilons", "1000"], "where e^epsilon overflows, got 1000.0"),
        (["measure", "--release", "--epsilon", "1000"], "where e^epsilon overflows, got 1000.0"),
    ])
    def test_invalid_privacy_flag_is_two_before_data_is_read(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        def no_load(desc):
            raise AssertionError("read the data")

        for module in ("cli", "experiment"):
            monkeypatch.setattr(f"hetdp.{module}.load_dataset", no_load)
        # SYNTH_ARGS go first, so a case's own --synthetic overrides them
        if argv[0] == "experiment":
            argv = [argv[0], *SYNTH_ARGS, *argv[1:], "--profiles", "uniform-2",
                    "--out", str(tmp_path / "o.csv")]
        elif argv[0] == "measure":
            argv = [argv[0], *SYNTH_ARGS, *argv[1:]]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["measure", "experiment", "compare-heterogeneity"])
    @pytest.mark.parametrize("split, message", [
        ("0.5,0.6", "error: fractions must sum to 1, got 1.1"),
        ("1.5,-0.5", "error: fractions must all be positive, got (1.5, -0.5)"),
    ])
    def test_bad_budget_split_is_two_before_data_is_read(
        self, tmp_path, monkeypatch, capsys, command, split, message
    ):
        def no_load(desc):
            raise AssertionError("read the data")

        for module in ("cli", "experiment"):
            monkeypatch.setattr(f"hetdp.{module}.load_dataset", no_load)
        argv = [command, *SYNTH_ARGS, "--budget-split", split]
        if command == "measure":
            argv.append("--release")
        else:
            argv += ["--profiles", "uniform-2,skewed-2", "--statistics", "dispersion",
                     "--out", str(tmp_path / "o.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_unknown_subcommand_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_classical_at_large_epsilon_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(
                ["measure", *SYNTH_ARGS, "--release", "--mechanism", "classical",
                 "--epsilon", "1.5"]
            )
        assert exc.value.code == 2

    def test_classical_range_message_matches_the_plan(self, tmp_path, capsys):
        message = ("the classical calibration is only defined for epsilon < 1; "
                   "drop classical or restrict the epsilon grid")
        release = ["measure", *SYNTH_ARGS, "--release", "--mechanism", "classical",
                   "--epsilon", "1.5"]
        plan = ["experiment", *SYNTH_ARGS, "--profiles", "uniform-2", "--mechanisms",
                "classical", "--epsilons", "0.5,1.5", "--out", str(tmp_path / "o.csv")]
        for argv in (release, plan):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.rstrip().endswith(f"error: {message}")

    @pytest.mark.parametrize("command", ["measure", "experiment"])
    def test_synthetic_dim_mismatch_is_two(self, tmp_path, capsys, command):
        argv = [command, "--synthetic", "200,8,0.5", "--dim", "16", "--json"]
        if command == "experiment":
            argv += ["--profiles", "uniform-2", "--out", str(tmp_path / "o.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--dim 16 contradicts the synthetic dimension D=8" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_synthetic_dim_equal_to_d_passes(self, capsys):
        assert main(["measure", "--synthetic", "200,8,0.5", "--dim", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["dataset"], payload["d"]) == ("synthetic-200x8-h0.5", 8)

    def test_fraction_without_profile_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["measure", *SYNTH_ARGS, "--fraction", "0.25"])
        assert exc.value.code == 2
        assert "--fraction needs --profile" in capsys.readouterr().err

    def test_sample_seed_without_profile_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["measure", *SYNTH_ARGS, "--sample-seed", "5", "--json"])
        assert exc.value.code == 2
        assert "--sample-seed needs --profile" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--epsilon", "7"], ["--delta", "0.01"], ["--mechanism", "classical"],
        ["--setting", "centralized"], ["--budget-split", "0.3,0.7"], ["--seed", "3"],
        ["--zero-noise"],
    ])
    def test_release_flag_without_release_is_two(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["measure", *SYNTH_ARGS, *flag, "--json"])
        assert exc.value.code == 2
        assert f"{flag[0]} needs --release" in capsys.readouterr().err

    def test_flags_at_their_defaults_count_as_absent(self, capsys):
        assert main(["measure", *SYNTH_ARGS, "--sample-seed", "0", "--seed", "0",
                     "--mechanism", "analytic", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 400

    @pytest.mark.parametrize("command", ["measure", "experiment", "compare-heterogeneity"])
    @pytest.mark.parametrize("source", [
        ["--idx-images", "img.bin", "--idx-labels", "lab.bin"], ["--cifar10", "batch.bin"],
        ["--cifar100", "batch.bin"],
    ])
    def test_synth_seed_with_a_file_source_is_two(self, tmp_path, capsys, command, source):
        argv = [command, *source, "--synth-seed", "4"]
        if command != "measure":
            argv += ["--profiles", "uniform-2,skewed-2", "--out", str(tmp_path / "o.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--synth-seed needs --synthetic" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["measure", "experiment", "compare-heterogeneity"])
    def test_negative_synth_seed_is_two_before_data_is_read(
        self, tmp_path, monkeypatch, capsys, command
    ):
        def no_load(desc):
            raise AssertionError("read the data")

        for module in ("cli", "experiment"):
            monkeypatch.setattr(f"hetdp.{module}.load_dataset", no_load)
        argv = [command, "--synthetic", "400,4,0.5", "--synth-seed", "-1"]
        if command != "measure":
            argv += ["--profiles", "uniform-2,skewed-2", "--out", str(tmp_path / "o.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--synth-seed) must be nonnegative, got -1" in capsys.readouterr().err

    def test_negative_sample_seed_is_two_before_data_is_read(self, monkeypatch, capsys):
        def no_load(desc):
            raise AssertionError("read the data")

        monkeypatch.setattr("hetdp.cli.load_dataset", no_load)
        with pytest.raises(SystemExit) as exc:
            main(["measure", *SYNTH_ARGS, "--profile", "uniform-2", "--sample-seed", "-1"])
        assert exc.value.code == 2
        assert "--sample-seed must be nonnegative, got -1" in capsys.readouterr().err

    def test_negative_plan_seed_is_valid(self, tmp_path, capsys):
        # derive_seed masks every seed to 64 bits
        assert main(["measure", *SYNTH_ARGS, "--release", "--seed", "-1", "--json"]) == 0
        assert main(["experiment", *SYNTH_ARGS, "--profiles", "uniform-2", "--seed", "-1",
                     "--trials", "2", "--out", str(tmp_path / "o.csv")]) == 0

    def test_unknown_profile_is_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                ["experiment", *SYNTH_ARGS, "--profiles", "nonesuch",
                 "--out", str(tmp_path / "o.csv")]
            )
        assert exc.value.code == 2

    def test_missing_file_is_one(self, tmp_path, capsys):
        code = main(
            ["measure", "--idx-images", str(tmp_path / "no.bin"),
             "--idx-labels", str(tmp_path / "no2.bin")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_capacity_error_is_one(self, tmp_path, capsys):
        code = main(
            ["experiment", *SYNTH_ARGS, "--profiles", "uniform-2", "--fraction", "0.9",
             "--statistics", "dispersion", "--trials", "1",
             "--out", str(tmp_path / "o.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: profile uniform-2" in err


class TestDatasetName:
    @pytest.mark.parametrize(
        "name", [pytest.param("a/b", id="slash"), pytest.param(f"a{os.sep}b", id="os-sep")]
    )
    def test_path_separator_is_usage_error_before_loading(self, tmp_path, capsys, name):
        # The image files do not exist: the name is rejected before any read.
        with pytest.raises(SystemExit) as exc:
            main(
                ["experiment", "--idx-images", str(tmp_path / "no.bin"),
                 "--idx-labels", str(tmp_path / "no2.bin"), "--dataset-name", name,
                 "--profiles", "uniform-2", "--out", str(tmp_path / "o.csv"),
                 "--svg-dir", str(tmp_path / "charts")]
            )
        assert exc.value.code == 2
        assert "may not contain a path separator" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_plain_name_names_the_charts(self, tmp_path):
        code = main(
            ["experiment", *SYNTH_ARGS, "--dataset-name", "plain", "--profiles", "uniform-2",
             "--fraction", "0.25", "--epsilons", "0.5", "--trials", "2",
             "--out", str(tmp_path / "o.csv"), "--svg-dir", str(tmp_path / "charts")]
        )
        assert code == 0
        assert (tmp_path / "charts" / "emse_q_plain.svg").is_file()


class TestUnknownNames:
    @pytest.mark.parametrize(
        "flag, kind", [("--mechanisms", "mechanism"), ("--settings", "setting"),
                       ("--statistics", "statistic")]
    )
    def test_unknown_name_is_two(self, tmp_path, capsys, flag, kind):
        with pytest.raises(SystemExit) as exc:
            main(
                ["experiment", *SYNTH_ARGS, "--profiles", "uniform-2", flag, "nonesuch",
                 "--out", str(tmp_path / "o.csv")]
            )
        assert exc.value.code == 2
        assert f"unknown {kind} 'nonesuch'; choose from [" in capsys.readouterr().err


class TestUnsampledRecordsAreValidated:
    """The whole file is checked, not only the rows a profile samples: the
    profile takes 2% of the rows with the two smallest labels, and each
    fault lies in a record outside that sample."""

    PLAN = ["--profiles", "uniform-2", "--fraction", "0.02", "--statistics", "dispersion",
            "--epsilons", "0.5", "--delta", "0.1", "--trials", "1"]

    @staticmethod
    def _labels(n):
        return np.arange(n, dtype=np.int64) % 2

    def _run(self, tmp_path, source):
        return main(["experiment", *source, *self.PLAN, "--out", str(tmp_path / "o.csv")])

    def test_out_of_range_cifar_label(self, tmp_path, capsys):
        path = tmp_path / "batch.bin"
        data = VectorDataset(np.zeros((100, 3072)), self._labels(100))
        write_cifar(data, path, CifarVariant.TEN)
        raw = bytearray(path.read_bytes())
        raw[99 * 3073] = 77
        path.write_bytes(bytes(raw))
        assert self._run(tmp_path, ["--cifar10", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: label byte 77 out of range 0..9")
        assert f"at offset {99 * 3073}" in err

    def _idx(self, tmp_path):
        rng = np.random.default_rng(0)
        data = VectorDataset(rng.integers(0, 256, (100, 6)) / 255.0, self._labels(100))
        images, labels = tmp_path / "img.bin", tmp_path / "lab.bin"
        write_idx(data, images, labels)
        return images, ["--idx-images", str(images), "--idx-labels", str(labels)]

    @pytest.mark.parametrize(
        "command, profiles", [("experiment", "uniform-2"),
                              ("compare-heterogeneity", "uniform-2,skewed-2")]
    )
    def test_truncated_idx_images_is_one_under_both_subcommands(
        self, tmp_path, capsys, command, profiles
    ):
        images, source = self._idx(tmp_path)
        images.write_bytes(images.read_bytes()[:-3])
        code = main([command, *source, *self.PLAN, "--profiles", profiles,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: truncated pixel data")
        assert "usage:" not in err

    def test_truncated_idx_images(self, tmp_path, capsys):
        images, source = self._idx(tmp_path)
        images.write_bytes(images.read_bytes()[:-3])
        assert self._run(tmp_path, source) == 1
        assert capsys.readouterr().err.startswith("error: truncated pixel data")

    def test_declared_dim_mismatch(self, tmp_path, capsys):
        _, source = self._idx(tmp_path)
        assert self._run(tmp_path, [*source, "--dim", "7"]) == 1
        assert "declares d=7 but the data has d=6" in capsys.readouterr().err

    def test_intact_files_run(self, tmp_path, capsys):
        _, source = self._idx(tmp_path)
        assert self._run(tmp_path, source) == 0

    def test_zero_image_idx_pair_is_one(self, tmp_path, capsys):
        images, labels = tmp_path / "img.bin", tmp_path / "lab.bin"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 0, 28, 28))
        labels.write_bytes(struct.pack(">II", 0x00000801, 0))
        code = main(["measure", "--idx-images", str(images), "--idx-labels", str(labels)])
        assert code == 1
        assert capsys.readouterr().err == "error: dataset must contain at least one vector\n"

    @pytest.mark.parametrize("rows, cols", [(0, 0), (28, 0)])
    def test_image_size_without_pixels_is_one(self, tmp_path, capsys, rows, cols):
        images, labels = tmp_path / "img.bin", tmp_path / "lab.bin"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 5, rows, cols))
        labels.write_bytes(struct.pack(">II", 0x00000801, 5) + bytes(5))
        code = main(["measure", "--idx-images", str(images), "--idx-labels", str(labels),
                     "--json"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: image size {rows}x{cols} holds no pixels in {images} at offset 8\n"
        )


class TestRunFailuresAreErrors:
    ARGS = [
        "experiment", *SYNTH_ARGS, "--profiles", "uniform-2", "--fraction", "0.25",
        "--statistics", "i_squared", "--epsilons", "0.5", "--delta", "0.1", "--trials", "3",
    ]

    def test_degenerate_noisy_q_is_one(self, tmp_path, monkeypatch, capsys):
        import hetdp.estimators

        import hetdp.errors

        real = hetdp.estimators.release_noise

        def nonpositive_q(statistic, ctx, *args):
            return -abs(real(statistic, ctx, *args)) - 2.0 * ctx.q_value

        monkeypatch.setattr(hetdp.errors, "release_noise", nonpositive_q)
        for command in ("experiment", "compare-heterogeneity"):
            args = [command, *self.ARGS[1:]]
            if command == "compare-heterogeneity":
                args[args.index("uniform-2")] = "uniform-2,skewed-2"
            code = main([*args, "--out", str(tmp_path / f"{command}.csv")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: noisy q is ")
            assert "Traceback" not in err

    def test_zero_true_q_is_a_one_line_error(self, tmp_path, capsys):
        # Constant rows have a true Q of 0, so the I^2 TMSE is undefined;
        # the abort names the smallest noisy Q, not the whole trial array.
        vectors = np.full((200, 16), 128.0 / 255.0)
        data = VectorDataset(vectors, np.arange(200, dtype=np.int64) % 2)
        write_idx(data, tmp_path / "img.bin", tmp_path / "lab.bin")
        code = main(["experiment", "--idx-images", str(tmp_path / "img.bin"),
                     "--idx-labels", str(tmp_path / "lab.bin"), "--profiles", "uniform-2",
                     "--fraction", "0.1", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: q values must be positive, got true=0.0")
        assert err.count("\n") == 1 and "array(" not in err

    def test_one_row_profile(self, tmp_path, capsys):
        # 400 x 0.0025 is a one-row sample: its Q and I^2 have a truth (0.0)
        # but no release, so a plan with either aborts and one without runs.
        args = [*self.ARGS, "--fraction", "0.0025", "--out", str(tmp_path / "o.csv")]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: i_squared needs n >= 2, got n=1\n"
        assert main([*args, "--statistics", "dispersion,q"]) == 1
        assert capsys.readouterr().err == "error: q needs n >= 2, got n=1\n"
        assert main([*args, "--statistics", "dispersion"]) == 0
        rows = read_result_csv(tmp_path / "o.csv")
        assert {r.statistic for r in rows} == {"dispersion"}
        assert all(r.i_squared_min == r.i_squared_mean == 0.0 for r in rows)

    def test_solver_failure_is_one(self, tmp_path, monkeypatch, capsys):
        import hetdp.estimators
        from hetdp.gaussian import ConvergenceError

        def failing(sens, epsilon, delta):
            raise ConvergenceError("bisection exceeded the iteration cap", (0.0, 1.0))

        monkeypatch.setattr(hetdp.estimators, "agm_sigma", failing)
        code = main([*self.ARGS, "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: bisection exceeded")


class TestCalibrate:
    def test_table_marks_out_of_range_rows(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "sigma_analytic" in out
        assert "out of CGM range" in out
        assert "0.6856" in out

    def test_json_numbers_match_direct_calls(self, capsys):
        assert main(["calibrate", "--epsilons", "0.25,2.0", "--delta", "1e-5", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        spec = SensitivitySpec.from_shape(100, 64)
        low = next(r for r in rows if r["epsilon"] == 0.25)
        assert low["sensitivity"] == spec.delta_l2
        assert low["sigma_analytic"] == agm_sigma(spec, 0.25, 1e-5).sigma
        assert low["sigma_classical"] == cgm_sigma(spec, 0.25, 1e-5).sigma
        assert 0 < low["ratio"] < 1
        high = next(r for r in rows if r["epsilon"] == 2.0)
        assert high["sigma_classical"] is None
        assert high["ratio"] is None

    def test_largest_epsilons_below_the_exp_bound_run(self, capsys):
        assert main(["calibrate", "--epsilons", "709,709.78", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["epsilon"] for r in rows] == [709.0, 709.78]
        assert all(r["sigma_analytic"] > 0 for r in rows)

    def test_explicit_sensitivities(self, capsys):
        assert main(
            ["calibrate", "--sensitivity", "0.01,0.02", "--epsilons", "0.5", "--json"]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["sensitivity"] for r in rows] == [0.01, 0.02]
        assert rows[1]["sigma_analytic"] == pytest.approx(2 * rows[0]["sigma_analytic"], rel=1e-12)

    @pytest.mark.parametrize("flag, value", [("--n", "5"), ("--d", "3")])
    def test_shape_flag_with_explicit_sensitivities_is_two(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--sensitivity", "0.1,0.3", flag, value])
        assert exc.value.code == 2
        assert f"error: {flag} needs the default sensitivity" in capsys.readouterr().err

    def test_shape_flags_at_their_defaults_count_as_absent(self, capsys):
        assert main(["calibrate", "--sensitivity", "0.1,0.3", "--n", "100", "--d", "64"]) == 0
        with_defaults = capsys.readouterr().out
        assert main(["calibrate", "--sensitivity", "0.1,0.3"]) == 0
        assert capsys.readouterr().out == with_defaults


class TestMeasure:
    def test_summary_text(self, capsys):
        assert main(["measure", *SYNTH_ARGS]) == 0
        out = capsys.readouterr().out
        assert "dataset    synthetic-400x4-h0.5" in out
        assert "n x d      400 x 4" in out
        assert "dispersion " in out and "Q          " in out and "I^2        " in out
        assert ">= 0.1, statistical heterogeneity present" in out

    def test_consensus_threshold_met_on_constant_data(self, tmp_path, capsys):
        _write_constant_idx(tmp_path)
        assert main(
            ["measure", "--idx-images", str(tmp_path / "img.bin"),
             "--idx-labels", str(tmp_path / "lab.bin")]
        ) == 0
        out = capsys.readouterr().out
        assert "consensus threshold: Q = 0 < 0.1, consensus: no statistical heterogeneity" in out

    @pytest.mark.parametrize("value", [0, 35, 70, 128, 140, 255])
    @pytest.mark.parametrize("d", [784, 3072])
    def test_constant_byte_rows_reach_consensus(self, tmp_path, capsys, value, d):
        # Q of identical rows is 0 in exact arithmetic; for most byte values
        # the float weighted mean leaves a residue (6.1e-22 at byte 35, d=784).
        data = VectorDataset.from_bytes(np.full((6, d), value, np.uint8), np.zeros(6, np.int64))
        write_idx(data, tmp_path / "img.bin", tmp_path / "lab.bin")
        argv = ["measure", "--idx-images", str(tmp_path / "img.bin"),
                "--idx-labels", str(tmp_path / "lab.bin")]
        assert main(argv) == 0
        assert "< 0.1, consensus: no statistical heterogeneity" in capsys.readouterr().out
        assert main([*argv, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["q"] < 1e-15
        assert payload["heterogeneity_at_consensus_threshold"] is False

    def test_two_batch_files_measure_as_their_records_in_one_file(self, tmp_path, capsys):
        pixels = np.random.default_rng(8).integers(0, 256, (50, 3072), dtype=np.uint8)
        write_cifar(VectorDataset.from_bytes(pixels, np.arange(50) % 10), tmp_path / "one.bin",
                    CifarVariant.TEN)
        records = (tmp_path / "one.bin").read_bytes()
        (tmp_path / "a.bin").write_bytes(records[: 20 * 3073])
        (tmp_path / "b.bin").write_bytes(records[20 * 3073 :])
        outputs = []
        for names in (["one.bin"], ["a.bin", "b.bin"]):
            paths = ",".join(str(tmp_path / name) for name in names)
            assert main(["measure", "--cifar10", paths, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["n"] == 50

    def test_json_payload(self, capsys):
        assert main(["measure", *SYNTH_ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 400 and payload["d"] == 4
        assert payload["profile"] is None
        assert payload["heterogeneity_at_consensus_threshold"] is True
        assert payload["q"] > 0.1
        assert 0.0 <= payload["i_squared"] <= 1.0

    def test_profile_sampling(self, capsys):
        assert main(
            ["measure", *SYNTH_ARGS, "--profile", "uniform-2", "--fraction", "0.25",
             "--sample-seed", "3", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"] == "uniform-2"
        assert payload["n"] == 100

    def test_zero_noise_release_equals_true_values(self, capsys):
        assert main(["measure", *SYNTH_ARGS, "--json"]) == 0
        truth = json.loads(capsys.readouterr().out)
        assert main(["measure", *SYNTH_ARGS, "--release", "--zero-noise", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        values = payload["release"]["values"]
        assert values["dispersion"]["value"] == truth["dispersion"]
        assert values["q"]["value"] == truth["q"]
        assert values["i_squared"]["value"] == truth["i_squared"]

    def test_noisy_release_prints_values(self, capsys):
        assert main(
            ["measure", *SYNTH_ARGS, "--release", "--epsilon", "0.5", "--seed", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert "noisy release at epsilon=0.5 delta=0.1 (analytic, distributed):" in out
        assert "  dispersion " in out

    def test_release_with_budget_split(self, capsys):
        # A two-part split applies to the two-stage statistics; the
        # three-stage one is reported unavailable, naming both part counts.
        assert main(
            ["measure", *SYNTH_ARGS, "--release", "--budget-split", "0.7,0.3", "--json"]
        ) == 0
        values = json.loads(capsys.readouterr().out)["release"]["values"]
        assert set(values) == {"dispersion", "q", "i_squared"}
        assert "value" in values["dispersion"] and "value" in values["q"]
        assert values["i_squared"] == {
            "error": "--budget-split has 2 parts but i_squared needs 3"
        }

    def test_release_with_nonpositive_noisy_q(self, monkeypatch, capsys):
        # Only I^2 is undefined on a noisy Q <= 0; the other entries and the
        # exit code stand.
        import hetdp.estimators

        real = hetdp.estimators.release_noise

        def nonpositive_q(statistic, ctx, *args):
            return -abs(real(statistic, ctx, *args)) - 2.0 * ctx.q_value

        monkeypatch.setattr(hetdp.estimators, "release_noise", nonpositive_q)
        assert main(["measure", *SYNTH_ARGS, "--release", "--json"]) == 0
        values = json.loads(capsys.readouterr().out)["release"]["values"]
        assert "value" in values["dispersion"] and "value" in values["q"]
        assert values["i_squared"]["error"].startswith("noisy q is -")

    def test_release_of_one_row_sample(self, capsys):
        # Only dispersion releases at n = 1: a one-row Q is 0 whatever the
        # row, while its noise scales with that row's weight.
        assert main(
            ["measure", "--synthetic", "20,8,0.5", "--profile", "uniform-10",
             "--fraction", "0.05", "--release", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 1 and payload["q"] == 0.0
        values = payload["release"]["values"]
        assert "value" in values["dispersion"]
        assert values["q"] == {"error": "q needs n >= 2, got n=1"}
        assert values["i_squared"] == {"error": "i_squared needs n >= 2, got n=1"}

    def test_one_row_q_release_is_unavailable(self, capsys):
        # the one-row weight is the floor's inverse: a released Q of that
        # row was about 3.5e8 while its true Q is 0
        assert main(
            ["measure", *SYNTH_ARGS, "--profile", "uniform-2", "--fraction", "0.0025", "--release"]
        ) == 0
        out = capsys.readouterr().out
        assert "n x d      1 x 4\n" in out and "Q          0\n" in out
        assert "  q          unavailable: q needs n >= 2, got n=1\n" in out
        assert "  dispersion " in out

    @pytest.mark.parametrize("flags, warning", [
        ((), "warning: --delta 0.1 is at least 1/n = 1/400\n"),  # the default, 40 / n
        (("--delta", "0.0025"), "warning: --delta 0.0025 is at least 1/n = 1/400\n"),
        (("--delta", "1e-5"), ""),
    ])
    def test_warns_when_delta_reaches_one_over_n(self, capsys, flags, warning):
        assert main(["measure", *SYNTH_ARGS, "--release", "--json", *flags]) == 0
        captured = capsys.readouterr()
        assert captured.err == warning
        assert json.loads(captured.out)["release"]["delta"] == float(flags[1] if flags else 0.1)


class TestDataDirResolution:
    def test_relative_paths_resolve_against_env(self, tmp_path, monkeypatch, capsys):
        _write_constant_idx(tmp_path)
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        assert main(["measure", "--idx-images", "img.bin", "--idx-labels", "lab.bin"]) == 0
        assert "n x d      6 x 3" in capsys.readouterr().out

    def test_absolute_paths_ignore_env(self, tmp_path, monkeypatch):
        _write_constant_idx(tmp_path)
        monkeypatch.setenv(DATA_DIR_ENV, "/nonexistent-base")
        assert main(
            ["measure", "--idx-images", str(tmp_path / "img.bin"),
             "--idx-labels", str(tmp_path / "lab.bin")]
        ) == 0


class TestExperimentCommand:
    ARGS = [
        "experiment", *SYNTH_ARGS, "--profiles", "uniform-2,skewed-2",
        "--fraction", "0.25", "--statistics", "dispersion",
        "--epsilons", "0.5,1.0", "--delta", "0.1", "--trials", "3", "--seed", "5",
    ]

    def test_writes_csv_plan_log_and_charts(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main([*self.ARGS, "--out", str(out), "--svg-dir", str(tmp_path / "svg")])
        assert code == 0
        text = capsys.readouterr().out
        assert f"wrote 4 rows to {out}" in text
        assert "plan log:" in text and "charts in" in text
        assert len(read_result_csv(out)) == 4
        assert (tmp_path / "run.plan.json").exists()
        charts = list((tmp_path / "svg").glob("*.svg"))
        assert [p.name for p in charts] == ["emse_dispersion_synthetic-400x4-h0.5.svg"]

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*self.ARGS, "--out", str(a)]) == 0
        assert main([*self.ARGS, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_noise_json_rows_are_exact(self, tmp_path, capsys):
        code = main([*self.ARGS, "--out", str(tmp_path / "z.csv"), "--zero-noise", "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4
        assert all(r["emse"] == 0.0 and r["tmse"] == 0.0 and r["cmse"] == 0.0 for r in rows)
        assert all(r["true_value"] > 0 for r in rows)

    def test_budget_split_arity_checked(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                ["experiment", *SYNTH_ARGS, "--profiles", "uniform-2",
                 "--statistics", "i_squared", "--budget-split", "0.5,0.5",
                 "--out", str(tmp_path / "o.csv")]
            )
        assert exc.value.code == 2


class TestCompareCommand:
    ARGS = [
        "compare-heterogeneity", *SYNTH_ARGS, "--profiles", "uniform-2,skewed-2",
        "--fraction", "0.25", "--statistics", "i_squared",
        "--epsilons", "0.5,1.0", "--delta", "0.1", "--trials", "3", "--seed", "5",
    ]

    def test_prints_ratio_table(self, tmp_path, capsys):
        assert main([*self.ARGS, "--out", str(tmp_path / "cmp.csv")]) == 0
        out = capsys.readouterr().out
        assert (
            "percentage change of EMSE, skewed vs balanced (analytic, distributed), "
            "averaged over the epsilon grid" in out
        )
        assert "   i_squared" in out
        assert "wrote 1 rows" in out

    def test_json_rows(self, tmp_path, capsys):
        assert main([*self.ARGS, "--out", str(tmp_path / "cmp.csv"), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(r["kind"], r["subject"]) for r in rows] == [("ratio", "2")]

    def test_unpaired_profiles_are_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                ["compare-heterogeneity", *SYNTH_ARGS, "--profiles", "uniform-2",
                 "--out", str(tmp_path / "cmp.csv")]
            )
        assert exc.value.code == 2
