"""Rows kept as stored bytes: exact integer moments and the row-blocked float
passes against the whole-matrix float oracles, the exact-split Q pass
against its subtract/square/sum oracle, the memory a byte sample
holds and that loading a mapped file costs, the trusted decode of byte rows,
resampling a byte sample, and the zero-noise and rerun invariants."""

import json
import math
import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    build_context_direct,
    byte_sq_deviations_direct,
    load_decoded,
    project,
    sample_decoded,
)

import hetdp
from hetdp.cli import main
from hetdp.datasets import (
    CIFAR10_RECORD,
    WINDOW_BYTES,
    CifarVariant,
    DataFormat,
    DatasetDescriptor,
    HeterogeneityProfile,
    LabelScheme,
    load_dataset,
    stratified_sample,
    write_cifar,
    write_idx,
)
from hetdp.errors import error_report
from hetdp.estimators import EstimatorConfig, Setting, Statistic, noisy_statistic, true_value
from hetdp.experiment import read_result_csv
from hetdp.gaussian import Mechanism, PrivacyBudget
from hetdp.measures import (
    BLOCK_BYTES,
    VARIANCE_FLOOR,
    VectorDataset,
    _byte_sq_deviations,
    build_context,
    byte_moments,
)

RTOL = 1e-12
#: A constant row's float variance is rounding residue (below 2e-31 for
#: bytes / 255); its exact variance is 0.
VARIANCE_ATOL = 1e-30
PROFILE = HeterogeneityProfile((1,) * 10, sample_fraction=0.5)


@pytest.fixture
def stored(tmp_path):
    """An IDX pair (400 x 784), a CIFAR-10 and a CIFAR-100 batch (200 x 3072
    each) of random bytes, 10 labels in turn."""
    rng = np.random.default_rng(5)

    def images(n, d):
        return VectorDataset(rng.integers(0, 256, (n, d)) / 255.0, np.arange(n) % 10)

    write_idx(images(400, 784), tmp_path / "img.idx", tmp_path / "lab.idx")
    write_cifar(images(200, 3072), tmp_path / "c10.bin", CifarVariant.TEN)
    write_cifar(images(200, 3072), tmp_path / "c100.bin", CifarVariant.HUNDRED)
    return {
        "idx": DatasetDescriptor(
            DataFormat.IDX_IMAGES, "idx", (str(tmp_path / "img.idx"), str(tmp_path / "lab.idx"))
        ),
        "cifar10": DatasetDescriptor(DataFormat.CIFAR10_BIN, "c10", (str(tmp_path / "c10.bin"),)),
        "cifar100": DatasetDescriptor(
            DataFormat.CIFAR100_BIN, "c100", (str(tmp_path / "c100.bin"),),
            label_scheme=LabelScheme.COARSE_BUCKETED,
        ),
    }


def _agrees_with_float_oracle(data: VectorDataset):
    """build_context of byte rows against the whole-matrix float form."""
    assert data.rows.dtype == np.uint8
    ctx, direct = build_context(data), build_context_direct(data)
    for name in ("mean", "weights", "weighted_mean"):
        np.testing.assert_allclose(getattr(ctx, name), getattr(direct, name), rtol=RTOL, err_msg=name)
    np.testing.assert_allclose(
        ctx.within_variances, direct.within_variances, rtol=RTOL, atol=VARIANCE_ATOL
    )
    assert ctx.dispersion == pytest.approx(direct.dispersion, rel=RTOL, abs=0)
    assert ctx.q_value == pytest.approx(direct.q_value, rel=RTOL, abs=0)
    # a constant row's squared weight (1e18) scales its deviation from a
    # weighted mean it dominates, a difference that keeps fewer digits
    assert ctx.q_sq_weights == pytest.approx(direct.q_sq_weights, rel=1e-9, abs=0)
    return ctx


class TestAgainstFloatOracle:
    @pytest.mark.parametrize("kind", ["idx", "cifar10", "cifar100"])
    def test_stored_samples(self, stored, kind):
        _agrees_with_float_oracle(stratified_sample(load_dataset(stored[kind]), PROFILE, seed=2))

    @pytest.mark.parametrize(
        "n, d",
        [
            (2 * (BLOCK_BYTES // (8 * 784)) + 37, 784),  # two float row blocks and a ragged one
            (3, 33_100),  # a row's sum of squares passes 2^31: int64 sums
        ],
    )
    def test_row_blocks_and_a_constant_row(self, n, d):
        pixels = np.random.default_rng(n).integers(0, 256, (n, d), dtype=np.uint8)
        pixels[0] = 255  # the largest row sums
        pixels[n - 2] = 77  # a constant row in the last row block
        data = VectorDataset.from_bytes(pixels, np.zeros(n, dtype=np.int64))
        ctx = _agrees_with_float_oracle(data)
        assert ctx.within_variances[n - 2] == 0.0
        assert ctx.weights[n - 2] == 1.0 / VARIANCE_FLOOR

    def test_numerators_cancel_exactly(self):
        # All bytes 255 but one: the dispersion numerator is n - 1, while its
        # two terms are about 1.04e16, past the integers float64 holds.
        n, d = 20_000, 400
        pixels = np.full((n, d), 255, dtype=np.uint8)
        pixels[7, 3] = 254
        part = byte_moments(pixels)
        assert part.dispersion == (n - 1) / (255**2 * n * n)
        assert part.within_variances[7] == (d - 1) / (255**2 * d * d)
        assert np.count_nonzero(part.within_variances) == 1

    def test_numerators_past_int64_stay_exact(self):
        # Zero strides: no n x d memory. Both n * sum(p^2) and sum(C_j^2)
        # are 160 * (255 n)^2, about 1.04e19, past the int64 range.
        n, d = 1_000_000, 160
        pixels = np.broadcast_to(np.uint8(255), (n, d))
        assert pixels.strides == (0, 0)
        assert d * (255 * n) ** 2 > np.iinfo(np.int64).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            part = byte_moments(pixels)
        assert part.dispersion == 0.0
        assert not part.within_variances.any()
        assert np.all(part.mean == 1.0)


# Rows per row block at d = 64, and a width whose one row exceeds a block.
_BLOCK_ROWS = BLOCK_BYTES // (8 * 64)
_WIDE_D = BLOCK_BYTES // 8 + 3


class TestByteRowBlocks:
    @pytest.mark.parametrize(
        "n, d, constant_row",
        [
            (_BLOCK_ROWS // 3, 64, None),  # below one block
            (_BLOCK_ROWS, 64, None),  # exactly one block
            (2 * _BLOCK_ROWS + 37, 64, None),  # two full blocks and a ragged one
            (3, _WIDE_D, None),  # one row wider than a block
            (2 * _BLOCK_ROWS + 37, 64, 2 * _BLOCK_ROWS + 5),  # weight 1e9 in the ragged block
        ],
    )
    def test_against_whole_matrix_forms(self, n, d, constant_row):
        pixels = np.random.default_rng(n + d).integers(0, 256, (n, d), dtype=np.uint8)
        if constant_row is not None:
            pixels[constant_row] = 128
        data = VectorDataset.from_bytes(pixels, np.zeros(n, dtype=np.int64))
        assert data.rows.dtype == np.uint8
        ctx = _agrees_with_float_oracle(data)
        if constant_row is not None:
            assert ctx.weights[constant_row] == 1.0 / VARIANCE_FLOOR
        # the oracle's projection reads the byte rows in row blocks too;
        # nonnegative units: no product cancels, so rtol bounds every entry
        units = np.random.default_rng(d).random((5, d))
        np.testing.assert_allclose(project(data, units), data.vectors @ units.T, rtol=RTOL)
        for stat in Statistic:
            cfg = EstimatorConfig(Mechanism.ANALYTIC, Setting.DISTRIBUTED, seed=3, zero_noise=True)
            value = noisy_statistic(stat, data, ctx, cfg, stat.budget(1.0, 1e-5))
            assert value == true_value(stat, data, ctx)


def _grid_exponent(d: int) -> int:
    """The byte Q pass's grid 2^-k: the largest k with 2k <= 53 - log2(2 * 255^2 * d)."""
    return int(53 - math.log2(2 * 255**2 * d)) // 2


def _split_pass(pixels: np.ndarray, center=None):
    """The byte Q pass and its oracle on `pixels`, at the sample's weighted mean
    or at `center`, after checking they agree within the pass's stated bound:
    eps * d * 255 * 2^-k absolute for the rounded correction, plus the
    oracle's own rounding of d subtractions, squares and a pairwise sum and
    the pass's final addition, (3 + log2 d) eps relative."""
    data = VectorDataset.from_bytes(pixels, np.zeros(len(pixels), dtype=np.int64))
    if center is None:
        center = build_context(data).weighted_mean
    d, eps = data.d, np.finfo(np.float64).eps
    squares = _byte_sq_deviations(data, center, byte_moments(pixels).row_squares)
    direct = byte_sq_deviations_direct(data, center)
    atol = eps * d * 255 * 2.0 ** -_grid_exponent(d)
    np.testing.assert_allclose(squares, direct, rtol=(3 + math.log2(d)) * eps, atol=atol)
    return squares, direct


class TestExactSplitQPass:
    def test_grid_exponent(self):
        assert [_grid_exponent(d) for d in (784, 3072, 33_100)] == [13, 12, 10]

    def test_all_255_rows(self):
        # the largest row squares and center: every bracket term at its bound
        pixels = np.full((6, 3072), 255, dtype=np.uint8)
        squares, direct = _split_pass(pixels)
        assert not squares.any() and not direct.any()
        pixels = pixels.copy()  # the pass froze the first
        pixels[5] = np.random.default_rng(20).integers(0, 256, 3072)
        _split_pass(pixels)

    @pytest.mark.parametrize("row", [np.full(784, 128), np.tile([0, 255], 392)])
    def test_identical_rows_have_q_exactly_zero(self, row):
        pixels = np.tile(row.astype(np.uint8), (40, 1))
        data = VectorDataset.from_bytes(pixels, np.zeros(40, dtype=np.int64))
        ctx = build_context(data)
        assert np.array_equal(ctx.weighted_mean * 255.0, row)  # the center is the row
        assert ctx.q_value == 0.0 and ctx.q_sq_weights == 0.0
        squares, _ = _split_pass(pixels)
        assert not squares.any()

    def test_identical_rows_off_the_byte_grid(self):
        # a center one rounding away from the row: both forms read ||f||^2
        row = np.random.default_rng(21).integers(0, 256, 784, dtype=np.uint8)
        squares, _ = _split_pass(np.tile(row, (40, 1)))
        assert np.all(squares < 784 * 255 * 2.0**-_grid_exponent(784))

    def test_a_dominating_constant_row(self):
        # weight 1e9 against about 12 for the rest: the center sits within
        # a few 1e-6 of the constant row's integers
        pixels = np.random.default_rng(22).integers(0, 256, (300, 3072), dtype=np.uint8)
        pixels[100] = 77
        data = VectorDataset.from_bytes(pixels, np.zeros(300, dtype=np.int64))
        ctx = build_context(data)
        assert ctx.weights[100] == 1.0 / VARIANCE_FLOOR
        assert np.all(np.abs(ctx.weighted_mean * 255.0 - 77) < 1e-3)
        _split_pass(pixels)

    def test_near_integer_center(self):
        d = 784
        k = _grid_exponent(d)
        rng = np.random.default_rng(23)
        pixels = rng.integers(0, 256, (50, d), dtype=np.uint8)
        offsets = np.array([0.0, 1e-13, -1e-13, 2.0 ** -(k + 1), -(2.0 ** -(k + 1)), 2.0**-k])
        center = (rng.integers(1, 255, d) + offsets[np.arange(d) % len(offsets)]) / 255.0
        _split_pass(pixels, center)

    @pytest.mark.parametrize(
        "n, d",
        [
            (1, 3072),  # one row
            (3, 33_100),  # k = 10 and int64 row squares
            (2 * (BLOCK_BYTES // (8 * 784)) + 37, 784),  # a ragged last block
        ],
    )
    def test_shapes(self, n, d):
        pixels = np.random.default_rng(n).integers(0, 256, (n, d), dtype=np.uint8)
        squares, _ = _split_pass(pixels)
        if n == 1:
            assert squares[0] < d * 255 * 2.0**-_grid_exponent(d)  # its own center

    def test_bracket_is_exact_against_python_ints(self):
        # a center on the grid 2^-k has f = 0: the pass returns the bracket
        # sum_j (p_j - m_j 2^-k)^2 alone, which Python ints give exactly
        n, d = 4, 50
        k = _grid_exponent(d)
        rng = np.random.default_rng(24)
        pixels = rng.integers(0, 256, (n, d), dtype=np.uint8)
        grid = rng.integers(0, 255 << k, d)
        on_grid = np.ldexp(grid, -k) / 255.0 * 255.0 == np.ldexp(grid, -k)
        grid = np.where(on_grid, grid, 0)  # 0 / 255 * 255 is 0: every coordinate on the grid
        assert on_grid.mean() > 0.5
        squares, _ = _split_pass(pixels, np.ldexp(grid, -k) / 255.0)
        for row, value in zip(pixels.tolist(), squares.tolist()):
            exact = sum(((p << k) - m) ** 2 for p, m in zip(row, grid.tolist()))
            assert value == math.ldexp(exact, -2 * k)


class TestByteResidentMemory:
    N, D = 1000, 3072

    def test_sample_holds_its_bytes(self):
        stored = VectorDataset.from_bytes(
            np.random.default_rng(8).integers(0, 256, (2 * self.N, self.D), dtype=np.uint8),
            np.arange(2 * self.N) % 10,
        )
        tracemalloc.start()
        try:
            data = stratified_sample(stored, PROFILE, seed=8)  # half the rows
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # beside the n x d bytes, at most a label and a variance per row and a mean per column
        assert held <= self.N * self.D + 8 * (2 * self.N + self.D) + 4096, f"held {held} bytes"
        assert data.rows.nbytes == self.N * self.D

    def test_passes_make_no_sample_sized_array(self):
        stored = VectorDataset.from_bytes(
            np.random.default_rng(9).integers(0, 256, (self.N, self.D), dtype=np.uint8),
            np.arange(self.N) % 10,
        )
        every_row = HeterogeneityProfile((1,) * 10, sample_fraction=1.0)
        cfg = EstimatorConfig(Mechanism.ANALYTIC, Setting.CENTRALIZED, seed=10)
        tracemalloc.start()
        try:
            data = stratified_sample(stored, every_row, seed=9)
            ctx = build_context(data)
            for stat in Statistic:
                error_report(stat, data, ctx, cfg, stat.budget(0.5, 1e-5), trials=16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the sample's n x d bytes, and passes below the size of its floats / 8
        assert peak < self.N * self.D + self.N * self.D * 8 // 8, f"peak {peak} bytes"

    def test_deviation_pass_takes_no_block_sized_temporary(self):
        n = 200
        data = VectorDataset.from_bytes(
            np.random.default_rng(11).integers(0, 256, (n, self.D), dtype=np.uint8),
            np.arange(n) % 10,
        )
        ctx, row_squares = build_context(data), byte_moments(data.rows).row_squares
        cast_buffer = min(BLOCK_BYTES // (8 * self.D), n) * self.D * 8  # row_blocks' one buffer
        tracemalloc.start()
        try:
            squares = _byte_sq_deviations(data, ctx.weighted_mean, row_squares)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert float((ctx.weights * squares).mean()) / 255.0**2 == ctx.q_value
        # beside the cast buffer, a row's squares and a column's center, nothing block-sized
        assert peak < cast_buffer + BLOCK_BYTES // 4, f"peak {peak} bytes"

    def test_context_frees_the_weighted_mean_buffer_before_the_q_pass(self):
        n = 200
        data = VectorDataset.from_bytes(
            np.random.default_rng(14).integers(0, 256, (n, self.D), dtype=np.uint8),
            np.arange(n) % 10,
        )
        ctx, row_squares = build_context(data), byte_moments(data.rows).row_squares
        tracemalloc.start()
        try:
            _byte_sq_deviations(data, ctx.weighted_mean, row_squares)
            _, q_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            build_context(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one cast buffer at a time: the Q pass's own, not the weighted mean's beside it
        assert peak < q_peak + BLOCK_BYTES // 4, f"peak {peak} bytes against {q_peak}"

    @pytest.mark.parametrize("kind", ["idx", "cifar10"])
    def test_load_and_sample_hold_the_sample_and_one_window(self, tmp_path, kind):
        rng = np.random.default_rng(12)
        if kind == "idx":
            n, d = 4000, 784  # 3.1 MB of pixels
            images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
            images.write_bytes(
                struct.pack(">IIII", 0x00000803, n, 28, 28)
                + rng.integers(0, 256, n * d, dtype=np.uint8).tobytes()
            )
            labels.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(i % 10 for i in range(n)))
            desc = DatasetDescriptor(DataFormat.IDX_IMAGES, kind, (str(images), str(labels)))
        else:
            n, d = 1200, 3072  # 3.7 MB of records
            records = rng.integers(0, 256, (n, CIFAR10_RECORD), dtype=np.uint8)
            records[:, 0] = np.arange(n) % 10
            (tmp_path / "batch.bin").write_bytes(records.tobytes())
            desc = DatasetDescriptor(DataFormat.CIFAR10_BIN, kind, (str(tmp_path / "batch.bin"),))
        profile = HeterogeneityProfile((1,) * 10, sample_fraction=0.1)
        tracemalloc.start()
        try:
            sample = stratified_sample(load_dataset(desc), profile, seed=12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sample.rows.nbytes == n * d // 10
        assert peak < sample.rows.nbytes + WINDOW_BYTES < n * d, f"peak {peak} bytes"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_rss_grows_by_the_sample_not_the_file(self, tmp_path):
        n, d = 32_000, 784  # 25 MB of pixels
        images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
        rng = np.random.default_rng(13)
        with open(images, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, n, 28, 28))
            for _ in range(8):
                fh.write(rng.integers(0, 256, n * d // 8, dtype=np.uint8).tobytes())
        labels.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(i % 10 for i in range(n)))
        # The child reads its peak RSS as VmHWM: ru_maxrss would start from
        # this process's peak, which execve carries over. A first sample of
        # heap rows runs numpy's one-time set-up before the count starts.
        child = textwrap.dedent(f"""
            import numpy as np
            from hetdp.datasets import (
                DataFormat, DatasetDescriptor, HeterogeneityProfile, load_dataset,
                stratified_sample,
            )
            from hetdp.measures import VectorDataset

            def peak_rss():
                with open("/proc/self/status") as status:
                    line = next(line for line in status if line.startswith("VmHWM:"))
                return int(line.split()[1]) * 1024

            desc = DatasetDescriptor(DataFormat.IDX_IMAGES, "rss", ({str(images)!r}, {str(labels)!r}))
            profile = HeterogeneityProfile((1,) * 10, sample_fraction=0.1)
            heap = VectorDataset.from_bytes(np.zeros((100, 4), np.uint8), np.arange(100) % 10)
            stratified_sample(heap, profile, seed=13)
            before = peak_rss()
            sample = stratified_sample(load_dataset(desc), profile, seed=13)
            print(sample.n, peak_rss() - before)
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(hetdp.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120,
            check=True,
        )
        rows, growth = map(int, result.stdout.split())
        assert rows == n // 10
        assert growth < os.path.getsize(images) // 2, f"peak RSS grew by {growth} bytes"


class TestTrustedDecode:
    def test_every_byte_value(self):
        pixels = np.arange(256, dtype=np.uint8).reshape(16, 16)
        for rows in (np.arange(16), np.array([15, 0, 7])):
            data = VectorDataset.from_bytes(pixels[rows], rows)
            assert data.vectors.shape == (len(rows), 16)
            assert data.vectors.dtype == np.float64 and data.labels.dtype == np.int64
            assert not data.vectors.flags.writeable and not data.labels.flags.writeable
            assert np.array_equal(data.vectors, pixels[rows] / 255.0)
            assert np.array_equal(data.labels, rows)
        every_row = VectorDataset.from_bytes(pixels, np.arange(16))
        assert (data.vectors.min(), every_row.vectors.max()) == (0.0, 1.0)

    @pytest.mark.parametrize(
        "row", [[0.5, np.nan], [0.5, np.inf], [1.5, 0.5], [-0.1, 0.5]],
        ids=["nan", "inf", "above-1", "below-0"],
    )
    def test_public_constructor_keeps_its_checks(self, row):
        with pytest.raises(ValueError):
            VectorDataset(np.array([row]), np.array([0]))
        assert VectorDataset(np.array([[0.5, 1.0]]), np.array([0])).rows.dtype == np.float64

    def test_from_bytes_checks_bytes_and_labels(self):
        with pytest.raises(ValueError, match="uint8"):
            VectorDataset.from_bytes(np.zeros((2, 3)), np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="one label"):
            VectorDataset.from_bytes(np.zeros((2, 3), np.uint8), np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError, match="one label"):
            VectorDataset.from_bytes(np.zeros((0, 3), np.uint8), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="nonnegative"):
            VectorDataset.from_bytes(np.zeros((2, 3), np.uint8), np.array([0, -1]))


class TestResampledBytes:
    def test_a_sample_of_a_byte_sample_stays_bytes(self, stored):
        first = stratified_sample(load_dataset(stored["idx"]), PROFILE, seed=2)
        second = stratified_sample(first, PROFILE, seed=3)
        assert first.rows.dtype == second.rows.dtype == np.uint8
        assert second.rows.nbytes == second.n * second.d
        # the same rows picked from fully decoded floats, turned back to bytes
        picked = sample_decoded(sample_decoded(load_decoded(stored["idx"]), PROFILE, 2), PROFILE, 3)
        expected = VectorDataset.from_bytes(
            np.rint(picked.vectors * 255.0).astype(np.uint8), picked.labels.copy()
        )
        assert np.array_equal(second.rows, expected.rows)
        ctx, expected_ctx = build_context(second), build_context(expected)
        assert ctx.q_value == expected_ctx.q_value
        assert ctx.dispersion == expected_ctx.dispersion


class TestReleaseInvariants:
    def test_zero_noise_release_is_the_true_value(self, stored):
        sample = stratified_sample(load_dataset(stored["cifar10"]), PROFILE, seed=4)
        ctx = build_context(sample)
        for setting in Setting:
            for stat in Statistic:
                cfg = EstimatorConfig(Mechanism.ANALYTIC, setting, seed=1, zero_noise=True)
                budget = PrivacyBudget.equal_split(1.0, 0.1, stat.budget_parts)
                value = noisy_statistic(stat, sample, ctx, cfg, budget)
                assert value == true_value(stat, sample, ctx)

    def test_experiment_rows_rerun_and_recompute(self, stored, tmp_path):
        images, labels = stored["idx"].paths
        args = [
            "experiment", "--idx-images", images, "--idx-labels", labels,
            "--profiles", "uniform-10,uniform-5", "--fraction", "0.25", "--epsilons", "0.5,1.0",
            "--trials", "3", "--seed", "5",
        ]
        a, b, zero = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "zero.csv"
        for out, extra in ((a, []), (b, []), (zero, ["--zero-noise"])):
            assert main([*args, "--out", str(out), *extra]) == 0
        assert a.read_bytes() == b.read_bytes()

        log = json.loads(zero.with_suffix(".plan.json").read_text())
        data = load_dataset(stored["idx"])
        samples = {}
        for entry in log["profiles"]:
            profile = HeterogeneityProfile(
                tuple(entry["ratios"]), entry["label_count"], entry["sample_fraction"]
            )
            sample = stratified_sample(data, profile, seed=entry["sample_seed"])
            samples[entry["name"]] = (sample, build_context(sample))
        rows = read_result_csv(zero)
        assert len(rows) == 2 * 2 * len(Statistic)
        for row in rows:
            assert (row.emse, row.tmse, row.cmse) == (0.0, 0.0, 0.0)
            sample, ctx = samples[row.profile]
            assert row.true_value == true_value(Statistic(row.statistic), sample, ctx)
