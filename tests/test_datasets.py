"""Binary loaders, stratified sampling, synthetic data, descriptors."""

import itertools
import mmap
import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hetdp
from hetdp.datasets import (
    CANONICAL_PROFILES,
    CIFAR10_RECORD,
    CIFAR100_RECORD,
    WINDOW_BYTES,
    CifarVariant,
    DataFormat,
    DatasetDescriptor,
    DatasetFormatError,
    HeterogeneityProfile,
    LabelScheme,
    SampleCapacityError,
    _allocate,
    load_dataset,
    stratified_sample,
    synthetic_dataset,
    write_cifar,
    write_idx,
)
from hetdp.measures import VectorDataset, build_context, i_squared

from oracles import (
    label_pools_direct, load_decoded, sample_decoded, synthetic_direct, write_cifar_direct,
    write_idx_direct,
)


def _grid_dataset(n, d, seed=0, labels=None):
    """Vectors on the 1/255 grid so byte round-trips are exact."""
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, 256, size=(n, d)).astype(np.float64) / 255.0
    if labels is None:
        labels = rng.integers(0, 10, size=n).astype(np.int64)
    return VectorDataset(vectors, np.asarray(labels, dtype=np.int64))


def _load_files(fmt, *paths):
    """Every row of the files, read through load_dataset."""
    scheme = LabelScheme.COARSE_BUCKETED if fmt is DataFormat.CIFAR100_BIN else LabelScheme.FINE
    desc = DatasetDescriptor(
        format=fmt, name="files", paths=tuple(str(p) for p in paths), label_scheme=scheme
    )
    return load_dataset(desc)


class TestHeterogeneityProfile:
    def test_label_count_defaults_to_ratio_length(self):
        assert HeterogeneityProfile((1, 1, 1, 1, 1)).label_count == 5

    def test_supported_bucket_counts(self):
        with pytest.raises(ValueError, match="2, 5, 10"):
            HeterogeneityProfile((1, 1, 1))

    def test_ratio_length_must_match(self):
        with pytest.raises(ValueError, match="one ratio per label bucket"):
            HeterogeneityProfile((1, 1), label_count=5)

    def test_ratios_positive_integers(self):
        with pytest.raises(ValueError, match="positive integers"):
            HeterogeneityProfile((1.5, 1.5))
        with pytest.raises(ValueError, match="positive integers"):
            HeterogeneityProfile((0, 1))

    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="sample fraction"):
            HeterogeneityProfile((1, 1), sample_fraction=0.0)
        with pytest.raises(ValueError, match="sample fraction"):
            HeterogeneityProfile((1, 1), sample_fraction=1.2)

    def test_canonical_profiles(self):
        assert set(CANONICAL_PROFILES) == {
            "uniform-10", "skewed-10", "uniform-5", "skewed-5", "uniform-2", "skewed-2",
        }
        assert CANONICAL_PROFILES["uniform-10"].ratios == (1,) * 10
        assert CANONICAL_PROFILES["skewed-10"].ratios == (91,) + (1,) * 9
        assert CANONICAL_PROFILES["skewed-5"].ratios == (96, 1, 1, 1, 1)
        assert CANONICAL_PROFILES["skewed-2"].ratios == (99, 1)
        for name, profile in CANONICAL_PROFILES.items():
            assert profile.label_count == int(name.rsplit("-", 1)[1])
            if name.startswith("skewed"):
                assert sum(profile.ratios) == 100


class TestAllocator:
    @pytest.mark.parametrize(
        "total,shares,expected",
        [
            (10, [3, 1, 1], [6, 2, 2]),
            (7, [1, 1, 1], [3, 2, 2]),
            (10, [1, 1], [5, 5]),
            (100, [99, 1], [99, 1]),
            (5, [1, 1, 1], [2, 2, 1]),
        ],
    )
    def test_hand_values(self, total, shares, expected):
        assert _allocate(total, np.array(shares, dtype=np.float64)).tolist() == expected

    def test_sums_and_proximity(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            shares = rng.integers(1, 100, size=rng.integers(2, 8))
            total = int(rng.integers(1, 500))
            counts = _allocate(total, shares.astype(np.float64))
            assert counts.sum() == total
            exact = total * shares / shares.sum()
            assert np.all(counts >= np.floor(exact))
            assert np.all(counts <= np.floor(exact) + 1)


class TestIdxFiles:
    def test_round_trip(self, tmp_path):
        data = _grid_dataset(12, 6, seed=1)
        images, labels = tmp_path / "img.bin", tmp_path / "lab.bin"
        write_idx(data, images, labels)
        loaded = _load_files(DataFormat.IDX_IMAGES, images, labels)
        assert np.array_equal(loaded.vectors, data.vectors)
        assert np.array_equal(loaded.labels, data.labels)

    def test_bad_image_magic(self, tmp_path):
        data = _grid_dataset(3, 4)
        images, labels = tmp_path / "img.bin", tmp_path / "lab.bin"
        write_idx(data, images, labels)
        raw = bytearray(images.read_bytes())
        raw[:4] = b"\x12\x34\x56\x78"
        images.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="bad image magic 0x12345678") as err:
            _load_files(DataFormat.IDX_IMAGES, images, labels)
        assert err.value.offset == 0
        assert str(images) in str(err.value)

    def test_bad_label_magic(self, tmp_path):
        data = _grid_dataset(3, 4)
        images, labels = tmp_path / "img.bin", tmp_path / "lab.bin"
        write_idx(data, images, labels)
        raw = bytearray(labels.read_bytes())
        raw[3] = 0x99
        labels.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="bad label magic") as err:
            _load_files(DataFormat.IDX_IMAGES, images, labels)
        assert err.value.offset == 0

    def test_count_mismatch(self, tmp_path):
        data = _grid_dataset(3, 4)
        images, labels = tmp_path / "img.bin", tmp_path / "lab.bin"
        write_idx(data, images, labels)
        raw = bytearray(labels.read_bytes())
        raw[7] = 9
        labels.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="label count 9 does not match") as err:
            _load_files(DataFormat.IDX_IMAGES, images, labels)
        assert err.value.offset == 4

    def test_truncated_pixels(self, tmp_path):
        data = _grid_dataset(3, 4)
        images, labels = tmp_path / "img.bin", tmp_path / "lab.bin"
        write_idx(data, images, labels)
        images.write_bytes(images.read_bytes()[:20])
        with pytest.raises(DatasetFormatError, match="truncated pixel data") as err:
            _load_files(DataFormat.IDX_IMAGES, images, labels)
        assert err.value.offset == 20

    def test_truncated_header(self, tmp_path):
        images, labels = tmp_path / "img.bin", tmp_path / "lab.bin"
        images.write_bytes(b"\x00\x00")
        labels.write_bytes(b"")
        with pytest.raises(DatasetFormatError, match="truncated while reading image magic") as err:
            _load_files(DataFormat.IDX_IMAGES, images, labels)
        assert err.value.offset == 2

    def test_empty_image_file(self, tmp_path):
        images, labels = tmp_path / "img.bin", tmp_path / "lab.bin"
        images.write_bytes(b"")
        labels.write_bytes(b"")
        with pytest.raises(DatasetFormatError) as err:
            _load_files(DataFormat.IDX_IMAGES, images, labels)
        assert err.value.offset == 0

    def test_truncated_labels(self, tmp_path):
        data = _grid_dataset(5, 4)
        images, labels = tmp_path / "img.bin", tmp_path / "lab.bin"
        write_idx(data, images, labels)
        labels.write_bytes(labels.read_bytes()[:10])
        with pytest.raises(DatasetFormatError, match="truncated label data") as err:
            _load_files(DataFormat.IDX_IMAGES, images, labels)
        assert err.value.offset == 10

    def test_wide_labels_rejected_on_write(self, tmp_path):
        data = VectorDataset(np.zeros((2, 2)), np.array([0, 300]))
        with pytest.raises(ValueError, match="255"):
            write_idx(data, tmp_path / "img.bin", tmp_path / "lab.bin")


class TestCifarFiles:
    def test_ten_class_round_trip(self, tmp_path):
        data = _grid_dataset(4, 3072, seed=2)
        path = tmp_path / "batch.bin"
        write_cifar(data, path, CifarVariant.TEN)
        loaded = _load_files(DataFormat.CIFAR10_BIN, path)
        assert np.array_equal(loaded.vectors, data.vectors)
        assert np.array_equal(loaded.labels, data.labels)

    def test_hundred_class_round_trip(self, tmp_path):
        data = _grid_dataset(4, 3072, seed=3)
        path = tmp_path / "batch.bin"
        write_cifar(data, path, CifarVariant.HUNDRED)
        loaded = _load_files(DataFormat.CIFAR100_BIN, path)
        assert np.array_equal(loaded.vectors, data.vectors)
        assert np.array_equal(loaded.labels, data.labels)

    def test_coarse_labels_bucket_pairwise(self, tmp_path):
        path = tmp_path / "batch.bin"
        with open(path, "wb") as fh:
            for coarse in (0, 1, 2, 3):
                fh.write(bytes([coarse, 5]) + bytes(3072))
        loaded = _load_files(DataFormat.CIFAR100_BIN, path)
        assert loaded.labels.tolist() == [0, 0, 1, 1]

    def test_multiple_batches_concatenate(self, tmp_path):
        a, b = _grid_dataset(3, 3072, seed=4), _grid_dataset(2, 3072, seed=5)
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        write_cifar(a, pa, CifarVariant.TEN)
        write_cifar(b, pb, CifarVariant.TEN)
        loaded = _load_files(DataFormat.CIFAR10_BIN, pa, pb)
        assert loaded.n == 5
        assert np.array_equal(loaded.vectors[:3], a.vectors)
        assert np.array_equal(loaded.vectors[3:], b.vectors)

    def test_ragged_file_rejected(self, tmp_path):
        data = _grid_dataset(2, 3072, seed=6)
        path = tmp_path / "batch.bin"
        write_cifar(data, path, CifarVariant.TEN)
        path.write_bytes(path.read_bytes() + b"\x00" * 5)
        with pytest.raises(DatasetFormatError, match="3073-byte record size") as err:
            _load_files(DataFormat.CIFAR10_BIN, path)
        assert err.value.offset == 2 * 3073

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(b"")
        with pytest.raises(DatasetFormatError, match="not a positive multiple") as err:
            _load_files(DataFormat.CIFAR10_BIN, path)
        assert err.value.offset == 0

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes([77]) + bytes(3072))
        with pytest.raises(DatasetFormatError, match="label byte 77 out of range 0..9") as err:
            _load_files(DataFormat.CIFAR10_BIN, path)
        assert err.value.offset == 0

    def test_coarse_and_fine_range_offsets(self, tmp_path):
        path = tmp_path / "batch.bin"
        good = bytes([3, 7]) + bytes(3072)
        path.write_bytes(good + bytes([25, 7]) + bytes(3072))
        with pytest.raises(DatasetFormatError, match="coarse label byte 25") as err:
            _load_files(DataFormat.CIFAR100_BIN, path)
        assert err.value.offset == 3074
        path.write_bytes(good + bytes([3, 120]) + bytes(3072))
        with pytest.raises(DatasetFormatError, match="fine label byte 120") as err:
            _load_files(DataFormat.CIFAR100_BIN, path)
        assert err.value.offset == 3074 + 1

    def test_write_requires_full_width(self, tmp_path):
        with pytest.raises(ValueError, match="3072"):
            write_cifar(_grid_dataset(2, 10), tmp_path / "x.bin", CifarVariant.TEN)

    @pytest.mark.parametrize("variant", list(CifarVariant))
    def test_labels_the_loader_rejects_are_rejected_on_write(self, tmp_path, variant):
        # the loader takes labels 0..9, and coarse bytes 2 * label up to 19
        data = VectorDataset(np.zeros((2, 3072)), np.array([9, 10]))
        path = tmp_path / "batch.bin"
        with pytest.raises(ValueError, match="above 9"):
            write_cifar(data, path, variant)
        assert not path.exists()


class TestDescriptors:
    def test_synthetic_load(self):
        desc = DatasetDescriptor(
            format=DataFormat.SYNTHETIC, name="syn", d=6, synth_n=40, heterogeneity=0.3
        )
        data = load_dataset(desc)
        assert (data.n, data.d) == (40, 6)

    def test_declared_d_checked_against_loaded(self, tmp_path):
        data = _grid_dataset(4, 6)
        images, labels = tmp_path / "img.bin", tmp_path / "lab.bin"
        write_idx(data, images, labels)
        desc = DatasetDescriptor(
            format=DataFormat.IDX_IMAGES,
            name="imgs",
            paths=(str(images), str(labels)),
            d=7,
        )
        with pytest.raises(DatasetFormatError, match="declares d=7 but the data has d=6"):
            load_dataset(desc)

    def test_label_scheme_constraints(self):
        with pytest.raises(ValueError, match="buckets coarse labels"):
            DatasetDescriptor(
                format=DataFormat.CIFAR100_BIN, name="x", paths=("a",),
                label_scheme=LabelScheme.FINE,
            )
        with pytest.raises(ValueError, match="fine labels only"):
            DatasetDescriptor(
                format=DataFormat.CIFAR10_BIN, name="x", paths=("a",),
                label_scheme=LabelScheme.COARSE_BUCKETED,
            )

    def test_path_arity(self):
        with pytest.raises(ValueError, match="images path and a labels path"):
            DatasetDescriptor(format=DataFormat.IDX_IMAGES, name="x", paths=("only",))
        with pytest.raises(ValueError, match="at least one path"):
            DatasetDescriptor(format=DataFormat.CIFAR10_BIN, name="x")

    def test_synthetic_shape_required(self):
        with pytest.raises(ValueError, match="synth_n >= 2 and d >= 1"):
            DatasetDescriptor(format=DataFormat.SYNTHETIC, name="x", synth_n=1, d=4)

    def test_negative_synth_seed_is_named(self):
        with pytest.raises(ValueError, match=r"synth_seed \(--synth-seed\) must be nonnegative"):
            DatasetDescriptor(format=DataFormat.SYNTHETIC, name="x", synth_n=4, d=2, synth_seed=-1)


@pytest.fixture
def stored_descriptors(tmp_path):
    """One descriptor per format: 300 rows each, with labels 0..9 (CIFAR-100
    coarse labels 0..19, bucketed pairwise), the CIFAR-10 rows split over two
    batch files."""
    idx_images, idx_labels = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx(_grid_dataset(300, 12, seed=11), idx_images, idx_labels)
    ten = (tmp_path / "a.bin", tmp_path / "b.bin")
    write_cifar(_grid_dataset(180, 3072, seed=12), ten[0], CifarVariant.TEN)
    write_cifar(_grid_dataset(120, 3072, seed=13), ten[1], CifarVariant.TEN)
    rng = np.random.default_rng(14)
    records = rng.integers(0, 256, size=(300, 3074), dtype=np.uint8)
    records[:, 0] = rng.integers(0, 20, size=300)
    records[:, 1] = rng.integers(0, 100, size=300)
    hundred = tmp_path / "c.bin"
    hundred.write_bytes(records.tobytes())
    return {
        "idx": DatasetDescriptor(
            DataFormat.IDX_IMAGES, "idx", paths=(str(idx_images), str(idx_labels)), d=12
        ),
        "cifar10": DatasetDescriptor(
            DataFormat.CIFAR10_BIN, "c10", paths=tuple(map(str, ten)), d=3072
        ),
        "cifar100": DatasetDescriptor(
            DataFormat.CIFAR100_BIN, "c100", paths=(str(hundred),), d=3072,
            label_scheme=LabelScheme.COARSE_BUCKETED,
        ),
        "synthetic": DatasetDescriptor(
            DataFormat.SYNTHETIC, "syn", d=5, synth_n=300, heterogeneity=0.4, synth_seed=3
        ),
    }


class TestSampleBeforeDecoding:
    @pytest.mark.parametrize("kind", ["idx", "cifar10", "cifar100", "synthetic"])
    @pytest.mark.parametrize(
        "profile",
        [
            HeterogeneityProfile((1,) * 10, sample_fraction=0.1),
            HeterogeneityProfile((3, 1), sample_fraction=0.1),
            HeterogeneityProfile((1, 2, 3, 4, 5), sample_fraction=0.05),
        ],
        ids=["uniform-10", "ratio-3:1", "ratio-1:2:3:4:5"],
    )
    @pytest.mark.parametrize("seed", [0, 9])
    def test_matches_decode_then_index_oracle(self, stored_descriptors, kind, profile, seed):
        desc = stored_descriptors[kind]
        sample = stratified_sample(load_dataset(desc), profile, seed)
        expected = sample_decoded(load_decoded(desc), profile, seed)
        assert np.array_equal(sample.vectors, expected.vectors)
        assert np.array_equal(sample.labels, expected.labels)

    @pytest.mark.parametrize("kind", ["idx", "cifar10", "cifar100"])
    def test_stored_form_holds_at_most_the_pixel_bytes(self, stored_descriptors, kind):
        desc = stored_descriptors[kind]
        stored = load_dataset(desc)
        pixel_arrays = [
            value
            for value in vars(stored).values()
            if isinstance(value, np.ndarray) and value is not stored.labels
        ]
        assert sum(a.nbytes for a in pixel_arrays) <= 300 * desc.d

    @pytest.mark.parametrize("kind", ["idx", "cifar10", "cifar100"])
    def test_full_decode_matches_oracle(self, stored_descriptors, kind):
        decoded = load_dataset(stored_descriptors[kind])
        expected = load_decoded(stored_descriptors[kind])
        assert np.array_equal(decoded.vectors, expected.vectors)
        assert np.array_equal(decoded.labels, expected.labels)
        # every byte value decodes to the bits of a float64 division by 255
        pixels = np.arange(256, dtype=np.uint8).reshape(16, 16)
        every_byte = VectorDataset.from_bytes(pixels, np.zeros(16, dtype=np.int64)).vectors
        oracle = pixels.astype(np.float64) / 255.0
        assert every_byte.dtype == np.float64
        assert np.array_equal(every_byte.view(np.uint64), oracle.view(np.uint64))


def _records(path, n, record, seed, labels=None):
    """n random records of `record` bytes whose label bytes are `labels`
    (default 0..9 in turn; the fine label of 3074-byte records is 0..99)."""
    rng = np.random.default_rng(seed)
    records = rng.integers(0, 256, size=(n, record), dtype=np.uint8)
    records[:, 0] = np.arange(n) % 10 if labels is None else labels
    if record == CIFAR100_RECORD:
        records[:, 1] = np.arange(n) % 100
    path.write_bytes(records.tobytes())
    return path


def _idx_pair(tmp_path, n, d, seed):
    images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
    pixels = np.random.default_rng(seed).integers(0, 256, size=(n, d), dtype=np.uint8)
    images.write_bytes(struct.pack(">IIII", 0x00000803, n, 1, d) + pixels.tobytes())
    labels.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(i % 10 for i in range(n)))
    return images, labels


def _mapping(array):
    """The mmap an array views, or None for heap memory."""
    while array is not None and not isinstance(array, mmap.mmap):
        array = getattr(array, "base", None)
    return array


#: Records per window of the label scan.
_STEP10 = WINDOW_BYTES // CIFAR10_RECORD
_STEP100 = WINDOW_BYTES // CIFAR100_RECORD


def _tens(n):
    """n rounded up to a multiple of 10, so labels 0..9 in turn are balanced."""
    return -(-n // 10) * 10


@pytest.fixture
def mapped_descriptors(tmp_path):
    """One descriptor per file layout, each spanning more than two windows of
    the label scan (the two CIFAR-10 batches together): an IDX pair, one
    CIFAR-10 batch, one CIFAR-100 batch and two CIFAR-10 batches. Every
    label has the same number of rows."""
    images, labels = _idx_pair(tmp_path, 900, 784, seed=20)
    one = _records(tmp_path / "one.bin", _tens(2 * _STEP10 + 50), CIFAR10_RECORD, seed=21)
    hundred = _records(tmp_path / "h.bin", _tens(2 * _STEP100 + 30), CIFAR100_RECORD, seed=22)
    two = (
        _records(tmp_path / "a.bin", _tens(_STEP10 + 5), CIFAR10_RECORD, seed=23),
        _records(tmp_path / "b.bin", 90, CIFAR10_RECORD, seed=24),
    )
    return {
        "idx": DatasetDescriptor(DataFormat.IDX_IMAGES, "idx", (str(images), str(labels))),
        "cifar10": DatasetDescriptor(DataFormat.CIFAR10_BIN, "c10", (str(one),)),
        "cifar100": DatasetDescriptor(
            DataFormat.CIFAR100_BIN, "c100", (str(hundred),),
            label_scheme=LabelScheme.COARSE_BUCKETED,
        ),
        "cifar10x2": DatasetDescriptor(DataFormat.CIFAR10_BIN, "c10x2", tuple(map(str, two))),
    }


class TestMappedFiles:
    @pytest.mark.parametrize("kind", ["idx", "cifar10", "cifar100", "cifar10x2"])
    def test_every_layout_reads_its_rows_from_the_file(self, mapped_descriptors, kind):
        data = load_dataset(mapped_descriptors[kind])
        assert "rows" not in vars(data)  # read on first use, not at load
        assert data.rows.dtype == np.uint8 and not data.rows.flags.writeable
        assert _mapping(data.rows) is None
        expected = load_decoded(mapped_descriptors[kind])
        assert np.array_equal(data.vectors, expected.vectors)
        assert np.array_equal(data.labels, expected.labels)

    @pytest.mark.parametrize("kind", ["idx", "cifar10", "cifar100", "cifar10x2"])
    @pytest.mark.parametrize("fraction", [0.1, 1.0])
    def test_sample_matches_the_decoded_oracle(self, mapped_descriptors, kind, fraction):
        desc = mapped_descriptors[kind]
        if fraction < 1.0:
            profile = HeterogeneityProfile((3, 1, 1, 1, 1), sample_fraction=fraction)
        else:  # every row: one bucket per label (per coarse pair of CIFAR-100)
            buckets = 5 if kind == "cifar100" else 10
            profile = HeterogeneityProfile((1,) * buckets, sample_fraction=fraction)
        sample = stratified_sample(load_dataset(desc), profile, seed=7)
        every_row = load_decoded(desc)
        expected = sample_decoded(every_row, profile, seed=7)
        assert sample.n == int(fraction * every_row.n)
        assert sample.rows.dtype == np.uint8 and _mapping(sample.rows) is None
        assert np.array_equal(sample.vectors, expected.vectors)
        assert np.array_equal(sample.labels, expected.labels)

    @pytest.mark.parametrize("kind, step", [("cifar10", _STEP10), ("cifar100", _STEP100)])
    def test_picks_across_a_window_edge(self, mapped_descriptors, kind, step):
        data = load_dataset(mapped_descriptors[kind])
        index = np.array([step, data.n - 1, step - 1, 0, 2 * step, 2 * step - 1])
        picked = data._take(index)
        assert _mapping(picked.rows) is None and picked.rows.flags.c_contiguous
        assert np.array_equal(picked.rows, data.rows[index])
        assert np.array_equal(picked.labels, data.labels[index])
        expected = load_decoded(mapped_descriptors[kind])
        assert np.array_equal(picked.vectors, expected.vectors[index])

    def test_label_out_of_range_in_a_late_window(self, tmp_path):
        n = 3 * _STEP10 + 10
        labels = np.arange(n) % 10
        labels[n - 4] = 12
        path = _records(tmp_path / "late.bin", n, CIFAR10_RECORD, seed=25, labels=labels)
        with pytest.raises(DatasetFormatError, match="label byte 12 out of range 0..9") as err:
            _load_files(DataFormat.CIFAR10_BIN, path)
        assert err.value.offset == (n - 4) * CIFAR10_RECORD

    def test_label_fault_in_the_second_batch_names_that_file(self, tmp_path):
        first = _records(tmp_path / "a.bin", 30, CIFAR10_RECORD, seed=28)
        labels = np.arange(2 * _STEP10) % 10
        labels[_STEP10 + 3] = 11  # in the second file's second window
        second = _records(tmp_path / "b.bin", len(labels), CIFAR10_RECORD, seed=29, labels=labels)
        with pytest.raises(DatasetFormatError, match="label byte 11 out of range 0..9") as err:
            _load_files(DataFormat.CIFAR10_BIN, first, second)
        assert err.value.path == str(second)
        assert err.value.offset == (_STEP10 + 3) * CIFAR10_RECORD

    def test_a_coarse_fault_in_a_later_window_outranks_a_fine_one(self, tmp_path):
        # a whole-column check of the coarse labels runs before the fine one
        n = 2 * _STEP100 + 10
        path = _records(tmp_path / "h.bin", n, CIFAR100_RECORD, seed=26)
        raw = bytearray(path.read_bytes())
        raw[3 * CIFAR100_RECORD + 1] = 130  # fine label, first window
        raw[(n - 2) * CIFAR100_RECORD] = 40  # coarse label, last window
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="coarse label byte 40 out of range") as err:
            _load_files(DataFormat.CIFAR100_BIN, path)
        assert err.value.offset == (n - 2) * CIFAR100_RECORD
        raw[(n - 2) * CIFAR100_RECORD] = 4
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="fine label byte 130 out of range") as err:
            _load_files(DataFormat.CIFAR100_BIN, path)
        assert err.value.offset == 3 * CIFAR100_RECORD + 1

    @pytest.mark.parametrize("kind", ["idx", "cifar10", "cifar100"])
    def test_writing_over_the_mapped_file(self, mapped_descriptors, tmp_path, kind):
        # the writer must read the rows before it truncates their file (a pass
        # over them afterwards fails on a short read); the write runs in a child
        desc = mapped_descriptors[kind]
        expected = load_decoded(desc)
        if kind == "idx":
            write = "write_idx(data, *paths)"
            write_idx(expected, tmp_path / "img", tmp_path / "lab")
            want = [tmp_path / "img", tmp_path / "lab"]
        else:
            variant = "TEN" if kind == "cifar10" else "HUNDRED"
            write = f"write_cifar(data, paths[0], CifarVariant.{variant})"
            write_cifar(expected, tmp_path / "batch", CifarVariant[variant])
            want = [tmp_path / "batch"]
        child = textwrap.dedent(f"""
            from hetdp.datasets import *
            paths = {list(desc.paths)!r}
            desc = DatasetDescriptor(DataFormat.{desc.format.name}, "w", tuple(paths),
                                     label_scheme=LabelScheme.{desc.label_scheme.name})
            data = load_dataset(desc)
            {write}
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(hetdp.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", child], env=env, timeout=60, check=True)
        for path, written in zip(desc.paths, want):
            assert Path(path).read_bytes() == written.read_bytes()

    def test_file_cut_after_loading_fails_on_the_short_read(self, tmp_path):
        d = 784
        images, labels = _idx_pair(tmp_path, 40, d, seed=27)
        desc = DatasetDescriptor(DataFormat.IDX_IMAGES, "idx", (str(images), str(labels)))
        data = load_dataset(desc)
        stored = np.frombuffer(images.read_bytes(), np.uint8, 40 * d, 16).reshape(40, d)
        os.truncate(images, 16 + 30 * d + 100)  # row 30 keeps 100 bytes
        assert np.array_equal(data._take(np.arange(30)).rows, stored[:30])
        with pytest.raises(DatasetFormatError, match=f"short read: 100 of a {d}-byte row") as err:
            data._take(np.array([2, 30, 31]))
        assert err.value.path == str(images)
        assert err.value.offset == 16 + 30 * d + 100
        with pytest.raises(DatasetFormatError, match="short read") as err:
            stratified_sample(data, HeterogeneityProfile((1,) * 10, sample_fraction=1.0), seed=0)
        assert err.value.path == str(images)
        assert err.value.offset >= 16 + 30 * d + 100

    @pytest.mark.parametrize("batches", [1, 2])
    def test_file_cut_after_loading_fails_by_name_on_a_whole_pass(self, tmp_path, batches):
        paths = [_records(tmp_path / f"{k}.bin", 40, CIFAR10_RECORD, seed=30 + k)
                 for k in range(batches)]
        data = _load_files(DataFormat.CIFAR10_BIN, *paths)
        stop = 30 * CIFAR10_RECORD + 100  # row 30 of the last file keeps 99 pixel bytes
        os.truncate(paths[-1], stop)
        for whole_pass in (lambda: data.rows, lambda: build_context(data)):
            with pytest.raises(DatasetFormatError, match="short read: 99 of a 3072-byte row") as err:
                whole_pass()
            assert err.value.path == str(paths[-1])
            assert err.value.offset == stop


class TestStratifiedSample:
    def test_deterministic_and_seed_sensitive(self):
        data = synthetic_dataset(400, 5, 0.0, seed=8)
        profile = HeterogeneityProfile((1, 1), sample_fraction=0.2)
        a = stratified_sample(data, profile, seed=10)
        b = stratified_sample(data, profile, seed=10)
        c = stratified_sample(data, profile, seed=11)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.vectors, c.vectors)

    def test_exact_histogram_when_divisible(self):
        labels = np.repeat(np.arange(2), 50)
        data = VectorDataset(np.random.default_rng(0).random((100, 3)), labels)
        profile = HeterogeneityProfile((1, 1), sample_fraction=0.2)
        sample = stratified_sample(data, profile, seed=1)
        assert np.bincount(sample.labels, minlength=2).tolist() == [10, 10]

    def test_remainder_goes_to_largest_share(self):
        labels = np.repeat(np.arange(2), 50)
        data = VectorDataset(np.random.default_rng(0).random((100, 3)), labels)
        profile = HeterogeneityProfile((3, 1), sample_fraction=0.1)
        sample = stratified_sample(data, profile, seed=1)
        assert np.bincount(sample.labels, minlength=2).tolist() == [8, 2]

    def test_buckets_use_smallest_labels_ascending(self):
        rng = np.random.default_rng(2)
        labels = np.array([3, 7, 9] * 20)
        data = VectorDataset(rng.random((60, 2)), labels)
        profile = HeterogeneityProfile((1, 1), sample_fraction=0.3)
        sample = stratified_sample(data, profile, seed=4)
        assert set(sample.labels.tolist()) == {3, 7}
        assert np.count_nonzero(sample.labels == 3) == 9

    def test_rows_are_drawn_without_replacement(self):
        rng = np.random.default_rng(5)
        data = VectorDataset(rng.random((50, 2)), np.repeat(np.arange(2), 25))
        profile = HeterogeneityProfile((1, 1), sample_fraction=1.0)
        sample = stratified_sample(data, profile, seed=6)
        assert sample.n == 50
        assert np.array_equal(np.sort(sample.vectors[:, 0]), np.sort(data.vectors[:, 0]))

    def test_capacity_error_names_bucket(self):
        rng = np.random.default_rng(6)
        labels = np.array([0] * 3 + [1] * 57)
        data = VectorDataset(rng.random((60, 2)), labels)
        profile = HeterogeneityProfile((9, 1), sample_fraction=0.5)
        with pytest.raises(
            SampleCapacityError,
            match=r"bucket 0 \(label 0\) needs 27 records but only 3 are available",
        ):
            stratified_sample(data, profile, seed=0)

    def test_too_few_distinct_labels(self):
        data = VectorDataset(np.random.default_rng(7).random((40, 2)), np.zeros(40, dtype=np.int64))
        profile = HeterogeneityProfile((1, 1), sample_fraction=0.5)
        with pytest.raises(SampleCapacityError, match="2 label buckets.*1 distinct"):
            stratified_sample(data, profile, seed=0)

    def test_empty_sample_rejected(self):
        data = VectorDataset(np.random.default_rng(8).random((30, 2)), np.repeat(np.arange(2), 15))
        profile = HeterogeneityProfile((1, 1), sample_fraction=0.01)
        with pytest.raises(ValueError, match="is empty"):
            stratified_sample(data, profile, seed=0)


class TestLabelPools:
    """stratified_sample reads each label's rows from one pass per dataset,
    VectorDataset._label_pools, which every profile on that dataset shares."""

    PROFILES = (
        HeterogeneityProfile((1,) * 10, sample_fraction=0.1),
        HeterogeneityProfile((3, 1), sample_fraction=0.1),
        HeterogeneityProfile((1, 2, 3, 4, 5), sample_fraction=0.05),
        HeterogeneityProfile((9, 1), sample_fraction=0.02),
    )

    @pytest.mark.parametrize(
        "labels",
        [[0], [4] * 7, [3, 7, 9] * 20, [9, 8, 7, 6, 5, 4, 3, 2, 1, 0] * 3,
         np.random.default_rng(3).choice([0, 2, 5, 11, 250], 500).tolist(),
         np.random.default_rng(4).choice([7, 256, 65535], 300).tolist(),
         np.random.default_rng(4).choice([7, 65535, 65536], 300).tolist(),
         np.random.default_rng(4).choice([7, 2**16 + 7, 2**40], 300).tolist()],
        ids=["one-row", "one-label", "gapped", "descending", "random", "16-bit", "17-bit",
             "41-bit"],
    )
    def test_pools_equal_the_per_label_scan(self, labels):
        data = VectorDataset(np.zeros((len(labels), 1)), np.asarray(labels))
        pools, direct = data._label_pools, label_pools_direct(data.labels)
        assert list(pools) == list(direct)
        for label, pool in direct.items():
            assert pools[label].dtype == pool.dtype
            assert np.array_equal(pools[label], pool)
            assert not pools[label].flags.writeable

    @pytest.mark.parametrize("kind", ["idx", "cifar10", "cifar100", "synthetic"])
    def test_profiles_on_one_dataset_share_one_pass(self, stored_descriptors, kind):
        desc = stored_descriptors[kind]
        data, decoded = load_dataset(desc), load_decoded(desc)
        assert "_label_pools" not in vars(data)
        pools = None
        for profile, seed in itertools.product(self.PROFILES, (0, 9)):
            sample = stratified_sample(data, profile, seed)
            expected = sample_decoded(decoded, profile, seed)
            assert np.array_equal(sample.vectors, expected.vectors), (profile, seed)
            assert np.array_equal(sample.labels, expected.labels), (profile, seed)
            pools = pools or vars(data)["_label_pools"]
            assert vars(data)["_label_pools"] is pools  # made by the first profile only
            assert "_label_pools" not in vars(sample)

    def test_capacity_error_from_shared_pools(self):
        labels = np.array([0] * 3 + [1] * 57)
        data = VectorDataset(np.random.default_rng(6).random((60, 2)), labels)
        stratified_sample(data, HeterogeneityProfile((1, 1), sample_fraction=0.1), seed=0)
        with pytest.raises(
            SampleCapacityError,
            match=r"^bucket 0 \(label 0\) needs 27 records but only 3 are available$",
        ):
            stratified_sample(data, HeterogeneityProfile((9, 1), sample_fraction=0.5), seed=0)


class TestAgainstDirectForms:
    def test_synthetic_rows_are_bit_identical(self):
        empty = 0
        grid = itertools.product((2, 3, 57, 1000), (1, 5, 784), (0.0, 0.5, 1.0), (0, 1))
        for n, d, heterogeneity, seed in grid:
            fast = synthetic_dataset(n, d, heterogeneity, seed)
            direct = synthetic_direct(n, d, heterogeneity, seed)
            assert fast.vectors.tobytes() == direct.vectors.tobytes(), (n, d, heterogeneity, seed)
            assert fast.labels.tobytes() == direct.labels.tobytes(), (n, d, heterogeneity, seed)
            empty += np.bincount(fast.labels, minlength=10).min() == 0
        assert empty > 0  # some clusters draw no rows

    def test_synthetic_samples_read_the_direct_rows(self):
        # a sample gathers only its rows, through the drawn permutation; they and
        # `rows`, gathered on first use, equal the direct form's at the same indices
        empty = 0
        grid = itertools.product((2, 3, 57, 1000), (1, 5, 784), (0.0, 0.5, 1.0), (0, 2))
        for n, d, heterogeneity, seed in grid:
            case = (n, d, heterogeneity, seed)
            fast = synthetic_dataset(n, d, heterogeneity, seed)
            direct = synthetic_direct(n, d, heterogeneity, seed)
            index = np.random.default_rng(seed).integers(0, n, size=max(1, n // 3))
            picked = fast._take(index)
            assert "rows" not in vars(fast), case
            assert picked.rows.tobytes() == direct.rows[index].tobytes(), case
            assert picked.labels.tobytes() == direct.labels[index].tobytes(), case
            assert not picked.rows.flags.writeable and picked.scale == 1.0, case
            assert fast.rows.tobytes() == direct.rows.tobytes(), case
            assert not fast.rows.flags.writeable, case
            empty += np.bincount(fast.labels, minlength=10).min() == 0
        assert empty > 0  # some clusters draw no rows
        data, direct = synthetic_dataset(1000, 8, 0.5, 4), synthetic_direct(1000, 8, 0.5, 4)
        for profile, seed in itertools.product(CANONICAL_PROFILES.values(), (0, 1)):
            profile = HeterogeneityProfile(profile.ratios, sample_fraction=0.1)
            sample = stratified_sample(data, profile, seed)
            expected = sample_decoded(direct, profile, seed)
            assert sample.rows.tobytes() == expected.rows.tobytes(), (profile, seed)
            assert sample.labels.tobytes() == expected.labels.tobytes(), (profile, seed)
        assert "rows" not in vars(data)

    # a write block holds 42 rows of 3072 floats
    @pytest.mark.parametrize("n", [1, 42, 43, 400])
    def test_written_files_are_byte_identical(self, tmp_path, n):
        floats = synthetic_dataset(max(n, 2), 3072, 0.5, seed=n)
        floats = VectorDataset(floats.vectors[:n], floats.labels[:n])
        stored = VectorDataset.from_bytes(
            np.random.default_rng(n).integers(0, 256, (n, 3072), dtype=np.uint8), np.arange(n) % 10
        )
        fast, direct = tmp_path / "fast", tmp_path / "direct"
        for data in (floats, stored):
            for variant in CifarVariant:
                write_cifar(data, fast, variant)
                write_cifar_direct(data, direct, variant)
                assert fast.read_bytes() == direct.read_bytes(), variant
            write_idx(data, fast, tmp_path / "fast-labels")
            write_idx_direct(data, direct, tmp_path / "direct-labels")
            assert fast.read_bytes() == direct.read_bytes()
            assert (tmp_path / "fast-labels").read_bytes() == (tmp_path / "direct-labels").read_bytes()


class TestGenerationMemory:
    @staticmethod
    def _peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_synthetic_rows_make_no_temporary(self):
        n, d = 4000, 784
        peak = self._peak(lambda: synthetic_dataset(n, d, 0.5, seed=3))
        # the grouped rows only: no copy is gathered into the drawn order
        assert peak < 1.2 * n * d * 8, f"peak {peak} bytes"

    def test_synthetic_sample_gathers_only_its_rows(self):
        n, d = 4000, 784
        data = synthetic_dataset(n, d, 0.5, seed=3)
        profile = HeterogeneityProfile((1,) * 5, sample_fraction=0.1)
        peak = self._peak(lambda: stratified_sample(data, profile, seed=1))
        # the 0.1 * n picked rows, not every row in the drawn order
        assert peak < 0.2 * n * d * 8, f"peak {peak} bytes"
        assert "rows" not in vars(data)

    def test_gathered_rows_free_the_cluster_ordered_rows(self):
        n, d = 4000, 784
        tracemalloc.start()
        try:
            data = synthetic_dataset(n, d, 0.5, seed=3)
            rows = data.rows
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the drawn-order rows only, and a sample now indexes them
        assert held < 1.2 * n * d * 8, f"held {held} bytes"
        index = np.array([5, 0, 3999, 5])
        assert np.array_equal(data._take(index).rows, rows[index])

    @pytest.mark.parametrize("kind", ["idx", "cifar10"])
    def test_writers_quantise_in_row_blocks(self, tmp_path, kind):
        n, d = 1000, 3072
        data = synthetic_dataset(n, d, 0.5, seed=4)
        if kind == "idx":
            peak = self._peak(lambda: write_idx(data, tmp_path / "img", tmp_path / "lab"))
        else:
            peak = self._peak(lambda: write_cifar(data, tmp_path / "batch", CifarVariant.TEN))
        assert peak < 0.1 * n * d * 8, f"peak {peak} bytes"


class TestSyntheticData:
    def test_deterministic(self):
        a = synthetic_dataset(60, 5, 0.4, seed=9)
        b = synthetic_dataset(60, 5, 0.4, seed=9)
        c = synthetic_dataset(60, 5, 0.4, seed=10)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.vectors, c.vectors)

    def test_bounded_coordinates_and_labels(self):
        data = synthetic_dataset(300, 6, 1.0, seed=1)
        assert data.vectors.min() >= 0.0
        assert data.vectors.max() <= 1.0
        assert set(np.unique(data.labels)) <= set(range(10))
        assert np.unique(data.labels).size >= 2

    def test_validation(self):
        with pytest.raises(ValueError, match="n >= 2"):
            synthetic_dataset(1, 4, 0.5, seed=0)
        with pytest.raises(ValueError, match="d >= 1"):
            synthetic_dataset(10, 0, 0.5, seed=0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            synthetic_dataset(10, 4, 1.5, seed=0)

    def test_flat_setting_stays_homogeneous(self):
        # Regression guard: with the knob at zero the heterogeneity fraction
        # must stay small across seeds, so sweeps genuinely start from a
        # near-homogeneous population.
        worst = 0.0
        for seed in range(20):
            data = synthetic_dataset(200, 8, 0.0, seed=seed)
            q = build_context(data).q_value
            worst = max(worst, i_squared(q, data.n))
        assert worst <= 0.25

    @staticmethod
    def _fraction(data):
        return i_squared(build_context(data).q_value, data.n)

    def test_knob_raises_heterogeneity_fraction(self):
        low = synthetic_dataset(400, 8, 0.1, seed=3)
        high = synthetic_dataset(400, 8, 0.9, seed=3)
        assert self._fraction(high) > self._fraction(low)

    def test_knob_raises_weighted_q(self):
        low = synthetic_dataset(400, 8, 0.1, seed=4)
        high = synthetic_dataset(400, 8, 0.9, seed=4)
        assert build_context(high).q_value > build_context(low).q_value
