"""Dataset loading, label-ratio sampling, and synthetic generation.

Real datasets come from two binary formats: big-endian magic-tagged image and
label files (28x28 grayscale images flattened to 784 coordinates) and fixed
record-length RGB image files (3073- or 3074-byte records flattened to 3072
coordinates). A pixel byte p stands for the coordinate p / 255 in [0, 1].
An image file is mapped read-only for validation only (header, size, label
scan; the scan drops each window's pages once read). Its rows stay in the
file, behind one positioned reader over the list of files in which a global
row maps to a file and a record (VectorDataset.from_file): a sample reads
the rows it picks, one positioned read per row, and is never converted to
an n x d float64 array.

Heterogeneity of a working subset is controlled by stratified sampling with
explicit per-label ratios; a deterministic synthetic generator provides
label-clustered data for dataset-free runs as its cluster-ordered rows behind
the drawn permutation, so a sample gathers only the rows it picks.
"""

from __future__ import annotations

import enum
import math
import mmap
import os
import struct
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hetdp.measures import VectorDataset

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR10_RECORD = 3073  # 1 label byte + 32*32*3 pixels
CIFAR100_RECORD = 3074  # coarse + fine label bytes + 32*32*3 pixels

#: The record label scan reads this many bytes of a mapped file at a time and
#: drops their pages once read, so it holds about one window of the file.
WINDOW_BYTES = 1 << 20


class DatasetFormatError(ValueError):
    """A data file violated its binary format; carries path and byte offset."""

    def __init__(self, message: str, *, path: str | Path | None = None, offset: int | None = None):
        detail = message
        if path is not None:
            detail += f" in {path}"
        if offset is not None:
            detail += f" at offset {offset}"
        super().__init__(detail)
        self.path = str(path) if path is not None else None
        self.offset = offset


class SampleCapacityError(RuntimeError):
    """A stratified sample asked for more records of a label than exist."""


class DataFormat(enum.Enum):
    IDX_IMAGES = "idx_images"
    CIFAR10_BIN = "cifar10_bin"
    CIFAR100_BIN = "cifar100_bin"
    SYNTHETIC = "synthetic"


class LabelScheme(enum.Enum):
    """Whether labels are used as stored or bucketed from coarse pairs."""

    FINE = "fine"
    COARSE_BUCKETED = "coarse_bucketed"


@dataclass(frozen=True)
class HeterogeneityProfile:
    """Per-label-bucket sampling ratios plus the sample fraction.

    ratios[i] is the relative share of bucket i; buckets map to the
    label_count smallest labels in ascending order.
    """

    ratios: tuple[int, ...]
    label_count: int = 0
    sample_fraction: float = 0.02

    def __post_init__(self) -> None:
        if self.label_count == 0:
            object.__setattr__(self, "label_count", len(self.ratios))
        if self.label_count not in (2, 5, 10):
            raise ValueError(f"label_count must be one of 2, 5, 10, got {self.label_count}")
        if len(self.ratios) != self.label_count:
            raise ValueError(
                f"need one ratio per label bucket: {len(self.ratios)} ratios for "
                f"{self.label_count} buckets"
            )
        if any(int(r) != r or r < 1 for r in self.ratios):
            raise ValueError(f"ratios must be positive integers, got {self.ratios!r}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError(f"sample fraction must lie in (0, 1], got {self.sample_fraction!r}")


@dataclass(frozen=True)
class DatasetDescriptor:
    """Recipe for obtaining one VectorDataset; `name` keys result rows.

    File-backed formats list their paths (images then labels for the
    magic-tagged format; one or more batch files for the fixed-record
    formats). The synthetic format ignores paths and uses the shape fields.
    A declared d is validated against the loaded data. The canonical real
    datasets have d=784 (28x28 grayscale) and d=3072 (32x32 RGB).
    """

    format: DataFormat
    name: str
    paths: tuple[str, ...] = ()
    d: int | None = None
    label_scheme: LabelScheme = LabelScheme.FINE
    synth_n: int = 0
    heterogeneity: float = 0.0
    synth_seed: int = 0

    def __post_init__(self) -> None:
        if "/" in self.name or os.sep in self.name:
            raise ValueError(f"dataset name {self.name!r} may not contain a path separator")
        if self.synth_seed < 0:
            raise ValueError(f"synth_seed (--synth-seed) must be nonnegative, got {self.synth_seed}")
        if self.format is DataFormat.CIFAR100_BIN:
            if self.label_scheme is not LabelScheme.COARSE_BUCKETED:
                raise ValueError("the 3074-byte record format always buckets coarse labels")
        elif self.label_scheme is not LabelScheme.FINE:
            raise ValueError(f"{self.format.value} stores fine labels only")
        if self.format is DataFormat.SYNTHETIC:
            if self.synth_n < 2 or not self.d or self.d < 1:
                raise ValueError("synthetic descriptor needs synth_n >= 2 and d >= 1")
            if not 0.0 <= self.heterogeneity <= 1.0:
                raise ValueError(f"heterogeneity must lie in [0, 1], got {self.heterogeneity!r}")
        elif self.format is DataFormat.IDX_IMAGES:
            if len(self.paths) != 2:
                raise ValueError("image format needs an images path and a labels path")
        elif not self.paths:
            raise ValueError(f"{self.format.value} descriptor needs at least one path")


def load_dataset(desc: DatasetDescriptor) -> VectorDataset:
    """Materialize a descriptor as a VectorDataset: synthetic float rows
    behind their permutation, the binary formats validated over every record
    and left in their files, several batch files as one dataset in argument
    order. A sample reads only the rows it picks; `rows` reads every row once.

    Raises:
        DatasetFormatError: malformed files, or loaded width differing from
            a declared d.
    """
    if desc.format is DataFormat.SYNTHETIC:
        data = synthetic_dataset(desc.synth_n, desc.d, desc.heterogeneity, desc.synth_seed)
    elif desc.format is DataFormat.IDX_IMAGES:
        data = _read_idx(desc.paths[0], desc.paths[1])
    elif desc.format is DataFormat.CIFAR10_BIN:
        data = _read_cifar(list(desc.paths), CifarVariant.TEN)
    else:
        data = _read_cifar(list(desc.paths), CifarVariant.HUNDRED)
    if desc.d is not None and data.d != desc.d:
        raise DatasetFormatError(
            f"descriptor {desc.name} declares d={desc.d} but the data has d={data.d}"
        )
    return data


#: The six canonical sampling profiles: a balanced and a skewed ratio at each
#: of 10, 5 and 2 label buckets.
CANONICAL_PROFILES: dict[str, HeterogeneityProfile] = {
    "uniform-10": HeterogeneityProfile((1,) * 10, 10),
    "skewed-10": HeterogeneityProfile((91,) + (1,) * 9, 10),
    "uniform-5": HeterogeneityProfile((1,) * 5, 5),
    "skewed-5": HeterogeneityProfile((96, 1, 1, 1, 1), 5),
    "uniform-2": HeterogeneityProfile((1, 1), 2),
    "skewed-2": HeterogeneityProfile((99, 1), 2),
}


class _MappedFile:
    """One stored file held open for positioned reads (`fd`; it closes with
    this object) and mapped read-only (`view`; b"" for an empty file) for
    validation only: header, size check and label scan."""

    def __init__(self, path: str | Path) -> None:
        self.path = path
        file = open(path, "rb", buffering=0)
        weakref.finalize(self, file.close)
        self.fd = file.fileno()
        size = os.fstat(self.fd).st_size
        self.view = mmap.mmap(self.fd, size, access=mmap.ACCESS_READ) if size else b""
        self.dropped = 0

    def drop_below(self, stop: int) -> None:
        """Release this process's pages of the mapping that lie wholly below
        byte `stop`; the next read of them faults them in again."""
        stop -= stop % mmap.PAGESIZE
        if stop > self.dropped:
            self.view.madvise(mmap.MADV_DONTNEED, self.dropped, stop - self.dropped)
            self.dropped = stop


class _StoredRows:
    """The rows of `files`, counts[k] records each, in order: global row r
    is record r - starts[k] of the file k that holds it, whose `width`
    bytes start at offset + record * stride."""

    def __init__(self, files: list[_MappedFile], counts, offset: int, width: int, stride: int):
        self.files, self.offset, self.width, self.stride = files, offset, width, stride
        self.starts = np.cumsum([0, *counts[:-1]])

    def __call__(self, index: np.ndarray) -> np.ndarray:
        """The rows at `index` in a new array, one positioned read per row.

        Raises:
            DatasetFormatError: a read came up short (its file was cut since
                it was loaded), naming that file and the offset where it stopped.
        """
        out = np.empty((len(index), self.width), np.uint8)
        which = np.searchsorted(self.starts, index, side="right") - 1
        where = self.offset + (index - self.starts[which]) * self.stride
        for row, k, start in zip(out, which.tolist(), where.tolist()):
            got = os.preadv(self.files[k].fd, (row,), start)
            if got != self.width:
                raise DatasetFormatError(f"short read: {got} of a {self.width}-byte row",
                                         path=self.files[k].path, offset=start + got)
        return out


def _read_be_u32(buf: bytes, offset: int, path: str | Path, what: str) -> int:
    if len(buf) < offset + 4:
        raise DatasetFormatError(f"truncated while reading {what}", path=path, offset=len(buf))
    return struct.unpack_from(">I", buf, offset)[0]


def _check_magic(buf: bytes, expected: int, path: str | Path, what: str) -> None:
    magic = _read_be_u32(buf, 0, path, f"{what} magic")
    if magic != expected:
        raise DatasetFormatError(
            f"bad {what} magic 0x{magic:08x}, expected 0x{expected:08x}", path=path, offset=0
        )


def _read_idx(images_path: str | Path, labels_path: str | Path) -> VectorDataset:
    images = _MappedFile(images_path)
    image_buf = images.view
    _check_magic(image_buf, IDX_IMAGE_MAGIC, images_path, "image")
    count = _read_be_u32(image_buf, 4, images_path, "image count")
    rows = _read_be_u32(image_buf, 8, images_path, "row count")
    cols = _read_be_u32(image_buf, 12, images_path, "column count")
    if rows * cols == 0:
        raise DatasetFormatError(
            f"image size {rows}x{cols} holds no pixels", path=images_path, offset=8
        )
    pixel_bytes = count * rows * cols
    if len(image_buf) < 16 + pixel_bytes:
        raise DatasetFormatError(
            f"truncated pixel data: need {pixel_bytes} bytes for "
            f"{count} images of {rows}x{cols}",
            path=images_path,
            offset=len(image_buf),
        )

    label_buf = Path(labels_path).read_bytes()
    _check_magic(label_buf, IDX_LABEL_MAGIC, labels_path, "label")
    label_count = _read_be_u32(label_buf, 4, labels_path, "label count")
    if label_count != count:
        raise DatasetFormatError(
            f"label count {label_count} does not match image count {count}",
            path=labels_path,
            offset=4,
        )
    if len(label_buf) < 8 + label_count:
        raise DatasetFormatError(
            f"truncated label data: need {label_count} bytes",
            path=labels_path,
            offset=len(label_buf),
        )
    labels = np.frombuffer(label_buf, dtype=np.uint8, count=label_count, offset=8)
    if count == 0:
        raise ValueError("dataset must contain at least one vector")
    reader = _StoredRows([images], [count], 16, rows * cols, rows * cols)
    return VectorDataset.from_file(labels.astype(np.int64), rows * cols, reader)


def _write_records(path: str | Path, header: bytes, data: VectorDataset, heads: np.ndarray) -> None:
    """Write `header`, then row i as the bytes heads[i] (none for a zero-width
    `heads`) and its d pixel bytes rint(vector * 255), one write per block of
    rows. Float rows are read a block of about WINDOW_BYTES at a time into one
    reused buffer and quantised there. Byte rows, copied as they are, are read
    whole before the file at `path`, which may hold them, is truncated."""
    byte_rows = None if data.scale == 1.0 else data.rows
    step = max(1, WINDOW_BYTES // (8 * data.d))
    floats = np.empty((min(step, data.n), data.d))
    records = np.empty((len(floats), heads.shape[1] + data.d), np.uint8)
    with open(path, "wb") as fh:
        fh.write(header)
        for start in range(0, data.n, step):
            out = records[: min(step, data.n - start)]
            if byte_rows is None:
                block = data._read_rows(np.arange(start, start + len(out)), out=floats[: len(out)])
                out[:, heads.shape[1] :] = np.rint(np.multiply(block, 255.0, out=block), out=block)
            else:
                out[:, heads.shape[1] :] = byte_rows[start : start + step]
            out[:, : heads.shape[1]] = heads[start : start + step]
            fh.write(out)


def write_idx(data: VectorDataset, images_path: str | Path, labels_path: str | Path) -> None:
    """Write a dataset as image/label files that load_dataset reads under the
    magic-tagged image format.

    Coordinates are quantized to the 1/255 grid; the image file declares the
    d coordinates as one row of d columns. Labels must fit in one byte.
    """
    if data.labels.max(initial=0) > 255:
        raise ValueError("labels above 255 cannot be stored in one byte")
    header = struct.pack(">IIII", IDX_IMAGE_MAGIC, data.n, 1, data.d)
    _write_records(images_path, header, data, np.empty((data.n, 0), np.uint8))
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, data.n))
        fh.write(data.labels.astype(np.uint8).tobytes())


class CifarVariant(enum.Enum):
    TEN = "ten"
    HUNDRED = "hundred"


def _scan_labels(mapped: _MappedFile, record: int, tops) -> np.ndarray:
    """The first label column of a mapped file's `record`-byte records, as
    int64, after checking that every label column is at most its top, (top,
    what) per column in `tops`; a fault is reported as one whole-column check
    after another would find it. The scan reads the mapping one window of
    records at a time and drops each window's pages once read, so it holds
    about one window of the file."""
    records = np.frombuffer(mapped.view, dtype=np.uint8).reshape(-1, record)
    labels = np.empty((len(tops), len(records)), np.int64)
    step = max(1, WINDOW_BYTES // record)
    for start in range(0, len(records), step):
        labels[:, start : start + step] = records[start : start + step, : len(tops)].T
        mapped.drop_below((start + step) * record)
    for column, (top, what) in enumerate(tops):
        bad = np.flatnonzero(labels[column] > top)
        if bad.size:
            raise DatasetFormatError(
                f"{what} byte {labels[column, bad[0]]} out of range 0..{top}",
                path=mapped.path,
                offset=int(bad[0]) * record + column,
            )
    return labels[0]


def _read_cifar(paths: "list[str | Path]", variant: CifarVariant) -> VectorDataset:
    if variant is CifarVariant.TEN:
        record, tops = CIFAR10_RECORD, ((9, "label"),)
    else:
        record, tops = CIFAR100_RECORD, ((19, "coarse label"), (99, "fine label"))
    files, labels = [], []
    for path in paths:
        mapped = _MappedFile(path)
        size = len(mapped.view)
        if size == 0 or size % record != 0:
            raise DatasetFormatError(
                f"file length {size} is not a positive multiple of the "
                f"{record}-byte record size",
                path=path,
                offset=size - (size % record),
            )
        labels.append(_scan_labels(mapped, record, tops))
        files.append(mapped)
    reader = _StoredRows(files, [len(column) for column in labels], len(tops), 3072, record)
    labels = np.concatenate(labels)
    if variant is CifarVariant.HUNDRED:
        labels //= 2  # pairwise buckets of coarse labels: (0,1)->0, (2,3)->1, ...
    return VectorDataset.from_file(labels, 3072, reader)


def write_cifar(data: VectorDataset, path: str | Path, variant: CifarVariant) -> None:
    """Write a dataset as one fixed-record binary batch that load_dataset
    reads under the 3073- or 3074-byte record format.

    For the hundred-class variant the stored coarse label is 2*label (the
    bucketing's canonical representative) and the fine label is 0. Labels
    must lie in 0..9 for either variant, as the loader requires.
    """
    if data.d != 3072:
        raise ValueError(f"record format stores 3072 pixel bytes, got d={data.d}")
    if data.labels.max() > 9:
        raise ValueError(f"labels above 9 cannot be stored in the {variant.value}-class records")
    heads = np.outer(data.labels, [1] if variant is CifarVariant.TEN else [2, 0]).astype(np.uint8)
    _write_records(path, b"", data, heads)


def _allocate(total: int, shares: np.ndarray) -> np.ndarray:
    """Integer allocation of `total` by nonnegative shares.

    Each bucket gets floor(total * share / sum); the remainder goes to
    buckets in descending share order (ties broken by lower index).
    """
    shares = np.asarray(shares, dtype=np.float64)
    exact = total * shares / shares.sum()
    counts = np.floor(exact).astype(np.int64)
    remainder = total - int(counts.sum())
    if remainder > 0:
        order = np.argsort(-shares, kind="stable")
        counts[order[:remainder]] += 1
    return counts


def stratified_sample(
    data: VectorDataset, profile: HeterogeneityProfile, seed: int
) -> VectorDataset:
    """Draw a label-ratio-controlled subset without replacement.

    The total is floor(sample_fraction * n); per-bucket counts follow the
    profile ratios via floor-plus-remainder allocation. Bucket i draws
    uniformly from the rows whose label equals the i-th smallest label
    present. Deterministic given the seed. The sample gathers the picked
    rows as stored, so byte rows stay bytes.

    Raises:
        SampleCapacityError: a bucket asks for more rows than its label has.
    """
    total = math.floor(profile.sample_fraction * data.n)
    if total < 1:
        raise ValueError(
            f"sample of {profile.sample_fraction} * {data.n} rows is empty"
        )
    counts = _allocate(total, np.asarray(profile.ratios, dtype=np.float64))
    pools = data._label_pools
    if len(pools) < profile.label_count:
        raise SampleCapacityError(
            f"profile needs {profile.label_count} label buckets but the data "
            f"has only {len(pools)} distinct labels"
        )
    rng = np.random.default_rng(seed)
    picked: list[np.ndarray] = []
    for bucket, (want, (label, pool)) in enumerate(zip(counts, pools.items())):
        if pool.size < want:
            raise SampleCapacityError(
                f"bucket {bucket} (label {label}) needs {int(want)} records "
                f"but only {pool.size} are available"
            )
        picked.append(rng.choice(pool, size=int(want), replace=False))
    return data._take(np.concatenate(picked))


# Synthetic generator geometry: ten label clusters sit at distinct base
# levels inside a compact band (multiplicatively shuffled so low labels are
# far apart); each cluster adds its own fixed pattern at a log-spaced
# amplitude (diversifying within-row variances, hence weights) plus flat
# per-row jitter. Raising the heterogeneity knob shrinks the within-row
# scale geometrically and skews cluster sizes.
_CLUSTERS = 10
_LEVEL_LOW, _LEVEL_HIGH = 0.35, 0.65
_AMP_LOW_EXP, _AMP_HIGH_EXP = -2.0, 0.2
_BASE_SCALE = 0.05
_SCALE_DECADES = 2.0
_FLAT_JITTER = 0.6
_JITTER_SHRINK = 0.9
_IMBALANCE_RATIO = 0.55


def synthetic_dataset(n: int, d: int, heterogeneity: float, seed: int) -> VectorDataset:
    """Label-clustered vectors with a tunable heterogeneity level in [0, 1].

    At heterogeneity 0 the clusters are equal-sized and noisy enough to blur
    together (the heterogeneity fraction of the result stays low); toward 1
    the rows flatten onto their cluster levels and cluster sizes skew, so
    inverse-variance weights and the weighted statistics grow sharply. All
    coordinates are clipped to [0, 1]; output is deterministic given the seed.
    The rows stay in cluster order behind the drawn permutation until read.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if not 0.0 <= heterogeneity <= 1.0:
        raise ValueError(f"heterogeneity must lie in [0, 1], got {heterogeneity!r}")
    rng = np.random.default_rng(seed)
    k = _CLUSTERS
    shuffle = (7 * np.arange(k)) % k
    levels = _LEVEL_LOW + (_LEVEL_HIGH - _LEVEL_LOW) * (shuffle + 0.5) / k
    amplitudes = 10.0 ** np.linspace(_AMP_LOW_EXP, _AMP_HIGH_EXP, k)
    scale = _BASE_SCALE * 10.0 ** (-_SCALE_DECADES * heterogeneity)
    jitter = _FLAT_JITTER * (1.0 - _JITTER_SHRINK * heterogeneity)
    geometric = _IMBALANCE_RATIO ** np.arange(k)
    shares = (1.0 - heterogeneity) / k + heterogeneity * geometric / geometric.sum()
    counts = _allocate(n, shares)

    patterns = rng.standard_normal((k, d))
    grouped = np.empty((n, d))
    for cluster, rows in enumerate(np.split(grouped, np.cumsum(counts)[:-1])):
        rng.standard_normal(out=rows)  # an empty cluster draws nothing
        rows *= jitter
        rows += amplitudes[cluster] * patterns[cluster]
        rows *= scale
        rows += levels[cluster]  # levels + scale * (amplitude * pattern + jitter * noise)
    np.clip(grouped, 0.0, 1.0, out=grouped)
    order = rng.permutation(n)
    return VectorDataset(grouped, np.repeat(np.arange(k), counts))._permuted(order)
