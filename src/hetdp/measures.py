"""Noise-free heterogeneity statistics over bounded-vector datasets.

All statistics are reported as scalars with a coordinate-sum convention:
per-vector quantities sum their d coordinates, and dataset-level statistics
average the per-vector scalars over the n vectors. A dataset holds float64
rows, or the uint8 bytes of stored images (coordinates bytes / 255), which
are never converted to an n x d float64 array. Every float pass reads the
rows through row_blocks, blocks of about BLOCK_BYTES of consecutive rows, so
no pass allocates an n x d temporary: byte blocks are cast to exact counts
in one reused buffer and each pass divides by 255 once. build_context takes
a byte sample's unweighted part (variances, mean, dispersion) and Q's row
squares from exact integer sums of its bytes (byte_moments), and Q from them
plus two GEMVs per block; float rows reduce each row by the same numpy call
as the whole-matrix form, so they are bit-identical to it. The weighted mean
is a float pass either way. Only build_context reads rows; releases, error
reports and the CLI read the true statistics, n and d from its MeasureContext.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Within-vector variances are clamped below by this before inversion into
#: weights, so constant rows (zero variance) get a large finite weight.
VARIANCE_FLOOR = 1e-9

#: Size of one row block's float64 temporaries: small enough to stay in cache.
BLOCK_BYTES = 512 * 1024

#: Both constructors reject n x 0 rows: every float pass divides by d.
NO_COORDINATES = "vectors must have at least one coordinate"


class UnweightedPart(NamedTuple):
    """The context quantities that need no weights, and byte rows' exact row squares."""

    within_variances: np.ndarray
    mean: np.ndarray
    dispersion: float
    row_squares: np.ndarray | None = None


@dataclass(frozen=True, init=False)
class VectorDataset:
    """n vectors in [0,1]^d with one nonnegative integer label per vector.

    `rows` holds the vectors times `scale`, stated where the dataset is made:
    float64 (1.0) or stored image bytes (255.0). A row source reads the rows
    at an int array, a float one into `out` if given: the rows themselves, float
    rows behind a permutation (_permuted) or files (from_file); `rows` reads
    every row once and then serves as the source. Float passes read `rows`
    through row_blocks; `vectors` divides byte rows by 255 on demand.
    """

    labels: np.ndarray
    d: int
    scale: float

    def __init__(self, vectors: np.ndarray, labels: np.ndarray) -> None:
        vectors = np.asarray(vectors, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be a 2-d array, got shape {vectors.shape}")
        if vectors.shape[0] < 1:
            raise ValueError("dataset must contain at least one vector")
        if vectors.shape[1] < 1:
            raise ValueError(NO_COORDINATES)
        if labels.ndim != 1 or labels.shape[0] != vectors.shape[0]:
            raise ValueError(
                f"labels must be one per vector: {labels.shape} labels for "
                f"{vectors.shape[0]} vectors"
            )
        # min and max propagate NaN, so finite extremes mean finite data
        low, high = vectors.min(), vectors.max()
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("vectors contain non-finite coordinates")
        if low < 0.0 or high > 1.0:
            raise ValueError(f"coordinates must lie in [0, 1], got range [{low!r}, {high!r}]")
        if labels.min(initial=0) < 0:
            raise ValueError("labels must be nonnegative integers")
        self._freeze(labels, vectors.shape[1], 1.0, vectors)

    def _freeze(self, labels, d: int, scale: float, rows=None, read_rows=None) -> VectorDataset:
        labels.setflags(write=False)
        if rows is not None:  # in place of the cached property, and their own source
            rows.setflags(write=False)
            vars(self)["rows"], read_rows = rows, _row_reader(rows, np.arange(len(rows)))
        vars(self).update(labels=labels, d=d, scale=scale, _read_rows=read_rows)
        return self

    @classmethod
    def from_bytes(cls, pixels: np.ndarray, labels: np.ndarray) -> VectorDataset:
        """Rows pixels / 255 of an n x d uint8 matrix, one nonnegative int64
        label each, kept as the bytes: no n x d float array is made and no
        pass runs over the bytes. Such rows are finite and in [0, 1], so
        they skip the constructor's scan over the coordinates.
        """
        if pixels.dtype != np.uint8 or pixels.ndim != 2 or not len(pixels) == len(labels) >= 1:
            raise ValueError(f"need one label per uint8 row, got {pixels.shape} {pixels.dtype}")
        if pixels.shape[1] < 1:
            raise ValueError(NO_COORDINATES)
        if labels.dtype != np.int64 or labels.min() < 0:
            raise ValueError("labels must be nonnegative int64")
        return object.__new__(cls)._freeze(labels, pixels.shape[1], 255.0, pixels)

    @classmethod
    def from_file(cls, labels: np.ndarray, d: int, read_rows) -> VectorDataset:
        """len(labels) checked labels and rows of d bytes left in a file that
        read_rows(index) reads into a new uint8 array, only when asked."""
        return object.__new__(cls)._freeze(labels, d, 255.0, read_rows=read_rows)

    def _permuted(self, order: np.ndarray) -> VectorDataset:
        """This dataset's rows and labels in `order`, a permutation of range(n),
        with no scan run again: row i is rows[order[i]], gathered only when read."""
        return object.__new__(type(self))._freeze(
            self.labels[order], self.d, self.scale, read_rows=_row_reader(self.rows, order))

    def _take(self, index: np.ndarray) -> VectorDataset:
        """The rows and labels at `index` in new arrays, of the same kind (bytes
        stay bytes), read from the row source; they were checked when this
        dataset was made, so no scan runs over them again."""
        rows, labels = self._read_rows(index), self.labels[index]
        return object.__new__(type(self))._freeze(labels, self.d, self.scale, rows)

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """Every row in order, read from the row source on first use; they then
        replace it, so a file or permutation is not read again."""
        taken = self._take(np.arange(self.n))
        vars(self)["_read_rows"] = taken._read_rows
        return taken.rows

    @functools.cached_property
    def _label_pools(self) -> dict[int, np.ndarray]:
        """Each present label's ascending row indices, keyed by ascending label:
        stratified_sample fills bucket i from key i. 16-bit keys radix-sort 6x faster."""
        keys = self.labels.astype(np.uint16) if self.labels.max() < 1 << 16 else self.labels
        order = np.argsort(keys, kind="stable")
        order.setflags(write=False)
        pools = np.split(order, np.flatnonzero(np.diff(self.labels[order])) + 1)
        return {int(self.labels[pool[0]]): pool for pool in pools}

    @property
    def vectors(self) -> np.ndarray:
        """The n x d float64 vectors, read-only: `rows` itself for float rows,
        a new np.divide(bytes, 255.0) per call for byte rows (no float pass
        calls it)."""
        if self.rows.dtype != np.uint8:
            return self.rows
        vectors = np.divide(self.rows, 255.0)
        vectors.setflags(write=False)
        return vectors

    @property
    def n(self) -> int:
        return len(self.labels)


def _row_reader(rows: np.ndarray, order: np.ndarray):
    """Row i is rows[order[i]]: order[index] checks the index, so "clip" need not copy `out`."""
    return lambda index, out=None: np.take(rows, order[index], 0, out, "clip")


@dataclass(frozen=True)
class MeasureContext:
    """Per-dataset quantities shared by the weighted statistics, and the true
    dispersion (p = 2) and Q; build_context is the one place they are made.
    It is all a study keeps of a sample: n and d are len(weights), len(mean).

    weights[i] is 1 / max(within_variances[i], VARIANCE_FLOOR); the weighted
    mean is the weights-normalized average of the rows. q_sq_weights is Q
    with squared weights, (1/n) sum_i w_i^2 ||x_i - weighted_mean||^2, the
    sample moment of the Q error's conditional TMSE.
    """

    mean: np.ndarray
    weighted_mean: np.ndarray
    weights: np.ndarray
    within_variances: np.ndarray
    dispersion: float
    q_value: float
    q_sq_weights: float

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def d(self) -> int:
        return len(self.mean)


def byte_moments(pixels: np.ndarray) -> UnweightedPart:
    """The unweighted part of rows x = p / 255 from exact integer sums of the
    n x d bytes p: row sums S and S2 of p and p^2, column sums C.

    Variance (d S2 - S^2) / (255 d)^2, mean C / (255 n) and dispersion
    (n sum S2 - sum C^2) / (255 n)^2 divide exact integers once, so nothing
    cancels; the last numerator is a Python int, which cannot wrap. The sums
    reduce the bytes in place (numpy casts them in small buffers), in int32
    while no sum can reach 2^31.
    """
    n, d = pixels.shape
    acc = np.int32 if max(n, d) * 255**2 < 2**31 else np.int64
    sums = pixels.sum(axis=1, dtype=acc).astype(np.int64)
    squares = np.einsum("ij,ij->i", pixels, pixels, dtype=acc).astype(np.int64)
    columns = pixels.sum(axis=0, dtype=acc)
    spread = n * int(squares.sum()) - sum(c * c for c in columns.tolist())
    within = (d * squares - sums * sums) / (255.0**2 * d * d)
    return UnweightedPart(within, columns / (255.0 * n), spread / (255**2 * n * n), squares)


def row_blocks(
    data: VectorDataset, whole_floats: bool = False
) -> Iterator[tuple[slice, np.ndarray]]:
    """(span, block) pairs that cover the sample in order: `block` is
    data.rows[span] as float64, blocks of about BLOCK_BYTES of floats each.

    Byte rows are cast by np.copyto into one reused buffer as exact counts
    0..255, so a pass divides by data.scale once, and a block is only valid
    until the next one. Float rows yield views; with `whole_floats` they
    yield one view of every row, for passes that make no per-block
    temporary, so the float path keeps its whole-matrix arithmetic.
    """
    n, d = data.rows.shape
    floats = data.rows.dtype != np.uint8
    if floats and whole_floats:
        yield slice(0, n), data.rows
        return
    step = max(1, BLOCK_BYTES // (8 * d))
    buffer = None if floats else np.empty((min(step, n), d))
    for start in range(0, n, step):
        span = slice(start, start + step)
        block = data.rows[span]
        if buffer is not None:
            np.copyto(buffer[: len(block)], block)
            block = buffer[: len(block)]
        yield span, block


def _sq_deviations(data: VectorDataset, center: np.ndarray) -> np.ndarray:
    """||x_i - center||^2 per float row, with nothing expanded into moments."""
    squares = np.empty(data.n)
    for span, block in row_blocks(data):
        deviations = block - center
        squares[span] = np.square(deviations, out=deviations).sum(axis=1)
    return squares


def _byte_sq_deviations(data: VectorDataset, center: np.ndarray, row_squares) -> np.ndarray:
    """||p_i - c||^2 = (S2_i - 2 p_i.r + r.r) - 2 (p_i.f - r.f) + f.f per byte row, from
    two GEMVs per cast block (c = 255 center, S2_i the exact row squares, r = c rounded
    to 2^-k, f = c - r exactly). 2k <= 53 - log2(2 * 255^2 * d) (k = 12 at d = 3072) keeps
    each term and partial sum of the bracket a multiple of 2^-2k below 2^53: exact in any
    order, its large terms cancel nothing that rounded. Only the correction rounds, by
    about eps * d * 255 * 2^-k absolutely (|f_j| <= 2^-(k+1))."""
    c, k = center * 255.0, int(53 - math.log2(2 * 255**2 * data.d)) // 2
    r = np.ldexp(np.rint(np.ldexp(c, k)), -k)
    f = c - r
    squares, rf, ff = row_squares + r @ r, r @ f, f @ f
    for span, block in row_blocks(data):
        squares[span] -= 2.0 * (block @ r)
        squares[span] += ff - 2.0 * (block @ f - rf)
    return squares


def build_context(data: VectorDataset) -> MeasureContext:
    """Compute mean, within-vector variances, weights, weighted mean, the
    true dispersion and Q, and Q with squared weights once. Byte rows take
    the unweighted part and Q's row squares from byte_moments; float rows
    take row-blocked passes, bit-identical to the whole-matrix forms.

    Dispersion = (1/n) sum_i ||x_i - mean||^2 and
    Q = (1/n) sum_i w_i ||x_i - weighted_mean||^2, so unit weights reduce Q
    to dispersion.
    """
    if data.rows.dtype == np.uint8:
        part = byte_moments(data.rows)
    else:
        mean = data.rows.mean(axis=0)
        within = np.empty(data.n)
        for span, block in row_blocks(data):
            within[span] = block.var(axis=1)
        part = UnweightedPart(within, mean, float(_sq_deviations(data, mean).mean()))
    weights = 1.0 / np.maximum(part.within_variances, VARIANCE_FLOOR)
    center = np.zeros(data.d)
    for span, block in row_blocks(data, whole_floats=True):
        center += weights[span] @ block
    del block  # a byte block is the cast buffer: free it before the Q pass makes its own
    center /= data.scale * weights.sum()
    weighted = weights * (_sq_deviations(data, center) if part.row_squares is None
                          else _byte_sq_deviations(data, center, part.row_squares))
    return MeasureContext(
        mean=part.mean,
        weighted_mean=center,
        weights=weights,
        within_variances=part.within_variances,
        dispersion=part.dispersion,
        q_value=float(weighted.mean()) / data.scale**2,
        q_sq_weights=float((weights * weighted).mean()) / data.scale**2,
    )


def i_squared(q_value: float, n: int) -> float:
    """Heterogeneity fraction max{0, 1 - (n-1)/Q} in [0, 1].

    Raises:
        ValueError: if n < 2 (the n-1 numerator degenerates) or q_value < 0.
    """
    if n < 2:
        raise ValueError(f"i_squared needs n >= 2, got n={n}")
    if not (math.isfinite(q_value) and q_value >= 0):
        raise ValueError(f"q_value must be nonnegative and finite, got {q_value!r}")
    if q_value == 0.0:
        return 0.0
    return max(0.0, 1.0 - (n - 1) / q_value)
