"""Noise-free statistics: hand values, brute-force oracles, invariances."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import build_context_direct, within_vector_variance

from hetdp.datasets import CANONICAL_PROFILES, stratified_sample, synthetic_dataset
from hetdp.measures import BLOCK_BYTES, VARIANCE_FLOOR, VectorDataset, build_context, i_squared

unit_matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 12), st.integers(1, 6)),
    elements=st.floats(0.0, 1.0, allow_nan=False, width=64),
)


def _dataset(vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    return VectorDataset(vectors, np.zeros(vectors.shape[0], dtype=np.int64))


def _equal_variance_rows(seed: int, n: int, d: int) -> VectorDataset:
    """n rows, each a permutation of one random vector of length d."""
    rng = np.random.default_rng(seed)
    row = rng.random(d)
    return _dataset([rng.permutation(row) for _ in range(n)])


class TestVectorDataset:
    def test_coordinates_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            _dataset([[0.0, 1.5]])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            _dataset([[-0.1, 0.5]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            _dataset([[0.5, np.nan]])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            VectorDataset(np.zeros((2, 2)), np.array([0]))
        with pytest.raises(ValueError):
            VectorDataset(np.zeros(4), np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            VectorDataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))

    def test_zero_width_rejected_by_the_constructor(self):
        with pytest.raises(ValueError, match="^vectors must have at least one coordinate$"):
            VectorDataset(np.zeros((2, 0)), np.zeros(2, dtype=np.int64))

    def test_zero_width_rejected_by_from_bytes(self):
        with pytest.raises(ValueError, match="^vectors must have at least one coordinate$"):
            VectorDataset.from_bytes(np.zeros((2, 0), np.uint8), np.zeros(2, dtype=np.int64))

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            VectorDataset(np.zeros((2, 2)), np.array([0, -1]))

    def test_arrays_frozen(self, fix):
        with pytest.raises(ValueError):
            fix.vectors[0, 0] = 0.3
        with pytest.raises(ValueError):
            fix.labels[0] = 5

    def test_shape_properties(self, fix):
        assert (fix.n, fix.d) == (2, 2)


def _dispersion(vectors) -> float:
    return build_context(_dataset(vectors)).dispersion


class TestDispersion:
    def test_hand_value(self, fix):
        assert build_context(fix).dispersion == pytest.approx(0.25, abs=1e-15)

    def test_hand_value_diagonal(self, fix_diag):
        assert build_context(fix_diag).dispersion == pytest.approx(0.5, abs=1e-15)

    def test_identical_rows_give_zero(self):
        assert _dispersion([[0.3, 0.7]] * 5) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(unit_matrices)
    def test_nonnegative_and_permutation_invariant(self, vectors):
        value = _dispersion(vectors)
        assert value >= 0.0
        perm = np.random.default_rng(0).permutation(vectors.shape[0])
        assert _dispersion(vectors[perm]) == pytest.approx(value, rel=1e-12, abs=1e-15)


class TestWeights:
    def test_within_variance_hand_value(self):
        assert within_vector_variance(np.array([0.0, 0.5])) == pytest.approx(0.0625, abs=1e-15)

    def test_weights_invert_variances(self, fix):
        ctx = build_context(fix)
        assert np.allclose(ctx.weights, [16.0, 16.0])

    def test_floor_caps_constant_rows(self, fix_diag):
        ctx = build_context(fix_diag)
        assert np.allclose(ctx.weights, [1.0 / VARIANCE_FLOOR] * 2)

    def test_weighted_mean_with_equal_weights_is_mean(self):
        # Rows that permute one vector share its variance, hence one weight.
        ctx = build_context(_equal_variance_rows(3, 6, 4))
        assert np.allclose(ctx.weights, ctx.weights[0], rtol=1e-14)
        assert np.allclose(ctx.weighted_mean, ctx.mean, rtol=1e-14)


class TestQStatistic:
    def test_hand_value(self, fix):
        assert build_context(fix).q_value == pytest.approx(4.0, abs=1e-12)

    def test_equal_weights_reduce_to_dispersion(self):
        # Q with one weight w everywhere is w times the dispersion; unit
        # weights are the case w = 1.
        ctx = build_context(_equal_variance_rows(7, 8, 3))
        assert ctx.q_value == pytest.approx(ctx.weights[0] * ctx.dispersion, rel=1e-13)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        vectors = rng.random((5, 4))
        data = _dataset(vectors)
        ctx = build_context(data)
        w = 1.0 / np.maximum(vectors.var(axis=1), VARIANCE_FLOOR)
        center = (w[:, None] * vectors).sum(axis=0) / w.sum()
        brute = np.mean([w[i] * ((vectors[i] - center) ** 2).sum() for i in range(5)])
        assert ctx.q_value == pytest.approx(brute, rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(unit_matrices)
    def test_nonnegative_and_permutation_invariant(self, vectors):
        value = build_context(_dataset(vectors)).q_value
        assert value >= 0.0
        perm = np.random.default_rng(1).permutation(vectors.shape[0])
        assert build_context(_dataset(vectors[perm])).q_value == pytest.approx(
            value, rel=1e-9, abs=1e-12
        )


class TestISquared:
    def test_hand_value(self, fix):
        assert i_squared(build_context(fix).q_value, fix.n) == pytest.approx(0.75, abs=1e-12)

    def test_zero_q_gives_zero(self):
        assert i_squared(0.0, 5) == 0.0

    def test_clamped_at_zero_for_small_q(self):
        assert i_squared(1.0, 5) == 0.0
        assert i_squared(3.9, 5) == 0.0

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="n >= 2"):
            i_squared(4.0, 1)

    def test_rejects_negative_q(self):
        with pytest.raises(ValueError):
            i_squared(-0.5, 5)

    @given(st.floats(0.0, 1e6, allow_nan=False), st.integers(2, 1000))
    def test_range_and_monotonicity(self, q, n):
        value = i_squared(q, n)
        assert 0.0 <= value <= 1.0
        assert i_squared(q + 1.0, n) >= value

    def test_falls_as_the_sample_grows(self):
        # Q is a mean over rows, so its scale stays put while n - 1 grows:
        # one population reads I^2 0.863 at n = 200 and 0 at n = 2000. On the
        # sum scale (n Q against n - 1) both samples read about 0.9993.
        population = synthetic_dataset(20000, 8, 0.25, 0)
        readings = []
        for fraction in (0.01, 0.1):
            profile = dataclasses.replace(CANONICAL_PROFILES["uniform-10"], sample_fraction=fraction)
            sample = stratified_sample(population, profile, seed=0)
            q_value = build_context(sample).q_value
            assert 1.3e3 < q_value < 1.5e3
            assert 1.0 - (sample.n - 1) / (sample.n * q_value) == pytest.approx(0.9993, abs=1e-4)
            readings.append((sample.n, i_squared(q_value, sample.n)))
        assert readings[0][0] == 200 and readings[0][1] == pytest.approx(0.863, abs=1e-3)
        assert readings[1] == (2000, 0.0)


# Rows per block at d = 64, and a width whose one row exceeds a block.
_BLOCK_ROWS = BLOCK_BYTES // (8 * 64)
_WIDE_D = BLOCK_BYTES // 8 + 3


class TestRowBlocksAgainstWholeMatrix:
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
    def test_bit_identical(self, n, d, constant_row):
        vectors = np.random.default_rng(n + d).random((n, d))
        if constant_row is not None:
            vectors[constant_row] = 0.5
        data = _dataset(vectors)
        ctx, direct = build_context(data), build_context_direct(data)
        for field in ("mean", "weighted_mean", "weights", "within_variances"):
            assert np.array_equal(getattr(ctx, field), getattr(direct, field)), field
        assert ctx.dispersion == direct.dispersion
        assert ctx.q_value == direct.q_value
        if constant_row is not None:
            assert ctx.weights[constant_row] == 1.0 / VARIANCE_FLOOR

    def test_no_n_by_d_temporary(self):
        data = _dataset(np.random.default_rng(3).random((2000, 3072)))
        tracemalloc.start()
        try:
            build_context(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.vectors.nbytes / 8, f"peak {peak} bytes"
