import tracemalloc

import numpy as np
import pytest

import qpdecomp.kernel as kernel_module
from qpdecomp import (
    DataError,
    TimeSeries,
    delay_embed,
    gaussian_kernel,
    pairwise_sqdist,
)
from qpdecomp.kernel import sqdist_histogram, sqdist_quantile
from qpdecomp.spectral import extension_weights


def embed_points(points):
    return delay_embed(TimeSeries(np.asarray(points, dtype=float), dt=1.0), 0)


def kernel_matrix(ks):
    """The unnormalized kernel K, which the KernelSystem does not keep."""
    return np.exp(-pairwise_sqdist(ks.embedding) / ks.epsilon)


def whole_matrix_kernel(emb, eps):
    """The kernel as built before the one-buffer rewrite: whole-matrix
    temporaries and a triu_indices histogram, kept as the bit-identity
    oracle.  Returns (d2, Ktilde, d, q, counts, edges)."""
    pts = emb.points
    n = len(pts)
    sq = np.einsum("ij,ij->i", pts, pts)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    np.maximum(d2, 0.0, out=d2)
    d2 = (d2 + d2.T) / 2.0
    np.fill_diagonal(d2, 0.0)
    K = np.exp(-d2 / eps)
    d = K.mean(axis=1)
    q = K.dot(1.0 / d) / n
    kt = K / (n * d[:, None] * np.sqrt(q)[None, :])
    counts, edges = np.histogram(d2[np.triu_indices(n, 1)], bins=64)
    return d2, kt, d, q, counts, edges


def kernel_vector_at(ks, y):
    """Exact-difference kernel values exp(-|y - y_n|^2 / epsilon): the
    unshifted oracle for ``spectral.extension_weights``."""
    diff = ks.embedding.points - np.ravel(y)[None, :]
    return np.exp(-np.einsum("ij,ij->i", diff, diff) / ks.epsilon)


def weights_at(ks, y):
    pts = ks.embedding.points
    return extension_weights(pts, np.einsum("ij,ij->i", pts, pts),
                             ks.epsilon, y)


def brute_sqdist(pts):
    n = len(pts)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = ((pts[i] - pts[j]) ** 2).sum()
    return out


class TestPairwiseSqdist:
    def test_identical_rows(self):
        d2 = pairwise_sqdist(embed_points([[1.0, 2.0], [1.0, 2.0]]))
        np.testing.assert_array_equal(d2, np.zeros((2, 2)))

    def test_three_four_five(self):
        d2 = pairwise_sqdist(embed_points([[0.0, 0.0], [3.0, 4.0]]))
        np.testing.assert_allclose(d2, [[0, 25], [25, 0]])

    def test_against_double_loop_oracle(self):
        pts = np.random.default_rng(0).standard_normal((100, 5))
        d2 = pairwise_sqdist(embed_points(pts))
        oracle = brute_sqdist(pts)
        scale = oracle.max()
        assert np.abs(d2 - oracle).max() / scale <= 1e-10

    def test_exact_symmetry_and_zero_diagonal(self):
        pts = np.random.default_rng(1).standard_normal((60, 8)) * 10
        d2 = pairwise_sqdist(embed_points(pts))
        assert np.abs(d2 - d2.T).max() == 0.0
        assert np.abs(np.diagonal(d2)).max() == 0.0


class TestGaussianKernel:
    def test_duplicate_points_degenerate(self):
        ks = gaussian_kernel(embed_points([[1.0, 1.0], [1.0, 1.0]]), 0.5)
        np.testing.assert_array_equal(kernel_matrix(ks), np.ones((2, 2)))
        np.testing.assert_array_equal(ks.d, [1.0, 1.0])
        np.testing.assert_array_equal(ks.q, [1.0, 1.0])

    def test_exp_minus_one_at_distance_epsilon(self):
        eps = 7.3
        ks = gaussian_kernel(embed_points([[0.0], [np.sqrt(eps)]]), eps)
        np.testing.assert_allclose(kernel_matrix(ks)[0, 1], np.exp(-1.0),
                                   rtol=1e-12)

    def test_kernel_against_double_loop_oracle(self):
        pts = np.random.default_rng(2).standard_normal((80, 4))
        eps = 2.0
        ks = gaussian_kernel(embed_points(pts), eps)
        oracle = np.exp(-brute_sqdist(pts) / eps)
        assert np.abs(kernel_matrix(ks) - oracle).max() <= 1e-10

    def test_case_study_bandwidth_runs(self):
        # corridor-style parameterization with epsilon = 0.1
        pts = np.random.default_rng(3).random((50, 9)) * 0.1
        ks = gaussian_kernel(embed_points(pts), 0.1)
        assert ks.epsilon == 0.1
        assert kernel_matrix(ks).min() > 0

    def test_normalization_definitions(self):
        pts = np.random.default_rng(4).standard_normal((40, 3))
        ks = gaussian_kernel(embed_points(pts), 3.0)
        n = 40
        K = kernel_matrix(ks)
        np.testing.assert_allclose(ks.d, K.mean(axis=1), rtol=1e-14)
        q_oracle = np.array([(K[i] / ks.d).mean() for i in range(n)])
        np.testing.assert_allclose(ks.q, q_oracle, rtol=1e-12)
        kt_oracle = K / (n * ks.d[:, None] * np.sqrt(ks.q)[None, :])
        np.testing.assert_allclose(ks.Ktilde, kt_oracle, rtol=1e-14)

    def test_markov_property_of_p(self):
        # P = Ktilde Ktilde^T applied to the constant vector returns it:
        # the N in the normalization cancels the 1/N of the empirical measure
        pts = np.random.default_rng(5).standard_normal((150, 4))
        ks = gaussian_kernel(embed_points(pts), 4.0)
        p_row_sums = ks.Ktilde @ (ks.Ktilde.T @ np.ones(150))
        assert np.abs(p_row_sums - 1.0).max() <= 1e-8

    def test_degree_positivity(self):
        pts = np.vstack([np.zeros((5, 2)),
                         np.random.default_rng(6).standard_normal((45, 2)) * 50])
        ks = gaussian_kernel(embed_points(pts), 0.5)
        assert ks.d.min() > 0 and ks.q.min() > 0

    def test_scaling_consistency_power_of_two(self):
        pts = np.random.default_rng(7).standard_normal((30, 6))
        eps = 1.7
        base = gaussian_kernel(embed_points(pts), eps)
        scaled = gaussian_kernel(embed_points(pts * 2.0), eps * 4.0)
        assert np.array_equal(kernel_matrix(base), kernel_matrix(scaled))
        assert np.array_equal(base.Ktilde, scaled.Ktilde)

    def test_byte_budget_refuses_before_allocating(self, monkeypatch):
        n = 1500
        emb = embed_points(np.random.default_rng(8).standard_normal((n, 2)))
        monkeypatch.setattr(kernel_module, "_available_bytes",
                            lambda: 1_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=r"36 MB.*only 1 MB"):
                gaussian_kernel(emb, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 100, f"peak {peak} bytes"

    def test_available_bytes_is_positive(self):
        avail = kernel_module._available_bytes()
        assert avail is None or avail > 0

    def test_fewer_than_two_points(self):
        with pytest.raises(DataError, match="at least two points"):
            gaussian_kernel(embed_points([[1.0, 2.0]]), 1.0)

    def test_bad_epsilon(self):
        for eps in (-1.0, np.nan):
            with pytest.raises(DataError, match="epsilon must be positive"):
                gaussian_kernel(embed_points([[0.0], [1.0]]), eps)


class TestOneBufferKernel:
    """The in-place kernel against the whole-matrix oracle, bit for bit."""

    @pytest.mark.parametrize("n, dim, seed", [
        (2, 1, 0),
        (300, 5, 1),                            # one row block
        (2 * kernel_module._BLOCK, 21, 2),      # an exact multiple
        (2 * kernel_module._BLOCK + 37, 3, 3),  # a ragged last block
        (700, 9, 4),
    ])
    def test_matches_whole_matrix_oracle(self, n, dim, seed):
        pts = np.random.default_rng(seed).standard_normal((n, dim))
        pts[n // 3] = pts[n - 1]    # a repeated point: a zero distance
        emb = embed_points(pts)
        d2, kt, d, q, counts, edges = whole_matrix_kernel(emb, 2.5)
        ks = gaussian_kernel(emb, 2.5)
        assert np.array_equal(pairwise_sqdist(emb), d2)
        assert np.array_equal(ks.Ktilde, kt)
        assert np.array_equal(ks.d, d)
        assert np.array_equal(ks.q, q)
        assert np.array_equal(ks.sqdist_histogram[0], counts)
        assert np.array_equal(ks.sqdist_histogram[1], edges)

    @pytest.mark.parametrize("n, dim, seed", [
        (2, 1, 0),
        (300, 5, 1),                            # one row block
        (2 * kernel_module._BLOCK, 21, 2),      # an exact multiple
        (2 * kernel_module._BLOCK + 37, 3, 3),  # a ragged last block
    ])
    def test_derived_epsilon_is_the_explicit_quantile(self, n, dim, seed):
        # epsilon = 0 takes the 1% quantile of the off-diagonal squared
        # distances, and then builds the kernel that quantile builds
        emb = embed_points(np.random.default_rng(seed).standard_normal((n, dim)))
        d2 = pairwise_sqdist(emb)
        eps = float(np.quantile(d2[np.triu_indices(n, 1)], 0.01))
        derived = gaussian_kernel(emb, 0)
        explicit = gaussian_kernel(emb, eps)
        assert derived.epsilon == eps == explicit.epsilon
        assert gaussian_kernel(emb).epsilon == eps
        assert np.array_equal(derived.Ktilde, explicit.Ktilde)
        assert np.array_equal(derived.d, explicit.d)
        assert np.array_equal(derived.q, explicit.q)
        for got, want in zip(derived.sqdist_histogram,
                             explicit.sqdist_histogram):
            assert np.array_equal(got, want)

    def test_equal_distances_histogram(self):
        # every off-diagonal distance equal: np.histogram widens the range
        emb = embed_points(np.eye(4))
        _, _, _, _, counts, edges = whole_matrix_kernel(emb, 1.0)
        ks = gaussian_kernel(emb, 1.0)
        assert np.array_equal(ks.sqdist_histogram[0], counts)
        assert np.array_equal(ks.sqdist_histogram[1], edges)

    def test_peak_allocation_is_one_buffer(self):
        n = 1500
        emb = embed_points(np.random.default_rng(15).standard_normal((n, 21)))
        tracemalloc.start()
        try:
            ks = gaussian_kernel(emb, 30.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ks.n == n
        assert peak <= 1.5 * n * n * 8, f"peak {peak / (n * n * 8):.2f} N^2"

    def test_peak_allocation_with_derived_epsilon(self):
        # the distances plus the quantile's copy of their upper triangle,
        # inside the 2 N^2 budget that the kernel checks
        n = 1500
        emb = embed_points(np.random.default_rng(15).standard_normal((n, 21)))
        tracemalloc.start()
        try:
            ks = gaussian_kernel(emb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ks.n == n and ks.epsilon > 0
        assert peak <= 2 * n * n * 8, f"peak {peak / (n * n * 8):.2f} N^2"


class TestKernelVectorAt:
    """Kernel values at a query point, as ``spectral.extension_weights``
    computes them: shifted so that the nearest point weighs 1."""

    def test_self_similarity(self):
        pts = np.random.default_rng(9).standard_normal((25, 3))
        ks = gaussian_kernel(embed_points(pts), 2.0)
        vec = weights_at(ks, pts[7])
        np.testing.assert_allclose(vec[7], 1.0)
        np.testing.assert_allclose(vec, kernel_matrix(ks)[7], atol=1e-12)

    def test_far_point_underflows(self):
        # the unshifted kernel underflows far away; the shifted weights stay
        # finite with the nearest point at weight 1
        pts = np.random.default_rng(10).standard_normal((10, 2))
        ks = gaussian_kernel(embed_points(pts), 1.0)
        y = np.full(2, 1e4)
        assert (kernel_vector_at(ks, y) == 0.0).all()
        vec = weights_at(ks, y)
        assert np.isfinite(vec).all() and vec.max() == 1.0

    def test_per_entry_formula_oracle(self):
        pts = np.random.default_rng(11).standard_normal((40, 4))
        eps = 1.3
        ks = gaussian_kernel(embed_points(pts), eps)
        y = np.random.default_rng(12).standard_normal(4)
        dmin = ((pts - y) ** 2).sum(axis=1).min()
        vec = weights_at(ks, y) * np.exp(-dmin / eps)
        for i in range(40):
            expected = np.exp(-((y - pts[i]) ** 2).sum() / eps)
            assert abs(vec[i] - expected) <= 1e-12 * max(1.0, expected)

    def test_dimension_mismatch(self):
        pts = np.random.default_rng(13).standard_normal((10, 3))
        ks = gaussian_kernel(embed_points(pts), 1.0)
        with pytest.raises(DataError, match="dimension"):
            weights_at(ks, np.ones(4))


def test_sqdist_histogram_counts_all_pairs():
    pts = np.random.default_rng(14).standard_normal((20, 2))
    counts, edges = sqdist_histogram(pairwise_sqdist(embed_points(pts)),
                                     bins=10)
    assert counts.sum() == 20 * 19 // 2
    assert len(edges) == 11
    counts, edges = gaussian_kernel(embed_points(pts), 1.0).sqdist_histogram
    assert counts.sum() == 20 * 19 // 2
    assert len(edges) == 65


def test_sqdist_quantile_matches_triu_oracle():
    emb = embed_points(np.random.default_rng(16).standard_normal((300, 4)))
    d2 = pairwise_sqdist(emb)
    upper = d2[np.triu_indices(300, 1)]
    for quantile in (0.0, 0.01, 0.5, 0.999, 1.0):
        assert sqdist_quantile(d2, quantile) == np.quantile(upper, quantile)
    assert np.array_equal(d2, pairwise_sqdist(emb))    # d2 is left as it was


def test_sqdist_quantile_needs_two_points():
    with pytest.raises(DataError, match="at least two points"):
        sqdist_quantile(pairwise_sqdist(embed_points([[1.0, 2.0]])), 0.5)
