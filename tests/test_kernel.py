import tracemalloc

import numpy as np
import pytest

import qpdecomp.errors as errors_module
import qpdecomp.kernel as kernel_module
import qpdecomp.spectral as spectral_module
from qpdecomp import (
    DataError,
    NumericalError,
    TimeSeries,
    delay_embed,
    gaussian_kernel,
)
from qpdecomp.kernel import SAMPLE_ROWS, sqdist_histogram

from conftest import pairwise_sqdist


# point counts that span several row blocks of the kernel passes: a whole
# number of blocks, and a whole number and 37 rows (test_block_sizes)
WHOLE_BLOCK_ROWS = 512
RAGGED_ROWS = 549


def test_block_sizes():
    block = kernel_module._BLOCK
    assert WHOLE_BLOCK_ROWS % block == 0 and WHOLE_BLOCK_ROWS > block
    assert RAGGED_ROWS % block == 37 and RAGGED_ROWS > block


def embed_points(points):
    return delay_embed(TimeSeries(np.asarray(points, dtype=float), dt=1.0), 0)


def kernel_matrix(emb, eps):
    """The unnormalized kernel K, which gaussian_kernel does not return."""
    return np.exp(-pairwise_sqdist(emb) / eps)


def whole_matrix_kernel(emb, eps):
    """The kernel as built before the one-buffer rewrite: whole-matrix
    temporaries and a histogram of the off-diagonal entries, each pair from
    both ends, kept as the bit-identity oracle.  Returns (d2, Ktilde, d, q,
    counts, edges)."""
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
    counts, edges = np.histogram(off_diagonal(d2), bins=64)
    return d2, kt, d, q, counts, edges


def off_diagonal(d2):
    return d2[~np.eye(len(d2), dtype=bool)]


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

    @pytest.mark.parametrize("n, dim, seed", [
        (60, 8, 1),
        (RAGGED_ROWS, 3, 2),    # ragged, across row blocks
        (1500, 21, 3),
        (1500, 63, 4),
    ])
    def test_exact_symmetry_and_zero_diagonal(self, n, dim, seed):
        # no symmetrizing pass: the rank-k product and the commuting sum
        # make entries (i, j) and (j, i) bit-equal, block boundaries included
        pts = np.random.default_rng(seed).standard_normal((n, dim)) * 10
        d2 = pairwise_sqdist(embed_points(pts))
        assert np.abs(d2 - d2.T).max() == 0.0
        assert np.abs(np.diagonal(d2)).max() == 0.0
        # the kernel's references at stride 1, pts[::1], view the memory of
        # pts, and numpy still forms the symmetric product
        to_refs = kernel_module._sqdist(pts, pts[::1])
        np.fill_diagonal(to_refs, 0.0)
        assert np.array_equal(to_refs, d2)


class TestGaussianKernel:
    def test_duplicate_points_degenerate(self):
        emb = embed_points([[1.0, 1.0], [1.0, 1.0]])
        _, _, q, _ = gaussian_kernel(emb, 0.5)
        K = kernel_matrix(emb, 0.5)
        np.testing.assert_array_equal(K, np.ones((2, 2)))
        np.testing.assert_array_equal(K.mean(axis=1), [1.0, 1.0])
        np.testing.assert_array_equal(q, [1.0, 1.0])

    def test_exp_minus_one_at_distance_epsilon(self):
        eps = 7.3
        emb = embed_points([[0.0], [np.sqrt(eps)]])
        assert gaussian_kernel(emb, eps)[1] == eps
        np.testing.assert_allclose(kernel_matrix(emb, eps)[0, 1],
                                   np.exp(-1.0), rtol=1e-12)

    def test_kernel_against_double_loop_oracle(self):
        pts = np.random.default_rng(2).standard_normal((80, 4))
        eps = 2.0
        oracle = np.exp(-brute_sqdist(pts) / eps)
        K = kernel_matrix(embed_points(pts), eps)
        assert np.abs(K - oracle).max() <= 1e-10

    def test_case_study_bandwidth_runs(self):
        # corridor-style parameterization with epsilon = 0.1
        emb = embed_points(np.random.default_rng(3).random((50, 9)) * 0.1)
        _, eps, _, _ = gaussian_kernel(emb, 0.1)
        assert eps == 0.1
        assert kernel_matrix(emb, eps).min() > 0

    def test_normalization_definitions(self):
        emb = embed_points(np.random.default_rng(4).standard_normal((40, 3)))
        kt, _, q, _ = gaussian_kernel(emb, 3.0)
        n = 40
        K = kernel_matrix(emb, 3.0)
        d = K.mean(axis=1)
        q_oracle = np.array([(K[i] / d).mean() for i in range(n)])
        np.testing.assert_allclose(q, q_oracle, rtol=1e-12)
        kt_oracle = K / (n * d[:, None] * np.sqrt(q)[None, :])
        np.testing.assert_allclose(kt, kt_oracle, rtol=1e-14)

    def test_markov_property_of_p(self):
        # P = Ktilde Ktilde^T applied to the constant vector returns it:
        # the N in the normalization cancels the 1/N of the empirical measure
        pts = np.random.default_rng(5).standard_normal((150, 4))
        kt = gaussian_kernel(embed_points(pts), 4.0)[0]
        p_row_sums = kt @ (kt.T @ np.ones(150))
        assert np.abs(p_row_sums - 1.0).max() <= 1e-8

    def test_degree_positivity(self):
        pts = np.vstack([np.zeros((5, 2)),
                         np.random.default_rng(6).standard_normal((45, 2)) * 50])
        emb = embed_points(pts)
        _, _, q, _ = gaussian_kernel(emb, 0.5)
        assert kernel_matrix(emb, 0.5).mean(axis=1).min() > 0
        # each reference's own K is 1, however far the others are
        assert q.min() >= 1 / len(pts)

    def test_scaling_consistency_power_of_two(self):
        pts = np.random.default_rng(7).standard_normal((30, 6))
        eps = 1.7
        base, scaled = embed_points(pts), embed_points(pts * 2.0)
        assert np.array_equal(kernel_matrix(base, eps),
                              kernel_matrix(scaled, eps * 4.0))
        assert np.array_equal(gaussian_kernel(base, eps)[0],
                              gaussian_kernel(scaled, eps * 4.0)[0])

    def test_byte_budget_counts_the_rayleigh_ritz_product(self, monkeypatch):
        # at 3000 rows, stride 4 and L = 300, Ktilde with the Gram matrix is
        # 22.5 MB and Ktilde with V and Ktilde @ V 27.0 MB: 25 MB refuses
        # the fit before the kernel is built
        emb = embed_points(np.random.default_rng(8).standard_normal((3000, 2)))
        monkeypatch.setattr(errors_module, "_available_bytes",
                            lambda: 25_000_000)
        monkeypatch.setattr(spectral_module.kernel, "gaussian_kernel",
                            lambda *args, **kwargs: pytest.fail(
                                "the kernel was built"))
        with pytest.raises(DataError, match=r"need 27 MB.*only 25 MB"):
            spectral_module.decompose(emb, 1.0, 300, reference_points=750)

    def test_byte_budget_refuses_before_allocating(self, monkeypatch):
        # spectral.decompose, which builds the kernel, checks the budget of
        # Ktilde and its Gram matrix before the kernel is called
        n = 1500
        emb = embed_points(np.random.default_rng(8).standard_normal((n, 2)))
        monkeypatch.setattr(errors_module, "_available_bytes",
                            lambda: 1_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=r"36 MB.*only 1 MB"):
                spectral_module.decompose(emb, 1.0, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 100, f"peak {peak} bytes"

    def test_available_bytes_is_positive(self):
        avail = errors_module._available_bytes()
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
        (2, 1, 0),              # one row block
        (300, 5, 1),
        (WHOLE_BLOCK_ROWS, 21, 2),  # an exact multiple
        (RAGGED_ROWS, 3, 3),    # a ragged last block
        (700, 9, 4),
    ])
    def test_matches_whole_matrix_oracle(self, n, dim, seed):
        pts = np.random.default_rng(seed).standard_normal((n, dim))
        pts[n // 3] = pts[n - 1]    # a repeated point: a zero distance
        emb = embed_points(pts)
        d2, kt, _, q, counts, edges = whole_matrix_kernel(emb, 2.5)
        got_kt, eps, got_q, (got_counts, got_edges) = gaussian_kernel(emb, 2.5)
        assert np.array_equal(pairwise_sqdist(emb), d2)
        assert eps == 2.5
        assert np.array_equal(got_kt, kt)
        assert np.array_equal(got_q, q)
        assert np.array_equal(got_counts, counts)
        assert np.array_equal(got_edges, edges)

    @pytest.mark.parametrize("n, dim, seed", [
        (2, 1, 0),              # one row block
        (300, 5, 1),
        (WHOLE_BLOCK_ROWS, 21, 2),  # an exact multiple
        (RAGGED_ROWS, 3, 3),    # a ragged last block
    ])
    def test_derived_epsilon_is_the_explicit_quantile(self, n, dim, seed):
        # epsilon = 0 takes the 1% quantile of the off-diagonal squared
        # distances, each pair from both ends, and then builds the kernel
        # that quantile builds
        emb = embed_points(np.random.default_rng(seed).standard_normal((n, dim)))
        eps = float(np.quantile(off_diagonal(pairwise_sqdist(emb)), 0.01))
        derived = gaussian_kernel(emb, 0)
        explicit = gaussian_kernel(emb, eps)
        assert derived[1] == eps == explicit[1]
        assert gaussian_kernel(emb)[1] == eps
        for part in (0, 2):     # Ktilde and q
            assert np.array_equal(derived[part], explicit[part])
        for got, want in zip(derived[3], explicit[3]):
            assert np.array_equal(got, want)

    def test_equal_distances_histogram(self):
        # every off-diagonal distance equal: np.histogram widens the range
        emb = embed_points(np.eye(4))
        _, _, _, _, counts, edges = whole_matrix_kernel(emb, 1.0)
        got_counts, got_edges = gaussian_kernel(emb, 1.0)[3]
        assert np.array_equal(got_counts, counts)
        assert np.array_equal(got_edges, edges)

    def test_peak_allocation_is_one_buffer(self):
        n = 1500
        emb = embed_points(np.random.default_rng(15).standard_normal((n, 21)))
        tracemalloc.start()
        try:
            kt = gaussian_kernel(emb, 30.0)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kt.shape == (n, n)
        assert peak <= 1.5 * n * n * 8, f"peak {peak / (n * n * 8):.2f} N^2"

    def test_peak_allocation_with_derived_epsilon(self):
        # the sample's distances, freed before the kernel's, inside the
        # 2 N^2 budget that spectral.decompose checks
        n = 1500
        emb = embed_points(np.random.default_rng(15).standard_normal((n, 21)))
        tracemalloc.start()
        try:
            kt, eps, _, _ = gaussian_kernel(emb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kt.shape == (n, n) and eps > 0
        assert peak <= 2 * n * n * 8, f"peak {peak / (n * n * 8):.2f} N^2"


def test_sqdist_histogram_counts_all_pairs():
    # at stride 1 every off-diagonal entry is a pair, each pair from both ends
    pts = np.random.default_rng(14).standard_normal((20, 2))
    counts, edges = sqdist_histogram(pts, pts, 1)[0]
    want_counts, want_edges = np.histogram(
        off_diagonal(pairwise_sqdist(embed_points(pts))), bins=64)
    assert counts.sum() == 20 * 19
    assert np.array_equal(counts, want_counts)
    assert np.array_equal(edges, want_edges)
    got_counts, got_edges = gaussian_kernel(embed_points(pts), 1.0)[3]
    assert np.array_equal(got_counts, counts)
    assert np.array_equal(got_edges, edges)


def test_sample_quantile_is_numpys_at_stride_1():
    pts = np.random.default_rng(16).standard_normal((300, 4))
    pairs = off_diagonal(pairwise_sqdist(embed_points(pts)))
    for quantile in (0.0, 0.01, 0.5, 0.999, 1.0):
        got = sqdist_histogram(pts, pts, 1, quantile)[1]
        assert got == np.quantile(pairs, quantile), quantile


def test_given_epsilon_takes_no_quantile(monkeypatch):
    # the sample's quantile is the derived bandwidth, and a given one needs
    # none; the histogram and the kernel are those of the derived one
    emb = embed_points(np.random.default_rng(17).standard_normal((300, 4)))
    derived = gaussian_kernel(emb, 0, reference_points=150)

    def no_quantile(*args, **kwargs):
        raise AssertionError("np.quantile was called")

    monkeypatch.setattr(np, "quantile", no_quantile)
    given = gaussian_kernel(emb, derived[1], reference_points=150)
    for part in (0, 1, 2):
        assert np.array_equal(given[part], derived[part])
    for got, want in zip(given[3], derived[3]):
        assert np.array_equal(got, want)
    with pytest.raises(AssertionError, match="np.quantile was called"):
        gaussian_kernel(emb, 0, reference_points=150)


def test_sqdist_histogram_needs_two_points():
    with pytest.raises(DataError, match="at least two points"):
        sqdist_histogram(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]), 1)


def reference_kernel_oracle(pts, stride, eps):
    """The reference-set kernel from its defining formulas, with exact
    differences and whole-matrix temporaries.  Returns (Ktilde, q, refs)."""
    refs = pts[::stride]
    n, m = len(pts), len(refs)
    diff = pts[:, None, :] - refs[None, :, :]
    K = np.exp(-np.einsum("ijk,ijk->ij", diff, diff) / eps)
    d = K.mean(axis=1)
    q = (K / d[:, None]).mean(axis=0)
    return K / (np.sqrt(n * m) * d[:, None] * np.sqrt(q)[None, :]), q, refs


def brute_sqdist_to(pts, refs):
    diff = pts[:, None, :] - refs[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def reference_pairs(pts, stride, rows=slice(None)):
    """The pairs of the bandwidth sample, copied out: the squared distances
    of ``pts[rows]`` to every ``stride``-th point, as the kernel forms them,
    less each row's own distance when it is a reference."""
    refs = np.ascontiguousarray(pts[::stride])
    d2 = kernel_module._sqdist(pts[rows], refs)
    drawn = np.arange(len(pts))[rows]
    own = np.flatnonzero(drawn % stride == 0)
    keep = np.ones(d2.shape, dtype=bool)
    keep[own, drawn[own] // stride] = False
    return d2[keep]


class TestReferenceSet:
    """The kernel against every s-th point: N x M, never N x N."""

    @pytest.mark.parametrize("n, setting, stride", [
        (4076, 0, 2), (2048, 0, 1), (2049, 0, 2), (16364, 0, 8),
        (4076, 4076, 1), (4076, 10**9, 1), (4076, 1019, 4), (10, 3, 4),
    ])
    def test_stride_rule(self, n, setting, stride):
        assert kernel_module.reference_stride(n, setting) == stride

    def test_recorded_count_gives_the_stride_again(self):
        # a manifest records M = ceil(N / s); reading it back asks for s
        for n in range(1, 400):
            for setting in range(0, n + 2):
                s = kernel_module.reference_stride(n, setting)
                m = len(range(0, n, s))
                assert kernel_module.reference_stride(n, m) == s

    def test_negative_count_rejected(self):
        with pytest.raises(DataError, match="reference_points"):
            kernel_module.reference_stride(10, -1)

    @pytest.mark.parametrize("n, dim, stride, seed", [
        (300, 5, 2, 1),
        (RAGGED_ROWS, 3, 3, 3),
        (WHOLE_BLOCK_ROWS, 21, 7, 2),
    ])
    def test_matches_the_defining_formulas(self, n, dim, stride, seed):
        pts = np.random.default_rng(seed).standard_normal((n, dim))
        kt, eps, q, _ = gaussian_kernel(embed_points(pts), 2.5,
                                        reference_points=-(-n // stride))
        want_kt, want_q, refs = reference_kernel_oracle(pts, stride, 2.5)
        assert kt.shape == (n, len(refs)) and eps == 2.5
        np.testing.assert_allclose(q, want_q, rtol=1e-12)
        np.testing.assert_allclose(kt, want_kt, rtol=1e-12, atol=0)

    def test_p_is_row_stochastic(self):
        pts = np.random.default_rng(5).standard_normal((RAGGED_ROWS, 4))
        kt = gaussian_kernel(embed_points(pts), 3.0,
                             reference_points=-(-RAGGED_ROWS // 4))[0]
        rows = kt @ (kt.T @ np.ones(RAGGED_ROWS))
        assert np.abs(rows - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n, stride", [(RAGGED_ROWS, 3), (300, 2)])
    def test_histogram_and_bandwidth_from_the_n_by_m_pairs(self, n, stride):
        # both diagnostics take the N M - M distances of a point and a
        # reference other than itself; those of every pair of references
        # alone would miss every lag that is not a multiple of the stride
        pts = np.random.default_rng(6).standard_normal((n, 4))
        pairs = reference_pairs(pts, stride)
        # the same pairs as the exact differences give, to rounding
        refs = pts[::stride]
        m = len(refs)
        keep = np.ones((n, m), dtype=bool)
        keep[np.arange(m) * stride, np.arange(m)] = False
        exact = brute_sqdist_to(pts, refs)[keep]
        np.testing.assert_allclose(pairs, exact, rtol=0,
                                   atol=1e-12 * exact.max())
        _, eps, _, (counts, edges) = gaussian_kernel(embed_points(pts), 0,
                                                     reference_points=m)
        assert len(pairs) == counts.sum() == n * m - m
        assert eps == np.quantile(pairs, 0.01)
        want_counts, want_edges = np.histogram(pairs, bins=64)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(edges, want_edges)

    @pytest.mark.parametrize("n, dim, stride, points", [
        (300, 5, 2, "normal"), (RAGGED_ROWS, 3, 3, "normal"),
        (WHOLE_BLOCK_ROWS, 2, 64, "normal"),
        (RAGGED_ROWS, 3, 3, "outlier"),     # every other pair in one bin
        (RAGGED_ROWS, 4, 2, "ties"),        # integer distances, many equal
    ])
    def test_quantile_and_histogram_are_numpys_of_the_pairs(self, n, dim,
                                                            stride, points):
        # up to SAMPLE_ROWS rows the sample is every row: bit for bit
        # against np.quantile and np.histogram of all N M - M pairs, zero
        # distances included
        rng = np.random.default_rng(dim)
        pts = (rng.integers(0, 3, (n, dim)).astype(float) if points == "ties"
               else rng.standard_normal((n, dim)))
        pts[n // 2] = pts[0]            # a zero distance that is a pair
        pts[n // 3] = pts[n // 5]
        if points == "outlier":
            pts[7] = 1e7
        refs = np.ascontiguousarray(pts[::stride])
        pairs = reference_pairs(pts, stride)
        for quantile in (0.0, 1e-6, 0.01, 0.37, 0.5, 0.999, 1.0):
            got = sqdist_histogram(pts, refs, stride, quantile)[1]
            assert got == np.quantile(pairs, quantile), quantile
        counts, edges = sqdist_histogram(pts, refs, stride)[0]
        want_counts, want_edges = np.histogram(pairs, bins=64)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(edges, want_edges)

    @staticmethod
    def outlier_sample_peak(stride):
        # one point 1e6 away puts every other distance into the first bin
        # of the range; returns the sample pass's allocation peak and M
        n = 3000
        pts = np.random.default_rng(3).standard_normal((n, 5))
        pts[1] = 1e6
        refs = np.ascontiguousarray(pts[::stride])
        tracemalloc.start()
        try:
            sqdist_histogram(pts, refs, stride, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, n, len(refs)

    def test_far_outlier_copies_little(self):
        # the sample's one N x M buffer, partitioned in place, and less
        # than M^2 beside it
        peak, n, m = self.outlier_sample_peak(4)
        assert peak <= (n * m + m * m) * 8, f"peak {peak / (n * m * 8):.2f} NM"

    def test_far_outlier_copies_little_at_stride_1(self):
        peak, n, m = self.outlier_sample_peak(1)
        bound = (n * m + 4 * kernel_module._BLOCK * m) * 8
        assert peak <= bound, f"peak {peak / (n * m * 8):.3f} N^2"

    @pytest.mark.parametrize("stride", [1, 3])
    def test_equal_distances_below_one_half(self, stride):
        # every pair 0.18 apart: np.histogram widens the empty range to
        # [-0.32, 0.68], whose bins hold no self zero
        pts = np.eye(70) * 0.3
        refs = np.ascontiguousarray(pts[::stride])
        pairs = reference_pairs(pts, stride)
        assert np.all(pairs == pairs[0]) and pairs[0] < 0.5
        hist, _ = sqdist_histogram(pts, refs, stride)
        want_counts, want_edges = np.histogram(pairs, bins=64)
        assert np.array_equal(hist[0], want_counts)
        assert np.array_equal(hist[1], want_edges)
        for quantile in (0.0, 0.01, 0.5, 1.0):
            got = sqdist_histogram(pts, refs, stride, quantile)[1]
            assert got == np.quantile(pairs, quantile), quantile

    def test_sample_is_every_row_up_to_sample_rows(self):
        for n in (1, 2, RAGGED_ROWS, SAMPLE_ROWS):
            rows = np.arange(n)[kernel_module._sample_rows(n)]
            assert np.array_equal(rows, np.arange(n))

    @pytest.mark.parametrize("n", [SAMPLE_ROWS + 1, SAMPLE_ROWS + 904])
    def test_rows_past_the_sample_are_a_fixed_draw(self, n):
        # past SAMPLE_ROWS rows the bandwidth is np.quantile of the pairs
        # of SAMPLE_ROWS drawn rows, and two inputs of one N draw the same
        stride = kernel_module.reference_stride(n)
        rows = kernel_module._sample_rows(n)
        assert len(np.unique(rows)) == SAMPLE_ROWS
        assert np.all(np.diff(rows) > 0) and rows[-1] < n
        assert np.array_equal(kernel_module._sample_rows(n), rows)
        assert not np.array_equal(kernel_module._sample_rows(n + 1), rows)
        for seed in (0, 1):
            pts = np.random.default_rng(seed).standard_normal((n, 2))
            refs = np.ascontiguousarray(pts[::stride])
            pairs = reference_pairs(pts, stride, rows)
            own = np.count_nonzero(rows % stride == 0)
            assert len(pairs) == SAMPLE_ROWS * len(refs) - own
            hist, eps = sqdist_histogram(pts, refs, stride, 0.01)
            assert eps == np.quantile(pairs, 0.01)
            want_counts, want_edges = np.histogram(pairs, bins=64)
            assert np.array_equal(hist[0], want_counts)
            assert np.array_equal(hist[1], want_edges)
            assert gaussian_kernel(embed_points(pts), 0,
                                   reference_points=len(refs))[1] == eps

    def test_peak_allocation_is_n_by_m(self):
        # the N x M kernel, and before it the sample's distances, freed
        # before the kernel's, inside the N M + M^2 budget
        n, stride = 3000, 4
        m = n // stride
        emb = embed_points(np.random.default_rng(15).standard_normal((n, 21)))
        tracemalloc.start()
        try:
            kt, eps, _, _ = gaussian_kernel(emb, 0, reference_points=m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kt.shape == (n, m) and eps > 0
        assert peak <= (n * m + m * m) * 8, f"peak {peak / (n * m * 8):.2f} NM"

    def test_point_far_from_every_reference_raises(self):
        # at stride 2 point 5 is no reference, and its degree d underflows
        # to 0 a thousand units from them all
        pts = np.random.default_rng(9).standard_normal((10, 2)) * 0.1
        pts[5] += 1e3
        with pytest.raises(NumericalError,
                           match="^isolated point 5; increase epsilon$"):
            gaussian_kernel(embed_points(pts), 1.0, reference_points=5)

    def test_negative_reference_points_rejected(self):
        with pytest.raises(DataError, match="reference_points"):
            gaussian_kernel(embed_points(np.eye(4)), 1.0, reference_points=-1)

    def test_one_reference_gives_the_constant(self):
        # Kt Kt^T = 1/N everywhere: the chain jumps to any point alike
        kt = gaussian_kernel(embed_points(np.eye(4)), 1.0,
                             reference_points=1)[0]
        np.testing.assert_allclose(kt, np.full((4, 1), 0.5), rtol=1e-15)
