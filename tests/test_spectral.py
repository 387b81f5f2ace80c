import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from qpdecomp import (
    DataError,
    DelayEmbedding,
    NumericalError,
    TimeSeries,
    delay_embed,
    gaussian_kernel,
)
from qpdecomp.spectral import SpectralBasis, decompose

from conftest import (nystrom_pair, pair_quantile, project, synthesize,
                      torus_series)


def embed_points(points):
    return delay_embed(TimeSeries(np.asarray(points, dtype=float), dt=1.0), 0)


def ktilde(emb, eps):
    """The normalized kernel Ktilde, which the basis does not keep."""
    return gaussian_kernel(emb, eps)[0]


class Extension(NamedTuple):
    """A stride-1 basis with its data points and the q and Gamma of its
    kernel (:func:`conftest.nystrom_pair`): what its Nystrom extension
    reads."""

    basis: SpectralBasis
    points: np.ndarray
    q: np.ndarray
    Gamma: np.ndarray


def kernel_vector_at(ext, y):
    """Exact-difference kernel values exp(-|y - y_n|^2 / epsilon)."""
    diff = ext.points - np.ravel(y)[None, :]
    return np.exp(-np.einsum("ij,ij->i", diff, diff) / ext.basis.epsilon)


def nystrom_extend(ext, y, l):
    """One extended eigenfunction (1-based l) at one point, the Nystrom
    extension whose identity at the data points acceptance criterion 3
    asserts.

    At stored data point n this reproduces ``Phi[n, l-1]``; elsewhere it is a
    kernel-weighted average, bounded by ``sqrt(N) * max|Gamma[:, l-1]/sqrt(q)|
    / sigma_l`` for every y.
    """
    basis = ext.basis
    if not (1 <= l <= basis.L):
        raise DataError(f"l={l} out of range 1..{basis.L}")
    y = np.ravel(y)
    dim = ext.points.shape[1]
    if y.shape != (dim,):
        raise DataError(f"query dimension {y.size} is not {dim}")
    # exact differences, shifted so that the nearest point weighs 1
    diff = ext.points - y[None, :]
    d2 = np.einsum("ij,ij->i", diff, diff)
    w = np.exp(-(d2 - d2.min()) / basis.epsilon)
    c = ext.Gamma[:, l - 1] / np.sqrt(ext.q)
    return float(np.sqrt(basis.n) * (w @ c) / (w.sum() * basis.sigma[l - 1]))


def extension_bounds(ext):
    """Sup-norm bound of each extended eigenfunction over all of space,
    ``sqrt(N) * max_n |Gamma[n, l] / sqrt(q_n)| / sigma_l``: the extension
    is a kernel-weighted average of ``sqrt(N) * Gamma[:, l] / sqrt(q)``."""
    c = ext.Gamma / np.sqrt(ext.q)[:, None]
    return np.sqrt(ext.basis.n) * np.abs(c).max(axis=0) / ext.basis.sigma


@pytest.fixture(scope="module")
def blob_ext(blob_embedding, blob_basis):
    return Extension(blob_basis, blob_embedding.points,
                     *nystrom_pair(blob_embedding, blob_basis))


class TestDecompose:
    def test_rank_one_duplicate_points(self):
        basis = decompose(embed_points([[2.0], [2.0]]), 1.0, 1)
        np.testing.assert_allclose(basis.lam[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(basis.Phi[:, 0], [1.0, 1.0], atol=1e-12)

    def test_union_of_two_segments(self):
        # two series of different lengths, each embedded alone, as the
        # segments of a record with an outage would be: their stacked
        # delay vectors are one embedding, with one basis row per vector
        omegas = [2 * np.pi / 37, 2 * np.pi / 23]
        a = delay_embed(torus_series(300, omegas), 4).points
        b = delay_embed(torus_series(260, omegas, theta0=np.array([2.0, 0.3])),
                        4).points
        union = DelayEmbedding(np.vstack([a, b]))
        basis = decompose(union, 0.0, 10)
        assert basis.n == union.n_points == 296 + 256

    def test_orthonormality_conventions(self, blob_basis, blob_ext):
        # Gamma rebuilt from the kernel is orthonormal when Phi holds
        # singular vectors
        n, L = blob_basis.n, blob_basis.L
        gram_phi = blob_basis.Phi.T @ blob_basis.Phi / n
        gram_gam = blob_ext.Gamma.T @ blob_ext.Gamma
        assert np.abs(gram_phi - np.eye(L)).max() <= 1e-8
        assert np.abs(gram_gam - np.eye(L)).max() <= 1e-8

    def test_svd_consistency(self, blob_embedding, blob_basis, blob_ext):
        # Ktilde gamma_l = sigma_l u_l with u_l = Phi_l / sqrt(N)
        kt = ktilde(blob_embedding, blob_basis.epsilon)
        u = blob_basis.Phi / np.sqrt(blob_basis.n)
        resid = kt @ blob_ext.Gamma - u * blob_basis.sigma[None, :]
        assert np.abs(resid).max() <= 1e-8

    def test_leading_pair_invariants(self, blob_basis):
        assert abs(blob_basis.lam[0] - 1.0) <= 1e-6
        phi1 = blob_basis.Phi[:, 0]
        assert phi1.std() / abs(phi1.mean()) <= 1e-6

    def test_ordering_and_truncation_error(self):
        pts = np.random.default_rng(0).standard_normal((200, 4))
        emb = embed_points(pts)
        eps = 0.5 * pair_quantile(emb, 0.5)
        basis = decompose(emb, eps, 50)
        assert (np.diff(basis.lam) <= 1e-15).all()
        # spectral truncation error equals the next singular value
        kt = ktilde(emb, eps)
        full_s = np.linalg.svd(kt, compute_uv=False)
        _, gamma = nystrom_pair(emb, basis)
        approx = (basis.Phi / np.sqrt(200)) * basis.sigma[None, :] @ gamma.T
        gap = np.linalg.norm(kt - approx, ord=2)
        np.testing.assert_allclose(gap, full_s[50], rtol=1e-6)

    def test_dense_svd_oracle_agreement(self):
        pts = np.random.default_rng(1).standard_normal((300, 5))
        emb = embed_points(pts)
        eps = 0.4 * pair_quantile(emb, 0.5)
        u_full, s_full, _ = np.linalg.svd(ktilde(emb, eps))
        basis = decompose(emb, eps, 30)
        rel = np.abs(basis.sigma - s_full[:30]) / s_full[:30]
        assert rel.max() <= 1e-10
        # vectors agree per column up to sign (the sum-based sign rule is
        # noise-determined for columns orthogonal to the constant)
        for l in range(30):
            a, b = np.sqrt(300) * u_full[:, l], basis.Phi[:, l]
            sign = 1.0 if a @ b >= 0 else -1.0
            assert np.abs(a - sign * b).max() <= 1e-6

    @pytest.mark.parametrize("n", [255, 256, 257, 300],
                             ids=["partial", "one_block", "one_over", "ragged"])
    def test_row_block_gram_matches_dense_svd(self, n):
        # the Gram matrix is summed from 256-row blocks of Ktilde: one
        # partial block, exactly one, one row over, and a ragged last block;
        # same gates as the dense SVD oracle test
        pts = np.random.default_rng(1).standard_normal((n, 5))
        emb = embed_points(pts)
        eps = 0.4 * pair_quantile(emb, 0.5)
        u_full, s_full, _ = np.linalg.svd(ktilde(emb, eps))
        basis = decompose(emb, eps, 30)
        rel = np.abs(basis.sigma - s_full[:30]) / s_full[:30]
        assert rel.max() <= 1e-10
        for l in range(30):
            a, b = np.sqrt(n) * u_full[:, l], basis.Phi[:, l]
            sign = 1.0 if a @ b >= 0 else -1.0
            assert np.abs(a - sign * b).max() <= 1e-6

    def test_near_floor_accuracy(self):
        # lam_L ~ 1e-12, two decades above the floor: the Gram route squares
        # the operator, so this is where its lost precision would show
        pts = np.random.default_rng(7).standard_normal((400, 2))
        emb = embed_points(pts)
        eps = 2.0 * pair_quantile(emb, 0.5)
        L = 39
        s_full = np.linalg.svd(ktilde(emb, eps), compute_uv=False)
        assert 1e-13 < s_full[L - 1] ** 2 < 1e-11
        basis = decompose(emb, eps, L)
        rel = np.abs(basis.sigma - s_full[:L]) / s_full[:L]
        assert rel.max() <= 1e-8
        gram_phi = basis.Phi.T @ basis.Phi / basis.n
        assert np.abs(gram_phi - np.eye(L)).max() <= 1e-8
        # the eigen-equation of Ktilde Ktilde^T; a Gamma rebuilt as
        # Ktilde^T Phi / sigma would divide by sigma ~ 1e-6 here
        kt = ktilde(emb, eps)
        resid = kt @ (kt.T @ basis.Phi) - basis.Phi * basis.lam[None, :]
        assert np.abs(resid).max() <= 1e-12

    def test_sign_rule_nonnegative_sums(self, blob_basis):
        # phi_1, the constant, is taken positive; every other column is
        # orthogonal to it, so its sum is rounding noise of either sign
        sums = blob_basis.Phi.sum(axis=0)
        assert sums[0] > 0 and (np.abs(sums[1:]) <= 1e-9).all()

    def test_bitwise_determinism(self):
        pts = np.random.default_rng(2).standard_normal((250, 3))
        emb = embed_points(pts)
        a = decompose(emb, 2.0, 20)
        b = decompose(emb, 2.0, 20)
        assert np.array_equal(a.lam, b.lam)
        assert np.array_equal(a.Phi, b.Phi)

    def test_lambda_floor_error(self):
        # tightly clustered points at huge bandwidth: rank collapses, and a
        # smaller bandwidth is the way out
        pts = np.random.default_rng(3).standard_normal((50, 3)) * 1e-3
        with pytest.raises(NumericalError, match="decrease epsilon or L"):
            decompose(embed_points(pts), 1e3, 10)

    def test_bad_L(self):
        emb = embed_points(np.eye(5))
        with pytest.raises(DataError):
            decompose(emb, 2.0, 0)
        with pytest.raises(DataError):
            decompose(emb, 2.0, 6)


    def test_returns_no_n_by_n_array(self):
        # Ktilde and the Gram matrix are dropped inside the call: the basis
        # holds N x L arrays and N-vectors, far below one N x N array
        import scipy.linalg  # noqa: F401  (its import would count as held)
        import scipy.linalg.blas  # noqa: F401

        n = 600
        emb = embed_points(np.random.default_rng(8).standard_normal((n, 5)))
        eps = 0.4 * pair_quantile(emb, 0.5)
        tracemalloc.start()
        try:
            basis = decompose(emb, eps, 40)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert basis.L == 40 and basis.n == n
        assert held < 0.5 * n * n * 8, f"held {held / (n * n * 8):.2f} N^2"

    @pytest.mark.parametrize("stride", [1, 3])
    def test_holds_one_n_by_l_array(self, stride):
        # Phi is the one N x L array the basis keeps: no M x L right
        # singular vectors, no degree vector and no embedding
        import scipy.linalg  # noqa: F401  (its import would count as held)
        import scipy.linalg.blas  # noqa: F401

        n, L = 600, 40
        emb = embed_points(np.random.default_rng(8).standard_normal((n, 5)))
        eps = 0.4 * pair_quantile(emb, 0.5)
        tracemalloc.start()
        try:
            basis = decompose(emb, eps, L, reference_points=-(-n // stride))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert basis.Phi.shape == (n, L)
        assert held <= 1.1 * n * L * 8, f"held {held / (n * L * 8):.2f} N L"


class TestNystromExtension:
    def test_reproduces_phi_at_data_points(self, blob_basis, blob_ext):
        pts = blob_ext.points
        for n in (0, 17, 63, 119):
            for l in (1, 2, blob_basis.L):
                got = nystrom_extend(blob_ext, pts[n], l)
                ref = blob_basis.Phi[n, l - 1]
                assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref))

    def test_constant_eigenfunction_level(self, blob_basis, blob_ext):
        rng = np.random.default_rng(4)
        pts = blob_ext.points
        level = blob_basis.Phi[:, 0].mean()
        for _ in range(5):
            # in-distribution query: jitter around a data point
            y = pts[rng.integers(len(pts))] + 0.05 * rng.standard_normal(pts.shape[1])
            got = nystrom_extend(blob_ext, y, 1)
            assert abs(got - level) <= 1e-2

    def test_midpoint_formula_oracle(self, blob_basis, blob_ext):
        # re-evaluate the defining formula directly at an off-sample point
        pts = blob_ext.points
        y = (pts[3] + pts[4]) / 2.0
        kvec = kernel_vector_at(blob_ext, y)
        deg = kvec.mean()
        n = blob_basis.n
        for l in (1, 3, 10):
            oracle = (kvec @ (blob_ext.Gamma[:, l - 1] / np.sqrt(blob_ext.q))
                      / (np.sqrt(n) * blob_basis.sigma[l - 1] * deg))
            got = nystrom_extend(blob_ext, y, l)
            np.testing.assert_allclose(got, oracle, rtol=1e-10)

    def test_far_query_stays_within_bound(self, blob_basis, blob_ext):
        bounds = extension_bounds(blob_ext)
        y = np.full(blob_ext.points.shape[1], 500.0)
        for l in (1, 5, blob_basis.L):
            val = nystrom_extend(blob_ext, y, l)
            assert np.isfinite(val)
            assert abs(val) <= bounds[l - 1] + 1e-9

    def test_bad_inputs(self, blob_basis, blob_ext):
        y = blob_ext.points[0]
        with pytest.raises(DataError):
            nystrom_extend(blob_ext, y, 0)
        with pytest.raises(DataError):
            nystrom_extend(blob_ext, y, blob_basis.L + 1)
        with pytest.raises(DataError, match="dimension"):
            nystrom_extend(blob_ext, y[:-1], 1)


class TestProjectSynthesize:
    def test_basis_element_gives_unit_vector(self, blob_basis):
        coeffs = project(blob_basis, blob_basis.Phi[:, 2])
        expected = np.zeros((blob_basis.L, 1))
        expected[2] = 1.0
        assert np.abs(coeffs - expected).max() <= 1e-8

    def test_constant_function_hits_first_coefficient(self, blob_basis):
        c = 3.7
        coeffs = project(blob_basis, np.full(blob_basis.n, c))
        assert np.abs(coeffs[1:]).max() <= 1e-8
        assert abs(coeffs[0, 0] * blob_basis.Phi[:, 0].mean() - c) <= 1e-8

    def test_completeness_at_full_truncation(self, full_blob_basis):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((full_blob_basis.n, 3))
        back = synthesize(full_blob_basis, project(full_blob_basis, f))
        assert np.abs(back - f).max() <= 1e-8

    def test_projection_is_orthogonal(self, blob_basis):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((blob_basis.n, 2))
        proj = synthesize(blob_basis, project(blob_basis, f))
        resid = f - proj
        # residual orthogonal to every basis column under the empirical product
        inner = blob_basis.Phi.T @ resid / blob_basis.n
        assert np.abs(inner).max() <= 1e-8

    def test_row_mismatch(self, blob_basis):
        with pytest.raises(DataError):
            project(blob_basis, np.ones(blob_basis.n + 1))



class TestReferenceBasis:
    """The basis against every s-th point: an M x M eigenproblem whose
    eigenfunctions keep all N rows."""

    N, STRIDE, L = 600, 3, 40
    M = len(range(0, N, STRIDE))

    @pytest.fixture(scope="class")
    def emb(self):
        return embed_points(np.random.default_rng(9).standard_normal((self.N, 5)))

    @pytest.fixture(scope="class")
    def strided(self, emb):
        eps = 0.4 * pair_quantile(emb, 0.5)
        return decompose(emb, eps, self.L, reference_points=self.M)

    def test_leading_pair(self, strided):
        assert abs(strided.lam[0] - 1.0) <= 1e-10
        phi1 = strided.Phi[:, 0]
        assert phi1.std() / abs(phi1.mean()) <= 1e-8

    def test_phi_orthonormal_over_all_rows(self, emb, strided):
        m = self.M
        q, gamma = nystrom_pair(emb, strided)
        assert strided.Phi.shape == (self.N, self.L)
        assert strided.reference_points == m
        assert gamma.shape == (m, self.L) and q.shape == (m,)
        gram = strided.Phi.T @ strided.Phi / self.N
        assert np.abs(gram - np.eye(self.L)).max() <= 1e-8
        gram = gamma.T @ gamma
        assert np.abs(gram - np.eye(self.L)).max() <= 1e-8

    def test_dense_svd_oracle(self, emb, strided):
        import scipy.linalg

        kt = gaussian_kernel(emb, strided.epsilon, reference_points=self.M)[0]
        u, s, _ = np.linalg.svd(kt, full_matrices=False)
        rel = np.abs(strided.sigma - s[:self.L]) / s[:self.L]
        assert rel.max() <= 1e-10
        angles = scipy.linalg.subspace_angles(u[:, :self.L],
                                              strided.Phi / np.sqrt(self.N))
        assert angles.max() <= 1e-8

    def test_extension_over_the_references_reproduces_phi(self, emb,
                                                            strided):
        # sqrt(M) * sum_j K_ij Gamma_jl / sqrt(q_j) / sum_j K_ij / sigma_l,
        # over the M references only, is Phi on every one of the N rows
        pts = emb.points
        refs = pts[::self.STRIDE]
        diff = pts[:, None, :] - refs[None, :, :]
        K = np.exp(-np.einsum("ijk,ijk->ij", diff, diff) / strided.epsilon)
        q, gamma = nystrom_pair(emb, strided)
        c = gamma / np.sqrt(q)[:, None]
        ext = np.sqrt(len(refs)) * (K @ c) / K.sum(axis=1)[:, None]
        ext /= strided.sigma[None, :]
        scale = np.abs(strided.Phi).max(axis=0)
        assert (np.abs(ext - strided.Phi) / scale).max() <= 1e-8

    def test_L_beyond_the_references(self):
        emb = embed_points(np.random.default_rng(3).standard_normal((50, 3)))
        with pytest.raises(DataError, match=r"L=26 out of range 1\.\.25 "
                                            r"\(25 reference points of 50\)"):
            decompose(emb, 1.0, 26, reference_points=25)

    def test_budget_is_n_m_plus_m_squared(self, monkeypatch):
        import qpdecomp.errors as errors_module

        emb = embed_points(np.random.default_rng(8).standard_normal((1500, 2)))
        monkeypatch.setattr(errors_module, "_available_bytes",
                            lambda: 1_000_000)
        # (1500 * 500 + 500^2) * 8 bytes
        with pytest.raises(DataError, match=r"need 8 MB, but only 1 MB"):
            decompose(emb, 1.0, 10, reference_points=500)
