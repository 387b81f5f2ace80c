import numpy as np
import pytest

from qpdecomp import DataError, TimeSeries, delay_embed, gaussian_kernel
from qpdecomp.spectral import decompose


def torus_series(n, omegas, theta0=None, mix_seed=1, n_channels=2, dt=1.0):
    """Multichannel observation of a rigid torus rotation (no chaos)."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if theta0 is None:
        theta0 = np.linspace(0.4, 1.9, len(omegas))
    t = np.arange(n)[:, None] * dt
    theta = theta0[None, :] + t * omegas[None, :]
    lift = np.hstack([np.stack([np.cos(theta[:, j]), np.sin(theta[:, j])], 1)
                      for j in range(len(omegas))])
    mix = np.random.default_rng(mix_seed).standard_normal((lift.shape[1], n_channels))
    return TimeSeries(lift @ mix, dt=dt)


def direct_harmonics(A, omegas, t):
    """Oracle of g_per: the direct sum
    ``Re sum_j (2 - delta_{j,1}) A[j] exp(i omega_j t)`` at any times t (n,),
    one complex exponential per time and frequency."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    omegas = np.asarray(omegas, dtype=float)
    weights = np.where(omegas == 0.0, 1.0, 2.0)
    return ((np.exp(1j * t[:, None] * omegas[None, :]) * weights) @ A).real


def rfft_harmonics(Y, indices):
    """Oracle of a harmonic fit on DFT bins of the rows of Y (N, k): the
    masked rFFT, ``A_j = rfft(Y)[j] / N`` at the bins ``indices``, halved
    at the Nyquist bin of even N, whose single column the factor 2 of g_per
    would count twice."""
    n, indices = len(Y), np.asarray(indices)
    A = np.fft.rfft(Y, axis=0)[indices] / n
    if n % 2 == 0:
        A[indices == n // 2] /= 2.0
    return A


def lstsq_harmonics(Y, omegas, dt):
    """Oracle of a harmonic fit on any frequencies: dense ``lstsq`` of the
    rows of Y (N, k) at their offsets ``t = r*dt`` on the columns
    ``[1, cos omega t, -sin omega t]``, one column at omega = 0 and pi/dt,
    whose sine vanishes, and the coefficients mapped to ``A_j``, the cosine
    and sine coefficients over ``2 - delta_{j,1}``."""
    t = np.arange(len(Y)) * dt
    cols, slots = [], []
    for j, om in enumerate(omegas):
        if om == 0.0 or np.isclose(om * dt, np.pi, rtol=1e-12, atol=0.0):
            cols.append(np.cos(om * t))
            slots.append((j, 1.0 if om == 0.0 else 0.5))
        else:
            cols += [np.cos(om * t), -np.sin(om * t)]
            slots += [(j, 0.5), (j, 0.5j)]
    coef = np.linalg.lstsq(np.stack(cols, axis=1), Y, rcond=None)[0]
    A = np.zeros((len(omegas), Y.shape[1]), dtype=complex)
    for (j, scale), c in zip(slots, coef):
        A[j] += scale * c
    return A


def masked_irfft(Y, indices):
    """Oracle of a harmonic fit on DFT bins of the rows of Y (N, k): the
    inverse rFFT of the spectrum of Y with only the bins ``indices`` kept."""
    n = len(Y)
    mask = np.zeros(n // 2 + 1, dtype=bool)
    mask[indices] = True
    return np.fft.irfft(np.fft.rfft(Y, axis=0) * mask[:, None], n=n, axis=0)


def project(basis, Y):
    """Coefficients E (L x k) of the rows Y (N x k) on the eigenbasis under
    the empirical inner product, ``Phi^T Y / N``; rows that are not the
    basis's N are a :class:`DataError`."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.shape[0] != basis.n:
        raise DataError(f"residual has {Y.shape[0]} rows, basis has {basis.n}")
    return basis.Phi.T @ Y / basis.n


def synthesize(basis, E):
    """``Phi @ E`` on the training rows, the inverse of :func:`project` on
    span(Phi)."""
    return basis.Phi @ np.asarray(E, dtype=float).reshape(basis.L, -1)


def nystrom_pair(emb, basis):
    """The degree vector q (M) of the kernel of ``emb`` at the bandwidth and
    reference points of ``basis``, and the right singular vectors of that
    kernel that go with Phi, ``Gamma = Ktilde^T Phi / (sqrt(N) sigma)``
    (M x L), which the basis does not keep; together they give the Nystrom
    extension of Phi."""
    kt, _, q, _ = gaussian_kernel(emb, basis.epsilon,
                                  reference_points=basis.reference_points)
    return q, kt.T @ basis.Phi / (np.sqrt(basis.n) * basis.sigma)


def pairwise_sqdist(emb):
    """Oracle of the kernel's squared distances: all pairs of points of
    ``emb`` (N x N) by the Gram-matrix identity ``(sq_i + sq_j) - 2 g_ij``,
    clipped at 0, with the diagonal exactly 0.  Exactly symmetric: numpy
    forms ``pts @ pts.T`` as a symmetric rank-k product, whose two
    triangles are copies, and the sum ``sq_i + sq_j`` commutes."""
    pts = emb.points
    sq = np.einsum("ij,ij->i", pts, pts)
    d2 = pts @ pts.T
    d2 *= 2.0
    np.subtract(sq[:, None] + sq[None, :], d2, out=d2)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def pair_quantile(emb, quantile):
    """``np.quantile`` of the squared distances of the distinct pairs of
    points of ``emb``, each pair once."""
    n = emb.points.shape[0]
    return np.quantile(pairwise_sqdist(emb)[np.triu_indices(n, 1)], quantile)


def blob_series(n, dim, seed=0):
    """Unstructured point cloud wrapped as a q=0 series."""
    return TimeSeries(np.random.default_rng(seed).standard_normal((n, dim)), dt=1.0)


@pytest.fixture(scope="session")
def blob_embedding():
    """120 random points in 5 dimensions, the data of ``blob_basis``."""
    return delay_embed(blob_series(120, 5, seed=2), 0)


@pytest.fixture(scope="session")
def blob_basis(blob_embedding):
    """Well-conditioned small kernel basis on random data (L = N/2)."""
    eps = 0.3 * pair_quantile(blob_embedding, 0.5)
    return decompose(blob_embedding, eps, 60)


@pytest.fixture(scope="session")
def full_blob_basis():
    """Complete basis (L = N) on random data, small epsilon keeps it conditioned."""
    emb = delay_embed(blob_series(80, 5, seed=3), 0)
    eps = 0.1 * pair_quantile(emb, 0.5)
    return decompose(emb, eps, 80)


@pytest.fixture(scope="session")
def torus_basis():
    """Basis over a 2-torus observation whose driver frequencies sit on exact
    DFT bins (34, 55) of the 512-row eigenfunction grid."""
    s = torus_series(516, [2 * np.pi * 34 / 512, 2 * np.pi * 55 / 512],
                     mix_seed=7, n_channels=3)
    emb = delay_embed(s, 4)
    eps = 0.02 * pair_quantile(emb, 0.5)
    return decompose(emb, eps, 40)
