"""Truncated eigenbasis of the normalized kernel matrix.

The basis is the top-L singular triplets of the N x M ``Ktilde`` of
:func:`kernel.gaussian_kernel` (M reference points, M = N at stride 1),
computed as the top-L eigenvectors of the M x M Gram matrix
``Ktilde^T Ktilde`` followed by a Rayleigh-Ritz step (a thin SVD of
``Ktilde`` applied to those eigenvectors).  The Gram matrix sums over all N
rows, so Phi holds all N rows and is orthonormal on them.
:func:`decompose` builds the kernel itself and drops Ktilde and the Gram
matrix before it returns, so a :class:`SpectralBasis` holds no N x M or
M x M array: besides the eigenvalues and the left singular vectors it keeps
only the kernel facts that later stages read.

Inner-product convention (declared once, carried explicitly everywhere):

* ``Phi`` columns are orthonormal under the empirical inner product
  ``<u, v> = (1/N) sum_n u_n v_n``; equivalently ``Phi = sqrt(N) * U`` for
  Euclidean-orthonormal left singular vectors U.  The leading column is then
  the constant function with value ~1.
* ``lam[l] = sigma[l]**2`` are the kernel-operator eigenvalues.
"""

from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import DataError, NumericalError, check_memory
from .series import DelayEmbedding

# Eigenvalues below this floor may not be inverted; requests that cross it
# fail loudly instead of clamping (clamping would fabricate eigenfunctions).
LAMBDA_FLOOR = 1e-14

_LAMBDA_ONE_TOL = 1e-6

# rows of Ktilde per rank update of the Gram matrix
_GRAM_ROWS = 256


@dataclass(frozen=True)
class SpectralBasis:
    """Top-L eigenvalues and left singular vectors of Ktilde in the declared
    conventions, with the kernel facts that later stages read.

    ``epsilon`` is the bandwidth the kernel was built with,
    ``sqdist_histogram`` the ``(counts, edges)`` of the squared distances of
    the bandwidth sample's pairs, as :func:`kernel.gaussian_kernel` returns
    them, and ``stride`` the step between reference points (1: every point).
    The basis serves the frequency selection alone.  Construction checks the
    conventions the later stages invert: eigenvalues non-increasing, none
    below ``LAMBDA_FLOOR``, the leading one 1 and its eigenfunction constant.
    """

    lam: np.ndarray
    Phi: np.ndarray
    epsilon: float
    sqdist_histogram: tuple
    stride: int = 1

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.ndim != 1 or len(lam) < 1:
            raise NumericalError("lam must be a non-empty vector")
        if np.any(np.diff(lam) > 0):
            raise NumericalError("eigenvalues must be non-increasing")
        if lam[-1] < LAMBDA_FLOOR:
            raise NumericalError(
                f"eigenvalue {len(lam)} is {lam[-1]:.3e}, below the "
                f"{LAMBDA_FLOOR} floor; increase epsilon or decrease L"
            )
        if abs(lam[0] - 1.0) > _LAMBDA_ONE_TOL:
            raise NumericalError(
                f"leading eigenvalue {lam[0]} departs from 1 beyond {_LAMBDA_ONE_TOL}"
            )
        phi1 = self.Phi[:, 0]
        cv = phi1.std() / abs(phi1.mean())
        if cv > _LAMBDA_ONE_TOL:
            raise NumericalError(
                f"leading eigenfunction is not constant (cv={cv:.2e})"
            )

    @property
    def L(self) -> int:
        return len(self.lam)

    @property
    def n(self) -> int:
        return self.Phi.shape[0]

    @property
    def sigma(self) -> np.ndarray:
        return np.sqrt(self.lam)

    @property
    def reference_points(self) -> int:
        """M, the kernel's reference points: every ``stride``-th row."""
        return -(-self.n // self.stride)


def decompose(embedding: DelayEmbedding, epsilon: float, L: int,
              stride: int = 1) -> SpectralBasis:
    """Top-L singular triplets of the normalized kernel of ``embedding``
    against its every ``stride``-th point.

    The N x M kernel is built by :func:`kernel.gaussian_kernel` at
    ``epsilon`` (0 derives it).  The top L eigenvectors of the M x M Gram
    matrix ``Ktilde^T Ktilde`` span the leading right singular subspace; a
    Rayleigh-Ritz step (thin SVD of ``Ktilde @ V``) then gives sigma and the
    left singular vectors U of that subspace, orthonormal to rounding
    whatever the subspace error.  The Gram matrix is built one way
    at every N and M: its upper triangle is summed in one Fortran-ordered
    M x M array by rank-256 BLAS ``syrk`` updates, one per block of 256 rows
    of ``Ktilde``, and the eigensolver overwrites that array in place.  The
    call holds at most Ktilde and the L eigenvectors V with either the Gram
    matrix or ``Ktilde @ V``, ``N M + M L + max(M^2, N L)`` float64 values
    (``2 N^2 + N L`` at stride 1), and returns none of them; the bandwidth
    sample's distances, at most N x M, are freed before Ktilde is formed.
    The result is deterministic.  Forming the Gram matrix squares the
    conditioning, so eigenvalues close to the floor carry fewer correct
    digits: on 400 random planar points the worst relative error was about
    1e-10 at ``lam[L-1]`` ~ 1e-12 and 1e-6 at ~ 2e-14.

    Parameters
    ----------
    embedding : DelayEmbedding
        Embedded data; at least two points.
    epsilon : float
        Gaussian bandwidth applied to squared distances; 0 takes the
        ``kernel.EPSILON_QUANTILE`` quantile of those of the bandwidth
        sample, as :func:`kernel.gaussian_kernel` does.
    L : int
        Truncation size, 1 <= L <= M.
    stride : int
        Step between reference points, as
        :func:`kernel.reference_stride` derives it; 1 keeps all N.

    Raises
    ------
    DataError
        When L is outside 1..M, or the ``N M + M L + max(M^2, N L)``
        float64 values exceed the memory available; both are checked
        before anything N x M is allocated.
    NumericalError
        When ``lam[L-1]`` falls below the 1e-14 floor ("increase epsilon or
        decrease L"), as :class:`SpectralBasis` checks.
    """
    n = embedding.n_points
    if stride < 1:
        raise DataError(f"stride must be >= 1, got {stride}")
    m = -(-n // stride)
    if not (1 <= L <= m):
        refs = "" if m == n else f" ({m} reference points of {n})"
        raise DataError(f"L={L} out of range 1..{m}{refs}")
    check_memory((n * m + m * L + max(m * m, n * L)) * 8,
                 f"{n} points against {m} reference points (the kernel and "
                 f"L eigenvectors with the Gram matrix or their product, "
                 f"N M + M L + max(M^2, N L) float64)")
    # imported after the checks, as only the eigensolve needs scipy: loading
    # it costs about 0.35 s, which a forecast or a refused fit need not pay
    import scipy.linalg
    from scipy.linalg.blas import dsyrk

    kt, epsilon, _, hist = kernel.gaussian_kernel(embedding, epsilon, stride)
    gram = np.zeros((m, m), order="F")
    for a in range(0, n, _GRAM_ROWS):
        # the transposed row block is a Fortran-ordered M x 256 view, so
        # dsyrk adds its outer product into gram without copying either
        dsyrk(1.0, kt[a:a + _GRAM_ROWS].T, beta=1.0, c=gram, overwrite_c=1)
    _, v = scipy.linalg.eigh(gram, lower=False, subset_by_index=[m - L, m - 1],
                             overwrite_a=True)
    del gram
    # Ktilde is dropped before the SVD, whose N x L work arrays then
    # replace it rather than add to it
    kv = kt @ v
    del kt
    u, s, _ = np.linalg.svd(kv, full_matrices=False)

    # phi_1 is the constant function, taken positive.  Every other column
    # is orthogonal to it, so its sum is rounding noise, and nothing reads
    # its sign: the RKHS-norm table takes |fft(Phi)|.
    if u[:, 0].sum() < 0:
        u[:, 0] *= -1.0
    return SpectralBasis(lam=s ** 2, Phi=np.sqrt(n) * u, epsilon=epsilon,
                         sqdist_histogram=hist, stride=stride)
