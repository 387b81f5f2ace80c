"""Truncated eigenbasis of the normalized kernel matrix.

The basis is the top-L singular triplets of ``Ktilde``, computed as the top-L
eigenvectors of the Gram matrix ``Ktilde^T Ktilde`` followed by a
Rayleigh-Ritz step (a thin SVD of ``Ktilde`` applied to those eigenvectors).
:func:`decompose` builds the kernel itself and drops Ktilde and the Gram
matrix before it returns, so a :class:`SpectralBasis` holds no N x N array:
besides the triplets it keeps only the kernel facts that later stages read.

Inner-product convention (declared once, carried explicitly everywhere):

* ``Phi`` columns are orthonormal under the empirical inner product
  ``<u, v> = (1/N) sum_n u_n v_n``; equivalently ``Phi = sqrt(N) * U`` for
  Euclidean-orthonormal left singular vectors U.  The leading column is then
  the constant function with value ~1.
* ``Gamma`` columns are plain Euclidean-orthonormal right singular vectors:
  the Gram eigenvectors rotated by the Rayleigh-Ritz step.
* ``lam[l] = sigma[l]**2`` are the kernel-operator eigenvalues.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import DataError, NumericalError
from .series import DelayEmbedding

# Eigenvalues below this floor may not be inverted; requests that cross it
# fail loudly instead of clamping (clamping would fabricate eigenfunctions).
LAMBDA_FLOOR = 1e-14

_LAMBDA_ONE_TOL = 1e-6

# rows of Ktilde per rank update of the Gram matrix
_GRAM_ROWS = 256


@dataclass(frozen=True)
class SpectralBasis:
    """Top-L singular triplets of Ktilde in the declared conventions, with
    the kernel facts that later stages read.

    ``epsilon`` is the bandwidth the kernel was built with, ``q`` its degree
    vector (N), ``embedding`` the embedded training data (its delay count is
    ``embedding.q``), and ``sqdist_histogram`` the ``(counts, edges)`` of
    the off-diagonal squared distances, as :func:`kernel.gaussian_kernel`
    returns them.  Construction checks the conventions the later stages
    invert: eigenvalues non-increasing, none below ``LAMBDA_FLOOR``, the
    leading one 1 and its eigenfunction constant.
    """

    lam: np.ndarray
    Phi: np.ndarray
    Gamma: np.ndarray
    epsilon: float
    q: np.ndarray
    embedding: DelayEmbedding
    sqdist_histogram: tuple

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


def _fix_signs(u, v):
    # Each left vector gets a non-negative sum; the paired right vector flips
    # with it.  Zero sums fall back to the sign of the largest-magnitude entry.
    for l in range(u.shape[1]):
        s = u[:, l].sum()
        if s == 0.0:
            s = u[np.argmax(np.abs(u[:, l])), l]
        if s < 0.0:
            u[:, l] = -u[:, l]
            v[:, l] = -v[:, l]
    return u, v


def _available_bytes():
    """Memory the eigenbasis may take: MemAvailable, else free physical pages."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, AttributeError):
        return None


def decompose(embedding: DelayEmbedding, epsilon: float,
              L: int) -> SpectralBasis:
    """Top-L singular triplets of the normalized kernel of ``embedding``.

    The kernel is built by :func:`kernel.gaussian_kernel` at ``epsilon`` (0
    derives it).  The top L eigenvectors of the Gram matrix
    ``Ktilde^T Ktilde`` span the leading right singular subspace; a
    Rayleigh-Ritz step (thin SVD of ``Ktilde @ V``) then rotates them into
    singular vectors, so that ``Ktilde @ Gamma = U * sigma`` holds to
    rounding whatever the subspace error.  The Gram matrix is built one way
    at every N: its upper triangle is summed in one Fortran-ordered N x N
    array by rank-256 BLAS ``syrk`` updates, one per block of 256 rows of
    ``Ktilde``, and the eigensolver overwrites that array in place, so the
    call holds at most Ktilde and the Gram matrix, ``2 N^2`` float64 values,
    and returns neither.  The result is deterministic.  Forming the Gram
    matrix squares the conditioning, so eigenvalues close to the floor carry
    fewer correct digits: on 400 random planar points the worst relative
    error was about 1e-10 at ``lam[L-1]`` ~ 1e-12 and 1e-6 at ~ 2e-14.

    Parameters
    ----------
    embedding : DelayEmbedding
        Embedded data; at least two points.
    epsilon : float
        Gaussian bandwidth applied to squared distances; 0 takes the
        ``kernel.EPSILON_QUANTILE`` quantile of them.
    L : int
        Truncation size, 1 <= L <= N.

    Raises
    ------
    DataError
        When L is outside 1..N, or the ``2 N^2`` float64 values exceed the
        memory available; both are checked before anything N x N is
        allocated.
    NumericalError
        When ``lam[L-1]`` falls below the 1e-14 floor ("increase epsilon or
        decrease L"), as :class:`SpectralBasis` checks.
    """
    n = embedding.n_points
    if not (1 <= L <= n):
        raise DataError(f"L={L} out of range 1..{n}")
    need = 2 * n * n * 8
    available = _available_bytes()
    if available is not None and need > available:
        raise DataError(
            f"{n} points need {need / 1e6:.0f} MB for the kernel and its Gram "
            f"matrix (2 N x N float64), but only {available / 1e6:.0f} MB of "
            f"memory is available"
        )
    # imported after the checks, as only the eigensolve needs scipy: loading
    # it costs about 0.35 s, which a forecast or a refused fit need not pay
    import scipy.linalg
    from scipy.linalg.blas import dsyrk

    kt, epsilon, q, hist = kernel.gaussian_kernel(embedding, epsilon)
    gram = np.zeros((n, n), order="F")
    for a in range(0, n, _GRAM_ROWS):
        # the transposed row block is a Fortran-ordered N x 256 view, so
        # dsyrk adds its outer product into gram without copying either
        dsyrk(1.0, kt[a:a + _GRAM_ROWS].T, beta=1.0, c=gram, overwrite_c=1)
    _, v = scipy.linalg.eigh(gram, lower=False, subset_by_index=[n - L, n - 1],
                             overwrite_a=True)
    del gram
    u, s, wt = np.linalg.svd(kt @ v, full_matrices=False)
    v = v @ wt.T

    u, v = _fix_signs(u, v)
    return SpectralBasis(lam=s ** 2, Phi=np.sqrt(n) * u, Gamma=v,
                         epsilon=epsilon, q=q, embedding=embedding,
                         sqdist_histogram=hist)

