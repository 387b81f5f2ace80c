"""Gaussian kernel assembly on delay-embedded data with bistochastic
normalization.

Given embedded points y_1 .. y_N, the kernel matrix is
``K_ij = exp(-|y_i - y_j|^2 / epsilon)`` (squared distances, never
square-rooted).  Degrees and the normalized matrix follow

    d_i      = (1/N) sum_j K_ij
    q_i      = (1/N) sum_j K_ij / d_j
    Kt_ij    = K_ij / (N * d_i * sqrt(q_j))

With this scaling P = Kt Kt^T is symmetric, non-negative and exactly
row-stochastic, so its top eigenvalue is 1 with a constant eigenvector; the
downstream spectral module relies on both facts.  :func:`gaussian_kernel`
returns Kt to its one caller, :func:`spectral.decompose`, which drops it
after the eigensolve and keeps q, the bandwidth and the histogram.
"""

import numpy as np

from .errors import DataError, NumericalError
from .series import DelayEmbedding

_DEGREE_FLOOR = 1e-300
# epsilon = 0 asks for this quantile of the off-diagonal squared distances, a
# distance-quantile bandwidth (Coifman et al., IEEE TIP 2008)
EPSILON_QUANTILE = 0.01
# rows per block of the in-place passes; each block temporary is
# _BLOCK x N floats, 2 MB at N = 4096 (about one core's L2 cache) and 8 MB
# at N = 16384.  The results do not depend on it.
_BLOCK = 64


def _row_blocks(n):
    for a in range(0, n, _BLOCK):
        yield a, min(a + _BLOCK, n)


def pairwise_sqdist(embedding: DelayEmbedding) -> np.ndarray:
    """Squared Euclidean distances between all embedded points.

    Computed with the Gram-matrix identity ``(sq_i + sq_j) - 2 g_ij``, so
    scaling all points by a power of two and epsilon by its square leaves
    the downstream kernel bit-identical.  The result is exactly symmetric:
    numpy forms ``pts @ pts.T`` as a symmetric rank-k product, whose two
    triangles are copies, and floating-point addition commutes, so entries
    (i, j) and (j, i) round alike.  The diagonal is set to exactly zero.
    The N x N Gram matrix is the only N x N allocation: it becomes the
    distances in place, one row block at a time.
    """
    if not isinstance(embedding, DelayEmbedding):
        raise DataError(f"expected a DelayEmbedding, got "
                        f"{type(embedding).__name__}")
    pts = embedding.points
    if pts.shape[0] < 1:
        raise DataError("embedding is empty")
    sq = np.einsum("ij,ij->i", pts, pts)
    d2 = pts @ pts.T
    for a, b in _row_blocks(len(d2)):
        blk = d2[a:b]
        blk *= 2.0
        np.subtract(sq[a:b, None] + sq[None, :], blk, out=blk)
        np.maximum(blk, 0.0, out=blk)
    np.fill_diagonal(d2, 0.0)
    return d2


def _upper_triangle_blocks(d2):
    # the strictly upper triangle of a symmetric matrix, per row block: the
    # triangle inside the diagonal block, then the rectangle right of it
    upper = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), 1)
    for a, b in _row_blocks(len(d2)):
        yield d2[a:b, a:b][upper[:b - a, :b - a]]
        if b < len(d2):
            yield d2[a:b, b:]


def sqdist_histogram(d2, bins: int = 64):
    """Histogram ``(counts, edges)`` of the off-diagonal squared distances.

    ``d2`` is a symmetric distance matrix as :func:`pairwise_sqdist` returns
    it.  Equals ``np.histogram(d2[np.triu_indices(n, 1)], bins)`` bit for bit
    without that copy: the range is fixed from the same min and max, and the
    counts, which are per element, are summed over row blocks.
    """
    if len(d2) < 2:
        raise DataError("need at least two points")
    lo = min(blk.min() for blk in _upper_triangle_blocks(d2) if blk.size)
    hi = max(blk.max() for blk in _upper_triangle_blocks(d2) if blk.size)
    counts = 0
    for blk in _upper_triangle_blocks(d2):
        part, edges = np.histogram(blk, bins=bins, range=(lo, hi))
        counts = counts + part
    return counts, edges


def gaussian_kernel(embedding: DelayEmbedding, epsilon: float = 0.0):
    """The bistochastically normalized kernel of ``embedding``.

    Returns ``(Ktilde, epsilon, q, sqdist_histogram)``: the N x N matrix
    Kt, the bandwidth it was built with (the derived one when asked for 0),
    the degree vector q, and ``(counts, edges)`` of the off-diagonal squared
    distances in 64 bins, the bandwidth diagnostic the CLI writes.

    Everything is built in one N x N buffer: squared distances, then (after
    the histogram, and for ``epsilon = 0`` the bandwidth, are taken)
    ``K = exp(-d2 / epsilon)`` in place, then Ktilde in place.  K and the
    degree vector d are not kept.  The derived bandwidth's 0.5 N^2 copy is
    freed before the ``exp``.  :func:`spectral.decompose` checks the memory
    this and its Gram matrix need before it calls here.

    Parameters
    ----------
    embedding : DelayEmbedding
        Embedded data; at least two points.
    epsilon : float
        Gaussian bandwidth applied to squared distances; 0 takes the
        ``EPSILON_QUANTILE`` quantile of the off-diagonal squared distances.
    """
    if not epsilon >= 0:
        raise DataError(f"epsilon must be positive (or 0 to derive it), "
                        f"got {epsilon}")
    K = pairwise_sqdist(embedding)
    n = len(K)
    hist = sqdist_histogram(K)
    if epsilon == 0:
        epsilon = sqdist_quantile(K, EPSILON_QUANTILE)
        if epsilon == 0:
            raise DataError(
                f"the {EPSILON_QUANTILE:.0%} quantile of the squared delay "
                f"distances is 0, as over {EPSILON_QUANTILE:.0%} of the "
                f"delay-vector pairs coincide; set --epsilon"
            )
    K /= -epsilon
    np.exp(K, out=K)
    if not (np.diagonal(K) == 1.0).all():
        raise NumericalError("kernel diagonal must be exactly 1")
    d = K.mean(axis=1)
    if d.min() < _DEGREE_FLOOR:
        worst = int(np.argmin(d))
        raise NumericalError(f"isolated point {worst}; increase epsilon")
    q = K.dot(1.0 / d) / n
    if q.min() < _DEGREE_FLOOR:
        worst = int(np.argmin(q))
        raise NumericalError(f"isolated point {worst}; increase epsilon")
    sqrt_q = np.sqrt(q)
    for a, b in _row_blocks(n):
        K[a:b] /= (n * d[a:b, None]) * sqrt_q[None, :]
    return K, float(epsilon), q, hist


def sqdist_quantile(d2, quantile: float) -> float:
    """Quantile of the off-diagonal squared distances.

    ``d2`` is a symmetric distance matrix as :func:`pairwise_sqdist` returns
    it.  Equals ``np.quantile(d2[np.triu_indices(n, 1)], quantile)`` bit for
    bit: one copy of the upper triangle, 0.5 N^2 floats taken row block by
    row block, which the quantile then partitions in place.  The copy's
    order differs from that of ``triu_indices``, which no quantile sees.
    """
    n = len(d2)
    if n < 2:
        raise DataError("need at least two points")
    upper = np.empty(n * (n - 1) // 2)
    pos = 0
    for blk in _upper_triangle_blocks(d2):
        upper[pos:pos + blk.size].reshape(blk.shape)[...] = blk
        pos += blk.size
    return float(np.quantile(upper, quantile, overwrite_input=True))
