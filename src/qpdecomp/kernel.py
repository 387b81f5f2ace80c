"""Gaussian kernel assembly on delay-embedded data with bistochastic
normalization against a reference set.

The points y_1 .. y_N are the rows of a :class:`series.DelayEmbedding`,
which the kernel reads nothing else of: the delay vectors of one series or
the union of several.  Given them and reference points r_1 .. r_M, every
s-th of them (r_j = y_{(j-1)s+1}, M = ceil(N/s)), the kernel matrix is the
N x M ``K_ij = exp(-|y_i - r_j|^2 / epsilon)`` (squared distances, never
square-rooted).  Degrees and the normalized matrix follow

    d_i      = (1/M) sum_j K_ij
    q_j      = (1/N) sum_i K_ij / d_i
    Kt_ij    = K_ij / (sqrt(N M) * d_i * sqrt(q_j))

This is the bistochastic kernel of Coifman & Hirn, "Bi-stochastic kernels
via asymmetric affinity functions", ACHA 2013.  With this scaling
P = Kt Kt^T (N x N, never formed) is symmetric, non-negative and exactly
row-stochastic, so its top eigenvalue is 1 with a constant eigenvector; the
downstream spectral module relies on both facts.  At stride 1 the
references are all the points, M = N and Kt is the symmetric N x N kernel.
:func:`gaussian_kernel` returns Kt to its one caller,
:func:`spectral.decompose`, which keeps the bandwidth and the histogram,
drops q, and drops Kt after the eigensolve; both take s from ``run``'s
``reference_points`` (:func:`reference_stride`).  With ``epsilon = 0`` the
bandwidth is a quantile of the squared distances of a sample of rows to
the references, :func:`sqdist_histogram`'s: every row up to
``SAMPLE_ROWS``, and past that a draw of that many rows that depends on N
alone.
"""

import numpy as np

from .errors import DataError, NumericalError
from .series import DelayEmbedding

_DEGREE_FLOOR = 1e-300
# epsilon = 0 asks for this quantile of the sample's squared distances
# (sqdist_histogram), a distance-quantile bandwidth (Coifman et al., TIP 2008)
EPSILON_QUANTILE = 0.01
# reference_points = 0 takes every s-th delay vector with s = ceil(N / 2048),
# so that at most 2048 references are kept and all N when N <= 2048
REFERENCE_CAP = 2048
# the bandwidth and the histogram take the distances of at most this many
# rows to the references, drawn by a generator of this seed past that
SAMPLE_ROWS = 4096
_SAMPLE_SEED = 0
# rows per block of the in-place passes; each block temporary is
# _BLOCK x M floats, 1 MB at M = 2048 (about one core's L2 cache) and 8 MB
# at M = 16384.  The results do not depend on it.
_BLOCK = 64


def reference_stride(n: int, reference_points: int = 0) -> int:
    """The stride s of the reference set of n delay vectors: ``ceil(n /
    reference_points)``, where ``reference_points = 0`` stands for
    ``REFERENCE_CAP``.  Every s-th vector is a reference, ``ceil(n / s)``
    of them, and any value of at least n gives stride 1, all n.  Recording
    that count and deriving the stride from it again gives the same s."""
    if reference_points < 0:
        raise DataError(f"reference_points must be >= 0, got "
                        f"{reference_points}")
    return -(-n // (reference_points or REFERENCE_CAP))


def _sqdist(pts, refs):
    """(len(pts), len(refs)) squared distances ``(sq_i + sq_j) - 2 g_ij``,
    formed in the one array of the products g and then in place, one row
    block at a time.  When refs views the memory of pts, as ``pts[::1]``
    does, numpy forms ``pts @ refs.T`` as a symmetric rank-k product, whose
    two triangles are copies."""
    sq = np.einsum("ij,ij->i", pts, pts)
    sq_ref = np.einsum("ij,ij->i", refs, refs)
    d2 = pts @ refs.T
    for a in range(0, len(d2), _BLOCK):
        blk = d2[a:a + _BLOCK]
        blk *= 2.0
        np.subtract(sq[a:a + _BLOCK, None] + sq_ref[None, :], blk, out=blk)
        np.maximum(blk, 0.0, out=blk)
    return d2


def _sample_rows(n):
    # every row up to SAMPLE_ROWS, and past that SAMPLE_ROWS drawn, ascending
    if n <= SAMPLE_ROWS:
        return slice(None)
    rng = np.random.default_rng(_SAMPLE_SEED)
    return np.sort(rng.choice(n, SAMPLE_ROWS, replace=False))


def sqdist_histogram(pts, refs, stride: int,
                     quantile: float = EPSILON_QUANTILE):
    """``np.histogram`` in 64 bins, ``(counts, edges)``, and ``np.quantile``
    at ``quantile`` of the bandwidth sample's pairs, None at a None
    ``quantile``: the squared distances of the sampled rows of ``pts`` to
    ``refs``, its every ``stride``-th row, less each sampled reference's
    distance to itself.
    That is R M - R' pairs for R rows of which R' are references; at stride
    1 a pair of two sampled rows counts from both ends.  They are formed in
    one R x M buffer, which is partitioned in place and freed on return."""
    rows = _sample_rows(len(pts))
    d2 = _sqdist(pts[rows], refs).reshape(-1)
    drawn = np.arange(len(pts))[rows]
    own = np.flatnonzero(drawn % stride == 0)
    own = own * len(refs) + drawn[own] // stride
    # the pairs among the first len(own) entries move into the own entries
    # past them, so that the pairs are the view d2[len(own):]
    front = np.arange(len(own))
    d2[own[own >= len(own)]] = d2[front[~np.isin(front, own)]]
    pairs = d2[len(own):]
    if not len(pairs):
        raise DataError("need at least two points")
    hist = np.histogram(pairs, bins=64)
    if quantile is None:
        return hist, None
    return hist, float(np.quantile(pairs, quantile, overwrite_input=True))


def gaussian_kernel(embedding: DelayEmbedding, epsilon: float = 0.0, *,
                    reference_points: int = 0):
    """The bistochastically normalized kernel of ``embedding`` against its
    every s-th point, s = ``reference_stride(N, reference_points)``.

    Returns ``(Ktilde, epsilon, q, sqdist_histogram)``: the N x M matrix
    Kt, the bandwidth it was built with (the derived one when asked for 0),
    the degree vector q (M), and the sample's ``(counts, edges)`` of
    :func:`sqdist_histogram`, the bandwidth diagnostic the CLI writes.

    Once the sample's buffer is freed, one N x M buffer takes the squared
    distances, then ``K = exp(-d2 / epsilon)`` in place, then Ktilde in
    place.  K and the degree vector d are not kept.  The distance of a
    point to itself as a reference is exactly 0.  :func:`spectral.decompose`
    checks the memory this and the eigensolve need before it calls here.

    Parameters
    ----------
    embedding : DelayEmbedding
        Embedded data; at least two points.
    epsilon : float
        Gaussian bandwidth applied to squared distances, finite; 0 takes the
        ``EPSILON_QUANTILE`` quantile of the squared distances of the
        sample's pairs.
    reference_points : int
        As :func:`reference_stride` reads it: 0 keeps at most
        ``REFERENCE_CAP`` points, any count of at least N keeps all N.
    """
    if not 0 <= epsilon < np.inf:
        raise DataError(f"epsilon must be positive and finite (or 0 to "
                        f"derive it), got {epsilon}")
    if not isinstance(embedding, DelayEmbedding):
        raise DataError(f"expected a DelayEmbedding, got "
                        f"{type(embedding).__name__}")
    pts = embedding.points
    stride = reference_stride(len(pts), reference_points)
    refs = np.ascontiguousarray(pts[::stride])
    n, m = len(pts), len(refs)
    hist, derived = sqdist_histogram(pts, refs, stride,
                                     None if epsilon else EPSILON_QUANTILE)
    epsilon = epsilon or derived
    if epsilon == 0:
        raise DataError(
            f"the {EPSILON_QUANTILE:.0%} quantile of the squared delay "
            f"distances is 0, as over {EPSILON_QUANTILE:.0%} of the "
            f"delay-vector pairs coincide; set --epsilon"
        )
    K = _sqdist(pts, refs)
    np.fill_diagonal(K[::stride], 0.0)
    K /= -epsilon
    np.exp(K, out=K)
    d = K.mean(axis=1)
    # a reference's own K is exp(-0.0) = 1 exactly, so its d is at least
    # 1/M and its q at least 1/N: only a point that is no reference can be
    # far from them all
    if d.min() < _DEGREE_FLOOR:
        worst = int(np.argmin(d))
        raise NumericalError(f"isolated point {worst}; increase epsilon")
    # at stride 1 K is symmetric, and K @ (1/d), the same sums, keeps the
    # bytes of earlier versions
    q = (K if stride == 1 else K.T).dot(1.0 / d) / n
    sqrt_q = np.sqrt(q)
    # sqrt(N M) is N exactly at stride 1
    scale = np.sqrt(float(n) * m)
    for a in range(0, n, _BLOCK):
        K[a:a + _BLOCK] /= (scale * d[a:a + _BLOCK, None]) * sqrt_q[None, :]
    return K, float(epsilon), q, hist
