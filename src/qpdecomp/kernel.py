"""Gaussian kernel assembly on delay-embedded data with bistochastic
normalization against a reference set.

Given embedded points y_1 .. y_N and reference points r_1 .. r_M, every
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
:func:`spectral.decompose`, which drops it after the eigensolve and keeps
q, the bandwidth and the histogram.  :func:`reference_stride` derives s
from N and the ``reference_points`` setting.
"""

import numpy as np

from .errors import DataError, NumericalError
from .series import DelayEmbedding

_DEGREE_FLOOR = 1e-300
# epsilon = 0 asks for this quantile of the off-diagonal squared distances, a
# distance-quantile bandwidth (Coifman et al., IEEE TIP 2008)
EPSILON_QUANTILE = 0.01
# reference_points = 0 takes every s-th delay vector with s = ceil(N / 2048),
# so that at most 2048 references are kept and all N when N <= 2048
REFERENCE_CAP = 2048
# bins of each histogram that narrows down a quantile of the pairs'
# distances, and the most of them it takes
_SELECT_BINS = 4096
_ZOOMS = 4
# rows per block of the in-place passes; each block temporary is
# _BLOCK x M floats, 1 MB at M = 2048 (about one core's L2 cache) and 8 MB
# at M = 16384.  The results do not depend on it.
_BLOCK = 64


def _row_blocks(n):
    for a in range(0, n, _BLOCK):
        yield a, min(a + _BLOCK, n)


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
    for a, b in _row_blocks(len(d2)):
        blk = d2[a:b]
        blk *= 2.0
        np.subtract(sq[a:b, None] + sq_ref[None, :], blk, out=blk)
        np.maximum(blk, 0.0, out=blk)
    return d2


def _points(embedding):
    if not isinstance(embedding, DelayEmbedding):
        raise DataError(f"expected a DelayEmbedding, got "
                        f"{type(embedding).__name__}")
    if embedding.points.shape[0] < 1:
        raise DataError("embedding is empty")
    return embedding.points


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
    pts = _points(embedding)
    d2 = _sqdist(pts, pts)
    np.fill_diagonal(d2, 0.0)
    return d2


def _multiplicity(stride):
    # the entries of d2 per pair: two at stride 1, where d2 is symmetric
    return 2 if stride == 1 else 1


def _count_pairs(d2, stride):
    count = (d2.size - d2.shape[1]) // _multiplicity(stride)
    if count < 1:
        raise DataError("need at least two points")
    return count


def _pair_range(d2):
    # the least pair is 0 when more entries are 0 than the M self entries,
    # and otherwise the least positive entry
    lo, hi, zeros = np.inf, 0.0, 0
    for a, b in _row_blocks(len(d2)):
        blk = d2[a:b]
        hi = max(hi, blk.max())
        zeros += blk.size - np.count_nonzero(blk)
        lo = min(lo, blk.min(where=blk > 0, initial=np.inf))
    return (0.0 if zeros > d2.shape[1] else lo), hi


def _pair_histogram(d2, stride, bins, lo, hi):
    # np.histogram bins each value on its own: that of all entries less
    # that of the M self zeros (in whichever bin holds 0), per pair
    counts = 0
    for a, b in _row_blocks(len(d2)):
        part, edges = np.histogram(d2[a:b], bins=bins, range=(lo, hi))
        counts = counts + part
    own = np.histogram(np.zeros(d2.shape[1]), bins=bins, range=(lo, hi))[0]
    return (counts - own) // _multiplicity(stride), edges


def sqdist_histogram(d2, bins: int = 64, stride: int = 1):
    """Histogram ``(counts, edges)`` of the squared distances of distinct
    pairs, ``np.histogram``'s of them bit for bit (at stride 1, of
    ``d2[np.triu_indices(n, 1)]``) without a copy of them.

    ``d2``, which is only read, is the symmetric N x N distance matrix of
    :func:`pairwise_sqdist` at ``stride`` 1, and otherwise the N x M
    distances of the points to every ``stride``-th of them.  Every entry
    but the M self entries, the diagonal of ``d2[::stride]`` and exactly
    0, is a pair: each pair twice at stride 1.
    """
    _count_pairs(d2, stride)
    return _pair_histogram(d2, stride, bins, *_pair_range(d2))


def gaussian_kernel(embedding: DelayEmbedding, epsilon: float = 0.0,
                    stride: int = 1):
    """The bistochastically normalized kernel of ``embedding`` against its
    every ``stride``-th point.

    Returns ``(Ktilde, epsilon, q, sqdist_histogram)``: the N x M matrix
    Kt, the bandwidth it was built with (the derived one when asked for 0),
    the degree vector q (M), and ``(counts, edges)`` of the squared
    distances of distinct pairs in 64 bins, the bandwidth diagnostic the
    CLI writes.  The pairs are those of :func:`sqdist_histogram`: of two
    points at stride 1, and otherwise of a point and a reference point
    other than itself, N M - M of them.

    Everything is built in one N x M buffer: squared distances, then
    (after the histogram, and for ``epsilon = 0`` the bandwidth, are taken)
    ``K = exp(-d2 / epsilon)`` in place, then Ktilde in place.  K and the
    degree vector d are not kept.  The distance of a point to itself as a
    reference is exactly 0.  The derived bandwidth copies the distances in
    the histogram's bins that hold it, about 1% of the pairs (twice at
    stride 1), and frees them before the ``exp``.  :func:`spectral.decompose`
    checks the memory this and the eigensolve need before it calls here.

    Parameters
    ----------
    embedding : DelayEmbedding
        Embedded data; at least two points.
    epsilon : float
        Gaussian bandwidth applied to squared distances; 0 takes the
        ``EPSILON_QUANTILE`` quantile of the squared distances of those
        pairs.
    stride : int
        The references are points 0, stride, 2 stride, ...; 1 keeps all.
    """
    if not epsilon >= 0:
        raise DataError(f"epsilon must be positive (or 0 to derive it), "
                        f"got {epsilon}")
    if stride < 1:
        raise DataError(f"stride must be >= 1, got {stride}")
    pts = _points(embedding)
    refs = np.ascontiguousarray(pts[::stride])
    n, m = len(pts), len(refs)
    K = _sqdist(pts, refs)
    np.fill_diagonal(K[::stride], 0.0)
    hist = sqdist_histogram(K, stride=stride)
    if epsilon == 0:
        epsilon = sqdist_quantile(K, EPSILON_QUANTILE, stride, hist)
        if epsilon == 0:
            raise DataError(
                f"the {EPSILON_QUANTILE:.0%} quantile of the squared delay "
                f"distances is 0, as over {EPSILON_QUANTILE:.0%} of the "
                f"delay-vector pairs coincide; set --epsilon"
            )
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
    for a, b in _row_blocks(n):
        K[a:b] /= (scale * d[a:b, None]) * sqrt_q[None, :]
    return K, float(epsilon), q, hist


def sqdist_quantile(d2, quantile: float, stride: int = 1,
                    hist=None) -> float:
    """Quantile of the squared distances of distinct pairs, as
    :func:`sqdist_histogram` takes them from ``d2`` at ``stride``.

    Equals ``np.quantile`` of those distances (its default, linear method)
    bit for bit, without a copy of them all: see
    :func:`_order_statistics`.  ``hist`` is ``sqdist_histogram(d2,
    stride=stride)`` when that is already counted.  ``d2`` is only read.
    """
    n = _count_pairs(d2, stride)
    # numpy's linear method: the order statistics k and k + 1 around the
    # virtual index (n - 1) * quantile, interpolated as numpy's _lerp does
    virtual = (n - 1) * quantile
    k = int(np.floor(virtual))
    a, b = _order_statistics(d2, stride, (k, min(k + 1, n - 1)),
                             hist or sqdist_histogram(d2, stride=stride))
    gamma = virtual - k
    diff = b - a
    return float(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)


def _in_bins(x, lo, hi, last):
    # np.histogram's bins from edge lo to edge hi: hi is in them only when
    # it is the last edge
    return (x >= lo) & ((x <= hi) if last else (x < hi))


def _order_statistics(d2, stride, ranks, hist):
    """The pairs' distances of the two ``ranks``, from 0, in the bins of
    ``hist``, the pairs' histogram, that hold them.

    While those bins hold more than M^2 entries of ``d2``, as when a far
    outlier stretches the range, a 4096-bin histogram over just them
    narrows them, at most ``_ZOOMS`` times.  Only their entries are copied
    and partitioned: each pair's, and first the M self zeros if 0 is in
    them.  That is three passes over ``d2`` without a zoom.
    """
    m, c = d2.shape[1], _multiplicity(stride)
    counts, edges = hist
    below = 0                   # pairs under lo
    for zoom in range(_ZOOMS + 1):
        cum = below + np.cumsum(counts)
        i, j = np.searchsorted(cum, [ranks[0] + 1, ranks[1] + 1])
        if i:
            below = int(cum[i - 1])
        lo, hi, last = edges[i], edges[j + 1], j + 2 == len(edges)
        if lo == hi:
            return lo, hi
        own = m * bool(_in_bins(0.0, lo, hi, last))
        size = c * int(cum[j] - below) + own
        if size <= m * m or zoom == _ZOOMS:
            break
        counts, edges = _pair_histogram(d2, stride, _SELECT_BINS, lo, hi)
    kept, at = np.empty(size), 0
    for a, b in _row_blocks(len(d2)):
        part = d2[a:b][_in_bins(d2[a:b], lo, hi, last)]
        kept[at:at + len(part)] = part
        at += len(part)
    first, second = (own + c * (r - below) for r in ranks)
    kept.partition([first, second])
    return kept[first], kept[second]
