"""Fit the periodic component by projecting onto the selected DFT bins, fit
the chaotic residual in the eigenbasis, and run the standalone
reconstruction system.

Time convention: the periodic component is a function of physical time in
seconds, ``g_per(t) = Re sum_j (2 - delta_{j,1}) A[j] exp(i omega_j t)``.
The selected frequencies are DFT bins of the N rows being fitted, so the
least-squares fit is an orthogonal projection onto those bins: one rFFT of
the rows, the selected bins kept and rotated to the time of row 0, and the
Nyquist bin of even N halved, since the factor 2 counts a conjugate pair
and that bin is its own conjugate.  Row 0 (the zero frequency) is real; the
Nyquist row is real to rounding when t0 is a multiple of dt, as in the
pipeline.  The fitted rows, the in-sample reconstruction and the free run
all take g_per from :func:`evaluate_harmonics` on a uniform time grid.

The standalone model advances a k(q+1) shift register in embedding layout
(oldest block first): the next sample is ``g_per(t) + g_chaos(window)``
where the window is the register before the step, then the register shifts.
``g_chaos`` is the geometric-harmonics (Nystrom) extension of the fitted
eigenbasis expansion over the M reference points of the kernel (every s-th
training point, all N at stride s = 1),
``g_chaos(y) = sqrt(M) * (w(y) @ M) / sum(w(y))`` with w the Gaussian
kernel weights of y against the references and the M x k matrix
``M = (Gamma / sqrt(q) / sigma) @ E``.  A model therefore holds the
harmonics (omega, A), the training series, epsilon, the stride and M: what
the free run reads, never an N x N or N x M matrix, the eigenbasis or E.

g_chaos has one evaluator, which :func:`eval_chaotic`, the free run and
the in-sample reconstruction share.  :func:`log_weights` gives the scaled
log-weights ``z = (2 P - sq) / epsilon`` of a state y, where
``P = points @ y``: the weights are ``exp(z - max z)``, since
``-|p_m - y|^2 / epsilon = z_m - |y|^2 / epsilon``.  :func:`kernel_average`
makes one product of them with the rows ``[sqrt(M) M^T; 1]``, which gives
the numerator and the weight sum of g_chaos together.

The free run slides z over all N training points instead of recomputing
it, and reads the references' entries ``z[::s]``.  Point m is samples
m..m+q of the training series x, and the shifted window drops its oldest
block ``old`` and appends the new sample, so z slides forward in O(N k) per
step: ``z[m] <- z[m-1] + (2 (x[m+q] . y_new - x[m-1] . old) + sq[m-1] -
sq[m]) / epsilon`` for m >= 1, one GEMV of ``(-old, y_new, 1)`` whose last
row folds in the squared norms, with ``z[0]`` computed afresh.  This is the
sliding update of the STOMP matrix profile algorithm (Zhu et al., ICDM
2016).  z lives in a buffer of ``N + _BLOCK_ROWS`` values and each step
views it one place earlier, so the slid ``z[1:]`` is already where the last
``z[:-1]`` was.  A full recompute by :func:`log_weights` every
``_BLOCK_ROWS`` steps, whose reference entries come from the references
alone, as in :func:`eval_chaotic`, bounds the rounding drift whatever the
horizon, and makes those steps equal ``eval_periodic + eval_chaotic`` bit
for bit.
"""

from dataclasses import dataclass, field

import numpy as np

from ._npz import read_npz, write_npz
from .errors import DataError, NumericalError, check_memory, reading
from .freqfilter import FrequencySelection
from .series import DelayEmbedding, TimeSeries, delay_embed, same_step
from .spectral import SpectralBasis

MODEL_FORMAT = "qpdecomp-model-4"

# Rows per block when harmonics or g_chaos are evaluated at many times or
# states: a block holds a (rows x m) complex phase matrix or an (M x rows)
# weight matrix, 8 MB at m = 2048 bins or M = 4096 reference points.  Also
# the number of free-run steps between full recomputes of the slid
# log-weights.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class PeriodicFit:
    """Harmonic regression result: complex coefficients, fit, and residual."""

    A: np.ndarray
    omegas: np.ndarray
    fitted: np.ndarray
    residual: np.ndarray


@dataclass(frozen=True)
class QPModel:
    """Fitted quasiperiodic + chaotic model: what the free run reads.

    ``omegas`` (m) and ``A`` (m x k) are the harmonics of the periodic
    component.  ``embedding`` holds the training series, q and the N
    embedded points; ``sq``, their squared row norms, is derived from it.
    Every ``stride``-th point is a reference point; ``references`` and
    ``sq_ref``, their rows and squared norms, are derived too (at stride 1,
    views of the points and ``sq``).  ``M`` (one row per reference point
    x k) maps shifted kernel weights to the chaotic component; build it
    from a basis with :meth:`from_basis`; ``rows``, the C-ordered
    ``[sqrt(M) M^T; 1]`` of :func:`kernel_average`, is derived from it.
    Other shapes, a non-finite entry of ``omegas``, ``A`` or ``M``, a
    zero-frequency coefficient that is not real, a ``stride`` below 1 or an
    ``epsilon`` that is not positive and finite are a :class:`DataError`.
    """

    omegas: np.ndarray
    A: np.ndarray
    M: np.ndarray
    embedding: DelayEmbedding
    epsilon: float
    stride: int = 1
    sq: np.ndarray = field(init=False, repr=False)
    references: np.ndarray = field(init=False, repr=False)
    sq_ref: np.ndarray = field(init=False, repr=False)
    rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        omegas, n, k, s = self.omegas, self.n, self.k, self.stride
        if omegas.ndim != 1 or not np.isfinite(omegas).all():
            raise DataError("model frequencies must be a finite vector")
        if not s >= 1:
            raise DataError(f"model stride {s} is not a positive integer")
        m = -(-n // s)
        if self.A.shape != (len(omegas), k) or self.M.shape != (m, k):
            raise DataError(f"model A {self.A.shape} and M {self.M.shape} do "
                            f"not match {len(omegas)} frequencies, {m} "
                            f"reference points and {k} channels")
        for name in ("A", "M"):
            if not np.isfinite(getattr(self, name)).all():
                raise DataError(f"model {name} has NaN or infinite entries")
        if not 0 < self.epsilon < np.inf:
            raise DataError(f"model epsilon {self.epsilon} is not positive "
                            f"and finite")
        if omegas.size and omegas[0] == 0.0 and abs(self.A[0].imag).max() > 1e-12:
            raise DataError("model zero-frequency coefficient is not real")
        pts = self.embedding.points
        sq = np.einsum("ij,ij->i", pts, pts)
        object.__setattr__(self, "sq", sq)
        object.__setattr__(self, "references", np.ascontiguousarray(pts[::s]))
        object.__setattr__(self, "sq_ref", np.ascontiguousarray(sq[::s]))
        rows = np.empty((k + 1, m))
        rows[:k] = np.sqrt(m) * self.M.T
        rows[k] = 1.0
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_basis(cls, basis: SpectralBasis, omegas, A, E) -> "QPModel":
        """Model with harmonics (omegas, A) and chaotic coefficients E on
        ``basis``; neither E nor the basis is kept."""
        c = basis.Gamma / np.sqrt(basis.q)[:, None]
        return cls(omegas=np.asarray(omegas, dtype=float), A=A,
                   M=(c / basis.sigma[None, :]) @ E,
                   embedding=basis.embedding, epsilon=basis.epsilon,
                   stride=basis.stride)

    @property
    def q(self) -> int:
        return self.embedding.q

    @property
    def dt(self) -> float:
        return self.embedding.source.dt

    @property
    def n(self) -> int:
        """Number of training points (embedded rows)."""
        return self.embedding.n_points

    @property
    def m(self) -> int:
        """Number of reference points, the rows of ``M``."""
        return self.M.shape[0]

    @property
    def k(self) -> int:
        return self.embedding.source.k

    @property
    def state_dim(self) -> int:
        return self.k * (self.q + 1)


def fit_periodic(Y, selection: FrequencySelection, dt: float,
                 t0: float = 0.0) -> PeriodicFit:
    """Least-squares harmonic fit of Y on the selected DFT bins.

    The selected frequencies are bins ``omega_j = 2*pi*j / (N*dt)`` of the
    N-row grid the fit uses, so the cos/sin columns are orthogonal and the
    least-squares fit is the orthogonal projection onto those bins:
    ``A_j = rfft(Y)[j] / N * exp(-i omega_j t0)``, halved at the Nyquist bin
    of even N.  The fitted rows are these harmonics evaluated at the row
    times by :func:`evaluate_harmonics`, and the residual is Y less them.

    Parameters
    ----------
    Y : ndarray, shape (N, k)
        Data rows, row r at time ``t0 + r*dt``.
    selection : FrequencySelection
        Bins of this N-row grid, as :func:`freqfilter.select` returns them
        for a basis on the same rows.
    dt : float
        Sample step in seconds.
    t0 : float
        Time of row 0 in seconds (the pipeline anchors embedded row m at
        source sample m + q, so it passes ``q * dt``).

    Raises
    ------
    DataError
        A selected bin lies outside 0..N//2 or its frequency is not
        ``2*pi*j / (N*dt)``, naming the bin.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    n = Y.shape[0]
    idx = np.asarray(selection.indices)
    omegas = np.asarray(selection.omegas, dtype=float)
    on_grid = (idx >= 0) & (idx <= n // 2)
    on_grid &= np.isclose(omegas, 2.0 * np.pi * idx / (n * dt), rtol=1e-9,
                          atol=0.0)
    if not on_grid.all():
        bad = int(np.argmin(on_grid))
        raise DataError(
            f"selected bin {idx[bad]} at {omegas[bad]:.6g} rad/s is not a DFT "
            f"bin of the {n}-row fit grid at dt={dt} (bins 0..{n // 2} at "
            f"2*pi*j/(N*dt)); select frequencies from a basis on these rows"
        )
    F = np.fft.rfft(Y, axis=0)
    A = F[idx] / n * np.exp(-1j * omegas * t0)[:, None]
    if n % 2 == 0:
        A[idx == n // 2] /= 2.0
    fitted = evaluate_harmonics(A, omegas, t0, dt, n)
    return PeriodicFit(A=A, omegas=omegas.copy(), fitted=fitted,
                       residual=Y - fitted)


def fit_chaotic(Y_non, basis: SpectralBasis) -> np.ndarray:
    """Coefficients E (L x k) of the residual rows Y_non (N x k) on the
    eigenbasis under the empirical inner product: ``Phi^T Y_non / N``."""
    Y = np.asarray(Y_non, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.shape[0] != basis.n:
        raise DataError(f"residual has {Y.shape[0]} rows, basis has {basis.n}")
    return basis.Phi.T @ Y / basis.n


def evaluate_harmonics(A, omegas, t0, dt, n):
    """Re sum_j (2 - delta_{j,1}) A[j] exp(i omega_j t) at the n times
    ``t = t0 + r*dt``, (n, k): each block of ``_BLOCK_ROWS`` rows multiplies
    one table of step phases ``exp(i omega_j s dt)``, s < ``_BLOCK_ROWS``, by
    the coefficients rotated to its own start, so rounding does not grow
    with n."""
    omegas = np.asarray(omegas, dtype=float)
    weighted = np.where(omegas == 0.0, 1.0, 2.0)[:, None] * A
    steps = np.exp(1j * np.outer(np.arange(min(n, _BLOCK_ROWS)) * dt, omegas))
    out = np.empty((n, A.shape[1]))
    for i in range(0, n, _BLOCK_ROWS):
        anchor = np.exp(1j * omegas * (t0 + i * dt))
        rows = steps[:n - i] @ (anchor[:, None] * weighted)
        out[i:i + _BLOCK_ROWS] = rows.real
    return out


def eval_periodic(model: QPModel, t0: float, n: int) -> np.ndarray:
    """Periodic component at the n times ``t0 + r*dt`` seconds, (n, k)."""
    return evaluate_harmonics(model.A, model.omegas, t0, model.dt, n)


def log_weights(points, sq, epsilon, y, out=None) -> np.ndarray:
    """Scaled log kernel weights ``z = (2 points @ y - sq) / epsilon``, into
    ``out`` when given: (N,) for one state y (dim,), (N, B) for a block
    (B, dim).  ``sq`` holds the squared row norms of the (N, dim) points.
    A query of another dimension is a :class:`DataError`."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != points.shape[1]:
        raise DataError(
            f"query dimension {y.shape[-1]} does not match embedding dimension "
            f"{points.shape[1]}"
        )
    z = np.matmul(points, y.T, out=out)
    z *= 2.0
    np.subtract(z.T, sq, out=z.T)
    z /= epsilon
    return z


def kernel_average(rows, z, w) -> np.ndarray:
    """``(rows[:-1] @ w) / (rows[-1] @ w)`` for the weights ``exp(z - max z)``
    of the log-weights z, (N,) or (N, B), which go into the buffer w of z's
    shape (z itself may be it).  Returns (k,) or (k, B)."""
    np.subtract(z, z.max(axis=0), out=w)
    np.exp(w, out=w)
    num = rows @ w
    return num[:-1] / num[-1]


def eval_chaotic(model: QPModel, y) -> np.ndarray:
    """Chaotic component at one delay state (dim,) or at each of a block of
    states (B, dim), ``_BLOCK_ROWS`` at a time, in embedding layout, from
    the kernel weights against the M reference points.  At the training
    points it is ``Phi @ E`` of the fitted basis, to rounding."""
    y = np.asarray(y, dtype=float)
    refs, sq, eps = model.references, model.sq_ref, model.epsilon
    if y.ndim == 1:
        z = log_weights(refs, sq, eps, y)
        return kernel_average(model.rows, z, z)
    out = np.empty((len(y), model.k))
    for i in range(0, len(y), _BLOCK_ROWS):
        z = log_weights(refs, sq, eps, y[i:i + _BLOCK_ROWS])
        out[i:i + _BLOCK_ROWS] = kernel_average(model.rows, z, z).T
    return out


def periodic_sup_bound(model: QPModel) -> float:
    """sup_t |g_per(t)|_2 <= sum_j (2 - delta_{j,1}) |A[j, :]|_2 (triangle inequality)."""
    weights = np.where(model.omegas == 0.0, 1.0, 2.0)
    return float((weights * np.linalg.norm(model.A, axis=1)).sum())


def chaotic_sup_bound(model: QPModel) -> float:
    """sup_y |g_chaos(y)|_2 <= sqrt(M) * max_j |M[j, :]|_2: g_chaos is a
    kernel-weighted average of the rows of sqrt(M) * M."""
    return float(np.sqrt(model.m) * np.linalg.norm(model.M, axis=1).max())


def state_before(series: TimeSeries, index: int, q: int) -> np.ndarray:
    """Delay state (embedding layout) of the q+1 samples ending at index-1.

    This is the initial condition for generating sample ``index`` onward.
    """
    if index < q + 1:
        raise DataError(f"prediction start {index} must be >= {q + 1} so a "
                        f"delay window exists")
    if index > series.n:
        raise DataError(f"prediction start {index} is beyond series length "
                        f"{series.n}")
    return series.values[index - (q + 1):index].ravel().copy()


def reconstruct(model: QPModel, init, n_steps: int,
                t_start: float) -> TimeSeries:
    """Free-run the standalone model.

    Starting from ``init`` (the k(q+1) delay window preceding the first
    generated sample, embedding layout, oldest block first), generates
    samples at times ``t_start + n*dt`` for n = 0..n_steps-1: each new sample
    is ``g_per(time) + g_chaos(previous window)``, after which the window
    shifts by one sample.  The scaled log-weights of the window against all
    N training points slide forward with it, O(N k) per step, and g_chaos
    reads those of the reference points.  :func:`log_weights` recomputes
    them in full every ``_BLOCK_ROWS`` (256) steps, so they agree with a
    full recompute at every step to rounding, and such a step equals
    ``eval_periodic + eval_chaotic`` bit for bit (see the module
    docstring).  Deterministic: identical model and init give
    bit-identical trajectories.

    g_chaos is a kernel-weighted average of the rows of ``sqrt(M) * M``, so
    the run is bounded by construction; a non-finite sample (from non-finite
    coefficients) raises :class:`NumericalError`.  A run whose n_steps x k
    samples exceed the memory available is a :class:`DataError`, raised
    before they are allocated.
    """
    if n_steps < 1:
        raise DataError(f"n_steps must be >= 1, got {n_steps}")
    state = np.asarray(init, dtype=float).ravel().copy()
    if state.shape[0] != model.state_dim:
        raise DataError(
            f"init has dimension {state.shape[0]}, model state is "
            f"{model.state_dim}"
        )
    k, n, eps, sq, s = model.k, model.n, model.epsilon, model.sq, model.stride
    check_memory(n_steps * k * 8, f"{n_steps} steps of {k} channels")
    source = model.embedding.source
    points, refs = model.embedding.points, model.references
    # column m-1 holds rows m-1 and m+q of the training series, times
    # 2/eps, and (sq[m-1] - sq[m]) / eps, so that (-old, y_new, 1) @ slide
    # carries z[m-1] of one step to z[m] of the next, m = 1..N-1.  It is
    # filled in C order, as model.rows is, because a GEMV over long
    # contiguous rows is the fast one (np.vstack of the transposes gives F)
    x = source.values * (2.0 / eps)
    slide = np.empty((2 * k + 1, n - 1))
    slide[:k] = x[:n - 1].T
    slide[k:2 * k] = x[model.q + 1:].T
    slide[2 * k] = (sq[:-1] - sq[1:]) / eps
    # step j of a block views z at buf[R-j:], so the slid z[1:] of the next
    # step is the memory of this step's z[:-1] and nothing is shifted
    buf = np.empty(n + _BLOCK_ROWS)
    w = np.empty(model.m)
    shift = np.empty(2 * k + 1)
    shift[2 * k] = 1.0
    out = eval_periodic(model, t_start, n_steps)
    for i in range(n_steps):
        j = i % _BLOCK_ROWS
        z = buf[_BLOCK_ROWS - j:_BLOCK_ROWS - j + n]
        if j == 0:
            log_weights(points, sq, eps, state, out=z)
            z[::s] = log_weights(refs, model.sq_ref, eps, state)
        else:
            z[1:] += shift @ slide
            z[0] = (2.0 * (points[0] @ state) - sq[0]) / eps
        y_new = out[i] + kernel_average(model.rows, z[::s], w)
        if not np.isfinite(y_new).all():
            raise NumericalError(f"reconstruction diverged at step {i}")
        out[i] = y_new
        np.negative(state[:k], out=shift[:k])
        shift[k:2 * k] = y_new
        state = np.concatenate([state[k:], y_new])
    return TimeSeries(out, dt=model.dt, t0=float(t_start),
                      channel_names=source.channel_names)


def relative_error(truth: TimeSeries, estimate: TimeSeries) -> np.ndarray:
    """Entry-wise |truth - estimate| / max_n |truth| per channel."""
    if truth.values.shape != estimate.values.shape:
        raise DataError(
            f"shape mismatch: {truth.values.shape} vs {estimate.values.shape}"
        )
    if not same_step(truth, estimate):
        raise DataError(f"dt mismatch: {truth.dt} vs {estimate.dt}")
    denom = np.abs(truth.values).max(axis=0)
    zero = np.where(denom == 0)[0]
    if len(zero):
        names = [truth.channel_names[i] for i in zero]
        raise DataError(f"all-zero truth channels {names}: error is undefined")
    return np.abs(truth.values - estimate.values) / denom[None, :]


def moving_average(x, window: int) -> np.ndarray:
    """Trailing mean over min(window, n+1) samples; the warm-up uses the prefix."""
    if window < 1:
        raise DataError(f"window must be >= 1, got {window}")
    x = np.asarray(x, dtype=float)
    if window == 1:
        return x.copy()
    csum = np.cumsum(x)
    out = np.empty_like(x)
    w = min(window, len(x))
    out[:w] = csum[:w] / np.arange(1, w + 1)
    if len(x) > w:
        out[w:] = (csum[w:] - csum[:-w]) / w
    return out


# ---------------------------------------------------------------------------
# model serialization: one self-describing binary file (deterministic npz)

def training_data_hash(series: TimeSeries) -> str:
    import hashlib
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(series.values).tobytes())
    h.update(np.float64(series.dt).tobytes())
    return h.hexdigest()


def save_model(model: QPModel, path):
    """Serialize the model as a ``qpdecomp-model-4`` file.

    Stores the training window with a content hash of it, q, epsilon, the
    reference stride, the harmonics (omegas, A) and the chaos matrix M (one
    row per reference point): everything the free run and the sup-norm
    bounds read, and no N x N or N x L matrix.
    """
    src = model.embedding.source
    write_npz(path, {
        "format": np.array([MODEL_FORMAT]),
        "train_values": src.values,
        "train_dt": np.float64(src.dt),
        "train_t0": np.float64(src.t0),
        "channel_names": np.array(list(src.channel_names)),
        "train_hash": np.array([training_data_hash(src)]),
        "q": np.int64(model.q),
        "epsilon": np.float64(model.epsilon),
        "stride": np.int64(model.stride),
        "omegas": model.omegas,
        "A": model.A,
        "M": model.M,
    })


# the dtype kind that save_model writes each array with, and the shape of
# each one-entry array, read as a scalar (None: load_model, TimeSeries or
# QPModel checks the shape)
_MODEL_ARRAYS = {"format": ("U", (1,)), "train_values": ("f", None),
                 "train_dt": ("f", ()), "train_t0": ("f", ()),
                 "channel_names": ("U", None), "train_hash": ("U", (1,)),
                 "q": ("i", ()), "epsilon": ("f", ()), "stride": ("i", ()),
                 "omegas": ("f", None),
                 "A": ("c", None), "M": ("f", None)}
_KINDS = {"U": "a string", "f": "a float", "i": "an integer", "c": "a complex"}


def load_model(path) -> QPModel:
    """Read a model saved by :func:`save_model`.

    Re-embeds the stored training series (checked against its hash) and
    allocates nothing larger than the N x k(q+1) embedded points and the
    copy of the reference points among them.

    Raises
    ------
    DataError
        The file is missing or unreadable, is not a ``qpdecomp-model-4``
        file (an older one must be rewritten with ``qpdecomp decompose``),
        lacks one of its arrays or holds one of another dtype kind or shape
        than :func:`save_model` writes, holds other than one channel name
        per channel, fails a check of :class:`TimeSeries` or
        :class:`QPModel`, or its training data do not match the stored hash.
        Every message names the path.
    """
    def read(name):
        kind, shape = _MODEL_ARRAYS[name]
        if name not in data:
            raise DataError(f"model array {name!r} is missing")
        arr = data[name]
        if arr.dtype.kind != kind or shape not in (None, arr.shape):
            want = "array" if shape is None else f"of shape {shape}"
            raise DataError(f"model array {name!r} is {arr.dtype} of shape "
                            f"{arr.shape}, not {_KINDS[kind]} {want}")
        return arr if shape is None else arr.item()

    with reading(path):
        data = read_npz(path)
        fmt = read("format")
        if fmt != MODEL_FORMAT:
            raise DataError(
                f"model format {fmt!r} is not readable; re-run `qpdecomp "
                f"decompose` to write a {MODEL_FORMAT!r} file"
            )
        names, values = read("channel_names"), read("train_values")
        if names.shape != values.shape[1:]:
            raise DataError(f"model array 'channel_names' has shape "
                            f"{names.shape}, not one name per channel of "
                            f"'train_values' {values.shape}")
        src = TimeSeries(values, dt=read("train_dt"), t0=read("train_t0"),
                         channel_names=tuple(str(c) for c in names))
        if training_data_hash(src) != read("train_hash"):
            raise DataError("training data does not match its stored hash")
        return QPModel(omegas=read("omegas"), A=read("A"), M=read("M"),
                       embedding=delay_embed(src, read("q")),
                       epsilon=read("epsilon"), stride=read("stride"))
