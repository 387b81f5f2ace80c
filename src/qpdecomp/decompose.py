"""Fit the periodic component by projecting onto the selected DFT bins, fit
the driven dynamics as a kernel average of residual successors, and run the
standalone reconstruction system.

Time convention: every time is on the input's own clock, in seconds, and
the periodic component is ``g_per(t) = Re sum_j (2 - delta_{j,1}) A[j]
exp(i omega_j (t - t_fit))``, where t_fit is the time of the first fitted
row, the model's ``residual.t0``.  The selected frequencies are DFT bins
of the N rows being fitted, so the least-squares fit is an orthogonal
projection onto those bins: one rFFT of the rows, the selected bins kept,
and the Nyquist bin of even N halved, since the factor 2 counts a
conjugate pair and that bin is its own conjugate.  Rows 0 (the zero
frequency) and Nyquist are real.  The fitted rows, the in-sample
reconstruction and the free run all take g_per from
:func:`evaluate_harmonics` on a uniform time grid.

The driven dynamics live in the residual r = y - g_per of the fit rows.  A
window is ``CHAOS_DELAYS + 1`` consecutive residual samples (embedding
layout, oldest first), and the map is the analog forecast of Zhao &
Giannakis (Nonlinearity 2016): after a window y the next residual sample is
``g_chaos(y) = sum_m w_m r_{m+1} / sum_m w_m``, the kernel average of the
successors r_{m+1} of the kept windows, every ``stride``-th one, with w the
Gaussian weights of y against them at the bandwidth that
:func:`fit_chaotic` takes by held-out one-step error.  g_chaos is a convex
combination of the successors, so the largest of them bounds it.

g_chaos has one evaluator, :func:`eval_chaotic`, which the free run and the
in-sample reconstruction share: :func:`log_weights` gives the scaled
log-weights ``z = (2 P - sq) / epsilon`` of a state y, ``P = points @ y``,
whose weights are ``exp(z - max z)``, since
``-|p_m - y|^2 / epsilon = z_m - |y|^2 / epsilon``, and
:func:`kernel_average` takes the numerator and the weight sum together, in
one product with the rows ``[successors^T; 1]``.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from ._npz import read_npz, write_npz
from .errors import DataError, NumericalError, check_memory, reading
from .freqfilter import FrequencySelection
from .series import TimeSeries, delay_embed, same_step

MODEL_FORMAT = "qpdecomp-model-6"

# Rows per block when harmonics or g_chaos are evaluated at many times or
# states: a block holds a (rows x m) complex phase matrix or an (M x rows)
# weight matrix, 8 MB at m = 2048 bins or M = 4096 kept windows.
_BLOCK_ROWS = 256

# A residual window holds CHAOS_DELAYS + 1 samples.
CHAOS_DELAYS = 2
# The map's bandwidth is the quantile of the windows' squared distances at
# one of these levels: the one with the lowest one-step error over the last
# HELD_OUT share of the training residual (see fit_chaotic).
EPSILON_LADDER = (1e-2, 1e-3, 1e-4)
HELD_OUT = 0.15
# Shifted log-weights below this floor weigh as if at it: exp of it is a
# normal float, some 1e-304 against the nearest window's weight 1, so no
# average moves, and numpy's exp is slow on results that underflow.
_LOG_WEIGHT_FLOOR = -700.0


@dataclass(frozen=True)
class PeriodicFit:
    """Harmonic regression result: complex coefficients, fit, and residual."""

    A: np.ndarray
    omegas: np.ndarray
    fitted: np.ndarray
    residual: np.ndarray


@dataclass(frozen=True)
class QPModel:
    """Fitted quasiperiodic + driven model: what the free run reads.

    ``omegas`` (m) and ``A`` (m x k) are the harmonics of the periodic
    component, and ``residual`` is the training series less them, with its
    step, its channel names and its own clock, whose t0 is A's phase
    reference.  Every ``stride``-th window of ``CHAOS_DELAYS + 1`` residual
    samples that has a successor is kept: ``windows`` (one row per kept
    window, embedding layout), ``sq``, their squared norms, and ``rows``,
    the C-ordered ``[successors^T; 1]`` of :func:`kernel_average`, are
    derived.  ``epsilon`` is the map's bandwidth.  Other shapes, a
    non-finite entry of ``omegas`` or ``A``, a zero-frequency coefficient
    that is not real, a residual too short for one window and its
    successor, a ``stride`` below 1 or an ``epsilon`` that is not positive
    and finite are a :class:`DataError`.
    """

    omegas: np.ndarray
    A: np.ndarray
    residual: TimeSeries
    epsilon: float
    stride: int = 1
    windows: np.ndarray = field(init=False, repr=False)
    sq: np.ndarray = field(init=False, repr=False)
    rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        omegas, n, k, s = self.omegas, self.n, self.k, self.stride
        if omegas.ndim != 1 or not np.isfinite(omegas).all():
            raise DataError("model frequencies must be a finite vector")
        if not s >= 1:
            raise DataError(f"model stride {s} is not a positive integer")
        if self.A.shape != (len(omegas), k):
            raise DataError(f"model A {self.A.shape} does not match "
                            f"{len(omegas)} frequencies and {k} channels")
        if not np.isfinite(self.A).all():
            raise DataError("model A has NaN or infinite entries")
        if not 0 < self.epsilon < np.inf:
            raise DataError(f"model epsilon {self.epsilon} is not positive "
                            f"and finite")
        if omegas.size and omegas[0] == 0.0 and abs(self.A[0].imag).max() > 1e-12:
            raise DataError("model zero-frequency coefficient is not real")
        w = CHAOS_DELAYS + 1
        if n <= w:
            raise DataError(f"model residual has {n} rows; a window of {w} "
                            f"samples and its successor need {w + 1}")
        windows = delay_embed(self.residual, CHAOS_DELAYS).points[:-1:s]
        windows = np.ascontiguousarray(windows)
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "sq", np.einsum("ij,ij->i", windows, windows))
        rows = np.ones((k + 1, len(windows)))
        rows[:k] = self.residual.values[w::s].T
        object.__setattr__(self, "rows", rows)

    @property
    def dt(self) -> float:
        return self.residual.dt

    @property
    def n(self) -> int:
        """Number of training residual rows."""
        return self.residual.n

    @property
    def m(self) -> int:
        """Number of kept windows."""
        return len(self.windows)

    @property
    def k(self) -> int:
        return self.residual.k

    @property
    def state_dim(self) -> int:
        return self.k * (CHAOS_DELAYS + 1)


def fit_periodic(Y, selection: FrequencySelection, dt: float) -> PeriodicFit:
    """Least-squares harmonic fit of Y on the selected DFT bins.

    The selected frequencies are bins ``omega_j = 2*pi*j / (N*dt)`` of the
    N-row grid the fit uses, so the cos/sin columns are orthogonal and the
    least-squares fit is the orthogonal projection onto those bins:
    ``A_j = rfft(Y)[j] / N``, halved at the Nyquist bin of even N, with its
    phase referred to row 0.  The fitted rows are these harmonics evaluated
    at the row offsets ``r*dt`` by :func:`evaluate_harmonics`, and the
    residual is Y less them.

    Parameters
    ----------
    Y : ndarray, shape (N, k)
        Data rows, row r at ``r*dt`` after row 0.
    selection : FrequencySelection
        Bins of this N-row grid, as :func:`freqfilter.select` returns them
        for a basis on the same rows.
    dt : float
        Sample step in seconds.

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
    A = np.fft.rfft(Y, axis=0)[idx] / n
    if n % 2 == 0:
        A[idx == n // 2] /= 2.0
    fitted = evaluate_harmonics(A, omegas, 0.0, dt, n)
    return PeriodicFit(A=A, omegas=omegas.copy(), fitted=fitted,
                       residual=Y - fitted)


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


def eval_periodic(model: QPModel, t: float, n: int) -> np.ndarray:
    """Periodic component at the n times ``t + r*dt`` seconds on the
    input's clock, (n, k)."""
    return evaluate_harmonics(model.A, model.omegas, t - model.residual.t0,
                              model.dt, n)


def log_weights(points, sq, epsilon, y) -> np.ndarray:
    """Scaled log kernel weights ``z = (2 points @ y - sq) / epsilon``: (N,)
    for one state y (dim,), (N, B) for a block (B, dim).  ``sq`` holds the
    squared row norms of the (N, dim) points.  A query of another dimension
    is a :class:`DataError`."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != points.shape[1]:
        raise DataError(
            f"query dimension {y.shape[-1]} does not match embedding dimension "
            f"{points.shape[1]}"
        )
    z = points @ y.T
    z *= 2.0
    np.subtract(z.T, sq, out=z.T)
    z /= epsilon
    return z


def kernel_average(rows, z) -> np.ndarray:
    """``(rows[:-1] @ w) / (rows[-1] @ w)`` for the weights
    ``w = exp(z - max z)`` of the log-weights z, (N,) or (N, B), which
    overwrite z; shifted log-weights below ``_LOG_WEIGHT_FLOOR`` are taken
    at it.  Returns (k,) or (k, B)."""
    z -= z.max(axis=0)
    np.maximum(z, _LOG_WEIGHT_FLOOR, out=z)
    np.exp(z, out=z)
    num = rows @ z
    return num[:-1] / num[-1]


def eval_chaotic(model: QPModel, y) -> np.ndarray:
    """The next residual sample after one window (dim,) or after each of a
    block of windows (B, dim), ``_BLOCK_ROWS`` at a time, in embedding
    layout: the kernel average of the successors of the kept windows."""
    y = np.asarray(y, dtype=float)
    wins, sq, eps = model.windows, model.sq, model.epsilon
    if y.ndim == 1:
        z = log_weights(wins, sq, eps, y)
        return kernel_average(model.rows, z)
    out = np.empty((len(y), model.k))
    for i in range(0, len(y), _BLOCK_ROWS):
        z = log_weights(wins, sq, eps, y[i:i + _BLOCK_ROWS])
        out[i:i + _BLOCK_ROWS] = kernel_average(model.rows, z).T
    return out


def fit_chaotic(omegas, A, residual: TimeSeries, stride: int = 1) -> QPModel:
    """The model of the harmonics (omegas, A) and the training ``residual``,
    with the map's bandwidth taken from ``EPSILON_LADDER``.

    The last ``HELD_OUT`` share of the residual's rows is held out: the
    model of the rows before them predicts them from the windows whose
    successors they are.  Each rung is that quantile of the squared
    distances from those windows to the kept ones, raised to the resolution
    of the log-weights, the float epsilon times the largest squared norm of
    a kept window (and at least the least normal float).  Where more than a
    rung's share of the pairs coincide, as in an exactly periodic residual,
    the rung is that floor, and its map the average of the successors of
    the windows that coincide with the query.  The rung whose predictions
    have the lowest mean squared error wins, the first of equal ones.  A
    residual too short to hold out a row and keep a window before it is a
    :class:`DataError`.
    """
    r, omegas = residual.values, np.asarray(omegas, dtype=float)
    n, w = len(r), CHAOS_DELAYS + 1
    start = n - int(np.ceil(HELD_OUT * n))     # the first held-out row
    if start <= w:
        raise DataError(f"a residual of {n} rows holds out its last "
                        f"{n - start} and leaves no window of {w} samples "
                        f"with a successor before them")
    before = QPModel(omegas, A, replace(residual, values=r[:start]), 1.0,
                     stride)
    queries = delay_embed(residual, CHAOS_DELAYS).points[start - w:n - w]
    # z[j, b] is |queries[b]|^2 less its squared distance to window j
    z = log_weights(before.windows, before.sq, 1.0, queries)
    buf = np.einsum("ij,ij->i", queries, queries) - z
    np.maximum(buf, 0.0, out=buf)
    floor = max(np.finfo(float).eps * before.sq.max(), np.finfo(float).tiny)
    ladder = np.maximum(np.quantile(buf, EPSILON_LADDER), floor)
    errors = []
    for eps in ladder:
        np.divide(z, eps, out=buf)
        pred = kernel_average(before.rows, buf)
        errors.append(np.mean((pred.T - r[start:]) ** 2))
    return QPModel(omegas, A, residual, float(ladder[np.argmin(errors)]),
                   stride)


def periodic_sup_bound(model: QPModel) -> float:
    """sup_t |g_per(t)|_2 <= sum_j (2 - delta_{j,1}) |A[j, :]|_2 (triangle inequality)."""
    weights = np.where(model.omegas == 0.0, 1.0, 2.0)
    return float((weights * np.linalg.norm(model.A, axis=1)).sum())


def chaotic_sup_bound(model: QPModel) -> float:
    """sup_y |g_chaos(y)|_2 <= max_m |r_{m+1}|_2: g_chaos is a convex
    combination of the successors of the kept windows."""
    return float(np.linalg.norm(model.rows[:-1], axis=0).max())


def residual_windows(model: QPModel, series: TimeSeries, start: int,
                     stop: int) -> np.ndarray:
    """The residual windows before samples ``start .. stop - 1`` of
    ``series``, (stop - start, dim) in embedding layout: each the
    ``CHAOS_DELAYS + 1`` samples before, less g_per at their times, sample j
    at ``series.t0 + j * series.dt``.  The offset of a sample from the first
    fitted row is taken as ``(series.t0 - t_fit) + j * dt``, exact for
    integer timestamps."""
    w = CHAOS_DELAYS + 1
    if start < w:
        raise DataError(f"prediction start {start} must be >= {w} so a "
                        f"residual window exists")
    if stop > series.n + 1:
        raise DataError(f"prediction start {stop - 1} is beyond series "
                        f"length {series.n}")
    count = stop - start
    offset = (series.t0 - model.residual.t0) + (start - w) * series.dt
    r = series.values[start - w:stop - 1] - evaluate_harmonics(
        model.A, model.omegas, offset, model.dt, count + w - 1)
    return np.hstack([r[i:i + count] for i in range(w)])


def state_before(model: QPModel, series: TimeSeries, index: int) -> np.ndarray:
    """The residual window before sample ``index`` of ``series`` (dim,): the
    initial condition for generating sample ``index`` onward."""
    return residual_windows(model, series, index, index + 1)[0]


def reconstruct(model: QPModel, init, n_steps: int,
                t_start: float) -> TimeSeries:
    """Free-run the standalone model from ``init``, the residual window
    before the first generated sample (as :func:`state_before` gives it),
    at the times ``t_start + n*dt`` on the input's clock, n < n_steps: each
    new sample is ``g_per(time) + g_chaos(window)``, bit for bit
    ``eval_periodic + eval_chaotic``, and the window then shifts by that
    residual sample.  Identical model and init give bit-identical
    trajectories.  g_chaos is a convex combination of successors, so the
    run is bounded by construction; a non-finite sample (a periodic part
    that overflows) is a :class:`NumericalError`, and n_steps x k samples
    past the memory available a :class:`DataError`, raised before they are
    allocated.
    """
    if n_steps < 1:
        raise DataError(f"n_steps must be >= 1, got {n_steps}")
    state = np.asarray(init, dtype=float).ravel().copy()
    if state.shape[0] != model.state_dim:
        raise DataError(
            f"init has dimension {state.shape[0]}, model state is "
            f"{model.state_dim}"
        )
    k = model.k
    check_memory(n_steps * k * 8, f"{n_steps} steps of {k} channels")
    out = eval_periodic(model, t_start, n_steps)
    for i in range(n_steps):
        r = eval_chaotic(model, state)
        y_new = out[i] + r
        if not np.isfinite(y_new).all():
            raise NumericalError(f"reconstruction diverged at step {i}")
        out[i] = y_new
        state = np.concatenate([state[k:], r])
    return TimeSeries(out, dt=model.dt, t0=float(t_start),
                      channel_names=model.residual.channel_names)


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
    """Serialize the model as a ``qpdecomp-model-6`` file.

    Stores the training residual (as ``train_values``, with its step, its
    first time, A's phase reference, its channel names and a content
    hash), epsilon, the stride and the harmonics (omegas, A): everything
    the free run and the sup-norm bounds read.  The kept windows and their
    successors are derived from the residual when the file is read.
    """
    src = model.residual
    write_npz(path, {
        "format": np.array([MODEL_FORMAT]),
        "train_values": src.values,
        "train_dt": np.float64(src.dt),
        "train_t0": np.float64(src.t0),
        "channel_names": np.array(list(src.channel_names)),
        "train_hash": np.array([training_data_hash(src)]),
        "epsilon": np.float64(model.epsilon),
        "stride": np.int64(model.stride),
        "omegas": model.omegas,
        "A": model.A,
    })


# the dtype kind that save_model writes each array with, and the shape of
# each one-entry array, read as a scalar (None: load_model, TimeSeries or
# QPModel checks the shape)
_MODEL_ARRAYS = {"format": ("U", (1,)), "train_values": ("f", None),
                 "train_dt": ("f", ()), "train_t0": ("f", ()),
                 "channel_names": ("U", None), "train_hash": ("U", (1,)),
                 "epsilon": ("f", ()), "stride": ("i", ()),
                 "omegas": ("f", None), "A": ("c", None)}
_KINDS = {"U": "a string", "f": "a float", "i": "an integer", "c": "a complex"}


def load_model(path) -> QPModel:
    """Read a model saved by :func:`save_model`.

    Allocates nothing larger than the training residual and the windows
    derived from it.

    Raises
    ------
    DataError
        The file is missing or unreadable, is not a ``qpdecomp-model-6``
        file (an older one must be written again by ``qpdecomp run``, as its
        ``model.npz``), lacks one of its arrays or holds one of another
        dtype kind or shape than :func:`save_model` writes, holds other than
        one channel name per channel, fails a check of :class:`TimeSeries`
        or :class:`QPModel`, or its residual does not match the stored
        hash.  Every message names the path.
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
                f"run`, whose model.npz is a {MODEL_FORMAT!r} file"
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
        return QPModel(omegas=read("omegas"), A=read("A"), residual=src,
                       epsilon=read("epsilon"), stride=read("stride"))
