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
pipeline.

The standalone model advances a k(q+1) shift register in embedding layout
(oldest block first): the next sample is ``g_per(t) + g_chaos(window)``
where the window is the register before the step, then the register shifts.
``g_chaos`` is the geometric-harmonics (Nystrom) extension of the fitted
eigenbasis expansion, ``g_chaos(y) = sqrt(N) * (w(y) @ M) / sum(w(y))`` with
the shifted kernel weights of :func:`spectral.extension_weights` and the
N x k matrix ``M = (Gamma / sqrt(q) / sigma) @ E``.  A model therefore holds
the training points, epsilon, M and the extension bounds, never an N x N
matrix, and each free-run step costs one matrix-vector product with the
points.
"""

from dataclasses import dataclass, field

import numpy as np

from ._npz import write_npz
from .errors import DataError, NumericalError
from .freqfilter import FrequencySelection, SelectionParams
from .series import DelayEmbedding, TimeSeries, delay_embed
from .spectral import SpectralBasis, extension_bounds, extension_weights, project

MODEL_FORMAT = "qpdecomp-model-2"

# Rows per block when harmonics or the extension are evaluated at many times
# or points: a block holds a (rows x m) complex phase matrix or a (rows x N)
# weight matrix, 8 MB at m = 2048 bins or N = 4096 points.
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

    ``embedding`` holds the training series, q and the embedded points;
    ``sq``, their squared row norms, is derived from it.  ``M`` (N x k) maps
    shifted kernel weights to the chaotic component and ``ext_bounds`` (L)
    bounds each extended eigenfunction; build both from a basis with
    :meth:`from_basis`.
    """

    selection: FrequencySelection
    A: np.ndarray
    E: np.ndarray
    M: np.ndarray
    ext_bounds: np.ndarray
    embedding: DelayEmbedding
    epsilon: float
    sq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pts = self.embedding.points
        object.__setattr__(self, "sq", np.einsum("ij,ij->i", pts, pts))
        if self.selection.omegas[0] == 0.0 and abs(self.A[0].imag).max() > 1e-12:
            raise NumericalError("zero-frequency coefficient must be real")
        n, k, L = self.n, self.k, len(self.ext_bounds)
        if self.M.shape != (n, k) or self.E.shape != (L, k):
            raise DataError(
                f"model M {self.M.shape} and E {self.E.shape} do not match "
                f"{n} training points, {L} eigenfunctions and {k} channels"
            )

    @classmethod
    def from_basis(cls, basis: SpectralBasis, selection: FrequencySelection,
                   A, E) -> "QPModel":
        """Model with periodic coefficients A and chaotic coefficients E on
        ``basis``; the basis itself is not kept."""
        c = basis.Gamma / np.sqrt(basis.kernel.q)[:, None]
        return cls(selection=selection, A=A, E=E,
                   M=(c / basis.sigma[None, :]) @ E,
                   ext_bounds=extension_bounds(basis),
                   embedding=basis.kernel.embedding,
                   epsilon=basis.kernel.epsilon)

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
    def k(self) -> int:
        return self.A.shape[1]

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
    of even N, and the fitted rows are the inverse rFFT of the masked
    spectrum.

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
    mask = np.zeros(n // 2 + 1, dtype=bool)
    mask[idx] = True
    fitted = np.fft.irfft(F * mask[:, None], n=n, axis=0)
    return PeriodicFit(A=A, omegas=omegas.copy(), fitted=fitted,
                       residual=Y - fitted)


def fit_chaotic(Y_non, basis: SpectralBasis) -> np.ndarray:
    """Coefficients of the residual on the eigenbasis (empirical inner product)."""
    Y_non = np.asarray(Y_non, dtype=float)
    if Y_non.ndim == 1:
        Y_non = Y_non[:, None]
    if Y_non.shape[0] != basis.n:
        raise DataError(f"residual has {Y_non.shape[0]} rows, basis has {basis.n}")
    return project(basis, Y_non)


def evaluate_harmonics(A, omegas, t):
    """Re sum_j (2 - delta_{j,1}) A[j] exp(i omega_j t) for scalar or vector t
    (a vector in blocks of times)."""
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    omegas = np.asarray(omegas)
    weights = np.where(omegas == 0.0, 1.0, 2.0)
    out = np.empty((len(t), A.shape[1]))
    for i in range(0, len(t), _BLOCK_ROWS):
        phases = np.exp(1j * t[i:i + _BLOCK_ROWS, None] * omegas[None, :])
        out[i:i + _BLOCK_ROWS] = ((phases * weights[None, :]) @ A).real
    return out[0] if scalar else out


def eval_periodic(model: QPModel, t):
    """Periodic component at time t seconds (scalar -> (k,), vector -> (n, k))."""
    return evaluate_harmonics(model.A, model.selection.omegas, t)


def _chaos_eval(model: QPModel, y):
    """g_chaos at one delay state (dim,) or a block of states (B, dim)."""
    w = extension_weights(model.embedding.points, model.sq, model.epsilon, y)
    return (np.sqrt(model.n) * (w @ model.M)
            / w.sum(axis=-1, keepdims=True))


def eval_chaotic(model: QPModel, y_delay) -> np.ndarray:
    """Chaotic component at a delay-coordinate point (embedding layout)."""
    return _chaos_eval(model, np.asarray(y_delay, dtype=float).ravel())


def chaotic_at_training_points(model: QPModel) -> np.ndarray:
    """Chaotic component at every training point, (N, k).

    By the Nystrom identity this is ``Phi @ E`` of the fitted basis, to
    rounding, without storing Phi.  Evaluated in row blocks.
    """
    pts = model.embedding.points
    return np.concatenate([_chaos_eval(model, pts[i:i + _BLOCK_ROWS])
                           for i in range(0, model.n, _BLOCK_ROWS)])


def periodic_sup_bound(model: QPModel) -> float:
    """sup_t |g_per(t)|_2 <= sum_j (2 - delta_{j,1}) |A[j, :]|_2 (triangle inequality)."""
    weights = np.where(model.selection.omegas == 0.0, 1.0, 2.0)
    return float((weights * np.linalg.norm(model.A, axis=1)).sum())


def chaotic_sup_bound(model: QPModel) -> float:
    """sup_y |g_chaos(y)|_2 <= sum_l |E[l, :]|_2 * sup|ext_l| (finite by kernel decay)."""
    return float((np.linalg.norm(model.E, axis=1) * model.ext_bounds).sum())


def state_before(series: TimeSeries, index: int, q: int) -> np.ndarray:
    """Delay state (embedding layout) of the q+1 samples ending at index-1.

    This is the initial condition for generating sample ``index`` onward.
    """
    if index - (q + 1) < 0 or index > series.n:
        raise DataError(
            f"cannot take a {q + 1}-sample window ending before index {index}"
        )
    return series.values[index - (q + 1):index].ravel().copy()


def reconstruct(model: QPModel, init, n_steps: int, t_start: float,
                clip_factor: float = None) -> TimeSeries:
    """Free-run the standalone model.

    Starting from ``init`` (the k(q+1) delay window preceding the first
    generated sample, embedding layout, oldest block first), generates
    samples at times ``t_start + n*dt`` for n = 0..n_steps-1: each new sample
    is ``g_per(time) + g_chaos(previous window)``, after which the window
    shifts by one sample.  Deterministic: identical model and init give
    bit-identical trajectories.

    Parameters
    ----------
    clip_factor : float, optional
        Off by default (open-loop behaviour).  When set, the generated
        sample norm is capped at ``clip_factor`` times the largest training
        sample norm, as a divergence diagnostic.
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
    source = model.embedding.source
    cap = None
    if clip_factor is not None:
        train_norms = np.linalg.norm(source.values, axis=1)
        cap = clip_factor * train_norms.max()
    out = eval_periodic(model, t_start + np.arange(n_steps) * model.dt)
    for i in range(n_steps):
        y_new = out[i] + _chaos_eval(model, state)
        if not np.isfinite(y_new).all():
            raise NumericalError(f"reconstruction diverged at step {i}")
        if cap is not None:
            norm = np.linalg.norm(y_new)
            if norm > cap:
                y_new = y_new * (cap / norm)
        out[i] = y_new
        state = np.concatenate([state[k:], y_new])
    return TimeSeries(out, dt=model.dt, t0=float(t_start),
                      channel_names=source.channel_names)


def relative_error(truth: TimeSeries, estimate: TimeSeries) -> np.ndarray:
    """Entry-wise |truth - estimate| / max_n |truth| per channel."""
    if truth.values.shape != estimate.values.shape:
        raise DataError(
            f"shape mismatch: {truth.values.shape} vs {estimate.values.shape}"
        )
    if truth.dt != estimate.dt:
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
    """Serialize the model as a ``qpdecomp-model-2`` file.

    Stores the training window with a content hash of it, q, epsilon, the
    frequency selection, A, E, the chaos matrix M and the extension bounds:
    everything the free run and the sup-norm bounds read, and no N x N or
    N x L matrix.  The eigenbasis itself is not stored (keep it with a basis
    cache if it is needed again).
    """
    src = model.embedding.source
    sel = model.selection
    write_npz(path, {
        "format": np.array([MODEL_FORMAT]),
        "train_values": src.values,
        "train_dt": np.float64(src.dt),
        "train_t0": np.float64(src.t0),
        "channel_names": np.array(list(src.channel_names)),
        "train_hash": np.array([training_data_hash(src)]),
        "q": np.int64(model.q),
        "epsilon": np.float64(model.epsilon),
        "sel_indices": sel.indices,
        "sel_omegas": sel.omegas,
        "sel_amplitudes": sel.amplitudes,
        "sel_params": np.array([sel.params.eps1, sel.params.eps2,
                                float(sel.params.L0), float(sel.params.L)]),
        "A": model.A,
        "E": model.E,
        "M": model.M,
        "ext_bounds": model.ext_bounds,
    })


def load_model(path) -> QPModel:
    """Read a model saved by :func:`save_model`.

    Re-embeds the stored training series (checked against its hash) and
    allocates nothing larger than the N x k(q+1) embedded points.

    Raises
    ------
    DataError
        The file is not a ``qpdecomp-model-2`` file (a ``qpdecomp-model-1``
        file must be rewritten with ``qpdecomp decompose``), or its training
        data do not match the stored hash.
    """
    with np.load(path, allow_pickle=False) as data:
        fmt = str(data["format"][0])
        if fmt == "qpdecomp-model-1":
            raise DataError(
                f"{path}: model format {fmt!r} is no longer readable; re-run "
                f"`qpdecomp decompose` to write a {MODEL_FORMAT!r} file"
            )
        if fmt != MODEL_FORMAT:
            raise DataError(f"{path}: unknown model format {fmt!r}")
        src = TimeSeries(data["train_values"], dt=float(data["train_dt"]),
                         t0=float(data["train_t0"]),
                         channel_names=tuple(str(c) for c in data["channel_names"]))
        stored_hash = str(data["train_hash"][0])
        if training_data_hash(src) != stored_hash:
            raise DataError(f"{path}: training data does not match its stored hash")
        emb = delay_embed(src, int(data["q"]))
        p = data["sel_params"]
        sel = FrequencySelection(
            indices=data["sel_indices"],
            omegas=data["sel_omegas"],
            amplitudes=data["sel_amplitudes"],
            params=SelectionParams(float(p[0]), float(p[1]), int(p[2]), int(p[3])),
        )
        return QPModel(selection=sel, A=data["A"], E=data["E"], M=data["M"],
                       ext_bounds=data["ext_bounds"], embedding=emb,
                       epsilon=float(data["epsilon"]))
