"""Fit the periodic component by least squares on the selected frequencies,
fit the driven dynamics as a kernel average of residual successors, and run
the standalone reconstruction system.

Time convention: every time is on the input's own clock, in seconds, and
the periodic component is ``g_per(t) = Re sum_j (2 - delta_{j,1}) A[j]
exp(i omega_j (t - t_fit))``, where t_fit is the time of the first fitted
row, the model's ``residual.t0``.  A series carries its clock into the
model and out of it: :func:`fit_periodic` returns its residual as a series
on the fit rows' clock, and :func:`reconstruct` starts from a sample of a
series and places the run by that series' timestamps, through
:func:`residual_windows`, the one place where a series meets a model and
is checked against it.  The frequencies may be any finite, strictly
increasing ones within [0, pi/dt] (:func:`check_frequencies`), and the fit
is least squares on their cosine and sine columns, solved by conjugate
gradients with :func:`evaluate_harmonics` as the operator.  On DFT bins of
the N fit rows, as :func:`freqfilter.select` returns them, the columns are
orthogonal, and the conjugate gradients' start, the projection, is the
answer: the rFFT of the rows at the selected bins over N, halved at the
Nyquist bin of even N, since the factor 2 counts a conjugate pair and that
bin is its own conjugate.  The coefficients at the zero frequency and at
pi/dt are real.  The fitted rows, the in-sample reconstruction and the free
run all take g_per from :func:`evaluate_harmonics` on a uniform time grid.

The driven dynamics live in the residual r = y - g_per of the fit rows.  A
window is ``CHAOS_DELAYS + 1`` consecutive residual samples (embedding
layout, oldest first), and the map is the analog forecast of Zhao &
Giannakis (Nonlinearity 2016): after a window y the next residual sample is
``g_chaos(y) = sum_m w_m r_{m+1} / sum_m w_m``, the kernel average of the
successors r_{m+1} of the kept windows, every ``QPModel.stride``-th one,
with w the Gaussian weights of y against them at the bandwidth that
:func:`fit_chaotic` takes by held-out one-step error.  g_chaos is a convex
combination of the successors, so the largest of them bounds it.

g_chaos has one evaluator, :func:`eval_chaotic`, a block loop that the
free run (a block of one) and the in-sample reconstruction share, and one
source of windows, :func:`residual_windows`, which gives the reconstruction
all of its windows and the free run its first.  :func:`log_weights` gives
the scaled log-weights ``z = (2 P - sq) / epsilon`` of a state y,
``P = points @ y``, whose weights are ``exp(z - max z)``, since
``-|p_m - y|^2 / epsilon = z_m - |y|^2 / epsilon``, and
:func:`kernel_average` takes the numerator and the weight sum together, in
one product with the rows ``[successors^T; 1]``.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ._npz import read_npz, write_npz
from .errors import DataError, NumericalError, check_memory, reading
from .kernel import reference_stride
from .series import TimeSeries, delay_embed, same_step

MODEL_FORMAT = "qpdecomp-model-7"

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
# The harmonic fit stops a channel when its preconditioned gradient falls to
# _CG_TOL of the norm of its rows, and fails past _CG_ITERATIONS iterations.
_CG_TOL = 1e-12
_CG_ITERATIONS = 200
# It warns when a channel's coefficients carry over _ENERGY_RATIO times the
# energy of its rows, which on DFT bins is at most once (Bessel).
_ENERGY_RATIO = 10.0
# A frequency within this relative distance of pi/dt is the top one: its
# sine column vanishes on the samples, and its coefficient is real.
_TOP_RTOL = 1e-12
# A free run that starts more than this many training spans (n * dt) from
# the first fitted row warns: its input is most likely stamped on another
# clock (epoch seconds against 0 s), where g_per has a phase the data never
# had.
_FAR_SPANS = 1000


@dataclass(frozen=True)
class QPModel:
    """Fitted quasiperiodic + driven model: what the free run reads.

    ``omegas`` (m) and ``A`` (m x k) are the harmonics of the periodic
    component, and ``residual`` is the training series less them, with its
    step, its channel names and its own clock, whose t0 is A's phase
    reference.  Every ``stride``-th window of ``CHAOS_DELAYS + 1`` residual
    samples that has a successor is kept, the stride being
    :func:`kernel.reference_stride` of n, whatever the kernel took (a rule
    of the code, like ``CHAOS_DELAYS``: changing it bumps ``MODEL_FORMAT``):
    ``stride``, ``windows`` (one row per kept window, embedding layout),
    ``sq``, their squared norms, and ``rows``, the C-ordered
    ``[successors^T; 1]`` of :func:`kernel_average`, are derived once, when
    the model is built.  ``epsilon`` is the map's bandwidth.  Other shapes,
    ``omegas`` that fail :func:`check_frequencies` on the residual's step, a
    non-finite entry of ``A``, a zero-frequency coefficient that is not
    real, a residual too short for one window and its successor or an
    ``epsilon`` that is not positive and finite are a :class:`DataError`.
    """

    omegas: np.ndarray
    A: np.ndarray
    residual: TimeSeries
    epsilon: float
    stride: int = field(init=False, repr=False)
    windows: np.ndarray = field(init=False, repr=False)
    sq: np.ndarray = field(init=False, repr=False)
    rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        omegas = check_frequencies(self.omegas, self.dt, "model frequency")
        n, k, s = self.n, self.k, reference_stride(self.n)
        object.__setattr__(self, "stride", s)
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
    def k(self) -> int:
        return self.residual.k


def check_frequencies(omegas, dt, what="frequency") -> np.ndarray:
    """``omegas`` as a float vector, checked: each finite, in strictly
    increasing order, within ``[0, pi/dt]`` (the top within a relative
    ``_TOP_RTOL``, which takes a Nyquist bin however its rounding falls).
    Any other vector is a :class:`DataError` that names the entry ``what``
    ``j``."""
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1:
        raise DataError(f"{what} values must be a vector, not shape "
                        f"{omegas.shape}")
    bad = np.flatnonzero(~np.isfinite(omegas))
    if bad.size:
        raise DataError(f"{what} {bad[0]} is {omegas[bad[0]]}, not finite")
    top = np.pi / dt
    bad = np.flatnonzero((omegas < 0.0) | (omegas > top * (1.0 + _TOP_RTOL)))
    if bad.size:
        raise DataError(f"{what} {bad[0]} at {omegas[bad[0]]:.6g} rad/s lies "
                        f"outside [0, pi/dt] = [0, {top:.6g}] rad/s")
    bad = np.flatnonzero(np.diff(omegas) <= 0.0)
    if bad.size:
        j = bad[0]
        raise DataError(f"{what} {j + 1} at {omegas[j + 1]:.6g} rad/s is not "
                        f"above {what} {j} at {omegas[j]:.6g} rad/s; the "
                        f"frequencies must be strictly increasing")
    return omegas


def fit_periodic(rows: TimeSeries, omegas):
    """Least-squares harmonic fit of the series ``rows`` on the frequencies
    ``omegas``: ``(A, residual)``.

    The N rows at their offsets ``t = r*dt`` from the first row are fitted
    on the columns ``[1, cos omega_j t, -sin omega_j t]``, whose real
    coefficients are ``(2 - delta_{j,1}) (Re A_j, Im A_j)``; at omega = 0
    and pi/dt the sine column vanishes on the samples and A_j is real.  The
    normal equations are solved without forming them by conjugate gradients
    (Hestenes & Stiefel, J. Res. NBS 1952; in the least-squares form of
    Paige & Saunders, ACM TOMS 1982): the operator is
    :func:`evaluate_harmonics`, its adjoint ``(2 - delta_{j,1}) sum_r
    exp(-i omega_j t_r) r_r`` runs over the same table of step phases, and
    the preconditioner is the diagonal that the DFT grid gives,
    ``(2 - delta_{j,1})^2 N / 2``, twice that at the real frequencies.  The
    start is that diagonal's projection, which on DFT bins
    ``2*pi*j / (N*dt)``, whose columns are orthogonal, is the answer,
    ``rfft(rows)[j] / N`` (halved at the Nyquist bin).  Each iteration
    takes its gradient from the true residual, not a recursion, and a
    channel stops when that gradient, in the preconditioner's norm, falls
    to ``_CG_TOL`` of the norm of its rows.  The residual is returned:
    ``rows`` less :func:`evaluate_harmonics` of A at the row offsets, on
    the same clock, so its t0 is A's phase reference.  Coefficients whose
    energy ``sum_j diag_j |A_jc|^2`` passes ``_ENERGY_RATIO`` times their
    channel's ``sum_r y_rc^2`` cancel on the rows, and warn once; on DFT
    bins the ratio is at most 1 (Bessel's inequality).

    Raises
    ------
    DataError
        ``omegas`` fails :func:`check_frequencies`, naming the entry, or
        holds more real unknowns than the N rows.
    NumericalError
        A channel has not converged after ``_CG_ITERATIONS`` iterations,
        naming the closest pair of frequencies against the grid spacing
        ``2*pi / (N*dt)``.
    """
    n, dt = rows.n, rows.dt
    omegas = check_frequencies(omegas, dt)
    real = (omegas == 0.0) | np.isclose(omegas * dt, np.pi, rtol=_TOP_RTOL,
                                        atol=0.0)
    unknowns = 2 * len(omegas) - int(real.sum())
    if unknowns > n:
        raise DataError(f"{len(omegas)} frequencies hold {unknowns} real "
                        f"unknowns, more than the {n} rows to fit")
    y = rows.values
    steps = _step_phases(omegas, dt, n)
    conj = steps.conj()
    weights = np.where(omegas == 0.0, 1.0, 2.0)
    diag = (n * weights ** 2 * np.where(real, 1.0, 0.5))[:, None]

    def apply(A):
        return evaluate_harmonics(A, omegas, 0.0, dt, n, steps)

    def adjoint(r):
        g = np.zeros((len(omegas), r.shape[1]), dtype=complex)
        for i in range(0, n, _BLOCK_ROWS):
            block = r[i:i + _BLOCK_ROWS].T @ conj[:n - i]
            g += np.exp(-1j * omegas * (i * dt))[:, None] * block.T
        g *= weights[:, None]
        g.imag[real] = 0.0
        return g

    def dot(a, b):
        return np.einsum("jc,jc->c", a.conj(), b).real

    what = f"the harmonic fit of {n} rows on {len(omegas)} frequencies"
    pair = _closest_pair(omegas, n, dt)
    A = adjoint(y) / diag
    power = np.einsum("rc,rc->c", y, y)
    floor = _CG_TOL ** 2 * power
    for it in range(_CG_ITERATIONS + 1):
        # each pass starts from the true residual, which is also returned
        r = y - apply(A)
        g = adjoint(r)
        z = g / diag
        fresh = dot(g, z)
        active = fresh > floor
        if not active.any():
            ratio = dot(A, diag * A) / np.maximum(power, np.finfo(float).tiny)
            c = int(np.argmax(ratio))
            if ratio[c] > _ENERGY_RATIO:
                warnings.warn(f"{what} puts {ratio[c]:.3g} times the energy "
                              f"of channel {c}'s rows into its coefficients, "
                              f"which cancel on the rows{pair}")
            return A, replace(rows, values=r)
        if it == _CG_ITERATIONS:
            raise NumericalError(f"{what} did not converge in "
                                 f"{_CG_ITERATIONS} iterations{pair}")
        p = z if it == 0 else z + np.divide(
            fresh, gamma, out=np.zeros_like(fresh), where=active) * p
        q = apply(p)
        A += np.divide(fresh, np.einsum("rc,rc->c", q, q),
                       out=np.zeros_like(fresh), where=active) * p
        gamma = fresh


def _closest_pair(omegas, n, dt) -> str:
    """The end of a harmonic fit's message: its closest pair of frequencies
    against the grid spacing of n rows, when it has two."""
    if len(omegas) < 2:
        return ""
    spacing = 2.0 * np.pi / (n * dt)
    j = int(np.argmin(np.diff(omegas)))
    gap = omegas[j + 1] - omegas[j]
    return (f": frequencies {j} and {j + 1} at {omegas[j]:.9g} and "
            f"{omegas[j + 1]:.9g} rad/s lie {gap / spacing:.3g} grid spacings "
            f"2*pi/(N*dt) = {spacing:.6g} rad/s apart")


def _step_phases(omegas, dt, n):
    """The table ``exp(i omega_j s dt)``, s < min(n, ``_BLOCK_ROWS``)."""
    return np.exp(1j * np.outer(np.arange(min(n, _BLOCK_ROWS)) * dt, omegas))


def evaluate_harmonics(A, omegas, t0, dt, n, steps=None):
    """Re sum_j (2 - delta_{j,1}) A[j] exp(i omega_j t) at the n times
    ``t = t0 + r*dt``, (n, k): each block of ``_BLOCK_ROWS`` rows multiplies
    one table of step phases ``exp(i omega_j s dt)``, s < ``_BLOCK_ROWS``
    (``steps``, built here when not given), by the coefficients rotated to
    its own start, so rounding does not grow with n.  It is the operator of
    :func:`fit_periodic`, which passes the table its adjoint shares."""
    omegas = np.asarray(omegas, dtype=float)
    weighted = np.where(omegas == 0.0, 1.0, 2.0)[:, None] * A
    if steps is None:
        steps = _step_phases(omegas, dt, n)
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
    """The next residual samples (..., k) after the windows y (..., dim), in
    embedding layout, taken as one block of rows ``_BLOCK_ROWS`` at a time:
    the kernel average of the successors of the kept windows."""
    y = np.asarray(y, dtype=float)
    out = np.empty(y.shape[:-1] + (model.k,))
    block, flat = y.reshape(-1, y.shape[-1]), out.reshape(-1, model.k)
    for i in range(0, len(block), _BLOCK_ROWS):
        z = log_weights(model.windows, model.sq, model.epsilon,
                        block[i:i + _BLOCK_ROWS])
        flat[i:i + _BLOCK_ROWS] = kernel_average(model.rows, z).T
    return out


def fit_chaotic(omegas, A, residual: TimeSeries) -> QPModel:
    """The model of the harmonics (omegas, A) and the training ``residual``,
    with the map's bandwidth taken from ``EPSILON_LADDER``.

    The last ``HELD_OUT`` share of the residual's rows is held out: the
    model's first kept windows, those whose successors precede them,
    predict them from the windows whose successors they are.  Each rung is
    that quantile of the squared distances from those windows to the kept
    ones, raised to the resolution of the log-weights, the float epsilon
    times the largest squared norm of a kept window (and at least the least
    normal float).  Where more than a rung's share of the pairs coincide,
    as in an exactly periodic residual, the rung is that floor, and its map
    the average of the successors of the windows that coincide with the
    query.  The rung whose predictions have the lowest mean squared error
    wins, the first of equal ones.  A residual too short to hold out a row
    and keep a window before it is a :class:`DataError`.
    """
    r = residual.values
    n, w = len(r), CHAOS_DELAYS + 1
    start = n - int(np.ceil(HELD_OUT * n))     # the first held-out row
    if start <= w:
        raise DataError(f"a residual of {n} rows holds out its last "
                        f"{n - start} and leaves no window of {w} samples "
                        f"with a successor before them")
    model = QPModel(np.asarray(omegas, dtype=float), A, residual, 1.0)
    m = -(-(start - w) // model.stride)   # the kept windows before start
    windows, sq, rows = model.windows[:m], model.sq[:m], model.rows[:, :m]
    queries = delay_embed(residual, CHAOS_DELAYS).points[start - w:n - w]
    # z[j, b] is |queries[b]|^2 less its squared distance to window j
    z = log_weights(windows, sq, 1.0, queries)
    buf = np.einsum("ij,ij->i", queries, queries) - z
    np.maximum(buf, 0.0, out=buf)
    floor = max(np.finfo(float).eps * sq.max(), np.finfo(float).tiny)
    ladder = np.maximum(np.quantile(buf, EPSILON_LADDER), floor)
    errors = []
    for eps in ladder:
        np.divide(z, eps, out=buf)
        pred = kernel_average(rows, buf)
        errors.append(np.mean((pred.T - r[start:]) ** 2))
    return replace(model, epsilon=float(ladder[np.argmin(errors)]))


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
    integer timestamps.  A series that does not hold the model's channels,
    in its order, on its step, is a :class:`DataError`, as is a window that
    does not lie in it."""
    trained = model.residual.channel_names
    if series.channel_names != trained:
        raise DataError(f"input channels {list(series.channel_names)} differ "
                        f"from the model's {list(trained)}")
    if not same_step(series, model.residual):
        raise DataError(f"input step {series.dt:.17g} s differs from the "
                        f"model's dt {model.dt:.17g} s")
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


def reconstruct(model: QPModel, series: TimeSeries, start: int,
                n_steps: int) -> TimeSeries:
    """Free-run the standalone model for ``n_steps`` samples from sample
    ``start`` of ``series``, on its step and its clock: the run starts from
    the residual window before that sample (:func:`residual_windows`, which
    checks the series against the model) at its time
    ``series.t0 + start * series.dt``.  Each new sample is
    ``g_per(time) + g_chaos(window)``, bit for bit
    ``eval_periodic + eval_chaotic``, and the window then shifts by that
    residual sample: each window is a slice of one array of the run's
    residual samples.  Identical model and series give bit-identical
    trajectories.  g_chaos is a convex combination of successors, so the
    run is bounded by construction; a non-finite sample (a periodic part
    that overflows) is a :class:`NumericalError`, and a run whose samples
    and residual samples, 2 n_steps x k, exceed the memory available a
    :class:`DataError`, raised before they are allocated.  A start more
    than ``_FAR_SPANS`` training spans from the first fitted row warns.
    """
    if n_steps < 1:
        raise DataError(f"n_steps must be >= 1, got {n_steps}")
    window = residual_windows(model, series, start, start + 1)[0]
    t_start = series.t0 + start * series.dt
    t_fit = model.residual.t0
    if abs(t_start - t_fit) > _FAR_SPANS * model.n * model.dt:
        warnings.warn(f"the prediction starts at {t_start:.17g} s, more than "
                      f"{_FAR_SPANS} training spans from the model's first "
                      f"fitted row at {t_fit:.17g} s: is the input stamped "
                      f"on the clock of the series the model was fitted on?")
    k, w = model.k, CHAOS_DELAYS + 1
    check_memory((2 * n_steps + w) * k * 8, f"{n_steps} steps of {k} channels")
    out = eval_periodic(model, t_start, n_steps)
    traj = np.empty((w + n_steps) * k)
    traj[:w * k] = window
    for i in range(n_steps):
        r = eval_chaotic(model, traj[i * k:(i + w) * k])
        out[i] += r
        if not np.isfinite(out[i]).all():
            raise NumericalError(f"reconstruction diverged at step {i}")
        traj[(i + w) * k:(i + w + 1) * k] = r
    return TimeSeries(out, dt=series.dt, t0=float(t_start),
                      channel_names=series.channel_names)


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
    """Serialize the model as a ``qpdecomp-model-7`` file.

    Stores the training residual (as ``train_values``, with its step, its
    first time, A's phase reference, its channel names and a content
    hash), epsilon and the harmonics (omegas, A): everything the free run
    and the sup-norm bounds read.  The stride, the kept windows and their
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
        "omegas": model.omegas,
        "A": model.A,
    })


# the dtype kind that save_model writes each array with, and the shape of
# each one-entry array, read as a scalar (None: load_model, TimeSeries or
# QPModel checks the shape)
_MODEL_ARRAYS = {"format": ("U", (1,)), "train_values": ("f", None),
                 "train_dt": ("f", ()), "train_t0": ("f", ()),
                 "channel_names": ("U", None), "train_hash": ("U", (1,)),
                 "epsilon": ("f", ()), "omegas": ("f", None),
                 "A": ("c", None)}
_KINDS = {"U": "a string", "f": "a float", "c": "a complex"}


def load_model(path) -> QPModel:
    """Read a model saved by :func:`save_model`.

    Allocates nothing larger than the training residual and the windows
    derived from it.

    Raises
    ------
    DataError
        The file is missing or unreadable, is not a ``qpdecomp-model-7``
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
                       epsilon=read("epsilon"))
