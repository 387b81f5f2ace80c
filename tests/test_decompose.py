import contextlib
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from qpdecomp import (
    DataError,
    NumericalError,
    TimeSeries,
    delay_embed,
    kernel,
    window,
)
from qpdecomp.decompose import (
    CHAOS_DELAYS,
    EPSILON_LADDER,
    HELD_OUT,
    QPModel,
    chaotic_sup_bound,
    eval_chaotic,
    eval_periodic,
    evaluate_harmonics,
    fit_chaotic,
    fit_periodic,
    load_model,
    log_weights,
    moving_average,
    periodic_sup_bound,
    reconstruct,
    relative_error,
    residual_windows,
    save_model,
)
from qpdecomp.freqfilter import rkhs_norm_table, select
from qpdecomp.spectral import decompose
from qpdecomp.synth import simulate, standard_testbed

from conftest import (
    direct_harmonics,
    masked_irfft,
    pair_quantile,
    project,
    rfft_harmonics,
    synthesize,
    torus_series,
)

TWO_PI = 2 * np.pi


def fit_rows(y, omegas, dt):
    """:func:`fit_periodic` of the rows y at step dt: A and the residual's
    values."""
    A, residual = fit_periodic(TimeSeries(y, dt=dt), omegas)
    return A, residual.values


def qr_fit(Y, omegas, dt, t0=0.0):
    """Reference harmonic fit: real least squares by column-pivoted QR.

    Columns ``{1} + {cos(omega t), sin(omega t)}`` at row times
    ``t0 + r*dt``, with a cosine column only at the Nyquist bin (its sine
    column vanishes on the samples); a rank gate rejects dependent columns.
    The real coefficients map to complex rows ``A_j = (a_j - i b_j) / 2``.
    Works for any frequencies, on the DFT grid or not.
    """
    Y = np.asarray(Y, dtype=float).reshape(len(Y), -1)
    t = t0 + np.arange(len(Y)) * dt
    cols, owners, kinds = [], [], []
    for j, om in enumerate(omegas):
        if om == 0.0:
            cols.append(np.ones_like(t))
            owners.append(j)
            kinds.append("const")
            continue
        cols.append(np.cos(om * t))
        owners.append(j)
        kinds.append("cos")
        if abs(om * dt - np.pi) >= 1e-9:
            cols.append(np.sin(om * t))
            owners.append(j)
            kinds.append("sin")
    G = np.stack(cols, axis=1)
    Q, R, piv = scipy.linalg.qr(G, mode="economic", pivoting=True)
    diag = np.abs(np.diagonal(R))
    if diag.min() < 1e-10 * np.linalg.norm(G, axis=0).max():
        raise NumericalError("rank-deficient harmonic design")
    coef = np.empty((G.shape[1], Y.shape[1]))
    coef[piv] = scipy.linalg.solve_triangular(R, Q.T @ Y)
    A = np.zeros((len(omegas), Y.shape[1]), dtype=complex)
    for c, (j, kind) in enumerate(zip(owners, kinds)):
        if kind == "const":
            A[j] += coef[c]
        elif kind == "cos":
            A[j] += coef[c] / 2.0
        else:
            A[j] -= 1j * coef[c] / 2.0
    return A, G @ coef


W = CHAOS_DELAYS + 1     # samples per residual window
# a model keeps every ceil(n / kernel.REFERENCE_CAP)-th window: this cap
# gives stride 3 at the 512 residual rows of fit_torus(515, 3)
STRIDE_3_CAP = 171


@contextlib.contextmanager
def reference_cap(cap):
    """A context in which ``kernel.REFERENCE_CAP`` is ``cap``: a model built
    there derives its ``stride`` from it, and keeps that stride."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "REFERENCE_CAP", cap)
        yield


def window_before(model, s, index):
    """The residual window before sample ``index`` of ``s`` (dim,)."""
    return residual_windows(model, s, index, index + 1)[0]


def successors(model):
    """The successor of each kept window, read off the residual itself."""
    return model.residual.values[W::model.stride]


def exact_chaos(model, y):
    """Reference map: exact differences ``windows - y`` and the successors
    read off the residual (slow; the model uses squared norms and a stored
    row matrix)."""
    diff = model.windows - np.ravel(y)[None, :]
    d2 = np.einsum("ij,ij->i", diff, diff)
    w = np.exp(-(d2 - d2.min()) / model.epsilon)
    return (w @ successors(model)) / w.sum()


def exact_reconstruct(model, init, n_steps, t_start):
    """Reference free run: each step adds :func:`exact_chaos` of the window
    to g_per and shifts the window by that residual sample.  Returns the
    (n_steps, k) samples."""
    state = np.asarray(init, dtype=float).ravel().copy()
    k = model.k
    out = eval_periodic(model, t_start, n_steps)
    for i in range(n_steps):
        r = exact_chaos(model, state)
        out[i] += r
        state = np.concatenate([state[k:], r])
    return out


def logistic(n, k, r=3.9):
    """n steps of k logistic maps x <- r x (1 - x), one per channel, from
    starts spread over [0.21, 0.44]: no two are x and 1 - x, whose orbits
    would join."""
    x = np.empty((n, k))
    x[0] = np.linspace(0.21, 0.44, k)
    for i in range(1, n):
        x[i] = r * x[i - 1] * (1 - x[i - 1])
    return x


def with_chaos(model):
    """``model`` refitted over a logistic residual of the same shape,
    ``0.6 (x - 1/2)``.

    The fitted residual of a pure torus is rounding noise, so wrong kernel
    weights in its free run would not show; with this residual the driven
    part is about a quarter of each sample, and the map predicts it.
    """
    res = model.residual
    chaos = replace(res, values=0.6 * (logistic(res.n, res.k) - 0.5))
    return fit_chaotic(model.omegas, model.A, chaos)


def fit_torus(n, q, stride=1):
    """Eigenbasis of a bin-exact 2-torus series with q delays against every
    ``stride``-th point, the model fitted end to end on it (its windows at
    the stride that ``kernel.REFERENCE_CAP`` gives), and the series."""
    n_emb, dt = n - q, 1.0
    omegas = [TWO_PI * 34 / n_emb, TWO_PI * 55 / n_emb]
    s = torus_series(n, omegas, mix_seed=7, n_channels=3, dt=dt)
    emb = delay_embed(s, q)
    eps = 0.02 * pair_quantile(emb, 0.5)
    basis = decompose(emb, eps, 40, reference_points=-(-n_emb // stride))
    table = rkhs_norm_table(basis, dt)
    sel = select(table, eps1=0.1, eps2=2.5, L0=10)
    A, residual = fit_periodic(window(s, q, s.n), sel.omegas)
    model = fit_chaotic(sel.omegas, A, residual)
    return basis, model, s


@pytest.fixture(scope="module")
def fitted_torus():
    return fit_torus(515, 3)


@pytest.fixture(scope="module")
def model_basis(fitted_torus):
    """Eigenbasis of a bin-exact 2-torus series with q=3, and the series."""
    basis, _, s = fitted_torus
    return basis, s


@pytest.fixture(scope="module")
def torus_model(fitted_torus):
    """Model fitted end to end on the model_basis series."""
    _, model, s = fitted_torus
    return model, s


@pytest.fixture(scope="module")
def torus_E(fitted_torus):
    """Coefficients E of the torus_model fit's residual on its basis."""
    basis, model, _ = fitted_torus
    return project(basis, model.residual.values)


@pytest.fixture(scope="module")
def chaos_model(torus_model):
    """The torus model over a random residual, at its fitted bandwidth."""
    return with_chaos(torus_model[0])


class TestFitPeriodic:
    def test_constant_fit(self):
        y = np.full((50, 2), 4.25)
        A, residual = fit_rows(y, [0.0], 1.0)
        np.testing.assert_allclose(A[0].real, [4.25, 4.25], atol=1e-12)
        assert not A[0].imag.any()
        assert np.abs(residual).max() <= 1e-10

    def test_known_amplitude_and_phase(self):
        # closed-form harmonic regression: y = 3 cos + 4 sin at an exact bin
        n, dt = 256, 1.0
        omega = TWO_PI * 10 / n
        t = np.arange(n) * dt
        y = (3.0 * np.cos(omega * t) + 4.0 * np.sin(omega * t))[:, None]
        A, residual = fit_rows(y, [0.0, omega], dt)
        assert np.abs(residual).max() <= 1e-9
        amp = 2.0 * np.abs(A[1, 0])
        phase = np.arctan2(-A[1, 0].imag, A[1, 0].real)
        np.testing.assert_allclose(amp, 5.0, rtol=1e-10)
        np.testing.assert_allclose(phase, np.arctan2(4.0, 3.0), rtol=1e-10)

    def test_residual_orthogonality_normal_equations(self):
        # normal-equations oracle: design^T residual = 0 at the optimum
        rng = np.random.default_rng(0)
        n, dt = 200, 0.5
        y = rng.standard_normal((n, 3))
        t = np.arange(n) * dt
        omegas = TWO_PI * np.array([0, 2, 5, 9]) / (n * dt)
        _, residual = fit_rows(y, omegas, dt)
        cols = [np.ones(n)]
        for om in omegas[1:]:
            cols += [np.cos(om * t), np.sin(om * t)]
        G = np.stack(cols, 1)
        assert np.abs(G.T @ residual).max() <= 1e-8

    def test_duplicate_bins_error_names_frequencies(self):
        # an exactly repeated bin is named by its two entries; a copy within
        # the grid tolerance is test_bin_is_taken_within_the_grid_tolerance's
        n, dt = 40, 1.0
        y = np.random.default_rng(5).standard_normal((n, 1))
        omegas = TWO_PI * np.array([0.0, 2.0, 2.0]) / (n * dt)
        with pytest.raises(DataError, match=r"frequency 2 at 0\.314159 rad/s "
                                            r"is not above frequency 1 at "
                                            r"0\.314159 rad/s"):
            fit_rows(y, omegas, dt)

    def test_aliased_bins_error(self):
        # omega and 2*pi/dt - omega fold onto the same sampled harmonic; the
        # folded copy lies above pi/dt and is rejected
        n, dt = 40, 1.0
        omegas = [0.0, TWO_PI * 3 / n, TWO_PI * 37 / n]
        with pytest.raises(DataError, match=r"frequency 2 at 5\.81195 rad/s "
                                            r"lies outside \[0, pi/dt\] = "
                                            r"\[0, 3\.14159\] rad/s"):
            fit_rows(np.zeros((n, 1)), omegas, dt)

    def test_nyquist_bin_gets_single_column(self):
        # the sine column vanishes at pi/dt, however the bin's rounding
        # falls, so its coefficient is real, as is the mean's
        n, dt = 64, 1.0
        t = np.arange(n) * dt
        y = (1.5 + 2.0 * np.cos(np.pi * t))[:, None]
        for omega_nyq in (np.pi, TWO_PI * 32 / 64, np.nextafter(np.pi, 4.0)):
            A, residual = fit_rows(y, [0.0, omega_nyq], dt)
            assert not A.imag.any()
            np.testing.assert_allclose(A[:, 0].real, [1.5, 1.0], rtol=1e-12)
            assert np.abs(residual).max() <= 1e-9
            recon = evaluate_harmonics(A, [0.0, omega_nyq], 0.0, dt, n)
            np.testing.assert_allclose(recon[:, 0], y[:, 0], atol=1e-9)

    def test_too_few_rows(self):
        # bins chosen on a 200-row grid are not bins of 7 rows, whose grid
        # they fall between: the first such one is named with its nearest
        # bin.  Distinct bins of N rows never hold more than N unknowns
        omegas = TWO_PI * np.array([0, 10, 40, 80]) / 200
        y = np.random.default_rng(6).standard_normal((7, 2))
        with pytest.raises(DataError, match=r"^frequency 1 at 0\.314159265 "
                                            r"rad/s is not a DFT bin of the 7 "
                                            r"rows: the nearest is bin 0 at 0 "
                                            r"rad/s, on the grid "
                                            r"2\*pi\*j/\(N\*dt\) = j \* "
                                            r"0\.897597901 rad/s, j = 0\.\.3$"):
            fit_rows(y, omegas, 1.0)

    @pytest.mark.parametrize("omegas, error, message", [
        pytest.param([0.0, np.nan, 1.0], DataError, r"frequency 1 is nan, "
                     r"not finite", id="non-finite"),
        pytest.param([-0.1, 1.0], DataError, r"frequency 0 at -0\.1 rad/s "
                     r"lies outside \[0, pi/dt\]", id="negative"),
        pytest.param([0.0, 1.0, 3.2], DataError, r"frequency 2 at 3\.2 rad/s "
                     r"lies outside \[0, pi/dt\] = \[0, 3\.14159\]",
                     id="above-pi-over-dt"),
        pytest.param([0.0, 2.0, 1.0], DataError, r"frequency 2 at 1 rad/s is "
                     r"not above frequency 1 at 2 rad/s; the frequencies "
                     r"must be strictly increasing",
                     id="not-increasing"),
        # 11 frequencies would hold 22 unknowns on 20 rows, but they are
        # off the grid; distinct bins of N rows hold at most N unknowns
        pytest.param(TWO_PI * np.arange(11) / 40 + 0.01, DataError,
                     r"frequency 0 at 0\.01 rad/s is not a DFT bin of the 20 "
                     r"rows: the nearest is bin 0 at 0 rad/s",
                     id="more-unknowns-than-rows"),
    ])
    def test_input_contract(self, omegas, error, message):
        y = np.random.default_rng(7).standard_normal((20, 2))
        with pytest.raises(error, match=message):
            fit_rows(y, omegas, 1.0)

    def test_full_bin_lattice_reproduces_exactly(self):
        # inverse-DFT property: harmonic regression on all bins 0..N/2 is
        # exact
        rng = np.random.default_rng(1)
        n, dt = 256, 2.0
        y = rng.standard_normal((n, 2))
        omegas = TWO_PI * np.arange(n // 2 + 1) / (n * dt)
        A, residual = fit_rows(y, omegas, dt)
        assert np.abs(residual).max() <= 1e-8
        recon = evaluate_harmonics(A, omegas, 0.0, dt, n)
        assert np.abs(recon - y).max() <= 1e-8

    @pytest.mark.parametrize("n, dt, bins, t0", [
        pytest.param(256, 2.0, np.arange(129), 0.0, id="full-lattice"),
        pytest.param(300, 0.25, [0, 3, 17, 41, 90], 7.3, id="sparse-t0"),
        pytest.param(64, 1.0, [0, 5, 32], 3.0, id="even-nyquist"),
        pytest.param(63, 1.0, [0, 4, 31], 2.0, id="odd-top-bin"),
    ])
    def test_matches_qr_oracle(self, n, dt, bins, t0):
        # A refers its phase to the first row, at t0, which the residual
        # keeps; the oracle's coefficients, referred to time 0, are
        # A_j exp(-i omega_j t0)
        rng = np.random.default_rng(n)
        y = rng.standard_normal((n, 2))
        omegas = TWO_PI * np.asarray(bins) / (n * dt)
        A, residual = fit_periodic(TimeSeries(y, dt=dt, t0=t0), omegas)
        assert (residual.t0, residual.dt) == (t0, dt)
        fitted = evaluate_harmonics(A, omegas, 0.0, dt, n)
        A_qr, fitted_qr = qr_fit(y, omegas, dt, t0=t0)
        scale = np.abs(y).max()
        rotated = A * np.exp(-1j * omegas * t0)[:, None]
        assert np.abs(rotated - A_qr).max() <= 1e-12 * scale
        assert np.abs(fitted - fitted_qr).max() <= 1e-12 * scale
        # the fit is the masked rFFT of the rows
        np.testing.assert_array_equal(A, rfft_harmonics(y, bins))
        assert np.abs(fitted - masked_irfft(y, bins)).max() <= 1e-12 * scale
        np.testing.assert_array_equal(residual.values, y - fitted)

    def test_off_grid_lattice_is_refused(self):
        # pure_torus_2 at 4000 samples, whose drivers fall between the bins
        # of 4000 rows: its lattice frequencies |a| + |b| <= 3 are no DFT
        # bins, and the first nonzero one is named
        system = standard_testbed("pure_torus_2")
        y = simulate(system, 4000, 1.0).series
        w1, w2 = system.driver.omega
        omegas = np.unique([a * w1 + b * w2 for a in range(-3, 4)
                            for b in range(-3, 4)
                            if abs(a) + abs(b) <= 3 and a * w1 + b * w2 >= 0])
        assert omegas[0] == 0.0
        with pytest.raises(DataError, match=r"^frequency 1 at \S+ rad/s is "
                                            r"not a DFT bin of the 4000 rows"):
            fit_periodic(y, omegas)

    @pytest.mark.parametrize("n, dt", [(200, 0.5), (4076, 1.0), (63, 0.7)])
    def test_bin_is_taken_within_the_grid_tolerance(self, n, dt):
        # a bin computed in another operation order, j * (2*pi/(N*dt)), is
        # the bin, and gives the projection's bits; the same bin off by a
        # relative 1e-6 is refused, naming it and its nearest bin
        y = np.random.default_rng(n).standard_normal((n, 2))
        bins = np.array([0, 1, 7, n // 2 - 1, n // 2])
        omegas = bins * (TWO_PI / (n * dt))
        A, _ = fit_rows(y, omegas, dt)
        np.testing.assert_array_equal(A, rfft_harmonics(y, bins))
        nudged = omegas.copy()
        nudged[2] *= 1.0 + 1e-6
        with pytest.raises(DataError, match=rf"^frequency 2 at \S+ rad/s is "
                                            rf"not a DFT bin of the {n} rows: "
                                            rf"the nearest is bin 7 at "):
            fit_rows(y, nudged, dt)
        copy = np.insert(omegas, 3, omegas[2] * (1.0 + 1e-10))
        with pytest.raises(DataError, match=r"^frequencies 2 and 3 at \S+ "
                                            r"and \S+ rad/s are both bin 7 "):
            fit_rows(y, copy, dt)


class TestFitChaotic:
    def test_zero_residual_gives_zero_coefficients(self, torus_model):
        # every window coincides at 0: the bandwidth is the least normal
        # float, and the successors, the map's coefficients, are all zero
        model, s = torus_model
        zero = replace(model.residual, values=np.zeros_like(model.residual.values))
        fit = fit_chaotic(model.omegas, model.A, zero)
        assert fit.epsilon == np.finfo(float).tiny
        assert not fit.rows[:-1].any()
        np.testing.assert_array_equal(eval_chaotic(fit, model.windows[:5]),
                                      np.zeros((5, model.k)))

    def test_basis_element_hits_single_row(self):
        # a residual that is one sample k_vec at row 20 and zero elsewhere:
        # the map's coefficients hold k_vec in the successor of window 20 - W
        # alone
        k_vec = np.array([2.0, -1.0, 0.5])
        values = np.zeros((60, 3))
        values[20] = k_vec
        model = fit_chaotic(np.zeros(0), np.zeros((0, 3)),
                            TimeSeries(values, dt=1.0))
        np.testing.assert_array_equal(model.rows[:-1, 20 - W], k_vec)
        mask = np.ones(len(model.windows), dtype=bool)
        mask[20 - W] = False
        assert not model.rows[:-1, mask].any()

    def test_completeness_at_L_equals_N(self):
        # at stride 1 nothing is left out: the first kept window and the
        # successors of all kept windows are the whole residual
        rng = np.random.default_rng(2)
        res = TimeSeries(rng.standard_normal((80, 2)), dt=1.0)
        model = fit_chaotic(np.zeros(0), np.zeros((0, 2)), res)
        assert len(model.windows) == 80 - W
        back = np.vstack([model.windows[0].reshape(W, 2), model.rows[:-1].T])
        np.testing.assert_array_equal(back, res.values)

    def test_row_mismatch(self):
        # 4 rows hold out 1 and leave no window of 3 with a successor
        # before it; 5 rows leave one
        short = TimeSeries(np.arange(8.0).reshape(4, 2), dt=1.0)
        with pytest.raises(DataError, match="a residual of 4 rows holds out "
                                            "its last 1 and leaves no window "
                                            "of 3 samples"):
            fit_chaotic(np.zeros(0), np.zeros((0, 2)), short)
        five = TimeSeries(np.arange(10.0).reshape(5, 2) ** 2, dt=1.0)
        assert len(fit_chaotic(np.zeros(0), np.zeros((0, 2)),
                               five).windows) == 2

    @pytest.mark.parametrize("stride", [1, 3])
    def test_bandwidth_is_the_best_rung(self, stride, monkeypatch):
        # brute-force oracle: the ladder's quantiles of the exact squared
        # distances from each held-out window to each earlier kept window,
        # and the mean squared one-step error of each rung's average.  A
        # cap of 134 gives stride 3 at 400 rows
        if stride == 3:
            monkeypatch.setattr(kernel, "REFERENCE_CAP", 134)
        x = logistic(400, 2)
        res = TimeSeries(x, dt=1.0)
        model = fit_chaotic(np.zeros(0), np.zeros((0, 2)), res)
        assert model.stride == stride
        start = 400 - int(np.ceil(HELD_OUT * 400))
        wins = np.array([x[m:m + W].ravel() for m in range(400 - W + 1)])
        refs, queries = wins[:start - W:stride], wins[start - W:400 - W]
        succ = x[W:start:stride]
        d2 = ((queries[:, None] - refs[None]) ** 2).sum(axis=2)
        ladder = np.quantile(d2[d2 > 0], EPSILON_LADDER)
        errors = []
        for eps in ladder:
            w = np.exp(-(d2 - d2.min(axis=1, keepdims=True)) / eps)
            pred = (w @ succ) / w.sum(axis=1, keepdims=True)
            errors.append(np.mean((pred - x[start:]) ** 2))
        best = ladder[int(np.argmin(errors))]
        assert abs(model.epsilon - best) <= 1e-10 * best
        # on chaos the map beats persistence
        assert min(errors) < 0.1 * np.mean((queries[:, -2:] - x[start:]) ** 2)

    def test_coincident_windows_recall_their_successor(self):
        # a residual that repeats every 4 samples exactly: a quarter of the
        # pairs coincide, so every rung's quantile is 0 and the bandwidth is
        # the log-weights' resolution, at which each window recalls the
        # successor it shares with its copies
        period = np.array([[1.0, 0.5], [0.0, -0.5], [-1.0, 0.25], [0.0, 2.0]])
        res = TimeSeries(np.tile(period, (60, 1)), dt=1.0)
        model = fit_chaotic(np.zeros(0), np.zeros((0, 2)), res)
        assert model.epsilon == np.finfo(float).eps * model.sq.max()
        got = eval_chaotic(model, model.windows)
        np.testing.assert_array_equal(got, successors(model))


class TestEvalPeriodic:
    def test_constant_model(self):
        A, _ = fit_rows(np.full((20, 1), 2.5), [0.0], 1.0)
        for t0, dt, n in ((0.0, 17.3, 2), (1e6, 1.0, 1)):
            model_eval = evaluate_harmonics(A, [0.0], t0, dt, n)
            np.testing.assert_allclose(model_eval, 2.5)

    def test_bin_lattice_periodicity(self):
        # every bin frequency has period dividing N*dt
        n, dt = 128, 1.0
        rng = np.random.default_rng(3)
        y = rng.standard_normal((n, 1))
        omegas = TWO_PI * np.array([0, 3, 7, 20]) / (n * dt)
        A, _ = fit_rows(y, omegas, dt)
        a, b = evaluate_harmonics(A, omegas, 0.0, n * dt, 2)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_fit_eval_consistency(self):
        # rows fitted from 3.5 s on the input's clock: the residual keeps
        # that time, and is the rows less eval_periodic at the row times,
        # bit for bit, which is the direct sum at the offsets from the
        # first row
        rng = np.random.default_rng(4)
        n, dt = 150, 0.7
        y = rng.standard_normal((n, 2))
        omegas = TWO_PI * np.array([0, 15, 37]) / (n * dt)
        times = (5 + np.arange(n)) * dt
        A, residual = fit_periodic(TimeSeries(y, dt=dt, t0=times[0]), omegas)
        assert residual.t0 == times[0]
        model = QPModel(omegas, A, residual, 1.0)
        fitted = eval_periodic(model, times[0], n)
        np.testing.assert_array_equal(residual.values, y - fitted)
        recon = direct_harmonics(A, omegas, times - times[0])
        assert np.abs(recon - fitted).max() <= 1e-10

    @pytest.mark.parametrize("t0_steps", [0, 10**6])
    @pytest.mark.parametrize("n", [1, 600])
    def test_grid_matches_direct_sum(self, t0_steps, n):
        # re-anchored blocks of 256 rows, the last one partial at n = 600,
        # and far from the clock's origin, where either sum rounds phases
        # of up to 3e6 rad, so each is off the exact sum by up to 4e-11
        rng = np.random.default_rng(9)
        n_fit, dt = 150, 0.7
        y = rng.standard_normal((n_fit, 2))
        omegas = TWO_PI * np.array([0, 15, 37, 75]) / (n_fit * dt)
        A, _ = fit_rows(y, omegas, dt)
        t0 = t0_steps * dt
        got = evaluate_harmonics(A, omegas, t0, dt, n)
        ref = direct_harmonics(A, omegas, t0 + np.arange(n) * dt)
        assert got.shape == (n, 2)
        assert np.abs(got - ref).max() <= 1e-10


class TestEvalChaotic:
    def test_in_sample_consistency(self, chaos_model):
        # at a bandwidth far below the windows' spacing, a kept window
        # returns its own successor
        model = replace(chaos_model, epsilon=1e-4)
        for n in (0, 100, 400):
            got = eval_chaotic(model, model.windows[n])
            np.testing.assert_allclose(got, successors(model)[n], atol=1e-12)

    def test_zero_model_returns_zero(self, torus_model):
        model, _ = torus_model
        zero = replace(model, residual=replace(
            model.residual, values=np.zeros_like(model.residual.values)))
        out = eval_chaotic(zero, model.windows[10])
        np.testing.assert_array_equal(out, np.zeros(model.k))

    def test_far_out_of_distribution_bounded(self, chaos_model):
        model = chaos_model
        bound = chaotic_sup_bound(model)
        y = np.full(model.windows.shape[1], 1e5)
        out = eval_chaotic(model, y)
        assert np.isfinite(out).all()
        assert np.linalg.norm(out) <= bound + 1e-9

    def test_dimension_mismatch(self, torus_model):
        model, _ = torus_model
        with pytest.raises(DataError, match="dimension"):
            eval_chaotic(model, np.ones(model.windows.shape[1] + 1))

    def test_matches_exact_difference_oracle(self, chaos_model):
        model = chaos_model
        wins = model.windows
        rng = np.random.default_rng(8)
        queries = [wins[0], wins[100], wins[400],
                   wins.mean(0) + wins.std(0) * rng.standard_normal(wins.shape[1]),
                   rng.uniform(-1.0, 1.0, wins.shape[1]),
                   np.full(model.windows.shape[1], 1e5)]
        for y in queries:
            ref = exact_chaos(model, y)
            got = eval_chaotic(model, y)
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_training_points_in_blocks(self, chaos_model):
        # every residual window at once, across several row blocks, against
        # the exact-difference oracle
        model = chaos_model
        wins = delay_embed(model.residual, CHAOS_DELAYS).points
        got = eval_chaotic(model, wins)
        ref = np.array([exact_chaos(model, y) for y in wins])
        assert got.shape == ref.shape == (model.n - CHAOS_DELAYS, model.k)
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_one_window_is_a_block_of_one(self, chaos_model):
        # a window (dim,), its block (1, dim) and a (2, 3, dim) stack take
        # the one block loop: the same bits in the input's leading shape
        model = chaos_model
        wins = model.windows
        rng = np.random.default_rng(11)
        for y in (wins[7], rng.standard_normal(wins.shape[1])):
            one = eval_chaotic(model, y)
            block = eval_chaotic(model, y[None, :])
            assert one.shape == (model.k,) and block.shape == (1, model.k)
            np.testing.assert_array_equal(one, block[0])
        stack = eval_chaotic(model, wins[:6].reshape(2, 3, -1))
        assert stack.shape == (2, 3, model.k)
        np.testing.assert_array_equal(stack.reshape(6, -1),
                                      eval_chaotic(model, wins[:6]))

    def test_ragged_blocks_match_each_state(self, chaos_model):
        # 600 states are row blocks of 256, 256 and 88
        model = chaos_model
        wins = model.windows
        rng = np.random.default_rng(3)
        extra = wins[:600 - len(wins)] + 0.1 * rng.standard_normal(
            (600 - len(wins), wins.shape[1]))
        states = np.concatenate([wins, extra])
        got = eval_chaotic(model, states)
        ref = np.array([eval_chaotic(model, y) for y in states])
        assert got.shape == (600, model.k)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestLogWeights:
    """The scaled log-weights z of a query: ``exp(z - max z)`` are its kernel
    values, shifted so that the nearest point weighs 1."""

    @staticmethod
    def weights_at(pts, eps, y):
        z = log_weights(pts, np.einsum("ij,ij->i", pts, pts), eps, y)
        return np.exp(z - z.max(axis=0))

    def test_self_similarity(self):
        pts = np.random.default_rng(9).standard_normal((25, 3))
        vec = self.weights_at(pts, 2.0, pts[7])
        np.testing.assert_allclose(vec[7], 1.0)
        kernel_row = np.exp(-((pts - pts[7]) ** 2).sum(axis=1) / 2.0)
        np.testing.assert_allclose(vec, kernel_row, atol=1e-12)

    def test_far_point_underflows(self):
        # the unshifted kernel underflows far away; the shifted weights stay
        # finite with the nearest point at weight 1
        pts = np.random.default_rng(10).standard_normal((10, 2))
        y = np.full(2, 1e4)
        assert (np.exp(-((pts - y) ** 2).sum(axis=1)) == 0.0).all()
        vec = self.weights_at(pts, 1.0, y)
        assert np.isfinite(vec).all() and vec.max() == 1.0

    def test_per_entry_formula_oracle(self):
        pts = np.random.default_rng(11).standard_normal((40, 4))
        eps = 1.3
        y = np.random.default_rng(12).standard_normal(4)
        dmin = ((pts - y) ** 2).sum(axis=1).min()
        vec = self.weights_at(pts, eps, y) * np.exp(-dmin / eps)
        for i in range(40):
            expected = np.exp(-((y - pts[i]) ** 2).sum() / eps)
            assert abs(vec[i] - expected) <= 1e-12 * max(1.0, expected)

    def test_dimension_mismatch(self):
        pts = np.random.default_rng(13).standard_normal((10, 3))
        with pytest.raises(DataError, match="dimension"):
            log_weights(pts, np.einsum("ij,ij->i", pts, pts), 1.0, np.ones(4))


class TestReconstruct:
    def test_periodic_only_matches_eval_grid(self, torus_model):
        model, s = torus_model
        per_model = replace(model, residual=replace(
            model.residual, values=np.zeros_like(model.residual.values)))
        ts = reconstruct(per_model, s, 50, 300)
        np.testing.assert_allclose(ts.values, eval_periodic(model, 50.0, 300),
                                   atol=1e-12)
        assert ts.t0 == 50.0 and ts.dt == model.dt

    def test_training_window_free_run_accuracy(self, torus_model):
        # synthetic oracle: free-run over the training window tracks the
        # truth within 1% relative error
        model, s = torus_model
        q = 3
        steps = s.n - (q + 1)
        run = reconstruct(model, s, q + 1, steps)
        truth = TimeSeries(s.values[q + 1:], dt=model.dt)
        err = relative_error(truth, run)
        assert err.max() <= 1e-2

    def test_deterministic(self, chaos_model, torus_model):
        _, s = torus_model
        a = reconstruct(chaos_model, s, W, 100)
        b = reconstruct(chaos_model, s, W, 100)
        assert np.array_equal(a.values, b.values)

    def test_divergence_reports_step(self, torus_model):
        # a model holds no non-finite A or residual, but a huge A overflows
        # g_per, and a huge residual the squared norms of its windows
        model, s = torus_model
        with pytest.raises(DataError, match="model A has NaN"):
            replace(model, A=np.full_like(model.A, np.inf))
        with pytest.raises(DataError, match="NaN or infinite"):
            replace(model.residual,
                    values=np.full_like(model.residual.values, np.inf))
        with np.errstate(over="ignore", invalid="ignore"):
            bad = [replace(model, A=np.full_like(model.A, 1e308)),
                   replace(model, residual=replace(
                       model.residual,
                       values=np.full_like(model.residual.values, 1e308)))]
            for m in bad:
                with pytest.raises(NumericalError, match="step 0"):
                    reconstruct(m, s, W, 10)

    def test_free_run_respects_computable_bound(self, torus_model,
                                                chaos_model):
        # on the fitted torus, whose residual is rounding noise, and on a
        # random residual that makes the driven part about a third of each
        # sample
        model, s = torus_model
        for m in (model, chaos_model):
            succ = successors(m)
            assert chaotic_sup_bound(m) == np.linalg.norm(succ, axis=1).max()
            bound = periodic_sup_bound(m) + chaotic_sup_bound(m)
            run = reconstruct(m, s, W, 2 * s.n)
            assert np.linalg.norm(run.values, axis=1).max() <= bound + 1e-9

    def test_a_start_far_along_the_clock_warns(self, torus_model):
        # the series stamped 999 training spans later is on the model's
        # clock as far as the run can tell; 1000 spans and a step later, it
        # warns, naming both times, and runs on it all the same
        model, s = torus_model
        span = model.n * model.dt
        near = replace(s, t0=999 * span)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reconstruct(model, near, W, 5).t0 == near.t0 + W
        far = replace(s, t0=1000 * span + 1.0)
        with pytest.warns(UserWarning, match=r"starts at 512004 s, more than "
                          r"1000 training spans from the model's first "
                          r"fitted row at 3 s") as caught:
            run = reconstruct(model, far, W, 5)
        assert len(caught) == 1 and run.t0 == far.t0 + W

    @pytest.fixture(scope="class")
    def cases(self, fitted_torus, chaos_model):
        """A model and its series: the fitted torus, and over a logistic
        residual the same model, one fitted at q = 0 and one at stride 3."""
        _, model, s = fitted_torus
        _, model0, s0 = fit_torus(515, 0)
        with reference_cap(STRIDE_3_CAP):
            strided = with_chaos(fit_torus(515, 3, stride=3)[1])
            assert (model0.n, strided.stride) == (515, 3)
        return {"torus": (model, s), "q0": (with_chaos(model0), s0),
                "chaotic": (chaos_model, s), "strided": (strided, s)}

    @pytest.mark.parametrize("case", ["torus", "q0", "chaotic", "strided"])
    def test_matches_exact_difference_oracle(self, cases, case):
        # on chaos the two runs part at the rate of the map's own
        # divergence, 1e-16 to 1e-12 in 20 to 30 steps, so those cases run 12
        model, s = cases[case]
        steps = 800 if case == "torus" else 12
        init = window_before(model, s, W)
        ref = exact_reconstruct(model, init, steps, W * model.dt)
        got = reconstruct(model, s, W, steps)
        scale = np.abs(ref).max()
        assert np.abs(got.values - ref).max() <= 1e-12 * scale
        if case != "torus":
            # the driven part carries weight, so wrong weights would show
            chaos = ref - eval_periodic(model, W * model.dt, steps)
            assert np.abs(chaos).max() >= 0.05 * scale

    def test_strided_model_keeps_its_stride_outside_the_cap(self, cases):
        # built under a cap of STRIDE_3_CAP and read outside it, the model
        # keeps the stride of its windows: every third one
        model, _ = cases["strided"]
        assert kernel.REFERENCE_CAP != STRIDE_3_CAP
        assert model.stride == 3
        wins = delay_embed(model.residual, CHAOS_DELAYS).points
        np.testing.assert_array_equal(model.windows, wins[:-1:3])
        np.testing.assert_array_equal(model.rows[:-1].T,
                                      model.residual.values[W::3])

    def test_long_horizon_matches_exact_difference_oracle(self, cases):
        # the torus run contracts onto its periodic part, so the two runs
        # stay together over 2100 steps
        model, s = cases["torus"]
        init = window_before(model, s, W)
        ref = exact_reconstruct(model, init, 2100, W * model.dt)
        got = reconstruct(model, s, W, 2100)
        assert np.abs(got.values - ref).max() <= 1e-11 * np.abs(ref).max()

    @pytest.mark.parametrize("case", ["torus", "q0", "chaotic", "strided"])
    def test_every_step_equals_the_evaluators(self, cases, case):
        # each step is eval_periodic + eval_chaotic of its window, bit for
        # bit: there is one evaluator
        model, s = cases[case]
        steps = 300
        state = window_before(model, s, W)
        got = reconstruct(model, s, W, steps).values
        per = eval_periodic(model, W * model.dt, steps)
        for i in range(steps):
            r = eval_chaotic(model, state)
            assert np.array_equal(got[i], per[i] + r)
            state = np.concatenate([state[model.k:], r])


class TestDecompositionIdentity:
    def test_three_way_split(self, torus_model, model_basis, torus_E):
        # Y = periodic fit + basis synthesis + remainder, with the remainder
        # orthogonal to both the harmonic design and the basis
        model, s = torus_model
        basis, _ = model_basis
        q = s.n - basis.n
        y = s.values[q:]
        synth_rows = synthesize(basis, torus_E)
        fitted = eval_periodic(model, model.residual.t0, len(y))
        remainder = y - fitted - synth_rows
        np.testing.assert_allclose(fitted + model.residual.values, y,
                                   atol=1e-10)
        inner = basis.Phi.T @ remainder / basis.n
        assert np.abs(inner).max() <= 1e-8
        t = (q + np.arange(len(y))) * model.dt
        cols = [np.ones(len(y))]
        for om in model.omegas[1:]:
            cols += [np.cos(om * t), np.sin(om * t)]
        G = np.stack(cols, 1)
        assert np.abs(G.T @ model.residual.values).max() / len(y) <= 1e-8


class TestRelativeError:
    def test_identity_is_zero(self):
        s = TimeSeries(np.random.default_rng(5).standard_normal((30, 2)), dt=1.0)
        err = relative_error(s, s)
        np.testing.assert_array_equal(err, np.zeros((30, 2)))

    def test_formula(self):
        truth = TimeSeries(np.full((10, 1), 10.0) * np.sign(np.arange(10) - 4.5)[:, None],
                           dt=1.0)
        est = TimeSeries(truth.values - 1.0, dt=1.0)
        err = relative_error(truth, est)
        np.testing.assert_allclose(err, 0.1)

    def test_zero_channel_rejected(self):
        truth = TimeSeries(np.zeros((5, 1)), dt=1.0)
        est = TimeSeries(np.ones((5, 1)), dt=1.0)
        with pytest.raises(DataError, match="all-zero"):
            relative_error(truth, est)

    def test_shape_and_dt_mismatch(self):
        a = TimeSeries(np.ones((5, 1)), dt=1.0)
        b = TimeSeries(np.ones((6, 1)), dt=1.0)
        c = TimeSeries(np.ones((5, 1)), dt=2.0)
        with pytest.raises(DataError):
            relative_error(a, b)
        with pytest.raises(DataError):
            relative_error(a, c)


class TestMovingAverage:
    def test_window_one_is_identity(self):
        x = np.random.default_rng(6).standard_normal(25)
        np.testing.assert_array_equal(moving_average(x, 1), x)

    def test_constant_series_unchanged(self):
        x = np.full(12, 3.3)
        np.testing.assert_allclose(moving_average(x, 5), x)

    def test_step_series_ramp(self):
        # hand-computed trailing mean across a 0/1 step with window 4
        x = np.array([0.0, 0, 0, 0, 1, 1, 1, 1])
        expected = np.array([0.0, 0, 0, 0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(moving_average(x, 4), expected)

    def test_smoothing_reduces_variance_monotonically(self, torus_model):
        # the error series of a noisy estimate gets calmer as M grows
        model, s = torus_model
        rng = np.random.default_rng(7)
        truth = TimeSeries(s.values[:400], dt=1.0)
        est = TimeSeries(s.values[:400] + 0.3 * rng.standard_normal((400, s.k)),
                         dt=1.0)
        err = relative_error(truth, est)[:, 0]
        variances = [moving_average(err, m).var() for m in (1, 10, 100)]
        assert variances[0] > variances[1] > variances[2]

    def test_bad_window(self):
        with pytest.raises(DataError):
            moving_average(np.ones(5), 0)


class TestModelRoundTrip:
    def test_save_load_preserves_behaviour(self, chaos_model, torus_model,
                                           tmp_path):
        model = chaos_model
        _, s = torus_model
        path = tmp_path / "model.npz"
        save_model(model, path)
        back = load_model(path)
        for name in ("omegas", "A", "windows", "rows"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(model, name))
        np.testing.assert_array_equal(back.residual.values,
                                      model.residual.values)
        assert back.residual.channel_names == model.residual.channel_names
        assert (back.residual.dt, back.residual.t0) == (model.dt, 3.0)
        assert (back.epsilon, back.stride) == (model.epsilon, model.stride)
        assert chaotic_sup_bound(back) == chaotic_sup_bound(model)
        assert periodic_sup_bound(back) == periodic_sup_bound(model)
        a = reconstruct(model, s, W, 50)
        b = reconstruct(back, s, W, 50)
        np.testing.assert_array_equal(a.values, b.values)

    def test_frequencies_are_kept_as_checked_floats(self):
        # a model built from a list keeps the float vector it checked, so
        # the sup bound weighs its zero frequency once, as from an array
        res = TimeSeries(logistic(40, 2), dt=1.0)
        A = np.array([[1.0, 0.5], [0.25 + 0.5j, -0.1j]])
        from_list = QPModel(omegas=[0.0, 0.5], A=A, residual=res, epsilon=1.0)
        from_array = QPModel(omegas=np.array([0.0, 0.5]), A=A, residual=res,
                             epsilon=1.0)
        assert from_list.omegas.dtype == float
        np.testing.assert_array_equal(from_list.omegas, from_array.omegas)
        assert periodic_sup_bound(from_list) == periodic_sup_bound(from_array)

    @pytest.mark.parametrize("omegas, A", [
        pytest.param(np.zeros(0), np.zeros((0, 2)), id="no-harmonics"),
        pytest.param([0.0, 0.5], np.array([[1.5, -0.5], [0.25, 2.0]]),
                     id="real"),
        pytest.param([0.0, 0.5], [[1.5, -0.5], [0.25 + 0.5j, 2.0]],
                     id="list"),
    ])
    def test_real_and_list_coefficients_round_trip(self, omegas, A,
                                                   tmp_path):
        # the model keeps A as a complex array, which save_model writes and
        # load_model reads back, so a real A loads and a list A has a shape
        res = TimeSeries(logistic(40, 2), dt=1.0)
        model = fit_chaotic(omegas, A, res)
        assert model.A.dtype == complex
        np.testing.assert_array_equal(model.A, np.asarray(A))
        path = tmp_path / "model.npz"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.A, model.A)
        assert back.epsilon == model.epsilon
        np.testing.assert_array_equal(reconstruct(back, res, W, 20).values,
                                      reconstruct(model, res, W, 20).values)

    def test_model_file_is_deterministic(self, torus_model, tmp_path):
        model, _ = torus_model
        p1, p2 = tmp_path / "m1.npz", tmp_path / "m2.npz"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_the_earlier_file(self, torus_model,
                                                 tmp_path):
        # the archive is written under a temporary name and renamed onto
        # the path, so a write that fails midway leaves the old file whole
        from qpdecomp._npz import write_npz

        model, _ = torus_model
        path = tmp_path / "model.npz"
        save_model(model, path)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write_npz(path, {"A": model.A,
                             "bad": np.array([object()], dtype=object)})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_load_and_free_run_build_no_n_by_n_array(self, tmp_path):
        n, q, dt = 1503, 3, 1.0
        s = torus_series(n, [TWO_PI * 200 / (n - q), TWO_PI * 321 / (n - q)],
                         mix_seed=7, n_channels=3, dt=dt)
        emb = delay_embed(s, q)
        eps = 0.02 * pair_quantile(emb, 0.5)
        basis = decompose(emb, eps, 40)
        sel = select(rkhs_norm_table(basis, dt), eps1=0.1, eps2=2.5, L0=10)
        A, residual = fit_periodic(window(s, q, n), sel.omegas)
        model = fit_chaotic(sel.omegas, A, residual)
        path = tmp_path / "model.npz"
        save_model(model, path)
        del basis, model
        tracemalloc.start()
        try:
            back = load_model(path)
            reconstruct(back, s, q + 1, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_pts = n - q
        assert peak < n_pts * n_pts * 8 / 4, f"peak {peak} bytes"


class TestReferenceModel:
    """A model of a residual long enough for stride 3, under a cap of
    ``STRIDE_3_CAP``, whose kernel took every third point too: it keeps
    every third residual window and weighs the query against those alone."""

    @pytest.fixture(scope="class")
    def strided(self):
        with reference_cap(STRIDE_3_CAP):
            basis, model, s = fit_torus(515, 3, stride=3)
            return basis, with_chaos(model), s

    @pytest.fixture(autouse=True)
    def stride_3(self, monkeypatch):
        # a model built here, as replace and load_model build one, takes
        # the same stride as the fixture's
        monkeypatch.setattr(kernel, "REFERENCE_CAP", STRIDE_3_CAP)

    def test_in_sample_recalls_the_successors(self, strided):
        # at a bandwidth 1e-3 of the smallest squared distance between kept
        # windows, every kept window returns its own successor
        _, model, _ = strided
        wins = model.windows
        d2 = ((wins[:, None] - wins[None]) ** 2).sum(axis=2)
        d2_min = d2[~np.eye(len(wins), dtype=bool)].min()
        model = replace(model, epsilon=1e-3 * d2_min)
        got = eval_chaotic(model, model.windows)
        np.testing.assert_allclose(got, successors(model), atol=1e-12)

    def test_one_successor_per_kept_window(self, strided):
        basis, model, _ = strided
        assert model.stride == 3 and model.n == 512
        assert len(model.windows) == 170 == -(-(512 - W) // 3)
        wins = delay_embed(model.residual, CHAOS_DELAYS).points
        np.testing.assert_array_equal(model.windows, wins[:-1:3])
        np.testing.assert_array_equal(model.rows[:-1].T,
                                      model.residual.values[W::3])
        np.testing.assert_array_equal(model.rows[-1], np.ones(170))

    def test_free_run_within_the_bound(self, strided):
        _, model, s = strided
        run = reconstruct(model, s, W, 600)
        bound = periodic_sup_bound(model) + chaotic_sup_bound(model)
        assert np.linalg.norm(run.values, axis=1).max() <= bound
        chaos = run.values - eval_periodic(model, W * model.dt, 600)
        c = np.linalg.norm(model.residual.values[W::3], axis=1).max()
        assert chaotic_sup_bound(model) == c
        assert np.linalg.norm(chaos, axis=1).max() <= c * (1 + 1e-12)

    def test_round_trip_keeps_the_stride(self, strided, tmp_path):
        _, model, s = strided
        path = tmp_path / "model.npz"
        save_model(model, path)
        back = load_model(path)
        assert back.stride == 3
        np.testing.assert_array_equal(back.windows, model.windows)
        np.testing.assert_array_equal(
            reconstruct(back, s, W, 300).values,
            reconstruct(model, s, W, 300).values)

    def test_step_count_over_budget_allocates_nothing(self, torus_model):
        model, s = torus_model
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="1000000000000 steps of 3 "
                                                "channels need .+ MB of "
                                                "memory is available"):
                reconstruct(model, s, W, 10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"peak {peak} bytes"


class TestStateBefore:
    """The residual window before a sample, the initial condition of a free
    run from it, and blocks of them: :func:`residual_windows`."""

    def test_layout_matches_embedding(self, torus_model):
        # the 3 samples before sample 10, less g_per at their times, oldest
        # first; a block of windows is the same windows stacked
        model, s = torus_model
        init = window_before(model, s, 10)
        per = eval_periodic(model, 7 * model.dt, 3)
        np.testing.assert_array_equal(init, (s.values[7:10] - per).ravel())
        block = residual_windows(model, s, 10, 40)
        assert block.shape == (30, model.windows.shape[1])
        np.testing.assert_allclose(block[0], init, atol=1e-12)
        np.testing.assert_allclose(block[-1], window_before(model, s, 39),
                                   atol=1e-12)

    def test_too_early(self, torus_model):
        model, s = torus_model
        with pytest.raises(DataError, match="prediction start 2 must be >= 3 "
                                            "so a residual window exists"):
            residual_windows(model, s, 2, 3)
        with pytest.raises(DataError, match="prediction start 516 is beyond "
                                            "series length 515"):
            residual_windows(model, s, 516, 517)
