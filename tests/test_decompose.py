import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from qpdecomp import (
    DataError,
    NumericalError,
    TimeSeries,
    delay_embed,
)
from qpdecomp.decompose import (
    PeriodicFit,
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
    save_model,
    state_before,
)
from qpdecomp.freqfilter import FrequencySelection, rkhs_norm_table, select
from qpdecomp.spectral import decompose

from conftest import (
    direct_harmonics,
    masked_irfft,
    pair_quantile,
    synthesize,
    torus_series,
)

TWO_PI = 2 * np.pi


def make_selection(omegas, n, dt):
    """Selection of the given frequencies, filed under their nearest DFT bin
    of the n-row grid at step dt (so an off-grid frequency stays off-grid)."""
    omegas = np.asarray(omegas, dtype=float)
    return FrequencySelection(
        indices=np.rint(omegas * n * dt / TWO_PI).astype(int),
        omegas=omegas,
        amplitudes=np.ones(len(omegas)),
        growth=np.zeros(len(omegas)),
        L0=2,
    )


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


def einsum_chaos(basis, E, y):
    """Reference chaotic step: exact differences ``points - y`` and the
    chaos matrix rebuilt from the basis (slow; the model uses squared norms
    and a stored matrix)."""
    pts = basis.embedding.points
    c = basis.Gamma / np.sqrt(basis.q)[:, None]
    M = (c / basis.sigma[None, :]) @ E
    diff = pts - y[None, :]
    d2 = np.einsum("ij,ij->i", diff, diff)
    w = np.exp(-(d2 - d2.min()) / basis.epsilon)
    return np.sqrt(basis.n) * (w @ M) / w.sum()


def gemv_reconstruct(model, init, n_steps, t_start):
    """Reference free run: every step evaluates g_chaos of the window afresh
    by :func:`eval_chaotic`, a full matrix-vector product with the
    N x k(q+1) points, where :func:`reconstruct` slides their scaled
    log-weights forward.  Returns the (n_steps, k) samples."""
    state = np.asarray(init, dtype=float).ravel().copy()
    k = model.k
    out = eval_periodic(model, t_start, n_steps)
    for i in range(n_steps):
        y_new = out[i] + eval_chaotic(model, state)
        out[i] = y_new
        state = np.concatenate([state[k:], y_new])
    return out


def random_chaos(basis, k):
    """A seeded random E (L x k), entries of standard deviation
    ``0.3 / sqrt(L)``.

    The fitted E of a pure torus is rounding noise, so wrong kernel weights
    in its free run would not show; with this E the chaotic part is about
    half of each sample.
    """
    rng = np.random.default_rng(0)
    return 0.3 * rng.standard_normal((basis.L, k)) / np.sqrt(basis.L)


def with_random_chaos(basis, model):
    """``model`` with the chaotic coefficients of :func:`random_chaos`."""
    return QPModel.from_basis(basis, model.omegas, model.A,
                              random_chaos(basis, model.k))


def sum_of_extension_bounds(basis, E):
    """The earlier chaotic sup bound ``sum_l |E[l, :]|_2 * sup|ext_l|``,
    with ``sup|ext_l| <= sqrt(N) max_n |Gamma[n, l] / sqrt(q_n)| / sigma_l``;
    :func:`chaotic_sup_bound` is never above it."""
    c = basis.Gamma / np.sqrt(basis.q)[:, None]
    ext = np.sqrt(basis.n) * np.abs(c).max(axis=0) / basis.sigma
    return float((np.linalg.norm(E, axis=1) * ext).sum())


def fit_torus(n, q, stride=1):
    """Eigenbasis of a bin-exact 2-torus series with q delays against every
    ``stride``-th point, the model fitted end to end on it, its periodic
    fit, and the series."""
    n_emb, dt = n - q, 1.0
    omegas = [TWO_PI * 34 / n_emb, TWO_PI * 55 / n_emb]
    s = torus_series(n, omegas, mix_seed=7, n_channels=3, dt=dt)
    emb = delay_embed(s, q)
    eps = 0.02 * pair_quantile(emb, 0.5)
    basis = decompose(emb, eps, 40, stride)
    table = rkhs_norm_table(basis, dt)
    sel = select(table, eps1=0.1, eps2=2.5, L0=10)
    pfit = fit_periodic(s.values[q:], sel, dt, t0=q * dt)
    E = fit_chaotic(pfit.residual, basis)
    return basis, QPModel.from_basis(basis, pfit.omegas, pfit.A, E), pfit, s


@pytest.fixture(scope="module")
def fitted_torus():
    return fit_torus(515, 3)


@pytest.fixture(scope="module")
def model_basis(fitted_torus):
    """Eigenbasis of a bin-exact 2-torus series with q=3, and the series."""
    basis, _, _, s = fitted_torus
    return basis, s


@pytest.fixture(scope="module")
def torus_model(fitted_torus):
    """Model fitted end to end on the model_basis series."""
    _, model, pfit, s = fitted_torus
    return model, pfit, s


@pytest.fixture(scope="module")
def torus_E(fitted_torus):
    """Chaotic coefficients E of the torus_model fit."""
    basis, _, pfit, _ = fitted_torus
    return fit_chaotic(pfit.residual, basis)


class TestFitPeriodic:
    def test_constant_fit(self):
        sel = make_selection([0.0], 50, 1.0)
        y = np.full((50, 2), 4.25)
        fit = fit_periodic(y, sel, 1.0)
        np.testing.assert_allclose(fit.A[0].real, [4.25, 4.25], atol=1e-12)
        assert np.abs(fit.A[0].imag).max() <= 1e-12
        assert np.abs(fit.residual).max() <= 1e-10

    def test_known_amplitude_and_phase(self):
        # closed-form harmonic regression: y = 3 cos + 4 sin at an exact bin
        n, dt = 256, 1.0
        omega = TWO_PI * 10 / n
        t = np.arange(n) * dt
        y = (3.0 * np.cos(omega * t) + 4.0 * np.sin(omega * t))[:, None]
        sel = make_selection([0.0, omega], n, dt)
        fit = fit_periodic(y, sel, dt)
        assert np.abs(fit.residual).max() <= 1e-9
        amp = 2.0 * np.abs(fit.A[1, 0])
        phase = np.arctan2(-fit.A[1, 0].imag, fit.A[1, 0].real)
        np.testing.assert_allclose(amp, 5.0, rtol=1e-10)
        np.testing.assert_allclose(phase, np.arctan2(4.0, 3.0), rtol=1e-10)

    def test_residual_orthogonality_normal_equations(self):
        # normal-equations oracle: design^T residual = 0 at the optimum
        rng = np.random.default_rng(0)
        n, dt = 200, 0.5
        omegas = TWO_PI * np.array([0, 2, 5, 9]) / (n * dt)
        sel = make_selection(omegas, n, dt)
        y = rng.standard_normal((n, 3))
        fit = fit_periodic(y, sel, dt)
        t = np.arange(n) * dt
        cols = [np.ones(n)]
        for om in omegas[1:]:
            cols += [np.cos(om * t), np.sin(om * t)]
        G = np.stack(cols, 1)
        assert np.abs(G.T @ fit.residual).max() <= 1e-8

    def test_duplicate_bins_error_names_frequencies(self):
        # a near-duplicate of bin 2 lands off the grid and is named; an
        # exactly repeated bin cannot be built at all
        n, dt = 40, 1.0
        omegas = TWO_PI * np.array([0.0, 2.0, 2.0 + 1e-6]) / (n * dt)
        with pytest.raises(DataError, match="strictly increasing"):
            make_selection(omegas, n, dt)
        sel = make_selection(omegas[:2], n, dt)
        near = FrequencySelection(indices=np.array([0, 2, 3]), omegas=omegas,
                                  amplitudes=np.ones(3), growth=np.zeros(3),
                                  L0=sel.L0)
        with pytest.raises(DataError, match=r"bin 3 at 0\.314159"):
            fit_periodic(np.zeros((n, 1)), near, dt)

    def test_aliased_bins_error(self):
        # omega and 2*pi/dt - omega fold onto the same sampled harmonic; the
        # folded copy is a bin beyond N//2 and is rejected
        n, dt = 40, 1.0
        sel = make_selection([0.0, TWO_PI * 3 / n, TWO_PI * 37 / n], n, dt)
        with pytest.raises(DataError, match="bin 37 .*bins 0..20"):
            fit_periodic(np.zeros((n, 1)), sel, dt)

    def test_nyquist_bin_gets_single_column(self):
        n, dt = 64, 1.0
        omega_nyq = np.pi / dt
        t = np.arange(n) * dt
        y = (1.5 + 2.0 * np.cos(omega_nyq * t))[:, None]
        sel = make_selection([0.0, omega_nyq], n, dt)
        fit = fit_periodic(y, sel, dt)
        assert np.abs(fit.residual).max() <= 1e-9
        recon = evaluate_harmonics(fit.A, fit.omegas, 0.0, dt, n)
        np.testing.assert_allclose(recon[:, 0], y[:, 0], atol=1e-9)

    def test_too_few_rows(self):
        # bins chosen on a 200-row grid do not exist on 5 rows
        sel = make_selection(TWO_PI * np.array([0, 10, 40, 80]) / 200, 200, 1.0)
        with pytest.raises(DataError, match="5-row"):
            fit_periodic(np.zeros((5, 1)), sel, 1.0)

    def test_full_bin_lattice_reproduces_exactly(self):
        # inverse-DFT property: harmonic regression on all bins 0..N/2 is exact
        rng = np.random.default_rng(1)
        n, dt = 256, 2.0
        y = rng.standard_normal((n, 2))
        omegas = TWO_PI * np.arange(n // 2 + 1) / (n * dt)
        sel = make_selection(omegas, n, dt)
        fit = fit_periodic(y, sel, dt)
        assert np.abs(fit.residual).max() <= 1e-8
        recon = evaluate_harmonics(fit.A, fit.omegas, 0.0, dt, n)
        assert np.abs(recon - y).max() <= 1e-8

    @pytest.mark.parametrize("n, dt, bins, t0", [
        pytest.param(256, 2.0, np.arange(129), 0.0, id="full-lattice"),
        pytest.param(300, 0.25, [0, 3, 17, 41, 90], 7.3, id="sparse-t0"),
        pytest.param(64, 1.0, [0, 5, 32], 3.0, id="even-nyquist"),
        pytest.param(63, 1.0, [0, 4, 31], 2.0, id="odd-top-bin"),
    ])
    def test_matches_qr_oracle(self, n, dt, bins, t0):
        rng = np.random.default_rng(n)
        y = rng.standard_normal((n, 2))
        sel = make_selection(TWO_PI * np.asarray(bins) / (n * dt), n, dt)
        fit = fit_periodic(y, sel, dt, t0=t0)
        A, fitted = qr_fit(y, sel.omegas, dt, t0=t0)
        scale = np.abs(y).max()
        assert np.abs(fit.A - A).max() <= 1e-12 * scale
        assert np.abs(fit.fitted - fitted).max() <= 1e-12 * scale
        # the fitted rows are the masked inverse rFFT of the rows
        oracle = masked_irfft(y, sel.indices)
        assert np.abs(fit.fitted - oracle).max() <= 1e-12 * scale
        np.testing.assert_array_equal(fit.residual, y - fit.fitted)


class TestFitChaotic:
    def test_zero_residual_gives_zero_coefficients(self, blob_basis):
        E = fit_chaotic(np.zeros((blob_basis.n, 2)), blob_basis)
        assert np.abs(E).max() == 0.0

    def test_basis_element_hits_single_row(self, blob_basis):
        k_vec = np.array([2.0, -1.0, 0.5])
        y_non = np.outer(blob_basis.Phi[:, 5], k_vec)
        E = fit_chaotic(y_non, blob_basis)
        np.testing.assert_allclose(E[5], k_vec, atol=1e-10)
        mask = np.ones(blob_basis.L, dtype=bool)
        mask[5] = False
        assert np.abs(E[mask]).max() <= 1e-8

    def test_completeness_at_L_equals_N(self, full_blob_basis):
        rng = np.random.default_rng(2)
        y_non = rng.standard_normal((full_blob_basis.n, 2))
        E = fit_chaotic(y_non, full_blob_basis)
        back = synthesize(full_blob_basis, E)
        assert np.abs(back - y_non).max() <= 1e-8

    def test_row_mismatch(self, blob_basis):
        with pytest.raises(DataError, match="rows"):
            fit_chaotic(np.zeros((blob_basis.n + 1, 1)), blob_basis)


class TestEvalPeriodic:
    def test_constant_model(self):
        sel = make_selection([0.0], 20, 1.0)
        fit = fit_periodic(np.full((20, 1), 2.5), sel, 1.0)
        for t0, dt, n in ((0.0, 17.3, 2), (1e6, 1.0, 1)):
            model_eval = evaluate_harmonics(fit.A, fit.omegas, t0, dt, n)
            np.testing.assert_allclose(model_eval, 2.5)

    def test_bin_lattice_periodicity(self):
        # every bin frequency has period dividing N*dt
        n, dt = 128, 1.0
        rng = np.random.default_rng(3)
        y = rng.standard_normal((n, 1))
        omegas = TWO_PI * np.array([0, 3, 7, 20]) / (n * dt)
        fit = fit_periodic(y, make_selection(omegas, n, dt), dt)
        a, b = evaluate_harmonics(fit.A, fit.omegas, 0.0, n * dt, 2)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_fit_eval_consistency(self):
        rng = np.random.default_rng(4)
        n, dt = 150, 0.7
        y = rng.standard_normal((n, 2))
        omegas = TWO_PI * np.array([0, 15, 37]) / (n * dt)
        times = (5 + np.arange(n)) * dt
        fit = fit_periodic(y, make_selection(omegas, n, dt), dt, t0=times[0])
        recon = direct_harmonics(fit.A, fit.omegas, times)
        assert np.abs(recon - fit.fitted).max() <= 1e-10

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
        fit = fit_periodic(y, make_selection(omegas, n_fit, dt), dt)
        t0 = t0_steps * dt
        got = evaluate_harmonics(fit.A, fit.omegas, t0, dt, n)
        ref = direct_harmonics(fit.A, fit.omegas, t0 + np.arange(n) * dt)
        assert got.shape == (n, 2)
        assert np.abs(got - ref).max() <= 1e-10


class TestEvalChaotic:
    def test_in_sample_consistency(self, torus_model, model_basis, torus_E):
        model, pfit, s = torus_model
        basis, _ = model_basis
        synth_rows = synthesize(basis, torus_E)
        pts = basis.embedding.points
        for n in (0, 100, 400):
            got = eval_chaotic(model, pts[n])
            ref = synth_rows[n]
            assert np.abs(got - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())

    def test_zero_model_returns_zero(self, torus_model, model_basis):
        model, pfit, s = torus_model
        basis, _ = model_basis
        zero_model = QPModel.from_basis(basis, model.omegas, model.A,
                                        np.zeros((basis.L, model.k)))
        out = eval_chaotic(zero_model, model.embedding.points[10])
        np.testing.assert_array_equal(out, np.zeros(model.k))

    def test_far_out_of_distribution_bounded(self, torus_model):
        model, pfit, s = torus_model
        bound = chaotic_sup_bound(model)
        y = np.full(model.state_dim, 1e5)
        out = eval_chaotic(model, y)
        assert np.isfinite(out).all()
        assert np.linalg.norm(out) <= bound + 1e-9

    def test_dimension_mismatch(self, torus_model):
        model, _, _ = torus_model
        with pytest.raises(DataError, match="dimension"):
            eval_chaotic(model, np.ones(model.state_dim + 1))

    def test_matches_exact_difference_oracle(self, torus_model, model_basis,
                                             torus_E):
        model, _, _ = torus_model
        basis, _ = model_basis
        pts = model.embedding.points
        rng = np.random.default_rng(8)
        queries = [pts[0], pts[100], pts[400],
                   pts.mean(0) + pts.std(0) * rng.standard_normal(pts.shape[1]),
                   rng.uniform(-3.0, 3.0, pts.shape[1]),
                   np.full(model.state_dim, 1e5)]
        for y in queries:
            ref = einsum_chaos(basis, torus_E, y)
            got = eval_chaotic(model, y)
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_training_points_in_blocks(self, torus_model, model_basis,
                                       torus_E):
        # all rows at once, across several row blocks, against Phi @ E
        model, _, _ = torus_model
        basis, _ = model_basis
        got = eval_chaotic(model, model.embedding.points)
        ref = synthesize(basis, torus_E)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_ragged_blocks_match_each_state(self, fitted_torus):
        # 600 states are row blocks of 256, 256 and 88; the model has random
        # chaos, so that each state's value carries weight
        basis, model, _, _ = fitted_torus
        model = with_random_chaos(basis, model)
        pts = model.embedding.points
        rng = np.random.default_rng(3)
        extra = pts[:600 - len(pts)] + 0.1 * rng.standard_normal(
            (600 - len(pts), pts.shape[1]))
        states = np.concatenate([pts, extra])
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
    def test_periodic_only_matches_eval_grid(self, torus_model, model_basis):
        model, pfit, s = torus_model
        basis = model_basis[0]
        per_model = QPModel.from_basis(basis, model.omegas, model.A,
                                       np.zeros((basis.L, model.k)))
        init = state_before(s, model.q + 1, model.q)
        ts = reconstruct(per_model, init, 300, t_start=50.0)
        np.testing.assert_allclose(ts.values, eval_periodic(model, 50.0, 300),
                                   atol=1e-12)
        assert ts.t0 == 50.0 and ts.dt == model.dt

    def test_training_window_free_run_accuracy(self, torus_model):
        # synthetic oracle: free-run over the training window tracks the
        # truth within 1% relative error
        model, pfit, s = torus_model
        q = model.q
        init = state_before(s, q + 1, q)
        steps = s.n - (q + 1)
        run = reconstruct(model, init, steps, t_start=(q + 1) * model.dt)
        truth = TimeSeries(s.values[q + 1:], dt=model.dt)
        err = relative_error(truth, run)
        assert err.max() <= 1e-2

    def test_deterministic(self, torus_model):
        model, pfit, s = torus_model
        init = state_before(s, model.q + 1, model.q)
        a = reconstruct(model, init, 100, 0.0)
        b = reconstruct(model, init, 100, 0.0)
        assert np.array_equal(a.values, b.values)

    def test_divergence_reports_step(self, torus_model):
        # a model holds no non-finite A or M, but a huge A overflows g_per,
        # and a huge M the GEMV of the weights with [sqrt(N) M | 1]
        model, pfit, s = torus_model
        init = state_before(s, model.q + 1, model.q)
        for name in ("A", "M"):
            full = np.full_like(getattr(model, name), np.inf)
            with pytest.raises(DataError, match=f"model {name} has NaN"):
                replace(model, **{name: full})
            with np.errstate(over="ignore", invalid="ignore"):
                bad = replace(model, **{name: np.full_like(full, 1e308)})
                with pytest.raises(NumericalError, match="step 0"):
                    reconstruct(bad, init, 10, 0.0)

    def test_free_run_respects_computable_bound(self, torus_model,
                                                model_basis, torus_E):
        # on the fitted torus, whose E is rounding noise, and with a random
        # E that makes chaos about half of each sample
        model, pfit, s = torus_model
        basis, _ = model_basis
        chaos_E = random_chaos(basis, model.k)
        for E in (torus_E, chaos_E):
            m = QPModel.from_basis(basis, model.omegas, model.A, E)
            assert chaotic_sup_bound(m) <= sum_of_extension_bounds(basis, E)
            bound = periodic_sup_bound(m) + chaotic_sup_bound(m)
            init = state_before(s, m.q + 1, m.q)
            run = reconstruct(m, init, 2 * s.n, 0.0)
            assert np.linalg.norm(run.values, axis=1).max() <= bound + 1e-9

    def test_bad_init(self, torus_model):
        model, _, _ = torus_model
        with pytest.raises(DataError, match="dimension"):
            reconstruct(model, np.ones(3), 10, 0.0)


class TestSlidingProducts:
    """The free run slides the window's kernel dot products forward and
    recomputes them every 256 steps; 800 steps cross three recomputes."""

    STEPS = 800

    @pytest.fixture(scope="class")
    def cases(self, fitted_torus):
        basis, model, _, s = fitted_torus
        basis0, model0, _, s0 = fit_torus(515, 0)
        basis3, model3, _, s3 = fit_torus(515, 3, stride=3)
        return {
            "torus": (model, s),
            "q0": (with_random_chaos(basis0, model0), s0),
            "chaotic": (with_random_chaos(basis, model), s),
            "strided": (with_random_chaos(basis3, model3), s3),
        }

    @pytest.mark.parametrize("case", ["torus", "q0", "chaotic", "strided"])
    def test_matches_gemv_oracle(self, cases, case):
        model, s = cases[case]
        q = model.q
        assert (q == 0) == (case == "q0")
        init = state_before(s, q + 1, q)
        t_start = (q + 1) * model.dt
        ref = gemv_reconstruct(model, init, self.STEPS, t_start)
        got = reconstruct(model, init, self.STEPS, t_start)
        scale = np.abs(ref).max()
        assert np.abs(got.values - ref).max() <= 1e-12 * scale
        if case != "torus":
            # the chaotic part carries weight, so wrong weights would show
            chaos = ref - eval_periodic(model, t_start, self.STEPS)
            assert np.abs(chaos).max() >= 0.1 * scale

    def test_long_horizon_matches_gemv_oracle(self, cases):
        # 2100 steps cross 8 recomputes and end inside a block of 52
        model, s = cases["chaotic"]
        q, steps = model.q, 2100
        init = state_before(s, q + 1, q)
        t_start = (q + 1) * model.dt
        ref = gemv_reconstruct(model, init, steps, t_start)
        got = reconstruct(model, init, steps, t_start)
        assert np.abs(got.values - ref).max() <= 1e-11 * np.abs(ref).max()

    @pytest.mark.parametrize("case", ["torus", "q0", "chaotic", "strided"])
    def test_recompute_steps_equal_the_evaluators(self, cases, case):
        # steps 0 and 256 recompute the log-weights: there the free run is
        # eval_periodic + eval_chaotic of its window, bit for bit
        model, s = cases[case]
        q, k, steps = model.q, model.k, 300
        init = state_before(s, q + 1, q)
        t_start = (q + 1) * model.dt
        got = reconstruct(model, init, steps, t_start).values
        history = np.concatenate([init.reshape(q + 1, k), got])
        per = eval_periodic(model, t_start, steps)
        for i in (0, 256):
            window = history[i:i + q + 1].ravel()
            assert np.array_equal(got[i], per[i] + eval_chaotic(model, window))


class TestDecompositionIdentity:
    def test_three_way_split(self, torus_model, model_basis, torus_E):
        # Y = periodic fit + basis synthesis + remainder, with the remainder
        # orthogonal to both the harmonic design and the basis
        model, pfit, s = torus_model
        basis, _ = model_basis
        q = model.q
        y = s.values[q:]
        synth_rows = synthesize(basis, torus_E)
        remainder = y - pfit.fitted - synth_rows
        np.testing.assert_allclose(pfit.fitted + pfit.residual, y, atol=1e-10)
        inner = basis.Phi.T @ remainder / basis.n
        assert np.abs(inner).max() <= 1e-8
        t = (q + np.arange(len(y))) * model.dt
        cols = [np.ones(len(y))]
        for om in model.omegas[1:]:
            cols += [np.cos(om * t), np.sin(om * t)]
        G = np.stack(cols, 1)
        assert np.abs(G.T @ pfit.residual).max() / len(y) <= 1e-8


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
        model, pfit, s = torus_model
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
    def test_save_load_preserves_behaviour(self, torus_model, tmp_path):
        model, pfit, s = torus_model
        path = tmp_path / "model.npz"
        save_model(model, path)
        back = load_model(path)
        for name in ("omegas", "A", "M"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(model, name))
        assert chaotic_sup_bound(back) == chaotic_sup_bound(model)
        assert periodic_sup_bound(back) == periodic_sup_bound(model)
        init = state_before(s, model.q + 1, model.q)
        a = reconstruct(model, init, 50, 0.0)
        b = reconstruct(back, init, 50, 0.0)
        np.testing.assert_array_equal(a.values, b.values)

    def test_model_file_is_deterministic(self, torus_model, tmp_path):
        model, _, _ = torus_model
        p1, p2 = tmp_path / "m1.npz", tmp_path / "m2.npz"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_the_earlier_file(self, torus_model,
                                                 tmp_path):
        # the archive is written under a temporary name and renamed onto
        # the path, so a write that fails midway leaves the old file whole
        from qpdecomp._npz import write_npz

        model, _, _ = torus_model
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
        pfit = fit_periodic(s.values[q:], sel, dt, t0=q * dt)
        model = QPModel.from_basis(basis, pfit.omegas, pfit.A,
                                   fit_chaotic(pfit.residual, basis))
        path = tmp_path / "model.npz"
        save_model(model, path)
        del basis, model
        init = state_before(s, q + 1, q)
        tracemalloc.start()
        try:
            back = load_model(path)
            reconstruct(back, init, 100, (q + 1) * dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_pts = n - q
        assert peak < n_pts * n_pts * 8 / 4, f"peak {peak} bytes"


class TestReferenceModel:
    """A model on a basis against every third point: M rows of M, the
    training points slid, the references weighed."""

    @pytest.fixture(scope="class")
    def strided(self):
        basis, model, pfit, s = fit_torus(515, 3, stride=3)
        return basis, with_random_chaos(basis, model), s

    def test_one_row_of_m_per_reference(self, strided):
        basis, model, _ = strided
        assert model.stride == 3 and model.n == 512
        assert model.m == 171 == len(basis.q)
        np.testing.assert_array_equal(model.references,
                                      model.embedding.points[::3])
        np.testing.assert_array_equal(model.sq_ref, model.sq[::3])
        with pytest.raises(DataError, match="171 reference points"):
            replace(model, M=np.vstack([model.M, model.M[:1]]))
        with pytest.raises(DataError, match="stride 0"):
            replace(model, stride=0)

    def test_in_sample_is_phi_e(self, strided):
        # the Nystrom map over the references gives Phi @ E on all N rows
        basis, model, _ = strided
        E = random_chaos(basis, model.k)
        got = eval_chaotic(model, model.embedding.points)
        want = synthesize(basis, E)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_free_run_within_the_bound(self, strided):
        _, model, s = strided
        q = model.q
        init = state_before(s, q + 1, q)
        run = reconstruct(model, init, 600, (q + 1) * model.dt)
        bound = periodic_sup_bound(model) + chaotic_sup_bound(model)
        assert np.linalg.norm(run.values, axis=1).max() <= bound
        chaos = run.values - eval_periodic(model, (q + 1) * model.dt, 600)
        c = np.sqrt(model.m) * np.linalg.norm(model.M, axis=1).max()
        assert chaotic_sup_bound(model) == c
        assert np.linalg.norm(chaos, axis=1).max() <= c * (1 + 1e-12)

    def test_round_trip_keeps_the_stride(self, strided, tmp_path):
        _, model, s = strided
        path = tmp_path / "model.npz"
        save_model(model, path)
        back = load_model(path)
        assert back.stride == 3
        np.testing.assert_array_equal(back.M, model.M)
        init = state_before(s, model.q + 1, model.q)
        np.testing.assert_array_equal(
            reconstruct(back, init, 300, 0.0).values,
            reconstruct(model, init, 300, 0.0).values)

    def test_step_count_over_budget_allocates_nothing(self, torus_model):
        model, _, s = torus_model
        init = state_before(s, model.q + 1, model.q)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="1000000000000 steps of 3 "
                                                "channels need .+ MB of "
                                                "memory is available"):
                reconstruct(model, init, 10**12, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"peak {peak} bytes"


class TestStateBefore:
    def test_layout_matches_embedding(self, torus_model):
        model, pfit, s = torus_model
        q = model.q
        init = state_before(s, 10, q)
        np.testing.assert_array_equal(init, s.values[10 - q - 1:10].ravel())

    def test_too_early(self, torus_model):
        model, _, s = torus_model
        with pytest.raises(DataError):
            state_before(s, model.q, model.q)
