import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from qpdecomp import (
    DataError,
    NumericalError,
    TimeSeries,
    delay_embed,
    gaussian_kernel,
)
from qpdecomp.decompose import (
    PeriodicFit,
    QPModel,
    chaotic_at_training_points,
    chaotic_sup_bound,
    eval_chaotic,
    eval_periodic,
    evaluate_harmonics,
    fit_chaotic,
    fit_periodic,
    load_model,
    moving_average,
    periodic_sup_bound,
    reconstruct,
    relative_error,
    save_model,
    state_before,
)
from qpdecomp.freqfilter import FrequencySelection, SelectionParams, rkhs_norm_table, select
from qpdecomp.kernel import sqdist_quantile
from qpdecomp.spectral import decompose, synthesize

from conftest import torus_series

TWO_PI = 2 * np.pi


def make_selection(omegas, n, dt):
    """Selection of the given frequencies, filed under their nearest DFT bin
    of the n-row grid at step dt (so an off-grid frequency stays off-grid)."""
    omegas = np.asarray(omegas, dtype=float)
    return FrequencySelection(
        indices=np.rint(omegas * n * dt / TWO_PI).astype(int),
        omegas=omegas,
        amplitudes=np.ones(len(omegas)),
        params=SelectionParams(0.1, 2.5, 2, 4),
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
    pts = basis.kernel.embedding.points
    c = basis.Gamma / np.sqrt(basis.kernel.q)[:, None]
    M = (c / basis.sigma[None, :]) @ E
    diff = pts - y[None, :]
    d2 = np.einsum("ij,ij->i", diff, diff)
    w = np.exp(-(d2 - d2.min()) / basis.kernel.epsilon)
    return np.sqrt(basis.n) * (w @ M) / w.sum()


@pytest.fixture(scope="module")
def model_basis():
    """Eigenbasis of a bin-exact 2-torus series with q=3, and the series."""
    n, q, dt = 515, 3, 1.0
    n_emb = n - q
    omegas = [TWO_PI * 34 / n_emb, TWO_PI * 55 / n_emb]
    s = torus_series(n, omegas, mix_seed=7, n_channels=3, dt=dt)
    emb = delay_embed(s, q)
    eps = 0.02 * sqdist_quantile(emb, 0.5)
    return decompose(gaussian_kernel(emb, eps), 40), s


@pytest.fixture(scope="module")
def torus_model(model_basis):
    """Model fitted end to end on the model_basis series."""
    basis, s = model_basis
    q, dt = basis.kernel.embedding.q, s.dt
    table = rkhs_norm_table(basis, dt)
    sel = select(table, eps1=0.1, eps2=2.5, L0=10)
    pfit = fit_periodic(s.values[q:], sel, dt, t0=q * dt)
    E = fit_chaotic(pfit.residual, basis)
    return QPModel.from_basis(basis, sel, pfit.A, E), pfit, s


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
                                  amplitudes=np.ones(3), params=sel.params)
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
        recon = evaluate_harmonics(fit.A, fit.omegas, t)
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
        recon = evaluate_harmonics(fit.A, fit.omegas, np.arange(n) * dt)
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
        model_eval = evaluate_harmonics(fit.A, fit.omegas, np.array([0.0, 17.3, 1e6]))
        np.testing.assert_allclose(model_eval, 2.5)

    def test_bin_lattice_periodicity(self):
        # every bin frequency has period dividing N*dt
        n, dt = 128, 1.0
        rng = np.random.default_rng(3)
        y = rng.standard_normal((n, 1))
        omegas = TWO_PI * np.array([0, 3, 7, 20]) / (n * dt)
        fit = fit_periodic(y, make_selection(omegas, n, dt), dt)
        a = evaluate_harmonics(fit.A, fit.omegas, 0.0)
        b = evaluate_harmonics(fit.A, fit.omegas, n * dt)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_fit_eval_consistency(self):
        rng = np.random.default_rng(4)
        n, dt = 150, 0.7
        y = rng.standard_normal((n, 2))
        omegas = TWO_PI * np.array([0, 15, 37]) / (n * dt)
        times = (5 + np.arange(n)) * dt
        fit = fit_periodic(y, make_selection(omegas, n, dt), dt, t0=times[0])
        recon = evaluate_harmonics(fit.A, fit.omegas, times)
        assert np.abs(recon - fit.fitted).max() <= 1e-10


class TestEvalChaotic:
    def test_in_sample_consistency(self, torus_model, model_basis):
        model, pfit, s = torus_model
        basis, _ = model_basis
        synth_rows = synthesize(basis, model.E)
        pts = basis.kernel.embedding.points
        for n in (0, 100, 400):
            got = eval_chaotic(model, pts[n])
            ref = synth_rows[n]
            assert np.abs(got - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())

    def test_zero_model_returns_zero(self, torus_model, model_basis):
        model, pfit, s = torus_model
        basis, _ = model_basis
        zero_model = QPModel.from_basis(basis, model.selection, model.A,
                                        np.zeros_like(model.E))
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

    def test_matches_exact_difference_oracle(self, torus_model, model_basis):
        model, _, _ = torus_model
        basis, _ = model_basis
        pts = model.embedding.points
        rng = np.random.default_rng(8)
        queries = [pts[0], pts[100], pts[400],
                   pts.mean(0) + pts.std(0) * rng.standard_normal(pts.shape[1]),
                   rng.uniform(-3.0, 3.0, pts.shape[1]),
                   np.full(model.state_dim, 1e5)]
        for y in queries:
            ref = einsum_chaos(basis, model.E, y)
            got = eval_chaotic(model, y)
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_training_points_in_blocks(self, torus_model, model_basis):
        # all rows at once, across several row blocks, against Phi @ E
        model, _, _ = torus_model
        basis, _ = model_basis
        got = chaotic_at_training_points(model)
        ref = synthesize(basis, model.E)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-8 * np.abs(ref).max()


class TestReconstruct:
    def test_periodic_only_matches_eval_grid(self, torus_model, model_basis):
        model, pfit, s = torus_model
        per_model = QPModel.from_basis(model_basis[0], model.selection,
                                       model.A, np.zeros_like(model.E))
        init = state_before(s, model.q + 1, model.q)
        ts = reconstruct(per_model, init, 300, t_start=50.0)
        grid = 50.0 + np.arange(300) * model.dt
        np.testing.assert_allclose(ts.values, eval_periodic(model, grid),
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

    def test_divergence_reports_step(self, torus_model, model_basis):
        model, pfit, s = torus_model
        bad = QPModel.from_basis(model_basis[0], model.selection,
                                 np.full_like(model.A, np.inf), model.E)
        init = state_before(s, model.q + 1, model.q)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="step 0"):
            reconstruct(bad, init, 10, 0.0)

    def test_state_clipping_engages(self, torus_model):
        model, pfit, s = torus_model
        init = state_before(s, model.q + 1, model.q)
        tiny = 1e-3
        run = reconstruct(model, init, 50, 0.0, clip_factor=tiny)
        cap = tiny * np.linalg.norm(s.values, axis=1).max()
        assert np.linalg.norm(run.values, axis=1).max() <= cap + 1e-12

    def test_free_run_respects_computable_bound(self, torus_model):
        model, pfit, s = torus_model
        bound = periodic_sup_bound(model) + chaotic_sup_bound(model)
        init = state_before(s, model.q + 1, model.q)
        run = reconstruct(model, init, 2 * s.n, 0.0)
        assert np.linalg.norm(run.values, axis=1).max() <= bound + 1e-9

    def test_bad_init(self, torus_model):
        model, _, _ = torus_model
        with pytest.raises(DataError, match="dimension"):
            reconstruct(model, np.ones(3), 10, 0.0)


class TestDecompositionIdentity:
    def test_three_way_split(self, torus_model, model_basis):
        # Y = periodic fit + basis synthesis + remainder, with the remainder
        # orthogonal to both the harmonic design and the basis
        model, pfit, s = torus_model
        basis, _ = model_basis
        q = model.q
        y = s.values[q:]
        synth_rows = synthesize(basis, model.E)
        remainder = y - pfit.fitted - synth_rows
        np.testing.assert_allclose(pfit.fitted + pfit.residual, y, atol=1e-10)
        inner = basis.Phi.T @ remainder / basis.n
        assert np.abs(inner).max() <= 1e-8
        t = (q + np.arange(len(y))) * model.dt
        cols = [np.ones(len(y))]
        for om in model.selection.omegas[1:]:
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
        for name in ("A", "E", "M", "ext_bounds"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(model, name))
        np.testing.assert_array_equal(back.selection.indices,
                                      model.selection.indices)
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

    def test_format_1_file_rejected(self, tmp_path):
        path = tmp_path / "old.npz"
        np.savez(path, format=np.array(["qpdecomp-model-1"]),
                 train_values=np.zeros((8, 1)), lam=np.ones(2),
                 Phi=np.ones((6, 2)), Gamma=np.ones((6, 2)))
        with pytest.raises(DataError,
                           match="qpdecomp-model-1.*qpdecomp decompose"):
            load_model(path)

    def test_load_and_free_run_build_no_n_by_n_array(self, tmp_path):
        n, q, dt = 1503, 3, 1.0
        s = torus_series(n, [TWO_PI * 200 / (n - q), TWO_PI * 321 / (n - q)],
                         mix_seed=7, n_channels=3, dt=dt)
        emb = delay_embed(s, q)
        basis = decompose(gaussian_kernel(emb, 0.02 * sqdist_quantile(emb, 0.5)),
                          40)
        sel = select(rkhs_norm_table(basis, dt), eps1=0.1, eps2=2.5, L0=10)
        pfit = fit_periodic(s.values[q:], sel, dt, t0=q * dt)
        model = QPModel.from_basis(basis, sel, pfit.A,
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
