import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from qpdecomp import (
    DataError,
    NumericalError,
    TimeSeries,
    delay_embed,
    gaussian_kernel,
    rkhs_norm_table,
    select,
)
from qpdecomp.freqfilter import (
    FrequencySelection,
    RkhsNormTable,
    log_growth,
)
from qpdecomp.pipeline import write_diagnostics
from qpdecomp.spectral import LAMBDA_FLOOR, SpectralBasis, decompose
from qpdecomp.synth import lattice_frequencies

from conftest import pair_quantile, torus_series

TWO_PI = 2 * np.pi


def fabricated_basis(phi_columns, lam):
    """SpectralBasis with handmade eigenfunctions and the bandwidth facts of
    a real (tiny) kernel."""
    phi = np.column_stack(phi_columns)
    pts = np.random.default_rng(0).standard_normal((len(phi), 2))
    emb = delay_embed(TimeSeries(pts, dt=1.0), 0)
    _, eps, _, hist = gaussian_kernel(emb, 50.0)
    return SpectralBasis(lam=np.asarray(lam, dtype=float), Phi=phi,
                         epsilon=eps, sqdist_histogram=hist)


def written_curves(outdir, basis, table, selection):
    """The threshold curves as ``write_diagnostics`` writes them: the
    (l, w_mean, w_max) rows, and the sorted growths."""
    write_diagnostics(outdir, SimpleNamespace(basis=basis, table=table,
                                              selection=selection))

    def rows(name):
        lines = (outdir / name).read_text().splitlines()[1:]
        return np.array([[float(c) for c in ln.split(",")] for ln in lines])

    return (rows("norm_growth_by_column.csv"),
            rows("growth_ratio_sorted.csv")[:, 1])


def make_table(W, dt=1.0):
    n_bins = W.shape[0]
    freqs = TWO_PI * np.arange(n_bins) / ((2 * (n_bins - 1)) * dt)
    return RkhsNormTable(W=np.asarray(W, dtype=float), freqs=freqs)


class TestRkhsNormTable:
    def test_constant_eigenfunction_is_dc_only(self):
        basis = fabricated_basis([np.ones(64)], [1.0])
        table = rkhs_norm_table(basis, dt=1.0)
        assert table.W.shape == (33, 1)
        np.testing.assert_allclose(table.W[0, 0], 1.0, atol=1e-12)
        assert np.abs(table.W[1:, 0]).max() <= 1e-12

    def test_sinusoid_column_closed_form(self):
        # closed-form DFT of a sampled exact-bin sinusoid: peak = amplitude/2
        n, j_star, amp, lam2 = 128, 9, 1.3, 0.37
        t = np.arange(n)
        phi2 = amp * np.cos(TWO_PI * j_star * t / n + 0.8)
        basis = fabricated_basis([np.ones(n), phi2], [1.0, lam2])
        table = rkhs_norm_table(basis, dt=1.0)
        increment = table.W[j_star, 1] - table.W[j_star, 0]
        np.testing.assert_allclose(increment, (amp / 2.0) / np.sqrt(lam2),
                                   rtol=1e-10)

    def test_frequency_axis(self):
        n, dt = 100, 2.5
        basis = fabricated_basis([np.ones(n)], [1.0])
        table = rkhs_norm_table(basis, dt=dt)
        np.testing.assert_allclose(table.freqs,
                                   TWO_PI * np.arange(51) / (n * dt))
        assert table.freqs[1] == TWO_PI / (n * dt)

    def test_rows_cumulative_exact(self, torus_basis):
        table = rkhs_norm_table(torus_basis, dt=1.0)
        assert (np.diff(table.W, axis=1) >= 0).all()
        assert (table.W >= 0).all()

    def test_lambda_floor_guard(self):
        # the basis itself refuses an eigenvalue below the floor, so no
        # table is built from one; one exactly at the floor is accepted
        columns = [np.ones(32), np.cos(np.arange(32.0))]
        with pytest.raises(NumericalError, match="floor"):
            fabricated_basis(columns, [1.0, 1e-20])
        basis = fabricated_basis(columns, [1.0, LAMBDA_FLOOR])
        assert rkhs_norm_table(basis, dt=1.0).L == 2


class TestSelect:
    def test_threshold_logic(self):
        # bins: 0 (always kept), 1 passes both, 2 fails amplitude,
        # 3 fails growth
        W = np.zeros((4, 4))
        W[0] = [1.0, 1.0, 1.0, 1.0]
        W[1] = [0.5, 0.6, 0.6, 0.7]          # growth ln(0.7/0.6) small
        W[2] = [0.01, 0.02, 0.02, 0.02]      # amplitude at L0 below eps1
        W[3] = [0.5, 0.6, 4.0, 40.0]         # growth ln(40/0.6) large
        table = make_table(W)
        sel = select(table, eps1=0.1, eps2=2.5, L0=2)
        np.testing.assert_array_equal(sel.indices, [0, 1])
        np.testing.assert_allclose(sel.amplitudes, W[[0, 1], 1])

    def test_zero_bin_always_kept(self):
        W = np.full((5, 3), 1e-6)
        table = make_table(W)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sel = select(table, eps1=0.1, eps2=2.5, L0=2)
        np.testing.assert_array_equal(sel.indices, [0])
        assert sel.periods[0] == np.inf

    def test_periods_derive_from_omegas(self):
        sel = FrequencySelection(
            indices=np.array([0, 3, 9]), omegas=np.array([0.0, 0.3, 0.9]),
            amplitudes=np.ones(3), growth=np.zeros(3), L0=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            periods = sel.periods
        np.testing.assert_array_equal(periods,
                                      [np.inf, TWO_PI / 0.3, TWO_PI / 0.9])
        with pytest.raises(TypeError):
            FrequencySelection(indices=sel.indices, omegas=sel.omegas,
                               periods=periods, amplitudes=sel.amplitudes,
                               growth=sel.growth, L0=sel.L0)

    def test_empty_nonzero_selection_warns_not_raises(self):
        table = make_table(np.full((6, 3), 1e-9))
        with pytest.warns(UserWarning, match="no nonzero frequency"):
            sel = select(table, eps1=0.1, eps2=2.5, L0=2)
        assert sel.m == 1

    def test_majority_selection_warns(self):
        # 4 nonzero bins: keeping 3 is more than half and warns, keeping 2
        # (exactly half) does not
        W = np.ones((5, 3))
        W[4] = 1e-9
        with pytest.warns(UserWarning, match="keeps 3 of 4 nonzero"):
            sel = select(make_table(W), eps1=0.1, eps2=2.5, L0=2)
        np.testing.assert_array_equal(sel.indices, [0, 1, 2, 3])
        W[3] = 1e-9
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sel = select(make_table(W), eps1=0.1, eps2=2.5, L0=2)
        np.testing.assert_array_equal(sel.indices, [0, 1, 2])

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_selection_monotonicity(self):
        rng = np.random.default_rng(3)
        W = np.cumsum(np.abs(rng.standard_normal((40, 8))), axis=1) * 0.2
        table = make_table(W)
        grid1 = [0.05, 0.2, 0.8]
        grid2 = [0.3, 1.0, 3.0]
        for e2 in grid2:
            previous = None
            for e1 in grid1:         # increasing eps1 never adds a bin
                got = set(select(table, eps1=e1, eps2=e2, L0=4).indices.tolist())
                if previous is not None:
                    assert got <= previous
                previous = got
        for e1 in grid1:
            previous = None
            for e2 in grid2[::-1]:   # decreasing eps2 never adds a bin
                got = set(select(table, eps1=e1, eps2=e2, L0=4).indices.tolist())
                if previous is not None:
                    assert got <= previous
                previous = got

    def test_parameter_validation(self):
        table = make_table(np.ones((4, 3)))
        with pytest.raises(DataError):
            select(table, eps1=0.0, eps2=1.0, L0=2)
        with pytest.raises(DataError):
            select(table, eps1=0.1, eps2=1.0, L0=1)
        with pytest.raises(DataError):
            select(table, eps1=0.1, eps2=1.0, L0=4)
        with pytest.raises(TypeError):
            select(table, eps1=0.1, eps2=1.0)

    def test_torus_selection_on_lattice(self, torus_basis):
        # oracle: known driver frequencies generate the admissible lattice
        table = rkhs_norm_table(torus_basis, dt=1.0)
        sel = select(table, eps1=0.1, eps2=2.5, L0=10)
        omega = np.array([TWO_PI * 34 / 512, TWO_PI * 55 / 512])
        assert 34 in sel.indices and 55 in sel.indices
        lattice = lattice_frequencies(omega, 12, table.freqs[-1] + 1.0)
        tol = table.freqs[1]
        nonzero = sel.omegas[sel.omegas > 0]
        assert len(nonzero) > 0
        for om in nonzero:
            assert np.abs(lattice - om).min() <= tol + 1e-12


class TestSelectionGrowth:
    def test_growth_matches_definition(self):
        rng = np.random.default_rng(4)
        W = np.cumsum(np.abs(rng.standard_normal((20, 6))) + 0.1, axis=1)
        table = make_table(W)
        sel = select(table, eps1=0.01, eps2=100.0, L0=3)
        growth = sel.growth
        expected = np.log(W[sel.indices, -1]) - np.log(W[sel.indices, 2])
        np.testing.assert_allclose(growth, expected, rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_one_helper_matches_the_former_formulas_bitwise(self, torus_basis,
                                                            tmp_path):
        # the oracles take the logs directly: over the kept bins, over the
        # selected ones (the frequency table), and over the whole strided
        # column (the diagnostics)
        table = rkhs_norm_table(torus_basis, dt=1.0)
        W = table.W.copy()
        W[[3, 7], :4] = 0.0              # bins with W[j, L0] = 0
        table = RkhsNormTable(W=W, freqs=table.freqs)
        L0, eps1 = 4, 0.1
        w_l0, w_l = W[:, L0 - 1], W[:, -1]
        growth = log_growth(table, L0)

        pos = (w_l0 >= eps1) & (w_l0 > 0)
        np.testing.assert_array_equal(growth[pos],
                                      np.log(w_l[pos]) - np.log(w_l0[pos]))
        assert np.all(np.isposinf(growth[w_l0 == 0]))

        sel = select(table, eps1=eps1, eps2=2.5, L0=L0)
        former = np.full(sel.m, np.inf)
        w0 = W[sel.indices, L0 - 1]
        ok = w0 > 0
        former[ok] = np.log(W[sel.indices, -1][ok]) - np.log(w0[ok])
        np.testing.assert_array_equal(sel.growth, former)

        with np.errstate(divide="ignore", invalid="ignore"):
            full = np.log(w_l) - np.log(w_l0)
        np.testing.assert_array_equal(
            written_curves(tmp_path, torus_basis, table, sel)[1],
            np.sort(full[np.isfinite(full)]))


class TestShiftInvariance:
    def test_w_table_invariant_under_circular_shift(self):
        # a circular time shift permutes the q=0 embedding, so the table must
        # match up to numerical degeneracy resolution
        n, L = 512, 24
        s = torus_series(n, [TWO_PI * 34 / n, TWO_PI * 55 / n], mix_seed=7,
                         n_channels=3)
        tables = []
        for values in (s.values, np.roll(s.values, -41, axis=0)):
            emb = delay_embed(TimeSeries(values, dt=1.0), 0)
            eps = 0.02 * pair_quantile(emb, 0.5)
            basis = decompose(emb, eps, L)
            tables.append(rkhs_norm_table(basis, dt=1.0).W)
        assert np.abs(tables[0] - tables[1]).max() <= 1e-6


def run_filter(values, q, L, L0, eps_quantile=0.01):
    emb = delay_embed(TimeSeries(values, dt=1.0), q)
    eps = pair_quantile(emb, eps_quantile)
    basis = decompose(emb, eps, L)
    table = rkhs_norm_table(basis, dt=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return select(table, eps1=0.1, eps2=2.5, L0=L0)


class TestRejectionOfBroadbandSignals:
    def test_white_noise_monte_carlo(self):
        # 20 seeded runs of pure noise: no nonzero bin may ever survive
        false_positives = 0
        for seed in range(20):
            values = np.random.default_rng(seed).standard_normal((512, 1))
            sel = run_filter(values, q=10, L=128, L0=5)
            false_positives += int((sel.omegas > 0).sum() > 0)
        assert false_positives == 0

    def test_contracting_noisy_map_selects_nothing(self):
        # driven AR(1) with no periodic forcing; the DFT oracle confirms the
        # absence of a line spectrum, and the filter must agree
        rng = np.random.default_rng(42)
        n = 1024
        u = np.zeros(n)
        for i in range(n - 1):
            u[i + 1] = 0.5 * u[i] + 0.3 * rng.standard_normal()
        values = np.column_stack([u, 0.5 * u + 0.1 * rng.standard_normal(n)])
        spec = np.abs(np.fft.rfft(values[:, 0]))[1:]
        assert spec.max() / np.median(spec) < 15.0, "oracle: no spectral line"
        sel = run_filter(values, q=10, L=200, L0=5)
        assert (sel.omegas > 0).sum() == 0
        assert sel.indices[0] == 0


class TestThresholdDiagnostics:
    def test_curves_are_monotone_and_sorted(self, torus_basis, tmp_path):
        table = rkhs_norm_table(torus_basis, dt=1.0)
        sel = select(table, eps1=0.1, eps2=2.5, L0=10)
        columns, growth = written_curves(tmp_path, torus_basis, table, sel)
        np.testing.assert_array_equal(columns[:, 0], np.arange(1, table.L + 1))
        assert (np.diff(columns[:, 1]) >= 0).all()
        assert (np.diff(columns[:, 2]) >= 0).all()
        assert (np.diff(growth) >= -1e-15).all()

    def test_plateau_gap_separates_lattice_from_noise(self, torus_basis):
        # numeric rendering of the two-panel threshold diagnostic: growth
        # ratios of lattice bins sit strictly below every non-lattice bin
        table = rkhs_norm_table(torus_basis, dt=1.0)
        L0 = 10
        w0, w1 = table.W[:, L0 - 1], table.W[:, -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            growth = np.log(w1) - np.log(w0)
        omega = np.array([TWO_PI * 34 / 512, TWO_PI * 55 / 512])
        lattice = lattice_frequencies(omega, 12, table.freqs[-1] + 1.0)
        dist = np.abs(table.freqs[:, None] - lattice[None, :]).min(axis=1)
        on = dist <= table.freqs[1]
        # compare only bins carrying genuine early mass against the rest
        strong = table.W[:, L0 - 1] >= 0.1
        if strong[~on].any():
            assert growth[on & strong].max() < growth[~on & strong].min()
        # the driver bins themselves sit firmly on the flat plateau
        assert growth[[34, 55]].max() < 2.5
