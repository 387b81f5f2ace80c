"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest -s`` to see them live).

The heavy shared computation is the 4096-sample two-torus run; it is built
once per session and reused across criteria.
"""

import contextlib
import time
import warnings

import numpy as np
import pytest

import qpdecomp.decompose as dc
from qpdecomp import TimeSeries, delay_embed, gaussian_kernel
from qpdecomp.cli import main as cli_main
from qpdecomp.freqfilter import rkhs_norm_table, select
from qpdecomp.pipeline import format_period, report_periods
from qpdecomp.series import load_csv, window, write_csv
from qpdecomp.spectral import decompose
from qpdecomp.synth import (
    SkewProductSystem,
    TorusDriver,
    lattice_frequencies,
    simulate,
    standard_testbed,
)

from conftest import nystrom_pair, pair_quantile, pairwise_sqdist

TWO_PI = 2 * np.pi
N_SAMPLES = 4096
DT = 1.0
Q = 20
L_EIGEN = 300
BIN_TOL = TWO_PI / 4096          # one bin width at the stated resolution


@contextlib.contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {text}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {text}")


def tuned_epsilon(emb):
    # bandwidth read off the low shoulder of the squared-distance histogram:
    # small enough that the eigenvalue decay stays above the inversion floor
    # at L=300, large enough to connect neighbouring trajectory strands
    return pair_quantile(emb, 0.01)


def build_run(system, n_samples=N_SAMPLES, seed=0, num_eigen=L_EIGEN):
    t0 = time.monotonic()
    sim = simulate(system, n_samples, DT, seed=seed)
    emb = delay_embed(sim.series, Q)
    eps = tuned_epsilon(emb)
    basis = decompose(emb, eps, num_eigen, reference_points=emb.n_points)
    table = rkhs_norm_table(basis, DT)
    selection = select(table, eps1=0.1, eps2=2.5, L0=100)
    elapsed = time.monotonic() - t0
    return dict(system=system, sim=sim, emb=emb, basis=basis,
                table=table, selection=selection, elapsed=elapsed)


def fit_model(run):
    sim, selection = run["sim"], run["selection"]
    A, residual = dc.fit_periodic(window(sim.series, Q, sim.series.n),
                                  selection.omegas)
    return dc.fit_chaotic(selection.omegas, A, residual)


@pytest.fixture(scope="module")
def pure_torus_run():
    return build_run(standard_testbed("pure_torus_2"))


@pytest.fixture(scope="module")
def logistic_run():
    return build_run(standard_testbed("torus_plus_logistic"))


def chaos_only_system(seed):
    """Logistic chaos with the periodic component removed entirely: the
    observation sees only the driven state, never the torus phase."""
    rng = np.random.default_rng(seed)
    mix = np.random.default_rng(5).standard_normal((2, 2))
    return SkewProductSystem(
        driver=TorusDriver(omega=np.array([TWO_PI * 89 / 4076]),
                           theta0=np.array([0.7])),
        x0=np.array([0.0, float(rng.uniform(0.1, 0.9))]),
        g_per=lambda th: np.zeros(2),
        g_chaos=lambda th, x, rng_: np.array([0.3 * (2 * x[1] - 1),
                                              4.0 * x[1] * (1 - x[1])]),
        observation=lambda th, x: x @ mix,
    )


class TestCriterion1FrequencyRecovery:
    def test_driver_bins_and_lattice(self, pure_torus_run):
        with criterion(1, "frequency recovery on pure_torus_2 "
                          "(drivers within one bin, >=90% on lattice, "
                          "<=2 min)"):
            run = pure_torus_run
            sel = run["selection"]
            omega_drv = run["system"].driver.omega
            nonzero = sel.omegas[sel.omegas > 0]
            assert len(nonzero) >= 2
            for om in omega_drv:
                assert np.abs(nonzero - om).min() <= BIN_TOL
            lattice = lattice_frequencies(omega_drv, 25,
                                          run["table"].freqs[-1] + 1.0)
            on = sum(1 for om in nonzero
                     if np.abs(lattice - om).min() <= BIN_TOL)
            assert on / len(nonzero) >= 0.9
            assert run["elapsed"] <= 120.0, f"took {run['elapsed']:.0f}s"


class TestCriterion2ChaosRobustness:
    def test_driver_recovery_with_chaos(self, logistic_run):
        with criterion(2, "robustness to chaos: driver recovered under "
                          "logistic coupling 0.3; no false frequencies "
                          "when the periodic part is removed (>=18/20)"):
            sel = logistic_run["selection"]
            omega_drv = logistic_run["system"].driver.omega[0]
            nonzero = sel.omegas[sel.omegas > 0]
            assert np.abs(nonzero - omega_drv).min() <= BIN_TOL
            # a small reference column isolates the driver and its harmonic
            # sharply: the growth test then spans enough columns to reject
            # every broadband bin
            sharp = select(logistic_run["table"], eps1=0.1, eps2=2.5, L0=5)
            sharp_nz = sharp.omegas[sharp.omegas > 0]
            assert np.abs(sharp_nz - omega_drv).min() <= BIN_TOL
            assert len(sharp_nz) <= 25

            clean = 0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                for seed in range(20):
                    sim = simulate(chaos_only_system(seed), 1024, DT,
                                   seed=seed)
                    emb = delay_embed(sim.series, Q)
                    basis = decompose(emb, tuned_epsilon(emb), 256)
                    table = rkhs_norm_table(basis, DT)
                    got = select(table, eps1=0.1, eps2=2.5, L0=5)
                    if (got.omegas > 0).sum() == 0:
                        clean += 1
            assert clean >= 18, f"only {clean}/20 runs were selection-free"


class TestCriterion3SpectralInvariants:
    def check(self, emb, basis):
        n, L = basis.n, basis.L
        gram_phi = basis.Phi.T @ basis.Phi / n
        assert np.abs(gram_phi - np.eye(L)).max() <= 1e-8
        # the basis keeps neither Gamma nor q: both are rebuilt from Ktilde
        # at the basis's bandwidth
        q, gamma = nystrom_pair(emb, basis)
        gram_gam = gamma.T @ gamma
        assert np.abs(gram_gam - np.eye(L)).max() <= 1e-8
        assert abs(basis.lam[0] - 1.0) <= 1e-6
        phi1 = basis.Phi[:, 0]
        assert phi1.std() / abs(phi1.mean()) <= 1e-6
        kt = gaussian_kernel(emb, basis.epsilon, reference_points=n)[0]
        p_rows = kt @ (kt.T @ np.ones(n))
        assert np.abs(p_rows - 1.0).max() <= 1e-8
        # the continuous-extension identity at every data point
        K = np.exp(-pairwise_sqdist(emb) / basis.epsilon)
        ext = (K @ (gamma / np.sqrt(q)[:, None]))
        ext /= (np.sqrt(n) * K.mean(axis=1))[:, None]
        ext /= basis.sigma[None, :]
        col_scale = np.abs(basis.Phi).max(axis=0)
        rel = (np.abs(ext - basis.Phi) / col_scale[None, :]).max()
        assert rel <= 1e-8

    def test_invariants_on_both_dataset_kinds(self, pure_torus_run):
        with criterion(3, "spectral invariants (orthonormality, lambda_1=1, "
                          "constant leading eigenfunction, Markov row sums, "
                          "extension identity at all points)"):
            self.check(pure_torus_run["emb"], pure_torus_run["basis"])
            pts = np.random.default_rng(0).standard_normal((400, 6))
            emb = delay_embed(TimeSeries(pts, dt=1.0), 0)
            self.check(emb, decompose(
                emb, 0.5 * pair_quantile(emb, 0.5), 60, reference_points=400))


class TestCriterion4SmallNOracles:
    def test_partial_svd_and_kernel_oracles(self):
        with criterion(4, "small-N oracle equivalence (partial SVD vs dense "
                          "SVD; distances and kernel vs double loops)"):
            import scipy.linalg

            pts = np.random.default_rng(1).standard_normal((400, 5))
            emb = delay_embed(TimeSeries(pts, dt=1.0), 0)
            eps = 0.4 * pair_quantile(emb, 0.5)
            L = 40
            u_full, s_full, _ = np.linalg.svd(
                gaussian_kernel(emb, eps, reference_points=400)[0])
            gap = s_full[L - 1] - s_full[L]
            assert gap > 1e-6 * s_full[0], "test data must have a gap at L"
            part = decompose(emb, eps, L, reference_points=400)
            rel = np.abs(part.sigma - s_full[:L]) / s_full[:L]
            assert rel.max() <= 1e-10
            angles = scipy.linalg.subspace_angles(u_full[:, :L],
                                                  part.Phi / np.sqrt(400))
            assert angles.max() <= 1e-8

            small = np.random.default_rng(2).standard_normal((120, 7))
            d2 = pairwise_sqdist(delay_embed(TimeSeries(small, dt=1.0), 0))
            brute = np.array([[((a - b) ** 2).sum() for b in small]
                              for a in small])
            assert np.abs(d2 - brute).max() / brute.max() <= 1e-10
            eps2 = 3.0
            emb2 = delay_embed(TimeSeries(small, dt=1.0), 0)
            kt2, _, q2, _ = gaussian_kernel(emb2, eps2, reference_points=120)
            K2 = np.exp(-pairwise_sqdist(emb2) / eps2)
            assert np.abs(K2 - np.exp(-brute / eps2)).max() <= 1e-10
            d2 = K2.mean(axis=1)
            n2 = len(small)
            assert np.array_equal(q2, K2.dot(1.0 / d2) / n2)
            assert np.array_equal(
                kt2, K2 / (n2 * d2[:, None] * np.sqrt(q2)[None, :]))


class TestCriterion5DecompositionExactness:
    def test_exactness(self, full_blob_basis):
        with criterion(5, "decomposition exactness (full-lattice inverse "
                          "DFT, normal-equation orthogonality, complete "
                          "chaotic fit, the map's own successors as its "
                          "bandwidth goes to 0)"):
            from dataclasses import replace

            from conftest import project, synthesize

            rng = np.random.default_rng(3)
            n, dt = 256, 1.0
            y = rng.standard_normal((n, 2))
            omegas = TWO_PI * np.arange(n // 2 + 1) / (n * dt)
            _, r_all = dc.fit_periodic(TimeSeries(y, dt=dt), omegas)
            assert np.abs(r_all.values).max() <= 1e-8

            _, r_few = dc.fit_periodic(TimeSeries(y, dt=dt), omegas[:4])
            t = np.arange(n) * dt
            cols = [np.ones(n)]
            for om in omegas[1:4]:
                cols += [np.cos(om * t), np.sin(om * t)]
            G = np.stack(cols, 1)
            assert np.abs(G.T @ r_few.values).max() <= 1e-8

            y_non = rng.standard_normal((full_blob_basis.n, 3))
            E = project(full_blob_basis, y_non)
            assert np.abs(synthesize(full_blob_basis, E) - y_non).max() <= 1e-8

            # at a bandwidth 1e-3 of the smallest squared distance between
            # kept windows, a query at each of them returns its successor;
            # a window cap of 150 keeps every second window of 300 rows
            resid = TimeSeries(rng.standard_normal((300, 3)), dt=dt)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dc, "WINDOW_CAP", 150)
                model = dc.fit_chaotic(np.zeros(0), np.zeros((0, 3)), resid)
                wins = model.windows
                d2 = ((wins[:, None] - wins[None]) ** 2).sum(axis=2)
                d2_min = d2[~np.eye(len(wins), dtype=bool)].min()
                model = replace(model, epsilon=1e-3 * d2_min)
            succ = resid.values[dc.CHAOS_DELAYS + 1::2]
            assert len(succ) == len(wins)
            assert np.abs(dc.eval_chaotic(model, wins) - succ).max() <= 1e-8


class TestCriterion6BoundedPrediction:
    def run_bound_check(self, run, horizon_factor=2):
        model = fit_model(run)
        sim = run["sim"]
        n = sim.series.n
        total = horizon_factor * n
        truth = simulate(run["system"], total, DT, seed=0)
        steps = total - (Q + 1)
        pred = dc.reconstruct(model, truth.series, Q + 1, steps)
        bound = dc.periodic_sup_bound(model) + dc.chaotic_sup_bound(model)
        max_norm = np.linalg.norm(pred.values, axis=1).max()
        assert max_norm <= bound + 1e-9, f"{max_norm} > bound {bound}"
        return truth, pred, steps

    def test_all_testbeds_bounded_and_pure_torus_accurate(
            self, pure_torus_run, logistic_run):
        with criterion(6, "bounded free run over twice the training horizon "
                          "on all testbeds; pure-torus relative error "
                          "<= 0.05"):
            truth, pred, steps = self.run_bound_check(pure_torus_run)
            truth_tail = TimeSeries(truth.series.values[Q + 1:], dt=DT)
            err = dc.relative_error(truth_tail, pred)
            assert err.max(axis=0).max() <= 0.05

            self.run_bound_check(logistic_run)
            damped = build_run(standard_testbed("torus_plus_damped"),
                               n_samples=2048, num_eigen=200)
            self.run_bound_check(damped)


class TestCriterion7MonotonicityAndReproducibility:
    def test_threshold_monotonicity_exact(self, pure_torus_run):
        with criterion(7, "selection monotone in both thresholds (exact set "
                          "inclusion) and byte-reproducible CLI pipeline"):
            table = pure_torus_run["table"]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                for e2 in (0.5, 2.5, 6.0):
                    sets = [set(select(table, eps1=e1, eps2=e2,
                                       L0=100).indices.tolist())
                            for e1 in (0.02, 0.1, 0.5, 2.0)]
                    for small, large in zip(sets[1:], sets[:-1]):
                        assert small <= large
                for e1 in (0.05, 0.1):
                    sets = [set(select(table, eps1=e1, eps2=e2,
                                       L0=100).indices.tolist())
                            for e2 in (6.0, 2.5, 0.5, 0.1)]
                    for small, large in zip(sets[1:], sets[:-1]):
                        assert small <= large

    def test_cli_byte_reproducibility(self, tmp_path):
        with criterion(7, "byte-identical artifacts for a fixed config and "
                          "seed across two full CLI runs"):
            src = tmp_path / "input.csv"
            sim = simulate(standard_testbed("pure_torus_2"), 800, DT, seed=0)
            write_csv(sim.series, src)
            emb = delay_embed(window(load_csv(src), 0, 600), 6)
            eps = pair_quantile(emb, 0.02)
            blobs = []
            for name in ("r1", "r2"):
                outdir = tmp_path / name
                code = cli_main([
                    "run", "--input", str(src), "--outdir", str(outdir),
                    "--delays", "6", "--epsilon", f"{eps:.17g}",
                    "--num-eigen", "40", "--L0", "8", "--train-end", "600",
                    "--predict-start", "620", "--predict-end", "700",
                    "--ma-windows", "1", "10",
                ])
                assert code == 0
                blob = {}
                for p in sorted(outdir.rglob("*")):
                    if p.is_file() and p.name != "manifest.txt":
                        blob[str(p.relative_to(outdir))] = p.read_bytes()
                manifest = [ln for ln in
                            (outdir / "manifest.txt").read_text().splitlines()
                            if not ln.startswith(("created_utc", "outdir"))]
                blob["manifest"] = "\n".join(manifest)
                blobs.append(blob)
            assert blobs[0].keys() == blobs[1].keys()
            for key in blobs[0]:
                assert blobs[0][key] == blobs[1][key], f"{key} differs"


class TestCriterion8PeriodRendering:
    def test_unit_chain_from_angular_frequency(self):
        with criterion(8, "periods of 1 h, 12 h and 7 d render exactly from "
                          "rad/s frequencies"):
            cases = {3600.0: "1 h", 43200.0: "12 h", 604800.0: "7 d"}
            for seconds, label in cases.items():
                omega = TWO_PI / seconds
                assert format_period(TWO_PI / omega) == label
            from qpdecomp.freqfilter import FrequencySelection
            omegas = np.array([0.0] + sorted(TWO_PI / s for s in cases))
            sel = FrequencySelection(
                indices=np.arange(4), omegas=omegas,
                amplitudes=np.ones(4), growth=np.zeros(4), L0=5)
            report = report_periods(sel)
            for label in cases.values():
                assert label in report
