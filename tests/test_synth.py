import numpy as np
import pytest

from qpdecomp import DataError, NumericalError, simulate, standard_testbed
from qpdecomp.synth import SkewProductSystem, TorusDriver, lattice_frequencies

TWO_PI = 2 * np.pi


def cosine_system(period_samples, dt):
    driver = TorusDriver(omega=np.array([TWO_PI / (period_samples * dt)]),
                         theta0=np.array([0.0]))
    return SkewProductSystem(
        driver=driver, x0=np.zeros(1),
        g_per=lambda th: np.zeros(1),
        g_chaos=lambda th, x, rng: np.zeros(1),
        observation=lambda th, x: np.cos(th[:, :1]),
    )


class TestSimulate:
    def test_pure_sinusoid_closed_form(self):
        dt = 1.0
        res = simulate(cosine_system(100, dt), 400, dt, seed=0)
        n = np.arange(400)
        expected = np.cos(TWO_PI * n * dt / 100.0)
        np.testing.assert_allclose(res.series.values[:, 0], expected, atol=1e-12)
        # period of 100 samples shows as the bin-100th peak of a 400-sample DFT
        spec = np.abs(np.fft.rfft(res.series.values[:, 0]))
        assert spec.argmax() == 4

    def test_two_frequency_dft_peaks(self):
        # oracle: the DFT of the simulated signal peaks at the driver bins
        n, dt = 2048, 1.0
        sys = standard_testbed("pure_torus_2")
        res = simulate(sys, n, dt, seed=0)
        spec = np.abs(np.fft.rfft(res.series.values, axis=0)).sum(axis=1)
        spec[0] = 0.0
        bin_width = TWO_PI / (n * dt)
        driver_bins = sys.driver.omega / bin_width
        top = np.argsort(spec)[-2:]
        for b in driver_bins:
            assert np.abs(top - b).min() <= 1.0

    def test_phase_direct_vs_iterated(self):
        sys = standard_testbed("pure_torus_2")
        dt = 0.7
        res = simulate(sys, 4096, dt, seed=0)
        theta = sys.driver.theta0.copy()
        worst = 0.0
        for i in range(4096):
            diff = np.abs(res.theta[i] - theta)
            worst = max(worst, np.minimum(diff, TWO_PI - diff).max())
            theta = (theta + dt * sys.driver.omega) % TWO_PI
        assert worst <= 1e-8

    def test_seed_determinism_bit_identical(self):
        sys = standard_testbed("torus_plus_damped")
        a = simulate(sys, 500, 1.0, seed=9)
        b = simulate(sys, 500, 1.0, seed=9)
        assert np.array_equal(a.series.values, b.series.values)
        assert np.array_equal(a.x, b.x)
        c = simulate(sys, 500, 1.0, seed=10)
        assert not np.array_equal(a.series.values, c.series.values)

    def test_deterministic_match_without_chaos(self):
        # with no chaotic part the simulation equals the closed form exactly
        sys = standard_testbed("pure_torus_2")
        res = simulate(sys, 1000, 1.0, seed=0)
        theta = sys.driver.phases(1000, 1.0)
        closed = sys.observation(theta, np.zeros((1000, 1)))
        np.testing.assert_allclose(res.series.values, closed, atol=1e-12)

    def test_nonfinite_state_reports_step(self):
        sys = SkewProductSystem(
            driver=TorusDriver(omega=np.array([0.1]), theta0=np.array([0.0])),
            x0=np.array([2.0]),
            g_per=lambda th: np.zeros(1),
            g_chaos=lambda th, x, rng: x * x * 100.0,
            observation=lambda th, x: x,
        )
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="step"):
            simulate(sys, 100, 1.0, seed=0)

    def test_bad_args(self):
        sys = standard_testbed("pure_torus_2")
        with pytest.raises(DataError):
            simulate(sys, 0, 1.0)
        with pytest.raises(DataError):
            simulate(sys, 10, 0.0)


class TestTestbeds:
    def test_catalog_entries(self):
        pure = standard_testbed("pure_torus_2")
        assert pure.driver.dim == 2
        theta = pure.driver.phases(10, 1.0)
        x = np.zeros((10, 1))
        assert np.array_equal(pure.g_chaos(theta[0], x[0], None), np.zeros(1))

        logi = standard_testbed("torus_plus_logistic")
        assert logi.driver.dim == 1
        damp = standard_testbed("torus_plus_damped")
        assert damp.driver.dim == 2

    def test_unknown_name(self):
        with pytest.raises(DataError, match="pure_torus_2"):
            standard_testbed("does_not_exist")

    def test_logistic_chaos_has_positive_lyapunov(self):
        # largest Lyapunov exponent of the logistic coordinate, estimated
        # numerically from the latent trajectory; ln|T'(c)| = ln|4 - 8c|
        res = simulate(standard_testbed("torus_plus_logistic"), 5000, 1.0, seed=1)
        c = res.x[100:, 1]
        assert ((c > 0) & (c < 1)).all()
        lyap = np.log(np.abs(4.0 - 8.0 * c)).mean()
        assert lyap > 0.3

    def test_logistic_coupling_weight(self):
        # the chaotic contribution to the driven coordinate is 0.3*(2c-1)
        sys = standard_testbed("torus_plus_logistic")
        out = sys.g_chaos(np.array([0.3]), np.array([0.5, 0.8]), None)
        np.testing.assert_allclose(out[0], 0.3 * (2 * 0.8 - 1))

    def test_damped_map_contracts(self):
        res = simulate(standard_testbed("torus_plus_damped"), 3000, 1.0, seed=4)
        assert np.abs(res.x).max() < 10.0


class TestDriverPhases:
    def test_phases_stay_reduced(self):
        d = TorusDriver(omega=np.array([1.0, 2.0]), theta0=np.array([6.0, 1.0]))
        th = d.phases(1000, 3.0)
        assert (th >= 0).all() and (th < TWO_PI).all()


class TestLatticeFrequencies:
    def test_enumeration_matches_brute_force(self):
        om = np.array([0.3, 0.7])
        got = lattice_frequencies(om, 3, 2.0)
        brute = sorted({a * 0.3 + b * 0.7 for a in range(-3, 4)
                        for b in range(-3, 4)
                        if 0 <= a * 0.3 + b * 0.7 <= 2.0})
        np.testing.assert_allclose(got, brute, atol=1e-12)
