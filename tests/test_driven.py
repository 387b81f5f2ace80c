"""Gates for the map of the driven dynamics: the kernel average of residual
successors, fitted through the pipeline on `synth --seed 3` testbeds with
4096 training samples, q=20 and L0=5, and scored on channel 0; and for the
periodic fit on those fits' DFT bins at other L0."""

import warnings

import numpy as np
import pytest

from qpdecomp import decompose as dc
from qpdecomp import freqfilter, pipeline, series, synth
from qpdecomp.cli import main as cli_main

from conftest import rfft_harmonics

N_TRAIN = 4096
HELD = 1000          # one-step predictions over samples 4096..5095
FREE_RUN = 4096      # free-run steps from sample 4096; the tail is the last half


def fit_testbed(testbed, tmp_path_factory):
    sim = synth.simulate(synth.standard_testbed(testbed), N_TRAIN + FREE_RUN,
                         1.0, seed=3)
    path = tmp_path_factory.mktemp(testbed) / "input.csv"
    series.write_csv(sim.series, path)
    config = pipeline.build_config(
        {"input": str(path), "delays": 20, "L0": 5, "train_end": N_TRAIN})
    with warnings.catch_warnings():
        # torus_plus_damped keeps no frequency at q=20, and says so
        warnings.simplefilter("ignore", UserWarning)
        return pipeline.fit(config)


def one_step(fit):
    """Channel 0 of the truth, of its residual, of the model's one-step
    predictions, and of the residual's last sample before each, over the
    held-out samples."""
    model, data = fit.model, fit.data
    per = dc.eval_periodic(model, N_TRAIN * model.dt, HELD)
    windows = dc.residual_windows(model, data, N_TRAIN, N_TRAIN + HELD)
    pred = per + dc.eval_chaotic(model, windows)
    truth = data.values[N_TRAIN:N_TRAIN + HELD]
    return truth[:, 0], (truth - per)[:, 0], pred[:, 0], windows[:, -model.k]


def rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


def lag1(x):
    return float(np.corrcoef(x[:-1], x[1:])[0, 1])


@pytest.fixture(scope="module")
def logistic(tmp_path_factory):
    return fit_testbed("torus_plus_logistic", tmp_path_factory)


@pytest.fixture(scope="module")
def damped(tmp_path_factory):
    return fit_testbed("torus_plus_damped", tmp_path_factory)


@pytest.fixture(scope="module")
def pure(tmp_path_factory):
    return fit_testbed("pure_torus_2", tmp_path_factory)


@pytest.mark.parametrize("testbed", ["pure", "logistic", "damped"])
def test_periodic_fit_on_dft_bins_is_the_masked_rfft(testbed, request):
    # each selection from the fit's table is a set of DFT bins of the 4076
    # fit rows, on which the least-squares fit is the masked rFFT, bit for
    # bit
    fit = request.getfixturevalue(testbed)
    rows = series.window(fit.train, 20, fit.train.n)
    for L0 in (5, 20, 100):
        with warnings.catch_warnings():
            # some of these selections keep no frequency, or nearly all
            warnings.simplefilter("ignore", UserWarning)
            sel = freqfilter.select(fit.table, eps1=0.1, eps2=2.5, L0=L0)
        A, _ = dc.fit_periodic(rows, sel.omegas)
        np.testing.assert_array_equal(
            A, rfft_harmonics(rows.values, sel.indices))


def test_logistic_one_step(logistic):
    # the periodic part alone leaves 0.240
    truth, resid, pred, _ = one_step(logistic)
    assert rms(resid) > 0.2
    assert rms(truth - pred) <= 0.03


def test_logistic_free_run_keeps_the_attractor(logistic):
    # the tail of a free run from the end of training has the spread and
    # the lag-1 autocorrelation of the true residual, not a decay to 0
    model, data = logistic.model, logistic.data
    run = dc.reconstruct(model, data, N_TRAIN, FREE_RUN).values
    per = dc.eval_periodic(model, N_TRAIN * model.dt, FREE_RUN)
    tail = slice(FREE_RUN // 2, FREE_RUN)
    got = (run - per)[tail, 0]
    want = (data.values[N_TRAIN:] - per)[tail, 0]
    assert abs(got.std() / want.std() - 1.0) <= 0.15
    assert abs(lag1(got) - lag1(want)) <= 0.1


def test_damped_one_step_beats_both_baselines(damped):
    # the selection keeps no driver here, so the residual holds them: the
    # map beats residual persistence (0.189) and the periodic part alone
    truth, resid, pred, last = one_step(damped)
    err = rms(truth - pred)
    assert err < rms(resid - last)
    assert err < rms(resid)


def test_coincident_windows_run_to_a_finite_prediction(tmp_path, capsys):
    # an exactly periodic input with only the mean kept: its residual
    # repeats every 4 samples exactly, so more than the ladder's 1e-2 of
    # the window pairs coincide.  The fit neither fails nor divides by 0,
    # and its prediction is finite
    period = [[1.0, 0.5, -2.0], [0.0, -0.5, 1.0], [-1.0, 0.25, 0.0],
              [0.0, 2.0, 1.5]]
    src = tmp_path / "periodic.csv"
    series.write_csv(series.TimeSeries(np.tile(period, (175, 1)), dt=1.0), src)
    assert cli_main(["run", "--input", str(src), "--outdir",
                     str(tmp_path / "o"), "--delays", "6", "--epsilon", "20",
                     "--num-eigen", "4", "--L0", "2", "--eps1", "1e9",
                     "--train-end", "602", "--predict-start", "620",
                     "--predict-end", "700"]) == 0
    assert capsys.readouterr().err.startswith(
        "qpdecomp: warning: no nonzero frequency survived")
    model = dc.load_model(tmp_path / "o" / "model.npz")
    assert 0 < model.epsilon < 1e-12
    rows = np.loadtxt(tmp_path / "o" / "prediction.csv", delimiter=",",
                      skiprows=1)
    assert rows.shape == (80, 7) and np.isfinite(rows).all()
