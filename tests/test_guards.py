"""The library's checks of a caller's input, each of which the command line
never reaches: every row calls one function with one bad argument and
asserts the error class and its whole message."""

import dataclasses
import re

import numpy as np
import pytest

from qpdecomp import decompose as dc
from qpdecomp import freqfilter, kernel, pipeline, series, spectral, synth
from qpdecomp.errors import ConfigError, DataError, NumericalError


@pytest.fixture(scope="module")
def ctx(blob_basis):
    """A small series, its embedding and a model over it, and a basis."""
    ts = series.TimeSeries(
        np.random.default_rng(0).standard_normal((40, 2)), dt=1.0)
    emb = series.delay_embed(ts, 2)
    model = dc.QPModel(omegas=np.zeros(0), A=np.zeros((0, 2)), residual=ts,
                       epsilon=1.0)
    return dict(ts=ts, emb=emb, basis=blob_basis, model=model)


def basis_with(c, **changes):
    return dataclasses.replace(c["basis"], **changes)


def reordered(c):
    """The model's series with its two channels swapped, names and all."""
    ts = c["ts"]
    return series.TimeSeries(ts.values[:, ::-1], dt=ts.dt,
                             channel_names=ts.channel_names[::-1])


def other_step(c):
    return dataclasses.replace(c["ts"], dt=2.0)


def one_channel(c):
    return series.TimeSeries(c["ts"].values[:, :1], dt=1.0)


def infinite_from_step_5(theta, x):
    """An observation of the driven state that is infinite from step 5."""
    return np.where(np.arange(len(x))[:, None] >= 5, np.inf, x)


# name: (the call on the ctx fixture's objects, error class, the message
# as a regular expression)
GUARDS = {
    # a model file's A is a complex array (load_model checks its kind); a
    # caller's A is anything that converts to one
    "model_A_not_numeric": (
        lambda c: dc.QPModel(omegas=[0.0], A=[["one", "two"]],
                             residual=c["ts"], epsilon=1.0),
        DataError, r"model A is not a complex array: .+"),
    "reconstruct_no_steps": (
        lambda c: dc.reconstruct(c["model"], c["ts"], 3, 0),
        DataError, "n_steps must be >= 1, got 0"),
    # a series against the model: its channels in another order, another
    # step, or one channel of the model's two
    "residual_windows_reordered_channels": (
        lambda c: dc.residual_windows(c["model"], reordered(c), 3, 10),
        DataError, r"input channels \['ch1', 'ch0'\] differ from the "
                   r"model's \['ch0', 'ch1'\]"),
    "residual_windows_other_step": (
        lambda c: dc.residual_windows(c["model"], other_step(c), 3, 10),
        DataError, "input step 2 s differs from the model's dt 1 s"),
    "residual_windows_one_channel": (
        lambda c: dc.residual_windows(c["model"], one_channel(c), 3, 10),
        DataError, r"input channels \['ch0'\] differ from the model's "
                   r"\['ch0', 'ch1'\]"),
    "reconstruct_reordered_channels": (
        lambda c: dc.reconstruct(c["model"], reordered(c), 3, 10),
        DataError, r"input channels \['ch1', 'ch0'\] differ from the "
                   r"model's \['ch0', 'ch1'\]"),
    "reconstruct_other_step": (
        lambda c: dc.reconstruct(c["model"], other_step(c), 3, 10),
        DataError, "input step 2 s differs from the model's dt 1 s"),
    "reconstruct_one_channel": (
        lambda c: dc.reconstruct(c["model"], one_channel(c), 3, 10),
        DataError, r"input channels \['ch0'\] differ from the model's "
                   r"\['ch0', 'ch1'\]"),
    "decompose_reference_points_negative": (
        lambda c: spectral.decompose(c["emb"], 1.0, 5, reference_points=-1),
        DataError, "reference_points must be >= 0, got -1"),
    # the type is checked before any of its attributes is read
    "spectral_bare_array": (
        lambda c: spectral.decompose(c["emb"].points, 1.0, 2),
        DataError, "expected a DelayEmbedding, got ndarray"),
    "basis_empty_lambda": (
        lambda c: basis_with(c, lam=np.zeros(0)),
        NumericalError, "lam must be a non-empty vector"),
    "basis_lambda_increasing": (
        lambda c: basis_with(c, lam=c["basis"].lam[::-1]),
        NumericalError, "eigenvalues must be non-increasing"),
    "basis_lambda_1_not_1": (
        lambda c: basis_with(c, lam=0.5 * c["basis"].lam),
        NumericalError,
        r"leading eigenvalue 0\.5 departs from 1 beyond 1e-06"),
    "basis_phi_1_not_constant": (
        lambda c: basis_with(c, Phi=c["basis"].Phi[:, ::-1]),
        NumericalError, r"leading eigenfunction is not constant \(cv=.+\)"),
    "norm_table_dt_0": (
        lambda c: freqfilter.rkhs_norm_table(c["basis"], 0.0),
        DataError, r"dt must be positive, got 0\.0"),
    "norm_table_dt_negative": (
        lambda c: freqfilter.rkhs_norm_table(c["basis"], -1.0),
        DataError, r"dt must be positive, got -1\.0"),
    "resample_dt_0": (
        lambda c: series.resample(np.arange(4.0), np.ones((4, 1)), 0.0),
        DataError, r"dt must be positive, got 0\.0"),
    "resample_dt_nan": (
        lambda c: series.resample(np.arange(4.0), np.ones((4, 1)), np.nan),
        DataError, "dt must be positive, got nan"),
    "resample_value_inf": (
        lambda c: series.resample(np.arange(4.0),
                                  np.array([[1.0], [np.inf], [1.0], [1.0]]),
                                  1.0),
        DataError, "values contain NaN or infinite entries"),
    "window_float_bounds": (
        lambda c: series.window(c["ts"], 0.0, 10),
        DataError, "window indices must be integers"),
    "delay_embed_negative_q": (
        lambda c: series.delay_embed(c["ts"], -1),
        DataError, "q must be a non-negative integer, got -1"),
    "delay_embed_fractional_q": (
        lambda c: series.delay_embed(c["ts"], 1.5),
        DataError, r"q must be a non-negative integer, got 1\.5"),
    "series_channel_names": (
        lambda c: series.TimeSeries(np.ones((3, 2)), dt=1.0,
                                    channel_names=("a",)),
        DataError, "1 channel names for 2 channels"),
    # one delay vector as a 1-D array, not a matrix of one row
    "embedding_points_shape": (
        lambda c: series.DelayEmbedding(c["emb"].points[0]),
        DataError, r"embedding points must be a non-empty N x dim matrix, "
                   r"got shape \(6,\)"),
    "kernel_not_an_embedding": (
        lambda c: kernel.gaussian_kernel(c["emb"].points, 1.0),
        DataError, "expected a DelayEmbedding, got ndarray"),
    # an infinite bandwidth weighs every pair alike: the eigenvalues collapse
    "kernel_inf_epsilon": (
        lambda c: kernel.gaussian_kernel(c["emb"], np.inf),
        DataError, r"epsilon must be positive and finite \(or 0 to derive "
                   r"it\), got inf"),
    "kernel_empty_embedding": (
        lambda c: kernel.gaussian_kernel(series.DelayEmbedding(
            np.zeros((0, 82))), 1.0),
        DataError, r"embedding points must be a non-empty N x dim matrix, "
                   r"got shape \(0, 82\)"),
    # the command line passes only the keys it has flags for
    "build_config_unknown_key": (
        lambda c: pipeline.build_config({"input": "x.csv", "solver": "dense"}),
        ConfigError, r"unknown config keys \['solver'\]"),
    "torus_driver_dimensions": (
        lambda c: synth.TorusDriver(omega=[1.0, 2.0], theta0=[0.0]),
        DataError, "omega and theta0 must have the same dimension"),
    "simulate_observation_not_finite": (
        lambda c: synth.simulate(dataclasses.replace(
            synth.standard_testbed("pure_torus_2"),
            observation=infinite_from_step_5), 10, 1.0),
        NumericalError, "observation became non-finite at step 5"),
    "norm_table_rows_off_the_axis": (
        lambda c: freqfilter.RkhsNormTable(W=np.ones((3, 2)),
                                           freqs=np.arange(2.0)),
        DataError, "W rows must match the frequency axis"),
    "norm_table_axis_not_from_0": (
        lambda c: freqfilter.RkhsNormTable(W=np.ones((2, 2)),
                                           freqs=np.array([1.0, 2.0])),
        DataError, "frequency axis must start at 0"),
    "selection_without_bin_0": (
        lambda c: freqfilter.FrequencySelection(
            indices=np.array([1, 2]), omegas=np.array([1.0, 2.0]),
            amplitudes=np.ones(2), growth=np.zeros(2), L0=2),
        DataError, "selection must contain bin 0"),
    # a repeated bin, or a repeated frequency under distinct bins
    "selection_bins_not_increasing": (
        lambda c: freqfilter.FrequencySelection(
            indices=np.array([0, 2, 2]), omegas=np.array([0.0, 1.0, 1.1]),
            amplitudes=np.ones(3), growth=np.zeros(3), L0=2),
        DataError, "selected bins and frequencies must be strictly "
                   "increasing"),
    "selection_frequencies_not_increasing": (
        lambda c: freqfilter.FrequencySelection(
            indices=np.array([0, 2, 3]), omegas=np.array([0.0, 1.0, 1.0]),
            amplitudes=np.ones(3), growth=np.zeros(3), L0=2),
        DataError, "selected bins and frequencies must be strictly "
                   "increasing"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_rejects_the_input(ctx, name):
    call, cls, message = GUARDS[name]
    with pytest.raises(cls) as exc:
        call(ctx)
    assert type(exc.value) is cls
    assert re.fullmatch(message, str(exc.value)), str(exc.value)
