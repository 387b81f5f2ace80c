"""The library's checks of a caller's input, each of which the command line
never reaches: every row calls one function with one bad argument and
asserts the error class and its whole message."""

import dataclasses
import re

import numpy as np
import pytest

from qpdecomp import decompose as dc
from qpdecomp import freqfilter, kernel, series, spectral
from qpdecomp.errors import DataError, NumericalError


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


# name: (the call on the ctx fixture's objects, error class, the message
# as a regular expression)
GUARDS = {
    "reconstruct_no_steps": (
        lambda c: dc.reconstruct(c["model"], c["emb"].points[0], 0, 0.0),
        DataError, "n_steps must be >= 1, got 0"),
    "decompose_stride_0": (
        lambda c: spectral.decompose(c["emb"], 1.0, 5, stride=0),
        DataError, "stride must be >= 1, got 0"),
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
    "embedding_points_shape": (
        lambda c: series.DelayEmbedding(c["ts"], 2, c["emb"].points[1:]),
        DataError, r"points shape \(37, 6\) does not match \(38, 6\)"),
    "kernel_not_an_embedding": (
        lambda c: kernel.gaussian_kernel(c["emb"].points, 1.0),
        DataError, "expected a DelayEmbedding, got ndarray"),
    "kernel_empty_embedding": (
        lambda c: kernel.gaussian_kernel(series.DelayEmbedding(
            c["ts"], 40, np.zeros((0, 82))), 1.0),
        DataError, "embedding is empty"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_rejects_the_input(ctx, name):
    call, cls, message = GUARDS[name]
    with pytest.raises(cls) as exc:
        call(ctx)
    assert type(exc.value) is cls
    assert re.fullmatch(message, str(exc.value)), str(exc.value)
