"""qpdecomp: decompose quasiperiodically driven time series.

Splits a multivariate series into a quasiperiodic component with
generating frequencies identified in a kernel eigenbasis and a chaotic
residual whose dynamics a kernel average of successors learns, then
reconstructs and predicts the series with a standalone data-driven
dynamical model.
"""

from .decompose import (
    QPModel,
    eval_chaotic,
    eval_periodic,
    fit_chaotic,
    fit_periodic,
    load_model,
    moving_average,
    reconstruct,
    relative_error,
    save_model,
)
from .errors import ConfigError, DataError, NumericalError, QpdecompError
from .freqfilter import (
    FrequencySelection,
    RkhsNormTable,
    rkhs_norm_table,
    select,
)
from .kernel import gaussian_kernel
from .pipeline import PipelineConfig, load_config, report_periods, run_pipeline
from .series import (
    DelayEmbedding,
    TimeSeries,
    delay_embed,
    load_csv,
    resample,
    window,
    write_csv,
)
# spectral.decompose is deliberately not re-exported here: the name would
# shadow the qpdecomp.decompose submodule; use qpdecomp.spectral.decompose
from .spectral import SpectralBasis
from .synth import SimulationResult, SkewProductSystem, TorusDriver, simulate, standard_testbed

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DelayEmbedding",
    "FrequencySelection",
    "NumericalError",
    "PipelineConfig",
    "QPModel",
    "QpdecompError",
    "RkhsNormTable",
    "SimulationResult",
    "SkewProductSystem",
    "SpectralBasis",
    "TimeSeries",
    "TorusDriver",
    "delay_embed",
    "eval_chaotic",
    "eval_periodic",
    "fit_chaotic",
    "fit_periodic",
    "gaussian_kernel",
    "load_config",
    "load_csv",
    "load_model",
    "moving_average",
    "reconstruct",
    "relative_error",
    "report_periods",
    "resample",
    "rkhs_norm_table",
    "run_pipeline",
    "save_model",
    "select",
    "simulate",
    "standard_testbed",
    "window",
    "write_csv",
]
