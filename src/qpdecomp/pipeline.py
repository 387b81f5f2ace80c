"""End-to-end pipeline: ingestion -> kernel -> spectral basis -> frequency
filter -> decomposition -> reconstruction/prediction, with plot-ready CSV
artifacts and a manifest sufficient to re-run the pipeline.

Every command that reads a series goes through :func:`load_series`, and every
command that fits goes through :func:`fit`, so ``run`` and ``decompose`` give
the same selection and model from the same configuration.
:func:`run_pipeline` writes every artifact of a fit:
:func:`write_frequencies`, :func:`write_diagnostics`,
:func:`write_reconstruction` from the model and the training window and,
with a predict window, :func:`write_prediction` from the :func:`predict`
free run that the ``predict`` command shares.  Its output directory is
written through :func:`errors.writing_dir` and appears whole or not at all.

:class:`PipelineConfig` is the one configuration schema: its fields' types
(:data:`CONFIG_KEYS`) and defaults parse config files and manifests, which
:func:`load_config` reads (flat ``key = value`` lines, ``#`` comments), and
command-line flags alike, merged as defaults, then the file, then the flags.
A relative ``input`` in a file resolves against the file's directory.  All
CSV floats carry 17 significant digits so artifacts round-trip exactly;
identical config and input give byte-identical artifacts apart from the
manifest timestamp line, on the same BLAS build and thread count.

One clock: every time, of the harmonics and of each written ``time_s``
column, is the input's own, ``t0 + index * dt``.  Row m of the embedded
training data spans source samples m..m+q and is anchored at its newest
sample, so the fit rows are the training window from sample q, a series
whose t0 the model's residual keeps as its harmonics' phase reference.  A
prediction from sample s of any input is placed by that input's
timestamps, wherever its first row lies: no caller pairs an array with a
time.
The kernel's N x M and M x M arrays (M reference points, see
:func:`kernel.reference_stride`) live only inside
:func:`spectral.decompose`, so nothing in a :class:`Fit` is either.
"""

import hashlib
import os
import sys
import typing
import warnings
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import decompose as dc
from . import freqfilter, kernel, series, spectral
from .errors import ConfigError, DataError, reading, writing, writing_dir
# perfbench/tracer.py times every CSV write under this name
from .series import write_table as _write_table


@dataclass(frozen=True)
class PipelineConfig:
    """Every pipeline parameter, and the one schema for reading them: a
    field's annotation says how a text value from a config file, a manifest
    or a flag is parsed (see :func:`build_config`).  Construction checks the
    keys that every command reads; :func:`run_pipeline` checks ``outdir``
    and the predict window, which only a full run reads."""

    input: str
    outdir: str = ""
    timestamp_column: str = "time"
    channels: tuple[str, ...] = ()      # empty: every non-timestamp column
    dt_seconds: float = 0.0             # 0: keep the input grid (must be regular)
    max_gap_factor: float = 10.0
    delays: int = 20
    epsilon: float = 0.0                # 0: 1% quantile of squared distances
    reference_points: int = 0           # 0: every ceil(N/2048)-th delay vector
    num_eigen: int = 300
    eps1: float = 0.1
    eps2: float = 2.5
    L0: int = 100
    train_end: int = 0                  # 0: use the full series
    predict_start: int = 0
    predict_end: int = 0
    ma_windows: tuple[int, ...] = ()    # empty: no error columns

    def __post_init__(self):
        if not self.input:
            raise ConfigError("input is required")
        for i, name in enumerate(self.channels):
            # a manifest writes the channels as one whitespace-separated line
            if not name or any(ch.isspace() for ch in name):
                raise ConfigError(f"channel name {name!r} is empty or "
                                  f"contains whitespace")
            if name in self.channels[:i]:
                raise ConfigError(f"channel {name!r} is named twice")
        # written as `not 0 <= x < inf` / `not x > 0`, so that NaN fails
        # them too
        if not 0 <= self.dt_seconds < np.inf:
            raise ConfigError("dt_seconds must be positive and finite (or 0 "
                              "to keep the grid)")
        if not self.max_gap_factor > 0:
            raise ConfigError("max_gap_factor must be positive")
        if self.delays < 0:
            raise ConfigError("delays must be >= 0")
        if not 0 <= self.epsilon < np.inf:
            raise ConfigError("epsilon must be positive and finite (or 0 to "
                              "derive it from the data)")
        if self.reference_points < 0:
            raise ConfigError("reference_points must be >= 0 (0 takes every "
                              "ceil(N/2048)-th delay vector)")
        if self.num_eigen < 1:
            raise ConfigError("num_eigen must be >= 1")
        if not (self.eps1 > 0 and self.eps2 > 0):
            raise ConfigError("eps1 and eps2 must be positive")
        if not (1 < self.L0 <= self.num_eigen):
            raise ConfigError(f"L0={self.L0} out of range 2..num_eigen")
        if self.train_end < 0:
            raise ConfigError("train_end must be >= 0")
        for i, w in enumerate(self.ma_windows):
            if w < 1:
                raise ConfigError("ma_windows entries must be >= 1")
            if w in self.ma_windows[:i]:
                raise ConfigError(f"ma_windows lists {w} twice")


# each config key, with the type that parses its text
CONFIG_KEYS = {f.name: f.type for f in fields(PipelineConfig)}
# the help of the keys' flags, where they have one ("%%" prints as "%")
KEY_HELP = {
    "input": "input CSV file",
    "channels": "value columns to keep (default: all non-timestamp)",
    "dt_seconds": "resample to this step; 0 keeps the input grid",
    "max_gap_factor": "widest input gap to resample across, in steps",
    "train_end": "training window length in samples; 0 uses everything",
    "epsilon": "Gaussian kernel bandwidth (squared-distance units); 0, the "
               "default, takes the 1%% quantile of the squared delay "
               "distances",
    "reference_points": "kernel reference points: every ceil(N/M)-th delay "
                        "vector; 0, the default, takes M = 2048, and any M "
                        "of at least N keeps all N",
    "predict_start": "first sample of the predict window; set both ends or "
                     "neither",
    "ma_windows": "moving-average windows of the prediction's error columns; "
                  "none by default",
}
# removed keys, with the default that earlier manifests wrote for them: any
# other value asks for a result that can no longer be produced
_RETIRED_KEYS = {"merge_adjacent": "false", "clip_factor": "0.0",
                 "standardize": "false", "resample_method": "hold"}
# added keys, with the value that re-runs a manifest written before them as
# it ran: such a manifest's kernel took every delay vector as a reference,
# which any count of at least N asks for
_ADDED_KEYS = {"reference_points": str(sys.maxsize)}
# removed commands, with what writes their output now
RETIRED_COMMANDS = {
    "frequencies": "`run` without a predict window, which writes "
                   "frequencies.csv and prints the period table",
    "diagnostics": "`run`, which writes the same tables into diagnostics/",
    "reconstruct": "`run`'s reconstruction.csv, or `predict --init-at <q+1>` "
                   "for a free run over the training window",
}


def _parse(kind, value):
    """``value`` as a ``kind``: text from a file or a flag, or a typed value.
    Tuples are whitespace-separated text or a sequence (a multi-value flag)."""
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        parts = value.split() if isinstance(value, str) else value
        return tuple(_parse(item, v) for v in parts)
    return kind(value)


def _coerce(key, raw, where=""):
    """``raw`` parsed as key's type; ``where`` prefixes the error."""
    value = raw.strip() if isinstance(raw, str) else raw
    try:
        return _parse(CONFIG_KEYS[key], value)
    except (ValueError, TypeError):
        raise ConfigError(f"{where}cannot parse config value {key} = "
                          f"{raw!r}") from None


def build_config(values) -> PipelineConfig:
    """Build a validated config from a dict of values, as text (from a file
    or a flag) or already typed."""
    unknown = set(values).difference(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    if "input" not in values:
        raise ConfigError("missing required config key 'input'")
    return PipelineConfig(**{k: _coerce(k, v) for k, v in values.items()})


def load_config(path, overrides=None, *, manifest=False) -> PipelineConfig:
    """Read the ``key = value`` lines of a config file, or of a manifest
    with ``manifest``, apply the overrides that are not None, and build
    the config: defaults, then the file, then the overrides.

    The file is UTF-8, with or without a byte-order mark.  Each value is
    parsed at its line, so a value that does not parse, or a config key
    set twice, is an error of the file even where an override sets the
    key.  A config file rejects unknown keys; a manifest skips them, so
    that it can carry hashes and keys that earlier versions wrote, but not
    a key of ``_RETIRED_KEYS`` away from its old default; a key of
    ``_ADDED_KEYS`` that a manifest lacks takes the value that earlier
    versions ran with.  A relative ``input`` in the file resolves against
    the file's directory; an override is taken as it is.  When a
    manifest's own input no longer has the SHA-256 that the manifest
    records, a warning names both files.
    """
    path = Path(path)
    values, first_at, recorded = {}, {}, None
    with reading(path, ConfigError):
        lines = path.read_text(encoding="utf-8-sig").splitlines()
        for line_no, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, raw = stripped.partition("=")
            key, raw = key.strip(), raw.strip()
            if not sep:
                raise ConfigError(f"line {line_no}: expected 'key = value'")
            if key in CONFIG_KEYS:
                if key in first_at:
                    raise ConfigError(f"line {line_no}: {key} is set twice "
                                      f"(first at line {first_at[key]})")
                first_at[key] = line_no
                values[key] = _coerce(key, raw, f"line {line_no}: ")
            elif not manifest:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
            elif key == "input_sha256":
                recorded = raw
            elif key in _RETIRED_KEYS and raw != _RETIRED_KEYS[key]:
                raise ConfigError(f"line {line_no}: {key} = {raw} was "
                                  f"removed; only its old default re-runs")
    if manifest:
        values = {**_ADDED_KEYS, **values}
    if values.get("input") and not os.path.isabs(values["input"]):
        values["input"] = str((path.parent / values["input"]).resolve())
    overrides = overrides or {}
    values.update((k, v) for k, v in overrides.items() if v is not None)
    config = build_config(values)
    if recorded is not None and overrides.get("input") is None:
        try:
            changed = _sha256(config.input) != recorded
        except OSError:
            changed = False     # reading the input reports it
        if changed:
            warnings.warn(f"{path}: input {config.input} has changed since "
                          f"the manifest was written (its SHA-256 differs), "
                          f"so the re-run may not reproduce its artifacts")
    return config


def config_lines(config: PipelineConfig):
    """One ``key = value`` line per field, in the text that
    :func:`build_config` reads back to an equal config."""
    out = []
    for f in fields(PipelineConfig):
        val = getattr(config, f.name)
        if isinstance(val, tuple):
            val = " ".join(str(v) for v in val)
        out.append(f"{f.name} = {val}")
    return out


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def format_period(seconds: float) -> str:
    """Render a period in its largest natural unit with 3 significant figures."""
    if not np.isfinite(seconds):
        return "∞ (mean)"
    for unit, scale in (("d", 86400.0), ("h", 3600.0), ("min", 60.0)):
        if seconds >= scale:
            return f"{seconds / scale:.3g} {unit}"
    return f"{seconds:.3g} s"


def report_periods(selection) -> str:
    """Human-readable period table, split at one day as in the diagnostics plots."""
    rows = sorted(zip(selection.periods, selection.omegas, selection.amplitudes),
                  key=lambda r: -r[0])
    long_rows = [r for r in rows if r[0] >= 86400.0 or not np.isfinite(r[0])]
    short_rows = [r for r in rows if r[0] < 86400.0]
    out = []

    def panel(title, entries):
        out.append(title)
        if not entries:
            out.append("  (none)")
            return
        out.append(f"  {'period':>12}  {'omega_rad_per_s':>20}  {'amplitude':>12}")
        for period, om, amp in entries:
            out.append(f"  {format_period(period):>12}  {om:>20.10g}  {amp:>12.6g}")

    panel("long periods (>= 1 day)", long_rows)
    panel("short periods (< 1 day)", short_rows)
    return "\n".join(out)


def load_series(config: PipelineConfig) -> series.TimeSeries:
    """Read the input series and, if ``dt_seconds`` is set, resample it onto
    that step, bridging gaps of up to ``max_gap_factor`` steps."""
    return series.load_csv(config.input, timestamp=config.timestamp_column,
                           channels=list(config.channels) or None,
                           dt=config.dt_seconds,
                           max_gap=config.max_gap_factor * config.dt_seconds)


class Fit(NamedTuple):
    """The method fitted on the training window."""

    data: series.TimeSeries
    train: series.TimeSeries
    basis: spectral.SpectralBasis
    table: freqfilter.RkhsNormTable
    selection: freqfilter.FrequencySelection
    model: dc.QPModel


def fit(config: PipelineConfig) -> Fit:
    """Load the series and fit it: delay embedding, kernel, eigenbasis,
    frequency selection, periodic fit and the map of its residual.  An
    error of the windows (with ``ma_windows`` set, the predict window's
    observed values among them, :func:`check_observed`), the delays, the
    eigensolve or the fits against the series names the input."""
    data = load_series(config)
    # the parameters meet the series here, so an error names the input
    with reading(config.input):
        train_end = config.train_end or data.n
        if train_end > data.n:
            raise DataError(f"train_end={train_end} exceeds series length "
                            f"{data.n}")
        if config.predict_end > data.n:
            raise DataError(f"predict window end {config.predict_end} exceeds "
                            f"series length {data.n}")
        if config.ma_windows:
            check_observed(data, config.predict_start, config.predict_end)
        train = series.window(data, 0, train_end)
        q = config.delays
        emb = series.delay_embed(train, q)
        stride = kernel.reference_stride(emb.n_points, config.reference_points)
        basis = spectral.decompose(emb, config.epsilon, config.num_eigen,
                                   stride)
        table = freqfilter.rkhs_norm_table(basis, data.dt)
        selection = freqfilter.select(table, eps1=config.eps1,
                                      eps2=config.eps2, L0=config.L0)
        A, residual = dc.fit_periodic(series.window(train, q, train.n),
                                      selection.omegas)
        model = dc.fit_chaotic(selection.omegas, A, residual)
    return Fit(data, train, basis, table, selection, model)


def write_frequencies(path, result: Fit):
    """Write the selected bins as ``frequencies.csv``."""
    selection = result.selection
    periods = selection.periods
    _write_table(
        path,
        ["bin", "omega_rad_per_s", "period_s", "period_human", "amplitude",
         "growth"],
        [[str(int(j)) for j in selection.indices],
         selection.omegas,
         periods,
         [format_period(p) for p in periods],
         selection.amplitudes,
         selection.growth],
    )


def write_diagnostics(outdir, result: Fit):
    """Write the bandwidth and threshold diagnostic tables into ``outdir``."""
    outdir = Path(outdir)
    basis = result.basis
    counts, edges = basis.sqdist_histogram
    _write_table(
        outdir / "sqdist_histogram.csv",
        ["bin_left", "bin_right", "count"],
        [edges[:-1], edges[1:], [str(int(c)) for c in counts]],
    )
    # the growth of W across columns locates L0; the inflection of the
    # sorted growths past it suggests eps2
    W = result.table.W
    _write_table(
        outdir / "norm_growth_by_column.csv",
        ["l", "w_mean", "w_max"],
        [[str(l) for l in range(1, W.shape[1] + 1)], W.mean(axis=0),
         W.max(axis=0)],
    )
    growth = freqfilter.log_growth(result.table, result.selection.L0)
    growth = np.sort(growth[np.isfinite(growth)])
    _write_table(
        outdir / "growth_ratio_sorted.csv",
        ["rank", "ln_ratio"],
        [[str(r) for r in range(len(growth))], growth],
    )
    _write_table(
        outdir / "eigenvalues.csv",
        ["l", "sigma", "lambda"],
        [[str(l) for l in range(1, basis.L + 1)], basis.sigma, basis.lam],
    )


def write_estimate(path, names, times, label, estimate, truth=None,
                   extra=((), ())):
    """Write ``time_s``, then ``truth_<c>`` when ``truth`` is given, then
    ``<label>_<c>`` for each channel name, then the ``extra`` (header,
    columns) pair."""
    header, cols = ["time_s"], [times]
    if truth is not None:
        header += [f"truth_{c}" for c in names]
        cols += list(truth.T)
    header += [f"{label}_{c}" for c in names]
    cols += list(estimate.T)
    _write_table(path, [*header, *extra[0]], [*cols, *extra[1]])


def check_observed(data: series.TimeSeries, start, end):
    """Raise :class:`DataError` when a channel of ``data`` is all zero over
    samples ``start`` to ``end`` (exclusive), the observed window whose
    peak the error columns divide by (:func:`decompose.relative_error`), so
    that a run stops before it fits or free-runs; a window that does not
    lie in ``data`` has no error columns, and passes."""
    if not 0 <= start < end <= data.n:
        return
    window = data.values[start:end]
    zero = [c for c, col in zip(data.channel_names, window.T) if not col.any()]
    if zero:
        raise DataError(f"all-zero truth channels {zero} in samples "
                        f"{start}..{end - 1}: error is undefined")


def write_reconstruction(path, model: dc.QPModel, train: series.TimeSeries):
    """Write ``reconstruction.csv`` from the model and its training window
    ``train``, whose first q = ``train.n - model.n`` samples the delay
    embedding took: the fit rows from sample ``max(q, CHAOS_DELAYS + 1)``,
    the first with a residual window before it, then g_per at their times
    plus g_chaos of that window (the model's one-step prediction), then
    g_per alone as ``per_<c>``.  The windows are the samples less g_per,
    from :func:`decompose.residual_windows`, as a :func:`predict` run's
    first window is."""
    q = train.n - model.n
    first = max(q, dc.CHAOS_DELAYS + 1)
    per = dc.eval_periodic(model, model.residual.t0, model.n)[first - q:]
    windows = dc.residual_windows(model, train, first, train.n)
    recon = per + dc.eval_chaotic(model, windows)
    names = train.channel_names
    write_estimate(path, names, train.times()[first:], "recon", recon,
                   train.values[first:], ([f"per_{c}" for c in names], per.T))


def predict(model: dc.QPModel, data: series.TimeSeries, start, steps):
    """Free-run ``model`` for ``steps`` samples from sample ``start`` of
    ``data`` (:func:`decompose.reconstruct`), which must hold the model's
    channels, in its order, on its step, and may start anywhere: its own
    timestamps place it.  Returns the times, the prediction and the
    observed window (None when ``data`` ends first)."""
    pred = dc.reconstruct(model, data, start, steps)
    times = data.t0 + (start + np.arange(steps)) * data.dt
    truth = (series.window(data, start, start + steps)
             if start + steps <= data.n else None)
    return times, pred, truth


def write_prediction(path, forecast, ma_windows=()):
    """Write a :func:`predict` result as ``prediction.csv``: the ``pred_<c>``
    columns, with the observed window when there is one and then, for each
    of ``ma_windows``, the moving average of the relative error as
    ``err_<c>_ma<w>``; windows without an observed window warn."""
    times, pred, truth = forecast
    header, cols = [], []
    if ma_windows and truth is None:
        warnings.warn("no error columns: they need the observed window, and "
                      "the input ends before the prediction does")
    elif ma_windows:
        err = dc.relative_error(truth, pred)
        for w in ma_windows:
            for ci, c in enumerate(truth.channel_names):
                header.append(f"err_{c}_ma{w}")
                cols.append(dc.moving_average(err[:, ci], w))
    write_estimate(path, pred.channel_names, times, "pred", pred.values,
                   None if truth is None else truth.values, (header, cols))


def run_pipeline(config: PipelineConfig) -> Fit:
    """Fit, write the artifact directory, and return the fit.

    Writes frequencies.csv, the in-sample reconstruction.csv with its
    periodic part, model.npz, diagnostics/, and a manifest listing every
    parameter and content hash; with a predict window (``predict_start`` and
    ``predict_end`` both set) also prediction.csv, with the error columns of
    ``ma_windows``.  A free run over the training window is
    ``qpdecomp predict --init-at <q+1>`` on model.npz and the input.

    ``outdir`` is written through :func:`errors.writing_dir`: it must be
    absent or empty, which is checked before the input is read, and appears
    whole or not at all.
    """
    if not config.outdir:
        raise ConfigError("outdir is required")
    if config.predict_start or config.predict_end:
        if not 0 < config.predict_start < config.predict_end:
            raise ConfigError("a predict window needs both ends, with "
                              "0 < predict_start < predict_end")
        if config.predict_start < dc.CHAOS_DELAYS + 1:
            raise ConfigError(
                f"predict_start must be >= {dc.CHAOS_DELAYS + 1} so an "
                f"initial residual window exists"
            )
    with writing_dir(config.outdir) as staged:
        return _run_stages(config, staged)


def _run_stages(config: PipelineConfig, outdir: Path) -> Fit:
    result = fit(config)
    data, train, model = result.data, result.train, result.model

    write_frequencies(outdir / "frequencies.csv", result)
    write_reconstruction(outdir / "reconstruction.csv", model, train)

    # prediction over the held-out window, which fit() checked lies in data
    ps, pe = config.predict_start, config.predict_end
    if pe:
        write_prediction(outdir / "prediction.csv",
                         predict(model, data, ps, pe - ps), config.ma_windows)

    dc.save_model(model, outdir / "model.npz")
    (outdir / "diagnostics").mkdir()
    write_diagnostics(outdir / "diagnostics", result)

    # manifest last: every parameter, with the bandwidth and the reference
    # count the kernel used, so that a re-run does not derive them again,
    # plus content hashes
    absolute_input = str(Path(config.input).resolve())
    basis = result.basis
    lines = config_lines(replace(config, input=absolute_input,
                                 epsilon=basis.epsilon,
                                 reference_points=basis.reference_points))
    lines.append(f"input_sha256 = {_sha256(config.input)}")
    lines.append(f"train_data_sha256 = {dc.training_data_hash(train)}")
    for p in sorted(p for p in outdir.rglob("*") if p.is_file()):
        lines.append(f"artifact_sha256 {p.relative_to(outdir)} = {_sha256(p)}")
    lines.append(f"created_utc = {datetime.now(timezone.utc).isoformat()}")
    with writing(outdir / "manifest.txt") as fh:
        fh.write("\n".join(lines) + "\n")
    return result
