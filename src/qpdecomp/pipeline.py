"""End-to-end pipeline: ingestion -> kernel -> spectral basis -> frequency
filter -> decomposition -> reconstruction/prediction, with plot-ready CSV
artifacts and a manifest sufficient to re-run the pipeline.

Every command that reads a series goes through :func:`load_series`, and every
command that fits goes through :func:`fit`, so the same configuration gives
the same selection and model from ``run`` and from the single-step
subcommands.  :func:`write_frequencies` and :func:`write_diagnostics` write
the tables that both share.

Configuration is one flat key-value text file (``key = value`` lines, ``#``
comments); CLI flags override file values.  All CSV floats carry 17
significant digits so artifacts round-trip exactly; identical config and
input give byte-identical artifacts apart from the manifest timestamp line.

Pipeline clock: row m of the embedded training data spans source samples
m..m+q and is anchored at its newest sample, so fits use times
``(m + q) * dt`` and a prediction starting at source index s uses
``t_start = s * dt`` on the same clock.
"""

import hashlib
import os
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import decompose as dc
from . import freqfilter, kernel, series, spectral
from .errors import ConfigError, DataError

_FLOAT_FMT = "{:.17g}"

_DEFAULTS = {
    "timestamp_column": "time",
    "channels": (),            # empty: every non-timestamp column
    "dt_seconds": 0.0,         # 0: keep the input grid (must be regular)
    "resample_method": "hold",
    "max_gap_factor": 10.0,
    "standardize": False,
    "delays": 20,
    "epsilon": 0.1,
    "num_eigen": 300,
    "eps1": 0.1,
    "eps2": 2.5,
    "L0": 100,
    "merge_adjacent": False,
    "train_end": 0,            # 0: use the full series
    "predict_start": 0,
    "predict_end": 0,
    "ma_windows": (1, 10, 100),
    "mode": "insample",
    "clip_factor": 0.0,        # 0: no clipping
    "basis_cache": "",         # directory for content-addressed basis reuse
}


@dataclass(frozen=True)
class PipelineConfig:
    """Every pipeline parameter.  Construction checks the keys that every
    command reads; :func:`run_pipeline` checks ``outdir`` and the predict
    window, which only a full run reads."""

    input: str
    outdir: str = ""
    timestamp_column: str = _DEFAULTS["timestamp_column"]
    channels: tuple = _DEFAULTS["channels"]
    dt_seconds: float = _DEFAULTS["dt_seconds"]
    resample_method: str = _DEFAULTS["resample_method"]
    max_gap_factor: float = _DEFAULTS["max_gap_factor"]
    standardize: bool = _DEFAULTS["standardize"]
    delays: int = _DEFAULTS["delays"]
    epsilon: float = _DEFAULTS["epsilon"]
    num_eigen: int = _DEFAULTS["num_eigen"]
    eps1: float = _DEFAULTS["eps1"]
    eps2: float = _DEFAULTS["eps2"]
    L0: int = _DEFAULTS["L0"]
    merge_adjacent: bool = _DEFAULTS["merge_adjacent"]
    train_end: int = _DEFAULTS["train_end"]
    predict_start: int = _DEFAULTS["predict_start"]
    predict_end: int = _DEFAULTS["predict_end"]
    ma_windows: tuple = _DEFAULTS["ma_windows"]
    mode: str = _DEFAULTS["mode"]
    clip_factor: float = _DEFAULTS["clip_factor"]
    basis_cache: str = _DEFAULTS["basis_cache"]

    def __post_init__(self):
        if not self.input:
            raise ConfigError("input is required")
        if self.dt_seconds < 0:
            raise ConfigError("dt_seconds must be positive (or 0 to keep the grid)")
        if self.resample_method not in ("hold", "linear"):
            raise ConfigError(f"unknown resample_method {self.resample_method!r}")
        if self.max_gap_factor <= 0:
            raise ConfigError("max_gap_factor must be positive")
        if self.delays < 0:
            raise ConfigError("delays must be >= 0")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.num_eigen < 1:
            raise ConfigError("num_eigen must be >= 1")
        if self.eps1 <= 0 or self.eps2 <= 0:
            raise ConfigError("eps1 and eps2 must be positive")
        if not (1 < self.L0 <= self.num_eigen):
            raise ConfigError(f"L0={self.L0} out of range 2..num_eigen")
        if self.train_end < 0:
            raise ConfigError("train_end must be >= 0")
        if self.mode not in ("insample", "freerun"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if any(w < 1 for w in self.ma_windows):
            raise ConfigError("ma_windows entries must be >= 1")
        if self.clip_factor < 0:
            raise ConfigError("clip_factor must be >= 0")


_BOOL_KEYS = {"standardize", "merge_adjacent"}
_INT_KEYS = {"delays", "num_eigen", "L0", "train_end", "predict_start",
             "predict_end"}
_FLOAT_KEYS = {"dt_seconds", "max_gap_factor", "epsilon", "eps1", "eps2",
               "clip_factor"}
_TUPLE_INT_KEYS = {"ma_windows"}
_TUPLE_STR_KEYS = {"channels"}
CONFIG_KEYS = {f.name for f in fields(PipelineConfig)}


def _coerce(key, raw):
    text = raw.strip() if isinstance(raw, str) else raw
    try:
        if key in _BOOL_KEYS:
            if isinstance(text, bool):
                return text
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(text)
        if key in _INT_KEYS:
            return int(text)
        if key in _FLOAT_KEYS:
            return float(text)
        if key in _TUPLE_INT_KEYS:
            if isinstance(text, (tuple, list)):
                return tuple(int(v) for v in text)
            return tuple(int(v) for v in text.split())
        if key in _TUPLE_STR_KEYS:
            if isinstance(text, (tuple, list)):
                return tuple(text)
            return tuple(text.split())
        return str(text)
    except (ValueError, TypeError):
        raise ConfigError(f"cannot parse config value {key} = {raw!r}") from None


def parse_config_text(text):
    """Parse flat ``key = value`` lines into a raw dict (unknown keys rejected)."""
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {line_no}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"config line {line_no}: unknown key {key!r}")
        values[key] = raw.strip()
    return values


def load_config(path, overrides=None) -> PipelineConfig:
    """Read a config file, apply overrides, and validate.

    Relative ``input`` paths resolve against the config file's directory.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    values = parse_config_text(path.read_text(encoding="utf-8"))
    if overrides:
        for key, val in overrides.items():
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            if val is not None:
                values[key] = val
    kwargs = {k: _coerce(k, v) for k, v in values.items()}
    if "input" in kwargs and kwargs["input"] and not os.path.isabs(kwargs["input"]):
        kwargs["input"] = str((path.parent / kwargs["input"]).resolve())
    return build_config(kwargs)


def build_config(values) -> PipelineConfig:
    """Build a validated config from a plain dict of already-typed values."""
    unknown = set(values) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    coerced = {k: _coerce(k, v) for k, v in values.items()}
    if "input" not in coerced:
        raise ConfigError("missing required config key 'input'")
    try:
        return PipelineConfig(**coerced)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def config_lines(config: PipelineConfig):
    out = []
    for f in fields(PipelineConfig):
        val = getattr(config, f.name)
        if isinstance(val, tuple):
            val = " ".join(str(v) for v in val)
        elif isinstance(val, bool):
            val = "true" if val else "false"
        out.append(f"{f.name} = {val}")
    return out


def config_from_manifest(path) -> PipelineConfig:
    """Recover the full configuration from a manifest file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"manifest {path} does not exist")
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if not stripped or "=" not in stripped:
            continue
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in CONFIG_KEYS:
            values[key] = raw.strip()
    return build_config(values)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _fmt(v):
    return _FLOAT_FMT.format(float(v))


def _write_table(path, header, columns):
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            cells = [c if isinstance(c, str) else _fmt(c) for c in row]
            fh.write(",".join(cells) + "\n")


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
    if selection.m < 1:
        raise DataError("empty selection")
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


class _ArtifactTracker:
    """Records every path the pipeline writes so failures can clean up."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.created_dir = False
        self.paths = []

    def register(self, path):
        self.paths.append(Path(path))
        return Path(path)

    def cleanup(self):
        for p in reversed(self.paths):
            if p.is_file():
                p.unlink()
        for sub in ("diagnostics",):
            d = self.outdir / sub
            if d.is_dir() and not any(d.iterdir()):
                d.rmdir()
        if self.created_dir and self.outdir.is_dir() and not any(self.outdir.iterdir()):
            self.outdir.rmdir()


def load_series(config: PipelineConfig) -> series.TimeSeries:
    """Read the input series, resample it onto ``dt_seconds`` (bridging gaps
    up to ``max_gap_factor`` steps) and standardize it, as ``config`` says."""
    if not Path(config.input).is_file():
        raise DataError(f"input file {config.input} does not exist")
    data = series.load_csv(config.input, timestamp=config.timestamp_column,
                           channels=list(config.channels) or None)
    if config.dt_seconds > 0:
        data = series.resample(data, config.dt_seconds,
                               method=config.resample_method,
                               max_gap=config.max_gap_factor * config.dt_seconds)
    elif not data.regular:
        raise DataError(
            "input sampling is irregular; set dt_seconds to resample it"
        )
    if config.standardize:
        data = series.standardize(data)
    return data


class Fit(NamedTuple):
    """The method fitted on the training window of the loaded series."""

    data: series.TimeSeries
    train: series.TimeSeries
    basis: spectral.SpectralBasis
    table: freqfilter.RkhsNormTable
    selection: freqfilter.FrequencySelection
    periodic: dc.PeriodicFit
    model: dc.QPModel


def fit(config: PipelineConfig) -> Fit:
    """Load the series and fit it: delay embedding, kernel, eigenbasis,
    frequency selection, periodic fit and chaotic fit."""
    data = load_series(config)
    train_end = config.train_end or data.n
    if train_end > data.n:
        raise DataError(f"train_end={train_end} exceeds series length {data.n}")
    train = series.window(data, 0, train_end)
    q = config.delays
    emb = series.delay_embed(train, q)
    ks = kernel.gaussian_kernel(emb, config.epsilon)
    basis = None
    if config.basis_cache:
        basis = spectral.load_basis_cache(config.basis_cache, ks,
                                          config.num_eigen)
    if basis is None:
        basis = spectral.decompose(ks, config.num_eigen)
        if config.basis_cache:
            spectral.save_basis_cache(basis, config.basis_cache)
    table = freqfilter.rkhs_norm_table(basis, data.dt)
    selection = freqfilter.select(table, eps1=config.eps1, eps2=config.eps2,
                                  L0=config.L0)
    if config.merge_adjacent:
        selection = freqfilter.merge_adjacent(selection)

    pfit = dc.fit_periodic(train.values[q:], selection, data.dt, t0=q * data.dt)
    E = dc.fit_chaotic(pfit.residual, basis)
    model = dc.QPModel.from_basis(basis, selection, pfit.A, E)
    return Fit(data, train, basis, table, selection, pfit, model)


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
         freqfilter.selection_growth(result.table, selection)],
    )


def write_diagnostics(outdir, result: Fit, register=Path):
    """Write the bandwidth and threshold diagnostic tables into ``outdir``.

    ``register`` is called on each path before it is written.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    basis = result.basis
    counts, edges = basis.kernel.sqdist_histogram
    _write_table(
        register(outdir / "sqdist_histogram.csv"),
        ["bin_left", "bin_right", "count"],
        [edges[:-1], edges[1:], [str(int(c)) for c in counts]],
    )
    tdiag = freqfilter.threshold_diagnostics(result.table,
                                             result.selection.params.L0)
    _write_table(
        register(outdir / "norm_growth_by_column.csv"),
        ["l", "w_mean", "w_max"],
        [[str(l) for l in tdiag.column_index], tdiag.column_mean, tdiag.column_max],
    )
    _write_table(
        register(outdir / "growth_ratio_sorted.csv"),
        ["rank", "ln_ratio"],
        [[str(r) for r in range(len(tdiag.sorted_growth))], tdiag.sorted_growth],
    )
    _write_table(
        register(outdir / "eigenvalues.csv"),
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


def error_columns(truth, estimate, ma_windows):
    """Moving averages of the relative error of ``estimate`` against
    ``truth`` (both series), as ``err_<c>_ma<w>`` (header, columns)."""
    err = dc.relative_error(truth, estimate)
    header, cols = [], []
    for m_win in ma_windows:
        for ci, cname in enumerate(truth.channel_names):
            header.append(f"err_{cname}_ma{m_win}")
            cols.append(dc.moving_average(err[:, ci], m_win))
    return header, cols


def run_pipeline(config: PipelineConfig) -> Path:
    """Run the full pipeline and write the artifact directory.

    Writes frequencies.csv, periodic.csv, chaotic_coeffs.csv,
    reconstruction.csv, prediction.csv, errors.csv, model.npz, diagnostics/,
    and a manifest listing every parameter and content hash.  On any error
    the partial artifacts are removed.  A lock file prevents two pipelines
    from sharing one output directory.
    """
    if not config.outdir:
        raise ConfigError("outdir is required")
    if not (0 < config.predict_start < config.predict_end):
        raise ConfigError(
            "predict window is required and must satisfy 0 < start < end"
        )
    if config.predict_start < config.delays + 1:
        raise ConfigError(
            f"predict_start must be >= delays+1 ({config.delays + 1}) so an "
            f"initial delay window exists"
        )
    outdir = Path(config.outdir)
    tracker = _ArtifactTracker(outdir)
    if not outdir.exists():
        outdir.mkdir(parents=True)
        tracker.created_dir = True
    elif any(p.name != ".lock" for p in outdir.iterdir()):
        raise ConfigError(f"output directory {outdir} is not empty")
    lock = outdir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
    except FileExistsError:
        raise ConfigError(
            f"output directory {outdir} is locked by another pipeline run"
        ) from None
    failed = False
    try:
        result = _run_stages(config, outdir, tracker)
    except BaseException:
        failed = True
        raise
    finally:
        if lock.exists():
            lock.unlink()
        if failed:
            tracker.cleanup()
    return result


def _run_stages(config: PipelineConfig, outdir: Path, tracker) -> Path:
    result = fit(config)
    data, train, basis = result.data, result.train, result.basis
    pfit, model = result.periodic, result.model
    q = config.delays
    clip = config.clip_factor or None

    write_frequencies(tracker.register(outdir / "frequencies.csv"), result)

    # periodic component over the training rows
    fit_times = (q + np.arange(basis.n)) * data.dt
    _write_table(
        tracker.register(outdir / "periodic.csv"),
        ["time_s", *(f"per_{c}" for c in data.channel_names)],
        [fit_times, *pfit.fitted.T],
    )

    # chaotic coefficients
    _write_table(
        tracker.register(outdir / "chaotic_coeffs.csv"),
        ["l", *(f"E_{c}" for c in data.channel_names)],
        [[str(l) for l in range(1, basis.L + 1)], *model.E.T],
    )

    # reconstruction over the training window
    if config.mode == "insample":
        recon_vals = pfit.fitted + spectral.synthesize(basis, model.E)
        recon_times = fit_times
        truth_vals = train.values[q:]
    else:
        init = dc.state_before(train, q + 1, q)
        steps = train.n - (q + 1)
        recon = dc.reconstruct(model, init, steps, (q + 1) * data.dt,
                               clip_factor=clip)
        recon_vals = recon.values
        recon_times = (q + 1 + np.arange(steps)) * data.dt
        truth_vals = train.values[q + 1:]
    write_estimate(tracker.register(outdir / "reconstruction.csv"),
                   data.channel_names, recon_times, "recon", recon_vals,
                   truth_vals)

    # prediction over the held-out window
    if config.predict_end > data.n:
        raise DataError(
            f"predict window end {config.predict_end} exceeds series "
            f"length {data.n}"
        )
    ps, pe = config.predict_start, config.predict_end
    init = dc.state_before(data, ps, q)
    pred = dc.reconstruct(model, init, pe - ps, ps * data.dt,
                          clip_factor=clip)
    truth = series.window(data, ps, pe)
    pred_times = (ps + np.arange(pe - ps)) * data.dt
    write_estimate(tracker.register(outdir / "prediction.csv"),
                   data.channel_names, pred_times, "pred", pred.values,
                   truth.values)
    err_names, err_cols = error_columns(truth, pred, config.ma_windows)
    _write_table(
        tracker.register(outdir / "errors.csv"),
        ["time_s", *err_names],
        [pred_times, *err_cols],
    )

    # model file
    dc.save_model(model, tracker.register(outdir / "model.npz"))

    write_diagnostics(outdir / "diagnostics", result, tracker.register)

    # manifest last: every parameter plus content hashes
    manifest = tracker.register(outdir / "manifest.txt")
    lines = config_lines(config)
    lines[0] = f"input = {Path(config.input).resolve()}"
    lines.append(f"input_sha256 = {_sha256(config.input)}")
    lines.append(f"train_data_sha256 = {dc.training_data_hash(train)}")
    for p in sorted(tracker.paths):
        if p == manifest or not p.is_file():
            continue
        rel = p.relative_to(outdir)
        lines.append(f"artifact_sha256 {rel} = {_sha256(p)}")
    lines.append(f"created_utc = {datetime.now(timezone.utc).isoformat()}")
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return outdir
