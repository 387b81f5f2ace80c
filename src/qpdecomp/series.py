"""Multivariate time-series data model: ingestion, resampling, windowing,
and delay-coordinate embedding.

A :class:`TimeSeries` stores an (N, k) value matrix on a regular grid with
step ``dt`` seconds.  :func:`load_csv` puts uneven timestamps on a grid as it
reads them (through :func:`resample`) or rejects them, so every series is on
its grid.  A :class:`DelayEmbedding` is delay vectors alone, with no
series or q behind them, so the union of several series' delay vectors is
one too.  All values are immutable after construction; no operation
mutates shared state.
"""

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import DataError, check_memory, reading, writing

# Relative tolerance used to decide whether raw timestamps form a regular grid.
_GRID_RTOL = 1e-9
# Float spacings of the largest timestamp allowed on top of that: each parsed
# timestamp is off by up to half a spacing (1.2e-7 s for seconds since the
# epoch), so a step is off by up to one, and its distance to the mean step
# by up to two.
_GRID_ULPS = 4


def _time_tol(times, step):
    """How far apart two timestamps near ``times`` may be and still count as
    one grid time: ``_GRID_RTOL`` of ``step`` plus the rounding of the
    timestamps themselves."""
    spacing = float(np.spacing(np.abs(times).max()))
    return _GRID_RTOL * step + _GRID_ULPS * spacing


def same_step(a: "TimeSeries", b: "TimeSeries") -> bool:
    """Whether series a and b are sampled on one step.

    A step read from timestamps is their span over the step count, and each
    timestamp is off by up to half a float spacing, so the step of n samples
    is off by up to one spacing of its largest time over n - 1 (at 1.7e9 s,
    2.4e-7 s over n - 1).  The rule allows ``_GRID_RTOL`` of the step plus
    that rounding of both steps.
    """
    def rounding(s):
        end = max(abs(s.t0), abs(s.t0 + (s.n - 1) * s.dt))
        return float(np.spacing(end)) / max(s.n - 1, 1)

    tol = _GRID_RTOL * max(a.dt, b.dt) + rounding(a) + rounding(b)
    return abs(a.dt - b.dt) <= tol


@dataclass(frozen=True)
class TimeSeries:
    """Regularly sampled k-channel real-valued series.

    Parameters
    ----------
    values : ndarray, shape (N, k)
        One row per sample, one column per channel.  NaNs are rejected.
    dt : float
        Seconds per sample; finite and positive.
    t0 : float
        Epoch offset of the first sample, in seconds.
    channel_names : tuple of str
        One label per channel; generated as ``ch0, ch1, ...`` when omitted.
    """

    values: np.ndarray
    dt: float
    t0: float = 0.0
    channel_names: tuple = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DataError("values must be a non-empty N x k matrix")
        if not np.isfinite(values).all():
            raise DataError("values contain NaN or infinite entries")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise DataError(f"dt must be finite and positive, got {self.dt}")
        if not np.isfinite(self.t0):
            raise DataError(f"t0 must be finite, got {self.t0}")
        object.__setattr__(self, "values", values)
        names = tuple(self.channel_names) or tuple(
            f"ch{i}" for i in range(values.shape[1])
        )
        if len(names) != values.shape[1]:
            raise DataError(
                f"{len(names)} channel names for {values.shape[1]} channels"
            )
        object.__setattr__(self, "channel_names", names)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]

    def times(self) -> np.ndarray:
        """Absolute sample times in seconds."""
        return self.t0 + np.arange(self.n) * self.dt


@dataclass(frozen=True)
class DelayEmbedding:
    """Delay vectors, one per row of ``points`` (N, dim): what the kernel
    and the eigenbasis take.  :func:`delay_embed` makes them from one
    series, and any set of rows of one width is one, such as the union of
    the delay vectors of several series.  ``points`` that are not a
    2-D array with at least one row are a :class:`DataError`.
    """

    points: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2 or len(points) < 1:
            raise DataError(f"embedding points must be a non-empty N x dim "
                            f"matrix, got shape {points.shape}")
        object.__setattr__(self, "points", points)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def _parse_timestamp(text):
    """Seconds from a timestamp cell, or ValueError if it is neither a
    number nor ISO-8601."""
    try:
        return float(text)
    except ValueError:
        pass
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    parsed = datetime.fromisoformat(raw)
    if parsed.tzinfo is None:
        # naive ISO timestamps are taken as UTC; no other timezone arithmetic
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.timestamp()


def load_csv(path, timestamp="time", channels=None, dt=0.0,
             max_gap=None) -> TimeSeries:
    """Read a CSV file with a header row into a :class:`TimeSeries`.

    Parameters
    ----------
    path : str or Path
        CSV file with a header naming every column.
    timestamp : str
        Name of the timestamp column.  Entries may be seconds (integer or
        decimal) or ISO-8601; stored internally as seconds.
    channels : sequence of str, optional
        Value columns to keep, in the given order.  Defaults to every
        non-timestamp column.
    dt : float
        Step of the grid to resample onto, in seconds (see :func:`resample`,
        which ``max_gap`` is passed to).  0 keeps the file's own grid, which
        its timestamps must then form.

    Raises
    ------
    DataError
        Missing columns, empty channel selection, malformed or non-finite
        cells (reported with line numbers), non-increasing timestamps,
        uneven timestamps or a single data row (no step to read) with
        ``dt = 0``, or a failed resampling, a grid too large for the memory
        available among its causes; every message starts with ``path``
        (see :func:`errors.reading`).
    """
    with reading(path):
        # utf-8-sig drops the byte-order mark that spreadsheet exports write
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            # (file line number, text) of the non-blank lines
            lines = [(no, ln.rstrip("\r\n"))
                     for no, ln in enumerate(fh, start=1) if ln.strip()]
        if not lines:
            raise DataError("empty file")
        header = [c.strip() for c in lines[0][1].split(",")]
        if timestamp not in header:
            raise DataError(f"no timestamp column named {timestamp!r}")
        if channels is None:
            channels = [c for c in header if c != timestamp]
        else:
            channels = list(channels)
            missing = [c for c in channels if c not in header]
            if missing:
                raise DataError(f"unknown channel columns {missing}")
        if not channels:
            raise DataError("empty channel selection")
        for name in (timestamp, *channels):
            if header.count(name) > 1:
                raise DataError(f"the header names column {name!r} "
                                f"{header.count(name)} times")

        t_idx = header.index(timestamp)
        c_idx = [header.index(c) for c in channels]
        times, rows, row_lines, bad = [], [], [], []
        for line_no, line in lines[1:]:
            cells = line.split(",")
            if len(cells) != len(header):
                bad.append(f"line {line_no}: expected {len(header)} cells, "
                           f"got {len(cells)}")
                continue
            try:
                times.append(_parse_timestamp(cells[t_idx]))
            except ValueError:
                bad.append(f"line {line_no}: timestamp {cells[t_idx]!r} is "
                           f"neither seconds nor ISO-8601")
            row_lines.append(line_no)
            row = []
            for col, name in zip(c_idx, channels):
                try:
                    row.append(float(cells[col]))
                except ValueError:
                    bad.append(f"line {line_no}: column {name!r} value "
                               f"{cells[col]!r}")
            rows.append(row)
        if bad:
            shown = "; ".join(bad[:10])
            more = f" (+{len(bad) - 10} more)" if len(bad) > 10 else ""
            raise DataError(f"malformed rows: {shown}{more}")
        if not rows:
            raise DataError("no data rows")

        times = np.asarray(times)
        values = np.asarray(rows)
        # a cell such as nan, inf or 1e400 parses as a float
        cells = np.column_stack([times, values])
        if not np.isfinite(cells).all():
            row, col = np.argwhere(~np.isfinite(cells))[0]
            what = ("timestamp" if col == 0
                    else f"column {channels[col - 1]!r} value")
            raise DataError(f"line {row_lines[row]}: {what} "
                            f"{cells[row, col]} is NaN or infinite")
        steps = np.diff(times)
        if len(steps) and not (steps > 0).all():
            first = int(np.argmin(steps > 0))
            raise DataError(f"timestamps not strictly increasing at "
                            f"line {row_lines[first + 1]}")
        if dt:
            values = resample(times, values, dt, max_gap)
            step = float(dt)
        elif not len(steps):
            raise DataError("one data row has no step to read; set "
                            "dt_seconds to the step")
        else:
            # the span, so that the timestamps' float rounding does not add up
            step = float((times[-1] - times[0]) / len(steps))
            if np.abs(steps - step).max() > _time_tol(times, step):
                raise DataError("input sampling is irregular; set dt_seconds "
                                "to resample it")
        return TimeSeries(values, dt=step, t0=float(times[0]),
                          channel_names=tuple(channels))


def write_table(path, header, columns):
    """Write equal-length columns as CSV under ``header``: a string column's
    cells as they are, a number with 17 significant digits, so it reads back
    exactly.  The file is written whole or not at all
    (:func:`errors.writing`)."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("{}" if c.dtype.kind == "U" else "{:.17g}"
                   for c in columns) + "\n"
    with writing(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(row.format, *(c.tolist() for c in columns)))


def write_csv(series: TimeSeries, path, timestamp="time"):
    """Write a series as CSV mirroring the ingestion layout (17 significant digits)."""
    write_table(path, [timestamp, *series.channel_names],
                [series.times(), *series.values.T])


def resample(times, values, dt, max_gap=None) -> np.ndarray:
    """Values on the grid times[0], times[0]+dt, ... covering the input span,
    each the last input sample at or before its grid time (a hold).

    Parameters
    ----------
    times : ndarray, shape (N,)
        Strictly increasing sample times in seconds; the spacing may vary.
    values : ndarray, shape (N, k)
        One row per sample.
    dt : float
        Target step in seconds.
    max_gap : float, optional
        Largest tolerated spacing between consecutive input samples before
        holding a sample across it is considered unsafe.  Defaults to
        ``10 * dt``; a wider gap raises :class:`DataError` rather than
        silently bridging an outage, as does a grid that needs more memory
        than is available (checked before it is allocated).

    Returns
    -------
    ndarray, shape (M, k)
        One row per grid time.
    """
    if not dt > 0:
        raise DataError(f"dt must be positive, got {dt}")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise DataError("values contain NaN or infinite entries")
    span = times[-1] - times[0]
    if len(times) > 1 and dt > span:
        raise DataError(f"dt={dt} exceeds total span {span}")
    if max_gap is None:
        max_gap = 10.0 * dt
    elif not max_gap > 0:   # NaN too
        raise DataError(f"max_gap must be positive, got {max_gap}")
    gaps = np.diff(times)
    if len(gaps) and gaps.max() > max_gap:
        at = int(np.argmax(gaps))
        raise DataError(
            f"gap of {gaps[at]:g} s after sample {at} exceeds max gap {max_gap:g} s"
        )
    # a sample within _time_tol of a grid time is taken to be on it, so that
    # decimal timestamps that round off the grid keep their samples
    tol = _time_tol(times, dt)
    n_out = np.floor((span + tol) / dt) + 1 if len(times) > 1 else 1
    # the grid, its indices and a copy of each, then the values on it
    check_memory(n_out * (values.shape[1] + 4) * 8,
                 f"{n_out:.0f} rows on the {dt:g} s grid")
    grid = times[0] + np.arange(int(n_out)) * dt
    idx = np.maximum(np.searchsorted(times, grid + tol, side="right") - 1, 0)
    return values[idx]


def window(series: TimeSeries, start: int, end: int) -> TimeSeries:
    """Contiguous sub-series over sample indices [start, end)."""
    if not (isinstance(start, (int, np.integer)) and isinstance(end, (int, np.integer))):
        raise DataError("window indices must be integers")
    if not (0 <= start < end <= series.n):
        raise DataError(
            f"window [{start}, {end}) out of range for {series.n} samples"
        )
    return TimeSeries(series.values[start:end], dt=series.dt,
                      t0=series.t0 + start * series.dt,
                      channel_names=series.channel_names)


def delay_embed(series: TimeSeries, q: int) -> DelayEmbedding:
    """Embed with q delays: row n of the result is (y_n, y_{n+1}, ..., y_{n+q}).

    Requires q < N, and the memory of the output, which has N - q rows in
    k(q+1) dimensions: :class:`DataError` otherwise, before anything is
    allocated.  Each row concatenates source rows bit-exactly.
    """
    if not (isinstance(q, (int, np.integer)) and q >= 0):
        raise DataError(f"q must be a non-negative integer, got {q}")
    if q >= series.n:
        raise DataError(f"q={q} must be smaller than N={series.n}")
    n_rows = series.n - q
    check_memory(n_rows * series.k * (q + 1) * 8,
                 f"{n_rows} delay vectors of {series.k * (q + 1)} values")
    points = np.hstack([series.values[i:n_rows + i] for i in range(q + 1)])
    return DelayEmbedding(points)
