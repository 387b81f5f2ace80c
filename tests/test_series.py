from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from qpdecomp import DataError, TimeSeries, delay_embed, load_csv, resample, window
from qpdecomp.series import write_csv


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCsv:
    def test_three_row_csv(self, tmp_path):
        p = tmp_path / "a.csv"
        write_lines(p, ["time,q1", "0,1.5", "120,2.5", "240,3.5"])
        s = load_csv(p)
        assert s.n == 3 and s.k == 1
        assert s.dt == 120.0
        np.testing.assert_array_equal(s.values[:, 0], [1.5, 2.5, 3.5])

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "a.csv"
        write_lines(p, ["time,q1,q2", "0,1,2", "60,oops,3", "120,4,5"])
        with pytest.raises(DataError, match=r"line 3.*'q1'.*oops"):
            load_csv(p)

    @pytest.mark.parametrize("dt", [0.0, 120.0])
    def test_nan_cell_rejected(self, tmp_path, dt):
        # hold resampling at 120 s would step over the NaN sample; the error
        # names the file, the line past a blank one, and the column
        p = tmp_path / "a.csv"
        for cell in ("nan", "inf", "-inf", "1e400"):
            write_lines(p, ["time,q1,q2", "0,1,2", "", f"60,3,{cell}",
                            "120,4,5", "180,6,7"])
            with pytest.raises(DataError,
                               match=r"a\.csv: line 4: column 'q2' value .* "
                                     r"is NaN or infinite$"):
                load_csv(p, dt=dt)

    # an infinite last timestamp makes an infinite step, which passes the
    # increasing check, and an infinite gap allowance bridges it
    @pytest.mark.parametrize("cell", ["inf", "nan", "-inf", "1e400"])
    @pytest.mark.parametrize("dt,max_gap", [(0.0, None), (60.0, np.inf)])
    def test_non_finite_timestamp_names_file_and_line(self, tmp_path, dt,
                                                      max_gap, cell):
        p = tmp_path / "a.csv"
        write_lines(p, ["time,q1", "0,1", "", "60,2", f"{cell},3"])
        with pytest.raises(DataError,
                           match=r"a\.csv: line 5: timestamp .* is NaN "
                                 r"or infinite$"):
            load_csv(p, dt=dt, max_gap=max_gap)

    def test_non_monotonic_timestamps(self, tmp_path):
        p = tmp_path / "a.csv"
        write_lines(p, ["time,q1", "0,1", "120,2", "60,3"])
        with pytest.raises(DataError, match="strictly increasing"):
            load_csv(p)

    def test_bad_cell_reports_file_line_past_blank_lines(self, tmp_path):
        p = tmp_path / "a.csv"
        write_lines(p, ["time,q1,q2", "0,1,2", "", "60,3,4", "120,oops,5"])
        with pytest.raises(DataError,
                           match=r"malformed rows: line 5: column 'q1' "
                                 r"value 'oops'$"):
            load_csv(p)

    def test_non_increasing_timestamp_reports_file_line_past_blank_lines(
            self, tmp_path):
        p = tmp_path / "a.csv"
        write_lines(p, ["time,q1", "0,1", "", "120,2", "", "60,3"])
        with pytest.raises(DataError,
                           match=r"strictly increasing at line 6$"):
            load_csv(p)

    def test_empty_selection(self, tmp_path):
        p = tmp_path / "a.csv"
        write_lines(p, ["time", "0", "120"])
        with pytest.raises(DataError, match="empty channel selection"):
            load_csv(p)

    def test_unknown_channel(self, tmp_path):
        p = tmp_path / "a.csv"
        write_lines(p, ["time,q1", "0,1"])
        with pytest.raises(DataError, match="unknown channel"):
            load_csv(p, channels=["nope"])

    def test_missing_timestamp_column(self, tmp_path):
        p = tmp_path / "a.csv"
        write_lines(p, ["when,q1", "0,1"])
        with pytest.raises(DataError, match="timestamp column"):
            load_csv(p)

    def test_nine_channel_corridor_layout(self, tmp_path):
        rng = np.random.default_rng(0)
        names = [f"i{j}" for j in range(9)]
        rows = ["time," + ",".join(names)]
        for n in range(40):
            rows.append(f"{n * 30}," + ",".join(f"{v:.6f}" for v in rng.random(9)))
        p = tmp_path / "corridor.csv"
        write_lines(p, rows)
        s = load_csv(p)
        assert s.k == 9
        assert s.channel_names == tuple(names)
        r = load_csv(p, dt=120.0)
        assert r.dt == 120.0 and r.k == 9 and r.channel_names == s.channel_names
        np.testing.assert_array_equal(r.values, s.values[::4])

    def test_iso8601_timestamps(self, tmp_path):
        p = tmp_path / "a.csv"
        write_lines(p, ["time,q1",
                        "2021-03-01T00:00:00,1",
                        "2021-03-01T00:02:00,2",
                        "2021-03-01T00:04:00,3"])
        s = load_csv(p)
        assert s.dt == 120.0

    def test_irregular_rejected_without_dt_resampled_with_it(self, tmp_path):
        times = np.array([0.0, 10, 20, 35, 45])
        values = np.array([[1.0, -1], [2, -4], [3, -9], [4, -16], [5, -25]])
        p = tmp_path / "a.csv"
        write_lines(p, ["time,q1,q2"] + [f"{t:g},{a:g},{b:g}"
                                         for t, (a, b) in zip(times, values)])
        with pytest.raises(DataError, match="irregular"):
            load_csv(p)
        grid = np.arange(0.0, 46.0, 5.0)
        hold = values[np.searchsorted(times, grid, side="right") - 1]
        s = load_csv(p, dt=5.0)
        np.testing.assert_array_equal(s.values, hold)
        assert s.dt == 5.0 and s.t0 == 0.0
        assert s.channel_names == ("q1", "q2")

    def test_even_timestamps_resample_from_their_grid(self, tmp_path):
        # decimal timestamps round off the grid; an evenly spaced file
        # resamples as its grid t0 + k * step, at its median step, would
        values = np.random.default_rng(2).standard_normal((50, 1))
        times = np.array([float(f"{0.1 * k:.1f}") for k in range(50)])
        p = tmp_path / "a.csv"
        write_lines(p, ["time,q1"] + [f"{t:.1f},{v:.17g}"
                                      for t, v in zip(times, values[:, 0])])
        grid = np.arange(50) * float(np.median(np.diff(times)))
        assert not np.array_equal(grid, times)
        np.testing.assert_array_equal(load_csv(p, dt=0.1).values,
                                      resample(grid, values, 0.1))

    @pytest.mark.parametrize("t0, step", [(0.0, 0.1), (7.0, 0.1), (0.0, 0.3)])
    def test_decimal_timestamps_on_their_step_give_the_file_back(
            self, tmp_path, t0, step):
        # "%.1f" timestamps round off the grid by a few ulps either way;
        # resampling onto their own step must neither hold the sample
        # before each one (from 0.0 at 0.1 s) nor drop the last (from 7.0,
        # or at 0.3 s)
        values = np.arange(50.0)[:, None]
        p = tmp_path / "a.csv"
        write_lines(p, ["time,q1"] + [f"{t0 + step * k:.1f},{k}"
                                      for k in range(50)])
        s = load_csv(p, dt=step)
        np.testing.assert_array_equal(s.values, values)
        assert s.dt == step and s.t0 == t0

    def test_utc_designator_z_reads_as_utc(self, tmp_path):
        # `Z` is spelled out as +00:00 before parsing, which fromisoformat
        # needs before Python 3.11; all three stampings give one series
        base = datetime(2024, 3, 1, tzinfo=timezone.utc)
        stamps = [base + timedelta(minutes=2 * k) for k in range(6)]
        series = []
        for name, fmt in (("z", lambda t: t.isoformat()[:-6] + "Z"),
                          ("offset", datetime.isoformat),
                          ("epoch", lambda t: f"{t.timestamp():.0f}")):
            p = tmp_path / f"{name}.csv"
            write_lines(p, ["time,q1,q2"] + [f"{fmt(t)},{k},{2 * k}"
                                             for k, t in enumerate(stamps)])
            series.append(load_csv(p))
        assert p.read_text().splitlines()[1] == "1709251200,0,0"
        assert (tmp_path / "z.csv").read_text().splitlines()[1] == \
            "2024-03-01T00:00:00Z,0,0"
        for s in series:
            assert (s.t0, s.dt, s.channel_names) == (1709251200.0, 120.0,
                                                     ("q1", "q2"))
            np.testing.assert_array_equal(s.values, series[0].values)

    @pytest.mark.parametrize("stamp", ["epoch", "iso"])
    def test_sub_second_timestamps_are_even(self, tmp_path, stamp):
        # adjacent steps of 0.1 s at 1.7e9 s differ by one float spacing
        # (2.4e-7 s); they are still one grid, with or without dt
        if stamp == "epoch":
            times = [f"{1.7e9 + 0.1 * k:.1f}" for k in range(50)]
        else:
            base = datetime(2024, 1, 1, tzinfo=timezone.utc)
            times = [(base + timedelta(milliseconds=100 * (k + 1))).isoformat()
                     for k in range(50)]
        p = tmp_path / "a.csv"
        write_lines(p, ["time,q1"] + [f"{t},{k}" for k, t in enumerate(times)])
        last = (float(times[-1]) if stamp == "epoch"
                else datetime.fromisoformat(times[-1]).timestamp())
        for dt in (0.0, 0.1):
            s = load_csv(p, dt=dt)
            np.testing.assert_array_equal(s.values[:, 0], np.arange(50.0))
            # the grid ends on the last timestamp; 49 steps at 1.7e9 s pin
            # the step to one float spacing over the span, 5e-8 of 0.1 s
            assert abs(s.dt - 0.1) <= 1e-7 * 0.1
            assert abs(s.times()[-1] - last) <= np.spacing(last)
        # one step 1% off is still uneven
        times[20] = (f"{1.7e9 + 0.1 * 20 + 0.001:.3f}" if stamp == "epoch"
                     else (base + timedelta(milliseconds=2101)).isoformat())
        write_lines(p, ["time,q1"] + [f"{t},{k}" for k, t in enumerate(times)])
        with pytest.raises(DataError, match="irregular"):
            load_csv(p)

    @pytest.mark.parametrize("stamp", ["epoch", "iso"])
    def test_sub_second_gaps_hold_the_sample_before(self, tmp_path, stamp):
        # resampled onto 0.1 s, a grid time on a sample takes that sample,
        # though the grid and the timestamps round apart at 1.7e9 s
        kept = [k for k in range(50) if k % 7 != 6]
        if stamp == "epoch":
            times = [f"{1.7e9 + 0.1 * k:.1f}" for k in kept]
        else:
            base = datetime(2024, 1, 1, tzinfo=timezone.utc)
            times = [(base + timedelta(milliseconds=100 * (k + 1))).isoformat()
                     for k in kept]
        p = tmp_path / "a.csv"
        write_lines(p, ["time,q1"] + [f"{t},{k}" for k, t in zip(kept, times)])
        s = load_csv(p, dt=0.1)
        held = [max(k for k in kept if k <= j) for j in range(50)]
        np.testing.assert_array_equal(s.values[:, 0], held)

    @pytest.mark.parametrize("stamp", ["%d", "%.1f"])
    def test_small_timestamps_keep_their_step(self, tmp_path, stamp):
        # integer seconds and "%.1f" tenths from zero keep their step
        # exactly: the span over the number of steps (the median of the
        # parsed "%.1f" steps is 0.10000000000000009)
        step = 1 if stamp == "%d" else 0.1
        times = [stamp % (step * k) for k in range(50)]
        p = tmp_path / "a.csv"
        write_lines(p, ["time,q1"] + [f"{t},{k}" for k, t in enumerate(times)])
        s = load_csv(p)
        assert s.dt == step and s.t0 == 0.0
        np.testing.assert_array_equal(s.values[:, 0], np.arange(50.0))

    def test_byte_order_mark(self, tmp_path):
        # spreadsheet exports start the header with a UTF-8 byte-order mark
        text = "time,q1,q2\n0,1.5,2\n60,2.5,3\n120,3.5,4\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        a, b = load_csv(marked), load_csv(plain)
        np.testing.assert_array_equal(a.values, b.values)
        assert (a.dt, a.t0, a.channel_names) == (b.dt, b.t0, b.channel_names)

    def test_write_read_round_trip(self, tmp_path):
        s = TimeSeries(np.random.default_rng(1).standard_normal((17, 3)), dt=2.5,
                       t0=100.0, channel_names=("a", "b", "c"))
        p = tmp_path / "rt.csv"
        write_csv(s, p)
        back = load_csv(p)
        np.testing.assert_array_equal(back.values, s.values)
        assert back.channel_names == s.channel_names
        assert back.dt == s.dt and back.t0 == s.t0


class TestTimeSeriesInvariants:
    def test_rejects_nan(self):
        vals = np.ones((4, 2))
        vals[2, 1] = np.nan
        with pytest.raises(DataError, match="NaN"):
            TimeSeries(vals, dt=1.0)

    def test_rejects_bad_dt(self):
        for dt in (0.0, np.inf, np.nan):
            with pytest.raises(DataError, match="dt must be finite and positive"):
                TimeSeries(np.ones((3, 1)), dt=dt)

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            TimeSeries(np.ones((0, 1)), dt=1.0)


class TestResample:
    def test_identity_on_regular_grid(self, tmp_path):
        s = TimeSeries(np.random.default_rng(0).standard_normal((50, 2)), dt=3.0,
                       t0=7.0)
        p = tmp_path / "a.csv"
        write_csv(s, p)
        r = resample(s.times(), s.values, 3.0)
        np.testing.assert_array_equal(r, s.values)
        r = load_csv(p, dt=3.0)
        np.testing.assert_array_equal(r.values, s.values)
        assert r.dt == s.dt and r.t0 == s.t0

    def test_hold_semantics(self):
        r = resample([0.0, 100.0, 200.0], [[1.0], [2.0], [3.0]], 50.0)
        np.testing.assert_array_equal(r[:, 0], [1, 1, 2, 2, 3])

    def test_dt_beyond_span(self):
        with pytest.raises(DataError, match="span"):
            resample([0.0, 10.0, 20.0], np.ones((3, 1)), 100.0)

    def test_irregular_input_uses_timestamps(self):
        r = resample([0.0, 10.0, 30.0], [[0.0], [10.0], [20.0]], 10.0)
        np.testing.assert_array_equal(r[:, 0], [0, 10, 10, 20])

    def test_long_gap_rejected(self):
        with pytest.raises(DataError, match="gap"):
            resample([0.0, 1.0, 100.0], [[0.0], [1.0], [2.0]], 1.0)

    @pytest.mark.parametrize("max_gap", [0.0, -1.0, np.nan])
    def test_max_gap_must_be_positive(self, max_gap):
        # a NaN max_gap would otherwise bridge every gap: no gap exceeds it
        with pytest.raises(DataError, match="max_gap"):
            resample([0.0, 1.0, 100.0], [[0.0], [1.0], [2.0]], 1.0,
                     max_gap=max_gap)


class TestDelayEmbed:
    def test_q_zero_is_values(self):
        s = TimeSeries(np.random.default_rng(0).standard_normal((10, 2)), dt=1.0)
        e = delay_embed(s, 0)
        np.testing.assert_array_equal(e.points, s.values)

    def test_small_explicit_rows(self):
        s = TimeSeries(np.array([[1.0], [2.0], [3.0], [4.0]]), dt=1.0)
        e = delay_embed(s, 1)
        np.testing.assert_array_equal(e.points, [[1, 2], [2, 3], [3, 4]])

    def test_case_study_shape(self):
        # shape oracle: N - q rows by k(q+1) columns, rows concatenating
        # consecutive source rows
        s = TimeSeries(np.random.default_rng(0).standard_normal((20000, 9)),
                       dt=120.0)
        e = delay_embed(s, 20)
        assert e.points.shape == (19980, 189)
        for n in (0, 777, 19979):
            np.testing.assert_array_equal(
                e.points[n], s.values[n:n + 21].ravel()
            )

    def test_projection_recovers_source(self):
        s = TimeSeries(np.random.default_rng(3).standard_normal((40, 3)), dt=1.0)
        e = delay_embed(s, 6)
        np.testing.assert_array_equal(e.points[:, :3], s.values[:34])

    def test_q_too_large(self):
        s = TimeSeries(np.ones((5, 1)), dt=1.0)
        with pytest.raises(DataError, match="q"):
            delay_embed(s, 5)


class TestWindow:
    def test_identity(self):
        s = TimeSeries(np.random.default_rng(0).standard_normal((30, 2)), dt=1.0)
        w = window(s, 0, 30)
        np.testing.assert_array_equal(w.values, s.values)
        assert w.t0 == s.t0

    def test_case_study_split(self):
        s = TimeSeries(np.random.default_rng(0).standard_normal((26000, 1)),
                       dt=120.0)
        w = window(s, 20000, 26000)
        assert w.n == 6000
        assert w.t0 == s.t0 + 20000 * 120.0

    def test_rejects_bad_ranges(self):
        s = TimeSeries(np.ones((10, 1)), dt=1.0)
        for start, end in ((3, 3), (5, 2), (-1, 4), (0, 11)):
            with pytest.raises(DataError):
                window(s, start, end)

    def test_composition(self):
        s = TimeSeries(np.random.default_rng(5).standard_normal((60, 2)), dt=2.0,
                       t0=7.0)
        a, b, c, d = 10, 50, 5, 30
        inner = window(window(s, a, b), c, d)
        direct = window(s, a + c, a + d)
        np.testing.assert_array_equal(inner.values, direct.values)
        assert inner.t0 == direct.t0

