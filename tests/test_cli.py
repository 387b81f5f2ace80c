import io
import json
import os
import re
import resource
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qpdecomp
from qpdecomp.cli import main
from qpdecomp.decompose import load_model
from qpdecomp.series import load_csv

SRC = str(Path(qpdecomp.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = root / "torus.csv"
    latent = root / "torus_latent.csv"
    code = main(["synth", "--testbed", "pure_torus_2", "--steps", "700",
                 "--dt", "1.0", "--seed", "3", "--out", str(out),
                 "--latent-out", str(latent)])
    assert code == 0
    return out, latent


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture
def forbid(monkeypatch):
    """``forbid("series.load_csv", ...)`` fails the test if one of these
    functions of the package is called."""
    def forbid(*names):
        for name in names:
            monkeypatch.setattr(f"qpdecomp.{name}", lambda *args, _name=name,
                                **kwargs: pytest.fail(f"{_name} was called"))
    return forbid


# the fit flags of the tests below that leave epsilon to its default
FIT_FLAGS = ["--delays", "6", "--num-eigen", "40", "--L0", "8",
             "--train-end", "600"]
PREDICT_WINDOW = ["--predict-start", "620", "--predict-end", "680"]


def command_args(command, src, model, out):
    """The arguments of a ``command`` that exits 0 on the series ``src`` or
    the model ``model`` and writes ``out``."""
    fit = ["--input", src, *FIT_FLAGS, "--epsilon", "2.0"]
    return {"run": ["run", *fit, "--outdir", out, *PREDICT_WINDOW],
            "decompose": ["decompose", *fit, "--model-out", out],
            "predict": ["predict", "--model", model, "--input", src,
                        "--init-at", "620", "--steps", "20",
                        "--out", out]}[command]


def thinned(src, dest, keep):
    """Writes the header and the data rows ``i`` of ``src`` with ``keep(i)``
    to ``dest``."""
    header, *rows = src.read_text().splitlines()
    dest.write_text("\n".join([header] + [r for i, r in enumerate(rows)
                                          if keep(i)]) + "\n")
    return dest


def gapped(i):
    """A 16 s gap after sample 300."""
    return not 301 <= i < 316


def uneven(i):
    """Every 7th sample dropped, and six in a row after sample 299."""
    return i % 7 != 6 and not 300 <= i < 306


def assert_same_artifacts(ref, other, count=8):
    """Every artifact of the run in ``ref`` but its manifest, ``count`` of
    them, has the same bytes in ``other``."""
    names = sorted(p.relative_to(ref) for p in ref.rglob("*")
                   if p.suffix in (".csv", ".npz"))
    assert len(names) == count
    for name in names:
        assert (other / name).read_bytes() == (ref / name).read_bytes(), name


# The reader contract: a bad input, model or config file is one stderr line
# `qpdecomp: <Class>: <path>: <what>`, exit 3 (2 for a config file or a
# manifest), nothing on stdout and nothing written.  The tables below list
# the bad files; each is run through every command that reads its kind.

def assert_fails(args, root, capsys, code, line):
    """``args`` exits ``code`` with one stderr line that ``line``, a regular
    expression, matches, prints nothing on stdout, and leaves the files
    under ``root`` as they were."""
    before = sorted(root.rglob("*"))
    assert run_cli(args) == code
    out, err = capsys.readouterr()
    assert re.fullmatch(f"{line}\n", err) and not out, err
    assert sorted(root.rglob("*")) == before


def file_error(cls, path, what):
    """The stderr line of an error in the file ``path``, a regular
    expression; ``what`` is one too."""
    return f"qpdecomp: {cls}: {re.escape(str(path))}: {what}"


def edited_csv(edits):
    """Six samples 1 s apart below the header, with file line n replaced by
    ``edits[n]``, or removed when that is None."""
    lines = ["time,ch0,ch1,ch2", *(f"{t},{t},{t + 1},{t + 2}"
                                   for t in range(6))]
    kept = (edits.get(n, line) for n, line in enumerate(lines, start=1))
    return "".join(f"{line}\n" for line in kept if line is not None)


CANNOT_OPEN = "cannot read: No such file or directory"
NOT_UTF8 = ("cannot read: 'utf-8' codec can't decode byte 0xff in position "
            "11: invalid start byte")
MALFORMED = "malformed rows: line 4: "
# name: (file line edits, the file's bytes, or None for no file; extra
# flags; the message after the path)
BAD_CSV = {
    "no_file": (None, [], CANNOT_OPEN),
    "empty_file": (b"", [], "empty file"),
    "not_utf8": (b"time,ch0\n0,\xff\n", [], NOT_UTF8),
    "header_only": ({n: None for n in range(2, 8)}, [], "no data rows"),
    "truncated_row": ({4: "2,2"}, [], MALFORMED + "expected 4 cells, got 2"),
    "bad_time": ({4: "abc,2,3,4"}, [], MALFORMED + "timestamp 'abc' is "
                 "neither seconds nor ISO-8601"),
    "bad_time_and_cell": ({4: "abc,2,3,4", 5: "3,3,x,5"}, [], MALFORMED +
                          "timestamp 'abc' is neither seconds nor ISO-8601; "
                          "line 5: column 'ch1' value 'x'"),
    # a blank line counts
    "bad_cell": ({2: "\n0,0,1,2", 4: "2,2,x,4"}, [],
                 "malformed rows: line 5: column 'ch1' value 'x'"),
    "nan_cell": ({4: "2,2,nan,4"}, [],
                 "line 4: column 'ch1' value nan is NaN or infinite"),
    "nan_column": ({n: f"{n - 2},{n - 2},nan,{n}" for n in range(2, 8)}, [],
                   "line 2: column 'ch1' value nan is NaN or infinite"),
    # an infinite last timestamp makes an infinite step, which passes the
    # increasing check, and an infinite gap allowance bridges it
    "inf_time": ({7: "inf,5,6,7"}, [],
                 "line 7: timestamp inf is NaN or infinite"),
    "inf_time_resampled": ({7: "inf,5,6,7"},
                           ["--dt-seconds", "1", "--max-gap-factor", "inf"],
                           "line 7: timestamp inf is NaN or infinite"),
    "repeated_time": ({5: "2,3,4,5"}, [],
                      "timestamps not strictly increasing at line 5"),
    "decreasing_time": ({5: "1,3,4,5"}, [],
                        "timestamps not strictly increasing at line 5"),
    "uneven": ({4: "2.5,2,3,4"}, [],
               "input sampling is irregular; set dt_seconds to resample it"),
    "gap": ({5: "18,3,4,5", 6: "19,4,5,6", 7: "20,5,6,7"},
            ["--dt-seconds", "1"],
            "gap of 16 s after sample 2 exceeds max gap 10 s"),
    "dt_over_span": ({}, ["--dt-seconds", "5000"],
                     "dt=5000.0 exceeds total span 5.0"),
    "repeated_column": ({1: "time,ch0,ch1,ch1"}, [],
                        "the header names column 'ch1' 2 times"),
}
# (flag, name, the file's text or bytes, or None for no file, the message
# after the path).  A manifest skips unknown keys, which earlier versions
# wrote, so its bad key is a removed one away from its old default
BAD_CONFIGS = [(flag, *row) for flag in ("--config", "--manifest") for row in [
    ("missing", None, CANNOT_OPEN),
    ("not_utf8", b"delays = 6\n\xff\n", NOT_UTF8),
    ("no_equals", "delays = 6\nL0 8\n", "line 2: expected 'key = value'"),
    ("unknown_key", "delays = 6\nsolver = dense\n",
     "line 2: unknown key 'solver'") if flag == "--config" else
    ("retired_key", "delays = 6\nmerge_adjacent = true\n", "line 2: "
     "merge_adjacent = true was removed; only its old default re-runs")]]

# every array that save_model writes: its dtype kind and rank
MODEL_ARRAYS = {"format": ("str", 1), "train_values": ("float", 2),
                "train_dt": ("float", 0), "train_t0": ("float", 0),
                "channel_names": ("str", 1), "train_hash": ("str", 1),
                "epsilon": ("float", 0), "stride": ("int", 0),
                "omegas": ("float", 1), "A": ("complex", 2)}
# the arrays whose shape save_model fixes: load_model rejects any other shape
# of them itself, naming the array
FIXED_SHAPE = {"format", "train_hash", "train_dt", "train_t0", "epsilon",
               "stride"}


def with_array(name, change=None):
    """An edit of the saved arrays that replaces array ``name`` by
    ``change`` of it, or drops it."""
    def edit(arrays):
        value = arrays.pop(name)
        if change is not None:
            arrays[name] = change(value)
        return arrays
    return edit


def npz_bytes(arrays):
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def bad_models():
    """name: (edit of the saved arrays, or None for no file; the message
    after the path, a regular expression).  Each array is missing, of each
    other dtype kind, of another rank (one axis fewer, or two entries for a
    scalar), empty and, if it holds floats, NaN or infinite."""
    not_npz = re.escape("not a readable npz archive (truncated, or another "
                        "format)")
    rows = {
        "missing": (None, CANNOT_OPEN),
        "not_npz": (lambda arrays: b"not a model\n" * 100, not_npz),
        "truncated": (lambda arrays: npz_bytes(arrays)[:1000], not_npz),
        "format_only": (lambda arrays: {"format": arrays["format"]},
                        "model array 'channel_names' is missing"),
        "A_row_short": (with_array("A", lambda a: a[:-1]),
                        r"model A \(\d+, 3\) does not match \d+ "
                        r"frequencies and 3 channels"),
        "A0_imag": (with_array("A", lambda a: a + 1j),
                    "model zero-frequency coefficient is not real"),
        "epsilon_zero": (with_array("epsilon", lambda a: 0.0 * a),
                         "model epsilon 0.0 is not positive and finite"),
        "stride_zero": (with_array("stride", lambda a: 0 * a),
                        "model stride 0 is not a positive integer"),
        "train_values_edited": (with_array("train_values", lambda a: a + 1),
                                "training data does not match its stored "
                                "hash"),
    }
    # a qpdecomp-model-5 file holds the arrays of format 6, with A's phase
    # referred to the input's first row: read as format 6 it would be off
    # by q*dt without an error
    for fmt in ("qpdecomp-model-1", "qpdecomp-model-2", "qpdecomp-model-3",
                "qpdecomp-model-5"):
        rows[f"format_{fmt[-1]}"] = (
            with_array("format", lambda a, fmt=fmt: np.array([fmt])),
            re.escape(f"model format '{fmt}' is not readable; re-run "
                      f"`qpdecomp run`, whose model.npz is a "
                      f"'qpdecomp-model-6' file"))
    # the 12 arrays of a qpdecomp-model-4 file: the raw training window, q,
    # and the chaos matrix M with one row per reference point
    rows["format_4"] = (lambda arrays: {
        **arrays, "format": np.array(["qpdecomp-model-4"]),
        "train_values": np.zeros((600, 3)), "q": np.int64(6),
        "M": np.zeros((594, 3))}, re.escape(
            "model format 'qpdecomp-model-4' is not readable; re-run "
            "`qpdecomp run`, whose model.npz is a 'qpdecomp-model-6' file"))
    for name, (kind, ndim) in MODEL_ARRAYS.items():
        rows[f"{name}_missing"] = (with_array(name),
                                   f"model array '{name}' is missing")
        for other in ("str", "float", "complex"):
            rows[f"{name}_{other}"] = (
                with_array(name, lambda a, o=other: np.zeros(a.shape, o)),
                f"model array '{name}' is .+")
        rows.pop(f"{name}_{kind}", None)
        # a fixed shape is checked by load_model; any other by TimeSeries
        # or QPModel, in their own words
        reshaped = (f"model array '{name}' is .+" if name in FIXED_SHAPE
                    else ".+")
        rows[f"{name}_{['2', '0d', '1d'][ndim]}"] = (with_array(
            name, lambda a: np.repeat(a, 2) if a.ndim == 0 else a[..., 0]),
            reshaped)
        rows[f"{name}_empty"] = (with_array(
            name, lambda a: np.empty((0, *a.shape[1:]), a.dtype)), reshaped)
        if kind in ("float", "complex"):
            for value in (np.nan, np.inf):
                rows[f"{name}_{value}"] = (with_array(
                    name, lambda a, v=value: np.full_like(a, v)), ".+")
    return rows


BAD_MODELS = bad_models()


def swapped(lines):
    """Columns ch0 and ch1 swapped, header and all."""
    return [",".join([t, b, a, c]) for t, a, b, c in
            (line.split(",") for line in lines)]


def renamed(lines):
    return ["time,z0,z1,z2", *lines[1:]]


def stamped_2_s_apart(lines):
    return [lines[0], *(f"{2 * int(float(t))},{rest}" for t, rest in
                        (line.split(",", 1) for line in lines[1:]))]


def zeroed(lines):
    """Channel ch2, the last column, all 0."""
    return [lines[0], *(line.rsplit(",", 1)[0] + ",0" for line in lines[1:])]


FIT_COMMANDS = ["decompose", "run"]
FREE_RUN = "decompose.reconstruct"
# An input that fails against the model or a parameter.  name: (edit of the
# lines of the 700-sample series, or None; the commands that meet it; extra
# flags; the message after the input's path, where {model} stands for the
# model's path; the function that the commands stop before)
BAD_PAIRS = {
    "swapped_channels": (swapped, ["predict"], [], "{model}: input channels "
                         "['ch1', 'ch0', 'ch2'] differ from the model's "
                         "['ch0', 'ch1', 'ch2']", FREE_RUN),
    "renamed_channels": (renamed, ["predict"], [], "{model}: input channels "
                         "['z0', 'z1', 'z2'] differ from the model's ['ch0', "
                         "'ch1', 'ch2']", FREE_RUN),
    "other_step": (stamped_2_s_apart, ["predict"], [], "{model}: input step "
                   "2 s differs from the model's dt 1 s", FREE_RUN),
    "start_before_window": (None, ["predict"], ["--init-at", "2"],
                            "{model}: prediction start 2 must be >= 3 so a "
                            "residual window exists", FREE_RUN),
    "start_past_input": (None, ["predict"], ["--init-at", "701"],
                         "{model}: prediction start 701 is beyond series "
                         "length 700", FREE_RUN),
    "train_end_past_input": (None, FIT_COMMANDS, ["--train-end", "701"],
                             "train_end=701 exceeds series length 700",
                             "spectral.decompose"),
    "predict_end_past_input": (None, ["run"], ["--predict-end", "701"],
                               "predict window end 701 exceeds series "
                               "length 700", "spectral.decompose"),
    "num_eigen_over_points": (None, FIT_COMMANDS, ["--num-eigen", "595"],
                              "L=595 out of range 1..594",
                              "kernel.gaussian_kernel"),
    "delays_over_train_end": (None, FIT_COMMANDS, ["--delays", "600"],
                              "q=600 must be smaller than N=600",
                              "spectral.decompose"),
    # 4 fit rows: too few for the map of the residual to hold out a row
    # (eps1 0.5 keeps one of the two nonzero bins, so no warning is printed)
    "train_end_too_short_for_the_map": (
        None, FIT_COMMANDS, ["--train-end", "24", "--delays", "20",
                             "--num-eigen", "3", "--L0", "2", "--eps1", "0.5"],
        "a residual of 4 rows holds out its last 1 and leaves no window of "
        "3 samples with a successor before them", "decompose.save_model"),
    # the error columns divide by each channel's peak over the observed
    # window; the model takes no part
    "zero_truth_run": (zeroed, ["run"], ["--ma-windows", "3"],
                       "all-zero truth channels ['ch2'] in samples 620..679: "
                       "error is undefined", "spectral.decompose"),
    "zero_truth_predict": (zeroed, ["predict"], ["--ma-windows", "3"],
                           "all-zero truth channels ['ch2'] in samples "
                           "620..639: error is undefined", FREE_RUN),
}


@pytest.fixture(scope="module")
def fitted_run(synth_csv, tmp_path_factory):
    """A `run` at --epsilon 2.0."""
    outdir = tmp_path_factory.mktemp("fitted") / "run"
    assert run_cli(command_args("run", synth_csv[0], None, outdir)) == 0
    return outdir


@pytest.fixture(scope="module")
def derived_run(synth_csv, tmp_path_factory):
    """A `run` without --epsilon: the kernel derives its bandwidth."""
    outdir = tmp_path_factory.mktemp("derived") / "run"
    assert run_cli(["run", "--input", synth_csv[0], *FIT_FLAGS,
                    "--outdir", outdir, *PREDICT_WINDOW]) == 0
    return outdir


@pytest.fixture(scope="module")
def torus_800(tmp_path_factory):
    """The series of the README's quick start and configs/smoke.conf."""
    out = tmp_path_factory.mktemp("quickstart") / "torus.csv"
    assert run_cli(["synth", "--testbed", "pure_torus_2", "--steps", "800",
                    "--dt", "1", "--seed", "0", "--out", out]) == 0
    return out


class TestSynthCommand:
    def test_writes_series_and_latent(self, synth_csv):
        out, latent = synth_csv
        data = load_csv(out)
        assert data.n == 700 and data.k == 3
        header = latent.read_text().splitlines()[0].split(",")
        assert header == ["time", "theta0", "theta1", "x0"]

    def test_unknown_testbed_exit_code(self, tmp_path, capsys):
        assert_fails(["synth", "--testbed", "nope", "--steps", "10", "--out",
                      tmp_path / "x.csv"], tmp_path, capsys, 2,
                     "qpdecomp: ConfigError: .*pure_torus_2.*")

    @pytest.mark.parametrize("flags", [
        ["--steps", "0"], ["--steps", "-5"], ["--dt", "0"], ["--dt", "-1"],
        ["--dt", "nan"], ["--dt", "inf"], ["--seed", "-1"],
    ], ids=["steps_0", "steps_negative", "dt_0", "dt_negative", "dt_nan",
            "dt_inf", "seed_negative"])
    def test_bad_flags_exit_2_before_simulating(self, tmp_path, forbid,
                                                capsys, flags):
        forbid("synth.simulate")
        args = {"--testbed": "pure_torus_2", "--steps": "10", "--dt": "1",
                "--seed": "0"}
        args[flags[0]] = flags[1]
        assert_fails(["synth", *(a for kv in args.items() for a in kv),
                      "--out", tmp_path / "x.csv"], tmp_path, capsys, 2,
                     "qpdecomp: ConfigError: .+")

    def test_oversized_step_count_exits_3(self, tmp_path, capsys):
        # refused by the memory check before anything is allocated
        assert_fails(["synth", "--testbed", "pure_torus_2", "--steps",
                      10**12, "--out", tmp_path / "x.csv"], tmp_path, capsys,
                     3, r"qpdecomp: DataError: 1000000000000 steps of a "
                        r"2-torus driving 1 states need \d+ MB, but only "
                        r"\d+ MB of memory is available")

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            assert run_cli(["synth", "--testbed", "torus_plus_damped",
                            "--steps", "100", "--seed", "7", "--out", p]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFrequenciesCommand:
    def test_writes_frequency_table(self, synth_csv, tmp_path, capsys):
        # `run` without a predict window took the place of `frequencies`
        assert run_cli(["run", "--input", synth_csv[0], *FIT_FLAGS,
                        "--epsilon", "2.0", "--outdir", tmp_path / "f"]) == 0
        lines = (tmp_path / "f" / "frequencies.csv").read_text().splitlines()
        assert lines[0] == "bin,omega_rad_per_s,period_s,period_human,amplitude,growth"
        assert len(lines) >= 2 and lines[1].split(",")[0] == "0"
        assert re.match("long periods .+short periods ",
                        capsys.readouterr().out, re.S)

    @pytest.mark.parametrize("edits, flags, what", [
        pytest.param(edits, flags, what, id=name)
        for name, (edits, flags, what) in BAD_CSV.items()])
    def test_bad_input_exits_3_naming_the_file(self, model_file, tmp_path,
                                               capsys, edits, flags, what):
        # every command that reads a series: the reader contract
        bad = tmp_path / "bad.csv"
        if edits is not None:
            bad.write_bytes(edits if isinstance(edits, bytes)
                            else edited_csv(edits).encode())
        for command in ("decompose", "run", "predict"):
            args = command_args(command, bad, model_file, tmp_path / "out")
            assert_fails([*args, *flags], tmp_path, capsys, 3,
                         file_error("DataError", bad, re.escape(what)))


@pytest.fixture(scope="module")
def model_file(fitted_run):
    return fitted_run / "model.npz"


class TestDecomposeReconstructPredict:

    def test_off_grid_selection_exit_code(self, synth_csv, tmp_path,
                                          monkeypatch, capsys):
        # a selection whose top bin is nudged off the fit grid is a DataError
        import dataclasses

        from qpdecomp import freqfilter

        select = freqfilter.select

        def nudged(*args, **kwargs):
            sel = select(*args, **kwargs)
            omegas = sel.omegas.copy()
            omegas[-1] *= 1.0 + 1e-6
            return dataclasses.replace(sel, omegas=omegas)

        monkeypatch.setattr(freqfilter, "select", nudged)
        assert run_cli(command_args("decompose", synth_csv[0], None,
                                    tmp_path / "m.npz")) == 3
        assert "not a DFT bin" in capsys.readouterr().err

    def test_reconstruct_modes(self, fitted_run):
        # run writes the in-sample reconstruction that `reconstruct` wrote
        lines = (fitted_run / "reconstruction.csv").read_text().splitlines()
        assert lines[0].startswith("time_s,truth_")
        assert len(lines) > 500

    def test_insample_reconstruction_is_close(self, fitted_run):
        recon = fitted_run / "reconstruction.csv"
        rows = np.loadtxt(recon, delimiter=",", skiprows=1)
        # time_s, then truth, recon and per columns for each channel
        k = (rows.shape[1] - 1) // 3
        truth, est = rows[:, 1:1 + k], rows[:, 1 + k:1 + 2 * k]
        scale = np.abs(truth).max(axis=0)
        assert (np.abs(truth - est).max(axis=0) / scale).max() < 0.1

    def test_insample_reconstruct_matches_pipeline(self, fitted_run,
                                                   synth_csv, tmp_path):
        # run writes the in-sample table from the model and the training
        # window, so the saved model and the input give run's bytes
        from qpdecomp.decompose import load_model
        from qpdecomp.pipeline import write_reconstruction
        from qpdecomp.series import load_csv, window

        recon = tmp_path / "recon.csv"
        train = window(load_csv(synth_csv[0]), 0, 600)
        write_reconstruction(recon, load_model(fitted_run / "model.npz"),
                             train)
        assert recon.read_bytes() == \
            (fitted_run / "reconstruction.csv").read_bytes()

    def test_predict_case_study_protocol(self, model_file, synth_csv, tmp_path):
        out, _ = synth_csv
        pred = tmp_path / "pred.csv"
        code = run_cli(["predict", "--model", model_file, "--input", out,
                        "--init-at", "620", "--steps", "60",
                        "--ma-windows", "10", "--out", pred])
        assert code == 0
        lines = pred.read_text().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 61
        assert float(lines[1].split(",")[0]) == 620.0
        assert any(h.startswith("err_") and h.endswith("_ma10") for h in header)

    def test_error_columns_past_the_input_warn(self, model_file, synth_csv,
                                               tmp_path, capsys):
        # the 700-sample input ends 10 samples into the run: the prediction
        # is written, without error columns, and one warning says why
        pred = tmp_path / "p.csv"
        assert run_cli(["predict", "--model", model_file, "--input",
                        synth_csv[0], "--init-at", "690", "--steps", "20",
                        "--ma-windows", "10", "--out", pred]) == 0
        assert capsys.readouterr().err == (
            "qpdecomp: warning: no error columns: they need the observed "
            "window, and the input ends before the prediction does\n")
        assert pred.read_text().splitlines()[0] == \
            "time_s,pred_ch0,pred_ch1,pred_ch2"

    def test_run_and_predict_write_one_error_layout(self, synth_csv,
                                                    tmp_path):
        # the same windows give the same prediction.csv from either command,
        # and run's manifest re-runs with them
        windows = ["--ma-windows", "1", "10"]
        run = tmp_path / "run"
        assert run_cli([*command_args("run", synth_csv[0], None, run),
                        *windows]) == 0
        pred = tmp_path / "p.csv"
        assert run_cli(["predict", "--model", run / "model.npz", "--input",
                        synth_csv[0], "--init-at", "620", "--steps", "60",
                        *windows, "--out", pred]) == 0
        assert pred.read_bytes() == (run / "prediction.csv").read_bytes()
        assert pred.read_text().splitlines()[0].endswith(
            "err_ch0_ma1,err_ch1_ma1,err_ch2_ma1,"
            "err_ch0_ma10,err_ch1_ma10,err_ch2_ma10")
        assert "ma_windows = 1 10" in \
            (run / "manifest.txt").read_text().splitlines()
        assert run_cli(["run", "--manifest", run / "manifest.txt",
                        "--outdir", tmp_path / "rerun"]) == 0
        assert_same_artifacts(run, tmp_path / "rerun")

    def test_oversized_step_count_exits_3(self, model_file, synth_csv,
                                          tmp_path, capsys):
        # refused by the memory check before the free run allocates
        assert_fails(["predict", "--model", model_file, "--input",
                      synth_csv[0], "--init-at", "620", "--steps", 10**12,
                      "--out", tmp_path / "p.csv"], tmp_path, capsys, 3,
                     r"qpdecomp: DataError: .+: 1000000000000 steps of 3 "
                     r"channels need \d+ MB, but only \d+ MB of memory is "
                     r"available")

    def test_predict_rejects_irregular_input(self, model_file, synth_csv,
                                             tmp_path, capsys):
        # the fitted series with samples dropped: no single dt to predict at
        gappy = thinned(synth_csv[0], tmp_path / "gappy.csv", uneven)
        assert_fails(command_args("predict", gappy, model_file,
                                  tmp_path / "p.csv"), tmp_path, capsys, 3,
                     file_error("DataError", gappy, re.escape(
                         "input sampling is irregular; set dt_seconds to "
                         "resample it")))

    @pytest.mark.parametrize("edit, commands, flags, what, before", [
        pytest.param(*row, id=name) for name, row in BAD_PAIRS.items()])
    def test_pair_names_its_files(self, model_file, synth_csv, tmp_path,
                                  forbid, capsys, edit, commands, flags,
                                  what, before):
        # every command that meets the pair: the reader contract, with the
        # input's path first and then the model's if it takes part, before
        # the eigensolve or the free run that the error would waste
        forbid(before)
        lines = synth_csv[0].read_text().splitlines()
        src = tmp_path / "in.csv"
        src.write_text("\n".join(edit(lines) if edit else lines) + "\n")
        line = file_error("DataError", src,
                          re.escape(what.format(model=model_file)))
        for command in commands:
            args = command_args(command, src, model_file, tmp_path / "out")
            assert_fails([*args, *flags], tmp_path, capsys, 3, line)

    def test_zero_truth_without_windows_runs(self, synth_csv, tmp_path):
        # only the error columns divide by the observed peak: without
        # --ma-windows, run predicts an all-zero channel like any other
        lines = synth_csv[0].read_text().splitlines()
        src = tmp_path / "in.csv"
        src.write_text("\n".join(zeroed(lines)) + "\n")
        out = tmp_path / "out"
        assert run_cli(command_args("run", src, None, out)) == 0
        header = (out / "prediction.csv").read_text().splitlines()[0]
        assert header.split(",") == ["time_s", "truth_ch0", "truth_ch1",
                                     "truth_ch2", "pred_ch0", "pred_ch1",
                                     "pred_ch2"]

    def test_predict_selects_the_model_channels(self, model_file, synth_csv,
                                                tmp_path):
        # the model's channels picked by --channels from a file that holds
        # them in another order give the prediction on the original file
        lines = synth_csv[0].read_text().splitlines()
        moved = tmp_path / "moved.csv"
        moved.write_text("\n".join(",".join([t, c, a, b]) for t, a, b, c in
                                   (line.split(",") for line in lines)) + "\n")
        preds = []
        for src, channels in ((synth_csv[0], []),
                              (moved, ["--channels", "ch0", "ch1", "ch2"])):
            preds.append(tmp_path / f"p{len(preds)}.csv")
            assert run_cli(["predict", "--model", model_file, "--input", src,
                            *channels, "--init-at", "620", "--steps", "20",
                            "--out", preds[-1]]) == 0
        assert preds[0].read_bytes() == preds[1].read_bytes()

    @pytest.mark.parametrize("edit, what", [
        pytest.param(edit, what, id=name)
        for name, (edit, what) in BAD_MODELS.items()])
    def test_predict_unreadable_model_exits_3(self, model_file, synth_csv,
                                              tmp_path, capsys, edit, what):
        # the command that reads a model: the reader contract, before the
        # free run
        model = tmp_path / "m.npz"
        if edit is not None:
            with np.load(model_file) as saved:
                arrays = dict(saved)
            assert set(arrays) == set(MODEL_ARRAYS)
            content = edit(arrays)
            model.write_bytes(content if isinstance(content, bytes)
                              else npz_bytes(content))
        args = command_args("predict", synth_csv[0], model, tmp_path / "o")
        assert_fails(args, tmp_path, capsys, 3,
                     file_error("DataError", model, what))


# a file name over the 255 bytes that a directory entry holds
LONG_NAME = "x" * 300 + ".csv"
# a name that a directory entry holds, but not with the 18 bytes that a
# temporary named after its target would add
LEGAL_LONG_NAME = "y" * 250


@pytest.mark.parametrize("where", ["missing_directory", "directory", "empty",
                                   "fifo", "long_name"])
@pytest.mark.parametrize("command", ["synth", "synth_latent", "decompose",
                                     "predict"])
def test_unwritable_output_exits_2_before_reading(synth_csv, model_file,
                                                  tmp_path, forbid, capsys,
                                                  command, where):
    # every file output is checked before any input is read, simulated or
    # fitted: one ConfigError line naming the path, exit 2, and no file
    forbid("series.load_csv", "decompose.load_model", "spectral.decompose",
           "synth.simulate")
    if where == "directory":
        target = tmp_path / "taken"
        target.mkdir()
    elif where == "empty":
        target = ""
    elif where == "fifo":
        target = tmp_path / "pipe"
        os.mkfifo(target)
    elif where == "long_name":
        target = tmp_path / LONG_NAME
    else:
        target = tmp_path / "absent" / "x.csv"
    synth = ["synth", "--testbed", "pure_torus_2", "--steps", "10"]
    if command == "synth":
        args = [*synth, "--out", target]
    elif command == "synth_latent":
        args = [*synth, "--out", tmp_path / "s.csv", "--latent-out", target]
    else:
        args = command_args(command, synth_csv[0], model_file, target)
    assert_fails(args, tmp_path, capsys, 2,
                 f"qpdecomp: ConfigError: .*{re.escape(str(target))}.*")


# The writer contract: every file goes through errors.writing, so a write
# that fails is one stderr line `qpdecomp: ConfigError: <path>: cannot
# write: <reason>`, exit 2, with nothing on stdout, no temporary left and
# the target as it was.  Each bad target runs through every command that
# writes, in a child process: a file-size limit then binds the child alone,
# and a timeout ends a writer that opens a FIFO and waits for a reader.

WRITERS = ["synth", "synth_latent", "decompose", "predict", "run"]
# name: (the file-size limit in bytes, or None; the reason the line gives)
BAD_TARGETS = {
    "long_name": (None, "File name too long"),
    "fifo": (None, "not a regular file"),
    "file_size_limit": (16, "File too large"),
}


def writer_args(command, synth_csv, model, target, tmp_path):
    """The arguments of a writing ``command`` that exits 0 when ``target``
    is writable."""
    if command.startswith("synth"):
        # torus_plus_logistic's latent rows are longer than its series rows
        latent = (["--out", tmp_path / "s.csv", "--latent-out", target]
                  if command == "synth_latent" else ["--out", target])
        return ["synth", "--testbed", "torus_plus_logistic", "--steps", "50",
                *latent]
    return command_args(command, synth_csv[0], model, target)


def run_child(args, fsize=None, cwd=None):
    """``python -m qpdecomp args`` in a child process, with files limited to
    ``fsize`` bytes if it is set."""
    def limit():
        resource.setrlimit(resource.RLIMIT_FSIZE, (fsize, fsize))

    return subprocess.run(
        [sys.executable, "-m", "qpdecomp", *map(str, args)], cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=30,
        preexec_fn=None if fsize is None else limit)


@pytest.mark.parametrize("command", WRITERS)
@pytest.mark.parametrize("bad", BAD_TARGETS)
def test_unwritable_target_exits_2(synth_csv, model_file, tmp_path, command,
                                   bad):
    # long_name is absent, fifo a FIFO, and file_size_limit an existing
    # file, or an --outdir that is empty, one that is absent and one whose
    # parents are absent too; each is left as it was, with no temporary
    # beside it and no parent that the run made
    fsize, reason = BAD_TARGETS[bad]
    outdir = command == "run"
    target = named = tmp_path / (LONG_NAME if bad == "long_name" else "out")
    if bad == "fifo":
        os.mkfifo(target)
        if outdir:
            reason = f"{target} is not a directory"
    elif bad == "file_size_limit":
        if outdir:
            target.mkdir()
            named = target / "frequencies.csv"  # run's first file
        else:
            target.write_bytes(b"old\n")
    args = writer_args(command, synth_csv, model_file, target, tmp_path)
    if command == "synth_latent" and fsize is not None:
        # a limit that the series file just meets and the latent one passes
        assert run_child(args[:-2]).returncode == 0
        fsize = (tmp_path / "s.csv").stat().st_size
    runs = [(args, named)]
    if outdir and bad == "file_size_limit":
        for absent in (tmp_path / "absent", tmp_path / "x" / "y" / "z"):
            runs.append((writer_args(command, synth_csv, model_file, absent,
                                     tmp_path), absent / "frequencies.csv"))
    listing = sorted(tmp_path.rglob("*"))
    for args, named in runs:
        proc = run_child(args, fsize)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", f"qpdecomp: ConfigError: {named}: cannot write: {reason}\n")
        assert sorted(tmp_path.rglob("*")) == listing
    if bad == "fifo":
        assert stat.S_ISFIFO(target.stat().st_mode)
    elif bad == "file_size_limit":
        assert (list(target.iterdir()) == [] if outdir
                else target.read_bytes() == b"old\n")


@pytest.mark.parametrize("command", WRITERS)
def test_long_legal_name_is_written(synth_csv, model_file, tmp_path, command):
    # no temporary's name grows with its target's, so every writer takes a
    # 250-byte target, and leaves no temporary
    target = tmp_path / LEGAL_LONG_NAME
    assert run_cli(writer_args(command, synth_csv, model_file, target,
                               tmp_path)) == 0
    assert target.is_dir() if command == "run" else target.is_file()
    assert not list(tmp_path.rglob(".*"))


def test_time_columns_read_the_input_clock(synth_csv, fitted_run, tmp_path):
    # every written time_s column is the input's own clock, t0 + index * dt,
    # and so are the harmonics' times: a copy stamped from 1.7e9 s writes
    # the same values at shifted times
    header, *rows = synth_csv[0].read_text().splitlines()
    stamps = [f"{1.7e9 + k:.17g}" for k in range(len(rows))]
    epoch = tmp_path / "epoch.csv"
    epoch.write_text("\n".join(
        [header] + [f"{t},{r.split(',', 1)[1]}"
                    for t, r in zip(stamps, rows)]) + "\n")
    assert run_cli(command_args("run", epoch, None, tmp_path / "epoch")) == 0
    first_row = {"prediction.csv": 620, "reconstruction.csv": 6}
    for table, row in first_row.items():
        zero = np.loadtxt(fitted_run / table, delimiter=",", skiprows=1)
        shifted = np.loadtxt(tmp_path / "epoch" / table, delimiter=",",
                             skiprows=1)
        assert shifted[0, 0] == float(stamps[row]), table
        np.testing.assert_array_equal(shifted[:, 0], 1.7e9 + zero[:, 0])
        np.testing.assert_array_equal(shifted[:, 1:], zero[:, 1:])


@pytest.mark.parametrize("base", [0, 1.7e9], ids=["integer", "epoch"])
def test_predict_places_a_later_start_by_its_timestamps(synth_csv, tmp_path,
                                                        base):
    # a copy of the input that starts 300 rows later, its timestamps kept,
    # holds the same instants: predicting from it at the same instant
    # writes the bytes of the prediction from the whole input
    header, *rows = synth_csv[0].read_text().splitlines()
    stamped = [f"{base + k:.17g},{r.split(',', 1)[1]}"
               for k, r in enumerate(rows)]
    whole, later = tmp_path / "whole.csv", tmp_path / "later.csv"
    whole.write_text("\n".join([header, *stamped]) + "\n")
    later.write_text("\n".join([header, *stamped[300:]]) + "\n")
    model = tmp_path / "m.npz"
    assert run_cli(command_args("decompose", whole, None, model)) == 0
    preds = []
    for src, init_at in ((whole, 620), (later, 320)):
        preds.append(tmp_path / f"{src.stem}-pred.csv")
        assert run_cli(["predict", "--model", model, "--input", src,
                        "--init-at", init_at, "--steps", "60",
                        "--ma-windows", "1", "10", "--out", preds[-1]]) == 0
    assert preds[0].read_text().splitlines()[1].startswith(
        f"{base + 620:.17g},")
    assert preds[1].read_bytes() == preds[0].read_bytes()


@pytest.fixture(scope="module")
def stamp_rows(torus_800):
    """Writes the first rows of an 800-sample series, stamped
    ``base + step * k`` in a given format, and returns the file."""
    header, *rows = torus_800.read_text().splitlines()

    def write(path, rows_kept, base=1.7e9, step=0.1, fmt=".1f"):
        path.write_text("\n".join(
            [header] + [f"{base + step * k:{fmt}},{r.split(',', 1)[1]}"
                        for k, r in enumerate(rows[:rows_kept])]) + "\n")
        return path

    return write


def test_sub_second_epoch_stamps_give_the_bins_at_1_s(torus_800, stamp_rows,
                                                      tmp_path):
    # 0.1 s steps in seconds since the epoch are even, though adjacent
    # steps differ by a float spacing; the bins are those at 1 s
    bins = []
    for src in (torus_800, stamp_rows(tmp_path / "epoch.csv", 800)):
        out = tmp_path / f"f{len(bins)}"
        assert run_cli(["run", "--input", src, *FIT_FLAGS,
                        "--outdir", out]) == 0
        bins.append(np.loadtxt(out / "frequencies.csv", delimiter=",",
                               skiprows=1, usecols=0))
    assert bins[0].size > 1
    np.testing.assert_array_equal(bins[0], bins[1])


class TestPredictStep:
    """A step read from timestamps is a span over a step count, so a model
    fitted on the first rows of a file and the whole file round apart."""

    def predict(self, stamp_rows, tmp_path, train_rows, flags=(),
                base=1.7e9, **stamp):
        model = tmp_path / "m.npz"
        assert run_cli(["decompose", "--input",
                        stamp_rows(tmp_path / "train.csv", train_rows, base),
                        "--epsilon", "2.0", "--delays", "6", "--num-eigen",
                        "40", "--L0", "8", "--model-out", model]) == 0
        return run_cli(["predict", "--model", model, "--input",
                        stamp_rows(tmp_path / "data.csv", 800, base, **stamp),
                        "--init-at", "700", "--steps", "100", *flags,
                        "--out", tmp_path / "p.csv"])

    @pytest.mark.parametrize("train_rows", [100, 200, 300])
    def test_epoch_model_from_first_rows(self, stamp_rows, tmp_path,
                                         train_rows):
        # at 1.7e9 s the 100-row step is 8.4e-9 relative off the 800-row one
        assert self.predict(stamp_rows, tmp_path, train_rows) == 0
        # each predicted row is stamped with the input's own time, to the
        # rounding of the timestamps themselves
        times = np.loadtxt(tmp_path / "p.csv", delimiter=",", skiprows=1,
                           usecols=0)
        stamps = np.loadtxt(tmp_path / "data.csv", delimiter=",", skiprows=1,
                            usecols=0)
        assert times[0] == stamps[700] == 1700000070.0
        np.testing.assert_allclose(times, stamps[700:], rtol=0, atol=1e-6)

    @pytest.mark.parametrize("train_rows,base", [(600, 1.7e9), (700, 1.7e9),
                                                 (600, 0.0), (200, 1.7e9)],
                             ids=["epoch-600", "epoch-700", "from_zero-600",
                                  "epoch-200"])
    def test_error_columns_on_the_same_rule(self, stamp_rows, tmp_path,
                                            train_rows, base):
        # the error columns compare the steps as the input check does; from
        # 0 s the 600-row step is 0.09999999999999999 and the 800-row one 0.1
        assert self.predict(stamp_rows, tmp_path, train_rows,
                            ["--ma-windows", "5"], base=base) == 0
        header = (tmp_path / "p.csv").read_text().splitlines()[0]
        assert "err_ch0_ma5" in header

    def test_step_off_by_1e_6_exits_3(self, stamp_rows, tmp_path, capsys):
        assert self.predict(stamp_rows, tmp_path, 200,
                            step=0.1 * (1 + 1e-6), fmt=".7f") == 3
        assert "differs from the model's dt" in capsys.readouterr().err


class TestDiagnosticsCommand:
    def test_writes_diagnostic_curves(self, fitted_run):
        # run's diagnostics/ took the place of the `diagnostics` command
        for name in ("sqdist_histogram.csv", "norm_growth_by_column.csv",
                     "growth_ratio_sorted.csv", "eigenvalues.csv"):
            assert (fitted_run / "diagnostics" / name).is_file()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under_file"])
@pytest.mark.parametrize("command", ["run", "run_config"])
def test_outdir_file_exits_2_before_fitting(synth_csv, tmp_path, forbid,
                                            capsys, command, below):
    # an --outdir (or a config's outdir) that is a file, or lies under one,
    # is one ConfigError line before the kernel is built, and leaves no
    # staging directory
    forbid("kernel.gaussian_kernel")
    blocker = tmp_path / "taken.csv"
    blocker.write_text("x\n", encoding="utf-8")
    outdir = blocker / below if below else blocker
    if command == "run_config":
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"outdir = {outdir}\n", encoding="utf-8")
        args = ["run", "--config", cfg, "--input", synth_csv[0],
                "--epsilon", "2.0", *FIT_FLAGS, *PREDICT_WINDOW]
    else:
        args = command_args(command, synth_csv[0], None, outdir)
    assert_fails(args, tmp_path, capsys, 2, "qpdecomp: ConfigError: .*"
                 + re.escape(f"{blocker} is not a directory"))
    assert blocker.read_text(encoding="utf-8") == "x\n"


@pytest.mark.parametrize("command", ["run"])
def test_nonempty_outdir_exits_2_before_fitting(synth_csv, tmp_path, forbid,
                                                capsys, command):
    # an --outdir that holds a file is one ConfigError line before the
    # eigenbasis is computed, and is left as it was
    forbid("spectral.decompose")
    outdir = tmp_path / "ne"
    outdir.mkdir()
    (outdir / "keep.txt").write_text("k\n", encoding="utf-8")
    assert_fails(command_args(command, synth_csv[0], None, outdir), tmp_path,
                 capsys, 2, file_error("ConfigError", outdir,
                                       "cannot write: directory is not empty"))
    assert (outdir / "keep.txt").read_text(encoding="utf-8") == "k\n"


@pytest.mark.parametrize("command", ["run"])
def test_empty_outdir_exits_2_before_reading(synth_csv, tmp_path, monkeypatch,
                                             forbid, capsys, command):
    # an empty --outdir is one ConfigError line, as an unset one is,
    # before the input is read or the kernel built; nothing is written
    # into the working directory
    forbid("series.load_csv", "kernel.gaussian_kernel")
    monkeypatch.chdir(tmp_path)
    assert_fails(command_args(command, synth_csv[0], None, ""), tmp_path,
                 capsys, 2, "qpdecomp: ConfigError: outdir is required")


# the options that were removed, as each command's flags, or as lines of a
# config file
REMOVED_OPTIONS = {
    "run": ["--merge-adjacent", "--clip-factor 1.5", "--standardize",
            "--resample-method hold", "--basis-cache c", "--max-points 100",
            "--mode freerun"],
    "decompose": ["--merge-adjacent", "--standardize",
                  "--resample-method hold", "--basis-cache c"],
    "predict": ["--clip-factor 1.5", "--standardize", "--resample-method hold",
                "--ma-window 5"],
    "config": ["solver = dense", "seed = 0", "mode = insample",
               "basis_cache = c", "max_points = 25000"],
}


@pytest.mark.parametrize("command, option", [
    pytest.param(command, option, id=f"{command}:{option}"
                 .replace(" = ", "=").replace(" ", "="))
    for command, options in REMOVED_OPTIONS.items() for option in options])
def test_removed_option_exits_2(synth_csv, model_file, tmp_path, monkeypatch,
                                forbid, capsys, command, option):
    # a removed option on a command line that works without it is a
    # configuration error: exit 2 before any input is read or fitted, and
    # nothing written
    forbid("series.load_csv", "decompose.load_model", "kernel.gaussian_kernel")
    monkeypatch.chdir(tmp_path)
    if command == "config":
        Path("old.conf").write_text(option + "\n", encoding="utf-8")
        assert_fails(["run", "--config", "old.conf", *command_args(
            "run", synth_csv[0], None, "o")[1:]], tmp_path, capsys, 2,
            file_error("ConfigError", "old.conf",
                       f"line 1: unknown key '{option.split()[0]}'"))
    else:
        assert_fails([*command_args(command, synth_csv[0], model_file, "o"),
                      *option.split()], tmp_path, capsys, 2,
                     "qpdecomp: ConfigError: unrecognized arguments: "
                     + re.escape(option))


@pytest.mark.parametrize("args, replacement", [
    (["frequencies", "--input", "in.csv", "--out", "f"], "`run` without a "),
    (["frequencies", "--no-such-flag"], "`run` without a predict window"),
    (["diagnostics", "--input", "in.csv", "--outdir", "d"], "`run`, which"),
    (["reconstruct", "--model", "m.npz", "--mode", "freerun"],
     "`run`'s reconstruction.csv, or `predict --init-at <q+1>`"),
], ids=["frequencies", "frequencies_bad_flag", "diagnostics", "reconstruct"])
def test_removed_command_exits_2(tmp_path, monkeypatch, forbid, capsys, args,
                                 replacement):
    # a removed command, whatever its flags, is one ConfigError line naming
    # what replaces it, before any input or model is read
    forbid("series.load_csv", "decompose.load_model")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.csv").write_text("time,a\n0,1\n1,2\n")
    assert_fails(args, tmp_path, capsys, 2,
                 f"qpdecomp: ConfigError: the {args[0]} command was removed; "
                 f"use {re.escape(replacement)}.*")


# A usage error is one ConfigError line too, exit 2, before any input or
# model is read; nothing is written.  name: (arguments, the message)
BAD_USAGE = {
    "no_command": ([], "the following arguments are required: command"),
    "unknown_command": (["nope"], "argument command: invalid choice: 'nope' "
                        "(choose from 'synth', 'decompose', 'predict', 'run')"),
    "synth_steps_not_int": (["synth", "--testbed", "pure_torus_2", "--steps",
                             "abc", "--out", "s.csv"],
                            "argument --steps: invalid int value: 'abc'"),
    "predict_steps_not_int": (["predict", "--model", "m.npz", "--input",
                               "in.csv", "--init-at", "10", "--steps", "abc",
                               "--out", "p.csv"],
                              "argument --steps: invalid int value: 'abc'"),
    "init_at_not_int": (["predict", "--model", "m.npz", "--input", "in.csv",
                         "--init-at", "1.5", "--steps", "5", "--out",
                         "p.csv"],
                        "argument --init-at: invalid int value: '1.5'"),
    "missing_out": (["predict", "--model", "m.npz", "--input", "in.csv",
                     "--init-at", "10", "--steps", "5"],
                    "the following arguments are required: --out"),
    "channels_without_value": (["run", "--input", "in.csv", "--outdir", "o",
                                "--channels"],
                               "argument --channels: expected at least one "
                               "argument"),
    "unknown_testbed": (["synth", "--testbed", "nope", "--steps", "5",
                         "--out", "s.csv"],
                        "argument --testbed: invalid choice: 'nope' (choose "
                        "from 'pure_torus_2', 'torus_plus_logistic', "
                        "'torus_plus_damped')"),
    # a flag is taken by its whole name only, never by a prefix
    "prefix_of_delays": (["run", "--input", "in.csv", "--outdir", "o",
                          "--delay", "6"],
                         "unrecognized arguments: --delay 6"),
    "prefix_of_ma_windows": (["predict", "--model", "m.npz", "--input",
                              "in.csv", "--init-at", "10", "--steps", "5",
                              "--ma-window", "5", "--out", "p.csv"],
                             "unrecognized arguments: --ma-window 5"),
}


@pytest.mark.parametrize("name", BAD_USAGE)
def test_usage_error_is_one_line(tmp_path, monkeypatch, forbid, capsys,
                                 name):
    # argparse's usage block and its own exit are not taken: one row runs
    # in a child process, where the interpreter exits with the code
    forbid("series.load_csv", "decompose.load_model", "kernel.gaussian_kernel")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.csv").write_text("time,a\n0,1\n1,2\n")
    args, message = BAD_USAGE[name]
    line = f"qpdecomp: ConfigError: {message}"
    if name == "unknown_command":
        listing = sorted(tmp_path.rglob("*"))
        proc = run_child(args, cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "",
                                                               line + "\n")
        assert sorted(tmp_path.rglob("*")) == listing
    else:
        assert_fails(args, tmp_path, capsys, 2, re.escape(line))


INGESTION_OPTIONS = ["--input", "--timestamp-column", "--channels",
                     "--dt-seconds", "--max-gap-factor"]
FIT_OPTIONS = ["--train-end", "--delays", "--epsilon", "--reference-points",
               "--num-eigen", "--eps1", "--eps2", "--L0"]
OPTIONS = {
    "synth": ["-h", "--help", "--testbed", "--steps", "--dt", "--seed",
              "--out", "--latent-out"],
    "decompose": ["-h", "--help", *INGESTION_OPTIONS, *FIT_OPTIONS,
                  "--model-out"],
    "predict": ["-h", "--help", *INGESTION_OPTIONS, "--model", "--init-at",
                "--steps", "--ma-windows", "--out"],
    "run": ["-h", "--help", *INGESTION_OPTIONS, *FIT_OPTIONS, "--outdir",
            "--predict-start", "--predict-end", "--ma-windows", "--config",
            "--manifest"],
}


def test_each_command_takes_its_options():
    import argparse

    from qpdecomp.cli import build_parser

    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(commands) == sorted(OPTIONS)
    for command, parser in commands.items():
        options = [o for a in parser._actions for o in a.option_strings]
        assert sorted(options) == sorted(OPTIONS[command]), command


def test_run_help_prints_the_flag_help(monkeypatch, capsys):
    # wide enough that no help text is wrapped
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: qpdecomp run ") and not err
    for text in [
        "input CSV file",
        "value columns to keep (default: all non-timestamp)",
        "resample to this step; 0 keeps the input grid",
        "widest input gap to resample across, in steps",
        "training window length in samples; 0 uses everything",
        "Gaussian kernel bandwidth (squared-distance units); 0, the default, "
        "takes the 1% quantile of the squared delay distances",
        "kernel reference points: every ceil(N/M)-th delay vector; 0, the "
        "default, takes M = 2048, and any M of at least N keeps all N",
        "first sample of the predict window; set both ends or neither",
        "moving-average windows of the prediction's error columns; none by "
        "default",
    ]:
        assert f"  {text}\n" in out, text


class TestRunCommand:
    def test_run_from_config_with_flag_override(self, synth_csv, tmp_path):
        out, _ = synth_csv
        cfg = tmp_path / "run.conf"
        cfg.write_text(
            f"input = {out}\n"
            f"outdir = {tmp_path / 'wrong'}\n"
            "delays = 6\nepsilon = 2.0\nnum_eigen = 40\nL0 = 8\n"
            "train_end = 600\npredict_start = 620\npredict_end = 680\n"
            "ma_windows = 1 10\n",
            encoding="utf-8",
        )
        outdir = tmp_path / "artifacts"
        code = run_cli(["run", "--config", cfg, "--outdir", outdir])
        assert code == 0
        assert (outdir / "manifest.txt").is_file()
        assert not (tmp_path / "wrong").exists()

    def test_config_and_manifest_together_rejected(self, synth_csv, tmp_path,
                                                   capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text(
            f"input = {synth_csv[0]}\ndelays = 6\nepsilon = 2.0\n"
            "num_eigen = 40\nL0 = 8\ntrain_end = 600\npredict_start = 620\n"
            "predict_end = 680\n", encoding="utf-8")
        assert_fails(["run", "--config", cfg, "--manifest",
                      tmp_path / "absent" / "manifest.txt",
                      "--outdir", tmp_path / "o"], tmp_path, capsys, 2,
                     "qpdecomp: ConfigError: --config and --manifest .+")

    def test_outdir_dot_in_empty_cwd(self, synth_csv, tmp_path):
        # the artifacts are staged beside the absolute outdir; a subprocess,
        # because the rename replaces its working directory
        work = tmp_path / "work"
        work.mkdir()
        proc = run_child(command_args("run", synth_csv[0], None, "."),
                         cwd=work)
        assert proc.returncode == 0, proc.stderr
        assert (work / "manifest.txt").is_file()
        assert [p.name for p in tmp_path.iterdir()] == ["work"]

    def test_flag_input_resolves_against_cwd(self, torus_800, tmp_path,
                                             monkeypatch):
        # configs/smoke.conf as checked in, beside the series its comment
        # generates: its relative input resolves against the file's
        # directory, and an --input flag against the working directory
        (tmp_path / "configs").mkdir()
        shutil.copy(Path(__file__).parents[1] / "configs" / "smoke.conf",
                    tmp_path / "configs")
        shutil.copy(torus_800, tmp_path / "torus.csv")
        shutil.copy(torus_800, tmp_path / "data.csv")
        monkeypatch.chdir(tmp_path)
        for outdir, flag in (("smoke", []), ("flag", ["--input", "data.csv"])):
            assert run_cli(["run", "--config", "configs/smoke.conf", *flag,
                            "--outdir", outdir]) == 0
        for outdir, src in (("smoke", "torus.csv"), ("flag", "data.csv")):
            manifest = (tmp_path / outdir / "manifest.txt").read_text()
            assert f"input = {tmp_path.resolve() / src}" in manifest.splitlines()
        assert_same_artifacts(tmp_path / "smoke", tmp_path / "flag")
        # the file's settings are these flags
        assert run_cli(["run", "--input", "torus.csv", "--delays", "6",
                        "--epsilon", "2.0", "--num-eigen", "40", "--L0", "8",
                        "--train-end", "600", "--outdir", "fit"]) == 0
        assert_same_artifacts(tmp_path / "fit", tmp_path / "smoke", count=7)

    def test_channel_name_with_whitespace_rejected(self, synth_csv, tmp_path,
                                                   capsys):
        # the manifest writes the channels as one whitespace-separated line,
        # so a name with a space would run once and not re-run from it
        out, _ = synth_csv
        header, *rows = out.read_text().splitlines()
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("\n".join([header.replace("ch0", "queue 1"), *rows])
                          + "\n", encoding="utf-8")
        assert_fails([*command_args("run", spaced, None, tmp_path / "o"),
                      "--channels", "queue 1"], tmp_path, capsys, 2,
                     "qpdecomp: ConfigError: .*'queue 1'.*")

    @pytest.mark.parametrize("line, code", [
        pytest.param(line, code, id=line.replace(" ", ""))
        for line, code in [
            ("solver = arpack", 0), ("seed = 0", 0), ("mode = freerun", 0),
            ("max_points = 25000", 0),
            ("merge_adjacent = false", 0), ("merge_adjacent = true", 2),
            ("clip_factor = 0.0", 0), ("clip_factor = 1.5", 2),
            ("standardize = false", 0), ("standardize = true", 2),
            ("resample_method = hold", 0), ("resample_method = linear", 2)]])
    def test_old_manifest_line(self, fitted_run, tmp_path, forbid, capsys,
                               line, code):
        # manifests of earlier versions hold keys that are gone.  A key that
        # never changed a result, or a removed option at the default those
        # manifests wrote, re-runs to the bytes of the run; a removed option
        # at another value asks for a result that can no longer be made, and
        # is one ConfigError line naming the key, before fitting
        manifest = tmp_path / "old_manifest.txt"
        manifest.write_text(f"{line}\n" + (fitted_run / "manifest.txt")
                            .read_text(encoding="utf-8"), encoding="utf-8")
        outdir = tmp_path / "rerun"
        args = ["run", "--manifest", manifest, "--outdir", outdir]
        if code:
            forbid("pipeline.fit")
            assert_fails(args, tmp_path, capsys, code,
                         file_error("ConfigError", manifest,
                                    f"line 1: {re.escape(line)} was .+"))
        else:
            assert run_cli(args) == 0
            assert_same_artifacts(fitted_run, outdir)

    def test_reference_set_past_2048_rows(self, tmp_path):
        # 2200 training samples, 6 delays: N = 2194 rows.  The default takes
        # every second delay vector and records M = 1097 in the manifest;
        # --reference-points N, and a manifest written before the key
        # existed, take every row.  Each manifest re-runs to its bytes.
        src = tmp_path / "torus.csv"
        assert run_cli(["synth", "--testbed", "pure_torus_2", "--steps",
                        "2400", "--out", src]) == 0
        flags = ["--input", src, "--delays", "6", "--num-eigen", "40",
                 "--L0", "8", "--train-end", "2200", "--predict-start",
                 "2220", "--predict-end", "2300"]
        for name, extra, m, s in [
                ("default", [], 1097, 2),
                ("all", ["--reference-points", "2194"], 2194, 1)]:
            outdir = tmp_path / name
            assert run_cli(["run", *flags, *extra, "--outdir", outdir]) == 0
            lines = (outdir / "manifest.txt").read_text().splitlines()
            assert f"reference_points = {m}" in lines
            # the residual map keeps the windows at the references' stride
            assert load_model(outdir / "model.npz").stride == s
            rerun = tmp_path / f"{name}-rerun"
            assert run_cli(["run", "--manifest", outdir / "manifest.txt",
                            "--outdir", rerun]) == 0
            assert_same_artifacts(outdir, rerun)
        earlier = tmp_path / "earlier_manifest.txt"
        earlier.write_text("".join(
            f"{line}\n" for line in lines
            if not line.startswith("reference_points")))
        assert run_cli(["run", "--manifest", earlier, "--outdir",
                        tmp_path / "earlier"]) == 0
        assert_same_artifacts(tmp_path / "all", tmp_path / "earlier")

    @pytest.mark.parametrize("flag, content, what", [
        pytest.param(flag, content, what, id=f"{flag[2:]}-{name}")
        for flag, name, content, what in BAD_CONFIGS])
    def test_bad_config_exits_2_naming_the_file(self, tmp_path, capsys, flag,
                                                content, what):
        # the reader contract for config files and manifests
        conf = tmp_path / "bad.conf"
        if content is not None:
            conf.write_bytes(content if isinstance(content, bytes)
                             else content.encode())
        assert_fails(["run", flag, conf, "--outdir", tmp_path / "o"],
                     tmp_path, capsys, 2,
                     file_error("ConfigError", conf, re.escape(what)))

    def test_warning_is_one_line(self, synth_csv, tmp_path, capsys):
        # a warning, here that the thresholds keep no nonzero bin, is one
        # `qpdecomp: warning:` line, and the command still succeeds
        out = tmp_path / "fit"
        assert run_cli(["run", "--input", synth_csv[0], *FIT_FLAGS,
                        "--epsilon", "2.0", "--eps1", "1e9",
                        "--outdir", out]) == 0
        assert capsys.readouterr().err == (
            "qpdecomp: warning: no nonzero frequency survived the "
            "thresholds; the series has no detectable quasiperiodic "
            "component at these parameters\n")
        assert (out / "frequencies.csv").is_file()

    def test_manifest_rerun_warns_on_a_changed_input(self, fitted_run,
                                                     synth_csv, tmp_path,
                                                     capsys):
        # the manifest's input, with its last row edited: the re-run warns
        # once, naming both files, and still writes its artifacts; an
        # --input flag is taken as it is
        lines = synth_csv[0].read_text().splitlines()
        lines[-1] = lines[-1].split(",")[0] + ",0,0,0"
        changed = tmp_path / "changed.csv"
        changed.write_text("\n".join(lines) + "\n")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(re.sub(
            "(?m)^input = .*$", lambda m: f"input = {changed}",
            (fitted_run / "manifest.txt").read_text()))
        assert run_cli(["run", "--manifest", manifest,
                        "--outdir", tmp_path / "a"]) == 0
        assert capsys.readouterr().err == (
            f"qpdecomp: warning: {manifest}: input {changed} has changed "
            f"since the manifest was written (its SHA-256 differs), so the "
            f"re-run may not reproduce its artifacts\n")
        assert run_cli(["run", "--manifest", manifest, "--input", changed,
                        "--outdir", tmp_path / "b"]) == 0
        assert capsys.readouterr().err == ""
        assert_same_artifacts(tmp_path / "a", tmp_path / "b")

    def test_channel_named_twice_exits_2(self, synth_csv, tmp_path, capsys):
        assert_fails(["run", "--input", synth_csv[0], "--channels",
                      "ch0", "ch0", *FIT_FLAGS, "--outdir", tmp_path / "o"],
                     tmp_path, capsys, 2,
                     "qpdecomp: ConfigError: channel 'ch0' is named twice")

    @pytest.mark.parametrize("command", ["decompose", "run"])
    def test_byte_budget_exit_code(self, synth_csv, tmp_path, monkeypatch,
                                   capsys, command):
        import qpdecomp.errors

        monkeypatch.setattr(qpdecomp.errors, "_available_bytes",
                            lambda: 1_000_000)
        assert run_cli(command_args(command, synth_csv[0], None,
                                    tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "DataError" in err and "MB of memory is available" in err

    def test_resampled_grid_past_memory_exits_3(self, tmp_path, monkeypatch,
                                                forbid, capsys):
        # a 1e-12 s grid over 3 s is 3e12 rows: refused before it is
        # allocated, naming the input
        import qpdecomp.errors

        monkeypatch.setattr(qpdecomp.errors, "_available_bytes",
                            lambda: 8_000_000_000)
        forbid("kernel.gaussian_kernel")
        src = tmp_path / "in.csv"
        src.write_text("time,a\n0,1\n1,2\n2,3\n3,4\n")
        assert_fails(["run", "--input", src, "--outdir", tmp_path / "o",
                      "--dt-seconds", "1e-12", "--max-gap-factor", "1e13"],
                     tmp_path, capsys, 3, file_error(
                         "DataError", src, "3000000000001 rows on the 1e-12 "
                         "s grid need 120000000 MB, but only 8000 MB of "
                         "memory is available"))

    def test_embedding_past_memory_exits_3(self, synth_csv, tmp_path,
                                           monkeypatch, forbid, capsys):
        # 400 delays of 700 samples are 300 vectors of 3 x 401 values,
        # 2.9 MB: refused before they are allocated, naming the input
        import tracemalloc

        import qpdecomp.errors

        monkeypatch.setattr(qpdecomp.errors, "_available_bytes",
                            lambda: 1_000_000)
        forbid("kernel.gaussian_kernel")
        tracemalloc.start()
        try:
            assert_fails(["run", "--input", synth_csv[0], "--outdir",
                          tmp_path / "o", "--delays", "400", "--epsilon", "1"],
                         tmp_path, capsys, 3, file_error(
                             "DataError", synth_csv[0], "300 delay vectors "
                             "of 1203 values need 3 MB, but only 1 MB of "
                             "memory is available"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"peak {peak} bytes"

    def test_model_embedding_past_memory_exits_3(self, synth_csv, model_file,
                                                 tmp_path, monkeypatch,
                                                 capsys):
        # load_model embeds the 594 residual rows in windows of 3 samples,
        # 42.6 KB, under the same check, naming the model
        import qpdecomp.errors

        monkeypatch.setattr(qpdecomp.errors, "_available_bytes",
                            lambda: 40_000)
        assert_fails(command_args("predict", synth_csv[0], model_file,
                                  tmp_path / "p.csv"), tmp_path, capsys, 3,
                     file_error("DataError", model_file, "592 delay vectors "
                                "of 9 values need 0 MB, but only 0 MB of "
                                "memory is available"))

    def test_exit_codes(self, synth_csv, tmp_path, capsys):
        out, _ = synth_csv
        # config error: bad threshold relation
        code = run_cli(["run", "--input", out, "--outdir", tmp_path / "o1",
                        "--epsilon", "2.0", "--num-eigen", "10", "--L0", "50"])
        assert code == 2
        # numerical error: eigenvalue floor (near-duplicate data, huge eps)
        flat = tmp_path / "flat.csv"
        rng = np.random.default_rng(0)
        rows = ["time,a"] + [f"{i},{1 + 1e-9 * rng.random():.17g}"
                             for i in range(50)]
        flat.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = run_cli(["run", "--input", flat, "--outdir", tmp_path / "o3",
                        "--epsilon", "1e6", "--delays", "0",
                        "--num-eigen", "10", "--L0", "5", "--train-end", "0",
                        "--predict-start", "30", "--predict-end", "40"])
        assert code == 4
        err = capsys.readouterr().err
        assert "NumericalError" in err
        # config error: a bad predict count or window, checked before the
        # model (absent here) is read, also when the truth window lies
        # past the data
        for init_at, steps, windows in ((620, 0, []), (620, -5, []),
                                        (620, 5, ["-1"]), (690, 50, ["-1"]),
                                        (620, 5, ["10", "10"])):
            windows = ["--ma-windows", *windows] if windows else []
            code = run_cli(["predict", "--model", tmp_path / "absent.npz",
                            "--input", out, "--init-at", init_at,
                            "--steps", steps, *windows,
                            "--out", tmp_path / "p.csv"])
            assert code == 2
            assert capsys.readouterr().err.startswith("qpdecomp: ConfigError:")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("case", [
        ["--num-eigen", "10", "--L0", "50"],
        ["--delays", "-1"],
        ["--epsilon", "-2"],
        ["--epsilon", "nan"],
        ["--dt-seconds", "nan"],
        ["--dt-seconds", "1", "--max-gap-factor", "nan"],
        ["--eps1", "nan"],
        ["--eps2", "nan"],
    ], ids=["L0_above_num_eigen", "negative_delays", "negative_epsilon",
            "nan_epsilon", "nan_dt_seconds", "nan_max_gap_factor", "nan_eps1",
            "nan_eps2"])
    @pytest.mark.parametrize("command", ["run", "decompose"])
    def test_config_errors_exit_2_before_fitting(self, synth_csv, tmp_path,
                                                  forbid, capsys, command,
                                                  case):
        # every fitting command validates the same keys the same way, and
        # does so before it builds the kernel
        forbid("kernel.gaussian_kernel")
        assert run_cli([*command_args(command, synth_csv[0], None,
                                      tmp_path / "out"), *case]) == 2
        assert capsys.readouterr().err.startswith("qpdecomp: ConfigError:")

    @pytest.mark.parametrize("command, flag, target", [
        ("decompose", "--model-out", "model.npz"),
        ("run", "--outdir", "fit"),
    ], ids=["decompose", "run"])
    def test_subcommands_run_without_epsilon(self, synth_csv, derived_run,
                                             tmp_path, command, flag, target):
        # without --epsilon, decompose and run without a predict window
        # derive the bandwidth as the run with one does, and write its bytes
        assert run_cli([command, "--input", synth_csv[0], *FIT_FLAGS,
                        flag, tmp_path / target]) == 0
        if command == "run":
            assert_same_artifacts(tmp_path / target, derived_run, count=7)
        else:
            assert ((tmp_path / target).read_bytes()
                    == (derived_run / target).read_bytes())

    def test_run_without_epsilon_records_it_in_the_manifest(
            self, synth_csv, derived_run, tmp_path, capsys):
        # the manifest holds the 1% quantile of the training window's squared
        # delay distances (at 594 rows every pair, from both ends), and
        # re-runs with it explicitly to the same bytes, with no warning,
        # since its input is unchanged
        from qpdecomp.series import delay_embed, window

        from conftest import pairwise_sqdist

        emb = delay_embed(window(load_csv(synth_csv[0]), 0, 600), 6)
        d2 = pairwise_sqdist(emb)
        eps = float(np.quantile(d2[~np.eye(len(d2), dtype=bool)], 0.01))
        manifest = (derived_run / "manifest.txt").read_text().splitlines()
        assert f"epsilon = {eps!r}" in manifest
        rerun = tmp_path / "rerun"
        capsys.readouterr()
        assert run_cli(["run", "--manifest", derived_run / "manifest.txt",
                        "--outdir", rerun]) == 0
        assert capsys.readouterr().err == ""
        assert_same_artifacts(derived_run, rerun)

    def test_derived_epsilon_of_zero_exits_3(self, synth_csv, tmp_path,
                                             capsys):
        # a constant stretch of 150 samples makes over 1% of the delay-vector
        # pairs coincide, so the derived bandwidth would be 0
        header, *rows = synth_csv[0].read_text().splitlines()
        first = rows[0].split(",")[1:]
        flat = tmp_path / "flat.csv"
        flat.write_text("\n".join(
            [header] + [",".join([r.split(",")[0], *first])
                        if 100 <= i < 250 else r for i, r in enumerate(rows)])
            + "\n", encoding="utf-8")
        out = tmp_path / "fit"
        assert_fails(["run", "--input", flat, *FIT_FLAGS, "--outdir", out],
                     tmp_path, capsys, 3,
                     file_error("DataError", flat,
                                ".*1% quantile.*--epsilon.*"))
        assert run_cli(["run", "--input", flat, *FIT_FLAGS,
                        "--epsilon", "8", "--outdir", out]) == 0
        assert (out / "frequencies.csv").is_file()

    @pytest.mark.parametrize("keep, resample", [
        (None, []), (gapped, ["--dt-seconds", "1", "--max-gap-factor", "20"]),
        (uneven, ["--dt-seconds", "1"]),
    ], ids=["clean", "gapped", "uneven"])
    def test_subcommands_match_run(self, synth_csv, tmp_path, capsys, keep,
                                   resample):
        # on the same flags decompose, predict, run without a predict window
        # (its 8 artifacts and the period table on stdout) and run on either
        # run's manifest write run's bytes; the gapped input is resampled with
        # a wider gap allowance than the default, the uneven one within it;
        # the eigenbasis cache that old manifests name is not touched
        src = thinned(synth_csv[0], tmp_path / "in.csv", keep) if keep \
            else synth_csv[0]
        fit = ["--input", src, "--epsilon", "2.0", *FIT_FLAGS, *resample]
        ref, mine = tmp_path / "run", tmp_path / "mine"
        assert run_cli(["run", *fit, "--outdir", ref, *PREDICT_WINDOW]) == 0
        mine.mkdir()
        for args in (["decompose", *fit, "--model-out", mine / "model.npz"],
                     ["predict", "--model", ref / "model.npz", "--input", src,
                      *resample, "--init-at", "620", "--steps", "60",
                      "--out", mine / "prediction.csv"]):
            assert run_cli(args) == 0
        written = [p.relative_to(mine) for p in mine.rglob("*.*")]
        assert len(written) == 2
        for name in written:
            assert (mine / name).read_bytes() == (ref / name).read_bytes(), name
        capsys.readouterr()
        assert run_cli(["run", *fit, "--outdir", tmp_path / "fit"]) == 0
        assert re.match("long periods .+short periods .+written to",
                        capsys.readouterr().out, re.S)
        assert_same_artifacts(tmp_path / "fit", ref, count=7)
        assert run_cli(["run", "--manifest", tmp_path / "fit" / "manifest.txt",
                        "--outdir", tmp_path / "refit"]) == 0
        assert_same_artifacts(tmp_path / "fit", tmp_path / "refit", count=7)
        cache = tmp_path / "cache"
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"basis_cache = {cache}\n"
                            + (ref / "manifest.txt").read_text(),
                            encoding="utf-8")
        assert run_cli(["run", "--manifest", manifest,
                        "--outdir", tmp_path / "rerun"]) == 0
        assert_same_artifacts(ref, tmp_path / "rerun")
        assert not cache.exists()
        assert not list(tmp_path.glob(".qpdecomp-*"))


def test_module_invocation_smoke(tmp_path):
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qpdecomp", "synth", "--testbed",
         "pure_torus_2", "--steps", "50", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.is_file()



def test_predict_and_a_refused_fit_never_import_scipy(synth_csv, model_file,
                                                      tmp_path):
    # only the eigensolve needs scipy, and spectral.decompose imports it
    # after its checks: a forecast and a fit those checks refuse (here L
    # above the 594 rows) do not pay the import, in a fresh interpreter
    script = ("import json, sys\n"
              "from qpdecomp.cli import main\n"
              "codes = [main(args) for args in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, sorted(m for m in sys.modules\n"
              "                                if m.split('.')[0] == 'scipy')]))\n")
    commands = [
        command_args("predict", synth_csv[0], model_file, tmp_path / "p.csv"),
        [*command_args("run", synth_csv[0], None, tmp_path / "run"),
         "--num-eigen", "1000"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", script,
         json.dumps([[str(a) for a in args] for args in commands])],
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 3], proc.stderr
    assert "L=1000 out of range 1..594" in proc.stderr
    assert scipy_modules == []
