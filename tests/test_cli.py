import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qpdecomp.cli import main
from qpdecomp.series import load_csv


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


# the fit flags of the tests below that leave epsilon to its default
FIT_FLAGS = ["--delays", "6", "--num-eigen", "40", "--L0", "8",
             "--train-end", "600"]


@pytest.fixture(scope="module")
def derived_run(synth_csv, tmp_path_factory):
    """A `run` without --epsilon: the kernel derives its bandwidth."""
    outdir = tmp_path_factory.mktemp("derived") / "run"
    assert run_cli(["run", "--input", synth_csv[0], *FIT_FLAGS,
                    "--outdir", outdir, "--predict-start", "620",
                    "--predict-end", "680"]) == 0
    return outdir


class TestSynthCommand:
    def test_writes_series_and_latent(self, synth_csv):
        out, latent = synth_csv
        data = load_csv(out)
        assert data.n == 700 and data.k == 3
        header = latent.read_text().splitlines()[0].split(",")
        assert header == ["time", "theta0", "theta1", "x0"]

    def test_unknown_testbed_exit_code(self, tmp_path, capsys):
        code = run_cli(["synth", "--testbed", "nope", "--steps", "10",
                        "--out", tmp_path / "x.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("qpdecomp: ConfigError:")
        assert "pure_torus_2" in err and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--steps", "0"], ["--steps", "-5"], ["--dt", "0"], ["--dt", "-1"],
        ["--dt", "nan"], ["--dt", "inf"], ["--seed", "-1"],
    ], ids=["steps_0", "steps_negative", "dt_0", "dt_negative", "dt_nan",
            "dt_inf", "seed_negative"])
    def test_bad_flags_exit_2_before_simulating(self, tmp_path, monkeypatch,
                                                capsys, flags):
        import qpdecomp.synth

        def unreachable(*args, **kwargs):
            raise AssertionError("the system was simulated")

        monkeypatch.setattr(qpdecomp.synth, "simulate", unreachable)
        args = {"--testbed": "pure_torus_2", "--steps": "10", "--dt": "1",
                "--seed": "0"}
        args[flags[0]] = flags[1]
        out = tmp_path / "x.csv"
        code = run_cli(["synth", *(a for kv in args.items() for a in kv),
                        "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("qpdecomp: ConfigError:") and err.count("\n") == 1
        assert not out.exists()

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            assert run_cli(["synth", "--testbed", "torus_plus_damped",
                            "--steps", "100", "--seed", "7", "--out", p]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFrequenciesCommand:
    def test_writes_frequency_table(self, synth_csv, tmp_path, capsys):
        out, _ = synth_csv
        freq_csv = tmp_path / "freqs.csv"
        code = run_cli(["frequencies", "--input", out, "--epsilon", "2.0",
                        "--delays", "6", "--num-eigen", "40", "--L0", "8",
                        "--train-end", "600",
                        "--out", freq_csv])
        assert code == 0
        lines = freq_csv.read_text().splitlines()
        assert lines[0] == "bin,omega_rad_per_s,period_s,period_human,amplitude,growth"
        assert len(lines) >= 2
        assert lines[1].split(",")[0] == "0"
        report = capsys.readouterr().out
        assert "long periods" in report and "short periods" in report

    @pytest.mark.parametrize("case", ["inf_time", "inf_time_resampled",
                                      "nan_cell"])
    def test_non_finite_input_exits_3_naming_the_file(self, synth_csv,
                                                      tmp_path, capsys, case):
        lines = synth_csv[0].read_text().splitlines()
        flags = []
        if case == "nan_cell":
            t, a, b, c = lines[300].split(",")
            lines[300] = ",".join([t, a, "nan", c])
        else:
            lines[-1] = "inf," + lines[-1].split(",", 1)[1]
            if case == "inf_time_resampled":
                flags = ["--dt-seconds", "1", "--max-gap-factor", "inf"]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "f.csv"
        code = run_cli(["frequencies", "--input", bad, *FIT_FLAGS, *flags,
                        "--out", out])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("qpdecomp: DataError:") and err.count("\n") == 1
        assert str(bad) in err
        assert ("line 301" if case == "nan_cell" else "line 701") in err
        assert not out.exists()


@pytest.fixture(scope="module")
def model_file(synth_csv, tmp_path_factory):
    out, _ = synth_csv
    model = tmp_path_factory.mktemp("model") / "m.npz"
    code = run_cli(["decompose", "--input", out, "--epsilon", "2.0",
                    "--delays", "6", "--num-eigen", "40", "--L0", "8",
                    "--train-end", "600",
                    "--model-out", model])
    assert code == 0
    return model


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
        out, _ = synth_csv
        code = run_cli(["decompose", "--input", out, "--epsilon", "2.0",
                        "--delays", "6", "--num-eigen", "40", "--L0", "8",
                        "--train-end", "600",
                        "--model-out", tmp_path / "m.npz"])
        assert code == 3
        assert "not a DFT bin" in capsys.readouterr().err

    def test_reconstruct_modes(self, model_file, tmp_path):
        # reconstruct writes the in-sample reconstruction and takes no
        # --mode; a free run over the training window is
        # `predict --init-at <q+1>`
        out = tmp_path / "recon.csv"
        assert run_cli(["reconstruct", "--model", model_file,
                        "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("time_s,truth_")
        assert len(lines) > 500
        for flags in (["--mode", "insample"], ["--mode", "freerun"]):
            with pytest.raises(SystemExit) as exc:
                run_cli(["reconstruct", "--model", model_file, *flags,
                         "--out", out])
            assert exc.value.code == 2

    def test_insample_reconstruction_is_close(self, model_file, synth_csv, tmp_path):
        out, _ = synth_csv
        recon = tmp_path / "recon.csv"
        run_cli(["reconstruct", "--model", model_file, "--out", recon])
        rows = np.loadtxt(recon, delimiter=",", skiprows=1)
        k = (rows.shape[1] - 1) // 2
        truth, est = rows[:, 1:1 + k], rows[:, 1 + k:]
        scale = np.abs(truth).max(axis=0)
        assert (np.abs(truth - est).max(axis=0) / scale).max() < 0.1

    def test_predict_case_study_protocol(self, model_file, synth_csv, tmp_path):
        out, _ = synth_csv
        pred = tmp_path / "pred.csv"
        code = run_cli(["predict", "--model", model_file, "--input", out,
                        "--init-at", "620", "--steps", "60",
                        "--ma-window", "10", "--out", pred])
        assert code == 0
        lines = pred.read_text().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 61
        assert float(lines[1].split(",")[0]) == 620.0
        assert any(h.startswith("err_") and h.endswith("_ma10") for h in header)

    def test_predict_init_too_early(self, model_file, synth_csv, tmp_path, capsys):
        out, _ = synth_csv
        code = run_cli(["predict", "--model", model_file, "--input", out,
                        "--init-at", "2", "--steps", "5",
                        "--out", tmp_path / "p.csv"])
        assert code == 3
        assert "delay window" in capsys.readouterr().err

    def test_predict_rejects_other_step(self, model_file, synth_csv,
                                        tmp_path, capsys):
        # the model was fitted at dt = 1 s; the same rows stamped 2 s apart
        header, *rows = synth_csv[0].read_text().splitlines()
        coarse = tmp_path / "dt2.csv"
        coarse.write_text("\n".join(
            [header] + [f"{2 * int(float(t))},{rest}"
                        for t, rest in (r.split(",", 1) for r in rows)]) + "\n")
        code = run_cli(["predict", "--model", model_file, "--input", coarse,
                        "--init-at", "620", "--steps", "20",
                        "--out", tmp_path / "p.csv"])
        assert code == 3
        assert "differs from the model's dt" in capsys.readouterr().err

    def test_predict_rejects_irregular_input(self, model_file, synth_csv,
                                             tmp_path, capsys):
        header, *rows = synth_csv[0].read_text().splitlines()
        gappy = tmp_path / "gappy.csv"
        gappy.write_text("\n".join(
            [header] + [r for i, r in enumerate(rows) if i % 7 != 6]) + "\n")
        code = run_cli(["predict", "--model", model_file, "--input", gappy,
                        "--init-at", "520", "--steps", "20",
                        "--out", tmp_path / "p.csv"])
        assert code == 3
        assert "irregular" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["time,ch1,ch0,ch2", "time,z0,z1,z2"],
                             ids=["swapped", "renamed"])
    def test_predict_rejects_other_channels(self, model_file, synth_csv,
                                            tmp_path, capsys, header):
        # the model was fitted on ch0,ch1,ch2; the same file with two
        # columns swapped, or renamed, is not its input
        lines = synth_csv[0].read_text().splitlines()
        assert lines[0] == "time,ch0,ch1,ch2"
        if header.startswith("time,ch1"):
            lines = [",".join([t, b, a, c]) for t, a, b, c in
                     (line.split(",") for line in lines)]
        else:
            lines[0] = header
        other = tmp_path / "other.csv"
        other.write_text("\n".join(lines) + "\n")
        pred = tmp_path / "p.csv"
        code = run_cli(["predict", "--model", model_file, "--input", other,
                        "--init-at", "620", "--steps", "20", "--out", pred])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("qpdecomp: DataError:")
        assert f"{header.split(',')[1:]}" in err
        assert "['ch0', 'ch1', 'ch2']" in err
        assert not pred.exists()

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

    def test_predict_rejects_format_1_model(self, synth_csv, tmp_path, capsys):
        old = tmp_path / "old.npz"
        np.savez(old, format=np.array(["qpdecomp-model-1"]),
                 train_values=np.zeros((8, 3)), lam=np.ones(2),
                 Phi=np.ones((6, 2)), Gamma=np.ones((6, 2)))
        code = run_cli(["predict", "--model", old, "--input", synth_csv[0],
                        "--init-at", "620", "--steps", "20",
                        "--out", tmp_path / "p.csv"])
        assert code == 3
        err = capsys.readouterr().err
        assert "qpdecomp-model-1" in err and "qpdecomp decompose" in err

    @pytest.mark.parametrize("case", ["not_npz", "missing", "format_only",
                                      "A_row_short", "A_flat",
                                      "epsilon_zero", "omega_nan",
                                      "format_0d", "train_hash_0d",
                                      "train_dt_2", "train_t0_2", "q_2",
                                      "epsilon_2", "omegas_str", "A_str",
                                      "M_str", "train_values_str",
                                      "omegas_complex", "M_complex",
                                      "A0_imag", "train_values_1d",
                                      "train_values_nan"])
    def test_predict_unreadable_model_exits_3(self, model_file, synth_csv,
                                              tmp_path, capsys, case):
        # a model file of the wrong shape or content is a DataError before
        # the free run, not a traceback or a diverged run
        model = tmp_path / "m.npz"
        name, _, reshape = case.rpartition("_")
        if case == "not_npz":
            model.write_bytes(b"not a model\n" * 100)
        elif case == "format_only":
            np.savez(model, format=np.array(["qpdecomp-model-3"]))
        elif case != "missing":
            arrays = dict(np.load(model_file))
            if reshape in ("0d", "2"):
                # a one-entry array saved 0-d, or a 0-d one with two entries
                value = arrays[name]
                arrays[name] = value[0] if value.ndim else np.repeat(value, 2)
            elif case == "A_row_short":
                arrays["A"] = arrays["A"][:-1]
            elif case == "A_flat":
                arrays["A"] = arrays["A"][:, 0]
            elif case == "epsilon_zero":
                arrays["epsilon"] = np.float64(0.0)
            elif reshape in ("str", "complex"):
                # another dtype kind than save_model writes
                arrays[name] = arrays[name].astype(reshape)
            elif case == "A0_imag":
                assert arrays["omegas"][0] == 0.0
                arrays["A"][0] += 1j
            elif case == "train_values_1d":
                # this case and the next fail in TimeSeries, whose message
                # load_model prefixes with the path
                arrays[name] = arrays[name][:, 0]
            elif case == "train_values_nan":
                arrays[name][5, 0] = np.nan
            else:
                arrays["omegas"][-1] = np.nan
            np.savez(model, **arrays)
        code = run_cli(["predict", "--model", model, "--input", synth_csv[0],
                        "--init-at", "620", "--steps", "20",
                        "--out", tmp_path / "p.csv"])
        assert code == 3
        out, err = capsys.readouterr()
        assert err.startswith("qpdecomp: DataError:") and str(model) in err
        if reshape in ("0d", "2", "str", "complex"):
            assert f"model array {name!r}" in err
        assert err.count("\n") == 1 and not out
        assert not (tmp_path / "p.csv").exists()

    def test_insample_reconstruct_matches_pipeline(self, synth_csv, tmp_path):
        # run and reconstruct write the in-sample table from the model, one
        # way, so reconstruct on run's model writes run's bytes
        out, _ = synth_csv
        outdir = tmp_path / "run"
        assert run_cli(["run", "--input", out, "--outdir", outdir,
                        "--epsilon", "2.0", "--delays", "6",
                        "--num-eigen", "40", "--L0", "8", "--train-end", "600",
                        "--predict-start", "620", "--predict-end", "680"]) == 0
        recon = tmp_path / "recon.csv"
        assert run_cli(["reconstruct", "--model", outdir / "model.npz",
                        "--out", recon]) == 0
        assert recon.read_bytes() == (outdir / "reconstruction.csv").read_bytes()


@pytest.mark.parametrize("where", ["missing_directory", "directory", "empty"])
@pytest.mark.parametrize("command", ["synth", "synth_latent", "frequencies",
                                     "decompose", "predict", "reconstruct"])
def test_unwritable_output_exits_2_before_reading(synth_csv, model_file,
                                                  tmp_path, monkeypatch,
                                                  capsys, command, where):
    # every file output is checked before any input is read, simulated or
    # fitted: one ConfigError line naming the path, exit 2, and no file
    import qpdecomp.decompose
    import qpdecomp.series
    import qpdecomp.spectral
    import qpdecomp.synth

    def unreachable(*args, **kwargs):
        raise AssertionError("an input was read or fitted")

    for module, name in ((qpdecomp.series, "load_csv"),
                         (qpdecomp.decompose, "load_model"),
                         (qpdecomp.spectral, "decompose"),
                         (qpdecomp.synth, "simulate")):
        monkeypatch.setattr(module, name, unreachable)
    if where == "directory":
        target = tmp_path / "taken"
        target.mkdir()
    elif where == "empty":
        target = ""
    else:
        target = tmp_path / "absent" / "x.csv"
    synth = ["synth", "--testbed", "pure_torus_2", "--steps", "10"]
    fit = ["--input", synth_csv[0], *FIT_FLAGS]
    args = {"synth": [*synth, "--out", target],
            "synth_latent": [*synth, "--out", tmp_path / "s.csv",
                             "--latent-out", target],
            "frequencies": ["frequencies", *fit, "--out", target],
            "decompose": ["decompose", *fit, "--model-out", target],
            "predict": ["predict", "--model", model_file, "--input",
                        synth_csv[0], "--init-at", "620", "--steps", "20",
                        "--out", target],
            "reconstruct": ["reconstruct", "--model", model_file,
                            "--out", target]}[command]
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(args) == 2
    out, err = capsys.readouterr()
    assert err.startswith("qpdecomp: ConfigError:") and str(target) in err
    assert err.count("\n") == 1 and not out
    assert sorted(tmp_path.rglob("*")) == before


def test_time_columns_read_the_input_clock(synth_csv, tmp_path):
    # every written time_s column is the input's own clock, t0 + index * dt,
    # while the harmonics keep the clock that counts from the first row: a
    # copy stamped from 1.7e9 s writes the same values at shifted times
    header, *rows = synth_csv[0].read_text().splitlines()
    stamps = [f"{1.7e9 + k:.17g}" for k in range(len(rows))]
    epoch = tmp_path / "epoch.csv"
    epoch.write_text("\n".join(
        [header] + [f"{t},{r.split(',', 1)[1]}"
                    for t, r in zip(stamps, rows)]) + "\n")
    for name, path in (("zero", synth_csv[0]), ("epoch", epoch)):
        outdir = tmp_path / name
        assert run_cli(["run", "--input", path, "--outdir", outdir,
                        "--epsilon", "2.0", "--delays", "6",
                        "--num-eigen", "40", "--L0", "8", "--train-end", "600",
                        "--predict-start", "620", "--predict-end", "680"]) == 0
        assert run_cli(["reconstruct", "--model", outdir / "model.npz",
                        "--out", outdir / "recon.csv"]) == 0
    first_row = {"prediction.csv": 620, "errors.csv": 620, "periodic.csv": 6,
                 "reconstruction.csv": 6, "recon.csv": 6}
    for table, row in first_row.items():
        zero = np.loadtxt(tmp_path / "zero" / table, delimiter=",",
                          skiprows=1)
        shifted = np.loadtxt(tmp_path / "epoch" / table, delimiter=",",
                             skiprows=1)
        assert shifted[0, 0] == float(stamps[row]), table
        np.testing.assert_array_equal(shifted[:, 0], 1.7e9 + zero[:, 0])
        np.testing.assert_array_equal(shifted[:, 1:], zero[:, 1:])


@pytest.fixture(scope="module")
def stamp_rows(tmp_path_factory):
    """Writes the first rows of an 800-sample series, stamped
    ``base + step * k`` in a given format, and returns the file."""
    src = tmp_path_factory.mktemp("stamped") / "torus.csv"
    assert run_cli(["synth", "--testbed", "pure_torus_2", "--steps", "800",
                    "--dt", "1", "--seed", "0", "--out", src]) == 0
    header, *rows = src.read_text().splitlines()

    def write(path, rows_kept, base=1.7e9, step=0.1, fmt=".1f"):
        path.write_text("\n".join(
            [header] + [f"{base + step * k:{fmt}},{r.split(',', 1)[1]}"
                        for k, r in enumerate(rows[:rows_kept])]) + "\n")
        return path

    return write


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
                                                 (600, 0.0)],
                             ids=["epoch-600", "epoch-700", "from_zero-600"])
    def test_error_columns_on_the_same_rule(self, stamp_rows, tmp_path,
                                            train_rows, base):
        # the error columns compare the steps as the input check does; from
        # 0 s the 600-row step is 0.09999999999999999 and the 800-row one 0.1
        assert self.predict(stamp_rows, tmp_path, train_rows,
                            ["--ma-window", "5"], base=base) == 0
        header = (tmp_path / "p.csv").read_text().splitlines()[0]
        assert "err_ch0_ma5" in header

    def test_step_off_by_1e_6_exits_3(self, stamp_rows, tmp_path, capsys):
        code = self.predict(stamp_rows, tmp_path, 200,
                            step=0.1 * (1 + 1e-6), fmt=".7f")
        assert code == 3
        assert "differs from the model's dt" in capsys.readouterr().err


class TestDiagnosticsCommand:
    def test_writes_diagnostic_curves(self, synth_csv, tmp_path):
        out, _ = synth_csv
        outdir = tmp_path / "diag"
        code = run_cli(["diagnostics", "--input", out, "--epsilon", "2.0",
                        "--delays", "6", "--num-eigen", "40", "--L0", "8",
                        "--train-end", "600",
                        "--outdir", outdir])
        assert code == 0
        for name in ("sqdist_histogram.csv", "norm_growth_by_column.csv",
                     "growth_ratio_sorted.csv", "eigenvalues.csv"):
            assert (outdir / name).is_file()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under_file"])
@pytest.mark.parametrize("command", ["diagnostics", "run", "run_config"])
def test_outdir_file_exits_2_before_fitting(synth_csv, tmp_path, monkeypatch,
                                            capsys, command, below):
    # an --outdir (or a config's outdir) that is a file, or lies under one,
    # is one ConfigError line before the kernel is built, and leaves no
    # staging directory
    import qpdecomp.kernel

    def unreachable(*args, **kwargs):
        raise AssertionError("the kernel was built")

    monkeypatch.setattr(qpdecomp.kernel, "gaussian_kernel", unreachable)
    blocker = tmp_path / "taken.csv"
    blocker.write_text("x\n", encoding="utf-8")
    outdir = blocker / below if below else blocker
    fit = ["--input", synth_csv[0], "--epsilon", "2.0", *FIT_FLAGS]
    predict = ["--predict-start", "620", "--predict-end", "680"]
    if command == "run_config":
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"outdir = {outdir}\n", encoding="utf-8")
        args = ["run", "--config", cfg, *fit, *predict]
    else:
        args = [command, *fit, "--outdir", outdir,
                *(predict if command == "run" else [])]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("qpdecomp: ConfigError:") and err.count("\n") == 1
    assert f"{blocker} is not a directory" in err
    assert blocker.read_text(encoding="utf-8") == "x\n"
    assert not list(tmp_path.glob(".*staging*"))


@pytest.mark.parametrize("command", ["diagnostics", "run"])
def test_empty_outdir_exits_2_before_reading(synth_csv, tmp_path, monkeypatch,
                                             capsys, command):
    # an empty --outdir is one ConfigError line, as an empty --out is,
    # before the input is read or the kernel built; nothing is written
    # into the working directory
    import qpdecomp.kernel
    import qpdecomp.series

    def unreachable(*args, **kwargs):
        raise AssertionError("an input was read or fitted")

    monkeypatch.setattr(qpdecomp.series, "load_csv", unreachable)
    monkeypatch.setattr(qpdecomp.kernel, "gaussian_kernel", unreachable)
    monkeypatch.chdir(tmp_path)
    args = [command, "--input", synth_csv[0], "--epsilon", "2.0",
            *FIT_FLAGS, "--outdir", ""]
    if command == "run":
        args += ["--predict-start", "620", "--predict-end", "680"]
    assert run_cli(args) == 2
    assert capsys.readouterr().err == (
        "qpdecomp: ConfigError: --outdir is empty\n")
    assert list(tmp_path.iterdir()) == []


def check_retired_keys(synth_csv, tmp_path, monkeypatch, capsys, retired):
    """A manifest holding each removed key of ``retired`` (key: (old
    default, other value)) at its old default re-runs to the bytes of the
    run that wrote it; at the other value it is one ConfigError line naming
    the key, before fitting, and no output directory."""
    from qpdecomp import pipeline

    out, _ = synth_csv
    first = tmp_path / "first"
    assert run_cli(["run", "--input", out, "--outdir", first,
                    "--delays", "6", "--epsilon", "2.0",
                    "--num-eigen", "40", "--L0", "8",
                    "--train-end", "600", "--predict-start", "620",
                    "--predict-end", "680"]) == 0
    text = (first / "manifest.txt").read_text(encoding="utf-8")
    manifest = tmp_path / "old_manifest.txt"
    manifest.write_text("".join(f"{key} = {old}\n"
                                for key, (old, _) in retired.items())
                        + text, encoding="utf-8")
    second = tmp_path / "second"
    assert run_cli(["run", "--manifest", manifest,
                    "--outdir", second]) == 0
    names = sorted(str(p.relative_to(first)) for p in first.rglob("*")
                   if p.is_file() and p.name != "manifest.txt")
    assert "model.npz" in names
    for name in names:
        assert (second / name).read_bytes() == (first / name).read_bytes()

    def unreachable(*args, **kwargs):
        raise AssertionError("the series was fitted")

    monkeypatch.setattr(pipeline, "fit", unreachable)
    capsys.readouterr()
    for key, (_, value) in retired.items():
        manifest.write_text(f"{key} = {value}\n" + text, encoding="utf-8")
        code = run_cli(["run", "--manifest", manifest,
                        "--outdir", tmp_path / "third"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("qpdecomp: ConfigError:") and key in err
        assert err.count("\n") == 1
        assert not (tmp_path / "third").exists()


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
        code = run_cli(["run", "--config", cfg, "--manifest",
                        tmp_path / "absent" / "manifest.txt",
                        "--outdir", tmp_path / "o"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("qpdecomp: ConfigError:") and err.count("\n") == 1
        assert "--config" in err and "--manifest" in err
        assert not (tmp_path / "o").exists()

    def test_outdir_dot_in_empty_cwd(self, synth_csv, tmp_path):
        # the artifacts are staged beside the absolute outdir; a subprocess,
        # because the rename replaces its working directory
        import os

        import qpdecomp

        work = tmp_path / "work"
        work.mkdir()
        src = str(Path(qpdecomp.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "qpdecomp", "run", "--input", synth_csv[0],
             "--outdir", ".", "--delays", "6", "--epsilon", "2.0",
             "--num-eigen", "40", "--L0", "8", "--train-end", "600",
             "--predict-start", "620", "--predict-end", "680"],
            cwd=work, env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (work / "manifest.txt").is_file()
        assert [p.name for p in tmp_path.iterdir()] == ["work"]

    def test_flag_input_resolves_against_cwd(self, synth_csv, tmp_path,
                                             monkeypatch):
        # a relative input in a config file resolves against the file's
        # directory; the same from a flag resolves against the cwd
        out, _ = synth_csv
        (tmp_path / "data.csv").write_bytes(out.read_bytes())
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "x.conf").write_text(
            "input = absent.csv\ndelays = 6\nepsilon = 2.0\nnum_eigen = 40\n"
            "L0 = 8\ntrain_end = 600\npredict_start = 620\npredict_end = 680\n",
            encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert run_cli(["run", "--config", "sub/x.conf", "--input",
                        "data.csv", "--outdir", "out"]) == 0
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert (f"input = {(tmp_path / 'data.csv').resolve()}"
                in manifest.splitlines())

    def test_channel_name_with_whitespace_rejected(self, synth_csv, tmp_path,
                                                   capsys):
        # the manifest writes the channels as one whitespace-separated line,
        # so a name with a space would run once and not re-run from it
        out, _ = synth_csv
        header, *rows = out.read_text().splitlines()
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("\n".join([header.replace("ch0", "queue 1"), *rows])
                          + "\n", encoding="utf-8")
        code = run_cli(["run", "--input", spaced, "--channels", "queue 1",
                        "--outdir", tmp_path / "o", "--delays", "6",
                        "--epsilon", "2.0", "--num-eigen", "40", "--L0", "8",
                        "--train-end", "600", "--predict-start", "620",
                        "--predict-end", "680"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("qpdecomp: ConfigError:") and "'queue 1'" in err
        assert not (tmp_path / "o").exists()

    def test_removed_solver_keys_rejected(self, synth_csv, tmp_path,
                                          monkeypatch, capsys):
        import qpdecomp.kernel

        def unreachable(*args, **kwargs):
            raise AssertionError("the kernel was built")

        monkeypatch.setattr(qpdecomp.kernel, "gaussian_kernel", unreachable)
        out, _ = synth_csv
        for line in ("solver = dense", "seed = 0", "mode = insample",
                     f"basis_cache = {tmp_path / 'c'}"):
            cfg = tmp_path / "old.conf"
            cfg.write_text(
                f"input = {out}\ndelays = 6\nepsilon = 2.0\nnum_eigen = 40\n"
                f"L0 = 8\npredict_start = 620\npredict_end = 680\n{line}\n",
                encoding="utf-8")
            code = run_cli(["run", "--config", cfg, "--outdir",
                            tmp_path / "o"])
            assert code == 2
            assert "unknown key" in capsys.readouterr().err
        # run writes the in-sample reconstruction; the free run over the
        # training window is `predict --init-at <q+1>` on its model.npz
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--config", cfg, "--mode", "freerun"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists() and not (tmp_path / "c").exists()

    def test_old_manifest_with_solver_and_seed_reruns(self, synth_csv,
                                                       tmp_path):
        out, _ = synth_csv
        first = tmp_path / "first"
        assert run_cli(["run", "--input", out, "--outdir", first,
                        "--delays", "6", "--epsilon", "2.0",
                        "--num-eigen", "40", "--L0", "8",
                        "--train-end", "600", "--predict-start", "620",
                        "--predict-end", "680"]) == 0
        # the eigenbasis cache never changed a result, so a manifest that
        # names a cache directory re-runs without reading or writing it
        cache = tmp_path / "cache"
        manifest = tmp_path / "old_manifest.txt"
        manifest.write_text("solver = arpack\nseed = 0\nmode = freerun\n"
                            f"basis_cache = {cache}\n"
                            + (first / "manifest.txt").read_text(),
                            encoding="utf-8")
        second = tmp_path / "second"
        assert run_cli(["run", "--manifest", manifest,
                        "--outdir", second]) == 0
        names = sorted(str(p.relative_to(first)) for p in first.rglob("*")
                       if p.is_file() and p.name != "manifest.txt")
        assert "model.npz" in names
        for name in names:
            assert (second / name).read_bytes() == (first / name).read_bytes()
        assert not cache.exists()

    def test_removed_max_points_key_rejected(self, synth_csv, tmp_path,
                                             capsys):
        out, _ = synth_csv
        cfg = tmp_path / "old.conf"
        cfg.write_text(
            f"input = {out}\ndelays = 6\nepsilon = 2.0\nnum_eigen = 40\n"
            "L0 = 8\npredict_start = 620\npredict_end = 680\n"
            "max_points = 25000\n", encoding="utf-8")
        code = run_cli(["run", "--config", cfg, "--outdir", tmp_path / "o"])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            run_cli(["run", "--config", cfg, "--max-points", "100"])

    def test_old_manifest_with_max_points_reruns(self, synth_csv, tmp_path):
        out, _ = synth_csv
        first = tmp_path / "first"
        assert run_cli(["run", "--input", out, "--outdir", first,
                        "--delays", "6", "--epsilon", "2.0",
                        "--num-eigen", "40", "--L0", "8",
                        "--train-end", "600", "--predict-start", "620",
                        "--predict-end", "680"]) == 0
        manifest = tmp_path / "old_manifest.txt"
        manifest.write_text("max_points = 25000\n"
                            + (first / "manifest.txt").read_text(),
                            encoding="utf-8")
        second = tmp_path / "second"
        assert run_cli(["run", "--manifest", manifest,
                        "--outdir", second]) == 0
        assert ((second / "frequencies.csv").read_bytes()
                == (first / "frequencies.csv").read_bytes())

    def test_removed_merge_and_clip_flags_rejected(self, synth_csv,
                                                   tmp_path):
        out, _ = synth_csv
        cache = tmp_path / "c"
        for argv in (["run", "--merge-adjacent"],
                     ["frequencies", "--merge-adjacent", "--out", "f.csv"],
                     ["decompose", "--merge-adjacent", "--model-out", "m.npz"],
                     ["diagnostics", "--merge-adjacent", "--outdir", "d"],
                     ["run", "--clip-factor", "1.5"],
                     ["predict", "--clip-factor", "1.5", "--model", "m.npz",
                      "--init-at", "620", "--steps", "5", "--out", "p.csv"],
                     ["run", "--basis-cache", cache],
                     ["frequencies", "--basis-cache", cache, "--out", "f.csv"],
                     ["decompose", "--basis-cache", cache,
                      "--model-out", "m.npz"],
                     ["diagnostics", "--basis-cache", cache, "--outdir", "d"]):
            with pytest.raises(SystemExit) as exc:
                run_cli([*argv, "--input", out])
            assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_old_manifest_with_merge_and_clip_keys(self, synth_csv, tmp_path,
                                                   monkeypatch, capsys):
        # manifests written before merge_adjacent and clip_factor were
        # removed hold both at their defaults, and re-run to the same bytes;
        # any other value is a ConfigError naming the key, before fitting
        check_retired_keys(synth_csv, tmp_path, monkeypatch, capsys,
                           {"merge_adjacent": ("false", "true"),
                            "clip_factor": ("0.0", "1.5")})

    @pytest.mark.parametrize("command, target", [
        ("run", []), ("frequencies", ["--out", "f.csv"]),
        ("decompose", ["--model-out", "m.npz"]),
        ("diagnostics", ["--outdir", "d"]),
        ("predict", ["--model", "m.npz", "--init-at", "620", "--steps", "5",
                     "--out", "p.csv"]),
    ])
    def test_removed_ingestion_flags_rejected(self, synth_csv, tmp_path,
                                              command, target):
        out, _ = synth_csv
        for flag in (["--standardize"], ["--resample-method", "hold"]):
            with pytest.raises(SystemExit) as exc:
                run_cli([command, *flag, "--input", out, *target])
            assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_channel_named_twice_exits_2(self, synth_csv, tmp_path, capsys):
        out, _ = synth_csv
        code = run_cli(["frequencies", "--input", out, "--channels", "ch0",
                        "ch0", *FIT_FLAGS, "--out", tmp_path / "f.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("qpdecomp: ConfigError:") and "twice" in err
        assert not (tmp_path / "f.csv").exists()

    def test_old_manifest_with_standardize_and_resample_keys(
            self, synth_csv, tmp_path, monkeypatch, capsys):
        # manifests written before standardize and resample_method were
        # removed hold both at their defaults, as merge_adjacent above
        check_retired_keys(synth_csv, tmp_path, monkeypatch, capsys,
                           {"standardize": ("false", "true"),
                            "resample_method": ("hold", "linear")})

    @pytest.mark.parametrize("command, target", [
        ("frequencies", ["--out", "f.csv"]),
        ("decompose", ["--model-out", "m.npz"]),
        ("diagnostics", ["--outdir", "diag"]),
    ])
    def test_byte_budget_exit_code(self, synth_csv, tmp_path, monkeypatch,
                                   capsys, command, target):
        import qpdecomp.spectral

        monkeypatch.setattr(qpdecomp.spectral, "_available_bytes",
                            lambda: 1_000_000)
        out, _ = synth_csv
        code = run_cli([command, "--input", out, "--epsilon", "2.0",
                        "--delays", "6", "--num-eigen", "40", "--L0", "8",
                        "--train-end", "600",
                        *[tmp_path / t if t.endswith(("csv", "npz", "diag"))
                          else t for t in target]])
        assert code == 3
        err = capsys.readouterr().err
        assert "DataError" in err and "MB of memory is available" in err

    def test_exit_codes(self, synth_csv, tmp_path, capsys):
        out, _ = synth_csv
        # config error: bad threshold relation
        code = run_cli(["run", "--input", out, "--outdir", tmp_path / "o1",
                        "--epsilon", "2.0", "--num-eigen", "10", "--L0", "50"])
        assert code == 2
        # data error: missing input
        code = run_cli(["run", "--input", tmp_path / "absent.csv",
                        "--outdir", tmp_path / "o2", "--epsilon", "2.0",
                        "--num-eigen", "40", "--L0", "8",
                        "--predict-start", "30", "--predict-end", "40"])
        assert code == 3
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
        for init_at, steps, ma_window in ((620, 0, 0), (620, -5, 0),
                                          (620, 5, -1), (690, 50, -1)):
            code = run_cli(["predict", "--model", tmp_path / "absent.npz",
                            "--input", out, "--init-at", init_at,
                            "--steps", steps, "--ma-window", ma_window,
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
    @pytest.mark.parametrize("command", ["run", "frequencies", "decompose",
                                         "diagnostics"])
    def test_config_errors_exit_2_before_fitting(self, synth_csv, tmp_path,
                                                  monkeypatch, capsys,
                                                  command, case):
        # every fitting command validates the same keys the same way, and
        # does so before it builds the kernel
        import qpdecomp.kernel

        def unreachable(*args, **kwargs):
            raise AssertionError("the kernel was built")

        monkeypatch.setattr(qpdecomp.kernel, "gaussian_kernel", unreachable)
        target = {"run": ["--outdir", tmp_path / "o", "--predict-start", "620",
                          "--predict-end", "680"],
                  "frequencies": ["--out", tmp_path / "f.csv"],
                  "decompose": ["--model-out", tmp_path / "m.npz"],
                  "diagnostics": ["--outdir", tmp_path / "diag"]}[command]
        code = run_cli([command, "--input", synth_csv[0], "--epsilon", "2.0",
                        "--delays", "6", "--num-eigen", "40", "--L0", "8",
                        "--train-end", "600", *case, *target])
        assert code == 2
        assert capsys.readouterr().err.startswith("qpdecomp: ConfigError:")

    @pytest.mark.parametrize("command, flag, target, artifacts", [
        ("frequencies", "--out", "f.csv", {"f.csv": "frequencies.csv"}),
        ("decompose", "--model-out", "m.npz", {"m.npz": "model.npz"}),
        ("diagnostics", "--outdir", "diag",
         {f"diag/{name}": f"diagnostics/{name}"
          for name in ("sqdist_histogram.csv", "norm_growth_by_column.csv",
                       "growth_ratio_sorted.csv", "eigenvalues.csv")}),
    ], ids=["frequencies", "decompose", "diagnostics"])
    def test_subcommands_run_without_epsilon(self, synth_csv, derived_run,
                                             tmp_path, command, flag, target,
                                             artifacts):
        # without --epsilon a subcommand derives the bandwidth as run does,
        # and writes run's bytes
        assert run_cli([command, "--input", synth_csv[0], *FIT_FLAGS,
                        flag, tmp_path / target]) == 0
        for mine, theirs in artifacts.items():
            assert ((tmp_path / mine).read_bytes()
                    == (derived_run / theirs).read_bytes()), mine

    def test_run_without_epsilon_records_it_in_the_manifest(
            self, synth_csv, derived_run, tmp_path):
        # the manifest holds the 1% quantile of the training window's squared
        # delay distances, and re-runs with it explicitly to the same bytes
        from qpdecomp.kernel import pairwise_sqdist
        from qpdecomp.series import delay_embed, window

        emb = delay_embed(window(load_csv(synth_csv[0]), 0, 600), 6)
        d2 = pairwise_sqdist(emb)
        eps = float(np.quantile(d2[np.triu_indices(len(d2), 1)], 0.01))
        manifest = (derived_run / "manifest.txt").read_text().splitlines()
        assert f"epsilon = {eps!r}" in manifest
        rerun = tmp_path / "rerun"
        assert run_cli(["run", "--manifest", derived_run / "manifest.txt",
                        "--outdir", rerun]) == 0
        names = sorted(str(p.relative_to(derived_run))
                       for p in derived_run.rglob("*")
                       if p.suffix in (".csv", ".npz"))
        assert len(names) == 10
        for name in names:
            assert ((rerun / name).read_bytes()
                    == (derived_run / name).read_bytes()), name

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
        out = tmp_path / "f.csv"
        assert run_cli(["frequencies", "--input", flat, *FIT_FLAGS,
                        "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("qpdecomp: DataError:") and err.count("\n") == 1
        assert "1% quantile" in err and "--epsilon" in err
        assert not out.exists()
        assert run_cli(["frequencies", "--input", flat, *FIT_FLAGS,
                        "--epsilon", "8", "--out", out]) == 0
        assert out.is_file()

    @pytest.mark.parametrize("gapped", [False, True], ids=["clean", "gapped"])
    def test_subcommands_match_run(self, synth_csv, tmp_path, capsys, gapped):
        # the same flags give the same bytes from a single-step command as
        # from `run`; the gapped input drops a 16 s stretch, which only
        # resampling with a wider gap allowance accepts
        src, resample = synth_csv[0], []
        if gapped:
            header, *rows = src.read_text().splitlines()
            src = tmp_path / "gapped.csv"
            src.write_text("\n".join([header] + rows[:301] + rows[316:])
                           + "\n")
            resample = ["--dt-seconds", "1", "--max-gap-factor", "20"]
        flags = ["--input", src, "--epsilon", "2.0", "--delays", "6",
                 "--num-eigen", "40", "--L0", "8", "--train-end", "600",
                 *resample]
        if gapped:
            # at the default allowance of 10 steps both refuse the gap
            for command, target in (("run", ["--outdir", tmp_path / "r",
                                             "--predict-start", "620",
                                             "--predict-end", "680"]),
                                    ("frequencies", ["--out",
                                                     tmp_path / "r.csv"])):
                assert run_cli([command, *flags[:-2], *target]) == 3
                assert "gap" in capsys.readouterr().err
        ref = tmp_path / "run"
        assert run_cli(["run", *flags, "--outdir", ref, "--predict-start",
                        "620", "--predict-end", "680"]) == 0

        assert run_cli(["frequencies", *flags,
                        "--out", tmp_path / "f.csv"]) == 0
        assert ((tmp_path / "f.csv").read_bytes()
                == (ref / "frequencies.csv").read_bytes())
        assert run_cli(["diagnostics", *flags,
                        "--outdir", tmp_path / "diag"]) == 0
        for name in ("sqdist_histogram.csv", "norm_growth_by_column.csv",
                     "growth_ratio_sorted.csv", "eigenvalues.csv"):
            assert ((tmp_path / "diag" / name).read_bytes()
                    == (ref / "diagnostics" / name).read_bytes()), name
        assert run_cli(["decompose", *flags,
                        "--model-out", tmp_path / "m.npz"]) == 0
        assert ((tmp_path / "m.npz").read_bytes()
                == (ref / "model.npz").read_bytes())
        assert run_cli(["predict", "--model", tmp_path / "m.npz",
                        *flags[:2], *resample, "--init-at", "620",
                        "--steps", "60", "--out", tmp_path / "p.csv"]) == 0
        assert ((tmp_path / "p.csv").read_bytes()
                == (ref / "prediction.csv").read_bytes())


def test_module_invocation_smoke(tmp_path):
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qpdecomp", "synth", "--testbed",
         "pure_torus_2", "--steps", "50", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.is_file()

