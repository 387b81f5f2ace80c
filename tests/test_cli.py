import subprocess
import sys

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
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("qpdecomp: DataError:")
        assert err.count("\n") == 1

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
        for mode in ("insample", "freerun"):
            out = tmp_path / f"recon_{mode}.csv"
            assert run_cli(["reconstruct", "--model", model_file,
                            "--mode", mode, "--out", out]) == 0
            lines = out.read_text().splitlines()
            assert lines[0].startswith("time_s,truth_")
            assert len(lines) > 500

    def test_insample_reconstruction_is_close(self, model_file, synth_csv, tmp_path):
        out, _ = synth_csv
        recon = tmp_path / "recon.csv"
        run_cli(["reconstruct", "--model", model_file, "--mode", "insample",
                 "--out", recon])
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

    def test_insample_reconstruct_matches_pipeline(self, synth_csv, tmp_path):
        # the saved model's extension at the training points reproduces the
        # pipeline's Phi @ E reconstruction
        out, _ = synth_csv
        outdir = tmp_path / "run"
        assert run_cli(["run", "--input", out, "--outdir", outdir,
                        "--epsilon", "2.0", "--delays", "6",
                        "--num-eigen", "40", "--L0", "8", "--train-end", "600",
                        "--predict-start", "620", "--predict-end", "680",
                        "--mode", "insample"]) == 0
        recon = tmp_path / "recon.csv"
        assert run_cli(["reconstruct", "--model", outdir / "model.npz",
                        "--mode", "insample", "--out", recon]) == 0
        ref = np.loadtxt(outdir / "reconstruction.csv", delimiter=",",
                         skiprows=1)
        got = np.loadtxt(recon, delimiter=",", skiprows=1)
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got[:, :4], ref[:, :4])
        scale = np.abs(ref[:, 1:4]).max()
        assert np.abs(got[:, 4:] - ref[:, 4:]).max() <= 1e-8 * scale


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

    def test_removed_solver_keys_rejected(self, synth_csv, tmp_path, capsys):
        out, _ = synth_csv
        for line in ("solver = dense", "seed = 0"):
            cfg = tmp_path / "old.conf"
            cfg.write_text(
                f"input = {out}\ndelays = 6\nepsilon = 2.0\nnum_eigen = 40\n"
                f"L0 = 8\npredict_start = 620\npredict_end = 680\n{line}\n",
                encoding="utf-8")
            code = run_cli(["run", "--config", cfg, "--outdir",
                            tmp_path / "o"])
            assert code == 2
            assert "unknown key" in capsys.readouterr().err

    def test_old_manifest_with_solver_and_seed_reruns(self, synth_csv,
                                                       tmp_path):
        out, _ = synth_csv
        first = tmp_path / "first"
        assert run_cli(["run", "--input", out, "--outdir", first,
                        "--delays", "6", "--epsilon", "2.0",
                        "--num-eigen", "40", "--L0", "8",
                        "--train-end", "600", "--predict-start", "620",
                        "--predict-end", "680"]) == 0
        manifest = tmp_path / "old_manifest.txt"
        manifest.write_text("solver = arpack\nseed = 0\n"
                            + (first / "manifest.txt").read_text(),
                            encoding="utf-8")
        second = tmp_path / "second"
        assert run_cli(["run", "--manifest", manifest,
                        "--outdir", second]) == 0
        assert ((second / "frequencies.csv").read_bytes()
                == (first / "frequencies.csv").read_bytes())

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

    @pytest.mark.parametrize("command, target", [
        ("frequencies", ["--out", "f.csv"]),
        ("decompose", ["--model-out", "m.npz"]),
        ("diagnostics", ["--outdir", "diag"]),
    ])
    def test_byte_budget_exit_code(self, synth_csv, tmp_path, monkeypatch,
                                   capsys, command, target):
        import qpdecomp.kernel

        monkeypatch.setattr(qpdecomp.kernel, "_available_bytes",
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

    @pytest.mark.parametrize("case", [
        ["--num-eigen", "10", "--L0", "50"],
        ["--delays", "-1"],
        ["--epsilon", "-2"],
        ["--epsilon", "0"],
    ], ids=["L0_above_num_eigen", "negative_delays", "negative_epsilon",
            "zero_epsilon"])
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

    @pytest.mark.parametrize("command", ["frequencies", "decompose",
                                         "diagnostics"])
    def test_epsilon_required_by_subcommands(self, synth_csv, tmp_path,
                                             capsys, command):
        code = run_cli([command, "--input", synth_csv[0],
                        {"frequencies": "--out", "decompose": "--model-out",
                         "diagnostics": "--outdir"}[command], tmp_path / "x"])
        assert code == 2
        assert "epsilon is required" in capsys.readouterr().err

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


def test_thread_env_applied(monkeypatch):
    import os

    from qpdecomp.cli import _apply_thread_env

    monkeypatch.setenv("QPDECOMP_THREADS", "2")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    _apply_thread_env()
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
