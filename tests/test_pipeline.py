import dataclasses
import re

import numpy as np
import pytest

import qpdecomp.decompose as dc
from qpdecomp import ConfigError, DataError, kernel, run_pipeline
from qpdecomp.freqfilter import FrequencySelection, log_growth
from qpdecomp.kernel import gaussian_kernel
from qpdecomp.pipeline import (
    CONFIG_KEYS,
    PipelineConfig,
    build_config,
    config_lines,
    fit,
    format_period,
    load_config,
    report_periods,
    write_frequencies,
)
from qpdecomp.series import delay_embed, load_csv, window, write_csv
from qpdecomp.spectral import decompose
from qpdecomp.synth import simulate, standard_testbed

from conftest import pair_quantile

TWO_PI = 2 * np.pi

SMOKE = dict(
    dt_seconds=0.0,
    delays=6,
    epsilon=None,          # filled per-input below
    num_eigen=40,
    eps1=0.1,
    eps2=2.5,
    L0=8,
    train_end=600,
    predict_start=620,
    predict_end=700,
    ma_windows=(1, 10),
)


@pytest.fixture(scope="module")
def smoke_input(tmp_path_factory):
    root = tmp_path_factory.mktemp("smoke")
    res = simulate(standard_testbed("pure_torus_2"), 800, 1.0, seed=0)
    path = root / "input.csv"
    write_csv(res.series, path)
    return path


def smoke_config(smoke_input, outdir, **extra):
    values = dict(SMOKE)
    values.update(input=str(smoke_input), outdir=str(outdir))
    data = load_csv(smoke_input)
    emb = delay_embed(window(data, 0, values["train_end"]), values["delays"])
    values["epsilon"] = pair_quantile(emb, 0.02)
    values.update(extra)
    return build_config(values)


ARTIFACTS = ["frequencies.csv", "reconstruction.csv", "prediction.csv",
             "model.npz", "manifest.txt",
             "diagnostics/sqdist_histogram.csv",
             "diagnostics/norm_growth_by_column.csv",
             "diagnostics/growth_ratio_sorted.csv",
             "diagnostics/eigenvalues.csv"]


def artifact_bytes(outdir):
    blob = {}
    for rel in ARTIFACTS:
        data = (outdir / rel).read_bytes()
        if rel == "manifest.txt":
            data = b"\n".join(
                ln for ln in data.splitlines()
                if not ln.startswith(b"created_utc") and not ln.startswith(b"outdir")
            )
        blob[rel] = data
    return blob


class TestRunPipeline:
    def test_full_artifact_set_and_determinism(self, smoke_input, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        run_pipeline(smoke_config(smoke_input, out1))
        run_pipeline(smoke_config(smoke_input, out2))
        written = sorted(str(p.relative_to(out1)) for p in out1.rglob("*")
                         if p.is_file())
        assert written == sorted(ARTIFACTS)
        # E rotates with the BLAS's rounding inside near-equal eigenvalue
        # pairs, so it is no artifact
        assert not (out1 / "chaotic_coeffs.csv").exists()
        a, b = artifact_bytes(out1), artifact_bytes(out2)
        for rel in ARTIFACTS:
            assert a[rel] == b[rel], f"{rel} differs between identical runs"

    def test_manifest_hashes_match_artifacts(self, smoke_input, tmp_path):
        import hashlib
        out = tmp_path / "run"
        run_pipeline(smoke_config(smoke_input, out))
        manifest = (out / "manifest.txt").read_text()
        hashes = dict(re.findall(r"artifact_sha256 (\S+) = ([0-9a-f]{64})", manifest))
        assert set(hashes) == {a for a in ARTIFACTS if a != "manifest.txt"}
        for rel, digest in hashes.items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest

    def test_manifest_round_trip(self, smoke_input, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        run_pipeline(smoke_config(smoke_input, out1))
        config = load_config(out1 / "manifest.txt", manifest=True)
        config = build_config({**{f: getattr(config, f) for f in
                                  config.__dataclass_fields__},
                               "outdir": str(out2)})
        run_pipeline(config)
        a, b = artifact_bytes(out1), artifact_bytes(out2)
        for rel in ARTIFACTS:
            assert a[rel] == b[rel]

    def test_missing_input_leaves_no_artifacts(self, tmp_path):
        # nor the missing parents of outdir, which were made for it
        config = build_config(dict(SMOKE, epsilon=1.0,
                                   input=str(tmp_path / "absent.csv"),
                                   outdir=str(tmp_path / "x" / "y" / "z")))
        with pytest.raises(DataError, match="absent.csv: cannot read"):
            run_pipeline(config)
        assert list(tmp_path.iterdir()) == []

    def test_stale_lock_file_is_not_empty(self, smoke_input, tmp_path,
                                          monkeypatch):
        # earlier versions kept a .lock in the output directory; it is
        # refused before the fit starts
        import qpdecomp.kernel

        def unreachable(*args, **kwargs):
            raise AssertionError("the kernel was built")

        monkeypatch.setattr(qpdecomp.kernel, "gaussian_kernel", unreachable)
        outdir = tmp_path / "run"
        outdir.mkdir()
        (outdir / ".lock").touch()
        with pytest.raises(ConfigError, match="not empty"):
            run_pipeline(smoke_config(smoke_input, outdir))
        assert [p.name for p in outdir.iterdir()] == [".lock"]

    def test_nonempty_outdir_rejected(self, smoke_input, tmp_path):
        outdir = tmp_path / "run"
        outdir.mkdir()
        (outdir / "stale.csv").touch()
        with pytest.raises(ConfigError, match="not empty"):
            run_pipeline(smoke_config(smoke_input, outdir))

    @pytest.mark.parametrize("existed", [False, True], ids=["absent", "empty"])
    def test_late_failure_leaves_outdir_as_it_was(self, smoke_input, tmp_path,
                                                  monkeypatch, existed):
        import qpdecomp.decompose

        def full_disk(model, path):
            raise OSError("no space left on device")

        monkeypatch.setattr(qpdecomp.decompose, "save_model", full_disk)
        outdir = tmp_path / "run"
        if existed:
            outdir.mkdir()
        with pytest.raises(OSError, match="no space"):
            run_pipeline(smoke_config(smoke_input, outdir))
        assert [p.name for p in tmp_path.iterdir()] == (["run"] if existed
                                                        else [])
        if existed:
            assert list(outdir.iterdir()) == []

    def test_file_written_into_outdir_during_run(self, smoke_input, tmp_path,
                                                 monkeypatch, capsys):
        # the staged directory cannot replace a directory that is no longer
        # empty: the run fails and leaves the other writer's file alone
        from qpdecomp import pipeline
        from qpdecomp.cli import main

        outdir = tmp_path / "run"
        cfg = tmp_path / "run.conf"
        cfg.write_text("\n".join(config_lines(
            smoke_config(smoke_input, outdir))) + "\n", encoding="utf-8")
        write_diagnostics = pipeline.write_diagnostics

        def intruder(path, result):
            write_diagnostics(path, result)
            outdir.mkdir()
            (outdir / "theirs.txt").write_text("foreign", encoding="utf-8")

        monkeypatch.setattr(pipeline, "write_diagnostics", intruder)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qpdecomp: ConfigError:") and "not empty" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run",
                                                              "run.conf"]
        assert [p.name for p in outdir.iterdir()] == ["theirs.txt"]
        assert (outdir / "theirs.txt").read_text(encoding="utf-8") == "foreign"

    def test_csv_floats_round_trip_exactly(self, smoke_input, tmp_path):
        out = tmp_path / "run"
        run_pipeline(smoke_config(smoke_input, out))
        from qpdecomp.series import load_csv
        pred = (out / "prediction.csv").read_text().splitlines()
        header = pred[0].split(",")
        first = dict(zip(header, pred[1].split(",")))
        data = load_csv(smoke_input)
        ps = SMOKE["predict_start"]
        assert float(first["time_s"]) == ps * 1.0
        truth_cols = [h for h in header if h.startswith("truth_")]
        for j, h in enumerate(truth_cols):
            assert float(first[h]) == data.values[ps, j]

    def test_one_table_per_window(self, smoke_input, tmp_path):
        # reconstruction.csv carries the fitted periodic part after the
        # reconstruction, and prediction.csv the moving averages of the
        # relative error after the prediction, window by window
        from qpdecomp.decompose import evaluate_harmonics, moving_average

        out = tmp_path / "run"
        result = run_pipeline(smoke_config(smoke_input, out))
        names = result.data.channel_names
        recon = np.loadtxt(out / "reconstruction.csv", delimiter=",",
                           skiprows=1)
        assert (out / "reconstruction.csv").read_text().splitlines()[0] == \
            ",".join(["time_s", *(f"{kind}_{c}" for kind in
                                  ("truth", "recon", "per") for c in names)])
        k = len(names)
        # the fitted periodic part: the harmonics at the fit rows' offsets
        # from the first, which the model's residual is the rows less
        model = result.model
        fitted = evaluate_harmonics(model.A, model.omegas, 0.0, model.dt,
                                    model.n)
        np.testing.assert_array_equal(recon[:, 1 + 2 * k:], fitted)
        q = result.train.n - model.n
        np.testing.assert_array_equal(model.residual.values,
                                      result.train.values[q:] - fitted)
        pred = np.loadtxt(out / "prediction.csv", delimiter=",", skiprows=1)
        header = (out / "prediction.csv").read_text().splitlines()[0]
        assert header.split(",")[1 + 2 * k:] == [
            f"err_{c}_ma{w}" for w in SMOKE["ma_windows"] for c in names]
        truth, est = pred[:, 1:1 + k], pred[:, 1 + k:1 + 2 * k]
        err = np.abs(truth - est) / np.abs(truth).max(axis=0)
        want = [moving_average(err[:, j], w) for w in SMOKE["ma_windows"]
                for j in range(k)]
        np.testing.assert_array_equal(pred[:, 1 + 2 * k:], np.array(want).T)
        assert not (out / "periodic.csv").exists()
        assert not (out / "errors.csv").exists()

    def test_no_error_columns_by_default(self, smoke_input, tmp_path):
        out = tmp_path / "run"
        run_pipeline(smoke_config(smoke_input, out,
                                  ma_windows=PipelineConfig.ma_windows))
        header = (out / "prediction.csv").read_text().splitlines()[0]
        assert header == "time_s," + ",".join(
            f"{kind}_ch{j}" for kind in ("truth", "pred") for j in range(3))
        assert "ma_windows = " in (out / "manifest.txt").read_text() \
            .splitlines()

    def test_growth_column_is_the_log_growth_of_the_kept_bins(
            self, smoke_input, tmp_path):
        config = smoke_config(smoke_input, tmp_path / "run")
        result = fit(config)
        write_frequencies(tmp_path / "f.csv", result)
        rows = (tmp_path / "f.csv").read_text().splitlines()
        assert rows[0].split(",")[-1] == "growth"
        got = np.array([float(r.split(",")[-1]) for r in rows[1:]])
        want = log_growth(result.table, config.L0)[result.selection.indices]
        assert got.tobytes() == want.tobytes()

    def test_case_study_shaped_config_validates(self, tmp_path):
        # the corridor protocol: 2-minute grid, train on the first 20000
        # snapshots, predict over [22000, 26000)
        config = build_config(dict(
            input=str(tmp_path / "corridor.csv"), outdir=str(tmp_path / "out"),
            dt_seconds=120.0, delays=20, epsilon=0.1, num_eigen=1001,
            eps1=0.1, eps2=2.5, L0=100, train_end=20000,
            predict_start=22000, predict_end=26000, ma_windows=(1, 10, 100),
        ))
        assert config.train_end == 20000
        assert (config.predict_start, config.predict_end) == (22000, 26000)
        assert config.num_eigen == 1001 and config.epsilon == 0.1


@pytest.mark.parametrize("delays", [6, 1])
def test_reconstruction_takes_the_windows_predict_does(smoke_input, tmp_path,
                                                      delays):
    # each recon row is g_per plus g_chaos of the window before its sample,
    # from residual_windows, which gives predict its first window, bit for
    # bit; at 1 delay the rows start past q, at CHAOS_DELAYS + 1
    from qpdecomp import decompose as dc
    from qpdecomp.pipeline import write_reconstruction

    result = fit(smoke_config(smoke_input, tmp_path / "unused",
                              delays=delays))
    model, train = result.model, result.train
    path = tmp_path / "reconstruction.csv"
    write_reconstruction(path, model, train)
    q = train.n - model.n
    first = max(q, dc.CHAOS_DELAYS + 1)
    per = dc.eval_periodic(model, model.residual.t0, model.n)[first - q:]
    windows = dc.residual_windows(model, train, first, train.n)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    k = model.k
    assert len(rows) == train.n - first
    np.testing.assert_array_equal(rows[:, 1 + k:1 + 2 * k],
                                  per + dc.eval_chaotic(model, windows))
    np.testing.assert_array_equal(rows[:, 1 + 2 * k:], per)


def test_library_default_is_runs_reference_set(tmp_path):
    # 2406 samples at 6 delays give N = 2400 rows, past the cap of 2048:
    # run's default and the library's both take every second delay vector
    path = tmp_path / "torus.csv"
    write_csv(simulate(standard_testbed("pure_torus_2"), 2406, 1.0).series,
              path)
    config = build_config(dict(input=str(path), delays=6, num_eigen=40, L0=8))
    want = fit(config).basis
    emb = delay_embed(load_csv(path), 6)
    got = decompose(emb, 0, 40)
    assert got.reference_points == want.reference_points == 1200
    assert np.array_equal(got.lam, want.lam)
    assert np.array_equal(got.Phi, want.Phi)
    assert got.epsilon == want.epsilon
    for part, oracle in zip(got.sqdist_histogram, want.sqdist_histogram):
        assert np.array_equal(part, oracle)
    n = emb.n_points
    assert gaussian_kernel(emb)[0].shape == (
        n, -(-n // -(-n // kernel.REFERENCE_CAP)))


def test_each_cap_moves_only_its_own_subsample(tmp_path, monkeypatch):
    # 4096 samples at 20 delays give 4076 rows, past both caps of 2048: the
    # kernel keeps every second delay vector (2038) and the map every
    # second of the 4073 residual windows that have a successor (2037)
    path = tmp_path / "logistic.csv"
    write_csv(simulate(standard_testbed("torus_plus_logistic"), 4096,
                       1.0).series, path)
    config = build_config(dict(input=str(path), num_eigen=40, L0=5))
    default = fit(config)
    assert default.basis.reference_points == 2038
    assert (default.model.stride, len(default.model.windows)) == (2, 2037)
    dc.save_model(default.model, tmp_path / "model.npz")
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "REFERENCE_CAP", 1024)
        got = fit(config)
        assert got.basis.reference_points == 1019
        assert (got.model.stride, len(got.model.windows)) == (2, 2037)
        # a model saved under the default cap loads onto the same windows
        back = dc.load_model(tmp_path / "model.npz")
        assert np.array_equal(back.windows, default.model.windows)
    with monkeypatch.context() as patch:
        patch.setattr(dc, "WINDOW_CAP", 1024)
        got = fit(config)
        assert got.basis.reference_points == 2038
        assert (got.model.stride, len(got.model.windows)) == (4, 1019)


@pytest.mark.parametrize("num_eigen", [595, 99999])
def test_num_eigen_is_checked_before_the_kernel(smoke_input, tmp_path,
                                                 monkeypatch, num_eigen):
    # 600 training rows embed to 594 points; more eigenpairs than points is
    # a DataError before anything N x N is allocated
    import qpdecomp.kernel
    from qpdecomp.pipeline import fit

    def unreachable(*args, **kwargs):
        raise AssertionError("the kernel was built")

    config = smoke_config(smoke_input, tmp_path / "run", num_eigen=num_eigen)
    monkeypatch.setattr(qpdecomp.kernel, "gaussian_kernel", unreachable)
    with pytest.raises(DataError, match=rf"L={num_eigen} out of range 1\.\.594"):
        fit(config)


def test_fit_holds_no_n_by_n_array(smoke_input, tmp_path):
    # the kernel and the Gram matrix live only inside spectral.decompose:
    # what a Fit keeps is O(N) by O(L), O(k) or O(q k)
    import tracemalloc

    import scipy.linalg  # noqa: F401  (its import would count as held)
    import scipy.linalg.blas  # noqa: F401

    from qpdecomp.pipeline import fit

    config = smoke_config(smoke_input, tmp_path / "run")
    tracemalloc.start()
    try:
        result = fit(config)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n = result.basis.n
    assert n == 594
    assert held < 0.5 * n * n * 8, f"held {held / (n * n * 8):.2f} N^2"


def test_run_peak_allocation_is_two_buffers(tmp_path):
    # the run's N x N arrays are Ktilde plus the eigensolve's Gram matrix
    import tracemalloc

    import scipy.linalg  # noqa: F401  (its import would count in the peak)

    from qpdecomp.series import TimeSeries, delay_embed

    n, q = 1500, 3
    t = np.arange(n + q + 120)[:, None]
    values = np.hstack([np.cos(TWO_PI * 200 / n * t + 0.4),
                        np.sin(TWO_PI * 321 / n * t + 1.9)])
    values = values @ np.random.default_rng(7).standard_normal((2, 3))
    path = tmp_path / "input.csv"
    write_csv(TimeSeries(values, dt=1.0), path)
    emb = delay_embed(TimeSeries(values[:n + q], dt=1.0), q)
    config = build_config(dict(
        input=str(path), outdir=str(tmp_path / "run"), delays=q,
        epsilon=0.02 * pair_quantile(emb, 0.5),
        num_eigen=40, L0=10,
        train_end=n + q, predict_start=n + q + 10, predict_end=n + q + 110))
    tracemalloc.start()
    try:
        run_pipeline(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * n * 8, f"peak {peak / (n * n * 8):.2f} N^2"


class TestConfigParsing:
    def test_file_round_trip_and_overrides(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text(
            "# smoke configuration\n"
            "input = data.csv\n"
            "outdir = out\n"
            "delays = 4\n"
            "epsilon = 0.5\n"
            "num_eigen = 20\n"
            "L0 = 5\n"
            "predict_start = 30\n"
            "predict_end = 50\n"
            "ma_windows = 1 5 25\n",
            encoding="utf-8",
        )
        (tmp_path / "data.csv").write_text("time,a\n0,1\n1,2\n")
        config = load_config(cfg)
        assert config.delays == 4
        assert config.ma_windows == (1, 5, 25)
        assert config.input == str(tmp_path / "data.csv")
        over = load_config(cfg, overrides={"delays": 9, "epsilon": 2.0})
        assert over.delays == 9 and over.epsilon == 2.0

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("inpux = a.csv\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(cfg)

    def test_validation_errors(self, tmp_path):
        base = dict(input="a.csv", outdir=str(tmp_path / "out"),
                    predict_start=30, predict_end=40)
        bad = [dict(epsilon=-1), dict(num_eigen=0), dict(L0=1),
               dict(L0=500), dict(ma_windows=(0,)), dict(dt_seconds=-1),
               dict(max_gap_factor=0), dict(ma_windows=(10, 10))]
        # NaN fails every float check
        bad += [{key: "nan"} for key in ("dt_seconds", "max_gap_factor",
                                         "epsilon", "eps1", "eps2")]
        for extra in bad:
            with pytest.raises(ConfigError):
                build_config({**base, **extra})
        # only a full run reads the predict window: run_pipeline checks it
        # before it touches the output directory.  Neither end set is no
        # window; one end alone is an error
        run_only = [dict(predict_start=5, predict_end=4),
                    dict(predict_start=0), dict(predict_end=0),
                    dict(predict_start=2, predict_end=50, delays=20)]
        for extra in run_only:
            config = build_config({**base, **extra})
            with pytest.raises(ConfigError):
                run_pipeline(config)
            assert not (tmp_path / "out").exists()
        # the free run starts from a window of 3 residual samples, whatever
        # the delays
        config = build_config({**base, **run_only[-1]})
        with pytest.raises(ConfigError, match="predict_start must be >= 3 "
                                              "so an initial residual window "
                                              "exists"):
            run_pipeline(config)

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="required"):
            build_config({})
        # only a full run reads outdir: run_pipeline checks it
        config = build_config({"input": "a.csv"})
        with pytest.raises(ConfigError, match="required"):
            run_pipeline(config)

    def test_bundled_smoke_config_parses(self):
        from pathlib import Path
        cfg = Path(__file__).resolve().parent.parent / "configs" / "smoke.conf"
        config = load_config(cfg)
        assert config.num_eigen == 40
        assert config.L0 == 8
        assert config.input.endswith("torus.csv")

    def test_byte_order_mark_is_read_past(self, tmp_path):
        # as some editors save a UTF-8 file; the relative input resolves
        # against each file's own directory
        from pathlib import Path
        cfg = Path(__file__).resolve().parent.parent / "configs" / "smoke.conf"
        bom = tmp_path / "smoke.conf"
        bom.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        moved = str((tmp_path / ".." / "torus.csv").resolve())
        assert load_config(bom) == dataclasses.replace(load_config(cfg),
                                                       input=moved)


# every field at a value other than its default
NON_DEFAULT = dict(
    input="/data/in.csv", outdir="/data/out", timestamp_column="stamp",
    channels=("a", "b"), dt_seconds=120.0, max_gap_factor=4.5, delays=7,
    epsilon=0.25, reference_points=300, num_eigen=50, eps1=0.2, eps2=3.5,
    L0=12, train_end=900, predict_start=950, predict_end=1000,
    ma_windows=(2, 5),
)


def run_flags(values):
    """``values`` as the command-line flags of ``qpdecomp run``."""
    flags = []
    for key, val in values.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(val, tuple):
            flags += [flag, *map(str, val)]
        else:
            flags += [flag, str(val)]
    return flags


class TestConfigSchema:
    def test_non_default_values_cover_every_field(self):
        defaults = PipelineConfig(input="x")
        assert set(NON_DEFAULT) == set(CONFIG_KEYS)
        # the schema parses no booleans: bool("false") would be True
        assert not any(f.type is bool for f in dataclasses.fields(defaults))
        for key, val in NON_DEFAULT.items():
            assert getattr(defaults, key) != val, key

    def test_manifest_and_flags_give_equal_config(self, tmp_path):
        from qpdecomp.cli import _overrides, build_parser

        config = build_config(NON_DEFAULT)
        assert dataclasses.asdict(config) == NON_DEFAULT
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("\n".join(config_lines(config)) + "\n",
                            encoding="utf-8")
        from_manifest = load_config(manifest, manifest=True)
        assert from_manifest == config
        assert build_config(dataclasses.asdict(from_manifest)) == config
        args = build_parser().parse_args(["run", *run_flags(NON_DEFAULT)])
        assert set(_overrides(args)) == set(CONFIG_KEYS)
        assert build_config(_overrides(args)) == config

    def test_manifest_input_resolves_against_its_directory(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("input = data.csv\nhash_of_something = 0\n",
                            encoding="utf-8")
        assert (load_config(manifest, manifest=True).input
                == str(tmp_path / "data.csv"))
        over = load_config(manifest, {"input": "b.csv", "delays": "3"},
                           manifest=True)
        assert (over.input, over.delays) == ("b.csv", 3)

    @pytest.mark.parametrize("key, bad", [
        ("delays", "3.5"), ("epsilon", "x"), ("ma_windows", "1 a"),
    ])
    def test_bad_value_names_key(self, tmp_path, key, bad):
        cfg = tmp_path / "bad.conf"
        cfg.write_text(f"input = a.csv\n{key} = {bad}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"{key} = '{bad}'"):
            load_config(cfg)
        # a flag's text reaches the schema as build_config's input
        with pytest.raises(ConfigError, match=f"{key} = '{bad}'"):
            build_config({"input": "a.csv", key: bad})

    @pytest.mark.parametrize("flag, key", [
        (["--delays", "3.5"], "delays"), (["--delays", "abc"], "delays"),
        (["--epsilon", "x"], "epsilon"), (["--ma-windows", "1", "a"],
                                          "ma_windows"),
    ])
    def test_bad_flag_is_a_config_error(self, tmp_path, capsys, flag, key):
        from qpdecomp.cli import main

        code = main(["run", "--input", str(tmp_path / "a.csv"), "--outdir",
                     str(tmp_path / "o"), "--predict-start", "30",
                     "--predict-end", "40", *flag])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("qpdecomp: ConfigError:") and key in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["queue 1", "a\tb", ""])
    def test_channel_names_must_survive_the_manifest(self, name):
        with pytest.raises(ConfigError, match="channel name"):
            build_config({"input": "a.csv", "channels": ("ok", name)})

    def test_channel_named_twice(self):
        # it would write two columns of the same name
        with pytest.raises(ConfigError, match="'ch0' is named twice"):
            build_config({"input": "a.csv", "channels": "ch0 ch1 ch0"})


class TestPeriodRendering:
    def test_format_period_units(self):
        assert format_period(43200.0) == "12 h"
        assert format_period(float("inf")) == "∞ (mean)"
        assert format_period(3600.0) == "1 h"
        assert format_period(86400.0 * 7) == "7 d"
        assert format_period(45.0) == "45 s"
        assert format_period(300.0) == "5 min"

    def test_paper_style_cluster_rendering(self):
        hours = [1, 2, 3, 6, 12, 14]
        days = [3.5, 7, 14]
        periods = [h * 3600.0 for h in hours] + [d * 86400.0 for d in days]
        omegas = np.array([0.0] + sorted(TWO_PI / p for p in periods))
        sel = FrequencySelection(indices=np.arange(len(omegas)), omegas=omegas,
                                 amplitudes=np.ones(len(omegas)),
                                 growth=np.zeros(len(omegas)), L0=5)
        report = report_periods(sel)
        for label in ["1 h", "2 h", "3 h", "6 h", "12 h", "14 h",
                      "3.5 d", "7 d", "14 d", "∞ (mean)"]:
            assert label in report
        long_panel, short_panel = report.split("short periods")
        assert "3.5 d" in long_panel and "12 h" in short_panel
