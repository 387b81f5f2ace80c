import re

import numpy as np
import pytest

from qpdecomp import ConfigError, DataError, run_pipeline
from qpdecomp.freqfilter import FrequencySelection, SelectionParams
from qpdecomp.pipeline import (
    build_config,
    config_from_manifest,
    format_period,
    load_config,
    report_periods,
)
from qpdecomp.series import write_csv
from qpdecomp.synth import simulate, standard_testbed

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
    from qpdecomp.kernel import sqdist_quantile
    from qpdecomp.series import delay_embed, load_csv, window

    data = load_csv(smoke_input)
    emb = delay_embed(window(data, 0, values["train_end"]), values["delays"])
    values["epsilon"] = sqdist_quantile(emb, 0.02)
    values.update(extra)
    return build_config(values)


ARTIFACTS = ["frequencies.csv", "periodic.csv", "chaotic_coeffs.csv",
             "reconstruction.csv", "prediction.csv", "errors.csv",
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
        out1 = run_pipeline(smoke_config(smoke_input, tmp_path / "run1"))
        out2 = run_pipeline(smoke_config(smoke_input, tmp_path / "run2"))
        for rel in ARTIFACTS:
            assert (out1 / rel).is_file(), rel
        assert not (out1 / ".lock").exists()
        a, b = artifact_bytes(out1), artifact_bytes(out2)
        for rel in ARTIFACTS:
            assert a[rel] == b[rel], f"{rel} differs between identical runs"

    def test_manifest_hashes_match_artifacts(self, smoke_input, tmp_path):
        import hashlib
        out = run_pipeline(smoke_config(smoke_input, tmp_path / "run"))
        manifest = (out / "manifest.txt").read_text()
        hashes = dict(re.findall(r"artifact_sha256 (\S+) = ([0-9a-f]{64})", manifest))
        assert set(hashes) == {a for a in ARTIFACTS if a != "manifest.txt"}
        for rel, digest in hashes.items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest

    def test_manifest_round_trip(self, smoke_input, tmp_path):
        out1 = run_pipeline(smoke_config(smoke_input, tmp_path / "run1"))
        config = config_from_manifest(out1 / "manifest.txt")
        config = build_config({**{f: getattr(config, f) for f in
                                  config.__dataclass_fields__},
                               "outdir": str(tmp_path / "run2")})
        out2 = run_pipeline(config)
        a, b = artifact_bytes(out1), artifact_bytes(out2)
        for rel in ARTIFACTS:
            assert a[rel] == b[rel]

    def test_missing_input_leaves_no_artifacts(self, tmp_path):
        config = build_config(dict(SMOKE, epsilon=1.0,
                                   input=str(tmp_path / "absent.csv"),
                                   outdir=str(tmp_path / "out")))
        with pytest.raises(DataError, match="does not exist"):
            run_pipeline(config)
        assert not (tmp_path / "out").exists()

    def test_lock_file_guards_outdir(self, smoke_input, tmp_path):
        outdir = tmp_path / "run"
        outdir.mkdir()
        (outdir / ".lock").touch()
        with pytest.raises(ConfigError, match="locked"):
            run_pipeline(smoke_config(smoke_input, outdir))

    def test_nonempty_outdir_rejected(self, smoke_input, tmp_path):
        outdir = tmp_path / "run"
        outdir.mkdir()
        (outdir / "stale.csv").touch()
        with pytest.raises(ConfigError, match="not empty"):
            run_pipeline(smoke_config(smoke_input, outdir))

    def test_predict_window_beyond_data(self, smoke_input, tmp_path):
        config = smoke_config(smoke_input, tmp_path / "run",
                              predict_end=100000)
        with pytest.raises(DataError, match="exceeds"):
            run_pipeline(config)
        assert not (tmp_path / "run").exists()

    def test_csv_floats_round_trip_exactly(self, smoke_input, tmp_path):
        out = run_pipeline(smoke_config(smoke_input, tmp_path / "run"))
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

    def test_basis_cache_reuse_preserves_artifacts(self, smoke_input, tmp_path):
        cache = tmp_path / "cache"
        out1 = run_pipeline(smoke_config(smoke_input, tmp_path / "r1",
                                         basis_cache=str(cache)))
        cached = list(cache.glob("*.npz"))
        assert len(cached) == 1
        out2 = run_pipeline(smoke_config(smoke_input, tmp_path / "r2",
                                         basis_cache=str(cache)))
        assert list(cache.glob("*.npz")) == cached
        a, b = artifact_bytes(out1), artifact_bytes(out2)
        for rel in ARTIFACTS:
            assert a[rel] == b[rel]

    def test_freerun_mode(self, smoke_input, tmp_path):
        out = run_pipeline(smoke_config(smoke_input, tmp_path / "run",
                                        mode="freerun"))
        lines = (out / "reconstruction.csv").read_text().splitlines()
        assert len(lines) == 1 + SMOKE["train_end"] - SMOKE["delays"] - 1

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


def test_run_peak_allocation_is_two_buffers(tmp_path):
    # the run's N x N arrays are Ktilde plus the eigensolve's Gram matrix
    import tracemalloc

    import scipy.linalg  # noqa: F401  (its import would count in the peak)

    from qpdecomp.kernel import sqdist_quantile
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
        epsilon=0.02 * sqdist_quantile(emb, 0.5), num_eigen=40, L0=10,
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
            "ma_windows = 1 5 25\n"
            "standardize = true\n",
            encoding="utf-8",
        )
        (tmp_path / "data.csv").write_text("time,a\n0,1\n1,2\n")
        config = load_config(cfg)
        assert config.delays == 4
        assert config.ma_windows == (1, 5, 25)
        assert config.standardize is True
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
               dict(L0=500), dict(resample_method="spline"),
               dict(mode="both"), dict(ma_windows=(0,))]
        for extra in bad:
            with pytest.raises(ConfigError):
                build_config({**base, **extra})
        # only a full run reads the predict window: run_pipeline checks it
        # before it touches the output directory
        run_only = [dict(predict_start=5, predict_end=4),
                    dict(predict_start=0, predict_end=0),
                    dict(predict_start=3, predict_end=50, delays=20)]
        for extra in run_only:
            config = build_config({**base, **extra})
            with pytest.raises(ConfigError):
                run_pipeline(config)
            assert not (tmp_path / "out").exists()

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
                                 params=SelectionParams(0.1, 2.5, 5, 100))
        report = report_periods(sel)
        for label in ["1 h", "2 h", "3 h", "6 h", "12 h", "14 h",
                      "3.5 d", "7 d", "14 d", "∞ (mean)"]:
            assert label in report
        long_panel, short_panel = report.split("short periods")
        assert "3.5 d" in long_panel and "12 h" in short_panel
