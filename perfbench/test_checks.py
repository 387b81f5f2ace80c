"""Self-tests of the benchmark's output checks: each passes a correct output
and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""

import numpy as np
import pytest

import checks

N_ROWS = 4076
DRIVERS = (89, 144)
# bin 0, the drivers and some of their integer combinations
CLEAN_BINS = [0, 55, 89, 144, 178, 233, 288]


def write_frequencies(path, bins, omegas=None):
    if omegas is None:
        omegas = [2 * np.pi * b / N_ROWS for b in bins]
    lines = ["bin,omega_rad_per_s,period_s,period_human,amplitude,growth"]
    for b, w in zip(bins, omegas):
        period = 2 * np.pi / w if w > 0 else float("inf")
        lines.append(f"{b},{w:.17g},{period:.17g},x,1,0")
    path.write_text("\n".join(lines) + "\n")
    return path


def read_frequencies(path):
    table = checks.read_table(path)
    return (np.array([int(b) for b in table["bin"]]),
            np.array([float(w) for w in table["omega_rad_per_s"]]))


def write_prediction(path, truth, pred):
    k = truth.shape[1]
    header = (["time_s"] + [f"truth_c{j}" for j in range(k)]
              + [f"pred_c{j}" for j in range(k)])
    rows = [",".join(header)]
    for i, (t, p) in enumerate(zip(truth, pred)):
        rows.append(",".join(f"{v:.17g}" for v in [float(i), *t, *p]))
    path.write_text("\n".join(rows) + "\n")
    return checks.columns(checks.read_table(path), "pred_")


@pytest.fixture
def series():
    t = np.arange(512)[:, None]
    w = 2 * np.pi * np.array([89.0, 144.0]) / N_ROWS
    return np.hstack([np.cos(w[0] * t) + 0.5 * np.sin(w[1] * t),
                      np.sin(w[0] * t), np.cos(w[1] * t)])


def test_frequency_grid_accepts_program_layout(tmp_path):
    bins, omegas = read_frequencies(
        write_frequencies(tmp_path / "f.csv", CLEAN_BINS))
    assert checks.check_frequency_grid(bins, omegas, N_ROWS, 1.0) == []
    assert checks.check_drivers(bins, DRIVERS) == []
    assert checks.check_lattice(bins, DRIVERS, N_ROWS // 2) == []


def test_frequency_grid_rejects_off_grid_omega(tmp_path):
    omegas = [2 * np.pi * b / N_ROWS for b in CLEAN_BINS]
    omegas[3] *= 1.0 + 1e-6
    bins, omegas = read_frequencies(
        write_frequencies(tmp_path / "f.csv", CLEAN_BINS, omegas))
    assert checks.check_frequency_grid(bins, omegas, N_ROWS, 1.0)


def test_frequency_grid_rejects_missing_bin_zero_and_disorder(tmp_path):
    bins, omegas = read_frequencies(
        write_frequencies(tmp_path / "f.csv", CLEAN_BINS[1:]))
    assert checks.check_frequency_grid(bins, omegas, N_ROWS, 1.0)
    swapped = [0, 89, 55, 144]
    bins, omegas = read_frequencies(
        write_frequencies(tmp_path / "g.csv", swapped))
    assert checks.check_frequency_grid(bins, omegas, N_ROWS, 1.0)


@pytest.mark.parametrize("dropped", DRIVERS)
def test_drivers_reject_a_dropped_driver_bin(tmp_path, dropped):
    kept = [b for b in CLEAN_BINS if b != dropped]
    bins, _ = read_frequencies(write_frequencies(tmp_path / "f.csv", kept))
    assert checks.check_drivers(bins, DRIVERS)


def test_drivers_accept_one_bin_of_leakage():
    assert checks.check_drivers(np.array([0, 90, 143]), DRIVERS) == []
    assert checks.check_drivers(np.array([0, 91, 144]), DRIVERS)


def test_lattice_rejects_mostly_off_lattice_selection():
    off = [10, 44, 99, 133, 154, 188]
    bins = np.array([0, 89, 144, *off])
    assert checks.check_lattice(bins, DRIVERS, N_ROWS // 2)


def test_lattice_rejects_every_bin_and_random_bins():
    every = np.arange(N_ROWS // 2 + 1)
    assert checks.check_lattice(every, DRIVERS, N_ROWS // 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        drawn = rng.choice(np.arange(1, N_ROWS // 2 + 1), 71, replace=False)
        assert checks.check_lattice(np.sort(drawn), DRIVERS, N_ROWS // 2)


def test_lattice_rejects_selection_one_bin_off():
    lattice = checks.lattice_bins(DRIVERS, 25, N_ROWS // 2)
    exact = lattice[(lattice > 0) & (lattice < N_ROWS // 2)][:71]
    assert checks.check_lattice(exact, DRIVERS, N_ROWS // 2) == []
    assert checks.check_lattice(exact + 1, DRIVERS, N_ROWS // 2)


def test_accuracy_rejects_prediction_column_scaled(tmp_path, series):
    clean = write_prediction(tmp_path / "p.csv", series, series)
    assert checks.check_accuracy(series, clean, "clean") == []
    scaled = series.copy()
    scaled[:, 1] *= 1.1
    pred = write_prediction(tmp_path / "q.csv", series, scaled)
    assert checks.check_accuracy(series, pred, "scaled")


def test_accuracy_rejects_wrong_length(series):
    assert checks.check_accuracy(series, series[:-1], "short")


def test_bounded_rejects_run_above_its_bound(tmp_path, series):
    pred = write_prediction(tmp_path / "p.csv", series, series)
    peak = np.linalg.norm(series, axis=1).max()
    assert checks.check_bounded(pred, peak * 1.01, "inside") == []
    assert checks.check_bounded(pred, peak * 0.99, "outside")


def test_bounded_rejects_non_finite_run_and_bound(series):
    bad = series.copy()
    bad[7, 0] = np.inf
    assert checks.check_bounded(bad, 1e9, "inf")
    assert checks.check_bounded(series, float("nan"), "nan bound")
