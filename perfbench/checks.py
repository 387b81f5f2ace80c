"""Correctness checks on the files qpdecomp writes.

Every check compares an output against a value computed here, apart from
the program, or against a property the method must have.  None compares
against a stored copy of an earlier output.  Each returns a list of
problems; an empty list means the output passed.
"""

import csv

import numpy as np

TWO_PI = 2.0 * np.pi


def read_table(path):
    """CSV file with a header row -> {column name: list of cell strings}."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def columns(table, prefix):
    """Float matrix of the columns whose names start with prefix, in order."""
    names = [name for name in table if name.startswith(prefix)]
    if not names:
        return np.empty((0, 0))
    return np.array([[float(v) for v in table[name]] for name in names]).T


def check_frequency_grid(bins, omegas, n_rows, dt):
    """Bins start at 0, strictly increase, and each omega is 2*pi*bin/(n_rows*dt)."""
    bins = np.asarray(bins)
    omegas = np.asarray(omegas, dtype=float)
    problems = []
    if len(bins) == 0 or bins[0] != 0:
        problems.append("frequencies.csv does not start at bin 0")
    if np.any(np.diff(bins) <= 0):
        problems.append("frequency bins are not strictly increasing")
    if np.any(bins > n_rows // 2):
        problems.append(f"a bin lies above the Nyquist bin {n_rows // 2}")
    expected = TWO_PI * bins / (n_rows * dt)
    off = np.abs(omegas - expected) > 1e-12 * np.maximum(expected, 1.0)
    if np.any(off):
        j = int(np.argmax(off))
        problems.append(f"omega {omegas[j]!r} of bin {bins[j]} is off the "
                        f"2*pi*bin/({n_rows}*dt) grid")
    return problems


def check_drivers(bins, driver_bins):
    """Each driver frequency is selected within one bin."""
    nonzero = np.asarray(bins)[np.asarray(bins) > 0]
    problems = []
    for drv in driver_bins:
        if len(nonzero) == 0 or np.abs(nonzero - drv).min() > 1:
            problems.append(f"driver bin {drv} is not selected within one bin")
    return problems


def lattice_bins(driver_bins, max_order, max_bin):
    """Integer combinations a.driver_bins with |a_i| <= max_order in [0, max_bin]."""
    grids = np.meshgrid(*[np.arange(-max_order, max_order + 1)] * len(driver_bins),
                        indexing="ij")
    combos = sum(g * b for g, b in zip(grids, driver_bins)).ravel()
    return np.unique(combos[(combos >= 0) & (combos <= max_bin)])


def check_lattice(bins, driver_bins, max_bin, max_order=25, share=0.9):
    """At least `share` of the nonzero bins lie exactly on the drivers'
    integer lattice of order 25, as the acceptance suite's sub-bin tolerance
    requires.  A one-bin tolerance would not do: the lattice or a neighbour
    of it covers about 93% of all bins below Nyquist, against about 35% for
    the lattice itself."""
    nonzero = np.asarray(bins)[np.asarray(bins) > 0]
    if len(nonzero) == 0:
        return ["no nonzero frequency selected"]
    on = np.isin(nonzero, lattice_bins(driver_bins, max_order, max_bin))
    if on.mean() < share:
        return [f"only {on.sum()} of {len(nonzero)} selected bins lie on the "
                f"driver lattice (need {share:.0%})"]
    return []


def check_accuracy(truth, estimate, what, tol=0.05):
    """Entry-wise |truth - estimate| / max|truth| per channel stays <= tol."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape:
        return [f"{what}: shape {estimate.shape}, expected {truth.shape}"]
    err = np.abs(truth - estimate) / np.abs(truth).max(axis=0)[None, :]
    worst = float(np.nanmax(err)) if err.size else 0.0
    if not np.isfinite(err).all() or worst > tol:
        return [f"{what}: relative error {worst:.3g} exceeds {tol}"]
    return []


def check_bounded(values, bound, what):
    """A free run is finite and its sup norm stays under the model's bound."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return [f"{what}: no predicted values"]
    if not np.isfinite(values).all():
        return [f"{what}: free run is not finite"]
    if not (np.isfinite(bound) and bound > 0):
        return [f"{what}: sup-norm bound {bound!r} is not a positive number"]
    peak = float(np.linalg.norm(values, axis=1).max())
    if peak > bound * (1.0 + 1e-9):
        return [f"{what}: free-run norm {peak:.6g} exceeds the bound {bound:.6g}"]
    return []
