"""Spectral filtering of eigenfunction Fourier content: cumulative norm
table, two-threshold frequency selection, and threshold diagnostics.

Each basis column is Fourier-transformed along its row index with the
forward DFT scaled by 1/N, so entries of ``|fft(Phi)|`` are amplitude-like
for eigenfunctions of unit empirical norm and the default amplitude
threshold 0.1 is meaningful.  Real input means the spectrum is Hermitian;
bins are restricted to 0..floor(N/2) (one per conjugate pair), with bin j at
``omega_j = 2*pi*j / (N*dt)`` rad/s.

Columns are weighted by ``lam**-0.5`` and accumulated:

    W[j, 0] = |H[j, 0]|,   W[j, l] = W[j, l-1] + |H[j, l]|

A bin whose cumulative norm keeps growing through late columns carries
continuous-spectrum energy and is discarded; a bin with substantial early
mass and flat growth is kept as a genuine eigenfrequency of the dynamics.
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, NumericalError
from .spectral import LAMBDA_FLOOR, SpectralBasis


class SelectionParams(NamedTuple):
    eps1: float
    eps2: float
    L0: int
    L: int


@dataclass(frozen=True)
class RkhsNormTable:
    """Cumulative weighted Fourier-amplitude table.

    ``W`` has one row per retained frequency bin and one column per basis
    function; rows are non-negative and non-decreasing along columns.
    ``freqs`` holds the bin frequencies in rad/s, starting at 0.
    """

    W: np.ndarray
    freqs: np.ndarray
    dt: float

    def __post_init__(self):
        if self.W.shape[0] != len(self.freqs):
            raise DataError("W rows must match the frequency axis")
        if len(self.freqs) < 1 or self.freqs[0] != 0.0:
            raise DataError("frequency axis must start at 0")

    @property
    def n_bins(self) -> int:
        return self.W.shape[0]

    @property
    def L(self) -> int:
        return self.W.shape[1]

    @property
    def bin_width(self) -> float:
        return float(self.freqs[1]) if len(self.freqs) > 1 else 0.0


@dataclass(frozen=True)
class FrequencySelection:
    """Bins surviving both thresholds, sorted by frequency; bin 0 always present."""

    indices: np.ndarray
    omegas: np.ndarray
    amplitudes: np.ndarray
    params: SelectionParams

    def __post_init__(self):
        if len(self.indices) < 1 or self.indices[0] != 0:
            raise DataError("selection must contain bin 0")
        if np.any(np.diff(self.indices) <= 0) or np.any(np.diff(self.omegas) <= 0):
            raise DataError("selected bins and frequencies must be strictly "
                            "increasing")

    @property
    def m(self) -> int:
        return len(self.indices)

    @property
    def periods(self) -> np.ndarray:
        """Periods 2*pi/omega in seconds; infinite for bin 0 (the mean)."""
        pos = self.omegas > 0
        return np.where(pos, 2.0 * np.pi / np.where(pos, self.omegas, 1.0),
                        np.inf)


def rkhs_norm_table(basis: SpectralBasis, dt: float) -> RkhsNormTable:
    """Build the cumulative table W from a spectral basis.

    Column l accumulates ``|fft(Phi[:, :l+1])| / sqrt(lam)`` at every bin up
    to the Nyquist bin of the eigenfunction grid.
    """
    if not dt > 0:
        raise DataError(f"dt must be positive, got {dt}")
    if basis.lam[-1] <= LAMBDA_FLOOR:
        raise NumericalError(
            f"eigenvalue {basis.L} at {basis.lam[-1]:.3e} is below the "
            f"{LAMBDA_FLOOR} floor"
        )
    n = basis.n
    amp = np.abs(np.fft.rfft(basis.Phi, axis=0)) / n
    H = amp / np.sqrt(basis.lam)[None, :]
    W = np.cumsum(H, axis=1)
    n_bins = n // 2 + 1
    freqs = 2.0 * np.pi * np.arange(n_bins) / (n * dt)
    return RkhsNormTable(W=W[:n_bins], freqs=freqs, dt=float(dt))


def select(table: RkhsNormTable, eps1: float = 0.1, eps2: float = 2.5,
           L0: int = None) -> FrequencySelection:
    """Two-threshold frequency selection.

    Bin j is kept iff ``W[j, L0] >= eps1`` and
    ``ln W[j, L] - ln W[j, L0] <= eps2``; bin 0 (the constant eigenfunction)
    is always kept.  An empty non-zero selection is a valid outcome (purely
    chaotic data) and triggers a warning, not an error.

    Parameters
    ----------
    table : RkhsNormTable
    eps1 : float
        Amplitude threshold on the cumulative norm at column L0.
    eps2 : float
        Log-growth threshold between columns L0 and L.
    L0 : int
        Reference column, 1 < L0 <= L.  Required: the useful value depends
        on where the eigenvalue decay of the data sets in.
    """
    if L0 is None:
        raise DataError("L0 is required")
    if not (eps1 > 0 and eps2 > 0):
        raise DataError("thresholds must be positive")
    if not (1 < L0 <= table.L):
        raise DataError(f"L0={L0} out of range 2..{table.L}")
    w_l0 = table.W[:, L0 - 1]
    keep = w_l0 >= eps1
    selected = np.where(keep & (log_growth(table, L0) <= eps2))[0]
    selected = np.union1d(selected, [0]).astype(int)
    if len(selected) == 1:
        warnings.warn(
            "no nonzero frequency survived the thresholds; the series has no "
            "detectable quasiperiodic component at these parameters",
            stacklevel=2,
        )
    kept, nonzero = len(selected) - 1, table.n_bins - 1
    if 2 * kept > nonzero:
        # the periodic fit projects onto the selected bins, so keeping most
        # of them fits nearly all of the data and leaves no chaotic residual
        warnings.warn(
            f"the selection keeps {kept} of {nonzero} nonzero frequency bins; "
            f"the periodic fit is then close to the identity and the chaotic "
            f"residual nearly empty (raise L0 or eps1, or lower eps2)",
            stacklevel=2,
        )
    return FrequencySelection(
        indices=selected,
        omegas=table.freqs[selected],
        amplitudes=w_l0[selected],
        params=SelectionParams(float(eps1), float(eps2), int(L0), int(table.L)),
    )


def log_growth(table: RkhsNormTable, L0: int, rows=slice(None)) -> np.ndarray:
    """ln W[j, L] - ln W[j, L0] for the bins ``rows``; +inf where W[j, L0] = 0."""
    w_l0 = table.W[rows, L0 - 1]
    out = np.full(len(w_l0), np.inf)
    pos = w_l0 > 0
    out[pos] = np.log(table.W[rows, -1][pos]) - np.log(w_l0[pos])
    return out


def selection_growth(table: RkhsNormTable, selection: FrequencySelection) -> np.ndarray:
    """ln W[j, L] - ln W[j, L0] for each selected bin (reporting column)."""
    return log_growth(table, selection.params.L0, selection.indices)


def merge_adjacent(selection: FrequencySelection) -> FrequencySelection:
    """Collapse each run of consecutive selected bins to its largest-amplitude bin.

    Bin 0 is exempt and always retained.  True frequencies falling between
    bins often light up both straddling bins; this merges such pairs.
    """
    nz = selection.indices[selection.indices > 0]
    if len(nz) == 0:
        return selection
    amps = dict(zip(selection.indices.tolist(), selection.amplitudes.tolist()))
    keep = [0]
    run = [int(nz[0])]
    for j in nz[1:]:
        j = int(j)
        if j == run[-1] + 1:
            run.append(j)
        else:
            keep.append(max(run, key=lambda b: amps[b]))
            run = [j]
    keep.append(max(run, key=lambda b: amps[b]))
    keep = np.array(sorted(keep), dtype=int)
    pick = np.searchsorted(selection.indices, keep)
    return FrequencySelection(
        indices=keep,
        omegas=selection.omegas[pick],
        amplitudes=selection.amplitudes[pick],
        params=selection.params,
    )


@dataclass(frozen=True)
class ThresholdDiagnostics:
    """Curves for choosing L0 and eps2 by eye; no automatic choice is made.

    ``column_mean``/``column_max`` trace the growth of W across columns (the
    abrupt-jump curve locating L0); ``sorted_growth`` is the ascending
    ln(W[:, L]/W[:, L0]) over all bins, whose inflection suggests eps2.
    """

    column_index: np.ndarray
    column_mean: np.ndarray
    column_max: np.ndarray
    sorted_growth: np.ndarray
    L0: int


def threshold_diagnostics(table: RkhsNormTable, L0: int) -> ThresholdDiagnostics:
    if not (1 < L0 <= table.L):
        raise DataError(f"L0={L0} out of range 2..{table.L}")
    growth = log_growth(table, L0)
    growth = growth[np.isfinite(growth)]
    return ThresholdDiagnostics(
        column_index=np.arange(1, table.L + 1),
        column_mean=table.W.mean(axis=0),
        column_max=table.W.max(axis=0),
        sorted_growth=np.sort(growth),
        L0=int(L0),
    )
