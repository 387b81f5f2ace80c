"""Spectral filtering of eigenfunction Fourier content: the cumulative norm
table and the two-threshold frequency selection.

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
The growth of bin j past a reference column L0 is
``ln W[j, L] - ln W[j, L0]`` (:func:`log_growth`); the selection keeps it
for its bins, and the diagnostics sort it over all bins.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .spectral import SpectralBasis


@dataclass(frozen=True)
class RkhsNormTable:
    """Cumulative weighted Fourier-amplitude table.

    ``W`` has one row per retained frequency bin and one column per basis
    function; rows are non-negative and non-decreasing along columns.
    ``freqs`` holds the bin frequencies in rad/s, starting at 0.
    """

    W: np.ndarray
    freqs: np.ndarray

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


@dataclass(frozen=True)
class FrequencySelection:
    """Bins surviving both thresholds, sorted by frequency; bin 0 always present.

    ``amplitudes`` is W[j, L0] and ``growth`` ln W[j, L] - ln W[j, L0] of
    each kept bin j, at the reference column ``L0``.
    """

    indices: np.ndarray
    omegas: np.ndarray
    amplitudes: np.ndarray
    growth: np.ndarray
    L0: int

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
    to the Nyquist bin of the eigenfunction grid; the basis keeps every
    ``lam`` at or above ``spectral.LAMBDA_FLOOR``.
    """
    if not dt > 0:
        raise DataError(f"dt must be positive, got {dt}")
    n = basis.n
    amp = np.abs(np.fft.rfft(basis.Phi, axis=0)) / n
    H = amp / np.sqrt(basis.lam)[None, :]
    W = np.cumsum(H, axis=1)
    n_bins = n // 2 + 1
    freqs = 2.0 * np.pi * np.arange(n_bins) / (n * dt)
    return RkhsNormTable(W=W[:n_bins], freqs=freqs)


def select(table: RkhsNormTable, eps1: float, eps2: float,
           L0: int) -> FrequencySelection:
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
    if not (eps1 > 0 and eps2 > 0):
        raise DataError("thresholds must be positive")
    if not (1 < L0 <= table.L):
        raise DataError(f"L0={L0} out of range 2..{table.L}")
    w_l0 = table.W[:, L0 - 1]
    growth = log_growth(table, L0)
    selected = np.where((w_l0 >= eps1) & (growth <= eps2))[0]
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
        growth=growth[selected],
        L0=int(L0),
    )


def log_growth(table: RkhsNormTable, L0: int) -> np.ndarray:
    """ln W[j, L] - ln W[j, L0] for every bin j; +inf where W[j, L0] = 0."""
    w_l0 = table.W[:, L0 - 1]
    out = np.full(len(w_l0), np.inf)
    pos = w_l0 > 0
    out[pos] = np.log(table.W[pos, -1]) - np.log(w_l0[pos])
    return out
