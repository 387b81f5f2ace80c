"""Ground-truth generators for quasiperiodically driven skew-product systems.

A system is driven by a rigid rotation on a d-torus and evolves a driven
state through ``x_{n+1} = g_per(theta_n) + g_chaos(theta_n, x_n)``.  Only a
k-channel observation of ``(theta, x)`` is exposed as data; the latent
trajectory is returned alongside so tests can use it as an oracle.

The catalog in :func:`standard_testbed` fixes driver frequencies as exact
DFT bins of a 4096-sample, 20-delay run at dt = 1 s (4076 embedded rows).
On that grid harmonic fits extrapolate exactly; at any other length the
drivers fall between bins, as generic frequencies do.  Frequency ratios are
Fibonacci quotients (144/89, 55/34), within 4e-5 of the golden mean; any
float64 frequency pair is commensurate in the strict sense, so this is as
incommensurate as a finite simulation can resolve.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError, NumericalError, check_memory
from .series import TimeSeries

TWO_PI = 2.0 * np.pi

# Embedded-row count of the default testbed geometry (4096 samples, 20 delays).
_TESTBED_GRID = 4076.0


@dataclass(frozen=True)
class TorusDriver:
    """Rigid rotation on a d-torus: omega in rad/s, phases kept in [0, 2*pi)."""

    omega: np.ndarray
    theta0: np.ndarray

    def __post_init__(self):
        omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        theta0 = np.atleast_1d(np.asarray(self.theta0, dtype=float)) % TWO_PI
        if omega.shape != theta0.shape:
            raise DataError("omega and theta0 must have the same dimension")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "theta0", theta0)

    @property
    def dim(self) -> int:
        return len(self.omega)

    def phases(self, n_steps: int, dt: float) -> np.ndarray:
        """theta_n = theta0 + n*dt*omega mod 2*pi, by direct formula (no drift)."""
        n = np.arange(n_steps)[:, None]
        return (self.theta0[None, :] + n * (dt * self.omega)[None, :]) % TWO_PI


@dataclass(frozen=True)
class SkewProductSystem:
    """One-way coupled system: a torus driver forcing a driven state.

    ``g_per(theta) -> (m,)`` and ``g_chaos(theta, x, rng) -> (m,)`` compose
    the update ``x_{n+1} = g_per(theta_n) + g_chaos(theta_n, x_n)`` exactly.
    ``observation(theta, x)`` maps stacked trajectories (n, d), (n, m) to the
    observed (n, k) data and need not be one-to-one.
    """

    driver: TorusDriver
    x0: np.ndarray
    g_per: Callable
    g_chaos: Callable
    observation: Callable

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))


@dataclass(frozen=True)
class SimulationResult:
    series: TimeSeries
    theta: np.ndarray
    x: np.ndarray


def simulate(system: SkewProductSystem, n_steps: int, dt: float,
             seed: int = 0) -> SimulationResult:
    """Run a skew-product system and observe it.

    Returns the observed series y_n = observation(theta_n, x_n) together
    with the latent (theta_n, x_n) trajectory.  Deterministic for a fixed
    seed; the RNG is owned by this call and consumed only by ``g_chaos``.

    Raises
    ------
    DataError
        If the step index, phases and driven state of ``n_steps`` steps
        exceed the memory available, before they are allocated.
    NumericalError
        If the driven state leaves the finite range, reporting the step.
    """
    if n_steps < 1:
        raise DataError(f"n_steps must be >= 1, got {n_steps}")
    if not dt > 0:
        raise DataError(f"dt must be positive, got {dt}")
    m = len(system.x0)
    check_memory(n_steps * (1 + system.driver.dim + m) * 8,
                 f"{n_steps} steps of a {system.driver.dim}-torus driving "
                 f"{m} states")
    rng = np.random.default_rng(seed)
    theta = system.driver.phases(n_steps, dt)
    x = np.empty((n_steps, m))
    x[0] = system.x0
    for i in range(n_steps - 1):
        x[i + 1] = system.g_per(theta[i]) + system.g_chaos(theta[i], x[i], rng)
        if not np.isfinite(x[i + 1]).all():
            raise NumericalError(f"driven state became non-finite at step {i + 1}")
    y = np.asarray(system.observation(theta, x), dtype=float)
    if not np.isfinite(y).all():
        step = int(np.argmin(np.isfinite(y).all(axis=1)))
        raise NumericalError(f"observation became non-finite at step {step}")
    series = TimeSeries(y, dt=float(dt), t0=0.0)
    return SimulationResult(series=series, theta=theta, x=x)


def _cos_sin_lift(theta):
    cols = []
    for j in range(theta.shape[1]):
        cols.append(np.cos(theta[:, j]))
        cols.append(np.sin(theta[:, j]))
    return np.stack(cols, axis=1)


def _zero_map(dim):
    zero = np.zeros(dim)
    return lambda *_args: zero


def _pure_torus_2() -> SkewProductSystem:
    driver = TorusDriver(omega=TWO_PI * np.array([89.0, 144.0]) / _TESTBED_GRID,
                         theta0=np.array([0.7, 2.2]))
    mix = np.random.default_rng(42).standard_normal((4, 3))

    def observation(theta, x):
        return _cos_sin_lift(theta) @ mix

    return SkewProductSystem(driver=driver, x0=np.zeros(1),
                             g_per=_zero_map(1), g_chaos=_zero_map(1),
                             observation=observation)


def _torus_plus_logistic() -> SkewProductSystem:
    # x = (u, c): u is the observed driven coordinate, c a logistic state on
    # [0, 1].  The chaotic part feeds u with coupling weight 0.3.
    driver = TorusDriver(omega=TWO_PI * np.array([89.0]) / _TESTBED_GRID,
                         theta0=np.array([0.7]))
    mix = np.random.default_rng(5).standard_normal((3, 2))

    def g_per(theta):
        return np.array([1.5 * np.cos(theta[0]) + 0.75 * np.cos(2 * theta[0]), 0.0])

    def g_chaos(theta, x, rng):
        u, c = x
        return np.array([0.3 * (2.0 * c - 1.0), 4.0 * c * (1.0 - c)])

    def observation(theta, x):
        feats = np.stack([np.cos(theta[:, 0]), np.sin(theta[:, 0]), x[:, 0]], axis=1)
        return feats @ mix

    return SkewProductSystem(driver=driver, x0=np.array([0.0, 0.37]),
                             g_per=g_per, g_chaos=g_chaos,
                             observation=observation)


def _torus_plus_damped() -> SkewProductSystem:
    # Contracting noisy map: u' = 0.5 u + noise, a bounded-noise regime.
    driver = TorusDriver(omega=TWO_PI * np.array([34.0, 55.0]) / _TESTBED_GRID,
                         theta0=np.array([1.1, 4.0]))
    mix = np.random.default_rng(11).standard_normal((5, 2))

    def g_per(theta):
        return np.array([1.2 * np.cos(theta[0]) + 0.8 * np.sin(theta[1])])

    def g_chaos(theta, x, rng):
        return np.array([0.5 * x[0] + 0.15 * rng.standard_normal()])

    def observation(theta, x):
        feats = np.concatenate([_cos_sin_lift(theta), x[:, :1]], axis=1)
        return feats @ mix

    return SkewProductSystem(driver=driver, x0=np.zeros(1),
                             g_per=g_per, g_chaos=g_chaos,
                             observation=observation)


TESTBEDS = {
    "pure_torus_2": _pure_torus_2,
    "torus_plus_logistic": _torus_plus_logistic,
    "torus_plus_damped": _torus_plus_damped,
}


def standard_testbed(name: str) -> SkewProductSystem:
    """Return a canned system with documented frequencies and components.

    ``pure_torus_2``
        d=2 rotation, no chaotic part, 3 observed channels mixing cos/sin
        lifts of both angles.
    ``torus_plus_logistic``
        d=1 rotation plus a logistic-map chaotic coordinate coupled into the
        observed state with weight 0.3 (deterministic chaos regime).
    ``torus_plus_damped``
        d=2 rotation plus a contracting noisy map (bounded-noise regime).
    """
    try:
        builder = TESTBEDS[name]
    except KeyError:
        raise DataError(
            f"unknown testbed {name!r}; available: {', '.join(TESTBEDS)}"
        ) from None
    return builder()


def lattice_frequencies(omega, max_order: int, omega_max: float) -> np.ndarray:
    """Non-negative integer combinations a.omega within [0, omega_max].

    Enumerates a1*omega1 + ... + ad*omegad over |a_i| <= max_order and
    returns the sorted distinct values in range.  Used as the oracle for the
    harmonic-lattice structure of selected frequencies.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    grids = np.meshgrid(*[np.arange(-max_order, max_order + 1)] * len(omega),
                        indexing="ij")
    combos = sum(g * w for g, w in zip(grids, omega)).ravel()
    combos = combos[(combos >= 0) & (combos <= omega_max)]
    return np.unique(combos)
