"""Driver path generation: fractional Brownian motion and deterministic test drivers.

fBm sampling is exact in distribution: the n increments (fractional
Gaussian noise) are the first half of a stationary Gaussian sequence of
length 2n whose covariance is the circulant that embeds the fGn
autocovariance (Davies and Harte 1987; Wood and Chan 1994).  One real FFT
of the circulant's first row gives its eigenvalues, every one of which is
checked: a negative or NaN eigenvalue raises ``GenerationError`` and is
never clipped (the minimal embedding of fGn is nonnegative, Dietrich and
Newsam 1997).  One inverse real FFT of 2n standard normals, scaled by the
eigenvalues' square roots, gives the increments: O(n log n) time and O(n)
memory, so an fBm driver takes the whole grid cap
(:data:`ydde.paths.MAX_GRID_INTERVALS`).  The normals come from a
counter-based generator (Philox), so a given spec reproduces bit-identical
paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GenerationError
from .paths import GridPath, _check_grid_size, _snap_index, holder_seminorm

# From this lag on the fGn autocovariance is summed as its series in 1/k^2,
# whose terms are all positive; the second difference of k^2H it replaces
# loses about log10(k^2) digits to cancellation.  Past lag 16 each term is at
# most 16^-2 of the one before, so 12 terms leave a relative remainder far
# below the double rounding unit.
_SERIES_LAG = 16
_SERIES_TERMS = 12

_KINDS = ("fbm", "power", "sine", "zero", "samples")


@dataclass(frozen=True)
class DriverSpec:
    """Parameters of a driver path on [0, T] with uniform mesh."""

    kind: str
    T: float
    mesh: float
    hurst: float | None = None
    seed: int = 0
    amplitude: float = 1.0
    frequency: float = 1.0
    exponent: float | None = None    # power kind: omega(t) = amplitude * t^exponent
    samples: tuple | None = None     # samples kind: explicit node values

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown driver kind {self.kind!r}; "
                              f"expected one of {_KINDS}")
        if not self.T > 0 or not self.mesh > 0:
            raise DomainError("driver needs T > 0 and mesh > 0")
        _check_grid_size(self.n_intervals, "driver")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) \
                or not 0 <= seed < 2 ** 64:
            raise DomainError(f"seed must be an integer in [0, 2**64), "
                              f"got {seed!r}")
        if self.kind == "fbm" and (self.hurst is None
                                   or not 0.5 < self.hurst < 1.0):
            raise DomainError("fbm driver needs hurst in (1/2, 1)")
        if self.kind == "power" and (self.exponent is None or not 0 < self.exponent <= 1):
            raise DomainError("power driver needs exponent in (0, 1]")
        if self.kind == "samples" and self.samples is None:
            raise DomainError("samples driver needs explicit samples")

    @property
    def n_intervals(self):
        return _snap_index(self.T, self.mesh, "horizon T")


def spec_from_json(d):
    d = dict(d)
    if "samples" in d and d["samples"] is not None:
        d["samples"] = tuple(tuple(np.atleast_1d(row)) for row in d["samples"])
    return DriverSpec(**d)


def fgn_autocovariance(hurst, n, mesh):
    """Autocovariance ``gamma(k)``, k < n, of fGn increments over steps of
    size ``mesh``.

    ``gamma(k) = mesh^2H ((k+1)^2H + |k-1|^2H - 2 k^2H) / 2``, summed for
    ``k >= _SERIES_LAG`` as ``mesh^2H k^2H sum_{m>=1} binom(2H, 2m) k^-2m``
    (Horner in ``k^-2``), the same quantity without the cancellation.
    """
    two_h = 2.0 * hurst
    k = np.arange(n, dtype=float)
    gamma = np.empty(n)
    near, far = k[:_SERIES_LAG], k[_SERIES_LAG:]
    gamma[:_SERIES_LAG] = 0.5 * ((near + 1) ** two_h
                                 + np.abs(near - 1) ** two_h
                                 - 2.0 * near ** two_h)
    binom = [1.0]                        # binom(2H, j), j = 0 .. 2 * terms
    for j in range(1, 2 * _SERIES_TERMS + 1):
        binom.append(binom[-1] * (two_h - j + 1) / j)
    inv_sq = far ** -2.0
    series = gamma[_SERIES_LAG:]         # summed in place
    series[:] = 0.0
    for coef in binom[:0:-2]:            # binom(2H, 2m), m = terms .. 1
        series += coef
        series *= inv_sq
    series *= far ** two_h
    gamma *= mesh ** two_h
    return gamma


def _embedding_eigenvalues(hurst, n, mesh):
    """Eigenvalues, at frequencies 0 .. n, of the 2n circulant whose first
    row ``[gamma(0) .. gamma(n), gamma(n-1) .. gamma(1)]`` embeds the fGn
    autocovariance; a negative or NaN one raises ``GenerationError``."""
    gamma = fgn_autocovariance(hurst, n + 1, mesh)
    lam = np.fft.rfft(np.concatenate((gamma, gamma[-2:0:-1]))).real.copy()
    bad = np.flatnonzero(~(lam >= 0))
    if bad.size:
        raise GenerationError(
            f"circulant eigenvalue {float(lam[bad[0]])!r} at frequency "
            f"{int(bad[0])} (H={hurst}, n={n}): the embedding of the fGn "
            f"covariance is not nonnegative")
    return lam


def fgn_circulant(hurst, z, mesh):
    """fGn increments from standard normals by circulant embedding.

    ``z`` holds 2n standard normals, shape ``(2n,)`` or ``(2n, m)`` for m
    independent draws (the FFT runs along axis 0); the result holds the n
    increments, shape ``(n,)`` or ``(n, m)``.  ``z[:n+1]`` and ``z[n+1:]``
    are the real and the imaginary parts of a Hermitian half-spectrum (real
    at frequencies 0 and n), scaled by ``sqrt(n lam)`` (``sqrt(2n lam)``
    where real) for the embedding's eigenvalues ``lam``: its inverse real
    FFT has the circulant covariance exactly, and its first n entries the
    fGn covariance.
    """
    n = z.shape[0] // 2
    if n < 1 or z.shape[0] != 2 * n:
        raise DomainError(f"circulant embedding needs an even, positive "
                          f"number of normals, got {z.shape[0]}")
    scale = _embedding_eigenvalues(hurst, n, mesh)
    scale *= n
    scale[[0, n]] *= 2.0
    np.sqrt(scale, out=scale)
    spectrum = np.empty((n + 1,) + z.shape[1:], complex)
    spectrum.real = z[:n + 1]
    spectrum.imag[[0, n]] = 0.0
    spectrum.imag[1:n] = z[n + 1:]
    spectrum *= scale.reshape((n + 1,) + (1,) * (z.ndim - 1))
    return np.fft.irfft(spectrum, 2 * n, axis=0)[:n]


def gen_fbm(spec):
    """Sample a scalar fBm path: omega(0) = 0, exact covariance, seeded."""
    if spec.kind != "fbm":
        raise DomainError(f"gen_fbm needs kind='fbm', got {spec.kind!r}")
    n = spec.n_intervals
    rng = np.random.Generator(np.random.Philox(key=int(spec.seed)))
    increments = fgn_circulant(spec.hurst, rng.standard_normal(2 * n),
                               spec.mesh)
    values = np.concatenate(([0.0], np.cumsum(spec.amplitude * increments)))
    return GridPath(0.0, spec.mesh, values)


def gen_deterministic(spec):
    """Closed-form test drivers: power t^nu, sine, or the zero path."""
    n = spec.n_intervals
    t = spec.mesh * np.arange(n + 1)
    if spec.kind == "power":
        values = spec.amplitude * t ** spec.exponent
    elif spec.kind == "sine":
        values = spec.amplitude * np.sin(2.0 * math.pi * spec.frequency * t)
    elif spec.kind == "zero":
        values = np.zeros(n + 1)
    else:
        raise DomainError(f"gen_deterministic cannot build kind {spec.kind!r}")
    return GridPath(0.0, spec.mesh, values)


def gen_driver(spec):
    """Dispatch a DriverSpec to the matching generator."""
    if spec.kind == "fbm":
        return gen_fbm(spec)
    if spec.kind == "samples":
        values = np.asarray(spec.samples, dtype=float)
        if values.shape[0] != spec.n_intervals + 1:
            raise DomainError("samples length does not match T/mesh + 1")
        return GridPath(0.0, spec.mesh, spec.amplitude * values)
    return gen_deterministic(spec)


def empirical_holder_exponent(path, betas):
    """Grid Holder seminorm per candidate exponent.

    Used to pick a working nu below the Hurst index: the returned
    ``(beta, seminorm)`` table shows where the grid seminorm stays moderate.
    """
    betas = list(betas)
    if not betas:
        raise DomainError("need at least one candidate exponent")
    return [(float(b), holder_seminorm(path, b)) for b in betas]
