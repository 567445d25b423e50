"""Driver path generation: fractional Brownian motion and deterministic test drivers.

fBm sampling is exact in distribution: the Durbin-Levinson recursion
(Hosking 1984; Dieker 2004) applies the lower Cholesky factor of the
increment covariance (fractional Gaussian noise) to standard normals,
built from the autocovariance vector alone in O(n^2) time and O(n)
memory.  The normals come from a counter-based generator (Philox), so a
given spec reproduces bit-identical paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GenerationError
from .paths import GridPath, _check_grid_size, _snap_index, holder_seminorm

# Durbin-Levinson sampling is O(n^2) time, O(n) memory; hard desk-scale cap.
MAX_FBM_INTERVALS = 2 ** 14

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
    size ``mesh``."""
    k = np.arange(n)
    two_h = 2.0 * hurst
    return 0.5 * (np.abs(k + 1) ** two_h + np.abs(k - 1) ** two_h
                  - 2.0 * np.abs(k) ** two_h) * mesh ** two_h


def fgn_levinson(hurst, z, mesh):
    """fGn increments ``L z`` for the lower Cholesky factor ``L`` of the
    increment covariance, by the Durbin-Levinson recursion.

    ``z`` holds standard normals, shape ``(n,)`` or ``(n, m)``; the m
    columns are independent draws sharing the prediction coefficients.
    Increment k is its best linear prediction from increments ``k-1 .. 0``
    plus ``sqrt(v_k) z_k``, with ``v_k`` the prediction variance.
    """
    n = z.shape[0]
    gamma = fgn_autocovariance(hurst, n, mesh)
    phi = np.zeros(n)
    x = np.empty(z.shape)
    v = gamma[0]
    for k in range(n):
        if k:
            kappa = (gamma[k] - phi[:k - 1] @ gamma[k - 1:0:-1]) / v
            phi[:k - 1] -= kappa * phi[:k - 1][::-1]
            phi[k - 1] = kappa
            v *= 1.0 - kappa * kappa
        if not v > 0:
            raise GenerationError(
                f"fGn prediction variance {float(v)!r} at step {k} "
                f"(H={hurst}, n={n}): covariance not positive definite")
        x[k] = phi[:k] @ x[:k][::-1] + math.sqrt(v) * z[k]
    return x


def gen_fbm(spec):
    """Sample a scalar fBm path: omega(0) = 0, exact covariance, seeded."""
    if spec.kind != "fbm":
        raise DomainError(f"gen_fbm needs kind='fbm', got {spec.kind!r}")
    n = spec.n_intervals
    if n > MAX_FBM_INTERVALS:
        raise DomainError(f"fbm capped at {MAX_FBM_INTERVALS} intervals (got {n})")
    rng = np.random.Generator(np.random.Philox(key=int(spec.seed)))
    increments = fgn_levinson(spec.hurst, rng.standard_normal(n), spec.mesh)
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
