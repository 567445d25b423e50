"""Driver path generation: fractional Brownian motion and deterministic test drivers.

fBm sampling is exact in distribution via Cholesky factorization of the
increment covariance (fractional Gaussian noise), seeded with a
counter-based generator so that a given spec reproduces bit-identical
paths.  The covariance is factored in place, so sampling holds one n x n
array (8 n^2 bytes); the O(n^3) factorization caps the node count at desk
scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError, GenerationError
from .paths import GridPath, holder_seminorm, _snap_index

# Counter-based PRNG backing all random generation, recorded in metadata.
RNG_ALGORITHM = "philox4x64"

# Cholesky of the full increment covariance is O(n^3); hard desk-scale cap.
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
        _snap_index(self.T, self.mesh, "horizon T")
        if self.kind == "fbm":
            if self.hurst is None or not 0.5 <= self.hurst < 1.0:
                raise DomainError("fbm driver needs hurst in (1/2, 1) "
                                  "(1/2 only through the generator test bypass)")
            if not 0 <= int(self.seed) < 2 ** 64:
                raise DomainError("seed must be a 64-bit unsigned integer")
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


def spec_to_json(spec):
    d = {
        "kind": spec.kind, "T": spec.T, "mesh": spec.mesh, "seed": int(spec.seed),
        "amplitude": spec.amplitude, "frequency": spec.frequency,
    }
    if spec.hurst is not None:
        d["hurst"] = spec.hurst
    if spec.exponent is not None:
        d["exponent"] = spec.exponent
    if spec.samples is not None:
        d["samples"] = [list(row) for row in spec.samples]
    return d


def fgn_covariance(hurst, n, mesh):
    """Covariance matrix of the n fGn increments over steps of size ``mesh``."""
    k = np.arange(n)
    two_h = 2.0 * hurst
    acf = 0.5 * (np.abs(k + 1) ** two_h + np.abs(k - 1) ** two_h
                 - 2.0 * np.abs(k) ** two_h) * mesh ** two_h
    return scipy.linalg.toeplitz(acf)


def fgn_cholesky(hurst, n, mesh):
    """Lower Cholesky factor of the increment covariance, with jitter retry.

    The factor overwrites the covariance, so one n x n array is alive at a
    time; a retry rebuilds it and adds ``jitter * cov[0, 0]`` to the diagonal.
    """
    for jitter in (0.0, 1e-12, 1e-10):
        cov = fgn_covariance(hurst, n, mesh)
        if jitter:
            cov.flat[::n + 1] += jitter * cov[0, 0]
        try:
            # cov is symmetric: cov.T is the same matrix in Fortran order,
            # which LAPACK factors without a copy
            return scipy.linalg.cholesky(cov.T, lower=True, overwrite_a=True)
        except scipy.linalg.LinAlgError:
            continue
    raise GenerationError(
        f"fGn covariance (H={hurst}, n={n}) not PSD after jitter")


def gen_fbm(spec, allow_h_half=False):
    """Sample a scalar fBm path: omega(0) = 0, exact covariance, seeded.

    ``allow_h_half`` unlocks the degenerate H = 1/2 boundary for generator
    tests only; the solver requires a Holder exponent nu < H with nu > 1/2.
    """
    if spec.kind != "fbm":
        raise DomainError(f"gen_fbm needs kind='fbm', got {spec.kind!r}")
    if spec.hurst == 0.5 and not allow_h_half:
        raise DomainError("H = 1/2 is a test-only boundary; pass allow_h_half=True")
    n = spec.n_intervals
    if n > MAX_FBM_INTERVALS:
        raise DomainError(f"fbm capped at {MAX_FBM_INTERVALS} intervals (got {n})")
    rng = np.random.Generator(np.random.Philox(key=int(spec.seed)))
    z = rng.standard_normal(n)
    if spec.hurst == 0.5:
        increments = math.sqrt(spec.mesh) * z
    else:
        increments = fgn_cholesky(spec.hurst, n, spec.mesh) @ z
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


def gen_driver(spec, allow_h_half=False):
    """Dispatch a DriverSpec to the matching generator."""
    if spec.kind == "fbm":
        return gen_fbm(spec, allow_h_half=allow_h_half)
    if spec.kind == "samples":
        values = np.asarray(spec.samples, dtype=float)
        if values.shape[0] != spec.n_intervals + 1:
            raise DomainError("samples length does not match T/mesh + 1")
        return GridPath(0.0, spec.mesh, spec.amplitude * values)
    return gen_deterministic(spec)


def driver_metadata(spec):
    """Provenance recorded alongside emitted paths."""
    meta = {"kind": spec.kind}
    if spec.kind == "fbm":
        meta.update(rng=RNG_ALGORITHM, seed=int(spec.seed), hurst=spec.hurst)
    return meta


def empirical_holder_exponent(path, betas):
    """Grid Holder seminorm per candidate exponent.

    Used to pick a working nu below the Hurst index: the returned
    ``(beta, seminorm)`` table shows where the grid seminorm stays moderate.
    """
    betas = list(betas)
    if not betas:
        raise DomainError("need at least one candidate exponent")
    return [(float(b), holder_seminorm(path, b).seminorm) for b in betas]
