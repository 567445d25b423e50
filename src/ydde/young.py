"""Young (Riemann-Stieltjes) quadrature of Holder paths against Holder drivers.

Left-point sums over grid nodes, matching the solver's explicit stepping.
The certificate :func:`young_loeve_gap` compares each integral against its
one-increment approximation and bounds the difference by
``K (t-s)^(beta+nu) |||omega|||_nu |||x|||_beta`` with grid seminorms on
both sides, where ``K = 1 / (1 - 2^(1 - (beta+nu)))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .paths import _window_pair_max, holder_seminorm, random_windows

MAX_MESH_MISMATCH = 1e-9

# Mesh cells of the shortest window a certificate sweep draws.
_MIN_CELLS = 2


def young_constant(beta, nu):
    """K = 1 / (1 - 2^(1 - (beta+nu))); finite exactly when beta + nu > 1."""
    theta = beta + nu
    if theta <= 1.0:
        raise DomainError(f"Young condition violated: beta + nu = {theta!r} <= 1")
    return 1.0 / (1.0 - 2.0 ** (1.0 - theta))


@dataclass(frozen=True)
class YoungConstants:
    """Exponents (beta, nu, delta) with the constants K and K' they induce."""

    beta: float
    nu: float
    delta: float = 1.0
    K: float = field(init=False)
    Kprime: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0 or not 0.0 < self.nu <= 1.0:
            raise DomainError("exponents must lie in (0, 1]")
        if not 0.0 < self.delta <= 1.0:
            raise DomainError("delta must lie in (0, 1]")
        object.__setattr__(self, "K", young_constant(self.beta, self.nu))
        object.__setattr__(self, "Kprime",
                           young_constant(self.delta * self.beta, self.nu))


def _check_alignment(x, omega, window):
    if abs(x.mesh - omega.mesh) > MAX_MESH_MISMATCH * max(x.mesh, omega.mesh):
        raise DomainError(f"integrand mesh {x.mesh!r} != driver mesh {omega.mesh!r}")
    if omega.dim != 1:
        raise DomainError("driver must be scalar")
    ia, ib = x.window_indices(window)
    ja, jb = omega.window_indices(window)
    return ia, ib, ja, jb


def young_integral(x, omega):
    """Left-point sum of x against the driver increments over the grid."""
    return _left_sum(x, omega, *_check_alignment(x, omega, None))


def _left_sum(x, omega, ia, ib, ja, jb):
    return x.values[ia:ib].T @ np.diff(omega.values[ja:jb + 1, 0])


class GapReport(NamedTuple):
    gap: float
    bound: float


def young_loeve_gap(x, omega, window, consts):
    """Certificate ``|integral - x(s)(omega(t)-omega(s))| <= K (t-s)^(b+n) ...``
    on the window, with the grid seminorms of both paths there."""
    a, b = window
    return _gap_report(x, omega, _check_alignment(x, omega, window), b - a,
                       consts, holder_seminorm(omega, consts.nu, window),
                       holder_seminorm(x, consts.beta, window))


def _gap_report(x, omega, nodes, span, consts, omega_semi, x_semi):
    """The certificate on the window of ``nodes = (ia, ib, ja, jb)`` of x
    and omega, given both seminorms there."""
    integral = _left_sum(x, omega, *nodes)
    ia, _, ja, jb = nodes
    increment = x.values[ia] * (omega.values[jb, 0] - omega.values[ja, 0])
    gap = float(np.linalg.norm(integral - increment))
    bound = (consts.K * span ** (consts.beta + consts.nu)
             * omega_semi * x_semi)
    return GapReport(gap, float(bound))


@dataclass(frozen=True)
class SweepReport:
    """Certificate sweep outcome over random windows."""

    n_windows: int
    violations: int
    worst_ratio: float        # max gap / bound over windows with bound > 0
    rows: tuple = ()          # (integrand index, s, t, gap, bound) per window


def certificate_sweep(integrands, omega, span, consts, n_windows, seed=0):
    """Check gap <= bound on random windows for each integrand path.

    ``span = (lo, hi)`` restricts windows to that range of the shared grid.
    Windows shorter than ``_MIN_CELLS`` mesh cells are not drawn.  The
    comparison carries an absolute floor at the rounding error of the
    left-point sum, so a constant integrand (bound exactly zero) does not
    trip on float summation noise.  Each row is :func:`young_loeve_gap` of
    its window; the seminorms of all windows on a path come from one pass
    over its node pairs.
    """
    if n_windows < 1:
        raise DomainError("n_windows must be >= 1")
    lo, hi = span
    ilo = omega.index_of(lo, "span start")
    ihi = omega.index_of(hi, "span end")
    if ihi - ilo < _MIN_CELLS:
        raise DomainError(f"sweep span shorter than {_MIN_CELLS} cells")
    pairs = random_windows(seed, ilo, ihi, _MIN_CELLS,
                           n_windows * len(integrands))
    drawn = []        # per integrand: (i, j, window, its nodes) per window
    for idx, x in enumerate(integrands):
        ix0 = x.index_of(omega.t0 + ilo * omega.mesh) - ilo
        wins = []
        for i, j in pairs[idx * n_windows:(idx + 1) * n_windows]:
            window = (omega.t0 + i * omega.mesh, omega.t0 + j * omega.mesh)
            wins.append((i, j, window, _check_alignment(x, omega, window)))
        drawn.append((x, ix0, wins))
    omega_semi = iter(_window_pair_max(
        omega.values, omega.mesh, consts.nu,
        [nodes[2:] for *_, wins in drawn for *_, nodes in wins]).tolist())
    worst = 0.0
    violations = 0
    rows = []
    for idx, (x, ix0, wins) in enumerate(drawn):
        x_semi = _window_pair_max(x.values, x.mesh, consts.beta,
                                  [nodes[:2] for *_, nodes in wins]).tolist()
        for (i, j, (a, b), nodes), semi in zip(wins, x_semi):
            gap, bound = _gap_report(x, omega, nodes, b - a, consts,
                                     next(omega_semi), semi)
            sup_x = float(np.abs(x.values[ix0 + i:ix0 + j + 1]).max())
            sum_dw = float(np.abs(np.diff(omega.values[i:j + 1, 0])).sum())
            atol = 1e-13 * (1.0 + sup_x * sum_dw)
            rows.append((idx, a, b, gap, bound))
            if gap > bound * (1.0 + 1e-9) + atol:
                violations += 1
            if bound > atol:
                worst = max(worst, gap / bound)
    return SweepReport(n_windows=len(rows), violations=violations,
                       worst_ratio=worst, rows=tuple(rows))
