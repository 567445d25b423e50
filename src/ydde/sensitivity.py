"""Continuity and differentiability of the solution in its initial segment.

The linearized delay equation

    y(t) = xi(0) + int_0^t Df(x_s) y_s ds + int_0^t Dg(x_s) y_s domega(s)

is solved along a fixed base solution x with the same windowed Picard
machinery, contracting in the (delta*beta)-Holder norm.  The continuity
check instantiates the Gronwall-type estimate for the difference of two
solutions; the differentiability check compares finite differences of
solves against the linearized solution and watches the normalized
remainder vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .paths import GridPath, holder_norm, segment_norm, segment_norm_profile
from .solver import (_gronwall_conclusion, _run_picard, _validate_start,
                     compute_contraction_constants, greedy_partition,
                     picard_solve, resolve)


def linearized_contraction_constant(coeffs, config, base_norm):
    """Contraction constant of the linear integral map in the
    (delta*beta)-Holder norm: L_f + L_g + K'(L_g + L_M M^delta)."""
    yc = config.young(coeffs.delta)
    return (coeffs.L_f + coeffs.L_g
            + yc.Kprime * (coeffs.L_g
                           + coeffs.L_M(base_norm) * base_norm ** coeffs.delta))


def linearized_solve(base, direction):
    """Solve the linearized equation along the solution of the
    :class:`SolveReport` ``base``; y equals ``direction`` on [-r, 0]."""
    coeffs, omega, cfg = base.coeffs, base.omega, base.config
    exponent = coeffs.delta * cfg.beta

    def partition():
        c_lin = linearized_contraction_constant(coeffs, cfg, base.holder_norm)
        return greedy_partition(omega, replace(cfg, beta=exponent), c_lin)

    _, values, _, _ = _run_picard(
        coeffs, omega, cfg, [(direction, "constant")], partition,
        (coeffs.Df, coeffs.Dg, (base.solution.values,), exponent))
    return GridPath(-cfg.r, cfg.mesh, values[:, 0])


@dataclass(frozen=True)
class ContinuityReport:
    """Margins of the continuity estimate for two initial segments."""

    eta_gap: float            # |eta2 - eta1| in the infty,beta norm
    C: float                  # contraction constant L(T, M) used for N
    M: float
    N_T: int
    pointwise_ok: bool
    pointwise_min_margin: float   # min over grid t of log(rhs) - log(lhs)
    full_ok: bool
    full_margin: float
    full_constant: float      # 1 + T/r


def continuity_check(base, eta2):
    """Check ``|x_t(eta2) - x_t(eta)| <= (1-2mu)^-(N(t)+1) |eta2 - eta|``
    at every grid t, plus the full-interval form with constant 1 + T/r.

    ``base`` is the :class:`SolveReport` of the solve from ``eta``; only
    ``eta2`` is solved here, and it is validated before anything else.
    """
    coeffs, omega, config = base.coeffs, base.omega, base.config
    _validate_start(coeffs, eta2, config)
    x1, eta1 = base.solution, base.eta
    eta_gap = segment_norm(eta1.with_values(eta2.values - eta1.values),
                           config.beta)
    if eta_gap > 1.0 + 1e-12:
        raise DomainError("continuity estimate needs |eta2 - eta1| <= 1")
    x2 = picard_solve(coeffs, eta2, omega, config).solution
    M = max(base.holder_norm, holder_norm(x2, config.beta))
    # mu < 1/2, so greedy_partition's mu < min(1, C) is mu < min(1/2, C);
    # inert difference dynamics (C = 0) keep the difference constant past 0
    C = compute_contraction_constants(coeffs, config).L(config.T, M)
    partition = greedy_partition(omega, config, C)

    # the Gronwall-type conclusion with A = 0 and z = x2 - x1
    diff = GridPath(x1.t0, x1.mesh, x2.values - x1.values)
    pointwise_ok, pointwise_margin = _gronwall_conclusion(diff, 0.0, partition,
                                                          config)
    scale = max(eta_gap, 1e-300)
    log_factor = -math.log(1.0 - 2.0 * config.mu)
    full_constant = 1.0 + config.T / config.r
    lhs_full = holder_norm(diff, config.beta)
    n_T = partition.n_at(config.T)
    rhs_full = full_constant * math.exp((n_T + 1) * log_factor) * eta_gap
    return ContinuityReport(
        eta_gap=eta_gap, C=C, M=M, N_T=n_T,
        pointwise_ok=pointwise_ok,
        pointwise_min_margin=pointwise_margin,
        full_ok=lhs_full <= rhs_full + 1e-12 * scale,
        full_margin=float(np.log(max(rhs_full, 1e-300))
                          - np.log(max(lhs_full, 1e-300))),
        full_constant=full_constant)


@dataclass(frozen=True)
class DifferentiabilityReport:
    """Normalized finite-difference remainders against the linearized solution."""

    table: tuple              # rows (eps, rho)
    decreasing: bool
    final_over_initial: float
    max_rho: float


def differentiability_check(base, direction, eps_ladder=(1e-1, 1e-2, 1e-3)):
    """Remainder table rho(eps) = sup_t |x_t(eta + eps xi) - x_t(eta) - eps y_t| / eps.

    ``base`` is the :class:`SolveReport` of the solve from ``eta``; only the
    ladder, as one batch (:func:`~ydde.solver.resolve`), and the linearized
    equation are solved here.  The ladder must
    start at the 1e-1 scale and decrease; for C^1 coefficients rho vanishes
    with eps (superlinear remainder), and for linear coefficients it sits at
    quadrature/fixed-point noise level.
    """
    eps_ladder = tuple(float(e) for e in eps_ladder)
    if not eps_ladder or any(e <= 0 for e in eps_ladder):
        raise DomainError("eps ladder must be positive")
    if not all(b < a for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise DomainError("eps ladder must be strictly decreasing")
    config = base.config
    x, eta = base.solution, base.eta
    y = linearized_solve(base, direction)
    ladder = resolve(base, [
        (eta.with_values(eta.values + eps * direction.values), "constant")
        for eps in eps_ladder])
    rows = []
    for eps, x_eps in zip(eps_ladder, ladder):
        z = GridPath(x.t0, x.mesh, x_eps.values - x.values - eps * y.values)
        _, profile = segment_norm_profile(z, config.beta, config.r,
                                          (0.0, config.T))
        rows.append((eps, float(profile.max()) / eps))
    rhos = [r for _, r in rows]
    decreasing = all(b <= a * 1.1 + 1e-14 for a, b in zip(rhos, rhos[1:]))
    ratio = rhos[-1] / rhos[0] if rhos[0] > 0 else 0.0
    return DifferentiabilityReport(table=tuple(rows), decreasing=decreasing,
                                   final_over_initial=ratio,
                                   max_rho=max(rhos))
