import math

import numpy as np
import pytest

from ydde import solver
from ydde.coefficients import make_builtin
from ydde.errors import DomainError
from ydde.paths import (GridPath, Segment, holder_norm, segment_norm,
                        segment_norm_profile)
from ydde.sensitivity import (ContinuityReport, DifferentiabilityReport,
                              continuity_check, differentiability_check,
                              linearized_solve)
from ydde.solver import (compute_contraction_constants, greedy_partition,
                         picard_solve)


def base_report(sc):
    return picard_solve(sc["coeffs"], sc["eta"], sc["omega"], sc["config"])


def two_solve_continuity_check(coeffs, eta1, eta2, omega, config):
    """The former continuity check, kept as an oracle: it solves both
    initial segments itself."""
    gap_seg = eta1.with_values(eta2.values - eta1.values)
    eta_gap = segment_norm(gap_seg, config.beta)
    if eta_gap > 1.0 + 1e-12:
        raise DomainError("continuity estimate needs |eta2 - eta1| <= 1")
    rep1 = picard_solve(coeffs, eta1, omega, config)
    rep2 = picard_solve(coeffs, eta2, omega, config)
    x1, x2 = rep1.solution, rep2.solution
    M = max(holder_norm(x1, config.beta), holder_norm(x2, config.beta))
    if (coeffs.L_f == 0 and coeffs.L_g == 0
            and coeffs.f0_norm == 0 and coeffs.g0_norm == 0):
        C = 0.0
    else:
        constants = compute_contraction_constants(coeffs, config)
        C = constants.L(config.T, M)
    if C <= 0.0:
        partition = greedy_partition(omega, config, 0.0)
    else:
        if not config.mu < min(0.5, C):
            raise DomainError(f"need mu < min(1/2, L(T, M)) = {min(0.5, C)!r}")
        partition = greedy_partition(omega, config, C)

    diff = GridPath(x1.t0, x1.mesh, x2.values - x1.values)
    ts, profile = segment_norm_profile(diff, config.beta, config.r,
                                       (0.0, config.T))
    log_factor = -math.log(1.0 - 2.0 * config.mu)
    rhs = np.exp((partition.n_at(ts) + 1) * log_factor) * eta_gap
    scale = max(eta_gap, 1e-300)
    pointwise_ok = bool(np.all(profile <= rhs + 1e-12 * scale))
    margins = np.log(np.maximum(rhs, 1e-300)) - np.log(np.maximum(profile, 1e-300))

    full_constant = 1.0 + config.T / config.r
    lhs_full = holder_norm(diff, config.beta)
    n_T = partition.n_at(config.T)
    rhs_full = full_constant * math.exp((n_T + 1) * log_factor) * eta_gap
    return ContinuityReport(
        eta_gap=eta_gap, C=C, M=M, N_T=n_T,
        pointwise_ok=pointwise_ok,
        pointwise_min_margin=float(margins.min()),
        full_ok=lhs_full <= rhs_full + 1e-12 * scale,
        full_margin=float(np.log(max(rhs_full, 1e-300))
                          - np.log(max(lhs_full, 1e-300))),
        full_constant=full_constant)


def resolving_differentiability_check(coeffs, eta, direction, omega, config,
                                      eps_ladder=(1e-1, 1e-2, 1e-3)):
    """The former differentiability check, kept as an oracle: it solves the
    base from ``eta`` itself."""
    report = picard_solve(coeffs, eta, omega, config)
    base = report.solution
    y = linearized_solve(report, direction)
    rows = []
    for eps in eps_ladder:
        eta_eps = eta.with_values(eta.values + eps * direction.values)
        x_eps = picard_solve(coeffs, eta_eps, omega, config).solution
        z = GridPath(base.t0, base.mesh,
                     x_eps.values - base.values - eps * y.values)
        _, profile = segment_norm_profile(z, config.beta, config.r,
                                          (0.0, config.T))
        rows.append((eps, float(profile.max()) / eps))
    rhos = [r for _, r in rows]
    decreasing = all(b <= a * 1.1 + 1e-14 for a, b in zip(rhos, rhos[1:]))
    ratio = rhos[-1] / rhos[0] if rhos[0] > 0 else 0.0
    return DifferentiabilityReport(table=tuple(rows), decreasing=decreasing,
                                   final_over_initial=ratio,
                                   max_rho=max(rhos))


def scenario(request, name):
    """The named session fixture, or the sin_fbm one with zero coefficients."""
    if name == "zero_coeffs":
        return dict(request.getfixturevalue("workhorse"),
                    coeffs=make_builtin("linear_delay"))
    return request.getfixturevalue(name)


class TestLinearizedSolve:
    def test_zero_direction_zero_solution(self, workhorse):
        base = base_report(workhorse)
        zero = workhorse["direction"].with_values(
            np.zeros_like(workhorse["direction"].values))
        y = linearized_solve(base, zero)
        assert np.all(y.values == 0.0)

    def test_scaling_linearity(self, workhorse):
        base = base_report(workhorse)
        xi = workhorse["direction"]
        y1 = linearized_solve(base, xi)
        y2 = linearized_solve(base, xi.with_values(2.0 * xi.values))
        scale = np.abs(y2.values).max()
        assert np.abs(y2.values - 2.0 * y1.values).max() <= 1e-12 * scale

    def test_superposition(self, workhorse):
        base = base_report(workhorse)
        xi = workhorse["direction"]
        u = np.linspace(-0.25, 0.0, xi.values.shape[0])
        xi2 = xi.with_values((0.3 * np.sin(2 * math.pi * u))[:, None])
        y1 = linearized_solve(base, xi)
        y2 = linearized_solve(base, xi2)
        combo = xi.with_values(xi.values + xi2.values)
        y12 = linearized_solve(base, combo)
        scale = max(np.abs(y12.values).max(), 1e-30)
        assert np.abs(y12.values - y1.values - y2.values).max() <= 1e-12 * scale

    def test_linear_coefficients_match_exact_difference(self, linear_scenario):
        # constant Df, Dg: the linearized path IS the solution difference
        sc = linear_scenario
        base = base_report(sc)
        xi = sc["direction"]
        y = linearized_solve(base, xi)
        eta2 = sc["eta"].with_values(sc["eta"].values + xi.values)
        x2 = picard_solve(sc["coeffs"], eta2, sc["omega"], sc["config"]).solution
        assert np.abs((x2.values - base.solution.values) - y.values).max() \
            <= 1e-9

    def test_matches_direction_on_history(self, workhorse):
        base = base_report(workhorse)
        xi = workhorse["direction"]
        y = linearized_solve(base, xi)
        n_hist = workhorse["config"].n_history
        assert np.array_equal(y.values[:n_hist + 1], xi.values)

    def test_direction_validated(self, workhorse):
        base = base_report(workhorse)
        xi = workhorse["direction"]
        with pytest.raises(DomainError, match="dim"):
            linearized_solve(base, xi.with_values(np.hstack([xi.values] * 2)))
        with pytest.raises(DomainError, match="delay"):
            linearized_solve(base, Segment(0.125, xi.mesh, xi.values[32:]))
        with pytest.raises(DomainError, match="mesh"):
            linearized_solve(base,
                             Segment(xi.delay, 2 * xi.mesh, xi.values[::2]))


class TestContinuityCheck:
    def test_identical_segments_zero_gap(self, workhorse):
        rep = continuity_check(base_report(workhorse), workhorse["eta"])
        assert rep.eta_gap == 0.0
        assert rep.pointwise_ok and rep.full_ok

    def test_linear_small_perturbation(self, linear_scenario):
        sc = linear_scenario
        eta2 = sc["eta"].with_values(sc["eta"].values + 0.01)
        rep = continuity_check(base_report(sc), eta2)
        assert rep.pointwise_ok and rep.full_ok
        assert rep.pointwise_min_margin > 0
        assert rep.full_constant == pytest.approx(1.0 + 1.0 / 0.25)

    def test_zero_coefficients_factor_dominates(self, workhorse):
        co = make_builtin("linear_delay")
        eta2 = workhorse["eta"].with_values(workhorse["eta"].values + 0.01)
        base = picard_solve(co, workhorse["eta"], workhorse["omega"],
                            workhorse["config"])
        rep = continuity_check(base, eta2)
        assert rep.C == 0.0 and rep.N_T == 0
        assert rep.pointwise_ok and rep.full_ok

    def test_sin_fbm_both_sizes(self, workhorse):
        base = base_report(workhorse)
        for size in (1e-1, 1e-2):
            eta2 = workhorse["eta"].with_values(workhorse["eta"].values + size)
            rep = continuity_check(base, eta2)
            assert rep.eta_gap == pytest.approx(size, rel=1e-12)
            assert rep.pointwise_ok and rep.full_ok

    def test_base_norm_computed_once(self, monkeypatch, workhorse):
        # the continuity checks of both sizes and the linearized solve read
        # the base solution's Holder norm from its report
        base = base_report(workhorse)
        norm, calls = solver.holder_norm, []

        def count(path, beta, window=None):
            calls.append(path)
            return norm(path, beta, window)

        monkeypatch.setattr(solver, "holder_norm", count)
        for size in (1e-1, 1e-2):
            eta2 = workhorse["eta"].with_values(workhorse["eta"].values + size)
            continuity_check(base, eta2)
        linearized_solve(base, workhorse["direction"])
        assert calls == [base.solution]
        assert base.holder_norm == norm(base.solution,
                                        workhorse["config"].beta)

    def test_vicinity_precondition(self, workhorse):
        eta2 = workhorse["eta"].with_values(workhorse["eta"].values + 2.0)
        with pytest.raises(DomainError, match="<= 1"):
            continuity_check(base_report(workhorse), eta2)

    def test_eta2_validated_before_the_gap(self, workhorse):
        # a start on another grid is refused before eta2 - eta is formed
        base = base_report(workhorse)
        eta = workhorse["eta"]
        fine = Segment(eta.delay, eta.mesh / 2, np.repeat(eta.values, 2,
                                                          axis=0)[1:])
        for eta2, what in ((fine, "mesh"),
                           (Segment(eta.delay / 2, eta.mesh, eta.values[32:]),
                            "delay"),
                           (eta.with_values(np.hstack([eta.values] * 2)),
                            "dim")):
            with pytest.raises(DomainError, match=what):
                continuity_check(base, eta2)

    @pytest.mark.parametrize("name", ["workhorse", "linear_scenario",
                                      "zero_coeffs"])
    @pytest.mark.parametrize("size", [0.0, 1e-2, 1e-1])
    def test_matches_two_solve_check(self, request, name, size):
        sc = scenario(request, name)
        unit = sc["direction"].with_values(
            sc["direction"].values
            / segment_norm(sc["direction"], sc["config"].beta))
        eta2 = sc["eta"].with_values(sc["eta"].values + size * unit.values)
        got = continuity_check(base_report(sc), eta2)
        want = two_solve_continuity_check(sc["coeffs"], sc["eta"], eta2,
                                          sc["omega"], sc["config"])
        assert got == want


class TestDifferentiabilityCheck:
    def test_sin_fbm_ladder_decreases(self, workhorse):
        rep = differentiability_check(base_report(workhorse),
                                      workhorse["direction"])
        eps = [e for e, _ in rep.table]
        assert eps == [1e-1, 1e-2, 1e-3]
        assert rep.decreasing
        assert rep.final_over_initial <= 0.5

    def test_linear_remainder_at_noise_floor(self, linear_scenario):
        sc = linear_scenario
        rep = differentiability_check(base_report(sc), sc["direction"])
        assert rep.max_rho <= 1e-5

    def test_zero_direction(self, workhorse):
        zero = workhorse["direction"].with_values(
            np.zeros_like(workhorse["direction"].values))
        rep = differentiability_check(base_report(workhorse), zero,
                                      eps_ladder=(1e-1, 1e-2))
        assert rep.max_rho == 0.0
        assert rep.final_over_initial == 0.0

    def test_ladder_validation(self, workhorse):
        args = (base_report(workhorse), workhorse["direction"])
        with pytest.raises(DomainError):
            differentiability_check(*args, eps_ladder=())
        with pytest.raises(DomainError):
            differentiability_check(*args, eps_ladder=(1e-2, 1e-1))
        with pytest.raises(DomainError):
            differentiability_check(*args, eps_ladder=(1e-1, -1e-2))

    @pytest.mark.parametrize("name", ["workhorse", "linear_scenario",
                                      "zero_coeffs"])
    def test_matches_resolving_check(self, request, name):
        sc = scenario(request, name)
        ladder = (1e-1, 3e-2, 1e-3)
        got = differentiability_check(base_report(sc), sc["direction"],
                                      eps_ladder=ladder)
        want = resolving_differentiability_check(
            sc["coeffs"], sc["eta"], sc["direction"], sc["omega"],
            sc["config"], eps_ladder=ladder)
        assert got == want
