import math

import numpy as np
import pytest

from ydde.coefficients import make_builtin
from ydde.errors import DomainError
from ydde.sensitivity import (LinearizedProblem, continuity_check,
                              differentiability_check, linearized_solve)
from ydde.solver import picard_solve


def base_solution(sc):
    return picard_solve(sc["coeffs"], sc["eta"], sc["omega"],
                        sc["config"]).solution


def problem(sc, base, direction):
    return LinearizedProblem(coeffs=sc["coeffs"], base_solution=base,
                             direction=direction, omega=sc["omega"],
                             config=sc["config"])


class TestLinearizedSolve:
    def test_zero_direction_zero_solution(self, workhorse):
        base = base_solution(workhorse)
        zero = workhorse["direction"].with_values(
            np.zeros_like(workhorse["direction"].values))
        y = linearized_solve(problem(workhorse, base, zero))
        assert np.all(y.values == 0.0)

    def test_scaling_linearity(self, workhorse):
        base = base_solution(workhorse)
        xi = workhorse["direction"]
        y1 = linearized_solve(problem(workhorse, base, xi))
        y2 = linearized_solve(problem(
            workhorse, base, xi.with_values(2.0 * xi.values)))
        scale = np.abs(y2.values).max()
        assert np.abs(y2.values - 2.0 * y1.values).max() <= 1e-12 * scale

    def test_superposition(self, workhorse):
        base = base_solution(workhorse)
        xi = workhorse["direction"]
        u = np.linspace(-0.25, 0.0, xi.values.shape[0])
        xi2 = xi.with_values((0.3 * np.sin(2 * math.pi * u))[:, None])
        y1 = linearized_solve(problem(workhorse, base, xi))
        y2 = linearized_solve(problem(workhorse, base, xi2))
        combo = xi.with_values(xi.values + xi2.values)
        y12 = linearized_solve(problem(workhorse, base, combo))
        scale = max(np.abs(y12.values).max(), 1e-30)
        assert np.abs(y12.values - y1.values - y2.values).max() <= 1e-12 * scale

    def test_linear_coefficients_match_exact_difference(self, linear_scenario):
        # constant Df, Dg: the linearized path IS the solution difference
        sc = linear_scenario
        base = base_solution(sc)
        xi = sc["direction"]
        y = linearized_solve(problem(sc, base, xi))
        eta2 = sc["eta"].with_values(sc["eta"].values + xi.values)
        x2 = picard_solve(sc["coeffs"], eta2, sc["omega"], sc["config"]).solution
        assert np.abs((x2.values - base.values) - y.values).max() <= 1e-9

    def test_matches_direction_on_history(self, workhorse):
        base = base_solution(workhorse)
        xi = workhorse["direction"]
        y = linearized_solve(problem(workhorse, base, xi))
        n_hist = workhorse["config"].n_history
        assert np.array_equal(y.values[:n_hist + 1], xi.values)

    def test_base_coverage_validated(self, workhorse):
        base = base_solution(workhorse)
        with pytest.raises(DomainError):
            LinearizedProblem(coeffs=workhorse["coeffs"],
                              base_solution=base.restrict(-0.25, 0.5),
                              direction=workhorse["direction"],
                              omega=workhorse["omega"],
                              config=workhorse["config"])
        xi = workhorse["direction"]
        with pytest.raises(DomainError, match="dim"):
            problem(workhorse, base, xi.with_values(np.hstack([xi.values] * 2)))


class TestContinuityCheck:
    def test_identical_segments_zero_gap(self, workhorse):
        rep = continuity_check(workhorse["coeffs"], workhorse["eta"],
                               workhorse["eta"], workhorse["omega"],
                               workhorse["config"])
        assert rep.eta_gap == 0.0
        assert rep.pointwise_ok and rep.full_ok

    def test_linear_small_perturbation(self, linear_scenario):
        sc = linear_scenario
        eta2 = sc["eta"].with_values(sc["eta"].values + 0.01)
        rep = continuity_check(sc["coeffs"], sc["eta"], eta2, sc["omega"],
                               sc["config"])
        assert rep.pointwise_ok and rep.full_ok
        assert rep.pointwise_min_margin > 0
        assert rep.full_constant == pytest.approx(1.0 + 1.0 / 0.25)

    def test_zero_coefficients_factor_dominates(self, workhorse):
        co = make_builtin("linear_delay")
        eta2 = workhorse["eta"].with_values(workhorse["eta"].values + 0.01)
        rep = continuity_check(co, workhorse["eta"], eta2, workhorse["omega"],
                               workhorse["config"])
        assert rep.C == 0.0 and rep.N_T == 0
        assert rep.pointwise_ok and rep.full_ok

    def test_sin_fbm_both_sizes(self, workhorse):
        for size in (1e-1, 1e-2):
            eta2 = workhorse["eta"].with_values(workhorse["eta"].values + size)
            rep = continuity_check(workhorse["coeffs"], workhorse["eta"], eta2,
                                   workhorse["omega"], workhorse["config"])
            assert rep.eta_gap == pytest.approx(size, rel=1e-12)
            assert rep.pointwise_ok and rep.full_ok

    def test_vicinity_precondition(self, workhorse):
        eta2 = workhorse["eta"].with_values(workhorse["eta"].values + 2.0)
        with pytest.raises(DomainError, match="<= 1"):
            continuity_check(workhorse["coeffs"], workhorse["eta"], eta2,
                             workhorse["omega"], workhorse["config"])


class TestDifferentiabilityCheck:
    def test_sin_fbm_ladder_decreases(self, workhorse):
        rep = differentiability_check(
            workhorse["coeffs"], workhorse["eta"], workhorse["direction"],
            workhorse["omega"], workhorse["config"])
        eps = [e for e, _ in rep.table]
        assert eps == [1e-1, 1e-2, 1e-3]
        assert rep.decreasing
        assert rep.final_over_initial <= 0.5

    def test_linear_remainder_at_noise_floor(self, linear_scenario):
        sc = linear_scenario
        rep = differentiability_check(sc["coeffs"], sc["eta"],
                                      sc["direction"], sc["omega"],
                                      sc["config"])
        assert rep.max_rho <= 1e-5

    def test_zero_direction(self, workhorse):
        zero = workhorse["direction"].with_values(
            np.zeros_like(workhorse["direction"].values))
        rep = differentiability_check(
            workhorse["coeffs"], workhorse["eta"], zero, workhorse["omega"],
            workhorse["config"], eps_ladder=(1e-1, 1e-2))
        assert rep.max_rho == 0.0
        assert rep.final_over_initial == 0.0

    def test_ladder_validation(self, workhorse):
        args = (workhorse["coeffs"], workhorse["eta"], workhorse["direction"],
                workhorse["omega"], workhorse["config"])
        with pytest.raises(DomainError):
            differentiability_check(*args, eps_ladder=())
        with pytest.raises(DomainError):
            differentiability_check(*args, eps_ladder=(1e-2, 1e-1))
        with pytest.raises(DomainError):
            differentiability_check(*args, eps_ladder=(1e-1, -1e-2))
