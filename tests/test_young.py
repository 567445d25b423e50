import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_path
from ydde.coefficients import composition_path
from ydde.drivers import DriverSpec, gen_deterministic, gen_fbm
from ydde.errors import DomainError
from ydde.paths import GridPath, holder_seminorm
from ydde.solver import picard_solve
from ydde.young import (YoungConstants, certificate_sweep, young_constant,
                        young_integral, young_loeve_gap)


class TestYoungConstant:
    def test_sum_two(self):
        assert young_constant(1.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_formula_value(self):
        # evaluate 1 / (1 - 2^(-0.15)) through exp/log as an independent route
        expected = 1.0 / (1.0 - math.exp(-0.15 * math.log(2.0)))
        got = young_constant(0.4, 0.75)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(10.126629718365387, abs=1e-3)

    def test_diverges_at_boundary(self):
        assert young_constant(0.505, 0.505) > young_constant(0.55, 0.55)
        assert young_constant(0.5005, 0.5005) > young_constant(0.505, 0.505)

    def test_condition_violated(self):
        with pytest.raises(DomainError, match="Young condition"):
            young_constant(0.4, 0.6)

    def test_constants_pair(self):
        yc = YoungConstants(0.55, 0.7, delta=0.9)
        assert yc.K == pytest.approx(young_constant(0.55, 0.7), rel=1e-15)
        assert yc.Kprime == pytest.approx(young_constant(0.495, 0.7), rel=1e-15)
        with pytest.raises(DomainError):
            YoungConstants(0.4, 0.7, delta=0.5)   # delta*beta + nu <= 1
        with pytest.raises(TypeError):
            YoungConstants(0.55, 0.7, K=1.0)      # derived, never given


def linear_path(mesh, T=1.0):
    n = round(T / mesh)
    return GridPath(0.0, mesh, np.linspace(0.0, T, n + 1))


def windowed_integral(x, omega, window):
    """young_integral of both paths restricted to the window."""
    return young_integral(x.restrict(*window), omega.restrict(*window))


class TestYoungIntegral:
    def test_constant_integrand_telescopes(self):
        omega = gen_fbm(DriverSpec(kind="fbm", T=1.0, mesh=1 / 128, hurst=0.75,
                                   seed=3))
        x = GridPath(0.0, 1 / 128, np.full((129, 2), [2.0, -1.0]))
        val = windowed_integral(x, omega, (0.25, 0.75))
        inc = omega.value_at(0.75)[0] - omega.value_at(0.25)[0]
        assert np.allclose(val, [2.0 * inc, -1.0 * inc], atol=1e-14)

    def test_linear_self_integral_discrete_value(self):
        # left sums of t dt equal (1 - h)/2 exactly; the h/2 gap to the
        # continuum value 1/2 is the one-sided quadrature bias
        h = 1 / 1024
        p = linear_path(h)
        val = young_integral(p, p)[0]
        assert val == pytest.approx((1.0 - h) / 2.0, rel=1e-12)
        assert abs(val - 0.5) == pytest.approx(h / 2.0, rel=1e-9)

    def test_linearity_at_fixed_mesh(self):
        omega = gen_fbm(DriverSpec(kind="fbm", T=1.0, mesh=1 / 64, hurst=0.75,
                                   seed=9))
        x = random_path(1, n=64, mesh=1 / 64)
        y = random_path(2, n=64, mesh=1 / 64)
        combo = GridPath(0.0, 1 / 64, 2.5 * x.values - 1.5 * y.values)
        lhs = young_integral(combo, omega)
        rhs = 2.5 * young_integral(x, omega) - 1.5 * young_integral(y, omega)
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_additivity_across_midpoint(self):
        omega = gen_fbm(DriverSpec(kind="fbm", T=1.0, mesh=1 / 64, hurst=0.75,
                                   seed=10))
        x = random_path(3, n=64, mesh=1 / 64)
        whole = windowed_integral(x, omega, (0.0, 1.0))
        split = (windowed_integral(x, omega, (0.0, 0.375))
                 + windowed_integral(x, omega, (0.375, 1.0)))
        assert np.allclose(whole, split, atol=1e-13)

    def test_mesh_mismatch_rejected(self):
        x = linear_path(1 / 64)
        omega = linear_path(1 / 32)
        with pytest.raises(DomainError):
            young_integral(x, omega)

    def test_vector_driver_rejected(self):
        x = linear_path(1 / 32)
        omega = GridPath(0.0, 1 / 32, np.ones((33, 2)))
        with pytest.raises(DomainError):
            young_integral(x, omega)


class TestQuadratureConvergence:
    def test_sine_self_integral_ladder(self):
        # int_0^1 omega domega -> (omega(1)^2 - omega(0)^2)/2 as the mesh halves
        spec = DriverSpec(kind="sine", T=1.0, mesh=1 / 1024, amplitude=1.0,
                          frequency=0.1)
        fine = gen_deterministic(spec)
        target = 0.5 * (fine.values[-1, 0] ** 2 - fine.values[0, 0] ** 2)
        rels = []
        for factor in (8, 4, 2, 1):   # meshes 1/128 .. 1/1024
            om = fine.subsample(factor)
            val = young_integral(om, om)[0]
            rels.append(abs(val - target) / abs(target))
        assert all(b < a for a, b in zip(rels, rels[1:]))
        assert rels[-1] <= 1e-3

    def test_refinement_gap_bounded_by_telescoped_certificate(self):
        # |S_h - S_(h/2)| <= K h^(beta+nu-1) (t-s) |||omega||| |||x||| : the
        # per-cell one-increment gaps telescope across the coarse cells
        beta, nu = 0.55, 0.7
        spec = DriverSpec(kind="sine", T=1.0, mesh=1 / 512, amplitude=1.0,
                          frequency=0.3)
        fine = gen_deterministic(spec)
        x = gen_deterministic(DriverSpec(kind="power", T=1.0, mesh=1 / 512,
                                         exponent=0.75))
        K = young_constant(beta, nu)
        for factor in (4, 2):
            coarse_x, coarse_w = x.subsample(2 * factor), fine.subsample(2 * factor)
            finer_x, finer_w = x.subsample(factor), fine.subsample(factor)
            gap = abs(young_integral(coarse_x, coarse_w)[0]
                      - young_integral(finer_x, finer_w)[0])
            h = coarse_x.mesh
            bound = (K * h ** (beta + nu - 1.0)
                     * holder_seminorm(finer_w, nu)
                     * holder_seminorm(finer_x, beta))
            assert gap <= bound * (1 + 1e-9)


def per_window_sweep(integrands, omega, span, consts, n_windows, seed=0,
                     min_cells=2):
    """The former certificate sweep: two seminorm scans per window, through
    young_loeve_gap."""
    g = np.random.Generator(np.random.Philox(key=int(seed)))
    lo, hi = span
    ilo = omega.index_of(lo, "span start")
    ihi = omega.index_of(hi, "span end")
    worst = 0.0
    violations = 0
    rows = []
    for idx, x in enumerate(integrands):
        ix0 = x.index_of(omega.t0 + ilo * omega.mesh)
        for _ in range(n_windows):
            i = int(g.integers(ilo, ihi - min_cells + 1))
            j = int(g.integers(i + min_cells, ihi + 1))
            window = (omega.t0 + i * omega.mesh, omega.t0 + j * omega.mesh)
            gap, bound = young_loeve_gap(x, omega, window, consts)
            sup_x = float(np.abs(x.values[ix0 + i - ilo:ix0 + j - ilo + 1]).max())
            sum_dw = float(np.abs(np.diff(omega.values[i:j + 1, 0])).sum())
            atol = 1e-13 * (1.0 + sup_x * sum_dw)
            rows.append((idx, window[0], window[1], gap, bound))
            if gap > bound * (1.0 + 1e-9) + atol:
                violations += 1
            if bound > atol:
                worst = max(worst, gap / bound)
    return len(rows), violations, worst, tuple(rows)


def hexed_sweep(n_windows, violations, worst, rows):
    return (n_windows, violations, worst.hex(),
            [tuple(x.hex() if isinstance(x, float) else x for x in row)
             for row in rows])


class TestCertificateSweep:
    @settings(max_examples=100)
    @given(seed=st.integers(0, 2 ** 16), n_windows=st.integers(1, 8),
           min_cells=st.integers(1, 4), dims=st.lists(
               st.sampled_from((1, 2)), min_size=1, max_size=3),
           cut=st.integers(0, 20), exps=st.sampled_from(
               ((0.55, 0.7), (0.3, 0.8), (1.0, 1.0))))
    def test_matches_per_window_loop(self, seed, n_windows, min_cells, dims,
                                     cut, exps):
        h = 1 / 64
        omega = random_path(seed, n=64, mesh=h)
        # integrands from -r, so their nodes sit off the driver's
        integrands = [random_path(seed + 1 + k, n=80, mesh=h, t0=-0.25,
                                  dim=d) for k, d in enumerate(dims)]
        span = (cut * h, 1.0 - (cut // 2) * h)
        consts = YoungConstants(*exps)
        with mock.patch("ydde.young._MIN_CELLS", min_cells):
            got = certificate_sweep(integrands, omega, span, consts,
                                    n_windows, seed)
        want = per_window_sweep(integrands, omega, span, consts, n_windows,
                                seed, min_cells)
        assert hexed_sweep(got.n_windows, got.violations, got.worst_ratio,
                           got.rows) == hexed_sweep(*want)

    def test_fbm_iterates_match_per_window_loop(self, workhorse):
        report = picard_solve(workhorse["coeffs"], workhorse["eta"],
                              workhorse["omega"], workhorse["config"])
        integrands = [report.solution.restrict(0.0, 1.0),
                      report.first_iterate.restrict(0.0, 1.0),
                      report.solution]
        consts = workhorse["config"].young(1.0)
        args = (integrands, workhorse["omega"], (0.0, 1.0), consts, 34, 2)
        got = certificate_sweep(*args)
        assert hexed_sweep(got.n_windows, got.violations, got.worst_ratio,
                           got.rows) == hexed_sweep(*per_window_sweep(*args))

    @pytest.mark.parametrize("kwargs,match", [
        ({"n_windows": -3}, "n_windows"), ({"n_windows": 0}, "n_windows"),
        ({"span": (0.5, 0.5 + 1 / 256)}, "shorter than 2 cells")])
    def test_bad_counts_rejected(self, workhorse, kwargs, match):
        args = {"span": (0.0, 1.0), "n_windows": 5, **kwargs}
        x = random_path(3, n=256, mesh=1 / 256)
        with pytest.raises(DomainError, match=match):
            certificate_sweep([x], workhorse["omega"],
                              consts=YoungConstants(0.55, 0.7), **args)


class TestYoungLoeveGap:
    def test_constant_integrand(self):
        omega = gen_fbm(DriverSpec(kind="fbm", T=1.0, mesh=1 / 128, hurst=0.75,
                                   seed=5))
        x = GridPath(0.0, 1 / 128, np.full(129, 3.0))
        consts = YoungConstants(0.55, 0.7)
        gap, bound = young_loeve_gap(x, omega, (0.0, 1.0), consts)
        assert bound == 0.0
        assert gap <= 1e-13

    def test_linear_pair_closed_form(self):
        h = 1 / 256
        p = linear_path(h)
        consts = YoungConstants(1.0, 1.0)
        gap, bound = young_loeve_gap(p, p, (0.0, 1.0), consts)
        assert gap == pytest.approx((1.0 - h) / 2.0, rel=1e-9)
        assert bound == pytest.approx(2.0, rel=1e-12)
        assert gap <= bound

    def test_certificate_on_fbm_iterates(self, workhorse):
        report = picard_solve(workhorse["coeffs"], workhorse["eta"],
                              workhorse["omega"], workhorse["config"])
        consts = workhorse["config"].young(workhorse["coeffs"].delta)
        integrands = [
            report.solution.restrict(0.0, 1.0),
            composition_path(workhorse["coeffs"].g, report.solution, 0.25,
                             (0.0, 1.0)),
            report.first_iterate.restrict(0.0, 1.0),
        ]
        sweep = certificate_sweep(integrands, workhorse["omega"], (0.0, 1.0),
                                  consts, n_windows=34, seed=12)
        assert sweep.violations == 0
        assert sweep.worst_ratio <= 1.0

