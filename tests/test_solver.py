import math
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MESH, full_pair_max, rng
from ydde import coefficients, solver
from ydde import paths as paths_module
from ydde.cli import load_scenario
from ydde.coefficients import (CoefficientSet, accepts_stacks,
                               composition_path, make_builtin, node_values)
from ydde.drivers import DriverSpec, gen_deterministic, gen_driver, gen_fbm
from ydde.errors import ConvergenceError, DomainError, PartitionError
from ydde.paths import (GridPath, Segment, SegmentView, _node_stack,
                        _pair_max, _row_norms, _segment_norm_parts,
                        holder_norm, holder_seminorm, random_windows,
                        segment_norm)
from ydde.sensitivity import linearized_solve
from ydde.solver import (_INIT_KINDS, GreedyPartition, ProbeReport,
                         SolverConfig, _left_sum_map, _solve_grid, ball_check,
                         compute_contraction_constants, euler_solve, greedy_partition, gronwall_check,
                         growth_bound_check, picard_solve,
                         stopping_count_bound,
                         uniqueness_probe, window_residual)


SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"
SCENARIO_NAMES = sorted(path.stem for path in SCENARIOS.glob("*.json"))


def hexes(values):
    return [v.hex() for v in np.ravel(values).tolist()]


def const_eta(value=1.0, r=0.25, mesh=MESH, dim=1):
    n = round(r / mesh)
    return Segment(r, mesh, np.full((n + 1, dim), value))


def zero_omega(T=1.0, mesh=MESH):
    return gen_deterministic(DriverSpec(kind="zero", T=T, mesh=mesh))


def gallop_partition(omega, config, C):
    """The former greedy partition, kept as an oracle: per window, gallop to
    bracket the last admissible node, then bisect, each probe a fresh pair
    scan of the window."""
    i_end = omega.index_of(config.T, "horizon T")
    i0 = omega.index_of(0.0, "origin")
    threshold = config.mu / C
    h = omega.mesh
    vals = omega.values[:, 0]
    beta, nu = config.beta, config.nu

    def residual(ia, ib):
        span = (ib - ia) * h
        om = _pair_max(vals[ia:ib + 1], h, nu)
        return span ** (1.0 - beta) + span ** (nu - beta) * om

    cuts = [i0]
    residuals = []
    clamped = False
    while cuts[-1] < i_end:
        ia = cuts[-1]
        if residual(ia, ia + 1) > threshold:
            raise PartitionError(
                "refine mesh or increase mu: the first greedy step at "
                f"t={omega.t0 + ia * h!r} is below one mesh cell")
        step = 1
        good = ia + 1
        while good < i_end:
            nxt = min(ia + 2 * step, i_end)
            if residual(ia, nxt) <= threshold:
                good, step = nxt, nxt - ia
            else:
                lo, hi = good, nxt
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if residual(ia, mid) <= threshold:
                        lo = mid
                    else:
                        hi = mid
                good = lo
                break
        res = residual(ia, good)
        if good == i_end and res < threshold:
            clamped = True
        cuts.append(good)
        residuals.append(res)
    times = omega.t0 + h * np.asarray(cuts, dtype=float)
    return GreedyPartition(times=times, residuals=np.asarray(residuals),
                           threshold=threshold, C=C, mu=config.mu,
                           clamped_final=clamped)


def j_cap(config, C):
    """Smallest window length j with (j*h)^(1-beta) above mu / C."""
    j = 1
    while (j * config.mesh) ** (1.0 - config.beta) <= config.mu / C:
        j += 1
    return j


# an fBm driver whose windows (j_cap = 15 cells) are far shorter than [0, T]
CAP_BINDS = (gen_fbm(DriverSpec(kind="fbm", T=1.0, mesh=1 / 512, hurst=0.75,
                                seed=3, amplitude=0.05)),
             SolverConfig(beta=0.55, nu=0.7, mesh=1 / 512, T=1.0, r=0.25),
             1.25)
# mu / C = 0.9 at beta = 0.1: j_cap reaches past the horizon T = 0.5
CAP_PAST_HORIZON = (gen_fbm(DriverSpec(kind="fbm", T=0.5, mesh=1 / 64,
                                       hurst=0.75, seed=5, amplitude=0.5)),
                    SolverConfig(beta=0.1, nu=0.7, mesh=1 / 64, T=0.5,
                                 r=0.25, mu=0.45),
                    0.5)


@st.composite
def partition_cases(draw):
    """A driver (fBm with n <= 512, a power or a sine path), exponents, mu
    and C; a rough driver with a large C fails the first greedy step."""
    T = draw(st.sampled_from((0.5, 1.0)))
    mesh = draw(st.sampled_from((1 / 64, 1 / 128, 1 / 256, 1 / 512)))
    kind = draw(st.sampled_from(("fbm", "power", "sine")))
    amplitude = draw(st.floats(0.01, 4.0))
    if kind == "fbm":
        omega = gen_fbm(DriverSpec(kind="fbm", T=T, mesh=mesh,
                                   hurst=draw(st.floats(0.55, 0.95)),
                                   seed=draw(st.integers(0, 2 ** 64 - 1)),
                                   amplitude=amplitude))
    else:
        omega = gen_deterministic(DriverSpec(
            kind=kind, T=T, mesh=mesh, amplitude=amplitude,
            exponent=draw(st.floats(0.3, 1.0)),
            frequency=draw(st.floats(0.5, 20.0))))
    nu = draw(st.floats(0.55, 1.0))
    beta = nu * draw(st.floats(0.1, 0.95))
    mu = draw(st.floats(0.05, 0.45))
    C = mu * draw(st.floats(1.01, 40.0))
    config = SolverConfig(beta=beta, nu=nu, mesh=mesh, T=T, r=0.25, mu=mu)
    return omega, config, C


def former_window_residual(omega, beta, nu, s, t):
    """window_residual as it once was, one window and one pair scan at a
    time; kept as the oracle of the batched form."""
    i0, i1 = omega.window_indices((s, t))
    span = (i1 - i0) * omega.mesh
    om = _pair_max(omega.values[i0:i1 + 1, 0], omega.mesh, nu)
    return span ** (1.0 - beta) + span ** (nu - beta) * om


class TestSolverConfig:
    def test_validation(self):
        good = dict(beta=0.55, nu=0.7, mesh=1 / 64, T=1.0, r=0.25)
        SolverConfig(**good)
        for bad in (dict(nu=0.5), dict(beta=0.7), dict(beta=0.75),
                    dict(mu=0.5), dict(mu=0.0), dict(mesh=0.3),
                    dict(r=0.33), dict(T=-1.0), dict(picard_tol=0.0),
                    # NaN fails every comparison; inf has no grid index
                    dict(picard_tol=float("nan")), dict(picard_tol=math.inf),
                    dict(T=math.inf), dict(mesh=float("nan")),
                    dict(r=math.inf), dict(picard_max_iters=2.5),
                    dict(picard_max_iters=True), dict(picard_max_iters=0)):
            with pytest.raises(DomainError):
                SolverConfig(**{**good, **bad})

    def test_young_condition_needs_delta(self):
        cfg = SolverConfig(beta=0.55, nu=0.7, mesh=1 / 64, T=1.0, r=0.25)
        cfg.young(1.0)
        with pytest.raises(DomainError):
            cfg.young(0.5)    # 0.275 + 0.7 <= 1

    def test_grid_counts(self):
        cfg = SolverConfig(beta=0.55, nu=0.7, mesh=1 / 64, T=1.0, r=0.25)
        assert cfg.n_history == 16 and cfg.n_horizon == 64


class TestContractionConstants:
    def test_eqcmax_substitution(self):
        # |g(0)| = 1/2, L' = 1, L_g = 1 and K = 1 / (1 - 2^(-1/2)) = 2 + sqrt 2
        # give C = 2 (|g0| + L' + L_g (K + 1)) = 9 + 2 sqrt 2
        co = make_builtin("linear_delay", A=1.0, B=0.0, Sigma=1.0, c=0.5)
        cfg = SolverConfig(beta=0.5, nu=1.0, mesh=1 / 64, T=1.0, r=0.25)
        cc = compute_contraction_constants(co, cfg)
        assert cc.young.K == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-15)
        assert cc.C == pytest.approx(9.0 + 2.0 * math.sqrt(2.0), rel=1e-15)
        assert cc.coeffs is co

    def test_zero_coefficients_give_zero_C(self):
        # C = 0 selects greedy_partition's single window
        co = make_builtin("linear_delay")
        cfg = SolverConfig(beta=0.55, nu=0.7, mesh=1 / 64, T=1.0, r=0.25)
        assert compute_contraction_constants(co, cfg).C == 0.0

    def test_L_reduces_without_holder_modulus(self):
        # L_M = 0 leaves L(span, M) = L_f + L_g + L_g K' span^beta
        co = make_builtin("linear_delay", A=-0.4, B=0.1, Sigma=0.3, c=0.0)
        cfg = SolverConfig(beta=0.55, nu=0.7, mesh=1 / 64, T=1.0, r=0.25)
        cc = compute_contraction_constants(co, cfg)
        for span in (0.1, 0.5, 1.0):
            expected = (co.L_f + co.L_g
                        + co.L_g * cc.young.Kprime * span ** 0.55)
            assert cc.L(span, M=7.0) == pytest.approx(expected, rel=1e-12)


class TestGreedyPartition:
    def test_flat_driver_uniform_windows(self):
        # without driver mass the residual is span^(1-beta): all windows
        # snap to floor(w/h) cells of the analytic length (mu/C)^(1/(1-beta))
        cfg = SolverConfig(beta=0.4, nu=0.7, mesh=1 / 1024, T=1.0, r=0.25)
        omega = zero_omega(mesh=1 / 1024)
        part = greedy_partition(omega, cfg, C=8.0)
        analytic = (cfg.mu / 8.0) ** (1.0 / 0.6)
        snapped = math.floor(analytic / cfg.mesh) * cfg.mesh
        assert abs(snapped - analytic) <= cfg.mesh
        lengths = np.diff(part.times)
        assert np.allclose(lengths[:-1], snapped, atol=1e-12)
        expected = math.ceil(1.0 / snapped)
        assert abs(part.n_windows - expected) <= 2
        assert part.N in (part.n_windows, part.n_windows - 1)

    def test_residuals_below_threshold_and_maximal(self, workhorse):
        cfg, omega = workhorse["config"], workhorse["omega"]
        C = compute_contraction_constants(workhorse["coeffs"], cfg).C
        part = greedy_partition(omega, cfg, C)
        assert np.all(part.residuals <= part.threshold * (1 + 1e-12))
        for (ta, tb) in part.windows():
            nxt = tb + cfg.mesh
            if nxt <= cfg.T + 1e-12:
                assert window_residual(omega, cfg.beta, cfg.nu,
                                       [(ta, nxt)])[0] > part.threshold

    @settings(max_examples=100)
    @given(case=partition_cases(), data=st.data())
    def test_window_residual_matches_per_window(self, case, data):
        # one-cell, short and whole-horizon windows, in one batch
        omega, cfg, _ = case
        n, h = omega.n_intervals, omega.mesh
        nodes = [(0, n), (n - 1, n)] + random_windows(
            data.draw(st.integers(0, 2 ** 16)), 0, n, 1,
            data.draw(st.integers(0, 12)))
        windows = [(i * h, j * h) for i, j in nodes]
        got = window_residual(omega, cfg.beta, cfg.nu, windows)
        want = [former_window_residual(omega, cfg.beta, cfg.nu, s, t)
                for s, t in windows]
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("seed", range(5))
    def test_count_bound_on_fbm(self, seed):
        cfg = SolverConfig(beta=0.55, nu=0.7, mesh=MESH, T=1.0, r=0.25)
        omega = gen_fbm(DriverSpec(kind="fbm", T=1.0, mesh=MESH, hurst=0.75,
                                   seed=seed, amplitude=0.05))
        part = greedy_partition(omega, cfg, C=1.25)
        assert part.N <= stopping_count_bound(omega, cfg, 1.25)

    def test_first_step_too_rough(self):
        cfg = SolverConfig(beta=0.55, nu=0.7, mesh=1 / 64, T=1.0, r=0.25)
        omega = gen_fbm(DriverSpec(kind="fbm", T=1.0, mesh=1 / 64, hurst=0.75,
                                   seed=0, amplitude=10.0))
        with pytest.raises(PartitionError, match="refine mesh or increase mu"):
            greedy_partition(omega, cfg, C=200.0)

    def test_mu_versus_C_validated(self):
        cfg = SolverConfig(beta=0.55, nu=0.7, mesh=1 / 64, T=1.0, r=0.25)
        with pytest.raises(DomainError):
            greedy_partition(zero_omega(mesh=1 / 64), cfg, C=0.2)  # mu >= C

    @settings(max_examples=150)
    @given(case=partition_cases())
    # a flat driver whose residual meets mu / C = 1/4 exactly at 4 cells
    @example(case=(zero_omega(mesh=1 / 64),
                   SolverConfig(beta=0.5, nu=0.7, mesh=1 / 64, T=1.0, r=0.25),
                   1.0))
    @example(case=CAP_BINDS)
    @example(case=CAP_PAST_HORIZON)
    def test_matches_gallop_bisect_bitwise(self, case):
        omega, config, C = case
        try:
            want = gallop_partition(omega, config, C)
        except PartitionError as exc:
            with pytest.raises(PartitionError) as got:
                greedy_partition(omega, config, C)
            assert str(got.value) == str(exc)
            return
        got = greedy_partition(omega, config, C)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.residuals.tobytes() == want.residuals.tobytes()
        assert got.clamped_final == want.clamped_final

    @pytest.mark.parametrize("case", [CAP_BINDS, CAP_PAST_HORIZON, None])
    def test_scan_stops_at_j_cap(self, monkeypatch, workhorse, case):
        if case is None:
            omega, config = workhorse["omega"], workhorse["config"]
            C = compute_contraction_constants(workhorse["coeffs"], config).C
        else:
            omega, config, C = case
        lengths = []

        def recording(v, *args, **kwargs):
            lengths.append(len(v))
            return pair_blocks(v, *args, **kwargs)

        pair_blocks = solver._pair_blocks
        monkeypatch.setattr(solver, "_pair_blocks", recording)
        part = greedy_partition(omega, config, C)
        cap = j_cap(config, C)
        assert len(lengths) == part.n_windows
        assert max(lengths) == min(cap, config.n_horizon) + 1
        assert (cap > config.n_horizon) == (case is CAP_PAST_HORIZON)

    def test_stopping_time_counter(self):
        cfg = SolverConfig(beta=0.55, nu=0.7, mesh=1 / 64, T=1.0, r=0.25)
        part = greedy_partition(zero_omega(mesh=1 / 64), cfg, C=1.0)
        st = part.stopping_times
        ts = np.concatenate(([0.0, 0.5, 1.0], st, st - 1e-3, st + 1e-12))
        counts = part.n_at(ts)
        assert counts[0] == 0
        assert counts[2] == part.N
        for t, c in zip(ts.tolist(), counts.tolist()):
            n = part.n_at(t)
            assert type(n) is int and n == c
            # N(t) counts the stopping times up to t, with a relative slack
            assert n == int(np.sum(st <= t + 1e-9 * max(1.0, abs(t))))


def constant_drift_coeffs(value=1.0, stacks=False):
    """Custom set with f identically ``value`` (not a linear family member);
    written for segments and stacks alike, marked so only if ``stacks``."""
    vec = np.atleast_1d(np.asarray(value, dtype=float))
    mark = accepts_stacks if stacks else (lambda func: func)

    @mark
    def f(seg):
        return np.broadcast_to(vec, seg.values.shape[1:])

    @mark
    def zero(seg):
        return np.zeros(seg.values.shape[1:])

    @mark
    def dzero(seg, direction):
        return np.zeros(seg.values.shape[1:])

    return CoefficientSet(f=f, g=zero, Df=dzero, Dg=dzero, L_f=0.0, L_g=0.0,
                          L_M=lambda M: 0.0, delta=1.0,
                          f0_norm=float(np.linalg.norm(vec)), g0_norm=0.0,
                          dim=len(vec), family="custom")


def window_increments(x, omega, window):
    """Node indices ``(ia, ib)`` of the window on x, and the driver
    increments ``dw[k]`` over ``[t_k, t_{k+1}]`` for k in ``[ia, ib)``, zero
    elsewhere."""
    ia, ib = x.index_of(window[0]), x.index_of(window[1])
    j0 = omega.index_of(window[0])
    dw = np.zeros(x.values.shape[0])
    dw[ia:ib] = np.diff(omega.values[j0:j0 + (ib - ia) + 1, 0])
    return ia, ib, dw


def map_F(x, coeffs, omega, window, delay):
    """One application of the integral map F on the window, by the solver's
    step kernel: x unchanged up to t_a, then ``x(t_a) + int f + int g
    domega`` (left sums)."""
    ia, ib, dw = window_increments(x, omega, window)
    values = np.array(x.values)
    values[ia + 1:ib + 1] = _left_sum_map(coeffs.f, coeffs.g,
                                          (x.values[:, None],), ia, ib, delay,
                                          x.mesh, dw)()[:, 0]
    return GridPath(x.t0, x.mesh, values)


class TestMapF:
    def test_zero_dynamics_freezes_start(self):
        co = make_builtin("linear_delay")
        omega = zero_omega()
        x = GridPath(-0.25, MESH, np.linspace(0.0, 1.25, 321))
        out = map_F(x, co, omega, (0.25, 0.5), 0.25)
        i = x.index_of(0.25)
        assert np.allclose(out.values[i:x.index_of(0.5) + 1],
                           x.value_at(0.25), atol=0)
        assert np.array_equal(out.values[:i], x.values[:i])

    def test_unit_drift_is_linear_ramp(self):
        co = constant_drift_coeffs(1.0)
        omega = zero_omega()
        x = GridPath(-0.25, MESH, np.zeros(321))
        out = map_F(x, co, omega, (0.25, 0.75), 0.25)
        for t in (0.25, 0.375, 0.5, 0.75):
            assert out.value_at(t)[0] == pytest.approx(t - 0.25, abs=1e-12)

    def test_true_solution_is_near_fixed_point(self):
        # solve on a fine mesh, subsample, apply F: the defect is O(mesh)
        co = make_builtin("linear_delay", A=-0.5, B=0.25, Sigma=0.3, c=0.0)
        defects = []
        for factor in (1, 2):
            mesh = 1 / (256 * factor)
            fine_mesh = mesh / 8
            cfg_fine = SolverConfig(beta=0.55, nu=0.7, mesh=fine_mesh, T=1.0,
                                    r=0.25)
            omega_fine = gen_deterministic(
                DriverSpec(kind="sine", T=1.0, mesh=fine_mesh, amplitude=0.5,
                           frequency=0.5))
            eta = const_eta(mesh=fine_mesh)
            x_fine = euler_solve(co, eta, omega_fine, cfg_fine)
            x = x_fine.subsample(8)
            omega = omega_fine.subsample(8)
            out = map_F(x, co, omega, (0.25, 0.5), 0.25)
            i0, i1 = x.index_of(0.25), x.index_of(0.5)
            defects.append(np.abs(out.values[i0:i1 + 1]
                                  - x.values[i0:i1 + 1]).max())
        assert defects[0] <= 0.05
        assert defects[0] / defects[1] == pytest.approx(2.0, abs=0.8)


# The per-segment loops that the step kernel replaced, kept as its oracles.

def loop_map_F(x, coeffs, omega, window, delay):
    """map_F as one loop over freshly built segments."""
    m_r = round(delay / x.mesh)
    ia, ib, dw = window_increments(x, omega, window)
    values = np.array(x.values)
    drift_vals = np.empty((ib - ia, x.dim))
    diff_vals = np.empty((ib - ia, x.dim))
    for k in range(ia, ib):
        seg = Segment(delay, x.mesh, values[k - m_r:k + 1])
        drift_vals[k - ia] = coeffs.f(seg)
        diff_vals[k - ia] = coeffs.g(seg)
    values[ia + 1:ib + 1] = values[ia] + np.cumsum(
        drift_vals * x.mesh + diff_vals * dw[ia:ib, None], axis=0)
    return values


def loop_euler(coeffs, eta, omega, config):
    """euler_solve as one loop over freshly built segments."""
    m_r, n = config.n_history, config.n_history + config.n_horizon
    h = config.mesh
    values = np.zeros((n + 1, coeffs.dim))
    values[:m_r + 1] = eta.values
    j0 = omega.index_of(0.0)
    dw = np.diff(omega.values[j0:j0 + config.n_horizon + 1, 0])
    for k in range(m_r, n):
        seg = Segment(config.r, h, values[k - m_r:k + 1])
        values[k + 1] = (values[k] + coeffs.f(seg) * h
                         + coeffs.g(seg) * dw[k - m_r])
    return values


def loop_composition(func, path, r, ja, jb):
    """composition_path on nodes [ja, jb] as one loop."""
    mr = round(r / path.mesh)
    out = np.empty((jb - ja + 1, path.dim))
    for k in range(ja, jb + 1):
        seg = Segment(r, path.mesh, path.values[k - mr:k + 1])
        out[k - ja] = func(seg)
    return out


def loop_linearized_map(coeffs, base, values, ia, ib, m_r, h, dw):
    """One application of the linearized map on (ia, ib], with the base
    segments built up front and looked up by node."""
    base_segments = [Segment(m_r * h, h, base[k - m_r:k + 1])
                     for k in range(m_r, base.shape[0] - 1)]
    drift = lambda seg, k: coeffs.Df(base_segments[k - m_r], seg)  # noqa: E731
    diffusion = lambda seg, k: coeffs.Dg(base_segments[k - m_r], seg)  # noqa: E731
    drift_vals = np.empty((ib - ia, values.shape[1]))
    diff_vals = np.empty((ib - ia, values.shape[1]))
    for k in range(ia, ib):
        seg = Segment(m_r * h, h, values[k - m_r:k + 1])
        drift_vals[k - ia] = drift(seg, k)
        diff_vals[k - ia] = diffusion(seg, k)
    return values[ia] + np.cumsum(drift_vals * h + diff_vals * dw[ia:ib, None],
                                  axis=0)


@st.composite
def kernel_cases(draw):
    """A built-in family (d in {1, 2}; the logistic family is scalar), a
    history length m_r, a horizon of n_h cells, a generator for the data,
    and the family's parameters."""
    family = draw(st.sampled_from(("linear_delay", "sin_delay",
                                   "scalar_logistic_bounded")))
    dim = 1 if family == "scalar_logistic_bounded" else \
        draw(st.sampled_from((1, 2)))
    g = rng(draw(st.integers(0, 2 ** 32 - 1)))
    if family == "scalar_logistic_bounded":
        params = dict(a=g.normal(), sigma=g.normal(), c=g.normal())
    else:
        params = {"dim": dim, "A": g.normal(size=(dim, dim)),
                  "B": g.normal(size=(dim, dim))}
        params.update({"Sigma": g.normal(size=(dim, dim)),
                       "c": g.normal(size=dim)}
                      if family == "linear_delay" else {"sigma": g.normal()})
    m_r = draw(st.integers(1, 5))
    n_h = draw(st.integers(1, 12))
    return make_builtin(family, **params), m_r, n_h, g, params


@st.composite
def euler_cases(draw):
    """A kernel case whose horizon is mostly long enough to be swept (up to
    three sweep blocks), with the drift scaled so that |A| h (2 |a| h for the
    logistic family) is up to 3 at the oracle mesh 1/16."""
    coeffs, m_r, _, g, params = draw(kernel_cases())
    long = draw(st.sampled_from((True, True, False)))
    n_h = draw(st.integers(solver._SWEEP_MIN, 3 * solver._SWEEP_NODES)
               if long else st.integers(1, solver._SWEEP_MIN - 1))
    stiffness = draw(st.sampled_from((0.1, 1.0, 3.0))) * draw(
        st.floats(0.0, 1.0)) * 16
    if coeffs.family == "scalar_logistic_bounded":
        params["a"] = -0.5 * stiffness
    else:
        params["A"] = scaled_matrix(params["A"], stiffness)
    return make_builtin(coeffs.family, **params), m_r, n_h, g


def scaled_matrix(mat, norm):
    return mat * (norm / max(np.linalg.norm(mat, 2), 1e-300))


class TestStepKernelOracle:
    h = 1 / 16

    @settings(max_examples=150)
    @given(case=kernel_cases(), data=st.data())
    def test_map_F_matches_loop(self, case, data):
        coeffs, m_r, n_h, g, _ = case
        n = m_r + n_h
        x = GridPath(-m_r * self.h, self.h, g.normal(size=(n + 1, coeffs.dim)))
        omega = GridPath(x.t0, self.h, g.normal(size=n + 1))
        ia = data.draw(st.integers(m_r, n - 1))
        ib = data.draw(st.integers(ia + 1, n))
        window = (x.t0 + ia * self.h, x.t0 + ib * self.h)
        delay = m_r * self.h
        assert np.array_equal(map_F(x, coeffs, omega, window, delay).values,
                              loop_map_F(x, coeffs, omega, window, delay))

    @settings(max_examples=150)
    @given(case=euler_cases())
    def test_euler_matches_loop(self, case):
        # short runs take the loop; long ones are swept, and stiff ones
        # (|A| h up to 3) hand the rest to the loop
        coeffs, m_r, n_h, g = case
        cfg = SolverConfig(beta=0.55, nu=0.7, mesh=self.h, T=n_h * self.h,
                           r=m_r * self.h)
        eta = Segment(cfg.r, self.h, g.normal(size=(m_r + 1, coeffs.dim)))
        omega = GridPath(0.0, self.h, 0.1 * g.normal(size=n_h + 1))
        try:
            want = loop_euler(coeffs, eta, omega, cfg)
        except DomainError:     # a segment overflowed to inf or NaN
            want = None
        if want is None or not np.all(np.isfinite(want)):
            with pytest.raises(DomainError, match="must be finite"):
                euler_solve(coeffs, eta, omega, cfg)
        else:
            assert hexes(euler_solve(coeffs, eta, omega, cfg).values) \
                == hexes(want)

    @settings(max_examples=150)
    @given(case=kernel_cases(), data=st.data())
    def test_composition_matches_loop(self, case, data):
        coeffs, m_r, n_h, g, _ = case
        n = m_r + n_h
        path = GridPath(-m_r * self.h, self.h,
                        g.normal(size=(n + 1, coeffs.dim)))
        ja = data.draw(st.integers(m_r, n))
        jb = data.draw(st.integers(ja, n))
        window = (path.t0 + ja * self.h, path.t0 + jb * self.h)
        for func in (coeffs.f, coeffs.g):
            comp = composition_path(func, path, m_r * self.h, window)
            assert np.array_equal(comp.values, loop_composition(
                func, path, m_r * self.h, ja, jb))

    @settings(max_examples=150)
    @given(case=kernel_cases(), data=st.data())
    def test_linearized_map_matches_loop(self, case, data):
        coeffs, m_r, n_h, g, _ = case
        cfg = SolverConfig(beta=0.55, nu=0.7, mesh=self.h, T=n_h * self.h,
                           r=m_r * self.h)
        direction = Segment(cfg.r, self.h,
                            g.normal(size=(m_r + 1, coeffs.dim)))
        omega = GridPath(0.0, self.h, g.normal(size=n_h + 1))
        values, dw = _solve_grid(cfg, [direction], omega)
        assert values.shape == (m_r + n_h + 1, 1, coeffs.dim)
        values[m_r + 1:, 0] = g.normal(size=(n_h, coeffs.dim))
        base = g.normal(size=values.shape)
        ia = data.draw(st.integers(m_r, m_r + n_h - 1))
        ib = data.draw(st.integers(ia + 1, m_r + n_h))
        kernel = _left_sum_map(coeffs.Df, coeffs.Dg, (base, values), ia, ib,
                               m_r * self.h, self.h, dw)()
        assert np.array_equal(kernel[:, 0], loop_linearized_map(
            coeffs, base[:, 0], values[:, 0], ia, ib, m_r, self.h, dw))

    @settings(max_examples=150)
    @given(case=kernel_cases(), data=st.data())
    def test_stacked_call_matches_segment_loop(self, case, data):
        # each built-in functional called once on the node-major stacks of
        # the segments cut at nodes [ka, kb), against one call per Segment,
        # bit for bit: the accepts_stacks contract the Picard map and the
        # Euler sweeps rely on
        coeffs, m_r, n_h, g, _ = case
        n, r = m_r + n_h, m_r * self.h
        arrays = (g.normal(size=(n + 1, coeffs.dim)),
                  g.normal(size=(n + 1, coeffs.dim)))
        ka = data.draw(st.integers(m_r, n))
        kb = data.draw(st.integers(ka + 1, n + 1))
        stacks = [SegmentView(r, self.h, _node_stack(a, ka, kb, m_r))
                  for a in arrays]
        segs = [[Segment(r, self.h, a[k - m_r:k + 1]) for a in arrays]
                for k in range(ka, kb)]
        funcs = ((coeffs.f, 1), (coeffs.g, 1), (coeffs.Df, 2), (coeffs.Dg, 2))
        for func, n_args in funcs:
            looped = np.array([func(*node[2 - n_args:]) for node in segs])
            assert hexes(func(*stacks[2 - n_args:])) == hexes(looped)
            got, = node_values((func,), arrays[2 - n_args:], ka, kb, r, self.h)
            assert hexes(got) == hexes(looped)

    @settings(max_examples=100)
    @given(case=kernel_cases())
    def test_segment_form_matches_former_products(self, case):
        # the matrix parts equal the former per-row ``A @ v`` products
        coeffs, m_r, _, g, params = case
        if coeffs.family == "scalar_logistic_bounded":
            return
        A, B = params["A"], params["B"]
        seg, direction = (Segment(m_r * self.h, self.h,
                                  g.normal(size=(m_r + 1, coeffs.dim)))
                          for _ in range(2))
        v, u = seg.values, direction.values
        assert np.array_equal(coeffs.f(seg), A @ v[-1] + B @ v[0])
        assert np.array_equal(coeffs.Df(seg, direction), A @ u[-1] + B @ u[0])
        if coeffs.family == "linear_delay":
            Sigma, c = params["Sigma"], params["c"]
            assert np.array_equal(coeffs.g(seg), Sigma @ v[0] + c)
            assert np.array_equal(coeffs.Dg(seg, direction), Sigma @ u[0])


def unmarked(coeffs):
    """The same functionals behind wrappers that do not accept stacks."""
    return replace(coeffs, f=lambda seg: coeffs.f(seg),
                   g=lambda seg: coeffs.g(seg),
                   Df=lambda seg, direction: coeffs.Df(seg, direction),
                   Dg=lambda seg, direction: coeffs.Dg(seg, direction))


@pytest.fixture
def segment_count(monkeypatch):
    """A list that grows by one for each Segment built."""
    built = []
    post_init = Segment.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(Segment, "__post_init__", counting)
    return built


class TestBatchedCoefficients:
    def test_one_call_per_window_iterate(self, workhorse, segment_count):
        co = workhorse["coeffs"]
        widths = {"f": [], "g": []}

        def counted(name):
            func = getattr(co, name)

            @accepts_stacks
            def wrapper(seg):
                widths[name].append(seg.values.shape[1])
                return func(seg)
            return wrapper

        rep = picard_solve(replace(co, f=counted("f"), g=counted("g")),
                           workhorse["eta"], workhorse["omega"],
                           workhorse["config"])
        # one stacked call per Picard iterate, covering the whole window
        h = workhorse["config"].mesh
        want = sorted(w for rec in rep.windows for w in [
            round((rec.t_end - rec.t_start) / h)] * rec.iterations)
        assert sorted(widths["f"]) == sorted(widths["g"]) == want
        assert not segment_count

    def test_segment_views_made_once_per_window(self, workhorse, monkeypatch):
        # the node stacks of a window see the rows each iterate writes, so
        # they are made once per window (per array), not once per iterate
        stacked = []

        def spy(*args):
            stacked.append(args[1:3])
            return node_stack(*args)

        node_stack = coefficients._node_stack
        monkeypatch.setattr(coefficients, "_node_stack", spy)
        co, omega = workhorse["coeffs"], workhorse["omega"]
        rep = picard_solve(co, workhorse["eta"], omega, workhorse["config"])
        windows = [tuple(rep.solution.index_of(t)
                         for t in (rec.t_start, rec.t_end))
                   for rec in rep.windows]
        assert not any(rec.split for rec in rep.windows)
        assert stacked == windows
        assert sum(rep.window_iterations) > 3 * len(windows)
        del stacked[:]
        uniqueness_probe(rep)  # two columns in lockstep
        assert stacked == windows

    @pytest.mark.parametrize("family", ["constant_drift", "sin_delay_d2"])
    def test_unmarked_set_takes_segment_loop_bitwise(self, workhorse, family,
                                                     segment_count):
        omega, cfg = workhorse["omega"], workhorse["config"]
        if family == "constant_drift":
            marked = constant_drift_coeffs(0.5, stacks=True)
            plain = constant_drift_coeffs(0.5)
            eta = const_eta()
        else:
            marked = make_builtin("sin_delay", dim=2,
                                  A=[[-0.15, 0.05], [0.02, -0.1]],
                                  B=[[0.1, 0.0], [0.03, 0.05]], sigma=0.05)
            plain = unmarked(marked)
            eta = Segment(cfg.r, cfg.mesh, np.column_stack(
                [workhorse[k].values[:, 0] for k in ("eta", "direction")]))
        runs = []
        for co in (marked, plain):
            del segment_count[:]
            rep = picard_solve(co, eta, omega, cfg)
            lin = linearized_solve(rep, eta)
            runs.append((rep.solution.values, lin.values,
                         euler_solve(co, eta, omega, cfg).values,
                         composition_path(co.g, rep.solution, cfg.r).values,
                         len(segment_count)))
        assert runs[0][-1] == 0 < runs[1][-1]
        for got, want in zip(runs[1][:-1], runs[0][:-1]):
            assert np.array_equal(got, want)

    def test_marked_functional_must_return_one_row_per_segment(self):
        co = constant_drift_coeffs(0.5)
        bad = replace(co, f=accepts_stacks(lambda seg: np.ones(1)))
        values = np.zeros((9, 1))
        with pytest.raises(DomainError, match="accepts_stacks"):
            node_values((bad.f, bad.g), (values,), 4, 8, 4 * MESH, MESH)


class TestPicardSolve:
    def test_zero_dynamics_constant_solution(self, workhorse):
        co = make_builtin("linear_delay")
        eta = const_eta(2.5)
        rep = picard_solve(co, eta, workhorse["omega"], workhorse["config"])
        i0 = rep.solution.index_of(0.0)
        assert np.all(rep.solution.values[i0:] == 2.5)
        assert rep.partition.N == 0
        assert rep.partition.n_windows == 1

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_report_carries_its_problem(self, name):
        # the coefficients, the driver and, bitwise, the start solved from
        scenario = load_scenario(str(SCENARIOS / f"{name}.json"))
        omega = gen_driver(scenario.driver)
        rep = picard_solve(scenario.coefficients, scenario.eta, omega,
                           scenario.config)
        assert rep.coeffs is scenario.coefficients and rep.omega is omega
        assert (rep.eta.delay, rep.eta.mesh) == (scenario.eta.delay,
                                                 scenario.eta.mesh)
        assert hexes(rep.eta.values) == hexes(scenario.eta.values)

    def test_trivial_partition_ball_diagnostic(self):
        # zero coefficients: one window over the whole horizon, scanned in
        # many blocks of upper nodes; the ball norm is the solution's norm
        rep = zero_coefficient_solve()
        assert rep.partition.n_windows == 1 and not rep.windows[0].split
        assert rep.ball_ok
        (_, max_norm), = ball_check(rep).rows
        assert max_norm == holder_norm(rep.solution, rep.config.beta)

    def test_exponential_decay_oracle(self):
        cfg = SolverConfig(beta=0.55, nu=0.7, mesh=1 / 1024, T=1.0, r=0.25)
        co = make_builtin("linear_delay", A=-1.0, B=0.0, Sigma=0.0, c=0.0)
        rep = picard_solve(co, const_eta(mesh=1 / 1024), zero_omega(mesh=1 / 1024),
                           cfg)
        i0 = rep.solution.index_of(0.0)
        t = np.linspace(0.0, 1.0, 1025)
        err = np.abs(rep.solution.values[i0:, 0] - np.exp(-t)).max()
        assert err <= 1e-3

    def test_additive_noise_telescopes(self, workhorse):
        co = make_builtin("linear_delay", A=0.0, B=0.0, Sigma=0.0, c=0.5)
        omega, cfg = workhorse["omega"], workhorse["config"]
        rep = picard_solve(co, const_eta(), omega, cfg)
        i0 = rep.solution.index_of(0.0)
        closed = 1.0 + 0.5 * (omega.values[:, 0] - omega.values[0, 0])
        assert np.abs(rep.solution.values[i0:, 0] - closed).max() <= 1e-12

    def test_history_embedded_exactly(self, workhorse):
        rep = picard_solve(workhorse["coeffs"], workhorse["eta"],
                           workhorse["omega"], workhorse["config"])
        n_hist = workhorse["config"].n_history
        assert np.array_equal(rep.solution.values[:n_hist + 1],
                              workhorse["eta"].values)

    def test_residuals_within_tolerance(self, workhorse):
        rep = picard_solve(workhorse["coeffs"], workhorse["eta"],
                           workhorse["omega"], workhorse["config"])
        assert max(rep.window_residuals) <= workhorse["config"].picard_tol
        assert rep.ball_ok
        for radius, max_norm in ball_check(rep).rows:
            assert max_norm <= radius * (1 + 1e-9)

    def test_contraction_ratio_observed(self, workhorse):
        rep = picard_solve(workhorse["coeffs"], workhorse["eta"],
                           workhorse["omega"], workhorse["config"])
        ratios = [r for w in rep.windows for r in w.contraction_ratios]
        assert ratios, "expected at least one recorded contraction ratio"
        assert max(ratios) <= workhorse["config"].mu * 1.5

    def test_nu_seminorm_diagnostic_recorded(self, workhorse):
        rep = picard_solve(workhorse["coeffs"], workhorse["eta"],
                           workhorse["omega"], workhorse["config"])
        direct = holder_seminorm(rep.solution, 0.7, (0.0, 1.0))
        assert rep.nu_seminorm == pytest.approx(direct, rel=1e-12)
        assert math.isfinite(rep.nu_seminorm)

    def test_nonconvergence_carries_residuals(self, workhorse):
        cfg = SolverConfig(beta=0.55, nu=0.7, mesh=MESH, T=1.0, r=0.25,
                           picard_tol=1e-10, picard_max_iters=1)
        with pytest.raises(ConvergenceError) as err:
            picard_solve(workhorse["coeffs"], workhorse["eta"],
                         workhorse["omega"], cfg)
        assert err.value.residual_history

    @pytest.mark.parametrize("marked", [True, False],
                             ids=["marked", "unmarked"])
    def test_nan_functional_raises_on_its_first_window(self, workhorse,
                                                       monkeypatch, marked):
        # g turns NaN once s(-r) > 0.99, so the first iterate of that window
        # is not finite: its column stops at once, unconverged, before a
        # functional sees it.  The window splits once and the half that
        # fails raises, before any later window runs; an unmarked g ends in
        # the same error as a marked one
        base = workhorse["coeffs"]

        def g(seg):
            return np.where(seg.values[0] > 0.99, np.nan, base.g(seg))

        if marked:
            g = accepts_stacks(g)

        calls, windows = [], []
        stops = solver._WindowedPicard._stops
        run_window = solver._WindowedPicard.run_window

        def count_stops(self, res, *args):
            calls.append((windows[-1], res))
            return stops(self, res, *args)

        def count_windows(self, ia, ib, kinds, depth=0):
            windows.append((ia, ib, depth))
            return run_window(self, ia, ib, kinds, depth)

        monkeypatch.setattr(solver._WindowedPicard, "_stops", count_stops)
        monkeypatch.setattr(solver._WindowedPicard, "run_window",
                            count_windows)
        config = workhorse["config"]
        with pytest.raises(ConvergenceError) as err:
            picard_solve(replace(base, g=g), workhorse["eta"],
                         workhorse["omega"], config)
        nan_calls = [window for window, res in calls if math.isnan(res)]
        ia, ib, depth = nan_calls[0]
        mid = (ia + ib) // 2
        assert depth == 0
        assert windows[windows.index((ia, ib, 0)):] in (
            [(ia, ib, 0), (ia, mid, 1)],
            [(ia, ib, 0), (ia, mid, 1), (mid, ib, 1)])
        assert f"nodes [{windows[-1][0]}, {windows[-1][1]}]" in str(err.value)
        assert len(nan_calls) == 2      # one iterate per attempt
        assert len(err.value.residual_history) == 1
        assert math.isnan(err.value.residual_history[0])

    def test_unknown_init_refused_before_partition(self, workhorse,
                                                   monkeypatch):
        def no_partition(*args):
            raise AssertionError("partition built for a refused start")

        monkeypatch.setattr(solver, "greedy_partition", no_partition)
        with pytest.raises(DomainError, match="unknown init kind 'bogus'"):
            picard_solve(workhorse["coeffs"], workhorse["eta"],
                         workhorse["omega"], workhorse["config"],
                         init="bogus")

    def test_input_validation(self, workhorse):
        cfg = workhorse["config"]
        with pytest.raises(DomainError):
            picard_solve(workhorse["coeffs"], const_eta(r=0.5), workhorse["omega"],
                         cfg)
        short = gen_deterministic(DriverSpec(kind="zero", T=0.5, mesh=MESH))
        with pytest.raises(DomainError):
            picard_solve(workhorse["coeffs"], workhorse["eta"], short, cfg)


def zero_coefficient_solve():
    """d = 2, zero coefficients: one window over the horizon, m_r = 256."""
    mesh = 1 / 1024
    cfg = SolverConfig(beta=0.55, nu=0.7, mesh=mesh, T=1.0, r=0.25)
    u = np.linspace(-0.25, 0.0, cfg.n_history + 1)
    eta = Segment(0.25, mesh, np.column_stack([np.cos(8 * u), u]))
    return picard_solve(make_builtin("linear_delay", dim=2), eta,
                        zero_omega(mesh=mesh), cfg)


def inline_ball(report):
    """The former inline ball diagnostic, kept as an oracle: per record, the
    radius from a full scan of the history at its partition window's start
    (the halves of a split window share it), and the max over its iterates
    of the full, unpruned scan of the nodes ``[t_i - r, t_{i+1}]`` holding
    the iterate; and whether every norm is within its radius."""
    cfg = report.config
    h, m_r, beta, mu = cfg.mesh, cfg.n_history, cfg.beta, cfg.mu
    path = report.solution
    starts = [path.index_of(t) for t in report.partition.times[:-1]]
    rows = []
    for record in report.windows:
        ia, ib = path.index_of(record.t_start), path.index_of(record.t_end)
        i0 = max(start for start in starts if start <= ia)
        hist = path.values[i0 - m_r:i0 + 1]
        radius = (float(_row_norms(hist).max()) + full_pair_max(hist, h, beta)
                  + mu) / (1.0 - mu)
        max_norm = 0.0
        for x in report.iterates[ia]:
            nodes = np.array(path.values[ia - m_r:ib + 1])
            nodes[m_r + 1:] = x
            max_norm = max(max_norm, float(_row_norms(nodes).max())
                           + full_pair_max(nodes, h, beta))
        rows.append((radius, max_norm))
    return rows, all(norm <= radius * (1 + 1e-9) for radius, norm in rows)


def assert_ball_matches_inline(report):
    rows, ok = inline_ball(report)
    got = ball_check(report)
    assert [(a.hex(), b.hex()) for a, b in got.rows] \
        == [(a.hex(), b.hex()) for a, b in rows]
    assert got.passed == ok == report.ball_ok


def split_window_solve(workhorse):
    """Three iterations to 1e-8 leave some windows unconverged, and their
    halves query the history at the window start again."""
    config = replace(workhorse["config"], picard_max_iters=3, picard_tol=1e-8)
    omega = gen_fbm(replace(workhorse["spec"], seed=1))
    return picard_solve(workhorse["coeffs"], workhorse["eta"], omega, config)


def two_dimensional_solve(workhorse):
    g = rng(5)
    mats = {k: g.normal(size=(2, 2)) for k in ("A", "B")}
    mats = {k: 0.15 * m / np.linalg.norm(m, 2) for k, m in mats.items()}
    coeffs = make_builtin("sin_delay", dim=2, sigma=0.05, **mats)
    u = np.linspace(-0.25, 0.0, workhorse["config"].n_history + 1)
    eta = Segment(0.25, MESH, np.column_stack([1.0 + 0.2 * u, np.sin(6 * u)]))
    return picard_solve(coeffs, eta, workhorse["omega"], workhorse["config"])


class TestHistoryNorm:
    def test_split_windows_match_full_scan(self, workhorse):
        rep = split_window_solve(workhorse)
        assert sum(w.split for w in rep.windows) == 8
        assert_ball_matches_inline(rep)

    def test_zero_coefficients_match_full_scan(self):
        assert_ball_matches_inline(zero_coefficient_solve())

    def test_two_dimensional_solve_matches_full_scan(self, workhorse):
        rep = two_dimensional_solve(workhorse)
        assert rep.partition.n_windows > 1
        assert_ball_matches_inline(rep)

    @pytest.mark.parametrize("band", [2, 8])
    def test_pruned_ball_matches_full_scan(self, monkeypatch, workhorse,
                                           band):
        # a narrow band and small blocks make these short histories read
        # far block pairs, bounded by each iterate's own node blocks; the
        # segment norms at the history's start are read in full, as the
        # pruned window reader has oracles of its own (in test_paths) and
        # takes seconds on 2-node blocks
        monkeypatch.setattr("ydde.paths._BAND", band)
        monkeypatch.setattr("ydde.paths._BLOCK_PAIRS", 256)
        monkeypatch.setattr("ydde.paths._PRUNE_BLOCK_PAIRS", math.inf)
        # the perturbed first iterates stray furthest from the solution
        reps = [picard_solve(workhorse["coeffs"], workhorse["eta"],
                             workhorse["omega"], workhorse["config"], init)
                for init in _INIT_KINDS]
        reps += [split_window_solve(workhorse),
                 two_dimensional_solve(workhorse), zero_coefficient_solve()]
        for rep in reps:
            assert_ball_matches_inline(rep)

    @pytest.mark.parametrize("make", [split_window_solve,
                                      two_dimensional_solve])
    def test_ball_reads_each_record_in_one_scan(self, monkeypatch, workhorse,
                                                make):
        # a record's iterates are the K columns of one pair scan
        rep = make(workhorse)
        rep.segment_norms
        pair_max, scans = solver._pair_max, []

        def count_scan(v, *args):
            scans.append(v.shape)
            return pair_max(v, *args)

        monkeypatch.setattr(solver, "_pair_max", count_scan)
        got = ball_check(rep)
        assert len(scans) == len(got.rows) == len(rep.windows)
        assert [shape[1] for shape in scans] == rep.window_iterations
        monkeypatch.undo()
        assert_ball_matches_inline(rep)

    def test_first_iterate_stitched_from_records(self, workhorse):
        # a split window's halves replace its first attempt's iterates
        config = replace(workhorse["config"], picard_max_iters=3,
                         picard_tol=1e-8)
        omega = gen_fbm(replace(workhorse["spec"], seed=1))
        rep = picard_solve(workhorse["coeffs"], workhorse["eta"], omega,
                           config)
        first = rep.first_iterate.values
        m_r = config.n_history
        assert np.array_equal(first[:m_r + 1], workhorse["eta"].values)
        for record in rep.windows:
            ia = rep.solution.index_of(record.t_start)
            ib = rep.solution.index_of(record.t_end)
            x = rep.iterates[ia]
            assert len(x) == record.iterations
            assert np.array_equal(x[-1], rep.solution.values[ia + 1:ib + 1])
            assert np.array_equal(first[ia + 1:ib + 1], x[0])

    def test_ball_and_growth_share_one_segment_norm_scan(self, monkeypatch,
                                                        workhorse):
        parts, calls = solver._segment_norm_parts, []

        def count_parts(*args):
            calls.append(args)
            return parts(*args)

        monkeypatch.setattr(solver, "_segment_norm_parts", count_parts)
        rep = picard_solve(workhorse["coeffs"], workhorse["eta"],
                           workhorse["omega"], workhorse["config"])
        assert rep.ball_ok
        assert growth_bound_check(rep, workhorse["eta"]).passed
        assert len(calls) == 1

    @pytest.mark.parametrize("solve", ["picard_solve", "linearized_solve"])
    def test_unread_ball_costs_one_scan_per_iterate(self, solve, monkeypatch,
                                                    linear_scenario):
        # a solve whose ball is never read builds no history norm, and
        # scans pairs once per Picard iterate: for its residual
        sc = linear_scenario
        coeffs = make_builtin("linear_delay", A=-0.15, B=0.05, Sigma=0.05,
                              c=0.02, delta=0.8)   # exponent 0.44, not beta
        base = picard_solve(coeffs, sc["eta"], sc["omega"], sc["config"])
        scans, iterates = [], []
        pair_max, stops = solver._pair_max, solver._WindowedPicard._stops

        def count_scan(*args):
            scans.append(args)
            return pair_max(*args)

        def count_iterate(self, *args):
            iterates.append(args)
            return stops(self, *args)

        def no_history(*args):
            raise AssertionError("history norm built")

        monkeypatch.setattr(solver, "_pair_max", count_scan)
        monkeypatch.setattr(solver._WindowedPicard, "_stops", count_iterate)
        monkeypatch.setattr(solver, "_segment_norm_parts", no_history)
        if solve == "picard_solve":
            rep = picard_solve(coeffs, sc["eta"], sc["omega"], sc["config"])
            assert len(iterates) == sum(rep.window_iterations)
        else:
            linearized_solve(base, sc["direction"])
        assert len(iterates) > 1 and len(scans) == len(iterates)


class TestEulerSolve:
    def test_zero_dynamics_constant(self, workhorse):
        co = make_builtin("linear_delay")
        eu = euler_solve(co, const_eta(1.5), workhorse["omega"],
                         workhorse["config"])
        assert np.all(eu.values == 1.5)

    def test_matches_picard_at_fixed_mesh(self, workhorse):
        rep = picard_solve(workhorse["coeffs"], workhorse["eta"],
                           workhorse["omega"], workhorse["config"])
        eu = euler_solve(workhorse["coeffs"], workhorse["eta"],
                         workhorse["omega"], workhorse["config"])
        diff = GridPath(eu.t0, eu.mesh, eu.values - rep.solution.values)
        assert holder_norm(diff, 0.55) <= 10 * workhorse["config"].picard_tol

    def test_additive_equals_picard_to_rounding(self, workhorse):
        # both telescope the same increments; only float association differs
        co = make_builtin("linear_delay", A=0.0, B=0.0, Sigma=0.0, c=0.5)
        rep = picard_solve(co, const_eta(), workhorse["omega"],
                           workhorse["config"])
        eu = euler_solve(co, const_eta(), workhorse["omega"],
                         workhorse["config"])
        assert np.abs(eu.values - rep.solution.values).max() <= 1e-13

    def test_cauchy_refinement_order(self):
        # scheme self-convergence under mesh halving, at order at least
        # min(1, beta + nu - 1); smooth data realize first order
        co = make_builtin("linear_delay", A=-0.15, B=0.05, Sigma=0.05, c=0.0)
        meshes = [1 / 128, 1 / 256, 1 / 512, 1 / 1024]
        sols = []
        for mesh in meshes:
            cfg = SolverConfig(beta=0.55, nu=0.7, mesh=mesh, T=1.0, r=0.25)
            omega = gen_deterministic(DriverSpec(kind="sine", T=1.0, mesh=mesh,
                                                 amplitude=0.1, frequency=0.5))
            sols.append(picard_solve(co, const_eta(mesh=mesh), omega,
                                     cfg).solution)
        gaps = []
        for a, b in zip(sols, sols[1:]):
            common = b.subsample(2)
            gaps.append(np.abs(common.values - a.values).max())
        orders = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
        assert all(g > 0 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert min(orders) >= min(1.0, 0.55 + 0.7 - 1.0)


@pytest.fixture
def sweep_runs(monkeypatch):
    """A list that grows by ``(nodes committed, sweeps)`` for each run of
    Euler sweeps."""
    runs, calls = [], []
    sweeps, stack_values = solver._euler_sweeps, solver._stack_values

    def counted(*args):
        calls.append(1)
        return stack_values(*args)

    def spy(f, g, arrays, k, end, delay, h, dw):
        del calls[:]
        reached = sweeps(f, g, arrays, k, end, delay, h, dw)
        runs.append((reached - k, len(calls)))
        return reached

    monkeypatch.setattr(solver, "_stack_values", counted)
    monkeypatch.setattr(solver, "_euler_sweeps", spy)
    return runs


def assert_within_sweep_bound(runs):
    # each sweep commits a node; a run that commits n nodes makes at most
    # (n + _SWEEP_CREDIT - 1) / _SWEEP_COST + 1 sweeps
    for done, sweeps in runs:
        assert 1 <= sweeps <= done
        assert sweeps * solver._SWEEP_COST \
            <= done + solver._SWEEP_CREDIT + solver._SWEEP_COST - 1


class TestEulerSweeps:
    h = 1 / 16

    def case(self, coeffs, n_h, m_r=4, seed=0):
        g = rng(seed)
        cfg = SolverConfig(beta=0.55, nu=0.7, mesh=self.h, T=n_h * self.h,
                           r=m_r * self.h)
        eta = Segment(cfg.r, self.h, 1.0 + 0.1 * g.normal(
            size=(m_r + 1, coeffs.dim)))
        omega = GridPath(0.0, self.h, 0.1 * g.normal(size=n_h + 1))
        return coeffs, eta, omega, cfg

    def test_mild_input_is_swept_in_one_run(self, sweep_runs):
        case = self.case(make_builtin("sin_delay", A=-0.15, B=0.1,
                                      sigma=0.05), 1100)
        assert hexes(euler_solve(*case).values) == hexes(loop_euler(*case))
        assert [done for done, _ in sweep_runs] == [1100]
        assert_within_sweep_bound(sweep_runs)

    def test_stiff_input_falls_back_to_the_loop(self, sweep_runs):
        # |A| h = 2.5: every sweep commits one node, so the one run of
        # sweeps spends its credit and the loop takes the rest
        n_h = 2 * solver._SWEEP_NODES + 100
        case = self.case(make_builtin("sin_delay", A=-40.0, B=0.1,
                                      sigma=0.05), n_h)
        assert hexes(euler_solve(*case).values) == hexes(loop_euler(*case))
        sweeps = solver._SWEEP_CREDIT // (solver._SWEEP_COST - 1) + 1
        assert sweep_runs == [(sweeps, sweeps)]
        assert_within_sweep_bound(sweep_runs)

    def test_nan_functional_raises_the_loops_error(self, monkeypatch,
                                                   sweep_runs):
        # g turns NaN once x(t - r) > 8 (at about node 116 of 600): the
        # swept path, NaN bits included, is the loop's, and so is the error
        co = constant_drift_coeffs(1.0, stacks=True)
        co = replace(co, g=accepts_stacks(
            lambda seg: np.where(seg.values[0] > 8.0, np.nan, 0.0)))
        _, eta, omega, cfg = case = self.case(co, 600)
        paths = []
        for sweep_min in (solver._SWEEP_MIN, 10 ** 9):
            monkeypatch.setattr(solver, "_SWEEP_MIN", sweep_min)
            with pytest.raises(DomainError) as err:
                euler_solve(*case)
            values, dw = _solve_grid(cfg, [eta], omega)
            solver._euler_steps(co.f, co.g, (values[:, 0],), cfg.n_history,
                                values.shape[0] - 1, cfg.r, cfg.mesh, dw)
            paths.append((str(err.value), values.view(np.int64).tobytes()))
        assert paths[0] == paths[1]
        assert "path values must be finite" in paths[0][0]
        assert np.isnan(values[-1]).all() and np.isfinite(values[100]).all()
        assert sweep_runs and all(run[0] == 600 for run in sweep_runs)
        assert_within_sweep_bound(sweep_runs)


def base_report(sc):
    return picard_solve(sc["coeffs"], sc["eta"], sc["omega"], sc["config"])


def all_init_probe(coeffs, eta, omega, config, n_inits=3):
    """The former uniqueness probe, kept as an oracle: it solves every init,
    the default one included."""
    kinds = _INIT_KINDS[:n_inits]
    solutions = [picard_solve(coeffs, eta, omega, config, init=k).solution
                 for k in kinds]
    worst = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            diff = GridPath(solutions[i].t0, solutions[i].mesh,
                            solutions[i].values - solutions[j].values)
            worst = max(worst, holder_norm(diff, config.beta))
    tol = 10.0 * config.picard_tol
    return ProbeReport(init_kinds=kinds, max_pairwise=worst,
                       tolerance=tol, passed=worst <= tol)


class TestUniquenessProbe:
    def test_zero_and_additive_exact(self, workhorse):
        for co in (make_builtin("linear_delay"),
                   make_builtin("linear_delay", A=0.0, B=0.0, Sigma=0.0,
                                c=0.5)):
            base = picard_solve(co, const_eta(), workhorse["omega"],
                                workhorse["config"])
            rep = uniqueness_probe(base)
            assert rep.passed
            assert rep.max_pairwise == 0.0

    def test_sin_fbm_inits_agree(self, workhorse):
        rep = uniqueness_probe(base_report(workhorse))
        assert rep.passed
        assert rep.init_kinds == ("constant", "linear", "euler_perturbed")
        assert rep.max_pairwise <= rep.tolerance

    # two kinds re-solve one start alone, three re-solve two in lockstep
    @pytest.mark.parametrize("n_inits", [2, 3])
    @pytest.mark.parametrize("name", ["workhorse", "linear_scenario"])
    def test_matches_all_init_probe(self, monkeypatch, request, name,
                                    n_inits):
        sc = request.getfixturevalue(name)
        monkeypatch.setattr(solver, "_INIT_KINDS", _INIT_KINDS[:n_inits])
        got = uniqueness_probe(base_report(sc))
        want = all_init_probe(sc["coeffs"], sc["eta"], sc["omega"],
                              sc["config"], n_inits)
        assert got == want

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("make", [base_report, two_dimensional_solve])
    def test_every_pair_is_read(self, monkeypatch, workhorse, make, seed):
        # stand-in re-solves that differ at random scales let any pair be
        # the largest
        base = make(workhorse)
        path, g = base.solution, rng(seed)
        others = [GridPath(path.t0, path.mesh, path.values + scale * np.cumsum(
            g.normal(size=path.values.shape), axis=0))
            for scale in g.uniform(0.0, 1.0, size=2)]
        monkeypatch.setattr(solver, "resolve", lambda base, starts: others)
        solutions = [path] + others
        want = max(holder_norm(GridPath(path.t0, path.mesh,
                                        solutions[i].values
                                        - solutions[j].values),
                               base.config.beta)
                   for i in range(3) for j in range(i + 1, 3))
        assert uniqueness_probe(base).max_pairwise.hex() == want.hex()


def mask_growth_check(report):
    """The former growth margins and rows, kept as an oracle: ``(rows, min
    margin)`` with each window's margins picked out by a full-length time
    mask, and the margins without the guard on the right side."""
    config, part = report.config, report.partition
    sups, scans = report.segment_norms
    ts = report.solution.times[config.n_history:]
    log_factor = -math.log(1.0 - config.mu)
    rhs = np.exp((part.n_at(ts) + 1) * log_factor) * (report.eta_norm + 1.0)
    margins = np.log(rhs) - np.log(np.maximum(sups + scans, 1e-300))
    rows = []
    for ta, tb in part.windows():
        sel = (ts >= ta - 1e-12) & (ts <= tb + 1e-12)
        if np.any(sel):
            rows.append((float(ta), float(tb), int(part.n_at(ta)),
                         float(margins[sel].min())))
    return tuple(rows), float(margins.min())


class TestGrowthBound:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_rows_match_the_time_mask(self, name):
        # each window's rows are a slice of the margins by its node indices
        scenario = load_scenario(str(SCENARIOS / f"{name}.json"))
        rep = picard_solve(scenario.coefficients, scenario.eta,
                           gen_driver(scenario.driver), scenario.config)
        got = growth_bound_check(rep, rep.eta)
        rows, min_margin = mask_growth_check(rep)
        assert len(got.rows) == rep.partition.n_windows
        assert [[x.hex() if isinstance(x, float) else x for x in row]
                for row in got.rows] == \
            [[x.hex() if isinstance(x, float) else x for x in row]
             for row in rows]
        assert got.min_margin.hex() == min_margin.hex()

    def test_zero_dynamics_dominated(self, workhorse):
        co = make_builtin("linear_delay")
        eta = const_eta()
        rep = picard_solve(co, eta, workhorse["omega"], workhorse["config"])
        growth = growth_bound_check(rep, eta)
        assert growth.passed
        # N = 0 everywhere: the bound is (|eta| + 1)/(1 - mu) > |eta|
        expected = math.log((1.0 + 1.0) / 0.75) - math.log(1.0)
        assert growth.min_margin == pytest.approx(expected, rel=1e-9)

    def test_growth_factor_closed_form(self):
        # mu = 1/4, N = 3: e^(-(N+1) log(1-mu)) = (3/4)^-4 = 3.1605
        factor = math.exp(-4 * math.log(1 - 0.25))
        assert factor == pytest.approx(3.16049382716049, rel=1e-12)

    def test_linear_fbm_holds_everywhere(self, linear_scenario):
        rep = picard_solve(linear_scenario["coeffs"], linear_scenario["eta"],
                           linear_scenario["omega"], linear_scenario["config"])
        growth = growth_bound_check(rep, linear_scenario["eta"])
        assert growth.passed
        assert growth.min_margin > 0
        assert len(growth.rows) == rep.partition.n_windows

    def test_reads_the_start_norm_of_the_report(self, monkeypatch, workhorse):
        # the margins are those of the start's own segment norm, which the
        # report holds: the check computes no second one
        rep = base_report(workhorse)
        want = growth_bound_check(rep, workhorse["eta"])
        assert rep.eta_norm.hex() == segment_norm(
            workhorse["eta"], rep.config.beta).hex()
        monkeypatch.setattr(solver, "segment_norm", None)
        got = growth_bound_check(rep, rep.eta)
        assert got.min_margin.hex() == want.min_margin.hex()
        assert got.rows == want.rows

    def test_refuses_another_start(self, workhorse):
        rep = base_report(workhorse)
        eta = workhorse["eta"]
        for other in (Segment(eta.delay, 2 * eta.mesh, eta.values[::2]),
                      Segment(eta.delay / 2, eta.mesh, eta.values[32:]),
                      eta.with_values(np.hstack([eta.values] * 2)),
                      eta.with_values(eta.values + 1e-3)):
            with pytest.raises(DomainError):
                growth_bound_check(rep, other)


class TestGronwall:
    def test_zero_path(self, workhorse):
        cfg, omega = workhorse["config"], workhorse["omega"]
        z = GridPath(-0.25, MESH, np.zeros(321))
        rep = gronwall_check(z, A=0.1, C=1.0, omega=omega, config=cfg)
        assert rep.hypothesis_ok and rep.conclusion_ok

    def test_constant_path(self, workhorse):
        cfg, omega = workhorse["config"], workhorse["omega"]
        z = GridPath(-0.25, MESH, np.full(321, 3.0))
        rep = gronwall_check(z, A=1e-9, C=1.0, omega=omega, config=cfg)
        assert rep.hypothesis_ok and rep.conclusion_ok

    def test_solution_difference_reproduces_continuity(self, workhorse):
        cfg, omega, co = (workhorse["config"], workhorse["omega"],
                          workhorse["coeffs"])
        eta1 = workhorse["eta"]
        eta2 = eta1.with_values(eta1.values + 0.05)
        x1 = picard_solve(co, eta1, omega, cfg).solution
        x2 = picard_solve(co, eta2, omega, cfg).solution
        M = max(holder_norm(x1, cfg.beta), holder_norm(x2, cfg.beta))
        C = compute_contraction_constants(co, cfg).L(cfg.T, M)
        z = GridPath(x1.t0, x1.mesh, x2.values - x1.values)
        rep = gronwall_check(z, A=0.0, C=C, omega=omega, config=cfg,
                             n_window_samples=80)
        assert rep.hypothesis_ok
        assert rep.conclusion_ok

    def test_hypothesis_violation_reported(self, workhorse):
        cfg = workhorse["config"]
        omega = zero_omega()
        t = np.linspace(-0.25, 1.0, 321)
        z = GridPath(-0.25, MESH, 0.1 * np.sin(40 * math.pi * t))
        rep = gronwall_check(z, A=1e-3, C=0.3, omega=omega, config=cfg)
        assert not rep.hypothesis_ok
        assert rep.conclusion_ok is None
        assert "hypothesis not satisfied" in rep.message

    @pytest.mark.parametrize("A", [0.0, 1e-3, 0.1])
    @pytest.mark.parametrize("C", [0.0, 0.3, 2.0])
    def test_conclusion_is_the_former_formula(self, workhorse, A, C):
        # the former ``(1 - 2 mu)^-(N(t)+1) (A / mu + |z_0|)`` and its
        # margins, written out, against the shared stopping-time bound
        cfg, omega = workhorse["config"], workhorse["omega"]
        t = np.linspace(-0.25, 1.0, 321)[:, None]
        part = greedy_partition(omega, cfg, C)
        for z in (np.zeros_like(t), 0.1 * np.sin(40 * math.pi * t),
                  np.exp(t) + omega.values[0]):
            z = GridPath(-0.25, MESH, z)
            ts, profile = paths_module.segment_norm_profile(
                z, cfg.beta, cfg.r, (0.0, cfg.T))
            z0 = float(profile[0])
            log_factor = -math.log(1.0 - 2.0 * cfg.mu)
            rhs = np.exp((part.n_at(ts) + 1) * log_factor) * (A / cfg.mu + z0)
            ok = bool(np.all(profile <= rhs + 1e-12 * max(z0, A / cfg.mu,
                                                           1e-300)))
            margin = float((np.log(np.maximum(rhs, 1e-300))
                            - np.log(np.maximum(profile, 1e-300))).min())
            got = solver._gronwall_conclusion(z, A, part, cfg)
            assert (got[0], got[1].hex()) == (ok, margin.hex())

    def test_parameter_validation(self, workhorse):
        z = GridPath(-0.25, MESH, np.zeros(321))
        with pytest.raises(DomainError):
            gronwall_check(z, A=-1.0, C=1.0, omega=workhorse["omega"],
                           config=workhorse["config"])
        with pytest.raises(DomainError):
            gronwall_check(z, A=0.0, C=0.1, omega=workhorse["omega"],
                           config=workhorse["config"])   # mu >= C


class TestTrivialPartition:
    """greedy_partition at C = 0: the single full window of inert dynamics."""

    def test_shape(self):
        cfg = SolverConfig(beta=0.55, nu=0.7, mesh=1 / 64, T=1.0, r=0.25)
        part = greedy_partition(zero_omega(), cfg, 0.0)
        assert part.N == 0
        assert part.n_windows == 1
        assert part.n_at(1.0) == 0

    @pytest.mark.parametrize("mesh, T, r", [(1 / 64, 1.0, 0.25),
                                            (0.1, 0.7, 0.3)])
    def test_fields_are_the_former_trivial_partition(self, mesh, T, r):
        cfg = SolverConfig(beta=0.55, nu=0.7, mesh=mesh, T=T, r=r)
        omega = gen_fbm(DriverSpec(kind="fbm", hurst=0.75, T=T, mesh=mesh,
                                   seed=4))
        part = greedy_partition(omega, cfg, 0.0)
        want = GreedyPartition(times=np.array([0.0, cfg.T]),
                               residuals=np.array([0.0]), threshold=math.inf,
                               C=0.0, mu=cfg.mu, clamped_final=True)
        for name in ("times", "residuals"):
            got = getattr(part, name)
            assert got.dtype == np.float64 and got.shape == (len(got),)
            assert got.tobytes() == getattr(want, name).tobytes(), name
        for name in ("threshold", "C", "mu", "clamped_final"):
            assert getattr(part, name) == getattr(want, name), name

    @pytest.mark.parametrize("C", [-1.0, math.nan, math.inf])
    def test_refuses_negative_or_non_finite_C(self, C):
        cfg = SolverConfig(beta=0.55, nu=0.7, mesh=1 / 64, T=1.0, r=0.25)
        with pytest.raises(DomainError, match="0 <= C < inf"):
            greedy_partition(zero_omega(), cfg, C)


@lru_cache(maxsize=None)
def sin_fbm_solve(mesh):
    """The sin_fbm demo scenario solved at ``mesh``: (scenario, report),
    solved once per mesh."""
    scenario = load_scenario(str(SCENARIOS / "sin_fbm.json"), mesh=mesh)
    report = picard_solve(scenario.coefficients, scenario.eta,
                          gen_driver(scenario.driver), scenario.config)
    return scenario, report


def pairs_formed(monkeypatch, call):
    """The node pairs whose ratios ``call()`` forms, counted at
    ``paths._ratios``, the one place a pair ratio is formed."""
    ratios, count = paths_module._ratios, [0]

    def spy(*args):
        ratio = ratios(*args)
        count[0] += ratio.shape[0] * ratio.shape[1]
        return ratio

    with monkeypatch.context() as patch:
        patch.setattr(paths_module, "_ratios", spy)
        call()
    return count[0]


class TestPrunedScanCost:
    """The pruned scans read few of the pairs a full scan reads."""

    def test_whole_path_norms_at_two_to_the_fourteen(self, monkeypatch):
        # the solution, and the rounding noise of its Euler cross-check
        scenario, report = sin_fbm_solve(2.0 ** -14)
        config = scenario.config
        x = report.solution
        euler = euler_solve(scenario.coefficients, scenario.eta,
                            gen_driver(scenario.driver), config)
        noise = GridPath(x.t0, x.mesh, euler.values - x.values)
        assert np.abs(noise.values).max() < 1e-12
        n = x.values.shape[0]
        for path in (x, noise):
            count = pairs_formed(monkeypatch,
                                 lambda: holder_norm(path, config.beta))
            assert count < 0.02 * n * n / 2

    def test_segment_norms_at_two_to_the_fourteen(self, monkeypatch):
        # the history windows (j - m_r, j) of every node, against the
        # reader banded at m_r that every window's pairs fit in
        # (banded_window_pair_max), whose blocks are counted, not formed
        _, report = sin_fbm_solve(2.0 ** -14)
        x, config = report.solution, report.config
        m_r = config.n_history
        pruned = pairs_formed(monkeypatch, lambda: _segment_norm_parts(
            x.values, x.mesh, config.beta, m_r))

        def banded():
            for _ in paths_module._pair_blocks(x.values, x.mesh, config.beta,
                                               max_gap=m_r):
                pass

        with monkeypatch.context() as patch:
            patch.setattr(paths_module, "_ratios",
                          lambda v, j0, j1, k0, k1, w: np.empty((j1 - j0,
                                                                 k1 - k0)))
            full = pairs_formed(monkeypatch, banded)
        assert pruned < full / 4

    def test_segment_norms_read_no_more_far_block_pairs(self, monkeypatch):
        # the far block pairs the history windows of the 2^-12 solution
        # read, counted at _far_ratios: the reader that read and folded one
        # block pair at a time, in decreasing bound, read 367 here (counted
        # the same way on this solution); reading them in rounds must not
        # read more, nor any block pair twice
        _, report = sin_fbm_solve(2.0 ** -12)
        x, config = report.solution, report.config
        reads, far_ratios = [], paths_module._far_ratios

        def spy(v, weights, j0, j1, k0, *out):
            reads.append((j0, k0))
            return far_ratios(v, weights, j0, j1, k0, *out)

        monkeypatch.setattr(paths_module, "_far_ratios", spy)
        _segment_norm_parts(x.values, x.mesh, config.beta, config.n_history)
        assert 0 < len(reads) <= 367
        assert len(set(reads)) == len(reads)

    def test_ball_at_two_to_the_twelve(self, monkeypatch):
        scenario, report = sin_fbm_solve(2.0 ** -12)
        config = report.config
        m_r = config.n_history
        report.segment_norms   # the history scans, which the ball shares

        def full_scan_ball():
            # the per-iterate scan of every pair that touches the window
            for record in report.windows:
                ia = report.solution.index_of(record.t_start)
                ib = report.solution.index_of(record.t_end)
                nodes = np.array(report.solution.values[ia - m_r:ib + 1])
                for x in report.iterates[ia]:
                    nodes[m_r + 1:] = x
                    full_pair_max(nodes, config.mesh, config.beta, m_r + 1)

        full = pairs_formed(monkeypatch, full_scan_ball)
        pruned = pairs_formed(monkeypatch, lambda: ball_check(report))
        assert pruned < full / 3
