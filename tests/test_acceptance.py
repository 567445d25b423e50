"""Acceptance gate for the library: one pass/fail line per criterion.

Run pytest with -s to watch the lines; every tolerance is asserted.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from conftest import MESH, pvar_seminorm_exhaustive, random_path, rng
from ydde.cli import main
from ydde.coefficients import composition_holder_diff, composition_path, \
    make_builtin
from ydde.drivers import DriverSpec, gen_deterministic, gen_fbm
from ydde.paths import (Segment, counterexample_growth, holder_norm,
                        holder_seminorm, pvar_seminorm,
                        segment_norm_profile, segment_path_holder)
from ydde.sensitivity import continuity_check, differentiability_check
from ydde.solver import (SolverConfig, compute_contraction_constants,
                         greedy_partition, growth_bound_check, picard_solve,
                         stopping_count_bound, uniqueness_probe,
                         window_residual)
from ydde.young import certificate_sweep, young_integral

_MODULE_T0 = time.perf_counter()


def report(num, passed, detail):
    print(f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def make_eta(mesh=MESH, r=0.25):
    u = np.linspace(-r, 0.0, round(r / mesh) + 1)
    return Segment(r, mesh, (1.0 + 0.2 * u)[:, None])


def make_direction(mesh=MESH, r=0.25):
    u = np.linspace(-r, 0.0, round(r / mesh) + 1)
    return Segment(r, mesh, (0.5 * np.cos(2 * np.pi * u))[:, None])


def fbm(seed, mesh=MESH, amplitude=0.05):
    return gen_fbm(DriverSpec(kind="fbm", T=1.0, mesh=mesh, hurst=0.75,
                              seed=seed, amplitude=amplitude))


BUILTINS = {
    "sin_fbm": make_builtin("sin_delay", A=-0.15, B=0.1, sigma=0.05),
    "linear_fbm": make_builtin("linear_delay", A=-0.15, B=0.05, Sigma=0.05,
                               c=0.02),
    "logistic_fbm": make_builtin("scalar_logistic_bounded", a=-0.05,
                                 sigma=0.05),
}


def test_criterion_1_young_loeve_certificate(workhorse, linear_scenario):
    # 100 random (window, path) pairs per scenario, zero violations, < 30 s
    t0 = time.perf_counter()
    worst = 0.0
    for sc in (workhorse, linear_scenario):
        rep = picard_solve(sc["coeffs"], sc["eta"], sc["omega"], sc["config"])
        consts = sc["config"].young(sc["coeffs"].delta)
        integrands = [
            rep.solution.restrict(0.0, 1.0),
            composition_path(sc["coeffs"].g, rep.solution, 0.25, (0.0, 1.0)),
            rep.first_iterate.restrict(0.0, 1.0),
        ]
        sweep = certificate_sweep(integrands, sc["omega"], (0.0, 1.0), consts,
                                  n_windows=34, seed=42)
        assert sweep.n_windows >= 100
        assert sweep.violations == 0
        worst = max(worst, sweep.worst_ratio)
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 30.0,
           f"0 violations on 204 windows, worst gap/bound {worst:.4f}, "
           f"{elapsed:.1f}s")


def test_criterion_2_quadrature_convergence():
    # int_0^1 omega domega, sine driver, meshes 1/128..1/1024:
    # decreasing errors, final relative error <= 1e-3
    fine = gen_deterministic(DriverSpec(kind="sine", T=1.0, mesh=1 / 1024,
                                        amplitude=1.0, frequency=0.1))
    target = 0.5 * (fine.values[-1, 0] ** 2 - fine.values[0, 0] ** 2)
    rels = []
    for factor in (8, 4, 2, 1):
        om = fine.subsample(factor)
        val = young_integral(om, om)[0]
        rels.append(abs(val - target) / abs(target))
    ok = all(b < a for a, b in zip(rels, rels[1:])) and rels[-1] <= 1e-3
    report(2, ok, f"relative errors {[f'{r:.2e}' for r in rels]}")


def test_criterion_3_solver_oracles():
    # f = -xi(0), g = 0 reproduces exp(-t) within 1e-3 at mesh 1/1024;
    # additive noise matches the telescoped closed form within 1e-12
    mesh = 1 / 1024
    cfg = SolverConfig(beta=0.55, nu=0.7, mesh=mesh, T=1.0, r=0.25)
    co = make_builtin("linear_delay", A=-1.0, B=0.0, Sigma=0.0, c=0.0)
    eta = Segment(0.25, mesh, np.ones((257, 1)))
    omega = gen_deterministic(DriverSpec(kind="zero", T=1.0, mesh=mesh))
    sol = picard_solve(co, eta, omega, cfg).solution
    t = np.linspace(0.0, 1.0, 1025)
    exp_err = np.abs(sol.values[sol.index_of(0.0):, 0] - np.exp(-t)).max()

    cfg2 = SolverConfig(beta=0.55, nu=0.7, mesh=MESH, T=1.0, r=0.25)
    co2 = make_builtin("linear_delay", A=0.0, B=0.0, Sigma=0.0, c=0.5)
    eta2 = Segment(0.25, MESH, np.ones((65, 1)))
    omega2 = fbm(17)
    sol2 = picard_solve(co2, eta2, omega2, cfg2).solution
    closed = 1.0 + 0.5 * (omega2.values[:, 0] - omega2.values[0, 0])
    add_err = np.abs(sol2.values[sol2.index_of(0.0):, 0] - closed).max()
    ok = exp_err <= 1e-3 and add_err <= 1e-12
    report(3, ok, f"exp(-t) error {exp_err:.2e} <= 1e-3, "
                  f"additive error {add_err:.2e} <= 1e-12")


def test_criterion_4_uniqueness_probe():
    # 3 Picard initializations agree within 10 * picard_tol across 10 seeds
    cfg = SolverConfig(beta=0.55, nu=0.7, mesh=MESH, T=1.0, r=0.25)
    co = BUILTINS["sin_fbm"]
    eta = make_eta()
    worst = 0.0
    for seed in range(100, 110):
        omega = fbm(seed)
        probe = uniqueness_probe(picard_solve(co, eta, omega, cfg))
        assert probe.passed, f"seed {seed}"
        worst = max(worst, probe.max_pairwise)
    report(4, worst <= 10 * cfg.picard_tol,
           f"worst pairwise distance {worst:.2e} <= {10 * cfg.picard_tol:.0e} "
           f"over 10 seeds")


def test_criterion_5_greedy_partition():
    cfg = SolverConfig(beta=0.55, nu=0.7, mesh=MESH, T=1.0, r=0.25)
    co = BUILTINS["sin_fbm"]
    C = compute_contraction_constants(co, cfg).C
    margin = math.inf
    for seed in range(200, 220):
        omega = fbm(seed)
        part = greedy_partition(omega, cfg, C)
        # one-sided residual equality with maximality on every window
        assert np.all(part.residuals <= part.threshold * (1 + 1e-12))
        for ta, tb in part.windows():
            nxt = tb + cfg.mesh
            if nxt <= cfg.T + 1e-12:
                assert window_residual(omega, cfg.beta, cfg.nu,
                                       [(ta, nxt)])[0] > part.threshold
        bound = stopping_count_bound(omega, cfg, C)
        assert part.N <= bound
        margin = min(margin, bound - part.N)

    # flat driver: analytic window length within one mesh cell
    cfg_flat = SolverConfig(beta=0.4, nu=0.7, mesh=1 / 1024, T=1.0, r=0.25)
    flat = gen_deterministic(DriverSpec(kind="zero", T=1.0, mesh=1 / 1024))
    part = greedy_partition(flat, cfg_flat, C=8.0)
    analytic = (cfg_flat.mu / 8.0) ** (1.0 / (1.0 - cfg_flat.beta))
    lengths = np.diff(part.times)[:-1]
    ok = np.all(np.abs(lengths - analytic) <= cfg_flat.mesh)
    report(5, bool(ok), f"residuals maximal on 20 seeds, min count margin "
                        f"{margin:.3g}, flat window within one cell of "
                        f"{analytic:.5f}")


def test_criterion_6_growth_bound():
    cfg = SolverConfig(beta=0.55, nu=0.7, mesh=MESH, T=1.0, r=0.25)
    eta = make_eta()
    min_margin = math.inf
    for name, co in BUILTINS.items():
        for seed in range(20):
            rep = picard_solve(co, eta, fbm(seed), cfg)
            growth = growth_bound_check(rep, eta)
            assert growth.passed, f"{name} seed {seed}"
            min_margin = min(min_margin, growth.min_margin)
    report(6, min_margin > 0,
           f"holds at every grid t, 3 scenarios x 20 seeds, "
           f"min log-margin {min_margin:.4f}")


def test_criterion_7_continuity():
    cfg = SolverConfig(beta=0.55, nu=0.7, mesh=MESH, T=1.0, r=0.25)
    eta = make_eta()
    seeds = {"sin_fbm": 7, "linear_fbm": 11, "logistic_fbm": 13}
    worst_margin = math.inf
    for name, co in BUILTINS.items():
        omega = fbm(seeds[name])
        base = picard_solve(co, eta, omega, cfg)
        for size in (1e-1, 1e-2):
            eta2 = eta.with_values(eta.values + size)
            rep = continuity_check(base, eta2)
            assert rep.eta_gap == pytest.approx(size, rel=1e-12)
            assert rep.pointwise_ok, (name, size)
            assert rep.full_ok, (name, size)
            worst_margin = min(worst_margin, rep.pointwise_min_margin,
                               rep.full_margin)
    report(7, worst_margin > 0,
           f"pointwise and full-interval (1 + T/r) bounds hold on all "
           f"builtin scenarios, min log-margin {worst_margin:.3f}")


def test_criterion_8_differentiability():
    cfg = SolverConfig(beta=0.55, nu=0.7, mesh=MESH, T=1.0, r=0.25)
    eta, xi = make_eta(), make_direction()
    def check(name, seed):
        omega = fbm(seed)
        base = picard_solve(BUILTINS[name], eta, omega, cfg)
        return differentiability_check(base, xi)

    rep = check("sin_fbm", 7)
    ratio = rep.final_over_initial
    ok_sin = rep.decreasing and ratio <= 0.5

    # the other nonlinear-g scenario shows the same vanishing remainder
    rep_log = check("logistic_fbm", 13)
    ok_log = rep_log.decreasing and rep_log.final_over_initial <= 0.5

    rep_lin = check("linear_fbm", 11)
    quadrature_budget = 1e-6     # linear remainder sits at solver noise level
    ok_lin = rep_lin.max_rho <= 10 * quadrature_budget
    report(8, ok_sin and ok_log and ok_lin,
           f"sin ladder {[f'{r:.2e}' for _, r in rep.table]} ratio "
           f"{ratio:.3f} <= 0.5; logistic ratio "
           f"{rep_log.final_over_initial:.3f}; "
           f"linear max rho {rep_lin.max_rho:.2e} <= 1e-5")


def test_criterion_9_norm_estimate_suite():
    g = rng(77)
    co = make_builtin("sin_delay", A=0.1, B=-0.2, sigma=0.8)
    r, beta = 0.25, 0.55
    checked = 0
    for draw in range(200):
        path = random_path(int(g.integers(0, 10_000)), n=64, mesh=1 / 64,
                           dim=int(g.integers(1, 3)))
        i = int(g.integers(16, 56))
        j = int(g.integers(i + 4, 65))
        window = (i / 64, j / 64)
        enlarged = (window[0] - r, window[1])
        # translation bound: segment-path seminorm below the enlarged-path one
        semi = segment_path_holder(path, beta, r, window)
        enl = holder_seminorm(path, beta, enlarged)
        assert semi <= enl * (1 + 1e-9) + 1e-12
        # translation bound for the full norms
        _, prof = segment_norm_profile(path, beta, r, window)
        assert prof.max() <= holder_norm(path, beta, enlarged) * (1 + 1e-9)
        # Lipschitz composition bound for g
        from ydde.coefficients import composition_holder
        comp, = composition_holder(co, path, beta, r, [window])
        assert comp.enlarged == enl
        assert comp.seminorm <= co.L_g * enl * (1 + 1e-9) + 1e-12
        # difference estimate for g-composites in the (delta*beta)-seminorm
        other = random_path(int(g.integers(0, 10_000)) + 20_000, n=64,
                            mesh=1 / 64, dim=path.dim)
        rep, = composition_holder_diff(co, path, other, beta, r, [window])
        assert rep.lhs <= rep.bound_tight * (1 + 1e-9) + 1e-12
        checked += 1

    # p-variation DP equals exhaustive enumeration on every window
    # with at most 12 nodes
    windows = 0
    for dim, seed in ((1, 3), (2, 4)):
        path = random_path(seed, n=24, mesh=1 / 24, dim=dim)
        for i in range(0, 25):
            for j in range(i + 2, min(i + 12, 25)):
                w = (i / 24, j / 24)
                dp = pvar_seminorm(path, 2.0, w)
                ex = pvar_seminorm_exhaustive(path, 2.0, w)
                assert dp == pytest.approx(ex, rel=1e-12)
                windows += 1
    report(9, checked == 200,
           f"norm estimates on {checked} draws; p-var DP == enumeration on "
           f"{windows} short windows")


def test_criterion_10_counterexample_growth():
    vals = {n: counterexample_growth(0.4, 2.0, n) for n in (100, 1000, 10000)}
    ok = all(vals[n] >= n ** 0.1 * (1 - 1e-12) for n in vals)
    ok = ok and vals[100] < vals[1000] < vals[10000]
    report(10, ok, "partition sums " +
           ", ".join(f"{n}: {v:.4f} >= {n ** 0.1:.4f}" for n, v in vals.items()))


def test_criterion_11_end_to_end_determinism(tmp_path):
    scenario = {
        "name": "acceptance",
        "coefficients": {"family": "sin_delay",
                         "params": {"A": -0.15, "B": 0.1, "sigma": 0.05}},
        "driver": {"kind": "fbm", "hurst": 0.75, "seed": 7,
                   "amplitude": 0.05, "T": 1.0, "mesh": MESH},
        "eta": {"form": "linear", "value": 1.0, "slope": 0.2},
        "direction": {"form": "cosine", "amplitude": 0.5, "frequency": 1.0},
        "config": {"beta": 0.55, "nu": 0.7, "mu": 0.25, "mesh": MESH,
                   "T": 1.0, "r": 0.25, "picard_tol": 1e-10,
                   "picard_max_iters": 80},
    }
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(scenario))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(["verify", "--scenario", str(sc), "--out", str(out),
                     "--quiet"])
        assert code == 0
        blobs = {}
        for fname in sorted(os.listdir(out)):
            blobs[fname] = (out / fname).read_bytes()
        outs.append(blobs)
    identical = outs[0].keys() == outs[1].keys() and all(
        outs[0][k] == outs[1][k] for k in outs[0])
    elapsed = time.perf_counter() - _MODULE_T0
    ok = identical and elapsed <= 300.0
    report(11, ok, f"verify exit 0 twice, artifacts byte-identical, "
                   f"acceptance module elapsed {elapsed:.0f}s <= 300s")
