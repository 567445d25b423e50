"""Command line front end: scenario files, experiment subcommands, CSV/JSON artifacts.

Subcommands: solve, partition, converge, sensitivity, counterexample,
verify, ensemble.  Scenarios are JSON files; flags override scenario
fields.  All artifacts are deterministic given the scenario and seeds:
floats print at 17 significant digits and no timestamps are emitted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace

import numpy as np

from . import coefficients as co
from . import drivers, paths, sensitivity, solver, young
from .errors import ConvergenceError, DomainError, GenerationError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


# ---------------------------------------------------------------------------
# Scenario files.

@dataclass(frozen=True)
class Scenario:
    name: str
    coefficients: co.CoefficientSet
    driver: drivers.DriverSpec
    eta: paths.Segment
    direction: paths.Segment
    config: solver.SolverConfig
    checks: tuple
    raw: dict


def _segment_from_spec(d, config, dim):
    r, mesh = config.r, config.mesh
    n = config.n_history
    u = -r + mesh * np.arange(n + 1)
    form = d.get("form", "constant")

    def vector(key, default):
        return np.broadcast_to(np.atleast_1d(np.asarray(d.get(key, default),
                                                        dtype=float)), (dim,))

    if form == "constant":
        vals = np.tile(vector("value", 1.0), (n + 1, 1))
    elif form == "linear":
        vals = vector("value", 1.0)[None, :] + np.outer(u, vector("slope", 0.0))
    elif form == "cosine":
        amp = float(d.get("amplitude", 1.0))
        freq = float(d.get("frequency", 1.0))
        offset = float(d.get("offset", 0.0))
        vals = np.tile((offset + amp * np.cos(2 * math.pi * freq * u))[:, None],
                       (1, dim))
    elif form == "samples":
        vals = np.asarray(d["samples"], dtype=float)
    else:
        raise DomainError(f"unknown segment form {form!r}")
    return paths.Segment(r, mesh, vals)


def default_direction(config, dim):
    """Cosine bump scaled to infty,beta norm 1/2: a generic test direction."""
    spec = {"form": "cosine", "amplitude": 1.0, "frequency": 1.0}
    seg = _segment_from_spec(spec, config, dim)
    return scale_segment_to_norm(seg, config.beta, 0.5)


def scale_segment_to_norm(seg, beta, target):
    norm = paths.segment_norm(seg, beta)
    if norm <= 0:
        raise DomainError("cannot scale a zero segment to a positive norm")
    return seg.with_values(seg.values * (target / norm))


def _object(value, what):
    if isinstance(value, dict):
        return value
    raise DomainError(f"{what} must be an object, got {type(value).__name__}")


@contextmanager
def _section(name, value):
    """Yield scenario section ``name``, an object; report a bad key or value
    in it as a DomainError."""
    _object(value, f"scenario {name}")
    try:
        yield value
    except (TypeError, ValueError) as exc:
        raise DomainError(f"scenario {name}: {exc}") from exc


def build_scenario(d):
    d = dict(_object(d, "scenario"))
    name = d.get("name", "scenario")
    with _section("coefficients", d["coefficients"]) as spec:
        coeffs = co.coefficients_from_json(spec)
    with _section("config", d["config"]) as spec:
        config = solver.SolverConfig(**spec)
    with _section("driver", d["driver"]) as spec:
        driver = drivers.spec_from_json({"T": config.T, "mesh": config.mesh,
                                         **spec})
    if abs(driver.mesh - config.mesh) > 1e-12 * config.mesh:
        raise DomainError("driver mesh != config mesh")
    if driver.T < config.T - 1e-12:
        raise DomainError("driver horizon shorter than config T")
    with _section("eta", d.get("eta", {})) as spec:
        eta = _segment_from_spec(spec, config, coeffs.dim)
    if "direction" in d:
        with _section("direction", d["direction"]) as spec:
            direction = _segment_from_spec(spec, config, coeffs.dim)
    else:
        direction = default_direction(config, coeffs.dim)
    checks = d.get("checks", list(_CHECKS))
    if not isinstance(checks, list):
        raise DomainError(f"scenario checks must be a list, got {checks!r}")
    unknown = [c for c in checks if not isinstance(c, str) or c not in _CHECKS]
    if unknown:
        raise DomainError(f"unknown checks {unknown}")
    return Scenario(name=name, coefficients=coeffs, driver=driver, eta=eta,
                    direction=direction, config=config, checks=tuple(checks),
                    raw=d)


def load_scenario(path, seed=None, mesh=None):
    with open(path) as f:
        d = _object(json.load(f), "scenario")
    if seed is not None:
        _object(d.setdefault("driver", {}), "scenario driver")["seed"] = \
            int(seed)
    if mesh is not None:
        for section in ("config", "driver"):
            _object(d.setdefault(section, {}), f"scenario {section}")["mesh"] = \
                float(mesh)
    return build_scenario(d)


# ---------------------------------------------------------------------------
# Emission: deterministic CSV / JSON artifacts.

def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float) or isinstance(x, np.floating):
        return f"{float(x):.17g}"
    return str(x)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def write_table(rows, header, fileobj):
    """CSV table; an empty row list still yields a valid header-only file."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])


def write_json_file(obj, filepath):
    with open(filepath, "w") as f:
        json.dump(_jsonable(obj), f, sort_keys=True, indent=1)
        f.write("\n")


def partition_rows(partition):
    return [(t, r) for t, r in zip(partition.times[1:], partition.residuals)]


def solve_diagnostics(report, partition_bound=None):
    ball = solver.ball_check(report)
    d = {
        "n_windows": report.partition.n_windows,
        "N": report.partition.N,
        "threshold": report.partition.threshold,
        "C": report.partition.C,
        "mu": report.partition.mu,
        "eta_norm": report.eta_norm,
        "ball_ok": ball.passed,
        "nu_seminorm": report.nu_seminorm,
        "max_residual": max(report.window_residuals),
        "total_iterations": int(sum(report.window_iterations)),
        "windows": [
            {"t_start": w.t_start, "t_end": w.t_end,
             "iterations": w.iterations, "residual": w.residual,
             "ball_radius": radius, "max_iterate_norm": norm,
             "split": w.split}
            for w, (radius, norm) in zip(report.windows, ball.rows)],
    }
    if partition_bound is not None:
        d["stopping_count_bound"] = partition_bound
    return d


# ---------------------------------------------------------------------------
# Subcommands.

def _solve_scenario(scenario):
    return solver.picard_solve(scenario.coefficients, scenario.eta,
                               drivers.gen_driver(scenario.driver),
                               scenario.config)


def _continuity(scenario, report, sizes=(1e-1, 1e-2)):
    """Continuity reports of ``eta + size * xi / |xi|`` and whether all hold."""
    config = scenario.config
    unit = scale_segment_to_norm(scenario.direction, config.beta, 1.0)
    reps = [sensitivity.continuity_check(report, scenario.eta.with_values(
        scenario.eta.values + size * unit.values)) for size in sizes]
    return reps, all(rep.pointwise_ok and rep.full_ok for rep in reps)


def _differentiability(scenario, rep):
    """Verdict and detail of a remainder ladder along the scenario direction:
    at noise level for the linear family, else shrinking to at most half its
    first value."""
    if scenario.coefficients.family == "linear_delay":
        return rep.max_rho <= 1e-5, f"max rho {rep.max_rho:.3e} (linear)"
    return (rep.decreasing and rep.final_over_initial <= 0.5,
            f"ratio {rep.final_over_initial:.4f}")


def _counterexample_rows(beta, p, ns):
    """Rows ``(n, partition sum, lower bound)`` of the p-variation growth of
    ``|t|^beta``, and whether every sum meets its bound and the sums grow."""
    rows = [(n, paths.counterexample_growth(beta, p, n),
             n ** ((1.0 - beta * p) / p)) for n in ns]
    ok = all(v >= b * (1.0 - 1e-12) for _, v, b in rows)
    ok = ok and all(b[1] > a[1] for a, b in zip(rows, rows[1:]))
    return rows, ok


def _write_solution(report, out):
    with open(os.path.join(out, "solution.csv"), "w") as f:
        paths.write_csv(report.solution, f)
    with open(os.path.join(out, "partition.csv"), "w") as f:
        write_table(partition_rows(report.partition), ["t_i", "residual"], f)


def cmd_solve(args, scenario, out, say):
    report = _solve_scenario(scenario)
    _write_solution(report, out)
    bound = None
    if report.partition.C > 0:
        bound = solver.stopping_count_bound(report.omega, scenario.config,
                                            report.partition.C)
    write_json_file(solve_diagnostics(report, bound),
                    os.path.join(out, "diagnostics.json"))
    say(f"solved {scenario.name}: {report.partition.n_windows} windows, "
        f"max residual {max(report.window_residuals):.3e}")
    return EXIT_OK


def cmd_partition(args, scenario, out, say):
    omega = drivers.gen_driver(scenario.driver)
    config = scenario.config
    if args.C is not None:
        C = float(args.C)
        if not 0.0 < C < math.inf:
            raise DomainError(f"greedy partition needs 0 < C < inf, got {C!r}")
    else:
        C = solver.compute_contraction_constants(scenario.coefficients,
                                                 config).C
        if C <= 0.0:
            raise DomainError("C must be positive to fix mu < C "
                              "(coefficients are identically zero)")
    part = solver.greedy_partition(omega, config, C)
    bound = solver.stopping_count_bound(omega, config, C)
    with open(os.path.join(out, "partition.csv"), "w") as f:
        write_table(partition_rows(part), ["t_i", "residual"], f)
    analytic = (config.mu / C) ** (1.0 / (1.0 - config.beta))
    snapped = max(1, math.floor(analytic / config.mesh)) * config.mesh
    info = {
        "C": C, "mu": config.mu, "threshold": part.threshold,
        "n_windows": part.n_windows, "N": part.N,
        "stopping_count_bound": bound,
        "count_margin": bound - part.N,
        "driverless_window_length": analytic,
        "driverless_window_snapped": snapped,
        "driverless_expected_count": math.ceil(config.T / snapped),
    }
    write_json_file(info, os.path.join(out, "partition.json"))
    say(f"partition: N={part.N} windows={part.n_windows} "
        f"bound={bound:.3g} margin={bound - part.N:.3g}")
    return EXIT_OK if part.N <= bound else EXIT_CHECK_FAILED


def cmd_converge(args, scenario, out, say):
    levels = int(args.levels)
    if levels < 2:
        raise DomainError("converge needs at least 2 levels")
    if not args.rtol >= 0:
        raise DomainError(f"converge needs --rtol >= 0, got {args.rtol!r}")
    spec = scenario.driver
    fine = replace(spec, mesh=spec.mesh / 2 ** (levels - 1))
    omega_fine = drivers.gen_driver(fine)
    target = 0.5 * float(omega_fine.values[-1, 0] ** 2
                         - omega_fine.values[0, 0] ** 2)
    # the integrand's scale, so that a target that vanishes by cancellation
    # (a whole period of a sine) or exactly (a zero driver) can be judged
    scale = max(abs(target), 0.5 * float(np.max(omega_fine.values ** 2)))
    rows = []
    for lev in range(levels):
        om = omega_fine.subsample(2 ** (levels - 1 - lev))
        val = float(young.young_integral(om, om)[0])
        err = abs(val - target)
        rel = err / abs(target) if target != 0 else math.inf
        rows.append((om.mesh, val, err, rel))
    decreasing = not any(b[2] > a[2] for a, b in zip(rows, rows[1:]))
    with open(os.path.join(out, "converge.csv"), "w") as f:
        write_table(rows, ["mesh", "integral", "abs_error", "rel_error"], f)
    final_err = rows[-1][2]
    threshold = float(args.rtol) * scale
    ok = decreasing and (final_err == 0.0 or final_err <= threshold)
    say(f"converge: target {target:.6g}, final abs error {final_err:.3e} "
        f"(threshold rtol * scale {threshold:.3e}), "
        f"errors {'decreasing' if decreasing else 'NOT decreasing'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_sensitivity(args, scenario, out, say):
    report = _solve_scenario(scenario)
    sizes = args.pert or (1e-1, 1e-2)
    reps, cont_ok = _continuity(scenario, report, sizes)
    continuity = {
        f"{size:.17g}": {
            "eta_gap": rep.eta_gap, "N_T": rep.N_T, "C": rep.C,
            "pointwise_ok": rep.pointwise_ok,
            "pointwise_min_margin": rep.pointwise_min_margin,
            "full_ok": rep.full_ok, "full_margin": rep.full_margin,
        } for size, rep in zip(sizes, reps)}
    diff = sensitivity.differentiability_check(
        report, scenario.direction, eps_ladder=args.eps or (1e-1, 1e-2, 1e-3))
    diff_ok, _ = _differentiability(scenario, diff)
    with open(os.path.join(out, "differentiability.csv"), "w") as f:
        write_table(diff.table, ["eps", "rho"], f)
    verdict = {
        "continuity": continuity,
        "differentiability": {
            "decreasing": diff.decreasing,
            "final_over_initial": diff.final_over_initial,
            "max_rho": diff.max_rho,
        },
    }
    write_json_file(verdict, os.path.join(out, "sensitivity.json"))
    say(f"sensitivity: continuity {'ok' if cont_ok else 'FAILED'}, "
        f"rho ladder {'ok' if diff_ok else 'FAILED'} "
        f"(ratio {diff.final_over_initial:.3g})")
    return EXIT_OK if cont_ok and diff_ok else EXIT_CHECK_FAILED


def cmd_counterexample(args, scenario, out, say):
    rows, ok = _counterexample_rows(args.beta, args.p,
                                    args.n or (100, 1000, 10000))
    with open(os.path.join(out, "counterexample.csv"), "w") as f:
        write_table(rows, ["n", "partition_sum", "lower_bound"], f)
    for n, v, b in rows:
        say(f"n={n}: partition sum {v:.6g} >= lower bound {b:.6g}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# verify's checks: each takes the scenario and its solve and returns
# ``(passed, detail)``, then any tables ``(file stem, header, rows)`` to write.

def _check_regularity(scenario, report):
    coeffs, config = report.coeffs, report.config
    sampler = co.bounded_segment_sampler(config.r, config.mesh, coeffs.dim,
                                         2.0)
    rep = co.verify_regularity(coeffs, sampler, M=2.0, trials=200, seed=1)
    worst = max(rep.f_lipschitz, rep.dg_bound, rep.dg_holder)
    return rep.passed, f"worst ratio {worst:.6f}"


def _check_solve(scenario, report):
    residual = max(report.window_residuals)
    ok = (residual <= report.config.picard_tol and report.ball_ok
          and np.array_equal(report.eta.values, scenario.eta.values))
    return ok, f"max residual {residual:.3e}, ball_ok {report.ball_ok}"


def _check_partition(scenario, report):
    config, part = report.config, report.partition
    ok = bool(np.all(part.residuals <= part.threshold * (1 + 1e-12)))
    # no window stretches one cell further
    longer = [(ta, tb + config.mesh) for ta, tb in part.windows()
              if tb + config.mesh <= config.T + 1e-12]
    ok = ok and all(res > part.threshold for res in solver.window_residual(
        report.omega, config.beta, config.nu, longer))
    if part.C > 0:
        bound = solver.stopping_count_bound(report.omega, config, part.C)
        ok = ok and part.N <= bound
    return ok, f"N={part.N}, threshold={part.threshold:.4g}"


def _check_euler(scenario, report):
    config = report.config
    eu = solver.euler_solve(report.coeffs, scenario.eta, report.omega, config)
    diff = paths.GridPath(eu.t0, eu.mesh, eu.values - report.solution.values)
    gap = paths.holder_norm(diff, config.beta)
    return gap <= 10 * config.picard_tol, f"gap {gap:.3e}"


def _check_young(scenario, report):
    coeffs, config = report.coeffs, report.config
    integrands = [report.solution.restrict(0.0, config.T),
                  co.composition_path(coeffs.g, report.solution, config.r,
                                      (0.0, config.T)),
                  report.first_iterate.restrict(0.0, config.T)]
    sweep = young.certificate_sweep(integrands, report.omega, (0.0, config.T),
                                    config.young(coeffs.delta), n_windows=34,
                                    seed=2)
    table = ("young_certificate",
             ["integrand", "t_start", "t_end", "gap", "bound"], sweep.rows)
    return (sweep.violations == 0, f"{sweep.n_windows} windows, worst "
            f"gap/bound {sweep.worst_ratio:.4f}", table)


def _check_growth(scenario, report):
    rep = solver.growth_bound_check(report, scenario.eta)
    return rep.passed, f"min log-margin {rep.min_margin:.3f}"


def _check_uniqueness(scenario, report):
    rep = solver.uniqueness_probe(report)
    return rep.passed, f"max pairwise {rep.max_pairwise:.3e}"


def _check_continuity(scenario, report):
    reps, ok = _continuity(scenario, report)
    return ok, ("min margins "
                f"{[f'{rep.pointwise_min_margin:.2f}' for rep in reps]}")


def _check_differentiability(scenario, report):
    return _differentiability(scenario, sensitivity.differentiability_check(
        report, scenario.direction))


def _check_estimates(scenario, report):
    coeffs, config, sol = report.coeffs, report.config, report.solution
    n0 = sol.index_of(0.0)
    nT = sol.index_of(config.T)
    if nT - n0 < 2:
        raise DomainError("estimates need a horizon of at least 2 cells")
    # 40 random windows of at least 2 cells in [0, T]
    windows = [(sol.t0 + i * sol.mesh, sol.t0 + j * sol.mesh)
               for i, j in paths.random_windows(3, n0, nT, 2, 40)]
    ok = True
    comps = co.composition_holder(coeffs, sol, config.beta, config.r,
                                  windows[:30])
    for (a, b), comp in zip(windows[:30], comps):
        lem1 = paths.segment_path_holder(sol, config.beta, config.r, (a, b))
        ok = ok and lem1 <= comp.enlarged * (1 + 1e-9) + 1e-12
        ok = ok and comp.seminorm <= \
            coeffs.L_g * comp.enlarged * (1 + 1e-9) + 1e-12
    bump = paths.GridPath(sol.t0, sol.mesh, sol.values + 0.05 * np.sin(
        2 * math.pi * np.linspace(0, 1, sol.values.shape[0]))[:, None])
    for rep in co.composition_holder_diff(coeffs, sol, bump, config.beta,
                                          config.r, windows[30:]):
        ok = ok and rep.lhs <= rep.bound_tight * (1 + 1e-9) + 1e-12
        ok = ok and rep.bound_tight <= rep.bound_weak * (1 + 1e-9)
    p = 1.0 / config.beta
    pv = paths.pvar_seminorm(sol, p, (0.0, config.T))
    hb = paths.holder_seminorm(sol, config.beta, (0.0, config.T))
    ok = ok and pv <= hb * config.T ** config.beta * (1 + 1e-9)
    return ok, "translation/composition/difference estimates, p-var vs Holder"


def _check_counterexample(scenario, report):
    rows, ok = _counterexample_rows(0.4, 2.0, (100, 1000))
    return ok, f"values {[f'{v:.4f}' for _, v, _ in rows]}"


# verify's checks by name, in run and print order; a scenario's ``checks``
# names the ones to run (default all).
_CHECKS = {
    "regularity": _check_regularity,
    "solve": _check_solve,
    "partition": _check_partition,
    "euler": _check_euler,
    "young": _check_young,
    "growth": _check_growth,
    "uniqueness": _check_uniqueness,
    "continuity": _check_continuity,
    "differentiability": _check_differentiability,
    "estimates": _check_estimates,
    "counterexample": _check_counterexample,
}


def cmd_verify(args, scenario, out, say):
    report = _solve_scenario(scenario)
    results = {name: check(scenario, report)
               for name, check in _CHECKS.items() if name in scenario.checks}
    all_ok = all(ok for ok, *_ in results.values())
    _write_solution(report, out)
    for name, (ok, detail, *tables) in results.items():
        say(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        for stem, header, rows in tables:
            with open(os.path.join(out, stem + ".csv"), "w") as f:
                write_table(rows, header, f)
    write_json_file(
        {"scenario": scenario.name,
         "checks": {name: {"passed": ok, "detail": detail}
                    for name, (ok, detail, *_) in results.items()},
         "all_passed": all_ok},
        os.path.join(out, "verify.json"))
    say(f"verify: {'all checks passed' if all_ok else 'CHECKS FAILED'}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _ensemble_worker(raw_scenario, seed):
    d = json.loads(raw_scenario)
    d.setdefault("driver", {})["seed"] = int(seed)
    scenario = build_scenario(d)
    report = _solve_scenario(scenario)
    growth = solver.growth_bound_check(report, scenario.eta)
    return {
        "seed": int(seed),
        "n_windows": report.partition.n_windows,
        "N": report.partition.N,
        "max_residual": max(report.window_residuals),
        "growth_margin": growth.min_margin,
        "growth_ok": growth.passed,
    }


def cmd_ensemble(args, scenario, out, say):
    if int(args.seeds) < 1:
        raise DomainError("ensemble needs --seeds >= 1")
    if int(args.workers) < 1:
        raise DomainError("ensemble needs --workers >= 1")
    base_seed = int(scenario.driver.seed)
    seeds = [base_seed + k for k in range(int(args.seeds))]
    raw = json.dumps(scenario.raw)
    # a pool starts all its workers at once: no more than there are seeds
    workers = min(int(args.workers), len(seeds))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(_ensemble_worker, [raw] * len(seeds), seeds))
    else:
        rows = [_ensemble_worker(raw, s) for s in seeds]
    rows.sort(key=lambda r: r["seed"])
    table = [(r["seed"], r["N"], r["n_windows"], r["max_residual"],
              r["growth_margin"]) for r in rows]
    with open(os.path.join(out, "ensemble.csv"), "w") as f:
        write_table(table, ["seed", "N", "n_windows", "max_residual",
                            "growth_margin"], f)
    ok = all(r["growth_ok"] for r in rows)
    say(f"ensemble: {len(rows)} seeds, min growth margin "
        f"{min(r['growth_margin'] for r in rows):.3f}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Entry point.

def _build_parser():
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--scenario", help="scenario JSON file")
    scenario.add_argument("--seed", type=int, help="override driver seed")
    scenario.add_argument("--mesh", type=float, help="override grid mesh")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="output directory (default $YDDE_OUT or .)")
    output.add_argument("--quiet", action="store_true")
    common = [scenario, output]

    parser = argparse.ArgumentParser(
        prog="ydde",
        description="Pathwise Young delay equation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("solve", parents=common,
                   help="solve the scenario; emit solution and partition")
    p = sub.add_parser("partition", parents=common,
                       help="greedy stopping-time partition and count bound")
    p.add_argument("--C", type=float, help="override the partition constant C")
    p = sub.add_parser("converge", parents=common,
                       help="mesh-halving ladder for the self-integral")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--rtol", type=float, default=1e-3,
                   help="pass iff the errors do not grow and the final one "
                        "is 0 or at most rtol * max(|target|, "
                        "max |omega|^2 / 2)")
    p = sub.add_parser("sensitivity", parents=common,
                       help="continuity and differentiability tables")
    p.add_argument("--pert", type=float, action="append",
                   help="continuity perturbation size (repeatable)")
    p.add_argument("--eps", type=float, action="append",
                   help="differentiability ladder entry (repeatable)")
    p = sub.add_parser("counterexample", parents=[output],
                       help="p-variation growth table for x(t) = |t|^beta")
    p.add_argument("--beta", type=float, default=0.4)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--n", type=int, action="append",
                   help="partition size (repeatable)")
    sub.add_parser("verify", parents=common,
                   help="full property suite; exit 0 iff all checks pass")
    p = sub.add_parser("ensemble", parents=common,
                       help="growth-bound margins across seeds")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--workers", type=int, default=1)
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "partition": cmd_partition,
    "converge": cmd_converge,
    "sensitivity": cmd_sensitivity,
    "counterexample": cmd_counterexample,
    "verify": cmd_verify,
    "ensemble": cmd_ensemble,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = args.out or os.environ.get("YDDE_OUT") or "."
    say = (lambda *a: None) if args.quiet else (lambda *a: print(*a))
    try:
        os.makedirs(out, exist_ok=True)
        scenario = None
        if hasattr(args, "scenario"):     # built on the scenario parent
            if not args.scenario:
                raise DomainError(f"{args.command} requires --scenario FILE")
            scenario = load_scenario(args.scenario, seed=args.seed,
                                     mesh=args.mesh)
        return _COMMANDS[args.command](args, scenario, out, say)
    except (DomainError, OSError, KeyError, json.JSONDecodeError,
            ConvergenceError, GenerationError) as exc:
        if os.path.isdir(out):
            with suppress(OSError):    # must not mask the error it reports
                write_json_file({"error": {"type": type(exc).__name__,
                                           "message": str(exc)}},
                                os.path.join(out, "error.json"))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
