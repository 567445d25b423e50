"""Workloads, measurement loop and metrics of the ydde benchmark.

Import this module only after ``bootstrap.prepare()``: it imports numpy.
Every operation drives ydde through the public functions of its modules,
in this process, and passes a correctness gate; a failed gate, a non-zero
exit or an exception counts the operation as failed and the run goes on.
"""

import csv
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np
import scipy
import scipy.linalg

import bootstrap
import tracer as tr

WORKLOADS = ("verify-fbm", "solve-fine", "ensemble-seeds")
FBM_SCENARIOS = ("sin_fbm", "logistic_fbm", "linear_fbm", "additive_fbm")

# The workload's own end-to-end figure, derived from the seconds per pass.
WORKLOAD_METRIC = {"verify-fbm": ("verify_s", "s"),
                   "solve-fine": ("solve_s", "s"),
                   "ensemble-seeds": ("solves_per_s", "1/s")}

COST_LAYERS = ("drivers.gen_driver", "solver.picard_solve",
               "solver.euler_solve", "paths.segment_norm_profile")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes: the benchmark's defaults; the self-test shrinks them."""

    verify_mesh: float | None = None     # None: the scenarios' own 2^-8
    solve_mesh: float = 2.0 ** -12
    ensemble_mesh: float = 2.0 ** -10
    ensemble_seeds: int = 4
    sweep_meshes: tuple = (2.0 ** -8, 2.0 ** -10, 2.0 ** -12)
    setup_probes: int = 5


class GateError(AssertionError):
    """An operation returned, but its output failed the correctness gate."""


def _gate(ok, message):
    if not ok:
        raise GateError(message)


def driver_seeds(seed, k):
    """The k driver seeds that the workload seed stands for."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def scenario_file(name):
    return str(bootstrap.SCENARIOS / f"{name}.json")


# ---------------------------------------------------------------------------
# Set-up: everything between a fresh process and the first operation.

def load(ydde, workload, seed, sizes):
    """Load the workload's scenarios and make the first BLAS/LAPACK call.

    Returns ``[(scenario name, driver seed, Scenario)]``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    cli = ydde.cli
    if workload == "verify-fbm":
        names, mesh = FBM_SCENARIOS, sizes.verify_mesh
    else:
        names = ("sin_fbm",)
        mesh = sizes.solve_mesh if workload == "solve-fine" \
            else sizes.ensemble_mesh
    loaded = [(name, s, cli.load_scenario(scenario_file(name), seed=s,
                                          mesh=mesh))
              for name, s in zip(names, driver_seeds(seed, len(names)))]
    # The first call into OpenBLAS costs far more than a warm one.
    warm = ydde.drivers.DriverSpec(kind="fbm", T=1.0, mesh=0.125, hurst=0.75)
    ydde.drivers.gen_driver(warm)
    return loaded


# ---------------------------------------------------------------------------
# Operations.  Each is a callable that raises when its output is wrong.

def verify_op(ydde, name, seed, mesh, out):
    argv = ["verify", "--scenario", scenario_file(name), "--seed", str(seed),
            "--out", out, "--quiet"]
    if mesh is not None:
        argv += ["--mesh", repr(mesh)]
    verdict_file = os.path.join(out, "verify.json")

    def op():
        if os.path.exists(verdict_file):
            os.remove(verdict_file)
        code = ydde.cli.main(argv)
        with open(verdict_file) as f:
            verdict = json.load(f)
        failed = sorted(k for k, v in verdict["checks"].items()
                        if not v["passed"])
        _gate(code == 0 and verdict["all_passed"] and not failed,
              f"verify {name} seed {seed}: exit {code}, failed {failed}")
    return op


def solve_op(ydde, scenario):
    """gen_driver -> picard_solve -> euler cross-check -> growth check."""
    drivers, solver, paths = ydde.drivers, ydde.solver, ydde.paths
    coeffs, eta, config = scenario.coefficients, scenario.eta, scenario.config

    def op():
        omega = drivers.gen_driver(scenario.driver)
        report = solver.picard_solve(coeffs, eta, omega, config)
        euler = solver.euler_solve(coeffs, eta, omega, config)
        gap = paths.holder_norm(paths.GridPath(
            euler.t0, euler.mesh, euler.values - report.solution.values),
            config.beta)
        growth = solver.growth_bound_check(report, eta)
        residual = max(report.window_residuals)
        _gate(residual <= config.picard_tol and report.ball_ok
              and gap <= 10 * config.picard_tol and growth.passed,
              f"solve {scenario.name} seed {scenario.driver.seed}: residual "
              f"{residual:.3e}, ball_ok {report.ball_ok}, euler gap "
              f"{gap:.3e}, growth {growth.passed}")
    return op


def ensemble_op(ydde, scenario, seed, n_seeds, out):
    argv = ["ensemble", "--scenario", scenario_file("sin_fbm"),
            "--seed", str(seed), "--mesh", repr(scenario.config.mesh),
            "--seeds", str(n_seeds), "--workers", "1", "--out", out,
            "--quiet"]
    table = os.path.join(out, "ensemble.csv")
    tol = scenario.config.picard_tol

    def op():
        if os.path.exists(table):
            os.remove(table)
        code = ydde.cli.main(argv)
        with open(table) as f:
            rows = list(csv.DictReader(f))
        seeds = [int(r["seed"]) for r in rows]
        worst = max(float(r["max_residual"]) for r in rows)
        # The CLI exits 0 only when every row's growth check passed.
        _gate(code == 0 and seeds == list(range(seed, seed + n_seeds))
              and worst <= tol,
              f"ensemble from seed {seed}: exit {code}, seeds {seeds}, "
              f"max residual {worst:.3e}")
    return op


def make_ops(ydde, workload, loaded, sizes, out):
    """``(label, op)`` pairs for one pass, plus the units one pass completes."""
    if workload == "verify-fbm":
        ops = []
        for name, seed, _ in loaded:
            os.makedirs(os.path.join(out, name))
            ops.append((name, verify_op(ydde, name, seed, sizes.verify_mesh,
                                        os.path.join(out, name))))
        return ops, 1
    (_, seed, scenario), = loaded
    if workload == "solve-fine":
        return [("solve", solve_op(ydde, scenario))], 1
    return [("ensemble", ensemble_op(ydde, scenario, seed,
                                     sizes.ensemble_seeds, out))], \
        sizes.ensemble_seeds


# ---------------------------------------------------------------------------
# Measurement.

class HostSpeed:
    """How fast the host runs right now, from a fixed calibration loop.

    On a shared host the wall time of one operation drifts by about 20%
    over tens of seconds with other tenants' load.  The loop mixes what
    ydde's hot paths do (a Python loop over small numpy slices, a pair
    scan, a dense Cholesky factorization, passes over an 8 MB array) and
    never calls ydde, so a change to ydde cannot move it.  ``scale()`` is
    ``REFERENCE_S`` over the median of three loops: a wall time times the
    scale is in seconds at the speed where one loop takes ``REFERENCE_S``.
    """

    REFERENCE_S = 0.03

    def __init__(self):
        rng = np.random.default_rng(0)
        self.path = rng.standard_normal((2400, 1)).cumsum(axis=0)
        self.weights = rng.standard_normal(65)
        m = rng.standard_normal((700, 700))
        self.spd = m @ m.T + 700 * np.eye(700)
        self.big = rng.standard_normal(2 ** 20)

    def _loop(self):
        start = time.perf_counter()
        x = self.path
        acc = 0.0
        for k in range(64, 2400):
            seg = x[k - 64:k + 1, 0]
            acc += float(np.dot(self.weights, seg)) + float(np.sin(seg[-1])) \
                + float(seg.max())
        for g in range(1, 800):
            acc += float(np.sqrt(((x[g:] - x[:-g]) ** 2).sum(axis=1)).max())
        scipy.linalg.cholesky(self.spd, lower=True)
        acc += float(self.big.max() - self.big.min())
        return time.perf_counter() - start

    def scale(self):
        return self.REFERENCE_S / statistics.median(
            self._loop() for _ in range(3))


class Tally:
    """Operations attempted and failed; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, op):
        self.attempted += 1
        start = time.perf_counter()
        try:
            op()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start


def traced(ydde, tracer, label, op, roots):
    def call():
        with tr.instrument(tracer, ydde), tracer.span(label) as root:
            roots.append(root)
            op()
    return call


@dataclass
class Samples:
    """Per-label seconds of one run."""

    plain: dict          # untraced wall seconds
    scale: dict          # host-speed scale sampled before each untraced op
    traced: dict         # wall seconds of the traced repeats
    roots: list          # root spans of the traced repeats
    passes: int = 0


def measure(ops, seconds, tally, speed=None, tracer=None, ydde=None,
            between=None):
    """Whole passes over ``ops`` while the next pass still fits in ``seconds``.

    ``speed`` samples the host speed before each untraced operation.  With
    a tracer each operation runs twice in a row, untraced then traced, so
    both halves see the same machine load.  ``between`` runs after each
    pass.
    """
    samples = Samples(*({label: [] for label, _ in ops} for _ in range(3)),
                      roots=[])
    start = time.perf_counter()
    while True:
        for label, op in ops:
            if speed is not None:
                samples.scale[label].append(speed.scale())
            samples.plain[label].append(tally.attempt(op))
            if tracer is not None:
                samples.traced[label].append(tally.attempt(
                    traced(ydde, tracer, label, op, samples.roots)))
        samples.passes += 1
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        if elapsed * (samples.passes + 1) / samples.passes > seconds:
            return samples


def pass_seconds(times, scale=None):
    """Seconds per pass: each operation's median time, summed.  With
    ``scale``, each time is first scaled to the reference host speed."""
    if scale is not None:
        times = {k: [t * s for t, s in zip(v, scale[k])]
                 for k, v in times.items()}
    return sum(statistics.median(v) for v in times.values())


def probe_setup(workload, seed, sizes):
    """Seconds from spawning a fresh interpreter until it is set up."""
    argv = [sys.executable, str(bootstrap.ROOT / "bench" / "setup_probe.py"),
            workload, str(seed), json.dumps(asdict(sizes))]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited {code} after {line!r}")
    return elapsed


def cost_sweep(ydde, tracer, seed, meshes, tally):
    """Traced solve-fine operations at each mesh; log-log slope per layer."""
    s = driver_seeds(seed, 1)[0]
    sizes, per_layer = [], {name: [] for name in COST_LAYERS}
    for mesh in meshes:
        scenario = ydde.cli.load_scenario(scenario_file("sin_fbm"), seed=s,
                                          mesh=mesh)
        roots = []
        tally.attempt(traced(ydde, tracer, f"sweep n={round(1 / mesh)}",
                             solve_op(ydde, scenario), roots))
        layers = tracer.self_times(roots)
        sizes.append(scenario.config.n_horizon)
        for name in COST_LAYERS:
            per_layer[name].append(max(layers.get(name, (0.0, 0))[0], 1e-9))
    x = np.log(sizes)
    slopes = {f"{name}_cost_exp": float(np.polyfit(x, np.log(t), 1)[0])
              for name, t in per_layer.items()}
    table = {str(n): {name: t[i] for name, t in per_layer.items()}
             for i, n in enumerate(sizes)}
    return slopes, table


# ---------------------------------------------------------------------------
# Environment.

_BLAS_CALLS = {
    "config": ("openblas_get_config", "openblas_get_config64_",
               "scipy_openblas_get_config", "scipy_openblas_get_config64_"),
    "threads": ("openblas_get_num_threads", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "scipy_openblas_get_num_threads64_"),
}


def blas_libraries():
    """Each loaded OpenBLAS: its build configuration and live thread count."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return []
    found = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        entry = {"library": os.path.basename(lib)}
        for key, restype in (("config", ctypes.c_char_p),
                             ("threads", ctypes.c_int)):
            for symbol in _BLAS_CALLS[key]:
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype, fn.argtypes = restype, []
                    value = fn()
                    entry[key] = value.decode() if key == "config" else value
                    break
        found.append(entry)
    return found


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_set": bootstrap.BLAS_THREADS,
        "blas": blas_libraries(),
    }


# ---------------------------------------------------------------------------
# One run.

def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(ydde, workload, seed, seconds, trace, sizes=Sizes()):
    """Set up, measure for ``seconds`` and return ``(result, report)``.

    ``result`` is the benchmark's last output line; ``report`` holds the
    environment, the workload's own figure in wall seconds, sample counts
    and, when traced, the cost sweep's per-size times.
    """
    os.makedirs(bootstrap.OUT, exist_ok=True)
    out = tempfile.mkdtemp(prefix=f"{workload}-", dir=bootstrap.OUT)
    try:
        loaded = load(ydde, workload, seed, sizes)
        ops, units = make_ops(ydde, workload, loaded, sizes, out)
        tally = Tally()
        report = {"workload": workload, "seed": seed,
                  "environment": environment()}
        if trace:
            tracer = tr.Tracer()
            samples = measure(ops, seconds, tally, tracer=tracer, ydde=ydde)
            metrics = layer_metrics(ydde, tracer, samples, seed, sizes, tally,
                                    report)
        else:
            speed = HostSpeed()
            setups = []

            def probe():
                scale = speed.scale()
                setups.append((probe_setup(workload, seed, sizes), scale))
            # Probes between passes sample set-up across the run's load.
            samples = measure(ops, seconds, tally, speed, between=probe)
            while len(setups) < sizes.setup_probes:
                probe()
            metrics = {
                "op_s": _metric(
                    pass_seconds(samples.plain, samples.scale) / units, "s"),
                "setup_s": _metric(
                    statistics.median(t * s for t, s in setups), "s"),
                "peak_rss_mb": _metric(resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
            }
            report["setup_wall_s"] = [t for t, _ in setups]
            report["host_speed_scale"] = statistics.median(
                s for v in samples.scale.values() for s in v)
        per_pass = pass_seconds(samples.plain)
        name, unit = WORKLOAD_METRIC[workload]
        report[name] = {"value": units / per_pass if unit == "1/s"
                        else per_pass, "unit": unit}
        report.update(passes=samples.passes, units_per_pass=units,
                      ops_failed_frac=tally.failed / tally.attempted)
        if trace:
            _write_spans(workload, seed, report, tracer)
        result = {"correct": tally.failed == 0, "attempted": tally.attempted,
                  "failed": tally.failed, "metrics": metrics}
        return result, report
    finally:
        shutil.rmtree(out, ignore_errors=True)


def layer_metrics(ydde, tracer, samples, seed, sizes, tally, report):
    """Per-layer self seconds and calls per pass, counts, overhead, slopes."""
    passes = samples.passes
    layers = tracer.self_times(samples.roots)
    metrics = {}
    for _, _, name in tr.LAYERS:
        busy, calls = layers.get(name, (0.0, 0))
        metrics[f"{name}_s"] = _metric(busy / passes, "s")
        metrics[f"{name}_calls"] = _metric(calls / passes, "count")
    for name in ("solver.picard_iterations", "solver.windows",
                 "solver.split_windows", "young.windows_checked"):
        metrics[name] = _metric(tracer.counts[name] / passes, "count")
    untraced = sum(map(sum, samples.plain.values()))
    metrics["tracing_overhead_frac"] = _metric(
        sum(map(sum, samples.traced.values())) / untraced - 1.0, "ratio")
    slopes, sweep_table = cost_sweep(ydde, tracer, seed, sizes.sweep_meshes,
                                     tally)
    metrics.update({k: _metric(v, "1") for k, v in slopes.items()})
    metrics["ops_failed_frac"] = _metric(tally.failed / tally.attempted,
                                         "ratio")
    report["sweep_self_s"] = sweep_table
    return metrics


def _write_spans(workload, seed, report, tracer):
    path = bootstrap.OUT / f"spans-{workload}-{seed}.json"
    with open(path, "w") as f:
        json.dump({"report": report, "spans": tracer.dump()}, f)
    report["spans_file"] = str(path.relative_to(bootstrap.ROOT))
