"""Lockstep re-solves: K columns of the Picard engine against K solo solves."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rng
from ydde import solver
from ydde.coefficients import CoefficientSet, make_builtin, node_values
from ydde.drivers import DriverSpec, gen_fbm
from ydde.errors import ConvergenceError, DomainError
from ydde.paths import Segment
from ydde.solver import (_INIT_KINDS, SolverConfig, _left_sum_map,
                         picard_solve, resolve)

H = 1 / 256
R = 16 * H


def custom_coeffs(dim):
    """Unmarked functionals, one of them reading the whole segment."""
    return CoefficientSet(
        f=lambda seg: -0.2 * seg.values[-1] + 0.1 * np.tanh(seg.values[0]),
        g=lambda seg: 0.05 * np.cos(seg.values.mean(axis=0)),
        Df=None, Dg=None, L_f=0.3, L_g=0.05, L_M=lambda M: 0.05, delta=1.0,
        f0_norm=0.0, g0_norm=0.05 * dim ** 0.5, dim=dim)


def scaled(g, dim, norm):
    mat = g.normal(size=(dim, dim))
    return mat * (norm / np.linalg.norm(mat, 2))


def coefficients(family, dim, g):
    if family == "custom":
        return custom_coeffs(dim)
    if family == "scalar_logistic_bounded":
        return make_builtin(family, a=0.1 * g.uniform(-1, 1), sigma=0.05,
                            c=0.01 * g.normal())
    mats = {k: scaled(g, dim, 0.15) for k in ("A", "B")}
    if family == "linear_delay":
        return make_builtin(family, dim=dim, **mats,
                            Sigma=scaled(g, dim, 0.05),
                            c=0.01 * g.normal(size=dim))
    return make_builtin(family, dim=dim, **mats, sigma=0.05)


def history(g, dim, slope):
    """A segment on [-r, 0]: an offset, a slope and a wiggle per component."""
    u = np.linspace(-R, 0.0, 17)[:, None]
    vals = (g.normal(size=dim) + slope * g.uniform(0.5, 1.0, dim) * u
            + 0.1 * np.sin(40.0 * u * g.normal(size=dim)))
    return Segment(R, H, vals)


@st.composite
def batches(draw):
    """A coefficient set (the three families and an unmarked custom set, d in
    {1, 2, 3}), an fBm driver, a config whose iteration cap may force splits
    or errors, and 1 to 8 starts with their init kinds."""
    family = draw(st.sampled_from(("linear_delay", "sin_delay",
                                   "scalar_logistic_bounded", "custom")))
    dim = 1 if family == "scalar_logistic_bounded" else \
        draw(st.sampled_from((1, 2, 3)))
    g = rng(draw(st.integers(0, 2 ** 32 - 1)))
    coeffs = coefficients(family, dim, g)
    omega = gen_fbm(DriverSpec(kind="fbm", T=0.25, mesh=H, hurst=0.75,
                               seed=int(g.integers(2 ** 32)), amplitude=0.05))
    config = SolverConfig(beta=0.55, nu=0.7, mesh=H, T=0.25, r=R,
                          picard_tol=draw(st.sampled_from((1e-8, 1e-10))),
                          picard_max_iters=draw(st.sampled_from((3, 4, 80))))
    k = draw(st.integers(1, 8))
    starts = [(history(g, dim, draw(st.sampled_from((0.2, 50.0, 1e4, 1e6)))),
               draw(st.sampled_from(_INIT_KINDS))) for _ in range(k)]
    return coeffs, omega, config, starts


def base_for(coeffs, omega, config):
    """A base report on the partition of (coeffs, omega, config), solved
    with room to converge, carrying ``config``."""
    eta = Segment(R, H, np.ones((17, coeffs.dim)))
    base = picard_solve(coeffs, eta, omega,
                        replace(config, picard_max_iters=80))
    return replace(base, config=config)


def batched(base, starts):
    """``resolve``'s paths and the records of each column of its batch (None
    if it fell back to solo solves or raised)."""
    captured = []
    solve = solver._WindowedPicard.solve

    def spy(self, *args, **kwargs):
        out = solve(self, *args, **kwargs)
        captured.append(out[0])
        return out

    with mock.patch.object(solver._WindowedPicard, "solve", spy):
        paths = resolve(base, starts)
    return paths, captured[0] if len(captured) == 1 else None


def solo(coeffs, omega, config, starts):
    """Each start solved on its own, or the first ConvergenceError."""
    try:
        return [picard_solve(coeffs, eta, omega, config, init=kind)
                for eta, kind in starts], None
    except ConvergenceError as exc:
        return None, exc


def fields(records):
    return [(r.t_start, r.t_end, r.iterations, r.residual.hex(),
             tuple(x.hex() for x in r.contraction_ratios), r.split)
            for r in records]


def assert_matches_solo(coeffs, omega, config, starts):
    """The batch equals the solo solves bitwise, records included, or fell
    back to solo solves, which it does iff it holds two or more starts and
    one of them splits a window alone; returns the solo reports (None if a
    solo solve raised)."""
    base = base_for(coeffs, omega, config)
    reports, error = solo(coeffs, omega, config, starts)
    if error is not None:
        with pytest.raises(ConvergenceError) as got:
            resolve(base, starts)
        assert str(got.value) == str(error)
        assert got.value.residual_history == error.residual_history
        return None
    paths, records = batched(base, starts)
    split = any(w.split for report in reports for w in report.windows)
    assert (records is None) == (split and len(starts) > 1)
    for c, (path, report) in enumerate(zip(paths, reports)):
        assert path.values.tobytes() == report.solution.values.tobytes()
        if records is not None:
            assert fields(records[c]) == fields(report.windows)
    return reports


class TestResolveMatchesSolo:
    @settings(max_examples=60)
    @given(case=batches())
    def test_columns_equal_solo_solves(self, case):
        assert_matches_solo(*case)

    def split_case(self, kinds, slopes, iters, tol=1e-8, seed=2):
        coeffs = make_builtin("sin_delay", A=-0.15, B=0.1, sigma=0.05)
        omega = gen_fbm(DriverSpec(kind="fbm", T=0.25, mesh=H, hurst=0.75,
                                   seed=seed, amplitude=0.05))
        config = SolverConfig(beta=0.55, nu=0.7, mesh=H, T=0.25, r=R,
                              picard_tol=tol, picard_max_iters=iters)
        u = np.linspace(-R, 0.0, 17)[:, None]
        starts = [(Segment(R, H, 1.0 + slope * u), kind)
                  for kind, slope in zip(kinds, slopes)]
        return coeffs, omega, config, starts

    def test_one_column_splits(self):
        # the steep history's linear init needs more than 4 iterates on two
        # windows; the other columns converge on every window.  A batch
        # splits no column: it falls back to the solo solves
        case = self.split_case(_INIT_KINDS, (0.2, 1e4, 0.2), 4)
        reports = assert_matches_solo(*case)
        assert [sum(w.split for w in rep.windows) for rep in reports] \
            == [0, 2, 0]
        coeffs, omega, config, starts = case
        assert batched(base_for(coeffs, omega, config), starts)[1] is None

    def test_one_column_raises(self):
        # at 3 iterates the euler init fails a window's halves too, while
        # the other two columns split and go on (on the driver of seed 0)
        case = self.split_case(("linear", "euler_perturbed", "constant"),
                               (0.2, 0.2, 0.2), 3, seed=0)
        assert assert_matches_solo(*case) is None
        coeffs, omega, config, starts = case
        for kind in ("linear", "constant"):
            report = picard_solve(coeffs, starts[0][0], omega, config,
                                  init=kind)
            assert any(w.split for w in report.windows)

    def test_first_solo_error_is_raised(self):
        # the linear column fails on a later window than the constant one:
        # the error is the one the first start raises on its own (on the
        # driver of seed 5; on most drivers both fail on the same window)
        coeffs, omega, config, starts = self.split_case(
            ("linear", "constant"), (0.2, 0.2), 3, tol=1e-10, seed=5)
        errors = [solo(coeffs, omega, config, [start])[1] for start in starts]
        assert "nodes [43, 46]" in str(errors[0])
        assert "nodes [33, 36]" in str(errors[1])
        base = base_for(coeffs, omega, config)
        for order in (starts, starts[::-1]):
            with pytest.raises(ConvergenceError) as got:
                resolve(base, order)
            want = errors[0] if order is starts else errors[1]
            assert str(got.value) == str(want)

    def test_needs_a_start(self, workhorse):
        base = picard_solve(workhorse["coeffs"], workhorse["eta"],
                            workhorse["omega"], workhorse["config"])
        with pytest.raises(DomainError):
            resolve(base, [])

    def test_reuses_the_base_partition(self, workhorse, monkeypatch):
        base = picard_solve(workhorse["coeffs"], workhorse["eta"],
                            workhorse["omega"], workhorse["config"])
        monkeypatch.setattr(solver, "greedy_partition", None)
        got, = resolve(base, [(workhorse["eta"], "constant")])
        assert got.values.tobytes() == base.solution.values.tobytes()


def segment_loop_steps(f, g, arrays, ia, ib, delay, h, dw):
    """The Euler init as a plain loop over Segments: the sweeps' oracle."""
    x, m = arrays[-1], round(delay / h)
    for k in range(ia, ib):
        segs = [Segment(delay, h, a[k - m:k + 1]) for a in arrays]
        x[k + 1] = x[k] + f(*segs) * h + g(*segs) * dw[k]


class TestSweptEulerInit:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_batch_matches_loop_initialised_oracle(self, dim, monkeypatch):
        # windows of about 40 nodes, so the euler_perturbed init is swept;
        # in a batch of three, its columns are strided views of the grid,
        # which the sweeps work on in contiguous copies
        h, r = 1 / 512, 1 / 16
        coeffs = make_builtin("sin_delay", dim=dim, A=-0.15, B=0.1,
                              sigma=0.01)
        omega = gen_fbm(DriverSpec(kind="fbm", T=0.5, mesh=h, hurst=0.75,
                                   seed=3, amplitude=0.05))
        config = SolverConfig(beta=0.55, nu=0.7, mesh=h, T=0.5, r=r)
        u = np.linspace(-r, 0.0, 33)[:, None]
        starts = [(Segment(r, h, 1.0 + slope * u + np.zeros(dim)), kind)
                  for slope, kind in ((0.2, "euler_perturbed"),
                                      (0.5, "linear"),
                                      (-3.0, "euler_perturbed"))]
        base = picard_solve(coeffs, starts[0][0], omega, config)
        cells = np.round(np.diff(base.partition.times) / h)
        assert (cells[:-1] >= solver._SWEEP_MIN).all()
        sweeps = []
        euler_sweeps = solver._euler_sweeps

        def spy(f, g, arrays, *args):
            sweeps.append(arrays[-1].flags.c_contiguous)
            return euler_sweeps(f, g, arrays, *args)

        monkeypatch.setattr(solver, "_euler_sweeps", spy)
        got, records = batched(base, starts)
        assert records is not None      # one batch, no solo fallback
        assert len(sweeps) >= 2 * (len(cells) - 1) and all(sweeps)
        monkeypatch.setattr(solver, "_euler_steps", segment_loop_steps)
        want = resolve(base, starts)
        for path, oracle, (eta, kind) in zip(got, want, starts):
            assert path.values.tobytes() == oracle.values.tobytes()
            alone = picard_solve(coeffs, eta, omega, config, init=kind)
            assert path.values.tobytes() == alone.solution.values.tobytes()


@st.composite
def column_kernels(draw):
    family = draw(st.sampled_from(("linear_delay", "sin_delay",
                                   "scalar_logistic_bounded", "custom")))
    dim = 1 if family == "scalar_logistic_bounded" else \
        draw(st.sampled_from((1, 2, 3)))
    g = rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, 8))
    m_r, n_h = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    ia = draw(st.integers(m_r, m_r + n_h - 1))
    ib = draw(st.integers(ia + 1, m_r + n_h))
    values = g.normal(size=(m_r + n_h + 1, k, dim)) * g.uniform(0.1, 10.0)
    return coefficients(family, dim, g), values, m_r, ia, ib, g


class TestColumnKernels:
    """The stacked functional calls and the integral map on K columns are
    bitwise those on each column alone (matrix products and row norms at
    d >= 2 may round differently on other shapes, so this is checked)."""

    @settings(max_examples=150)
    @given(case=column_kernels())
    def test_node_values_per_column(self, case):
        coeffs, values, m_r, ia, ib, _ = case
        k, dim = values.shape[1:]
        got = node_values((coeffs.f, coeffs.g), (values,), ia, ib, m_r * H, H)
        for c in range(k):
            want = node_values((coeffs.f, coeffs.g),
                               (np.ascontiguousarray(values[:, c]),),
                               ia, ib, m_r * H, H)
            for stacked, alone in zip(got, want):
                column = stacked.reshape(ib - ia, k, dim)[:, c]
                assert column.tobytes() == alone.tobytes()

    @settings(max_examples=150)
    @given(case=column_kernels())
    def test_left_sums_per_column(self, case):
        coeffs, values, m_r, ia, ib, g = case
        dw = g.normal(size=values.shape[0]) * H ** 0.75
        got = _left_sum_map(coeffs.f, coeffs.g, (values,), ia, ib, m_r * H,
                            H, dw)()
        for c in range(values.shape[1]):
            want = _left_sum_map(coeffs.f, coeffs.g,
                                 (np.ascontiguousarray(values[:, c:c + 1]),),
                                 ia, ib, m_r * H, H, dw)()
            assert got[:, c:c + 1].tobytes() == want.tobytes()
