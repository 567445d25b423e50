import json
import math
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_path, rng, segments
from ydde.coefficients import (CoefficientSet, _ratio, accepts_stacks,
                               bounded_segment_sampler,
                               coefficients_from_json, composition_holder,
                               composition_holder_diff, composition_path,
                               make_builtin, verify_regularity)
from ydde.errors import DomainError
from ydde.paths import (GridPath, Segment, holder_norm, holder_seminorm,
                        random_windows, sup_norm)

R, MESH = 0.25, 1 / 64


def seg_from(vals):
    return Segment(R, MESH, np.asarray(vals, dtype=float))


def sampler(bound=1.0, dim=1):
    return bounded_segment_sampler(R, MESH, dim, bound)


class TestBuiltinFamilies:
    def test_pure_delay_linear(self):
        co = make_builtin("linear_delay", A=0.0, B=0.0, Sigma=1.0, c=0.0)
        assert co.L_f == 0.0 and co.L_g == 1.0
        assert co.L_M(5.0) == 0.0
        assert co.f0_norm == 0.0 and co.g0_norm == 0.0
        s, = segments(sampler(), rng(0))
        assert np.allclose(co.f(s), 0.0)
        assert np.allclose(co.g(s), s.values[0])    # reads the -r node

    def test_linear_delay_evaluates_endpoints(self):
        co = make_builtin("linear_delay", A=2.0, B=-1.0, Sigma=0.5, c=0.25)
        n = round(R / MESH)
        vals = np.linspace(3.0, 7.0, n + 1)[:, None]
        s = seg_from(vals)
        assert co.f(s)[0] == pytest.approx(2.0 * 7.0 - 1.0 * 3.0)
        assert co.g(s)[0] == pytest.approx(0.5 * 3.0 + 0.25)
        assert co.g0_norm == 0.25 and co.Lprime == 3.0

    def test_matrix_coefficients(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        co = make_builtin("linear_delay", dim=2, A=A, B=0.0, Sigma=0.0, c=0.0)
        assert co.L_f == pytest.approx(1.0)   # rotation has unit norm
        s, = segments(sampler(dim=2), rng(1))
        assert np.allclose(co.f(s), A @ s.values[-1])

    def test_sin_delay_derivative_bound(self):
        co = make_builtin("sin_delay", sigma=2.0)
        g = rng(2)
        make = sampler(bound=4.0)
        for _ in range(200):
            xi, direction = segments(make, g, 2)
            unit = direction.with_values(
                direction.values / np.abs(direction.values).max())
            assert np.linalg.norm(co.Dg(xi, unit)) <= 2.0 + 1e-12

    def test_sin_delay_dg_lipschitz_sampled(self):
        # |Dg(xi) - Dg(eta)| <= |xi - eta|_inf via the 1-Lipschitz cosine
        co = make_builtin("sin_delay", sigma=1.0)
        g = rng(3)
        make = sampler(bound=3.0)
        for _ in range(1000):
            xi, eta, direction = segments(make, g, 3)
            unit = direction.with_values(
                direction.values / np.abs(direction.values).max())
            gap = np.linalg.norm(co.Dg(xi, unit) - co.Dg(eta, unit))
            assert gap <= np.abs(xi.values - eta.values).max() + 1e-12

    def test_logistic_family_shape(self):
        co = make_builtin("scalar_logistic_bounded", a=-0.5, sigma=0.1,
                          domain_bound=2.0)
        assert co.L_f == pytest.approx(0.5 * 4.0)
        s = seg_from(np.zeros((round(R / MESH) + 1, 1)))
        assert co.f(s)[0] == 0.0
        s2 = seg_from(np.full((round(R / MESH) + 1, 1), 0.7))
        expected = -0.5 * 0.7 * (1.0 - np.tanh(0.7))
        assert co.f(s2)[0] == pytest.approx(expected, rel=1e-12)

    def test_unknown_family_and_params(self):
        with pytest.raises(DomainError):
            make_builtin("quadratic_delay")
        with pytest.raises(DomainError):
            make_builtin("linear_delay", gamma=1.0)
        with pytest.raises(DomainError):
            make_builtin("sin_delay", dim=2, A=np.ones((3, 3)))

    def test_json_roundtrip(self):
        params = {"A": -0.15, "B": 0.1, "sigma": 0.05}
        co = make_builtin("sin_delay", **params)
        back = coefficients_from_json({"family": co.family, "params": params})
        s, = segments(sampler(), rng(4))
        assert np.allclose(co.f(s), back.f(s))
        assert np.allclose(co.g(s), back.g(s))
        assert back.L_g == co.L_g

    def test_json_params_left_as_given(self):
        # a scenario's dict is dumped again for the ensemble workers
        d = {"family": "linear_delay",
             "params": {"dim": 2, "A": [[-0.1, 0.0], [0.0, -0.2]],
                        "c": [0.1, 0.0]}}
        before = json.dumps(d)
        coefficients_from_json(d)
        assert json.dumps(d) == before


class TestDerivatives:
    @pytest.mark.parametrize("family,params", [
        ("linear_delay", dict(A=-0.3, B=0.2, Sigma=0.4, c=0.1)),
        ("sin_delay", dict(A=-0.3, B=0.2, sigma=0.7)),
        ("scalar_logistic_bounded", dict(a=-0.4, sigma=0.3)),
    ])
    def test_linearity_in_direction(self, family, params):
        co = make_builtin(family, **params)
        g = rng(5)
        make = sampler(bound=2.0)
        xi, d1, d2 = segments(make, g, 3)
        combo = d1.with_values(1.7 * d1.values - 0.4 * d2.values)
        for D in (co.Df, co.Dg):
            lhs = D(xi, combo)
            rhs = 1.7 * D(xi, d1) - 0.4 * D(xi, d2)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("family,params", [
        ("sin_delay", dict(A=-0.3, B=0.2, sigma=0.7)),
        ("scalar_logistic_bounded", dict(a=-0.4, sigma=0.3)),
    ])
    def test_finite_difference_first_order(self, family, params):
        # (f(xi + eps d) - f(xi))/eps -> Df(xi, d) at first order in eps
        co = make_builtin(family, **params)
        g = rng(6)
        make = sampler(bound=1.0)
        xi, d = segments(make, g, 2)
        for func, deriv in ((co.f, co.Df), (co.g, co.Dg)):
            errs = []
            for eps in (1e-3, 5e-4, 2.5e-4):
                bumped = xi.with_values(xi.values + eps * d.values)
                fd = (func(bumped) - func(xi)) / eps
                errs.append(np.linalg.norm(fd - deriv(xi, d)))
            if errs[0] < 1e-14:
                continue    # derivative constant in this direction
            ratios = [a / b for a, b in zip(errs, errs[1:])]
            assert all(1.5 <= r <= 2.5 for r in ratios)


def former_sampler(r, mesh, dim, bound):
    """The sampler as it drew one Segment at a time."""
    n = int(round(r / mesh))
    u = np.linspace(0.0, 1.0, n + 1)
    sin1, cos1, sin2 = (np.sin(math.pi * u), np.cos(math.pi * u),
                        np.sin(2 * math.pi * u))

    def sample(rng):
        vals = np.zeros((n + 1, dim))
        for j in range(dim):
            coef = rng.standard_normal(5)
            vals[:, j] = (coef[0] + coef[1] * sin1 + coef[2] * cos1
                          + coef[3] * sin2 + coef[4] * u)
        peak = np.abs(vals).max()
        scale = bound * rng.uniform(0.05, 1.0) / max(peak, 1e-12)
        return Segment(r, mesh, scale * vals)

    return sample


def node_norm_sup(values):
    """The solver's segment sup norm: max over nodes of the Euclidean node
    norm, each node's ``np.linalg.norm``."""
    return max(float(np.linalg.norm(row)) for row in values)


def per_segment_regularity(coeffs, sampler, M, trials, seed=0,
                           n_directions=8):
    """The former verify_regularity: every functional called on one
    sampled Segment at a time."""
    g = np.random.Generator(np.random.Philox(key=int(seed)))
    worst_f = worst_db = worst_dh = 0.0
    lm = coeffs.L_M(M)
    for _ in range(trials):
        xi, eta = sampler(g), sampler(g)
        gap = node_norm_sup(xi.values - eta.values)
        worst_f = max(worst_f, _ratio(
            float(np.linalg.norm(coeffs.f(xi) - coeffs.f(eta))),
            coeffs.L_f * gap))
        dir_gap = 0.0
        for _ in range(n_directions):
            direction = sampler(g)
            unit = direction.with_values(
                direction.values / max(node_norm_sup(direction.values), 1e-12))
            dg_xi = coeffs.Dg(xi, unit)
            worst_db = max(worst_db, _ratio(float(np.linalg.norm(dg_xi)),
                                            coeffs.L_g))
            dir_gap = max(dir_gap, float(np.linalg.norm(
                dg_xi - coeffs.Dg(eta, unit))))
        worst_dh = max(worst_dh, _ratio(dir_gap, lm * gap ** coeffs.delta))
    passed = max(worst_f, worst_db, worst_dh) <= 1.0 + 1e-9
    return worst_f, worst_db, worst_dh, trials, passed


def former_difference_bounds(coeffs, x, y, beta, r, window):
    """The two bounds of composition_holder_diff as it once wrote them, each
    taking the difference path's norms itself: kept as their oracle."""
    a, b = window
    db = coeffs.delta * beta
    enlarged = (a - r, b)
    M = max(holder_norm(x, beta, enlarged), holder_norm(y, beta, enlarged))
    diff = GridPath(x.t0, x.mesh, x.values - y.values)
    lm = coeffs.L_M(M)
    span = b - a
    tight = (coeffs.L_g * span ** (beta - db)
             * holder_seminorm(diff, beta, enlarged)
             + lm * M ** coeffs.delta * sup_norm(diff, enlarged))
    weak = ((coeffs.L_g * span ** (beta - db) + lm * M ** coeffs.delta)
            * holder_norm(diff, beta, enlarged))
    return tight, weak


def hexed_report(rep):
    return tuple(x.hex() if isinstance(x, float) else x for x in rep)


def regularity_families(dim):
    """Built-ins of dimension ``dim``, with matrices mixing components."""
    mix = np.array([[-0.3, 0.2, 0.1], [0.05, -0.2, 0.3], [0.1, 0.0, 0.25]])
    A, B, S = mix[:dim, :dim], mix[:dim, :dim].T, 0.5 * mix[:dim, :dim]
    sin = make_builtin("sin_delay", dim=dim, A=A, B=B, sigma=0.8)
    out = [make_builtin("linear_delay", dim=dim, A=A, B=B, Sigma=S, c=0.1,
                        delta=0.7),
           sin,
           # a Holder exponent below 1 with a nonzero modulus: gap ** delta
           replace(sin, delta=0.6, L_M=lambda M: 0.5 * M)]
    if dim == 1:
        out.append(make_builtin("scalar_logistic_bounded", a=-0.4, sigma=0.3))
    return out


def unmarked(coeffs):
    """The same set with its f and Dg unmarked, plus a Dg of its own that
    reads a node the built-ins do not."""
    def Dg(seg, direction):
        return (coeffs.Dg(seg, direction)
                + 0.1 * np.tanh(seg.values[len(seg.values) // 2])
                * direction.values[-1])
    return replace(coeffs, f=lambda seg: coeffs.f(seg), Dg=Dg)


def former_composition_holder(coeffs, path, beta, r, window):
    """composition_holder as it once was, one window at a time: ``g(x_.)``
    built on the window alone, then a pair scan of it and one of x on the
    enlarged window; kept as the oracle of the batched form."""
    a, b = window
    comp = composition_path(coeffs.g, path, r, window)
    return (holder_seminorm(comp, beta),
            holder_seminorm(path, beta, (a - r, b)))


def former_composition_holder_diff(coeffs, x, y, beta, r, window):
    """composition_holder_diff as it once was, one window at a time, with a
    pair scan and a sup per path and window; the oracle of the batched
    form."""
    a, b = window
    gx = composition_path(coeffs.g, x, r, window)
    gy = composition_path(coeffs.g, y, r, window)
    db = coeffs.delta * beta
    lhs = holder_seminorm(GridPath(gx.t0, gx.mesh, gx.values - gy.values),
                          db)
    enlarged = (a - r, b)
    M = max(holder_norm(x, beta, enlarged), holder_norm(y, beta, enlarged))
    diff = GridPath(x.t0, x.mesh, x.values - y.values)
    semi = holder_seminorm(diff, beta, enlarged)
    sup = sup_norm(diff, enlarged)
    lip = coeffs.L_g * (b - a) ** (beta - db)
    mod = coeffs.L_M(M) * M ** coeffs.delta
    return lhs, lip * semi + mod * sup, (lip + mod) * (sup + semi), M


def custom_g(coeffs):
    """The set with an unmarked g of its own, read at a middle node."""
    return replace(coeffs, g=lambda seg: np.tanh(
        seg.values[len(seg.values) // 2]) + coeffs.g(seg))


def estimate_families(dim):
    """The built-ins of dimension ``dim`` and a custom set with an unmarked
    g."""
    families = regularity_families(dim)
    return families + [custom_g(families[1])]


@st.composite
def estimate_cases(draw):
    """A coefficient set of dimension 1-3, two paths on [-R, n/64] and a
    list of one-cell, short and whole-horizon windows in [0, n/64]."""
    dim = draw(st.sampled_from((1, 2, 3)))
    coeffs = draw(st.sampled_from(estimate_families(dim)))
    seed = draw(st.integers(0, 2 ** 16))
    n = draw(st.integers(1, 48))
    m_r, h = round(R / MESH), MESH
    x, y = (random_path(seed + k, n=m_r + n, mesh=h, t0=-R, dim=dim,
                        roughness=1.0 + 2 * k) for k in (0, 1))
    windows = []
    for kind in draw(st.lists(st.sampled_from(("cell", "short", "whole")),
                              min_size=1, max_size=6)):
        if kind == "whole":
            i, j = 0, n
        else:
            i = draw(st.integers(0, n - 1))
            j = i + 1 if kind == "cell" else draw(st.integers(i + 1,
                                                              min(n, i + 6)))
        windows.append((i * h, j * h))
    return coeffs, x, y, windows


def hexes(values):
    return [v.hex() for v in np.ravel(values).tolist()]


class TestBatchedComposition:
    """composition_holder and composition_holder_diff read every window
    from one pass per path, float.hex-equal to one scan per window."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_whole_horizon_composition_sliced(self, dim):
        # g(x_.) over [0, T] once, sliced, is the composition of each window
        m_r, n = round(R / MESH), 128
        for k, co in enumerate(estimate_families(dim)):
            path = random_path(k + 10 * dim, n=m_r + n, mesh=MESH, t0=-R,
                               dim=dim, roughness=2.0)
            whole = composition_path(co.g, path, R, (0.0, n * MESH))
            assert whole.values.shape == (n + 1, dim)
            for i, j in random_windows(k, 0, n, 1, 30):
                alone = composition_path(co.g, path, R, (i * MESH, j * MESH))
                assert hexes(whole.values[i:j + 1]) == hexes(alone.values)

    @settings(max_examples=150)
    @given(case=estimate_cases(), beta=st.sampled_from((0.35, 0.55, 1.0)))
    def test_composition_holder_matches_per_window(self, case, beta):
        coeffs, x, _, windows = case
        got = composition_holder(coeffs, x, beta, R, windows)
        assert len(got) == len(windows)
        for rep, window in zip(got, windows):
            want = former_composition_holder(coeffs, x, beta, R, window)
            assert hexes([rep.seminorm, rep.enlarged]) == hexes(want)

    @settings(max_examples=150)
    @given(case=estimate_cases(), beta=st.sampled_from((0.35, 0.55, 1.0)))
    def test_composition_holder_diff_matches_per_window(self, case, beta):
        coeffs, x, y, windows = case
        got = composition_holder_diff(coeffs, x, y, beta, R, windows)
        assert len(got) == len(windows)
        for rep, window in zip(got, windows):
            want = former_composition_holder_diff(coeffs, x, y, beta, R,
                                                  window)
            assert hexes(astuple(rep)) == hexes(want)

    def test_windows_validated(self):
        co = make_builtin("sin_delay", sigma=1.0)
        p = random_path(0, n=64, mesh=1 / 64)
        for windows in ([], [(0.5, 0.5)], [(0.5, 1.0), (0.1, 1.0)]):
            with pytest.raises(DomainError):
                composition_holder(co, p, 0.5, R, windows)
            with pytest.raises(DomainError):
                composition_holder_diff(co, p, p, 0.5, R, windows)

    def test_difference_paths_share_grid(self):
        # another node count or dimension is refused before any array
        # arithmetic, as another mesh or start is
        co = make_builtin("sin_delay", sigma=1.0)
        p = random_path(0, n=80, mesh=1 / 64)
        for other in (random_path(1, n=96, mesh=1 / 64),
                      random_path(1, n=80, mesh=1 / 64, dim=2),
                      random_path(1, n=80, mesh=1 / 128),
                      random_path(1, n=80, mesh=1 / 64, t0=-R)):
            with pytest.raises(DomainError, match="share grid"):
                composition_holder_diff(co, p, other, 0.5, R, [(0.5, 1.0)])


class TestStackedRegularity:
    @settings(max_examples=100)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from((1, 2, 3)),
           count=st.integers(1, 9), bound=st.sampled_from((0.5, 2.0, 10.0)),
           mesh=st.sampled_from((1 / 64, 1 / 16, 0.25)))
    def test_stacked_draw_matches_successive_samples(self, seed, dim, count,
                                                     bound, mesh):
        sample = bounded_segment_sampler(R, mesh, dim, bound)
        stacked, singles, g = rng(seed), rng(seed), rng(seed)
        stack = sample(stacked, count).values
        former = former_sampler(R, mesh, dim, bound)
        for i in range(count):
            want = former(g).values
            assert stack[:, i].tobytes() == want.tobytes()
            assert sample(singles, 1).values[:, 0].tobytes() == want.tobytes()
        # the same draws: every generator is left at the same point
        after = g.integers(1 << 62)
        assert stacked.integers(1 << 62) == singles.integers(1 << 62) == after

    @settings(max_examples=150)
    @given(dim=st.sampled_from((1, 2, 3)), data=st.data(),
           trials=st.integers(1, 12), n_directions=st.integers(1, 4),
           seed=st.integers(0, 2 ** 16), bound=st.sampled_from((0.5, 3.0)),
           sample_values=st.sampled_from((1, 150, 1 << 14)))
    def test_matches_per_segment_loop(self, dim, data, trials, n_directions,
                                      seed, bound, sample_values):
        coeffs = data.draw(st.sampled_from(regularity_families(dim)))
        if data.draw(st.booleans()):    # declared constants too small
            coeffs = replace(coeffs, L_f=0.5 * coeffs.L_f, L_g=0.0)
        if data.draw(st.booleans()):
            coeffs = unmarked(coeffs)
        sample = bounded_segment_sampler(R, MESH, dim, bound)
        with mock.patch("ydde.coefficients._SAMPLE_VALUES", sample_values), \
                mock.patch("ydde.coefficients._N_DIRECTIONS", n_directions):
            got = verify_regularity(coeffs, sample, bound, trials, seed)
        want = per_segment_regularity(coeffs, former_sampler(R, MESH, dim, bound),
                                      bound, trials, seed, n_directions)
        assert hexed_report(astuple(got)) == hexed_report(want)

    @settings(max_examples=300)
    @given(seed=st.integers(0, 2 ** 32 - 1), trials=st.integers(1, 2),
           delta=st.sampled_from((0.3, 0.55, 0.6, 0.8)))
    def test_holder_ratio_per_trial(self, seed, trials, delta):
        # one or two trials, so the worst ratio is each trial's own:
        # numpy's power rounds some gap ** delta differently
        coeffs = replace(make_builtin("sin_delay", sigma=0.8), delta=delta,
                         L_M=lambda M: 0.5 * M)
        with mock.patch("ydde.coefficients._N_DIRECTIONS", 2):
            got = verify_regularity(coeffs, sampler(bound=3.0), 3.0, trials,
                                    seed)
        want = per_segment_regularity(coeffs, former_sampler(R, MESH, 1, 3.0),
                                      3.0, trials, seed, 2)
        assert got.dg_holder.hex() == want[2].hex()

    def test_calls_each_marked_functional_once_per_chunk(self, monkeypatch):
        co = make_builtin("sin_delay", sigma=1.0)
        calls = []

        def counted(func):
            @accepts_stacks
            def wrapped(*args):
                calls.append(args[0].values.shape)
                return func(*args)
            return wrapped

        co = replace(co, f=counted(co.f), Dg=counted(co.Dg))
        monkeypatch.setattr("ydde.coefficients._SAMPLE_VALUES", 17 * 10 * 5)
        verify_regularity(co, sampler(), M=1.0, trials=12, seed=0)
        # the first trial alone sizes the chunks: then 5, 5 and 1 trials
        assert calls == [(17, 2, 1), (17, 16, 1), (17, 10, 1), (17, 80, 1),
                         (17, 10, 1), (17, 80, 1), (17, 2, 1), (17, 16, 1)]


class TestVerifyRegularity:
    def test_linear_family_within_constants(self):
        co = make_builtin("linear_delay", A=-0.3, B=0.2, Sigma=0.4, c=0.1)
        rep = verify_regularity(co, sampler(bound=2.0), M=2.0, trials=300,
                                seed=0)
        assert rep.passed
        assert max(rep.f_lipschitz, rep.dg_bound, rep.dg_holder) <= 1.0

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from((2, 3)),
           family=st.sampled_from(("linear_delay", "sin_delay")),
           drift_b=st.booleans(), scale=st.floats(-2.0, 2.0),
           bound=st.sampled_from((0.5, 2.0, 10.0)))
    # a subnormal Sigma rounds Sigma * unit to whole subnormal spacings
    @example(seed=2, dim=3, family="linear_delay", drift_b=False,
             scale=5e-324, bound=0.5)
    def test_exact_constants_hold_at_higher_dim(self, seed, dim, family,
                                                drift_b, scale, bound):
        # orthogonal A (and B) and a scalar Sigma make the declared L_f and
        # L_g exact in the segment sup norm the solver uses
        g = rng(seed % 2 ** 16)
        A = np.linalg.qr(g.standard_normal((dim, dim)))[0]
        B = np.linalg.qr(g.standard_normal((dim, dim)))[0] if drift_b else 0.0
        noise = {"Sigma": scale} if family == "linear_delay" \
            else {"sigma": scale}
        co = make_builtin(family, dim=dim, A=A, B=B, **noise)
        rep = verify_regularity(co, sampler(bound=bound, dim=dim), M=bound,
                                trials=20, seed=seed)
        assert rep.passed
        assert max(rep.f_lipschitz, rep.dg_bound,
                   rep.dg_holder) <= 1.0 + 1e-9

    def test_coupled_linear_system_within_constants(self):
        # L_f = 1 and L_g = 1/2 are exact in the segment sup norm, not in
        # the max-abs norm of the components
        co = make_builtin("linear_delay", dim=2, A=[[0.0, 1.0], [1.0, 0.0]],
                          Sigma=0.5)
        rep = verify_regularity(co, sampler(bound=2.0, dim=2), M=2.0,
                                trials=200, seed=1)
        assert rep.passed
        assert max(rep.f_lipschitz, rep.dg_bound) <= 1.0 + 1e-9

    def test_sin_family_within_constants(self):
        co = make_builtin("sin_delay", sigma=1.0)
        rep = verify_regularity(co, sampler(bound=10.0), M=10.0, trials=1000,
                                seed=1)
        assert rep.passed
        assert rep.dg_bound <= 1.0

    def test_zero_coefficients_all_zero_ratios(self):
        co = make_builtin("linear_delay")
        rep = verify_regularity(co, sampler(bound=1.0), M=1.0, trials=50,
                                seed=2)
        assert rep.passed
        assert rep.f_lipschitz == rep.dg_bound == rep.dg_holder == 0.0

    def test_wrong_constant_flagged(self):
        base = make_builtin("sin_delay", sigma=1.0)
        lying = CoefficientSet(
            f=base.f, g=base.g, Df=base.Df, Dg=base.Dg,
            L_f=base.L_f, L_g=0.5,            # claims half the true bound
            L_M=base.L_M, delta=1.0, f0_norm=0.0, g0_norm=0.0, dim=1)
        rep = verify_regularity(lying, sampler(bound=3.0), M=3.0, trials=300,
                                seed=3)
        assert not rep.passed
        assert rep.dg_bound > 1.0

    def test_trials_validated(self):
        co = make_builtin("linear_delay")
        with pytest.raises(DomainError):
            verify_regularity(co, sampler(), M=1.0, trials=0)


class TestComposition:
    def test_constant_path_zero(self):
        co = make_builtin("sin_delay", sigma=1.0)
        p = GridPath(0.0, MESH, np.full(65, 1.3))
        rep, = composition_holder(co, p, 0.5, R, [(0.5, 1.0)])
        assert rep.seminorm == 0.0

    def test_linear_g_scaling_equality(self):
        # a single sharp increment makes the Lipschitz bound an equality
        co = make_builtin("linear_delay", A=0.0, B=0.0, Sigma=0.5, c=0.0)
        vals = np.zeros(129)
        vals[45:] = 1.0     # jump inside [a-r, b-r]
        p = GridPath(0.0, 1 / 64, vals)
        window = (1.0, 2.0)
        comp = composition_holder(co, p, 0.5, R, [window])[0].seminorm
        enlarged = holder_seminorm(p, 0.5, (0.75, 2.0))
        assert comp == pytest.approx(0.5 * enlarged, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("family,params", [
        ("linear_delay", dict(A=-0.3, B=0.2, Sigma=0.6, c=0.1)),
        ("sin_delay", dict(A=0.1, B=-0.2, sigma=0.8)),
        ("scalar_logistic_bounded", dict(a=-0.4, sigma=0.5)),
    ])
    def test_composition_bound(self, seed, family, params):
        co = make_builtin(family, **params)
        path = random_path(seed, n=64, mesh=1 / 64)
        g = rng(seed + 50)
        i = int(g.integers(16, 56))
        j = int(g.integers(i + 4, 65))
        window = (i / 64, j / 64)
        comp = composition_holder(co, path, 0.55, R, [window])[0].seminorm
        enlarged = holder_seminorm(path, 0.55, (window[0] - R, window[1]))
        assert comp <= co.L_g * enlarged * (1 + 1e-9) + 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_difference_bound(self, seed):
        co = make_builtin("sin_delay", A=0.1, B=-0.2, sigma=0.8)
        x = random_path(seed, n=64, mesh=1 / 64)
        y = random_path(seed + 200, n=64, mesh=1 / 64)
        g = rng(seed + 99)
        i = int(g.integers(16, 56))
        j = int(g.integers(i + 4, 65))
        rep, = composition_holder_diff(co, x, y, 0.55, R, [(i / 64, j / 64)])
        assert rep.lhs <= rep.bound_tight * (1 + 1e-9) + 1e-12
        assert rep.bound_tight <= rep.bound_weak * (1 + 1e-9)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_difference_bounds_match_former_expression(self, dim):
        # the difference path's norms, taken once, give the bounds bitwise
        for k, co in enumerate(regularity_families(dim)):
            x = random_path(k, n=64, mesh=1 / 64, dim=dim)
            y = random_path(k + 300, n=64, mesh=1 / 64, dim=dim, roughness=3.0)
            g = rng(k + 7)
            for _ in range(20):
                i = int(g.integers(16, 63))
                j = int(g.integers(i + 1, 65))
                window = (i / 64, j / 64)
                rep, = composition_holder_diff(co, x, y, 0.55, R, [window])
                want = former_difference_bounds(co, x, y, 0.55, R, window)
                assert (rep.bound_tight.hex(), rep.bound_weak.hex()) \
                    == tuple(w.hex() for w in want)

    def test_difference_bound_on_fbm_solutions(self, workhorse):
        # 50 random window pairs on two fBm-driven solutions, with M the
        # larger of the two path norms on the enlarged window
        from ydde.solver import picard_solve
        co, cfg = workhorse["coeffs"], workhorse["config"]
        x = picard_solve(co, workhorse["eta"], workhorse["omega"], cfg).solution
        eta2 = workhorse["eta"].with_values(workhorse["eta"].values + 0.05)
        y = picard_solve(co, eta2, workhorse["omega"], cfg).solution
        g = rng(314)
        mesh = cfg.mesh
        for _ in range(50):
            i = int(g.integers(0, 250))
            j = int(g.integers(i + 4, 257))
            rep, = composition_holder_diff(co, x, y, cfg.beta, cfg.r,
                                           [(i * mesh, j * mesh)])
            assert rep.lhs <= rep.bound_tight * (1 + 1e-9) + 1e-12
            assert rep.M >= 1.0

    def test_composition_window_validation(self):
        co = make_builtin("sin_delay", sigma=1.0)
        p = random_path(0, n=64, mesh=1 / 64)
        with pytest.raises(DomainError):
            composition_path(co.g, p, R, (0.1, 1.0))   # starts before t0 + r
