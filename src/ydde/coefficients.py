"""Coefficient functionals f, g on delay segments, with regularity metadata.

A :class:`CoefficientSet` bundles the drift f and diffusion g (maps from a
segment to R^d), their directional derivatives, and the constants used by
the solver: the Lipschitz bound ``L_f`` of f, the derivative bound ``L_g``
of g, and the local Holder modulus ``L_M`` of Dg with exponent ``delta``.
The built-in families realize these hypotheses in closed form, including
one family with a nonconstant Dg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .paths import (GridPath, Segment, SegmentView, _check_holder_exponent,
                    _delay_window, _node_stack, _row_norms, _snap_index,
                    _window_pair_max)

_FAMILIES = ("linear_delay", "sin_delay", "scalar_logistic_bounded")


@dataclass(frozen=True)
class CoefficientSet:
    """f, g and their directional derivatives plus regularity constants."""

    f: Callable
    g: Callable
    Df: Callable            # Df(segment, direction) -> R^d
    Dg: Callable
    L_f: float
    L_g: float
    L_M: Callable           # ball radius M -> Holder modulus of Dg
    delta: float
    f0_norm: float
    g0_norm: float
    dim: int
    family: str = "custom"

    def __post_init__(self):
        if self.L_f < 0 or self.L_g < 0:
            raise DomainError("Lipschitz constants must be nonnegative")
        if not 0.0 < self.delta <= 1.0:
            raise DomainError("delta must lie in (0, 1]")

    @property
    def Lprime(self):
        """max(L_f, |f(0)|): the drift growth constant."""
        return max(self.L_f, self.f0_norm)


def _as_matrix(value, dim, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return float(arr) * np.eye(dim)
    if arr.shape != (dim, dim):
        raise DomainError(f"{name} must be scalar or a ({dim}, {dim}) matrix")
    return arr


def _as_vector(value, dim, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise DomainError(f"{name} must be scalar or a length-{dim} vector")
    return arr


def _opnorm(mat):
    return float(np.linalg.norm(mat, 2))


def _apply(mat, v):
    """``mat @ v`` for each row vector v of ``v`` (one segment node, or one
    node of a stack); the same product per row, so bitwise ``mat @ v``."""
    return (mat @ v[..., None])[..., 0]


def accepts_stacks(func):
    """Declare that the functional ``func`` takes :class:`SegmentView`
    arguments in place of Segments, stacks included, and returns one
    ``(w, d)`` row per segment of a stack of w; :func:`node_values` then
    calls it once per range of nodes instead of once per node.  Only mark a
    functional written for both: on a stack, ``A @ seg.values[-1]`` forms a
    matrix product silently.  Each row must be bitwise the functional's
    value on that segment alone: the Picard map and the Euler sweeps
    (``solver._euler_sweeps``) evaluate stacks where the node loop they
    are checked against evaluates single segments, and nothing checks the
    contract at run time.  The built-in families' f, g, Df and Dg are
    checked against it, bit for bit, by
    ``TestStepKernelOracle.test_stacked_call_matches_segment_loop`` in
    ``tests/test_solver.py``."""
    func.accepts_stacks = True
    return func


def _marked(func):
    return getattr(func, "accepts_stacks", False)


def node_values(funcs, arrays, ka, kb, delay, mesh):
    """Each functional of ``funcs`` at the nodes k in ``[ka, kb)``, applied
    to the delay segments of ``arrays`` cut at k (rows ``k - delay/mesh ..
    k``): one ``(kb - ka, d)`` array per functional, d the width of
    ``arrays[-1]`` (see :func:`_stack_values`)."""
    return _stack_values(funcs, _node_views(arrays, ka, kb, delay, mesh))


def _node_views(arrays, ka, kb, delay, mesh):
    """The delay segments of ``arrays`` cut at the nodes k in ``[ka, kb)``,
    one node-major :class:`SegmentView` of zero-copy stacks per array
    (:func:`~ydde.paths._node_stack`): they see rows written after they
    were made."""
    m = _snap_index(delay, mesh, "delay")
    return [SegmentView(delay, mesh, _node_stack(a, ka, kb, m))
            for a in arrays]


def _stack_values(funcs, views):
    """Each functional of ``funcs`` on the w segments of the node-major
    stacks ``views`` (SegmentViews of shape ``(m+1, w, d)``, the i-th
    segment of each as its arguments): one ``(w, d)`` array per functional,
    d the width of ``views[-1]``.  A functional marked by
    :func:`accepts_stacks` is called once, on the views; any other once per
    segment, on Segments copied from the views' current rows."""
    shape = views[-1].values.shape[1:]
    segs = None
    out = []
    for func in funcs:
        if _marked(func):
            vals = func(*views)
            if np.shape(vals) != shape:
                raise DomainError(f"a functional marked accepts_stacks gave "
                                  f"shape {np.shape(vals)} for {shape[0]} "
                                  f"segments of dimension {shape[1]}")
        else:
            if segs is None:
                segs = [[Segment(v.delay, v.mesh, v.values[:, i])
                         for v in views] for i in range(shape[0])]
            vals = np.empty(shape)
            for i, col in enumerate(segs):
                vals[i] = func(*col)
        out.append(vals)
    return out


def _linear_drift(params):
    """Pop ``dim``, ``A`` and ``B`` from ``params``: the dimension, and the
    drift ``f(s) = A s(0) + B s(-r)`` with its ``Df`` and ``L_f``."""
    dim = int(params.pop("dim", 1))
    A = _as_matrix(params.pop("A", 0.0), dim, "A")
    B = _as_matrix(params.pop("B", 0.0), dim, "B")

    @accepts_stacks
    def f(seg):
        return _apply(A, seg.values[-1]) + _apply(B, seg.values[0])

    @accepts_stacks
    def Df(seg, direction):
        return (_apply(A, direction.values[-1])
                + _apply(B, direction.values[0]))

    return dim, f, Df, _opnorm(A) + _opnorm(B)


def _sin_derivative(sigma):
    """``Dg`` of ``g(s) = sigma sin(s(-r)) (+ c)``, componentwise."""
    @accepts_stacks
    def Dg(seg, direction):
        return sigma * np.cos(seg.values[0]) * direction.values[0]

    return Dg


def make_builtin(family, **params):
    """Instantiate one of the built-in coefficient families.

    linear_delay:             f(s) = A s(0) + B s(-r),  g(s) = Sigma s(-r) + c
    sin_delay:                same drift, g(s) = sigma sin(s(-r)) componentwise
    scalar_logistic_bounded:  d=1, f(s) = a s(0) (1 - tanh(s(-r))),
                              g(s) = sigma sin(s(-r)) + c; the reported L_f
                              holds on the ball |s|_inf <= domain_bound.

    Each functional is written once, valid on one segment and on a stack
    of them, and marked :func:`accepts_stacks`.
    """
    if family == "linear_delay":
        dim, f, Df, L_f = _linear_drift(params)
        Sigma = _as_matrix(params.pop("Sigma", 0.0), dim, "Sigma")
        c = _as_vector(params.pop("c", 0.0), dim, "c")
        delta = float(params.pop("delta", 1.0))
        if params:
            raise DomainError(f"unknown linear_delay params {sorted(params)}")

        @accepts_stacks
        def g(seg):
            return _apply(Sigma, seg.values[0]) + c

        @accepts_stacks
        def Dg(seg, direction):
            return _apply(Sigma, direction.values[0])

        return CoefficientSet(
            f=f, g=g, Df=Df, Dg=Dg, L_f=L_f, L_g=_opnorm(Sigma),
            L_M=lambda M: 0.0, delta=delta,
            f0_norm=0.0, g0_norm=float(np.linalg.norm(c)), dim=dim,
            family=family)

    if family == "sin_delay":
        dim, f, Df, L_f = _linear_drift(params)
        sigma = float(params.pop("sigma", 1.0))
        if params:
            raise DomainError(f"unknown sin_delay params {sorted(params)}")

        @accepts_stacks
        def g(seg):
            return sigma * np.sin(seg.values[0])

        return CoefficientSet(
            f=f, g=g, Df=Df, Dg=_sin_derivative(sigma), L_f=L_f,
            L_g=abs(sigma), L_M=lambda M: abs(sigma), delta=1.0,
            f0_norm=0.0, g0_norm=0.0, dim=dim, family=family)

    if family == "scalar_logistic_bounded":
        a = float(params.pop("a", -0.05))
        sigma = float(params.pop("sigma", 0.05))
        c = float(params.pop("c", 0.0))
        domain_bound = float(params.pop("domain_bound", 3.0))
        if params:
            raise DomainError(f"unknown scalar_logistic params {sorted(params)}")
        if domain_bound <= 0:
            raise DomainError("domain_bound must be positive")

        @accepts_stacks
        def f(seg):
            u, v = seg.values[-1], seg.values[0]
            return a * u * (1.0 - np.tanh(v))

        @accepts_stacks
        def g(seg):
            return sigma * np.sin(seg.values[0]) + c

        @accepts_stacks
        def Df(seg, direction):
            u, v = seg.values[-1], seg.values[0]
            du, dv = direction.values[-1], direction.values[0]
            sech2 = 1.0 / np.cosh(v) ** 2
            return a * (du * (1.0 - np.tanh(v)) - u * sech2 * dv)

        # |df/du| <= 2|a| and |df/dv| <= |a| M on the stated ball.
        return CoefficientSet(
            f=f, g=g, Df=Df, Dg=_sin_derivative(sigma),
            L_f=abs(a) * (2.0 + domain_bound), L_g=abs(sigma),
            L_M=lambda M: abs(sigma), delta=1.0,
            f0_norm=0.0, g0_norm=abs(c), dim=1, family=family)

    raise DomainError(f"unknown coefficient family {family!r}; "
                      f"expected one of {_FAMILIES}")


def coefficients_from_json(d):
    d = dict(d)
    family = d.pop("family")
    params = d.pop("params", {})
    if d:
        raise DomainError(f"unknown coefficient keys {sorted(d)}")
    return make_builtin(family, **params)


def bounded_segment_sampler(r, mesh, dim, bound):
    """Random segments with sup-norm at most ``bound`` (low-order Fourier mix).

    ``sample(rng, count)`` draws ``count`` segments in succession, as one
    node-major :class:`SegmentView` of shape ``(m+1, count, dim)``."""
    n = int(round(r / mesh))
    u = np.linspace(0.0, 1.0, n + 1)
    basis = [x[:, None, None] for x in (np.sin(math.pi * u),
                                        np.cos(math.pi * u),
                                        np.sin(2 * math.pi * u), u)]

    def sample(rng, count):
        coef = np.empty((count, dim, 5))
        spread = []
        for draw in coef:
            for column in draw:
                rng.standard_normal(out=column)
            spread.append(rng.uniform(0.05, 1.0))
        vals = coef[..., 0]
        for k, x in enumerate(basis, 1):
            vals = vals + coef[..., k] * x
        peak = np.abs(vals).max(axis=(0, 2))
        scale = bound * np.array(spread) / np.maximum(peak, 1e-12)
        return SegmentView(r, mesh, scale[:, None] * vals)

    return sample


def _columns(stack):
    """The node-major stack ``(m+1, ..., d)`` with its segments in one axis,
    in C order."""
    return stack.reshape(stack.shape[0], -1, stack.shape[-1])


def _norms(vecs):
    """``np.linalg.norm`` of each vector along the last axis, bitwise: the
    same dot product per vector (a plain sum of squares rounds differently
    for d >= 2).  A vector whose sum of squares underflows the normal range
    is scaled by a power of two first, exactly, so a tiny vector keeps a
    norm accurate to rounding rather than to the few bits of a subnormal."""
    vecs = np.ascontiguousarray(vecs)
    squares = np.vecdot(vecs, vecs)
    norms = np.sqrt(squares)
    tiny = squares < np.finfo(float).tiny
    if tiny.any():
        scaled = vecs[tiny] * 2.0 ** 600
        norms[tiny] = np.sqrt(np.vecdot(scaled, scaled)) * 2.0 ** -600
    return norms


# Directions verify_regularity draws per trial.
_N_DIRECTIONS = 8

# Values of the segments one chunk of verify_regularity draws, so its stacks
# stay bounded at fine meshes; the stacks built from them hold about five
# times as many at 8 directions.
_SAMPLE_VALUES = 1 << 14


# Below the normal range a float is a multiple of 2**-1074, so a value
# computed there can be off by whole spacings however exact its formula (a
# subnormal Sigma times a unit vector): no relative slack covers that, and
# _ratio forgives up to 2**10 spacings.  It leaves every numerator above
# 2**-1010 bitwise as it is.
_UNDERFLOW_SLACK = 2.0 ** -1064


def _ratio(num, den):
    num = max(num - _UNDERFLOW_SLACK, 0.0)
    if den <= 0.0:
        return 0.0 if num <= 1e-14 else math.inf
    return num / den


@dataclass(frozen=True)
class RegularityReport:
    """Worst observed ratios against the declared regularity constants."""

    f_lipschitz: float
    dg_bound: float
    dg_holder: float
    trials: int
    passed: bool


def verify_regularity(coeffs, sampler, M, trials, seed=0):
    """Empirical check of the declared constants on sampled segment pairs.

    Each trial draws xi, eta and ``_N_DIRECTIONS`` directions from
    ``sampler`` (see :func:`bounded_segment_sampler`), in that order; ratios
    are worst observed value / declared bound, and anything above 1 + 1e-9
    marks the CoefficientSet invalid.
    The trials are drawn and evaluated in chunks: each functional is called
    once per chunk on stacks of the samples (see :func:`_stack_values`).
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    worst_f = worst_db = worst_dh = 0.0
    lm = coeffs.L_M(M)
    n_directions = _N_DIRECTIONS
    per_trial = 2 + n_directions
    done, count = 0, 1          # the first trial sizes the chunks after it
    while done < trials:
        count = min(count, trials - done)
        drawn = sampler(rng, count * per_trial)
        nodes, _, dim = drawn.values.shape
        vals = drawn.values.reshape(nodes, count, per_trial, dim)
        pairs = vals[:, :, :2]          # xi and eta of each trial
        dirs = vals[:, :, 2:]
        # gaps and directions in the solver's segment sup norm: the max over
        # nodes of the Euclidean node norm
        units = dirs / np.maximum(_norms(dirs).max(axis=0), 1e-12)[:, :, None]
        # xi and eta each against every unit direction of their trial
        expand = (nodes, count, 2, n_directions, dim)
        f_vals, = _stack_values((coeffs.f,), [
            SegmentView(drawn.delay, drawn.mesh, _columns(pairs))])
        dg_vals, = _stack_values((coeffs.Dg,), [
            SegmentView(drawn.delay, drawn.mesh, _columns(np.broadcast_to(
                stack, expand)))
            for stack in (pairs[:, :, :, None], units[:, :, None])])
        f_vals = f_vals.reshape(count, 2, dim)
        dg_vals = dg_vals.reshape(count, 2, n_directions, dim)
        gaps = _norms(pairs[:, :, 0] - pairs[:, :, 1]).max(axis=0)
        f_gaps = _norms(f_vals[:, 0] - f_vals[:, 1])
        dir_gaps = _norms(dg_vals[:, 0] - dg_vals[:, 1]).max(axis=1)
        # _ratio grows with its numerator: the largest norm gives its max
        worst_db = max(worst_db, _ratio(float(_norms(dg_vals[:, 0]).max()),
                                        coeffs.L_g))
        for gap, f_gap, dir_gap in zip(gaps.tolist(), f_gaps.tolist(),
                                       dir_gaps.tolist()):
            worst_f = max(worst_f, _ratio(f_gap, coeffs.L_f * gap))
            worst_dh = max(worst_dh, _ratio(dir_gap,
                                            lm * gap ** coeffs.delta))
        done += count
        count = max(1, _SAMPLE_VALUES // (nodes * per_trial * dim))
    passed = max(worst_f, worst_db, worst_dh) <= 1.0 + 1e-9
    return RegularityReport(worst_f, worst_db, worst_dh, trials, passed)


def composition_path(func, path, r, window=None):
    """The path ``t -> func(x_t)`` on grid nodes of the window."""
    _, ja, jb = _delay_window(path, r, window, "composition")
    out, = node_values((func,), (path.values,), ja, jb + 1, r, path.mesh)
    return GridPath(path.t0 + ja * path.mesh, path.mesh, out)


def _composition_windows(func, path, r, windows):
    """``func(x_t)`` at the nodes of the span of ``windows`` (times ``(a,
    b)``, each at least one cell), one row per node, and each window's
    ``(first, last)`` row in it."""
    if not windows:
        raise DomainError("composition estimates need at least one window")
    comp = composition_path(func, path, r, (min(a for a, _ in windows),
                                            max(b for _, b in windows)))
    return comp.values, [comp.window_indices(window) for window in windows]


@dataclass(frozen=True)
class CompositionReport:
    """Both sides of the composition estimate on one window [a, b]."""

    seminorm: float     # |||g(x_.)|||_{beta, [a,b]}
    enlarged: float     # |||x|||_{beta, [a-r,b]}; L_g times it bounds seminorm


def composition_holder(coeffs, path, beta, r, windows):
    """Grid Holder seminorm of ``t -> g(x_t)`` on each window ``(a, b)`` of
    ``windows``, with that of x on the enlarged window ``[a - r, b]``: the
    Lipschitz composition bound keeps the first below ``L_g`` times the
    second.  One :class:`CompositionReport` per window.  ``g(x_.)`` is
    built once over the windows' span, and the seminorms of each path come
    from one pruned pass over its node pairs
    (:func:`~ydde.paths._window_pair_max`)."""
    _check_holder_exponent(beta)
    comp, nodes = _composition_windows(coeffs.g, path, r, windows)
    semis = _window_pair_max(comp, path.mesh, beta, nodes)
    enlarged = _window_pair_max(path.values, path.mesh, beta, [
        path.window_indices((a - r, b)) for a, b in windows])
    return [CompositionReport(semi, enl)
            for semi, enl in zip(semis.tolist(), enlarged.tolist())]


@dataclass(frozen=True)
class CompositionGapReport:
    """Both sides of the difference estimate for g-composites."""

    lhs: float          # |||g(x_.) - g(y_.)|||_{delta*beta, [a,b]}
    bound_tight: float
    bound_weak: float
    M: float


def composition_holder_diff(coeffs, x, y, beta, r, windows):
    """Difference estimate in the (delta*beta)-Holder seminorm, on each
    window ``(a, b)`` of ``windows``: one :class:`CompositionGapReport`
    per window.

    lhs = |||g(x_.) - g(y_.)|||_{delta beta, [a,b]} against
    ``L_g (b-a)^(beta - delta beta) |||x-y|||_beta + L_M M^delta |x-y|_inf``
    on the enlarged window, with M the larger of the two path norms.  As in
    :func:`composition_holder`, each path's seminorms come from one pass:
    ``g(x_.) - g(y_.)``, then x, y and x - y on the enlarged windows, whose
    sups are read from one array of node norms per path.
    """
    _check_holder_exponent(beta)
    if (x.values.shape != y.values.shape or abs(x.mesh - y.mesh) > 1e-12
            or abs(x.t0 - y.t0) > 1e-12):
        raise DomainError("paths must share grid and dimension for the "
                          "difference estimate")
    gx, nodes = _composition_windows(coeffs.g, x, r, windows)
    gy, _ = _composition_windows(coeffs.g, y, r, windows)
    db = coeffs.delta * beta
    lhs = _window_pair_max(gx - gy, x.mesh, db, nodes).tolist()
    enlarged = [x.window_indices((a - r, b)) for a, b in windows]
    parts = []          # per path x, y, x - y: (sups, seminorms) per window
    for v in (x.values, y.values, x.values - y.values):
        norms = _row_norms(v)
        parts.append(([float(norms[i:j + 1].max()) for i, j in enlarged],
                      _window_pair_max(v, x.mesh, beta, enlarged).tolist()))
    (x_sup, x_semi), (y_sup, y_semi), (sups, semis) = parts
    out = []
    for k, (a, b) in enumerate(windows):
        M = max(x_sup[k] + x_semi[k], y_sup[k] + y_semi[k])
        lip = coeffs.L_g * (b - a) ** (beta - db)
        mod = coeffs.L_M(M) * M ** coeffs.delta
        out.append(CompositionGapReport(
            lhs[k], lip * semis[k] + mod * sups[k],
            (lip + mod) * (sups[k] + semis[k]), M))
    return out
