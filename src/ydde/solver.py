"""Constructive pathwise solver for Young delay equations.

The equation ``dx(t) = f(x_t) dt + g(x_t) domega(t)`` with history segment
``eta`` is solved window by window (method of steps).  Window ends are the
greedy stopping times where

    (t - t_i)^(1-beta) + (t - t_i)^(nu-beta) |||omega|||_{nu, [t_i, t]}

first reaches ``mu / C``; on each window the integral map

    F(x)(t) = x(t_i) + int f(x_s) ds + int g(x_s) domega(s)

is a contraction and is iterated to a fixed point, with left-rectangle and
left-point Young quadrature so that the discrete fixed point is exactly the
one-pass Euler recursion.  Growth and Gronwall-type bound checkers verify
the estimates the window construction guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations

import numpy as np

from .coefficients import _marked, _node_views, _stack_values
from .errors import ConvergenceError, DomainError, PartitionError
from .paths import (GridPath, Segment, SegmentView, _check_grid_size,
                    _node_stack, _pair_blocks, _pair_max, _row_norms,
                    _segment_norm_parts, _snap_index, holder_norm,
                    holder_seminorm, random_windows, segment, segment_norm,
                    segment_norm_profile)
from .young import YoungConstants

_INIT_KINDS = ("constant", "linear", "euler_perturbed")


@dataclass(frozen=True)
class SolverConfig:
    """Exponents, grid and iteration controls for one solve."""

    beta: float
    nu: float
    mesh: float
    T: float
    r: float
    mu: float = 0.25
    picard_tol: float = 1e-10
    picard_max_iters: int = 80

    def __post_init__(self):
        if not 0.5 < self.nu <= 1.0:
            raise DomainError(f"need nu in (1/2, 1], got {self.nu!r}")
        if not 0.0 < self.beta < self.nu:
            raise DomainError(f"need 0 < beta < nu, got beta={self.beta!r}")
        # mu < 1/2 keeps every solve usable by the Gronwall-type estimates.
        if not 0.0 < self.mu < 0.5:
            raise DomainError(f"need mu in (0, 1/2), got {self.mu!r}")
        # NaN fails every comparison, so each guard is written negated
        if not all(0.0 < x < math.inf for x in (self.mesh, self.T, self.r)):
            raise DomainError("mesh, T and r must be positive and finite")
        _check_grid_size(self.n_history + self.n_horizon, "solve grid")
        if not 0.0 < self.picard_tol < math.inf:
            raise DomainError(f"picard_tol must be positive and finite, "
                              f"got {self.picard_tol!r}")
        iters = self.picard_max_iters
        if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) \
                or iters < 1:
            raise DomainError(f"picard_max_iters must be an integer >= 1, "
                              f"got {iters!r}")

    @property
    def n_history(self):
        return _snap_index(self.r, self.mesh, "delay r")

    @property
    def n_horizon(self):
        return _snap_index(self.T, self.mesh, "horizon T")

    def young(self, delta=1.0):
        if self.beta * delta + self.nu <= 1.0:
            raise DomainError(
                f"need beta*delta + nu > 1, got {self.beta * delta + self.nu!r}")
        return YoungConstants(self.beta, self.nu, delta)


@dataclass(frozen=True)
class ContractionConstants:
    """Constants of the window construction for one coefficient set."""

    C: float                 # stopping-time constant 2(|g(0)| + L' + L_g (K+1))
    young: YoungConstants
    coeffs: object           # the CoefficientSet: L' = max(L_f, |f(0)|), L_g, ...

    def L(self, span, M):
        """Contraction constant L(span, M) of the difference estimate."""
        co = self.coeffs
        b, d = self.young.beta, co.delta
        return (co.L_f + co.L_g
                + co.L_g * self.young.Kprime * span ** b
                + self.young.Kprime * co.L_M(M) * M ** d * span ** (d * b))


def compute_contraction_constants(coeffs, config):
    """C and L(span, M) per the window construction; C is 0 exactly for
    identically zero coefficients, whose partition is one window
    (:func:`greedy_partition`)."""
    young = config.young(coeffs.delta)
    C = 2.0 * (coeffs.g0_norm + coeffs.Lprime + coeffs.L_g * (young.K + 1.0))
    return ContractionConstants(C=C, young=young, coeffs=coeffs)


# ---------------------------------------------------------------------------
# Greedy stopping-time partition.

def window_residual(omega, beta, nu, windows):
    """``(t-s)^(1-beta) + (t-s)^(nu-beta) |||omega|||_{nu, [s, t]}`` on the
    grid, for each window ``(s, t)`` of ``windows``.  Each window scans its
    own node pairs: the windows checked (a partition's, each one cell
    longer) are short and nearly disjoint, and one pass over their span
    (:func:`~ydde.paths._window_pair_max`) gains little at n = 2^8 and
    loses at n = 2^12, measured on a two-core host on sin_fbm's 55 and
    67 partition windows: 0.40 vs 0.49 ms and 7.7 vs 1.2 ms."""
    out = []
    for window in windows:
        i0, i1 = omega.window_indices(window)
        span = (i1 - i0) * omega.mesh
        om = _pair_max(omega.values[i0:i1 + 1, 0], omega.mesh, nu)
        out.append(span ** (1.0 - beta) + span ** (nu - beta) * om)
    return out


@dataclass(frozen=True)
class GreedyPartition:
    """Stopping times with their residuals and defining constants."""

    times: np.ndarray
    residuals: np.ndarray
    threshold: float          # mu / C
    C: float
    mu: float
    clamped_final: bool       # final point is the horizon clamp, not eq. residual

    @property
    def n_windows(self):
        return len(self.times) - 1

    @property
    def stopping_times(self):
        """True stopping times in (0, T] (the clamp at T does not count)."""
        last = self.n_windows - (1 if self.clamped_final else 0)
        return self.times[1:last + 1]

    @property
    def N(self):
        return len(self.stopping_times)

    def n_at(self, t):
        """N(t, omega): number of stopping times in (0, t]; an int for a
        time, an array of counts for an array of times."""
        slack = 1e-9 * np.maximum(1.0, np.abs(t))
        n = np.searchsorted(self.stopping_times, t + slack, side="right")
        return n if np.ndim(n) else int(n)

    def windows(self):
        return list(zip(self.times[:-1], self.times[1:]))


def greedy_partition(omega, config, C):
    """Greedy maximal windows with residual at most mu / C, snapped to the grid.

    Each window end is the largest grid node whose residual stays below the
    threshold, so the defining equality holds as a one-sided inequality with
    the reported residual; the final window is clamped at the horizon.  The
    residual grows with the window end: one pass over the pair scan's row
    maxima (their running max is the driver seminorm) finds each end.  The
    residual is at least ``(j*h)^(1-beta)`` for a window of j cells, so the
    scan never looks past ``j_cap``, the first j where that term alone
    exceeds the threshold.  Inert dynamics, C = 0, have no stopping time:
    one window over ``[0, T]``, with threshold inf.
    """
    if not 0.0 <= C < math.inf:
        raise DomainError(f"greedy partition needs 0 <= C < inf, got {C!r}")
    i_end = omega.index_of(config.T, "horizon T")
    i0 = omega.index_of(0.0, "origin")
    if C == 0.0:
        return GreedyPartition(times=np.array([0.0, config.T]),
                               residuals=np.array([0.0]), threshold=math.inf,
                               C=0.0, mu=config.mu, clamped_final=True)
    if not config.mu < min(1.0, C):
        raise DomainError(f"need mu < min(1, C) = {min(1.0, C)!r}, got {config.mu!r}")
    threshold = config.mu / C
    h = omega.mesh
    vals = omega.values[:, 0]
    beta, nu = config.beta, config.nu
    j_cap = max(0, int(threshold ** (1.0 / (1.0 - beta)) / h) - 1)
    while (j_cap * h) ** (1.0 - beta) <= threshold:
        j_cap += 1

    cuts = [i0]
    residuals = []
    clamped = False
    while cuts[-1] < i_end:
        ia = cuts[-1]
        scan = vals[ia:min(i_end, ia + j_cap) + 1]
        row_maxima = (row for _, _, ratio in _pair_blocks(scan, h, nu)
                      for row in ratio.max(axis=1).tolist())
        om, w = 0.0, 0
        for j, row in enumerate(row_maxima, 1):
            om = max(om, row)
            res_j = (j * h) ** (1.0 - beta) + (j * h) ** (nu - beta) * om
            if res_j > threshold:
                break
            w, res = j, res_j
        if w == 0:
            raise PartitionError(
                "refine mesh or increase mu: the first greedy step at "
                f"t={omega.t0 + ia * h!r} is below one mesh cell")
        if ia + w == i_end and res < threshold:
            clamped = True
        cuts.append(ia + w)
        residuals.append(res)
    times = omega.t0 + h * np.asarray(cuts, dtype=float)
    return GreedyPartition(times=times, residuals=np.asarray(residuals),
                           threshold=threshold, C=C, mu=config.mu,
                           clamped_final=clamped)


def stopping_count_bound(omega, config, C):
    """Right side of the polynomial bound on N(T, omega):
    ``2^(k-1) (C/mu)^k (T^(k(1-beta)) + T^(k(nu-beta)) |||omega|||_nu^k)``
    with k the smallest integer such that k (nu - beta) >= 1.
    """
    k = math.ceil(1.0 / (config.nu - config.beta))
    om = holder_seminorm(omega, config.nu, (0.0, config.T))
    T = config.T
    return (2.0 ** (k - 1) * (C / config.mu) ** k
            * (T ** (k * (1.0 - config.beta))
               + T ** (k * (config.nu - config.beta)) * om ** k))


# ---------------------------------------------------------------------------
# The integral map F and windowed Picard iteration.

@dataclass(frozen=True)
class WindowRecord:
    """Per-window Picard diagnostics."""

    t_start: float
    t_end: float
    iterations: int
    residual: float
    contraction_ratios: tuple
    split: bool = False


@dataclass(frozen=True)
class SolveReport:
    """A solve of ``coeffs`` and ``omega`` under ``config``, which a check
    takes alone: the solution, its diagnostics and the engine's
    ``iterates`` (:class:`_WindowedPicard`)."""

    solution: GridPath
    partition: GreedyPartition
    windows: tuple
    config: SolverConfig
    eta_norm: float
    coeffs: object = field(repr=False, compare=False)
    omega: GridPath = field(repr=False, compare=False)
    iterates: dict = field(repr=False, compare=False)

    @cached_property
    def eta(self):
        """The solution on ``[-r, 0]``: bitwise the start solved from."""
        return segment(self.solution, 0.0, self.config.r)

    @property
    def nu_seminorm(self):
        """Grid nu-seminorm of the solution on [0, T]."""
        return holder_seminorm(self.solution, self.config.nu,
                               (0.0, self.config.T))

    @property
    def window_iterations(self):
        return [w.iterations for w in self.windows]

    @property
    def window_residuals(self):
        return [w.residual for w in self.windows]

    @cached_property
    def segment_norms(self):
        """``(sups, scans)``: the two parts of the solution's segment norm
        at every node from t = 0 on (:func:`~ydde.paths._segment_norm_parts`),
        shared by the ball and the growth check."""
        path = self.solution
        return _segment_norm_parts(path.values, path.mesh, self.config.beta,
                                   self.config.n_history)

    @cached_property
    def holder_norm(self):
        """The solution's beta-Holder norm on ``[-r, T]``, shared by the
        continuity check and the linearized solve."""
        return holder_norm(self.solution, self.config.beta)

    @cached_property
    def ball_ok(self):
        """Whether every Picard iterate stayed in its window's ball."""
        return ball_check(self).passed

    @property
    def first_iterate(self):
        """Every window's first Picard iterate, on the solution's history."""
        values = np.array(self.solution.values)
        for ia, iterates in self.iterates.items():
            values[ia + 1:ia + 1 + len(iterates[0])] = iterates[0]
        return GridPath(self.solution.t0, self.solution.mesh, values)


def _solve_grid(config, starts, omega):
    """Node array on ``[-r, T]`` of K paths side by side, shape ``(n+1, K,
    d)``: column c holds the segment ``starts[c]`` on ``[-r, 0]`` (zeros
    past 0).  With it, the driver increments ``dw[k]`` over ``[t_k,
    t_{k+1}]`` (zero on the history)."""
    m_r, n = config.n_history, config.n_history + config.n_horizon
    values = np.zeros((n + 1, len(starts), starts[0].dim))
    values[:m_r + 1] = np.stack([start.values for start in starts], axis=1)
    j0 = omega.index_of(0.0)
    dw = np.zeros(n + 1)
    dw[m_r:n] = np.diff(omega.values[j0:j0 + config.n_horizon + 1, 0])
    return values, dw


def _left_sum_map(f, g, arrays, ia, ib, delay, h, dw):
    """The left-point integral map on nodes ``(ia, ib]`` of the K paths ``x
    = arrays[-1]``, shape ``(n+1, K, d)``: a function of no arguments that
    gives ``x[ia] + cumsum(f h + g dw)`` from the arrays' current rows, with
    ``f`` and ``g`` applied to the delay segments of ``arrays`` at nodes
    ``ia .. ib-1`` (:func:`~ydde.coefficients._stack_values`: one call each
    for marked functionals, row ``j*K + c`` for node j of column c).  The
    segment views and the increments are made here, once: the views see
    rows written later.  Each column's sums are those of the column
    alone."""
    x = arrays[-1]
    shape = (ib - ia,) + x.shape[1:]
    views = _node_views(arrays, ia, ib, delay, h)
    x0, dws = x[ia], dw[ia:ib, None, None]

    def apply():
        f_vals, g_vals = _stack_values((f, g), views)
        return x0 + np.cumsum(f_vals.reshape(shape) * h
                              + g_vals.reshape(shape) * dws, axis=0)

    return apply


# Euler sweeps (_euler_steps), measured with timeit on a shared two-core
# host on sin_fbm, logistic_fbm, expdecay and coupled_fbm at meshes 2^-8 to
# 2^-12.  One loop step costs 7-13 us.  A sweep of 512 nodes costs 2.5-3.8
# loop steps on the scalar demos and 13 on coupled_fbm (d = 2).  A run of
# sweeps from a fresh guess commits one node a sweep for its first 3-7
# sweeps, then tens to hundreds; a run of 16 nodes takes 0.7-1.4 times the
# loop's time, of 32 nodes 0.35-0.87 times.  On a stiff input (sin_delay,
# |A| h >= 1/8) the sweeps commit 1-2 nodes each, for good.
_SWEEP_NODES = 512      # nodes one sweep evaluates at most
_SWEEP_COST = 4         # loop steps a sweep is charged
_SWEEP_CREDIT = 24      # loop steps a run of sweeps may lag the loop
_SWEEP_MIN = 32         # crossover: a run of fewer nodes takes the loop


def _euler_steps(f, g, arrays, ia, ib, delay, h, dw):
    """Fill nodes ``(ia, ib]`` of the path ``x = arrays[-1]`` in place by
    ``x[k+1] = (x[k] + f h) + g dw[k]``, ``f`` and ``g`` applied to the delay
    segments of ``arrays`` at node k.

    Functionals not both marked ``accepts_stacks`` take the node loop
    (:func:`_euler_loop`), the oracle.  Marked ones are swept
    (:func:`_euler_sweeps`), which gives the loop's path bit for bit.  A
    run of fewer than ``_SWEEP_MIN`` nodes takes the loop, and so does the
    rest of the run once the sweeps stop paying, so a stiff input costs
    the loop plus sweeps worth about ``_SWEEP_CREDIT`` loop steps.

    Node stacks need C-contiguous rows, so a column of a K >= 2 grid is
    worked on in a copy of its rows ``ia - m .. ib`` (m the delay in cells)
    and copied back."""
    m = _snap_index(delay, h, "delay")
    rows = [a[ia - m:ib + 1] for a in arrays]
    work = [np.ascontiguousarray(a) for a in rows]
    k, end, dw = m, m + ib - ia, dw[ia - m:ib]
    if _marked(f) and _marked(g) and end - k >= _SWEEP_MIN:
        k = _euler_sweeps(f, g, work, k, end, delay, h, dw)
    _euler_loop(f, g, work, k, end, m, delay, h, dw)
    if work[-1] is not rows[-1]:
        rows[-1][m + 1:] = work[-1][m + 1:]


def _euler_loop(f, g, arrays, ka, kb, m, delay, h, dw):
    """The Euler step at each node k of ``[ka, kb)`` in turn: node k's
    segments are column ``k - ka`` of read-only node stacks of the
    C-contiguous ``arrays``, made once (they see the rows written since),
    passed as SegmentViews if ``f`` and ``g`` are marked
    ``accepts_stacks``, else as Segments."""
    x = arrays[-1]
    carrier = SegmentView if _marked(f) and _marked(g) else Segment
    stacks = [_node_stack(a, ka, kb, m) for a in arrays]
    for j, k in enumerate(range(ka, kb)):
        segs = [carrier(delay, h, s[:, j]) for s in stacks]
        x[k + 1] = x[k] + f(*segs) * h + g(*segs) * dw[k]


@np.errstate(all="ignore")
def _euler_sweeps(f, g, arrays, k, end, delay, h, dw):
    """Euler nodes ``(k, end]`` of ``x = arrays[-1]`` (C-contiguous, node k
    final) by sweeps, until they finish or stop paying: the node up to
    which ``x`` is then final.

    A sweep takes the block ``(k, stop]``, ``stop = min(k + _SWEEP_NODES,
    end)``, as it stands in ``x``: final nodes, then a guess.  It calls
    ``f`` and ``g`` once each on the node stacks of the block's segments
    (:func:`~ydde.coefficients._node_views`, as the Picard map does) and
    rebuilds the block by one ``np.add.accumulate`` over ``[x_k, f_k h,
    g_k dw_k, f_{k+1} h, ...]``.  That is a sequential left fold, so each
    node is ``(x[j] + f_j h) + g_j dw[j]`` in the loop's order; the sweep
    writes the block back to ``x``.

    Exactness: node k + 1 reads only final nodes, so the sweep makes it
    bitwise as the loop does.  If nodes ``k+1 .. j`` are final and each
    came out bitwise as it went in, the segment at j read final nodes, so
    node j + 1 is final too.  So every node up to and including the first
    whose bits changed is final (bits compared as ``view(np.int64)``, so
    NaN and -0.0 count as the loop makes them).  Those are committed and
    the block slides to start after them; when a sweep changes no bit, the
    block is final.  Each sweep commits at least one node, so a block of w
    nodes ends within w sweeps.  The nodes a slide brings in are guessed
    equal to the last node guessed.  A guess can overflow where the loop's
    path does not, so the sweeps raise no floating-point warnings.

    Cost: each sweep is charged ``_SWEEP_COST`` loop steps against the
    nodes it commits.  The run starts from a credit of ``_SWEEP_CREDIT``
    loop steps (the warm-up of a fresh guess commits one node a sweep),
    gains what a sweep commits above its charge up to ``_SWEEP_CREDIT``,
    and stops once it is below zero.  A run that commits n nodes thus
    makes at most ``(n + _SWEEP_CREDIT - 1) / _SWEEP_COST + 1`` sweeps."""
    x = arrays[-1]
    credit = _SWEEP_CREDIT
    fold = np.empty((2 * _SWEEP_NODES + 1, x.shape[1]))
    known = k
    while k < end:
        stop = min(k + _SWEEP_NODES, end)
        x[known + 1:stop + 1] = x[known]    # the block's new nodes
        known = stop
        w = stop - k
        f_vals, g_vals = _stack_values(
            (f, g), _node_views(arrays, k, stop, delay, h))
        terms = fold[:2 * w + 1]
        terms[0] = x[k]
        np.multiply(f_vals, h, out=terms[1::2])
        np.multiply(g_vals, dw[k:stop, None], out=terms[2::2])
        new = np.add.accumulate(terms, axis=0, out=terms)[2::2]
        old = x[k + 1:stop + 1]
        changed = (new.view(np.int64) != old.view(np.int64)).any(axis=1)
        done = int(changed.argmax()) + 1 if changed.any() else w
        old[...] = new
        k += done
        credit = min(credit + done - _SWEEP_COST, _SWEEP_CREDIT)
        if credit < 0:
            break
    return k


class _WindowedPicard:
    """Shared machinery: iterate the integral map window by window on the K
    columns of the solve grid ``values``, shape ``(n+1, K, d)``, at once.

    ``f`` and ``g`` take the delay segments of the ``base`` arrays, then of
    the iterate: the coefficients with no base, ``Df``/``Dg`` along a base
    solution for the linearized equation (one column).  An iterate stacks
    the segments of all K columns node-major, so a functional marked
    ``accepts_stacks`` is called once for all of them, and one pair scan
    gives every column's residual.  ``iterates`` maps each window's start
    node to the iterates on its nodes; a split window's halves replace the
    failed attempt."""

    def __init__(self, f, g, base, config, exponent, values, dw):
        self.f = f
        self.g = g
        self.base = base
        self.config = config
        self.m_r = config.n_history
        self.h = config.mesh
        self.exponent = exponent
        self.tol = config.picard_tol
        self.max_iters = config.picard_max_iters
        self.values = values
        self.dw = dw
        self.iterates = {}
        # iterate beyond tol down to a polish floor so that distinct
        # initializations land on numerically identical fixed points
        self.stop_tol = max(self.tol * 1e-2, 1e-15)

    def _step(self, kernel, values, ia, ib):
        return kernel(self.f, self.g, self.base + (values,), ia, ib,
                      self.m_r * self.h, self.h, self.dw)

    def _init_window(self, column, ia, ib, kind):
        w = ib - ia
        if kind == "constant":
            column[ia + 1:ib + 1] = column[ia]
        elif kind == "linear":
            slope = (column[ia] - column[ia - 1]) / self.h
            column[ia + 1:ib + 1] = (column[ia]
                                     + np.outer(np.arange(1, w + 1) * self.h, slope))
        else:   # "euler_perturbed"; _run_picard refuses any other kind
            self._step(_euler_steps, column, ia, ib)
            amp = 0.05 * (1.0 + float(np.linalg.norm(column[ia])))
            bump = amp * np.sin(math.pi * np.arange(1, w + 1) / w)
            column[ia + 1:ib + 1] += bump[:, None]

    def _stops(self, res, residuals, ratios):
        """Record a column's iterate residual ``res``; whether it stops."""
        if residuals and residuals[-1] > 100.0 * self.tol and res > 0:
            ratios.append(res / residuals[-1])
        residuals.append(res)
        # not finite (it never converges), the polish floor, or tol met at
        # the rounding floor
        return not math.isfinite(res) or res <= self.stop_tol or (
            len(residuals) >= 3 and res <= self.tol
            and res >= 0.9 * residuals[-2])

    def run_window(self, ia, ib, kinds, depth=0):
        """Iterate F on nodes (ia, ib] of every column, column c from the
        initial iterate ``kinds[c]``; returns one list of WindowRecords per
        column.

        Each column keeps its own residuals and stopping test.  A column
        that stops is frozen (its nodes are no longer written), so its
        iterates and records are those of a run of its own.  A column
        converges only if its last residual is <= ``picard_tol``; if not, a
        lone column splits the window once, a batch raises.  An iterate
        that is not finite has a residual that is not (inf or NaN, from its
        node norms), so its column stops at once, unconverged, before any
        functional sees it.

        The differences ``new - old`` of an iterate are written column-major,
        column c after a zero start node, so that each column's node norms
        and its pair scan (:func:`~ydde.paths._pair_max`) read it contiguous.
        """
        values = self.values
        for c, kind in enumerate(kinds):
            self._init_window(values[:, c], ia, ib, kind)
        window = values[ia + 1:ib + 1]
        residuals = [[] for _ in kinds]
        ratios = [[] for _ in kinds]
        running = list(range(len(kinds)))
        iterates = self.iterates[ia] = []
        step = self._step(_left_sum_map, values, ia, ib)
        # the difference vanishes up to the window start, so pairs into the
        # history are dominated by pairs with the (zero) start node
        padded = np.zeros((len(kinds), ib - ia + 1, window.shape[2]))
        nodes = padded.transpose(1, 0, 2)
        for _ in range(self.max_iters):
            new = step()
            np.subtract(new, window, out=nodes[1:])
            res = (_row_norms(padded).max(axis=1)
                   + _pair_max(nodes, self.h, self.exponent)).tolist()
            if len(running) == len(kinds):
                window[...] = new
            else:
                window[:, running] = new[:, running]
            iterates.append(new)
            running = [c for c in running
                       if not self._stops(res[c], residuals[c], ratios[c])]
            if not running:
                break
        t0 = -self.m_r * self.h
        out = []
        for c, kind in enumerate(kinds):
            last = residuals[c][-1]
            if not math.isfinite(last) or (c in running
                                           and not last <= self.tol):
                out.append(self._unconverged(ia, ib, kind, depth,
                                             residuals[c]))
                continue
            out.append([WindowRecord(
                t_start=t0 + ia * self.h, t_end=t0 + ib * self.h,
                iterations=len(residuals[c]), residual=residuals[c][-1],
                contraction_ratios=tuple(ratios[c]))])
        return out

    def _unconverged(self, ia, ib, kind, depth, residuals):
        """The records of a lone column that did not converge on (ia, ib]:
        the window's halves; a batch raises at once."""
        if self.values.shape[1] == 1 and depth == 0 and ib - ia >= 2:
            # grid snapping can leave a window a hair too long; one
            # bisection restores the contraction, then give up
            mid = (ia + ib) // 2
            rec1, = self.run_window(ia, mid, (kind,), depth=1)
            rec2, = self.run_window(mid, ib, (kind,), depth=1)
            return [replace(r, split=True) for r in rec1 + rec2]
        raise ConvergenceError(
            f"Picard did not reach tol={self.tol} on window nodes "
            f"[{ia}, {ib}] (best residual {min(residuals):.3e})",
            residual_history=residuals)

    def solve(self, partition, omega, kinds):
        """Run every window of ``partition`` (times on the grid of the
        driver ``omega``), column c from ``kinds[c]``: the WindowRecords of
        each column, and :attr:`iterates`."""
        records = [[] for _ in kinds]
        for (ta, tb) in partition.windows():
            ia, ib = self.m_r + omega.index_of(ta), self.m_r + omega.index_of(tb)
            for column, recs in zip(records, self.run_window(ia, ib, kinds)):
                column.extend(recs)
        return records, self.iterates


def _validate_start(coeffs, eta, config):
    """Refuse a start ``eta`` of another dimension, delay or mesh."""
    if eta.dim != coeffs.dim:
        raise DomainError(f"eta dim {eta.dim} != coefficient dim {coeffs.dim}")
    if abs(eta.delay - config.r) > 1e-12 * max(1.0, config.r):
        raise DomainError(f"eta delay {eta.delay!r} != config r {config.r!r}")
    if abs(eta.mesh - config.mesh) > 1e-12 * config.mesh:
        raise DomainError("eta mesh != config mesh")


def _validate_solve_inputs(coeffs, eta, omega, config):
    _validate_start(coeffs, eta, config)
    if abs(omega.mesh - config.mesh) > 1e-12 * config.mesh:
        raise DomainError("driver mesh != config mesh")
    if omega.dim != 1:
        raise DomainError("driver must be scalar")
    omega.index_of(0.0, "origin")
    if omega.t_end < config.T - 1e-12:
        raise DomainError("driver does not cover [0, T]")


def _run_picard(coeffs, omega, config, starts, partition, maps=None):
    """Windowed Picard iteration from the K starts ``(eta, init_kind)`` as
    the K columns of one solve grid (:class:`_WindowedPicard`): the
    partition, the ``(n+1, K, d)`` node array, the WindowRecords of each
    column and the iterates.

    Every start (segment and init kind) is validated before anything is
    computed; then ``partition()`` gives the windows.  ``maps = (f, g,
    base, exponent)`` defaults to the equation's: ``coeffs.f``, ``coeffs.g``,
    no base arrays, contracting in the beta-Holder norm.
    """
    for eta, kind in starts:
        _validate_solve_inputs(coeffs, eta, omega, config)
        if kind not in _INIT_KINDS:
            raise DomainError(
                f"unknown init kind {kind!r}; one of {_INIT_KINDS}")
    partition = partition()
    f, g, base, exponent = maps or (coeffs.f, coeffs.g, (), config.beta)
    values, dw = _solve_grid(config, [eta for eta, _ in starts], omega)
    engine = _WindowedPicard(f, g, base, config, exponent, values, dw)
    records, iterates = engine.solve(partition, omega,
                                     [kind for _, kind in starts])
    return partition, values, records, iterates


def picard_solve(coeffs, eta, omega, config, init="constant"):
    """Solve the delay equation by windowed Picard iteration.

    Returns a :class:`SolveReport`; the solution equals ``eta`` exactly on
    ``[-r, 0]`` and satisfies the per-window fixed-point residual bound.
    """
    partition, values, (records,), iterates = _run_picard(
        coeffs, omega, config, [(eta, init)], lambda: greedy_partition(
            omega, config, compute_contraction_constants(coeffs, config).C))
    return SolveReport(
        solution=GridPath(-config.r, config.mesh, values[:, 0]),
        partition=partition, windows=tuple(records), config=config,
        eta_norm=segment_norm(eta, config.beta), coeffs=coeffs, omega=omega,
        iterates={ia: [x[:, 0] for x in xs] for ia, xs in iterates.items()})


def resolve(base, starts):
    """Solve again from each ``(eta, init_kind)`` of ``starts``: the
    solution paths, each bitwise the solution of ``picard_solve(base.coeffs,
    eta, base.omega, base.config, init=init_kind)``.

    The partition of the :class:`SolveReport` ``base`` depends only on its
    driver, config and C, so it is reused, and the K starts are iterated as
    K columns in lockstep (:class:`_WindowedPicard`).  If a column does not
    converge on a window, the batch stops and the starts are solved again
    one by one in order: a solo solve may split that window, and the error
    raised, if any, is the first solo solve's.

    Cost: the K residual scans of an iterate are one column-major pair
    scan, about the cost of K solo scans.  On sin_fbm at mesh 2^-12 (a
    shared two-core host, medians of 9), the uniqueness probe's K = 2 batch
    takes about 38 ms, against 62 ms when its ``euler_perturbed`` init was
    stepped node by node; the init, swept on windows of about 60 nodes, is
    now about a third of it under cProfile.  The differentiability
    ladder's K = 3 batch takes about 25 ms, and the solo solve 22 ms.
    """
    if not starts:
        raise DomainError("resolve needs at least one start")
    config = base.config
    try:
        _, values, _, _ = _run_picard(base.coeffs, base.omega, config, starts,
                                      lambda: base.partition)
    except ConvergenceError:
        if len(starts) == 1:
            raise
        return [resolve(base, [start])[0] for start in starts]
    return [GridPath(-config.r, config.mesh, values[:, c])
            for c in range(len(starts))]


def euler_solve(coeffs, eta, omega, config):
    """One-pass explicit scheme ``x_{k+1} = x_k + f(x_{t_k}) h + g(x_{t_k}) dw_k``.

    Independent cross-check oracle for :func:`picard_solve`; the discrete
    Picard fixed point satisfies the same recursion.  The recursion is
    sequential in form only: for functionals marked ``accepts_stacks`` it
    is swept a block of nodes at a time (:func:`_euler_steps`), bitwise
    the node-by-node loop, which stays for unmarked functionals, short
    runs and what follows a stretch where the sweeps stop paying.  On
    sin_fbm at mesh 2^-12 (4,096 nodes, a shared two-core host) the sweeps
    take about 2 ms where the loop takes 35-60 ms; a stiff input costs the
    loop plus the sweeps' warm-up.

    The check is independent of the Picard fold and its windows, not of
    the stacked evaluation: the sweeps, like the Picard map, call a marked
    functional on node stacks, so they rely on each stacked row being
    bitwise its single-segment value (see
    :func:`~ydde.coefficients.accepts_stacks`).  A functional that breaks that contract would give
    both sides the same wrong values.
    """
    _validate_solve_inputs(coeffs, eta, omega, config)
    values, dw = _solve_grid(config, [eta], omega)
    path = values[:, 0]
    _euler_steps(coeffs.f, coeffs.g, (path,), config.n_history,
                 values.shape[0] - 1, config.r, config.mesh, dw)
    return GridPath(-config.r, config.mesh, path)


@dataclass(frozen=True)
class ProbeReport:
    """Pairwise distances between solves started from distinct iterates."""

    init_kinds: tuple
    max_pairwise: float
    tolerance: float
    passed: bool


def uniqueness_probe(base):
    """Re-solve from every initial iterate kind; all runs must agree within
    ``10 * picard_tol`` in the grid Holder norm.

    ``base`` is the :class:`SolveReport` of :func:`picard_solve` with its
    default (constant) init; only the other inits are solved here, from its
    start, as one batch (:func:`resolve`).
    """
    config = base.config
    solutions = [base.solution] + resolve(
        base, [(base.eta, k) for k in _INIT_KINDS[1:]])
    worst = max(holder_norm(GridPath(a.t0, a.mesh, a.values - b.values),
                            config.beta)
                for a, b in combinations(solutions, 2))
    tol = 10.0 * config.picard_tol
    return ProbeReport(init_kinds=_INIT_KINDS, max_pairwise=worst,
                       tolerance=tol, passed=worst <= tol)


# ---------------------------------------------------------------------------
# Bound checkers.

def _stopping_time_bound(partition, ts, k, c, lhs):
    """``(rhs, margins)``: the bound ``rhs = (1 - k mu)^-(N(t)+1) c`` at the
    grid times ``ts``, mu and N(t) those of ``partition``, and the
    log-margins ``log(rhs) - log(lhs)`` of the norms ``lhs`` below it."""
    log_factor = -math.log(1.0 - k * partition.mu)
    rhs = np.exp((partition.n_at(ts) + 1) * log_factor) * c
    margins = (np.log(np.maximum(rhs, 1e-300))
               - np.log(np.maximum(lhs, 1e-300)))
    return rhs, margins


@dataclass(frozen=True)
class GrowthReport:
    """Per-window margins of the segment-norm growth estimate."""

    rows: tuple               # (t_i, t_{i+1}, N, min log-margin)
    min_margin: float         # min over grid t of log(rhs) - log(lhs)
    passed: bool


def growth_bound_check(report, eta):
    """Check ``|x_t| <= (1-mu)^-(N(t)+1) (|eta| + 1)`` at every grid t.

    Norms are the grid segment norms (sup plus beta-seminorm on [-r, 0]);
    N(t) counts the solver's stopping times in (0, t]; ``eta`` must be the
    report's start (:attr:`SolveReport.eta`), whose norm it holds.
    """
    config = report.config
    _validate_start(report.coeffs, eta, config)
    if not np.array_equal(eta.values, report.eta.values):
        raise DomainError("eta is not the start the report was solved from")
    sups, scans = report.segment_norms
    profile = sups + scans
    path, m_r = report.solution, config.n_history
    rhs, margins = _stopping_time_bound(
        report.partition, path.times[m_r:], 1, report.eta_norm + 1.0, profile)
    passed = bool(np.all(profile <= rhs * (1.0 + 1e-12)))
    rows = []
    for ta, tb in report.partition.windows():
        ia, ib = path.index_of(ta) - m_r, path.index_of(tb) - m_r
        rows.append((float(ta), float(tb), int(report.partition.n_at(ta)),
                     float(margins[ia:ib + 1].min())))
    return GrowthReport(rows=tuple(rows), min_margin=float(margins.min()),
                        passed=passed)


@dataclass(frozen=True)
class BallReport:
    """The ball diagnostic of a solve's Picard iterates."""

    rows: tuple               # (ball radius, max iterate norm) per record
    passed: bool


def ball_check(report):
    """Check that every Picard iterate x of ``report`` stays in its window's
    ball ``||x||_{beta, [t_i - r, t_{i+1}]} <= (|x_{t_i}| + mu) / (1 - mu)``,
    ``t_i`` the start of the partition window (a split window's halves share
    its ball).  The history parts are the solution's
    :attr:`SolveReport.segment_norms`.  A record's K iterates are read in
    one scan: column c of one column-major node array is the history, then
    iterate c.  One pruned scan of the pairs that touch the window
    (:func:`~ydde.paths._pair_max`, the history's scan its floor) and one
    pass of node norms give every iterate's norm, each bitwise that of the
    iterate scanned alone."""
    config = report.config
    h, m_r, beta, mu = config.mesh, config.n_history, config.beta, config.mu
    path = report.solution
    sups, scans = report.segment_norms
    starts = {path.index_of(t) for t in report.partition.times[:-1]}
    rows = []
    for record in report.windows:
        ia = path.index_of(record.t_start)
        hist_sup, hist_scan = float(sups[ia - m_r]), float(scans[ia - m_r])
        if ia in starts:
            radius = (hist_sup + hist_scan + mu) / (1.0 - mu)
        iterates = report.iterates[ia]
        cols = np.empty((len(iterates), m_r + 1 + len(iterates[0]), path.dim))
        cols[:, :m_r + 1] = path.values[ia - m_r:ia + 1]
        cols[:, m_r + 1:] = iterates
        tails = _row_norms(cols[:, m_r + 1:]).max(axis=1).tolist()
        pairs = _pair_max(cols.transpose(1, 0, 2), h, beta, m_r + 1,
                          hist_scan).tolist()
        max_norm = 0.0
        for sup, scan in zip(tails, pairs):
            max_norm = max(max_norm, max(hist_sup, sup) + scan)
        rows.append((radius, max_norm))
    return BallReport(rows=tuple(rows), passed=all(
        norm <= radius * (1.0 + 1e-9) for radius, norm in rows))


@dataclass(frozen=True)
class GronwallReport:
    """Outcome of the Gronwall-type estimate check on a candidate path."""

    hypothesis_ok: bool
    hypothesis_worst_ratio: float
    conclusion_ok: bool | None
    conclusion_min_margin: float | None
    message: str


def gronwall_check(z, A, C, omega, config, n_window_samples=50, seed=0):
    """Verify the Gronwall-type estimate for a path z on [-r, T].

    First samples grid windows to test the hypothesis
    ``|||z|||_beta <= A + C ((t-s)^(1-b) + (t-s)^(n-b) |||omega|||) |z|``;
    where it holds, asserts the conclusion
    ``|z_t| <= (1-2mu)^-(N(t)+1) (A / mu + |z_0|)`` with N from the greedy
    partition at this (C, mu).
    """
    if A < 0 or C <= 0:
        raise DomainError("need A >= 0 and C > 0")
    if not config.mu < min(0.5, C):
        raise DomainError(f"need mu < min(1/2, C), got {config.mu!r}")
    windows = [(z.t0 + i * z.mesh, z.t0 + j * z.mesh) for i, j in random_windows(
        seed, z.index_of(0.0), z.index_of(config.T), 1, n_window_samples)]
    residuals = window_residual(omega, config.beta, config.nu, windows)
    worst = 0.0
    for (s, t), res in zip(windows, residuals):
        lhs = holder_seminorm(z, config.beta, (s, t))
        rhs = A + C * res * holder_norm(z, config.beta, (s - config.r, t))
        if lhs > 0:
            worst = max(worst, lhs / rhs if rhs > 0 else math.inf)
    if worst > 1.0 + 1e-9:
        return GronwallReport(hypothesis_ok=False, hypothesis_worst_ratio=worst,
                              conclusion_ok=None, conclusion_min_margin=None,
                              message="hypothesis not satisfied on sampled windows")
    ok, margin = _gronwall_conclusion(z, A, greedy_partition(omega, config, C),
                                      config)
    return GronwallReport(hypothesis_ok=True, hypothesis_worst_ratio=worst,
                          conclusion_ok=ok, conclusion_min_margin=margin,
                          message="ok" if ok else "conclusion violated")


def _gronwall_conclusion(z, A, partition, config):
    """``(ok, min log-margin)`` of ``|z_t| <= (1-2mu)^-(N(t)+1) (A / mu +
    |z_0|)`` at every grid t of ``[0, T]``, N counted on ``partition``."""
    ts, profile = segment_norm_profile(z, config.beta, config.r, (0.0, config.T))
    z0 = float(profile[0])
    rhs, margins = _stopping_time_bound(partition, ts, 2, A / config.mu + z0,
                                        profile)
    scale = max(z0, A / config.mu, 1e-300)
    ok = bool(np.all(profile <= rhs + 1e-12 * scale))
    return ok, float(margins.min())
