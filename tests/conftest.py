import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import settings

from ydde.coefficients import make_builtin
from ydde import drivers
from ydde.drivers import DriverSpec, gen_driver, gen_fbm
from ydde.errors import GenerationError
from ydde.paths import GridPath, Segment, _pair_blocks
from ydde.solver import SolverConfig

MESH = 1.0 / 256

# The property tests run oracles whose time per example varies widely; each
# sets its own max_examples and inherits the rest from this profile.
settings.register_profile("ydde", deadline=None)
settings.load_profile("ydde")


def rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def random_path(seed, n=64, mesh=1.0 / 64, t0=0.0, dim=1, roughness=1.0):
    """Random test path: a smooth Fourier mix plus a scaled random walk."""
    g = rng(seed)
    t = np.linspace(0.0, 1.0, n + 1)
    vals = np.zeros((n + 1, dim))
    for j in range(dim):
        coef = g.standard_normal(4)
        vals[:, j] = (coef[0] * np.sin(np.pi * t) + coef[1] * np.cos(2 * np.pi * t)
                      + coef[2] * t + 0.3 * coef[3])
        walk = np.concatenate(([0.0], np.cumsum(g.standard_normal(n))))
        vals[:, j] += roughness * np.sqrt(mesh) * walk
    return GridPath(t0, mesh, vals)


def full_pair_max(v, h, exponent, start=1, max_gap=None):
    """The unpruned pair scan's value over the upper nodes ``j >= start``
    and gaps up to ``max_gap``, the max of every block of ``_pair_blocks``
    (per column for K columns): what ``_pair_max`` read before it pruned,
    kept as its oracle."""
    blocks = _pair_blocks(v, h, exponent, start, max_gap)
    if v.ndim > 2:
        best = np.zeros(v.shape[1])
        for _, _, ratio in blocks:
            best = np.maximum(best, ratio.max(axis=(0, 1)))
        return best
    return float(max((ratio.max() for _, _, ratio in blocks), default=0.0))


def banded_window_pair_max(v, h, exponent, windows):
    """``full_pair_max(v[i:j+1], h, exponent)`` for each window ``(i, j)``
    from one unpruned pass of ``_pair_blocks`` over the windows' nodes,
    banded at the widest window: per block, the suffix max by lower node,
    then the running max down the upper nodes, read by each window that
    meets the block at its last upper node and first lower node.  What
    ``_window_pair_max`` read before it pruned, kept as its oracle at
    solver sizes."""
    lo, hi = np.asarray(windows, dtype=np.intp).reshape(-1, 2).T
    out = np.zeros(lo.shape[0])
    if not out.size:
        return out
    width = int((hi - lo).max())
    for j0, k0, ratio in _pair_blocks(v[:int(hi.max()) + 1], h, exponent,
                                      int(lo.min()) + 1, max_gap=width):
        rows = ratio.shape[0]
        np.maximum.accumulate(ratio[:, ::-1], axis=1, out=ratio[:, ::-1])
        ratio = np.maximum.accumulate(ratio, axis=0)
        # a window meeting the block starts at one of its lower nodes, as
        # wider pairs are in no window
        sel = np.flatnonzero((hi >= j0) & (lo < k0 + ratio.shape[1])
                             & (lo >= k0))
        got = ratio[np.minimum(hi[sel], j0 + rows - 1) - j0, lo[sel] - k0]
        out[sel] = np.maximum(out[sel], got)
    return out


def fgn_levinson(hurst, z, mesh):
    """fGn increments ``L z`` for the lower Cholesky factor ``L`` of the
    increment covariance, by the Durbin-Levinson recursion (Hosking 1984;
    Dieker 2004): O(n^2) time, O(n) memory, a Python step per node.  The
    exact sampler that circulant embedding replaced, kept as its oracle.

    ``z`` holds standard normals, shape ``(n,)`` or ``(n, m)``; the m
    columns are independent draws sharing the prediction coefficients.
    Increment k is its best linear prediction from increments ``k-1 .. 0``
    plus ``sqrt(v_k) z_k``, with ``v_k`` the prediction variance.
    """
    n = z.shape[0]
    gamma = drivers.fgn_autocovariance(hurst, n, mesh)
    phi = np.zeros(n)
    x = np.empty(z.shape)
    v = gamma[0]
    for k in range(n):
        if k:
            kappa = (gamma[k] - phi[:k - 1] @ gamma[k - 1:0:-1]) / v
            phi[:k - 1] -= kappa * phi[:k - 1][::-1]
            phi[k - 1] = kappa
            v *= 1.0 - kappa * kappa
        if not v > 0:
            raise GenerationError(
                f"fGn prediction variance {float(v)!r} at step {k} "
                f"(H={hurst}, n={n}): covariance not positive definite")
        x[k] = phi[:k] @ x[:k][::-1] + math.sqrt(v) * z[k]
    return x


def segments(sample, g, count=1):
    """``count`` successive draws of the segment sampler ``sample`` (see
    ``bounded_segment_sampler``) from the generator g, as Segments."""
    view = sample(g, count)
    return [Segment(view.delay, view.mesh, view.values[:, i])
            for i in range(count)]


def pvar_seminorm_exhaustive(path, p, window=None):
    """Brute-force grid p-variation over all node partitions of the window:
    the oracle of the dynamic program in ``pvar_seminorm`` (<= ~14 nodes)."""
    ia, ib = path.window_indices(window)
    v = path.values[ia:ib + 1]
    m = ib - ia
    assert m + 1 <= 16, "exhaustive enumeration limited to 16 nodes"
    # the term of each node pair (a, b), a < b, computed once
    term = {(a, b): float(np.linalg.norm(v[b] - v[a])) ** p
            for a, b in combinations(range(m + 1), 2)}
    best = 0.0
    for size in range(0, m):
        for mid in combinations(range(1, m), size):
            nodes = (0,) + mid + (m,)
            best = max(best, sum(term[pair]
                                 for pair in zip(nodes[:-1], nodes[1:])))
    return best ** (1.0 / p)


@pytest.fixture(scope="session")
def workhorse():
    """sin_delay + fBm(H=0.75) scenario used across solver-level tests."""
    config = SolverConfig(beta=0.55, nu=0.7, mesh=MESH, T=1.0, r=0.25)
    coeffs = make_builtin("sin_delay", A=-0.15, B=0.1, sigma=0.05)
    spec = DriverSpec(kind="fbm", T=1.0, mesh=MESH, hurst=0.75, seed=7,
                      amplitude=0.05)
    omega = gen_fbm(spec)
    u = np.linspace(-0.25, 0.0, config.n_history + 1)
    eta = Segment(0.25, MESH, (1.0 + 0.2 * u)[:, None])
    direction = Segment(0.25, MESH, (0.5 * np.cos(2 * np.pi * u))[:, None])
    return dict(config=config, coeffs=coeffs, spec=spec, omega=omega,
                eta=eta, direction=direction)


@pytest.fixture(scope="session")
def linear_scenario():
    config = SolverConfig(beta=0.55, nu=0.7, mesh=MESH, T=1.0, r=0.25)
    coeffs = make_builtin("linear_delay", A=-0.15, B=0.05, Sigma=0.05, c=0.02)
    spec = DriverSpec(kind="fbm", T=1.0, mesh=MESH, hurst=0.75, seed=11,
                      amplitude=0.05)
    omega = gen_fbm(spec)
    u = np.linspace(-0.25, 0.0, config.n_history + 1)
    eta = Segment(0.25, MESH, (1.0 + 0.2 * u)[:, None])
    direction = Segment(0.25, MESH, (0.5 * np.cos(2 * np.pi * u))[:, None])
    return dict(config=config, coeffs=coeffs, spec=spec, omega=omega,
                eta=eta, direction=direction)


@pytest.fixture(scope="session")
def zero_driver():
    return gen_driver(DriverSpec(kind="zero", T=1.0, mesh=MESH))
