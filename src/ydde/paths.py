"""Paths sampled on uniform grids, and their Holder / p-variation seminorms.

A :class:`GridPath` is the universal carrier for drivers, solutions and
solver iterates: values of a vector path on the uniform grid
``t0 + k*mesh``.  A :class:`Segment` is the delay slice ``x_t`` of such a
path, re-indexed to ``[-r, 0]``.  All seminorms computed here are
grid-restricted: suprema run over grid nodes only, so they lower-bound the
continuum quantities while every inequality between them remains valid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

# Relative slack when snapping a time to a grid index.
_INDEX_TOL = 1e-6

# Node pairs one block of _pair_blocks holds at once: memory stays flat when a
# scan spans the whole horizon.
_BLOCK_PAIRS = 1 << 14

# Widest gap of the band a pruned pair scan reads in full, and the nodes of
# one block of its bounds: farther pairs are read a block pair at a time, and
# only the block pairs whose bound can win (:func:`_pair_max`,
# :func:`_window_pair_max`).
_BAND = 64

# Fewest far block pairs (pairs of node blocks no farther apart than the
# widest window spans) for which :func:`_window_pair_max` prunes; a smaller
# scan is read in full, as the work per block pair outweighs the pairs it
# skips.  Measured on a two-core host on the sin_fbm solution: its segment
# and composition windows at mesh 2^-11 (292 and 810 far block pairs) read
# 1.4x and 1.3x slower pruned, its segment windows at 2^-12 (1160) 1.8x
# faster.
_PRUNE_BLOCK_PAIRS = 1 << 10

# The unit roundoff of a float and its smallest normal value.
_ROUNDOFF = 2.0 ** -53
_TINY = np.finfo(float).tiny

# Intervals of the largest grid a path, solve or driver may have: a larger
# one is refused before anything is allocated.
MAX_GRID_INTERVALS = 2 ** 22


def _check_grid_size(n, what):
    """Refuse ``n`` grid intervals above :data:`MAX_GRID_INTERVALS`."""
    if n > MAX_GRID_INTERVALS:
        raise DomainError(f"{what} needs {n} grid intervals, more than the "
                          f"{MAX_GRID_INTERVALS} allowed")


def _snap_index(offset, mesh, what="time"):
    k = offset / mesh
    if not math.isfinite(k):
        raise DomainError(f"{what} {offset!r} over mesh {mesh!r} is not finite")
    ki = int(round(k))
    if abs(k - ki) > _INDEX_TOL:
        raise DomainError(f"{what} {offset!r} is not a multiple of mesh {mesh!r}")
    return ki


def _delay_cells(r, mesh):
    """Cells ``m_r`` of the delay r on the mesh: a positive multiple of it."""
    mr = _snap_index(r, mesh, "delay")
    if mr < 1:
        raise DomainError("delay must be a positive multiple of mesh")
    return mr


def _freeze_nodes(carrier, what, origin):
    """Normalise a :class:`GridPath` or :class:`Segment` in place and return
    its values: read-only, contiguous, finite floats of shape ``(n+1, d)``
    (1-D is one column); ``origin`` and ``mesh`` become floats."""
    vals = np.asarray(carrier.values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.ndim != 2 or vals.shape[0] < 1:
        raise DomainError(f"{what} values must be a nonempty (n+1, d) array")
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"{what} values must be finite")
    vals = np.ascontiguousarray(vals)
    vals.flags.writeable = False
    object.__setattr__(carrier, "values", vals)
    object.__setattr__(carrier, origin, float(getattr(carrier, origin)))
    object.__setattr__(carrier, "mesh", float(carrier.mesh))
    return vals


@dataclass(frozen=True, eq=False)
class GridPath:
    """Vector-valued path on the uniform grid ``t0 + k*mesh``, k = 0..n."""

    t0: float
    mesh: float
    values: np.ndarray  # shape (n+1, d)

    def __post_init__(self):
        if not self.mesh > 0:
            raise DomainError("mesh must be positive")
        _freeze_nodes(self, "path", "t0")

    @property
    def dim(self):
        return self.values.shape[1]

    @property
    def n_intervals(self):
        return self.values.shape[0] - 1

    @property
    def t_end(self):
        return self.t0 + self.n_intervals * self.mesh

    @property
    def times(self):
        return self.t0 + self.mesh * np.arange(self.values.shape[0])

    def index_of(self, t, what="time"):
        k = _snap_index(t - self.t0, self.mesh, what)
        if k < 0 or k > self.n_intervals:
            raise DomainError(f"{what} {t!r} outside path domain "
                              f"[{self.t0!r}, {self.t_end!r}]")
        return k

    def value_at(self, t):
        return self.values[self.index_of(t)]

    def window_indices(self, window=None):
        """Resolve ``window=(a, b)`` to node indices; default is the full span."""
        if window is None:
            return 0, self.n_intervals
        a, b = window
        ia = self.index_of(a, "window start")
        ib = self.index_of(b, "window end")
        if ib <= ia:
            raise DomainError(f"window [{a!r}, {b!r}] is empty")
        return ia, ib

    def restrict(self, a, b):
        ia, ib = self.window_indices((a, b))
        return GridPath(self.t0 + ia * self.mesh, self.mesh,
                        self.values[ia:ib + 1])

    def subsample(self, factor):
        """Keep every ``factor``-th node (mesh grows by ``factor``)."""
        factor = int(factor)
        if factor < 1 or self.n_intervals % factor != 0:
            raise DomainError("subsample factor must divide the interval count")
        return GridPath(self.t0, self.mesh * factor, self.values[::factor])


@dataclass(frozen=True, eq=False)
class Segment:
    """Delay slice of a path: values on the grid of ``[-r, 0]``."""

    delay: float
    mesh: float
    values: np.ndarray  # shape (m+1, d), node k at u = -delay + k*mesh

    def __post_init__(self):
        m = _delay_cells(self.delay, self.mesh)
        n = _freeze_nodes(self, "segment", "delay").shape[0]
        if n != m + 1:
            raise DomainError(f"segment needs {m + 1} nodes to cover "
                              f"[-{self.delay!r}, 0], got {n}")

    @property
    def dim(self):
        return self.values.shape[1]

    @property
    def times(self):
        return -self.delay + self.mesh * np.arange(self.values.shape[0])

    def with_values(self, values):
        return Segment(self.delay, self.mesh, values)


class SegmentView:
    """Unchecked, read-only delay-segment data for the coefficient
    functionals marked to take it (see :func:`ydde.coefficients.node_values`):
    one segment, ``values`` of shape ``(m+1, d)`` as in :class:`Segment`, or a
    node-major stack of w segments, shape ``(m+1, w, d)``, where
    ``values[i]`` is node i of every segment, so ``values[0]`` and
    ``values[-1]`` hold ``x(t - r)`` and ``x(t)`` at all w nodes at once.
    The rows come from a validated grid, so nothing is checked or copied."""

    __slots__ = ("delay", "mesh", "values")

    def __init__(self, delay, mesh, values):
        self.delay = delay
        self.mesh = mesh
        self.values = values


def _node_stack(a, ka, kb, m):
    """Zero-copy, read-only ``s[i, j] = a[ka + j - m + i]`` of the
    C-contiguous ``(n, d)`` array ``a``: node i of the m-cell delay segment
    cut at node ``ka + j``, for ``ka <= ka + j < kb``.  For the K columns of
    a C-contiguous ``(n, K, d)`` array, the columns of each node side by
    side: ``s[i, j*K + c] = a[ka + j - m + i, c]``.  A view, so it sees rows
    written after it was made."""
    step = a.strides[0]
    width = a.shape[1] if a.ndim == 3 else 1
    stack = np.ndarray((m + 1, (kb - ka) * width, a.shape[-1]), a.dtype, a,
                       (ka - m) * step, (step, step // width, a.strides[-1]))
    stack.flags.writeable = False
    return stack


def _row_norms(arr):
    """Euclidean norm along the last axis: of each row of an ``(n, d)``
    array, of each column of each row of ``(n, K, d)``; ``|x|`` for a scalar
    (1-D) array and for d = 1, exactly.  For d >= 2 every vector takes the
    same dot product, so a column's norms are bitwise those of the column
    alone; a vector whose sum of squares leaves the normal range is scaled by
    a power of two first, as ``coefficients._norms`` does, so that its norm
    is accurate to rounding instead of 0 or inf."""
    if arr.ndim == 1:
        return np.abs(arr)
    if arr.shape[-1] == 1:
        return np.abs(arr[..., 0])
    rows = arr.reshape(-1, arr.shape[-1])
    squares = np.einsum("ij,ij->i", rows, rows)
    off = np.flatnonzero((squares < _TINY) | (squares == np.inf))
    norms = np.sqrt(squares, out=squares)
    if off.size:
        scale = np.where(norms[off] < 1.0, 2.0 ** 600, 2.0 ** -600)
        scaled = rows[off] * scale[:, None]
        norms[off] = np.sqrt(np.einsum("ij,ij->i", scaled, scaled)) / scale
    return norms.reshape(arr.shape[:-1])


@lru_cache(maxsize=128)
def _gap_powers(h, exponent, size):
    """Read-only ``(g*h) ** exponent`` for the gaps g = 1..size, by Python's
    ``**`` (numpy's ``power`` rounds some differently).  Asked for in sizes
    that are powers of two, so one mesh and exponent keeps a few vectors,
    however many scan sizes it serves."""
    powers = np.array([(gap * h) ** exponent for gap in range(1, size + 1)])
    powers.flags.writeable = False
    return powers


@lru_cache(maxsize=64)
def _gap_line(m, h, exponent, rows):
    """Read-only weights of the gaps up to m on mesh h, laid out for blocks
    of at most ``rows`` upper nodes: ``line[rows + m - g] = (g*h) **
    exponent`` for 1 <= g <= m, inf (ratio 0) elsewhere, m + 2 * rows
    floats.  A block's weights are a strided view of it, contiguous along
    its lower nodes.  Cached, as scans of one widest gap recur on every
    window; a miss copies its weights from :func:`_gap_powers`."""
    line = np.full(m + 2 * rows, np.inf)
    size = 1 << (m - 1).bit_length()
    line[rows:rows + m] = _gap_powers(h, exponent, size)[:m][::-1]
    line.flags.writeable = False
    return line


def _ratios(v, j0, j1, k0, k1, w):
    """``ratio[j - j0, k - k0] = |v[j] - v[k]| / w[j - j0, k - k0]`` for the
    upper nodes ``j0 <= j < j1`` and the lower nodes ``k0 <= k < k1`` of the
    nodes (rows) ``v``, with the weights ``w`` of those pairs; with ``(n, K,
    d)`` nodes, ``ratio[j - j0, k - k0, c]`` of column c.  The only place a
    pair ratio is formed.

    Columns are formed column-major: each column's pairs are contiguous,
    ``ratio.transpose(2, 0, 1)`` is C-contiguous, so a max over the pairs
    reads each column in one sweep (node-major, with K the last axis, numpy
    reduces it many times slower), whatever the nodes' layout.  They are
    read fastest in column-major storage, ``v.transpose(1, 0, 2)``
    C-contiguous, which :func:`_pair_max` makes once for all its blocks."""
    if v.ndim > 2:
        cols = v.transpose(1, 0, 2)
        diff = np.subtract(cols[:, j0:j1, None], cols[:, None, k0:k1],
                           out=np.empty((v.shape[1], j1 - j0, k1 - k0,
                                         v.shape[2])))
        ratio = _row_norms(diff)
        del diff
        ratio /= w
        return ratio.transpose(1, 2, 0)
    # in place where it can be, so that a suspended block holds one array of
    # its pairs
    diff = v[j0:j1, None] - v[None, k0:k1]
    ratio = np.abs(diff, out=diff) if v.ndim == 1 else _row_norms(diff)
    del diff
    ratio /= w
    return ratio


def _pair_blocks(v, h, exponent, start=1, max_gap=None):
    """The grid pair scan of the nodes (rows) ``v`` of a path on mesh ``h``,
    in blocks of upper nodes ``j >= start``: yields ``(j0, k0, ratio)`` with
    ``ratio[j - j0, k - k0] = |v[j] - v[k]| / ((j-k)*h)^exponent``, 0 for
    pairs with ``k >= j`` or a gap above ``max_gap`` (default: all), from
    :func:`_ratios`.  A block of upper nodes ``[j0, j1)`` reads the lower
    nodes ``k0 = max(0, j0 - max_gap) <= k < j1 - 1``, so a short
    ``max_gap`` scans a band.  A block holds at most ``_BLOCK_PAIRS`` pairs.
    The weights are Python's ``(g*h) ** exponent`` (numpy's ``power``
    rounds some differently), so the ratios and their maxima are bitwise
    those of a loop over gaps.

    For K paths side by side, ``v`` of shape ``(n, K, d)``, ``ratio[j - j0,
    k - k0, c]`` is bitwise the ratio of the scan of column c alone, in the
    same blocks; each block is column-major (:func:`_ratios`).
    """
    n = v.shape[0]
    m = n - 1 if max_gap is None else min(max_gap, n - 1)
    # no block holds more than isqrt(_BLOCK_PAIRS) + 1 upper nodes
    most = math.isqrt(_BLOCK_PAIRS) + 1
    line = _gap_line(m, h, exponent, most)
    step = line.strides[0]
    j0 = start
    while j0 < n:
        k0 = max(0, j0 - m)
        # largest j1 with (j1 - j0) * (j1 - 1 - k0) <= _BLOCK_PAIRS, one row
        # at least
        a = j0 - 1 - k0
        rows = (math.isqrt(a * a + 4 * _BLOCK_PAIRS) - a) // 2
        j1 = min(n, j0 + max(1, rows))
        # w[j - j0, k - k0] = line[most + m - j + k], a view
        w = np.ndarray((j1 - j0, j1 - 1 - k0), line.dtype, line,
                       (most + m - j0 + k0) * step, (-step, step))
        yield j0, k0, _ratios(v, j0, j1, k0, j1 - 1, w)
        j0 = j1


def _block_boxes(v):
    """Per-coordinate min and max of each block of ``_BAND`` consecutive
    nodes (rows) of ``v``, the last block the remainder."""
    firsts = np.arange(0, v.shape[0], _BAND)
    return (np.minimum.reduceat(v, firsts, axis=0),
            np.maximum.reduceat(v, firsts, axis=0))


def _far_bounds(lo, hi, b0, b1, floors):
    """Bounds on the ratios of the pairs ``(k, j)`` farther apart than
    ``_BAND``, with k in node block a and j in node block b, for the blocks
    ``b0 <= b < b1`` and ``a < b`` of the boxes ``(lo, hi)``: ``bound[b -
    b0, a]`` (per column for K columns; 0 for ``a >= b``).  Such a pair's
    gap is ``i * _BAND + 1`` or wider, ``i = max(1, b - a - 1)``.

    In d = 1 the ratio's distance ``|fl(v[j] - v[k])|`` is at most ``D =
    max(fl(hi_b - lo_a), fl(hi_a - lo_b))``, and its weight at least
    ``floors[i - 1]``, the least weight of a gap ``i * _BAND + 1`` or wider,
    as subtraction and division round monotonically: ``fl(D / floors[i -
    1])`` bounds every computed ratio, with no need for the weights to grow
    with the gap.  In d >= 2 D holds per coordinate, and the computed norm
    of a difference exceeds the exact norm of D by at most the roundings of
    its d squares, d - 1 sums and square root, and D's computed norm falls
    below it by at most as many, a factor ``(1 + u)^(4d + 2)`` with u the
    unit roundoff: ``1 + (4d + 8) u`` covers that and the rounding of the
    product, and ``2^-1072`` the subnormal rounding of a rescaled tiny
    norm."""
    num = np.maximum(hi[b0:b1, None] - lo[None, :b1],
                     hi[None, :b1] - lo[b0:b1, None])
    if num.ndim > 2:
        d = num.shape[-1]
        num = _row_norms(num)
        if d > 1:
            num = num * (1.0 + (4 * d + 8) * _ROUNDOFF) + 2.0 ** -1072
    # a gap past the widest one has no finite weight and no pair to bound
    apart = np.arange(b0, b1)[:, None] - np.arange(b1)
    w = floors[np.maximum(apart - 1, 1) - 1]
    valid = (apart >= 1) & (w < np.inf)
    if num.ndim > 2:
        w, valid = w[..., None], valid[..., None]
    return np.divide(num, w, out=np.zeros(num.shape), where=valid)


def _gap_floors(h, exponent, n, m):
    """The weights of an n-node scan with gaps up to m, the weight of gap g
    at g - 1 and inf past m, n - 1 of them; and the least weight of a gap
    ``i * _BAND + 1`` or wider at i - 1, from O(n / _BAND) block minima:
    the floors of :func:`_far_bounds`."""
    weights = _gap_powers(h, exponent, 1 << (m - 1).bit_length())[:m]
    if m < n - 1:
        weights = np.concatenate((weights, np.full(n - 1 - m, np.inf)))
    floors = np.minimum.reduceat(weights, np.arange(_BAND, n - 1, _BAND))
    return weights, np.minimum.accumulate(floors[::-1])[::-1]


def _far_ratios(v, weights, j0, j1, k0):
    """:func:`_ratios` of the upper nodes ``j0 <= j < j1`` and the
    ``_BAND`` lower nodes from ``k0 < j0 - _BAND``, with the weights
    ``weights[j - k - 1]`` of :func:`_gap_floors`, a view; column-major for
    K columns, read fastest from column-major storage."""
    step = weights.strides[0]
    w = np.ndarray((j1 - j0, _BAND), weights.dtype, weights,
                   (j0 - k0 - 1) * step, (step, -step))
    return _ratios(v, j0, j1, k0, k0 + _BAND, w)


def _pair_max(v, h, exponent, start=1, floor=0.0, max_gap=None):
    """Value of the pair scan over the upper nodes ``j >= start``: max over
    ``k < j``, ``j - k <= max_gap`` (default: any), of ``|v[j] - v[k]| /
    ((j-k)*h)^exponent`` and ``floor``; 0 without pairs.  For K paths side
    by side, ``v`` of shape ``(n, K, d)``, the K values.

    Pruned, exactly: the band of gaps up to ``_BAND`` is read in full
    (:func:`_pair_blocks`), then the pairs of node blocks farther apart, one
    block pair at a time, read only while its bound (:func:`_far_bounds`)
    exceeds the best so far in some column.  A block pair skipped holds no
    ratio above the best, so the value is bitwise the full scan's.  The
    block pairs are read in decreasing bound (per column, the largest) per
    chunk of about ``_BLOCK_PAIRS`` bounds, so no more than a chunk of
    bounds is held at once.  A scan that fits one block of
    :func:`_pair_blocks` is read in full, as bounds cannot save on it.
    K >= 2 columns are put in column-major storage once for the whole scan
    (a copy unless they already are), where every block read forms each
    column's ratios fastest.  One column is scanned as the 2-D nodes it is:
    the same ratios, without the per-block column views, which cost the
    many short scans of a one-column solve a few percent."""
    columns = v.ndim > 2
    if columns and v.shape[1] == 1:
        v = v[:, 0]
    elif columns:
        v = np.ascontiguousarray(v.transpose(1, 0, 2)).transpose(1, 0, 2)
    best = np.full(v.shape[1] if v.ndim > 2 else 1, float(floor))
    n = v.shape[0]
    m = n - 1 if max_gap is None else min(max_gap, n - 1)
    band = m if (n - start) * m <= _BLOCK_PAIRS else min(m, _BAND)
    for _, _, ratio in _pair_blocks(v, h, exponent, start, band):
        np.maximum(best, ratio.max(axis=(0, 1)), out=best)
    if band < m and start < n:
        weights, floors = _gap_floors(h, exponent, n, m)
        lo, hi = _block_boxes(v)
        nb = lo.shape[0]
        rows = max(1, _BLOCK_PAIRS // nb)
        for b0 in range(start // _BAND, nb, rows):
            b1 = min(nb, b0 + rows)
            bound = _far_bounds(lo, hi, b0, b1, floors)
            top = bound if bound.ndim == 2 else bound.max(axis=-1)
            over = bound > best
            picks = np.flatnonzero(over if over.ndim == 2
                                   else over.any(axis=-1))
            for i in picks[np.argsort(-top.ravel()[picks])]:
                b, a = divmod(int(i), b1)
                if not (bound[b, a] > best).any():
                    continue
                j0 = max((b0 + b) * _BAND, start)
                ratio = _far_ratios(v, weights, j0,
                                    min(n, (b0 + b + 1) * _BAND), a * _BAND)
                np.maximum(best, ratio.max(axis=(0, 1)), out=best)
    return best if columns else float(best[0])


def _fold_block(out, sel, ratio, last, first):
    """Raise ``out[sel]`` to the max of the windows' ratios in the 2-D block
    ``ratio`` of a scan: window i holds its rows up to ``last[i]`` and its
    columns from ``first[i]``, clipped to the block.  A window that holds
    the whole block takes its max, one cut only by its last row a running
    max of the row maxima, one cut only by its first column a suffix max of
    the column maxima; the 2-D maxima (in place) are formed only when a
    window cuts both."""
    rows = ratio.shape[0]
    last = np.minimum(last, rows - 1)
    first = np.maximum(first, 0)
    if ((last < rows - 1) & (first > 0)).any():
        # the suffix max by lower node, then the running max down the upper
        # nodes by doubling, in log2(rows) passes (an accumulate along this
        # short axis loops once per column)
        flip = ratio[:, ::-1]
        np.maximum.accumulate(flip, axis=1, out=flip)
        step = 1
        while step < rows:
            ratio[step:] = np.maximum(ratio[step:], ratio[:-step])
            step *= 2
        got = ratio[last, first]
    else:
        cols = np.maximum.accumulate(ratio.max(axis=0)[::-1])[::-1]
        got = np.where(last == rows - 1, cols[first],
                       np.maximum.accumulate(ratio.max(axis=1))[last])
    out[sel] = np.maximum(out[sel], got)


def _window_cells(lo, hi):
    """The windows ``(lo, hi)`` grouped in cells by the ``_BAND``-node
    blocks of their last and first nodes, the cells sorted by last block,
    then first: the windows in cell order, where each cell starts in that
    order (and, last, where the final cell ends), and each cell's last and
    first block."""
    last, head = hi // _BAND, lo // _BAND
    by_cell = np.lexsort((head, last))
    last, head = last[by_cell], head[by_cell]
    cuts = np.flatnonzero((np.diff(last, prepend=-1) != 0)
                          | (np.diff(head, prepend=-1) != 0))
    return by_cell, np.append(cuts, by_cell.size), last[cuts], head[cuts]


def _window_pair_max(v, h, exponent, windows):
    """``_pair_max(v[i:j+1], h, exponent)`` for each window ``(i, j)``,
    ``i < j``, of the ``(N, 2)`` node indices ``windows`` of the nodes
    (rows) ``v``, from one pass over the nodes of the windows.

    Pruned, exactly, as :func:`_pair_max`: the band of gaps up to ``_BAND``
    (:func:`_pair_blocks`), then the pairs of ``_BAND``-node blocks farther
    apart but within the widest window, one block pair at a time, in
    decreasing bound (:func:`_far_bounds`) per chunk of about ``8 *
    _BLOCK_PAIRS`` bounds.  A block pair is read only while its bound
    exceeds the least value of the windows that meet it, those that start
    before its lower block ends and end at or after its upper block starts:
    a block pair skipped holds no ratio above any of their values.  For
    that least value, the windows are grouped in cells by the blocks of
    their first and last nodes.  Each block read raises the windows that
    meet it (:func:`_fold_block`), found among the windows sorted by last
    node, or by cell.  A scan of fewer than ``_PRUNE_BLOCK_PAIRS`` far
    block pairs is read in full, banded at the widest window: a wider pair
    lies in no window.  The same ratios as :func:`_pair_max`, so bitwise
    its maxima."""
    lo, hi = np.asarray(windows, dtype=np.intp).reshape(-1, 2).T
    out = np.zeros(lo.shape[0])
    if not out.size:
        return out
    first = int(lo.min())
    v, lo, hi = v[first:int(hi.max()) + 1], lo - first, hi - first
    n, width = v.shape[0], int((hi - lo).max())
    # the far block pairs (a, b): 1 <= b - a <= span, b < nb
    nb, span = -(-n // _BAND), -(-width // _BAND)
    near = min(span, nb - 1)
    far = near * (nb - 1) - near * (near - 1) // 2
    band = width if far < _PRUNE_BLOCK_PAIRS else min(width, _BAND)
    order = np.argsort(hi, kind="stable")
    ends = hi[order]
    for j0, k0, ratio in _pair_blocks(v, h, exponent, max_gap=band):
        # a window meeting the block ends at j0 or later and starts before
        # its last lower node, so it ends before k0 + cols + width
        cols = ratio.shape[1]
        sel = order[slice(*np.searchsorted(ends, (j0, k0 + cols + width)))]
        sel = sel[lo[sel] < k0 + cols]
        _fold_block(out, sel, ratio, hi[sel] - j0, lo[sel] - k0)
        # freed before the next block is formed, which would otherwise
        # hold three blocks at once and raise the peak memory
        del ratio
    if band == width:
        return out
    # freed, so that the far part's arrays do not add to the band's peak
    del order, ends
    weights, floors = _gap_floors(h, exponent, n, width)
    lo_box, hi_box = _block_boxes(v)
    by_cell, cuts, cell_last, cell_head = _window_cells(lo, hi)
    row = np.searchsorted(cell_last, np.arange(nb + 1)).tolist()
    least = np.minimum.reduceat(out[by_cell], cuts[:-1])
    # upper blocks per chunk of bounds, rows * (rows + span) <= 8 *
    # _BLOCK_PAIRS (1 MiB): the fewer the chunks, the fewer block pairs are
    # read (the segment windows of the 2^14 sin_fbm solution read 1360 in
    # one chunk, 2057 in four)
    rows = max(1, (math.isqrt(span * span + 32 * _BLOCK_PAIRS) - span) // 2)
    for b0 in range(1, nb, rows):
        b1 = min(nb, b0 + rows)
        a0 = max(0, b0 - span)
        bound = _far_bounds(lo_box[a0:b1], hi_box[a0:b1], b0 - a0, b1 - a0,
                            floors).ravel()
        picks = np.flatnonzero(bound > least.min())
        picks = picks[np.argsort(-bound[picks])]
        tops = bound[picks]
        falls = -tops
        upper, lower = np.divmod(picks, b1 - a0)
        upper += b0
        lower += a0
        i = k = 0
        while i < picks.size:
            if i == k:
                # the cells below the next bound stay so until the bound
                # falls to the largest of them, at k, or a block is read;
                # reach[b] is the least first block of those ending in
                # block b or later, and (a, b) meets one iff reach[b] <= a
                live = least < tops[i]
                if not live.any():
                    break
                k = int(np.searchsorted(falls, -least[live].max()))
                ends_in, starts_in = cell_last[live], cell_head[live]
                lead = np.diff(ends_in, prepend=-1) != 0
                reach = np.full(nb + 1, nb)
                reach[ends_in[lead]] = starts_in[lead]
                reach = np.minimum.accumulate(reach[::-1])[::-1]
            need = np.flatnonzero(reach[upper[i:k]] <= lower[i:k])
            if not need.size:
                i = k
                continue
            i += int(need[0])
            b, a = int(upper[i]), int(lower[i])
            i = k = i + 1
            j0, k0 = b * _BAND, a * _BAND
            # the cells that can meet block pair (a, b): ending in block b
            # or later, and no later than a window starting in block a can
            c0 = row[b]
            c1 = row[min(nb, (k0 + _BAND - 1 + width) // _BAND + 1)]
            held = by_cell[cuts[c0]:cuts[c1]]
            sel = held[lo[held] < k0 + _BAND]
            _fold_block(out, sel, _far_ratios(v, weights, j0,
                                              min(n, j0 + _BAND), k0),
                        hi[sel] - j0, lo[sel] - k0)
            least[c0:c1] = np.minimum.reduceat(out[held],
                                               cuts[c0:c1] - cuts[c0])
    return out


def _sliding_max(x, size):
    """Maxima of the ``len(x) - size + 1`` windows of ``size`` consecutive
    entries of the 1-D array ``x``, O(1) per window (van Herk 1992; Gil and
    Werman 1993): within blocks of ``size`` entries, the max of a window is
    the larger of a block suffix max and the next block's prefix max."""
    n = x.shape[0]
    nb = -(-n // size)
    blocks = np.full(nb * size, -np.inf)
    blocks[:n] = x
    blocks = blocks.reshape(nb, size)
    prefix = np.maximum.accumulate(blocks, axis=1).ravel()
    suffix = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(suffix[:n - size + 1], prefix[size - 1:n])


def random_windows(seed, lo, hi, cells, count):
    """``count`` random node windows ``(i, j)`` with ``lo <= i`` and ``i +
    cells <= j <= hi``: i uniform, then j uniform given i, drawn in turn
    from the Philox stream of ``seed``."""
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    windows = []
    for _ in range(count):
        i = int(rng.integers(lo, hi - cells + 1))
        windows.append((i, int(rng.integers(i + cells, hi + 1))))
    return windows


def sup_norm(path, window=None):
    """Max Euclidean node norm over the window."""
    ia, ib = path.window_indices(window)
    return float(_row_norms(path.values[ia:ib + 1]).max())


def _check_holder_exponent(beta):
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"Holder exponent must lie in (0, 1], got {beta!r}")


def _delay_window(path, r, window, what):
    """Node indices ``(m_r, ja, jb)`` of the delay r and of the window of
    segment times (default: every t with t - r inside the path)."""
    mr = _delay_cells(r, path.mesh)
    if window is None:
        ja, jb = mr, path.n_intervals
    else:
        ja = path.index_of(window[0], "window start")
        jb = path.index_of(window[1], "window end")
    if ja < mr:
        raise DomainError(f"{what} window starts before t0 + r")
    if jb < ja:
        raise DomainError(f"{what} window ends before it starts")
    return mr, ja, jb


def holder_seminorm(path, beta, window=None):
    """Grid beta-Holder seminorm: max over node pairs of |x(t)-x(s)| / (t-s)^beta.

    A float, from the pruned pair scan (:func:`_pair_max`), bitwise the full
    O(n^2) one.
    """
    _check_holder_exponent(beta)
    ia, ib = path.window_indices(window)
    return _pair_max(path.values[ia:ib + 1], path.mesh, beta)


def holder_norm(path, beta, window=None):
    """Full Holder norm: sup norm plus beta-seminorm over the window."""
    return sup_norm(path, window) + holder_seminorm(path, beta, window)


def pvar_seminorm(path, p, window=None):
    """Grid p-variation: exact supremum over node partitions, by dynamic programming.

    Returns the p-th root of the optimal sum, a float.
    """
    if not 1.0 <= p < math.inf:
        raise DomainError(f"p-variation needs 1 <= p < inf, got {p!r}")
    ia, ib = path.window_indices(window)
    v = path.values[ia:ib + 1]
    m = ib - ia
    best = np.zeros(m + 1)
    for j in range(1, m + 1):
        best[j] = (best[:j] + _row_norms(v[:j] - v[j]) ** p).max()
    return float(best[m] ** (1.0 / p))


def segment(path, t, r):
    """The slice ``x_t`` on ``[-r, 0]``: segment(path, t, r)(u) = path(t + u)."""
    it = path.index_of(t, "segment time")
    mr = _delay_cells(r, path.mesh)
    if it - mr < 0:
        raise DomainError("segment precedes history: t - r is before path start")
    return Segment(r, path.mesh, path.values[it - mr:it + 1])


def segment_path_holder(path, beta, r, window):
    """Holder seminorm of the segment-valued map t -> x_t on the window.

    Computes max over node pairs s < t in [a, b] of
    ``sup_u |x(t+u) - x(s+u)| / (t-s)^beta`` with u on the grid of [-r, 0].
    For a gap g the segment pairs jointly cover the node pairs (k, k+g) with
    k in [a-r, b-g], so this is the pair scan of [a-r, b] with gaps up to
    b-a (:func:`_pair_max`), a float.
    """
    _check_holder_exponent(beta)
    ia, ib = path.window_indices(window)
    mr = _delay_cells(r, path.mesh)
    if ia - mr < 0:
        raise DomainError("segment precedes history: window start - r is before path start")
    return _pair_max(path.values[ia - mr:ib + 1], path.mesh, beta,
                     max_gap=ib - ia)


def segment_norm(seg, beta):
    """Full norm of a segment: sup over [-r, 0] plus beta-seminorm."""
    _check_holder_exponent(beta)
    return (float(_row_norms(seg.values).max())
            + _pair_max(seg.values, seg.mesh, beta))


def _segment_norm_parts(v, h, beta, mr):
    """The two parts of the segment norm of the path with nodes (rows) ``v``
    on mesh ``h``, at every node j >= mr (index j - mr): the max node norm
    ``sups`` and the beta pair scan ``scans`` of the history ``v[j - mr :
    j + 1]``, bitwise ``_row_norms(hist).max()`` and :func:`_pair_max`.
    The sups are one O(1)-per-node sliding max (:func:`_sliding_max`), the
    scans the histories' windows read from one pruned pass
    (:func:`_window_pair_max`), at most O(n * mr) instead of a pair scan
    per node."""
    sups = _sliding_max(_row_norms(v), mr + 1)
    ends = np.arange(mr, v.shape[0])
    return sups, _window_pair_max(v, h, beta, np.stack((ends - mr, ends), 1))


def segment_norm_profile(path, beta, r, window=None):
    """Per-node segment norms ``t -> |x_t| (sup + beta-seminorm on [-r,0])``.

    Returns ``(times, norms)`` for every grid node t in the window (default:
    all t with t - r inside the path), from :func:`_segment_norm_parts`.
    """
    _check_holder_exponent(beta)
    mr, ja, jb = _delay_window(path, r, window, "profile")
    sups, scans = _segment_norm_parts(path.values, path.mesh, beta, mr)
    sel = slice(ja - mr, jb - mr + 1)
    return path.times[ja:jb + 1], sups[sel] + scans[sel]


def counterexample_growth(beta, p, n):
    """Partition sum showing segment maps lose bounded p-variation.

    For x(t) = |t|^beta on [-1, 1] and the uniform n-partition of [0, 1],
    computes ``(sum_i sup-norm(x_{(i+1)/n} - x_{i/n})^p)^(1/p)`` with segment
    sup-norms over the mesh-1/n grid of [-1, 0].  Grows like
    ``n^((1 - beta*p)/p)``, hence is unbounded in n when beta*p < 1.
    """
    _check_holder_exponent(beta)
    if not p >= 1.0:
        raise DomainError(f"p must be >= 1, got {p!r}")
    if beta * p >= 1.0:
        raise DomainError(f"counterexample needs beta*p < 1, got {beta * p!r}")
    n = int(n)
    if n < 1:
        raise DomainError("n must be a positive integer")
    _check_grid_size(2 * n, "counterexample")
    t = np.abs(-1.0 + np.arange(2 * n + 1) / n) ** beta
    inc = np.abs(np.diff(t))
    # consecutive segments differ by a one-cell shift; sup over u-window [i, i+n]
    terms = _sliding_max(inc, n + 1)
    return float(np.sum(terms ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Serialization: CSV rows (t, x_1..x_d).

def _fmt(x):
    return f"{float(x):.17g}"


def write_csv(path, fileobj):
    """Write ``t, x_1..x_d`` rows, floats at 17 significant digits."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["t"] + [f"x_{i + 1}" for i in range(path.dim)])
    for k, t in enumerate(path.times):
        writer.writerow([_fmt(t)] + [_fmt(x) for x in path.values[k]])

