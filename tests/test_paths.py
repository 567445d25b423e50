import csv
import io
import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import (banded_window_pair_max, full_pair_max,
                      pvar_seminorm_exhaustive, random_path, rng)
from ydde import paths as paths_module
from ydde.coefficients import (composition_holder, composition_holder_diff,
                               composition_path, make_builtin)
from ydde.errors import DomainError
from ydde.paths import (GridPath, Segment, _gap_line, _pair_blocks,
                        _pair_max, _row_norms, _segment_norm_parts,
                        _sliding_max,
                        _window_pair_max, counterexample_growth,
                        holder_norm, holder_seminorm, pvar_seminorm,
                        random_windows, segment, segment_norm,
                        segment_norm_profile, segment_path_holder, sup_norm,
                        write_csv)


def brute_holder(path, beta, window=None):
    """O(n^2) double-loop oracle for the grid Holder seminorm."""
    ia, ib = path.window_indices(window)
    v, h = path.values, path.mesh
    best = 0.0
    for i in range(ia, ib + 1):
        for j in range(i + 1, ib + 1):
            best = max(best, float(np.linalg.norm(v[j] - v[i]))
                       / ((j - i) * h) ** beta)
    return best


def brute_segment_holder(path, beta, r, window):
    """Double-scan oracle for the segment-path Holder seminorm."""
    ia, ib = path.window_indices(window)
    mr = round(r / path.mesh)
    v, h = path.values, path.mesh
    best = 0.0
    for i in range(ia, ib + 1):
        for j in range(i + 1, ib + 1):
            gap = float(np.max(np.linalg.norm(
                v[j - mr:j + 1] - v[i - mr:i + 1], axis=1)))
            best = max(best, gap / ((j - i) * h) ** beta)
    return best


def brute_pair_scan(v, h, exponent, max_gap=None, start=1):
    """Double loop over all node pairs with upper node k + g >= start: the
    max of |v[k+g] - v[k]| / (g h)^exponent."""
    n = v.shape[0]
    m = n - 1 if max_gap is None else max_gap
    best = -1.0
    for g in range(1, m + 1):
        for k in range(max(0, start - g), n - g):
            dist = float(np.linalg.norm(np.atleast_1d(v[k + g] - v[k])))
            best = max(best, dist / (g * h) ** exponent)
    return best


def gap_loop_pair_scan(v, h, exponent, max_gap=None, start=1):
    """The former pair scan, one vectorised max per gap, kept as an oracle;
    extended only by ``start``, the lowest upper node of a pair."""
    m = v.shape[0] - 1 if max_gap is None else max_gap
    best = -1.0
    for g in range(1, m + 1):
        lo = max(0, start - g)
        val = _row_norms(v[lo + g:] - v[lo:-g]).max() / (g * h) ** exponent
        best = max(best, val)
    return float(best)


def sliding_segment_holder(path, beta, r, window):
    """Per-gap sliding-window maxima over segment pairs (j, j+g): the former
    definition of segment_path_holder, kept as its oracle."""
    ia, ib = path.window_indices(window)
    mr = round(r / path.mesh)
    v, h = path.values, path.mesh
    best = -1.0
    for g in range(1, ib - ia + 1):
        lo, hi = ia - mr, ib - g
        inc = v[lo + g:hi + g + 1] - v[lo:hi + 1]
        seg_sup = sliding_window_view(_row_norms(inc), mr + 1).max(axis=1)
        best = max(best, seg_sup.max() / (g * h) ** beta)
    return float(best)


def sliding_norm_profile(path, beta, r):
    """Per-gap sliding-window maxima by ``sliding_window_view``: the former
    definition of segment_norm_profile over all nodes, kept as its oracle."""
    mr = round(r / path.mesh)
    n = path.n_intervals
    v, h = path.values, path.mesh
    node_norms = _row_norms(v)
    sup_part = sliding_window_view(node_norms, mr + 1).max(axis=1)
    semi = np.zeros(n + 1 - mr)
    for g in range(1, mr + 1):
        inc = v[g:] - v[:-g]
        diff = _row_norms(inc) / (g * h) ** beta
        semi = np.maximum(semi, sliding_window_view(diff, mr + 1 - g).max(axis=1))
    return path.t0 + h * np.arange(mr, n + 1), sup_part + semi


MESHES = (1.0 / 64, 0.125, 0.3, 1.0)
EXPONENTS = (0.3, 0.5, 0.55, 0.75, 1.0)


@st.composite
def node_arrays(draw, min_nodes=2, max_nodes=12, elems=st.integers(-3, 3)):
    """(n, d) node arrays, d in {1, 2, 3}; a d = 1 array may come flat, as
    the scalar driver does.  The default small integers make ties common and
    keep every distance exact, so an oracle may take norms its own way."""
    n = draw(st.integers(min_nodes, max_nodes))
    d = draw(st.sampled_from((1, 2, 3)))
    v = np.asarray(draw(st.lists(elems, min_size=n * d, max_size=n * d)),
                   dtype=float).reshape(n, d)
    return v[:, 0] if d == 1 and draw(st.booleans()) else v


class TestPairScan:
    @settings(max_examples=300)
    @given(v=node_arrays(), h=st.sampled_from(MESHES),
           exponent=st.sampled_from(EXPONENTS), data=st.data())
    def test_matches_double_loop(self, v, h, exponent, data):
        max_gap = data.draw(st.none() | st.integers(1, v.shape[0] - 1))
        start = data.draw(st.integers(1, v.shape[0] - 1))
        # small blocks make ties across blocks
        block_pairs = data.draw(st.sampled_from((1, 5, 30, 1 << 14)))
        with mock.patch("ydde.paths._BLOCK_PAIRS", block_pairs):
            value = _pair_max(v, h, exponent, max_gap=max_gap)
            tail = _pair_max(v, h, exponent, start)
        assert value == brute_pair_scan(v, h, exponent, max_gap)
        assert tail == brute_pair_scan(v, h, exponent, start=start)

    def test_weights_are_python_pow(self):
        # on a ramp the distance is the gap, so each ratio shows its weight;
        # numpy's power differs from Python's ** on some of these gaps
        v = np.arange(150.0)
        for h in MESHES:
            for exponent in EXPONENTS:
                for j0, _, ratio in _pair_blocks(v, h, exponent):
                    for j, row in enumerate(ratio.tolist(), j0):
                        want = [(j - k) / ((j - k) * h) ** exponent
                                for k in range(j)]
                        assert row == want + [0.0] * (len(row) - j)

    def test_gap_weights_cached_read_only(self):
        line = _gap_line(5, 0.125, 0.55, 3)
        assert line is _gap_line(5, 0.125, 0.55, 3)
        assert not line.flags.writeable
        with pytest.raises(ValueError):
            line[3] = 1.0
        # the cache holds a bounded number of lines
        assert _gap_line.cache_info().maxsize is not None

    @settings(max_examples=200)
    @given(m=st.integers(0, 80), rows=st.integers(1, 130),
           h=st.sampled_from(MESHES), exponent=st.sampled_from(EXPONENTS))
    def test_gap_weights_are_python_powers(self, m, rows, h, exponent):
        # a miss copies its weights from the shared power-of-two vectors
        line = _gap_line(m, h, exponent, rows).tolist()
        assert line == [((rows + m - i) * h) ** exponent
                        if 1 <= rows + m - i <= m else math.inf
                        for i in range(m + 2 * rows)]

    @pytest.mark.parametrize("block_pairs", [1, 30, 1 << 14])
    def test_weight_lines_hold_the_widest_gap(self, monkeypatch, block_pairs):
        # a scan of 3000 nodes banded at 64 gaps keeps 64 + 2P weights, P
        # the most upper nodes of a block, however long the path
        lines = []

        def spy(m, h, exponent, rows):
            lines.append((m, rows, _gap_line(m, h, exponent, rows)))
            return lines[-1][2]

        v = random_path(7, n=2999, mesh=1 / 2999, dim=2).values
        wins = [(0, 9), (900, 940)]
        want = [full_pair_max(v, 1 / 2999, 0.55, max_gap=64)] + [
            full_pair_max(v[i:j + 1], 1 / 2999, 0.55) for i, j in wins]
        monkeypatch.setattr("ydde.paths._BLOCK_PAIRS", block_pairs)
        monkeypatch.setattr("ydde.paths._gap_line", spy)
        got = [_pair_max(v, 1 / 2999, 0.55, max_gap=64)] + list(
            _window_pair_max(v, 1 / 2999, 0.55, wins))
        assert hexes(got) == hexes(want)
        assert {(m, rows) for m, rows, _ in lines} \
            == {(64, math.isqrt(block_pairs) + 1),
                (40, math.isqrt(block_pairs) + 1)}
        for m, rows, line in lines:
            assert line.base is None and line.size == m + 2 * rows

    @settings(max_examples=500)
    @given(v=node_arrays(max_nodes=30, elems=st.floats(
               -8.0, 8.0, allow_nan=False, allow_infinity=False)),
           h=st.sampled_from(MESHES), exponent=st.sampled_from(EXPONENTS),
           data=st.data())
    def test_matches_gap_loop_bitwise(self, v, h, exponent, data):
        max_gap = data.draw(st.none() | st.integers(1, v.shape[0] - 1))
        start = data.draw(st.integers(1, v.shape[0] - 1))
        got = _pair_max(v, h, exponent, max_gap=max_gap)
        assert got == gap_loop_pair_scan(v, h, exponent, max_gap)
        assert _pair_max(v, h, exponent, start) \
            == gap_loop_pair_scan(v, h, exponent, start=start)

    @settings(max_examples=300)
    @given(v=node_arrays(min_nodes=3, max_nodes=20, elems=st.integers(-3, 3)
                         | st.floats(-8.0, 8.0, allow_nan=False,
                                     allow_infinity=False)),
           h=st.sampled_from(MESHES), beta=st.sampled_from(EXPONENTS),
           data=st.data())
    def test_segment_path_holder_matches_sliding_window(self, v, h, beta, data):
        n = v.shape[0] - 1
        mr = data.draw(st.integers(1, n - 1))
        ia = data.draw(st.integers(mr, n - 1))
        ib = data.draw(st.integers(ia + 1, n))
        path = GridPath(-mr * h, h, v)
        window = (path.t0 + ia * h, path.t0 + ib * h)
        assert segment_path_holder(path, beta, mr * h, window) == \
            sliding_segment_holder(path, beta, mr * h, window)


# Small integers (exact distances, many ties) or floats with rounding; adding
# 0.0 turns -0.0 into 0.0 so that equal maxima are also equal bytes.
MIXED = st.integers(-3, 3) | st.floats(-8.0, 8.0, allow_nan=False,
                                       allow_infinity=False).map(lambda x: x + 0.0)


class TestTailScan:
    @settings(max_examples=300)
    @given(v=node_arrays(max_nodes=20, elems=MIXED), h=st.sampled_from(MESHES),
           exponent=st.sampled_from(EXPONENTS))
    def test_splits_pair_scan_bitwise(self, v, h, exponent):
        # the pairs below and from node ``start`` split the scan
        full = _pair_max(v, h, exponent)
        for start in range(1, v.shape[0] + 1):
            # start = 1 leaves no pair below it, start = len(v) none from it
            head = _pair_max(v[:start], h, exponent)
            assert max(head, _pair_max(v, h, exponent, start)) == full

    @pytest.mark.parametrize("block_pairs", [1, 500, 4000])
    def test_blocks_of_upper_nodes(self, monkeypatch, block_pairs):
        v = random_path(5, n=120, mesh=1 / 120, dim=2).values
        want = {start: _pair_max(v, 1 / 120, 0.55, start)
                for start in (1, 2, 60, 113, 120)}
        monkeypatch.setattr("ydde.paths._BLOCK_PAIRS", block_pairs)
        full = _pair_max(v, 1 / 120, 0.55)
        for start, scan in want.items():
            assert max(_pair_max(v[:start], 1 / 120, 0.55),
                       _pair_max(v, 1 / 120, 0.55, start)) == full
            assert _pair_max(v, 1 / 120, 0.55, start) == scan


class TestColumnScans:
    """K paths side by side, nodes of shape (K, d): every column's ratios,
    row norms and pair maxima are bitwise those of the column alone."""

    @settings(max_examples=300)
    @given(n=st.integers(2, 40), k=st.integers(1, 8),
           d=st.sampled_from((1, 2, 3)), seed=st.integers(0, 2 ** 32 - 1),
           h=st.sampled_from(MESHES), exponent=st.sampled_from(EXPONENTS),
           block_pairs=st.sampled_from((1, 7, 1 << 14)), data=st.data())
    def test_match_each_column_alone(self, n, k, d, seed, h, exponent,
                                     block_pairs, data):
        g = rng(seed)
        v = g.normal(size=(n, k, d)) * g.uniform(0.01, 100.0, size=(1, k, 1))
        start = data.draw(st.integers(1, n - 1))
        columns = [np.ascontiguousarray(v[:, c]) for c in range(k)]
        with mock.patch("ydde.paths._BLOCK_PAIRS", block_pairs):
            maxima = _pair_max(v, h, exponent, start)
            blocks = list(_pair_blocks(v, h, exponent, start))
            for c, col in enumerate(columns):
                assert maxima[c].hex() == _pair_max(col, h, exponent,
                                                    start).hex()
                alone = list(_pair_blocks(col, h, exponent, start))
                assert ([j0 for j0, _, _ in blocks]
                        == [j0 for j0, _, _ in alone])
                for (_, _, ratio), (_, _, want) in zip(blocks, alone):
                    assert ratio[:, :, c].tobytes() == want.tobytes()
        norms = _row_norms(v)
        for c, col in enumerate(columns):
            assert norms[:, c].tobytes() == _row_norms(col).tobytes()


class TestColumnMajorScans:
    """K columns are formed column-major, and a scan of columns that
    share a history prefix, as the ball check reads a window's iterates, is
    bitwise each column's own scan."""

    @settings(max_examples=100)
    @given(n=st.integers(2, 40), k=st.integers(1, 5),
           d=st.sampled_from((1, 2, 3)), seed=st.integers(0, 2 ** 32 - 1),
           column_major=st.booleans(),
           block_pairs=st.sampled_from((1, 7, 1 << 14)), data=st.data())
    def test_k_column_blocks_are_column_major(self, n, k, d, seed,
                                              column_major, block_pairs,
                                              data):
        v = rng(seed).normal(size=(n, k, d))
        if column_major:
            v = np.ascontiguousarray(v.transpose(1, 0, 2)).transpose(1, 0, 2)
        start = data.draw(st.integers(1, n - 1))
        with mock.patch("ydde.paths._BLOCK_PAIRS", block_pairs):
            for _, _, ratio in _pair_blocks(v, 0.3, 0.55, start):
                assert ratio.transpose(2, 0, 1).flags.c_contiguous

    @settings(max_examples=400)
    @given(m=st.integers(0, 40), w=st.integers(1, 20), k=st.integers(1, 5),
           d=st.sampled_from((1, 2, 3)), seed=st.integers(0, 2 ** 32 - 1),
           h=st.sampled_from(MESHES), exponent=st.sampled_from(EXPONENTS),
           node_major=st.booleans(),
           band=st.sampled_from((1, 2, 3, 5, 64)),
           block_pairs=st.sampled_from((1, 6, 40, 1 << 14)), data=st.data())
    def test_shared_history_matches_each_column_alone(
            self, m, w, k, d, seed, h, exponent, node_major, band,
            block_pairs, data):
        g = rng(seed)
        hist = np.cumsum(g.normal(size=(m + 1, d)), axis=0)
        # tails that differ from a common one by up to a few units, or not
        # at all, as successive iterates do
        tail = hist[-1] + np.cumsum(g.normal(size=(w, d)), axis=0)
        spread = g.choice([0.0, 1e-9, 0.1, 3.0], size=(k, 1, 1))
        tails = tail + spread * g.normal(size=(k, w, d))
        if node_major:
            # node-major input, which _pair_max puts in column-major storage
            shared = np.broadcast_to(hist[:, None], (m + 1, k, d))
            v = np.concatenate((shared, tails.transpose(1, 0, 2)))
        else:
            # column-major input, as the ball check builds it: the history
            # copied once per column
            cols = np.empty((k, m + 1 + w, d))
            cols[:, :m + 1] = hist
            cols[:, m + 1:] = tails
            v = cols.transpose(1, 0, 2)
        n = m + 1 + w
        start = data.draw(st.sampled_from((m + 1, 1, n - 1))
                          | st.integers(1, n))
        floor = data.draw(st.sampled_from(
            (0.0, 0.5, full_pair_max(hist, h, exponent))))
        with mock.patch("ydde.paths._BAND", band), \
                mock.patch("ydde.paths._BLOCK_PAIRS", block_pairs):
            got = _pair_max(v, h, exponent, start, floor)
            alone = [_pair_max(np.concatenate((hist, tails[c])), h, exponent,
                               start, floor) for c in range(k)]
        assert hexes(got) == hexes(alone)
        want = [np.maximum(full_pair_max(np.concatenate((hist, tails[c])), h,
                                         exponent, start), floor)
                for c in range(k)]
        assert hexes(got) == hexes(want)


class TestBandedBlocks:
    @settings(max_examples=300)
    @given(v=node_arrays(max_nodes=30, elems=MIXED), h=st.sampled_from(MESHES),
           exponent=st.sampled_from(EXPONENTS),
           block_pairs=st.sampled_from((1, 7, 1 << 14)), data=st.data())
    def test_reads_only_the_band(self, v, h, exponent, block_pairs, data):
        n = v.shape[0]
        m = data.draw(st.integers(1, n - 1))
        start = data.draw(st.integers(1, n - 1))
        # the unbanded scan: one block of every upper node and every column
        (j0, k0, full), = _pair_blocks(v, h, exponent, max_gap=m)
        assert (j0, k0, full.shape[:2]) == (1, 0, (n - 1, n - 1))
        # nodes below j0 - m are NaN when a block reads them: NaN would
        # reach its ratios
        poisoned = np.array(v)
        poisoned[:max(0, start - m)] = np.nan
        seen = start
        with mock.patch("ydde.paths._BLOCK_PAIRS", block_pairs):
            for j0, k0, ratio in _pair_blocks(poisoned, h, exponent, start,
                                              m):
                rows, cols = ratio.shape[:2]
                assert (j0, k0, k0 + cols) == (seen, max(0, j0 - m),
                                               j0 + rows - 1)
                assert rows == 1 or rows * cols <= block_pairs
                # the band's ratios are the unbanded block's columns; those
                # left of it hold only gaps above m, those right of it only
                # pairs k >= j, and both read 0
                band = full[j0 - 1:j0 - 1 + rows]
                assert ratio.tobytes() == band[:, k0:k0 + cols].tobytes()
                assert not band[:, :k0].any() and not band[:, k0 + cols:].any()
                seen = j0 + rows
                poisoned[:max(0, seen - m)] = np.nan
        assert seen == n


# Node values near the ends of the range where a square neither underflows
# nor overflows, 2^-511 <= |x| <= 2^511.
EDGES = (2.0 ** -540, 2.0 ** -511, 2.0 ** -500, 2.0 ** 505, 2.0 ** 511,
         2.0 ** 520)


@st.composite
def adversarial_nodes(draw, columns=True, max_nodes=48):
    """Node arrays that make the pruning bounds tight or tie: shape ``(n,)``,
    ``(n, d)`` or, with ``columns``, ``(n, K, d)``, d in {1, 2, 3}; a random
    walk, a ramp, constant runs, a pattern that repeats across blocks, one
    spike or alternating signs, scaled near the under/overflow range or
    not."""
    n = draw(st.integers(2, max_nodes))
    shapes = [(n,), (n, draw(st.sampled_from((1, 2, 3))))]
    if columns:
        shapes.append((n, draw(st.integers(1, 4)),
                       draw(st.sampled_from((1, 2, 3)))))
    shape = draw(st.sampled_from(shapes))
    g = rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("walk", "ramp", "runs", "repeat", "spike",
                                 "alternate")))
    k = np.arange(n, dtype=float).reshape((n,) + (1,) * (len(shape) - 1))
    if kind == "walk":
        v = np.cumsum(g.normal(size=shape), axis=0)
    elif kind == "ramp":
        v = k * g.uniform(-2.0, 2.0, size=shape[1:]) + g.normal(
            size=shape) * draw(st.sampled_from((0.0, 1e-12, 0.1)))
    elif kind == "runs":
        v = np.repeat(g.integers(-2, 3, size=(-(-n // 5),) + shape[1:]),
                      5, axis=0)[:n].astype(float)
    elif kind == "repeat":
        v = (k % draw(st.integers(1, 9))) * np.ones(shape)
    elif kind == "spike":
        v = np.zeros(shape)
        v[draw(st.integers(0, n - 1))] = draw(st.sampled_from((1.0, -3.0)))
    else:
        v = (-1.0) ** k * np.ones(shape) + k * draw(st.sampled_from((0, 0.25)))
    return v * draw(st.sampled_from((1.0,) + EDGES)) + 0.0


def hexes(x):
    return [float(y).hex() for y in np.atleast_1d(x)]


class TestPrunedScans:
    """The pruned reader _pair_max is float.hex-equal to the full scan of
    _pair_blocks.  A narrow band and small blocks make
    short paths take every branch: far block pairs and several chunks of
    bounds."""

    @settings(max_examples=600)
    @given(v=adversarial_nodes(), h=st.sampled_from(MESHES),
           exponent=st.sampled_from(EXPONENTS),
           band=st.sampled_from((1, 2, 3, 5, 64)),
           block_pairs=st.sampled_from((1, 6, 40, 1 << 14)), data=st.data())
    def test_pair_max_matches_full_scan(self, v, h, exponent, band,
                                        block_pairs, data):
        # gaps past max_gap weigh inf, in the band and in the floors
        start = data.draw(st.integers(1, v.shape[0]))
        floor = data.draw(st.sampled_from((0.0, 0.5)))
        max_gap = data.draw(st.none() | st.integers(1, v.shape[0] - 1))
        want = np.maximum(full_pair_max(v, h, exponent, start, max_gap),
                          floor)
        with mock.patch("ydde.paths._BAND", band), \
                mock.patch("ydde.paths._BLOCK_PAIRS", block_pairs):
            got = _pair_max(v, h, exponent, start, floor, max_gap)
        assert hexes(got) == hexes(want)

    @settings(max_examples=600)
    @given(v=adversarial_nodes(columns=False), h=st.sampled_from(MESHES),
           exponent=st.sampled_from(EXPONENTS),
           band=st.sampled_from((1, 2, 3, 5, 64)),
           block_pairs=st.sampled_from((1, 6, 40, 1 << 14)))
    def test_pair_scan_matches_full_scan(self, v, h, exponent, band,
                                         block_pairs):
        # the whole-path value, as holder_seminorm reads it
        path = GridPath(0.0, h, v)
        with mock.patch("ydde.paths._BAND", band), \
                mock.patch("ydde.paths._BLOCK_PAIRS", block_pairs):
            got = holder_seminorm(path, exponent)
        assert got.hex() == full_pair_max(path.values, h, exponent).hex()

    @settings(max_examples=300)
    @given(v=adversarial_nodes(), exponent=st.sampled_from(EXPONENTS),
           band=st.sampled_from((1, 2, 5)), data=st.data())
    def test_weights_need_not_grow_with_the_gap(self, v, exponent, band,
                                                data):
        # the bounds divide by the least weight of the gaps from g on, so a
        # weight table that is not monotone in the gap still prunes exactly
        def table(h, exponent, size):
            gaps = np.arange(1, size + 1)
            return (gaps * h) ** exponent * (0.2 + (gaps * 37 % 11) / 5.0)

        h = data.draw(st.sampled_from((0.7, 1.3)))   # in no other test
        start = data.draw(st.integers(1, v.shape[0]))
        _gap_line.cache_clear()
        try:
            with mock.patch("ydde.paths._gap_powers", table):
                want = full_pair_max(v, h, exponent, start)
                # the columns of (n, K, d) nodes as one path of K d
                # coordinates
                nodes = v.reshape(v.shape[0], -1)
                want_nodes = full_pair_max(nodes, h, exponent)
                with mock.patch("ydde.paths._BAND", band), \
                        mock.patch("ydde.paths._BLOCK_PAIRS", 1):
                    got = _pair_max(v, h, exponent, start)
                    value = _pair_max(nodes, h, exponent)
                assert value.hex() == want_nodes.hex()
        finally:
            _gap_line.cache_clear()
        assert hexes(got) == hexes(want)

    def test_tied_block_pairs_keep_the_first_pair(self):
        # past the band every weight is 1, so the pairs across the step all
        # tie at the value, as do the bounds of their block pairs: once one
        # is read, the others only tie the best so far and are skipped
        def table(h, exponent, size):
            return np.where(np.arange(1, size + 1) <= 1, 1e300, 1.0)

        v = np.repeat([0.0, 1.0], [5, 7])
        _gap_line.cache_clear()
        try:
            with mock.patch("ydde.paths._gap_powers", table):
                want = full_pair_max(v, 0.7, 0.5)
                with mock.patch("ydde.paths._BAND", 1), \
                        mock.patch("ydde.paths._BLOCK_PAIRS", 1):
                    got = _pair_max(v, 0.7, 0.5)
        finally:
            _gap_line.cache_clear()
        assert got.hex() == want.hex() == (1.0).hex()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_long_path_reads_far_block_pairs(self, dim):
        # unpatched: a drift-dominated path of 2000 nodes peaks far past the
        # band, where the band alone falls short of the value
        p = random_path(8, n=1999, mesh=1 / 1999, dim=dim, roughness=0.02)
        value = full_pair_max(p.values, p.mesh, 0.55)
        assert full_pair_max(p.values, p.mesh, 0.55, max_gap=64) < value
        assert holder_seminorm(p, 0.55).hex() == value.hex()
        assert holder_norm(p, 0.55).hex() == (
            sup_norm(p) + full_pair_max(p.values, p.mesh, 0.55)).hex()


class TestRowNorms:
    @settings(max_examples=300)
    @given(x=st.floats(2.0 ** -540, 2.0 ** -500)
           | st.floats(2.0 ** 505, 2.0 ** 520), k=st.integers(1, 3))
    @example(x=2.0 ** -540, k=1)
    @example(x=2.0 ** -511, k=2)
    @example(x=2.0 ** -500, k=1)
    @example(x=2.0 ** 505, k=3)
    @example(x=2.0 ** 511, k=1)
    @example(x=2.0 ** 520, k=2)
    def test_one_coordinate_is_abs(self, x, k):
        # |x| exactly, where sqrt(x * x) underflows or overflows
        v = np.array([x, -x, x * 0.75])
        for arr in (v[:, None], np.repeat(v[:, None, None], k, axis=1)):
            got = _row_norms(arr)
            assert got.tobytes() == np.abs(arr[..., 0]).tobytes()

    @settings(max_examples=300)
    @given(x=st.floats(2.0 ** -540, 2.0 ** -500)
           | st.floats(2.0 ** 505, 2.0 ** 520),
           ys=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=2))
    @example(x=2.0 ** -540, ys=[1.0])
    @example(x=2.0 ** -500, ys=[-0.5, 1e-300])
    @example(x=2.0 ** 520, ys=[1.0, 1.0])
    @example(x=2.0 ** 505, ys=[0.0])
    def test_rescaled_outside_the_normal_squares(self, x, ys):
        # d >= 2: a sum of squares outside the normal range is rescaled by a
        # power of two, so the norm is accurate to rounding, not 0 or inf
        vec = np.array([x] + [x * y for y in ys])
        got = float(_row_norms(vec[None, :])[0])
        want = math.hypot(*vec.tolist())
        assert abs(got - want) <= 4 * math.ulp(want)


class TestSlidingMax:
    @settings(max_examples=300)
    @given(x=st.lists(MIXED, min_size=1, max_size=40), data=st.data())
    def test_matches_sliding_window_view(self, x, data):
        x = np.asarray(x, dtype=float)
        size = data.draw(st.integers(1, x.shape[0]))
        got = _sliding_max(x, size)
        want = sliding_window_view(x, size).max(axis=1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def full_history_scan(v, a, size, h, exponent):
    """The history norm parts as scanned afresh at every Picard window."""
    hist = v[a - size:a + 1]
    return float(_row_norms(hist).max()), full_pair_max(hist, h, exponent)


def gap_loop_segment_norm_parts(v, h, beta, mr):
    """The former segment-norm kernel, kept as an oracle: the sliding max of
    the node norms, and per gap g <= mr one sliding max of the gap-g ratios
    over the segment's pairs."""
    sups = _sliding_max(_row_norms(v), mr + 1)
    scans = np.zeros(v.shape[0] - mr)
    for g in range(1, mr + 1):
        diff = _row_norms(v[g:] - v[:-g]) / (g * h) ** beta
        scans = np.maximum(scans, _sliding_max(diff, mr + 1 - g))
    return sups, scans


def hexed(pairs):
    return [tuple(float.hex(x) for x in pair) for pair in pairs]


def pruning(band, prune=0, block_pairs=1 << 14):
    """Patch the band and block widths, the fewest far block pairs that
    prune, and the pairs of a block (its bounds per chunk, 8 times as
    many): a narrow band and prune = 0 make short paths read far block
    pairs, in several chunks of bounds when blocks are small."""
    return mock.patch.multiple("ydde.paths", _BAND=band,
                               _PRUNE_BLOCK_PAIRS=prune,
                               _BLOCK_PAIRS=block_pairs)


class TestSegmentNormParts:
    @settings(max_examples=500)
    @given(v=node_arrays(max_nodes=40, elems=MIXED), h=st.sampled_from(MESHES),
           exponent=st.sampled_from(EXPONENTS), data=st.data())
    def test_matches_full_history_scan(self, v, h, exponent, data):
        size = data.draw(st.integers(1, v.shape[0] - 1))
        sups, scans = _segment_norm_parts(v, h, exponent, size)
        want = [full_history_scan(v, a, size, h, exponent)
                for a in range(size, v.shape[0])]
        assert hexed(zip(sups.tolist(), scans.tolist())) == hexed(want)

    @settings(max_examples=500)
    @given(v=node_arrays(max_nodes=40, elems=MIXED), h=st.sampled_from(MESHES),
           exponent=st.sampled_from(EXPONENTS),
           band=st.sampled_from((2, 8)),
           block_pairs=st.sampled_from((1, 7, 1 << 14)), data=st.data())
    def test_matches_per_gap_loop(self, v, h, exponent, band, block_pairs,
                                  data):
        size = data.draw(st.integers(1, v.shape[0] - 1))
        with pruning(band, 0, block_pairs):
            got = _segment_norm_parts(v, h, exponent, size)
        want = gap_loop_segment_norm_parts(v, h, exponent, size)
        for part, oracle in zip(got, want):
            assert part.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("block_pairs", [7, 1 << 14])
    @pytest.mark.parametrize("size", [1, 64, 599])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_per_gap_loop_on_long_paths(self, monkeypatch, dim, size,
                                        block_pairs):
        v = random_path(dim, n=600, mesh=1 / 600, dim=dim).values
        want = gap_loop_segment_norm_parts(v, 1 / 600, 0.55, size)
        monkeypatch.setattr("ydde.paths._BLOCK_PAIRS", block_pairs)
        got = _segment_norm_parts(v, 1 / 600, 0.55, size)
        for part, oracle in zip(got, want):
            assert part.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("block_pairs", [1, 1 << 14])
    @pytest.mark.parametrize("size", [61, 64, 599])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pruned_per_gap_loop_on_long_paths(self, dim, size, block_pairs):
        # a band of 8 prunes; the path is drift-dominated, so its longest
        # gaps win, and they lie in the farthest block pairs; one chunk of
        # bounds per upper block, or one for all
        v = random_path(dim, n=600, mesh=1 / 600, dim=dim,
                        roughness=0.1).values
        want = gap_loop_segment_norm_parts(v, 1 / 600, 0.55, size)
        with pruning(8, 0, block_pairs):
            got = _segment_norm_parts(v, 1 / 600, 0.55, size)
        for part, oracle in zip(got, want):
            assert part.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("block_pairs", [1, 500])
    def test_solver_sized_history(self, monkeypatch, block_pairs):
        # bitwise equal to _pair_max however it blocks its pairs
        v = random_path(3, n=600, mesh=1 / 600, dim=2).values
        sups, scans = _segment_norm_parts(v, 1 / 600, 0.55, 64)
        monkeypatch.setattr("ydde.paths._BLOCK_PAIRS", block_pairs)
        want = [full_history_scan(v, a, 64, 1 / 600, 0.55)
                for a in range(64, 601)]
        assert hexed(zip(sups.tolist(), scans.tolist())) == hexed(want)


@st.composite
def path_windows(draw):
    """A path of n nodes (d in {1, 2, 3}; d = 1 maybe flat) and windows
    ``(i, j)``, i < j, among them one-cell and whole-path ones."""
    v = draw(node_arrays(max_nodes=40, elems=MIXED))
    n = v.shape[0]
    cells = st.integers(0, n - 2).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(i + 1, n - 1)))
    wins = draw(st.lists(cells, min_size=1, max_size=12))
    last = draw(st.integers(0, n - 2))
    return v, wins + [(last, last + 1), (0, n - 1)]


@st.composite
def short_windows(draw):
    """A path of n nodes and windows ``(i, j)`` no wider than a drawn width,
    unsorted, some repeated, so that a scan banded at the widest one skips
    the lower nodes of later blocks."""
    v = draw(node_arrays(min_nodes=3, max_nodes=40, elems=MIXED))
    n = v.shape[0]
    width = draw(st.integers(1, n - 2))
    cells = st.integers(0, n - 2).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(i + 1,
                                                    min(n - 1, i + width))))
    wins = draw(st.lists(cells, min_size=1, max_size=12))
    return v, wins + wins[:draw(st.integers(0, len(wins)))]


@st.composite
def adversarial_windows(draw):
    """An adversarial path of n nodes (:func:`adversarial_nodes`, shape
    ``(n,)`` or ``(n, d)``) and windows ``(i, j)``, i < j, unsorted, some
    repeated, among them one-cell and whole-path ones."""
    v = draw(adversarial_nodes(columns=False))
    n = v.shape[0]
    cells = st.integers(0, n - 2).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(i + 1, n - 1)))
    wins = draw(st.lists(cells, min_size=1, max_size=12))
    wins += wins[:draw(st.integers(0, len(wins)))]
    return v, wins + [(0, n - 1), (n - 2, n - 1)]


def window_hexes(v, h, exponent, wins):
    return [full_pair_max(v[i:j + 1], h, exponent).hex() for i, j in wins]


# Unsorted, duplicated windows of mixed widths on a 61-node path.
MIXED_WINDOWS = [
    [(40, 59), (3, 4), (10, 30), (3, 4), (0, 59), (55, 56), (10, 30),
     (20, 22), (0, 1), (58, 59), (30, 31), (5, 45)],
    [(40, 43), (3, 4), (10, 13), (3, 4), (55, 56), (20, 22), (57, 59),
     (0, 1), (41, 42)],
]


class TestWindowPairMax:
    """The pruned window reader is float.hex-equal, per window, to the full
    scan of the window's nodes.  A narrow band (2 or 8 nodes) and a size
    rule patched to 0 make short paths read far block pairs."""

    @settings(max_examples=500)
    @given(case=path_windows(), h=st.sampled_from(MESHES),
           exponent=st.sampled_from(EXPONENTS),
           band=st.sampled_from((2, 8)),
           prune=st.sampled_from((0, 1 << 10)),
           block_pairs=st.sampled_from((1, 7, 1 << 14)))
    def test_matches_pair_max_per_window(self, case, h, exponent, band,
                                         prune, block_pairs):
        v, wins = case
        with pruning(band, prune, block_pairs):
            got = _window_pair_max(v, h, exponent, wins)
        assert hexes(got) == window_hexes(v, h, exponent, wins)

    @settings(max_examples=500)
    @given(case=short_windows(), h=st.sampled_from(MESHES),
           exponent=st.sampled_from(EXPONENTS),
           band=st.sampled_from((2, 8)),
           prune=st.sampled_from((0, 1 << 10)),
           block_pairs=st.sampled_from((1, 7, 1 << 14)))
    def test_banded_at_the_widest_window(self, case, h, exponent, band,
                                         prune, block_pairs):
        v, wins = case
        with pruning(band, prune, block_pairs):
            got = _window_pair_max(v, h, exponent, wins)
        assert hexes(got) == window_hexes(v, h, exponent, wins)

    @settings(max_examples=100)
    @given(case=adversarial_windows(), h=st.sampled_from(MESHES),
           exponent=st.sampled_from(EXPONENTS), band=st.sampled_from((2, 8)),
           block_pairs=st.sampled_from((1, 6, 40, 1 << 14)))
    def test_adversarial_paths(self, case, h, exponent, band, block_pairs):
        # ramps, spikes, constant runs and alternating signs, scaled from
        # 2^-540 to 2^520: bounds that are tight, tie, or need the d >= 2
        # rounding allowance
        v, wins = case
        with pruning(band, 0, block_pairs):
            got = _window_pair_max(v, h, exponent, wins)
        assert hexes(got) == window_hexes(v, h, exponent, wins)

    @pytest.mark.parametrize("block_pairs", [1, 7, 60])
    @pytest.mark.parametrize("wins", MIXED_WINDOWS, ids=["wide", "short"])
    def test_unsorted_duplicated_mixed_widths(self, monkeypatch, wins,
                                              block_pairs):
        v = random_path(4, n=60, mesh=1 / 60, dim=2).values
        want = [full_pair_max(v[i:j + 1], 1 / 60, 0.55) for i, j in wins]
        monkeypatch.setattr("ydde.paths._BLOCK_PAIRS", block_pairs)
        got = _window_pair_max(v, 1 / 60, 0.55, wins)
        assert [float(x).hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("band", [2, 8])
    @pytest.mark.parametrize("block_pairs", [1, 60])
    @pytest.mark.parametrize("wins", MIXED_WINDOWS, ids=["wide", "short"])
    def test_pruned_unsorted_duplicated_mixed_widths(self, wins, block_pairs,
                                                     band):
        v = random_path(4, n=60, mesh=1 / 60, dim=2).values
        with pruning(band, 0, block_pairs):
            got = _window_pair_max(v, 1 / 60, 0.55, wins)
        assert hexes(got) == window_hexes(v, 1 / 60, 0.55, wins)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_windows_cutting_both_sides_of_a_block(self, monkeypatch, dim):
        # windows that start inside a far pair's lower block and end inside
        # its upper block read the block's 2-D maxima; the others its row
        # and column maxima.  A trend lifts the far pairs above the band, so
        # that the far pairs a window cuts on both sides raise it and are
        # folded (only a pair that can raise a window is).
        v = random_path(dim, n=60, mesh=1 / 60, dim=dim).values
        v = v + 8.0 * np.linspace(0.0, 1.0, 61)[:, None]
        wins = [(9, 30), (3, 58), (17, 46), (0, 60), (12, 37), (25, 55)]
        fold, cuts = paths_module._fold_blocks, []

        def spy(out, win, ratio, block, last, first):
            # per far block read: does a window cut both its sides?
            if ratio.shape[1:] == (8, 8):
                both = set(block[(last < 7) & (first > 0)].tolist())
                cuts.extend(b in both for b in range(ratio.shape[0]))
            return fold(out, win, ratio, block, last, first)

        monkeypatch.setattr(paths_module, "_fold_blocks", spy)
        with pruning(8):
            got = _window_pair_max(v, 1 / 60, 0.55, wins)
        assert hexes(got) == window_hexes(v, 1 / 60, 0.55, wins)
        assert True in cuts and False in cuts

    def test_no_windows(self):
        v = random_path(1, n=20).values
        assert _window_pair_max(v, 0.05, 0.5, []).shape == (0,)

    def test_scans_only_the_windows_upper_nodes(self, monkeypatch):
        v = random_path(2, n=60, mesh=1 / 60, dim=2).values
        want = [full_pair_max(v[i:j + 1], 1 / 60, 0.55) for i, j in
                ((10, 12), (11, 30))]
        v = np.array(v)
        v[31:] = np.nan
        got = _window_pair_max(v, 1 / 60, 0.55, [(10, 12), (11, 30)])
        assert [float(x).hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("band", [2, 8])
    def test_reads_only_the_windows_nodes(self, band):
        # pruned, and with the nodes before the first window poisoned too
        v = random_path(2, n=60, mesh=1 / 60, dim=2).values
        wins = [(21, 23), (11, 30), (11, 12)]
        want = window_hexes(v, 1 / 60, 0.55, wins)
        v = np.array(v)
        v[31:] = np.nan
        v[:11] = np.nan
        with pruning(band):
            got = _window_pair_max(v, 1 / 60, 0.55, wins)
        assert hexes(got) == want

    @pytest.mark.parametrize("dim, kind", [(1, "segment"), (2, "random")])
    def test_solver_sized_paths_match_banded_reader(self, monkeypatch, dim,
                                                    kind):
        # unpatched: the segment windows of 1024 cells, as the 2^-12 solve
        # reads them, or 40 random windows, on a path of 81 node blocks
        # read far block pairs
        p = random_path(dim + 20, n=5120, mesh=1 / 5120, dim=dim,
                        roughness=0.05)
        ends = np.arange(1024, 5121)
        wins = (np.stack((ends - 1024, ends), 1) if kind == "segment"
                else random_windows(dim, 0, 5120, 2, 40))
        reads, far_ratios = [], paths_module._far_ratios

        def spy(*args):
            reads.append(args[2:])
            return far_ratios(*args)

        monkeypatch.setattr(paths_module, "_far_ratios", spy)
        got = _window_pair_max(p.values, p.mesh, 0.55, wins)
        want = banded_window_pair_max(p.values, p.mesh, 0.55, wins)
        assert reads and got.tobytes() == want.tobytes()


class TestHolderSeminorm:
    def test_constant_is_zero(self):
        p = GridPath(0.0, 0.125, np.full((9, 2), 3.7))
        assert holder_seminorm(p, 0.5) == 0.0

    def test_one_node_has_no_pair(self):
        p = GridPath(2.0, 0.5, [[1.0]])
        assert _pair_max(p.values, 0.5, 0.5) == 0.0
        assert holder_seminorm(p, 0.5) == 0.0
        assert holder_norm(p, 0.5) == 1.0
        flat = GridPath(2.0, 0.5, np.full(4, 1.0))
        assert holder_seminorm(flat, 0.5) == 0.0

    def test_linear_beta_half(self):
        p = GridPath(0.0, 1 / 64, np.linspace(0, 1, 65))
        assert holder_seminorm(p, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_abs_power_cusp(self):
        # x(t) = |t|^0.4 at beta = 0.4: the cusp pair attains ratio 1
        n = 256
        t = np.linspace(-1, 1, 2 * n + 1)
        p = GridPath(-1.0, 1 / n, np.abs(t) ** 0.4)
        semi = holder_seminorm(p, 0.4)
        assert semi >= 1.0 - 1e-12
        assert semi == pytest.approx(brute_holder(p, 0.4), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_bruteforce(self, seed):
        p = random_path(seed, n=40, dim=2)
        assert holder_seminorm(p, 0.55) == pytest.approx(
            brute_holder(p, 0.55), rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_subadditive_across_split(self, seed):
        p = random_path(seed, n=48)
        g = rng(seed + 100)
        i = int(g.integers(1, 47))
        b = i * p.mesh
        whole = holder_seminorm(p, 0.5, (0.0, 0.75)) if b >= 0.75 else None
        left = holder_seminorm(p, 0.5, (0.0, b)) if i >= 1 else 0.0
        right = holder_seminorm(p, 0.5, (b, 0.75)) if b < 0.75 else 0.0
        if 0 < i < 48 and b < 0.75:
            whole = holder_seminorm(p, 0.5, (0.0, 0.75))
            assert whole <= left + right + 1e-12

    def test_window_errors(self):
        p = GridPath(0.0, 0.25, np.arange(5.0))
        with pytest.raises(DomainError):
            holder_seminorm(p, 0.5, (0.1, 0.5))     # off grid
        with pytest.raises(DomainError):
            holder_seminorm(p, 0.5, (0.5, 0.5))     # empty
        with pytest.raises(DomainError):
            holder_seminorm(p, 1.5)                 # exponent out of range
        with pytest.raises(DomainError):
            holder_seminorm(p, 0.0)


def per_partition_pvar(v, p):
    """The former exhaustive p-variation: every term of every partition
    recomputed from its increment."""
    m = v.shape[0] - 1
    best = 0.0
    for size in range(0, m):
        for mid in combinations(range(1, m), size):
            nodes = (0,) + mid + (m,)
            best = max(best, sum(float(np.linalg.norm(v[b] - v[a])) ** p
                                 for a, b in zip(nodes[:-1], nodes[1:])))
    return best ** (1.0 / p)


class TestPvarSeminorm:
    def test_monotone_p1_telescopes(self):
        g = rng(7)
        vals = np.concatenate(([0.0], np.cumsum(g.uniform(0.0, 1.0, 16))))
        p = GridPath(0.0, 0.0625, vals)
        assert pvar_seminorm(p, 1.0) == pytest.approx(vals[-1] - vals[0],
                                                      rel=1e-12)

    def test_constant_zero(self):
        p = GridPath(0.0, 0.25, np.full(9, 2.0))
        assert pvar_seminorm(p, 2.0) == 0.0

    def test_linear_p2_single_interval(self):
        p = GridPath(0.0, 1 / 64, np.linspace(0, 1, 65))
        assert pvar_seminorm(p, 2.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("seed,dim", [(0, 1), (1, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("p_exp", [1.0, 1.7, 2.0, 3.0])
    def test_dp_matches_exhaustive(self, seed, dim, p_exp):
        path = random_path(seed, n=11, mesh=1 / 11, dim=dim)
        dp = pvar_seminorm(path, p_exp)
        ex = pvar_seminorm_exhaustive(path, p_exp)
        assert dp == pytest.approx(ex, rel=1e-12)

    @settings(max_examples=100)
    @given(v=node_arrays(max_nodes=9, elems=MIXED),
           p_exp=st.sampled_from((1.0, 1.5, 2.0, 3.0)))
    def test_exhaustive_matches_per_partition_norms(self, v, p_exp):
        path = GridPath(0.0, 0.125, v)
        got = pvar_seminorm_exhaustive(path, p_exp)
        assert got.hex() == per_partition_pvar(path.values, p_exp).hex()

    @pytest.mark.parametrize("seed", range(5))
    def test_pvar_below_holder_bound(self, seed):
        # |||x|||_{p-var} <= |||x|||_beta (b-a)^beta whenever p*beta >= 1
        path = random_path(seed, n=32, mesh=1 / 32)
        beta = 0.5
        p_exp = 2.0
        pv = pvar_seminorm(path, p_exp)
        hb = holder_seminorm(path, beta)
        assert pv <= hb * 1.0 ** beta * (1 + 1e-12)

    def test_p_below_one_rejected(self):
        path = random_path(0, n=8)
        with pytest.raises(DomainError):
            pvar_seminorm(path, 0.9)

    @pytest.mark.parametrize("p_exp", [math.inf, math.nan])
    def test_non_finite_p_rejected(self, p_exp):
        # best ** (1 / inf) would read 1 for every path, the zero path too
        for path in (random_path(0, n=8), GridPath(0.0, 0.25, np.zeros(9))):
            with pytest.raises(DomainError, match="p-variation"):
                pvar_seminorm(path, p_exp)


class TestSegment:
    def test_start_slice(self):
        path = random_path(3, n=32, mesh=1 / 32)
        seg = segment(path, 0.25, 0.25)
        assert np.array_equal(seg.values, path.values[:9])

    def test_constant_path(self):
        p = GridPath(0.0, 0.125, np.full(17, 4.2))
        seg = segment(p, 1.0, 0.5)
        assert np.all(seg.values == 4.2)

    def test_linear_identity(self):
        p = GridPath(0.0, 1 / 64, np.linspace(0, 2, 129))
        seg = segment(p, 1.0, 0.5)
        u = seg.times
        assert np.allclose(seg.values[:, 0], 1.0 + u, atol=1e-12)

    def test_precedes_history(self):
        p = GridPath(0.0, 0.25, np.arange(5.0))
        with pytest.raises(DomainError, match="precedes history"):
            segment(p, 0.25, 0.5)

    def test_roundtrip_values(self):
        path = random_path(4, n=32, mesh=1 / 32)
        seg = segment(path, 0.75, 0.25)
        for k, u in enumerate(seg.times):
            assert np.array_equal(seg.values[k], path.value_at(0.75 + u))

    @pytest.mark.parametrize("bad, match", [
        (math.nan, "segment values must be finite"),
        (math.inf, "segment values must be finite"),
        (-math.inf, "segment values must be finite"),
        (None, r"segment values must be a nonempty \(n\+1, d\) array"),
    ], ids=["nan", "inf", "minus_inf", "three_dimensional"])
    def test_refuses_what_a_path_refuses(self, bad, match):
        # a start is checked where it is made, as a GridPath is
        vals = np.ones((9, 2))
        if bad is None:
            vals = np.ones((9, 2, 1))
        else:
            vals[-1, 1] = bad
        with pytest.raises(DomainError, match=match):
            Segment(0.25, 1 / 32, vals)
        if bad is not None:
            with pytest.raises(DomainError, match="path values must be"):
                GridPath(0.0, 1 / 32, vals)


class TestSegmentPathHolder:
    def test_constant_zero(self):
        p = GridPath(0.0, 0.125, np.full(17, 1.0))
        assert segment_path_holder(p, 0.5, 0.25, (0.5, 1.5)) == 0.0

    def test_linear_shift_cancels(self):
        p = GridPath(-0.25, 1 / 64, np.linspace(-0.25, 1.0, 81))
        semi = segment_path_holder(p, 1.0, 0.25, (0.0, 1.0))
        assert semi == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_double_scan_oracle(self, seed):
        path = random_path(seed, n=48, mesh=1 / 48)
        window = (0.25, 1.0)
        semi = segment_path_holder(path, 0.45, 0.25, window)
        assert semi == pytest.approx(
            brute_segment_holder(path, 0.45, 0.25, window), rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_translation_bound(self, seed):
        # segment-path seminorm never exceeds the path seminorm on [a-r, b]
        path = random_path(seed, n=64, mesh=1 / 64)
        window = (0.25, 1.0)
        lhs = segment_path_holder(path, 0.5, 0.25, window)
        rhs = holder_seminorm(path, 0.5, (0.0, 1.0))
        assert lhs <= rhs * (1 + 1e-12)

    def test_translation_bound_on_fbm(self):
        from ydde.drivers import DriverSpec, gen_fbm
        path = gen_fbm(DriverSpec(kind="fbm", T=1.0, mesh=1 / 128, hurst=0.75,
                                  seed=21))
        window = (0.25, 1.0)
        lhs = segment_path_holder(path, 0.4, 0.25, window)
        rhs = holder_seminorm(path, 0.4, (0.0, 1.0))
        assert lhs <= rhs * (1 + 1e-12)
        assert lhs == pytest.approx(
            brute_segment_holder(path, 0.4, 0.25, window), rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_translation_full_norm_bound(self, seed):
        path = random_path(seed, n=64, mesh=1 / 64, dim=2)
        r, beta, window = 0.25, 0.5, (0.25, 1.0)
        ts, profile = segment_norm_profile(path, beta, r, window)
        semi = segment_path_holder(path, beta, r, window)
        sup_part = max(
            _row_norms(segment(path, t, r).values).max() for t in ts)
        lhs = sup_part + semi
        rhs = holder_norm(path, beta, (0.0, 1.0))
        assert lhs <= rhs * (1 + 1e-12)


_SIN = make_builtin("sin_delay", A=-0.15, B=0.1, sigma=0.05)
_WINDOW = (0.5, 1.0)
_DELAY_USERS = {
    "segment_norm_profile": lambda p, r: segment_norm_profile(p, 0.5, r),
    "composition_path": lambda p, r: composition_path(_SIN.g, p, r, _WINDOW),
    "composition_holder": lambda p, r: composition_holder(
        _SIN, p, 0.5, r, [_WINDOW]),
    "composition_holder_diff": lambda p, r: composition_holder_diff(
        _SIN, p, p, 0.5, r, [_WINDOW]),
    "segment_path_holder": lambda p, r: segment_path_holder(p, 0.5, r,
                                                            _WINDOW),
}


@pytest.mark.parametrize("r", [-0.25, 0.0, -0.0, 0.1])
@pytest.mark.parametrize("name", sorted(_DELAY_USERS))
def test_refuses_delay_off_positive_multiples(name, r):
    path = random_path(6, n=32, mesh=1 / 32)
    with pytest.raises(DomainError, match="delay"):
        _DELAY_USERS[name](path, r)


@pytest.mark.parametrize("name", ["segment_norm_profile", "composition_path"])
def test_refuses_window_ending_before_it_starts(name):
    read = {"segment_norm_profile":
            lambda p, w: segment_norm_profile(p, 0.5, 0.5, w)[1],
            "composition_path":
            lambda p, w: composition_path(_SIN.g, p, 0.5, w).values}[name]
    path = random_path(6, n=64, mesh=1 / 32)
    with pytest.raises(DomainError, match="ends before it starts"):
        read(path, (1.5, 0.5))
    # a one-node window is valid
    assert read(path, (1.5, 1.5)).shape[0] == 1


_NORMS = {
    "holder_seminorm": lambda p: holder_seminorm(p, 0.5),
    "holder_norm": lambda p: holder_norm(p, 0.5, (0.25, 0.75)),
    "pvar_seminorm": lambda p: pvar_seminorm(p, 2.0),
    "segment_path_holder": lambda p: segment_path_holder(p, 0.5, 0.25,
                                                         (0.5, 1.0)),
    "segment_norm": lambda p: segment_norm(segment(p, 0.5, 0.25), 0.5),
    "sup_norm": lambda p: sup_norm(p),
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", sorted(_NORMS))
def test_norms_are_python_floats(name, dim):
    assert type(_NORMS[name](random_path(4, n=32, mesh=1 / 32,
                                         dim=dim))) is float


class TestSegmentNormProfile:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_node_norms(self, seed):
        path = random_path(seed, n=40, mesh=1 / 40, dim=2)
        beta, r = 0.5, 0.25
        ts, profile = segment_norm_profile(path, beta, r)
        for t, val in zip(ts, profile):
            seg = segment(path, t, r)
            assert val == pytest.approx(segment_norm(seg, beta), rel=1e-12)

    @settings(max_examples=200)
    @given(v=node_arrays(min_nodes=3, max_nodes=30, elems=MIXED),
           h=st.sampled_from(MESHES), beta=st.sampled_from(EXPONENTS),
           data=st.data())
    def test_matches_sliding_window_definition(self, v, h, beta, data):
        n = v.shape[0] - 1
        mr = data.draw(st.integers(1, n - 1))
        path = GridPath(-mr * h, h, v)
        ts, profile = segment_norm_profile(path, beta, mr * h)
        want_ts, want = sliding_norm_profile(path, beta, mr * h)
        assert ts.tobytes() == want_ts.tobytes()
        assert profile.tobytes() == want.tobytes()
        ja = data.draw(st.integers(mr, n))
        jb = data.draw(st.integers(ja, n))
        ts, profile = segment_norm_profile(
            path, beta, mr * h, (path.t0 + ja * h, path.t0 + jb * h))
        assert profile.tobytes() == want[ja - mr:jb - mr + 1].tobytes()

    def test_segment_norm_parts(self):
        path = random_path(11, n=32, mesh=1 / 32)
        seg = segment(path, 0.5, 0.25)
        assert segment_norm(seg, 0.5) == (
            _row_norms(seg.values).max() + _pair_max(seg.values, seg.mesh, 0.5))
        for beta in (0.0, 1.5, float("nan")):
            with pytest.raises(DomainError, match="Holder exponent"):
                segment_norm(seg, beta)


def brute_counterexample(beta, p, n):
    """Independent evaluation of the Remark's partition sum."""
    mesh = 1.0 / n
    total = 0.0
    for i in range(n):
        sup = 0.0
        for k in range(n + 1):
            u = -1.0 + k * mesh
            a = abs(i / n + u) ** beta
            b = abs((i + 1) / n + u) ** beta
            sup = max(sup, abs(b - a))
        total += sup ** p
    return total ** (1.0 / p)


class TestCounterexampleGrowth:
    def test_single_term(self):
        assert counterexample_growth(0.4, 2.0, 1) == pytest.approx(1.0, rel=1e-12)

    def test_lower_bound_n100(self):
        val = counterexample_growth(0.4, 2.0, 100)
        assert val >= 100 ** 0.1 * (1 - 1e-12)
        # on this grid the Remark's chain is tight: the sum equals the bound
        assert val == pytest.approx(100 ** 0.1, rel=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_matches_bruteforce(self, n):
        assert counterexample_growth(0.4, 2.0, n) == pytest.approx(
            brute_counterexample(0.4, 2.0, n), rel=1e-12)

    def test_unbounded_growth_ladder(self):
        vals = [counterexample_growth(0.4, 2.0, n)
                for n in (10, 100, 1000, 10000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        # growth follows n^((1 - beta p)/p) = n^0.1: factor 10^0.3 over the ladder
        assert vals[-1] / vals[0] == pytest.approx(10 ** 0.3, rel=1e-9)

    def test_hypothesis_violated_rejected(self):
        with pytest.raises(DomainError):
            counterexample_growth(0.6, 2.0, 100)   # beta*p >= 1


class TestGridPath:
    def test_invariants(self):
        with pytest.raises(DomainError):
            GridPath(0.0, 0.0, np.ones(4))
        with pytest.raises(DomainError):
            GridPath(0.0, 0.1, np.empty((0, 1)))
        with pytest.raises(DomainError):
            GridPath(0.0, 0.1, np.array([1.0, np.nan]))

    def test_values_immutable(self):
        p = GridPath(0.0, 0.25, np.arange(5.0))
        with pytest.raises(ValueError):
            p.values[0] = 9.0

    def test_index_snapping(self):
        p = GridPath(0.0, 0.1, np.arange(11.0))
        assert p.index_of(0.30000000000000004) == 3
        with pytest.raises(DomainError):
            p.index_of(0.35)
        # a non-finite time has no index: not a ValueError or OverflowError
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="not finite"):
                p.index_of(t)

    def test_restrict_subsample(self):
        p = GridPath(0.0, 0.125, np.arange(9.0))
        q = p.restrict(0.25, 0.75)
        assert q.t0 == 0.25 and q.n_intervals == 4
        s = p.subsample(2)
        assert s.mesh == 0.25 and np.array_equal(s.values[:, 0], p.values[::2, 0])

    def test_subsample_requires_divisor(self):
        p = GridPath(0.0, 0.125, np.arange(9.0))
        with pytest.raises(DomainError):
            p.subsample(3)


class TestSerialization:
    def test_csv_roundtrip(self):
        # 17 significant digits give every float back exactly
        path = random_path(2, n=16, mesh=1 / 16, dim=3)
        buf = io.StringIO()
        write_csv(path, buf)
        header, *rows = csv.reader(io.StringIO(buf.getvalue()))
        assert header == ["t", "x_1", "x_2", "x_3"]
        back = np.array(rows, dtype=float)
        assert np.array_equal(back[:, 0], path.times)
        assert np.array_equal(back[:, 1:], path.values)

    def test_sup_norm_window(self):
        p = GridPath(0.0, 0.25, np.array([0.0, -3.0, 1.0, 2.0, 0.0]))
        assert sup_norm(p) == 3.0
        assert sup_norm(p, (0.5, 1.0)) == 2.0
