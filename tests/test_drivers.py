import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import ydde
from ydde import drivers
from ydde.drivers import (MAX_FBM_INTERVALS, DriverSpec,
                          empirical_holder_exponent, fgn_autocovariance,
                          fgn_levinson, gen_deterministic, gen_driver, gen_fbm,
                          spec_from_json)
from ydde.errors import DomainError, GenerationError
from ydde.paths import holder_seminorm


def fbm_cov(s, t, H):
    return 0.5 * (s ** (2 * H) + t ** (2 * H) - abs(t - s) ** (2 * H))


def fgn_covariance(hurst, n, mesh):
    """Dense Toeplitz covariance of the n fGn increments (oracle input)."""
    return scipy.linalg.toeplitz(fgn_autocovariance(hurst, n, mesh))


def cholesky_oracle(hurst, n, mesh):
    """Lower Cholesky factor L of the increment covariance, O(n^3)."""
    return scipy.linalg.cholesky(fgn_covariance(hurst, n, mesh), lower=True)


def philox_normals(seed, n):
    """The standard normals gen_fbm draws for ``seed``."""
    return np.random.Generator(np.random.Philox(key=seed)).standard_normal(n)


class TestDriverSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            DriverSpec(kind="fbm", T=1.0, mesh=1 / 64)            # no hurst
        with pytest.raises(DomainError):
            DriverSpec(kind="fbm", T=1.0, mesh=1 / 64, hurst=0.4)
        with pytest.raises(DomainError):
            DriverSpec(kind="fbm", T=1.0, mesh=1 / 64, hurst=0.5)
        with pytest.raises(DomainError):
            DriverSpec(kind="fbm", T=1.0, mesh=1 / 64, hurst=1.0)
        with pytest.raises(DomainError):
            DriverSpec(kind="brownian", T=1.0, mesh=1 / 64)
        with pytest.raises(DomainError):
            DriverSpec(kind="zero", T=1.0, mesh=0.3)              # mesh does not divide T
        with pytest.raises(DomainError):
            DriverSpec(kind="power", T=1.0, mesh=1 / 64)          # no exponent
        with pytest.raises(DomainError, match="seed must be an integer"):
            DriverSpec(kind="zero", T=1.0, mesh=1 / 64, seed=1.5)  # any kind

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, np.uint64(2 ** 63)])
    def test_integer_seeds_accepted(self, seed):
        spec = DriverSpec(kind="fbm", T=1.0, mesh=1 / 64, hurst=0.75, seed=seed)
        assert gen_driver(spec).values[0, 0] == 0.0

    def test_json_roundtrip(self):
        d = {"kind": "fbm", "T": 1.0, "mesh": 1 / 128, "hurst": 0.75,
             "seed": 99, "amplitude": 0.1}
        assert spec_from_json(json.loads(json.dumps(d))) == DriverSpec(**d)

    def test_json_samples_become_tuples(self):
        # JSON lists of scalars or of rows become a hashable tuple of tuples
        d = {"kind": "samples", "T": 1.0, "mesh": 0.5,
             "samples": [0.0, 1.5, -2.0]}
        spec = spec_from_json(json.loads(json.dumps(d)))
        assert spec.samples == ((0.0,), (1.5,), (-2.0,))
        assert all(type(row) is tuple for row in spec.samples)
        hash(spec)
        assert d["samples"] == [0.0, 1.5, -2.0]      # the input is not changed
        d["samples"] = [[0.0, 1.0], [1.5, 2.0], [-2.0, 0.5]]
        spec = spec_from_json(d)
        assert spec.samples == ((0.0, 1.0), (1.5, 2.0), (-2.0, 0.5))
        assert np.array_equal(gen_driver(spec).values, d["samples"])


class TestFbm:
    def test_starts_at_zero(self):
        for seed in (0, 1, 12345):
            spec = DriverSpec(kind="fbm", T=0.5, mesh=1 / 64, hurst=0.75,
                              seed=seed)
            assert gen_fbm(spec).values[0, 0] == 0.0

    def test_seed_reproducibility(self):
        spec = DriverSpec(kind="fbm", T=1.0, mesh=1 / 128, hurst=0.8, seed=5)
        a, b = gen_fbm(spec), gen_fbm(spec)
        assert np.array_equal(a.values, b.values)
        c = gen_fbm(DriverSpec(kind="fbm", T=1.0, mesh=1 / 128, hurst=0.8,
                               seed=6))
        assert not np.array_equal(a.values, c.values)

    def test_h_half_increment_variance(self):
        # pooled increment variance over 1e4 paths must match the step size;
        # the sampler at H = 1/2 on the normals gen_fbm draws per seed
        n, n_paths, mesh = 16, 10_000, 1 / 64
        incs = np.concatenate([fgn_levinson(0.5, philox_normals(seed, n), mesh)
                               for seed in range(n_paths)])
        sample_var = incs.var(ddof=1)
        se = mesh * math.sqrt(2.0 / (len(incs) - 1))
        assert abs(sample_var - mesh) <= 3 * se

    def test_covariance_monte_carlo(self):
        # cov(omega(1/4), omega(1/2)) from 1e4 seeds against the closed form
        H, mesh = 0.75, 1 / 256
        n = 128
        i_quarter, i_half = 64, 128
        z = np.stack([philox_normals(seed, n) for seed in range(10_000)],
                     axis=1)
        paths = np.cumsum(fgn_levinson(H, z, mesh), axis=0)
        samples = paths[[i_quarter - 1, i_half - 1]]
        est = np.cov(samples, ddof=1)[0, 1]
        target = fbm_cov(0.25, 0.5, H)
        assert target == pytest.approx(0.5 * 0.5 ** 1.5, abs=1e-15)
        sxx, syy = fbm_cov(0.25, 0.25, H), fbm_cov(0.5, 0.5, H)
        se = math.sqrt((sxx * syy + target ** 2) / 9999)
        assert abs(est - target) <= 3 * se

    def test_gen_fbm_is_cumsum_of_levinson(self):
        # gen_fbm is exactly the 1-D sampler call; a batch column sums its
        # dot products in a possibly different order, so it agrees to rounding
        H, mesh, n, seed = 0.75, 1 / 256, 128, 1234
        spec = DriverSpec(kind="fbm", T=n * mesh, mesh=mesh, hurst=H,
                          seed=seed, amplitude=0.3)
        z = philox_normals(seed, n)
        one = fgn_levinson(H, z, mesh)
        want = np.cumsum(0.3 * one)
        assert gen_fbm(spec).values[1:, 0].tobytes() == want.tobytes()
        batch = fgn_levinson(H, np.stack([philox_normals(7, n), z], axis=1),
                             mesh)
        assert np.allclose(batch[:, 1], one, rtol=1e-13, atol=0)

    def test_increment_stationarity(self):
        # equal-lag increments share their variance, wherever they start
        H, mesh, n = 0.75, 1 / 64, 64
        lag = 16
        z = np.stack([philox_normals(seed, n) for seed in range(4000)], axis=1)
        paths = np.vstack([np.zeros((1, 4000)),
                           np.cumsum(fgn_levinson(H, z, mesh), axis=0)])
        va = np.var(paths[lag] - paths[0], ddof=1)
        vb = np.var(paths[3 * lag] - paths[2 * lag], ddof=1)
        target = (lag * mesh) ** (2 * H)
        se = target * math.sqrt(2.0 / 3999)
        assert abs(va - target) <= 3 * se
        assert abs(vb - target) <= 3 * se

    def test_covariance_matrix_psd_and_toeplitz(self):
        cov = fgn_covariance(0.75, 32, 1 / 32)
        assert np.allclose(cov, cov.T)
        assert np.all(np.diag(cov) == cov[0, 0])
        w = np.linalg.eigvalsh(cov)
        assert w.min() > 0

    @settings(max_examples=100)
    @given(n=st.integers(1, 300), hurst=st.floats(0.5, 0.999),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_levinson_matches_cholesky_oracle(self, n, hurst, seed):
        # near H = 1 both factors carry rounding of about 1.5e-12 max|L z|
        # against an extended-precision recursion (n = 300, H = 0.999), so
        # the tolerance sits above that; for H <= 0.99 they agree to 3e-13
        z = philox_normals(seed, n)
        want = cholesky_oracle(hurst, n, 1 / n) @ z
        got = fgn_levinson(hurst, z, 1 / n)
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    @pytest.mark.parametrize("n", [1, 2, 17, 300])
    def test_h_half_is_scaled_white_noise(self, n):
        # gamma = [mesh, 0, 0, ...] exactly, so no prediction enters
        z = philox_normals(n, n)
        got = fgn_levinson(0.5, z, 1 / n)
        assert got.tobytes() == (math.sqrt(1 / n) * z).tobytes()

    @pytest.mark.parametrize("gamma", [[1.0, 2.0, 0.5], [1.0, 1.0, 1.0],
                                       [1.0, math.nan, 0.0]])
    def test_non_positive_definite_autocovariance_raises(self, monkeypatch,
                                                         gamma):
        monkeypatch.setattr(drivers, "fgn_autocovariance",
                            lambda hurst, n, mesh: np.array(gamma))
        spec = DriverSpec(kind="fbm", T=3.0, mesh=1.0, hurst=0.75)
        with pytest.raises(GenerationError):
            gen_fbm(spec)

    def test_cap_is_reachable(self):
        # a dense factor at the cap is one 2 GiB array; the recursion holds
        # a few vectors of n floats
        spec = DriverSpec(kind="fbm", T=1.0, mesh=2.0 ** -14, hurst=0.75,
                          seed=3)
        assert spec.n_intervals == MAX_FBM_INTERVALS
        tracemalloc.start()
        try:
            path = gen_fbm(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.values.shape == (MAX_FBM_INTERVALS + 1, 1)
        assert np.all(np.isfinite(path.values))
        assert path.values[0, 0] == 0.0
        assert peak < 8 * 2 ** 20

    def test_interval_cap(self):
        spec = DriverSpec(kind="fbm", T=float(2 ** 15), mesh=1.0, hurst=0.75)
        assert spec.n_intervals > MAX_FBM_INTERVALS
        with pytest.raises(DomainError):
            gen_fbm(spec)

    def test_amplitude_scales_path(self):
        base = DriverSpec(kind="fbm", T=0.5, mesh=1 / 64, hurst=0.75, seed=4)
        scaled = DriverSpec(kind="fbm", T=0.5, mesh=1 / 64, hurst=0.75, seed=4,
                            amplitude=0.25)
        assert np.allclose(gen_fbm(scaled).values, 0.25 * gen_fbm(base).values)


def test_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(ydde.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ydde; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestDeterministic:
    def test_zero(self):
        path = gen_deterministic(DriverSpec(kind="zero", T=1.0, mesh=1 / 32))
        assert np.all(path.values == 0.0)

    def test_sine_quarter_period(self):
        path = gen_deterministic(DriverSpec(kind="sine", T=1.0, mesh=1 / 64,
                                            amplitude=1.0, frequency=1.0))
        assert path.value_at(0.25)[0] == pytest.approx(1.0, rel=1e-12)

    def test_power_holder_attained_at_origin(self):
        path = gen_deterministic(DriverSpec(kind="power", T=1.0, mesh=1 / 128,
                                            exponent=0.75))
        assert holder_seminorm(path, 0.75) == pytest.approx(1.0, rel=1e-12)

    def test_samples_driver(self):
        vals = [[0.0], [1.0], [0.5]]
        spec = DriverSpec(kind="samples", T=1.0, mesh=0.5,
                          samples=tuple(map(tuple, vals)))
        path = gen_driver(spec)
        assert np.allclose(path.values[:, 0], [0.0, 1.0, 0.5])
        with pytest.raises(DomainError):
            gen_driver(DriverSpec(kind="samples", T=2.0, mesh=0.5,
                                  samples=tuple(map(tuple, vals))))


class TestEmpiricalHolder:
    def test_linear_path(self):
        path = gen_deterministic(DriverSpec(kind="power", T=1.0, mesh=1 / 64,
                                            exponent=1.0))
        table = empirical_holder_exponent(path, [1.0])
        assert table[0][1] == pytest.approx(1.0, rel=1e-12)

    def test_constant_path(self):
        path = gen_deterministic(DriverSpec(kind="zero", T=1.0, mesh=1 / 32))
        table = empirical_holder_exponent(path, [0.4, 0.6, 0.9])
        assert all(v == 0.0 for _, v in table)

    def test_fbm_monotone_in_exponent(self):
        spec = DriverSpec(kind="fbm", T=1.0, mesh=1 / 256, hurst=0.75, seed=42)
        path = gen_fbm(spec)
        table = dict(empirical_holder_exponent(path, [0.6, 0.74]))
        assert 0.0 < table[0.6] < table[0.74] < math.inf

    def test_empty_grid_rejected(self):
        path = gen_deterministic(DriverSpec(kind="zero", T=1.0, mesh=1 / 32))
        with pytest.raises(DomainError):
            empirical_holder_exponent(path, [])
