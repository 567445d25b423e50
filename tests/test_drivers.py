import math

import numpy as np
import pytest
import scipy.linalg

from ydde.drivers import (MAX_FBM_INTERVALS, RNG_ALGORITHM, DriverSpec,
                          driver_metadata, empirical_holder_exponent,
                          fgn_cholesky, fgn_covariance, gen_deterministic,
                          gen_driver, gen_fbm, spec_from_json, spec_to_json)
from ydde.errors import DomainError
from ydde.paths import holder_seminorm


def fbm_cov(s, t, H):
    return 0.5 * (s ** (2 * H) + t ** (2 * H) - abs(t - s) ** (2 * H))


class TestDriverSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            DriverSpec(kind="fbm", T=1.0, mesh=1 / 64)            # no hurst
        with pytest.raises(DomainError):
            DriverSpec(kind="fbm", T=1.0, mesh=1 / 64, hurst=0.4)
        with pytest.raises(DomainError):
            DriverSpec(kind="fbm", T=1.0, mesh=1 / 64, hurst=1.0)
        with pytest.raises(DomainError):
            DriverSpec(kind="brownian", T=1.0, mesh=1 / 64)
        with pytest.raises(DomainError):
            DriverSpec(kind="zero", T=1.0, mesh=0.3)              # mesh does not divide T
        with pytest.raises(DomainError):
            DriverSpec(kind="power", T=1.0, mesh=1 / 64)          # no exponent

    def test_json_roundtrip(self):
        spec = DriverSpec(kind="fbm", T=1.0, mesh=1 / 128, hurst=0.75,
                          seed=99, amplitude=0.1)
        back = spec_from_json(spec_to_json(spec))
        assert back == spec

    def test_metadata_names_generator(self):
        spec = DriverSpec(kind="fbm", T=1.0, mesh=1 / 64, hurst=0.75, seed=3)
        meta = driver_metadata(spec)
        assert meta["rng"] == RNG_ALGORITHM == "philox4x64"
        assert meta["seed"] == 3


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

    def test_h_half_needs_bypass(self):
        spec = DriverSpec(kind="fbm", T=1.0, mesh=1 / 64, hurst=0.5, seed=0)
        with pytest.raises(DomainError):
            gen_fbm(spec)
        path = gen_fbm(spec, allow_h_half=True)
        assert path.values[0, 0] == 0.0

    def test_h_half_increment_variance(self):
        # pooled increment variance over 1e4 paths must match the step size
        n, n_paths, mesh = 16, 10_000, 1 / 64
        incs = []
        for seed in range(n_paths):
            spec = DriverSpec(kind="fbm", T=n * mesh, mesh=mesh, hurst=0.5,
                              seed=seed)
            incs.append(np.diff(gen_fbm(spec, allow_h_half=True).values[:, 0]))
        incs = np.concatenate(incs)
        sample_var = incs.var(ddof=1)
        se = mesh * math.sqrt(2.0 / (len(incs) - 1))
        assert abs(sample_var - mesh) <= 3 * se

    def test_covariance_monte_carlo(self):
        # cov(omega(1/4), omega(1/2)) from 1e4 seeds against the closed form
        H, mesh = 0.75, 1 / 256
        n = 128
        chol = fgn_cholesky(H, n, mesh)
        i_quarter, i_half = 64, 128
        samples = np.empty((10_000, 2))
        for seed in range(10_000):
            z = np.random.Generator(np.random.Philox(key=seed)).standard_normal(n)
            path = np.cumsum(chol @ z)
            samples[seed] = (path[i_quarter - 1], path[i_half - 1])
        # the loop replicates gen_fbm exactly; pin that equivalence
        spec = DriverSpec(kind="fbm", T=0.5, mesh=mesh, hurst=H, seed=1234)
        assert np.allclose(gen_fbm(spec).values[1:, 0],
                           np.cumsum(chol @ np.random.Generator(
                               np.random.Philox(key=1234)).standard_normal(n)),
                           atol=0, rtol=0)
        est = np.cov(samples.T, ddof=1)[0, 1]
        target = fbm_cov(0.25, 0.5, H)
        assert target == pytest.approx(0.5 * 0.5 ** 1.5, abs=1e-15)
        sxx, syy = fbm_cov(0.25, 0.25, H), fbm_cov(0.5, 0.5, H)
        se = math.sqrt((sxx * syy + target ** 2) / 9999)
        assert abs(est - target) <= 3 * se

    def test_increment_stationarity(self):
        # equal-lag increments share their variance, wherever they start
        H, mesh, n = 0.75, 1 / 64, 64
        chol = fgn_cholesky(H, n, mesh)
        lag = 16
        var_a, var_b = [], []
        for seed in range(4000):
            z = np.random.Generator(np.random.Philox(key=seed)).standard_normal(n)
            path = np.concatenate(([0.0], np.cumsum(chol @ z)))
            var_a.append(path[lag] - path[0])
            var_b.append(path[3 * lag] - path[2 * lag])
        va, vb = np.var(var_a, ddof=1), np.var(var_b, ddof=1)
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

    @pytest.mark.parametrize("n", [1, 2, 17, 300])
    def test_cholesky_in_place_matches_scipy(self, n):
        want = scipy.linalg.cholesky(fgn_covariance(0.75, n, 1 / n), lower=True)
        got = fgn_cholesky(0.75, n, 1 / n)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_cholesky_retry_adds_diagonal_jitter(self, monkeypatch):
        real, seen = scipy.linalg.cholesky, []

        def fail_first(a, **kw):
            seen.append(np.array(a))
            if len(seen) == 1:
                raise scipy.linalg.LinAlgError("not PSD")
            return real(a, **kw)

        monkeypatch.setattr(scipy.linalg, "cholesky", fail_first)
        cov = fgn_covariance(0.75, 8, 1 / 8)
        fgn_cholesky(0.75, 8, 1 / 8)
        assert np.array_equal(seen[0], cov)
        assert np.array_equal(seen[1], cov + 1e-12 * cov[0, 0] * np.eye(8))

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
        rep = holder_seminorm(path, 0.75)
        assert rep.seminorm == pytest.approx(1.0, rel=1e-12)
        assert rep.witness[0] == 0.0

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
