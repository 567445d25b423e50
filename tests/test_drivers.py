import json
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import ydde
from conftest import fgn_levinson
from ydde import drivers
from ydde.drivers import (DriverSpec, empirical_holder_exponent,
                          fgn_autocovariance, fgn_circulant, gen_deterministic,
                          gen_driver, gen_fbm, spec_from_json)
from ydde.errors import DomainError, GenerationError
from ydde.paths import MAX_GRID_INTERVALS, holder_seminorm

# the unit roundoff of a double
U = 2.0 ** -53


def fbm_cov(s, t, H):
    return 0.5 * (s ** (2 * H) + t ** (2 * H) - abs(t - s) ** (2 * H))


def fgn_covariance(hurst, n, mesh):
    """Dense Toeplitz covariance of the n fGn increments (oracle input)."""
    return scipy.linalg.toeplitz(fgn_autocovariance(hurst, n, mesh))


def cholesky_oracle(hurst, n, mesh):
    """Lower Cholesky factor L of the increment covariance, O(n^3)."""
    return scipy.linalg.cholesky(fgn_covariance(hurst, n, mesh), lower=True)


def philox_normals(seed, n):
    """The first ``n`` standard normals gen_fbm draws for ``seed`` (2n of
    them for n intervals)."""
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
        incs = np.concatenate([fgn_circulant(0.5, philox_normals(seed, 2 * n),
                                             mesh)
                               for seed in range(n_paths)])
        sample_var = incs.var(ddof=1)
        se = mesh * math.sqrt(2.0 / (len(incs) - 1))
        assert abs(sample_var - mesh) <= 3 * se

    def test_covariance_monte_carlo(self):
        # cov(omega(1/4), omega(1/2)) from 1e4 seeds against the closed form
        H, mesh = 0.75, 1 / 256
        n = 128
        i_quarter, i_half = 64, 128
        z = np.stack([philox_normals(seed, 2 * n) for seed in range(10_000)],
                     axis=1)
        paths = np.cumsum(fgn_circulant(H, z, mesh), axis=0)
        samples = paths[[i_quarter - 1, i_half - 1]]
        est = np.cov(samples, ddof=1)[0, 1]
        target = fbm_cov(0.25, 0.5, H)
        assert target == pytest.approx(0.5 * 0.5 ** 1.5, abs=1e-15)
        sxx, syy = fbm_cov(0.25, 0.25, H), fbm_cov(0.5, 0.5, H)
        se = math.sqrt((sxx * syy + target ** 2) / 9999)
        assert abs(est - target) <= 3 * se

    def test_gen_fbm_is_cumsum_of_sampler(self):
        # gen_fbm is exactly the 1-D sampler call on its seed's 2n normals; a
        # batch column runs the same FFT along axis 0, so it agrees to rounding
        H, mesh, n, seed = 0.75, 1 / 256, 128, 1234
        spec = DriverSpec(kind="fbm", T=n * mesh, mesh=mesh, hurst=H,
                          seed=seed, amplitude=0.3)
        z = philox_normals(seed, 2 * n)
        one = fgn_circulant(H, z, mesh)
        want = np.cumsum(0.3 * one)
        assert gen_fbm(spec).values[1:, 0].tobytes() == want.tobytes()
        batch = fgn_circulant(H, np.stack([philox_normals(7, 2 * n), z],
                                          axis=1), mesh)
        assert np.allclose(batch[:, 1], one, rtol=1e-13, atol=0)

    def test_increment_stationarity(self):
        # equal-lag increments share their variance, wherever they start
        H, mesh, n = 0.75, 1 / 64, 64
        lag = 16
        z = np.stack([philox_normals(seed, 2 * n) for seed in range(4000)],
                     axis=1)
        paths = np.vstack([np.zeros((1, 4000)),
                           np.cumsum(fgn_circulant(H, z, mesh), axis=0)])
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
        # the Levinson oracle (conftest) against a dense Cholesky factor;
        # near H = 1 both factors carry rounding of about 1.5e-12 max|L z|
        # against an extended-precision recursion (n = 300, H = 0.999), so
        # the tolerance sits above that; for H <= 0.99 they agree to 3e-13
        z = philox_normals(seed, n)
        want = cholesky_oracle(hurst, n, 1 / n) @ z
        got = fgn_levinson(hurst, z, 1 / n)
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    @settings(max_examples=100)
    @given(n=st.integers(1, 128), hurst=st.floats(0.5, 0.999))
    def test_circulant_covariance_matches_toeplitz(self, n, hurst):
        # the sampler's linear map A (n x 2n), column j the increments of the
        # j-th unit vector, has covariance A A^T = toeplitz(gamma) up to FFT
        # rounding (the product is taken in long double, out of the bound).
        # An FFT of length N has 2-norm error at most about log2(N) u times
        # the 2-norm of its result (Higham 2002, sec. 24.1), so:
        # - the eigenvalues, the FFT of the circulant row c, err by at most
        #   log2(N) u sqrt(N) |c|_2 in 2-norm, which moves an entry of the
        #   covariance (their inverse FFT) by at most log2(N) u |c|_2;
        # - a column of A, the inverse FFT of one scaled spectral entry with
        #   eigenvalue lam_j, has 2-norm sqrt(lam_j), entries at most
        #   sqrt(2 lam_j / N) and error at most log2(N) u sqrt(lam_j); the
        #   2n columns' lam_j sum to N gamma(0), so an entry of A A^T errs by
        #   at most 2 log2(N) u sqrt(2 / N) N gamma(0).
        # The Levinson oracle's own factor is only good to about 1e-11 near
        # H = 1 (above), so the Toeplitz matrix is the target.
        mesh = 1 / n
        big_n = 2 * n
        a = fgn_circulant(hurst, np.eye(big_n), mesh).astype(np.longdouble)
        gamma = fgn_autocovariance(hurst, n + 1, mesh)
        row = np.concatenate((gamma, gamma[-2:0:-1]))
        bound = math.log2(big_n) * U * (np.linalg.norm(row) + 2 * math.sqrt(
            2 * big_n) * gamma[0])
        err = np.abs(a @ a.T - scipy.linalg.toeplitz(gamma[:n])).max()
        assert float(err) <= bound

    @pytest.mark.parametrize("n", [1, 2, 17, 300])
    def test_h_half_is_scaled_white_noise(self, n):
        # gamma = [mesh, 0, 0, ...] exactly, so the embedding is mesh times
        # the identity and the sampler is sqrt(mesh) times n rows of the
        # orthonormal real Fourier synthesis of length N = 2n: white noise
        # again, from other normals.  The reference is summed in long double;
        # the FFT errs by at most log2(N) u times the 2-norm of its result,
        # sqrt(mesh) |z|_2 (Higham 2002, sec. 24.1), and the spectrum's
        # scaling by sqrt(n mesh) (sqrt(2n mesh)) adds three roundings
        mesh, big_n = 1 / n, 2 * n
        z = philox_normals(n, big_n)
        got = fgn_circulant(0.5, z, mesh)
        zl = z.astype(np.longdouble)
        pi = np.arccos(np.longdouble(-1.0))
        nodes = np.arange(n)[:, None] * np.arange(1, n)[None, :] % big_n
        theta = 2 * pi * nodes.astype(np.longdouble) / big_n
        want = ((zl[0] + (-1.0) ** np.arange(n) * zl[n])
                / np.sqrt(np.longdouble(big_n))
                + np.sqrt(np.longdouble(2) / big_n)
                * (np.cos(theta) @ zl[1:n] - np.sin(theta) @ zl[n + 1:]))
        want *= np.sqrt(np.longdouble(mesh))
        bound = (math.log2(big_n) + 3) * U * math.sqrt(mesh) \
            * np.linalg.norm(z)
        assert float(np.abs(got - want).max()) <= bound

    @pytest.mark.parametrize("gamma", [[1.0, 2.0, 0.5], [1.0, 0.4, -0.4],
                                       [1.0, math.nan, 0.0]])
    def test_non_positive_definite_autocovariance_raises(self, monkeypatch,
                                                         gamma):
        # n = 2 embeds gamma(0..2) in the circulant row [g0, g1, g2, g1],
        # eigenvalues g0 + 2 g1 + g2, g0 - g2, g0 - 2 g1 + g2: -2.5 for the
        # first (not a covariance), -0.2 for the second (positive definite,
        # but its minimal embedding is not nonnegative), NaN for the third;
        # the sampler refuses each rather than clip an eigenvalue
        monkeypatch.setattr(drivers, "fgn_autocovariance",
                            lambda hurst, n, mesh: np.array(gamma))
        spec = DriverSpec(kind="fbm", T=2.0, mesh=1.0, hurst=0.75)
        with pytest.raises(GenerationError, match="circulant eigenvalue"):
            gen_fbm(spec)

    def test_singular_autocovariance_is_sampled(self, monkeypatch):
        # gamma = [1, 1, 1] is positive semidefinite but singular (every
        # increment equal): the Levinson recursion meets a zero prediction
        # variance and refuses it, while its embedding has eigenvalues
        # [4, 0, 0], nonnegative, and is sampled exactly
        gamma = np.array([1.0, 1.0, 1.0])
        monkeypatch.setattr(drivers, "fgn_autocovariance",
                            lambda hurst, n, mesh: gamma[:n])
        with pytest.raises(GenerationError):
            fgn_levinson(0.75, philox_normals(3, 2), 1.0)
        path = gen_fbm(DriverSpec(kind="fbm", T=2.0, mesh=1.0, hurst=0.75,
                                  seed=3))
        incs = np.diff(path.values[:, 0])
        assert incs[0] != 0.0
        assert incs[1] == pytest.approx(incs[0], rel=8 * U, abs=0)

    @pytest.mark.parametrize("hurst", [0.75, 0.99, 0.999])
    def test_embedding_is_nonnegative(self, hurst):
        # the least eigenvalue falls with H and n (2.1e-10 of the greatest at
        # H = 0.999, n = 2^22); with the second difference at every lag it
        # was negative at H = 0.99 for n = 2^20 and 2^22
        n = 2 ** 16
        lam = drivers._embedding_eigenvalues(hurst, n, 1 / n)
        assert lam.min() > 0

    def test_gen_fbm_past_the_old_cap(self):
        # 2^16 intervals, four times the Levinson sampler's cap; the sampler
        # holds the 2n normals, the n + 1 complex spectrum, the n + 1 scales
        # and the 2n reals of the inverse FFT at once, and a dense factor
        # would be a 32 GiB array
        n = 2 ** 16
        spec = DriverSpec(kind="fbm", T=1.0, mesh=1 / n, hurst=0.75, seed=3)
        tracemalloc.start()
        try:
            path = gen_fbm(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.values.shape == (n + 1, 1)
        assert np.all(np.isfinite(path.values))
        assert path.values[0, 0] == 0.0
        arrays = 8 * 2 * n + 16 * (n + 1) + 8 * (n + 1) + 8 * 2 * n
        assert peak <= arrays + 2 ** 16

    def test_grid_cap_refuses_fbm(self):
        at_cap = DriverSpec(kind="fbm", T=1.0, mesh=1 / MAX_GRID_INTERVALS,
                            hurst=0.75)
        assert at_cap.n_intervals == MAX_GRID_INTERVALS
        with pytest.raises(DomainError, match="allowed"):
            DriverSpec(kind="fbm", T=float(MAX_GRID_INTERVALS + 1), mesh=1.0,
                       hurst=0.75)

    def test_odd_normals_refused(self):
        with pytest.raises(DomainError, match="even"):
            fgn_circulant(0.75, np.zeros(7), 1.0)
        with pytest.raises(DomainError, match="even"):
            fgn_circulant(0.75, np.zeros(0), 1.0)

    def test_amplitude_scales_path(self):
        base = DriverSpec(kind="fbm", T=0.5, mesh=1 / 64, hurst=0.75, seed=4)
        scaled = DriverSpec(kind="fbm", T=0.5, mesh=1 / 64, hurst=0.75, seed=4,
                            amplitude=0.25)
        assert np.allclose(gen_fbm(scaled).values, 0.25 * gen_fbm(base).values)


class TestAutocovariance:
    @pytest.mark.parametrize("hurst", [0.5, 0.51, 0.75, 0.99, 0.999])
    def test_matches_mpmath(self, hurst):
        # gamma(k) at 50 digits against both forms: the series from lag
        # _SERIES_LAG on has only positive terms, so it errs by at most the
        # roundings of its Horner steps (two each), three powers and two
        # products; the second difference below that lag errs by a few
        # roundings of its terms, up to 2 (k+1)^2H, whatever gamma(k) is
        n, mesh = 4096, 1 / 4096
        got = fgn_autocovariance(hurst, n, mesh)
        series_roundings = 2 * drivers._SERIES_TERMS + 5
        with mpmath.workdps(50):
            two_h = 2 * mpmath.mpf(hurst)
            scale = mpmath.mpf(mesh) ** two_h
            for k in range(n):
                up, down, mid = (abs(mpmath.mpf(k + j)) ** two_h
                                 for j in (1, -1, 0))
                want = (up + down - 2 * mid) / 2 * scale
                if k >= drivers._SERIES_LAG:
                    bound = series_roundings * U * want
                else:
                    bound = (3 * U * (up + down + 2 * mid) * scale
                             + 2 * U * want)
                assert abs(got[k] - want) <= bound, k

    def test_near_lags_keep_the_second_difference(self):
        # below the series lag the autocovariance is the parent formula,
        # bitwise
        hurst, mesh = 0.75, 1 / 64
        k = np.arange(drivers._SERIES_LAG)
        two_h = 2.0 * hurst
        old = 0.5 * (np.abs(k + 1) ** two_h + np.abs(k - 1) ** two_h
                     - 2.0 * np.abs(k) ** two_h) * mesh ** two_h
        got = fgn_autocovariance(hurst, 64, mesh)[:drivers._SERIES_LAG]
        assert got.tobytes() == old.tobytes()


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
