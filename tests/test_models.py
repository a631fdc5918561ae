import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from deup import models
from deup.core import Dataset, NumericsError, RngStream
from deup.models import (
    JITTER_MAX,
    UNIT_KERNEL_CACHE,
    UNIT_KERNEL_MIN_EXPONENT,
    _chol_with_jitter,
    _kernel_from_sq_dists,
    _log_marginal_likelihood,
    _pairwise_sq_dists,
    Learner,
    _SearchKernel,
    gp_fit,
    loss_and_gradients,
    mlp_fit,
)


def dense_gp_reference(X, y, x_query, kernel, lengthscale, signal_y, noise_y, jitter):
    """GP posterior by explicit matrix inversion, mirroring the standardization."""
    y_mean = np.mean(y)
    y_std = np.std(y)
    if y_std < 1e-12:
        y_std = 1.0
    z = (y - y_mean) / y_std
    sig = signal_y / y_std**2
    noise = noise_y / y_std**2

    def k(A, B):
        sq = ((A[:, None, :] - B[None, :, :]) ** 2).sum(-1)
        if kernel == "rbf":
            return sig * np.exp(-0.5 * sq / lengthscale**2)
        r = np.sqrt(sq)
        a = np.sqrt(5.0) * r / lengthscale
        return sig * (1 + a + a**2 / 3) * np.exp(-a)

    K = k(X, X) + (noise + jitter) * np.eye(len(X))
    K_inv = np.linalg.inv(K)
    ks = k(X, x_query[None, :])[:, 0]
    mean = y_mean + y_std * (ks @ K_inv @ z)
    var = y_std**2 * (sig + noise - ks @ K_inv @ ks)
    return mean, max(var, 0.0)


def fit_fixed(X, y, lengthscale=1.0, signal=1.0, noise=1e-6, kernel="rbf"):
    d = Dataset(X, y)
    cfg = {
        "lengthscale": lengthscale,
        "signal_variance": signal,
        "noise_variance": noise,
        "kernel": kernel,
        "n_restarts": 0,
    }
    return gp_fit(d, cfg, RngStream(0, "fit"))


class TestGPFit:
    def test_kernel_name_is_taken_as_given(self):
        # Only load_config lower-cases a name, as validate() expects.
        d = Dataset(np.array([[0.0], [0.5], [1.0]]), np.array([0.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="unknown kernel 'RBF'"):
            gp_fit(d, {"kernel": "RBF"}, RngStream(0, "fit"))

    def test_interpolates_noiseless_line(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 2.0])
        gp = gp_fit(Dataset(X, y), {"noise_variance": 1e-8}, RngStream(0, "fit"))
        for xi, yi in zip(X, y):
            (mean,), _ = gp.predict_batch(xi[None])
            assert abs(mean - yi) < 1e-6

    def test_training_variance_bounded_by_noise(self):
        gen = np.random.default_rng(3)
        X = gen.uniform(-2, 2, size=(12, 2))
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
        gp = gp_fit(Dataset(X, y), None, RngStream(1, "fit"))
        for xi in X:
            _, (var,) = gp.predict_batch(xi[None])
            assert var <= gp.noise_variance + 1e-5

    def test_deterministic_refit(self):
        gen = np.random.default_rng(5)
        d = Dataset(gen.normal(size=(10, 1)), gen.normal(size=10))
        a = gp_fit(d, None, RngStream(9, "fit"))
        b = gp_fit(d, None, RngStream(9, "fit"))
        assert a.lengthscale == b.lengthscale
        assert a.signal_variance == b.signal_variance
        np.testing.assert_array_equal(a.alpha, b.alpha)

    def test_duplicate_inputs_zero_noise(self):
        X = np.array([[0.0], [0.0], [1.0]])
        y = np.array([0.0, 1.0, 0.5])
        cfg = {"lengthscale": 1.0, "signal_variance": 1.0, "noise_variance": 0.0, "n_restarts": 0}
        # Conflicting targets at one x with no noise: the jitter ladder either
        # regularizes the singular kernel (fit averages the duplicates) or raises.
        try:
            gp = gp_fit(Dataset(X, y), cfg, RngStream(0, "fit"))
            (mean,), (var,) = gp.predict_batch(np.array([[0.0]]))
            assert 0.0 <= mean <= 1.0 and var >= 0.0
        except NumericsError:
            pass

    def test_jitter_ladder_escalates_and_gives_up(self):
        twin = _SearchKernel(np.zeros((2, 2)), "rbf")  # two equal inputs: the unit kernel is all ones
        # [[1, 1], [1, 1]] - 1e-5 * I needs jitter above the base level but within the ladder.
        _, jitter = _chol_with_jitter(twin, 0.0, 1.0, -1e-5, 1e-8)
        assert 1e-8 < jitter <= 1e-2

        # Indefinite matrix [[1, 2], [2, 1]]: no jitter in the ladder can fix it.
        with pytest.raises(NumericsError):
            _chol_with_jitter(twin, 0.0, 2.0, -1.0, 1e-8)

    @pytest.mark.parametrize(
        "key, value",
        [("noise_variance", -0.01), ("lengthscale", -0.3), ("lengthscale", 0.0), ("signal_variance", -1.0)],
    )
    def test_rejects_out_of_range_fixed_hyperparameters(self, key, value):
        X = np.linspace(0.0, 3.0, 10)[:, None]
        cfg = {"lengthscale": 0.5, "signal_variance": 1.0, "n_restarts": 0, key: value}
        with pytest.raises(ValueError, match=key):
            gp_fit(Dataset(X, np.sin(X[:, 0])), cfg, RngStream(0, "fit"))

    def test_needs_two_examples(self):
        with pytest.raises(ValueError):
            gp_fit(Dataset([[0.0]], [1.0]), None, RngStream(0, "fit"))

    @pytest.mark.parametrize("floor", [1e-3, 1e-2, 0.1])
    def test_noise_never_ends_below_its_floor(self, floor):
        # A noiseless sine pulls the noise down to its bound, the floor in standardized units.
        for seed in range(5):
            X = np.random.default_rng(seed).uniform(0.0, 1.0, size=(12, 1))
            gp = gp_fit(Dataset(X, np.sin(6 * X[:, 0])), {"noise_floor": floor}, RngStream(seed, "fit"))
            assert gp.noise_variance / gp.y_std**2 >= floor * (1 - 1e-12)

    @pytest.mark.parametrize("key, value", [("lengthscale", 0.3), ("signal_variance", 2.0), ("noise_variance", 0.05)])
    def test_a_set_hyperparameter_is_held_under_default_restarts(self, key, value):
        X = np.linspace(0.0, 1.0, 12)[:, None]
        gp = gp_fit(Dataset(X, np.sin(6 * X[:, 0])), {key: value}, RngStream(0, "fit"))
        assert getattr(gp, key) == pytest.approx(value, rel=1e-12)


class TestGPPosterior:
    def test_matches_dense_reference_fixed_1d(self):
        X = np.array([[-1.0], [0.0], [2.0]])
        y = np.array([0.5, -0.3, 1.2])
        gp = fit_fixed(X, y, lengthscale=0.8, signal=1.3, noise=0.05)
        for xq in [np.array([-0.5]), np.array([0.7]), np.array([3.0])]:
            (mean,), (var,) = gp.predict_batch(xq[None])
            mean_ref, var_ref = dense_gp_reference(
                X, y, xq, "rbf", 0.8, 1.3, 0.05, gp.jitter
            )
            assert abs(mean - mean_ref) < 1e-8
            assert abs(var - var_ref) < 1e-8

    def test_mean_batch_equals_posterior_mean_bitwise(self):
        gen = np.random.default_rng(5)
        for kernel in ("rbf", "matern52"):
            X = gen.uniform(-3, 3, size=(12, 2))
            gp = fit_fixed(X, gen.normal(size=12), 0.9, 1.1, 1e-3, kernel)
            Q = gen.uniform(-4, 4, size=(50, 2))
            assert gp.predict_mean_batch(Q).tobytes() == gp.predict_batch(Q)[0].tobytes()

    def test_matches_dense_reference_random_instances(self):
        gen = np.random.default_rng(17)
        for kernel in ("rbf", "matern52"):
            for trial in range(10):
                n = int(gen.integers(3, 30))
                d = int(gen.integers(1, 6))
                X = gen.uniform(-3, 3, size=(n, d))
                y = gen.normal(size=n)
                ls = float(gen.uniform(0.5, 2.0))
                sig = float(gen.uniform(0.5, 2.0))
                noise = float(gen.uniform(1e-4, 0.1))
                gp = fit_fixed(X, y, ls, sig, noise, kernel)
                xq = gen.uniform(-3, 3, size=d)
                (mean,), (var,) = gp.predict_batch(xq[None])
                mean_ref, var_ref = dense_gp_reference(X, y, xq, kernel, ls, sig, noise, gp.jitter)
                assert abs(mean - mean_ref) < 1e-8
                assert abs(var - var_ref) < 1e-8

    def test_prior_recovery_far_away(self):
        X = np.array([[0.0], [0.5]])
        y = np.array([1.0, 2.0])
        gp = fit_fixed(X, y, lengthscale=0.3, signal=2.0, noise=0.1)
        _, (var,) = gp.predict_batch(np.array([[50.0]]))  # > 10 lengthscales away
        assert abs(var - (gp.signal_variance + gp.noise_variance)) < 0.01 * (
            gp.signal_variance + gp.noise_variance
        )

    def test_interpolation_at_training_point(self):
        X = np.linspace(0, 1, 6)[:, None]
        y = np.sin(6.0 * X[:, 0])
        gp = gp_fit(Dataset(X, y), {"noise_variance": 0.0}, RngStream(0, "fit"))
        (mean,), (var,) = gp.predict_batch(X[2:3])
        assert abs(mean - y[2]) < 1e-5
        assert var <= 1e-5

    def test_variance_nonnegative_property(self):
        gen = np.random.default_rng(23)
        X = gen.uniform(-5, 5, size=(20, 3))
        y = gen.normal(size=20)
        gp = gp_fit(Dataset(X, y), None, RngStream(2, "fit"))
        queries = gen.uniform(-10, 10, size=(500, 3))
        _, var = gp.predict_batch(queries)
        assert np.all(var >= 0)

    @pytest.mark.parametrize("kernel", ["rbf", "matern52"])
    def test_predict_batch_has_the_bits_of_the_solve_triangular_formula(self, kernel):
        gen = np.random.default_rng(8)
        X = gen.uniform(-2, 2, size=(30, 2))
        gp = fit_fixed(X, gen.normal(size=30), 0.7, 1.4, 1e-3, kernel)
        Q = gen.uniform(-3, 3, size=(64, 2))
        Ks = reference_kernel(_pairwise_sq_dists(X, Q), kernel, gp.lengthscale, gp._signal_z)
        v = solve_triangular(gp.chol_factor, Ks, lower=True)
        prior = gp._signal_z + gp._noise_z
        var_z = np.clip(prior - np.einsum("ij,ij->j", v, v), 0.0, prior)
        mean, var = gp.predict_batch(Q)
        assert mean.tobytes() == (gp.y_mean + gp.y_std * (Ks.T @ gp.alpha)).tobytes()
        assert var.tobytes() == (gp.y_std**2 * var_z).tobytes()

    def test_dimension_mismatch(self):
        gp = fit_fixed(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            gp.predict_batch(np.array([[0.0, 1.0]]))


def reference_chol_with_jitter(K, base_jitter):
    """The checked scipy ladder that `_chol_with_jitter` must reproduce bit for bit."""
    jitter = base_jitter
    while jitter <= JITTER_MAX:
        try:
            return cholesky(K + jitter * np.eye(len(K)), lower=True), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericsError("ladder exhausted")


def reference_kernel(sq, kernel, lengthscale, signal):
    """The kernel matrix as one expression per kernel; every build in `models` must have its bits."""
    if kernel == "rbf":
        return signal * np.exp(-0.5 * sq / lengthscale**2)
    a = np.sqrt(5.0) * np.sqrt(np.maximum(sq, 0.0)) / lengthscale
    return signal * (1.0 + a + a * a / 3.0) * np.exp(-a)


def reference_log_marginal_likelihood(sq, z, kernel, log_ls, log_sig, log_noise, base_jitter):
    """The checked scipy likelihood that `_log_marginal_likelihood` must reproduce bit for bit."""
    n = len(z)
    K = reference_kernel(sq, kernel, np.exp(log_ls), np.exp(log_sig))
    K[np.diag_indices_from(K)] += np.exp(log_noise)
    try:
        L, _ = reference_chol_with_jitter(K, base_jitter)
    except NumericsError:
        return -np.inf
    a = solve_triangular(L, z, lower=True)
    return float(-0.5 * a @ a - np.sum(np.log(np.diag(L))) - 0.5 * n * np.log(2 * np.pi))


def duplicated_grid():
    """Ten inputs on five points: a singular kernel that large signals push off the ladder."""
    X = np.repeat(np.linspace(0.0, 1.0, 5), 2)[:, None]
    return _pairwise_sq_dists(X, X), np.linspace(-1.0, 1.0, 10)


class TestLeanLikelihood:
    @pytest.mark.parametrize("kernel", ["rbf", "matern52"])
    def test_matches_reference_bitwise_on_random_instances(self, kernel):
        gen = np.random.default_rng(17)
        for n in [2, 130, *gen.integers(2, 131, size=40)]:
            dim = int(gen.integers(1, 4))
            X = gen.uniform(-1.0, 1.0, size=(n, dim))
            X[gen.random(n) < 0.2] = X[0]  # duplicate inputs
            sq = _pairwise_sq_dists(X, X)
            z = gen.normal(size=n)
            theta = (gen.uniform(-4.0, 2.0), gen.uniform(np.log(1e-3), np.log(1e3)), gen.uniform(np.log(1e-6), 0.0))
            lean = _log_marginal_likelihood(_SearchKernel(sq, kernel), z, *theta, 1e-8)
            ref = reference_log_marginal_likelihood(sq, z, kernel, *theta, 1e-8)
            assert lean.hex() == ref.hex(), (n, theta)

    @pytest.mark.parametrize("log_sig, jitter", [(np.log(1e9), 1e-7), (np.log(1e16), None)])
    def test_escalated_and_exhausted_ladders_match_reference(self, log_sig, jitter):
        sq, z = duplicated_grid()
        theta = (np.log(0.5), log_sig, np.log(1e-300), 1e-8)
        lean = _log_marginal_likelihood(_SearchKernel(sq, "rbf"), z, *theta)
        ladder = (_SearchKernel(sq, "rbf"), np.log(0.5), np.exp(log_sig), 1e-300, 1e-8)
        if jitter is None:
            with pytest.raises(NumericsError):
                _chol_with_jitter(*ladder)
            assert lean == -np.inf
        else:
            assert _chol_with_jitter(*ladder)[1] == jitter
        assert lean.hex() == reference_log_marginal_likelihood(sq, z, "rbf", *theta).hex()

    @pytest.mark.parametrize("kernel", ["rbf", "matern52"])
    def test_kernel_builds_match_reference_bitwise(self, kernel):
        gen = np.random.default_rng(4)
        X = gen.uniform(-1.0, 1.0, size=(40, 2))
        sq = _pairwise_sq_dists(X, X)
        search = _SearchKernel(sq, kernel)
        zeroed = 0
        for log_ls, log_sig in gen.uniform(-3.0, 3.0, size=(10, 2)):
            signal = np.exp(log_sig)
            ref = reference_kernel(sq, kernel, np.exp(log_ls), signal)
            assert _kernel_from_sq_dists(sq, kernel, np.exp(log_ls), signal).tobytes() == ref.tobytes()
            if kernel == "rbf":  # the search's RBF kernel is +0.0 at and below the exponent floor
                floored = -0.5 * sq / np.exp(log_ls) ** 2 <= UNIT_KERNEL_MIN_EXPONENT
                zeroed += np.count_nonzero(floored & (ref > 0.0))
                ref = np.where(floored, 0.0, ref)
            # Twice: the second build of an RBF lengthscale reuses its cached unit kernel.
            for _ in range(2):
                # The diagonal written is `signal`, so this also checks that the kernel's own diagonal is.
                K = search.write(log_ls, signal, signal)
                assert K is search.buf and K.flags.f_contiguous
                assert K.tobytes(order="C") == ref.tobytes()
                K[:] = 0.0  # the factor overwrites the buffer: that leaves the cache alone
        assert zeroed > 0 if kernel == "rbf" else zeroed == 0

    def test_short_lengthscale_kernel_has_no_subnormal_and_keeps_the_likelihood(self):
        # The error GP's late regime: 124 rows on a line, at the search's shortest lengthscale.
        X = np.linspace(0.0, 1.0, 124)[:, None]
        sq = _pairwise_sq_dists(X, X)
        z = np.sin(20.0 * X[:, 0])
        z = (z - z.mean()) / z.std()
        search = _SearchKernel(sq, "rbf")
        tiny = np.finfo(np.float64).tiny
        for log_ls, zeroing in ((np.log(1e-2), True), (np.log(10**-0.5), False)):
            # The branch `_unit_kernel` takes: zeroing only when some exponent is at or below the floor.
            assert (search.neg_half_sq_min / np.exp(log_ls) ** 2 <= UNIT_KERNEL_MIN_EXPONENT) == zeroing
            for log_sig in (np.log(1e-3), 0.0, np.log(1e3)):
                K = search.write(log_ls, np.exp(log_sig), np.exp(log_sig))
                assert not np.any((K != 0.0) & (np.abs(K) < tiny))
                ref = reference_kernel(sq, "rbf", np.exp(log_ls), np.exp(log_sig))
                assert np.any((K == 0.0) & (ref > 0.0)) == zeroing
                if not zeroing:
                    assert K.tobytes(order="C") == ref.tobytes()
                for log_noise in (np.log(1e-6), np.log(1e-2)):
                    theta = (log_ls, log_sig, log_noise, 1e-8)
                    lean = _log_marginal_likelihood(search, z, *theta)
                    assert lean.hex() == reference_log_marginal_likelihood(sq, z, "rbf", *theta).hex()

    def test_unit_kernel_cache_stays_bounded(self):
        X = np.linspace(0.0, 1.0, 30)[:, None]
        search = _SearchKernel(_pairwise_sq_dists(X, X), "rbf")
        for log_ls in np.linspace(-3.0, 1.0, 10):
            search.write(log_ls, 1.0, 1.0)
            search.write(log_ls, np.e, np.e)
        info = search.unit.cache_info()
        assert (info.maxsize, info.currsize) == (UNIT_KERNEL_CACHE, UNIT_KERNEL_CACHE)
        assert (info.hits, info.misses) == (10, 10)

    @pytest.mark.parametrize("log_sig", [0.0, np.log(1e9)])
    def test_factor_has_scipy_bytes_and_order(self, log_sig):
        sq, _ = duplicated_grid()
        K = reference_kernel(sq, "matern52", np.exp(np.log(0.3)), np.exp(log_sig))
        ref, ref_jitter = reference_chol_with_jitter(K, 1e-8)
        search = _SearchKernel(sq, "matern52")
        L, jitter = _chol_with_jitter(search, np.log(0.3), np.exp(log_sig), 0.0, 1e-8, clean=1)
        assert jitter == ref_jitter and L is search.buf  # factored in place
        assert L.flags.f_contiguous == ref.flags.f_contiguous and L.flags.c_contiguous == ref.flags.c_contiguous
        assert L.tobytes(order="A") == ref.tobytes(order="A")


def golden_case(name):
    """(dataset, gp config) of one pinned `gp_fit`; each case draws from its own generator."""
    gen = np.random.default_rng(11)
    if name == "rbf":
        X = gen.uniform(-2.0, 2.0, size=(12, 1))
        return Dataset(X, np.sin(2 * X[:, 0]) + 0.1 * gen.normal(size=12)), None
    if name == "matern52":
        X = gen.uniform(0.0, 1.0, size=(15, 2))
        return Dataset(X, X[:, 0] ** 2 - np.cos(3 * X[:, 1])), {"kernel": "matern52"}
    if name == "fixed_noise":
        X = gen.uniform(0.0, 1.0, size=(10, 1))
        return Dataset(X, np.exp(X[:, 0]) + 0.1 * gen.normal(size=10)), {"noise_variance": 0.01}
    if name == "rbf_n120":  # the error GP's regime: 1-D, many rows, where the unit-kernel cache hits most
        X = gen.uniform(0.0, 1.0, size=(120, 1))
        return Dataset(X, np.sin(8 * X[:, 0]) + 0.3 * gen.normal(size=120)), None
    # Duplicate inputs, zero noise and a huge signal: the fit escalates jitter.
    X = np.repeat(np.linspace(0.0, 1.0, 5), 2)[:, None]
    y = np.cos(4 * X[:, 0]) + 0.05 * gen.normal(size=10)
    cfg = {"lengthscale": 0.5, "signal_variance": 1e10, "noise_variance": 0.0, "n_restarts": 0}
    return Dataset(X, y), cfg


# float.hex of lengthscale, signal and noise variance, log marginal likelihood,
# and the jitter; then sha256 of alpha's bytes. A change that moves the search
# trajectory on purpose must regenerate these values.
GOLDEN_FITS = {
    "rbf": (
        "0x1.076ee517e31c4p-2",
        "0x1.14f24f2e8d9dcp-2",
        "0x1.c453a1195a65fp-23",
        "-0x1.3f497feed978bp+2",
        "0x1.5798ee2308c3ap-27",
        "9f241b4ec5717448996a886911f8a79cdf462ab41bcef22b8742b00f3e1cb716",
    ),
    "matern52": (
        "0x1.ef1807e2abfcbp+0",
        "0x1.91b67da57dc73p+2",
        "0x1.5e534de00cbe9p-22",
        "0x1.2e6b8cb3adcd6p+2",
        "0x1.5798ee2308c3ap-27",
        "758b64762078c5b2f9922d21a2597627443ebe1d393298b0c45c43792128b6c7",
    ),
    "fixed_noise": (
        "0x1.9421bf4b763a3p-1",
        "0x1.f0ed133450952p-1",
        "0x1.47ae147ae147ap-7",
        "-0x1.fc3cfad55a2a8p+0",
        "0x1.5798ee2308c3ap-27",
        "62064ae74dd9395c835b2147b53c309e60d3d5d0e6d09e9daddf2ee997384873",
    ),
    "rbf_n120": (
        "0x1.7b3bfa6f409c7p-3",
        "0x1.30cde1d9c5829p-1",
        "0x1.280257cbe8901p-4",
        "-0x1.03fc4f37cd955p+6",
        "0x1.5798ee2308c3ap-27",
        "f8f56b76ffdba85023034edb9d7a32b500c5abbcefccc9ccbcd308eb89f3ed0a",
    ),
    "duplicates": (
        "0x1.0000000000000p-1",
        "0x1.2a05f20000002p+33",
        "0x1.9479a22bc8bafp-998",
        "-0x1.9b6ca3ad37106p+11",
        "0x1.0c6f7a0b5ed8dp-20",
        "c9b449f66b4d95d088717432f28fab8f568b8d6778e868add8465f0e832f6dd0",
    ),
}


# The search trajectory of a golden case: the number of likelihood evaluations
# and sha256 of the thetas in the order evaluated, one line of float.hex per
# theta. GOLDEN_FITS pins only where the search ends.
GOLDEN_TRAJECTORIES = {
    "rbf": (440, "07586c7621ad2271dd9d178e37999c5e579f4a0bc7c6b0220d5c167da8666c99"),
    "rbf_n120": (441, "fef2b9e28d75b34d8e1e032087de3c64ec99c51711f1667b305ba237ba07ec17"),
    "matern52": (462, "9ac3682435a5886464906d397a04cc9d03f7794ba17c71b0d4e397dc6c6265f2"),
    "fixed_noise": (294, "4874c00d1749ee22725ea9336e7b2f49da22a75ba9c4b4a4364eed059ffd305d"),
}


def spy_on_thetas(monkeypatch) -> list:
    """The (log_ls, log_sig, log_noise) of every likelihood evaluation, in order, once patched in."""
    thetas = []

    def spy(kernel, z, log_ls, log_sig, log_noise, base_jitter):
        thetas.append((log_ls, log_sig, log_noise))
        return _log_marginal_likelihood(kernel, z, log_ls, log_sig, log_noise, base_jitter)

    monkeypatch.setattr(models, "_log_marginal_likelihood", spy)
    return thetas


def spy_on_factors(monkeypatch) -> list:
    """The size of each matrix `models._potrf` factors, in order, once patched in."""
    factors, potrf = [], models._potrf

    def spy(K, *args):
        factors.append(len(K))
        return potrf(K, *args)

    monkeypatch.setattr(models, "_potrf", spy)
    return factors


def gp_signature(gp) -> tuple:
    """Every bit of a fitted GP: its hyperparameters, likelihood and jitter, alpha and the factor."""
    values = (gp.lengthscale, gp.signal_variance, gp.noise_variance, gp.log_marginal_likelihood, gp.jitter)
    return tuple(float(v).hex() for v in values) + (gp.alpha.tobytes(), gp.chol_factor.tobytes(order="A"))


class TestLogMarginalLikelihoodSearch:
    def test_search_improves_over_bad_start(self):
        # The fitted likelihood should be at least as good as any fixed guess.
        gen = np.random.default_rng(31)
        X = np.sort(gen.uniform(0, 4, size=25))[:, None]
        y = np.sin(2 * X[:, 0]) + 0.05 * gen.normal(size=25)
        d = Dataset(X, y)
        fitted = gp_fit(d, None, RngStream(0, "fit"))
        fixed = fit_fixed(X, y, lengthscale=50.0, signal=1.0, noise=0.5)
        assert fitted.log_marginal_likelihood >= fixed.log_marginal_likelihood

    def test_evaluates_each_theta_once(self, monkeypatch):
        thetas = spy_on_thetas(monkeypatch)
        gen = np.random.default_rng(2)
        X = gen.uniform(0.0, 1.0, size=(20, 1))
        gp_fit(Dataset(X, np.sin(6 * X[:, 0])), None, RngStream(0, "fit"))
        assert len(thetas) > 100
        assert len(set(thetas)) == len(thetas)

    @pytest.mark.parametrize("name", sorted(GOLDEN_TRAJECTORIES))
    def test_pinned_trajectories(self, name, monkeypatch):
        thetas = spy_on_thetas(monkeypatch)
        d, cfg = golden_case(name)
        gp_fit(d, cfg, RngStream(3, "fit"))
        text = "\n".join(" ".join(float(v).hex() for v in theta) for theta in thetas)
        assert (len(thetas), hashlib.sha256(text.encode()).hexdigest()) == GOLDEN_TRAJECTORIES[name]

    def test_search_evaluations_allocate_less_than_one_kernel_matrix(self):
        d, _ = golden_case("rbf_n120")
        n = len(d)
        X = d.inputs()
        search = _SearchKernel(_pairwise_sq_dists(X, X), "rbf")
        z = d.targets() - d.targets().mean()
        lengthscales = np.log([0.05, 0.1, 0.2])  # no more than the cache keeps
        thetas = [(ls, sig, noise) for ls in lengthscales for sig in (-1.0, 0.0, 1.0) for noise in np.log([1e-4, 1e-3, 1e-2])]
        for log_ls in lengthscales:
            search.unit(log_ls)
        tracemalloc.start()
        try:
            for theta in thetas * 2:  # 54 evaluations
                assert np.isfinite(_log_marginal_likelihood(search, z, *theta, 1e-8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, peak

    @pytest.mark.parametrize("name", ["rbf", "matern52", "fixed_noise", "rbf_n120"])
    def test_every_evaluation_matches_reference_bitwise(self, name, monkeypatch):
        calls = []

        def spy(kernel, z, *theta):
            lean = _log_marginal_likelihood(kernel, z, *theta)
            calls.append((lean.hex(), reference_log_marginal_likelihood(kernel.sq, z, kernel.kernel, *theta).hex()))
            if kernel.kernel == "rbf":
                assert kernel.unit.cache_info().currsize <= UNIT_KERNEL_CACHE
            return lean

        monkeypatch.setattr(models, "_log_marginal_likelihood", spy)
        d, cfg = golden_case(name)
        gp_fit(d, cfg, RngStream(3, "fit"))
        assert len(calls) > 100
        assert all(lean == ref for lean, ref in calls)

    @pytest.mark.parametrize("name", sorted(GOLDEN_FITS))
    def test_pinned_fits(self, name):
        d, cfg = golden_case(name)
        gp = gp_fit(d, cfg, RngStream(3, "fit"))
        got = tuple(float(v).hex() for v in (
            gp.lengthscale, gp.signal_variance, gp.noise_variance, gp.log_marginal_likelihood, gp.jitter
        ))
        assert got + (hashlib.sha256(gp.alpha.tobytes()).hexdigest(),) == GOLDEN_FITS[name]

    def test_each_evaluated_theta_is_factored_once_plus_the_final_factor(self, monkeypatch):
        factors = spy_on_factors(monkeypatch)
        d, cfg = golden_case("rbf")  # no evaluation of this search escalates its jitter
        gp_fit(d, cfg, RngStream(3, "fit"))
        assert len(factors) == GOLDEN_TRAJECTORIES["rbf"][0] + 1

    @pytest.mark.parametrize("signal", [1e9, 1e16])
    def test_an_escalating_search_factors_each_rung_once(self, signal, monkeypatch):
        # Duplicated inputs, zero noise and a held large signal: the search moves the
        # lengthscale alone, and each evaluation climbs the jitter ladder (1e16: to its end).
        sq, y = duplicated_grid()
        X = np.repeat(np.linspace(0.0, 1.0, 5), 2)[:, None]
        factors, rungs = spy_on_factors(monkeypatch), []
        evaluate = models._log_marginal_likelihood

        def spy(kernel, z, log_ls, log_sig, log_noise, base_jitter):
            before = len(factors)
            value = evaluate(kernel, z, log_ls, log_sig, log_noise, base_jitter)
            K = reference_kernel(sq, "rbf", np.exp(log_ls), np.exp(log_sig))
            K[np.diag_indices_from(K)] += np.exp(log_noise)
            try:
                jitter = reference_chol_with_jitter(K, base_jitter)[1]
            except NumericsError:
                jitter = JITTER_MAX  # every rung failed
            rungs.append((len(factors) - before, round(np.log10(jitter / base_jitter)) + 1))
            return value

        monkeypatch.setattr(models, "_log_marginal_likelihood", spy)
        cfg = {"signal_variance": signal * np.var(y), "noise_variance": 0.0}
        if signal < 1e16:
            gp_fit(Dataset(X, y), cfg, RngStream(3, "fit"))
        else:
            with pytest.raises(NumericsError):
                gp_fit(Dataset(X, y), cfg, RngStream(3, "fit"))
        factored, expected = zip(*rungs)
        assert len(rungs) > 10 and factored == expected
        assert max(factored) >= 2 and (set(factored) == {7}) == (signal == 1e16)

    def test_zero_and_one_restarts_fit_the_same_gp(self):
        # Each runs one start, the median-distance one; n_restarts - 1 uniform draws follow it.
        d, _ = golden_case("rbf")
        zero, one = (gp_fit(d, {"n_restarts": k}, RngStream(3, "fit")) for k in (0, 1))
        assert gp_signature(zero) == gp_signature(one)

    def test_fixed_fit_factors_its_kernel_once(self, monkeypatch):
        calls = []
        chol_with_jitter = models._chol_with_jitter

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return chol_with_jitter(*args, **kwargs)

        monkeypatch.setattr(models, "_chol_with_jitter", spy)
        d, cfg = golden_case("duplicates")  # fixed hyperparameters, escalated jitter
        gp_fit(d, cfg, RngStream(3, "fit"))
        assert calls == [{"clean": 1}]

class TestMLP:
    def test_constant_target_reaches_tiny_mse(self):
        X = np.random.default_rng(0).uniform(-1, 1, size=(20, 2))
        y = np.full(20, 3.7)
        mlp = mlp_fit(Dataset(X, y), None, RngStream(0, "mlp"))
        assert np.mean((mlp.predict_mean_batch(X) - y) ** 2) < 1e-4

    def test_gradients_match_finite_differences(self):
        gen = np.random.default_rng(7)
        X = gen.normal(size=(8, 3))
        y = gen.normal(size=8)
        from deup.models import _init_params

        weights, biases = _init_params([3, 16, 16, 1], np.random.default_rng(1))
        loss0, grad_w, grad_b = loss_and_gradients(weights, biases, X, y)
        h = 1e-5
        for _ in range(10):
            li = int(gen.integers(0, len(weights)))
            idx = tuple(int(gen.integers(0, s)) for s in weights[li].shape)
            w_plus = [W.copy() for W in weights]
            w_minus = [W.copy() for W in weights]
            w_plus[li][idx] += h
            w_minus[li][idx] -= h
            lp, _, _ = loss_and_gradients(w_plus, biases, X, y)
            lm, _, _ = loss_and_gradients(w_minus, biases, X, y)
            fd = (lp - lm) / (2 * h)
            analytic = grad_w[li][idx]
            denom = max(abs(fd), abs(analytic), 1e-8)
            assert abs(fd - analytic) / denom < 1e-4

    def test_same_seed_identical_weights(self):
        gen = np.random.default_rng(2)
        d = Dataset(gen.normal(size=(10, 2)), gen.normal(size=10))
        a = mlp_fit(d, {"epochs": 50}, RngStream(5, "mlp"))
        b = mlp_fit(d, {"epochs": 50}, RngStream(5, "mlp"))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_fit_reduces_loss_on_smooth_target(self):
        gen = np.random.default_rng(4)
        X = gen.uniform(-1, 1, size=(40, 1))
        y = np.sin(3 * X[:, 0])
        mlp = mlp_fit(Dataset(X, y), None, RngStream(1, "mlp"))
        assert np.mean((mlp.predict_mean_batch(X) - y) ** 2) < 0.05

    @pytest.mark.parametrize("epochs, warm_epochs", [(40, 10), (3, 1)])
    def test_warm_start_runs_a_quarter_of_the_epochs_from_init(self, epochs, warm_epochs, monkeypatch):
        gen = np.random.default_rng(3)
        X = gen.uniform(-1, 1, size=(12, 2))
        cfg = {"epochs": epochs, "hidden_units": 8}
        prev = mlp_fit(Dataset(X[:10], np.sin(X[:10, 0])), cfg, RngStream(0, "mlp"))
        before = [p.copy() for p in prev.weights + prev.biases]
        starts = []
        loss = models.loss_and_gradients

        def spy(weights, biases, bx, bz):
            starts.append([p.copy() for p in weights + biases])
            return loss(weights, biases, bx, bz)

        monkeypatch.setattr(models, "loss_and_gradients", spy)
        warm = mlp_fit(Dataset(X, np.sin(X[:, 0])), cfg, RngStream(1, "mlp"), init=prev)
        assert len(starts) == warm_epochs  # full batch: one step per epoch
        for p0, start, after in zip(before, starts[0], prev.weights + prev.biases, strict=True):
            np.testing.assert_array_equal(start, p0)  # the first step starts from init's weights
            np.testing.assert_array_equal(after, p0)  # and init is left unchanged
        assert not np.array_equal(warm.weights[0], prev.weights[0])

    def test_learner_warm_starts_an_mlp_from_a_previous_mlp(self):
        X = np.random.default_rng(3).uniform(-1, 1, size=(12, 2))
        cfg = {"epochs": 12, "hidden_units": 8}
        prev = mlp_fit(Dataset(X[:10], np.sin(X[:10, 0])), cfg, RngStream(0, "mlp"))
        d = Dataset(X, np.sin(X[:, 0]))
        learned = Learner("mlp", cfg).fit(d, RngStream(1, "mlp"), previous=prev)
        direct = mlp_fit(d, cfg, RngStream(1, "mlp"), init=prev)
        for a, b in zip(learned.weights + learned.biases, direct.weights + direct.biases, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("previous", ["gp", None])
    def test_learner_fits_an_mlp_from_scratch_without_a_previous_mlp(self, previous):
        X = np.random.default_rng(3).uniform(-1, 1, size=(12, 2))
        d = Dataset(X, np.sin(X[:, 0]))
        cfg = {"epochs": 12, "hidden_units": 8}
        previous = gp_fit(d, None, RngStream(0, "fit")) if previous == "gp" else None
        learned = Learner("mlp", cfg).fit(d, RngStream(1, "mlp"), previous=previous)
        scratch = mlp_fit(d, cfg, RngStream(1, "mlp"))
        for a, b in zip(learned.weights + learned.biases, scratch.weights + scratch.biases, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_learner_rejects_an_unknown_kind_when_built(self):
        with pytest.raises(ValueError, match="unknown learner kind 'svm'"):
            Learner("svm")

    @pytest.mark.parametrize("width", [1, 2])
    def test_predict_rejects_another_query_width(self, width):
        X = np.random.default_rng(0).uniform(-1, 1, size=(10, 3))
        mlp = mlp_fit(Dataset(X, X[:, 0]), {"epochs": 2, "hidden_units": 8}, RngStream(0, "mlp"))
        with pytest.raises(ValueError, match=f"query dimension {width} != training dimension 3"):
            mlp.predict_batch(np.zeros((4, width)))

    @pytest.mark.parametrize("step", [1, 2, 60, 400])
    def test_adam_update_has_the_bits_of_the_per_array_formula(self, step):
        gen = np.random.default_rng(step)
        n, lr = 2000, 1e-3
        # Gradients from subnormal to 1e4 in size, with zeros; moments as a run leaves them.
        g = gen.normal(size=n) * np.logspace(-320, 4, n)
        g[::97] = 0.0
        theta, m, v = gen.normal(size=n), 0.1 * gen.normal(size=n), gen.uniform(0.0, 0.01, size=n) ** 2
        b1, b2, eps = models.ADAM_BETA1, models.ADAM_BETA2, models.ADAM_EPS
        c1, c2 = 1.0 - b1**step, 1.0 - b2**step
        m_ref = b1 * m + (1 - b1) * g
        v_ref = b2 * v + (1 - b2) * g**2
        theta_ref = theta - lr * (m_ref / c1) / (np.sqrt(v_ref / c2) + eps)
        models._adam_update(theta, g.copy(), m, v, np.empty(n), step, lr)
        for got, ref in ((theta, theta_ref), (m, m_ref), (v, v_ref)):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("rows", [5, 256])
    @pytest.mark.parametrize("hidden_layers", [3, 0])
    def test_predict_batch_has_the_bits_of_the_out_of_place_formula(self, rows, hidden_layers):
        gen = np.random.default_rng(rows)
        X = gen.uniform(-1.0, 1.0, size=(40, 5))
        d = Dataset(X, np.sin(3 * X[:, 0]) + X[:, 1] ** 2)
        mlp = mlp_fit(d, {"epochs": 5, "hidden_layers": hidden_layers}, RngStream(0, "mlp"))
        Q = gen.uniform(-2.0, 2.0, size=(rows, 5))
        h = (Q - mlp.x_mean) / mlp.x_std
        for i, (W, b) in enumerate(zip(mlp.weights, mlp.biases)):
            pre = h @ W + b
            h = pre if i == len(mlp.weights) - 1 else np.maximum(pre, 0.0)
        assert mlp.predict_batch(Q).tobytes() == (mlp.y_mean + mlp.y_std * h[:, 0]).tobytes()

    def test_weights_and_biases_are_views_into_one_vector(self):
        d, cfg, _ = golden_mlp_case("full_batch")
        mlp = mlp_fit(d, {**cfg, "epochs": 2}, RngStream(0, "mlp"))
        theta = mlp.weights[0].base
        assert all(p.base is theta for p in mlp.weights + mlp.biases)
        assert np.concatenate([p.ravel() for p in mlp.weights + mlp.biases]).tobytes() == theta.tobytes()

    def test_warm_start_rejects_other_layer_sizes(self):
        d = Dataset(np.linspace(0, 1, 6)[:, None], np.linspace(0, 1, 6))
        prev = mlp_fit(d, {"epochs": 2, "hidden_units": 8}, RngStream(0, "mlp"))
        with pytest.raises(ValueError, match="warm start"):
            mlp_fit(d, {"epochs": 2, "hidden_units": 16}, RngStream(0, "mlp"), init=prev)


def golden_mlp_case(name):
    """(dataset, mlp config, init) of one pinned `mlp_fit`; each case draws from its own generator."""
    gen = np.random.default_rng(13)
    if name == "mini_batch":  # 300 rows at batch size 64: four full batches and a short one of 44
        X = gen.uniform(-1.0, 1.0, size=(300, 3))
        return Dataset(X, np.sin(3 * X[:, 0]) * X[:, 1] + 0.1 * gen.normal(size=300)), {"epochs": 6, "batch_size": 64, "hidden_units": 32}, None
    X = gen.uniform(-1.0, 1.0, size=(40, 2))
    d = Dataset(X, np.sin(3 * X[:, 0]) + X[:, 1] ** 2)
    if name == "full_batch":  # the error MLP's shape: 3 x 128, full batch
        return d, {"epochs": 20}, None
    if name == "warm_start":
        cfg = {"epochs": 24, "hidden_units": 16}
        return d, cfg, mlp_fit(d.take(np.arange(30)), cfg, RngStream(2, "mlp"))
    return d, {"epochs": 50, "hidden_layers": 0}, None  # a linear model


# sha256 of the final weights' and biases' bytes, in layer order, weights first.
# A change that moves the training arithmetic on purpose must regenerate these.
GOLDEN_MLP = {
    "full_batch": "29506175047c59f0199f10c179bc50d0b134ac2ad0631b29ceb8a9ab619a08bd",
    "mini_batch": "40bcfe730f6b010c0665ea1f5146bd1a7a393965ee61637894b6f5bfd6bd6a30",
    "warm_start": "bbb601912a2e5aa4b227fe7303662de48363fd86c7b39d6dd34931445dad2a42",
    "no_hidden": "e4e76c12e36a6f42afa695825b5a61e166ea786f434b91f57f87facd4f36cf91",
}


@pytest.mark.parametrize("name", ["full_batch", "mini_batch", "warm_start", "no_hidden"])
def test_pinned_mlp_fits(name):
    d, cfg, init = golden_mlp_case(name)
    mlp = mlp_fit(d, cfg, RngStream(3, "mlp"), init=init)
    assert hashlib.sha256(b"".join(p.tobytes() for p in mlp.weights + mlp.biases)).hexdigest() == GOLDEN_MLP[name]


# Both fits standardize with a guard: a standard deviation under 1e-12 counts
# as 1. Constant data reach it with a deviation of about 5.6e-17, not 0.
# GP: float.hex of y_mean, y_std, lengthscale, signal and noise variance, log
# marginal likelihood and jitter; then sha256 of alpha's bytes.
GOLDEN_CONSTANT_TARGET_GP = (
    (
        "0x1.3333333333332p-2",
        "0x1.0000000000000p+0",
        "0x1.88fd571034538p+6",
        "0x1.0624dd2f1a9fdp-10",
        "0x1.0c6f7a0b5ed8fp-20",
        "0x1.0c1bc32a153f5p+6",
        "0x1.5798ee2308c3ap-27",
    ),
    "083c477d82dbaa9866dc2e19fb9e162e5ccebc3342750c95e9ef7cf3813b80fd",
)
# MLP: sha256 of x_mean, x_std, the weights and the biases, in that order; then
# sha256 of its predictions at five query rows.
GOLDEN_CONSTANT_COLUMN_MLP = (
    "026155d0108ed77460e22fe6a4de2b6bf00b057b145a3ba82915b48ff447ff6e",
    "73d817718b5ded8bf09be1c8d00c5aadf9c66c66ac096859a7e077b69784a0c7",
)


def test_pinned_gp_fit_on_constant_targets():
    X = np.random.default_rng(17).uniform(0.0, 1.0, size=(12, 2))
    gp = gp_fit(Dataset(X, np.full(12, 0.3)), None, RngStream(3, "fit"))
    got = tuple(float(v).hex() for v in (
        gp.y_mean, gp.y_std, gp.lengthscale, gp.signal_variance, gp.noise_variance, gp.log_marginal_likelihood, gp.jitter
    ))
    assert (got, hashlib.sha256(gp.alpha.tobytes()).hexdigest()) == GOLDEN_CONSTANT_TARGET_GP


def test_pinned_mlp_fit_with_a_constant_input_column():
    gen = np.random.default_rng(19)
    X = gen.uniform(-1.0, 1.0, size=(30, 3))
    X[:, 1] = 0.3
    mlp = mlp_fit(Dataset(X, np.sin(3 * X[:, 0]) - X[:, 2]), {"epochs": 20, "hidden_units": 16}, RngStream(3, "mlp"))
    assert mlp.x_std[1] == 1.0
    params = hashlib.sha256(b"".join(p.tobytes() for p in [mlp.x_mean, mlp.x_std] + mlp.weights + mlp.biases)).hexdigest()
    Q = gen.uniform(-1.0, 1.0, size=(5, 3))
    assert (params, hashlib.sha256(mlp.predict_batch(Q).tobytes()).hexdigest()) == GOLDEN_CONSTANT_COLUMN_MLP
