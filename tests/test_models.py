import hashlib

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from deup import models
from deup.core import Dataset, NumericsError, RngStream
from deup.models import (
    JITTER_MAX,
    _chol_with_jitter,
    _kernel_from_sq_dists,
    _log_marginal_likelihood,
    _pairwise_sq_dists,
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
    d = Dataset.from_arrays(X, y)
    cfg = {
        "lengthscale": lengthscale,
        "signal_variance": signal,
        "noise_variance": noise,
        "kernel": kernel,
        "n_restarts": 0,
    }
    return gp_fit(d, cfg, RngStream(0, "fit"))


class TestGPFit:
    def test_interpolates_noiseless_line(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 2.0])
        gp = gp_fit(Dataset.from_arrays(X, y), {"noise_variance": 1e-8}, RngStream(0, "fit"))
        for xi, yi in zip(X, y):
            (mean,), _ = gp.predict_batch(xi[None])
            assert abs(mean - yi) < 1e-6

    def test_training_variance_bounded_by_noise(self):
        gen = np.random.default_rng(3)
        X = gen.uniform(-2, 2, size=(12, 2))
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
        gp = gp_fit(Dataset.from_arrays(X, y), None, RngStream(1, "fit"))
        for xi in X:
            _, (var,) = gp.predict_batch(xi[None])
            assert var <= gp.noise_variance + 1e-5

    def test_deterministic_refit(self):
        gen = np.random.default_rng(5)
        d = Dataset.from_arrays(gen.normal(size=(10, 1)), gen.normal(size=10))
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
            gp = gp_fit(Dataset.from_arrays(X, y), cfg, RngStream(0, "fit"))
            (mean,), (var,) = gp.predict_batch(np.array([[0.0]]))
            assert 0.0 <= mean <= 1.0 and var >= 0.0
        except NumericsError:
            pass

    def test_jitter_ladder_escalates_and_gives_up(self):
        # Needs jitter above the base level but within the ladder.
        K = np.array([[1.0, 1.0], [1.0, 1.0]]) - 1e-5 * np.eye(2)
        _, jitter = _chol_with_jitter(K, 1e-8)
        assert 1e-8 < jitter <= 1e-2

        # Indefinite matrix: no jitter in the ladder can fix it.
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericsError):
            _chol_with_jitter(bad, 1e-8)

    def test_needs_two_examples(self):
        with pytest.raises(ValueError):
            gp_fit(Dataset.from_arrays([[0.0]], [1.0]), None, RngStream(0, "fit"))


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
        gp = gp_fit(Dataset.from_arrays(X, y), {"noise_variance": 0.0}, RngStream(0, "fit"))
        (mean,), (var,) = gp.predict_batch(X[2:3])
        assert abs(mean - y[2]) < 1e-5
        assert var <= 1e-5

    def test_variance_nonnegative_property(self):
        gen = np.random.default_rng(23)
        X = gen.uniform(-5, 5, size=(20, 3))
        y = gen.normal(size=20)
        gp = gp_fit(Dataset.from_arrays(X, y), None, RngStream(2, "fit"))
        queries = gen.uniform(-10, 10, size=(500, 3))
        _, var = gp.predict_batch(queries)
        assert np.all(var >= 0)

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


def reference_log_marginal_likelihood(sq, z, kernel, log_ls, log_sig, log_noise, base_jitter):
    """The checked scipy likelihood that `_log_marginal_likelihood` must reproduce bit for bit."""
    n = len(z)
    K = _kernel_from_sq_dists(sq, kernel, np.exp(log_ls), np.exp(log_sig))
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
            lean = _log_marginal_likelihood(sq, z, kernel, *theta, 1e-8)
            ref = reference_log_marginal_likelihood(sq, z, kernel, *theta, 1e-8)
            assert lean.hex() == ref.hex(), (n, theta)

    @pytest.mark.parametrize("log_sig, jitter", [(np.log(1e9), 1e-7), (np.log(1e16), None)])
    def test_escalated_and_exhausted_ladders_match_reference(self, log_sig, jitter):
        sq, z = duplicated_grid()
        args = (sq, z, "rbf", np.log(0.5), log_sig, np.log(1e-300), 1e-8)
        K = _kernel_from_sq_dists(sq, "rbf", 0.5, np.exp(log_sig))
        if jitter is None:
            with pytest.raises(NumericsError):
                _chol_with_jitter(K, 1e-8)
            assert _log_marginal_likelihood(*args) == -np.inf
        else:
            assert _chol_with_jitter(K, 1e-8)[1] == jitter
        assert _log_marginal_likelihood(*args).hex() == reference_log_marginal_likelihood(*args).hex()

    @pytest.mark.parametrize("log_sig", [0.0, np.log(1e9)])
    def test_factor_has_scipy_bytes_and_order(self, log_sig):
        sq, _ = duplicated_grid()
        K = _kernel_from_sq_dists(sq, "matern52", 0.3, np.exp(log_sig))
        ref, ref_jitter = reference_chol_with_jitter(K, 1e-8)
        L, jitter = _chol_with_jitter(K.copy(), 1e-8)
        assert jitter == ref_jitter
        assert L.flags.f_contiguous == ref.flags.f_contiguous and L.flags.c_contiguous == ref.flags.c_contiguous
        assert L.tobytes(order="A") == ref.tobytes(order="A")


def golden_case(name):
    """(dataset, gp config) of one pinned `gp_fit`; each case draws from its own generator."""
    gen = np.random.default_rng(11)
    if name == "rbf":
        X = gen.uniform(-2.0, 2.0, size=(12, 1))
        return Dataset.from_arrays(X, np.sin(2 * X[:, 0]) + 0.1 * gen.normal(size=12)), None
    if name == "matern52":
        X = gen.uniform(0.0, 1.0, size=(15, 2))
        return Dataset.from_arrays(X, X[:, 0] ** 2 - np.cos(3 * X[:, 1])), {"kernel": "matern52"}
    if name == "fixed_noise":
        X = gen.uniform(0.0, 1.0, size=(10, 1))
        return Dataset.from_arrays(X, np.exp(X[:, 0]) + 0.1 * gen.normal(size=10)), {"noise_variance": 0.01}
    # Duplicate inputs, zero noise and a huge signal: the fit escalates jitter.
    X = np.repeat(np.linspace(0.0, 1.0, 5), 2)[:, None]
    y = np.cos(4 * X[:, 0]) + 0.05 * gen.normal(size=10)
    cfg = {"lengthscale": 0.5, "signal_variance": 1e10, "noise_variance": 0.0, "n_restarts": 0}
    return Dataset.from_arrays(X, y), cfg


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
    "duplicates": (
        "0x1.0000000000000p-1",
        "0x1.2a05f20000002p+33",
        "0x1.9479a22bc8bafp-998",
        "-0x1.9b6ca3ad37106p+11",
        "0x1.0c6f7a0b5ed8dp-20",
        "c9b449f66b4d95d088717432f28fab8f568b8d6778e868add8465f0e832f6dd0",
    ),
}


class TestLogMarginalLikelihoodSearch:
    def test_search_improves_over_bad_start(self):
        # The fitted likelihood should be at least as good as any fixed guess.
        gen = np.random.default_rng(31)
        X = np.sort(gen.uniform(0, 4, size=25))[:, None]
        y = np.sin(2 * X[:, 0]) + 0.05 * gen.normal(size=25)
        d = Dataset.from_arrays(X, y)
        fitted = gp_fit(d, None, RngStream(0, "fit"))
        fixed = fit_fixed(X, y, lengthscale=50.0, signal=1.0, noise=0.5)
        assert fitted.log_marginal_likelihood >= fixed.log_marginal_likelihood

    def test_evaluates_each_theta_once(self, monkeypatch):
        thetas = []

        def spy(sq, z, kernel, log_ls, log_sig, log_noise, base_jitter):
            thetas.append((log_ls, log_sig, log_noise))
            return _log_marginal_likelihood(sq, z, kernel, log_ls, log_sig, log_noise, base_jitter)

        monkeypatch.setattr(models, "_log_marginal_likelihood", spy)
        gen = np.random.default_rng(2)
        X = gen.uniform(0.0, 1.0, size=(20, 1))
        gp_fit(Dataset.from_arrays(X, np.sin(6 * X[:, 0])), None, RngStream(0, "fit"))
        assert len(thetas) > 100
        assert len(set(thetas)) == len(thetas)

    @pytest.mark.parametrize("name", sorted(GOLDEN_FITS))
    def test_pinned_fits(self, name):
        d, cfg = golden_case(name)
        gp = gp_fit(d, cfg, RngStream(3, "fit"))
        got = tuple(float(v).hex() for v in (
            gp.lengthscale, gp.signal_variance, gp.noise_variance, gp.log_marginal_likelihood, gp.jitter
        ))
        assert got + (hashlib.sha256(gp.alpha.tobytes()).hexdigest(),) == GOLDEN_FITS[name]

class TestMLP:
    def test_constant_target_reaches_tiny_mse(self):
        X = np.random.default_rng(0).uniform(-1, 1, size=(20, 2))
        y = np.full(20, 3.7)
        mlp = mlp_fit(Dataset.from_arrays(X, y), None, RngStream(0, "mlp"))
        assert mlp.fit_meta["final_mse"] < 1e-4

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
        d = Dataset.from_arrays(gen.normal(size=(10, 2)), gen.normal(size=10))
        a = mlp_fit(d, {"epochs": 50}, RngStream(5, "mlp"))
        b = mlp_fit(d, {"epochs": 50}, RngStream(5, "mlp"))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_fit_reduces_loss_on_smooth_target(self):
        gen = np.random.default_rng(4)
        X = gen.uniform(-1, 1, size=(40, 1))
        y = np.sin(3 * X[:, 0])
        mlp = mlp_fit(Dataset.from_arrays(X, y), None, RngStream(1, "mlp"))
        assert mlp.fit_meta["final_mse"] < 0.05
