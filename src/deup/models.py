"""Main predictors: exact GP regression and a from-scratch MLP regressor.

Both fits are deterministic functions of (dataset, hyperparameters, rng
stream). Targets are standardized internally; reported hyperparameters are in
original target units.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs, solve_triangular

from .core import Dataset, NumericsError, RngStream, schema_section

logger = logging.getLogger(__name__)

JITTER_START = 1e-8
JITTER_MAX = 1e-2

GP_DEFAULTS = schema_section("gp")
MLP_DEFAULTS = schema_section("mlp")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Unchecked LAPACK calls for the GP fit and its search: every Dataset holds finite
# inputs and targets and the search bounds keep K finite, so scipy's
# finiteness checks and wrapper logic would only add per-call overhead.
_potrf, _trtrs = get_lapack_funcs(("potrf", "trtrs"), (np.empty(0),))


def _pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    d = A[:, None, :] - B[None, :, :]
    return np.einsum("ijk,ijk->ij", d, d)


def _kernel_from_sq_dists(sq: np.ndarray, kernel: str, lengthscale: float, signal: float) -> np.ndarray:
    if kernel == "rbf":
        return signal * np.exp(-0.5 * sq / lengthscale**2)
    if kernel == "matern52":
        r = np.sqrt(np.maximum(sq, 0.0))
        a = np.sqrt(5.0) * r / lengthscale
        return signal * (1.0 + a + a * a / 3.0) * np.exp(-a)
    raise ValueError(f"unknown kernel {kernel!r}")


def _diagonal(K: np.ndarray) -> np.ndarray:
    """Writable strided view of the diagonal of a C-contiguous square matrix."""
    if not K.flags.c_contiguous:
        raise ValueError("diagonal view needs a C-contiguous matrix")
    return K.ravel()[:: len(K) + 1]


def _chol_with_jitter(K: np.ndarray, base_jitter: float):
    """Lower Cholesky factor of K + jitter*I, escalating jitter tenfold on failure.

    Overwrites K's diagonal with diag(K) + jitter. The factor is Fortran-ordered
    with a zeroed upper triangle, bit for bit what
    `scipy.linalg.cholesky(K + jitter * I, lower=True)` returns.
    """
    diag = _diagonal(K)
    d0 = diag.copy()
    jitter = base_jitter
    while jitter <= JITTER_MAX:
        np.add(d0, jitter, out=diag)
        L, info = _potrf(K, lower=1, clean=1)
        if info == 0:
            return L, jitter
        if info < 0:
            raise ValueError(f"dpotrf rejected argument {-info}")
        jitter *= 10.0
    raise NumericsError(
        f"kernel matrix is not positive definite even with jitter {JITTER_MAX}"
    )


@dataclass
class GPPredictor:
    """Exact zero-mean GP posterior over standardized targets.

    `signal_variance` and `noise_variance` are reported in original target
    units; `alpha` and `chol_factor` live in standardized units and are what
    prediction actually uses. Returned variances include observation noise.
    """

    kernel: str
    lengthscale: float
    signal_variance: float
    noise_variance: float
    training_inputs: np.ndarray
    alpha: np.ndarray
    chol_factor: np.ndarray
    y_mean: float
    y_std: float
    jitter: float
    log_marginal_likelihood: float

    @property
    def _signal_z(self) -> float:
        return self.signal_variance / self.y_std**2

    @property
    def _noise_z(self) -> float:
        return self.noise_variance / self.y_std**2

    def _cross_kernel(self, X: np.ndarray) -> np.ndarray:
        """Kernel between the training inputs and each row of X (standardized units)."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.training_inputs.shape[1]:
            raise ValueError(
                f"query dimension {X.shape[1]} != training dimension "
                f"{self.training_inputs.shape[1]}"
            )
        sq = _pairwise_sq_dists(self.training_inputs, X)
        return _kernel_from_sq_dists(sq, self.kernel, self.lengthscale, self._signal_z)

    def predict_batch(self, X: np.ndarray):
        """Posterior (mean, variance) at each row of X; variance includes noise."""
        Ks = self._cross_kernel(X)
        mean_z = Ks.T @ self.alpha
        v = solve_triangular(self.chol_factor, Ks, lower=True)
        var_z = self._signal_z + self._noise_z - np.einsum("ij,ij->j", v, v)
        var_z = np.clip(var_z, 0.0, self._signal_z + self._noise_z)
        mean = self.y_mean + self.y_std * mean_z
        var = self.y_std**2 * var_z
        return mean, var

    def predict_mean_batch(self, X: np.ndarray) -> np.ndarray:
        """Posterior mean at each row of X, without the triangular solve for the variance."""
        mean_z = self._cross_kernel(X).T @ self.alpha
        return self.y_mean + self.y_std * mean_z


def _log_marginal_likelihood(sq, z, kernel, log_ls, log_sig, log_noise, base_jitter):
    n = len(z)
    K = _kernel_from_sq_dists(sq, kernel, np.exp(log_ls), np.exp(log_sig))
    diag = _diagonal(K)
    diag += np.exp(log_noise)
    try:
        L, _ = _chol_with_jitter(K, base_jitter)
    except NumericsError:
        return -np.inf
    a, _ = _trtrs(L, z, lower=1)
    return float(-0.5 * a @ a - np.log(L.diagonal()).sum() - 0.5 * n * np.log(2 * np.pi))


def gp_fit(d: Dataset, cfg: dict | None, rng: RngStream) -> GPPredictor:
    """Fit an exact GP by maximizing log marginal likelihood.

    Hyperparameters (lengthscale, signal variance, noise variance) are searched
    in log space with `n_restarts` random restarts of a coordinate descent whose
    accepted steps never decrease the likelihood. Pass explicit `lengthscale` /
    `signal_variance` / `noise_variance` in cfg with n_restarts=0 to skip the
    search. Cholesky failures escalate jitter from 1e-8 to 1e-2 before raising.
    """
    cfg = {**GP_DEFAULTS, **(cfg or {})}
    X = d.inputs()
    y = d.targets()
    n = len(y)
    if n < 2:
        raise ValueError(f"GP fit needs at least 2 examples, got {n}")

    y_mean = float(np.mean(y))
    y_std = float(np.std(y))
    if y_std < 1e-12:
        y_std = 1.0
    z = (y - y_mean) / y_std

    sq = _pairwise_sq_dists(X, X)
    input_range = float(np.max(np.ptp(X, axis=0)))
    if input_range <= 0.0:
        input_range = 1.0

    ls_bounds = (np.log(1e-2 * input_range), np.log(1e2 * input_range))
    sig_bounds = (np.log(1e-3), np.log(1e3))
    noise_floor = float(cfg["noise_floor"])
    noise_bounds = (np.log(noise_floor), np.log(1.0))

    kernel = str(cfg["kernel"]).lower()
    fixed_noise = cfg.get("noise_variance")
    fixed_noise_z = None if fixed_noise is None else max(float(fixed_noise) / y_std**2, 0.0)

    # Off-diagonal median distance is a robust lengthscale init.
    off = np.sqrt(sq[~np.eye(n, dtype=bool)])
    med = float(np.median(off[off > 0])) if np.any(off > 0) else input_range
    med = float(np.clip(med, np.exp(ls_bounds[0]), np.exp(ls_bounds[1])))

    seen = {}  # the coordinate descent revisits points; evaluate each theta once

    def objective(theta):
        key = theta.tobytes()
        if key not in seen:
            log_ls, log_sig, log_noise = theta
            seen[key] = _log_marginal_likelihood(sq, z, kernel, log_ls, log_sig, log_noise, JITTER_START)
        return seen[key]

    if fixed_noise_z is not None:
        log_noise_fixed = np.log(max(fixed_noise_z, 1e-300))
    bounds = [ls_bounds, sig_bounds, noise_bounds]
    free = [0, 1] if fixed_noise_z is not None else [0, 1, 2]

    n_restarts = int(cfg["n_restarts"])
    max_sweeps = int(cfg["max_sweeps"])
    gen = rng.generator()

    if n_restarts == 0 and "lengthscale" in cfg:
        best_theta = np.array(
            [
                np.log(float(cfg["lengthscale"])),
                np.log(float(cfg.get("signal_variance", y_std**2)) / y_std**2),
                np.log(max(float(cfg.get("noise_variance", noise_floor)) / y_std**2, 1e-300)),
            ]
        )
        best_val = objective(best_theta)
    else:
        starts = [np.array([np.log(med), 0.0, np.log(1e-4)])]
        for _ in range(max(n_restarts - 1, 0)):
            starts.append(np.array([gen.uniform(lo, hi) for lo, hi in bounds]))
        best_theta, best_val = None, -np.inf
        for start in starts:
            theta = start.copy()
            if fixed_noise_z is not None:
                theta[2] = log_noise_fixed
            val = objective(theta)
            step = 1.0
            for _ in range(max_sweeps):
                improved = False
                for i in free:
                    for direction in (1.0, -1.0):
                        cand = theta.copy()
                        cand[i] = min(max(cand[i] + direction * step, bounds[i][0]), bounds[i][1])
                        if cand[i] == theta[i]:
                            continue
                        cand_val = objective(cand)
                        if cand_val > val:
                            theta, val = cand, cand_val
                            improved = True
                if not improved:
                    step *= 0.5
                    if step < 1e-3:
                        break
            if val > best_val:
                best_theta, best_val = theta, val
        if best_theta is None:
            raise NumericsError("GP hyperparameter search failed at every restart")

    log_ls, log_sig, log_noise = best_theta
    if fixed_noise_z is not None:
        log_noise = log_noise_fixed
    lengthscale = float(np.exp(log_ls))
    signal_z = float(np.exp(log_sig))
    noise_z = float(np.exp(log_noise))

    K = _kernel_from_sq_dists(sq, kernel, lengthscale, signal_z)
    diag = _diagonal(K)
    diag += noise_z
    L, jitter = _chol_with_jitter(K, JITTER_START)
    if jitter > JITTER_START:
        logger.warning("GP fit used elevated jitter %.1e (n=%d)", jitter, n)
    alpha = solve_triangular(L.T, solve_triangular(L, z, lower=True), lower=False)

    return GPPredictor(
        kernel=kernel,
        lengthscale=lengthscale,
        signal_variance=signal_z * y_std**2,
        noise_variance=noise_z * y_std**2,
        training_inputs=X.copy(),
        alpha=alpha,
        chol_factor=L,
        y_mean=y_mean,
        y_std=y_std,
        jitter=jitter,
        log_marginal_likelihood=best_val,
    )


# --- MLP -----------------------------------------------------------------


def _init_params(layer_sizes: list[int], gen: np.random.Generator):
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(gen.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def loss_and_gradients(weights, biases, X, y):
    """Mean-squared-error loss and its gradients for a ReLU network.

    Exposed so analytic gradients can be checked against finite differences.
    """
    acts = [X]
    h = X
    for i, (W, b) in enumerate(zip(weights, biases)):
        pre = h @ W + b
        h = pre if i == len(weights) - 1 else np.maximum(pre, 0.0)
        acts.append(h)
    pred = acts[-1][:, 0]
    resid = pred - y
    loss = float(np.mean(resid**2))

    m = len(y)
    delta = (2.0 / m) * resid[:, None]
    grad_w, grad_b = [None] * len(weights), [None] * len(biases)
    for i in range(len(weights) - 1, -1, -1):
        grad_w[i] = acts[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * (acts[i] > 0)
    return loss, grad_w, grad_b


@dataclass
class MLPPredictor:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float
    fit_meta: dict = field(default_factory=dict)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        h = (X - self.x_mean) / self.x_std
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            pre = h @ W + b
            h = pre if i == len(self.weights) - 1 else np.maximum(pre, 0.0)
        return self.y_mean + self.y_std * h[:, 0]

    def predict_mean_batch(self, X: np.ndarray) -> np.ndarray:
        return self.predict_batch(X)


def mlp_fit(d: Dataset, cfg: dict | None, rng: RngStream) -> MLPPredictor:
    """Train a ReLU MLP with Adam on mean squared error.

    Full-batch below `batch_size` examples, shuffled mini-batches otherwise.
    Raises NumericsError with the epoch index if the loss goes non-finite.
    """
    cfg = {**MLP_DEFAULTS, **(cfg or {})}
    X = d.inputs()
    y = d.targets()
    n, dim = X.shape
    if n < 1:
        raise ValueError("MLP fit needs at least 1 example")

    x_mean = X.mean(axis=0)
    x_std = X.std(axis=0)
    x_std[x_std < 1e-12] = 1.0
    y_mean = float(np.mean(y))
    y_std = float(np.std(y))
    if y_std < 1e-12:
        y_std = 1.0
    Xz = (X - x_mean) / x_std
    z = (y - y_mean) / y_std

    layer_sizes = [dim] + [int(cfg["hidden_units"])] * int(cfg["hidden_layers"]) + [1]
    gen = rng.generator()
    weights, biases = _init_params(layer_sizes, gen)

    lr = float(cfg["learning_rate"])
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    m_w = [np.zeros_like(W) for W in weights]
    v_w = [np.zeros_like(W) for W in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]

    batch_size = int(cfg["batch_size"])
    full_batch = n < batch_size
    step = 0
    loss = np.nan
    for epoch in range(int(cfg["epochs"])):
        if full_batch:
            batches = [(Xz, z)]
        else:
            order = gen.permutation(n)
            batches = [
                (Xz[order[s : s + batch_size]], z[order[s : s + batch_size]])
                for s in range(0, n, batch_size)
            ]
        for bx, bz in batches:
            loss, grad_w, grad_b = loss_and_gradients(weights, biases, bx, bz)
            if not np.isfinite(loss):
                raise NumericsError(f"MLP training diverged at epoch {epoch}")
            step += 1
            c1 = 1.0 - b1**step
            c2 = 1.0 - b2**step
            for i in range(len(weights)):
                m_w[i] = b1 * m_w[i] + (1 - b1) * grad_w[i]
                v_w[i] = b2 * v_w[i] + (1 - b2) * grad_w[i] ** 2
                weights[i] -= lr * (m_w[i] / c1) / (np.sqrt(v_w[i] / c2) + eps)
                m_b[i] = b1 * m_b[i] + (1 - b1) * grad_b[i]
                v_b[i] = b2 * v_b[i] + (1 - b2) * grad_b[i] ** 2
                biases[i] -= lr * (m_b[i] / c1) / (np.sqrt(v_b[i] / c2) + eps)

    final_loss, _, _ = loss_and_gradients(weights, biases, Xz, z)
    return MLPPredictor(
        weights=weights,
        biases=biases,
        x_mean=x_mean,
        x_std=x_std,
        y_mean=y_mean,
        y_std=y_std,
        fit_meta={"final_mse": final_loss * y_std**2, "epochs": int(cfg["epochs"])},
    )


@dataclass(frozen=True)
class Learner:
    """Deterministic dataset -> predictor mapping; kind is 'gp' or 'mlp'."""

    kind: str
    hyperparameters: dict = field(default_factory=dict)

    def fit(self, d: Dataset, rng: RngStream):
        if self.kind == "gp":
            return gp_fit(d, self.hyperparameters, rng)
        if self.kind == "mlp":
            return mlp_fit(d, self.hyperparameters, rng)
        raise ValueError(f"unknown learner kind {self.kind!r}")
