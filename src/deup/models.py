"""Main predictors: exact GP regression and a from-scratch MLP regressor.

Both fits are deterministic functions of (dataset, hyperparameters, rng
stream). Targets are standardized internally; reported hyperparameters are in
original target units.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .core import Dataset, NumericsError, RngStream, schema_section

logger = logging.getLogger(__name__)

JITTER_START = 1e-8
JITTER_MAX = 1e-2

GP_DEFAULTS = schema_section("gp")
MLP_DEFAULTS = schema_section("mlp")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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


def _chol_with_jitter(K: np.ndarray, base_jitter: float):
    """Lower Cholesky factor of K + jitter*I, escalating jitter tenfold on failure."""
    jitter = base_jitter
    while jitter <= JITTER_MAX:
        try:
            L = cholesky(K + jitter * np.eye(len(K)), lower=True)
            return L, jitter
        except np.linalg.LinAlgError:
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
    fit_meta: dict = field(default_factory=dict)

    @property
    def _signal_z(self) -> float:
        return self.signal_variance / self.y_std**2

    @property
    def _noise_z(self) -> float:
        return self.noise_variance / self.y_std**2

    def _cross_kernel(self, X: np.ndarray) -> np.ndarray:
        """Kernel between the training inputs and each row of X (standardized units)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
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

    def predict(self, x):
        mean, var = self.predict_batch(np.asarray(x, dtype=np.float64)[None, :])
        return float(mean[0]), float(var[0])

    def predict_mean_batch(self, X: np.ndarray) -> np.ndarray:
        """Posterior mean at each row of X, without the triangular solve for the variance."""
        mean_z = self._cross_kernel(X).T @ self.alpha
        return self.y_mean + self.y_std * mean_z


def _log_marginal_likelihood(sq, z, kernel, log_ls, log_sig, log_noise, base_jitter):
    n = len(z)
    K = _kernel_from_sq_dists(sq, kernel, np.exp(log_ls), np.exp(log_sig))
    K[np.diag_indices_from(K)] += np.exp(log_noise)
    try:
        L, _ = _chol_with_jitter(K, base_jitter)
    except NumericsError:
        return -np.inf
    a = solve_triangular(L, z, lower=True)
    return float(-0.5 * a @ a - np.sum(np.log(np.diag(L))) - 0.5 * n * np.log(2 * np.pi))


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
    input_range = float(np.max(np.ptp(X, axis=0))) if n > 1 else 1.0
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
    off = np.sqrt(sq[~np.eye(n, dtype=bool)]) if n > 1 else np.array([input_range])
    med = float(np.median(off[off > 0])) if np.any(off > 0) else input_range
    med = float(np.clip(med, np.exp(ls_bounds[0]), np.exp(ls_bounds[1])))

    def objective(theta):
        log_ls, log_sig, log_noise = theta
        return _log_marginal_likelihood(sq, z, kernel, log_ls, log_sig, log_noise, JITTER_START)

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
                        cand[i] = np.clip(cand[i] + direction * step, *bounds[i])
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
    K[np.diag_indices_from(K)] += noise_z
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
        fit_meta={"n": n, "restarts": n_restarts},
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
    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float
    fit_meta: dict = field(default_factory=dict)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        h = (X - self.x_mean) / self.x_std
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            pre = h @ W + b
            h = pre if i == len(self.weights) - 1 else np.maximum(pre, 0.0)
        return self.y_mean + self.y_std * h[:, 0]

    def predict(self, x) -> float:
        return float(self.predict_batch(np.asarray(x, dtype=np.float64)[None, :])[0])

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
        layer_sizes=layer_sizes,
        weights=weights,
        biases=biases,
        activation="relu",
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


def ensemble_variance(
    learner: Learner, d: Dataset, x, m: int, rng: RngStream, member_seeds=None
) -> float:
    """Empirical variance at x of m MLP fits differing only by seed."""
    if m < 2:
        raise ValueError(f"ensemble needs m >= 2 members, got {m}")
    if learner.kind != "mlp":
        raise ValueError("ensemble variance is defined for MLP learners")
    preds = []
    for i in range(m):
        if member_seeds is not None:
            stream = RngStream(int(member_seeds[i]), rng.label)
        else:
            stream = rng.child(f"member-{i}")
        preds.append(learner.fit(d, stream).predict(x))
    preds = np.array(preds)
    if np.ptp(preds) == 0.0:  # identical members: exactly no diversity
        return 0.0
    return float(np.var(preds))


# --- Predictor serialization ----------------------------------------------


def save_predictor(pred, path) -> None:
    """Structured-text dump of all predictor fields (exact float round-trip)."""
    if isinstance(pred, GPPredictor):
        payload = {
            "type": "gp",
            "kernel": pred.kernel,
            "lengthscale": pred.lengthscale,
            "signal_variance": pred.signal_variance,
            "noise_variance": pred.noise_variance,
            "training_inputs": pred.training_inputs.tolist(),
            "alpha": pred.alpha.tolist(),
            "chol_factor": pred.chol_factor.tolist(),
            "y_mean": pred.y_mean,
            "y_std": pred.y_std,
            "jitter": pred.jitter,
            "log_marginal_likelihood": pred.log_marginal_likelihood,
            "fit_meta": pred.fit_meta,
        }
    elif isinstance(pred, MLPPredictor):
        payload = {
            "type": "mlp",
            "layer_sizes": pred.layer_sizes,
            "weights": [W.tolist() for W in pred.weights],
            "biases": [b.tolist() for b in pred.biases],
            "activation": pred.activation,
            "x_mean": pred.x_mean.tolist(),
            "x_std": pred.x_std.tolist(),
            "y_mean": pred.y_mean,
            "y_std": pred.y_std,
            "fit_meta": pred.fit_meta,
        }
    else:
        raise TypeError(f"cannot serialize {type(pred).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_predictor(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload["type"] == "gp":
        return GPPredictor(
            kernel=payload["kernel"],
            lengthscale=payload["lengthscale"],
            signal_variance=payload["signal_variance"],
            noise_variance=payload["noise_variance"],
            training_inputs=np.array(payload["training_inputs"]),
            alpha=np.array(payload["alpha"]),
            chol_factor=np.array(payload["chol_factor"]),
            y_mean=payload["y_mean"],
            y_std=payload["y_std"],
            jitter=payload["jitter"],
            log_marginal_likelihood=payload["log_marginal_likelihood"],
            fit_meta=payload["fit_meta"],
        )
    if payload["type"] == "mlp":
        return MLPPredictor(
            layer_sizes=payload["layer_sizes"],
            weights=[np.array(W) for W in payload["weights"]],
            biases=[np.array(b) for b in payload["biases"]],
            activation=payload["activation"],
            x_mean=np.array(payload["x_mean"]),
            x_std=np.array(payload["x_std"]),
            y_mean=payload["y_mean"],
            y_std=payload["y_std"],
            fit_meta=payload["fit_meta"],
        )
    raise ValueError(f"unknown predictor type {payload['type']!r}")
