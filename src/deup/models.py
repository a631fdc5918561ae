"""Main predictors: exact GP regression and a from-scratch MLP regressor.

Both fits are deterministic functions of (dataset, hyperparameters, rng
stream). Targets are standardized internally; reported hyperparameters are in
original target units.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from .core import Dataset, NumericsError, RngStream, schema_section

logger = logging.getLogger(__name__)

JITTER_START = 1e-8
JITTER_MAX = 1e-2

GP_DEFAULTS = schema_section("gp")
MLP_DEFAULTS = schema_section("mlp")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Unchecked LAPACK calls for the GP fit, its search and its posterior: every Dataset
# holds finite inputs and targets and the search bounds keep K finite, so scipy's
# finiteness checks and wrapper logic would only add per-call overhead. A
# non-finite query row gets a NaN prediction, as its mean always did.
_potrf, _trtrs = get_lapack_funcs(("potrf", "trtrs"), (np.empty(0),))

# n x n RBF unit kernels one hyperparameter search keeps: on both benchmark
# workloads the last 3 lengthscales serve 81 % of its kernel builds, the last 1 only 44-46 %.
# Their entries whose exponent is at or below UNIT_KERNEL_MIN_EXPONENT are +0.0
# (e^-345 is about 1.4e-150): with the standardized signal in [1e-3, 1e3], the
# kernel then holds no subnormal and no product of two of its entries is one.
UNIT_KERNEL_CACHE = 3
UNIT_KERNEL_MIN_EXPONENT = -345.0


def _pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    d = A[:, None, :] - B[None, :, :]
    return np.einsum("ijk,ijk->ij", d, d)


def _query_rows(X, dimension: int) -> np.ndarray:
    """X as a float64 array, checked to have the `dimension` columns a model was fitted on."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != dimension:
        raise ValueError(f"query dimension {X.shape[1]} != training dimension {dimension}")
    return X


def _standardize(a: np.ndarray):
    """(z, mean, std): a standardized over axis 0, a deviation under 1e-12 counted as 1; floats for a 1-D a."""
    mean, std = a.mean(axis=0), a.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    if a.ndim == 1:
        mean, std = float(mean), float(std)
    return (a - mean) / std, mean, std


def _kernel_from_sq_dists(sq: np.ndarray, kernel: str, lengthscale: float, signal: float) -> np.ndarray:
    if kernel == "rbf":  # signal * exp(-0.5 * sq / ls**2), built in one array
        K = -0.5 * sq
        K /= lengthscale**2
        np.exp(K, out=K)
        K *= signal
        return K
    if kernel == "matern52":
        r = np.sqrt(np.maximum(sq, 0.0))
        a = np.sqrt(5.0) * r / lengthscale
        return signal * (1.0 + a + a * a / 3.0) * np.exp(-a)
    raise ValueError(f"unknown kernel {kernel!r}")


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
        sq = _pairwise_sq_dists(self.training_inputs, _query_rows(X, self.training_inputs.shape[1]))
        return _kernel_from_sq_dists(sq, self.kernel, self.lengthscale, self._signal_z)

    def predict_batch(self, X: np.ndarray):
        """Posterior (mean, variance) at each row of X; variance includes noise."""
        Ks = self._cross_kernel(X)
        mean_z = Ks.T @ self.alpha
        v, _ = _trtrs(self.chol_factor, Ks, lower=1)
        var_z = self._signal_z + self._noise_z - np.einsum("ij,ij->j", v, v)
        var_z = np.clip(var_z, 0.0, self._signal_z + self._noise_z)
        mean = self.y_mean + self.y_std * mean_z
        var = self.y_std**2 * var_z
        return mean, var

    def predict_mean_batch(self, X: np.ndarray) -> np.ndarray:
        """Posterior mean at each row of X, without the triangular solve for the variance."""
        mean_z = self._cross_kernel(X).T @ self.alpha
        return self.y_mean + self.y_std * mean_z


def _unit_kernel(neg_half_sq: np.ndarray, neg_half_sq_min: float, log_ls) -> np.ndarray:
    """exp(neg_half_sq / ls**2), +0.0 where the exponent is at or below UNIT_KERNEL_MIN_EXPONENT.
    Division keeps order: no entry is zeroed when the least one's exponent is above it."""
    ls2 = np.exp(log_ls) ** 2
    K = neg_half_sq / ls2
    if neg_half_sq_min / ls2 > UNIT_KERNEL_MIN_EXPONENT:
        return np.exp(K, out=K)
    keep = K > UNIT_KERNEL_MIN_EXPONENT
    np.maximum(K, UNIT_KERNEL_MIN_EXPONENT, out=K)  # so that exp never returns a subnormal
    np.exp(K, out=K)
    K *= keep
    return K


class _SearchKernel:
    """One fit's kernel matrices over its inputs, written into one F-ordered
    n x n buffer that the search factors in place, with the bits of
    `_kernel_from_sq_dists` except the RBF entries that `_unit_kernel` zeroes.
    The RBF kernel's lengthscale-only part, that unit kernel, is kept for the
    last UNIT_KERNEL_CACHE lengthscales."""

    def __init__(self, sq: np.ndarray, kernel: str):
        n = len(sq)
        self.sq, self.kernel = sq, kernel
        self.buf = np.empty((n, n), order="F")
        # sq, and so K, is exactly symmetric: writing K through the buffer's
        # C-ordered transpose writes K, in memory order.
        self._rows = self.buf.T
        self.diag = self._rows.reshape(-1)[:: n + 1]
        if kernel == "rbf":
            neg_half_sq = -0.5 * sq
            self.neg_half_sq_min = float(neg_half_sq.min())
            self.unit = functools.lru_cache(UNIT_KERNEL_CACHE)(
                functools.partial(_unit_kernel, neg_half_sq, self.neg_half_sq_min)
            )

    def write(self, log_ls, signal, diag) -> np.ndarray:
        """The buffer, holding the kernel matrix with `diag` on its diagonal.

        Both kernels are exactly `signal` on the diagonal, so a caller adding
        noise and jitter passes (signal + noise) + jitter."""
        if self.kernel == "rbf":
            np.multiply(signal, self.unit(log_ls), out=self._rows)
        else:
            self._rows[...] = _kernel_from_sq_dists(self.sq, self.kernel, np.exp(log_ls), signal)
        self.diag.fill(diag)
        return self.buf


def _chol_with_jitter(kernel: _SearchKernel, log_ls, signal, noise, base_jitter, clean=0):
    """(L, jitter): lower Cholesky factor of K + (noise + jitter) * I, escalating jitter tenfold on failure.

    K is what `kernel.write` builds, with the RBF entries `_unit_kernel` zeroes.
    Each attempt writes the matrix into the kernel's buffer and factors it there,
    so L is that buffer. With clean=0 its strict upper triangle keeps K; with
    clean=1 it is zeroed, and L is bit for bit and in memory order what
    `scipy.linalg.cholesky(K + (noise + jitter) * I, lower=True)` returns.
    """
    jitter = base_jitter
    while jitter <= JITTER_MAX:
        K = kernel.write(log_ls, signal, signal + noise + jitter)
        # lower=1, clean, overwrite_a=1: f2py takes positional arguments faster than keywords.
        L, info = _potrf(K, 1, clean, 1)
        if info == 0:
            return L, jitter
        if info < 0:
            raise ValueError(f"dpotrf rejected argument {-info}")
        jitter *= 10.0
    raise NumericsError(
        f"kernel matrix is not positive definite even with jitter {JITTER_MAX}"
    )


_LOG_2PI = float(np.log(2 * np.pi))


def _log_likelihood_from_factor(L, a) -> float:
    """Log marginal likelihood from the lower factor L of the kernel matrix and a = L^-1 z."""
    # -0.5 is a power of two, so scaling a . a gives the bits of (-0.5 * a) @ a.
    return -0.5 * float(a.dot(a)) - float(np.log(L.diagonal()).sum()) - 0.5 * len(a) * _LOG_2PI


def _log_marginal_likelihood(kernel, z, log_ls, log_sig, log_noise, base_jitter):
    try:
        L, _ = _chol_with_jitter(kernel, log_ls, np.exp(log_sig), np.exp(log_noise), base_jitter)
    except NumericsError:
        return -np.inf
    a, _ = _trtrs(L, z, 1)  # lower=1
    return _log_likelihood_from_factor(L, a)


def gp_fit(d: Dataset, cfg: dict | None, rng: RngStream) -> GPPredictor:
    """Fit an exact GP by maximizing log marginal likelihood.

    Hyperparameters (lengthscale, signal variance, noise variance) are searched
    in log space with `n_restarts` random restarts of a coordinate descent whose
    accepted steps never decrease the likelihood. A `lengthscale`,
    `signal_variance` or `noise_variance` set in cfg is held: both its search
    bounds are that value, at any n_restarts. The searched noise is bounded
    below by `noise_floor` in standardized units. A fit with all three held
    takes them without evaluating the likelihood. Cholesky failures escalate
    jitter from 1e-8 to 1e-2 before raising.
    """
    cfg = {**GP_DEFAULTS, **(cfg or {})}
    X = d.inputs()
    y = d.targets()
    n = len(y)
    if n < 2:
        raise ValueError(f"GP fit needs at least 2 examples, got {n}")

    z, y_mean, y_std = _standardize(y)

    sq = _pairwise_sq_dists(X, X)
    input_range = float(np.max(np.ptp(X, axis=0)))
    if input_range <= 0.0:
        input_range = 1.0

    # theta = (log lengthscale, log signal, log noise) as a tuple of Python
    # floats, signal and noise standardized; a held value is both its bounds.
    bounds = [
        (float(np.log(1e-2 * input_range)), float(np.log(1e2 * input_range))),
        (float(np.log(1e-3)), float(np.log(1e3))),
        (float(np.log(float(cfg["noise_floor"]))), float(np.log(1.0))),
    ]
    units = {"lengthscale": 1.0, "signal_variance": y_std**2, "noise_variance": y_std**2}
    for i, (key, unit) in enumerate(units.items()):
        value, positive = cfg.get(key), key != "noise_variance"
        if value is None:
            continue
        if not (value > 0 if positive else value >= 0):
            raise ValueError(f"gp_fit: {key} must be {'> 0' if positive else '>= 0'}, got {value}")
        held = float(np.log(max(float(value) / unit, 1e-300)))
        bounds[i] = (held, held)

    # Off-diagonal median distance is a robust lengthscale init.
    off = np.sqrt(sq[~np.eye(n, dtype=bool)])
    med = float(np.median(off[off > 0])) if np.any(off > 0) else input_range
    med = float(np.clip(med, np.exp(bounds[0][0]), np.exp(bounds[0][1])))

    search_kernel = _SearchKernel(sq, cfg["kernel"])
    seen = {}  # the coordinate descent revisits points; evaluate each theta once

    def objective(theta):
        val = seen.get(theta)
        if val is None:
            val = seen[theta] = _log_marginal_likelihood(search_kernel, z, *theta, JITTER_START)
        return val

    gen = rng.generator()
    starts = [(float(np.log(med)), 0.0, float(np.log(1e-4)))]
    for _ in range(max(int(cfg["n_restarts"]) - 1, 0)):
        starts.append(tuple(gen.uniform(lo, hi) for lo, hi in bounds))
    starts = [tuple(min(max(v, lo), hi) for v, (lo, hi) in zip(theta, bounds)) for theta in starts]

    # With all three held every start is the held theta: it is taken unevaluated.
    best_theta, best_val = starts[0], -np.inf
    for theta in starts if any(lo < hi for lo, hi in bounds) else ():
        val = objective(theta)
        step = 1.0
        for _ in range(int(cfg["max_sweeps"])):
            improved = False
            for i, (lo, hi) in enumerate(bounds):
                for direction in (1.0, -1.0):
                    x = min(max(theta[i] + direction * step, lo), hi)
                    if x == theta[i]:
                        continue
                    cand = theta[:i] + (x,) + theta[i + 1 :]
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

    # The final factor is the one the search evaluated at best_theta with the
    # upper triangle zeroed, so the likelihood taken from it has the search's
    # bits. If every evaluation failed, this factor fails too and raises.
    log_ls, log_sig, log_noise = best_theta
    L, jitter = _chol_with_jitter(search_kernel, log_ls, np.exp(log_sig), np.exp(log_noise), JITTER_START, clean=1)
    if jitter > JITTER_START:
        logger.warning("GP fit used elevated jitter %.1e (n=%d)", jitter, n)
    a, _ = _trtrs(L, z, lower=1)
    alpha, _ = _trtrs(L, a, lower=1, trans=1)

    return GPPredictor(
        kernel=search_kernel.kernel,
        lengthscale=float(np.exp(log_ls)),
        signal_variance=float(np.exp(log_sig)) * y_std**2,
        noise_variance=float(np.exp(log_noise)) * y_std**2,
        training_inputs=X,
        alpha=alpha,
        chol_factor=L,
        y_mean=y_mean,
        y_std=y_std,
        jitter=jitter,
        log_marginal_likelihood=_log_likelihood_from_factor(L, a),
    )


# --- MLP -----------------------------------------------------------------


def _init_params(layer_sizes: list[int], gen: np.random.Generator):
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(gen.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _flat_params(layer_sizes: list[int]):
    """(theta, weights, biases): an uninitialized parameter vector and each layer's
    weight matrix and bias as reshaped views into it, all weights first."""
    shapes = list(zip(layer_sizes[:-1], layer_sizes[1:])) + [(fan_out,) for fan_out in layer_sizes[1:]]
    sizes = [int(np.prod(shape)) for shape in shapes]
    theta = np.empty(sum(sizes))
    ends = np.cumsum(sizes)
    views = [theta[end - size : end].reshape(shape) for shape, size, end in zip(shapes, sizes, ends)]
    return theta, views[: len(layer_sizes) - 1], views[len(layer_sizes) - 1 :]


def _adam_update(theta, grad, m, v, scratch, step: int, lr: float) -> None:
    """One Adam step (Kingma & Ba, 2015) on the flat vectors, in place; grad is overwritten.

    Each operation is one ufunc over the whole vector, in the order of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2 and
    theta -= lr * (m/c1) / (sqrt(v/c2) + eps), so every bit is that formula's.
    """
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    c1 = 1.0 - b1**step
    c2 = 1.0 - b2**step
    m *= b1
    np.multiply(grad, 1 - b1, out=scratch)
    m += scratch
    v *= b2
    np.square(grad, out=scratch)
    scratch *= 1 - b2
    v += scratch
    # m and v are updated: grad is free to hold lr * (m/c1).
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += eps
    np.divide(m, c1, out=grad)
    grad *= lr
    grad /= scratch
    theta -= grad


def _layer_outputs(weights, biases, h):
    """Yield each layer's output in turn: h @ W + b, with a ReLU on every layer but the last."""
    for i, (W, b) in enumerate(zip(weights, biases)):
        # In place on the product: the bits of h @ W + b and np.maximum(., 0.0), fewer temporaries.
        h = h @ W
        h += b
        if i < len(weights) - 1:
            np.maximum(h, 0.0, out=h)
        yield h


def loss_and_gradients(weights, biases, X, y):
    """Mean-squared-error loss and its gradients for a ReLU network.

    Exposed so analytic gradients can be checked against finite differences.
    """
    acts = [X, *_layer_outputs(weights, biases, X)]
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
            delta = delta @ weights[i].T
            delta *= acts[i] > 0
    return loss, grad_w, grad_b


@dataclass
class MLPPredictor:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        h = (_query_rows(X, len(self.x_mean)) - self.x_mean) / self.x_std
        # Keep the last layer's output; unlike training, only one activation is held at a time.
        for h in _layer_outputs(self.weights, self.biases, h):
            pass
        return self.y_mean + self.y_std * h[:, 0]

    def predict_mean_batch(self, X: np.ndarray) -> np.ndarray:
        return self.predict_batch(X)


def mlp_fit(d: Dataset, cfg: dict | None, rng: RngStream, init: MLPPredictor | None = None) -> MLPPredictor:
    """Train a ReLU MLP with Adam on mean squared error.

    Full-batch below `batch_size` examples, shuffled mini-batches otherwise.
    From scratch it runs `epochs` epochs. With `init`, training starts from
    copies of init's weights (init is left unchanged) with fresh Adam moments
    and standardization recomputed from d, and runs max(1, epochs // 4).
    The returned weights and biases are views into one parameter vector.
    Raises NumericsError with the epoch index if the loss goes non-finite.
    """
    cfg = {**MLP_DEFAULTS, **(cfg or {})}
    X = d.inputs()
    y = d.targets()
    n, dim = X.shape
    if n < 1:
        raise ValueError("MLP fit needs at least 1 example")

    Xz, x_mean, x_std = _standardize(X)
    z, y_mean, y_std = _standardize(y)

    layer_sizes = [dim] + [int(cfg["hidden_units"])] * int(cfg["hidden_layers"]) + [1]
    gen = rng.generator()
    if init is None:
        start_weights, start_biases = _init_params(layer_sizes, gen)
        epochs = int(cfg["epochs"])
    else:
        if [W.shape[0] for W in init.weights] + [1] != layer_sizes:
            raise ValueError(f"warm start: init layers do not match {layer_sizes}")
        start_weights, start_biases = init.weights, init.biases
        epochs = max(1, int(cfg["epochs"]) // 4)

    # The training state is five flat vectors: the parameters (weights and
    # biases are views into theta), the gradient, Adam's moments and one scratch.
    theta, weights, biases = _flat_params(layer_sizes)
    np.concatenate([p.ravel() for p in start_weights + start_biases], out=theta)
    grad, m, v, scratch = np.empty_like(theta), np.zeros_like(theta), np.zeros_like(theta), np.empty_like(theta)

    lr = float(cfg["learning_rate"])
    batch_size = int(cfg["batch_size"])
    full_batch = n < batch_size
    step = 0
    for epoch in range(epochs):
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
            np.concatenate([g.ravel() for g in grad_w + grad_b], out=grad)
            _adam_update(theta, grad, m, v, scratch, step, lr)

    return MLPPredictor(weights=weights, biases=biases, x_mean=x_mean, x_std=x_std, y_mean=y_mean, y_std=y_std)


@dataclass(frozen=True)
class Learner:
    """Deterministic dataset -> predictor mapping; kind is 'gp' or 'mlp'."""

    kind: str
    hyperparameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("gp", "mlp"):
            raise ValueError(f"unknown learner kind {self.kind!r}")

    def fit(self, d: Dataset, rng: RngStream, previous=None):
        """Fit on d. An MLP warm-starts from `previous` when it is an MLPPredictor
        (see `mlp_fit`'s init); every other fit starts from scratch."""
        if self.kind == "gp":
            return gp_fit(d, self.hyperparameters, rng)
        return mlp_fit(d, self.hyperparameters, rng, init=previous if isinstance(previous, MLPPredictor) else None)
