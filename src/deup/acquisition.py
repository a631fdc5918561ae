"""Acquisition functions (maximization convention) and candidate search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .core import HYPERPARAMETERS, Acquisition, RngStream


@dataclass(frozen=True)
class BoxDomain:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64).reshape(-1)
        hi = np.asarray(self.upper, dtype=np.float64).reshape(-1)
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("domain requires lower < upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def sample(self, gen: np.random.Generator, m: int) -> np.ndarray:
        return gen.uniform(self.lower, self.upper, size=(m, self.dimension))

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)


@dataclass(frozen=True)
class AcquisitionSpec:
    kind: Acquisition
    beta: float = HYPERPARAMETERS["smo.beta"]
    xi: float = HYPERPARAMETERS["smo.xi"]
    n_candidates: int = HYPERPARAMETERS["smo.n_candidates"]
    n_refine: int = HYPERPARAMETERS["smo.n_refine"]

    def __post_init__(self):
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.xi < 0:
            raise ValueError("xi must be nonnegative")


def expected_improvement(mean, variance, best, xi=0.0):
    """EI for maximization: E[max(Y - best - xi, 0)] with Y ~ N(mean, variance).

    The normal cdf and pdf are written out as `scipy.stats.norm` computes them,
    without its per-call argument handling.
    """
    mean = np.asarray(mean, dtype=np.float64)
    var = np.maximum(np.asarray(variance, dtype=np.float64), 0.0)
    improve = mean - best - xi
    sigma = np.sqrt(var)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigma > 0, improve / np.where(sigma > 0, sigma, 1.0), 0.0)
        ei = np.where(
            sigma > 0,
            improve * ndtr(z) + sigma * (np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi)),
            np.maximum(improve, 0.0),
        )
    out = np.maximum(ei, 0.0)
    return float(out) if out.ndim == 0 else out


def ucb(mean, variance, beta):
    """Upper confidence bound mean + beta * sqrt(variance)."""
    var = np.maximum(np.asarray(variance, dtype=np.float64), 0.0)
    out = np.asarray(mean, dtype=np.float64) + beta * np.sqrt(var)
    return float(out) if out.ndim == 0 else out


@dataclass
class AcquisitionContext:
    """Model scored against: a GP for EI/UCB, an UncertaintyModel for DEUP_*.

    Either answers predict_batch(X) -> (mean, variance or epistemic uncertainty).
    """

    best: float = -np.inf
    model: object | None = None
    gen: np.random.Generator | None = None  # RANDOM scoring only


def score_batch(spec: AcquisitionSpec, X: np.ndarray, ctx: AcquisitionContext) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    kind = spec.kind
    if kind is Acquisition.RANDOM:
        if ctx.gen is None:
            raise ValueError("RANDOM scoring needs a generator in the context")
        return ctx.gen.uniform(size=len(X))
    if ctx.model is None:
        raise ValueError(f"{kind.value} scoring needs a model in the context")
    mean, var = ctx.model.predict_batch(X)
    if kind in (Acquisition.EI, Acquisition.DEUP_EI):
        return expected_improvement(mean, var, ctx.best, spec.xi)
    return ucb(mean, var, spec.beta)


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
REFINE_EVALS = 200


def _refine_coordinate(spec, ctx, X, j, lo, hi, iters):
    """Golden-section maximization along coordinate j, in lockstep over rows of X.

    Every iteration scores one probe per row in a single batch call. Returns
    the best (point, score) seen across all probes.
    """
    m = len(X)
    a = np.full(m, lo)
    b = np.full(m, hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)

    def eval_at(col):
        probes = X.copy()
        probes[:, j] = col
        return probes, score_batch(spec, probes, ctx)

    p1, f1 = eval_at(x1)
    p2, f2 = eval_at(x2)
    stacked = np.vstack([p1, p2])
    scores = np.concatenate([f1, f2])
    k = int(np.argmax(scores))
    best_x, best_f = stacked[k].copy(), float(scores[k])

    for _ in range(max(iters - 2, 0)):
        left = f1 >= f2  # per-row: keep [a, x2] if the left probe wins, else [x1, b]
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        x_keep = np.where(left, x1, x2)
        f_keep = np.where(left, f1, f2)
        probe_col = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        probes, fp = eval_at(probe_col)
        x1 = np.where(left, probe_col, x_keep)
        x2 = np.where(left, x_keep, probe_col)
        f1 = np.where(left, fp, f_keep)
        f2 = np.where(left, f_keep, fp)
        k = int(np.argmax(fp))
        if fp[k] > best_f:
            best_x, best_f = probes[k].copy(), float(fp[k])

    winner_col = np.where(f1 >= f2, x1, x2)
    X[:, j] = winner_col
    return best_x, best_f


def argmax_acquisition(
    spec: AcquisitionSpec, domain: BoxDomain, ctx: AcquisitionContext, rng: RngStream
) -> np.ndarray:
    """Maximize the acquisition over the box.

    Scores n_candidates uniform samples, then refines the top n_refine by
    coordinate-wise golden-section search with a budget of about 200
    evaluations per candidate (fewer in low dimension, where the bracket hits
    float resolution long before the budget). The returned point is the best
    point ever evaluated, clipped to the domain, so it is never worse than the
    best raw candidate.
    """
    gen = rng.generator()
    if spec.kind is Acquisition.RANDOM:
        return domain.sample(gen, 1)[0]

    cands = domain.sample(gen, spec.n_candidates)
    scores = score_batch(spec, cands, ctx)
    order = np.argsort(scores)[::-1]
    best_idx = int(order[0])
    best_x, best_score = cands[best_idx].copy(), float(scores[best_idx])

    d = domain.dimension
    iters = int(np.clip(REFINE_EVALS // d, 8, 40))
    top = cands[order[: spec.n_refine]].copy()
    for j in range(d):
        x, f = _refine_coordinate(
            spec, ctx, top, j, float(domain.lower[j]), float(domain.upper[j]), iters
        )
        if f > best_score:
            best_score, best_x = f, x
    return domain.clip(best_x)
