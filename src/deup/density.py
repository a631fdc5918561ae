"""Gaussian kernel density estimate used as the log-density feature."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .models import _pairwise_sq_dists, _query_rows


def silverman_bandwidth(X: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 1.06 * sigma * n^(-1/(d+4)).

    sigma is the per-dimension sample standard deviation averaged over
    dimensions; degenerate spreads fall back to 1.0.
    """
    n, d = X.shape
    if n < 2:
        return 1.0
    sigma = float(np.mean(np.std(X, axis=0, ddof=1)))
    if sigma <= 0.0 or not np.isfinite(sigma):
        return 1.0
    return 1.06 * sigma * n ** (-1.0 / (d + 4))


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) with the bits of `scipy.special.logsumexp`, without its
    array-API overhead. The m terms equal to the row max stay out of the sum:
    log1p(s / m) + log(m) + max, s the sum of exp(a - max) over the other terms."""
    a_max = a.max(axis=1, keepdims=True)
    is_max = a == a_max
    m = is_max.sum(axis=1, keepdims=True, dtype=np.float64)
    e = a - a_max
    np.exp(e, out=e)
    e[is_max] = 0.0
    s = e.sum(axis=1, keepdims=True)
    return (np.log1p(s / m) + np.log(m) + a_max)[:, 0]


@dataclass
class KdePredictor:
    """Isotropic Gaussian mixture with one component per training point."""

    points: np.ndarray
    bandwidth: float

    def log_density_batch(self, X: np.ndarray) -> np.ndarray:
        """Log mixture density at each row of X, finite for any finite X by log-sum-exp."""
        n, d = self.points.shape
        sq = _pairwise_sq_dists(_query_rows(X, d), self.points)
        log_norm = np.log(n) + d * np.log(self.bandwidth * np.sqrt(2.0 * np.pi))
        return _logsumexp_rows(-0.5 * sq / self.bandwidth**2) - log_norm


def kde_fit(d: Dataset, bandwidth: float | None = None) -> KdePredictor:
    if len(d) < 1:
        raise ValueError("KDE fit needs at least 1 example")
    if bandwidth is not None and bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    X = d.inputs()
    h = float(bandwidth) if bandwidth is not None else silverman_bandwidth(X)
    return KdePredictor(points=X, bandwidth=h)
