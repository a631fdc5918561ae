"""Acquisition functions (maximization convention) and candidate search."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.special import ndtr

from .benchmarks import BoxDomain
from .core import HYPERPARAMETERS, Acquisition, RngStream, check_rule


@dataclass(frozen=True)
class AcquisitionSpec:
    """The acquisition of a run and its [smo] search keys; each field but
    `kind` meets the rule of its `smo.<field>` key (`core.check_rule`)."""

    kind: Acquisition
    beta: float = HYPERPARAMETERS["smo.beta"]
    xi: float = HYPERPARAMETERS["smo.xi"]
    n_candidates: int = HYPERPARAMETERS["smo.n_candidates"]
    n_refine: int = HYPERPARAMETERS["smo.n_refine"]

    def __post_init__(self):
        for f in fields(self)[1:]:
            check_rule(f"smo.{f.name}", getattr(self, f.name))


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


def acquisition_value(spec: AcquisitionSpec, mean, spread, best: float) -> np.ndarray:
    """EI or UCB of a model's (mean, variance or epistemic uncertainty) against `best`."""
    if spec.kind in (Acquisition.EI, Acquisition.DEUP_EI):
        return expected_improvement(mean, spread, best, spec.xi)
    return ucb(mean, spread, spec.beta)


def score_batch(spec: AcquisitionSpec, X: np.ndarray, model, best: float) -> np.ndarray:
    """Acquisition values at the rows of X. `model` is a GP for EI/UCB and an
    UncertaintyModel for DEUP_*; either answers predict_batch(X) -> (mean,
    variance or epistemic uncertainty)."""
    if model is None:
        raise ValueError(f"{spec.kind.value} scoring needs a model")
    return acquisition_value(spec, *model.predict_batch(np.asarray(X, dtype=np.float64)), best)


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
REFINE_EVALS = 200
SCORE_BLOCK = 256


def score_candidates(spec: AcquisitionSpec, X: np.ndarray, model, best: float) -> np.ndarray:
    """`score_batch` over the rows of X, bit for bit, in blocks of SCORE_BLOCK rows.

    The last block also takes the remainder, so the memory of a call does not
    grow with len(X). Every scoring layer works row by row, but the GP
    posterior mean `Ks.T @ alpha` is a BLAS gemv that, on x86-64 OpenBLAS at
    one thread, takes its columns 4 at a time and the last m mod 4 of a call
    on another path, with other rounding. Blocks that start at multiples of
    SCORE_BLOCK, the last with at least SCORE_BLOCK rows, put every row on
    the path one call over all of X takes. Near-equal blocks do not: 2000
    rows in 8 blocks of 250 change the last bits.
    """
    blocks = np.split(X, range(SCORE_BLOCK, len(X) - SCORE_BLOCK + 1, SCORE_BLOCK))
    return np.concatenate([score_batch(spec, block, model, best) for block in blocks])


def _refine_coordinate(spec, model, best, X, j, lo, hi, iters):
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
        return probes, score_batch(spec, probes, model, best)

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
    spec: AcquisitionSpec, domain: BoxDomain, model, best: float, rng: RngStream
) -> np.ndarray:
    """Maximize the acquisition over the box.

    Scores n_candidates uniform samples, then refines the top n_refine by
    coordinate-wise golden-section search: REFINE_EVALS // d iterations per
    coordinate, clipped to [8, 40]. At d <= 5 every line search runs to the
    cap of 40, which shrinks its bracket to about 1e-8 of the domain width;
    nothing stops it earlier. The returned point is the best point ever
    evaluated, clipped to the domain, so it is never worse than the best raw
    candidate. The candidates are scored in blocks (`score_candidates`), so
    the memory of the search does not grow with n_candidates.
    """
    gen = rng.generator()
    if spec.kind is Acquisition.RANDOM:
        return domain.sample(gen, 1)[0]

    cands = domain.sample(gen, spec.n_candidates)
    scores = score_candidates(spec, cands, model, best)
    order = np.argsort(scores)[::-1]
    best_idx = int(order[0])
    best_x, best_score = cands[best_idx].copy(), float(scores[best_idx])

    d = domain.dimension
    iters = int(np.clip(REFINE_EVALS // d, 8, 40))
    top = cands[order[: spec.n_refine]].copy()
    for j in range(d):
        x, f = _refine_coordinate(
            spec, model, best, top, j, float(domain.lower[j]), float(domain.upper[j]), iters
        )
        if f > best_score:
            best_score, best_x = f, x
    return domain.clip(best_x)
