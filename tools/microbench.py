"""Microbenchmark of the GP hyperparameter search: `gp_fit` at n = 20/60/140/280.

Usage, from the root of a source checkout (no install needed):

    python3 tools/microbench.py

Each size fits one seeded 1-D dataset (noisy sine on [0, 1], the regime of
the synth1d main and error GPs) with the default `[gp]` settings, on one
BLAS thread. A fit is repeated REPEATS times after one warm-up fit; every
repeat is bitwise the same fit. An extra, untimed fit counts the
log-likelihood evaluations of the search, so `eval_us` is the median fit
time divided by that count. The only output is one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from deup import models  # noqa: E402
from deup.core import Dataset, RngStream, one_blas_thread  # noqa: E402

SIZES = (20, 60, 140, 280)
REPEATS = 15


def dataset(n: int) -> Dataset:
    gen = np.random.default_rng(n)
    X = gen.uniform(0.0, 1.0, size=(n, 1))
    return Dataset(X, np.sin(8.0 * X[:, 0]) + 0.3 * gen.normal(size=n))


def count_evaluations(d: Dataset) -> int:
    real, count = models._log_marginal_likelihood, 0

    def counting(*args):
        nonlocal count
        count += 1
        return real(*args)

    models._log_marginal_likelihood = counting
    try:
        models.gp_fit(d, None, RngStream(0, "fit"))
    finally:
        models._log_marginal_likelihood = real
    return count


def bench(n: int) -> dict:
    d = dataset(n)
    models.gp_fit(d, None, RngStream(0, "fit"))  # warm-up
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        models.gp_fit(d, None, RngStream(0, "fit"))
        times.append(time.perf_counter() - t0)
    q1, median, q3 = statistics.quantiles(times, n=4)
    evals = count_evaluations(d)
    return {
        "n": n,
        "repeats": REPEATS,
        "fit_ms_median": round(1e3 * median, 3),
        "fit_ms_q1": round(1e3 * q1, 3),
        "fit_ms_q3": round(1e3 * q3, 3),
        "evaluations": evals,
        "eval_us": round(1e6 * median / evals, 2),
    }


def main() -> int:
    with one_blas_thread():
        results = [bench(n) for n in SIZES]
    env = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}
    print(json.dumps({"bench": "gp_fit", "blas_threads": 1, "environment": env, "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
