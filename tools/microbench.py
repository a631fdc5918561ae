"""Microbenchmarks: `gp_fit` at n = 20/60/140/280 and with a held noise at
n = 20/60, one GP log-likelihood evaluation at a short and a medium
lengthscale, one candidate-scoring pass,
the 5-row `score_batch` call of the refine, the GP posterior, the KDE
log-density and one epoch of the error MLP.

Usage, from the root of a source checkout (no install needed):

    python3 tools/microbench.py

Everything runs on one BLAS thread, as `run_smo` does. The only output is
one JSON object on stdout.

gp_fit: each size fits one seeded 1-D dataset (noisy sine on [0, 1], the
regime of the synth1d main and error GPs) with the default `[gp]` settings.
A fit is repeated REPEATS times after one warm-up fit; every repeat is
bitwise the same fit. An extra, untimed fit counts the log-likelihood
evaluations of the search, so `eval_us` is the median fit time divided by
that count.

gp_loglik_short_ls: one log-likelihood evaluation on the n = 60 and 140
datasets at a lengthscale of 10^-2 (the search's lower bound, where the RBF
unit kernel has entries below 1e-150) and 10^-0.5 of the input range, with
signal 1 and noise 1e-4 in standardized units. `cold_us` clears the unit-kernel
cache before each evaluation, so it builds the unit kernel as a new lengthscale
does; `warm_us` reuses the cached one and is mostly the Cholesky factor. Each
is the quartiles over REPEATS repeats of LOGLIK_CALLS evaluations, per call.

gp_fit_held_noise: the n = 20 and 60 fits with `noise_variance` set to
HELD_NOISE, the data's own noise variance, as demo-fig1's GP #1 sets it:
the search then holds the noise and moves lengthscale and signal only.

score_candidates: a DEUP-EI model on the layout of each benchmark workload
(synth1d {log_variance}, levi13 {x, seen_bit, log_density, log_variance}),
fitted on as many points as the workload's last step sees, scores 2048 and
16384 uniform candidates in blocks of 128 to 1024 rows (`score_candidates`
with that `SCORE_BLOCK`) and in one `score_batch` call over all of them
(`block` null), as the candidate search did before it scored in blocks.
`ms` is the median of REPEATS passes; `peak_kb` is the tracemalloc peak of
one pass, output included.

score_batch_5: on the same two models, one `score_batch` call over 5 rows,
the batch each golden-section step of the refine scores (`n_refine` = 5).
One repeat is REFINE_CALLS calls on the same 5 rows; `us_median` is the
median repeat divided by REFINE_CALLS.

gp_posterior: on the same two models, the main GP's `predict_batch` (mean
and variance) over 2048 uniform candidates, the posterior alone without the
features or u. `ms_median` is the median of REPEATS calls.

kde_log_density: the levi13 model's KDE, fitted on its 26 points with the
default (Silverman) bandwidth, evaluates `log_density_batch` over 2048
uniform candidates. `ms_median` is the median of REPEATS calls.

mlp_epoch: the default error MLP (3 hidden layers of 128 ReLU units, Adam)
trained from scratch by `mlp_fit` on 64 seeded rows of 5 features, the width
of the levi13 layout, for MLP_EPOCHS full-batch epochs, one Adam step each.
`us_per_epoch` is a fit divided by MLP_EPOCHS. Each fit is split in two:
`gradients_us_per_epoch` is the time inside `loss_and_gradients` (the
forward and backward pass), `update_us_per_epoch` the rest of the fit: the
Adam update, the gradient copy and the loop, plus the once-per-fit set-up
(standardizing, drawing the initial weights), which is under 1 % of a fit.
Each is given as the quartiles of REPEATS fits.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from deup import acquisition, models  # noqa: E402
from deup.benchmarks import make_oracle  # noqa: E402
from deup.core import Acquisition, Dataset, ExperimentConfig, Feature, RngStream, one_blas_thread  # noqa: E402
from deup.estimator import deup_init_state  # noqa: E402
from deup.smo import deup_fit  # noqa: E402

SIZES = (20, 60, 140, 280)
HELD_SIZES, HELD_NOISE = (20, 60), 0.3**2
LOGLIK_SIZES, LOGLIK_LENGTHSCALES, LOGLIK_CALLS = (60, 140), (1e-2, 10**-0.5), 100
REPEATS = 15
# Dimension, feature layout and budget of the benchmark workloads synth1d-deup and levi13-mlp.
LAYOUTS = {
    "synth1d": (1, ("log_variance",), 56),
    "levi13": (2, ("x", "seen_bit", "log_density", "log_variance"), 26),
}
CANDIDATES = (2048, 16384)
REFINE_CALLS = 200
POSTERIOR_ROWS = 2048
MLP_ROWS, MLP_FEATURES, MLP_EPOCHS = 64, 5, 100
BLOCKS = (128, 256, 512, 1024, None)  # None: one call over all candidates


def dataset(n: int) -> Dataset:
    gen = np.random.default_rng(n)
    X = gen.uniform(0.0, 1.0, size=(n, 1))
    return Dataset(X, np.sin(8.0 * X[:, 0]) + 0.3 * gen.normal(size=n))


def count_evaluations(d: Dataset, cfg: dict | None) -> int:
    real, count = models._log_marginal_likelihood, 0

    def counting(*args):
        nonlocal count
        count += 1
        return real(*args)

    models._log_marginal_likelihood = counting
    try:
        models.gp_fit(d, cfg, RngStream(0, "fit"))
    finally:
        models._log_marginal_likelihood = real
    return count


def samples(fn) -> list[float]:
    """Seconds of each of REPEATS calls of fn, after one warm-up call."""
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def timed(fn) -> tuple[float, float, float]:
    """(q1, median, q3) in seconds of REPEATS calls of fn, after one warm-up call."""
    return tuple(statistics.quantiles(samples(fn), n=4))


def bench(n: int, cfg: dict | None = None) -> dict:
    d = dataset(n)
    q1, median, q3 = timed(lambda: models.gp_fit(d, cfg, RngStream(0, "fit")))
    evals = count_evaluations(d, cfg)
    return {
        "n": n,
        "repeats": REPEATS,
        "fit_ms_median": round(1e3 * median, 3),
        "fit_ms_q1": round(1e3 * q1, 3),
        "fit_ms_q3": round(1e3 * q3, 3),
        "evaluations": evals,
        "eval_us": round(1e6 * median / evals, 2),
    }


def bench_loglik(n: int, fraction: float) -> dict:
    d = dataset(n)
    X, y = d.inputs(), d.targets()
    search = models._SearchKernel(models._pairwise_sq_dists(X, X), "rbf")
    z = (y - y.mean()) / y.std()
    args = (float(np.log(fraction * np.ptp(X))), 0.0, float(np.log(1e-4)), models.JITTER_START)

    def calls(cold: bool):
        for _ in range(LOGLIK_CALLS):
            if cold:
                search.unit.cache_clear()
            models._log_marginal_likelihood(search, z, *args)

    out = {"n": n, "lengthscale_of_range": fraction, "calls": LOGLIK_CALLS, "repeats": REPEATS}
    for name, cold in (("cold_us", True), ("warm_us", False)):
        quartiles = timed(lambda: calls(cold))
        out.update({f"{name}_{k}": round(1e6 * v / LOGLIK_CALLS, 2) for k, v in zip(("q1", "median", "q3"), quartiles)})
    return out


def layout_search(name: str):
    """(domain, DEUP-EI model, incumbent) on a workload's layout, default settings."""
    dimension, features, n = LAYOUTS[name]
    cfg = ExperimentConfig(
        oracle_name=name,
        dimension=dimension,
        n_init=n,
        budget=n,
        acquisition=Acquisition.DEUP_EI,
        feature_set=frozenset(Feature(f) for f in features),
    )
    oracle = make_oracle(name, dimension)
    gen = np.random.default_rng(0)
    X = oracle.domain.sample(gen, n)
    y = np.array([oracle.sample(x, gen, 1)[0] for x in X])
    state = deup_init_state(Dataset(X, y), deup_fit(cfg), RngStream(0, "deup"))
    return oracle.domain, state.model, float(np.max(y))


def scoring_pass(spec, X, model, best, block):
    if block is None:
        return acquisition.score_batch(spec, X, model, best)
    acquisition.SCORE_BLOCK = block
    return acquisition.score_candidates(spec, X, model, best)


def bench_scoring(name: str) -> list[dict]:
    domain, model, best = layout_search(name)
    spec = acquisition.AcquisitionSpec(Acquisition.DEUP_EI)
    default_block = acquisition.SCORE_BLOCK
    results = []
    try:
        for m in CANDIDATES:
            X = domain.sample(np.random.default_rng(1), m)
            for block in BLOCKS:
                q1, median, q3 = timed(lambda: scoring_pass(spec, X, model, best, block))
                tracemalloc.start()
                try:
                    scoring_pass(spec, X, model, best, block)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                results.append(
                    {
                        "layout": name,
                        "candidates": m,
                        "block": block,
                        "ms_median": round(1e3 * median, 3),
                        "ms_q1": round(1e3 * q1, 3),
                        "ms_q3": round(1e3 * q3, 3),
                        "peak_kb": round(peak / 1024, 1),
                    }
                )
    finally:
        acquisition.SCORE_BLOCK = default_block
    return results


def bench_refine_call(name: str) -> dict:
    domain, model, best = layout_search(name)
    spec = acquisition.AcquisitionSpec(Acquisition.DEUP_EI)
    X = domain.sample(np.random.default_rng(2), 5)
    q1, median, q3 = timed(lambda: [acquisition.score_batch(spec, X, model, best) for _ in range(REFINE_CALLS)])
    return {
        "layout": name,
        "calls": REFINE_CALLS,
        "us_median": round(1e6 * median / REFINE_CALLS, 2),
        "us_q1": round(1e6 * q1 / REFINE_CALLS, 2),
        "us_q3": round(1e6 * q3 / REFINE_CALLS, 2),
    }


def timed_ms(fn) -> dict:
    """`timed` of fn, in ms."""
    q1, median, q3 = timed(fn)
    ms = {"ms_median": round(1e3 * median, 4), "ms_q1": round(1e3 * q1, 4), "ms_q3": round(1e3 * q3, 4)}
    return {"repeats": REPEATS, **ms}


def bench_posterior(name: str) -> dict:
    domain, model, _ = layout_search(name)
    X = domain.sample(np.random.default_rng(3), POSTERIOR_ROWS)
    timing = timed_ms(lambda: model.main.predict_batch(X))
    return {"layout": name, "n_train": len(model.context.dataset), "rows": POSTERIOR_ROWS, **timing}


def bench_kde() -> dict:
    domain, model, _ = layout_search("levi13")
    X = domain.sample(np.random.default_rng(4), POSTERIOR_ROWS)
    timing = timed_ms(lambda: model.context.kde.log_density_batch(X))
    return {"layout": "levi13", "points": len(model.context.dataset), "rows": POSTERIOR_ROWS, **timing}


def per_epoch(name: str, seconds: list[float]) -> dict:
    """Quartiles of per-fit seconds as µs per epoch, keyed `<name>_q1`, `_median`, `_q3`."""
    quartiles = statistics.quantiles(seconds, n=4)
    return {f"{name}_{k}": round(1e6 * v / MLP_EPOCHS, 2) for k, v in zip(("q1", "median", "q3"), quartiles)}


def bench_mlp_epoch() -> dict:
    gen = np.random.default_rng(5)
    d = Dataset(gen.normal(size=(MLP_ROWS, MLP_FEATURES)), gen.normal(size=MLP_ROWS))
    real, gradient_s = models.loss_and_gradients, []

    def timed_gradients(*args):
        t0 = time.perf_counter()
        out = real(*args)
        gradient_s[-1] += time.perf_counter() - t0
        return out

    def fit():
        gradient_s.append(0.0)
        models.mlp_fit(d, {"epochs": MLP_EPOCHS}, RngStream(0, "mlp"))

    models.loss_and_gradients = timed_gradients
    try:
        fit_s = samples(fit)
    finally:
        models.loss_and_gradients = real
    gradient_s = gradient_s[1:]  # drop the warm-up fit
    update_s = [total - grad for total, grad in zip(fit_s, gradient_s)]
    split = {**per_epoch("gradients_us_per_epoch", gradient_s), **per_epoch("update_us_per_epoch", update_s)}
    sizes = {"rows": MLP_ROWS, "features": MLP_FEATURES, "epochs": MLP_EPOCHS, "repeats": REPEATS}
    return {**sizes, **per_epoch("us_per_epoch", fit_s), **split}


def main() -> int:
    with one_blas_thread():
        gp = [bench(n) for n in SIZES]
        held = [bench(n, {"noise_variance": HELD_NOISE}) for n in HELD_SIZES]
        loglik = [bench_loglik(n, fraction) for n in LOGLIK_SIZES for fraction in LOGLIK_LENGTHSCALES]
        scoring = [row for name in LAYOUTS for row in bench_scoring(name)]
        refine = [bench_refine_call(name) for name in LAYOUTS]
        kernels = {
            "gp_posterior": [bench_posterior(name) for name in LAYOUTS],
            "kde_log_density": bench_kde(),
            "mlp_epoch": bench_mlp_epoch(),
        }
    env = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}
    out = {"blas_threads": 1, "repeats": REPEATS, "environment": env, "gp_fit": gp, "gp_fit_held_noise": held}
    print(json.dumps({**out, "gp_loglik_short_ls": loglik, "score_candidates": scoring, "score_batch_5": refine, **kernels}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
