"""Microbenchmarks of the kernels under `run_smo`, on one source tree or two paired.

Usage, from the root of a source checkout (no install needed):

    python3 tools/microbench.py              # this checkout's src
    python3 tools/microbench.py BASE/src     # BASE/src against this checkout's src

where BASE/src is another tree's src directory, made for example by
`mkdir BASE && git archive <rev> src | tar -x -C BASE`. Each tree's `deup`
package is loaded from its path under its own name, `base` and `change`, so
two trees share the interpreter, the libraries and the host's moment-to-moment
speed. Everything runs on one BLAS thread, as `run_smo` does.

Every row runs through one loop: one untimed warm-up call per tree, then
REPEATS rounds that each call each tree once, the tree that goes first
alternating from round to round. Before timing, the warm-up outputs of the two
trees must be equal bit for bit: a fit's hyperparameters, likelihood, jitter
and alpha; a set-up run's initial design, with no failure; every other row's
output arrays. If a row's differ, the tool names it on stderr and exits 1.

Prints one JSON object. Per row, each tree gives the quartiles of its REPEATS
times in the row's `unit` (ms per call, or us per call or epoch of a row that
loops). With two trees a row also gives the ratio change/base of the two
medians, the quartiles of the per-round ratios (a host slowdown hits both calls
of a round, so these spread less than either tree's times) and in how many
rounds the change was faster. Two copies of one tree do not time alike to the
last percent: where their code and arrays lie in memory moves a row's median
paired ratio by up to about 3 % (seen on a 2-core x86-64 host), so a row whose
quartiles exclude 1 by less than that has not shown a difference.

Rows:

- gp_fit: a default-settings fit of one seeded 1-D dataset (noisy sine on
  [0, 1], the regime of the synth1d main and error GPs) of n = 3 to 280 rows;
  n = 3 and 6 are the synth1d-deup set-up's CV folds and initial design.
  `evaluations` counts the search's log-likelihood evaluations in one more,
  untimed fit, and `eval_us` is the median fit over that count.
  gp_fit_held_noise: the n = 20 and 60 fits with `noise_variance` held at
  HELD_NOISE, the data's own noise variance, as demo-fig1's GP #1 holds it.
- gp_loglik_short_ls: LOGLIK_CALLS log-likelihood evaluations on the n = 60 and
  140 datasets at a lengthscale of 10^-2 (the search's lower bound, where the
  RBF unit kernel has entries below 1e-150) and 10^-0.5 of the input range,
  signal 1 and noise 1e-4 in standardized units. `cold` clears the unit-kernel
  cache before each evaluation, as a new lengthscale does; `warm` reuses it
  and is mostly the Cholesky factor.
- score_candidates: a DEUP-EI model on the layout of each benchmark workload
  (synth1d {log_variance}, levi13 {x, seen_bit, log_density, log_variance}),
  fitted on as many points as the workload's last step sees, scores 2048 and
  16384 uniform candidates in blocks of 128 to 1024 rows (`score_candidates`
  with that `SCORE_BLOCK`) and in one `score_batch` call over all of them
  (`block` null). `peak_kb` is the tracemalloc peak of one more call, output
  included.
- score_batch_5: on the same two models, REFINE_CALLS `score_batch` calls over
  the 5 rows each golden-section step of the refine scores.
- gp_posterior: the same models' main GP `predict_batch` (mean and variance)
  over 2048 uniform candidates, without the features or u.
- kde_log_density: the levi13 model's KDE (its 26 points, Silverman bandwidth)
  over 2048 uniform candidates.
- mlp_epoch: the default error MLP (3 hidden layers of 128 ReLU units, Adam)
  fitted from scratch on 64 seeded rows of 5 features, the width of the levi13
  layout, for MLP_EPOCHS full-batch epochs. `gradients_us_per_epoch` is the
  time inside `loss_and_gradients` (the forward and backward pass) and
  `update_us_per_epoch` the rest: the Adam update, the loop and the
  once-per-fit set-up, under 1 % of a fit.
- setup: `run_smo` on the synth1d-deup workload cut to budget = n_init (its
  initial design, DEUP's CV pretraining and the first fits of f and u), over
  SMO seeds 0 and 1; the config is written out here.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = (3, 6, 20, 60, 140, 280)
HELD_SIZES, HELD_NOISE = (20, 60), 0.3**2
LOGLIK_SIZES, LOGLIK_LENGTHSCALES, LOGLIK_CALLS = (60, 140), (1e-2, 10**-0.5), 100
REPEATS = 30
# Dimension, feature layout and budget of the benchmark workloads synth1d-deup and levi13-mlp.
LAYOUTS = {
    "synth1d": (1, ("log_variance",), 56),
    "levi13": (2, ("x", "seen_bit", "log_density", "log_variance"), 26),
}
CANDIDATES = (2048, 16384)
BLOCKS = (128, 256, 512, 1024, None)  # None: one call over all candidates
REFINE_CALLS = 200
POSTERIOR_ROWS = 2048
MLP_ROWS, MLP_FEATURES, MLP_EPOCHS = 64, 5, 100
SETUP_SEEDS = (0, 1)


def load(src, name: str):
    """The `deup` package under `src`, imported as `name`."""
    root = Path(src).resolve() / "deup"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("core", "models", "acquisition", "benchmarks", "estimator", "smo"):
        importlib.import_module(f"{name}.{module}")
    return package


def array_bits(out):
    """The dtype, shape and bytes of an array or float, or of each in a tuple or list."""
    if isinstance(out, (tuple, list)):
        return tuple(array_bits(v) for v in out)
    a = np.asarray(out)
    return a.dtype.str, a.shape, a.tobytes()


def fit_bits(gp) -> tuple:
    values = (gp.lengthscale, gp.signal_variance, gp.noise_variance, gp.log_marginal_likelihood, gp.jitter)
    return tuple(float(v).hex() for v in values) + (gp.alpha.tobytes(),)


def setup_bits(traces) -> tuple:
    for t in traces:
        if t.failure:
            raise RuntimeError(f"the set-up run of seed {t.config.seed} failed: {t.failure}")
    return tuple((t.init_X.tobytes(), t.init_y.tobytes()) for t in traces)


@dataclass
class Timed:
    """One tree's side of a row: `call` is the timed work, `bits` maps its output
    to what the trees must agree on, times are given in `unit` per `per`
    operations of a call, and `info(seconds)` gives the tree's extra fields."""

    call: Callable
    bits: Callable = array_bits
    unit: str = "ms"
    per: int = 1
    info: Callable = lambda seconds: {}


def quartiles(seconds: list[float], scale: float) -> list[float]:
    return [round(scale * v, 4) for v in statistics.quantiles(seconds, n=4)]


def dataset(pkg, n: int):
    gen = np.random.default_rng(n)
    X = gen.uniform(0.0, 1.0, size=(n, 1))
    return pkg.core.Dataset(X, np.sin(8.0 * X[:, 0]) + 0.3 * gen.normal(size=n))


def fit_row(pkg, n: int, cfg: dict | None) -> Timed:
    d = dataset(pkg, n)
    real, count = pkg.models._log_marginal_likelihood, 0

    def fit():
        return pkg.models.gp_fit(d, cfg, pkg.core.RngStream(0, "fit"))

    def counting(*args):
        nonlocal count
        count += 1
        return real(*args)

    def info(seconds):
        pkg.models._log_marginal_likelihood = counting  # for one more, untimed fit
        try:
            fit()
        finally:
            pkg.models._log_marginal_likelihood = real
        return {"evaluations": count, "eval_us": round(1e6 * statistics.median(seconds) / count, 2)}

    return Timed(fit, fit_bits, info=info)


def loglik_row(pkg, n: int, fraction: float, cold: bool) -> Timed:
    d = dataset(pkg, n)
    X, y = d.inputs(), d.targets()
    search = pkg.models._SearchKernel(pkg.models._pairwise_sq_dists(X, X), "rbf")
    z = (y - y.mean()) / y.std()
    args = (float(np.log(fraction * np.ptp(X))), 0.0, float(np.log(1e-4)), pkg.models.JITTER_START)

    def call():
        for _ in range(LOGLIK_CALLS):
            if cold:
                search.unit.cache_clear()
            value = pkg.models._log_marginal_likelihood(search, z, *args)
        return value

    return Timed(call, unit="us/call", per=LOGLIK_CALLS)


@cache
def layout_search(pkg, name: str):
    """(domain, DEUP-EI spec, model, incumbent) on a workload's layout, default settings."""
    dimension, features, n = LAYOUTS[name]
    acquisition = pkg.core.Acquisition.DEUP_EI
    cfg = pkg.core.ExperimentConfig(
        oracle_name=name,
        dimension=dimension,
        n_init=n,
        budget=n,
        acquisition=acquisition,
        feature_set=frozenset(pkg.core.Feature(f) for f in features),
    )
    oracle = pkg.benchmarks.make_oracle(name, dimension)
    gen = np.random.default_rng(0)
    X = oracle.domain.sample(gen, n)
    y = np.array([oracle.sample(x, gen, 1)[0] for x in X])
    state = pkg.estimator.deup_init_state(pkg.core.Dataset(X, y), pkg.smo.deup_fit(cfg), pkg.core.RngStream(0, "deup"))
    return oracle.domain, pkg.acquisition.AcquisitionSpec(acquisition), state.model, float(np.max(y))


def scoring_row(pkg, name: str, m: int, block: int | None) -> Timed:
    domain, spec, model, best = layout_search(pkg, name)
    X = domain.sample(np.random.default_rng(1), m)

    def call():
        if block is None:
            return pkg.acquisition.score_batch(spec, X, model, best)
        default, pkg.acquisition.SCORE_BLOCK = pkg.acquisition.SCORE_BLOCK, block
        try:
            return pkg.acquisition.score_candidates(spec, X, model, best)
        finally:
            pkg.acquisition.SCORE_BLOCK = default

    def info(seconds):
        tracemalloc.start()
        try:
            call()
            return {"peak_kb": round(tracemalloc.get_traced_memory()[1] / 1024, 1)}
        finally:
            tracemalloc.stop()

    return Timed(call, info=info)


def refine_row(pkg, name: str) -> Timed:
    domain, spec, model, best = layout_search(pkg, name)
    X = domain.sample(np.random.default_rng(2), 5)

    def call():
        return [pkg.acquisition.score_batch(spec, X, model, best) for _ in range(REFINE_CALLS)]

    return Timed(call, unit="us/call", per=REFINE_CALLS)


def posterior_row(pkg, name: str) -> Timed:
    domain, _, model, _ = layout_search(pkg, name)
    X = domain.sample(np.random.default_rng(3), POSTERIOR_ROWS)
    return Timed(lambda: model.main.predict_batch(X))


def kde_row(pkg) -> Timed:
    domain, _, model, _ = layout_search(pkg, "levi13")
    X = domain.sample(np.random.default_rng(4), POSTERIOR_ROWS)
    return Timed(lambda: model.context.kde.log_density_batch(X))


def mlp_row(pkg) -> Timed:
    gen = np.random.default_rng(5)
    d = pkg.core.Dataset(gen.normal(size=(MLP_ROWS, MLP_FEATURES)), gen.normal(size=MLP_ROWS))
    real, gradient_s = pkg.models.loss_and_gradients, []

    def timed_gradients(*args):
        t0 = time.perf_counter()
        out = real(*args)
        gradient_s[-1] += time.perf_counter() - t0
        return out

    def call():
        gradient_s.append(0.0)
        pkg.models.loss_and_gradients = timed_gradients
        try:
            fit = pkg.models.mlp_fit(d, {"epochs": MLP_EPOCHS}, pkg.core.RngStream(0, "mlp"))
        finally:
            pkg.models.loss_and_gradients = real
        return fit.weights + fit.biases

    def info(seconds):
        gradients = gradient_s[-len(seconds) :]  # the timed fits
        updates = [total - grad for total, grad in zip(seconds, gradients)]
        scale = 1e6 / MLP_EPOCHS
        return {"gradients_us_per_epoch": quartiles(gradients, scale), "update_us_per_epoch": quartiles(updates, scale)}

    return Timed(call, unit="us/epoch", per=MLP_EPOCHS, info=info)


def setup_row(pkg) -> Timed:
    configs = [
        pkg.core.ExperimentConfig(
            oracle_name="synth1d",
            dimension=1,
            n_init=6,
            budget=6,
            acquisition=pkg.core.Acquisition.DEUP_EI,
            feature_set=frozenset({pkg.core.Feature("log_variance")}),
            seed=seed,
        )
        for seed in SETUP_SEEDS
    ]
    return Timed(lambda: [pkg.smo.run_smo(cfg) for cfg in configs], setup_bits)


def rows():
    """(label, make) of every row, in order; make(pkg) is one tree's `Timed`."""
    for n in SIZES:
        yield {"row": "gp_fit", "n": n}, partial(fit_row, n=n, cfg=None)
    for n in HELD_SIZES:
        yield {"row": "gp_fit_held_noise", "n": n}, partial(fit_row, n=n, cfg={"noise_variance": HELD_NOISE})
    for n in LOGLIK_SIZES:
        for fraction in LOGLIK_LENGTHSCALES:
            for cold in (True, False):
                label = {"row": "gp_loglik_short_ls", "n": n, "lengthscale_of_range": fraction, "cold": cold}
                yield label, partial(loglik_row, n=n, fraction=fraction, cold=cold)
    for name in LAYOUTS:
        for m in CANDIDATES:
            for block in BLOCKS:
                label = {"row": "score_candidates", "layout": name, "candidates": m, "block": block}
                yield label, partial(scoring_row, name=name, m=m, block=block)
    for name in LAYOUTS:
        yield {"row": "score_batch_5", "layout": name}, partial(refine_row, name=name)
    for name in LAYOUTS:
        yield {"row": "gp_posterior", "layout": name, "rows": POSTERIOR_ROWS}, partial(posterior_row, name=name)
    yield {"row": "kde_log_density", "layout": "levi13", "rows": POSTERIOR_ROWS}, kde_row
    yield {"row": "mlp_epoch", "rows": MLP_ROWS, "features": MLP_FEATURES, "epochs": MLP_EPOCHS}, mlp_row
    yield {"row": "setup", "workload": "synth1d-deup", "seeds": list(SETUP_SEEDS)}, setup_row


def paired(base: list[float], change: list[float]) -> dict:
    ratios = statistics.quantiles([c / b for b, c in zip(base, change)], n=4)
    return {
        "ratio": round(statistics.median(change) / statistics.median(base), 4),
        "paired_ratio_q1_median_q3": [round(v, 4) for v in ratios],
        "change_faster": f"{sum(c < b for b, c in zip(base, change))}/{len(base)}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", help="another tree's src directory, timed against this checkout's")
    args = parser.parse_args()
    trees = {"base": Path(args.base).resolve()} if args.base else {}
    trees["change"] = ROOT / "src"
    pkgs = {side: load(src, side) for side, src in trees.items()}
    sides = list(pkgs)
    results = []
    with pkgs["change"].core.one_blas_thread():
        for label, make in rows():
            timed = {side: make(pkg) for side, pkg in pkgs.items()}
            if len({t.bits(t.call()) for t in timed.values()}) > 1:  # the warm-up call
                print(f"{json.dumps(label)}: the two trees differ", file=sys.stderr)
                return 1
            seconds = {side: [] for side in sides}
            for r in range(REPEATS):
                for side in sides if r % 2 == 0 else sides[::-1]:
                    t0 = time.perf_counter()
                    timed[side].call()
                    seconds[side].append(time.perf_counter() - t0)
            unit, per = timed["change"].unit, timed["change"].per
            scale = (1e3 if unit == "ms" else 1e6) / per
            result = {**label, "unit": unit}
            for side, t in timed.items():
                result[side] = {"q1_median_q3": quartiles(seconds[side], scale), **t.info(seconds[side])}
            if "base" in seconds:
                result.update(paired(seconds["base"], seconds["change"]))
            results.append(result)
    env = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}
    out = {"trees": {side: str(src) for side, src in trees.items()}, "repeats": REPEATS, "blas_threads": 1}
    print(json.dumps({**out, "environment": env, "rows": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
