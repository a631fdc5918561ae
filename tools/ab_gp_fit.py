"""In-process A/B timing of `gp_fit`, and of the synth1d-deup set-up, between two source trees.

Usage, from the root of a source checkout (no install needed):

    mkdir /tmp/base && git archive <rev> src | tar -x -C /tmp/base
    python3 tools/ab_gp_fit.py /tmp/base/src src [--rounds 30] [--sizes 3,6,20,60,140,280]

Both trees' `deup` packages are imported into one process, as `base` and
`change`, so the two sides share the interpreter, the libraries and the host's
moment-to-moment speed. Each round times one call of each side on each item,
the side that goes first alternating from round to round, under one BLAS
thread. Items:

- `gp_fit` at each size n, on the 1-D noisy-sine dataset of tools/microbench.py
  with the default `[gp]` settings;
- `setup`: `run_smo` on perfbench's synth1d-deup workload cut to budget =
  n_init (its initial design, DEUP's CV pretraining and the first fits of f and
  u), over SMO seeds 0 and 1; the config is written out here, as in
  perfbench/workloads.py.

Prints one JSON object: per item, each side's quartiles in ms, the ratio
change/base of the two medians, the quartiles of the per-round ratios (a host
slowdown hits both calls of a round, so these spread less than either side's
times) and in how many rounds the change was faster. Before timing
it checks that both sides give the same fit, bit for bit (hyperparameters,
likelihood, jitter, alpha), and the same set-up run, without failure; it
exits 1 if not.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SIZES = (3, 6, 20, 60, 140, 280)
SETUP_SEEDS = (0, 1)


def load(src: str, name: str):
    """The `deup` package under `src`, imported as `name`."""
    root = Path(src).resolve() / "deup"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("core", "models", "smo"):
        importlib.import_module(f"{name}.{module}")
    return package


def dataset(pkg, n: int):
    gen = np.random.default_rng(n)
    X = gen.uniform(0.0, 1.0, size=(n, 1))
    return pkg.core.Dataset(X, np.sin(8.0 * X[:, 0]) + 0.3 * gen.normal(size=n))


def fit_call(pkg, n: int):
    d = dataset(pkg, n)
    return lambda: pkg.models.gp_fit(d, None, pkg.core.RngStream(0, "fit"))


def setup_call(pkg):
    core = pkg.core
    configs = [
        core.ExperimentConfig(
            oracle_name="synth1d",
            dimension=1,
            n_init=6,
            budget=6,
            acquisition=core.Acquisition("deup_ei"),
            feature_set=frozenset({core.Feature("log_variance")}),
            seed=seed,
        )
        for seed in SETUP_SEEDS
    ]
    return lambda: [pkg.smo.run_smo(cfg) for cfg in configs]


def fit_bits(gp) -> tuple:
    values = (gp.lengthscale, gp.signal_variance, gp.noise_variance, gp.log_marginal_likelihood, gp.jitter)
    return tuple(float(v).hex() for v in values) + (gp.alpha.tobytes(),)


def setup_bits(traces) -> list:
    return [(t.init_X.tobytes(), t.init_y.tobytes(), t.failure) for t in traces]


def summary(base: list[float], change: list[float]) -> dict:
    quartiles = {
        f"{side}_ms_{k}": round(1e3 * v, 4)
        for side, seconds in (("base", base), ("change", change))
        for k, v in zip(("q1", "median", "q3"), statistics.quantiles(seconds, n=4))
    }
    ratio = statistics.median(change) / statistics.median(base)
    paired = statistics.quantiles([c / b for b, c in zip(base, change)], n=4)
    faster = sum(c < b for b, c in zip(base, change))
    return {
        **quartiles,
        "ratio": round(ratio, 4),
        "paired_ratio_q1_median_q3": [round(v, 4) for v in paired],
        "change_faster": f"{faster}/{len(base)}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the base tree's src directory")
    parser.add_argument("change", help="the changed tree's src directory")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    args = parser.parse_args()
    sides = {"base": load(args.base, "base"), "change": load(args.change, "change")}
    sizes = [int(n) for n in args.sizes.split(",") if n]

    items = {f"gp_fit_n{n}": {side: fit_call(pkg, n) for side, pkg in sides.items()} for n in sizes}
    items["setup"] = {side: setup_call(pkg) for side, pkg in sides.items()}
    with sides["base"].core.one_blas_thread():
        for name, calls in items.items():  # warm-up, and the bits check
            bits = fit_bits if name != "setup" else setup_bits
            base, change = bits(calls["base"]()), bits(calls["change"]())
            if base != change or (name == "setup" and any(failure for *_, failure in change)):
                print(f"{name}: the two trees differ", file=sys.stderr)
                return 1
        seconds = {name: {"base": [], "change": []} for name in items}
        for r in range(args.rounds):
            for name, calls in items.items():
                for side in ("base", "change") if r % 2 == 0 else ("change", "base"):
                    t0 = time.perf_counter()
                    calls[side]()
                    seconds[name][side].append(time.perf_counter() - t0)
    out = {"rounds": args.rounds, "blas_threads": 1, "items": {}}
    for name, times in seconds.items():
        out["items"][name] = summary(times["base"], times["change"])
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
