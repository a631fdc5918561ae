"""One workload in a fresh process: a closed loop of `run_smo` calls.

Started by run.py, never imported by it. The loop runs one SMO run after
another on the calling thread, checks every trace, and writes the raw
samples as JSON to --out. With --trace 1 it runs each seed untraced and
then under the span tracer, and checks that the two traces agree.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import deup.smo  # noqa: E402
from deup.benchmarks import make_oracle  # noqa: E402
from deup.smo import best_so_far  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up-only runs (budget == n_init) before each timed run: at least
# SETUP_PROBES of them, and more while they take under SETUP_PROBE_S. Spread
# over the whole loop, they see the same host speed as the timed runs.
SETUP_PROBES = 2
SETUP_PROBE_S = 0.5


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def check_trace(trace, workload, oracle) -> list[str]:
    """The correctness gate for one finished run; returns the failures."""
    cfg = trace.config
    errors = []
    if trace.incomplete:
        errors.append(f"incomplete: {trace.failure}")
    if trace.evaluations != cfg.budget:
        errors.append(f"evaluations {trace.evaluations} != budget {cfg.budget}")
    if len(trace.records) != cfg.budget - cfg.n_init:
        errors.append(f"{len(trace.records)} records != budget - n_init {cfg.budget - cfg.n_init}")
    if not all(oracle.domain.contains(r.x) for r in trace.records):
        errors.append("an acquired x lies outside the oracle domain")
    if [r.best for r in trace.records] != best_so_far(trace)[1:]:
        errors.append("best is not the running max of y")
    if workload.uses_error_model and any(np.isnan(r.epistemic) for r in trace.records):
        errors.append("NaN epistemic in a DEUP run")
    return [f"seed {cfg.seed}: {e}" for e in errors]


def fingerprint(trace) -> bytes:
    """Every trace value but the `ms` column, as raw float64 bytes."""
    rows = [np.asarray(trace.init_X, dtype=np.float64).tobytes(), np.asarray(trace.init_y).tobytes()]
    for r in trace.records:
        rows.append(np.array([r.step, r.y, r.best, r.acq_value, r.epistemic], dtype=np.float64).tobytes())
        rows.append(np.asarray(r.x, dtype=np.float64).tobytes())
    return b"".join(rows)


class Loop:
    """Runs SMO configs one after another and keeps their raw samples."""

    def __init__(self, workload):
        self.workload = workload
        self.runs: list[dict] = []
        self.errors: list[str] = []
        self.prints: dict[int, bytes] = {}

    def run(self, seed: int) -> None:
        cfg = self.workload.config(seed)
        oracle = make_oracle(cfg.oracle_name, cfg.dimension)
        t0 = time.perf_counter()
        try:
            trace = deup.smo.run_smo(cfg)
        except Exception:  # a raising run counts as failed, the loop goes on
            wall = time.perf_counter() - t0
            self.errors.append(f"seed {seed}: raised\n{traceback.format_exc()}")
            self.runs.append({"seed": seed, "wall_s": wall, "failed": True})
            return
        wall = time.perf_counter() - t0
        errors = check_trace(trace, self.workload, oracle)
        fp = fingerprint(trace)
        if seed in self.prints and self.prints[seed] != fp:
            errors.append(f"seed {seed}: rerun differs from the first run of this seed")
        self.prints.setdefault(seed, fp)
        self.errors.extend(errors)
        step_ms = [r.ms for r in trace.records]
        self.runs.append(
            {
                "seed": seed,
                "wall_s": wall,
                "failed": bool(trace.incomplete or errors),
                "steps": len(step_ms),
                "step_ms": step_ms,
                "setup_s": wall - sum(step_ms) / 1e3,
                "final_best": trace.final_best,
                "f_star": float(oracle.known_optimum[1]),
            }
        )


def setup_probe(workload, seed: int, steps: int = 0) -> float:
    """Wall time of a run cut to `steps` acquisitions; 0 steps is set-up alone."""
    cfg = workload.config(seed, budget=workload.n_init + steps)
    t0 = time.perf_counter()
    deup.smo.run_smo(cfg)
    return time.perf_counter() - t0


def measure(workload, order, seconds: float) -> dict:
    """Closed loop: whole passes over the seeds while the next one fits in `seconds`.

    Only whole passes run, so every seed weighs the same in the step
    quantiles whatever the host speed; one pass is the minimum.
    """
    loop, setup_probes = Loop(workload), []
    t0 = time.perf_counter()
    for passes in itertools.count():
        if passes and (time.perf_counter() - t0) * (passes + 1) / passes > seconds:
            break
        for seed in order:
            probes = []
            while len(probes) < SETUP_PROBES or sum(probes) < SETUP_PROBE_S:
                probes.append(setup_probe(workload, seed))
            setup_probes += probes
            loop.run(seed)
    return {"runs": loop.runs, "errors": loop.errors, "setup_probes_s": setup_probes}


def check_counts(tracer, run_id: int, workload, steps: int) -> list[str]:
    """Closed-form call counts; a miss means an import site went unwrapped."""
    agg = tracer.aggregate(run_id)
    expect = {"acquisition.argmax": steps, "benchmarks.sample": workload.budget, "smo.run": 1}
    if workload.uses_error_model:
        expect["estimator.interactive_step"] = steps
        expect["estimator.error_fit"] = steps + 1
    else:
        expect["models.gp_fit"] = steps + 1
    return [
        f"tracer coverage: {name}.calls = {agg[name]['calls']}, expected {n} (run {run_id})"
        for name, n in expect.items()
        if agg[name]["calls"] != n
    ]


def measure_traced(workload, order, spans_path: Path) -> dict:
    """Each seed untraced, then at once traced; the traces must match except `ms`.

    Pairing the two runs of a seed in time keeps the host's speed drift out of
    the tracing overhead.
    """
    plain, traced, tracer = Loop(workload), Loop(workload), Tracer()
    traced.prints = plain.prints  # a traced rerun must reproduce the untraced trace
    for run_id, seed in enumerate(order):
        plain.run(seed)
        tracer.run_id = run_id
        tracer.install()
        traced.run(seed)
        tracer.uninstall()

    errors = plain.errors + traced.errors
    for run_id, run in enumerate(traced.runs):
        if not run["failed"]:
            errors += check_counts(tracer, run_id, workload, run["steps"])
    tracer.write(spans_path)
    return {
        "runs": plain.runs + traced.runs,
        "errors": errors,
        "untraced_wall_s": sum(r["wall_s"] for r in plain.runs),
        "traced_wall_s": sum(r["wall_s"] for r in traced.runs),
        "layers": tracer.aggregate(),
        "error_rows_final": [tracer.final_error_rows.get(i, 0) for i in range(len(order))],
    }


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--order", required=True, help="comma-separated SMO seeds, in run order")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    workload = WORKLOADS[args.workload]
    order = [int(s) for s in args.order.split(",")]

    # Warm-up: lazy imports and first-call costs are paid once per process.
    setup_probe(workload, order[0], steps=2)
    if args.trace:
        result = measure_traced(workload, order, Path(args.out).with_suffix(".spans.csv"))
    else:
        result = measure(workload, order, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
