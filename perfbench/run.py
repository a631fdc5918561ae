"""deup benchmark: SMO throughput, step latency, set-up, memory and regret.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload synth1d-deup --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a fresh child process (child.py) as a closed loop:
one caller runs one `run_smo` after another, with no concurrency beyond what
the library starts itself. `--trace 0` prints the end-to-end metrics;
`--trace 1` runs the seeds untraced and then under the span tracer and
prints the per-layer metrics and the tracing overhead. The SMO seeds come
from `--smo-seeds`; `--seed` only fixes the order in which they run, so the
regret of a workload is comparable between commits. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 1 when the correctness gate fails and 2 when the checkout
holds no `src/deup` to measure. Raw samples and the environment of every
invocation go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import ROW_SPANS, SPAN_NAMES
from workloads import DEFAULT_SMO_SEEDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
CHILD_TIMEOUT_S = 170


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def end_to_end(raw: dict) -> tuple[dict, dict]:
    """Metrics of a --trace 0 child, and the sample count behind each."""
    runs = raw["runs"]
    step_ms = [ms for r in runs for ms in r["step_ms"]]
    setups = [r["setup_s"] for r in runs] + raw["setup_probes_s"]
    first = {}
    for r in runs:  # the first run of each seed; reruns are identical
        first.setdefault(r["seed"], r)
    metrics = {
        "steps_per_s": (len(step_ms) / sum(r["wall_s"] for r in runs), "1/s"),
        "step_ms_p50": (statistics.median(step_ms), "ms"),
        "step_ms_p90": (statistics.quantiles(step_ms, n=10)[-1], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "regret": (statistics.fmean(r["f_star"] - r["final_best"] for r in first.values()), "objective"),
    }
    counts = {
        "steps_per_s": f"{len(step_ms)} steps in {len(runs)} runs",
        "step_ms_p50": f"{len(step_ms)} steps",
        "step_ms_p90": f"{len(step_ms)} steps",
        "setup_s": f"{len(setups)} set-ups",
        "peak_rss_mb": "1 process",
        "regret": f"{len(first)} seeds",
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, counts


def per_layer(raw: dict) -> tuple[dict, dict]:
    """Metrics of a --trace 1 child, summed over its traced runs."""
    layers = raw["layers"]
    metrics = {}
    for name in SPAN_NAMES:
        agg = layers[name]
        metrics[f"{name}.calls"] = (agg["calls"], "count")
        metrics[f"{name}.s"] = (agg["s"], "s")
        metrics[f"{name}.self_s"] = (agg["self_s"], "s")
        if name in ROW_SPANS:
            metrics[f"{name}.rows"] = (agg["rows"], "count")
    gp_fit = layers["models.gp_fit"]
    metrics["models.gp_fit.rows_mean"] = (gp_fit["rows"] / gp_fit["calls"], "count")
    metrics["estimator.error_rows_final"] = (statistics.fmean(raw["error_rows_final"]), "count")
    metrics["acquisition.posterior_rows_per_score_row"] = (
        layers["models.gp_predict"]["rows"] / layers["acquisition.score"]["rows"],
        "ratio",
    )
    metrics["trace.overhead_frac"] = (raw["traced_wall_s"] / raw["untraced_wall_s"] - 1.0, "ratio")
    n_runs = len(raw["error_rows_final"])
    counts = {k: f"{n_runs} traced runs" for k in metrics}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, counts


def run_workload(name: str, order: list[int], seconds: float, trace: int, raw_path: Path) -> dict:
    raw_path.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", name,
        "--order", ",".join(map(str, order)),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", str(raw_path),
    ]  # fmt: skip
    t0 = time.perf_counter()
    try:
        # The child inherits the environment untouched: BLAS thread settings
        # are part of what is measured.
        code = subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = f"none: killed after {CHILD_TIMEOUT_S} s"
    wall = time.perf_counter() - t0
    if code != 0 or not raw_path.exists():
        return {"runs": [], "errors": [f"child exited with code {code}"], "child_wall_s": wall}
    raw = json.loads(raw_path.read_text())
    raw["child_wall_s"] = wall
    return raw


def report(name: str, raw: dict, trace: int) -> dict:
    attempted = len(raw["runs"])
    failed = sum(r["failed"] for r in raw["runs"])
    correct = not raw["errors"] and attempted > 0
    metrics, counts = {}, {}
    if correct:
        metrics, counts = per_layer(raw) if trace else end_to_end(raw)
    print(f"== {name}: {attempted} runs, {failed} failed, correct={correct}")
    for err in raw["errors"]:
        print(f"   FAIL {err}")
    if attempted:
        print(f"   failed_frac {failed / attempted:.4f} ratio ({attempted} runs)")
    for key, m in metrics.items():
        print(f"   {key} {m['value']:.6g} {m['unit']} ({counts[key]})")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0, help="orders the SMO seeds of a run")
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--smo-seeds",
        default=",".join(map(str, DEFAULT_SMO_SEEDS)),
        help="comma-separated SMO seeds each workload runs (default %(default)s)",
    )
    args = p.parse_args()
    if not (ROOT / "src" / "deup" / "__init__.py").is_file():
        print(f"error: no src/deup under {ROOT}; run from a deup source checkout", file=sys.stderr)
        return 2

    seeds = [int(s) for s in args.smo_seeds.split(",") if s.strip()]
    order = random.Random(args.seed).sample(seeds, len(seeds))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    RESULTS.mkdir(exist_ok=True)
    ok = True
    for name in names:
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        raw = run_workload(name, order, args.seconds, args.trace, path)
        result = report(name, raw, args.trace)
        raw.update(
            workload=name,
            args=vars(args),
            order=order,
            git_commit=git_commit(ROOT),
            result=result,
        )
        path.write_text(json.dumps(raw))
        ok = ok and result["correct"]
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
