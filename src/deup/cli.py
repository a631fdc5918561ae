"""Command-line entry point: SMO runs, the recalibration demo, theory checks,
fixed-set uncertainty fits, and trace aggregation.

Commands exit nonzero on any error and zero only once their declared outputs
exist. Existing output files are never overwritten without --force.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from . import estimator as est
from .benchmarks import make_oracle
from .core import ConfigError, Dataset, Feature, RngStream, load_config, one_blas_thread, write_csv, write_json
from .models import Learner
from .smo import GpState, build_aleatoric, deup_fit, read_trace, run_smo
from .theory import run_theory_checks


def _ensure_writable(path: Path, force: bool) -> Path:
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _max_workers(n_tasks: int) -> int:
    cap = os.environ.get("DEUP_THREADS")
    if cap:
        if not (cap.isdecimal() and int(cap) > 0):
            raise ValueError(f"DEUP_THREADS must be a positive integer, got {cap!r}")
        return min(int(cap), n_tasks)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, n_tasks))


# --- run-smo ----------------------------------------------------------------


def _run_one_seed(cfg, seed):
    return run_smo(cfg.replace(seed=seed))


def _finished_seeds(cfg, seeds, workers):
    """Yield (seed, trace) as each seed's run of cfg finishes. run_smo records its
    own failures in the trace; a worker process can still fail (BrokenProcessPool),
    and then its exception is yielded in place of the trace."""
    if workers == 1:
        for seed in seeds:
            yield seed, _run_one_seed(cfg, seed)
        return
    # Worker processes: one run is a GIL-heavy loop, so threads do not scale.
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(_run_one_seed, cfg, seed): seed for seed in seeds}
        for future in as_completed(futures):
            yield futures[future], future.exception() or future.result()


def run_smo_command(config_path, seeds, out_dir, force=False) -> list[Path]:
    """Write each seed's trace CSV and summary JSON as soon as it finishes, so a
    raise keeps the seeds already written. A failed worker process is reported
    on stderr; the command raises once the other seeds are done. `seeds` None
    runs the config's seed; an empty list is refused."""
    cfg = load_config(config_path)
    out = Path(out_dir)
    seeds = [cfg.seed] if seeds is None else list(seeds)
    if not seeds:
        raise ValueError("no seeds to run; pass None to run the config's seed")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ValueError(f"seeds {repeated} repeated in --seeds; each seed runs once")
    workers = _max_workers(len(seeds))
    paths = {}
    for s in seeds:
        stem = f"{cfg.oracle_name}_{cfg.acquisition.value}_seed{s}"
        paths[s] = (
            _ensure_writable(out / f"{stem}_trace.csv", force),
            _ensure_writable(out / f"{stem}_summary.json", force),
        )

    written, raised = [], []
    for seed, outcome in _finished_seeds(cfg, seeds, workers):
        csv_path, json_path = paths[seed]
        if isinstance(outcome, Exception):
            print(f"seed {seed}: raised {type(outcome).__name__}: {outcome}", file=sys.stderr)
            raised.append(seed)
            continue
        outcome.to_csv(csv_path)
        outcome.write_summary(json_path)
        written.extend([csv_path, json_path])
        if outcome.incomplete:
            print(f"seed {seed}: incomplete run ({outcome.failure})", file=sys.stderr)
    if raised:
        raise RuntimeError(f"seeds {raised} raised; the traces of the other seeds are written")
    return written


# --- demo-fig1 -------------------------------------------------------------

FIG1_GAP = (0.5, 1.5)
FIG1_REGIONS = ((0.0, 0.5), (1.5, 2.0))
FIG1_COLUMNS = (
    "x",
    "f_true",
    "gp1_mean",
    "gp1_std",
    "gp2_mean",
    "gp2_std",
    "deup_eu",
    "true_sq_error",
)


def fig1_truth(x):
    """Smooth sine with a tall bump hidden in the unsampled middle region."""
    x = np.asarray(x, dtype=np.float64)
    return np.sin(2.0 * np.pi * x) + 1.5 * np.exp(-20.0 * (x - 1.0) ** 2)


@one_blas_thread()
def demo_fig1(out_dir, seed: int = 0, force: bool = False) -> dict:
    """Recalibration demo on a 1-D ground truth with an unexplored gap.

    GP #1 is fit on points from [0, 0.5] and [1.5, 2] only; five points are
    then acquired at its posterior-variance maxima and GP #2 is fit on the
    union. An error predictor trained on GP #1's observed errors (variance
    feature only) recalibrates the variance into an epistemic-uncertainty
    estimate. The grid CSV compares that estimate and GP #2's collapsed
    variance against GP #1's true squared error.
    """
    out = Path(out_dir)
    grid_path = _ensure_writable(out / f"fig1_grid_seed{seed}.csv", force)
    summary_path = _ensure_writable(out / f"fig1_summary_seed{seed}.json", force)

    root = RngStream(seed, "fig1")
    gen = root.child("train").generator()
    per_region = 10
    xs = np.sort(
        np.concatenate([gen.uniform(lo, hi, per_region) for lo, hi in FIG1_REGIONS])
    )
    train = Dataset(xs[:, None], fig1_truth(xs))

    gp = Learner("gp", {"noise_variance": 1e-8, "n_restarts": 8})
    gp1 = gp.fit(train, root.child("gp1"))

    # Acquire 5 points at the current posterior-variance maximum, refitting
    # with the same hyperparameters after each (variance-only exploration).
    held = {key: getattr(gp1, key) for key in ("lengthscale", "signal_variance", "noise_variance")}
    candidates = np.linspace(0.0, 2.0, 1024)[:, None]
    acq = GpState(train, Learner("gp", {**held, "n_restarts": 0}), root.child("gp-acquire"), gp1)
    for _ in range(5):
        _, var = acq.model.predict_batch(candidates)
        x_new = candidates[int(np.argmax(var))]
        acq = acq.update(x_new, float(fig1_truth(x_new[0])))
    acquired = acq.d.take(np.arange(len(train), len(acq.d)))

    gp2 = gp.fit(acq.d, root.child("gp2"))

    layout = (Feature.LOG_VARIANCE,)
    state = est.deup_fixed_train(train, acquired, est.DeupFit(gp, layout), root.child("deup"))

    grid = np.linspace(0.0, 2.0, 401)[:, None]
    f_true = fig1_truth(grid[:, 0])
    gp1_mean, gp1_var = gp1.predict_batch(grid)
    gp2_mean, gp2_var = gp2.predict_batch(grid)
    deup_eu = state.model.epistemic_batch(grid)
    true_sq_error = (f_true - gp1_mean) ** 2

    columns = (grid[:, 0], f_true, gp1_mean, np.sqrt(gp1_var), gp2_mean, np.sqrt(gp2_var), deup_eu, true_sq_error)
    write_csv(grid_path, FIG1_COLUMNS, np.column_stack(columns))

    in_gap = (grid[:, 0] >= FIG1_GAP[0]) & (grid[:, 0] <= FIG1_GAP[1])
    rho_deup = float(spearmanr(deup_eu[in_gap], true_sq_error[in_gap]).statistic)
    rho_gp2 = float(spearmanr(gp2_var[in_gap], true_sq_error[in_gap]).statistic)
    summary = {
        "seed": seed,
        "gap": list(FIG1_GAP),
        "n_train": len(train),
        "n_acquired": len(acquired),
        "spearman_deup_eu": rho_deup,
        "spearman_gp2_variance": rho_gp2,
        "deup_beats_variance": rho_deup > rho_gp2,
        "grid_csv": str(grid_path),
    }
    write_json(summary_path, summary)
    return summary


# --- check-theory ----------------------------------------------------------


def check_theory_command(out_dir, seed: int = 1, force: bool = False) -> bool:
    out = Path(out_dir)
    report_path = _ensure_writable(out / "theory_report.csv", force)
    results = run_theory_checks(seed)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    write_csv(report_path, ["check", "passed", "detail"], ([r.name, r.passed, r.detail] for r in results))
    return all(r.passed for r in results)


# --- fit-uncertainty --------------------------------------------------------


@one_blas_thread()
def fit_uncertainty_command(config_path, out_dir, force: bool = False) -> dict:
    """Fixed-training-set fit: train/held-out draw, error dataset export, EU grid."""
    cfg = load_config(config_path)
    if not cfg.feature_set:  # validate() requires a feature only of DEUP acquisitions
        raise ConfigError("key 'deup.features': must be nonempty for fit-uncertainty, which always fits DEUP")
    out = Path(out_dir)
    du_path = _ensure_writable(out / "error_dataset.csv", force)
    summary_path = _ensure_writable(out / "fit_summary.json", force)
    grid_path = _ensure_writable(out / "eu_grid.csv", force) if cfg.dimension <= 2 else None

    oracle = make_oracle(cfg.oracle_name, cfg.dimension, noise=cfg.hp("oracle.noise"))
    root = RngStream(cfg.seed, "fit-uncertainty")
    oracle_gen = root.child("oracle").generator()
    train = Dataset(*oracle.draw(root.child("train").generator(), oracle_gen, cfg.n_init))
    held_out = Dataset(*oracle.draw(root.child("oos").generator(), oracle_gen, cfg.n_init))

    state = est.deup_fixed_train(
        train,
        held_out,
        deup_fit(cfg),
        root.child("deup"),
        aleatoric=build_aleatoric(cfg, oracle, train, root.child("aleatoric")),
    )
    model, d_u = state.model, state.d_u
    est.export_error_dataset(d_u, du_path)

    oos_mse = float(np.mean((held_out.targets() - model.predict_mean_batch(held_out.inputs())) ** 2))
    summary = {
        "config": cfg.as_dict(),
        "n_train": len(train),
        "n_out_of_sample": len(held_out),
        "held_out_mse": oos_mse,
        "error_rows": len(d_u),
        "outputs": [str(du_path), str(summary_path)],
    }

    if grid_path:
        n_side = 201 if cfg.dimension == 1 else 41
        axes = [
            np.linspace(oracle.domain.lower[j], oracle.domain.upper[j], n_side)
            for j in range(cfg.dimension)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        G = np.stack([m.ravel() for m in mesh], axis=1)
        header = [f"x_{j}" for j in range(cfg.dimension)] + ["f_hat", "epistemic", "f_true"]
        columns = [G, model.predict_mean_batch(G), model.epistemic_batch(G), oracle.true_batch(G)]
        write_csv(grid_path, header, np.column_stack(columns))
        summary["outputs"].append(str(grid_path))

    write_json(summary_path, summary)
    return summary


# --- report -----------------------------------------------------------------


def _settings(config: dict) -> dict:
    """A trace summary's config as one flat dict, without the seed."""
    return {**{k: v for k, v in config.items() if k not in ("seed", "hyperparameters")}, **config["hyperparameters"]}


def report_command(traces_dir, out_path=None, force: bool = False) -> Path:
    """Aggregate per-mode best-so-far curves (mean and standard error by step).
    Refuses a summary or trace CSV without its partner, incomplete traces, mixed
    oracles, dimensions, n_init or budgets, and traces of one mode whose configs
    differ in more than the seed."""
    traces_dir = Path(traces_dir)
    summaries = {p.name.removesuffix("_summary.json"): p for p in traces_dir.glob("*_summary.json")}
    csvs = {p.name.removesuffix("_trace.csv"): p for p in traces_dir.glob("*_trace.csv")}
    unpaired = sorted(str(summaries.get(stem) or csvs[stem]) for stem in summaries.keys() ^ csvs.keys())
    if unpaired:
        raise ValueError(f"refusing to aggregate trace files without their summary or trace CSV: {unpaired}")
    pairs = []
    for stem in sorted(summaries, key=summaries.get):  # in the order of the summary paths
        trace = read_trace(csvs[stem], summaries[stem])
        if trace.get("incomplete"):
            raise ValueError(f"refusing to aggregate incomplete trace {csvs[stem]}: {trace['failure']}")
        pairs.append(trace)
    if not pairs:
        raise FileNotFoundError(f"no trace/summary pairs found in {traces_dir}")

    for key, what in (("oracle_name", "oracles"), ("dimension", "dimensions"), ("n_init", "n_init"), ("budget", "budgets")):
        values = {p["config"][key] for p in pairs}
        if len(values) > 1:
            raise ValueError(f"refusing to aggregate traces from different {what}: {sorted(values)}")

    by_mode: dict[str, list] = {}
    for p in pairs:
        by_mode.setdefault(p["config"]["acquisition"], []).append(p)

    rows = []
    for mode in sorted(by_mode):
        runs = by_mode[mode]
        settings = [_settings(p["config"]) for p in runs]
        differ = sorted(key for key in settings[0] if any(s[key] != settings[0][key] for s in settings))
        if differ:
            raise ValueError(f"refusing to aggregate {mode} traces whose configs differ in {differ}")
        curves = np.array([[p["init_best"]] + p["best_by_step"] for p in runs])
        mean = curves.mean(axis=0)
        se = curves.std(axis=0, ddof=1) / np.sqrt(len(curves)) if len(curves) > 1 else np.zeros(curves.shape[1])
        rows += ([mode, step, mean[step], se[step], len(curves)] for step in range(curves.shape[1]))
    out_path = _ensure_writable(Path(out_path) if out_path else traces_dir / "report.csv", force)
    write_csv(out_path, ["mode", "step", "mean_best", "stderr", "n_runs"], rows)
    return out_path


# --- argument parsing --------------------------------------------------------


def _parse_seeds(text):
    """The seeds of a comma list such as "0,1,2"; empty entries are skipped."""
    seeds = []
    for tok in [t.strip() for t in text.split(",") if t.strip()]:
        try:
            seeds.append(int(tok))
        except ValueError:
            raise argparse.ArgumentTypeError(f"seed {tok!r} is not an integer") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"{text!r} names no seed")
    return seeds


def _run_smo(args) -> int:
    written = run_smo_command(args.config, args.seeds, args.out, args.force)
    return 1 if any(not Path(p).exists() for p in written) else 0


def _demo_fig1(args) -> int:
    summary = demo_fig1(args.out, args.seed, args.force)
    print(
        f"spearman(deup_eu)={summary['spearman_deup_eu']:.3f} "
        f"spearman(gp2_var)={summary['spearman_gp2_variance']:.3f}"
    )
    return 0


def _check_theory(args) -> int:
    return 0 if check_theory_command(args.out, args.seed, args.force) else 1


def _fit_uncertainty(args) -> int:
    fit_uncertainty_command(args.config, args.out, args.force)
    return 0


def _report(args) -> int:
    print(f"wrote {report_command(args.traces, args.out, args.force)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The `deup` parser; each command's `handler` runs it and returns its exit code."""
    parser = argparse.ArgumentParser(
        prog="deup",
        description="Epistemic-uncertainty-driven sequential model optimization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-smo", help="run one config across seeds, writing traces")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", type=_parse_seeds, default=None, help="comma-separated, e.g. 0,1,2")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_run_smo)

    p = sub.add_parser("demo-fig1", help="1-D recalibration demo (grid CSV + summary)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_demo_fig1)

    p = sub.add_parser("check-theory", help="uncertainty-decomposition identity checks")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_check_theory)

    p = sub.add_parser("fit-uncertainty", help="fixed-training-set fit and error-data export")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_fit_uncertainty)

    p = sub.add_parser("report", help="aggregate trace CSVs into per-mode curves")
    p.add_argument("--traces", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logger = logging.getLogger("deup")  # library warnings, e.g. elevated GP jitter, to stderr
    handler = logging.StreamHandler()
    handler.setLevel(logging.WARNING)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.addHandler(handler)
    try:
        return args.handler(args)
    except Exception as exc:  # CLI boundary: report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
