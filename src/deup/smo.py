"""Sequential model optimization: init design, acquisition loop, trace output.

A run is a pure function of its ExperimentConfig: the initial design, oracle
draws, model fits and candidate searches all pull from named streams of the
config seed, so methods compared under one seed share the same initial points
and reruns are bitwise identical (wall-clock fields aside).
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import estimator as est
from .acquisition import AcquisitionContext, AcquisitionSpec, argmax_acquisition, score_batch
from .benchmarks import make_oracle
from .core import (
    Acquisition,
    AleatoricMode,
    Dataset,
    ExperimentConfig,
    RngStream,
    one_blas_thread,
)
from .models import Learner, gp_fit


@dataclass
class StepRecord:
    step: int
    x: np.ndarray
    y: float
    best: float
    acq_value: float
    epistemic: float
    ms: float = field(compare=False)

    def __eq__(self, other):
        return (
            self.step == other.step
            and np.array_equal(self.x, other.x)
            and self.y == other.y
            and self.best == other.best
            and (self.acq_value == other.acq_value or (np.isnan(self.acq_value) and np.isnan(other.acq_value)))
            and (self.epistemic == other.epistemic or (np.isnan(self.epistemic) and np.isnan(other.epistemic)))
        )


@dataclass
class RunTrace:
    config: ExperimentConfig
    init_X: np.ndarray
    init_y: np.ndarray
    records: list = field(default_factory=list)
    incomplete: bool = False
    failure: str | None = None

    @property
    def init_best(self) -> float:
        return float(np.max(self.init_y))

    @property
    def final_best(self) -> float:
        return self.records[-1].best if self.records else self.init_best

    @property
    def evaluations(self) -> int:
        return len(self.init_y) + len(self.records)

    def to_csv(self, path) -> None:
        d = self.config.dimension
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["step"] + [f"x_{i}" for i in range(d)] + ["y", "best", "acq_value", "epistemic", "ms"]
            )
            for r in self.records:
                writer.writerow(
                    [r.step]
                    + [repr(float(v)) for v in r.x]
                    + [repr(r.y), repr(r.best), repr(r.acq_value), repr(r.epistemic), f"{r.ms:.3f}"]
                )

    def summary_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "init_best": self.init_best,
            "final_best": self.final_best,
            "evaluations": self.evaluations,
            "n_records": len(self.records),
            "incomplete": self.incomplete,
            "failure": self.failure,
        }

    def write_summary(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary_dict(), fh, indent=2)


def best_so_far(trace: RunTrace) -> list[float]:
    """Running maximum over all oracle values, starting from the init design."""
    out = [trace.init_best]
    for r in trace.records:
        out.append(max(out[-1], r.y))
    return out


def deup_fit(cfg: ExperimentConfig) -> est.DeupFit:
    """The settings of a run's DEUP fits: `deup.main_model` with its [gp] or [mlp]
    keys, the error model u ([mlp] keys for an MLP, error GP keys for a GP), the
    KDE bandwidth, and [gp] for the side variance GP of an MLP main model."""
    kind = cfg.hp("deup.main_model")
    error_cfg = {
        **cfg.section("mlp"),
        "error_model": cfg.hp("deup.error_model"),
        "n_restarts": cfg.hp("deup.error_gp_restarts"),
        "noise_floor": cfg.hp("gp.noise_floor"),
    }
    return est.DeupFit(
        Learner(kind, cfg.section(kind)), cfg.layout(), error_cfg, cfg.hp("kde.bandwidth"), cfg.section("gp")
    )


def build_aleatoric(cfg, oracle, d_init, rng) -> est.AleatoricEstimator:
    mode = cfg.aleatoric_mode
    if mode is AleatoricMode.ZERO:
        return est.zero_aleatoric()
    if mode is AleatoricMode.KNOWN:
        sigma = float(cfg.hp("oracle.noise"))
        return est.AleatoricEstimator(lambda X: np.full(len(X), sigma**2))
    # REPLICATES: groups drawn at the init points, fit once; the extra draws
    # per point are not counted against the acquisition budget (see README).
    k = int(cfg.hp("deup.replicates_k"))
    groups = []
    for i, ex in enumerate(d_init):
        ys = oracle.sample(ex.x, rng.child(f"replicates-{i}").generator(), replicates=k)
        groups.append((ex.x, ys))
    regressor = Learner("gp", cfg.section("gp"))
    return est.estimate_aleatoric_from_replicates(groups, regressor, rng.child("aleatoric-fit"))


@one_blas_thread()
def run_smo(cfg: ExperimentConfig) -> RunTrace:
    """Run one optimization, on one BLAS thread (`core.one_blas_thread`), and
    return its trace.

    The budget counts every oracle call including the n_init initial points,
    so exactly budget - n_init acquisition records are produced. An exception
    in a model fit or a step flags the trace incomplete and names the failure
    instead of raising, so the records before it are kept.
    """
    cfg.validate()
    oracle = make_oracle(cfg.oracle_name, cfg.dimension, noise=cfg.hp("oracle.noise"))
    root = RngStream(cfg.seed, "smo")

    # Mode-independent labels: every acquisition mode under one seed shares
    # these draws and therefore the same initial design.
    init_gen = root.child("init-design").generator()
    oracle_gen = root.child("oracle").generator()

    X_init = oracle.domain.sample(init_gen, cfg.n_init)
    y_init = np.array([oracle.sample(x, oracle_gen, 1)[0] for x in X_init])
    d = Dataset.from_arrays(X_init, y_init)

    trace = RunTrace(config=cfg, init_X=X_init, init_y=y_init)
    spec = AcquisitionSpec(kind=cfg.acquisition, **cfg.section("smo"))
    gp_cfg = cfg.section("gp")
    n_steps = cfg.budget - cfg.n_init
    best = trace.init_best
    mode = cfg.acquisition

    # One model slot: None for RANDOM, the GP for EI/UCB, the DEUP model for DEUP_*.
    state = None
    model = None
    try:
        if mode.uses_error_model:
            aleatoric = build_aleatoric(cfg, oracle, d, root.child("aleatoric"))
            state = est.deup_init_state(
                d,
                deup_fit(cfg),
                root.child("deup"),
                k=cfg.hp("deup.cv_folds"),
                n_pretrain=cfg.hp("deup.n_pretrain"),
                aleatoric=aleatoric,
            )
            model = state.model
        elif mode is not Acquisition.RANDOM:
            model = gp_fit(d, gp_cfg, root.child("fit-0"))

        for t in range(1, n_steps + 1):
            t0 = time.perf_counter()
            ctx = AcquisitionContext(best=best, model=model)
            x = argmax_acquisition(spec, oracle.domain, ctx, root.child(f"acq-{t}"))
            if model is None:
                acq_value = eu = float("nan")
            else:
                acq_value = float(score_batch(spec, x[None], ctx)[0])
                eu = float(model.predict_batch(x[None])[1][0])

            y = float(oracle.sample(x, oracle_gen, 1)[0])

            if state is not None:
                state = est.deup_interactive_step(state, x, y)
                model = state.model
            else:
                d.append_xy(x, y)
                if model is not None:
                    model = gp_fit(d, gp_cfg, root.child(f"fit-{t}"))

            best = max(best, y)
            trace.records.append(
                StepRecord(
                    step=t,
                    x=np.asarray(x, dtype=np.float64),
                    y=y,
                    best=best,
                    acq_value=acq_value,
                    epistemic=eu,
                    ms=(time.perf_counter() - t0) * 1e3,
                )
            )
    except Exception as exc:  # keep the partial trace; it names the failure
        trace.incomplete = True
        trace.failure = f"{type(exc).__name__}: {exc}"
    return trace


def read_trace(csv_path, summary_path) -> dict:
    """Load one exported trace; returns summary dict plus per-step best values."""
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    bests, ys = [], []
    with open(csv_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            bests.append(float(row["best"]))
            ys.append(float(row["y"]))
    summary["best_by_step"] = bests
    summary["y_by_step"] = ys
    return summary
