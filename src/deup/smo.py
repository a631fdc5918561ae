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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import estimator as est
from .acquisition import AcquisitionSpec, acquisition_value, argmax_acquisition
from .benchmarks import make_oracle
from .core import (
    Acquisition,
    AleatoricMode,
    Dataset,
    ExperimentConfig,
    NumericsError,
    RngStream,
    one_blas_thread,
    write_csv,
    write_json,
)
from .models import Learner


@dataclass
class StepRecord:
    step: int
    x: np.ndarray
    y: float
    best: float
    acq_value: float
    epistemic: float
    ms: float = field(compare=False)  # wall time: reruns differ in it

    def __eq__(self, other):
        """Every compared field equal, NaN to NaN included."""
        if not isinstance(other, StepRecord):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name), equal_nan=True) for f in fields(self) if f.compare
        )


@dataclass
class RunTrace:
    config: ExperimentConfig
    init_X: np.ndarray
    init_y: np.ndarray
    records: list = field(default_factory=list)
    failure: str | None = None

    @property
    def incomplete(self) -> bool:
        return self.failure is not None

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
        header = ["step", *(f"x_{i}" for i in range(d)), "y", "best", "acq_value", "epistemic", "ms"]
        rows = ([r.step, *r.x, r.y, r.best, r.acq_value, r.epistemic, f"{r.ms:.3f}"] for r in self.records)
        write_csv(path, header, rows)

    def write_summary(self, path) -> None:
        summary = {
            "config": self.config.as_dict(),
            "init_best": self.init_best,
            "final_best": self.final_best,
            "evaluations": self.evaluations,
            "n_records": len(self.records),
            "incomplete": self.incomplete,
            "failure": self.failure,
        }
        write_json(path, summary)


def best_so_far(trace: RunTrace) -> list[float]:
    """Running maximum over all oracle values, starting from the init design."""
    out = [trace.init_best]
    for r in trace.records:
        out.append(max(out[-1], r.y))
    return out


def deup_fit(cfg: ExperimentConfig) -> est.DeupFit:
    """The learners of a run's DEUP fits: `deup.main_model` with its [gp] or [mlp]
    keys, the error model u (`estimator.error_learner`), the KDE bandwidth, and
    [gp] for the side variance GP of an MLP main model."""
    kind, layout = cfg.hp("deup.main_model"), cfg.layout()
    return est.DeupFit(
        Learner(kind, cfg.section(kind)),
        layout,
        est.error_learner(layout, cfg.hyperparameters),
        cfg.hp("kde.bandwidth"),
        Learner("gp", cfg.section("gp")),
    )


def build_aleatoric(cfg, oracle, d_init, rng) -> est.AleatoricEstimator | None:
    mode = cfg.aleatoric_mode
    if mode is AleatoricMode.ZERO:
        return None
    if mode is AleatoricMode.KNOWN:
        return est.AleatoricEstimator(lambda X: oracle.noise_fn(X) ** 2)
    # REPLICATES: groups drawn at the init points, fit once; the extra draws
    # per point are not counted against the acquisition budget (see README).
    k = int(cfg.hp("deup.replicates_k"))
    groups = [
        (x, oracle.sample(x, rng.child(f"replicates-{i}").generator(), replicates=k))
        for i, x in enumerate(d_init.inputs())
    ]
    regressor = Learner("gp", cfg.section("gp"))
    return est.estimate_aleatoric_from_replicates(groups, regressor, rng.child("aleatoric-fit"))


@dataclass(frozen=True)
class GpState:
    """The surrogate of EI and UCB: the data so far, the GP learner and the GP it fitted to the data."""

    d: Dataset
    learner: Learner | None  # None under RANDOM, which fits nothing
    rng: RngStream
    model: object | None
    step: int = 0

    def update(self, x, y: float) -> GpState:
        """A new state with (x, y) appended and the GP refit under stream label fit-{t}."""
        t = self.step + 1
        d = self.d.append(np.reshape(x, (1, -1)), [y])
        model = None if self.learner is None else self.learner.fit(d, self.rng.child(f"fit-{t}"))
        return replace(self, d=d, model=model, step=t)


def initial_state(cfg: ExperimentConfig, oracle, d: Dataset, root: RngStream) -> GpState | est.DeupState:
    """The step-0 surrogate on the initial design d: a `DeupState` for DEUP_*, else a `GpState`."""
    if cfg.acquisition.uses_error_model:
        return est.deup_init_state(
            d,
            deup_fit(cfg),
            root.child("deup"),
            k=cfg.hp("deup.cv_folds"),
            n_pretrain=cfg.hp("deup.n_pretrain"),
            aleatoric=build_aleatoric(cfg, oracle, d, root.child("aleatoric")),
        )
    learner = None if cfg.acquisition is Acquisition.RANDOM else Learner("gp", cfg.section("gp"))
    return GpState(d, learner, root, None if learner is None else learner.fit(d, root.child("fit-0")))


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
    oracle_gen = root.child("oracle").generator()
    X_init, y_init = oracle.draw(root.child("init-design").generator(), oracle_gen, cfg.n_init)

    trace = RunTrace(config=cfg, init_X=X_init, init_y=y_init)
    spec = AcquisitionSpec(kind=cfg.acquisition, **cfg.section("smo"))
    try:
        state = initial_state(cfg, oracle, Dataset(X_init, y_init), root)
        for t in range(1, cfg.budget - cfg.n_init + 1):
            t0 = time.perf_counter()
            model, best = state.model, trace.final_best
            x = argmax_acquisition(spec, oracle.domain, model, best, root.child(f"acq-{t}"))
            if model is None:
                acq_value = eu = float("nan")
            else:
                mean, spread = model.predict_batch(x[None])
                acq_value, eu = float(acquisition_value(spec, mean, spread, best)[0]), float(spread[0])
                if not (np.isfinite(acq_value) and np.isfinite(eu)):
                    raise NumericsError(f"step {t}: acq_value {acq_value} and epistemic {eu} at x = {x} are not finite")
            y = float(oracle.sample(x, oracle_gen, 1)[0])
            state = state.update(x, y)
            trace.records.append(
                StepRecord(
                    step=t,
                    x=np.asarray(x, dtype=np.float64),
                    y=y,
                    best=max(best, y),
                    acq_value=acq_value,
                    epistemic=eu,
                    ms=(time.perf_counter() - t0) * 1e3,
                )
            )
    except Exception as exc:  # keep the partial trace; it names the failure
        trace.failure = f"{type(exc).__name__}: {exc}"
    return trace


def read_trace(csv_path, summary_path) -> dict:
    """Load one exported trace; returns summary dict plus per-step best values.
    Raises ValueError, naming the CSV, when its row count is not the summary's n_records."""
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        summary["best_by_step"] = [float(row["best"]) for row in csv.DictReader(fh)]
    if len(summary["best_by_step"]) != summary["n_records"]:
        raise ValueError(
            f"{csv_path} has {len(summary['best_by_step'])} rows, but {summary_path} has n_records {summary['n_records']}"
        )
    return summary
