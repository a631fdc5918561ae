"""Benchmark workloads: one SMO config each, run over the benchmark's seeds.

A workload fixes everything but the SMO seed; the seeds are a benchmark
argument (`--smo-seeds`), so changing them needs no edit here. Why each
workload exists is written up in WORKLOADS.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SMO_SEEDS = (0, 1)


@dataclass(frozen=True)
class Workload:
    name: str
    oracle: str
    dimension: int
    n_init: int
    budget: int
    acquisition: str  # a `deup.core.Acquisition` value
    features: tuple = ()  # `deup.core.Feature` values; DEUP modes only

    @property
    def uses_error_model(self) -> bool:
        return self.acquisition.startswith("deup")

    def config(self, seed: int, budget: int | None = None):
        """The `ExperimentConfig` of one run; `budget=n_init` gives a set-up-only run."""
        # Imported here: run.py reads the workload table without `deup` on its path.
        from deup.core import Acquisition, ExperimentConfig, Feature

        return ExperimentConfig(
            oracle_name=self.oracle,
            dimension=self.dimension,
            n_init=self.n_init,
            budget=self.budget if budget is None else budget,
            acquisition=Acquisition(self.acquisition),
            feature_set=frozenset(Feature(f) for f in self.features),
            seed=seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth1d-deup", "synth1d", 1, 6, 56, "deup_ei", ("log_variance",)),
        Workload("ackley5-deup", "ackley", 5, 20, 70, "deup_ei", ("log_variance",)),
        Workload("ackley5-ei", "ackley", 5, 20, 70, "ei"),
        # Budget 26, not the acceptance test's 56: one Levi step costs about
        # 0.65 s, so 56 calls on two seeds would not fit the benchmark's time.
        Workload(
            "levi13-mlp",
            "levi13",
            2,
            6,
            26,
            "deup_ei",
            ("x", "seen_bit", "log_density", "log_variance"),
        ),
    )
}
