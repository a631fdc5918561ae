"""Seeded fuzz over the config space.

Every draw sets the oracle, the acquisition, a feature subset, the aleatoric
mode and each schema key from its `_SCHEMA` rule: each side of every range
bound and every allowed name. Each draw must end one of three ways:

- `validate()` raises `ConfigError` or `ValidationError` naming a schema key;
- `run_smo` gives a complete trace that a rerun repeats bit for bit;
- the loop's own non-finite-record `NumericsError` ends the trace. An MLP u
  at a large learning rate can predict a log error that overflows `np.exp`;
  u's output is left unclamped, since clamping it moves the benchmark's
  regret (ROADMAP item 2).
"""

import collections
import re

import numpy as np
import pytest

from deup.benchmarks import make_oracle
from deup.core import (
    _FIELD_KEYS,
    _ROWS,
    Acquisition,
    AleatoricMode,
    ConfigError,
    ExperimentConfig,
    Feature,
    ValidationError,
)
from deup.smo import run_smo

N_DRAWS = 300
# Range rule -> (values that meet it, values that break it): each side of each bound.
SIDES = {
    ">= 0": ((0, 1), (-1,)),
    ">= 1": ((1, 2), (0,)),
    ">= 2": ((2, 3), (1,)),
    "> 0": ((1e-3, 1), (0,)),
    "in (0, 1]": ((1e-3, 1), (0, 2)),
}
ORACLES = {"ackley": (1, 2, 3), "levi13": (2,), "synth1d": (1,)}
NON_FINITE = re.compile(r"NumericsError: step \d+: acq_value \S+ and epistemic \S+ at x = .* are not finite", re.S)


def draw_config(gen: np.random.Generator) -> ExperimentConfig:
    """One config: each key keeps its default or, half the time, takes a value
    from its rule; one draw in ten also sets one ranged key past its bound."""

    def pick(values):
        return values[gen.integers(len(values))]

    oracle = pick(list(ORACLES))
    n_init = int(gen.integers(2, 7))
    values = {
        "oracle.dimension": pick(ORACLES[oracle]),
        "smo.n_init": n_init,
        "smo.budget": n_init + int(gen.integers(0, 4)),
        "mlp.epochs": 20,
    }
    for key, (typ, _, rule) in _ROWS.items():
        if key in _FIELD_KEYS or gen.random() < 0.5:
            continue
        if isinstance(rule, tuple):
            values[key] = pick(rule)
        elif isinstance(rule, str):
            values[key] = typ(pick(SIDES[rule][0]))
    # Keys whose rule reads a second key: cross each bound of [2, n_init] and ">= 2".
    values["deup.cv_folds"] = int(gen.integers(1, n_init + 2))
    values["deup.replicates_k"] = int(gen.integers(1, 4))
    if gen.random() < 0.1:
        key = pick([k for k, row in _ROWS.items() if isinstance(row[2], str)])
        values[key] = _ROWS[key][0](pick(SIDES[_ROWS[key][2]][1]))
    features = [f for f in Feature if gen.random() < 0.5]
    return ExperimentConfig(
        oracle_name=oracle,
        dimension=values.pop("oracle.dimension"),
        n_init=values.pop("smo.n_init"),
        budget=values.pop("smo.budget"),
        acquisition=pick(list(Acquisition)),
        feature_set=frozenset(features),
        seed=int(gen.integers(2**16)),
        aleatoric_mode=pick(list(AleatoricMode)),
        hyperparameters=values,
    )


def trace_problems(cfg: ExperimentConfig, trace) -> list:
    """What is wrong with a complete trace of `cfg`, if anything."""
    domain = make_oracle(cfg.oracle_name, cfg.dimension).domain
    problems = []
    if len(trace.records) != cfg.budget - cfg.n_init:
        problems.append(f"{len(trace.records)} records for budget {cfg.budget}, n_init {cfg.n_init}")
    best = trace.init_best
    for r in trace.records:
        best = max(best, r.y)
        if not domain.contains(r.x):
            problems.append(f"step {r.step}: x = {r.x} outside the domain")
        if r.best != best:
            problems.append(f"step {r.step}: best {r.best} is not the running maximum {best}")
        if cfg.acquisition is not Acquisition.RANDOM and not np.isfinite([r.acq_value, r.epistemic]).all():
            problems.append(f"step {r.step}: acq_value {r.acq_value}, epistemic {r.epistemic}")
    return problems


@pytest.mark.incomplete_ok
def test_every_draw_is_rejected_naming_a_key_or_runs_reproducibly():
    gen = np.random.default_rng(20261019)
    outcomes, failures = collections.Counter(), []
    for i in range(N_DRAWS):
        cfg = draw_config(gen)
        try:
            cfg.validate()
        except (ConfigError, ValidationError) as exc:
            named = re.search(r"key '(\w+\.\w+)'", str(exc))
            if named is None or named.group(1) not in _ROWS:
                failures.append(f"draw {i}: {type(exc).__name__} names no schema key: {exc}")
            outcomes[f"rejected {named.group(1) if named else '?'}"] += 1
            continue
        trace = run_smo(cfg)
        rerun = run_smo(cfg)
        if trace.records != rerun.records or trace.failure != rerun.failure:
            failures.append(f"draw {i}: the rerun differs: {cfg}")
        if trace.failure is None:
            problems = trace_problems(cfg, trace)
            failures += [f"draw {i}: {p}: {cfg}" for p in problems]
            outcomes["complete"] += 1
        elif NON_FINITE.fullmatch(trace.failure):
            outcomes["non-finite record"] += 1
        else:
            failures.append(f"draw {i}: {trace.failure}: {cfg}")
            outcomes["other failure"] += 1
    print(dict(sorted(outcomes.items())))
    assert not failures, "\n".join(failures)
