"""The benchmark's span tracer wraps `deup` names by string; each must exist,
where the tracer counts rows as `len(args[i])`, take its batch at position i,
and be called by tiny runs that between them use every model and feature."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import deup.smo
from deup.core import Acquisition, ExperimentConfig, Feature

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    """`TARGETS` of perfbench/tracer.py, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("target", tracer_targets(), ids=lambda target: target[0])
def test_tracer_target_resolves(target):
    span, module_name, attr, _ = target
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name)), f"{span}: {attr} is not defined on its class"
    else:
        assert callable(getattr(module, attr, None)), f"{span}: {module_name}.{attr} is missing"


def target_function(module_name, attr):
    """The plain function the tracer wraps: a method as its class defines it, so
    `self` counts as position 0, as it does in the tracer's `args`."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(module, cls_name))[meth]
    return getattr(module, attr)


@pytest.mark.parametrize(
    "target", [t for t in tracer_targets() if t[3] is not None], ids=lambda target: target[0]
)
def test_tracer_row_argument_is_the_batch(target):
    span, module_name, attr, index = target
    params = list(inspect.signature(target_function(module_name, attr)).parameters)
    expected = "d" if attr == "gp_fit" else "X"
    assert params[index] == expected, f"{span}: argument {index} of {attr} is {params[index]!r}, not {expected!r}"


def load_tracer():
    """perfbench/tracer.py as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Four tiny runs that between them reach every span: a GP main with its own
# variance feature, an MLP u over every feature, an MLP main with a side GP, and EI.
LIVE_SPAN_RUNS = (
    ("synth1d", 1, "deup_ei", "log_variance", {}),
    ("levi13", 2, "deup_ei", "x,seen_bit,log_density,log_variance", {}),
    ("synth1d", 1, "deup_ucb", "log_variance", {"deup.main_model": "mlp"}),
    ("synth1d", 1, "ei", "log_variance", {}),
)


def test_every_tracer_span_is_called():
    """A refactor that routes a call around the name the tracer wraps reads 0 calls on that span."""
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        for oracle, dimension, acquisition, features, hp in LIVE_SPAN_RUNS:
            cfg = ExperimentConfig(
                oracle_name=oracle,
                dimension=dimension,
                n_init=6,
                budget=8,
                acquisition=Acquisition(acquisition),
                feature_set=frozenset(Feature(f) for f in features.split(",")),
                hyperparameters={"mlp.epochs": 10, "smo.n_candidates": 64, **hp},
            )
            # Through the module: a name imported before install() is not rebound.
            trace = deup.smo.run_smo(cfg)
            assert not trace.incomplete, trace.failure
    finally:
        tracer.uninstall()
    calls = {name: agg["calls"] for name, agg in tracer.aggregate().items()}
    assert [name for name, n in calls.items() if n == 0] == [], calls
