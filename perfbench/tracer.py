"""Span tracer installed from outside the library.

Wraps the public functions and methods of each `deup` module at every
module that binds them by name, records one span per call (name, start,
end, parent span, run id, batch rows) in memory, and aggregates calls,
inclusive time, self time and rows per span name. Nothing under `src/deup`
is edited: the wrappers replace module and class attributes at run time.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time

# (span name, module, attribute, batch-argument index or None). Attributes
# with a dot are methods patched on their class; plain names are module
# functions, rebound at every `deup` module that holds the same object.
TARGETS = (
    ("core.dataset_inputs", "deup.core", "Dataset.inputs", None),
    ("core.dataset_contains", "deup.core", "Dataset.contains", None),
    ("core.rng_generator", "deup.core", "RngStream.generator", None),
    ("models.gp_fit", "deup.models", "gp_fit", 0),
    ("models.gp_predict", "deup.models", "GPPredictor.predict_batch", 1),
    ("models.mlp_fit", "deup.models", "mlp_fit", None),
    ("models.mlp_predict", "deup.models", "MLPPredictor.predict_batch", 1),
    ("density.kde_fit", "deup.density", "kde_fit", None),
    ("density.log_density", "deup.density", "KdePredictor.log_density_batch", 1),
    ("estimator.init_state", "deup.estimator", "deup_init_state", None),
    ("estimator.interactive_step", "deup.estimator", "deup_interactive_step", None),
    ("estimator.error_fit", "deup.estimator", "fit_error_predictor", None),
    ("estimator.feature_context", "deup.estimator", "fit_feature_context", None),
    ("estimator.features", "deup.estimator", "build_features_batch", 1),
    ("estimator.epistemic", "deup.estimator", "UncertaintyModel.epistemic_batch", 1),
    ("estimator.mean", "deup.estimator", "UncertaintyModel.predict_mean_batch", 1),
    ("acquisition.argmax", "deup.acquisition", "argmax_acquisition", None),
    ("acquisition.score", "deup.acquisition", "score_batch", 1),
    ("benchmarks.sample", "deup.benchmarks", "Oracle.sample", None),
    ("smo.run", "deup.smo", "run_smo", None),
)
SPAN_NAMES = tuple(t[0] for t in TARGETS)
# Spans whose batch argument is reported as `.rows`; gp_fit reports the mean
# training-set size per fit instead.
ROW_SPANS = tuple(t[0] for t in TARGETS if t[3] is not None and t[0] != "models.gp_fit")

# Span fields: name, start, end, parent index, run id, rows, child coverage.
_NAME, _START, _END, _PARENT, _RUN, _ROWS, _CHILD = range(7)


class Tracer:
    """Records nested spans of one process; single-threaded by design."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        self.final_error_rows: dict[int, int] = {}
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, rows_arg):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows = 0 if rows_arg is None else len(args[rows_arg])
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id, rows, 0.0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[_END] = clock()
                if span[_PARENT] >= 0:
                    spans[span[_PARENT]][_CHILD] += span[_END] - span[_START]
            if name == "estimator.interactive_step":
                self.final_error_rows[self.run_id] = len(result.d_u)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at its class or at every `deup` module binding it."""
        importlib.import_module("deup.cli")  # binds gp_fit and run_smo by name too
        modules = [m for n, m in sys.modules.items() if n == "deup" or n.startswith("deup.")]
        for name, module_name, attr, rows_arg in TARGETS:
            home = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, rows_arg))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig, rows_arg)
            bound = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"tracer: {module_name}.{attr} is bound nowhere")

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def aggregate(self, run_id: int | None = None) -> dict:
        """Per span name: calls, inclusive s, self s and rows (optionally for one run)."""
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0} for n in SPAN_NAMES}
        for sp in self.spans:
            if run_id is not None and sp[_RUN] != run_id:
                continue
            agg = out[sp[_NAME]]
            dur = sp[_END] - sp[_START]
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - sp[_CHILD]
            agg["rows"] += sp[_ROWS]
        return out

    def write(self, path) -> None:
        """Write every span as one CSV row, after the traced work has ended."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "run", "rows"])
            for i, sp in enumerate(self.spans):
                out.writerow([i, sp[_NAME], repr(sp[_START]), repr(sp[_END]), sp[_PARENT], sp[_RUN], sp[_ROWS]])
