import dataclasses

import pytest

import deup.cli
import deup.smo
from deup.cli import demo_fig1
from deup.core import Acquisition, ExperimentConfig, _openblas_thread_controls, _thread_controls
from deup.smo import run_smo

CONFIG = ExperimentConfig(
    oracle_name="synth1d",
    dimension=1,
    n_init=4,
    budget=6,
    acquisition=Acquisition.EI,
    hyperparameters={"smo.n_candidates": 64, "smo.n_refine": 1, "gp.n_restarts": 2},
)


def counts(controls):
    return [get() for get, _ in controls]


@pytest.fixture
def controls():
    """Each loaded OpenBLAS set to 2 threads, so that a cap and a restore both show."""
    found = _openblas_thread_controls()
    if not found:
        pytest.skip("no OpenBLAS is loaded in this process")
    saved = counts(found)
    for _, put in found:
        put(2)
    yield found
    for (_, put), n in zip(found, saved):
        put(n)


def spy_counts_in_fits(monkeypatch, controls, fail_at=None, module=deup.smo):
    """Record every copy's thread count at each gp_fit that `module` makes."""
    seen = []
    real_fit = module.gp_fit

    def fit(*args):
        seen.append(counts(controls))
        if len(seen) == fail_at:
            raise KeyboardInterrupt("interrupted mid-run")
        return real_fit(*args)

    monkeypatch.setattr(module, "gp_fit", fit)
    return seen


def test_every_loaded_openblas_is_found(controls):
    # numpy and scipy wheels each bundle one, under different symbol names.
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libraries = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
    assert len(controls) == len(libraries)


def test_run_smo_fits_on_one_thread_per_copy(controls, monkeypatch):
    seen = spy_counts_in_fits(monkeypatch, controls)
    trace = run_smo(CONFIG)
    assert not trace.incomplete
    assert len(seen) == 3
    assert all(c == [1] * len(controls) for c in seen)
    assert counts(controls) == [2] * len(controls)


def test_demo_fig1_called_directly_fits_on_one_thread_per_copy(controls, monkeypatch, tmp_path):
    seen = spy_counts_in_fits(monkeypatch, controls, module=deup.cli)
    demo_fig1(tmp_path)
    assert len(seen) == 7  # GP #1, five acquisition refits, GP #2
    assert all(c == [1] * len(controls) for c in seen)
    assert counts(controls) == [2] * len(controls)


def test_counts_restored_when_the_run_raises(controls, monkeypatch):
    # KeyboardInterrupt is not an Exception, so run_smo does not record it.
    seen = spy_counts_in_fits(monkeypatch, controls, fail_at=2)
    with pytest.raises(KeyboardInterrupt):
        run_smo(CONFIG)
    assert seen == [[1] * len(controls)] * 2
    assert counts(controls) == [2] * len(controls)


def test_counts_restored_when_validation_fails(controls):
    with pytest.raises(ValueError, match="budget"):
        run_smo(dataclasses.replace(CONFIG, budget=2))
    assert counts(controls) == [2] * len(controls)


def test_a_library_that_cannot_be_loaded_is_skipped(controls):
    # A maps entry of a library replaced on disk reads "<path> (deleted)".
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libraries = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
    found = _thread_controls([f"{libraries[0]} (deleted)", *libraries])
    assert [get() for get, _ in found] == counts(controls)
