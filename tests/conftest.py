import pytest

import deup.smo


def pytest_configure(config):
    config.addinivalue_line("markers", "incomplete_ok: the test expects run_smo to record a failure")


@pytest.fixture(autouse=True)
def complete_runs(request, monkeypatch):
    """Fail a test whose run_smo call records a failure in its trace.

    run_smo turns any exception in its fits or steps into an incomplete trace,
    so without this a loop that raises at step 1 would pass every check that
    does not look at completeness. Applies to test modules that import run_smo
    by name; a test marked incomplete_ok gets the real function.
    """
    real = getattr(request.module, "run_smo", None)
    if real is not deup.smo.run_smo or request.node.get_closest_marker("incomplete_ok"):
        return

    def checked(cfg):
        trace = real(cfg)
        assert not trace.incomplete, trace.failure
        return trace

    monkeypatch.setattr(request.module, "run_smo", checked)
