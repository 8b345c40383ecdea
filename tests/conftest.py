"""Grid and load jobs run in the test's own process, whatever BLAS
thread count the environment sets, so a test that counts or records
calls sees every one. Tests marked fanout keep the real process count,
or force their own."""

import pytest

from headerscan import fanout


def pytest_configure(config):
    config.addinivalue_line("markers", "fanout: runs grid and load jobs on the real process count")


@pytest.fixture(autouse=True)
def jobs_in_one_process(request, monkeypatch):
    if request.node.get_closest_marker("fanout") is None:
        monkeypatch.setattr(fanout, "_processes", lambda: 1)
