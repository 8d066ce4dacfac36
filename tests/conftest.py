"""Settings shared by every test module."""

import pytest
from hypothesis import settings

from rubric import pool

# Property tests draw the same examples on every run, so two runs of the
# suite pass or fail the same tests; tests that train or parse files per
# example outlast hypothesis' default deadline. Per-test max_examples stay.
settings.register_profile("rubric", derandomize=True, deadline=None)
settings.load_profile("rubric")


@pytest.fixture(autouse=True)
def close_worker_pool():
    """End each test as ``rubric.cli.main`` ends a command: with the worker
    pool that library calls may have started closed."""
    yield
    pool.close()


@pytest.fixture(autouse=True, scope="session")
def no_worker_left_running():
    """Fail the session if any worker process it started is still alive."""
    yield
    alive = [proc.pid for proc in pool._started if proc.poll() is None]
    assert not alive, f"worker processes still running at the end of the session: {alive}"
