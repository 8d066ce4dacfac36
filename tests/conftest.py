"""Settings shared by every test module."""

import pytest
from hypothesis import settings

from rubric import pool

# Property tests draw the same examples on every run, so two runs of the
# suite pass or fail the same tests; tests that train or parse files per
# example outlast hypothesis' default deadline. Per-test max_examples stay.
settings.register_profile("rubric", derandomize=True, deadline=None)
settings.load_profile("rubric")


def workers_left_running():
    """The pids of every started worker process never reaped: alive, or
    exited and left a zombie."""
    return [worker.pid for worker in pool._started if worker.returncode is None]


@pytest.fixture(autouse=True)
def no_worker_left_by_the_test():
    """Fail a test that leaves a worker process alive or unreaped: every
    pool lives for one job, so none outlives the test that opened it. The
    leftovers are killed and reaped, so later tests do not fail for them."""
    yield
    left = [worker for worker in pool._started if worker.returncode is None]
    for worker in left:
        worker.kill()
        worker.wait()
    assert not left, f"worker processes left running by this test: {[w.pid for w in left]}"


@pytest.fixture(autouse=True, scope="session")
def no_worker_left_running():
    """Fail the session if any worker process it started was never reaped."""
    yield
    left = workers_left_running()
    assert not left, f"worker processes never reaped at the end of the session: {left}"
