import multiprocessing
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running, such as a pool
    worker that outlived its pool."""
    yield
    left = multiprocessing.active_children()
    if left:
        pytest.fail(f"child processes still running after the test: {left}")
