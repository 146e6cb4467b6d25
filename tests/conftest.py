"""Checks that hold for every test of the suite."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """A test fails when, after it, a child of the test process is still
    running or has ended without being reaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:   # no child at all
        return
    if pid == 0:
        pytest.fail("a child process is still running")
    pytest.fail(f"child process {pid} ended (status {status}) but was never reaped")
