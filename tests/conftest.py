"""Fixtures shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """A test may fork, but must reap every child it made before it ends."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process is left behind (waitpid returned pid {pid}, status {status})")
