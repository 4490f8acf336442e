import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    # every child a test forks, directly or through a command, must be
    # reaped before the test returns
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left unreaped (pid {pid or 'still running'})")
