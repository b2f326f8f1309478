"""Shared test settings and fixtures.

Property tests run on small shared machines, where one slow example says
nothing about correctness, so the default hypothesis profile has no
per-example deadline. Tests may still set their own ``max_examples``.

Every test must leave no child process behind, reaped or not. The
``serial_cells`` and ``split_cells`` fixtures fix where a runner's cells
run: all in the test's process, as a test that records calls from inside
cells needs, or split between processes from the first cell on.
"""

import math
import os

import pytest
from hypothesis import settings

from cliffscale import _parallel

settings.register_profile("cliffscale", deadline=None)
settings.load_profile("cliffscale")


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process: waitpid found pid {pid} (0: still running)")


@pytest.fixture
def serial_cells(monkeypatch):
    monkeypatch.setattr(_parallel, "SERIAL_START_S", math.inf)


@pytest.fixture
def split_cells(monkeypatch):
    monkeypatch.setattr(_parallel, "SERIAL_START_S", 0.0)
