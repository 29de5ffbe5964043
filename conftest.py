"""Test-run guards shared by every test directory (``tests/`` and
``perfbench/``)."""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

# A test that hangs, e.g. on a lost wake-up in the call pool, ends the run
# after this many seconds with every thread's stack on stderr.
HANG_TIMEOUT_S = 120
_REAL_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is suspended here, so this copies the terminal's stderr;
    # a report written to the captured one would be lost on exit.
    config.stash[_REAL_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_REAL_STDERR])


@pytest.fixture(autouse=True)
def hang_guard(request):
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True, file=request.config.stash[_REAL_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
