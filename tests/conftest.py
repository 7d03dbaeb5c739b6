import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import hgc.harness as harness

# Every run draws the same examples and keeps no example database, so the
# property tests pass or fail alike on every run and machine.  Hypothesis's
# other files (the constants it mines from the source) go to a directory
# removed at exit, so a run writes nothing to .hypothesis/.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture
def two_pool_processes(monkeypatch):
    """Budget room for a pool of two: one BLAS thread on two cores.

    The budget asks ``harness.blas_threads`` and ``harness._usable_cores``,
    so ``workers=2`` forks two processes under this fixture on any
    machine and any BLAS.
    """
    monkeypatch.setattr(harness, "blas_threads", lambda: 1)
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
