import pytest

import hgc.harness as harness


@pytest.fixture
def two_pool_processes(monkeypatch):
    """Budget room for a pool of two: one OpenBLAS thread on two cores.

    The budget reads the environment and the core count, not the loaded
    OpenBLAS, so ``workers=2`` forks two processes under this fixture on
    any machine.
    """
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
