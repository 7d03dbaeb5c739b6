import pytest

import hgc.harness as harness


@pytest.fixture
def two_pool_processes(monkeypatch):
    """Budget room for a pool of two: one BLAS thread on two cores.

    The budget asks ``harness.blas_threads`` and ``harness._usable_cores``,
    so ``workers=2`` forks two processes under this fixture on any
    machine and any BLAS.
    """
    monkeypatch.setattr(harness, "blas_threads", lambda: 1)
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
