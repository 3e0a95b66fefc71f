"""Shared fixtures.

Bases are the full solves of :func:`gasket_fgf.verify.get_basis`, which keeps
one per level graph for the process, so unit tests and the acceptance gate
share one eigensolve per level graph.
"""

import tracemalloc

import numpy as np
import pytest

from gasket_fgf import spectral
from gasket_fgf.geometry import build_level, extract_cell
from gasket_fgf.verify import get_basis


@pytest.fixture(scope="session")
def g3():
    return build_level(3)


@pytest.fixture(scope="session")
def g4():
    return build_level(4)


@pytest.fixture(scope="session")
def g6():
    return build_level(6)


@pytest.fixture(scope="session")
def basis4():
    return get_basis(4)


@pytest.fixture(scope="session")
def basis5():
    return get_basis(5)


@pytest.fixture(scope="session")
def basis6():
    return get_basis(6)


@pytest.fixture(scope="session")
def sub_basis5():
    # level-5 graph of cell 0, kept in the level-4 parent normalization
    return get_basis(5, word=(0,))


@pytest.fixture(scope="session")
def cell_graph(g4):
    return extract_cell(g4, (0,))


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def memory_bound(monkeypatch):
    """Check that a call's memory estimate bounds its traced peak; returns the peak in bytes.

    The call runs once to warm the caches (every level's graph), once under
    tracemalloc, and once more with the available memory one byte below
    that peak, which its memory check must refuse.
    """

    def check(call):
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with monkeypatch.context() as m:
            m.setattr(spectral, "_available_memory", lambda: peak - 1)
            with pytest.raises(ValueError, match="GiB at peak, more than"):
                call()
        return peak

    return check
