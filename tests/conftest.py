"""Shared fixtures.

Bases are the full solves of :func:`gasket_fgf.verify.get_basis`, which keeps
one per level graph for the process, so unit tests and the acceptance gate
share one eigensolve per level graph.
"""

import numpy as np
import pytest

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
