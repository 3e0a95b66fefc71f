"""Renormalized graph energy and lumped mass operator on a level graph.

The level-m Dirichlet energy is

    E_m(f) = (5/3)^m * sum_{edges (x,y)} (f(x) - f(y))^2 ,

assembled per edge: every unordered vertex pair inside a cell is an edge and
each gasket edge belongs to exactly one cell, so the per-edge sum equals the
half double-sum over cell vertex pairs.  The (5/3)^m prefactor makes the
sequence E_m(f) nondecreasing with harmonic extension as equality case, and
the exact edge partition of level m+1 into three level-m copies gives the
self-similar identity E_{m+1}(f) = (5/3) * sum_i E_m(f o F_i) to round-off.

The mass operator is the diagonal of lumped cell masses carried by the
graph; together (S, M) define the generalized eigenproblem whose spectrum
approximates the gasket Laplacian in continuum normalization.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .constants import ENERGY_SCALE
from .geometry import LevelGraph, build_level, embed_indices, extract_cell


@dataclass(frozen=True)
class StiffnessMatrix:
    """Sparse symmetric PSD energy operator with constant kernel."""

    level: int
    matrix: sp.csr_array
    prefactor: float

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class MassMatrix:
    """Diagonal lumped-measure operator."""

    level: int
    diagonal: np.ndarray

    @property
    def dim(self):
        return len(self.diagonal)


def assemble_energy(g: LevelGraph) -> StiffnessMatrix:
    """Assemble the stiffness matrix of E_m on ``g``.

    Off-diagonal entries are -(5/3)^m on edges and the diagonal is
    (5/3)^m times the vertex degree, the negated off-diagonal row sum, so
    the row sums vanish and the constant vector lies exactly in the
    kernel.  One coordinate list holds both, converted once to sorted CSR.
    """
    n = len(g)
    p = ENERGY_SCALE ** g.level
    e = g.edges
    rows = np.concatenate([e[:, 0], e[:, 1], np.arange(n)])
    cols = np.concatenate([e[:, 1], e[:, 0], np.arange(n)])
    vals = np.concatenate([np.full(2 * len(e), -p), p * np.bincount(e.ravel(), minlength=n)])
    matrix = sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    matrix.sort_indices()
    return StiffnessMatrix(g.level, matrix, p)


def assemble_mass(g: LevelGraph) -> MassMatrix:
    return MassMatrix(g.level, g.measure)


def energy_value(stiffness: StiffnessMatrix, f):
    """Quadratic form f^T S f (= E_m(f) for the graph that built S)."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (stiffness.dim,):
        raise ValueError(
            f"vector length {f.shape} does not match operator dimension {stiffness.dim}"
        )
    return float(f @ (stiffness.matrix @ f))


def _level_from_size(n):
    m, size = 0, 3
    while size < n:
        m += 1
        size = (3 ** (m + 1) + 3) // 2
    if size != n:
        raise ValueError(f"{n} is not a full-gasket vertex count")
    return m


def restriction_indices(fine: LevelGraph, i):
    """Vertex ids in ``fine`` of F_i(V_{m}) where m = fine.level - 1."""
    sub = extract_cell(fine, (i,))
    return sub.parent_ids[embed_indices(build_level(fine.level - 1), sub)]


def self_similar_energy_residual(f, fine: LevelGraph = None):
    """|E_{m+1}(f) - (5/3) * sum_i E_m(f o F_i)| for f on V_{m+1}.

    The identity is an exact edge partition, so the residual is pure
    round-off (<= 1e-12 relative).  Returns the absolute residual.
    """
    f = np.asarray(f, dtype=np.float64)
    if fine is None:
        fine = build_level(_level_from_size(len(f)))
    if fine.word:
        raise ValueError("self-similarity restriction requires a full-gasket graph")
    if fine.level < 1:
        raise ValueError("f must live on a level >= 1 graph")
    coarse = build_level(fine.level - 1)
    s_fine = assemble_energy(fine)
    s_coarse = assemble_energy(coarse)
    total = 0.0
    for i in range(3):
        total += energy_value(s_coarse, f[restriction_indices(fine, i)])
    return abs(energy_value(s_fine, f) - ENERGY_SCALE * total)


def parent_cells(fine: LevelGraph):
    """Corners (a, b, c) and side midpoints (m_ab, m_bc, m_ca) of the cells one level up.

    ``fine.cells`` is in word order, so rows 3k, 3k + 1 and 3k + 2 are the
    children of cell k of the level below, and row k of each (3^(m-1), 3)
    array describes that cell.  The children of a cell (a, b, c) are
    (a, m_ab, m_ca), (m_ab, b, m_bc) and (m_ca, m_bc, c).
    """
    tri = fine.cells.reshape(-1, 3, 3)
    return tri[:, [0, 1, 2], [0, 1, 2]], tri[:, [0, 1, 0], [1, 2, 2]]


@lru_cache(maxsize=None)
def _extension_pattern(level):
    """The fixed part F of E(mu) onto ``level``, with E(mu) u = F [u; alpha(mu) u; beta(mu) u].

    Every entry of F is 1: a coarse vertex reads its own value from the
    first block, and a midpoint reads its side's two ends from the second
    and the opposite corner from the third.  Cached by level, not by graph,
    so a rebuilt graph adds no second copy.
    """
    fine = build_level(level)
    (a, b, c), (mab, mbc, mca) = (x.T for x in parent_cells(fine))
    nc = (3**level + 3) // 2
    coarse = np.arange(nc)
    idx = sp.get_index_dtype(maxval=3 * nc)
    rows = np.concatenate([coarse, mab, mab, mbc, mbc, mca, mca, mab, mbc, mca]).astype(idx)
    cols = np.concatenate([coarse, nc + a, nc + b, nc + b, nc + c, nc + c, nc + a,
                           2 * nc + c, 2 * nc + a, 2 * nc + b]).astype(idx)
    return sp.csc_array((np.ones(len(rows)), (rows, cols)), shape=(len(fine), 3 * nc))


def decimation_extension(u, fine: LevelGraph, mu):
    """Extend level-(m-1) eigenfunctions of one eigenvalue to V_m = ``fine`` by spectral decimation.

    Each column of ``u`` becomes a level-m eigenfunction with renormalized
    eigenvalue ``mu`` (a scalar; lambda = (3/2) 5^m mu): the midpoint z of
    side xy of a level-(m-1) cell with opposite corner w gets u(z) =
    ((4 - mu)(u(x) + u(y)) + 2 u(w)) / ((2 - mu)(5 - mu)) (Dalrymple,
    Strichartz & Vinson 1999); ``mu = 0`` is harmonic extension.  Vertex ids
    are stable under refinement and each midpoint lies on one cell side, so
    this is the linear map E(mu) = [I; alpha(mu) side + beta(mu) opposite],
    applied as one product of a cached 0/1 matrix (:func:`_extension_pattern`)
    with [u; alpha u; beta u], so no matrix is built per call.  ``u`` is a
    dense vector or array.
    """
    denom = (2.0 - mu) * (5.0 - mu)
    return _extension_pattern(fine.level) @ np.concatenate([u, (4.0 - mu) / denom * u, 2.0 / denom * u])

