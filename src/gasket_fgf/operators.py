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

import numpy as np
import scipy.sparse as sp

from .constants import ENERGY_SCALE
from .geometry import LevelGraph, apply_cell_map_exact, build_level


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

    @property
    def trace(self):
        return float(self.diagonal.sum())


def assemble_energy(g: LevelGraph) -> StiffnessMatrix:
    """Assemble the stiffness matrix of E_m on ``g``.

    Off-diagonal entries are -(5/3)^m on edges; the diagonal is set to the
    negated off-diagonal row sum, which enforces zero row sums (and hence an
    exactly constant kernel vector) at assembly time.
    """
    n = len(g)
    p = ENERGY_SCALE ** g.level
    e = g.edges
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    vals = np.full(2 * len(e), -p)
    off = sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    diag = -np.asarray(off.sum(axis=1)).ravel()
    matrix = (off + sp.diags_array(diag, format="csr")).tocsr()
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
    coarse = build_level(fine.level - 1)
    return np.array(
        [fine.vertex_at(apply_cell_map_exact((i,), v.coord)) for v in coarse.vertices],
        dtype=np.int64,
    )


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


def decimation_extension(u, fine: LevelGraph, mu):
    """Extend level-(m-1) eigenfunctions to V_m = ``fine`` by spectral decimation.

    Column j of ``u`` becomes the level-m eigenfunction with renormalized
    eigenvalue ``mu[j]`` (lambda = (3/2) 5^m mu): the midpoint z of side xy
    of a level-(m-1) cell with opposite corner w gets u(z) =
    ((4 - mu)(u(x) + u(y)) + 2 u(w)) / ((2 - mu)(5 - mu)) (Dalrymple,
    Strichartz & Vinson 1999); ``mu = 0`` is harmonic extension.  Vertex ids
    are stable under refinement, and each midpoint lies on one cell side.
    """
    u = np.asarray(u, dtype=np.float64)
    tri = np.array([t for _, t in fine.cells], dtype=np.int64).reshape(-1, 3, 3)
    # children of one parent (a, b, c): (a, mab, mca), (mab, b, mbc), (mca, mbc, c)
    a, mab, mca = tri[:, 0].T
    b, mbc, c = tri[:, 1, 1], tri[:, 1, 2], tri[:, 2, 2]
    g = np.empty((len(fine),) + u.shape[1:])
    g[: len(u)] = u
    denom = (2.0 - mu) * (5.0 - mu)
    for z, x, y, w in ((mab, a, b, c), (mbc, b, c, a), (mca, c, a, b)):
        g[z] = ((4.0 - mu) * (u[x] + u[y]) + 2.0 * u[w]) / denom
    return g


def harmonic_extension(f_coarse, fine: LevelGraph, coarse: LevelGraph = None):
    """Energy-minimizing extension of a ``coarse`` function to ``fine``.

    ``coarse`` defaults to the level below ``fine``.  Level by level this is
    :func:`decimation_extension` at ``mu = 0``: the classical 1/5-2/5 rule,
    with E_{m+1}(g) = E_m(f).
    """
    if coarse is None:
        coarse = build_level(fine.level - 1)
    g = np.asarray(f_coarse, dtype=np.float64)
    if len(g) != len(coarse):
        raise ValueError("boundary data does not match the coarse graph")
    for level in range(coarse.level + 1, fine.level + 1):
        g = decimation_extension(g, build_level(level), 0.0)
    return g
