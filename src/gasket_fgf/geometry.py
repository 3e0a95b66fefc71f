"""Level graphs of the Sierpinski gasket with exact integer coordinates.

The gasket is the attractor of the three contractions

    F_i(z) = (z - q_i)/2 + q_i,      i = 0, 1, 2,

with corners q_0 = (0,0), q_1 = (1,0), q_2 = (1/2, sqrt(3)/2).  The level-m
approximation V_m is the union of the images F_{i_1} o ... o F_{i_m}(V_0); it
consists of 3^m triangular cells of side 2^{-m}, carries 3^{m+1} edges, and
has (3^{m+1}+3)/2 vertices.  Refining a cell introduces its three edge
midpoints, so every vertex of V_m sits at

    ( X / 2^(m+1) ,  (Y / 2^(m+1)) * sqrt(3) )

with integers X, Y.  The scale is 2^(m+1), not 2^m, because the apex
(1/2, 1/2) of V_0 is not an integer over 2^0.  A graph stores the integer
pairs (X, Y) as an (n, 2) array and multiplies by sqrt(3) only when a float
is actually required.  Vertex deduplication, the three mirror symmetries and
sub-cell embeddings are then exact integer arithmetic with no tolerance knobs.

Cells are a (3^m, 3) array of vertex ids in word order: the word of a cell is
the base-3 digits of its row, so the three children of cell k are rows 3k,
3k + 1 and 3k + 2 one level down.

The reference self-similar measure assigns each level-m cell mass 3^{-m};
lumping splits the mass of a cell evenly among its three corners, giving the
per-vertex weights used as the diagonal mass operator downstream.  Corner
vertices of the gasket belong to one cell and interior vertices to two, so
the weights take exactly two values on a full level graph and their total is
exactly 1.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import MAX_LEVEL

SQRT3 = math.sqrt(3.0)

#: Integer coordinates (X, Y) of the three corners over 2^1, point = (X/2, Y/2 * sqrt(3)).
CORNERS = np.array([[0, 0], [2, 0], [1, 1]], dtype=np.int64)
CORNERS.setflags(write=False)


@dataclass(frozen=True)
class SymmetryMap:
    """A mirror reflection of a level graph, encoded as a vertex permutation.

    ``index`` follows the convention that reflection i fixes corner q_{i-1};
    the underlying involution preserves edges, cells and measure weights
    exactly.
    """

    index: int
    permutation: np.ndarray
    fixed_vertex: int


class LevelGraph:
    """Vertex/edge/cell structure of a level-m gasket approximation.

    Immutable after construction.  ``coords`` is the (n, 2) int64 array of
    vertex coordinates (X, Y) over 2^(m+1), ``points`` their (n, 2) float
    positions in the plane, ``cells`` the (c, 3) array of cell corner ids in
    word order, ``edges`` the sorted (a < b) edge list and ``measure`` the
    lumped per-vertex mass.  ``word`` is the cell address this graph lives
    on: the empty tuple for the full gasket, a tuple over {0,1,2} for a
    sub-gasket extracted in place from a deeper level (see
    :func:`extract_cell`).  For an extracted graph the coordinates, energy
    prefactor and measure keep the *parent* normalization, so the total
    measure is 3^{-len(word)} rather than 1.
    """

    def __init__(self, level, coords, cells, boundary, word=(), parent_ids=None):
        self.level = level
        self.word = tuple(word)
        self.coords = _frozen(coords)
        self.cells = _frozen(cells)
        self.parent_ids = parent_ids
        self._boundary = np.sort(boundary)
        n = len(self.coords)
        a, b = self.cells, np.roll(self.cells, -1, axis=1)
        keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b), axis=None)
        # sorted (a < b) sides; two cells never share a side, so each appears once
        self.edges = _frozen(np.column_stack(np.divmod(keys, n)))
        counts = np.bincount(self.cells.ravel(), minlength=n)
        self.measure = _frozen(counts * (1.0 / 3 ** (level + 1)))
        points = self.coords / float(2 ** (level + 1))
        points[:, 1] *= SQRT3
        self.points = _frozen(points)

    def __len__(self):
        return len(self.coords)

    def __repr__(self):
        tag = f", word={''.join(map(str, self.word))!r}" if self.word else ""
        return f"LevelGraph(level={self.level}{tag}, vertices={len(self)}, cells={len(self.cells)})"

    def boundary_ids(self):
        """Ids of V_0 (full graph) or of the image of V_0 (sub-gasket), increasing."""
        return self._boundary.tolist()

    def cell_words(self):
        """The (c, level) array of cell addresses: ``word`` followed by the base-3 digits of the row."""
        k = self.level - len(self.word)
        digits = np.arange(len(self.cells))[:, None] // 3 ** np.arange(k - 1, -1, -1) % 3
        prefix = np.broadcast_to(np.array(self.word, dtype=np.int64), (len(digits), len(self.word)))
        return np.hstack([prefix, digits])


def _frozen(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


def _cell_map(word, coords, level):
    """Integer F_w = F_{i_1} o ... o F_{i_n} on coordinates over 2^(level+1).

    The images are over 2^(level+n+1): F_i(z) = (z + q_i)/2 sends Z over 2^(r+1)
    to Z + 2^r Q_i over 2^(r+2), with Q_i the corner over 2^1.
    """
    for i in reversed(word):
        coords = coords + (CORNERS[i] << level)
        level += 1
    return coords


def _ids_at(g: LevelGraph, coords):
    """Ids of the vertices of ``g`` at the integer ``coords``; raises KeyError when one is absent."""
    coords = np.asarray(coords, dtype=np.int64)
    base = 2 ** (g.level + 1) + 1
    keys = g.coords[:, 0] * base + g.coords[:, 1]
    order = np.argsort(keys)
    pos = np.searchsorted(keys[order], coords[:, 0] * base + coords[:, 1])
    ids = order[np.minimum(pos, len(order) - 1)]
    missing = np.any(g.coords[ids] != coords, axis=1)
    if missing.any():
        raise KeyError(f"no vertex at {coords[missing][0].tolist()}")
    return ids


@lru_cache(maxsize=None)
def build_level(m):
    """Construct the level-m graph V_m of the full gasket.

    Vertex ids are stable under refinement: the vertices of V_m appear in
    V_{m+1} with identical ids and coordinates (doubled, as the scale
    doubles).  New midpoints take ids in order of first appearance along
    the cells.  Per-vertex measure is (#incident cells) * 3^{-m} / 3.
    Results are cached and must be treated as immutable.
    """
    if not (0 <= m <= MAX_LEVEL):
        raise ValueError(f"level must lie in [0, {MAX_LEVEL}]")
    coords = CORNERS
    tri = np.array([[0, 1, 2]], dtype=np.int64)
    for step in range(m):
        # over the doubled scale, the midpoint of two corners is the sum of their old coordinates
        sides = coords[tri] + coords[np.roll(tri, -1, axis=1)]  # (c, 3, 2): ab, bc, ca
        keys = (sides[..., 0] * 2 ** (step + 3) + sides[..., 1]).ravel()  # Y <= 2^(step+2)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        a, b, c = tri.T
        mab, mbc, mca = (len(coords) + rank[inverse]).reshape(-1, 3).T
        coords = np.concatenate([2 * coords, sides.reshape(-1, 2)[np.sort(first)]])
        tri = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c], axis=1).reshape(-1, 3)

    g = LevelGraph(m, coords, tri, [0, 1, 2])
    assert len(g.edges) == 3 ** (m + 1), "edge count must be 3^(m+1)"
    assert len(g) == (3 ** (m + 1) + 3) // 2, "vertex count must be (3^(m+1)+3)/2"
    return g


# Reflections on integer (X, Y) over S = 2^(m+1).  sigma_i fixes corner q_{i-1}
# (an indexing convention; the mirror lines are the three medians).  Every
# vertex has X = Y mod 2, so the halvings are exact.
def _reflect(i, coords, scale):
    x, y = coords.T
    if i == 1:      # fixes q_0, swaps q_1 <-> q_2
        return np.column_stack([(x + 3 * y) // 2, (x - y) // 2])
    if i == 2:      # fixes q_1, swaps q_0 <-> q_2
        return np.column_stack([(x + scale - 3 * y) // 2, (scale - x - y) // 2])
    return np.column_stack([scale - x, y])  # i == 3: fixes q_2, mirror x = 1/2


def symmetry_permutation(g: LevelGraph, i) -> SymmetryMap:
    """Return the vertex permutation of the reflection fixing q_{i-1}.

    The image of every vertex is located by exact coordinate lookup, and the
    permutation is verified to preserve the edge set before it is returned.
    """
    if i not in (1, 2, 3):
        raise ValueError("symmetry index must be 1, 2 or 3")
    if g.word:
        raise ValueError("symmetries are defined on full-gasket graphs only")
    try:
        perm = _ids_at(g, _reflect(i, g.coords, 2 ** (g.level + 1)))
    except KeyError as exc:  # pragma: no cover - must not occur
        raise RuntimeError(f"reflection {i} has a vertex with no exact mirror image") from exc
    n = len(g)
    a, b = perm[g.edges].T
    if not np.array_equal(np.sort(np.minimum(a, b) * n + np.maximum(a, b)), g.edges @ [n, 1]):
        raise RuntimeError(f"reflection {i} does not preserve the edge set")
    return SymmetryMap(i, perm, i - 1)


def extract_cell(g: LevelGraph, word) -> LevelGraph:
    """Extract the sub-gasket supported on cell ``word`` of a full graph.

    The result is graph-isomorphic to a level (m - n) gasket, n = len(word),
    but keeps the parent normalization: vertex coordinates are the parent's,
    ``level`` stays equal to the parent level (so the energy prefactor is the
    parent one), and the measure is the parent measure restricted to the
    cell, totalling 3^{-n}.  With these conventions the sub-gasket
    eigenproblem reproduces the eigenvalue scaling lambda -> 5^n lambda.

    The cells are the contiguous block of the parent's rows whose words
    start with ``word``.  Local vertex ids follow increasing parent id;
    ``parent_ids`` records the embedding.  The empty word returns ``g``
    itself.
    """
    word = tuple(word)
    if not word:
        return g
    if g.word:
        raise ValueError("extraction is supported from full-gasket graphs only")
    if len(word) > g.level:
        raise ValueError("word longer than graph level")
    if any(l not in (0, 1, 2) for l in word):
        raise ValueError("word letters must lie in {0, 1, 2}")
    size = 3 ** (g.level - len(word))
    row = 0
    for l in word:
        row = 3 * row + l
    tri = g.cells[row * size:(row + 1) * size]
    parent_ids, local = np.unique(tri, return_inverse=True)
    corners = _ids_at(g, _cell_map(word, CORNERS, 0) << (g.level - len(word)))
    return LevelGraph(
        g.level,
        g.coords[parent_ids],
        local.reshape(-1, 3),
        np.searchsorted(parent_ids, corners),
        word=word,
        parent_ids=parent_ids,
    )


def embed_indices(ref: LevelGraph, sub: LevelGraph):
    """Identify a reference level-m graph with an extracted sub-gasket.

    Returns an index array ``idx`` such that sub vertex ``idx[v]`` sits at
    F_w(coordinate of ref vertex v), where w = sub.word.  Requires
    ref.level + len(sub.word) == sub.level.
    """
    if ref.level + len(sub.word) != sub.level:
        raise ValueError(
            f"incompatible levels: ref level {ref.level} + |word| {len(sub.word)}"
            f" != sub level {sub.level}"
        )
    return _ids_at(sub, _cell_map(sub.word, ref.coords, ref.level))
