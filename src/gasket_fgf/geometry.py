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
is actually required.

Cells are a (3^m, 3) array of vertex ids in word order: the word of a cell is
the base-3 digits of its row, so the three children of cell k are rows 3k,
3k + 1 and 3k + 2 one level down, and corner p of a cell is its image of
q_p.  The boundary, the three mirror symmetries and sub-cell embeddings are
all read off these rows: no vertex is looked up by coordinates.

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

#: sigma_i on the letters {0, 1, 2}: reflection i fixes q_{i-1} and swaps the other two corners.
_MIRRORS = {1: (0, 2, 1), 2: (2, 1, 0), 3: (1, 0, 2)}


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

    def __init__(self, level, coords, cells, word=(), parent_ids=None):
        self.level = level
        self.word = tuple(word)
        self.coords = _frozen(coords)
        self.cells = _frozen(cells)
        self.parent_ids = parent_ids
        # corner i of the graph is corner i of its cell i...i, row i (c - 1)/2
        c = len(self.cells)
        self._boundary = np.sort(self.cells[[0, (c - 1) // 2, c - 1], [0, 1, 2]])
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

    def cell_words(self, rows=slice(None)):
        """Addresses of cells ``rows`` (default all), ``level`` digits each: ``word``, then the row's base-3 digits."""
        k = self.level - len(self.word)
        digits = np.arange(len(self.cells))[rows, None] // 3 ** np.arange(k - 1, -1, -1) % 3
        prefix = np.broadcast_to(np.array(self.word, dtype=np.int64), (len(digits), len(self.word)))
        return np.hstack([prefix, digits])


def _frozen(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


def check_address(level, word=()):
    """Raise ValueError unless ``word`` addresses a cell of the level-``level`` gasket."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must lie in [0, {MAX_LEVEL}]")
    if len(word) > level:
        raise ValueError("word longer than graph level")
    if any(l not in (0, 1, 2) for l in word):
        raise ValueError("word letters must lie in {0, 1, 2}")


@lru_cache(maxsize=None)
def build_level(m):
    """Construct the level-m graph V_m of the full gasket.

    Vertex ids are stable under refinement: the vertices of V_m appear in
    V_{m+1} with identical ids and coordinates (doubled, as the scale
    doubles).  No two cells share a side, so the new midpoints are numbered
    three per cell, in cell order, each cell's as (ab, bc, ca).  Per-vertex
    measure is (#incident cells) * 3^{-m} / 3.  Results are cached and must
    be treated as immutable.
    """
    check_address(m)
    coords = CORNERS
    tri = np.array([[0, 1, 2]], dtype=np.int64)
    for _ in range(m):
        # over the doubled scale, the midpoint of two corners is the sum of their old coordinates
        sides = coords[tri] + coords[np.roll(tri, -1, axis=1)]  # (c, 3, 2): ab, bc, ca
        a, b, c = tri.T
        mab, mbc, mca = (len(coords) + np.arange(3 * len(tri))).reshape(-1, 3).T
        coords = np.concatenate([2 * coords, sides.reshape(-1, 2)])
        tri = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c], axis=1).reshape(-1, 3)

    g = LevelGraph(m, coords, tri)
    assert len(g.edges) == 3 ** (m + 1), "edge count must be 3^(m+1)"
    assert len(g) == (3 ** (m + 1) + 3) // 2, "vertex count must be (3^(m+1)+3)/2"
    return g


def symmetry_permutation(g: LevelGraph, i) -> SymmetryMap:
    """Return the vertex permutation of the reflection fixing q_{i-1}.

    The reflection sigma acts on words letter by letter: it maps cell u to
    cell sigma(u), and corner p of that cell to corner sigma(p).  The
    permutation is verified to preserve the edge set before it is returned.
    """
    if i not in (1, 2, 3):
        raise ValueError("symmetry index must be 1, 2 or 3")
    if g.word:
        raise ValueError("symmetries are defined on full-gasket graphs only")
    letters = np.array(_MIRRORS[i])
    image = np.zeros(1, dtype=np.int64)
    for _ in range(g.level):  # row 3k + d goes to row 3 image[k] + sigma(d)
        image = (3 * image[:, None] + letters).ravel()
    perm = np.empty(len(g), dtype=np.int64)
    perm[g.cells] = g.cells[image[:, None], letters]
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
    check_address(g.level, word)
    size = 3 ** (g.level - len(word))
    row = int(np.ravel_multi_index(word, (3,) * len(word)))
    parent_ids, local = np.unique(g.cells[row * size:(row + 1) * size], return_inverse=True)
    return LevelGraph(g.level, g.coords[parent_ids], local.reshape(-1, 3), word=word, parent_ids=parent_ids)


def embed_indices(ref: LevelGraph, sub: LevelGraph):
    """Identify a reference level-m graph of the full gasket with an extracted sub-gasket.

    Returns an index array ``idx`` such that sub vertex ``idx[v]`` sits at
    F_w(coordinate of ref vertex v), where w = sub.word.  Requires a
    full-gasket ``ref`` and ref.level + len(sub.word) == sub.level.
    """
    if ref.word:
        raise ValueError("embedding is defined from full-gasket graphs only")
    if ref.level + len(sub.word) != sub.level:
        raise ValueError(f"incompatible levels: ref level {ref.level} + |word| {len(sub.word)}"
                         f" != sub level {sub.level}")
    # row k of sub.cells is the image under F_w of row k of ref.cells
    idx = np.empty(len(ref), dtype=np.int64)
    idx[ref.cells] = sub.cells
    return idx
