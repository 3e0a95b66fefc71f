"""Level graphs of the Sierpinski gasket with exact symbolic coordinates.

The gasket is the attractor of the three contractions

    F_i(z) = (z - q_i)/2 + q_i,      i = 0, 1, 2,

with corners q_0 = (0,0), q_1 = (1,0), q_2 = (1/2, sqrt(3)/2).  The level-m
approximation V_m is the union of the images F_{i_1} o ... o F_{i_m}(V_0); it
consists of 3^m triangular cells of side 2^{-m}, carries 3^{m+1} edges, and
has (3^{m+1}+3)/2 vertices.  Refining a cell introduces its three edge
midpoints, so every vertex of V_m has coordinates of the form

    ( a / 2^m ,  (b / 2^m) * sqrt(3) )

with integers a, b.  We store the rational pair (a/2^m, b/2^m) exactly and
multiply by sqrt(3) only when a float is actually required.  Vertex
deduplication, the three mirror symmetries, and sub-cell embeddings are
then exact integer arithmetic with no tolerance knobs.

The reference self-similar measure assigns each level-m cell mass 3^{-m};
lumping splits the mass of a cell evenly among its three corners, giving the
per-vertex weights used as the diagonal mass operator downstream.  Corner
vertices of the gasket belong to one cell and interior vertices to two, so
the weights take exactly two values on a full level graph and their total is
exactly 1.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .constants import MAX_LEVEL

SQRT3 = math.sqrt(3.0)

#: Exact symbolic coordinates (x, y3) of the three corners, point = (x, y3*sqrt(3)).
CORNERS = (
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 2)),
)


@dataclass(frozen=True)
class Vertex:
    """A vertex of a level graph.

    ``x`` and ``y3`` are exact rationals; the planar position is
    ``(x, y3*sqrt(3))``.  ``is_boundary`` marks membership in V_0 (for a
    full graph) or in the image of V_0 (for an extracted sub-gasket).
    """

    id: int
    x: Fraction
    y3: Fraction
    level_introduced: int
    is_boundary: bool

    @property
    def coord(self):
        """Exact symbolic coordinate pair (x, y3)."""
        return (self.x, self.y3)

    @property
    def point(self):
        """Float position in the plane."""
        return (float(self.x), float(self.y3) * SQRT3)


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

    Immutable after construction.  ``word`` is the cell address this graph
    lives on: the empty tuple for the full gasket, a tuple over {0,1,2} for
    a sub-gasket extracted in place from a deeper level (see
    :func:`extract_cell`).  For an extracted graph the energy prefactor and
    measure keep the *parent* normalization, so the total measure is
    3^{-len(word)} rather than 1.
    """

    def __init__(self, level, vertices, edges, cells, measure, word=(), parent_ids=None):
        self.level = level
        self.word = tuple(word)
        self.vertices = tuple(vertices)
        self.edges = np.asarray(edges, dtype=np.int64)
        self.edges.setflags(write=False)
        self.cells = tuple(cells)
        self.measure = np.asarray(measure, dtype=np.float64)
        self.measure.setflags(write=False)
        self.parent_ids = parent_ids
        self.points = np.array([v.point for v in self.vertices], dtype=np.float64)
        self.points.setflags(write=False)
        self._coord_index = {v.coord: v.id for v in self.vertices}

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        tag = f", word={''.join(map(str, self.word))!r}" if self.word else ""
        return f"LevelGraph(level={self.level}{tag}, vertices={len(self)}, cells={len(self.cells)})"

    def vertex_at(self, coord):
        """Exact-coordinate lookup; raises KeyError when absent."""
        return self._coord_index[coord]

    def boundary_ids(self):
        return [v.id for v in self.vertices if v.is_boundary]


def _midpoint(a, b):
    return ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)


def _contract(i, c):
    q = CORNERS[i]
    return ((c[0] + q[0]) / 2, (c[1] + q[1]) / 2)


def apply_cell_map_exact(word, coord):
    """Exact F_w = F_{i_1} o ... o F_{i_n} acting on a symbolic pair."""
    for i in reversed(word):
        coord = _contract(i, coord)
    return coord


def apply_cell_map(word, p):
    """Apply the cell map F_w to a plane point (floats).

    The empty word is the identity; a word of length n composes contraction
    ratio 2^{-n} in total.
    """
    x, y = float(p[0]), float(p[1])
    for i in reversed(word):
        qx, qy = CORNERS[i][0], CORNERS[i][1]
        x = (x + float(qx)) / 2.0
        y = (y + float(qy) * SQRT3) / 2.0
    return (x, y)


def _cell_scan(cells, n):
    """Sorted unique edges (a < b) and per-vertex incident-cell counts of a cell list."""
    tri = np.array([t for _, t in cells], dtype=np.int64)
    sides = np.stack([tri, np.roll(tri, -1, axis=1)], axis=2).reshape(-1, 2)
    return np.unique(np.sort(sides, axis=1), axis=0), np.bincount(tri.ravel(), minlength=n)


@lru_cache(maxsize=None)
def build_level(m):
    """Construct the level-m graph V_m of the full gasket.

    Vertex ids are stable under refinement: the vertices of V_m appear in
    V_{m+1} with identical ids and coordinates.  Per-vertex measure is
    (#incident cells) * 3^{-m} / 3.  Results are cached and must be treated
    as immutable.
    """
    if not (0 <= m <= MAX_LEVEL):
        raise ValueError(f"level must lie in [0, {MAX_LEVEL}]")
    coords = list(CORNERS)
    index = {c: i for i, c in enumerate(coords)}
    introduced = [0, 0, 0]
    cells = [((), (0, 1, 2))]
    for step in range(1, m + 1):
        refined = []
        for word, (a, b, c) in cells:
            ca, cb, cc = coords[a], coords[b], coords[c]
            mids = (_midpoint(ca, cb), _midpoint(cb, cc), _midpoint(cc, ca))
            ids = []
            for mc in mids:
                j = index.get(mc)
                if j is None:
                    j = len(coords)
                    coords.append(mc)
                    index[mc] = j
                    introduced.append(step)
                ids.append(j)
            mab, mbc, mca = ids
            refined.append((word + (0,), (a, mab, mca)))
            refined.append((word + (1,), (mab, b, mbc)))
            refined.append((word + (2,), (mca, mbc, c)))
        cells = refined

    n = len(coords)
    edges, counts = _cell_scan(cells, n)
    assert len(edges) == 3 ** (m + 1), "edge count must be 3^(m+1)"
    assert n == (3 ** (m + 1) + 3) // 2, "vertex count must be (3^(m+1)+3)/2"
    measure = counts * (1.0 / 3 ** (m + 1))
    vertices = [
        Vertex(i, coords[i][0], coords[i][1], introduced[i], i < 3) for i in range(n)
    ]
    return LevelGraph(m, vertices, edges, cells, measure)


def euclidean_distance(a: Vertex, b: Vertex):
    """Euclidean distance |a - b|, computed from exact coordinates.

    The squared distance dx^2 + 3*dy3^2 is an exact rational; only the final
    square root is floating point.
    """
    dx = a.x - b.x
    dy = a.y3 - b.y3
    return math.sqrt(float(dx * dx + 3 * dy * dy))


def distance_matrix(g: LevelGraph):
    """All-pairs Euclidean distances from float coordinates."""
    p = g.points
    return np.linalg.norm(p[:, None, :] - p[None, :, :], axis=2)


# Reflections in symbolic (x, y3) coordinates.  sigma_i fixes corner q_{i-1}
# (an indexing convention; the mirror lines are the three medians).
def _reflect(i, coord):
    x, y = coord
    if i == 1:      # fixes q_0, swaps q_1 <-> q_2
        return (x / 2 + y * Fraction(3, 2), x / 2 - y / 2)
    if i == 2:      # fixes q_1, swaps q_0 <-> q_2
        return ((x + 1) / 2 - y * Fraction(3, 2), (1 - x) / 2 - y / 2)
    if i == 3:      # fixes q_2, swaps q_0 <-> q_1 (vertical mirror x = 1/2)
        return (1 - x, y)
    raise ValueError("symmetry index must be 1, 2 or 3")


def symmetry_permutation(g: LevelGraph, i) -> SymmetryMap:
    """Return the vertex permutation of the reflection fixing q_{i-1}.

    The image of every vertex is located by exact coordinate lookup, and the
    permutation is verified to preserve the edge set before it is returned.
    """
    if i not in (1, 2, 3):
        raise ValueError("symmetry index must be 1, 2 or 3")
    if g.word:
        raise ValueError("symmetries are defined on full-gasket graphs only")
    perm = np.empty(len(g), dtype=np.int64)
    for v in g.vertices:
        image = _reflect(i, v.coord)
        try:
            perm[v.id] = g.vertex_at(image)
        except KeyError as exc:  # pragma: no cover - must not occur
            raise RuntimeError(f"vertex {v.id} has no exact mirror image") from exc
    edge_set = {(a, b) for a, b in map(tuple, g.edges)}
    for a, b in g.edges:
        pa, pb = int(perm[a]), int(perm[b])
        if (min(pa, pb), max(pa, pb)) not in edge_set:
            raise RuntimeError(f"reflection {i} does not preserve edge ({a},{b})")
    return SymmetryMap(i, perm, i - 1)


def extract_cell(g: LevelGraph, word) -> LevelGraph:
    """Extract the sub-gasket supported on cell ``word`` of a full graph.

    The result is graph-isomorphic to a level (m - n) gasket, n = len(word),
    but keeps the parent normalization: vertex coordinates are the parent's,
    ``level`` stays equal to the parent level (so the energy prefactor is the
    parent one), and the measure is the parent measure restricted to the
    cell, totalling 3^{-n}.  With these conventions the sub-gasket
    eigenproblem reproduces the eigenvalue scaling lambda -> 5^n lambda.

    Local vertex ids follow increasing parent id; ``parent_ids`` records the
    embedding.  The empty word returns ``g`` itself.
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
    n = len(word)
    sub_cells = [(w, tri) for (w, tri) in g.cells if w[:n] == word]
    parent_ids = sorted({v for _, tri in sub_cells for v in tri})
    local = {p: k for k, p in enumerate(parent_ids)}
    corners = {apply_cell_map_exact(word, c) for c in CORNERS}
    vertices = []
    for k, p in enumerate(parent_ids):
        pv = g.vertices[p]
        vertices.append(Vertex(k, pv.x, pv.y3, pv.level_introduced, pv.coord in corners))
    cells = [(w, tuple(local[v] for v in tri)) for (w, tri) in sub_cells]
    edges, counts = _cell_scan(cells, len(parent_ids))
    measure = counts * (1.0 / 3 ** (g.level + 1))
    return LevelGraph(
        g.level,
        vertices,
        edges,
        cells,
        measure,
        word=word,
        parent_ids=np.array(parent_ids, dtype=np.int64),
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
    idx = np.empty(len(ref), dtype=np.int64)
    for v in ref.vertices:
        idx[v.id] = sub.vertex_at(apply_cell_map_exact(sub.word, v.coord))
    return idx
