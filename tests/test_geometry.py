"""Exact combinatorics and symmetries of the level graphs."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasket_fgf.constants import MAX_LEVEL
from gasket_fgf.geometry import (
    build_level,
    embed_indices,
    extract_cell,
    symmetry_permutation,
)

words = st.lists(st.integers(0, 2), min_size=0, max_size=3).map(tuple)

#: Float corners q_0, q_1, q_2 of the gasket.
Q = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])


def float_cell_map(word, points):
    """F_w = F_{i_1} o ... o F_{i_n} on plane points, F_i(z) = (z + q_i)/2, in floats."""
    for i in reversed(word):
        points = (points + Q[i]) / 2.0
    return points


@pytest.mark.parametrize("m", range(14))
def test_counts(m):
    g = build_level(m)
    assert len(g) == (3 ** (m + 1) + 3) // 2
    assert len(g.edges) == 3 ** (m + 1)
    assert len(g.cells) == 3 ** m
    # no two vertices share a coordinate pair
    assert len(np.unique(g.coords, axis=0)) == len(g)
    # every edge has length 2^-m: over 2^(m+1), dX^2 + 3 dY^2 = 2^2 exactly
    d = g.coords[g.edges[:, 0]] - g.coords[g.edges[:, 1]]
    np.testing.assert_array_equal(d[:, 0] ** 2 + 3 * d[:, 1] ** 2, 4)


def test_edges_and_measure_follow_the_cells(g4, cell_graph):
    # reference: walk the cells one corner at a time
    for g in (g4, cell_graph):
        counts = np.zeros(len(g), dtype=np.int64)
        sides = set()
        for tri in g.cells.tolist():
            for k in range(3):
                counts[tri[k]] += 1
                sides.add(tuple(sorted((tri[k], tri[(k + 1) % 3]))))
        np.testing.assert_array_equal(g.edges, np.array(sorted(sides)))
        np.testing.assert_array_equal(g.measure, counts * (1.0 / 3 ** (g.level + 1)))


def test_boundary_is_v0(g4):
    ids = g4.boundary_ids()
    assert len(ids) == 3
    # (0, 0), (1, 0) and (1/2, 1/2) over 2^5
    assert {tuple(g4.coords[i].tolist()) for i in ids} == {(0, 0), (32, 0), (16, 16)}
    np.testing.assert_array_equal(g4.points[ids], Q)


def test_edge_lengths_are_mesh_size(g4):
    p = g4.points
    d = np.linalg.norm(p[g4.edges[:, 0]] - p[g4.edges[:, 1]], axis=1)
    np.testing.assert_allclose(d, 2.0 ** -4, rtol=1e-12)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_reflections(g4, i):
    sym = symmetry_permutation(g4, i)
    perm = sym.permutation
    # involution
    np.testing.assert_array_equal(perm[perm], np.arange(len(g4)))
    # fixed corner is q_{i-1}
    assert perm[sym.fixed_vertex] == sym.fixed_vertex
    assert sym.fixed_vertex in g4.boundary_ids()
    # edges map to edges
    edge_set = {frozenset(e) for e in g4.edges.tolist()}
    mapped = {frozenset((int(perm[a]), int(perm[b]))) for a, b in g4.edges}
    assert mapped == edge_set
    # measure weights are preserved
    np.testing.assert_allclose(g4.measure[perm], g4.measure)


def mirror(i, points):
    """Reflection of plane points in the median through q_{i-1}, in floats."""
    q = Q[i - 1]
    u = (Q.sum(axis=0) - q) / 2.0 - q  # toward the midpoint of the opposite side
    u /= np.linalg.norm(u)
    z = points - q
    return q + 2.0 * (z @ u)[:, None] * u - z


@pytest.mark.parametrize("m", range(9))
@pytest.mark.parametrize("i", [1, 2, 3])
def test_reflections_are_mirrors(m, i):
    g = build_level(m)
    perm = symmetry_permutation(g, i).permutation
    np.testing.assert_allclose(g.points[perm], mirror(i, g.points), rtol=0, atol=1e-14)


def test_reflection_composition_is_rotation(g4):
    a = symmetry_permutation(g4, 1).permutation
    b = symmetry_permutation(g4, 2).permutation
    rot = a[b]
    # two distinct mirrors compose to an order-3 rotation
    assert not np.array_equal(rot, np.arange(len(g4)))
    np.testing.assert_array_equal(rot[rot[rot]], np.arange(len(g4)))


def test_extract_cell_structure(g4, cell_graph):
    sub = cell_graph
    # the cell keeps its parent's refinement level and normalization
    assert sub.level == 4
    assert sub.word == (0,)
    assert len(sub) == (3 ** 4 + 3) // 2
    # parent normalization: total measure is 3^{-n}, not 1
    assert sub.measure.sum() == pytest.approx(1.0 / 3.0, rel=1e-14)
    # boundary of the sub-gasket = images of the corners under F_0:
    # q_0, (q_0 + q_1)/2 and (q_0 + q_2)/2, over 2^5
    coords = {tuple(sub.coords[i].tolist()) for i in sub.boundary_ids()}
    assert coords == {(0, 0), (16, 0), (8, 8)}


@pytest.mark.parametrize("word", [w for n in (1, 2, 3) for w in itertools.product(range(3), repeat=n)],
                         ids=lambda w: "".join(map(str, w)))
def test_extract_cell_boundary_is_the_image_of_v0(word):
    sub = extract_cell(build_level(5), word)
    ids = sub.boundary_ids()
    assert ids == sorted(ids) and len(set(ids)) == 3
    # corner i of the sub-gasket is F_w(q_i); ids increase, so match the points up to order
    points, images = sub.points[ids], float_cell_map(word, Q)
    distance = np.linalg.norm(points[:, None] - images[None], axis=2)
    np.testing.assert_allclose(distance.min(axis=0), 0.0, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(np.sort(distance.argmin(axis=0)), [0, 1, 2])


def test_extract_empty_word_is_identity(g4):
    assert extract_cell(g4, ()) is g4


@pytest.mark.parametrize("m", [-1, MAX_LEVEL + 1])
def test_build_level_out_of_range(m):
    with pytest.raises(ValueError, match=rf"level must lie in \[0, {MAX_LEVEL}\]"):
        build_level(m)


@pytest.mark.parametrize("i", [0, 4, "1"])
def test_symmetry_index_must_be_1_2_or_3(g4, i):
    with pytest.raises(ValueError, match="symmetry index must be 1, 2 or 3"):
        symmetry_permutation(g4, i)


def test_symmetries_need_a_full_gasket(cell_graph):
    with pytest.raises(ValueError, match="full-gasket graphs only"):
        symmetry_permutation(cell_graph, 1)


@pytest.mark.parametrize("word,match", [((0, 1, 2, 0, 1), "word longer than graph level"),
                                        ((3,), "letters must lie in"),
                                        ((0, -1), "letters must lie in")])
def test_extract_cell_rejects_a_bad_word(g4, word, match):
    with pytest.raises(ValueError, match=match):
        extract_cell(g4, word)


def test_extract_cell_needs_a_full_gasket(cell_graph):
    with pytest.raises(ValueError, match="full-gasket graphs only"):
        extract_cell(cell_graph, (1,))


@given(words.filter(lambda w: len(w) >= 1))
@settings(max_examples=15, deadline=None)
def test_embed_indices_places_cell(word):
    ref = build_level(2)
    sub = extract_cell(build_level(2 + len(word)), word)
    idx = embed_indices(ref, sub)
    assert len(idx) == len(ref)
    np.testing.assert_allclose(sub.points[idx], float_cell_map(word, ref.points), rtol=0, atol=1e-14)


def test_embed_indices_level_mismatch(g4):
    sub = extract_cell(g4, (0,))
    with pytest.raises(ValueError):
        embed_indices(g4, sub)


def test_embed_indices_needs_a_full_gasket_ref():
    ref = extract_cell(build_level(5), (0,))
    with pytest.raises(ValueError, match="full-gasket graphs only"):
        embed_indices(ref, extract_cell(build_level(6), (1,)))


def test_parent_ids_consistent(g4, cell_graph):
    pids = cell_graph.parent_ids
    np.testing.assert_array_equal(g4.coords[pids], cell_graph.coords)
    np.testing.assert_array_equal(g4.points[pids], cell_graph.points)
