"""Exact combinatorics and symmetries of the level graphs."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasket_fgf.geometry import (
    apply_cell_map,
    apply_cell_map_exact,
    build_level,
    distance_matrix,
    embed_indices,
    euclidean_distance,
    extract_cell,
    symmetry_permutation,
)

words = st.lists(st.integers(0, 2), min_size=0, max_size=3).map(tuple)


@pytest.mark.parametrize("m", range(7))
def test_counts(m):
    g = build_level(m)
    assert len(g) == (3 ** (m + 1) + 3) // 2
    assert len(g.edges) == 3 ** (m + 1)
    assert len(g.cells) == 3 ** m


def test_edges_and_measure_follow_the_cells(g4, cell_graph):
    # reference: walk the cells one corner at a time
    for g in (g4, cell_graph):
        counts = np.zeros(len(g), dtype=np.int64)
        sides = set()
        for _, tri in g.cells:
            for k in range(3):
                counts[tri[k]] += 1
                sides.add(tuple(sorted((tri[k], tri[(k + 1) % 3]))))
        np.testing.assert_array_equal(g.edges, np.array(sorted(sides)))
        np.testing.assert_array_equal(g.measure, counts * (1.0 / 3 ** (g.level + 1)))


def test_boundary_is_v0(g4):
    ids = g4.boundary_ids()
    assert len(ids) == 3
    coords = {g4.vertices[i].coord for i in ids}
    assert coords == {
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 2)),
    }


def test_edge_lengths_are_mesh_size(g4):
    p = g4.points
    d = np.linalg.norm(p[g4.edges[:, 0]] - p[g4.edges[:, 1]], axis=1)
    np.testing.assert_allclose(d, 2.0 ** -4, rtol=1e-12)


def test_exact_distance_matches_float(g3):
    a, b = g3.vertices[5], g3.vertices[11]
    d = euclidean_distance(a, b)
    pa, pb = np.array(a.point), np.array(b.point)
    assert d == pytest.approx(float(np.linalg.norm(pa - pb)), rel=1e-14)
    # squared distance is rational: dx^2 + 3*dy3^2
    exact = (a.x - b.x) ** 2 + 3 * (a.y3 - b.y3) ** 2
    assert d == pytest.approx(float(exact) ** 0.5, rel=1e-14)


def test_distance_matrix_basic(g3):
    dm = distance_matrix(g3)
    assert dm.shape == (len(g3), len(g3))
    np.testing.assert_allclose(dm, dm.T)
    assert np.all(np.diag(dm) == 0)
    off = dm[~np.eye(len(g3), dtype=bool)]
    assert off.min() == pytest.approx(2.0 ** -3)
    assert off.max() == pytest.approx(1.0)


@pytest.mark.parametrize("i", [0, 1, 2])
def test_cell_map_fixes_its_corner(i):
    q = {0: (Fraction(0), Fraction(0)),
         1: (Fraction(1), Fraction(0)),
         2: (Fraction(1, 2), Fraction(1, 2))}[i]
    assert apply_cell_map_exact((i,), q) == q
    # and contracts everything else halfway toward q_i
    c = (Fraction(1, 3), Fraction(1, 7))
    img = apply_cell_map_exact((i,), c)
    assert img[0] - q[0] == (c[0] - q[0]) / 2
    assert img[1] - q[1] == (c[1] - q[1]) / 2


@given(words, words)
@settings(max_examples=25, deadline=None)
def test_cell_maps_compose(u, v):
    c = (Fraction(2, 5), Fraction(1, 9))
    assert apply_cell_map_exact(u + v, c) == apply_cell_map_exact(
        u, apply_cell_map_exact(v, c))


@given(words)
@settings(max_examples=20, deadline=None)
def test_float_and_exact_maps_agree(word):
    c = (Fraction(1, 4), Fraction(1, 4))
    ex = apply_cell_map_exact(word, c)
    fl = apply_cell_map(word, (float(c[0]), float(c[1]) * np.sqrt(3.0)))
    assert fl[0] == pytest.approx(float(ex[0]), abs=1e-14)
    assert fl[1] == pytest.approx(float(ex[1]) * np.sqrt(3.0), abs=1e-14)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_reflections(g4, i):
    sym = symmetry_permutation(g4, i)
    perm = sym.permutation
    # involution
    np.testing.assert_array_equal(perm[perm], np.arange(len(g4)))
    # fixed corner is q_{i-1}
    assert perm[sym.fixed_vertex] == sym.fixed_vertex
    assert g4.vertices[sym.fixed_vertex].is_boundary
    # edges map to edges
    edge_set = {frozenset(e) for e in g4.edges.tolist()}
    mapped = {frozenset((int(perm[a]), int(perm[b]))) for a, b in g4.edges}
    assert mapped == edge_set
    # measure weights are preserved
    np.testing.assert_allclose(g4.measure[perm], g4.measure)


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
    # boundary of the sub-gasket = images of the corners under F_0
    bids = sub.boundary_ids()
    coords = {sub.vertices[i].coord for i in bids}
    expect = {apply_cell_map_exact((0,), c) for c in
              [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
               (Fraction(1, 2), Fraction(1, 2))]}
    assert coords == expect


def test_extract_empty_word_is_identity(g4):
    assert extract_cell(g4, ()) is g4


@given(words.filter(lambda w: len(w) >= 1))
@settings(max_examples=15, deadline=None)
def test_embed_indices_places_cell(word):
    ref = build_level(2)
    sub = extract_cell(build_level(2 + len(word)), word)
    idx = embed_indices(ref, sub)
    assert len(idx) == len(ref)
    for k, v in enumerate(ref.vertices):
        image = apply_cell_map_exact(word, v.coord)
        assert sub.vertices[idx[k]].coord == image


def test_embed_indices_level_mismatch(g4):
    sub = extract_cell(g4, (0,))
    with pytest.raises(ValueError):
        embed_indices(g4, sub)


def test_parent_ids_consistent(g4, cell_graph):
    pids = cell_graph.parent_ids
    for k, v in enumerate(cell_graph.vertices):
        assert g4.vertices[pids[k]].coord == v.coord
