"""Artifact writers: PGM rasters against a full nearest-vertex query, and sub-gasket graph bytes."""

import hashlib

import numpy as np
import pytest
from scipy.spatial import cKDTree

from gasket_fgf.geometry import build_level, extract_cell
from gasket_fgf.io import pixel_vertices, write_graph_json, write_pgm


def pixel_centres(size):
    xs = (np.arange(size) + 0.5) / size
    ys = np.sqrt(3.0) / 2.0 * (1.0 - (np.arange(size) + 0.5) / size)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def full_query_pgm(values, graph, size):
    """The raster with every pixel looked up in the k-d tree."""
    _, nearest = cKDTree(graph.points).query(pixel_centres(size))
    shade = np.asarray(values, dtype=np.float64)[nearest]
    lo, hi = shade.min(), shade.max()
    pix = np.round(255.0 * (shade - lo) / (hi - lo)).astype(np.uint8)
    return f"P5\n{size} {size}\n255\n".encode("ascii") + pix.tobytes()


def assert_same_pgm(tmp_path, graph, size):
    values = np.random.default_rng(len(graph)).standard_normal(len(graph))
    write_pgm(values, graph, tmp_path / "f.pgm", size)
    assert (tmp_path / "f.pgm").read_bytes() == full_query_pgm(values, graph, size)


@pytest.mark.parametrize("level", range(9))
def test_pgm_matches_full_query(tmp_path, level):
    # no pixel has two nearest vertices at size 512 up to level 8
    assert_same_pgm(tmp_path, build_level(level), 512)


def test_pgm_odd_size_and_sub_gasket_match_full_query(tmp_path):
    # neither an odd pixel grid nor a sub-gasket is mirror symmetric: both query every pixel
    assert_same_pgm(tmp_path, build_level(6), 511)
    assert_same_pgm(tmp_path, extract_cell(build_level(6), (1,)), 512)


def test_pgm_ties_take_the_mirror_of_an_equally_near_vertex(tmp_path):
    # at size 64 pixels of the right half have two nearest vertices from level 6 on
    g, size = build_level(6), 64
    nearest = pixel_vertices(g, size).ravel()
    dist, full = cKDTree(g.points).query(pixel_centres(size))
    assert (nearest != full).any()
    chosen = np.linalg.norm(g.points[nearest] - pixel_centres(size), axis=1)
    assert np.all(chosen <= dist + 1e-12)
    write_pgm(np.abs(g.points[:, 0] - 0.5), g, tmp_path / "f.pgm", size)
    pix = np.frombuffer((tmp_path / "f.pgm").read_bytes()[-size * size:], np.uint8).reshape(size, size)
    np.testing.assert_array_equal(pix, pix[:, ::-1])


def test_sub_gasket_graph_json_keeps_its_bytes(tmp_path):
    # pins the cell words and boundary flags of an extracted cell
    write_graph_json(extract_cell(build_level(5), (1, 2)), tmp_path / "g.json")
    digest = hashlib.sha256((tmp_path / "g.json").read_bytes()).hexdigest()
    assert digest == "7596823ab181dd03ed832ea2e0253ba28a19874fde9715e08ab2e2a6322f835d"
