"""Artifact writers: PGM rasters against exact and k-d nearest-vertex queries, table rows, bytes and memory."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from gasket_fgf.fields import FieldSample
from gasket_fgf.geometry import build_level, extract_cell, symmetry_permutation
from gasket_fgf.io import pixel_vertices, write_field_csv, write_graph_json, write_matrix_coo, write_pgm
from gasket_fgf.operators import assemble_energy


def pixel_centres(size):
    xs = (np.arange(size) + 0.5) / size
    ys = np.sqrt(3.0) / 2.0 * (1.0 - (np.arange(size) + 0.5) / size)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def full_query_pgm(values, graph, size):
    """The raster with every pixel looked up in the k-d tree, grey levels scaled over all vertices."""
    _, nearest = cKDTree(graph.points).query(pixel_centres(size))
    shade = np.asarray(values, dtype=np.float64)[nearest]
    lo, hi = np.min(values), np.max(values)
    pix = np.round(255.0 * (shade - lo) / (hi - lo)).astype(np.uint8)
    return f"P5\n{size} {size}\n255\n".encode("ascii") + pix.tobytes()


def assert_same_pgm(tmp_path, graph, size):
    values = np.random.default_rng(len(graph)).standard_normal(len(graph))
    write_pgm(values, graph, tmp_path / "f.pgm", size)
    assert (tmp_path / "f.pgm").read_bytes() == full_query_pgm(values, graph, size)


def test_pgm_of_a_constant_field_is_black(tmp_path):
    # no grey scale spans a single value: every pixel is 0
    write_pgm(np.full(42, 3.5), build_level(3), tmp_path / "f.pgm", 16)
    assert (tmp_path / "f.pgm").read_bytes() == b"P5\n16 16\n255\n" + bytes(256)


@pytest.mark.parametrize("level", range(9))
def test_pgm_matches_full_query(tmp_path, level):
    # no pixel has two nearest vertices at size 512 up to level 8
    assert_same_pgm(tmp_path, build_level(level), 512)


def squared_distances(graph, size, rows, ids, cols):
    """Exact integer squared distances from the pixels (rows, :cols) to the vertices ``ids``.

    Pixel centres and vertices are compared as integers over 4 size 2^(level+1).
    """
    unit = 2 ** graph.level
    px = 4 * unit * (2 * np.arange(cols) + 1)
    py = 2 * unit * (2 * size - 2 * rows - 1)
    vx, vy = (4 * size * graph.coords).T
    return (px[:, None] - vx[ids]) ** 2 + 3 * (py - vy[ids]) ** 2


def exact_nearest(graph, size, candidates=None, mirror=True):
    """Every pixel's nearest vertex by exact integer squared distance, ties to the smallest id.

    ``candidates`` (a row of vertex ids per pixel) narrows the search; by
    default every vertex is a candidate.  With ``mirror`` the right half of a
    full gasket takes the mirror images of the left half's vertices.
    """
    mirror = mirror and not graph.word
    cols = (size + 1) // 2 if mirror else size
    nearest = np.empty((size, size), dtype=np.intp)
    for j in range(size):
        ids = np.arange(len(graph))[None, :] if candidates is None else candidates[j, :cols]
        dist = squared_distances(graph, size, j, ids, cols)
        nearest[j, :cols] = np.where(dist == dist.min(axis=1, keepdims=True), ids, len(graph)).min(axis=1)
    if mirror:
        image = symmetry_permutation(graph, 3).permutation  # x -> 1 - x
        nearest[:, size - size // 2:] = image[nearest[:, : size // 2][:, ::-1]]
    return nearest


def test_pgm_odd_size_and_sub_gasket_match_full_query():
    # the exact query of every vertex, on a pixel grid with a middle column and on a sub-gasket
    for level in range(7):
        g = build_level(level)
        np.testing.assert_array_equal(pixel_vertices(g, 511), exact_nearest(g, 511))
        if level:
            sub = extract_cell(g, (1,))
            np.testing.assert_array_equal(pixel_vertices(sub, 512), exact_nearest(sub, 512))


def test_pgm_ties_take_the_mirror_of_an_equally_near_vertex(tmp_path):
    for level in range(7):
        for size in (512, 64, 16):  # at size 16 from level 6 on, centres lie on cell diagonals
            g = build_level(level)
            np.testing.assert_array_equal(pixel_vertices(g, size), exact_nearest(g, size))
    # at size 32 pixels of the right half have two nearest vertices at level 6, and the
    # mirror of the left half's choice is not the smallest id
    g, size = build_level(6), 32
    nearest, smallest = pixel_vertices(g, size), exact_nearest(g, size, mirror=False)
    assert (nearest != smallest).any()
    centres = pixel_centres(size).reshape(size, size, 2)
    np.testing.assert_allclose(np.linalg.norm(g.points[nearest] - centres, axis=2),
                               np.linalg.norm(g.points[smallest] - centres, axis=2), rtol=0, atol=1e-15)
    write_pgm(np.abs(g.points[:, 0] - 0.5), g, tmp_path / "f.pgm", size)
    pix = np.frombuffer((tmp_path / "f.pgm").read_bytes()[-size * size:], np.uint8).reshape(size, size)
    np.testing.assert_array_equal(pix, pix[:, ::-1])


@pytest.mark.parametrize("level", [9, 10])
def test_pgm_ties_at_deep_levels_take_the_smallest_id(level):
    # size 512 has tie pixels at levels 9 and 10; a vertex as near as the nearest is among the 4 nearest
    g, size = build_level(level), 512
    _, near4 = cKDTree(g.points).query(pixel_centres(size), k=4)
    near4 = near4.reshape(size, size, 4)
    np.testing.assert_array_equal(pixel_vertices(g, size), exact_nearest(g, size, near4))
    dist = squared_distances(g, size, np.arange(size)[:, None, None], near4, size)
    assert (dist[..., 0] == dist[..., 1]).any() and not (dist[..., 0] == dist[..., 3]).any()


@pytest.mark.parametrize("level, mib", [(7, 6.1), (10, 8.0)])
def test_pixel_vertices_peak_memory_stays_below_the_kd_tree(level, mib):
    # traced peaks of the k-d tree lookup this replaced, which the raster must not exceed
    g = build_level(level)
    pixel_vertices(g, 512)
    tracemalloc.start()
    try:
        pixel_vertices(g, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2**20


#: SHA-256 of write_pgm at size 512 for default_rng(level).standard_normal values; 13,122 pixels tie at level 10.
PGM_SHA256 = {
    3: "6bfc0eca13afcb39709fbc59a72f572c8c26147c90c64b649954558c92709511",
    7: "243f3235b47822f955105157c4d87c924569a638d07ec08f8fe6a4149658c0a2",
    10: "39a5f28211d0a0e2af0fea5fc055110a6fd400d8041ed0d3caaca9eccf6c1a0b",
}


@pytest.mark.parametrize("level", sorted(PGM_SHA256))
def test_pgm_keeps_its_bytes(tmp_path, level):
    g = build_level(level)
    write_pgm(np.random.default_rng(level).standard_normal(len(g)), g, tmp_path / "f.pgm", 512)
    assert hashlib.sha256((tmp_path / "f.pgm").read_bytes()).hexdigest() == PGM_SHA256[level]


def test_pgm_peak_memory_is_one_block(tmp_path):
    # a whole id raster, a float shade raster and a float temporary peaked at 6.0 MiB at level 7
    g = build_level(7)
    values = np.random.default_rng(7).standard_normal(len(g))
    write_pgm(values, g, tmp_path / "f.pgm")
    assert _traced_peak(lambda: write_pgm(values, g, tmp_path / "f.pgm")) <= 3 * 2**20


def test_sub_gasket_graph_json_keeps_its_bytes(tmp_path):
    # pins the cell words and boundary flags of an extracted cell
    write_graph_json(extract_cell(build_level(5), (1, 2)), tmp_path / "g.json")
    digest = hashlib.sha256((tmp_path / "g.json").read_bytes()).hexdigest()
    assert digest == "7596823ab181dd03ed832ea2e0253ba28a19874fde9715e08ab2e2a6322f835d"


def test_field_csv_blocks_write_the_rows_of_the_per_row_writer(tmp_path):
    # 9,843 rows cross two 4,096-row blocks; signed zeros and subnormals keep their text
    graph = build_level(8)
    values = np.random.default_rng(3).standard_normal(len(graph))
    values[[0, 4095, 4096, 9842]] = [-0.0, 5e-324, -2.5e-310, 0.0]
    sample = FieldSample(level=8, s=0.6, hurst=0.3, modes=17, seed=9,
                         coefficients=np.zeros(17), values=values)
    write_field_csv(sample, graph, tmp_path / "f.csv", extra={"budget": 0.01})
    header = {"level": 8, "s": 0.6, "H": 0.3, "J": 17, "seed": 9, "generator": "PCG64", "budget": 0.01}
    rows = ["# " + json.dumps(header, separators=(", ", ": ")), "vertex_id,x,y,value"]
    rows += ["%d,%.17g,%.17g,%.17g" % (i, x, y, v)
             for i, ((x, y), v) in enumerate(zip(graph.points.tolist(), values.tolist()))]
    text = (tmp_path / "f.csv").read_text()
    assert text == "\n".join(rows) + "\n"
    assert rows[2] == "0,0,0,-0" and rows[2 + 4095].endswith(",4.9406564584124654e-324")


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_field_csv_memory_is_one_block(tmp_path):
    # the whole table as one list of Python values peaked at 14.9 MiB at level 10
    graph = build_level(10)
    sample = FieldSample(level=10, s=0.5, hurst=0.5, modes=3, seed=1, coefficients=np.zeros(3),
                         values=np.random.default_rng(4).standard_normal(len(graph)))
    assert _traced_peak(lambda: write_field_csv(sample, graph, tmp_path / "f.csv")) <= 2e6


def test_matrix_coo_memory_is_one_block(tmp_path):
    # the whole entry list of Python values peaked at 67.5 MiB at level 10; the
    # COO copy of the matrix and its sort order stay
    stiffness = assemble_energy(build_level(10))
    assert _traced_peak(lambda: write_matrix_coo(stiffness, tmp_path / "s.coo")) <= 25e6
