"""Deterministic file formats: JSON, COO matrices, CSV tables, PGM rasters.

All floating-point values are serialized with 17 significant digits so that
identical configurations yield byte-identical artifacts; no timestamps or
environment-dependent fields are ever written.
"""

import dataclasses
import json

import numpy as np

#: Vertices, edges or cells per block of :func:`write_graph_json`.
GRAPH_ROWS = 4096


def fmt(x):
    """Decimal representation with 17 significant digits."""
    return format(float(x), ".17g")


def to_jsonable(obj):
    """Recursively convert dataclasses/arrays/np-scalars to plain containers."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _is_scalar(v):
    return v is None or isinstance(v, (bool, int, float, str))


def dumps(obj):
    """JSON text with floats at 17 significant digits and stable key order."""
    return _dump(to_jsonable(obj), 0)


def _dump(obj, indent):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f'{pad}  {json.dumps(str(k))}: {_dump(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if all(_is_scalar(v) for v in obj):
            return "[" + ", ".join(_scalar(v) for v in obj) + "]"
        parts = [f"{pad}  {_dump(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _scalar(obj)


def _scalar(v):
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return json.dumps(v)
    if isinstance(v, float):
        return fmt(v)
    raise TypeError(f"cannot serialize {type(v)!r}")


def write_json(obj, path):
    with open(path, "w") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


# ---------------------------------------------------------------------------
# module-specific formats
# ---------------------------------------------------------------------------

def write_graph_json(g, path, config=None):
    """Graph document: config, level, word, then one row per vertex, edge and cell.

    The text is what :func:`write_json` writes for the same document, with
    one ``%``-template per block of rows; ``%.17g`` writes the same text as
    :func:`fmt`.  Vertices, edges and cells are written ``GRAPH_ROWS`` rows
    at a time, so no whole table of strings, lists or cell digits is formed.
    """
    head = {} if config is None else {"config": config}
    head["level"] = g.level
    if g.word:
        head["word"] = list(g.word)
    vertex = ('    {\n      "id": %d,\n      "x": %.17g,\n      "y": %.17g,\n'
              '      "boundary": %s,\n      "measure": %.17g\n    }')
    cell = ('    {\n      "word": [' + ", ".join(["%d"] * g.level)
            + '],\n      "ids": [%d, %d, %d]\n    }')
    boundary = np.full(len(g), "false")
    boundary[g.boundary_ids()] = "true"

    def vertex_rows(rows):
        return [range(len(g))[rows], *g.points[rows].T.tolist(), boundary[rows].tolist(), g.measure[rows].tolist()]

    with open(path, "w") as fh:
        fh.write(dumps(head)[:-2] + ',\n  "vertices": [\n')
        _write_rows(fh, vertex, vertex_rows, len(g))
        fh.write('\n  ],\n  "edges": [\n')
        _write_rows(fh, "    [%d, %d]", lambda rows: g.edges[rows].T.tolist(), len(g.edges))
        fh.write('\n  ],\n  "cells": [\n')
        _write_rows(fh, cell, lambda rows: np.hstack([g.cell_words(rows), g.cells[rows]]).T.tolist(), len(g.cells))
        fh.write("\n  ]\n}\n")


def _write_rows(fh, template, columns_of, count, sep=",\n"):
    """``template`` for each of ``count`` rows, joined by ``sep``, with one ``%`` per ``GRAPH_ROWS`` rows.

    ``columns_of(rows)`` gives the columns of a slice of rows, one sequence each.
    """
    for k in range(0, count, GRAPH_ROWS):
        cols = columns_of(slice(k, k + GRAPH_ROWS))
        rows = len(cols[0])
        values = [None] * (len(cols) * rows)
        for i, col in enumerate(cols):
            values[i :: len(cols)] = col
        fh.write((sep if k else "") + ((template + sep) * (rows - 1) + template) % tuple(values))


def write_matrix_coo(stiffness, path):
    """Coordinate-list text: one JSON header line, then 'row col value' lines.

    Written as :func:`write_graph_json` writes its rows; ``%.17g`` writes the same text as :func:`fmt`.
    """
    m = stiffness.matrix.tocoo()
    order = np.lexsort((m.col, m.row))
    header = {"level": stiffness.level, "dim": int(m.shape[0]), "prefactor": stiffness.prefactor}

    def entry_rows(rows):
        return [a[order[rows]].tolist() for a in (m.row, m.col, m.data)]

    with open(path, "w") as fh:
        fh.write(json.dumps(header, separators=(", ", ": ")) + "\n")
        _write_rows(fh, "%d %d %.17g", entry_rows, len(order), "\n")
        fh.write("\n")


def eigen_document(basis, config=None):
    doc = {}
    if config is not None:
        doc["config"] = config
    doc.update(
        {
            "level": basis.level,
            "count": basis.count,
            "residual": basis.residual_norm,
            "lambdas": [float(v) for v in basis.lam],
        }
    )
    return doc


def write_eigen_json(basis, path, config=None):
    write_json(eigen_document(basis, config), path)


def write_eigen_csv(basis, path):
    """Eigenvector table: row = vertex id, columns = modes 0..J.

    One ``%``-template per row; ``%.17g`` writes the same text as :func:`fmt`.
    """
    row = "%d," + ",".join(["%.17g"] * (basis.count + 1)) + "\n"
    with open(path, "w") as fh:
        fh.write("vertex_id," + ",".join(f"mode_{j}" for j in range(basis.count + 1)) + "\n")
        for i in range(basis.dim):
            fh.write(row % (i, *basis.vectors[i].tolist()))


def write_kernel_csv(matrix, path, header=None):
    """Upper-triangle (i, j, value) rows of a symmetric kernel matrix, one template per matrix row."""
    n = matrix.shape[0]
    with open(path, "w") as fh:
        if header is not None:
            fh.write("# " + json.dumps(header, separators=(", ", ": ")) + "\n")
        fh.write("i,j,value\n")
        for i in range(n):
            cells = [None] * (2 * (n - i))
            cells[::2], cells[1::2] = range(i, n), matrix[i, i:].tolist()
            fh.write((f"{i},%d,%.17g\n" * (n - i)) % tuple(cells))


def write_field_csv(sample, graph, path, extra=None):
    """One JSON header line, then 'vertex_id,x,y,value' rows, written as :func:`write_graph_json` writes its rows."""
    header = {
        "level": sample.level,
        "s": float(sample.s),
        "H": float(sample.hurst),
        "J": sample.modes,
        "seed": sample.seed,
        "generator": sample.generator,
    }
    if extra:
        header.update(extra)

    def field_rows(rows):
        return [range(len(graph))[rows], *graph.points[rows].T.tolist(), sample.values[rows].tolist()]

    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header, separators=(", ", ": ")) + "\n")
        fh.write("vertex_id,x,y,value\n")
        _write_rows(fh, "%d,%.17g,%.17g,%.17g", field_rows, len(graph), "\n")
        fh.write("\n")


#: Pixels per block of :func:`pixel_vertices`: the working set of one block is about 1 MB.
_PIXEL_BLOCK = 8192


def pixel_vertices(graph, size=512):
    """Nearest vertex of every pixel centre, a size x size index array.

    The raster spans the gasket bounding box [0,1] x [0, sqrt(3)/2] with
    row 0 at the top.  Distances are compared exactly, in integers, and a
    pixel with several nearest vertices takes the one with the smallest id.
    A full gasket and its pixel grid are both exactly symmetric under
    x -> 1 - x at every size, so only the left ceil(size/2) columns are
    computed and the right ones take the mirror images of their vertices: a
    right-half tie thus takes the mirror of the left half's choice, which is
    just as near.  A sub-gasket computes every column.
    """
    side = 2 ** (graph.level - len(graph.word))  # side of the (sub-)gasket in cells
    x, y = graph.coords.T
    a, b = (x - y) // 2, y  # skewed lattice coordinates, one unit per cell side
    a0, b0 = a.min(), b.min()  # the lower left corner
    a, b = a - a0, b - b0
    ids = np.full((side + 1) * (side + 2) // 2, -1, dtype=np.int32)
    ids[_packed(a, b, side)] = np.arange(len(a), dtype=np.int32)
    mirror = not graph.word
    if mirror:
        image = ids[_packed(side - a - b, b, side)]
    del a, b  # free the (n,) temporaries before the pixel blocks run
    cols = (size + 1) // 2 if mirror else size
    # the centre of pixel (i, j) sits at a = unit (4i + 2j + 3 - 2 size) / q and
    # b = 2 unit (2 size - 2j - 1) / q, with unit = 2^level cells across the full gasket
    q, unit = 4 * size, 2 ** graph.level
    i = np.arange(cols, dtype=np.int64)
    rows = max(1, _PIXEL_BLOCK // cols)
    nearest = np.empty((size, size), dtype=np.intp)
    for j0 in range(0, size, rows):
        j = np.arange(j0, min(size, j0 + rows), dtype=np.int64)[:, None]
        u = unit * (4 * i + 2 * j + 3 - 2 * size) - q * a0
        v = 2 * unit * (2 * size - 2 * j - 1) - q * b0
        nearest[j0:j0 + len(j), :cols] = _nearest_ids(u, v, q, side, ids)
    if mirror:
        nearest[:, size - size // 2:] = image[nearest[:, : size // 2][:, ::-1]]
    return nearest


def _packed(a, b, side):
    """Index of lattice point (a, b), a + b <= side, in a row-by-row triangular table."""
    return b * (side + 1) - b * (b - 1) // 2 + a


def _nearest_ids(u, v, q, side, ids):
    """Nearest vertex of the points (u, v)/q in skewed lattice units; ties to the smallest id.

    A point in a cell is nearest to one of its 3 corners.  A point in a hole,
    or outside the (sub-)gasket's triangle, is nearest to a vertex on that
    triangle's boundary, whose lattice points are all vertices: for any
    vertex beyond an edge, the lattice point of that edge half a step towards
    the point's foot is nearer.  The hole is the down-triangle of the
    coarsest dyadic block 2^k in which (a mod 2^k) + (b mod 2^k) >= 2^k, the
    highest carry of the cell indices' sum; a carry out of the top bit means
    outside.  Each triangle edge offers the two lattice points either side of
    the point's foot, clamped to the edge, and the squared distance in units
    of (cell side / q)^2 is da^2 + da db + db^2, an exact int64.
    """
    fa, ra = np.divmod(u, q)
    fb, rb = np.divmod(v, q)
    total = fa + fb + (ra + rb >= q)  # the cell indices' sum, plus one in a down half-cell
    outside = (u < 0) | (v < 0) | (total >= side)
    top = np.frexp(np.where(outside, 0, fa ^ fb ^ total))[1]  # bit length of the carries: 0 in a cell
    h = np.where(outside, side, 1 << np.maximum(top - 1, 0))  # side of the triangle
    lo_a = np.where(outside, 0, fa - fa % h)
    lo_b = np.where(outside, 0, fb - fb % h)
    down = h * (top > 0)  # a hole is a down-triangle, shifted h up or right
    beta, alpha, sigma = lo_b + down, lo_a + down, lo_a + lo_b + h  # edges b = beta, a = alpha, a + b = sigma
    feet = ((2 * u + v - q * beta) // (2 * q),   # along b = beta, in a
            (u + 2 * v - q * alpha) // (2 * q),  # along a = alpha, in b
            (q * sigma - u + v) // (2 * q))      # along a + b = sigma, in b
    best, best_id = np.full(u.shape, np.iinfo(np.int64).max), np.full(u.shape, len(ids))
    for step in (0, 1):
        ta, tb, tc = (np.clip(f + step, lo, lo + h) for f, lo in zip(feet, (lo_a, lo_b, lo_b)))
        for ca, cb in ((ta, beta), (alpha, tb), (sigma - tc, tc)):
            da, db = u - q * ca, v - q * cb
            dist = da * da + da * db + db * db
            cand = ids[_packed(ca, cb, side)]
            better = (dist < best) | ((dist == best) & (cand < best_id))
            best, best_id = np.where(better, dist, best), np.where(better, cand, best_id)
    return best_id


def write_pgm(values, graph, path, size=512):
    """Nearest-vertex grayscale raster of a vertex function (binary PGM).

    Pixels outside influence of any vertex still take the nearest vertex's
    shade (:func:`pixel_vertices`).  Grey levels run from the min to the max
    over all vertices, shown or not, so the scale depends on the function
    alone and not on which of two equally near vertices a pixel shows.
    """
    values = np.asarray(values, dtype=np.float64)
    shade = values[pixel_vertices(graph, size)]
    lo, hi = values.min(), values.max()
    if hi > lo:
        pix = np.round(255.0 * (shade - lo) / (hi - lo)).astype(np.uint8)
    else:
        pix = np.zeros(shade.shape, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{size} {size}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())
