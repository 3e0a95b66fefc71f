"""Deterministic file formats: JSON, COO matrices, CSV tables, PGM rasters.

All floating-point values are serialized with 17 significant digits so that
identical configurations yield byte-identical artifacts; no timestamps or
environment-dependent fields are ever written.
"""

import dataclasses
import json

import numpy as np


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


def dumps(obj, indent=0):
    """JSON text with floats at 17 significant digits and stable key order."""
    obj = to_jsonable(obj)
    return _dump(obj, indent)


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

def graph_document(g, config=None):
    doc = {}
    if config is not None:
        doc["config"] = config
    doc["level"] = g.level
    if g.word:
        doc["word"] = list(g.word)
    boundary = np.zeros(len(g), dtype=bool)
    boundary[g.boundary_ids()] = True
    rows = zip(g.points.tolist(), boundary.tolist(), g.measure.tolist())
    doc["vertices"] = [
        {"id": i, "x": x, "y": y, "boundary": b, "measure": w} for i, ((x, y), b, w) in enumerate(rows)
    ]
    doc["edges"] = g.edges.tolist()
    cells = zip(g.cell_words().tolist(), g.cells.tolist())
    doc["cells"] = [{"word": w, "ids": tri} for w, tri in cells]
    return doc


def write_graph_json(g, path, config=None):
    write_json(graph_document(g, config), path)


def write_matrix_coo(stiffness, path):
    """Coordinate-list text: one JSON header line, then 'row col value' lines."""
    m = stiffness.matrix.tocoo()
    order = np.lexsort((m.col, m.row))
    header = {"level": stiffness.level, "dim": int(m.shape[0]), "prefactor": stiffness.prefactor}
    with open(path, "w") as fh:
        fh.write(json.dumps(header, separators=(", ", ": ")) + "\n")
        for k in order:
            fh.write(f"{m.row[k]} {m.col[k]} {fmt(m.data[k])}\n")


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
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header, separators=(", ", ": ")) + "\n")
        fh.write("vertex_id,x,y,value\n")
        for i, ((x, y), v) in enumerate(zip(graph.points.tolist(), sample.values.tolist())):
            fh.write("%d,%.17g,%.17g,%.17g\n" % (i, x, y, v))


def pixel_vertices(graph, size=512):
    """Nearest vertex of every pixel centre, a size x size index array.

    The raster spans the gasket bounding box [0,1] x [0, sqrt(3)/2] with
    row 0 at the top.  A full gasket is symmetric under x -> 1 - x, so when
    the pixel columns are as well (exactly, as at size 512) only the left
    ceil(size/2) columns are looked up and the right ones take the mirror
    images of their vertices.  Where two vertices are equally near a pixel,
    the right half thus takes the mirror of the left half's choice.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(graph.points)
    height = float(np.sqrt(3.0) / 2.0)
    xs = (np.arange(size) + 0.5) / size
    ys = height * (1.0 - (np.arange(size) + 0.5) / size)
    mirror = not graph.word and np.array_equal(xs[::-1], 1.0 - xs)
    cols = xs[: (size + 1) // 2] if mirror else xs
    gx, gy = np.meshgrid(cols, ys)
    _, nearest = tree.query(np.column_stack([gx.ravel(), gy.ravel()]))
    nearest = nearest.reshape(size, len(cols))
    if mirror:
        pts = graph.points
        _, image = tree.query(np.column_stack([1.0 - pts[:, 0], pts[:, 1]]))
        nearest = np.column_stack([nearest, image[nearest[:, : size // 2][:, ::-1]]])
    return nearest


def write_pgm(values, graph, path, size=512):
    """Nearest-vertex grayscale raster of a vertex function (binary PGM).

    Pixels outside influence of any vertex still take the nearest vertex's
    shade (:func:`pixel_vertices`).
    """
    shade = np.asarray(values, dtype=np.float64)[pixel_vertices(graph, size)]
    lo, hi = shade.min(), shade.max()
    if hi > lo:
        pix = np.round(255.0 * (shade - lo) / (hi - lo)).astype(np.uint8)
    else:
        pix = np.zeros(shade.shape, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{size} {size}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())
