"""Correctness gates on the artifacts and reports a workload produces.

Every gate checks a quantity the mathematics fixes -- counts, eigenvalues,
residuals, Gram matrices, means, regression slopes -- and never raw field
values, which follow the basis LAPACK picks inside degenerate eigenspaces.
Each gate returns a list of failure messages; an empty list is a pass.
"""

import json
import math

import numpy as np
import scipy.sparse as sp

#: Tolerances the gates hold the program to.
MEAN_TOL = 1e-10
LAMBDA_RTOL = 1e-8
RESIDUAL_TOL = 1e-8
GRAM_TOL = 1e-8
SLOPE_BAND = 0.1


def level_counts(level):
    """Vertices, edges and cells of the level-m gasket graph."""
    return (3 ** (level + 1) + 3) // 2, 3 ** (level + 1), 3 ** level


def lumped_mass(points, level):
    """Vertex measure: (#incident cells) * 3^-m / 3; only the three corners touch one cell."""
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    dist = np.min(np.linalg.norm(points[:, None, :] - corners[None, :, :], axis=2), axis=1)
    cells = np.where(dist < 1e-12, 1.0, 2.0)
    return cells / 3.0 ** (level + 1)


def check_field_csv(path, level, expected_j):
    """``sample`` output: one finite row per vertex, the implied J, M-mean zero."""
    with open(path) as fh:
        header = json.loads(fh.readline()[2:])
        fh.readline()
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    n = level_counts(level)[0]
    fails = []
    if table.shape != (n, 4):
        return [f"field table has shape {table.shape}, expected ({n}, 4)"]
    if not np.isfinite(table).all():
        fails.append("field table holds non-finite values")
    if header.get("J") != expected_j:
        fails.append(f"header J {header.get('J')} != {expected_j} implied by the spectrum")
    mean = float(lumped_mass(table[:, 1:3], level) @ table[:, 3])
    if not abs(mean) <= MEAN_TOL:
        fails.append(f"M-weighted mean {mean:.3e} exceeds {MEAN_TOL:g}")
    return fails


def check_graph(doc, level):
    """``build`` output: the vertex, edge and cell counts of the level."""
    want = level_counts(level)
    got = (len(doc["vertices"]), len(doc["edges"]), len(doc["cells"]))
    if got != want:
        return [f"graph has (vertices, edges, cells) = {got}, expected {want}"]
    return []


def graph_points(doc):
    return np.array([[v["x"], v["y"]] for v in doc["vertices"]], dtype=np.float64)


def read_coo(path):
    with open(path) as fh:
        header = json.loads(fh.readline())
        rows = np.loadtxt(fh, ndmin=2)
    n = header["dim"]
    return sp.csr_array((rows[:, 2], (rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64))),
                        shape=(n, n))


def check_eigs(json_path, csv_path, coo_path, points, level, ref_lambdas):
    """``eigs`` output against the stored spectrum, plus residual and M-Gram from the files.

    ``points`` are the vertex coordinates of the written graph; the mass
    follows from them by :func:`lumped_mass`.
    """
    with open(json_path) as fh:
        lam = np.array(json.load(fh)["lambdas"], dtype=np.float64)
    ref = np.asarray(ref_lambdas, dtype=np.float64)
    if lam.shape != ref.shape:
        return [f"{len(lam)} eigenvalues written, expected {len(ref)}"]
    fails = []
    rel = float(np.max(np.abs(lam - ref) / ref))
    if not rel <= LAMBDA_RTOL:
        fails.append(f"eigenvalues differ from the reference by {rel:.3e} relative")
    phi = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
    n = level_counts(level)[0]
    if phi.shape != (n, len(lam) + 1):
        return fails + [f"eigenvector table has shape {phi.shape}, expected ({n}, {len(lam) + 1})"]
    stiffness = read_coo(coo_path)
    mass = lumped_mass(points, level)
    resid = stiffness @ phi[:, 1:] - (mass[:, None] * phi[:, 1:]) * lam
    residual = float(np.max(np.linalg.norm(resid, axis=0) / lam))
    if not residual <= RESIDUAL_TOL:
        fails.append(f"residual |S phi - lam M phi| / lam = {residual:.3e} exceeds {RESIDUAL_TOL:g}")
    gram = phi.T @ (mass[:, None] * phi)
    gram_dev = float(np.abs(gram - np.eye(gram.shape[0])).max())
    if not gram_dev <= GRAM_TOL:
        fails.append(f"M-Gram deviation {gram_dev:.3e} exceeds {GRAM_TOL:g}")
    return fails


def check_covariance(report):
    return [] if report.passed else [f"empirical covariance max |z| = {report.max_abs_z:.3f} > 5"]


def check_variogram_slope(report, hurst):
    target = 2.0 * hurst
    if abs(report.slope - target) <= SLOPE_BAND:
        return []
    return [f"exact variogram slope {report.slope:.4f} outside 2H = {target:.4f} +/- {SLOPE_BAND}"]


def check_increment(report):
    return [] if report.passed else [f"increment slope {report.slope:.4f} below floor {report.floor:.4f}"]
