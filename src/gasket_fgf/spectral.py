"""Generalized eigenproblem S Phi = lambda M Phi and spectral utilities.

The gasket spectrum is known exactly by spectral decimation (Fukushima &
Shima 1992; Teplyaev 1998; Strichartz 2006, ch. 3), and the solver builds it
from level 0 upward without a dense eigensolver.  With lambda = (3/2) 5^m mu
at level m, every level-m eigenfunction is one of three kinds:

* inherited: a level-(m-1) mode with mu' not in {0, 6} has two children, at
  both roots of mu (5 - mu) = mu'; a mu' = 6 mode has one, at mu = 3; the
  constant stays constant.  Vectors are extended by
  :func:`~gasket_fgf.operators.decimation_extension`.
* newborn at mu = 6: one per vertex x of V_{m-1}, supported on x and the
  midpoints of its one or two level-(m-1) cells;
* newborn at mu = 5: one per level-j cell, j <= m - 2, supported on the
  midpoints of the level-(m-1) cells with a side on the edge of its hole.

A newborn function spans the one-dimensional null space of the columns of
S - lambda M on its support (one batched QR and SVD per support size).  Each
eigenspace carries a label -- birth level, birth value and root sequence --
whose eigenvalue follows from the mu recursion alone, so eigenvalues,
multiplicities and cluster boundaries are known before any vector exists
(:func:`spectrum`; a truncation J can be picked from them), and a truncated
solve builds only the eigenspaces it keeps.  A sub-gasket
from :func:`~gasket_fgf.geometry.extract_cell` is solved as the full gasket
of its own depth, whose vertices are then moved to the sub-gasket's ids
through :func:`~gasket_fgf.geometry.embed_indices`.
Eigenvectors are returned M-orthonormal, in continuum normalization (the
stiffness and mass already carry (5/3)^m and 3^{-m}).

The constructed basis inside a degenerate eigenspace is arbitrary, so the
solver builds the kept eigenspaces one at a time, each as a sparse block,
and replaces each by a canonical basis, a function of the eigenspace alone:
the M-Gram-Schmidt of a fixed pseudo-random probe projected onto it (see
``_canonical_basis``).  A truncated solve builds the eigenspace that holds
its last mode whole, because the canonical basis needs its span, but forms
only the columns up to the cut (Gram-Schmidt is sequential), so its basis
is the leading columns of the full solve's, and the eigenvectors, and every
field built from them, are reproducible across machines and thread counts.
Identities across different bases are still formulated on
kernels/projectors, trimmed to the nearest cluster boundary
(``SpectralBasis.cluster_complete``).

Every eigenspace of every level is held as a sparse block, and an inherited
one is its parent's block times the one extension matrix E(mu) of
:func:`~gasket_fgf.operators.decimation_extension`; no dense n x k array is
formed.  The canonical modes come as one stream, :func:`canonical_blocks`:
at most ``BLOCK`` columns of one eigenspace at a time, each residual-checked
as it is formed.  :func:`solve_eigen` writes the blocks into an n x (count + 1)
basis; :func:`~gasket_fgf.fields.stream_field` adds each into a field and
drops it, so a field never needs the n x J basis.  The one limit is memory:
an estimate of the stream's peak plus what its consumer holds must fit in
the memory available to the process, checked before anything is allocated.
"""

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .constants import S_MIN
from .geometry import LevelGraph, build_level, embed_indices
from .operators import (MassMatrix, StiffnessMatrix, _level_from_size, assemble_energy,
                        decimation_extension, parent_cells)

#: Columns per block when forming canonical modes and checking residuals.
BLOCK = 256


class SolverError(RuntimeError):
    """Eigensolver failed to reach the requested residual tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class WeylFit:
    slope: float
    intercept: float
    r2: float
    window: tuple
    npoints: int


@dataclass(eq=False)
class SpectralBasis:
    """Sorted eigenpairs of one level graph.

    ``lambdas``/``vectors`` include the zero mode at index 0 (a constant,
    mass-normalized); ``count`` is the number of usable nonzero modes.
    ``ends`` holds the exclusive end of each eigenspace among the nonzero
    modes; the last one may lie beyond ``count`` when a solve cut it.
    ``graph`` is the level graph the basis lives on (vertex order,
    coordinates and, for a sub-gasket, its cell word), always attached by
    :func:`solve_eigen`.
    """

    level: int
    lambdas: np.ndarray
    vectors: np.ndarray
    mass: np.ndarray
    residual_norm: float
    ends: np.ndarray
    graph: LevelGraph = field(repr=False)

    @property
    def dim(self):
        return self.vectors.shape[0]

    @property
    def count(self):
        return len(self.lambdas) - 1

    @property
    def lam(self):
        """Nonzero eigenvalues lambda_1 <= lambda_2 <= ..."""
        return self.lambdas[1:]

    @property
    def phi(self):
        """Eigenvectors of the nonzero modes, one per column."""
        return self.vectors[:, 1:]

    def truncation(self, J=None):
        """The number of modes J to use: ``count`` for None, else J checked against [0, count]."""
        return check_truncation(J, self.count)

    def clusters(self):
        """Runs [lo, hi) of nonzero-mode indices, one per eigenspace (the last cut at ``count``)."""
        lo = [0, *self.ends[:-1].tolist()]
        return [(a, min(b, self.count)) for a, b in zip(lo, self.ends.tolist())]

    def cluster_complete(self, J):
        """Largest J' <= J (and <= ``count``) that does not split an eigenspace."""
        ends = np.concatenate([[0], self.ends])
        return int(ends[np.searchsorted(ends, min(max(int(J), 0), self.count), side="right") - 1])


def check_truncation(J, count):
    """The J rule of :meth:`SpectralBasis.truncation`, for ``count`` modes held or to be solved."""
    J = count if J is None else int(J)
    if not 0 <= J <= count:
        raise ValueError(f"J must lie in [0, {count}]")
    return J


def spectral_coeffs(basis: SpectralBasis, f, J):
    """M-coefficients <Phi_j, f>_M of f on the first J nonzero modes."""
    return basis.phi[:, :J].T @ (basis.mass * f)


def _decimation_levels(m):
    """Eigenspace labels of levels 0..m, from the mu recursion alone (no vectors).

    Entry j is ``(mu, mult, parent)``: the renormalized eigenvalue and the
    multiplicity of each level-j eigenspace, and the level-(j-1) eigenspace
    it descends from (-1 for one born at level j).  Level 0 holds the
    constant (mu = 0, always entry 0) and the two-dimensional mu = 6 space.
    Level j lists the smaller root of every parent but mu = 6, the larger
    root of every parent but mu = 0, then the newborn mu = 6 ((3^j + 3)/2
    modes) and, from j = 2, mu = 5 ((3^(j-1) - 1)/2 modes).  The roots of
    x (5 - x) = mu' lie in [0, 5/2) and (5/2, 5], so distinct labels have
    distinct eigenvalues.
    """
    mu, mult, parent = np.array([0.0, 6.0]), np.array([1, 2]), np.array([-1, -1])
    levels = [(mu, mult, parent)]
    for j in range(1, m + 1):
        small, large = np.flatnonzero(mu != 6.0), np.flatnonzero(mu != 0.0)
        root = 5.0 + np.sqrt(25.0 - 4.0 * mu)
        born = [(6.0, (3**j + 3) // 2)] + ([(5.0, (3 ** (j - 1) - 1) // 2)] if j >= 2 else [])
        mu = np.concatenate([2.0 * mu[small] / root[small], 0.5 * root[large], [b[0] for b in born]])
        mult = np.concatenate([mult[small], mult[large], [b[1] for b in born]])
        parent = np.concatenate([small, large, np.full(len(born), -1)])
        levels.append((mu, mult, parent))
    return levels


def _hole_cells(i, depth):
    """Level-(i + depth + 1) cells with a side on the hole of each level-i cell, one row per hole.

    The hole of cell w is bounded by the side of sub-cell w s opposite its
    corner s, which the cells w s v with v free of the letter s line.
    """
    offsets = []
    for s in range(3):
        v = np.zeros(1, dtype=np.int64)
        for _ in range(depth):
            v = (3 * v[:, None] + [d for d in range(3) if d != s]).ravel()
        offsets.append(s * 3**depth + v)
    return np.arange(3**i)[:, None] * 3 ** (depth + 1) + np.concatenate(offsets)


def _newborn(fine: LevelGraph, mu):
    """Local eigenfunctions born on ``fine`` at mu = 6 or 5, in batches of equal support size.

    Yields ``(support, values)``, one row per eigenfunction: the
    one-dimensional null space of the columns ``support`` of S - lambda M,
    as a unit vector of either sign (the canonical step fixes the basis).
    The rows are the corners and midpoints of the cells involved, repeated
    where cells share a corner, which leaves the null space unchanged.
    """
    corners, mids = parent_cells(fine)
    if mu == 6.0:  # one per vertex x of V_{m-1}: x and the midpoints of its one or two cells
        flat = corners.ravel()
        order = np.argsort(flat, kind="stable")
        first = np.searchsorted(flat[order], np.arange(flat.max() + 1))
        ncell = np.bincount(flat)
        problems = [(x[:, None], order[first[x, None] + np.arange(k)] // 3)
                    for k in (1, 2) for x in [np.flatnonzero(ncell == k)]]
    else:  # one per level-i cell, i <= m - 2: the midpoints of the cells along its hole
        problems = [(np.empty((3**i, 0), dtype=np.int64), _hole_cells(i, fine.level - i - 2))
                    for i in range(fine.level - 1)]
    lam = 1.5 * 5.0**fine.level * mu
    op = (assemble_energy(fine).matrix - sp.diags_array(lam * fine.measure)).tocsr()
    for extra, cells in problems:
        if not len(cells):
            continue
        support = np.column_stack([extra, mids[cells].reshape(len(cells), -1)])
        rows = np.concatenate([corners[cells], mids[cells]], axis=2).reshape(len(cells), -1)
        r, c = np.broadcast_arrays(rows[:, :, None], support[:, None, :])
        blocks = np.asarray(op[r.ravel(), c.ravel()]).reshape(r.shape)
        # R of a QR has the null space of the (taller) block: the SVD then runs on a square matrix
        yield support, np.linalg.svd(np.linalg.qr(blocks, mode="r"))[2][:, -1, :]


def _newborn_block(fine: LevelGraph, mu):
    """The eigenspace born on ``fine`` at mu = 6 or 5 as one sparse block, one column per eigenfunction.

    The columns follow the order of :func:`_newborn`; no dense column is formed.
    """
    rows, cols, vals, k = [], [], [], 0
    for support, values in _newborn(fine, mu):
        rows.append(support.ravel())
        cols.append(np.repeat(np.arange(k, k + len(support)), support.shape[1]))
        vals.append(values.ravel())
        k += len(support)
    rows, cols = (np.concatenate(x).astype(sp.get_index_dtype(maxval=len(fine))) for x in (rows, cols))
    return sp.csc_array((np.concatenate(vals), (rows, cols)), shape=(len(fine), k))


def _eigenspace_blocks(levels, keep):
    """The top-level eigenspaces ``keep``, built up from level 0, one sparse n x k block each.

    Every eigenspace of every level is a sparse block: a newborn one comes
    from its null spaces, and an inherited one is its parent's block
    extended by :func:`~gasket_fgf.operators.decimation_extension` at its
    own mu.  A level below the top builds only the eigenspaces the level
    above extends, and a block is dropped once its last child is built; the
    top level yields ``keep`` one at a time, in order.
    """
    m = len(levels) - 1
    layout = [None] * m + [keep]  # the eigenspaces each level provides
    for j in range(m, 0, -1):
        par = levels[j][2][layout[j]]
        layout[j - 1] = np.unique(par[par >= 0])
    # level 0: the constant, then a basis of the mean-zero (mu = 6) space; both
    # are always needed, since lambda_1 descends from the mu = 6 space
    base = np.split(np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]).T, [1], axis=1)
    blocks = {}
    for j in range(m + 1):
        mu, _, parent = levels[j]
        coarse, blocks = blocks, {}
        last = dict(zip(parent[layout[j]], layout[j]))  # the last child of each parent
        for g in layout[j]:
            p = parent[g]
            if j == 0:
                blocks[g] = sp.csc_array(base[g])
            elif p < 0:
                blocks[g] = _newborn_block(build_level(j), mu[g])
            else:
                u = coarse.pop(p) if last[p] == g else coarse[p]
                blocks[g] = decimation_extension(u, build_level(j), mu[g])
            if j == m:
                yield blocks.pop(g)


def _available_memory():
    """Bytes of memory the process may use: physical memory, or a lower cgroup limit."""
    avail = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        with open("/sys/fs/cgroup/memory.max") as f:
            return min(avail, int(f.read()))
    except (OSError, ValueError):  # no cgroup v2 limit, or "max"
        return avail


def _canonical_basis(block, mass, lo, j):
    """Coefficients of the first j columns of a basis of span(``block``) fixed by that span alone.

    ``block`` (sparse, n x k) spans the cluster [lo, hi) of nonzero modes.
    Make it M-orthonormal (B L^{-T}, with L L^T = B^T M B), project a fixed
    probe Q (n x k, from ``default_rng([n, lo])``) onto its span,
    C = L^{-1} B^T M Q, and return the k x j matrix L^{-T} Q_C, where
    Q_C R_C = C with diag(R_C) > 0: the basis is B L^{-T} Q_C.  A change of
    basis B -> B U (U orthogonal) turns C into U^T C and leaves the basis
    unchanged: it is the M-Gram-Schmidt of the projected probe columns.
    Gram-Schmidt is sequential, so the first j columns need only the first
    j probe columns and a k x j QR.  The probe is projected a row chunk of
    at most n x ``BLOCK`` normals at a time (row chunks of
    ``standard_normal((n, k))`` are the same stream), so no n x j array is
    formed.  No pivoting and no threshold enter, so symmetry ties cannot
    flip it; for k = 1 it fixes the sign of the single mode.
    """
    n, k = block.shape
    mblock = block.copy()
    mblock.data *= mass[block.indices]
    # L^{-1} explicitly: L is near the identity, and one small call per
    # cluster beats two triangular solves when BLAS runs threaded
    linv, _ = sla.lapack.dtrtri(sla.cholesky((block.T @ mblock).toarray(), lower=True), lower=1)
    rng, step = np.random.default_rng([n, lo]), n * BLOCK // k
    c = np.zeros((k, j))
    for i in range(0, n, step):
        c += mblock[i : i + step].T @ rng.standard_normal((min(step, n - i), k))[:, :j]
    q, r = np.linalg.qr(linv @ c)
    q *= np.copysign(1.0, np.diag(r))
    return linv.T @ q


#: Bytes of Python objects and small index arrays that no O(n) term covers;
#: they make the peak of the smallest sub-gaskets.
FIXED_BYTES = 2**16


def canonical_blocks(stiffness: StiffnessMatrix, mass: MassMatrix, count, held, tol=1e-8,
                     graph: LevelGraph = None):
    """The ``count`` smallest nonzero eigenpairs as a stream of canonical column blocks.

    The labels of :func:`_decimation_levels` give every eigenspace, and
    :func:`spectrum` every eigenvalue; the eigenspaces up to the one that
    holds mode ``count`` are built from level 0 upward (newborn null spaces,
    then decimation extension) and made canonical one at a time, in sorted
    order.  The last one is built whole, but only its canonical columns up
    to mode ``count`` are formed, so the stream is the leading ``count``
    modes of the full solve.  No dense eigensolver runs at any level.

    ``count`` and the memory are checked at once, and the stream is returned
    as ``(graph, lambdas, ends, blocks)``: the graph (``build_level`` of a
    full gasket's level when none is given), the ``count`` eigenvalues, the
    exclusive end of each eigenspace built among the nonzero modes, and an
    iterator of ``(lo, v, residual)``.  ``v`` holds the canonical modes
    lo, lo + 1, ... (0-based among the nonzero modes), at most ``BLOCK``
    columns of one eigenspace, and ``residual`` is its
    max_j ||S phi_j - lambda_j M phi_j||_2 / lambda_j, checked against
    ``tol`` as the block is formed.

    Raises ValueError for out-of-range ``count``, a ``tol`` that is not
    finite and positive, a dimension that is no gasket's, or a sub-gasket
    without its graph; and before any allocation when the estimated peak
    -- ``held`` bytes the caller keeps besides the stream, 2 n per kept
    eigenspace for the sparse blocks of the two levels below the top (an
    eigenspace of level j has at most 3 n_j nonzeros), the canonical step's
    k x k temporaries for the widest eigenspace k, four n x min(``BLOCK``,
    k) blocks of the residual check or the probe, 26 n for the block at
    hand with its copies and the O(n) index arrays and operators of the
    construction, and ``FIXED_BYTES`` -- exceeds the available memory.  The
    iterator raises SolverError at the first block whose residual exceeds
    ``tol``.
    """
    n = stiffness.dim
    count = int(count)
    if not 1 <= count <= n - 1:
        raise ValueError(f"count must lie in [1, {n - 1}] for dimension {n}")
    if not 0.0 < tol < np.inf:  # a NaN tol would pass every residual
        raise ValueError(f"tol must be finite and > 0, not {tol}")
    depth = _level_from_size(n)
    word = graph.word if graph is not None else ()
    if stiffness.level != depth + len(word):
        raise ValueError(
            f"a level-{stiffness.level} operator of dimension {n} is a sub-gasket: pass its graph"
        )
    levels = _decimation_levels(depth)
    mu, mult, _ = levels[-1]
    order = np.argsort(mu, kind="stable")[1:]  # the constant (mu = 0) comes first
    ends = np.cumsum(mult[order])  # exclusive ends among the nonzero modes
    keep = order[: np.searchsorted(ends, count) + 1]  # up to the eigenspace that holds mode `count`
    ends = ends[: len(keep)]
    k = int(mult[keep].max())
    b = min(BLOCK, k)
    # 2 n per kept eigenspace: the blocks of the two levels below the top, at
    # most 3 n_j nonzeros of 12 bytes each at level j (n_{m-1} ~ n / 3), and
    # at most one per kept eigenspace at each level.  26 n: the block at hand
    # with its M-weighted and renumbered copies and E(mu) (16 n), and the cell
    # table of parent_cells with its corner and midpoint copies, the level
    # operators of the newborn null spaces, the level spectrum and a
    # sub-gasket's row order (10 n)
    need = held + 8 * (n * (2 * len(keep) + 4 * b + 26) + 4 * k * k) + FIXED_BYTES
    avail = _available_memory()
    if need > avail:
        raise ValueError(
            f"count={count} needs {ends[-1] + 1} eigenvectors of dimension {n}: "
            f"{need / 2**30:.1f} GiB at peak, more than the {avail / 2**30:.1f} GiB of available memory"
        )
    if graph is None:  # after the memory check: a refused solve builds no graph
        graph = build_level(depth)
    # extract_cell numbers vertices by parent id, not as build_level(depth) does
    rows = np.argsort(embed_indices(build_level(depth), graph)) if word else None
    lambdas = spectrum(stiffness.level, word)[:count]

    def blocks():
        for lo, hi, block in zip(ends - mult[keep], np.minimum(ends, count), _eigenspace_blocks(levels, keep)):
            block = block[rows] if word else block
            coef = _canonical_basis(block, mass.diagonal, lo, hi - lo)
            for a in range(lo, hi, BLOCK):
                v = block @ coef[:, a - lo : a - lo + BLOCK]
                lam = lambdas[a : a + v.shape[1]]
                resid = stiffness.matrix @ v - (mass.diagonal[:, None] * v) * lam
                residual = float(np.max(np.linalg.norm(resid, axis=0) / lam))
                if residual > tol:
                    raise SolverError(
                        f"eigensolver residual {residual:.3e} exceeds tolerance {tol:.3e}",
                        residual=residual,
                    )
                yield a, v, residual

    return graph, lambdas, ends, blocks()


def solve_eigen(
    stiffness: StiffnessMatrix,
    mass: MassMatrix,
    count,
    tol=1e-8,
    graph: LevelGraph = None,
) -> SpectralBasis:
    """Compute the ``count`` smallest nonzero generalized eigenpairs.

    Writes the blocks of :func:`canonical_blocks` into one n x (count + 1)
    array, whose column 0 is the constant mode.

    Parameters
    ----------
    stiffness, mass : operators from :mod:`gasket_fgf.operators`, of a full
        gasket or a sub-gasket from :func:`~gasket_fgf.geometry.extract_cell`.
    count : number of nonzero modes requested (λ_0 = 0 is always included
        in the result in addition to these).
    tol : acceptance threshold on max_j ||S phi - lambda M phi||_2 / lambda.
    graph : the LevelGraph of the operators, attached to the result;
        needed only for a sub-gasket, whose vertex order it gives (a full
        gasket gets ``build_level`` of its level).

    Raises
    ------
    ValueError as :func:`canonical_blocks` does, whose memory estimate
    counts the n x (count + 1) result here; SolverError if the achieved
    residual exceeds ``tol``.
    """
    n = stiffness.dim
    graph, lambdas, ends, blocks = canonical_blocks(stiffness, mass, count, 8 * n * (int(count) + 1),
                                                    tol, graph)
    vectors = np.empty((n, len(lambdas) + 1))
    vectors[:, 0] = 1.0 / np.sqrt(mass.diagonal.sum())
    residual_norm = 0.0
    for lo, v, residual in blocks:
        vectors[:, 1 + lo : 1 + lo + v.shape[1]] = v
        residual_norm = max(residual_norm, residual)
    return SpectralBasis(
        level=stiffness.level,
        lambdas=np.concatenate([[0.0], lambdas]),
        vectors=vectors,
        mass=np.asarray(mass.diagonal),
        residual_norm=residual_norm,
        ends=ends,
        graph=graph,
    )


def spectrum(level, word=()):
    """Sorted nonzero eigenvalues lambda_1 <= ... <= lambda_{n-1}, without any vector.

    The eigenvalues of the level-``level`` operators, or of the sub-gasket
    of cell ``word`` (:func:`~gasket_fgf.geometry.extract_cell`, in the
    parent's normalization), from the labels of :func:`_decimation_levels`;
    :func:`solve_eigen` reports these same values.
    """
    mu, mult, _ = _decimation_levels(level - len(word))[-1]
    order = np.argsort(mu, kind="stable")
    return np.repeat(1.5 * 5.0**level * mu[order], mult[order])[1:]


def counting_function(spec, t):
    """N(t) = #{j >= 1 : lambda_j <= t} (right-continuous step function).

    ``spec`` is taken as by :func:`tail_variance`: a SpectralBasis counts
    its whole level spectrum, also the modes a truncated solve did not compute.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    return int(np.searchsorted(_level_spectrum(spec), t, side="right"))


def weyl_exponent_fit(spectrum, lo_frac=0.2, hi_frac=0.8) -> WeylFit:
    """Least-squares fit of log N(lambda_j) against log lambda_j.

    ``spectrum`` is a SpectralBasis or a sorted array of nonzero
    eigenvalues.  The fit uses the middle (lo_frac, hi_frac) of the computed
    spectrum by index -- the bottom is preasymptotic, the top polluted by
    discretization.  N is evaluated right-continuously; ``solve_eigen`` gives
    every mode of one eigenspace the same eigenvalue, bit for bit, so each
    degenerate cluster counts its full multiplicity.
    The expected slope is d_h/d_w = ln3/ln5.
    """
    lam = spectrum.lam if isinstance(spectrum, SpectralBasis) else np.asarray(spectrum, dtype=np.float64)
    J = len(lam)
    if J < 100:
        raise ValueError("at least 100 modes are required for a Weyl exponent fit")
    lo, hi = int(J * lo_frac), int(J * hi_frac)
    lams = lam[lo:hi]
    counts = np.searchsorted(lam, lams, side="right")
    x, y = np.log(lams), np.log(counts)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return WeylFit(float(slope), float(intercept), r2, (float(lams[0]), float(lams[-1])), hi - lo)


def _level_spectrum(spec):
    """The whole level spectrum of a SpectralBasis, or a sorted eigenvalue array as given."""
    if isinstance(spec, SpectralBasis):
        return spectrum(spec.level, spec.graph.word)
    return np.asarray(spec, dtype=np.float64)


def tail_variance(spec, s, J):
    """Omitted-mode variance sum_{j > J} lambda_j^{-2s} of the level spectrum.

    ``spec`` is a SpectralBasis, whose whole level spectrum counts (also
    the modes a truncated solve did not compute), or a sorted array of
    nonzero eigenvalues.
    """
    if s <= S_MIN:
        raise ValueError(f"s must exceed {S_MIN:.5f} for a square-summable spectral tail")
    lam = _level_spectrum(spec)
    J = int(J)
    if not 0 <= J <= len(lam):
        raise ValueError(f"J must lie in [0, {len(lam)}]")
    return float(np.sum(lam[J:] ** (-2.0 * s)))


def pick_truncation(spec, s, budget=0.01):
    """Smallest J whose tail variance is <= budget * total variance, budget in [0, 1].

    ``spec`` is taken as by :func:`tail_variance`, so J depends on the
    eigenvalues alone and can be picked before any vector is built; a
    budget of 0 keeps every mode.
    """
    if s <= S_MIN:
        raise ValueError(f"s must exceed {S_MIN:.5f} for a square-summable spectral tail")
    if not 0.0 <= budget <= 1.0:
        raise ValueError(f"budget must lie in [0, 1], not {budget}")
    terms = _level_spectrum(spec) ** (-2.0 * s)
    total = float(terms.sum())
    tails = total - np.concatenate([[0.0], np.cumsum(terms)])
    tails[-1] = 0.0  # nothing lies past the last mode, whatever the rounding of the sums
    return int(np.argmax(tails <= budget * total))
