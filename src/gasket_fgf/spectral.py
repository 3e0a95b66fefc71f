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

A newborn function has explicit values on its support (:func:`_newborn`),
a unit vector whose first support entry is positive.  Each eigenspace
carries a label -- birth level, birth value and root sequence --
whose eigenvalue follows from the mu recursion alone, so eigenvalues,
multiplicities and cluster boundaries are known before any vector exists
(:func:`spectrum`; a truncation J can be picked from them), and a truncated
solve builds only the eigenspaces it keeps.  A sub-gasket
from :func:`~gasket_fgf.geometry.extract_cell` is solved as the full gasket
of its own depth, whose vertices are then moved to the sub-gasket's ids
through :func:`~gasket_fgf.geometry.embed_indices`.
Eigenvectors are returned M-orthonormal, in continuum normalization (the
stiffness and mass already carry (5/3)^m and 3^{-m}).

The construction is deterministic, so it fixes the basis inside each
degenerate eigenspace: the M-Gram-Schmidt of the constructed block in its
own column order (see :func:`_birth_columns`).  Every eigenspace descends
from a birth eigenspace (the level-0 base or a newborn block) through
extensions E(mu), and each extension scales the M-Gram of the whole
eigenspace by one scalar c, so the Gram of each birth eigenspace is factored
once, as a sparse Cholesky G = R^T R in the order the construction gives
(:func:`_birth_factor`), and B R^{-1} / sqrt(c) is the basis of every
descendant B.  Any combination of that basis is one sparse triangular solve
on its k coefficients w and one sparse product at the birth level, extended
from there, and has M-norm ||w||: so each column y is scaled at the top by
its own M-norm, to y ||w|| / ||y||_M, and c is never formed.  Mode i needs only
the leading i + 1 coefficients, so a truncated solve's basis is the leading
columns of the full solve's, and the eigenvectors, and every field built
from them, are reproducible across machines and thread counts.  Identities
across different bases are still formulated on kernels/projectors, trimmed
to the nearest cluster boundary (``SpectralBasis.cluster_complete``).

A field or a block of modes is built by one depth-first traversal of the
eigenspace labels (:func:`_eigenspace_columns`).  Each birth eigenspace is
formed and factored once, as a sparse block at its birth level, and there
the dense columns B R^{-1} w its kept descendants need are formed at
once; they go up one level at a time through the extension E(mu) of
:func:`~gasket_fgf.operators.decimation_extension`, each child taking only
the slice of columns of its own descendants, and are scaled and
residual-checked at the top.  No sparse block exists above its birth
level, and between eigenspaces nothing is held but the columns along the
current path.  The kept eigenspaces come as one stream,
:func:`canonical_eigenspaces`: :func:`solve_eigen` passes leading identity
columns, ``BLOCK`` at a time, and writes the modes into an n x (count + 1)
basis, and :func:`~gasket_fgf.fields.stream_field` passes its weights and
adds one column per eigenspace, its whole term of the field, so a field
never needs the n x J basis.  The one limit is memory: an estimate of the
stream's peak plus what its consumer holds must fit in the memory
available to the process, checked before anything is allocated.
"""

import os
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve_triangular

from .constants import S_MIN
from .geometry import LevelGraph, build_level, check_address, embed_indices
from .operators import MassMatrix, StiffnessMatrix, _level_from_size, decimation_extension, parent_cells

#: Modes per block when :func:`solve_eigen` forms and checks them.
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
    """Sorted nonzero eigenpairs of one level graph, the modes of L^2_0.

    ``lam`` holds the ``count`` eigenvalues and ``phi`` the n x count
    M-orthonormal eigenvectors, one per column; the constant mode is not
    held.  ``ends`` holds the exclusive end of each eigenspace; the last
    one may lie beyond ``count`` when a solve cut it.  ``graph`` is the
    level graph the basis lives on (vertex order, coordinates, level and,
    for a sub-gasket, its cell word), always attached by :func:`solve_eigen`.
    """

    lam: np.ndarray
    phi: np.ndarray
    mass: np.ndarray
    residual_norm: float
    ends: np.ndarray
    graph: LevelGraph = field(repr=False)

    @property
    def level(self):
        return self.graph.level

    @property
    def dim(self):
        return self.phi.shape[0]

    @property
    def count(self):
        return len(self.lam)

    def truncation(self, J=None):
        """The number of modes J to use: ``count`` for None, else J checked against [0, count]."""
        return check_truncation(J, self.count)

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
    """M-coefficients <Phi_j, f>_M on the first J nonzero modes of a vector f, or of each column of a block."""
    return basis.phi[:, :J].T @ (basis.mass * np.asarray(f).T).T


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

    Yields ``(support, values)``, one row per eigenfunction, from the
    closed-form templates (Fukushima & Shima 1992; Strichartz 2006, ch. 3)
    as unit vectors whose first entry (at ``support[:, 0]``) is positive.
    With (m_ab, m_bc, m_ca) the side midpoints of a level-(m-1) cell:

    * mu = 6, one per vertex x of V_{m-1}: x gets 2, and in each of its
      k in {1, 2} cells the midpoints of the two sides through x get -1 and
      the midpoint of the side opposite x gets +1; divided by sqrt(4 + 3k).
    * mu = 5, one per level-i cell w, i <= m - 2: its hole is lined by
      r = 3 2^(m-i-2) level-(m-1) cells, and one inside sub-cell w s takes
      (1, 0, -1), (-1, 1, 0) or (0, -1, 1) for s = 0, 1, 2 -- 0 on its side
      on the hole; divided by sqrt(2r).
    """
    corners, mids = parent_cells(fine)
    if mu == 6.0:
        flat = corners.ravel()
        order = np.argsort(flat, kind="stable")
        first = np.searchsorted(flat[order], np.arange(flat.max() + 1))
        ncell = np.bincount(flat)
        for k in (1, 2):
            x = np.flatnonzero(ncell == k)
            cells, corner = np.divmod(order[first[x, None] + np.arange(k)], 3)
            # the side opposite corner a, b or c is m_bc, m_ca or m_ab
            sides = np.where(np.arange(3) == (corner[..., None] + 1) % 3, 1.0, -1.0).reshape(len(x), 3 * k)
            yield (np.column_stack([x, mids[cells].reshape(len(x), 3 * k)]),
                   np.column_stack([np.full(len(x), 2.0), sides]) / np.sqrt(4 + 3 * k))
    else:
        for i in range(fine.level - 1):
            cells = _hole_cells(i, fine.level - i - 2)
            r = cells.shape[1]
            template = np.repeat([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]], r // 3, axis=0)
            yield mids[cells].reshape(len(cells), -1), np.broadcast_to(template.ravel() / np.sqrt(2 * r),
                                                                       (len(cells), 3 * r))


def _newborn_block(fine: LevelGraph, mu):
    """The eigenspace born on ``fine`` at mu = 6 or 5 as one sparse block, one column per eigenfunction.

    The columns run in the reverse order of :func:`_newborn`, the order in
    which :func:`_birth_factor` eliminates them; no dense column is formed.
    """
    rows, cols, vals, k = [], [], [], 0
    for support, values in _newborn(fine, mu):
        rows.append(support.ravel())
        cols.append(np.repeat(np.arange(k, k + len(support)), support.shape[1]))
        vals.append(values.ravel())
        k += len(support)
    rows, cols = (np.concatenate(x).astype(sp.get_index_dtype(maxval=len(fine))) for x in (rows, cols))
    return sp.csc_array((np.concatenate(vals), (rows, k - 1 - cols)), shape=(len(fine), k))


def _ancestors(levels, keep):
    """The eigenspace each of ``keep`` descends from at every level, and the birth of each.

    Returns ``(anc, birth, born)``.  Row j of ``anc`` holds the level-j
    labels, -1 below an eigenspace's birth level, so sorting the columns
    by their rows (:func:`numpy.lexsort`, row 0 first) lists the kept
    eigenspaces depth-first: every eigenspace's kept descendants are
    contiguous.  ``birth`` is the first row that is not -1, and ``born``
    the label there, of the birth eigenspace.
    """
    m = len(levels) - 1
    anc = np.full((m + 1, len(keep)), -1)
    anc[m] = keep
    for j in range(m, 0, -1):
        anc[j - 1] = np.where(anc[j] >= 0, levels[j][2][anc[j]], -1)
    birth = np.argmax(anc >= 0, axis=0)
    return anc, birth, anc[birth, np.arange(len(keep))]


def _birth_factor(block, mass):
    """The upper Cholesky factor R of the M-Gram G = B^T M B = R^T R of a birth eigenspace, in its column order.

    SuperLU factors G as it stands, G = L U with no column permutation and
    no row pivoting, and R = D^{-1/2} U for the pivots D = diag(U), a sparse
    matrix.  The columns of a newborn block run finest hole first (mu = 5)
    or highest vertex first (mu = 6), an elimination order that the
    construction itself gives: a mu = 5 factor holds exactly the entries of
    G's upper triangle, a mu = 6 one about 1.56 times as many (tested at
    L1-L10).  Raises SolverError when that order needs a pivot off the
    diagonal or a pivot is not positive: G is then not positive definite.
    """
    mblock = block.copy()
    mblock.data *= mass[block.indices]
    gram = (mblock.T @ block).tocsc()
    gram.sort_indices()
    k = gram.shape[0]
    try:
        lu = splu(gram, permc_spec="NATURAL", diag_pivot_thresh=0)
    except RuntimeError as err:  # an exactly singular pivot
        raise SolverError(f"the M-Gram of a birth eigenspace is singular ({err})") from None
    factor = lu.U
    pivots = factor.diagonal()
    if (lu.perm_r != np.arange(k)).any() or (lu.perm_c != np.arange(k)).any() or not (pivots > 0).all():
        raise SolverError("the M-Gram of a birth eigenspace is not positive definite in its column order")
    factor.data /= np.sqrt(pivots)[factor.indices]
    return factor


def _birth_block(j, mu, g):
    """Eigenspace ``g`` of level ``j``, born there, as a sparse block: the level-0 base or a newborn block."""
    if j:
        return _newborn_block(build_level(j), mu)
    # the constant, or a basis of the mean-zero (mu = 6) space
    return sp.csc_array(np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]).T[:, [[0], [1, 2]][g]])


def _eigenspace_columns(levels, anc, birth, born, coefficients):
    """Combinations of the basis of each top-level eigenspace ``anc[-1, i]``, built depth-first.

    ``anc``, ``birth`` and ``born`` are the :func:`_ancestors` of the kept
    eigenspaces, and ``coefficients(i)`` gives ``(first, c)`` pairs for
    eigenspace i, each c (p x r, r <= ``BLOCK``) the leading p coefficients
    of r combinations.
    Every eigenspace descends from one birth eigenspace B (the level-0 base
    or a newborn block), whose M-Gram is factored once (:func:`_birth_factor`,
    G = R^T R).  At its birth level the columns B R^{-1} c of its kept
    descendants are formed at once, dense, at most ``BLOCK`` of them at a
    time, and go up one level at a time through
    :func:`~gasket_fgf.operators.decimation_extension`; each child extends
    the slice of columns of its own descendants at its own mu.  No sparse
    block is formed above its birth level, and between eigenspaces nothing
    is held but the columns along the current path.  Yields
    ``(i, first, y)`` at the top: y holds the combinations of the one block
    c given with ``first``.  No item holds two blocks: every block but an
    eigenspace's last is ``BLOCK`` wide, a batch is flushed before it would
    pass ``BLOCK``, and each batch is split by eigenspace on its way up.
    E(mu) scales the M-Gram of a whole eigenspace by one scalar, so y is the
    combinations of its M-orthonormal basis times one unknown factor, which
    each column's own M-norm removes.
    """
    m = len(levels) - 1
    # births level by level, and the kept descendants of each depth-first
    order = np.lexsort((*np.where(anc < 0, len(levels[m][0]), anc)[::-1], birth))

    def push(j, y, entries):
        if j == m:
            [(i, first, _)] = entries
            yield i, first, y
            return
        start = 0
        for child, group in groupby(entries, key=lambda e: anc[j + 1, e[0]]):
            group = list(group)
            width = sum(r for _, _, r in group)
            yield from push(j + 1, decimation_extension(y[:, start : start + width], build_level(j + 1),
                                                        levels[j + 1][0][child]), group)
            start += width

    def grow(j, g, leaves):
        block = _birth_block(j, levels[j][0][g], g)
        factor = _birth_factor(block, build_level(j).measure)

        def flush(batch):
            y = _birth_columns(block, factor, [c for _, _, c in batch])
            entries = [(i, first, c.shape[1]) for i, first, c in batch]
            batch.clear()  # the coefficients are spent
            yield from push(j, y, entries)

        batch, width = [], 0
        for i in leaves:
            for first, c in coefficients(i):
                if width + c.shape[1] > BLOCK:
                    yield from flush(batch)
                    width = 0
                batch.append((i, first, c))
                width += c.shape[1]
        yield from flush(batch)

    for (j, g), leaves in groupby(order.tolist(), key=lambda i: (int(birth[i]), int(born[i]))):
        yield from grow(j, g, list(leaves))


def _birth_columns(block, factor, coefs):
    """[B R^{-1} c_1, B R^{-1} c_2, ...]: the combinations ``coefs`` of a birth block.

    Each c (p x r) holds the leading p coefficients of r combinations, the
    rest zero; since the factor R is upper triangular, so is R^{-1}, and one
    sparse triangular solve with the leading p x p block of R gives them all.
    """
    p = max(c.shape[0] for c in coefs)
    rhs = np.zeros((p, sum(c.shape[1] for c in coefs)))
    start = 0
    for c in coefs:
        rhs[: c.shape[0], start : start + c.shape[1]] = c
        start += c.shape[1]
    return block[:, :p] @ spsolve_triangular(factor[:p, :p], rhs, lower=False, overwrite_b=True)


def _available_memory():
    """Bytes of memory the process may use: physical memory, or a lower cgroup limit."""
    avail = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        with open("/sys/fs/cgroup/memory.max") as f:
            return min(avail, int(f.read()))
    except (OSError, ValueError):  # no cgroup v2 limit, or "max"
        return avail


def _path_columns(anc, widths):
    """Most columns one level-j eigenspace holds along the path, for each level j.

    Its kept descendants' ``widths`` (the combinations of each), at most
    ``BLOCK`` at a time; ``anc`` is that of :func:`_ancestors`.
    """
    return [min(BLOCK, int(np.bincount(a[a >= 0], widths[a >= 0]).max())) if (a >= 0).any() else 0
            for a in anc]


#: Bytes of Python objects and small index arrays that no O(n) term covers;
#: they make the peak of the smallest sub-gaskets.
FIXED_BYTES = 2**16


def _residual(stiffness, mass, y, lam, norms):
    """max_j ||S y_j - lam M y_j||_2 / (lam ||y_j||_M) over the columns of y, whose M-norms are ``norms``."""
    resid = stiffness.matrix @ y
    t = y * lam
    t *= mass[:, None]
    resid -= t
    return float(np.max(np.sqrt(np.einsum("ij,ij->j", resid, resid)) / (lam * norms)))


def canonical_eigenspaces(stiffness: StiffnessMatrix, mass: MassMatrix, count, held, weights=None, tol=1e-8,
                          graph: LevelGraph = None):
    """Combinations of the canonical basis of the ``count`` smallest nonzero eigenpairs, as a stream.

    The labels of :func:`_decimation_levels` give every eigenspace and its
    eigenvalue (the values :func:`spectrum` lists); the eigenspaces up to
    the one that holds mode ``count`` are built (newborn blocks, then
    decimation extension) by one depth-first traversal,
    :func:`_eigenspace_columns`.
    No dense eigensolver runs at any level.

    Without ``weights`` the stream holds the modes themselves, up to
    ``BLOCK`` of one eigenspace at a time; with ``weights`` (the ``count``
    coefficients of one combination of all modes) it holds one column per
    eigenspace, its term of that combination.  Mode i of an eigenspace
    needs only the leading i + 1 of its coefficients, so an eigenspace cut
    at ``count`` is never solved past the cut.  Each column is scaled at
    the top by its own M-norm: to 1 for a mode, and to the norm of the
    eigenspace's weights for a term.

    ``count`` and the memory are checked at once, and the stream is returned
    as ``(graph, lambdas, ends, columns)``: the graph (``build_level`` of a
    full gasket's level when none is given), the ``count`` eigenvalues, the
    exclusive end of each eigenspace built among the nonzero modes, and an
    iterator of ``(first, v, residual)``.  The n x r columns v are modes
    first, ..., first + r - 1 (0-based among the nonzero modes), or the term
    of the eigenspace whose first mode is ``first``; their order is that of
    the traversal.  ``residual`` is max_j ||S v_j - lambda M v_j||_2 /
    (lambda ||v_j||_M), and SolverError is raised when it exceeds ``tol``.

    Raises ValueError for out-of-range ``count``, a ``tol`` that is not
    finite and positive, a dimension that is no gasket's, or a sub-gasket
    without its graph; and before any allocation when the estimated peak
    -- ``held`` bytes the caller keeps besides the stream, the dense
    columns held along the path (:func:`_path_columns`: n_j doubles per
    column at each level j), six more n x r blocks at the top (the last
    eigenspace's columns, which the consumer still holds, the stacked input
    of E(mu), and the scaled, renumbered and residual-check copies; r the
    widest top-level column count), 40 n_j for the birth held at its
    level j (at most 3 n_j nonzeros of 12 bytes in its block, with its
    Gram and sparse factor below 20 n_j in tracemalloc at L6-L11, and
    SuperLU's own buffers, which tracemalloc does not see, below 18 n_j of
    max RSS at L10-L11; a newborn's templates peak below 15 n_j before its
    block exists), 26 n for the cached extension pattern, the level
    spectrum and the O(n) index arrays and operators of the construction,
    and ``FIXED_BYTES`` -- exceeds the available memory.
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
    starts = ends - mult[keep]
    widths = np.ones(len(keep), dtype=np.int64) if weights is not None else np.minimum(mult[keep], count - starts)
    anc, birth, born = _ancestors(levels, keep)
    path = _path_columns(anc, widths)
    sizes = [(3 ** (j + 1) + 3) // 2 for j in range(depth + 1)]
    need = held + 8 * (int(np.dot(sizes, path)) + n * (6 * path[-1] + 26) + 40 * sizes[birth.max()]) + FIXED_BYTES
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
    lambdas = np.repeat(1.5 * 5.0**stiffness.level * mu[keep], mult[keep])[:count]

    def coefficients(i):
        lo, k = int(starts[i]), int(widths[i])
        if weights is not None:
            return [(lo, weights[lo : ends[i], None])]
        return ((lo + a, np.eye(a + b, b, -a)) for a in range(0, k, BLOCK) for b in [min(BLOCK, k - a)])

    def columns():
        for i, first, y in _eigenspace_columns(levels, anc, birth, born, coefficients):
            if word:
                y = y[rows]
            # the residual does not depend on a column's scale, so y is checked before it is scaled
            mnorm = np.sqrt(np.einsum("ij,ij,i->j", y, y, mass.diagonal))
            residual = _residual(stiffness, mass.diagonal, y, lambdas[starts[i]], mnorm)
            if residual > tol:
                raise SolverError(f"eigensolver residual {residual:.3e} exceeds tolerance {tol:.3e}",
                                  residual=residual)
            # a combination c of an M-orthonormal basis has M-norm ||c||: 1 for a mode, and the
            # norm of the eigenspace's weights for its term
            scale = 1.0 if weights is None else np.linalg.norm(weights[starts[i] : ends[i]])
            yield first, y * (scale / mnorm), residual

    return graph, lambdas, ends, columns()


def solve_eigen(
    stiffness: StiffnessMatrix,
    mass: MassMatrix,
    count,
    tol=1e-8,
    graph: LevelGraph = None,
) -> SpectralBasis:
    """Compute the ``count`` smallest nonzero generalized eigenpairs.

    Forms the modes of each eigenspace of :func:`canonical_eigenspaces`,
    ``BLOCK`` at a time from leading columns of the identity solved at its
    birth level and pushed up from there, into one n x count array.

    Parameters
    ----------
    stiffness, mass : operators from :mod:`gasket_fgf.operators`, of a full
        gasket or a sub-gasket from :func:`~gasket_fgf.geometry.extract_cell`.
    count : number of nonzero modes requested (the constant mode is not
        among them).
    tol : acceptance threshold on max_j ||S phi - lambda M phi||_2 / lambda.
    graph : the LevelGraph of the operators, attached to the result;
        needed only for a sub-gasket, whose vertex order it gives (a full
        gasket gets ``build_level`` of its level).

    Raises
    ------
    ValueError as :func:`canonical_eigenspaces` does, whose memory estimate
    counts the n x count result here; SolverError if the achieved
    residual exceeds ``tol``.
    """
    n = stiffness.dim
    graph, lam, ends, columns = canonical_eigenspaces(stiffness, mass, count, 8 * n * int(count),
                                                      tol=tol, graph=graph)
    phi = np.empty((n, len(lam)))
    residual_norm = 0.0
    for first, v, residual in columns:
        phi[:, first : first + v.shape[1]] = v
        residual_norm = max(residual_norm, residual)
    return SpectralBasis(lam=lam, phi=phi, mass=np.asarray(mass.diagonal), residual_norm=residual_norm,
                         ends=ends, graph=graph)


def spectrum(level, word=()):
    """Sorted nonzero eigenvalues lambda_1 <= ... <= lambda_{n-1}, without any vector.

    The eigenvalues of the level-``level`` operators, or of the sub-gasket
    of cell ``word`` (:func:`~gasket_fgf.geometry.extract_cell`, in the
    parent's normalization), from the labels of :func:`_decimation_levels`;
    :func:`solve_eigen` reports these same values.
    """
    check_address(level, tuple(word))
    mu, mult, _ = _decimation_levels(level - len(word))[-1]
    order = np.argsort(mu, kind="stable")
    return np.repeat(1.5 * 5.0**level * mu[order], mult[order])[1:]


def weyl_exponent_fit(lam) -> WeylFit:
    """Least-squares fit of log N(lambda_j) against log lambda_j.

    ``lam`` is a sorted array of nonzero eigenvalues from the low end of a
    spectrum.  The fit uses the middle 20%-80% of the array by index -- the
    bottom is preasymptotic.  N is evaluated right-continuously;
    ``solve_eigen`` gives every mode of one eigenspace the same eigenvalue,
    bit for bit, so each degenerate cluster counts its full multiplicity.
    The slope estimates d_h/d_w = ln3/ln5 = 0.683 only below the
    discretization: 0.682, 0.680, 0.680 over the first ninth of
    ``spectrum(m)`` at m = 6, 8, 10, but 1.219, 1.215, 1.214 over all of
    it, and 0.724 over the first 300 modes at m = 6.
    """
    lam = np.asarray(lam, dtype=np.float64)
    J = len(lam)
    if J < 100:
        raise ValueError("at least 100 modes are required for a Weyl exponent fit")
    lo, hi = int(J * 0.2), int(J * 0.8)
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
    return float(np.sum(lam[check_truncation(J, len(lam)):] ** (-2.0 * s)))


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
