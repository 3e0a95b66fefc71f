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
(``SpectralBasis.cluster_complete``).  The one limit is memory: an estimate
of the solve's peak must fit in the memory available to the process,
checked before anything is allocated (see :func:`solve_eigen`).
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

#: Columns per block when extending eigenvectors and checking residuals.
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
        J = self.count if J is None else int(J)
        if not 0 <= J <= self.count:
            raise ValueError(f"J must lie in [0, {self.count}]")
        return J

    def clusters(self):
        """Runs [lo, hi) of nonzero-mode indices, one per eigenspace (the last cut at ``count``)."""
        lo = [0, *self.ends[:-1].tolist()]
        return [(a, min(b, self.count)) for a, b in zip(lo, self.ends.tolist())]

    def cluster_complete(self, J):
        """Largest J' <= J (and <= ``count``) that does not split an eigenspace."""
        ends = np.concatenate([[0], self.ends])
        return int(ends[np.searchsorted(ends, min(max(int(J), 0), self.count), side="right") - 1])


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


def _fill(levels, j, groups, coarse, starts):
    """The level-j eigenspaces ``groups`` as the columns of a dense array, in that order.

    ``coarse`` holds the level-(j - 1) vectors, eigenspace e from column
    ``starts[e]`` on; column i of an inherited eigenspace extends column i of
    its parent.  Returns the array and its own ``starts``.
    """
    mu, mult, parent = levels[j]
    fine = build_level(j)
    sizes = mult[groups]
    first = np.cumsum(sizes) - sizes
    out = np.zeros((len(fine), sizes.sum()))
    group = np.repeat(groups, sizes)
    cols = np.flatnonzero(parent[group] >= 0)  # inherited columns, a block at a time
    src = starts[parent[group[cols]]] + cols - np.repeat(first, sizes)[cols]
    for lo in range(0, len(cols), BLOCK):
        c = cols[lo : lo + BLOCK]
        out[:, c] = decimation_extension(coarse[:, src[lo : lo + BLOCK]], fine, mu[group[c]])
    for g, lo in zip(groups, first):
        if parent[g] < 0:
            for support, values in _newborn(fine, mu[g]):
                out[support, lo + np.arange(len(support))[:, None]] = values
                lo += len(support)
    starts = np.zeros(len(mu), dtype=np.int64)
    starts[groups] = first
    return out, starts


def _eigenspace_blocks(levels, keep):
    """The top-level eigenspaces ``keep``, built up from level 0, one sparse n x k block each.

    Yields them in the order of ``keep``, filled about ``BLOCK`` columns at
    a time (a wider eigenspace alone); a dense batch and the coarse level
    are freed before the last block they give is yielded.
    """
    m = len(levels) - 1
    layout = [None] * m + [keep]  # the eigenspaces each level provides, in column order
    for j in range(m, 0, -1):
        par = levels[j][2][layout[j]]
        layout[j - 1] = np.unique(par[par >= 0])
    # level 0: the constant, then a basis of the mean-zero (mu = 6) space; both
    # are always needed, since lambda_1 descends from the mu = 6 space
    coarse = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]).T
    starts = np.array([0, 1])
    if m == 0:
        yield sp.csc_array(coarse[:, 1:])
        return
    for j in range(1, m):
        coarse, starts = _fill(levels, j, layout[j], coarse, starts)
    mult = levels[m][1]
    cuts = [0]  # the first eigenspace of each batch
    for i in range(1, len(keep)):
        if mult[keep[cuts[-1] : i + 1]].sum() > BLOCK:
            cuts.append(i)
    for first, stop in zip(cuts, [*cuts[1:], len(keep)]):
        out, at = _fill(levels, m, keep[first:stop], coarse, starts)
        if stop == len(keep):
            del coarse
        for g in keep[first:stop]:
            block = sp.csc_array(out[:, at[g] : at[g] + mult[g]])
            if g == keep[stop - 1]:
                del out
            yield block


def _available_memory():
    """Bytes of memory the process may use: physical memory, or a lower cgroup limit."""
    avail = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        with open("/sys/fs/cgroup/memory.max") as f:
            return min(avail, int(f.read()))
    except (OSError, ValueError):  # no cgroup v2 limit, or "max"
        return avail


def _canonical_basis(block, mass, lo, j):
    """The first j columns of a basis of span(``block``) fixed by that span alone.

    ``block`` (sparse, n x k) spans the cluster [lo, hi) of nonzero modes.
    Make it M-orthonormal (B L^{-T}, with L L^T = B^T M B), project a fixed
    probe Q (n x k, from ``default_rng([n, lo])``) onto its span,
    C = L^{-1} B^T M Q, and keep B L^{-T} Q_C, where Q_C R_C = C with
    diag(R_C) > 0.  A change of basis B -> B U (U orthogonal) turns C into
    U^T C and leaves the result unchanged: it is the M-Gram-Schmidt of the
    projected probe columns.  Gram-Schmidt is sequential, so the first j
    columns need only the first j probe columns: an n x j probe, drawn a
    row block at a time, a k x j QR and an n x j product.  No pivoting and
    no threshold enter, so symmetry ties cannot flip it; for k = 1 it fixes
    the sign of the single mode.
    """
    n, k = block.shape
    mblock = block.copy()
    mblock.data *= mass[block.indices]
    # L^{-1} explicitly: L is near the identity, and one small call per
    # cluster beats two triangular solves when BLAS runs threaded
    linv, _ = sla.lapack.dtrtri(sla.cholesky((block.T @ mblock).toarray(), lower=True), lower=1)
    rng, probe = np.random.default_rng([n, lo]), np.empty((n, j))
    for i in range(0, n, BLOCK):  # the stream of all k columns, drawn BLOCK rows at a time
        probe[i : i + BLOCK] = rng.standard_normal((min(BLOCK, n - i), k))[:, :j]
    c = linv @ (mblock.T @ probe)
    del probe  # an n x j temporary: free it before the last product
    q, r = np.linalg.qr(c)
    q *= np.copysign(1.0, np.diag(r))
    return block @ (linv.T @ q)


def solve_eigen(
    stiffness: StiffnessMatrix,
    mass: MassMatrix,
    count,
    tol=1e-8,
    graph: LevelGraph = None,
) -> SpectralBasis:
    """Compute the ``count`` smallest nonzero generalized eigenpairs.

    The labels of :func:`_decimation_levels` give every eigenspace, and
    :func:`spectrum` every eigenvalue; the eigenspaces up to the one that
    holds mode ``count`` are built from level 0 upward (newborn null spaces,
    then decimation extension) and made canonical one at a time, in sorted
    order.  The last one is built whole, but only its canonical columns up
    to mode ``count`` are formed, so the result is the leading ``count``
    modes of the full solve.  No dense eigensolver runs at any level.

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
    ValueError for out-of-range ``count``, a dimension that is no gasket's,
    or a sub-gasket without its graph; and before any allocation when the
    estimated peak -- the n x (count + 1) result, n x k twice for the
    widest eigenspace k (its dense batch next to the coarse level it
    extends), the canonical step's k x k temporaries, four n x ``BLOCK``
    blocks of the extension and residual loops (or a batch of narrower
    eigenspaces next to one's probe), and 10 n for the O(n) index arrays and
    operators of the construction -- exceeds the available memory;
    SolverError if the achieved residual exceeds ``tol``.
    """
    n = stiffness.dim
    count = int(count)
    if not 1 <= count <= n - 1:
        raise ValueError(f"count must lie in [1, {n - 1}] for dimension {n}")
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
    b = min(BLOCK, count)  # decimation_extension and the residual check hold a few n x b blocks
    # 10 n: the cell table of parent_cells with its corner and midpoint copies,
    # the level operators of the newborn null spaces, the level spectrum and
    # a sub-gasket's row order
    need = 8 * (n * (count + 1) + n * (2 * k + 4 * b + 10) + 4 * k * k)
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
    vectors = np.empty((n, count + 1))
    vectors[:, 0] = 1.0 / np.sqrt(mass.diagonal.sum())
    for lo, hi, block in zip(ends - mult[keep], np.minimum(ends, count), _eigenspace_blocks(levels, keep)):
        block = block[rows] if word else block
        vectors[:, 1 + lo : 1 + hi] = _canonical_basis(block, mass.diagonal, lo, hi - lo)
    lambdas = np.concatenate([[0.0], spectrum(stiffness.level, word)[:count]])

    residual_norm = 0.0
    for lo in range(1, count + 1, BLOCK):
        v, lam = vectors[:, lo : lo + BLOCK], lambdas[lo : lo + BLOCK]
        resid = stiffness.matrix @ v - (mass.diagonal[:, None] * v) * lam
        residual_norm = max(residual_norm, float(np.max(np.linalg.norm(resid, axis=0) / lam)))
    if residual_norm > tol:
        raise SolverError(
            f"eigensolver residual {residual_norm:.3e} exceeds tolerance {tol:.3e}",
            residual=residual_norm,
        )
    return SpectralBasis(
        level=stiffness.level,
        lambdas=lambdas,
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


def counting_function(basis: SpectralBasis, t):
    """N(t) = #{j >= 1 : lambda_j <= t} (right-continuous step function)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return int(np.searchsorted(basis.lam, t, side="right"))


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
