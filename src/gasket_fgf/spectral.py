"""Generalized eigenproblem S Phi = lambda M Phi and spectral utilities.

One solver path: a dense LAPACK solve, in symmetrized coordinates
A = D^{-1/2} S D^{-1/2} with D = diag(M), at the coarsest level that holds
the requested modes, then exact spectral-decimation steps up to the
requested level (Fukushima-Shima eigenvalue map, Dalrymple-Strichartz-Vinson
eigenfunction extension).  A full-spectrum solve is the dense solve at its
own level.  The dense base is capped at ``DENSE_LIMIT`` unknowns (level 7),
so a full gasket at level >= 8 offers at most 3^7 - 1 = 2186 modes, and
larger requests fail before any dense allocation.  Eigenvectors are returned
M-orthonormal, in continuum normalization (the stiffness and mass already
carry (5/3)^m and 3^{-m}, so no further rescaling is needed).

The gasket spectrum is highly degenerate, and LAPACK returns an arbitrary
basis inside each eigenspace that changes with the BLAS thread count.  The
solver therefore replaces every cluster (relative gap < 1e-9) by a canonical
basis that is a function of the eigenspace alone: the M-Gram-Schmidt of a
fixed pseudo-random probe projected onto it (see ``_canonical_cluster_bases``).
A truncated solve cuts only after this step, so its basis is the leading
columns of the full solve's, and the eigenvectors, and every field built
from them, are reproducible across machines and thread counts.  Identities
across different bases are still formulated on kernels/projectors, trimmed
to the nearest cluster boundary (``SpectralBasis.cluster_complete``).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .constants import S_MIN
from .geometry import LevelGraph, build_level
from .operators import (MassMatrix, StiffnessMatrix, assemble_energy, assemble_mass,
                        decimation_extension)

#: Largest dimension of the dense base solve (level 7 has 3,282 unknowns).
DENSE_LIMIT = 4000

#: Relative gap below which neighbouring eigenvalues count as one cluster.
CLUSTER_GAP = 1e-9


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
    """

    level: int
    lambdas: np.ndarray
    vectors: np.ndarray
    mass: np.ndarray
    residual_norm: float
    method: str
    word: tuple = ()
    graph: LevelGraph = field(default=None, repr=False)

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

    def clusters(self):
        """Maximal runs [lo, hi) of nonzero-mode indices with tiny relative gaps."""
        return _cluster_runs(self.lam)

    def cluster_complete(self, J):
        """Largest J' <= J that does not split a degenerate cluster."""
        ends = np.array([0] + [hi for _, hi in self.clusters()])
        return int(ends[np.searchsorted(ends, max(int(J), 0), side="right") - 1])


def spectral_coeffs(basis: SpectralBasis, f, J):
    """M-coefficients <Phi_j, f>_M of f on the first J nonzero modes."""
    return basis.phi[:, :J].T @ (basis.mass * f)


def _dense_eigen(stiffness: StiffnessMatrix, mass: MassMatrix):
    """All eigenpairs by dense LAPACK in symmetrized coordinates D^{-1/2} S D^{-1/2}."""
    mdiag = mass.diagonal
    d = 1.0 / np.sqrt(mdiag)
    a = stiffness.matrix.toarray() * d[:, None] * d[None, :]
    a = 0.5 * (a + a.T)
    w, psi = sla.eigh(a)
    lambdas = np.array(w, dtype=np.float64)
    lambdas[0] = 0.0
    vectors = psi * d[:, None]
    vectors[:, 0] = 1.0 / np.sqrt(mdiag.sum())
    # project the exact constant out of every nonzero mode, then renormalize
    const = vectors[:, 0]
    coeff = (const * mdiag) @ vectors[:, 1:]
    vectors[:, 1:] -= np.outer(const, coeff)
    norms = np.sqrt(np.einsum("i,ij->j", mdiag, vectors[:, 1:] ** 2))
    vectors[:, 1:] /= norms
    return lambdas, vectors


def _cluster_runs(lam):
    """Maximal runs [lo, hi) of a sorted array whose neighbours differ by <= CLUSTER_GAP."""
    cut = np.flatnonzero(np.diff(lam) > CLUSTER_GAP * np.maximum(lam[:-1], 1.0)) + 1
    edges = [0, *cut.tolist(), len(lam)]
    return list(zip(edges[:-1], edges[1:]))


def _canonical_cluster_bases(lambdas, vectors, mass):
    """Replace each cluster's vectors by a basis fixed by its eigenspace alone.

    For the cluster [lo, hi) of nonzero modes with block B (n x k): make B
    M-orthonormal (B L^{-T}, with L L^T = B^T M B), project a fixed probe Q
    (n x k, from ``default_rng([n, lo])``) onto its span, C = B^T M Q, and
    keep B Q_C, where Q_C R_C = C with diag(R_C) > 0.  A change of basis
    B -> B U (U orthogonal) turns C into U^T C and leaves B Q_C unchanged:
    the result is the M-Gram-Schmidt of the projected probe columns.  No
    pivoting and no threshold enter, so symmetry ties cannot flip it; for
    k = 1 it fixes the sign of the single mode.
    """
    n = vectors.shape[0]
    for lo, hi in _cluster_runs(lambdas[1:]):
        block = vectors[:, 1 + lo : 1 + hi]
        mblock = mass[:, None] * block
        # L^{-1} explicitly: L is near the identity, and one small call per
        # cluster beats two triangular solves when BLAS runs threaded
        linv, _ = sla.lapack.dtrtri(sla.cholesky(block.T @ mblock, lower=True), lower=1)
        probe = np.random.default_rng([n, lo]).standard_normal((n, hi - lo))
        c = linv @ (mblock.T @ probe)
        del mblock, probe  # two n x k temporaries: free them before the last product
        q, r = np.linalg.qr(c)
        q *= np.copysign(1.0, np.diag(r))
        vectors[:, 1 + lo : 1 + hi] = block @ (linv.T @ q)


def solve_eigen(
    stiffness: StiffnessMatrix,
    mass: MassMatrix,
    count,
    tol=1e-8,
    graph: LevelGraph = None,
) -> SpectralBasis:
    """Compute the ``count`` smallest nonzero generalized eigenpairs.

    A dense solve at the base level k (k = m for a full spectrum) keeps its modes through the end of the cluster that holds mode
    ``count``; m - k decimation steps map each mu = lambda / ((3/2) 5^j) to
    the smaller root of x (5 - x) = mu and extend the vectors
    (:func:`~gasket_fgf.operators.decimation_extension`).  Clusters are
    canonicalized whole, then the result is cut to ``count`` modes.

    Parameters
    ----------
    stiffness, mass : operators from :mod:`gasket_fgf.operators`
    count : number of nonzero modes requested (λ_0 = 0 is always included
        in the result in addition to these).
    tol : acceptance threshold on max_j ||S phi - lambda M phi||_2 / lambda.
    graph : optional LevelGraph to attach for coordinate-aware diagnostics.

    Raises
    ------
    ValueError for out-of-range ``count``, and before any dense allocation
    when the base solve exceeds ``DENSE_LIMIT`` unknowns (``count`` > 2186
    at level >= 8); SolverError if the achieved residual exceeds ``tol``.
    """
    n = stiffness.dim
    count = int(count)
    if not 1 <= count <= n - 1:
        raise ValueError(f"count must lie in [1, {n - 1}] for dimension {n}")
    level = stiffness.level
    # on a full gasket the lowest 3^k - 1 nonzero modes of every deeper level
    # descend from the level-k modes below its top cluster
    full = n == (3 ** (level + 1) + 3) // 2
    k = next((j for j in range(level) if 3**j > count), level) if full else level
    base_dim = (3 ** (k + 1) + 3) // 2 if full else n
    if base_dim > DENSE_LIMIT:
        top = max(j for j in range(level) if (3 ** (j + 1) + 3) // 2 <= DENSE_LIMIT)
        raise ValueError(
            f"count={count} at level {level} needs a dense solve of dimension {base_dim} "
            f"> {DENSE_LIMIT}; truncated solves on a full gasket reach count <= {3**top - 1}"
        )
    if k == level:
        lambdas, vectors = _dense_eigen(stiffness, mass)
    else:
        g = build_level(k)
        lambdas, vectors = _dense_eigen(assemble_energy(g), assemble_mass(g))
    keep = 1 + next(hi for _, hi in _cluster_runs(lambdas[1:]) if hi >= count)
    lambdas, vectors = lambdas[:keep], vectors[:, :keep]
    if k < level:
        mu = lambdas / (1.5 * 5.0**k)  # lambda = (3/2) 5^j mu at level j
        for j in range(k + 1, level + 1):
            mu = 2.0 * mu / (5.0 + np.sqrt(25.0 - 4.0 * mu))  # smaller root, no cancellation
            vectors = decimation_extension(vectors, build_level(j), mu)
        lambdas = 1.5 * 5.0**level * mu
    _canonical_cluster_bases(lambdas, vectors, mass.diagonal)
    lambdas, vectors = lambdas[: count + 1], vectors[:, : count + 1]

    lam = lambdas[1:]
    resid = stiffness.matrix @ vectors[:, 1:] - (mass.diagonal[:, None] * vectors[:, 1:]) * lam
    residual_norm = float(np.max(np.linalg.norm(resid, axis=0) / lam))
    if residual_norm > tol:
        raise SolverError(
            f"eigensolver residual {residual_norm:.3e} exceeds tolerance {tol:.3e}",
            residual=residual_norm,
        )
    word = graph.word if graph is not None else ()
    return SpectralBasis(
        level=level,
        lambdas=lambdas,
        vectors=vectors,
        mass=np.asarray(mass.diagonal),
        residual_norm=residual_norm,
        method="dense" if k == level else "decimation",
        word=word,
        graph=graph,
    )


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
    discretization.  N is evaluated right-continuously with a CLUSTER_GAP
    relative tie guard so degenerate clusters count their full multiplicity.
    The expected slope is d_h/d_w = ln3/ln5.
    """
    lam = spectrum.lam if isinstance(spectrum, SpectralBasis) else np.asarray(spectrum, dtype=np.float64)
    J = len(lam)
    if J < 100:
        raise ValueError("at least 100 modes are required for a Weyl exponent fit")
    lo, hi = int(J * lo_frac), int(J * hi_frac)
    lams = lam[lo:hi]
    counts = np.searchsorted(lam, lams * (1.0 + CLUSTER_GAP), side="right")
    x, y = np.log(lams), np.log(counts)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return WeylFit(float(slope), float(intercept), r2, (float(lams[0]), float(lams[-1])), hi - lo)


def tail_variance(basis: SpectralBasis, s, J):
    """Omitted-mode variance sum_{j > J} lambda_j^{-2s} within the computed spectrum."""
    if s <= S_MIN:
        raise ValueError(f"s must exceed {S_MIN:.5f} for a square-summable spectral tail")
    J = int(J)
    if not 0 <= J <= basis.count:
        raise ValueError(f"J must lie in [0, {basis.count}]")
    return float(np.sum(basis.lam[J:] ** (-2.0 * s)))


def pick_truncation(basis: SpectralBasis, s, budget=0.01):
    """Smallest J whose tail variance is <= budget * total variance."""
    if s <= S_MIN:
        raise ValueError(f"s must exceed {S_MIN:.5f} for a square-summable spectral tail")
    terms = basis.lam ** (-2.0 * s)
    total = float(terms.sum())
    prefix = np.concatenate([[0.0], np.cumsum(terms)])
    tails = total - prefix
    ok = np.nonzero(tails <= budget * total)[0]
    return int(ok[0])
