"""Generalized eigenproblem S Phi = lambda M Phi and spectral utilities.

The solve is performed in symmetrized coordinates A = D^{-1/2} S D^{-1/2}
with D = diag(M): dense LAPACK for dimensions up to 4000 (levels <= 7) and
shift-invert Lanczos beyond.  Eigenvectors are returned M-orthonormal, in
continuum normalization (the stiffness and mass already carry (5/3)^m and
3^{-m}, so no further rescaling of eigenvalues is needed).

The gasket spectrum is highly degenerate, and LAPACK returns an arbitrary
basis inside each eigenspace that changes with the BLAS thread count.  The
solver therefore replaces every cluster (relative gap < 1e-9) by a canonical
basis that is a function of the eigenspace alone: the M-Gram-Schmidt of a
fixed pseudo-random probe projected onto it (see ``_canonical_cluster_bases``).
So the eigenvectors, and every field built from them, are reproducible across
machines and thread counts.  The convention holds for whole clusters: when a
truncated solve (``count`` < n - 1, which includes every iterative solve)
cuts the top cluster, the vectors of that partial cluster span a subspace
the solver happened to find, and no eigenspace fixes them; such a solve
asks for one eigenvalue more than it returns and emits a ``UserWarning``
naming the cluster boundary below the cut.  Identities across different
bases are still formulated on kernels/projectors, trimmed to the nearest
cluster boundary (``SpectralBasis.cluster_complete``).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constants import S_MIN
from .geometry import LevelGraph
from .operators import MassMatrix, StiffnessMatrix

#: Largest dimension handled by the dense solver path.
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


def _postprocess(w, psi, dscale, mass):
    lambdas = np.array(w, dtype=np.float64)
    lambdas[0] = 0.0
    vectors = psi * dscale[:, None]
    total = mass.sum()
    vectors[:, 0] = 1.0 / np.sqrt(total)
    # project the exact constant out of every nonzero mode, then renormalize
    const = vectors[:, 0]
    coeff = (const * mass) @ vectors[:, 1:]
    vectors[:, 1:] -= np.outer(const, coeff)
    norms = np.sqrt(np.einsum("i,ij->j", mass, vectors[:, 1:] ** 2))
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
    method="auto",
    graph: LevelGraph = None,
) -> SpectralBasis:
    """Compute the ``count`` smallest nonzero generalized eigenpairs.

    Parameters
    ----------
    stiffness, mass : operators from :mod:`gasket_fgf.operators`
    count : number of nonzero modes requested (λ_0 = 0 is always included
        in the result in addition to these).
    tol : acceptance threshold on max_j ||S phi - lambda M phi||_2 / lambda.
    method : 'auto' (dense below 4000 unknowns), 'dense', or 'iterative'.
    graph : optional LevelGraph to attach for coordinate-aware diagnostics.

    Raises
    ------
    ValueError for out-of-range ``count``; SolverError if the achieved
    residual exceeds ``tol``.

    Warns
    -----
    UserWarning when ``count`` < n - 1 cuts an eigenvalue cluster: the
    solver computes one eigenvalue more than it returns to detect this.
    """
    n = stiffness.dim
    count = int(count)
    if not 1 <= count <= n - 1:
        raise ValueError(f"count must lie in [1, {n - 1}] for dimension {n}")
    if method == "auto":
        method = "dense" if n <= DENSE_LIMIT else "iterative"
    d = 1.0 / np.sqrt(mass.diagonal)
    # one eigenvalue beyond the result shows whether the top cluster is cut
    nev = min(count + 2, n)
    if method == "dense":
        a = stiffness.matrix.toarray() * d[:, None] * d[None, :]
        a = 0.5 * (a + a.T)
        w, psi = sla.eigh(a, subset_by_index=(0, nev - 1))
    elif method == "iterative":
        dinv = sp.diags_array(d)
        a = (dinv @ stiffness.matrix @ dinv).tocsc()
        a = ((a + a.T) * 0.5).tocsc()
        try:
            w, psi = spla.eigsh(a, k=min(nev, n - 1), sigma=-1.0, which="LM")
        except Exception as exc:  # pragma: no cover - non-convergence path
            raise SolverError(f"iterative eigensolver failed: {exc}") from exc
        order = np.argsort(w)
        w, psi = w[order], psi[:, order]
    else:
        raise ValueError(f"unknown method {method!r}")
    if len(w) > count + 1:
        lo = _cluster_runs(w[1:])[-1][0]  # first mode of the top run, extra eigenvalue included
        if lo < count:
            warnings.warn(
                f"count={count} cuts an eigenvalue cluster: modes {lo + 1}..{count} are part of "
                f"a larger eigenspace, so their basis is not canonical; the cluster-complete "
                f"truncation is J = {lo}",
                stacklevel=2,
            )
        w, psi = w[:-1], psi[:, :-1]

    lambdas, vectors = _postprocess(w, psi, d, mass.diagonal)
    _canonical_cluster_bases(lambdas, vectors, mass.diagonal)

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
        level=stiffness.level,
        lambdas=lambdas,
        vectors=vectors,
        mass=np.asarray(mass.diagonal),
        residual_norm=residual_norm,
        method=method,
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
