"""Karhunen-Loeve sampling of the fractional field and its statistical laws.

A field sample is the finite expansion

    X(x) = sum_{j=1}^{J} lambda_j^{-s} N_j Phi_j(x),   N_j iid standard normal,

drawn from a seeded PCG64 stream in mode order, so a given (seed, J, basis)
always reproduces the same values bit-for-bit and enlarging J never
reshuffles earlier coefficients.  The exact covariance of the expansion is
the truncated kernel G_{2s}; all distributional checks (white-noise duality,
covariance, variogram, symmetry/scaling invariance) reduce to identities on
that kernel, with Monte Carlo modes kept only to validate the sampler
end-to-end.  The Hoelder statistic is a calibrated diagnostic: a finite
level cannot falsify an existence-of-modification statement.
"""

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .constants import check_s, hurst_from_s
from .geometry import LevelGraph, SymmetryMap, embed_indices
from .kernels import (
    DEFAULT_PAIR_COUNT,
    DEFAULT_PAIR_SEED,
    FIT_WINDOW,
    binned_points,
    kernel_matrix,
    pair_sample,
    squared_increments,
)
from .operators import MassMatrix, StiffnessMatrix
from .spectral import SpectralBasis, canonical_blocks, check_truncation, spectral_coeffs

#: Replications per block when accumulating Monte Carlo statistics.
MC_CHUNK = 50


@dataclass(frozen=True)
class FieldSample:
    """One realization of the field on the vertices of a level graph."""

    level: int
    s: float
    hurst: float
    modes: int
    seed: int
    coefficients: np.ndarray
    values: np.ndarray
    generator: str = "PCG64"


@dataclass(frozen=True)
class CovarianceReport:
    s: float
    modes: int
    replications: int
    npairs: int
    max_abs_z: float
    passed: bool


@dataclass(frozen=True)
class VariogramReport:
    s: float
    h_target: float
    window: tuple
    bin_distances: tuple
    bin_means: tuple
    slope: float
    half_width: float
    replications: int
    mode: str
    npairs: int
    seed: int


@dataclass(frozen=True)
class HoelderReport:
    hurst_claim: float
    deltas: tuple
    values: tuple
    ratio: float
    slope: float
    verdict: str


@dataclass(frozen=True)
class InvarianceReport:
    kind: str
    params: dict
    measured: dict
    tolerances: dict
    passed: bool


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _draw(level, s, seed, n, lam, blocks):
    """The field of len(lam) draws from ``default_rng(seed)`` on the (lo, columns, _) ``blocks`` of modes."""
    coeff = np.random.default_rng(seed).standard_normal(len(lam))
    weights = lam ** (-float(s)) * coeff
    values = np.zeros(n)
    for lo, v, _ in blocks:
        values += v @ weights[lo : lo + v.shape[1]]
    return FieldSample(level=level, s=float(s), hurst=hurst_from_s(s), modes=len(lam), seed=seed,
                       coefficients=coeff, values=values)


def sample_field(basis: SpectralBasis, s, seed, J=None) -> FieldSample:
    """Draw one field realization from a fresh PCG64 stream.

    The J coefficients are consumed in mode order from
    ``default_rng(seed)``, so truncating or extending J preserves the
    leading draws.  J = 0 gives the identically zero field.  Each draw
    multiplies one eigenvector, so the values follow the basis inside each
    degenerate cluster; ``solve_eigen`` fixes that basis canonically, which
    makes a realization a function of (level, s, seed, J) on any machine and
    BLAS thread count, for truncated solves too (see :mod:`gasket_fgf.spectral`).
    """
    check_s(s)
    J = basis.truncation(J)
    return _draw(basis.level, s, seed, basis.dim, basis.lam[:J], [(0, basis.phi[:, :J], None)])


def stream_field(stiffness: StiffnessMatrix, mass: MassMatrix, s, seed, J=None,
                 graph: LevelGraph = None) -> FieldSample:
    """``sample_field(solve_eigen(stiffness, mass, J, graph=graph), s, seed)``, without the n x J basis.

    The same draws from ``default_rng(seed)`` weight the same canonical
    modes, but each block of :func:`~gasket_fgf.spectral.canonical_blocks`
    is added into the field as it is formed and then dropped, so the memory
    check counts the stream and the field, not a basis.  The values agree
    with ``sample_field`` to rounding.  J is read as ``sample_field`` reads
    it (None is every mode); J = 0 gives the identically zero field and
    solves nothing.
    """
    check_s(s)
    n = stiffness.dim
    J = check_truncation(J, n - 1)
    lam, blocks = np.empty(0), ()
    if J:
        _, lam, _, blocks = canonical_blocks(stiffness, mass, J, 8 * (n + 2 * J), graph=graph)
    return _draw(stiffness.level, s, seed, n, lam, blocks)


def pinned_field(sample: FieldSample, q=0) -> FieldSample:
    """The same realization pinned to zero at vertex q (default corner q_0).

    Post-processing subtraction X(x) - X(q); the result is no longer
    mean-zero, it vanishes at q instead.  Raises ValueError for q outside
    [0, n - 1].
    """
    if not 0 <= q < len(sample.values):
        raise ValueError(f"pinned vertex must lie in [0, {len(sample.values) - 1}], not {q}")
    return dataclasses.replace(sample, values=sample.values - sample.values[q])


def white_noise_pairing(sample: FieldSample, basis: SpectralBasis, f, s=None):
    """Both sides of the duality <(-Delta)^s f, X>_M = <f, W>.

    f is first M-projected onto span{Phi_1..Phi_J}.  Returns (lhs, rhs)
    where lhs pairs the fractional Laplacian of f against the field values
    and rhs pairs the f-coefficients against the very noise draws that made
    the sample; they agree to rounding error, which is the discrete content
    of the white-noise identity.
    """
    if s is None:
        s = sample.s
    elif float(s) != sample.s:
        raise ValueError("s must match the s the sample was drawn with")
    J = sample.modes
    f = np.asarray(f, dtype=np.float64)
    coeff = spectral_coeffs(basis, f, J)
    frac = basis.phi[:, :J] @ (basis.lam[:J] ** float(s) * coeff)
    lhs = float(frac @ (basis.mass * sample.values))
    rhs = float(coeff @ sample.coefficients)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Monte Carlo statistics
# ---------------------------------------------------------------------------


def _mc_blocks(basis, s, seeds, J, verts=slice(None)):
    """Field values at ``verts``, one column per seed, MC_CHUNK seeds per block.

    Each block is vertices x replications and C-contiguous, so the values at
    one vertex are one contiguous row and a gather of vertices copies whole
    rows.  Column r holds, to rounding, the realization that
    ``sample_field(basis, s, seeds[r], J)`` draws, restricted to the chosen
    vertices.  The product is formed with one row per seed and then
    transposed, so the values are bit for bit those of that seed-major product.
    """
    phi = basis.phi[verts, :J]
    scale = basis.lam[:J] ** (-float(s))
    block = np.empty((MC_CHUNK, J))
    for lo in range(0, len(seeds), MC_CHUNK):
        chunk = seeds[lo : lo + MC_CHUNK]
        for r, sd in enumerate(chunk):
            block[r] = np.random.default_rng(sd).standard_normal(J)
        yield np.ascontiguousarray(((block[: len(chunk)] * scale) @ phi.T).T)


def _mc_increments(basis, s, seeds, J, iu, ju):
    """Monte Carlo mean of (X(x) - X(y))^2 over ``seeds`` at the pairs (iu, ju)."""
    acc = np.zeros(len(iu))
    for x in _mc_blocks(basis, s, seeds, J):
        d = x[iu]  # one row per pair: all replications of the block
        d -= x[ju]
        d *= d
        acc += d.sum(axis=1)
    return acc / len(seeds)


def empirical_covariance(basis: SpectralBasis, s, seeds, pairs, J=None) -> CovarianceReport:
    """Monte Carlo covariance at given vertex pairs vs the exact kernel.

    One independent generator per replication (pass e.g. the children of a
    ``SeedSequence`` or a list of integers).  The max standardized error
    max |emp - exact| / se must stay below 5 for a healthy sampler.
    """
    check_s(s)
    J = basis.truncation(J)
    seeds = list(seeds)
    R = len(seeds)
    if R < 1000:
        raise ValueError("at least 1000 replications are required")
    pairs = np.asarray(pairs, dtype=np.int64)
    # both the Monte Carlo values and the exact kernel are needed only at
    # the vertices the pairs touch: G_2s(x, y) = sum_j lambda_j^{-2s} Phi_j(x) Phi_j(y)
    verts, local = np.unique(pairs, return_inverse=True)
    ia, ja = local.reshape(pairs.shape).T
    prod = np.concatenate([x[ia] * x[ja] for x in _mc_blocks(basis, s, seeds, J, verts)], axis=1)
    rows = basis.phi[verts, :J]
    exact = ((rows[ia] * basis.lam[:J] ** (-2.0 * s)) * rows[ja]).sum(axis=1)
    se = prod.std(axis=1, ddof=1) / np.sqrt(R)
    z = (prod.mean(axis=1) - exact) / se
    max_abs_z = float(np.abs(z).max())
    return CovarianceReport(
        s=float(s),
        modes=J,
        replications=R,
        npairs=len(pairs),
        max_abs_z=max_abs_z,
        passed=bool(max_abs_z <= 5.0),
    )


def variogram(
    basis: SpectralBasis,
    s,
    seeds=None,
    window=FIT_WINDOW,
    nbins=12,
    mode="exact",
    J=None,
    npairs=DEFAULT_PAIR_COUNT,
    pair_seed=DEFAULT_PAIR_SEED,
) -> VariogramReport:
    """Log-log slope of the mean squared increment against distance.

    The default mode regresses the *exact* second moments
    E (X(x)-X(y))^2 = sum_j lambda_j^{-2s} (Phi_j(x)-Phi_j(y))^2 (no
    sampling noise); mode='mc' replaces them with Monte Carlo averages over
    ``seeds`` to validate the sampler end-to-end.  Expected slope 2H.
    Bins left with a single pair are dropped with a warning.
    """
    check_s(s)
    J = basis.truncation(J)
    lo, hi = window
    m = basis.graph.level
    if not (2.0 ** -(m + 1) <= lo < hi <= 2.0 ** -2 * (1 + 1e-12)):
        raise ValueError(f"window must lie inside [2^-{m + 1}, 2^-2]")
    if hi / lo < 8.0 * (1 - 1e-12):
        raise ValueError("window must span at least three octaves of distance")
    iu, ju, dp = pair_sample(basis.graph, npairs, pair_seed)

    if mode == "exact":
        d2 = squared_increments(basis, s, iu, ju, J)
        replications = 0
    elif mode == "mc":
        seeds = [] if seeds is None else list(seeds)
        if not seeds:
            raise ValueError("mc mode needs a list of replication seeds")
        replications = len(seeds)
        keep = (dp >= lo) & (dp <= hi)
        iu, ju, dp = iu[keep], ju[keep], dp[keep]
        d2 = _mc_increments(basis, s, seeds, J, iu, ju)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    xs, ys, dropped = binned_points(dp, d2, window, nbins, agg="mean")
    if dropped:
        warnings.warn(f"{dropped} distance bin(s) had < 2 pairs and were dropped")
    slope, intercept = np.polyfit(xs, ys, 1)
    k = len(xs)
    resid = ys - (slope * xs + intercept)
    if k > 2:
        se = np.sqrt((resid @ resid) / (k - 2) / ((xs - xs.mean()) ** 2).sum())
    else:
        se = float("nan")
    return VariogramReport(
        s=float(s),
        h_target=hurst_from_s(s),
        window=(float(lo), float(hi)),
        bin_distances=tuple(np.exp(xs)),
        bin_means=tuple(np.exp(ys)),
        slope=float(slope),
        half_width=float(1.96 * se),
        replications=replications,
        mode=mode,
        npairs=len(dp),
        seed=int(pair_seed),
    )


def hoelder_statistic(
    sample: FieldSample,
    graph: LevelGraph,
    hurst_claim,
    deltas=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5),
) -> HoelderReport:
    """Sup of |X(x)-X(y)| / (d^H sqrt|ln d|) over dyadic distance annuli.

    For each delta the sup runs over pairs with delta/2 < d <= delta.  At
    the true H the statistic stays of one order of magnitude as delta
    shrinks; claiming a larger H makes it grow.  Diagnostic only -- the
    verdict thresholds are calibration values, not theorem constants.
    """
    deltas = tuple(float(d) for d in deltas)
    if any(not 0.0 < d < 1.0 / np.e for d in deltas):
        raise ValueError("every delta must lie in (0, 1/e)")
    pts = graph.points
    # only pairs within the largest annulus count: a k-d tree lists them, not all O(n^2)
    iu, ju = cKDTree(pts).query_pairs(max(deltas) * (1 + 1e-9), output_type="ndarray").T
    dp = np.linalg.norm(pts[iu] - pts[ju], axis=1)
    dx = np.abs(sample.values[iu] - sample.values[ju])
    values = []
    for d in deltas:
        msk = (dp > d / 2.0) & (dp <= d)
        if msk.any():
            w = dp[msk] ** float(hurst_claim) * np.sqrt(np.abs(np.log(dp[msk])))
            values.append(float((dx[msk] / w).max()))
        else:
            values.append(float("nan"))
    values = tuple(values)
    order = np.argsort(deltas)
    small, large = order[0], order[-1]
    ratio = values[small] / values[large] if values[large] else float("nan")
    ok = [k for k in range(len(deltas)) if np.isfinite(values[k]) and values[k] > 0]
    if len(ok) >= 2:
        slope = float(np.polyfit(np.log(np.array(deltas)[ok]), np.log(np.array(values)[ok]), 1)[0])
    else:
        slope = float("nan")
    if not np.isfinite(ratio):
        verdict = "inconclusive"  # some annulus held no pairs at this level
    elif ratio <= 2.0:
        verdict = "bounded"
    else:
        verdict = "diverging"
    return HoelderReport(
        hurst_claim=float(hurst_claim),
        deltas=deltas,
        values=values,
        ratio=float(ratio),
        slope=slope,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# invariance checks
# ---------------------------------------------------------------------------


def symmetry_invariance_test(basis: SpectralBasis, s, sym: SymmetryMap, J=None) -> InvarianceReport:
    """Covariance-level reflection invariance G_{2s}(sigma x, sigma y) = G_{2s}(x, y).

    Gaussian laws are determined by their covariances, so this is the whole
    distributional statement; the kernels are compared after trimming J to a
    cluster boundary so the comparison is basis-independent.  Also reports
    the corner-variance spread (the three boundary vertices must share one
    variance).
    """
    check_s(s)
    J = basis.cluster_complete(basis.truncation(J))
    c = kernel_matrix(basis, 2.0 * s, J)
    p = sym.permutation
    deviation = float(np.abs(c[np.ix_(p, p)] - c).max())
    corner_spread = float(np.ptp(np.diag(c)[:3]))
    tol = 1e-8
    return InvarianceReport(
        kind="symmetry",
        params={"s": float(s), "reflection": sym.index, "J": J},
        measured={"kernel_deviation": deviation, "corner_variance_spread": corner_spread},
        tolerances={"kernel_deviation": tol, "corner_variance_spread": tol},
        passed=bool(deviation <= tol and corner_spread <= tol),
    )


def scaling_invariance_test(
    basis_ref: SpectralBasis,
    basis_sub: SpectralBasis,
    s,
    word=None,
    j_max=20,
) -> InvarianceReport:
    """Renormalization covariance of the field under the cell maps F_w.

    For |w| = n the sub-gasket eigenproblem reproduces the reference
    spectrum scaled by 5^n, and its covariance satisfies
    G^w_{2s}(F_w x, F_w y) = 2^{-2nH} G_{2s}(x, y).  Eigenvalues are checked
    for j < j_max (1% tolerance); kernels entry-wise within 2% on
    low-mode-dominated pairs (|G_{2s}| above its 75th percentile), at a
    common cluster-complete truncation.
    """
    check_s(s)
    word = basis_sub.graph.word if word is None else tuple(word)
    n = len(word)
    if basis_sub.level != basis_ref.level + n:
        raise ValueError(
            f"incompatible levels: sub-basis level {basis_sub.level} != "
            f"reference level {basis_ref.level} + |word| {n}"
        )
    h = hurst_from_s(s)
    lam_tol, ker_tol = 0.01, 0.02
    jj = min(j_max, basis_ref.count, basis_sub.count)
    lam_dev = float(np.abs(basis_sub.lam[:jj] / (5.0 ** n * basis_ref.lam[:jj]) - 1.0).max())

    J = min(basis_ref.count, basis_sub.count)
    J = basis_ref.cluster_complete(J)
    J = basis_sub.cluster_complete(J)
    c_ref = kernel_matrix(basis_ref, 2.0 * s, J)
    c_sub = kernel_matrix(basis_sub, 2.0 * s, J)
    idx = embed_indices(basis_ref.graph, basis_sub.graph)
    mapped = c_sub[np.ix_(idx, idx)] * 2.0 ** (2.0 * n * h)
    thr = np.quantile(np.abs(c_ref), 0.75)
    msk = np.abs(c_ref) >= thr
    ker_dev = float((np.abs(mapped - c_ref)[msk] / np.abs(c_ref)[msk]).max())

    return InvarianceReport(
        kind="scaling",
        params={"s": float(s), "word": list(word), "j_max": jj, "J": int(J),
                "covariance_ratio": 2.0 ** (-2.0 * n * h)},
        measured={"eigenvalue_deviation": lam_dev, "kernel_deviation": ker_dev},
        tolerances={"eigenvalue_deviation": lam_tol, "kernel_deviation": ker_tol},
        passed=bool(lam_dev <= lam_tol and ker_dev <= ker_tol),
    )
