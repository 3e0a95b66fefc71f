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

from .constants import check_s, hurst_from_s
from .geometry import LevelGraph, SymmetryMap, embed_indices
from .kernels import (
    DEFAULT_PAIR_SEED,
    FIT_WINDOW,
    _increment_fit,
    _probes,
    binned_loglog_fit,
    kernel_matrix,
    pair_sample,
    spectral_apply,
)
from .operators import MassMatrix, StiffnessMatrix
from .spectral import SpectralBasis, canonical_eigenspaces, check_truncation

#: Replications per block when accumulating Monte Carlo statistics.
MC_CHUNK = 50

#: Vertex pairs per tile of a Monte Carlo increment block.
MC_PAIR_TILE = 1024

#: Candidate vertex pairs per tile of the Hoelder statistic.
HOELDER_TILE = 2 ** 14

#: Buckets per search radius, a side, in the Hoelder statistic's pair search.
HOELDER_BUCKETS = 3


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


def _draw(level, s, seed, lam, field):
    """The field ``field(weights)`` of len(lam) draws from ``default_rng(seed)``, weights lam^{-s} N."""
    coeff = np.random.default_rng(seed).standard_normal(len(lam))
    values = field(lam ** (-float(s)) * coeff)
    return FieldSample(level=level, s=float(s), hurst=hurst_from_s(s), modes=len(lam), seed=seed,
                       coefficients=coeff, values=values)


def sample_field(basis: SpectralBasis, s, seed, J=None) -> FieldSample:
    """Draw one field realization from a fresh PCG64 stream.

    The J coefficients are consumed in mode order from
    ``default_rng(seed)``, so truncating or extending J preserves the
    leading draws.  J = 0 gives the identically zero field.  Each draw
    multiplies one eigenvector, so the values follow the basis inside each
    degenerate eigenspace; ``solve_eigen`` builds that basis deterministically
    (the M-Gram-Schmidt of the constructed eigenspace in its birth factor's
    order, see :mod:`gasket_fgf.spectral`), which makes a realization a
    function of (level, s, seed, J) on any machine and BLAS thread count,
    for truncated solves too.
    """
    check_s(s)
    J = basis.truncation(J)
    return _draw(basis.level, s, seed, basis.lam[:J], lambda w: basis.phi[:, :J] @ w)


def stream_field(stiffness: StiffnessMatrix, mass: MassMatrix, s, seed, J=None,
                 graph: LevelGraph = None) -> FieldSample:
    """``sample_field(solve_eigen(stiffness, mass, J, graph=graph), s, seed)``, without the n x J basis.

    The same draws from ``default_rng(seed)`` weight the same canonical
    modes, but each eigenspace of
    :func:`~gasket_fgf.spectral.canonical_eigenspaces` adds its whole term
    x_c = sum_j lambda_c^{-s} N_j Phi_j into the field at once and is then
    dropped: the weights of all kept eigenspaces born together go through
    one sparse triangular solve at their birth level, and each term is
    pushed up from there as one column, depth-first, and scaled by its own
    M-norm and residual-checked relative to lambda_c ||x_c||_M at the top.
    So the memory check counts the columns along one path and the field,
    not a basis.  The values agree with ``sample_field`` to rounding.  J is
    read as ``sample_field`` reads it (None is every mode); J = 0 gives the
    identically zero field and solves nothing.
    """
    check_s(s)
    n = stiffness.dim
    J = check_truncation(J, n - 1)
    lam, columns, weights = np.empty(0), (), np.empty(J)
    if J:  # the stream reads the weights as it runs, after the draw has filled them
        _, lam, _, columns = canonical_eigenspaces(stiffness, mass, J, 8 * (n + 3 * J), weights, graph=graph)

    def field(w):
        weights[:] = w
        values = np.zeros(n)
        for _, v, _ in columns:
            values += v[:, 0]
        return values

    return _draw(stiffness.level, s, seed, lam, field)


def pinned_field(sample: FieldSample, q=0) -> FieldSample:
    """The same realization pinned to zero at vertex q (default corner q_0).

    Post-processing subtraction X(x) - X(q); the result is no longer
    mean-zero, it vanishes at q instead.  Raises ValueError for q outside
    [0, n - 1].
    """
    if not 0 <= q < len(sample.values):
        raise ValueError(f"pinned vertex must lie in [0, {len(sample.values) - 1}], not {q}")
    return dataclasses.replace(sample, values=sample.values - sample.values[q])


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
    """Monte Carlo mean of (X(x) - X(y))^2 over ``seeds`` at the pairs (iu, ju).

    Each block is read ``MC_PAIR_TILE`` pairs at a time: a tile gathers the
    rows of its pairs, one row per pair holding all replications of the
    block, and adds each row's sum of squared differences into that pair's
    total.  So the temporaries are a tile, not every pair times a block, and
    each pair's sum is the same row sum whatever the tile size.
    """
    acc = np.zeros(len(iu))
    for x in _mc_blocks(basis, s, seeds, J):
        for lo in range(0, len(iu), MC_PAIR_TILE):
            tile = slice(lo, lo + MC_PAIR_TILE)
            d = x[iu[tile]]
            d -= x[ju[tile]]
            d *= d
            acc[tile] += d.sum(axis=1)
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
    diff = prod.mean(axis=1) - exact
    # at J = 0 the zero field matches the zero kernel exactly, with zero spread
    z = np.divide(diff, se, out=np.zeros_like(diff), where=diff != 0)
    max_abs_z = float(np.abs(z).max())
    return CovarianceReport(
        s=float(s),
        modes=J,
        replications=R,
        npairs=len(pairs),
        max_abs_z=max_abs_z,
        passed=bool(max_abs_z <= 5.0),
    )


def variogram(basis: SpectralBasis, s, seeds=None, mode="exact", J=None) -> VariogramReport:
    """Log-log slope of the mean squared increment against distance.

    The default mode regresses the *exact* second moments
    E (X(x)-X(y))^2 = sum_j lambda_j^{-2s} (Phi_j(x)-Phi_j(y))^2 (no
    sampling noise) over :func:`~gasket_fgf.kernels.pair_sample` and
    ``FIT_WINDOW`` = [2^-5, 2^-2], the same fit whose slope
    :func:`~gasket_fgf.kernels.increment_l2_check` reports; mode='mc'
    replaces them with Monte Carlo averages over ``seeds``, at the sampled
    pairs inside the window, to validate the sampler end-to-end.  Expected
    slope 2H.  The window starts at the level-4 mesh, so coarser bases are
    refused.  Bins left with a single pair are dropped with a warning.
    """
    check_s(s)
    J = basis.truncation(J)
    lo, hi = FIT_WINDOW
    if basis.graph.level < 4:
        raise ValueError(f"the fit window [2^-5, 2^-2] needs a level >= 4, not {basis.graph.level}")

    if mode == "exact":
        npairs, fit = _increment_fit(basis, s, J)
        replications = 0
    elif mode == "mc":
        seeds = [] if seeds is None else list(seeds)
        if not seeds:
            raise ValueError("mc mode needs a list of replication seeds")
        replications = len(seeds)
        iu, ju, dp = pair_sample(basis.graph)
        keep = (dp >= lo) & (dp <= hi)
        npairs = int(keep.sum())
        fit = binned_loglog_fit(dp[keep], _mc_increments(basis, s, seeds, J, iu[keep], ju[keep]))
        if fit.dropped:
            warnings.warn(f"{fit.dropped} distance bin(s) had < 2 pairs and were dropped")
    else:
        raise ValueError(f"unknown mode {mode!r}")

    return VariogramReport(
        s=float(s),
        h_target=hurst_from_s(s),
        window=FIT_WINDOW,
        bin_distances=tuple(np.exp(fit.log_d)),
        bin_means=tuple(np.exp(fit.log_val)),
        slope=fit.slope,
        half_width=float(1.96 * fit.slope_se),
        replications=replications,
        mode=mode,
        npairs=npairs,
        seed=DEFAULT_PAIR_SEED,
    )


def _pairs_within(points, values, r):
    """Distance and |value difference| of every pair of points within r, a tile at a time.

    The points are sorted by square buckets of side r/k (k =
    ``HOELDER_BUCKETS``), column by column, so that the points a point can
    pair with on its right lie in k + 1 runs of the sorted order: the rest
    of its own column up to k buckets above it, and each of the next k
    columns from k buckets below to k above.  A tile takes whole runs until
    it holds about ``HOELDER_TILE`` candidates, so each unordered pair is a
    candidate once and only the sorted copies and the runs outlive a tile.
    Candidates farther than r, up to a rounding slack, are dropped.  A
    distance is sqrt(dx^2 + dy^2), the arithmetic of ``np.linalg.norm`` on
    the difference of the two points.
    """
    k = HOELDER_BUCKETS
    reach = r * (1 + 1e-9)  # a pair at distance r stays within k buckets and is kept despite rounding
    # the floor on the side keeps the bucket keys inside int64 for any small r
    side = max(reach / k, float(np.ptp(points, axis=0).max()) / 2 ** 20)
    cell = np.floor((points - points.min(axis=0)) / side).astype(np.int64)
    rows = int(cell[:, 1].max()) + 2 * k + 1
    key = cell[:, 0] * rows + cell[:, 1] + k
    order = np.argsort(key)
    key, values = key[order], values[order]
    x, y = points[order].T
    first = np.column_stack([np.arange(1, len(key) + 1)]
                            + [np.searchsorted(key, key + c * rows - k) for c in range(1, k + 1)]).ravel()
    length = np.column_stack([np.searchsorted(key, key + c * rows + k, side="right")
                              for c in range(k + 1)]).ravel() - first
    start = np.concatenate([[0], np.cumsum(length)])  # candidate number of each run's first pair
    shift = first - start[:-1]
    cuts = [0, *np.searchsorted(start, np.arange(HOELDER_TILE, start[-1], HOELDER_TILE)), len(length)]
    for a, b in zip(cuts[:-1], cuts[1:]):
        ln = length[a:b]
        i = np.repeat(np.arange(a, b) // (k + 1), ln)
        j = np.repeat(shift[a:b], ln) + np.arange(start[a], start[b])
        dx, dy = x[i] - x[j], y[i] - y[j]
        q = dx * dx + dy * dy
        near = q <= reach * reach
        yield np.sqrt(q[near]), np.abs(values[i[near]] - values[j[near]])


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

    Only pairs within the largest delta count.  They are found by sorting
    the vertices into buckets a fraction of that delta wide and pairing
    neighbouring buckets, and each annulus keeps a running maximum over
    tiles of about ``HOELDER_TILE`` candidate pairs, so the memory is one
    tile and a few integers per vertex, never the list of pairs.  A
    maximum does not depend on the order, so the values are those of the
    full list of pairs.
    """
    deltas = tuple(float(d) for d in deltas)
    if any(not 0.0 < d < 1.0 / np.e for d in deltas):
        raise ValueError("every delta must lie in (0, 1/e)")
    h = float(hurst_claim)
    best = np.full(len(deltas), np.nan)
    for dp, dx in _pairs_within(graph.points, sample.values, max(deltas)):
        for k, d in enumerate(deltas):
            msk = (dp > d / 2.0) & (dp <= d)
            if msk.any():
                w = dp[msk] ** h * np.sqrt(np.abs(np.log(dp[msk])))
                best[k] = np.fmax(best[k], (dx[msk] / w).max())
    values = tuple(float(v) for v in best)
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
    distributional statement; J is trimmed to a cluster boundary, where G
    does not depend on the basis inside degenerate eigenspaces.  With p the
    permutation, the statement is the operator identity P G P^T = G, tested
    on seeded probe columns F: h(F) = G F is the spectral sum applied to
    F / mass, and the deviation is max |h(F[p]) - h(F)[p]|.  Each entry of
    that difference sums one row of the entry deviations G(x, y) - G(px, py)
    against F, so it vanishes for every F exactly when p preserves G.  Also
    reports the corner-variance spread (the three boundary vertices must
    share one variance), read off the 3 x 3 corner block of G.  No n x n
    array is formed.
    """
    check_s(s)
    J = basis.cluster_complete(basis.truncation(J))
    p = np.asarray(sym.permutation)
    f = _probes(basis)
    h = spectral_apply(basis, lambda lam: lam ** (-2.0 * s), np.hstack([f[p], f]) / basis.mass[:, None], J)
    moved, fixed = np.hsplit(h, 2)  # h(F[p]) and h(F), from one pass over the modes
    deviation = float(np.abs(moved - fixed[p]).max())
    corner_spread = float(np.ptp(np.diag(kernel_matrix(basis, 2.0 * s, J, slice(0, 3), slice(0, 3)))))
    tol = 1e-8
    return InvarianceReport(
        kind="symmetry",
        params={"s": float(s), "reflection": sym.index, "J": J},
        measured={"kernel_deviation": deviation, "corner_variance_spread": corner_spread},
        tolerances={"kernel_deviation": tol, "corner_variance_spread": tol},
        passed=bool(deviation <= tol and corner_spread <= tol),
    )


def scaling_invariance_test(basis_ref: SpectralBasis, basis_sub: SpectralBasis, s) -> InvarianceReport:
    """Renormalization covariance of the field under the cell map F_w of ``basis_sub.graph.word``.

    For |w| = n the sub-gasket eigenproblem reproduces the reference
    spectrum scaled by 5^n, and its covariance satisfies
    G^w_{2s}(F_w x, F_w y) = 2^{-2nH} G_{2s}(x, y).  Eigenvalues are checked
    for the first 20 modes (1% tolerance); kernels entry-wise within 2% on
    low-mode-dominated pairs (|G_{2s}| above its 75th percentile), at a
    common cluster-complete truncation.
    """
    check_s(s)
    word = basis_sub.graph.word
    n = len(word)
    if basis_sub.level != basis_ref.level + n:
        raise ValueError(
            f"incompatible levels: sub-basis level {basis_sub.level} != "
            f"reference level {basis_ref.level} + |word| {n}"
        )
    h = hurst_from_s(s)
    lam_tol, ker_tol = 0.01, 0.02
    jj = min(20, basis_ref.count, basis_sub.count)
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
