"""Heat kernel, fractional Riesz kernel, and the operators they generate.

Every operator here is one spectral function of the Laplacian.  With
M-orthonormal modes (lambda_j, Phi_j) of a SpectralBasis, truncated at J
(``SpectralBasis.truncation``), :func:`spectral_apply` maps f, a vector or an
n x p block, to g(-Delta) f = sum_{j=1}^{J} g(lambda_j) <Phi_j, f>_M Phi_j:
the heat semigroup is <f>_M plus g = e^{-lambda t}, G_s is g = lambda^{-s}
and (-Delta)^s is g = lambda^s.  Their kernels

    p_t(x,y)  = Phi_0(x)Phi_0(y) + sum_{j=1}^{J} e^{-lambda_j t} Phi_j(x) Phi_j(y)
    G_s(x,y)  = sum_{j=1}^{J} lambda_j^{-s} Phi_j(x) Phi_j(y)

are formed by :func:`kernel_matrix`, one block of rows and columns at a
time.  The regressions (criteria 6 and 7c, the |G_s| decay bound) read G in
tiles of ``KERNEL_ROW_TILE`` rows, so none of them forms an n x n array;
only the scaling check (8b, whose threshold is a quantile of the whole
matrix) and the ``kernel`` artifact take the whole matrix as one block.
Identities like the semigroup law, G_{2s} = G_s o G_s, the inverse pair
G_s o (-Delta)^s = id and reflection invariance P G_{2s} P^T = G_{2s} hold
to rounding error *by construction* on a truncated span that is whole
eigenspaces, so a few seeded random vectors (:func:`_probes`) test them,
and p_t - 1 is positive semidefinite, so by Cauchy-Schwarz its largest entry
lies on the diagonal.  The on-diagonal law reads the eigenvalues alone,
through the heat trace 1 + sum_j e^{-lambda_j t} (:func:`heat_trace`), so
its fits take a sorted eigenvalue array such as ``spectrum(level)`` and run
at levels where no basis fits in memory.  The genuinely quantitative parts
are the regression-style estimates (kernel decay, increment slopes), where
only a finite window of distances is available: those functions report
fitted exponents with their residuals and tail variances so the truncation
error stays attributable.

The time-integral route G_s = (1/Gamma(s)) int_0^inf t^{s-1}(p_t - 1) dt is
implemented only as a quadrature cross-check of the spectral sum.
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .constants import HAUSDORFF_DIM, S_MIN, SPECTRAL_EXPONENT, WALK_DIM, check_s
from .spectral import SpectralBasis, spectral_coeffs, tail_variance

#: Distance window of the exponent regressions (dyadic, inside (0, diam]).
FIT_WINDOW = (2.0 ** -5, 2.0 ** -2)

#: Rows of G per tile when a kernel is read at vertex pairs.
KERNEL_ROW_TILE = 128

#: Pair-sampling policy: every pair up to this many, a seeded subsample beyond.
DEFAULT_PAIR_COUNT = 100_000
DEFAULT_PAIR_SEED = 2024


@dataclass(frozen=True)
class KernelEstimateReport:
    """Outcome of one kernel-decay regression (power / log / bounded regime)."""

    s: float
    regime: str
    window: tuple
    fitted_exponent: float
    bound_exponent: float
    within_bound: bool
    constant: float
    residual: float
    tail_variance: float
    seed: int
    npairs: int
    nbins: int


@dataclass(frozen=True)
class IncrementReport:
    """Fitted exponent of the squared-increment functional of G_s."""

    s: float
    slope: float
    floor: float
    passed: bool
    window: tuple
    residual: float
    tail_variance: float
    seed: int
    npairs: int


# ---------------------------------------------------------------------------
# spectral functions and the heat kernel
# ---------------------------------------------------------------------------


def spectral_apply(basis: SpectralBasis, g, f, J=None):
    """g(-Delta) f = sum_{j=1}^{J} g(lambda_j) <Phi_j, f>_M Phi_j, for a vector f or each column of a block.

    ``g`` maps an array of eigenvalues to weights.  The constant mode is not
    a term, so the result is M-orthogonal to constants.
    """
    J = basis.truncation(J)
    coeffs = spectral_coeffs(basis, f, J)
    return basis.phi[:, :J] @ (g(basis.lam[:J]) * coeffs.T).T


def _probes(basis: SpectralBasis):
    """Eight seeded standard normal columns, n x 8: operators that differ, differ on them almost surely."""
    return np.random.default_rng(5).standard_normal((basis.dim, 8))


def heat_trace(lam, t):
    """mu-averaged on-diagonal value sum_x p_t(x,x) M(x) = 1 + sum_j e^{-lambda_j t} of eigenvalues ``lam``."""
    if t <= 0:
        raise ValueError("t must be positive")
    return float(1.0 + np.exp(-np.asarray(lam, dtype=np.float64) * t).sum())


def ondiagonal_fit(lam, window=(2.0 ** -10, 2.0 ** -2)):
    """Log-log slope of t -> :func:`heat_trace` of the sorted eigenvalues ``lam`` over a dyadic window.

    The trace is read at 25 log-spaced times.  The sub-Gaussian regime
    predicts slope -d_h/d_w = -0.6826; at desk scale the window must stay
    below ~1/lambda_1 or the fit drifts toward the large-t plateau.
    Returns (slope, intercept).
    """
    lo, hi = window
    if not 0 < lo < hi:
        raise ValueError("window must satisfy 0 < lo < hi")
    ts = np.logspace(np.log10(lo), np.log10(hi), 25)
    z = np.array([heat_trace(lam, t) for t in ts])
    slope, intercept = np.polyfit(np.log(ts), np.log(z), 1)
    return float(slope), float(intercept)


def ondiagonal_constants(lam):
    """Two-sided constants (c, C) with c t^{-a} <= heat trace <= C t^{-a}, a = d_h/d_w.

    The trace is read at 40 log-spaced times in [2^-10, 1].
    """
    ts = np.logspace(np.log10(2.0 ** -10), 0.0, 40)
    z = np.array([heat_trace(lam, t) for t in ts])
    ratio = z * ts ** SPECTRAL_EXPONENT
    return float(ratio.min()), float(ratio.max())


# ---------------------------------------------------------------------------
# Riesz kernel
# ---------------------------------------------------------------------------


def kernel_matrix(basis: SpectralBasis, exponent, J=None, rows=slice(None), cols=slice(None)):
    """The block G[rows, cols] of sum_{j=1}^{J} lambda_j^{-exponent} Phi_j Phi_j^T; by default all of it.

    ``rows`` and ``cols`` index vertices (slices or integer arrays).
    Entry-wise comparisons between different bases need J at a cluster
    boundary (``basis.cluster_complete``), where the matrix does not depend
    on the basis inside degenerate eigenspaces.
    """
    J = basis.truncation(J)
    phi = basis.phi[:, :J]
    return (phi[rows] * basis.lam[:J] ** (-float(exponent))) @ phi[cols].T


def _pair_kernel(basis: SpectralBasis, exponent, J, iu, ju):
    """(G[iu, ju], diag G) of :func:`kernel_matrix`, ``KERNEL_ROW_TILE`` rows of the upper triangle at a time.

    The pairs must be sorted by ``iu`` with ``iu < ju``, as
    :func:`pair_sample` gives them, so each tile's pairs are one run of the
    arrays.  A tile is G[a:b, a:], so the memory is a tile, never n x n.
    """
    iu, ju = np.asarray(iu), np.asarray(ju)
    if np.any(iu >= ju) or np.any(iu[1:] < iu[:-1]):
        raise ValueError("pairs must be sorted by iu with iu < ju")
    n = basis.dim
    vals, diag = np.empty(len(iu)), np.empty(n)
    starts = range(0, n, KERNEL_ROW_TILE)
    cuts = np.searchsorted(iu, [*starts, n])
    for k, a in enumerate(starts):
        blk = kernel_matrix(basis, exponent, J, slice(a, a + KERNEL_ROW_TILE), slice(a, None))
        diag[a : a + len(blk)] = np.diagonal(blk)
        run = slice(cuts[k], cuts[k + 1])
        vals[run] = blk[iu[run] - a, ju[run] - a]
    return vals, diag


def riesz_value_quadrature(basis: SpectralBasis, s, x, y, J=None):
    """G_s(x, y) via (1/Gamma(s)) int_0^inf t^{s-1} (p_t(x,y) - 1) dt.

    Independent cross-check of the spectral sum: adaptive quadrature on
    [0, T], T = 20 / lambda_1, after the substitution v = t^s (which
    removes the t^{s-1} endpoint singularity), plus the analytic
    upper-incomplete-gamma tail sum_j lambda_j^{-s} Q(s, lambda_j T)
    Phi_j(x) Phi_j(y) beyond T.
    """
    from scipy.integrate import quad  # about 0.2 s of import that only this check needs
    from scipy.special import gamma, gammaincc

    if s <= 0:
        raise ValueError("s must be positive")
    J = basis.truncation(J)
    lam = basis.lam[:J]
    T = 20.0 / basis.lam[0]
    pij = basis.phi[x, :J] * basis.phi[y, :J]

    def integrand(v):
        return float(np.exp(-lam * v ** (1.0 / s)) @ pij)

    head, _ = quad(integrand, 0.0, T ** s, limit=300, epsabs=1e-13, epsrel=1e-12)
    head /= s * gamma(s)
    tail = float((lam ** (-s) * gammaincc(s, lam * T)) @ pij)
    return head + tail


# ---------------------------------------------------------------------------
# pair sampling and binned regressions
# ---------------------------------------------------------------------------


def unrank_pairs(n, flat):
    """The pairs (i, j), i < j, at positions ``flat`` of ``np.triu_indices(n, 1)``.

    Row i of the upper triangle holds n - 1 - i pairs; the row of a flat
    index is found from the cumulative row lengths, so no O(n^2) index
    array is built.
    """
    ends = np.cumsum(np.arange(n - 1, 0, -1))
    i = np.searchsorted(ends, flat, side="right")
    return i, flat - ends[i] + n


def squared_increments(basis: SpectralBasis, s, iu, ju, J):
    """E (X(x) - X(y))^2 = G_2s(x,x) + G_2s(y,y) - 2 G_2s(x,y) at pairs (iu, ju) sorted as :func:`pair_sample`'s."""
    g, diag = _pair_kernel(basis, 2.0 * s, J, iu, ju)
    return diag[iu] + diag[ju] - 2.0 * g


@lru_cache(maxsize=4)
def pair_sample(graph):
    """Vertex pairs (i, j, distance) for the regressions.

    Every distinct pair when the graph has at most ``DEFAULT_PAIR_COUNT``
    of them; otherwise a uniform subsample of that many without
    replacement, drawn from ``default_rng(DEFAULT_PAIR_SEED)``.  Either way
    the pairs come in the order of ``np.triu_indices``, sorted by i with
    i < j, which :func:`_pair_kernel` needs.  The sample is a function of
    the graph, so the last few are cached and every caller
    gets the same read-only arrays.
    """
    n = len(graph)
    total = n * (n - 1) // 2
    if total > DEFAULT_PAIR_COUNT:
        flat = np.sort(np.random.default_rng(DEFAULT_PAIR_SEED).choice(total, DEFAULT_PAIR_COUNT, replace=False))
    else:
        flat = np.arange(total)
    iu, ju = unrank_pairs(n, flat)
    pts = graph.points
    d = np.linalg.norm(pts[iu] - pts[ju], axis=1)
    for a in (iu, ju, d):
        a.setflags(write=False)
    return iu, ju, d


def binned_points(dists, vals, window=FIT_WINDOW, agg="mean"):
    """Reduce a (distance, value) scatter to one point per log-distance bin.

    Pairs are bucketed into 12 equal bins of log-distance over ``window``;
    each bin with >= 2 points contributes one point.
    agg='mean' takes the log of the arithmetic bin average at the mean
    log-distance (the moment estimators want this); agg='max' takes the bin
    envelope anchored at the maximizing pair (upper-bound estimators want
    that).  Returns (log_d, log_val, nbins_dropped) with bins holding a
    single pair dropped and counted.
    """
    lo, hi = window
    if not 0 < lo < hi:
        raise ValueError("window must satisfy 0 < lo < hi")
    dists = np.asarray(dists, dtype=np.float64)
    vals = np.asarray(vals, dtype=np.float64)
    msk = (dists >= lo) & (dists <= hi) & (vals > 0)
    if not msk.any():
        raise ValueError("fit window is empty")
    x, v = np.log(dists[msk]), np.log(vals[msk])
    nbins = 12
    edges = np.linspace(np.log(lo) - 1e-12, np.log(hi) + 1e-12, nbins + 1)
    which = np.digitize(x, edges) - 1
    xs, ys = [], []
    dropped = 0
    for b in range(nbins):
        sel = which == b
        if sel.sum() >= 2:
            if agg == "max":
                k = int(np.argmax(v[sel]))
                xs.append(float(x[sel][k]))
                ys.append(float(v[sel].max()))
            elif agg == "mean":
                xs.append(float(x[sel].mean()))
                ys.append(float(np.log(np.exp(v[sel]).mean())))
            else:
                raise ValueError(f"unknown agg {agg!r}")
        elif sel.any():
            dropped += 1
    if len(xs) < 2:
        raise ValueError("fit window is empty after binning")
    return np.array(xs), np.array(ys), dropped


class BinnedFit(NamedTuple):
    """A least-squares line through binned log-log points (:func:`binned_loglog_fit`)."""

    slope: float
    intercept: float
    residual: float  # rms over the bins
    slope_se: float  # standard error of the slope; nan with only two bins
    log_d: np.ndarray
    log_val: np.ndarray
    dropped: int  # bins holding a single pair


def binned_loglog_fit(dists, vals, window=FIT_WINDOW, agg="mean") -> BinnedFit:
    """Least squares through the :func:`binned_points` reduction."""
    xs, ys, dropped = binned_points(dists, vals, window, agg)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    k = len(xs)
    se = np.sqrt((resid @ resid) / (k - 2) / ((xs - xs.mean()) ** 2).sum()) if k > 2 else np.nan
    return BinnedFit(float(slope), float(intercept), float(np.sqrt(np.mean(resid ** 2))), float(se),
                     xs, ys, dropped)


def _increment_fit(basis: SpectralBasis, s, J):
    """(pairs, fit): the mean-binned :func:`binned_loglog_fit` of the exact squared increments of G_2s.

    The one regression behind ``variogram(mode='exact')`` and
    :func:`increment_l2_check`, over :func:`pair_sample` and ``FIT_WINDOW``;
    bins left with a single pair are dropped with a warning.
    """
    iu, ju, dp = pair_sample(basis.graph)
    fit = binned_loglog_fit(dp, squared_increments(basis, s, iu, ju, J))
    if fit.dropped:
        warnings.warn(f"{fit.dropped} distance bin(s) had < 2 pairs and were dropped")
    return len(iu), fit


def _resolve_regime(s):
    gap = s * WALK_DIM - HAUSDORFF_DIM
    if abs(gap) <= 1e-9:
        return "log"
    return "power" if gap < 0 else "bounded"


def estimate_bound_fit(basis: SpectralBasis, s, J=None) -> KernelEstimateReport:
    """Regress the decay of |G_s| against distance and compare to its bound.

    The regime follows from s alone:
      power   (s d_w < d_h): |G_s| <~ d^{-(d_h - s d_w)}; envelope fit of
              log|G_s| vs log d, fitted exponent = -slope.
      log     (s d_w = d_h): |G_s| <~ |ln d|; fit on ln|ln d| abscissa
              (bound exponent 1), constant = max |G_s|/|ln d|.
      bounded (s d_w > d_h): |G_s| <~ C; bound exponent 0.
    The pairs are :func:`pair_sample`'s inside ``FIT_WINDOW``, binned into
    12 bins.  ``within_bound`` records fitted <= bound + 0.1.  At desk-scale
    levels the power/bounded fits sit above their asymptotic bounds (the fit
    window is not yet in the scaling regime and the truncated tail inflates
    short distances); the report states this honestly rather than widening
    bands.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    lo, hi = FIT_WINDOW
    regime = _resolve_regime(s)
    J = basis.truncation(J)
    iu, ju, dp = pair_sample(basis.graph)
    vals = np.abs(_pair_kernel(basis, s, J, iu, ju)[0])
    keep = (dp >= lo) & (dp <= hi) & (vals > 0)
    if not keep.any():
        raise ValueError("fit window is empty")

    if regime == "log":
        # the modulus has no power law; regress on the ln|ln d| axis instead
        lnd = np.abs(np.log(dp[keep]))
        fit = binned_loglog_fit(lnd, vals[keep], (lnd.min(), lnd.max()), agg="max")
        fitted = fit.slope
        bound = 1.0
        constant = float((vals[keep] / lnd).max())
    else:
        fit = binned_loglog_fit(dp, vals, agg="max")
        fitted = -fit.slope
        if regime == "power":
            bound = HAUSDORFF_DIM - s * WALK_DIM
            constant = float((vals[keep] * dp[keep] ** bound).max())
        else:
            bound = 0.0
            constant = float(vals[keep].max())

    return KernelEstimateReport(
        s=float(s),
        regime=regime,
        window=FIT_WINDOW,
        fitted_exponent=float(fitted),
        bound_exponent=float(bound),
        within_bound=bool(fitted <= bound + 0.1),
        constant=constant,
        residual=fit.residual,
        tail_variance=tail_variance(basis, s, J) if s > S_MIN else float("nan"),
        seed=DEFAULT_PAIR_SEED,
        npairs=len(iu),
        nbins=len(fit.log_d),
    )


def increment_l2_check(basis: SpectralBasis, s, J=None) -> IncrementReport:
    """Fit the exponent of D(x,y) = sum_j lambda_j^{-2s} (Phi_j(x)-Phi_j(y))^2.

    D is the squared L2 increment of G_s(x, .), the quantity whose
    d^{2 s d_w - d_h} bound drives the field's Hoelder regularity; the
    fitted log-log slope must clear that exponent minus a 0.2 allowance.
    The fit, over ``FIT_WINDOW``, is the one ``variogram(mode='exact')``
    reports as its slope.
    """
    check_s(s)
    J = basis.truncation(J)
    npairs, fit = _increment_fit(basis, s, J)
    floor = 2.0 * s * WALK_DIM - HAUSDORFF_DIM - 0.2
    return IncrementReport(
        s=float(s),
        slope=fit.slope,
        floor=float(floor),
        passed=bool(fit.slope >= floor),
        window=FIT_WINDOW,
        residual=fit.residual,
        tail_variance=tail_variance(basis, s, J),
        seed=DEFAULT_PAIR_SEED,
        npairs=npairs,
    )
