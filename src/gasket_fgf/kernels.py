"""Heat kernel, fractional Riesz kernel, and the operators they generate.

Every kernel is a plain function of the spectrum.  With M-orthonormal modes
(lambda_j, Phi_j) of a SpectralBasis, truncated at J
(``SpectralBasis.truncation``),

    p_t(x,y)  = Phi_0(x)Phi_0(y) + sum_{j=1}^{J} e^{-lambda_j t} Phi_j(x) Phi_j(y)
    G_s(x,y)  = sum_{j=1}^{J} lambda_j^{-s} Phi_j(x) Phi_j(y)

:func:`heat_matrix` and :func:`kernel_matrix` form them densely, and
G_s f = ``apply_fractional_laplacian(basis, -s, f)``.  Identities like the
semigroup law, G_{2s} = G_s o G_s, and the inverse pair
G_s o (-Delta)^s = id hold to rounding error *by construction* on the
truncated span.  The on-diagonal law reads the eigenvalues alone, through
the heat trace 1 + sum_j e^{-lambda_j t} (:func:`heat_trace`), so its
fits take a sorted eigenvalue array such as ``spectrum(level)`` and run at
levels where no basis fits in memory.  The genuinely quantitative parts are
the regression-style estimates (kernel decay, increment slopes), where only a
finite window of distances is available: those functions report fitted
exponents with their residuals and tail variances so the truncation error
stays attributable.

The time-integral route G_s = (1/Gamma(s)) int_0^inf t^{s-1}(p_t - 1) dt is
implemented only as a quadrature cross-check of the spectral sum.
"""

import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_function, gammaincc

from .constants import HAUSDORFF_DIM, S_MIN, SPECTRAL_EXPONENT, WALK_DIM, check_s
from .spectral import SpectralBasis, spectral_coeffs, tail_variance

#: Default distance window for kernel regressions (dyadic, inside (0, diam]).
FIT_WINDOW = (2.0 ** -5, 2.0 ** -2)

#: Pair-sampling policy: all pairs up to this level, random subsample beyond.
ALL_PAIRS_MAX_LEVEL = 4
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
# heat kernel
# ---------------------------------------------------------------------------


def heat_matrix(basis: SpectralBasis, t, J=None):
    """Dense p_t(x,y) over all vertex pairs."""
    if t <= 0:
        raise ValueError("t must be positive")
    J = basis.truncation(J)
    v0 = basis.vectors[:, 0]
    phi = basis.phi[:, :J]
    return np.outer(v0, v0) + (phi * np.exp(-basis.lam[:J] * t)) @ phi.T


def heat_trace(lam, t):
    """mu-averaged on-diagonal value sum_x p_t(x,x) M(x) = 1 + sum_j e^{-lambda_j t} of eigenvalues ``lam``."""
    if t <= 0:
        raise ValueError("t must be positive")
    return float(1.0 + np.exp(-np.asarray(lam, dtype=np.float64) * t).sum())


def heat_envelope_constant(basis: SpectralBasis, t0=1.0, J=None):
    """C with |p_t - 1| <= C e^{-lambda_1 t} for all t >= t0 (full gasket).

    C = max_{x,y} sum_j e^{-(lambda_j - lambda_1) t0} |Phi_j(x) Phi_j(y)|;
    each summand decays in t at least as fast as at t0, so the bound
    propagates to every larger t.
    """
    J = basis.truncation(J)
    lam = basis.lam[:J]
    aphi = np.abs(basis.phi[:, :J])
    env = (aphi * np.exp(-(lam - lam[0]) * t0)) @ aphi.T
    return float(env.max())


def positivity_threshold(lam):
    """Heuristic t below which p_t truncated to the sorted eigenvalues ``lam`` may dip slightly negative.

    ln(J)/lambda_J, with J = len(lam), balances the J tail terms of size ~1
    against the decay of the retained modes; monitored empirically, not
    proven.  Raises ValueError for an empty ``lam``.
    """
    if len(lam) == 0:
        raise ValueError("the positivity threshold needs at least one eigenvalue")
    return float(np.log(max(len(lam), 2)) / lam[-1])


def heat_min(basis: SpectralBasis, t, J=None):
    """min_{x,y} p_t(x,y) -- negativity monitor for the truncated kernel."""
    return float(heat_matrix(basis, t, J).min())


def ondiagonal_fit(lam, window=(2.0 ** -10, 2.0 ** -2), npts=25):
    """Log-log slope of t -> :func:`heat_trace` of the sorted eigenvalues ``lam`` over a dyadic window.

    The sub-Gaussian regime predicts slope -d_h/d_w = -0.6826; at desk scale
    the window must stay below ~1/lambda_1 or the fit drifts toward the
    large-t plateau.  Returns (slope, intercept).
    """
    lo, hi = window
    if not 0 < lo < hi:
        raise ValueError("window must satisfy 0 < lo < hi")
    ts = np.logspace(np.log10(lo), np.log10(hi), npts)
    z = np.array([heat_trace(lam, t) for t in ts])
    slope, intercept = np.polyfit(np.log(ts), np.log(z), 1)
    return float(slope), float(intercept)


def ondiagonal_constants(lam, window=(2.0 ** -10, 1.0), npts=40):
    """Two-sided constants (c, C) with c t^{-a} <= heat trace <= C t^{-a}, a = d_h/d_w."""
    lo, hi = window
    ts = np.logspace(np.log10(lo), np.log10(hi), npts)
    z = np.array([heat_trace(lam, t) for t in ts])
    ratio = z * ts ** SPECTRAL_EXPONENT
    return float(ratio.min()), float(ratio.max())


# ---------------------------------------------------------------------------
# Riesz kernel
# ---------------------------------------------------------------------------


def kernel_matrix(basis: SpectralBasis, exponent, J=None):
    """Dense sum_{j=1}^{J} lambda_j^{-exponent} Phi_j Phi_j^T.

    Entry-wise comparisons between different bases need J at a cluster
    boundary (``basis.cluster_complete``), where the matrix does not depend
    on the basis inside degenerate eigenspaces.
    """
    J = basis.truncation(J)
    phi = basis.phi[:, :J]
    return (phi * basis.lam[:J] ** (-float(exponent))) @ phi.T


def riesz_value_quadrature(basis: SpectralBasis, s, x, y, J=None, T=None):
    """G_s(x, y) via (1/Gamma(s)) int_0^inf t^{s-1} (p_t(x,y) - 1) dt.

    Independent cross-check of the spectral sum: adaptive quadrature on
    [0, T] after the substitution v = t^s (which removes the t^{s-1}
    endpoint singularity), plus the analytic upper-incomplete-gamma tail
    sum_j lambda_j^{-s} Q(s, lambda_j T) Phi_j(x) Phi_j(y) beyond T.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    J = basis.truncation(J)
    lam = basis.lam[:J]
    if T is None:
        T = 20.0 / lam[0]
    pij = basis.phi[x, :J] * basis.phi[y, :J]

    def integrand(v):
        return float(np.exp(-lam * v ** (1.0 / s)) @ pij)

    head, _ = quad(integrand, 0.0, T ** s, limit=300, epsabs=1e-13, epsrel=1e-12)
    head /= s * gamma_function(s)
    tail = float((lam ** (-s) * gammaincc(s, lam * T)) @ pij)
    return head + tail


def apply_fractional_laplacian(basis: SpectralBasis, s, f, J=None):
    """((-Delta)^s f)(x) = sum_j lambda_j^{s} <Phi_j, f>_M Phi_j(x).

    f is M-projected onto the mean-zero subspace first.  Any real s is
    accepted here (s = 0 is the identity on that subspace, s = 1 the
    graph generator itself); the field-admissible window only constrains
    the *inverse* exponents used for sampling.
    """
    J = basis.truncation(J)
    f = np.asarray(f, dtype=np.float64)
    f = f - float(basis.mass @ f) / basis.mass.sum()
    return basis.phi[:, :J] @ (basis.lam[:J] ** float(s) * spectral_coeffs(basis, f, J))


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
    """E (X(x) - X(y))^2 = G_2s(x,x) + G_2s(y,y) - 2 G_2s(x,y) at the pairs (iu, ju)."""
    c = kernel_matrix(basis, 2.0 * s, J)
    diag = np.diag(c)
    return diag[iu] + diag[ju] - 2.0 * c[iu, ju]


def pair_sample(graph, npairs=DEFAULT_PAIR_COUNT, seed=DEFAULT_PAIR_SEED):
    """Vertex pairs (i, j, distance) for regressions.

    All distinct pairs when the graph is small (level <= 4 or fewer pairs
    than requested); otherwise a uniform random subsample without
    replacement, reproducible from the integer ``seed``.  The sample is a
    function of (graph, npairs, seed), so the last few are cached and every
    caller gets the same read-only arrays.
    """
    return _pair_sample(graph, None if npairs is None else int(npairs), operator.index(seed))


@lru_cache(maxsize=4)
def _pair_sample(graph, npairs, seed):
    n = len(graph)
    total = n * (n - 1) // 2
    if graph.level > ALL_PAIRS_MAX_LEVEL and npairs is not None and total > npairs:
        flat = np.random.default_rng(seed).choice(total, npairs, replace=False)
        flat.sort()
        iu, ju = unrank_pairs(n, flat)
    else:
        iu, ju = np.triu_indices(n, 1)
    pts = graph.points
    d = np.linalg.norm(pts[iu] - pts[ju], axis=1)
    for a in (iu, ju, d):
        a.setflags(write=False)
    return iu, ju, d


def binned_points(dists, vals, window=FIT_WINDOW, nbins=12, agg="mean"):
    """Reduce a (distance, value) scatter to one point per log-distance bin.

    Pairs are bucketed into ``nbins`` equal bins of log-distance over
    ``window``; each bin with >= 2 points contributes one point.
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


def binned_loglog_fit(dists, vals, window=FIT_WINDOW, nbins=12, agg="mean"):
    """Least squares through the :func:`binned_points` reduction.

    Returns (slope, intercept, rms_residual, nbins_used, nbins_dropped).
    """
    xs, ys, dropped = binned_points(dists, vals, window, nbins, agg)
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return float(slope), float(intercept), residual, len(xs), dropped


def _resolve_regime(s):
    gap = s * WALK_DIM - HAUSDORFF_DIM
    if abs(gap) <= 1e-9:
        return "log"
    return "power" if gap < 0 else "bounded"


def estimate_bound_fit(
    basis: SpectralBasis,
    s,
    regime="auto",
    window=FIT_WINDOW,
    nbins=12,
    npairs=DEFAULT_PAIR_COUNT,
    seed=DEFAULT_PAIR_SEED,
    J=None,
) -> KernelEstimateReport:
    """Regress the decay of |G_s| against distance and compare to its bound.

    Three regimes:
      power   (s d_w < d_h): |G_s| <~ d^{-(d_h - s d_w)}; envelope fit of
              log|G_s| vs log d, fitted exponent = -slope.
      log     (s d_w = d_h): |G_s| <~ |ln d|; fit on ln|ln d| abscissa
              (bound exponent 1), constant = max |G_s|/|ln d|.
      bounded (s d_w > d_h): |G_s| <~ C; bound exponent 0.
    ``within_bound`` records fitted <= bound + 0.1.  At desk-scale levels
    the power/bounded fits sit above their asymptotic bounds (the fit window
    is not yet in the scaling regime and the truncated tail inflates short
    distances); the report states this honestly rather than widening bands.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    lo, hi = window
    if not 0 < lo < hi <= 1.0:
        raise ValueError("window endpoints must lie in (0, 1] (diameter of the gasket)")
    if regime == "auto":
        regime = _resolve_regime(s)
    if regime not in ("power", "log", "bounded"):
        raise ValueError(f"unknown regime {regime!r}")
    J = basis.truncation(J)
    iu, ju, dp = pair_sample(basis.graph, npairs, seed)
    g = kernel_matrix(basis, s, J)
    vals = np.abs(g[iu, ju])
    in_win = (dp >= lo) & (dp <= hi)
    if not in_win.any():
        raise ValueError("fit window is empty")

    if regime == "log":
        # the modulus has no power law; regress on the ln|ln d| axis instead
        keep = in_win & (np.abs(np.log(dp)) >= 0.5) & (vals > 0)
        if not keep.any():
            raise ValueError("fit window is empty")
        lnd = np.abs(np.log(dp[keep]))
        fitted, _, residual, nbins_used, _ = binned_loglog_fit(
            lnd, vals[keep], (lnd.min(), lnd.max()), nbins, agg="max")
        bound = 1.0
        constant = float((vals[keep] / lnd).max())
    else:
        slope, _, residual, nbins_used, _ = binned_loglog_fit(dp, vals, window, nbins, agg="max")
        fitted = -slope
        if regime == "power":
            bound = HAUSDORFF_DIM - s * WALK_DIM
            constant = float((vals[in_win] * dp[in_win] ** bound).max())
        else:
            bound = 0.0
            constant = float(vals[in_win].max())

    return KernelEstimateReport(
        s=float(s),
        regime=regime,
        window=(float(lo), float(hi)),
        fitted_exponent=float(fitted),
        bound_exponent=float(bound),
        within_bound=bool(fitted <= bound + 0.1),
        constant=constant,
        residual=residual,
        tail_variance=tail_variance(basis, s, J) if s > S_MIN else float("nan"),
        seed=int(seed),
        npairs=len(iu),
        nbins=nbins_used,
    )


def increment_l2_check(
    basis: SpectralBasis,
    s,
    window=FIT_WINDOW,
    nbins=12,
    npairs=DEFAULT_PAIR_COUNT,
    seed=DEFAULT_PAIR_SEED,
    J=None,
) -> IncrementReport:
    """Fit the exponent of D(x,y) = sum_j lambda_j^{-2s} (Phi_j(x)-Phi_j(y))^2.

    D is the squared L2 increment of G_s(x, .), the quantity whose
    d^{2 s d_w - d_h} bound drives the field's Hoelder regularity; the
    fitted log-log slope must clear that exponent minus a 0.2 allowance.
    """
    check_s(s)
    J = basis.truncation(J)
    iu, ju, dp = pair_sample(basis.graph, npairs, seed)
    d2 = squared_increments(basis, s, iu, ju, J)
    slope, _, residual, _, dropped = binned_loglog_fit(dp, d2, window, nbins, agg="mean")
    if dropped:
        warnings.warn(f"{dropped} distance bin(s) had < 2 pairs and were dropped")
    floor = 2.0 * s * WALK_DIM - HAUSDORFF_DIM - 0.2
    return IncrementReport(
        s=float(s),
        slope=float(slope),
        floor=float(floor),
        passed=bool(slope >= floor),
        window=(float(window[0]), float(window[1])),
        residual=residual,
        tail_variance=tail_variance(basis, s, J),
        seed=int(seed),
        npairs=len(iu),
    )
