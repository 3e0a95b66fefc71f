"""Heat and Riesz kernels, regression binners, exponent estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasket_fgf.constants import (
    HAUSDORFF_DIM,
    SPECTRAL_EXPONENT,
    WALK_DIM,
    hurst_from_s,
)
from gasket_fgf.kernels import (
    apply_fractional_laplacian,
    binned_loglog_fit,
    binned_points,
    estimate_bound_fit,
    heat_envelope_constant,
    heat_matrix,
    heat_min,
    heat_trace,
    increment_l2_check,
    kernel_matrix,
    ondiagonal_constants,
    ondiagonal_fit,
    pair_sample,
    positivity_threshold,
    riesz_value_quadrature,
)
from gasket_fgf.operators import assemble_energy


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------


def test_semigroup_property(basis4):
    t, u = 0.07, 0.11
    lhs = heat_matrix(basis4, t) @ (basis4.mass[:, None] * heat_matrix(basis4, u))
    np.testing.assert_allclose(lhs, heat_matrix(basis4, t + u), atol=1e-10)


def test_stochastic_completeness(basis4):
    for t in (0.01, 0.1, 1.0):
        row = heat_matrix(basis4, t) @ basis4.mass
        np.testing.assert_allclose(row, 1.0, atol=1e-10)


def test_heat_matrix_symmetric(basis4):
    m = heat_matrix(basis4, 0.05)
    np.testing.assert_allclose(m, m.T, atol=1e-12)
    with pytest.raises(ValueError, match="t must be positive"):
        heat_matrix(basis4, 0.0)


def test_mean_diagonal_is_trace(basis4):
    t = 0.03
    quad = basis4.mass @ np.diag(heat_matrix(basis4, t))
    assert heat_trace(basis4.lam, t) == pytest.approx(quad, rel=1e-12)
    assert heat_trace(basis4.lam, t) == pytest.approx(
        1.0 + np.sum(np.exp(-basis4.lam * t)), rel=1e-12)
    with pytest.raises(ValueError, match="t must be positive"):
        heat_trace(basis4.lam, -1.0)


def test_long_time_limit(basis4):
    np.testing.assert_allclose(heat_matrix(basis4, 50.0), 1.0, atol=1e-12)


def test_envelope_constant_level6(basis6):
    c = heat_envelope_constant(basis6, t0=1.0)
    assert c == pytest.approx(3.431078, abs=1e-5)
    lam1 = basis6.lam[0]
    for t in (1.0, 1.7, 2.5):
        dev = np.abs(heat_matrix(basis6, t) - 1.0).max()
        assert dev <= c * np.exp(-lam1 * t) * (1 + 1e-9)


def test_positivity_threshold(basis6):
    # complete basis: the discrete semigroup is positivity preserving, so the
    # negativity monitor stays at rounding level even at the threshold scale
    thr = positivity_threshold(basis6.lam)
    assert 0 < thr < 1e-3
    assert heat_min(basis6, thr) >= -1e-9
    assert heat_min(basis6, 0.5) > 0
    # truncated basis: artifacts die off as t moves up through the threshold
    t300 = positivity_threshold(basis6.lam[:300])
    assert heat_min(basis6, t300 / 10, J=300) < 10 * heat_min(basis6, t300, J=300) < 0
    assert heat_min(basis6, 50 * t300, J=300) >= -1e-9
    # J = 0 keeps no mode, so there is no lambda_J to read
    with pytest.raises(ValueError, match="at least one eigenvalue"):
        positivity_threshold(basis6.lam[:0])


def test_ondiagonal_slopes_level6(basis6):
    full, _ = ondiagonal_fit(basis6.lam, window=(2.0 ** -10, 2.0 ** -2))
    regime, _ = ondiagonal_fit(basis6.lam, window=(2.0 ** -10, 2.0 ** -6))
    # the mandated window crosses the spectral-gap knee and flattens
    assert full == pytest.approx(-0.525486, abs=1e-4)
    # below the knee the decay shows the spectral exponent
    assert regime == pytest.approx(-0.628588, abs=1e-4)
    assert abs(-regime - SPECTRAL_EXPONENT) <= 0.07


def test_ondiagonal_two_sided_constants(basis6):
    c_lo, c_hi = ondiagonal_constants(basis6.lam, window=(2.0 ** -10, 1.0))
    assert 0.13 <= c_lo <= 0.15
    assert c_hi == pytest.approx(1.0, abs=1e-6)
    assert c_lo <= c_hi


# ---------------------------------------------------------------------------
# Riesz kernels
# ---------------------------------------------------------------------------


def test_kernel_matrix_symmetric_psd(basis4):
    g = kernel_matrix(basis4, 1.0)
    np.testing.assert_allclose(g, g.T, atol=1e-12)
    w = np.linalg.eigvalsh(basis4.mass[:, None] * g * basis4.mass[None, :])
    assert w.min() >= -1e-10


def test_riesz_rows_integrate_to_zero(basis4):
    assert np.abs(kernel_matrix(basis4, 0.5) @ basis4.mass).max() <= 1e-10


def test_quadrature_cross_check(basis5):
    g = kernel_matrix(basis5, 0.5)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        q = riesz_value_quadrature(basis5, 0.5, i, j)
        assert q == pytest.approx(g[i, j], rel=1e-6)


def test_inverse_pair(basis4, rng):
    s = 0.55
    f = basis4.phi @ rng.standard_normal(basis4.count)
    back = apply_fractional_laplacian(basis4, -s, apply_fractional_laplacian(basis4, s, f))
    np.testing.assert_allclose(back, f, atol=1e-10)
    # and in the other order
    fwd = apply_fractional_laplacian(basis4, s, apply_fractional_laplacian(basis4, -s, f))
    np.testing.assert_allclose(fwd, f - basis4.mass @ f, atol=1e-10)


def test_composition_identity(basis4):
    s = 0.5
    g1 = kernel_matrix(basis4, s)
    comp = g1 @ (basis4.mass[:, None] * g1)
    np.testing.assert_allclose(comp, kernel_matrix(basis4, 2 * s), atol=1e-10)


def test_riesz_action_is_mean_zero(basis4, rng):
    # G_s f = (-Delta)^{-s} f lies in the mean-zero span, whatever the mean of f
    f = rng.standard_normal(len(basis4.graph))
    for g in (f, f + 1.0):
        assert abs(basis4.mass @ apply_fractional_laplacian(basis4, -0.5, g)) <= 1e-12


def test_fractional_laplacian_s1_matches_stiffness(basis4):
    rng = np.random.default_rng(1)
    f = basis4.phi @ np.concatenate([rng.standard_normal(20),
                                     np.zeros(basis4.count - 20)])
    spec = apply_fractional_laplacian(basis4, 1.0, f)
    direct = (assemble_energy(basis4.graph).matrix @ f) / basis4.mass
    err = np.sqrt(((spec - direct) ** 2 * basis4.mass).sum())
    assert err <= 1e-8


# ---------------------------------------------------------------------------
# pair sampling and binners
# ---------------------------------------------------------------------------


def test_pair_sample_small_graph_is_exhaustive(g4):
    i, j, d = pair_sample(g4, npairs=100, seed=1)
    n = len(g4)
    assert len(i) == n * (n - 1) // 2
    assert np.all(d > 0)


def test_pair_sample_subsamples_reproducibly(g6):
    i1, j1, d1 = pair_sample(g6, npairs=5000, seed=9)
    i2, j2, d2 = pair_sample(g6, npairs=5000, seed=9)
    assert len(i1) == 5000
    np.testing.assert_array_equal(i1, i2)
    np.testing.assert_array_equal(j1, j2)
    i3, _, _ = pair_sample(g6, npairs=5000, seed=10)
    assert not np.array_equal(i1, i3)


def test_pair_sample_is_shared_and_read_only(g6):
    first = pair_sample(g6, 5000, 9)
    again = pair_sample(g6, npairs=5000, seed=np.int64(9))
    assert all(a is b for a, b in zip(first, again))
    for a in first:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    with pytest.raises(TypeError):
        pair_sample(g6, 5000, np.random.default_rng(9))


@pytest.mark.parametrize("npairs,seed", [(100_000, 2024), (5000, 9)])
def test_pair_sample_matches_triu_reference(g6, npairs, seed):
    # the flat indices are unranked without building the n(n-1)/2 index arrays
    iu, ju = np.triu_indices(len(g6), 1)
    sel = np.sort(np.random.default_rng(seed).choice(len(iu), npairs, replace=False))
    i, j, d = pair_sample(g6, npairs=npairs, seed=seed)
    np.testing.assert_array_equal(i, iu[sel])
    np.testing.assert_array_equal(j, ju[sel])
    np.testing.assert_array_equal(d, np.linalg.norm(g6.points[iu[sel]] - g6.points[ju[sel]], axis=1))


def test_binned_points_rejects_empty_window():
    with pytest.raises(ValueError):
        binned_points([1.0, 2.0], [1.0, 1.0], window=(1e-6, 2e-6))
    with pytest.raises(ValueError):
        binned_points([0.1], [1.0], window=(0.5, 0.1))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_binned_envelope_dominates_mean(seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(2.0 ** -5, 2.0 ** -2, size=200)
    v = rng.lognormal(sigma=0.7, size=200)
    xs_max, ys_max, drop_max = binned_points(d, v, agg="max")
    xs_mean, ys_mean, drop_mean = binned_points(d, v, agg="mean")
    # same drop rule, envelope value >= moment value bin by bin
    assert drop_max == drop_mean
    assert len(ys_max) == len(ys_mean)
    assert np.all(ys_max >= ys_mean - 1e-12)


def test_binned_loglog_fit_recovers_power_law(rng):
    d = rng.uniform(2.0 ** -5, 2.0 ** -2, size=4000)
    v = 3.0 * d ** 1.7
    # envelope bins anchor at the maximizing pair, so an exact power law is
    # exactly colinear; moment bins carry a small Jensen offset
    slope, intercept, resid, used, dropped = binned_loglog_fit(d, v, agg="max")
    assert slope == pytest.approx(1.7, abs=1e-9)
    assert intercept == pytest.approx(np.log(3.0), abs=1e-9)
    assert resid <= 1e-12
    assert used == 12 and dropped == 0
    slope_m, _, _, _, _ = binned_loglog_fit(d, v, agg="mean")
    assert slope_m == pytest.approx(1.7, abs=0.05)


# ---------------------------------------------------------------------------
# exponent estimators (frozen level-6 regressions)
# ---------------------------------------------------------------------------


def test_regime_resolution(basis4):
    assert estimate_bound_fit(basis4, 0.5, npairs=None).regime == "power"
    assert estimate_bound_fit(basis4, SPECTRAL_EXPONENT, npairs=None).regime == "log"
    assert estimate_bound_fit(basis4, 0.7, npairs=None).regime == "bounded"


def test_estimate_bound_fit_log_regime_empty_window(basis4):
    # every pair in (0.9, 1.0] has |ln d| < 0.5, so the log regime has no points
    with pytest.raises(ValueError, match="fit window is empty"):
        estimate_bound_fit(basis4, SPECTRAL_EXPONENT, window=(0.9, 1.0), npairs=None)


def test_estimate_bound_fit_power_level6(basis6):
    rep = estimate_bound_fit(basis6, 0.5)
    assert rep.regime == "power"
    assert rep.npairs == 100_000 and rep.nbins == 12
    assert rep.bound_exponent == pytest.approx(
        HAUSDORFF_DIM - 0.5 * WALK_DIM, rel=1e-12)
    assert rep.fitted_exponent == pytest.approx(0.8057, abs=1e-3)
    assert rep.constant == pytest.approx(0.650587, abs=1e-4)
    # desk-scale envelopes sit above the asymptotic bound; reported honestly
    assert rep.within_bound is False
    assert rep.tail_variance >= 0


def test_estimate_bound_fit_log_level6(basis6):
    rep = estimate_bound_fit(basis6, SPECTRAL_EXPONENT)
    assert rep.regime == "log"
    assert rep.bound_exponent == 1.0
    assert rep.fitted_exponent == pytest.approx(1.3723, abs=1e-3)
    assert rep.within_bound is False


def test_estimate_bound_fit_bounded_level6(basis6):
    rep = estimate_bound_fit(basis6, 0.7)
    assert rep.regime == "bounded"
    assert rep.bound_exponent == 0.0
    assert rep.fitted_exponent == pytest.approx(0.5487, abs=1e-3)
    assert rep.constant == pytest.approx(0.912845, abs=1e-4)


def test_increment_exponents_level6(basis6):
    expected = {0.40: 0.4333, 0.50: 0.7601, 0.60: 1.1435}
    for s, slope in expected.items():
        rep = increment_l2_check(basis6, s)
        assert rep.slope == pytest.approx(slope, abs=1e-3)
        assert rep.floor == pytest.approx(
            2 * s * WALK_DIM - HAUSDORFF_DIM - 0.2, rel=1e-12)
        assert rep.passed
        assert rep.s == s


def test_increment_slope_grows_with_s(basis6):
    # 2H = 2 s d_w - d_h: steeper decay for smoother fields; the fitted
    # slopes clear the floor 2H - 0.2 and keep the ordering in s
    slopes = [increment_l2_check(basis6, s).slope for s in (0.4, 0.5, 0.6)]
    assert slopes[0] < slopes[1] < slopes[2]
    for s, slope in zip((0.4, 0.5, 0.6), slopes):
        assert slope >= 2 * hurst_from_s(s) - 0.2
