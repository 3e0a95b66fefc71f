"""Heat and Riesz kernels, regression binners, exponent estimators."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasket_fgf import kernels, verify
from gasket_fgf.constants import (
    HAUSDORFF_DIM,
    SPECTRAL_EXPONENT,
    WALK_DIM,
    hurst_from_s,
)
from gasket_fgf.geometry import build_level
from gasket_fgf.kernels import (
    DEFAULT_PAIR_COUNT,
    DEFAULT_PAIR_SEED,
    _pair_kernel,
    binned_loglog_fit,
    binned_points,
    estimate_bound_fit,
    heat_trace,
    increment_l2_check,
    kernel_matrix,
    ondiagonal_constants,
    ondiagonal_fit,
    pair_sample,
    riesz_value_quadrature,
    spectral_apply,
    squared_increments,
)
from gasket_fgf.operators import assemble_energy
from gasket_fgf.spectral import pick_truncation
from gasket_fgf.verify import get_basis


def heat(basis, t, f):
    """P_t f: the M-mean of f plus e^{-lambda t} applied to f."""
    return basis.mass @ f / basis.mass.sum() + spectral_apply(basis, lambda lam: np.exp(-lam * t), f)


def riesz(basis, e, f):
    """lambda^e applied to f: G_s for e = -s, (-Delta)^s for e = s."""
    return spectral_apply(basis, lambda lam: lam ** e, f)


def block(basis, p):
    """p seeded standard-normal columns on the vertices of ``basis``."""
    return np.random.default_rng(0).standard_normal((basis.dim, p))


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------


def test_semigroup_property(basis4):
    t, u = 0.07, 0.11
    f = block(basis4, 8)
    np.testing.assert_allclose(heat(basis4, t, heat(basis4, u, f)), heat(basis4, t + u, f), atol=1e-12)


def test_stochastic_completeness(basis4):
    for t in (0.01, 0.1, 1.0):
        np.testing.assert_allclose(heat(basis4, t, np.ones(basis4.dim)), 1.0, atol=1e-12)


def test_spectral_apply_is_self_adjoint(basis4):
    # <g(-Delta) f, h>_M = <f, g(-Delta) h>_M for every pair of columns
    f = block(basis4, 6)
    gram = f.T @ (basis4.mass[:, None] * spectral_apply(basis4, lambda lam: np.exp(-0.05 * lam), f))
    np.testing.assert_allclose(gram, gram.T, atol=1e-15)


def test_spectral_apply_block_gives_its_columns(basis4):
    f = block(basis4, 5)
    for g in (lambda lam: np.exp(-0.1 * lam), lambda lam: lam ** -0.75):
        out = spectral_apply(basis4, g, f)
        assert out.shape == f.shape
        for k in range(f.shape[1]):
            np.testing.assert_allclose(out[:, k], spectral_apply(basis4, g, f[:, k]), rtol=0, atol=1e-15)


def test_mean_diagonal_is_trace(basis4):
    # P_t applied to the columns of M^{-1} is the kernel p_t itself
    t = 0.03
    kernel = heat(basis4, t, np.diag(1.0 / basis4.mass))
    quad = basis4.mass @ np.diag(kernel)
    assert heat_trace(basis4.lam, t) == pytest.approx(quad, rel=1e-12)
    assert heat_trace(basis4.lam, t) == pytest.approx(
        1.0 + np.sum(np.exp(-basis4.lam * t)), rel=1e-12)
    with pytest.raises(ValueError, match="t must be positive"):
        heat_trace(basis4.lam, -1.0)


def test_long_time_limit(basis4):
    f = block(basis4, 4)
    np.testing.assert_allclose(heat(basis4, 50.0, f) - basis4.mass @ f / basis4.mass.sum(), 0.0, atol=1e-12)


def dense_envelope_constant(basis):
    """The pairwise maximum of sum_j e^{-(lambda_j - lambda_1)} |Phi_j(x) Phi_j(y)|, as an n x n array."""
    lam = basis.lam
    aphi = np.abs(basis.phi)
    return float(((aphi * np.exp(-(lam - lam[0]))) @ aphi.T).max())


@pytest.mark.parametrize("level", [4, 5])
def test_envelope_constant_is_the_pairwise_maximum(level):
    basis = get_basis(level)
    res = verify.check_heat_envelope(level=level)
    assert res.measured["constant"] == pytest.approx(dense_envelope_constant(basis), rel=1e-12)
    # the dense p_t - 1 (its nonconstant modes) is largest on the diagonal, below the envelope
    for t in (1.0, 1.7, 2.5):
        kernel = spectral_apply(basis, lambda lam: np.exp(-lam * t), np.diag(1.0 / basis.mass))
        assert np.abs(kernel).max() == pytest.approx(np.diag(kernel).max(), rel=1e-12)
        assert np.abs(kernel).max() <= res.measured["constant"] * np.exp(-basis.lam[0] * t) * (1 + 1e-9)


def test_envelope_constant_level6(basis6):
    res = verify.check_heat_envelope(level=6)
    assert res.passed
    assert res.measured["constant"] == pytest.approx(3.431078, abs=1e-5)


def test_envelope_ratios_resolve_past_rounding(basis6):
    # p_t - 1 falls below the rounding of 1.0 for t >= 1.5, so a dense p_t - 1
    # reads 0 there; the diagonal sum_j e^{-lambda_j t} Phi_j(z)^2 does not,
    # and with lambda_2 ~ 5 lambda_1 the lambda_1 eigenspace attains the envelope
    c = verify.check_heat_envelope(level=6).measured["constant"]
    lam1 = basis6.lam[0]
    for t in (1.5, 2.0, 3.0):
        q = np.einsum("ij,ij,j->i", basis6.phi, basis6.phi, np.exp(-basis6.lam * t)).max()
        assert q / (c * np.exp(-lam1 * t)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("check", [verify.check_heat_semigroup, verify.check_heat_completeness,
                                   verify.check_heat_envelope, verify.check_riesz])
def test_heat_and_riesz_checks_form_no_dense_array(check):
    # one n x n array at level 7 is 82 MiB; with the bases and pair samples
    # cached, each check holds a few n x 8 blocks and n x 5 weights at most
    assert check(level=7).passed
    tracemalloc.start()
    try:
        check(level=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


def test_ondiagonal_slopes_level6(basis6):
    full, _ = ondiagonal_fit(basis6.lam, window=(2.0 ** -10, 2.0 ** -2))
    regime, _ = ondiagonal_fit(basis6.lam, window=(2.0 ** -10, 2.0 ** -6))
    # the mandated window crosses the spectral-gap knee and flattens
    assert full == pytest.approx(-0.525486, abs=1e-4)
    # below the knee the decay shows the spectral exponent
    assert regime == pytest.approx(-0.628588, abs=1e-4)
    assert abs(-regime - SPECTRAL_EXPONENT) <= 0.07


def test_ondiagonal_two_sided_constants(basis6):
    c_lo, c_hi = ondiagonal_constants(basis6.lam)
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


def test_kernel_matrix_block_is_its_slice_of_the_whole(basis5):
    full = kernel_matrix(basis5, 0.8)
    picks = np.random.default_rng(1).permutation(basis5.dim)[:40]
    for rows, cols in [(slice(0, 128), slice(0, None)), (slice(200, 366), slice(200, None)),
                       (slice(7, 8), slice(None)), (picks, slice(None)), (picks, picks[::-1])]:
        np.testing.assert_allclose(kernel_matrix(basis5, 0.8, None, rows, cols), full[rows][:, cols],
                                   rtol=0, atol=1e-12 * np.abs(full).max())
    np.testing.assert_allclose(kernel_matrix(basis5, 0.8, 40, rows=picks), kernel_matrix(basis5, 0.8, 40)[picks],
                               rtol=0, atol=1e-12 * np.abs(full).max())


@pytest.mark.parametrize("level", [4, 5, 6])
@pytest.mark.parametrize("s", [0.4, 0.5, 0.6, SPECTRAL_EXPONENT, 0.7])
def test_pair_kernel_matches_dense_entries(level, s):
    # s below, at and above d_h/d_w: the exponents of estimate_bound_fit (s) and of the increments (2s)
    basis = get_basis(level)
    iu, ju, _ = pair_sample(basis.graph)
    J = pick_truncation(basis, 0.5) if level == 6 else None
    for e in (s, 2 * s):
        dense = kernel_matrix(basis, e, J)
        vals, diag = _pair_kernel(basis, e, J, iu, ju)
        scale = np.abs(dense).max()
        np.testing.assert_allclose(vals, dense[iu, ju], rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(diag, np.diag(dense), rtol=0, atol=1e-12 * scale)


def test_pair_kernel_refuses_unsorted_pairs(basis4):
    with pytest.raises(ValueError, match="sorted by iu with iu < ju"):
        _pair_kernel(basis4, 1.0, None, np.array([2, 1]), np.array([5, 6]))
    with pytest.raises(ValueError, match="sorted by iu with iu < ju"):
        _pair_kernel(basis4, 1.0, None, np.array([3]), np.array([3]))


def _tiled_statistics(basis, s):
    iu, ju, _ = pair_sample(basis.graph)
    J = basis.truncation(None)
    return (squared_increments(basis, s, iu, ju, J), _pair_kernel(basis, s, J, iu, ju)[0],
            estimate_bound_fit(basis, s), increment_l2_check(basis, s))


@pytest.mark.parametrize("tile", [1, 7, "n"])
def test_pair_statistics_do_not_depend_on_the_tile(basis5, monkeypatch, tile):
    ref = _tiled_statistics(basis5, 0.5)
    tile = basis5.dim if tile == "n" else tile
    monkeypatch.setattr(kernels, "KERNEL_ROW_TILE", tile)
    got = _tiled_statistics(basis5, 0.5)
    for a, b in zip(got[:2], ref[:2]):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())
    assert got[2].fitted_exponent == pytest.approx(ref[2].fitted_exponent, abs=1e-12)
    assert got[2].constant == pytest.approx(ref[2].constant, rel=1e-12)
    assert got[3].slope == pytest.approx(ref[3].slope, abs=1e-12)


def test_quadrature_cross_check(basis5):
    g = kernel_matrix(basis5, 0.5)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        q = riesz_value_quadrature(basis5, 0.5, i, j)
        assert q == pytest.approx(g[i, j], rel=1e-6)


def test_import_leaves_quadrature_unloaded():
    # scipy.integrate loads only for the quadrature cross-check, not on every CLI call
    src = os.path.dirname(os.path.dirname(riesz_value_quadrature.__code__.co_filename))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, gasket_fgf, gasket_fgf.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_special_and_spatial_unloaded():
    # scipy.special loads only for the quadrature cross-check, and no module loads scipy.spatial
    src = os.path.dirname(os.path.dirname(riesz_value_quadrature.__code__.co_filename))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, gasket_fgf.fields, gasket_fgf.kernels; "
            "print([m for m in ('scipy.special', 'scipy.spatial') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_inverse_pair(basis4, rng):
    s = 0.55
    f = basis4.phi @ rng.standard_normal(basis4.count)
    np.testing.assert_allclose(riesz(basis4, -s, riesz(basis4, s, f)), f, atol=1e-10)
    # and in the other order, on any f: the constant mode is projected out
    g = f + 1.0
    np.testing.assert_allclose(riesz(basis4, s, riesz(basis4, -s, g)), g - basis4.mass @ g, atol=1e-10)


def test_composition_identity(basis4):
    s = 0.5
    g1 = kernel_matrix(basis4, s)
    comp = g1 @ (basis4.mass[:, None] * g1)
    np.testing.assert_allclose(comp, kernel_matrix(basis4, 2 * s), atol=1e-10)


def test_riesz_action_is_mean_zero(basis4, rng):
    # G_s f = (-Delta)^{-s} f lies in the mean-zero span, whatever the mean of f
    f = rng.standard_normal(len(basis4.graph))
    for g in (f, f + 1.0):
        assert abs(basis4.mass @ riesz(basis4, -0.5, g)) <= 1e-12


def test_fractional_laplacian_s1_matches_stiffness(basis4):
    rng = np.random.default_rng(1)
    f = basis4.phi @ np.concatenate([rng.standard_normal(20),
                                     np.zeros(basis4.count - 20)])
    spec = riesz(basis4, 1.0, f)
    direct = (assemble_energy(basis4.graph).matrix @ f) / basis4.mass
    err = np.sqrt(((spec - direct) ** 2 * basis4.mass).sum())
    assert err <= 1e-8


# ---------------------------------------------------------------------------
# pair sampling and binners
# ---------------------------------------------------------------------------


def test_pair_sample_small_graph_is_exhaustive(g4):
    i, j, d = pair_sample(g4)
    n = len(g4)
    assert len(i) == n * (n - 1) // 2
    assert np.all(d > 0)


def test_pair_sample_is_shared_and_read_only(g6):
    first = pair_sample(g6)
    again = pair_sample(g6)
    assert all(a is b for a, b in zip(first, again))
    for a in first:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


@pytest.mark.parametrize("level", [5, 6])
def test_pair_sample_matches_triu_reference(level):
    # L5 holds 66,795 pairs, so every one is taken; L6's 598,965 are
    # subsampled, unranked without building the n(n-1)/2 index arrays
    g = build_level(level)
    iu, ju = np.triu_indices(len(g), 1)
    if len(iu) > DEFAULT_PAIR_COUNT:
        rng = np.random.default_rng(DEFAULT_PAIR_SEED)
        sel = np.sort(rng.choice(len(iu), DEFAULT_PAIR_COUNT, replace=False))
    else:
        sel = np.arange(len(iu))
    assert len(sel) == {5: 66_795, 6: 100_000}[level]
    i, j, d = pair_sample(g)
    np.testing.assert_array_equal(i, iu[sel])
    np.testing.assert_array_equal(j, ju[sel])
    np.testing.assert_array_equal(d, np.linalg.norm(g.points[iu[sel]] - g.points[ju[sel]], axis=1))


@pytest.mark.parametrize("level", [5, 6])
def test_pair_sample_is_sorted_by_row(level):
    # both branches: every pair at L5, the unranked subsample at L6
    iu, ju, _ = pair_sample(build_level(level))
    assert np.all(iu < ju)
    assert np.all(np.diff(iu) >= 0)


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
    fit = binned_loglog_fit(d, v, agg="max")
    assert fit.slope == pytest.approx(1.7, abs=1e-9)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-9)
    assert fit.residual <= 1e-12 and fit.slope_se <= 1e-12
    assert len(fit.log_d) == len(fit.log_val) == 12 and fit.dropped == 0
    assert binned_loglog_fit(d, v, agg="mean").slope == pytest.approx(1.7, abs=0.05)


# ---------------------------------------------------------------------------
# exponent estimators (frozen level-6 regressions)
# ---------------------------------------------------------------------------


def test_regime_resolution(basis4):
    assert estimate_bound_fit(basis4, 0.5).regime == "power"
    assert estimate_bound_fit(basis4, SPECTRAL_EXPONENT).regime == "log"
    assert estimate_bound_fit(basis4, 0.7).regime == "bounded"


def test_estimate_bound_fit_log_regime_empty_window():
    # no level-1 pair lies closer than 1/2, so FIT_WINDOW = [2^-5, 2^-2] holds none
    with pytest.raises(ValueError, match="fit window is empty"):
        estimate_bound_fit(get_basis(1), SPECTRAL_EXPONENT)


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
