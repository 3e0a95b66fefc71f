"""Eigensolver hygiene, Weyl counting, and truncation bookkeeping."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasket_fgf.constants import REFERENCE_LAMBDA_1, SPECTRAL_EXPONENT
from gasket_fgf.operators import assemble_energy, assemble_mass
from gasket_fgf.spectral import (
    SolverError,
    _canonical_cluster_bases,
    counting_function,
    pick_truncation,
    solve_eigen,
    tail_variance,
    weyl_exponent_fit,
)
from gasket_fgf.verify import get_basis

# second Neumann eigenvalue of the renormalized level-m problems; the
# sequence converges geometrically (ratio ~1/5) toward the gasket value
LAMBDA_1 = {3: 26.918846, 4: 27.075234, 5: 27.106584, 6: 27.112857, 7: 27.114112}


def test_mode_zero_is_constant(basis4):
    assert basis4.lambdas[0] == 0.0
    phi0 = basis4.vectors[:, 0]
    np.testing.assert_allclose(phi0, phi0[0], rtol=1e-13)
    assert phi0[0] == pytest.approx(1.0 / np.sqrt(basis4.mass.sum()))


def test_orthonormality(basis4):
    gram = basis4.vectors.T @ (basis4.mass[:, None] * basis4.vectors)
    assert np.abs(gram - np.eye(basis4.count + 1)).max() <= 1e-10


def test_modes_are_mean_zero(basis4):
    means = basis4.mass @ basis4.vectors[:, 1:]
    assert np.abs(means).max() <= 1e-10


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_lambda_1_sequence(m):
    assert get_basis(m).lam[0] == pytest.approx(LAMBDA_1[m], abs=1e-3)


def test_lambda_1_richardson_limit():
    # geometric extrapolation of the level sequence hits the reference value
    l4, l5, l6 = (get_basis(m).lam[0] for m in (4, 5, 6))
    rho = (l6 - l5) / (l5 - l4)
    limit = l6 + (l6 - l5) * rho / (1.0 - rho)
    assert rho == pytest.approx(0.2, abs=0.02)
    assert limit == pytest.approx(REFERENCE_LAMBDA_1, abs=5e-4)


def test_residual_reported(basis5):
    assert basis5.residual_norm <= 1e-8
    assert basis5.method == "dense"


def test_iterative_agrees_with_dense():
    g = get_basis(5).graph
    s, mm = assemble_energy(g), assemble_mass(g)
    it = solve_eigen(s, mm, 30, method="iterative", graph=g)
    de = solve_eigen(s, mm, 30, method="dense", graph=g)
    assert it.method == "iterative"
    np.testing.assert_allclose(it.lambdas, de.lambdas, rtol=1e-8, atol=1e-8)


def test_spectrum_increasing(basis5):
    assert np.all(np.diff(basis5.lambdas) >= -1e-9)
    assert basis5.lambdas[1] > 1.0


def test_clusters_partition_spectrum(basis5):
    runs = basis5.clusters()
    assert runs[0][0] == 0 and runs[-1][1] == basis5.count
    assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
    for lo, hi in runs:
        lam = basis5.lam[lo:hi]
        assert np.ptp(lam) <= 1e-9 * lam.max()
    # the gasket spectrum is genuinely degenerate: some run is longer than 1
    assert max(hi - lo for lo, hi in runs) > 1


def test_cluster_basis_depends_on_eigenspace_only(basis5):
    # any orthogonal change of basis inside each cluster (a sign flip for a
    # simple eigenvalue) is undone by the canonical construction
    vectors = basis5.vectors.copy()
    rng = np.random.default_rng(1)
    for lo, hi in basis5.clusters():
        u, _ = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))
        vectors[:, 1 + lo : 1 + hi] = vectors[:, 1 + lo : 1 + hi] @ u
    assert np.abs(vectors - basis5.vectors).max() > 0.1
    _canonical_cluster_bases(basis5.lambdas, vectors, basis5.mass)
    assert np.abs(vectors - basis5.vectors).max() <= 1e-10


@pytest.mark.parametrize("j,trimmed", [(0, 0), (100, 80), (300, 242), (878, 728), (1094, 1094)])
def test_cluster_complete_trims(basis6, j, trimmed):
    assert basis6.cluster_complete(j) == trimmed


def test_truncated_solve_warns_when_it_cuts_a_cluster(g6):
    s, mm = assemble_energy(g6), assemble_mass(g6)
    with pytest.warns(UserWarning, match="modes 243..300 .* J = 242"):
        solve_eigen(s, mm, 300, graph=g6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_eigen(s, mm, 242, graph=g6).count == 242


def test_counting_function_right_continuous(basis5):
    t = float(basis5.lam[5])
    n = counting_function(basis5, t)
    assert n >= 6
    assert counting_function(basis5, t * (1 - 1e-6)) < n
    assert counting_function(basis5, 0.0) == 0
    with pytest.raises(ValueError):
        counting_function(basis5, -1.0)


def test_weyl_exponent_level6(basis6):
    fit = weyl_exponent_fit(basis6.lam[:300])
    assert fit.slope == pytest.approx(0.723964, abs=1e-4)
    assert abs(fit.slope - SPECTRAL_EXPONENT) <= 0.05
    # log N is a coarse staircase over degenerate clusters, so r^2 is
    # moderate even when the slope is stable
    assert 0.9 < fit.r2 <= 1.0


def test_weyl_window_is_mid_spectrum(basis6):
    fit = weyl_exponent_fit(basis6.lam[:300])
    lo, hi = fit.window
    assert basis6.lam[0] < lo < hi < basis6.lam[299]
    assert fit.npoints < 300


def test_tail_variance_monotone(basis5):
    s = 0.5
    tails = [tail_variance(basis5, s, j) for j in range(0, basis5.count + 1, 25)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert tail_variance(basis5, s, basis5.count) == 0.0


def test_pick_truncation_level6(basis6):
    j = pick_truncation(basis6, 0.5, budget=0.01)
    assert j == 878
    total = tail_variance(basis6, 0.5, 0)
    assert tail_variance(basis6, 0.5, j) <= 0.01 * total
    assert tail_variance(basis6, 0.5, j - 1) > 0.01 * total


@given(st.floats(0.36, 0.64), st.floats(0.005, 0.2))
@settings(max_examples=25, deadline=None)
def test_pick_truncation_minimal(s, budget):
    basis = get_basis(4)
    j = pick_truncation(basis, s, budget=budget)
    total = tail_variance(basis, s, 0)
    assert tail_variance(basis, s, j) <= budget * total
    if j > 1:
        assert tail_variance(basis, s, j - 1) > budget * total


def test_solver_error_carries_residual():
    err = SolverError("bad convergence", residual=0.125)
    assert isinstance(err, RuntimeError)
    assert err.residual == 0.125


def test_count_cannot_exceed_dimension(g3):
    s, mm = assemble_energy(g3), assemble_mass(g3)
    with pytest.raises(ValueError):
        solve_eigen(s, mm, len(g3) + 5, graph=g3)
