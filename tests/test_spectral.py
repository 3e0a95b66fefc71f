"""Eigensolver hygiene, Weyl counting, and truncation bookkeeping."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gasket_fgf import spectral
from gasket_fgf.constants import REFERENCE_LAMBDA_1, SPECTRAL_EXPONENT
from gasket_fgf.fields import (
    empirical_covariance,
    sample_field,
    stream_field,
    symmetry_invariance_test,
    variogram,
)
from gasket_fgf.geometry import build_level, extract_cell, symmetry_permutation
from gasket_fgf.kernels import (
    apply_fractional_laplacian,
    estimate_bound_fit,
    heat_envelope_constant,
    heat_matrix,
    heat_min,
    increment_l2_check,
    kernel_matrix,
    riesz_value_quadrature,
)
from gasket_fgf.operators import MassMatrix, StiffnessMatrix, assemble_energy, assemble_mass
from gasket_fgf.spectral import (
    SolverError,
    _canonical_basis,
    _decimation_levels,
    _newborn,
    counting_function,
    pick_truncation,
    solve_eigen,
    spectrum,
    tail_variance,
    weyl_exponent_fit,
)
from gasket_fgf.verify import get_basis

# second Neumann eigenvalue of the renormalized level-m problems; the
# sequence converges geometrically (ratio ~1/5) toward the gasket value
LAMBDA_1 = {3: 26.918846, 4: 27.075234, 5: 27.106584, 6: 27.112857, 7: 27.114112}


def dense_eigen(stiffness, mass):
    """The oracle: every eigenpair by dense LAPACK in coordinates D^{-1/2} S D^{-1/2}.

    Returns the eigenvalues and M-orthonormal eigenvectors.
    """
    d = 1.0 / np.sqrt(mass.diagonal)
    a = stiffness.matrix.toarray() * d[:, None] * d[None, :]
    w, psi = scipy.linalg.eigh(0.5 * (a + a.T))
    return w, psi * d[:, None]


def birth_levels(levels):
    """Level at which each top-level eigenspace of ``_decimation_levels`` was born."""
    born = np.zeros(len(levels[0][0]), dtype=np.int64)
    for j, (_, _, parent) in enumerate(levels[1:], start=1):
        born = np.where(parent >= 0, born[np.maximum(parent, 0)], j)
    return born


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
    for lo, hi in basis5.clusters():
        block = sp.csc_array(vectors[:, 1 + lo : 1 + hi])
        vectors[:, 1 + lo : 1 + hi] = block @ _canonical_basis(block, basis5.mass, lo, hi - lo)
    assert np.abs(vectors - basis5.vectors).max() <= 1e-10


@pytest.mark.parametrize("j,trimmed", [(0, 0), (100, 80), (300, 242), (878, 728), (1094, 1094)])
def test_cluster_complete_trims(basis6, j, trimmed):
    assert basis6.cluster_complete(j) == trimmed


@pytest.mark.parametrize("count,base", [(20, 3), (80, 4), (100, 5), (242, 5), (300, 6), (800, 6)])
def test_truncated_solve_matches_full(g6, basis6, count, base):
    # modes 1..3^k - 1 of every deeper level descend from level k; counts 300
    # and 800 cut the 243..365 and the 728..1094 (mu = 6) clusters, which are
    # built whole and canonicalized only up to the cut
    levels = _decimation_levels(6)
    mu, mult, _ = levels[-1]
    order = np.argsort(mu)
    held = order[: np.searchsorted(np.cumsum(mult[order]), count + 1) + 1]
    assert birth_levels(levels)[held].max() <= base
    s, mm = assemble_energy(g6), assemble_mass(g6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis = solve_eigen(s, mm, count, graph=g6)
    assert basis.count == count
    assert basis.cluster_complete(count) == basis6.cluster_complete(count)
    np.testing.assert_array_equal(basis.lambdas, basis6.lambdas[: count + 1])
    assert np.abs(basis.vectors - basis6.vectors[:, : count + 1]).max() <= 1e-12


def test_deep_truncated_solve_fails_before_dense_allocation():
    class NoDense:  # a level-12 stiffness that must never be touched
        shape = (797163, 797163)

        def toarray(self):
            raise AssertionError("dense allocation")

        def __matmul__(self, other):
            raise AssertionError("stiffness used")

    n = NoDense.shape[0]
    s, mm = StiffnessMatrix(12, NoDense(), 1.0), MassMatrix(12, np.full(n, 1.0 / n))
    with pytest.raises(ValueError, match=r"dimension 797163: 6918\.\d GiB at peak, more than"):
        solve_eigen(s, mm, n - 1)


@pytest.mark.parametrize("m", range(1, 11))
def test_decimation_labels_count_every_mode(m):
    # eigenvalues only: no vector is built
    mu, mult, parent = _decimation_levels(m)[-1]
    nonzero = mu != 0.0
    inherited, newborn = mult[nonzero & (parent >= 0)].sum(), mult[parent < 0].sum()
    assert inherited + newborn == (3 ** (m + 1) + 3) // 2 - 1
    assert mult[mu == 6.0].sum() == (3**m + 3) // 2
    assert mult[mu == 5.0].sum() == (3 ** (m - 1) - 1) // 2
    assert np.unique(mu).size == mu.size  # one eigenvalue per label
    # the distinct nonzero values are the clusters the dense solver found
    assert nonzero.sum() == {6: 95, 7: 191}.get(m, nonzero.sum())


@pytest.mark.parametrize("level,word",
                         [(m, ()) for m in range(1, 7)] + [(5, (0,)), (5, (1,)), (5, (2, 1))],
                         ids=[f"L{m}" for m in range(1, 7)] + ["L5-cell0", "L5-cell1", "L5-cell21"])
def test_decimation_matches_dense_oracle(level, word):
    basis = get_basis(level, word=word)
    g = basis.graph
    w, psi = dense_eigen(assemble_energy(g), assemble_mass(g))
    assert basis.count == len(g) - 1
    np.testing.assert_allclose(basis.lam, w[1:], rtol=1e-10)
    for lo, hi in basis.clusters():
        ours, theirs = basis.phi[:, lo:hi], psi[:, 1 + lo : 1 + hi]
        gap = (ours @ ours.T - theirs @ theirs.T) * basis.mass
        assert np.abs(gap).max() <= 1e-10, (lo, hi)


def test_spectrum_is_the_solvers(basis6, sub_basis5):
    # eigenvalues without vectors, bit for bit those of the solve
    np.testing.assert_array_equal(spectrum(6), basis6.lam)
    np.testing.assert_array_equal(spectrum(5, (0,)), sub_basis5.lam)
    assert len(spectrum(10)) == (3**11 + 3) // 2 - 1


@pytest.mark.parametrize("m", range(2, 7))
def test_newborn_null_vectors(m):
    # each newborn function is a unit eigenvector of the whole level-m problem
    fine = build_level(m)
    for mu in (6.0, 5.0):
        op = assemble_energy(fine).matrix - sp.diags_array(1.5 * 5.0**m * mu * fine.measure)
        for support, values in _newborn(fine, mu):
            cols = np.repeat(np.arange(len(support)), support.shape[1])
            v = sp.csc_array((values.ravel(), (support.ravel(), cols)), shape=(len(fine), len(support)))
            resid = np.linalg.norm((op @ v).toarray(), axis=0)
            assert resid.max() <= 1e-12 * abs(op).max()
            np.testing.assert_allclose(np.linalg.norm(values, axis=1), 1.0, rtol=1e-12)


def test_solve_extends_sparse_blocks_at_one_mu(g6, monkeypatch):
    # every eigenspace of every level is a sparse block, extended at its own scalar mu
    seen, extend = [], spectral.decimation_extension

    def spy(u, fine, mu):
        seen.append((sp.issparse(u), np.ndim(mu)))
        return extend(u, fine, mu)

    monkeypatch.setattr(spectral, "decimation_extension", spy)
    solve_eigen(assemble_energy(g6), assemble_mass(g6), len(g6) - 1, graph=g6)
    assert len(seen) > 100 and set(seen) == {(True, 0)}


@pytest.mark.parametrize("m", range(1, 7))
def test_eigenspace_blocks_hold_at_most_3n_nonzeros(m):
    # the memory estimate counts 3 n nonzeros per eigenspace: each function
    # lives on the cells one level above its birth around its support
    levels = _decimation_levels(m)
    mu = levels[-1][0]
    blocks = list(spectral._eigenspace_blocks(levels, np.argsort(mu, kind="stable")[1:]))
    assert all(sp.issparse(b) and b.format == "csc" for b in blocks)
    assert max(b.nnz for b in blocks) <= 3 * len(build_level(m))


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
def test_tolerance_must_be_finite_and_positive(g3, tol):
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        solve_eigen(assemble_energy(g3), assemble_mass(g3), 10, tol=tol, graph=g3)


def test_sub_gasket_needs_its_graph():
    g = extract_cell(build_level(4), (1,))
    with pytest.raises(ValueError, match="sub-gasket: pass its graph"):
        solve_eigen(assemble_energy(g), assemble_mass(g), 5)


def test_full_solve_attaches_its_graph(basis4):
    g = build_level(4)
    basis = solve_eigen(assemble_energy(g), assemble_mass(g), len(g) - 1)
    assert basis.graph is build_level(4)
    assert variogram(basis, 0.5) == variogram(basis4, 0.5)


def test_memory_check_counts_block_temporaries(memory_bound):
    # at a small count the n x BLOCK blocks of the probe and the residual
    # check, not the result, make the peak
    g = build_level(7)
    s, mm = assemble_energy(g), assemble_mass(g)
    memory_bound(lambda: solve_eigen(s, mm, 50, graph=g))


@pytest.mark.parametrize("level", [6, 7])
@pytest.mark.parametrize("count", [1, 2, 10])
def test_memory_check_bounds_small_counts(memory_bound, level, count):
    # at the smallest counts the O(n) index arrays and operators of the
    # construction, not the column blocks, make the peak
    g = build_level(level)
    s, mm = assemble_energy(g), assemble_mass(g)
    memory_bound(lambda: solve_eigen(s, mm, count, graph=g))


@pytest.mark.parametrize("level,word,count", [
    pytest.param(7, (1,), 50, id="count50"),
    pytest.param(7, (1,), None, id="full"),
    *(pytest.param(5, (0,), c, id=f"n123-count{c}") for c in (1, 2, 10)),
])
def test_memory_check_bounds_sub_gasket(memory_bound, level, word, count):
    # a sub-gasket renumbers the rows of each block, not of a second result;
    # at n = 123 the fixed overhead (FIXED_BYTES) outweighs every O(n) term
    g = extract_cell(build_level(level), word)
    s, mm = assemble_energy(g), assemble_mass(g)
    count = len(g) - 1 if count is None else count
    memory_bound(lambda: solve_eigen(s, mm, count, graph=g))


J_CONSUMERS = {
    "heat_matrix": lambda b, J: heat_matrix(b, 0.1, J),
    "heat_envelope_constant": lambda b, J: heat_envelope_constant(b, J=J),
    "heat_min": lambda b, J: heat_min(b, 0.1, J),
    "kernel_matrix": lambda b, J: kernel_matrix(b, 1.0, J),
    "riesz_value_quadrature": lambda b, J: riesz_value_quadrature(b, 0.5, 0, 1, J=J),
    "apply_fractional_laplacian": lambda b, J: apply_fractional_laplacian(b, 0.5, b.mass, J),
    "estimate_bound_fit": lambda b, J: estimate_bound_fit(b, 0.5, J=J),
    "increment_l2_check": lambda b, J: increment_l2_check(b, 0.5, J=J),
    "sample_field": lambda b, J: sample_field(b, 0.5, 1, J=J),
    "stream_field":
        lambda b, J: stream_field(assemble_energy(b.graph), assemble_mass(b.graph), 0.5, 1, J),
    "empirical_covariance": lambda b, J: empirical_covariance(b, 0.5, range(1000), [(0, 1)], J=J),
    "variogram": lambda b, J: variogram(b, 0.5, J=J),
    "symmetry_invariance_test":
        lambda b, J: symmetry_invariance_test(b, 0.5, symmetry_permutation(b.graph, 1), J),
}


@pytest.mark.parametrize("consumer", sorted(J_CONSUMERS))
def test_truncation_checked_in_one_place(basis4, consumer):
    for J in (-1, basis4.count + 1):
        with pytest.raises(ValueError, match=rf"^J must lie in \[0, {basis4.count}\]$"):
            J_CONSUMERS[consumer](basis4, J)


def test_full_solve_needs_no_dense_eigensolver(g6, basis6, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    basis = solve_eigen(assemble_energy(g6), assemble_mass(g6), len(g6) - 1, graph=g6)
    assert basis.count == len(g6) - 1 and basis.residual_norm <= 1e-8
    assert np.abs(basis.vectors - basis6.vectors).max() <= 1e-12


def test_counting_function_right_continuous(basis5):
    t = float(basis5.lam[5])
    n = counting_function(basis5, t)
    assert n >= 6
    assert counting_function(basis5, t * (1 - 1e-6)) < n
    assert counting_function(basis5, 0.0) == 0
    with pytest.raises(ValueError):
        counting_function(basis5, -1.0)


def test_counting_function_reads_the_level_spectrum(basis5):
    # a truncated solve still counts every eigenvalue of its level
    g = basis5.graph
    b50 = solve_eigen(assemble_energy(g), assemble_mass(g), 50)
    t = float(basis5.lam[199])
    assert counting_function(b50, t) == 200
    assert counting_function(basis5, t) == counting_function(spectrum(5), t) == 200


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


def test_truncation_reads_the_level_spectrum(g6, basis6):
    # a truncated basis, the full one and the bare eigenvalues give the same tail and J
    s, mm = assemble_energy(g6), assemble_mass(g6)
    short = solve_eigen(s, mm, 100, graph=g6)
    for spec in (short, spectrum(6)):
        assert tail_variance(spec, 0.5, 100) == tail_variance(basis6, 0.5, 100) > 0
        assert pick_truncation(spec, 0.5, budget=0.01) == pick_truncation(basis6, 0.5, budget=0.01)


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


@pytest.mark.parametrize("s", [0.5, 0.8])
@pytest.mark.parametrize("m", range(1, 9))
def test_pick_truncation_zero_budget_keeps_every_mode(m, s):
    # the tail past the last mode is exactly 0, whatever the rounding of the sums
    lam = spectrum(m)
    assert pick_truncation(lam, s, budget=0.0) == len(lam)


@pytest.mark.parametrize("budget", [-0.5, 1.5, float("nan")])
def test_pick_truncation_rejects_budget_outside_unit_interval(budget):
    with pytest.raises(ValueError, match=r"budget must lie in \[0, 1\]"):
        pick_truncation(spectrum(4), 0.5, budget=budget)


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


def test_residual_check_refuses_a_tighter_tolerance(g3):
    # each block is checked as it is formed; the first one over tol stops the solve
    with pytest.raises(SolverError) as exc:
        solve_eigen(assemble_energy(g3), assemble_mass(g3), 10, tol=1e-30, graph=g3)
    assert exc.value.residual > 1e-30


def test_count_cannot_exceed_dimension(g3):
    s, mm = assemble_energy(g3), assemble_mass(g3)
    with pytest.raises(ValueError):
        solve_eigen(s, mm, len(g3) + 5, graph=g3)
