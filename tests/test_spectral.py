"""Eigensolver hygiene, Weyl counting, and truncation bookkeeping."""

import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gasket_fgf import spectral
from gasket_fgf.constants import MAX_LEVEL, REFERENCE_LAMBDA_1, S_MIN, SPECTRAL_EXPONENT, s_from_hurst
from gasket_fgf.fields import (
    empirical_covariance,
    sample_field,
    stream_field,
    symmetry_invariance_test,
    variogram,
)
from gasket_fgf.geometry import build_level, extract_cell, symmetry_permutation
from gasket_fgf.kernels import (
    estimate_bound_fit,
    increment_l2_check,
    kernel_matrix,
    riesz_value_quadrature,
    spectral_apply,
)
from gasket_fgf.operators import (MassMatrix, StiffnessMatrix, assemble_energy, assemble_mass,
                                  decimation_extension, parent_cells)
from gasket_fgf.spectral import (
    SolverError,
    _birth_factor,
    _decimation_levels,
    _newborn,
    canonical_eigenspaces,
    pick_truncation,
    solve_eigen,
    spectrum,
    tail_variance,
    weyl_exponent_fit,
)
from gasket_fgf.verify import check_spectral, get_basis

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


def newborn_oracle(fine, mu):
    """The oracle: each newborn function of ``fine`` as the null vector of its local problem.

    For every batch ``(support, values)`` of ``_newborn``, the columns
    ``support`` of S - lambda M on the rows of the level-(m-1) cells whose
    midpoints the support holds (three per cell, after the vertex x for
    mu = 6); a QR and an SVD of each problem alone give its unit null
    vector, signed so that its first entry is positive.  Yields
    ``(support, values, oracle)``.
    """
    corners, mids = parent_cells(fine)
    cell_of = np.empty(len(fine), dtype=np.int64)
    cell_of[mids.ravel()] = np.arange(len(mids)).repeat(3)
    op = (assemble_energy(fine).matrix - sp.diags_array(1.5 * 5.0**fine.level * mu * fine.measure)).tocsr()
    for support, values in _newborn(fine, mu):
        if not len(support):
            continue
        cells = cell_of[support[:, support.shape[1] % 3 :: 3]]
        rows = np.concatenate([corners[cells], mids[cells]], axis=2).reshape(len(cells), -1)
        r, c = np.broadcast_arrays(rows[:, :, None], support[:, None, :])
        blocks = np.asarray(op[r.ravel(), c.ravel()]).reshape(r.shape)
        oracle = np.linalg.svd(np.linalg.qr(blocks, mode="r"))[2][:, -1, :]
        yield support, values, oracle * np.copysign(1.0, oracle[:, :1])


def eigenspace_runs(basis):
    """Runs [lo, hi) of nonzero-mode indices, one per eigenspace (the last cut at ``count``)."""
    lo = [0, *basis.ends[:-1].tolist()]
    return [(a, min(b, basis.count)) for a, b in zip(lo, basis.ends.tolist())]


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


def test_streamed_columns_are_orthonormal_at_level_7():
    # the 1% budget at H = 0.3: every canonical column from one sparse
    # birth factor per eigenspace, each scaled by its own M-norm
    g = build_level(7)
    mm = assemble_mass(g)
    J = pick_truncation(spectrum(7), s_from_hurst(0.3))
    _, _, _, columns = canonical_eigenspaces(assemble_energy(g), mm, J, 0, graph=g)
    w = np.full((len(g), J), np.nan)
    for first, v, _ in columns:
        w[:, first : first + v.shape[1]] = v
    assert w.shape == (len(g), J) == (3282, 2600) and not np.isnan(w).any()
    w *= np.sqrt(mm.diagonal)[:, None]
    assert np.abs(w.T @ w - np.eye(J)).max() <= 1e-10


def test_stream_items_are_one_block_of_one_eigenspace():
    # every item of a full level-7 solve is r <= BLOCK consecutive modes of
    # one eigenspace, and the items cover each mode once
    g = build_level(7)
    _, _, ends, columns = canonical_eigenspaces(assemble_energy(g), assemble_mass(g), len(g) - 1, 0,
                                                graph=g)
    seen = np.zeros(len(g) - 1, dtype=int)
    for first, v, _ in columns:
        r = v.shape[1]
        end = ends[np.searchsorted(ends, first, side="right")]  # of the eigenspace holding `first`
        assert 1 <= r <= spectral.BLOCK and first + r <= end, (first, r)
        seen[first : first + r] += 1
    assert (seen == 1).all()


@pytest.mark.parametrize("level", range(5))
def test_spectral_check_below_level_5(level):
    # these levels have fewer nonzero modes than the 300 the check reads by default
    res = check_spectral(level=level)
    assert res.passed and res.measured["gram_deviation"] <= 1e-14, res.measured


@pytest.mark.parametrize("m", range(1, 8))
def test_each_eigenspace_is_orthonormal(m):
    # the columns of B P^T L^{-T}, each scaled by its own M-norm, with no QR
    # after them: a factor of the wrong eigenspace would show off the diagonal
    g = build_level(m)
    basis = solve_eigen(assemble_energy(g), assemble_mass(g), len(g) - 1, graph=g)
    for lo, hi in eigenspace_runs(basis):
        phi = basis.phi[:, lo:hi]
        gram = phi.T @ (basis.mass[:, None] * phi)
        assert np.abs(gram - np.eye(hi - lo)).max() <= 1e-12, (lo, hi)


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
    runs = eigenspace_runs(basis5)
    assert runs[0][0] == 0 and runs[-1][1] == basis5.count
    assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
    for lo, hi in runs:
        lam = basis5.lam[lo:hi]
        assert np.ptp(lam) <= 1e-9 * lam.max()
    # the gasket spectrum is genuinely degenerate: some run is longer than 1
    assert max(hi - lo for lo, hi in runs) > 1


@pytest.mark.parametrize("flip", ["all", "some"])
@pytest.mark.parametrize("level,word",
                         [(m, ()) for m in range(2, 7)] + [(5, (0,)), (5, (1,)), (5, (2, 1))],
                         ids=[f"L{m}" for m in range(2, 7)] + ["L5-cell0", "L5-cell1", "L5-cell21"])
def test_basis_ignores_null_vector_signs(level, word, flip, monkeypatch):
    # a null vector is fixed only up to a nonzero factor, and the basis
    # depends on it through the sign alone: scaling newborn columns by
    # positive factors before the birth factor (all of them, or about half)
    # leaves every eigenvector as it was, whether the block is scaled in
    # place or as a product, which stores its indices in another order
    rng, newborn_block = np.random.default_rng(level), spectral._newborn_block
    ref = get_basis(level, word=word)
    g = ref.graph
    for product in (False, True):
        scaled = []

        def scaled_block(fine, mu):
            block = newborn_block(fine, mu)
            factors = rng.uniform(0.5, 2.0, block.shape[1])
            if flip == "some":
                factors[rng.random(block.shape[1]) < 0.5] = 1.0
            scaled.append(int((factors != 1.0).sum()))
            if product:
                return block @ sp.diags_array(factors)
            block.data *= factors.repeat(np.diff(block.indptr))
            return block

        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_newborn_block", scaled_block)
            basis = solve_eigen(assemble_energy(g), assemble_mass(g), len(g) - 1, graph=g)
        assert sum(scaled) > 0
        assert np.abs(basis.vectors - ref.vectors).max() <= 1e-12, product


@pytest.mark.parametrize("j,trimmed", [(0, 0), (100, 80), (300, 242), (878, 728), (1094, 1094)])
def test_cluster_complete_trims(basis6, j, trimmed):
    assert basis6.cluster_complete(j) == trimmed


@pytest.mark.parametrize("count,base", [(20, 3), (80, 4), (100, 5), (242, 5), (300, 6), (800, 6)])
def test_truncated_solve_matches_full(g6, basis6, count, base):
    # modes 1..3^k - 1 of every deeper level descend from level k; counts 300
    # and 800 cut the 243..365 and the 728..1094 (mu = 6) clusters, which are
    # built whole, and only their modes up to the cut are formed
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
    with pytest.raises(ValueError, match=r"dimension 797163: 4746\.\d GiB at peak, more than"):
        solve_eigen(s, mm, n - 1)


class Untouched:
    """A stiffness that the memory check must not touch."""

    def __init__(self, n):
        self.shape = (n, n)

    def __matmul__(self, other):
        raise AssertionError("stiffness used")


def budget_draw(level):
    """The arguments of the 1% draw at H = 0.3 at ``level`` to :func:`canonical_eigenspaces`, with no operator."""
    n = (3 ** (level + 1) + 3) // 2
    J = pick_truncation(spectrum(level), s_from_hurst(0.3))
    s, mm = StiffnessMatrix(level, Untouched(n), 1.0), MassMatrix(level, np.full(n, 1.0 / n))
    return s, mm, J, 8 * (n + 3 * J), np.zeros(J)


def test_deep_budget_draw_fits_in_two_gib(monkeypatch):
    # the level-12 draw at the 1% budget (J = 69,805) passes its memory check
    # at 2 GiB, from the labels alone, and refuses 0.125 GiB; the stream
    # builds nothing until it is read
    draw = budget_draw(12)
    monkeypatch.setattr(spectral, "_available_memory", lambda: 2**31)
    _, lam, ends, _ = canonical_eigenspaces(*draw, graph=SimpleNamespace(word=()))
    assert draw[2] == len(lam) == 69805 and ends[-1] >= draw[2]
    monkeypatch.setattr(spectral, "_available_memory", lambda: 2**27)
    with pytest.raises(ValueError, match=r"dimension 797163: 0\.2 GiB at peak, more than"):
        canonical_eigenspaces(*draw, graph=SimpleNamespace(word=()))


def test_level_13_budget_draw_fits_in_one_gib(monkeypatch):
    # the deepest level: its 1% draw (J = 87,497) passes at 1 GiB and is
    # refused at 0.5 GiB, from the labels alone
    draw = budget_draw(13)
    monkeypatch.setattr(spectral, "_available_memory", lambda: 2**30)
    _, lam, ends, _ = canonical_eigenspaces(*draw, graph=SimpleNamespace(word=()))
    assert draw[2] == len(lam) == 87497 and ends[-1] >= draw[2]
    monkeypatch.setattr(spectral, "_available_memory", lambda: 2**29)
    with pytest.raises(ValueError, match=r"dimension 2391486: 0\.6 GiB at peak, more than"):
        canonical_eigenspaces(*draw, graph=SimpleNamespace(word=()))


@pytest.mark.parametrize("level,word", [(m, ()) for m in range(1, 9)] + [(6, (2,)), (8, (0, 1))])
def test_stream_eigenvalues_are_the_spectrum(level, word):
    # the stream reads its eigenvalues off the labels it keeps: the bits spectrum() gives
    g = extract_cell(build_level(level), word) if word else SimpleNamespace(word=())
    n = (3 ** (level - len(word) + 1) + 3) // 2
    s, mm = StiffnessMatrix(level, Untouched(n), 1.0), MassMatrix(level, np.full(n, 1.0 / n))
    ref = spectrum(level, word)
    for count in (1, n // 3, n - 1):
        _, lam, _, _ = canonical_eigenspaces(s, mm, count, 0, graph=g)
        np.testing.assert_array_equal(lam, ref[:count])


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
    for lo, hi in eigenspace_runs(basis):
        ours, theirs = basis.phi[:, lo:hi], psi[:, 1 + lo : 1 + hi]
        gap = (ours @ ours.T - theirs @ theirs.T) * basis.mass
        assert np.abs(gap).max() <= 1e-10, (lo, hi)


def test_spectrum_is_the_solvers(basis6, sub_basis5):
    # eigenvalues without vectors, bit for bit those of the solve
    np.testing.assert_array_equal(spectrum(6), basis6.lam)
    np.testing.assert_array_equal(spectrum(5, (0,)), sub_basis5.lam)
    assert len(spectrum(10)) == (3**11 + 3) // 2 - 1


@pytest.mark.parametrize("level,word,match", [(-1, (), r"level must lie in \[0, "),
                                              (MAX_LEVEL + 1, (), r"level must lie in \[0, "),
                                              (2, (0, 0, 0), "word longer than graph level")],
                         ids=["below-0", "above-max", "long-word"])
def test_spectrum_refuses_what_the_graphs_refuse(level, word, match):
    # build_level's and extract_cell's messages, raised before any label is counted
    with pytest.raises(ValueError, match=match):
        spectrum(level, word)


@pytest.mark.parametrize("m", range(2, 11))
def test_newborn_null_vectors(m):
    # each closed-form newborn function is a unit eigenvector of the whole
    # level-m problem, equal to the null vector of its local problem by QR
    # and SVD (up to level 9), and its first entry, which fixes that
    # vector's sign, is exactly 2 / sqrt(4 + 3k) (mu = 6, k cells) or
    # 1 / sqrt(2r) (mu = 5, r cells)
    fine = build_level(m)
    for mu in (6.0, 5.0):
        op = assemble_energy(fine).matrix - sp.diags_array(1.5 * 5.0**m * mu * fine.measure)
        batches = 0
        for support, values in _newborn(fine, mu):
            cols = np.repeat(np.arange(len(support)), support.shape[1])
            v = sp.csc_array((values.ravel(), (support.ravel(), cols)), shape=(len(fine), len(support)))
            assert np.sqrt((op @ v).power(2).sum(axis=0)).max() <= 1e-12 * abs(op).max()
            np.testing.assert_allclose(np.linalg.norm(values, axis=1), 1.0, rtol=1e-12)
            size = support.shape[1]  # 1 + 3k entries for mu = 6, 3r for mu = 5
            first = 2.0 / np.sqrt(3 + size) if mu == 6.0 else 1.0 / np.sqrt(2 * (size // 3))
            np.testing.assert_array_equal(values[:, 0], first)
            batches += len(support) > 0
        assert batches == (2 if mu == 6.0 else m - 1)
        if m <= 9:
            for support, values, oracle in newborn_oracle(fine, mu):
                np.testing.assert_allclose(values, oracle, rtol=0, atol=1e-14)


@pytest.mark.parametrize("m", range(1, 9))
def test_extension_scales_the_gram(m):
    # E(mu) multiplies the M-Gram of a whole eigenspace by one scalar c, so
    # one factor of its birth Gram serves every descendant; c is
    # gamma(mu) = (2 mu - 5)(mu - 6) / (3 (2 - mu)(5 - mu)), known before any
    # vector, but the solver reads each column's own M-norm instead: a
    # product of gamma along the path leaves a level-7 basis 2.5e-12 from
    # M-orthonormal
    levels = _decimation_levels(m)
    mu, _, parent = levels[m]
    coarse = get_basis(m - 1)
    labels = np.argsort(levels[m - 1][0], kind="stable")[1:]  # coarse eigenspaces in solve order
    runs = dict(zip(labels, eigenspace_runs(coarse)))
    fine, mass = build_level(m), coarse.mass
    for g in np.flatnonzero((parent >= 0) & (mu != 0.0)):  # every inherited eigenspace but the constant
        lo, hi = runs[parent[g]]
        u = coarse.phi[:, lo:hi]
        b = decimation_extension(u, fine, mu[g])
        gram = b.T @ (fine.measure[:, None] * b)
        base = u.T @ (mass[:, None] * u)
        c = gram[0, 0] / base[0, 0]
        assert np.abs(gram - c * base).max() <= 1e-12 * np.abs(gram).max()
        gamma = (2.0 * mu[g] - 5.0) * (mu[g] - 6.0) / (3.0 * (2.0 - mu[g]) * (5.0 - mu[g]))
        assert c == pytest.approx(gamma, rel=1e-11)


def test_solve_extends_at_one_mu(g6, monkeypatch):
    # every extension is of dense columns at one scalar mu: no sparse block
    # goes above its birth level
    seen, extend = [], spectral.decimation_extension

    def spy(u, fine, mu):
        seen.append((sp.issparse(u), np.ndim(mu)))
        return extend(u, fine, mu)

    monkeypatch.setattr(spectral, "decimation_extension", spy)
    solve_eigen(assemble_energy(g6), assemble_mass(g6), len(g6) - 1, graph=g6)
    assert len(seen) > 100 and set(seen) == {(False, 0)}


@pytest.mark.parametrize("m", range(1, 7))
def test_eigenspace_blocks_hold_at_most_3n_nonzeros(m, monkeypatch):
    # the only sparse blocks are the birth eigenspaces, each with at most
    # 3 n_j nonzeros at its birth level j; above it, the dense columns held
    # at once along the path of a full solve stay within the estimate's
    # count (_path_columns: n_j doubles per column at each level j), plus
    # the top-level columns of the last eigenspace, which its consumer holds
    levels = _decimation_levels(m)
    for j, (mu, _, parent) in enumerate(levels):
        for g in np.flatnonzero(parent < 0):
            block = spectral._birth_block(j, mu[g], g)
            assert sp.issparse(block) and block.nnz <= 3 * len(build_level(j))
    held, peak = [], [0]

    def track(f):
        def spy(*args):
            y = f(*args)
            held.append(weakref.ref(y))
            peak[0] = max(peak[0], sum(a.size for a in (r() for r in held) if a is not None))
            return y
        return spy

    monkeypatch.setattr(spectral, "decimation_extension", track(spectral.decimation_extension))
    monkeypatch.setattr(spectral, "_birth_columns", track(spectral._birth_columns))
    g = build_level(m)
    solve_eigen(assemble_energy(g), assemble_mass(g), len(g) - 1, graph=g)
    mu, mult, _ = levels[-1]
    keep = np.argsort(mu, kind="stable")[1:]
    path = spectral._path_columns(spectral._ancestors(levels, keep)[0], mult[keep])
    assert peak[0] <= sum(len(build_level(j)) * c for j, c in enumerate(path)) + len(g) * path[-1]


@pytest.mark.parametrize("m", range(1, 11))
def test_birth_factor_fill(m):
    # each birth Gram is factored sparse in the block's own column order: a
    # mu = 5 factor has exactly the entries of the Gram's upper triangle, a
    # mu = 6 one at most 1.6 times as many, so the estimate counts the
    # factor as O(n_j)
    fine = build_level(m)
    for mu in (6.0, 5.0)[:m]:
        block = spectral._newborn_block(fine, mu)
        gram = block.T @ sp.diags_array(fine.measure) @ block
        factor = _birth_factor(block, fine.measure)
        assert abs(factor.T @ factor - gram).max() <= 1e-13 * abs(gram).max()
        upper = sp.triu(gram)
        if mu == 5.0:
            assert factor.nnz == upper.nnz and ((factor != 0) != (upper != 0)).nnz == 0
        else:
            assert factor.nnz <= 1.6 * upper.nnz


def test_birth_factor_refuses_a_gram_that_is_not_positive_definite():
    # a repeated column makes the Gram singular, a negative mass makes it
    # negative definite; either stops the solve with a SolverError
    fine = build_level(3)
    block = spectral._newborn_block(fine, 6.0)
    for cols, mass in (([0, 0, *range(1, block.shape[1])], fine.measure), (slice(None), -fine.measure)):
        with pytest.raises(SolverError, match="M-Gram of a birth eigenspace"):
            _birth_factor(block[:, cols], mass)


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
    # at a small count the n x BLOCK blocks of the coefficients and the
    # residual check, not the result, make the peak
    g = build_level(7)
    s, mm = assemble_energy(g), assemble_mass(g)
    memory_bound(lambda: solve_eigen(s, mm, 50, graph=g))


def test_memory_check_bounds_a_truncated_level_8_solve(memory_bound):
    # 300 modes: wide column blocks pushed up from low births, and the
    # mu = 5 newborn of level 8 as the largest birth
    g = build_level(8)
    s, mm = assemble_energy(g), assemble_mass(g)
    memory_bound(lambda: solve_eigen(s, mm, 300, graph=g))


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
    "kernel_matrix": lambda b, J: kernel_matrix(b, 1.0, J),
    "riesz_value_quadrature": lambda b, J: riesz_value_quadrature(b, 0.5, 0, 1, J=J),
    "spectral_apply": lambda b, J: spectral_apply(b, np.sqrt, b.mass, J),
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
    # J = 0 is in range: every consumer returns, or a regression finds its window empty
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            J_CONSUMERS[consumer](basis4, 0)
        except ValueError as exc:
            assert "fit window is empty" in str(exc)


def test_full_solve_needs_no_dense_eigensolver(g6, basis6, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    basis = solve_eigen(assemble_energy(g6), assemble_mass(g6), len(g6) - 1, graph=g6)
    assert basis.count == len(g6) - 1 and basis.residual_norm <= 1e-8
    assert np.abs(basis.vectors - basis6.vectors).max() <= 1e-12


def test_weyl_exponent_level6(basis6):
    fit = weyl_exponent_fit(basis6.lam[:300])
    assert fit.slope == pytest.approx(0.723964, abs=1e-4)
    assert abs(fit.slope - SPECTRAL_EXPONENT) <= 0.05
    # log N is a coarse staircase over degenerate clusters, so r^2 is
    # moderate even when the slope is stable
    assert 0.9 < fit.r2 <= 1.0


def test_weyl_fit_needs_100_modes():
    with pytest.raises(ValueError, match="at least 100 modes"):
        weyl_exponent_fit(spectrum(6)[:99])


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


def test_tail_variance_rejects_J_outside_the_spectrum():
    for J in (-1, len(spectrum(3)) + 1):
        with pytest.raises(ValueError, match=rf"J must lie in \[0, {len(spectrum(3))}\]"):
            tail_variance(spectrum(3), 0.5, J)


@pytest.mark.parametrize("s", [S_MIN, 0.2])
def test_tail_needs_s_above_s_min(s):
    with pytest.raises(ValueError, match="square-summable"):
        tail_variance(spectrum(3), s, 0)
    with pytest.raises(ValueError, match="square-summable"):
        pick_truncation(spectrum(3), s)


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
