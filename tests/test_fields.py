"""Field sampling, duality, variograms, and distributional invariances."""

import warnings

import numpy as np
import pytest

from gasket_fgf import fields, spectral
from gasket_fgf.constants import hurst_from_s, s_from_hurst
from gasket_fgf.fields import (
    empirical_covariance,
    hoelder_statistic,
    pinned_field,
    sample_field,
    scaling_invariance_test,
    stream_field,
    symmetry_invariance_test,
    variogram,
    white_noise_pairing,
)
from gasket_fgf.geometry import build_level, extract_cell, symmetry_permutation
from gasket_fgf.kernels import increment_l2_check, kernel_matrix, pair_sample
from gasket_fgf.operators import assemble_energy, assemble_mass
from gasket_fgf.spectral import pick_truncation, solve_eigen, spectrum


def test_sample_reproducible(basis4):
    a = sample_field(basis4, 0.5, seed=42)
    b = sample_field(basis4, 0.5, seed=42)
    c = sample_field(basis4, 0.5, seed=43)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.generator == "PCG64"
    assert a.seed == 42
    assert a.hurst == pytest.approx(hurst_from_s(0.5))


# fixed-seed field values (s = 0.5, seed 7) at a dozen vertices: a
# realisation is a function of (level, s, seed, J), so these move only with
# a change to the canonical eigenspace bases or to the coefficient stream
GOLDEN_L6 = [0, 1, 2, 3, 10, 57, 100, 250, 400, 611, 800, 1094]
GOLDEN_SUB5 = [0, 1, 2, 3, 7, 15, 30, 44, 61, 80, 100, 122]
GOLDEN_FIELDS = {
    "full-J878": [
        -0.4312143774935996, 0.19416878553224703, -0.15203068328043945, 0.18804302968089823,
        -0.024906433176802394, -0.32646258039007714, -0.46538470153079636, 0.24967422680881513,
        -0.1855725717023168, 0.3635719629542272, 0.1804650783643723, 0.14410323752367332,
    ],
    "count300": [
        -0.40230056941913395, 0.18573408585380935, 0.028138917497753907, 0.2066463438662559,
        -0.11209151760127159, -0.3345071750542045, -0.48605595202939167, 0.07657156940839271,
        -0.17401854262821684, 0.3457262545977832, 0.23459728258313173, 0.10477046418720354,
    ],
    "sub5": [
        0.17471780390040492, -0.0005514176313000177, -0.33560265909897, 0.23556257109175666,
        -0.21302694198355113, -0.21288290663684115, -0.17273257252320115, 0.08787966784868831,
        -0.29100548367486645, -0.054503140318355014, -0.20560574223127043, 0.12614314560619452,
    ],
}


def test_golden_fields(g6, basis6, sub_basis5):
    short = solve_eigen(assemble_energy(g6), assemble_mass(g6), 300, graph=g6)
    cases = {
        "full-J878": sample_field(basis6, 0.5, 7, J=878).values[GOLDEN_L6],
        "count300": sample_field(short, 0.5, 7).values[GOLDEN_L6],
        "sub5": sample_field(sub_basis5, 0.5, 7).values[GOLDEN_SUB5],
    }
    for name, values in cases.items():
        np.testing.assert_allclose(values, GOLDEN_FIELDS[name], rtol=0, atol=1e-10, err_msg=name)


def budget_modes(level, s, J):
    """J itself, or the J of a 1% tail budget at ``level`` for J = None."""
    return pick_truncation(spectrum(level), s, budget=0.01) if J is None else J


@pytest.mark.parametrize("level,word,J", [
    pytest.param(5, (), None, id="l5-budget"),
    pytest.param(6, (), None, id="l6-budget"),
    pytest.param(7, (), None, id="l7-budget"),
    pytest.param(6, (), 300, id="l6-cut300"),
    pytest.param(6, (1,), 200, id="sub6-cut200"),
])
def test_stream_field_is_the_basis_field(level, word, J):
    # the same draws on the same canonical modes, one eigenspace block at a
    # time; mode 300 of level 6 cuts the 243..365 eigenspace, and a
    # sub-gasket renumbers the rows of each block
    s, g = s_from_hurst(0.3), extract_cell(build_level(level), word)
    S, M, J = assemble_energy(g), assemble_mass(g), budget_modes(level, s, J)
    ref = sample_field(solve_eigen(S, M, J, graph=g), s, 12345)
    got = stream_field(S, M, s, 12345, J, graph=g)
    np.testing.assert_array_equal(got.coefficients, ref.coefficients)
    np.testing.assert_allclose(got.values, ref.values, rtol=0, atol=1e-12)
    assert (got.level, got.s, got.hurst, got.modes, got.seed) == (ref.level, ref.s, ref.hurst, J, 12345)


def test_stream_field_without_modes_solves_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("no eigenspace may be built for J = 0")

    monkeypatch.setattr(spectral, "_eigenspace_blocks", refuse)
    g = build_level(5)
    got = stream_field(assemble_energy(g), assemble_mass(g), 0.5, 3, 0, graph=g)
    assert got.modes == 0 and len(got.coefficients) == 0
    assert got.values.shape == (len(g),) and not got.values.any()


@pytest.mark.parametrize("level", [6, 7])
@pytest.mark.parametrize("J", [1, 2, 10, None], ids=["J1", "J2", "J10", "budget"])
def test_stream_field_memory_check_bounds_peak(memory_bound, level, J):
    # no n x J array: the estimate holds the stream and the field, and the
    # level-7 budget draw peaks below the 68 MB of the basis it no longer forms
    s, g, budget = s_from_hurst(0.3), build_level(level), J is None
    S, M, J = assemble_energy(g), assemble_mass(g), budget_modes(level, s, J)
    peak = memory_bound(lambda: stream_field(S, M, s, 1, J, graph=g))
    if budget and level == 7:
        assert peak < 8 * len(g) * J


def test_sample_is_spectral_synthesis(basis4):
    smp = sample_field(basis4, 0.55, seed=1, J=40)
    assert smp.modes == 40
    assert len(smp.coefficients) == 40
    # coefficients are the raw gaussian draws; values carry lambda^{-s}
    recon = basis4.phi[:, :40] @ (basis4.lam[:40] ** -0.55 * smp.coefficients)
    np.testing.assert_allclose(smp.values, recon, atol=1e-12)
    assert np.std(smp.coefficients) == pytest.approx(1.0, abs=0.35)


def test_sample_mean_zero(basis4):
    smp = sample_field(basis4, 0.5, seed=7)
    assert abs(basis4.mass @ smp.values) <= 1e-12


def test_sample_j_validation(basis4):
    with pytest.raises(ValueError):
        sample_field(basis4, 0.5, seed=0, J=basis4.count + 1)
    with pytest.raises(ValueError):
        sample_field(basis4, 0.2, seed=0)


def test_pinned_field(basis4):
    smp = sample_field(basis4, 0.5, seed=5)
    pinned = pinned_field(smp, q=2)
    assert pinned.values[2] == 0.0
    np.testing.assert_allclose(
        np.diff(pinned.values), np.diff(smp.values), atol=1e-12)


@pytest.mark.parametrize("q", [-1, 123])
def test_pinned_vertex_must_exist(basis4, q):
    # q = -1 would pin the last vertex through Python's negative indexing
    with pytest.raises(ValueError, match=r"pinned vertex must lie in \[0, 122\]"):
        pinned_field(sample_field(basis4, 0.5, seed=5), q=q)


def test_white_noise_pairing_per_mode(basis4):
    smp = sample_field(basis4, 0.5, seed=9)
    for j in (0, 3, 17):
        lhs, rhs = white_noise_pairing(smp, basis4, basis4.phi[:, j])
        assert lhs == pytest.approx(rhs, abs=1e-10)
        # pairing against mode j recovers that mode's raw noise draw
        assert rhs == pytest.approx(smp.coefficients[j], abs=1e-10)


def test_white_noise_pairing_random_f(basis4, rng):
    smp = sample_field(basis4, 0.5, seed=9)
    for _ in range(20):
        f = basis4.phi @ rng.standard_normal(basis4.count)
        lhs, rhs = white_noise_pairing(smp, basis4, f)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_white_noise_pairing_s_mismatch(basis4):
    smp = sample_field(basis4, 0.5, seed=9)
    with pytest.raises(ValueError):
        white_noise_pairing(smp, basis4, basis4.phi[:, 0], s=0.6)


def test_empirical_covariance_small(basis4):
    seeds = np.random.SeedSequence(3).spawn(1500)
    iu, ju = np.triu_indices(len(basis4.graph), 1)
    sel = np.random.default_rng(5).choice(len(iu), 10, replace=False)
    pairs = np.column_stack([iu[sel], ju[sel]])
    rep = empirical_covariance(basis4, 0.5, seeds, pairs)
    assert rep.replications == 1500
    assert rep.npairs == 10
    assert rep.max_abs_z == pytest.approx(1.9591, abs=1e-3)
    assert rep.passed


def test_empirical_covariance_needs_replications(basis4):
    seeds = np.random.SeedSequence(3).spawn(999)
    with pytest.raises(ValueError):
        empirical_covariance(basis4, 0.5, seeds, [(0, 1)])


def test_variogram_exact_level5(basis5):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = variogram(basis5, 0.5)
    assert rep.mode == "exact"
    assert rep.npairs == 66_795  # all pairs: below the subsample cutoff
    assert rep.slope == pytest.approx(0.78136, abs=1e-3)
    target = 2 * hurst_from_s(0.5)
    assert abs(rep.slope - target) <= 0.1


def test_variogram_mc_converges(basis5):
    seeds = np.random.SeedSequence(11).spawn(60)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = variogram(basis5, 0.5, seeds=seeds, mode="mc")
    assert rep.mode == "mc"
    assert rep.replications == 60
    assert rep.slope == pytest.approx(0.7603, abs=1e-3)
    assert rep.half_width < 0.05
    assert abs(rep.slope - 2 * hurst_from_s(0.5)) <= 2 * max(rep.half_width, 0.05)


def seed_major_blocks(basis, s, seeds, J, verts=slice(None)):
    """Monte Carlo field values one row per seed, MC_CHUNK seeds per block."""
    phi = basis.phi[verts, :J]
    scale = basis.lam[:J] ** (-float(s))
    for lo in range(0, len(seeds), fields.MC_CHUNK):
        noise = [np.random.default_rng(sd).standard_normal(J) for sd in seeds[lo : lo + fields.MC_CHUNK]]
        yield (np.array(noise) * scale) @ phi.T


def column_gather_increments(basis, s, seeds, J, iu, ju):
    """Mean squared increments gathered column by column from seed-major blocks."""
    acc = np.zeros(len(iu))
    for x in seed_major_blocks(basis, s, seeds, J):
        acc += ((x[:, iu] - x[:, ju]) ** 2).sum(axis=0)
    return acc / len(seeds)


@pytest.mark.parametrize("level,nseeds", [(4, 120), (6, 1030)])
def test_variogram_mc_equals_column_gather(request, monkeypatch, level, nseeds):
    # vertex-major blocks gather whole rows; the report is bit for bit the
    # seed-major one (1,030 seeds leave a partial last block)
    basis = request.getfixturevalue(f"basis{level}")
    J = pick_truncation(basis, 0.5)
    seeds = np.random.default_rng(level).integers(0, 2**63, nseeds).tolist()
    iu, ju, _ = pair_sample(basis.graph)
    np.testing.assert_array_equal(fields._mc_increments(basis, 0.5, seeds, J, iu[:5000], ju[:5000]),
                                  column_gather_increments(basis, 0.5, seeds, J, iu[:5000], ju[:5000]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = variogram(basis, 0.5, seeds=seeds, mode="mc", J=J)
        monkeypatch.setattr(fields, "_mc_increments", column_gather_increments)
        ref = variogram(basis, 0.5, seeds=seeds, mode="mc", J=J)
    assert rep == ref
    assert rep.replications == nseeds


@pytest.mark.parametrize("level", [5, 6])
def test_empirical_covariance_matches_kernel_matrix(request, level):
    # the exact G_2s from the rows the pairs touch, against the dense kernel
    basis = request.getfixturevalue(f"basis{level}")
    J = pick_truncation(basis, 0.5)
    n = len(basis.graph)
    rng = np.random.default_rng(level)
    pairs = np.column_stack([rng.choice(n, 100), rng.choice(n, 100)])
    seeds = rng.integers(0, 2**63, 1000).tolist()
    rep = empirical_covariance(basis, 0.5, seeds, pairs, J=J)
    prod = np.concatenate([x[:, pairs[:, 0]] * x[:, pairs[:, 1]]
                           for x in seed_major_blocks(basis, 0.5, seeds, J)])
    exact = kernel_matrix(basis, 1.0, J)[pairs[:, 0], pairs[:, 1]]
    z = (prod.mean(axis=0) - exact) / (prod.std(axis=0, ddof=1) / np.sqrt(len(seeds)))
    assert abs(rep.max_abs_z - np.abs(z).max()) <= 1e-12


def test_variogram_window_validation(basis5):
    with pytest.raises(ValueError):
        variogram(basis5, 0.5, window=(2.0 ** -4, 2.0 ** -1))  # hi too large
    with pytest.raises(ValueError):
        variogram(basis5, 0.5, window=(2.0 ** -9, 2.0 ** -2))  # lo below mesh
    with pytest.raises(ValueError):
        variogram(basis5, 0.5, window=(2.0 ** -4, 2.0 ** -2))  # < 3 octaves
    with pytest.raises(ValueError):
        variogram(basis5, 0.5, mode="mc")  # mc needs seeds


def test_hoelder_bounded_for_true_exponent(basis6):
    smp = sample_field(basis6, 0.5, seed=5000, J=basis6.cluster_complete(878))
    rep = hoelder_statistic(smp, basis6.graph, smp.hurst)
    assert rep.verdict == "bounded"
    assert rep.ratio == pytest.approx(0.7768, abs=1e-3)
    assert rep.hurst_claim == smp.hurst
    assert len(rep.values) == len(rep.deltas) == 3


def test_hoelder_overclaim_raises_slope_gap(basis6):
    wide = tuple(2.0 ** -k for k in range(2, 7))
    for seed in (5000, 5001, 5002):
        smp = sample_field(basis6, 0.5, seed=seed, J=basis6.cluster_complete(878))
        true = hoelder_statistic(smp, basis6.graph, smp.hurst, deltas=wide)
        over = hoelder_statistic(smp, basis6.graph, smp.hurst + 0.2, deltas=wide)
        # weighting by an overstated exponent inflates the small-delta
        # statistic, dragging the log-log slope down
        assert true.slope - over.slope > 0.1


def _hoelder_values_all_pairs(sample, graph, hurst_claim, deltas):
    """The annulus sups over the ``triu_indices`` list of every vertex pair."""
    pts = graph.points
    iu, ju = np.triu_indices(len(graph), 1)
    dp = np.linalg.norm(pts[iu] - pts[ju], axis=1)
    dx = np.abs(sample.values[iu] - sample.values[ju])
    values = []
    for d in deltas:
        msk = (dp > d / 2.0) & (dp <= d)
        w = dp[msk] ** float(hurst_claim) * np.sqrt(np.abs(np.log(dp[msk])))
        values.append(float((dx[msk] / w).max()) if msk.any() else float("nan"))
    return values


@pytest.mark.parametrize("level", [4, 5, 6])
@pytest.mark.parametrize("deltas", [(2.0 ** -3, 2.0 ** -4, 2.0 ** -5),
                                    tuple(2.0 ** -k for k in range(2, 7))], ids=["default", "wide"])
def test_hoelder_matches_all_pairs(request, level, deltas):
    basis = request.getfixturevalue(f"basis{level}")
    smp = sample_field(basis, 0.5, seed=5000)
    rep = hoelder_statistic(smp, basis.graph, smp.hurst, deltas)
    np.testing.assert_array_equal(rep.values,
                                  _hoelder_values_all_pairs(smp, basis.graph, smp.hurst, deltas))


def test_hoelder_inconclusive_when_annulus_empty(basis4):
    smp = sample_field(basis4, 0.5, seed=3)
    rep = hoelder_statistic(smp, basis4.graph, smp.hurst,
                            deltas=(2.0 ** -5, 2.0 ** -6))
    assert np.isnan(rep.ratio)
    assert rep.verdict == "inconclusive"


def test_hoelder_delta_validation(basis4):
    smp = sample_field(basis4, 0.5, seed=3)
    with pytest.raises(ValueError):
        hoelder_statistic(smp, basis4.graph, smp.hurst, deltas=(0.5,))


def test_symmetry_invariance(basis4):
    for i in (1, 2, 3):
        sym = symmetry_permutation(basis4.graph, i)
        rep = symmetry_invariance_test(basis4, 0.5, sym)
        assert rep.passed
        assert rep.kind == "symmetry"
        assert rep.params["reflection"] == i
        assert rep.measured["kernel_deviation"] <= 1e-8
        assert rep.measured["corner_variance_spread"] <= 1e-8


def test_symmetry_detects_broken_map(basis4):
    sym = symmetry_permutation(basis4.graph, 1)
    bad = np.array(sym.permutation)
    # transpose two non-equivalent vertices: no longer an isometry
    interior = [v.id for v in basis4.graph.vertices if not v.is_boundary]
    bad[[interior[0], interior[3]]] = bad[[interior[3], interior[0]]]
    broken = type(sym)(index=1, permutation=bad, fixed_vertex=sym.fixed_vertex)
    rep = symmetry_invariance_test(basis4, 0.5, broken)
    assert not rep.passed


def test_scaling_invariance(basis4, sub_basis5):
    rep = scaling_invariance_test(basis4, sub_basis5, 0.5)
    assert rep.passed
    assert rep.kind == "scaling"
    assert rep.measured["eigenvalue_deviation"] <= 1e-10
    assert rep.measured["kernel_deviation"] <= 1e-10
    # 2^{-2H} = 3/5 exactly when s = 1/2
    assert rep.params["covariance_ratio"] == pytest.approx(0.6, abs=1e-12)
    assert rep.params["word"] == [0]


def test_scaling_level_mismatch(basis4, basis5):
    with pytest.raises(ValueError):
        scaling_invariance_test(basis4, basis5, 0.5)


def test_field_variance_matches_kernel_diagonal(basis4):
    # across replications the per-vertex variance follows G_2s(x,x)
    reps = np.stack([sample_field(basis4, 0.5, seed=k).values
                     for k in range(400)])
    var = reps.var(axis=0)
    diag = np.diag(kernel_matrix(basis4, 1.0))
    ratio = var / diag
    assert np.median(ratio) == pytest.approx(1.0, abs=0.15)

def test_variogram_mc_takes_a_seed_array(basis4):
    # the seeds are counted after list(seeds), so an array works as a list does
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = variogram(basis4, 0.5, seeds=np.arange(100), mode="mc")
        ref = variogram(basis4, 0.5, seeds=list(range(100)), mode="mc")
    assert got == ref and got.replications == 100
    with pytest.raises(ValueError, match="mc mode needs a list of replication seeds"):
        variogram(basis4, 0.5, seeds=np.arange(0), mode="mc")


def test_stream_field_reads_J_as_sample_field_does(basis4):
    # None is every mode and a float J is turned into an int, as in SpectralBasis.truncation
    g = basis4.graph
    S, M = assemble_energy(g), assemble_mass(g)
    full, ref = stream_field(S, M, 0.5, 9), sample_field(basis4, 0.5, 9)
    assert full.modes == ref.modes == len(g) - 1
    np.testing.assert_array_equal(full.coefficients, ref.coefficients)
    np.testing.assert_allclose(full.values, ref.values, rtol=0, atol=1e-12)
    a, b = stream_field(S, M, 0.5, 9, 10.0), stream_field(S, M, 0.5, 9, 10)
    assert a.modes == 10 and type(a.modes) is int
    np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.parametrize("level", [5, 6])
@pytest.mark.parametrize("s", [0.4, 0.5, 0.6])
def test_exact_variogram_is_the_increment_fit(request, level, s):
    # both regress the exact squared increments of G_2s on the same pairs and bins
    basis = request.getfixturevalue(f"basis{level}")
    for J in (pick_truncation(spectrum(level), s, budget=0.01), None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vg = variogram(basis, s, J=J)
            inc = increment_l2_check(basis, s, J=J)
        assert vg.slope == inc.slope
        assert inc.floor == 2 * hurst_from_s(s) - 0.2
