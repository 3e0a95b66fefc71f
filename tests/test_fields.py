"""Field sampling, duality, variograms, and distributional invariances."""

import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from gasket_fgf import fields, kernels, spectral
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
)
from gasket_fgf.geometry import build_level, extract_cell, symmetry_permutation
from gasket_fgf.kernels import _pair_kernel, estimate_bound_fit, increment_l2_check, kernel_matrix, pair_sample
from gasket_fgf.operators import assemble_energy, assemble_mass
from gasket_fgf.spectral import pick_truncation, solve_eigen, spectrum
from gasket_fgf.verify import get_basis


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
        -0.5513782855391789, -0.2838642897711942, -0.08303693812250458, 0.47252378267951434,
        0.1138516503755235, 0.5112439228101227, -0.06935101901557753, -0.016203572749726364,
        0.11118523743009422, 0.2721907990883729, 0.1617835902756982, -0.1810581124558401,
    ],
    "count300": [
        -0.37820040762248475, -0.2880431325699641, -0.1663218692418048, 0.36125186072466325,
        0.05285541985574732, 0.43074756718988827, -0.06941802582044711, 0.10301293050219956,
        0.08512825191269062, 0.21018906909970952, 0.12553086854856454, -0.16760880121563584,
    ],
    "sub5": [
        -0.25545188598437435, -0.19035702932138346, -0.15754538573715943, 0.3506318769004129,
        0.02252897332258064, -0.15810116815050573, 0.2000629319878414, -0.20822993029989334,
        0.005613298721071083, 0.15159358177199775, 0.03341872996775399, -0.11207264804360695,
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


def budget_modes(level, s, J, word=()):
    """J itself, or the J of a 1% tail budget at ``level`` (of cell ``word``) for J = None."""
    return pick_truncation(spectrum(level, word), s, budget=0.01) if J is None else J


@pytest.mark.parametrize("level,word,J", [
    pytest.param(5, (), None, id="l5-budget"),
    pytest.param(6, (), None, id="l6-budget"),
    pytest.param(7, (), None, id="l7-budget"),
    pytest.param(6, (), 300, id="l6-cut300"),
    pytest.param(6, (1,), 200, id="sub6-cut200"),
    pytest.param(3, (), None, id="l3-budget"),
    pytest.param(4, (), None, id="l4-budget"),
    pytest.param(8, (), None, id="l8-budget"),
    pytest.param(6, (), 1, id="l6-J1"),
    pytest.param(6, (), 2, id="l6-J2"),
    pytest.param(5, (1,), None, id="sub5-1-budget"),
    pytest.param(5, (2, 1), None, id="sub5-21-budget"),
])
def test_stream_field_is_the_basis_field(level, word, J):
    # the same draws on the same canonical modes, pushed up from their births
    # one eigenspace at a time; mode 300 of level 6 cuts the 243..365
    # eigenspace, J = 1 and 2 cut the lowest, and a sub-gasket renumbers the
    # rows of each eigenspace's columns
    s, g = s_from_hurst(0.3), extract_cell(build_level(level), word)
    S, M, J = assemble_energy(g), assemble_mass(g), budget_modes(level, s, J, word)
    ref = sample_field(solve_eigen(S, M, J, graph=g), s, 12345)
    got = stream_field(S, M, s, 12345, J, graph=g)
    np.testing.assert_array_equal(got.coefficients, ref.coefficients)
    np.testing.assert_allclose(got.values, ref.values, rtol=0, atol=1e-14)
    assert (got.level, got.s, got.hurst, got.modes, got.seed) == (ref.level, ref.s, ref.hurst, J, 12345)


@pytest.mark.parametrize("level", [7, 8])
def test_field_energy_is_the_weighted_noise(level):
    # x^T M x = sum_j lambda_j^{-2s} N_j^2 in any M-orthonormal basis, also
    # with J cutting an eigenspace: the one number a change of basis inside
    # the eigenspaces cannot move
    s, g = s_from_hurst(0.3), build_level(level)
    J = budget_modes(level, s, None)
    x = stream_field(assemble_energy(g), assemble_mass(g), s, 7, J, graph=g)
    energy = x.values @ (g.measure * x.values)
    assert energy == pytest.approx(np.sum(spectrum(level)[:J] ** (-2 * s) * x.coefficients**2), rel=1e-12)


def test_stream_field_without_modes_solves_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("no eigenspace may be built for J = 0")

    monkeypatch.setattr(spectral, "_eigenspace_columns", refuse)
    g = build_level(5)
    got = stream_field(assemble_energy(g), assemble_mass(g), 0.5, 3, 0, graph=g)
    assert got.modes == 0 and len(got.coefficients) == 0
    assert got.values.shape == (len(g),) and not got.values.any()


@pytest.mark.parametrize("level", [6, 7, 8])
@pytest.mark.parametrize("J", [1, 2, 10, None], ids=["J1", "J2", "J10", "budget"])
def test_stream_field_memory_check_bounds_peak(memory_bound, level, J):
    # no n x J array: the estimate holds the path, the largest birth and the
    # field, and the level-7 budget draw peaks below the 68 MB of the basis
    # it no longer forms
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


def test_empirical_covariance_small(basis4):
    seeds = np.random.SeedSequence(3).spawn(1500)
    iu, ju = np.triu_indices(len(basis4.graph), 1)
    sel = np.random.default_rng(5).choice(len(iu), 10, replace=False)
    pairs = np.column_stack([iu[sel], ju[sel]])
    rep = empirical_covariance(basis4, 0.5, seeds, pairs)
    assert rep.replications == 1500
    assert rep.npairs == 10
    assert rep.max_abs_z == pytest.approx(1.5216, abs=1e-3)
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
    assert rep.slope == pytest.approx(0.7607, abs=1e-3)
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
    with pytest.raises(ValueError, match="needs a level >= 4"):
        variogram(get_basis(3), 0.5)  # the window starts below the level-3 mesh
    with pytest.raises(ValueError):
        variogram(basis5, 0.5, mode="mc")  # mc needs seeds


def test_hoelder_bounded_for_true_exponent(basis6):
    smp = sample_field(basis6, 0.5, seed=5000, J=basis6.cluster_complete(878))
    rep = hoelder_statistic(smp, basis6.graph, smp.hurst)
    assert rep.verdict == "bounded"
    assert rep.ratio == pytest.approx(0.7912, abs=1e-3)
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
    """The annulus sups over every vertex pair i < j, one row of the upper triangle at a time."""
    pts, x = graph.points, sample.values
    values = np.full(len(deltas), np.nan)
    for i in range(len(graph) - 1):
        j = np.arange(i + 1, len(graph))
        dp = np.linalg.norm(pts[i] - pts[j], axis=1)
        dx = np.abs(x[i] - x[j])
        for k, d in enumerate(deltas):
            msk = (dp > d / 2.0) & (dp <= d)
            if msk.any():
                w = dp[msk] ** float(hurst_claim) * np.sqrt(np.abs(np.log(dp[msk])))
                values[k] = np.fmax(values[k], (dx[msk] / w).max())
    return values


def _streamed(graph, s, seed=5000):
    """A field on ``graph`` with every mode, drawn without a basis."""
    return stream_field(assemble_energy(graph), assemble_mass(graph), s, seed, graph=graph)


@pytest.mark.parametrize("level", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("deltas", [(2.0 ** -3, 2.0 ** -4, 2.0 ** -5),
                                    tuple(2.0 ** -k for k in range(2, 7))], ids=["default", "wide"])
def test_hoelder_matches_all_pairs(level, deltas):
    graph = build_level(level)
    smp = _streamed(graph, 0.5)
    rep = hoelder_statistic(smp, graph, smp.hurst, deltas)
    np.testing.assert_array_equal(rep.values,
                                  _hoelder_values_all_pairs(smp, graph, smp.hurst, deltas))


@pytest.mark.parametrize("word", [(), (1,)], ids=["L6", "L6-cell1"])
@pytest.mark.parametrize("hurst", [0.2, 0.3, 0.5])
def test_hoelder_matches_all_pairs_custom_deltas(monkeypatch, word, hurst):
    # overlapping, non-dyadic annuli up to 0.3, on the full graph and on a
    # sub-gasket in its parent's coordinates; tiles of a few candidates
    # and one bucket per radius give the same sups
    graph = extract_cell(build_level(6), word) if word else build_level(6)
    smp = _streamed(graph, s_from_hurst(hurst))
    deltas = (0.3, 0.07, 0.045, 2.0 ** -7)
    ref = _hoelder_values_all_pairs(smp, graph, hurst, deltas)
    np.testing.assert_array_equal(hoelder_statistic(smp, graph, hurst, deltas).values, ref)
    monkeypatch.setattr(fields, "HOELDER_TILE", 100)
    monkeypatch.setattr(fields, "HOELDER_BUCKETS", 1)
    np.testing.assert_array_equal(hoelder_statistic(smp, graph, hurst, deltas).values, ref)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hoelder_memory_is_one_tile():
    # listing the 454,102 pairs within 1/8 at once peaked at 21.8 MB
    graph = build_level(7)
    smp = _streamed(graph, 0.5)
    assert _traced_peak(lambda: hoelder_statistic(smp, graph, smp.hurst)) <= 4e6


def test_mc_variogram_memory_is_one_tile(basis6):
    # 1,000 replications at 23,404 pairs: gathering every pair of a block
    # at once peaked at about 20 MB; the pair sample is cached before the trace
    J = pick_truncation(basis6, 0.5)
    seeds = np.random.default_rng(6).integers(0, 2**63, 1000).tolist()
    pair_sample(basis6.graph)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        peak = _traced_peak(lambda: variogram(basis6, 0.5, seeds=seeds, mode="mc", J=J))
    assert peak <= 4e6


@pytest.mark.parametrize("regression", [
    lambda b, J: variogram(b, 0.5, J=J),
    lambda b, J: estimate_bound_fit(b, 0.5, J=J),
    lambda b, J: increment_l2_check(b, 0.5, J=J),
], ids=["variogram", "estimate_bound_fit", "increment_l2_check"])
def test_exact_regression_memory_is_one_tile(basis6, regression):
    # the dense n x n kernel and its scaled n x J copy peaked at 17.3 MB;
    # the pair sample is cached before the trace
    J = pick_truncation(basis6, 0.5)
    assert J == 878
    pair_sample(basis6.graph)
    assert _traced_peak(lambda: regression(basis6, J)) <= 5e6


def test_symmetry_memory_is_one_tile(basis6):
    # the dense kernel and its mirrored copy peaked at about 29 MB, and tiles
    # of whole rows at about 5 MB; the probe block holds n x 16 values
    sym = symmetry_permutation(basis6.graph, 2)
    assert _traced_peak(lambda: symmetry_invariance_test(basis6, 0.5, sym)) <= 1e6


def test_hoelder_statistic_loads_no_scipy_spatial():
    src = os.path.dirname(os.path.dirname(fields.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; from gasket_fgf import fields, geometry, operators; g = geometry.build_level(4); "
            "x = fields.stream_field(operators.assemble_energy(g), operators.assemble_mass(g), 0.5, 1, graph=g); "
            "fields.hoelder_statistic(x, g, x.hurst); print('scipy.spatial' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
    interior = np.setdiff1d(np.arange(len(basis4.graph)), basis4.graph.boundary_ids())
    bad[[interior[0], interior[3]]] = bad[[interior[3], interior[0]]]
    broken = type(sym)(index=1, permutation=bad, fixed_vertex=sym.fixed_vertex)
    rep = symmetry_invariance_test(basis4, 0.5, broken)
    assert not rep.passed


def _broken_reflection(basis):
    """Reflection 1 with two non-equivalent interior images swapped: a 4-cycle, not an isometry."""
    sym = symmetry_permutation(basis.graph, 1)
    bad = np.array(sym.permutation)
    interior = np.setdiff1d(np.arange(len(basis.graph)), basis.graph.boundary_ids())
    bad[[interior[0], interior[3]]] = bad[[interior[3], interior[0]]]
    return type(sym)(index=1, permutation=bad, fixed_vertex=sym.fixed_vertex)


@pytest.mark.parametrize("tile", [kernels.KERNEL_ROW_TILE, 3])
@pytest.mark.parametrize("which", [1, 2, 3, "broken"])
def test_symmetry_tiles_match_the_dense_kernel(basis5, monkeypatch, which, tile):
    # G read in row tiles at the mirrored pairs (p x, p y) matches the dense
    # kernel, also for tiles of 3 rows; each probe entry of the criterion sums
    # one row of those entry deviations against seeded normals, so a
    # reflection reads rounding either way and the broken 4-cycle reads at
    # least its largest entry-wise deviation
    monkeypatch.setattr(kernels, "KERNEL_ROW_TILE", tile)
    sym = _broken_reflection(basis5) if which == "broken" else symmetry_permutation(basis5.graph, which)
    rep = symmetry_invariance_test(basis5, 0.5, sym)
    J = rep.params["J"]
    c = kernel_matrix(basis5, 1.0, J)
    p = np.asarray(sym.permutation)
    iu, ju = np.triu_indices(basis5.dim, 1)
    g, diag = _pair_kernel(basis5, 1.0, J, iu, ju)
    a, b = np.minimum(p[iu], p[ju]), np.maximum(p[iu], p[ju])
    order = np.lexsort((b, a))
    moved = np.empty_like(g)
    moved[order] = _pair_kernel(basis5, 1.0, J, a[order], b[order])[0]
    tiled = max(np.abs(moved - g).max(), np.abs(diag[p] - diag).max())
    dense, probe = np.abs(c[np.ix_(p, p)] - c).max(), rep.measured["kernel_deviation"]
    assert tiled == pytest.approx(dense, abs=1e-14)
    if which == "broken":
        assert probe >= dense and probe > 1e-8
    else:
        assert max(probe, dense) <= 1e-12
    assert rep.measured["corner_variance_spread"] == pytest.approx(np.ptp(np.diag(c)[:3]), abs=1e-14)


def test_symmetry_reads_only_the_corner_block_of_the_kernel(monkeypatch):
    # the deviation acts on probe columns; G itself is read at the three corners only
    basis = get_basis(7)
    shapes = []

    def recording(*args, **kwargs):
        block = kernel_matrix(*args, **kwargs)
        shapes.append(block.shape)
        return block

    monkeypatch.setattr(fields, "kernel_matrix", recording)
    for i in (1, 2, 3):
        assert symmetry_invariance_test(basis, 0.5, symmetry_permutation(basis.graph, i)).passed
    assert shapes and max(rows for rows, _ in shapes) <= 3


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
