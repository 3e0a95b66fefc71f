"""Energy form and measure lumping on the level graphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasket_fgf.geometry import build_level
from gasket_fgf.operators import (
    _extension_pattern,
    assemble_energy,
    assemble_mass,
    decimation_extension,
    energy_value,
    parent_cells,
    restriction_indices,
    self_similar_energy_residual,
)

ENERGY_SCALE = 5.0 / 3.0


def harmonic_extension(f, coarse, fine):
    """Harmonic extension of f from level ``coarse`` to level ``fine``: E(0), one level at a time."""
    for level in range(coarse + 1, fine + 1):
        f = decimation_extension(f, build_level(level), 0.0)
    return f


def test_stiffness_shape_and_symmetry(g4):
    s = assemble_energy(g4)
    m = s.matrix
    assert m.shape == (len(g4), len(g4))
    assert (m != m.T).nnz == 0
    # constants are in the kernel
    assert np.abs(np.asarray(m.sum(axis=1))).max() <= 1e-12


def test_mass_weights(g4):
    mass = assemble_mass(g4)
    w = mass.diagonal
    assert mass.diagonal.sum() == pytest.approx(1.0, abs=1e-15)
    # each vertex carries (incident cells) * 3^{-m} / 3
    unit = 3.0 ** -4 / 3.0
    counts = np.rint(w / unit)
    assert set(counts.astype(int)) == {1, 2}
    for i in g4.boundary_ids():
        assert counts[i] == 1


def test_energy_of_edge_difference(g3):
    s = assemble_energy(g3)
    f = np.zeros(len(g3))
    a, b = g3.edges[0]
    f[a] = 1.0
    # energy of an indicator across one edge counts each incident edge once
    deg = int((g3.edges == a).sum())
    assert energy_value(s, f) == pytest.approx(ENERGY_SCALE ** 3 * deg, rel=1e-12)
    assert f[b] == 0.0


def test_energy_value_matches_quadratic_form(g4, rng):
    s = assemble_energy(g4)
    f = rng.standard_normal(len(g4))
    assert energy_value(s, f) == pytest.approx(float(f @ (s.matrix @ f)), rel=1e-12)


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_energy_nonnegative_and_kernel_is_constants(seed):
    g = build_level(2)
    s = assemble_energy(g)
    f = np.random.default_rng(seed).standard_normal(len(g))
    e = energy_value(s, f)
    assert e >= 0.0
    assert abs(energy_value(s, np.full(len(g), 2.5))) <= 1e-12
    if np.ptp(f) > 1e-9:
        assert e > 0.0


def test_restriction_indices(g4):
    from gasket_fgf.geometry import CORNERS

    coarse = build_level(3)
    seen = set()
    for i in range(3):
        idx = restriction_indices(g4, i)
        assert len(idx) == len(coarse)
        seen.update(idx.tolist())
        # F_i(z) = (z + q_i)/2: over 2^5, coarse coordinates (over 2^4) plus q_i (over 2^1) times 2^3
        np.testing.assert_array_equal(g4.coords[idx], coarse.coords + 8 * CORNERS[i])
    # the three copies cover V_4 (junction vertices shared pairwise)
    assert seen == set(range(len(g4)))


def test_one_fifth_two_fifths_rule():
    """Harmonic extension of (1,0,0) to level 1 follows the 1/5-2/5 rule."""
    g1 = build_level(1)
    g0 = build_level(0)
    f0 = np.zeros(3)
    f0[g0.boundary_ids()[0]] = 1.0
    h = harmonic_extension(f0, 0, 1)
    b = g1.boundary_ids()
    assert h[b[0]] == pytest.approx(1.0)
    assert h[b[1]] == pytest.approx(0.0, abs=1e-14)
    assert h[b[2]] == pytest.approx(0.0, abs=1e-14)
    mids = sorted(np.delete(h, b))
    np.testing.assert_allclose(mids, [1.0 / 5.0, 2.0 / 5.0, 2.0 / 5.0], atol=1e-13)


# mu = 0 (harmonic), the one child of mu' = 6, and both roots of mu (5 - mu) = 3
EXTENSION_MUS = [0.0, 3.0, (5.0 - np.sqrt(13.0)) / 2.0, (5.0 + np.sqrt(13.0)) / 2.0]


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("mu", EXTENSION_MUS)
def test_decimation_extension_is_the_midpoint_rule(m, mu, rng):
    # E(mu) u keeps the coarse values and gives the midpoint z of side xy of a
    # coarse cell with opposite corner w ((4 - mu)(u(x) + u(y)) + 2 u(w)) / ((2 - mu)(5 - mu))
    fine, n = build_level(m), len(build_level(m - 1))
    u = rng.standard_normal((n, 3))
    got = decimation_extension(u, fine, mu)
    (a, b, c), (mab, mbc, mca) = (x.T for x in parent_cells(fine))
    want = np.empty((len(fine), 3))
    want[:n] = u
    for z, x, y, w in ((mab, a, b, c), (mbc, b, c, a), (mca, c, a, b)):
        want[z] = ((4.0 - mu) * (u[x] + u[y]) + 2.0 * u[w]) / ((2.0 - mu) * (5.0 - mu))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
    np.testing.assert_array_equal(got[:n], u)
    # a single vector is one column
    np.testing.assert_allclose(decimation_extension(u[:, 0], fine, mu), got[:, 0], rtol=0, atol=1e-14)


def test_extension_pattern_is_cached_per_level():
    # a rebuilt graph of a cached level adds no second pattern, so a process
    # that rebuilds its graphs does not grow
    decimation_extension(np.zeros(15), build_level(3), 0.0)
    size = _extension_pattern.cache_info().currsize
    decimation_extension(np.zeros(15), build_level.__wrapped__(3), 0.0)
    assert _extension_pattern.cache_info().currsize == size


def test_harmonic_extension_preserves_energy(rng):
    # the (5/3)^m renormalization makes harmonic extension energy-neutral
    g2, g4 = build_level(2), build_level(4)
    f = rng.standard_normal(len(g2))
    h = harmonic_extension(f, 2, 4)
    e2 = energy_value(assemble_energy(g2), f)
    e4 = energy_value(assemble_energy(g4), h)
    assert e4 == pytest.approx(e2, rel=1e-12)
    # and it interpolates: the coarse vertices keep their data
    # (vertex ids are stable under refinement, at coordinates scaled by 2^2)
    np.testing.assert_array_equal(g4.coords[: len(g2)], 4 * g2.coords)
    np.testing.assert_allclose(h[: len(g2)], f, atol=1e-12)


def test_harmonic_extension_min_max_principle(rng):
    f = rng.standard_normal(len(build_level(1)))
    h = harmonic_extension(f, 1, 3)
    assert h.min() >= f.min() - 1e-12
    assert h.max() <= f.max() + 1e-12


def test_self_similar_residual_small(g4, rng):
    s = assemble_energy(g4)
    for _ in range(10):
        f = rng.standard_normal(len(g4))
        rel = self_similar_energy_residual(f, g4) / energy_value(s, f)
        assert rel <= 1e-12


def test_level_inferred_from_vector_size(rng):
    g3 = build_level(3)
    f = rng.standard_normal(len(g3))
    assert self_similar_energy_residual(f) == pytest.approx(
        self_similar_energy_residual(f, g3))
