"""Acceptance suites: one pass/fail check per published criterion.

Each ``check_*`` function runs one criterion at its stated configuration and
returns a :class:`CheckResult` with the measured numbers, so both the CLI
(`verify` subcommand) and the test suite consume the same code path.  The
level/s/seed knobs default to the acceptance configuration; smaller levels
are useful for smoke runs.  Bases come from :func:`get_basis`, one full
solve per level graph for the life of the process; the checks that read
eigenvalues only (lambda_1, the Weyl fits, the on-diagonal law 4d) take them from
:func:`~gasket_fgf.spectral.spectrum` and solve nothing.

One check is expected to fail at desk scale and is reported honestly: the
on-diagonal heat-kernel slope over t in [2^-10, 2^-2] (criterion 4d).  The
upper half of that window sits beyond the spectral-gap knee 1/lambda_1 ~
0.037 where the truncated trace has already flattened toward its constant
limit, so the fitted slope lands near -0.53 instead of -d_h/d_w = -0.6826
at every reachable level (the value is level-independent; deepening the
graph does not move the knee).  The in-window sub-Gaussian content does
hold: the slope over [2^-10, 2^-6] and the two-sided bounds
c t^{-a} <= mean p_t <= C t^{-a} over [2^-10, 1] are reported in the detail.
"""

import os
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .constants import SPECTRAL_EXPONENT, hurst_from_s
from .geometry import build_level, distance_matrix, extract_cell, symmetry_permutation
from .kernels import (
    apply_fractional_laplacian,
    heat_envelope_constant,
    heat_matrix,
    increment_l2_check,
    kernel_matrix,
    ondiagonal_constants,
    ondiagonal_fit,
    riesz_value_quadrature,
    unrank_pairs,
)
from .fields import (
    empirical_covariance,
    sample_field,
    scaling_invariance_test,
    symmetry_invariance_test,
    variogram,
)
from .operators import assemble_energy, assemble_mass, energy_value, self_similar_energy_residual
from .spectral import pick_truncation, solve_eigen, spectral_coeffs, spectrum, weyl_exponent_fit


@dataclass
class CheckResult:
    id: str
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)
    detail: str = ""

    def line(self):
        stat = "PASS" if self.passed else "FAIL"
        nums = " ".join(f"{k}={_short(v)}" for k, v in self.measured.items())
        return f"[{self.id}] {self.name}: {stat}  {nums}".rstrip()


def _short(v):
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_short(x) for x in v) + "]"
    return str(v)


@lru_cache(maxsize=None)
def get_basis(level, word=()):
    """The full spectral basis of one level graph (the sub-gasket of cell ``word``), solved once.

    A full spectrum needs n^2 doubles of memory; checks that need
    eigenvalues only read :func:`~gasket_fgf.spectral.spectrum` instead.
    """
    graph = extract_cell(build_level(level), word) if word else build_level(level)
    return solve_eigen(assemble_energy(graph), assemble_mass(graph), len(graph) - 1, graph=graph)


# ---------------------------------------------------------------------------
# criterion 1: structural exactness
# ---------------------------------------------------------------------------


def check_structure(level=6, **_):
    rng = np.random.default_rng(0)
    count_ok = all(
        len(build_level(m)) == (3 ** (m + 1) + 3) // 2 for m in range(level + 1)
    )
    mass_dev = max(
        abs(build_level(m).measure.sum() - 1.0) for m in range(level + 1)
    )
    lam1 = float(spectrum(min(level, 4))[0])
    fine = build_level(3)
    rels = []
    s_fine = assemble_energy(fine)
    for _ in range(100):
        f = rng.standard_normal(len(fine))
        rels.append(self_similar_energy_residual(f, fine) / energy_value(s_fine, f))
    rel_max = float(max(rels))
    passed = count_ok and mass_dev <= 1e-14 and lam1 > 0.0 and rel_max <= 1e-12
    return CheckResult(
        "1",
        "structural exactness",
        passed,
        {
            "vertex_counts_ok": count_ok,
            "mass_deviation": float(mass_dev),
            "lambda_1": lam1,
            "self_similar_rel_residual": rel_max,
        },
    )


# ---------------------------------------------------------------------------
# criterion 2: spectral hygiene
# ---------------------------------------------------------------------------


def check_spectral(level=6, count=300, **_):
    basis = get_basis(level)
    phi = basis.phi[:, :count]
    gram = phi.T @ (basis.mass[:, None] * phi)
    gram_dev = float(np.abs(gram - np.eye(count)).max())
    zero_mean = float(np.abs(basis.mass @ phi).max())
    residual = basis.residual_norm
    passed = gram_dev <= 1e-8 and zero_mean <= 1e-10 and residual <= 1e-8
    return CheckResult(
        "2",
        "spectral hygiene",
        passed,
        {"gram_deviation": gram_dev, "zero_mean": zero_mean, "residual": residual},
    )


# ---------------------------------------------------------------------------
# criterion 3: Weyl exponent
# ---------------------------------------------------------------------------


def check_weyl(level=6, count=300, **_):
    slopes = [weyl_exponent_fit(spectrum(m)[:count]).slope for m in (level, level + 1)]
    target = SPECTRAL_EXPONENT
    passed = all(abs(sl - target) <= 0.05 for sl in slopes)
    return CheckResult(
        "3",
        "weyl exponent",
        passed,
        {"slopes": [float(s) for s in slopes], "target": target, "band": 0.05},
    )


# ---------------------------------------------------------------------------
# criterion 4: heat kernel laws (four clauses)
# ---------------------------------------------------------------------------


def check_heat_semigroup(level=6, **_):
    basis = get_basis(level)
    t, u = 0.07, 0.11
    pt, pu, ptu = (heat_matrix(basis, x) for x in (t, u, t + u))
    dev = float(np.abs(pt @ (basis.mass[:, None] * pu) - ptu).max())
    return CheckResult("4a", "heat semigroup", dev <= 1e-10, {"deviation": dev})


def check_heat_completeness(level=6, **_):
    basis = get_basis(level)
    dev = float(np.abs(heat_matrix(basis, 0.07) @ basis.mass - 1.0).max())
    return CheckResult("4b", "stochastic completeness", dev <= 1e-10, {"deviation": dev})


def check_heat_envelope(level=6, **_):
    basis = get_basis(level)
    c_env = heat_envelope_constant(basis, t0=1.0)
    lam1 = float(basis.lam[0])
    worst = 0.0
    for t in (1.0, 1.5, 2.0, 3.0):
        dev = np.abs(heat_matrix(basis, t) - 1.0).max()
        worst = max(worst, float(dev / (c_env * np.exp(-lam1 * t))))
    return CheckResult(
        "4c",
        "large-time envelope",
        worst <= 1.0 + 1e-9,
        {"constant": c_env, "max_ratio": worst},
    )


def check_heat_ondiagonal(level=6, **_):
    lam = spectrum(level)
    slope, _ = ondiagonal_fit(lam, window=(2.0 ** -10, 2.0 ** -2))
    target = -SPECTRAL_EXPONENT
    passed = abs(slope - target) <= 0.07
    in_regime, _ = ondiagonal_fit(lam, window=(2.0 ** -10, 2.0 ** -6))
    c_lo, c_hi = ondiagonal_constants(lam, window=(2.0 ** -10, 1.0))
    lam1 = float(lam[0])
    detail = (
        f"window top 2^-2 = {0.25 * lam1:.1f}/lambda_1 lies past the spectral-gap knee "
        f"1/lambda_1 = {1.0 / lam1:.4f}, where the truncated trace flattens; "
        f"slope over [2^-10, 2^-6] = {in_regime:.4f} (in band), and the two-sided "
        f"law holds with c = {c_lo:.4f}, C = {c_hi:.4f} on [2^-10, 1]"
    )
    return CheckResult(
        "4d",
        "on-diagonal slope",
        passed,
        {"slope": float(slope), "target": target, "band": 0.07,
         "in_regime_slope": float(in_regime), "c": c_lo, "C": c_hi},
        detail,
    )


# ---------------------------------------------------------------------------
# criterion 5: Riesz kernel identities
# ---------------------------------------------------------------------------


def check_riesz(level=6, s=0.5, **_):
    rng = np.random.default_rng(3)
    rows, quads, invs, comps = [], [], [], []
    for m in (level - 1, level):
        basis = get_basis(m)
        g = kernel_matrix(basis, s)
        rows.append(float(np.abs(g @ basis.mass).max()))

        cand = np.argwhere(distance_matrix(basis.graph) >= 2.0 ** -4)
        sel = cand[rng.choice(len(cand), 6, replace=False)]
        pairs = [(0, 1), (0, 2), (1, 2)] + [tuple(p) for p in sel]
        worst = 0.0
        for i, j in pairs:
            q = riesz_value_quadrature(basis, s, int(i), int(j))
            worst = max(worst, abs(q - g[i, j]) / abs(g[i, j]))
        quads.append(float(worst))

        f = basis.phi @ rng.standard_normal(basis.count)
        back = apply_fractional_laplacian(basis, -s, apply_fractional_laplacian(basis, s, f))
        invs.append(float(np.abs(back - f).max()))

        comp = g @ (basis.mass[:, None] * g)
        comps.append(float(np.abs(comp - kernel_matrix(basis, 2.0 * s)).max()))

    passed = (
        max(rows) <= 1e-10
        and max(quads) <= 1e-6
        and max(invs) <= 1e-10
        and max(comps) <= 1e-10
    )
    return CheckResult(
        "5",
        "riesz kernel identities",
        passed,
        {
            "row_integral": max(rows),
            "quadrature_rel": max(quads),
            "inverse_pair": max(invs),
            "composition": max(comps),
        },
    )


# ---------------------------------------------------------------------------
# criterion 6: increment bound exponents
# ---------------------------------------------------------------------------


def check_increments(level=6, **_):
    basis = get_basis(level)
    slopes, floors, ok = [], [], True
    for s in (0.40, 0.50, 0.60):
        rep = increment_l2_check(basis, s)
        slopes.append(rep.slope)
        floors.append(rep.floor)
        ok = ok and rep.passed
    return CheckResult(
        "6",
        "increment bound exponents",
        ok,
        {"slopes": slopes, "floors": floors},
    )


# ---------------------------------------------------------------------------
# criterion 7: field laws
# ---------------------------------------------------------------------------


def check_field_duality(level=6, s=0.5, seed=7, **_):
    basis = get_basis(level)
    j_star = pick_truncation(basis, s, budget=0.01)
    sample = sample_field(basis, s, seed, J=j_star)
    lam = basis.lam[:j_star]
    cx = spectral_coeffs(basis, sample.values, j_star)
    per_mode = (lam ** s) * cx - sample.coefficients
    coeffs = np.random.default_rng(seed + 1).standard_normal((100, j_star))
    lhs = (coeffs * lam ** s) @ cx
    rhs = coeffs @ sample.coefficients
    dev = float(max(np.abs(per_mode).max(), np.abs(lhs - rhs).max()))
    mean_dev = float(abs(basis.mass @ sample.values))
    passed = dev <= 1e-10 and mean_dev <= 1e-10
    return CheckResult(
        "7a",
        "white-noise duality",
        passed,
        {"J": j_star, "max_deviation": dev, "mean_zero": mean_dev},
    )


def check_field_covariance(level=6, s=0.5, replications=10_000, **_):
    basis = get_basis(level)
    j_star = pick_truncation(basis, s, budget=0.01)
    seeds = np.random.SeedSequence(2024).spawn(replications)
    n = len(basis.graph)
    rng = np.random.default_rng(np.random.SeedSequence(4096))
    pairs = np.column_stack(unrank_pairs(n, rng.choice(n * (n - 1) // 2, 100, replace=False)))
    rep = empirical_covariance(basis, s, seeds, pairs, J=j_star)
    return CheckResult(
        "7b",
        "monte carlo covariance",
        rep.passed,
        {"R": rep.replications, "max_abs_z": rep.max_abs_z},
    )


def check_field_variogram(level=6, s=0.5, **_):
    basis = get_basis(level)
    j_star = pick_truncation(basis, s, budget=0.01)
    rep = variogram(basis, s, J=j_star)
    target = 2.0 * hurst_from_s(s)
    passed = abs(rep.slope - target) <= 0.1
    return CheckResult(
        "7c",
        "exact variogram slope",
        passed,
        {"slope": rep.slope, "target": target, "band": 0.1, "half_width": rep.half_width},
    )


# ---------------------------------------------------------------------------
# criterion 8: invariances
# ---------------------------------------------------------------------------


def check_symmetry(level=6, s=0.5, **_):
    basis = get_basis(level)
    graph = basis.graph
    devs, spreads = [], []
    ok = True
    for i in (1, 2, 3):
        rep = symmetry_invariance_test(basis, s, symmetry_permutation(graph, i))
        devs.append(rep.measured["kernel_deviation"])
        spreads.append(rep.measured["corner_variance_spread"])
        ok = ok and rep.passed
    return CheckResult(
        "8a",
        "reflection invariance",
        ok,
        {"kernel_deviation": max(devs), "corner_spread": max(spreads)},
    )


def check_scaling(ref_level=4, word=(0,), s=0.5, **_):
    ref = get_basis(ref_level)
    sub = get_basis(ref_level + len(word), word=word)
    rep = scaling_invariance_test(ref, sub, s, word=word)
    return CheckResult(
        "8b",
        "renormalization scaling",
        rep.passed,
        {
            "eigenvalue_deviation": rep.measured["eigenvalue_deviation"],
            "kernel_deviation": rep.measured["kernel_deviation"],
            "covariance_ratio": rep.params["covariance_ratio"],
        },
    )


# ---------------------------------------------------------------------------
# criterion 9: determinism
# ---------------------------------------------------------------------------


def _run_cli_batch(outdir):
    from . import cli

    jobs = [
        ["build", "--level", "3", "--out", "graph.json", "--matrix-out", "stiffness.txt"],
        ["eigs", "--level", "3", "--count", "20", "--out", "eigs.json",
         "--vectors-out", "vectors.csv"],
        ["kernel", "--level", "4", "--s", "0.5", "--out", "kernel.csv",
         "--report", "report.json"],
        ["sample", "--level", "4", "--s", "0.5", "--seed", "11", "--out", "field.csv",
         "--pgm", "field.pgm"],
    ]
    for job in jobs:
        args = list(job)
        for flag in ("--out", "--matrix-out", "--vectors-out", "--report", "--pgm"):
            if flag in args:
                k = args.index(flag) + 1
                args[k] = os.path.join(outdir, args[k])
        rc = cli.main(args)
        if rc != 0:
            raise RuntimeError(f"cli {job[0]} exited {rc}")


def check_determinism(**_):
    with tempfile.TemporaryDirectory() as da, tempfile.TemporaryDirectory() as db:
        _run_cli_batch(da)
        _run_cli_batch(db)
        names = sorted(os.listdir(da))
        mismatched = []
        for name in names:
            with open(os.path.join(da, name), "rb") as fa, open(os.path.join(db, name), "rb") as fb:
                if fa.read() != fb.read():
                    mismatched.append(name)
    return CheckResult(
        "9",
        "byte-identical reruns",
        not mismatched,
        {"artifacts": len(names), "mismatched": mismatched},
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

SUITES = {
    "structure": [check_structure],
    "spectral": [check_spectral],
    "weyl": [check_weyl],
    "heat": [check_heat_semigroup, check_heat_completeness, check_heat_envelope,
             check_heat_ondiagonal],
    "riesz": [check_riesz],
    "increments": [check_increments],
    "field": [check_field_duality, check_field_covariance, check_field_variogram],
    "invariance": [check_symmetry, check_scaling],
    "determinism": [check_determinism],
}
SUITES["all"] = [fn for name in ("structure", "spectral", "weyl", "heat", "riesz",
                                 "increments", "field", "invariance", "determinism")
                 for fn in SUITES[name]]


def run_suite(name, level=6, s=0.5, seed=7, stream=None):
    """Run one named suite, print one line per check, return the results."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    emit = print if stream is None else stream
    results = []
    for fn in SUITES[name]:
        result = fn(level=level, s=s, seed=seed)
        results.append(result)
        emit(result.line())
        if result.detail and not result.passed:
            emit(f"    note: {result.detail}")
    return results
