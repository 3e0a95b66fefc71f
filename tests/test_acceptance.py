"""Acceptance gate.

One test per stated criterion, at the stated configuration and tolerance.
Each prints the underlying check's PASS/FAIL line on the live terminal so a
`pytest tests/test_acceptance.py` run doubles as a verification report.

Criterion 4d (on-diagonal heat decay over t in [2^-10, 2^-2]) is expected to
fail at every reachable level and is marked strict-xfail; see the reason
string and the note emitted by the check for the quantitative story.  The
reason's level-12 numbers are checked from the eigenvalues alone.
"""

import pytest

from gasket_fgf import verify
from gasket_fgf.constants import SPECTRAL_EXPONENT
from gasket_fgf.kernels import ondiagonal_constants, ondiagonal_fit
from gasket_fgf.spectral import spectrum


def _report(result, capsys):
    with capsys.disabled():
        print(f"\n  {result.line()}")
        if result.detail and not result.passed:
            print(f"    note: {result.detail}")
    return result


def test_criterion_1_structural_exactness(capsys):
    res = _report(verify.check_structure(level=6), capsys)
    assert res.passed, res.measured


def test_criterion_2_spectral_hygiene(capsys):
    res = _report(verify.check_spectral(level=6), capsys)
    assert res.passed, res.measured
    assert res.measured["gram_deviation"] <= 1e-8
    assert res.measured["zero_mean"] <= 1e-10
    assert res.measured["residual"] <= 1e-8


def test_criterion_3_weyl_exponent(capsys):
    res = _report(verify.check_weyl(level=6), capsys)
    assert res.passed, res.measured
    for slope in res.measured["slopes"]:
        assert abs(slope - 0.6826) <= 0.05


def test_criterion_4a_semigroup_identity(capsys):
    res = _report(verify.check_heat_semigroup(level=6), capsys)
    assert res.passed, res.measured


def test_criterion_4b_stochastic_completeness(capsys):
    res = _report(verify.check_heat_completeness(level=6), capsys)
    assert res.passed, res.measured


def test_criterion_4c_large_time_envelope(capsys):
    res = _report(verify.check_heat_envelope(level=6), capsys)
    assert res.passed, res.measured


@pytest.mark.xfail(
    strict=True,
    reason=(
        "structural desk-scale failure, reported honestly: the criterion fixes "
        "the fit window t in [2^-10, 2^-2], but on every reachable level the "
        "window's upper half lies beyond the spectral-gap knee at 1/lambda_1 "
        "~ 0.037, where the truncated trace turns from t^{-d_h/d_w} decay "
        "toward its constant-mode plateau; the measured slope over the "
        "mandated window is -0.5255 at level 6 and -0.5252 at level 12 vs the "
        "target -0.6826 +/- 0.07, while the same estimator restricted below "
        "the knee ([2^-10, 2^-6]) gives -0.6286 at level 6 and -0.6279 at "
        "level 12, inside the stated band, and the two-sided bounds "
        "c t^{-d_h/d_w} <= tr <= C t^{-d_h/d_w} hold on [2^-10, 1] with "
        "c = 0.138 (0.1375 at level 12), C = 1.000; deepening the level moves "
        "lambda_1 by < 0.01% (27.1129 at level 6, 27.1144 at level 12), so no "
        "reachable level moves the knee out of the window"
    ),
)
def test_criterion_4d_ondiagonal_slope(capsys):
    res = _report(verify.check_heat_ondiagonal(level=6), capsys)
    assert res.passed, (res.measured, res.detail)


def test_criterion_4d_numbers_at_level_12():
    # the numbers of the 4d reason at level 12, where no basis fits in memory:
    # the fits read the eigenvalues alone
    lam = spectrum(12)
    slope, _ = ondiagonal_fit(lam, window=(2.0 ** -10, 2.0 ** -2))
    in_regime, _ = ondiagonal_fit(lam, window=(2.0 ** -10, 2.0 ** -6))
    c_lo, _ = ondiagonal_constants(lam)
    assert slope == pytest.approx(-0.5252, abs=1e-4)
    assert abs(slope + SPECTRAL_EXPONENT) > 0.07  # outside the band: the strict xfail stands
    assert in_regime == pytest.approx(-0.6279, abs=1e-4)
    assert abs(in_regime + SPECTRAL_EXPONENT) <= 0.07
    assert c_lo == pytest.approx(0.1375, abs=1e-4)
    assert lam[0] == pytest.approx(27.1144, abs=1e-4)


def test_criterion_5_riesz_identities(capsys):
    res = _report(verify.check_riesz(level=6, s=0.5), capsys)
    assert res.passed, res.measured
    assert res.measured["row_integral"] <= 1e-10
    assert res.measured["quadrature_rel"] <= 1e-6
    assert res.measured["inverse_pair"] <= 1e-10
    assert res.measured["composition"] <= 1e-10


def test_criterion_6_increment_bound_exponents(capsys):
    res = _report(verify.check_increments(level=6), capsys)
    assert res.passed, res.measured
    for slope, floor in zip(res.measured["slopes"], res.measured["floors"]):
        assert slope >= floor


def test_criterion_7a_white_noise_duality(capsys):
    res = _report(verify.check_field_duality(level=6, s=0.5, seed=7), capsys)
    assert res.passed, res.measured
    assert res.measured["max_deviation"] <= 1e-10


def test_criterion_7b_monte_carlo_covariance(capsys):
    res = _report(verify.check_field_covariance(level=6, s=0.5), capsys)
    assert res.passed, res.measured
    assert res.measured["R"] == 10_000
    assert res.measured["max_abs_z"] <= 5.0


def test_criterion_7c_variogram_slope(capsys):
    res = _report(verify.check_field_variogram(level=6, s=0.5), capsys)
    assert res.passed, res.measured
    assert abs(res.measured["slope"] - res.measured["target"]) <= 0.1


def test_criterion_8a_reflection_invariance(capsys):
    res = _report(verify.check_symmetry(level=6, s=0.5), capsys)
    assert res.passed, res.measured
    assert res.measured["kernel_deviation"] <= 1e-8
    assert res.measured["corner_spread"] <= 1e-8


def test_criterion_8b_renormalization_scaling(capsys):
    res = _report(verify.check_scaling(s=0.5), capsys)
    assert res.passed, res.measured
    assert res.measured["eigenvalue_deviation"] <= 0.01
    assert res.measured["kernel_deviation"] <= 0.02


def test_criterion_9_byte_identical_reruns(capsys):
    res = _report(verify.check_determinism(), capsys)
    assert res.passed, res.measured
    assert res.measured["mismatched"] == []
