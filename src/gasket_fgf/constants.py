"""Dimensional constants of the Sierpinski gasket and parameter conversions.

The gasket has Hausdorff dimension d_h = ln3/ln2 with respect to the
Euclidean metric and walk dimension d_w = ln5/ln2; since d_w > 2 the
diffusion is sub-Gaussian.  A fractional field X = (-Delta)^{-s} W is
well defined for s in the open interval (d_h/(2 d_w), 1 - d_h/(2 d_w)),
and its Hurst-type regularity exponent is H = s*d_w - d_h/2, ranging
over (0, d_w - d_h).
"""

import math

#: Hausdorff dimension d_h = ln 3 / ln 2.
HAUSDORFF_DIM = math.log(3.0) / math.log(2.0)

#: Walk dimension d_w = ln 5 / ln 2.
WALK_DIM = math.log(5.0) / math.log(2.0)

#: Spectral counting exponent d_h / d_w = ln 3 / ln 5.
SPECTRAL_EXPONENT = HAUSDORFF_DIM / WALK_DIM

#: Energy renormalization ratio per level.
ENERGY_SCALE = 5.0 / 3.0

#: Admissible open interval for the field exponent s.
S_MIN = HAUSDORFF_DIM / (2.0 * WALK_DIM)
S_MAX = 1.0 - S_MIN

#: Admissible open interval for the Hurst exponent H.
H_MIN = 0.0
H_MAX = WALK_DIM - HAUSDORFF_DIM

#: Deepest supported approximation level (|V_13| = 2391486).
MAX_LEVEL = 13

#: First nonzero Laplacian eigenvalue, Richardson-extrapolated from the
#: level 4-6 generalized eigenproblems (project reference value, not a
#: literature number; see tests/test_spectral.py for the derivation).
REFERENCE_LAMBDA_1 = 27.1144


def hurst_from_s(s):
    """Map the field exponent s to the Hurst exponent H = s*d_w - d_h/2."""
    return s * WALK_DIM - HAUSDORFF_DIM / 2.0


def s_from_hurst(h):
    """Invert hurst_from_s: s = (H + d_h/2) / d_w."""
    return (h + HAUSDORFF_DIM / 2.0) / WALK_DIM


def _inward(lo, hi, digits=5):
    scale = 10.0 ** digits
    return math.ceil(lo * scale) / scale, math.floor(hi * scale) / scale


def s_interval_text():
    lo, hi = _inward(S_MIN, S_MAX)
    return f"({lo:.5f}, {hi:.5f})"


def hurst_interval_text():
    lo, hi = _inward(H_MIN, H_MAX)
    return f"({lo:.5f}, {hi:.5f})"


def check_s(s):
    """Validate s against the admissible interval; raise ValueError otherwise."""
    if not (S_MIN < s < S_MAX):
        raise ValueError(f"s must lie in {s_interval_text()}")
    return float(s)


def check_hurst(h):
    """Validate H against the admissible interval; raise ValueError otherwise."""
    if not (H_MIN < h < H_MAX):
        raise ValueError(f"H must lie in {hurst_interval_text()}")
    return float(h)
