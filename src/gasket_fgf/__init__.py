"""Fractional Gaussian fields on the Sierpinski gasket.

Finite-level graph approximations of the gasket, the renormalized Dirichlet
energy and its Laplacian spectrum, heat and fractional Riesz kernels, and
Karhunen-Loeve sampling of the field X = (-Delta)^{-s} W, together with
verification suites for the exponent laws and distributional invariances.

The names below load their module on first use, so importing the package
(and with it ``gasket_fgf.cli``) loads no numpy: the CLI's ``--threads`` cap
must reach the BLAS thread variables before numpy does.
"""

import importlib

_EXPORTS = {
    "constants": ("HAUSDORFF_DIM", "S_MAX", "S_MIN", "SPECTRAL_EXPONENT", "WALK_DIM",
                  "hurst_from_s", "s_from_hurst"),
    "geometry": ("LevelGraph", "SymmetryMap", "build_level", "extract_cell", "symmetry_permutation"),
    "operators": ("MassMatrix", "StiffnessMatrix", "assemble_energy", "assemble_mass",
                  "energy_value", "self_similar_energy_residual"),
    "spectral": ("SolverError", "SpectralBasis", "WeylFit", "pick_truncation",
                 "solve_eigen", "spectrum", "tail_variance", "weyl_exponent_fit"),
    "kernels": ("IncrementReport", "KernelEstimateReport", "estimate_bound_fit", "heat_trace",
                "increment_l2_check", "kernel_matrix", "riesz_value_quadrature", "spectral_apply"),
    "fields": ("CovarianceReport", "FieldSample", "HoelderReport", "InvarianceReport",
               "VariogramReport", "empirical_covariance", "hoelder_statistic", "pinned_field",
               "sample_field", "scaling_invariance_test", "stream_field", "symmetry_invariance_test",
               "variogram"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *__all__])
