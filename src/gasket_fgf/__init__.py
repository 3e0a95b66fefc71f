"""Fractional Gaussian fields on the Sierpinski gasket.

Finite-level graph approximations of the gasket, the renormalized Dirichlet
energy and its Laplacian spectrum, heat and fractional Riesz kernels, and
Karhunen-Loeve sampling of the field X = (-Delta)^{-s} W, together with
verification suites for the exponent laws and distributional invariances.
"""

from .constants import (
    HAUSDORFF_DIM,
    S_MAX,
    S_MIN,
    SPECTRAL_EXPONENT,
    WALK_DIM,
    hurst_from_s,
    s_from_hurst,
)
from .geometry import (
    LevelGraph,
    SymmetryMap,
    Vertex,
    apply_cell_map,
    build_level,
    euclidean_distance,
    extract_cell,
    symmetry_permutation,
)
from .operators import (
    MassMatrix,
    StiffnessMatrix,
    assemble_energy,
    assemble_mass,
    energy_value,
    harmonic_extension,
    self_similar_energy_residual,
)
from .spectral import (
    SolverError,
    SpectralBasis,
    WeylFit,
    counting_function,
    pick_truncation,
    solve_eigen,
    spectrum,
    tail_variance,
    weyl_exponent_fit,
)
from .kernels import (
    HeatKernelEvaluator,
    IncrementReport,
    KernelEstimateReport,
    RieszKernel,
    apply_Gs,
    apply_fractional_laplacian,
    estimate_bound_fit,
    increment_l2_check,
    kernel_matrix,
    riesz_value_quadrature,
)
from .fields import (
    CovarianceReport,
    FieldSample,
    HoelderReport,
    InvarianceReport,
    VariogramReport,
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

__version__ = "0.1.0"
