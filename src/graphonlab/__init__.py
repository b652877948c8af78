"""Spectral analysis of discretized graphons and self-adjoint kernels.

Eigenvalue-threshold truncation, certified cut-norm brackets, constructive
regularity decompositions, homomorphism densities, and graphon ensembles
(Cayley, circle, sphere, W-random).
"""

import os as _os

# Reports promise byte-identical output regardless of thread count, so the
# BLAS pool is pinned to one thread unless the user already chose otherwise.
# This must happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from . import errors
from .core import (
    DiscreteSpace,
    Kernel,
    PermutationAction,
    SimpleGraph,
    StepFunction,
    apply_permutation,
    builtin_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    expand_step,
    kernel_from_matrix,
    path_graph,
    quotient_average,
    weighted_mean,
    weighted_norm,
)
from .spectral import (
    SpectralDecomposition,
    SpectrumDistribution,
    decompose,
    operator_norm_upper,
    spectral_radius,
    spectrum,
    spectrum_distribution,
    tail_truncate,
    truncation_quotient,
)
from .cutnorm import (
    CutNormEstimate,
    bilinear_form,
    cutnorm_bracket,
    cutnorm_exact,
    cutnorm_heuristic,
)
from .regularity import (
    ClusteringResult,
    RegularityDecomposition,
    automorphisms,
    choose_threshold,
    cluster_eigenvectors,
    group_order,
    regularity_decompose,
    symmetry_decompose,
)
from .homdensity import (
    DensityEstimate,
    cycle_density_spectral,
    hom_density_mc,
    hom_density_step,
    moment_identity_check,
)
from .ensembles import (
    ProfileFunction,
    cayley_kernel,
    circle_halfplane_kernel,
    dilation_perm,
    invariant_dimension_report,
    sphere_kernel,
    w_random_graph,
)
from .distance import (
    DistanceBracket,
    common_refinement,
    delta_bracket,
)

__version__ = "0.1.0"
