"""Hamiltonian dynamics and Hamilton-Jacobi verification on skew-symmetric
algebroids carrying a distinguished cocycle."""

__version__ = "0.1.0"

from .algebroid import (
    CheckReport,
    DualSection,
    ESection,
    SkewAlgebroid,
    adapted_cocycle,
    anchor_apply,
    bracket,
    check_cocycle,
    constant_section,
    d_function,
    d_oneform_eval,
    d_oneform_matrix,
    flag_rank,
    tangent_algebroid,
    v_restriction,
)
from .calculus import Chart, Curve, ScalarField, fd_gradient, fd_jacobian, integrate_rk4
from .constructions import (
    Homomorphism,
    MetricField,
    MorphismEndpoint,
    MorphismPair,
    affine_constraints,
    force_extension,
    gram_schmidt_at,
    morphism_check,
    projector_restriction,
)
from .errors import AlgebroidError, ConstructionError, DomainError, NumericFailure
from .gallery import GALLERY_IDS, GallerySystem, gallery_index, instantiate, reference_solution
from .hamilton import (
    HamiltonianSystem,
    dissipation_rate,
    f_h_eval,
    hamilton_rhs,
    integrate_hamilton,
    poisson_bracket_eval,
    projected_field,
)
from .hamilton_jacobi import (
    HJReport,
    LiftReport,
    autoparallel_residual,
    christoffel_at,
    hj_forced_residual,
    hj_grid_check,
    hj_residual,
    hj_residual_dual,
    verify_lift,
    zeta_eval,
)
from .lambertw import lambert_w

__all__ = [name for name in dir() if not name.startswith("_")]
