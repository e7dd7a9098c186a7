"""Exact computations around threefold ordinary double points: stable Hom
in singularity categories, matrix factorizations with the doubling functor,
toric sheaf cohomology, exceptional-collection verification, and
non-commutative deformation towers."""

from .fields import QQ, GF, QuadraticExtension, field_by_name
from .poly import PolyRing, Polynomial
from .linalg import Matrix
from .quotient import QuotientRing, parse_ring
from .modgb import groebner_basis
from .modules import FPModule, FreeResolution
from .homs import (MorphismSpace, ext_dims, ext_space, ext_is_zero,
                   fiber_generators, hom_space, is_mcm, stable_hom,
                   yoneda_extension)
from .findim import FiniteDimAlgebra, algebra_idempotents
from .matfac import (MatrixFactorization, knorrer, mf_check, mf_from_module,
                     mf_shift, mf_stable_hom)
from .toric import (Fan, TDivisor, class_group, cohomology, fan_library,
                    intersect_curve, weil_is_cartier)
from .ncdef import (SimpleCollection, DeformationState, TerminationReport,
                    deform_step, flatness_filtration_check, initial_state,
                    run, simple_check)
from .sodcheck import (check_exceptional, check_orthogonal_to_deformation,
                       les_propagate, verify_odp_hypotheses)

__version__ = "0.1.0"
