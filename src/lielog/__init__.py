"""Logarithms of automorphisms of truncated free tensor and Lie algebras.

The package computes, for a filtered automorphism whose degree-1 part has an
exponential-solvable spectrum, the unique derivation that exponentiates to it,
together with the surrounding machinery: truncated tensor/Lie algebras with
exact-rational and complex backends, Lyndon bases, Magnus expansions and the
total Johnson map, BCH utilities, and spectral checks.
"""

from .scalars import (
    COMPLEX,
    EXACT,
    DimensionMismatch,
    DomainError,
    KernelSingular,
)
from .tensor_algebra import (
    TruncatedTensor,
    is_grouplike,
    is_primitive,
    mul,
    tensor_exp,
    tensor_inverse,
    tensor_log,
)
from .free_lie import (
    LiePoly,
    bracket,
    bracketing_kernel,
    lie_to_tensor,
    lyndon_basis,
    omega,
    omega_tensor,
    tensor_to_lie,
)
from .automorphisms import (
    GradedAut,
    gl_action_on_hom,
    splitting,
    transporter,
)
from .derivations import (
    GradedDerivation,
    annihilates_omega,
    conjugation_defect,
    exp_derivation,
    extend,
    inner,
)
from .logarithm import (
    BchResult,
    LogReport,
    SolvabilityError,
    bch_series,
    ln_aut,
    log_unipotent,
)
from .magnus import (
    FreeGroupEndo,
    FreeGroupWord,
    MagnusExpansion,
    boundary_word,
    dehn_fixtures,
    is_symplectic_expansion,
    theta_exp,
    total_johnson,
)
from .spectral import (
    SolvabilityVerdict,
    eig_unit_circle_obstruction,
    jordan_tensor_blocks,
    principal_log,
)

__version__ = "0.1.0"
