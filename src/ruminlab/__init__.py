"""Spectral geometry of the Rumin complex on model Sasakian 3-manifolds."""

from .exterior import (
    Bidegree,
    CoframeIndex,
    DimensionMismatch,
    PointwiseForm,
    bidegree_split,
    complex_structure,
    hodge_star,
    inner_product,
    interior_reeb,
    lefschetz_trace,
    lefschetz_wedge,
    primitive_projection,
    wedge,
)
from .model import (
    FrameStructure,
    FunctionBlock,
    ModelManifold,
    ParameterError,
    lens_space,
    su2_model,
)
from .operators import (
    BlockContext,
    BlockOperator,
    GradedSpace,
    InternalConsistencyError,
    StructuralError,
)
from .spectral import (
    Assembly,
    KernelBasis,
    SpectrumTable,
    VerificationReport,
    block_spectrum,
    de_rham_cohomology_dims,
    harmonic_bases,
    kernel,
    principal_sines,
    q_decomposition,
    rumin_cohomology_dims,
    verify_complex_property,
    verify_eigenvalue_identity,
    verify_deformation_family,
    verify_hodge_block_matrix,
    verify_kernel_coincidence,
    verify_middle_degree,
    verify_primitivity,
    verify_sasakian_identities,
    verify_star_symmetry,
)
from .torsion import (
    TorsionReport,
    kappa_weights,
    reeb_decomposition,
)

__version__ = "0.1.0"
