"""softfem: Galerkin FEM and softFEM spectral laboratory."""

from .assembly import (
    FeSpace,
    assemble_mass,
    assemble_penalty,
    assemble_stiffness,
    build_space,
    soften,
    softness_parameters,
)
from .coefficient import CoefficientField, CoefficientParseError, parse_coefficient
from .gevp import (
    Spectrum,
    condition_number,
    solve_gmevp,
    stiffness_reduction,
)
from .mesh import (
    InvalidMeshError,
    Mesh,
    build_cartesian_mesh,
    load_mesh,
    mesh_from_spec,
)
from .polyref import (
    QuadratureRule,
    ReferenceBasis,
    gauss_legendre_rule,
    gauss_lobatto_rule,
)

__version__ = "0.1.0"
