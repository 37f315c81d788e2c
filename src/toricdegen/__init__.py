"""Exact-arithmetic semi-stable degenerations of toric varieties.

Given a lattice polytope and a partition into simplicial subpolytopes, the
package verifies the semi-stability hierarchy, constructs the lifting
function and the lifted polytope one dimension up, and emits the complete
combinatorial description of the resulting degeneration: components, dual
graph, local monomial charts and the hypersurface family equations.
"""

from .errors import (
    EmptyPolyhedronError,
    GeometryError,
    InputError,
    LiftingError,
    PartitionError,
    UnsupportedGeometryError,
)
from .exactmath import AffineFunction
from .polytope import (
    Fan,
    Halfspace,
    LatticePolytope,
    SupportFunction,
    complete_fan_from_rays,
    lattice_equivalent,
    lattice_equivalences,
    normal_fan,
)
from .partition import (
    DualComplex,
    Partition,
    WeightVector,
    build_partition,
    partition_by_hyperplanes,
    partition_from_fan,
)
from .lifting import (
    IntegralLifting,
    LiftedPolytope,
    MultiLifting,
    PiecewiseAffine,
    WallCochain,
    check_cocycle,
    concavity,
    concavity_profile,
    extend_support_function,
    integrate_cocycle,
    iterated_lift,
    lift_polytope,
    lifting_function,
    minimal_integral_lifting,
    wall_functions,
)
from .degeneration import (
    DegenerationReport,
    FamilyEquations,
    LocalChart,
    build_report,
    family_equations,
    local_charts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
