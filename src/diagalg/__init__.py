"""Exact diagram combinatorics for partition and Temperley-Lieb algebras.

Everything is exact: integer polynomials in the loop parameter delta for
diagram composition, integers for all counts and coefficients, and
rational halves for the triangle geometry.
"""

from types import ModuleType as _Module

from .diagrams import (
    DeltaPolynomial,
    DiagramSum,
    InvariantViolation,
    SetPartitionDiagram,
    compose,
    generator,
    is_noncrossing,
    propagating_number,
)
from .geometry import (
    conic_eccentricity_count,
    conic_parameters,
    geometric_multiplicity,
    parity_tangency,
    tangent_lengths,
)
from .halfdiag import (
    HalfDiagram,
    ScaledHalfDiagram,
    act,
    bell,
    dim_standard,
    enumerate_basis,
    half_diagram_count,
    stirling2,
)
from .multiplicity import (
    bvo_multiplicity,
    e2_lattice,
    e_closed,
    e_lattice,
    lattice_line_count,
)
from .symfunc import (
    Partition,
    check_partition,
    kronecker_coeff,
    lr_coeff,
    mn_character,
    partitions_of,
    syt_count,
)
from .tl import (
    GrothElement,
    groth_multiply,
    planar_row,
    tl_basis,
    tl_basis_count,
    tl_e,
)
from .walled import (
    TransitionCase,
    WalledHalfDiagram,
    WalledIndex,
    census,
    index_of,
)

__version__ = "0.1.0"

# The imports above are the one list of public names.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _Module)
)
