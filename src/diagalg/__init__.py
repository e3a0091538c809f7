"""Exact diagram combinatorics for partition and Temperley-Lieb algebras.

Everything is exact: integer polynomials in the loop parameter delta for
diagram composition, integers for all counts and coefficients, and
rational halves for the triangle geometry.
"""

from .diagrams import (
    DeltaPolynomial,
    DiagramSum,
    InvariantViolation,
    SetPartitionDiagram,
    compose,
    generator,
    is_noncrossing,
    is_tl_diagram,
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
    E1Solution,
    bvo_multiplicity,
    e2_lattice,
    e_closed,
    e_lattice,
    lattice_line_count,
    symmetry_suite,
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
    TLHalfDiagram,
    groth_multiply,
    tl_basis,
    tl_basis_count,
    tl_e,
    tl_walled_dim_check,
)
from .walled import (
    TransitionCase,
    WalledHalfDiagram,
    WalledIndex,
    census,
    index_of,
)

__version__ = "0.1.0"

__all__ = [
    "DeltaPolynomial",
    "DiagramSum",
    "E1Solution",
    "GrothElement",
    "HalfDiagram",
    "InvariantViolation",
    "Partition",
    "ScaledHalfDiagram",
    "SetPartitionDiagram",
    "TLHalfDiagram",
    "TransitionCase",
    "WalledHalfDiagram",
    "WalledIndex",
    "act",
    "bell",
    "bvo_multiplicity",
    "census",
    "check_partition",
    "compose",
    "conic_eccentricity_count",
    "conic_parameters",
    "dim_standard",
    "e2_lattice",
    "e_closed",
    "e_lattice",
    "enumerate_basis",
    "generator",
    "geometric_multiplicity",
    "groth_multiply",
    "half_diagram_count",
    "index_of",
    "is_noncrossing",
    "is_tl_diagram",
    "kronecker_coeff",
    "lattice_line_count",
    "lr_coeff",
    "mn_character",
    "parity_tangency",
    "partitions_of",
    "propagating_number",
    "stirling2",
    "symmetry_suite",
    "syt_count",
    "tangent_lengths",
    "tl_basis",
    "tl_basis_count",
    "tl_e",
    "tl_walled_dim_check",
]
