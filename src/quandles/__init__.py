"""Computational toolkit for finite quandles.

Covers quandle construction and validation, constant quandle cohomology
with coefficients in finite groups, coverings and extensions, fundamental
groups of connected affine quandles, and quandle-colored knot invariants.
"""

from .abelian import (
    AbHom,
    FinAbGroup,
    SubgroupData,
    TensorSquare,
    quotient_invariants,
    smith_normal_form,
    subgroup_generated,
    tensor_square,
    twisted_tensor_relators,
)
from .cocycles import (
    CoeffGroup,
    ConstantCocycle,
    OrbitPartition,
    are_cohomologous,
    cocycle_from_json,
    cocycle_to_json,
    cocycle_witness,
    cohomologous,
    conjugate_cocycle,
    embed_coeffs,
    f_orbit_length,
    full_partition,
    h2c,
    h2c_is_trivial,
    normalize,
    normalized_cocycles,
    pair_map,
    parse_coeff_descriptor,
    trivial_cocycle,
)
from .core import (
    AffineQuandle,
    CosetQuandle,
    Quandle,
    affine_is_connected,
    affine_quandle,
    are_isomorphic,
    conjugation_quandle,
    coset_quandle,
    dihedral_quandle,
    from_table,
    load_quandle_file,
    projection_quandle,
    quandle_from_text,
    quandle_to_text,
)
from .coverings import (
    Congruence,
    Covering,
    Extension,
    all_congruences,
    coverings_equivalent,
    extend,
    is_covering,
    ker_left_section,
    principal_congruence,
)
from .knots import (
    GAUSS_CODES,
    Crossing,
    KnotDiagram,
    cocycle_invariant,
    col_count,
    colorings,
    parse_gauss,
    unknot,
)
from .perms import PermGroup, closure, orbits
from .pi1 import (
    Pi1Presentation,
    is_simply_connected_affine,
    pi1_affine,
    pi1_presentation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
