"""Fundamental groups of connected affine quandles.

For an affine quandle over (G, alpha), the fundamental group is the quotient
of the tensor square G (x) G by the subgroup generated by all
x (x) y - y (x) alpha(x).

Everything comes from (G, alpha) with no quandle table, and the relator
subgroup is an echelon lattice, so the cost is polynomial in the rank of G.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import (
    AbHom,
    FinAbGroup,
    SubgroupData,
    TensorSquare,
    quotient_invariants,
    subgroup_generated,
    tensor_square,
    twisted_tensor_relators,
)
from .core import AffineQuandle, _require_automorphism, affine_is_connected
from .errors import BudgetExceeded, NotConnected

# largest rank of G that pi1_presentation accepts; pi1 at rank 16 with a
# dense alpha over Z_(2^20) takes about 1 s (Python 3.11, Intel Xeon)
MAX_PI1_RANK = 16


@dataclass(frozen=True)
class Pi1Presentation:
    """Tensor-square data describing pi_1 of an affine quandle."""

    group: FinAbGroup
    alpha: AbHom
    tensor: TensorSquare
    relators: tuple
    relator_subgroup: SubgroupData
    invariants: tuple

    @property
    def tensor_order(self):
        return self.tensor.group.order

    @property
    def relator_order(self):
        return self.relator_subgroup.order

    def is_trivial(self):
        return not self.invariants


def pi1_presentation(group, alpha):
    """pi_1 of the connected affine quandle over (group, alpha): the tensor
    square, the twisting relators, and the quotient.

    This is the one place pi1's input is checked, cheapest first: the rank of
    G is at most ``MAX_PI1_RANK`` before any lattice reduction
    (``BudgetExceeded``), a matrix becomes an ``AbHom`` (``ValueError``),
    alpha is an automorphism of G (``NotAutomorphism``), and 1 - alpha is one
    too, so the quandle is connected (``NotConnected``).
    """
    if group.rank > MAX_PI1_RANK:
        raise BudgetExceeded(f"pi1 needs rank <= {MAX_PI1_RANK}, got {group.descriptor()}")
    if not isinstance(alpha, AbHom):
        alpha = AbHom(group, group, alpha)
    _require_automorphism(group, alpha)
    if not affine_is_connected(group, alpha):
        raise NotConnected(
            f"affine quandle over {group.descriptor()} is not connected (1 - alpha "
            "is not an automorphism)"
        )
    square = tensor_square(group)
    relators = tuple(twisted_tensor_relators(group, alpha))
    subgroup = subgroup_generated(square.group, relators)
    invariants = quotient_invariants(square.group, subgroup)
    return Pi1Presentation(
        group=group,
        alpha=alpha,
        tensor=square,
        relators=relators,
        relator_subgroup=subgroup,
        invariants=invariants,
    )


def pi1_affine(quandle):
    """Invariant factors of pi_1 of a connected affine quandle."""
    if not isinstance(quandle, AffineQuandle):
        raise TypeError("pi1_affine needs an affine quandle")
    return pi1_presentation(quandle.group, quandle.alpha).invariants


def is_simply_connected_affine(quandle):
    return pi1_affine(quandle) == ()

