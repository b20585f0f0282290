"""Fundamental groups of connected affine quandles.

For an affine quandle over (G, alpha), the fundamental group is the quotient
of the tensor square G (x) G by the subgroup generated by all
x (x) y - y (x) alpha(x). The full enveloping group is Z x G x that quotient
with a twisted multiplication; only its group law is implemented here, not
any explicit isomorphism with an abstract presentation.

Everything comes from (G, alpha) with no quandle table, and the relator
subgroup is an echelon lattice, so the cost is polynomial in the rank of G.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
from .core import AffineQuandle, affine_is_connected
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

    def coset_rep(self, element):
        """Least representative of element + I, in the tensor group's order."""
        return self.relator_subgroup.coset_rep(element)

    @cached_property
    def _alpha_powers(self):
        return {0: AbHom.identity(self.group), 1: self.alpha}

    def alpha_power(self, n):
        cache = self._alpha_powers
        if n not in cache:
            cache[n] = self.alpha.pow(n)
        return cache[n]


def pi1_presentation(group, alpha):
    """Compute the tensor square, the twisting relators, and the quotient."""
    if group.rank > MAX_PI1_RANK:
        raise BudgetExceeded(f"pi1 needs rank <= {MAX_PI1_RANK}, got {group.descriptor()}")
    if not isinstance(alpha, AbHom):
        alpha = AbHom(group, group, alpha)
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
    group, alpha = quandle.group, quandle.alpha
    if not affine_is_connected(group, alpha):
        raise NotConnected(
            f"affine quandle over {group.descriptor()} is not connected (1 - alpha "
            "is not an automorphism)"
        )
    return pi1_presentation(group, alpha).invariants


def is_simply_connected_affine(quandle):
    return pi1_affine(quandle) == ()


@dataclass(frozen=True)
class EnvelopeElement:
    """Element (k, x, a) of Z x G x (G(x)G / I) with the twisted product."""

    shift: int
    translation: tuple
    coset: tuple


def envelope_identity(pres):
    return EnvelopeElement(0, pres.group.zero, pres.coset_rep(pres.tensor.group.zero))


def envelope_mul(pres, a, b):
    """(k, x, a)(m, y, b) = (k+m, alpha^m(x)+y, a+b+[alpha^m(x) (x) y])."""
    group = pres.group
    square = pres.tensor
    twisted = pres.alpha_power(b.shift)(a.translation)
    coset = square.group.add(
        square.group.add(a.coset, b.coset), square.pure_tensor(twisted, b.translation)
    )
    return EnvelopeElement(
        a.shift + b.shift,
        group.add(twisted, b.translation),
        pres.coset_rep(coset),
    )


def envelope_inverse(pres, a):
    group = pres.group
    square = pres.tensor
    x_inv = group.neg(pres.alpha_power(-a.shift)(a.translation))
    coset = square.group.neg(
        square.group.add(a.coset, square.pure_tensor(group.neg(x_inv), x_inv))
    )
    return EnvelopeElement(-a.shift, x_inv, pres.coset_rep(coset))
