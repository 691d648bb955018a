"""Weighted Gaussian integrals of monomials and their 1/N error orders.

integrate_monomial is the user-facing product: an exact symbolic expansion
of <w * prod M_(i,j)>_g.  For monomial degree <= 2*kappa this equals the
target-space integral exactly; beyond that the deviation decays like a
power of 1/N whose exponent the error_order functions measure, never
assume.
"""

from __future__ import annotations

from typing import Iterable

from .algebra import RatFunc
from .wick import (
    DeltaExpansion,
    MonomialSpec,
    gram_class_coefficients,
    gram_class_expansion,
    gram_class_residual,
    gram_connected_coefficients,
)
from .weights import WeightFunction, weighted_moment


def integrate_monomial(weight: WeightFunction, monomial: MonomialSpec) -> DeltaExpansion:
    """Exact symbolic <w * monomial>_g.

    Computed by invariance (see wick.entry_moment), with no Wick pairings:
    the moment is a sum of delta structures on the indices whose
    coefficients depend only on a partition of half the degree, and these
    solve a small linear system over closed trace moments.  Symbolic indices
    appear as free labels in the result; a fully concrete monomial collapses
    to a single rational function of N (the expansion has at most the empty
    delta structure).
    """
    monomial.validate(weight.ensemble)
    return weighted_moment(weight, list(monomial.slots))


def integrate_gram_product(weight: WeightFunction, k: int) -> DeltaExpansion:
    """<w * (M M+)_(i1,l1) ... (M M+)_(ik,lk)>_g over distinct free labels.

    Computed by invariance from closed trace moments (see
    wick.gram_class_coefficients), so even the degree-18 products take well
    under a second and nothing is stored on disk.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return gram_class_expansion(weight.ensemble, k, gram_class_coefficients(weight.ensemble, weight.coefficients, k))


def _min_order(values: Iterable[RatFunc]) -> int | None:
    return min((v.order() for v in values if v), default=None)


def error_order(weight: WeightFunction, k: int) -> int | None:
    """Observed decay exponent of the entrywise deviation at degree 2k > 2*kappa.

    Takes <w (M M+)_(i1,l1)...(ik,lk)> minus the exact target-space value
    (the plain delta product) and returns the minimum decay exponent over
    the residual coefficients.  Returns None when the deviation vanishes
    identically.  The residual is read off the class coefficients, without
    expanding it (wick.gram_class_residual).  Tracing the blocks instead
    would close index loops through the residual patterns and amplify them
    by powers of N, so the trace of the deviation grows and is not the
    quantity bounded here.
    """
    if k <= weight.kappa:
        raise ValueError("error order is measured beyond the weight's exact range")
    return _min_order(gram_class_residual(weight.ensemble, weight.coefficients, k).values())


def weighted_connected_moment(weight: WeightFunction, k: int) -> DeltaExpansion:
    """Connected part of <w (M M+)_(i1,l1)...(ik,lk)>_g.

    The weight counts as one more factor in the block decomposition: the
    connected part is what remains after removing every splitting into two
    or more complete contractions of entry blocks and/or the weight.  Its
    coefficient depends only on the class of the index structure and is a
    cumulant over the structure's loops and the weight
    (wick.gram_connected_coefficients), expanded only here, for output.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return gram_class_expansion(weight.ensemble, k, gram_connected_coefficients(weight.ensemble, weight.coefficients, k))


def weighted_connected_order(weight: WeightFunction, k: int) -> int | None:
    """Minimum decay exponent over the connected part's class coefficients.

    For k = 1 the connected part vanishes identically (returns None); for
    1 < k <= kappa the exponent is expected to be at least floor((k+1)/2),
    barring accidental cancellation.
    """
    if not 1 <= k <= weight.kappa:
        raise ValueError("k must lie in 1..kappa")
    return _min_order(gram_connected_coefficients(weight.ensemble, weight.coefficients, k))
