"""Weighted Gaussian integrals of monomials and their 1/N error orders.

integrate_monomial is the user-facing product: an exact symbolic expansion
of <w * prod M_(i,j)>_g.  For monomial degree <= 2*kappa this equals the
target-space integral exactly; beyond that the deviation decays like a
power of 1/N whose exponent the error_order functions measure, never
assume.
"""

from __future__ import annotations

from .combinatorics import partitions_of
from .wick import (
    DeltaExpansion,
    MonomialSpec,
    delta_product_target,
    gram_block_cumulant,
    gram_class_coefficients,
    gram_product_moment,
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
    wick.gram_product_moment), so even the degree-18 products take well
    under a second and nothing is stored on disk.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return gram_product_moment(weight.ensemble, weight.coefficients, k)


def error_order(weight: WeightFunction, k: int) -> int | None:
    """Observed decay exponent of the entrywise deviation at degree 2k > 2*kappa.

    Takes <w (M M+)_(i1,l1)...(ik,lk)> minus the exact target-space value
    (the plain delta product) and returns the minimum decay exponent over
    the residual coefficients.  Returns None when the deviation vanishes
    identically.  The residual is read off the class coefficients c_mu of
    the moment, without expanding it: each structure of class mu carries
    c_mu, and the class 1^k holds exactly one structure, the target, so the
    coefficients are c_mu - [mu = 1^k].  Tracing the blocks instead would
    close index loops through the residual patterns and amplify them by
    powers of N, so the trace of the deviation grows and is not the
    quantity bounded here.
    """
    if k <= weight.kappa:
        raise ValueError("error order is measured beyond the weight's exact range")
    coeffs = gram_class_coefficients(weight.ensemble, weight.coefficients, k)
    orders = [(c - 1 if mu == (1,) * k else c).order() for mu, c in zip(partitions_of(k), coeffs)]
    return min((o for o in orders if o is not None), default=None)


def weighted_connected_moment(weight: WeightFunction, k: int) -> DeltaExpansion:
    """Connected part of <w (M M+)_(i1,l1)...(ik,lk)>_g.

    The weight counts as one more factor in the block decomposition: the
    connected part is what remains after removing every splitting into two
    or more complete contractions of entry blocks and/or the weight.  The
    canonical s-block moments are Gram products, computed by invariance and
    memoized per call, not read from disk.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return gram_block_cumulant(weight.ensemble, k, weight.coefficients)


def weighted_connected_order(weight: WeightFunction, k: int) -> int | None:
    """Minimum decay exponent over the connected part's coefficients.

    For k = 1 the connected part vanishes identically (returns None); for
    1 < k <= kappa the exponent is expected to be at least floor((k+1)/2),
    barring accidental cancellation.
    """
    if not 1 <= k <= weight.kappa:
        raise ValueError("k must lie in 1..kappa")
    return weighted_connected_moment(weight, k).min_order()
