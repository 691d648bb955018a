"""Weighted Gaussian integrals of monomials and their 1/N error orders.

integrate_monomial is the user-facing product: an exact symbolic expansion
of <w * prod M_(i,j)>_g.  For monomial degree <= 2*kappa this equals the
target-space integral exactly; beyond that the deviation decays like a
power of 1/N whose exponent the error_order functions measure, never
assume.
"""

from __future__ import annotations

from .algebra import RatFunc
from .wick import (
    DeltaExpansion,
    MonomialSpec,
    cumulants_from_moments,
    delta_product_target,
    gaussian_trace_moment,
    gram_product_moment,
)
from .weights import WeightFunction, unit_weight, weighted_moment


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

    Computes <w (M M+)_(i1,l1)...(ik,lk)> minus the exact target-space value
    (the plain delta product) and returns the minimum decay exponent over
    the residual coefficients.  Returns None when the deviation vanishes
    identically.  Tracing the blocks instead would close index loops
    through the residual patterns and amplify them by powers of N, so the
    trace of the deviation grows and is not the quantity bounded here.
    """
    if k <= weight.kappa:
        raise ValueError("error order is measured beyond the weight's exact range")
    diff = integrate_gram_product(weight, k) - delta_product_target(k)
    return diff.min_order()


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
    ensemble = weight.ensemble
    plain_by_size: dict[int, DeltaExpansion] = {}
    weighted_by_size: dict[int, DeltaExpansion] = {}

    def canonical_moment(s: int, with_weight: bool) -> DeltaExpansion:
        memo = weighted_by_size if with_weight else plain_by_size
        hit = memo.get(s)
        if hit is None:
            if s == 0:
                total = RatFunc(1)
                if with_weight:
                    total = RatFunc(0)
                    for p, c in weight.coefficients.items():
                        total = total + c * gaussian_trace_moment(ensemble, [p])
                hit = DeltaExpansion.unit(total)
            else:
                src = weight if with_weight else unit_weight(ensemble)
                hit = integrate_gram_product(src, s)
            memo[s] = hit
        return hit

    def moment_fn(sub: tuple) -> DeltaExpansion:
        blocks = sorted(x for x in sub if x != "w")
        base = canonical_moment(len(blocks), "w" in sub)
        mapping = {}
        for t, v in enumerate(blocks, start=1):
            mapping[f"i{t}"] = f"i{v}"
            mapping[f"l{t}"] = f"l{v}"
        return base.rename(mapping)

    items = ("w",) + tuple(range(1, k + 1))
    return cumulants_from_moments(items, moment_fn)


def weighted_connected_order(weight: WeightFunction, k: int) -> int | None:
    """Minimum decay exponent over the connected part's coefficients.

    For k = 1 the connected part vanishes identically (returns None); for
    1 < k <= kappa the exponent is expected to be at least floor((k+1)/2),
    barring accidental cancellation.
    """
    if not 1 <= k <= weight.kappa:
        raise ValueError("k must lie in 1..kappa")
    return weighted_connected_moment(weight, k).min_order()
