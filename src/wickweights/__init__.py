"""Exact Wick-contraction integration over O(N), U(N) and the COE.

The package builds weight functions over trace invariants so that weighted
Gaussian averages reproduce Haar (resp. Dyson) integrals of matrix-entry
monomials exactly up to degree 2*kappa, and to a measured power of 1/N
beyond.  All symbolic results are exact rational functions of the matrix
dimension N; floating point only appears in the Monte Carlo oracle.
"""

from .algebra import (
    N,
    PoleError,
    Poly,
    RatFunc,
    SingularMatrixError,
    solve_linear_system,
)
from .combinatorics import (
    Partition,
    check_partition,
    contract_deltas,
    enumerate_partitions,
    partitions_of,
)
from .wick import (
    DeltaExpansion,
    Ensemble,
    MonomialSpec,
    Slot,
    connected_entry_moment,
    connected_trace_moment,
    gaussian_entry_moment,
    gaussian_trace_moment,
)
from .weights import (
    GramSystem,
    WeightFunction,
    build_gram_system,
    solve_weight,
    unit_weight,
    verify_conditions,
)
from .integrate import (
    error_order,
    integrate_gram_product,
    integrate_monomial,
    weighted_connected_order,
)

_SAMPLING = ("McEstimate", "cross_check", "mc_integrate", "sample_haar")


def __getattr__(name: str):
    # the Monte Carlo oracle needs numpy; import it only when asked for
    if name in _SAMPLING:
        from . import sampling

        return getattr(sampling, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "N", "Poly", "RatFunc", "PoleError", "SingularMatrixError", "solve_linear_system",
    "Partition", "check_partition", "contract_deltas", "enumerate_partitions", "partitions_of",
    "DeltaExpansion", "Ensemble", "MonomialSpec", "Slot",
    "connected_entry_moment", "connected_trace_moment",
    "gaussian_entry_moment", "gaussian_trace_moment",
    "GramSystem", "WeightFunction", "build_gram_system", "solve_weight",
    "unit_weight", "verify_conditions",
    "error_order", "integrate_gram_product", "integrate_monomial",
    "weighted_connected_order",
    "McEstimate", "cross_check", "mc_integrate", "sample_haar",
]
