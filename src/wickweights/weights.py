"""Weight functions over trace invariants.

A weight of order kappa is w = a_0 + sum over nonempty partitions k (weight
<= kappa) of a_k * prod_i tr((M M+)^{k_i}).  The coefficients are fixed by
requiring that the weighted Gaussian average of every invariant equals its
value on the target space, where M M+ is the identity: a product of p traces
integrates to N^p.  That gives one linear condition per partition; the Gram
matrix of the system is the table of Gaussian cross-moments of the
invariants, which is positive definite, so the solution exists and is
unique.

solve_weight writes it down in closed form (wick.kernel_weight) in the run
that asks for it, building and solving no system.  The tests tie it to the
Gram system through the stored tables, and verify_conditions checks the
conditions at run time by an independent path.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import N, RatFunc
from .combinatorics import Partition, enumerate_partitions, partition_label
from .wick import (
    DeltaExpansion,
    Ensemble,
    Slot,
    entry_moment,
    gaussian_trace_moment,
    gram_class_residual,
    kernel_weight,
)


class GramSystem(NamedTuple):
    """Cross-moment matrix and target vector defining a weight of order kappa."""

    ensemble: Ensemble
    kappa: int
    partitions: tuple[Partition, ...]
    matrix: tuple[tuple[RatFunc, ...], ...]
    rhs: tuple[RatFunc, ...]


def build_gram_system(ensemble: Ensemble, kappa: int) -> GramSystem:
    """Gram matrix <I_k1 I_k2>_g over the canonical partition list, with the
    target values N^(number of parts) on the right-hand side.

    The targets are the same for all three ensembles: the target matrices
    are unitary, so each trace factor of the invariant equals N there.  No
    run of the program builds it: the tests solve it, and perfbench/ reads it.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    parts = tuple(enumerate_partitions(kappa))
    matrix = tuple(
        tuple(gaussian_trace_moment(ensemble, (p1, p2)) for p2 in parts)
        for p1 in parts
    )
    rhs = tuple(RatFunc(N ** len(p)) for p in parts)
    return GramSystem(ensemble, kappa, parts, matrix, rhs)


class WeightFunction(NamedTuple):
    """Solved weight: ensemble, order kappa, and partition -> coefficient."""

    ensemble: Ensemble
    kappa: int
    coefficients: dict[Partition, RatFunc]

    def coefficient(self, partition: Partition) -> RatFunc:
        return self.coefficients[tuple(partition)]

    def items(self) -> list[tuple[Partition, RatFunc]]:
        order = enumerate_partitions(self.kappa) if self.kappa >= 1 else [()]
        return [(p, self.coefficients[p]) for p in order]

    def to_json(self) -> dict:
        return {
            "ensemble": self.ensemble.value,
            "kappa": self.kappa,
            "coefficients": [
                {"partition": list(p), "value": v.to_json()} for p, v in self.items()
            ],
        }


def unit_weight(ensemble: Ensemble) -> WeightFunction:
    """The trivial weight w = 1 (pure Gaussian averaging, kappa = 0)."""
    return WeightFunction(ensemble, 0, {(): RatFunc(1)})


def solve_weight(ensemble: Ensemble, kappa: int) -> WeightFunction:
    """The weight of order kappa, the solution of its defining system in
    closed form (wick.kernel_weight)."""
    return WeightFunction(ensemble, kappa, kernel_weight(ensemble, kappa))


def weighted_moment(weight: WeightFunction, slots: list[Slot]) -> DeltaExpansion:
    """<w * product of slots>_g = sum over partitions of a_k <I_k * slots>_g.

    One pass by invariance takes all of the weight's coefficients at once
    (wick.entry_moment): they enter only through the closed trace moments
    on the right-hand side of its small class system.
    """
    return entry_moment(weight.ensemble, weight.coefficients, slots)


class ConditionReport(NamedTuple):
    """Outcome of checking <w (M M+)_(i1,l1)...(ik,lk)> = d_(i1,l1)...d_(ik,lk).

    residual maps each class mu of k whose coefficient misses its target
    value [mu = 1^k] to the difference c_mu - [mu = 1^k].
    """

    ensemble: Ensemble
    kappa: int
    k: int
    ok: bool
    residual: dict[Partition, RatFunc]

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAILED"
        s = f"condition k={self.k} for {self.ensemble.value} kappa={self.kappa}: {status}"
        if not self.ok:
            s += "; residual " + ", ".join(f"{partition_label(mu)}: {r}" for mu, r in self.residual.items())
        return s


def verify_conditions(weight: WeightFunction, k: int) -> ConditionReport:
    """Symbolically check the order-k defining condition of the weight.

    The weighted Gram product is sum_pi c_(class pi) d_pi by invariance, and
    the class 1^k holds one structure, the target, so the condition holds
    exactly when every class coefficient equals [mu = 1^k]
    (wick.gram_class_residual); no index structure is expanded.  The class
    targets are summed from the loop equation, so the check does not depend
    on how the weight was built.  The evidence that the reduction is right
    is the test suite's comparison with the brute-force pairing sum of
    tests/helpers.py and with the stored expansions of the former
    pairing-walk engine.
    """
    if not 1 <= k <= max(weight.kappa, 1):
        raise ValueError("k must lie in 1..kappa")
    residual = gram_class_residual(weight.ensemble, weight.coefficients, k)
    return ConditionReport(weight.ensemble, weight.kappa, k, not residual, residual)
