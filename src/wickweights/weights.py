"""Weight functions over trace invariants, and the linear systems behind them.

A weight of order kappa is w = a_0 + sum over nonempty partitions k (weight
<= kappa) of a_k * prod_i tr((M M+)^{k_i}).  The coefficients are fixed by
requiring that the weighted Gaussian average of every invariant equals its
value on the target space, where M M+ is the identity: a product of p traces
integrates to N^p.  That gives one linear condition per partition; the Gram
matrix of the system is the table of Gaussian cross-moments of the
invariants, which is positive definite, so the solution exists and is
unique.

Solved weights are cached on disk keyed by (ensemble, kappa); a fresh solve
always re-checks the defining conditions symbolically before the weight is
returned or stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cache
from .algebra import RatFunc, solve_linear_system
from .combinatorics import Partition, enumerate_partitions
from .wick import (
    DeltaExpansion,
    Ensemble,
    Slot,
    delta_product_target,
    gaussian_trace_moment,
    gram_product_moment,
    moment_with_invariants,
)


@dataclass(frozen=True)
class GramSystem:
    """Cross-moment matrix and target vector defining a weight of order kappa."""

    ensemble: Ensemble
    kappa: int
    partitions: tuple[Partition, ...]
    matrix: tuple[tuple[RatFunc, ...], ...]
    rhs: tuple[RatFunc, ...]

    def is_symmetric(self) -> bool:
        n = len(self.partitions)
        return all(self.matrix[i][j] == self.matrix[j][i] for i in range(n) for j in range(i))


def build_gram_system(ensemble: Ensemble, kappa: int) -> GramSystem:
    """Gram matrix <I_k1 I_k2>_g over the canonical partition list, with the
    target values N^(number of parts) on the right-hand side.

    The targets are the same for all three ensembles: the target matrices
    are unitary, so each trace factor of the invariant equals N there.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    parts = tuple(enumerate_partitions(kappa))
    matrix = tuple(
        tuple(gaussian_trace_moment(ensemble, (p1, p2)) for p2 in parts)
        for p1 in parts
    )
    rhs = tuple(RatFunc.n_power(len(p)) for p in parts)
    return GramSystem(ensemble, kappa, parts, matrix, rhs)


@dataclass(frozen=True)
class WeightFunction:
    """Solved weight: ensemble, order kappa, and partition -> coefficient."""

    ensemble: Ensemble
    kappa: int
    coefficients: dict[Partition, RatFunc] = field(compare=False)

    def coefficient(self, partition: Partition) -> RatFunc:
        return self.coefficients[tuple(partition)]

    def items(self) -> list[tuple[Partition, RatFunc]]:
        order = enumerate_partitions(self.kappa) if self.kappa >= 1 else [()]
        return [(p, self.coefficients[p]) for p in order]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightFunction)
            and self.ensemble == other.ensemble
            and self.kappa == other.kappa
            and self.coefficients == other.coefficients
        )

    def to_json(self) -> dict:
        return {
            "ensemble": self.ensemble.value,
            "kappa": self.kappa,
            "coefficients": [
                {"partition": list(p), "value": v.to_json()} for p, v in self.items()
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "WeightFunction":
        coeffs = {
            tuple(entry["partition"]): RatFunc.from_json(entry["value"])
            for entry in obj["coefficients"]
        }
        return WeightFunction(Ensemble(obj["ensemble"]), int(obj["kappa"]), coeffs)


def unit_weight(ensemble: Ensemble) -> WeightFunction:
    """The trivial weight w = 1 (pure Gaussian averaging, kappa = 0)."""
    return WeightFunction(ensemble, 0, {(): RatFunc(1)})


def _cache_name(ensemble: Ensemble, kappa: int) -> str:
    return f"weight_{ensemble.value}_k{kappa}.json"


def solve_weight(ensemble: Ensemble, kappa: int, use_disk: bool = True) -> WeightFunction:
    """Build and solve the defining system for w_kappa.

    A fresh solve verifies the residual of the defining conditions is
    identically zero before returning.  Solved tables are stored on disk
    and read back on later calls.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if use_disk:
        obj = cache.load_json(_cache_name(ensemble, kappa))
        if obj is not None:
            return WeightFunction.from_json(obj)
    system = build_gram_system(ensemble, kappa)
    solution = solve_linear_system(system.matrix, system.rhs)
    for row, b in zip(system.matrix, system.rhs):
        acc = RatFunc(0)
        for entry, x in zip(row, solution):
            acc = acc + entry * x
        if acc != b:
            raise AssertionError("weight solution does not satisfy its defining conditions")
    weight = WeightFunction(ensemble, kappa, dict(zip(system.partitions, solution)))
    if use_disk:
        cache.store_json(_cache_name(ensemble, kappa), weight.to_json())
    return weight


def weighted_moment(weight: WeightFunction, slots: list[Slot], workers: int | None = None) -> DeltaExpansion:
    """<w * product of slots>_g = sum over partitions of a_k <I_k * slots>_g."""
    out = DeltaExpansion.zero()
    for partition, coeff in weight.coefficients.items():
        if not coeff:
            continue
        term = moment_with_invariants(weight.ensemble, slots, [partition], workers=workers)
        out = out + term.scale(coeff)
    return out


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of checking <w (M M+)_(i1,l1)...(ik,lk)> = d_(i1,l1)...d_(ik,lk)."""

    ensemble: Ensemble
    kappa: int
    k: int
    ok: bool
    residual: DeltaExpansion

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAILED"
        s = f"condition k={self.k} for {self.ensemble.value} kappa={self.kappa}: {status}"
        if not self.ok:
            s += f"; residual {self.residual!r}"
        return s


def verify_conditions(weight: WeightFunction, k: int) -> ConditionReport:
    """Symbolically check the order-k defining condition of the weight.

    The weighted Gram product comes by invariance (wick.gram_product_moment).
    For k <= kappa its contractions are exactly rows of the weight's own Gram
    system, so this check follows from the solve; the independent evidence
    that the reduction is right is the test suite's comparison with the
    pairing-walk kernel and with the stored expansions of that kernel.
    """
    if not 1 <= k <= max(weight.kappa, 1):
        raise ValueError("k must lie in 1..kappa")
    residual = gram_product_moment(weight.ensemble, weight.coefficients, k) - delta_product_target(k)
    return ConditionReport(weight.ensemble, weight.kappa, k, not residual, residual)
