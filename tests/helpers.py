"""Independent oracles used across the test suite.

Two cross-checks for the contraction engine, deliberately on different
foundations:

* reference_expansion: literal sum over the streamed Wick pairings,
  multiplying elementary contractions and contracting deltas with the
  public contract_deltas.  The engine itself never enumerates pairings; it
  works by invariance.

* concrete-index oracles: no pairings at all.  Assign every index a value,
  group the factors into independent scalar Gaussians and use closed-form
  scalar moments: E[x^(2p)] = (2p-1)!! for a real unit Gaussian,
  E[|z|^(2p)] = p! for a complex one.  Entry variances: 1/N (orthogonal,
  unitary), (1 + delta_ij)/(N+1) for the symmetric COE matrices (S_ij and
  S_ji are the same variable, so buckets key on the unordered pair).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from wickweights import DeltaExpansion, Ensemble, Partition, Slot, enumerate_pairings
from wickweights.algebra import Poly, RatFunc
from wickweights.combinatorics import contract_deltas


# -- wirings of invariants and Gram blocks into slots ----------------------------------


class FreshSummed:
    """Generates unique internal summed-index tokens ("~", n)."""

    def __init__(self, start: int = 0):
        self._i = start

    def __call__(self) -> tuple:
        self._i += 1
        return ("~", self._i)


def invariant_slots(ensemble: Ensemble, partition: Partition, fresh: FreshSummed) -> list[Slot]:
    """Slots of prod_i tr((M M+)^{k_i}) with fresh summed indices.

    One factor (M M+)_{a,a'} contributes M_(a,b) times the adjoint entry:
    M_(a',b) for real entries, ~M_(a',b) for the unitary case, and ~S_(b,a')
    for the symmetric COE matrices (whose adjoint is the entrywise
    conjugate).
    """
    slots: list[Slot] = []
    for part in partition:
        a = [fresh() for _ in range(part)]
        b = [fresh() for _ in range(part)]
        for v in range(part):
            an = a[(v + 1) % part]
            slots.append(Slot(a[v], b[v], False))
            if ensemble is Ensemble.ORTHOGONAL:
                slots.append(Slot(an, b[v], False))
            elif ensemble is Ensemble.UNITARY:
                slots.append(Slot(an, b[v], True))
            else:
                slots.append(Slot(b[v], an, True))
    return slots


def gram_block_slots(ensemble: Ensemble, row, col, fresh: FreshSummed) -> list[Slot]:
    """Slots of a single entrywise block (M M+)_(row,col)."""
    b = fresh()
    if ensemble is Ensemble.ORTHOGONAL:
        return [Slot(row, b, False), Slot(col, b, False)]
    if ensemble is Ensemble.UNITARY:
        return [Slot(row, b, False), Slot(col, b, True)]
    return [Slot(row, b, False), Slot(b, col, True)]


def gram_product_slots(ensemble: Ensemble, k: int) -> tuple[list[Slot], list[tuple[str, str]]]:
    """Slots of (M M+)_(i1,l1) ... (M M+)_(ik,lk) plus the label pairs."""
    fresh = FreshSummed()
    slots: list[Slot] = []
    labels = []
    for v in range(1, k + 1):
        slots.extend(gram_block_slots(ensemble, f"i{v}", f"l{v}", fresh))
        labels.append((f"i{v}", f"l{v}"))
    return slots, labels


# -- oracles ---------------------------------------------------------------------------


def reference_expansion(ensemble: Ensemble, slots) -> DeltaExpansion:
    """Brute-force moment: stream pairings, expand rule terms, contract."""
    summed = {lab for s in slots for lab in (s.row, s.col) if isinstance(lab, tuple)}
    conj = [s.conj for s in slots]
    m = len(slots) // 2
    den = RatFunc(1, ensemble.pair_denominator ** m)
    variants = (0, 1) if ensemble.two_term else (0,)
    total = DeltaExpansion.zero()
    if len(slots) % 2:
        return total
    for pairing in enumerate_pairings(conj, ensemble.complex_entries):
        for choice in itertools.product(variants, repeat=m):
            edges = []
            for (a, b), v in zip(pairing, choice):
                sa, sb = slots[a], slots[b]
                if v == 0:
                    edges.append((sa.row, sb.row))
                    edges.append((sa.col, sb.col))
                else:
                    edges.append((sa.row, sb.col))
                    edges.append((sa.col, sb.row))
            res = contract_deltas(edges, summed)
            if res is None:
                continue
            structure, power = res
            total = total + DeltaExpansion({structure: RatFunc.n_power(power) * den})
    return total


def _double_fact(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _fact(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def oracle_concrete_moment(ensemble: Ensemble, slots, n: int) -> Fraction:
    """Exact Gaussian expectation of a product of concrete-index entries."""
    if ensemble is Ensemble.ORTHOGONAL:
        buckets: dict = {}
        for s in slots:
            key = (s.row, s.col)
            buckets[key] = buckets.get(key, 0) + 1
        total = Fraction(1)
        for p in buckets.values():
            if p % 2:
                return Fraction(0)
            total *= Fraction(_double_fact(p - 1), n ** (p // 2))
        return total
    symmetric = ensemble is Ensemble.COE
    counts: dict = {}
    for s in slots:
        key = frozenset((s.row, s.col)) if symmetric else (s.row, s.col)
        plain, conj = counts.get(key, (0, 0))
        counts[key] = (plain + (not s.conj), conj + s.conj)
    total = Fraction(1)
    for key, (plain, conj) in counts.items():
        if plain != conj:
            return Fraction(0)
        if symmetric:
            i, j = (next(iter(key)), next(iter(key))) if len(key) == 1 else tuple(key)
            var = Fraction(2 if i == j else 1, n + 1)
        else:
            var = Fraction(1, n)
        total *= _fact(plain) * var ** plain
    return total


def oracle_trace_moment(ensemble: Ensemble, invariants, n: int) -> Fraction:
    """Exact <prod tr((M M+)^k_i)>_g at a concrete dimension, by summing the
    concrete-index oracle over all index assignments."""
    flat = tuple(x for p in invariants for x in p)
    slots = invariant_slots(ensemble, flat, FreshSummed())
    labels = sorted({lab for s in slots for lab in (s.row, s.col)})
    total = Fraction(0)
    for assign in itertools.product(range(n), repeat=len(labels)):
        amap = dict(zip(labels, assign))
        concrete = [Slot(amap[s.row], amap[s.col], s.conj) for s in slots]
        total += oracle_concrete_moment(ensemble, concrete, n)
    return total


def evaluate_expansion(expansion: DeltaExpansion, assignment: dict, n: int) -> Fraction:
    """Value of a delta expansion for concrete free-label values at N = n."""
    total = Fraction(0)
    for structure, coeff in expansion.terms.items():
        ok = True
        for labels, anchor in structure:
            vals = {assignment[lab] for lab in labels}
            if anchor is not None:
                vals.add(anchor)
            if len(vals) != 1:
                ok = False
                break
        if ok:
            total += coeff.eval(n)
    return total


def circle_cos_sin_moment(p: int, q: int) -> Fraction:
    """(1/2pi) * integral of cos^p sin^q over the circle (p, q >= 0)."""
    if p % 2 or q % 2:
        return Fraction(0)
    return Fraction(_double_fact(p - 1) * _double_fact(q - 1), _double_fact(p + q))


def ratfunc_from(num: Poly | int, den: Poly | int = 1) -> RatFunc:
    return RatFunc(num, den)
