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

* reference_class_matrix: the class matrix of the invariance systems,
  counted by enumerating every index structure against one structure per
  class.  The engine never forms it: it solves in the Jack basis, where the
  matrix is diagonal.

* reference_coe_matrix: the class matrix of COE entry moments as a sum of
  N^cycles over the hyperoctahedral group, for each pair of classes.  The
  engine instead uses the orthogonal class matrix at N and N+1.

* cumulants_from_moments: connected parts by the moment-cumulant recursion
  over whole delta expansions, with the arithmetic on expansions that the
  engine, which outputs expansions but never computes with them, does not
  carry.  The engine takes one cumulant per class of index structure.

* reference_jack_table and reference_binomials: the Jack polynomials by
  Gram-Schmidt in Fraction arithmetic, and the generalized binomials
  projected with them.  The engine runs the Gram-Schmidt fraction-free.

* binomials, binomial_ell and binomial_kernel_weight: the generalized
  binomials by Kaneko's recurrence, and the Laguerre kernel summed over
  them, pair by pair of partitions sigma inside theta.  The engine takes the
  kernel from the Baker-Forrester generating function and needs no binomial.

* euclid_gcd: the polynomial gcd by Euclid's algorithm over Q, in
  Fractions.  The engine's poly_gcd instead runs the primitive
  pseudo-remainder sequence over Z, with no fraction.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from wickweights import DeltaExpansion, Ensemble, Partition, Slot
from wickweights.algebra import N, Poly, RatFunc, linear_product, scaled_sum
from wickweights.combinatorics import (
    DeltaStructure,
    contract_deltas,
    partitions_of,
    perfect_matchings,
    set_partitions,
)
from wickweights.weights import WeightFunction
from wickweights.wick import _jack_table, _mate, _structures, gaussian_trace_moment


# -- delta-expansion arithmetic ----------------------------------------------------------


def add(*expansions: DeltaExpansion) -> DeltaExpansion:
    out: dict[DeltaStructure, RatFunc] = {}
    for e in expansions:
        for k, v in e.terms.items():
            out[k] = out[k] + v if k in out else v
    return DeltaExpansion(out)


def scale(expansion: DeltaExpansion, c: RatFunc) -> DeltaExpansion:
    return DeltaExpansion({k: v * c for k, v in expansion.terms.items()})


def subtract(a: DeltaExpansion, b: DeltaExpansion) -> DeltaExpansion:
    return add(a, scale(b, RatFunc(-1)))


def product(a: DeltaExpansion, b: DeltaExpansion) -> DeltaExpansion:
    """Product of expansions over disjoint free-label sets."""
    out: dict[DeltaStructure, RatFunc] = {}
    for ka, va in a.terms.items():
        for kb, vb in b.terms.items():
            k = tuple(sorted(ka + kb, key=lambda blk: blk[0]))
            out[k] = out[k] + va * vb if k in out else va * vb
    return DeltaExpansion(out)


def rename(expansion: DeltaExpansion, mapping: dict[str, str]) -> DeltaExpansion:
    out: dict[DeltaStructure, RatFunc] = {}
    for k, v in expansion.terms.items():
        blocks = [(tuple(sorted(mapping.get(x, x) for x in labels)), anchor) for labels, anchor in k]
        blocks.sort(key=lambda blk: blk[0])
        out[tuple(blocks)] = v
    return DeltaExpansion(out)


def min_order(expansion: DeltaExpansion) -> int | None:
    """Smallest decay exponent among the coefficients; None if empty."""
    return min((v.order() for v in expansion.terms.values()), default=None)


def ratfunc_from_json(obj: dict) -> RatFunc:
    """Inverse of RatFunc.to_json."""
    return RatFunc(Poly(int(c) for c in obj["num"]), Poly(int(c) for c in obj["den"]))


def weight_from_json(obj: dict) -> WeightFunction:
    """Inverse of WeightFunction.to_json."""
    coeffs = {tuple(entry["partition"]): ratfunc_from_json(entry["value"]) for entry in obj["coefficients"]}
    return WeightFunction(Ensemble(obj["ensemble"]), int(obj["kappa"]), coeffs)


def expansion_from_json(obj: list) -> DeltaExpansion:
    """Inverse of DeltaExpansion.to_json.  Numeric strings in the delta pairs
    are the concrete anchors (symbolic labels are identifiers, never digits)."""
    terms: dict[DeltaStructure, RatFunc] = {}
    for entry in obj:
        edges = [tuple(int(x) if x.isdigit() else x for x in pair) for pair in entry["deltas"]]
        res = contract_deltas(edges, ())
        if res is None:
            raise ValueError("inconsistent delta pattern in serialized expansion")
        terms[res[0]] = ratfunc_from_json(entry["coeff"])
    return DeltaExpansion(terms)


def clear_engine_memos() -> set:
    """Empty every memo of wickweights.wick, each object there with cache_clear, so that
    what a test computes next is recomputed from nothing; return the memos."""
    from wickweights import wick

    memos = {f for f in vars(wick).values() if hasattr(f, "cache_clear")}
    for memo in memos:
        memo.cache_clear()
    return memos


def delta_product_target(k: int) -> DeltaExpansion:
    """The target-space value of the entrywise product: d(i1,l1)...d(ik,lk)."""
    structure, _ = contract_deltas([(f"i{v}", f"l{v}") for v in range(1, k + 1)], ())
    return DeltaExpansion({structure: RatFunc(1)})


def cumulants_from_moments(items: Sequence, moment_fn: Callable[[tuple], DeltaExpansion]) -> DeltaExpansion:
    """Connected part of the full item list under block factorization.

    moment_fn maps a tuple of items to the full Gaussian moment of their
    combined product.  The connected part subtracts, recursively, every
    splitting into two or more complete contractions.
    """
    memo: dict[frozenset, DeltaExpansion] = {}

    def cumulant(sub: tuple) -> DeltaExpansion:
        key = frozenset(sub)
        if key not in memo:
            total = moment_fn(sub)
            for blocks in set_partitions(sub):
                if len(blocks) > 1:
                    prod = DeltaExpansion({(): RatFunc(1)})
                    for b in blocks:
                        prod = product(prod, cumulant(tuple(b)))
                    total = subtract(total, prod)
            memo[key] = total
        return memo[key]

    return cumulant(tuple(items))


# -- pairings and delta patterns ---------------------------------------------------------


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def bipartite_matchings(left: Sequence[int], right: Sequence[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    """All bijections pairing each left slot with a distinct right slot."""
    if len(left) != len(right):
        return

    def rec(i: int, avail: list[int]) -> Iterator[tuple[tuple[int, int], ...]]:
        if i == len(left):
            yield ()
            return
        for j in range(len(avail)):
            partner = avail[j]
            rest = avail[:j] + avail[j + 1 :]
            for tail in rec(i + 1, rest):
                yield ((left[i], partner),) + tail

    yield from rec(0, list(right))


def enumerate_pairings(conjugated: Sequence[bool], complex_entries: bool) -> Iterator[tuple[tuple[int, int], ...]]:
    """Stream the Wick pairings of slots described by their conjugation flags.

    Real entries (complex_entries=False) pair freely: (2m-1)!! matchings.
    Complex entries pair an unconjugated slot with a conjugated one: m!
    matchings, or an empty stream when the counts differ (the holomorphic
    moment vanishes).
    """
    n = len(conjugated)
    if n % 2:
        return
    if not complex_entries:
        if any(conjugated):
            raise ValueError("conjugation flags are not allowed for real entries")
        yield from perfect_matchings(n)
        return
    left = [i for i in range(n) if not conjugated[i]]
    right = [i for i in range(n) if conjugated[i]]
    yield from bipartite_matchings(left, right)


def structure_to_delta_pairs(structure: DeltaStructure) -> list[tuple[str, str]]:
    """Flatten an equality structure into a chain of two-index deltas."""
    pairs: list[tuple[str, str]] = []
    for labels, anchor in structure:
        base = str(anchor) if anchor is not None else labels[0]
        rest = labels if anchor is not None else labels[1:]
        for lab in rest:
            pairs.append((base, lab))
    return pairs


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
    variants = (0, 1) if ensemble is Ensemble.COE else (0,)
    counts: dict[DeltaStructure, dict[int, int]] = {}  # structure -> power of N -> pairings
    if len(slots) % 2:
        return DeltaExpansion()
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
            by_power = counts.setdefault(structure, {})
            by_power[power] = by_power.get(power, 0) + 1
    den = ensemble.pair_denominator ** m
    return DeltaExpansion({structure: RatFunc(sum((n * N ** p for p, n in by_power.items()), Poly()), den)
                           for structure, by_power in counts.items()})


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
            total *= Fraction(double_factorial(p - 1), n ** (p // 2))
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
    return Fraction(double_factorial(p - 1) * double_factorial(q - 1), double_factorial(p + q))


def ratfunc_from(num: Poly | int, den: Poly | int = 1) -> RatFunc:
    return RatFunc(num, den)


def weighted_trace_average(weight: WeightFunction, k: int) -> RatFunc:
    """<w * tr((M M+)^k)>_g, assembled from closed trace moments."""
    out = RatFunc(0)
    for partition, coeff in weight.coefficients.items():
        if coeff:
            out = out + coeff * gaussian_trace_moment(weight.ensemble, [partition, (k,)])
    return out


# -- class matrices by brute force -----------------------------------------------------------


def _loop_type(mate: Sequence[int], other: Sequence[int]) -> Partition:
    """Half-lengths of the cycles that two perfect matchings (partner lists) close."""
    seen = [False] * len(mate)
    parts = []
    for start in range(len(mate)):
        n, x = 0, start
        while not seen[x]:
            seen[x] = seen[other[x]] = True
            n += 1
            x = mate[other[x]]
        if n:
            parts.append(n)
    return tuple(sorted(parts, reverse=True))


def _cycle_count(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    n = 0
    for x in range(len(perm)):
        if not seen[x]:
            n += 1
            while not seen[x]:
                seen[x] = True
                x = perm[x]
    return n


def reference_coe_matrix(m: int) -> list[list[RatFunc]]:
    """The COE class matrix of entry moments of degree 2m, by a sum over B_m.

    Entry [lam][mu] sums phi_nu over the perfect matchings pi of the 2m
    plain index ends of class mu (their loop type with the base pairs
    (2v, 2v+1)), where nu is the loop type of pi with a fixed matching of
    class lam, and phi_nu = sum over the hyperoctahedral group B_m of
    N^cyc(z_nu b).  Here z_nu carries the pairs of a matching of class nu
    onto the base pairs and b runs over the permutations that map base
    pairs to base pairs.  Classes are in the order of partitions_of(m).
    """
    base = [x ^ 1 for x in range(2 * m)]
    mates = []
    for pairs in perfect_matchings(2 * m):
        mate = [0] * (2 * m)
        for a, b in pairs:
            mate[a], mate[b] = b, a
        mates.append((pairs, mate))
    reps = {}
    for pairs, mate in mates:
        reps.setdefault(_loop_type(mate, base), (pairs, mate))
    phi = {}
    for nu, (pairs, _) in reps.items():
        z = [0] * (2 * m)
        for v, (a, b) in enumerate(pairs):
            z[a], z[b] = 2 * v, 2 * v + 1
        powers = [0] * (2 * m + 1)
        for tau in itertools.permutations(range(m)):
            for flips in itertools.product((0, 1), repeat=m):
                powers[_cycle_count([z[2 * tau[v] + (e ^ flips[v])] for v in range(m) for e in (0, 1)])] += 1
        phi[nu] = Poly(powers)
    classes = list(partitions_of(m))
    matrix = []
    for lam in classes:
        rho = reps[lam][1]
        row = [Poly() for _ in classes]
        for _, mate in mates:
            mu = classes.index(_loop_type(mate, base))
            row[mu] = row[mu] + phi[_loop_type(mate, rho)]
        matrix.append([RatFunc(p) for p in row])
    return matrix


@functools.lru_cache(maxsize=None)
def _loop_table(orthogonal: bool, k: int) -> tuple:
    """table[lam][mu] maps a number of loops to the number of structures pi
    of class mu that close that many loops with a fixed structure rho_lam."""
    classes, classed = _structures(2 if orthogonal else 1, k)
    mates = [(_mate(pairs), mu) for pairs, mu in classed]
    reps = {}
    for mate, mu in mates:
        reps.setdefault(mu, mate)
    table = [[{} for _ in classes] for _ in classes]
    for lam, row in enumerate(table):
        for mate, mu in mates:
            loops = len(_loop_type(mate, reps[lam]))
            row[mu][loops] = row[mu].get(loops, 0) + 1
    return table


def reference_class_matrix(orthogonal: bool, k: int, shift: int = 0) -> list[list[RatFunc]]:
    """A[lam][mu] = sum over pi of class mu of (N + shift)^(loops of pi and rho_lam).

    pi runs over the perfect matchings of 2k labels (orthogonal) or the
    pairings (2v, 2 sigma(v) + 1) (otherwise), as wick._structures lists
    them; classes are in the order of partitions_of(k).
    """
    base = Poly((shift, 1))
    return [[RatFunc(sum((n * base ** loops for loops, n in cell.items()), Poly())) for cell in row]
            for row in _loop_table(orthogonal, k)]


# -- Jack polynomials and generalized binomials ----------------------------------------------


def reference_jack_table(k: int, alpha: int) -> tuple[tuple[int, ...], tuple[tuple[tuple, tuple, Fraction], ...]]:
    """z^alpha_mu per class of k, and (offsets, J_theta, j_theta) per partition theta,
    by Gram-Schmidt in Fraction arithmetic on g_theta = sum_mu R_(mu,theta) p_mu / z^alpha_mu.

    J_theta is in power sums, scaled so that J_theta(1^n) = Z_theta(n) at n = k + 2,
    and j_theta = <J_theta, J_theta>.  The engine's wick._jack_table runs the same
    Gram-Schmidt fraction-free and keeps J_theta as a scale times an integer vector.
    """
    from wickweights.wick import _fillings

    classes = list(partitions_of(k))
    z = tuple(alpha ** len(mu) * math.prod(x ** n * math.factorial(n) for x, n in Counter(mu).items())
              for mu in classes)

    def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        return sum((w * a * b for w, a, b in zip(z, u, v)), Fraction(0))

    jacks = []
    for theta in classes:
        p = tuple(Fraction(_fillings(mu, theta), w) for mu, w in zip(classes, z))
        for _, q, norm in jacks:
            f = dot(p, q) / norm
            p = tuple(a - f * b for a, b in zip(p, q))
        offsets = tuple(skew(theta, (), alpha))
        scale = math.prod(k + 2 + x for x in offsets) / sum(a * (k + 2) ** len(mu) for a, mu in zip(p, classes))
        p = tuple(a * scale for a in p)
        jacks.append((offsets, p, dot(p, p)))
    return z, tuple(jacks)


def reference_binomials(k: int, alpha: int) -> list[dict[Partition, Fraction]]:
    """binom(theta, sigma) for each theta of k, in partitions_of order, nonzero only,
    all in Fraction arithmetic on reference_jack_table: J_theta(1 + x) in power sums of
    x at n = k + 2, by p_j(x + 1) = sum_i C(j, i) p_i(x) with p_0 = n, projected onto
    each J_sigma(x) / J_sigma(1^n) with the inner product of the Jack table."""
    n, classes = k + 2, list(partitions_of(k))
    shifted = []
    for mu in classes:
        terms: Counter = Counter()
        for picks in itertools.product(*(range(part + 1) for part in mu)):
            key = tuple(sorted(filter(None, picks), reverse=True))
            terms[key] += math.prod(math.comb(part, i) for part, i in zip(mu, picks)) * n ** picks.count(0)
        shifted.append(terms)
    rows = {}
    for m in range(k + 1):
        z, jacks = reference_jack_table(m, alpha)
        for sigma, (offsets, q, norm) in zip(partitions_of(m), jacks):
            at_ones = Fraction(math.prod(n + x for x in offsets)) / norm
            rows[sigma] = [sum((t[lam] * w * a * at_ones for lam, w, a in zip(partitions_of(m), z, q)), Fraction(0))
                           for t in shifted]
    out = []
    for offsets, p, _ in reference_jack_table(k, alpha)[1]:
        at_ones = math.prod(n + x for x in offsets)
        binom = {sigma: sum((a * b for a, b in zip(p, row)), Fraction(0)) / at_ones for sigma, row in rows.items()}
        out.append({sigma: b for sigma, b in binom.items() if b})
    return out


def skew(theta: Partition, sigma: Partition, alpha: int) -> list[int]:
    """The offsets alpha j - i of the boxes (i, j) of theta outside sigma, counted from 0."""
    return [alpha * j - i for i, row in enumerate(theta) for j in range(sigma[i] if i < len(sigma) else 0, row)]


@functools.cache
def _down(phi: Partition, r: int, alpha: int) -> Fraction:
    """binom(phi, sigma) for sigma = phi less the last box b of row r: the product over the
    boxes s of phi left of b of (alpha a + l + alpha) / (alpha a + l), and over those above b
    of (alpha a + l + 1) / (alpha a + l), with a and l the arm and leg of s in phi (Kaneko,
    SIAM J. Math. Anal. 24 (1993))."""
    j, depth = phi[r] - 1, [sum(part > c for part in phi) for c in range(phi[r])]  # b's column, column lengths
    hooks = [(alpha * (j - c) + depth[c] - 1 - r, alpha) for c in range(j)]
    hooks += [(alpha * (phi[i] - 1 - j) + depth[j] - 1 - i, 1) for i in range(r)]
    return Fraction(math.prod(h + e for h, e in hooks), math.prod(h for h, _ in hooks))


@functools.cache
def binomial_ell(theta: Partition, alpha: int, s: int) -> tuple[Poly, int]:
    """ell_theta = Z_theta(N + s) L_theta(c 1) of binomial_kernel_weight, as an integer polynomial and
    the denominator it is over."""
    return scaled_sum(((-1) ** sum(sigma) * b, linear_product([0] * sum(sigma) + skew(theta, sigma, alpha), s))
                      for sigma, b in binomials(theta, alpha).items())


@functools.cache
def binomials(theta: Partition, alpha: int) -> dict[Partition, Fraction]:
    """The generalized binomials binom(theta, sigma) of J_theta(1 + x) / J_theta(1^n) =
    sum_sigma binom(theta, sigma) J_sigma(x) / J_sigma(1^n), nonzero exactly for the sigma
    inside theta (Lassalle, C. R. Acad. Sci. Paris 312 (1991)).  From binom(theta, theta) = 1
    they follow one box at a time down from theta by Kaneko's recurrence (Dumitriu, Edelman
    and Shuman, J. Symbolic Comput. 42 (2007)),

        (|theta| - |sigma|) binom(theta, sigma) = sum_phi binom(phi, sigma) binom(theta, phi),

    over the phi inside theta with one box more than sigma, each binom(phi, sigma) a _down.
    """
    out, level = {theta: Fraction(1)}, [theta]
    for gap in range(1, sum(theta) + 1):
        sums: dict[Partition, Fraction] = {}
        for phi in level:
            for r in range(len(phi)):
                if r + 1 == len(phi) or phi[r] > phi[r + 1]:
                    sigma = phi[:r] + (phi[r] - 1,) * (phi[r] > 1) + phi[r + 1:]
                    sums[sigma] = sums.get(sigma, 0) + _down(phi, r, alpha) * out[phi]
        level = list(sums)
        out.update((sigma, b / gap) for sigma, b in sums.items())
    return out


def binomial_kernel_weight(ensemble: Ensemble, kappa: int) -> dict[Partition, RatFunc]:
    """Coefficients a_mu of the weight of order kappa, w = sum_mu a_mu p_mu(W), as the
    Laguerre reproducing kernel at W = 1 (Baker and Forrester, Commun. Math. Phys. 188
    (1997)), which the defining conditions <w f(W)>_g = f(1), deg f <= kappa, fix:

        w = sum over |theta| <= kappa of L_theta(c 1) L_theta(c W) / <L_theta^2>_g.

    x = c W, with c = d / alpha, d = N + s the pair denominator and alpha as in
    _class_solve, is Laguerre distributed (James, Ann. Math. Statist. 35 (1964)):
    L_theta(x) = sum_sigma (-1)^|sigma| binom(theta, sigma) alpha^|sigma| J_sigma(x)
    / (Z_sigma(N) Z_sigma(N + s)) and <L_theta^2>_g = j_theta / (Z_theta(N) Z_theta(N + s))
    (Lassalle, 1991).  Z_sigma divides Z_theta for sigma inside theta, so ell_theta =
    Z_theta(N + s) L_theta(c 1) = sum_sigma (-1)^|sigma| binom(theta, sigma) d^|sigma|
    Z_theta(N + s) / Z_sigma(N + s) is a polynomial, and with m = |mu|

        a_mu = (-d)^m sum_(sigma of m) J_sigma[mu] / Z_sigma(N + s) sum_(theta containing sigma)
               binom(theta, sigma) ell_theta Z_theta(N) / (j_theta Z_sigma(N)),

    summed over the lcm of the Z_sigma(N + s) and reduced once, by trial division at its linear
    factors.  ell_theta is binomial_ell(theta), and the binom(theta, sigma) of each theta come
    from one binomials(theta).  With J_sigma = scale_sigma v_sigma as in _jack_table, scale_sigma =
    1 / v_sigma[1^m] joins the inner sum, and the outer sum has the integer multipliers
    v_sigma[mu] over one denominator per m.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    alpha, s = ensemble.alpha, ensemble.pair_shift
    jacks = {theta: jack for k in range(kappa + 1) for theta, jack in zip(partitions_of(k), _jack_table(k, alpha)[1])}
    scales = {theta: Fraction(1, jack.v[-1]) for theta, jack in jacks.items()}
    inner: dict[Partition, list] = {theta: [] for theta in jacks}  # sigma -> the terms of its sum over theta
    for theta in jacks:
        ell, scale = binomial_ell(theta, alpha, s)
        over = 1 / (scales[theta] ** 2 * jacks[theta].norm * scale)
        for sigma, b in binomials(theta, alpha).items():
            inner[sigma].append((b * scales[sigma] * over, ell * linear_product(skew(theta, sigma, alpha))))
    out = {}
    for m in range(kappa + 1):
        sigmas = list(partitions_of(m))
        lcm = functools.reduce(Counter.__or__, (Counter(jacks[sigma].offsets) for sigma in sigmas))
        sums = [scaled_sum(inner[sigma]) for sigma in sigmas]
        q = math.lcm(*(q for _, q in sums))
        sums = [f * (q // f_q) * linear_product((lcm - Counter(jacks[sigma].offsets)).elements(), s)
                for sigma, (f, f_q) in zip(sigmas, sums)]
        lead, den = (-ensemble.pair_denominator) ** m, linear_product(lcm.elements(), s) * q
        factors = Counter({s + x: e for x, e in lcm.items()})
        for i, mu in enumerate(sigmas):
            num, _ = scaled_sum((jacks[sigma].v[i], f) for sigma, f in zip(sigmas, sums) if jacks[sigma].v[i])
            out[mu] = RatFunc.factored(lead * num, den, factors)
    return out


# -- polynomial gcd ----------------------------------------------------------------------


def euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient (zero for two zeros), by
    Euclid's algorithm over Q, scaled to an integer polynomial at the end."""
    x, y = [Fraction(c) for c in a.coeffs], [Fraction(c) for c in b.coeffs]
    while y:
        while len(x) >= len(y):  # x mod y, one top coefficient at a time
            q, shift = x[-1] / y[-1], len(x) - len(y)
            x = [c - q * y[i - shift] if i >= shift else c for i, c in enumerate(x[:-1])]
            while x and not x[-1]:
                x.pop()
        x, y = y, x
    scale = math.lcm(*(c.denominator for c in x))
    ints = [int(c * scale) for c in x]
    sign = 1 if not ints or ints[-1] > 0 else -1
    return Poly(c // (sign * math.gcd(*ints)) for c in ints)
