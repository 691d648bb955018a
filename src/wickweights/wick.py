"""Exact Gaussian moments of matrix entries and traces, weighted or not.

Ensembles
---------
orthogonal  real Gaussian entries,            <M_ij M_kl>   = d_ik d_jl / N
unitary     complex Gaussian entries,         <M_ij ~M_kl>  = d_ik d_jl / N
coe         complex symmetric Gaussian,       <~S_ij S_kl>  = (d_ik d_jl + d_il d_jk) / (N+1)

(~X is the complex conjugate; d is the Kronecker delta.)  Each second
moment is normalized so that <(M M+)_ij> = d_ij, which makes the unit
weight already reproduce the degree-2 target integrals.  For the symmetric
ensemble the exchange term contributes an extra unit under the internal
index sum, so its normalizing denominator is N+1 rather than N; the
published COE coefficient tables require exactly this convention.
Holomorphic pairs vanish for the complex ensembles, so their pairings are
bijections between conjugated and unconjugated slots; real slots pair
freely.

Closed trace moments <prod_i tr((M M+)^{k_i})> come from the loop equation
(Gaussian integration by parts), a recursion on the trace powers that
enumerates no pairings; see Haagerup and Thorbjornsen, Expo. Math. 21
(2003), for the complex case and Forrester, Rahman and Witte, J. Math.
Phys. 58 (2017), for the real one.

Every moment with free or concrete indices comes by invariance, again
without pairings.  With w a class function of M M+, the weighted measure
is invariant under M -> O M O'^T, U M V and S -> U S U^T, so
<w * prod of entries> is a combination of delta structures whose
coefficients depend only on a partition of half the degree.  Contracting
with one structure per partition leaves a small linear system over closed
trace moments (entry_moment; gram_class_coefficients for products of
entrywise (M M+) blocks).  Its matrix is diagonal in the basis of Jack
polynomials, with eigenvalues in closed form, so it is solved without
being formed (_class_solve).  See Collins, IMRN 2003, no. 17; Collins and Matsumoto,
Weingarten calculus via orthogonality relations, 2017; Zinn-Justin,
Lett. Math. Phys. 91 (2010); and Matsumoto, Weingarten calculus for
matrix ensembles associated with compact symmetric spaces, 2011, for the
COE action.

Scalar questions are answered from these class coefficients, and a
DeltaExpansion is built only as output.  A defining condition or error
order compares c_mu with its target [mu = 1^k] (gram_class_residual).
Connected parts are cumulants per class: the loops of a Gram structure
with the base pairs are its connected components over the blocks, so the
structure splits along a partition of the blocks exactly when every loop
lies inside one part, and its restriction to a part has the class of that
part's loop lengths.  The connected coefficient of class mu is therefore
a cumulant over the loops of mu, and the weight when there is one
(gram_connected_coefficients).

Labels in a monomial are symbolic (str, a free index), concrete (int, a
fixed matrix index) or summed (a tuple, an internal index that is
contracted: each closed loop of summed indices is a factor N).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .algebra import Poly, RatFunc, clear_denominators, linear_combination, scaled_sum
from .combinatorics import (
    DeltaStructure,
    Partition,
    check_partition,
    contract_deltas,
    partitions_of,
    perfect_matchings,
    set_partitions,
    structure_label,
)


class Ensemble(str, enum.Enum):
    """Target matrix space, which fixes the elementary contraction rule."""

    ORTHOGONAL = "orthogonal"
    UNITARY = "unitary"
    COE = "coe"

    @property
    def complex_entries(self) -> bool:
        return self is not Ensemble.ORTHOGONAL

    @property
    def pair_denominator(self) -> Poly:
        """Normalizer of one elementary contraction: N, or N+1 for the COE."""
        return Poly((1, 1)) if self is Ensemble.COE else Poly((0, 1))


class Slot(NamedTuple):
    """One matrix-entry factor M_(row,col), optionally conjugated."""

    row: object
    col: object
    conj: bool = False


_SLOT_RE = re.compile(r"(Mc?)\[([A-Za-z_]\w*|\d+),([A-Za-z_]\w*|\d+)\]\Z")


def _parse_index(tok: str):
    return int(tok) if tok.isdigit() else tok


@dataclass(frozen=True)
class MonomialSpec:
    """An ordered product of matrix-entry factors."""

    slots: tuple[Slot, ...]

    def __post_init__(self):
        if not self.slots:
            raise ValueError("monomial must have at least one factor")

    @staticmethod
    def parse(text: str) -> "MonomialSpec":
        """Parse 'M[i,j] Mc[1,2] ...'; Mc is the conjugated entry."""
        slots = []
        for tok in text.split():
            m = _SLOT_RE.match(tok)
            if not m:
                raise ValueError(f"bad monomial factor {tok!r}; expected M[i,j] or Mc[i,j]")
            slots.append(Slot(_parse_index(m.group(2)), _parse_index(m.group(3)), m.group(1) == "Mc"))
        if not slots:
            raise ValueError("empty monomial")
        return MonomialSpec(tuple(slots))

    def validate(self, ensemble: Ensemble) -> None:
        if not ensemble.complex_entries and any(s.conj for s in self.slots):
            raise ValueError("conjugated entries are not defined for the orthogonal ensemble")

    def is_concrete(self) -> bool:
        return all(isinstance(s.row, int) and isinstance(s.col, int) for s in self.slots)


# -- delta expansions -----------------------------------------------------------------


def _structure_order(structure: DeltaStructure) -> tuple:
    # a block with the same labels may carry a concrete anchor or none
    return tuple((labels, () if anchor is None else (anchor,)) for labels, anchor in structure)


class DeltaExpansion:
    """Linear combination of delta structures with RatFunc coefficients.

    The canonical form of any entry-monomial integral: keys are the residual
    equality structures on the free labels (see combinatorics.contract_deltas),
    values are exact rational functions of N.  Zero coefficients are dropped,
    so equality of expansions is dict equality.  It is an output format only:
    scalar questions (defining conditions, error orders, connected orders)
    are answered from class coefficients, never from an expansion.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[DeltaStructure, RatFunc] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: _structure_order(kv[0]))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, DeltaExpansion) and self.terms == other.terms

    def as_ratfunc(self) -> RatFunc:
        """Collapse an expansion with no residual deltas to its scalar."""
        if not self.terms:
            return RatFunc(0)
        if set(self.terms) == {()}:
            return self.terms[()]
        raise ValueError("expansion still carries free-index deltas")

    def to_json(self) -> list:
        out = []
        for k, v in self.items():
            deltas = []
            for labels, anchor in k:
                base = str(anchor) if anchor is not None else labels[0]
                rest = labels if anchor is not None else labels[1:]
                deltas.extend([base, lab] for lab in rest)
            out.append({"deltas": deltas, "coeff": v.to_json()})
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "DeltaExpansion(0)"
        return "DeltaExpansion(" + " + ".join(f"[{v}]{structure_label(k)}" for k, v in self.items()) + ")"


# -- public moments -----------------------------------------------------------------------


def gaussian_entry_moment(ensemble: Ensemble, monomial: MonomialSpec) -> DeltaExpansion:
    """Gaussian average of an entry monomial, by invariance (see entry_moment)."""
    return entry_moment(ensemble, {(): RatFunc(1)}, monomial.slots)


@functools.cache
def _loop_numerator(ensemble: Ensemble, powers: tuple[int, ...]) -> tuple[int, ...]:
    """Ascending integer coefficients of d^m <prod_i tr W^{k_i}>, W = M M+.

    powers holds the k_i >= 1 in decreasing order, m is their sum and d the
    pair denominator.  Integration by parts on the entries of the largest
    power k, with R the other traces and tr W^0 = N, gives the loop equation

        d <tr W^k R> = sum_{j<k} <tr W^j tr W^{k-1-j} R> + t_k <tr W^{k-1} R>
                       + sum_{tr W^l in R} c l <tr W^{k+l-1} (R without tr W^l)>

    with (t_k, c) = (0, 1) unitary, (k-1, 2) orthogonal, (k, 2) COE.  Every
    term on the right has total power m-1, so numerators simply add.
    """
    if not powers:
        return (1,)
    k, rest = powers[0], powers[1:]
    c = 1 if ensemble is Ensemble.UNITARY else 2
    t = {Ensemble.UNITARY: 0, Ensemble.ORTHOGONAL: k - 1, Ensemble.COE: k}[ensemble]
    terms = [(1, (j, k - 1 - j) + rest) for j in range(k)]
    terms.append((t, (k - 1,) + rest))
    terms.extend((c * l, (k + l - 1,) + rest[:i] + rest[i + 1:]) for i, l in enumerate(rest))
    out: list[int] = []
    for coeff, sub in terms:
        if not coeff:
            continue
        shift = sub.count(0)  # each tr W^0 is a factor N
        num = _loop_numerator(ensemble, tuple(sorted((x for x in sub if x), reverse=True)))
        out.extend([0] * (len(num) + shift - len(out)))
        for e, x in enumerate(num, start=shift):
            out[e] += coeff * x
    return tuple(out)


def gaussian_trace_moment(
    ensemble: Ensemble,
    invariants: Iterable[Partition],
    *,
    use_disk: bool = True,
) -> RatFunc:
    """Exact <prod_i tr((M M+)^{k_i})>_g as a rational function of N, by the
    loop equation (see _loop_numerator).

    The moment depends only on the multiset of the k_i, and each multiset
    is built and reduced once per process: every later call returns the
    same RatFunc.  use_disk is ignored; it is kept only because
    perfbench/test_reference.py passes it.
    """
    return _trace_moment(ensemble, tuple(sorted((x for p in invariants for x in check_partition(p)), reverse=True)))


@functools.cache
def _trace_moment(ensemble: Ensemble, powers: tuple[int, ...]) -> RatFunc:
    return RatFunc(Poly(_loop_numerator(ensemble, powers)), ensemble.pair_denominator ** sum(powers))


def moment_with_invariants(
    ensemble: Ensemble,
    slots: Sequence[Slot],
    invariants: Iterable[Partition],
) -> DeltaExpansion:
    """<prod_i tr((M M+)^{k_i}) * prod slots>_g, by invariance (see entry_moment)."""
    flat: Partition = tuple(sorted((x for p in invariants for x in check_partition(p)), reverse=True))
    return entry_moment(ensemble, {flat: RatFunc(1)}, slots)


# -- moments by invariance ----------------------------------------------------------------
#
# A structure pi is a partner list over 2k labels: a perfect matching in
# the orthogonal basis, the pairs (2v, 2 sigma(v) + 1) in the unitary one.
# Its class is the partition given by its loops with the base pairs
# (2v, 2v+1).  For Gram products label 2v is i_(v+1) and 2v+1 is l_(v+1),
# and the COE uses the unitary basis; for entry monomials the labels are
# slot positions (or, for the COE, plain index ends) and the COE uses the
# orthogonal basis.


def _loop_lengths(mate: Sequence[int]) -> Partition:
    """Half-lengths of the cycles of mate joined with the base pairs
    (2v, 2v+1), as a partition: the cycle type of sigma, or the coset type
    of a matching."""
    seen = [False] * len(mate)
    parts = []
    for start in range(len(mate)):
        if seen[start]:
            continue
        n, x = 0, start
        while not seen[x]:
            seen[x] = seen[x ^ 1] = True
            n += 1
            x = mate[x ^ 1]
        parts.append(n)
    return tuple(sorted(parts, reverse=True))


@functools.cache
def _structures(orthogonal: bool, k: int) -> tuple[list[Partition], list[tuple[tuple, int]]]:
    """The partitions of k, and (pairs, class index) for every structure on 2k labels."""
    if orthogonal:
        pairings = perfect_matchings(2 * k)
    else:
        pairings = (tuple((2 * v, 2 * s + 1) for v, s in enumerate(sigma))
                    for sigma in itertools.permutations(range(k)))
    classes = list(partitions_of(k))
    index = {lam: c for c, lam in enumerate(classes)}
    return classes, [(pairs, index[_loop_lengths(_mate(pairs))]) for pairs in pairings]


def _mate(pairs: Sequence[tuple[int, int]]) -> list[int]:
    mate = [0] * (2 * len(pairs))
    for a, b in pairs:
        mate[a], mate[b] = b, a
    return mate


@functools.cache
def _fillings(parts: Partition, boxes: Partition) -> int:
    """R_(mu,lam) of p_mu = sum_lam R_(mu,lam) m_lam: the ways to drop the
    parts of mu into boxes of sizes lam so that each box is filled exactly."""
    if not parts:
        return 1
    return sum(_fillings(parts[1:], tuple(sorted(filter(None, boxes[:j] + (size - parts[0],) + boxes[j + 1:]),
                                                 reverse=True)))
               for j, size in enumerate(boxes) if size >= parts[0])


@functools.cache
def _jack_table(k: int, alpha: int) -> tuple[tuple[int, ...], tuple[tuple[tuple, tuple, Fraction], ...]]:
    """z^alpha_mu = z_mu alpha^len(mu) per class, and for each partition theta
    the offsets alpha j - i of its boxes, J_theta and j_theta = <J_theta, J_theta>.

    J_theta is the Jack polynomial J^(alpha)_theta written in power sums.  The
    Jack polynomials are orthogonal under <p_lam, p_mu> = delta z^alpha_mu and
    P_theta is m_theta plus monomials m_lam with lam below theta (Macdonald,
    Symmetric Functions and Hall Polynomials, VI.10), so it is orthogonal to
    the dual basis g_mu of every mu above theta.  Gram-Schmidt on g_theta =
    sum_mu R_(mu,theta) p_mu / z^alpha_mu, from (k) down in partitions_of
    order, therefore yields it up to a scalar, which J_theta(1^n) = Z_theta(n)
    (Macdonald, VI (10.20)) fixes at n = k + 2.
    """
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
        offsets = tuple(_skew(theta, (), alpha))
        scale = math.prod(k + 2 + x for x in offsets) / sum(a * (k + 2) ** len(mu) for a, mu in zip(p, classes))
        p = tuple(a * scale for a in p)
        jacks.append((offsets, p, dot(p, p)))
    return z, tuple(jacks)


def _skew(theta: Partition, sigma: Partition, alpha: int) -> list[int]:
    """The offsets alpha j - i of the boxes (i, j) of theta outside sigma, counted from 0."""
    return [alpha * j - i for i, row in enumerate(theta) for j in range(sigma[i] if i < len(sigma) else 0, row)]


def _boxes(offsets: Iterable[int], shift: int = 0) -> Poly:
    """prod over the offsets x of (N + shift + x): Z_theta(N + shift) for the boxes of theta."""
    return math.prod((Poly((shift + x, 1)) for x in offsets), start=Poly((1,)))


def _class_solve(k: int, alpha: int, targets: Sequence[RatFunc], shifts: Sequence[int]) -> list[RatFunc]:
    """The class coefficients c of T = A(N + s_1) ... A(N + s_r) c, in closed form.

    A_(lam,mu) = sum over pi of class mu of N^(loops of pi and rho_lam), the
    class matrix of the structures on 2k labels (see _structures), with
    alpha = 2 for matchings and 1 for permutations.  Its eigenvectors are
    the Jack polynomials (zonal at alpha = 2, Schur at alpha = 1) and its
    eigenvalues Z_theta(N) = prod over the boxes (i, j) of theta, counted
    from 0, of (N + alpha j - i) (Macdonald, VII.2; Zinn-Justin, Lett. Math.
    Phys. 91 (2010)), so no matrix is formed:

        c_mu = sum_theta z^alpha_mu J_theta[mu] (sum_lam J_theta[lam] T_lam)
                         / (j_theta prod_s Z_theta(N + s)).
    """
    z, jacks = _jack_table(k, alpha)
    terms: list[list] = [[] for _ in z]
    for offsets, p, norm in jacks:
        proj = linear_combination((a, t) for a, t in zip(p, targets) if a and t)
        if proj:
            eigenvalue = math.prod((_boxes(offsets, s) for s in shifts), start=Poly((norm.numerator,)))
            proj = proj * RatFunc(norm.denominator, eigenvalue)
            for mu, (w, a) in enumerate(zip(z, p)):
                if a:
                    terms[mu].append((w * a, proj))
    return [linear_combination(t) for t in terms]


@functools.cache
def _binomials(k: int, alpha: int) -> tuple[dict[Partition, Fraction], ...]:
    """The nonzero generalized binomials of each theta of k, in partitions_of order:
    J_theta(1 + x) / J_theta(1^n) = sum_sigma binom(theta, sigma) J_sigma(x) / J_sigma(1^n)
    for any n >= len(theta), and binom(theta, sigma) = 0 unless sigma lies inside
    theta (Lassalle, C. R. Acad. Sci. Paris 312 (1991)).  At n = k + 2, p_j(x + 1) =
    sum_i C(j, i) p_i(x) with p_0 = n writes J_theta(1 + x) in power sums of x, and
    the inner product of _jack_table projects each degree onto the J_sigma.
    """
    n, classes = k + 2, list(partitions_of(k))
    shifted = []  # p_mu(x + 1) in power sums of x
    for mu in classes:
        terms: dict[Partition, int] = Counter()
        for picks in itertools.product(*(range(part + 1) for part in mu)):
            key = tuple(sorted(filter(None, picks), reverse=True))
            terms[key] += math.prod(math.comb(part, i) for part, i in zip(mu, picks)) * n ** picks.count(0)
        shifted.append(terms)
    rows = {}  # sigma -> the coefficient of J_sigma(x) / J_sigma(1^n) in each p_mu(x + 1)
    for m in range(k + 1):
        z, jacks = _jack_table(m, alpha)
        for sigma, (offsets, q, norm) in zip(partitions_of(m), jacks):
            at_ones = math.prod(n + x for x in offsets) / norm
            dual = [(lam, w * a * at_ones) for lam, w, a in zip(partitions_of(m), z, q)]
            rows[sigma] = [sum(t[lam] * a for lam, a in dual if lam in t) for t in shifted]
    out = []
    for offsets, p, _ in _jack_table(k, alpha)[1]:
        at_ones = math.prod(n + x for x in offsets)
        binom = {sigma: sum(a * b for a, b in zip(p, row)) / at_ones for sigma, row in rows.items()}
        out.append({sigma: b for sigma, b in binom.items() if b})
    return tuple(out)


def kernel_weight(ensemble: Ensemble, kappa: int) -> dict[Partition, RatFunc]:
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

    summed over the lcm of the Z_sigma(N + s) and reduced once.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    alpha, s = (1, 0) if ensemble is Ensemble.UNITARY else (2, int(ensemble is Ensemble.COE))
    jacks = {theta: jack for k in range(kappa + 1) for theta, jack in zip(partitions_of(k), _jack_table(k, alpha)[1])}
    binoms = dict(zip(jacks, (binom for k in range(kappa + 1) for binom in _binomials(k, alpha))))
    inner: dict[Partition, list] = {theta: [] for theta in jacks}  # sigma -> the terms of its sum over theta
    for theta, binom in binoms.items():
        ell, scale = scaled_sum(((-1) ** sum(sigma) * b, _boxes([0] * sum(sigma) + _skew(theta, sigma, alpha), s))
                                for sigma, b in binom.items())
        for sigma, b in binom.items():
            inner[sigma].append((b / (jacks[theta][2] * scale), ell * _boxes(_skew(theta, sigma, alpha))))
    out = {}
    for m in range(kappa + 1):
        sigmas = list(partitions_of(m))
        lcm = functools.reduce(Counter.__or__, (Counter(jacks[sigma][0]) for sigma in sigmas))
        sums = [scaled_sum(inner[sigma]) for sigma in sigmas]
        sums = [(f * _boxes((lcm - Counter(jacks[sigma][0])).elements(), s), q) for sigma, (f, q) in zip(sigmas, sums)]
        lead, den = (-ensemble.pair_denominator) ** m, _boxes(lcm.elements(), s)
        for i, mu in enumerate(sigmas):
            num, scale = scaled_sum((jacks[sigma][1][i] / q, f) for sigma, (f, q) in zip(sigmas, sums))
            out[mu] = RatFunc(lead * num, den * scale)
    return out


def _class_targets(
    ensemble: Ensemble, coefficients: dict[Partition, RatFunc], classes: Sequence[Partition]
) -> list[RatFunc]:
    """sum_p a_p <I_p p_lam(W)>_g for every class lam, p_lam(W) = prod_j tr W^(lam_j), each summed
    over its known denominator D d^(m+|lam|) as the integer loop numerators n_p d^(m-|p|) num(p + lam)
    of _loop_numerator, with a_p = n_p / D and m the largest |p|, and reduced once."""
    den, nums = clear_denominators(list(coefficients.values()))
    d, m = ensemble.pair_denominator, max((sum(p) for p, a in coefficients.items() if a), default=0)
    scaled = [(check_partition(p), n * d ** (m - sum(p))) for p, n in zip(coefficients, nums) if n]
    return [RatFunc(sum(n * Poly(_loop_numerator(ensemble, tuple(sorted(p + lam, reverse=True)))) for p, n in scaled),
                    den * d ** (m + sum(lam))) for lam in classes]


def gram_class_coefficients(ensemble: Ensemble, coefficients: dict[Partition, RatFunc], k: int) -> list[RatFunc]:
    """Class coefficients c_mu of <w (M M+)_(i1,l1) ... (M M+)_(ik,lk)>_g for
    w = sum_p a_p I_p, in partitions_of(k) order, by invariance.

    The moment is sum_pi c_(class pi) d_pi over the index structures pi of
    _structures, with class the coset or cycle type.  Contracting with one
    structure per class lam turns the blocks into p_lam(W) and gives the
    system A c = (sum_p a_p <I_p p_lam(W)>_g)_lam, solved by _class_solve.
    """
    targets = _class_targets(ensemble, coefficients, list(partitions_of(k)))
    return _class_solve(k, 2 if ensemble is Ensemble.ORTHOGONAL else 1, targets, (0,))


def gram_class_residual(ensemble: Ensemble, coefficients: dict[Partition, RatFunc], k: int) -> dict[Partition, RatFunc]:
    """The nonzero c_mu - [mu = 1^k], keyed by class.

    The class 1^k holds one structure, the target d(i1,l1)...d(ik,lk), so
    these are the coefficients of the moment minus its target-space value,
    which decide the defining conditions and error orders without expanding.
    """
    coeffs = gram_class_coefficients(ensemble, coefficients, k)
    residual = {mu: c - 1 if mu == (1,) * k else c for mu, c in zip(partitions_of(k), coeffs)}
    return {mu: r for mu, r in residual.items() if r}


def gram_class_expansion(ensemble: Ensemble, k: int, class_coefficients: Sequence[RatFunc]) -> DeltaExpansion:
    """sum_pi c_(class pi) d_pi over the index structures pi of k Gram blocks,
    with c in partitions_of(k) order (see gram_class_coefficients)."""
    _, pairings = _structures(ensemble is Ensemble.ORTHOGONAL, k)
    names = [f"{'il'[x % 2]}{x // 2 + 1}" for x in range(2 * k)]
    return DeltaExpansion({contract_deltas([(names[a], names[b]) for a, b in pairs], ())[0]: class_coefficients[c]
                           for pairs, c in pairings})


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def _paired_structures(placed: Sequence[Slot], ids: dict, pairings: list, coeffs: list[RatFunc]) -> dict:
    """(class, edges) -> number of pairs of a row pairing and a column pairing.

    Row pairings are taken once per orbit under the permutations of
    identical slots, weighted by the orbit size.  With g the map of the base
    pairs onto a row pairing, the column pairing runs over g(tau) for every
    tau of a class with a nonzero coefficient; the pair then has the class
    of tau.
    """
    rows = [ids[s.row] for s in placed]
    cols = [ids[s.col] for s in placed]
    concrete = {i for lab, i in ids.items() if isinstance(lab, int)}
    kinds: dict[Slot, int] = {}
    kind = [kinds.setdefault(s, len(kinds)) for s in placed]
    orbits: dict[tuple, list] = {}
    for pairs, _ in pairings:
        orbit = orbits.setdefault(tuple(sorted(_edge(kind[a], kind[b]) for a, b in pairs)), [pairs, 0])
        orbit[1] += 1
    live = [(tau, c) for tau, c in pairings if coeffs[c]]
    counts: dict[tuple, int] = {}
    for pairs, size in orbits.values():
        row = tuple(sorted(_edge(rows[a], rows[b]) for a, b in pairs))
        if any(u != v and u in concrete and v in concrete for u, v in row):
            continue
        col_at = [cols[x] for ab in pairs for x in ab]
        for tau, c in live:
            key = (c, row + tuple(sorted(_edge(col_at[x], col_at[y]) for x, y in tau)))
            counts[key] = counts.get(key, 0) + size
    return counts


def _coe_structures(placed: Sequence[Slot], ids: dict, pairings: list, coeffs: list[RatFunc]) -> dict:
    """(class, edges) -> number of bijections pi from plain to conjugated index ends.

    pi is written as tau, the pairing of the plain ends that pi sends to
    one conjugated slot (pi has the class of tau), completed by a conjugated
    slot and an orientation for each pair of tau.  Completions are counted
    by the labels they join, so identical slots merge.
    """
    plain_ends = [ids[lab] for s in placed[0::2] for lab in (s.row, s.col)]
    conj_ends = [(ids[s.row], ids[s.col]) for s in placed[1::2]]
    completions: dict[tuple, int] = {}
    for order in itertools.permutations(conj_ends):
        for oriented in itertools.product(*(((r, c), (c, r)) for r, c in order)):
            right = sum(oriented, ())
            completions[right] = completions.get(right, 0) + 1
    counts: dict[tuple, int] = {}
    for tau, c in pairings:
        if not coeffs[c]:
            continue
        left = [plain_ends[x] for ab in tau for x in ab]
        for right, n in completions.items():
            key = (c, tuple(sorted(zip(left, right))))
            counts[key] = counts.get(key, 0) + n
    return counts


def entry_moment(ensemble: Ensemble, coefficients: dict[Partition, RatFunc], slots: Sequence[Slot]) -> DeltaExpansion:
    """<w * prod slots>_g for w = sum_p a_p I_p, by invariance.

    The slots sit at positions 0..2m-1: in order for the orthogonal
    ensemble, plain slot v at 2v and conjugated slot v at 2v+1 otherwise.
    The moment is sum_pi c_(class pi) d_pi, where pi joins the row ends by
    one pairing of _structures and the column ends by another (orthogonal,
    unitary), or every plain index end to a conjugated one (COE), and the
    class is the partition of m given by the half-lengths of the loops pi
    closes with the entries.  Contracting with one structure per class lam
    gives T_lam = sum_p a_p <I_p p_lam(W)>_g = (A(N) A(N + s) c)_lam, with A
    the class matrix of _class_solve.  For the orthogonal and unitary
    ensembles the row and column contractions each act as A, so s = 0.
    For the COE s = 1: in the zonal basis of (S_2m, B_m) the COE matrix has
    eigenvalues Z(N) Z(N+1) where A has Z(N) (Matsumoto, 2011).  Without
    invariants in the weight this gives a_0 / d^m on the Wick pairings, the
    class 1^m, and 0 elsewhere.  Summed (tuple) labels are contracted, each
    closed loop of them a factor N.
    """
    if not ensemble.complex_entries and any(s.conj for s in slots):
        raise ValueError("conjugated entries are not defined for the orthogonal ensemble")
    if ensemble.complex_entries:
        plain = [s for s in slots if not s.conj]
        conj = [s for s in slots if s.conj]
        if len(plain) != len(conj):
            return DeltaExpansion()
        placed = [s for pair in zip(plain, conj) for s in pair]
    elif len(slots) % 2:
        return DeltaExpansion()
    else:
        placed = list(slots)
    m = len(placed) // 2
    # the COE's tau pairs plain index ends freely, like orthogonal row ends
    orthogonal = ensemble is not Ensemble.UNITARY
    classes, pairings = _structures(orthogonal, m)
    shifts = (0, 1) if ensemble is Ensemble.COE else (0, 0)
    coeffs = _class_solve(m, 2 if orthogonal else 1, _class_targets(ensemble, coefficients, classes), shifts)
    labels = list(dict.fromkeys(lab for s in placed for lab in (s.row, s.col)))
    ids = {lab: i for i, lab in enumerate(labels)}
    structures = _coe_structures if ensemble is Ensemble.COE else _paired_structures
    counts = structures(placed, ids, pairings, coeffs)
    summed = {lab for lab in labels if isinstance(lab, tuple)}
    contracted: dict[tuple, tuple | None] = {}
    powers: dict[DeltaStructure, dict[int, dict[int, int]]] = {}
    for (c, edges), n in counts.items():
        if edges not in contracted:
            contracted[edges] = contract_deltas([(labels[a], labels[b]) for a, b in edges], summed)
        res = contracted[edges]
        if res is None:
            continue
        structure, power = res
        by_power = powers.setdefault(structure, {}).setdefault(c, {})
        by_power[power] = by_power.get(power, 0) + n
    out: dict[DeltaStructure, RatFunc] = {}
    values: dict[tuple, RatFunc] = {}  # most structures share their counts
    for structure, by_class in powers.items():
        key = tuple(sorted((c, tuple(sorted(by_power.items()))) for c, by_power in by_class.items()))
        if key not in values:
            values[key] = linear_combination((n, coeffs[c] * RatFunc.n_power(power))
                                             for c, by_power in by_class.items() for power, n in by_power.items())
        out[structure] = values[key]
    return DeltaExpansion(out)


# -- connected (completely correlated) parts ----------------------------------------------


def _cumulant(items: Sequence, moment: Callable[[tuple], RatFunc]) -> RatFunc:
    """Connected part of the items: the sum over the set partitions P of the
    items of (-1)^(|P|-1) (|P|-1)! prod_(G in P) moment(G)."""
    return linear_combination(
        ((-1) ** (len(blocks) - 1) * math.factorial(len(blocks) - 1),
         math.prod((moment(g) for g in blocks), start=RatFunc(1)))
        for blocks in set_partitions(items))


def gram_connected_coefficients(
    ensemble: Ensemble, coefficients: dict[Partition, RatFunc] | None, k: int
) -> list[RatFunc]:
    """Class coefficients kappa_mu of the connected part of (M M+)_(i1,l1) ...
    (M M+)_(ik,lk), in partitions_of(k) order, with the weight w = sum_p a_p I_p
    as one more item when its coefficients are given:

        kappa_mu = sum_P (-1)^(|P|-1) (|P|-1)! prod_(G in P) c^(|G|, w in G)[loops in G]

    P runs over the set partitions of the loops of mu (and w), |G| counts the
    blocks of G's loops, and c^(s, .) are the class coefficients of s blocks
    under w or the unit weight; at s = 0 that is <w>.
    """
    @functools.cache
    def table(s: int, weighted: bool) -> dict[Partition, RatFunc]:
        weight = coefficients if weighted else {(): RatFunc(1)}
        return dict(zip(partitions_of(s), gram_class_coefficients(ensemble, weight, s)))

    def moment(group: tuple) -> RatFunc:
        lengths = tuple(sorted((x for x in group if x != "w"), reverse=True))
        return table(sum(lengths), "w" in group)[lengths]

    extra = ("w",) if coefficients is not None else ()
    return [_cumulant(mu + extra, moment) for mu in partitions_of(k)]


def connected_entry_moment(ensemble: Ensemble, k: int) -> DeltaExpansion:
    """Connected part of <(M M+)_(i1,l1) ... (M M+)_(ik,lk)>_g."""
    if k < 1:
        raise ValueError("need at least one factor")
    return gram_class_expansion(ensemble, k, gram_connected_coefficients(ensemble, None, k))


def connected_trace_moment(ensemble: Ensemble, invariants: Sequence[Partition]) -> RatFunc:
    """Connected part of a product of trace invariants (scalar case)."""
    parts = [check_partition(p) for p in invariants]
    return _cumulant(range(len(parts)), lambda group: gaussian_trace_moment(ensemble, [parts[i] for i in group]))
