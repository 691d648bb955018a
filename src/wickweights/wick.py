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
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .algebra import N, Poly, RatFunc, clear_denominators, linear_combination, linear_product, scaled_sum
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
    def alpha(self) -> int:
        """alpha of the Laguerre ensemble of W = M M+ (James, 1964): 1 unitary, 2 orthogonal and COE."""
        return 1 if self is Ensemble.UNITARY else 2

    @property
    def gram_alpha(self) -> int:
        """alpha of the group that conjugates W, O(N) or U(N): 2 orthogonal, 1 unitary and COE."""
        return 1 if self.complex_entries else 2

    @property
    def pair_shift(self) -> int:
        """s of the pair denominator N + s: 1 for the COE, 0 otherwise."""
        return int(self is Ensemble.COE)

    @property
    def pair_denominator(self) -> Poly:
        """Normalizer of one elementary contraction: N, or N+1 for the COE."""
        return Poly((self.pair_shift, 1))


class Slot(NamedTuple):
    """One matrix-entry factor M_(row,col), optionally conjugated."""

    row: object
    col: object
    conj: bool = False


_SLOT_RE = re.compile(r"(Mc?)\[([A-Za-z_]\w*|\d+),([A-Za-z_]\w*|\d+)\]\Z")


def _parse_index(tok: str):
    return int(tok) if tok.isdigit() else tok


def _check_slots(ensemble: Ensemble, slots: Sequence[Slot]) -> None:
    if not ensemble.complex_entries and any(s.conj for s in slots):
        raise ValueError("conjugated entries are not defined for the orthogonal ensemble")


class _Monomial(NamedTuple):  # a NamedTuple cannot define __new__, its subclass can
    slots: tuple[Slot, ...]


class MonomialSpec(_Monomial):
    """An ordered product of matrix-entry factors."""

    __slots__ = ()

    def __new__(cls, slots: tuple[Slot, ...]):
        if not slots:
            raise ValueError("monomial must have at least one factor")
        return super().__new__(cls, slots)

    @staticmethod
    def parse(text: str) -> "MonomialSpec":
        """Parse 'M[i,j] Mc[1,2] ...'; Mc is the conjugated entry."""
        slots = []
        for tok in text.split():
            m = _SLOT_RE.match(tok)
            if not m:
                raise ValueError(f"bad monomial factor {tok!r}; expected M[i,j] or Mc[i,j]")
            slots.append(Slot(_parse_index(m.group(2)), _parse_index(m.group(3)), m.group(1) == "Mc"))
        return MonomialSpec(tuple(slots))

    def validate(self, ensemble: Ensemble) -> None:
        _check_slots(ensemble, self.slots)

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
    c = ensemble.alpha
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


#: The largest total trace power gaussian_trace_moment accepts.  The loop equation visits every partition of
#: every smaller power: at 44 one trace takes 13-20 s and 150-245 MB on two cores, and 4 more double both.
_MAX_TRACE_POWER = 44


def gaussian_trace_moment(
    ensemble: Ensemble,
    invariants: Iterable[Partition],
    *,
    use_disk: bool = True,
) -> RatFunc:
    """Exact <prod_i tr((M M+)^{k_i})>_g as a rational function of N, by the
    loop equation (see _loop_numerator).

    The moment depends only on the multiset of the k_i.  Each call reduces
    a new RatFunc over the memoized loop numerators.  A total power sum k_i
    above 44 (_MAX_TRACE_POWER) raises ValueError.  use_disk is ignored; it
    is kept only because perfbench/test_reference.py passes it.
    """
    powers = tuple(sorted((x for p in invariants for x in check_partition(p)), reverse=True))
    if sum(powers) > _MAX_TRACE_POWER:
        raise ValueError(f"total trace power {sum(powers)} exceeds the limit of {_MAX_TRACE_POWER}")
    return RatFunc.factored(Poly(_loop_numerator(ensemble, powers)), Poly((1,)), Counter(),
                            [ensemble.pair_shift] * sum(powers))


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
def _structures(alpha: int, k: int) -> tuple[list[Partition], list[tuple[tuple, int]]]:
    """The partitions of k, and (pairs, class index) for every structure on 2k labels: the perfect
    matchings at alpha = 2, the permutations at alpha = 1 (see _class_solve)."""
    if alpha == 2:
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


class _Jack(NamedTuple):
    """One Jack polynomial of a _jack_table: J_theta = scale v in power sums."""

    offsets: tuple[int, ...]  # alpha j - i for the boxes (i, j) of theta, counted from 0
    v: tuple[int, ...]  # coefficients of the power sums, in partitions_of order, with content 1
    norm: int  # <v, v>, so that j_theta = <J_theta, J_theta> = scale^2 norm
    scale: Fraction


@functools.cache
def _jack_table(k: int, alpha: int) -> tuple[tuple[int, ...], tuple[_Jack, ...]]:
    """z^alpha_mu = z_mu alpha^len(mu) per class, and a _Jack for each partition
    theta of k, in partitions_of order.

    J_theta is the Jack polynomial J^(alpha)_theta written in power sums.  The
    Jack polynomials are orthogonal under <p_lam, p_mu> = delta z^alpha_mu and
    P_theta is m_theta plus monomials m_lam with lam below theta (Macdonald,
    Symmetric Functions and Hall Polynomials, VI.10), so it is orthogonal to
    the dual basis g_mu of every mu above theta.  Gram-Schmidt on g_theta =
    sum_mu R_(mu,theta) p_mu / z^alpha_mu, from (k) down in partitions_of
    order, therefore yields it up to a scalar, which the coefficient 1 of
    J_theta on p_1^k (Stanley, Adv. Math. 77 (1989)) fixes.

    The Gram-Schmidt is fraction-free.  It starts from the integer vector
    lcm(z) g_theta and, for each earlier v_phi with <v, v_phi> = a and
    <v_phi, v_phi> = b, takes v <- (b v - a v_phi) / gcd(a, b), which keeps
    its direction orthogonal to v_phi; the content of v is removed once per
    theta.  p_1^k comes last in partitions_of order, so scale = 1 / v[-1].
    """
    classes = list(partitions_of(k))
    z = tuple(alpha ** len(mu) * math.prod(x ** n * math.factorial(n) for x, n in Counter(mu).items())
              for mu in classes)
    top = math.lcm(*z)
    jacks: list[_Jack] = []
    for theta in classes:
        v = [_fillings(mu, theta) * (top // w) for mu, w in zip(classes, z)]
        for phi in jacks:
            a = sum(w * x * y for w, x, y in zip(z, v, phi.v))
            if a:
                g = math.gcd(a, phi.norm)
                b, a = phi.norm // g, a // g
                v = [b * x - a * y for x, y in zip(v, phi.v)]
        content = math.gcd(*v)
        v = tuple(x // content for x in v)
        jacks.append(_Jack(tuple(_skew(theta, (), alpha)), v, sum(w * x * x for w, x in zip(z, v)), Fraction(1, v[-1])))
    return z, tuple(jacks)


def _skew(theta: Partition, sigma: Partition, alpha: int) -> list[int]:
    """The offsets alpha j - i of the boxes (i, j) of theta outside sigma, counted from 0."""
    return [alpha * j - i for i, row in enumerate(theta) for j in range(sigma[i] if i < len(sigma) else 0, row)]


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
                         / (j_theta prod_s Z_theta(N + s)),

    in which the scale of J_theta cancels, so the integer v_theta of
    _jack_table stands for it.  The targets are cleared once, each
    projection is reduced once over its eigenvalue's linear factors, and
    the projections are cleared once more for the integer sums over theta.
    """
    z, jacks = _jack_table(k, alpha)
    den, nums, factors = clear_denominators(targets)
    live, projs = [], []
    for jack in jacks:
        proj, _ = scaled_sum((a, t) for a, t in zip(jack.v, nums) if a and t)
        if proj:
            live.append(jack.v)
            projs.append(RatFunc.factored(proj, den * jack.norm, factors, [s + x for s in shifts for x in jack.offsets]))
    den, nums, factors = clear_denominators(projs)
    return [RatFunc.factored(w * scaled_sum((v[mu], f) for v, f in zip(live, nums) if v[mu])[0], den, factors)
            for mu, w in enumerate(z)]


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
def _ell(theta: Partition, alpha: int, s: int) -> tuple[Poly, int]:
    """ell_theta = Z_theta(N + s) L_theta(c 1) of kernel_weight, as an integer polynomial and the
    denominator it is over."""
    return scaled_sum(((-1) ** sum(sigma) * b, linear_product([0] * sum(sigma) + _skew(theta, sigma, alpha), s))
                      for sigma, b in _binomials(theta, alpha).items())


@functools.cache
def _binomials(theta: Partition, alpha: int) -> dict[Partition, Fraction]:
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

    summed over the lcm of the Z_sigma(N + s) and reduced once, by trial division at its linear
    factors.  ell_theta is _ell(theta), and the binom(theta, sigma) of each theta come from one
    _binomials(theta).  With J_sigma = scale_sigma v_sigma as in _jack_table, scale_sigma =
    1 / v_sigma[1^m] joins the inner sum, and the outer sum has the integer multipliers
    v_sigma[mu] over one denominator per m.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    alpha, s = ensemble.alpha, ensemble.pair_shift
    jacks = {theta: jack for k in range(kappa + 1) for theta, jack in zip(partitions_of(k), _jack_table(k, alpha)[1])}
    inner: dict[Partition, list] = {theta: [] for theta in jacks}  # sigma -> the terms of its sum over theta
    for theta in jacks:
        ell, scale = _ell(theta, alpha, s)
        over = 1 / (jacks[theta].scale ** 2 * jacks[theta].norm * scale)
        for sigma, b in _binomials(theta, alpha).items():
            inner[sigma].append((b * jacks[sigma].scale * over, ell * linear_product(_skew(theta, sigma, alpha))))
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


def _class_targets(
    ensemble: Ensemble, coefficients: dict[Partition, RatFunc], classes: Sequence[Partition]
) -> list[RatFunc]:
    """sum_p a_p <I_p p_lam(W)>_g for every class lam, p_lam(W) = prod_j tr W^(lam_j), each summed
    over its known denominator D d^(m+|lam|) as the integer loop numerators n_p d^(m-|p|) num(p + lam)
    of _loop_numerator, with a_p = n_p / D and m the largest |p|, and reduced once over the factors
    of D and the factor d = N + s."""
    den, nums, factors = clear_denominators(list(coefficients.values()))
    d, m = ensemble.pair_denominator, max((sum(p) for p, a in coefficients.items() if a), default=0)
    scaled = [(check_partition(p), n * d ** (m - sum(p))) for p, n in zip(coefficients, nums) if n]
    return [RatFunc.factored(sum(n * Poly(_loop_numerator(ensemble, tuple(sorted(p + lam, reverse=True))))
                                 for p, n in scaled), den, factors, [ensemble.pair_shift] * (m + sum(lam)))
            for lam in classes]


def gram_class_coefficients(ensemble: Ensemble, coefficients: dict[Partition, RatFunc], k: int) -> list[RatFunc]:
    """Class coefficients c_mu of <w (M M+)_(i1,l1) ... (M M+)_(ik,lk)>_g for
    w = sum_p a_p I_p, in partitions_of(k) order, by invariance.

    The moment is sum_pi c_(class pi) d_pi over the index structures pi of
    _structures, with class the coset or cycle type.  Contracting with one
    structure per class lam turns the blocks into p_lam(W) and gives the
    system A c = (sum_p a_p <I_p p_lam(W)>_g)_lam, solved by _class_solve.
    """
    targets = _class_targets(ensemble, coefficients, list(partitions_of(k)))
    return _class_solve(k, ensemble.gram_alpha, targets, (0,))


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
    _, pairings = _structures(ensemble.gram_alpha, k)
    names = [f"{'il'[x % 2]}{x // 2 + 1}" for x in range(2 * k)]
    return _expansion({(c, pairs): 1 for pairs, c in pairings}, names, class_coefficients)


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def _attachments(ensemble: Ensemble, placed: list[Slot], ids: dict, pairings: list) -> list[tuple[tuple, list, int]]:
    """Each way (edges, ends, n) to attach a pairing tau of _structures (see entry_moment): n
    structures pi, each edges plus (ends[x], ends[y]) for the pairs (x, y) of tau."""
    if ensemble is Ensemble.COE:
        plain_ends = [ids[lab] for s in placed[0::2] for lab in (s.row, s.col)]
        conj_ends = [(ids[s.row], ids[s.col]) for s in placed[1::2]]
        completions = Counter(sum(oriented, ()) for order in itertools.permutations(conj_ends)
                              for oriented in itertools.product(*(((r, c), (c, r)) for r, c in order)))
        return [((), plain_ends + list(right), n) for right, n in completions.items()]
    rows = [ids[s.row] for s in placed]
    cols = [ids[s.col] for s in placed]
    concrete = {i for lab, i in ids.items() if isinstance(lab, int)}
    kind = [placed.index(s) for s in placed]  # identical slots share a kind
    orbits: dict[tuple, list] = {}
    for pairs, _ in pairings:
        orbit = orbits.setdefault(tuple(sorted(_edge(kind[a], kind[b]) for a, b in pairs)), [pairs, 0])
        orbit[1] += 1
    out = []
    for pairs, size in orbits.values():
        row = tuple(sorted(_edge(rows[a], rows[b]) for a, b in pairs))
        if not any(u != v and u in concrete and v in concrete for u, v in row):
            out.append((row, [cols[x] for ab in pairs for x in ab], size))
    return out


def _expansion(counts: dict[tuple, int], labels: Sequence, coeffs: Sequence[RatFunc]) -> DeltaExpansion:
    """sum of n coeffs[c] d_edges over the (c, edges) -> n of counts, the edges indexing labels.
    Each distinct edge set is contracted once and each distinct coefficient reduced once."""
    summed = {lab for lab in labels if isinstance(lab, tuple)}
    contracted: dict[tuple, tuple | None] = {}
    powers: dict[DeltaStructure, Counter] = {}  # structure -> (class, power of N) -> count
    for (c, edges), n in counts.items():
        if edges not in contracted:
            contracted[edges] = contract_deltas([(labels[a], labels[b]) for a, b in edges], summed)
        res = contracted[edges]
        if res is None:
            continue
        structure, power = res
        powers.setdefault(structure, Counter())[c, power] += n
    # most structures share their counts
    value = functools.cache(lambda terms: linear_combination((n, coeffs[c] * N ** power) for (c, power), n in terms))
    return DeltaExpansion({structure: value(tuple(sorted(terms.items()))) for structure, terms in powers.items()})


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
    class 1^m, and 0 elsewhere.  Each pi is a pairing tau of _structures
    attached to the slots, with the class of tau (_attachments).  Orthogonal,
    unitary: a row pairing, one per orbit under the permutations of identical
    slots and weighted by its size, skipped if it joins two distinct concrete
    labels; with g the map of the base pairs onto it, the column pairing is
    g(tau).  COE: tau pairs the plain ends that pi sends to one conjugated
    slot, and a completion, counted by the labels it joins, picks that slot
    and an orientation for each pair; tau's i-th end meets the completion's
    i-th end, at 2m + i.  One loop counts the tau of live classes on every
    attachment, and _expansion writes the counts out.  Summed (tuple) labels
    are contracted, each closed loop of them a factor N.
    """
    _check_slots(ensemble, slots)
    plain = [s for s in slots if not s.conj]
    conj = [s for s in slots if s.conj]
    placed = [s for pair in zip(plain, conj) for s in pair] if ensemble.complex_entries else list(slots)
    if len(placed) != len(slots) or len(placed) % 2:  # unequal plain and conjugated slots, or odd degree
        return DeltaExpansion()
    m = len(placed) // 2
    # the COE's tau pairs plain index ends freely, like orthogonal row ends
    classes, pairings = _structures(ensemble.alpha, m)
    coeffs = _class_solve(m, ensemble.alpha, _class_targets(ensemble, coefficients, classes), (0, ensemble.pair_shift))
    labels = list(dict.fromkeys(lab for s in placed for lab in (s.row, s.col)))
    ids = {lab: i for i, lab in enumerate(labels)}
    live = [(tau, c) for tau, c in pairings if coeffs[c]]
    if ensemble is Ensemble.COE:
        live = [(tuple(zip(sum(tau, ()), range(2 * m, 4 * m))), c) for tau, c in live]
    counts: dict[tuple, int] = {}
    for edges, ends, n in _attachments(ensemble, placed, ids, pairings):
        for tau, c in live:
            key = (c, edges + tuple(sorted(_edge(ends[x], ends[y]) for x, y in tau)))
            counts[key] = counts.get(key, 0) + n
    return _expansion(counts, labels, coeffs)


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
    # a group of traces recurs in many set partitions: reduce its moment once per call
    moment = functools.cache(lambda group: gaussian_trace_moment(ensemble, [parts[i] for i in group]))
    return _cumulant(range(len(parts)), moment)
