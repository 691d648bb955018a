import json
import math
import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    FreshSummed,
    add,
    binomial_ell,
    binomial_kernel_weight,
    binomials,
    clear_engine_memos,
    cumulants_from_moments,
    evaluate_expansion,
    expansion_from_json,
    ratfunc_from_json,
    gram_product_slots,
    invariant_slots,
    min_order,
    oracle_concrete_moment,
    oracle_trace_moment,
    product,
    reference_binomials,
    reference_class_matrix,
    reference_coe_matrix,
    reference_expansion,
    reference_jack_table,
    rename,
    scale,
)
from wickweights import (
    DeltaExpansion,
    Ensemble,
    MonomialSpec,
    Slot,
    connected_entry_moment,
    connected_trace_moment,
    gaussian_entry_moment,
    gaussian_trace_moment,
)
from wickweights.algebra import N, Poly, RatFunc
from wickweights.combinatorics import partitions_of, set_partitions
from wickweights.integrate import integrate_gram_product, integrate_monomial
from wickweights.modular import solve_linear_system
from wickweights.weights import solve_weight, unit_weight, weighted_moment
from wickweights.wick import (
    entry_moment,
    moment_with_invariants,
)

ENSEMBLES = [Ensemble.ORTHOGONAL, Ensemble.UNITARY, Ensemble.COE]


def expansion(items):
    return DeltaExpansion({k: v for k, v in items})


def slots_moment(ens, slots):
    return gaussian_entry_moment(ens, MonomialSpec(tuple(slots)))


# -- elementary contractions ---------------------------------------------------------


def test_elementary_real():
    got = slots_moment(Ensemble.ORTHOGONAL, [Slot("i", "j"), Slot("k", "l")])
    assert got == expansion([(((("i", "k"), None), (("j", "l"), None)), RatFunc(1, N))])


def test_elementary_complex_holomorphic_vanishes():
    got = slots_moment(Ensemble.UNITARY, [Slot("i", "j"), Slot("k", "l")])
    assert not got
    got = slots_moment(Ensemble.UNITARY, [Slot("i", "j", True), Slot("k", "l", True)])
    assert not got


def test_elementary_complex():
    got = slots_moment(Ensemble.UNITARY, [Slot("i", "j"), Slot("k", "l", True)])
    assert got == expansion([(((("i", "k"), None), (("j", "l"), None)), RatFunc(1, N))])


def test_elementary_coe_two_terms():
    got = slots_moment(Ensemble.COE, [Slot("i", "j", True), Slot("k", "l")])
    inv = RatFunc(1, N + 1)
    assert got == expansion([
        (((("i", "k"), None), (("j", "l"), None)), inv),
        (((("i", "l"), None), (("j", "k"), None)), inv),
    ])


def test_elementary_normalization():
    # the variance convention pins <(M M+)_ii> = 1 entry by entry
    for ens in ENSEMBLES:
        total = Fraction(0)
        for b in range(1, 5):
            pair = (Slot(1, b), Slot(1, b)) if ens is Ensemble.ORTHOGONAL else (Slot(1, b), Slot(1, b, True))
            total += slots_moment(ens, pair).as_ratfunc().eval(4)
        assert total == 1


def test_elementary_conjugation_rejected_for_real():
    with pytest.raises(ValueError):
        slots_moment(Ensemble.ORTHOGONAL, [Slot("i", "j", True), Slot("k", "l")])


# -- entry moments ------------------------------------------------------------------


def test_odd_degree_vanishes():
    m = MonomialSpec((Slot("i1", "j1"), Slot("i2", "j2"), Slot("i3", "j3")))
    assert not gaussian_entry_moment(Ensemble.ORTHOGONAL, m)


def test_unbalanced_conjugation_vanishes():
    m = MonomialSpec((Slot("i", "j"), Slot("k", "l")))
    assert not gaussian_entry_moment(Ensemble.UNITARY, m)


def test_monomial_needs_a_factor():
    for make in (lambda: MonomialSpec(()), lambda: MonomialSpec.parse(""), lambda: MonomialSpec.parse(" ")):
        with pytest.raises(ValueError, match="monomial must have at least one factor"):
            make()


def test_monomial_record_semantics():
    m = MonomialSpec.parse("M[1,i] Mc[2,3]")
    assert repr(m) == "MonomialSpec(slots=(Slot(row=1, col='i', conj=False), Slot(row=2, col=3, conj=True)))"
    assert m == MonomialSpec((Slot(1, "i"), Slot(2, 3, True))) and hash(m) == hash(MonomialSpec.parse("M[1,i] Mc[2,3]"))
    assert m != MonomialSpec.parse("M[1,i] M[2,3]")
    with pytest.raises(AttributeError):
        m.slots = ()


def test_complex_entry_second_moment():
    m = MonomialSpec((Slot(1, 1), Slot(1, 1, True)))
    assert gaussian_entry_moment(Ensemble.UNITARY, m).as_ratfunc() == RatFunc(1, N)


def test_gram_block_pure_gaussian():
    slots, _ = gram_product_slots(Ensemble.ORTHOGONAL, 2)
    got = slots_moment(Ensemble.ORTHOGONAL, slots)
    inv = RatFunc(1, N)
    assert got == expansion([
        (((("i1", "l1"), None), (("i2", "l2"), None)), RatFunc(1)),
        (((("i1", "i2"), None), (("l1", "l2"), None)), inv),
        (((("i1", "l2"), None), (("i2", "l1"), None)), inv),
    ])


def test_slot_permutation_invariance():
    rng = random.Random(2)
    m = MonomialSpec((Slot("i", "a"), Slot("j", "a"), Slot("i", "b"), Slot("j", "b")))
    want = gaussian_entry_moment(Ensemble.ORTHOGONAL, m)
    for _ in range(5):
        slots = list(m.slots)
        rng.shuffle(slots)
        assert gaussian_entry_moment(Ensemble.ORTHOGONAL, MonomialSpec(tuple(slots))) == want


def _random_monomial(rng, ens, npairs):
    labels = ["i", "j", "k", 1, 2]
    slots = []
    for _ in range(2 * npairs):
        slots.append(Slot(rng.choice(labels), rng.choice(labels), False))
    if ens.complex_entries:
        conj_ix = rng.sample(range(2 * npairs), npairs)
        slots = [Slot(s.row, s.col, ix in conj_ix) for ix, s in enumerate(slots)]
    return MonomialSpec(tuple(slots))


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_engine_matches_reference_stream(ens):
    # the invariance reduction against the literal pairing-stream evaluation
    rng = random.Random(f"stream/{ens.value}")
    for _ in range(12):
        m = _random_monomial(rng, ens, rng.randint(1, 3))
        assert gaussian_entry_moment(ens, m) == reference_expansion(ens, m.slots), m


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_engine_matches_concrete_oracle(ens):
    # no pairings at all on the oracle side: scalar Gaussian moments
    rng = random.Random(len(ens.value))
    for _ in range(8):
        npairs = rng.randint(1, 3)
        slots = []
        for _ in range(2 * npairs):
            slots.append(Slot(rng.randint(1, 2), rng.randint(1, 2), False))
        if ens.complex_entries:
            conj_ix = rng.sample(range(2 * npairs), npairs)
            slots = [Slot(s.row, s.col, ix in conj_ix) for ix, s in enumerate(slots)]
        m = MonomialSpec(tuple(slots))
        got = gaussian_entry_moment(ens, m).as_ratfunc()
        for n in (2, 3):
            assert got.eval(n) == oracle_concrete_moment(ens, m.slots, n)


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_integrate_monomial_matches_reference_expansion(ens):
    # brute force that shares no code with the invariance reduction: the
    # pairing stream over the weight's invariant slots and the monomial
    rng = random.Random(f"oracle/{ens.value}")
    distinct = MonomialSpec.parse("M[a,b] Mc[c,d] M[e,f] Mc[g,h]" if ens.complex_entries
                                  else "M[a,b] M[c,d] M[e,f] M[g,h]")
    for kappa in (0, 1, 2):
        w = solve_weight(ens, kappa) if kappa else unit_weight(ens)
        monomials = [distinct] + [_random_monomial(rng, ens, npairs) for npairs in (1, 2, 2, 2)]
        for m in monomials:
            want = DeltaExpansion()
            for p, a in w.coefficients.items():
                slots = invariant_slots(ens, p, FreshSummed()) + list(m.slots)
                want = add(want, scale(reference_expansion(ens, slots), a))
            assert integrate_monomial(w, m) == want, (kappa, m)


ENTRY_FIXTURE = pathlib.Path(__file__).resolve().parent / "data" / "entry_moments.json"


def test_entry_moment_fixture_recomputed():
    # integrals of the former pairing-walk engine, recomputed from nothing:
    # every ensemble, the unit weight and kappa 1-3 up to degree 8 with
    # free, concrete and repeated labels, the CLI benchmark's six monomials
    # and orthogonal kappa=4 M[1,1]^8
    clear_engine_memos()
    entries = json.loads(ENTRY_FIXTURE.read_text())
    assert len(entries) == 336
    weights = {}
    for e in entries:
        ens, kappa = Ensemble(e["ensemble"]), e["kappa"]
        if (ens, kappa) not in weights:
            weights[ens, kappa] = solve_weight(ens, kappa) if kappa else unit_weight(ens)
        got = integrate_monomial(weights[ens, kappa], MonomialSpec.parse(e["monomial"]))
        assert got == expansion_from_json(e["expansion"]), (e["ensemble"], kappa, e["monomial"])


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_coe_class_matrix_is_orthogonal_product(m):
    # the COE class system of entry moments is A(N) A(N+1), A the orthogonal one
    a, b = reference_class_matrix(True, m), reference_class_matrix(True, m, 1)
    size = range(len(a))
    want = reference_coe_matrix(m)
    assert [[sum((a[i][k] * b[k][j] for k in size), RatFunc(0)) for j in size] for i in size] == want
    assert [[sum((b[i][k] * a[k][j] for k in size), RatFunc(0)) for j in size] for i in size] == want


@pytest.mark.parametrize("orthogonal", [True, False])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_class_solve_matches_reference_matrix(orthogonal, k):
    # the closed form against solves of the enumerated class matrix: one
    # solve (Gram products), two at N (orthogonal and unitary entry moments)
    # and at N then N+1 (COE entry moments)
    rng = random.Random(f"class-solve/{orthogonal}/{k}")
    _check_class_solve(orthogonal, k, lambda: N ** rng.randint(0, k) * (N + 2) ** rng.randint(0, 2), rng)


@pytest.mark.parametrize("orthogonal", [True, False])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_class_solve_cancels_over_one_denominator(orthogonal, k):
    # targets over (N - 1)^a (N + 1)^b (N^2 + 1): N - 1 and N + 1 are roots of
    # eigenvalues Z_theta(N + s), so the one denominator the projections are
    # summed over repeats them and the reduction must cancel them again, and
    # N^2 + 1 is a cofactor that only poly_gcd can take
    rng = random.Random(f"class-solve-cancel/{orthogonal}/{k}")
    _check_class_solve(orthogonal, k, lambda: (N - 1) ** rng.randint(0, 2) * (N + 1) ** rng.randint(0, 2) * (N * N + 1),
                       rng)


def _check_class_solve(orthogonal: bool, k: int, denominator, rng: random.Random) -> None:
    from wickweights.wick import _class_solve

    size = len(list(partitions_of(k)))
    targets = [RatFunc(Poly([rng.randint(-9, 9) for _ in range(k + 2)]), denominator()) for _ in range(size)]
    alpha = 2 if orthogonal else 1
    once = solve_linear_system(reference_class_matrix(orthogonal, k), targets)
    assert _class_solve(k, alpha, targets, (0,)) == once
    twice = solve_linear_system(reference_class_matrix(orthogonal, k), once)
    assert _class_solve(k, alpha, targets, (0, 0)) == twice
    shifted = solve_linear_system(reference_class_matrix(orthogonal, k, 1), once)
    assert _class_solve(k, alpha, targets, (0, 1)) == shifted


@pytest.mark.parametrize("alpha", [1, 2])
def test_jack_table_matches_fraction_reference(alpha):
    # the fraction-free Gram-Schmidt gives the Fraction one's J_theta and j_theta
    from wickweights.wick import _jack_table

    for k in range(9):
        z, jacks = _jack_table(k, alpha)
        want_z, want = reference_jack_table(k, alpha)
        assert z == want_z, k
        # J_theta = v / v[-1] and j_theta = <v, v> / v[-1]^2
        got = [(j.offsets, tuple(Fraction(x, j.v[-1]) for x in j.v), Fraction(j.norm, j.v[-1] ** 2)) for j in jacks]
        assert got == list(want), k


@pytest.mark.parametrize("alpha", [1, 2])
def test_jack_norm_is_the_hook_product(alpha):
    # F6's closed norm: j_theta = prod over the boxes b of theta of (alpha a + l + 1)(alpha a + l + alpha),
    # with a and l the arm and the leg of b (Macdonald, VI.10; Stanley, Adv. Math. 77 (1989))
    from wickweights.wick import _jack_table

    for k in range(1, 11):
        for theta, jack in zip(partitions_of(k), _jack_table(k, alpha)[1]):
            legs = [sum(part > j for part in theta) for j in range(theta[0])]
            hooks = [(alpha * (row - j - 1), legs[j] - i - 1) for i, row in enumerate(theta) for j in range(row)]
            want = math.prod((a + l + 1) * (a + l + alpha) for a, l in hooks)
            assert Fraction(jack.norm, jack.v[-1] ** 2) == want, theta


def _hook_product(lam: tuple) -> int:
    legs = [sum(part > j for part in lam) for j in range(lam[0])] if lam else []
    return math.prod(row - j + legs[j] - i - 1 for i, row in enumerate(lam) for j in range(row))


@pytest.mark.parametrize("alpha", [1, 2])
def test_binomials_known_values(alpha):
    # binom(theta, 0) = binom(theta, theta) = 1; at x = t 1^n the definition reads
    # (1 + t)^|theta| = sum_sigma binom(theta, sigma) t^|sigma|, so the binomials of
    # each size s sum to C(|theta|, s); and at alpha = 1, where J_theta = H_theta s_theta
    # with H_theta the product of the hook lengths, binom(theta, theta - b) = H_theta / H_(theta - b)
    for k in range(11):
        for theta in partitions_of(k):
            binom = binomials(theta, alpha)
            assert binom[()] == 1 and binom[theta] == 1, theta
            for s in range(k + 1):
                assert sum(b for sigma, b in binom.items() if sum(sigma) == s) == math.comb(k, s), (theta, s)
            if alpha == 1:
                for r, row in enumerate(theta):
                    if r + 1 == len(theta) or row > theta[r + 1]:
                        sigma = tuple(filter(None, theta[:r] + (row - 1,) + theta[r + 1:]))
                        assert binom[sigma] == Fraction(_hook_product(theta), _hook_product(sigma)), (theta, r)


@pytest.mark.parametrize("alpha", [1, 2])
def test_binomials_match_fraction_reference(alpha):
    for k in range(7):
        assert [binomials(theta, alpha) for theta in partitions_of(k)] == reference_binomials(k, alpha), k


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_kernel_weight_same_cold_and_after_smaller_kappa(ens):
    # _jack_table keeps the Jack tables across kappa: kappa = 4 formed from nothing equals
    # kappa = 4 formed after kappa = 1..3 filled the memo
    from wickweights import wick

    assert wick._jack_table in clear_engine_memos()
    cold = wick.kernel_weight(ens, 4)
    clear_engine_memos()
    for kappa in range(1, 4):
        wick.kernel_weight(ens, kappa)
    assert wick._jack_table.cache_info().currsize
    assert wick.kernel_weight(ens, 4) == cold


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_trace_moments_by_wishart_moments_of_jack_polynomials(ens):
    # <J_phi(W)>_g = Z_phi(N) Z_phi(N + s) / d^|phi| (James, 1964), so <p_lam(W)>_g =
    # d^-|lam| sum_phi z^alpha_lam J_phi[lam] / j_phi Z_phi(N) Z_phi(N + s): a second path to the
    # trace moments that shares nothing with the loop equation
    from wickweights.algebra import linear_product, scaled_sum
    from wickweights.wick import _jack_table

    for k in range(1, 9):
        z, jacks = _jack_table(k, ens.alpha)
        for i, lam in enumerate(partitions_of(k)):
            # J_phi = v_phi / v_phi[-1] and j_phi = <v_phi, v_phi> / v_phi[-1]^2
            num, q = scaled_sum((z[i] * Fraction(jack.v[i] * jack.v[-1], jack.norm),
                                 linear_product(jack.offsets) * linear_product(jack.offsets, ens.pair_shift))
                                for jack in jacks)
            assert RatFunc(num, q * ens.pair_denominator ** k) == gaussian_trace_moment(ens, [lam]), lam


#: The unitary theta whose L_theta(c 1) decays faster than N^-ceil(|theta|/2), |theta| <= 10, and by how
#: many orders.
_FASTER_UNITARY = {(4, 3, 2, 1): 3, **dict.fromkeys([
    (3, 1, 1), (3, 2, 1), (5, 2, 1), (3, 2, 1, 1, 1), (5, 3, 1), (5, 1, 1, 1, 1), (3, 3, 3), (3, 2, 2, 1, 1),
    (7, 2, 1), (5, 4, 1), (5, 2, 1, 1, 1), (3, 2, 2, 2, 1), (3, 2, 1, 1, 1, 1, 1)], 1)}


def _laguerre_values(ens: Ensemble, k: int) -> dict[tuple, RatFunc]:
    """ell_theta = Z_theta(N + s) L_theta(c 1) = <G, J_theta> for every theta of k, with J_theta from
    _jack_table and G_lam = prod_j ((1 - j) / (j alpha))^(m_j) / m_j! d^len(lam), zero when lam has a
    part 1 (ROADMAP F6: the Laguerre generating function of Baker and Forrester, 1997, at x = c 1)."""
    from wickweights.algebra import scaled_sum
    from wickweights.wick import _jack_table

    z, jacks = _jack_table(k, ens.alpha)
    g = [(i, z[i] * math.prod(Fraction(1 - j, j * ens.alpha) ** n / math.factorial(n) for j, n in Counter(lam).items()),
          ens.pair_denominator ** len(lam)) for i, lam in enumerate(partitions_of(k)) if 1 not in lam]
    return {theta: RatFunc(*scaled_sum((x * Fraction(jack.v[i], jack.v[-1]), f) for i, x, f in g))
            for theta, jack in zip(partitions_of(k), jacks)}


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_laguerre_values_by_generating_function_match_binomials(ens):
    # F6: <G, J_theta> is the sum of the generalized binomials of theta that defines ell_theta
    for k in range(1, 11):
        for theta, ell in _laguerre_values(ens, k).items():
            assert ell == RatFunc(*binomial_ell(theta, ens.alpha, ens.pair_shift)), theta


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_kernel_weight_matches_binomial_kernel(ens):
    # the generating-function kernel against the one summed over pairs sigma inside theta
    from wickweights.wick import kernel_weight

    for kappa in range(1, 9):
        assert kernel_weight(ens, kappa) == binomial_kernel_weight(ens, kappa), kappa


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_kernel_targets_by_shift_and_laguerre_form(ens):
    # F6(d): the kernel's targets T_lam = <w p_lam(W)>_g are Lambda((D p_lam)(1^N + y)), with
    # D J_phi = Z_phi(N + s) d^-|phi| J_phi, p_k(1^N + y) = sum_j C(k, j) p_j(y) with p_0 = N, and
    # Lambda(J_theta(y)) = (-1)^|theta| ell_theta Z_theta(N) / Z_theta(N + s) for |theta| <= kappa,
    # 0 above: no trace moment and no binomial, in Fractions at N = 31, for kappa <= 3, |lam| <= kappa + 2
    from wickweights.wick import _class_targets, _jack_table, kernel_weight

    n, s = 31, ens.pair_shift

    def eigen(jack, m):  # Z_theta(m)
        return math.prod(m + x for x in jack.offsets)

    def shifted(mu):  # p_mu(1^N + y) as {nu: coefficient of p_nu(y)}
        out = {(): Fraction(1)}
        for k in mu:
            step = Counter()
            for nu, c in out.items():
                for j in range(k + 1):
                    step[tuple(sorted(nu + (j,) * (j > 0), reverse=True))] += c * math.comb(k, j) * (n if j == 0 else 1)
            out = step
        return out

    form = {(): Fraction(1)}  # Lambda(p_nu(y)), by p_nu = sum_theta z^alpha_nu J_theta[nu] / j_theta J_theta
    for m in range(1, 4):
        z, jacks = _jack_table(m, ens.alpha)
        ell = _laguerre_values(ens, m)
        for i, nu in enumerate(partitions_of(m)):
            form[nu] = sum(Fraction(z[i] * jack.v[i] * jack.v[-1] * eigen(jack, n), jack.norm * eigen(jack, n + s))
                           * (-1) ** m * ell[theta].eval(n) for theta, jack in zip(partitions_of(m), jacks))
    for kappa in range(1, 4):
        w = kernel_weight(ens, kappa)
        for k in range(1, kappa + 3):
            classes = list(partitions_of(k))
            z, jacks = _jack_table(k, ens.alpha)
            for i, (lam, want) in enumerate(zip(classes, _class_targets(ens, w, classes))):
                # D p_lam = sum_phi z^alpha_lam J_phi[lam] / j_phi Z_phi(N + s) d^-k J_phi, in power sums
                dp = [Fraction(z[i] * sum(Fraction(jack.v[i] * jack.v[j] * eigen(jack, n + s), jack.norm) for jack in jacks),
                               (n + s) ** k) for j in range(len(classes))]
                got = sum(c * e * form[nu] for c, mu in zip(dp, classes) for nu, e in shifted(mu).items()
                          if sum(nu) <= kappa)
                assert got == want.eval(n), (kappa, lam)


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_laguerre_value_at_one_decays_with_half_its_size(ens):
    # L_theta(c 1) = ell_theta / Z_theta(N + s) has order |theta| - deg ell_theta >= ceil(|theta|/2),
    # and L_(1)(c 1) = 0: the error of a weight of order kappa, a sum over |theta| > kappa, is
    # then O(N^-(floor(kappa/2) + 1)) whatever the degree
    assert not _laguerre_values(ens, 1)[(1,)]
    faster = _FASTER_UNITARY if ens is Ensemble.UNITARY else {}
    orders = {theta: k - ell.num.degree for k in range(2, 11) for theta, ell in _laguerre_values(ens, k).items()}
    assert orders == {theta: (sum(theta) + 1) // 2 + faster.get(theta, 0) for theta in orders}


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_faster_decay_is_a_zero_jack_coefficient(ens):
    # of the lam with no part 1 only top = (2^r), or (3, 2^(r-1)) when |theta| = 2r + 1, has
    # floor(|theta|/2) parts, so deg ell_theta <= floor(|theta|/2), with equality unless J_theta's
    # coefficient on p_top is 0 (ROADMAP F6(a, b)); at alpha = 1 that is a zero of the character
    from wickweights.wick import _jack_table

    faster = set()
    for k in range(2, 13):
        top = list(partitions_of(k)).index((3,) * (k % 2) + (2,) * (k // 2 - k % 2))
        zeros = {theta for theta, jack in zip(partitions_of(k), _jack_table(k, ens.alpha)[1]) if not jack.v[top]}
        degrees = {theta: ell.num.degree for theta, ell in _laguerre_values(ens, k).items()}
        assert max(degrees.values()) == k // 2, k
        assert zeros == {theta for theta, deg in degrees.items() if deg < k // 2}, k
        faster |= zeros if k <= 10 else set()
    assert faster == (set(_FASTER_UNITARY) if ens is Ensemble.UNITARY else set())


@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("offsets", [(), (3,), (0, 0, 0), (-2, 1, -2, 4), (-1, -3, 0, 2, 2)])
def test_boxes_is_the_product_of_linear_factors(offsets, shift):
    from wickweights.algebra import linear_product

    assert linear_product(offsets, shift) == math.prod((Poly((shift + x, 1)) for x in offsets), start=Poly((1,)))
    assert linear_product(iter(offsets), shift) == linear_product(offsets, shift)


def test_coe_degree_12_literal():
    # COE kappa=2 (M[1,1] Mc[1,1])^6, as the hyperoctahedral class matrix gave it
    w = solve_weight(Ensemble.COE, 2)
    got = integrate_monomial(w, MonomialSpec.parse(" ".join(["M[1,1] Mc[1,1]"] * 6)))
    assert got.as_ratfunc() == RatFunc(46080 * (N - 27), (N + 1) ** 6 * (N + 3))


def test_expansion_with_free_labels_matches_oracle():
    slots, labels = gram_product_slots(Ensemble.ORTHOGONAL, 2)
    exp = slots_moment(Ensemble.ORTHOGONAL, slots)
    # evaluate at every concrete assignment of the free labels and compare
    n = 2
    for i1 in (1, 2):
        for l1 in (1, 2):
            for i2 in (1, 2):
                for l2 in (1, 2):
                    assign = {"i1": i1, "l1": l1, "i2": i2, "l2": l2}
                    # direct oracle on the explicit entry sum over columns
                    total = Fraction(0)
                    for b1 in range(1, n + 1):
                        for b2 in range(1, n + 1):
                            mono = [Slot(i1, b1), Slot(l1, b1), Slot(i2, b2), Slot(l2, b2)]
                            total += oracle_concrete_moment(Ensemble.ORTHOGONAL, mono, n)
                    assert evaluate_expansion(exp, assign, n) == total


# -- trace moments -------------------------------------------------------------------


def test_trace_moment_examples():
    assert gaussian_trace_moment(Ensemble.ORTHOGONAL, [(1,)]) == RatFunc(N)
    assert gaussian_trace_moment(Ensemble.ORTHOGONAL, [(2,)]) == RatFunc(2 * N + 1)
    assert gaussian_trace_moment(Ensemble.UNITARY, [(2,)]) == RatFunc(2 * N)
    assert gaussian_trace_moment(Ensemble.ORTHOGONAL, [(1,), (1,)]) == RatFunc(N * N + 2)
    assert gaussian_trace_moment(Ensemble.ORTHOGONAL, []) == RatFunc(1)
    assert gaussian_trace_moment(Ensemble.COE, [(1,)]) == RatFunc(N)


def test_trace_moment_scalar_dimension():
    # at N=1 the matrix is a single Gaussian: classical even moments
    for k in range(1, 6):
        real = gaussian_trace_moment(Ensemble.ORTHOGONAL, [(k,)]).eval(1)
        dfact = 1
        for v in range(2 * k - 1, 1, -2):
            dfact *= v
        assert real == dfact
        comp = gaussian_trace_moment(Ensemble.UNITARY, [(k,)]).eval(1)
        fact = 1
        for v in range(2, k + 1):
            fact *= v
        assert comp == fact
        coe = gaussian_trace_moment(Ensemble.COE, [(k,)]).eval(1)
        assert coe == fact  # E|S|^2 = 2/(N+1) = 1 at N=1, like the unitary case


@pytest.mark.parametrize("ens", ENSEMBLES)
@pytest.mark.parametrize("multiset", [[(2,)], [(3,)], [(2,), (1,)], [(1,), (1,), (1,)], [(2, 1)]])
def test_trace_moment_concrete_oracle(ens, multiset):
    got = gaussian_trace_moment(ens, multiset)
    for n in (1, 2):
        assert got.eval(n) == oracle_trace_moment(ens, multiset, n)


def test_trace_moment_growth_degree():
    # product of p traces grows like N^p; a single trace grows like N
    for ens in ENSEMBLES:
        for multiset, parts in ([[(3,)], 1], [[(2,), (1,)], 2], [[(1,), (1,), (1,)], 3]):
            f = gaussian_trace_moment(ens, multiset)
            assert f.order() == -parts
            assert f.num.lc > 0


def test_trace_moment_depends_only_on_the_multiset():
    # the same multiset of trace powers in another order is the same moment
    a = gaussian_trace_moment(Ensemble.ORTHOGONAL, [(2, 1)])
    assert gaussian_trace_moment(Ensemble.ORTHOGONAL, [(2,), (1,)]) == a


def test_trace_moment_above_the_power_limit_is_a_value_error():
    # the loop equation would recurse too deep here; the library refuses first
    with pytest.raises(ValueError, match="total trace power 1200 exceeds the limit of 44"):
        gaussian_trace_moment(Ensemble.UNITARY, [(1200,)])


TRACE_FIXTURE = pathlib.Path(__file__).resolve().parent / "data" / "trace_moments.json"


def test_trace_moment_fixture_recomputed():
    # values of the former pairing-sum engine, up to degree 16, recomputed cold
    from wickweights import wick

    wick._loop_numerator.cache_clear()
    entries = json.loads(TRACE_FIXTURE.read_text())
    assert len(entries) == 271
    for e in entries:
        got = gaussian_trace_moment(Ensemble(e["ensemble"]), [tuple(p) for p in e["invariants"]])
        assert got == ratfunc_from_json(e["value"]), e


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_trace_moment_matches_open_kernel(ens):
    # the loop equation against the entry-moment routine on the trace's own
    # slots, whose summed indices it contracts
    for weight in range(1, 5):
        for lam in partitions_of(weight):
            slots = invariant_slots(ens, lam, FreshSummed())
            open_sum = entry_moment(ens, {(): RatFunc(1)}, slots).as_ratfunc()
            assert gaussian_trace_moment(ens, [lam]) == open_sum, lam
            # with no slots the invariant is the weight of a degree-0 moment
            assert moment_with_invariants(ens, [], [lam]).as_ratfunc() == open_sum, lam


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_trace_moment_matches_reference_expansion(ens):
    # every multiset of single traces up to degree 8, by the brute-force oracle
    for weight in range(1, 5):
        for powers in partitions_of(weight):
            slots = invariant_slots(ens, powers, FreshSummed())
            expected = reference_expansion(ens, slots).as_ratfunc()
            assert gaussian_trace_moment(ens, [(k,) for k in powers]) == expected, powers


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_trace_moment_degree_36(ens):
    # 35!! pairings for real entries: out of reach of any pairing walk
    got = gaussian_trace_moment(ens, [(6,), (6,), (6,)])
    # at N=1 the matrix is one Gaussian: E x^36 = 35!! or E |z|^36 = 18!
    scalar = math.prod(range(35, 0, -2)) if ens is Ensemble.ORTHOGONAL else math.factorial(18)
    assert got.eval(1) == scalar
    # leading order factorizes into three Catalan(6) = 132 planar terms
    assert got.order() == -3
    assert Fraction(got.num.lc, got.den.lc) == 132 ** 3


# -- Gram products by invariance -------------------------------------------------------


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_gram_product_matches_open_kernel(ens):
    # the Gram-block reduction against the general entry-moment routine on
    # the blocks' slots: unit weight to k=4, solved weights to k=3
    cases = [(unit_weight(ens), k) for k in (1, 2, 3, 4)]
    cases += [(solve_weight(ens, kappa), k) for kappa in (1, 2) for k in (1, 2, 3)]
    for w, k in cases:
        slots, _ = gram_product_slots(ens, k)
        want = weighted_moment(w, slots)
        assert integrate_gram_product(w, k) == want, (w.kappa, k)


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_gram_product_matches_reference_expansion(ens):
    for k in (1, 2, 3):
        slots, _ = gram_product_slots(ens, k)
        assert integrate_gram_product(unit_weight(ens), k) == reference_expansion(ens, slots), k


# -- connected parts -----------------------------------------------------------------


def test_connected_two_blocks_real():
    got = connected_entry_moment(Ensemble.ORTHOGONAL, 2)
    inv = RatFunc(1, N)
    assert got == expansion([
        (((("i1", "i2"), None), (("l1", "l2"), None)), inv),
        (((("i1", "l2"), None), (("i2", "l1"), None)), inv),
    ])


def test_connected_single_factor_is_full_moment():
    for ens in ENSEMBLES:
        got = connected_entry_moment(ens, 1)
        assert got == expansion([(((("i1", "l1"), None),), RatFunc(1))])


def test_connected_traces():
    assert connected_trace_moment(Ensemble.ORTHOGONAL, [(1,), (1,)]) == RatFunc(2)
    one = gaussian_trace_moment(Ensemble.ORTHOGONAL, [(2,)])
    assert connected_trace_moment(Ensemble.ORTHOGONAL, [(2,)]) == one


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_moment_cumulant_consistency(ens):
    # full moment = sum over set partitions of products of connected parts
    for k in (2, 3, 4):
        slots, _ = gram_product_slots(ens, k)
        full = slots_moment(ens, slots)
        total = DeltaExpansion()
        for blocks in set_partitions(range(1, k + 1)):
            prod = DeltaExpansion({(): RatFunc(1)})
            for block in blocks:
                part = connected_entry_moment(ens, len(block))
                mapping = {}
                for t, v in enumerate(sorted(block), start=1):
                    mapping[f"i{t}"] = f"i{v}"
                    mapping[f"l{t}"] = f"l{v}"
                prod = product(prod, rename(part, mapping))
            total = add(total, prod)
        assert total == full


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_connected_matches_open_kernel_cumulants(ens):
    # the same cumulants with every moment from the general entry-moment
    # routine on the blocks' slots
    for k in (1, 2, 3, 4):

        def moment_fn(sub):
            slots, _ = gram_product_slots(ens, len(sub))
            mapping = {}
            for t, v in enumerate(sorted(sub), start=1):
                mapping[f"i{t}"] = f"i{v}"
                mapping[f"l{t}"] = f"l{v}"
            return rename(slots_moment(ens, slots), mapping)

        want = cumulants_from_moments(tuple(range(1, k + 1)), moment_fn)
        assert connected_entry_moment(ens, k) == want, k


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_connected_scaling(ens):
    # each extra correlated block costs at least one power of 1/N
    for k in (2, 3, 4):
        order = min_order(connected_entry_moment(ens, k))
        assert order is not None and order >= k - 1
        assert order == k - 1  # attained: no global cancellation


def test_moment_with_invariants_label_isolation():
    # internal indices of the inserted invariant must not alias the slots'
    slots, _ = gram_product_slots(Ensemble.ORTHOGONAL, 1)
    got = moment_with_invariants(Ensemble.ORTHOGONAL, slots, [(1,)])
    want = RatFunc(N * N + 2, N)
    assert got == expansion([(((("i1", "l1"), None),), want)])


def test_cumulants_from_moments_scalar():
    # three, pairwise-correlated scalar items with known cumulants
    vals = {
        frozenset({1}): 2, frozenset({2}): 2, frozenset({3}): 2,
        frozenset({1, 2}): 5, frozenset({1, 3}): 5, frozenset({2, 3}): 5,
        frozenset({1, 2, 3}): 14,
    }

    def moment_fn(sub):
        return DeltaExpansion({(): RatFunc(vals[frozenset(sub)])})

    got = cumulants_from_moments((1, 2, 3), moment_fn).as_ratfunc()
    # 14 - 3*(1*2) [pair*single cumulant 1] - 2*2*2 = 14 - 3*2*... computed below
    # singles: 2; pairs: 5 - 4 = 1; triple: 14 - 3*(1*2) - 8 = 0
    assert got == RatFunc(0)


def test_connected_entry_moment_needs_a_factor():
    with pytest.raises(ValueError, match="at least one factor"):
        connected_entry_moment(Ensemble.ORTHOGONAL, 0)


def test_expansion_with_free_deltas_has_no_scalar_and_prints_its_terms():
    got = slots_moment(Ensemble.ORTHOGONAL, [Slot("i", "j"), Slot("k", "l")])
    with pytest.raises(ValueError, match="free-index deltas"):
        got.as_ratfunc()
    assert repr(got) == "DeltaExpansion([(1) / (N)]d(i,k)d(j,l))"
    assert repr(DeltaExpansion()) == "DeltaExpansion(0)"
