import functools
import json
import math
import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from helpers import prs_gcd, ratfunc_from_json, weight_from_json

from wickweights import algebra
from wickweights.algebra import (
    N,
    PoleError,
    Poly,
    RatFunc,
    SingularMatrixError,
    clear_denominators,
    linear_product,
    poly_gcd,
    solve_linear_system,
)

ONE = Poly((1,))


def test_poly_basics():
    p = Poly((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Poly().degree == -1
    assert (N + 1) * (N - 1) == N * N - 1
    assert (N**3).coeffs == (0, 0, 0, 1)
    assert str(2 * N + 1) == "2*N + 1"
    assert str(N * N + 2) == "N^2 + 2"
    assert str(-(N**3) + 2 * N) == "-N^3 + 2*N"
    assert str(Poly()) == "0"


def test_power_refuses_a_negative_exponent():
    assert N**3 == Poly((0, 0, 0, 1)) and N**0 == Poly((1,))
    with pytest.raises(ValueError, match="negative polynomial power"):
        N ** -2


@pytest.mark.parametrize("make", [lambda: Poly([Fraction(1, 2), 3]), lambda: Poly([2.7]),
                                  lambda: RatFunc(1, Poly([Fraction(1, 3)]))],
                         ids=["half", "float", "third-denominator"])
def test_poly_refuses_non_integer_coefficients(make):
    # int() would truncate these to 3*N, 2 and a zero denominator
    with pytest.raises(TypeError):
        make()


def test_poly_divexact():
    assert (N * N - 1).divexact(N - 1) == N + 1
    with pytest.raises(ValueError):
        (N * N + 1).divexact(N - 1)
    with pytest.raises(ZeroDivisionError):
        N.divexact(Poly())


def test_poly_divexact_of_zero_and_by_a_higher_degree():
    assert Poly().divexact(N + 1) == Poly()
    with pytest.raises(ValueError, match="inexact"):
        N.divexact(N * N)


def test_poly_gcd():
    a = (N - 1) * (N + 2) * 3
    b = (N - 1) * (N + 5) * 2
    assert poly_gcd(a, b) == N - 1
    assert poly_gcd(Poly(), b) == (N - 1) * (N + 5)  # primitive part, positive lc
    assert poly_gcd(-(N + 1), (N + 1) ** 2) == N + 1


_P = 2**61 - 1  # the first prime of the solve and of the gcd


def test_poly_gcd_large_coefficients_join_primes(monkeypatch):
    # coefficients beyond 2^61 lift only from two or more primes joined by the CRT
    joins = []
    crt = algebra._crt
    monkeypatch.setattr(algebra, "_crt", lambda *args: joins.append(1) or crt(*args))
    big = (2**70 + 1) * N + 3
    assert poly_gcd(big * (N + 1), big * (N - 2)) == big
    assert joins


def test_poly_gcd_unlucky_first_prime():
    # N and N + P agree mod P, so the first image has degree 2, one too many
    assert poly_gcd(N * (N + 1), (N + _P) * (N + 1)) == N + 1


def test_poly_gcd_leading_coefficient_divisible_by_the_first_prime():
    a = _P * N + 1
    assert poly_gcd(a, a * (N + 2)) == a
    assert poly_gcd(a * (N + 2), -a) == a


@pytest.mark.parametrize("a, b, want", [
    (Poly(), Poly(), Poly()),
    (Poly(), -6 * N - 4, 3 * N + 2),
    (-6 * N - 4, Poly(), 3 * N + 2),
    (Poly((-4,)), Poly(), ONE),
    (Poly(), Poly((-4,)), ONE),
    (Poly((6,)), 4 * N + 2, ONE),
    (4 * N + 2, Poly((-6,)), ONE),
    (-(N + 1) * (N - 3), 2 * N + 2, N + 1),
    (2 * N + 2, -(N + 1) * (N - 3), N + 1),
    (-(N * N), -2 * N, N),
])
def test_poly_gcd_zero_constant_and_negative_arguments(a, b, want):
    assert poly_gcd(a, b) == want == prs_gcd(a, b)


def test_poly_gcd_matches_prs_oracle_random():
    # planted common factors with coefficients up to 2^80, products of degree up to 8
    rng = random.Random(20261019)

    def rand_poly(degree):
        bits = rng.choice((2, 20, 80))
        return Poly([rng.randint(-2**bits, 2**bits) for _ in range(degree + 1)])

    for _ in range(150):
        common = rand_poly(rng.randint(0, 4))
        a = common * rand_poly(rng.randint(0, 4))
        b = common * rand_poly(rng.randint(0, 4))
        assert poly_gcd(a, b) == prs_gcd(a, b)


def test_normalize_factor_cancellation():
    assert RatFunc(N * N - 1, N - 1) == RatFunc(N + 1)


def test_normalize_content_reduction():
    f = RatFunc(2 * N, Poly((4,)))
    assert f.num == N and f.den == Poly((2,))


def test_normalize_zero_numerator():
    f = RatFunc(Poly(), N + 2)
    assert f.num == Poly() and f.den == ONE
    assert not f


def test_normalize_sign():
    f = RatFunc(N, -(N - 1))
    assert f.den.lc > 0
    assert f == RatFunc(-N, N - 1)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(N, Poly())


def test_canonical_uniqueness_random():
    rng = random.Random(7)
    for _ in range(200):
        p = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
        q = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
        r = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
        if not q or not r:
            continue
        assert RatFunc(p * r, q * r) == RatFunc(p, q)
    for _ in range(100):
        # coefficients up to 2^80, past what one 61-bit prime lifts
        p, q, r = (Poly([rng.randint(-2**80, 2**80) for _ in range(rng.randint(1, 4))]) for _ in range(3))
        assert RatFunc(p * r, q * r) == RatFunc(p, q)


def test_arithmetic_examples():
    inv_n = RatFunc(1, N)
    assert inv_n + inv_n == RatFunc(2, N)
    assert RatFunc(N, 2) * RatFunc(2, N) == RatFunc(1)
    assert RatFunc(1, N - 1) - RatFunc(1, N + 1) == RatFunc(2, N * N - 1)
    with pytest.raises(ZeroDivisionError):
        RatFunc(1) / RatFunc(0)


def test_field_axioms_random():
    rng = random.Random(11)

    def rand_ratfunc():
        while True:
            num = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
            den = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
            if den:
                return RatFunc(num, den)

    for _ in range(60):
        f, g, h = rand_ratfunc(), rand_ratfunc(), rand_ratfunc()
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == RatFunc(0)
        if g:
            assert (f / g) * g == f


def _split(rng, roots=range(-6, 7)):
    """Random linear factors {r: e} of N + r, repeated roots, negative ones and 0 among them."""
    return Counter(rng.choice(roots) for _ in range(rng.randint(0, 6)))


def _rand_split(rng, cofactor=ONE):
    """num / (scale prod (N + r)^e cofactor) with its linear factors {r: e} known; num shares
    some of them."""
    factors = _split(rng)
    num = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))])
    num = num * linear_product(rng.sample(list(factors.elements()), rng.randint(0, factors.total())))
    den = linear_product(factors.elements()) * rng.choice((1, 2, -3, 6, 2**70)) * cofactor
    return RatFunc.factored(num, den, factors)


def _same(got, want):
    assert got == want and (got.num, got.den) == (want.num, want.den)
    assert hash(got) == hash(want) and str(got) == str(want) and got.to_json() == want.to_json()


def _cofactor_degree(f):
    """Degree of f's denominator over its known factors, which must divide it."""
    return f.den.divexact(linear_product(f.factors.elements())).degree


def test_factored_matches_general_random():
    # num / (scale prod (N + r)^e) reduced by trial division at the known roots is the
    # general path's canonical pair, with the same hash, str and JSON; num shares
    # some of the factors, and the scale and num share a content
    rng = random.Random(26)
    for trial in range(400):
        factors, content = _split(rng), rng.choice((1, 1, 2, 6, -4, 3**5))
        scale = content * rng.choice((1, 5, -7, 2**70))
        num = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]) * content
        num = num * linear_product(rng.sample(list(factors.elements()), rng.randint(0, sum(factors.values()))))
        if trial % 10 == 0:
            num = Poly()
        den = linear_product(factors.elements()) * scale
        got = RatFunc.factored(num, den, factors)
        _same(got, RatFunc(num, den))
        assert got.den == linear_product(got.factors.elements()) * got.den.lc
        more = list(_split(rng).elements())
        assert RatFunc.factored(num, den, factors, more) == RatFunc(num, den * linear_product(more))
        assert RatFunc.factored(num, den, Counter(), more) == RatFunc(num, den * linear_product(more))


@pytest.mark.parametrize("value", [0, 3, -2, N, N + 1], ids=["0", "3", "-2", "N", "N+1"])
def test_hash_agrees_with_eq(value):
    # a constant Poly or RatFunc equals its int and a RatFunc over 1 its numerator, so they
    # hash alike and find each other in sets
    f = RatFunc(value)
    assert f == value and hash(f) == hash(value) and value in {f} and f in {value}
    if isinstance(value, int):
        p = Poly((value,))
        assert p == value and hash(p) == hash(value) and value in {p} and p in {value}
        assert p == f and hash(p) == hash(f)


def test_poly_defers_to_ratfunc():
    # Poly arithmetic and == return NotImplemented for what is neither an int nor a Poly,
    # so RatFunc's reflected methods run
    p, f = 2 * N + 1, RatFunc(1, N)
    assert p + f == RatFunc(2 * N * N + N + 1, N) == f + p
    assert p - f == RatFunc(2 * N * N + N - 1, N) == -(f - p)
    assert p * f == RatFunc(2 * N + 1, N) == f * p
    assert Poly((1,)) == RatFunc(1) and RatFunc(1) == Poly((1,)) and N != RatFunc(1, N)
    for op in (Poly.__add__, Poly.__mul__, Poly.__eq__):
        assert op(p, f) is NotImplemented and op(p, "N") is NotImplemented
    with pytest.raises(TypeError):
        p + "N"


def test_plus_poly_matches_general_random():
    # f + p, f - p, p - f and -f equal the reduction from scratch of the same pair, for
    # split and for unsplit denominators, and keep f's known factors: split stays split
    rng = random.Random(27)
    for trial in range(300):
        factors = _split(rng)
        den = linear_product(factors.elements()) * rng.choice((1, 3, -2))
        if trial % 3 == 0:
            den = den * (N * N + 1)
        f = RatFunc.factored(Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]), den, factors)
        p = rng.choice((0, 1, -1, 7, Poly([rng.randint(-3, 3) for _ in range(3)])))
        cases = [(f + p, f.num + p * f.den), (f - p, f.num - p * f.den), (-f, -f.num),
                 (p + f, f.num + p * f.den), (p - f, p * f.den - f.num)]
        for got, num in cases:
            _same(got, RatFunc(num, f.den))
            assert (_cofactor_degree(got) == 0) == (_cofactor_degree(f) == 0)


def test_arithmetic_matches_general_random(monkeypatch):
    # sums, differences, products and quotients of split ratios, and of split ones times
    # N^2 + 1, are the reduction from scratch of the same pair; a sum, difference or
    # product of two split ratios reaches no gcd and keeps its known factors
    calls = []
    gcd = algebra.poly_gcd
    monkeypatch.setattr(algebra, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    rng = random.Random(29)
    for trial in range(300):
        f, g = (_rand_split(rng, N * N + 1 if trial % 4 == i else ONE) for i in (1, 2))
        calls.clear()
        ring = [(f + g, f.num * g.den + g.num * f.den), (f - g, f.num * g.den - g.num * f.den), (f * g, f.num * g.num)]
        assert not calls or trial % 4 in (1, 2)
        for got, num in ring:
            _same(got, RatFunc(num, f.den * g.den))
            assert _cofactor_degree(got) == 0 or trial % 4 in (1, 2)
        if g:
            got = f / g
            _same(got, RatFunc(f.num * g.den, f.den * g.num))
            assert _cofactor_degree(got) >= 0


def test_factored_with_some_factors_known():
    # only some of the linear factors known, beside the rest and a cofactor N^2 + 1 that
    # does not split: the same pair as the reduction from scratch, over known factors
    rng = random.Random(30)
    for trial in range(300):
        factors, content = _split(rng), rng.choice((1, 2, -6))
        den = linear_product(factors.elements()) * content * (N * N + 1 if trial % 2 else ONE)
        num = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]) * content
        num = num * linear_product(rng.sample(list(factors.elements()), rng.randint(0, factors.total())))
        known = Counter(rng.sample(list(factors.elements()), rng.randint(0, factors.total())))
        got = RatFunc.factored(num, den, known)
        _same(got, RatFunc(num, den))
        assert not got.factors - known
        assert _cofactor_degree(got) >= 0


def _is_lcm(common, dens):
    """Whether common is a least common multiple of dens: each divides it, and their quotients
    share no polynomial factor and no integer content."""
    quotients = [common.divexact(d) for d in dens]
    return (common.lc > 0 and math.gcd(*(c for q in quotients for c in q.coeffs)) == 1
            and functools.reduce(prs_gcd, quotients) == ONE)


def test_clear_denominators_over_known_factors():
    # the common denominator is the least common multiple: over known factors the larger
    # exponent per root times the lcm of the constants, and each numerator is over it;
    # beside a cofactor N^2 + 1 the lcm of the contents and of the primitive cofactors
    rng = random.Random(28)
    for _ in range(100):
        fs = [RatFunc.factored(Poly([rng.randint(-5, 5) for _ in range(3)]),
                               linear_product(fs.elements()) * rng.choice((1, 2, 6, -9)), fs)
              for fs in (_split(rng) for _ in range(rng.randint(1, 5)))]
        common, nums, factors = clear_denominators(fs)
        want = Counter()
        for f in fs:
            want |= f.factors
        assert factors == want
        assert common == linear_product(want.elements()) * math.lcm(*(f.den.lc for f in fs))
        assert [RatFunc(n, common) for n in nums] == fs and _is_lcm(common, [f.den for f in fs])
        for known in (Counter(), want):
            general = [RatFunc.factored(f.num, f.den * (N * N + 1), f.factors & known) for f in fs]
            common, nums, factors = clear_denominators(general)
            assert factors == known and _is_lcm(common, [g.den for g in general])
            assert [RatFunc(n, common) for n in nums] == general


@pytest.mark.parametrize("known", [Counter(), Counter({0: 1})])
def test_clear_denominators_takes_the_lcm_of_contents(known):
    # 6 (N^2 + 1) and 4 N (N^2 + 1): contents 6 and 4 give 12, not their product 24
    fs = [RatFunc(1, 6 * (N * N + 1)), RatFunc.factored(ONE, 4 * N * (N * N + 1), known)]
    common, nums, factors = clear_denominators(fs)
    assert common == 12 * N * (N * N + 1) and nums == [2 * N, Poly((3,))] and factors == known


def test_solve_identity():
    rhs = [RatFunc(N), RatFunc(1, N + 1)]
    eye = [[RatFunc(1), RatFunc(0)], [RatFunc(0), RatFunc(1)]]
    assert solve_linear_system(eye, rhs) == rhs


def test_solve_scalar():
    assert solve_linear_system([[RatFunc(N)]], [RatFunc(N * N)]) == [RatFunc(N)]


def test_solve_cramer_oracle():
    # 2x2 with determinant 1, solved independently by Cramer's rule
    a, b, c, d = RatFunc(1), RatFunc(N), RatFunc(N), RatFunc(N * N + 1)
    r1, r2 = RatFunc(1), RatFunc(0)
    det = a * d - b * c
    expect = [(r1 * d - b * r2) / det, (a * r2 - r1 * c) / det]
    got = solve_linear_system([[a, b], [c, d]], [r1, r2])
    assert got == expect == [RatFunc(N * N + 1), RatFunc(-N)]


def test_solve_residual_random():
    rng = random.Random(3)
    solved = 0
    while solved < 25:
        n = rng.randint(1, 4)
        mat = [[RatFunc(Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]))
                for _ in range(n)] for _ in range(n)]
        rhs = [RatFunc(Poly([rng.randint(-3, 3) for _ in range(2)])) for _ in range(n)]
        try:
            x = solve_linear_system(mat, rhs)
        except SingularMatrixError:
            continue
        for row, b in zip(mat, rhs):
            acc = RatFunc(0)
            for e, v in zip(row, x):
                acc = acc + e * v
            assert acc == b
        solved += 1


def test_solve_singular():
    mat = [[RatFunc(1), RatFunc(1)], [RatFunc(2), RatFunc(2)]]
    with pytest.raises(SingularMatrixError):
        solve_linear_system(mat, [RatFunc(1), RatFunc(1)])


def test_solve_determinant_divisible_by_the_first_prime():
    # singular mod 2^61 - 1 at every point, so the solve moves on to other primes
    p = 2**61 - 1
    assert solve_linear_system([[RatFunc(p)]], [RatFunc(1)]) == [RatFunc(1, p)]


def test_solve_large_coefficient_needs_crt(monkeypatch):
    # 2^71 + 1 does not lift from one 61-bit prime: at least three are joined
    joins = []
    crt = algebra._crt
    monkeypatch.setattr(algebra, "_crt", lambda *args: joins.append(1) or crt(*args))
    big = 2**71 + 1
    x = [RatFunc(big * N - 1, N + 3), RatFunc(N, 2 * N + 1)]
    mat = [[RatFunc(1), RatFunc(N)], [RatFunc(N + 1), RatFunc(-1)]]
    rhs = [x[0] + x[1] * N, x[0] * (N + 1) - x[1]]
    assert solve_linear_system(mat, rhs) == x
    assert len(joins) >= 2


_WEIGHTS = json.loads((pathlib.Path(__file__).resolve().parent / "data" / "weights.json").read_text())


@pytest.mark.parametrize("table", _WEIGHTS, ids=lambda t: f"{t['ensemble']}-k{t['kappa']}")
def test_solve_gram_system_with_one_prime(monkeypatch, table):
    # the Gram coefficients fit one 61-bit prime: one set of images, one exact check
    from wickweights.weights import build_gram_system

    want = weight_from_json(table)
    system = build_gram_system(want.ensemble, want.kappa)
    images, satisfies = algebra._images_mod, algebra._satisfies
    calls = []
    monkeypatch.setattr(algebra, "_images_mod", lambda *a: calls.append("images") or images(*a))
    monkeypatch.setattr(algebra, "_satisfies", lambda *a: calls.append("check") or satisfies(*a))
    x = solve_linear_system(system.matrix, system.rhs)
    assert x == [want.coefficient(p) for p in system.partitions]
    assert calls == ["images", "check"]


def test_solve_singular_depending_on_n():
    with pytest.raises(SingularMatrixError):
        solve_linear_system([[RatFunc(N), RatFunc(N * N)], [RatFunc(1), RatFunc(N)]],
                            [RatFunc(1), RatFunc(0)])


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def test_solve_unitary_class_system_cramer():
    # the denominator N (N^2 - 1)(N^2 - 4) vanishes at small integers; a solve
    # at consecutive integer points can accept a wrong degree-5 candidate here
    from helpers import reference_class_matrix

    mat = reference_class_matrix(False, 3)
    rhs = [RatFunc(1), RatFunc(2), RatFunc(3)]
    det = _det3(mat)
    cramer = [_det3([row[:j] + [b] + row[j + 1:] for row, b in zip(mat, rhs)]) / det for j in range(3)]
    assert solve_linear_system(mat, rhs) == cramer


def _cyclic(a, b, c):
    return [[RatFunc(0), a, RatFunc(0)], [RatFunc(0), RatFunc(0), b], [c, RatFunc(0), RatFunc(0)]]


def _upper_rows_reversed(a, b, c):
    return [[RatFunc(0), RatFunc(0), c], [RatFunc(0), b, a + c], [a, RatFunc(N), b]]


def _lower_rows_rotated(a, b, c):
    return [[RatFunc(0), b, c], [a, RatFunc(0), RatFunc(0)], [c, RatFunc(N - 3), RatFunc(0)]]


@pytest.mark.parametrize("shape", [_cyclic, _upper_rows_reversed, _lower_rows_rotated])
def test_solve_back_substitution_after_pivoting(shape):
    # the leading entry is 0 at every point, so the first pivot is a row swap
    mat = shape(RatFunc(N + 1), RatFunc(N * N, 2 * N - 1), RatFunc(3, N + 2))
    x = [RatFunc(N - 5, N + 4), RatFunc(2), RatFunc(N * N + 1, 3 * N)]
    rhs = [sum((e * v for e, v in zip(row, x)), RatFunc(0)) for row in mat]
    det = _det3(mat)
    cramer = [_det3([row[:j] + [b] + row[j + 1:] for row, b in zip(mat, rhs)]) / det for j in range(3)]
    assert solve_linear_system(mat, rhs) == cramer == x


def _cramer_2x2_case():
    a, b, c, d = RatFunc(N), RatFunc(1, N + 2), RatFunc(N * N - 3), RatFunc(5)
    r1, r2 = RatFunc(N + 7, N), RatFunc(2)
    det = a * d - b * c
    return [[a, b], [c, d]], [r1, r2], [(r1 * d - b * r2) / det, (a * r2 - r1 * c) / det]


def test_solve_survives_a_wrong_interpolant(monkeypatch):
    # a wrong rational function mod p misses the solve at the next point
    mat, rhs, expect = _cramer_2x2_case()
    calls = []
    mqrr = algebra._mqrr

    def wrong_once(m, u, p):
        calls.append(1)
        return ([1], [1]) if len(calls) == 1 else mqrr(m, u, p)

    monkeypatch.setattr(algebra, "_mqrr", wrong_once)
    assert solve_linear_system(mat, rhs) == expect


@pytest.mark.parametrize("wrong_lifts", [1, 2])
def test_solve_survives_a_wrong_lift(monkeypatch, wrong_lifts):
    # the exact check A x == b rejects a wrong lift: after one, the next
    # prime's lift is returned; after two equal ones, the solve starts over
    mat, rhs, expect = _cramer_2x2_case()
    lifts, checks = [], []
    lift, satisfies = algebra._lift, algebra._satisfies

    def wrong_lift(residues, modulus):
        out = lift(residues, modulus)
        lifts.append(out)
        if len(lifts) <= wrong_lifts and out is not None:
            (num, den), *rest = out
            out = [((num[0] + 1,) + num[1:], den)] + rest
        return out

    monkeypatch.setattr(algebra, "_lift", wrong_lift)
    monkeypatch.setattr(algebra, "_satisfies", lambda *a: checks.append(satisfies(*a)) or checks[-1])
    assert solve_linear_system(mat, rhs) == expect
    assert checks == ([False, False, True] if wrong_lifts == 2 else [False, True])


def test_solve_fails_when_the_points_disagree(monkeypatch):
    # values of no rational function, one unknown off at every other point,
    # raise once the points pass what the system's degrees allow
    mat, rhs, _ = _cramer_2x2_case()
    solve_at, points = algebra._solve_at, []

    def corrupt(rows, x, p):
        out = solve_at(rows, x, p)
        points.append(x)
        if out is not None and len(points) % 2 == 0:
            out[0] = (out[0] + 1) % p
        return out

    monkeypatch.setattr(algebra, "_solve_at", corrupt)
    with pytest.raises(ArithmeticError, match="nonsingular points"):
        solve_linear_system(mat, rhs)
    assert len(points) < 100


def test_primes():
    small = [n for n in range(2000) if n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))]
    assert [n for n in range(2000) if algebra._is_prime(n)] == small
    assert algebra._prime(0) == 2**61 - 1
    assert algebra._prime(0) > algebra._prime(1) > algebra._prime(2)
    assert all(algebra._is_prime(algebra._prime(i)) for i in range(3))


def test_asymptotic_order_examples():
    assert RatFunc(2 * N + 1, N**3).order() == 2
    assert RatFunc(N, 2).order() == -1
    assert RatFunc(0).order() is None


def test_asymptotic_order_multiplicative():
    rng = random.Random(5)
    for _ in range(60):
        f = RatFunc(Poly([rng.randint(1, 3) for _ in range(rng.randint(1, 4))]),
                    Poly([rng.randint(1, 3) for _ in range(rng.randint(1, 4))]))
        g = RatFunc(Poly([rng.randint(1, 3) for _ in range(rng.randint(1, 4))]),
                    Poly([rng.randint(1, 3) for _ in range(rng.randint(1, 4))]))
        assert (f * g).order() == f.order() + g.order()


def test_eval():
    f = RatFunc(3, N * (N + 2))
    assert f.eval(2) == Fraction(3, 8)
    assert RatFunc(N, 2).eval(4) == 2
    assert f.eval(Fraction(1, 2)) == Fraction(3, Fraction(5, 4))


def test_eval_pole_names_factor():
    with pytest.raises(PoleError) as err:
        RatFunc(1, N - 1).eval(1)
    assert err.value.factor == "N - 1"
    with pytest.raises(PoleError) as err:
        RatFunc(1, N + 2).eval(-2)
    assert err.value.factor == "N + 2"


def test_json_roundtrip():
    f = RatFunc(-(N**3), (N - 1) * (N + 2) * 4)
    obj = f.to_json()
    assert obj == {"num": ["0", "0", "0", "-1"], "den": ["-8", "4", "4"]}
    assert ratfunc_from_json(obj) == f
    big = RatFunc(Poly((10**40, 1)), Poly((3,)))
    assert ratfunc_from_json(big.to_json()) == big


def test_ratfunc_reflected_division_and_a_non_integer_pole():
    assert 1 / RatFunc(N) == RatFunc(1, N)
    assert 2 / RatFunc(N, N + 1) == RatFunc(2 * N + 2, N)
    with pytest.raises(PoleError, match="factor N - 1/2 vanishes at N = 1/2") as info:
        RatFunc(1, 2 * N - 1).eval(Fraction(1, 2))
    assert info.value.at == Fraction(1, 2)


def test_solve_empty_and_non_square_systems():
    assert solve_linear_system([], []) == []
    with pytest.raises(ValueError, match="square"):
        solve_linear_system([[RatFunc(1), RatFunc(N)]], [RatFunc(1)])
    with pytest.raises(ValueError, match="square"):
        solve_linear_system([[RatFunc(1)]], [RatFunc(1), RatFunc(2)])
