"""The exact solve and the polynomial gcd, by arithmetic modulo 61-bit primes.

``solve_linear_system`` serves the tests and perfbench/ only.  ``poly_gcd``
is reached only by a ``RatFunc`` whose cofactor beside its known linear
factors has positive degree, and this module is imported only then.  It runs
Euclid modulo 61-bit primes, joins the images by the Chinese remainder
theorem and returns a lift only once it divides both arguments exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Sequence

from .algebra import _ONE, _ZERO, Poly, RatFunc, _primitive, _trim, clear_denominators


class SingularMatrixError(ArithmeticError):
    """Raised for an identically singular linear system."""


#: The first modulus of the solve, a Mersenne prime.
_PRIME = (1 << 61) - 1
#: Seed of the pseudo-random evaluation points, fixed so that every solve
#: takes the same path.  Consecutive integers are no substitute: at such
#: points a wrong candidate can agree with the solve at the next one.
_POINT_SEED = 61


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        y = pow(b, d, n)
        for _ in range(s):
            if y in (1, n - 1):
                break
            y = y * y % n
        else:
            return False
    return True


@cache
def _prime(i: int) -> int:
    """The i-th modulus: 2^61 - 1, then the primes below it in decreasing order."""
    if i == 0:
        return _PRIME
    q = _prime(i - 1) - 2
    while not _is_prime(q):
        q -= 2
    return q


# -- polynomials mod p: ascending coefficient lists, trimmed ---------------------------


def _times_linear(a: list[int], x: int, p: int) -> list[int]:
    """a * (N - x) mod p."""
    out = [0] + a
    for i, c in enumerate(a):
        out[i] = (out[i] - x * c) % p
    return out


def _sub_mul(a: list[int], q: list[int], b: list[int], p: int) -> list[int]:
    """a - q * b mod p."""
    out = a + [0] * (len(q) + len(b) - 1 - len(a))
    for i, qc in enumerate(q):
        for j, bc in enumerate(b):
            out[i + j] -= qc * bc
    return _trim([c % p for c in out])


def _divmod_p(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero b mod p."""
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = rem[i + db] * inv % p
        if c:
            for j, bc in enumerate(b):
                rem[i + j] = (rem[i + j] - c * bc) % p
    return q, _trim(rem[:db])


def _eval_p(a: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def _mqrr(m: list[int], u: list[int], p: int) -> tuple[list[int], list[int]] | None:
    """Maximal-quotient rational reconstruction of u mod m (Monagan, 2004).

    Along the Euclidean remainder sequence of m and u every pair (r, t) has
    r = t u mod m, and the quotient that follows it has degree deg m - deg r
    - deg t: the number of interpolation points to spare if u is r / t.  The
    pair before the largest quotient is returned if that quotient has
    degree 2 or more, None otherwise.
    """
    if not u:
        return ([], [1]) if len(m) > 2 else None
    r0, r1, t0, t1 = m, u, [], [1]
    best, top = None, 1
    while r1:
        q, r = _divmod_p(r0, r1, p)
        if len(q) - 1 > top:
            best, top = (r1, t1), len(q) - 1
        r0, r1, t0, t1 = r1, r, t1, _sub_mul(t0, q, t1, p)
    return best


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd over Q with positive leading coefficient (zero for two
    zeros), by Euclid modulo the solve's primes (Brown's modular gcd; von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 6).

    Let g be the true gcd and gamma = gcd(lc a, lc b), which lc g divides.
    Modulo a prime p dividing neither leading coefficient, g keeps its
    degree and divides a and b, so the gcd mod p has at least that degree:
    degree 0 proves g = 1.  For all but finitely many such p it is g mod p
    up to a unit, and gamma times its monic form is (gamma / lc g) g mod p.
    So images of the lowest degree seen are kept (a lower degree starts
    over, a higher one is skipped) and joined by the Chinese remainder
    theorem, and the symmetric lift's primitive part is returned once it
    divides a and b exactly: a common divisor of at least g's degree is g
    up to a constant.  The lift is right once the modulus exceeds twice the
    largest coefficient of (gamma / lc g) g, so the loop ends.
    """
    if not a or not b:
        return _primitive(a or b)
    gamma = gcd(a.lc, b.lc)
    modulus, image = 1, None
    for p in map(_prime, count()):
        if a.lc % p == 0 or b.lc % p == 0:
            continue
        r0, r1 = [c % p for c in a.coeffs], [c % p for c in b.coeffs]
        while r1:
            r0, r1 = r1, _divmod_p(r0, r1, p)[1]
        if len(r0) == 1:
            return _ONE
        scale = gamma * pow(r0[-1], -1, p) % p
        r0 = [c * scale % p for c in r0]
        if image is None or len(r0) < len(image):
            modulus, image = p, r0
        elif len(r0) == len(image):
            [(image,)] = _crt([(image,)], modulus, [(r0,)], p)
            modulus *= p
        else:
            continue
        g = _primitive(Poly(c - modulus if 2 * c > modulus else c for c in image))
        try:
            a.divexact(g), b.divexact(g)
        except ValueError:
            continue
        return g


# -- the solve -----------------------------------------------------------------------------


def _solve_at(rows: list[list[list[int]]], x: int, p: int) -> list[int] | None:
    """Solution of the augmented rows at N = x mod p; None if singular there.

    Forward elimination clears each column below its pivot only, about n^3/3
    updates, and back-substitution then takes about n^2 more.
    """
    powers = [1]
    for _ in range(max(len(e) for row in rows for e in row) - 1):
        powers.append(powers[-1] * x % p)
    aug = [[sum(map(mul, e, powers)) % p for e in row] for row in rows]
    n = len(aug)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        head = aug[col][col + 1:] = [v * inv % p for v in aug[col][col + 1:]]
        for r in range(col + 1, n):
            f = aug[r][col]
            if f:
                aug[r][col + 1:] = [(a - f * b) % p for a, b in zip(aug[r][col + 1:], head)]
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = (aug[i][n] - sum(map(mul, aug[i][i + 1:n], out[i + 1:]))) % p
    return out


def _images_mod(rows, p: int, rng: random.Random, start: int, confirm: int, det_degree: int):
    """Every unknown as (num, den) mod p with den monic; None if det A vanishes mod p.

    Solves at pseudo-random points, skipping points where the system is
    singular mod p, and keeps each unknown's Newton interpolant.  Once start
    points are in, and then after every quarter more, each unknown without
    a candidate is rebuilt by _mqrr.  A candidate is dropped when it misses
    the solve at a later point, and the images are returned once every
    candidate has agreed with confirm later points.  det A, of degree at
    most det_degree, vanishes mod p if the system is singular at more than
    det_degree distinct points.

    Each unknown is det_j / det by Cramer's rule: its numerator has degree
    at most the sum of the row degrees (right-hand side included), its
    denominator at most det_degree.  From twice their sum plus 2 points on,
    _mqrr's quotient for the true function outweighs all others together,
    so the first rebuild from that many points finds it, and confirm points
    later it is returned.  More nonsingular points than that mean the
    solves are not the values of one rational function: ArithmeticError.
    """
    n = len(rows)
    enough = 2 * (sum(max(1, *map(len, row)) - 1 for row in rows) + det_degree) + 2
    cap = max(start, enough + enough // 4) + confirm
    xs: list[int] = []
    newton: list[list[int]] = [[] for _ in range(n)]
    cands: list[list | None] = [None] * n
    seen: set[int] = set()
    singular, target = 0, start
    while True:
        x = rng.randrange(p)
        if x in seen:
            continue
        seen.add(x)
        values = _solve_at(rows, x, p)
        if values is None:
            singular += 1
            if singular > det_degree:
                return None
            continue
        for j, c in enumerate(cands):
            if c is not None:
                if (_eval_p(c[0], x, p) - values[j] * _eval_p(c[1], x, p)) % p:
                    cands[j] = None
                else:
                    c[2] += 1
        if all(c is not None and c[2] >= confirm for c in cands):
            return [(c[0], c[1]) for c in cands]
        diffs = [(x - xi) % p for xi in xs]
        winv = pow(prod(diffs) % p, -1, p)
        for coeffs, v in zip(newton, values):
            acc = 0
            for c, d in zip(reversed(coeffs), reversed(diffs)):
                acc = (acc * d + c) % p
            coeffs.append((v - acc) * winv % p)
        xs.append(x)
        if len(xs) > cap:
            raise ArithmeticError(f"no solution mod {p} from {cap} nonsingular points, the most its degrees allow")
        if len(xs) < target:
            continue
        target = len(xs) + 1 + len(xs) // 4
        modulus = [1]
        for xi in xs:
            modulus = _times_linear(modulus, xi, p)
        for j, coeffs in enumerate(newton):
            if cands[j] is None:
                u = [coeffs[-1]]
                for i in range(len(xs) - 2, -1, -1):
                    u = _times_linear(u, xs[i], p)
                    u[0] = (u[0] + coeffs[i]) % p
                found = _mqrr(modulus, _trim(u), p)
                if found is not None:
                    inv = pow(found[1][-1], -1, p)
                    cands[j] = [[c * inv % p for c in part] for part in found] + [0]


def _crt(residues, modulus: int, images, p: int):
    """Coefficients mod modulus and mod p joined into coefficients mod modulus * p."""
    inv = pow(modulus % p, -1, p)

    def join(a: int, b: int) -> int:
        return a + modulus * ((b - a) * inv % p)

    return [tuple([join(a, b) for a, b in zip(old, new)] for old, new in zip(olds, news))
            for olds, news in zip(residues, images)]


def _rational(a: int, m: int) -> Fraction | None:
    """Wang's rational reconstruction: r/t = a mod m with |r|, |t| <= sqrt(m/2), or None."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _lift(residues, modulus: int):
    """Every unknown's coefficients mod modulus lifted to Q, or None if one does not lift."""
    out = []
    for num, den in residues:
        coeffs = [_rational(c, modulus) for c in num + den]
        if any(c is None for c in coeffs):
            return None
        out.append((tuple(coeffs[: len(num)]), tuple(coeffs[len(num):])))
    return out


def _as_ratfunc(num: Sequence[Fraction], den: Sequence[Fraction]) -> RatFunc:
    scale = lcm(*(c.denominator for c in (*num, *den)))
    return RatFunc(Poly(int(c * scale) for c in num), Poly(int(c * scale) for c in den))


def _satisfies(cleared: list[list[Poly]], x: list[RatFunc]) -> bool:
    """A x == b exactly, on the cleared augmented rows over one common denominator of x."""
    common, scaled, _ = clear_denominators(x)
    return all(sum((a * v for a, v in zip(row, scaled)), _ZERO) == row[-1] * common for row in cleared)


def solve_linear_system(matrix: Sequence[Sequence[RatFunc]], rhs: Sequence[RatFunc]) -> list[RatFunc]:
    """Exact solution of a square nonsingular system over the rational functions.

    Rows are first scaled to integer-polynomial form.  The system is then
    solved mod p = 2^61 - 1 at pseudo-random points N = x, and each unknown
    is rebuilt from its values as a rational function mod p with a monic
    denominator (_images_mod).  Its coefficients are lifted to Q by Wang's
    rational reconstruction, and every lift is checked against the cleared
    system exactly in Poly arithmetic.  The first lift that passes is
    returned, so a system whose coefficients fit one prime needs one.  A
    lift that fails is joined with a further prime by the Chinese remainder
    theorem; a failing lift equal to the one before starts the solve over
    on fresh primes, with one more agreeing point asked of each candidate.

    Raises SingularMatrixError if the matrix is identically singular.  That
    rests on proof: det A has degree at most D and coefficients at most B
    in absolute value (the product over rows of the sums of the entries'
    absolute coefficients), the system is singular at D + 1 distinct points
    mod every prime of a set whose product exceeds B, so every coefficient
    of det A is zero.

    No run of the program calls it: the weights come in closed form
    (wick.kernel_weight).  It is the reference the tests solve each stored
    weight table's Gram system with, and the solve that perfbench/ times.
    """
    n = len(matrix)
    if n == 0:
        return []
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("matrix must be square and match the right-hand side")
    cleared = [clear_denominators((*row, b))[1] for row, b in zip(matrix, rhs)]
    det_degree = min(
        sum(max(0, max(a.degree for a in row[:n])) for row in cleared),
        sum(max(0, max(row[j].degree for row in cleared)) for j in range(n)),
    )
    det_bound = prod(sum(sum(map(abs, a.coeffs)) for a in row[:n]) for row in cleared)
    rng = random.Random(_POINT_SEED)
    vanishing, confirm, start = 1, 1, 2
    modulus, residues, shape, last = 1, None, None, None
    for p in map(_prime, count()):
        rows = [[[c % p for c in a.coeffs] for a in row] for row in cleared]
        images = _images_mod(rows, p, rng, start, confirm, det_degree)
        if images is None:
            vanishing *= p
            if vanishing > det_bound:
                raise SingularMatrixError("singular system")
            continue
        image_shape = [(len(num), len(den)) for num, den in images]
        if image_shape != shape:
            # an unlucky prime loses degree: keep the images of higher total degree
            if shape is not None and sum(map(sum, image_shape)) < sum(map(sum, shape)):
                continue
            modulus, residues, shape, last = 1, None, image_shape, None
        residues = images if residues is None else _crt(residues, modulus, images, p)
        modulus *= p
        start = max(2, *(a + b for a, b in shape))
        lift = _lift(residues, modulus)
        if lift is not None:
            x = [_as_ratfunc(num, den) for num, den in lift]
            if _satisfies(cleared, x):
                return x
            if lift == last:
                confirm += 1
                modulus, residues, shape, last = 1, None, None, None
                continue
        last = lift
