"""Exact arithmetic in the symbolic matrix dimension N.

Two value types live here:

``Poly``
    A univariate polynomial in N with arbitrary-precision integer
    coefficients, stored ascending by degree.  The zero polynomial is the
    empty coefficient tuple; a nonzero polynomial never has a trailing zero
    coefficient, so each polynomial has exactly one representation.

``RatFunc``
    A quotient of two such polynomials, reduced so that

      * numerator and denominator share no polynomial factor over Q,
      * no integer > 1 divides every coefficient of both, and
      * the denominator's leading coefficient is positive.

    This makes the representation unique, so symbolic results can be
    compared with ``==`` instead of ad-hoc simplification.

Every operation is exact; nothing in this module touches floating point.
Every ratio is reduced one way.  A ``RatFunc`` keeps the linear factors
N + r known to divide its denominator, and sums, products and quotients
pass them on; nearly every denominator the engine forms is a constant
times such factors.  The numerator is divided by N + r while -r is a root
of it, and one integer content ends the reduction; ``poly_gcd`` is
reached only by a cofactor of positive degree left beside those factors,
like a hand-made coefficient over N^2 + 1.  It runs Euclid modulo 61-bit
primes, joins the images by the Chinese remainder theorem and returns a
lift only once it divides both arguments exactly.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd, isqrt, lcm, prod
from operator import index, mul
from typing import Iterable, Sequence


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a zero of its denominator."""

    def __init__(self, factor: str, at: Fraction):
        super().__init__(f"evaluation at a pole: denominator factor {factor} vanishes at N = {at}")
        self.factor = factor
        self.at = at


class SingularMatrixError(ArithmeticError):
    """Raised for an identically singular linear system."""


def _trim(a: list[int]) -> list[int]:
    """a without its trailing zeros, in place."""
    while a and a[-1] == 0:
        a.pop()
    return a


class Poly:
    """Integer-coefficient polynomial in N, ascending coefficient order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        # index() refuses a Fraction or a float instead of truncating it
        self.coeffs = tuple(_trim([index(c) for c in coeffs]))

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Poly((other,))
        elif not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # a constant equals its int, so it hashes as one
        return hash(self.coeffs) if self.degree > 0 else hash(self.lc)

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        return gcd(*self.coeffs)

    # -- ring arithmetic ---------------------------------------------------------

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, int):
                return NotImplemented
            other = Poly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other) -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, int):
                return NotImplemented
            other = Poly((other,))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "Poly":
        return Poly((other,)) - self

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divexact(self, other: "Poly") -> "Poly":
        """Exact quotient self / other; raises if the division is not exact."""
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return Poly()
        rem = list(self.coeffs)
        d = other.degree
        lcd = other.lc
        qdeg = len(rem) - 1 - d
        if qdeg < 0:
            raise ValueError("inexact polynomial division")
        q = [0] * (qdeg + 1)
        for i in range(qdeg, -1, -1):
            c = rem[i + d]
            if c % lcd:
                raise ValueError("inexact polynomial division")
            qc = c // lcd
            q[i] = qc
            if qc:
                for j, oc in enumerate(other.coeffs):
                    rem[i + j] -= qc * oc
        if any(rem):
            raise ValueError("inexact polynomial division")
        return Poly(q)

    # -- evaluation and formatting ----------------------------------------------

    def eval(self, x) -> Fraction:
        """Exact value at a rational point (Horner)."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            elif k == 1:
                term = "N" if mag == 1 else f"{mag}*N"
            else:
                term = f"N^{k}" if mag == 1 else f"{mag}*N^{k}"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


#: The indeterminate N.
N = Poly((0, 1))

_ZERO = Poly()
_ONE = Poly((1,))
#: No known factors; shared, so never mutated.
_NO_FACTORS: Counter = Counter()


def linear_product(roots: Iterable[int], shift: int = 0) -> Poly:
    """prod over the roots r, repeated by multiplicity, of (N + shift + r).
    Each factor turns the coefficients e_i into (shift + r) e_i + e_(i-1)."""
    coeffs = [1]
    for r in roots:
        coeffs = [(shift + r) * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return Poly(coeffs)


def _primitive(a: Poly) -> Poly:
    """a over the gcd of its coefficients, signed to a positive leading coefficient."""
    c = a.content() * (1 if a.lc > 0 else -1)
    return a if c in (0, 1) else Poly(x // c for x in a.coeffs)


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


def _as_poly(x) -> Poly:
    return x if isinstance(x, Poly) else Poly((x,))  # index() refuses what is not an int


def _cofactor(den: Poly, factors: Counter) -> Poly:
    """den over the product of the linear factors {r: e} known to divide it."""
    if den.degree == factors.total():
        return Poly((den.lc,))
    return den.divexact(linear_product(factors.elements())) if factors else den


class RatFunc:
    """Reduced ratio of two integer polynomials in N.  Immutable.

    factors holds linear factors {r: e} known to divide den, so that den is
    prod (N + r)^e times a cofactor: a constant when den splits over them,
    a polynomial with no factor known otherwise.  == and hash ignore it.
    """

    __slots__ = ("num", "den", "factors")

    def __new__(cls, num=0, den=1):
        return RatFunc._over(_as_poly(num), _as_poly(den), _NO_FACTORS)

    @staticmethod
    def _over(num: Poly, cof: Poly, factors: Counter) -> "RatFunc":
        """num / (cof prod (N + r)^e) over the factors {r: e}, in lowest terms.

        poly_gcd takes what num shares with cof, only when cof has positive degree.  Every other
        common factor is one of the N + r, so num is then divided by N + r while -r is a root
        of it (Horner), at most e times, and one integer content, signed by cof, leaves the
        coprime pair with a positive leading coefficient.
        """
        if not cof:
            raise ZeroDivisionError("division by zero polynomial")
        out = object.__new__(RatFunc)
        if not num:
            out.num, out.den, out.factors = _ZERO, _ONE, _NO_FACTORS
            return out
        if cof.degree > 0:
            g = poly_gcd(num, cof)
            if g != _ONE:
                num, cof = num.divexact(g), cof.divexact(g)
        coeffs, left = num.coeffs, _NO_FACTORS
        if factors:
            coeffs, left = list(coeffs), Counter()
            for r, e in factors.items():
                while e:  # Horner at N = -r: the quotient by N + r, descending, then the remainder
                    q = [coeffs[-1]]
                    for c in coeffs[-2::-1]:
                        q.append(c - r * q[-1])
                    if q.pop():
                        break
                    coeffs, e = q[::-1], e - 1
                if e:
                    left[r] = e
        c = gcd(*coeffs, *cof.coeffs) * (1 if cof.lc > 0 else -1)
        if c != 1:
            coeffs, cof = [x // c for x in coeffs], Poly([x // c for x in cof.coeffs])
        out.num = Poly(coeffs) if factors or c != 1 else num
        out.den, out.factors = linear_product(left.elements()) * cof if left else cof, left
        return out

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def factored(num: Poly, den: Poly, factors: Counter, more: Iterable[int] = ()) -> "RatFunc":
        """num / (den prod over the roots r in more of (N + r)), for linear factors {r: e} known
        to divide den.  When they are all of den's factors, the reduction takes no gcd."""
        return RatFunc._over(num, _cofactor(den, factors), factors + Counter(more))

    # -- queries -----------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Poly)):
            other = RatFunc(other)
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # a ratio over 1 equals its numerator, so it hashes as one
        return hash(self.num) if self.den == _ONE else hash((self.num, self.den))

    def order(self) -> int | None:
        """Decay exponent beta with self = Theta(N^-beta); None for the zero function."""
        if not self.num:
            return None
        return self.den.degree - self.num.degree

    # -- field arithmetic -----------------------------------------------------------

    def _over_both(self, other: "RatFunc", num: Poly) -> "RatFunc":
        """num over the product of both denominators, which both factor maps are known to divide."""
        return RatFunc._over(num, _cofactor(self.den, self.factors) * _cofactor(other.den, other.factors),
                             self.factors + other.factors)

    def __neg__(self) -> "RatFunc":
        return RatFunc._over(-self.num, _cofactor(self.den, self.factors), self.factors)

    def __add__(self, other) -> "RatFunc":
        other = other if isinstance(other, RatFunc) else RatFunc(other)
        return self._over_both(other, self.num * other.den + other.num * self.den)

    def __sub__(self, other) -> "RatFunc":
        other = other if isinstance(other, RatFunc) else RatFunc(other)
        return self._over_both(other, self.num * other.den - other.num * self.den)

    def __mul__(self, other) -> "RatFunc":
        other = other if isinstance(other, RatFunc) else RatFunc(other)
        return self._over_both(other, self.num * other.num)

    def __truediv__(self, other) -> "RatFunc":
        other = other if isinstance(other, RatFunc) else RatFunc(other)
        if not other.num:
            raise ZeroDivisionError("division by the zero rational function")
        # only the dividend's factors are known to divide self.den * other.num
        return RatFunc._over(self.num * other.den, _cofactor(self.den, self.factors) * other.num, self.factors)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "RatFunc":
        return RatFunc(other) - self

    def __rtruediv__(self, other) -> "RatFunc":
        return RatFunc(other) / self

    # -- evaluation, serialization, formatting -----------------------------------------

    def eval(self, n) -> Fraction:
        """Exact value at N = n; raises PoleError naming the vanishing factor."""
        n = Fraction(n)
        dv = self.den.eval(n)
        if dv == 0:
            if n.denominator == 1:
                v = n.numerator
                factor = "N" if v == 0 else (f"N - {v}" if v > 0 else f"N + {-v}")
            else:
                factor = f"N - {n}"
            raise PoleError(factor, n)
        return self.num.eval(n) / dv

    def to_json(self) -> dict:
        return {
            "num": [str(c) for c in self.num.coeffs],
            "den": [str(c) for c in self.den.coeffs],
        }

    def __str__(self) -> str:
        if self.den == _ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def clear_denominators(fs: Sequence[RatFunc]) -> tuple[Poly, list[Poly], Counter]:
    """A common denominator of fs, each numerator over it, and the linear factors {r: e} known
    to divide it.  It is the larger exponent per known r times the lcm of the cofactors beside
    them: of their integer contents, and by poly_gcd of their primitive parts of positive
    degree.  That is the least common multiple unless a cofactor holds a known N + r.  Each
    distinct denominator is split, and its numerators' multiplier formed, once."""
    top: Counter = Counter()
    for f in fs:
        top |= f.factors
    split = {f.den: (f.factors, _cofactor(f.den, f.factors)) for f in fs}
    common = _ONE
    for c in dict.fromkeys(_primitive(c) for _, c in split.values() if c.degree > 0):
        common = c if common == _ONE else common * c.divexact(poly_gcd(common, c))
    common = common * lcm(*(c.content() for _, c in split.values()))
    over = {den: linear_product((top - known).elements()) * common.divexact(c) for den, (known, c) in split.items()}
    return linear_product(top.elements()) * common, [f.num * over[f.den] for f in fs], top


def scaled_sum(terms: Iterable[tuple[int | Fraction, Poly]]) -> tuple[Poly, int]:
    """sum of q * f over the terms (q, f), as an integer polynomial and the denominator it is over.
    The coefficients add up in one list of ints."""
    terms = list(terms)
    scale = lcm(*(q.denominator for q, _ in terms))
    out: list[int] = []
    for q, f in terms:
        c = q.numerator * (scale // q.denominator)
        out.extend([0] * (len(f.coeffs) - len(out)))
        for i, x in enumerate(f.coeffs):
            out[i] += c * x
    return Poly(out), scale


def linear_combination(terms: Iterable[tuple[int | Fraction, RatFunc]]) -> RatFunc:
    """sum of q * f over the terms (q, f), over one common denominator and
    reduced once, where a running sum would take a gcd at every step."""
    terms = list(terms)
    den, nums, factors = clear_denominators([f for _, f in terms])
    num, scale = scaled_sum((q, n) for (q, _), n in zip(terms, nums))
    return RatFunc.factored(num, den * scale, factors)


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
