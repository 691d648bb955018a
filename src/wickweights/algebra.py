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
of it, and one integer content ends the reduction; ``modular.poly_gcd``
is reached only by a cofactor of positive degree left beside those
factors, like a hand-made coefficient over N^2 + 1.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import Iterable, Sequence


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a zero of its denominator."""

    def __init__(self, factor: str, at: Fraction):
        super().__init__(f"evaluation at a pole: denominator factor {factor} vanishes at N = {at}")
        self.factor = factor
        self.at = at


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
            from .modular import poly_gcd  # here, so that modular stays off the start-up path
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
        from .modular import poly_gcd
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


def __getattr__(name: str):
    # perfbench/ solves with algebra.solve_linear_system; the solver is imported only when asked for
    if name == "solve_linear_system":
        from .modular import solve_linear_system

        return solve_linear_system
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
