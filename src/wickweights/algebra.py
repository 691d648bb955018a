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
``solve_linear_system`` does fraction-free (Bareiss) elimination so the
intermediate entries stay polynomial instead of ballooning into nested
fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a zero of its denominator."""

    def __init__(self, factor: str, at: Fraction):
        super().__init__(f"evaluation at a pole: denominator factor {factor} vanishes at N = {at}")
        self.factor = factor
        self.at = at


class SingularMatrixError(ArithmeticError):
    """Raised for an identically singular linear system."""


def _strip(coeffs: Sequence[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class Poly:
    """Integer-coefficient polynomial in N, ascending coefficient order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs = _strip(tuple(int(c) for c in coeffs))

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def const(c: int) -> "Poly":
        return Poly((c,))

    @staticmethod
    def n_power(k: int, coeff: int = 1) -> "Poly":
        """The monomial coeff * N^k."""
        if coeff == 0:
            return Poly()
        return Poly((0,) * k + (coeff,))

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
            other = Poly.const(other)
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    # -- ring arithmetic ---------------------------------------------------------

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "Poly":
        if isinstance(other, int):
            other = Poly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other) -> "Poly":
        if isinstance(other, int):
            other = Poly.const(other)
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            other = Poly.const(other)
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
        return Poly.const(other) - self

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Poly.const(1)
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


def _pseudo_rem(a: Poly, b: Poly) -> Poly:
    """Pseudo-remainder of a by b: lc(b)^(deg a - deg b + 1) * a mod b."""
    rem = list(a.coeffs)
    d = b.degree
    lcb = b.lc
    while len(rem) - 1 >= d and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < d:
            break
        top = rem[-1]
        shift = len(rem) - 1 - d
        rem = [c * lcb for c in rem]
        for j, oc in enumerate(b.coeffs):
            rem[shift + j] -= top * oc
        rem.pop()
    return Poly(rem)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd over Q with positive leading coefficient (primitive PRS)."""
    if not a:
        a, b = b, a
    if not b:
        if not a:
            return Poly()
        g = a.content()
        p = a.divexact(Poly.const(g if a.lc > 0 else -g))
        return p
    a = a.divexact(Poly.const(a.content() * (1 if a.lc > 0 else -1)))
    b = b.divexact(Poly.const(b.content() * (1 if b.lc > 0 else -1)))
    if a.degree < b.degree:
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, r
        if b:
            b = b.divexact(Poly.const(b.content() * (1 if b.lc > 0 else -1)))
    if a.lc < 0:
        a = -a
    return a


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, int):
        return Poly.const(x)
    raise TypeError(f"cannot interpret {x!r} as a polynomial in N")


class RatFunc:
    """Reduced ratio of two integer polynomials in N.  Immutable."""

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        if isinstance(num, Fraction):
            if den != 1:
                raise ValueError("Fraction numerator requires unit denominator argument")
            num, den = Poly.const(num.numerator), Poly.const(num.denominator)
        num = _as_poly(num)
        den = _as_poly(den)
        if not den:
            raise ZeroDivisionError("division by zero polynomial")
        if not num:
            self.num, self.den = _ZERO, _ONE
            return
        g = poly_gcd(num, den)
        if g.degree > 0 or g.lc != 1:
            num = num.divexact(g)
            den = den.divexact(g)
        c = gcd(num.content(), den.content())
        if den.lc < 0:
            c = -c
        if c != 1:
            num = num.divexact(Poly.const(c))
            den = den.divexact(Poly.const(c))
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def n_power(k: int, coeff: int = 1) -> "RatFunc":
        """coeff * N^k for any integer k (negative k puts the power below)."""
        if k >= 0:
            return RatFunc(Poly.n_power(k, coeff))
        return RatFunc(Poly.const(coeff), Poly.n_power(-k))

    @staticmethod
    def from_fraction(q: Fraction) -> "RatFunc":
        return RatFunc(Poly.const(q.numerator), Poly.const(q.denominator))

    # -- queries -----------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Poly)):
            other = RatFunc(other)
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def order(self) -> int | None:
        """Decay exponent beta with self = Theta(N^-beta); None for the zero function."""
        if not self.num:
            return None
        return self.den.degree - self.num.degree

    # -- field arithmetic -----------------------------------------------------------

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __add__(self, other) -> "RatFunc":
        if isinstance(other, (int, Poly)):
            other = RatFunc(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other) -> "RatFunc":
        if isinstance(other, (int, Poly)):
            other = RatFunc(other)
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other) -> "RatFunc":
        if isinstance(other, (int, Poly)):
            other = RatFunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other) -> "RatFunc":
        if isinstance(other, (int, Poly)):
            other = RatFunc(other)
        if not other.num:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

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

    @staticmethod
    def from_json(obj: dict) -> "RatFunc":
        return RatFunc(Poly(int(c) for c in obj["num"]), Poly(int(c) for c in obj["den"]))

    def __str__(self) -> str:
        if self.den == _ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def _clear_row(row: Sequence[RatFunc], rhs: RatFunc) -> tuple[list[Poly], Poly]:
    den = _ONE
    for e in list(row) + [rhs]:
        g = poly_gcd(den, e.den)
        den = den.divexact(g) * e.den
    cleared = [e.num * den.divexact(e.den) for e in row]
    return cleared, rhs.num * den.divexact(rhs.den)


def solve_linear_system(matrix: Sequence[Sequence[RatFunc]], rhs: Sequence[RatFunc]) -> list[RatFunc]:
    """Exact solution of a square nonsingular system over the rational functions.

    Rows are first scaled to integer-polynomial form, then reduced by
    fraction-free Bareiss elimination (row swaps allowed; every interior
    division is exact), and finally back-substituted with rational-function
    arithmetic.  Raises SingularMatrixError if the matrix is identically
    singular.
    """
    n = len(matrix)
    if n == 0:
        return []
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("matrix must be square and match the right-hand side")
    aug: list[list[Poly]] = []
    for row, b in zip(matrix, rhs):
        cleared, cb = _clear_row(row, b)
        aug.append(cleared + [cb])

    prev = _ONE
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col]:
                if piv is None or aug[r][col].degree < aug[piv][col].degree:
                    piv = r
        if piv is None:
            raise SingularMatrixError("singular system")
        if piv != col:
            aug[piv], aug[col] = aug[col], aug[piv]
        p = aug[col][col]
        for r in range(col + 1, n):
            head = aug[r][col]
            for c in range(col, n + 1):
                aug[r][c] = (p * aug[r][c] - head * aug[col][c]).divexact(prev)
        prev = p

    x: list[RatFunc] = [RatFunc() for _ in range(n)]
    for i in range(n - 1, -1, -1):
        acc = RatFunc(aug[i][n])
        for j in range(i + 1, n):
            acc = acc - RatFunc(aug[i][j]) * x[j]
        x[i] = acc / RatFunc(aug[i][i])
    return x
