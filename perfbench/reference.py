"""Independent reference values for the benchmark's output checks.

Nothing here uses the program's RatFunc or Poly arithmetic.  Polynomials in
N are plain lists of integer coefficients, ascending; exact values at a
concrete N are fractions.Fraction.

* LoopMoments: closed Gaussian trace moments <prod_i tr W^{k_i}>, W = M M+,
  from the loop equation (Gaussian integration by parts)

      d <tr W^k R> = sum_{j<k} <tr W^j tr W^{k-1-j} R> + t_k <tr W^{k-1} R>
                     + sum_{tr W^l in R} c l <tr W^{k+l-1} (R without tr W^l)>

  with tr W^0 = N and (d, t_k, c) = (N, 0, 1) unitary, (N, k-1, 2)
  orthogonal, (N+1, k, 2) COE.  A moment of total power m is an integer
  polynomial divided by d^m; the recursion carries only that numerator.
* Fraction helpers for the solve checks: evaluation, residuals, pivots.
* The published coefficient tables and closed-form Haar/COE integrals.
"""

from __future__ import annotations

from fractions import Fraction

ENSEMBLES = ("orthogonal", "unitary", "coe")


def partitions(kappa: int) -> list[tuple[int, ...]]:
    """The empty partition plus every partition of 1..kappa, in the order
    ascending weight, then lexicographically descending."""

    def of(k: int, largest: int):
        if k == 0:
            yield ()
            return
        for first in range(min(k, largest), 0, -1):
            for rest in of(k - first, first):
                yield (first,) + rest

    out = [()]
    for k in range(1, kappa + 1):
        out.extend(of(k, k))
    return out


# -- integer polynomials in N ------------------------------------------------------


def poly_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_pow(a: list[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = poly_mul(out, a)
    return out


def poly_trim(a) -> list[int]:
    out = [int(c) for c in a]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_eval(a, n) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(a)):
        acc = acc * n + int(c)
    return acc


def ratio_eval(num, den, n) -> Fraction:
    """num(n) / den(n) from coefficient lists; raises ZeroDivisionError at a pole."""
    return poly_eval(num, n) / poly_eval(den, n)


class LoopMoments:
    """Closed trace moments of one ensemble by the loop equation, memoized on
    the sorted tuple of trace powers."""

    def __init__(self, ensemble: str):
        if ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {ensemble!r}")
        self.ensemble = ensemble
        self.d = [1, 1] if ensemble == "coe" else [0, 1]
        self.c = 1 if ensemble == "unitary" else 2
        self._memo: dict[tuple[int, ...], list[int]] = {(): [1]}

    def _t(self, k: int) -> int:
        return {"unitary": 0, "orthogonal": k - 1, "coe": k}[self.ensemble]

    def numerator(self, powers) -> list[int]:
        """d^m <prod tr W^{k_i}> as integer coefficients, m = sum of the powers."""
        key = tuple(sorted(powers, reverse=True))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if key[-1] == 0:  # tr W^0 = N
            out = [0] + self.numerator(key[:-1])
        else:
            k, rest = key[0], key[1:]
            out = []
            for j in range(k):
                out = poly_add(out, self.numerator((j, k - 1 - j) + rest))
            t = self._t(k)
            if t:
                out = poly_add(out, [t * x for x in self.numerator((k - 1,) + rest)])
            for i, l in enumerate(rest):
                term = self.numerator((k + l - 1,) + rest[:i] + rest[i + 1:])
                out = poly_add(out, [self.c * l * x for x in term])
            out = poly_trim(out)
        self._memo[key] = out
        return out

    def moment(self, powers) -> tuple[list[int], list[int]]:
        """(numerator, denominator) coefficient lists of the moment, unreduced."""
        powers = tuple(powers)
        return self.numerator(powers), poly_pow(self.d, sum(powers))

    def gram(self, kappa: int):
        """Gram matrix <I_p I_q> over partitions(kappa) as (num, den) pairs,
        with right-hand side N^(number of parts)."""
        parts = partitions(kappa)
        matrix = [[self.moment(p + q) for q in parts] for p in parts]
        rhs = [([0] * len(p) + [1], [1]) for p in parts]
        return parts, matrix, rhs


def same_ratio(num_a, den_a, num_b, den_b) -> bool:
    """num_a / den_a == num_b / den_b as rational functions (cross-multiplied)."""
    return poly_trim(poly_mul(num_a, den_b)) == poly_trim(poly_mul(num_b, den_a))


# -- Fraction checks on linear systems -------------------------------------------------


def eval_system(matrix, rhs, n):
    """Evaluate a system of (num, den) entries at N = n."""
    return ([[ratio_eval(a, b, n) for a, b in row] for row in matrix],
            [ratio_eval(a, b, n) for a, b in rhs])


def is_symmetric(values) -> bool:
    size = len(values)
    return all(values[i][j] == values[j][i] for i in range(size) for j in range(i))


def residual_is_zero(values, rhs, x) -> bool:
    return all(sum(a * b for a, b in zip(row, x)) == r for row, r in zip(values, rhs))


def pivots_positive(values) -> bool:
    """Elimination without row swaps; every pivot > 0 iff positive definite."""
    vals = [list(row) for row in values]
    size = len(vals)
    for col in range(size):
        if vals[col][col] <= 0:
            return False
        for r in range(col + 1, size):
            f = vals[r][col] / vals[col][col]
            if f:
                for c in range(col, size):
                    vals[r][c] -= f * vals[col][c]
    return True


# -- published coefficient tables, as functions of N ---------------------------------------


def _orthogonal(kappa: int, n: Fraction) -> dict:
    d2 = (n - 1) * (n + 2)
    d3 = (n - 2) * (n - 1) * (n + 2) * (n + 4)
    d4 = (n - 3) * (n - 2) * (n - 1) * (n + 1) * (n + 2) * (n + 4) * (n + 6)
    if kappa == 2:
        return {(): (4 - n**2) / 4, (1,): n / 2, (2,): -n**3 / (4 * d2), (1, 1): n**2 / (4 * d2)}
    if kappa == 3:
        return {
            (): (12 - 7 * n**2) / 12, (1,): 3 * n / 2,
            (2,): -5 * n**3 / (4 * d2), (1, 1): 5 * n**2 / (4 * d2),
            (3,): n**5 / (3 * d3), (2, 1): -n**4 / d3, (1, 1, 1): 2 * n**3 / (3 * d3),
        }
    return {
        (): (96 - 92 * n**2 + 3 * n**4) / 96, (1,): (24 * n - n**3) / 8,
        (2,): (-60 * n**3 + n**5) / (16 * d2), (1, 1): (56 * n**2 + 2 * n**3 + n**4) / (16 * d2),
        (3,): 7 * n**5 / (3 * d3), (2, 1): (-48 * n**4 - 2 * n**5 - n**6) / (8 * d3),
        (1, 1, 1): (88 * n**3 + 6 * n**4 + 3 * n**5) / (24 * d3),
        (4,): -n**7 * (5 * n + 6) / (8 * d4), (3, 1): n**6 * (5 * n + 6) / (2 * d4),
        (2, 2): n**7 * (n**2 + 5 * n + 18) / (32 * d4),
        (2, 1, 1): -n**5 * (n**3 + 5 * n**2 + 78 * n + 72) / (16 * d4),
        (1, 1, 1, 1): n**4 * (n**3 + 5 * n**2 + 78 * n + 72) / (32 * d4),
    }


def _unitary(kappa: int, n: Fraction) -> dict:
    d2 = (n - 1) * (n + 1)
    d3 = (n - 2) * (n - 1) * (n + 1) * (n + 2)
    d4 = (n - 3) * (n - 2) * (n - 1) * (n + 1) * (n + 2) * (n + 3)
    if kappa == 2:
        return {(): (2 - n**2) / 2, (1,): n, (2,): -n**3 / (2 * d2), (1, 1): n**2 / (2 * d2)}
    return {
        (): (24 - 46 * n**2 + 3 * n**4) / 24, (1,): -n * (n**2 - 12) / 2,
        (2,): n**3 * (n**2 - 30) / (4 * d2), (1, 1): n**2 * (n**2 + 28) / (4 * d2),
        (3,): 14 * n**5 / (3 * d3), (2, 1): -n**4 * (n**2 + 24) / (2 * d3),
        (1, 1, 1): n**3 * (3 * n**2 + 44) / (6 * d3),
        (4,): -5 * n**7 / (4 * d4), (3, 1): 5 * n**6 / d4,
        (2, 2): n**6 * (n**2 + 6) / (8 * d4),
        (2, 1, 1): -n**5 * (n**2 + 36) / (4 * d4), (1, 1, 1, 1): n**4 * (n**2 + 36) / (8 * d4),
    }


def _coe(kappa: int, n: Fraction) -> dict:
    d = n * (n + 3)
    return {(): (4 - n * (n + 1)) / 4, (1,): (n + 1) / 2,
            (2,): -(n + 1) ** 3 / (4 * d), (1, 1): (n + 1) ** 2 / (4 * d)}


#: (ensemble, kappa) -> function of a Fraction N giving {partition: coefficient}
PUBLISHED = {
    ("orthogonal", 2): lambda n: _orthogonal(2, n),
    ("orthogonal", 3): lambda n: _orthogonal(3, n),
    ("orthogonal", 4): lambda n: _orthogonal(4, n),
    ("unitary", 2): lambda n: _unitary(2, n),
    ("unitary", 4): lambda n: _unitary(4, n),
    ("coe", 2): lambda n: _coe(2, n),
}


# -- closed-form Haar / COE integrals -------------------------------------------------

#: (ensemble, monomial in the CLI's syntax) -> exact value as a function of N
CLOSED_FORMS = {
    ("orthogonal", "M[1,1] M[1,1]"): lambda n: Fraction(1) / n,
    ("orthogonal", "M[1,1] M[1,1] M[1,1] M[1,1]"): lambda n: Fraction(3) / (n * (n + 2)),
    ("orthogonal", "M[1,1] M[1,1] M[1,2] M[1,2]"): lambda n: Fraction(1) / (n * (n + 2)),
    ("orthogonal", "M[1,1] M[1,1] M[1,1] M[1,1] M[1,1] M[1,1]"):
        lambda n: Fraction(15) / (n * (n + 2) * (n + 4)),
    ("unitary", "M[1,1] Mc[1,1]"): lambda n: Fraction(1) / n,
    ("unitary", "M[1,1] Mc[1,1] M[1,1] Mc[1,1]"): lambda n: Fraction(2) / (n * (n + 1)),
    ("unitary", "M[1,1] Mc[1,1] M[1,1] Mc[1,1] M[1,1] Mc[1,1]"):
        lambda n: Fraction(6) / (n * (n + 1) * (n + 2)),
    ("unitary", "M[1,1] Mc[1,1] M[1,1] Mc[1,1] M[1,1] Mc[1,1] M[1,1] Mc[1,1]"):
        lambda n: Fraction(24) / (n * (n + 1) * (n + 2) * (n + 3)),
    ("coe", "M[1,1] Mc[1,1]"): lambda n: Fraction(2) / (n + 1),
    ("coe", "M[1,2] Mc[1,2]"): lambda n: Fraction(1) / (n + 1),
    ("coe", "M[1,1] Mc[1,1] M[1,1] Mc[1,1]"): lambda n: Fraction(8) / ((n + 1) * (n + 3)),
}
