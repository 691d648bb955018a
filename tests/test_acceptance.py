"""Acceptance gate for the weighted-contraction scheme.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s, and implicit in the test outcome).  Everything is computed in
the run: the order-4 weight tables come from loop-equation trace
moments and the Gram products, up to the degree-18 stretch case, by
invariance, each in under a second.  The Monte Carlo check of criterion 7
is the slowest test, at 3-4 s: each of its 6 x 10^6 samples draws
only the one or two columns of U its monomial reads.

Criterion list:
 1  exact reproduction of the published coefficient tables
 2  weighted integrals of entry products are exactly the delta product
    within the weight's range (kappa <= 3, every ensemble)
 3  beyond the range the deviation decays at least like N^-(floor(kappa/2)+1)
    (stretch case: order-4 weight at degree 18)
 4  the measured decay exponent does not depend on the monomial degree
 5  connected parts of k blocks decay at least like N^-(k-1)
 6  weighted connected parts decay at least like N^-floor((k+1)/2)
 7  Monte Carlo concordance at 5 standard errors, 10^6 samples, N=8
 8  closed-form spot checks at N=2 against the independent circle oracle
 9  Gram matrices are positive definite at N=10 (exact pivot signs)
"""

from fractions import Fraction

import pytest

from helpers import circle_cos_sin_moment, delta_product_target, min_order
from wickweights import Ensemble, MonomialSpec, connected_entry_moment
from wickweights.algebra import N, Poly, RatFunc
from wickweights.integrate import (
    error_order,
    integrate_gram_product,
    integrate_monomial,
    weighted_connected_order,
)
from wickweights.sampling import cross_check
from wickweights.weights import build_gram_system, solve_weight

ONE = Poly((1,))


def report(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def weights():
    out = {}
    for ens, kappas in (
        (Ensemble.ORTHOGONAL, (1, 2, 3, 4)),
        (Ensemble.UNITARY, (1, 2, 3, 4)),
        (Ensemble.COE, (1, 2, 3)),
    ):
        for kappa in kappas:
            out[ens, kappa] = solve_weight(ens, kappa)
    return out


def _orthogonal_tables():
    d2 = (N - 1) * (N + 2)
    d3 = (N - 2) * (N - 1) * (N + 2) * (N + 4)
    d4 = (N - 3) * (N - 2) * (N - 1) * (N + 1) * (N + 2) * (N + 4) * (N + 6)
    table2 = {
        (): RatFunc(4 - N**2, Poly((4,))),
        (1,): RatFunc(N, Poly((2,))),
        (2,): RatFunc(-(N**3), 4 * d2),
        (1, 1): RatFunc(N**2, 4 * d2),
    }
    table3 = {
        (): RatFunc(12 - 7 * N**2, Poly((12,))),
        (1,): RatFunc(3 * N, Poly((2,))),
        (2,): RatFunc(-5 * N**3, 4 * d2),
        (1, 1): RatFunc(5 * N**2, 4 * d2),
        (3,): RatFunc(N**5, 3 * d3),
        (2, 1): RatFunc(-(N**4), d3),
        (1, 1, 1): RatFunc(2 * N**3, 3 * d3),
    }
    table4 = {
        (): RatFunc(96 - 92 * N**2 + 3 * N**4, Poly((96,))),
        (1,): RatFunc(24 * N - N**3, Poly((8,))),
        (2,): RatFunc(-60 * N**3 + N**5, 16 * d2),
        (1, 1): RatFunc(56 * N**2 + 2 * N**3 + N**4, 16 * d2),
        (3,): RatFunc(7 * N**5, 3 * d3),
        (2, 1): RatFunc(-48 * N**4 - 2 * N**5 - N**6, 8 * d3),
        (1, 1, 1): RatFunc(88 * N**3 + 6 * N**4 + 3 * N**5, 24 * d3),
        (4,): RatFunc(-(N**7) * (5 * N + 6), 8 * d4),
        (3, 1): RatFunc(N**6 * (5 * N + 6), 2 * d4),
        (2, 2): RatFunc(N**7 * (N**2 + 5 * N + 18), 32 * d4),
        (2, 1, 1): RatFunc(-(N**5) * (N**3 + 5 * N**2 + 78 * N + 72), 16 * d4),
        (1, 1, 1, 1): RatFunc(N**4 * (N**3 + 5 * N**2 + 78 * N + 72), 32 * d4),
    }
    return {2: table2, 3: table3, 4: table4}


def _unitary_tables():
    d2 = (N - 1) * (N + 1)
    d3 = (N - 2) * (N - 1) * (N + 1) * (N + 2)
    d4 = (N - 3) * (N - 2) * (N - 1) * (N + 1) * (N + 2) * (N + 3)
    table2 = {
        (): RatFunc(2 - N**2, Poly((2,))),
        (1,): RatFunc(N),
        (2,): RatFunc(-(N**3), 2 * d2),
        (1, 1): RatFunc(N**2, 2 * d2),
    }
    table4 = {
        (): RatFunc(24 - 46 * N**2 + 3 * N**4, Poly((24,))),
        (1,): RatFunc(-N * (N**2 - 12), Poly((2,))),
        (2,): RatFunc(N**3 * (N**2 - 30), 4 * d2),
        (1, 1): RatFunc(N**2 * (N**2 + 28), 4 * d2),
        (3,): RatFunc(14 * N**5, 3 * d3),
        (2, 1): RatFunc(-(N**4) * (N**2 + 24), 2 * d3),
        (1, 1, 1): RatFunc(N**3 * (3 * N**2 + 44), 6 * d3),
        (4,): RatFunc(-5 * N**7, 4 * d4),
        (3, 1): RatFunc(5 * N**6, d4),
        (2, 2): RatFunc(N**6 * (N**2 + 6), 8 * d4),
        (2, 1, 1): RatFunc(-(N**5) * (N**2 + 36), 4 * d4),
        (1, 1, 1, 1): RatFunc(N**4 * (N**2 + 36), 8 * d4),
    }
    return {2: table2, 4: table4}


def _coe_table2():
    d = N * (N + 3)
    return {
        (): RatFunc(4 * ONE - N * (N + 1), Poly((4,))),
        (1,): RatFunc(N + 1, Poly((2,))),
        (2,): RatFunc(-((N + 1) ** 3), 4 * d),
        (1, 1): RatFunc((N + 1) ** 2, 4 * d),
    }


def test_criterion_1_coefficient_tables(weights):
    checks = []
    for kappa, table in _orthogonal_tables().items():
        w = weights[Ensemble.ORTHOGONAL, kappa]
        checks.append((f"orthogonal kappa={kappa}", all(w.coefficient(p) == v for p, v in table.items())))
    for kappa, table in _unitary_tables().items():
        w = weights[Ensemble.UNITARY, kappa]
        checks.append((f"unitary kappa={kappa}", all(w.coefficient(p) == v for p, v in table.items())))
    w = weights[Ensemble.COE, 2]
    checks.append(("coe kappa=2", all(w.coefficient(p) == v for p, v in _coe_table2().items())))
    bad = [name for name, ok in checks if not ok]
    report(1, not bad, f"coefficient tables reproduced exactly ({len(checks)} tables)"
           + (f"; mismatched: {bad}" if bad else ""))


def test_criterion_2_exactness_suite(weights):
    failures = []
    for ens in (Ensemble.ORTHOGONAL, Ensemble.UNITARY, Ensemble.COE):
        for kappa in (1, 2, 3):
            w = weights[ens, kappa]
            for k in range(1, kappa + 1):
                if integrate_gram_product(w, k) != delta_product_target(k):
                    failures.append((ens.value, kappa, k))
    report(2, not failures, "entry-product integrals exact for all k <= kappa <= 3, all ensembles"
           + (f"; failed: {failures}" if failures else ""))


def test_criterion_3_error_order_bounds(weights):
    betas = {
        ("orthogonal", 2, 3): error_order(weights[Ensemble.ORTHOGONAL, 2], 3),
        ("orthogonal", 3, 4): error_order(weights[Ensemble.ORTHOGONAL, 3], 4),
        ("unitary", 2, 3): error_order(weights[Ensemble.UNITARY, 2], 3),
    }
    ok = all(b is not None and b >= 2 for b in betas.values())
    report(3, ok, f"deviation orders beyond the exact range: {betas} (bound 2)")


def test_criterion_3_stretch_degree_18(weights):
    beta = error_order(weights[Ensemble.ORTHOGONAL, 4], 5)
    ok = beta is not None and beta >= 3
    report(3, ok, f"stretch: orthogonal kappa=4, degree 18, observed beta={beta} (bound 3)")


def test_criterion_4_degree_independence(weights):
    w = weights[Ensemble.ORTHOGONAL, 2]
    b3 = error_order(w, 3)
    b4 = error_order(w, 4)
    report(4, b3 == b4, f"orthogonal kappa=2: beta(k=3)={b3} equals beta(k=4)={b4}")


def test_criterion_5_connected_scaling():
    observed = {}
    ok = True
    for ens in (Ensemble.ORTHOGONAL, Ensemble.UNITARY, Ensemble.COE):
        for k in (2, 3, 4, 5):
            order = min_order(connected_entry_moment(ens, k))
            observed[ens.value, k] = order
            ok = ok and order is not None and order >= k - 1
    report(5, ok, f"connected-part orders (bound k-1): {observed}")


def test_criterion_6_weighted_connected_scaling(weights):
    observed = {}
    ok = True
    for ens in (Ensemble.ORTHOGONAL, Ensemble.UNITARY):
        for kappa in (2, 3, 4):
            w = weights[ens, kappa]
            for k in range(2, kappa + 1):
                order = weighted_connected_order(w, k)
                bound = (k + 1) // 2
                observed[ens.value, kappa, k] = order
                ok = ok and order is not None and order >= bound
    report(6, ok, f"weighted connected orders (bound floor((k+1)/2)): {observed}")


def test_criterion_7_monte_carlo_concordance(weights):
    n, samples = 8, 1_000_000
    cases = [
        (Ensemble.ORTHOGONAL, "M[1,1] M[1,1]", 101),
        (Ensemble.ORTHOGONAL, "M[1,1] M[1,1] M[1,1] M[1,1]", 102),
        (Ensemble.ORTHOGONAL, "M[1,1] M[1,1] M[1,2] M[1,2]", 103),
        (Ensemble.UNITARY, "M[1,1] Mc[1,1]", 104),
        (Ensemble.UNITARY, "M[1,1] Mc[1,1] M[1,1] Mc[1,1]", 105),
        (Ensemble.COE, "M[1,2] Mc[1,2]", 106),
    ]
    rows = []
    ok = True
    for ens, text, seed in cases:
        monomial = MonomialSpec.parse(text)
        symbolic = integrate_monomial(weights[ens, 2], monomial).as_ratfunc()
        rep = cross_check(symbolic, ens, monomial, n, samples, seed)
        rows.append((ens.value, text, float(rep.exact), round(rep.z, 2), rep.passed))
        ok = ok and rep.passed
    report(7, ok, f"Monte Carlo at N={n}, {samples} samples, 5 standard errors: {rows}")


def test_criterion_8_closed_form_spot_checks(weights):
    w = weights[Ensemble.ORTHOGONAL, 2]
    # independent oracle: O(2) entries are (cos, sin) rows, so the integrals
    # reduce to circle moments
    want_quartic = circle_cos_sin_moment(4, 0)
    want_mixed = circle_cos_sin_moment(2, 2)
    got_quartic = integrate_monomial(w, MonomialSpec.parse("M[1,1] M[1,1] M[1,1] M[1,1]")).as_ratfunc().eval(2)
    got_mixed = integrate_monomial(w, MonomialSpec.parse("M[1,1] M[1,1] M[1,2] M[1,2]")).as_ratfunc().eval(2)
    ok = got_quartic == want_quartic == Fraction(3, 8) and got_mixed == want_mixed == Fraction(1, 8)
    report(8, ok, f"N=2 values: quartic {got_quartic} (oracle {want_quartic}), "
                  f"mixed {got_mixed} (oracle {want_mixed})")


def _pivots_positive(matrix, n_value: int) -> bool:
    # exact elimination without row swaps: pivot signs are the signs of the
    # ratios of consecutive leading principal minors
    vals = [[Fraction(e.eval(n_value)) for e in row] for row in matrix]
    size = len(vals)
    for col in range(size):
        if vals[col][col] <= 0:
            return False
        for r in range(col + 1, size):
            f = vals[r][col] / vals[col][col]
            for c in range(col, size):
                vals[r][c] -= f * vals[col][c]
    return True


def test_criterion_9_gram_positive_definite():
    results = {}
    ok = True
    for ens in (Ensemble.ORTHOGONAL, Ensemble.UNITARY, Ensemble.COE):
        for kappa in (1, 2, 3, 4):
            good = _pivots_positive(build_gram_system(ens, kappa).matrix, 10)
            results[ens.value, kappa] = good
            ok = ok and good
    report(9, ok, f"Gram matrices positive definite at N=10 for kappa <= 4: {results}")
