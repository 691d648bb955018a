"""The loop-equation reference against the program's Wick sums.

    python3 -m pytest perfbench/test_reference.py

Run from the root of a source checkout.  Compares every closed trace moment
up to total degree 12 (every multiset of trace powers summing to at most 6)
in all three ensembles, and a few Gram-level facts the benchmark relies on.
"""

import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as ref  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def empty_cache_dir():
    with tempfile.TemporaryDirectory() as path:
        old = os.environ.get("WICKWEIGHTS_CACHE_DIR")
        os.environ["WICKWEIGHTS_CACHE_DIR"] = path
        yield
        if old is None:
            del os.environ["WICKWEIGHTS_CACHE_DIR"]
        else:
            os.environ["WICKWEIGHTS_CACHE_DIR"] = old


@pytest.mark.parametrize("ensemble", ref.ENSEMBLES)
def test_loop_equation_matches_wick_sums_to_degree_12(ensemble):
    from wickweights.wick import Ensemble, gaussian_trace_moment

    moments = ref.LoopMoments(ensemble)
    checked = 0
    for powers in ref.partitions(6)[1:]:
        got = gaussian_trace_moment(Ensemble(ensemble), [powers], use_disk=False)
        num, den = moments.moment(powers)
        assert ref.same_ratio(num, den, list(got.num.coeffs), list(got.den.coeffs)), powers
        checked += 1
    assert checked == 29


def test_low_order_closed_forms():
    # <tr W> = N in every ensemble; orthogonal <tr W^3> = 5N + 6 + 4/N
    for ensemble in ref.ENSEMBLES:
        num, den = ref.LoopMoments(ensemble).moment((1,))
        assert ref.ratio_eval(num, den, 7) == 7
    num, den = ref.LoopMoments("orthogonal").moment((3,))
    assert ref.ratio_eval(num, den, 5) == 5 * 5 + 6 + Fraction(4, 5)


def test_published_tables_solve_the_reference_systems():
    for (ensemble, kappa), table in ref.PUBLISHED.items():
        parts, matrix, rhs = ref.LoopMoments(ensemble).gram(kappa)
        for n in (23, 29, 31):
            values, b = ref.eval_system(matrix, rhs, n)
            coeffs = table(Fraction(n))
            assert ref.residual_is_zero(values, b, [coeffs[p] for p in parts]), (ensemble, kappa, n)


def test_pivot_check_rejects_an_indefinite_matrix():
    assert ref.pivots_positive([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]])
    assert not ref.pivots_positive([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])


def test_closed_forms_at_small_n():
    # U(1) entries are unit-modulus phases; O(1) entries are +-1
    assert ref.CLOSED_FORMS["unitary", "M[1,1] Mc[1,1] M[1,1] Mc[1,1] M[1,1] Mc[1,1]"](Fraction(1)) == 1
    assert ref.CLOSED_FORMS["orthogonal", "M[1,1] M[1,1] M[1,1] M[1,1]"](Fraction(1)) == 1
    # the COE at N=1 is a single phase
    assert ref.CLOSED_FORMS["coe", "M[1,1] Mc[1,1] M[1,1] Mc[1,1]"](Fraction(1)) == 1
