import json
import pathlib
from fractions import Fraction

import pytest

from helpers import evaluate_expansion
from wickweights import DeltaExpansion, Ensemble, MonomialSpec
from wickweights.algebra import N, RatFunc
from wickweights.integrate import (
    delta_product_target,
    error_order,
    integrate_gram_product,
    integrate_monomial,
    weighted_connected_moment,
    weighted_connected_order,
    weighted_trace_average,
)
from wickweights.weights import solve_weight, unit_weight, verify_conditions
from wickweights.wick import gaussian_trace_moment


@pytest.fixture(scope="module")
def w2():
    return solve_weight(Ensemble.ORTHOGONAL, 2)


@pytest.fixture(scope="module")
def w3():
    return solve_weight(Ensemble.ORTHOGONAL, 3)


def test_integrate_sign_odd_pattern(w2):
    # one factor per column index: no pairing can match the deltas
    m = MonomialSpec.parse("M[1,1] M[1,2]")
    assert not integrate_monomial(w2, m)


def test_integrate_degree_two(w2):
    m = MonomialSpec.parse("M[1,1] M[1,1]")
    assert integrate_monomial(w2, m).as_ratfunc() == RatFunc(1, N)


def test_integrate_fourth_moments(w2):
    quart = integrate_monomial(w2, MonomialSpec.parse("M[1,1] M[1,1] M[1,1] M[1,1]"))
    assert quart.as_ratfunc() == RatFunc(3, N * (N + 2))
    mixed = integrate_monomial(w2, MonomialSpec.parse("M[1,1] M[1,1] M[1,2] M[1,2]"))
    assert mixed.as_ratfunc() == RatFunc(1, N * (N + 2))
    # closed-form spot values at the smallest dimension
    assert quart.as_ratfunc().eval(2) == Fraction(3, 8)
    assert mixed.as_ratfunc().eval(2) == Fraction(1, 8)


def test_integrate_unitary_fourth_moment():
    w = solve_weight(Ensemble.UNITARY, 2)
    m = MonomialSpec.parse("M[1,1] Mc[1,1] M[1,1] Mc[1,1]")
    val = integrate_monomial(w, m).as_ratfunc()
    assert val == RatFunc(2, N * (N + 1))
    assert val.eval(1) == 1  # a 1x1 unitary entry is unimodular


def test_integrate_coe_second_moment():
    w = solve_weight(Ensemble.COE, 2)
    off = integrate_monomial(w, MonomialSpec.parse("M[1,2] Mc[1,2]")).as_ratfunc()
    diag = integrate_monomial(w, MonomialSpec.parse("M[1,1] Mc[1,1]")).as_ratfunc()
    assert off == RatFunc(1, N + 1)
    assert diag == RatFunc(2, N + 1)


def test_integrate_rejects_conjugation_for_real(w2):
    with pytest.raises(ValueError):
        integrate_monomial(w2, MonomialSpec.parse("M[1,1] Mc[1,1]"))


def test_row_column_relabeling_invariance(w2):
    a = integrate_monomial(w2, MonomialSpec.parse("M[i,a] M[j,a] M[i,b] M[j,b]"))
    b = integrate_monomial(w2, MonomialSpec.parse("M[x,u] M[y,u] M[x,v] M[y,v]"))
    mapping = {"x": "i", "y": "j", "u": "a", "v": "b"}
    assert b.rename(mapping) == a


def test_gram_product_pure_gaussian():
    exp = integrate_gram_product(unit_weight(Ensemble.ORTHOGONAL), 2)
    inv = RatFunc(1, N)
    assert exp == DeltaExpansion({
        ((("i1", "l1"), None), (("i2", "l2"), None)): RatFunc(1),
        ((("i1", "i2"), None), (("l1", "l2"), None)): inv,
        ((("i1", "l2"), None), (("i2", "l1"), None)): inv,
    })


@pytest.mark.parametrize("ens", [Ensemble.ORTHOGONAL, Ensemble.UNITARY, Ensemble.COE])
def test_exactness_within_range(ens):
    for kappa in (1, 2):
        w = solve_weight(ens, kappa)
        for k in range(1, kappa + 1):
            assert integrate_gram_product(w, k) == delta_product_target(k)


def test_first_deviation_beyond_range(w2):
    diff = integrate_gram_product(w2, 3) - delta_product_target(3)
    assert diff
    assert diff.min_order() >= 2


def test_error_order_values(w2, w3):
    assert error_order(w2, 3) == 2
    assert error_order(w2, 4) == 2  # degree independence
    assert error_order(w3, 4) >= 2
    with pytest.raises(ValueError):
        error_order(w2, 2)


def test_error_order_unitary():
    w = solve_weight(Ensemble.UNITARY, 2)
    assert error_order(w, 3) >= 2


def test_weighted_connected_orders(w2, w3):
    assert weighted_connected_order(w2, 2) >= 1
    assert weighted_connected_order(w3, 2) >= 1
    assert weighted_connected_order(w3, 3) >= 2


def test_weighted_connected_first_vanishes(w2):
    assert not weighted_connected_moment(w2, 1)
    assert weighted_connected_order(w2, 1) is None


def test_trace_consistency(w2):
    # contracting the entrywise expansion over l_v = i_v (all summed) must
    # reproduce the weighted trace average computed from trace moments
    from wickweights.combinatorics import contract_deltas, structure_to_delta_pairs

    k = 2
    exp = integrate_gram_product(w2, k)
    labels = [(f"i{v}", f"l{v}") for v in range(1, k + 1)]
    # wire the trace tr((MM^T)^k): l_v = i_(v+1)
    wiring = [(f"l{v}", f"i{v % k + 1}") for v in range(1, k + 1)]
    total = RatFunc(0)
    for structure, coeff in exp.terms.items():
        edges = structure_to_delta_pairs(structure) + wiring
        res = contract_deltas(edges, {lab for pair in labels for lab in pair})
        assert res is not None
        _, power = res
        total = total + coeff * RatFunc.n_power(power)
    assert total == weighted_trace_average(w2, k)
    assert total == RatFunc(N)  # within the exact range the trace is N


def test_weighted_trace_average_matches_expansion_eval(w2):
    # independent spot check at a concrete dimension via full evaluation
    exp = integrate_gram_product(w2, 3)
    n = 7
    total = Fraction(0)
    for i1 in range(1, n + 1):
        for i2 in range(1, n + 1):
            for i3 in range(1, n + 1):
                assign = {"i1": i1, "l1": i2, "i2": i2, "l2": i3, "i3": i3, "l3": i1}
                total += evaluate_expansion(exp, assign, n)
    assert total == weighted_trace_average(w2, 3).eval(n)


def test_trace_moment_reuse(w2):
    # weighted trace averages are assembled purely from cached trace moments
    got = weighted_trace_average(w2, 2)
    direct = RatFunc(0)
    for p, c in w2.coefficients.items():
        direct = direct + c * gaussian_trace_moment(Ensemble.ORTHOGONAL, [p, (2,)])
    assert got == direct


GRAM_FIXTURE = pathlib.Path(__file__).resolve().parent / "data" / "gram_products.json"


def test_gram_product_fixture_recomputed(monkeypatch):
    # expansions of the former pairing-walk engine, degree up to 18, with
    # every weight and trace moment recomputed from nothing
    from wickweights import wick

    monkeypatch.setattr(wick, "_trace_memo", {})
    monkeypatch.setattr(wick, "_gram_basis_memo", {})
    entries = json.loads(GRAM_FIXTURE.read_text())
    assert len(entries) == 41
    for e in entries:
        ens = Ensemble(e["ensemble"])
        w = solve_weight(ens, e["kappa"], use_disk=False) if e["kappa"] else unit_weight(ens)
        got = integrate_gram_product(w, e["k"])
        assert got == DeltaExpansion.from_json(e["expansion"]), (e["ensemble"], e["kappa"], e["k"])


@pytest.mark.parametrize("ens, kappa", [(Ensemble.COE, 4), (Ensemble.UNITARY, 5)])
def test_conditions_and_error_order_beyond_kappa_3(ens, kappa):
    # COE kappa=4 and unitary kappa=5: exact through k = kappa, and the
    # first deviation (degree 2 kappa + 2) decays at least like N^-3
    w = solve_weight(ens, kappa)
    for k in range(1, kappa + 1):
        report = verify_conditions(w, k)
        assert report.ok, str(report)
    beta = error_order(w, kappa + 1)
    assert beta is not None and beta >= kappa // 2 + 1
