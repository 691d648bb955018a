import json
import pathlib
from fractions import Fraction

import pytest

from helpers import (
    FreshSummed,
    add,
    clear_engine_memos,
    cumulants_from_moments,
    delta_product_target,
    evaluate_expansion,
    expansion_from_json,
    gram_block_slots,
    invariant_slots,
    min_order,
    reference_expansion,
    rename,
    scale,
    structure_to_delta_pairs,
    subtract,
    weighted_trace_average,
)
from wickweights import DeltaExpansion, Ensemble, MonomialSpec
from wickweights.algebra import N, RatFunc
from wickweights.integrate import (
    error_order,
    integrate_gram_product,
    integrate_monomial,
    weighted_connected_order,
)
from wickweights.weights import WeightFunction, solve_weight, unit_weight, verify_conditions
from wickweights.wick import gaussian_trace_moment, gram_class_expansion, gram_connected_coefficients


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
    assert rename(b, mapping) == a


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
    diff = subtract(integrate_gram_product(w2, 3), delta_product_target(3))
    assert diff
    assert min_order(diff) >= 2


def test_error_order_values(w2, w3):
    assert error_order(w2, 3) == 2
    assert error_order(w2, 4) == 2  # degree independence
    assert error_order(w3, 4) >= 2
    with pytest.raises(ValueError):
        error_order(w2, 2)


def test_error_order_unitary():
    w = solve_weight(Ensemble.UNITARY, 2)
    assert error_order(w, 3) >= 2


@pytest.mark.parametrize("ens", list(Ensemble))
def test_error_order_matches_expansion_minimum(ens):
    # the order read off the class coefficients against the minimum over
    # the expanded residual, kappa 1-3 and k = kappa+1, kappa+2
    for kappa in (1, 2, 3):
        w = solve_weight(ens, kappa)
        for k in (kappa + 1, kappa + 2):
            want = min_order(subtract(integrate_gram_product(w, k), delta_product_target(k)))
            assert error_order(w, k) == want, (kappa, k)


@pytest.mark.parametrize("ens", list(Ensemble))
def test_error_order_k9_without_structures(ens, monkeypatch):
    # degree 18 at kappa=2 from the class coefficients alone: no index
    # structure is enumerated (17!! matchings in the orthogonal basis)
    from wickweights import wick

    def no_structures(*args):
        raise AssertionError("error_order enumerated index structures")

    monkeypatch.setattr(wick, "_structures", no_structures)
    beta = error_order(solve_weight(ens, 2), 9)
    assert beta is not None and beta >= 2


@pytest.mark.parametrize("ens", list(Ensemble))
def test_scalar_answers_without_structures(ens, monkeypatch):
    # verify, error orders and weighted connected orders read class
    # coefficients: no index structure is enumerated or contracted
    from wickweights import combinatorics, wick

    def refuse(*args):
        raise AssertionError("index structures enumerated or contracted")

    w = solve_weight(ens, 2)
    broken = WeightFunction(w.ensemble, w.kappa, {**w.coefficients, (1,): RatFunc(0)})
    monkeypatch.setattr(wick, "_structures", refuse)
    monkeypatch.setattr(wick, "contract_deltas", refuse)
    monkeypatch.setattr(combinatorics, "contract_deltas", refuse)
    assert verify_conditions(w, 2).ok
    assert not verify_conditions(broken, 2).ok
    assert error_order(w, 3) >= 2
    assert weighted_connected_order(w, 2) >= 1


def _weighted_connected(w, k):
    # the connected part of <w (M M+)_(i1,l1)...(ik,lk)>, expanded over its index structures
    return gram_class_expansion(w.ensemble, k, gram_connected_coefficients(w.ensemble, w.coefficients, k))


@pytest.mark.parametrize("ens", list(Ensemble))
def test_weighted_connected_matches_reference_cumulants(ens):
    # the per-class cumulant against the moment-cumulant recursion over
    # brute-force pairing sums, the weight as one more item
    for kappa in (1, 2):
        w = solve_weight(ens, kappa)

        def moment_fn(sub):
            fresh = FreshSummed()
            blocks = [s for v in sub if v != "w" for s in gram_block_slots(ens, f"i{v}", f"l{v}", fresh)]
            if "w" not in sub:
                return reference_expansion(ens, blocks)
            return add(*(scale(reference_expansion(ens, invariant_slots(ens, p, fresh) + blocks), a)
                         for p, a in w.coefficients.items() if a))

        for k in (1, 2, 3):
            want = cumulants_from_moments(("w",) + tuple(range(1, k + 1)), moment_fn)
            assert _weighted_connected(w, k) == want, (kappa, k)


def test_weighted_connected_orders(w2, w3):
    assert weighted_connected_order(w2, 2) >= 1
    assert weighted_connected_order(w3, 2) >= 1
    assert weighted_connected_order(w3, 3) >= 2


def test_weighted_connected_first_vanishes(w2):
    assert not _weighted_connected(w2, 1)
    assert weighted_connected_order(w2, 1) is None


def test_trace_consistency(w2):
    # contracting the entrywise expansion over l_v = i_v (all summed) must
    # reproduce the weighted trace average computed from trace moments
    from wickweights.combinatorics import contract_deltas

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
        total = total + coeff * RatFunc(N ** power)
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
    # weighted trace averages are assembled purely from trace moments
    got = weighted_trace_average(w2, 2)
    direct = RatFunc(0)
    for p, c in w2.coefficients.items():
        direct = direct + c * gaussian_trace_moment(Ensemble.ORTHOGONAL, [p, (2,)])
    assert got == direct


GRAM_FIXTURE = pathlib.Path(__file__).resolve().parent / "data" / "gram_products.json"


def test_gram_product_fixture_recomputed():
    # expansions of the former pairing-walk engine, degree up to 18, with
    # every weight and trace moment recomputed from nothing
    clear_engine_memos()
    entries = json.loads(GRAM_FIXTURE.read_text())
    assert len(entries) == 41
    for e in entries:
        ens = Ensemble(e["ensemble"])
        w = solve_weight(ens, e["kappa"]) if e["kappa"] else unit_weight(ens)
        got = integrate_gram_product(w, e["k"])
        assert got == expansion_from_json(e["expansion"]), (e["ensemble"], e["kappa"], e["k"])


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


ENTRY_FIXTURE = pathlib.Path(__file__).resolve().parent / "data" / "entry_moments.json"


@pytest.mark.parametrize("ens", list(Ensemble))
def test_class_targets_without_trace_moments(ens, monkeypatch):
    # once the weight is solved, conditions, error orders, Gram products and
    # entry moments sum loop numerators: no reduced trace moment is asked for
    from wickweights import wick

    w = solve_weight(ens, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("class targets asked for a reduced trace moment")

    monkeypatch.setattr(wick, "gaussian_trace_moment", refuse)
    for k in range(1, 4):
        report = verify_conditions(w, k)
        assert report.ok and not report.residual, str(report)
    assert error_order(w, 4) == 2
    grams = [e for e in json.loads(GRAM_FIXTURE.read_text()) if (e["ensemble"], e["kappa"]) == (ens.value, 3)]
    assert grams
    for e in grams:
        assert integrate_gram_product(w, e["k"]) == expansion_from_json(e["expansion"]), e["k"]
    entry = next(e for e in json.loads(ENTRY_FIXTURE.read_text())
                 if (e["ensemble"], e["kappa"]) == (ens.value, 3) and len(e["monomial"].split()) == 6
                 and MonomialSpec.parse(e["monomial"]).is_concrete())
    got = integrate_monomial(w, MonomialSpec.parse(entry["monomial"]))
    assert got == expansion_from_json(entry["expansion"]), entry["monomial"]


def _reference_class_targets(ens, coefficients, classes):
    return [sum((a * gaussian_trace_moment(ens, [p, lam]) for p, a in coefficients.items() if a), RatFunc(0))
            for lam in classes]


@pytest.mark.parametrize("ens, monomial", [
    (Ensemble.ORTHOGONAL, "M[1,1] M[1,1] M[2,1] M[2,1] M[1,2] M[1,2]"),
    (Ensemble.UNITARY, "M[1,1] Mc[1,1] M[1,2] Mc[1,2] M[2,1] Mc[2,1]"),
    (Ensemble.COE, "M[1,1] Mc[1,1] M[1,2] Mc[1,2] M[2,2] Mc[2,2]"),
])
def test_class_targets_of_general_weight(ens, monomial, monkeypatch):
    # a hand-made weight whose common denominator has a factor N^2 + 1 that
    # does not split over the integers, a zero coefficient and invariants
    # of sizes 0-3, against the sum of reduced trace moments a_p <I_p p_lam>,
    # through poly_gcd; a key that is not a partition is refused
    from wickweights import modular, wick
    from wickweights.combinatorics import partitions_of

    coefficients = {(): RatFunc(3, N * N + 1), (1,): RatFunc(N - 2, N * (N * N + 1)), (2,): RatFunc(0),
                    (2, 1): RatFunc(-5, N + 3), (1, 1, 1): RatFunc(N, 7)}
    alpha = 2 if ens is Ensemble.ORTHOGONAL else 1
    calls, gcd = [], modular.poly_gcd
    monkeypatch.setattr(modular, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    for k in range(1, 5):
        targets = _reference_class_targets(ens, coefficients, list(partitions_of(k)))
        # N^2 + 1 is no known linear factor, so the cofactor beside the known ones reaches poly_gcd
        calls.clear()
        got = wick._class_targets(ens, coefficients, list(partitions_of(k)))
        assert got == targets and calls, k
        assert wick.gram_class_coefficients(ens, coefficients, k) == wick._class_solve(k, alpha, targets, (0,)), k
    slots = MonomialSpec.parse(monomial).slots
    got = wick.entry_moment(ens, coefficients, slots)
    with pytest.raises(ValueError):
        wick.gram_class_coefficients(ens, {(1, 2): RatFunc(1)}, 1)
    monkeypatch.setattr(wick, "_class_targets", _reference_class_targets)
    want = wick.entry_moment(ens, coefficients, slots)
    assert got and got == want


def test_gram_product_and_connected_order_refuse_k_out_of_range(w2):
    with pytest.raises(ValueError, match="k must be >= 1"):
        integrate_gram_product(w2, 0)
    for k in (0, 3):
        with pytest.raises(ValueError, match="1..kappa"):
            weighted_connected_order(w2, k)
