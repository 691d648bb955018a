import json
import pathlib
from fractions import Fraction

import pytest
from helpers import clear_engine_memos, weight_from_json

from wickweights import Ensemble, gaussian_trace_moment
from wickweights.algebra import N, Poly, RatFunc
from wickweights.combinatorics import enumerate_partitions, partitions_of
from wickweights.weights import (
    WeightFunction,
    build_gram_system,
    solve_weight,
    unit_weight,
    verify_conditions,
    weighted_moment,
)

ENSEMBLES = [Ensemble.ORTHOGONAL, Ensemble.UNITARY, Ensemble.COE]


def test_gram_entries():
    sys = build_gram_system(Ensemble.ORTHOGONAL, 2)
    parts = sys.partitions
    assert parts == ((), (1,), (2,), (1, 1))
    ix = {p: i for i, p in enumerate(parts)}
    assert sys.matrix[ix[()]][ix[()]] == RatFunc(1)
    assert sys.matrix[ix[()]][ix[(1,)]] == RatFunc(N)
    assert sys.matrix[ix[(1,)]][ix[(1,)]] == RatFunc(N * N + 2)
    # each entry is the trace moment of the combined multiset
    assert sys.matrix[ix[(2,)]][ix[(1,)]] == gaussian_trace_moment(Ensemble.ORTHOGONAL, [(2,), (1,)])


def test_gram_rhs_powers():
    sys = build_gram_system(Ensemble.ORTHOGONAL, 2)
    want = {(): RatFunc(1), (1,): RatFunc(N), (2,): RatFunc(N), (1, 1): RatFunc(N * N)}
    assert dict(zip(sys.partitions, sys.rhs)) == want


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_gram_symmetric(ens):
    m = build_gram_system(ens, 2).matrix
    assert all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(i))


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_kappa_one_weight_is_unit(ens):
    w = solve_weight(ens, 1)
    assert w.coefficient(()) == RatFunc(1)
    assert not w.coefficient((1,))


def test_orthogonal_kappa2_table():
    w = solve_weight(Ensemble.ORTHOGONAL, 2)
    den = (N - 1) * (N + 2) * 4
    assert w.coefficient(()) == RatFunc(Poly((4,)) - N * N, Poly((4,)))
    assert w.coefficient((1,)) == RatFunc(N, Poly((2,)))
    assert w.coefficient((2,)) == RatFunc(-(N**3), den)
    assert w.coefficient((1, 1)) == RatFunc(N**2, den)


def test_kappa_guard():
    with pytest.raises(ValueError):
        solve_weight(Ensemble.ORTHOGONAL, 0)
    with pytest.raises(ValueError):
        build_gram_system(Ensemble.ORTHOGONAL, 0)


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_weight_normalization(ens):
    # the weighted average of 1 is exactly 1
    for kappa in (1, 2):
        w = solve_weight(ens, kappa)
        total = RatFunc(0)
        for p, c in w.coefficients.items():
            total = total + c * gaussian_trace_moment(ens, [p])
        assert total == RatFunc(1)


def test_coefficients_change_with_kappa():
    w2 = solve_weight(Ensemble.ORTHOGONAL, 2)
    w3 = solve_weight(Ensemble.ORTHOGONAL, 3)
    assert w2.coefficient((2,)) != w3.coefficient((2,))
    assert w2.coefficient((1,)) != w3.coefficient((1,))


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_verify_conditions(ens):
    w = solve_weight(ens, 2)
    for k in (1, 2):
        report = verify_conditions(w, k)
        assert report.ok, str(report)
    with pytest.raises(ValueError):
        verify_conditions(w, 3)


def test_verify_detects_broken_weight():
    w = solve_weight(Ensemble.ORTHOGONAL, 2)
    broken = WeightFunction(w.ensemble, w.kappa, {**w.coefficients, (1,): RatFunc(0)})
    report = verify_conditions(broken, 2)
    assert not report.ok
    assert report.residual
    assert set(report.residual) <= set(partitions_of(2))
    assert "FAILED" in str(report) and "(1,1): " in str(report)


def test_unit_weight():
    from helpers import gram_product_slots

    w = unit_weight(Ensemble.ORTHOGONAL)
    assert w.kappa == 0
    slots, _ = gram_product_slots(Ensemble.ORTHOGONAL, 1)
    got = weighted_moment(w, slots)
    assert got.terms[((("i1", "l1"), None),)] == RatFunc(1)


def test_record_semantics():
    w = unit_weight(Ensemble.COE)
    assert repr(w) == "WeightFunction(ensemble=<Ensemble.COE: 'coe'>, kappa=0, coefficients={(): RatFunc(1)})"
    assert w == WeightFunction(Ensemble.COE, 0, {(): RatFunc(1)}) != unit_weight(Ensemble.UNITARY)
    with pytest.raises(AttributeError):
        w.kappa = 1
    report = verify_conditions(solve_weight(Ensemble.ORTHOGONAL, 1), 1)
    assert repr(report) == (
        "ConditionReport(ensemble=<Ensemble.ORTHOGONAL: 'orthogonal'>, kappa=1, k=1, ok=True, residual={})")
    assert report == verify_conditions(solve_weight(Ensemble.ORTHOGONAL, 1), 1)
    assert str(report) == "condition k=1 for orthogonal kappa=1: ok"


def test_weight_json_roundtrip():
    w = solve_weight(Ensemble.UNITARY, 2)
    obj = w.to_json()
    assert obj["ensemble"] == "unitary" and obj["kappa"] == 2
    assert [tuple(e["partition"]) for e in obj["coefficients"]] == list(enumerate_partitions(2))
    back = weight_from_json(obj)
    assert back == w


DATA = pathlib.Path(__file__).resolve().parent / "data"


def _recompute_weight_fixture(name: str) -> list[tuple[str, int]]:
    """Solve every table of tests/data/<name> from nothing and compare with ==."""
    from wickweights import wick

    assert {wick._jack_table, wick._fillings} <= clear_engine_memos()
    entries = json.loads((DATA / name).read_text())
    for e in entries:
        want = weight_from_json(e)
        got = solve_weight(want.ensemble, want.kappa)
        assert got.coefficients == want.coefficients, (want.ensemble.value, want.kappa)
    return [(e["ensemble"], e["kappa"]) for e in entries]


def test_weight_fixture_recomputed():
    # the 11 tables of the former pairing-sum engine
    assert len(_recompute_weight_fixture("weights.json")) == 11


def test_weight_k5_k6_fixture_recomputed():
    # the kappa = 5 and 6 tables of the former fraction-free elimination
    assert _recompute_weight_fixture("weights_k5_k6.json") == [
        (ens.value, kappa) for kappa in (5, 6) for ens in ENSEMBLES
    ]


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_kernel_and_checks_take_no_gcd(ens, monkeypatch):
    # every denominator that the kernel, the defining conditions, the error order, an
    # entry moment and the connected parts form is a constant times known factors N + r,
    # so no reduction reaches poly_gcd
    from wickweights import MonomialSpec, algebra
    from wickweights.integrate import error_order, integrate_monomial, weighted_connected_order
    from wickweights.wick import connected_entry_moment

    def refuse(a, b):
        raise AssertionError(f"poly_gcd({a}, {b}) reached")

    monkeypatch.setattr(algebra, "poly_gcd", refuse)
    for kappa in range(1, 9):
        w = solve_weight(ens, kappa)
        if kappa <= 6:
            assert all(verify_conditions(w, k).ok for k in range(1, kappa + 1)), kappa
            assert error_order(w, kappa + 1) >= kappa // 2 + 1, kappa
            orders = [weighted_connected_order(w, k) for k in range(1, kappa + 1)]
            assert orders[0] is None and all(b >= (k + 1) // 2 for k, b in enumerate(orders[1:], 2)), kappa
    for k in range(1, 7):
        assert connected_entry_moment(ens, k), k
    monomial = "M[1,1] M[1,1] M[i,j] M[k,l]" if ens is Ensemble.ORTHOGONAL else "M[1,1] Mc[1,1] M[i,j] Mc[k,l]"
    assert integrate_monomial(solve_weight(ens, 3), MonomialSpec.parse(monomial))
    with pytest.raises(AssertionError, match="reached"):
        RatFunc(N, N * N + 1)


def _leading_minors_positive(matrix, n_value: int) -> bool:
    vals = [[e.eval(n_value) for e in row] for row in matrix]
    size = len(vals)
    for top in range(1, size + 1):
        sub = [row[:top] for row in vals[:top]]
        det = _det(sub)
        if det <= 0:
            return False
    return True


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_gram_positive_definite_small(ens):
    sys = build_gram_system(ens, 2)
    assert _leading_minors_positive(sys.matrix, 10)
