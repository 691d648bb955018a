import json
import pathlib
from fractions import Fraction

import pytest

from wickweights import Ensemble, gaussian_trace_moment
from wickweights.algebra import N, Poly, RatFunc
from wickweights.combinatorics import enumerate_partitions
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
    assert build_gram_system(ens, 2).is_symmetric()


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_kappa_one_weight_is_unit(ens):
    w = solve_weight(ens, 1, use_disk=False)
    assert w.coefficient(()) == RatFunc(1)
    assert not w.coefficient((1,))


def test_orthogonal_kappa2_table():
    w = solve_weight(Ensemble.ORTHOGONAL, 2, use_disk=False)
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
        w = solve_weight(ens, kappa, use_disk=False)
        total = RatFunc(0)
        for p, c in w.coefficients.items():
            total = total + c * gaussian_trace_moment(ens, [p])
        assert total == RatFunc(1)


def test_coefficients_change_with_kappa():
    w2 = solve_weight(Ensemble.ORTHOGONAL, 2, use_disk=False)
    w3 = solve_weight(Ensemble.ORTHOGONAL, 3, use_disk=False)
    assert w2.coefficient((2,)) != w3.coefficient((2,))
    assert w2.coefficient((1,)) != w3.coefficient((1,))


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_verify_conditions(ens):
    w = solve_weight(ens, 2, use_disk=False)
    for k in (1, 2):
        report = verify_conditions(w, k)
        assert report.ok, str(report)
    with pytest.raises(ValueError):
        verify_conditions(w, 3)


def test_verify_detects_broken_weight():
    w = solve_weight(Ensemble.ORTHOGONAL, 2, use_disk=False)
    broken = WeightFunction(w.ensemble, w.kappa, {**w.coefficients, (1,): RatFunc(0)})
    report = verify_conditions(broken, 2)
    assert not report.ok
    assert report.residual


def test_unit_weight():
    from wickweights.wick import gram_product_slots

    w = unit_weight(Ensemble.ORTHOGONAL)
    assert w.kappa == 0
    slots, _ = gram_product_slots(Ensemble.ORTHOGONAL, 1)
    got = weighted_moment(w, slots)
    assert got.terms[((("i1", "l1"), None),)] == RatFunc(1)


def test_weight_json_roundtrip():
    w = solve_weight(Ensemble.UNITARY, 2, use_disk=False)
    obj = w.to_json()
    assert obj["ensemble"] == "unitary" and obj["kappa"] == 2
    assert [tuple(e["partition"]) for e in obj["coefficients"]] == list(enumerate_partitions(2))
    back = WeightFunction.from_json(obj)
    assert back == w


WEIGHT_FIXTURE = pathlib.Path(__file__).resolve().parent / "data" / "weights.json"


def test_weight_fixture_recomputed(monkeypatch):
    # the 11 tables of the former pairing-sum engine, solved from nothing
    from wickweights import wick

    monkeypatch.setattr(wick, "_trace_memo", {})
    entries = json.loads(WEIGHT_FIXTURE.read_text())
    assert len(entries) == 11
    for e in entries:
        want = WeightFunction.from_json(e)
        got = solve_weight(want.ensemble, want.kappa, use_disk=False)
        assert got.coefficients == want.coefficients, (want.ensemble.value, want.kappa)


def test_weight_disk_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("WICKWEIGHTS_CACHE_DIR", str(tmp_path))
    a = solve_weight(Ensemble.ORTHOGONAL, 2)
    assert (tmp_path / "weight_orthogonal_k2.json").exists()
    # second call loads from disk and agrees
    b = solve_weight(Ensemble.ORTHOGONAL, 2)
    assert a == b


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
