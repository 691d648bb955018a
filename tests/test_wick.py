import json
import math
import os
import pathlib
import random
from fractions import Fraction

import pytest

from helpers import (
    evaluate_expansion,
    oracle_concrete_moment,
    oracle_trace_moment,
    reference_expansion,
)
from wickweights import (
    DeltaExpansion,
    Ensemble,
    MonomialSpec,
    Slot,
    connected_entry_moment,
    connected_trace_moment,
    elementary_contraction,
    gaussian_entry_moment,
    gaussian_trace_moment,
)
from wickweights.algebra import N, RatFunc
from wickweights.combinatorics import partitions_of, set_partitions
from wickweights.weights import solve_weight, unit_weight, weighted_moment
from wickweights.wick import (
    _FreshSummed,
    _slots_expansion,
    cumulants_from_moments,
    gram_product_moment,
    gram_product_slots,
    invariant_slots,
    moment_with_invariants,
)

ENSEMBLES = [Ensemble.ORTHOGONAL, Ensemble.UNITARY, Ensemble.COE]


def expansion(items):
    return DeltaExpansion({k: v for k, v in items})


# -- elementary contractions ---------------------------------------------------------


def test_elementary_real():
    got = elementary_contraction(Ensemble.ORTHOGONAL, Slot("i", "j"), Slot("k", "l"))
    assert got == expansion([(((("i", "k"), None), (("j", "l"), None)), RatFunc(1, N))])


def test_elementary_complex_holomorphic_vanishes():
    got = elementary_contraction(Ensemble.UNITARY, Slot("i", "j"), Slot("k", "l"))
    assert not got
    got = elementary_contraction(Ensemble.UNITARY, Slot("i", "j", True), Slot("k", "l", True))
    assert not got


def test_elementary_complex():
    got = elementary_contraction(Ensemble.UNITARY, Slot("i", "j"), Slot("k", "l", True))
    assert got == expansion([(((("i", "k"), None), (("j", "l"), None)), RatFunc(1, N))])


def test_elementary_coe_two_terms():
    got = elementary_contraction(Ensemble.COE, Slot("i", "j", True), Slot("k", "l"))
    inv = RatFunc(1, N + 1)
    assert got == expansion([
        (((("i", "k"), None), (("j", "l"), None)), inv),
        (((("i", "l"), None), (("j", "k"), None)), inv),
    ])


def test_elementary_normalization():
    # the variance convention pins <(M M+)_ii> = 1 entry by entry
    for ens in ENSEMBLES:
        total = Fraction(0)
        for b in range(1, 5):
            pair = (Slot(1, b), Slot(1, b)) if ens is Ensemble.ORTHOGONAL else (Slot(1, b), Slot(1, b, True))
            total += elementary_contraction(ens, *pair).as_ratfunc().eval(4)
        assert total == 1


def test_elementary_conjugation_rejected_for_real():
    with pytest.raises(ValueError):
        elementary_contraction(Ensemble.ORTHOGONAL, Slot("i", "j", True), Slot("k", "l"))


# -- entry moments ------------------------------------------------------------------


def test_odd_degree_vanishes():
    m = MonomialSpec((Slot("i1", "j1"), Slot("i2", "j2"), Slot("i3", "j3")))
    assert not gaussian_entry_moment(Ensemble.ORTHOGONAL, m)


def test_unbalanced_conjugation_vanishes():
    m = MonomialSpec((Slot("i", "j"), Slot("k", "l")))
    assert not gaussian_entry_moment(Ensemble.UNITARY, m)


def test_complex_entry_second_moment():
    m = MonomialSpec((Slot(1, 1), Slot(1, 1, True)))
    assert gaussian_entry_moment(Ensemble.UNITARY, m).as_ratfunc() == RatFunc(1, N)


def test_gram_block_pure_gaussian():
    slots, _ = gram_product_slots(Ensemble.ORTHOGONAL, 2)
    got = _slots_expansion(Ensemble.ORTHOGONAL, slots)
    inv = RatFunc(1, N)
    assert got == expansion([
        (((("i1", "l1"), None), (("i2", "l2"), None)), RatFunc(1)),
        (((("i1", "i2"), None), (("l1", "l2"), None)), inv),
        (((("i1", "l2"), None), (("i2", "l1"), None)), inv),
    ])


def test_slot_permutation_invariance():
    rng = random.Random(2)
    m = MonomialSpec((Slot("i", "a"), Slot("j", "a"), Slot("i", "b"), Slot("j", "b")))
    want = gaussian_entry_moment(Ensemble.ORTHOGONAL, m)
    for _ in range(5):
        slots = list(m.slots)
        rng.shuffle(slots)
        assert gaussian_entry_moment(Ensemble.ORTHOGONAL, MonomialSpec(tuple(slots))) == want


def _random_monomial(rng, ens, npairs):
    labels = ["i", "j", "k", 1, 2]
    slots = []
    for _ in range(2 * npairs):
        slots.append(Slot(rng.choice(labels), rng.choice(labels), False))
    if ens.complex_entries:
        conj_ix = rng.sample(range(2 * npairs), npairs)
        slots = [Slot(s.row, s.col, ix in conj_ix) for ix, s in enumerate(slots)]
    return MonomialSpec(tuple(slots))


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_engine_matches_reference_stream(ens):
    # the rollback-DFS kernel against the literal pairing-stream evaluation
    rng = random.Random(hash(ens.value) & 0xFFFF)
    for _ in range(12):
        m = _random_monomial(rng, ens, rng.randint(1, 3))
        assert gaussian_entry_moment(ens, m) == reference_expansion(ens, m.slots), m


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_engine_matches_concrete_oracle(ens):
    # no pairings at all on the oracle side: scalar Gaussian moments
    rng = random.Random(len(ens.value))
    for _ in range(8):
        npairs = rng.randint(1, 3)
        slots = []
        for _ in range(2 * npairs):
            slots.append(Slot(rng.randint(1, 2), rng.randint(1, 2), False))
        if ens.complex_entries:
            conj_ix = rng.sample(range(2 * npairs), npairs)
            slots = [Slot(s.row, s.col, ix in conj_ix) for ix, s in enumerate(slots)]
        m = MonomialSpec(tuple(slots))
        got = gaussian_entry_moment(ens, m).as_ratfunc()
        for n in (2, 3):
            assert got.eval(n) == oracle_concrete_moment(ens, m.slots, n)


def test_expansion_with_free_labels_matches_oracle():
    slots, labels = gram_product_slots(Ensemble.ORTHOGONAL, 2)
    exp = _slots_expansion(Ensemble.ORTHOGONAL, slots)
    # evaluate at every concrete assignment of the free labels and compare
    n = 2
    for i1 in (1, 2):
        for l1 in (1, 2):
            for i2 in (1, 2):
                for l2 in (1, 2):
                    assign = {"i1": i1, "l1": l1, "i2": i2, "l2": l2}
                    # direct oracle on the explicit entry sum over columns
                    total = Fraction(0)
                    for b1 in range(1, n + 1):
                        for b2 in range(1, n + 1):
                            mono = [Slot(i1, b1), Slot(l1, b1), Slot(i2, b2), Slot(l2, b2)]
                            total += oracle_concrete_moment(Ensemble.ORTHOGONAL, mono, n)
                    assert evaluate_expansion(exp, assign, n) == total


# -- trace moments -------------------------------------------------------------------


def test_trace_moment_examples():
    assert gaussian_trace_moment(Ensemble.ORTHOGONAL, [(1,)]) == RatFunc(N)
    assert gaussian_trace_moment(Ensemble.ORTHOGONAL, [(2,)]) == RatFunc(2 * N + 1)
    assert gaussian_trace_moment(Ensemble.UNITARY, [(2,)]) == RatFunc(2 * N)
    assert gaussian_trace_moment(Ensemble.ORTHOGONAL, [(1,), (1,)]) == RatFunc(N * N + 2)
    assert gaussian_trace_moment(Ensemble.ORTHOGONAL, []) == RatFunc(1)
    assert gaussian_trace_moment(Ensemble.COE, [(1,)]) == RatFunc(N)


def test_trace_moment_scalar_dimension():
    # at N=1 the matrix is a single Gaussian: classical even moments
    for k in range(1, 6):
        real = gaussian_trace_moment(Ensemble.ORTHOGONAL, [(k,)]).eval(1)
        dfact = 1
        for v in range(2 * k - 1, 1, -2):
            dfact *= v
        assert real == dfact
        comp = gaussian_trace_moment(Ensemble.UNITARY, [(k,)]).eval(1)
        fact = 1
        for v in range(2, k + 1):
            fact *= v
        assert comp == fact
        coe = gaussian_trace_moment(Ensemble.COE, [(k,)]).eval(1)
        assert coe == fact  # E|S|^2 = 2/(N+1) = 1 at N=1, like the unitary case


@pytest.mark.parametrize("ens", ENSEMBLES)
@pytest.mark.parametrize("multiset", [[(2,)], [(3,)], [(2,), (1,)], [(1,), (1,), (1,)], [(2, 1)]])
def test_trace_moment_concrete_oracle(ens, multiset):
    got = gaussian_trace_moment(ens, multiset)
    for n in (1, 2):
        assert got.eval(n) == oracle_trace_moment(ens, multiset, n)


def test_trace_moment_growth_degree():
    # product of p traces grows like N^p; a single trace grows like N
    for ens in ENSEMBLES:
        for multiset, parts in ([[(3,)], 1], [[(2,), (1,)], 2], [[(1,), (1,), (1,)], 3]):
            f = gaussian_trace_moment(ens, multiset)
            assert f.order() == -parts
            assert f.num.lc > 0


def test_trace_moment_memoized_and_cached(tmp_path, monkeypatch):
    monkeypatch.setenv("WICKWEIGHTS_CACHE_DIR", str(tmp_path))
    from wickweights import wick

    key = (Ensemble.ORTHOGONAL, (2, 1))
    wick._trace_memo.pop(key, None)
    a = gaussian_trace_moment(Ensemble.ORTHOGONAL, [(2, 1)])
    assert key in wick._trace_memo
    assert gaussian_trace_moment(Ensemble.ORTHOGONAL, [(2,), (1,)]) == a
    assert not any(tmp_path.iterdir())  # trace moments never touch the disk


TRACE_FIXTURE = pathlib.Path(__file__).resolve().parent / "data" / "trace_moments.json"


def test_trace_moment_fixture_recomputed(monkeypatch):
    # values of the former pairing-sum engine, up to degree 16, recomputed cold
    from wickweights import wick

    monkeypatch.setattr(wick, "_trace_memo", {})
    entries = json.loads(TRACE_FIXTURE.read_text())
    assert len(entries) == 271
    for e in entries:
        got = gaussian_trace_moment(Ensemble(e["ensemble"]), [tuple(p) for p in e["invariants"]])
        assert got == RatFunc.from_json(e["value"]), e


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_trace_moment_matches_open_kernel(ens):
    for weight in range(1, 7):
        for lam in partitions_of(weight):
            open_sum = moment_with_invariants(ens, [], [lam]).as_ratfunc()
            assert gaussian_trace_moment(ens, [lam]) == open_sum, lam


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_trace_moment_matches_reference_expansion(ens):
    # every multiset of single traces up to degree 8, by the brute-force oracle
    for weight in range(1, 5):
        for powers in partitions_of(weight):
            slots = invariant_slots(ens, powers, _FreshSummed())
            expected = reference_expansion(ens, slots).as_ratfunc()
            assert gaussian_trace_moment(ens, [(k,) for k in powers]) == expected, powers


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_trace_moment_degree_36(ens):
    # 35!! pairings for real entries: out of reach of any pairing walk
    got = gaussian_trace_moment(ens, [(6,), (6,), (6,)])
    # at N=1 the matrix is one Gaussian: E x^36 = 35!! or E |z|^36 = 18!
    scalar = math.prod(range(35, 0, -2)) if ens is Ensemble.ORTHOGONAL else math.factorial(18)
    assert got.eval(1) == scalar
    # leading order factorizes into three Catalan(6) = 132 planar terms
    assert got.order() == -3
    assert Fraction(got.num.lc, got.den.lc) == 132 ** 3


def test_fork_pool_size_capped(monkeypatch):
    import multiprocessing

    from wickweights import wick

    sizes = []

    class NoPoolContext:
        def Pool(self, size):
            sizes.append(size)
            raise OSError("no pool is started in this test")

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: NoPoolContext())
    slots, _ = gram_product_slots(Ensemble.ORTHOGONAL, 2)
    comp, _ = wick._compile(Ensemble.ORTHOGONAL, slots)
    tasks = len(wick._prefixes(comp))
    for cores, expected in ((64, tasks), (2, 2), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        got = wick._run_parallel(comp, wick._open_task, wick._merge_counts, {}, 10**9)
        assert sizes[-1] == expected
        assert got == wick._sum_open(comp, 1)


# -- Gram products by invariance -------------------------------------------------------


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_gram_product_matches_open_kernel(ens):
    # the class-function reduction against the pairing walk with the
    # weight's invariants inserted: unit weight to k=4, solved weights to k=3
    cases = [(unit_weight(ens), k) for k in (1, 2, 3, 4)]
    cases += [(solve_weight(ens, kappa), k) for kappa in (1, 2) for k in (1, 2, 3)]
    for w, k in cases:
        slots, _ = gram_product_slots(ens, k)
        want = weighted_moment(w, slots)
        assert gram_product_moment(ens, w.coefficients, k) == want, (w.kappa, k)


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_gram_product_matches_reference_expansion(ens):
    for k in (1, 2, 3):
        slots, _ = gram_product_slots(ens, k)
        assert gram_product_moment(ens, {(): RatFunc(1)}, k) == reference_expansion(ens, slots), k


# -- connected parts -----------------------------------------------------------------


def test_connected_two_blocks_real():
    got = connected_entry_moment(Ensemble.ORTHOGONAL, 2)
    inv = RatFunc(1, N)
    assert got == expansion([
        (((("i1", "i2"), None), (("l1", "l2"), None)), inv),
        (((("i1", "l2"), None), (("i2", "l1"), None)), inv),
    ])


def test_connected_single_factor_is_full_moment():
    for ens in ENSEMBLES:
        got = connected_entry_moment(ens, 1)
        assert got == expansion([(((("i1", "l1"), None),), RatFunc(1))])


def test_connected_traces():
    assert connected_trace_moment(Ensemble.ORTHOGONAL, [(1,), (1,)]) == RatFunc(2)
    one = gaussian_trace_moment(Ensemble.ORTHOGONAL, [(2,)])
    assert connected_trace_moment(Ensemble.ORTHOGONAL, [(2,)]) == one


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_moment_cumulant_consistency(ens):
    # full moment = sum over set partitions of products of connected parts
    for k in (2, 3, 4):
        slots, _ = gram_product_slots(ens, k)
        full = _slots_expansion(ens, slots)
        total = DeltaExpansion.zero()
        for blocks in set_partitions(range(1, k + 1)):
            prod = DeltaExpansion.unit()
            for block in blocks:
                part = connected_entry_moment(ens, len(block))
                mapping = {}
                for t, v in enumerate(sorted(block), start=1):
                    mapping[f"i{t}"] = f"i{v}"
                    mapping[f"l{t}"] = f"l{v}"
                prod = prod * part.rename(mapping)
            total = total + prod
        assert total == full


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_connected_matches_open_kernel_cumulants(ens):
    # the same cumulants with every moment from the pairing walk
    for k in (1, 2, 3, 4):

        def moment_fn(sub):
            slots, _ = gram_product_slots(ens, len(sub))
            mapping = {}
            for t, v in enumerate(sorted(sub), start=1):
                mapping[f"i{t}"] = f"i{v}"
                mapping[f"l{t}"] = f"l{v}"
            return _slots_expansion(ens, slots).rename(mapping)

        want = cumulants_from_moments(tuple(range(1, k + 1)), moment_fn)
        assert connected_entry_moment(ens, k) == want, k


@pytest.mark.parametrize("ens", ENSEMBLES)
def test_connected_scaling(ens):
    # each extra correlated block costs at least one power of 1/N
    for k in (2, 3, 4):
        order = connected_entry_moment(ens, k).min_order()
        assert order is not None and order >= k - 1
        assert order == k - 1  # attained: no global cancellation


def test_moment_with_invariants_label_isolation():
    # internal indices of the inserted invariant must not alias the slots'
    slots, _ = gram_product_slots(Ensemble.ORTHOGONAL, 1)
    got = moment_with_invariants(Ensemble.ORTHOGONAL, slots, [(1,)])
    want = RatFunc(N * N + 2, N)
    assert got == expansion([(((("i1", "l1"), None),), want)])


def test_cumulants_from_moments_scalar():
    # three, pairwise-correlated scalar items with known cumulants
    vals = {
        frozenset({1}): 2, frozenset({2}): 2, frozenset({3}): 2,
        frozenset({1, 2}): 5, frozenset({1, 3}): 5, frozenset({2, 3}): 5,
        frozenset({1, 2, 3}): 14,
    }

    def moment_fn(sub):
        return DeltaExpansion.unit(RatFunc(vals[frozenset(sub)]))

    got = cumulants_from_moments((1, 2, 3), moment_fn).as_ratfunc()
    # 14 - 3*(1*2) [pair*single cumulant 1] - 2*2*2 = 14 - 3*2*... computed below
    # singles: 2; pairs: 5 - 4 = 1; triple: 14 - 3*(1*2) - 8 = 0
    assert got == RatFunc(0)
