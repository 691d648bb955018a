import random

import pytest

from helpers import bipartite_matchings, double_factorial, enumerate_pairings
from wickweights.combinatorics import (
    check_partition,
    contract_deltas,
    enumerate_partitions,
    partitions_of,
    perfect_matchings,
    set_partitions,
)


def test_partition_validation():
    assert check_partition([3, 1, 1]) == (3, 1, 1)
    with pytest.raises(ValueError):
        check_partition([1, 2])
    with pytest.raises(ValueError):
        check_partition([2, 0])


def test_enumerate_partitions_small():
    assert enumerate_partitions(1) == [(), (1,)]
    assert enumerate_partitions(2) == [(), (1,), (2,), (1, 1)]
    assert enumerate_partitions(4) == [
        (), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    ]
    assert len(list(partitions_of(4))) == 5
    with pytest.raises(ValueError):
        enumerate_partitions(0)


def test_partition_counts():
    # partition numbers p(1..9)
    expected = [1, 2, 3, 5, 7, 11, 15, 22, 30]
    for k, c in enumerate(expected, start=1):
        assert len(list(partitions_of(k))) == c


def test_set_partition_counts():
    bell = [1, 1, 2, 5, 15, 52]
    for n, b in enumerate(bell):
        assert len(list(set_partitions(range(n)))) == b


def test_perfect_matching_counts():
    for m in range(1, 7):
        count = sum(1 for _ in perfect_matchings(2 * m))
        assert count == double_factorial(2 * m - 1)
    assert list(perfect_matchings(3)) == []


def test_matchings_cover_slots():
    for pairing in perfect_matchings(8):
        seen = [s for pair in pairing for s in pair]
        assert sorted(seen) == list(range(8))
    for pairing in bipartite_matchings([0, 2, 4], [1, 3, 5]):
        seen = [s for pair in pairing for s in pair]
        assert sorted(seen) == list(range(6))


def test_bipartite_counts():
    for m in range(1, 6):
        left = list(range(m))
        right = list(range(m, 2 * m))
        count = sum(1 for _ in bipartite_matchings(left, right))
        fact = 1
        for i in range(2, m + 1):
            fact *= i
        assert count == fact


def test_enumerate_pairings_real():
    assert sum(1 for _ in enumerate_pairings([False] * 4, False)) == 3
    assert sum(1 for _ in enumerate_pairings([False] * 8, False)) == 105
    with pytest.raises(ValueError):
        list(enumerate_pairings([False, True], False))


def test_enumerate_pairings_complex():
    flags = [False, True, False, True]
    assert sum(1 for _ in enumerate_pairings(flags, True)) == 2
    # unbalanced conjugation: the stream is empty
    assert list(enumerate_pairings([False, False, False, True], True)) == []
    for pairing in enumerate_pairings(flags, True):
        for a, b in pairing:
            assert flags[a] != flags[b]


def test_contract_two_cycle():
    assert contract_deltas([("a", "b"), ("b", "a")], {"a", "b"}) == ((), 1)


def test_contract_three_cycle():
    edges = [("a", "b"), ("b", "c"), ("c", "a")]
    assert contract_deltas(edges, {"a", "b", "c"}) == ((), 1)


def test_contract_open_chain():
    # one free end: the summed label just relays, no factor N
    structure, power = contract_deltas([("i", "b")], {"b"})
    assert power == 0
    assert structure == ()


def test_contract_free_pair():
    structure, power = contract_deltas([("i", "b"), ("b", "l")], {"b"})
    assert power == 0
    assert structure == ((("i", "l"), None),)


def test_contract_concrete():
    assert contract_deltas([(1, 2)], set()) is None
    assert contract_deltas([(1, 1)], set()) == ((), 0)
    structure, power = contract_deltas([("i", 3)], set())
    assert structure == ((("i",), 3),)
    assert power == 0


def test_contract_isolated_summed_label():
    # a summed label in no delta still ranges over N values
    assert contract_deltas([], {"a"}) == ((), 1)


def test_contract_relabeling_invariance():
    rng = random.Random(13)
    base = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("i", "a"), ("j", "c")]
    summed = ["a", "b", "c", "d"]
    want = contract_deltas(base, set(summed))
    for _ in range(20):
        perm = summed[:]
        rng.shuffle(perm)
        mapping = dict(zip(summed, perm))
        edges = [(mapping.get(x, x), mapping.get(y, y)) for x, y in base]
        assert contract_deltas(edges, set(summed)) == want
