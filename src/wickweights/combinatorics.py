"""Partitions, Wick pairings and Kronecker-delta contraction.

Conventions used throughout the package:

* A partition is a weakly decreasing tuple of positive ints; ``()`` is the
  empty partition and indexes the constant term of a weight function.
* The canonical partition order is ascending weight, then lexicographically
  descending parts: ``(), (1), (2), (1,1), (3), (2,1), (1,1,1), ...``.
  Gram rows, weight tables and JSON files all use this order.
* A pairing of 2m slots is a perfect matching, yielded as m sorted index
  pairs.  The engine enumerates matchings only to write the delta
  structures of its output, never the Wick pairings of a moment.
* A delta pattern is a multiset of unordered label pairs.  Labels are either
  symbolic (strings) or concrete matrix indices (ints).  Contracting the
  summed labels turns each closed all-summed component into one factor N and
  leaves a residual equality structure on the remaining labels.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence

Partition = tuple[int, ...]

Label = Hashable  # str for symbolic indices, int for concrete ones


def check_partition(parts: Sequence[int]) -> Partition:
    """Validate weak decrease and positivity; returns the tuple form."""
    p = tuple(int(x) for x in parts)
    if any(x < 1 for x in p):
        raise ValueError(f"partition parts must be >= 1: {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {p}")
    return p


def partition_label(p: Partition) -> str:
    """A partition as tables and reports print it: (2,1)."""
    return "(" + ",".join(str(x) for x in p) + ")"


def partitions_of(k: int) -> Iterator[Partition]:
    """All partitions of k in lexicographically descending order."""

    def rec(rest: int, maxpart: int, prefix: tuple[int, ...]) -> Iterator[Partition]:
        if rest == 0:
            yield prefix
            return
        for first in range(min(rest, maxpart), 0, -1):
            yield from rec(rest - first, first, prefix + (first,))

    yield from rec(k, k, ())


def enumerate_partitions(max_k: int) -> list[Partition]:
    """The empty partition plus all partitions of 1..max_k, canonical order."""
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    out: list[Partition] = [()]
    for k in range(1, max_k + 1):
        out.extend(partitions_of(k))
    return out


def set_partitions(items: Sequence) -> Iterator[list[tuple]]:
    """All set partitions of the given items, as lists of blocks (tuples)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [(first,) + sub[i]] + sub[i + 1 :]
        yield [(first,)] + sub


def perfect_matchings(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings of {0..n-1}; empty for odd n.

    The lowest unmatched index is always paired next, so the stream is in a
    fixed deterministic order and has (n-1)!! elements.
    """
    if n % 2:
        return
    idx = list(range(n))

    def rec(avail: list[int]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not avail:
            yield ()
            return
        first = avail[0]
        for j in range(1, len(avail)):
            partner = avail[j]
            rest = avail[1:j] + avail[j + 1 :]
            for tail in rec(rest):
                yield ((first, partner),) + tail

    yield from rec(idx)


# -- delta contraction ---------------------------------------------------------------

Block = tuple[tuple[Label, ...], int | None]  # (sorted symbolic labels, concrete anchor)
DeltaStructure = tuple[Block, ...]


def structure_label(structure: DeltaStructure) -> str:
    """A delta structure as output prints it: d(i,j)d(k,2), or 1 for none."""
    return "".join("d(" + ",".join(list(labels) + ([str(a)] if a is not None else [])) + ")"
                   for labels, a in structure) or "1"


def contract_deltas(
    edges: Iterable[tuple[Label, Label]],
    summed: Iterable[Label],
) -> tuple[DeltaStructure, int] | None:
    """Contract summed labels out of a delta pattern.

    Every connected component of the pattern forces all its labels equal.
    Summing a component that contains only summed labels gives one free
    choice of index, hence a factor N; components touching a free or
    concrete label are pinned.  Returns the residual structure on the
    non-summed labels together with the power of N, or None when two
    distinct concrete indices collide (the pattern is identically zero).

    The residual structure is a sorted tuple of blocks; each block is the
    sorted tuple of symbolic free labels forced equal, plus the concrete
    index they are pinned to (or None).  Blocks that constrain nothing (a
    single free label with no anchor) are dropped.
    """
    summed = set(summed)
    parent: dict[Label, Label] = {}

    def find(x: Label) -> Label:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        for v in (a, b):
            if v not in parent:
                parent[v] = v
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    for v in summed:
        if v not in parent:
            parent[v] = v

    comps: dict[Label, list[Label]] = {}
    for v in parent:
        comps.setdefault(find(v), []).append(v)

    power = 0
    blocks: list[Block] = []
    for members in comps.values():
        frees = sorted(v for v in members if v not in summed and isinstance(v, str))
        concretes = {v for v in members if v not in summed and not isinstance(v, str)}
        if len(concretes) > 1:
            return None
        anchor = next(iter(concretes)) if concretes else None
        if not frees and anchor is None:
            power += 1
        elif len(frees) + (anchor is not None) >= 2:
            blocks.append((tuple(frees), anchor))
    blocks.sort(key=lambda b: b[0])
    return tuple(blocks), power
