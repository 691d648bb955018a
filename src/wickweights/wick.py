"""Gaussian Wick-contraction engine for matrix-entry and trace moments.

Ensembles
---------
orthogonal  real Gaussian entries,            <M_ij M_kl>   = d_ik d_jl / N
unitary     complex Gaussian entries,         <M_ij ~M_kl>  = d_ik d_jl / N
coe         complex symmetric Gaussian,       <~S_ij S_kl>  = (d_ik d_jl + d_il d_jk) / (N+1)

(~X is the complex conjugate; d is the Kronecker delta.)  Each second
moment is normalized so that <(M M+)_ij> = d_ij, which makes the unit
weight already reproduce the degree-2 target integrals.  For the symmetric
ensemble the exchange term contributes an extra unit under the internal
index sum, so its normalizing denominator is N+1 rather than N; the
published COE coefficient tables require exactly this convention.
Holomorphic pairs vanish for the complex ensembles, so their pairings are
bijections between conjugated and unconjugated slots; real slots pair
freely.

Closed trace moments <prod_i tr((M M+)^{k_i})> come from the loop equation
(Gaussian integration by parts), a recursion on the trace powers that
enumerates no pairings; see Haagerup and Thorbjornsen, Expo. Math. 21
(2003), for the complex case and Forrester, Rahman and Witte, J. Math.
Phys. 58 (2017), for the real one.

Weighted Gram products <w (M M+)_(i1,l1) ... (M M+)_(ik,lk)> with w a
class function of M M+ come by invariance, again without pairings: the
measure is invariant under M -> O M O'^T, U M V and S -> U S U^T, so the
moment is a combination of delta structures whose coefficients depend
only on a partition of k, and contracting with one structure per
partition leaves a small linear system over closed trace moments (see
gram_product_moment; Collins, IMRN 2003, no. 17, and Collins and
Matsumoto, Weingarten calculus via orthogonality relations, 2017).

Any other moment with free or concrete indices is a sum over pairings of
products of the elementary contractions above, followed by contraction of
all internal (summed) indices: every closed all-summed index loop yields
one factor N.  The engine walks the pairing tree depth-first, carrying a
union-find over index labels that it rolls back on backtracking, so the
per-pairing cost is a handful of array operations.  At total degree 16-18
there are 15!! to 17!! pairings; they are streamed, never materialized,
and the walk can be split over worker processes at the first branching
level.

Labels in a monomial are symbolic (str, a free index), concrete (int, a
fixed matrix index) or internal summed tokens generated by the trace and
(M M+)-block wirings.
"""

from __future__ import annotations

import enum
import itertools
import os
import re
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .algebra import Poly, RatFunc, solve_linear_system
from .combinatorics import (
    DeltaStructure,
    Partition,
    _label_sort_key,
    check_partition,
    contract_deltas,
    double_factorial,
    partitions_of,
    perfect_matchings,
    set_partitions,
)

#: Cap on worker processes; None means os.cpu_count().  The CLI --threads
#: flag overrides this.
DEFAULT_WORKERS: int | None = None

_PARALLEL_MIN_LEAVES = 500_000


class Ensemble(str, enum.Enum):
    """Target matrix space, which fixes the elementary contraction rule."""

    ORTHOGONAL = "orthogonal"
    UNITARY = "unitary"
    COE = "coe"

    @property
    def complex_entries(self) -> bool:
        return self is not Ensemble.ORTHOGONAL

    @property
    def two_term(self) -> bool:
        return self is Ensemble.COE

    @property
    def pair_denominator(self) -> Poly:
        """Normalizer of one elementary contraction: N, or N+1 for the COE."""
        return Poly((1, 1)) if self is Ensemble.COE else Poly((0, 1))


class Slot(NamedTuple):
    """One matrix-entry factor M_(row,col), optionally conjugated."""

    row: object
    col: object
    conj: bool = False


_SLOT_RE = re.compile(r"(Mc?)\[\s*([A-Za-z_]\w*|\d+)\s*,\s*([A-Za-z_]\w*|\d+)\s*\]\Z")


def _parse_index(tok: str):
    return int(tok) if tok.isdigit() else tok


@dataclass(frozen=True)
class MonomialSpec:
    """An ordered product of matrix-entry factors."""

    slots: tuple[Slot, ...]

    def __post_init__(self):
        if not self.slots:
            raise ValueError("monomial must have at least one factor")

    @staticmethod
    def parse(text: str) -> "MonomialSpec":
        """Parse 'M[i,j] Mc[1,2] ...'; Mc is the conjugated entry."""
        slots = []
        for tok in text.split():
            m = _SLOT_RE.match(tok)
            if not m:
                raise ValueError(f"bad monomial factor {tok!r}; expected M[i,j] or Mc[i,j]")
            slots.append(Slot(_parse_index(m.group(2)), _parse_index(m.group(3)), m.group(1) == "Mc"))
        if not slots:
            raise ValueError("empty monomial")
        return MonomialSpec(tuple(slots))

    def validate(self, ensemble: Ensemble) -> None:
        if not ensemble.complex_entries and any(s.conj for s in self.slots):
            raise ValueError("conjugated entries are not defined for the orthogonal ensemble")

    @property
    def degree(self) -> int:
        return len(self.slots)

    def is_concrete(self) -> bool:
        return all(isinstance(s.row, int) and isinstance(s.col, int) for s in self.slots)


# -- delta expansions -----------------------------------------------------------------


class DeltaExpansion:
    """Linear combination of delta structures with RatFunc coefficients.

    The canonical form of any entry-monomial integral: keys are the residual
    equality structures on the free labels (see combinatorics.contract_deltas),
    values are exact rational functions of N.  Zero coefficients are dropped,
    so equality of expansions is dict equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[DeltaStructure, RatFunc] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @staticmethod
    def zero() -> "DeltaExpansion":
        return DeltaExpansion()

    @staticmethod
    def unit(coeff: RatFunc | int = 1) -> "DeltaExpansion":
        return DeltaExpansion({(): RatFunc(coeff) if not isinstance(coeff, RatFunc) else coeff})

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, DeltaExpansion) and self.terms == other.terms

    def __add__(self, other: "DeltaExpansion") -> "DeltaExpansion":
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k)
            out[k] = v if s is None else s + v
        return DeltaExpansion(out)

    def __sub__(self, other: "DeltaExpansion") -> "DeltaExpansion":
        return self + other.scale(RatFunc(-1))

    def scale(self, c: RatFunc) -> "DeltaExpansion":
        if not c:
            return DeltaExpansion()
        return DeltaExpansion({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "DeltaExpansion") -> "DeltaExpansion":
        """Product of expansions over disjoint free-label sets."""
        out: dict[DeltaStructure, RatFunc] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                k = tuple(sorted(ka + kb, key=lambda b: tuple(_label_sort_key(x) for x in b[0])))
                v = va * vb
                s = out.get(k)
                out[k] = v if s is None else s + v
        return DeltaExpansion(out)

    def rename(self, mapping: dict[str, str]) -> "DeltaExpansion":
        out: dict[DeltaStructure, RatFunc] = {}
        for k, v in self.terms.items():
            blocks = []
            for labels, anchor in k:
                blocks.append((tuple(sorted((mapping.get(x, x) for x in labels), key=_label_sort_key)), anchor))
            blocks.sort(key=lambda b: tuple(_label_sort_key(x) for x in b[0]))
            out[tuple(blocks)] = v
        return DeltaExpansion(out)

    def as_ratfunc(self) -> RatFunc:
        """Collapse an expansion with no residual deltas to its scalar."""
        if not self.terms:
            return RatFunc(0)
        if set(self.terms) == {()}:
            return self.terms[()]
        raise ValueError("expansion still carries free-index deltas")

    def min_order(self) -> int | None:
        """Smallest decay exponent among the coefficients; None if empty."""
        orders = [v.order() for v in self.terms.values()]
        return min(orders) if orders else None

    def to_json(self) -> list:
        out = []
        for k, v in self.items():
            deltas = []
            for labels, anchor in k:
                base = str(anchor) if anchor is not None else labels[0]
                rest = labels if anchor is not None else labels[1:]
                deltas.extend([base, lab] for lab in rest)
            out.append({"deltas": deltas, "coeff": v.to_json()})
        return out

    @staticmethod
    def from_json(obj: list) -> "DeltaExpansion":
        """Inverse of to_json.  Numeric strings in the delta pairs are the
        concrete anchors (symbolic labels are identifiers, never digits)."""
        terms: dict[DeltaStructure, RatFunc] = {}
        for entry in obj:
            edges = []
            for a, b in entry["deltas"]:
                edges.append((int(a) if a.isdigit() else a, int(b) if b.isdigit() else b))
            res = contract_deltas(edges, ())
            if res is None:
                raise ValueError("inconsistent delta pattern in serialized expansion")
            structure, _ = res
            terms[structure] = RatFunc.from_json(entry["coeff"])
        return DeltaExpansion(terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "DeltaExpansion(0)"
        bits = []
        for k, v in self.items():
            pat = "".join(
                "d(" + ",".join(str(x) for x in labels) + ("," + str(a) if a is not None else "") + ")"
                for labels, a in k
            )
            bits.append(f"[{v}]{pat or '1'}")
        return "DeltaExpansion(" + " + ".join(bits) + ")"


# -- wiring helpers --------------------------------------------------------------------


class _FreshSummed:
    """Generates unique internal summed-index tokens.

    Tokens from different generators collide, so a generator joining new
    wiring onto existing slots must start past their tokens (see
    offset_past).
    """

    def __init__(self, start: int = 0):
        self._i = start

    def __call__(self) -> tuple:
        self._i += 1
        return ("~", self._i)

    @staticmethod
    def offset_past(slots: Sequence[Slot]) -> "_FreshSummed":
        top = 0
        for s in slots:
            for lab in (s.row, s.col):
                if isinstance(lab, tuple):
                    top = max(top, lab[1])
        return _FreshSummed(top)


def invariant_slots(ensemble: Ensemble, partition: Partition, fresh: _FreshSummed) -> list[Slot]:
    """Slots of prod_i tr((M M+)^{k_i}) with fresh summed indices.

    One factor (M M+)_{a,a'} contributes M_(a,b) times the adjoint entry:
    M_(a',b) for real entries, ~M_(a',b) for the unitary case, and ~S_(b,a')
    for the symmetric COE matrices (whose adjoint is the entrywise
    conjugate).
    """
    slots: list[Slot] = []
    for part in partition:
        a = [fresh() for _ in range(part)]
        b = [fresh() for _ in range(part)]
        for v in range(part):
            an = a[(v + 1) % part]
            slots.append(Slot(a[v], b[v], False))
            if ensemble is Ensemble.ORTHOGONAL:
                slots.append(Slot(an, b[v], False))
            elif ensemble is Ensemble.UNITARY:
                slots.append(Slot(an, b[v], True))
            else:
                slots.append(Slot(b[v], an, True))
    return slots


def gram_block_slots(ensemble: Ensemble, row, col, fresh: _FreshSummed) -> list[Slot]:
    """Slots of a single entrywise block (M M+)_(row,col)."""
    b = fresh()
    if ensemble is Ensemble.ORTHOGONAL:
        return [Slot(row, b, False), Slot(col, b, False)]
    if ensemble is Ensemble.UNITARY:
        return [Slot(row, b, False), Slot(col, b, True)]
    return [Slot(row, b, False), Slot(b, col, True)]


# -- compilation ------------------------------------------------------------------------


class _Comp(NamedTuple):
    mode: int  # 0 = real (free pairing), 1 = bipartite, 2 = bipartite two-term
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    nv: int
    a_list: tuple[int, ...]
    b_list: tuple[int, ...]
    anch: tuple[bool, ...]
    vals: tuple[tuple[int, int], ...]
    free_ids: tuple[int, ...]
    m: int


def _compile(ensemble: Ensemble, slots: Sequence[Slot]):
    """Map labels to dense vertex ids; returns (_Comp, id->label) or None.

    None means the moment vanishes structurally (odd degree, or unbalanced
    conjugation for complex entries).
    """
    n = len(slots)
    if n % 2:
        return None
    if ensemble.complex_entries:
        a_list = tuple(i for i, s in enumerate(slots) if not s.conj)
        b_list = tuple(i for i, s in enumerate(slots) if s.conj)
        if len(a_list) != len(b_list):
            return None
        mode = 2 if ensemble.two_term else 1
    else:
        if any(s.conj for s in slots):
            raise ValueError("conjugated entries are not defined for the orthogonal ensemble")
        a_list = tuple(range(n))
        b_list = ()
        mode = 0
    ids: dict = {}
    rows, cols = [], []
    for s in slots:
        for lab, acc in ((s.row, rows), (s.col, cols)):
            v = ids.get(lab)
            if v is None:
                v = ids[lab] = len(ids)
            acc.append(v)
    anch = [False] * len(ids)
    vals = []
    free_ids = []
    for lab, v in ids.items():
        if isinstance(lab, str):
            anch[v] = True
            free_ids.append(v)
        elif isinstance(lab, int):
            anch[v] = True
            vals.append((v, lab))
    comp = _Comp(
        mode, tuple(rows), tuple(cols), len(ids), a_list, b_list,
        tuple(anch), tuple(vals), tuple(free_ids), n // 2,
    )
    labels = {v: lab for lab, v in ids.items()}
    return comp, labels


def _leaf_estimate(comp: _Comp) -> int:
    if comp.mode == 0:
        return double_factorial(2 * comp.m - 1)
    est = 1
    for i in range(1, comp.m + 1):
        est *= i
    if comp.mode == 2:
        est <<= comp.m
    return est


# -- open kernel: pairing walk over entry monomials ----------------------------------------
#
# State: parent/size union-find without path compression (compression would
# break rollback) and a trail of merged roots to undo on backtracking.  The
# linked list nxt[] holds the unmatched slots; the lowest one is always
# matched next, which makes the walk deterministic and the tree minimal.
# Per-root bookkeeping: anch marks components containing a free or
# concrete label, val carries the concrete index a component is pinned to.
# n_pure counts unanchored components (each worth a factor N at the leaf).
# A merge of two distinct concrete values kills the whole subtree.


class _OpenState:
    __slots__ = ("parent", "size", "anch", "val", "n_pure", "trail")

    def __init__(self, comp: _Comp):
        self.parent = list(range(comp.nv))
        self.size = [1] * comp.nv
        self.anch = list(comp.anch)
        self.val: list = [None] * comp.nv
        for v, x in comp.vals:
            self.val[v] = x
        self.n_pure = comp.nv - sum(comp.anch)
        self.trail: list = []

    def link(self, x: int, y: int) -> bool:
        parent = self.parent
        a = x
        while parent[a] != a:
            a = parent[a]
        b = y
        while parent[b] != b:
            b = parent[b]
        if a == b:
            return True
        val = self.val
        va, vb = val[a], val[b]
        if va is not None and vb is not None and va != vb:
            return False
        size = self.size
        if size[a] < size[b]:
            a, b = b, a
            va, vb = vb, va
        anch = self.anch
        self.trail.append((b, a, anch[a], val[a]))
        parent[b] = a
        size[a] += size[b]
        if not (anch[a] and anch[b]):
            self.n_pure -= 1
            if anch[b]:
                anch[a] = True
        if va is None and vb is not None:
            val[a] = vb
        return True

    def undo_to(self, t: int) -> None:
        trail = self.trail
        parent, size, anch, val = self.parent, self.size, self.anch, self.val
        while len(trail) > t:
            b, a, pa, pv = trail.pop()
            parent[b] = b
            size[a] -= size[b]
            if not (pa and anch[b]):
                self.n_pure += 1
            anch[a] = pa
            val[a] = pv

    def leaf_key(self, free_ids: tuple[int, ...]):
        parent, val = self.parent, self.val
        groups: dict[int, list[int]] = {}
        for f in free_ids:
            a = f
            while parent[a] != a:
                a = parent[a]
            g = groups.get(a)
            if g is None:
                groups[a] = [f]
            else:
                g.append(f)
        blocks = []
        for r, mem in groups.items():
            v = val[r]
            if v is None and len(mem) == 1:
                continue
            blocks.append((tuple(mem), v))
        blocks.sort(key=lambda blk: blk[0])
        return tuple(blocks)

    def leaf_roots(self, free_ids: tuple[int, ...]) -> tuple[int, ...]:
        """Cheap leaf signature when no concrete values are in play: the
        root of each free vertex.  Grouping by signature is finer than
        grouping by pattern, so keys are canonicalized after the walk."""
        parent = self.parent
        out = []
        for f in free_ids:
            while parent[f] != f:
                f = parent[f]
            out.append(f)
        return tuple(out)


def _open_real(comp: _Comp, rest: list[int], st: _OpenState, counts: dict) -> None:
    rows, cols, free_ids = comp.rows, comp.cols, comp.free_ids
    n = len(rows)
    SEN = n
    nxt = [0] * (n + 1)
    for i in range(len(rest) - 1):
        nxt[rest[i]] = rest[i + 1]
    if rest:
        nxt[rest[-1]] = SEN
    fast = not comp.vals

    # n_pure rides along as a recursion argument
    # so rollback never has to restore it
    def rec(h, remaining, npure, rows=rows, cols=cols, parent=st.parent, size=st.size,
            anch=st.anch, val=st.val, trail=st.trail, nxt=nxt, SEN=SEN,
            counts=counts, free_ids=free_ids, fast=fast, st=st):
        h2 = nxt[h]
        rh = rows[h]
        ch = cols[h]
        q = -1
        p = h2
        while p != SEN:
            pn = nxt[p]
            if q < 0:
                newhead = pn
            else:
                nxt[q] = pn
                newhead = h2
            t0 = len(trail)
            np2 = npure
            ok = True
            for x, y in ((rh, rows[p]), (ch, cols[p])):
                a = x
                while parent[a] != a:
                    a = parent[a]
                b = y
                while parent[b] != b:
                    b = parent[b]
                if a == b:
                    continue
                va = val[a]
                vb = val[b]
                if va is not None and vb is not None and va != vb:
                    ok = False
                    break
                if size[a] < size[b]:
                    a, b = b, a
                    va, vb = vb, va
                trail.append((b, a, anch[a], val[a]))
                parent[b] = a
                size[a] += size[b]
                if anch[a]:
                    if not anch[b]:
                        np2 -= 1
                else:
                    np2 -= 1
                    if anch[b]:
                        anch[a] = True
                if va is None and vb is not None:
                    val[a] = vb
            if ok:
                if remaining == 2:
                    if fast:
                        out = []
                        for f in free_ids:
                            while parent[f] != f:
                                f = parent[f]
                            out.append(f)
                        key = (tuple(out), np2)
                    else:
                        st.n_pure = np2
                        key = (st.leaf_key(free_ids), np2)
                    counts[key] = counts.get(key, 0) + 1
                else:
                    rec(newhead, remaining - 2, np2)
            while len(trail) > t0:
                b, a, pa, pv = trail.pop()
                parent[b] = b
                size[a] -= size[b]
                anch[a] = pa
                val[a] = pv
            if q >= 0:
                nxt[q] = p
            q = p
            p = pn

    if not rest:
        leaf = st.leaf_roots if fast else st.leaf_key
        key = (leaf(free_ids), st.n_pure)
        counts[key] = counts.get(key, 0) + 1
        return
    rec(rest[0], len(rest), st.n_pure)


def _open_bip(comp: _Comp, ai0: int, b_rest: list[int], st: _OpenState, counts: dict) -> None:
    rows, cols, free_ids = comp.rows, comp.cols, comp.free_ids
    a_list = comp.a_list
    two = comp.mode == 2
    n = len(rows)
    SEN = n
    nxt = [0] * (n + 1)
    for i in range(len(b_rest) - 1):
        nxt[b_rest[i]] = b_rest[i + 1]
    if b_rest:
        nxt[b_rest[-1]] = SEN
    fast = not comp.vals
    m = comp.m

    def rec(i, h, npure, rows=rows, cols=cols, parent=st.parent, size=st.size,
            anch=st.anch, val=st.val, trail=st.trail, nxt=nxt, SEN=SEN,
            counts=counts, free_ids=free_ids, fast=fast, st=st, a_list=a_list,
            m=m, two=two):
        s = a_list[i]
        rh = rows[s]
        ch = cols[s]
        last = i + 1 == m
        q = -1
        p = h
        while p != SEN:
            pn = nxt[p]
            if q < 0:
                newhead = pn
            else:
                nxt[q] = pn
                newhead = h
            for variant in (0, 1) if two else (0,):
                if variant == 0:
                    wires = ((rh, rows[p]), (ch, cols[p]))
                else:
                    wires = ((rh, cols[p]), (ch, rows[p]))
                t0 = len(trail)
                np2 = npure
                ok = True
                for x, y in wires:
                    a = x
                    while parent[a] != a:
                        a = parent[a]
                    b = y
                    while parent[b] != b:
                        b = parent[b]
                    if a == b:
                        continue
                    va = val[a]
                    vb = val[b]
                    if va is not None and vb is not None and va != vb:
                        ok = False
                        break
                    if size[a] < size[b]:
                        a, b = b, a
                        va, vb = vb, va
                    trail.append((b, a, anch[a], val[a]))
                    parent[b] = a
                    size[a] += size[b]
                    if anch[a]:
                        if not anch[b]:
                            np2 -= 1
                    else:
                        np2 -= 1
                        if anch[b]:
                            anch[a] = True
                    if va is None and vb is not None:
                        val[a] = vb
                if ok:
                    if last:
                        if fast:
                            out = []
                            for f in free_ids:
                                while parent[f] != f:
                                    f = parent[f]
                                out.append(f)
                            key = (tuple(out), np2)
                        else:
                            st.n_pure = np2
                            key = (st.leaf_key(free_ids), np2)
                        counts[key] = counts.get(key, 0) + 1
                    else:
                        rec(i + 1, newhead, np2)
                while len(trail) > t0:
                    b, a, pa, pv = trail.pop()
                    parent[b] = b
                    size[a] -= size[b]
                    anch[a] = pa
                    val[a] = pv
            if q >= 0:
                nxt[q] = p
            q = p
            p = pn

    if not b_rest:
        leaf = st.leaf_roots if fast else st.leaf_key
        key = (leaf(free_ids), st.n_pure)
        counts[key] = counts.get(key, 0) + 1
        return
    rec(ai0, b_rest[0], st.n_pure)


# -- dispatch and parallel splitting ------------------------------------------------------


def _canonical_root_counts(counts: dict, free_ids: tuple[int, ...]) -> dict:
    """Regroup raw leaf-root signatures into canonical block patterns."""
    out: dict = {}
    conv: dict = {}
    for (roots, n_pure), c in counts.items():
        blocks = conv.get(roots)
        if blocks is None:
            groups: dict[int, list[int]] = {}
            for f, r in zip(free_ids, roots):
                groups.setdefault(r, []).append(f)
            blocks = tuple(sorted((tuple(mem), None) for mem in groups.values() if len(mem) > 1))
            conv[roots] = blocks
        key = (blocks, n_pure)
        out[key] = out.get(key, 0) + c
    return out


def _open_task(args):
    comp, prefix = args
    comp = _Comp(*comp)
    st = _OpenState(comp)
    rows, cols = comp.rows, comp.cols
    counts: dict = {}
    for sa, sb, variant in prefix:
        if variant == 0:
            ok = st.link(rows[sa], rows[sb]) and st.link(cols[sa], cols[sb])
        else:
            ok = st.link(rows[sa], cols[sb]) and st.link(cols[sa], rows[sb])
        if not ok:
            return counts
    used = {s for sa_sb_v in prefix for s in sa_sb_v[:2]}
    if comp.mode == 0:
        rest = [s for s in comp.a_list if s not in used]
        _open_real(comp, rest, st, counts)
    else:
        b_rest = [s for s in comp.b_list if s not in used]
        _open_bip(comp, len(prefix), b_rest, st, counts)
    if not comp.vals:
        counts = _canonical_root_counts(counts, comp.free_ids)
    return counts


def _prefixes(comp: _Comp) -> list[list[tuple[int, int, int]]]:
    """First-level branch prefixes; subtrees are equal-sized, so splitting
    at depth one is enough to balance a handful of workers."""
    variants = (0, 1) if comp.mode == 2 else (0,)
    out = []
    if comp.mode == 0:
        first = comp.a_list[0]
        for p in comp.a_list[1:]:
            out.append([(first, p, 0)])
    else:
        first = comp.a_list[0]
        for p in comp.b_list:
            for v in variants:
                out.append([(first, p, v)])
    return out


def resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = DEFAULT_WORKERS
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, int(workers))


def _run_parallel(comp: _Comp, task, merge, init, workers: int):
    import multiprocessing as mp

    prefixes = _prefixes(comp)
    args = [(tuple(comp), p) for p in prefixes]
    # never more processes than cores or tasks, whatever was asked for
    size = min(workers, os.cpu_count() or 1, len(prefixes))
    try:
        ctx = mp.get_context("fork")
        with ctx.Pool(size) as pool:
            acc = init
            for part in pool.imap_unordered(task, args):
                acc = merge(acc, part)
            return acc
    except (OSError, ValueError):
        acc = init
        for a in args:
            acc = merge(acc, task(a))
        return acc


def _merge_counts(a: dict, b: dict) -> dict:
    for k, v in b.items():
        a[k] = a.get(k, 0) + v
    return a


def _sum_open(comp: _Comp, workers: int) -> dict:
    if workers > 1 and _leaf_estimate(comp) >= _PARALLEL_MIN_LEAVES:
        return _run_parallel(comp, _open_task, _merge_counts, {}, workers)
    return _open_task((tuple(comp), []))


def _ratfunc_from_powers(powers: dict[int, int]) -> RatFunc:
    """Sum of count * N^power over entries, as one canonical rational function."""
    powers = {p: c for p, c in powers.items() if c}
    if not powers:
        return RatFunc(0)
    shift = min(0, min(powers))
    coeffs = [0] * (max(powers) - shift + 1)
    for p, c in powers.items():
        coeffs[p - shift] = c
    return RatFunc(Poly(coeffs), Poly.n_power(-shift))


# -- public moments -----------------------------------------------------------------------


def elementary_contraction(ensemble: Ensemble, slot_a: Slot, slot_b: Slot) -> DeltaExpansion:
    """Second moment of a pair of entries under the ensemble's rule."""
    for s in (slot_a, slot_b):
        if not ensemble.complex_entries and s.conj:
            raise ValueError("conjugated entries are not defined for the orthogonal ensemble")
    if ensemble.complex_entries and slot_a.conj == slot_b.conj:
        return DeltaExpansion.zero()
    wirings = [((slot_a.row, slot_b.row), (slot_a.col, slot_b.col))]
    if ensemble.two_term:
        wirings.append(((slot_a.row, slot_b.col), (slot_a.col, slot_b.row)))
    inv = RatFunc(1, ensemble.pair_denominator)
    out = DeltaExpansion.zero()
    for edges in wirings:
        res = contract_deltas(edges, ())
        if res is None:
            continue
        structure, power = res
        out = out + DeltaExpansion({structure: inv * RatFunc.n_power(power)})
    return out


def _slots_expansion(ensemble: Ensemble, slots: Sequence[Slot], workers: int | None = None) -> DeltaExpansion:
    """<product of slots>_g as a delta expansion over the free labels."""
    if not slots:
        return DeltaExpansion.unit()
    compiled = _compile(ensemble, slots)
    if compiled is None:
        return DeltaExpansion.zero()
    comp, labels = compiled
    counts = _sum_open(comp, resolve_workers(workers))
    scale = RatFunc(1, ensemble.pair_denominator ** comp.m)
    by_pattern: dict[tuple, dict[int, int]] = {}
    for (key, n_pure), c in counts.items():
        d = by_pattern.setdefault(key, {})
        d[n_pure] = d.get(n_pure, 0) + c
    out: dict[DeltaStructure, RatFunc] = {}
    for key, powers in by_pattern.items():
        blocks = []
        for mem, anchor in key:
            blocks.append((tuple(sorted((labels[v] for v in mem), key=_label_sort_key)), anchor))
        blocks.sort(key=lambda blk: tuple(_label_sort_key(x) for x in blk[0]))
        coeff = _ratfunc_from_powers(powers) * scale
        k = tuple(blocks)
        prev = out.get(k)
        out[k] = coeff if prev is None else prev + coeff
    return DeltaExpansion(out)


def gaussian_entry_moment(ensemble: Ensemble, monomial: MonomialSpec, workers: int | None = None) -> DeltaExpansion:
    """Gaussian average of an entry monomial, summed over all Wick pairings."""
    monomial.validate(ensemble)
    return _slots_expansion(ensemble, monomial.slots, workers)


#: (ensemble, powers) -> numerator of every loop-equation state visited so far
_trace_memo: dict[tuple, list[int]] = {}


def _loop_numerator(ensemble: Ensemble, powers: tuple[int, ...]) -> list[int]:
    """Ascending integer coefficients of d^m <prod_i tr W^{k_i}>, W = M M+.

    powers holds the k_i >= 1 in decreasing order, m is their sum and d the
    pair denominator.  Integration by parts on the entries of the largest
    power k, with R the other traces and tr W^0 = N, gives the loop equation

        d <tr W^k R> = sum_{j<k} <tr W^j tr W^{k-1-j} R> + t_k <tr W^{k-1} R>
                       + sum_{tr W^l in R} c l <tr W^{k+l-1} (R without tr W^l)>

    with (t_k, c) = (0, 1) unitary, (k-1, 2) orthogonal, (k, 2) COE.  Every
    term on the right has total power m-1, so numerators simply add.
    """
    key = (ensemble, powers)
    hit = _trace_memo.get(key)
    if hit is not None:
        return hit
    if not powers:
        return [1]
    k, rest = powers[0], powers[1:]
    c = 1 if ensemble is Ensemble.UNITARY else 2
    t = {Ensemble.UNITARY: 0, Ensemble.ORTHOGONAL: k - 1, Ensemble.COE: k}[ensemble]
    terms = [(1, (j, k - 1 - j) + rest) for j in range(k)]
    terms.append((t, (k - 1,) + rest))
    terms.extend((c * l, (k + l - 1,) + rest[:i] + rest[i + 1:]) for i, l in enumerate(rest))
    out: list[int] = []
    for coeff, sub in terms:
        if not coeff:
            continue
        shift = sub.count(0)  # each tr W^0 is a factor N
        num = _loop_numerator(ensemble, tuple(sorted((x for x in sub if x), reverse=True)))
        out.extend([0] * (len(num) + shift - len(out)))
        for e, x in enumerate(num, start=shift):
            out[e] += coeff * x
    _trace_memo[key] = out
    return out


def gaussian_trace_moment(
    ensemble: Ensemble,
    invariants: Iterable[Partition],
    *,
    use_disk: bool = True,
) -> RatFunc:
    """Exact <prod_i tr((M M+)^{k_i})>_g as a rational function of N, by the
    loop equation (see _loop_numerator); memoized in memory.

    use_disk is accepted for older callers and ignored: trace moments are
    no longer stored on disk.
    """
    powers = tuple(sorted((x for p in invariants for x in check_partition(p)), reverse=True))
    num = _loop_numerator(ensemble, powers)
    return RatFunc(Poly(num), ensemble.pair_denominator ** sum(powers))


def moment_with_invariants(
    ensemble: Ensemble,
    slots: Sequence[Slot],
    invariants: Iterable[Partition],
    workers: int | None = None,
) -> DeltaExpansion:
    """<prod_i tr((M M+)^{k_i}) * prod slots>_g with fresh internal indices."""
    fresh = _FreshSummed.offset_past(slots)
    flat: Partition = tuple(sorted((x for p in invariants for x in p), reverse=True))
    full = invariant_slots(ensemble, flat, fresh) + list(slots)
    return _slots_expansion(ensemble, full, workers)


def gram_product_slots(ensemble: Ensemble, k: int) -> tuple[list[Slot], list[tuple[str, str]]]:
    """Slots of (M M+)_(i1,l1) ... (M M+)_(ik,lk) plus the label pairs."""
    fresh = _FreshSummed()
    slots: list[Slot] = []
    labels = []
    for v in range(1, k + 1):
        slots.extend(gram_block_slots(ensemble, f"i{v}", f"l{v}", fresh))
        labels.append((f"i{v}", f"l{v}"))
    return slots, labels


# -- Gram products by invariance ----------------------------------------------------------
#
# Label 2v-2 is i_v and 2v-1 is l_v, so x ^ 1 is the other end of block v.
# A structure pi is a partner list over the 2k labels: a perfect matching
# for the orthogonal ensemble, the pairs (i_v, l_sigma(v)) otherwise.


def _loop_lengths(mate: Sequence[int], other: Sequence[int] | None = None) -> Partition:
    """Half-lengths of the cycles of mate joined with other (default: the
    blocks (i_v, l_v)), as a partition.  With the blocks this is the cycle
    type of sigma, or the coset type of a matching; with another structure
    its length is the number of closed index loops of the pair."""
    seen = [False] * len(mate)
    parts = []
    for start in range(len(mate)):
        if seen[start]:
            continue
        n, x = 0, start
        while not seen[x]:
            y = x ^ 1 if other is None else other[x]
            seen[x] = seen[y] = True
            n += 1
            x = mate[y]
        parts.append(n)
    return tuple(sorted(parts, reverse=True))


#: (orthogonal, k) -> (classes, [(structure, class index)], A); no weight enters
_gram_basis_memo: dict[tuple[bool, int], tuple] = {}


def _gram_basis(orthogonal: bool, k: int) -> tuple:
    hit = _gram_basis_memo.get((orthogonal, k))
    if hit is not None:
        return hit
    if orthogonal:
        pairings = perfect_matchings(2 * k)
    else:
        pairings = (tuple((2 * v, 2 * s + 1) for v, s in enumerate(sigma))
                    for sigma in itertools.permutations(range(k)))
    names = [f"{'il'[x % 2]}{x // 2 + 1}" for x in range(2 * k)]
    classes = list(partitions_of(k))
    index = {lam: c for c, lam in enumerate(classes)}
    mates, members, reps = [], [], {}
    for pairs in pairings:
        mate = [0] * (2 * k)
        for a, b in pairs:
            mate[a], mate[b] = b, a
        c = index[_loop_lengths(mate)]
        reps.setdefault(c, mate)
        structure, _ = contract_deltas([(names[a], names[b]) for a, b in pairs], ())
        mates.append((mate, c))
        members.append((structure, c))
    matrix = []
    for lam in range(len(classes)):
        powers = [dict() for _ in classes]
        for mate, c in mates:
            loops = len(_loop_lengths(mate, reps[lam]))
            powers[c][loops] = powers[c].get(loops, 0) + 1
        matrix.append([_ratfunc_from_powers(p) for p in powers])
    _gram_basis_memo[orthogonal, k] = (classes, members, matrix)
    return classes, members, matrix


def gram_product_moment(ensemble: Ensemble, coefficients: dict[Partition, RatFunc], k: int) -> DeltaExpansion:
    """<w (M M+)_(i1,l1) ... (M M+)_(ik,lk)>_g for w = sum_p a_p I_p, by invariance.

    The moment is sum_pi c_(class pi) d_pi over the index structures pi:
    perfect matchings of the 2k labels (orthogonal) or the pairings
    i_v ~ l_sigma(v) (unitary, COE), with class the coset or cycle type, a
    partition of k.  Contracting with one structure rho_lam per class turns
    the blocks into p_lam(W) = prod_j tr W^{lam_j} and gives the p(k) x p(k)
    system sum_mu A_(lam,mu) c_mu = sum_p a_p <I_p p_lam(W)>_g, with
    A_(lam,mu) = sum over pi of class mu of N^(loops of pi and rho_lam).
    """
    classes, members, matrix = _gram_basis(ensemble is Ensemble.ORTHOGONAL, k)
    rhs = []
    for lam in classes:
        acc = RatFunc(0)
        for p, a in coefficients.items():
            if a:
                acc = acc + a * gaussian_trace_moment(ensemble, [p, lam])
        rhs.append(acc)
    coeffs = solve_linear_system(matrix, rhs)
    return DeltaExpansion({structure: coeffs[c] for structure, c in members})


def delta_product_target(k: int) -> DeltaExpansion:
    """The target-space value of the entrywise product: d(i1,l1)...d(ik,lk)."""
    structure, _ = contract_deltas([(f"i{v}", f"l{v}") for v in range(1, k + 1)], ())
    return DeltaExpansion({structure: RatFunc(1)})


# -- connected (completely correlated) parts ----------------------------------------------


def cumulants_from_moments(items: Sequence, moment_fn: Callable[[tuple], DeltaExpansion]) -> DeltaExpansion:
    """Connected part of the full item list under block factorization.

    moment_fn maps a tuple of items to the full Gaussian moment of their
    combined product.  The connected part subtracts, recursively, every
    splitting into two or more complete contractions.
    """
    memo: dict[frozenset, DeltaExpansion] = {}

    def cumulant(sub: tuple) -> DeltaExpansion:
        key = frozenset(sub)
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = moment_fn(sub)
        for blocks in set_partitions(sub):
            if len(blocks) < 2:
                continue
            prod = DeltaExpansion.unit()
            for b in blocks:
                prod = prod * cumulant(tuple(b))
            total = total - prod
        memo[key] = total
        return total

    return cumulant(tuple(items))


def connected_entry_moment(ensemble: Ensemble, k: int) -> DeltaExpansion:
    """Connected part of <(M M+)_(i1,l1) ... (M M+)_(ik,lk)>_g."""
    if k < 1:
        raise ValueError("need at least one factor")
    by_size: dict[int, DeltaExpansion] = {}

    def moment_fn(sub: tuple) -> DeltaExpansion:
        s = len(sub)
        if s not in by_size:
            by_size[s] = gram_product_moment(ensemble, {(): RatFunc(1)}, s)
        mapping = {}
        for t, v in enumerate(sorted(sub), start=1):
            mapping[f"i{t}"] = f"i{v}"
            mapping[f"l{t}"] = f"l{v}"
        return by_size[s].rename(mapping)

    return cumulants_from_moments(tuple(range(1, k + 1)), moment_fn)


def connected_trace_moment(ensemble: Ensemble, invariants: Sequence[Partition]) -> RatFunc:
    """Connected part of a product of trace invariants (scalar case)."""
    items = tuple(range(len(invariants)))
    parts = [check_partition(p) for p in invariants]

    def moment_fn(sub: tuple) -> DeltaExpansion:
        val = gaussian_trace_moment(ensemble, [parts[i] for i in sub])
        return DeltaExpansion.unit(val)

    return cumulants_from_moments(items, moment_fn).as_ratfunc()
