"""Exact set algebra over bit-packed subsets of a finite abelian group.

Sets are python ints used as bitmaps over element indices.  The workhorse
is `groups._shift_mask`: translating a set by a group element is a
mixed-radix rotation of its bitmap, done per invariant factor with
word-level shift/or, so a sumset costs O(|B|) big-int rotations.  It lives
in `groups` with the strides and rotation masks it reads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .groups import (
    Element,
    Group,
    GroupMismatchError,
    Subgroup,
    _shift_mask,
    quotient,
)


class GroupSet:
    """A subset of a group as a flat bitmap with cached cardinality."""

    __slots__ = ("group", "mask", "_card")

    def __init__(self, group: Group, mask: int = 0):
        if mask < 0 or mask >> group.order:
            raise ValueError("mask has bits outside the group")
        self.group = group
        self.mask = mask
        self._card = None

    @classmethod
    def from_indices(cls, group, indices):
        mask = 0
        for i in indices:
            i = i.index if isinstance(i, Element) else int(i)
            if not 0 <= i < group.order:
                raise ValueError(f"element index {i} out of range")
            mask |= 1 << i
        return cls(group, mask)

    @classmethod
    def full(cls, group):
        return cls(group, group.full_mask)

    @property
    def card(self) -> int:
        if self._card is None:
            self._card = self.mask.bit_count()
        return self._card

    def members(self):
        return list(_iter_bits(self.mask))

    def elements(self):
        return [Element(self.group, i) for i in _iter_bits(self.mask)]

    def complement(self) -> "GroupSet":
        return GroupSet(self.group, self.group.full_mask ^ self.mask)

    def literal(self) -> str:
        """Canonical text form: sorted element literals joined by `;`."""
        return ";".join(self.group.element_literal(i) for i in _iter_bits(self.mask))

    def __contains__(self, x):
        i = x.index if isinstance(x, Element) else int(x)
        return bool(self.mask >> i & 1)

    def __len__(self):
        return self.card

    def __eq__(self, other):
        return (
            isinstance(other, GroupSet)
            and self.group == other.group
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.group, self.mask))

    def __repr__(self):
        return f"GroupSet({self.group.spec()}, {{{self.literal()}}})"


class SequenceMS:
    """A finite sequence of group elements, stored as a multiset."""

    __slots__ = ("group", "mult")

    def __init__(self, group: Group, mult=None):
        self.group = group
        self.mult = Counter()
        if mult:
            for x, m in dict(mult).items():
                i = x.index if isinstance(x, Element) else int(x)
                m = int(m)
                if m < 1:
                    raise ValueError("multiplicities must be positive")
                if not 0 <= i < group.order:
                    raise ValueError(f"element index {i} out of range")
                self.mult[i] += m

    @classmethod
    def from_terms(cls, group, terms):
        seq = cls(group)
        for x in terms:
            i = x.index if isinstance(x, Element) else int(x)
            if not 0 <= i < group.order:
                raise ValueError(f"element index {i} out of range")
            seq.mult[i] += 1
        return seq

    @property
    def length(self) -> int:
        return sum(self.mult.values())

    def support(self) -> GroupSet:
        return GroupSet.from_indices(self.group, self.mult.keys())

    def is_distinct(self) -> bool:
        return all(m == 1 for m in self.mult.values())

    def literal(self) -> str:
        g = self.group
        return ";".join(
            f"{g.element_literal(i)}:{m}" for i, m in sorted(self.mult.items())
        )

    def __repr__(self):
        return f"SequenceMS({self.group.spec()}, {{{self.literal()}}})"


@dataclass(frozen=True)
class CosetProfile:
    """rho[j-1] = number of nontrivial H-cosets holding >= j sequence terms."""

    subgroup: Subgroup
    rho: tuple

    def squares_sum(self) -> int:
        return sum(r * r for r in self.rho)


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_same(a: GroupSet, b) -> None:
    bg = b.group if isinstance(b, (GroupSet, Element, SequenceMS)) else b
    if a.group != bg:
        raise GroupMismatchError("operands from different groups")


def sumset(A: GroupSet, B: GroupSet) -> GroupSet:
    """A + B = {a + b : a in A, b in B}; empty if either operand is."""
    _check_same(A, B)
    if A.mask == 0 or B.mask == 0:
        return GroupSet(A.group)
    base, iterated = (A, B) if B.card <= A.card else (B, A)
    acc = 0
    for b in _iter_bits(iterated.mask):
        acc |= _shift_mask(base.group, base.mask, b)
        if acc == base.group.full_mask:
            break
    return GroupSet(A.group, acc)


def shift(A: GroupSet, g: Element) -> GroupSet:
    _check_same(A, g)
    return GroupSet(A.group, _shift_mask(A.group, A.mask, g.index))


def subset_sums(A: GroupSet) -> GroupSet:
    """Sigma(A): fold S <- S | (S + a) over a in A in ascending index order."""
    g = A.group
    s = 1
    for a in _iter_bits(A.mask):
        s |= _shift_mask(g, s, a)
        if s == g.full_mask:
            break
    return GroupSet(g, s)


def subsequence_sums(a: SequenceMS) -> GroupSet:
    """Sigma of a sequence: each term folded once per unit of multiplicity."""
    g = a.group
    s = 1
    for x in sorted(a.mult):
        for _ in range(a.mult[x]):
            nxt = s | _shift_mask(g, s, x)
            if nxt == s:
                break
            s = nxt
        if s == g.full_mask:
            break
    return GroupSet(g, s)


def stabilizer(S: GroupSet) -> Subgroup:
    """stab(S) = {g : S + g = S}; all of G for S empty or S = G."""
    g = S.group
    if S.mask == 0 or S.mask == g.full_mask:
        return Subgroup.whole(g)
    base = S.mask & -S.mask
    m0 = base.bit_length() - 1
    neg_m0 = g.neg_index(m0)
    members = []
    # g + S = S forces m0 + g in S, so only |S| candidate shifts exist
    for s in _iter_bits(S.mask):
        cand = g.add_index(s, neg_m0)
        if _shift_mask(g, S.mask, cand) == S.mask:
            members.append(cand)
    return Subgroup(g, members, validate=False)


def generated_subgroup(group: Group, S: GroupSet) -> Subgroup:
    """<S>: smallest subgroup containing S, by closure iteration."""
    if S.group != group:
        raise GroupMismatchError("set from a different group")
    closure = 1  # always contains 0
    frontier = [0]
    gens = [i for s in _iter_bits(S.mask) for i in (s, group.neg_index(s))]
    for x in frontier:
        for gidx in gens:
            y = group.add_index(x, gidx)
            if not closure >> y & 1:
                closure |= 1 << y
                frontier.append(y)
    return Subgroup(group, _iter_bits(closure), validate=False)


def gamma(S: GroupSet, x: Element) -> int:
    """|(S + x) & S|."""
    _check_same(S, x)
    return (_shift_mask(S.group, S.mask, x.index) & S.mask).bit_count()


def delta(S: GroupSet, x: Element) -> int:
    """|(S + x) \\ S|; gamma + delta = |S|."""
    _check_same(S, x)
    return (_shift_mask(S.group, S.mask, x.index) & ~S.mask).bit_count()


def deficiency(S: GroupSet, Q: GroupSet) -> int:
    """min(|Q & S|, |Q \\ S|)."""
    _check_same(S, Q)
    return min((Q.mask & S.mask).bit_count(), (Q.mask & ~S.mask).bit_count())


def coset_profile(a: SequenceMS, H: Subgroup) -> CosetProfile:
    """Counts of nontrivial H-cosets holding >= j terms, for j = 1, 2, ..."""
    if H.group != a.group:
        raise GroupMismatchError("subgroup of a different group")
    q = quotient(a.group, H)
    counts = Counter()
    for x, m in a.mult.items():
        counts[q.project(x)] += m
    counts.pop(0, None)  # terms inside H
    rho = (
        sum(v >= j for v in counts.values())
        for j in range(1, max(counts.values(), default=0) + 1)
    )
    return CosetProfile(H, tuple(rho))


def fold_to_quotient(S: GroupSet, H: Subgroup) -> GroupSet:
    """Image of S in G/H, as a set over the quotient group."""
    if H.group != S.group:
        raise GroupMismatchError("subgroup of a different group")
    q = quotient(S.group, H)
    return GroupSet.from_indices(q.quotient_group, map(q.project, _iter_bits(S.mask)))
