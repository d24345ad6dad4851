"""Sequences and exact set algebra over bit-packed subsets of a group.

Sets are `groups.GroupSet` bitmaps over element indices (a `Subgroup` is
one too); sequences are `SequenceMS` multisets.  The workhorse is
`groups._shift_mask`: translating a set by a group element is a
mixed-radix rotation of its bitmap, done per invariant factor with
word-level shift/or, so a sumset costs O(|B|) big-int rotations.  It lives
in `groups` with `GroupSet` and the per-digit block starts it reads;
`subset_walk` applies the same rotations inline from per-element plans
(`groups._shift_plan`), and, given automorphism tables, walks only the
subsets that are lex-least in their orbits.  On Z_n, `subset_sums` takes
the members below 8 from one lookup in `_LOW_SUMS`, a 256-entry table of
integer subset sums built at import, and folds only the rest.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from math import gcd, lcm

from .groups import (
    Element,
    Group,
    GroupMismatchError,
    GroupSet,
    Subgroup,
    _as_subgroup,
    _index_of,
    _iter_bits,
    _join,
    _shift_mask,
    _shift_plan,
    _torsion_mask,
    quotient,
)


class SequenceMS:
    """A finite sequence of group elements, stored as a multiset."""

    __slots__ = ("group", "mult")

    def __init__(self, group: Group, mult=None):
        self.group = group
        self.mult = Counter()
        if mult:
            for x, m in dict(mult).items():
                i, m = _index_of(group, x), operator.index(m)
                if m < 1:
                    raise ValueError("multiplicities must be positive")
                if not 0 <= i < group.order:
                    raise ValueError(f"element index {i} out of range")
                self.mult[i] += m

    @classmethod
    def from_terms(cls, group, terms):
        return cls(group, Counter(terms))

    @property
    def length(self) -> int:
        return sum(self.mult.values())

    def support(self) -> GroupSet:
        return GroupSet.from_indices(self.group, self.mult.keys())

    def is_distinct(self) -> bool:
        return all(m == 1 for m in self.mult.values())

    def literal_pieces(self):
        """The text of `literal()` lazily: `x:m` per distinct term, `;` between."""
        g, sep = self.group, ""
        for i, m in sorted(self.mult.items()):
            yield f"{sep}{g.element_literal(i)}:{m}"
            sep = ";"

    def literal(self) -> str:
        return "".join(self.literal_pieces())

    def __eq__(self, other):
        return (
            isinstance(other, SequenceMS)
            and self.group == other.group
            and self.mult == other.mult
        )

    def __hash__(self):
        return hash((self.group, frozenset(self.mult.items())))

    def __repr__(self):
        return f"SequenceMS({self.group.spec()}, {{{self.literal()}}})"


@dataclass(frozen=True)
class CosetProfile:
    """rho[j-1] = number of nontrivial H-cosets holding >= j sequence terms."""

    subgroup: Subgroup
    rho: tuple

    def squares_sum(self) -> int:
        return sum(r * r for r in self.rho)


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
            return A.group._full
    return GroupSet(A.group, acc)


def shift(A: GroupSet, g: Element) -> GroupSet:
    _check_same(A, g)
    return GroupSet(A.group, _shift_mask(A.group, A.mask, g.index))


# _LOW_SUMS[c]: bitmap of the integer subset sums of the members of c in
# 1..7, bit 0 of c (the member 0) ignored; each sum is at most
# 1 + ... + 7 = 28, so every entry fits in 29 bits.  The entries below 2^a
# are those of members below a, and entry c + 2^a adds the member a.
_LOW_SUMS = [1, 1]
for _a in range(1, 8):
    _LOW_SUMS += [s | s << _a for s in _LOW_SUMS]
del _a


def subset_sums(A: GroupSet) -> GroupSet:
    """Sigma(A): fold S <- S | (S + a) over the nonzero a in A, lowest first.

    The members are peeled off lowest bit first inline, not through
    `_iter_bits`: no generator frame per member.  The member 0 is dropped
    up front, since S + 0 = S.  On Z_n (one invariant factor) the translate
    S + a is taken inline by two shifts, as `_shift_mask` proves, with no
    call per member.

    The fold stops at the pigeonhole bound.  Let S = Sigma(P) after folding
    the members P, and R the nonzero members not yet folded.  Each s in S
    and each s + r, r in R, is a subset sum of A, so S + ({0} ∪ R) lies in
    Sigma(A); if |S| + |R| >= |G|, then S and g - ({0} ∪ R) meet for every
    g, and Sigma(A) = G.  (R must leave 0 out, or {0} ∪ R has only |R|
    members.)  `need` is |G| - |R|, so the test also stops at S = G; a
    fold that stops with members left has met it.

    On Z_n the fold starts from the table entry of the members P below 8,
    not from S = {0}:
    - Z -> Z_n is a homomorphism, so Sigma(P) over Z_n is the mod-n image
      of P's integer subset sums, `_LOW_SUMS[P]`;
    - each pass of the reduction loop moves every bit at i >= n down by n,
      so when it ends each sum sits at its residue;
    - the pigeonhole bound above then holds with S = Sigma(P) and R the
      members from 8 up.
    A product group keeps the fold from {0}: its indices below 8 span
    several digits whenever n_1 < 8.

    A result equal to G is the group's stored set `_full`, built with the
    group, so no `GroupSet` is made for it.
    """
    g = A.group
    full = g.full_mask
    rest = A.mask & -2
    if len(g.factors) == 1:
        n = g.order
        s = _LOW_SUMS[rest & 255]
        while s > full:  # bits at n and above move down by n
            s = (s & full) | (s >> n)
        rest &= -256
        need = n - rest.bit_count()
        while rest and s.bit_count() < need:
            low = rest & -rest
            a = low.bit_length() - 1
            s |= ((s << a) & full) | (s >> (n - a))
            rest ^= low
            need += 1
    else:
        s = 1
        need = g.order - rest.bit_count()
        while rest and s.bit_count() < need:
            low = rest & -rest
            s |= _shift_mask(g, s, low.bit_length() - 1)
            rest ^= low
            need += 1
    return g._full if rest or s == full else GroupSet(g, s)


def subset_walk(group: Group, elems, size=None, settle=False, images=None):
    """Yield `(mask, sigma_mask)` for every subset B of `elems`.

    The subsets are visited in preorder of the tree whose root is the empty
    set and whose children of B add one element above max(B), in ascending
    order.  That is exactly the lex order of the ascending member lists: a
    list precedes its extensions (a prefix sorts first), and two lists that
    first differ in their i-th entry sit in sibling subtrees, visited in
    ascending order of that entry.  Each node costs at most one rotation,
    since Sigma(B ∪ {a}) = Sigma(B) | (Sigma(B) + a).  The rotation by a
    is applied inline from a plan built once per element by
    `groups._shift_plan`, which holds no |G|-bit integer, so the walk pays
    no call or digit arithmetic per node.  It keeps one (mask, Sigma) pair
    per level of the current path and its depth.  `elems` are distinct
    element indices.

    With `size`, only the subsets that extend to a `size`-subset by larger
    elements are visited: the paths to the `size`-subsets, which come in
    `itertools.combinations` order.  A j-subset is such a prefix iff its
    members lie in the first n - size + j positions, so the walk has
    sum_j C(n - size + j, j) = C(n + 1, size) nodes.

    With `settle`, a node whose Sigma is G is not yielded, and neither is
    its subtree: every extension has Sigma = G too.  A consumer for which a
    full Sigma decides nothing (it neither fails nor beats what it has)
    counts those subsets without seeing them.

    With `images`, index tables t of automorphisms of G (t[x] the image of
    x, as `groups._automorphism_images` builds them), the walk is orderly:
    it visits only the canonical subsets, those whose member list is
    lex-least among their images phi(B), and skips the subtree of every
    other child before rotating, yielding or settling it.
    - Every canonical set is reached.  The prefix B = A \\ {a}, a = max A,
      of a canonical A is canonical.  If phi(B) precedes B, the lowest x
      of phi(B) ^ B lies in phi(B) (`verify._precedes`), and x < max B, or
      phi(B) would hold B ∪ {x} and outgrow it.  So x < a, and p = phi(a),
      which is outside phi(B) and, below x, outside B too, either moves
      the lowest difference down to p, in phi(A), or leaves it at x: phi(A)
      precedes A.  The argument needs only that each phi is injective;
      no proof here needs the maps to form a group.
    - The test is a comparison.  The lowest bit of X ^ Y lies in X iff
      rev(X) > rev(Y), for the bit-reversed layout a -> bit |G| - 1 - a; so
      B is canonical iff rev(phi(B)) <= rev(B) for every phi.
    - It is incremental and costs a few big-int operations per child.  Each
      level of the path keeps P, the reversed masks of every phi(B) packed
      in fields of |G| + 1 bits whose top (guard) bit is set, and Q, rev(B)
      copied into every field; a child ORs one word, built once per
      element, into each.  With R = 1 in every field, field i of P - Q - R
      is 2^|G| + rev(phi_i(B)) - rev(B) - 1, which lies in
      [0, 2^(|G| + 1) - 2]: no borrow crosses a field, and the guard bit
      is set iff rev(phi_i(B)) > rev(B).  So the child is canonical iff
      P - Q - R has no guard bit set.
    With no tables the walk is the plain one: P and Q stay 0 and the test
    is not run.  (Running it on zero words made the bench's 125 exhaustive
    searches about a quarter slower in-process.)

    Right after a node is yielded, the consumer may call `walk.send(True)`
    to skip that node's subtree: the walk answers the `send` with a bare
    `yield` (so `send` returns None), and the consumer's loop goes on with
    the next node outside the subtree, still in lex order.  Skipping the
    root ends the walk.
    """
    elems = sorted(elems)
    n = len(elems)
    if size is None:
        size, room = n, n
    else:
        room = n - size  # depth d extends by positions <= room + d only
    full = group.full_mask
    if settle and full == 1:  # |G| = 1: the root's Sigma is G
        return
    plans = [_shift_plan(group, a) for a in elems]
    orderly = bool(images)
    guards = 0  # the root's P: every guard bit set (none without tables)
    if orderly:
        top, width = group.order - 1, group.order + 1
        ones = sum(1 << i * width for i in range(len(images)))  # R
        guards = ones << group.order
        # per element a: 1 << rev(a) in every field, and 1 << rev(phi_i(a))
        # in field i
        own = [(1 << top - a) * ones for a in elems]
        moved = [sum(1 << top - t[a] + i * width for i, t in enumerate(images)) for a in elems]
    if (yield 0, 1):
        yield
        return
    path = [(-1, 0, 1, guards, 0)]  # (position in `elems` of max(B), B, Sigma(B), P, Q)
    depth = 0  # |B| for the last node on the path
    nxt = 0  # position of the next child to try
    while True:
        if nxt < n and depth < size and nxt <= room + depth:
            _, m, s, p, q = path[depth]
            if orderly:
                p |= moved[nxt]
                q |= own[nxt]
                if (p - q - ones) & guards:  # an image precedes the child
                    nxt += 1
                    continue
            m |= 1 << elems[nxt]
            if s != full:  # Sigma(B) = G stays G
                t = s
                for up, down, unit in plans[nxt]:  # t = Sigma(B) + a
                    kept = t & ((unit << down) - unit)
                    t = (kept << up) | ((t ^ kept) >> down)
                s |= t
                if settle and s == full:
                    nxt += 1
                    continue
            if (yield m, s):
                yield  # skipped: the next sibling follows
            else:
                path.append((nxt, m, s, p, q))
                depth += 1
            nxt += 1
        elif depth:
            nxt = path.pop()[0] + 1
            depth -= 1
        else:
            return


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
    return g._full if s == g.full_mask else GroupSet(g, s)


def stabilizer(S: GroupSet) -> Subgroup:
    """stab(S) = {g : S + g = S}; all of G for S empty or S = G.

    The `Subgroup` on the bitmap of `_stabilizer_mask`.
    """
    return Subgroup(S.group, _stabilizer_mask(S.group, S.mask))


def _stabilizer_mask(group: Group, mask: int) -> int:
    """Bitmap of stab(S) for the bitmap `mask` of S.

    Lagrange first.  S is a union of H-cosets for H = stab(S), so |H|
    divides d = gcd(|S|, |G|), and every h in H has order dividing |H|:
    H ⊆ G[d] = {x : d·x = 0} (`groups._torsion_mask`).  So d = 1 gives
    H = {0} with no rotation, and G[d] bounds the candidates below.  It is
    all of G when every n_i divides d, and is then not built.

    Subgroup chain, on Z_n (one invariant factor).  H is found with no
    candidate set:
    - Z_n has exactly one subgroup of each order e | n, G[e] = <n/e>, so
      H = G[e0] for e0 = |H|, which divides d;
    - n/q^j has order q^j, so it lies in G[e0] iff q^j | e0: for each prime
      q of d the tests S + n/q = S, S + n/q^2 = S, ... pass up to
      j = v_q(e0) and fail after it, and e0 is the product of the prime
      powers that passed.
    The primes of d come from trial division, about sqrt(d) steps; each
    test is one rotation, at most v_q(d) per prime.

    Candidate refinement, on a product group, whose G[d] can hold many
    subgroups of one order.  S + g = S iff (G \\ S) + g = G \\ S, since
    translation by g is a bijection of G; so S is replaced by its complement
    when that is smaller (|G \\ S| gives the same d).  The loop keeps a
    subgroup H and a candidate set C with H ⊆ stab(S) ⊆ C:
    - start: H = {0} and C = (S - m0) ∩ G[d] for m0 = min S, as S + g = S
      puts m0 + g in S;
    - take the least c in C \\ H and test S + c = S (one rotation);
    - if it holds, H becomes <H, c> by the doubling of `groups._join`, in
      ceil(log2 |<H, c>| / |H|) rotations; H and c lie in the subgroup
      G[d], so the join stays inside it;
    - if it fails, some t in S + c lies outside S, and s = t - c is in S
      with s + c outside S.  Then C &= S - s (one rotation) keeps
      stab(S), since s + g is in S for every g in it, and drops c + H,
      since s + c + h is in S iff s + c is, for h in stab(S).
    Each round moves c into H or out of C, so the loop ends with
    C \\ H empty, that is H = stab(S).  At most log2|G| rounds grow H, so
    a call takes about 2·min(|S|, |G \\ S|) rotations in the worst case
    (every failed test dropping one candidate), against the |S| tests of
    scanning every candidate; a random set loses about half of C per
    failure and needs about 2·log2|S|.
    """
    full = group.full_mask
    if mask == 0 or mask == full:
        return full
    card = mask.bit_count()
    d = gcd(card, group.order)
    if d == 1:
        return 1
    if len(group.factors) == 1:
        n, e, q = group.order, 1, 1
        while d > 1:
            q += 1
            if q * q > d:
                q = d  # no factor up to sqrt(d): d is prime
            if d % q:
                continue
            j = 0
            while d % q == 0:  # j = v_q(d)
                d //= q
                j += 1
            step = n
            for _ in range(j):
                step //= q
                if _shift_mask(group, mask, step) != mask:
                    break
                e *= q
        return 1 if e == 1 else _torsion_mask(group, e)
    if 2 * card > group.order:
        mask ^= full
    m0 = (mask & -mask).bit_length() - 1
    cand = _shift_mask(group, mask, group.neg_index(m0))
    if d % lcm(*group.factors):
        cand &= _torsion_mask(group, d)
    h = 1
    while rest := cand & ~h:
        c = (rest & -rest).bit_length() - 1
        moved = _shift_mask(group, mask, c)
        if moved == mask:
            h = _join(group, h, 1 << c)
        else:
            out = moved & ~mask
            t = (out & -out).bit_length() - 1
            # S - s for s = t - c
            cand &= _shift_mask(group, mask, group.add_index(c, group.neg_index(t)))
    return h


def generated_subgroup(group: Group, S: GroupSet) -> Subgroup:
    """<S>: smallest subgroup containing S, by the doubling of `groups._join`."""
    if S.group != group:
        raise GroupMismatchError("set from a different group")
    return Subgroup(group, _join(group, 1, S.mask))


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
    """Counts of nontrivial H-cosets holding >= j terms, for j = 1, 2, ...

    A coset is labelled by its least member, the lowest bit of x + H: two
    terms share a coset iff their translates of H are equal, and so have
    the same least member.  A term in H is dropped, so each distinct term
    outside H costs one rotation and no quotient is built.  H is checked
    by `groups._as_subgroup`, as in `quotient`.
    """
    g = a.group
    H = _as_subgroup(g, H)
    h = H.mask
    counts = Counter()
    for x, m in a.mult.items():
        if not h >> x & 1:
            coset = _shift_mask(g, h, x)
            counts[(coset & -coset).bit_length() - 1] += m
    rho = (
        sum(v >= j for v in counts.values())
        for j in range(1, max(counts.values(), default=0) + 1)
    )
    return CosetProfile(H, tuple(rho))


def fold_to_quotient(S: GroupSet, H: Subgroup) -> GroupSet:
    """Image of S in G/H, as a set over the quotient group."""
    q = quotient(S.group, H)
    return GroupSet.from_indices(q.quotient_group, map(q.project, _iter_bits(S.mask)))
