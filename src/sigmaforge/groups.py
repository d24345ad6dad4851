"""Finite abelian groups presented by invariant factors.

A group Z_{n1} x ... x Z_{nk} stores its elements as mixed-radix indices
in [0, order), so that subsets can live in flat bitmaps (python ints), and
translating a subset is a per-digit rotation of its bitmap (`_shift_mask`).
A `Group` is immutable: per invariant factor it keeps a bitmap of block
starts and, on a product group, the kept mask of a rotation by 1; each
other rotation derives its mask from the block starts, so translating by
any number of distinct elements stores nothing; its one other slot holds
G as a `GroupSet`, built with the group.
Every subset of a group is a `GroupSet` on that bitmap, a value never
mutated; a `Subgroup` is a `GroupSet` known to be closed, so a subgroup
equals, hashes like and adds with the plain set of the same elements.
A quotient G/H is an ordinary group on its invariant factors, read off
the Smith normal form of H's lattice, together with the projection
G -> G/H.
A group's order is capped at `MAX_ORDER`, a module constant read at call
time like the verifiers' caps; a larger one raises `CapacityError`.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from itertools import accumulate

MAX_ORDER = 1 << 20
# the most entries a digit-run table of `GroupSet.literal` may have
_RUN_TABLE_MAX = 64
# "00;01;...;99": the low two digits of the numbers in a decimal block of 100
_TWO_DIGITS = ";".join(f"{i:02}" for i in range(100))


class InvalidGroupError(ValueError):
    """Bad invariant-factor presentation (empty list, zero modulus, ...)."""


class GroupMismatchError(ValueError):
    """Operands belong to different groups."""


class InvalidSubgroupError(ValueError):
    """An element set that is not closed under the group operations."""


class GenerationError(ValueError):
    """A generating set does not generate the declared ambient group."""


class CapacityError(RuntimeError):
    """An exact computation exceeds its configured desk-scale cap."""


class Group:
    """Z_{n1} x ... x Z_{nk} with elements indexed in mixed radix.

    Immutable.  `_full` is G as a `GroupSet`, built in `__init__` on the
    same `full_mask` int, so no second |G|-bit integer is made; the
    results equal to G share it.  That set names its group, a reference
    cycle the cyclic garbage collector frees.  Equal groups each store
    their own set.
    """

    __slots__ = ("factors", "order", "strides", "full_mask", "_digits", "_full")

    def __init__(self, factors):
        factors = tuple(map(operator.index, factors))
        if not factors or any(n < 1 for n in factors):
            raise InvalidGroupError(f"invalid invariant factors: {factors!r}")
        order = 1
        strides = []
        for n in factors:
            strides.append(order)
            order *= n
        if order > MAX_ORDER:
            raise CapacityError(f"group order {order} exceeds cap {MAX_ORDER}")
        self.factors = factors
        self.order = order
        self.strides = tuple(strides)
        self.full_mask = (1 << order) - 1
        # (n, stride, block starts, keep1) per digit: the indices whose digits
        # at and below this one are all 0, and those whose digit is below
        # n - 1 (a rotation by 1 keeps them), None where no rotation reads it
        digits = []
        for n, stride in zip(factors, strides):
            unit, width = 1, n * stride
            while width < order:
                unit |= unit << width
                width *= 2
            unit &= self.full_mask
            keep1 = (unit << (n - 1) * stride) - unit if len(factors) > 1 else None
            digits.append((n, stride, unit, keep1))
        self._digits = tuple(digits)
        self._full = GroupSet(self, self.full_mask)

    # -- element arithmetic on raw indices ---------------------------------

    def decode(self, index: int) -> tuple:
        coords = []
        for n in self.factors:
            coords.append(index % n)
            index //= n
        return tuple(coords)

    def encode(self, coords) -> int:
        coords = tuple(coords)
        if len(coords) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} coordinates")
        index = 0
        for n, stride, r in zip(self.factors, self.strides, coords):
            if not 0 <= r < n:
                raise ValueError(f"coordinate {r} out of range for Z_{n}")
            index += r * stride
        return index

    def add_index(self, i: int, j: int) -> int:
        out = 0
        for n, stride in zip(self.factors, self.strides):
            out += (((i // stride) + (j // stride)) % n) * stride
        return out

    def neg_index(self, i: int) -> int:
        out = 0
        for n, stride in zip(self.factors, self.strides):
            r = (i // stride) % n
            out += ((n - r) % n) * stride
        return out

    def element(self, *coords) -> "Element":
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        return Element(self, self.encode(coords))

    def spec(self) -> str:
        return "x".join(f"Z{n}" for n in self.factors)

    def element_literal(self, index: int) -> str:
        if len(self.factors) == 1:
            return str(index)
        return ",".join(str(r) for r in self.decode(index))

    def __eq__(self, other):
        return isinstance(other, Group) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"Group({self.spec()})"


# -- bitmaps over the mixed-radix layout ----------------------------------


def _shift_mask(group: Group, mask: int, g: int) -> int:
    """Bitmap of {x + g : x in mask}.

    A nonzero digit s of g (modulus n) rotates that digit of every element
    within its block of n*stride indices: the low `down` = (n - s)*stride
    positions of each block move up by `up` = s*stride, the rest move down
    by `down`.  For block starts u (bits one block apart) and x < block,
    (u << x) - u = (2^x - 1)·u has exactly the low x positions of every
    block set, and no carry crosses a block.  For s = 1, down =
    (n - 1)*stride: the kept mask is the stored `keep1`, which every
    rotation on Z2^k (where s is always 1) reads.

    On Z_n (one invariant factor) the one block is the whole group, so bit
    i moves to i + g when i < n - g and to i + g - n otherwise: the
    rotation is `((mask << g) & full) | (mask >> (n - g))`, two shifts
    with no kept mask, so a cyclic group stores no `keep1`.
    """
    if g == 0 or mask == 0:
        return mask
    if len(group.factors) == 1:
        return ((mask << g) & group.full_mask) | (mask >> (group.order - g))
    for n, stride, unit, keep1 in group._digits:
        if s := g // stride % n:
            up = s * stride
            down = n * stride - up
            kept = mask & (keep1 if s == 1 else (unit << down) - unit)
            mask = (kept << up) | ((mask ^ kept) >> down)
    return mask


def _shift_plan(group: Group, g: int) -> tuple:
    """The rotations of `_shift_mask` by g, as `(up, down, unit)` triples.

    One triple per nonzero digit of g, with `unit` the group's own bitmap
    of block starts, so a plan holds no new |G|-bit integer.  A caller
    that translates by the same g many times applies it inline, as
    `_shift_mask` does, and skips the per-call digit arithmetic:
    `kept = mask & ((unit << down) - unit)`, then
    `mask = (kept << up) | ((mask ^ kept) >> down)`.  `_shift_mask` stays
    the single-shot kernel and builds no plan, which would cost a tuple
    per call.  Nor does it hold kept masks: one per element and digit is
    about 4 MB on a Z64xZ64 search.
    """
    plan = []
    for n, stride, unit, _ in group._digits:
        if s := g // stride % n:
            up = s * stride
            plan.append((up, n * stride - up, unit))
    return tuple(plan)


class GroupSet:
    """A subset of a group as a flat bitmap.

    A set is a value: nothing assigns its `group` or `mask` after
    `__init__`.  Every result equal to G is one object per group (its
    `_full`, built with the group), so mutating a set would change them all.
    """

    __slots__ = ("group", "mask")

    def __init__(self, group: Group, mask: int = 0):
        if mask < 0 or mask >> group.order:
            raise ValueError("mask has bits outside the group")
        self.group = group
        self.mask = mask

    @classmethod
    def from_indices(cls, group, indices):
        """The set of `indices`: ints or `Element`s of `group`, repeats allowed.

        Items are checked in order, so the first offending one raises; a
        plain int needs no `_index_of` call.  Each item sets its bit in a
        ceil(|G|/8)-byte little-endian buffer read by one `int.from_bytes`:
        O(|G|/8 + n) for n items, which a lazy iterable streams once.
        """
        order = group.order
        buf = bytearray((order + 7) >> 3)
        for i in indices:
            if type(i) is not int:
                i = _index_of(group, i)
            if not 0 <= i < order:
                raise ValueError(f"element index {i} out of range")
            buf[i >> 3] |= 1 << (i & 7)
        return cls(group, int.from_bytes(buf, "little"))

    @classmethod
    def full(cls, group):
        return cls(group, group.full_mask)

    @property
    def card(self) -> int:
        return self.mask.bit_count()

    def members(self):
        """Ascending member indices, from one scan of `bin(mask)`.

        In the reversed binary digits each member ends a piece "0"*gap + "1",
        so the running total of the piece lengths is the member's index + 1.
        """
        pieces = bin(self.mask)[:1:-1].replace("1", "1 ").split(" ")
        pieces.pop()  # the zeros above the top member
        return list(accumulate(map(len, pieces), initial=-1))[1:]

    def complement(self) -> "GroupSet":
        return GroupSet(self.group, self.group.full_mask ^ self.mask)

    def literal(self) -> str:
        """Canonical text form: sorted element literals joined by `;`.

        Formatted in bulk from `members()`.  The digits are cut, low to
        high, into runs whose product is at most min(|A|, _RUN_TABLE_MAX).
        A run's part of an index is `index % width` (the rest moves on as
        `index // width`); a one-digit run prints it with `str`, a longer
        run looks it up in a table of the run's literals.  So no table
        outgrows the output or the constant, and there is no per-element
        Python code.  Each run has a fixed cost, so a set with fewer members
        than G has digits is formatted one element at a time instead, its
        members peeled from the top by `bit_length` and one XOR each:
        `members()` scans as many digits as the top member's index, however
        few members there are, and the `mask & -mask` of `_iter_bits` costs
        a negation more per member.

        The full set is built by copying whole blocks of text instead, with
        no `members()`, table or per-element Python code:

        - First factor n_1, in decimal blocks of 100: for p >= 1 the numbers
          100p .. 100p + 99 print as str(p) followed by their two zero-padded
          low digits, so block p is str(p) + `_TWO_DIGITS` with each `;`
          followed by str(p).  Block 0 and the tail range(100q, n_1),
          q = n_1 // 100, are printed directly.
        - Higher factors: indices are mixed radix with the first digit
          fastest, so G in index order is the low digits' literals, repeated
          once per value of the high digits in index order, each element's
          end (each `;` and the text's end) followed by that value's suffix
          `,d_h,...,d_k`.  Levels are added to the low text one at a time
          while it holds fewer than sqrt(|G|) elements; the remaining
          digits make the suffix list, first high digit fastest, and one
          join copies the low text once per suffix.
        """
        if self.mask == self.group.full_mask:
            n, *high = self.group.factors
            blocks = [";".join(map(str, range(min(n, 100))))]
            blocks += [
                p + _TWO_DIGITS.replace(";", ";" + p) for p in map(str, range(1, n // 100))
            ]
            if n > 100 and n % 100:
                blocks.append(";".join(map(str, range(n - n % 100, n))))
            text, count, suffixes = ";".join(blocks), n, [""]
            for n in high:
                if count * count < self.group.order:
                    text = ";".join(
                        text.replace(";", f",{d};") + f",{d}" for d in range(n)
                    )
                    count *= n
                else:
                    suffixes = [f"{s},{d}" for d in range(n) for s in suffixes]
            return ";".join(text.replace(";", s + ";") + s for s in suffixes)
        if self.card < len(self.group.factors):
            rest, parts = self.mask, []
            while rest:
                top = rest.bit_length() - 1
                parts.append(self.group.element_literal(top))
                rest ^= 1 << top
            parts.reverse()
            return ";".join(parts)
        rest = self.members()
        limit = min(len(rest), _RUN_TABLE_MAX)
        runs = []
        for n in self.group.factors:
            if runs and math.prod(runs[-1]) * n <= limit:
                runs[-1].append(n)
            else:
                runs.append([n])
        columns = []
        for i, run in enumerate(runs):
            width = math.prod(run)
            part = rest
            if i < len(runs) - 1:
                part = map(width.__rmod__, rest)
                rest = list(map(width.__rfloordiv__, rest))
            if len(run) == 1:
                columns.append(map(str, part))
            else:
                table = list(map(str, range(run[0])))
                for n in run[1:]:
                    table = [f"{low},{d}" for d in range(n) for low in table]
                columns.append(map(table.__getitem__, part))
        if len(columns) == 1:
            return ";".join(columns[0])
        return ";".join(map(",".join, zip(*columns)))

    def __contains__(self, x):
        x = _index_of(self.group, x)
        return x >= 0 and bool(self.mask >> x & 1)

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
        return f"{type(self).__name__}({self.group.spec()}, {{{self.literal()}}})"


def _iter_bits(mask: int):
    """Set bit positions, lowest first, lazily.

    The scan of `sumset`'s early-exit rotation loop, the greedy argmax loops
    in `construct`, `fold_to_quotient`, and in `verify` the lazy Kneser
    literal and the hill-climb of `extremal_search`.
    `subset_sums` peels its bits inline instead, since it runs once per
    verified instance.  Kept apart from `GroupSet.members`: a lazy
    `find`-scan generator measured 20-70% slower on masks of at most 73
    bits, and the loops may stop early.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _index_of(group: Group, x) -> int:
    """The index of an `Element` of `group`, or of an exact integer.

    A float or a string raises `TypeError` (`operator.index`), not rounded.
    """
    if isinstance(x, Element):
        if x.group != group:
            raise GroupMismatchError("element from a different group")
        return x.index
    return operator.index(x)


@dataclass(frozen=True)
class Element:
    """A group element; `index` is the canonical mixed-radix encoding."""

    group: Group
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.group.order:
            raise ValueError(f"index {self.index} out of range")

    @property
    def coords(self) -> tuple:
        return self.group.decode(self.index)

    def _check(self, other: "Element"):
        if self.group != other.group:
            raise GroupMismatchError("elements belong to different groups")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.group, self.group.add_index(self.index, other.index))

    def __neg__(self) -> "Element":
        return Element(self.group, self.group.neg_index(self.index))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return self + (-other)

    def __str__(self):
        return self.group.element_literal(self.index)


def make_group(factors) -> Group:
    """Build Z_{n1} x ... x Z_{nk} from its invariant factors."""
    return Group(factors)


def zero(group: Group) -> Element:
    return Element(group, 0)


def add(group: Group, a: Element, b: Element) -> Element:
    if a.group != group or b.group != group:
        raise GroupMismatchError("element from a different group")
    return a + b


def neg(group: Group, a: Element) -> Element:
    if a.group != group:
        raise GroupMismatchError("element from a different group")
    return -a


class Subgroup(GroupSet):
    """A `GroupSet` closed under the group operations.

    Checked once, here, by the closure `_join` (skipped for G, a common
    stabilizer); raises `InvalidSubgroupError` if the mask is not closed.
    """

    __slots__ = ()

    def __init__(self, group, mask):
        super().__init__(group, mask)
        if mask != group.full_mask and _join(group, 1, mask) != mask:
            raise InvalidSubgroupError("member set is not a subgroup")

    @classmethod
    def trivial(cls, group):
        return cls(group, 1)


def _join(group: Group, h: int, gens: int) -> int:
    """Bitmap of <H ∪ gens> for the subgroup bitmap h and any bitmap gens.

    Joins the lowest generator c outside h by doubling, H_{k+1} = H_k |
    (H_k + 2^k·c) from H_0 = H, until 2^k·c is in H_k = H + {0, c, ...,
    (2^k - 1)c}; then H_k + c = H + {c, ..., 2^k·c} ⊆ H_k, so H_k = <H, c>.
    That takes ceil(log2 m) rotations for m = |<H, c>| / |H| >= 2, so a
    closure takes at most 2·log2(|<H ∪ gens>| / |H|).
    """
    while rest := gens & ~h:
        step = (rest & -rest).bit_length() - 1
        while not h >> step & 1:
            h |= _shift_mask(group, h, step)
            step = group.add_index(step, step)
    return h


def _automorphism_images(group: Group) -> list:
    """Index tables of elementary automorphisms of G, each editing one or two digits.

    - Scalings x_i -> u·x_i, u a unit mod n_i other than 1: additive, with
      the scaling by u^-1 as inverse.
    - Swaps x_i <-> x_j, i < j, n_i = n_j > 1: additive, each its own
      inverse.
    - Shears x_i -> x_i + c·x_j (i != j, 0 < c < n_i), well defined iff
      n_i | c·n_j, so c runs over the gcd(n_i, n_j) - 1 nonzero multiples
      of n_i / gcd(n_i, n_j): additive, with the shear by -c as inverse.
    No map is the identity and no two are equal: a scaling moves e_i alone,
    to u·e_i; a shear moves e_j alone, to e_j + c·e_i, off e_j's axis; a
    swap moves e_i and e_j both.  A digit with n_i = 1 is always 0, and no
    map edits it.  The maps need not form a group: by the proofs in
    `setcalc.subset_walk` any set of injective maps reaches every canonical
    set, and any set of automorphisms, which keep |Sigma|, |H| and
    |A \\ H|, gives the orderly `main`/`corollary` the same output; more
    maps only prune more.  Table t has t[x] = the index of the image of x:
    x plus each edited digit's change times its stride, so (x_j - x_i)·
    (s_i - s_j) for a swap.
    """
    every = range(group.order)
    digits = [[x // s % n for x in every] for n, s in zip(group.factors, group.strides)]
    changes = []  # per map, the change of each index x
    for i, (n, s) in enumerate(zip(group.factors, group.strides)):
        changes += [
            [(u * a % n - a) * s for a in digits[i]] for u in range(2, n) if math.gcd(u, n) == 1
        ]
        for j, (m, r) in enumerate(zip(group.factors, group.strides)):
            if i < j and n == m > 1:
                changes.append([(b - a) * (s - r) for a, b in zip(digits[i], digits[j])])
            step = n // math.gcd(n, m)
            changes += [
                [((a + c * b) % n - a) * s for a, b in zip(digits[i], digits[j])]
                for c in range(step, n, step) if i != j
            ]
    return [tuple(map(operator.add, every, change)) for change in changes]


def _torsion_mask(group: Group, d: int) -> int:
    """Bitmap of the subgroup G[d] = {x : d·x = 0}.

    d·x = 0 iff each digit x_i is a multiple of q_i = n_i / gcd(d, n_i).
    Built digit by digit, lowest first: if m (below 2^w) marks the allowed
    values of the lower digits' w indices, those below n_i·w are the copies
    of m at j·q_i·w, j < n_i / q_i.  Doubling `m |= m << s` (s = q_i·w,
    2·q_i·w, ... below n_i·w, as `Group` builds its block starts) puts
    copies at every multiple of q_i·w, q_i·w >= w apart, so none overlap;
    as q_i | n_i, the cut at n_i·w keeps exactly the wanted ones.  No
    big-int division is made (CPython's is quadratic).
    """
    mask, width = 1, 1
    for n in group.factors:
        step, width = n // math.gcd(d, n) * width, n * width
        while step < width:
            mask |= mask << step
            step *= 2
        mask &= (1 << width) - 1
    return mask


class Quotient:
    """G/H as a plain `Group` on its invariant factors, plus the projection.

    The rows of M span the lattice L = {x in Z^k : x mod n in H}; for the
    Smith form U·M·Q = diag(d_1, ..., d_k) (U, Q unimodular), x -> x·Q
    maps Z^k onto Z^k with L onto d_1 Z x ... x d_k Z, so `project`
    (x -> x·Q mod d) is onto G/H with kernel exactly H.  Factors d_i = 1
    are dropped; the trivial quotient is Z1.
    """

    __slots__ = ("group", "subgroup", "quotient_group", "_columns")

    def __init__(self, group, subgroup, diag, q):
        self.group = group
        self.subgroup = subgroup
        kept = [t for t, d in enumerate(diag) if d > 1] or [len(diag) - 1]
        self.quotient_group = Group(diag[t] for t in kept)
        # column t of Q for each factor d_t of G/H
        self._columns = [[row[t] for row in q] for t in kept]

    def __eq__(self, other):  # one Smith form per (G, H); H == H' compares G too
        return isinstance(other, Quotient) and self.subgroup == other.subgroup

    def __hash__(self):
        return hash(self.subgroup)

    @property
    def num_cosets(self):
        return self.quotient_group.order

    def project(self, i: int) -> int:
        """Index in G/H of the coset of the element with index i."""
        x, qg = self.group.decode(i), self.quotient_group
        return qg.encode(
            sum(a * b for a, b in zip(x, col)) % d
            for col, d in zip(self._columns, qg.factors)
        )


def _as_subgroup(group: Group, H: GroupSet) -> Subgroup:
    """H as a `Subgroup` of `group`: a plain `GroupSet` is made one, which
    checks its closure, and a set of another group raises."""
    if H.group != group:
        raise GroupMismatchError("subgroup of a different group")
    return H if isinstance(H, Subgroup) else Subgroup(group, H.mask)


def quotient(group: Group, H: GroupSet) -> Quotient:
    """G/H from a triangular lattice basis and its Smith normal form.

    H is checked by `_as_subgroup`.  Row j of the basis is a member of H
    whose coordinates below j are 0 and whose coordinate j is the least
    divisor c_j of n_j any such member has (n_j e_j if none has one).  The
    coordinates j of those members form the subgroup c_j Z_{n_j}, so
    subtracting row multiples digit by digit reduces any x in the lattice
    of H to 0: the rows span it.
    """
    H = _as_subgroup(group, H)
    k = len(group.factors)
    rows = []
    for level, (n, stride, unit, _) in enumerate(group._digits):
        rows.append([n * (j == level) for j in range(k)])
        low = [c for c in range(1, math.isqrt(n) + 1) if n % c == 0]
        for c in sorted({*low, *(n // c for c in low)})[:-1]:  # divisors < n
            if hits := H.mask >> c * stride & unit:
                g = (hits & -hits).bit_length() - 1 + c * stride
                rows[level] = list(group.decode(g))
                break
    return Quotient(group, H, *_smith(rows))


def _smith(m):
    """Smith form of the nonsingular square matrix m (modified in place).

    Returns (d, Q): d_1 | d_2 | ... > 0 and unimodular Q with
    U·m·Q = diag(d) for some unimodular U, which is never formed.
    """
    k = len(m)
    q = [[int(i == j) for j in range(k)] for i in range(k)]
    for t in range(k):
        while True:
            # move the least nonzero |entry| of the trailing block to (t, t)
            _, i, j = min(
                (abs(m[i][j]), i, j)
                for i in range(t, k)
                for j in range(t, k)
                if m[i][j]
            )
            m[t], m[i] = m[i], m[t]
            for row in m + q:
                row[t], row[j] = row[j], row[t]
            p = m[t][t]
            # reduce column t by row operations and row t by column operations
            for i in range(t + 1, k):
                if f := m[i][t] // p:
                    m[i] = [a - f * b for a, b in zip(m[i], m[t])]
            for j in range(t + 1, k):
                if f := m[t][j] // p:
                    for row in m + q:
                        row[j] -= f * row[t]
            if any(m[i][t] for i in range(t + 1, k)) or any(m[t][t + 1 :]):
                continue  # a remainder is the next, smaller pivot
            bad = next((r for r in m[t + 1 :] if any(a % p for a in r)), None)
            if bad is None:
                break
            m[t] = [a + b for a, b in zip(m[t], bad)]  # until d_t divides bad
    return [abs(m[t][t]) for t in range(k)], q


# -- text formats ----------------------------------------------------------

_GROUP_RE = re.compile(r"^z(\d+)(?:xz(\d+))*$")


def parse_group(spec: str) -> Group:
    """Parse a group spec like `Z6` or `Z12xZ2` (case-insensitive)."""
    s = spec.strip().lower()
    if not _GROUP_RE.match(s):
        raise InvalidGroupError(f"bad group spec: {spec!r}")
    return Group(int(part[1:]) for part in s.split("x"))


def parse_index(group: Group, literal: str) -> int:
    """Index of the element literal `c1,...,ck`; coordinates wrap mod n_i.

    Each coordinate is reduced into [0, n_i), so the index is in range
    by construction and needs no second check.  A coordinate that is not
    an integer raises a `ValueError` naming the literal and the group.
    """
    parts = literal.split(",")
    if len(parts) != len(group.factors):
        raise ValueError(
            f"element {literal!r} needs {len(group.factors)} coordinates"
        )
    index = 0
    try:
        for p, n, stride in zip(parts, group.factors, group.strides):
            index += int(p) % n * stride
    except ValueError:
        raise ValueError(
            f"element {literal!r} of {group.spec()} needs integer coordinates"
        ) from None
    return index


def parse_element(group: Group, literal: str) -> Element:
    return Element(group, parse_index(group, literal))
