"""Finite abelian groups presented by invariant factors.

A group Z_{n1} x ... x Z_{nk} stores its elements as mixed-radix indices
in [0, order), so that subsets can live in flat bitmaps (python ints).
Quotient groups are represented by coset-index relabeling of an ambient
group; they support the same arithmetic interface but not the rotation
fast path used by the set kernels.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

DEFAULT_MAX_ORDER = 1 << 20
_MAX_ORDER_ENV = "SIGMAFORGE_MAX_ORDER"


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


def max_order() -> int:
    raw = os.environ.get(_MAX_ORDER_ENV)
    if raw is None:
        return DEFAULT_MAX_ORDER
    return int(raw)


class Group:
    """Z_{n1} x ... x Z_{nk} with elements indexed in mixed radix."""

    __slots__ = ("factors", "order", "strides", "full_mask", "_rot_cache")

    def __init__(self, factors):
        factors = tuple(int(n) for n in factors)
        if not factors or any(n < 1 for n in factors):
            raise InvalidGroupError(f"invalid invariant factors: {factors!r}")
        order = 1
        strides = []
        for n in factors:
            strides.append(order)
            order *= n
        if order > max_order():
            raise CapacityError(
                f"group order {order} exceeds cap {max_order()} "
                f"(override via {_MAX_ORDER_ENV})"
            )
        self.factors = factors
        self.order = order
        self.strides = tuple(strides)
        self.full_mask = (1 << order) - 1
        self._rot_cache = {}

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

    def elements(self):
        return (Element(self, i) for i in range(self.order))

    def spec(self) -> str:
        return "x".join(f"Z{n}" for n in self.factors)

    def element_literal(self, index: int) -> str:
        if len(self.factors) == 1:
            return str(index)
        return ",".join(str(r) for r in self.decode(index))

    def __eq__(self, other):
        return (
            type(self) is Group
            and type(other) is Group
            and self.factors == other.factors
        )

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"Group({self.spec()})"


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


class Subgroup:
    """A subgroup as a sorted member list plus a bitmap."""

    __slots__ = ("group", "members", "mask")

    def __init__(self, group, members, validate=True):
        members = tuple(sorted(set(int(m) for m in members)))
        mask = 0
        for m in members:
            if not 0 <= m < group.order:
                raise InvalidSubgroupError(f"element {m} out of range")
            mask |= 1 << m
        self.group = group
        self.members = members
        self.mask = mask
        if validate:
            self._validate()

    def _validate(self):
        g = self.group
        if not self.members or self.members[0] != 0:
            raise InvalidSubgroupError("subgroup must contain 0")
        for a in self.members:
            if not self.mask >> g.neg_index(a) & 1:
                raise InvalidSubgroupError("not closed under negation")
            for b in self.members:
                if not self.mask >> g.add_index(a, b) & 1:
                    raise InvalidSubgroupError("not closed under addition")
        if g.order % len(self.members):
            raise InvalidSubgroupError("order does not divide group order")

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        i = x.index if isinstance(x, Element) else int(x)
        return bool(self.mask >> i & 1)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group == other.group
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.group, self.mask))

    def __repr__(self):
        return f"Subgroup({{{', '.join(map(str, self.members))}}})"

    @classmethod
    def whole(cls, group):
        return cls(group, range(group.order), validate=False)

    @classmethod
    def trivial(cls, group):
        return cls(group, (0,), validate=False)


class QuotientGroup(Group):
    """G/H with elements indexed by coset number; arithmetic via reps."""

    __slots__ = ("ambient", "subgroup", "coset_of", "reps")

    def __init__(self, ambient, subgroup, coset_of, reps):
        self.ambient = ambient
        self.subgroup = subgroup
        self.coset_of = coset_of
        self.reps = reps
        self.factors = None
        self.order = len(reps)
        self.strides = None
        self.full_mask = (1 << self.order) - 1
        self._rot_cache = {}

    def decode(self, index):
        return (index,)

    def encode(self, coords):
        (index,) = tuple(coords)
        return int(index)

    def add_index(self, i, j):
        amb = self.ambient
        return self.coset_of[amb.add_index(self.reps[i], self.reps[j])]

    def neg_index(self, i):
        return self.coset_of[self.ambient.neg_index(self.reps[i])]

    def spec(self):
        return f"{self.ambient.spec()}/H{len(self.subgroup)}"

    def element_literal(self, index):
        return str(index)

    # `quotient()` numbers the cosets deterministically from (G, H), so two
    # quotients by the same subgroup are the same group, index for index.
    def __eq__(self, other):
        return (
            type(other) is QuotientGroup
            and self.ambient == other.ambient
            and self.subgroup.mask == other.subgroup.mask
        )

    def __hash__(self):
        return hash((self.ambient, self.subgroup.mask))

    def __repr__(self):
        return f"QuotientGroup({self.spec()})"


class Quotient:
    """Coset partition of a group by a subgroup."""

    __slots__ = ("group", "subgroup", "coset_of", "reps", "quotient_group")

    def __init__(self, group, subgroup, coset_of, reps):
        self.group = group
        self.subgroup = subgroup
        self.coset_of = coset_of
        self.reps = reps
        self.quotient_group = QuotientGroup(group, subgroup, coset_of, reps)

    @property
    def num_cosets(self):
        return len(self.reps)

    def coset_mask(self, c: int) -> int:
        """Bitmap (in the ambient group) of the members of coset c."""
        g = self.group
        mask = 0
        rep = self.reps[c]
        for h in self.subgroup.members:
            mask |= 1 << g.add_index(rep, h)
        return mask


def quotient(group: Group, H: Subgroup) -> Quotient:
    """Partition `group` into H-cosets; coset 0 is H itself."""
    if H.group != group:
        raise GroupMismatchError("subgroup of a different group")
    if not H.members or H.members[0] != 0:
        raise InvalidSubgroupError("subgroup must contain 0")
    coset_of = [-1] * group.order
    reps = []
    for i in range(group.order):
        if coset_of[i] >= 0:
            continue
        c = len(reps)
        reps.append(i)
        for h in H.members:
            j = group.add_index(i, h)
            if coset_of[j] >= 0 and coset_of[j] != c:
                raise InvalidSubgroupError("member set is not a subgroup")
            coset_of[j] = c
    if len(reps) * len(H) != group.order:
        raise InvalidSubgroupError("member set is not a subgroup")
    return Quotient(group, H, coset_of, reps)


# -- text formats ----------------------------------------------------------

_GROUP_RE = re.compile(r"^z(\d+)(?:xz(\d+))*$")


def parse_group(spec: str) -> Group:
    """Parse a group spec like `Z6` or `Z12xZ2` (case-insensitive)."""
    s = spec.strip().lower()
    if not _GROUP_RE.match(s):
        raise InvalidGroupError(f"bad group spec: {spec!r}")
    return Group(int(part[1:]) for part in s.split("x"))


def parse_element(group: Group, literal: str) -> Element:
    parts = [p.strip() for p in literal.split(",")]
    if len(parts) == 1 and group.factors is not None and len(group.factors) > 1:
        raise ValueError(
            f"element {literal!r} needs {len(group.factors)} coordinates"
        )
    coords = [int(p) for p in parts]
    if group.factors is not None:
        coords = [r % n for r, n in zip(coords, group.factors)]
    return Element(group, group.encode(coords))
