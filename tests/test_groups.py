import math
import operator
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sigmaforge import (
    Element,
    Group,
    GroupMismatchError,
    GroupSet,
    InvalidGroupError,
    InvalidSubgroupError,
    Subgroup,
    add,
    generated_subgroup,
    make_group,
    neg,
    parse_element,
    parse_group,
    quotient,
    stabilizer,
    zero,
)
from sigmaforge.groups import (
    _automorphism_images,
    _iter_bits,
    _torsion_mask,
    parse_index,
)
from conftest import naive_closure, naive_literal, naive_mask, naive_quotient


def test_make_group_orders():
    assert make_group([5]).order == 5
    assert make_group([2, 3]).order == 6
    assert make_group([1]).order == 1


def test_make_group_rejects_bad_factors():
    with pytest.raises(InvalidGroupError):
        make_group([])
    with pytest.raises(InvalidGroupError):
        make_group([0])
    with pytest.raises(InvalidGroupError):
        make_group([4, 0, 3])


def test_group_factors_are_exact_integers():
    with pytest.raises(TypeError):
        make_group([2.5])
    with pytest.raises(TypeError):
        Group(["6"])
    assert Group((6, 2)).factors == (6, 2)


def test_cyclic_addition():
    g = make_group([5])
    assert (g.element(3) + g.element(4)).index == 2


def test_product_addition():
    g = make_group([2, 3])
    e = g.element(1, 2)
    assert (e + e).coords == (0, 1)
    assert add(g, e, e) == e + e
    assert (e - g.element(0, 1)).coords == (1, 1)
    assert repr(g) == "Group(Z2xZ3)"


def test_neg_zero():
    g = make_group([2, 3])
    assert (-zero(g)) == zero(g)
    assert neg(g, zero(g)) == zero(g)


def test_cross_group_arithmetic_rejected():
    g1, g2 = make_group([5]), make_group([7])
    with pytest.raises(GroupMismatchError):
        g1.element(1) + g2.element(1)
    with pytest.raises(GroupMismatchError):
        add(g1, g1.element(1), g2.element(1))
    with pytest.raises(GroupMismatchError):
        g1.element(1) - g2.element(1)
    with pytest.raises(GroupMismatchError):
        neg(g1, g2.element(1))


def test_encode_and_element_reject_out_of_range():
    g = make_group([2, 3])
    with pytest.raises(ValueError, match="expected 2 coordinates"):
        g.encode((1,))
    with pytest.raises(ValueError, match="coordinate 3 out of range for Z_3"):
        g.encode((0, 3))
    with pytest.raises(ValueError, match="index 6 out of range"):
        Element(g, g.order)


def test_groupset_rejects_mask_bits_outside_the_group():
    g = make_group([2, 3])
    for mask in (1 << g.order, g.full_mask << 1, -1):
        with pytest.raises(ValueError, match="mask has bits outside the group"):
            GroupSet(g, mask)
    assert GroupSet(g, g.full_mask) == GroupSet.full(g)


@given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.data())
def test_encode_decode_roundtrip(factors, data):
    g = make_group(factors)
    coords = tuple(data.draw(st.integers(0, n - 1)) for n in factors)
    assert g.decode(g.encode(coords)) == coords
    idx = data.draw(st.integers(0, g.order - 1))
    assert g.encode(g.decode(idx)) == idx


# Z4xZ8xZ64: the digit runs of a dense set are Z4xZ8 and Z64, so the low
# run takes every factor but the last
LITERAL_GROUPS = [
    (1,), (4096,), (1, 5), (7, 1, 3), (2,) * 12, (64, 64), (2, 2048), (4, 8, 64),
]
# G's literal is built from decimal blocks of 100 of the first factor: cyclic
# orders at block boundaries, and products with a large first factor
FULL_LITERAL_GROUPS = [
    (99,), (100,), (101,), (199,), (200,), (1000,), (1001,), (101, 2), (1000, 3),
]


@pytest.mark.parametrize("factors", LITERAL_GROUPS + FULL_LITERAL_GROUPS)
@settings(max_examples=25, deadline=None)
@given(drawn=st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_literal_of_empty_and_full_sets(factors, drawn):
    # besides the listed groups, drawn arrangements of small factors,
    # factor 1 included
    for g in (make_group(factors), make_group(drawn)):
        for mask in (0, g.full_mask):
            A = GroupSet(g, mask)
            assert A.literal() == naive_literal(g, mask)
            assert A.members() == list(_iter_bits(mask))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(LITERAL_GROUPS), st.data())
def test_literal_and_members_match_naive(factors, data):
    g = make_group(factors)
    base = data.draw(st.sampled_from([0, g.full_mask, None]))
    if base is None:
        base = data.draw(st.integers(0, g.full_mask))
    flips = data.draw(st.sets(st.integers(0, g.order - 1), max_size=6))
    mask = base ^ sum(1 << i for i in flips)
    A = GroupSet(g, mask)
    assert A.literal() == naive_literal(g, mask)
    assert A.members() == list(_iter_bits(mask))


@pytest.mark.parametrize("factors", [(2,) * 12, (2,) * 20])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_literal_of_sets_smaller_than_the_digit_count(factors, size):
    g = make_group(factors)
    rng = random.Random(size)
    for members in (range(size), [g.order - 1 - i for i in range(size)],
                    rng.sample(range(g.order), size)):
        mask = sum(1 << m for m in members)
        assert GroupSet(g, mask).literal() == naive_literal(g, mask)


# order 1 to 96: lists of up to 150 items are sparse or dense, and repeat
FROM_INDICES_GROUPS = [(1,), (6,), (64,), (2,) * 6, (4, 8), (2, 3, 16)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FROM_INDICES_GROUPS), st.data())
def test_from_indices_matches_or_loop(factors, data):
    g = make_group(factors)
    idx = data.draw(st.lists(st.integers(0, g.order - 1), max_size=150))
    wrap = data.draw(st.lists(st.booleans(), min_size=len(idx), max_size=len(idx)))
    mixed = [Element(g, i) if w else i for i, w in zip(idx, wrap)]
    want = naive_mask(g, idx)
    for items in (idx, mixed, iter(mixed), (x for x in idx), map(int, idx)):
        assert GroupSet.from_indices(g, items).mask == want


# orders 1, 7, 1001 and 4099 leave the top byte of the bitmap buffer partial
@pytest.mark.parametrize("order", [1, 7, 64, 512, 1001, 4096, 4099, 1 << 16])
def test_from_indices_at_every_density(order):
    g = make_group([order])
    rng = random.Random(order)
    for n in (0, 1, 2, 31, 32, 33, order // 16 - 1, order // 16, order // 2, order):
        if not 0 <= n <= order:
            continue
        idx = rng.sample(range(order - 1), n - 1) + [order - 1] if n else []
        rng.shuffle(idx)  # the top index |G| - 1 at every nonzero density
        idx += rng.choices(idx, k=n // 3)  # repeats
        want = naive_mask(g, idx)
        assert GroupSet.from_indices(g, idx).mask == want
        assert GroupSet.from_indices(g, iter(idx)).mask == want


def test_from_indices_raises_for_the_first_bad_item():
    z6, z8 = make_group([6]), make_group([8])
    with pytest.raises(TypeError):
        GroupSet.from_indices(z6, [1, 2.7, 9])
    with pytest.raises(ValueError, match="element index 9 out of range"):
        GroupSet.from_indices(z6, [1, 9, 2.7])
    with pytest.raises(GroupMismatchError):
        GroupSet.from_indices(z6, [1, Element(z8, 3)])
    with pytest.raises(InvalidSubgroupError):
        Subgroup.from_indices(z6, [0, 2, 3])
    assert Subgroup.from_indices(z6, iter([0, 2, 4, 2])).members() == [0, 2, 4]
    # the same checks on a longer list, in a larger group
    z64 = make_group([64])
    good = list(range(40))
    for bad, error, match in (
        ([2.7, 99], TypeError, None),
        ([99, 2.7], ValueError, "element index 99 out of range"),
        ([-1], ValueError, "element index -1 out of range"),
        (["3"], TypeError, None),
        ([Element(z8, 3)], GroupMismatchError, None),
    ):
        with pytest.raises(error, match=match):
            GroupSet.from_indices(z64, good + bad)
        with pytest.raises(error, match=match):
            GroupSet.from_indices(z64, iter(good + bad))
    dense = good + [Element(z64, 63), True]
    assert GroupSet.from_indices(z64, dense).mask == (1 << 40) - 1 | 1 << 63


def test_generated_subgroup_examples():
    g5 = make_group([5])
    assert generated_subgroup(g5, GroupSet(g5)).members() == [0]
    assert generated_subgroup(
        g5, GroupSet.from_indices(g5, [1])
    ).members() == list(range(5))
    g6 = make_group([6])
    assert generated_subgroup(g6, GroupSet.from_indices(g6, [2])).members() == [0, 2, 4]
    with pytest.raises(GroupMismatchError, match="set from a different group"):
        generated_subgroup(g6, GroupSet.from_indices(g5, [1]))


@given(st.integers(2, 24), st.sets(st.integers(0, 23), max_size=4))
def test_generated_subgroup_matches_closure_oracle(n, gens):
    g = make_group([n])
    gens = {x % n for x in gens}
    sub = generated_subgroup(g, GroupSet.from_indices(g, gens))
    assert sub.members() == naive_closure(g, gens)
    # Lagrange + closure invariants
    assert 0 in sub
    assert g.order % len(sub) == 0


def test_quotient_examples():
    g = make_group([6])
    full = Subgroup.full(g)
    assert quotient(g, full).num_cosets == 1
    h = Subgroup.from_indices(g, [0, 3])
    q = quotient(g, h)
    cosets = [[i for i in range(6) if q.project(i) == c] for c in range(q.num_cosets)]
    assert cosets == [[0, 3], [1, 4], [2, 5]]
    triv = Subgroup.trivial(g)
    assert quotient(g, triv).num_cosets == 6


def test_quotient_rejects_non_subgroup():
    g = make_group([6])
    with pytest.raises(InvalidSubgroupError):
        Subgroup.from_indices(g, [0, 1])  # not closed
    with pytest.raises(InvalidSubgroupError):
        Subgroup(g, 0b11)
    g24 = make_group([2, 4])
    cases = ((g, [0, 1]), (g, [0, 2]), (g, [1, 3, 5]), (g, []), (g24, [0, 1, 3, 4]))
    for group, members in cases:
        mask = sum(1 << m for m in members)
        with pytest.raises(InvalidSubgroupError):
            quotient(group, GroupSet(group, mask))
        with pytest.raises(InvalidSubgroupError):
            Subgroup(group, mask)


@given(st.sampled_from([(12,), (4, 6), (2, 4, 2)]), st.data())
def test_quotient_accepts_exactly_the_subgroups(factors, data):
    g = make_group(factors)
    members = data.draw(st.sets(st.integers(0, g.order - 1), max_size=8))
    if data.draw(st.booleans()):
        members |= {0}
    mask = sum(1 << m for m in members)
    plain = GroupSet(g, mask)
    if naive_closure(g, members) == sorted(members):
        q = quotient(g, plain)
        assert q.num_cosets * len(plain) == g.order
        assert isinstance(q.subgroup, Subgroup) and q.subgroup == plain
        assert Subgroup(g, mask) == plain
    else:
        with pytest.raises(InvalidSubgroupError):
            quotient(g, plain)
        with pytest.raises(InvalidSubgroupError):
            Subgroup(g, mask)


def test_quotient_cosets_have_subgroup_size():
    g = make_group([12])
    h = generated_subgroup(g, GroupSet.from_indices(g, [4]))
    q = quotient(g, h)
    for c in range(q.num_cosets):
        assert sum(q.project(i) == c for i in range(g.order)) == len(h)


def test_quotient_group_arithmetic():
    g = make_group([6])
    q = quotient(g, Subgroup.from_indices(g, [0, 3]))
    qg = q.quotient_group
    # cosets {0,3}, {1,4}, {2,5}: 1 + 2 = 0 mod H
    assert qg.add_index(1, 2) == 0
    assert qg.neg_index(1) == 2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(12,), (4, 6), (6, 4), (2, 4, 8), (3, 3, 2)]), st.data())
def test_quotient_matches_coset_oracle(factors, data):
    g = make_group(factors)
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    H = generated_subgroup(g, GroupSet.from_indices(g, gens))
    q = quotient(g, H)
    qg = q.quotient_group
    d = qg.factors
    assert qg.order * len(H) == g.order
    assert d == (1,) or all(n > 1 for n in d)
    assert all(b % a == 0 for a, b in zip(d, d[1:]))
    proj = [q.project(i) for i in range(g.order)]
    for i in range(g.order):
        for j in range(g.order):
            assert proj[g.add_index(i, j)] == qg.add_index(proj[i], proj[j])
    # equal projections exactly when the oracle puts i and j in one coset
    coset_of, reps = naive_quotient(g, H.members())
    assert len(set(zip(coset_of, proj))) == len(reps) == qg.order
    for c in range(qg.order):
        coset = [i for i in range(g.order) if proj[i] == c]
        assert coset  # project is onto
        assert coset == [i for i in range(g.order) if coset_of[i] == coset_of[coset[0]]]
    assert parse_group(qg.spec()) == qg


def test_quotient_group_is_a_plain_group():
    g = make_group([2, 2])
    a = quotient(g, Subgroup.from_indices(g, [0, g.encode((1, 0))]))
    b = quotient(g, Subgroup.from_indices(g, [0, g.encode((0, 1))]))
    # the same group Z2, with different projections
    assert a.quotient_group == b.quotient_group == make_group([2])
    assert a.project(g.encode((0, 1))) == b.project(g.encode((1, 0))) == 1
    assert a.project(g.encode((1, 0))) == b.project(g.encode((0, 1))) == 0
    assert quotient(g, Subgroup.full(g)).quotient_group.spec() == "Z1"
    # G/{0} is G on its invariant factors
    h = make_group([4, 2])
    assert quotient(h, Subgroup.trivial(h)).quotient_group.factors == (2, 4)


def test_parse_group():
    assert parse_group("Z6").factors == (6,)
    assert parse_group("z12xZ2").factors == (12, 2)
    with pytest.raises(InvalidGroupError):
        parse_group("Z6+Z2")


def test_parse_element():
    g = parse_group("Z12xZ2")
    assert parse_element(g, "1,1").coords == (1, 1)
    g5 = parse_group("Z5")
    assert parse_element(g5, "7").index == 2
    with pytest.raises(ValueError):
        parse_element(g, "3")
    with pytest.raises(ValueError):
        parse_element(parse_group("Z12"), "1,2")
    with pytest.raises(ValueError):
        parse_element(parse_group("Z2xZ3"), "1,1,1")


def test_parse_index_wraps_and_rejects():
    g = parse_group("Z12xZ2")
    assert parse_index(g, "13,-1") == parse_element(g, "1,1").index == 13
    assert parse_index(parse_group("Z5"), " 7") == 2
    for bad in ("3", "1,1,1", "1,x", "1.0,1", ""):
        with pytest.raises(ValueError):
            parse_index(g, bad)


def test_parse_index_names_an_element_that_is_not_an_integer():
    for spec, bad in (("Z6", ""), ("Z6", " "), ("Z6", "x"), ("Z12xZ2", "1,x"),
                      ("Z12xZ2", "1.0,1"), ("Z12xZ2", ",1")):
        g = parse_group(spec)
        with pytest.raises(ValueError) as info:
            parse_index(g, bad)
        assert str(info.value) == f"element {bad!r} of {spec} needs integer coordinates"
    with pytest.raises(ValueError, match="element '3' needs 2 coordinates"):
        parse_index(parse_group("Z12xZ2"), "3")


@pytest.mark.parametrize(
    "factors", [(1,), (2,), (60,), (6, 6), (3, 9), (2, 4, 8), (2, 2, 2, 2, 2)]
)
def test_torsion_mask_matches_multiples_oracle(factors):
    # G[d] = {x : d·x = 0}, with d·x summed by d additions
    g = make_group(factors)
    for d in (d for d in range(1, g.order + 1) if g.order % d == 0):
        want = 0
        for x in range(g.order):
            y = 0
            for _ in range(d):
                y = g.add_index(y, x)
            want |= (y == 0) << x
        assert _torsion_mask(g, d) == want, d


def test_torsion_mask_of_a_large_product_group():
    # 2^18 elements, too many for d additions each: G[d] is the product of
    # each digit's multiples of n_i / gcd(d, n_i), by index
    g = make_group((2,) * 16 + (4,))
    for d in (1, 2, 3, 4, 6):
        allowed = [range(0, n, n // math.gcd(d, n)) for n in g.factors]
        want = [sum(map(operator.mul, x, g.strides)) for x in product(*allowed)]
        assert _torsion_mask(g, d) == GroupSet.from_indices(g, want).mask, d


def test_stabilizer_of_a_pair_in_a_large_product_group_is_fast():
    # d = gcd(2, |G|) = 2 is no multiple of lcm = 4, so G[2] (2^19 elements)
    # cuts the candidates; built by shifts it takes milliseconds, and by a
    # big-int division per digit (quadratic in CPython) about 0.6 s
    g = make_group((2,) * 18 + (4,))
    A = GroupSet.from_indices(g, [1, 5])
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        H = stabilizer(A)
        elapsed.append(time.perf_counter() - t0)
    assert H.mask == 1 | 1 << 4  # 5 - 1 = 4 = e_2
    assert min(elapsed) < 0.1, elapsed


# every abelian group of order <= 24, in invariant factors, and other
# presentations, some with factors of 1 (which no map edits)
ORDER_24_GROUPS = [(n,) for n in range(1, 25)] + [
    (2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6), (4, 4), (2, 8), (2, 2, 4),
    (2, 2, 2, 2), (3, 6), (2, 10), (2, 12), (2, 2, 6), (2, 3), (2, 3, 2), (3, 2, 4),
    (1, 1), (1, 3, 1, 3), (2, 1, 2, 1, 4), (1,) * 12 + (2,), (1,) * 12 + (3,),
]
# the non-cyclic groups of order 32, whose tables mix scalings, swaps and shears
ORDER_32_GROUPS = [(2, 16), (4, 8), (2, 2, 8), (2, 4, 4), (2, 2, 2, 4), (2,) * 5]


@pytest.mark.parametrize("factors", ORDER_24_GROUPS + ORDER_32_GROUPS)
def test_automorphism_images_are_automorphisms(factors):
    g = make_group(factors)
    images = _automorphism_images(g)
    every = tuple(range(g.order))
    for t in images:
        assert sorted(t) == list(every) and t[0] == 0
        assert all(
            t[g.add_index(x, y)] == g.add_index(t[x], t[y]) for x in every for y in every
        )
    assert len(set(images)) == len(images) and every not in images
    # the elementary maps: scalings by each unit but 1, swaps of equal
    # moduli > 1, and shears
    scalings = sum(sum(math.gcd(u, n) == 1 for u in range(n)) - 1 for n in factors)
    swaps = sum(n == m > 1 for i, n in enumerate(factors) for m in factors[i + 1:])
    shears = sum(
        math.gcd(n, m) - 1 for i, n in enumerate(factors) for j, m in enumerate(factors) if i != j
    )
    assert len(images) == scalings + swaps + shears


def test_capacity_cap(monkeypatch):
    monkeypatch.setenv("SIGMAFORGE_MAX_ORDER", "100")
    from sigmaforge.groups import CapacityError

    with pytest.raises(CapacityError):
        make_group([101])
    make_group([100])
    for bad in ("abc", "1.5", "", "0", "-3"):
        monkeypatch.setenv("SIGMAFORGE_MAX_ORDER", bad)
        with pytest.raises(ValueError, match="SIGMAFORGE_MAX_ORDER"):
            make_group([2])


def test_element_str_and_literal():
    g = make_group([2, 3])
    assert str(g.element(1, 2)) == "1,2"
    assert str(make_group([9]).element(4)) == "4"
