import math
import random
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sigmaforge import (
    Element,
    GroupMismatchError,
    GroupSet,
    InvalidSubgroupError,
    SequenceMS,
    Subgroup,
    coset_profile,
    deficiency,
    delta,
    fold_to_quotient,
    gamma,
    generated_subgroup,
    make_group,
    parse_group,
    random_sequence_theorem,
    sequence_bound_check,
    shift,
    stabilizer,
    subsequence_sums,
    subset_sums,
    sumset,
)
from sigmaforge import groups, setcalc
from sigmaforge.groups import _automorphism_images, _shift_mask
from sigmaforge.setcalc import subset_walk
from conftest import (
    count_calls,
    count_work,
    naive_canonical,
    naive_coset_profile,
    naive_stab,
    naive_subseq_sigma,
    naive_sigma,
    naive_sumset,
)


def gset(g, idxs):
    return GroupSet.from_indices(g, idxs)


# -- sumset ----------------------------------------------------------------

def test_sumset_identity_shift():
    g = make_group([7])
    A = gset(g, [2, 5, 6])
    assert sumset(gset(g, [0]), A) == A


def test_sumset_direct_example():
    g = make_group([6])
    assert sumset(gset(g, [1, 2]), gset(g, [0, 3])).members() == [1, 2, 4, 5]


def test_sumset_complete_when_large():
    # |A| + |B| > |G| forces A + B = G
    g = make_group([7])
    rng = random.Random(1)
    for _ in range(50):
        ka = rng.randint(1, 7)
        kb = 8 - ka
        A = gset(g, rng.sample(range(7), ka))
        B = gset(g, rng.sample(range(7), kb))
        assert sumset(A, B).card == 7


def test_sumset_empty_and_mismatch():
    g = make_group([6])
    assert sumset(GroupSet(g), gset(g, [1])).card == 0
    with pytest.raises(GroupMismatchError):
        sumset(gset(g, [1]), gset(make_group([7]), [1]))


def test_element_operands_are_exact_integers():
    z6 = make_group([6])
    for bad in (2.7, 2.0, "3"):
        with pytest.raises(TypeError):
            GroupSet.from_indices(z6, [1, bad])
        with pytest.raises(TypeError):
            bad in GroupSet.full(z6)
        with pytest.raises(TypeError):
            SequenceMS(z6, {bad: 1})
        with pytest.raises(TypeError):
            SequenceMS(z6, {1: bad})  # a multiplicity
    for i in (6, -1):
        with pytest.raises(ValueError, match=f"element index {i} out of range"):
            GroupSet.from_indices(z6, [1, i])
        with pytest.raises(ValueError, match=f"element index {i} out of range"):
            SequenceMS(z6, {i: 1})
        assert i not in GroupSet.full(z6)
    with pytest.raises(ValueError, match="multiplicities must be positive"):
        SequenceMS(z6, {1: 0})


def test_sequences_compare_by_group_and_multiplicities():
    g = make_group([6])
    a = SequenceMS(g, {1: 2})
    assert a == SequenceMS(g, {1: 2}) == SequenceMS.from_terms(g, [1, 1])
    assert hash(a) == hash(SequenceMS.from_terms(g, [1, 1]))
    assert a != SequenceMS(g, {1: 3})
    assert a != SequenceMS(g, {2: 2})
    assert a != SequenceMS(make_group([7]), {1: 2})
    assert a != GroupSet.from_indices(g, [1])
    assert len({a, SequenceMS(g, {1: 2}), SequenceMS(g), SequenceMS(g, {})}) == 2
    assert repr(SequenceMS(g, {4: 1, 1: 2})) == "SequenceMS(Z6, {1:2;4:1})"


def test_elements_of_another_group_are_rejected():
    z6, z8 = make_group([6]), make_group([8])
    for bad in (Element(z8, 5), Element(z8, 7)):
        with pytest.raises(GroupMismatchError):
            GroupSet.from_indices(z6, [bad])
        with pytest.raises(GroupMismatchError):
            bad in GroupSet.full(z6)
        with pytest.raises(GroupMismatchError):
            SequenceMS(z6, {bad: 1})
        with pytest.raises(GroupMismatchError):
            SequenceMS.from_terms(z6, [bad])
    # an element of the set's own group is read by its index
    assert GroupSet.from_indices(z6, [z6.element(5), 1]).members() == [1, 5]
    assert z6.element(5) in GroupSet.full(z6)
    assert SequenceMS.from_terms(z6, [z6.element(2), 2]).literal() == "2:2"
    with pytest.raises(ValueError, match="out of range"):
        SequenceMS.from_terms(z6, [6])


@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=3),
    st.data(),
)
@settings(max_examples=60)
def test_sumset_matches_oracle(factors, data):
    g = make_group(factors)
    A = data.draw(st.sets(st.integers(0, g.order - 1)))
    B = data.draw(st.sets(st.integers(0, g.order - 1)))
    got = sumset(gset(g, A), gset(g, B)).members()
    assert got == (naive_sumset(g, A, B) if A and B else [])


@given(
    st.sampled_from(
        [(1,), (7,), (19,), (64,), (73,), (2,) * 5, (4, 8), (6, 4), (2, 4, 8),
         (3, 3, 2), (2,) * 12, (2, 2, 6), (2, 6, 6), (3, 9)]
    ),
    st.data(),
)
@settings(max_examples=100)
def test_shift_mask_matches_add_index(factors, data):
    g = make_group(factors)
    mask = data.draw(st.integers(0, g.full_mask))
    j = data.draw(st.integers(0, g.order - 1))
    want = gset(g, {g.add_index(i, j) for i in GroupSet(g, mask).members()})
    assert _shift_mask(g, mask, j) == want.mask


@pytest.mark.parametrize(
    "factors",
    [(2,) * 4, (2, 4), (3, 6), (2, 2, 4)],
    ids=["Z2^4", "Z2xZ4", "Z3xZ6", "Z2xZ2xZ4"],
)
def test_shift_mask_moves_every_element_by_every_shift(factors):
    # the rotation moves each bit on its own, so the single bits stand for
    # every mask; the full set maps onto itself
    g = make_group(factors)
    for j in range(g.order):
        for x in range(g.order):
            assert _shift_mask(g, 1 << x, j) == 1 << g.add_index(x, j), (j, x)
        assert _shift_mask(g, g.full_mask, j) == g.full_mask


@pytest.mark.parametrize(
    "factors",
    [(2,) * 12, (2, 4), (3, 6), (2, 2, 4), (2, 6, 6), (3, 9), (12,), (1 << 20,)],
    ids=["Z2^12", "Z2xZ4", "Z3xZ6", "Z2xZ2xZ4", "Z2xZ6xZ6", "Z3xZ9", "Z12", "Z1048576"],
)
def test_stored_keep1_marks_digits_below_the_top(factors):
    # a cyclic group rotates by two shifts and stores no keep1
    g = make_group(factors)
    for n, stride, _, keep1 in g._digits:
        if len(factors) == 1:
            assert keep1 is None
            continue
        want = sum(1 << x for x in range(g.order) if x // stride % n < n - 1)
        assert keep1 == want, (n, stride)


SUMSET_RSS_SCRIPT = """
import random, resource, sys
sys.path.insert(0, {src!r})
from sigmaforge import GroupSet, parse_group, sumset
g = parse_group("Z1048576")
rng = random.Random(1)
A, B = (GroupSet.from_indices(g, rng.sample(range(g.order), 300)) for _ in "AB")
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert sumset(A, B).card > 300
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_sumset_by_many_distinct_shifts_keeps_memory_flat():
    # 300 distinct translations on a 2^20-element group; ru_maxrss is in KB
    # on Linux, and each stored |G|-bit mask would be 128 KB
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", SUMSET_RSS_SCRIPT.format(src=src)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 16 * 1024


# -- shift -----------------------------------------------------------------

def test_shift_examples():
    g = make_group([5])
    A = gset(g, [0, 1])
    assert shift(A, g.element(0)) == A
    assert shift(A, g.element(4)).members() == [0, 4]
    assert shift(shift(A, g.element(3)), -g.element(3)) == A


def test_shift_preserves_cardinality():
    g = make_group([4, 3])
    rng = random.Random(2)
    for _ in range(30):
        A = gset(g, rng.sample(range(12), rng.randint(0, 12)))
        assert shift(A, g.element(rng.randrange(4), rng.randrange(3))).card == A.card


# -- subset and subsequence sums ------------------------------------------

def test_sigma_examples():
    g5 = make_group([5])
    assert subset_sums(GroupSet(g5)).members() == [0]
    assert subset_sums(gset(g5, [1, 2])).members() == [0, 1, 2, 3]
    g8 = make_group([8])
    assert subset_sums(gset(g8, [2, 4])).members() == [0, 2, 4, 6]


def _sigma_case(factors):
    """A group and a mask on it: uniform, or the OR of three uniform masks,
    which holds 7/8 of G on average, so the fold meets the pigeonhole bound
    before S = G."""
    bits = st.integers(0, (1 << math.prod(factors)) - 1)
    dense = st.tuples(bits, bits, bits).map(lambda m: m[0] | m[1] | m[2])
    return st.tuples(st.just(factors), st.one_of(bits, dense))


@given(
    st.one_of(
        st.integers(1, 80).map(lambda n: (n,)),
        st.sampled_from([(2, 4), (3, 3), (2, 6), (4, 4), (2, 2, 2, 2)]),
    ).flatmap(_sigma_case)
)
@example(((1,), 1))  # Z1: S = G before any member is folded
@example(((80,), (1 << 80) - 1))  # the whole group
@example(((73,), 1 | 1 << 72))  # 0 and n - 1, the largest wrap
@example(((73,), (1 << 73) - 2))  # G \ {0}: the bound holds before any fold
@example(((3,), 0b101))  # {0, 2}: Sigma {0, 2}, and G if 0 counted as a member left
@example(((3,), 0b010))  # {1}: |S| + |R| = n - 1, Sigma = {0, 1}
@example(((8,), 0b01010100))  # H \ {0}, H = {0, 2, 4, 6} of index 2: Sigma = H
@example(((8,), 0b01010101))  # H itself
@example(((2, 4), 0b00110010))  # H \ {0}, H = {(0,0), (1,0), (0,2), (1,2)}
@example(((2, 4), 0b00110011))  # H itself
@settings(max_examples=200)
def test_sigma_matches_oracle(case):
    factors, mask = case
    g = make_group(list(factors))
    A = GroupSet(g, mask)
    assert subset_sums(A).members() == naive_sigma(g, A.members())


@pytest.mark.parametrize(
    "factors, elems, folds",
    [
        ((19,), [1, 5, 9, 18], 0),
        ((73,), list(range(0, 73, 7)), 0),
        ((4096,), random.Random(4096).sample(range(4096), 40), 0),
        ((4, 4), [1, 4, 5], 3),  # Sigma of size 8 < 16: every member folds
        ((4, 4), list(range(1, 16)), 0),  # |S| + |R| = 1 + 15: G before any fold
        ((2,) * 4, [1, 2, 4, 8], 4),  # G is reached at the last member
    ],
    ids=["Z19", "Z73", "Z4096", "Z4xZ4", "Z4xZ4-nonzero", "Z2^4"],
)
def test_sigma_rotates_inline_on_cyclic_groups(factors, elems, folds, monkeypatch):
    # Z_n translates S inline by two shifts; a product group still makes
    # one `_shift_mask` call per member folded
    g = make_group(factors)
    calls = count_calls(monkeypatch, _shift_mask)
    sigma = subset_sums(gset(g, elems))
    assert calls["_shift_mask"] == folds
    assert sigma.members() == naive_sigma(g, elems)


def test_low_sums_are_the_integer_subset_sums():
    # entry c: every integer sum of a subset of c's members in 1..7, the
    # member 0 (bit 0 of c) ignored
    assert len(setcalc._LOW_SUMS) == 256
    for c in range(256):
        members = [a for a in range(1, 8) if c >> a & 1]
        sums = {sum(t) for k in range(len(members) + 1) for t in combinations(members, k)}
        assert setcalc._LOW_SUMS[c] == sum(1 << x for x in sums)


def _low_byte_case(n):
    """A mask on Z_n whose low byte is dense (the OR of two random bytes)
    and whose higher bits are uniform."""
    dense = st.tuples(st.integers(0, 255), st.integers(0, 255)).map(lambda b: b[0] | b[1])
    high = st.integers(0, (1 << max(n - 8, 0)) - 1)
    mask = st.tuples(dense, high).map(lambda m: (m[0] | m[1] << 8) & ((1 << n) - 1))
    return st.tuples(st.just(n), mask)


@given(st.integers(1, 40).flatmap(_low_byte_case))
@example((1, 1))  # Z1: the table entry is {0} = G
@example((2, 0b10))  # Z2 {1}: sums 0 and 1, no pass
@example((3, 0b110))  # Z3 {1, 2}: sums up to 3, one pass
@example((7, 0b1111110))  # Z7 {1..6}: sums up to 21, three passes
@example((8, 0xFE))  # Z8 {1..7}: sums up to 28, three passes
@example((14, 0xFE))  # Z14: 28 = 2n, moved down twice to 0
@example((15, 0xFE))  # Z15: 28 < 2n, one pass
@example((28, 0xFE))  # Z28: the sum 28 lands on 0
@example((29, 0xFE))  # Z29: the sum 28 stays at 28, no pass
@example((73, ((1 << 73) - 2) & ~(1 << 3 | 1 << 5 | 1 << 40)))  # Z73, all units minus three
@example((40, 1 << 7))  # Z40 {7}: Sigma {0, 7}, member 7 taken from the table alone
@example((13, 0b1000000011110))  # Z13 {1..4, 12}: Sigma misses 11, G if need counted 1..4
@settings(max_examples=300)
def test_sigma_from_the_low_byte_table_matches_oracle(case):
    n, mask = case
    g = make_group([n])
    A = GroupSet(g, mask)
    assert subset_sums(A).members() == naive_sigma(g, A.members())


def test_sigma_on_a_product_group_folds_every_low_member(monkeypatch):
    # the table is for Z_n only: on Z8xZ8 the members 1..7 lie in one
    # Z8 factor, Sigma is that subgroup of order 8, and each of the seven
    # is folded by a `_shift_mask` call
    g = make_group([8, 8])
    calls = count_calls(monkeypatch, _shift_mask)
    sigma = subset_sums(gset(g, range(1, 8)))
    assert calls["_shift_mask"] == 7
    assert sigma.members() == naive_sigma(g, list(range(1, 8)))


def test_sigma_contains_set_and_zero():
    g = make_group([3, 4])
    rng = random.Random(3)
    for _ in range(40):
        A = gset(g, rng.sample(range(12), rng.randint(0, 6)))
        sig = subset_sums(A)
        assert 0 in sig
        assert sig.mask & A.mask == A.mask


def test_sigma_monotone():
    g = make_group([15])
    rng = random.Random(4)
    for _ in range(40):
        A = rng.sample(range(15), rng.randint(0, 8))
        B = rng.sample(A, rng.randint(0, len(A)))
        sa = subset_sums(gset(g, A)).mask
        sb = subset_sums(gset(g, B)).mask
        assert sb & sa == sb


# -- subset walk -----------------------------------------------------------

WALK_GROUPS = [(6,), (8,), (2, 4), (3, 3), (2, 2, 2), (2, 3, 2)]


def _mask(idxs):
    return sum(1 << i for i in idxs)


@given(st.sampled_from(WALK_GROUPS), st.data())
@settings(max_examples=60)
def test_subset_walk_matches_oracle(factors, data):
    g = make_group(factors)
    elems = data.draw(st.lists(st.integers(0, g.order - 1), unique=True, max_size=8))
    size = data.draw(st.none() | st.integers(0, len(elems)))
    nodes = list(subset_walk(g, elems, size))
    masks = [m for m, _ in nodes]
    # every subset, or every prefix of a size-subset, exactly once
    if size is None:
        want = {_mask(c) for r in range(len(elems) + 1) for c in combinations(elems, r)}
    else:
        want = {_mask(c[:j]) for c in combinations(sorted(elems), size) for j in range(size + 1)}
    assert len(masks) == len(want) and set(masks) == want
    # in strictly increasing (lex) order of the member lists
    members = [GroupSet(g, m).members() for m in masks]
    assert all(a < b for a, b in zip(members, members[1:]))
    for (_, sigma), idxs in zip(nodes, members):
        assert GroupSet(g, sigma).members() == naive_sigma(g, idxs)


@given(st.sampled_from(WALK_GROUPS), st.data())
@settings(max_examples=30)
def test_subset_walk_leaves_in_combinations_order(factors, data):
    g = make_group(factors)
    k = data.draw(st.integers(0, g.order - 1))
    masks = [m for m, _ in subset_walk(g, range(1, g.order), k)]
    leaves = [m for m in masks if m.bit_count() == k]
    assert leaves == [_mask(c) for c in combinations(range(1, g.order), k)]
    # only the prefixes of the k-subsets: C(n + 1, k) nodes for n elements,
    # not every subset of size <= k
    assert len(masks) == comb(g.order, k)


def _below(m, s):
    """Whether subset `m` lies in the walk subtree under `s`, below `s` itself."""
    return m != s and m & s == s and (m ^ s) >> s.bit_length() << s.bit_length() == m ^ s


@given(st.sampled_from(WALK_GROUPS), st.data())
@settings(max_examples=60)
def test_subset_walk_skips_exactly_the_sent_subtrees(factors, data):
    g = make_group(factors)
    elems = data.draw(st.lists(st.integers(0, g.order - 1), unique=True, max_size=8))
    size = data.draw(st.none() | st.integers(0, len(elems)))
    nodes = list(subset_walk(g, elems, size))
    skip = data.draw(st.sets(st.sampled_from([m for m, _ in nodes])))
    walk = subset_walk(g, elems, size)
    seen = []
    for mask, sigma in walk:
        seen.append((mask, sigma))
        if mask in skip:
            assert walk.send(True) is None
    assert seen == [(m, s) for m, s in nodes if not any(_below(m, b) for b in skip)]


def _walk_oracle(g, elems, size):
    """The subsets `subset_walk(g, elems, size)` visits and the instances among them.

    Both come as sorted tuples, so in lex order; the instances are every
    subset, or with `size` the `size`-subsets.
    """
    elems = sorted(elems)
    if size is None:
        nodes = [c for r in range(len(elems) + 1) for c in combinations(elems, r)]
        return sorted(nodes), nodes
    leaves = list(combinations(elems, size))
    return sorted({c[:j] for c in leaves for j in range(size + 1)}), leaves


@given(st.sampled_from(WALK_GROUPS), st.data())
@settings(max_examples=80)
def test_settling_walk_matches_oracle(factors, data):
    g = make_group(factors)
    elems = data.draw(st.lists(st.integers(0, g.order - 1), unique=True, max_size=8))
    size = data.draw(st.none() | st.integers(0, len(elems)))
    nodes, instances = _walk_oracle(g, elems, size)

    def full(c):
        return len(naive_sigma(g, c)) == g.order

    walked = list(subset_walk(g, elems, size, settle=True))
    # a node is yielded iff its Sigma is not G, in lex order; every node
    # below a full-Sigma node is full too, so the settled subtrees hold
    # exactly the full-Sigma nodes
    assert [m for m, _ in walked] == [_mask(c) for c in nodes if not full(c)]
    assert all(GroupSet(g, s).members() == naive_sigma(g, GroupSet(g, m).members())
               for m, s in walked)
    # the yielded instances and the full-Sigma ones cover every instance once
    walked_instances = sum(size is None or m.bit_count() == size for m, _ in walked)
    assert walked_instances + sum(map(full, instances)) == len(instances)


@given(st.sampled_from(WALK_GROUPS), st.data())
@settings(max_examples=60)
def test_settling_walk_skips_exactly_the_sent_subtrees(factors, data):
    g = make_group(factors)
    elems = data.draw(st.lists(st.integers(0, g.order - 1), unique=True, max_size=8))
    size = data.draw(st.none() | st.integers(0, len(elems)))
    nodes = list(subset_walk(g, elems, size, settle=True))
    skip = data.draw(st.sets(st.sampled_from([m for m, _ in nodes])))
    walk = subset_walk(g, elems, size, settle=True)
    seen = []
    for mask, sigma in walk:
        seen.append((mask, sigma))
        if mask in skip:
            assert walk.send(True) is None
    assert seen == [(m, s) for m, s in nodes if not any(_below(m, b) for b in skip)]


ORBIT_GROUPS = [
    (2,), (6,), (8,), (2, 3), (6, 2), (3, 3), (2, 4), (2, 2, 2), (2, 3, 2), (4, 4), (2, 8),
    (2, 2, 4),
]


@given(st.sampled_from(ORBIT_GROUPS), st.booleans(), st.data())
@settings(max_examples=120, deadline=None)
def test_orderly_walk_yields_exactly_the_canonical_subsets(factors, settling, data):
    g = make_group(factors)
    images = _automorphism_images(g)
    elems = data.draw(st.lists(st.integers(0, g.order - 1), unique=True, max_size=8))
    size = data.draw(st.none() | st.integers(0, len(elems)))
    nodes, _ = _walk_oracle(g, elems, size)

    def full(c):
        return len(naive_sigma(g, c)) == g.order

    # the canonical nodes in lex order, less the full ones a settling walk
    # settles; the skips are drawn from those
    walked = [
        _mask(c) for c in nodes
        if naive_canonical(images, c) and not (settling and full(c))
    ]
    skip = data.draw(st.sets(st.sampled_from(walked)))
    walk = subset_walk(g, elems, size, settling, images)
    seen = []
    for mask, sigma in walk:
        seen.append(mask)
        assert GroupSet(g, sigma).members() == naive_sigma(g, GroupSet(g, mask).members())
        if mask in skip:
            assert walk.send(True) is None
    assert seen == [m for m in walked if not any(_below(m, b) for b in skip)]


def test_settling_walk_settles_a_full_root():
    g = make_group([1])
    for size, nodes in ((None, [(0, 1), (1, 1)]), (0, [(0, 1)]), (1, [(0, 1), (1, 1)])):
        assert list(subset_walk(g, [0], size)) == nodes
        assert list(subset_walk(g, [0], size, settle=True)) == []


def test_subset_walk_skipping_the_root_ends_it():
    g = make_group([6])
    for size in (None, 0, 2):
        walk = subset_walk(g, range(6), size)
        assert next(walk) == (0, 1)
        assert walk.send(True) is None
        assert list(walk) == []


@given(
    st.sampled_from([(1,), (2, 2, 2, 2, 2), (4, 8), (3, 9)]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_walk_sigmas_match_naive_sigma(factors, settling, data):
    # the walk rotates by per-element plans inline; each Sigma it yields is
    # the subset sums of the node's members, computed subset by subset
    g = make_group(factors)
    elems = data.draw(st.lists(st.integers(0, g.order - 1), unique=True, max_size=7))
    size = data.draw(st.none() | st.integers(0, len(elems)))
    nodes = list(subset_walk(g, elems, size, settling))
    assert nodes or (settling and g.order == 1)
    for mask, sigma in nodes:
        assert GroupSet(g, sigma).members() == naive_sigma(g, GroupSet(g, mask).members())
        assert not settling or sigma != g.full_mask


def test_subsequence_sums_examples():
    g9 = make_group([9])
    assert subsequence_sums(SequenceMS(g9)).members() == [0]
    assert subsequence_sums(SequenceMS(g9, {3: 2})).members() == [0, 3, 6]


def test_subsequence_matches_oracle_and_set_case():
    g = make_group([10])
    rng = random.Random(5)
    for _ in range(30):
        terms = [rng.randrange(10) for _ in range(rng.randint(0, 7))]
        a = SequenceMS.from_terms(g, terms)
        assert subsequence_sums(a).members() == naive_subseq_sigma(g, terms)
    # all-distinct sequence equals subset sums of the support
    distinct = rng.sample(range(10), 5)
    a = SequenceMS.from_terms(g, distinct)
    assert subsequence_sums(a) == subset_sums(gset(g, distinct))


# -- the stored full set ---------------------------------------------------

def _full_results(g, mask, other, terms):
    """The results of the three producers of G-valued sets on `g`."""
    A, B = GroupSet(g, mask), GroupSet(g, other)
    return {
        "subset_sums": lambda: subset_sums(A),
        "sumset": lambda: sumset(A, B),
        "subsequence_sums": lambda: subsequence_sums(SequenceMS.from_terms(g, terms)),
    }


@pytest.mark.parametrize("factors", [(1,), (5,), (12,), (2, 4), (2, 2, 2)])
def test_a_fresh_group_stores_g_before_any_operation(factors):
    g = make_group(factors)
    stored = g._full
    assert type(stored) is GroupSet and stored.group is g
    assert stored.mask is g.full_mask  # the group's int, not a second one
    assert stored == GroupSet.full(g) and repr(stored) == repr(GroupSet.full(g))
    producers = _full_results(g, g.full_mask, g.full_mask, range(g.order))
    for name, produce in producers.items():
        assert produce() is stored, name


@given(
    st.sampled_from([(1,), (2,), (5,), (12,), (2, 2), (2, 4), (3, 3), (2, 2, 2)]),
    st.data(),
)
@settings(max_examples=150)
def test_results_equal_to_g_are_the_groups_stored_set(factors, data):
    g, twin = make_group(factors), make_group(factors)
    mask = data.draw(st.integers(0, g.full_mask))
    other = data.draw(st.integers(0, g.full_mask))
    terms = data.draw(st.lists(st.integers(0, g.order - 1), max_size=6))
    fresh = GroupSet(g, g.full_mask)
    producers = _full_results(g, mask, other, terms)
    for name, produce in producers.items():
        got = produce()
        again = produce()
        if got.mask != g.full_mask:
            assert got is not again and got == again, name
            continue
        assert got is again and got.group is g, name
        assert type(got) is GroupSet and repr(got) == repr(fresh), name
        assert got == fresh and hash(got) == hash(fresh), name
        # an equal group stores a set of its own
        mirrored = _full_results(twin, mask, other, terms)[name]()
        assert mirrored is not got and mirrored.group is twin, name
        # no operation on the stored set changes it
        got.literal()
        stabilizer(got)
        got.complement()
        sumset(got, GroupSet(g, other))
        sumset(GroupSet(g, other), got)
        assert got.mask == g.full_mask and produce() is got, name


def test_sumset_stores_g_on_its_first_operands_group():
    g, twin = make_group([6]), make_group([6])
    A, B = gset(g, [0, 1, 2]), gset(twin, [0, 3])
    assert sumset(A, B) is subset_sums(gset(g, [1, 2, 3])) and sumset(A, B).group is g
    assert sumset(B, A).group is twin and sumset(B, A) is not sumset(A, B)


def test_full_subgroup_is_not_the_stored_set():
    z1 = make_group([1])  # Z1: every Sigma is G with nothing folded
    assert subsequence_sums(SequenceMS(z1)) is subset_sums(GroupSet(z1))
    g = make_group([2, 4])
    stored = subset_sums(GroupSet.full(g))
    assert type(Subgroup.full(g)) is Subgroup and Subgroup.full(g) is not stored
    assert Subgroup.full(g) == stored


# -- stabilizer ------------------------------------------------------------

def test_stabilizer_examples():
    g6 = make_group([6])
    assert stabilizer(GroupSet.full(g6)).members() == list(range(6))
    assert stabilizer(GroupSet(g6)).members() == list(range(6))
    assert stabilizer(gset(g6, [0, 3])).members() == [0, 3]
    g5 = make_group([5])
    assert stabilizer(gset(g5, [0, 1])).members() == [0]
    # stab(S) equals, and hashes like, the plain set with the same bits
    H = stabilizer(gset(g6, [1, 4]))
    plain = GroupSet(g6, 0b1001)
    assert H == plain and plain == H and hash(H) == hash(plain)
    assert H != GroupSet(g6, 0b1011)
    assert repr(H) == "Subgroup(Z6, {0;3})" and repr(plain) == "GroupSet(Z6, {0;3})"


@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.data())
@settings(max_examples=60)
def test_stabilizer_matches_shift_oracle(factors, data):
    g = make_group(factors)
    A = data.draw(st.sets(st.integers(0, g.order - 1)))
    H, oracle = stabilizer(gset(g, A)), naive_stab(g, A)
    assert H.members() == oracle
    assert H == gset(g, oracle) and hash(H) == hash(gset(g, oracle))


@given(
    st.sampled_from(
        [(12,), (64,), (2, 2, 2, 2), (4, 8), (2, 4, 8), (3, 3, 2), (6, 6), (3, 9), (60,),
         (30,), (72,), (210,), (194,)]
    ),
    st.booleans(),
    st.data(),
)
@settings(max_examples=180)
def test_stabilizer_of_coset_unions_matches_shift_oracle(factors, large, data):
    # a union of K-cosets has K inside its stabilizer, so the refinement
    # grows H past {0}, which random sets seldom make it do; the cyclic
    # orders 30, 60, 72 and 210 have two to four primes, and 194 = 2·97 a
    # prime that trial division takes as what is left past its square root
    g = make_group(factors)
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=2))
    K = generated_subgroup(g, gset(g, gens))
    reps = data.draw(st.sets(st.integers(0, g.order - 1), min_size=1))
    S = sumset(gset(g, reps), K)
    if (2 * S.card > g.order) != large:
        S = S.complement()
    H = stabilizer(S)
    assert H.members() == naive_stab(g, S.members())
    assert H.mask & K.mask == K.mask


def test_stabilizer_rotation_budget(monkeypatch):
    calls = 0

    def counting(group, mask, g):
        nonlocal calls
        calls += 1
        return _shift_mask(group, mask, g)

    monkeypatch.setattr(setcalc, "_shift_mask", counting)

    def rotations(S):
        nonlocal calls
        calls = 0
        return stabilizer(S), calls

    # a subgroup of order 2^k, and a coset of it: one test and one doubling
    # per generator, plus the first shift
    z2_12 = make_group([2] * 12)
    for k in range(12):
        K = generated_subgroup(z2_12, gset(z2_12, [1 << i for i in range(k)]))
        for S in (K, shift(K, z2_12.element([1] * 12))):
            H, n = rotations(S)
            assert H == K and n <= 2 * k + 2, (k, n)
    # a cyclic subgroup of order 2^k: one test, then k doublings
    z4096 = make_group([4096])
    for k in (1, 5, 8, 11):
        K = generated_subgroup(z4096, gset(z4096, [4096 >> k]))
        H, n = rotations(K)
        assert H == K and n <= k + 2, (k, n)
    # G[2^j], a coset of it and unions of its cosets on Z16 and Z4096: one
    # test per power of 2 up to v_2(d), d = gcd(|S|, n), and no doubling
    rng = random.Random(7)
    for g, js in ((make_group([16]), range(5)), (z4096, (0, 1, 3, 7, 11))):
        for j in js:
            K = Subgroup(g, groups._torsion_mask(g, 1 << j))
            drawn = [rng.sample(range(g.order), rng.randint(2, 6)) for _ in range(6)]
            for reps in [[0], [1]] + drawn:
                S = sumset(gset(g, reps), K)
                H, n = rotations(S)
                oracle = [x for x in range(g.order) if _shift_mask(g, S.mask, x) == S.mask]
                assert H.members() == oracle and H.mask & K.mask == K.mask, (g, j, reps)
                d = math.gcd(S.card, g.order)
                v = (d & -d).bit_length() - 1  # v_2(d)
                assert n <= v + 1, (g, j, n, v)
    # G \ {z} is handled as {z}: stab is {0} after one shift
    H, n = rotations(GroupSet(z4096, z4096.full_mask ^ 1 << 1234))
    assert H == gset(z4096, [0]) and n <= 2
    # a random set loses about half its candidates per failed test; the
    # scan over every candidate took |S|, about 2048, rotations here
    S = GroupSet(z4096, random.Random(0).getrandbits(4096))
    H, n = rotations(S)
    assert H == gset(z4096, [0]) and n <= 32, n


@pytest.mark.parametrize(
    "spec", ["Z65536", "x".join(["Z2"] * 12), "Z3xZ9xZ27", "Z6xZ30xZ30"]
)
def test_generated_subgroup_rotation_budget(spec, monkeypatch):
    # the closure and the constructor's check each join every generator by
    # doubling, at most 2·log2|G| rotations apiece and one addition per
    # rotation; a search element by element makes |<S>|·2|S| additions
    g = parse_group(spec)
    rng = random.Random(spec)
    sets = [rng.sample(range(g.order), k) for k in (1, 2, 3, 5, 8, 40) for _ in range(5)]
    sets += [[x] for x in rng.sample(range(1, g.order), 200)]
    calls = count_work(monkeypatch)
    for elems in sets:
        calls.update(rotations=0, additions=0)
        S = gset(g, elems)
        K = generated_subgroup(g, S)
        assert calls["rotations"] <= 4 * math.log2(g.order), (elems, calls)
        assert calls["additions"] <= calls["rotations"], (elems, calls)
        assert K.mask & S.mask == S.mask


def test_stabilizer_of_a_size_prime_to_the_order_costs_no_rotation(monkeypatch):
    # |stab(S)| divides gcd(|S|, |G|), so gcd 1 answers {0} with no rotation:
    # every odd-size set of Z2^12 (the scan took about 2·log2|S| before),
    # and sets of Z12 and Z3xZ9 whose sizes are prime to the order
    rng = random.Random(19)
    calls = count_work(monkeypatch)
    for spec, sizes in (("x".join(["Z2"] * 12), range(1, 4096, 2)),
                        ("Z12", (1, 5, 7, 11)), ("Z3xZ9", (1, 2, 13, 26))):
        g = parse_group(spec)
        for size in rng.sample(sizes, min(len(sizes), 40)):
            S = gset(g, rng.sample(range(g.order), size))
            calls["rotations"] = 0
            assert stabilizer(S) == gset(g, [0])
            assert calls["rotations"] == 0, (spec, size, calls)


def test_stabilizer_of_a_subgroup_counts_its_doublings(monkeypatch):
    # K of order 2^k in Z2^12: the first shift, one test and one doubling
    # per generator, and the constructor's k doublings
    z2_12 = make_group([2] * 12)
    calls = count_work(monkeypatch)
    for k in range(12):
        K = generated_subgroup(z2_12, gset(z2_12, [1 << i for i in range(k)]))
        calls["rotations"] = 0
        assert stabilizer(K) == K
        assert calls["rotations"] <= 3 * k + 1, (k, calls)


def test_subgroup_is_a_group_set():
    g = make_group([6])
    H = Subgroup.from_indices(g, [0, 3])
    A = gset(g, [1, 2])
    assert sumset(A, H) == sumset(A, gset(g, [0, 3])) == gset(g, [1, 2, 4, 5])
    assert sumset(H, A) == sumset(A, H)
    assert Subgroup(g, 0b1001) == H and 3 in H and len(H) == 2
    assert Subgroup.full(g) == GroupSet.full(g)
    assert Subgroup.trivial(g) == gset(g, [0])


@given(st.sampled_from([(12,), (2, 6), (2, 2, 3)]), st.data())
@settings(max_examples=40)
def test_sumset_with_stabilizer_matches_oracle(factors, data):
    g = make_group(factors)
    S = data.draw(st.sets(st.integers(0, g.order - 1)))
    A = data.draw(st.sets(st.integers(0, g.order - 1), min_size=1))
    H = stabilizer(gset(g, S))
    assert sumset(gset(g, A), H).members() == naive_sumset(g, A, naive_stab(g, S))


def test_stabilizer_monotone_under_sumset():
    g = make_group([12])
    rng = random.Random(6)
    for _ in range(50):
        S = gset(g, rng.sample(range(12), rng.randint(1, 8)))
        T = gset(g, rng.sample(range(12), rng.randint(1, 8)))
        hs = stabilizer(S).mask
        hst = stabilizer(sumset(S, T)).mask
        assert hs & hst == hs


# -- gamma / delta / deficiency -------------------------------------------

def test_gamma_delta_examples():
    g5 = make_group([5])
    S = gset(g5, [0, 1])
    assert delta(S, g5.element(0)) == 0
    assert delta(S, g5.element(1)) == 1
    assert gamma(S, g5.element(1)) == 1


def test_gamma_plus_delta_and_complement():
    g = make_group([2, 6])
    rng = random.Random(7)
    for _ in range(60):
        S = gset(g, rng.sample(range(12), rng.randint(0, 12)))
        x = g.element(rng.randrange(2), rng.randrange(6))
        assert gamma(S, x) + delta(S, x) == S.card
        assert delta(S, x) == delta(S.complement(), x)


def test_delta_subadditive():
    g = make_group([16])
    rng = random.Random(8)
    for _ in range(60):
        S = gset(g, rng.sample(range(16), rng.randint(0, 16)))
        x, y = g.element(rng.randrange(16)), g.element(rng.randrange(16))
        assert delta(S, x + y) <= delta(S, x) + delta(S, y)


def test_deficiency_examples():
    g = make_group([6])
    S = gset(g, [0, 1, 2])
    assert deficiency(S, gset(g, [0, 1])) == 0  # Q inside S
    assert deficiency(S, gset(g, [4, 5])) == 0  # Q disjoint from S
    assert deficiency(S, gset(g, [1, 2, 3, 4])) == 2


# -- coset machinery -------------------------------------------------------

def test_coset_profile_examples():
    g = make_group([6])
    h = Subgroup.from_indices(g, [0, 3])
    inside = SequenceMS.from_terms(g, [0, 3, 3])
    assert coset_profile(inside, h).rho == ()
    a = SequenceMS.from_terms(g, [1, 1, 2])
    assert coset_profile(a, h).rho == (2, 1)
    # distinct terms against the trivial subgroup: singleton cosets
    triv = Subgroup.trivial(g)
    b = SequenceMS.from_terms(g, [0, 1, 4, 5])
    assert coset_profile(b, triv).rho == (3,)


def test_coset_profile_non_increasing():
    g = make_group([4, 4])
    h = generated_subgroup(g, gset(g, [g.encode((2, 0))]))
    rng = random.Random(9)
    for _ in range(30):
        a = SequenceMS.from_terms(
            g, [rng.randrange(16) for _ in range(rng.randint(0, 10))]
        )
        rho = coset_profile(a, h).rho
        assert all(rho[i] >= rho[i + 1] for i in range(len(rho) - 1))
        if rho:
            assert rho[0] <= g.order // len(h) - 1


COSET_GROUPS = [(12,), (2, 6), (2, 2, 3), (4, 4)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(COSET_GROUPS), st.data())
def test_coset_profile_matches_quotient_oracle(factors, data):
    g = make_group(factors)
    kind = data.draw(st.sampled_from(["generated", "trivial", "whole"]))
    if kind == "generated":
        gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
        H = generated_subgroup(g, gset(g, gens))
    else:
        H = Subgroup.trivial(g) if kind == "trivial" else Subgroup(g, g.full_mask)
    # order <= 16 and up to 24 terms: most draws repeat a term
    terms = data.draw(st.lists(st.integers(0, g.order - 1), max_size=24))
    a = SequenceMS.from_terms(g, terms)
    want = naive_coset_profile(g, H.members(), terms)
    assert coset_profile(a, H).rho == want
    # the same subgroup as a plain set is checked, then counted alike
    assert coset_profile(a, GroupSet(g, H.mask)).rho == want


def test_coset_profile_checks_its_subgroup():
    g = make_group([12])
    a = SequenceMS.from_terms(g, [1, 5, 5])
    for other in (make_group([2, 6]), make_group([6])):
        with pytest.raises(GroupMismatchError, match="subgroup of a different group"):
            coset_profile(a, Subgroup.trivial(other))
    for members in ([0, 1], [1, 7], []):
        with pytest.raises(InvalidSubgroupError):
            coset_profile(a, gset(g, members))


def test_sequence_bound_builds_no_quotient(monkeypatch):
    # coset_profile labels cosets by their least member: a Smith form per
    # instance would show up here as a call
    def refuse(*args):
        raise AssertionError("quotient called on the sequence-bound path")

    monkeypatch.setattr(setcalc, "quotient", refuse)
    monkeypatch.setattr(groups, "quotient", refuse)
    g = make_group([2, 4, 8])
    run = random_sequence_theorem(g, 24, 60, seed=7)
    assert run.verdict == "verified" and run.stats["instances"] == 60
    a = SequenceMS.from_terms(g, [1, 1, 2, 9, 33, 40, 40, 63])
    rep = sequence_bound_check(a)
    assert rep.holds and rep.context["rho_sq"] > 0


def test_fold_to_quotient():
    g = make_group([6])
    h = Subgroup.from_indices(g, [0, 3])
    assert fold_to_quotient(gset(g, [0, 3]), h).members() == [0]
    assert fold_to_quotient(GroupSet.full(g), h).members() == [0, 1, 2]
    assert fold_to_quotient(gset(g, [1, 4]), h).members() == [1]


def test_folds_by_same_subgroup_share_a_group():
    # two separate folds by H = <4> in Z12 land in one group G/H, so they
    # add, and folding commutes with the sumset
    g = make_group([12])
    h = Subgroup.from_indices(g, [0, 4, 8])
    A, B = gset(g, [1, 2]), gset(g, [3])
    fa, fb = fold_to_quotient(A, h), fold_to_quotient(B, h)
    assert fa.group == fb.group and hash(fa.group) == hash(fb.group)
    assert sumset(fa, fb) == fold_to_quotient(sumset(A, B), h)
    assert fa.group != fold_to_quotient(A, Subgroup.from_indices(g, [0, 6])).group


def test_quotient_consistency_with_sigma():
    # |Sigma(A)| = |H| * |fold(Sigma(A), H)| when H = stab(Sigma(A))
    g = make_group([12])
    rng = random.Random(10)
    for _ in range(40):
        A = gset(g, rng.sample(range(12), rng.randint(0, 8)))
        sig = subset_sums(A)
        H = stabilizer(sig)
        folded = fold_to_quotient(sig, H)
        assert sig.card == len(H) * folded.card
        assert sig.card % len(H) == 0


def test_membership_of_ints_outside_the_group():
    z6 = make_group([6])
    full = GroupSet.full(z6)
    for x in (-1, -6, -7, 6, 100):
        assert x not in full
    assert 0 in full and 5 in full
    assert -1 not in GroupSet(z6) and 5 not in gset(z6, [1])


def test_set_literals():
    g = make_group([6])
    assert gset(g, [5, 1, 3]).literal() == "1;3;5"
    g2 = make_group([2, 3])
    s = GroupSet.from_indices(g2, [g2.encode((1, 0)), g2.encode((0, 2))])
    assert s.literal() == "1,0;0,2"
